//! The ten ransomware families of the paper's Table II.
//!
//! | Family      | Variants | Encryption | Self-propagation |
//! |-------------|----------|------------|------------------|
//! | Ryuk        | 5        | ✓          | ✓                |
//! | Lockbit     | 6        | ✓          | ✓                |
//! | Teslacrypt  | 10       | ✓          | ×                |
//! | Virlock     | 11       | ✓          | ×                |
//! | Cryptowall  | 8        | ✓          | ×                |
//! | Cerber      | 9        | ✓          | ×                |
//! | Wannacry    | 7        | ✓          | ✓                |
//! | Locky       | 6        | ✓          | ×                |
//! | Chimera     | 9        | ✓          | ×                |
//! | BadRabbit   | 5        | ✓          | ✓                |
//!
//! Each profile also carries the behavioural knobs the trace generator
//! uses — documented per field — reflecting the families' published
//! behaviour (C2 styles, CryptoAPI vs CNG usage, worm modules, Virlock's
//! polymorphic file infection, …).

/// Which Windows crypto stack a family's encryption loop uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CryptoStack {
    /// Classic advapi32 CryptoAPI (`CryptAcquireContext`/`CryptEncrypt`).
    CryptoApi,
    /// Cryptography Next Generation (`BCrypt*`).
    Cng,
    /// Custom/embedded cipher: few crypto API calls, heavy read/write.
    Embedded,
}

/// A ransomware family's behaviour profile.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyProfile {
    /// Family name as listed in Table II.
    pub name: &'static str,
    /// Number of variants aggregated in the paper's corpus.
    pub variants: u32,
    /// All corpus families encrypt (locker-only ransomware is obsolete).
    pub encrypts: bool,
    /// Worm-like lateral movement (Table II's self-propagation column).
    pub self_propagates: bool,
    /// Crypto stack used by the encryption loop.
    pub crypto_stack: CryptoStack,
    /// Contacts a C2 server before encrypting (key exchange / reporting).
    pub c2_before_encrypt: bool,
    /// Deletes volume shadow copies before encrypting.
    pub deletes_shadow_copies: bool,
    /// Establishes registry/service persistence.
    pub persistence: bool,
    /// Mean number of files encrypted per detonation (trace-length knob).
    pub files_encrypted_mean: u32,
    /// Anti-analysis behaviour intensity 0–3 (sleeps, debugger probes).
    pub anti_analysis: u8,
    /// Virlock-style polymorphic file infection (re-writes executables).
    pub polymorphic_infection: bool,
}

impl FamilyProfile {
    /// All ten families, in Table II order.
    pub fn all() -> Vec<FamilyProfile> {
        vec![
            FamilyProfile {
                name: "Ryuk",
                variants: 5,
                encrypts: true,
                self_propagates: true,
                crypto_stack: CryptoStack::CryptoApi,
                c2_before_encrypt: false,
                deletes_shadow_copies: true,
                persistence: true,
                files_encrypted_mean: 60,
                anti_analysis: 2,
                polymorphic_infection: false,
            },
            FamilyProfile {
                name: "Lockbit",
                variants: 6,
                encrypts: true,
                self_propagates: true,
                crypto_stack: CryptoStack::Cng,
                c2_before_encrypt: false,
                deletes_shadow_copies: true,
                persistence: true,
                files_encrypted_mean: 80,
                anti_analysis: 3,
                polymorphic_infection: false,
            },
            FamilyProfile {
                name: "Teslacrypt",
                variants: 10,
                encrypts: true,
                self_propagates: false,
                crypto_stack: CryptoStack::CryptoApi,
                c2_before_encrypt: true,
                deletes_shadow_copies: true,
                persistence: true,
                files_encrypted_mean: 50,
                anti_analysis: 1,
                polymorphic_infection: false,
            },
            FamilyProfile {
                name: "Virlock",
                variants: 11,
                encrypts: true,
                self_propagates: false,
                crypto_stack: CryptoStack::Embedded,
                c2_before_encrypt: false,
                deletes_shadow_copies: false,
                persistence: true,
                files_encrypted_mean: 45,
                anti_analysis: 2,
                polymorphic_infection: true,
            },
            FamilyProfile {
                name: "Cryptowall",
                variants: 8,
                encrypts: true,
                self_propagates: false,
                crypto_stack: CryptoStack::CryptoApi,
                c2_before_encrypt: true,
                deletes_shadow_copies: true,
                persistence: true,
                files_encrypted_mean: 55,
                anti_analysis: 2,
                polymorphic_infection: false,
            },
            FamilyProfile {
                name: "Cerber",
                variants: 9,
                encrypts: true,
                self_propagates: false,
                crypto_stack: CryptoStack::CryptoApi,
                c2_before_encrypt: false,
                deletes_shadow_copies: true,
                persistence: false,
                files_encrypted_mean: 65,
                anti_analysis: 2,
                polymorphic_infection: false,
            },
            FamilyProfile {
                name: "Wannacry",
                variants: 7,
                encrypts: true,
                self_propagates: true,
                crypto_stack: CryptoStack::CryptoApi,
                c2_before_encrypt: true,
                deletes_shadow_copies: true,
                persistence: true,
                files_encrypted_mean: 70,
                anti_analysis: 1,
                polymorphic_infection: false,
            },
            FamilyProfile {
                name: "Locky",
                variants: 6,
                encrypts: true,
                self_propagates: false,
                crypto_stack: CryptoStack::CryptoApi,
                c2_before_encrypt: true,
                deletes_shadow_copies: true,
                persistence: false,
                files_encrypted_mean: 55,
                anti_analysis: 1,
                polymorphic_infection: false,
            },
            FamilyProfile {
                name: "Chimera",
                variants: 9,
                encrypts: true,
                self_propagates: false,
                crypto_stack: CryptoStack::Cng,
                c2_before_encrypt: true,
                deletes_shadow_copies: false,
                persistence: false,
                files_encrypted_mean: 50,
                anti_analysis: 1,
                polymorphic_infection: false,
            },
            FamilyProfile {
                name: "BadRabbit",
                variants: 5,
                encrypts: true,
                self_propagates: true,
                crypto_stack: CryptoStack::CryptoApi,
                c2_before_encrypt: false,
                deletes_shadow_copies: false,
                persistence: true,
                files_encrypted_mean: 60,
                anti_analysis: 2,
                polymorphic_infection: false,
            },
        ]
    }

    /// Looks a family up by name.
    pub fn by_name(name: &str) -> Option<FamilyProfile> {
        Self::all().into_iter().find(|f| f.name == name)
    }

    /// Total variants across all families.
    ///
    /// Note: the paper's prose claims "78 variants", but Table II's
    /// per-family counts sum to 76; we reproduce Table II as ground truth
    /// (see EXPERIMENTS.md).
    pub fn total_variants() -> u32 {
        Self::all().iter().map(|f| f.variants).sum()
    }
}

/// A row of the regenerated Table II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Family name.
    pub family: String,
    /// Variant count.
    pub instances: u32,
    /// Encryption column.
    pub encryption: bool,
    /// Self-propagation column.
    pub self_propagation: bool,
}

/// Regenerates Table II from the family profiles.
pub fn table2() -> Vec<Table2Row> {
    FamilyProfile::all()
        .into_iter()
        .map(|f| Table2Row {
            family: f.name.to_string(),
            instances: f.variants,
            encryption: f.encrypts,
            self_propagation: f.self_propagates,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_families_table2_variants() {
        assert_eq!(FamilyProfile::all().len(), 10);
        // Table II sums to 76 (the prose says 78 — a paper-internal
        // inconsistency we resolve in favour of the table).
        assert_eq!(FamilyProfile::total_variants(), 76);
    }

    #[test]
    fn table2_matches_paper() {
        let t = table2();
        let expect: &[(&str, u32, bool)] = &[
            ("Ryuk", 5, true),
            ("Lockbit", 6, true),
            ("Teslacrypt", 10, false),
            ("Virlock", 11, false),
            ("Cryptowall", 8, false),
            ("Cerber", 9, false),
            ("Wannacry", 7, true),
            ("Locky", 6, false),
            ("Chimera", 9, false),
            ("BadRabbit", 5, true),
        ];
        assert_eq!(t.len(), expect.len());
        for (row, &(name, n, prop)) in t.iter().zip(expect) {
            assert_eq!(row.family, name);
            assert_eq!(row.instances, n);
            assert!(row.encryption, "all families encrypt");
            assert_eq!(row.self_propagation, prop, "{name}");
        }
    }

    #[test]
    fn four_families_self_propagate() {
        let worms = FamilyProfile::all()
            .iter()
            .filter(|f| f.self_propagates)
            .count();
        assert_eq!(worms, 4);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(
            FamilyProfile::by_name("Wannacry").map(|f| f.variants),
            Some(7)
        );
        assert!(FamilyProfile::by_name("NotAFamily").is_none());
    }

    #[test]
    fn virlock_is_the_polymorphic_one() {
        let all = FamilyProfile::all();
        let poly: Vec<&str> = all
            .iter()
            .filter(|f| f.polymorphic_infection)
            .map(|f| f.name)
            .collect();
        assert_eq!(poly, vec!["Virlock"]);
    }
}

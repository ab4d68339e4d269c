//! Trace analysis: the damage timeline of a detonation.
//!
//! The paper's case for in-storage detection is *timeliness*: the defence
//! "resides next to the data that it is protecting and therefore can offer
//! real-time mitigation upon detecting the presence of ransomware" (§I).
//! Quantifying that requires knowing, for a given trace, *when* each file
//! was destroyed — so a detection point can be converted into files lost
//! vs files saved.

use crate::api::ApiVocabulary;

/// The damage timeline of one detonation trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DamageTimeline {
    /// Call indices at which a victim file's encryption completed (the
    /// rename that seals the encrypted copy).
    pub file_loss_events: Vec<usize>,
    /// Trace length in calls.
    pub trace_len: usize,
}

impl DamageTimeline {
    /// Extracts the timeline from a trace: a file counts as lost at each
    /// rename (`MoveFileW`/`MoveFileExW`) that follows a destructive write
    /// burst — the sweep's per-file seal. Benign safe-saves also rename,
    /// so the extractor requires either a crypto call (CryptoAPI/CNG
    /// families) or a file-mapping write (Virlock-style embedded-cipher
    /// infection) in the preceding window.
    pub fn from_trace(trace: &[usize], vocab: &ApiVocabulary) -> Self {
        let mv = [vocab.tok("MoveFileW"), vocab.tok("MoveFileExW")];
        let destructive = [
            vocab.tok("CryptEncrypt"),
            vocab.tok("BCryptEncrypt"),
            vocab.tok("MapViewOfFile"),
        ];
        const LOOKBACK: usize = 12;
        let mut file_loss_events = Vec::new();
        for (i, tok) in trace.iter().enumerate() {
            if mv.contains(tok) {
                let start = i.saturating_sub(LOOKBACK);
                if trace[start..i].iter().any(|t| destructive.contains(t)) {
                    file_loss_events.push(i);
                }
            }
        }
        Self {
            file_loss_events,
            trace_len: trace.len(),
        }
    }

    /// Total files lost if the detonation runs to completion.
    pub fn total_files(&self) -> usize {
        self.file_loss_events.len()
    }

    /// Files already lost by call index `at` (exclusive).
    pub fn files_lost_by(&self, at: usize) -> usize {
        self.file_loss_events.iter().filter(|&&i| i < at).count()
    }

    /// Files saved if execution is frozen at call index `at`.
    pub fn files_saved_by(&self, at: usize) -> usize {
        self.total_files() - self.files_lost_by(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::FamilyProfile;
    use crate::sandbox::{Sandbox, WindowsVersion};
    use crate::variant::Variant;

    fn vocab() -> ApiVocabulary {
        ApiVocabulary::windows()
    }

    #[test]
    fn hand_built_trace() {
        let v = vocab();
        // read, encrypt, write, rename  |  plain rename (safe-save)
        let trace = vec![
            v.tok("ReadFile"),
            v.tok("CryptEncrypt"),
            v.tok("WriteFile"),
            v.tok("MoveFileExW"), // loss event at 3
            v.tok("WriteFile"),
            v.tok("ReplaceFileW"),
            v.tok("MoveFileW"), // no crypto in lookback? CryptEncrypt at 1 is within 12
        ];
        let tl = DamageTimeline::from_trace(&trace, &v);
        // Both renames see the crypto call within the 12-call lookback here.
        assert_eq!(tl.file_loss_events[0], 3);
        assert_eq!(tl.files_lost_by(3), 0);
        assert_eq!(tl.files_lost_by(4), 1);
    }

    #[test]
    fn plain_renames_do_not_count() {
        let v = vocab();
        let trace = vec![
            v.tok("WriteFile"),
            v.tok("FlushFileBuffers"),
            v.tok("MoveFileExW"),
        ];
        let tl = DamageTimeline::from_trace(&trace, &v);
        assert_eq!(tl.total_files(), 0);
    }

    #[test]
    fn crypto_families_show_many_loss_events() {
        let v = vocab();
        let sandbox = Sandbox::new(5);
        for name in ["Ryuk", "Lockbit", "Wannacry"] {
            let fam = FamilyProfile::by_name(name).expect("family");
            let variant = Variant::new(fam, 0);
            let trace = sandbox.detonate(&variant, WindowsVersion::Win10);
            let tl = DamageTimeline::from_trace(&trace.calls, &v);
            assert!(tl.total_files() > 20, "{name}: {}", tl.total_files());
        }
    }

    #[test]
    fn virlock_embedded_cipher_is_visible() {
        // Virlock never calls CryptEncrypt; its file-mapping infection
        // writes must still register as loss events.
        let v = vocab();
        let sandbox = Sandbox::new(7);
        let fam = FamilyProfile::by_name("Virlock").expect("family");
        let trace = sandbox.detonate(&Variant::new(fam, 0), WindowsVersion::Win10);
        let tl = DamageTimeline::from_trace(&trace.calls, &v);
        assert!(tl.total_files() > 10, "{}", tl.total_files());
    }

    #[test]
    fn early_freeze_saves_files() {
        let v = vocab();
        let sandbox = Sandbox::new(6);
        let fam = FamilyProfile::by_name("Cerber").expect("family");
        let trace = sandbox.detonate(&Variant::new(fam, 2), WindowsVersion::Win11);
        let tl = DamageTimeline::from_trace(&trace.calls, &v);
        let early = tl.files_saved_by(150);
        let late = tl.files_saved_by(trace.len());
        assert!(early > late);
        assert_eq!(late, 0, "running to completion saves nothing");
        // Monotone.
        assert!(tl.files_saved_by(0) == tl.total_files());
    }
}

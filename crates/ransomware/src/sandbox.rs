//! The Cuckoo-sandbox replacement.
//!
//! The paper detonates every sample "in a Cuckoo sandbox environment using
//! Windows 10 and 11 to extract all API calls that were made, in the order
//! in which they would be observed on a system housing a CSD" (Appendix A).
//! [`Sandbox`] plays that role for the synthetic corpus: it runs a variant
//! or benign workload under a chosen [`WindowsVersion`] and returns the
//! labelled [`ApiTrace`].

use crate::api::ApiVocabulary;
use crate::benign::{manual_interaction, BenignProfile};
use crate::variant::Variant;

/// The guest OS a trace was captured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowsVersion {
    /// Windows 10 guest.
    Win10,
    /// Windows 11 guest.
    Win11,
}

impl WindowsVersion {
    /// Both guest versions, as used by the paper.
    pub const BOTH: [WindowsVersion; 2] = [WindowsVersion::Win10, WindowsVersion::Win11];
}

/// Ground-truth label of a trace.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TraceLabel {
    /// A ransomware detonation (family, variant index).
    Ransomware {
        /// Family name.
        family: String,
        /// Variant index within the family.
        variant: u32,
    },
    /// A benign application session.
    Benign {
        /// Application name.
        application: String,
    },
    /// Manual desktop interaction.
    ManualInteraction,
}

impl TraceLabel {
    /// `true` for ransomware traces.
    pub fn is_ransomware(&self) -> bool {
        matches!(self, TraceLabel::Ransomware { .. })
    }
}

/// One captured execution: the ordered API-call tokens plus metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiTrace {
    /// Ground truth.
    pub label: TraceLabel,
    /// Guest OS.
    pub os: WindowsVersion,
    /// Ordered API-call tokens (`< 278`).
    pub calls: Vec<usize>,
}

impl ApiTrace {
    /// Trace length in calls.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// `true` if no calls were captured (never happens for real sources).
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }
}

/// The sandbox: owns the vocabulary and captures traces.
#[derive(Debug, Clone)]
pub struct Sandbox {
    vocab: ApiVocabulary,
    seed: u64,
}

impl Sandbox {
    /// Creates a sandbox with the canonical vocabulary and a corpus seed.
    pub fn new(seed: u64) -> Self {
        Self {
            vocab: ApiVocabulary::windows(),
            seed,
        }
    }

    /// The vocabulary traces are tokenized against.
    pub fn vocabulary(&self) -> &ApiVocabulary {
        &self.vocab
    }

    /// Detonates a ransomware variant.
    pub fn detonate(&self, variant: &Variant, os: WindowsVersion) -> ApiTrace {
        let calls = self.detonate_run(variant, os, 0);
        ApiTrace {
            label: TraceLabel::Ransomware {
                family: variant.family().name.to_string(),
                variant: variant.index(),
            },
            os,
            calls,
        }
    }

    /// Detonates a variant with an explicit run index (re-detonations of
    /// the same sample differ, as in a real sandbox).
    pub fn detonate_run(&self, variant: &Variant, os: WindowsVersion, run: u64) -> Vec<usize> {
        variant.generate(
            &self.vocab,
            os,
            self.seed
                .wrapping_add(run.wrapping_mul(0x9e37_79b9))
                .wrapping_add(os as u64),
        )
    }

    /// Runs a benign application session.
    pub fn run_benign(&self, app: &BenignProfile, os: WindowsVersion) -> ApiTrace {
        ApiTrace {
            label: TraceLabel::Benign {
                application: app.name.to_string(),
            },
            os,
            calls: app.generate(&self.vocab, os, self.seed.wrapping_add(os as u64)),
        }
    }

    /// Captures a manual desktop-interaction session.
    pub fn run_manual(&self, os: WindowsVersion, session: u64) -> ApiTrace {
        ApiTrace {
            label: TraceLabel::ManualInteraction,
            os,
            calls: manual_interaction(
                &self.vocab,
                os,
                self.seed
                    .wrapping_add(session.wrapping_mul(0x85eb_ca6b))
                    .wrapping_add(os as u64),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detonation_labels_carry_family() {
        let sb = Sandbox::new(1);
        let v = Variant::corpus().into_iter().next().expect("variant");
        let t = sb.detonate(&v, WindowsVersion::Win10);
        assert!(t.label.is_ransomware());
        assert_eq!(
            t.label,
            TraceLabel::Ransomware {
                family: "Ryuk".to_string(),
                variant: 0
            }
        );
        assert!(!t.is_empty());
    }

    #[test]
    fn benign_labels_carry_application() {
        let sb = Sandbox::new(1);
        let app = BenignProfile::suite().into_iter().next().expect("app");
        let t = sb.run_benign(&app, WindowsVersion::Win11);
        assert!(!t.label.is_ransomware());
        assert_eq!(t.os, WindowsVersion::Win11);
    }

    #[test]
    fn os_versions_yield_different_traces() {
        let sb = Sandbox::new(2);
        let v = Variant::corpus().into_iter().nth(10).expect("variant");
        let a = sb.detonate(&v, WindowsVersion::Win10);
        let b = sb.detonate(&v, WindowsVersion::Win11);
        assert_ne!(a.calls, b.calls);
    }

    #[test]
    fn re_detonations_differ() {
        let sb = Sandbox::new(3);
        let v = Variant::corpus().into_iter().nth(30).expect("variant");
        let a = sb.detonate_run(&v, WindowsVersion::Win10, 0);
        let b = sb.detonate_run(&v, WindowsVersion::Win10, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn manual_sessions_vary() {
        let sb = Sandbox::new(4);
        let a = sb.run_manual(WindowsVersion::Win10, 0);
        let b = sb.run_manual(WindowsVersion::Win10, 1);
        assert_ne!(a.calls, b.calls);
        assert_eq!(a.label, TraceLabel::ManualInteraction);
    }
}

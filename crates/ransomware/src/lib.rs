//! Synthetic Cuckoo-style sandbox corpus for ransomware detection.
//!
//! The reproduced paper (DSN-S 2024, §IV and Appendix A) builds its dataset
//! by detonating 78 variants from ten ransomware families in a Cuckoo
//! sandbox on Windows 10/11, recording every API call, and slicing the
//! traces into sliding windows of length 100; benign windows come from 30
//! popular portable applications plus manual desktop interaction. The
//! result: 29K sequences, 46% ransomware (13,340 ransomware / 15,660
//! benign) over a 278-call vocabulary.
//!
//! Real malware cannot be detonated here, so this crate *synthesizes* the
//! corpus: behaviour-model generators reproduce the phase structure of each
//! family (reconnaissance → key setup → \[propagation\] → file-encryption
//! loop → ransom note / persistence) and of each benign workload, over the
//! same 278-call vocabulary. Detection rests on the distributional and
//! sequential structure of the calls — which the generators control — not
//! on binary artifacts (see DESIGN.md §2 for the substitution argument).
//!
//! - [`api`] — the 278-call Windows API vocabulary, organized by category.
//! - [`analysis`] — damage timelines (when each file is destroyed), for
//!   mitigation-value accounting.
//! - [`family`] — the ten family profiles of Table II.
//! - [`variant`] — per-variant behaviour models emitting API traces.
//! - [`benign`] — the 30-application benign suite and manual interaction.
//! - [`sandbox`] — the Cuckoo-replacement executor (Windows 10/11).
//! - [`window`] — sliding-window extraction (length 100).
//! - [`dataset`] — corpus assembly, CSV round-trip, train/test splits.
//! - [`replay`] — the corpus as interleaved live traffic: the seeded
//!   load generator of process-event traces.
//!
//! # Example
//!
//! ```rust
//! use csd_ransomware::{api::ApiVocabulary, dataset::DatasetBuilder};
//!
//! let vocab = ApiVocabulary::windows();
//! assert_eq!(vocab.len(), 278); // M = 278 ⇒ 278 × 8 = 2,224 embeddings
//!
//! // A small corpus for tests: 200 ransomware + 200 benign windows.
//! let ds = DatasetBuilder::new(7).ransomware_windows(200).benign_windows(200).build();
//! assert_eq!(ds.len(), 400);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod api;
pub mod benign;
pub mod chaos;
pub mod dataset;
pub mod family;
pub mod replay;
pub mod sandbox;
pub mod variant;
pub mod window;

pub use analysis::DamageTimeline;
pub use api::ApiVocabulary;
pub use benign::BenignProfile;
pub use chaos::{ChaosConfig, ChaosCounters, ChaosOp, ChaosSchedule};
pub use dataset::{Dataset, DatasetBuilder, SplitKind};
pub use family::{FamilyProfile, Table2Row};
pub use replay::{interleave, EventTrace, ReplayProfile, TraceEvent, TraceEventKind};
pub use sandbox::{ApiTrace, Sandbox, TraceLabel, WindowsVersion};
pub use variant::Variant;
pub use window::{sliding_windows, SlidingWindows, WINDOW_LEN};

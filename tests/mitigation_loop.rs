//! The full closed loop the paper promises (§I): detection next to the
//! data triggers real-time mitigation. A detonation streams through the
//! on-device monitor; the alert quarantines the SSD; the malware's
//! subsequent encryption writes bounce off the freeze.

use csd_inference::accel::{
    CsdInferenceEngine, HostProgram, MonitorConfig, OptimizationLevel, StreamMonitor,
};
use csd_inference::nn::{ModelConfig, ModelWeights, SequenceClassifier, TrainOptions, Trainer};
use csd_inference::ransomware::{
    ApiVocabulary, DamageTimeline, DatasetBuilder, FamilyProfile, Sandbox, SplitKind, Variant,
    WindowsVersion,
};

/// A quickly-trained detector shared by the tests (training dominates).
fn detector() -> &'static SequenceClassifier {
    static MODEL: std::sync::OnceLock<SequenceClassifier> = std::sync::OnceLock::new();
    MODEL.get_or_init(|| {
        let (windows, epochs) = if cfg!(debug_assertions) {
            (240, 8)
        } else {
            (400, 14)
        };
        let r = windows * 46 / 100;
        let ds = DatasetBuilder::new(0x717)
            .ransomware_windows(r)
            .benign_windows(windows - r)
            .noise(0.12)
            .build();
        let (train, _) = ds.split(0.2, SplitKind::Random, 1);
        let mut model = SequenceClassifier::new(ModelConfig::paper(), 0x717);
        Trainer::new(TrainOptions {
            epochs,
            seed: 0x717,
            ..TrainOptions::default()
        })
        .fit(&mut model, &train.examples(), &[]);
        model
    })
}

#[test]
fn alert_quarantine_blocks_the_sweep() {
    let weights = ModelWeights::from_model(detector());
    let engine = CsdInferenceEngine::new(&weights, OptimizationLevel::FixedPoint);
    let mut host = HostProgram::new(&weights, OptimizationLevel::FixedPoint).expect("boot");

    // A fresh Lockbit detonation the detector never saw.
    let sandbox = Sandbox::new(0xA11CE);
    let variant = Variant::new(FamilyProfile::by_name("Lockbit").expect("family"), 2);
    let trace = sandbox.detonate_run(&variant, WindowsVersion::Win10, 3);

    let mut monitor = StreamMonitor::new(
        engine,
        MonitorConfig {
            votes_needed: 1,
            vote_horizon: 1,
            ..MonitorConfig::default()
        },
    );
    let mut blocked = 0u64;
    let mut landed = 0u64;
    let vocab = ApiVocabulary::windows();
    let write_tokens = [vocab.tok("WriteFile"), vocab.tok("NtWriteFile")];
    for &call in &trace {
        if let Some(_alert) = monitor.observe(call) {
            host.quarantine();
        }
        // Every file write in the trace becomes an SSD write attempt.
        if write_tokens.contains(&call) {
            match host.attempt_victim_write(16 * 1024) {
                Some(_) => landed += 1,
                None => blocked += 1,
            }
        }
    }
    assert!(monitor.alert().is_some(), "the detonation must be detected");
    assert!(blocked > 0, "the quarantine must reject writes");
    // Early detection: the overwhelming majority of destructive writes
    // are blocked.
    assert!(
        blocked as f64 / (blocked + landed) as f64 > 0.9,
        "blocked {blocked}, landed {landed}"
    );
}

#[test]
fn benign_session_is_never_quarantined() {
    let weights = ModelWeights::from_model(detector());
    let engine = CsdInferenceEngine::new(&weights, OptimizationLevel::FixedPoint);
    let sandbox = Sandbox::new(0xB0B);
    // A GUI-heavy editor: nowhere near the decision boundary.
    let app = csd_inference::ransomware::BenignProfile::by_name("NotepadX").expect("app");
    let trace = sandbox.run_benign(&app, WindowsVersion::Win10);
    // Debounced config (the deployment default).
    let mut monitor = StreamMonitor::new(engine, MonitorConfig::default());
    assert!(
        monitor.observe_all(&trace.calls).is_none(),
        "a text editor must not trip the quarantine"
    );
}

#[test]
fn damage_timeline_confirms_files_saved() {
    let weights = ModelWeights::from_model(detector());
    let engine = CsdInferenceEngine::new(&weights, OptimizationLevel::FixedPoint);
    let vocab = ApiVocabulary::windows();
    let sandbox = Sandbox::new(0xCAFE);
    let variant = Variant::new(FamilyProfile::by_name("Cerber").expect("family"), 1);
    let trace = sandbox.detonate_run(&variant, WindowsVersion::Win11, 5);
    let timeline = DamageTimeline::from_trace(&trace, &vocab);
    assert!(timeline.total_files() > 10);

    let mut monitor = StreamMonitor::new(
        engine,
        MonitorConfig {
            votes_needed: 1,
            vote_horizon: 1,
            ..MonitorConfig::default()
        },
    );
    let alert = monitor.observe_all(&trace).expect("detected");
    let saved = timeline.files_saved_by(alert.at_call);
    assert!(
        saved * 10 >= timeline.total_files() * 9,
        "early alert must save ≥90% of files ({saved}/{})",
        timeline.total_files()
    );

    // §I: detection at the drive "could immediately thwart any subsequent
    // encryption". A fresh detonation of every family's last variant
    // alerts before its sweep has touched a file.
    let sandbox = Sandbox::new(0xBEEF);
    for family in FamilyProfile::all() {
        let variant = Variant::new(family.clone(), family.variants - 1);
        let trace = sandbox.detonate_run(&variant, WindowsVersion::Win11, 7);
        let timeline = DamageTimeline::from_trace(&trace, &vocab);
        monitor.reset();
        let alert = monitor
            .observe_all(&trace)
            .unwrap_or_else(|| panic!("{} not detected", family.name));
        assert_eq!(
            timeline.files_lost_by(alert.at_call),
            0,
            "{} alerted at call {} after its sweep began",
            family.name,
            alert.at_call
        );
    }
}

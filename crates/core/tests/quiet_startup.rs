//! Building the production objects is silent: a paper-dims fixed-point
//! engine plus a default sharded mux write nothing to stderr — every
//! process that embeds the engine (sentry, benchmark) inherits whatever
//! its constructors print.

use csd_accel::{CsdInferenceEngine, OptimizationLevel, ShardedStreamMux, StreamMuxConfig};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};

/// The construction under test; also the body the stderr check below
/// re-executes in a child process.
#[test]
fn builds_engine_and_default_mux() {
    let model = SequenceClassifier::new(ModelConfig::paper(), 7);
    let engine = CsdInferenceEngine::new(
        &ModelWeights::from_model(&model),
        OptimizationLevel::FixedPoint,
    );
    assert!(engine.supports_lane_stepping());
    let mux = ShardedStreamMux::new(engine, StreamMuxConfig::default());
    assert!(mux.is_idle());
}

#[test]
fn engine_and_mux_construction_write_nothing_to_stderr() {
    // libtest prints its own progress on stdout; with `--nocapture` the
    // child's stderr is exactly what the constructors wrote.
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["--exact", "builds_engine_and_default_mux", "--nocapture"])
        .output()
        .expect("re-run the construction test");
    assert!(out.status.success(), "child construction test failed");
    assert!(
        out.stderr.is_empty(),
        "start-up noise on stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

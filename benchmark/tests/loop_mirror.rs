//! The benchmark's service loop must stay a faithful mirror of
//! `csd_sentry::run_service`: same incidents, same durable cursor, same
//! counters — and its traced variant (explicit `drain` + `checkpoint`
//! with the automatic checkpoint switched off) must checkpoint exactly
//! as often as the automatic one.

use std::path::PathBuf;

use csd_benchmark::check::check_rep;
use csd_benchmark::harness::{run_rep, Rep, ServiceLoop};
use csd_benchmark::host::output_dir;
use csd_benchmark::setup::{prepare_with, Inputs};
use csd_benchmark::trace::{Layer, Tracer, Untraced};
use csd_benchmark::workload::{Load, Workload, CHECKPOINT_EVERY};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};

/// Smoke-sized inputs over an untrained paper-dimension model: loop
/// equivalence does not depend on what the detector says.
fn smoke_inputs(workload: &str) -> Inputs {
    let model = SequenceClassifier::new(ModelConfig::paper(), 51);
    prepare_with(
        &ModelWeights::from_model(&model),
        Workload::by_name(workload).expect("known workload"),
        7,
        1,
        true,
    )
}

/// A directory of this test's own (tests share one process id).
fn test_dir(tag: &str) -> PathBuf {
    let dir = output_dir().join(format!("test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Incident identity, order-free.
fn incident_keys(rep: &Rep) -> Vec<(u32, usize, String, bool)> {
    let mut keys: Vec<_> = rep
        .service
        .incidents
        .iter()
        .map(|i| {
            (
                i.pid,
                i.alert.at_call,
                format!("{:?}", i.action),
                i.post_exit,
            )
        })
        .collect();
    keys.sort();
    keys
}

/// Every counter of the run; the one wall-clock-derived field zeroed.
fn counters(rep: &Rep) -> String {
    let mut stats = rep.service.stats.clone();
    stats.mux.verdicts_per_sec = 0.0;
    serde_json::to_string(&stats).expect("stats serialize")
}

#[test]
fn mirror_and_run_service_produce_the_same_outputs() {
    for workload in ["corpus-durable", "fleet-durable"] {
        let inputs = smoke_inputs(workload);
        let trace = &inputs.closed;
        let dir = test_dir(workload);
        let run = |tag: &str, which| {
            run_rep(
                &inputs,
                trace,
                Load::Closed,
                &dir.join(tag),
                which,
                &mut Untraced,
            )
        };
        let real = run("real", ServiceLoop::Real).expect("run_service completes");
        let mirror = run("mirror", ServiceLoop::Mirror).expect("mirror completes");

        assert!(
            !incident_keys(&real).is_empty(),
            "{workload}: incidents to compare"
        );
        assert_eq!(incident_keys(&mirror), incident_keys(&real), "{workload}");
        assert_eq!(
            mirror.service.durable_events, real.service.durable_events,
            "{workload}"
        );
        assert_eq!(
            mirror.service.events_lost_to_panic, real.service.events_lost_to_panic,
            "{workload}"
        );
        assert_eq!(counters(&mirror), counters(&real), "{workload}");
        // The mirror saw every incident come back, once.
        assert_eq!(
            mirror.observed.len(),
            mirror.service.incidents.len(),
            "{workload}"
        );
        // And both match the offline oracle with nothing lost.
        let sent = trace.events.len() as u64;
        for rep in [&real, &mirror] {
            let failures = check_rep(&trace.expected, sent, rep);
            assert_eq!(failures.total(), 0, "{workload}: {failures:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn traced_loop_checkpoints_as_often_as_the_automatic_one() {
    let inputs = smoke_inputs("corpus-durable");
    let trace = &inputs.closed;
    let dir = test_dir("traced");
    let automatic = run_rep(
        &inputs,
        trace,
        Load::Closed,
        &dir.join("auto"),
        ServiceLoop::Mirror,
        &mut Untraced,
    )
    .expect("untraced mirror completes");
    let mut tracer = Tracer::start(trace.events.len());
    let explicit = run_rep(
        &inputs,
        trace,
        Load::Closed,
        &dir.join("explicit"),
        ServiceLoop::Mirror,
        &mut tracer,
    )
    .expect("traced mirror completes");
    tracer.finish();

    let events = trace.events.len() as u64;
    assert_eq!(
        automatic.checkpoints,
        events / CHECKPOINT_EVERY + 1,
        "one per interval plus the final one"
    );
    assert_eq!(explicit.checkpoints, automatic.checkpoints);
    assert_eq!(
        tracer.durations_s(Layer::Checkpoint).len() as u64,
        explicit.checkpoints,
        "every checkpoint is a span"
    );
    assert_eq!(tracer.durations_s(Layer::Ingest).len() as u64, events);
    assert_eq!(incident_keys(&explicit), incident_keys(&automatic));
    assert_eq!(counters(&explicit), counters(&automatic));
    let _ = std::fs::remove_dir_all(&dir);
}

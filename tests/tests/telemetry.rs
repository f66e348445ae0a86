//! Telemetry is observation-only: a seeded exploration serializes to the
//! **byte-identical** JSON document with telemetry enabled or disabled,
//! at any thread count (ISSUE: the zero-perturbation guarantee).

use cocco::prelude::*;
use cocco_tests::CACHE_COUNTERS;

/// One seeded exploration: its funding-sequence counters, and its JSON
/// document with the engine metrics cleared. The cleared metrics hold
/// wall times, the thread count and pool and arena counters, which differ
/// run to run by construction; the counters that must not differ are
/// returned and compared on their own. Everything else — genome, report,
/// cost, samples, trace, error counter — must be bit-identical.
fn run(
    method: SearchMethod,
    threads: u32,
    telemetry: Option<&Telemetry>,
) -> ([u64; CACHE_COUNTERS.len()], String) {
    let model = cocco::graph::models::googlenet();
    let mut session = Cocco::new()
        .with_method(method)
        .with_budget(500)
        .with_seed(23)
        .with_engine(EngineConfig::with_threads(threads));
    if let Some(t) = telemetry {
        session = session.with_telemetry(t.clone());
    }
    let mut exploration = session.explore(&model).expect("exploration succeeds");
    let counters = CACHE_COUNTERS.map(|name| exploration.metrics.counter(name));
    exploration.metrics = MetricsSnapshot::default();
    let json = serde_json::to_string(&exploration).expect("exploration serializes");
    (counters, json)
}

#[test]
fn seeded_runs_are_byte_identical_with_telemetry_on_off_across_threads() {
    for method in [
        SearchMethod::ga(),
        SearchMethod::sa(),
        SearchMethod::two_step(),
    ] {
        let name = method.name();
        let baseline = run(method.clone(), 1, None);
        for threads in [1u32, 4] {
            let plain = run(method.clone(), threads, None);
            assert_eq!(
                baseline.0, plain.0,
                "{name}: plain run's cache counters differ at {threads} threads"
            );
            assert_eq!(
                baseline.1, plain.1,
                "{name}: plain run differs at {threads} threads"
            );
            let telemetry = Telemetry::enabled();
            let observed = run(method.clone(), threads, Some(&telemetry));
            assert_eq!(
                baseline.0, observed.0,
                "{name}: telemetry changed the cache counters at {threads} threads"
            );
            assert_eq!(
                baseline.1, observed.1,
                "{name}: telemetry perturbed the run at {threads} threads"
            );
            // The sink really was live during the identical run.
            let snap = telemetry.snapshot();
            assert!(
                snap.counter("engine.evals") > 0,
                "{name}: telemetry recorded nothing at {threads} threads"
            );
            assert!(snap.histogram("search.step_ns").is_some());
        }
    }
}

//! The benchmark's own guarantees: inputs are a pure function of
//! (workload, seed), and every run reports the same metric names
//! whatever the seed.

use dqc_perfbench::inputs::{ServeColdInputs, SweepInputs, WireBatchInputs};
use dqc_perfbench::layers::PER_LAYER;
use dqc_perfbench::{Outcome, WORKLOADS};
use dqc_served::protocol::submit_frame;

/// Everything the program would receive from one `serve_cold` run's
/// first requests, as text.
fn serve_cold_stream(inputs: &ServeColdInputs) -> Vec<String> {
    (0..2 * inputs.pool.len())
        .map(|i| format!("{:?}", inputs.request(i)))
        .collect()
}

/// Every frame of `wire_batch`'s first batches, as sent.
fn wire_frames(inputs: &WireBatchInputs) -> Vec<String> {
    (0..2)
        .flat_map(|client| (0..4).flat_map(move |batch| (0..6).map(move |i| (client, batch, i))))
        .map(|(client, batch, i)| {
            submit_frame(0, &inputs.submission(client, batch, i)).to_compact_string()
        })
        .collect()
}

#[test]
fn the_same_seed_gives_identical_inputs() {
    assert_eq!(SweepInputs::generate(7), SweepInputs::generate(7));
    let (a, b) = (ServeColdInputs::generate(7), ServeColdInputs::generate(7));
    assert_eq!(a, b);
    assert_eq!(serve_cold_stream(&a), serve_cold_stream(&b));
    let (a, b) = (WireBatchInputs::generate(7), WireBatchInputs::generate(7));
    assert_eq!(a, b);
    assert_eq!(wire_frames(&a), wire_frames(&b));
}

#[test]
fn another_seed_gives_different_inputs() {
    let (a, b) = (SweepInputs::generate(7), SweepInputs::generate(8));
    for (x, y) in a.searches.iter().zip(&b.searches) {
        assert_ne!(x.circuit, y.circuit, "{}", x.label);
    }
    // The QAOA circuit is the paper's graph relabeled: same gates, other
    // qubits.
    let paper = dqc_workloads::PaperBenchmark::QaoaR8_32.circuit();
    assert_eq!(a.searches[0].circuit.counts(), paper.counts());
    assert_ne!(a.searches[0].circuit, paper);
    assert_ne!(a.base_seed, b.base_seed);
    let (a, b) = (ServeColdInputs::generate(7), ServeColdInputs::generate(8));
    assert_ne!(serve_cold_stream(&a), serve_cold_stream(&b));
    let (a, b) = (WireBatchInputs::generate(7), WireBatchInputs::generate(8));
    assert_ne!(wire_frames(&a), wire_frames(&b));
}

#[test]
fn serve_cold_requests_are_distinct_and_outlive_the_cache() {
    let inputs = ServeColdInputs::generate(3);
    let mut keys: Vec<u64> = inputs.pool.iter().map(|(_, c)| c.fingerprint()).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(
        keys.len(),
        inputs.pool.len(),
        "every pool circuit is distinct"
    );
    assert!(inputs.pool.len() > 4 * dqc_serve::ServeConfig::default().cache_capacity);
    for (_, c) in &inputs.pool {
        assert!((16..=32).contains(&c.num_qubits()));
    }
}

fn names(outcome: &Outcome) -> Vec<String> {
    outcome
        .metrics
        .iter()
        .map(|(name, _, _)| name.clone())
        .collect()
}

fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    let outcome = dqc_perfbench::run(workload, seed, 0.3, trace).expect("set-up succeeds");
    assert!(outcome.correct(), "{workload} seed {seed}: {outcome:?}");
    outcome
}

#[test]
fn every_seed_reports_the_same_end_to_end_metrics() {
    for workload in WORKLOADS {
        let first = run(workload, 1, false);
        let second = run(workload, 2, false);
        assert_eq!(
            names(&first),
            [
                "throughput_ops_s",
                "latency_p50_ms",
                "setup_s",
                "peak_rss_mb"
            ]
        );
        assert_eq!(names(&first), names(&second), "{workload}");
        for (name, value, _) in &first.metrics {
            assert!(*value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn every_traced_run_reports_every_per_layer_metric() {
    let expected: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
    for workload in WORKLOADS {
        let outcome = run(workload, 5, true);
        assert_eq!(names(&outcome), expected, "{workload}");
    }
}

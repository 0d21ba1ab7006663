//! The grid engine builds one remote-fidelity table per distinct local
//! noise triple, not one per compilation.
//!
//! The span recorder is process-global, so exact span counts are only
//! meaningful when nothing else records concurrently. This file therefore
//! holds a **single** test, for the same reason as `compile_once.rs`:
//! cargo gives every integration-test file its own process.

use dqc::obs::{MonotonicClock, RingRecorder};
use dqc::workloads::PaperBenchmark;
use dqc::{Design, Sweep, SystemConfig};
use std::sync::Arc;

#[test]
fn a_grid_builds_one_fidelity_table_per_noise_triple() {
    // 2 circuits × 4 configs: three configs share the paper's noise
    // triple and differ only in comm/buffer count or EPR fidelity; one
    // has a noisier local two-qubit gate.
    let paper = SystemConfig::paper_two_node_32();
    let mut fresher = paper.clone();
    fresher.fidelities.epr = 0.995;
    let mut noisier = paper.clone();
    noisier.fidelities.two_qubit = 0.995;
    let sweep = Sweep::new()
        .benchmarks([PaperBenchmark::Tlim32, PaperBenchmark::QaoaR4_32])
        .config("paper", paper.clone())
        .config("c20", paper.with_comm_and_buffer(20))
        .config("fresher", fresher)
        .config("noisier", noisier)
        .designs(&[Design::AsyncBuf, Design::AdaptBuf])
        .runs(2)
        .threads(2);

    let unrecorded = sweep.run().unwrap();

    let ring = Arc::new(RingRecorder::new(65_536));
    let session = dqc::obs::install(ring.clone(), Arc::new(MonotonicClock::new()));
    let recorded = sweep.run().unwrap();
    drop(session);

    let spans = ring.spans();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(
        count("compile.fidelity_table"),
        2,
        "one table per distinct (one_qubit, two_qubit, measurement) triple"
    );
    assert_eq!(count("compile"), 8, "one compilation per (circuit, config)");
    assert_eq!(recorded, unrecorded, "recording changes no result");
}

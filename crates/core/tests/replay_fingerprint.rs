//! Pins seeded replay at the report level, bit for bit.
//!
//! `crates/entanglement/tests/event_order.rs` pins the entanglement
//! service on its own; this test pins it together with the executor that
//! drives it. It replays the co-design sweep's space — EPR fidelity
//! {0.95, 0.99} × comm/buffer {5, 10, 20} × the four buildable designs —
//! on the two sweep circuits: QAOA-r8-32 on the analytic engine and an
//! 800-gate 32-qubit random Clifford circuit under `Backend::Auto`, which
//! takes the stabilizer replay for its non-adaptive designs. Every field
//! of every [`ExecutionReport`] of seeds `0..SEEDS`, floats as their
//! bits, is folded into one FNV-1a fingerprint per design point.

use dqc_core::{Backend, CompiledCircuit, Design, DesignSpace, ExecutionReport, SystemConfig};
use dqc_entanglement::ServiceStats;
use dqc_types::Fnv64;
use dqc_workloads::PaperBenchmark;
use rand::SeedableRng;

/// Seeded runs per design point.
const SEEDS: u64 = 16;

fn space(backend: Backend) -> DesignSpace {
    DesignSpace::new(SystemConfig::paper_two_node_32().with_backend(backend))
        .epr_fidelities(&[0.95, 0.99])
        .comm_and_buffer(&[5, 10, 20])
        .designs(&[
            Design::Original,
            Design::SyncBuf,
            Design::AsyncBuf,
            Design::AdaptBuf,
        ])
}

fn fold_stats(h: &mut Fnv64, s: &ServiceStats) {
    h.write_u64(s.attempts);
    h.write_u64(s.successes);
    h.write_u64(s.consumed);
    h.write_u64(s.wasted);
    h.write_u64(s.preinitialized);
    h.write_i64(s.total_consumed_age.ticks());
    h.write_usize(s.peak_buffered);
}

fn fold_report(h: &mut Fnv64, r: &ExecutionReport) {
    h.write_str(&r.design.to_string());
    h.write_i64(r.makespan.ticks());
    h.write_i64(r.ideal_makespan.ticks());
    h.write_f64(r.fidelity.value());
    h.write_f64(r.local_fidelity.value());
    h.write_f64(r.remote_fidelity.value());
    h.write_f64(r.idle_fidelity.value());
    h.write_usize(r.remote_gates);
    match &r.service_stats {
        Some(stats) => {
            h.write_u8(1);
            fold_stats(h, stats);
        }
        None => h.write_u8(0),
    }
    h.write_f64(r.mean_link_wait);
    let (original, asap, alap) = r.variant_counts;
    h.write_usize(original);
    h.write_usize(asap);
    h.write_usize(alap);
}

/// One fingerprint per point of `space`, in point order.
fn fingerprints(circuit: &dqc_circuit::Circuit, space: &DesignSpace) -> Vec<u64> {
    let mut compiled: Vec<(SystemConfig, CompiledCircuit)> = Vec::new();
    space
        .points()
        .map(|point| {
            let scenario = space.realize(&point);
            let index = match compiled.iter().position(|(c, _)| *c == scenario.config) {
                Some(index) => index,
                None => {
                    let c = CompiledCircuit::compile(circuit, &scenario.config).expect("compiles");
                    compiled.push((scenario.config, c));
                    compiled.len() - 1
                }
            };
            let mut h = Fnv64::new();
            for seed in 0..SEEDS {
                let report = compiled[index].1.run(scenario.design, seed).expect("runs");
                fold_report(&mut h, &report);
            }
            h.finish()
        })
        .collect()
}

/// Fingerprints of every point of the QAOA-r8-32 search, recorded on the
/// heap-based event loop this replay path replaced.
#[rustfmt::skip]
const QAOA: [u64; 24] = [
    0xf1a4b015acf9cbba, 0x2c48c879f58c96ee, 0xb6ea1abcd2b2cac5, 0x0aa21065172ae7e1,
    0x1ce9304811931aea, 0xd555e6292ce722fa, 0x38714fceab3b6592, 0x20b6ee62ebf8eeef,
    0x61f92f72520d7d81, 0x6daf98dd7c055c84, 0xe25f301a440f1f7e, 0xdb9059cfd64d9654,
    0xb5ebe9bede309d06, 0x9f8ae3c4d558074d, 0xc56803a833fb723c, 0x54a8f7c51d031807,
    0xe50b0e0e1bddc828, 0xbdda962bd7c090fa, 0x0e4f9c139564b0a1, 0x5830f93f00d203b8,
    0x1d2c3a0fedff90b9, 0xf3b2a759a8ac84d2, 0x5dfc58a16fd53fc6, 0x978fca6b6a587fd1,
];

/// Fingerprints of every point of the Clifford search, recorded with
/// [`QAOA`].
#[rustfmt::skip]
const CLIFFORD: [u64; 24] = [
    0x497320600af1108b, 0xd37101440e3e279a, 0x07cb99f0f3f25af8, 0xea23edc323cb403a,
    0xba442ef3226d3320, 0x2f0e63c0140100da, 0x95494aad111d7eb8, 0x7815a967a1c3ddaa,
    0x30a1bf0972e648dd, 0x4341e7a939d37e4b, 0x0c394ec61993172f, 0xa29ff1b2922fe93a,
    0xd14f777af605fda7, 0x72c3e16c366fdc78, 0xfb82c7368530b727, 0xe78333a917b9c9e9,
    0x56fb64752d9cc778, 0x53de7aa804200d9e, 0x26cc5900675b52b6, 0x3b4585cc903e8fa0,
    0x881af6c6a2dca1e5, 0xbd1b376a24344e6c, 0x8ce1cbe0a7d54127, 0xac26a7045d1b29ed,
];

fn check(label: &str, got: &[u64], expected: &[u64], space: &DesignSpace) {
    let moved: Vec<String> = got
        .iter()
        .zip(expected)
        .enumerate()
        .filter(|(_, (g, e))| g != e)
        .map(|(index, (g, e))| {
            let point = space.point(index).expect("index in space");
            format!("point {index}: {g:#018x} != {e:#018x} for {point:?}")
        })
        .collect();
    let all: Vec<String> = got.iter().map(|g| format!("{g:#018x}")).collect();
    assert!(
        moved.is_empty(),
        "{label}: {} of {} points moved:\n{}\ngot [{}]",
        moved.len(),
        got.len(),
        moved.join("\n"),
        all.join(", ")
    );
}

#[test]
fn qaoa_replay_fingerprints_are_pinned() {
    let space = space(Backend::Analytic);
    let got = fingerprints(&PaperBenchmark::QaoaR8_32.circuit(), &space);
    check("qaoa-r8-32", &got, &QAOA, &space);
}

#[test]
fn clifford_replay_fingerprints_are_pinned() {
    let space = space(Backend::Auto);
    let circuit = dqc_workloads::random_clifford(
        32,
        800,
        0.0,
        &mut rand_chacha::ChaCha8Rng::seed_from_u64(14),
    );
    let compiled = CompiledCircuit::compile(&circuit, space.base()).expect("compiles");
    assert!(
        compiled.stabilizer_eligible(),
        "the Clifford search must exercise the stabilizer replay"
    );
    let got = fingerprints(&circuit, &space);
    check("clifford-32", &got, &CLIFFORD, &space);
}

#[test]
fn fingerprints_separate_points() {
    // Two points sharing a fingerprint would let one of them move
    // unnoticed into the other's trace.
    for pins in [&QAOA, &CLIFFORD] {
        let mut sorted = pins.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), pins.len(), "duplicate fingerprints");
    }
}

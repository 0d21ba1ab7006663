//! Seeded, pure workload generation: every input is a function of
//! (workload, seed) only, and the program under test sees nothing but
//! the circuits and requests built here.

use dqc_circuit::Circuit;
use dqc_core::{Backend, Design, DesignSpace, SystemConfig};
use dqc_served::Submission;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Requests in flight in `serve_cold`'s closed loop.
pub const SERVE_COLD_IN_FLIGHT: usize = 2;

/// Distinct circuits `serve_cold` cycles through: eight times the
/// default compile cache (32 entries), so a circuit is always evicted
/// long before it comes round again and every request compiles.
pub const SERVE_COLD_POOL: usize = 256;

/// Seeded runs per `serve_cold` and `wire_batch` request.
pub const SERVE_RUNS: usize = 2;

/// `wire_batch` client connections, each with its own driving thread.
pub const WIRE_CLIENTS: usize = 2;

/// Worker threads behind every server, and the codesign search's
/// thread cap: the 2-core budget every workload keeps to.
pub const THREADS: usize = 2;

/// The hardware point every served request targets.
pub const POINT: &str = "paper";

/// The designs `serve_cold` and `wire_batch` alternate between.
const SERVED_DESIGNS: [Design; 2] = [Design::AdaptBuf, Design::AsyncBuf];

/// The `repro codesign` space: EPR fidelity × comm/buffer provisioning
/// × the four buildable designs (the same axes as the `codesign` repro
/// target), around the two-node 32-qubit paper system.
pub fn codesign_space(backend: Backend) -> DesignSpace {
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

/// The random stream behind one workload's inputs: the workload name
/// is folded in so two workloads never share a stream for one seed.
fn stream(workload: &str, seed: u64) -> ChaCha8Rng {
    let mut h = dqc_types::Fnv64::new();
    h.write_str(workload);
    h.write_u64(seed);
    ChaCha8Rng::seed_from_u64(h.finish())
}

/// A first seed far from its neighbours, so the seed ranges of
/// different requests never overlap.
fn base_seed(rng: &mut ChaCha8Rng) -> u64 {
    rng.random_range(0..1u64 << 48)
}

/// One `Codesign` search of the `sweep` workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSearch {
    /// The circuit label the search reports.
    pub label: String,
    /// The circuit searched.
    pub circuit: Circuit,
    /// The design space searched.
    pub space: DesignSpace,
}

/// `sweep`'s inputs: two searches sharing one seed range.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepInputs {
    /// A QAOA-r8 search on the analytic engine, then a Clifford-only
    /// search under `Backend::Auto`; both circuits have 32 qubits.
    pub searches: Vec<SweepSearch>,
    /// Seeded runs averaged per design point.
    pub runs: usize,
    /// First seed of every point's range.
    pub base_seed: u64,
}

/// Seeded runs per design point: with 24 points per search this makes
/// one search about 19k evaluations.
pub const SWEEP_RUNS: usize = 400;

impl SweepInputs {
    /// The `sweep` inputs for `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = stream("sweep", seed);
        let qaoa = relabeled_paper_qaoa_r8(&mut rng);
        let clifford = dqc_workloads::random_clifford(32, 800, 0.0, &mut rng);
        Self {
            searches: vec![
                SweepSearch {
                    label: "qaoa-r8-32".to_string(),
                    circuit: qaoa,
                    space: codesign_space(Backend::Analytic),
                },
                SweepSearch {
                    label: "clifford-32".to_string(),
                    circuit: clifford,
                    space: codesign_space(Backend::Auto),
                },
            ],
            runs: SWEEP_RUNS,
            base_seed: base_seed(&mut rng),
        }
    }

    /// Seeded evaluations one pass over both searches performs.
    pub fn evaluations(&self) -> usize {
        self.searches.iter().map(|s| s.space.len()).sum::<usize>() * self.runs
    }
}

/// The paper's QAOA-r8-32 graph with its vertices relabeled at random.
///
/// Generating a fresh random 8-regular graph costs a seed-dependent
/// number of pairing passes (60–170 µs of a set-up measured in
/// microseconds); relabeling one fixed graph varies the circuit — and
/// so the partition and the replay work — at the same cost for every
/// seed.
fn relabeled_paper_qaoa_r8(rng: &mut ChaCha8Rng) -> Circuit {
    const PAPER_GRAPH_SEED: u64 = 0x51A0_8A32;
    let edges = dqc_workloads::random_regular_graph(
        32,
        8,
        &mut ChaCha8Rng::seed_from_u64(PAPER_GRAPH_SEED),
    )
    .expect("the paper's graph generates");
    let mut label: Vec<u32> = (0..32).collect();
    for i in (1..label.len()).rev() {
        label.swap(i, rng.random_range(0..=i));
    }
    let edges: Vec<(u32, u32)> = edges
        .iter()
        .map(|&(a, b)| (label[a as usize], label[b as usize]))
        .collect();
    dqc_workloads::qaoa_maxcut(32, &edges, &[dqc_workloads::QaoaAngles::default()])
}

/// `serve_cold`'s inputs: a pool of distinct circuits the request
/// stream cycles through.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeColdInputs {
    /// Labelled circuits of 16–32 qubits: QAOA r4/r8, brickwork, and
    /// QFT on a seeded basis state.
    pub pool: Vec<(String, Arc<Circuit>)>,
    /// First seed of the request stream.
    pub base_seed: u64,
}

impl ServeColdInputs {
    /// The `serve_cold` inputs for `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = stream("serve_cold", seed);
        let pool = (0..SERVE_COLD_POOL)
            .map(|i| {
                let n: u32 = rng.random_range(16..=32);
                let (kind, circuit) = match rng.random_range(0..4u8) {
                    0 => ("qaoa-r4", qaoa(n, 4, &mut rng)),
                    1 => ("qaoa-r8", qaoa(n, 8, &mut rng)),
                    2 => {
                        let layers = rng.random_range(8..=16);
                        (
                            "brickwork",
                            dqc_workloads::random_brickwork(n, layers, &mut rng),
                        )
                    }
                    _ => {
                        let mut c = Circuit::new(n);
                        for q in 0..n {
                            if rng.random_bool(0.5) {
                                c.x(q);
                            }
                        }
                        c.append(&dqc_workloads::qft(n));
                        ("qft", c)
                    }
                };
                (format!("{kind}-{n}-{i}"), Arc::new(circuit))
            })
            .collect();
        Self {
            pool,
            base_seed: base_seed(&mut rng),
        }
    }

    /// Request `i` of the stream: pool circuits in turn, the design
    /// flipping on every pass, and a fresh seed range per request.
    pub fn request(&self, i: usize) -> dqc_serve::EvalRequest {
        let (label, circuit) = &self.pool[i % self.pool.len()];
        dqc_serve::EvalRequest::new(
            label.clone(),
            Arc::clone(circuit),
            POINT,
            SERVED_DESIGNS[(i + i / self.pool.len()) % 2],
        )
        .runs(SERVE_RUNS)
        .base_seed(self.base_seed + (i * SERVE_RUNS) as u64)
    }
}

fn qaoa(n: u32, degree: usize, rng: &mut ChaCha8Rng) -> Circuit {
    dqc_workloads::qaoa_regular(n, degree, rng)
        .expect("16–32 vertices admit a 4- or 8-regular graph")
}

/// `wire_batch`'s inputs: the serving portfolio, in both travel
/// formats, and the seed range its requests draw from.
#[derive(Debug, Clone, PartialEq)]
pub struct WireBatchInputs {
    /// `dqc_bench::serve_portfolio()`: the six circuits of one batch.
    pub portfolio: Vec<(String, Arc<Circuit>)>,
    /// The same circuits as OpenQASM 2.0 text.
    pub qasm: Vec<String>,
    /// First seed of the request stream.
    pub base_seed: u64,
}

impl WireBatchInputs {
    /// The `wire_batch` inputs for `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = stream("wire_batch", seed);
        let portfolio = dqc_bench::serve_portfolio();
        let qasm = portfolio
            .iter()
            .map(|(_, c)| dqc_circuit::to_qasm(c))
            .collect();
        Self {
            portfolio,
            qasm,
            base_seed: base_seed(&mut rng),
        }
    }

    /// Requests per batch: one pass over the portfolio.
    pub fn batch_len(&self) -> usize {
        self.portfolio.len()
    }

    /// Request `i` of batch `batch` on connection `client`. Format and
    /// design alternate so that over four batches every circuit is sent
    /// in both formats under both designs; every request gets its own
    /// seed range.
    pub fn submission(&self, client: usize, batch: usize, i: usize) -> Submission {
        let (label, circuit) = &self.portfolio[i];
        let design = SERVED_DESIGNS[(i + batch / 2) % 2];
        let submission = if (i + batch).is_multiple_of(2) {
            Submission::structured(label.clone(), Arc::clone(circuit), POINT, design)
        } else {
            Submission::qasm(label.clone(), self.qasm[i].clone(), POINT, design)
        };
        let sequence = (batch * self.batch_len() + i) * WIRE_CLIENTS + client;
        submission
            .runs(SERVE_RUNS)
            .base_seed(self.base_seed + (sequence * SERVE_RUNS) as u64)
    }
}

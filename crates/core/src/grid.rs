//! The grid-execution engine behind [`crate::Sweep`] and the co-design
//! search.
//!
//! A grid is a plan: the full product of a circuit axis and a
//! configuration axis (each *compile pair* is compiled into one shared
//! [`CompiledCircuit`]) and a list of *cells* (pair × design — each an
//! averaged seed range). The engine executes the plan with five
//! guarantees:
//!
//! 1. **One remote-fidelity table per noise triple** — the §IV-C
//!    remote-gate law depends only on the one-qubit, two-qubit and
//!    measurement fidelities, so the grid builds one
//!    [`RemoteFidelityTable`] per distinct triple (compared bit for bit)
//!    and every pair with that triple shares it.
//! 2. **Compile-once** — every pair is compiled exactly once and shared
//!    (via [`Arc`]) by all of its cells.
//! 3. **Deterministic seeding** — every cell runs seeds
//!    `base_seed .. base_seed + runs`.
//! 4. **Chunked run phase** — each [`SEED_CHUNK`]-seed slice of a cell's
//!    seed range is one work item, so the workers stay busy until the
//!    last seed. The worker that lands a cell's last chunk averages the
//!    cell's reports in seed order and frees them, so only the reports
//!    of the cells in flight (about one per worker) are alive at once.
//! 5. **Ordered collection** — results come back in plan order no matter
//!    which worker finished first; the first error in plan order wins
//!    (within a cell, the first error in seed order).

use crate::{
    AveragedReport, CompiledCircuit, Design, DqcError, ExecutionReport, OperationFidelities,
    RemoteFidelityTable, SystemConfig,
};
use dqc_circuit::Circuit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Seeds per run-phase work item.
const SEED_CHUNK: usize = 32;

/// A chunk's outcome: its reports in seed order, or its first error.
type ChunkOutcome = Result<Vec<ExecutionReport>, DqcError>;

/// An executable grid: what to compile and what to run, in final order.
///
/// The compile pairs are every (circuit, configuration) combination,
/// circuit-major: pair `p` is circuit `p / configs.len()` on
/// configuration `p % configs.len()`, so a plan always performs exactly
/// `circuits.len() * configs.len()` compilations.
#[derive(Debug)]
pub struct GridPlan<'a> {
    /// The circuit axis.
    pub circuits: Vec<&'a Circuit>,
    /// The (deduplicated) configuration axis.
    pub configs: Vec<&'a SystemConfig>,
    /// Result cells `(pair index, design)`, in collection order.
    pub cells: Vec<(usize, Design)>,
    /// Seeded runs averaged per cell.
    pub runs: usize,
    /// First seed of every cell's range.
    pub base_seed: u64,
    /// Worker-thread cap (0 = available parallelism).
    pub threads: usize,
}

impl GridPlan<'_> {
    /// Executes the plan: build one remote-fidelity table per noise
    /// triple, compile every pair, then run every cell's seed chunks, all
    /// in parallel; one report per cell comes back in cell order.
    ///
    /// # Errors
    ///
    /// The first compile error in pair order, otherwise the first cell
    /// error in cell order ([`DqcError::ZeroRuns`] when `runs` is zero and
    /// there is a cell).
    ///
    /// # Panics
    ///
    /// When a cell names a pair index outside the circuit × configuration
    /// product.
    pub fn execute(&self) -> Result<Vec<AveragedReport>, DqcError> {
        let num_pairs = self.circuits.len() * self.configs.len();
        assert!(
            self.cells.iter().all(|&(pair, _)| pair < num_pairs),
            "every cell names a (circuit, config) pair of the plan"
        );
        // Table phase: one table per distinct local-noise triple, which
        // is all `RemoteFidelityTable::new` reads.
        let mut noises: Vec<&OperationFidelities> = Vec::new();
        let table_of: Vec<usize> = self
            .configs
            .iter()
            .map(|config| {
                let bits = noise_bits(&config.fidelities);
                noises
                    .iter()
                    .position(|&n| noise_bits(n) == bits)
                    .unwrap_or_else(|| {
                        noises.push(&config.fidelities);
                        noises.len() - 1
                    })
            })
            .collect();
        let tables = self.parallel(noises.len(), |t| RemoteFidelityTable::new(noises[t]));

        // Compile phase: exactly once per (circuit, config) pair. The
        // compilations are independent and dominate wall-clock for small
        // run counts, so they run in parallel; errors still surface in
        // plan order.
        let compiled = self
            .parallel(num_pairs, |i| {
                let (ci, ki) = (i / self.configs.len(), i % self.configs.len());
                CompiledCircuit::compile_with_table(
                    self.circuits[ci],
                    self.configs[ki],
                    Some(tables[table_of[ki]]),
                )
                .map(Arc::new)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        if self.cells.is_empty() {
            return Ok(Vec::new());
        }
        if self.runs == 0 {
            return Err(DqcError::ZeroRuns);
        }

        // Run phase: item `j` is chunk `j % chunks` of cell `j / chunks`.
        // Items go out cell-major, so cells complete roughly in order and
        // only the cells in flight hold reports.
        let chunks = self.runs.div_ceil(SEED_CHUNK);
        let cell_runs: Vec<Mutex<CellRuns>> = self
            .cells
            .iter()
            .map(|_| Mutex::new(CellRuns::new(chunks)))
            .collect();
        self.parallel(self.cells.len() * chunks, |j| {
            let (cell, chunk) = (j / chunks, j % chunks);
            let (pair, design) = self.cells[cell];
            let seeds = chunk * SEED_CHUNK..self.runs.min((chunk + 1) * SEED_CHUNK);
            let outcome = seeds
                .map(|i| compiled[pair].run(design, self.base_seed.wrapping_add(i as u64)))
                .collect();
            cell_runs[cell]
                .lock()
                .expect("no worker panics while holding a cell")
                .land(chunk, outcome);
        });
        cell_runs
            .into_iter()
            .map(|cell| {
                cell.into_inner()
                    .expect("cell lock cannot be poisoned after scope join")
                    .result
                    .expect("every cell's last chunk landed")
            })
            .collect()
    }

    /// Evaluates `task` on `0..n` across the worker pool; the results come
    /// back in index order, whichever worker computed them.
    fn parallel<T: Send>(&self, n: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.worker_count(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = task(i);
                    *slots[i]
                        .lock()
                        .expect("no worker panics while holding the slot") = Some(value);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock cannot be poisoned after scope join")
                    .expect("every task was claimed by a worker")
            })
            .collect()
    }

    fn worker_count(&self, tasks: usize) -> usize {
        let hw = std::thread::available_parallelism().map_or(4, |n| n.get());
        let cap = if self.threads == 0 { hw } else { self.threads };
        cap.clamp(1, tasks.max(1))
    }
}

/// The bits of the three fidelities a [`RemoteFidelityTable`] reads.
fn noise_bits(fidelities: &OperationFidelities) -> [u64; 3] {
    [
        fidelities.one_qubit.to_bits(),
        fidelities.two_qubit.to_bits(),
        fidelities.measurement.to_bits(),
    ]
}

/// One cell of the run phase: its seed chunks' outcomes until the last
/// one lands, then the cell's result.
struct CellRuns {
    chunks: Vec<Option<ChunkOutcome>>,
    landed: usize,
    result: Option<Result<AveragedReport, DqcError>>,
}

impl CellRuns {
    fn new(chunks: usize) -> Self {
        Self {
            chunks: (0..chunks).map(|_| None).collect(),
            landed: 0,
            result: None,
        }
    }

    /// Stores one chunk's outcome. The last chunk to land settles the
    /// cell: the first error in seed order, or the average of every
    /// report in seed order. The reports are freed either way.
    fn land(&mut self, chunk: usize, outcome: ChunkOutcome) {
        self.chunks[chunk] = Some(outcome);
        self.landed += 1;
        if self.landed < self.chunks.len() {
            return;
        }
        let settle = |chunks: Vec<Option<ChunkOutcome>>| {
            let mut reports = Vec::new();
            for chunk in chunks {
                reports.extend(chunk.expect("every chunk landed")?);
            }
            Ok(AveragedReport::from_runs(&reports))
        };
        self.result = Some(settle(std::mem::take(&mut self.chunks)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Experiment;
    use dqc_workloads::PaperBenchmark;

    fn configs() -> Vec<SystemConfig> {
        let paper = SystemConfig::paper_two_node_32();
        let mut noisier = paper.with_comm_and_buffer(5);
        noisier.fidelities.two_qubit = 0.995;
        vec![paper.clone(), noisier, paper.with_comm_and_buffer(20)]
    }

    fn plan<'a>(
        circuits: &'a [Circuit],
        configs: &'a [SystemConfig],
        cells: Vec<(usize, Design)>,
        runs: usize,
        threads: usize,
    ) -> GridPlan<'a> {
        GridPlan {
            circuits: circuits.iter().collect(),
            configs: configs.iter().collect(),
            cells,
            runs,
            base_seed: 11,
            threads,
        }
    }

    #[test]
    fn every_cell_matches_a_direct_compile_and_run() {
        // Seed counts on both sides of the chunk boundaries, on one and
        // two workers: shared tables and chunked runs change nothing.
        let circuits = [
            PaperBenchmark::Tlim32.circuit(),
            PaperBenchmark::QaoaR4_32.circuit(),
        ];
        let configs = configs();
        let cells: Vec<(usize, Design)> = (0..circuits.len() * configs.len())
            .flat_map(|pair| [Design::AsyncBuf, Design::AdaptBuf].map(|d| (pair, d)))
            .collect();
        for runs in [1, 31, 32, 33, 65] {
            let direct: Vec<AveragedReport> = cells
                .iter()
                .map(|&(pair, design)| {
                    let circuit = &circuits[pair / configs.len()];
                    let config = &configs[pair % configs.len()];
                    Experiment::new(circuit, config)
                        .unwrap()
                        .design(design)
                        .runs(runs)
                        .base_seed(11)
                        .run()
                        .unwrap()
                })
                .collect();
            for threads in [1, 2] {
                let grid = plan(&circuits, &configs, cells.clone(), runs, threads)
                    .execute()
                    .unwrap();
                assert_eq!(grid, direct, "runs {runs}, threads {threads}");
            }
        }
    }

    #[test]
    fn the_first_error_in_cell_order_wins() {
        let circuits = [PaperBenchmark::Tlim32.circuit()];
        let mut configs = configs();
        configs[1].comm_qubits_per_node = 0;
        let cells: Vec<(usize, Design)> = (0..configs.len())
            .map(|pair| (pair, Design::AsyncBuf))
            .collect();
        for threads in [1, 2] {
            assert_eq!(
                plan(&circuits, &configs, cells.clone(), 40, threads).execute(),
                Err(DqcError::NoEntanglementPossible),
                "threads {threads}"
            );
            assert_eq!(
                plan(&circuits, &configs, cells.clone(), 0, threads).execute(),
                Err(DqcError::ZeroRuns),
                "threads {threads}"
            );
            assert_eq!(
                plan(&circuits, &configs, Vec::new(), 40, threads).execute(),
                Ok(Vec::new()),
                "threads {threads}"
            );
        }
    }
}

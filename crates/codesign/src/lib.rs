//! The paper's co-design loop as a search API.
//!
//! The headline contribution of *Hardware-Software Co-design for
//! Distributed Quantum Computing* is not any single buffering design but
//! the *loop* that jointly tunes hardware knobs (EPR fidelity, κ, EPR
//! cycle time, communication/buffer qubit counts, network topology)
//! against software choices (buffering design, remote-gate protocol,
//! partitioner). This crate turns that loop into an API:
//!
//! * [`Codesign`] — a builder pairing a benchmark circuit with a typed
//!   [`DesignSpace`], a [`SearchStrategy`] (exhaustive grid or seeded
//!   random sampling), and a [`CostModel`];
//! * [`CostModel`] — prices the hardware side of every point
//!   (comm/buffer qubit count, sustained EPR rate demand, link quality);
//! * [`pareto_frontier`] — extracts the non-dominated set over
//!   ([`Objectives::fidelity`] ↑, [`Objectives::depth_relative`] ↓,
//!   [`Objectives::hardware_cost`] ↓);
//! * [`CodesignResult`] — every evaluated candidate plus the frontier,
//!   serializable through the workspace JSON layer.
//!
//! # Examples
//!
//! ```
//! use dqc_codesign::Codesign;
//! use dqc_core::{Design, DesignSpace, SystemConfig};
//! use dqc_workloads::PaperBenchmark;
//!
//! # fn main() -> Result<(), dqc_core::DqcError> {
//! let space = DesignSpace::new(SystemConfig::paper_two_node_32())
//!     .comm_and_buffer(&[5, 10])
//!     .designs(&[Design::AsyncBuf, Design::AdaptBuf]);
//! let result = Codesign::benchmark(PaperBenchmark::Tlim32, space)
//!     .runs(2)
//!     .run()?;
//! assert_eq!(result.candidates.len(), 4);
//! assert!(!result.frontier.is_empty());
//! // Frontier candidates are mutually non-dominated.
//! for a in result.frontier_candidates() {
//!     for b in result.frontier_candidates() {
//!         assert!(!a.objectives.dominates(&b.objectives));
//!     }
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod pareto;
mod search;

pub use cost::CostModel;
pub use pareto::{pareto_frontier, Objectives};
pub use search::SearchStrategy;

use dqc_circuit::Circuit;
use dqc_core::{
    AveragedReport, DesignSpace, DqcError, GridPlan, Scenario, ScenarioKey, SystemConfig,
};
use dqc_types::{Json, JsonError};

/// One evaluated design point: its structured identity, its objective
/// vector, and the full averaged report behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Structured identity of the scenario.
    pub key: ScenarioKey,
    /// Flat index of the point in the searched [`DesignSpace`].
    pub point_index: usize,
    /// The three co-design objectives.
    pub objectives: Objectives,
    /// The averaged simulation report the objectives were read from.
    pub report: AveragedReport,
}

impl Candidate {
    /// Serializes the candidate for the machine-readable results pipeline.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("key", self.key.to_json()),
            ("point_index", Json::from(self.point_index)),
            ("objectives", self.objectives.to_json()),
            ("report", self.report.to_json()),
        ])
    }

    /// Reads a candidate back from [`Candidate::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            key: ScenarioKey::from_json(json.field("key")?)?,
            point_index: json.usize_field("point_index")?,
            objectives: Objectives::from_json(json.field("objectives")?)?,
            report: AveragedReport::from_json(json.field("report")?)?,
        })
    }
}

/// The outcome of one co-design search: every evaluated candidate (in
/// point order) and the indices of the Pareto frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct CodesignResult {
    /// Label of the benchmark the search evaluated.
    pub circuit: String,
    /// The strategy that selected the evaluated points.
    pub strategy: SearchStrategy,
    /// The cost model that priced the hardware objective.
    pub cost_model: CostModel,
    /// Every evaluated point, ascending by `point_index`.
    pub candidates: Vec<Candidate>,
    /// Indices into [`CodesignResult::candidates`] of the non-dominated
    /// points, ascending.
    pub frontier: Vec<usize>,
    /// `CompiledCircuit`s built: one per distinct hardware configuration.
    pub compilations: usize,
    /// Points the static analyzer proved infeasible and the search never
    /// evaluated (budget returned to the caller for free).
    pub pruned: usize,
}

impl CodesignResult {
    /// The frontier candidates, in candidate order.
    pub fn frontier_candidates(&self) -> Vec<&Candidate> {
        self.frontier.iter().map(|&i| &self.candidates[i]).collect()
    }

    /// Whether the frontier contains a candidate with exactly this key.
    pub fn frontier_contains(&self, key: &ScenarioKey) -> bool {
        self.frontier_candidates().iter().any(|c| c.key == *key)
    }

    /// The frontier candidate with the highest fidelity (ties broken by
    /// candidate order), if the frontier is non-empty — a simple
    /// "recommended operating point" accessor for consumers that need a
    /// single answer rather than the whole frontier.
    pub fn best_fidelity(&self) -> Option<&Candidate> {
        self.frontier_candidates().into_iter().max_by(|a, b| {
            a.objectives
                .fidelity
                .partial_cmp(&b.objectives.fidelity)
                .expect("engine fidelities are finite")
        })
    }

    /// Serializes the result for the machine-readable results pipeline.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("circuit", Json::from(self.circuit.as_str())),
            ("strategy", self.strategy.to_json()),
            ("cost_model", self.cost_model.to_json()),
            (
                "candidates",
                Json::Array(self.candidates.iter().map(Candidate::to_json).collect()),
            ),
            (
                "frontier",
                Json::Array(self.frontier.iter().map(|&i| Json::from(i)).collect()),
            ),
            ("compilations", Json::from(self.compilations)),
            ("pruned", Json::from(self.pruned)),
        ])
    }

    /// Reads a result back from [`CodesignResult::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field, or when a
    /// frontier index does not point into the candidate list (frontier
    /// accessors index candidates directly, so a malformed document must
    /// be rejected here rather than panic later).
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let candidates: Vec<Candidate> = json
            .array_field("candidates")?
            .iter()
            .map(Candidate::from_json)
            .collect::<Result<_, _>>()?;
        let frontier: Vec<usize> = json
            .array_field("frontier")?
            .iter()
            .map(|v| {
                v.as_i64()
                    .and_then(|i| usize::try_from(i).ok())
                    .filter(|&i| i < candidates.len())
                    .ok_or_else(|| {
                        JsonError::schema(format!(
                            "field `frontier`: expected indices below {}",
                            candidates.len()
                        ))
                    })
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            circuit: json.str_field("circuit")?.to_string(),
            strategy: SearchStrategy::from_json(json.field("strategy")?)?,
            cost_model: CostModel::from_json(json.field("cost_model")?)?,
            candidates,
            frontier,
            compilations: json.usize_field("compilations")?,
            pruned: json.usize_field("pruned")?,
        })
    }
}

/// A configured co-design search: one benchmark, one typed design space,
/// one strategy, one cost model.
///
/// The search realizes every selected point once, evaluates it through
/// the compile-once [`GridPlan`] engine (points differing only in the
/// design axis share a compilation), prices its hardware, and extracts
/// the Pareto frontier over (fidelity ↑, relative depth ↓, hardware
/// cost ↓).
#[derive(Debug, Clone)]
pub struct Codesign {
    circuit_label: String,
    circuit: Circuit,
    space: DesignSpace,
    strategy: SearchStrategy,
    cost_model: CostModel,
    runs: usize,
    base_seed: u64,
    threads: usize,
}

impl Codesign {
    /// Starts a search of `space` on a labelled circuit, with the
    /// defaults: exhaustive strategy, default cost model, one run per
    /// point, base seed 0, machine-chosen parallelism.
    pub fn new(label: impl Into<String>, circuit: Circuit, space: DesignSpace) -> Self {
        Self {
            circuit_label: label.into(),
            circuit,
            space,
            strategy: SearchStrategy::Exhaustive,
            cost_model: CostModel::default(),
            runs: 1,
            base_seed: 0,
            threads: 0,
        }
    }

    /// Starts a search on a paper benchmark (label = paper name).
    pub fn benchmark(bench: dqc_workloads::PaperBenchmark, space: DesignSpace) -> Self {
        Self::new(bench.to_string(), bench.circuit(), space)
    }

    /// Sets the search strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the hardware cost model.
    #[must_use]
    pub fn cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Sets the seeded runs averaged per point.
    #[must_use]
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the base simulation seed (independent of any sampling seed).
    #[must_use]
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Caps the worker thread count (0 = available parallelism).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Executes the search.
    ///
    /// # Errors
    ///
    /// The space's [`DesignSpace::validate`] error, then
    /// [`DqcError::ZeroRuns`] when `runs == 0`, then
    /// [`DqcError::EmptySweep`] (axis `"points"`) when the strategy
    /// selects no feasible point; otherwise the first engine error in
    /// point order.
    pub fn run(&self) -> Result<CodesignResult, DqcError> {
        self.space.validate()?;
        if self.runs == 0 {
            return Err(DqcError::ZeroRuns);
        }
        // Realize each selected point once; the prefilter and the grid
        // share the scenarios.
        let mut realized = Vec::new();
        for index in self.strategy.select(self.space.len()) {
            let point = self.space.point(index)?;
            let scenario = self.space.realize(&point);
            realized.push((point, scenario));
        }
        // Static prefilter: points the analyzer proves can never compile
        // (backend × circuit class, width, broken topology) are dropped
        // before they consume replay budget. Warnings never prune.
        let infeasible = dqc_analyze::Analyzer::new().infeasible_points(
            &self.circuit_label,
            &self.circuit,
            realized
                .iter()
                .map(|(point, scenario)| (point.index, scenario)),
        );
        let pruned = infeasible.len();
        if pruned > 0 {
            let dropped: std::collections::BTreeSet<usize> =
                infeasible.into_iter().map(|(index, _)| index).collect();
            realized.retain(|(point, _)| !dropped.contains(&point.index));
        }
        if realized.is_empty() {
            return Err(DqcError::EmptySweep { axis: "points" });
        }

        // Deduplicate configurations so design-axis neighbours share a
        // compilation.
        let mut configs: Vec<SystemConfig> = Vec::new();
        let mut points = Vec::with_capacity(realized.len());
        for (point, Scenario { config, design }) in realized {
            let config_idx = match configs.iter().position(|c| *c == config) {
                Some(i) => i,
                None => {
                    configs.push(config);
                    configs.len() - 1
                }
            };
            points.push((point, design, config_idx));
        }
        let reports = GridPlan {
            circuits: vec![&self.circuit],
            configs: configs.iter().collect(),
            cells: points
                .iter()
                .map(|&(_, design, config_idx)| (config_idx, design))
                .collect(),
            runs: self.runs,
            base_seed: self.base_seed,
            threads: self.threads,
        }
        .execute()?;

        let candidates: Vec<Candidate> = points
            .into_iter()
            .zip(reports)
            .map(|((point, _, config_idx), report)| Candidate {
                objectives: Objectives {
                    fidelity: report.mean_fidelity,
                    depth_relative: report.mean_depth_relative,
                    hardware_cost: self.cost_model.cost(&configs[config_idx]),
                },
                key: ScenarioKey {
                    circuit: self.circuit_label.clone(),
                    values: point.values,
                },
                point_index: point.index,
                report,
            })
            .collect();
        let objectives: Vec<Objectives> = candidates.iter().map(|c| c.objectives).collect();
        let frontier = pareto_frontier(&objectives);
        Ok(CodesignResult {
            circuit: self.circuit_label.clone(),
            strategy: self.strategy,
            cost_model: self.cost_model,
            candidates,
            frontier,
            compilations: configs.len(),
            pruned,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_core::{AxisValue, Design};
    use dqc_workloads::PaperBenchmark;

    fn small_space() -> DesignSpace {
        DesignSpace::new(SystemConfig::paper_two_node_32())
            .comm_and_buffer(&[5, 10])
            .designs(&[Design::Original, Design::AsyncBuf, Design::AdaptBuf])
    }

    fn small_search() -> Codesign {
        Codesign::benchmark(PaperBenchmark::Tlim32, small_space())
            .runs(2)
            .base_seed(11)
    }

    #[test]
    fn frontier_invariants_hold_on_a_real_search() {
        let result = small_search().run().unwrap();
        assert_eq!(result.candidates.len(), 6);
        assert!(!result.frontier.is_empty());
        // Mutual non-domination on the frontier.
        for a in result.frontier_candidates() {
            for b in result.frontier_candidates() {
                assert!(
                    !a.objectives.dominates(&b.objectives),
                    "{} dominates {}",
                    a.key,
                    b.key
                );
            }
        }
        // Every excluded point is dominated by some frontier point, and
        // no frontier point is dominated by anything.
        for (i, c) in result.candidates.iter().enumerate() {
            let dominated = result
                .candidates
                .iter()
                .any(|other| other.objectives.dominates(&c.objectives));
            assert_eq!(
                !result.frontier.contains(&i),
                dominated,
                "{}: frontier membership must equal non-domination",
                c.key
            );
        }
    }

    #[test]
    fn grid_and_full_random_search_agree_on_the_frontier() {
        let grid = small_search().run().unwrap();
        let sampled = small_search()
            .strategy(SearchStrategy::RandomSample {
                samples: 6, // covers the whole 6-point space
                seed: 303,
            })
            .run()
            .unwrap();
        assert_eq!(grid.candidates.len(), sampled.candidates.len());
        assert_eq!(grid.frontier, sampled.frontier);
        for (g, s) in grid.candidates.iter().zip(&sampled.candidates) {
            assert_eq!(g.key, s.key);
            assert_eq!(g.objectives, s.objectives);
            assert_eq!(g.report, s.report);
        }
    }

    #[test]
    fn random_subsample_frontier_is_within_the_grid_frontier_geometry() {
        // A sampled search sees fewer points, so its frontier can only
        // contain points that are non-dominated among the sample — every
        // sampled frontier key must be either on the full frontier or
        // dominated in the grid only by points the sample never saw.
        let grid = small_search().run().unwrap();
        let sampled = small_search()
            .strategy(SearchStrategy::RandomSample {
                samples: 4,
                seed: 7,
            })
            .run()
            .unwrap();
        assert_eq!(sampled.candidates.len(), 4);
        let sampled_points: Vec<usize> = sampled.candidates.iter().map(|c| c.point_index).collect();
        for c in sampled.frontier_candidates() {
            if grid.frontier_contains(&c.key) {
                continue;
            }
            // Not on the full frontier: every grid candidate dominating
            // it must lie outside the sample, or the sampled search
            // wrongly kept a dominated point.
            let dominators: Vec<&Candidate> = grid
                .candidates
                .iter()
                .filter(|g| g.objectives.dominates(&c.objectives))
                .collect();
            assert!(
                !dominators.is_empty(),
                "{}: off-frontier yet undominated",
                c.key
            );
            for d in dominators {
                assert!(
                    !sampled_points.contains(&d.point_index),
                    "{} kept on the sampled frontier despite sampled dominator {}",
                    c.key,
                    d.key
                );
            }
        }
    }

    #[test]
    fn software_points_share_hardware_compilations() {
        let result = small_search().run().unwrap();
        // 2 hardware points (comm 5, 10) × 3 designs → 2 compilations.
        assert_eq!(result.compilations, 2);
    }

    #[test]
    fn exhaustive_search_matches_labelled_sweep_bit_for_bit() {
        // The same grid run as a typed search and as a labelled sweep
        // must produce identical reports: both reduce to one engine.
        let designs = [Design::SyncBuf, Design::AdaptBuf];
        let base = SystemConfig::paper_two_node_32();
        let typed = Codesign::benchmark(
            PaperBenchmark::QaoaR4_32,
            DesignSpace::new(base.clone())
                .comm_and_buffer(&[10, 15])
                .designs(&designs),
        )
        .runs(2)
        .base_seed(7)
        .run()
        .unwrap();
        let labelled = dqc_core::Sweep::new()
            .benchmark(PaperBenchmark::QaoaR4_32)
            .config("n10", base.clone().with_comm_and_buffer(10))
            .config("n15", base.with_comm_and_buffer(15))
            .designs(&designs)
            .runs(2)
            .base_seed(7)
            .run()
            .unwrap();
        assert_eq!(typed.compilations, labelled.compilations);
        // Point order (comm outer, design inner) is the sweep's
        // config-major × design order.
        let typed_reports: Vec<&AveragedReport> =
            typed.candidates.iter().map(|c| &c.report).collect();
        let labelled_reports: Vec<&AveragedReport> =
            labelled.cells.iter().map(|c| &c.report).collect();
        assert_eq!(typed_reports, labelled_reports);
    }

    #[test]
    fn random_sample_evaluates_only_the_sampled_points() {
        let full = small_search().run().unwrap();
        let sampled = small_search()
            .strategy(SearchStrategy::RandomSample {
                samples: 2,
                seed: 5,
            })
            .run()
            .unwrap();
        assert_eq!(sampled.candidates.len(), 2);
        for c in &sampled.candidates {
            let same = &full.candidates[c.point_index];
            assert_eq!(same.point_index, c.point_index);
            assert_eq!((&same.key, &same.report), (&c.key, &c.report));
        }
        // Seed 5 samples points 3 and 5, both on the comm-10 hardware
        // point: the unsampled comm-5 point is never compiled.
        let indices: Vec<usize> = sampled.candidates.iter().map(|c| c.point_index).collect();
        assert_eq!(indices, [3, 5]);
        assert_eq!(sampled.compilations, 1);
        let none = small_search()
            .strategy(SearchStrategy::RandomSample {
                samples: 0,
                seed: 5,
            })
            .run()
            .unwrap_err();
        assert_eq!(none, DqcError::EmptySweep { axis: "points" });
    }

    #[test]
    fn dominated_rich_hardware_is_priced_off_the_frontier() {
        // Identical performance axes (single design), richer hardware
        // strictly dominated on cost when performance does not improve:
        // TLIM-32 has only 10 remote gates, so going from 10 to 20
        // comm/buffer qubits cannot buy much — the expensive point should
        // not beat the paper point on every objective.
        let result = Codesign::benchmark(
            PaperBenchmark::Tlim32,
            DesignSpace::new(SystemConfig::paper_two_node_32())
                .comm_and_buffer(&[10, 20])
                .designs(&[Design::AdaptBuf]),
        )
        .runs(2)
        .run()
        .unwrap();
        let cheap = &result.candidates[0];
        let rich = &result.candidates[1];
        assert!(rich.objectives.hardware_cost > cheap.objectives.hardware_cost);
        assert!(
            !rich.objectives.dominates(&cheap.objectives),
            "richer hardware cannot dominate once cost is priced"
        );
        assert!(result.frontier.contains(&0));
    }

    #[test]
    fn result_json_round_trips_through_text() {
        let result = small_search().run().unwrap();
        let text = result.to_json().to_pretty_string();
        let back = CodesignResult::from_json(&dqc_types::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, result);
        assert!(back
            .frontier_candidates()
            .iter()
            .all(|c| c.key.design().is_some()));
    }

    #[test]
    fn from_json_rejects_out_of_range_frontier_indices() {
        // A truncated or hand-edited document whose frontier points past
        // the candidate list must fail parsing, not panic in accessors.
        let mut doc = small_search().run().unwrap().to_json();
        if let dqc_types::Json::Object(members) = &mut doc {
            for (k, v) in members.iter_mut() {
                if k == "frontier" {
                    *v = dqc_types::Json::Array(vec![dqc_types::Json::Int(99)]);
                }
            }
        }
        let err = CodesignResult::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("frontier"), "{err}");
    }

    #[test]
    fn backend_axis_searches_both_engines() {
        // The simulation backend is a first-class co-design axis. On a
        // Clifford workload the stabilizer engine replays the analytic
        // path exactly, so both points carry identical objectives — but
        // they are distinct hardware configurations (the backend is part
        // of the compiled fingerprint), hence two compilations.
        use dqc_core::Backend;
        use dqc_types::AxisId;
        let result = Codesign::new(
            "ghz-chain-32",
            dqc_workloads::ghz_chain(32),
            DesignSpace::new(SystemConfig::paper_two_node_32())
                .backends(&[Backend::Analytic, Backend::Stabilizer])
                .designs(&[Design::AsyncBuf]),
        )
        .runs(2)
        .run()
        .unwrap();
        assert_eq!(result.candidates.len(), 2);
        assert_eq!(result.compilations, 2);
        let analytic = &result.candidates[0];
        let stabilizer = &result.candidates[1];
        assert_eq!(
            analytic.key.get(AxisId::Backend),
            Some(&AxisValue::Backend(Backend::Analytic))
        );
        assert_eq!(
            stabilizer.key.get(AxisId::Backend),
            Some(&AxisValue::Backend(Backend::Stabilizer))
        );
        assert_eq!(analytic.report, stabilizer.report);
        assert_eq!(analytic.objectives, stabilizer.objectives);
    }

    #[test]
    fn statically_infeasible_points_are_pruned_before_evaluation() {
        // QFT-32 is non-Clifford, so the stabilizer point can never
        // compile (DQC-E002): the prefilter must drop it without touching
        // the engine, and the surviving point's evaluation must be
        // exactly what a search without the doomed axis value produces.
        use dqc_core::Backend;
        use dqc_types::AxisId;
        let mixed = Codesign::benchmark(
            PaperBenchmark::Qft32,
            DesignSpace::new(SystemConfig::paper_two_node_32())
                .backends(&[Backend::Analytic, Backend::Stabilizer])
                .designs(&[Design::AsyncBuf]),
        )
        .base_seed(11)
        .run()
        .unwrap();
        assert_eq!(mixed.pruned, 1);
        assert_eq!(mixed.candidates.len(), 1);
        assert_eq!(mixed.compilations, 1);
        assert_eq!(
            mixed.candidates[0].key.get(AxisId::Backend),
            Some(&AxisValue::Backend(Backend::Analytic))
        );
        let clean = Codesign::benchmark(
            PaperBenchmark::Qft32,
            DesignSpace::new(SystemConfig::paper_two_node_32())
                .backends(&[Backend::Analytic])
                .designs(&[Design::AsyncBuf]),
        )
        .base_seed(11)
        .run()
        .unwrap();
        assert_eq!(clean.pruned, 0);
        assert_eq!(mixed.candidates[0].key, clean.candidates[0].key);
        assert_eq!(mixed.candidates[0].report, clean.candidates[0].report);
        assert_eq!(
            mixed.candidates[0].objectives,
            clean.candidates[0].objectives
        );
        assert_eq!(mixed.frontier, clean.frontier);
    }

    #[test]
    fn frontier_contains_matches_exact_keys() {
        let result = small_search().run().unwrap();
        let on = result.frontier_candidates()[0].key.clone();
        assert!(result.frontier_contains(&on));
        let off = ScenarioKey {
            circuit: "nope".to_string(),
            values: vec![AxisValue::CommAndBuffer(5)],
        };
        assert!(!result.frontier_contains(&off));
        assert!(result.best_fidelity().is_some());
    }
}

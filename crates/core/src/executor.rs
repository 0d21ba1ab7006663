//! The event-driven executor: replays a [`CompiledCircuit`] on the
//! buffered, asynchronously supplied DQC architecture and estimates depth
//! and fidelity (paper §IV).
//!
//! This module is the *run-many* half of the engine; the *compile-once*
//! half lives in [`crate::compile`].

use crate::backend::{
    AnalyticEngine, BackendEngine, DensityEngine, SchedulePlan, StabilizerEngine,
};
use crate::{
    Backend, CompiledCircuit, Design, DqcError, ExecutionReport, OperationFidelities,
    RemoteFidelityTable, VariantKind,
};
use dqc_circuit::{Circuit, Gate, Operation};
use dqc_entanglement::{swap_chain_fidelity, EntanglementService, RoutingTable};
use dqc_partition::QubitMap;
use dqc_sim::TeleportNoise;
use dqc_types::{Fidelity, NodeId, Tick};
use std::collections::BTreeMap;

use crate::SystemConfig;

impl CompiledCircuit {
    /// Executes one seeded run of `design` against this compilation,
    /// returning the depth/fidelity report (one sample of one bar of the
    /// paper's Figures 5–8).
    ///
    /// All seed-independent work (partitioning, segmentation, variant
    /// compilation, the ideal schedule) was done at compile time; this
    /// method only replays the event-driven schedule, so calling it for
    /// many seeds costs a fraction of the legacy per-seed path while
    /// producing bit-for-bit identical reports.
    ///
    /// # Errors
    ///
    /// Returns [`DqcError::NoEntanglementPossible`] when the compilation
    /// has remote gates but the configuration provides no communication
    /// qubits (any distributed design).
    ///
    /// # Examples
    ///
    /// ```
    /// use dqc_core::{CompiledCircuit, Design, SystemConfig};
    /// use dqc_workloads::{tlim, TlimParams};
    ///
    /// # fn main() -> Result<(), dqc_core::DqcError> {
    /// let circuit = tlim(32, 10, TlimParams::default());
    /// let compiled = CompiledCircuit::compile(&circuit, &SystemConfig::paper_two_node_32())?;
    /// let buffered = compiled.run(Design::AsyncBuf, 1)?;
    /// let bare = compiled.run(Design::Original, 1)?;
    /// assert!(buffered.makespan < bare.makespan, "buffering shortens the schedule");
    /// # Ok(())
    /// # }
    /// ```
    pub fn run(&self, design: Design, seed: u64) -> Result<ExecutionReport, DqcError> {
        let backend = self.selected_backend(design);
        let mut replay_span = dqc_obs::span("exec.replay");
        if replay_span.enabled() {
            replay_span.attr("backend", backend.name());
            replay_span.attr("cache_key", self.key());
            replay_span.attr("design", design.to_string());
            replay_span.attr("seed", seed);
        }
        match backend {
            Backend::Stabilizer => StabilizerEngine.run(self, design, seed),
            Backend::Density => DensityEngine.run(self, design, seed),
            Backend::Analytic | Backend::Auto => AnalyticEngine.run(self, design, seed),
        }
    }
}

impl BackendEngine for AnalyticEngine {
    fn name(&self) -> &'static str {
        Backend::Analytic.name()
    }

    fn run(
        &self,
        compiled: &CompiledCircuit,
        design: Design,
        seed: u64,
    ) -> Result<ExecutionReport, DqcError> {
        run_analytic(compiled, design, seed, RemoteModel::Affine)
    }
}

impl BackendEngine for DensityEngine {
    fn name(&self) -> &'static str {
        Backend::Density.name()
    }

    fn run(
        &self,
        compiled: &CompiledCircuit,
        design: Design,
        seed: u64,
    ) -> Result<ExecutionReport, DqcError> {
        run_analytic(
            compiled,
            design,
            seed,
            RemoteModel::density(&compiled.config.fidelities),
        )
    }
}

impl BackendEngine for StabilizerEngine {
    fn name(&self) -> &'static str {
        Backend::Stabilizer.name()
    }

    fn run(
        &self,
        compiled: &CompiledCircuit,
        design: Design,
        seed: u64,
    ) -> Result<ExecutionReport, DqcError> {
        // The plan cannot replay the ideal design (no remote gates to
        // schedule against) or the adaptive designs (the controller
        // probes live buffer state); those cases produce identical
        // reports through the analytic walk.
        match &compiled.plan {
            Some(plan) if design != Design::Ideal && !design.adaptive_scheduling() => {
                run_stabilizer(compiled, plan, design, seed)
            }
            _ => run_analytic(compiled, design, seed, RemoteModel::Affine),
        }
    }
}

/// The shared analytic walk: replays every operation of the circuit,
/// consulting `model` for remote-gate fidelity factors. With
/// [`RemoteModel::Affine`] this is bit-for-bit the historical executor.
fn run_analytic(
    compiled: &CompiledCircuit,
    design: Design,
    seed: u64,
    mut model: RemoteModel,
) -> Result<ExecutionReport, DqcError> {
    if design == Design::Ideal {
        return Ok(compiled.ideal_report.clone());
    }
    if compiled.remote_gates > 0 && compiled.config.comm_qubits_per_node == 0 {
        return Err(DqcError::NoEntanglementPossible);
    }
    let config = &compiled.config;
    let ideal_makespan = compiled.ideal_report.makespan;
    let mut services = ServicePool::new(config, design, seed, compiled.routing.as_ref());
    let mut tracker = Tracker::with_seed(compiled.circuit.num_qubits(), seed);

    if design.adaptive_scheduling() {
        let m = config.segment_remote_gates();
        let ops = compiled.circuit.operations();
        let mut counts = (0usize, 0usize, 0usize);
        for (seg, variants) in compiled.segments.iter().zip(&compiled.variants) {
            let segment_ops = &ops[seg.clone()];
            let kind = choose_variant(segment_ops, &compiled.map, &mut services, &tracker, m);
            match kind {
                VariantKind::Original => counts.0 += 1,
                VariantKind::Asap => counts.1 += 1,
                VariantKind::Alap => counts.2 += 1,
            }
            for op in variants.sequence(kind) {
                tracker.issue(
                    op,
                    &compiled.map,
                    &mut services,
                    &compiled.table,
                    &mut model,
                    config,
                )?;
            }
        }
        let stats = services.merged_stats();
        Ok(tracker.into_report(design, ideal_makespan, Some(stats), counts, config))
    } else {
        for op in compiled.circuit.operations() {
            tracker.issue(
                op,
                &compiled.map,
                &mut services,
                &compiled.table,
                &mut model,
                config,
            )?;
        }
        let stats = services.merged_stats();
        Ok(tracker.into_report(design, ideal_makespan, Some(stats), (0, 0, 0), config))
    }
}

/// The stabilizer engine's per-seed replay: only the remote gates touch
/// the entanglement service; everything local was folded into the
/// max-plus [`SchedulePlan`] at compile time. Produces bit-for-bit the
/// same report as [`run_analytic`] with [`RemoteModel::Affine`], at a
/// cost proportional to the remote-gate count.
fn run_stabilizer(
    compiled: &CompiledCircuit,
    plan: &SchedulePlan,
    design: Design,
    seed: u64,
) -> Result<ExecutionReport, DqcError> {
    if compiled.remote_gates > 0 && compiled.config.comm_qubits_per_node == 0 {
        return Err(DqcError::NoEntanglementPossible);
    }
    let config = &compiled.config;
    let mut services = ServicePool::new(config, design, seed, compiled.routing.as_ref());
    // The same purification RNG stream the analytic tracker would carry.
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(seed ^ 0x7EAC_4E12);
    let mut model = RemoteModel::Affine;
    let mut ends: Vec<Tick> = Vec::with_capacity(plan.remote.len());
    let mut busy = plan.local_busy.clone();
    let mut remote_fidelity = Fidelity::PERFECT;
    let mut total_link_wait = Tick::ZERO;
    for gate in &plan.remote {
        let t_deps = gate.deps.eval(&ends);
        let outcome = serve_remote_gate(
            &mut services,
            gate.pair,
            t_deps,
            config,
            &compiled.table,
            &mut model,
            &mut rng,
        )?;
        total_link_wait += outcome.link_wait;
        remote_fidelity *= outcome.factor;
        for &q in &gate.qubits {
            busy[q] += outcome.end - outcome.start;
        }
        ends.push(outcome.end);
    }
    let makespan = plan.makespan.eval(&ends);
    // Report assembly mirrors `Tracker::into_report` expression for
    // expression, so the floats agree bit-for-bit.
    let used_qubits = plan.used.iter().filter(|u| **u).count().max(1);
    let total_idle: Tick = busy
        .iter()
        .zip(&plan.used)
        .filter(|(_, used)| **used)
        .map(|(busy, _)| makespan.saturating_sub(*busy) - Tick::ZERO)
        .sum();
    let mean_idle = total_idle.ticks() as f64 / used_qubits as f64;
    let idle_fidelity = Fidelity::new((-2.0 * config.kappa_per_tick * mean_idle).exp());
    let fidelity = plan.local_fidelity * remote_fidelity * idle_fidelity;
    let remote_gates = plan.remote.len();
    let mean_link_wait = if remote_gates == 0 {
        0.0
    } else {
        total_link_wait.ticks() as f64 / remote_gates as f64
    };
    Ok(ExecutionReport {
        design,
        makespan,
        ideal_makespan: compiled.ideal_report.makespan,
        fidelity,
        local_fidelity: plan.local_fidelity,
        remote_fidelity,
        idle_fidelity,
        remote_gates,
        service_stats: Some(services.merged_stats()),
        mean_link_wait,
        variant_counts: (0, 0, 0),
    })
}

/// Builds the seed-independent ideal-device report: the circuit scheduled
/// as if on a monolithic all-to-all machine.
pub(crate) fn ideal_report(circuit: &Circuit, config: &SystemConfig) -> ExecutionReport {
    let tracker = ideal_schedule(circuit, config);
    let ideal_makespan = tracker.makespan;
    tracker.into_report(Design::Ideal, ideal_makespan, None, (0, 0, 0), config)
}

/// The §III-D lookup rule: probe the buffer level `e` where the segment
/// would start; `e > m` → ASAP, `e = 0` → ALAP, otherwise original order.
fn choose_variant(
    segment_ops: &[Operation],
    map: &QubitMap,
    services: &mut ServicePool<'_>,
    tracker: &Tracker,
    m: usize,
) -> VariantKind {
    // The controller inspects the buffer when the segment's earliest gate
    // could issue.
    let t_probe = segment_ops
        .iter()
        .flat_map(|op| op.qubits())
        .map(|q| tracker.ready[q.as_usize()])
        .min()
        .unwrap_or(Tick::ZERO);
    let Some(pair) = segment_ops
        .iter()
        .find(|op| map.is_remote(op))
        .map(|op| node_pair(map, op))
    else {
        return VariantKind::Original; // no remote gates in the segment
    };
    let e = services.buffered_available(pair, t_probe);
    if e > m {
        VariantKind::Asap
    } else if e == 0 {
        VariantKind::Alap
    } else {
        VariantKind::Original
    }
}

/// Obtains one Bell link from a supply no earlier than `t`, returning the
/// grant time and the link's fidelity at that time.
fn take_link(supply: &mut Supply, t: Tick) -> Result<(Tick, f64), DqcError> {
    match supply {
        Supply::Background(service) => service
            .take_next(t)
            .map(|(start, link)| (start, link.fidelity))
            .ok_or(DqcError::NoEntanglementPossible),
        Supply::OnDemand(gen) => Ok(gen.request(t)),
    }
}

/// Obtains one *end-to-end* Bell pair between `pair` no earlier than `t`.
///
/// Without a topology (or when the nodes are adjacent) this is one direct
/// link. Otherwise the routed swap chain is assembled: one link per route
/// edge, each requested at `t`; the chain is spliced once the last link is
/// granted, with each of the `hops − 1` entanglement swaps adding one
/// Bell-measurement round of latency. Every link decays (at its edge's κ)
/// from its grant until the pair is delivered — waiting for the slowest
/// link *and* sitting through the swap rounds — and the end-to-end
/// fidelity is the Werner swap composition of the decayed per-hop
/// fidelities.
fn take_routed(
    services: &mut ServicePool<'_>,
    pair: (NodeId, NodeId),
    t: Tick,
) -> Result<(Tick, f64), DqcError> {
    let Some(table) = services.routing else {
        return take_link(services.supply_for(pair), t);
    };
    let route = table
        .route(pair.0, pair.1)
        .ok_or(DqcError::DisconnectedTopology)?;
    if route.hops() <= 1 {
        // Adjacent nodes consume their direct link, exactly as without a
        // topology.
        return take_link(services.supply_for(pair), t);
    }
    let swaps = route.swaps();
    let edges: Vec<(NodeId, NodeId)> = route.edges().collect();
    let mut grants = Vec::with_capacity(edges.len());
    for &edge in &edges {
        grants.push(take_link(services.supply_for(edge), t)?);
    }
    let assembled = grants
        .iter()
        .map(|&(granted, _)| granted)
        .max()
        .expect("multi-hop route has edges");
    let ready = assembled + services.config.entanglement_swap_latency() * swaps as i64;
    let fidelities: Vec<f64> = edges
        .iter()
        .zip(&grants)
        .map(|(&edge, &(granted, fidelity))| {
            let kappa = services.kappa_for(edge);
            let wait = (ready - granted).ticks() as f64;
            dqc_sim::werner_fidelity_after(fidelity.clamp(0.25, 1.0), kappa * wait)
        })
        .collect();
    Ok((ready, swap_chain_fidelity(&fidelities)))
}

pub(crate) fn node_pair(map: &QubitMap, op: &Operation) -> (NodeId, NodeId) {
    let qs = op.qubits();
    let (a, b) = (map.node_of(qs[0]), map.node_of(qs[1]));
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// How a remote gate's fidelity factor is computed from the consumed
/// link's fidelity: the precomputed affine law (analytic and stabilizer
/// engines) or the direct density-matrix teleportation oracle (density
/// engine). Schedules and link consumption are identical either way —
/// only the fidelity arithmetic differs.
enum RemoteModel {
    /// The exact affine Werner law of [`RemoteFidelityTable`].
    Affine,
    /// Direct dense evaluation of the teleportation gadget, memoized per
    /// distinct link fidelity (the bits of the `f64`).
    Density {
        noise: TeleportNoise,
        gate_memo: BTreeMap<u64, f64>,
        teleport_memo: BTreeMap<u64, f64>,
    },
}

impl RemoteModel {
    fn density(fidelities: &OperationFidelities) -> Self {
        RemoteModel::Density {
            noise: TeleportNoise {
                bell_fidelity: 1.0,
                local_cnot_fidelity: fidelities.two_qubit,
                measurement_fidelity: fidelities.measurement,
                single_qubit_fidelity: fidelities.one_qubit,
            },
            gate_memo: BTreeMap::new(),
            teleport_memo: BTreeMap::new(),
        }
    }

    /// Process fidelity of a telegate remote gate over a link of the
    /// given fidelity.
    fn gate_process_fidelity(&mut self, table: &RemoteFidelityTable, link: f64) -> f64 {
        match self {
            RemoteModel::Affine => table.gate_fidelity(link).value(),
            RemoteModel::Density {
                noise, gate_memo, ..
            } => *gate_memo.entry(link.to_bits()).or_insert_with(|| {
                dqc_sim::teleported_cnot_fidelity(&noise.with_bell_fidelity(link.clamp(0.25, 1.0)))
                    .value()
            }),
        }
    }

    /// Process fidelity of one state-teleportation hop over a link of the
    /// given fidelity.
    fn teleport_process_fidelity(&mut self, table: &RemoteFidelityTable, link: f64) -> f64 {
        match self {
            RemoteModel::Affine => table.state_teleport_fidelity(link).value(),
            RemoteModel::Density {
                noise,
                teleport_memo,
                ..
            } => *teleport_memo.entry(link.to_bits()).or_insert_with(|| {
                dqc_sim::state_teleportation_fidelity(
                    &noise.with_bell_fidelity(link.clamp(0.25, 1.0)),
                )
                .value()
            }),
        }
    }
}

/// What serving one remote gate produced: its schedule span, the fidelity
/// factor it contributes to the remote product, and the time spent
/// waiting for entanglement beyond the data dependencies.
struct RemoteOutcome {
    start: Tick,
    end: Tick,
    factor: Fidelity,
    link_wait: Tick,
}

/// Serves one remote gate issued at `t_deps`: obtains the link(s) from
/// the entanglement supply and computes the schedule span and fidelity
/// factor. Shared verbatim by the analytic walk and the stabilizer
/// replay, so both engines produce identical floats by construction.
fn serve_remote_gate(
    services: &mut ServicePool<'_>,
    pair: (NodeId, NodeId),
    t_deps: Tick,
    config: &SystemConfig,
    table: &RemoteFidelityTable,
    model: &mut RemoteModel,
    rng: &mut rand_chacha::ChaCha8Rng,
) -> Result<RemoteOutcome, DqcError> {
    match config.remote_protocol {
        crate::RemoteProtocol::GateTeleport => {
            let (start, link_fidelity) = if config.purify_links {
                purified_link(services, pair, t_deps, config, rng)?
            } else {
                take_routed(services, pair, t_deps)?
            };
            // Remote-gate quality: the process fidelity of the
            // teleported CNOT on the decayed link, reported as average
            // gate fidelity (d = 4), the scalar convention of Table II.
            let process = model.gate_process_fidelity(table, link_fidelity);
            Ok(RemoteOutcome {
                start,
                end: start + config.remote_gate_latency(),
                factor: Fidelity::new(dqc_sim::average_gate_fidelity(process, 4)),
                link_wait: start - t_deps,
            })
        }
        crate::RemoteProtocol::StateTeleport => {
            // Teledata: hop out (link 1), local gate, hop back (link 2).
            let (start, f_link1) = take_routed(services, pair, t_deps)?;
            let hop = config.state_teleport_latency();
            let after_gate = start + hop + config.latencies.two_qubit;
            let (back_start, f_link2) = take_routed(services, pair, after_gate)?;
            let end = back_start + hop;
            let f_out = model.teleport_process_fidelity(table, f_link1);
            let f_back = model.teleport_process_fidelity(table, f_link2);
            let hops = dqc_sim::average_gate_fidelity(f_out, 2)
                * dqc_sim::average_gate_fidelity(f_back, 2);
            Ok(RemoteOutcome {
                start,
                end,
                factor: Fidelity::new(hops * config.fidelities.two_qubit),
                link_wait: (start - t_deps) + (back_start - after_gate),
            })
        }
    }
}

/// Consumes end-to-end pairs two at a time, purifying (BBPSSW) until
/// a round succeeds, and returns the grant time and the purified
/// fidelity.
fn purified_link(
    services: &mut ServicePool<'_>,
    pair: (NodeId, NodeId),
    t: Tick,
    config: &SystemConfig,
    rng: &mut rand_chacha::ChaCha8Rng,
) -> Result<(Tick, f64), DqcError> {
    use rand::RngExt;
    let mut now = t;
    loop {
        let (t1, f1) = take_routed(services, pair, now)?;
        let (t2, f2) = take_routed(services, pair, t1)?;
        let round_done = t2 + config.purification_latency();
        let outcome = dqc_sim::purify_werner(f1.clamp(0.25, 1.0), f2.clamp(0.25, 1.0));
        if rng.random_bool(outcome.success_probability.clamp(0.0, 1.0)) {
            return Ok((round_done, outcome.fidelity));
        }
        now = round_done; // both links lost; try again
    }
}

/// Entanglement supply for one node pair.
///
/// Buffered designs run the continuous background [`EntanglementService`];
/// the bufferless `original` design *cannot* run generation as a
/// background service (the paper's §III-B layering argument: without
/// buffer qubits there is nowhere to park a success), so it generates **on
/// demand**: when a remote gate requests a pair, all communication qubits
/// attempt until the first success, and surplus successes of that round
/// are wasted.
enum Supply {
    Background(Box<EntanglementService>),
    OnDemand(OnDemandGenerator),
}

/// On-demand generation for the `original` design.
struct OnDemandGenerator {
    pairs: usize,
    success_probability: f64,
    cycle: Tick,
    initial_fidelity: f64,
    /// The communication hardware serves one outstanding request at a
    /// time; overlapping requests queue.
    busy_until: Tick,
    stats: dqc_entanglement::ServiceStats,
    rng: rand_chacha::ChaCha8Rng,
}

impl OnDemandGenerator {
    /// Serves one remote-gate request issued at `t`: returns the time the
    /// link is heralded and its (fresh) fidelity.
    fn request(&mut self, t: Tick) -> (Tick, f64) {
        use rand::RngExt;
        let start = t.max(self.busy_until);
        let mut rounds: i64 = 0;
        loop {
            rounds += 1;
            let mut successes = 0u64;
            for _ in 0..self.pairs {
                self.stats.attempts += 1;
                if self
                    .rng
                    .random_bool(self.success_probability.clamp(0.0, 1.0))
                {
                    successes += 1;
                }
            }
            if successes > 0 {
                self.stats.successes += successes;
                self.stats.wasted += successes - 1; // no storage: surplus lost
                self.stats.consumed += 1;
                break;
            }
        }
        let done = start + self.cycle * rounds;
        self.busy_until = done;
        (done, self.initial_fidelity)
    }
}

/// One entanglement supply per physical link (a two-node system has
/// exactly one). Without a topology every node pair is assumed directly
/// linked; with one, supplies exist per topology *edge* and non-adjacent
/// pairs are served by [`take_routed`] swap chains over them.
struct ServicePool<'a> {
    supplies: BTreeMap<(NodeId, NodeId), Supply>,
    config: &'a SystemConfig,
    design: Design,
    seed: u64,
    routing: Option<&'a RoutingTable>,
}

impl<'a> ServicePool<'a> {
    fn new(
        config: &'a SystemConfig,
        design: Design,
        seed: u64,
        routing: Option<&'a RoutingTable>,
    ) -> Self {
        Self {
            supplies: BTreeMap::new(),
            config,
            design,
            seed,
            routing,
        }
    }

    fn supply_for(&mut self, pair: (NodeId, NodeId)) -> &mut Supply {
        let config = self.config;
        let design = self.design;
        let seed = self.seed;
        self.supplies.entry(pair).or_insert_with(|| {
            // A node's communication qubits are split across its physical
            // links: all n−1 of them on the implicit complete graph, or
            // the node's topology degree otherwise (the busier endpoint
            // bounds the pair budget of the edge).
            let links_per_node = match &config.topology {
                None => (config.num_nodes - 1).max(1),
                Some(topology) => topology.degree(pair.0).max(topology.degree(pair.1)).max(1),
            };
            let pairs = (config.comm_qubits_per_node / links_per_node).max(1);
            let link_params = config
                .topology
                .as_ref()
                .and_then(|t| t.link_params(pair.0, pair.1));
            let pair_salt = (pair.0.index() as u64) << 32 | ((pair.1.index() as u64) << 16) | 0xD0C;
            if design.uses_buffer() {
                let pattern = design.generation_pattern(config.async_groups);
                let mut service_config = config.service_config(pattern, true);
                service_config.num_comm_pairs = pairs;
                if let Some(params) = link_params {
                    SystemConfig::apply_link_params(&mut service_config, params);
                }
                let mut service = EntanglementService::new(service_config, seed ^ pair_salt);
                if design.preinitializes() {
                    service.preinitialize(config.buffer_qubits_per_node);
                }
                Supply::Background(Box::new(service))
            } else {
                let cycle = link_params
                    .and_then(|p| p.epr_cycle)
                    .unwrap_or(config.latencies.epr_cycle);
                let initial_fidelity = link_params
                    .and_then(|p| p.initial_fidelity)
                    .unwrap_or(config.fidelities.epr);
                Supply::OnDemand(OnDemandGenerator {
                    pairs,
                    success_probability: config.success_probability,
                    cycle,
                    initial_fidelity,
                    busy_until: Tick::ZERO,
                    stats: dqc_entanglement::ServiceStats::default(),
                    rng: <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(
                        seed ^ pair_salt,
                    ),
                })
            }
        })
    }

    /// The idling decoherence rate governing links held on `edge`.
    fn kappa_for(&self, edge: (NodeId, NodeId)) -> f64 {
        self.config
            .topology
            .as_ref()
            .and_then(|t| t.link_params(edge.0, edge.1))
            .and_then(|p| p.kappa_per_tick)
            .unwrap_or(self.config.kappa_per_tick)
    }

    /// Buffered links consumable for an end-to-end pair at `t_probe` —
    /// the §III-D adaptive controller's probe. For a routed pair this is
    /// the bottleneck (minimum) across the route's edges; on-demand
    /// supplies bank nothing.
    fn buffered_available(&mut self, pair: (NodeId, NodeId), t_probe: Tick) -> usize {
        match self.routing {
            None => self.buffered_on_edge(pair, t_probe),
            Some(table) => match table.route(pair.0, pair.1) {
                Some(route) if route.hops() >= 1 => route
                    .edges()
                    .map(|edge| self.buffered_on_edge(edge, t_probe))
                    .min()
                    .unwrap_or(0),
                _ => 0,
            },
        }
    }

    /// Buffered links consumable on one physical link at `t_probe`.
    fn buffered_on_edge(&mut self, edge: (NodeId, NodeId), t_probe: Tick) -> usize {
        match self.supply_for(edge) {
            Supply::Background(service) => {
                service.advance_to(t_probe);
                service.available()
            }
            // On-demand generation banks nothing; adaptive designs are
            // always buffered, so this arm is never reached in practice.
            Supply::OnDemand(_) => 0,
        }
    }

    fn merged_stats(&self) -> dqc_entanglement::ServiceStats {
        let mut total = dqc_entanglement::ServiceStats::default();
        for s in self.supplies.values() {
            let st = match s {
                Supply::Background(svc) => *svc.stats(),
                Supply::OnDemand(gen) => gen.stats,
            };
            total.attempts += st.attempts;
            total.successes += st.successes;
            total.consumed += st.consumed;
            total.wasted += st.wasted;
            total.preinitialized += st.preinitialized;
            total.total_consumed_age += st.total_consumed_age;
            total.peak_buffered = total.peak_buffered.max(st.peak_buffered);
        }
        total
    }
}

/// Per-qubit schedule tracker plus fidelity bookkeeping.
struct Tracker {
    ready: Vec<Tick>,
    busy: Vec<Tick>,
    used: Vec<bool>,
    makespan: Tick,
    local_fidelity: Fidelity,
    remote_fidelity: Fidelity,
    remote_gates: usize,
    total_link_wait: Tick,
    rng: rand_chacha::ChaCha8Rng,
}

impl Tracker {
    fn new(num_qubits: u32, _config: &SystemConfig) -> Self {
        Self::with_seed(num_qubits, 0)
    }

    fn with_seed(num_qubits: u32, seed: u64) -> Self {
        Self {
            ready: vec![Tick::ZERO; num_qubits as usize],
            busy: vec![Tick::ZERO; num_qubits as usize],
            used: vec![false; num_qubits as usize],
            makespan: Tick::ZERO,
            local_fidelity: Fidelity::PERFECT,
            remote_fidelity: Fidelity::PERFECT,
            remote_gates: 0,
            total_link_wait: Tick::ZERO,
            rng: <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(seed ^ 0x7EAC_4E12),
        }
    }

    fn issue(
        &mut self,
        op: &Operation,
        map: &QubitMap,
        services: &mut ServicePool<'_>,
        table: &RemoteFidelityTable,
        model: &mut RemoteModel,
        config: &SystemConfig,
    ) -> Result<(), DqcError> {
        if map.is_remote(op) {
            self.issue_remote(op, map, services, table, model, config)
        } else {
            self.issue_local(op, config);
            Ok(())
        }
    }

    fn deps_ready(&self, op: &Operation) -> Tick {
        op.qubits()
            .iter()
            .map(|q| self.ready[q.as_usize()])
            .max()
            .unwrap_or(Tick::ZERO)
    }

    fn occupy(&mut self, op: &Operation, start: Tick, duration: Tick) {
        let end = start + duration;
        for q in op.qubits() {
            self.ready[q.as_usize()] = end;
            self.busy[q.as_usize()] += duration;
            self.used[q.as_usize()] = true;
        }
        self.makespan = self.makespan.max(end);
    }

    fn issue_local(&mut self, op: &Operation, config: &SystemConfig) {
        let gate = op.gate();
        let (duration, fidelity) = match gate {
            Gate::Measure => (config.latencies.measurement, config.fidelities.measurement),
            Gate::Swap => (
                config.latencies.two_qubit * 3,
                config.fidelities.two_qubit.powi(3),
            ),
            g if g.arity() == 2 => (config.latencies.two_qubit, config.fidelities.two_qubit),
            _ => (config.latencies.one_qubit, config.fidelities.one_qubit),
        };
        let start = self.deps_ready(op);
        self.occupy(op, start, duration);
        self.local_fidelity *= Fidelity::new(fidelity);
    }

    fn issue_remote(
        &mut self,
        op: &Operation,
        map: &QubitMap,
        services: &mut ServicePool<'_>,
        table: &RemoteFidelityTable,
        model: &mut RemoteModel,
        config: &SystemConfig,
    ) -> Result<(), DqcError> {
        let t_deps = self.deps_ready(op);
        let pair = node_pair(map, op);
        let outcome =
            serve_remote_gate(services, pair, t_deps, config, table, model, &mut self.rng)?;
        self.total_link_wait += outcome.link_wait;
        self.remote_gates += 1;
        self.occupy(op, outcome.start, outcome.end - outcome.start);
        self.remote_fidelity *= outcome.factor;
        Ok(())
    }

    fn into_report(
        self,
        design: Design,
        ideal_makespan: Tick,
        service_stats: Option<dqc_entanglement::ServiceStats>,
        variant_counts: (usize, usize, usize),
        config: &SystemConfig,
    ) -> ExecutionReport {
        // Idling decoherence (§IV-B): mean idle time of the participating
        // data qubits, decayed at κ. Idle = wall-clock span minus busy.
        let used_qubits = self.used.iter().filter(|u| **u).count().max(1);
        let total_idle: Tick = self
            .ready
            .iter()
            .zip(&self.busy)
            .zip(&self.used)
            .filter(|(_, used)| **used)
            .map(|((_, busy), _)| self.makespan.saturating_sub(*busy) - Tick::ZERO)
            .sum();
        let mean_idle = total_idle.ticks() as f64 / used_qubits as f64;
        // Two-sided depolarizing decay, the same 2κ convention as the
        // Werner-link law of §IV-C (an idling data qubit degrades jointly
        // with the partner it is entangled to).
        let idle_fidelity = Fidelity::new((-2.0 * config.kappa_per_tick * mean_idle).exp());
        let fidelity = self.local_fidelity * self.remote_fidelity * idle_fidelity;
        let mean_link_wait = if self.remote_gates == 0 {
            0.0
        } else {
            self.total_link_wait.ticks() as f64 / self.remote_gates as f64
        };
        ExecutionReport {
            design,
            makespan: self.makespan,
            ideal_makespan,
            fidelity,
            local_fidelity: self.local_fidelity,
            remote_fidelity: self.remote_fidelity,
            idle_fidelity,
            remote_gates: self.remote_gates,
            service_stats,
            mean_link_wait,
            variant_counts,
        }
    }
}

/// Schedules the circuit as if on a monolithic all-to-all device.
fn ideal_schedule(circuit: &Circuit, config: &SystemConfig) -> Tracker {
    let mut tracker = Tracker::new(circuit.num_qubits(), config);
    for op in circuit.operations() {
        tracker.issue_local(op, config);
    }
    tracker
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_workloads::{qft, tlim, PaperBenchmark, TlimParams};

    fn config() -> SystemConfig {
        SystemConfig::paper_two_node_32()
    }

    /// Test-local per-seed helpers routed through the compile-once
    /// engine (compile fresh, run once — the behavior the removed legacy
    /// free functions had).
    fn evaluate(
        circuit: &Circuit,
        config: &SystemConfig,
        design: Design,
        seed: u64,
    ) -> Result<ExecutionReport, DqcError> {
        CompiledCircuit::compile(circuit, config)?.run(design, seed)
    }

    fn evaluate_many(
        circuit: &Circuit,
        config: &SystemConfig,
        design: Design,
        runs: usize,
        base_seed: u64,
    ) -> Result<crate::AveragedReport, DqcError> {
        crate::Experiment::new(circuit, config)?
            .design(design)
            .runs(runs)
            .base_seed(base_seed)
            .run()
    }

    #[test]
    fn evaluate_many_rejects_zero_runs() {
        let c = PaperBenchmark::QaoaR4_32.circuit();
        let err = evaluate_many(&c, &config(), Design::AsyncBuf, 0, 0).unwrap_err();
        assert_eq!(err, DqcError::ZeroRuns);
    }

    #[test]
    fn ideal_matches_timed_depth() {
        let c = tlim(32, 10, TlimParams::default());
        let r = evaluate(&c, &config(), Design::Ideal, 0).unwrap();
        assert_eq!(r.makespan, c.timed_depth());
        assert_eq!(r.remote_gates, 0);
        assert!(r.depth_relative_to_ideal() == 1.0);
    }

    #[test]
    fn distributed_designs_are_slower_than_ideal() {
        let c = tlim(32, 10, TlimParams::default());
        for design in Design::DISTRIBUTED {
            let r = evaluate(&c, &config(), design, 3).unwrap();
            assert!(
                r.makespan > r.ideal_makespan,
                "{design} should pay for remote gates"
            );
            assert_eq!(r.remote_gates, 10, "{design}: TLIM has 10 remote gates");
        }
    }

    #[test]
    fn buffering_reduces_depth() {
        let c = PaperBenchmark::QaoaR8_32.circuit();
        let orig = evaluate(&c, &config(), Design::Original, 7).unwrap();
        let sync = evaluate(&c, &config(), Design::SyncBuf, 7).unwrap();
        assert!(
            sync.makespan < orig.makespan,
            "sync_buf {} vs original {}",
            sync.depth_cnot_units(),
            orig.depth_cnot_units()
        );
    }

    #[test]
    fn async_not_worse_than_sync_on_average() {
        let c = PaperBenchmark::QaoaR8_32.circuit();
        let sync = evaluate_many(&c, &config(), Design::SyncBuf, 10, 100).unwrap();
        let asyn = evaluate_many(&c, &config(), Design::AsyncBuf, 10, 100).unwrap();
        assert!(
            asyn.mean_depth <= sync.mean_depth * 1.02,
            "async {} vs sync {}",
            asyn.mean_depth,
            sync.mean_depth
        );
    }

    #[test]
    fn init_buf_serves_first_gates_immediately() {
        let c = PaperBenchmark::QaoaR4_32.circuit();
        let adapt = evaluate_many(&c, &config(), Design::AdaptBuf, 10, 40).unwrap();
        let init = evaluate_many(&c, &config(), Design::InitBuf, 10, 40).unwrap();
        assert!(
            init.mean_depth <= adapt.mean_depth,
            "init {} vs adapt {}",
            init.mean_depth,
            adapt.mean_depth
        );
        assert!(init.mean_link_wait <= adapt.mean_link_wait);
    }

    #[test]
    fn fidelity_orderings_match_paper() {
        // Paper §V-A (QAOA-r8-32): original < sync_buf < async_buf < ideal.
        let c = PaperBenchmark::QaoaR8_32.circuit();
        let orig = evaluate_many(&c, &config(), Design::Original, 10, 0).unwrap();
        let sync = evaluate_many(&c, &config(), Design::SyncBuf, 10, 0).unwrap();
        let asyn = evaluate_many(&c, &config(), Design::AsyncBuf, 10, 0).unwrap();
        let ideal = evaluate_many(&c, &config(), Design::Ideal, 1, 0).unwrap();
        assert!(
            orig.mean_fidelity < sync.mean_fidelity,
            "original {} vs sync {}",
            orig.mean_fidelity,
            sync.mean_fidelity
        );
        // The async fidelity edge is small in our model (its advantage
        // shows in depth and cutoff waste); allow 10% slack either way.
        assert!(
            sync.mean_fidelity <= asyn.mean_fidelity * 1.10,
            "sync {} vs async {}",
            sync.mean_fidelity,
            asyn.mean_fidelity
        );
        assert!(asyn.mean_fidelity < ideal.mean_fidelity);
    }

    #[test]
    fn depth_orderings_match_paper() {
        // Paper Fig. 5 shape on the remote-heavy benchmark.
        let c = PaperBenchmark::QaoaR8_32.circuit();
        let [original, sync, asyn, adapt, init, ideal] = [
            Design::Original,
            Design::SyncBuf,
            Design::AsyncBuf,
            Design::AdaptBuf,
            Design::InitBuf,
            Design::Ideal,
        ]
        .map(|design| {
            evaluate_many(&c, &config(), design, 10, 7)
                .unwrap()
                .mean_depth
        });
        assert!(
            original > sync * 2.0,
            "buffering should cut depth by more than half: orig {original} sync {sync}"
        );
        assert!(
            sync > asyn,
            "async smooths arrivals: sync {sync} async {asyn}"
        );
        assert!(asyn >= adapt * 0.99);
        assert!(adapt >= init * 0.99);
        assert!(init > ideal);
    }

    #[test]
    fn adaptive_uses_variants() {
        let c = qft(32);
        let r = evaluate(&c, &config(), Design::AdaptBuf, 5).unwrap();
        let (orig, asap, alap) = r.variant_counts;
        assert!(orig + asap + alap > 0, "QFT must be segmented");
        assert!(
            asap + alap > 0,
            "controller should pick non-default variants sometimes"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let c = PaperBenchmark::QaoaR4_32.circuit();
        let a = evaluate(&c, &config(), Design::AsyncBuf, 9).unwrap();
        let b = evaluate(&c, &config(), Design::AsyncBuf, 9).unwrap();
        assert_eq!(a, b);
        // Distinct seeds must decorrelate: any single pair of seeds may
        // collide on makespan, but not a whole block of them.
        let differs = (10..20)
            .map(|s| evaluate(&c, &config(), Design::AsyncBuf, s).unwrap())
            .any(|r| r.makespan != a.makespan);
        assert!(
            differs,
            "ten consecutive seeds all reproduced seed 9's makespan"
        );
    }

    #[test]
    fn ideal_schedule_needs_no_partitioning() {
        // A 1-qubit circuit cannot be split across 2 nodes: the
        // compile-first engine rejects it up front, while the internal
        // ideal-device report (which never partitions) still schedules
        // it — the monolithic reference stays well-defined.
        let mut c = Circuit::new(1);
        c.h(0);
        let r = super::ideal_report(&c, &config());
        assert_eq!(r.remote_gates, 0);
        assert!(r.makespan.ticks() > 0);
        let err = CompiledCircuit::compile(&c, &config()).unwrap_err();
        assert!(matches!(err, DqcError::Partition(_)));
    }

    #[test]
    fn too_wide_circuit_rejected() {
        let c = qft(64);
        let err = evaluate(&c, &config(), Design::AsyncBuf, 0).unwrap_err();
        assert!(matches!(err, DqcError::CircuitTooWide { .. }));
    }

    #[test]
    fn no_comm_qubits_rejected() {
        let mut cfg = config();
        cfg.comm_qubits_per_node = 0;
        let c = PaperBenchmark::QaoaR4_32.circuit();
        let err = evaluate(&c, &cfg, Design::SyncBuf, 0).unwrap_err();
        assert_eq!(err, DqcError::NoEntanglementPossible);
    }

    #[test]
    fn more_comm_qubits_reduce_depth() {
        let c = PaperBenchmark::QaoaR8_32.circuit();
        let small = evaluate_many(&c, &config(), Design::InitBuf, 8, 0).unwrap();
        let large = evaluate_many(
            &c,
            &config().with_comm_and_buffer(20),
            Design::InitBuf,
            8,
            0,
        )
        .unwrap();
        assert!(
            large.mean_depth < small.mean_depth,
            "20 comm {} vs 10 comm {}",
            large.mean_depth,
            small.mean_depth
        );
    }

    #[test]
    fn state_teleport_consumes_two_links_per_gate() {
        let c = PaperBenchmark::QaoaR4_32.circuit();
        let mut cfg = config();
        cfg.remote_protocol = crate::RemoteProtocol::StateTeleport;
        let tele = evaluate(&c, &cfg, Design::AsyncBuf, 4).unwrap();
        let gate = evaluate(&c, &config(), Design::AsyncBuf, 4).unwrap();
        assert_eq!(tele.remote_gates, gate.remote_gates);
        let tele_links = tele.service_stats.unwrap().consumed;
        let gate_links = gate.service_stats.unwrap().consumed;
        assert_eq!(
            tele_links,
            2 * gate_links,
            "teledata uses 2 EPR pairs per gate"
        );
    }

    #[test]
    fn gate_teleport_dominates_state_teleport() {
        // The paper (after AutoComm) assumes gate teleportation; the
        // teledata alternative must cost more depth (2 links + 2 hops) and
        // more fidelity (2 noisy hops) — reproducing that design wisdom.
        let c = PaperBenchmark::QaoaR8_32.circuit();
        let mut cfg = config();
        cfg.remote_protocol = crate::RemoteProtocol::StateTeleport;
        let tele = evaluate_many(&c, &cfg, Design::AsyncBuf, 8, 0).unwrap();
        let gate = evaluate_many(&c, &config(), Design::AsyncBuf, 8, 0).unwrap();
        assert!(
            tele.mean_depth > gate.mean_depth,
            "teledata {} should be slower than telegate {}",
            tele.mean_depth,
            gate.mean_depth
        );
        assert!(
            tele.mean_fidelity < gate.mean_fidelity,
            "teledata {} should be noisier than telegate {}",
            tele.mean_fidelity,
            gate.mean_fidelity
        );
    }

    #[test]
    fn purification_trades_depth_for_remote_fidelity() {
        let c = PaperBenchmark::QaoaR4_32.circuit();
        let mut cfg = config();
        cfg.purify_links = true;
        let purified = evaluate_many(&c, &cfg, Design::AsyncBuf, 8, 0).unwrap();
        let plain = evaluate_many(&c, &config(), Design::AsyncBuf, 8, 0).unwrap();
        assert!(
            purified.mean_depth > plain.mean_depth,
            "purification costs depth: {} vs {}",
            purified.mean_depth,
            plain.mean_depth
        );
        // Remote-gate quality must improve (per-gate), even if the extra
        // idling eats some of it at the circuit level.
        let purified_remote = evaluate(&c, &cfg, Design::AsyncBuf, 3)
            .unwrap()
            .remote_fidelity;
        let plain_remote = evaluate(&c, &config(), Design::AsyncBuf, 3)
            .unwrap()
            .remote_fidelity;
        assert!(
            purified_remote.value() > plain_remote.value(),
            "purified remote product {} vs plain {}",
            purified_remote.value(),
            plain_remote.value()
        );
    }

    #[test]
    fn fidelity_components_multiply() {
        let c = PaperBenchmark::QaoaR4_32.circuit();
        let r = evaluate(&c, &config(), Design::AsyncBuf, 2).unwrap();
        let product = r.local_fidelity * r.remote_fidelity * r.idle_fidelity;
        assert!((product.value() - r.fidelity.value()).abs() < 1e-12);
    }

    #[test]
    fn all_to_all_topology_is_bit_for_bit_default() {
        // The explicit complete graph (with inherited link parameters)
        // must reproduce the implicit default exactly, for every design
        // and both node counts.
        use dqc_entanglement::NetworkTopology;
        let c = PaperBenchmark::QaoaR8_32.circuit();
        let baseline = config();
        let explicit = baseline.with_topology(NetworkTopology::all_to_all(2));
        for design in Design::ALL {
            for seed in [0u64, 7, 1234] {
                let a = evaluate(&c, &baseline, design, seed).unwrap();
                let b = evaluate(&c, &explicit, design, seed).unwrap();
                assert_eq!(a, b, "{design} seed {seed}");
            }
        }
    }

    #[test]
    fn multi_hop_routes_cost_fidelity_and_latency() {
        // Needs a remote-heavy workload whose traffic spans *all* node
        // pairs: on nearest-neighbor circuits the topology-aware
        // partitioner routes everything one hop and a sparse network can
        // even win (fewer links ⇒ more comm pairs per link).
        use dqc_entanglement::NetworkTopology;
        let c = PaperBenchmark::QaoaR8_32.circuit();
        let mut base = config();
        base.num_nodes = 4;
        base.data_qubits_per_node = 8;
        let full = base.with_topology(NetworkTopology::all_to_all(4));
        let chain = base.with_topology(NetworkTopology::chain(4));
        let r_full = evaluate_many(&c, &full, Design::AsyncBuf, 5, 0).unwrap();
        let r_chain = evaluate_many(&c, &chain, Design::AsyncBuf, 5, 0).unwrap();
        assert!(
            r_chain.mean_fidelity < r_full.mean_fidelity,
            "swap chains must degrade fidelity: chain {} vs full {}",
            r_chain.mean_fidelity,
            r_full.mean_fidelity
        );
        assert!(
            r_chain.mean_depth > r_full.mean_depth,
            "swap chains must cost makespan: chain {} vs full {}",
            r_chain.mean_depth,
            r_full.mean_depth
        );
    }

    #[test]
    fn topology_node_count_must_match() {
        use dqc_entanglement::NetworkTopology;
        let mut cfg = config();
        cfg.topology = Some(NetworkTopology::chain(4)); // num_nodes still 2
        let c = PaperBenchmark::Tlim32.circuit();
        let err = CompiledCircuit::compile(&c, &cfg).unwrap_err();
        assert_eq!(
            err,
            DqcError::TopologyMismatch {
                topology_nodes: 4,
                config_nodes: 2
            }
        );
    }

    #[test]
    fn disconnected_topology_rejected() {
        use dqc_entanglement::NetworkTopology;
        let cfg = config().with_topology(NetworkTopology::from_edges(4, &[(0, 1), (2, 3)]));
        let c = PaperBenchmark::Tlim32.circuit();
        let err = CompiledCircuit::compile(&c, &cfg).unwrap_err();
        assert_eq!(err, DqcError::DisconnectedTopology);
    }

    #[test]
    fn degraded_link_params_lower_fidelity() {
        use dqc_entanglement::{LinkParams, NetworkTopology};
        let c = PaperBenchmark::QaoaR4_32.circuit();
        let clean = config().with_topology(NetworkTopology::all_to_all(2));
        let noisy = config().with_topology(
            NetworkTopology::all_to_all(2)
                .with_uniform_link_params(LinkParams::default().with_initial_fidelity(0.93)),
        );
        let r_clean = evaluate_many(&c, &clean, Design::AsyncBuf, 5, 0).unwrap();
        let r_noisy = evaluate_many(&c, &noisy, Design::AsyncBuf, 5, 0).unwrap();
        assert!(
            r_noisy.mean_fidelity < r_clean.mean_fidelity,
            "per-edge fidelity override must bite: {} vs {}",
            r_noisy.mean_fidelity,
            r_clean.mean_fidelity
        );
    }

    #[test]
    fn routed_runs_are_deterministic_per_seed() {
        use dqc_entanglement::NetworkTopology;
        let c = dqc_workloads::ising_2d(8, 4, 3, dqc_workloads::TlimParams::default());
        let mut base = config();
        base.num_nodes = 4;
        base.data_qubits_per_node = 8;
        let cfg = base.with_topology(NetworkTopology::ring(4));
        let a = evaluate(&c, &cfg, Design::AdaptBuf, 11).unwrap();
        let b = evaluate(&c, &cfg, Design::AdaptBuf, 11).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stabilizer_matches_analytic_bit_for_bit() {
        // The stabilizer fast path folds the local schedule at compile
        // time and replays only the remote gates — through the same
        // service-pool code path as the analytic walk. The reports must
        // therefore agree exactly (floats included), not just closely.
        use crate::Backend;
        for circuit in [
            dqc_workloads::ghz_chain(32),
            dqc_workloads::ghz_tree(32),
            dqc_workloads::random_clifford(32, 400, 0.0, &mut seeded_rng(12)),
        ] {
            let stab_cfg = config().with_backend(Backend::Stabilizer);
            for design in [Design::Original, Design::SyncBuf, Design::AsyncBuf] {
                for seed in [0u64, 7, 1234] {
                    let a = evaluate(&circuit, &config(), design, seed).unwrap();
                    let s = evaluate(&circuit, &stab_cfg, design, seed).unwrap();
                    assert_eq!(a, s, "{design} seed {seed}");
                }
            }
        }
    }

    fn seeded_rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        use rand::SeedableRng;
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn stabilizer_matches_analytic_under_purification_and_teleport() {
        use crate::Backend;
        let c = dqc_workloads::ghz_chain(32);
        for (purify, protocol) in [
            (true, crate::RemoteProtocol::GateTeleport),
            (false, crate::RemoteProtocol::StateTeleport),
        ] {
            let mut base = config();
            base.purify_links = purify;
            base.remote_protocol = protocol;
            let stab = base.clone().with_backend(Backend::Stabilizer);
            for seed in [0u64, 5] {
                let a = evaluate(&c, &base, Design::AsyncBuf, seed).unwrap();
                let s = evaluate(&c, &stab, Design::AsyncBuf, seed).unwrap();
                assert_eq!(a, s, "purify={purify} {protocol:?} seed {seed}");
            }
        }
    }

    #[test]
    fn auto_upgrades_clifford_only_circuits() {
        use crate::Backend;
        let auto = config().with_backend(Backend::Auto);
        let clifford = CompiledCircuit::compile(&dqc_workloads::ghz_chain(32), &auto).unwrap();
        assert!(clifford.stabilizer_eligible());
        assert_eq!(
            clifford.selected_backend(Design::AsyncBuf),
            Backend::Stabilizer
        );
        // Adaptive designs probe live buffer state mid-run: the replay
        // cannot reproduce that, so Auto falls back to the analytic walk.
        assert_eq!(
            clifford.selected_backend(Design::AdaptBuf),
            Backend::Analytic
        );
        assert_eq!(clifford.selected_backend(Design::Ideal), Backend::Analytic);
        // A single non-Clifford gate (QAOA's rz) disqualifies the circuit:
        // Auto silently keeps the analytic engine instead of erroring.
        let qaoa = CompiledCircuit::compile(&PaperBenchmark::QaoaR4_32.circuit(), &auto).unwrap();
        assert!(!qaoa.stabilizer_eligible());
        assert_eq!(qaoa.selected_backend(Design::AsyncBuf), Backend::Analytic);
        let a = qaoa.run(Design::AsyncBuf, 3).unwrap();
        let b = CompiledCircuit::compile(&PaperBenchmark::QaoaR4_32.circuit(), &config())
            .unwrap()
            .run(Design::AsyncBuf, 3)
            .unwrap();
        assert_eq!(a, b, "auto on a non-Clifford circuit is pure analytic");
    }

    #[test]
    fn explicit_stabilizer_rejects_non_clifford() {
        use crate::Backend;
        let cfg = config().with_backend(Backend::Stabilizer);
        let err = CompiledCircuit::compile(&PaperBenchmark::QaoaR4_32.circuit(), &cfg).unwrap_err();
        match err {
            DqcError::BackendUnsupported { backend, reason } => {
                assert_eq!(backend, "stabilizer");
                assert!(reason.contains("non-Clifford"), "{reason}");
            }
            other => panic!("expected BackendUnsupported, got {other:?}"),
        }
    }

    #[test]
    fn density_rejects_wide_circuits() {
        use crate::{Backend, DENSITY_MAX_QUBITS};
        let cfg = config().with_backend(Backend::Density);
        let err = CompiledCircuit::compile(&dqc_workloads::ghz_chain(32), &cfg).unwrap_err();
        match err {
            DqcError::BackendUnsupported { backend, reason } => {
                assert_eq!(backend, "density");
                assert!(reason.contains(&DENSITY_MAX_QUBITS.to_string()), "{reason}");
            }
            other => panic!("expected BackendUnsupported, got {other:?}"),
        }
    }

    #[test]
    fn density_agrees_with_analytic_on_small_circuits() {
        // The analytic affine law *is* the density-matrix teleportation
        // evaluation (exact in the Werner parameter), so the density
        // backend re-deriving every factor from the dense gadget must
        // agree to floating-point noise — and schedules are untouched.
        use crate::Backend;
        let mut cfg = config();
        cfg.data_qubits_per_node = 4;
        let dens_cfg = cfg.clone().with_backend(Backend::Density);
        for circuit in [dqc_workloads::qft(8), dqc_workloads::ghz_chain(8)] {
            for design in [Design::Original, Design::AsyncBuf, Design::AdaptBuf] {
                for seed in [0u64, 9] {
                    let a = evaluate(&circuit, &cfg, design, seed).unwrap();
                    let d = evaluate(&circuit, &dens_cfg, design, seed).unwrap();
                    assert_eq!(a.makespan, d.makespan, "{design} seed {seed}");
                    assert_eq!(a.remote_gates, d.remote_gates);
                    assert_eq!(a.local_fidelity, d.local_fidelity);
                    assert!(
                        (a.fidelity.value() - d.fidelity.value()).abs() < 1e-9,
                        "{design} seed {seed}: analytic {} vs density {}",
                        a.fidelity.value(),
                        d.fidelity.value()
                    );
                }
            }
        }
    }

    #[test]
    fn stabilizer_outcomes_certify_deterministic_qubits() {
        use crate::Backend;
        let mut c = Circuit::new(4);
        c.x(0);
        c.cx(0, 2); // cross-half so the partitioner has a cut
        c.h(1);
        c.cx(1, 3);
        let mut cfg = config();
        cfg.data_qubits_per_node = 2;
        let compiled = CompiledCircuit::compile(&c, &cfg.with_backend(Backend::Auto)).unwrap();
        let outcomes = compiled.stabilizer_outcomes().unwrap();
        assert_eq!(outcomes[0], Some(true), "X|0> = |1>");
        assert_eq!(outcomes[2], Some(true), "CX copies the flip");
        assert_eq!(outcomes[1], None, "H puts q1 in superposition");
        assert_eq!(outcomes[3], None, "entangled with q1");
        let analytic = CompiledCircuit::compile(&c, &cfg).unwrap();
        assert!(analytic.stabilizer_outcomes().is_none());
    }
}

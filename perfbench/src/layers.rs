//! The per-layer instrument: direct, timed calls into each crate's
//! public functions, spans recorded from the benchmark's own code, and
//! the reduction of both into the per-layer metric table.
//!
//! The same direct calls are the output check's reference: a workload's
//! results are compared with `CompiledCircuit::compile` + `run` of the
//! same (circuit, config, design, seeds).

use crate::stats::{median, ms, quantile, us};
use dqc_circuit::Circuit;
use dqc_core::{
    Backend, CompiledCircuit, Design, DqcError, ExecutionReport, RemoteFidelityTable, SystemConfig,
};
use dqc_obs::{
    AttrValue, Capture, MetricsSnapshot, Recorder, RingRecorder, SpanId, SpanRecord, TraceId,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric a traced run reports, with its unit. A
/// workload whose path never reaches a layer reports that layer's
/// metrics as 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("compile.calls", "count"),
    ("compile.ms_p50", "ms"),
    ("compile.fidelity_table.ms_p50", "ms"),
    ("compile.partition.ms_p50", "ms"),
    ("compile.other.ms_p50", "ms"),
    ("compile.share", "ratio"),
    ("compile.fidelity_table.share", "ratio"),
    ("replay.runs", "count"),
    ("replay.analytic.us_per_run", "us"),
    ("replay.stabilizer.us_per_run", "us"),
    ("replay.share", "ratio"),
    ("codesign.parallel_efficiency", "ratio"),
    ("codesign.pareto.ms", "ms"),
    ("serve.submit.us_p50", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_misses", "count"),
    ("serve.dispatches", "count"),
    ("serve.rejected", "count"),
    ("serve.errors", "count"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.batched_share", "ratio"),
    ("serve.latency.samples", "count"),
    ("serve.latency.window", "count"),
    ("serve.overhead_ms", "ms"),
    ("wire.encode.us_p50", "us"),
    ("wire.decode.us_p50", "us"),
    ("wire.outside_serve_ms_p50", "ms"),
    ("wire.outside_serve.share", "ratio"),
    ("served.protocol_errors", "count"),
    ("served.bad_requests", "count"),
    ("served.quota_rejected", "count"),
    ("circuit.to_qasm.us_p50", "us"),
    ("circuit.from_qasm.us_p50", "us"),
    ("analyze.admission.us_p50", "us"),
    ("obs.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// Names of the benchmark's own per-request root spans: the spans
/// `trace.unattributed_frac` is measured over.
const REQUEST_ROOTS: [&str; 2] = ["bench.request", "bench.reference"];

/// Timings of direct calls into the layers, in the order they ran.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// `CompiledCircuit::compile`, per (circuit, config) pair.
    pub compile: Vec<Duration>,
    /// `RemoteFidelityTable::new`, per pair.
    pub fidelity_table: Vec<Duration>,
    /// `partition_circuit`, per pair.
    pub partition: Vec<Duration>,
    /// Replay time and run count per engine (`CompiledCircuit::run`).
    pub replay: BTreeMap<&'static str, (Duration, usize)>,
    /// `pareto_frontier`, per search.
    pub pareto: Vec<Duration>,
    /// `to_qasm`, per QASM request.
    pub to_qasm: Vec<Duration>,
    /// `from_qasm`, per QASM request.
    pub from_qasm: Vec<Duration>,
    /// `Analyzer::analyze_admission`, per request.
    pub admission: Vec<Duration>,
    /// `submit_frame` + `write_frame`, per request.
    pub encode: Vec<Duration>,
    /// `read_frame` + `parse_server_frame`, per reply.
    pub decode: Vec<Duration>,
}

impl Samples {
    fn merge(&mut self, other: Samples) {
        self.compile.extend(other.compile);
        self.fidelity_table.extend(other.fidelity_table);
        self.partition.extend(other.partition);
        for (engine, (time, runs)) in other.replay {
            let entry = self.replay.entry(engine).or_default();
            entry.0 += time;
            entry.1 += runs;
        }
        self.pareto.extend(other.pareto);
        self.to_qasm.extend(other.to_qasm);
        self.from_qasm.extend(other.from_qasm);
        self.admission.extend(other.admission);
        self.encode.extend(other.encode);
        self.decode.extend(other.decode);
    }

    /// Total replay time over every engine.
    pub fn replay_time(&self) -> Duration {
        self.replay.values().map(|(t, _)| *t).sum()
    }

    /// Busy time of the directly driven layers: compile, replay, and
    /// the frontier extraction.
    pub fn busy(&self) -> Duration {
        self.compile.iter().sum::<Duration>()
            + self.replay_time()
            + self.pareto.iter().sum::<Duration>()
    }

    /// Writes the compile, replay, and codesign-frontier metrics.
    pub fn report(&self, layers: &mut LayerReport) {
        let to_ms = |v: &[Duration]| v.iter().map(|d| ms(*d)).collect::<Vec<_>>();
        let other: Vec<f64> = self
            .compile
            .iter()
            .zip(&self.fidelity_table)
            .zip(&self.partition)
            .map(|((c, f), p)| ms(*c) - ms(*f) - ms(*p))
            .collect();
        layers.set("compile.ms_p50", median(&to_ms(&self.compile)));
        layers.set(
            "compile.fidelity_table.ms_p50",
            median(&to_ms(&self.fidelity_table)),
        );
        layers.set("compile.partition.ms_p50", median(&to_ms(&self.partition)));
        layers.set("compile.other.ms_p50", median(&other));
        let busy = self.busy().as_secs_f64();
        if busy > 0.0 {
            let share = |d: Duration| d.as_secs_f64() / busy;
            layers.set("compile.share", share(self.compile.iter().sum()));
            layers.set(
                "compile.fidelity_table.share",
                share(self.fidelity_table.iter().sum()),
            );
            layers.set("replay.share", share(self.replay_time()));
        }
        for (engine, (time, runs)) in &self.replay {
            if *runs > 0 {
                layers.set(
                    &format!("replay.{engine}.us_per_run"),
                    us(*time) / *runs as f64,
                );
            }
        }
        if !self.pareto.is_empty() {
            layers.set("codesign.pareto.ms", median(&to_ms(&self.pareto)));
        }
        layers.set("circuit.to_qasm.us_p50", us_p50(&self.to_qasm));
        layers.set("circuit.from_qasm.us_p50", us_p50(&self.from_qasm));
        layers.set("analyze.admission.us_p50", us_p50(&self.admission));
        layers.set("wire.encode.us_p50", us_p50(&self.encode));
        layers.set("wire.decode.us_p50", us_p50(&self.decode));
    }
}

/// Compiles `circuit` for `config`, timing the whole
/// `CompiledCircuit::compile`, then the two compile phases the public
/// API exposes on their own (`RemoteFidelityTable::new`,
/// `partition_circuit`).
///
/// # Errors
///
/// Any compile or partition failure.
pub fn compile_pair(
    circuit: &Circuit,
    config: &SystemConfig,
    samples: &mut Samples,
) -> Result<CompiledCircuit, DqcError> {
    let t = Instant::now();
    let compiled = {
        let _span = dqc_obs::span("bench.compile");
        CompiledCircuit::compile(circuit, config)?
    };
    samples.compile.push(t.elapsed());
    let t = Instant::now();
    {
        let _span = dqc_obs::span("bench.fidelity_table");
        black_box(RemoteFidelityTable::new(&config.fidelities));
    }
    samples.fidelity_table.push(t.elapsed());
    let t = Instant::now();
    {
        let _span = dqc_obs::span("bench.partition");
        black_box(dqc_partition::partition_circuit(
            circuit,
            config.num_nodes,
            config.partition_seed,
        )?);
    }
    samples.partition.push(t.elapsed());
    Ok(compiled)
}

/// Replays seeds `base_seed .. base_seed + runs` of `design`, exactly
/// as the engine's `Experiment` does, timing the whole range.
///
/// # Errors
///
/// The first run's failure.
pub fn replay(
    compiled: &CompiledCircuit,
    design: Design,
    runs: usize,
    base_seed: u64,
    samples: &mut Samples,
) -> Result<Vec<ExecutionReport>, DqcError> {
    let engine = match compiled.selected_backend(design) {
        Backend::Stabilizer => "stabilizer",
        Backend::Density => "density",
        Backend::Analytic | Backend::Auto => "analytic",
    };
    let t = Instant::now();
    let reports = {
        let mut span = dqc_obs::span("bench.replay");
        if span.enabled() {
            span.attr("engine", engine);
            span.attr("runs", runs);
            span.attr("seed", base_seed.to_string());
        }
        (0..runs)
            .map(|i| compiled.run(design, base_seed.wrapping_add(i as u64)))
            .collect::<Result<Vec<_>, _>>()?
    };
    let entry = samples.replay.entry(engine).or_default();
    entry.0 += t.elapsed();
    entry.1 += runs;
    Ok(reports)
}

/// Opens the root span of one reference evaluation, with its identity
/// as string attributes (seeds and cache keys do not survive the JSON
/// number model as integers).
pub fn reference_span(label: &str, cache_key: u64) -> dqc_obs::SpanGuard {
    let mut span = dqc_obs::root_span("bench.reference", TraceId::mint());
    if span.enabled() {
        span.attr("label", label);
        span.attr("cache_key", format!("{cache_key:016x}"));
    }
    span
}

/// Threads a direct drive whose timings are reported runs on. Two
/// threads running the same calls in step contend for the core
/// resources they share and slow each call: on a 2-vCPU VM,
/// `RemoteFidelityTable::new` took 27 ms on each of two threads in step
/// against 12–15 ms alone. An output check, whose timings are not
/// reported, runs on [`crate::THREADS`].
pub const TIMED_THREADS: usize = 1;

/// Maps `f` over `items` on `threads` scoped threads, each with its own
/// [`Samples`]; results come back in item order and the samples merged.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T, &mut Samples) -> R + Sync,
) -> (Vec<R>, Samples) {
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let mut samples = Samples::default();
    let parts: Vec<(Vec<(usize, R)>, Samples)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                scope.spawn(move || {
                    let mut local = Samples::default();
                    let out = (t..items.len())
                        .step_by(threads)
                        .map(|i| (i, f(&items[i], &mut local)))
                        .collect::<Vec<_>>();
                    (out, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference worker does not panic"))
            .collect()
    });
    for (out, local) in parts {
        for (i, r) in out {
            slots[i] = Some(r);
        }
        samples.merge(local);
    }
    let results = slots
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect();
    (results, samples)
}

/// The per-layer metric table of one traced run.
#[derive(Debug, Clone)]
pub struct LayerReport {
    values: BTreeMap<&'static str, f64>,
}

impl Default for LayerReport {
    fn default() -> Self {
        Self {
            values: PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect(),
        }
    }
}

impl LayerReport {
    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// On a name outside [`PER_LAYER`]: the table is fixed.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        self.values.insert(key, value);
    }

    /// Sets the serve-layer metrics from two `ServeStats` snapshots
    /// taken around the traced window and the server-side latency of
    /// each request served in it: cache, dispatch, refusal and error
    /// counts, the share of requests that shared a dispatch with another
    /// (so waited for it), the served replays, and latency quantiles
    /// beside the server's own window size.
    pub fn serve(
        &mut self,
        before: &dqc_serve::ServeStats,
        after: &dqc_serve::ServeStats,
        server_ms: &[f64],
    ) {
        let delta = |f: fn(&dqc_serve::ServeStats) -> u64| (f(after) - f(before)) as f64;
        let (hits, misses) = (delta(|s| s.cache_hits), delta(|s| s.cache_misses));
        let (served, dispatches) = (delta(|s| s.served), delta(|s| s.dispatches));
        self.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
        self.set("serve.cache_misses", misses);
        self.set("serve.dispatches", dispatches);
        self.set("serve.batched_share", 1.0 - dispatches / served.max(1.0));
        self.set("serve.rejected", delta(|s| s.rejected));
        self.set("serve.errors", delta(|s| s.errors));
        self.set("serve.latency_p50_ms", median(server_ms));
        self.set("serve.latency_p99_ms", quantile(server_ms, 0.99));
        self.set("serve.latency.samples", server_ms.len() as f64);
        self.set("serve.latency.window", after.latency.window as f64);
        self.set(
            "replay.runs",
            delta(|s| s.served) * crate::inputs::SERVE_RUNS as f64,
        );
    }

    /// Sets the compile and replay metrics of a served run from the
    /// program's own spans inside the traced `window`: `compile.ms_p50`
    /// from its `compile` spans, and `compile.share` and `replay.share`
    /// as the time of its `compile` and `exec.replay` spans over the
    /// workers' busy time (their `serve.dispatch` spans). The direct
    /// drive in `samples` supplies only the split of a compile:
    /// `compile.fidelity_table.share` is the compile share times the
    /// fidelity table's share of the directly driven compiles.
    pub fn served_busy(&mut self, spans: &[SpanRecord], window: (u64, u64), samples: &Samples) {
        let compile = program_spans(spans, "compile", window);
        let replay = program_spans(spans, "exec.replay", window);
        let busy = program_spans(spans, "serve.dispatch", window)
            .iter()
            .sum::<Duration>()
            .as_secs_f64();
        let share = |d: &[Duration]| {
            if busy > 0.0 {
                d.iter().sum::<Duration>().as_secs_f64() / busy
            } else {
                0.0
            }
        };
        let compile_share = share(&compile);
        let direct_compile = samples.compile.iter().sum::<Duration>().as_secs_f64();
        let table_of_compile = if direct_compile > 0.0 {
            samples
                .fidelity_table
                .iter()
                .sum::<Duration>()
                .as_secs_f64()
                / direct_compile
        } else {
            0.0
        };
        self.set(
            "compile.ms_p50",
            median(&compile.iter().map(|d| ms(*d)).collect::<Vec<_>>()),
        );
        self.set("compile.share", compile_share);
        self.set(
            "compile.fidelity_table.share",
            compile_share * table_of_compile,
        );
        self.set("replay.share", share(&replay));
    }

    /// `(name, value, unit)` rows in [`PER_LAYER`] order.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, self.values[name], *unit))
            .collect()
    }

    /// The table as text, one metric per line.
    pub fn render(&self) -> String {
        self.rows()
            .iter()
            .map(|(name, value, unit)| format!("{name:<32} {value:>14.4} {unit}\n"))
            .collect()
    }
}

/// A recording session: a ring recorder on the monotonic clock,
/// installed for the session's lifetime.
#[derive(Debug)]
pub struct Tracing {
    ring: Arc<RingRecorder>,
    _installed: dqc_obs::Installed,
}

impl Tracing {
    /// Installs a ring large enough that no span of one traced run
    /// falls off.
    pub fn start() -> Self {
        let ring = Arc::new(RingRecorder::new(1 << 20));
        let installed = dqc_obs::install(ring.clone(), Arc::new(dqc_obs::MonotonicClock::new()));
        Self {
            ring,
            _installed: installed,
        }
    }

    /// The installed clock's current time.
    pub fn now_us() -> u64 {
        dqc_obs::now_micros().unwrap_or(0)
    }

    /// Records an already-delimited span with a caller-chosen identity,
    /// so spans of overlapping requests on one thread can still be
    /// parented.
    pub fn record(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &str,
        (start_us, end_us): (u64, u64),
        attrs: Vec<(&str, AttrValue)>,
    ) -> SpanId {
        let id = SpanId::mint();
        self.ring.record_span(SpanRecord {
            trace,
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us: end_us.max(start_us),
            attrs: attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        });
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.ring.spans()
    }

    /// Writes the capture to `perfbench/out/<workload>-trace.json`,
    /// checks that it reads back whole the way `dqc-obs report` reads it
    /// (`dqc-obs report perfbench/out/<workload>-trace.json` renders
    /// it), and writes the per-layer table beside it as
    /// `<workload>-layers.txt`.
    ///
    /// # Errors
    ///
    /// An I/O failure, or a capture that does not parse back whole.
    pub fn write(
        &self,
        workload: &str,
        metrics: MetricsSnapshot,
        layers: &LayerReport,
    ) -> Result<PathBuf, String> {
        let capture = Capture::from_ring("perfbench", "monotonic", &self.ring, metrics);
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        let write = |name: String, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok::<_, String>(path)
        };
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let text = capture.to_json().to_compact_string();
        let path = write(format!("{workload}-trace.json"), &text)?;
        let back = dqc_types::Json::parse(&text)
            .and_then(|json| Capture::from_json(&json))
            .map_err(|e| format!("{}: capture does not parse back: {e}", path.display()))?;
        if back.spans.len() != capture.spans.len() {
            return Err(format!("{}: capture lost spans", path.display()));
        }
        write(format!("{workload}-layers.txt"), &layers.render())?;
        Ok(path)
    }
}

/// Share of the benchmark's per-request root spans that no other span
/// of the same trace covers: time the profiler cannot attribute.
pub fn unattributed_frac(spans: &[SpanRecord]) -> f64 {
    let mut by_trace: BTreeMap<TraceId, Vec<&SpanRecord>> = BTreeMap::new();
    for span in spans {
        by_trace.entry(span.trace).or_default().push(span);
    }
    let (mut root_us, mut gap_us) = (0u64, 0u64);
    for trace_spans in by_trace.values() {
        for root in trace_spans
            .iter()
            .filter(|s| s.parent.is_none() && REQUEST_ROOTS.contains(&s.name.as_str()))
        {
            let mut cover: Vec<(u64, u64)> = trace_spans
                .iter()
                .filter(|s| s.id != root.id)
                .map(|s| (s.start_us.max(root.start_us), s.end_us.min(root.end_us)))
                .filter(|(a, b)| a < b)
                .collect();
            cover.sort_unstable();
            let mut covered = 0;
            let mut reach = root.start_us;
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            root_us += root.duration_us();
            gap_us += root.duration_us() - covered;
        }
    }
    if root_us == 0 {
        0.0
    } else {
        gap_us as f64 / root_us as f64
    }
}

/// Durations of the program's own spans named `name` that lie inside
/// `(start_us, end_us)`.
pub fn program_spans(
    spans: &[SpanRecord],
    name: &str,
    (start_us, end_us): (u64, u64),
) -> Vec<Duration> {
    spans
        .iter()
        .filter(|s| s.name == name && s.start_us >= start_us && s.end_us <= end_us)
        .map(|s| Duration::from_micros(s.duration_us()))
        .collect()
}

/// Median of per-sample microseconds.
pub fn us_p50(samples: &[Duration]) -> f64 {
    median(&samples.iter().map(|d| us(*d)).collect::<Vec<_>>())
}

/// Fraction by which traced work ran slower than untraced work, each
/// given as total time per operation.
pub fn overhead_frac(untraced_per_op: f64, traced_per_op: f64) -> f64 {
    if untraced_per_op > 0.0 {
        traced_per_op / untraced_per_op - 1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        trace: u64,
        id: u64,
        parent: Option<u64>,
        name: &str,
        (start_us, end_us): (u64, u64),
    ) -> SpanRecord {
        SpanRecord {
            trace: TraceId(trace),
            id: SpanId(id),
            parent: parent.map(SpanId),
            name: name.to_string(),
            start_us,
            end_us,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn unattributed_time_is_the_root_minus_the_union_of_its_trace() {
        let spans = [
            // Root 0..100; children cover 10..40 (overlapping) and
            // 90..120 (clipped to 90..100): 60 µs uncovered.
            span(1, 1, None, "bench.request", (0, 100)),
            span(1, 2, Some(1), "bench.submit", (10, 30)),
            span(1, 3, None, "serve.request", (20, 40)),
            span(1, 4, None, "serve.request", (90, 120)),
            // Another trace's span never covers this root.
            span(2, 5, None, "compile", (0, 100)),
        ];
        assert!((unattributed_frac(&spans) - 0.6).abs() < 1e-12);
        assert_eq!(unattributed_frac(&spans[4..]), 0.0, "no request roots");
    }

    #[test]
    fn a_layer_report_carries_every_metric_once() {
        let mut report = LayerReport::default();
        report.set("compile.calls", 3.0);
        let rows = report.rows();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert_eq!(rows[0], ("compile.calls", 3.0, "count"));
        let mut names: Vec<&str> = rows.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}

//! The repository benchmark: three workloads that reach the paper's
//! model the three ways users do — a codesign search (`sweep`), an
//! in-process server (`serve_cold`), and a round trip through the TCP
//! daemon (`wire_batch`) — timed end to end, plus a separate traced
//! run that times each layer from outside through its public calls.
//!
//! See `perfbench/README.md` for why each workload was chosen and which
//! layer metric should move which end-to-end metric.

#![forbid(unsafe_code)]

pub mod inputs;
pub mod layers;
pub mod serve_cold;
pub mod stats;
pub mod sweep;
pub mod wire_batch;

pub use inputs::THREADS;

use std::time::{Duration, Instant};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["sweep", "serve_cold", "wire_batch"];

/// Runs `workload` on the inputs of `seed` for `seconds`: the
/// end-to-end metrics, or with `trace` the per-layer ones.
///
/// # Errors
///
/// An unknown workload, or a set-up failure.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    match workload {
        "sweep" => sweep::run(seed, seconds, trace),
        "serve_cold" => serve_cold::run(seed, seconds, trace),
        "wire_batch" => wire_batch::run(seed, seconds, trace),
        _ => Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        )),
    }
}

/// An untraced run sets up at least this many times, and for at least
/// [`SETUP_MIN`], then cuts its set-ups into this many groups of
/// consecutive ones; `setup_s` is the median of the groups' mean times.
/// A set-up of a fraction of a millisecond is thus measured as steadily
/// as one of a tenth of a second, and a short spell in which the host
/// runs the VM slower moves one group, as a burst of load moves one
/// sub-window of the timed window.
pub const SETUPS: usize = 9;

/// The least total time an untraced run spends setting up: long enough
/// that a spell of a second or two in which a shared host runs the VM
/// slower or faster moves a group or two, not the result.
pub const SETUP_MIN: Duration = Duration::from_secs(5);

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (evaluations for `sweep`, requests for the
    /// serve workloads).
    pub attempted: u64,
    /// Operations that errored, were refused, or did not match the
    /// direct evaluation.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// Whether every attempted operation was checked and matched.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> dqc_types::Json {
        use dqc_types::Json;
        Json::object([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::uint(self.attempted)),
            ("failed", Json::uint(self.failed)),
            (
                "metrics",
                Json::object(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::object([
                            ("value", Json::float(*value)),
                            ("unit", Json::Str(unit.clone())),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Sets the end-to-end metrics of an untraced run.
    pub fn end_to_end(&mut self, e2e: &EndToEnd) {
        let windows = e2e.sub_windows();
        let median_of = |f: &dyn Fn(&[Sample], Duration) -> f64| {
            stats::median(
                &windows
                    .iter()
                    .map(|(w, span)| f(w, *span))
                    .collect::<Vec<_>>(),
            )
        };
        let latency_p50 = |w: &[Sample], _: Duration| {
            stats::median(&w.iter().map(|s| s.latency_ms).collect::<Vec<_>>())
        };
        let throughput = |w: &[Sample], span: Duration| {
            w.iter().map(|s| s.ops).sum::<u64>() as f64 / span.as_secs_f64()
        };
        let rss = stats::peak_rss_mb().unwrap_or(0.0);
        self.metrics = vec![
            (
                "throughput_ops_s".into(),
                median_of(&throughput),
                "ops/s".into(),
            ),
            (
                "latency_p50_ms".into(),
                median_of(&latency_p50),
                "ms".into(),
            ),
            ("setup_s".into(), stats::median(&e2e.setup_s), "s".into()),
            ("peak_rss_mb".into(), rss, "MB".into()),
        ];
    }

    /// Sets the per-layer metrics of a traced run.
    pub fn per_layer(&mut self, layers: &layers::LayerReport) {
        self.metrics = layers
            .rows()
            .into_iter()
            .map(|(name, value, unit)| (name.to_string(), value, unit.to_string()))
            .collect();
    }
}

/// One completed operation (or batch of them) in the timed window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, from the window's opening.
    pub at: Duration,
    /// From when it was due to when it completed.
    pub latency_ms: f64,
    /// Operations it completed.
    pub ops: u64,
}

/// Sub-windows a timed window is cut into. Throughput and latency are
/// medians over them, so one burst of load from outside the benchmark
/// moves one sub-window, not the result.
pub const SUB_WINDOWS: usize = 10;

/// The raw end-to-end measurements of one untraced run.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Every completion in the timed window.
    pub samples: Vec<Sample>,
    /// Length of the timed window.
    pub elapsed: Duration,
    /// Mean set-up time of each group of consecutive set-ups.
    pub setup_s: Vec<f64>,
}

impl EndToEnd {
    /// The samples cut into [`SUB_WINDOWS`] equal spans of completion
    /// time, each with the time from the previous sub-window's last
    /// completion to its own last one (so a rate over a sub-window
    /// never counts part of an unfinished operation).
    fn sub_windows(&self) -> Vec<(Vec<Sample>, Duration)> {
        let mut samples = self.samples.clone();
        samples.sort_by_key(|s| s.at);
        let width = self.elapsed.as_secs_f64() / SUB_WINDOWS as f64;
        let mut windows: Vec<Vec<Sample>> = vec![Vec::new(); SUB_WINDOWS];
        for s in samples {
            let w = ((s.at.as_secs_f64() / width) as usize).min(SUB_WINDOWS - 1);
            windows[w].push(s);
        }
        let mut last = Duration::ZERO;
        windows
            .into_iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                let end = w.last().expect("non-empty").at;
                let span = end - last;
                last = end;
                (w, span)
            })
            .collect()
    }
}

/// A run's timed window: starts now, ends `seconds` later.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    start: Instant,
    deadline: Instant,
}

impl Window {
    /// Opens a window of `seconds`.
    pub fn open(seconds: f64) -> Self {
        let start = Instant::now();
        Self {
            start,
            deadline: start + Duration::from_secs_f64(seconds),
        }
    }

    /// Whether the window is still open.
    pub fn open_now(&self) -> bool {
        Instant::now() < self.deadline
    }

    /// Time since the window opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Runs `setup` [`SETUPS`] times and for [`SETUP_MIN`], keeping the last
/// instance; each earlier one goes to `discard`, outside the timing,
/// before the next starts. Returns the kept instance and the mean time
/// of each of [`SETUPS`] groups of consecutive set-ups.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    let mut spent = Duration::ZERO;
    while times.len() < SETUPS || spent < SETUP_MIN {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t = Instant::now();
        kept = Some(setup()?);
        let took = t.elapsed();
        spent += took;
        times.push(took.as_secs_f64());
    }
    let groups = (0..SETUPS)
        .map(|g| {
            let group = &times[g * times.len() / SETUPS..(g + 1) * times.len() / SETUPS];
            group.iter().sum::<f64>() / group.len() as f64
        })
        .collect();
    Ok((kept.expect("SETUPS > 0"), groups))
}

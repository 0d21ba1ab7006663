//! `serve_cold`: a closed loop into an in-process `dqc-serve` server
//! where every request misses the compile cache, so compilation is
//! nearly all the work.

use crate::inputs::{ServeColdInputs, POINT, SERVE_COLD_IN_FLIGHT};
use crate::layers::{self, LayerReport, Samples, Tracing};
use crate::stats::{median, ms};
use crate::{repeated_setup, EndToEnd, Outcome, Sample, Window, THREADS};
use dqc_core::{ExecutionReport, SystemConfig};
use dqc_obs::{AttrValue, TraceId};
use dqc_serve::{EvalResponse, RequestId, ServeBuilder, Server};
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// The served hardware point: the paper's two-node 32-qubit system on
/// the default (analytic) engine.
fn point_config() -> SystemConfig {
    SystemConfig::paper_two_node_32()
}

struct Setup {
    inputs: ServeColdInputs,
    server: Server,
    responses: Receiver<EvalResponse>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let inputs = ServeColdInputs::generate(seed);
    let (server, responses) = ServeBuilder::new()
        .hardware_point(POINT, point_config())
        .workers_per_shard(THREADS)
        .spawn()
        .map_err(|e| e.to_string())?;
    Ok(Setup {
        inputs,
        server,
        responses,
    })
}

/// One completed request as the client saw it.
struct Completed {
    index: usize,
    /// Completion, from the window's opening.
    at: Duration,
    /// Client latency: submission to the response's arrival.
    latency: Duration,
    /// The server's own submission-to-completion latency.
    server_latency: Duration,
    reports: Result<Vec<ExecutionReport>, String>,
    submit: Duration,
}

/// A submitted request awaiting its response.
struct Pending {
    index: usize,
    sent: Instant,
    /// Submission on the tracing clock (0 when not tracing).
    start_us: u64,
    trace: Option<TraceId>,
    /// Time `Server::submit` took.
    submit: Duration,
}

/// Drives the closed loop from request `first` for `seconds`, keeping
/// [`SERVE_COLD_IN_FLIGHT`] requests outstanding; with `tracing`, each
/// request gets a trace and client-side spans.
fn closed_loop(
    setup: &Setup,
    first: usize,
    seconds: f64,
    tracing: Option<&Tracing>,
) -> (Vec<Completed>, u64, Duration) {
    let window = Window::open(seconds);
    let mut next = first;
    let mut refused = 0;
    let mut pending: HashMap<RequestId, Pending> = HashMap::new();
    let mut done = Vec::new();
    let mut send = |next: &mut usize, pending: &mut HashMap<_, _>| {
        let index = *next;
        *next += 1;
        let trace = tracing.map(|_| TraceId::mint());
        let mut request = setup.inputs.request(index);
        if let Some(trace) = trace {
            request = request.trace(trace);
        }
        let start_us = Tracing::now_us();
        let sent = Instant::now();
        match setup.server.submit(request) {
            Ok(id) => {
                let submit = sent.elapsed();
                pending.insert(
                    id,
                    Pending {
                        index,
                        sent,
                        start_us,
                        trace,
                        submit,
                    },
                );
            }
            Err(_) => refused += 1,
        }
    };
    for _ in 0..SERVE_COLD_IN_FLIGHT {
        send(&mut next, &mut pending);
    }
    while !pending.is_empty() {
        let Ok(response) = setup.responses.recv() else {
            break;
        };
        let Some(Pending {
            index,
            sent,
            start_us,
            trace,
            submit,
        }) = pending.remove(&response.id)
        else {
            continue;
        };
        let latency = sent.elapsed();
        if let (Some(tracing), Some(trace)) = (tracing, trace) {
            let end_us = Tracing::now_us();
            let root = tracing.record(
                trace,
                None,
                "bench.request",
                (start_us, end_us),
                vec![
                    ("label", AttrValue::from(response.circuit_label.as_str())),
                    (
                        "seed",
                        AttrValue::from(setup.inputs.request(index).base_seed.to_string()),
                    ),
                ],
            );
            let submit_end = start_us + submit.as_micros() as u64;
            tracing.record(
                trace,
                Some(root),
                "bench.submit",
                (start_us, submit_end),
                vec![],
            );
        }
        done.push(Completed {
            index,
            at: window.elapsed(),
            latency,
            server_latency: response.latency,
            reports: response
                .outcome
                .map(|o| o.reports)
                .map_err(|e| e.to_string()),
            submit,
        });
        if window.open_now() {
            send(&mut next, &mut pending);
        }
    }
    (done, refused, window.elapsed())
}

/// Compiles each distinct pool circuit once and replays every completed
/// request; returns the mismatch count and the layer samples.
fn check(inputs: &ServeColdInputs, done: &[Completed]) -> (u64, Samples) {
    let mut by_circuit: BTreeMap<usize, Vec<&Completed>> = BTreeMap::new();
    for c in done {
        by_circuit
            .entry(c.index % inputs.pool.len())
            .or_default()
            .push(c);
    }
    let groups: Vec<(usize, Vec<&Completed>)> = by_circuit.into_iter().collect();
    let config = point_config();
    let (bad, samples) = layers::par_map(&groups, THREADS, |(slot, requests), samples| {
        let (label, circuit) = &inputs.pool[*slot];
        let Ok(compiled) = layers::compile_pair(circuit, &config, samples) else {
            return requests.len() as u64;
        };
        requests
            .iter()
            .filter(|c| !matches_direct(&compiled, inputs, c, samples))
            .inspect(|c| eprintln!("mismatch: request {} ({label})", c.index))
            .count() as u64
    });
    (bad.iter().sum(), samples)
}

fn matches_direct(
    compiled: &dqc_core::CompiledCircuit,
    inputs: &ServeColdInputs,
    done: &Completed,
    samples: &mut Samples,
) -> bool {
    let request = inputs.request(done.index);
    let direct = layers::replay(
        compiled,
        request.design,
        request.runs,
        request.base_seed,
        samples,
    );
    matches!((&done.reports, direct), (Ok(got), Ok(want)) if *got == want)
}

/// Runs `serve_cold` for `seconds`: the end-to-end metrics, or with
/// `trace` the per-layer ones.
///
/// # Errors
///
/// A set-up failure.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        return traced(seed, seconds);
    }
    let (setup, setup_s) = repeated_setup(|| setup(seed), |old| drop(old.server.shutdown()))?;
    let (done, refused, elapsed) = closed_loop(&setup, 0, seconds, None);
    let mut outcome = Outcome::default();
    outcome.end_to_end(&EndToEnd {
        samples: done
            .iter()
            .map(|c| Sample {
                at: c.at,
                latency_ms: ms(c.latency),
                ops: u64::from(c.reports.is_ok()),
            })
            .collect(),
        elapsed,
        setup_s,
    });
    let (mismatched, _) = check(&setup.inputs, &done);
    drop(setup.server.shutdown());
    outcome.attempted = done.len() as u64 + refused;
    outcome.failed = mismatched + refused;
    Ok(outcome)
}

fn traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let setup = setup(seed)?;
    let (untraced, refused_untraced, untraced_elapsed) =
        closed_loop(&setup, 0, seconds / 2.0, None);
    let tracing = Tracing::start();
    let before = setup.server.stats();
    let compiles = dqc_core::compile_count();
    let start_us = Tracing::now_us();
    let (done, refused, traced_elapsed) =
        closed_loop(&setup, untraced.len(), seconds / 2.0, Some(&tracing));
    let end_us = Tracing::now_us();
    let compile_calls = dqc_core::compile_count() - compiles;
    let after = setup.server.stats();
    let metrics = setup.server.metrics();

    // Every traced request again, directly: one reference compile per
    // request (each one compiled in the server too), for the output
    // check, the split of a compile into its parts, and the server's
    // overhead over the work itself.
    let config = point_config();
    let inputs = &setup.inputs;
    let (direct, samples) = layers::par_map(&done, layers::TIMED_THREADS, |c, samples| {
        let request = inputs.request(c.index);
        let key = dqc_core::CompiledCircuit::cache_key(&request.circuit, &config);
        let _root = layers::reference_span(&request.circuit_label, key);
        let compile_before: Duration = samples.compile.iter().sum();
        let replay_before = samples.replay_time();
        let ok = layers::compile_pair(&request.circuit, &config, samples)
            .is_ok_and(|compiled| matches_direct(&compiled, inputs, c, samples));
        let spent = samples.compile.iter().sum::<Duration>() - compile_before
            + samples.replay_time()
            - replay_before;
        (ok, spent)
    });
    let (untraced_bad, _) = check(inputs, &untraced);
    drop(setup.server.shutdown());

    let mut layers = LayerReport::default();
    samples.report(&mut layers);
    layers.served_busy(&tracing.spans(), (start_us, end_us), &samples);
    layers.set("compile.calls", compile_calls as f64);
    layers.set(
        "serve.submit.us_p50",
        layers::us_p50(&done.iter().map(|c| c.submit).collect::<Vec<_>>()),
    );
    let server_ms: Vec<f64> = done.iter().map(|c| ms(c.server_latency)).collect();
    layers.serve(&before, &after, &server_ms);
    let overhead: Vec<f64> = done
        .iter()
        .zip(&direct)
        .map(|(c, (_, spent))| ms(c.server_latency) - ms(*spent))
        .collect();
    layers.set("serve.overhead_ms", median(&overhead));
    let per_request = |elapsed: Duration, n: usize| elapsed.as_secs_f64() / n.max(1) as f64;
    layers.set(
        "obs.overhead_frac",
        layers::overhead_frac(
            per_request(untraced_elapsed, untraced.len()),
            per_request(traced_elapsed, done.len()),
        ),
    );
    layers.set(
        "trace.unattributed_frac",
        layers::unattributed_frac(&tracing.spans()),
    );
    let path = tracing.write("serve_cold", metrics, &layers)?;
    eprintln!("capture: {}", path.display());

    let traced_bad = direct.iter().filter(|(ok, _)| !ok).count() as u64;
    let mut outcome = Outcome::default();
    outcome.per_layer(&layers);
    outcome.attempted = (untraced.len() + done.len()) as u64 + refused_untraced + refused;
    outcome.failed = untraced_bad + traced_bad + refused_untraced + refused;
    Ok(outcome)
}

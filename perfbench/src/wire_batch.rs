//! `wire_batch`: co-design clients on TCP connections to an in-process
//! `dqc-served` daemon, each sending a batch of six requests and waiting
//! for all six replies before the next. Every request hits the warm
//! compile cache, so the work is the wire path around the server.

use crate::inputs::{WireBatchInputs, POINT, WIRE_CLIENTS};
use crate::layers::{self, LayerReport, Samples, Tracing};
use crate::stats::{median, ms};
use crate::{repeated_setup, EndToEnd, Outcome, Sample, Window, THREADS};
use dqc_core::{Backend, Design, SystemConfig};
use dqc_obs::AttrValue;
use dqc_served::protocol::{parse_server_frame, result_frame, submit_frame, ServerFrame};
use dqc_served::{
    read_frame, write_frame, CircuitPayload, Served, ServedBuilder, ServedClient, Submission,
    WireOutput,
};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// The served hardware point: the paper system under `Backend::Auto`,
/// so the portfolio's Clifford circuits replay on the stabilizer engine.
fn point_config() -> SystemConfig {
    SystemConfig::paper_two_node_32().with_backend(Backend::Auto)
}

struct Setup {
    inputs: WireBatchInputs,
    daemon: Served,
    clients: Vec<ServedClient>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let inputs = WireBatchInputs::generate(seed);
    let daemon = ServedBuilder::new()
        .hardware_point(POINT, point_config())
        .workers_per_shard(THREADS)
        .bind("127.0.0.1:0")
        .map_err(|e| e.to_string())?;
    let mut clients = (0..WIRE_CLIENTS)
        .map(|c| ServedClient::connect(daemon.local_addr(), &format!("perfbench-{c}")))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    // Warm the compile cache: every portfolio circuit once, one at a
    // time. Submitted together, they would land on one worker or on both
    // as the scheduler happens to wake them, and set-up time would
    // swing between the two.
    let warm = &mut clients[0];
    for (label, circuit) in &inputs.portfolio {
        warm.submit(&Submission::structured(
            label.clone(),
            circuit.clone(),
            POINT,
            Design::AsyncBuf,
        ))
        .map_err(|e| e.to_string())?;
        let reply = warm.recv_reply().map_err(|e| e.to_string())?;
        reply.outcome.map_err(|e| format!("warm-up refused: {e}"))?;
    }
    Ok(Setup {
        inputs,
        daemon,
        clients,
    })
}

fn teardown(setup: Setup) {
    for client in setup.clients {
        let _ = client.bye();
    }
    drop(setup.daemon.shutdown());
}

/// One request as the client saw it.
struct Reply {
    submission: Submission,
    /// Portfolio index.
    index: usize,
    /// The client's tag for it.
    tag: u64,
    /// Arrival, from the window's opening.
    at: Duration,
    /// From the batch's send to this reply's arrival.
    latency: Duration,
    outcome: Result<WireOutput, String>,
    /// Clock microseconds (zero when not tracing): batch sent, reply
    /// arrived.
    batch_us: u64,
    end_us: u64,
}

/// One client's batch-then-wait loop until the window closes.
fn drive(
    client: &mut ServedClient,
    inputs: &WireBatchInputs,
    c: usize,
    window: Window,
) -> Vec<Reply> {
    let mut replies = Vec::new();
    let mut batch = 0;
    while window.open_now() {
        let sent = Instant::now();
        let batch_us = Tracing::now_us();
        let mut waiting: HashMap<u64, (usize, Submission)> = HashMap::new();
        for i in 0..inputs.batch_len() {
            let submission = inputs.submission(c, batch, i);
            match client.submit(&submission) {
                Ok(tag) => {
                    waiting.insert(tag, (i, submission));
                }
                Err(e) => fail(&mut replies, i, submission, e.to_string()),
            }
        }
        while !waiting.is_empty() {
            let reply = match client.recv_reply() {
                Ok(reply) => reply,
                Err(e) => {
                    for (_, (i, submission)) in waiting.drain() {
                        fail(&mut replies, i, submission, e.to_string());
                    }
                    return replies;
                }
            };
            let Some((index, submission)) = waiting.remove(&reply.tag) else {
                continue;
            };
            replies.push(Reply {
                submission,
                index,
                tag: reply.tag,
                at: window.elapsed(),
                latency: sent.elapsed(),
                outcome: reply.outcome.map_err(|e| e.to_string()),
                batch_us,
                end_us: Tracing::now_us(),
            });
        }
        batch += 1;
    }
    replies
}

fn fail(replies: &mut Vec<Reply>, index: usize, submission: Submission, error: String) {
    replies.push(Reply {
        submission,
        index,
        tag: 0,
        at: Duration::ZERO,
        latency: Duration::ZERO,
        outcome: Err(error),
        batch_us: 0,
        end_us: 0,
    });
}

/// Runs every client's loop on its own thread for `seconds`.
fn run_clients(
    clients: &mut [ServedClient],
    inputs: &WireBatchInputs,
    seconds: f64,
) -> (Vec<Reply>, Duration) {
    let window = Window::open(seconds);
    let replies = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| scope.spawn(move || drive(client, inputs, c, window)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    (replies, window.elapsed())
}

/// Compiles each portfolio circuit once and replays every reply's
/// request; per reply, whether it matched and the direct replay time.
/// With `probe`, also times the frame codec, the circuit codec and the
/// admission analysis the client and daemon run on the same requests.
fn check(
    inputs: &WireBatchInputs,
    replies: &[Reply],
    probe: bool,
) -> (Vec<(bool, Duration)>, Samples) {
    let mut by_circuit: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (r, reply) in replies.iter().enumerate() {
        by_circuit.entry(reply.index).or_default().push(r);
    }
    let groups: Vec<(usize, Vec<usize>)> = by_circuit.into_iter().collect();
    let config = point_config();
    let threads = if probe {
        layers::TIMED_THREADS
    } else {
        THREADS
    };
    let (results, samples) = layers::par_map(&groups, threads, |(index, members), samples| {
        let (label, circuit) = &inputs.portfolio[*index];
        let key = dqc_core::CompiledCircuit::cache_key(circuit, &config);
        let _root = layers::reference_span(label, key);
        let compiled = layers::compile_pair(circuit, &config, samples);
        members
            .iter()
            .map(|&r| {
                let reply = &replies[r];
                let sub = &reply.submission;
                let mut ok = !probe || probe_request(label, circuit, reply, &config, samples);
                let before = samples.replay_time();
                let direct = compiled
                    .as_ref()
                    .map_err(ToString::to_string)
                    .and_then(|c| {
                        layers::replay(c, sub.design, sub.runs, sub.base_seed, samples)
                            .map_err(|e| e.to_string())
                    });
                ok &=
                    matches!((&reply.outcome, direct), (Ok(got), Ok(want)) if got.reports == want);
                (r, (ok, samples.replay_time() - before))
            })
            .collect::<Vec<_>>()
    });
    let mut out = vec![(false, Duration::ZERO); replies.len()];
    for (r, result) in results.into_iter().flatten() {
        out[r] = result;
    }
    (out, samples)
}

/// Times, off the socket, what the client and the daemon do to a
/// request besides serving it: the frame codec (the submission encoded
/// into a buffer; the reply's frame decoded from one), the QASM round
/// trip (client `to_qasm`, daemon `from_qasm`) and admission analysis.
/// Returns whether each agrees with what was sent and received.
fn probe_request(
    label: &str,
    circuit: &dqc_circuit::Circuit,
    reply: &Reply,
    config: &SystemConfig,
    samples: &mut Samples,
) -> bool {
    let submission = &reply.submission;
    let mut ok = true;
    let mut sent = Vec::new();
    let t = Instant::now();
    let encoded = {
        let _span = dqc_obs::span("bench.encode");
        write_frame(&mut sent, &submit_frame(reply.tag, submission))
    };
    samples.encode.push(t.elapsed());
    ok &= encoded.is_ok();
    if let Ok(output) = &reply.outcome {
        let mut received = Vec::new();
        ok &= write_frame(&mut received, &result_frame(reply.tag, output)).is_ok();
        let t = Instant::now();
        let decoded = {
            let _span = dqc_obs::span("bench.decode");
            read_frame(&mut received.as_slice())
                .map_err(|e| e.to_string())
                .and_then(|frame| parse_server_frame(&frame).map_err(|e| e.to_string()))
        };
        samples.decode.push(t.elapsed());
        ok &= matches!(decoded, Ok(ServerFrame::Result { output: back, .. }) if back.reports == output.reports);
    }
    if let CircuitPayload::Qasm(text) = &submission.circuit {
        let t = Instant::now();
        let written = {
            let _span = dqc_obs::span("bench.to_qasm");
            dqc_circuit::to_qasm(circuit)
        };
        samples.to_qasm.push(t.elapsed());
        let t = Instant::now();
        let parsed = {
            let _span = dqc_obs::span("bench.from_qasm");
            dqc_circuit::from_qasm(text)
        };
        samples.from_qasm.push(t.elapsed());
        ok &= written == *text && parsed.is_ok_and(|c| c.fingerprint() == circuit.fingerprint());
    }
    let t = Instant::now();
    let report = {
        let _span = dqc_obs::span("bench.admission");
        dqc_analyze::Analyzer::new().analyze_admission(label, circuit, config)
    };
    samples.admission.push(t.elapsed());
    ok && !report.has_errors()
}

/// Runs `wire_batch` for `seconds`: the end-to-end metrics, or with
/// `trace` the per-layer ones.
///
/// # Errors
///
/// A set-up failure.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        return traced(seed, seconds);
    }
    let (mut setup, setup_s) = repeated_setup(|| setup(seed), teardown)?;
    let (replies, elapsed) = run_clients(&mut setup.clients, &setup.inputs, seconds);
    let mut outcome = Outcome::default();
    outcome.end_to_end(&EndToEnd {
        samples: replies
            .iter()
            .filter(|r| r.outcome.is_ok())
            .map(|r| Sample {
                at: r.at,
                latency_ms: ms(r.latency),
                ops: 1,
            })
            .collect(),
        elapsed,
        setup_s,
    });
    let (checked, _) = check(&setup.inputs, &replies, false);
    teardown(setup);
    outcome.attempted = replies.len() as u64;
    outcome.failed = checked.iter().filter(|(ok, _)| !ok).count() as u64;
    Ok(outcome)
}

fn traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup = setup(seed)?;
    let (untraced, untraced_elapsed) =
        run_clients(&mut setup.clients, &setup.inputs, seconds / 2.0);
    let tracing = Tracing::start();
    let serve_before = setup.daemon.serve_stats();
    let daemon_before = setup.daemon.daemon_stats();
    let compiles = dqc_core::compile_count();
    let start_us = Tracing::now_us();
    let (replies, traced_elapsed) = run_clients(&mut setup.clients, &setup.inputs, seconds / 2.0);
    let end_us = Tracing::now_us();
    let compile_calls = dqc_core::compile_count() - compiles;
    let serve_after = setup.daemon.serve_stats();
    let daemon_after = setup.daemon.daemon_stats();
    let metrics = setup.daemon.metrics();

    for reply in &replies {
        let Ok(output) = &reply.outcome else { continue };
        let Some(trace) = output.trace_id else {
            continue;
        };
        tracing.record(
            trace,
            None,
            "bench.request",
            (reply.batch_us, reply.end_us),
            vec![
                ("label", AttrValue::from(reply.submission.label.as_str())),
                (
                    "seed",
                    AttrValue::from(reply.submission.base_seed.to_string()),
                ),
            ],
        );
    }
    let (checked, samples) = check(&setup.inputs, &replies, true);
    let (untraced_checked, _) = check(&setup.inputs, &untraced, false);
    let inputs_batch = setup.inputs.batch_len();
    teardown(setup);

    let mut layers = LayerReport::default();
    samples.report(&mut layers);
    layers.served_busy(&tracing.spans(), (start_us, end_us), &samples);
    layers.set("compile.calls", compile_calls as f64);
    let answered: Vec<(&Reply, &WireOutput, Duration)> = replies
        .iter()
        .zip(&checked)
        .filter_map(|(r, (_, direct))| r.outcome.as_ref().ok().map(|ok| (r, ok, *direct)))
        .collect();
    let server_ms: Vec<f64> = answered.iter().map(|(_, ok, _)| ok.latency_ms).collect();
    let client_ms: Vec<f64> = answered.iter().map(|(r, _, _)| ms(r.latency)).collect();
    layers.serve(&serve_before, &serve_after, &server_ms);
    let overhead: Vec<f64> = answered
        .iter()
        .map(|(_, ok, direct)| ok.latency_ms - ms(*direct))
        .collect();
    layers.set("serve.overhead_ms", median(&overhead));
    let outside: Vec<f64> = answered
        .iter()
        .map(|(r, ok, _)| ms(r.latency) - ok.latency_ms)
        .collect();
    layers.set("wire.outside_serve_ms_p50", median(&outside));
    layers.set(
        "wire.outside_serve.share",
        median(&outside) / median(&client_ms),
    );
    layers.set(
        "served.protocol_errors",
        (daemon_after.protocol_errors - daemon_before.protocol_errors) as f64,
    );
    layers.set(
        "served.bad_requests",
        (daemon_after.bad_requests - daemon_before.bad_requests) as f64,
    );
    layers.set(
        "served.quota_rejected",
        (daemon_after.quota_rejected - daemon_before.quota_rejected) as f64,
    );
    let per_batch = |elapsed: Duration, n: usize| {
        elapsed.as_secs_f64() * WIRE_CLIENTS as f64 / (n / inputs_batch).max(1) as f64
    };
    layers.set(
        "obs.overhead_frac",
        layers::overhead_frac(
            per_batch(untraced_elapsed, untraced.len()),
            per_batch(traced_elapsed, replies.len()),
        ),
    );
    layers.set(
        "trace.unattributed_frac",
        layers::unattributed_frac(&tracing.spans()),
    );
    let path = tracing.write("wire_batch", metrics, &layers)?;
    eprintln!("capture: {}", path.display());

    let mut outcome = Outcome::default();
    outcome.per_layer(&layers);
    outcome.attempted = (untraced.len() + replies.len()) as u64;
    outcome.failed = checked
        .iter()
        .chain(&untraced_checked)
        .filter(|(ok, _)| !ok)
        .count() as u64;
    Ok(outcome)
}

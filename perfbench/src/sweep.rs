//! `sweep`: the `repro codesign` path. Two `Codesign` searches over the
//! paper space, repeated back to back for the whole window; replay-bound.

use crate::inputs::{SweepInputs, SweepSearch};
use crate::layers::{self, LayerReport, Samples, Tracing};
use crate::stats::{ms, us};
use crate::{repeated_setup, EndToEnd, Outcome, Sample, Window, THREADS};
use dqc_codesign::{pareto_frontier, Codesign, CodesignResult, CostModel, Objectives};
use dqc_core::{AveragedReport, Design, SystemConfig};
use std::time::{Duration, Instant};

fn codesign(inputs: &SweepInputs, search: &SweepSearch) -> Codesign {
    Codesign::new(
        search.label.clone(),
        search.circuit.clone(),
        search.space.clone(),
    )
    .runs(inputs.runs)
    .base_seed(inputs.base_seed)
    .threads(THREADS)
}

/// Every search once: one co-design study over both circuits.
fn pass(inputs: &SweepInputs) -> Vec<Result<CodesignResult, String>> {
    inputs
        .searches
        .iter()
        .map(|search| codesign(inputs, search).run().map_err(|e| e.to_string()))
        .collect()
}

/// One compile unit of the reference: a search's distinct hardware
/// configuration and the design points that share it.
struct Pair<'a> {
    search: &'a SweepSearch,
    config: SystemConfig,
    points: Vec<(usize, Design)>,
}

/// The direct evaluation of every point of every search on `threads`
/// threads: per search, the averaged report of each point, in point
/// order.
fn reference(
    inputs: &SweepInputs,
    threads: usize,
) -> (Vec<Vec<Result<AveragedReport, String>>>, Samples) {
    let mut pairs: Vec<(usize, Pair)> = Vec::new();
    for (k, search) in inputs.searches.iter().enumerate() {
        let start = pairs.len();
        for point in search.space.points() {
            let scenario = search.space.realize(&point);
            match pairs[start..]
                .iter_mut()
                .find(|(_, p)| p.config == scenario.config)
            {
                Some((_, pair)) => pair.points.push((point.index, scenario.design)),
                None => pairs.push((
                    k,
                    Pair {
                        search,
                        config: scenario.config,
                        points: vec![(point.index, scenario.design)],
                    },
                )),
            }
        }
    }
    let (evaluated, samples) = layers::par_map(&pairs, threads, |(_, pair), samples| {
        let key = dqc_core::CompiledCircuit::cache_key(&pair.search.circuit, &pair.config);
        let _root = layers::reference_span(&pair.search.label, key);
        let compiled = layers::compile_pair(&pair.search.circuit, &pair.config, samples)
            .map_err(|e| e.to_string());
        pair.points
            .iter()
            .map(|&(index, design)| {
                let compiled = compiled.as_ref().map_err(Clone::clone)?;
                let reports =
                    layers::replay(compiled, design, inputs.runs, inputs.base_seed, samples)
                        .map_err(|e| e.to_string())?;
                Ok((index, AveragedReport::from_runs(&reports)))
            })
            .collect::<Vec<Result<(usize, AveragedReport), String>>>()
    });
    let mut out: Vec<Vec<Result<AveragedReport, String>>> = inputs
        .searches
        .iter()
        .map(|s| {
            (0..s.space.len())
                .map(|_| Err("not evaluated".to_string()))
                .collect()
        })
        .collect();
    for ((k, pair), results) in pairs.iter().zip(evaluated) {
        for (&(index, _), result) in pair.points.iter().zip(results) {
            out[*k][index] = result.map(|(_, report)| report);
        }
    }
    (out, samples)
}

/// Number of evaluations in `search` whose candidate does not match the
/// reference, counting a wrong frontier as every evaluation failed.
fn mismatches(
    inputs: &SweepInputs,
    search: &SweepSearch,
    expected: &[Result<AveragedReport, String>],
    result: &CodesignResult,
    samples: &mut Samples,
) -> u64 {
    let runs = inputs.runs as u64;
    let cost = CostModel::default();
    let mut objectives = Vec::with_capacity(expected.len());
    let mut bad = 0;
    for (index, reference) in expected.iter().enumerate() {
        let candidate = result.candidates.iter().find(|c| c.point_index == index);
        let Ok(reference) = reference else {
            bad += runs;
            continue;
        };
        let config = search
            .space
            .realize(&search.space.point(index).expect("index in space"))
            .config;
        let want = Objectives {
            fidelity: reference.mean_fidelity,
            depth_relative: reference.mean_depth_relative,
            hardware_cost: cost.cost(&config),
        };
        objectives.push(want);
        match candidate {
            Some(c) if c.report == *reference && c.objectives == want => {}
            _ => bad += runs,
        }
    }
    let t = Instant::now();
    let frontier = {
        let _span = dqc_obs::span("bench.pareto");
        pareto_frontier(&objectives)
    };
    samples.pareto.push(t.elapsed());
    if frontier != result.frontier {
        bad = expected.len() as u64 * runs;
    }
    bad
}

/// Checks one pass's results against the reference; returns the
/// failed evaluation count.
fn check(
    inputs: &SweepInputs,
    results: &[Result<CodesignResult, String>],
    expected: &[Vec<Result<AveragedReport, String>>],
    samples: &mut Samples,
) -> u64 {
    inputs
        .searches
        .iter()
        .zip(results)
        .zip(expected)
        .map(|((search, result), expected)| match result {
            Ok(result) => mismatches(inputs, search, expected, result, samples),
            Err(_) => (search.space.len() * inputs.runs) as u64,
        })
        .sum()
}

/// Runs `sweep` for `seconds`: the end-to-end metrics, or with `trace`
/// the per-layer ones.
///
/// # Errors
///
/// A set-up failure.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        return traced(seed);
    }
    let (inputs, setup_s) = repeated_setup(|| Ok(SweepInputs::generate(seed)), drop)?;
    let per_pass = inputs.evaluations() as u64;
    let window = Window::open(seconds);
    let mut e2e = EndToEnd {
        setup_s,
        ..EndToEnd::default()
    };
    let mut first: Option<Vec<Result<CodesignResult, String>>> = None;
    let (mut attempted, mut failed) = (0, 0);
    while window.open_now() {
        let t = Instant::now();
        let results = pass(&inputs);
        e2e.samples.push(Sample {
            at: window.elapsed(),
            latency_ms: ms(t.elapsed()),
            ops: per_pass,
        });
        attempted += per_pass;
        match &first {
            None => first = Some(results),
            // Searches are pure functions of their inputs: every repeat
            // must reproduce the first pass exactly.
            Some(first) if *first == results => {}
            Some(_) => failed += per_pass,
        }
    }
    e2e.elapsed = window.elapsed();
    let mut outcome = Outcome::default();
    outcome.end_to_end(&e2e);
    let (expected, mut samples) = reference(&inputs, THREADS);
    failed += check(
        &inputs,
        &first.expect("window ran one pass"),
        &expected,
        &mut samples,
    );
    outcome.attempted = attempted;
    outcome.failed = failed;
    Ok(outcome)
}

fn traced(seed: u64) -> Result<Outcome, String> {
    let inputs = SweepInputs::generate(seed);
    let per_pass = inputs.evaluations() as f64;
    // One untraced and one traced pass of the same searches, back to
    // back: a traced pass records a span per replayed seed, so one pass
    // is all the capture holds.
    let timed_pass = || {
        let t = Instant::now();
        let results = pass(&inputs);
        (t.elapsed().as_secs_f64() / per_pass, results)
    };
    // The first pass in a process pays for cold allocations; warm up so
    // the two timed passes differ only in tracing.
    let (_, warm) = timed_pass();
    let (untraced_per_eval, untraced) = timed_pass();
    let tracing = Tracing::start();
    let compiles = dqc_core::compile_count();
    let start_us = Tracing::now_us();
    let (traced_per_eval, results) = timed_pass();
    let end_us = Tracing::now_us();
    let compile_calls = dqc_core::compile_count() - compiles;
    // The searches' own worker spans: busy time inside the timed passes.
    let spans = tracing.spans();
    let busy: Duration = ["compile", "exec.replay"]
        .iter()
        .flat_map(|name| layers::program_spans(&spans, name, (start_us, end_us)))
        .sum();

    let (expected, mut samples) = reference(&inputs, layers::TIMED_THREADS);
    let mut failed = check(&inputs, &results, &expected, &mut samples);
    // Every pass must reproduce the checked one exactly.
    failed += [warm, untraced]
        .iter()
        .filter(|other| **other != results)
        .count() as u64
        * per_pass as u64;

    let mut layers = LayerReport::default();
    samples.report(&mut layers);
    layers.set("compile.calls", compile_calls as f64);
    layers.set(
        "replay.runs",
        samples.replay.values().map(|(_, runs)| *runs as f64).sum(),
    );
    layers.set(
        "codesign.parallel_efficiency",
        us(busy) / ((end_us - start_us) as f64 * THREADS as f64),
    );
    layers.set(
        "obs.overhead_frac",
        layers::overhead_frac(untraced_per_eval, traced_per_eval),
    );
    layers.set(
        "trace.unattributed_frac",
        layers::unattributed_frac(&tracing.spans()),
    );
    let path = tracing.write("sweep", dqc_obs::MetricsSnapshot::default(), &layers)?;
    eprintln!("capture: {}", path.display());

    let mut outcome = Outcome::default();
    outcome.per_layer(&layers);
    outcome.attempted = 3 * per_pass as u64;
    outcome.failed = failed;
    Ok(outcome)
}

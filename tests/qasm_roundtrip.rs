//! QASM interchange is lossless for everything the serving layer ships:
//! `to_qasm → from_qasm` reproduces the exact [`Circuit::fingerprint`]
//! for the full QAOA/QFT/GHZ serve portfolio, so a circuit that travels
//! as OpenQASM text hits the same warm compile-cache entry as the
//! structured original. The structured JSON travel format is pinned to
//! the same contract, and the QASM text itself is a fixed point after
//! one round trip.

use dqc::circuit::{from_qasm, to_qasm, Circuit};

/// The property the serve cache depends on: text round trip preserves
/// the fingerprint, per portfolio circuit.
#[test]
fn qasm_round_trip_preserves_fingerprint_for_serve_portfolio() {
    let portfolio = dqc_bench::serve_portfolio();
    assert!(!portfolio.is_empty(), "portfolio must cover real workloads");
    for (label, circuit) in &portfolio {
        let text = to_qasm(circuit);
        let parsed = from_qasm(&text)
            .unwrap_or_else(|e| panic!("{label}: emitted QASM failed to parse: {e}"));
        assert_eq!(
            parsed.fingerprint(),
            circuit.fingerprint(),
            "{label}: QASM round trip changed the fingerprint",
        );
        assert_eq!(
            parsed.num_qubits(),
            circuit.num_qubits(),
            "{label}: QASM round trip changed the qubit count",
        );
        assert_eq!(
            parsed.operations().len(),
            circuit.operations().len(),
            "{label}: QASM round trip changed the operation count",
        );
    }
}

/// The emitted text is already canonical: emitting the parsed circuit
/// again produces byte-identical QASM, so repeated hops cannot drift.
#[test]
fn qasm_emission_is_a_fixed_point() {
    for (label, circuit) in &dqc_bench::serve_portfolio() {
        let once = to_qasm(circuit);
        let twice = to_qasm(&from_qasm(&once).expect("emitted QASM parses"));
        assert_eq!(once, twice, "{label}: QASM text is not stable");
    }
}

/// The structured JSON travel format keeps the same promise, so both
/// wire formats land on one cache key.
#[test]
fn json_round_trip_preserves_fingerprint_for_serve_portfolio() {
    for (label, circuit) in &dqc_bench::serve_portfolio() {
        let back = Circuit::from_json(&circuit.to_json())
            .unwrap_or_else(|e| panic!("{label}: circuit JSON failed to parse: {e}"));
        assert_eq!(
            back.fingerprint(),
            circuit.fingerprint(),
            "{label}: JSON round trip changed the fingerprint",
        );
    }
}

/// Brackets in the wrong order are a typed parse error naming the
/// offending line, never a panic: this text reaches the parser straight
/// from a daemon `submit`.
#[test]
fn reversed_brackets_are_parse_errors() {
    for (source, line) in [("qreg q]1[;", 1), ("qreg q[2];\nh q]0[;", 2)] {
        let err = from_qasm(source).expect_err(source);
        assert_eq!(err.line(), line, "{source:?}: {err}");
    }
}

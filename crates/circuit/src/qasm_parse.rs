//! OpenQASM 2.0 import (the subset produced by [`crate::to_qasm`] plus
//! common aliases).

use crate::{Circuit, Gate};
use dqc_types::QubitId;
use std::error::Error;
use std::fmt;

/// Error produced while parsing an OpenQASM 2.0 program.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseQasmError {
    line: usize,
    message: String,
}

impl ParseQasmError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number of the offending statement.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The human-readable description, without the line prefix.
    ///
    /// The `dqc-served` daemon forwards this verbatim (alongside
    /// [`ParseQasmError::line`]) in its `bad_request` wire error, so a
    /// remote client sees exactly what a local caller would.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qasm parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseQasmError {}

/// Parses an OpenQASM 2.0 program into a [`Circuit`].
///
/// Supported statements: the header (`OPENQASM`, `include`), one `qreg`,
/// optional `creg`, single-line `gate` definitions (skipped — gate
/// *names* resolve against this crate's gate set instead), gate
/// applications over this crate's gate set (with the aliases `u1`→`p`,
/// `cu1`→`cp`, `id`), `measure q[i] -> c[j];`, and `barrier` (ignored).
/// Comments (`//`) are stripped.
///
/// The parser is the exact inverse of [`to_qasm`](crate::to_qasm):
/// re-importing an exported program reproduces the original circuit —
/// including its [`fingerprint`](Circuit::fingerprint) — bit for bit.
/// This identity is what lets the `dqc-served` wire front door accept
/// QASM text and still hit the fingerprint-keyed compile caches.
///
/// # Errors
///
/// Returns [`ParseQasmError`] for unknown gates, malformed operands,
/// missing registers, or out-of-range qubits; [`ParseQasmError::line`]
/// names the offending 1-based source line.
///
/// # Examples
///
/// ```
/// use dqc_circuit::{from_qasm, to_qasm, Circuit};
///
/// # fn main() -> Result<(), dqc_circuit::ParseQasmError> {
/// let mut original = Circuit::new(3);
/// original.h(0).cx(0, 1).rzz(1, 2, 0.5).measure(2);
/// let round_tripped = from_qasm(&to_qasm(&original))?;
/// assert_eq!(round_tripped.fingerprint(), original.fingerprint());
/// # Ok(())
/// # }
/// ```
pub fn from_qasm(source: &str) -> Result<Circuit, ParseQasmError> {
    let mut circuit: Option<Circuit> = None;
    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        // Gate definitions carry `;`-separated bodies, so they must be
        // recognized before statement splitting. Only the single-line
        // form `to_qasm` emits is accepted.
        if line == "gate" || line.starts_with("gate ") || line.starts_with("gate\t") {
            if line.contains('{') && line.ends_with('}') {
                continue;
            }
            return Err(ParseQasmError::new(
                line_no,
                "gate definitions must open and close their body on one line",
            ));
        }
        for statement in line.split(';') {
            let statement = statement.trim();
            if statement.is_empty() {
                continue;
            }
            parse_statement(statement, line_no, &mut circuit)?;
        }
    }
    circuit.ok_or_else(|| ParseQasmError::new(0, "no qreg declaration found"))
}

fn parse_statement(
    statement: &str,
    line: usize,
    circuit: &mut Option<Circuit>,
) -> Result<(), ParseQasmError> {
    let (head, rest) = match statement.find(|c: char| c.is_whitespace() || c == '(') {
        Some(pos) => statement.split_at(pos),
        None => (statement, ""),
    };
    match head {
        "OPENQASM" | "include" | "barrier" | "creg" => Ok(()),
        "qreg" => {
            let size = parse_register_size(rest.trim(), line)?;
            if circuit.is_some() {
                return Err(ParseQasmError::new(line, "multiple qreg declarations"));
            }
            *circuit = Some(Circuit::new(size));
            Ok(())
        }
        "measure" => {
            let c = circuit
                .as_mut()
                .ok_or_else(|| ParseQasmError::new(line, "measure before qreg"))?;
            let operand = rest
                .split("->")
                .next()
                .ok_or_else(|| ParseQasmError::new(line, "malformed measure"))?;
            let q = parse_qubit(operand.trim(), line)?;
            c.push(Gate::Measure, &[q])
                .map_err(|e| ParseQasmError::new(line, e.to_string()))?;
            Ok(())
        }
        name => {
            let c = circuit
                .as_mut()
                .ok_or_else(|| ParseQasmError::new(line, "gate before qreg"))?;
            let (gate, operand_text) = parse_gate(name, rest.trim(), line)?;
            let qubits: Result<Vec<QubitId>, _> = operand_text
                .split(',')
                .map(|t| parse_qubit(t.trim(), line))
                .collect();
            c.push(gate, &qubits?)
                .map_err(|e| ParseQasmError::new(line, e.to_string()))?;
            Ok(())
        }
    }
}

fn parse_register_size(text: &str, line: usize) -> Result<u32, ParseQasmError> {
    // e.g. "q[5]"
    bracketed(text)
        .ok_or_else(|| ParseQasmError::new(line, "malformed qreg"))?
        .parse()
        .map_err(|_| ParseQasmError::new(line, "bad register size"))
}

fn parse_qubit(text: &str, line: usize) -> Result<QubitId, ParseQasmError> {
    let index: u32 = bracketed(text)
        .ok_or_else(|| ParseQasmError::new(line, format!("malformed operand {text}")))?
        .parse()
        .map_err(|_| ParseQasmError::new(line, format!("bad qubit index in {text}")))?;
    Ok(QubitId::new(index))
}

/// The text between the first `[` and the first `]` after it; `None`
/// when either bracket is missing or they come in the wrong order.
fn bracketed(text: &str) -> Option<&str> {
    let (_, rest) = text.split_once('[')?;
    let (inside, _) = rest.split_once(']')?;
    Some(inside)
}

fn parse_gate<'a>(
    name: &str,
    rest: &'a str,
    line: usize,
) -> Result<(Gate, &'a str), ParseQasmError> {
    // Split an optional "(angle)" prefix from the operand list.
    let (param, operands) = if let Some(stripped) = rest.strip_prefix('(') {
        let close = stripped
            .find(')')
            .ok_or_else(|| ParseQasmError::new(line, "unclosed parameter list"))?;
        let angle = parse_angle(&stripped[..close], line)?;
        (Some(angle), stripped[close + 1..].trim())
    } else {
        (None, rest)
    };
    // OpenQASM spellings that differ from this crate's mnemonics.
    let canonical = match name {
        "u1" => "p",
        "cu1" => "cp",
        other => other,
    };
    match Gate::from_name(canonical, param) {
        // `measure` has its own statement form; a bare `measure` here
        // (no `->`) would silently drop the classical target.
        Some(Gate::Measure) => Err(ParseQasmError::new(
            line,
            "measure requires the `measure q[i] -> c[j];` form",
        )),
        Some(gate) => Ok((gate, operands)),
        None if param.is_some() && Gate::from_name(canonical, None).is_some() => Err(
            ParseQasmError::new(line, format!("gate {name} takes no parameter")),
        ),
        None if param.is_none() && Gate::from_name(canonical, Some(0.0)).is_some() => Err(
            ParseQasmError::new(line, format!("gate {name} needs an angle parameter")),
        ),
        None => Err(ParseQasmError::new(
            line,
            format!("unsupported gate {name}"),
        )),
    }
}

/// Parses angles like `0.5`, `-1.2e-3`, `pi`, `pi/2`, `-pi/4`, `2*pi`.
fn parse_angle(text: &str, line: usize) -> Result<f64, ParseQasmError> {
    let text = text.trim();
    if let Ok(v) = text.parse::<f64>() {
        return Ok(v);
    }
    let pi = std::f64::consts::PI;
    let normalized = text.replace(' ', "");
    let (sign, body) = match normalized.strip_prefix('-') {
        Some(b) => (-1.0, b.to_string()),
        None => (1.0, normalized),
    };
    if body == "pi" {
        return Ok(sign * pi);
    }
    if let Some(denominator) = body.strip_prefix("pi/") {
        if let Ok(d) = denominator.parse::<f64>() {
            return Ok(sign * pi / d);
        }
    }
    if let Some(factor) = body.strip_suffix("*pi") {
        if let Ok(k) = factor.parse::<f64>() {
            return Ok(sign * k * pi);
        }
    }
    Err(ParseQasmError::new(
        line,
        format!("cannot parse angle {text}"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_qasm;

    #[test]
    fn parses_simple_program() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[3];
            creg c[3];
            h q[0];
            cx q[0],q[1];
            rz(0.25) q[2];
            cp(0.5) q[1],q[2];
            measure q[0] -> c[0];
        "#;
        let c = from_qasm(src).unwrap();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.len(), 5);
        assert_eq!(c.operations()[0].gate(), Gate::H);
        assert_eq!(c.operations()[1].gate(), Gate::Cx);
        assert_eq!(c.operations()[2].gate(), Gate::Rz(0.25));
        assert_eq!(c.operations()[4].gate(), Gate::Measure);
    }

    #[test]
    fn parses_pi_expressions() {
        let src = "qreg q[1]; rz(pi) q[0]; rz(pi/2) q[0]; rz(-pi/4) q[0]; rz(2*pi) q[0];";
        let c = from_qasm(src).unwrap();
        let angles: Vec<f64> = c
            .operations()
            .iter()
            .filter_map(|op| op.gate().param())
            .collect();
        let pi = std::f64::consts::PI;
        assert_eq!(angles, vec![pi, pi / 2.0, -pi / 4.0, 2.0 * pi]);
    }

    #[test]
    fn strips_comments_and_blank_lines() {
        let src = "// header\nqreg q[2];\n\nh q[0]; // superpose\ncx q[0],q[1];";
        let c = from_qasm(src).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn export_import_round_trip_preserves_structure() {
        let mut original = Circuit::new(4);
        original
            .h(0)
            .x(1)
            .s(2)
            .t(3)
            .rx(0, 0.1)
            .ry(1, 0.2)
            .rz(2, 0.3)
            .p(3, 0.4);
        original
            .cx(0, 1)
            .cz(1, 2)
            .cp(2, 3, 0.5)
            .swap(0, 3)
            .measure(1);
        let round = from_qasm(&to_qasm(&original)).unwrap();
        // rzz is absent, so everything maps 1:1.
        assert_eq!(round.len(), original.len());
        for (a, b) in original.operations().iter().zip(round.operations()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rzz_round_trips_as_itself() {
        let mut original = Circuit::new(2);
        original.rzz(0, 1, 0.7);
        let round = from_qasm(&to_qasm(&original)).unwrap();
        assert_eq!(round.operations(), original.operations());
        assert_eq!(round.fingerprint(), original.fingerprint());
    }

    #[test]
    fn single_line_gate_definitions_are_skipped() {
        let src =
            "gate rzz(theta) a,b { cx a,b; rz(theta) b; cx a,b; }\nqreg q[2];\nrzz(0.5) q[0],q[1];";
        let c = from_qasm(src).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.operations()[0].gate(), Gate::Rzz(0.5));
    }

    #[test]
    fn multi_line_gate_definitions_are_rejected_with_the_line() {
        let err = from_qasm("qreg q[1];\ngate foo a {\n  h a;\n}").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.message().contains("one line"), "{err}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = from_qasm("qreg q[2];\nfrobnicate q[0];").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("frobnicate"));
        assert_eq!(err.message(), "unsupported gate frobnicate");
    }

    #[test]
    fn truncated_header_pins_its_line() {
        // The qreg statement is cut off mid-bracket: the declaration on
        // line 3 is malformed, and the error says so by line number.
        let err = from_qasm("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[").unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(err.message().contains("malformed qreg"), "{err}");
        // Truncated mid-size is equally pinned.
        let err = from_qasm("qreg q[12").unwrap_err();
        assert_eq!(err.line(), 1);
    }

    #[test]
    fn unknown_gate_pins_its_line() {
        let err = from_qasm("qreg q[3];\nh q[0];\ncrz(0.5) q[0],q[1];").unwrap_err();
        assert_eq!(err.line(), 3);
        assert_eq!(err.message(), "unsupported gate crz");
    }

    #[test]
    fn out_of_range_qubit_pins_its_line() {
        let err = from_qasm("qreg q[2];\n\ncx q[0],q[5];").unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(err.message().contains("out of range"), "{err}");
    }

    #[test]
    fn parameter_mismatches_are_specific() {
        let err = from_qasm("qreg q[2]; h(0.5) q[0];").unwrap_err();
        assert_eq!(err.message(), "gate h takes no parameter");
        let err = from_qasm("qreg q[2]; rz q[0];").unwrap_err();
        assert_eq!(err.message(), "gate rz needs an angle parameter");
    }

    #[test]
    fn rejects_gate_before_qreg() {
        let err = from_qasm("h q[0];").unwrap_err();
        assert!(err.to_string().contains("before qreg"));
    }

    #[test]
    fn rejects_out_of_range_qubits() {
        let err = from_qasm("qreg q[2]; cx q[0],q[5];").unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn rejects_duplicate_qreg() {
        let err = from_qasm("qreg q[2]; qreg r[2];").unwrap_err();
        assert!(err.to_string().contains("multiple qreg"));
    }

    #[test]
    fn no_qreg_is_an_error() {
        assert!(from_qasm("OPENQASM 2.0;").is_err());
    }
}

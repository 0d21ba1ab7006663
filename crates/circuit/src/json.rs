//! Structured JSON interchange for circuits.
//!
//! This is the "no parser required" half of the wire front door: where
//! [`to_qasm`](crate::to_qasm)/[`from_qasm`](crate::from_qasm) speak the
//! OpenQASM 2.0 interchange text, [`Circuit::to_json`] and
//! [`Circuit::from_json`] speak the workspace's own JSON tree, so a
//! client that already builds JSON (the `dqc-served` protocol, external
//! tooling) can submit circuits without either linking this crate or
//! printing QASM.
//!
//! The layout is deliberately minimal and self-describing:
//!
//! ```json
//! {
//!   "num_qubits": 3,
//!   "ops": [
//!     {"gate": "h", "qubits": [0]},
//!     {"gate": "cx", "qubits": [0, 1]},
//!     {"gate": "rzz", "param": 0.5, "qubits": [1, 2]}
//!   ]
//! }
//! ```
//!
//! `param` is present exactly for parameterized gates (rotations and the
//! phase family); a `null` is accepted as absent. Both directions are
//! exact: angles travel through the round-trip-exact float writer in
//! `dqc-types`, so `from_json(to_json(c))` reproduces `c` — including
//! [`Circuit::fingerprint`] — bit for bit.

use crate::{Circuit, Gate, MAX_QUBITS};
use dqc_types::{Json, JsonError, QubitId};

impl Circuit {
    /// Serializes the circuit as a structured JSON document.
    ///
    /// # Examples
    ///
    /// ```
    /// use dqc_circuit::Circuit;
    ///
    /// let mut c = Circuit::new(2);
    /// c.h(0).cx(0, 1);
    /// let doc = c.to_json();
    /// let back = Circuit::from_json(&doc).unwrap();
    /// assert_eq!(back.fingerprint(), c.fingerprint());
    /// ```
    pub fn to_json(&self) -> Json {
        let ops: Vec<Json> = self
            .operations()
            .iter()
            .map(|op| {
                let qubits: Vec<Json> = op
                    .qubits()
                    .iter()
                    .map(|q| Json::from(q.index() as usize))
                    .collect();
                let mut members = vec![("gate", Json::from(op.gate().name()))];
                if let Some(theta) = op.gate().param() {
                    members.push(("param", Json::float(theta)));
                }
                members.push(("qubits", Json::Array(qubits)));
                Json::object(members)
            })
            .collect();
        Json::object([
            ("num_qubits", Json::from(self.num_qubits() as usize)),
            ("ops", Json::Array(ops)),
        ])
    }

    /// Reads a circuit back from [`Circuit::to_json`] output (or any
    /// document in the same layout).
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field, an unknown
    /// gate mnemonic, a parameter mismatch (an angle on a discrete gate
    /// or a rotation without one), or an operand list the circuit
    /// rejects (out-of-range or duplicate qubits, wrong arity). The
    /// message names the offending op index. A `num_qubits` above
    /// [`MAX_QUBITS`] is a schema error too.
    pub fn from_json(json: &Json) -> Result<Circuit, JsonError> {
        let num_qubits = json.usize_field("num_qubits")?;
        let num_qubits = u32::try_from(num_qubits)
            .ok()
            .filter(|&n| n <= MAX_QUBITS)
            .ok_or_else(|| {
                JsonError::schema(format!(
                    "field `num_qubits`: register of {num_qubits} qubits exceeds the limit of {MAX_QUBITS}"
                ))
            })?;
        let mut circuit = Circuit::new(num_qubits);
        for (i, op) in json.array_field("ops")?.iter().enumerate() {
            let bad = |message: String| JsonError::schema(format!("op {i}: {message}"));
            let name = op
                .str_field("gate")
                .map_err(|e| bad(format!("{e} (expected a gate mnemonic)")))?;
            let param = match op.get("param") {
                None | Some(Json::Null) => None,
                Some(value) => Some(
                    value
                        .as_f64()
                        .ok_or_else(|| bad(format!("`param` must be a number for `{name}`")))?,
                ),
            };
            let gate = Gate::from_name(name, param).ok_or_else(|| {
                bad(match param {
                    _ if Gate::from_name(name, None).is_none()
                        && Gate::from_name(name, Some(0.0)).is_none() =>
                    {
                        format!("unknown gate `{name}`")
                    }
                    Some(_) => format!("gate `{name}` takes no `param`"),
                    None => format!("gate `{name}` needs a `param` angle"),
                })
            })?;
            let qubits: Vec<QubitId> = op
                .array_field("qubits")
                .map_err(|e| bad(e.to_string()))?
                .iter()
                .map(|q| {
                    q.as_u64()
                        .and_then(|v| u32::try_from(v).ok())
                        .map(QubitId::new)
                        .ok_or_else(|| bad(format!("`qubits` of `{name}` must be small integers")))
                })
                .collect::<Result<_, _>>()?;
            circuit
                .push(gate, &qubits)
                .map_err(|e| bad(e.to_string()))?;
        }
        Ok(circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kitchen_sink() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0)
            .x(1)
            .s(2)
            .t(3)
            .rx(0, 0.1)
            .ry(1, -0.2)
            .rz(2, 0.3)
            .p(3, 0.4);
        c.cx(0, 1)
            .cz(1, 2)
            .cp(2, 3, 0.5)
            .rzz(0, 3, -1.25e-3)
            .swap(0, 2)
            .measure(1);
        c
    }

    #[test]
    fn round_trip_is_exact() {
        let original = kitchen_sink();
        let back = Circuit::from_json(&original.to_json()).unwrap();
        assert_eq!(back.num_qubits(), original.num_qubits());
        assert_eq!(back.operations(), original.operations());
        assert_eq!(back.fingerprint(), original.fingerprint());
    }

    #[test]
    fn round_trip_survives_text_serialization() {
        let original = kitchen_sink();
        let text = original.to_json().to_compact_string();
        let back = Circuit::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.fingerprint(), original.fingerprint());
    }

    #[test]
    fn param_is_emitted_only_for_parameterized_gates() {
        let mut c = Circuit::new(2);
        c.h(0).rz(1, 0.5);
        let ops = c
            .to_json()
            .field("ops")
            .unwrap()
            .as_array()
            .unwrap()
            .to_vec();
        assert!(ops[0].get("param").is_none());
        assert_eq!(ops[1].get("param").and_then(Json::as_f64), Some(0.5));
    }

    #[test]
    fn null_param_reads_as_absent() {
        let doc = Json::parse(
            r#"{"num_qubits": 1, "ops": [{"gate": "h", "param": null, "qubits": [0]}]}"#,
        )
        .unwrap();
        let c = Circuit::from_json(&doc).unwrap();
        assert_eq!(c.operations()[0].gate(), Gate::H);
    }

    #[test]
    fn errors_name_the_offending_op() {
        let cases = [
            (
                r#"{"num_qubits": 2, "ops": [{"gate": "warp", "qubits": [0]}]}"#,
                "unknown gate `warp`",
            ),
            (
                r#"{"num_qubits": 2, "ops": [{"gate": "h", "param": 0.5, "qubits": [0]}]}"#,
                "takes no `param`",
            ),
            (
                r#"{"num_qubits": 2, "ops": [{"gate": "rz", "qubits": [0]}]}"#,
                "needs a `param`",
            ),
            (
                r#"{"num_qubits": 2, "ops": [{"gate": "cx", "qubits": [0, 5]}]}"#,
                "out of range",
            ),
            (
                r#"{"num_qubits": 2, "ops": [{"gate": "cx", "qubits": [1]}]}"#,
                "operand",
            ),
        ];
        for (text, needle) in cases {
            let err = Circuit::from_json(&Json::parse(text).unwrap()).unwrap_err();
            let message = err.to_string();
            assert!(message.contains("op 0"), "{message}");
            assert!(message.contains(needle), "{message} missing {needle}");
        }
    }

    #[test]
    fn registers_wider_than_the_limit_are_schema_errors() {
        let doc = |n: u64| Json::parse(&format!(r#"{{"num_qubits": {n}, "ops": []}}"#)).unwrap();
        let widest = Circuit::from_json(&doc(u64::from(MAX_QUBITS))).unwrap();
        assert_eq!(widest.num_qubits(), MAX_QUBITS);
        for n in [u64::from(MAX_QUBITS) + 1, 4_294_967_295, 1 << 40] {
            match Circuit::from_json(&doc(n)) {
                Err(JsonError::Schema { message }) => {
                    assert!(message.contains("exceeds the limit"), "{message}");
                }
                other => panic!("num_qubits {n}: expected a schema error, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_top_level_fields_are_schema_errors() {
        assert!(Circuit::from_json(&Json::parse(r#"{"ops": []}"#).unwrap()).is_err());
        assert!(Circuit::from_json(&Json::parse(r#"{"num_qubits": 2}"#).unwrap()).is_err());
    }
}

//! The typed co-design space.
//!
//! A [`DesignSpace`] is a base [`SystemConfig`] plus a list of typed
//! [`Axis`] declarations — the cartesian product of their candidate
//! values is the set of *design points* the paper's co-design loop
//! searches. [`DesignSpace::realize`] turns a point into a concrete
//! [`Scenario`] (configuration + design); the `dqc-codesign` search
//! evaluates the realized points through the compile-once grid engine
//! ([`crate::GridPlan`]) and keys every result by a structured
//! [`crate::ScenarioKey`].
//!
//! # Examples
//!
//! ```
//! use dqc_core::{Design, DesignSpace, SystemConfig};
//!
//! # fn main() -> Result<(), dqc_core::DqcError> {
//! let space = DesignSpace::new(SystemConfig::paper_two_node_32())
//!     .comm_and_buffer(&[5, 10])
//!     .designs(&[Design::AsyncBuf, Design::AdaptBuf]);
//! space.validate()?;
//! assert_eq!(space.len(), 4);
//!
//! // Row-major: the first axis varies slowest.
//! let scenario = space.realize(&space.point(3)?);
//! assert_eq!(scenario.config.comm_qubits_per_node, 10);
//! assert_eq!(scenario.design, Design::AdaptBuf);
//! # Ok(())
//! # }
//! ```

use crate::{
    Axis, AxisValue, Backend, Design, DqcError, PartitionStrategy, RemoteProtocol, SystemConfig,
};
use dqc_entanglement::TopologyFamily;
use dqc_types::{AxisId, Tick};

/// A typed hardware/software design space: a base configuration plus the
/// axes being searched over.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    base: SystemConfig,
    axes: Vec<Axis>,
}

/// One point of a [`DesignSpace`]: its flat index plus the typed
/// coordinate on every axis, in axis order.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Flat index in `0 .. space.len()`, row-major (first axis slowest).
    pub index: usize,
    /// One coordinate per axis, in axis order.
    pub values: Vec<AxisValue>,
}

/// A realized design point: the concrete system configuration and the
/// software design to execute on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The fully applied system configuration (hardware point).
    pub config: SystemConfig,
    /// The architecture design to run ([`Design::AdaptBuf`] — the paper's
    /// proposal — when the space has no design axis).
    pub design: Design,
}

impl DesignSpace {
    /// Starts a space around `base` with no axes — a single-point space
    /// evaluating `base` itself.
    pub fn new(base: SystemConfig) -> Self {
        Self {
            base,
            axes: Vec::new(),
        }
    }

    /// The base configuration every point is derived from.
    pub fn base(&self) -> &SystemConfig {
        &self.base
    }

    /// The declared axes, in declaration order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Adds one typed axis.
    #[must_use]
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Adds an initial-EPR-fidelity axis.
    #[must_use]
    pub fn epr_fidelities(self, values: &[f64]) -> Self {
        self.axis(Axis::EprFidelity(values.to_vec()))
    }

    /// Adds a κ-per-tick axis.
    #[must_use]
    pub fn kappas(self, values: &[f64]) -> Self {
        self.axis(Axis::Kappa(values.to_vec()))
    }

    /// Adds an EPR-attempt-cycle latency axis.
    #[must_use]
    pub fn epr_cycles(self, values: &[Tick]) -> Self {
        self.axis(Axis::EprCycle(values.to_vec()))
    }

    /// Adds a communication-qubits-per-node axis.
    #[must_use]
    pub fn comm_qubits(self, values: &[usize]) -> Self {
        self.axis(Axis::CommQubits(values.to_vec()))
    }

    /// Adds a buffer-qubits-per-node axis.
    #[must_use]
    pub fn buffer_qubits(self, values: &[usize]) -> Self {
        self.axis(Axis::BufferQubits(values.to_vec()))
    }

    /// Adds a linked communication+buffer axis (both counts set to the
    /// same value — the paper's Fig. 7 convention).
    #[must_use]
    pub fn comm_and_buffer(self, values: &[usize]) -> Self {
        self.axis(Axis::CommAndBuffer(values.to_vec()))
    }

    /// Adds a network-topology axis.
    #[must_use]
    pub fn topologies(self, values: &[TopologyFamily]) -> Self {
        self.axis(Axis::Topology(values.to_vec()))
    }

    /// Adds an architecture-design axis.
    #[must_use]
    pub fn designs(self, values: &[Design]) -> Self {
        self.axis(Axis::Design(values.to_vec()))
    }

    /// Adds a remote-gate-protocol axis.
    #[must_use]
    pub fn protocols(self, values: &[RemoteProtocol]) -> Self {
        self.axis(Axis::Protocol(values.to_vec()))
    }

    /// Adds a partitioner axis.
    #[must_use]
    pub fn partitioners(self, values: &[PartitionStrategy]) -> Self {
        self.axis(Axis::Partitioner(values.to_vec()))
    }

    /// Adds a simulation-backend axis.
    #[must_use]
    pub fn backends(self, values: &[Backend]) -> Self {
        self.axis(Axis::Backend(values.to_vec()))
    }

    /// Number of points: the product of the axis lengths (1 for an
    /// axis-free space, 0 when any axis is empty).
    pub fn len(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// Whether the space contains no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks the declaration for empty axes, duplicate axis ids, and
    /// axes that set the same underlying knob (the linked
    /// `comm_and_buffer` axis conflicts with `comm_qubits` and
    /// `buffer_qubits` — combining them would let one coordinate
    /// silently overwrite the other, leaving scenario keys that
    /// misdescribe the realized configuration).
    ///
    /// # Errors
    ///
    /// [`DqcError::EmptySweep`] naming the empty axis,
    /// [`DqcError::DuplicateAxis`] naming the repeated one, or
    /// [`DqcError::ConflictingAxes`] naming the overlapping pair.
    pub fn validate(&self) -> Result<(), DqcError> {
        let conflicts = |a: AxisId, b: AxisId| {
            a == AxisId::CommAndBuffer && matches!(b, AxisId::CommQubits | AxisId::BufferQubits)
        };
        for (i, axis) in self.axes.iter().enumerate() {
            if axis.is_empty() {
                return Err(DqcError::EmptySweep {
                    axis: axis.id().name(),
                });
            }
            for prior in &self.axes[..i] {
                if prior.id() == axis.id() {
                    return Err(DqcError::DuplicateAxis {
                        axis: axis.id().name(),
                    });
                }
                if conflicts(prior.id(), axis.id()) || conflicts(axis.id(), prior.id()) {
                    return Err(DqcError::ConflictingAxes {
                        first: prior.id().name(),
                        second: axis.id().name(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Decodes the point at `index` (row-major: the first axis varies
    /// slowest).
    ///
    /// # Errors
    ///
    /// [`DqcError::PointOutOfRange`] when `index >= self.len()`.
    pub fn point(&self, index: usize) -> Result<DesignPoint, DqcError> {
        let len = self.len();
        if index >= len {
            return Err(DqcError::PointOutOfRange { index, len });
        }
        let mut values = vec![None; self.axes.len()];
        let mut rest = index;
        for (slot, axis) in values.iter_mut().zip(&self.axes).rev() {
            *slot = Some(axis.value(rest % axis.len()));
            rest /= axis.len();
        }
        Ok(DesignPoint {
            index,
            values: values.into_iter().map(Option::unwrap).collect(),
        })
    }

    /// Iterates every point in index order.
    pub fn points(&self) -> impl Iterator<Item = DesignPoint> + '_ {
        (0..self.len()).map(|i| self.point(i).expect("index bounded by len"))
    }

    /// Applies a point's coordinates to the base configuration.
    pub fn realize(&self, point: &DesignPoint) -> Scenario {
        let mut config = self.base.clone();
        let mut design = Design::AdaptBuf;
        for value in &point.values {
            match *value {
                AxisValue::EprFidelity(f) => config.fidelities.epr = f,
                AxisValue::Kappa(k) => config.kappa_per_tick = k,
                AxisValue::EprCycle(t) => config.latencies.epr_cycle = t,
                AxisValue::CommQubits(n) => config.comm_qubits_per_node = n,
                AxisValue::BufferQubits(n) => config.buffer_qubits_per_node = n,
                AxisValue::CommAndBuffer(n) => {
                    config.comm_qubits_per_node = n;
                    config.buffer_qubits_per_node = n;
                }
                AxisValue::Topology(family) => config = config.with_topology(family.build()),
                AxisValue::Design(d) => design = d,
                AxisValue::Protocol(p) => config.remote_protocol = p,
                AxisValue::Partitioner(s) => config.partitioner = s,
                AxisValue::Backend(b) => config.backend = b,
            }
        }
        Scenario { config, design }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SystemConfig {
        SystemConfig::paper_two_node_32()
    }

    #[test]
    fn point_decoding_is_row_major() {
        let space = DesignSpace::new(base())
            .comm_and_buffer(&[5, 10])
            .designs(&[Design::Original, Design::AsyncBuf, Design::AdaptBuf]);
        assert_eq!(space.len(), 6);
        let p = space.point(4).unwrap();
        assert_eq!(
            p.values,
            vec![
                AxisValue::CommAndBuffer(10),
                AxisValue::Design(Design::AsyncBuf)
            ]
        );
        let all: Vec<usize> = space.points().map(|p| p.index).collect();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
        assert_eq!(
            space.point(6).unwrap_err(),
            DqcError::PointOutOfRange { index: 6, len: 6 }
        );
    }

    #[test]
    fn axis_free_space_is_the_base_point() {
        let space = DesignSpace::new(base());
        assert_eq!(space.len(), 1);
        let scenario = space.realize(&space.point(0).unwrap());
        assert_eq!(scenario.config, base());
        assert_eq!(scenario.design, Design::AdaptBuf, "paper default");
    }

    #[test]
    fn realize_applies_every_axis_kind() {
        let space = DesignSpace::new(base())
            .epr_fidelities(&[0.95])
            .kappas(&[1e-3])
            .epr_cycles(&[Tick::new(200)])
            .comm_and_buffer(&[7])
            .topologies(&[TopologyFamily::Chain { nodes: 4 }])
            .designs(&[Design::SyncBuf])
            .protocols(&[RemoteProtocol::StateTeleport])
            .partitioners(&[PartitionStrategy::Unweighted])
            .backends(&[Backend::Auto]);
        let scenario = space.realize(&space.point(0).unwrap());
        assert_eq!(scenario.config.fidelities.epr, 0.95);
        assert_eq!(scenario.config.kappa_per_tick, 1e-3);
        assert_eq!(scenario.config.latencies.epr_cycle, Tick::new(200));
        assert_eq!(scenario.config.comm_qubits_per_node, 7);
        assert_eq!(scenario.config.buffer_qubits_per_node, 7);
        assert_eq!(scenario.config.num_nodes, 4);
        assert_eq!(
            scenario.config.remote_protocol,
            RemoteProtocol::StateTeleport
        );
        assert_eq!(scenario.config.partitioner, PartitionStrategy::Unweighted);
        assert_eq!(scenario.config.backend, Backend::Auto);
        assert_eq!(scenario.design, Design::SyncBuf);
    }

    #[test]
    fn validation_catches_empty_and_duplicate_axes() {
        let empty = DesignSpace::new(base()).designs(&[]);
        assert_eq!(
            empty.validate().unwrap_err(),
            DqcError::EmptySweep { axis: "design" }
        );
        let dup = DesignSpace::new(base())
            .comm_qubits(&[5])
            .comm_qubits(&[10]);
        assert_eq!(
            dup.validate().unwrap_err(),
            DqcError::DuplicateAxis {
                axis: "comm_qubits"
            }
        );
        // The linked comm+buffer axis overlaps either split axis: one
        // coordinate would silently overwrite the other at realize time.
        for conflicted in [
            DesignSpace::new(base())
                .comm_qubits(&[4, 8])
                .comm_and_buffer(&[10]),
            DesignSpace::new(base())
                .comm_and_buffer(&[10])
                .buffer_qubits(&[4]),
        ] {
            assert!(
                matches!(
                    conflicted.validate().unwrap_err(),
                    DqcError::ConflictingAxes { .. }
                ),
                "{conflicted:?}"
            );
        }
        // The split axes together are fine — they set different knobs.
        DesignSpace::new(base())
            .comm_qubits(&[4, 8])
            .buffer_qubits(&[4, 8])
            .validate()
            .unwrap();
    }

    #[test]
    fn software_only_axes_share_one_compilation() {
        // Design-axis neighbours realize to the same hardware point, so
        // the grid engine compiles the circuit once for all of them.
        let space = DesignSpace::new(base()).designs(&[
            Design::Original,
            Design::AsyncBuf,
            Design::AdaptBuf,
        ]);
        let scenarios: Vec<Scenario> = space.points().map(|p| space.realize(&p)).collect();
        assert_eq!(scenarios.len(), 3);
        assert!(scenarios.iter().all(|s| s.config == base()));
        let designs: Vec<Design> = scenarios.iter().map(|s| s.design).collect();
        let result = crate::Sweep::new()
            .benchmark(dqc_workloads::PaperBenchmark::Tlim32)
            .config("base", scenarios[0].config.clone())
            .designs(&designs)
            .runs(2)
            .run()
            .unwrap();
        assert_eq!(result.cells.len(), 3);
        assert_eq!(result.compilations, 1, "one hardware point");
        for (cell, design) in result.cells.iter().zip(&designs) {
            assert_eq!(cell.circuit, "TLIM-32");
            assert_eq!(cell.design, *design);
            assert_eq!(cell.report.design, *design);
        }
    }
}

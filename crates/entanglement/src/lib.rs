//! Discrete-event simulation of heralded remote entanglement generation.
//!
//! This crate models the hardware side of the paper's co-design (§III):
//!
//! * [`EntangledLink`] — a heralded Werner pair with the idling decay law
//!   `F(t) = F₀·e^{−2κt} + (1 − e^{−2κt})/4`.
//! * [`GenerationPattern`] — synchronous (bursty) vs asynchronous
//!   (staggered sub-group) attempt scheduling, the paper's Fig. 3.
//! * [`CutoffPolicy`] / [`ConsumeOrder`] — buffer management knobs.
//! * [`EntanglementService`] — the full service: communication-qubit pairs
//!   attempting every `T_EG`, successes swapped into buffer qubits (or
//!   pinning their pair when no buffer exists — the `original` design),
//!   pre-initialization for `init_buf`, and consumption by remote gates.
//! * [`NetworkTopology`] / [`RoutingTable`] — the inter-node device graph
//!   (chain, ring, grid, star, heavy-hex, all-to-all, or arbitrary edge
//!   lists with per-edge [`LinkParams`]) and deterministic shortest-path
//!   routing with [`swap_chain_fidelity`] composition for multi-hop
//!   entanglement.
//!
//! # Examples
//!
//! ```
//! use dqc_entanglement::{EntanglementService, GenerationPattern, ServiceConfig};
//! use dqc_types::Tick;
//!
//! let config = ServiceConfig {
//!     pattern: GenerationPattern::Asynchronous { groups: 10 },
//!     ..ServiceConfig::default()
//! };
//! let mut service = EntanglementService::new(config, 42);
//! let when = service.time_of_next_available(Tick::ZERO);
//! let link = service.try_take(when).expect("link available");
//! println!("first link after {when}: fidelity {:.4}", link.fidelity);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod link;
mod policy;
mod routing;
mod service;
mod topology;

pub use link::EntangledLink;
pub use policy::{ConsumeOrder, CutoffPolicy, GenerationPattern};
pub use routing::{swap_chain_fidelity, swap_chain_fidelity_of, Route, RoutingTable};
pub use service::{EntanglementService, ServiceConfig, ServiceStats, TakenLink};
pub use topology::{LinkParams, NetworkTopology, TopologyFamily};

//! Fault-graph representation for INDaaS independence auditing.
//!
//! INDaaS adapts classic fault-tree analysis to a directed acyclic graph and
//! supports three levels of detail (§4.1.1, Figure 4):
//!
//! * **component-set** — each data source is a flat set of component names;
//!   only *shared* components matter ([`detail::ComponentSet`]),
//! * **fault-set** — components additionally carry failure probabilities
//!   ([`detail::FaultSet`]),
//! * **fault graph** — arbitrary AND/OR/k-of-n structure with internal
//!   redundancy ([`FaultGraph`]).
//!
//! A fault graph is evaluated bottom-up: basic events are assigned
//! fail/not-fail, gates propagate failures, and the *top event* represents
//! the failure of the whole redundancy deployment.
//!
//! # Examples
//!
//! Figure 4(a) of the paper — two systems E1 = {A1, A2}, E2 = {A2, A3}
//! deployed redundantly:
//!
//! ```
//! use indaas_graph::{FaultGraphBuilder, Gate};
//!
//! let mut b = FaultGraphBuilder::new();
//! let a1 = b.basic("A1", None);
//! let a2 = b.basic("A2", None);
//! let a3 = b.basic("A3", None);
//! let e1 = b.gate("E1 fails", Gate::Or, vec![a1, a2]);
//! let e2 = b.gate("E2 fails", Gate::Or, vec![a2, a3]);
//! let top = b.gate("deployment fails", Gate::And, vec![e1, e2]);
//! let g = b.build(top).unwrap();
//!
//! // A2 alone takes the deployment down: it is a shared dependency.
//! assert!(g.evaluate_named(&["A2"]).unwrap());
//! // A1 alone does not (E2 still up).
//! assert!(!g.evaluate_named(&["A1"]).unwrap());
//! ```

#![forbid(unsafe_code)]

pub mod cancel;
pub mod compose;
pub mod detail;
pub mod dot;
mod graph;

pub use cancel::{CancelToken, Cancelled};
pub use compose::compose;
pub use detail::{ComponentSet, FaultSet};
pub use dot::to_dot;
pub use graph::{FaultGraph, FaultGraphBuilder, Gate, GraphError, IncrementalEval, Node, NodeId};

//! Structural independence auditing (SIA, §4.1 of the paper).
//!
//! Given full dependency data in a [`indaas_deps::DepDb`], SIA:
//!
//! 1. builds an explicit *fault graph* for the audited redundancy
//!    deployment ([`builder`], §4.1.1 steps 1–6),
//! 2. determines *risk groups* — sets of basic failures that take the whole
//!    deployment down — with either the exact [`minimal`] cut-set algorithm
//!    or the scalable Monte-Carlo [`sampling`] algorithm (§4.1.2). An
//!    exact audit is [`compose`]d: each server's family is computed once
//!    per version of its records and kept in a [`FamilyMemo`], and the
//!    deployment's family is the MOCUS of a reduced graph — one OR of the
//!    family's rows per server under the same k-of-n gate — whose events
//!    keep the full graph's relative id order, so ranking and report are
//!    the full graph's byte for byte,
//! 3. ranks the risk groups by size or failure probability ([`ranking`],
//!    §4.1.3), and
//! 4. renders an auditing report with per-deployment independence scores
//!    ([`report`], §4.1.4).
//!
//! # Examples
//!
//! Auditing Figure 4(a)'s two-system deployment end to end:
//!
//! ```
//! use indaas_graph::detail::{component_sets_to_graph, ComponentSet};
//! use indaas_sia::minimal::{minimal_risk_groups, MinimalConfig};
//!
//! let sets = vec![
//!     ComponentSet::new("E1", ["A1", "A2"]),
//!     ComponentSet::new("E2", ["A2", "A3"]),
//! ];
//! let graph = component_sets_to_graph(&sets).unwrap();
//! let rgs = minimal_risk_groups(&graph, &MinimalConfig::default());
//! let named = rgs.to_named(&graph);
//! // The minimal risk groups are {A2} and {A1, A3}.
//! assert_eq!(named.len(), 2);
//! assert!(named.contains(&vec!["A2".to_string()]));
//! assert!(named.contains(&vec!["A1".to_string(), "A3".to_string()]));
//! ```

#![forbid(unsafe_code)]

pub mod bdd;
pub mod builder;
pub mod compose;
pub mod minimal;
pub mod ranking;
pub mod report;
pub mod riskgroup;
pub mod sampling;

pub use bdd::{Bdd, BddError};
pub use builder::{build_fault_graph, BuildError, BuildSpec};
pub use compose::{compose_minimal, ComposeError, Composed, FamilyMemo};
pub use minimal::{
    minimal_child_families, minimal_risk_groups, minimal_risk_groups_cancellable, MinimalConfig,
    MinimalError,
};
pub use ranking::{rank_by_probability, rank_by_size, top_event_probability};
pub use report::{AuditReport, DeploymentAudit, RankedRg, ScoreKind};
pub use riskgroup::{RgFamily, RiskGroup};
pub use sampling::{failure_sampling, failure_sampling_cancellable, SamplingConfig};

//! INDaaS orchestration: the auditing agent, client specifications and
//! end-to-end workflows (§2, Figure 1 of the paper).
//!
//! The three roles of the architecture:
//!
//! * the **auditing client** specifies what to audit — candidate redundancy
//!   deployments, dependency categories, the independence metric
//!   ([`spec::AuditSpec`]);
//! * **dependency data sources** run acquisition modules and feed a
//!   [`indaas_deps::DepDb`];
//! * the **auditing agent** ([`agent::AuditingAgent`]) mediates: it builds
//!   fault graphs, runs the risk-group algorithms, ranks deployments and
//!   returns an auditing report — or, in the private (PIA) case, supervises
//!   the P-SOP protocol across providers without seeing their data.
//!
//! # Examples
//!
//! ```
//! use indaas_core::{AuditSpec, AuditingAgent, CandidateDeployment, RgAlgorithm};
//! use indaas_deps::{parse_records, DepDb};
//!
//! let db = DepDb::from_records(parse_records(r#"
//!     <src="S1" dst="Internet" route="ToR1,Core1"/>
//!     <src="S2" dst="Internet" route="ToR1,Core2"/>
//!     <src="S3" dst="Internet" route="ToR9,Core9"/>
//! "#).unwrap());
//! let agent = AuditingAgent::new(db);
//! let spec = AuditSpec::sia_size_based(vec![
//!     CandidateDeployment::replicated("S1+S2", ["S1", "S2"]),
//!     CandidateDeployment::replicated("S1+S3", ["S1", "S3"]),
//! ]);
//! let report = agent.audit_sia(&spec).unwrap();
//! // S1+S2 share ToR1; S1+S3 share nothing — the audit prefers S1+S3.
//! assert_eq!(report.best().unwrap().name, "S1+S3");
//! ```

#![forbid(unsafe_code)]

pub mod agent;
pub mod spec;

pub use agent::{AuditError, AuditingAgent, StageObserver, WhatIfOutcome};
pub use indaas_graph::{CancelToken, Cancelled};
pub use spec::{AuditSpec, CandidateDeployment, RankingMetric, RgAlgorithm};

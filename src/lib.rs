//! INDaaS — Independence-as-a-Service.
//!
//! Umbrella crate re-exporting the whole INDaaS workspace: proactive
//! auditing of correlated-failure risk in redundant cloud deployments, a
//! Rust reproduction of Zhai et al., OSDI 2014.
//!
//! The typical entry points are:
//!
//! * [`core`] — the auditing agent/client orchestration layer,
//! * [`sia`] — structural independence auditing (fault graphs, risk groups),
//! * [`pia`] — private independence auditing (Jaccard, MinHash, P-SOP).

#![forbid(unsafe_code)]

pub use indaas_bigint as bigint;
pub use indaas_core as core;
pub use indaas_crypto as crypto;
pub use indaas_deps as deps;
pub use indaas_faultinj as faultinj;
pub use indaas_graph as graph;
pub use indaas_obs as obs;
pub use indaas_pia as pia;
pub use indaas_service as service;
pub use indaas_sia as sia;
pub use indaas_simnet as simnet;
pub use indaas_topology as topology;

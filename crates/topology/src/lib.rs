//! Topology and workload generators for the INDaaS evaluation.
//!
//! Four generators cover every scenario the paper evaluates:
//!
//! * [`fattree`] — the three-stage fat-tree model behind Table 3 and the
//!   Figure 7 scalability study (topologies A/B/C),
//! * [`benson`] — a Benson-et-al.-style data-center network for the common
//!   network dependency case study (§6.2.1, Figure 6a),
//! * [`iaas_lab`] — the 4-server IaaS lab cloud with OpenStack-like VM
//!   placement for the common hardware dependency case study (§6.2.2,
//!   Figure 6b),
//! * [`clouds`] — four cloud providers running Riak, MongoDB, Redis and
//!   CouchDB for the private multi-cloud software audit (§6.2.3, Figure 6c,
//!   Table 2).
//!
//! Each generator produces ground-truth [`indaas_deps::DependencyRecord`]s
//! in the Table-1 format, which simulated collectors then serve (optionally
//! with misses) to the auditing pipeline.

#![forbid(unsafe_code)]

pub mod benson;
pub mod clouds;
pub mod fattree;
pub mod iaas_lab;

pub use benson::BensonDatacenter;
pub use clouds::{cloud_software_records, CloudStack, STORES};
pub use fattree::{FatTree, FatTreeConfig};
pub use iaas_lab::IaasLab;

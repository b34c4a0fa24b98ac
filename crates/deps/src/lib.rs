//! Dependency acquisition for INDaaS (§3 of the paper).
//!
//! Data sources collect *structural dependency data* — network routes,
//! hardware inventories and software package closures — through pluggable
//! dependency acquisition modules (DAMs), normalize it into the common
//! wire format of Table 1, and store it in a [`DepDb`] for the auditing
//! agent to query.
//!
//! The paper's prototype shells out to NSDMiner, `lshw` and
//! `apt-rdepends`; this reproduction ships *simulated* collectors
//! ([`dam::SimCollector`]) that draw from synthetic ground truth (generated
//! by `indaas-topology`) with a configurable detection miss rate, matching
//! the ~90% dependency coverage the paper reports.
//!
//! The auditing daemon keeps its records in a [`ShardedDepDb`]: sharded
//! by host, one write lock per shard, and snapshots that read each
//! shard's data together with the epoch naming it, so an audit's cache
//! pins are exact. [`persist`] saves that store as one Table-1 segment
//! file per shard and loads it back, quarantining corrupt files.
//!
//! # Examples
//!
//! ```
//! use indaas_deps::{parse_records, DepDb};
//!
//! let text = r#"
//!   <src="S1" dst="Internet" route="ToR1,Core1"/>
//!   <hw="S1" type="CPU" dep="S1-Intel(R)X5550@2.6GHz"/>
//!   <pgm="Riak1" hw="S1" dep="libc6,libsvn1"/>
//! "#;
//! let records = parse_records(text).unwrap();
//! let db = DepDb::from_records(records);
//! assert_eq!(db.network_deps("S1").len(), 1);
//! assert_eq!(db.software_deps("S1")[0].pgm, "Riak1");
//! ```

#![forbid(unsafe_code)]

pub mod dam;
pub mod depdb;
pub mod failprob;
pub mod format;
pub mod persist;
pub mod record;
pub mod sharded;

pub use dam::{DamError, DependencyAcquisitionModule, SimCollector};
pub use depdb::{DepDb, DepRecordRef, DepView, HostLists};
pub use failprob::FailureProbModel;
pub use format::{parse_record, parse_records, FormatError};
pub use persist::{write_atomic, Manifest, MANIFEST_FILE, SEGMENT_FORMAT_VERSION};
pub use record::{DependencyRecord, HardwareDep, NetworkDep, SoftwareDep};
pub use sharded::{
    shard_index, DbSnapshot, Epoch, EpochVector, ShardCounters, ShardedDepDb, ShardedIngestReport,
};

//! Private independence auditing (PIA, §4.2 of the paper).
//!
//! PIA quantifies the independence of redundancy deployments across
//! *mutually distrustful* cloud providers: nobody reveals their component
//! sets, yet everyone learns the Jaccard similarity of the deployments.
//!
//! * [`normalize`] — canonical component identifiers so the same
//!   third-party router or software package hashes identically at every
//!   provider (§4.2.3),
//! * [`jaccard`] — exact Jaccard similarity across k sets (§4.2.2),
//! * [`minhash`] — MinHash compression with m seeded hash functions and the
//!   O(1/√m) estimator (§4.2.2),
//! * [`psop`] — the P-SOP private set-intersection-cardinality protocol
//!   over commutative encryption, run on the simulated network with full
//!   traffic accounting (§4.2.2, §4.2.4),
//! * [`ks`] — a Kissner–Song-style Paillier baseline used by the paper's
//!   Figure 8 comparison (§6.3.2),
//! * [`report`] — ranking candidate redundancy deployments by Jaccard
//!   similarity, as in Table 2 (§4.2.5).

#![forbid(unsafe_code)]

pub mod audit_trail;
pub mod jaccard;
pub mod ks;
pub mod minhash;
pub mod normalize;
pub mod psop;
pub mod report;
pub mod smpc;

pub use audit_trail::{AuditTrail, MetaAuditError, SignedRecord};
pub use jaccard::{jaccard_exact, jaccard_of_pair};
pub use ks::{run_ks, KsConfig, KsOutcome};
pub use minhash::{estimate_jaccard, minhash_signature};
pub use normalize::normalize_component;
pub use psop::{
    check_payload, count_final_lists, outcome_from_counts, run_psop, run_psop_cancellable,
    PsopConfig, PsopError, PsopOutcome, PsopParty, CIPHERTEXT_BYTES,
};
pub use report::{rank_deployments, rank_deployments_cancellable, PiaRanking};
pub use smpc::{run_smpc, SmpcConfig, SmpcOutcome};

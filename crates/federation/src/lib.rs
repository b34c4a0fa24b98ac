//! Federated private independence auditing: the auditing agent of the
//! real multi-party P-SOP exchange between independent `indaas serve`
//! daemons over TCP.
//!
//! The paper's PIA (§4.2) is inherently multi-party — each cloud
//! provider runs its own auditing agent and joins the P-SOP ring without
//! revealing its dependency set. Each daemon plays its party from its
//! readiness loop (`indaas_service::federation`: peer handshakes, the
//! session table, the party state machine and the successor dial); this
//! crate is the other side of the wire:
//!
//! * [`coordinator`] — [`FederationCoordinator`] fans `FederateStart` out
//!   to every daemon, counts the returned k-layer ciphertext lists, and
//!   reassembles per-party traffic into a [`FederatedOutcome`] — degraded
//!   rather than all-or-nothing when a minority of daemons dies;
//! * [`error`] — [`FederationError`], which keeps "the daemon answered
//!   no" apart from "the daemon was unreachable".
//!
//! Because each party's RNG stream is derived independently (see
//! [`indaas_pia::PsopParty`]), a federated audit and an in-process
//! [`indaas_simnet::SimNetwork`] run of the same topology produce
//! identical results and identical per-party byte counts.

#![forbid(unsafe_code)]

pub mod coordinator;
pub mod error;

pub use coordinator::{FederatedOutcome, FederationCoordinator};
pub use error::FederationError;

//! Federated private independence auditing: the real multi-party P-SOP
//! exchange between independent `indaas serve` daemons over TCP.
//!
//! The paper's PIA (§4.2) is inherently multi-party — each cloud
//! provider runs its own auditing agent and joins the P-SOP ring without
//! revealing its dependency set. The reproduction's protocol engines run
//! over the [`indaas_simnet::Transport`] trait; this crate supplies the
//! distributed implementation:
//!
//! * [`session`] — per-session frame mailboxes and the registry routing
//!   incoming peer frames to the party blocked on them;
//! * [`peer`] — outbound peer sessions (`FederateHello` version
//!   handshake, then traced binary round frames) and
//!   [`peer::TcpRoundTransport`], the one-party transport view
//!   `run_psop_party` executes against;
//! * [`registry`] — the peer allow-list behind `serve --peer`;
//! * [`engine`] — the daemon-side [`indaas_service::server::FederationEngine`]:
//!   handshake policy, frame routing, self-connection rejection, and the
//!   blocking party run triggered by a coordinator's `FederateStart`;
//! * [`coordinator`] — the auditing agent: fans `FederateStart` out to
//!   every daemon, counts the returned k-layer ciphertext lists, and
//!   reassembles per-party traffic so Figure 8 cross-checks hold.
//!
//! Every daemon keeps a *single* TCP listener: audit clients and
//! federation peers are told apart by the first line of the connection
//! (a `FederateHello` re-tags it as a peer session). Because each
//! party's RNG stream is derived independently (see
//! [`indaas_pia::PsopParty`]), a federated audit and an in-process
//! [`indaas_simnet::SimNetwork`] run of the same topology produce
//! identical results and identical per-party byte counts.

pub mod coordinator;
pub mod engine;
pub mod error;
pub mod peer;
pub mod registry;
pub mod session;

pub use coordinator::{FederatedOutcome, FederationCoordinator};
pub use engine::{engine, provider_component_set, Federation, MAX_PARTIES};
pub use error::FederationError;
pub use peer::{PeerConn, TcpRoundTransport};
pub use registry::PeerRegistry;
pub use session::{Frame, SessionMailbox, SessionRegistry};

//! The auditing agent of a federated P-SOP run.
//!
//! The coordinator plays party `k`: it instructs each provider daemon to
//! run its ring rounds (`FederateStart`), collects the fully-encrypted
//! lists (`FederateDone`), counts equal ciphertexts, and reassembles the
//! per-party traffic accounting — the same numbers a single-process
//! [`indaas_simnet::SimNetwork`] run of the identical topology reports,
//! which is exactly how the e2e suite cross-checks Figure 8.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use indaas_obs::TraceContext;
use indaas_pia::{check_payload, count_final_lists, outcome_from_counts, PsopConfig, PsopOutcome};
use indaas_service::proto::{decode_payload, Request, Response};
use indaas_service::{Client, ClientError};
use indaas_simnet::TrafficStats;

use crate::error::FederationError;

/// What one daemon reported back for its party.
#[derive(Clone, Debug)]
struct PartyReport {
    payload: Vec<u8>,
    sent_bytes: u64,
    recv_bytes: u64,
    sent_msgs: u64,
    wire_sent_bytes: u64,
}

/// One party that did not complete its rounds, as reported in a
/// degraded [`FederatedOutcome`].
#[derive(Clone, Debug)]
pub struct PartyFailure {
    /// Ring index of the failed party.
    pub index: usize,
    /// The daemon's address, as configured.
    pub peer: String,
    /// What went wrong, human-readable.
    pub error: String,
    /// `true` when the daemon was alive and *answered* with a failure
    /// (a refusal, an empty database, a round deadline); `false` when
    /// it was unreachable — connect failure, dropped connection, or no
    /// answer at all (the "daemon died mid-round" class).
    pub reachable: bool,
}

/// Outcome of a federated private overlap audit.
///
/// A run where every party completed carries the full [`PsopOutcome`];
/// when a strict *minority* of daemons died mid-round the coordinator
/// returns a **degraded** outcome instead of an all-or-nothing error —
/// `psop` is `None` (the counting step needs every final list),
/// `parties_failed` names each party that did not complete and whether
/// it was reachable, and the surviving ring state is preserved for the
/// caller to report. [`FederatedOutcome::degraded`] distinguishes the
/// two shapes.
#[derive(Clone, Debug)]
pub struct FederatedOutcome {
    /// Session id the parties ran under.
    pub session: u64,
    /// The P-SOP result with reassembled per-party traffic (parties
    /// `0..k` are the daemons in peer order, party `k` the coordinator).
    /// `None` in a degraded outcome: a partial ring cannot produce the
    /// intersection/union counts.
    pub psop: Option<PsopOutcome>,
    /// Parties that failed, in ring order. Empty on a clean run.
    pub parties_failed: Vec<PartyFailure>,
    /// Bytes each provider daemon actually wrote to its ring successor,
    /// framing included, in peer order. Unlike `psop.traffic` (protocol
    /// payload, identical whatever the framing), this is the number the
    /// binary frame encoding halves versus v1 hex lines.
    pub party_wire_bytes: Vec<u64>,
    /// The trace every party's spans were recorded under: each
    /// `FederateStart` carried a child of this root, so
    /// `indaas trace <trace_id>` against the ring daemons stitches the
    /// whole audit into one tree.
    pub trace: TraceContext,
}

impl FederatedOutcome {
    /// Whether this is a degraded (partial-failure) outcome: at least
    /// one party failed and no combined P-SOP result exists.
    pub fn degraded(&self) -> bool {
        !self.parties_failed.is_empty()
    }
}

/// Drives the round structure of a multi-daemon P-SOP exchange.
pub struct FederationCoordinator {
    peers: Vec<String>,
    config: PsopConfig,
    round_timeout: Duration,
}

impl FederationCoordinator {
    /// A coordinator over `peers` (ring order; at least two), with the
    /// default P-SOP configuration and a 10-second round deadline.
    pub fn new(peers: impl IntoIterator<Item = String>) -> Self {
        FederationCoordinator {
            peers: peers.into_iter().collect(),
            config: PsopConfig::default(),
            round_timeout: Duration::from_secs(10),
        }
    }

    /// Overrides the P-SOP configuration (seed, multiset handling).
    #[must_use]
    pub fn with_config(mut self, config: PsopConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the per-round deadline sent to every daemon.
    #[must_use]
    pub fn with_round_timeout(mut self, timeout: Duration) -> Self {
        self.round_timeout = timeout;
        self
    }

    /// The configured ring, in order.
    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    /// Runs the audit: one `FederateStart` per daemon, all sent before
    /// any answer is awaited (the ring cannot make progress unless every
    /// party is live), then the agent counting step over the returned
    /// lists.
    ///
    /// When parties fail *and* the pattern is "a strict minority of
    /// daemons unreachable" (died mid-round, connection dropped, never
    /// answered), the coordinator does not abort: it returns `Ok` with
    /// a degraded [`FederatedOutcome`] naming every failed party — the
    /// caller decides what a partial ring is worth. Failures with **no**
    /// unreachable daemon (refusals, empty databases, deadline answers
    /// from live daemons) and majority-unreachable rings still error:
    /// those are configuration or total-outage conditions a retry or a
    /// human must fix.
    ///
    /// # Errors
    ///
    /// Configuration errors (fewer than two peers, duplicate addresses)
    /// and non-degradable failure patterns as above — the first error
    /// in ring order wins.
    pub fn run(&self) -> Result<FederatedOutcome, FederationError> {
        let k = self.peers.len();
        if k < 2 {
            return Err(FederationError::Config(
                "federated P-SOP needs at least two provider daemons".to_string(),
            ));
        }
        for (i, p) in self.peers.iter().enumerate() {
            if self.peers[..i].contains(p) {
                return Err(FederationError::Config(format!(
                    "peer {p} appears twice in the ring; a daemon cannot play two parties"
                )));
            }
        }
        let session = self.session_id();
        // The whole audit shares one trace: the root is virtual (the
        // coordinator records no span store of its own) and every
        // party's `FederateStart` carries a distinct child of it, so
        // the daemons' span trees merge under one id.
        let root = TraceContext::root();

        // Every daemon must be driving its rounds at once: party 0's
        // round-1 input only exists after party k-1 sent its round-0
        // list. So every party's `FederateStart` goes out, in ring
        // order, before any answer is awaited.
        let ring = self.peers.iter().zip(self.peers.iter().cycle().skip(1));
        let started: Vec<_> = ring
            .enumerate()
            .map(|(i, (peer, next))| (i, peer, self.start_party(session, i, peer, next, root)))
            .collect();
        let reports: Vec<_> = started
            .into_iter()
            .map(|(i, peer, started)| {
                let answer = started.and_then(|(mut client, id)| client.wait(id));
                party_report(session, i, peer, answer)
            })
            .collect();
        if reports.iter().any(|r| r.is_err()) {
            return self.degrade_or_fail(session, root, reports);
        }
        let parties: Vec<PartyReport> = reports.into_iter().map(|r| r.unwrap()).collect(); // lint:allow(panic_path) -- the any(is_err) guard above already returned via degrade_or_fail

        let (intersection, union) =
            count_final_lists(parties.iter().map(|p| p.payload.as_slice()), k)
                .map_err(|e| FederationError::Protocol(e.to_string()))?;
        // Reassemble the (k+1)-party traffic matrix from each daemon's
        // own accounting; the coordinator (party k) sends nothing and
        // receives every final list.
        let mut sent: Vec<u64> = parties.iter().map(|p| p.sent_bytes).collect();
        let mut received: Vec<u64> = parties.iter().map(|p| p.recv_bytes).collect();
        sent.push(0);
        received.push(parties.iter().map(|p| p.payload.len() as u64).sum());
        let messages = parties.iter().map(|p| p.sent_msgs).sum();
        let traffic = TrafficStats::from_parts(sent, received, messages);
        let party_wire_bytes = parties.iter().map(|p| p.wire_sent_bytes).collect();
        Ok(FederatedOutcome {
            session,
            psop: Some(outcome_from_counts(intersection, union, traffic)),
            parties_failed: Vec::new(),
            party_wire_bytes,
            trace: root,
        })
    }

    /// Decides what a run with failed parties becomes: a degraded
    /// outcome when a strict minority of daemons was unreachable (the
    /// partial-failure class the ring should survive *observably*), the
    /// first error in ring order otherwise.
    fn degrade_or_fail(
        &self,
        session: u64,
        root: TraceContext,
        reports: Vec<Result<PartyReport, FederationError>>,
    ) -> Result<FederatedOutcome, FederationError> {
        let k = self.peers.len();
        let unreachable = reports
            .iter()
            .filter(|r| matches!(r, Err(e) if !matches!(e, FederationError::Remote(_))))
            .count();
        if unreachable == 0 || unreachable * 2 >= k {
            // No daemon actually died (refusals / deadlines from live
            // daemons = configuration trouble), or so many died no
            // "partial" reading is honest — fail loudly.
            for report in reports {
                report?;
            }
            unreachable!("degrade_or_fail called without a failed report"); // lint:allow(panic_path) -- only entered with at least one Err report, so the loop above always returns
        }
        let mut parties_failed = Vec::new();
        let mut party_wire_bytes = Vec::with_capacity(k);
        for (index, report) in reports.into_iter().enumerate() {
            match report {
                Ok(p) => party_wire_bytes.push(p.wire_sent_bytes),
                Err(e) => {
                    party_wire_bytes.push(0);
                    parties_failed.push(PartyFailure {
                        index,
                        peer: self.peers[index].clone(), // lint:allow(panic_path) -- index enumerates k reports and peers.len() == k
                        reachable: matches!(e, FederationError::Remote(_)),
                        error: e.to_string(),
                    });
                }
            }
        }
        Ok(FederatedOutcome {
            session,
            psop: None,
            parties_failed,
            party_wire_bytes,
            trace: root,
        })
    }

    /// Dials party `index`'s daemon and sends its `FederateStart` under
    /// a child of `root`; returns the session and the envelope id its
    /// answer will carry.
    fn start_party(
        &self,
        session: u64,
        index: usize,
        peer: &str,
        successor: &str,
        root: TraceContext,
    ) -> Result<(Client, u64), ClientError> {
        let mut client = Client::connect(peer)?;
        // A generous socket deadline so a wedged daemon fails the audit
        // instead of hanging the coordinator forever; the per-round
        // deadlines inside the daemons are the precise control. Budget:
        // k ring rounds + the agent hop + retry/backoff slack — computed
        // with checked math so a huge `--round-timeout` cannot wrap into
        // a tiny (or zero) socket deadline.
        let hops = u32::try_from(self.peers.len())
            .unwrap_or(u32::MAX)
            .saturating_add(4);
        let socket_deadline = self
            .round_timeout
            .checked_mul(hops)
            .unwrap_or(Duration::MAX);
        client.set_read_timeout(Some(socket_deadline))?;
        let request = Request::FederateStart {
            session,
            index: index as u32,
            parties: self.peers.len() as u32,
            successor: successor.to_string(),
            seed: self.config.seed,
            multiset: self.config.multiset,
            round_timeout_ms: Some(self.round_timeout.as_millis() as u64),
        };
        let id = client.begin_traced(&request, Some(root.child()))?;
        Ok((client, id))
    }

    /// Derives a session id from the ring, the configuration and the
    /// current time — unique enough that retries and concurrent audits
    /// on the same daemons do not collide.
    fn session_id(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.peers.hash(&mut h);
        self.config.seed.hash(&mut h);
        if let Ok(elapsed) = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
            elapsed.as_nanos().hash(&mut h);
        }
        h.finish()
    }
}

/// What party `index` reported, from its `FederateStart` answer. The
/// error class must survive to `run`: a `Remote` answer means the daemon
/// is alive (it *said* no), anything else means it is unreachable — the
/// distinction the degraded-outcome decision is built on.
fn party_report(
    session: u64,
    index: usize,
    peer: &str,
    answer: Result<Response, ClientError>,
) -> Result<PartyReport, FederationError> {
    match answer {
        Ok(Response::FederateDone {
            session: echoed,
            payload,
            sent_bytes,
            recv_bytes,
            sent_msgs,
            recv_msgs: _,
            wire_sent_bytes,
        }) => {
            if echoed != session {
                return Err(FederationError::Protocol(format!(
                    "party {index} answered for session {echoed}, expected {session}"
                )));
            }
            let payload = decode_payload(&payload)
                .map_err(|e| FederationError::Protocol(format!("party {index}: {e}")))?;
            // A truncated list would count its tail as one more distinct
            // ciphertext and silently inflate the union — a list that is
            // not whole group elements fails this party, by name, before
            // any counting.
            check_payload(index, &payload).map_err(|e| FederationError::Protocol(e.to_string()))?;
            Ok(PartyReport {
                payload,
                sent_bytes,
                recv_bytes,
                sent_msgs,
                wire_sent_bytes,
            })
        }
        Ok(Response::Error { message }) | Err(ClientError::Remote(message)) => Err(
            FederationError::Remote(format!("party {index} ({peer}): {message}")),
        ),
        Ok(other) => Err(FederationError::Protocol(format!(
            "party {index} ({peer}) answered {other:?}"
        ))),
        Err(ClientError::Io(err)) => Err(FederationError::Io(std::io::Error::new(
            err.kind(),
            format!("party {index} ({peer}): {err}"),
        ))),
        Err(ClientError::Protocol(m)) => Err(FederationError::Protocol(format!(
            "party {index} ({peer}): {m}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn too_few_peers_rejected() {
        let c = FederationCoordinator::new(["127.0.0.1:1".to_string()]);
        assert!(matches!(c.run(), Err(FederationError::Config(_))));
    }

    #[test]
    fn duplicate_peers_rejected() {
        let c = FederationCoordinator::new(["127.0.0.1:1".to_string(), "127.0.0.1:1".to_string()]);
        let err = c.run().unwrap_err();
        assert!(err.to_string().contains("twice"));
    }

    #[test]
    fn session_ids_differ_across_runs() {
        let c = FederationCoordinator::new(["a:1".to_string(), "b:2".to_string()]);
        assert_ne!(c.session_id(), c.session_id());
    }
}

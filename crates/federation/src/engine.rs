//! The daemon-side federation engine: handshake policy, frame routing,
//! and the blocking per-party protocol run a `FederateStart` triggers.

use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Duration;

use indaas_deps::DepView;
use indaas_graph::CancelToken;
use indaas_pia::normalize::normalize_set;
use indaas_pia::{run_psop_party, PsopConfig};
use indaas_service::proto::{FEDERATION_PROTOCOL_VERSION, MAX_FEDERATE_PAYLOAD_BYTES};
use indaas_service::server::{FederationCtx, FederationEngine, PartyCompletion, PartyInstruction};

use crate::peer::{PeerConn, TcpRoundTransport};
use crate::registry::PeerRegistry;
use crate::session::{Frame, SessionRegistry};

/// Most provider parties one federated audit may span — bounds the
/// session-wide deadline multiplier and the `from` index a frame may
/// carry.
pub const MAX_PARTIES: u32 = 64;

/// The production [`FederationEngine`]: one per daemon, installed with
/// [`indaas_service::Server::set_federation`].
pub struct Federation {
    node: String,
    peers: PeerRegistry,
    sessions: SessionRegistry,
}

impl Federation {
    /// An engine identifying itself as `node` (by convention the
    /// daemon's listen address) with an open peer registry.
    pub fn new(node: impl Into<String>) -> Self {
        Self::with_registry(node, PeerRegistry::new())
    }

    /// An engine with an explicit peer allow-list.
    pub fn with_registry(node: impl Into<String>, peers: PeerRegistry) -> Self {
        Federation {
            node: node.into(),
            peers,
            sessions: SessionRegistry::new(),
        }
    }

    /// The node name announced in handshakes.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The configured peer registry.
    pub fn registry(&self) -> &PeerRegistry {
        &self.peers
    }

    /// Derives this provider's private component set from its dependency
    /// database: every network device, hardware component and software
    /// package it depends on, normalized exactly like `indaas pia`
    /// normalizes `--set` files so identical third-party components hash
    /// identically at every provider (§4.2.3).
    pub fn component_set<D: DepView + ?Sized>(db: &D) -> Vec<String> {
        provider_component_set(db)
    }
}

/// Free-function form of [`Federation::component_set`], shared with the
/// coordinator-side cross-checks in tests. Reads any [`DepView`] — a
/// monolithic `DepDb` or the daemon's sharded snapshot.
pub fn provider_component_set<D: DepView + ?Sized>(db: &D) -> Vec<String> {
    let mut raw: Vec<String> = Vec::new();
    for host in db.hosts() {
        for n in db.network_deps(&host) {
            raw.extend(n.route.iter().cloned());
        }
        for h in db.hardware_deps(&host) {
            raw.push(h.dep.clone());
        }
        for s in db.software_deps(&host) {
            raw.extend(s.deps.iter().cloned());
        }
    }
    normalize_set(raw.iter().map(String::as_str))
}

impl FederationEngine for Federation {
    fn handshake(&self, offered: u32, peer_node: &str) -> Result<(u32, String), String> {
        if offered < FEDERATION_PROTOCOL_VERSION {
            return Err(format!(
                "protocol version {offered} below supported minimum {FEDERATION_PROTOCOL_VERSION}"
            ));
        }
        if peer_node == self.node {
            return Err(format!(
                "node {peer_node:?} is this daemon itself; refusing self-peering"
            ));
        }
        if !self.peers.allows(peer_node) {
            return Err(format!(
                "node {peer_node:?} is not in this daemon's peer allow-list"
            ));
        }
        Ok((offered.min(FEDERATION_PROTOCOL_VERSION), self.node.clone()))
    }

    fn deliver(&self, session: u64, round: u32, from: u32, payload: Vec<u8>) -> Result<(), String> {
        if from >= MAX_PARTIES {
            return Err(format!("party index {from} exceeds the {MAX_PARTIES} cap"));
        }
        if round >= MAX_PARTIES {
            return Err(format!("round {round} exceeds the {MAX_PARTIES} cap"));
        }
        if payload.len() > MAX_FEDERATE_PAYLOAD_BYTES {
            return Err(format!(
                "payload {} exceeds {MAX_FEDERATE_PAYLOAD_BYTES} bytes",
                payload.len()
            ));
        }
        self.sessions.mailbox(session)?.push(Frame {
            round,
            from,
            payload,
        })
    }

    fn run_party(
        &self,
        instruction: PartyInstruction,
        ctx: FederationCtx,
    ) -> Result<PartyCompletion, String> {
        let PartyInstruction {
            session,
            index,
            parties,
            successor,
            seed,
            multiset,
            round_timeout_ms,
            trace,
        } = instruction;
        if !(2..=MAX_PARTIES).contains(&parties) {
            return Err(format!(
                "parties must be in 2..={MAX_PARTIES} (got {parties})"
            ));
        }
        if index >= parties {
            return Err(format!(
                "ring index {index} out of range for {parties} parties"
            ));
        }
        // Reject self-connections before any byte leaves this daemon: a
        // successor resolving to our own listen address would hand this
        // party's encrypted list straight back to itself.
        if let Ok(resolved) = successor.to_socket_addrs() {
            for addr in resolved {
                if addr == ctx.local_addr {
                    return Err(format!(
                        "successor {successor} is this daemon's own listen address; refusing self-peering"
                    ));
                }
            }
        }
        if !self.peers.allows(&successor) {
            return Err(format!(
                "successor {successor} is not in this daemon's peer allow-list"
            ));
        }
        let dataset = provider_component_set(&ctx.snapshot);
        if dataset.is_empty() {
            return Err(
                "dependency database holds no components; ingest records before federating"
                    .to_string(),
            );
        }

        // Per-round deadline: the coordinator may only shorten the
        // server's ceiling. The session-wide budget is
        // `round_timeout × (parties + 2)`: a k-party ring takes k
        // rounds, plus one for the agent hop and one round of slack —
        // checked multiplication so an absurd `--round-timeout-ms`
        // saturates to "no deadline" instead of panicking the party
        // thread (`parties` is already capped at MAX_PARTIES, so the
        // u32 add cannot wrap).
        let round_timeout = round_timeout_ms
            .map(Duration::from_millis)
            .unwrap_or(ctx.round_timeout)
            .min(ctx.round_timeout);
        let budget = round_timeout
            .checked_mul(parties + 2)
            .unwrap_or(Duration::MAX);
        let token = CancelToken::with_deadline(budget);

        let conn = PeerConn::dial(&successor, &self.node, round_timeout)
            .map_err(|e| format!("dialing successor {successor}: {e}"))?;
        let mailbox = self.sessions.mailbox(session)?;
        let mut transport = TcpRoundTransport::new(
            index as usize,
            parties as usize,
            session,
            conn,
            mailbox,
            token.clone(),
            round_timeout,
        )
        .with_trace(trace)
        .with_redial(&successor, &self.node);
        let config = PsopConfig { seed, multiset };
        let run = run_psop_party(
            &dataset,
            &config,
            index as usize,
            parties as usize,
            &mut transport,
            &token,
        );
        self.sessions.remove(session);
        let (frame_retries, redials) = transport.retry_counts();
        run.map_err(|e| e.to_string())?;
        let (payload, stats, hops, wire_sent_bytes) = transport
            .into_completion()
            .ok_or_else(|| "party finished without an agent payload".to_string())?;
        Ok(PartyCompletion {
            sent_bytes: stats.sent_bytes(index as usize),
            recv_bytes: stats.recv_bytes(index as usize),
            sent_msgs: hops.sent_msgs,
            recv_msgs: hops.recv_msgs,
            wire_sent_bytes,
            frame_retries,
            redials,
            payload,
        })
    }
}

/// Convenience: boxes the engine for [`indaas_service::Server::set_federation`].
pub fn engine(node: impl Into<String>, peers: PeerRegistry) -> Arc<dyn FederationEngine> {
    Arc::new(Federation::with_registry(node, peers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use indaas_deps::{parse_records, DepDb};

    #[test]
    fn handshake_negotiates_and_rejects() {
        let f = Federation::new("127.0.0.1:1000");
        let (v, node) = f
            .handshake(FEDERATION_PROTOCOL_VERSION, "127.0.0.1:2000")
            .unwrap();
        assert_eq!(v, FEDERATION_PROTOCOL_VERSION);
        assert_eq!(node, "127.0.0.1:1000");
        // A newer peer negotiates down to ours.
        let (v, _) = f
            .handshake(FEDERATION_PROTOCOL_VERSION + 5, "127.0.0.1:2000")
            .unwrap();
        assert_eq!(v, FEDERATION_PROTOCOL_VERSION);
        // Older versions (v1 included) and self-connections are refused.
        for old in [0, FEDERATION_PROTOCOL_VERSION - 1] {
            assert!(f
                .handshake(old, "127.0.0.1:2000")
                .unwrap_err()
                .contains(&format!("version {old}")));
        }
        assert!(f
            .handshake(FEDERATION_PROTOCOL_VERSION, "127.0.0.1:1000")
            .unwrap_err()
            .contains("self"));
    }

    #[test]
    fn handshake_honours_allow_list() {
        let f = Federation::with_registry(
            "127.0.0.1:1000",
            PeerRegistry::with_peers(["127.0.0.1:2000".to_string()]),
        );
        assert!(f
            .handshake(FEDERATION_PROTOCOL_VERSION, "127.0.0.1:2000")
            .is_ok());
        assert!(f
            .handshake(FEDERATION_PROTOCOL_VERSION, "127.0.0.1:3000")
            .unwrap_err()
            .contains("allow-list"));
    }

    #[test]
    fn deliver_validates_bounds() {
        let f = Federation::new("n");
        assert!(f
            .deliver(1, 0, MAX_PARTIES, vec![])
            .unwrap_err()
            .contains("cap"));
        assert!(f
            .deliver(1, MAX_PARTIES, 0, vec![])
            .unwrap_err()
            .contains("cap"));
        f.deliver(1, 0, 0, vec![1, 2, 3]).unwrap();
    }

    #[test]
    fn component_set_is_normalized_and_sorted() {
        let db = DepDb::from_records(
            parse_records(
                r#"
                <src="S1" dst="Internet" route="ToR1,Core1"/>
                <hw="S1" type="CPU" dep="Intel X5550"/>
                <pgm="Riak" hw="S1" dep="libc6,OpenSSL 1.0.1f"/>
            "#,
            )
            .unwrap(),
        );
        let set = provider_component_set(&db);
        assert_eq!(
            set,
            vec!["core1", "intel-x5550", "libc6", "openssl-1.0.1f", "tor1"]
        );
    }
}

//! Outbound peer sessions and the one-party TCP transport view.
//!
//! [`PeerConn`] dials a fellow daemon's listener, performs the
//! `FederateHello`/`FederateWelcome` version handshake, and then writes
//! binary round frames, each stamped with a trace context.
//! [`TcpRoundTransport`] wraps one such connection plus the local
//! session mailbox into a [`Transport`] hosting exactly one party — the
//! view `indaas_pia::run_psop_party` executes against.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use indaas_faultinj::{points, FaultAction};
use indaas_graph::CancelToken;
use indaas_obs::TraceContext;
use indaas_service::proto::{
    decode_line, encode_line, encode_traced_round_frame, read_bounded_line, write_frame, LineRead,
    Request, Response, FEDERATION_PROTOCOL_VERSION, MAX_FEDERATE_PAYLOAD_BYTES,
};
use indaas_simnet::{Message, PartyId, TrafficStats, Transport, TransportError};

use crate::error::FederationError;
use crate::session::SessionMailbox;

/// Largest accepted handshake answer line — a `FederateWelcome` is tiny,
/// so peers get a much tighter bound than audit clients.
const MAX_WELCOME_LINE: u64 = 4 * 1024;

/// An established (handshaken) outbound peer session.
pub struct PeerConn {
    writer: TcpStream,
    /// The peer's self-reported node name.
    pub peer_node: String,
    /// Every byte this connection has put on the wire — the handshake
    /// line and every frame's length prefix, header, payload and trace
    /// context.
    wire_sent: u64,
}

impl PeerConn {
    /// Dials `addr`, announces `own_node`, and performs the version
    /// handshake at [`FEDERATION_PROTOCOL_VERSION`].
    ///
    /// # Errors
    ///
    /// I/O failures, a handshake rejection (the peer's `Error` answer —
    /// e.g. a detected self-connection), a welcome at any other version,
    /// or a peer that answers out of protocol.
    pub fn dial(addr: &str, own_node: &str, timeout: Duration) -> Result<Self, FederationError> {
        // Chaos hook: an armed `fed.dial` point fails the dial before a
        // single byte leaves this daemon (any non-pass action refuses).
        if indaas_faultinj::point(points::FED_DIAL) != FaultAction::Pass {
            return Err(FederationError::Io(std::io::Error::other(
                "injected fault at fed.dial",
            )));
        }
        // `TcpStream::connect` has no deadline of its own — a blackholed
        // successor would wedge the party thread for the OS connect
        // timeout (minutes), far past every protocol deadline.
        let stream = connect_with_timeout(addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        // The same deadline bounds writes: a peer that stops draining
        // its socket mid-round fails this party instead of wedging it.
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut hello = encode_line(&Request::FederateHello {
            version: FEDERATION_PROTOCOL_VERSION,
            node: own_node.to_string(),
        });
        hello.push('\n');
        writer.write_all(hello.as_bytes())?;
        writer.flush()?;
        let mut line = String::new();
        match read_bounded_line(&mut reader, &mut line, MAX_WELCOME_LINE)? {
            LineRead::Line => {}
            LineRead::Eof => {
                return Err(FederationError::Protocol(format!(
                    "peer {addr} closed the connection during the handshake"
                )));
            }
            LineRead::Oversized => {
                return Err(FederationError::Protocol(format!(
                    "peer {addr} handshake answer exceeds {MAX_WELCOME_LINE} bytes"
                )));
            }
        }
        match decode_line::<Response>(line.trim()) {
            Ok(Response::FederateWelcome { version, node }) => {
                if version != FEDERATION_PROTOCOL_VERSION {
                    return Err(FederationError::Protocol(format!(
                        "peer {addr} negotiated unsupported protocol version {version}"
                    )));
                }
                if node == own_node {
                    return Err(FederationError::Config(format!(
                        "peer {addr} is this daemon itself (node {node:?}); refusing self-peering"
                    )));
                }
                Ok(PeerConn {
                    writer,
                    peer_node: node,
                    wire_sent: hello.len() as u64,
                })
            }
            Ok(Response::Error { message }) => Err(FederationError::Remote(message)),
            Ok(other) => Err(FederationError::Protocol(format!(
                "peer {addr} answered the handshake with {other:?}"
            ))),
            Err(e) => Err(FederationError::Protocol(format!(
                "peer {addr} handshake unparseable: {e}"
            ))),
        }
    }

    /// Ships one round frame: the binary header, the ciphertext bytes
    /// verbatim, and `trace`, which the receiving daemon records the hop
    /// under.
    ///
    /// # Errors
    ///
    /// Propagates socket failures; rejects payloads beyond the protocol
    /// bound before they touch the wire.
    pub fn send_frame(
        &mut self,
        session: u64,
        round: u32,
        from: u32,
        payload: &[u8],
        trace: &TraceContext,
    ) -> Result<(), FederationError> {
        if payload.len() > MAX_FEDERATE_PAYLOAD_BYTES {
            return Err(FederationError::Protocol(format!(
                "frame payload {} exceeds {MAX_FEDERATE_PAYLOAD_BYTES} bytes",
                payload.len()
            )));
        }
        // Chaos hook: `fed.frame.send` can fail, drop, or sever one
        // ring hop — the fault classes the transport's retry/backoff
        // and ring re-dial exist to absorb.
        match indaas_faultinj::point(points::FED_FRAME_SEND) {
            FaultAction::Pass => {}
            FaultAction::Error => {
                return Err(FederationError::Io(std::io::Error::other(
                    "injected fault at fed.frame.send",
                )));
            }
            // The frame is lost on the floor but reported sent; the
            // successor's round deadline is what notices.
            FaultAction::Drop => return Ok(()),
            FaultAction::Disconnect => {
                let _ = self.writer.shutdown(std::net::Shutdown::Both);
                return Err(FederationError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "injected disconnect at fed.frame.send",
                )));
            }
        }
        let frame = encode_traced_round_frame(session, round, from, payload, trace);
        write_frame(&mut self.writer, &frame).map_err(FederationError::Io)?;
        self.writer.flush()?;
        self.wire_sent += 4 + frame.len() as u64;
        Ok(())
    }

    /// Bytes this connection has written, handshake and framing
    /// included.
    pub fn wire_sent_bytes(&self) -> u64 {
        self.wire_sent
    }
}

/// Resolves `addr` and tries each candidate with `timeout`, returning
/// the first stream that connects.
fn connect_with_timeout(addr: &str, timeout: Duration) -> Result<TcpStream, FederationError> {
    use std::net::ToSocketAddrs;
    let mut last_err: Option<std::io::Error> = None;
    for candidate in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&candidate, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err
        .map(FederationError::Io)
        .unwrap_or_else(|| FederationError::Config(format!("{addr} resolves to no address"))))
}

/// Send attempts per frame on one connection before the transport
/// considers the connection lost: the initial try plus two retries.
const MAX_SEND_ATTEMPTS: u32 = 3;

/// First retry backoff; doubles per retry (20ms, 40ms), always capped
/// by the round deadline so retrying can never outlast the round.
const INITIAL_SEND_BACKOFF: Duration = Duration::from_millis(20);

/// How the transport re-dials its ring successor after send retries on
/// the original connection are exhausted.
#[derive(Clone)]
struct RedialInfo {
    addr: String,
    node: String,
}

/// One party's [`Transport`] view of a federated session: sends to the
/// ring successor travel the outbound [`PeerConn`]; sends to the agent
/// (party `k`) are stashed for the coordinator's `FederateDone` answer;
/// receives pop the daemon's session mailbox under per-round deadlines.
pub struct TcpRoundTransport {
    local: PartyId,
    /// Provider count `k`; the transport addresses `k + 1` parties.
    providers: usize,
    session: u64,
    successor: PeerConn,
    mailbox: Arc<SessionMailbox>,
    token: CancelToken,
    round_timeout: Duration,
    /// This party's `fed_party` span context; every outgoing ring frame
    /// is stamped with a fresh child of it, which the successor daemon
    /// records verbatim — the cross-daemon parent link. All-zero (the
    /// wire's "absent") until [`TcpRoundTransport::with_trace`].
    trace: TraceContext,
    stats: TrafficStats,
    /// Ring-send ordinal stamped on outgoing frames.
    send_round: u32,
    /// Next expected incoming frame round.
    recv_round: u32,
    /// Messages this party sent / received (protocol hops, agent included).
    counters: HopCounters,
    final_payload: Option<Vec<u8>>,
    /// Successor coordinates for the one re-dial attempt; `None`
    /// disables re-dialing (tests driving a raw transport).
    redial: Option<RedialInfo>,
    /// Whether the single re-dial attempt has been spent.
    redialed: bool,
    /// Frame sends retried after a transient failure.
    frame_retries: u64,
    /// Successor re-dials performed (0 or 1).
    redials: u64,
    /// Wire bytes written by connections replaced via re-dial, so
    /// [`TcpRoundTransport::into_completion`] keeps counting every byte
    /// this party put on the wire.
    wire_sent_base: u64,
}

/// Message-count counters mirroring what `FederateDone` reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct HopCounters {
    /// Protocol messages sent (ring frames + the agent hop).
    pub sent_msgs: u64,
    /// Protocol messages received.
    pub recv_msgs: u64,
}

impl TcpRoundTransport {
    /// Builds the one-party view for ring position `local` of
    /// `providers` parties.
    ///
    /// # Panics
    ///
    /// Panics if `local` is not a provider index.
    pub fn new(
        local: PartyId,
        providers: usize,
        session: u64,
        successor: PeerConn,
        mailbox: Arc<SessionMailbox>,
        token: CancelToken,
        round_timeout: Duration,
    ) -> Self {
        assert!(local < providers, "local party must be a provider");
        TcpRoundTransport {
            local,
            providers,
            session,
            successor,
            mailbox,
            token,
            round_timeout,
            trace: TraceContext {
                trace_id: 0,
                span_id: 0,
                parent_span_id: 0,
            },
            stats: TrafficStats::new(providers + 1),
            send_round: 0,
            recv_round: 0,
            counters: HopCounters::default(),
            final_payload: None,
            redial: None,
            redialed: false,
            frame_retries: 0,
            redials: 0,
            wire_sent_base: 0,
        }
    }

    /// Arms the one-shot ring re-dial: after send retries on the
    /// current successor connection are exhausted, the transport dials
    /// `addr` once more (announcing `node`) and retries the frame on the
    /// fresh connection before giving up.
    #[must_use]
    pub fn with_redial(mut self, addr: impl Into<String>, node: impl Into<String>) -> Self {
        self.redial = Some(RedialInfo {
            addr: addr.into(),
            node: node.into(),
        });
        self
    }

    /// Sets the `fed_party` span context outgoing frames are stamped
    /// under.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = trace;
        self
    }

    /// Ring predecessor — the only party frames may legitimately carry
    /// as `from`.
    fn predecessor(&self) -> PartyId {
        (self.local + self.providers - 1) % self.providers
    }

    /// The agent party id (`k`).
    fn agent(&self) -> PartyId {
        self.providers
    }

    /// The stashed agent payload, once the final hop ran, along with
    /// the traffic stats, hop counters, and the successor connection's
    /// wire-byte total.
    pub fn into_completion(self) -> Option<(Vec<u8>, TrafficStats, HopCounters, u64)> {
        let wire = self.wire_sent_base + self.successor.wire_sent_bytes();
        self.final_payload
            .map(|p| (p, self.stats, self.counters, wire))
    }

    /// `(frame retries, re-dials)` this transport performed — the
    /// daemon reports them as `fed_frame_retries_total` /
    /// `fed_redials_total`.
    pub fn retry_counts(&self) -> (u64, u64) {
        (self.frame_retries, self.redials)
    }

    /// Ships one ring frame with bounded retry: up to
    /// [`MAX_SEND_ATTEMPTS`] tries on the current connection under
    /// exponential backoff, then (once per party run) a re-dial of the
    /// ring successor and a fresh attempt budget on the new connection.
    fn send_frame_with_retry(
        &mut self,
        round: u32,
        from: u32,
        payload: &[u8],
        trace: &TraceContext,
    ) -> Result<(), FederationError> {
        let mut backoff = INITIAL_SEND_BACKOFF;
        let mut attempts = 0u32;
        loop {
            let err = match self
                .successor
                .send_frame(self.session, round, from, payload, trace)
            {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            attempts += 1;
            if attempts < MAX_SEND_ATTEMPTS {
                self.frame_retries += 1;
                std::thread::sleep(backoff.min(self.round_timeout));
                backoff = backoff.saturating_mul(2);
                continue;
            }
            // Retries on this connection are spent. One ring re-dial
            // per party run: a successor that crashed and came back (or
            // whose connection a middlebox severed) gets a second
            // chance before the party fails the audit.
            let info = match (&self.redial, self.redialed) {
                (Some(info), false) => info.clone(),
                _ => return Err(err),
            };
            self.redialed = true;
            match PeerConn::dial(&info.addr, &info.node, self.round_timeout) {
                Ok(conn) => {
                    self.redials += 1;
                    self.wire_sent_base += self.successor.wire_sent_bytes();
                    self.successor = conn;
                    attempts = 0;
                    backoff = INITIAL_SEND_BACKOFF;
                }
                Err(dial_err) => {
                    return Err(FederationError::Io(std::io::Error::other(format!(
                        "sending to ring successor failed ({err}) and the re-dial \
                         failed too ({dial_err})"
                    ))));
                }
            }
        }
    }
}

impl Transport for TcpRoundTransport {
    fn parties(&self) -> usize {
        self.providers + 1
    }

    fn send(&mut self, from: PartyId, to: PartyId, payload: Vec<u8>) -> Result<(), TransportError> {
        if from != self.local {
            return Err(TransportError::Protocol(format!(
                "one-party transport cannot send as party {from} (local is {})",
                self.local
            )));
        }
        let bytes = payload.len() as u64;
        if to == self.agent() {
            self.stats.record(from, to, bytes);
            self.counters.sent_msgs += 1;
            self.final_payload = Some(payload);
            return Ok(());
        }
        if to != (self.local + 1) % self.providers {
            return Err(TransportError::Protocol(format!(
                "party {from} may only send to its ring successor or the agent, not {to}"
            )));
        }
        // A fresh child per frame: each ring hop is its own span on the
        // receiving daemon, all parented on this party's span.
        let frame_ctx = self.trace.child();
        self.send_frame_with_retry(self.send_round, from as u32, &payload, &frame_ctx)
            .map_err(|e| TransportError::Closed(e.to_string()))?;
        self.send_round += 1;
        self.stats.record(from, to, bytes);
        self.counters.sent_msgs += 1;
        Ok(())
    }

    fn recv(&mut self, to: PartyId) -> Result<Message, TransportError> {
        if to != self.local {
            return Err(TransportError::Protocol(format!(
                "one-party transport cannot receive for party {to} (local is {})",
                self.local
            )));
        }
        let frame = self.mailbox.pop(&self.token, self.round_timeout)?;
        if frame.from as usize != self.predecessor() {
            return Err(TransportError::Protocol(format!(
                "frame from party {} but only the ring predecessor {} may send here",
                frame.from,
                self.predecessor()
            )));
        }
        if frame.round != self.recv_round {
            return Err(TransportError::Protocol(format!(
                "frame round {} arrived where round {} was expected",
                frame.round, self.recv_round
            )));
        }
        self.recv_round += 1;
        self.stats
            .record(frame.from as usize, to, frame.payload.len() as u64);
        self.counters.recv_msgs += 1;
        Ok(Message {
            from: frame.from as usize,
            to,
            payload: frame.payload,
        })
    }

    fn stats(&self) -> &TrafficStats {
        &self.stats
    }
}

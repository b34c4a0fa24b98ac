//! The daemon side of federated PIA (§4.2), driven from the readiness
//! loop like every other connection.
//!
//! * **Handshake policy** — [`handshake`] answers a `FederateHello`
//!   (version floor, self-peering, the `--peer` allow-list, which
//!   [`PeerAllowList`] resolved once at bind: the loop never touches the
//!   resolver). An accepted connection switches to peer mode in
//!   [`crate::netloop`], which extracts its round frames and hands each
//!   to [`Ring::receive`].
//! * **Session routing** — the loop-owned [`SessionTable`] buffers frames
//!   for sessions whose `FederateStart` has not arrived yet (the ring has
//!   no global barrier), bounded per session and in session count.
//! * **The party** — a `FederateStart` becomes a [`Party`], plain loop
//!   state. Everything that blocks or burns CPU runs as a scheduler-pool
//!   job that owns the [`PsopParty`] while it runs and posts it back
//!   through [`LoopShared`]: the first job resolves the successor (the
//!   self-peering check), derives the component set and encrypts the
//!   initial list; every in-order frame from the predecessor is one
//!   `relay` job. The k-th frame is the party's own final list, answered
//!   as `FederateDone`.
//! * **The successor link** — a non-blocking dial
//!   ([`indaas_netpoll::connect_nonblocking`]), the hello/welcome
//!   exchange, then ring frames through a [`WriteQueue`]. Sends retry up
//!   to [`MAX_SEND_ATTEMPTS`] times per connection under exponential
//!   backoff, then re-dial once; round deadlines, the session budget,
//!   backoff and the dial deadline are all [`TimerWheel`] timers.
//!
//! During a live P-SOP round the daemon therefore runs its loop and its
//! pool threads, nothing else.

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use indaas_core::CancelToken;
use indaas_deps::DepView;
use indaas_faultinj::{points, FaultAction};
use indaas_netpoll::{Event, Interest, Poller, TimerWheel};
use indaas_obs::{log as slog, TraceContext, TraceScope};
use indaas_pia::normalize::normalize_set;
use indaas_pia::{PsopConfig, PsopError, PsopParty};
use indaas_simnet::Message;

use crate::codec::{self, WriteProgress, WriteQueue};
use crate::names;
use crate::netloop::{LoopShared, ResponseSlot, TimerEvent};
use crate::proto::{
    decode_line, decode_traced_round_frame, encode_line, encode_payload, encode_traced_round_frame,
    Request, Response, FEDERATION_PROTOCOL_VERSION, MAX_FEDERATE_PAYLOAD_BYTES,
    MAX_NODE_NAME_BYTES,
};
use crate::server::ServiceState;

/// Most provider parties one federated audit may span — bounds the
/// session-wide deadline multiplier and the `from` index a frame may
/// carry.
const MAX_PARTIES: u32 = 64;

/// Most frames one session buffers before the peer is told to back off —
/// a P-SOP party only ever has one frame in flight per round, so anything
/// near this bound is a misbehaving peer, not a slow audit.
const MAX_BUFFERED_FRAMES: usize = 256;

/// Most concurrently tracked sessions; beyond it the stalest *idle*
/// session is dropped, bounding memory against session-id churn.
const MAX_SESSIONS: usize = 64;

/// Largest accepted handshake answer — a `FederateWelcome` is tiny.
const MAX_WELCOME_LINE: u64 = 4 * 1024;

/// Send attempts per frame on one connection: the try plus two retries.
const MAX_SEND_ATTEMPTS: u32 = 3;

/// First retry backoff; doubles per retry (20 ms, 40 ms), always capped
/// by the round deadline.
const INITIAL_SEND_BACKOFF: Duration = Duration::from_millis(20);

/// Successor-link poller tokens live above every connection token, so
/// the loop tells them apart with one bit test.
pub(crate) const LINK_TOKEN_BIT: u64 = 1 << 63;

/// Derives this provider's private component set from its dependency
/// database: every network device, hardware component and software
/// package it depends on, normalized exactly like `indaas pia` normalizes
/// `--set` files so identical third-party components hash identically at
/// every provider (§4.2.3).
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

/// The `serve --peer` allow-list. Empty is *open* (any coordinator-named
/// successor is dialed); otherwise a compromised coordinator cannot point
/// this daemon's encrypted lists at an address the operator never
/// sanctioned.
pub(crate) struct PeerAllowList {
    names: Vec<String>,
    /// Every listed peer's addresses, resolved once at bind.
    addrs: Vec<SocketAddr>,
}

impl PeerAllowList {
    /// Resolves the listed peers. Blocks on the resolver: bind time only.
    pub(crate) fn resolve_at_bind(peers: &[String]) -> Self {
        let addrs = peers
            .iter()
            .filter_map(|p| p.to_socket_addrs().ok())
            .flatten()
            .collect();
        PeerAllowList {
            names: peers.to_vec(),
            addrs,
        }
    }

    /// Whether `candidate` may peer, judged without the resolver: the list
    /// is open, names it textually, or it parses as one of the resolved
    /// addresses (so `localhost:4914` listed admits `127.0.0.1:4914`).
    fn allows(&self, candidate: &str) -> bool {
        self.names.is_empty()
            || self.names.iter().any(|p| p == candidate)
            || candidate
                .parse::<SocketAddr>()
                .is_ok_and(|a| self.addrs.contains(&a))
    }
}

fn not_allowed(successor: &str) -> String {
    format!("successor {successor} is not in this daemon's peer allow-list")
}

/// Answers a `FederateHello`: the welcome, or the refusal the loop sends
/// before dropping the connection.
pub(crate) fn handshake(state: &ServiceState, offered: u32, peer_node: &str) -> Response {
    if peer_node.len() > MAX_NODE_NAME_BYTES {
        return Response::error(format!(
            "peer node name exceeds {MAX_NODE_NAME_BYTES} bytes"
        ));
    }
    let refusal = if offered < FEDERATION_PROTOCOL_VERSION {
        format!("protocol version {offered} below supported minimum {FEDERATION_PROTOCOL_VERSION}")
    } else if peer_node == state.node {
        format!("node {peer_node:?} is this daemon itself; refusing self-peering")
    } else if !state.peers.allows(peer_node) {
        format!("node {peer_node:?} is not in this daemon's peer allow-list")
    } else {
        let accepted = format!("peer handshake: protocol v{FEDERATION_PROTOCOL_VERSION}");
        slog::debug("server", &accepted);
        return Response::FederateWelcome {
            version: FEDERATION_PROTOCOL_VERSION,
            node: state.node.clone(),
        };
    };
    Response::error(format!("handshake rejected: {refusal}"))
}

/// One routed round frame.
struct Frame {
    /// The sender's ring-send ordinal within the session.
    round: u32,
    /// Ring index of the sender.
    from: u32,
    payload: Vec<u8>,
}

#[derive(Default)]
struct Session {
    frames: VecDeque<Frame>,
    /// The party running this session here; a session with one is
    /// active and never evicted.
    party: Option<u64>,
}

/// Routes peer frames to parties by session id, buffering frames that
/// arrive before their party exists. Kept in creation order, for
/// evicting the stalest idle session; owned by the loop thread.
#[derive(Default)]
struct SessionTable(Vec<(u64, Session)>);

impl SessionTable {
    /// The session's entry, created — evicting the oldest idle session
    /// when the table is full — if absent.
    fn entry(&mut self, session: u64) -> Result<&mut Session, String> {
        let pos = match self.0.iter().position(|(s, _)| *s == session) {
            Some(pos) => pos,
            None => {
                if self.0.len() >= MAX_SESSIONS {
                    let Some(idle) = self.0.iter().position(|(_, e)| e.party.is_none()) else {
                        return Err(format!(
                            "session registry full ({MAX_SESSIONS} active sessions)"
                        ));
                    };
                    self.0.remove(idle);
                }
                self.0.push((session, Session::default()));
                self.0.len() - 1
            }
        };
        Ok(&mut self.0[pos].1) // lint:allow(panic_path) -- pos was just found or pushed
    }

    /// Buffers one peer frame; returns the party running its session, if
    /// any.
    fn deliver(&mut self, session: u64, frame: Frame) -> Result<Option<u64>, String> {
        if frame.from >= MAX_PARTIES {
            return Err(format!(
                "party index {} exceeds the {MAX_PARTIES} cap",
                frame.from
            ));
        }
        if frame.round >= MAX_PARTIES {
            return Err(format!(
                "round {} exceeds the {MAX_PARTIES} cap",
                frame.round
            ));
        }
        if frame.payload.len() > MAX_FEDERATE_PAYLOAD_BYTES {
            return Err(format!(
                "payload {} exceeds {MAX_FEDERATE_PAYLOAD_BYTES} bytes",
                frame.payload.len()
            ));
        }
        let entry = self.entry(session)?;
        if entry.frames.len() >= MAX_BUFFERED_FRAMES {
            return Err(format!(
                "session mailbox full ({MAX_BUFFERED_FRAMES} frames buffered)"
            ));
        }
        entry.frames.push_back(frame);
        Ok(entry.party)
    }

    /// Attaches `party` to `session`, making the session active.
    fn attach(&mut self, session: u64, party: u64) -> Result<(), String> {
        let entry = self.entry(session)?;
        if entry.party.is_some() {
            return Err(format!(
                "session {session} already has a party running on this daemon"
            ));
        }
        entry.party = Some(party);
        Ok(())
    }

    fn pop(&mut self, session: u64) -> Option<Frame> {
        let (_, entry) = self.0.iter_mut().find(|(s, _)| *s == session)?;
        entry.frames.pop_front()
    }

    /// Drops `party`'s finished session (late frames recreate an idle
    /// entry that ages out through the capacity bound).
    fn remove(&mut self, session: u64, party: u64) {
        self.0
            .retain(|(s, e)| *s != session || e.party != Some(party));
    }
}

/// Timers a party arms on the loop's wheel, each naming its party.
pub(crate) enum FedTimer {
    /// No frame arrived within the round deadline while waiting for
    /// the frame of this `recv_round` (a stale timer from an earlier
    /// wait is ignored).
    Round(u64, u32),
    /// The session budget ran out.
    Budget(u64),
    /// A send backoff elapsed: try the frame again.
    Retry(u64),
    /// The dial behind this link token has not finished its handshake.
    Dial(u64, u64),
}

/// A pool job's result on its way back to the loop: the party's id and
/// what the job produced.
pub(crate) struct PartyPost(u64, JobResult);

enum JobResult {
    /// The keyed party, its encrypted initial list and the successor's
    /// resolved addresses.
    Setup(Result<(PsopParty, Vec<u8>, Vec<SocketAddr>), String>),
    Relay(PsopParty, Result<Vec<u8>, PsopError>),
    /// The job unwound before producing a result.
    Crashed,
}

/// Posts its result when dropped — so a job that panics still reports,
/// as a crash, instead of leaving its party to the session budget.
struct JobPost(Arc<LoopShared>, u64, Option<JobResult>);

impl Drop for JobPost {
    fn drop(&mut self) {
        let result = self.2.take().unwrap_or(JobResult::Crashed);
        self.0.post_party(PartyPost(self.1, result));
    }
}

/// The loop resources the ring drives parties with.
pub(crate) struct LoopIo<'a> {
    pub(crate) state: &'a Arc<ServiceState>,
    pub(crate) poller: &'a Poller,
    pub(crate) timers: &'a mut TimerWheel<TimerEvent>,
    pub(crate) shared: &'a Arc<LoopShared>,
}

impl LoopIo<'_> {
    fn arm(&mut self, after: Duration, timer: FedTimer) {
        if let Some(at) = Instant::now().checked_add(after) {
            self.timers.arm(at, TimerEvent::Fed(timer));
        }
    }
}

/// One daemon's party of a federated P-SOP run. Its step is its state:
/// a pool job holds `psop` (setup or relay), or `outgoing` is on its way
/// to the successor, or — `psop` home, nothing outgoing — the party
/// waits on its predecessor.
struct Party {
    session: u64,
    index: u32,
    parties: u32,
    successor: String,
    addrs: Vec<SocketAddr>,
    slot: Arc<ResponseSlot>,
    /// The `fed_party` span context; each outgoing frame carries a child.
    trace: TraceContext,
    started: Instant,
    round_timeout: Duration,
    /// The session budget, polled by the party's jobs once per element.
    token: CancelToken,
    psop: Option<PsopParty>,
    /// The ring frame being sent and its span context.
    outgoing: Option<(Vec<u8>, TraceContext)>,
    link: Option<Link>,
    send_round: u32,
    recv_round: u32,
    attempts: u32,
    backoff: Duration,
    /// Whether the one re-dial is spent.
    redialed: bool,
    /// The send failure a running re-dial answers.
    redial_cause: Option<String>,
    sent_bytes: u64,
    recv_bytes: u64,
    sent_msgs: u64,
    recv_msgs: u64,
    /// Wire bytes of connections a re-dial replaced.
    wire_base: u64,
    retries: u64,
    redials: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Connecting,
    Welcome,
    Ready,
    /// Closed by the successor or an injected cut; every send fails.
    Dead,
}

/// A party's outbound connection to its ring successor, polled under a
/// token carrying the party's id.
struct Link {
    token: u64,
    stream: TcpStream,
    phase: Phase,
    inbuf: Vec<u8>,
    wq: WriteQueue,
    /// What this connection put on the wire: the hello plus every frame.
    wire_sent: u64,
    /// Bytes of the frame in `wq`, counted once it drains.
    flushing: Option<u64>,
}

/// What a link event means for its party.
enum LinkEvent {
    Idle,
    Connected,
    DialFailed(String),
    Sent,
    SendFailed(String),
}

fn hello_line(node: &str) -> Vec<u8> {
    codec::line_bytes(&encode_line(&Request::FederateHello {
        version: FEDERATION_PROTOCOL_VERSION,
        node: node.to_string(),
    }))
}

impl Link {
    fn close(&mut self, poller: &Poller) {
        let _ = poller.delete(self.stream.as_raw_fd());
        let _ = self.stream.shutdown(Shutdown::Both);
        self.phase = Phase::Dead;
    }

    fn on_event(&mut self, poller: &Poller, ev: &Event, successor: &str, node: &str) -> LinkEvent {
        if self.phase == Phase::Connecting {
            match self.stream.take_error() {
                Ok(None) if ev.writable => {
                    self.phase = Phase::Welcome;
                    self.wq.push(hello_line(node));
                }
                Ok(None) => return LinkEvent::Idle,
                Ok(Some(e)) | Err(e) => {
                    return LinkEvent::DialFailed(format!("connection error: {e}"))
                }
            }
        }
        if ev.readable || ev.closed {
            if let Some(outcome) = self.read(poller, successor, node) {
                return outcome;
            }
        }
        self.flush(poller)
    }

    /// Reads what the successor sent: the welcome while handshaking,
    /// discarded noise after it (a refused frame's error line). EOF kills
    /// the link.
    fn read(&mut self, poller: &Poller, successor: &str, node: &str) -> Option<LinkEvent> {
        let lost = match codec::fill_buf(&mut self.stream, &mut self.inbuf) {
            Ok(codec::Fill::Bytes(_) | codec::Fill::WouldBlock) => None,
            Ok(codec::Fill::Eof) if self.phase == Phase::Welcome => Some(format!(
                "protocol error: peer {successor} closed the connection during the handshake"
            )),
            Ok(codec::Fill::Eof) => Some("connection error: peer closed the connection".into()),
            Err(e) => Some(format!("connection error: {e}")),
        };
        if let Some(e) = lost {
            let handshaking = self.phase == Phase::Welcome;
            self.close(poller);
            return Some(if handshaking {
                LinkEvent::DialFailed(e)
            } else if self.flushing.take().is_some() {
                LinkEvent::SendFailed(e)
            } else {
                LinkEvent::Idle
            });
        }
        if self.phase != Phase::Welcome {
            self.inbuf.clear();
            return None;
        }
        let welcome = match codec::try_extract_line(&mut self.inbuf, MAX_WELCOME_LINE) {
            Ok(None) => return None,
            Ok(Some(Ok(line))) => check_welcome(&line, successor, node),
            Ok(Some(Err(e))) => Err(format!("connection error: {e}")),
            Err(_) => Err(format!(
                "protocol error: peer {successor} handshake answer exceeds {MAX_WELCOME_LINE} bytes"
            )),
        };
        if let Err(e) = welcome {
            return Some(LinkEvent::DialFailed(e));
        }
        self.phase = Phase::Ready;
        self.inbuf.clear();
        self.wire_sent = hello_line(node).len() as u64;
        Some(LinkEvent::Connected)
    }

    /// Writes what the socket takes; a drained frame is a completed send.
    fn flush(&mut self, poller: &Poller) -> LinkEvent {
        let fd = self.stream.as_raw_fd();
        match self.wq.write_to(&mut self.stream) {
            Err(e) => {
                let handshaking = self.phase == Phase::Welcome;
                self.close(poller);
                let e = format!("connection error: {e}");
                if handshaking {
                    LinkEvent::DialFailed(e)
                } else {
                    LinkEvent::SendFailed(e)
                }
            }
            Ok(WriteProgress::Blocked) => {
                let _ = poller.modify(fd, self.token, Interest::BOTH);
                LinkEvent::Idle
            }
            Ok(WriteProgress::Drained) => {
                let _ = poller.modify(fd, self.token, Interest::READABLE);
                let Some(bytes) = self.flushing.take() else {
                    return LinkEvent::Idle;
                };
                self.wire_sent += bytes;
                LinkEvent::Sent
            }
        }
    }
}

/// Starts a non-blocking connect to `addr`, registered under `token`.
fn start_dial(poller: &Poller, token: u64, addr: &SocketAddr) -> std::io::Result<TcpStream> {
    let stream = indaas_netpoll::connect_nonblocking(addr)?;
    stream.set_nodelay(true)?;
    poller.add(stream.as_raw_fd(), token, Interest::WRITABLE)?;
    Ok(stream)
}

/// Checks the successor's handshake answer the way every dialer must.
fn check_welcome(line: &str, successor: &str, node: &str) -> Result<(), String> {
    match decode_line::<Response>(line.trim()) {
        Ok(Response::FederateWelcome { version, .. }) if version != FEDERATION_PROTOCOL_VERSION => {
            Err(format!(
                "protocol error: peer {successor} negotiated unsupported protocol version {version}"
            ))
        }
        Ok(Response::FederateWelcome { node: theirs, .. }) if theirs == node => Err(format!(
            "configuration error: peer {successor} is this daemon itself (node {theirs:?}); \
             refusing self-peering"
        )),
        Ok(Response::FederateWelcome { .. }) => Ok(()),
        Ok(Response::Error { message }) => Err(format!("remote error: {message}")),
        Ok(other) => Err(format!(
            "protocol error: peer {successor} answered the handshake with {other:?}"
        )),
        Err(e) => Err(format!(
            "protocol error: peer {successor} handshake unparseable: {e}"
        )),
    }
}

/// The party's first pool job: everything that blocks or burns CPU
/// before its first frame can leave.
fn setup(
    state: &ServiceState,
    successor: &str,
    (index, parties): (u32, u32),
    config: &PsopConfig,
    token: &CancelToken,
) -> Result<(PsopParty, Vec<u8>, Vec<SocketAddr>), String> {
    // Reject self-connections before any byte leaves this daemon: a
    // successor resolving to our own listen address would hand this
    // party's encrypted list straight back to itself.
    let mut addrs: Vec<SocketAddr> = successor
        .to_socket_addrs()
        .map_err(|e| format!("dialing successor {successor}: connection error: {e}"))?
        .collect();
    // The dial tries one address: the first of this daemon's own family.
    addrs.sort_by_key(|a| a.is_ipv4() != state.local_addr.is_ipv4());
    if addrs.contains(&state.local_addr) {
        return Err(format!(
            "successor {successor} is this daemon's own listen address; refusing self-peering"
        ));
    }
    if !state.peers.allows(successor) && !addrs.iter().any(|a| state.peers.addrs.contains(a)) {
        return Err(not_allowed(successor));
    }
    let dataset = provider_component_set(&state.db.snapshot());
    if dataset.is_empty() {
        return Err(
            "dependency database holds no components; ingest records before federating".into(),
        );
    }
    let mut psop = PsopParty::new(index as usize, parties as usize, config, token)
        .map_err(|e| e.to_string())?;
    let payload = psop
        .initial_payload(&dataset, config.multiset)
        .map_err(|e| e.to_string())?;
    Ok((psop, payload, addrs))
}

/// The loop's federation state: the session table and every live party.
#[derive(Default)]
pub(crate) struct Ring {
    table: SessionTable,
    parties: HashMap<u64, Party>,
    next_id: u64,
}

impl Ring {
    /// Admits a `FederateStart`: validates it inline, attaches its
    /// session, arms the session budget and submits the setup job.
    pub(crate) fn start(&mut self, io: &mut LoopIo, request: Request, slot: Arc<ResponseSlot>) {
        let Request::FederateStart {
            session,
            index,
            parties,
            successor,
            seed,
            multiset,
            round_timeout_ms,
        } = request
        else {
            return;
        };
        // The coordinator may only shorten the server's round deadline.
        // The budget is `round_timeout × (parties + 2)` — k rounds, the
        // agent hop and one of slack — saturating, never panicking.
        let ceiling = io.state.config.round_timeout;
        let round_timeout = round_timeout_ms
            .map(Duration::from_millis)
            .unwrap_or(ceiling)
            .min(ceiling);
        let budget = round_timeout
            .checked_mul(parties.saturating_add(2))
            .unwrap_or(Duration::MAX);
        self.next_id += 1;
        let id = self.next_id;
        let party = Party {
            session,
            index,
            parties,
            successor: successor.clone(),
            addrs: Vec::new(),
            // The party span parents everything this daemon does for the
            // session: outgoing frames carry its children, so the
            // successor's `fed_frame` spans link back here.
            trace: slot.ctx.child(),
            slot,
            started: Instant::now(),
            round_timeout,
            token: CancelToken::with_deadline(budget),
            psop: None,
            outgoing: None,
            link: None,
            send_round: 0,
            recv_round: 0,
            attempts: 0,
            backoff: INITIAL_SEND_BACKOFF,
            redialed: false,
            redial_cause: None,
            sent_bytes: 0,
            recv_bytes: 0,
            sent_msgs: 0,
            recv_msgs: 0,
            wire_base: 0,
            retries: 0,
            redials: 0,
        };
        let token = party.token.clone();
        self.parties.insert(id, party);
        let admitted = if !(2..=MAX_PARTIES).contains(&parties) {
            Err(format!(
                "parties must be in 2..={MAX_PARTIES} (got {parties})"
            ))
        } else if index >= parties {
            Err(format!(
                "ring index {index} out of range for {parties} parties"
            ))
        } else if successor.parse::<SocketAddr>().is_ok() && !io.state.peers.allows(&successor) {
            // A hostname cannot be judged without the resolver; the
            // setup job checks its addresses instead.
            Err(not_allowed(&successor))
        } else {
            self.table.attach(session, id)
        };
        if let Err(e) = admitted {
            return self.finish(io, id, Err(e));
        }
        io.arm(budget, FedTimer::Budget(id));
        let (state, config) = (Arc::clone(io.state), PsopConfig { seed, multiset });
        self.submit(io, id, move || {
            let ring = (index, parties);
            JobResult::Setup(setup(&state, &successor, ring, &config, &token))
        });
    }

    /// Runs `job` on the pool under the party's trace; its result comes
    /// back through the loop's inbox.
    fn submit(
        &mut self,
        io: &mut LoopIo,
        id: u64,
        job: impl FnOnce() -> JobResult + Send + 'static,
    ) {
        let Some(p) = self.parties.get(&id) else {
            return;
        };
        let (shared, trace) = (Arc::clone(io.shared), p.trace);
        let submitted = io.state.scheduler.submit(None, move |_| {
            let mut post = JobPost(shared, id, None);
            let _scope = TraceScope::enter(trace);
            post.2 = Some(job());
        });
        if let Err(e) = submitted {
            self.finish(io, id, Err(e.to_string()));
        }
    }

    /// A pool job reported back.
    pub(crate) fn on_post(&mut self, io: &mut LoopIo, PartyPost(id, result): PartyPost) {
        // Gone already: the budget or shutdown ended it mid-job.
        let Some(p) = self.parties.get_mut(&id) else {
            return;
        };
        match result {
            JobResult::Setup(Ok((psop, payload, addrs))) => {
                p.psop = Some(psop);
                p.addrs = addrs;
                self.queue_send(io, id, payload);
            }
            JobResult::Relay(psop, Ok(payload)) => {
                p.psop = Some(psop);
                self.queue_send(io, id, payload);
            }
            JobResult::Setup(Err(e)) => self.finish(io, id, Err(e)),
            JobResult::Relay(_, Err(e)) => self.finish(io, id, Err(e.to_string())),
            JobResult::Crashed => {
                self.finish(io, id, Err("audit job crashed; see server log".into()));
            }
        }
    }

    /// Starts sending this party's next ring frame, stamped with a fresh
    /// child of the party span.
    fn queue_send(&mut self, io: &mut LoopIo, id: u64, payload: Vec<u8>) {
        let Some(p) = self.parties.get_mut(&id) else {
            return;
        };
        if payload.len() > MAX_FEDERATE_PAYLOAD_BYTES {
            let e = format!(
                "transport closed: protocol error: frame payload {} exceeds \
                 {MAX_FEDERATE_PAYLOAD_BYTES} bytes",
                payload.len()
            );
            return self.finish(io, id, Err(e));
        }
        p.outgoing = Some((payload, p.trace.child()));
        p.attempts = 0;
        p.backoff = INITIAL_SEND_BACKOFF;
        self.try_send(io, id);
    }

    /// One attempt at the outgoing frame, dialing first if there is no
    /// link yet.
    fn try_send(&mut self, io: &mut LoopIo, id: u64) {
        let Some(p) = self.parties.get_mut(&id) else {
            return;
        };
        let Some((payload, ctx)) = &p.outgoing else {
            return;
        };
        let Some(link) = p.link.as_mut() else {
            return self.dial(io, id);
        };
        let event = match link.phase {
            Phase::Connecting | Phase::Welcome => return,
            Phase::Dead => LinkEvent::SendFailed(format!(
                "connection error: {}",
                std::io::Error::from_raw_os_error(32)
            )),
            // Chaos hook: `fed.frame.send` fails, drops or severs one ring
            // hop per attempt — the fault classes retry, backoff and
            // re-dial exist to absorb.
            Phase::Ready => match indaas_faultinj::point(points::FED_FRAME_SEND) {
                FaultAction::Pass => {
                    let frame = codec::frame_bytes(&encode_traced_round_frame(
                        p.session,
                        p.send_round,
                        p.index,
                        payload,
                        ctx,
                    ));
                    link.flushing = Some(frame.len() as u64);
                    link.wq.push(frame);
                    link.flush(io.poller)
                }
                FaultAction::Error => LinkEvent::SendFailed(format!(
                    "connection error: injected fault at {}",
                    points::FED_FRAME_SEND
                )),
                // Lost on the floor but reported sent; the successor's
                // round deadline is what notices.
                FaultAction::Drop => LinkEvent::Sent,
                FaultAction::Disconnect => {
                    link.close(io.poller);
                    LinkEvent::SendFailed(format!(
                        "connection error: injected disconnect at {}",
                        points::FED_FRAME_SEND
                    ))
                }
            },
        };
        self.link_outcome(io, id, event);
    }

    fn link_outcome(&mut self, io: &mut LoopIo, id: u64, event: LinkEvent) {
        match event {
            LinkEvent::Idle => {}
            LinkEvent::Connected => {
                let redial = self
                    .parties
                    .get_mut(&id)
                    .filter(|p| p.redial_cause.is_some());
                if let Some(p) = redial {
                    p.redial_cause = None;
                    p.redials += 1;
                    p.attempts = 0;
                    p.backoff = INITIAL_SEND_BACKOFF;
                }
                self.try_send(io, id);
            }
            LinkEvent::DialFailed(e) => self.dial_failed(io, id, e),
            LinkEvent::Sent => self.sent(io, id),
            LinkEvent::SendFailed(e) => self.send_failed(io, id, e),
        }
    }

    /// Dials the successor: a non-blocking connect under a dial deadline.
    fn dial(&mut self, io: &mut LoopIo, id: u64) {
        let Some(p) = self.parties.get_mut(&id) else {
            return;
        };
        let token = LINK_TOKEN_BIT | id << 1 | u64::from(p.redialed);
        // Chaos hook: an armed `fed.dial` point fails the dial before a
        // single byte leaves this daemon.
        let stream = if indaas_faultinj::point(points::FED_DIAL) != FaultAction::Pass {
            Err(format!(
                "connection error: injected fault at {}",
                points::FED_DIAL
            ))
        } else if let Some(addr) = p.addrs.first() {
            start_dial(io.poller, token, addr).map_err(|e| format!("connection error: {e}"))
        } else {
            Err(format!(
                "configuration error: {} resolves to no address",
                p.successor
            ))
        };
        match stream {
            Ok(stream) => {
                p.link = Some(Link {
                    token,
                    stream,
                    phase: Phase::Connecting,
                    inbuf: Vec::new(),
                    wq: WriteQueue::new(),
                    wire_sent: 0,
                    flushing: None,
                });
                let after = p.round_timeout;
                io.arm(after, FedTimer::Dial(id, token));
            }
            Err(e) => self.dial_failed(io, id, e),
        }
    }

    fn dial_failed(&mut self, io: &mut LoopIo, id: u64, err: String) {
        let Some(p) = self.parties.get_mut(&id) else {
            return;
        };
        let e = match p.redial_cause.take() {
            None => format!("dialing successor {}: {err}", p.successor),
            Some(cause) => format!(
                "transport closed: connection error: sending to ring successor failed \
                 ({cause}) and the re-dial failed too ({err})"
            ),
        };
        self.finish(io, id, Err(e));
    }

    /// A failed attempt: back off and retry, then re-dial once, then fail.
    fn send_failed(&mut self, io: &mut LoopIo, id: u64, err: String) {
        let Some(p) = self.parties.get_mut(&id) else {
            return;
        };
        p.attempts += 1;
        if p.attempts < MAX_SEND_ATTEMPTS {
            p.retries += 1;
            let after = p.backoff.min(p.round_timeout);
            p.backoff = p.backoff.saturating_mul(2);
            return io.arm(after, FedTimer::Retry(id));
        }
        if p.redialed {
            return self.finish(io, id, Err(format!("transport closed: {err}")));
        }
        // Retries on this connection are spent. One re-dial per party
        // run: a successor that crashed and came back (or whose
        // connection a middlebox severed) gets a second chance.
        p.redialed = true;
        p.redial_cause = Some(err);
        if let Some(mut old) = p.link.take() {
            p.wire_base += old.wire_sent;
            old.close(io.poller);
        }
        self.dial(io, id);
    }

    fn sent(&mut self, io: &mut LoopIo, id: u64) {
        let Some(p) = self.parties.get_mut(&id) else {
            return;
        };
        let Some((payload, _)) = p.outgoing.take() else {
            return;
        };
        p.send_round += 1;
        p.sent_bytes += payload.len() as u64;
        p.sent_msgs += 1;
        self.next_frame(io, id);
    }

    /// Takes the next buffered frame, or waits for one under the round
    /// deadline.
    fn next_frame(&mut self, io: &mut LoopIo, id: u64) {
        let Some(p) = self.parties.get(&id) else {
            return;
        };
        match self.table.pop(p.session) {
            Some(frame) => self.on_frame(io, id, frame),
            None => {
                let (after, awaiting) = (p.round_timeout, p.recv_round);
                io.arm(after, FedTimer::Round(id, awaiting));
            }
        }
    }

    fn on_frame(&mut self, io: &mut LoopIo, id: u64, frame: Frame) {
        let Some(p) = self.parties.get_mut(&id) else {
            return;
        };
        let predecessor = (p.index + p.parties - 1) % p.parties;
        if frame.from != predecessor {
            let e = format!(
                "transport protocol error: frame from party {} but only the ring \
                 predecessor {predecessor} may send here",
                frame.from
            );
            return self.finish(io, id, Err(e));
        }
        if frame.round != p.recv_round {
            let e = format!(
                "transport protocol error: frame round {} arrived where round {} was expected",
                frame.round, p.recv_round
            );
            return self.finish(io, id, Err(e));
        }
        p.recv_round += 1;
        p.recv_bytes += frame.payload.len() as u64;
        p.recv_msgs += 1;
        if p.recv_round == p.parties {
            // The k-th frame is this party's own list with every layer
            // on: it goes to the agent, inside the FederateDone answer.
            p.sent_bytes += frame.payload.len() as u64;
            p.sent_msgs += 1;
            return self.finish(io, id, Ok(frame.payload));
        }
        let Some(mut psop) = p.psop.take() else {
            return;
        };
        let msg = Message {
            from: frame.from as usize,
            to: p.index as usize,
            payload: frame.payload,
        };
        self.submit(io, id, move || {
            let relayed = psop.relay(&msg);
            JobResult::Relay(psop, relayed)
        });
    }

    /// One round frame from an inbound peer session. An error is the line
    /// the loop answers before dropping the peer.
    pub(crate) fn receive(&mut self, io: &mut LoopIo, frame: &[u8]) -> Result<(), String> {
        let (session, round, from, payload, ctx) =
            decode_traced_round_frame(frame).map_err(|e| format!("bad peer frame: {e}"))?;
        let started = Instant::now();
        let frame = Frame {
            round,
            from,
            payload: payload.to_vec(),
        };
        let party = self
            .table
            .deliver(session, frame)
            .map_err(|e| format!("frame rejected: {e}"))?;
        // Absent only when the sender wrote an all-zero context. The
        // sender minted it as a child of its own fed_party span, so
        // recording it verbatim stitches the cross-daemon parent link.
        if let Some(c) = ctx {
            io.state.telemetry.spans.record(
                c,
                names::SPAN_FED_FRAME,
                format!("session {session} round {round} from {from}"),
                started.elapsed().as_micros() as u64,
            );
        }
        let waiting = |p: &Party| p.psop.is_some() && p.outgoing.is_none();
        if let Some(id) = party.filter(|id| self.parties.get(id).is_some_and(waiting)) {
            self.next_frame(io, id);
        }
        Ok(())
    }

    /// A readiness event on a successor link.
    pub(crate) fn link_event(&mut self, io: &mut LoopIo, token: u64, ev: &Event) {
        let id = (token & !LINK_TOKEN_BIT) >> 1;
        let Some(p) = self.parties.get_mut(&id) else {
            return;
        };
        let Some(link) = p.link.as_mut().filter(|l| l.token == token) else {
            return;
        };
        let event = link.on_event(io.poller, ev, &p.successor, &io.state.node);
        self.link_outcome(io, id, event);
    }

    pub(crate) fn on_timer(&mut self, io: &mut LoopIo, timer: FedTimer) {
        match timer {
            FedTimer::Round(party, awaiting) => {
                let Some(p) = self.parties.get(&party) else {
                    return;
                };
                if p.psop.is_some() && p.outgoing.is_none() && p.recv_round == awaiting {
                    let e = format!(
                        "round deadline exceeded: no frame within the {}ms round deadline",
                        p.round_timeout.as_millis()
                    );
                    self.finish(io, party, Err(e));
                }
            }
            FedTimer::Budget(party) => {
                let e = "round deadline exceeded: federation session deadline exceeded";
                self.finish(io, party, Err(e.into()));
            }
            FedTimer::Retry(party) => self.try_send(io, party),
            FedTimer::Dial(party, link) => {
                let handshaking = self.parties.get(&party).and_then(|p| p.link.as_ref());
                if handshaking.is_some_and(|l| {
                    l.token == link && matches!(l.phase, Phase::Connecting | Phase::Welcome)
                }) {
                    self.dial_failed(io, party, "connection error: connection timed out".into());
                }
            }
        }
    }

    /// The shutdown drain: every live party fails, its token is
    /// cancelled and its link closed — before the loop closes the
    /// outboxes its answers ride.
    pub(crate) fn shutdown(&mut self, io: &mut LoopIo) {
        let ids: Vec<u64> = self.parties.keys().copied().collect();
        for id in ids {
            self.finish(io, id, Err("daemon is shutting down".into()));
        }
    }

    /// Ends a party — done, failed or cut — exactly once: cancels its
    /// token, releases its session and link, records its `fed_party`
    /// span and counters, and answers the coordinator.
    fn finish(&mut self, io: &mut LoopIo, id: u64, result: Result<Vec<u8>, String>) {
        let Some(mut p) = self.parties.remove(&id) else {
            return;
        };
        p.token.cancel();
        self.table.remove(p.session, id);
        let mut wire = p.wire_base;
        if let Some(mut link) = p.link.take() {
            wire += link.wire_sent;
            link.close(io.poller);
        }
        let telemetry = &io.state.telemetry;
        let elapsed_us = p.started.elapsed().as_micros() as u64;
        telemetry.fed_party_us.record(elapsed_us);
        telemetry.spans.record(
            p.trace,
            names::SPAN_FED_PARTY,
            format!("session {}", p.session),
            elapsed_us,
        );
        p.slot.fulfill(match result {
            Ok(payload) => {
                telemetry.fed_wire_bytes_total.add(wire);
                telemetry.fed_rounds_total.add(p.sent_msgs);
                telemetry.fed_frame_retries_total.add(p.retries);
                telemetry.fed_redials_total.add(p.redials);
                Response::FederateDone {
                    session: p.session,
                    payload: encode_payload(&payload),
                    sent_bytes: p.sent_bytes,
                    recv_bytes: p.recv_bytes,
                    sent_msgs: p.sent_msgs,
                    recv_msgs: p.recv_msgs,
                    wire_sent_bytes: wire,
                }
            }
            Err(e) => {
                telemetry.fed_party_failures_total.inc();
                Response::error(format!("federated audit failed: {e}"))
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indaas_deps::{parse_records, DepDb};

    fn frame(round: u32) -> Frame {
        Frame {
            round,
            from: 0,
            payload: vec![round as u8],
        }
    }

    #[test]
    fn session_buffers_fifo_and_bounds_frames() {
        let mut table = SessionTable::default();
        for i in 0..MAX_BUFFERED_FRAMES {
            assert_eq!(table.deliver(1, frame(i as u32 % MAX_PARTIES)), Ok(None));
        }
        let err = table.deliver(1, frame(0)).unwrap_err();
        assert!(err.contains("full"), "got: {err}");
        assert_eq!(table.pop(1).map(|f| f.round), Some(0));
        assert_eq!(table.pop(1).map(|f| f.round), Some(1));
    }

    #[test]
    fn deliver_validates_bounds() {
        let mut table = SessionTable::default();
        let bad_from = Frame {
            from: MAX_PARTIES,
            ..frame(0)
        };
        assert!(table.deliver(1, bad_from).unwrap_err().contains("cap"));
        assert!(table
            .deliver(1, frame(MAX_PARTIES))
            .unwrap_err()
            .contains("cap"));
        table.attach(1, 9).unwrap();
        assert_eq!(table.deliver(1, frame(0)), Ok(Some(9)));
    }

    #[test]
    fn an_active_session_is_never_evicted_by_churn() {
        let mut table = SessionTable::default();
        table.attach(1, 7).unwrap();
        table.deliver(1, frame(0)).unwrap();
        for s in 2..=(MAX_SESSIONS as u64 + 10) {
            table.deliver(s, frame(0)).unwrap();
        }
        assert_eq!(table.0.len(), MAX_SESSIONS);
        assert!(table.attach(1, 8).is_err(), "session 1 is still active");
        assert_eq!(table.pop(1).map(|f| f.round), Some(0), "with its frames");
        table.remove(1, 8);
        assert_eq!(table.0.len(), MAX_SESSIONS, "only its own party removes it");
        table.remove(1, 7);
        assert_eq!(table.0.len(), MAX_SESSIONS - 1);
    }

    #[test]
    fn a_table_full_of_active_sessions_refuses_new_ones() {
        let mut table = SessionTable::default();
        for s in 0..MAX_SESSIONS as u64 {
            table.attach(s, s).unwrap();
        }
        let err = table.deliver(10_000, frame(0)).unwrap_err();
        assert!(err.contains("full"), "got: {err}");
        assert!(table.attach(10_000, 1).is_err());
        // Existing sessions still take frames; finishing one frees a slot.
        assert_eq!(table.deliver(0, frame(0)), Ok(Some(0)));
        table.remove(0, 0);
        assert_eq!(table.deliver(10_000, frame(0)), Ok(None));
        assert!(table.attach(3, 99).unwrap_err().contains("already"));
    }

    #[test]
    fn open_allow_list_allows_anyone() {
        assert!(PeerAllowList::resolve_at_bind(&[]).allows("10.0.0.1:9999"));
    }

    #[test]
    fn allow_list_restricts() {
        let list = PeerAllowList::resolve_at_bind(&["127.0.0.1:4914".to_string()]);
        assert!(list.allows("127.0.0.1:4914"));
        assert!(!list.allows("127.0.0.1:4915"));
        assert!(!list.allows("unresolvable.invalid:4914"));
    }

    #[test]
    fn textual_and_resolved_matches_agree() {
        let list = PeerAllowList::resolve_at_bind(&["localhost:4914".to_string()]);
        assert!(list.allows("localhost:4914"), "textual match");
        assert!(list.allows("127.0.0.1:4914"), "resolved match");
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
        assert_eq!(
            provider_component_set(&db),
            vec!["core1", "intel-x5550", "libc6", "openssl-1.0.1f", "tor1"]
        );
    }
}

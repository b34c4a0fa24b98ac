//! An in-process multi-party message network with byte accounting, and the
//! [`Transport`] abstraction federated deployments implement over TCP.
//!
//! The PIA protocols (P-SOP and the Kissner–Song baseline) are multi-party:
//! proxies operated by different cloud providers exchange encrypted
//! datasets over the network. This substrate runs those protocols entirely
//! in-process while faithfully accounting for the *traffic* each party
//! sends — which is exactly what Figure 8(a) of the paper measures — and
//! optionally converting bytes to an estimated wall-clock transfer time via
//! a simple link model.
//!
//! The protocol engines in `indaas-pia` are written against the
//! [`Transport`] trait, so the same round structure runs either fully
//! in-process (every party driven by one loop over a [`SimNetwork`]) or
//! genuinely distributed (each `indaas serve` daemon holding a one-party
//! transport view wired over its peer sessions — see `indaas-federation`).
//!
//! # Examples
//!
//! ```
//! use indaas_simnet::SimNetwork;
//!
//! let mut net = SimNetwork::new(3);
//! net.send(0, 1, vec![0u8; 100]);
//! assert_eq!(net.recv(1).unwrap().payload.len(), 100);
//! assert_eq!(net.stats().sent_bytes(0), 100);
//! assert_eq!(net.stats().recv_bytes(1), 100);
//! ```

#![forbid(unsafe_code)]

use std::collections::VecDeque;

/// Index of a party on the network.
pub type PartyId = usize;

/// A delivered message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Sending party.
    pub from: PartyId,
    /// Receiving party.
    pub to: PartyId,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Per-party traffic counters.
#[derive(Clone, Debug, Default)]
pub struct TrafficStats {
    sent: Vec<u64>,
    received: Vec<u64>,
    messages: u64,
}

impl TrafficStats {
    /// An all-zero counter set for `parties` endpoints — public so
    /// out-of-process transports (which observe only their own party's
    /// traffic) can account with the same arithmetic the simulator uses.
    pub fn new(parties: usize) -> Self {
        TrafficStats {
            sent: vec![0; parties],
            received: vec![0; parties],
            messages: 0,
        }
    }

    /// Reassembles stats from per-party counters gathered out of process
    /// (a federation coordinator merging each daemon's own accounting).
    ///
    /// # Panics
    ///
    /// Panics if the two vectors differ in length.
    pub fn from_parts(sent: Vec<u64>, received: Vec<u64>, messages: u64) -> Self {
        assert_eq!(sent.len(), received.len(), "per-party counters must align");
        TrafficStats {
            sent,
            received,
            messages,
        }
    }

    /// Records one `bytes`-byte message from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if either party id is out of range.
    pub fn record(&mut self, from: PartyId, to: PartyId, bytes: u64) {
        self.sent[from] += bytes;
        self.received[to] += bytes;
        self.messages += 1;
    }

    /// Bytes sent by `party`.
    pub fn sent_bytes(&self, party: PartyId) -> u64 {
        self.sent[party]
    }

    /// Bytes received by `party`.
    pub fn recv_bytes(&self, party: PartyId) -> u64 {
        self.received[party]
    }

    /// Total bytes sent across all parties.
    pub fn total_bytes(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Maximum bytes sent by any single party — the per-provider bandwidth
    /// overhead Figure 8(a) plots.
    pub fn max_sent_bytes(&self) -> u64 {
        self.sent.iter().copied().max().unwrap_or(0)
    }

    /// Number of messages delivered.
    pub fn message_count(&self) -> u64 {
        self.messages
    }
}

/// A simple link model for converting bytes into estimated transfer time.
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    /// Fixed per-message latency in microseconds.
    pub latency_us: f64,
    /// Link throughput in bytes per microsecond (e.g. 125.0 = 1 Gbit/s).
    pub bytes_per_us: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        // 0.5 ms latency, 1 Gbit/s: a conservative intra-datacenter WAN.
        LinkModel {
            latency_us: 500.0,
            bytes_per_us: 125.0,
        }
    }
}

impl LinkModel {
    /// Estimated microseconds to transfer one message of `bytes` bytes.
    pub fn transfer_us(&self, bytes: u64) -> f64 {
        self.latency_us + bytes as f64 / self.bytes_per_us
    }
}

/// The in-process network: per-party FIFO inboxes plus traffic accounting.
#[derive(Clone, Debug)]
pub struct SimNetwork {
    inboxes: Vec<VecDeque<Message>>,
    stats: TrafficStats,
}

impl SimNetwork {
    /// Creates a network with `parties` endpoints (ids `0..parties`).
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "network needs at least one party");
        SimNetwork {
            inboxes: (0..parties).map(|_| VecDeque::new()).collect(),
            stats: TrafficStats::new(parties),
        }
    }

    /// Number of parties.
    pub fn parties(&self) -> usize {
        self.inboxes.len()
    }

    /// Sends `payload` from `from` to `to` (queued until received).
    ///
    /// # Panics
    ///
    /// Panics if either party id is out of range.
    pub fn send(&mut self, from: PartyId, to: PartyId, payload: Vec<u8>) {
        assert!(
            from < self.parties() && to < self.parties(),
            "party out of range"
        );
        self.stats.record(from, to, payload.len() as u64);
        self.inboxes[to].push_back(Message { from, to, payload });
    }

    /// Receives the oldest pending message for `to`, if any.
    pub fn recv(&mut self, to: PartyId) -> Option<Message> {
        self.inboxes[to].pop_front()
    }

    /// Receives, panicking if the protocol got its message order wrong.
    ///
    /// # Panics
    ///
    /// Panics when no message is pending — a protocol bug.
    pub fn recv_expect(&mut self, to: PartyId) -> Message {
        self.recv(to)
            .unwrap_or_else(|| panic!("party {to} expected a message but inbox is empty"))
    }

    /// Pending message count for a party.
    pub fn pending(&self, to: PartyId) -> usize {
        self.inboxes[to].len()
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Estimated total transfer time under `model`, treating messages as
    /// sequential (an upper bound; ring protocols are in fact sequential).
    pub fn estimated_transfer_us(&self, model: &LinkModel) -> f64 {
        model.latency_us * self.stats.messages as f64
            + self.stats.total_bytes() as f64 / model.bytes_per_us
    }
}

/// Why a transport operation failed.
///
/// The in-process [`SimNetwork`] only ever reports [`TransportError::Protocol`]
/// (a driver bug: receiving where nothing is pending, or addressing a party
/// that does not exist). Real transports additionally surface peers that
/// disappear and per-round deadlines that expire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer hung up or the underlying stream failed.
    Closed(String),
    /// The per-round deadline expired before the message arrived.
    Timeout(String),
    /// The protocol itself was violated (bad addressing, framing, order).
    Protocol(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed(m) => write!(f, "transport closed: {m}"),
            TransportError::Timeout(m) => write!(f, "round deadline exceeded: {m}"),
            TransportError::Protocol(m) => write!(f, "transport protocol error: {m}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A multi-party message substrate the PIA protocol engines run over.
///
/// Parties are dense indices `0..parties()`. An implementation either
/// hosts *every* party (the [`SimNetwork`]: one driver loop plays the
/// whole ring) or exactly *one* party (a federated daemon: `send` is only
/// valid with `from` equal to the local party, `recv` only for it), in
/// which case out-of-scope addressing is a [`TransportError::Protocol`].
///
/// Implementations must account every delivered payload in [`stats`] so
/// the paper's Figure 8 bandwidth cross-checks hold identically on any
/// substrate.
///
/// [`stats`]: Transport::stats
pub trait Transport {
    /// Number of parties addressable on this transport.
    fn parties(&self) -> usize;

    /// Sends `payload` from `from` to `to`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Protocol`] for out-of-range or (on a one-party
    /// view) non-local `from`; [`TransportError::Closed`] if the peer link
    /// is gone.
    fn send(&mut self, from: PartyId, to: PartyId, payload: Vec<u8>) -> Result<(), TransportError>;

    /// Receives the next message addressed to `to`, blocking (on real
    /// transports) until it arrives or the round deadline expires.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] on deadline expiry,
    /// [`TransportError::Closed`] on peer loss, and
    /// [`TransportError::Protocol`] when the driver's round structure is
    /// wrong (simulated inbox empty, non-local `to`).
    fn recv(&mut self, to: PartyId) -> Result<Message, TransportError>;

    /// Traffic counters accumulated so far.
    fn stats(&self) -> &TrafficStats;
}

impl Transport for SimNetwork {
    fn parties(&self) -> usize {
        SimNetwork::parties(self)
    }

    fn send(&mut self, from: PartyId, to: PartyId, payload: Vec<u8>) -> Result<(), TransportError> {
        if from >= SimNetwork::parties(self) || to >= SimNetwork::parties(self) {
            return Err(TransportError::Protocol(format!(
                "party out of range: {from} -> {to} on a {}-party network",
                SimNetwork::parties(self)
            )));
        }
        SimNetwork::send(self, from, to, payload);
        Ok(())
    }

    fn recv(&mut self, to: PartyId) -> Result<Message, TransportError> {
        if to >= SimNetwork::parties(self) {
            return Err(TransportError::Protocol(format!(
                "party {to} out of range on a {}-party network",
                SimNetwork::parties(self)
            )));
        }
        SimNetwork::recv(self, to).ok_or_else(|| {
            TransportError::Protocol(format!("party {to} expected a message but inbox is empty"))
        })
    }

    fn stats(&self) -> &TrafficStats {
        SimNetwork::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_delivery_per_party() {
        let mut net = SimNetwork::new(2);
        net.send(0, 1, vec![1]);
        net.send(0, 1, vec![2]);
        assert_eq!(net.recv(1).unwrap().payload, vec![1]);
        assert_eq!(net.recv(1).unwrap().payload, vec![2]);
        assert!(net.recv(1).is_none());
    }

    #[test]
    fn traffic_accounting() {
        let mut net = SimNetwork::new(3);
        net.send(0, 1, vec![0; 10]);
        net.send(1, 2, vec![0; 20]);
        net.send(2, 0, vec![0; 30]);
        let s = net.stats();
        assert_eq!(s.sent_bytes(0), 10);
        assert_eq!(s.sent_bytes(1), 20);
        assert_eq!(s.sent_bytes(2), 30);
        assert_eq!(s.recv_bytes(0), 30);
        assert_eq!(s.total_bytes(), 60);
        assert_eq!(s.max_sent_bytes(), 30);
        assert_eq!(s.message_count(), 3);
    }

    #[test]
    fn self_send_allowed() {
        let mut net = SimNetwork::new(1);
        net.send(0, 0, vec![9; 5]);
        assert_eq!(net.recv_expect(0).payload, vec![9; 5]);
    }

    #[test]
    fn pending_counts() {
        let mut net = SimNetwork::new(2);
        assert_eq!(net.pending(1), 0);
        net.send(0, 1, vec![1]);
        net.send(0, 1, vec![2]);
        assert_eq!(net.pending(1), 2);
        net.recv(1);
        assert_eq!(net.pending(1), 1);
    }

    #[test]
    #[should_panic(expected = "party out of range")]
    fn out_of_range_send_panics() {
        let mut net = SimNetwork::new(2);
        net.send(0, 5, vec![]);
    }

    #[test]
    #[should_panic(expected = "inbox is empty")]
    fn recv_expect_panics_when_empty() {
        let mut net = SimNetwork::new(1);
        let _ = net.recv_expect(0);
    }

    #[test]
    fn transport_trait_mirrors_inherent_api() {
        let mut net = SimNetwork::new(2);
        Transport::send(&mut net, 0, 1, vec![7; 4]).unwrap();
        let msg = Transport::recv(&mut net, 1).unwrap();
        assert_eq!(msg.payload, vec![7; 4]);
        assert_eq!(Transport::stats(&net).sent_bytes(0), 4);
        // Errors instead of panics through the trait.
        assert!(matches!(
            Transport::send(&mut net, 0, 9, vec![]),
            Err(TransportError::Protocol(_))
        ));
        assert!(matches!(
            Transport::recv(&mut net, 1),
            Err(TransportError::Protocol(_))
        ));
        assert!(matches!(
            Transport::recv(&mut net, 5),
            Err(TransportError::Protocol(_))
        ));
    }

    #[test]
    fn stats_from_parts_round_trips() {
        let s = TrafficStats::from_parts(vec![10, 20], vec![20, 10], 2);
        assert_eq!(s.sent_bytes(0), 10);
        assert_eq!(s.recv_bytes(1), 10);
        assert_eq!(s.total_bytes(), 30);
        assert_eq!(s.message_count(), 2);
        let mut c = TrafficStats::new(3);
        c.record(0, 2, 5);
        c.record(2, 0, 7);
        assert_eq!(c.sent_bytes(2), 7);
        assert_eq!(c.recv_bytes(2), 5);
        assert_eq!(c.message_count(), 2);
    }

    #[test]
    fn link_model_estimates() {
        let m = LinkModel {
            latency_us: 100.0,
            bytes_per_us: 10.0,
        };
        assert_eq!(m.transfer_us(1000), 200.0);
        let mut net = SimNetwork::new(2);
        net.send(0, 1, vec![0; 1000]);
        assert_eq!(net.estimated_transfer_us(&m), 200.0);
    }
}

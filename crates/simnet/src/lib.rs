//! An in-process multi-party message network with byte accounting.
//!
//! The PIA protocols (P-SOP and the Kissner–Song baseline) are multi-party:
//! proxies operated by different cloud providers exchange encrypted
//! datasets over the network. This substrate runs those protocols entirely
//! in-process while faithfully accounting for the *traffic* each party
//! sends — which is exactly what Figure 8(a) of the paper measures.
//!
//! The protocol drivers in `indaas-pia` play every party over one
//! [`SimNetwork`]. A federated `indaas serve` daemon steps a single P-SOP
//! party from its own loop instead, and the federation coordinator merges
//! each daemon's byte counts with [`TrafficStats::from_parts`], so both
//! report the same per-party traffic.
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
    /// An all-zero counter set for `parties` endpoints.
    fn new(parties: usize) -> Self {
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
    fn record(&mut self, from: PartyId, to: PartyId, bytes: u64) {
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
}

//! P-SOP: private set-intersection cardinality over commutative encryption
//! (Vaidya & Clifton [58]; §4.2.2 and §4.2.4 of the paper).
//!
//! The k providers form a logical ring. Each provider:
//!
//! 1. disambiguates duplicates (`e‖1 … e‖t`), hashes every element into the
//!    shared group, encrypts with its own Pohlig–Hellman key, permutes, and
//!    sends the list to its ring successor;
//! 2. on receiving a list, adds its own encryption layer, permutes, and
//!    forwards — until every list carries all k layers;
//! 3. the fully-encrypted lists are sent to the auditing agent, who counts
//!    equal ciphertexts: equal plaintexts produce equal k-layer ciphertexts
//!    (commutativity), so the agent learns `|∩ᵢ Sᵢ|` and `|∪ᵢ Sᵢ|` and
//!    *nothing about the elements themselves*.
//!
//! The protocol is factored into a per-party state machine ([`PsopParty`]):
//! [`run_psop`] plays every party over the in-process [`SimNetwork`]
//! (Figure 8's bandwidth numbers come straight from its byte counters),
//! while a federated daemon (`indaas-service`) steps exactly one party —
//! [`PsopParty::initial_payload`], then one [`PsopParty::relay`] per ring
//! frame — from its readiness loop. Both share the same cryptographic
//! steps and per-party RNG streams, so a federated run and a simulated run
//! of the same topology produce identical results *and* identical
//! per-party traffic.

use std::collections::HashMap;

use indaas_bigint::BigUint;
use indaas_crypto::{shuffle, CommutativeCipher, MODP_1024_HEX};
use indaas_graph::{CancelToken, Cancelled};
use indaas_simnet::{Message, PartyId, SimNetwork, TrafficStats, Transport, TransportError};
use rand::SeedableRng;

/// Configuration for a P-SOP run.
#[derive(Clone, Copy, Debug)]
pub struct PsopConfig {
    /// RNG seed for key generation and permutations.
    pub seed: u64,
    /// Treat inputs as multisets, applying the `e‖i` disambiguation.
    pub multiset: bool,
}

impl Default for PsopConfig {
    fn default() -> Self {
        PsopConfig {
            seed: 0x50_50,
            multiset: true,
        }
    }
}

/// Width of one P-SOP ciphertext on the wire — every protocol payload
/// is a whole number of these (consumers validating peer input check
/// against this instead of reaching into the crypto crate).
pub const CIPHERTEXT_BYTES: usize = CommutativeCipher::ELEMENT_BYTES;

/// Why a P-SOP run stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PsopError {
    /// The transport failed (peer loss, round deadline expiry).
    Transport(TransportError),
    /// The run's [`CancelToken`] tripped; polled once per element encrypted.
    Cancelled(Cancelled),
    /// Party `from` sent `len` bytes: not a positive multiple of
    /// [`CIPHERTEXT_BYTES`].
    RaggedPayload {
        /// The sending party.
        from: PartyId,
        /// The payload's length in bytes.
        len: usize,
    },
    /// Element `index` of party `from`'s payload is zero or not below the
    /// group modulus.
    ElementOutOfRange {
        /// The sending party.
        from: PartyId,
        /// Position of the element in the payload.
        index: usize,
    },
    /// A ring needs at least two providers; this one has `parties`.
    TooFewParties {
        /// The provider count asked for.
        parties: usize,
    },
    /// `index` is not a ring position among `parties` providers.
    IndexOutOfRange {
        /// The party index asked for.
        index: usize,
        /// The provider count.
        parties: usize,
    },
    /// Provider `party` has nothing to encrypt — an empty list on the wire
    /// is indistinguishable from a truncated one.
    EmptyDataset {
        /// The provider with the empty dataset.
        party: PartyId,
    },
    /// The transport hosts `parties` parties where `expected` (the
    /// providers plus the agent) are needed.
    TransportSize {
        /// Parties the transport hosts.
        parties: usize,
        /// Parties the run needs.
        expected: usize,
    },
}

impl std::fmt::Display for PsopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PsopError::Transport(e) => write!(f, "{e}"),
            PsopError::Cancelled(e) => write!(f, "{e}"),
            PsopError::RaggedPayload { from, len } => write!(
                f,
                "party {from} sent a malformed P-SOP payload: {len} bytes is not a \
                 positive multiple of the {CIPHERTEXT_BYTES}-byte ciphertext width"
            ),
            PsopError::ElementOutOfRange { from, index } => write!(
                f,
                "party {from} sent a malformed P-SOP payload: element {index} is \
                 outside the group"
            ),
            PsopError::TooFewParties { parties } => {
                write!(f, "P-SOP needs at least two providers (got {parties})")
            }
            PsopError::IndexOutOfRange { index, parties } => write!(
                f,
                "party index {index} out of range for {parties} providers"
            ),
            PsopError::EmptyDataset { party } => {
                write!(f, "P-SOP dataset of party {party} is empty")
            }
            PsopError::TransportSize { parties, expected } => write!(
                f,
                "transport hosts {parties} parties; the ring needs {expected} \
                 (providers + agent)"
            ),
        }
    }
}

impl std::error::Error for PsopError {}

impl From<TransportError> for PsopError {
    fn from(e: TransportError) -> Self {
        PsopError::Transport(e)
    }
}

impl From<Cancelled> for PsopError {
    fn from(e: Cancelled) -> Self {
        PsopError::Cancelled(e)
    }
}

/// Result of a P-SOP run.
#[derive(Clone, Debug)]
pub struct PsopOutcome {
    /// `|S₀ ∩ … ∩ S_{k−1}|` — elements present at every provider.
    pub intersection: usize,
    /// `|S₀ ∪ … ∪ S_{k−1}|` — distinct elements overall.
    pub union: usize,
    /// `intersection / union` (0 when the union is empty).
    pub jaccard: f64,
    /// Per-party traffic as measured on the transport.
    pub traffic: TrafficStats,
}

/// One provider's protocol state: its Pohlig–Hellman key and its private
/// permutation RNG stream.
///
/// The RNG is derived from `(config.seed, party index)` so a party's
/// stream depends on nothing another party does — the property that lets
/// k independent daemons each reconstruct *their own* state without any
/// shared-RNG coordination, while a single-process driver instantiating
/// all k parties stays bit-identical to the distributed run.
pub struct PsopParty {
    index: usize,
    parties: usize,
    cipher: CommutativeCipher,
    rng: rand::rngs::StdRng,
    token: CancelToken,
}

impl PsopParty {
    /// Initializes party `index` of `parties` providers; `token` is polled
    /// before every element this party encrypts.
    ///
    /// # Errors
    ///
    /// [`PsopError::TooFewParties`] if `parties < 2`,
    /// [`PsopError::IndexOutOfRange`] if `index` is not below it.
    pub fn new(
        index: usize,
        parties: usize,
        config: &PsopConfig,
        token: &CancelToken,
    ) -> Result<Self, PsopError> {
        if parties < 2 {
            return Err(PsopError::TooFewParties { parties });
        }
        if index >= parties {
            return Err(PsopError::IndexOutOfRange { index, parties });
        }
        // Weyl-sequence derivation keeps per-party streams disjoint for
        // any base seed.
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            config
                .seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1)),
        );
        let cipher = CommutativeCipher::generate(&mut rng);
        Ok(PsopParty {
            index,
            parties,
            cipher,
            rng,
            token: token.clone(),
        })
    }

    /// This party's ring position.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Ring successor (the party this one forwards lists to).
    pub fn successor(&self) -> usize {
        (self.index + 1) % self.parties
    }

    /// Round 0: hash + encrypt + permute this party's own dataset into the
    /// wire payload for its ring successor.
    ///
    /// # Errors
    ///
    /// [`PsopError::Cancelled`] if the token trips between two elements.
    pub fn initial_payload(
        &mut self,
        data: &[String],
        multiset: bool,
    ) -> Result<Vec<u8>, PsopError> {
        let prepared = prepare(data, multiset);
        self.encrypt_permuted(prepared.len(), |cipher, i, out| {
            cipher.encrypt_hashed(prepared[i].as_bytes(), out)
        })
    }

    /// Rounds 1..k−1: add this party's encryption layer to a circulating
    /// list and permute, producing the payload to forward.
    ///
    /// # Errors
    ///
    /// [`PsopError::RaggedPayload`] / [`PsopError::ElementOutOfRange`] name
    /// the sender of a payload that is not a whole list of group elements
    /// (nothing is encrypted or forwarded); [`PsopError::Cancelled`] if the
    /// token trips between two elements.
    pub fn relay(&mut self, msg: &Message) -> Result<Vec<u8>, PsopError> {
        check_payload(msg.from, &msg.payload)?;
        let count = msg.payload.len() / CIPHERTEXT_BYTES;
        self.encrypt_permuted(count, |cipher, i, out| {
            cipher.encrypt_bytes(
                &msg.payload[i * CIPHERTEXT_BYTES..][..CIPHERTEXT_BYTES],
                out,
            )
        })
    }

    /// Draws this round's permutation, then writes the encryption of source
    /// element `order[i]` straight into slot `i` of the outgoing payload.
    fn encrypt_permuted(
        &mut self,
        count: usize,
        encrypt: impl Fn(&CommutativeCipher, usize, &mut [u8]),
    ) -> Result<Vec<u8>, PsopError> {
        let mut order: Vec<usize> = (0..count).collect();
        shuffle(&mut order, &mut self.rng);
        let mut out = vec![0u8; count * CIPHERTEXT_BYTES];
        for (slot, &source) in out.chunks_exact_mut(CIPHERTEXT_BYTES).zip(&order) {
            self.token.check()?;
            encrypt(&self.cipher, source, slot);
        }
        Ok(out)
    }
}

/// Refuses a payload that is not a non-empty list of whole group elements
/// (each in `1..p`, compared as big-endian bytes), naming its sender.
///
/// # Errors
///
/// [`PsopError::RaggedPayload`] or [`PsopError::ElementOutOfRange`].
pub fn check_payload(from: PartyId, payload: &[u8]) -> Result<(), PsopError> {
    if payload.is_empty() || !payload.len().is_multiple_of(CIPHERTEXT_BYTES) {
        return Err(PsopError::RaggedPayload {
            from,
            len: payload.len(),
        });
    }
    let modulus = BigUint::from_hex(MODP_1024_HEX)
        .expect("constant prime parses")
        .to_bytes_be();
    for (index, element) in payload.chunks_exact(CIPHERTEXT_BYTES).enumerate() {
        if element.iter().all(|&b| b == 0) || element >= modulus.as_slice() {
            return Err(PsopError::ElementOutOfRange { from, index });
        }
    }
    Ok(())
}

/// The auditing agent's counting step: given every party's fully-encrypted
/// list in party order, counts distinct ciphertexts (union) and ciphertexts
/// appearing in all `k` lists (intersection).
///
/// # Errors
///
/// [`PsopError::RaggedPayload`] / [`PsopError::ElementOutOfRange`] naming
/// the party whose list is not whole group elements — a truncated tail
/// would otherwise count as one more distinct ciphertext.
pub fn count_final_lists<'a>(
    payloads: impl IntoIterator<Item = &'a [u8]>,
    k: usize,
) -> Result<(usize, usize), PsopError> {
    let mut counts: HashMap<&[u8], usize> = HashMap::new();
    for (party, payload) in payloads.into_iter().enumerate() {
        check_payload(party, payload)?;
        for chunk in payload.chunks_exact(CIPHERTEXT_BYTES) {
            *counts.entry(chunk).or_insert(0) += 1;
        }
    }
    let union = counts.len();
    let intersection = counts.values().filter(|&&c| c == k).count();
    Ok((intersection, union))
}

/// Builds a [`PsopOutcome`] from agent-side counts and transport stats.
pub fn outcome_from_counts(
    intersection: usize,
    union: usize,
    traffic: TrafficStats,
) -> PsopOutcome {
    PsopOutcome {
        intersection,
        union,
        jaccard: if union == 0 {
            0.0
        } else {
            intersection as f64 / union as f64
        },
        traffic,
    }
}

/// Runs P-SOP across `datasets` (one per provider; party `i` on the ring)
/// on the in-process simulated network.
///
/// The network must have `k + 1` parties: `0..k` are providers, party `k`
/// is the auditing agent receiving the final lists.
///
/// # Panics
///
/// Panics with the [`PsopError`] if fewer than two datasets are supplied,
/// any dataset is empty or the network is not sized `k + 1` — the only
/// ways an in-process run under a token that never trips can fail.
pub fn run_psop(
    datasets: &[Vec<String>],
    config: &PsopConfig,
    net: &mut SimNetwork,
) -> PsopOutcome {
    run_psop_transport(datasets, config, net, &CancelToken::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_psop`] over any [`Transport`] hosting all `k + 1` parties: the
/// caller's loop plays every provider and the agent, which is exactly the
/// shape of the simulated single-process run.
///
/// # Errors
///
/// Refuses fewer than two datasets, an empty dataset (naming its party)
/// and a transport not sized `k + 1` before any work; propagates
/// transport failures (impossible on a correctly-sized [`SimNetwork`]),
/// refuses malformed payloads naming their sender, and returns
/// [`PsopError::Cancelled`] within one element of encryption work of
/// `token` tripping.
pub fn run_psop_transport<T: Transport>(
    datasets: &[Vec<String>],
    config: &PsopConfig,
    net: &mut T,
    token: &CancelToken,
) -> Result<PsopOutcome, PsopError> {
    let k = datasets.len();
    if k < 2 {
        return Err(PsopError::TooFewParties { parties: k });
    }
    if let Some(party) = datasets.iter().position(Vec::is_empty) {
        return Err(PsopError::EmptyDataset { party });
    }
    if net.parties() != k + 1 {
        return Err(PsopError::TransportSize {
            parties: net.parties(),
            expected: k + 1,
        });
    }
    let agent = k;

    let mut parties: Vec<PsopParty> = (0..k)
        .map(|i| PsopParty::new(i, k, config, token))
        .collect::<Result<_, _>>()?;

    // Round 0: every party encrypts + permutes its own list and sends it
    // to its successor.
    for (i, data) in datasets.iter().enumerate() {
        let payload = parties[i].initial_payload(data, config.multiset)?;
        net.send(i, parties[i].successor(), payload)?;
    }

    // Rounds 1..k-1: each party re-encrypts what it receives and forwards.
    for _round in 1..k {
        for (i, party) in parties.iter_mut().enumerate() {
            let msg = net.recv(i)?;
            let payload = party.relay(&msg)?;
            net.send(i, party.successor(), payload)?;
        }
    }

    // Final hop: each party receives its own fully-encrypted list back and
    // shares it with the auditing agent.
    for i in 0..k {
        let msg = net.recv(i)?;
        net.send(i, agent, msg.payload)?;
    }

    // The agent counts common and distinct ciphertexts.
    let mut finals: Vec<Vec<u8>> = Vec::with_capacity(k);
    for _ in 0..k {
        finals.push(net.recv(agent)?.payload);
    }
    let (intersection, union) = count_final_lists(finals.iter().map(Vec::as_slice), k)?;
    Ok(outcome_from_counts(
        intersection,
        union,
        net.stats().clone(),
    ))
}

/// Duplicate disambiguation: element `e` occurring `t` times becomes
/// `e‖1 … e‖t` (sets pass through unchanged apart from the `‖1` tag).
fn prepare(data: &[String], multiset: bool) -> Vec<String> {
    if !multiset {
        return data.to_vec();
    }
    let mut seen: HashMap<&str, usize> = HashMap::new();
    data.iter()
        .map(|e| {
            let n = seen.entry(e.as_str()).or_insert(0);
            *n += 1;
            format!("{e}\u{2016}{n}")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn run(datasets: &[Vec<String>]) -> PsopOutcome {
        let mut net = SimNetwork::new(datasets.len() + 1);
        run_psop(datasets, &PsopConfig::default(), &mut net)
    }

    #[test]
    fn two_party_overlap() {
        let out = run(&[strings(&["a", "b", "c"]), strings(&["b", "c", "d"])]);
        assert_eq!(out.intersection, 2);
        assert_eq!(out.union, 4);
        assert!((out.jaccard - 0.5).abs() < 1e-12);
    }

    #[test]
    fn three_party_shared_core() {
        let out = run(&[
            strings(&["x", "a"]),
            strings(&["x", "b"]),
            strings(&["x", "c"]),
        ]);
        assert_eq!(out.intersection, 1);
        assert_eq!(out.union, 4);
    }

    #[test]
    fn disjoint_sets() {
        let out = run(&[strings(&["a"]), strings(&["b"])]);
        assert_eq!(out.intersection, 0);
        assert_eq!(out.union, 2);
        assert_eq!(out.jaccard, 0.0);
    }

    #[test]
    fn identical_sets() {
        let s = strings(&["p", "q", "r"]);
        let out = run(&[s.clone(), s]);
        assert_eq!(out.intersection, 3);
        assert_eq!(out.union, 3);
        assert_eq!(out.jaccard, 1.0);
    }

    #[test]
    fn matches_exact_jaccard() {
        use crate::jaccard::jaccard_exact;
        use std::collections::BTreeSet;
        let a = strings(&["libc6", "openssl", "zlib", "erlang"]);
        let b = strings(&["libc6", "openssl", "boost", "pcre"]);
        let c = strings(&["libc6", "jemalloc", "openssl"]);
        let exact = {
            let sets: Vec<BTreeSet<String>> = [&a, &b, &c]
                .iter()
                .map(|v| v.iter().cloned().collect())
                .collect();
            jaccard_exact(&sets)
        };
        let out = run(&[a, b, c]);
        assert!((out.jaccard - exact).abs() < 1e-12);
    }

    #[test]
    fn multiset_disambiguation_counts_duplicates() {
        // a appears twice on both sides: both copies intersect.
        let out = run(&[strings(&["a", "a", "b"]), strings(&["a", "a", "c"])]);
        assert_eq!(out.intersection, 2);
        assert_eq!(out.union, 4); // a‖1, a‖2, b‖1, c‖1.
    }

    #[test]
    fn traffic_shape_linear_in_elements() {
        let small = run(&[strings(&["a", "b"]), strings(&["c", "d"])]);
        let big_a: Vec<String> = (0..20).map(|i| format!("a{i}")).collect();
        let big_b: Vec<String> = (0..20).map(|i| format!("b{i}")).collect();
        let big = run(&[big_a, big_b]);
        // 10× the elements → 10× the traffic (fixed-width ciphertexts).
        assert_eq!(big.traffic.total_bytes(), 10 * small.traffic.total_bytes());
    }

    #[test]
    fn per_provider_traffic_accounted() {
        let out = run(&[strings(&["a", "b", "c"]), strings(&["d", "e", "f"])]);
        // Each provider sends its 3-element list twice (ring + agent) plus
        // forwards the peer's list once: 9 ciphertexts of 128 bytes.
        assert_eq!(out.traffic.sent_bytes(0), 9 * 128);
        assert_eq!(out.traffic.sent_bytes(1), 9 * 128);
    }

    #[test]
    #[should_panic(expected = "at least two providers")]
    fn single_provider_rejected() {
        let mut net = SimNetwork::new(2);
        let _ = run_psop(&[strings(&["a"])], &PsopConfig::default(), &mut net);
    }

    /// Bad inputs are typed errors, not panics, on every fallible entry
    /// point; nothing is encrypted before they are refused.
    #[test]
    fn bad_inputs_are_typed_errors() {
        let (config, token) = (PsopConfig::default(), CancelToken::default());
        assert_eq!(
            PsopParty::new(0, 1, &config, &token).err(),
            Some(PsopError::TooFewParties { parties: 1 })
        );
        assert_eq!(
            PsopParty::new(3, 3, &config, &token).err(),
            Some(PsopError::IndexOutOfRange {
                index: 3,
                parties: 3
            })
        );
        let run = |datasets: &[Vec<String>], parties: usize| {
            run_psop_transport(datasets, &config, &mut SimNetwork::new(parties), &token).err()
        };
        assert_eq!(
            run(&[strings(&["a"])], 2),
            Some(PsopError::TooFewParties { parties: 1 })
        );
        assert_eq!(
            run(&[strings(&["a"]), Vec::new(), strings(&["b"])], 4),
            Some(PsopError::EmptyDataset { party: 1 })
        );
        assert_eq!(
            run(&[strings(&["a"]), strings(&["b"])], 2),
            Some(PsopError::TransportSize {
                parties: 2,
                expected: 3
            })
        );
        assert!(PsopError::EmptyDataset { party: 1 }
            .to_string()
            .contains("party 1"));
    }

    /// Each party's rounds, stepped independently over a shared
    /// SimNetwork, must reproduce the all-parties driver exactly — the
    /// invariant the federated daemons rely on.
    #[test]
    fn per_party_driver_matches_global_driver() {
        let datasets = [
            strings(&["libc", "ssl", "riak"]),
            strings(&["libc", "boost"]),
            strings(&["libc", "ssl", "redis", "zlib"]),
        ];
        let config = PsopConfig::default();
        let global = {
            let mut net = SimNetwork::new(4);
            run_psop(&datasets, &config, &mut net)
        };

        // Drive the same protocol party-by-party, interleaved by round so
        // every recv finds its message pending (the simulated network is
        // non-blocking). Interleaving: all round-0 sends, then relays, etc.
        let k = datasets.len();
        let mut net = SimNetwork::new(k + 1);
        let token = CancelToken::default();
        let mut parties: Vec<PsopParty> = (0..k)
            .map(|i| PsopParty::new(i, k, &config, &token).unwrap())
            .collect();
        for (i, p) in parties.iter_mut().enumerate() {
            let payload = p.initial_payload(&datasets[i], config.multiset).unwrap();
            let to = p.successor();
            Transport::send(&mut net, i, to, payload).unwrap();
        }
        for _round in 1..k {
            for (i, p) in parties.iter_mut().enumerate() {
                let msg = Transport::recv(&mut net, i).unwrap();
                let to = p.successor();
                let payload = p.relay(&msg).unwrap();
                Transport::send(&mut net, i, to, payload).unwrap();
            }
        }
        for i in 0..k {
            let msg = Transport::recv(&mut net, i).unwrap();
            Transport::send(&mut net, i, k, msg.payload).unwrap();
        }
        let finals: Vec<Vec<u8>> = (0..k)
            .map(|_| Transport::recv(&mut net, k).unwrap().payload)
            .collect();
        let (intersection, union) = count_final_lists(finals.iter().map(Vec::as_slice), k).unwrap();

        assert_eq!(intersection, global.intersection);
        assert_eq!(union, global.union);
        for i in 0..k {
            assert_eq!(
                net.stats().sent_bytes(i),
                global.traffic.sent_bytes(i),
                "party {i} sent bytes diverge"
            );
            assert_eq!(net.stats().recv_bytes(i), global.traffic.recv_bytes(i));
        }
        assert_eq!(net.stats().message_count(), global.traffic.message_count());
    }

    #[test]
    fn count_final_lists_counts_chunks() {
        // Two 128-byte "ciphertexts", one shared.
        let a: Vec<u8> = [vec![1u8; 128], vec![2u8; 128]].concat();
        let b: Vec<u8> = [vec![1u8; 128], vec![3u8; 128]].concat();
        let counts = count_final_lists([a.as_slice(), b.as_slice()], 2);
        assert_eq!(counts, Ok((1, 3)));
    }

    /// A transport that records every send and can corrupt one of them.
    struct Tap {
        net: SimNetwork,
        log: Vec<u8>,
        /// `(from, len)`: cut the first payload `from` sends to `len` bytes.
        truncate: Option<(PartyId, usize)>,
    }

    impl Tap {
        fn new(parties: usize) -> Self {
            Tap {
                net: SimNetwork::new(parties),
                log: Vec::new(),
                truncate: None,
            }
        }
    }

    impl Transport for Tap {
        fn parties(&self) -> usize {
            Transport::parties(&self.net)
        }

        fn send(
            &mut self,
            from: PartyId,
            to: PartyId,
            mut payload: Vec<u8>,
        ) -> Result<(), TransportError> {
            if let Some((_, len)) = self.truncate.take_if(|(party, _)| *party == from) {
                payload.truncate(len);
            }
            for word in [from, to, payload.len()] {
                self.log.extend_from_slice(&(word as u32).to_be_bytes());
            }
            self.log.extend_from_slice(&payload);
            Transport::send(&mut self.net, from, to, payload)
        }

        fn recv(&mut self, to: PartyId) -> Result<Message, TransportError> {
            Transport::recv(&mut self.net, to)
        }

        fn stats(&self) -> &TrafficStats {
            Transport::stats(&self.net)
        }
    }

    fn ring_datasets() -> [Vec<String>; 3] {
        [
            strings(&["libc", "ssl", "riak"]),
            strings(&["libc", "boost"]),
            strings(&["libc", "ssl", "redis", "zlib"]),
        ]
    }

    /// Every byte of a 3-party run — 12 messages as `from ‖ to ‖ len ‖
    /// payload` — hashes to what the parent commit's bit-at-a-time modexp
    /// and `BigUint`-per-element relay put on the wire.
    #[test]
    fn three_party_transcript_known_answer() {
        let mut tap = Tap::new(4);
        let out = run_psop_transport(
            &ring_datasets(),
            &PsopConfig::default(),
            &mut tap,
            &CancelToken::default(),
        )
        .unwrap();
        assert_eq!((out.intersection, out.union), (1, 6));
        assert_eq!(tap.log.len(), 4752);
        let digest: String = indaas_crypto::sha256(&tap.log)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            digest,
            "6d54eed9576860ebc2de409b55913b061d68bf018b714616c11dd6c14d0e41f3"
        );
    }

    fn message(from: PartyId, payload: Vec<u8>) -> Message {
        Message {
            from,
            to: 0,
            payload,
        }
    }

    #[test]
    fn relay_refuses_malformed_payloads_naming_the_sender() {
        let mut party =
            PsopParty::new(0, 3, &PsopConfig::default(), &CancelToken::default()).unwrap();
        let good = [vec![0u8; 127], vec![7u8]].concat();
        for len in [0, 1, 127, 129, 2 * 128 - 5] {
            let payload: Vec<u8> = good.iter().cycle().take(len).copied().collect();
            assert_eq!(
                party.relay(&message(2, payload)),
                Err(PsopError::RaggedPayload { from: 2, len })
            );
        }
        // Zero, the modulus itself and the all-ones value are not in 1..p.
        let modulus = BigUint::from_hex(MODP_1024_HEX).unwrap().to_bytes_be();
        for bad in [vec![0u8; 128], modulus.clone(), vec![0xff; 128]] {
            let payload = [good.clone(), bad].concat();
            assert_eq!(
                party.relay(&message(1, payload)),
                Err(PsopError::ElementOutOfRange { from: 1, index: 1 })
            );
        }
        // p − 1 is the largest element, and a refusal consumed nothing of
        // the party's permutation stream.
        let mut largest = modulus;
        largest[127] -= 1;
        let mut fresh =
            PsopParty::new(0, 3, &PsopConfig::default(), &CancelToken::default()).unwrap();
        let msg = message(1, [good, largest].concat());
        assert_eq!(party.relay(&msg), fresh.relay(&msg));
        assert_eq!(party.relay(&msg).unwrap().len(), 2 * 128);
    }

    #[test]
    fn agent_refuses_malformed_final_lists() {
        let whole = vec![1u8; 128];
        let ragged = vec![1u8; 128 + 64];
        assert_eq!(
            count_final_lists([whole.as_slice(), ragged.as_slice()], 2),
            Err(PsopError::RaggedPayload { from: 1, len: 192 })
        );
        let zero = vec![0u8; 128];
        assert_eq!(
            count_final_lists([zero.as_slice(), whole.as_slice()], 2),
            Err(PsopError::ElementOutOfRange { from: 0, index: 0 })
        );
    }

    /// A list truncated in flight stops the run at the receiving party
    /// with the sender named; no Jaccard is computed over the remainder.
    #[test]
    fn run_propagates_a_truncated_payload() {
        let mut tap = Tap::new(4);
        tap.truncate = Some((1, 128 + 17));
        let err = run_psop_transport(
            &ring_datasets(),
            &PsopConfig::default(),
            &mut tap,
            &CancelToken::default(),
        )
        .unwrap_err();
        assert_eq!(err, PsopError::RaggedPayload { from: 1, len: 145 });
        assert!(err.to_string().contains("party 1 sent a malformed"));
    }

    /// The token is polled per element, not per run: a deadline that
    /// falls inside one long relay stops it there.
    #[test]
    fn cancellation_lands_inside_a_relay() {
        use std::time::{Duration, Instant};
        // 4,000 valid elements: seconds of modexp if run to completion.
        let payload: Vec<u8> = (0..4000u32)
            .flat_map(|i| [vec![0u8; 124], (i + 2).to_be_bytes().to_vec()].concat())
            .collect();
        let msg = message(1, payload);
        let config = PsopConfig::default();

        let tripped = CancelToken::new();
        tripped.cancel();
        let mut party = PsopParty::new(0, 2, &config, &tripped).unwrap();
        assert_eq!(
            party.relay(&msg),
            Err(PsopError::Cancelled(Cancelled::ByRequest))
        );
        assert_eq!(
            party.initial_payload(&strings(&["a"]), true),
            Err(PsopError::Cancelled(Cancelled::ByRequest))
        );

        let deadline = Duration::from_millis(40);
        let mut party =
            PsopParty::new(0, 2, &config, &CancelToken::with_deadline(deadline)).unwrap();
        let started = Instant::now();
        assert_eq!(
            party.relay(&msg),
            Err(PsopError::Cancelled(Cancelled::DeadlineExceeded))
        );
        // One element is ~0.5 ms of work; a run that only polled between
        // payloads would return Ok after all 4,000.
        assert!(started.elapsed() < deadline + Duration::from_millis(500));
    }
}

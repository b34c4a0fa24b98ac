//! A secure two-party computation (SMPC) baseline for private set
//! intersection cardinality.
//!
//! The paper (§1, §4.2) notes that the most general approach to private
//! independence auditing — generic secure multi-party computation, as
//! explored by Xiao et al. [69] — "performs adequately only on small
//! dependency datasets" and is "impractical currently even for datasets
//! with only a few hundreds of components". This module makes that claim
//! measurable: a GMW-style boolean-circuit evaluation of pairwise
//! equality over XOR-shared inputs, with Beaver multiplication triples
//! served by the auditing agent (who, per the INDaaS trust model, is
//! honest-but-curious and non-colluding).
//!
//! The circuit compares every element of provider 0 against every element
//! of provider 1 (w-bit hashed values, bitwise XNOR then an AND-tree), so
//! both the gate count and the communication grow **quadratically** in the
//! set size — the structural reason SMPC loses to P-SOP's linear ring
//! protocol. Evaluation is bitsliced: 64 comparison lanes per machine
//! word, which makes the baseline as fast as a generic boolean SMPC
//! reasonably gets, and it still falls behind. One driver plays all three
//! parties over a [`SimNetwork`], whose byte counters are the traffic
//! Figure 8 compares.

use indaas_crypto::sha256;
use indaas_simnet::{SimNetwork, TrafficStats};
use rand::{Rng, SeedableRng};

/// Configuration for the SMPC baseline.
#[derive(Clone, Copy, Debug)]
pub struct SmpcConfig {
    /// Bits per hashed element (circuit depth ~ `hash_bits` AND layers).
    pub hash_bits: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SmpcConfig {
    fn default() -> Self {
        SmpcConfig {
            hash_bits: 32,
            seed: 0x5a5c,
        }
    }
}

/// Result of an SMPC intersection run.
#[derive(Clone, Debug)]
pub struct SmpcOutcome {
    /// `|S₀ ∩ S₁|`.
    pub intersection: usize,
    /// Number of (bitsliced) AND gates evaluated.
    pub and_gates: u64,
    /// Per-party traffic (party 2 is the triple dealer / agent).
    pub traffic: TrafficStats,
}

/// Bit-vectors over comparison lanes: one bit per (i, j) element pair.
type Lanes = Vec<u64>;

/// XOR-shared lane vector held by one party.
#[derive(Clone)]
struct Share(Lanes);

/// Runs the GMW baseline between two providers on `net` (3 parties:
/// providers 0 and 1, triple dealer 2); this driver plays every role.
///
/// # Panics
///
/// Panics if either set is empty, the network is not 3 parties, or
/// `hash_bits` is outside `1..=64`.
pub fn run_smpc(
    set_a: &[String],
    set_b: &[String],
    config: &SmpcConfig,
    net: &mut SimNetwork,
) -> SmpcOutcome {
    assert!(
        !set_a.is_empty() && !set_b.is_empty(),
        "sets must be non-empty"
    );
    assert_eq!(net.parties(), 3, "two providers plus the triple dealer");
    assert!(
        (1..=64).contains(&config.hash_bits),
        "hash_bits must be in 1..=64"
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let (na, nb) = (set_a.len(), set_b.len());
    let lanes = na * nb;
    let words = lanes.div_ceil(64);

    let ha = hash_all(set_a, config.hash_bits);
    let hb = hash_all(set_b, config.hash_bits);

    // Secret-share each bit-plane of the comparison inputs. Lane (i, j)
    // compares ha[i] against hb[j]; party 0 owns the A-planes, party 1 the
    // B-planes; each sends the other a random share over the network.
    let mut xnor_shares: Vec<(Share, Share)> = Vec::with_capacity(config.hash_bits);
    for bit in 0..config.hash_bits {
        let plane_a = plane(&ha, bit, |lane| lane / nb, lanes);
        let plane_b = plane(&hb, bit, |lane| lane % nb, lanes);
        let (a0, a1) = share_plane(&plane_a, &mut rng);
        let (b0, b1) = share_plane(&plane_b, &mut rng);
        // Input sharing traffic: one share each way.
        net.send(0, 1, bytes_of(&a1.0));
        net.send(1, 0, bytes_of(&b0.0));
        net.recv_expect(1);
        net.recv_expect(0);
        // XNOR = XOR ⊕ 1; XOR of shares is local, the NOT is applied by
        // party 0 only (constant folding).
        let mut s0: Lanes = (0..words).map(|w| a0.0[w] ^ b0.0[w] ^ !0u64).collect();
        let s1: Lanes = (0..words).map(|w| a1.0[w] ^ b1.0[w]).collect();
        mask_tail(&mut s0, lanes);
        xnor_shares.push((Share(s0), Share(mask_tail_owned(s1, lanes))));
    }

    // AND-tree over the hash_bits planes.
    let mut and_gates = 0u64;
    let mut acc = xnor_shares.pop().expect("at least one bit plane");
    while let Some(next) = xnor_shares.pop() {
        acc = beaver_and(&acc, &next, words, lanes, net, &mut rng, &mut and_gates);
    }

    // Reconstruct the equality lane vector (both parties reveal shares to
    // the agent, who learns only which shuffled lanes matched — i.e., the
    // cardinality; lane order carries no element information because the
    // providers hash and the dealer never sees inputs).
    net.send(0, 2, bytes_of(&acc.0 .0));
    net.send(1, 2, bytes_of(&acc.1 .0));
    let m0 = net.recv_expect(2);
    let m1 = net.recv_expect(2);
    let mut matches = 0usize;
    for (x, y) in words_of(&m0.payload).iter().zip(words_of(&m1.payload)) {
        matches += (x ^ y).count_ones() as usize;
    }

    SmpcOutcome {
        intersection: matches,
        and_gates,
        traffic: net.stats().clone(),
    }
}

/// One Beaver-triple AND layer over bitsliced shares.
fn beaver_and(
    x: &(Share, Share),
    y: &(Share, Share),
    words: usize,
    lanes: usize,
    net: &mut SimNetwork,
    rng: &mut impl Rng,
    and_gates: &mut u64,
) -> (Share, Share) {
    *and_gates += lanes as u64;
    // Dealer generates triples: c = a & b, all XOR-shared.
    let a: Lanes = random_lanes(words, rng);
    let b: Lanes = random_lanes(words, rng);
    let c: Lanes = a.iter().zip(&b).map(|(p, q)| p & q).collect();
    let (a0, a1) = share_plane(&a, rng);
    let (b0, b1) = share_plane(&b, rng);
    let (c0, c1) = share_plane(&c, rng);
    // Dealer ships triple shares to the two parties.
    for (to, aa, bb, cc) in [(0usize, &a0, &b0, &c0), (1, &a1, &b1, &c1)] {
        let mut payload = bytes_of(&aa.0);
        payload.extend_from_slice(&bytes_of(&bb.0));
        payload.extend_from_slice(&bytes_of(&cc.0));
        net.send(2, to, payload);
        net.recv_expect(to);
    }

    // Parties open d = x ⊕ a and e = y ⊕ b.
    let d0: Lanes = (0..words).map(|w| x.0 .0[w] ^ a0.0[w]).collect();
    let e0: Lanes = (0..words).map(|w| y.0 .0[w] ^ b0.0[w]).collect();
    let d1: Lanes = (0..words).map(|w| x.1 .0[w] ^ a1.0[w]).collect();
    let e1: Lanes = (0..words).map(|w| y.1 .0[w] ^ b1.0[w]).collect();
    let mut open0 = bytes_of(&d0);
    open0.extend_from_slice(&bytes_of(&e0));
    let mut open1 = bytes_of(&d1);
    open1.extend_from_slice(&bytes_of(&e1));
    net.send(0, 1, open0);
    net.send(1, 0, open1);
    net.recv_expect(1);
    net.recv_expect(0);
    let d: Lanes = (0..words).map(|w| d0[w] ^ d1[w]).collect();
    let e: Lanes = (0..words).map(|w| e0[w] ^ e1[w]).collect();

    // z_i = c_i ⊕ (d & b_i) ⊕ (e & a_i) [⊕ d & e for party 0].
    let z0: Lanes = (0..words)
        .map(|w| c0.0[w] ^ (d[w] & b0.0[w]) ^ (e[w] & a0.0[w]) ^ (d[w] & e[w]))
        .collect();
    let z1: Lanes = (0..words)
        .map(|w| c1.0[w] ^ (d[w] & b1.0[w]) ^ (e[w] & a1.0[w]))
        .collect();
    (
        Share(mask_tail_owned(z0, lanes)),
        Share(mask_tail_owned(z1, lanes)),
    )
}

/// Hashes elements to `bits`-bit values.
fn hash_all(set: &[String], bits: usize) -> Vec<u64> {
    set.iter()
        .map(|e| {
            let digest = sha256(e.as_bytes());
            let v = u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"));
            if bits == 64 {
                v
            } else {
                v & ((1u64 << bits) - 1)
            }
        })
        .collect()
}

/// Builds the lane bit-plane for bit `bit` of the value selected per lane.
fn plane(values: &[u64], bit: usize, select: impl Fn(usize) -> usize, lanes: usize) -> Lanes {
    let words = lanes.div_ceil(64);
    let mut out = vec![0u64; words];
    for lane in 0..lanes {
        if values[select(lane)] >> bit & 1 == 1 {
            out[lane / 64] |= 1 << (lane % 64);
        }
    }
    out
}

fn share_plane(plane: &Lanes, rng: &mut impl Rng) -> (Share, Share) {
    let r: Lanes = plane.iter().map(|_| rng.next_u64()).collect();
    let masked: Lanes = plane.iter().zip(&r).map(|(p, q)| p ^ q).collect();
    (Share(masked), Share(r))
}

fn random_lanes(words: usize, rng: &mut impl Rng) -> Lanes {
    (0..words).map(|_| rng.next_u64()).collect()
}

fn mask_tail(lanes_vec: &mut Lanes, lanes: usize) {
    if !lanes.is_multiple_of(64) {
        if let Some(last) = lanes_vec.last_mut() {
            *last &= (1u64 << (lanes % 64)) - 1;
        }
    }
}

fn mask_tail_owned(mut v: Lanes, lanes: usize) -> Lanes {
    mask_tail(&mut v, lanes);
    v
}

fn bytes_of(lanes: &Lanes) -> Vec<u8> {
    lanes.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn words_of(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunks")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn run(a: &[&str], b: &[&str]) -> SmpcOutcome {
        let mut net = SimNetwork::new(3);
        run_smpc(&strings(a), &strings(b), &SmpcConfig::default(), &mut net)
    }

    #[test]
    fn basic_intersection() {
        let out = run(&["a", "b", "c"], &["b", "c", "d"]);
        assert_eq!(out.intersection, 2);
    }

    #[test]
    fn disjoint_and_identical() {
        assert_eq!(run(&["a"], &["b"]).intersection, 0);
        assert_eq!(run(&["x", "y"], &["x", "y"]).intersection, 2);
    }

    #[test]
    fn agrees_with_psop() {
        use crate::psop::{run_psop, PsopConfig};
        let a: Vec<String> = (0..20).map(|i| format!("e{i}")).collect();
        let b: Vec<String> = (12..30).map(|i| format!("e{i}")).collect();
        let mut net = SimNetwork::new(3);
        let smpc = run_smpc(&a, &b, &SmpcConfig::default(), &mut net);
        let mut net2 = SimNetwork::new(3);
        let psop = run_psop(&[a, b], &PsopConfig::default(), &mut net2);
        assert_eq!(smpc.intersection, psop.intersection);
    }

    #[test]
    fn gate_count_is_quadratic() {
        let small = run(&["a", "b"], &["c", "d"]);
        let eight = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let out = {
            let mut net = SimNetwork::new(3);
            run_smpc(
                &strings(&eight),
                &strings(&eight),
                &SmpcConfig::default(),
                &mut net,
            )
        };
        // 4 lanes vs 64 lanes: 16x the AND gates.
        assert_eq!(out.and_gates, 16 * small.and_gates);
    }

    #[test]
    fn traffic_grows_quadratically() {
        // 8×8 = 64 lanes = exactly 1 word; 32×32 = 1024 lanes = 16 words,
        // so a 4x set-size increase must cost ~16x the traffic.
        let mk = |prefix: &str, n: usize| -> Vec<String> {
            (0..n).map(|i| format!("{prefix}{i}")).collect()
        };
        let mut net8 = SimNetwork::new(3);
        let n8 = run_smpc(&mk("a", 8), &mk("b", 8), &SmpcConfig::default(), &mut net8);
        let mut net32 = SimNetwork::new(3);
        let n32 = run_smpc(
            &mk("a", 32),
            &mk("b", 32),
            &SmpcConfig::default(),
            &mut net32,
        );
        let ratio = n32.traffic.total_bytes() as f64 / n8.traffic.total_bytes() as f64;
        assert!(
            (12.0..=20.0).contains(&ratio),
            "expected ~16x traffic growth, got {ratio:.1}x"
        );
    }

    #[test]
    fn hash_collision_caveat_is_bounded() {
        // With 32-bit hashes and small sets, false positives are ~0; this
        // guards the default configuration.
        let a: Vec<String> = (0..50).map(|i| format!("left-{i}")).collect();
        let b: Vec<String> = (0..50).map(|i| format!("right-{i}")).collect();
        let mut net = SimNetwork::new(3);
        let out = run_smpc(&a, &b, &SmpcConfig::default(), &mut net);
        assert_eq!(out.intersection, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_set_rejected() {
        let _ = run(&[], &["a"]);
    }
}

//! MinHash approximation of Jaccard similarity (§4.2.2).
//!
//! For large component sets, each provider condenses its set into an
//! m-slot MinHash signature: slot `i` holds the element minimizing the
//! `i`-th seeded hash function. The Jaccard similarity is estimated as
//! `δ/m`, where `δ` counts slots on which *all* k signatures agree; the
//! expected error is O(1/√m) (Broder [13]).
//!
//! For private use, each slot is fed to P-SOP as the element tagged with
//! its slot index (`slot‖element`), so ciphertext equality compares
//! signatures slot-wise — exactly the `δ/m` estimator.

use indaas_crypto::Hash64;

/// Computes the m-slot MinHash signature of a set of components.
///
/// Each slot stores the 64-bit hash value of the minimizing element (value
/// equality is what the estimator compares).
///
/// # Panics
///
/// Panics if `m` is zero or the set is empty.
pub fn minhash_signature(set: &[String], m: usize) -> Vec<u64> {
    assert!(m > 0, "need at least one hash function");
    assert!(!set.is_empty(), "cannot sign an empty set");
    let family = Hash64::family(m);
    family
        .iter()
        .map(|h| {
            set.iter()
                .map(|e| h.hash(e.as_bytes()))
                .min()
                .expect("non-empty set")
        })
        .collect()
}

/// The P-SOP-ready encoding of a signature: slot-tagged string elements,
/// so set intersection across providers counts slot-wise agreements.
pub fn signature_elements(signature: &[u64]) -> Vec<String> {
    signature
        .iter()
        .enumerate()
        .map(|(slot, v)| format!("{slot}:{v:016x}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::jaccard_exact;
    use std::collections::BTreeSet;

    /// The k-way Jaccard estimate in the clear, `δ/m`: what P-SOP over
    /// slot-tagged elements computes privately.
    fn estimate_jaccard(signatures: &[Vec<u64>]) -> f64 {
        let m = signatures[0].len();
        assert!(signatures.iter().all(|s| s.len() == m));
        let delta = (0..m)
            .filter(|&i| signatures[1..].iter().all(|s| s[i] == signatures[0][i]))
            .count();
        delta as f64 / m as f64
    }

    fn strings(prefix: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{prefix}-{i}")).collect()
    }

    #[test]
    fn identical_sets_estimate_1() {
        let s = strings("pkg", 50);
        let a = minhash_signature(&s, 64);
        let b = minhash_signature(&s, 64);
        assert_eq!(estimate_jaccard(&[a, b]), 1.0);
    }

    #[test]
    fn disjoint_sets_estimate_0() {
        let a = minhash_signature(&strings("a", 50), 128);
        let b = minhash_signature(&strings("b", 50), 128);
        let est = estimate_jaccard(&[a, b]);
        assert!(est < 0.05, "disjoint estimate {est} should be ~0");
    }

    #[test]
    fn estimate_tracks_exact_within_error_bound() {
        // Two sets with true J = 50/150 = 1/3; m = 256 gives error ~1/16.
        let mut a = strings("shared", 50);
        a.extend(strings("only-a", 50));
        let mut b = strings("shared", 50);
        b.extend(strings("only-b", 50));
        let exact = {
            let sa: BTreeSet<String> = a.iter().cloned().collect();
            let sb: BTreeSet<String> = b.iter().cloned().collect();
            jaccard_exact(&[sa, sb])
        };
        let est = estimate_jaccard(&[minhash_signature(&a, 256), minhash_signature(&b, 256)]);
        assert!(
            (est - exact).abs() < 0.12,
            "estimate {est} too far from exact {exact}"
        );
    }

    #[test]
    fn more_hashes_reduce_error() {
        // Average absolute error over shifted set pairs must shrink with m.
        let err_for = |m: usize| -> f64 {
            let mut total = 0.0;
            for shift in 0..8 {
                let a: Vec<String> = (0..60).map(|i| format!("e{i}")).collect();
                let b: Vec<String> = (shift * 5..60 + shift * 5)
                    .map(|i| format!("e{i}"))
                    .collect();
                let exact = {
                    let sa: BTreeSet<String> = a.iter().cloned().collect();
                    let sb: BTreeSet<String> = b.iter().cloned().collect();
                    jaccard_exact(&[sa, sb])
                };
                let est = estimate_jaccard(&[minhash_signature(&a, m), minhash_signature(&b, m)]);
                total += (est - exact).abs();
            }
            total / 8.0
        };
        assert!(err_for(512) < err_for(16) + 0.02);
    }

    #[test]
    fn three_way_estimation() {
        let shared = strings("s", 30);
        let mk = |extra: &str| {
            let mut v = shared.clone();
            v.extend(strings(extra, 30));
            v
        };
        let sigs = vec![
            minhash_signature(&mk("a"), 256),
            minhash_signature(&mk("b"), 256),
            minhash_signature(&mk("c"), 256),
        ];
        let est = estimate_jaccard(&sigs);
        // True J = 30 / 120 = 0.25.
        assert!((est - 0.25).abs() < 0.12, "estimate {est}");
    }

    #[test]
    fn signature_elements_are_slot_tagged() {
        let sig = vec![1u64, 2, 3];
        let elems = signature_elements(&sig);
        assert_eq!(elems.len(), 3);
        assert!(elems[0].starts_with("0:"));
        assert!(elems[2].starts_with("2:"));
        // Same value in different slots must NOT collide.
        let sig2 = vec![1u64, 1];
        let e2 = signature_elements(&sig2);
        assert_ne!(e2[0], e2[1]);
    }

    #[test]
    #[should_panic(expected = "cannot sign an empty set")]
    fn empty_set_rejected() {
        let _ = minhash_signature(&[], 4);
    }
}

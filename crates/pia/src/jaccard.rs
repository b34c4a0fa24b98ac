//! Exact Jaccard similarity across k datasets (§4.2.2).
//!
//! `J(S₀,…,S_{k−1}) = |S₀ ∩ … ∩ S_{k−1}| / |S₀ ∪ … ∪ S_{k−1}|`. A value
//! near 1 means the deployments share most dependencies; near 0 means they
//! are almost disjoint. The paper treats `J ≥ 0.75` as significantly
//! correlated [62].

use std::collections::BTreeSet;

/// Computes the exact Jaccard similarity across `sets`.
///
/// Returns 0.0 for the degenerate all-empty case.
///
/// # Panics
///
/// Panics if `sets` is empty.
pub fn jaccard_exact<T: Ord>(sets: &[BTreeSet<T>]) -> f64 {
    assert!(!sets.is_empty(), "need at least one set");
    let union: usize = {
        let mut u = BTreeSet::new();
        for s in sets {
            for e in s {
                u.insert(e);
            }
        }
        u.len()
    };
    if union == 0 {
        return 0.0;
    }
    let inter = sets[0]
        .iter()
        .filter(|e| sets[1..].iter().all(|s| s.contains(e)))
        .count();
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Jaccard of two string slices.
    fn jaccard_of_pair(a: &[String], b: &[String]) -> f64 {
        let sa: BTreeSet<&String> = a.iter().collect();
        let sb: BTreeSet<&String> = b.iter().collect();
        jaccard_exact(&[sa, sb])
    }

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn identical_sets_are_1() {
        let s = set(&["a", "b"]);
        assert_eq!(jaccard_exact(&[s.clone(), s]), 1.0);
    }

    #[test]
    fn disjoint_sets_are_0() {
        assert_eq!(jaccard_exact(&[set(&["a"]), set(&["b"])]), 0.0);
    }

    #[test]
    fn halves_overlap() {
        // {a,b} vs {b,c}: |∩|=1, |∪|=3.
        let j = jaccard_exact(&[set(&["a", "b"]), set(&["b", "c"])]);
        assert!((j - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn three_way_intersection() {
        let j = jaccard_exact(&[
            set(&["x", "a", "b"]),
            set(&["x", "b", "c"]),
            set(&["x", "c", "a"]),
        ]);
        // ∩ = {x}; ∪ = {x,a,b,c}.
        assert!((j - 0.25).abs() < 1e-12);
    }

    #[test]
    fn all_empty_is_0() {
        let e: BTreeSet<String> = BTreeSet::new();
        assert_eq!(jaccard_exact(&[e.clone(), e]), 0.0);
    }

    #[test]
    fn pair_helper_matches() {
        let a = vec!["a".to_string(), "b".to_string()];
        let b = vec!["b".to_string(), "c".to_string()];
        assert!((jaccard_of_pair(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_overlap() {
        let base = set(&["a", "b", "c", "d"]);
        let close = set(&["a", "b", "c", "e"]);
        let far = set(&["a", "x", "y", "z"]);
        assert!(
            jaccard_exact(&[base.clone(), close]) > jaccard_exact(&[base, far]),
            "more overlap must mean higher similarity"
        );
    }
}

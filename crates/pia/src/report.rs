//! PIA auditing reports (§4.2.5): ranking candidate redundancy deployments
//! by Jaccard similarity, as in Table 2 of the paper.

use indaas_graph::{CancelToken, Cancelled};
use indaas_simnet::SimNetwork;
use serde::{Deserialize, Serialize};

use crate::minhash::{minhash_signature, signature_elements};
use crate::psop::{run_psop, run_psop_transport, PsopConfig, PsopError};

/// One ranked candidate deployment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PiaRanking {
    /// Provider names in the deployment.
    pub providers: Vec<String>,
    /// Jaccard similarity (exact from P-SOP, or MinHash-estimated).
    pub jaccard: f64,
}

/// Ranks all `way`-sized provider combinations by Jaccard similarity
/// (ascending — the most independent deployment first), running one P-SOP
/// instance per combination.
///
/// `minhash` switches large component sets to the MinHash path with the
/// given number of hash functions, exactly as §4.2.4 prescribes.
///
/// # Panics
///
/// Panics if `way < 2`, fewer than `way` providers exist, or any provider
/// set is empty when MinHash is requested.
pub fn rank_deployments(
    providers: &[(String, Vec<String>)],
    way: usize,
    minhash: Option<usize>,
    config: &PsopConfig,
) -> Vec<PiaRanking> {
    rank_deployments_cancellable(providers, way, minhash, config, &CancelToken::default())
        .expect("default token never cancels")
}

/// [`rank_deployments`] with cooperative cancellation, polled before each
/// provider combination's P-SOP run and, inside a run, before every
/// element encrypted — one large audit honours its deadline too.
///
/// # Errors
///
/// Returns [`Cancelled`] within one element of work of the token tripping.
///
/// # Panics
///
/// Panics under the same conditions as [`rank_deployments`].
pub fn rank_deployments_cancellable(
    providers: &[(String, Vec<String>)],
    way: usize,
    minhash: Option<usize>,
    config: &PsopConfig,
    token: &CancelToken,
) -> Result<Vec<PiaRanking>, Cancelled> {
    assert!(
        way >= 2,
        "redundancy deployments span at least two providers"
    );
    assert!(providers.len() >= way, "not enough providers");
    let mut rankings = Vec::new();
    for combo in combinations(providers.len(), way) {
        token.check()?;
        let datasets: Vec<Vec<String>> = combo
            .iter()
            .map(|&i| match minhash {
                Some(m) => signature_elements(&minhash_signature(&providers[i].1, m)),
                None => providers[i].1.clone(),
            })
            .collect();
        let mut net = SimNetwork::new(way + 1);
        let outcome = match run_psop_transport(&datasets, config, &mut net, token) {
            Ok(outcome) => outcome,
            Err(PsopError::Cancelled(reason)) => return Err(reason),
            Err(e) => panic!("in-process P-SOP cannot fail: {e}"),
        };
        let jaccard = match minhash {
            // δ/m slot-agreement estimator.
            Some(m) => outcome.intersection as f64 / m as f64,
            None => outcome.jaccard,
        };
        rankings.push(PiaRanking {
            providers: combo.iter().map(|&i| providers[i].0.clone()).collect(),
            jaccard,
        });
    }
    rankings.sort_by(|a, b| {
        a.jaccard
            .partial_cmp(&b.jaccard)
            .expect("finite similarities")
            .then_with(|| a.providers.cmp(&b.providers))
    });
    Ok(rankings)
}

/// Renders a Table-2-style ranking.
pub fn render_ranking(way: usize, rankings: &[PiaRanking]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Rank  {way}-Way Redundancy Deployment               Jaccard\n"
    ));
    for (i, r) in rankings.iter().enumerate() {
        out.push_str(&format!(
            "{:<5} {:<42} {:.4}\n",
            i + 1,
            r.providers.join(" & "),
            r.jaccard
        ));
    }
    out
}

/// An n-of-m deployment's similarity profile (§4.2.5): the paper requires
/// the Jaccard similarity across the *n* primary providers and across all
/// *m* providers of an n-of-m redundancy deployment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NOfMRanking {
    /// The n primary providers.
    pub primaries: Vec<String>,
    /// Jaccard across the n primaries.
    pub primary_jaccard: f64,
    /// Jaccard across all m providers.
    pub full_jaccard: f64,
}

/// Evaluates an n-of-m deployment privately: one P-SOP run across the `n`
/// primaries (`primary_idx` into `providers`) and one across all `m`.
///
/// # Panics
///
/// Panics if fewer than two primaries are given or indices are out of
/// range.
pub fn rank_n_of_m(
    providers: &[(String, Vec<String>)],
    primary_idx: &[usize],
    config: &PsopConfig,
) -> NOfMRanking {
    assert!(primary_idx.len() >= 2, "need at least two primaries");
    assert!(primary_idx.iter().all(|&i| i < providers.len()));
    let run = |idx: &[usize]| -> f64 {
        let datasets: Vec<Vec<String>> = idx.iter().map(|&i| providers[i].1.clone()).collect();
        let mut net = SimNetwork::new(idx.len() + 1);
        run_psop(&datasets, config, &mut net).jaccard
    };
    let all: Vec<usize> = (0..providers.len()).collect();
    NOfMRanking {
        primaries: primary_idx
            .iter()
            .map(|&i| providers[i].0.clone())
            .collect(),
        primary_jaccard: run(primary_idx),
        full_jaccard: run(&all),
    }
}

/// All `k`-subsets of `0..n`, lexicographic.
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(i + 1, n, k, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    if k <= n {
        rec(0, n, k, &mut Vec::new(), &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn providers() -> Vec<(String, Vec<String>)> {
        let mk = |name: &str, items: &[&str]| {
            (
                name.to_string(),
                items.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            )
        };
        vec![
            mk("Cloud1", &["libc", "erlang", "ssl", "riak"]),
            mk("Cloud2", &["libc", "boost", "ssl", "mongo"]),
            mk("Cloud3", &["libc", "jemalloc", "redis"]),
            mk("Cloud4", &["libc", "erlang", "ssl", "couch"]),
        ]
    }

    #[test]
    fn two_way_ranking_is_ascending() {
        let r = rank_deployments(&providers(), 2, None, &PsopConfig::default());
        assert_eq!(r.len(), 6);
        for w in r.windows(2) {
            assert!(w[0].jaccard <= w[1].jaccard);
        }
        // Riak & CouchDB share the most → last (least independent).
        let last = &r[r.len() - 1];
        assert_eq!(last.providers, vec!["Cloud1", "Cloud4"]);
    }

    #[test]
    fn three_way_ranking_counts() {
        let r = rank_deployments(&providers(), 3, None, &PsopConfig::default());
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn minhash_path_produces_similar_order() {
        // With plenty of hash functions the MinHash ranking should put the
        // most-overlapping pair last, like the exact path.
        let r = rank_deployments(&providers(), 2, Some(128), &PsopConfig::default());
        let last = &r[r.len() - 1];
        assert_eq!(last.providers, vec!["Cloud1", "Cloud4"]);
    }

    #[test]
    fn render_contains_rows() {
        let r = rank_deployments(&providers(), 2, None, &PsopConfig::default());
        let text = render_ranking(2, &r);
        assert!(text.contains("Cloud1 & Cloud4"));
        assert!(text.contains("Jaccard"));
    }

    #[test]
    fn n_of_m_profile() {
        let p = providers();
        let r = rank_n_of_m(&p, &[1, 2], &PsopConfig::default());
        assert_eq!(r.primaries, vec!["Cloud2", "Cloud3"]);
        // Primary Jaccard must equal the pairwise ranking's value.
        let pairwise = rank_deployments(&p, 2, None, &PsopConfig::default());
        let same = pairwise
            .iter()
            .find(|x| x.providers == vec!["Cloud2", "Cloud3"])
            .unwrap();
        assert!((r.primary_jaccard - same.jaccard).abs() < 1e-12);
        // The 4-way Jaccard is at most any pairwise one.
        assert!(r.full_jaccard <= r.primary_jaccard + 1e-12);
    }

    #[test]
    fn combinations_counts() {
        assert_eq!(combinations(4, 2).len(), 6);
        assert_eq!(combinations(4, 3).len(), 4);
        assert_eq!(combinations(4, 4).len(), 1);
        assert!(combinations(3, 5).is_empty());
    }
}

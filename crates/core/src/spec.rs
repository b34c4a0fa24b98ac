//! Audit specifications — what the auditing client sends the agent
//! (Step 1 of the workflow in §2).

use indaas_deps::FailureProbModel;
use serde::{Deserialize, Serialize};

/// One candidate redundancy deployment to audit.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CandidateDeployment {
    /// Display name in the report ("Rack 5 + Rack 29").
    pub name: String,
    /// The redundant servers.
    pub servers: Vec<String>,
    /// How many replicas must stay alive (1 = plain replication).
    pub needed_alive: usize,
}

impl CandidateDeployment {
    /// Plain replication across `servers` (service survives while any
    /// replica survives).
    pub fn replicated(
        name: impl Into<String>,
        servers: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        CandidateDeployment {
            name: name.into(),
            servers: servers.into_iter().map(Into::into).collect(),
            needed_alive: 1,
        }
    }
}

/// Which risk-group detection algorithm to run (§4.1.2).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum RgAlgorithm {
    /// Exact minimal-RG computation, optionally truncated to cut sets of at
    /// most `max_order` events.
    Minimal {
        /// Cut-set order cap (`None` = exact and potentially exponential).
        max_order: Option<usize>,
    },
    /// Monte-Carlo failure sampling.
    Sampling {
        /// Sampling rounds.
        rounds: u64,
        /// Per-event coin-flip failure probability.
        fail_prob: f64,
        /// RNG seed.
        seed: u64,
        /// Worker threads.
        threads: usize,
    },
}

impl Default for RgAlgorithm {
    fn default() -> Self {
        RgAlgorithm::Minimal { max_order: None }
    }
}

/// How risk groups are ranked and deployments scored (§4.1.3, §4.1.4).
#[derive(Clone, Debug, Serialize, Deserialize, Default)]
pub enum RankingMetric {
    /// Rank by RG size; score = Σ sizes (higher = more independent).
    #[default]
    Size,
    /// Rank by relative importance using failure probabilities; score =
    /// Σ importances (lower = more independent).
    Probability {
        /// Probability assumed for components the model does not cover.
        default_prob: f64,
    },
}

/// A full SIA audit specification.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AuditSpec {
    /// Candidate deployments to compare.
    pub candidates: Vec<CandidateDeployment>,
    /// Audit network dependencies.
    pub network: bool,
    /// Audit hardware dependencies.
    pub hardware: bool,
    /// Audit software dependencies.
    pub software: bool,
    /// Risk-group detection algorithm.
    pub algorithm: RgAlgorithm,
    /// Ranking metric.
    pub metric: RankingMetric,
    /// How many top RGs feed each deployment's score (`None` = all).
    pub top_n: Option<usize>,
    /// Failure-probability model for weighting components (used by the
    /// probability metric).
    pub prob_model: Option<FailureProbModel>,
}

impl AuditSpec {
    /// A spec with size-based ranking and the exact minimal-RG algorithm,
    /// auditing all dependency categories.
    pub fn sia_size_based(candidates: Vec<CandidateDeployment>) -> Self {
        AuditSpec {
            candidates,
            network: true,
            hardware: true,
            software: true,
            algorithm: RgAlgorithm::default(),
            metric: RankingMetric::Size,
            top_n: None,
            prob_model: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_constructor() {
        let c = CandidateDeployment::replicated("pair", ["S1", "S2"]);
        assert_eq!(c.servers.len(), 2);
        assert_eq!(c.needed_alive, 1);
    }

    #[test]
    fn spec_defaults() {
        let spec = AuditSpec::sia_size_based(vec![]);
        assert!(spec.network && spec.hardware && spec.software);
        assert!(matches!(
            spec.algorithm,
            RgAlgorithm::Minimal { max_order: None }
        ));
        assert!(matches!(spec.metric, RankingMetric::Size));
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = AuditSpec {
            metric: RankingMetric::Probability { default_prob: 0.1 },
            prob_model: Some(FailureProbModel::gill_defaults()),
            ..AuditSpec::sia_size_based(vec![CandidateDeployment::replicated("x", ["a", "b"])])
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: AuditSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.candidates[0].name, "x");
        assert!(matches!(back.metric, RankingMetric::Probability { .. }));
    }
}

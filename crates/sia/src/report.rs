//! Auditing reports and independence scores (§4.1.4).
//!
//! After risk groups are determined and ranked, SIA computes an
//! *independence score* per candidate deployment and ranks the deployments,
//! giving the auditing client an actionable comparison. Size-based scores
//! sum the sizes of the top-n RGs (bigger = more independent); probability
//! based scores sum the top-n relative importances (smaller = more
//! independent).

use indaas_graph::FaultGraph;
use serde::{Deserialize, Serialize};

use crate::ranking::{rank_by_probability, rank_by_size};
use crate::riskgroup::RgFamily;

/// Which scoring rule produced an independence score, and therefore which
/// direction is "better".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScoreKind {
    /// `indep(R) = Σ size(cᵢ)` over the top-n RGs; higher is better.
    SizeBased,
    /// `indep(R) = Σ I_{cᵢ}` over the top-n RGs; lower is better.
    ProbabilityBased,
}

/// One ranked risk group as it appears in a report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RankedRg {
    /// Component names in the group.
    pub events: Vec<String>,
    /// Group size.
    pub size: usize,
    /// Pr(all events fail), when probabilities were used.
    pub probability: Option<f64>,
    /// Relative importance I_C = Pr(C)/Pr(T), when probabilities were used.
    pub importance: Option<f64>,
}

/// The audit result for one candidate redundancy deployment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeploymentAudit {
    /// Deployment name (e.g., "Rack5 + Rack29").
    pub name: String,
    /// Risk groups, best-ranked (most critical) first.
    pub ranked_rgs: Vec<RankedRg>,
    /// The independence score over the top-n RGs.
    pub independence_score: f64,
    /// Scoring rule used.
    pub score_kind: ScoreKind,
    /// Number of *unexpected* RGs: groups strictly smaller than the
    /// replication factor.
    pub unexpected_rgs: usize,
    /// Estimated top-event (whole-deployment failure) probability, when
    /// probabilities were used.
    pub failure_probability: Option<f64>,
}

impl DeploymentAudit {
    /// Audits one deployment with size-based ranking over its (already
    /// computed) risk groups. `top_n` limits how many RGs feed the score
    /// (`None` = all).
    pub fn size_based(
        name: impl Into<String>,
        family: &RgFamily,
        graph: &FaultGraph,
        replication: usize,
        top_n: Option<usize>,
    ) -> Self {
        let ranked = rank_by_size(family, graph);
        let n = top_n.unwrap_or(ranked.len()).min(ranked.len());
        let score: f64 = ranked[..n].iter().map(|g| g.len() as f64).sum();
        let unexpected = ranked.iter().filter(|g| g.len() < replication).count();
        DeploymentAudit {
            name: name.into(),
            ranked_rgs: ranked
                .iter()
                .map(|g| RankedRg {
                    events: g.names(graph),
                    size: g.len(),
                    probability: None,
                    importance: None,
                })
                .collect(),
            independence_score: score,
            score_kind: ScoreKind::SizeBased,
            unexpected_rgs: unexpected,
            failure_probability: None,
        }
    }

    /// Audits one deployment with probability-based ranking, normalised
    /// by `pr_top` when the caller has the exact top-event probability
    /// (see [`rank_by_probability`]).
    pub fn probability_based(
        name: impl Into<String>,
        family: &RgFamily,
        graph: &FaultGraph,
        replication: usize,
        default_prob: f64,
        pr_top: Option<f64>,
        top_n: Option<usize>,
    ) -> Self {
        let (ranked, pr_top) = rank_by_probability(family, graph, default_prob, pr_top);
        let n = top_n.unwrap_or(ranked.len()).min(ranked.len());
        let score: f64 = ranked[..n].iter().map(|r| r.importance).sum();
        let unexpected = ranked
            .iter()
            .filter(|r| r.group.len() < replication)
            .count();
        DeploymentAudit {
            name: name.into(),
            ranked_rgs: ranked
                .iter()
                .map(|r| RankedRg {
                    events: r.group.names(graph),
                    size: r.group.len(),
                    probability: Some(r.probability),
                    importance: Some(r.importance),
                })
                .collect(),
            independence_score: score,
            score_kind: ScoreKind::ProbabilityBased,
            unexpected_rgs: unexpected,
            failure_probability: Some(pr_top),
        }
    }
}

/// The full auditing report returned to the client (Step 6 of §2):
/// candidate deployments ranked by independence.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AuditReport {
    /// Deployments, best (most independent) first.
    pub deployments: Vec<DeploymentAudit>,
}

impl AuditReport {
    /// Assembles a report, sorting deployments best-first.
    ///
    /// Size-based audits order by descending score (Σ sizes of the top-n
    /// RGs). Probability-based audits order by ascending estimated
    /// whole-deployment failure probability — the quantity the paper's
    /// §6.2.1 case study uses to crown the winning deployment — with the
    /// Σ-of-importances score kept as a reported field (summing relative
    /// importances over the *full* RG list always totals ≈ 1, so it only
    /// discriminates under a client-chosen `top_n` cutoff).
    ///
    /// # Panics
    ///
    /// Panics if deployments mix scoring rules.
    pub fn new(mut deployments: Vec<DeploymentAudit>) -> Self {
        if let Some(kind) = deployments.first().map(|d| d.score_kind) {
            assert!(
                deployments.iter().all(|d| d.score_kind == kind),
                "cannot mix scoring rules in one report"
            );
            deployments.sort_by(|a, b| {
                let primary = match kind {
                    // `total_cmp`: a NaN score (say, `inf - inf` from
                    // out-of-range probabilities) sorts last instead of
                    // panicking.
                    ScoreKind::SizeBased => b.independence_score.total_cmp(&a.independence_score),
                    ScoreKind::ProbabilityBased => {
                        let pa = a.failure_probability.unwrap_or(f64::INFINITY);
                        let pb = b.failure_probability.unwrap_or(f64::INFINITY);
                        pa.total_cmp(&pb)
                    }
                };
                primary.then_with(|| a.name.cmp(&b.name))
            });
        }
        AuditReport { deployments }
    }

    /// The most independent deployment, if any were audited.
    pub fn best(&self) -> Option<&DeploymentAudit> {
        self.deployments.first()
    }

    /// Renders a human-readable text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("=== INDaaS auditing report ===\n");
        for (rank, d) in self.deployments.iter().enumerate() {
            out.push_str(&format!(
                "#{:<3} {:<30} score={:<10.4} unexpected RGs={}",
                rank + 1,
                d.name,
                d.independence_score,
                d.unexpected_rgs
            ));
            if let Some(p) = d.failure_probability {
                out.push_str(&format!(" Pr(outage)={p:.4}"));
            }
            out.push('\n');
            for (i, rg) in d.ranked_rgs.iter().take(4).enumerate() {
                out.push_str(&format!("     RG{}: {{{}}}", i + 1, rg.events.join(", ")));
                if let Some(imp) = rg.importance {
                    out.push_str(&format!(" importance={imp:.4}"));
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal::{minimal_risk_groups, MinimalConfig};
    use indaas_graph::detail::{component_sets_to_graph, ComponentSet};

    fn audit_of(sets: &[ComponentSet], name: &str) -> (DeploymentAudit, FaultGraph) {
        let graph = component_sets_to_graph(sets).unwrap();
        let rgs = minimal_risk_groups(&graph, &MinimalConfig::default());
        (
            DeploymentAudit::size_based(name, &rgs, &graph, sets.len(), None),
            graph,
        )
    }

    #[test]
    fn unexpected_rg_counting() {
        let (audit, _) = audit_of(
            &[
                ComponentSet::new("E1", ["shared", "a"]),
                ComponentSet::new("E2", ["shared", "b"]),
            ],
            "with-shared",
        );
        // {shared} is size 1 < replication 2 → one unexpected RG.
        assert_eq!(audit.unexpected_rgs, 1);

        let (clean, _) = audit_of(
            &[
                ComponentSet::new("E1", ["a"]),
                ComponentSet::new("E2", ["b"]),
            ],
            "clean",
        );
        assert_eq!(clean.unexpected_rgs, 0);
    }

    #[test]
    fn report_ranks_size_based_descending() {
        let (risky, _) = audit_of(
            &[
                ComponentSet::new("E1", ["shared"]),
                ComponentSet::new("E2", ["shared"]),
            ],
            "risky",
        );
        let (clean, _) = audit_of(
            &[
                ComponentSet::new("E1", ["a"]),
                ComponentSet::new("E2", ["b"]),
            ],
            "clean",
        );
        let report = AuditReport::new(vec![risky, clean]);
        assert_eq!(report.best().unwrap().name, "clean");
    }

    #[test]
    fn probability_based_report_ranks_ascending() {
        let graph_risky = component_sets_to_graph(&[
            ComponentSet::new("E1", ["shared"]),
            ComponentSet::new("E2", ["shared"]),
        ])
        .unwrap();
        let rgs_risky = minimal_risk_groups(&graph_risky, &MinimalConfig::default());
        let risky = DeploymentAudit::probability_based(
            "risky",
            &rgs_risky,
            &graph_risky,
            2,
            0.1,
            None,
            None,
        );
        let graph_clean = component_sets_to_graph(&[
            ComponentSet::new("E1", ["a"]),
            ComponentSet::new("E2", ["b"]),
        ])
        .unwrap();
        let rgs_clean = minimal_risk_groups(&graph_clean, &MinimalConfig::default());
        let clean = DeploymentAudit::probability_based(
            "clean",
            &rgs_clean,
            &graph_clean,
            2,
            0.1,
            None,
            None,
        );
        // Clean deployment: Pr(outage) = 0.01 < risky's 0.1.
        assert!(clean.failure_probability.unwrap() < risky.failure_probability.unwrap());
        let report = AuditReport::new(vec![risky, clean]);
        assert_eq!(report.best().unwrap().name, "clean");
    }

    #[test]
    #[should_panic(expected = "cannot mix scoring rules")]
    fn mixed_rules_rejected() {
        let (a, graph) = audit_of(
            &[
                ComponentSet::new("E1", ["a"]),
                ComponentSet::new("E2", ["b"]),
            ],
            "a",
        );
        let rgs = minimal_risk_groups(&graph, &MinimalConfig::default());
        let b = DeploymentAudit::probability_based("b", &rgs, &graph, 2, 0.1, None, None);
        let _ = AuditReport::new(vec![a, b]);
    }

    #[test]
    fn render_contains_key_facts() {
        let (audit, _) = audit_of(
            &[
                ComponentSet::new("E1", ["shared", "a"]),
                ComponentSet::new("E2", ["shared", "b"]),
            ],
            "demo",
        );
        let text = AuditReport::new(vec![audit]).render();
        assert!(text.contains("demo"));
        assert!(text.contains("shared"));
        assert!(text.contains("unexpected RGs=1"));
    }

    #[test]
    fn top_n_limits_score() {
        let (audit_all, graph) = audit_of(
            &[
                ComponentSet::new("E1", ["s", "a1", "a2"]),
                ComponentSet::new("E2", ["s", "b1", "b2"]),
            ],
            "x",
        );
        let rgs = minimal_risk_groups(&graph, &MinimalConfig::default());
        let audit_top1 = DeploymentAudit::size_based("x", &rgs, &graph, 2, Some(1));
        assert!(audit_top1.independence_score < audit_all.independence_score);
        assert_eq!(audit_top1.independence_score, 1.0); // {s} alone.
    }
}

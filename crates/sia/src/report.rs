//! Auditing reports and independence scores (§4.1.4).
//!
//! After risk groups are determined and ranked, SIA computes an
//! *independence score* per candidate deployment and ranks the deployments,
//! giving the auditing client an actionable comparison. Size-based scores
//! sum the sizes of the top-n RGs (bigger = more independent); probability
//! based scores sum the top-n relative importances (smaller = more
//! independent).
//!
//! Both consumers read one [`Ranking`] per deployment, which orders and
//! scores the family's rows once. [`DeploymentAudit`] is the typed
//! report (the CLI's and the library's). [`write_report`] is the wire
//! text, written straight from the rows: each basic event's name is
//! quoted once per graph, and no per-group value is built. Its bytes
//! equal `serde_json::to_string` of the typed report, whose derived
//! `Serialize` is the specification the writer is held to.

use std::cmp::Ordering;

use indaas_graph::FaultGraph;
use serde::{Deserialize, Serialize, Writer};

use crate::ranking::Ranking;
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
    /// Pr(T), the exact probability that some listed group fails (the
    /// whole deployment's when the family is complete), when
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
        let ranking = Ranking::by_size(family, graph, replication, top_n);
        Self::from_ranking(name, graph, &ranking)
    }

    /// The typed audit of a deployment ranked over `graph`.
    pub fn from_ranking(name: impl Into<String>, graph: &FaultGraph, ranking: &Ranking) -> Self {
        let basics = &ranking.basics;
        DeploymentAudit {
            name: name.into(),
            ranked_rgs: ranking
                .ranked()
                .map(|(row, weights)| RankedRg {
                    events: row
                        .iter()
                        .map(|&at| graph.node(basics[at as usize]).name.clone())
                        .collect(),
                    size: row.len(),
                    probability: weights.map(|(p, _)| p),
                    importance: weights.map(|(_, importance)| importance),
                })
                .collect(),
            independence_score: ranking.score,
            score_kind: ranking.kind,
            unexpected_rgs: ranking.unexpected,
            failure_probability: ranking.pr_top,
        }
    }
}

/// Writes the report of ranked deployments — `(name, graph, ranking)`,
/// each ranked over its graph — as compact JSON, byte for byte
/// `serde_json::to_string` of the [`AuditReport`] the typed path builds
/// from them, straight from the rankings' rows: no [`RankedRg`] and no
/// name `String` per group. Each basic event's name is quoted once per
/// graph and copied into every group that holds it. Keys are written in
/// the derive's (sorted) order and deployments in [`AuditReport::new`]'s.
///
/// # Panics
///
/// Panics if deployments mix scoring rules.
pub fn write_report<'a>(
    deployments: impl IntoIterator<Item = (&'a str, &'a FaultGraph, &'a Ranking)>,
) -> String {
    let mut deployments: Vec<_> = deployments.into_iter().collect();
    if let Some(kind) = deployments.first().map(|(_, _, r)| r.kind) {
        assert!(
            deployments.iter().all(|(_, _, r)| r.kind == kind),
            "cannot mix scoring rules in one report"
        );
        let key = |&(name, _, r): &(&'a str, _, &Ranking)| (r.score, r.pr_top, name);
        deployments.sort_by(|a, b| best_first(kind, key(a), key(b)));
    }
    let mut w = Writer::compact();
    w.begin_object();
    w.quoted_key(r#""deployments":"#);
    w.begin_array();
    for (name, graph, ranking) in deployments {
        w.element();
        write_deployment(&mut w, name, graph, ranking);
    }
    w.end_array();
    w.end_object();
    w.into_string()
}

/// One [`DeploymentAudit`] object of [`write_report`].
fn write_deployment(w: &mut Writer, name: &str, graph: &FaultGraph, ranking: &Ranking) {
    // The name at position `at` is `quoted[ends[at]..ends[at + 1]]`.
    let mut quoted = Writer::compact();
    let mut ends = Vec::with_capacity(ranking.basics.len() + 1);
    ends.push(0);
    for &id in &ranking.basics {
        quoted.str(&graph.node(id).name);
        ends.push(quoted.as_str().len());
    }
    let quoted = quoted.into_string();
    w.begin_object();
    w.quoted_key(r#""failure_probability":"#);
    ranking.pr_top.serialize(w);
    w.quoted_key(r#""independence_score":"#);
    w.f64(ranking.score);
    w.quoted_key(r#""name":"#);
    w.str(name);
    w.quoted_key(r#""ranked_rgs":"#);
    w.begin_array();
    for (row, weights) in ranking.ranked() {
        w.element();
        w.begin_object();
        w.quoted_key(r#""events":"#);
        w.begin_array();
        for &at in row {
            w.element();
            w.raw(&quoted[ends[at as usize]..ends[at as usize + 1]]);
        }
        w.end_array();
        w.quoted_key(r#""importance":"#);
        weights.map(|(_, importance)| importance).serialize(w);
        w.quoted_key(r#""probability":"#);
        weights.map(|(p, _)| p).serialize(w);
        w.quoted_key(r#""size":"#);
        w.u64(row.len() as u64);
        w.end_object();
    }
    w.end_array();
    w.quoted_key(r#""score_kind":"#);
    ranking.kind.serialize(w);
    w.quoted_key(r#""unexpected_rgs":"#);
    w.u64(ranking.unexpected as u64);
    w.end_object();
}

/// The order [`AuditReport::new`] puts two deployments in, each given as
/// `(independence score, failure probability, name)`.
///
/// Size-based audits order by descending score (Σ sizes of the top-n
/// RGs). Probability-based audits order by ascending
/// whole-deployment failure probability — the quantity the paper's
/// §6.2.1 case study uses to crown the winning deployment — with the
/// Σ-of-importances score kept as a reported field (summing relative
/// importances over the *full* RG list always totals ≈ 1, so it only
/// discriminates under a client-chosen `top_n` cutoff). Ties go by name.
fn best_first(
    kind: ScoreKind,
    (a_score, a_pr, a_name): (f64, Option<f64>, &str),
    (b_score, b_pr, b_name): (f64, Option<f64>, &str),
) -> Ordering {
    let primary = match kind {
        // `total_cmp`: a NaN score (say, `inf - inf` from out-of-range
        // probabilities) sorts last instead of panicking.
        ScoreKind::SizeBased => b_score.total_cmp(&a_score),
        ScoreKind::ProbabilityBased => {
            let pa = a_pr.unwrap_or(f64::INFINITY);
            let pb = b_pr.unwrap_or(f64::INFINITY);
            pa.total_cmp(&pb)
        }
    };
    primary.then_with(|| a_name.cmp(b_name))
}

/// The full auditing report returned to the client (Step 6 of §2):
/// candidate deployments ranked by independence.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AuditReport {
    /// Deployments, best (most independent) first.
    pub deployments: Vec<DeploymentAudit>,
}

impl AuditReport {
    /// Assembles a report, sorting deployments best-first (see
    /// [`write_report`] for the order).
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
            fn key(d: &DeploymentAudit) -> (f64, Option<f64>, &str) {
                (d.independence_score, d.failure_probability, &d.name)
            }
            deployments.sort_by(|a, b| best_first(kind, key(a), key(b)));
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

    /// `family` ranked by probability at replication 2, `default_prob` 0.1.
    fn by_probability(family: &RgFamily, graph: &FaultGraph, top_n: Option<usize>) -> Ranking {
        let token = indaas_graph::CancelToken::default();
        Ranking::by_probability(family, graph, 2, 0.1, top_n, &token).unwrap()
    }

    /// The typed audit of [`by_probability`].
    fn probability_based(name: &str, family: &RgFamily, graph: &FaultGraph) -> DeploymentAudit {
        DeploymentAudit::from_ranking(name, graph, &by_probability(family, graph, None))
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
        let risky = probability_based("risky", &rgs_risky, &graph_risky);
        let graph_clean = component_sets_to_graph(&[
            ComponentSet::new("E1", ["a"]),
            ComponentSet::new("E2", ["b"]),
        ])
        .unwrap();
        let rgs_clean = minimal_risk_groups(&graph_clean, &MinimalConfig::default());
        let clean = probability_based("clean", &rgs_clean, &graph_clean);
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
        let b = probability_based("b", &rgs, &graph);
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

    /// What `serde_json::to_string` writes for a typed report.
    fn typed_text(report: &AuditReport) -> String {
        let mut w = Writer::compact();
        report.serialize(&mut w);
        w.into_string()
    }

    #[test]
    fn written_report_is_the_typed_encoding() {
        // Names JSON must escape; two deployments tied on score, so the
        // order falls to their names; an empty family.
        let tied = [
            ComponentSet::new("E1", ["sh\"ared", "a\u{1}"]),
            ComponentSet::new("E2", ["sh\"ared", "b\\é"]),
        ];
        let graph = component_sets_to_graph(&tied).unwrap();
        let family = minimal_risk_groups(&graph, &MinimalConfig::default());
        let empty = RgFamily::new();
        for top_n in [None, Some(1)] {
            let size: Vec<_> = [("z\n", &family), ("a\"", &family), ("none", &empty)]
                .map(|(name, family)| (name, Ranking::by_size(family, &graph, 2, top_n)))
                .into();
            let prob: Vec<_> = [("p\t", &family), ("q", &empty)]
                .map(|(name, family)| (name, by_probability(family, &graph, top_n)))
                .into();
            for rankings in [size, prob] {
                let typed = AuditReport::new(
                    rankings
                        .iter()
                        .map(|(name, r)| DeploymentAudit::from_ranking(*name, &graph, r))
                        .collect(),
                );
                let text = write_report(rankings.iter().map(|(name, r)| (*name, &graph, r)));
                assert_eq!(text, typed_text(&typed));
            }
        }
        assert_eq!(write_report([]), typed_text(&AuditReport::new(Vec::new())));
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

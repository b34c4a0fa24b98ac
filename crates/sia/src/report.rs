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
    /// The exact probability that some listed group fails, when
    /// probabilities were used: Pr(∪ listed groups), from
    /// [`crate::top_event_probability`]. For a complete family (an
    /// uncapped exact audit) that is the deployment's own Pr(T). Under an
    /// order cap or the sampling engine the family omits groups, and the
    /// value is a lower bound on the deployment's Pr(T).
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
/// name `String` per group. Keys are written in the derive's (sorted)
/// order and deployments in [`AuditReport::new`]'s.
///
/// One pass measures, one writes. The first quotes each basic event's
/// name once per graph, writes every deployment's own fields and, under
/// the probability metric, every group's two numbers, and sums the
/// report's length: those texts, each group's fixed text and the digits
/// of its size. The second copies them into a buffer of exactly that
/// length, which never grows, each group's fixed text as whole slices.
///
/// # Panics
///
/// Panics if deployments mix scoring rules.
pub fn write_report<'a>(
    deployments: impl IntoIterator<Item = (&'a str, &'a FaultGraph, &'a Ranking)>,
) -> String {
    ReportText::new(deployments).write()
}

/// What [`write_report`] writes, measured: every text it copies but the
/// groups' fixed text, and the report's length in bytes.
struct ReportText<'a> {
    deployments: Vec<DeploymentText<'a>>,
    len: usize,
}

/// One deployment of a [`ReportText`].
struct DeploymentText<'a> {
    ranking: &'a Ranking,
    /// From the object's `{` to the `[` that opens `ranked_rgs`.
    head: String,
    /// From the `]` that closes `ranked_rgs` to the object's `}`.
    tail: String,
    /// Every basic event's name quoted, after a comma, by position.
    names: Vec<String>,
    /// Under the probability metric, each ranked group's text from the
    /// `]` after its names to the colon before its size: group `g` is
    /// `weights[weight_ends[g]..weight_ends[g + 1]]`.
    weights: String,
    weight_ends: Vec<usize>,
}

/// A group's text before its names, after a comma.
const GROUP_OPEN: &str = r#",{"events":["#;
/// A size-ranked group's text from the `]` after its names to the colon
/// before its size.
const NO_WEIGHTS: &str = r#"],"importance":null,"probability":null,"size":"#;

impl<'a> ReportText<'a> {
    fn new(deployments: impl IntoIterator<Item = (&'a str, &'a FaultGraph, &'a Ranking)>) -> Self {
        let mut deployments: Vec<_> = deployments.into_iter().collect();
        if let Some(kind) = deployments.first().map(|(_, _, r)| r.kind) {
            assert!(
                deployments.iter().all(|(_, _, r)| r.kind == kind),
                "cannot mix scoring rules in one report"
            );
            let key = |&(name, _, r): &(&'a str, _, &Ranking)| (r.score, r.pr_top, name);
            deployments.sort_by(|a, b| best_first(kind, key(a), key(b)));
        }
        let deployments: Vec<_> = deployments
            .into_iter()
            .map(|(name, graph, ranking)| DeploymentText::new(name, graph, ranking))
            .collect();
        let fixed = r#"{"deployments":[]}"#.len() + deployments.len().saturating_sub(1);
        let len = fixed + deployments.iter().map(DeploymentText::len).sum::<usize>();
        ReportText { deployments, len }
    }

    fn write(&self) -> String {
        let mut w = Writer::with_capacity(self.len);
        w.raw(r#"{"deployments":["#);
        for (i, deployment) in self.deployments.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            deployment.write(&mut w);
        }
        w.raw("]}");
        let text = w.into_string();
        debug_assert_eq!(text.len(), self.len, "a report's measured length");
        text
    }
}

impl<'a> DeploymentText<'a> {
    fn new(name: &str, graph: &FaultGraph, ranking: &'a Ranking) -> Self {
        let names = ranking
            .basics
            .iter()
            .map(|&id| {
                let mut name = Writer::compact();
                name.raw(",");
                name.str(&graph.node(id).name);
                name.into_string()
            })
            .collect();
        let mut weights = Writer::compact();
        let mut weight_ends = vec![0];
        if ranking.kind == ScoreKind::ProbabilityBased {
            for (probability, importance) in ranking.ranked().filter_map(|(_, group)| group) {
                weights.raw(r#"],"importance":"#);
                weights.f64(importance);
                weights.raw(r#","probability":"#);
                weights.f64(probability);
                weights.raw(r#","size":"#);
                weight_ends.push(weights.as_str().len());
            }
        }
        let mut head = Writer::compact();
        head.raw(r#"{"failure_probability":"#);
        ranking.pr_top.serialize(&mut head);
        head.raw(r#","independence_score":"#);
        head.f64(ranking.score);
        head.raw(r#","name":"#);
        head.str(name);
        head.raw(r#","ranked_rgs":["#);
        let mut tail = Writer::compact();
        tail.raw(r#"],"score_kind":"#);
        ranking.kind.serialize(&mut tail);
        tail.raw(r#","unexpected_rgs":"#);
        tail.u64(ranking.unexpected as u64);
        tail.raw("}");
        DeploymentText {
            ranking,
            head: head.into_string(),
            tail: tail.into_string(),
            names,
            weights: weights.into_string(),
            weight_ends,
        }
    }

    /// The quoted name at `at`, after its comma.
    fn name(&self, at: u32) -> &str {
        &self.names[at as usize]
    }

    /// Group `g`'s text from the `]` after its names to its size.
    fn weights(&self, g: usize) -> &str {
        match self.weight_ends.get(g + 1) {
            Some(&end) => &self.weights[self.weight_ends[g]..end],
            None => NO_WEIGHTS,
        }
    }

    /// This deployment's length in bytes.
    fn len(&self) -> usize {
        let groups: usize = self
            .ranking
            .ranked()
            .enumerate()
            .map(|(g, (row, _))| {
                let names: usize = row.iter().map(|&at| self.name(at).len()).sum();
                // A group's first name goes without its comma; the closing
                // brace is the 1.
                GROUP_OPEN.len() + names - usize::from(!row.is_empty())
                    + self.weights(g).len()
                    + digits(row.len() as u64)
                    + 1
            })
            .sum();
        // The first group goes without its comma.
        self.head.len() + groups.saturating_sub(1) + self.tail.len()
    }

    fn write(&self, w: &mut Writer) {
        w.raw(&self.head);
        for (g, (row, _)) in self.ranking.ranked().enumerate() {
            w.raw(&GROUP_OPEN[usize::from(g == 0)..]);
            if let Some((&first, rest)) = row.split_first() {
                w.raw(&self.name(first)[1..]);
                for &at in rest {
                    w.raw(self.name(at));
                }
            }
            w.raw(self.weights(g));
            w.u64(row.len() as u64);
            w.raw("}");
        }
        w.raw(&self.tail);
    }
}

/// How many decimal digits `v` is written with.
fn digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
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

    /// Writes the report of `deployments` and checks that its measured
    /// length is the written length and its buffer never grew.
    fn assert_sized<'a>(deployments: &[(&'a str, &'a FaultGraph, &'a Ranking)]) -> String {
        let report = ReportText::new(deployments.iter().copied());
        let len = report.len;
        let text = report.write();
        assert_eq!((text.len(), text.capacity()), (len, len));
        text
    }

    #[test]
    fn written_report_is_the_typed_encoding() {
        // Names JSON must escape; two deployments tied on score, so the
        // order falls to their names; an empty family. Each report fills
        // its measured buffer.
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
                let deployments: Vec<_> = rankings
                    .iter()
                    .map(|(name, r)| (*name, &graph, r))
                    .collect();
                assert_eq!(assert_sized(&deployments), typed_text(&typed));
            }
        }
        assert_eq!(assert_sized(&[]), typed_text(&AuditReport::new(Vec::new())));
    }

    #[test]
    fn fig7_reports_fill_their_measured_buffers() {
        use crate::builder::{build_fault_graph, BuildSpec};
        use indaas_deps::DepDb;
        use indaas_topology::{FatTree, FatTreeConfig};

        // The benchmark's report: topology A, one server per pod, 16-way,
        // `needed_alive` 15, order <= 4; and the same family ranked by
        // probability.
        let tree = FatTree::new(FatTreeConfig::topology_a());
        let coords: Vec<_> = (0..16).map(|pod| (pod, 0, 0)).collect();
        let db = DepDb::from_records(tree.deployment_records(&coords));
        let spec = BuildSpec {
            name: "fig7".into(),
            servers: coords
                .iter()
                .map(|&(p, e, s)| tree.server_name(p, e, s))
                .collect(),
            needed_alive: 15,
            network: true,
            hardware: true,
            software: true,
            prob_model: None,
        };
        let graph = build_fault_graph(&db, &spec).unwrap();
        let family = minimal_risk_groups(&graph, &MinimalConfig::with_max_order(4));
        assert_eq!(family.len(), 1_923);
        let size = Ranking::by_size(&family, &graph, 16, None);
        let text = assert_sized(&[("fig7", &graph, &size)]);
        assert!(text.len() > 180_000, "{} bytes", text.len());
        let token = indaas_graph::CancelToken::default();
        let probability = Ranking::by_probability(&family, &graph, 16, 0.01, None, &token).unwrap();
        assert_sized(&[
            ("fig7", &graph, &probability),
            ("again", &graph, &probability),
        ]);
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

//! Risk-group ranking (§4.1.3): size-based and failure-probability-based.

use indaas_graph::{FaultGraph, NodeId};
use rand::{Rng, SeedableRng};

use crate::report::ScoreKind;
use crate::riskgroup::{RgFamily, RiskGroup};

/// Inclusion–exclusion is exact up to this many minimal RGs (2²⁰ subsets);
/// beyond it [`top_event_probability`] falls back to Monte-Carlo.
pub const INCLUSION_EXCLUSION_LIMIT: usize = 20;

/// A family's risk groups ranked once, over row indices: the order, the
/// independence score, the unexpected count and, for the probability
/// metric, every group's probability and relative importance. Both
/// report consumers read it — the typed [`crate::DeploymentAudit`] and
/// the JSON writer [`crate::report::write_report`] — so neither sorts
/// or scores again.
///
/// Groups are ordered by size, smallest first, or by relative importance
/// `I_C = Pr(C) / Pr(T)`, largest first. Ties are broken by the groups'
/// member names, taken in node-id order and compared as a sequence. The
/// paper's SIA "randomly orders RGs with the same size"; this is a
/// deterministic stand-in, so one spec always gets one report (it does
/// depend on the order the spec lists servers in, which decides node
/// ids). Names are never compared as strings: each basic event's
/// position in name order stands for its name, and a row is held as its
/// members' positions.
#[derive(Clone, Debug)]
pub struct Ranking {
    /// The scoring rule, which says which direction is better.
    pub(crate) kind: ScoreKind,
    /// The graph's basic events in name order: position → node id.
    pub(crate) basics: Vec<NodeId>,
    /// Every row's members as name positions, in node-id order; row `r`
    /// is `members[starts[r]..starts[r + 1]]`.
    members: Vec<u32>,
    starts: Vec<u32>,
    /// Row indices, best-ranked first.
    order: Vec<u32>,
    /// Per row, `(Pr(C), I_C)`; empty under the size metric.
    weights: Vec<(f64, f64)>,
    /// The independence score over the top-n groups.
    pub(crate) score: f64,
    /// Groups strictly smaller than the replication factor.
    pub(crate) unexpected: usize,
    /// The normalizer `Pr(T)`, under the probability metric.
    pub(crate) pr_top: Option<f64>,
}

impl Ranking {
    /// Ranks `family` by size. `top_n` limits how many groups feed the
    /// score (`None` = all); a group smaller than `replication` is
    /// unexpected.
    pub fn by_size(
        family: &RgFamily,
        graph: &FaultGraph,
        replication: usize,
        top_n: Option<usize>,
    ) -> Self {
        Self::new(family, graph, None, replication, top_n)
    }

    /// Ranks `family` by relative importance, normalised by `pr_top` when
    /// the caller has the exact top-event probability (the BDD engine
    /// does) and by [`top_event_probability`] otherwise. Basic events
    /// without a probability fail with `default_prob`.
    pub fn by_probability(
        family: &RgFamily,
        graph: &FaultGraph,
        replication: usize,
        default_prob: f64,
        pr_top: Option<f64>,
        top_n: Option<usize>,
    ) -> Self {
        let pr_top = pr_top.unwrap_or_else(|| top_event_probability(family, graph, default_prob));
        Self::new(
            family,
            graph,
            Some((default_prob, pr_top)),
            replication,
            top_n,
        )
    }

    /// Ranks by size, or by importance given `(default_prob, Pr(T))`.
    fn new(
        family: &RgFamily,
        graph: &FaultGraph,
        probability: Option<(f64, f64)>,
        replication: usize,
        top_n: Option<usize>,
    ) -> Self {
        let mut basics = graph.basic_ids();
        basics.sort_unstable_by(|&a, &b| graph.node(a).name.cmp(&graph.node(b).name));
        let mut position = vec![0; graph.len()];
        for (at, &id) in (0..).zip(&basics) {
            position[id as usize] = at;
        }
        let n = family.len();
        let mut members = Vec::new();
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        let mut ids = Vec::new();
        for r in 0..n {
            ids.clear();
            ids.extend(family.row_ids(r));
            ids.sort_unstable();
            members.extend(ids.iter().map(|&id| position[id as usize]));
            starts.push(members.len() as u32);
        }
        let row = |r: usize| &members[starts[r] as usize..starts[r + 1] as usize];

        let weights: Vec<(f64, f64)> = match probability {
            None => Vec::new(),
            Some((default_prob, pr_top)) => {
                let prob: Vec<f64> = basics
                    .iter()
                    .map(|&id| graph.node(id).prob.unwrap_or(default_prob))
                    .collect();
                // Multiplied in node-id order, as `group_probability` does.
                (0..n)
                    .map(|r| {
                        let p: f64 = row(r).iter().map(|&at| prob[at as usize]).product();
                        (p, if pr_top > 0.0 { p / pr_top } else { 0.0 })
                    })
                    .collect()
            }
        };
        let importance = |r: usize| weights[r].1;

        let mut order: Vec<u32> = (0..n as u32).collect();
        // No two rows are equal, so any sort gives this order; the
        // stable one is the faster on the engines' nearly sorted rows.
        order.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            let primary = match probability {
                None => row(a).len().cmp(&row(b).len()),
                Some(_) => importance(b).total_cmp(&importance(a)),
            };
            primary.then_with(|| row(a).cmp(row(b)))
        });
        let top = order.iter().map(|&r| r as usize).take(top_n.unwrap_or(n));
        let score = match probability {
            None => top.map(|r| row(r).len() as f64).sum(),
            Some(_) => top.map(importance).sum(),
        };
        let unexpected = (0..n).filter(|&r| row(r).len() < replication).count();
        Ranking {
            kind: match probability {
                None => ScoreKind::SizeBased,
                Some(_) => ScoreKind::ProbabilityBased,
            },
            basics,
            members,
            starts,
            order,
            weights,
            score,
            unexpected,
            pr_top: probability.map(|(_, pr_top)| pr_top),
        }
    }

    /// The groups best-first: each one's members as name positions (in
    /// node-id order) and, under the probability metric, its
    /// `(Pr(C), I_C)`.
    pub(crate) fn ranked(
        &self,
    ) -> impl ExactSizeIterator<Item = (&[u32], Option<(f64, f64)>)> + '_ {
        self.order.iter().map(|&r| {
            let r = r as usize;
            let row = &self.members[self.starts[r] as usize..self.starts[r + 1] as usize];
            (row, self.weights.get(r).copied())
        })
    }
}

/// The probability that *all* events of `group` occur, assuming independent
/// basic events with the graph's per-node probabilities (`default_prob` for
/// unweighted nodes).
pub fn group_probability(group: &RiskGroup, graph: &FaultGraph, default_prob: f64) -> f64 {
    group
        .ids()
        .iter()
        .map(|&id| graph.node(id).prob.unwrap_or(default_prob))
        .product()
}

/// The probability of the top event, computed over the *minimal RG family*
/// by the inclusion–exclusion principle (exact for ≤
/// [`INCLUSION_EXCLUSION_LIMIT`] groups) or estimated by Monte-Carlo
/// sampling of the fault graph beyond that.
pub fn top_event_probability(family: &RgFamily, graph: &FaultGraph, default_prob: f64) -> f64 {
    if family.is_empty() {
        return 0.0;
    }
    if family.len() <= INCLUSION_EXCLUSION_LIMIT {
        inclusion_exclusion(family, graph, default_prob)
    } else {
        monte_carlo_top_probability(graph, default_prob, 200_000, 0x7019)
    }
}

/// Exact inclusion–exclusion: Pr(∪ᵢ RGᵢ) = Σ over non-empty subsets S of
/// (-1)^{|S|+1} · Pr(∩ S), where the intersection event is "all events in
/// the union of the subset's RGs fail".
fn inclusion_exclusion(family: &RgFamily, graph: &FaultGraph, default_prob: f64) -> f64 {
    let groups: Vec<RiskGroup> = family.groups().collect();
    let m = groups.len();
    debug_assert!(m <= INCLUSION_EXCLUSION_LIMIT);
    let mut total = 0.0f64;
    for mask in 1u32..(1u32 << m) {
        let mut union: Option<RiskGroup> = None;
        for (i, g) in groups.iter().enumerate() {
            if mask >> i & 1 == 1 {
                union = Some(match union {
                    None => g.clone(),
                    Some(u) => u.union(g),
                });
            }
        }
        let u = union.expect("mask is non-empty");
        let p = group_probability(&u, graph, default_prob);
        if mask.count_ones() % 2 == 1 {
            total += p;
        } else {
            total -= p;
        }
    }
    total.clamp(0.0, 1.0)
}

/// Monte-Carlo estimate of the top-event probability directly on the fault
/// graph (does not depend on having the complete minimal RG family).
pub fn monte_carlo_top_probability(
    graph: &FaultGraph,
    default_prob: f64,
    rounds: u64,
    seed: u64,
) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let basic = graph.basic_ids();
    let mut assignment = vec![false; graph.len()];
    let mut state = vec![false; graph.len()];
    let mut fails = 0u64;
    for _ in 0..rounds {
        for &id in &basic {
            let p = graph.node(id).prob.unwrap_or(default_prob);
            assignment[id as usize] = (rng.next_u64() as f64 / u64::MAX as f64) < p;
        }
        graph.evaluate_into(&assignment, &mut state);
        fails += u64::from(state[graph.top() as usize]);
    }
    fails as f64 / rounds as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal::{minimal_risk_groups, MinimalConfig};
    use indaas_graph::{FaultGraphBuilder, Gate};

    /// Figure 4(b): E1 = {A1: 0.1, A2: 0.2}, E2 = {A2: 0.2, A3: 0.3}.
    fn fig4b_graph() -> FaultGraph {
        let mut b = FaultGraphBuilder::new();
        let a1 = b.basic("A1 fails", Some(0.1));
        let a2 = b.basic("A2 fails", Some(0.2));
        let e1 = b.gate("E1 fails", Gate::Or, vec![a1, a2]);
        let a3 = b.basic("A3 fails", Some(0.3));
        let e2 = b.gate("E2 fails", Gate::Or, vec![a2, a3]);
        let top = b.gate("deployment fails", Gate::And, vec![e1, e2]);
        b.build(top).unwrap()
    }

    /// The ranked groups, best first.
    fn groups(ranking: &Ranking) -> Vec<RiskGroup> {
        ranking
            .ranked()
            .map(|(row, _)| {
                RiskGroup::new(row.iter().map(|&at| ranking.basics[at as usize]).collect())
            })
            .collect()
    }

    /// The ranked groups' member names, in node-id order.
    fn names(ranking: &Ranking, graph: &FaultGraph) -> Vec<Vec<String>> {
        groups(ranking).iter().map(|g| g.names(graph)).collect()
    }

    /// The ranked groups' `I_C`, best first.
    fn importances(ranking: &Ranking) -> Vec<f64> {
        ranking.ranked().map(|(_, w)| w.unwrap().1).collect()
    }

    #[test]
    fn fig4b_worked_example() {
        // Paper: Pr(T) = 0.1·0.3 + 0.2 − 0.1·0.3·0.2 = 0.224;
        // importances 0.2/0.224 = 0.8929 and 0.03/0.224 = 0.1339.
        let graph = fig4b_graph();
        let rgs = minimal_risk_groups(&graph, &MinimalConfig::default());
        let ranking = Ranking::by_probability(&rgs, &graph, 2, 0.0, None, None);
        let pr_top = ranking.pr_top.unwrap();
        assert!((pr_top - 0.224).abs() < 1e-12, "Pr(T) = {pr_top}");
        assert_eq!(
            names(&ranking, &graph),
            [vec!["A2 fails"], vec!["A1 fails", "A3 fails"]]
        );
        let importance = importances(&ranking);
        assert!((importance[0] - 0.8929).abs() < 1e-4);
        assert!((importance[1] - 0.1339).abs() < 1e-4);
        // Summed over the whole family, importances total about 1.
        assert_eq!(ranking.score, importance.iter().sum::<f64>());
        assert_eq!(ranking.unexpected, 1);
    }

    #[test]
    fn monte_carlo_agrees_with_inclusion_exclusion() {
        let graph = fig4b_graph();
        let mc = monte_carlo_top_probability(&graph, 0.0, 400_000, 42);
        assert!(
            (mc - 0.224).abs() < 0.005,
            "Monte-Carlo estimate {mc} too far from 0.224"
        );
    }

    #[test]
    fn size_ranking_orders_smallest_first() {
        let graph = fig4b_graph();
        let rgs = minimal_risk_groups(&graph, &MinimalConfig::default());
        let ranking = Ranking::by_size(&rgs, &graph, 2, None);
        let sizes: Vec<usize> = groups(&ranking).iter().map(RiskGroup::len).collect();
        assert_eq!(sizes, [1, 2]);
        assert_eq!((ranking.score, ranking.unexpected), (3.0, 1));
        assert_eq!(Ranking::by_size(&rgs, &graph, 2, Some(1)).score, 1.0);
        assert_eq!(ranking.pr_top, None);
    }

    /// A graph whose basic events are named in the reverse of their
    /// node-id order (`e01` is the last one created). The top event is an
    /// OR of ANDs over `cuts`, so its minimal RGs are the minimal cuts.
    fn reverse_named_graph(n: usize, probs: &[Option<f64>], cuts: &[Vec<usize>]) -> FaultGraph {
        let mut b = FaultGraphBuilder::new();
        let basics: Vec<_> = (0..n)
            .map(|i| b.basic(format!("e{:02}", n - i), probs[i % probs.len()]))
            .collect();
        let gates = cuts
            .iter()
            .enumerate()
            .map(|(i, cut)| {
                let members = cut.iter().map(|&m| basics[m]).collect();
                b.gate(format!("cut{i}"), Gate::And, members)
            })
            .collect();
        let top = b.gate("top", Gate::Or, gates);
        b.build(top).unwrap()
    }

    /// The ranking, held to the sort it replaced: groups keyed by
    /// `(len, names())` for size, and by descending importance then
    /// `names()` for probability, with names taken in node-id order and
    /// each group's probability from [`group_probability`].
    fn assert_matches_reference(graph: &FaultGraph) {
        let family = minimal_risk_groups(graph, &MinimalConfig::default());

        let mut reference: Vec<RiskGroup> = family.groups().collect();
        reference.sort_by_cached_key(|g| (g.len(), g.names(graph)));
        assert_eq!(
            groups(&Ranking::by_size(&family, graph, 2, None)),
            reference
        );

        let ranking = Ranking::by_probability(&family, graph, 2, 0.1, None, None);
        let pr_top = top_event_probability(&family, graph, 0.1);
        assert_eq!(ranking.pr_top, Some(pr_top));
        let mut reference: Vec<(RiskGroup, f64, f64)> = family
            .groups()
            .map(|g| {
                let p = group_probability(&g, graph, 0.1);
                (g, p, p / pr_top)
            })
            .collect();
        reference.sort_by(|a, b| {
            b.2.total_cmp(&a.2)
                .then_with(|| a.0.names(graph).cmp(&b.0.names(graph)))
        });
        let ranked: Vec<(RiskGroup, f64, f64)> = groups(&ranking)
            .into_iter()
            .zip(ranking.ranked())
            .map(|(g, (_, w))| (g, w.unwrap().0, w.unwrap().1))
            .collect();
        assert_eq!(ranked, reference);
    }

    #[test]
    fn tie_order_is_names_in_node_id_order() {
        // Ids 0..6 are named e06..e01. {1, 4} reads ["e05", "e02"] and
        // {2, 3} reads ["e04", "e03"]: in id order {2, 3} comes first,
        // although {1, 4} holds the lowest name ("e02" < "e03").
        let cuts = [vec![0], vec![5], vec![1, 4], vec![2, 3], vec![2, 4]];
        let graph = reverse_named_graph(6, &[None], &cuts);
        assert_matches_reference(&graph);
        let family = minimal_risk_groups(&graph, &MinimalConfig::default());
        let names_by_size = names(&Ranking::by_size(&family, &graph, 2, None), &graph);
        assert_eq!(
            names_by_size,
            [
                vec!["e01"],
                vec!["e06"],
                vec!["e04", "e02"],
                vec!["e04", "e03"],
                vec!["e05", "e02"],
            ]
        );
        // Equal probabilities make equal importances within a size.
        let by_probability = Ranking::by_probability(&family, &graph, 2, 0.1, None, None);
        let names = names(&by_probability, &graph);
        assert_eq!(names[..2], [vec!["e01"], vec!["e06"]]);
        assert_eq!(names[2..], names_by_size[2..]);
    }

    #[test]
    fn ranking_matches_reference_sort_on_random_families() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let mut below = |k: usize| rng.gen_below(k as u64) as usize;
        for _ in 0..200 {
            let n = 4 + below(12);
            let cuts: Vec<Vec<usize>> = (0..2 + below(10))
                .map(|_| (0..1 + below(3)).map(|_| below(n)).collect())
                .collect();
            // Two probabilities, so importances tie often but not always.
            let graph = reverse_named_graph(n, &[Some(0.1), Some(0.2), None], &cuts);
            assert_matches_reference(&graph);
        }
    }

    #[test]
    fn group_probability_multiplies_members() {
        let graph = fig4b_graph();
        let a1 = graph.basic_by_name("A1 fails").unwrap();
        let a3 = graph.basic_by_name("A3 fails").unwrap();
        let g = RiskGroup::new(vec![a1, a3]);
        assert!((group_probability(&g, &graph, 0.0) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn empty_family_has_zero_top_probability() {
        let graph = fig4b_graph();
        assert_eq!(top_event_probability(&RgFamily::new(), &graph, 0.0), 0.0);
        let ranking = Ranking::by_probability(&RgFamily::new(), &graph, 2, 0.0, None, None);
        assert_eq!(ranking.ranked().len(), 0);
        assert_eq!(ranking.pr_top, Some(0.0));
    }

    #[test]
    fn default_prob_used_for_unweighted() {
        use indaas_graph::detail::{component_sets_to_graph, ComponentSet};
        let graph = component_sets_to_graph(&[
            ComponentSet::new("E1", ["A"]),
            ComponentSet::new("E2", ["A"]),
        ])
        .unwrap();
        let rgs = minimal_risk_groups(&graph, &MinimalConfig::default());
        let ranking = Ranking::by_probability(&rgs, &graph, 2, 0.1, None, None);
        assert!((ranking.pr_top.unwrap() - 0.1).abs() < 1e-12);
        let (_, weights) = ranking.ranked().next().unwrap();
        let (probability, importance) = weights.unwrap();
        assert!((probability - 0.1).abs() < 1e-12);
        assert!((importance - 1.0).abs() < 1e-12);
    }
}

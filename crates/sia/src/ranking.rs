//! Risk-group ranking (§4.1.3): size-based and failure-probability-based.

use std::cmp::Ordering;

use indaas_graph::FaultGraph;
use rand::{Rng, SeedableRng};

use crate::riskgroup::{RgFamily, RiskGroup};

/// Inclusion–exclusion is exact up to this many minimal RGs (2²⁰ subsets);
/// beyond it [`top_event_probability`] falls back to Monte-Carlo.
pub const INCLUSION_EXCLUSION_LIMIT: usize = 20;

/// Ranks risk groups by size, smallest first.
///
/// Groups of one size are ordered by their member names, taken in node-id
/// order and compared as a sequence: the order of
/// `(g.len(), g.names(graph))`. The paper's SIA "randomly orders RGs with
/// the same size"; this is a deterministic stand-in, so one spec always
/// gets one report (it does depend on the order the spec lists servers
/// in, which decides node ids).
pub fn rank_by_size(family: &RgFamily, graph: &FaultGraph) -> Vec<RiskGroup> {
    let position = name_positions(graph);
    let mut groups: Vec<RiskGroup> = family.groups().collect();
    groups.sort_by(|a, b| {
        a.len()
            .cmp(&b.len())
            .then_with(|| by_names(&position, a, b))
    });
    groups
}

/// Each basic event's position in name order, indexed by node id (gates
/// are never read). Basic names are unique in a built graph, so comparing
/// two events' positions compares their names.
fn name_positions(graph: &FaultGraph) -> Vec<u32> {
    let mut basics = graph.basic_ids();
    basics.sort_unstable_by(|&a, &b| graph.node(a).name.cmp(&graph.node(b).name));
    let mut position = vec![0; graph.len()];
    for (at, id) in (0..).zip(basics) {
        position[id as usize] = at;
    }
    position
}

/// Compares two groups' member names, taken in node-id order, as
/// sequences — `a.names(graph).cmp(&b.names(graph))` without a string.
fn by_names(position: &[u32], a: &RiskGroup, b: &RiskGroup) -> Ordering {
    let a = a.ids().iter().map(|&id| position[id as usize]);
    let b = b.ids().iter().map(|&id| position[id as usize]);
    a.cmp(b)
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

/// A risk group with its relative importance `I_C = Pr(C) / Pr(T)`.
#[derive(Clone, Debug)]
pub struct RankedByProbability {
    /// The risk group.
    pub group: RiskGroup,
    /// Pr(all events in the group fail).
    pub probability: f64,
    /// Relative importance with respect to the top event.
    pub importance: f64,
}

/// Ranks risk groups by relative importance, most important (highest
/// `I_C`) first. The normalizer is `pr_top` when the caller already has
/// the exact top-event probability (the BDD engine does), and
/// [`top_event_probability`] otherwise. Returns the ranking plus the
/// normalizer.
///
/// Groups of equal importance are ordered as [`rank_by_size`] orders a
/// size tie: by member names taken in node-id order, compared as a
/// sequence — a deterministic stand-in for the paper's random order.
pub fn rank_by_probability(
    family: &RgFamily,
    graph: &FaultGraph,
    default_prob: f64,
    pr_top: Option<f64>,
) -> (Vec<RankedByProbability>, f64) {
    let pr_top = pr_top.unwrap_or_else(|| top_event_probability(family, graph, default_prob));
    let mut ranked: Vec<RankedByProbability> = family
        .groups()
        .map(|group| {
            let p = group_probability(&group, graph, default_prob);
            RankedByProbability {
                group,
                probability: p,
                importance: if pr_top > 0.0 { p / pr_top } else { 0.0 },
            }
        })
        .collect();
    let position = name_positions(graph);
    ranked.sort_by(|a, b| {
        b.importance
            .total_cmp(&a.importance)
            .then_with(|| by_names(&position, &a.group, &b.group))
    });
    (ranked, pr_top)
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

    #[test]
    fn fig4b_worked_example() {
        // Paper: Pr(T) = 0.1·0.3 + 0.2 − 0.1·0.3·0.2 = 0.224;
        // importances 0.2/0.224 = 0.8929 and 0.03/0.224 = 0.1339.
        let graph = fig4b_graph();
        let rgs = minimal_risk_groups(&graph, &MinimalConfig::default());
        let (ranked, pr_top) = rank_by_probability(&rgs, &graph, 0.0, None);
        assert!((pr_top - 0.224).abs() < 1e-12, "Pr(T) = {pr_top}");
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].group.names(&graph), vec!["A2 fails"]);
        assert!((ranked[0].importance - 0.8929).abs() < 1e-4);
        assert_eq!(ranked[1].group.names(&graph), vec!["A1 fails", "A3 fails"]);
        assert!((ranked[1].importance - 0.1339).abs() < 1e-4);
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
        let ranked = rank_by_size(&rgs, &graph);
        assert_eq!(ranked[0].len(), 1);
        assert_eq!(ranked[1].len(), 2);
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

    /// The ranking's tie order, held to the sort it replaced: groups keyed
    /// by `(len, names())` for size, and by descending importance then
    /// `names()` for probability, with names taken in node-id order.
    fn assert_matches_reference(graph: &FaultGraph) {
        let family = minimal_risk_groups(graph, &MinimalConfig::default());

        let mut reference: Vec<RiskGroup> = family.groups().collect();
        reference.sort_by_cached_key(|g| (g.len(), g.names(graph)));
        assert_eq!(rank_by_size(&family, graph), reference);

        let (ranked, _) = rank_by_probability(&family, graph, 0.1, None);
        let mut reference = ranked.clone();
        reference.sort_by(|a, b| {
            b.importance
                .total_cmp(&a.importance)
                .then_with(|| a.group.names(graph).cmp(&b.group.names(graph)))
        });
        let groups = |r: &[RankedByProbability]| -> Vec<RiskGroup> {
            r.iter().map(|r| r.group.clone()).collect()
        };
        assert_eq!(groups(&ranked), groups(&reference));
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
        let names_by_size: Vec<Vec<String>> = rank_by_size(&family, &graph)
            .iter()
            .map(|g| g.names(&graph))
            .collect();
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
        let (ranked, _) = rank_by_probability(&family, &graph, 0.1, None);
        let names: Vec<Vec<String>> = ranked.iter().map(|r| r.group.names(&graph)).collect();
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
        let (ranked, pr_top) = rank_by_probability(&rgs, &graph, 0.1, None);
        assert!((pr_top - 0.1).abs() < 1e-12);
        assert!((ranked[0].probability - 0.1).abs() < 1e-12);
        assert!((ranked[0].importance - 1.0).abs() < 1e-12);
    }
}

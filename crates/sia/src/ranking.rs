//! Risk-group ranking (§4.1.3): size-based and failure-probability-based.

use indaas_graph::FaultGraph;
use rand::{Rng, SeedableRng};

use crate::riskgroup::{RgFamily, RiskGroup};

/// Inclusion–exclusion is exact up to this many minimal RGs (2²⁰ subsets);
/// beyond it [`top_event_probability`] falls back to Monte-Carlo.
pub const INCLUSION_EXCLUSION_LIMIT: usize = 20;

/// Ranks risk groups by size, smallest first (ties broken lexicographically
/// by member names so reports are deterministic; the paper notes SIA
/// "randomly orders RGs with the same size").
pub fn rank_by_size(family: &RgFamily, graph: &FaultGraph) -> Vec<RiskGroup> {
    let mut groups: Vec<RiskGroup> = family.groups().collect();
    groups.sort_by_cached_key(|g| (g.len(), g.names(graph)));
    groups
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
    let plan = graph.eval_plan();
    let basic = graph.basic_ids();
    let mut assignment = vec![false; graph.len()];
    let mut state = vec![false; graph.len()];
    let mut fails = 0u64;
    for _ in 0..rounds {
        for &id in &basic {
            let p = graph.node(id).prob.unwrap_or(default_prob);
            assignment[id as usize] = (rng.next_u64() as f64 / u64::MAX as f64) < p;
        }
        plan.evaluate_into(graph, &assignment, &mut state);
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
/// `I_C`) first. Returns the ranking plus the top-event probability used
/// as the normalizer.
pub fn rank_by_probability(
    family: &RgFamily,
    graph: &FaultGraph,
    default_prob: f64,
) -> (Vec<RankedByProbability>, f64) {
    let pr_top = top_event_probability(family, graph, default_prob);
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
    ranked.sort_by(|a, b| {
        b.importance
            .total_cmp(&a.importance)
            .then_with(|| a.group.names(graph).cmp(&b.group.names(graph)))
    });
    (ranked, pr_top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal::{minimal_risk_groups, MinimalConfig};
    use indaas_graph::detail::{fault_sets_to_graph, FaultSet};

    /// Figure 4(b): E1 = {A1: 0.1, A2: 0.2}, E2 = {A2: 0.2, A3: 0.3}.
    fn fig4b_graph() -> FaultGraph {
        fault_sets_to_graph(&[
            FaultSet::new("E1", [("A1", 0.1), ("A2", 0.2)]),
            FaultSet::new("E2", [("A2", 0.2), ("A3", 0.3)]),
        ])
        .unwrap()
    }

    #[test]
    fn fig4b_worked_example() {
        // Paper: Pr(T) = 0.1·0.3 + 0.2 − 0.1·0.3·0.2 = 0.224;
        // importances 0.2/0.224 = 0.8929 and 0.03/0.224 = 0.1339.
        let graph = fig4b_graph();
        let rgs = minimal_risk_groups(&graph, &MinimalConfig::default());
        let (ranked, pr_top) = rank_by_probability(&rgs, &graph, 0.0);
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
        let (ranked, pr_top) = rank_by_probability(&rgs, &graph, 0.1);
        assert!((pr_top - 0.1).abs() < 1e-12);
        assert!((ranked[0].probability - 0.1).abs() < 1e-12);
        assert!((ranked[0].importance - 1.0).abs() < 1e-12);
    }
}

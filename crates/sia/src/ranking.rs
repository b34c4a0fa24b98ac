//! Risk-group ranking (§4.1.3): size-based and failure-probability-based.

use indaas_graph::{CancelToken, Cancelled, FaultGraph, NodeId};

use crate::bdd::{Bdd, FALSE, MAX_NODES, TRUE};
use crate::report::ScoreKind;
use crate::riskgroup::RgFamily;

/// Why [`top_event_probability`] stopped without a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbabilityError {
    /// The token tripped mid-computation.
    Cancelled(Cancelled),
    /// The family's diagram needed more nodes than one audit may hold.
    TooLarge,
}

impl std::fmt::Display for ProbabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbabilityError::Cancelled(c) => write!(f, "{c}"),
            ProbabilityError::TooLarge => write!(
                f,
                "Pr(T) needs a diagram of more than {MAX_NODES} nodes; \
                 rank by size or set a lower max_order"
            ),
        }
    }
}

impl std::error::Error for ProbabilityError {}

impl From<Cancelled> for ProbabilityError {
    fn from(c: Cancelled) -> Self {
        ProbabilityError::Cancelled(c)
    }
}

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

    /// Ranks `family` by relative importance, normalised by
    /// [`top_event_probability`]. Basic events without a probability
    /// fail with `default_prob`.
    ///
    /// # Errors
    ///
    /// As [`top_event_probability`].
    pub fn by_probability(
        family: &RgFamily,
        graph: &FaultGraph,
        replication: usize,
        default_prob: f64,
        top_n: Option<usize>,
        token: &CancelToken,
    ) -> Result<Self, ProbabilityError> {
        let pr_top = top_event_probability(family, graph, default_prob, token)?;
        Ok(Self::new(
            family,
            graph,
            Some((default_prob, pr_top)),
            replication,
            top_n,
        ))
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
        let prob: Vec<f64> = match probability {
            None => Vec::new(),
            Some((default_prob, _)) => basics
                .iter()
                .map(|&id| graph.node(id).prob.unwrap_or(default_prob))
                .collect(),
        };
        let width = tie_width(basics.len());
        let n = family.len();
        let mut members = Vec::new();
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        let mut weights = Vec::with_capacity(if probability.is_some() { n } else { 0 });
        let mut keys = Vec::with_capacity(n);
        let mut ids = Vec::new();
        for r in 0..n as u32 {
            ids.clear();
            ids.extend(family.row_ids(r as usize));
            ids.sort_unstable();
            let at = members.len();
            members.extend(ids.iter().map(|&id| position[id as usize]));
            starts.push(members.len() as u32);
            let row = &members[at..];
            let primary = match probability {
                None => row.len() as u64,
                Some((_, pr_top)) => {
                    // Multiplied in node-id order.
                    let p: f64 = row.iter().map(|&at| prob[at as usize]).product();
                    let importance = if pr_top > 0.0 { p / pr_top } else { 0.0 };
                    weights.push((p, importance));
                    descending(importance)
                }
            };
            keys.push((primary, tie_word(row, width), r));
        }
        let row = |r: u32| &members[starts[r as usize] as usize..starts[r as usize + 1] as usize];

        // One unstable sort of integer keys: the size or the importance,
        // then the leading name positions. Only rows whose keys tie — rows
        // longer than the packed prefix that share it — are compared in
        // full, and no two rows are equal, so the order is the one a sort
        // on full rows gives. On the benchmark's 1,923 rows (2-vCPU Xeon
        // guest, p10 of 600 interleaved runs) a stable sort comparing full
        // rows took 307 µs of a 361 µs ranking; this one takes 98 µs, and
        // a stable sort of the same keys ran about 30 % slower.
        keys.sort_unstable_by(|a, b| {
            (a.0, a.1)
                .cmp(&(b.0, b.1))
                .then_with(|| row(a.2).cmp(row(b.2)))
        });
        let order: Vec<u32> = keys.into_iter().map(|(_, _, r)| r).collect();
        let top = order.iter().take(top_n.unwrap_or(n));
        let score = match probability {
            None => top.map(|&r| row(r).len() as f64).sum(),
            Some(_) => top.map(|&r| weights[r as usize].1).sum(),
        };
        let unexpected = (0..n as u32)
            .filter(|&r| row(r).len() < replication)
            .count();
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

/// Bits per name position in a [`tie_word`]: enough for `basics + 1`
/// values, 0 standing for "no further member".
fn tie_width(basics: usize) -> u32 {
    (usize::BITS - basics.leading_zeros()).max(1)
}

/// A row's leading name positions packed into one word, first member in
/// the highest bits, each as its position plus one: two rows whose words
/// differ compare as their words do; equal words leave the order to the
/// members past the packed prefix.
fn tie_word(row: &[u32], width: u32) -> u64 {
    (0..64 / width as usize).fold(0, |word, i| {
        word << width | row.get(i).map_or(0, |&at| u64::from(at) + 1)
    })
}

/// `x` as a `u64` whose ascending order is `f64::total_cmp`'s descending
/// order.
fn descending(x: f64) -> u64 {
    let bits = x.to_bits() as i64;
    let ordered = bits ^ ((((bits >> 63) as u64) >> 1) as i64);
    !((ordered as u64) ^ (1 << 63))
}

/// The probability that some group of `family` fails, every member of
/// it, with basic events failing independently at the graph's
/// probabilities (`default_prob` where a node has none). Exact at every
/// family size, and the top event's probability whenever the family is
/// complete. A family cut short — by an order cap, or found by sampling —
/// omits groups, so its value is a lower bound on the top event's
/// probability: every group is a cut set, and their union lies inside
/// the top event. Each row becomes a chain of diagram nodes in node-id order,
/// and the rows are ORed pairwise, a balanced reduction: ORing them one
/// by one into a growing union made the benchmark's 1,923-group audit
/// 5× slower and its 35,843-group neighbour's 14×. The token is polled
/// before every OR.
///
/// # Errors
///
/// [`ProbabilityError::Cancelled`] when the token trips,
/// [`ProbabilityError::TooLarge`] when the diagram outgrows the bound
/// one audit may hold.
pub fn top_event_probability(
    family: &RgFamily,
    graph: &FaultGraph,
    default_prob: f64,
    token: &CancelToken,
) -> Result<f64, ProbabilityError> {
    union_probability(family, graph, default_prob, token, MAX_NODES)
}

/// [`top_event_probability`] in a diagram of at most `cap` nodes.
fn union_probability(
    family: &RgFamily,
    graph: &FaultGraph,
    default_prob: f64,
    token: &CancelToken,
    cap: usize,
) -> Result<f64, ProbabilityError> {
    let mut bdd = Bdd::new(cap);
    let mut ids: Vec<NodeId> = Vec::new();
    let mut layer = Vec::with_capacity(family.len());
    for r in 0..family.len() {
        ids.clear();
        ids.extend(family.row_ids(r));
        ids.sort_unstable();
        let mut row = TRUE;
        for &id in ids.iter().rev() {
            row = bdd.mk(id, FALSE, row)?;
        }
        layer.push(row);
    }
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            token.check()?;
            next.push(pair.iter().try_fold(FALSE, |acc, &f| bdd.or(acc, f))?);
        }
        layer = next;
    }
    let root = layer.first().copied().unwrap_or(FALSE);
    Ok(bdd.top_probability(root, |id| graph.node(id).prob.unwrap_or(default_prob)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal::{minimal_risk_groups, MinimalConfig};
    use crate::riskgroup::RiskGroup;
    use indaas_graph::detail::{component_sets_to_graph, ComponentSet};
    use indaas_graph::{FaultGraphBuilder, Gate};
    use rand::{Rng, SeedableRng};

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

    /// [`Ranking::by_probability`] at replication 2, every group scored.
    fn by_probability(family: &RgFamily, graph: &FaultGraph, default_prob: f64) -> Ranking {
        Ranking::by_probability(
            family,
            graph,
            2,
            default_prob,
            None,
            &CancelToken::default(),
        )
        .unwrap()
    }

    /// [`top_event_probability`] under a token that never trips.
    fn pr_top(family: &RgFamily, graph: &FaultGraph, default_prob: f64) -> f64 {
        top_event_probability(family, graph, default_prob, &CancelToken::default()).unwrap()
    }

    /// The probability that every member of `group` fails.
    fn group_probability(group: &RiskGroup, graph: &FaultGraph, default_prob: f64) -> f64 {
        group
            .ids()
            .iter()
            .map(|&id| graph.node(id).prob.unwrap_or(default_prob))
            .product()
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
        let ranking = by_probability(&rgs, &graph, 0.0);
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
    /// node-id order (`e01` is the last one created, names zero-padded to
    /// one width), so node `i` is at name position `n - 1 - i`. The top
    /// event is an OR of ANDs over `cuts`, so its minimal RGs are the
    /// minimal cuts.
    fn reverse_named_graph(n: usize, probs: &[Option<f64>], cuts: &[Vec<usize>]) -> FaultGraph {
        let mut b = FaultGraphBuilder::new();
        let width = n.to_string().len().max(2);
        let basics: Vec<_> = (0..n)
            .map(|i| b.basic(format!("e{:0width$}", n - i), probs[i % probs.len()]))
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
    /// each group's probability from [`group_probability`] (importance 0
    /// when `Pr(T)` is). Returns how many neighbours in the size ranking
    /// tie on their sort key, so only their full rows order them.
    fn assert_matches_reference(graph: &FaultGraph) -> usize {
        let family = minimal_risk_groups(graph, &MinimalConfig::default());

        let mut reference: Vec<RiskGroup> = family.groups().collect();
        reference.sort_by_cached_key(|g| (g.len(), g.names(graph)));
        let by_size = Ranking::by_size(&family, graph, 2, None);
        assert_eq!(groups(&by_size), reference);
        let width = tie_width(by_size.basics.len());
        let keys: Vec<_> = by_size
            .ranked()
            .map(|(row, _)| (row.len(), tie_word(row, width)))
            .collect();

        let ranking = by_probability(&family, graph, 0.1);
        let pr_top = pr_top(&family, graph, 0.1);
        assert_eq!(ranking.pr_top, Some(pr_top));
        let mut reference: Vec<(RiskGroup, f64, f64)> = family
            .groups()
            .map(|g| {
                let p = group_probability(&g, graph, 0.1);
                (g, p, if pr_top > 0.0 { p / pr_top } else { 0.0 })
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
        keys.windows(2).filter(|pair| pair[0] == pair[1]).count()
    }

    #[test]
    fn tie_order_is_names_in_node_id_order() {
        // Ids 0..6 are named e06..e01. {1, 4} reads ["e05", "e02"] and
        // {2, 3} reads ["e04", "e03"]: in id order {2, 3} comes first,
        // although {1, 4} holds the lowest name ("e02" < "e03").
        let cuts = [vec![0], vec![5], vec![1, 4], vec![2, 3], vec![2, 4]];
        let graph = reverse_named_graph(6, &[None], &cuts);
        assert_eq!(assert_matches_reference(&graph), 0);
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
        let by_probability = by_probability(&family, &graph, 0.1);
        let names = names(&by_probability, &graph);
        assert_eq!(names[..2], [vec!["e01"], vec!["e06"]]);
        assert_eq!(names[2..], names_by_size[2..]);
    }

    #[test]
    fn ranking_matches_reference_sort_on_random_families() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let mut below = |k: usize| rng.gen_below(k as u64) as usize;
        // Neighbours whose keys tied, in graphs up to 63 events and past
        // 2^16.
        let (mut tied, mut tied_wide) = (0, 0);
        for round in 0..240 {
            // Three shapes. Rows of 1–3 members over 4–15 events. Rows of
            // up to 22 members over 40–63 events, where a word packs 10
            // name positions. Every 48th round, more than 2^16 events:
            // a position then takes 17 bits and a word packs 3.
            let (n, stems, tail) = match round % 3 {
                0 => (4 + below(12), 0, 3),
                1 => (40 + below(24), 8 + below(8), 6),
                _ if round % 48 == 2 => ((1 << 16) + 32 + below(1_000), 3 + below(3), 2),
                _ => continue,
            };
            // Rows share stems: the same lowest ids, so the same leading
            // name positions (past 2^16 in the widest graphs), so their
            // keys tie and only the members past the stem order them.
            let stem_pool = if n > 1 << 16 { 16 } else { n / 2 };
            let shared: Vec<Vec<usize>> = (0..1 + below(3))
                .map(|_| (0..stems).map(|_| below(stem_pool)).collect())
                .collect();
            let cuts: Vec<Vec<usize>> = (0..2 + below(10))
                .map(|_| {
                    let mut cut = shared[below(shared.len())].clone();
                    let low = if stems == 0 { 0 } else { stem_pool };
                    cut.extend((0..1 + below(tail)).map(|_| low + below(n - low)));
                    cut
                })
                .collect();
            // Probabilities that make importances tie often but not
            // always, and some zero: every group holding an event that
            // cannot fail has importance 0, and when all are zero so is
            // Pr(T).
            let probs: &[Option<f64>] = match round % 5 {
                4 => &[Some(0.0)],
                _ => &[Some(0.1), Some(0.2), None, Some(0.0), Some(0.1)],
            };
            let graph = reverse_named_graph(n, probs, &cuts);
            match assert_matches_reference(&graph) {
                ties if n > 1 << 16 => tied_wide += ties,
                ties => tied += ties,
            }
        }
        assert!(
            tied > 0 && tied_wide > 0,
            "ties: {tied}, past 2^16: {tied_wide}"
        );
    }

    #[test]
    fn descending_keys_reverse_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            0.5,
            1.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    descending(a).cmp(&descending(b)),
                    b.total_cmp(&a),
                    "{a} {b}"
                );
            }
        }
    }

    #[test]
    fn kofn_family_gives_the_threshold_probability() {
        // At least 2 of 4 fair coins: the family is the 6 pairs, and
        // 1 - C(4,0)/16 - C(4,1)/16 = 11/16.
        let mut b = FaultGraphBuilder::new();
        let basics: Vec<_> = (0..4).map(|i| b.basic(format!("r{i}"), None)).collect();
        let top = b.gate("svc", Gate::KofN(2), basics);
        let graph = b.build(top).unwrap();
        let family = minimal_risk_groups(&graph, &MinimalConfig::default());
        assert_eq!(family.len(), 6);
        assert!((pr_top(&family, &graph, 0.5) - 11.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn many_groups_are_exact() {
        // Two sources of 15 private components each: 225 two-event
        // groups, and Pr(T) = Pr(a source fails)².
        let sets: Vec<ComponentSet> = (0..2)
            .map(|i| ComponentSet::new(format!("E{i}"), (0..15).map(|j| format!("s{i}-c{j}"))))
            .collect();
        let graph = component_sets_to_graph(&sets).unwrap();
        let family = minimal_risk_groups(&graph, &MinimalConfig::default());
        assert_eq!(family.len(), 225);
        let per_source = 1.0 - 0.99f64.powi(15);
        let got = pr_top(&family, &graph, 0.01);
        assert!((got - per_source * per_source).abs() < 1e-12, "{got}");
    }

    #[test]
    fn an_outgrown_cap_or_a_tripped_token_is_an_error() {
        let sets: Vec<ComponentSet> = (0..4)
            .map(|i| ComponentSet::new(format!("E{i}"), (0..8).map(|j| format!("s{i}c{j}"))))
            .collect();
        let graph = component_sets_to_graph(&sets).unwrap();
        let family = minimal_risk_groups(&graph, &MinimalConfig::default());
        let token = CancelToken::default();
        let small = union_probability(&family, &graph, 0.1, &token, 8);
        assert_eq!(small, Err(ProbabilityError::TooLarge));
        assert!(union_probability(&family, &graph, 0.1, &token, MAX_NODES).is_ok());
        token.cancel();
        let cancelled = Ranking::by_probability(&family, &graph, 4, 0.1, None, &token);
        assert!(matches!(
            cancelled,
            Err(ProbabilityError::Cancelled(Cancelled::ByRequest))
        ));
    }

    #[test]
    fn empty_family_has_zero_top_probability() {
        let graph = fig4b_graph();
        assert_eq!(pr_top(&RgFamily::new(), &graph, 0.0), 0.0);
        let ranking = by_probability(&RgFamily::new(), &graph, 0.0);
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
        let ranking = by_probability(&rgs, &graph, 0.1);
        assert!((ranking.pr_top.unwrap() - 0.1).abs() < 1e-12);
        let (_, weights) = ranking.ranked().next().unwrap();
        let (probability, importance) = weights.unwrap();
        assert!((probability - 0.1).abs() < 1e-12);
        assert!((importance - 1.0).abs() < 1e-12);
    }
}

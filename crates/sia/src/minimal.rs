//! The exact minimal risk group algorithm (§4.1.2).
//!
//! Bottom-up cut-set computation (MOCUS-style, adapted from fault tree
//! analysis [52, 60]): in id order, children first, every node gets the
//! family of minimal sets of basic events that fail it. A basic event
//! contributes `{{e}}`; every gate — OR, AND and k-of-n alike — is a
//! threshold over its children and is folded by one recurrence. With
//! `T[j]` the minimal sets that fail *at least j of the children seen so
//! far* and `T[0] = {∅}`, child `i` with family `F` updates
//! `T[j] ∪= T[j-1] × F` for `j` descending, and the gate's family is
//! `T[k]` (OR is `T[1]`, AND is `T[n]`). Only the slots the remaining children can still lift to `k`
//! are updated, so an AND is its one chain of products and a k-of-n gate
//! costs `k·n` products instead of one per k-subset of its children.
//!
//! A product `A × B` (the minimal unions of one set from each operand)
//! absorbs before it multiplies: a row of one operand that the *other*
//! operand already subsumes is its own union with the subsuming row and
//! absorbs every other union it takes part in, so it is emitted once and
//! left out; only the remaining rows are cross-multiplied. Shared
//! dependencies — the sets this service exists to find — are exactly the
//! rows that absorb. Families are subsumption-minimal after every insert
//! ([`RgFamily`]), which keeps them exactly the *minimal* cut sets.
//!
//! The problem is NP-hard in general (Valiant [59]); the paper measures
//! 1046 minutes for topology B. Two standard mitigations are provided:
//!
//! * `max_order` truncation — only cut sets of at most `k` events are kept.
//!   For coherent (monotone) fault graphs this provably loses no cut set of
//!   size ≤ `k`, and small cut sets are precisely the "unexpected risk
//!   groups" the audit is hunting.
//! * `max_family` — a hard cap on intermediate family sizes; exceeding it
//!   is a [`MinimalError::FamilyTooLarge`].

use indaas_graph::{CancelToken, Cancelled, FaultGraph, NodeId};

use crate::riskgroup::{union_into, RgFamily, Row};

/// Configuration for the minimal RG computation.
#[derive(Clone, Copy, Debug)]
pub struct MinimalConfig {
    /// Keep only cut sets with at most this many events (`None` = all).
    pub max_order: Option<usize>,
    /// Abort if an intermediate family would exceed this size.
    pub max_family: usize,
}

impl Default for MinimalConfig {
    fn default() -> Self {
        MinimalConfig {
            max_order: None,
            max_family: 1_000_000,
        }
    }
}

impl MinimalConfig {
    /// Convenience: truncated configuration keeping cut sets of size ≤ `k`.
    pub fn with_max_order(k: usize) -> Self {
        MinimalConfig {
            max_order: Some(k),
            ..Self::default()
        }
    }
}

/// Why a minimal RG computation stopped without a family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MinimalError {
    /// The token tripped mid-computation.
    Cancelled(Cancelled),
    /// The family of `gate` outgrew [`MinimalConfig::max_family`].
    FamilyTooLarge {
        /// Name of the gate whose family was being built.
        gate: String,
        /// The cap that was exceeded.
        cap: usize,
    },
}

impl std::fmt::Display for MinimalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinimalError::Cancelled(c) => write!(f, "{c}"),
            MinimalError::FamilyTooLarge { gate, cap } => write!(
                f,
                "minimal RG family at {gate:?} exceeded {cap} cut sets; \
                 set a max_order or raise max_family"
            ),
        }
    }
}

impl std::error::Error for MinimalError {}

impl From<Cancelled> for MinimalError {
    fn from(c: Cancelled) -> Self {
        MinimalError::Cancelled(c)
    }
}

/// Computes the minimal risk groups of `graph`'s top event.
///
/// With `config.max_order = Some(k)` the result is exactly the minimal risk
/// groups of size ≤ `k`.
///
/// # Panics
///
/// Panics if an intermediate family exceeds `config.max_family` — raise the
/// cap or set a `max_order` for graphs that large, or call
/// [`minimal_risk_groups_cancellable`], which returns it as an error.
pub fn minimal_risk_groups(graph: &FaultGraph, config: &MinimalConfig) -> RgFamily {
    minimal_risk_groups_cancellable(graph, config, &CancelToken::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`minimal_risk_groups`] with cooperative cancellation: the token is
/// polled once per graph node and once per product row, so jobs stop
/// within a bounded amount of work of a cancel/deadline.
///
/// # Errors
///
/// [`MinimalError::Cancelled`] if the token trips mid-computation,
/// [`MinimalError::FamilyTooLarge`] if an intermediate family exceeds
/// `config.max_family`.
pub fn minimal_risk_groups_cancellable(
    graph: &FaultGraph,
    config: &MinimalConfig,
    token: &CancelToken,
) -> Result<RgFamily, MinimalError> {
    let empty = RgFamily::for_graph(graph);
    let mut unit = empty.clone();
    unit.insert_ids(&[]);
    let mut scratch = Scratch {
        union: vec![0; empty.stride()],
        rest: Vec::new(),
    };
    let kernel = Kernel {
        config,
        token,
        empty,
        unit,
    };
    let mut families: Vec<Option<RgFamily>> = (0..graph.len()).map(|_| None).collect();
    // Count remaining uses so child families can be dropped early (keeps
    // peak memory proportional to the frontier, not the whole graph).
    let mut remaining_uses = vec![0usize; graph.len()];
    for node in graph.nodes() {
        for &c in &node.children {
            remaining_uses[c as usize] += 1;
        }
    }
    remaining_uses[graph.top() as usize] += 1;

    for id in 0..graph.len() as NodeId {
        token.check()?;
        let node = graph.node(id);
        let fam = match node.gate {
            None => {
                let mut fam = kernel.empty.clone();
                if kernel.fits(1) {
                    fam.insert_ids(&[id]);
                }
                fam
            }
            Some(gate) => {
                let children: Vec<&RgFamily> = node
                    .children
                    .iter()
                    .map(|&c| {
                        families[c as usize]
                            .as_ref()
                            .expect("child computed before parent")
                    })
                    .collect();
                let k = gate.threshold(children.len());
                kernel.at_least(k, children, &node.name, &mut scratch)?
            }
        };
        for &c in &node.children {
            remaining_uses[c as usize] -= 1;
            if remaining_uses[c as usize] == 0 {
                families[c as usize] = None;
            }
        }
        families[id as usize] = Some(fam);
    }
    Ok(families[graph.top() as usize]
        .take()
        .expect("top family computed"))
}

/// What every gate of one computation shares.
struct Kernel<'a> {
    config: &'a MinimalConfig,
    token: &'a CancelToken,
    /// The family of no sets, over the graph's event index.
    empty: RgFamily,
    /// `T[0]`: the family of the empty set, which fails at least none.
    unit: RgFamily,
}

/// Buffers every product reuses.
struct Scratch {
    /// One row: the union under test.
    union: Vec<u64>,
    /// Rows of a product's right operand that are cross-multiplied.
    rest: Vec<usize>,
}

impl Kernel<'_> {
    fn fits(&self, len: u32) -> bool {
        self.config.max_order.is_none_or(|k| len as usize <= k)
    }

    /// The minimal sets that fail at least `k` of `children`.
    fn at_least(
        &self,
        k: usize,
        mut children: Vec<&RgFamily>,
        gate: &str,
        scratch: &mut Scratch,
    ) -> Result<RgFamily, MinimalError> {
        // Smallest families first keeps the intermediate products small.
        children.sort_by_key(|f| f.len());
        let n = children.len();
        // t[j - 1] is T[j]; T[0] is `self.unit`.
        let mut t = vec![self.empty.clone(); k];
        for (i, child) in children.into_iter().enumerate() {
            let seen = i + 1;
            // T[j] with j + (n - seen) < k can no longer reach k.
            let lowest = k.saturating_sub(n - seen).max(1);
            for j in (lowest..=seen.min(k)).rev() {
                let (below, from) = t.split_at_mut(j - 1);
                let lower = below.last().unwrap_or(&self.unit);
                self.add_product(&mut from[0], lower, child, gate, scratch)?;
            }
            if lowest > 1 {
                t[lowest - 2] = self.empty.clone();
            }
        }
        Ok(t.pop().expect("k >= 1 slots"))
    }

    /// `out ∪= a × b`, kept to the configured order.
    fn add_product(
        &self,
        out: &mut RgFamily,
        a: &RgFamily,
        b: &RgFamily,
        gate: &str,
        scratch: &mut Scratch,
    ) -> Result<(), MinimalError> {
        // A row the other operand subsumes is a product as it stands and
        // absorbs every product it would take part in.
        scratch.rest.clear();
        for rb in 0..b.len() {
            let row = b.row(rb);
            if !a.subsumes(row) {
                scratch.rest.push(rb);
            } else if self.fits(row.len) {
                out.insert_row(row);
            }
        }
        for ra in 0..a.len() {
            self.token.check()?;
            let row = a.row(ra);
            if !b.subsumes(row) {
                for &rb in &scratch.rest {
                    let len = union_into(row, b.row(rb), &mut scratch.union);
                    if self.fits(len) {
                        out.insert_row(Row {
                            words: &scratch.union,
                            len,
                        });
                    }
                }
            } else if self.fits(row.len) {
                out.insert_row(row);
            }
            if out.len() > self.config.max_family {
                return Err(MinimalError::FamilyTooLarge {
                    gate: gate.to_string(),
                    cap: self.config.max_family,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::riskgroup::RiskGroup;
    use indaas_graph::detail::{component_sets_to_graph, ComponentSet};
    use indaas_graph::{FaultGraphBuilder, Gate, NodeId};

    #[test]
    fn fig4a_minimal_rgs() {
        // Paper: minimal RGs of Figure 4(a) are {A2} and {A1, A3}.
        let graph = component_sets_to_graph(&[
            ComponentSet::new("E1", ["A1", "A2"]),
            ComponentSet::new("E2", ["A2", "A3"]),
        ])
        .unwrap();
        let rgs = minimal_risk_groups(&graph, &MinimalConfig::default());
        let named = rgs.to_named(&graph);
        assert_eq!(
            named,
            vec![
                vec!["A2".to_string()],
                vec!["A1".to_string(), "A3".to_string()],
            ]
        );
    }

    #[test]
    fn fig4c_style_graph() {
        // Shared ToR, redundant cores, per-server disks.
        let mut b = FaultGraphBuilder::new();
        let tor = b.basic("ToR1", None);
        let c1 = b.basic("Core1", None);
        let c2 = b.basic("Core2", None);
        let d1 = b.basic("S1-disk", None);
        let d2 = b.basic("S2-disk", None);
        let p1 = b.gate("S1 paths", Gate::And, vec![c1, c2]);
        let n1 = b.gate("S1 net", Gate::Or, vec![tor, p1]);
        let s1 = b.gate("S1", Gate::Or, vec![n1, d1]);
        let p2 = b.gate("S2 paths", Gate::And, vec![c1, c2]);
        let n2 = b.gate("S2 net", Gate::Or, vec![tor, p2]);
        let s2 = b.gate("S2", Gate::Or, vec![n2, d2]);
        let top = b.gate("deployment", Gate::And, vec![s1, s2]);
        let graph = b.build(top).unwrap();

        let rgs = minimal_risk_groups(&graph, &MinimalConfig::default());
        let named = rgs.to_named(&graph);
        assert!(named.contains(&vec!["ToR1".to_string()]));
        assert!(named.contains(&vec!["Core1".to_string(), "Core2".to_string()]));
        assert!(named.contains(&vec!["S1-disk".to_string(), "S2-disk".to_string()]));
        // Cross combinations with one disk and the other server's network:
        // disk1 + (cores) is subsumed by {Core1, Core2}? No: {Core1,Core2}
        // alone already kills both servers' networks, so disk+cores is a
        // superset and must NOT be minimal.
        assert_eq!(named.len(), 3);
    }

    #[test]
    fn max_order_truncation_keeps_small_groups_exact() {
        let graph = component_sets_to_graph(&[
            ComponentSet::new("E1", ["A", "X1", "X2"]),
            ComponentSet::new("E2", ["A", "Y1", "Y2"]),
        ])
        .unwrap();
        let full = minimal_risk_groups(&graph, &MinimalConfig::default());
        let truncated = minimal_risk_groups(&graph, &MinimalConfig::with_max_order(1));
        // The only size-1 minimal RG is {A}.
        assert_eq!(truncated.len(), 1);
        assert!(truncated.to_named(&graph).contains(&vec!["A".to_string()]));
        // And it is present in the full family too.
        assert!(full.to_named(&graph).contains(&vec!["A".to_string()]));
        // Full family: {A} plus 2x2 cross products.
        assert_eq!(full.len(), 5);
    }

    #[test]
    fn kofn_cut_sets() {
        // 2-of-3 gate over singletons: minimal cut sets are all pairs.
        let mut b = FaultGraphBuilder::new();
        let x = b.basic("x", None);
        let y = b.basic("y", None);
        let z = b.basic("z", None);
        let top = b.gate("t", Gate::KofN(2), vec![x, y, z]);
        let graph = b.build(top).unwrap();
        let rgs = minimal_risk_groups(&graph, &MinimalConfig::default());
        assert_eq!(rgs.len(), 3);
        assert!(rgs.groups().all(|g| g.len() == 2));
    }

    #[test]
    fn every_minimal_rg_fails_top_and_is_minimal() {
        // Property check on a moderately tangled graph.
        let mut b = FaultGraphBuilder::new();
        let basics: Vec<_> = (0..6).map(|i| b.basic(format!("c{i}"), None)).collect();
        let g1 = b.gate("g1", Gate::Or, vec![basics[0], basics[1]]);
        let g2 = b.gate("g2", Gate::And, vec![basics[1], basics[2], basics[3]]);
        let g3 = b.gate("g3", Gate::KofN(2), vec![basics[3], basics[4], basics[5]]);
        let m = b.gate("m", Gate::Or, vec![g2, g3]);
        let top = b.gate("top", Gate::And, vec![g1, m]);
        let graph = b.build(top).unwrap();
        let rgs = minimal_risk_groups(&graph, &MinimalConfig::default());
        assert!(!rgs.is_empty());
        for g in rgs.groups() {
            // The group fails the top event...
            let mut assignment = vec![false; graph.len()];
            for &id in g.ids() {
                assignment[id as usize] = true;
            }
            assert!(graph.evaluate(&assignment), "RG must fail the top event");
            // ...and removing any single member un-fails it (minimality).
            for &drop in g.ids() {
                let mut a = assignment.clone();
                a[drop as usize] = false;
                assert!(!graph.evaluate(&a), "RG must be minimal");
            }
        }
    }

    #[test]
    fn exhaustive_cross_check_small_graph() {
        // Brute-force all 2^n assignments and derive minimal cut sets; the
        // algorithm must agree exactly.
        let graph = component_sets_to_graph(&[
            ComponentSet::new("E1", ["a", "b"]),
            ComponentSet::new("E2", ["b", "c"]),
            ComponentSet::new("E3", ["c", "d"]),
        ])
        .unwrap();
        let basic = graph.basic_ids();
        let n = basic.len();
        let mut brute = RgFamily::new();
        for mask in 1u32..(1 << n) {
            let mut assignment = vec![false; graph.len()];
            for (bit, &id) in basic.iter().enumerate() {
                assignment[id as usize] = mask >> bit & 1 == 1;
            }
            if graph.evaluate(&assignment) {
                let ids: Vec<NodeId> = basic
                    .iter()
                    .enumerate()
                    .filter(|&(bit, _)| mask >> bit & 1 == 1)
                    .map(|(_, &id)| id)
                    .collect();
                brute.insert(RiskGroup::new(ids));
            }
        }
        let algo = minimal_risk_groups(&graph, &MinimalConfig::default());
        assert_eq!(algo.to_named(&graph), brute.to_named(&graph));
    }

    #[test]
    fn family_budget_enforced() {
        // 2 sources × 12 disjoint components each → 144 cross products.
        let e1: Vec<String> = (0..12).map(|i| format!("x{i}")).collect();
        let e2: Vec<String> = (0..12).map(|i| format!("y{i}")).collect();
        let graph =
            component_sets_to_graph(&[ComponentSet::new("E1", e1), ComponentSet::new("E2", e2)])
                .unwrap();
        let config = MinimalConfig {
            max_order: None,
            max_family: 100,
        };
        let err = minimal_risk_groups_cancellable(&graph, &config, &CancelToken::default());
        match err {
            Err(MinimalError::FamilyTooLarge { gate, cap: 100 }) => {
                assert_eq!(gate, graph.node(graph.top()).name);
            }
            other => panic!("expected FamilyTooLarge, got {other:?}"),
        }
    }
}

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
//! `T[0]` is never built: `{∅} × F = F`, so `T[1]` takes each child's rows
//! as they are, and an OR gate forms no product at all.
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
//! A deployment's family is assembled from its servers' families rather
//! than from its full graph: the top gate is this same recurrence over
//! the servers' families, so [`minimal_child_families`] stops below the
//! top and hands back each child's family, and [`crate::compose`] keeps
//! those per server and runs [`minimal_risk_groups_cancellable`] on a
//! reduced graph of one OR of rows per server. That graph creates its
//! events in the order the full graph first names them, so node ids —
//! which order a report's events and break its rank ties — keep the
//! full graph's relative order; and a family's row order depends only
//! on the order rows are offered in, never on bit positions, so its rows
//! come out in the full graph's order too.
//!
//! The problem is NP-hard in general (Valiant [59]); the paper measures
//! 1046 minutes for topology B. Two standard mitigations are provided:
//!
//! * `max_order` truncation — only cut sets of at most `k` events are kept.
//!   For coherent (monotone) fault graphs this provably loses no cut set of
//!   size ≤ `k`, and small cut sets are precisely the "unexpected risk
//!   groups" the audit is hunting.
//! * a hard cap of one million cut sets on every intermediate family;
//!   exceeding it is a [`MinimalError::FamilyTooLarge`].
//!
//! Cancellation is metered by work, not by node: the token is polled once
//! up front and then after every 1,024 units, a unit being a basic event's
//! one row, a row a gate reads or takes over, or a union a product forms.
//! A deadline therefore lands inside one large product, while the many
//! tiny gates of a real graph (the benchmark's has 1,024 path ORs of a
//! few devices each) share a handful of clock reads between them.

use indaas_graph::{CancelToken, Cancelled, FaultGraph, NodeId};

use crate::riskgroup::{cone_uses, union_into, RgFamily, Row};

/// Configuration for the minimal RG computation.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinimalConfig {
    /// Keep only cut sets with at most this many events (`None` = all).
    pub max_order: Option<usize>,
}

impl MinimalConfig {
    /// Convenience: truncated configuration keeping cut sets of size ≤ `k`.
    pub fn with_max_order(k: usize) -> Self {
        MinimalConfig { max_order: Some(k) }
    }
}

/// Most cut sets an intermediate family may hold before the computation
/// stops with [`MinimalError::FamilyTooLarge`].
const MAX_FAMILY: usize = 1_000_000;

/// Why a minimal RG computation stopped without a family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MinimalError {
    /// The token tripped mid-computation.
    Cancelled(Cancelled),
    /// The family of `gate` outgrew the cap of one million cut sets.
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
                 set a smaller max_order"
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
/// Panics if an intermediate family exceeds one million cut sets — set a
/// `max_order` for graphs that large, or call
/// [`minimal_risk_groups_cancellable`], which returns it as an error.
pub fn minimal_risk_groups(graph: &FaultGraph, config: &MinimalConfig) -> RgFamily {
    minimal_risk_groups_cancellable(graph, config, &CancelToken::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`minimal_risk_groups`] with cooperative cancellation: the token is
/// polled once before the first node and then once every 1,024 units of
/// work (`POLL_EVERY`), a unit being a basic event's one row, a row a gate
/// reads or takes over, or a union a product forms. A job therefore stops
/// within a bounded amount of work of a cancel or deadline, inside a
/// product as well as between nodes, and a graph of many small gates
/// reads the clock a handful of times rather than once per node.
///
/// # Errors
///
/// [`MinimalError::Cancelled`] if the token trips mid-computation,
/// [`MinimalError::FamilyTooLarge`] if an intermediate family exceeds
/// one million cut sets.
pub fn minimal_risk_groups_cancellable(
    graph: &FaultGraph,
    config: &MinimalConfig,
    token: &CancelToken,
) -> Result<RgFamily, MinimalError> {
    let mut families = node_families(graph, config, token, graph.len() as NodeId)?;
    Ok(families[graph.top() as usize]
        .take()
        .expect("top family computed"))
}

/// The minimal families of the top event's children, in child order: the
/// recurrence of [`minimal_risk_groups_cancellable`] over every node
/// below the top, without the top gate itself. One pass over a graph
/// whose top joins several subtrees yields each subtree's family.
///
/// # Errors
///
/// As [`minimal_risk_groups_cancellable`].
pub fn minimal_child_families(
    graph: &FaultGraph,
    config: &MinimalConfig,
    token: &CancelToken,
) -> Result<Vec<RgFamily>, MinimalError> {
    let families = node_families(graph, config, token, graph.top())?;
    Ok(graph
        .node(graph.top())
        .children
        .iter()
        .map(|&c| families[c as usize].clone().expect("child computed"))
        .collect())
}

/// Runs the recurrence over the nodes of the top's cone with ids below
/// `upto` and returns every family still held: those of nodes whose
/// parents are all at or above `upto`, and always the top's children's.
/// Families a node's last parent has read are dropped as it goes, which
/// keeps peak memory proportional to the frontier, not the whole graph.
fn node_families(
    graph: &FaultGraph,
    config: &MinimalConfig,
    token: &CancelToken,
    upto: NodeId,
) -> Result<Vec<Option<RgFamily>>, MinimalError> {
    token.check()?;
    let mut remaining_uses = cone_uses(graph);
    let kernel = Kernel {
        config,
        empty: RgFamily::for_cone(graph, &remaining_uses),
    };
    let mut scratch = Scratch {
        union: vec![0; kernel.empty.stride()],
        rest: Vec::new(),
        meter: Meter {
            token,
            left: POLL_EVERY,
        },
    };
    let mut families: Vec<Option<RgFamily>> = (0..graph.len()).map(|_| None).collect();
    for id in 0..upto {
        // Only a node's parents, which come after it, lower its count: a
        // zero here is a node outside the top's cone.
        if remaining_uses[id as usize] == 0 {
            continue;
        }
        let node = graph.node(id);
        let fam = match node.gate {
            None => {
                scratch.meter.tick()?;
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
    Ok(families)
}

/// Units of work between two polls of the cancel token (see
/// [`minimal_risk_groups_cancellable`]). The benchmark's audit is about
/// 12,000 units, so it polls 12 times; a unit there is about 0.1 µs.
const POLL_EVERY: usize = 1024;

/// Counts work down to the next poll of the token.
struct Meter<'a> {
    token: &'a CancelToken,
    /// Units left before the next poll.
    left: usize,
}

impl Meter<'_> {
    /// Spends one unit of work, polling the token when the budget runs out.
    fn tick(&mut self) -> Result<(), Cancelled> {
        self.left -= 1;
        if self.left > 0 {
            return Ok(());
        }
        self.left = POLL_EVERY;
        self.token.check()
    }
}

/// What every gate of one computation shares.
struct Kernel<'a> {
    config: &'a MinimalConfig,
    /// The family of no sets, over the graph's event index.
    empty: RgFamily,
}

/// Buffers every product reuses, and the work meter.
struct Scratch<'a> {
    /// One row: the union under test.
    union: Vec<u64>,
    /// Rows of a product's right operand that are cross-multiplied.
    rest: Vec<usize>,
    meter: Meter<'a>,
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
        // t[j - 1] is T[j].
        let mut t = vec![self.empty.clone(); k];
        for (i, child) in children.into_iter().enumerate() {
            let seen = i + 1;
            // T[j] with j + (n - seen) < k can no longer reach k.
            let lowest = k.saturating_sub(n - seen).max(1);
            for j in (lowest..=seen.min(k)).rev() {
                let (below, from) = t.split_at_mut(j - 1);
                match below.last() {
                    // T[0] = {∅}, and {∅} × F = F.
                    None => self.add_rows(&mut from[0], child, gate, scratch)?,
                    Some(lower) => self.add_product(&mut from[0], lower, child, gate, scratch)?,
                }
            }
            if lowest > 1 {
                t[lowest - 2] = self.empty.clone();
            }
        }
        Ok(t.pop().expect("k >= 1 slots"))
    }

    /// `out ∪= f`, the product with `T[0]`: every row of `f` already fits
    /// the order.
    fn add_rows(
        &self,
        out: &mut RgFamily,
        f: &RgFamily,
        gate: &str,
        scratch: &mut Scratch,
    ) -> Result<(), MinimalError> {
        for r in 0..f.len() {
            scratch.meter.tick()?;
            out.insert_row(f.row(r));
        }
        self.within_cap(out, gate)
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
            scratch.meter.tick()?;
            let row = b.row(rb);
            if !a.subsumes(row) {
                scratch.rest.push(rb);
            } else if self.fits(row.len) {
                out.insert_row(row);
            }
        }
        for ra in 0..a.len() {
            scratch.meter.tick()?;
            let row = a.row(ra);
            if !b.subsumes(row) {
                for &rb in &scratch.rest {
                    scratch.meter.tick()?;
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
            self.within_cap(out, gate)?;
        }
        Ok(())
    }

    fn within_cap(&self, out: &RgFamily, gate: &str) -> Result<(), MinimalError> {
        if out.len() > MAX_FAMILY {
            return Err(MinimalError::FamilyTooLarge {
                gate: gate.to_string(),
                cap: MAX_FAMILY,
            });
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
    use std::time::Instant;

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
    fn deadline_lands_inside_one_product() {
        // An AND of two 400-wide ORs: the top node is one product of
        // 160,000 unions, so a token polled only between nodes would not
        // see the deadline until the whole family is built.
        let mut b = FaultGraphBuilder::new();
        let mut wide_or = |prefix: &str| {
            let events = (0..400)
                .map(|i| b.basic(format!("{prefix}{i}"), None))
                .collect();
            b.gate(format!("{prefix} fails"), Gate::Or, events)
        };
        let (x, y) = (wide_or("x"), wide_or("y"));
        let top = b.gate("top", Gate::And, vec![x, y]);
        let graph = b.build(top).unwrap();
        let config = MinimalConfig::default();

        let started = Instant::now();
        let full = minimal_risk_groups_cancellable(&graph, &config, &CancelToken::default());
        let uncancelled = started.elapsed();
        assert_eq!(full.unwrap().len(), 160_000);

        // The two ORs take microseconds; the deadline falls in the product.
        let token = CancelToken::with_deadline(uncancelled / 20);
        let started = Instant::now();
        let result = minimal_risk_groups_cancellable(&graph, &config, &token);
        let cancelled = started.elapsed();
        assert_eq!(
            result.map(|family| family.len()),
            Err(MinimalError::Cancelled(Cancelled::DeadlineExceeded))
        );
        assert!(
            cancelled < uncancelled / 4,
            "stopped after {cancelled:?} of an uncancelled {uncancelled:?}"
        );
    }

    /// Six events under the top, and with `off_cone` 600 more the top
    /// cannot reach, interleaved with them, plus a stray gate over both.
    fn graph_with_off_cone_basics(off_cone: bool) -> indaas_graph::FaultGraph {
        let mut b = FaultGraphBuilder::new();
        let (mut c, mut x) = (Vec::new(), Vec::new());
        for i in 0..6 {
            if off_cone {
                x.extend((0..100).map(|j| b.basic(format!("x{i}-{j}"), None)));
            }
            c.push(b.basic(format!("c{i}"), None));
        }
        if off_cone {
            b.gate("stray", Gate::And, vec![x[0], c[0]]);
        }
        let a = b.gate("a", Gate::And, vec![c[0], c[1]]);
        let o = b.gate("o", Gate::Or, vec![c[2], c[3]]);
        let t = b.gate("t", Gate::KofN(2), vec![c[3], c[4], c[5]]);
        let top = b.gate("top", Gate::And, vec![a, o, t]);
        b.build(top).unwrap()
    }

    #[test]
    fn rows_cover_only_the_top_cone() {
        let wide = graph_with_off_cone_basics(true);
        let narrow = graph_with_off_cone_basics(false);
        assert_eq!(wide.num_basic(), 606);
        let config = MinimalConfig::default();
        let family = minimal_risk_groups(&wide, &config);
        assert_eq!(family.stride(), 1, "6 events in the cone, not 606");
        let expected = minimal_risk_groups(&narrow, &config);
        assert!(!expected.is_empty());
        assert_eq!(family.to_named(&wide), expected.to_named(&narrow));
    }
}

//! Binary decision diagram (BDD) analysis of fault graphs.
//!
//! A third risk-group engine alongside the MOCUS-style [`crate::minimal`]
//! algorithm and [`crate::sampling`]: the fault graph is compiled into a
//! reduced ordered BDD over the basic events, from which
//!
//! * **exact minimal cut sets** fall out of Rauzy's recursive traversal
//!   (for coherent graphs — all INDaaS gates are monotone), and
//! * the **exact top-event probability** is one Shannon-expansion pass —
//!   no inclusion–exclusion over cut-set subsets, so the
//!   [`crate::ranking::INCLUSION_EXCLUSION_LIMIT`] cap disappears.
//!
//! Classic fault-tree practice (and the natural upgrade path the paper's
//! §4.1.2 hints at when citing SAT-based counting): BDD sizes depend on
//! variable order and can blow up on adversarial structures, which is why
//! all three engines stay available.

use std::collections::HashMap;

use indaas_graph::{CancelToken, Cancelled, FaultGraph, Gate, NodeId};

use crate::riskgroup::{RgFamily, RiskGroup};

/// Why a BDD compilation stopped without a diagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BddError {
    /// The token tripped mid-compilation.
    Cancelled(Cancelled),
    /// The diagram needed more than `cap` nodes.
    TooLarge {
        /// The node budget that was exceeded.
        cap: usize,
    },
}

impl std::fmt::Display for BddError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BddError::Cancelled(c) => write!(f, "{c}"),
            BddError::TooLarge { cap } => write!(
                f,
                "BDD exceeded {cap} nodes; use the MOCUS or sampling engine"
            ),
        }
    }
}

impl std::error::Error for BddError {}

impl From<Cancelled> for BddError {
    fn from(c: Cancelled) -> Self {
        BddError::Cancelled(c)
    }
}

/// Id of a BDD node; 0 and 1 are the terminal FALSE/TRUE nodes.
type BddId = u32;

const FALSE: BddId = 0;
const TRUE: BddId = 1;

/// A reduced ordered BDD compiled from a fault graph.
///
/// Variables are the graph's basic events, ordered by their node id.
pub struct Bdd {
    /// `(var, lo, hi)` triples; entries 0 and 1 are sentinels.
    nodes: Vec<(u32, BddId, BddId)>,
    unique: HashMap<(u32, BddId, BddId), BddId>,
    and_cache: HashMap<(BddId, BddId), BddId>,
    or_cache: HashMap<(BddId, BddId), BddId>,
    /// Root of the compiled top event.
    root: BddId,
    /// Maps BDD variable index → fault-graph basic event id.
    var_to_basic: Vec<NodeId>,
    /// Node budget: [`Bdd::mk`] refuses to grow `nodes` past it.
    max_nodes: usize,
}

impl Bdd {
    /// Compiles the fault graph's top event into a BDD.
    ///
    /// # Panics
    ///
    /// Panics if the BDD grows beyond `max_nodes` — pick a different
    /// engine for graphs with adversarial structure, or call
    /// [`Bdd::compile_cancellable`], which returns it as an error.
    pub fn compile(graph: &FaultGraph, max_nodes: usize) -> Self {
        Self::compile_cancellable(graph, max_nodes, &CancelToken::default())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Bdd::compile`] with cooperative cancellation, polled once per
    /// fault-graph node (each node may allocate many BDD nodes, but the
    /// `max_nodes` cap bounds the work between polls).
    ///
    /// # Errors
    ///
    /// [`BddError::Cancelled`] if the token trips mid-compilation,
    /// [`BddError::TooLarge`] if the BDD would grow beyond `max_nodes`.
    pub fn compile_cancellable(
        graph: &FaultGraph,
        max_nodes: usize,
        token: &CancelToken,
    ) -> Result<Self, BddError> {
        let var_to_basic = graph.basic_ids();
        let basic_to_var: HashMap<NodeId, u32> = var_to_basic
            .iter()
            .enumerate()
            .map(|(v, &id)| (id, v as u32))
            .collect();
        let mut bdd = Bdd {
            nodes: vec![(u32::MAX, FALSE, FALSE), (u32::MAX, TRUE, TRUE)],
            unique: HashMap::new(),
            and_cache: HashMap::new(),
            or_cache: HashMap::new(),
            root: FALSE,
            var_to_basic,
            max_nodes,
        };
        // Bottom-up over the graph: each node's failure function as a BDD.
        let order = graph.topo_order().expect("validated graphs are acyclic");
        let mut funcs: Vec<BddId> = vec![FALSE; graph.len()];
        for id in order {
            token.check()?;
            let node = graph.node(id);
            let f = match node.gate {
                None => {
                    let var = basic_to_var[&id];
                    bdd.mk(var, FALSE, TRUE)?
                }
                Some(Gate::Or) => {
                    let mut acc = FALSE;
                    for &c in &node.children {
                        acc = bdd.or(acc, funcs[c as usize])?;
                    }
                    acc
                }
                Some(Gate::And) => {
                    let mut acc = TRUE;
                    for &c in &node.children {
                        acc = bdd.and(acc, funcs[c as usize])?;
                    }
                    acc
                }
                Some(Gate::KofN(k)) => {
                    let children: Vec<BddId> =
                        node.children.iter().map(|&c| funcs[c as usize]).collect();
                    bdd.at_least(&children, k as usize)?
                }
            };
            funcs[id as usize] = f;
        }
        bdd.root = funcs[graph.top() as usize];
        Ok(bdd)
    }

    /// Number of live BDD nodes (including terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Hash-consed node constructor with the reduction rule — the one
    /// place the diagram grows, so the one place the budget is checked.
    fn mk(&mut self, var: u32, lo: BddId, hi: BddId) -> Result<BddId, BddError> {
        if lo == hi {
            return Ok(lo);
        }
        if let Some(&id) = self.unique.get(&(var, lo, hi)) {
            return Ok(id);
        }
        if self.nodes.len() >= self.max_nodes {
            return Err(BddError::TooLarge {
                cap: self.max_nodes,
            });
        }
        let id = self.nodes.len() as BddId;
        self.nodes.push((var, lo, hi));
        self.unique.insert((var, lo, hi), id);
        Ok(id)
    }

    fn var(&self, id: BddId) -> u32 {
        self.nodes[id as usize].0
    }

    fn and(&mut self, a: BddId, b: BddId) -> Result<BddId, BddError> {
        match (a, b) {
            (FALSE, _) | (_, FALSE) => return Ok(FALSE),
            (TRUE, x) | (x, TRUE) => return Ok(x),
            _ if a == b => return Ok(a),
            _ => {}
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&r) = self.and_cache.get(&key) {
            return Ok(r);
        }
        let (va, vb) = (self.var(a), self.var(b));
        let top = va.min(vb);
        let (a_lo, a_hi) = self.cofactors(a, top);
        let (b_lo, b_hi) = self.cofactors(b, top);
        let lo = self.and(a_lo, b_lo)?;
        let hi = self.and(a_hi, b_hi)?;
        let r = self.mk(top, lo, hi)?;
        self.and_cache.insert(key, r);
        Ok(r)
    }

    fn or(&mut self, a: BddId, b: BddId) -> Result<BddId, BddError> {
        match (a, b) {
            (TRUE, _) | (_, TRUE) => return Ok(TRUE),
            (FALSE, x) | (x, FALSE) => return Ok(x),
            _ if a == b => return Ok(a),
            _ => {}
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&r) = self.or_cache.get(&key) {
            return Ok(r);
        }
        let (va, vb) = (self.var(a), self.var(b));
        let top = va.min(vb);
        let (a_lo, a_hi) = self.cofactors(a, top);
        let (b_lo, b_hi) = self.cofactors(b, top);
        let lo = self.or(a_lo, b_lo)?;
        let hi = self.or(a_hi, b_hi)?;
        let r = self.mk(top, lo, hi)?;
        self.or_cache.insert(key, r);
        Ok(r)
    }

    /// Shannon cofactors with respect to variable `v`.
    fn cofactors(&self, f: BddId, v: u32) -> (BddId, BddId) {
        if f <= TRUE || self.var(f) != v {
            (f, f)
        } else {
            let (_, lo, hi) = self.nodes[f as usize];
            (lo, hi)
        }
    }

    /// "At least k of the given functions are true", by dynamic programming
    /// over `(index, still_needed)`.
    fn at_least(&mut self, funcs: &[BddId], k: usize) -> Result<BddId, BddError> {
        fn rec(
            bdd: &mut Bdd,
            funcs: &[BddId],
            i: usize,
            need: usize,
            memo: &mut HashMap<(usize, usize), BddId>,
        ) -> Result<BddId, BddError> {
            if need == 0 {
                return Ok(TRUE);
            }
            if funcs.len() - i < need {
                return Ok(FALSE);
            }
            if let Some(&r) = memo.get(&(i, need)) {
                return Ok(r);
            }
            let with = rec(bdd, funcs, i + 1, need - 1, memo)?;
            let with = bdd.and(funcs[i], with)?;
            let without = rec(bdd, funcs, i + 1, need, memo)?;
            let r = bdd.or(with, without)?;
            memo.insert((i, need), r);
            Ok(r)
        }
        rec(self, funcs, 0, k, &mut HashMap::new())
    }

    /// Exact top-event probability by Shannon expansion: basic event
    /// probabilities come from the graph (or `default_prob`).
    pub fn top_probability(&self, graph: &FaultGraph, default_prob: f64) -> f64 {
        self.top_probability_with(graph, default_prob, &HashMap::new())
    }

    /// As [`Bdd::top_probability`], with per-component probability
    /// overrides (importance measures condition on `p_i ∈ {0, 1}`).
    pub fn top_probability_with(
        &self,
        graph: &FaultGraph,
        default_prob: f64,
        overrides: &HashMap<NodeId, f64>,
    ) -> f64 {
        let mut memo: HashMap<BddId, f64> = HashMap::new();
        memo.insert(FALSE, 0.0);
        memo.insert(TRUE, 1.0);
        self.prob_rec(self.root, graph, default_prob, overrides, &mut memo)
    }

    fn prob_rec(
        &self,
        f: BddId,
        graph: &FaultGraph,
        default_prob: f64,
        overrides: &HashMap<NodeId, f64>,
        memo: &mut HashMap<BddId, f64>,
    ) -> f64 {
        if let Some(&p) = memo.get(&f) {
            return p;
        }
        let (var, lo, hi) = self.nodes[f as usize];
        let basic = self.var_to_basic[var as usize];
        let p = overrides
            .get(&basic)
            .copied()
            .unwrap_or_else(|| graph.node(basic).prob.unwrap_or(default_prob));
        let plo = self.prob_rec(lo, graph, default_prob, overrides, memo);
        let phi = self.prob_rec(hi, graph, default_prob, overrides, memo);
        let out = (1.0 - p) * plo + p * phi;
        memo.insert(f, out);
        out
    }

    /// Exact minimal cut sets via Rauzy's recursive scheme for coherent
    /// functions: `MCS(f) = MCS(f_lo) ∪ {x ∪ s : s ∈ MCS(f_hi)}`, with
    /// subsumption minimization merging the two branches.
    pub fn minimal_cut_sets(&self) -> RgFamily {
        let mut memo: HashMap<BddId, Vec<Vec<NodeId>>> = HashMap::new();
        memo.insert(FALSE, Vec::new());
        memo.insert(TRUE, vec![Vec::new()]);
        let sets = self.mcs_rec(self.root, &mut memo);
        RgFamily::from_groups(sets.iter().map(|s| RiskGroup::new(s.clone())))
    }

    fn mcs_rec(&self, f: BddId, memo: &mut HashMap<BddId, Vec<Vec<NodeId>>>) -> Vec<Vec<NodeId>> {
        if let Some(cached) = memo.get(&f) {
            return cached.clone();
        }
        let (var, lo, hi) = self.nodes[f as usize];
        let basic = self.var_to_basic[var as usize];
        let lo_sets = self.mcs_rec(lo, memo);
        let hi_sets = self.mcs_rec(hi, memo);
        // Start with the low-branch sets (var healthy), then add var to
        // each high-branch set, dropping those already covered by a
        // low-branch set (minimality).
        let mut fam = RgFamily::from_groups(lo_sets.iter().map(|s| RiskGroup::new(s.clone())));
        for s in hi_sets {
            let mut with = s;
            with.push(basic);
            fam.insert(RiskGroup::new(with));
        }
        let out: Vec<Vec<NodeId>> = fam.groups().map(|g| g.ids().to_vec()).collect();
        memo.insert(f, out.clone());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal::{minimal_risk_groups, MinimalConfig};
    use crate::ranking::rank_by_probability;
    use indaas_graph::detail::{
        component_sets_to_graph, fault_sets_to_graph, ComponentSet, FaultSet,
    };
    use indaas_graph::FaultGraphBuilder;

    const CAP: usize = 1 << 20;

    #[test]
    fn fig4a_cut_sets_match_mocus() {
        let graph = component_sets_to_graph(&[
            ComponentSet::new("E1", ["A1", "A2"]),
            ComponentSet::new("E2", ["A2", "A3"]),
        ])
        .unwrap();
        let bdd = Bdd::compile(&graph, CAP);
        let bdd_mcs = bdd.minimal_cut_sets();
        let mocus = minimal_risk_groups(&graph, &MinimalConfig::default());
        assert_eq!(bdd_mcs.to_named(&graph), mocus.to_named(&graph));
    }

    #[test]
    fn fig4b_exact_probability() {
        let graph = fault_sets_to_graph(&[
            FaultSet::new("E1", [("A1", 0.1), ("A2", 0.2)]),
            FaultSet::new("E2", [("A2", 0.2), ("A3", 0.3)]),
        ])
        .unwrap();
        let bdd = Bdd::compile(&graph, CAP);
        let p = bdd.top_probability(&graph, 0.0);
        assert!((p - 0.224).abs() < 1e-12, "exact Pr(T) = {p}");
    }

    #[test]
    fn probability_beyond_inclusion_exclusion_limit() {
        // 30 sources sharing nothing: 30+ minimal RGs would overflow the
        // inclusion–exclusion cap; the BDD handles it exactly.
        let sets: Vec<ComponentSet> = (0..2)
            .map(|i| {
                ComponentSet::new(
                    format!("E{i}"),
                    (0..15).map(|j| format!("s{i}-c{j}")).collect::<Vec<_>>(),
                )
            })
            .collect();
        let graph = component_sets_to_graph(&sets).unwrap();
        let bdd = Bdd::compile(&graph, CAP);
        // Pr(source fails) = 1 - (1-p)^15 each; top = product.
        let p: f64 = 0.01;
        let per_source = 1.0 - (1.0f64 - p).powi(15);
        let expected = per_source * per_source;
        let got = bdd.top_probability(&graph, p);
        assert!(
            (got - expected).abs() < 1e-12,
            "got {got}, expected {expected}"
        );
        // The ranking module would have fallen back to Monte-Carlo here
        // (15*15 + ... minimal RGs > the limit); the BDD is exact.
        let family = bdd.minimal_cut_sets();
        assert_eq!(family.len(), 225);
        let (_, mc) = rank_by_probability(&family, &graph, p);
        assert!((mc - expected).abs() < 0.01, "Monte-Carlo fallback sanity");
    }

    #[test]
    fn kofn_gate_compiles() {
        let mut b = FaultGraphBuilder::new();
        let basics: Vec<_> = (0..4)
            .map(|i| b.basic(format!("r{i}"), Some(0.5)))
            .collect();
        let top = b.gate("svc", indaas_graph::Gate::KofN(2), basics);
        let graph = b.build(top).unwrap();
        let bdd = Bdd::compile(&graph, CAP);
        // At least 2 of 4 fair coins: 1 - C(4,0)/16 - C(4,1)/16 = 11/16.
        let p = bdd.top_probability(&graph, 0.5);
        assert!((p - 11.0 / 16.0).abs() < 1e-12);
        // Minimal cut sets: all 6 pairs.
        assert_eq!(bdd.minimal_cut_sets().len(), 6);
    }

    #[test]
    fn agrees_with_mocus_on_deeper_graph() {
        let mut b = FaultGraphBuilder::new();
        let tor = b.basic("tor", Some(0.1));
        let c1 = b.basic("c1", Some(0.2));
        let c2 = b.basic("c2", Some(0.2));
        let d1 = b.basic("d1", Some(0.05));
        let d2 = b.basic("d2", Some(0.05));
        let paths1 = b.gate("p1", indaas_graph::Gate::And, vec![c1, c2]);
        let n1 = b.gate("n1", indaas_graph::Gate::Or, vec![tor, paths1]);
        let s1 = b.gate("s1", indaas_graph::Gate::Or, vec![n1, d1]);
        let paths2 = b.gate("p2", indaas_graph::Gate::And, vec![c1, c2]);
        let n2 = b.gate("n2", indaas_graph::Gate::Or, vec![tor, paths2]);
        let s2 = b.gate("s2", indaas_graph::Gate::Or, vec![n2, d2]);
        let top = b.gate("t", indaas_graph::Gate::And, vec![s1, s2]);
        let graph = b.build(top).unwrap();

        let bdd = Bdd::compile(&graph, CAP);
        let mocus = minimal_risk_groups(&graph, &MinimalConfig::default());
        assert_eq!(
            bdd.minimal_cut_sets().to_named(&graph),
            mocus.to_named(&graph)
        );
        // Cross-check the exact probability against brute force over all
        // 2^5 assignments.
        let basic = graph.basic_ids();
        let mut expected = 0.0f64;
        for mask in 0u32..(1 << basic.len()) {
            let mut assignment = vec![false; graph.len()];
            let mut weight = 1.0;
            for (bit, &id) in basic.iter().enumerate() {
                let p = graph.node(id).prob.unwrap();
                if mask >> bit & 1 == 1 {
                    assignment[id as usize] = true;
                    weight *= p;
                } else {
                    weight *= 1.0 - p;
                }
            }
            if graph.evaluate(&assignment) {
                expected += weight;
            }
        }
        let got = bdd.top_probability(&graph, 0.0);
        assert!((got - expected).abs() < 1e-12);
    }

    #[test]
    fn node_budget_enforced() {
        // A parity-like adversarial structure is hard to build with
        // monotone gates; instead enforce the budget with a tiny cap.
        let sets: Vec<ComponentSet> = (0..4)
            .map(|i| {
                ComponentSet::new(
                    format!("E{i}"),
                    (0..8).map(|j| format!("s{i}c{j}")).collect::<Vec<_>>(),
                )
            })
            .collect();
        let graph = component_sets_to_graph(&sets).unwrap();
        match Bdd::compile_cancellable(&graph, 8, &CancelToken::default()) {
            Err(e) => {
                assert_eq!(e, BddError::TooLarge { cap: 8 });
                assert!(e.to_string().contains("exceeded 8 nodes"), "{e}");
            }
            Ok(bdd) => panic!("an 8-node cap must be exceeded, got {}", bdd.node_count()),
        }
        // The generous cap compiles the same graph.
        assert!(Bdd::compile_cancellable(&graph, CAP, &CancelToken::default()).is_ok());
    }
}

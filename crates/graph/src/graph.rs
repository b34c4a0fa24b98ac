//! The [`FaultGraph`] DAG, its builder and bottom-up evaluation.
//!
//! Every child is created before its parent, so node ids are the
//! evaluation order: one forward pass over `0..len()` sees each node's
//! children before the node itself.

use std::collections::HashMap;

/// Index of a node within a [`FaultGraph`].
pub type NodeId = u32;

/// Logic gate connecting an event to its child events.
///
/// Failure semantics: a gated event fails when at least the gate's threshold
/// of its children have failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// Fails if *any* child fails (threshold 1).
    Or,
    /// Fails only if *all* children fail — this is how redundancy is
    /// expressed (the paper's top-level AND across data sources).
    And,
    /// Fails if at least `k` children fail. The paper's n-of-m redundancy
    /// (n of m replicas needed) maps to `KofN(m - n + 1)`: the deployment
    /// fails once `m - n + 1` replicas are down.
    KofN(u32),
}

impl Gate {
    /// The failure threshold for `n` children.
    pub fn threshold(&self, n: usize) -> usize {
        match self {
            Gate::Or => 1,
            Gate::And => n,
            Gate::KofN(k) => *k as usize,
        }
    }
}

/// A single event node in the fault graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// Human-readable event name ("ToR1 fails", "libc6", ...). Basic-event
    /// names identify *components* and must be unique within a graph.
    pub name: String,
    /// `None` for basic events; the connecting gate otherwise.
    pub gate: Option<Gate>,
    /// Failure probability weight, if known (fault-set / weighted level).
    pub prob: Option<f64>,
    /// Child events (empty for basic events).
    pub children: Vec<NodeId>,
}

impl Node {
    /// Returns true if this is a basic event (no children, no gate).
    pub fn is_basic(&self) -> bool {
        self.gate.is_none()
    }
}

/// Errors arising while building or querying fault graphs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// A referenced node id does not exist.
    UnknownNode(NodeId),
    /// A referenced component name does not exist or is not basic.
    UnknownComponent(String),
    /// A gated event has no children.
    EmptyGate(String),
    /// A k-of-n gate with k = 0 or k > n.
    BadThreshold(String),
    /// A basic-event name occurs twice.
    DuplicateBasic(String),
    /// A probability outside [0, 1].
    BadProbability(String),
    /// A gate names a child whose id is not below its own: a child created
    /// after its parent, or the gate itself.
    ChildNotBeforeParent(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            GraphError::UnknownComponent(n) => write!(f, "unknown component {n:?}"),
            GraphError::EmptyGate(n) => write!(f, "gate event {n:?} has no children"),
            GraphError::BadThreshold(n) => write!(f, "bad k-of-n threshold at {n:?}"),
            GraphError::DuplicateBasic(n) => write!(f, "duplicate basic event {n:?}"),
            GraphError::BadProbability(n) => write!(f, "probability out of range at {n:?}"),
            GraphError::ChildNotBeforeParent(n) => {
                write!(f, "gate event {n:?} names a child not created before it")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for [`FaultGraph`].
///
/// Children must be created before their parents, so node ids are a
/// topological order and the evaluation order of every engine; [`build`]
/// refuses a gate naming a child whose id is not below its own.
///
/// [`build`]: FaultGraphBuilder::build
#[derive(Default)]
pub struct FaultGraphBuilder {
    nodes: Vec<Node>,
    basic_names: HashMap<String, NodeId>,
}

impl FaultGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a basic event (a component failure), returning its id.
    ///
    /// Adding the same name twice returns the existing id, so collectors can
    /// feed overlapping dependency data without bookkeeping; a differing
    /// probability on re-add is ignored (first write wins). The name is
    /// looked up as a `&str` and only copied the first time it is added.
    pub fn basic(&mut self, name: impl AsRef<str> + Into<String>, prob: Option<f64>) -> NodeId {
        if let Some(&id) = self.basic_names.get(name.as_ref()) {
            return id;
        }
        let name = name.into();
        let id = self.nodes.len() as NodeId;
        self.basic_names.insert(name.clone(), id);
        self.nodes.push(Node {
            name,
            gate: None,
            prob,
            children: Vec::new(),
        });
        id
    }

    /// Adds a gated (intermediate or top) event, returning its id.
    pub fn gate(&mut self, name: impl Into<String>, gate: Gate, children: Vec<NodeId>) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node {
            name: name.into(),
            gate: Some(gate),
            prob: None,
            children,
        });
        id
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finalizes into a validated [`FaultGraph`] with `top` as the top event.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if any gate is empty, a threshold is invalid,
    /// a child id is out of range or not below its parent's, or a
    /// probability is out of `[0, 1]`.
    pub fn build(self, top: NodeId) -> Result<FaultGraph, GraphError> {
        let graph = FaultGraph {
            nodes: self.nodes,
            top,
            basic_names: self.basic_names,
        };
        graph.validate()?;
        Ok(graph)
    }
}

/// A validated fault graph: a DAG of events with a designated top event.
///
/// Node ids are stable, and every child's id is below its parent's;
/// basic events double as the *component universe* for the component-set
/// and fault-set levels of detail.
#[derive(Clone, Debug)]
pub struct FaultGraph {
    nodes: Vec<Node>,
    top: NodeId,
    basic_names: HashMap<String, NodeId>,
}

impl FaultGraph {
    /// All nodes, indexable by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids from this graph never are).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// The top event id.
    pub fn top(&self) -> NodeId {
        self.top
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes (never the case for built graphs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of all basic events, in id order.
    pub fn basic_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as NodeId)
            .filter(|&id| self.nodes[id as usize].is_basic())
            .collect()
    }

    /// Number of basic events.
    pub fn num_basic(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_basic()).count()
    }

    /// Looks up a basic event by component name.
    pub fn basic_by_name(&self, name: &str) -> Option<NodeId> {
        self.basic_names.get(name).copied()
    }

    /// Validates structural invariants; called by the builder.
    fn validate(&self) -> Result<(), GraphError> {
        let n = self.nodes.len() as NodeId;
        if self.top >= n {
            return Err(GraphError::UnknownNode(self.top));
        }
        let mut seen_basic: HashMap<&str, ()> = HashMap::new();
        for (id, node) in (0..n).zip(&self.nodes) {
            match node.gate {
                None => {
                    if seen_basic.insert(&node.name, ()).is_some() {
                        return Err(GraphError::DuplicateBasic(node.name.clone()));
                    }
                    if !node.children.is_empty() {
                        return Err(GraphError::BadThreshold(node.name.clone()));
                    }
                }
                Some(gate) => {
                    if node.children.is_empty() {
                        return Err(GraphError::EmptyGate(node.name.clone()));
                    }
                    let t = gate.threshold(node.children.len());
                    if t == 0 || t > node.children.len() {
                        return Err(GraphError::BadThreshold(node.name.clone()));
                    }
                }
            }
            if let Some(p) = node.prob {
                if !(0.0..=1.0).contains(&p) || p.is_nan() {
                    return Err(GraphError::BadProbability(node.name.clone()));
                }
            }
            for &c in &node.children {
                if c >= n {
                    return Err(GraphError::UnknownNode(c));
                }
                if c >= id {
                    return Err(GraphError::ChildNotBeforeParent(node.name.clone()));
                }
            }
        }
        Ok(())
    }

    /// Evaluates every node for a failure assignment over *all* nodes
    /// indexed by id (only basic entries are read), writing per-node
    /// failure states into `state` — one forward pass over ids, so hot
    /// loops reuse both buffers and allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics if either slice is shorter than [`FaultGraph::len`].
    pub fn evaluate_into(&self, basic_failed: &[bool], state: &mut [bool]) {
        for (id, node) in self.nodes.iter().enumerate() {
            state[id] = match node.gate {
                None => basic_failed[id],
                Some(gate) => {
                    let failed = node.children.iter().filter(|&&c| state[c as usize]).count();
                    failed >= gate.threshold(node.children.len())
                }
            };
        }
    }

    /// Evaluates whether the top event fails under a failure assignment.
    pub fn evaluate(&self, basic_failed: &[bool]) -> bool {
        let mut state = vec![false; self.nodes.len()];
        self.evaluate_into(basic_failed, &mut state);
        state[self.top as usize]
    }

    /// Evaluates with the named basic events failed and all others healthy.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownComponent`] for names that are not basic
    /// events of this graph.
    pub fn evaluate_named(&self, failed: &[&str]) -> Result<bool, GraphError> {
        let mut assignment = vec![false; self.nodes.len()];
        for &name in failed {
            let id = self
                .basic_by_name(name)
                .ok_or_else(|| GraphError::UnknownComponent(name.to_string()))?;
            assignment[id as usize] = true;
        }
        Ok(self.evaluate(&assignment))
    }
}

/// An incremental evaluator: failing-child counters per gate, updated along
/// ancestors only, for questions of the form "does the top still fail if
/// this one basic event recovers?" (the greedy shrink of failure sampling
/// asks thousands per audit). A change costs the ancestors whose state it
/// flips, not a walk of the graph; [`IncrementalEval::reset`] is O(1).
pub struct IncrementalEval {
    /// CSR parent lists: node `i`'s parents are
    /// `parents[parent_start[i]..parent_start[i + 1]]`, one entry per edge.
    parent_start: Vec<u32>,
    parents: Vec<NodeId>,
    counters: Vec<Counter>,
    epoch: u32,
    top: NodeId,
    stack: Vec<NodeId>,
}

/// One node's failing-child count against its threshold. A basic event
/// needs 1 and counts its own 0/1 state.
#[derive(Clone, Copy)]
struct Counter {
    need: u32,
    count: u32,
    /// `count` is current iff this equals the evaluator's epoch; a stale
    /// count reads as 0.
    epoch: u32,
}

impl IncrementalEval {
    /// Builds the evaluator with every basic event healthy.
    pub fn new(graph: &FaultGraph) -> Self {
        let n = graph.len();
        let mut parent_start = vec![0u32; n + 1];
        for node in graph.nodes() {
            for &c in &node.children {
                parent_start[c as usize + 1] += 1;
            }
        }
        for i in 0..n {
            parent_start[i + 1] += parent_start[i];
        }
        let mut next = parent_start.clone();
        let mut parents = vec![0; parent_start[n] as usize];
        for (id, node) in graph.nodes().iter().enumerate() {
            for &c in &node.children {
                parents[next[c as usize] as usize] = id as NodeId;
                next[c as usize] += 1;
            }
        }
        let counters = graph
            .nodes()
            .iter()
            .map(|node| Counter {
                need: node
                    .gate
                    .map_or(1, |g| g.threshold(node.children.len()) as u32),
                count: 0,
                epoch: 0,
            })
            .collect();
        IncrementalEval {
            parent_start,
            parents,
            counters,
            epoch: 1,
            top: graph.top(),
            stack: Vec::new(),
        }
    }

    /// Returns every basic event to healthy.
    pub fn reset(&mut self) {
        if self.epoch == u32::MAX {
            self.counters.iter_mut().for_each(|c| c.epoch = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Whether the top event fails under the current assignment.
    pub fn top_failed(&self) -> bool {
        let top = self.counters[self.top as usize];
        top.epoch == self.epoch && top.count >= top.need
    }

    /// Fails `basic`, which must be a basic event (no-op if it already is).
    pub fn fail(&mut self, basic: NodeId) {
        self.set(basic, true);
    }

    /// Recovers `basic`, which must be a basic event (no-op if it is
    /// healthy).
    pub fn repair(&mut self, basic: NodeId) {
        self.set(basic, false);
    }

    fn set(&mut self, basic: NodeId, failed: bool) {
        let epoch = self.epoch;
        let own = current(&mut self.counters[basic as usize], epoch);
        if (own.count == 1) == failed {
            return;
        }
        own.count = u32::from(failed);
        // A node is on the stack exactly when its state just flipped, which
        // moves each parent's count by one; the parent flips in turn only
        // when that crosses its threshold. Counts move one way within a
        // call, so no node flips twice.
        self.stack.push(basic);
        while let Some(id) = self.stack.pop() {
            let row = self.parent_start[id as usize] as usize
                ..self.parent_start[id as usize + 1] as usize;
            for &p in &self.parents[row] {
                let c = current(&mut self.counters[p as usize], epoch);
                let flipped = if failed {
                    c.count += 1;
                    c.count == c.need
                } else {
                    c.count -= 1;
                    c.count + 1 == c.need
                };
                if flipped {
                    self.stack.push(p);
                }
            }
        }
    }
}

/// The counter as of `epoch`: zeroed first if an earlier epoch left it.
fn current(counter: &mut Counter, epoch: u32) -> &mut Counter {
    if counter.epoch != epoch {
        counter.epoch = epoch;
        counter.count = 0;
    }
    counter
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 4(c)-style graph: two servers, each OR(hw, net); net has
    /// redundant paths (AND); servers joined by top-level AND.
    fn sample_graph() -> FaultGraph {
        let mut b = FaultGraphBuilder::new();
        let tor = b.basic("ToR1", Some(0.1));
        let core1 = b.basic("Core1", Some(0.1));
        let core2 = b.basic("Core2", Some(0.1));
        let disk1 = b.basic("S1-disk", Some(0.05));
        let disk2 = b.basic("S2-disk", Some(0.05));
        let paths1 = b.gate("S1 paths", Gate::And, vec![core1, core2]);
        let net1 = b.gate("S1 net", Gate::Or, vec![tor, paths1]);
        let s1 = b.gate("S1 fails", Gate::Or, vec![net1, disk1]);
        let paths2 = b.gate("S2 paths", Gate::And, vec![core1, core2]);
        let net2 = b.gate("S2 net", Gate::Or, vec![tor, paths2]);
        let s2 = b.gate("S2 fails", Gate::Or, vec![net2, disk2]);
        let top = b.gate("deployment", Gate::And, vec![s1, s2]);
        b.build(top).unwrap()
    }

    #[test]
    fn shared_tor_is_single_point_of_failure() {
        let g = sample_graph();
        assert!(g.evaluate_named(&["ToR1"]).unwrap());
    }

    #[test]
    fn redundant_cores_require_both() {
        let g = sample_graph();
        assert!(!g.evaluate_named(&["Core1"]).unwrap());
        assert!(!g.evaluate_named(&["Core2"]).unwrap());
        assert!(g.evaluate_named(&["Core1", "Core2"]).unwrap());
    }

    #[test]
    fn independent_disks_require_both() {
        let g = sample_graph();
        assert!(!g.evaluate_named(&["S1-disk"]).unwrap());
        assert!(g.evaluate_named(&["S1-disk", "S2-disk"]).unwrap());
        // Mixed: disk on one server plus full network loss on the other.
        assert!(g.evaluate_named(&["S1-disk", "Core1", "Core2"]).unwrap());
    }

    #[test]
    fn no_failures_no_outage() {
        let g = sample_graph();
        assert!(!g.evaluate_named(&[]).unwrap());
    }

    #[test]
    fn unknown_component_is_error() {
        let g = sample_graph();
        assert_eq!(
            g.evaluate_named(&["nope"]),
            Err(GraphError::UnknownComponent("nope".into()))
        );
    }

    #[test]
    fn kofn_gate_thresholds() {
        // 2-of-3 redundancy: deployment fails when 2 replicas are down.
        let mut b = FaultGraphBuilder::new();
        let r1 = b.basic("r1", None);
        let r2 = b.basic("r2", None);
        let r3 = b.basic("r3", None);
        let top = b.gate("svc", Gate::KofN(2), vec![r1, r2, r3]);
        let g = b.build(top).unwrap();
        assert!(!g.evaluate_named(&["r1"]).unwrap());
        assert!(g.evaluate_named(&["r1", "r3"]).unwrap());
        assert!(g.evaluate_named(&["r1", "r2", "r3"]).unwrap());
    }

    #[test]
    fn duplicate_basic_names_are_shared() {
        let mut b = FaultGraphBuilder::new();
        let a = b.basic("shared-switch", None);
        let a2 = b.basic("shared-switch", None);
        assert_eq!(a, a2, "same component must map to the same node");
    }

    #[test]
    fn empty_gate_rejected() {
        let mut b = FaultGraphBuilder::new();
        let top = b.gate("bad", Gate::Or, vec![]);
        assert_eq!(
            b.build(top).unwrap_err(),
            GraphError::EmptyGate("bad".into())
        );
    }

    #[test]
    fn bad_threshold_rejected() {
        let mut b = FaultGraphBuilder::new();
        let a = b.basic("a", None);
        let top = b.gate("bad", Gate::KofN(2), vec![a]);
        assert!(matches!(b.build(top), Err(GraphError::BadThreshold(_))));
    }

    #[test]
    fn bad_probability_rejected() {
        let mut b = FaultGraphBuilder::new();
        let a = b.basic("a", Some(1.5));
        let top = b.gate("t", Gate::Or, vec![a]);
        assert!(matches!(b.build(top), Err(GraphError::BadProbability(_))));
    }

    #[test]
    fn unknown_child_rejected() {
        let mut b = FaultGraphBuilder::new();
        let a = b.basic("a", None);
        let top = b.gate("t", Gate::Or, vec![a, 99]);
        assert_eq!(b.build(top).unwrap_err(), GraphError::UnknownNode(99));
    }

    /// Ids are the evaluation order, so a gate may only name children
    /// created before it: a forward reference is refused even though the
    /// graph it describes has no cycle.
    #[test]
    fn child_created_after_its_gate_rejected() {
        let mut b = FaultGraphBuilder::new();
        b.basic("a", None);
        let top = b.gate("g", Gate::Or, vec![2]);
        b.basic("late", None);
        assert_eq!(
            b.build(top).unwrap_err(),
            GraphError::ChildNotBeforeParent("g".into())
        );
    }

    #[test]
    fn self_reference_rejected() {
        let mut b = FaultGraphBuilder::new();
        let a = b.basic("a", None);
        let top = b.gate("g", Gate::Or, vec![a, 1]);
        let err = b.build(top).unwrap_err();
        assert_eq!(err, GraphError::ChildNotBeforeParent("g".into()));
        assert!(err.to_string().contains("\"g\""), "{err}");
    }

    #[test]
    fn incremental_eval_matches_evaluate() {
        let g = sample_graph();
        let basic = g.basic_ids();
        let mut inc = IncrementalEval::new(&g);
        let mut assignment = vec![false; g.len()];
        // Gray-code walk: every assignment of the five basics, one flip
        // per step.
        for step in 1u32..(1 << basic.len()) {
            let id = basic[step.trailing_zeros() as usize];
            assignment[id as usize] ^= true;
            if assignment[id as usize] {
                inc.fail(id);
                inc.fail(id); // idempotent
            } else {
                inc.repair(id);
            }
            assert_eq!(inc.top_failed(), g.evaluate(&assignment), "step {step}");
        }
        inc.reset();
        assert!(!inc.top_failed());
        inc.fail(g.basic_by_name("ToR1").unwrap());
        assert!(inc.top_failed());
    }

    #[test]
    fn incremental_eval_survives_epoch_wraparound() {
        let g = sample_graph();
        let tor = g.basic_by_name("ToR1").unwrap();
        let mut inc = IncrementalEval::new(&g);
        inc.epoch = u32::MAX - 1;
        for _ in 0..3 {
            inc.reset();
            assert!(!inc.top_failed(), "epoch {}", inc.epoch);
            inc.fail(tor);
            assert!(inc.top_failed(), "epoch {}", inc.epoch);
        }
    }
}

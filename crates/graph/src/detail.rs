//! The component-set level of detail, lifted into a fault graph
//! (Figure 4 of the paper).
//!
//! A component-set is *lifted* into the canonical two-level
//! "AND-of-ORs" fault graph for uniform auditing. The fault-set level
//! needs no type of its own: it is the same graph with each basic event
//! built by `FaultGraphBuilder::basic(name, Some(p))`.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::graph::{FaultGraph, FaultGraphBuilder, Gate, GraphError};

/// Component-set level of detail: a data source and the flat set of
/// components it depends on. Only shared components matter here.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentSet {
    /// Data-source name (e.g., "E1", "Cloud2").
    pub source: String,
    /// Names of components the source depends on.
    pub components: BTreeSet<String>,
}

impl ComponentSet {
    /// Creates a component-set from anything iterable.
    pub fn new(
        source: impl Into<String>,
        components: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        ComponentSet {
            source: source.into(),
            components: components.into_iter().map(Into::into).collect(),
        }
    }
}

/// Lifts component-sets into the canonical two-level "AND-of-ORs" fault
/// graph of Figure 4(a): the top AND expresses redundancy across sources,
/// each source an OR over its components. Shared components become shared
/// basic events automatically.
///
/// `needed` expresses n-of-m redundancy: the deployment survives while at
/// least `needed` of the `m` sources are alive, so the top gate fails once
/// `m - needed + 1` sources have failed. The paper's default — all sources
/// are full replicas, service dies only when every replica dies — is
/// `needed = 1`, which yields the plain top-level AND of Figure 4(a) and is
/// what [`component_sets_to_graph`] provides.
///
/// # Errors
///
/// Returns a [`GraphError`] if `sets` is empty, `needed` is zero or exceeds
/// the number of sources, or any component set is empty.
pub fn component_sets_to_graph_n_of_m(
    sets: &[ComponentSet],
    needed: usize,
) -> Result<FaultGraph, GraphError> {
    if sets.is_empty() || needed == 0 || needed > sets.len() {
        return Err(GraphError::BadThreshold("redundancy deployment".into()));
    }
    let mut b = FaultGraphBuilder::new();
    let mut source_events = Vec::with_capacity(sets.len());
    for set in sets {
        let comps: Vec<_> = set
            .components
            .iter()
            .map(|c| b.basic(c.clone(), None))
            .collect();
        if comps.is_empty() {
            return Err(GraphError::EmptyGate(set.source.clone()));
        }
        source_events.push(b.gate(format!("{} fails", set.source), Gate::Or, comps));
    }
    // Deployment fails once (m - needed + 1) sources fail.
    let fail_threshold = (sets.len() - needed + 1) as u32;
    let gate = if fail_threshold == sets.len() as u32 {
        Gate::And
    } else {
        Gate::KofN(fail_threshold)
    };
    let top = b.gate("deployment fails", gate, source_events);
    b.build(top)
}

/// Lifts component-sets with all sources acting as replicas (Figure 4(a)):
/// the deployment fails only when every source fails.
pub fn component_sets_to_graph(sets: &[ComponentSet]) -> Result<FaultGraph, GraphError> {
    component_sets_to_graph_n_of_m(sets, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig4a_sets() -> Vec<ComponentSet> {
        vec![
            ComponentSet::new("E1", ["A1", "A2"]),
            ComponentSet::new("E2", ["A2", "A3"]),
        ]
    }

    #[test]
    fn fig4a_lift_semantics() {
        let g = component_sets_to_graph(&fig4a_sets()).unwrap();
        // A2 is shared: alone it kills the deployment.
        assert!(g.evaluate_named(&["A2"]).unwrap());
        // A1 + A3 kills both sources.
        assert!(g.evaluate_named(&["A1", "A3"]).unwrap());
        // A1 alone leaves E2 alive.
        assert!(!g.evaluate_named(&["A1"]).unwrap());
        assert_eq!(g.num_basic(), 3, "A2 must be a single shared node");
    }

    #[test]
    fn n_of_m_lift() {
        // 3 sources, need 2 alive: deployment fails when 2 fail.
        let sets = vec![
            ComponentSet::new("E1", ["A"]),
            ComponentSet::new("E2", ["B"]),
            ComponentSet::new("E3", ["C"]),
        ];
        let g = component_sets_to_graph_n_of_m(&sets, 2).unwrap();
        assert!(!g.evaluate_named(&["A"]).unwrap());
        assert!(g.evaluate_named(&["A", "C"]).unwrap());
    }

    #[test]
    fn empty_or_bad_inputs_rejected() {
        assert!(component_sets_to_graph(&[]).is_err());
        let sets = fig4a_sets();
        assert!(component_sets_to_graph_n_of_m(&sets, 0).is_err());
        assert!(component_sets_to_graph_n_of_m(&sets, 3).is_err());
        let with_empty = vec![ComponentSet::new("E1", Vec::<String>::new())];
        assert!(component_sets_to_graph(&with_empty).is_err());
    }
}

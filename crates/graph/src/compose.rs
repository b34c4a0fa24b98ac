//! Composition of fault graphs across services.
//!
//! The paper (§4.1.1, and TR-1479) composes individual dependency graphs
//! collected from multiple services into aggregate graphs — e.g., EC2
//! instances that depend on EBS and ELB services each described by their own
//! fault graph. [`compose`] merges graphs under a new top gate, unifying
//! basic events by component name so that shared infrastructure appears once.

use crate::graph::{FaultGraph, FaultGraphBuilder, Gate, GraphError, NodeId};

/// Composes `parts` into one aggregate graph under a new top event with the
/// given `gate`.
///
/// Basic events with identical names are unified (this is the point of
/// composition: a router shared by two services becomes one node); all
/// gated events are copied. Each part contributes its old top event as one
/// child of the new top.
///
/// # Errors
///
/// Returns a [`GraphError`] if `parts` is empty or the gate threshold is
/// invalid for the number of parts.
pub fn compose(
    top_name: impl Into<String>,
    gate: Gate,
    parts: &[&FaultGraph],
) -> Result<FaultGraph, GraphError> {
    if parts.is_empty() {
        return Err(GraphError::EmptyGate(top_name.into()));
    }
    let mut b = FaultGraphBuilder::new();
    let mut part_tops = Vec::with_capacity(parts.len());
    for part in parts {
        let mapping = copy_into(&mut b, part);
        part_tops.push(mapping[part.top() as usize]);
    }
    let top = b.gate(top_name, gate, part_tops);
    b.build(top)
}

/// Copies every node of `src` into the builder in id order (children
/// first), returning the new id of each old id. Basic events are unified
/// by name (builder semantics); gated events are always freshly created.
fn copy_into(b: &mut FaultGraphBuilder, src: &FaultGraph) -> Vec<NodeId> {
    let mut map = Vec::with_capacity(src.len());
    for node in src.nodes() {
        let new_id = match node.gate {
            None => b.basic(node.name.clone(), node.prob),
            Some(gate) => {
                let children = node.children.iter().map(|&c| map[c as usize]).collect();
                b.gate(node.name.clone(), gate, children)
            }
        };
        map.push(new_id);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detail::{component_sets_to_graph, ComponentSet};

    fn service(name: &str, comps: &[&str]) -> FaultGraph {
        component_sets_to_graph(&[ComponentSet::new(name, comps.to_vec())]).unwrap()
    }

    #[test]
    fn compose_unifies_shared_basics() {
        // Two services both depending on "power-7"; aggregate redundancy.
        let ebs = service("EBS", &["ebs-server-1", "power-7"]);
        let elb = service("ELB", &["elb-node-1", "power-7"]);
        let agg = compose("EC2 app", Gate::And, &[&ebs, &elb]).unwrap();
        // "power-7" must appear once.
        assert_eq!(
            agg.basic_ids()
                .iter()
                .filter(|&&id| agg.node(id).name == "power-7")
                .count(),
            1
        );
        // And it alone must take the aggregate down (common dependency).
        assert!(agg.evaluate_named(&["power-7"]).unwrap());
        // A failure local to one service does not.
        assert!(!agg.evaluate_named(&["ebs-server-1"]).unwrap());
    }

    #[test]
    fn compose_or_semantics() {
        // EC2 app needs BOTH services: aggregate under OR fails if either
        // service fails entirely.
        let s1 = service("storage", &["disk-a"]);
        let s2 = service("network", &["nic-b"]);
        let agg = compose("app", Gate::Or, &[&s1, &s2]).unwrap();
        assert!(agg.evaluate_named(&["disk-a"]).unwrap());
        assert!(agg.evaluate_named(&["nic-b"]).unwrap());
        assert!(!agg.evaluate_named(&[]).unwrap());
    }

    #[test]
    fn compose_preserves_probabilities() {
        let mut b = FaultGraphBuilder::new();
        let a = b.basic("a", Some(0.3));
        let t = b.gate("t", Gate::Or, vec![a]);
        let g1 = b.build(t).unwrap();
        let g2 = g1.clone();
        let agg = compose("agg", Gate::And, &[&g1, &g2]).unwrap();
        let id = agg.basic_by_name("a").unwrap();
        assert_eq!(agg.node(id).prob, Some(0.3));
    }

    #[test]
    fn compose_empty_rejected() {
        assert!(compose("x", Gate::And, &[]).is_err());
    }

    #[test]
    fn nested_composition() {
        let a = service("A", &["x"]);
        let b_ = service("B", &["y"]);
        let c = service("C", &["x", "z"]);
        let ab = compose("AB", Gate::And, &[&a, &b_]).unwrap();
        let abc = compose("ABC", Gate::And, &[&ab, &c]).unwrap();
        // x shared between A and C: one node.
        assert_eq!(
            abc.basic_ids()
                .iter()
                .filter(|&&id| abc.node(id).name == "x")
                .count(),
            1
        );
        // All three leaves down → aggregate down.
        assert!(abc.evaluate_named(&["x", "y", "z"]).unwrap());
    }
}

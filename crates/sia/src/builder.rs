//! Building a deployment fault graph from DepDB (§4.1.1, steps 1–6).
//!
//! Top-down construction, exactly as the paper describes:
//!
//! 1. the top event is the failure of the whole redundancy deployment;
//! 2. each server in the client's specification becomes a child, joined by
//!    an AND gate (or k-of-n for n-of-m redundancy);
//! 3. each server's failure is an OR over its network, hardware and
//!    software failure events (only the categories present / requested);
//! 4. hardware failure is an OR over the server's physical components;
//! 5. network failure is an AND over the server's redundant routes, each
//!    route an OR over the devices on it;
//! 6. software failure is an OR over programs; each program is an OR over
//!    the packages it depends on (a failing package fails the program).

use indaas_deps::{DepView, FailureProbModel};
use indaas_graph::{FaultGraph, FaultGraphBuilder, Gate, GraphError, NodeId};

/// What the auditing client asked for (Step 1 of §2): the deployment's
/// servers, the redundancy level, and which dependency categories to audit.
#[derive(Clone, Debug)]
pub struct BuildSpec {
    /// Deployment name, used for the top event.
    pub name: String,
    /// The redundant servers (replicas).
    pub servers: Vec<String>,
    /// How many replicas must stay alive for the service to survive
    /// (1 = plain replication: service dies only when all replicas die).
    pub needed_alive: usize,
    /// Audit network dependencies.
    pub network: bool,
    /// Audit hardware dependencies.
    pub hardware: bool,
    /// Audit software dependencies.
    pub software: bool,
    /// Optional failure-probability model for weighting basic events.
    pub prob_model: Option<FailureProbModel>,
}

impl BuildSpec {
    /// A spec auditing every category for plain replication across
    /// `servers`.
    pub fn all(name: impl Into<String>, servers: Vec<String>) -> Self {
        BuildSpec {
            name: name.into(),
            servers,
            needed_alive: 1,
            network: true,
            hardware: true,
            software: true,
            prob_model: None,
        }
    }
}

/// Errors from fault-graph construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The spec listed no servers.
    NoServers,
    /// `needed_alive` is zero or exceeds the number of servers.
    BadRedundancy,
    /// A server has no dependency records in any requested category.
    NoData(String),
    /// The underlying graph construction failed.
    Graph(GraphError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoServers => write!(f, "specification lists no servers"),
            BuildError::BadRedundancy => write!(f, "needed_alive out of range"),
            BuildError::NoData(s) => write!(f, "no dependency data for server {s:?}"),
            BuildError::Graph(e) => write!(f, "graph construction failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<GraphError> for BuildError {
    fn from(e: GraphError) -> Self {
        BuildError::Graph(e)
    }
}

/// Builds the deployment fault graph for `spec` from the dependency data in
/// `db` — any read-only [`DepView`]: a monolithic `DepDb`, a sharded
/// snapshot, or a trait object over either.
///
/// # Errors
///
/// Returns a [`BuildError`] when the spec is inconsistent or a server has
/// no data in any requested category.
pub fn build_fault_graph<D: DepView + ?Sized>(
    db: &D,
    spec: &BuildSpec,
) -> Result<FaultGraph, BuildError> {
    let k = fail_threshold(spec)?;
    let mut b = FaultGraphBuilder::new();
    let mut server_events: Vec<NodeId> = Vec::with_capacity(spec.servers.len());
    for server in &spec.servers {
        server_events.push(add_server(
            &mut b,
            db,
            server,
            spec,
            spec.prob_model.as_ref(),
        )?);
    }
    let gate = threshold_gate(k, server_events.len());
    let top = b.gate(format!("{} fails", spec.name), gate, server_events);
    Ok(b.build(top)?)
}

/// Step 2: redundancy across servers. The deployment fails once
/// `m - needed_alive + 1` of its `m` servers have failed; this is that
/// count.
///
/// # Errors
///
/// [`BuildError::NoServers`] or [`BuildError::BadRedundancy`] for a spec
/// with no servers or a `needed_alive` outside `1..=m`.
pub(crate) fn fail_threshold(spec: &BuildSpec) -> Result<usize, BuildError> {
    if spec.servers.is_empty() {
        return Err(BuildError::NoServers);
    }
    if spec.needed_alive == 0 || spec.needed_alive > spec.servers.len() {
        return Err(BuildError::BadRedundancy);
    }
    Ok(spec.servers.len() - spec.needed_alive + 1)
}

/// The gate that fails once `k` of its `n` children have.
pub(crate) fn threshold_gate(k: usize, n: usize) -> Gate {
    if k == n {
        Gate::And
    } else {
        Gate::KofN(k as u32)
    }
}

/// Adds one server's subtree (steps 3–6) to `b` and returns the event
/// "`server` fails". Basic events are weighted by `prob_model`, if any.
/// The subtree names its basic events in one left-to-right order —
/// route devices, then hardware components, then each program and its
/// packages — and [`crate::compose`] relies on a walk of its children
/// meeting them in that order.
///
/// # Errors
///
/// [`BuildError::NoData`] if `server` has no records in any category
/// `spec` audits.
pub(crate) fn add_server<D: DepView + ?Sized>(
    b: &mut FaultGraphBuilder,
    db: &D,
    server: &str,
    spec: &BuildSpec,
    prob_model: Option<&FailureProbModel>,
) -> Result<NodeId, BuildError> {
    let prob = |name: &str| prob_model.map(|m| m.prob_for(name));
    let mut causes: Vec<NodeId> = Vec::new();

    // Step 5: network failure = AND over redundant routes, each route
    // an OR over its devices.
    if spec.network {
        let routes = db.network_deps(server);
        if !routes.is_empty() {
            let path_events: Vec<NodeId> = routes
                .iter()
                .enumerate()
                .map(|(i, route)| {
                    let devices: Vec<NodeId> = route
                        .route
                        .iter()
                        .map(|dev| {
                            let p = prob(dev);
                            b.basic(dev, p)
                        })
                        .collect();
                    b.gate(
                        format!("{server} path#{i} ({}→{})", route.src, route.dst),
                        Gate::Or,
                        devices,
                    )
                })
                .collect();
            causes.push(b.gate(format!("{server} network fails"), Gate::And, path_events));
        }
    }

    // Step 4: hardware failure = OR over physical components.
    if spec.hardware {
        let hw = db.hardware_deps(server);
        if !hw.is_empty() {
            let comps: Vec<NodeId> = hw
                .iter()
                .map(|h| {
                    let p = prob(&h.dep);
                    b.basic(&h.dep, p)
                })
                .collect();
            causes.push(b.gate(format!("{server} hardware fails"), Gate::Or, comps));
        }
    }

    // Step 6: software failure = OR over programs; program = OR over
    // its packages (plus the program itself as a basic event, so a
    // program with no package data still contributes a failure mode).
    if spec.software {
        let sw = db.software_deps(server);
        if !sw.is_empty() {
            let pgm_events: Vec<NodeId> = sw
                .iter()
                .map(|s| {
                    let mut parts: Vec<NodeId> = Vec::with_capacity(s.deps.len() + 1);
                    let self_prob = prob(&s.pgm);
                    parts.push(b.basic(&s.pgm, self_prob));
                    for pkg in &s.deps {
                        let p = prob(pkg);
                        parts.push(b.basic(pkg, p));
                    }
                    b.gate(format!("{server}:{} fails", s.pgm), Gate::Or, parts)
                })
                .collect();
            causes.push(b.gate(format!("{server} software fails"), Gate::Or, pgm_events));
        }
    }

    if causes.is_empty() {
        return Err(BuildError::NoData(server.to_string()));
    }
    // Step 3: the server fails if any category fails.
    Ok(b.gate(format!("{server} fails"), Gate::Or, causes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal::{minimal_risk_groups, MinimalConfig};
    use indaas_deps::{parse_records, DepDb};

    /// The Figure 2/3 sample: two servers behind a shared ToR with
    /// redundant cores, per-server hardware, shared libc6.
    fn figure3_db() -> DepDb {
        DepDb::from_records(
            parse_records(
                r#"
                <src="S1" dst="Internet" route="ToR1,Core1"/>
                <src="S1" dst="Internet" route="ToR1,Core2"/>
                <src="S2" dst="Internet" route="ToR1,Core1"/>
                <src="S2" dst="Internet" route="ToR1,Core2"/>
                <hw="S1" type="CPU" dep="S1-Intel-X5550"/>
                <hw="S1" type="Disk" dep="S1-SED900"/>
                <hw="S2" type="CPU" dep="S2-Intel-X5550"/>
                <hw="S2" type="Disk" dep="S2-SED900"/>
                <pgm="QueryEngine1" hw="S1" dep="libc6,libgcc1"/>
                <pgm="Riak1" hw="S1" dep="libc6,libsvn1"/>
                <pgm="QueryEngine2" hw="S2" dep="libc6,libgcc1"/>
                <pgm="Riak2" hw="S2" dep="libc6,libsvn1"/>
            "#,
            )
            .unwrap(),
        )
    }

    fn spec() -> BuildSpec {
        BuildSpec::all("storage", vec!["S1".into(), "S2".into()])
    }

    #[test]
    fn figure3_graph_semantics() {
        let g = build_fault_graph(&figure3_db(), &spec()).unwrap();
        // Shared ToR1 kills both servers' networks.
        assert!(g.evaluate_named(&["ToR1"]).unwrap());
        // Shared libc6 kills software on both servers.
        assert!(g.evaluate_named(&["libc6"]).unwrap());
        // One core leaves the redundant path alive.
        assert!(!g.evaluate_named(&["Core1"]).unwrap());
        assert!(g.evaluate_named(&["Core1", "Core2"]).unwrap());
        // Per-server hardware needs both servers hit.
        assert!(!g.evaluate_named(&["S1-SED900"]).unwrap());
        assert!(g.evaluate_named(&["S1-SED900", "S2-SED900"]).unwrap());
    }

    #[test]
    fn figure3_minimal_rgs_contain_expected_singletons() {
        let g = build_fault_graph(&figure3_db(), &spec()).unwrap();
        let rgs = minimal_risk_groups(&g, &MinimalConfig::default());
        let named = rgs.to_named(&g);
        // The two unexpected (size-1) RGs of the running example.
        assert!(named.contains(&vec!["ToR1".to_string()]));
        assert!(named.contains(&vec!["libc6".to_string()]));
        assert!(named.contains(&vec!["Core1".to_string(), "Core2".to_string()]));
    }

    #[test]
    fn category_filters_respected() {
        let db = figure3_db();
        let g = build_fault_graph(
            &db,
            &BuildSpec {
                hardware: false,
                software: false,
                ..BuildSpec::all("net", vec!["S1".into(), "S2".into()])
            },
        )
        .unwrap();
        assert!(g.basic_by_name("ToR1").is_some());
        assert!(g.basic_by_name("libc6").is_none());
        assert!(g.basic_by_name("S1-SED900").is_none());
    }

    #[test]
    fn n_of_m_redundancy_gate() {
        let db = DepDb::from_records(
            parse_records(
                r#"
                <hw="S1" type="Disk" dep="d1"/>
                <hw="S2" type="Disk" dep="d2"/>
                <hw="S3" type="Disk" dep="d3"/>
            "#,
            )
            .unwrap(),
        );
        let spec = BuildSpec {
            needed_alive: 2,
            ..BuildSpec::all("q", vec!["S1".into(), "S2".into(), "S3".into()])
        };
        let g = build_fault_graph(&db, &spec).unwrap();
        // Needs 2 alive of 3: two disk failures kill it, one does not.
        assert!(!g.evaluate_named(&["d1"]).unwrap());
        assert!(g.evaluate_named(&["d1", "d3"]).unwrap());
    }

    #[test]
    fn probability_model_applied() {
        let model = FailureProbModel::new(0.01).with_rule("ToR", 0.2);
        let spec = BuildSpec {
            prob_model: Some(model),
            ..spec()
        };
        let g = build_fault_graph(&figure3_db(), &spec).unwrap();
        let tor = g.basic_by_name("ToR1").unwrap();
        assert_eq!(g.node(tor).prob, Some(0.2));
        let libc = g.basic_by_name("libc6").unwrap();
        assert_eq!(g.node(libc).prob, Some(0.01));
    }

    #[test]
    fn missing_server_data_is_error() {
        let err = build_fault_graph(
            &figure3_db(),
            &BuildSpec::all("x", vec!["S1".into(), "S404".into()]),
        )
        .unwrap_err();
        assert_eq!(err, BuildError::NoData("S404".into()));
    }

    #[test]
    fn empty_and_inconsistent_specs_rejected() {
        let db = figure3_db();
        assert_eq!(
            build_fault_graph(&db, &BuildSpec::all("x", vec![])).unwrap_err(),
            BuildError::NoServers
        );
        let bad = BuildSpec {
            needed_alive: 3,
            ..BuildSpec::all("x", vec!["S1".into(), "S2".into()])
        };
        assert_eq!(
            build_fault_graph(&db, &bad).unwrap_err(),
            BuildError::BadRedundancy
        );
    }
}

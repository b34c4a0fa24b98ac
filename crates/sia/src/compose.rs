//! A deployment's minimal family composed from its servers' families.
//!
//! A deployment's fault graph is a k-of-n gate over one subtree per
//! server, and a server's subtree depends on nothing but that server's
//! records. So is its minimal family at a given order: the minimal cut
//! sets of the subtree, given the host's three record lists, the audited
//! categories and `max_order`. [`FamilyMemo`] keeps each server's family
//! under that key, and [`compose_minimal`] assembles an audit from it:
//!
//! 1. it takes the families the memo already holds (a hit needs the
//!    host's record lists to be the very lists the family was computed
//!    from — [`HostLists::same`]);
//! 2. it computes every miss together: one graph with one subtree per
//!    missed server and one MOCUS pass that keeps the families of the
//!    top's children ([`minimal_child_families`]);
//! 3. it builds a *reduced graph* — each server an OR over its family's
//!    rows, each row an AND of its events, the same k-of-n gate on top —
//!    and runs [`minimal_risk_groups_cancellable`] on it.
//!
//! A truncated family composes exactly: a cut set of the top of at most
//! `max_order` events is a union of cut sets of k children, each of at
//! most `max_order` events, so each contains a row of its child's
//! truncated family.
//!
//! The reduced graph gives the report the full graph gives, byte for
//! byte. A report lists a group's events in node-id order and breaks
//! rank ties by names taken in that order, so every event a group can
//! hold must keep its relative id order. The full graph numbers events
//! as its servers first name them, in spec order. So a kept family
//! remembers every event its server's subtree names, in the order a
//! left-to-right walk of the subtree first meets them, and the reduced
//! graph walks those lists server by server in spec order, creating
//! each event some row uses at its first sighting. Events no row uses
//! are left out, which moves no other event's relative order. Row order
//! is kept too: a server's rows enter its OR in the order its own MOCUS
//! left them, so the top gate sees what it sees in the full graph, and
//! the deployment's rows — which inclusion–exclusion sums in order —
//! come out in the same order.
//!
//! A server whose family is empty at the order cap never fails within
//! it. It is left out of the top gate and k is kept; with fewer than k
//! servers left, the deployment's family is empty. In the full graph
//! the same server is a child with no rows, which the threshold
//! recurrence passes over without a trace.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use indaas_deps::{DepView, HostLists};
use indaas_graph::{CancelToken, FaultGraph, FaultGraphBuilder, Gate, NodeId};

use crate::builder::{add_server, fail_threshold, threshold_gate, BuildError, BuildSpec};
use crate::minimal::{
    minimal_child_families, minimal_risk_groups_cancellable, MinimalConfig, MinimalError,
};
use crate::riskgroup::RgFamily;

/// Server families a [`FamilyMemo`] holds at most; past it the least
/// recently used goes. A family of the benchmark's servers at order 4
/// is 7 rows over about 20 event names.
const MEMO_CAPACITY: usize = 4096;

/// Per-server minimal families, kept by record-list identity and shared
/// by every audit that names the server. Safe to share between threads.
#[derive(Debug, Default)]
pub struct FamilyMemo {
    state: Mutex<MemoState>,
}

#[derive(Debug, Default)]
struct MemoState {
    /// Host → one entry per variant it was audited under.
    hosts: HashMap<String, Vec<Entry>>,
    entries: usize,
    /// Lookups and stores so far; an entry's `used` is the clock at its
    /// store or its last hit.
    clock: u64,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct Entry {
    variant: Variant,
    /// The lists the family was computed from. Holding them is what
    /// makes pointer identity a sound key (see [`HostLists`]).
    lists: HostLists,
    family: Arc<ServerFamily>,
    used: u64,
}

/// What else a server's family depends on: the audited categories
/// (network, hardware, software) and the order cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Variant {
    categories: [bool; 3],
    max_order: Option<usize>,
}

impl Variant {
    fn of(spec: &BuildSpec, config: &MinimalConfig) -> Self {
        Variant {
            categories: [spec.network, spec.hardware, spec.software],
            max_order: config.max_order,
        }
    }
}

impl FamilyMemo {
    /// `(hits, misses, entries)`: server lookups answered from the memo,
    /// lookups that had to compute, and families held now.
    pub fn stats(&self) -> (u64, u64, usize) {
        let state = self.lock();
        (state.hits, state.misses, state.entries)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The held family of each server whose lists are still the ones it
    /// was computed from; `None` for a miss.
    fn lookup(
        &self,
        variant: Variant,
        servers: &[String],
        lists: &[HostLists],
    ) -> Vec<Option<Arc<ServerFamily>>> {
        let mut state = self.lock();
        state.clock += 1;
        let clock = state.clock;
        let found: Vec<Option<Arc<ServerFamily>>> = servers
            .iter()
            .zip(lists)
            .map(|(host, lists)| {
                let entry = state
                    .hosts
                    .get_mut(host.as_str())?
                    .iter_mut()
                    .find(|e| e.variant == variant && e.lists.same(lists))?;
                entry.used = clock;
                Some(Arc::clone(&entry.family))
            })
            .collect();
        let hits = found.iter().filter(|f| f.is_some()).count() as u64;
        state.hits += hits;
        state.misses += found.len() as u64 - hits;
        found
    }

    /// Keeps `family` as `host`'s under `variant`, replacing what was
    /// held for it and evicting the least recently used entry if full.
    fn store(&self, variant: Variant, host: &str, lists: HostLists, family: Arc<ServerFamily>) {
        let mut state = self.lock();
        state.clock += 1;
        let used = state.clock;
        let entry = Entry {
            variant,
            lists,
            family,
            used,
        };
        if let Some(held) = state
            .hosts
            .get_mut(host)
            .and_then(|v| v.iter_mut().find(|e| e.variant == variant))
        {
            *held = entry;
            return;
        }
        if state.entries >= MEMO_CAPACITY {
            state.evict_oldest();
        }
        state.hosts.entry(host.to_owned()).or_default().push(entry);
        state.entries += 1;
    }
}

impl MemoState {
    fn evict_oldest(&mut self) {
        let oldest = self
            .hosts
            .iter()
            .flat_map(|(host, v)| v.iter().enumerate().map(move |(i, e)| (e.used, host, i)))
            .min_by_key(|&(used, _, _)| used)
            .map(|(_, host, i)| (host.clone(), i));
        let Some((host, i)) = oldest else { return };
        let held = self.hosts.get_mut(&host).expect("found above");
        held.swap_remove(i);
        if held.is_empty() {
            self.hosts.remove(&host);
        }
        self.entries -= 1;
    }
}

/// One server's minimal family, free of any graph's node ids.
#[derive(Debug)]
struct ServerFamily {
    /// Every basic event the server's subtree names, in the order a
    /// left-to-right walk of its children first meets them: event `e`
    /// is `names[name_ends[e - 1]..name_ends[e]]`.
    names: String,
    name_ends: Vec<u32>,
    /// The rows' members, as event indices; row `r` is
    /// `members[ends[r - 1]..ends[r]]`, rows in the family's row order.
    members: Vec<u32>,
    ends: Vec<u32>,
}

impl ServerFamily {
    /// The family of the subtree under `root`, computed in `graph`.
    /// `local` is a scratch table over `graph`'s node ids, `UNSEEN`
    /// everywhere on entry and on return.
    fn extract(graph: &FaultGraph, root: NodeId, family: &RgFamily, local: &mut [u32]) -> Self {
        fn walk(graph: &FaultGraph, id: NodeId, local: &mut [u32], order: &mut Vec<NodeId>) {
            let node = graph.node(id);
            if node.is_basic() {
                if local[id as usize] == UNSEEN {
                    local[id as usize] = order.len() as u32;
                    order.push(id);
                }
                return;
            }
            for &child in &node.children {
                walk(graph, child, local, order);
            }
        }
        let mut order = Vec::new();
        walk(graph, root, local, &mut order);
        let mut members = Vec::new();
        let mut ends = Vec::with_capacity(family.len());
        for group in family.groups() {
            members.extend(group.ids().iter().map(|&id| local[id as usize]));
            ends.push(members.len() as u32);
        }
        let mut names = String::new();
        let mut name_ends = Vec::with_capacity(order.len());
        for &id in &order {
            local[id as usize] = UNSEEN;
            names.push_str(&graph.node(id).name);
            name_ends.push(names.len() as u32);
        }
        names.shrink_to_fit();
        members.shrink_to_fit();
        ServerFamily {
            names,
            name_ends,
            members,
            ends,
        }
    }

    /// The name of event `e`.
    fn event(&self, e: u32) -> &str {
        let e = e as usize;
        let start = if e == 0 { 0 } else { self.name_ends[e - 1] };
        &self.names[start as usize..self.name_ends[e] as usize]
    }

    fn rows(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.members[start as usize..end as usize])
    }
}

/// FNV-1a, the reduced graph's event-table hasher: building the graph
/// probes the table with every event of every server (about 1,300
/// short names on the benchmark's deployment), where the default
/// hasher takes several times as long per name.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

const UNSEEN: u32 = u32::MAX;

/// Why [`compose_minimal`] stopped without a family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ComposeError {
    /// The spec is inconsistent, or a server has no data.
    Build(BuildError),
    /// MOCUS was cancelled or outgrew its cap.
    Minimal(MinimalError),
}

impl From<BuildError> for ComposeError {
    fn from(e: BuildError) -> Self {
        ComposeError::Build(e)
    }
}

impl From<MinimalError> for ComposeError {
    fn from(e: MinimalError) -> Self {
        ComposeError::Minimal(e)
    }
}

/// A deployment's minimal family and the graph its ids refer to.
#[derive(Debug)]
pub struct Composed {
    /// The reduced graph: the events a row names, in the full graph's
    /// relative order and with its probabilities, under one OR of rows
    /// per server that can fail within the order cap. With no group, the
    /// top event alone.
    pub graph: FaultGraph,
    /// The deployment's minimal family over `graph`: the full graph's,
    /// group for group and row for row.
    pub family: RgFamily,
    /// Microseconds spent building graphs (the misses' and the reduced).
    pub build_us: u64,
    /// Microseconds spent in MOCUS (the misses' and the reduced graph's).
    pub minimal_us: u64,
}

/// The minimal risk groups of `spec`'s deployment, composed from
/// per-server families (see the module docs): `memo` answers the
/// servers whose records it has seen, and keeps the families of those
/// it had not.
///
/// # Errors
///
/// [`ComposeError::Build`] as [`crate::build_fault_graph`] reports it
/// (inconsistent spec, a server with no data); [`ComposeError::Minimal`]
/// as [`minimal_risk_groups_cancellable`] does.
pub fn compose_minimal<D: DepView + ?Sized>(
    db: &D,
    spec: &BuildSpec,
    config: &MinimalConfig,
    memo: &FamilyMemo,
    token: &CancelToken,
) -> Result<Composed, ComposeError> {
    let k = fail_threshold(spec)?;
    let variant = Variant::of(spec, config);
    let lists: Vec<HostLists> = spec.servers.iter().map(|s| db.host_lists(s)).collect();
    let mut families = memo.lookup(variant, &spec.servers, &lists);
    let (mut build_us, mut minimal_us) = (0, 0);

    // Each missed host once, in spec order.
    let mut missed: Vec<usize> = Vec::new();
    for (i, server) in spec.servers.iter().enumerate() {
        if families[i].is_none() && !missed.iter().any(|&m| spec.servers[m] == *server) {
            missed.push(i);
        }
    }
    if !missed.is_empty() {
        let started = Instant::now();
        let mut b = FaultGraphBuilder::new();
        let roots = missed
            .iter()
            .map(|&i| add_server(&mut b, db, &spec.servers[i], spec, None))
            .collect::<Result<Vec<NodeId>, BuildError>>()?;
        let top = b.gate("missed servers fail", Gate::Or, roots);
        let graph = b.build(top).map_err(BuildError::from)?;
        build_us += elapsed_us(started);

        let started = Instant::now();
        let computed = minimal_child_families(&graph, config, token)?;
        let mut local = vec![UNSEEN; graph.len()];
        let roots = &graph.node(top).children;
        for ((&i, &root), family) in missed.iter().zip(roots).zip(&computed) {
            let family = Arc::new(ServerFamily::extract(&graph, root, family, &mut local));
            let host = &spec.servers[i];
            memo.store(variant, host, lists[i].clone(), Arc::clone(&family));
            for (slot, server) in families.iter_mut().zip(&spec.servers) {
                if slot.is_none() && server == host {
                    *slot = Some(Arc::clone(&family));
                }
            }
        }
        minimal_us += elapsed_us(started);
    }

    let started = Instant::now();
    let families: Vec<&ServerFamily> = families
        .iter()
        .map(|f| f.as_deref().expect("looked up or computed above"))
        .collect();
    let graph = reduced_graph(spec, k, &families);
    build_us += elapsed_us(started);
    let Some(graph) = graph? else {
        // Fewer than k servers can fail within the cap: no group, and
        // the graph is the top event alone.
        let mut b = FaultGraphBuilder::new();
        let top = b.basic(format!("{} fails", spec.name), None);
        return Ok(Composed {
            graph: b.build(top).map_err(BuildError::from)?,
            family: RgFamily::new(),
            build_us,
            minimal_us,
        });
    };

    let started = Instant::now();
    let family = minimal_risk_groups_cancellable(&graph, config, token)?;
    minimal_us += elapsed_us(started);
    Ok(Composed {
        graph,
        family,
        build_us,
        minimal_us,
    })
}

/// The reduced graph over `families` (one per server of `spec`, in spec
/// order): the events some row names, in the full graph's relative
/// order; one OR per server that has rows, over its rows in order, a
/// row of one event being that event and a longer one an AND; the
/// k-of-n gate on top. `None` if fewer than `k` servers have rows.
fn reduced_graph(
    spec: &BuildSpec,
    k: usize,
    families: &[&ServerFamily],
) -> Result<Option<FaultGraph>, BuildError> {
    let mut events: HashMap<&str, NodeId, BuildHasherDefault<Fnv>> = HashMap::default();
    for family in families {
        for &e in &family.members {
            events.insert(family.event(e), UNCREATED);
        }
    }
    // An event's id in the full graph comes from the first server that
    // names it, at its place in that server's walk: create each used
    // event there, unused ones being skipped without changing the
    // order of the rest.
    let prob = |name: &str| spec.prob_model.as_ref().map(|m| m.prob_for(name));
    let mut b = FaultGraphBuilder::new();
    let mut left = events.len();
    for family in families {
        if left == 0 {
            break;
        }
        for e in 0..family.name_ends.len() as u32 {
            let name = family.event(e);
            if let Some(id) = events.get_mut(name).filter(|id| **id == UNCREATED) {
                *id = b.basic(name, prob(name));
                left -= 1;
            }
        }
    }
    let mut servers: Vec<NodeId> = Vec::with_capacity(families.len());
    for (server, family) in spec.servers.iter().zip(families) {
        if family.ends.is_empty() {
            continue;
        }
        let rows = family
            .rows()
            .map(|row| match row {
                [e] => events[family.event(*e)],
                _ => {
                    let members = row.iter().map(|&e| events[family.event(e)]).collect();
                    b.gate(String::new(), Gate::And, members)
                }
            })
            .collect();
        servers.push(b.gate(format!("{server} fails"), Gate::Or, rows));
    }
    if servers.len() < k {
        return Ok(None);
    }
    let gate = threshold_gate(k, servers.len());
    let top = b.gate(format!("{} fails", spec.name), gate, servers);
    Ok(Some(b.build(top)?))
}

/// An event of the reduced graph's table not yet created.
const UNCREATED: NodeId = NodeId::MAX;

fn elapsed_us(started: Instant) -> u64 {
    started.elapsed().as_micros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_fault_graph;
    use crate::report::DeploymentAudit;
    use indaas_deps::{parse_records, DepDb, DependencyRecord};

    fn db(text: &str) -> DepDb {
        DepDb::from_records(parse_records(text).unwrap())
    }

    /// Size-ranked report of the composed and of the full-graph path,
    /// as `Debug` text (which spells every float exactly).
    fn both(db: &DepDb, spec: &BuildSpec, order: Option<usize>, memo: &FamilyMemo) -> [String; 2] {
        let config = MinimalConfig {
            max_order: order,
            ..MinimalConfig::default()
        };
        let token = CancelToken::default();
        let composed = compose_minimal(db, spec, &config, memo, &token).unwrap();
        let full = build_fault_graph(db, spec).unwrap();
        let family = minimal_risk_groups_cancellable(&full, &config, &token).unwrap();
        let n = spec.servers.len();
        [
            DeploymentAudit::size_based("d", &composed.family, &composed.graph, n, None),
            DeploymentAudit::size_based("d", &family, &full, n, None),
        ]
        .map(|audit| format!("{audit:?}"))
    }

    const RECORDS: &str = r#"
        <src="S1" dst="Internet" route="tor1,core1"/>
        <src="S1" dst="Internet" route="tor1,core2"/>
        <src="S2" dst="Internet" route="tor2,core2"/>
        <src="S2" dst="Internet" route="tor2,core1"/>
        <src="S3" dst="Internet" route="tor1,core3"/>
        <hw="S1" type="Disk" dep="S1-disk"/>
        <hw="S2" type="Disk" dep="S2-disk"/>
        <pgm="App" hw="S2" dep="libc6,libssl"/>
        <pgm="App" hw="S3" dep="libssl,libc6"/>
    "#;

    #[test]
    fn composed_report_equals_the_full_graphs_and_hits_reuse() {
        let mut db = db(RECORDS);
        let memo = FamilyMemo::default();
        for (needed_alive, servers) in [(1, ["S1", "S2", "S3"]), (2, ["S3", "S1", "S2"])] {
            let spec = BuildSpec {
                needed_alive,
                ..BuildSpec::all("d", servers.map(String::from).to_vec())
            };
            for order in [None, Some(1), Some(2)] {
                let [composed, full] = both(&db, &spec, order, &memo);
                assert_eq!(
                    composed, full,
                    "needed_alive {needed_alive}, order {order:?}"
                );
            }
        }
        // Three servers under three orders, each audited twice.
        assert_eq!(memo.stats(), (9, 9, 9));

        // A write under S2 renews its lists: one miss, two hits.
        let spec = BuildSpec::all("d", ["S1", "S2", "S3"].map(String::from).to_vec());
        db.insert(DependencyRecord::Hardware(indaas_deps::HardwareDep {
            hw: "S2".into(),
            hw_type: "Nic".into(),
            dep: "tor1".into(),
        }));
        let [composed, full] = both(&db, &spec, None, &memo);
        assert_eq!(composed, full);
        assert_eq!(memo.stats(), (11, 10, 9));
    }

    #[test]
    fn a_server_that_cannot_fail_within_the_cap_leaves_the_gate() {
        // S1 and S2 have two disjoint routes each: no single event fails
        // either, so at order 1 both families are empty.
        let db = db(r#"
            <src="S1" dst="Internet" route="a1"/>
            <src="S1" dst="Internet" route="b1"/>
            <src="S2" dst="Internet" route="a2"/>
            <src="S2" dst="Internet" route="b2"/>
            <hw="S3" type="Disk" dep="shared"/>
            <hw="S4" type="Disk" dep="shared"/>
        "#);
        let memo = FamilyMemo::default();
        for (needed_alive, expect_groups) in [(4, 1), (3, 1), (2, 0), (1, 0)] {
            let spec = BuildSpec {
                needed_alive,
                ..BuildSpec::all("d", ["S1", "S3", "S2", "S4"].map(String::from).to_vec())
            };
            let [composed, full] = both(&db, &spec, Some(1), &memo);
            assert_eq!(composed, full, "needed_alive {needed_alive}");
            let groups = composed.matches("RankedRg {").count();
            assert_eq!(groups, expect_groups, "needed_alive {needed_alive}");
        }
    }

    #[test]
    fn errors_match_the_full_graphs() {
        let db = db(RECORDS);
        let memo = FamilyMemo::default();
        let config = MinimalConfig::default();
        let token = CancelToken::default();
        for spec in [
            BuildSpec::all("d", vec![]),
            BuildSpec {
                needed_alive: 3,
                ..BuildSpec::all("d", vec!["S1".into(), "S2".into()])
            },
            BuildSpec::all("d", vec!["S1".into(), "S404".into()]),
        ] {
            let full = build_fault_graph(&db, &spec).unwrap_err();
            let composed = compose_minimal(&db, &spec, &config, &memo, &token).unwrap_err();
            assert_eq!(composed, ComposeError::Build(full));
        }
    }

    #[test]
    fn a_full_memo_evicts_the_least_recently_used() {
        let memo = FamilyMemo::default();
        let variant = Variant {
            categories: [true; 3],
            max_order: None,
        };
        let family = || {
            Arc::new(ServerFamily {
                names: String::new(),
                name_ends: Vec::new(),
                members: Vec::new(),
                ends: Vec::new(),
            })
        };
        for i in 0..MEMO_CAPACITY {
            memo.store(variant, &format!("H{i}"), HostLists::default(), family());
        }
        // A hit on H0 makes H1 the oldest.
        let h0 = [String::from("H0")];
        assert!(memo.lookup(variant, &h0, &[HostLists::default()])[0].is_some());
        memo.store(variant, "fresh", HostLists::default(), family());
        assert_eq!(memo.stats().2, MEMO_CAPACITY);
        let held = |host: &str| {
            memo.lookup(variant, &[host.to_string()], &[HostLists::default()])[0].is_some()
        };
        assert!(held("H0") && held("fresh") && held("H2"));
        assert!(!held("H1"));
    }
}

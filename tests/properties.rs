//! Cross-crate property-based tests on the core auditing invariants.

use indaas::deps::{
    shard_index, DepDb, DepView, DependencyRecord, HardwareDep, NetworkDep, ShardedDepDb,
    SoftwareDep,
};
use indaas::graph::detail::{component_sets_to_graph, ComponentSet};
use indaas::graph::{FaultGraph, FaultGraphBuilder, Gate, IncrementalEval, NodeId};
use indaas::sia::{
    failure_sampling, minimal_risk_groups, Bdd, MinimalConfig, RgFamily, RiskGroup, SamplingConfig,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: 2–4 component sets over a small shared universe, every set
/// non-empty.
fn component_sets() -> impl Strategy<Value = Vec<ComponentSet>> {
    proptest::collection::vec(proptest::collection::btree_set(0u8..12, 1..6), 2..5usize).prop_map(
        |sets| {
            sets.into_iter()
                .enumerate()
                .map(|(i, comps)| {
                    ComponentSet::new(format!("E{i}"), comps.into_iter().map(|c| format!("c{c}")))
                })
                .collect()
        },
    )
}

/// Strategy: the gates of a random monotone DAG, one gene list per gate —
/// the first gene picks AND / OR / k-of-n (and k), the rest pick children.
fn dag_genes() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..1000, 2..6), 2..9usize)
}

/// Decodes [`dag_genes`] over `basics` basic events into `b` and returns
/// every node, basics first. A gate draws its children from *every*
/// earlier node, so gates end up shared by several parents (or by none:
/// nodes outside the top's cone exist too).
fn monotone_dag_nodes(b: &mut FaultGraphBuilder, basics: usize, genes: &[Vec<u32>]) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = (0..basics)
        .map(|i| b.basic(format!("b{i}"), None))
        .collect();
    for (g, gene) in genes.iter().enumerate() {
        let children: std::collections::BTreeSet<NodeId> = gene[1..]
            .iter()
            .map(|&pick| nodes[pick as usize % nodes.len()])
            .collect();
        let gate = match gene[0] % 3 {
            0 => Gate::And,
            1 => Gate::Or,
            _ => Gate::KofN(1 + gene[0] / 3 % children.len() as u32),
        };
        nodes.push(b.gate(format!("g{g}"), gate, children.into_iter().collect()));
    }
    nodes
}

/// [`monotone_dag_nodes`] with the last gate as the top event.
fn monotone_dag(basics: usize, genes: &[Vec<u32>]) -> FaultGraph {
    let mut b = FaultGraphBuilder::new();
    let nodes = monotone_dag_nodes(&mut b, basics, genes);
    b.build(*nodes.last().unwrap()).unwrap()
}

/// A family as a set of groups, for comparisons that ignore row order.
fn group_set(family: &RgFamily) -> BTreeSet<RiskGroup> {
    family.groups().collect()
}

/// The minimal cut sets of a graph with few basic events, by trying every
/// assignment: a failing assignment is minimal iff repairing any one of
/// its members repairs the top (the graph is monotone).
fn brute_force_minimal(graph: &FaultGraph) -> BTreeSet<RiskGroup> {
    let basic = graph.basic_ids();
    let fails = |mask: u32| {
        let mut assignment = vec![false; graph.len()];
        for (bit, &id) in basic.iter().enumerate() {
            assignment[id as usize] = mask >> bit & 1 == 1;
        }
        graph.evaluate(&assignment)
    };
    (0u32..1 << basic.len())
        .filter(|&mask| {
            fails(mask)
                && (0..basic.len()).all(|bit| mask >> bit & 1 == 0 || !fails(mask & !(1 << bit)))
        })
        .map(|mask| {
            let members = (0..basic.len()).filter(|bit| mask >> bit & 1 == 1);
            RiskGroup::new(members.map(|bit| basic[bit]).collect())
        })
        .collect()
}

/// Decodes a small integer into one of a few dozen distinct dependency
/// records spanning all three kinds — small enough a random pair of
/// batches overlaps often, which is where the epoch edge cases live.
fn decode_record(n: u32) -> DependencyRecord {
    let host = format!("S{}", (n / 3) % 4);
    let dep = (n / 12) % 5;
    match n % 3 {
        0 => DependencyRecord::Network(NetworkDep {
            src: host,
            dst: "Internet".to_string(),
            route: vec![format!("dev{dep}")],
        }),
        1 => DependencyRecord::Hardware(HardwareDep {
            hw: host,
            hw_type: "CPU".to_string(),
            dep: format!("chip{dep}"),
        }),
        _ => DependencyRecord::Software(SoftwareDep {
            pgm: "Svc".to_string(),
            hw: host,
            deps: vec![format!("lib{dep}")],
        }),
    }
}

/// Strategy: a batch of up to a dozen (possibly duplicate) records.
fn record_batch() -> impl Strategy<Value = Vec<DependencyRecord>> {
    proptest::collection::vec(0u32..60, 1..12usize)
        .prop_map(|ns| ns.into_iter().map(decode_record).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Retracting records that were never ingested is a complete no-op
    /// on 1 and N shards: no epoch bump anywhere, no record count change,
    /// everything ignored.
    #[test]
    fn retract_of_absent_records_never_bumps_epoch(
        ingest in record_batch(),
        retract in record_batch(),
        shards in 2usize..12,
    ) {
        let absent: Vec<DependencyRecord> = retract
            .into_iter()
            .filter(|r| !ingest.contains(r))
            .collect();
        for n in [1, shards] {
            let db = ShardedDepDb::new(n);
            db.ingest(ingest.clone());
            let (epochs, epoch, len) = (db.epochs(), db.epoch(), db.len());
            let report = db.retract(&absent);
            prop_assert_eq!(report.changed, 0);
            prop_assert_eq!(report.ignored, absent.len());
            prop_assert_eq!(db.epochs(), epochs);
            prop_assert_eq!(db.epoch(), epoch);
            prop_assert_eq!(db.len(), len);
        }
    }

    /// On 1 and N shards, a shard's epoch advances exactly when a batch
    /// changes that shard's records, and the global epoch by exactly one
    /// per effective batch.
    #[test]
    fn epoch_bumps_iff_batch_changes_something(
        first in record_batch(),
        second in record_batch(),
        shards in 2usize..12,
    ) {
        for n in [1, shards] {
            let db = ShardedDepDb::new(n);
            let r1 = db.ingest(first.clone());
            prop_assert!(r1.changed > 0, "fresh batch into an empty db always changes it");
            prop_assert_eq!(db.epoch(), 1);
            let before = db.epochs();
            let lens: Vec<usize> = (0..n).map(|s| db.shard_len(s)).collect();
            let r2 = db.ingest(second.clone());
            prop_assert_eq!(db.epoch(), 1 + u64::from(r2.changed > 0));
            prop_assert_eq!(db.len(), lens.iter().sum::<usize>() + r2.changed);
            for (s, &len) in lens.iter().enumerate() {
                let moved = db.shard_len(s) != len;
                prop_assert_eq!(db.epochs().get(s), before.get(s) + u64::from(moved));
            }
            // Re-ingesting everything again is pure duplicates: no bump.
            let (epochs, epoch) = (db.epochs(), db.epoch());
            let dup = db.ingest(first.iter().chain(&second).cloned());
            prop_assert_eq!(dup.changed, 0);
            prop_assert_eq!(db.epochs(), epochs);
            prop_assert_eq!(db.epoch(), epoch);
        }
    }

    /// On 1 and N shards, ingest then full retract round-trips to an
    /// empty store with two global bumps and two on each shard the batch
    /// routes to (none elsewhere), and a second retract of the same batch
    /// is entirely ignored.
    #[test]
    fn full_retract_empties_with_one_bump(batch in record_batch(), shards in 2usize..12) {
        for n in [1, shards] {
            let db = ShardedDepDb::new(n);
            db.ingest(batch.clone());
            prop_assert_eq!(db.epoch(), 1);
            let r = db.retract(&batch);
            prop_assert!(r.changed > 0);
            prop_assert_eq!(db.epoch(), 2);
            prop_assert!(db.is_empty());
            for s in 0..n {
                let hit = batch.iter().any(|r| shard_index(r.host(), n) == s);
                prop_assert_eq!(db.epochs().get(s), 2 * u64::from(hit));
            }
            let again = db.retract(&batch);
            prop_assert_eq!(again.changed, 0);
            prop_assert_eq!(again.ignored, batch.len());
            prop_assert_eq!(db.epoch(), 2);
        }
    }

    /// Shard routing is deterministic and host-sticky: every record of a
    /// host lands in `shard_index(host, n)`, so lookups through the
    /// sharded store and a monolithic database over the same batch are
    /// indistinguishable, and a batch touches no shard outside its
    /// hosts' shards.
    #[test]
    fn same_host_always_routes_to_the_same_shard(
        batch in record_batch(),
        shards in 1usize..12,
    ) {
        let sharded = ShardedDepDb::new(shards);
        let report = sharded.ingest(batch.clone());
        let mono = DepDb::from_records(batch.clone());
        prop_assert_eq!(sharded.len(), mono.len());
        let host_shards: std::collections::BTreeSet<usize> = batch
            .iter()
            .map(|r| shard_index(r.host(), shards))
            .collect();
        for &s in &report.touched {
            prop_assert!(host_shards.contains(&s), "shard {s} gained records without a host routed to it");
        }
        let snap = sharded.snapshot();
        for host in mono.hosts() {
            prop_assert_eq!(shard_index(&host, shards), snap.shard_of(&host));
            prop_assert_eq!(snap.network_deps(&host), mono.network_deps(&host));
            prop_assert_eq!(snap.hardware_deps(&host), mono.hardware_deps(&host));
            prop_assert_eq!(snap.software_deps(&host), mono.software_deps(&host));
        }
        // Epochs moved only on touched shards.
        let epochs = sharded.epochs();
        for s in 0..shards {
            let expect = u64::from(report.touched.contains(&s));
            prop_assert_eq!(epochs.get(s), expect);
        }
    }

    /// A duplicate re-ingest plus a retract of never-ingested records is
    /// a complete no-op shard-wise: every shard epoch stays exactly
    /// where it started and no snapshot is refreshed.
    #[test]
    fn noop_ingest_retract_leaves_every_shard_epoch_in_place(
        batch in record_batch(),
        absent in record_batch(),
        shards in 1usize..12,
    ) {
        let sharded = ShardedDepDb::new(shards);
        sharded.ingest(batch.clone());
        let epochs_before = sharded.epochs();
        let global_before = sharded.epoch();
        let dup = sharded.ingest(batch.clone());
        prop_assert_eq!(dup.changed, 0);
        prop_assert!(dup.touched.is_empty());
        let absent: Vec<DependencyRecord> = absent
            .into_iter()
            .filter(|r| !batch.contains(r))
            .collect();
        let gone = sharded.retract(&absent);
        prop_assert_eq!(gone.changed, 0);
        prop_assert!(gone.touched.is_empty());
        prop_assert_eq!(sharded.epochs(), epochs_before);
        prop_assert_eq!(sharded.epoch(), global_before);
    }

    /// Ingest-then-retract round-trips every shard back to its starting
    /// record set: touched shards bump exactly twice, shards outside the
    /// batch's hosts never move at all.
    #[test]
    fn ingest_retract_roundtrip_restores_every_shard(
        base in record_batch(),
        extra in record_batch(),
        shards in 1usize..12,
    ) {
        let sharded = ShardedDepDb::new(shards);
        sharded.ingest(base.clone());
        let epochs_start = sharded.epochs();
        let len_start = sharded.len();
        let fresh: Vec<DependencyRecord> = extra
            .into_iter()
            .filter(|r| !base.contains(r))
            .collect();
        let added = sharded.ingest(fresh.clone());
        let removed = sharded.retract(&fresh);
        prop_assert_eq!(added.changed, removed.changed);
        prop_assert_eq!(sharded.len(), len_start);
        let epochs_end = sharded.epochs();
        for s in 0..shards {
            if added.touched.contains(&s) {
                // Round-tripped shard bumps once per direction.
                prop_assert_eq!(epochs_end.get(s), epochs_start.get(s) + 2);
            } else {
                // A shard outside the batch must not move.
                prop_assert_eq!(epochs_end.get(s), epochs_start.get(s));
            }
        }
    }

    /// Cross-shard audits observe a consistent epoch vector: a snapshot
    /// pins the live vector at the instant it is taken, its host pins
    /// agree with that vector for every host, and later ingests never
    /// leak into it.
    #[test]
    fn snapshots_pin_a_consistent_epoch_vector(
        first in record_batch(),
        second in record_batch(),
        shards in 1usize..12,
    ) {
        let sharded = ShardedDepDb::new(shards);
        sharded.ingest(first);
        let snap = sharded.snapshot();
        prop_assert_eq!(snap.epochs(), &sharded.epochs());
        let hosts: Vec<String> = DepView::hosts(&snap).into_iter().collect();
        for (shard, epoch) in snap.pins_for_hosts(hosts.iter().map(String::as_str)) {
            prop_assert_eq!(epoch, snap.epochs().get(shard as usize));
        }
        let pinned = snap.epochs().clone();
        let pinned_len = snap.record_count();
        sharded.ingest(second);
        prop_assert_eq!(snap.epochs(), &pinned);
        prop_assert_eq!(snap.record_count(), pinned_len);
    }

    /// K threads ingesting disjoint-shard batches concurrently yield
    /// exactly the records and per-shard epochs of a serial replay:
    /// per-shard locking admits no interleaving that a serial order
    /// could not produce, and the global epoch counts effective batches
    /// whatever the arrival order.
    #[test]
    fn concurrent_disjoint_ingest_matches_serial_replay(
        plans in proptest::collection::vec(
            proptest::collection::vec(
                // Each small integer decodes to (host index, dep id).
                proptest::collection::vec(0u32..18, 1..6),
                1..5,
            ),
            2..5,
        ),
    ) {
        const SHARDS: usize = 8;
        // One disjoint host pool per writer thread: thread t only ever
        // touches shard t's hosts.
        let pools: Vec<Vec<String>> = (0..plans.len())
            .map(|t| {
                let mut pool = Vec::new();
                for i in 0..10_000 {
                    let host = format!("H{i}");
                    if shard_index(&host, SHARDS) == t {
                        pool.push(host);
                        if pool.len() == 3 {
                            break;
                        }
                    }
                }
                pool
            })
            .collect();
        let materialize = |t: usize, batch: &[u32]| -> Vec<DependencyRecord> {
            batch
                .iter()
                .map(|&n| {
                    DependencyRecord::Hardware(HardwareDep {
                        hw: pools[t][n as usize % 3].clone(),
                        hw_type: "CPU".to_string(),
                        dep: format!("chip{}", n / 3),
                    })
                })
                .collect()
        };

        let concurrent = ShardedDepDb::new(SHARDS);
        let barrier = std::sync::Barrier::new(plans.len());
        std::thread::scope(|scope| {
            for (t, batches) in plans.iter().enumerate() {
                let (concurrent, barrier, materialize) = (&concurrent, &barrier, &materialize);
                scope.spawn(move || {
                    barrier.wait(); // maximize overlap
                    for batch in batches {
                        concurrent.ingest(materialize(t, batch));
                    }
                });
            }
        });

        let serial = ShardedDepDb::new(SHARDS);
        for (t, batches) in plans.iter().enumerate() {
            for batch in batches {
                serial.ingest(materialize(t, batch));
            }
        }

        prop_assert_eq!(concurrent.epochs(), serial.epochs());
        prop_assert_eq!(concurrent.epoch(), serial.epoch());
        prop_assert_eq!(concurrent.len(), serial.len());
        let (csnap, ssnap) = (concurrent.snapshot(), serial.snapshot());
        prop_assert_eq!(DepView::hosts(&csnap), DepView::hosts(&ssnap));
        for host in DepView::hosts(&ssnap) {
            prop_assert_eq!(csnap.hardware_deps(&host), ssnap.hardware_deps(&host));
            prop_assert_eq!(
                csnap.pins_for_hosts([host.as_str()]),
                ssnap.pins_for_hosts([host.as_str()])
            );
        }
    }

    /// Every minimal RG fails the top event, and removing any member
    /// un-fails it (definition of minimality, §4.1.2).
    #[test]
    fn minimal_rgs_are_cut_sets_and_minimal(sets in component_sets()) {
        let graph = component_sets_to_graph(&sets).unwrap();
        let rgs = minimal_risk_groups(&graph, &MinimalConfig::default());
        prop_assert!(!rgs.is_empty(), "a finite graph always has cut sets");
        for g in rgs.groups() {
            let mut assignment = vec![false; graph.len()];
            for &id in g.ids() {
                assignment[id as usize] = true;
            }
            prop_assert!(graph.evaluate(&assignment));
            for &drop in g.ids() {
                let mut a = assignment.clone();
                a[drop as usize] = false;
                prop_assert!(!graph.evaluate(&a));
            }
        }
    }

    /// The minimal RG family matches brute-force enumeration over all
    /// basic-event assignments.
    #[test]
    fn minimal_rgs_match_bruteforce(sets in component_sets()) {
        let graph = component_sets_to_graph(&sets).unwrap();
        let basic = graph.basic_ids();
        prop_assume!(basic.len() <= 12);
        let mut brute = RgFamily::new();
        for mask in 1u32..(1 << basic.len()) {
            let mut assignment = vec![false; graph.len()];
            for (bit, &id) in basic.iter().enumerate() {
                assignment[id as usize] = mask >> bit & 1 == 1;
            }
            if graph.evaluate(&assignment) {
                brute.insert(RiskGroup::new(
                    basic
                        .iter()
                        .enumerate()
                        .filter(|&(bit, _)| mask >> bit & 1 == 1)
                        .map(|(_, &id)| id)
                        .collect(),
                ));
            }
        }
        let algo = minimal_risk_groups(&graph, &MinimalConfig::default());
        prop_assert_eq!(algo.to_named(&graph), brute.to_named(&graph));
    }

    /// Failure sampling only ever reports genuine minimal RGs, and every
    /// one it reports is in the exact family.
    #[test]
    fn sampling_is_sound(sets in component_sets(), seed in 0u64..1000) {
        let graph = component_sets_to_graph(&sets).unwrap();
        let exact = minimal_risk_groups(&graph, &MinimalConfig::default());
        let sampled = failure_sampling(&graph, &SamplingConfig {
            rounds: 300,
            fail_prob: 0.5,
            seed,
            threads: 1,
            weighted: false,
        });
        let exact_named: std::collections::HashSet<_> =
            exact.to_named(&graph).into_iter().collect();
        for g in sampled.to_named(&graph) {
            prop_assert!(exact_named.contains(&g), "sampled {g:?} not minimal");
        }
    }

    /// The incremental evaluator agrees with bottom-up evaluation after
    /// every step of a random fail/repair sequence on a random DAG, and
    /// again after a reset.
    #[test]
    fn incremental_eval_tracks_evaluate(
        basics in 3usize..8,
        genes in dag_genes(),
        steps in proptest::collection::vec(0u32..1000, 1..40),
    ) {
        let graph = monotone_dag(basics, &genes);
        let mut inc = IncrementalEval::new(&graph);
        for round in 0..2 {
            let mut assignment = vec![false; graph.len()];
            for &step in &steps {
                let id = (step as usize / 2 % basics) as NodeId;
                let fail = step % 2 == 0;
                assignment[id as usize] = fail;
                if fail { inc.fail(id) } else { inc.repair(id) }
                prop_assert!(
                    inc.top_failed() == graph.evaluate(&assignment),
                    "round {round} after {assignment:?}"
                );
            }
            inc.reset();
            prop_assert!(!inc.top_failed());
        }
    }

    /// On random DAGs with shared gates, every sampled group fails the
    /// top event, stops doing so when any one member recovers, and is in
    /// the exact family. Few rounds, so that a group left unshrunk is
    /// reported as it is and not subsumed away by a later round's.
    #[test]
    fn sampling_is_sound_on_random_dags(
        basics in 3usize..8,
        genes in dag_genes(),
        seed in 0u64..1000,
        rounds in 1u64..8,
    ) {
        let graph = monotone_dag(basics, &genes);
        let exact = minimal_risk_groups(&graph, &MinimalConfig::default());
        let sampled = failure_sampling(&graph, &SamplingConfig {
            rounds,
            seed,
            ..SamplingConfig::default()
        });
        for g in sampled.groups() {
            let mut assignment = vec![false; graph.len()];
            for &id in g.ids() {
                assignment[id as usize] = true;
            }
            prop_assert!(graph.evaluate(&assignment), "{g:?} does not fail the top");
            for &id in g.ids() {
                assignment[id as usize] = false;
                prop_assert!(!graph.evaluate(&assignment), "{g:?} fails without {id}");
                assignment[id as usize] = true;
            }
            prop_assert!(exact.contains(&g), "{g:?} not in the exact family");
        }
    }

    /// The exact engine and the BDD engine compute the same minimal cut
    /// sets on random DAGs with shared gates.
    #[test]
    fn minimal_rgs_equal_bdd_cut_sets(basics in 3usize..8, genes in dag_genes()) {
        let graph = monotone_dag(basics, &genes);
        let mocus = minimal_risk_groups(&graph, &MinimalConfig::default());
        let bdd = Bdd::compile(&graph, 1 << 16).minimal_cut_sets();
        prop_assert_eq!(group_set(&mocus), group_set(&bdd));
        prop_assert_eq!(group_set(&mocus), brute_force_minimal(&graph));
    }

    /// `max_order = Some(k)` yields exactly the groups of the untruncated
    /// family that have at most `k` members.
    #[test]
    fn max_order_is_a_filter(basics in 3usize..8, genes in dag_genes(), order in 0usize..5) {
        let graph = monotone_dag(basics, &genes);
        let full = minimal_risk_groups(&graph, &MinimalConfig::default());
        let truncated = minimal_risk_groups(&graph, &MinimalConfig::with_max_order(order));
        let small: BTreeSet<RiskGroup> = full.groups().filter(|g| g.len() <= order).collect();
        prop_assert_eq!(group_set(&truncated), small);
    }

    /// A k-of-n gate over children that share sub-gates and basic events
    /// has the cut sets brute force finds, for every 1 ≤ k ≤ n ≤ 6.
    #[test]
    fn kofn_over_shared_children_matches_bruteforce(basics in 4usize..7, genes in dag_genes()) {
        for n in 1..=6 {
            for k in 1..=n {
                let mut b = FaultGraphBuilder::new();
                let nodes = monotone_dag_nodes(&mut b, basics, &genes);
                let children = nodes[nodes.len() - n..].to_vec();
                let top = b.gate("top", Gate::KofN(k as u32), children);
                let graph = b.build(top).unwrap();
                let mocus = minimal_risk_groups(&graph, &MinimalConfig::default());
                prop_assert!(group_set(&mocus) == brute_force_minimal(&graph), "{k}-of-{n}");
            }
        }
    }

    /// Subsumption minimization: the family is the antichain a reference
    /// built on `RiskGroup::is_subset_of` reaches over the same insert
    /// sequence — same verdict per insert, same groups in the same order
    /// whenever built — and no member is a subset of another. Ids are
    /// spread over four words of a row, and enough groups arrive for the
    /// family to start keeping its posting lists. The empty group, last,
    /// evicts everything and then rejects everything.
    #[test]
    fn family_is_antichain(groups in proptest::collection::vec(
        proptest::collection::btree_set(0u32..24, 1..5), 1..120)) {
        let groups: Vec<RiskGroup> = groups
            .into_iter()
            .map(|g| RiskGroup::new(g.into_iter().map(|id| id * 11).collect()))
            .collect();
        let mut fam = RgFamily::new();
        let mut reference: Vec<RiskGroup> = Vec::new();
        for g in &groups {
            let kept = !reference.iter().any(|held| held.is_subset_of(g));
            if kept {
                reference.retain(|held| !g.is_subset_of(held));
                reference.push(g.clone());
            }
            prop_assert!(fam.insert(g.clone()) == kept, "inserting {g:?}");
            prop_assert_eq!(group_set(&fam), reference.iter().cloned().collect::<BTreeSet<_>>());
        }
        for g in &groups {
            prop_assert!(fam.contains(g) == reference.contains(g), "{g:?}");
        }
        let again: RgFamily = groups.iter().cloned().collect();
        prop_assert!(fam.groups().eq(again.groups()), "row order depends on more than the inserts");
        let items: Vec<RiskGroup> = fam.groups().collect();
        for (i, a) in items.iter().enumerate() {
            for (j, b) in items.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.is_subset_of(b), "{a:?} ⊆ {b:?}");
                }
            }
        }
        let nothing = RiskGroup::new(Vec::new());
        prop_assert!(fam.insert(nothing.clone()));
        prop_assert!(!fam.insert(groups[0].clone()));
        prop_assert!(fam.groups().eq([nothing]));
    }

    /// k-of-n gates: the top event fails exactly when at least k replica
    /// subtrees fail.
    #[test]
    fn kofn_threshold_semantics(n in 2usize..7, k in 1usize..7, mask in 0u32..128) {
        prop_assume!(k <= n);
        let mut b = FaultGraphBuilder::new();
        let basics: Vec<_> = (0..n).map(|i| b.basic(format!("r{i}"), None)).collect();
        let top = b.gate("svc", Gate::KofN(k as u32), basics.clone());
        let graph = b.build(top).unwrap();
        let mut assignment = vec![false; graph.len()];
        let mut failed = 0;
        for (i, &id) in basics.iter().enumerate() {
            if mask >> i & 1 == 1 {
                assignment[id as usize] = true;
                failed += 1;
            }
        }
        prop_assert_eq!(graph.evaluate(&assignment), failed >= k);
    }
}

/// Protocol-v2 binary frame decoding: whatever bytes a peer feeds the
/// reader — truncated frames, lying or oversized length prefixes, raw
/// garbage — it must return an error or a clean classification, never
/// panic, and never allocate in proportion to an *announced* length the
/// peer did not actually send.
mod frame_props {
    use indaas::service::proto::{read_frame, write_frame, FrameRead};
    use proptest::prelude::*;

    /// The chunk size `read_frame` grows its buffer by; allocation may
    /// overshoot the received bytes by at most this much.
    const CHUNK: usize = 64 * 1024;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Encode/decode identity for any payload within the limit.
        #[test]
        fn roundtrip_is_identity(payload in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            prop_assert_eq!(wire.len(), payload.len() + 4);
            let mut cursor = std::io::Cursor::new(wire);
            let mut buf = Vec::new();
            prop_assert!(matches!(
                read_frame(&mut cursor, &mut buf, 4096).unwrap(),
                FrameRead::Frame
            ));
            prop_assert_eq!(buf, payload);
            prop_assert!(matches!(
                read_frame(&mut cursor, &mut buf, 4096).unwrap(),
                FrameRead::Eof
            ));
        }

        /// A frame cut off anywhere — inside the length prefix or inside
        /// the announced payload — is an UnexpectedEof error, never a
        /// panic, never a bogus frame.
        #[test]
        fn truncated_frames_error(
            payload in proptest::collection::vec(any::<u8>(), 1..512),
            cut_seed in any::<usize>(),
        ) {
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            let cut = 1 + cut_seed % (wire.len() - 1); // 1..wire.len()
            wire.truncate(cut);
            let mut cursor = std::io::Cursor::new(wire);
            let mut buf = Vec::new();
            let err = read_frame(&mut cursor, &mut buf, 4096).unwrap_err();
            prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
            prop_assert!(buf.len() <= payload.len());
        }

        /// A length prefix past the limit is classified Oversized before
        /// a single payload byte is read or a single byte allocated.
        #[test]
        fn oversized_prefixes_never_allocate(
            over in 1u32..1_000_000,
            tail in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            const LIMIT: u64 = 4096;
            let announced = LIMIT as u32 + over;
            let mut wire = announced.to_be_bytes().to_vec();
            wire.extend_from_slice(&tail);
            let mut cursor = std::io::Cursor::new(wire);
            let mut buf = Vec::new();
            prop_assert!(matches!(
                read_frame(&mut cursor, &mut buf, LIMIT).unwrap(),
                FrameRead::Oversized
            ));
            prop_assert_eq!(buf.len(), 0);
            prop_assert!(buf.capacity() == 0, "rejected before any allocation");
            prop_assert!(cursor.position() == 4, "no payload byte consumed");
        }

        /// A lying in-limit prefix (announcing more than the peer ever
        /// sends) errors out with the buffer grown by at most what
        /// actually arrived plus one chunk — never the announced length.
        #[test]
        fn lying_prefixes_never_overallocate(
            announced in 1u32..16_000_000,
            sent in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            prop_assume!((sent.len() as u32) < announced);
            let mut wire = announced.to_be_bytes().to_vec();
            wire.extend_from_slice(&sent);
            let mut cursor = std::io::Cursor::new(wire);
            let mut buf = Vec::new();
            let err = read_frame(&mut cursor, &mut buf, 16 * 1024 * 1024).unwrap_err();
            prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
            prop_assert!(
                buf.len() <= sent.len() + CHUNK,
                "buffer grew to {} for {} received bytes",
                buf.len(),
                sent.len()
            );
        }

        /// Raw garbage never panics the reader; anything it accepts as a
        /// frame really was length-prefix-consistent with the input.
        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
            let mut cursor = std::io::Cursor::new(bytes.clone());
            let mut buf = Vec::new();
            match read_frame(&mut cursor, &mut buf, 1024) {
                Ok(FrameRead::Frame) => {
                    prop_assert!(buf.len() + 4 <= bytes.len());
                    prop_assert_eq!(&buf[..], &bytes[4..4 + buf.len()]);
                }
                Ok(FrameRead::Eof) => prop_assert!(bytes.is_empty()),
                Ok(FrameRead::Oversized) | Err(_) => {}
            }
        }
    }
}

/// The readiness loop's incremental codecs against the blocking readers
/// they replaced: however the kernel splits a byte stream across reads,
/// the incremental extractors must produce exactly the frames/lines the
/// blocking `read_frame`/`read_bounded_line` loops did — and a write
/// queue facing a socket that takes arbitrarily few bytes per call must
/// put exactly the pushed bytes on the wire, in order.
mod codec_props {
    use indaas::service::codec::{
        frame_bytes, line_bytes, try_extract_frame, try_extract_line, WriteProgress, WriteQueue,
    };
    use indaas::service::proto::{read_bounded_line, read_frame, FrameRead, LineRead};
    use proptest::prelude::*;

    const LIMIT: u64 = 4096;

    /// Splits `wire` into chunks whose sizes cycle through `cuts`
    /// (0 = deliver one byte, mimicking the worst kernel fragmentation).
    fn chunks(wire: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut at = 0;
        let mut i = 0;
        while at < wire.len() {
            let step = (cuts[i % cuts.len()] % 97).max(1).min(wire.len() - at);
            out.push(wire[at..at + step].to_vec());
            at += step;
            i += 1;
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Frames delivered in arbitrary splits decode identically to
        /// the blocking reader on the whole stream.
        #[test]
        fn split_frames_decode_like_blocking(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..300), 0..6),
            cuts in proptest::collection::vec(any::<usize>(), 1..8),
        ) {
            let wire: Vec<u8> = payloads.iter().flat_map(|p| frame_bytes(p)).collect();

            let mut blocking = Vec::new();
            let mut cursor = std::io::Cursor::new(wire.clone());
            let mut buf = Vec::new();
            while matches!(read_frame(&mut cursor, &mut buf, LIMIT).unwrap(), FrameRead::Frame) {
                blocking.push(buf.clone());
            }

            let mut incremental = Vec::new();
            let mut inbuf = Vec::new();
            for chunk in chunks(&wire, &cuts) {
                inbuf.extend_from_slice(&chunk);
                while let Some(frame) = try_extract_frame(&mut inbuf, LIMIT).unwrap() {
                    incremental.push(frame);
                }
            }
            prop_assert_eq!(&incremental, &blocking);
            prop_assert_eq!(incremental, payloads);
            prop_assert!(inbuf.is_empty(), "no bytes left behind");
        }

        /// Lines delivered in arbitrary splits decode identically to the
        /// blocking reader (both keep the trailing newline).
        #[test]
        fn split_lines_decode_like_blocking(
            raw_lines in proptest::collection::vec(
                proptest::collection::vec(0x20u8..0x7f, 0..120), 0..6),
            cuts in proptest::collection::vec(any::<usize>(), 1..8),
        ) {
            let lines: Vec<String> = raw_lines
                .into_iter()
                .map(|b| String::from_utf8(b).unwrap())
                .collect();
            let wire: Vec<u8> = lines.iter().flat_map(|l| line_bytes(l)).collect();

            let mut blocking = Vec::new();
            let mut cursor = std::io::Cursor::new(wire.clone());
            let mut buf = String::new();
            while matches!(
                read_bounded_line(&mut cursor, &mut buf, LIMIT).unwrap(),
                LineRead::Line
            ) {
                blocking.push(buf.clone());
            }

            let mut incremental = Vec::new();
            let mut inbuf = Vec::new();
            for chunk in chunks(&wire, &cuts) {
                inbuf.extend_from_slice(&chunk);
                while let Some(line) = try_extract_line(&mut inbuf, LIMIT).unwrap() {
                    incremental.push(line.unwrap());
                }
            }
            prop_assert_eq!(&incremental, &blocking);
            prop_assert!(inbuf.is_empty(), "no bytes left behind");
        }

        /// A writer that accepts arbitrarily few bytes per call (and
        /// interleaves WouldBlock) still receives exactly the pushed
        /// messages, in order, resuming mid-message losslessly.
        #[test]
        fn partial_writes_resume_losslessly(
            messages in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..200), 1..6),
            script in proptest::collection::vec(0usize..40, 1..10),
        ) {
            /// Takes `script[i] % 40` bytes per call; 0 = WouldBlock.
            struct Miserly {
                out: Vec<u8>,
                script: Vec<usize>,
                i: usize,
            }
            impl std::io::Write for Miserly {
                fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                    let quota = self.script[self.i % self.script.len()];
                    self.i += 1;
                    if quota == 0 {
                        return Err(std::io::ErrorKind::WouldBlock.into());
                    }
                    let n = quota.min(buf.len());
                    self.out.extend_from_slice(&buf[..n]);
                    Ok(n)
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }

            let mut script = script;
            if script.iter().all(|&q| q == 0) {
                script[0] = 1; // an always-blocking socket never drains
            }
            let mut wq = WriteQueue::new();
            for m in &messages {
                wq.push(m.clone());
            }
            let expected: Vec<u8> = messages.concat();
            let cycle = script.len();
            let mut sink = Miserly { out: Vec::new(), script, i: 0 };
            // Every full pass through the script moves ≥ 1 byte, and each
            // write_to call consumes ≥ 1 script entry.
            for _ in 0..=(expected.len() + 1) * cycle + 2 {
                match wq.write_to(&mut sink).unwrap() {
                    WriteProgress::Drained => break,
                    WriteProgress::Blocked => {}
                }
            }
            prop_assert!(wq.is_empty(), "queue drained");
            prop_assert_eq!(sink.out, expected);
        }
    }
}

/// The JSON codec on the wire's own types, with hostile strings and
/// arbitrary floats: the typed writer must print exactly what the `Value`
/// printer prints for the same text (the tree is the reference), compact
/// and pretty, and a typed decode must re-encode byte for byte.
mod wire_props {
    use indaas::core::{AuditSpec, CandidateDeployment, RankingMetric, RgAlgorithm};
    use indaas::deps::FailureProbModel;
    use indaas::pia::PiaRanking;
    use indaas::service::{Request, Response};
    use indaas::sia::{AuditReport, DeploymentAudit, RankedRg, ScoreKind};
    use proptest::prelude::*;
    use proptest::TestCaseError;
    use serde::{Deserialize, Serialize};

    /// Characters JSON must escape, and ones that look like structure.
    const HOSTILE: [char; 20] = [
        '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', '/', '}', ']',
        '{', '[', ',', ':', 'é', '😀', '\u{2028}',
    ];

    /// Builds wire values from one seed (splitmix64).
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn bool(&mut self) -> bool {
            self.next() & 1 == 1
        }

        fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
            if self.bool() {
                Some(f(self))
            } else {
                None
            }
        }

        fn name(&mut self) -> String {
            (0..self.below(12))
                .map(|_| {
                    if self.bool() {
                        HOSTILE[self.below(HOSTILE.len() as u64) as usize]
                    } else {
                        char::from(b'a' + self.below(26) as u8)
                    }
                })
                .collect()
        }

        fn names(&mut self, max: u64) -> Vec<String> {
            (0..self.below(max + 1)).map(|_| self.name()).collect()
        }

        /// In `[0, 1)`, all 53 mantissa bits in play.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Any finite float: raw bit patterns (subnormals, ±0, 1e300),
        /// small integers, fractions.
        fn float(&mut self) -> f64 {
            loop {
                let v = match self.below(4) {
                    0 => f64::from_bits(self.next()),
                    1 => self.below(2000) as f64 - 1000.0,
                    2 => self.unit(),
                    _ => self.unit() * 1e18,
                };
                if v.is_finite() {
                    return v;
                }
            }
        }

        /// An optional float that may also be NaN or infinite: written as
        /// `null`, so it reads back as `None` and re-encodes the same.
        fn opt_float(&mut self) -> Option<f64> {
            match self.below(8) {
                0 => Some(f64::NAN),
                1 => Some(f64::NEG_INFINITY),
                2 | 3 => None,
                _ => Some(self.float()),
            }
        }

        fn report(&mut self) -> AuditReport {
            let deployments = (0..self.below(4))
                .map(|_| DeploymentAudit {
                    name: self.name(),
                    ranked_rgs: (0..self.below(6))
                        .map(|_| RankedRg {
                            events: self.names(4),
                            size: self.below(9) as usize,
                            probability: self.opt_float(),
                            importance: self.opt_float(),
                        })
                        .collect(),
                    independence_score: self.float(),
                    score_kind: if self.bool() {
                        ScoreKind::SizeBased
                    } else {
                        ScoreKind::ProbabilityBased
                    },
                    unexpected_rgs: self.next() as usize,
                    failure_probability: self.opt_float(),
                })
                .collect();
            AuditReport { deployments }
        }

        fn spec(&mut self) -> AuditSpec {
            AuditSpec {
                candidates: (0..self.below(3))
                    .map(|_| CandidateDeployment {
                        name: self.name(),
                        servers: self.names(4),
                        needed_alive: self.below(5) as usize,
                    })
                    .collect(),
                network: self.bool(),
                hardware: self.bool(),
                software: self.bool(),
                algorithm: match self.below(3) {
                    0 => RgAlgorithm::Minimal {
                        max_order: self.opt(|g| g.below(6) as usize),
                    },
                    1 => RgAlgorithm::Sampling {
                        rounds: self.next(),
                        fail_prob: self.float(),
                        seed: self.next(),
                        threads: self.below(8) as usize,
                    },
                    _ => RgAlgorithm::Bdd {
                        max_nodes: self.next() as usize,
                    },
                },
                metric: if self.bool() {
                    RankingMetric::Size
                } else {
                    RankingMetric::Probability {
                        default_prob: self.float(),
                    }
                },
                top_n: self.opt(|g| g.next() as usize),
                prob_model: self.opt(|g| {
                    let mut model = FailureProbModel::new(g.unit());
                    for _ in 0..g.below(3) {
                        model = model.with_rule(g.name(), g.unit());
                    }
                    model
                }),
            }
        }

        fn request(&mut self) -> Request {
            match self.below(5) {
                0 => Request::AuditSia {
                    spec: self.spec(),
                    timeout_ms: self.opt(Self::next),
                },
                1 => Request::Ingest {
                    records: self.name(),
                },
                2 => Request::AuditPia {
                    providers: (0..self.below(3))
                        .map(|_| (self.name(), self.names(3)))
                        .collect(),
                    way: self.below(4) as usize,
                    minhash: self.opt(|g| g.below(100) as usize),
                    timeout_ms: None,
                },
                3 => Request::Subscribe {
                    spec: self.spec(),
                    engine: self.name(),
                },
                _ => Request::Trace { id: self.name() },
            }
        }

        fn response(&mut self) -> Response {
            match self.below(5) {
                0 => Response::Sia {
                    epoch: self.next(),
                    cached: self.bool(),
                    elapsed_us: self.next(),
                    report: self.report(),
                },
                1 => Response::AuditEvent {
                    subscription: self.next(),
                    epoch: self.next(),
                    cached: self.bool(),
                    elapsed_us: self.next(),
                    report: self.report(),
                    trace_id: self.name(),
                },
                2 => Response::Pia {
                    epoch: self.next(),
                    cached: self.bool(),
                    elapsed_us: self.next(),
                    rankings: (0..self.below(3))
                        .map(|_| PiaRanking {
                            providers: self.names(3),
                            jaccard: self.float(),
                        })
                        .collect(),
                },
                3 => Response::error(self.name()),
                _ => Response::FederateWelcome {
                    version: self.below(5) as u32,
                    node: self.name(),
                },
            }
        }
    }

    fn encode<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
        if pretty {
            serde_json::to_string_pretty(value).unwrap()
        } else {
            serde_json::to_string(value).unwrap()
        }
    }

    fn codec_is_canonical<T: Serialize + Deserialize>(value: &T) -> Result<(), TestCaseError> {
        let text = encode(value, false);
        let tree: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| TestCaseError::Fail(format!("{e}: {text}")))?;
        prop_assert_eq!(&encode(&tree, false), &text);
        prop_assert_eq!(encode(&tree, true), encode(value, true));
        let back: T =
            serde_json::from_str(&text).map_err(|e| TestCaseError::Fail(format!("{e}: {text}")))?;
        prop_assert_eq!(encode(&back, false), text);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn typed_codec_matches_value_printer_and_roundtrips(seed in any::<u64>()) {
            let mut g = Gen(seed);
            codec_is_canonical(&g.report())?;
            codec_is_canonical(&g.spec())?;
            codec_is_canonical(&g.request())?;
            codec_is_canonical(&g.response())?;
        }
    }
}

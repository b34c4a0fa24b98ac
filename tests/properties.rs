//! Cross-crate property-based tests on the core auditing invariants.

use indaas::deps::{
    shard_index, DepDb, DepView, DependencyRecord, HardwareDep, NetworkDep, ShardedDepDb,
    SoftwareDep,
};
use indaas::graph::detail::{component_sets_to_graph, ComponentSet};
use indaas::graph::{CancelToken, FaultGraph, FaultGraphBuilder, Gate, IncrementalEval, NodeId};
use indaas::sia::{
    failure_sampling, minimal_risk_groups, top_event_probability, MinimalConfig, RgFamily,
    RiskGroup, SamplingConfig,
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

/// Pr(top) of `graph` summed over all 2^b assignments of its first
/// `basics` node ids (its basic events), each failing with probability
/// `p`, through `FaultGraph::evaluate`.
fn enumerated_top_probability(graph: &FaultGraph, basics: usize, p: f64) -> f64 {
    let mut assignment = vec![false; graph.len()];
    let mut exact = 0.0;
    for mask in 0u32..1 << basics {
        (0..basics).for_each(|bit| assignment[bit] = mask >> bit & 1 == 1);
        let failed = mask.count_ones() as i32;
        if graph.evaluate(&assignment) {
            exact += p.powi(failed) * (1.0 - p).powi(basics as i32 - failed);
        }
    }
    exact
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

    /// Old snapshots never change. Over random ingest/retract batch
    /// sequences on 1–4 shards, every snapshot taken along the way still
    /// reads, shard by shard, exactly the records it read when it was
    /// taken: a write copies the host lists it changes and never edits a
    /// list an older snapshot shares. The live store ends equal to a
    /// monolithic replay of the same sequence.
    #[test]
    fn old_snapshots_never_change(
        batches in proptest::collection::vec(record_batch(), 1..10),
        // Bit i set: batch i is ingested; clear: it is retracted.
        ingests in any::<u16>(),
        shards in 1usize..5,
    ) {
        let sharded = ShardedDepDb::new(shards);
        let mut mono = DepDb::new();
        let mut taken = Vec::new();
        for (i, batch) in batches.into_iter().enumerate() {
            if ingests >> i & 1 == 1 {
                sharded.ingest(batch.clone());
                for r in batch {
                    mono.insert(r);
                }
            } else {
                sharded.retract(&batch);
                for r in &batch {
                    mono.remove(r);
                }
            }
            let snap = sharded.snapshot();
            let read: Vec<Vec<DependencyRecord>> =
                (0..shards).map(|s| snap.shard(s).all_records()).collect();
            taken.push((snap, read));
        }
        for (snap, read) in &taken {
            for (s, records) in read.iter().enumerate() {
                prop_assert_eq!(&snap.shard(s).all_records(), records);
            }
        }
        let live = sharded.snapshot();
        prop_assert_eq!(live.record_count(), mono.len());
        prop_assert_eq!(DepView::hosts(&live), mono.hosts());
        for host in mono.hosts() {
            prop_assert_eq!(live.network_deps(&host), mono.network_deps(&host));
            prop_assert_eq!(live.hardware_deps(&host), mono.hardware_deps(&host));
            prop_assert_eq!(live.software_deps(&host), mono.software_deps(&host));
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

    /// The exact engine computes the minimal cut sets that trying every
    /// assignment finds, on random DAGs with shared gates.
    #[test]
    fn minimal_rgs_equal_brute_force_on_random_dags(basics in 3usize..8, genes in dag_genes()) {
        let graph = monotone_dag(basics, &genes);
        let mocus = minimal_risk_groups(&graph, &MinimalConfig::default());
        prop_assert_eq!(group_set(&mocus), brute_force_minimal(&graph));
    }

    /// Pr(top) of the uncapped minimal family, at every family size,
    /// equals a sum over all 2^b assignments through
    /// `FaultGraph::evaluate`.
    #[test]
    fn top_probability_matches_enumeration(
        basics in 3usize..8, genes in dag_genes(), permille in 50u32..950,
    ) {
        let (graph, p) = (monotone_dag(basics, &genes), f64::from(permille) / 1000.0);
        let exact = enumerated_top_probability(&graph, basics, p);
        let family = minimal_risk_groups(&graph, &MinimalConfig::default());
        let got = top_event_probability(&family, &graph, p, &CancelToken::default()).unwrap();
        prop_assert!((got - exact).abs() < 1e-9, "{} groups: {got} vs {exact}", family.len());
    }

    /// Under an order cap or the sampling engine a family lists only some
    /// minimal groups, so its Pr(∪ family) — a report's
    /// `failure_probability` — is a lower bound on Pr(top): never above
    /// the sum over all 2^b assignments. Uncapped, it is that sum.
    #[test]
    fn capped_and_sampled_top_probabilities_are_lower_bounds(
        basics in 3usize..8, genes in dag_genes(), permille in 50u32..950,
        order in 0usize..4, seed in 0u64..1000, rounds in 1u64..8,
    ) {
        let (graph, p) = (monotone_dag(basics, &genes), f64::from(permille) / 1000.0);
        let exact = enumerated_top_probability(&graph, basics, p);
        let pr = |family: &RgFamily| {
            top_event_probability(family, &graph, p, &CancelToken::default()).unwrap()
        };
        let full = pr(&minimal_risk_groups(&graph, &MinimalConfig::default()));
        prop_assert!((full - exact).abs() < 1e-9, "uncapped: {full} vs {exact}");
        let capped = pr(&minimal_risk_groups(&graph, &MinimalConfig::with_max_order(order)));
        prop_assert!(capped <= exact + 1e-9, "order <= {order}: {capped} vs {exact}");
        let sampled = pr(&failure_sampling(&graph, &SamplingConfig {
            rounds,
            seed,
            ..SamplingConfig::default()
        }));
        prop_assert!(sampled <= exact + 1e-9, "{rounds} rounds: {sampled} vs {exact}");
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

/// The incremental codecs the readiness loop and the client read with:
/// however the kernel splits a byte stream across reads, the extractors
/// must produce exactly the frames the blocking `read_frame` loop does
/// and exactly the lines that were sent — and a write queue facing a
/// socket that takes arbitrarily few bytes per call must put exactly the
/// pushed bytes on the wire, in order.
mod codec_props {
    use indaas::service::codec::{
        frame_bytes, line_bytes, try_extract_frame, try_extract_line, WriteProgress, WriteQueue,
    };
    use indaas::service::proto::{read_frame, FrameRead};
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

        /// Lines delivered in arbitrary splits decode to exactly the sent
        /// lines, each with its trailing newline.
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
            let sent: Vec<String> = lines.iter().map(|l| format!("{l}\n")).collect();

            let mut incremental = Vec::new();
            let mut inbuf = Vec::new();
            for chunk in chunks(&wire, &cuts) {
                inbuf.extend_from_slice(&chunk);
                while let Some(line) = try_extract_line(&mut inbuf, LIMIT).unwrap() {
                    incremental.push(line.unwrap());
                }
            }
            prop_assert_eq!(&incremental, &sent);
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
    pub(super) struct Gen(pub(super) u64);

    impl Gen {
        pub(super) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub(super) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        pub(super) fn bool(&mut self) -> bool {
            self.next() & 1 == 1
        }

        pub(super) fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
            if self.bool() {
                Some(f(self))
            } else {
                None
            }
        }

        pub(super) fn name(&mut self) -> String {
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
        pub(super) fn unit(&mut self) -> f64 {
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

        /// An optional float that may also be NaN or infinite: left out
        /// like `None`, so it reads back as `None` and re-encodes the same.
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
                algorithm: match self.below(2) {
                    0 => RgAlgorithm::Minimal {
                        max_order: self.opt(|g| g.below(6) as usize),
                    },
                    _ => RgAlgorithm::Sampling {
                        rounds: self.next(),
                        fail_prob: self.float(),
                        seed: self.next(),
                        threads: self.below(8) as usize,
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

/// The report writer held to the typed report it replaces: random
/// deployments over names JSON must escape, through all three engines
/// and both metrics, with `top_n`, tied candidates and empty families —
/// `audit_sia_text` is byte for byte `serde_json::to_string` of
/// `audit_sia`'s report, or fails with the same error.
mod report_writer_props {
    use indaas::core::{
        AuditSpec, AuditingAgent, CancelToken, CandidateDeployment, RankingMetric, RgAlgorithm,
    };
    use indaas::deps::{
        DepDb, DependencyRecord, FailureProbModel, HardwareDep, NetworkDep, SoftwareDep,
    };
    use proptest::prelude::*;

    use super::wire_props::Gen;

    /// Hosts, each with one or two routes over a shared pool of devices
    /// (so groups are shared and sizes tie), maybe a disk from the pool
    /// or its own, maybe a program — every name drawn with escapes,
    /// control characters and non-ASCII.
    fn records(g: &mut Gen, hosts: &[String]) -> Vec<DependencyRecord> {
        let pool: Vec<String> = (0..3 + g.below(5)).map(|_| g.name()).collect();
        let pick = |g: &mut Gen| pool[g.below(pool.len() as u64) as usize].clone();
        let mut records = Vec::new();
        for host in hosts {
            for _ in 0..1 + g.below(2) {
                records.push(DependencyRecord::Network(NetworkDep {
                    src: host.clone(),
                    dst: "Internet".into(),
                    route: (0..1 + g.below(2)).map(|_| pick(g)).collect(),
                }));
            }
            if g.bool() {
                let dep = if g.bool() {
                    pick(g)
                } else {
                    format!("{host}{}", g.name())
                };
                records.push(DependencyRecord::Hardware(HardwareDep {
                    hw: host.clone(),
                    hw_type: "Disk".into(),
                    dep,
                }));
            }
            if g.bool() {
                records.push(DependencyRecord::Software(SoftwareDep {
                    pgm: g.name(),
                    hw: host.clone(),
                    deps: (0..g.below(3)).map(|_| pick(g)).collect(),
                }));
            }
        }
        records
    }

    /// One to three candidates over `hosts`; a later one may copy the
    /// first one's servers under another name, tying their scores.
    fn spec(g: &mut Gen, hosts: &[String]) -> AuditSpec {
        let mut candidates: Vec<CandidateDeployment> = Vec::new();
        for _ in 0..1 + g.below(3) {
            let (servers, needed_alive) = match candidates.first() {
                Some(first) if g.bool() => (first.servers.clone(), first.needed_alive),
                _ => {
                    let m = 2 + g.below(hosts.len() as u64 - 1) as usize;
                    let skip = g.below(hosts.len() as u64) as usize;
                    let servers = hosts.iter().cycle().skip(skip).take(m).cloned().collect();
                    (servers, 1 + g.below(m as u64) as usize)
                }
            };
            candidates.push(CandidateDeployment {
                name: g.name(),
                servers,
                needed_alive,
            });
        }
        let probability = g.bool();
        AuditSpec {
            candidates,
            network: true,
            hardware: g.bool(),
            software: g.bool(),
            // Order 0 and zero sampling rounds give empty families.
            algorithm: match g.below(2) {
                0 => RgAlgorithm::Minimal {
                    max_order: g.opt(|g| g.below(4) as usize),
                },
                _ => RgAlgorithm::Sampling {
                    rounds: g.below(300),
                    fail_prob: 0.3,
                    seed: g.next(),
                    threads: 1,
                },
            },
            metric: if probability {
                RankingMetric::Probability {
                    default_prob: 0.01 + 0.2 * g.unit(),
                }
            } else {
                RankingMetric::Size
            },
            top_n: g.opt(|g| g.below(5) as usize),
            prob_model: (probability && g.bool()).then(|| {
                let mut model = FailureProbModel::new(0.2 * g.unit());
                for _ in 0..g.below(3) {
                    model = model.with_rule(g.name(), 0.3 * g.unit());
                }
                model
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn written_reports_equal_typed_encodings(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let hosts: Vec<String> =
                (0..2 + g.below(3)).map(|i| format!("h{i}{}", g.name())).collect();
            let agent = AuditingAgent::new(DepDb::from_records(records(&mut g, &hosts)));
            let spec = spec(&mut g, &hosts);
            let typed = agent
                .audit_sia(&spec)
                .map(|report| serde_json::to_string(&report).unwrap())
                .map_err(|e| e.to_string());
            let written = agent
                .audit_sia_text(&spec, &CancelToken::default(), &())
                .map_err(|e| e.to_string());
            prop_assert!(written == typed, "spec {spec:?}\n written: {written:?}\n   typed: {typed:?}");
        }
    }
}

/// Exact audits composed from per-server families, held to the full
/// graph: random mutation sequences against one shared family memo,
/// every step's report serialised and compared byte for byte with
/// `build_fault_graph` → `minimal_risk_groups` → the report of the
/// spec's metric.
mod compose_props {
    use std::sync::Arc;

    use indaas::core::{AuditSpec, AuditingAgent, CandidateDeployment, RankingMetric, RgAlgorithm};
    use indaas::deps::{
        DependencyRecord, FailureProbModel, HardwareDep, NetworkDep, ShardedDepDb, SoftwareDep,
    };
    use indaas::graph::CancelToken;
    use indaas::sia::{
        build_fault_graph, minimal_risk_groups, AuditReport, BuildSpec, DeploymentAudit,
        FamilyMemo, MinimalConfig, Ranking,
    };
    use indaas::topology::{FatTree, FatTreeConfig};
    use proptest::prelude::*;
    use proptest::TestCaseError;

    /// A host with two disjoint one-device routes and no other record:
    /// no single event fails it, so at order 1 its family is empty.
    const DUAL: &str = "dual-homed";

    /// One server in each pod of a 4-port fat tree, then [`DUAL`].
    fn hosts() -> Vec<String> {
        let tree = FatTree::new(FatTreeConfig {
            ports: 4,
            max_paths_per_server: None,
        });
        let mut hosts: Vec<String> = (0..4).map(|p| tree.server_name(p, 0, 0)).collect();
        hosts.push(DUAL.into());
        hosts
    }

    fn base_records() -> Vec<DependencyRecord> {
        let tree = FatTree::new(FatTreeConfig {
            ports: 4,
            max_paths_per_server: None,
        });
        let coords: Vec<(usize, usize, usize)> = (0..4).map(|p| (p, 0, 0)).collect();
        let mut records = tree.deployment_records(&coords);
        for dev in ["uplink-a", "uplink-b"] {
            records.push(DependencyRecord::Network(NetworkDep {
                src: DUAL.into(),
                dst: "Internet".into(),
                route: vec![dev.into()],
            }));
        }
        records
    }

    /// Mutation `n`: a record under one host that adds a failure mode —
    /// shared or the host's own, in each category, and a route that
    /// changes which sets cut the host's network.
    fn mutation(hosts: &[String], n: u32) -> DependencyRecord {
        let host = hosts[(n / 5) as usize % hosts.len()].clone();
        match n % 5 {
            0 => DependencyRecord::Hardware(HardwareDep {
                hw: host,
                hw_type: "PSU".into(),
                dep: "shared-psu".into(),
            }),
            1 => DependencyRecord::Hardware(HardwareDep {
                dep: format!("{host}-nic"),
                hw: host,
                hw_type: "Nic".into(),
            }),
            2 => DependencyRecord::Software(SoftwareDep {
                pgm: "agent".into(),
                deps: vec!["libshared".into(), format!("{host}-lib")],
                hw: host,
            }),
            3 => DependencyRecord::Network(NetworkDep {
                route: vec![format!("{host}-uplink")],
                src: host,
                dst: "Internet".into(),
            }),
            _ => DependencyRecord::Network(NetworkDep {
                route: vec!["spine-x".into(), format!("{host}-alt")],
                src: host,
                dst: "Internet".into(),
            }),
        }
    }

    /// The spec `shape` decodes to: `m` hosts from a rotation of
    /// `hosts`, a redundancy level, the categories, an order cap and
    /// the metric. Unbounded orders are kept to top gates of k ≤ 2 so
    /// a family stays small.
    fn spec(hosts: &[String], shape: u32) -> AuditSpec {
        let mut pick = shape;
        let mut draw = |n: u32| {
            let v = pick % n;
            pick /= n;
            v as usize
        };
        let rotate = draw(hosts.len() as u32);
        let m = 2 + draw(hosts.len() as u32 - 1);
        let servers: Vec<String> = hosts.iter().cycle().skip(rotate).take(m).cloned().collect();
        let needed_alive = 1 + draw(m as u32);
        let k = m - needed_alive + 1;
        let categories = match draw(8) {
            0 => 7,
            c => c,
        };
        let max_order = match draw(5) {
            4 if k <= 2 => None,
            order => Some(order.min(3)),
        };
        let probability = draw(4) == 0;
        exact_spec(servers, needed_alive, categories, max_order, probability)
    }

    /// An exact audit of one candidate, `categories` a bit set of
    /// network (1), hardware (2) and software (4).
    fn exact_spec(
        servers: Vec<String>,
        needed_alive: usize,
        categories: usize,
        max_order: Option<usize>,
        probability: bool,
    ) -> AuditSpec {
        AuditSpec {
            candidates: vec![CandidateDeployment {
                name: "d".into(),
                servers,
                needed_alive,
            }],
            network: categories & 1 != 0,
            hardware: categories & 2 != 0,
            software: categories & 4 != 0,
            algorithm: RgAlgorithm::Minimal { max_order },
            metric: if probability {
                RankingMetric::Probability { default_prob: 0.05 }
            } else {
                RankingMetric::Size
            },
            top_n: None,
            prob_model: probability.then(|| FailureProbModel::new(0.05).with_rule("core", 0.01)),
        }
    }

    /// The report of the full-graph path, or its error as the agent
    /// words it.
    fn full_graph_report(
        db: &indaas::deps::DbSnapshot,
        spec: &AuditSpec,
    ) -> Result<AuditReport, String> {
        let mut audits = Vec::new();
        for cand in &spec.candidates {
            let build = BuildSpec {
                name: cand.name.clone(),
                servers: cand.servers.clone(),
                needed_alive: cand.needed_alive,
                network: spec.network,
                hardware: spec.hardware,
                software: spec.software,
                prob_model: spec.prob_model.clone(),
            };
            let graph = build_fault_graph(db, &build)
                .map_err(|e| format!("building {:?} failed: {e}", cand.name))?;
            let RgAlgorithm::Minimal { max_order } = spec.algorithm else {
                unreachable!("exact audits only");
            };
            let config = MinimalConfig { max_order };
            let family = minimal_risk_groups(&graph, &config);
            let n = cand.servers.len();
            let ranking = match spec.metric {
                RankingMetric::Size => Ranking::by_size(&family, &graph, n, spec.top_n),
                RankingMetric::Probability { default_prob } => {
                    let token = CancelToken::default();
                    Ranking::by_probability(&family, &graph, n, default_prob, spec.top_n, &token)
                        .map_err(|e| format!("auditing {:?} failed: {e}", cand.name))?
                }
            };
            audits.push(DeploymentAudit::from_ranking(&cand.name, &graph, &ranking));
        }
        Ok(AuditReport::new(audits))
    }

    /// Audits `spec` through the agent and through the full graph and
    /// requires the same bytes (or the same error). Returns the number
    /// of groups reported.
    fn same_report(
        db: &ShardedDepDb,
        memo: &Arc<FamilyMemo>,
        spec: &AuditSpec,
    ) -> Result<usize, TestCaseError> {
        let snapshot = db.snapshot();
        let composed = AuditingAgent::from_snapshot(snapshot.clone())
            .with_families(Arc::clone(memo))
            .audit_sia(spec)
            .map_err(|e| e.to_string());
        let full = full_graph_report(&snapshot, spec);
        let text = |r: &Result<AuditReport, String>| match r {
            Ok(report) => serde_json::to_string(report).unwrap(),
            Err(e) => e.clone(),
        };
        let groups = full
            .as_ref()
            .map_or(0, |r| r.deployments[0].ranked_rgs.len());
        let (composed, full) = (text(&composed), text(&full));
        prop_assert!(
            composed == full,
            "spec {spec:?}\n composed: {composed}\n     full: {full}"
        );
        Ok(groups)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn composed_audits_equal_full_graph_audits(
            steps in proptest::collection::vec(0u32..50, 1..7),
            shapes in proptest::collection::vec(any::<u32>(), 6..7),
        ) {
            let hosts = hosts();
            let db = ShardedDepDb::new(4);
            db.ingest(base_records());
            let memo = Arc::new(FamilyMemo::default());
            for (&step, &shape) in steps.iter().zip(&shapes) {
                let record = mutation(&hosts, step / 2);
                if step % 2 == 0 {
                    db.ingest([record]);
                } else {
                    db.retract(&[record]);
                }
                same_report(&db, &memo, &spec(&hosts, shape))?;
            }
            // The two edges, on the data the sequence left. At order 1
            // on network records DUAL can never fail: first with enough
            // servers left for the top gate (k = 1), then with too few
            // (k = 4).
            let network = 1;
            for needed_alive in [4, 1] {
                let servers = std::iter::once(DUAL.to_string())
                    .chain(hosts[..3].iter().cloned())
                    .collect();
                let spec = exact_spec(servers, needed_alive, network, Some(1), false);
                same_report(&db, &memo, &spec)?;
            }
            // Probability-ranked past 20 groups: every server's own
            // singletons and aggregation pairs.
            let spec = exact_spec(hosts[..4].to_vec(), 4, 7, Some(2), true);
            let groups = same_report(&db, &memo, &spec)?;
            prop_assert!(groups > 20, "{groups} groups");
        }
    }
}

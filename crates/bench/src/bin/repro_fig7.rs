//! Regenerates Figure 7: efficiency vs accuracy of the minimal-RG
//! algorithm and the failure sampling algorithm on topologies A, B and C.
//!
//! For each topology, a 3-way redundancy deployment (one server per pod,
//! full ECMP path enumeration) is audited:
//!
//! * the *reference universe* is the set of minimal RGs of size ≤ 8,
//!   computed exactly by the truncated minimal-RG algorithm (untruncated
//!   enumeration is exponential — the paper measured 1,046 minutes on
//!   topology B — so, as standard in fault-tree practice, accuracy is
//!   reported against the bounded-order universe; small RGs are exactly
//!   the "unexpected" groups the audit hunts);
//! * the failure sampling algorithm runs with 10³–10⁶ rounds (paper:
//!   10³–10⁷), reporting wall-clock time and the percentage of the
//!   reference universe detected.
//!
//! Scale knob: set `FIG7_MAX_ROUNDS` (default 1000000) to adjust the
//! largest sweep point. Exits non-zero if any sweep point detects nothing
//! (CI runs `FIG7_MAX_ROUNDS=1000` as a smoke test).
//!
//! Run with: `cargo run --release -p indaas-bench --bin repro_fig7`

#![forbid(unsafe_code)]

use indaas_bench::{fig7_workload, timed};
use indaas_graph::FaultGraph;
use indaas_sia::{
    build_fault_graph, failure_sampling, minimal_risk_groups, BuildSpec, MinimalConfig, RgFamily,
    SamplingConfig,
};
use indaas_topology::FatTreeConfig;

/// Reference-universe cut-set order bound. The deployment fails once two
/// replicas are down, so minimal RGs are fleet-wide singletons and cross-
/// server pairs; order 4 bounds the universe exactly.
const TRUTH_ORDER: usize = 4;

fn main() {
    let max_rounds: u64 = std::env::var("FIG7_MAX_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let mut blind = Vec::new();

    for (label, config) in [
        ("Topology A: 1,344 devices", FatTreeConfig::topology_a()),
        ("Topology B: 4,176 devices", FatTreeConfig::topology_b()),
        ("Topology C: 30,528 devices", FatTreeConfig::topology_c()),
    ] {
        println!("=== Figure 7 — {label} ===");
        // One replica server per pod; the audited service tolerates a
        // single replica failure (fails once ≥ 2 replicas are down).
        let replicas = config.ports;
        let (db, cand) = fig7_workload(config, replicas, None);
        let spec = BuildSpec {
            name: cand.name.clone(),
            servers: cand.servers.clone(),
            needed_alive: replicas - 1,
            network: true,
            hardware: true,
            software: true,
            prob_model: None,
        };
        let graph = build_fault_graph(&db, &spec).expect("fault graph builds");
        println!(
            "fault graph: {} nodes ({} basic events)",
            graph.len(),
            graph.num_basic()
        );

        // Reference universe: exact minimal RGs of size ≤ TRUTH_ORDER.
        let (truth, truth_secs) =
            timed(|| minimal_risk_groups(&graph, &MinimalConfig::with_max_order(TRUTH_ORDER)));
        println!(
            "minimal RG algorithm (order ≤ {TRUTH_ORDER}): {} minimal RGs in {:.2}s  → 100% by definition",
            truth.len(),
            truth_secs
        );

        println!("{:>10} {:>12} {:>12}", "rounds", "seconds", "% detected");
        let mut rounds = 1_000u64;
        while rounds <= max_rounds {
            let (fam, secs) = timed(|| {
                failure_sampling(
                    &graph,
                    &SamplingConfig {
                        rounds,
                        fail_prob: 0.5,
                        seed: 7,
                    },
                )
            });
            let pct = detected_pct(&truth, &fam, &graph);
            println!("{rounds:>10} {secs:>12.3} {pct:>11.1}%");
            if pct == 0.0 {
                blind.push(format!("{label}, {rounds} rounds"));
            }
            rounds *= 10;
        }
        println!();
    }
    println!(
        "shape (as in the paper): sampling reaches high coverage orders of magnitude\n\
         faster than exact enumeration, with accuracy growing in the round budget."
    );
    if !blind.is_empty() {
        eprintln!("failure sampling detected 0% of the minimal RGs at: {blind:?}");
        std::process::exit(1);
    }
}

/// Percentage of the reference universe present in the sampled family.
fn detected_pct(truth: &RgFamily, sampled: &RgFamily, graph: &FaultGraph) -> f64 {
    if truth.is_empty() {
        return 100.0;
    }
    let sampled_named: std::collections::HashSet<Vec<String>> =
        sampled.to_named(graph).into_iter().collect();
    let hit = truth
        .to_named(graph)
        .into_iter()
        .filter(|g| sampled_named.contains(g))
        .count();
    100.0 * hit as f64 / truth.len() as f64
}

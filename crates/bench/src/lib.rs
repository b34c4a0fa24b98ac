//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (§6).
//!
//! Each `repro_*` binary in `src/bin/` prints the rows/series of one paper
//! artifact; the Criterion benches in `benches/` provide statistically
//! sound micro-timings of the same code paths. EXPERIMENTS.md records
//! paper-vs-measured for each.

#![forbid(unsafe_code)]

use std::time::Instant;

use indaas_core::CandidateDeployment;
use indaas_deps::DepDb;
use indaas_topology::{FatTree, FatTreeConfig};

/// Wall-clock timing helper.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The Figure 7 workload: a `num_servers`-way redundancy deployment across
/// distinct pods of a fat tree, with full network/hardware/software
/// dependency records. Returns the populated DepDB and the candidate
/// deployment.
///
/// `max_paths` caps per-server ECMP path enumeration (Table 3's topology C
/// has 576 paths per server; the paper materializes all of them, which is
/// also the default here — pass a cap to scale down).
pub fn fig7_workload(
    config: FatTreeConfig,
    num_servers: usize,
    max_paths: Option<usize>,
) -> (DepDb, CandidateDeployment) {
    let tree = FatTree::new(FatTreeConfig {
        max_paths_per_server: max_paths.or(config.max_paths_per_server),
        ..config
    });
    assert!(
        num_servers <= tree.config().ports,
        "one server per pod at most"
    );
    // One server per pod, first ToR, first slot.
    let coords: Vec<(usize, usize, usize)> = (0..num_servers).map(|p| (p, 0, 0)).collect();
    let records = tree.deployment_records(&coords);
    let servers: Vec<String> = coords
        .iter()
        .map(|&(p, e, s)| tree.server_name(p, e, s))
        .collect();
    let name = format!(
        "{}-way deployment on {} ({} devices)",
        num_servers,
        match tree.config().ports {
            16 => "topology A",
            24 => "topology B",
            48 => "topology C",
            p =>
                return (
                    DepDb::from_records(records),
                    CandidateDeployment::replicated(
                        format!("{num_servers}-way on {p}-port fat tree"),
                        servers
                    )
                ),
        },
        tree.total_devices()
    );
    (
        DepDb::from_records(records),
        CandidateDeployment::replicated(name, servers),
    )
}

/// Synthetic provider component sets for Figures 8 and 9: `n` elements per
/// provider, a `shared` fraction drawn from a common pool (so intersections
/// are non-trivial and the KS chain runs all rounds).
pub fn synthetic_datasets(k: usize, n: usize, shared: f64) -> Vec<Vec<String>> {
    assert!((0.0..=1.0).contains(&shared));
    let n_shared = (n as f64 * shared) as usize;
    (0..k)
        .map(|p| {
            let mut v: Vec<String> = (0..n_shared).map(|i| format!("shared-{i}")).collect();
            v.extend((n_shared..n).map(|i| format!("p{p}-local-{i}")));
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_workload_shapes() {
        let (db, cand) = fig7_workload(
            FatTreeConfig {
                ports: 4,
                max_paths_per_server: None,
            },
            3,
            None,
        );
        assert_eq!(cand.servers.len(), 3);
        for s in &cand.servers {
            assert_eq!(db.network_deps(s).len(), 4); // (k/2)^2 paths.
            assert_eq!(db.hardware_deps(s).len(), 2);
            assert_eq!(db.software_deps(s).len(), 1);
        }
    }

    /// The benchmark's fault graph: topology A, one server in each of the
    /// 16 pods, failing once fewer than `needed_alive` are up.
    fn topology_a_16_way(needed_alive: usize) -> indaas_graph::FaultGraph {
        use indaas_sia::{build_fault_graph, BuildSpec};
        let (db, cand) = fig7_workload(FatTreeConfig::topology_a(), 16, None);
        let spec = BuildSpec {
            needed_alive,
            ..BuildSpec::all(cand.name, cand.servers)
        };
        build_fault_graph(&db, &spec).unwrap()
    }

    /// The benchmark's sampling audit (topology A, 16-way, 2,000 rounds,
    /// seed 7) reports this many groups. The count is a function of the
    /// random draw stream, so a change that reorders or adds draws moves
    /// it — and with it `sia.sampling_groups_per_kround`. Re-pin only in a
    /// change that means to move the stream and says so.
    #[test]
    fn fig7_sampling_draw_stream_is_pinned() {
        use indaas_sia::{failure_sampling, SamplingConfig};
        let config = SamplingConfig {
            rounds: 2_000,
            seed: 7,
            ..SamplingConfig::default()
        };
        assert_eq!(failure_sampling(&topology_a_16_way(15), &config).len(), 701);
    }

    /// The benchmark's exact audit (order ≤ 4) and its two neighbours, so
    /// that OR-like (`k = 2`), AND (`k = n`) and a deeper threshold
    /// (`k = 3`) top gates all run on a real graph. Every server's family
    /// is 3 fleet-wide events and 4 of its own: the answer is the 3 plus,
    /// per k-subset of the 16 servers, one own event from each (4ᵏ), while
    /// that still fits the order.
    #[test]
    fn fig7_minimal_family_is_pinned() {
        use indaas_sia::{minimal_risk_groups, MinimalConfig};
        for (needed_alive, by_order) in [
            (15, [0, 3, 1_920, 0, 0]),  // k = 2: C(16,2) · 4²
            (14, [0, 3, 0, 35_840, 0]), // k = 3: C(16,3) · 4³
            (1, [0, 3, 0, 0, 0]),       // k = 16: one event per server exceeds order 4
        ] {
            let graph = topology_a_16_way(needed_alive);
            let family = minimal_risk_groups(&graph, &MinimalConfig::with_max_order(4));
            let mut histogram = [0usize; 5];
            for group in family.groups() {
                histogram[group.len()] += 1;
            }
            assert_eq!(histogram, by_order, "needed_alive = {needed_alive}");
        }
    }

    #[test]
    fn synthetic_datasets_overlap() {
        let sets = synthetic_datasets(3, 100, 0.4);
        assert_eq!(sets.len(), 3);
        for s in &sets {
            assert_eq!(s.len(), 100);
        }
        let shared: Vec<_> = sets[0].iter().filter(|e| e.starts_with("shared")).collect();
        assert_eq!(shared.len(), 40);
        assert!(sets[1].contains(&"shared-0".to_string()));
        assert!(!sets[1].contains(&"p0-local-50".to_string()));
    }

    #[test]
    fn timed_returns_value() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}

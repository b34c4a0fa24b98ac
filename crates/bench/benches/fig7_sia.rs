//! Criterion micro-benchmarks behind Figure 7: the minimal-RG algorithm
//! and failure sampling on fat-tree deployment fault graphs (topology A
//! scale; the full sweep lives in the `repro_fig7` binary).

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use indaas_bench::fig7_workload;
use indaas_sia::{
    build_fault_graph, failure_sampling, minimal_risk_groups, BuildSpec, MinimalConfig,
    SamplingConfig,
};
use indaas_topology::FatTreeConfig;

fn topology_a_graph(replicas: usize) -> indaas_graph::FaultGraph {
    let (db, cand) = fig7_workload(FatTreeConfig::topology_a(), replicas, None);
    build_fault_graph(
        &db,
        &BuildSpec {
            name: cand.name,
            servers: cand.servers,
            needed_alive: replicas - 1,
            network: true,
            hardware: true,
            software: true,
            prob_model: None,
        },
    )
    .expect("fault graph builds")
}

fn bench_minimal(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7/minimal_rg");
    group.sample_size(10);
    for replicas in [4usize, 8, 16] {
        let graph = topology_a_graph(replicas);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{replicas}_replicas")),
            &graph,
            |b, g| b.iter(|| minimal_risk_groups(g, &MinimalConfig::with_max_order(4))),
        );
    }
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7/failure_sampling_1k_rounds");
    group.sample_size(10);
    let graph = topology_a_graph(16);
    for rounds in [1_000u64, 4_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(rounds),
            &rounds,
            |b, &rounds| {
                b.iter(|| {
                    failure_sampling(
                        &graph,
                        &SamplingConfig {
                            rounds,
                            fail_prob: 0.5,
                            seed: 7,
                            threads: 1,
                            weighted: false,
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_minimal, bench_sampling);
criterion_main!(benches);

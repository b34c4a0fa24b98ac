//! Ablation benchmarks for the design choices this reproduction makes on
//! top of the paper's algorithms:
//!
//! * the three risk-group engines head to head (MOCUS cut sets vs BDD
//!   compilation vs failure sampling) on the same deployment graph,
//! * weighted (importance) sampling vs uniform coin flips.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use indaas_bench::fig7_workload;
use indaas_deps::FailureProbModel;
use indaas_sia::{
    build_fault_graph, failure_sampling, minimal_risk_groups, Bdd, BuildSpec, MinimalConfig,
    SamplingConfig,
};
use indaas_topology::FatTreeConfig;

fn graph(replicas: usize, with_probs: bool) -> indaas_graph::FaultGraph {
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
            prob_model: with_probs.then(FailureProbModel::gill_defaults),
        },
    )
    .expect("fault graph builds")
}

fn bench_engines(c: &mut Criterion) {
    let g = graph(8, false);
    let mut group = c.benchmark_group("ablation/rg_engines");
    group.sample_size(10);
    group.bench_function("mocus_order4", |b| {
        b.iter(|| minimal_risk_groups(&g, &MinimalConfig::with_max_order(4)))
    });
    group.bench_function("bdd_compile_and_mcs", |b| {
        b.iter(|| Bdd::compile(&g, 1 << 22).minimal_cut_sets())
    });
    group.bench_function("sampling_2k_rounds", |b| {
        b.iter(|| {
            failure_sampling(
                &g,
                &SamplingConfig {
                    rounds: 2_000,
                    ..SamplingConfig::default()
                },
            )
        })
    });
    group.finish();
}

fn bench_weighted_sampling(c: &mut Criterion) {
    let g = graph(8, true);
    let mut group = c.benchmark_group("ablation/weighted_sampling");
    group.sample_size(10);
    for (label, weighted) in [("uniform", false), ("weighted", true)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                failure_sampling(
                    &g,
                    &SamplingConfig {
                        rounds: 2_000,
                        weighted,
                        fail_prob: 0.5,
                        ..SamplingConfig::default()
                    },
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_weighted_sampling);
criterion_main!(benches);

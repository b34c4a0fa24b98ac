//! Criterion micro-benchmarks behind Figure 8: P-SOP vs the KS baseline
//! (full sweeps live in the `repro_fig8` binary).

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use indaas_bench::synthetic_datasets;
use indaas_graph::CancelToken;
use indaas_pia::{run_ks, run_psop, KsConfig, PsopConfig, PsopParty};
use indaas_simnet::{Message, SimNetwork};

fn bench_psop(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8/psop");
    group.sample_size(10);
    for (k, n) in [(2usize, 100usize), (4, 100), (2, 400)] {
        let datasets = synthetic_datasets(k, n, 0.3);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_n{n}")),
            &datasets,
            |b, d| {
                b.iter(|| {
                    let mut net = SimNetwork::new(d.len() + 1);
                    run_psop(d, &PsopConfig::default(), &mut net)
                })
            },
        );
    }
    group.finish();
}

fn bench_ks(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8/ks");
    group.sample_size(10);
    // 256-bit keys keep the micro-benchmark fast; the 1024-bit sweep is in
    // `repro_fig8`. The P-SOP/KS gap is visible at any key size.
    for (k, n) in [(2usize, 64usize), (4, 64)] {
        let datasets = synthetic_datasets(k, n, 0.3);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_n{n}")),
            &datasets,
            |b, d| {
                b.iter(|| {
                    let mut net = SimNetwork::new(d.len() + 1);
                    run_ks(
                        d,
                        &KsConfig {
                            key_bits: 256,
                            bucket_size: 16,
                            seed: 8,
                        },
                        &mut net,
                    )
                })
            },
        );
    }
    group.finish();
}

/// The federated hot path: one daemon's cryptographic work per session —
/// encrypt-and-permute its own list, then one re-encryption relay. What a
/// provider pays per ring round, independent of the wire.
fn bench_psop_party_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8/psop_party");
    group.sample_size(10);
    for n in [100usize, 400] {
        let datasets = synthetic_datasets(2, n, 0.3);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}")),
            &datasets,
            |b, d| {
                b.iter(|| {
                    let token = CancelToken::default();
                    let mut party = PsopParty::new(0, 2, &PsopConfig::default(), &token).unwrap();
                    let payload = party.initial_payload(&d[0], true).unwrap();
                    party.relay(&Message {
                        from: 1,
                        to: 0,
                        payload,
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_psop, bench_ks, bench_psop_party_steps);
criterion_main!(benches);

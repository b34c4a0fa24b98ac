//! Supporting micro-benchmarks: the cryptographic primitives whose costs
//! drive Figures 8 and 9 (the paper: "the cryptographic operations tend to
//! be the major computational bottleneck").

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use indaas_bigint::{BigUint, Montgomery};
use indaas_crypto::{sha256, CommutativeCipher, PaillierKeypair};
use rand::SeedableRng;

fn bench_sha256(c: &mut Criterion) {
    let data = vec![0xa5u8; 1024];
    c.bench_function("crypto/sha256_1kb", |b| b.iter(|| sha256(&data)));
}

fn bench_commutative(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let cipher = CommutativeCipher::generate(&mut rng);
    let m = cipher.hash_to_group(b"core-router-17");
    c.bench_function("crypto/commutative_encrypt_1024", |b| {
        b.iter(|| cipher.encrypt(&m))
    });
}

fn bench_paillier(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let kp = PaillierKeypair::generate(1024, &mut rng);
    let m = BigUint::from_u64(0xdead_beef);
    let mut group = c.benchmark_group("crypto/paillier_1024");
    group.sample_size(10);
    group.bench_function("encrypt", |b| b.iter(|| kp.public().encrypt(&m, &mut rng)));
    let ct = kp.public().encrypt(&m, &mut rng);
    group.bench_function("decrypt", |b| b.iter(|| kp.decrypt(&ct)));
    group.bench_function("mul_const_64bit", |b| {
        b.iter(|| kp.public().mul_const(&ct, &BigUint::from_u64(123_456_789)))
    });
    group.finish();
}

fn bench_modpow(c: &mut Criterion) {
    let p = BigUint::from_hex(indaas_crypto::MODP_1024_HEX).unwrap();
    let base = BigUint::from_u64(0x1234_5678_9abc_def1);
    let exp = &p - &BigUint::from_u64(12345);
    // One context for every sample, as P-SOP holds one per party:
    // `BigUint::modpow` would fold its construction into each.
    let mont = Montgomery::new(&p).unwrap();
    c.bench_function("bigint/modpow_1024", |b| {
        b.iter(|| mont.modpow(&base, &exp))
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_commutative,
    bench_paillier,
    bench_modpow
);
criterion_main!(benches);

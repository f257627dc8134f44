//! Criterion micro-benchmarks for the arithmetic substrate: the fused
//! multiply-subtract-shift (the AEA inner loop), full division (the Fast
//! Euclid inner loop), multiplication, Montgomery modpow, and the
//! subquadratic dispatch ladder (NTT multiply, Newton division) against
//! the legacy schoolbook/Karatsuba/Knuth paths.

use bulkgcd_bigint::random::random_odd_bits;
use bulkgcd_bigint::{ops, thresholds, Montgomery};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_substrate(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);

    let mut group = c.benchmark_group("fused_submul_rshift");
    for bits in [512u64, 1024, 4096] {
        let x = random_odd_bits(&mut rng, bits);
        let y = random_odd_bits(&mut rng, bits - 40);
        group.bench_function(BenchmarkId::from_parameter(bits), |b| {
            b.iter_batched(
                || x.limbs().to_vec(),
                |mut xs| {
                    black_box(ops::fused_submul_rshift(
                        &mut xs,
                        y.limbs(),
                        0xdead_beef | 1,
                    ))
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    let mut group = c.benchmark_group("div_rem");
    for bits in [512u64, 1024] {
        let x = random_odd_bits(&mut rng, bits);
        let y = random_odd_bits(&mut rng, bits / 2);
        group.bench_function(BenchmarkId::from_parameter(bits), |b| {
            b.iter(|| black_box(x.div_rem(&y)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("mul");
    for bits in [512u64, 4096, 65_536] {
        let x = random_odd_bits(&mut rng, bits);
        let y = random_odd_bits(&mut rng, bits);
        group.bench_function(BenchmarkId::from_parameter(bits), |b| {
            b.iter(|| black_box(x.mul(&y)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("modpow");
    group.sample_size(10);
    for bits in [256u64, 512] {
        let m = random_odd_bits(&mut rng, bits);
        let base = random_odd_bits(&mut rng, bits - 1);
        let e = random_odd_bits(&mut rng, bits);
        let mont = Montgomery::new(&m);
        group.bench_function(BenchmarkId::new("montgomery_window", bits), |b| {
            b.iter(|| black_box(mont.pow_window(&base, &e)))
        });
        group.bench_function(BenchmarkId::new("montgomery_binary", bits), |b| {
            b.iter(|| black_box(mont.pow_binary(&base, &e)))
        });
        group.bench_function(BenchmarkId::new("naive", bits), |b| {
            b.iter(|| black_box(base.modpow_naive(&e, &m)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("square_vs_mul");
    for bits in [512u64, 4096] {
        let x = random_odd_bits(&mut rng, bits);
        group.bench_function(BenchmarkId::new("square", bits), |b| {
            b.iter(|| black_box(x.square()))
        });
        group.bench_function(BenchmarkId::new("mul_self", bits), |b| {
            let y = x.clone();
            b.iter(|| black_box(x.mul(&y)))
        });
    }
    group.finish();
}

/// The subquadratic ladder against the legacy kernels, one group per
/// operation, widths in limbs (32-bit words). The `legacy` arms pin every
/// cutoff to `usize::MAX` via [`thresholds::set_legacy_ladder`], so both
/// arms run the exact same driver code and differ only in dispatch.
fn bench_ladder(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(41);

    let mut group = c.benchmark_group("mul_ladder");
    group.sample_size(10);
    for limbs in [256u64, 1024, 4096, 8192] {
        let x = random_odd_bits(&mut rng, limbs * 32);
        let y = random_odd_bits(&mut rng, limbs * 32);
        group.bench_function(BenchmarkId::new("ladder", limbs), |b| {
            thresholds::reset_ladder();
            b.iter(|| black_box(x.mul(&y)))
        });
        group.bench_function(BenchmarkId::new("legacy", limbs), |b| {
            thresholds::set_legacy_ladder();
            b.iter(|| black_box(x.mul(&y)));
            thresholds::reset_ladder();
        });
    }
    group.finish();

    let mut group = c.benchmark_group("div_ladder");
    group.sample_size(10);
    for limbs in [1024u64, 4096, 8192] {
        let x = random_odd_bits(&mut rng, limbs * 64);
        let y = random_odd_bits(&mut rng, limbs * 32);
        group.bench_function(BenchmarkId::new("ladder", limbs), |b| {
            thresholds::reset_ladder();
            b.iter(|| black_box(x.div_rem(&y)))
        });
        group.bench_function(BenchmarkId::new("legacy", limbs), |b| {
            thresholds::set_legacy_ladder();
            b.iter(|| black_box(x.div_rem(&y)));
            thresholds::reset_ladder();
        });
    }
    group.finish();
}

criterion_group!(benches, bench_substrate, bench_ladder);
criterion_main!(benches);

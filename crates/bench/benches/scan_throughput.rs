//! Scan-pipeline throughput: the arena-backed zero-allocation CPU scan,
//! and the parallel simulated-GPU scan against its serial reference,
//! across corpus sizes.
//!
//! Run: `cargo bench -p bulkgcd-bench --bench scan_throughput`

use bulkgcd_bigint::Nat;
use bulkgcd_bulk::{GpuSimBackend, ModuliArena, ScanPipeline};
use bulkgcd_gpu::{CostModel, DeviceConfig};
use bulkgcd_rsa::build_corpus;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BITS: u64 = 128;
const SIZES: [usize; 3] = [16, 32, 64];

fn moduli_of(m: usize) -> Vec<Nat> {
    let mut rng = StdRng::seed_from_u64(0x5ca9 ^ m as u64);
    build_corpus(&mut rng, m, BITS, 2).moduli()
}

fn bench_cpu_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalar_scan");
    group.sample_size(10);
    for &m in &SIZES {
        let moduli = moduli_of(m);
        let arena = ModuliArena::try_from_moduli(&moduli).unwrap();
        group.bench_function(BenchmarkId::new("arena", m), |b| {
            b.iter(|| ScanPipeline::new(&arena).run().unwrap().scan.findings.len())
        });
    }
    group.finish();
}

fn bench_gpu_sim_scan(c: &mut Criterion) {
    let device = DeviceConfig::gtx_780_ti();
    let cost = CostModel::default();
    let mut group = c.benchmark_group("gpu_sim_scan");
    group.sample_size(10);
    for &m in &SIZES {
        let moduli = moduli_of(m);
        let arena = ModuliArena::try_from_moduli(&moduli).unwrap();
        let gpu_scan = |serial: bool| {
            ScanPipeline::new(&arena)
                .backend(GpuSimBackend {
                    device: device.clone(),
                    cost: cost.clone(),
                })
                .launch_pairs(64)
                .serial(serial)
                .run()
                .unwrap()
                .scan
                .simulated_seconds
        };
        group.bench_function(BenchmarkId::new("parallel", m), |b| {
            b.iter(|| gpu_scan(false))
        });
        group.bench_function(BenchmarkId::new("serial", m), |b| b.iter(|| gpu_scan(true)));
    }
    group.finish();
}

criterion_group!(benches, bench_cpu_scan, bench_gpu_sim_scan);
criterion_main!(benches);

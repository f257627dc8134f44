//! Golden-value pins for the scan pipeline.
//!
//! These tests pin the `ScanReport` of each backend configuration —
//! findings (indices, kinds, factors), pair counts, and the *bit pattern*
//! of the simulated-seconds sum — to golden values captured from the
//! original per-engine scan functions on a fixed seeded corpus. A pipeline
//! change that perturbs launch batching, warp alignment, merge order, or
//! the measured-WarpWork pricing path shows up here as a flipped f64 bit.
//! The corpus and tile fingerprints are pinned the same way.

use bulkgcd_bigint::Nat;
use bulkgcd_bulk::{
    corpus_fingerprint, tile_fingerprint, FaultPlan, Finding, FindingKind, GpuSimBackend,
    JournalHeader, LaunchRecord, LockstepBackend, ModuliArena, ScanJournal, ScanPipeline,
    ScanReport,
};
use bulkgcd_core::Algorithm;
use bulkgcd_gpu::{CostModel, DeviceConfig, RetryPolicy};
use bulkgcd_rsa::build_corpus;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pinned corpus: 12 moduli of 128 bits with 3 planted shared-prime
/// pairs (seed 0xfeed), plus a planted duplicate of modulus 4 — 13 moduli,
/// 78 unordered pairs.
fn pinned_moduli() -> Vec<Nat> {
    let mut rng = StdRng::seed_from_u64(0xfeed);
    let corpus = build_corpus(&mut rng, 12, 128, 3);
    let mut moduli = corpus.moduli();
    let dup = moduli[4].clone();
    moduli.push(dup);
    moduli
}

/// Golden findings captured from the original scan functions:
/// `(i, j, kind, factor-hex)` in (i, j) order.
const GOLDEN_FINDINGS: &[(usize, usize, FindingKind, &str)] = &[
    (0, 2, FindingKind::SharedPrime, "ddd59759e3e4a305"),
    (
        4,
        12,
        FindingKind::DuplicateModulus,
        "ab706e625f7666cd9cc59861f34d1def",
    ),
    (5, 8, FindingKind::SharedPrime, "fae3bc404a832b41"),
    (6, 7, FindingKind::SharedPrime, "f513b2f5303a970f"),
];

const GOLDEN_PAIRS: u64 = 78;
const GOLDEN_DUPLICATES: u64 = 1;

/// Bit pattern of the simulated-seconds sum for every GPU-sim path at
/// `launch_pairs = 7` on the pinned corpus.
const GOLDEN_GPU_SIM_BITS: u64 = 0x3f033455fba865da;

/// Bit pattern of the simulated-seconds sum for the faulted resumable run
/// (`with_transient(1, 2).with_persistent(3)`): launch 3 falls back to the
/// CPU and contributes no device seconds.
const GOLDEN_FAULTED_BITS: u64 = 0x3f01af2848558114;

fn assert_pinned(rep: &ScanReport, simulated_bits: Option<u64>, label: &str) {
    assert_eq!(rep.pairs_scanned, GOLDEN_PAIRS, "{label}: pairs_scanned");
    assert_eq!(
        rep.duplicate_pairs, GOLDEN_DUPLICATES,
        "{label}: duplicate_pairs"
    );
    assert_eq!(
        rep.findings.len(),
        GOLDEN_FINDINGS.len(),
        "{label}: finding count"
    );
    for (f, &(i, j, kind, hex)) in rep.findings.iter().zip(GOLDEN_FINDINGS) {
        assert_eq!((f.i, f.j), (i, j), "{label}: finding indices");
        assert_eq!(f.kind, kind, "{label}: finding kind for ({i},{j})");
        assert_eq!(f.factor.to_hex(), hex, "{label}: factor for ({i},{j})");
    }
    assert_eq!(
        rep.simulated_seconds.map(f64::to_bits),
        simulated_bits,
        "{label}: simulated_seconds bit pattern"
    );
}

fn gpu_backend() -> GpuSimBackend {
    GpuSimBackend {
        device: DeviceConfig::gtx_780_ti(),
        cost: CostModel::default(),
    }
}

#[test]
fn scalar_pins() {
    let arena = ModuliArena::try_from_moduli(&pinned_moduli()).unwrap();
    let rep = ScanPipeline::new(&arena)
        .algorithm(Algorithm::Approximate)
        .early(true)
        .run()
        .unwrap();
    assert_pinned(&rep.scan, None, "scalar");
}

#[test]
fn lockstep_pins() {
    let arena = ModuliArena::try_from_moduli(&pinned_moduli()).unwrap();
    let rep = ScanPipeline::new(&arena)
        .early(true)
        .backend(LockstepBackend::new(8))
        .run()
        .unwrap();
    assert_pinned(&rep.scan, None, "lockstep");
}

#[test]
fn gpu_sim_pins() {
    let arena = ModuliArena::try_from_moduli(&pinned_moduli()).unwrap();
    for serial in [false, true] {
        let rep = ScanPipeline::new(&arena)
            .algorithm(Algorithm::Approximate)
            .early(true)
            .backend(gpu_backend())
            .launch_pairs(7)
            .serial(serial)
            .run()
            .unwrap();
        assert_pinned(
            &rep.scan,
            Some(GOLDEN_GPU_SIM_BITS),
            &format!("gpu-sim (serial = {serial})"),
        );
    }
}

#[test]
fn gpu_sim_journaled_pins() {
    let arena = ModuliArena::try_from_moduli(&pinned_moduli()).unwrap();
    let journaled = |journal: &mut ScanJournal, plan: &FaultPlan| {
        ScanPipeline::new(&arena)
            .algorithm(Algorithm::Approximate)
            .early(true)
            .backend(gpu_backend())
            .launch_pairs(7)
            .journal(journal)
            .faults(plan)
            .retry(RetryPolicy::default())
            .run()
            .unwrap()
    };

    // Fault-free: identical to the plain GPU scan, 12 launches, no retries.
    let mut journal = ScanJournal::in_memory();
    let rep = journaled(&mut journal, &FaultPlan::none());
    assert_pinned(&rep.scan, Some(GOLDEN_GPU_SIM_BITS), "gpu-sim journaled");
    assert_eq!(rep.stats.total_launches, 12);
    assert_eq!(rep.stats.resumed_launches, 0);
    assert_eq!(rep.stats.executed_launches, 12);
    assert_eq!(rep.stats.retried_attempts, 0);
    assert_eq!(rep.stats.cpu_fallback_launches, 0);

    // Faulted: transient retries change nothing, the persistent launch
    // falls back to the CPU and drops its device seconds from the sum.
    let plan = FaultPlan::none().with_transient(1, 2).with_persistent(3);
    let mut journal = ScanJournal::in_memory();
    let rep = journaled(&mut journal, &plan);
    assert_pinned(
        &rep.scan,
        Some(GOLDEN_FAULTED_BITS),
        "gpu-sim journaled (faulted)",
    );
    assert_eq!(rep.stats.retried_attempts, 2);
    assert_eq!(rep.stats.cpu_fallback_launches, 1);
}

/// The metrics layer observes the same launches as the plain run: the
/// per-launch WarpWork it measures must sum to the pinned simulated clock,
/// bit for bit.
#[test]
fn metrics_agree_with_pinned_clock() {
    let arena = ModuliArena::try_from_moduli(&pinned_moduli()).unwrap();
    let rep = ScanPipeline::new(&arena)
        .backend(gpu_backend())
        .launch_pairs(7)
        .metrics()
        .run()
        .unwrap();
    assert_pinned(&rep.scan, Some(GOLDEN_GPU_SIM_BITS), "builder gpu-sim");
    let metrics = rep.metrics.unwrap();
    assert_eq!(metrics.total_launches, 12);
    assert_eq!(
        metrics.total_simulated_seconds().map(f64::to_bits),
        Some(GOLDEN_GPU_SIM_BITS),
        "per-launch metrics must sum to the pinned clock"
    );
    assert!(metrics.total_warps() > 0);
    assert!(metrics.total_warp_instructions() > 0.0);
    assert!(metrics.total_mem_transactions() > 0);
}

/// The corpus and tile fingerprints are bound into arena, journal and
/// ledger headers, so a change to either hash would orphan every file
/// already on disk.
#[test]
fn fingerprints_are_pinned() {
    let arena = ModuliArena::try_from_moduli(&pinned_moduli()).expect("pinned corpus");
    let corpus = format!("{:016x}", corpus_fingerprint(&arena));
    let mut journal = ScanJournal::in_memory();
    journal
        .check_compatible(&JournalHeader::for_scan(
            &arena,
            Algorithm::Approximate,
            true,
            16,
        ))
        .expect("fresh journal binds");
    for launch in [0, 3] {
        journal
            .record(LaunchRecord {
                launch,
                simulated_seconds: 0.1 + 0.2,
                cpu_fallback: launch == 3,
                findings: vec![Finding {
                    i: 0,
                    j: 2,
                    kind: FindingKind::SharedPrime,
                    factor: Nat::from_u64(0xdead_beef),
                }],
            })
            .expect("in-memory record");
    }
    let tile = format!("{:016x}", tile_fingerprint(&journal));
    assert_eq!(corpus, "147dfc3156d166e3");
    assert_eq!(tile, "4016c6c8b0436981");
}

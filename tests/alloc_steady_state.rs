//! Proof of the zero-allocation scan hot loop: a counting global allocator
//! wraps the system allocator, and the steady-state CPU scan loop (the
//! scalar backend's launch executor, exactly what the pipeline's workers
//! run, over every pair of the corpus) must perform **zero** heap
//! allocations after its warmup pass on a clean corpus.
//!
//! This file holds exactly one `#[test]` on purpose: the counter is global,
//! so a sibling test allocating on another harness thread would race it.

use bulkgcd_bulk::{
    batch_gcd_into, group_size_for, BatchScratch, ExecCtx, FaultPlan, GroupedPairs, ModuliArena,
    ScalarBackend, ScanBackend,
};
use bulkgcd_core::{Algorithm, Termination};
use bulkgcd_gpu::{simulate_bulk_gcd_retry, CostModel, DeviceConfig, RetryPolicy};
use bulkgcd_rsa::build_corpus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_scan_hot_loop_allocates_nothing() {
    // A clean corpus (no planted factors): every pair is coprime, so the
    // findings vector is never pushed to and the loop's only legitimate
    // allocation source is out of the picture.
    let mut rng = StdRng::seed_from_u64(42);
    let corpus = build_corpus(&mut rng, 16, 256, 0);
    let moduli = corpus.moduli();
    let arena = ModuliArena::try_from_moduli(&moduli).unwrap();
    let grid = GroupedPairs::new(arena.len(), group_size_for(arena.len()));
    let lanes: Vec<_> = grid.all_pairs().collect();

    for algo in [Algorithm::Approximate, Algorithm::FastBinary] {
        for early in [true, false] {
            // Worker-local scratch, exactly as the pipeline's workers hold it.
            let cx = ExecCtx {
                arena: &arena,
                algo,
                early,
            };
            let mut executor = ScalarBackend.executor(&cx);

            // Warmup: first pass sizes the workspace buffers (X, Y, and the
            // β>0 scratch) for this corpus width.
            let out = executor.execute(&cx, &lanes);
            assert!(
                out.findings.is_empty(),
                "clean corpus must yield no findings"
            );

            // Steady state: the full all-pairs sweep again, now warmed.
            let before = allocations();
            let out = executor.execute(&cx, &lanes);
            let after = allocations();
            assert!(out.findings.is_empty());
            assert_eq!(
                after - before,
                0,
                "steady-state scan loop allocated ({:?}, early={early})",
                algo
            );
        }
    }

    // Batch GCD (product tree + remainder tree): with a caller-held
    // `BatchScratch` every node buffer, division scratch, gcd workspace and
    // the leaf stage's lockstep engine is reused, so repeat batches over
    // same-shaped corpora are heap-free. The corpus stays at 64-bit moduli
    // so every node is below the subquadratic cutoffs, whose Newton rung
    // allocates internally by design.
    let mut rng = StdRng::seed_from_u64(7);
    let batch_corpus = build_corpus(&mut rng, 16, 64, 0);
    let batch_moduli = batch_corpus.moduli();
    let mut scratch = BatchScratch::new();
    let mut gcds = Vec::new();

    // Warmup sizes the tree levels, remainder ping-pong buffers and the
    // per-modulus division/gcd scratch for this corpus shape.
    batch_gcd_into(&batch_moduli, &mut scratch, &mut gcds);
    let expected: Vec<_> = gcds.clone();

    let before = allocations();
    batch_gcd_into(&batch_moduli, &mut scratch, &mut gcds);
    let after = allocations();
    assert_eq!(gcds, expected);
    assert!(gcds.iter().all(|g| g.is_one()), "clean corpus gcds are 1");
    assert_eq!(
        after - before,
        0,
        "steady-state batch_gcd_into allocated on a warmed scratch"
    );

    // NTT products: the twiddle tables are shared per prime and the
    // transform vectors are kept per thread, so a repeated wrapped product
    // at a transform size already seen allocates nothing.
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut limbs = |len: usize| -> Vec<u32> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u32
            })
            .collect()
    };
    let (a, b) = (limbs(4000), limbs(2048));
    let mut wrapped = vec![0u32; 4096];
    bulkgcd_bigint::ntt::mul_wrap_into(&mut wrapped, &a, &b);
    let expected = wrapped.clone();
    let before = allocations();
    for _ in 0..3 {
        bulkgcd_bigint::ntt::mul_wrap_into(&mut wrapped, &a, &b);
    }
    let after = allocations();
    assert_eq!(wrapped, expected);
    assert_eq!(
        after - before,
        0,
        "steady-state NTT mul_wrap_into allocated after its warm-up call"
    );

    // Retry path: failed attempts never reach the simulator, so a launch
    // that transiently faults twice before succeeding must allocate exactly
    // as much as a launch that succeeds first try — the fault lookup, the
    // retry loop and the backoff accounting are heap-free.
    let inputs: Vec<_> = (1..moduli.len())
        .map(|j| (moduli[0].as_limbs(), moduli[j].as_limbs()))
        .collect();
    let term = Termination::Early {
        threshold_bits: 128,
    };
    let device = DeviceConfig::gtx_780_ti();
    let cost = CostModel::default();
    let policy = RetryPolicy::default();
    let algo = Algorithm::Approximate;

    let clean = FaultPlan::none();
    // Warmup (lazy statics, first-use buffers), then measure the clean run.
    simulate_bulk_gcd_retry(&device, &cost, algo, &inputs, term, 0, &clean, &policy)
        .0
        .unwrap();
    let before = allocations();
    let (res, out) =
        simulate_bulk_gcd_retry(&device, &cost, algo, &inputs, term, 0, &clean, &policy);
    let clean_allocs = allocations() - before;
    assert!(res.is_ok());
    assert_eq!(out.attempts, 1);

    let flaky = FaultPlan::none().with_transient(0, 2);
    let before = allocations();
    let (res, out) =
        simulate_bulk_gcd_retry(&device, &cost, algo, &inputs, term, 0, &flaky, &policy);
    let retry_allocs = allocations() - before;
    assert!(res.is_ok(), "two transient faults must be retried away");
    assert_eq!(out.attempts, 3);
    assert!(out.backoff > std::time::Duration::ZERO);
    assert_eq!(
        retry_allocs, clean_allocs,
        "retrying a transient fault must add zero heap allocations"
    );
}

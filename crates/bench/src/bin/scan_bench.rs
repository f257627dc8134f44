//! Machine-readable scan-throughput benchmark: `BENCH_scan.json`.
//!
//! Measures pairs/second for the arena-backed CPU scan, the lockstep SIMT
//! host scan (against the scalar arena path), and the parallel
//! simulated-GPU scan (against its serial reference) across a corpus-size
//! × modulus-width grid, and writes one JSON report for tooling to diff
//! across commits. All scans run through the composable [`ScanPipeline`]
//! builder; a hand-written [`LockstepEngine`] loop that runs the same
//! warps is benched alongside it so the builder's composition overhead is
//! itself a measured quantity.
//!
//! A separate `batch_tree` section benches the [`ProductTreeBackend`]
//! remainder-tree scan at corpus sizes the all-pairs grid cannot afford
//! (`--batch-sizes 64,256,1024` at the widest benched moduli), with the
//! scalar all-pairs scan as an interleaved reference — and findings
//! identity asserted — up to `--batch-scalar-cap` keys. Its corpora are
//! generated once and cached under the cargo target directory
//! (`scan-bench-corpora/`, see [`batch_corpus`]).
//!
//! A `vector_pass` section times the lockstep vector pass alone
//! (`fused_submul_rshift_columns_prefix` with its register tail, 64 limb
//! rows of a 128-wide warp at two live prefixes) on every ISA path this
//! CPU can run, interleaved, in ns per lane-row; each grid row records the
//! `kernel_isa` the lockstep scans dispatched to. A `plan_lanes` section
//! times the lockstep planner alone the same way, in ns per lane, on
//! mid-run heads of a 128-wide warp at two live prefixes.
//!
//! Run: `cargo run --release -p bulkgcd-bench --bin scan_bench --
//!       [--sizes 16,32,64] [--bits 128,1024] [--reps 3] [--warp-width 32]
//!       [--batch-sizes 64,256,1024] [--out BENCH_scan.json]`
//!
//! Perf-regression gates (used by `scripts/check.sh`), both judged at the
//! largest corpus of the widest moduli benched. Every gated wall-clock
//! ratio is the *median of per-round ratios* from an interleaved timing
//! loop run on one rayon worker, so frequency scaling and throttle phases
//! that slow every contestant equally cancel out of the gate, and load
//! from other processes cannot land unevenly on parallel runs (the grid
//! rows' pairs/second are one-worker figures too):
//!
//! * `--gate-lockstep` fails the run (exit 1) if the lockstep scan's
//!   pairs/second fall below 0.95× the scalar arena path's;
//! * `--gate-pipeline` fails the run if the builder-composed lockstep
//!   pipeline falls below 0.98× a direct `LockstepEngine::run_warp` loop
//!   over the same pairs (`GroupedPairs::all_pairs` order, warp-aligned
//!   runs on rayon `map_init` workers, the `combine_terminations` fold per
//!   warp) — the builder must stay a zero-cost veneer;
//! * `--gate-compaction` fails the run if, at the largest 128-bit corpus,
//!   the compacted (queue-mode) lockstep scan's SIMT efficiency (mean
//!   active-lane occupancy, a deterministic function of the corpus) is
//!   less than 1.15× plain lockstep's; if the compacted scan's wall clock
//!   falls below a no-regression floor of 0.90× plain at the largest
//!   128-bit corpus (queue service costs a few percent there) or 0.95× at
//!   the largest 1024-bit corpus; or if, on any cell of the bench matrix,
//!   the auto-tuned backend falls below 0.90× the backend it resolved to
//!   (the scalar or the compacted scan, in the same rounds) or that
//!   backend falls below 0.90× the other of the two (a wrong resolution;
//!   a product-tree resolution has no contestant and is skipped). (On the
//!   host SIMD kernels masked lanes are nearly free, so reclaimed slots
//!   gate as occupancy, not wall clock — see DESIGN.md.)
//! * `--gate-ingest` fails the run if the streaming sanitizer's keys/s on
//!   an `--ingest-keys` (default 64k) synthetic hostile corpus fall below
//!   an absolute floor set ~5x under the reference box's measured rate,
//!   or if the measurement's peak-RSS delta (`VmHWM`) exceeds a generous
//!   corpus-footprint tripwire — the regression it exists to catch is the
//!   old sanitizer's habit of cloning every accepted modulus and storing
//!   every quarantined one. The measured cell lands in the JSON report's
//!   `ingest` section.
//!
//! Fault-injection smoke mode (used by `scripts/check.sh`): `--inject-faults
//! [--resume] [--fault-seed N]` runs the journaled pipeline under a seeded
//! fault plan — transient faults retried, persistent faults degraded to the
//! CPU path, kills resumed from the journal (with `--resume`) — and checks
//! the findings against an uninterrupted fault-free scan.

use bulkgcd_bench::Options;
use bulkgcd_bigint::{Limb, Nat};
use bulkgcd_bulk::{
    combine_terminations, group_size_for, run_sharded, AutoBackend, CompactionConfig, FaultPlan,
    GpuSimBackend, GroupedPairs, LockstepBackend, LockstepEngine, ModuliArena, ProductTreeBackend,
    ScanError, ScanJournal, ScanPipeline, ShardConfig, ShardFaultPlan, TilePlan,
};
use bulkgcd_core::lanes::{
    columns_on, head_words, plan_lanes_on, KernelIsa, LaneHeads, LanePlans, LaneState, PassScratch,
};
use bulkgcd_core::{kernel_isa, Algorithm, Termination};
use bulkgcd_gpu::{CostModel, DeviceConfig, RetryPolicy};
use bulkgcd_rsa::build_corpus;
use bulkgcd_rsa::{sanitize_moduli, StreamingSanitizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::time::Instant;

/// The moduli of `build_corpus` on `StdRng::seed_from_u64(seed)` with `m`
/// keys of `bits` bits and `weak` planted pairs: read from
/// `<target>/scan-bench-corpora/` when a file there was written for these
/// arguments, else generated and written there. The prime search costs
/// minutes at 2048 bits on one thread, the tree scan it feeds well under a
/// second. A file whose header, line count or modulus widths do not match
/// is generated again; a cache that cannot be written is only reported.
fn batch_corpus(seed: u64, m: usize, bits: u64, weak: usize) -> Vec<Nat> {
    let header =
        format!("# scan_bench batch corpus v1 seed={seed:#x} m={m} bits={bits} weak={weak}");
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("scan-bench-corpora")));
    let path = dir
        .as_ref()
        .map(|d| d.join(format!("batch-{seed:x}-{m}-{bits}-{weak}.txt")));
    if let Some(text) = path.as_ref().and_then(|p| std::fs::read_to_string(p).ok()) {
        let mut lines = text.lines();
        if lines.next() == Some(header.as_str()) {
            let moduli: Option<Vec<Nat>> = lines
                .map(|l| Nat::from_hex(l).ok().filter(|n| n.bit_len() == bits))
                .collect();
            if let Some(moduli) = moduli.filter(|v| v.len() == m) {
                return moduli;
            }
        }
    }
    eprintln!("batch corpus m={m} bits={bits}: generating (cached for later runs)");
    let moduli = build_corpus(&mut StdRng::seed_from_u64(seed), m, bits, weak).moduli();
    if let (Some(dir), Some(path)) = (dir, path) {
        let mut text = header;
        for n in &moduli {
            text.push('\n');
            text.push_str(&n.to_hex());
        }
        text.push('\n');
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&tmp, text))
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            eprintln!("batch corpus: not cached at {}: {e}", path.display());
        }
    }
    moduli
}

/// The `--gate-pipeline` reference: the plain lockstep scan written out by
/// hand. Pairs in `GroupedPairs::all_pairs` order, cut into warp-aligned
/// runs of the length `LockstepBackend` prefers, one run per rayon
/// `map_init` worker task, one `run_warp` per warp under the
/// `combine_terminations` fold of its lanes' early-termination thresholds,
/// findings sorted by `(i, j)` as the pipeline merges them. Returns the
/// finding count.
fn lockstep_direct(arena: &ModuliArena, w: usize) -> usize {
    let m = arena.len();
    let grid = GroupedPairs::new(m, group_size_for(m));
    let all: Vec<(usize, usize)> = grid.all_pairs().collect();
    let workers = rayon::current_num_threads().max(1);
    let run_len = all.len().div_ceil(workers).div_ceil(w).max(1) * w;
    let term_of = |i: usize, j: usize| Termination::Early {
        threshold_bits: arena.bit_len(i).min(arena.bit_len(j)) / 2,
    };
    let mut found: Vec<(usize, usize, Nat)> = all
        .par_chunks(run_len)
        .map_init(
            || (LockstepEngine::new(w), Vec::with_capacity(w)),
            |(engine, inputs), run| {
                let mut found = Vec::new();
                for warp in run.chunks(w) {
                    let term = combine_terminations(warp.iter().map(|&(i, j)| term_of(i, j)));
                    inputs.clear();
                    inputs.extend(warp.iter().map(|&(i, j)| (arena.limbs(i), arena.limbs(j))));
                    engine.run_warp(inputs, term);
                    for (t, &(i, j)) in warp.iter().enumerate() {
                        if let Some(factor) = engine.entry_factor(t) {
                            found.push((i, j, factor.clone()));
                        }
                    }
                }
                found
            },
        )
        .flatten()
        .collect();
    found.sort_by_key(|&(i, j, _)| (i, j));
    found.len()
}

/// Best-of-`reps` wall seconds for `f` (one warmup call first).
fn best_seconds<F: FnMut() -> usize>(reps: usize, mut f: F) -> (f64, usize) {
    let sink = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let got = std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
        assert_eq!(got, sink, "non-deterministic scan result");
    }
    (best, sink)
}

/// Interleaved per-round timing and the median-of-per-round-ratio
/// aggregation live in [`bulkgcd_bench::gate`], shared with `bigint_bench`.
/// Sub-millisecond cells are noise-dominated at any fixed rep count, so
/// [`round_times`] tops rounds up until the slowest contestant has
/// accumulated ~[`gate::GATE_SAMPLE_SECONDS`] of samples (capped at
/// [`gate::MAX_GATE_ROUNDS`]) — the gated ratios stay meaningful on tiny
/// corpora without slowing the big cells down.
use bulkgcd_bench::gate::{best_of, median, median_speedup, round_times};

/// One bench cell's measured quantities. Throughputs are best-of-rounds;
/// the `*_vs_*` ratios are medians of per-round ratios (see
/// [`round_times`]), which is what the gates judge.
#[derive(Clone, Copy)]
struct Cell {
    m: usize,
    bits: u64,
    cpu_tp: f64,
    ls_tp: f64,
    auto_tp: f64,
    ls_vs_cpu: f64,
    ls_vs_direct: f64,
    cls_vs_ls: f64,
    auto_name: &'static str,
    /// Auto against the contestant it resolved to, and that contestant
    /// against the other fixed one it chose between; `None` for a
    /// product-tree resolution, which has no contestant in the group.
    auto_vs_resolved: Option<f64>,
    resolved_vs_other: Option<f64>,
    ls_occ: f64,
    cls_occ: f64,
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.9}")
    } else {
        "null".to_string()
    }
}

/// The lockstep vector pass alone, on every ISA path this CPU can run:
/// `CALLS` passes over 64 limb rows of a 128-wide warp per sample, at a
/// full and a 32-lane live prefix, with the paths interleaved round by
/// round. Each pass includes its register tail, which updates the lane
/// registers (lengths, head words, selectors) that the next pass reads.
/// Rows report best-of-rounds ns per lane-row and the median per-round
/// speedup over the portable body; every path's planes, registers and
/// selectors must end bitwise equal to the portable body's.
fn bench_vector_pass(reps: usize) -> Vec<String> {
    const W: usize = 128;
    const ROWS: usize = 64;
    const CALLS: usize = 64;
    let isas: Vec<KernelIsa> = [KernelIsa::Avx512, KernelIsa::Avx2, KernelIsa::Portable]
        .into_iter()
        .filter(|isa| isa.available())
        .collect();
    let mut out = Vec::new();
    for lanes in [W, 32] {
        let mut rng = StdRng::seed_from_u64(0x7ec7 ^ lanes as u64);
        let mut limbs = |n: usize| -> Vec<Limb> { (0..n).map(|_| rng.gen::<u32>()).collect() };
        let (u0, v0) = (limbs(ROWS * W), limbs(ROWS * W));
        let alpha: Vec<Limb> = limbs(W).iter().map(|&r| r | 1).collect();
        let rs: Vec<u32> = limbs(W).iter().map(|&r| 1 + r % 31).collect();
        let mut heads0 = LaneHeads::new(W);
        heads0.sel = limbs(W).iter().map(|&r| (r & 1).wrapping_neg()).collect();
        heads0.lx.fill(ROWS as u32);
        heads0.ly = limbs(W).iter().map(|&r| ROWS as u32 - r % 2).collect();
        for h in [
            &mut heads0.xt,
            &mut heads0.xl,
            &mut heads0.yt,
            &mut heads0.yl,
        ] {
            *h = limbs(2 * W)
                .chunks(2)
                .map(|p| (p[0] as u64) << 32 | p[1] as u64)
                .collect();
        }
        let pass = |isa: KernelIsa, (u, v, heads): &mut (Vec<Limb>, Vec<Limb>, LaneHeads)| {
            let mut scratch = PassScratch::new(W);
            for _ in 0..CALLS {
                columns_on(isa, u, v, W, lanes, ROWS, &alpha, &rs, heads, &mut scratch);
            }
        };
        let start = || (u0.clone(), v0.clone(), heads0.clone());
        let mut states: Vec<_> = isas.iter().map(|_| start()).collect();
        let mut runs: Vec<_> = isas
            .iter()
            .zip(states.iter_mut())
            .map(|(&isa, state)| {
                move || {
                    pass(isa, state);
                    lanes
                }
            })
            .collect();
        let mut contestants: Vec<&mut dyn FnMut() -> usize> =
            runs.iter_mut().map(|f| f as _).collect();
        let (times, _) = round_times(reps, &mut contestants);
        let results: Vec<_> = isas
            .iter()
            .map(|&isa| {
                let mut state = start();
                pass(isa, &mut state);
                state
            })
            .collect();
        let portable = isas.len() - 1;
        let lane_rows = (CALLS * ROWS * lanes) as f64;
        for (i, isa) in isas.iter().enumerate() {
            assert!(
                results[i] == results[portable],
                "{} vector pass (planes, registers or selectors) differs from the portable \
                 body at lanes={lanes}",
                isa.name()
            );
            let ns = best_of(&times[i]) * 1e9 / lane_rows;
            let speedup = median_speedup(&times[portable], &times[i]);
            eprintln!(
                "vector pass {lanes}/{W} lanes x {ROWS} rows: {} {ns:.3} ns/lane-row \
                 (x{speedup:.2} vs portable)",
                isa.name()
            );
            out.push(format!(
                "    {{\"isa\": \"{}\", \"width\": {W}, \"lanes\": {lanes}, \"rows\": {ROWS}, \
                 \"ns_per_lane_row\": {}, \"vs_portable\": {}}}",
                isa.name(),
                json_f64(ns),
                json_f64(speedup),
            ));
        }
    }
    out
}

/// The lockstep planner alone, on every build this CPU can run: `CALLS`
/// plans of a 128-wide warp's registers per sample, at a full and a
/// 32-lane resident prefix, with the builds interleaved round by round.
/// The heads are mid-run ones: `lY` in 17..=64 limbs, `lX` equal to `lY`
/// or one longer, and about 2% of the lanes on the β > 0 path (Case 4-A
/// with `lX = lY + 1`); the rest plan fused and none terminates. Rows
/// report best-of-rounds ns per lane and the median per-round speedup
/// over the portable build; every build's `alpha`, `rs`, `fixups`,
/// `ended`, `rows` and `running` must equal the portable build's.
fn bench_plan_lanes(reps: usize) -> Vec<String> {
    const W: usize = 128;
    const CALLS: usize = 4096;
    // Below every `Y` here (at least 17 limbs), so no lane terminates.
    const THRESHOLD_BITS: u64 = 512;
    let mut out = Vec::new();
    for lanes in [W, 32] {
        let mut rng = StdRng::seed_from_u64(0x91a7 ^ lanes as u64);
        let mut heads = LaneHeads::new(W);
        for t in 0..W {
            let ly = rng.gen_range(17..=64usize);
            let lx = ly + rng.gen_range(0..2usize);
            let mut x: Vec<Limb> = (0..lx).map(|_| rng.gen()).collect();
            let mut y: Vec<Limb> = (0..ly).map(|_| rng.gen()).collect();
            (x[lx - 1], y[ly - 1]) = (x[lx - 1].max(1), y[ly - 1].max(1));
            if lx > ly {
                // x12 ≤ y12 is Case 4-B (β = 0); above it, 4-A with β = 1.
                let y12 = (y[ly - 1] as u64) << 32 | y[ly - 2] as u64;
                let x12 = if rng.gen_range(0..25) == 0 && y12 < u64::MAX {
                    rng.gen_range(y12 + 1..=u64::MAX)
                } else {
                    rng.gen_range(1 << 32..=y12)
                };
                (x[lx - 1], x[lx - 2]) = ((x12 >> 32) as Limb, x12 as Limb);
            } else if x.iter().rev().lt(y.iter().rev()) {
                std::mem::swap(&mut x, &mut y);
            }
            heads.set_x(t, lx, head_words(lx, |k| x[k]));
            heads.set_y(t, ly, head_words(ly, |k| y[k]));
        }
        let plan = |isa: KernelIsa, plans: &mut LanePlans| {
            let mut state = vec![LaneState::Running; W];
            (0..CALLS).all(|_| plan_lanes_on(isa, &heads, &mut state, lanes, THRESHOLD_BITS, plans))
        };
        let isas: Vec<KernelIsa> = [KernelIsa::Avx512, KernelIsa::Avx2, KernelIsa::Portable]
            .into_iter()
            .filter(|&isa| plan(isa, &mut LanePlans::new(W)))
            .collect();
        let mut plans: Vec<LanePlans> = isas.iter().map(|_| LanePlans::new(W)).collect();
        let mut runs: Vec<_> = isas
            .iter()
            .zip(plans.iter_mut())
            .map(|(&isa, plans)| {
                move || {
                    plan(isa, plans);
                    plans.rows
                }
            })
            .collect();
        let mut contestants: Vec<&mut dyn FnMut() -> usize> =
            runs.iter_mut().map(|f| f as _).collect();
        let (times, _) = round_times(reps, &mut contestants);
        let outputs = |p: &LanePlans| {
            (
                p.alpha.clone(),
                p.rs.clone(),
                p.fixups.clone(),
                p.ended.clone(),
                p.rows,
                p.running,
            )
        };
        let portable = isas.len() - 1;
        let per_lane = (CALLS * lanes) as f64;
        for (i, isa) in isas.iter().enumerate() {
            assert!(
                outputs(&plans[i]) == outputs(&plans[portable]),
                "{} planner differs from the portable build at lanes={lanes}",
                isa.name()
            );
            let ns = best_of(&times[i]) * 1e9 / per_lane;
            let speedup = median_speedup(&times[portable], &times[i]);
            eprintln!(
                "plan_lanes {lanes}/{W} lanes: {} {ns:.3} ns/lane (x{speedup:.2} vs portable)",
                isa.name()
            );
            out.push(format!(
                "    {{\"isa\": \"{}\", \"width\": {W}, \"lanes\": {lanes}, \
                 \"ns_per_lane\": {}, \"vs_portable\": {}}}",
                isa.name(),
                json_f64(ns),
                json_f64(speedup),
            ));
        }
    }
    out
}

/// The `--inject-faults` smoke run: drive the journaled pipeline through a
/// seeded fault plan and prove it lands on the fault-free findings.
fn fault_smoke(opts: &Options) {
    let m: usize = opts.get("keys", 24);
    let bits: u64 = opts.get("bits", 128);
    let launch_pairs: usize = opts.get("launch-pairs", 16);
    // The default seed's plan covers all three fault kinds: kills at
    // launch boundaries, retried transients and persistent→CPU fallbacks.
    let seed: u64 = opts.get("fault-seed", 7);
    let resume = opts.has("resume");
    opts.finish();
    let device = DeviceConfig::gtx_780_ti();
    let cost = CostModel::default();
    let policy = RetryPolicy::default();
    let algo = Algorithm::Approximate;

    let mut rng = StdRng::seed_from_u64(seed);
    let moduli = build_corpus(&mut rng, m, bits, 2).moduli();
    let arena = ModuliArena::try_from_moduli(&moduli).expect("corpus is non-degenerate");
    let launches = ((m * (m - 1) / 2) as u64).div_ceil(launch_pairs as u64);
    let gpu_backend = || GpuSimBackend {
        device: device.clone(),
        cost: cost.clone(),
    };
    let baseline = ScanPipeline::new(&arena)
        .algorithm(algo)
        .backend(gpu_backend())
        .launch_pairs(launch_pairs)
        .run()
        .expect("fault-free baseline scan")
        .scan;

    let mut plan = FaultPlan::seeded(seed, launches);
    eprintln!(
        "fault smoke: {m} keys, {launches} launches, {} faulted ({} kills), resume={resume}",
        plan.len(),
        plan.kill_launches().count(),
    );
    let mut journal = ScanJournal::in_memory();
    let mut crashes = 0u32;
    let report = loop {
        let attempt = ScanPipeline::new(&arena)
            .algorithm(algo)
            .backend(gpu_backend())
            .launch_pairs(launch_pairs)
            .journal(&mut journal)
            .faults(&plan)
            .retry(policy)
            .run();
        match attempt {
            Ok(rep) => break rep,
            Err(ScanError::Interrupted { launch }) if resume => {
                // The process "crashed" at this launch boundary; a restart
                // sees the same journal but the crash does not recur.
                crashes += 1;
                plan = plan.without_kill_at(launch);
                eprintln!("  killed at launch {launch}; resuming from journal");
            }
            Err(e) => {
                eprintln!("error: fault smoke failed: {e} (rerun with --resume?)");
                std::process::exit(1);
            }
        }
    };

    assert_eq!(
        report.scan.findings, baseline.findings,
        "resumed scan must reproduce the fault-free findings"
    );
    let s = &report.stats;
    eprintln!(
        "  survived {crashes} crash(es): {}/{} launches resumed from journal, \
         {} retried attempts, {} CPU fallbacks, {:?} total backoff",
        s.resumed_launches,
        s.total_launches,
        s.retried_attempts,
        s.cpu_fallback_launches,
        s.backoff,
    );
    println!(
        "fault smoke OK: {} findings match the fault-free scan",
        report.scan.findings.len()
    );
}

/// The `--shards --inject-faults` smoke: run the full shard protocol —
/// tile plan, lease ledger, worker deaths, torn journals, lease losses,
/// duplicate completions, all from a seeded [`ShardFaultPlan`] — and
/// prove the merged report matches the unsharded fault-free scan bit for
/// bit (findings and the f64 simulated-seconds sum). Resume is inherent
/// to the protocol (dead workers' tiles are reclaimed and resumed from
/// their journals), so `--resume` is accepted and implied.
fn shard_smoke(opts: &Options) {
    let m: usize = opts.get("keys", 24);
    let bits: u64 = opts.get("bits", 128);
    let launch_pairs: usize = opts.get("launch-pairs", 16);
    let shards: usize = opts.get("shards", 4);
    let seed: u64 = opts.get("fault-seed", 7);
    // Implied: see above.
    opts.has("resume");
    opts.finish();
    let algo = Algorithm::Approximate;
    let device = DeviceConfig::gtx_780_ti();
    let cost = CostModel::default();

    let mut rng = StdRng::seed_from_u64(seed);
    let moduli = build_corpus(&mut rng, m, bits, 2).moduli();
    let arena = ModuliArena::try_from_moduli(&moduli).expect("corpus is non-degenerate");
    let gpu_backend = || GpuSimBackend {
        device: device.clone(),
        cost: cost.clone(),
    };
    let baseline = ScanPipeline::new(&arena)
        .algorithm(algo)
        .backend(gpu_backend())
        .launch_pairs(launch_pairs)
        .run()
        .expect("fault-free baseline scan")
        .scan;

    let plan = TilePlan::new(m, launch_pairs, shards);
    let faults = ShardFaultPlan::seeded(seed, plan.len() as u64);
    eprintln!(
        "shard smoke: {m} keys, {} launches in {} tiles, {} tile faults injected",
        plan.launches(),
        plan.len(),
        faults.len(),
    );
    let mut config = ShardConfig::new(shards, launch_pairs);
    config.algo = algo;
    config.serial = true;
    let report = match run_sharded(&arena, &config, &faults, gpu_backend) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("error: shard smoke failed: {e}");
            std::process::exit(1);
        }
    };

    assert_eq!(
        report.scan.findings, baseline.findings,
        "sharded scan must reproduce the unsharded findings"
    );
    assert_eq!(
        report.scan.simulated_seconds.map(f64::to_bits),
        baseline.simulated_seconds.map(f64::to_bits),
        "sharded simulated-seconds sum must match the unsharded run bit for bit"
    );
    let s = &report.stats;
    eprintln!(
        "  survived {} worker death(s) ({} torn journals), {} lease loss(es), \
         {} duplicate completion(s); {} attempts, {} launches executed, {} resumed",
        s.worker_deaths,
        s.torn_journals,
        s.lease_losses,
        s.duplicate_completions,
        s.worker_attempts,
        s.executed_launches,
        s.resumed_launches,
    );
    println!(
        "shard smoke OK: {} findings and simulated seconds match the unsharded scan",
        report.scan.findings.len()
    );
}

/// The `--gate-shards` efficiency gate. This box may be single-core, so
/// the gate judges *serial work*, not wall-clock parallelism: it times the
/// unsharded serial scan against each tile's serial scan (interleaved, per
/// round) and requires
/// `t_unsharded / (shards × max_tile_time) >= EFFICIENCY_FLOOR` — i.e.
/// sharding must not inflate any tile's work by more than the tile-size
/// imbalance plus a small per-shard overhead budget.
fn gate_shards(opts: &Options) {
    // Defaults chosen so the launch count (64·63/2 / 126 = 16) divides the
    // shard count evenly: the gate then measures per-shard *overhead*, not
    // the structural ceiling a ragged tile plan imposes.
    let m: usize = opts.get("keys", 64);
    let bits: u64 = opts.get("bits", 256);
    let launch_pairs: usize = opts.get("launch-pairs", 126);
    let shards: usize = opts.get("shards", 4);
    let reps: usize = opts.get("reps", 3);
    opts.finish();
    const EFFICIENCY_FLOOR: f64 = 0.80;
    let algo = Algorithm::Approximate;
    let device = DeviceConfig::gtx_780_ti();
    let cost = CostModel::default();

    let mut rng = StdRng::seed_from_u64(0x5ca9 ^ m as u64 ^ (bits << 17));
    let moduli = build_corpus(&mut rng, m, bits, 2).moduli();
    let arena = ModuliArena::try_from_moduli(&moduli).expect("gate corpus is non-degenerate");
    let plan = TilePlan::new(m, launch_pairs, shards);
    assert!(
        plan.len() == shards,
        "gate corpus too small: {} launches yield {} tiles, wanted {shards}",
        plan.launches(),
        plan.len()
    );
    let scan_tile = |tile: Option<bulkgcd_bulk::Tile>| {
        let mut pipeline = ScanPipeline::new(&arena)
            .algorithm(algo)
            .backend(GpuSimBackend {
                device: device.clone(),
                cost: cost.clone(),
            })
            .launch_pairs(launch_pairs)
            .serial(true);
        if let Some(t) = tile {
            pipeline = pipeline.tile(t);
        }
        pipeline.run().expect("gate scan").scan.findings.len()
    };

    let mut run_full = || scan_tile(None);
    let mut tile_runs: Vec<Box<dyn FnMut() -> usize>> = plan
        .tiles()
        .iter()
        .map(|&t| Box::new(move || scan_tile(Some(t))) as Box<dyn FnMut() -> usize>)
        .collect();
    let mut contestants: Vec<&mut dyn FnMut() -> usize> = vec![&mut run_full];
    contestants.extend(
        tile_runs
            .iter_mut()
            .map(|b| b.as_mut() as &mut dyn FnMut() -> usize),
    );
    let (times, sinks) = round_times(reps, &mut contestants);

    let tile_findings: usize = sinks[1..].iter().sum();
    assert_eq!(
        tile_findings, sinks[0],
        "per-tile findings must sum to the unsharded scan's"
    );

    // Per-round efficiency: every sample of a ratio is taken in the same
    // round, so throttle phases cancel out of the gated median.
    let rounds = times[0].len();
    let efficiency = median(
        (0..rounds)
            .map(|r| {
                let worst_tile = times[1..].iter().map(|ts| ts[r]).fold(0.0f64, f64::max);
                times[0][r] / (shards as f64 * worst_tile)
            })
            .collect(),
    );
    if efficiency < EFFICIENCY_FLOOR {
        eprintln!(
            "GATE FAIL: per-shard efficiency {efficiency:.3} < {EFFICIENCY_FLOOR} at \
             m={m}, bits={bits}, {shards} shards ({} launches)",
            plan.launches()
        );
        std::process::exit(1);
    }
    eprintln!(
        "gate OK: per-shard efficiency {efficiency:.3} >= {EFFICIENCY_FLOOR} at \
         m={m}, bits={bits}, {shards} shards ({} launches)",
        plan.launches()
    );
}

/// Peak-RSS high-water mark (`VmHWM`) in KiB from `/proc/self/status`, or
/// `None` off Linux. A process-lifetime high-water mark only ever grows,
/// so callers probe it before and after the phase they care about and
/// judge the delta.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Synthetic raw ingest corpus: full-width odd rows from a seeded
/// splitmix64 stream, with quarantine bait woven in at 4/16 (a zero, an
/// even, an undersized value and a duplicate of the preceding accepted
/// row per 16) so the sanitizer's reject and dedup paths run at bench
/// scale. Real keygen would dwarf the ingest being measured, and the
/// sanitizer cannot tell a random odd integer from an RSA modulus.
fn synthetic_raw_corpus(m: usize, bits: u64, seed: u64) -> Vec<Nat> {
    let limbs = bits.div_ceil(32).max(1) as usize;
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut full_width_row = |odd: bool| {
        let mut row: Vec<u32> = (0..limbs).map(|_| next() as u32).collect();
        row[0] = if odd { row[0] | 1 } else { row[0] & !1 };
        *row.last_mut().expect("at least one limb") |= 1 << 31;
        Nat::from_limb_slice(&row)
    };
    let mut raw: Vec<Nat> = Vec::with_capacity(m);
    for k in 0..m {
        let n = match k % 16 {
            0 => Nat::default(),              // zero → quarantined
            1 => full_width_row(false),       // even → quarantined
            2 => Nat::from(0xffff_fffbu32),   // undersized → quarantined
            8 if k > 0 => raw[k - 1].clone(), // duplicate of an accepted row
            _ => full_width_row(true),
        };
        raw.push(n);
    }
    raw
}

/// One measured ingest cell: streaming and borrowed sanitization over the
/// same hostile corpus, interleaved per round, plus the peak-RSS delta the
/// whole measurement added.
struct IngestCell {
    m: usize,
    bits: u64,
    accepted: usize,
    rejected: usize,
    streaming_s: f64,
    borrowed_s: f64,
    streaming_keys_per_sec: f64,
    borrowed_keys_per_sec: f64,
    hwm_delta_kb: u64,
}

fn bench_ingest(m: usize, bits: u64, reps: usize) -> IngestCell {
    let min_bits = bits; // rows are generated full-width; the floor binds
    let raw = synthetic_raw_corpus(m, bits, 0x1956_e57a_11ab_cdefu64);
    let rejected = std::cell::Cell::new(0usize);
    let hwm_before = vm_hwm_kb().unwrap_or(0);
    // Streaming mode owns its rows; the per-row clone below stands in for
    // the parse that produces an owned Nat on the real ingest path.
    let mut run_streaming = || {
        let mut s = StreamingSanitizer::new(min_bits);
        for n in &raw {
            s.push(n.clone());
        }
        let (accepted, report) = s.finish();
        rejected.set(report.rejected.len());
        std::hint::black_box(&report);
        accepted.len()
    };
    let mut run_borrowed = || sanitize_moduli(&raw, min_bits).accepted_count();
    let (times, sinks) = round_times(reps, &mut [&mut run_streaming, &mut run_borrowed]);
    assert_eq!(
        sinks[0], sinks[1],
        "streaming and borrowed sanitization disagree on the accepted count"
    );
    let hwm_after = vm_hwm_kb().unwrap_or(hwm_before);
    let (streaming_s, borrowed_s) = (best_of(&times[0]), best_of(&times[1]));
    IngestCell {
        m,
        bits,
        accepted: sinks[0],
        rejected: rejected.get(),
        streaming_s,
        borrowed_s,
        streaming_keys_per_sec: m as f64 / streaming_s,
        borrowed_keys_per_sec: m as f64 / borrowed_s,
        hwm_delta_kb: hwm_after.saturating_sub(hwm_before),
    }
}

fn main() {
    let opts = Options::from_env();
    if opts.has("inject-faults") {
        if opts.get::<usize>("shards", 0) > 0 {
            shard_smoke(&opts);
        } else {
            fault_smoke(&opts);
        }
        return;
    }
    if opts.has("gate-shards") {
        gate_shards(&opts);
        return;
    }
    let sizes = opts.get_list("sizes", &[16, 32, 64]);
    let bits_list = opts.get_list("bits", &[128, 1024]);
    let reps: usize = opts.get("reps", 3);
    let out: String = opts.get("out", "BENCH_scan.json".to_string());
    let launch_pairs: usize = opts.get("launch-pairs", 256);
    let warp_width: usize = opts.get("warp-width", 32);
    let gate_lockstep = opts.has("gate-lockstep");
    let gate_pipeline = opts.has("gate-pipeline");
    let gate_compaction = opts.has("gate-compaction");
    let gate_ingest = opts.has("gate-ingest");
    let batch_sizes = opts.get_list("batch-sizes", &[64, 256, 1024]);
    let batch_bits: u64 = opts.get(
        "batch-bits",
        bits_list.iter().copied().max().unwrap_or(1024),
    );
    let batch_scalar_cap: usize = opts.get("batch-scalar-cap", 256);
    let ingest_m: usize = opts.get("ingest-keys", 65_536);
    let ingest_bits: u64 = opts.get("ingest-bits", 128);
    opts.finish();
    let device = DeviceConfig::gtx_780_ti();
    let cost = CostModel::default();
    let algo = Algorithm::Approximate;
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-worker pool");

    let mut rows = Vec::new();
    // Every cell's throughputs, gated ratios and occupancy, for the gates
    // and the 128-bit deficit report.
    let mut cells: Vec<Cell> = Vec::new();
    for &bits in &bits_list {
        for &m in &sizes {
            let m = m as usize;
            let mut rng = StdRng::seed_from_u64(0x5ca9 ^ m as u64 ^ (bits << 17));
            let moduli = build_corpus(&mut rng, m, bits, 2).moduli();
            let arena =
                ModuliArena::try_from_moduli(&moduli).expect("bench corpus is non-degenerate");
            let pairs = (m * (m - 1) / 2) as f64;

            let auto_backend = || AutoBackend::new(warp_width);

            // The four contestants of the gated ratios run interleaved so
            // drift cannot favor whichever happened to run last.
            let mut run_cpu = || {
                ScanPipeline::new(&arena)
                    .algorithm(algo)
                    .run()
                    .expect("scalar pipeline scan")
                    .scan
                    .findings
                    .len()
            };
            let mut run_ls = || {
                ScanPipeline::new(&arena)
                    .backend(LockstepBackend::new(warp_width))
                    .run()
                    .expect("lockstep pipeline scan")
                    .scan
                    .findings
                    .len()
            };
            let mut run_cls = || {
                ScanPipeline::new(&arena)
                    .backend(
                        LockstepBackend::new(warp_width)
                            .with_compaction(CompactionConfig::default()),
                    )
                    .run()
                    .expect("compacted lockstep pipeline scan")
                    .scan
                    .findings
                    .len()
            };
            let mut run_auto = || {
                ScanPipeline::new(&arena)
                    .backend(auto_backend())
                    .run()
                    .expect("auto pipeline scan")
                    .scan
                    .findings
                    .len()
            };
            // The hand-written lockstep loop joins the interleaved group:
            // `--gate-pipeline` compares it against the builder path, so
            // both must be timed in the same rounds.
            let mut run_direct = || lockstep_direct(&arena, warp_width);
            // The gated group runs on one worker, as `e2e_bench` runs its
            // scans: on a small shared host, load from other processes
            // lands unevenly on parallel runs and no interleaving cancels
            // that out.
            let (times, sinks) = one_thread.install(|| {
                round_times(
                    reps,
                    &mut [
                        &mut run_cpu,
                        &mut run_ls,
                        &mut run_cls,
                        &mut run_auto,
                        &mut run_direct,
                    ],
                )
            });
            let [cpu_found, ls_found, cls_found, auto_found, direct_found] = sinks[..] else {
                unreachable!("five contestants in, five results out");
            };
            let (cpu_ts, ls_ts, cls_ts, auto_ts, direct_ts) =
                (&times[0], &times[1], &times[2], &times[3], &times[4]);
            let (cpu_s, ls_s, cls_s, auto_s, direct_ls_s) = (
                best_of(cpu_ts),
                best_of(ls_ts),
                best_of(cls_ts),
                best_of(auto_ts),
                best_of(direct_ts),
            );
            let ls_vs_cpu = median_speedup(cpu_ts, ls_ts);
            let ls_vs_direct = median_speedup(direct_ts, ls_ts);
            let cls_vs_ls = median_speedup(ls_ts, cls_ts);
            let auto_name = ScanPipeline::new(&arena)
                .backend(auto_backend())
                .metrics()
                .run()
                .expect("auto metrics scan")
                .metrics
                .expect("metrics layer collects")
                .backend;
            // Round times of the contestant auto resolved to and of the
            // other fixed one it chose between. Each ratio below pairs two
            // contestants round by round: a per-round minimum over several
            // is biased low under noise.
            let resolved = match auto_name {
                "auto:scalar" => Some((cpu_ts, cls_ts)),
                "auto:lockstep-compact" => Some((cls_ts, cpu_ts)),
                _ => None,
            };
            let auto_vs_resolved = resolved.map(|(chosen, _)| median_speedup(chosen, auto_ts));
            let resolved_vs_other = resolved.map(|(chosen, other)| median_speedup(other, chosen));
            assert_eq!(ls_found, cpu_found, "lockstep and arena scans disagree");
            assert_eq!(
                cls_found, cpu_found,
                "compacted lockstep and arena scans disagree"
            );
            assert_eq!(auto_found, cpu_found, "auto and arena scans disagree");
            assert_eq!(direct_found, ls_found, "builder and direct paths disagree");

            // Occupancy accounting (untimed): what fraction of issued warp
            // slots held live lanes, and how often the queue compacted.
            let occupancy_of = |backend: LockstepBackend| {
                let metrics = ScanPipeline::new(&arena)
                    .backend(backend)
                    .metrics()
                    .run()
                    .expect("lockstep metrics scan")
                    .metrics
                    .expect("metrics layer collects");
                (
                    metrics.mean_occupancy().unwrap_or(f64::NAN),
                    metrics.total_compactions(),
                    metrics.total_refills(),
                )
            };
            let (ls_occ, _, _) = occupancy_of(LockstepBackend::new(warp_width));
            let (cls_occ, cls_compactions, cls_refills) = occupancy_of(
                LockstepBackend::new(warp_width).with_compaction(CompactionConfig::default()),
            );

            let gpu_pipeline = |serial: bool| {
                ScanPipeline::new(&arena)
                    .algorithm(algo)
                    .backend(GpuSimBackend {
                        device: device.clone(),
                        cost: cost.clone(),
                    })
                    .launch_pairs(launch_pairs)
                    .serial(serial)
                    .run()
                    .expect("gpu-sim pipeline scan")
                    .scan
            };
            let (gpu_s, _) = best_seconds(reps, || gpu_pipeline(false).findings.len());
            let par = gpu_pipeline(false);
            let ser = gpu_pipeline(true);
            let par_sim = par.simulated().expect("gpu-sim scans price launches");
            let ser_sim = ser.simulated().expect("gpu-sim scans price launches");
            let parallel_matches_serial = par.findings == ser.findings
                && (par_sim - ser_sim).abs() <= 1e-12 * ser_sim.max(1.0);

            eprintln!(
                "m={m} bits={bits}: cpu {:.0} pairs/s, \
                 lockstep {:.0} pairs/s (x{:.2} vs cpu, x{:.2} vs direct, occ {:.2}), \
                 compact {:.0} pairs/s (x{:.2} vs plain, occ {:.2}, \
                 {cls_compactions} compactions, {cls_refills} refills), \
                 auto[{auto_name}] {:.0} pairs/s, \
                 gpu-sim host {:.0} pairs/s, simulated {:.3e} s, \
                 parallel==serial: {parallel_matches_serial}",
                pairs / cpu_s,
                pairs / ls_s,
                ls_vs_cpu,
                ls_vs_direct,
                ls_occ,
                pairs / cls_s,
                cls_vs_ls,
                cls_occ,
                pairs / auto_s,
                pairs / gpu_s,
                par_sim,
            );

            cells.push(Cell {
                m,
                bits,
                cpu_tp: pairs / cpu_s,
                ls_tp: pairs / ls_s,
                auto_tp: pairs / auto_s,
                ls_vs_cpu,
                ls_vs_direct,
                cls_vs_ls,
                auto_name,
                auto_vs_resolved,
                resolved_vs_other,
                ls_occ,
                cls_occ,
            });

            rows.push(format!(
                concat!(
                    "    {{\"m\": {m}, \"bits\": {bits}, \"pairs\": {pairs}, \"findings\": {found},\n",
                    "     \"cpu_arena_seconds\": {cpu_s}, \"cpu_arena_pairs_per_sec\": {cpu_tp},\n",
                    "     \"lockstep_seconds\": {ls_s}, \"lockstep_pairs_per_sec\": {ls_tp},\n",
                    "     \"lockstep_vs_cpu_speedup\": {ls_speedup},\n",
                    "     \"lockstep_direct_seconds\": {dls_s}, \"lockstep_direct_pairs_per_sec\": {dls_tp},\n",
                    "     \"pipeline_vs_direct\": {pvd},\n",
                    "     \"lockstep_occupancy\": {ls_occ},\n",
                    "     \"lockstep_compact_seconds\": {cls_s}, \"lockstep_compact_pairs_per_sec\": {cls_tp},\n",
                    "     \"lockstep_compact_vs_plain\": {cvp}, \"lockstep_compact_occupancy\": {cls_occ},\n",
                    "     \"lockstep_compact_compactions\": {ccount}, \"lockstep_compact_refills\": {rcount},\n",
                    "     \"auto_seconds\": {auto_s}, \"auto_pairs_per_sec\": {auto_tp},\n",
                    "     \"auto_backend\": \"{auto_name}\", \"auto_vs_resolved\": {avr},\n",
                    "     \"gpu_sim_host_seconds\": {gpu_s}, \"gpu_sim_host_pairs_per_sec\": {gpu_tp},\n",
                    "     \"gpu_sim_simulated_seconds\": {sim}, \"gpu_sim_parallel_matches_serial\": {ok},\n",
                    "     \"kernel_isa\": \"{isa}\"}}"
                ),
                m = m,
                bits = bits,
                pairs = pairs as u64,
                found = cpu_found,
                cpu_s = json_f64(cpu_s),
                cpu_tp = json_f64(pairs / cpu_s),
                ls_s = json_f64(ls_s),
                ls_tp = json_f64(pairs / ls_s),
                ls_speedup = json_f64(ls_vs_cpu),
                dls_s = json_f64(direct_ls_s),
                dls_tp = json_f64(pairs / direct_ls_s),
                pvd = json_f64(ls_vs_direct),
                ls_occ = json_f64(ls_occ),
                cls_s = json_f64(cls_s),
                cls_tp = json_f64(pairs / cls_s),
                cvp = json_f64(cls_vs_ls),
                cls_occ = json_f64(cls_occ),
                ccount = cls_compactions,
                rcount = cls_refills,
                auto_s = json_f64(auto_s),
                auto_tp = json_f64(pairs / auto_s),
                auto_name = auto_name,
                avr = json_f64(auto_vs_resolved.unwrap_or(f64::NAN)),
                gpu_s = json_f64(gpu_s),
                gpu_tp = json_f64(pairs / gpu_s),
                sim = json_f64(par_sim),
                ok = parallel_matches_serial,
                isa = kernel_isa(),
            ));
        }
    }

    // Batch product-tree rows. The remainder-tree scan does O(m log² m)
    // arithmetic against the all-pairs O(m²), so its advantage only shows
    // at corpus sizes the interleaved all-pairs contestants above cannot
    // afford to bench — these rows run [`ProductTreeBackend`] alone at
    // larger `m` (riding the subquadratic `bigint` ladder), with the
    // scalar all-pairs scan as an interleaved reference up to
    // `--batch-scalar-cap` keys and findings identity asserted wherever
    // the reference runs.
    let mut batch_rows = Vec::new();
    for &m in &batch_sizes {
        let m = m as usize;
        let moduli = batch_corpus(0x5ca9 ^ m as u64 ^ (batch_bits << 17), m, batch_bits, 4);
        let arena = ModuliArena::try_from_moduli(&moduli).expect("bench corpus is non-degenerate");
        let pairs = (m * (m - 1) / 2) as f64;

        let tree_scan = || {
            ScanPipeline::new(&arena)
                .backend(ProductTreeBackend { parallel: false })
                .run()
                .expect("product-tree pipeline scan")
                .scan
        };
        let scalar_scan = || {
            ScanPipeline::new(&arena)
                .algorithm(algo)
                .run()
                .expect("scalar pipeline scan")
                .scan
        };

        let (tree_s, scalar_s, tree_vs_scalar, found, matches) = if m <= batch_scalar_cap {
            // Same drift-cancelling treatment as the main grid: the tree
            // and its scalar reference run interleaved, and the reported
            // ratio is the median of per-round ratios.
            let mut run_tree = || tree_scan().findings.len();
            let mut run_scalar = || scalar_scan().findings.len();
            let (times, sinks) = round_times(reps, &mut [&mut run_tree, &mut run_scalar]);
            let matches = tree_scan().findings == scalar_scan().findings;
            assert!(
                matches,
                "product-tree and scalar scans disagree at m={m}, bits={batch_bits}"
            );
            (
                best_of(&times[0]),
                best_of(&times[1]),
                median_speedup(&times[1], &times[0]),
                sinks[0],
                Some(matches),
            )
        } else {
            let (tree_s, found) = best_seconds(reps, || tree_scan().findings.len());
            (tree_s, f64::NAN, f64::NAN, found, None)
        };

        eprintln!(
            "batch m={m} bits={batch_bits}: product-tree {:.0} pairs/s ({found} findings){}",
            pairs / tree_s,
            if let Some(matches) = matches {
                format!(
                    ", scalar {:.0} pairs/s, tree x{tree_vs_scalar:.2} vs scalar, \
                     findings match: {matches}",
                    pairs / scalar_s
                )
            } else {
                String::from(", scalar reference skipped (above --batch-scalar-cap)")
            }
        );

        batch_rows.push(format!(
            concat!(
                "    {{\"m\": {m}, \"bits\": {bits}, \"pairs\": {pairs}, \"findings\": {found},\n",
                "     \"tree_seconds\": {tree_s}, \"tree_pairs_per_sec\": {tree_tp},\n",
                "     \"scalar_seconds\": {scalar_s}, \"scalar_pairs_per_sec\": {scalar_tp},\n",
                "     \"tree_vs_scalar\": {tvs}, \"findings_match_scalar\": {ok}}}"
            ),
            m = m,
            bits = batch_bits,
            pairs = pairs as u64,
            found = found,
            tree_s = json_f64(tree_s),
            tree_tp = json_f64(pairs / tree_s),
            scalar_s = json_f64(scalar_s),
            scalar_tp = json_f64(pairs / scalar_s),
            tvs = json_f64(tree_vs_scalar),
            ok = matches.map_or("null".to_string(), |b| b.to_string()),
        ));
    }

    let vector_rows = bench_vector_pass(reps);
    let plan_rows = bench_plan_lanes(reps);

    // Ingest throughput: the streaming sanitizer (owned rows, fingerprint
    // dedup, rank/select acceptance index) against borrowed-mode
    // `sanitize_moduli`, on an m=64k synthetic hostile corpus by default.
    let ingest = bench_ingest(ingest_m, ingest_bits, reps);
    eprintln!(
        "ingest m={} bits={}: streaming {:.0} keys/s, borrowed {:.0} keys/s \
         ({} accepted, {} quarantined), peak-RSS delta {} KiB",
        ingest.m,
        ingest.bits,
        ingest.streaming_keys_per_sec,
        ingest.borrowed_keys_per_sec,
        ingest.accepted,
        ingest.rejected,
        ingest.hwm_delta_kb,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"scan_throughput\",\n",
            "  \"algorithm\": \"{algo}\",\n",
            "  \"bits\": [{bits}],\n",
            "  \"early_termination\": true,\n",
            "  \"launch_pairs\": {lp},\n",
            "  \"warp_width\": {w},\n",
            "  \"reps\": {reps},\n",
            "  \"rows\": [\n{rows}\n  ],\n",
            "  \"batch_tree\": [\n{brows}\n  ],\n",
            "  \"vector_pass\": [\n{vrows}\n  ],\n",
            "  \"plan_lanes\": [\n{prows}\n  ],\n",
            "  \"ingest\": {{\"m\": {im}, \"bits\": {ibits}, \"accepted\": {iacc}, \"rejected\": {irej},\n",
            "    \"streaming_seconds\": {is_s}, \"streaming_keys_per_sec\": {is_tp},\n",
            "    \"borrowed_seconds\": {ib_s}, \"borrowed_keys_per_sec\": {ib_tp},\n",
            "    \"peak_rss_delta_kb\": {ihwm}}}\n",
            "}}\n"
        ),
        algo = algo.tag(),
        bits = bits_list
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        lp = launch_pairs,
        w = warp_width,
        reps = reps,
        rows = rows.join(",\n"),
        brows = batch_rows.join(",\n"),
        vrows = vector_rows.join(",\n"),
        prows = plan_rows.join(",\n"),
        im = ingest.m,
        ibits = ingest.bits,
        iacc = ingest.accepted,
        irej = ingest.rejected,
        is_s = json_f64(ingest.streaming_s),
        is_tp = json_f64(ingest.streaming_keys_per_sec),
        ib_s = json_f64(ingest.borrowed_s),
        ib_tp = json_f64(ingest.borrowed_keys_per_sec),
        ihwm = ingest.hwm_delta_kb,
    );
    std::fs::write(&out, &json).expect("write BENCH_scan.json");
    println!("{json}");
    eprintln!("wrote {out}");

    if gate_ingest {
        // Absolute-throughput floor for the streaming sanitizer, set ~4x
        // below the measured rate on the 1-CPU reference box so only a
        // structural regression (an accidental clone per row, a quadratic
        // dedup) trips it, not machine load. The peak-RSS tripwire is a
        // generous multiple of the corpus footprint: the old borrowed-mode
        // sanitizer cloned every accepted modulus *and* stored every
        // quarantined one, roughly doubling resident memory, and this
        // bound is sized to catch that class of regression coming back.
        // Measured ~5.5M keys/s (m=64k, 128-bit) on the reference box.
        const KEYS_PER_SEC_FLOOR: f64 = 1_000_000.0;
        let limbs = ingest.bits.div_ceil(32).max(1);
        // Per-row footprint: limb payload plus Nat/Vec bookkeeping (~56 B
        // observed), times two corpora resident (raw + streaming-accepted),
        // times a 4x allocator/dedup-map margin, plus fixed slack.
        let corpus_kb = (ingest.m as u64 * (limbs * 4 + 56)) / 1024;
        let rss_cap_kb = corpus_kb * 2 * 4 + 32 * 1024;
        let mut fail = false;
        if ingest.streaming_keys_per_sec < KEYS_PER_SEC_FLOOR {
            eprintln!(
                "GATE FAIL: streaming ingest {:.0} keys/s < {KEYS_PER_SEC_FLOOR} floor \
                 at m={}, bits={}",
                ingest.streaming_keys_per_sec, ingest.m, ingest.bits
            );
            fail = true;
        } else {
            eprintln!(
                "gate OK: streaming ingest {:.0} keys/s >= {KEYS_PER_SEC_FLOOR} floor \
                 at m={}, bits={}",
                ingest.streaming_keys_per_sec, ingest.m, ingest.bits
            );
        }
        if ingest.hwm_delta_kb > rss_cap_kb {
            eprintln!(
                "GATE FAIL: ingest peak-RSS delta {} KiB > {rss_cap_kb} KiB tripwire \
                 at m={}, bits={}",
                ingest.hwm_delta_kb, ingest.m, ingest.bits
            );
            fail = true;
        } else {
            eprintln!(
                "gate OK: ingest peak-RSS delta {} KiB <= {rss_cap_kb} KiB tripwire \
                 at m={}, bits={}",
                ingest.hwm_delta_kb, ingest.m, ingest.bits
            );
        }
        if fail {
            std::process::exit(1);
        }
    }

    if gate_lockstep || gate_pipeline || gate_compaction {
        // The largest corpus benched at a given width (the gate cell). All
        // gated ratios below are medians of per-round ratios, so a machine
        // throttle phase that slows every contestant equally cancels out.
        let cell_at = |bits: u64| {
            cells
                .iter()
                .filter(|c| c.bits == bits)
                .max_by_key(|c| c.m)
                .copied()
        };
        let widest = *bits_list.iter().max().expect("non-empty bits list");
        let gate = cell_at(widest).expect("non-empty grid");
        if gate_lockstep {
            // Perf-regression gate: at the widest moduli's largest corpus,
            // the lockstep engine must not fall below the scalar arena path
            // (small tolerance for run-to-run noise).
            const TOLERANCE: f64 = 0.95;
            if gate.ls_vs_cpu < TOLERANCE {
                eprintln!(
                    "GATE FAIL: lockstep x{:.3} of cpu_arena ({:.0} vs {:.0} pairs/s) < \
                     {TOLERANCE} at m={}, bits={}",
                    gate.ls_vs_cpu, gate.ls_tp, gate.cpu_tp, gate.m, gate.bits
                );
                std::process::exit(1);
            }
            eprintln!(
                "gate OK: lockstep x{:.3} of cpu_arena ({:.0} vs {:.0} pairs/s) >= \
                 {TOLERANCE} at m={}, bits={}",
                gate.ls_vs_cpu, gate.ls_tp, gate.cpu_tp, gate.m, gate.bits
            );
            // Informational (not gated): the 128-bit ratio, where short
            // lanes leave the plain fixed-warp engine under-occupied.
            if let Some(c) = cell_at(128) {
                eprintln!(
                    "note: 128-bit m={}: lockstep x{:.3} of cpu_arena, \
                     compacted x{:.3} of plain lockstep (informational)",
                    c.m, c.ls_vs_cpu, c.cls_vs_ls,
                );
            }
        }
        if gate_pipeline {
            // The builder must stay a zero-cost veneer over a hand-written
            // loop running the same warps on the same workers.
            const TOLERANCE: f64 = 0.98;
            if gate.ls_vs_direct < TOLERANCE {
                eprintln!(
                    "GATE FAIL: builder pipeline x{:.3} of direct run_warp loop < \
                     {TOLERANCE} at m={}, bits={}",
                    gate.ls_vs_direct, gate.m, gate.bits
                );
                std::process::exit(1);
            }
            eprintln!(
                "gate OK: builder pipeline x{:.3} of direct run_warp loop >= \
                 {TOLERANCE} at m={}, bits={}",
                gate.ls_vs_direct, gate.m, gate.bits
            );
        }
        if gate_compaction {
            let mut fail = false;
            // What compaction buys on the host engine is *structural*:
            // repack + width-gated refill turn ragged warps into dense
            // ones, and SIMT efficiency (mean active-lane occupancy) is a
            // deterministic function of the corpus — so that is what the
            // 128-bit gate pins, at the issue-level ≥1.15× margin. Wall
            // clock only gets a no-regression floor there: on the host
            // SIMD kernels a masked lane costs almost nothing (slots are
            // quantized in 16- or 8-lane vectors and plan/tail skip dead
            // lanes), so reclaimed slots translate to a few percent of
            // wall clock, not the issue-bound speedup a real SIMT device
            // would see. DESIGN.md ("Compaction and refill") documents the
            // calibration.
            const OCC_RATIO_128: f64 = 1.15;
            const WALL_FLOOR_128: f64 = 0.90;
            const WALL_FLOOR_1024: f64 = 0.95;
            if let Some(c) = cell_at(128) {
                let occ_ratio = c.cls_occ / c.ls_occ;
                if occ_ratio < OCC_RATIO_128 {
                    eprintln!(
                        "GATE FAIL: compacted occupancy {:.3} is x{occ_ratio:.3} of \
                         plain {:.3} < {OCC_RATIO_128} at m={}, bits={}",
                        c.cls_occ, c.ls_occ, c.m, c.bits
                    );
                    fail = true;
                } else {
                    eprintln!(
                        "gate OK: compacted occupancy {:.3} is x{occ_ratio:.3} of \
                         plain {:.3} >= {OCC_RATIO_128} at m={}, bits={}",
                        c.cls_occ, c.ls_occ, c.m, c.bits
                    );
                }
                if c.cls_vs_ls < WALL_FLOOR_128 {
                    eprintln!(
                        "GATE FAIL: compacted lockstep x{:.3} of plain < \
                         {WALL_FLOOR_128} wall-clock floor at m={}, bits={}",
                        c.cls_vs_ls, c.m, c.bits
                    );
                    fail = true;
                } else {
                    eprintln!(
                        "gate OK: compacted lockstep x{:.3} of plain >= \
                         {WALL_FLOOR_128} wall-clock floor at m={}, bits={}",
                        c.cls_vs_ls, c.m, c.bits
                    );
                }
            } else {
                eprintln!("gate skip: no 128-bit cell benched (compaction gate unchecked)");
            }
            // Wide moduli already run dense; compaction must stay ~free.
            if let Some(c) = cell_at(1024) {
                if c.cls_vs_ls < WALL_FLOOR_1024 {
                    eprintln!(
                        "GATE FAIL: compacted lockstep x{:.3} of plain < \
                         {WALL_FLOOR_1024} at m={}, bits={}",
                        c.cls_vs_ls, c.m, c.bits
                    );
                    fail = true;
                } else {
                    eprintln!(
                        "gate OK: compacted lockstep x{:.3} of plain >= \
                         {WALL_FLOOR_1024} at m={}, bits={}",
                        c.cls_vs_ls, c.m, c.bits
                    );
                }
            } else {
                eprintln!("gate skip: no 1024-bit cell benched (compaction gate unchecked)");
            }
            // The auto selector must never cost more than probe overhead
            // plus noise over the backend it resolved to, and that backend
            // must be no slower than the other fixed one it chose between,
            // so a wrong choice (scalar where compacted lockstep wins, or
            // the reverse) fails too.
            const AUTO_TOLERANCE: f64 = 0.90;
            let mut checked = 0;
            for c in &cells {
                let (Some(vs_resolved), Some(vs_other)) = (c.auto_vs_resolved, c.resolved_vs_other)
                else {
                    eprintln!(
                        "gate skip: auto resolved to {} at m={}, bits={}, which has no \
                         contestant in the timed group",
                        c.auto_name, c.m, c.bits
                    );
                    continue;
                };
                checked += 1;
                if vs_resolved < AUTO_TOLERANCE {
                    eprintln!(
                        "GATE FAIL: auto x{vs_resolved:.3} of the backend it resolved to \
                         ({:.0} pairs/s) < {AUTO_TOLERANCE} at m={}, bits={}",
                        c.auto_tp, c.m, c.bits
                    );
                    fail = true;
                }
                if vs_other < AUTO_TOLERANCE {
                    eprintln!(
                        "GATE FAIL: {} runs x{vs_other:.3} of the other fixed backend \
                         < {AUTO_TOLERANCE} at m={}, bits={} (a wrong resolution)",
                        c.auto_name, c.m, c.bits
                    );
                    fail = true;
                }
            }
            if fail {
                std::process::exit(1);
            }
            eprintln!(
                "gate OK: auto within {AUTO_TOLERANCE}x of the backend it resolved to, and that \
                 backend within {AUTO_TOLERANCE}x of the other fixed one, on {checked} cells"
            );
        }
    }
}

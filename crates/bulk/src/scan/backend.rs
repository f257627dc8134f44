//! Scan execution backends.
//!
//! A [`ScanBackend`] answers one question — *how does a batch of pairs get
//! its GCDs computed?* — and nothing else. Enumeration (§VI block order),
//! batching, checkpointing, retry, and metrics all live in the
//! [`ScanPipeline`](crate::scan::ScanPipeline) driver, so a new execution
//! strategy (a real GPU, a faster Euclid variant) is one `impl` here, not
//! another hand-written `scan_*` family.
//!
//! Launch-driven backends hand the pipeline a [`LaunchExecutor`] — the
//! worker-local scratch (engine planes, operand workspaces, device handles)
//! reused across every launch a worker runs. Whole-corpus backends (the
//! product-tree baseline) instead implement [`ScanBackend::run_whole`] and
//! opt out of the launch driver entirely.

use crate::arena::ModuliArena;
use crate::lockstep::{CompactionConfig, LockstepEngine, POOL_WARPS};
use crate::scan::report::{Finding, FindingKind};
use bulkgcd_bigint::{ops, Limb, Nat, LIMB_BITS};
use bulkgcd_core::{run_in_place, Algorithm, GcdOutcome, GcdPair, GcdStatus, NoProbe, Termination};
use bulkgcd_gpu::{schedule, simulate_bulk_gcd, CostModel, DeviceConfig, WarpWork};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Everything a backend needs to execute launches over one corpus: the
/// packed operands and the scan's algorithm/termination settings.
#[derive(Clone, Copy)]
pub struct ExecCtx<'a> {
    /// The packed corpus the scan reads operands from.
    pub arena: &'a ModuliArena,
    /// The GCD variant to run.
    pub algo: Algorithm,
    /// Whether §V early termination is enabled.
    pub early: bool,
}

/// What one executed launch produced: its findings plus the execution
/// metrics the pipeline aggregates.
#[derive(Debug, Clone, Default)]
pub struct LaunchOutput {
    /// Findings, in lane order (the pipeline sorts globally).
    pub findings: Vec<Finding>,
    /// Simulated device seconds (`None` for host-only backends).
    pub simulated_seconds: Option<f64>,
    /// Warps executed (0 when the backend has no warp structure).
    pub warps: u64,
    /// Warp-instructions issued, including divergence serialisation.
    pub warp_instructions: f64,
    /// Coalesced memory transactions issued.
    pub mem_transactions: u64,
    /// Total GCD lane-iterations (0 when the backend does not count them).
    pub lane_iterations: u64,
    /// Σ running lanes over lockstep iterations (useful issue slots; 0 for
    /// backends without a lockstep engine).
    pub active_lane_iters: u64,
    /// Σ resident warp width over lockstep iterations (issued slots —
    /// masked lanes burn these; the active/resident ratio is the launch's
    /// mean active-lane occupancy).
    pub resident_lane_iters: u64,
    /// Compaction events (survivors repacked into a dense column prefix).
    pub compactions: u64,
    /// Refill events (dead columns reloaded with pending pairs).
    pub refills: u64,
}

/// Worker-local launch execution state: one per rayon worker, reused across
/// every launch that worker runs (rebuilding scratch per launch was the
/// `gpu_sim_host` overhead regression).
pub trait LaunchExecutor {
    /// Execute one launch over the index pairs in `lanes`.
    fn execute(&mut self, cx: &ExecCtx<'_>, lanes: &[(usize, usize)]) -> LaunchOutput;
}

/// An execution strategy for the all-pairs scan.
///
/// Implementations are cheap, `Sync` descriptions (a warp width, a device
/// model); the mutable state lives in the [`LaunchExecutor`]s they mint.
pub trait ScanBackend: Sync {
    /// Short name for reports and error messages.
    fn name(&self) -> &'static str;

    /// Whether this backend prices launches on the simulated device clock
    /// (fills `simulated_seconds`).
    fn prices_launches(&self) -> bool {
        false
    }

    /// The launch length this backend prefers when the caller did not fix
    /// one: how many pairs each worker-run should cover for `total_pairs`
    /// spread over `workers` workers.
    fn preferred_run_len(&self, total_pairs: usize, workers: usize) -> usize {
        total_pairs.div_ceil(workers.max(1)).max(1)
    }

    /// Mint a fresh worker-local executor.
    fn executor(&self, cx: &ExecCtx<'_>) -> Box<dyn LaunchExecutor + Send>;

    /// True for backends with no launch structure (the product-tree
    /// baseline): the pipeline routes them through [`run_whole`]
    /// (Self::run_whole) and refuses launch-oriented layers on them.
    fn is_whole_corpus(&self) -> bool {
        false
    }

    /// Whole-corpus escape hatch: a backend with no launch structure (the
    /// product-tree baseline) computes every finding in one shot and
    /// returns `Some`; launch-driven backends return `None` (the default).
    fn run_whole(&self, _cx: &ExecCtx<'_>) -> Option<Vec<Finding>> {
        None
    }
}

/// A boxed backend is a backend, so a caller can pick one at run time
/// (the CLI's `--engine` table) and hand it to the pipeline or the shard
/// driver.
impl<B: ScanBackend + ?Sized> ScanBackend for Box<B> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn prices_launches(&self) -> bool {
        (**self).prices_launches()
    }

    fn preferred_run_len(&self, total_pairs: usize, workers: usize) -> usize {
        (**self).preferred_run_len(total_pairs, workers)
    }

    fn executor(&self, cx: &ExecCtx<'_>) -> Box<dyn LaunchExecutor + Send> {
        (**self).executor(cx)
    }

    fn is_whole_corpus(&self) -> bool {
        (**self).is_whole_corpus()
    }

    fn run_whole(&self, cx: &ExecCtx<'_>) -> Option<Vec<Finding>> {
        (**self).run_whole(cx)
    }
}

// ---------------------------------------------------------------------------
// Shared per-pair helpers.
// ---------------------------------------------------------------------------

/// Classify a non-trivial GCD of the moduli in limb rows `a` and `b`
/// (high-zero padding allowed): a factor equal to either modulus marks a
/// duplicate (or dividing) modulus, anything else is a proper shared prime.
/// Compares borrowed limb slices — no allocation on the scan path.
#[inline]
pub(crate) fn kind_of(factor: &Nat, a: &[Limb], b: &[Limb]) -> FindingKind {
    let f = factor.as_limbs();
    if f == &a[..ops::normalized_len(a)] || f == &b[..ops::normalized_len(b)] {
        FindingKind::DuplicateModulus
    } else {
        FindingKind::SharedPrime
    }
}

/// The per-pair termination for two moduli of `bits_i` and `bits_j`
/// significant bits.
#[inline]
pub(crate) fn termination_for(bits_i: u64, bits_j: u64, early: bool) -> Termination {
    if early {
        // s/2 where s is the modulus width: a shared prime has s/2 bits.
        Termination::Early {
            threshold_bits: bits_i.min(bits_j) / 2,
        }
    } else {
        Termination::Full
    }
}

/// The §V reporting rule, applied to every backend's findings where they
/// enter the pipeline: under early termination a finding stays exactly
/// when its factor has at least `min(bits_i, bits_j)/2` bits, the pair's
/// own [`termination_for`] threshold. The per-pair scan stops before any
/// smaller factor, but a launch under a folded, smaller threshold
/// ([`combine_terminations`]) and the product tree, which has no
/// termination at all, can reach one; the rule makes every engine report
/// what the per-pair scan does. A full scan reports every factor.
pub(crate) fn retain_reportable(cx: &ExecCtx<'_>, findings: &mut Vec<Finding>) {
    findings.retain(|f| {
        let (bits_i, bits_j) = (cx.arena.bit_len(f.i), cx.arena.bit_len(f.j));
        match termination_for(bits_i, bits_j, cx.early) {
            Termination::Early { threshold_bits } => f.factor.bit_len() >= threshold_bits,
            Termination::Full => true,
        }
    });
}

/// Fold per-pair termination settings into the single setting a simulated
/// kernel launch applies to every lane.
///
/// The fold is conservative in both directions: any [`Termination::Full`]
/// pair forces the whole launch to `Full` (an early threshold from some
/// *other* pair must never cut a full run short), and a batch of
/// [`Termination::Early`] pairs of mixed widths takes the **smallest**
/// threshold (extra iterations for the wider pairs, never a missed factor).
/// An empty batch gets `Full`.
pub fn combine_terminations(terms: impl IntoIterator<Item = Termination>) -> Termination {
    terms
        .into_iter()
        .reduce(|acc, t| match (acc, t) {
            (
                Termination::Early { threshold_bits: x },
                Termination::Early { threshold_bits: y },
            ) => Termination::Early {
                threshold_bits: x.min(y),
            },
            // Full on either side wins: never narrow a Full pair.
            (Termination::Full, _) | (_, Termination::Full) => Termination::Full,
        })
        .unwrap_or(Termination::Full)
}

/// The per-launch termination: the conservative fold of the lanes'
/// per-pair settings (what a real kernel launch applies to every lane).
pub(crate) fn launch_termination(
    arena: &ModuliArena,
    lanes: &[(usize, usize)],
    early: bool,
) -> Termination {
    combine_terminations(
        lanes
            .iter()
            .map(|&(i, j)| termination_for(arena.bit_len(i), arena.bit_len(j), early)),
    )
}

/// One pair's scan step, the body every scalar path runs: load row `a`
/// (modulus `i`) and row `b` (modulus `j`) into the caller's `pair`
/// workspace, run `algo` under `term`, and return the finding when the GCD
/// is not 1. Once `pair` has grown to the operand width the step performs
/// **no heap allocations** except for a finding it returns — the property
/// the root crate's allocation-counting test pins down.
// analyze: zero-alloc
#[inline]
pub(crate) fn scan_pair(
    pair: &mut GcdPair,
    algo: Algorithm,
    term: Termination,
    i: usize,
    a: &[Limb],
    j: usize,
    b: &[Limb],
) -> Option<Finding> {
    pair.load_from_limbs(a, b);
    if run_in_place(algo, pair, term, &mut NoProbe) != GcdStatus::Done || pair.gcd_is_one() {
        return None;
    }
    // analyze: allow(za-alloc, reason = "a factor hit is the rare path the scan exists to surface; materializing the finding allocates")
    let factor = pair.x_nat();
    let kind = kind_of(&factor, a, b);
    Some(Finding { i, j, kind, factor })
}

/// Run `lanes` on the host with one shared `term` (the CPU degradation path
/// for a persistently faulted launch: identical termination settings make
/// the findings byte-identical to the device run's).
pub(crate) fn scalar_fallback(
    cx: &ExecCtx<'_>,
    lanes: &[(usize, usize)],
    term: Termination,
) -> Vec<Finding> {
    let arena = cx.arena;
    let mut pair = GcdPair::with_capacity(arena.stride());
    lanes
        .iter()
        .filter_map(|&(i, j)| {
            scan_pair(
                &mut pair,
                cx.algo,
                term,
                i,
                arena.limbs(i),
                j,
                arena.limbs(j),
            )
        })
        .collect()
}

/// Collect the findings of the engine's last run, whose entry `q` was the
/// pair `pairs[q]`.
fn harvest(
    arena: &ModuliArena,
    engine: &LockstepEngine,
    pairs: &[(usize, usize)],
    found: &mut Vec<Finding>,
) {
    for (q, &(i, j)) in pairs.iter().enumerate() {
        if let Some(factor) = engine.entry_factor(q) {
            let factor = factor.clone();
            found.push(Finding {
                i,
                j,
                kind: kind_of(&factor, arena.limbs(i), arena.limbs(j)),
                factor,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// ScalarBackend — the per-pair run_in_place host scan.
// ---------------------------------------------------------------------------

/// The multithreaded host scan: each lane runs [`run_in_place`] on a
/// worker-local [`GcdPair`] workspace with its own per-pair termination —
/// zero per-pair heap allocations in the steady state.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

struct ScalarExecutor {
    pair: GcdPair,
}

impl LaunchExecutor for ScalarExecutor {
    fn execute(&mut self, cx: &ExecCtx<'_>, lanes: &[(usize, usize)]) -> LaunchOutput {
        let arena = cx.arena;
        let mut out = LaunchOutput::default();
        for &(i, j) in lanes {
            let term = termination_for(arena.bit_len(i), arena.bit_len(j), cx.early);
            let (a, b) = (arena.limbs(i), arena.limbs(j));
            if let Some(found) = scan_pair(&mut self.pair, cx.algo, term, i, a, j, b) {
                out.findings.push(found);
            }
        }
        out
    }
}

impl ScanBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn executor(&self, cx: &ExecCtx<'_>) -> Box<dyn LaunchExecutor + Send> {
        Box::new(ScalarExecutor {
            pair: GcdPair::with_capacity(cx.arena.stride()),
        })
    }
}

// ---------------------------------------------------------------------------
// LockstepBackend — the column-major SIMT host scan.
// ---------------------------------------------------------------------------

/// The lockstep SIMT host scan: warps of `warp_width` lanes run the
/// [`LockstepEngine`]'s column-major vectorized AEA — one shared
/// instruction stream per warp, terminated lanes masked off.
///
/// Without compaction, each warp applies the conservative per-launch
/// termination fold of its lanes (see [`combine_terminations`]), exactly
/// like a simulated kernel launch of the same width. With compaction,
/// the whole launch becomes one pending queue feeding a single compacting
/// engine of four warps' worth of columns
/// ([`LockstepEngine::run_queue`]): terminated lanes are harvested, their
/// columns refilled with pending pairs and the survivors repacked into a
/// dense prefix, and the termination fold is taken over the launch — the
/// same launch-level fold the simulated-GPU backend applies, still
/// conservative, never missing a factor.
#[derive(Debug, Clone, Copy)]
pub struct LockstepBackend {
    /// Lanes per warp (clamped to ≥ 1).
    pub warp_width: usize,
    /// Run each launch as one compacting queue instead of fixed warps.
    pub compaction: bool,
}

impl LockstepBackend {
    /// Plain fixed-warp backend of the given width (no compaction).
    pub fn new(warp_width: usize) -> Self {
        LockstepBackend {
            warp_width,
            compaction: false,
        }
    }

    /// Builder: enable queue-mode compaction/refill.
    pub fn with_compaction(mut self, _: CompactionConfig) -> Self {
        self.compaction = true;
        self
    }

    fn width(&self) -> usize {
        self.warp_width.max(1)
    }
}

impl Default for LockstepBackend {
    /// The paper's W = 32, no compaction.
    fn default() -> Self {
        LockstepBackend::new(32)
    }
}

struct LockstepExecutor {
    engine: LockstepEngine,
    compaction: bool,
}

impl LaunchExecutor for LockstepExecutor {
    fn execute(&mut self, cx: &ExecCtx<'_>, lanes: &[(usize, usize)]) -> LaunchOutput {
        let arena = cx.arena;
        // Queue mode runs the whole launch as one pending queue through a
        // single compacting warp; plain mode runs fixed warps of `width()`
        // lanes. Each group runs under its own termination fold.
        let group = if self.compaction {
            lanes.len().max(1)
        } else {
            self.engine.width()
        };
        let mut out = LaunchOutput::default();
        let mut inputs: Vec<(&[Limb], &[Limb])> = Vec::with_capacity(group);
        for pairs in lanes.chunks(group) {
            let term = launch_termination(arena, pairs, cx.early);
            inputs.clear();
            inputs.extend(pairs.iter().map(|&(i, j)| (arena.limbs(i), arena.limbs(j))));
            if self.compaction {
                self.engine.run_queue(&inputs, term);
            } else {
                self.engine.run_warp(&inputs, term);
            }
            harvest(arena, &self.engine, pairs, &mut out.findings);
            out.warps += 1;
            let st = self.engine.session_stats();
            out.active_lane_iters += st.active_lane_iters;
            out.resident_lane_iters += st.resident_lane_iters;
            out.compactions += st.compactions;
            out.refills += st.refills;
        }
        out
    }
}

impl ScanBackend for LockstepBackend {
    fn name(&self) -> &'static str {
        if self.compaction {
            "lockstep-compact"
        } else {
            "lockstep"
        }
    }

    fn preferred_run_len(&self, total_pairs: usize, workers: usize) -> usize {
        // Whole warps per worker run: rounding the run length up to a
        // multiple of the warp width keeps every warp (except possibly the
        // global last) full, and keeps warp boundaries aligned across any
        // worker count.
        let w = self.width();
        total_pairs.div_ceil(workers.max(1)).div_ceil(w).max(1) * w
    }

    fn executor(&self, _cx: &ExecCtx<'_>) -> Box<dyn LaunchExecutor + Send> {
        // Queue mode hosts a pooled resident arena of `POOL_WARPS` warps'
        // worth of columns; plain mode stays at the paper-faithful single
        // warp.
        let width = if self.compaction {
            self.width().saturating_mul(POOL_WARPS)
        } else {
            self.width()
        };
        Box::new(LockstepExecutor {
            engine: LockstepEngine::new(width),
            compaction: self.compaction,
        })
    }
}

// ---------------------------------------------------------------------------
// GpuSimBackend — launches priced on the simulated device.
// ---------------------------------------------------------------------------

/// The simulated-GPU backend: launches are priced on `device` under `cost`.
/// Approximate-Euclid launches execute on the live lockstep engine (costs
/// *measured* during execution); other algorithms replay traces through the
/// cost model. Per the equivalence suite both paths produce the same
/// numbers, so simulated seconds stay bitwise comparable across drivers.
#[derive(Debug, Clone)]
pub struct GpuSimBackend {
    /// The device model launches are priced on.
    pub device: DeviceConfig,
    /// The per-instruction/per-transaction cost model.
    pub cost: CostModel,
}

/// Worker-local launch-execution state for the simulated GPU: the lockstep
/// engine (operand planes and all scratch rows) plus the per-launch
/// warp-work buffer.
struct GpuSimExecutor {
    device: DeviceConfig,
    cost: CostModel,
    engine: LockstepEngine,
    warps: Vec<WarpWork>,
}

impl GpuSimExecutor {
    /// Execute one launch on the live lockstep engine: warps of
    /// `device.warp_size` lanes run the column-major vectorized AEA, and
    /// the launch is priced from the [`WarpWork`] *measured* during
    /// execution — same accumulator, same scheduler, and (per the
    /// equivalence suite) the same numbers as the trace-replay path.
    fn lockstep_launch(&mut self, cx: &ExecCtx<'_>, lanes: &[(usize, usize)]) -> LaunchOutput {
        let arena = cx.arena;
        let term = launch_termination(arena, lanes, cx.early);
        let words_per_transaction = self.device.transaction_bytes / 4;
        self.warps.clear();
        let mut out = LaunchOutput::default();
        let w = self.engine.width();
        let mut inputs: Vec<(&[Limb], &[Limb])> = Vec::with_capacity(w);
        for warp in lanes.chunks(w) {
            inputs.clear();
            inputs.extend(warp.iter().map(|&(i, j)| (arena.limbs(i), arena.limbs(j))));
            let work =
                self.engine
                    .run_warp_measured(&inputs, term, &self.cost, words_per_transaction);
            out.lane_iterations += work.lane_iterations;
            let st = self.engine.session_stats();
            out.active_lane_iters += st.active_lane_iters;
            out.resident_lane_iters += st.resident_lane_iters;
            self.warps.push(work);
            harvest(arena, &self.engine, warp, &mut out.findings);
        }
        let report = schedule(&self.device, &self.warps);
        out.simulated_seconds = Some(report.seconds);
        out.warps = report.warps as u64;
        out.warp_instructions = report.total_warp_instructions;
        out.mem_transactions = report.total_transactions;
        out
    }

    /// Trace-replay path for the non-Approximate variants (their lockstep
    /// interest is comparative, not throughput).
    fn replay_launch(&mut self, cx: &ExecCtx<'_>, lanes: &[(usize, usize)]) -> LaunchOutput {
        let arena = cx.arena;
        let term = launch_termination(arena, lanes, cx.early);
        let inputs: Vec<(&[Limb], &[Limb])> = lanes
            .iter()
            .map(|&(i, j)| (arena.limbs(i), arena.limbs(j)))
            .collect();
        let launch = simulate_bulk_gcd(&self.device, &self.cost, cx.algo, &inputs, term);
        let mut out = LaunchOutput {
            simulated_seconds: Some(launch.report.seconds),
            warps: launch.report.warps as u64,
            warp_instructions: launch.report.total_warp_instructions,
            mem_transactions: launch.report.total_transactions,
            lane_iterations: launch.total_iterations,
            ..LaunchOutput::default()
        };
        for (&(i, j), outcome) in lanes.iter().zip(&launch.outcomes) {
            if let GcdOutcome::Gcd(g) = outcome {
                if !g.is_one() {
                    out.findings.push(Finding {
                        i,
                        j,
                        kind: kind_of(g, arena.limbs(i), arena.limbs(j)),
                        factor: g.clone(),
                    });
                }
            }
        }
        out
    }
}

impl LaunchExecutor for GpuSimExecutor {
    fn execute(&mut self, cx: &ExecCtx<'_>, lanes: &[(usize, usize)]) -> LaunchOutput {
        match cx.algo {
            Algorithm::Approximate => self.lockstep_launch(cx, lanes),
            _ => self.replay_launch(cx, lanes),
        }
    }
}

impl ScanBackend for GpuSimBackend {
    fn name(&self) -> &'static str {
        "gpu-sim"
    }

    fn prices_launches(&self) -> bool {
        true
    }

    fn executor(&self, _cx: &ExecCtx<'_>) -> Box<dyn LaunchExecutor + Send> {
        Box::new(GpuSimExecutor {
            engine: LockstepEngine::new(self.device.warp_size.max(1)),
            device: self.device.clone(),
            cost: self.cost.clone(),
            warps: Vec::new(),
        })
    }
}

// ---------------------------------------------------------------------------
// ProductTreeBackend — the batch-GCD baseline behind the same trait.
// ---------------------------------------------------------------------------

/// The product/remainder-tree batch-GCD baseline (Heninger et al.) as a
/// whole-corpus backend: quasi-linear in the corpus size, no launch
/// structure, emitting the same [`ScanReport`](crate::scan::ScanReport)
/// shape as every other backend. The on-ramp for the Pelofske-style
/// pairwise/product-tree hybrid.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProductTreeBackend {
    /// Use the rayon-parallel tree construction.
    pub parallel: bool,
}

impl ScanBackend for ProductTreeBackend {
    fn name(&self) -> &'static str {
        "product-tree"
    }

    fn is_whole_corpus(&self) -> bool {
        true
    }

    fn executor(&self, _cx: &ExecCtx<'_>) -> Box<dyn LaunchExecutor + Send> {
        unreachable!("product-tree is a whole-corpus backend; run_whole covers it")
    }

    fn run_whole(&self, cx: &ExecCtx<'_>) -> Option<Vec<Finding>> {
        Some(product_tree_findings(cx, self.parallel))
    }
}

/// The product-tree whole-corpus computation, shared with [`AutoBackend`].
fn product_tree_findings(cx: &ExecCtx<'_>, parallel: bool) -> Vec<Finding> {
    let arena = cx.arena;
    let moduli: Vec<Nat> = (0..arena.len()).map(|i| arena.nat(i)).collect();
    let gcds = if parallel {
        crate::batch::batch_gcd_parallel(&moduli)
    } else {
        crate::batch::batch_gcd(&moduli)
    };
    // Batch GCD reports per-modulus factors; synthesize the pairwise
    // findings. A prime divides both `n_i` and `n_j` iff it divides both
    // batch factors `g_i` and `g_j`, so group the flagged moduli by batch
    // factor, test pairs of groups on the (small) factors, and run the
    // full-width `gcd(n_i, n_j)` only where the groups share. Members of
    // one group always share.
    let mut groups: Vec<(&Nat, Vec<usize>)> = Vec::new();
    let mut by_factor: HashMap<&Nat, usize> = HashMap::new();
    for (i, g) in gcds.iter().enumerate().filter(|(_, g)| !g.is_one()) {
        let slot = *by_factor.entry(g).or_insert_with(|| {
            groups.push((g, Vec::new()));
            groups.len() - 1
        });
        groups[slot].1.push(i);
    }
    // A batch GCD over the group factors marks the groups that share a
    // prime with any other group; only those need the pairwise group test
    // (in a corpus of device batches with one shared prime each: none).
    let factors: Vec<Nat> = groups.iter().map(|(g, _)| (*g).clone()).collect();
    let linked = crate::batch::batch_gcd(&factors);
    let mut findings = Vec::new();
    for (a, (ga, xs)) in groups.iter().enumerate() {
        for (b, (gb, ys)) in groups.iter().enumerate().skip(a) {
            if a != b && (linked[a].is_one() || linked[b].is_one() || ga.gcd(gb).is_one()) {
                continue;
            }
            for (x, &i) in xs.iter().enumerate() {
                // Within a group, members ascend: pair each with the later.
                let partners = if a == b { &ys[x + 1..] } else { &ys[..] };
                for &j in partners {
                    let (i, j) = (i.min(j), i.max(j));
                    let g = moduli[i].gcd(&moduli[j]);
                    if !g.is_one() {
                        findings.push(Finding {
                            i,
                            j,
                            kind: kind_of(&g, arena.limbs(i), arena.limbs(j)),
                            factor: g,
                        });
                    }
                }
            }
        }
    }
    findings.sort_unstable_by_key(|f| (f.i, f.j));
    findings
}

// ---------------------------------------------------------------------------
// AutoBackend — pick the fastest strategy from the corpus shape.
// ---------------------------------------------------------------------------

/// Corpus sizes at/above this many moduli resolve to the product-tree
/// baseline: batch GCD is quasi-linear in the corpus while every pairwise
/// backend is quadratic, so past this point the tree always wins. The
/// subquadratic arithmetic ladder (NTT multiply, Newton division) cut the
/// tree's node costs enough to pull this crossover down from its
/// pre-ladder 4096 (see `BENCH_scan.json` batch-tree rows).
pub const AUTO_PRODUCT_TREE_MIN_MODULI: usize = 2048;

/// Minimum operand width (bits) below which compacted lockstep still loses
/// to the scalar scan on the bench matrix and the selector picks scalar.
/// Calibrated against `BENCH_scan.json` (`scan_bench --gate-compaction`):
/// on one worker compacted lockstep runs ×0.78–0.96 of scalar at 64 bits
/// and ×1.4–1.6 at 128 bits.
pub const AUTO_LOCKSTEP_MIN_BITS: usize = 128;

/// The strategy [`AutoBackend`] resolved to for its corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AutoChoice {
    Scalar,
    Lockstep,
    ProductTree,
}

/// The auto-tuning selector: resolves to the fastest fixed strategy from
/// the corpus shape alone (size, operand width and the algorithm):
///
/// 1. **Product tree** when the corpus has at least
///    [`AUTO_PRODUCT_TREE_MIN_MODULI`] moduli — quasi-linear beats any
///    pairwise scan at scale.
/// 2. **Scalar** when the algorithm is not Approximate Euclid (the
///    lockstep engine is AEA-only) or the operands are narrower than
///    [`AUTO_LOCKSTEP_MIN_BITS`].
/// 3. **Lockstep with compaction/refill** otherwise. AEA's β > 0 path is
///    rare (§V measures < 10⁻⁸ on random RSA moduli) and the engine
///    serializes it as scalar fixups, so no corpus shape needs a
///    divergence veto.
///
/// The decision is cached per backend instance, so construct one
/// `AutoBackend` per corpus. In launch-driven (layered/journaled) runs a product-tree
/// resolution degrades to the scalar executor, since the tree has no
/// launch structure to checkpoint.
#[derive(Debug, Clone, Default)]
pub struct AutoBackend {
    /// Lanes per warp for the lockstep resolution (0 → default 32).
    pub warp_width: usize,
    choice: OnceLock<AutoChoice>,
}

impl AutoBackend {
    /// Selector with the given lockstep warp width (0 → default 32) and
    /// default thresholds.
    pub fn new(warp_width: usize) -> Self {
        AutoBackend {
            warp_width,
            ..AutoBackend::default()
        }
    }

    fn width(&self) -> usize {
        if self.warp_width == 0 {
            32
        } else {
            self.warp_width
        }
    }

    /// Resolve (once per instance) which strategy this corpus gets.
    fn decide(&self, cx: &ExecCtx<'_>) -> AutoChoice {
        *self.choice.get_or_init(|| {
            let arena = cx.arena;
            if arena.len() >= AUTO_PRODUCT_TREE_MIN_MODULI {
                AutoChoice::ProductTree
            } else if cx.algo != Algorithm::Approximate
                || arena.stride() * (LIMB_BITS as usize) < AUTO_LOCKSTEP_MIN_BITS
            {
                AutoChoice::Scalar
            } else {
                AutoChoice::Lockstep
            }
        })
    }
}

impl ScanBackend for AutoBackend {
    fn name(&self) -> &'static str {
        match self.choice.get() {
            Some(AutoChoice::Scalar) => "auto:scalar",
            Some(AutoChoice::Lockstep) => "auto:lockstep-compact",
            Some(AutoChoice::ProductTree) => "auto:product-tree",
            None => "auto",
        }
    }

    fn preferred_run_len(&self, total_pairs: usize, workers: usize) -> usize {
        // Warp-multiple rounding: required for the lockstep resolution,
        // harmless for the others.
        let w = self.width();
        total_pairs.div_ceil(workers.max(1)).div_ceil(w).max(1) * w
    }

    fn executor(&self, cx: &ExecCtx<'_>) -> Box<dyn LaunchExecutor + Send> {
        match self.decide(cx) {
            AutoChoice::Lockstep => LockstepBackend::new(self.width())
                .with_compaction(CompactionConfig::default())
                .executor(cx),
            // Product-tree corpora normally exit via run_whole before any
            // executor is minted; launch-driven drivers degrade to scalar.
            AutoChoice::Scalar | AutoChoice::ProductTree => ScalarBackend.executor(cx),
        }
    }

    fn run_whole(&self, cx: &ExecCtx<'_>) -> Option<Vec<Finding>> {
        match self.decide(cx) {
            AutoChoice::ProductTree => Some(product_tree_findings(cx, true)),
            AutoChoice::Scalar | AutoChoice::Lockstep => None,
        }
    }
}

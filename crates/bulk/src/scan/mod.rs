//! All-pairs weak-key scans: one backend, one launch loop.
//!
//! The paper's bulk-execution strategy is one algorithm (Approximate
//! Euclid over all `m(m−1)/2` pairs) launched over batches of pairs. This
//! module splits *how* a batch gets its GCDs from *how* launches are
//! driven:
//!
//! * a [`ScanBackend`] picks the execution strategy — [`ScalarBackend`]
//!   (per-pair `run_in_place`), [`LockstepBackend`] (column-major SIMT
//!   warps), [`GpuSimBackend`] (launches priced on the simulated device),
//!   [`ProductTreeBackend`] (the batch-GCD baseline), [`AutoBackend`]
//!   (picks one from the corpus shape);
//! * the [`ScanPipeline`] builder drives every launch-driven scan through
//!   one loop: each launch runs under a fault plan and retry policy
//!   ([`faults`](ScanPipeline::faults), [`retry`](ScanPipeline::retry)),
//!   commits to a scan journal (a caller-held one via
//!   [`journal`](ScanPipeline::journal), else an in-memory one), and the
//!   report is folded from the journal's records in launch order, with
//!   per-launch [`metrics`](ScanPipeline::metrics) on request.
//!
//! ```
//! use bulkgcd_bigint::Nat;
//! use bulkgcd_bulk::{LockstepBackend, ModuliArena, ScanPipeline};
//!
//! let moduli = vec![
//!     Nat::from_u64(101 * 211),
//!     Nat::from_u64(101 * 223),
//!     Nat::from_u64(103 * 227),
//! ];
//! let arena = ModuliArena::try_from_moduli(&moduli).unwrap();
//! let report = ScanPipeline::new(&arena)
//!     .early(false)
//!     .backend(LockstepBackend::new(8))
//!     .run()
//!     .unwrap();
//! assert_eq!(report.scan.findings.len(), 1);
//! assert_eq!(report.scan.findings[0].factor, Nat::from_u64(101));
//! ```
//!
//! All backends produce identical findings; only the clock (and the
//! per-launch metrics) differ. The builder is the only way to run a scan.

pub mod backend;
mod layers;
pub mod report;

pub use backend::{
    combine_terminations, AutoBackend, ExecCtx, GpuSimBackend, LaunchExecutor, LaunchOutput,
    LockstepBackend, ProductTreeBackend, ScalarBackend, ScanBackend, AUTO_LOCKSTEP_MIN_BITS,
    AUTO_PRODUCT_TREE_MIN_MODULI,
};
pub use report::{
    FaultStats, Finding, FindingKind, LaunchMetrics, NoSimulatedClock, PipelineReport, ScanError,
    ScanMetrics, ScanReport,
};

use crate::arena::ModuliArena;
use crate::checkpoint::{JournalError, JournalHeader, ScanJournal};
use crate::fault::FaultPlan;
use crate::pairing::{group_size_for, GroupedPairs};
use crate::shard::Tile;
use backend::retain_reportable;
use bulkgcd_core::Algorithm;
use bulkgcd_gpu::RetryPolicy;
use layers::{run_layered_launch, LayeredLaunch};
use rayon::prelude::*;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Launch size (pairs per simulated kernel launch) used when the caller
/// does not set one on a launch-priced backend.
pub const DEFAULT_LAUNCH_PAIRS: usize = 4096;

/// The composable all-pairs scan: one backend, one launch loop.
///
/// Defaults: [`Algorithm::Approximate`], §V early termination on, the
/// [`ScalarBackend`], no checkpoint, no faults. `run()` enumerates pairs
/// in the paper's §VI block order, batches them (into launches for priced
/// backends, into worker runs otherwise), executes each batch on the
/// backend under the fault plan and retry policy, commits it to the
/// journal, and folds the journal's records in launch order — so findings
/// *and* the floating-point sum of simulated seconds are independent of
/// the worker count.
pub struct ScanPipeline<'a> {
    arena: &'a ModuliArena,
    algo: Algorithm,
    early: bool,
    backend: Box<dyn ScanBackend + 'a>,
    launch_pairs: Option<usize>,
    serial: bool,
    tile: Option<Tile>,
    journal: Option<&'a mut ScanJournal>,
    faults: Option<&'a FaultPlan>,
    retry: RetryPolicy,
    metrics: bool,
}

impl<'a> ScanPipeline<'a> {
    /// Start building a scan over `arena` with the default configuration
    /// (Approximate Euclid, early termination, [`ScalarBackend`], no
    /// checkpoint, no faults).
    pub fn new(arena: &'a ModuliArena) -> Self {
        ScanPipeline {
            arena,
            algo: Algorithm::Approximate,
            early: true,
            backend: Box::new(ScalarBackend),
            launch_pairs: None,
            serial: false,
            tile: None,
            journal: None,
            faults: None,
            retry: RetryPolicy::default(),
            metrics: false,
        }
    }

    /// Select the GCD variant (default: [`Algorithm::Approximate`]).
    pub fn algorithm(mut self, algo: Algorithm) -> Self {
        self.algo = algo;
        self
    }

    /// Enable or disable §V early termination (default: enabled).
    pub fn early(mut self, early: bool) -> Self {
        self.early = early;
        self
    }

    /// Select the execution backend (default: [`ScalarBackend`]).
    pub fn backend(mut self, backend: impl ScanBackend + 'a) -> Self {
        self.backend = Box::new(backend);
        self
    }

    /// Fix the launch size in pairs. Defaults to [`DEFAULT_LAUNCH_PAIRS`]
    /// for launch-priced backends, tiled, checkpointed and faulted scans,
    /// and to the backend's preferred worker-run length otherwise.
    pub fn launch_pairs(mut self, pairs: usize) -> Self {
        self.launch_pairs = Some(pairs);
        self
    }

    /// Run launches sequentially on the calling thread instead of across
    /// the rayon pool (the reference the parallel driver must match).
    pub fn serial(mut self, serial: bool) -> Self {
        self.serial = serial;
        self
    }

    /// Restrict the scan to one shard's [`Tile`] of the global launch
    /// sequence (launches `[tile.start, tile.end())`). Launch indices,
    /// per-launch results and journal records keep their *global* numbering,
    /// so per-tile reports fold back into an unsharded report exactly —
    /// see [`shard::merge`](crate::shard::merge). The tile must come from a
    /// [`TilePlan`](crate::shard::TilePlan) built with the same corpus and
    /// the same `launch_pairs` as this pipeline.
    pub fn tile(mut self, tile: Tile) -> Self {
        self.tile = Some(tile);
        self
    }

    /// Commit completed launches to `journal`: a file opened with
    /// [`ScanJournal::open`] (created if absent, resumed if it holds a
    /// compatible partial scan) or an in-memory one the caller inspects
    /// between runs.
    pub fn journal(mut self, journal: &'a mut ScanJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Inject deterministic launch faults and kills from `plan`
    /// (test/chaos harness; production scans simply omit this).
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Set the retry/backoff policy for transiently faulted launches
    /// (default: [`RetryPolicy::default`], 4 attempts).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Collect per-launch [`ScanMetrics`] into the report.
    pub fn metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Execute the scan.
    ///
    /// Each launch is committed to the journal (and fsynced, when it is a
    /// file) the moment it completes, from inside the parallel driver, so
    /// a run that dies at any point keeps every launch that finished before
    /// the crash; the report is folded from the journal in launch-index
    /// order, so resumed and uninterrupted runs reduce the same records the
    /// same way.
    pub fn run(self) -> Result<PipelineReport, ScanError> {
        let start = Instant::now();
        let ScanPipeline {
            arena,
            algo,
            early,
            backend,
            launch_pairs,
            serial,
            tile,
            journal,
            faults,
            retry,
            metrics,
        } = self;
        let cx = ExecCtx { arena, algo, early };
        let backend = &*backend;
        let layered = journal.is_some() || faults.is_some();
        let prices = backend.prices_launches();
        let m = arena.len();

        // Whole-corpus backends have no launch boundaries: nothing to
        // journal, retry, fault — or restrict to a tile of launches —
        // surface the mismatch instead of silently ignoring the request.
        if backend.is_whole_corpus() {
            if layered {
                return Err(ScanError::Unsupported {
                    backend: backend.name(),
                    what: "checkpoint/fault/retry layers (it has no launch boundaries)",
                });
            }
            if tile.is_some() {
                return Err(ScanError::Unsupported {
                    backend: backend.name(),
                    what: "tile-restricted scans (it has no launch boundaries)",
                });
            }
        }
        if !layered && tile.is_none() && m >= 2 {
            if let Some(mut findings) = backend.run_whole(&cx) {
                retain_reportable(&cx, &mut findings);
                return Ok(whole_corpus_report(start, backend, m, &findings, metrics));
            }
        }

        let mut in_memory;
        let journal: &mut ScanJournal = match journal {
            Some(j) => j,
            None => {
                in_memory = ScanJournal::in_memory();
                &mut in_memory
            }
        };
        let none_plan = FaultPlan::none();
        let plan = faults.unwrap_or(&none_plan);

        let grid = GroupedPairs::new(m, group_size_for(m));
        let all: Vec<(usize, usize)> = grid.all_pairs().collect();
        let lp = match launch_pairs {
            Some(lp) => lp.max(1),
            // A tiled, journaled or faulted run must chunk exactly like
            // every other run of the same plan or journal, so it cannot
            // use the worker-count-dependent default.
            None if prices || tile.is_some() || layered => DEFAULT_LAUNCH_PAIRS,
            None => backend.preferred_run_len(all.len(), rayon::current_num_threads().max(1)),
        };
        let mut header = JournalHeader::for_scan(arena, algo, early, lp);
        if let Some(t) = tile {
            if t.launches == 0 || t.end() > header.launches {
                return Err(ScanError::InvalidTile {
                    tile_start: t.start,
                    tile_launches: t.launches,
                    launches: header.launches,
                });
            }
            // The journal binds to the tile, too: a shard journal cannot
            // resume another shard's tile or the unsharded scan.
            header.tile_start = t.start;
            header.tile_launches = t.launches;
        }
        journal.check_compatible(&header)?;
        let chunks: Vec<&[(usize, usize)]> = all.chunks(lp).collect();
        debug_assert_eq!(chunks.len() as u64, header.launches);

        // Launch indices stay global even for a tile-restricted run, so the
        // journal's records and the fault plan's keys mean the same thing
        // sharded or not.
        let tile_range = header.tile_start..header.tile_start + header.tile_launches;
        let pending: Vec<u64> = tile_range
            .clone()
            .filter(|&l| !journal.completed(l))
            .collect();
        let mut stats = FaultStats {
            total_launches: header.tile_launches,
            resumed_launches: header.tile_launches - pending.len() as u64,
            ..FaultStats::default()
        };

        // An injected kill at launch k stops the run at that boundary: work
        // before it commits, nothing at or after it runs — the journal looks
        // exactly like a crashed process's.
        let kill_pos = pending.iter().position(|&l| plan.kills(l));
        let to_run = &pending[..kill_pos.unwrap_or(pending.len())];

        // Each launch commits to the journal the moment it completes — from
        // inside the parallel map, serialized behind a mutex — so a real crash
        // (SIGKILL, OOM, power loss) mid-run loses only the launches still in
        // flight, never the whole run. Commits land in completion order, not
        // launch order; the journal keys records by launch index, so the final
        // merge is launch-ordered regardless.
        let rows: Vec<LaunchMetrics> = {
            let journal_mx = Mutex::new(&mut *journal);
            let launch = |ex: &mut Box<dyn LaunchExecutor + Send>, l: u64| {
                let LayeredLaunch { record, metrics } =
                    run_layered_launch(&cx, ex.as_mut(), chunks[l as usize], l, plan, &retry);
                journal_mx
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .record(record)?;
                Ok::<_, JournalError>(metrics)
            };
            if serial {
                let mut ex = backend.executor(&cx);
                to_run
                    .iter()
                    .map(|&l| launch(&mut ex, l))
                    .collect::<Result<_, _>>()?
            } else {
                to_run
                    .par_iter()
                    .map_init(|| backend.executor(&cx), |ex, &l| launch(ex, l))
                    .collect::<Result<_, _>>()?
            }
        };
        for row in &rows {
            stats.executed_launches += 1;
            stats.retried_attempts += u64::from(row.attempts.saturating_sub(1));
            stats.backoff += row.backoff;
            if row.cpu_fallback {
                stats.cpu_fallback_launches += 1;
            }
        }

        if let Some(p) = kill_pos {
            return Err(ScanError::Interrupted { launch: pending[p] });
        }
        journal.mark_done()?;

        // The report is folded from the journal — not from this run's
        // results — so resumed and uninterrupted runs reduce the same
        // records the same way.
        let pairs_scanned = tile_range.map(|l| chunks[l as usize].len() as u64).sum();
        let scan = ScanReport::fold(
            journal
                .records()
                .map(|r| (r.findings.as_slice(), r.simulated_seconds)),
            pairs_scanned,
            start.elapsed(),
            prices,
        );
        Ok(PipelineReport {
            scan,
            metrics: metrics.then(|| ScanMetrics {
                backend: backend.name(),
                total_launches: stats.total_launches,
                resumed_launches: stats.resumed_launches,
                launches: rows,
            }),
            stats,
        })
    }
}

/// The report of a whole-corpus backend's one-shot run, accounted as a
/// single launch covering every pair.
fn whole_corpus_report(
    start: Instant,
    backend: &dyn ScanBackend,
    m: usize,
    findings: &[Finding],
    metrics: bool,
) -> PipelineReport {
    let pairs = GroupedPairs::new(m, group_size_for(m)).total_pairs();
    let host = start.elapsed();
    PipelineReport {
        scan: ScanReport::fold([(findings, 0.0)], pairs, start.elapsed(), false),
        stats: FaultStats {
            total_launches: 1,
            executed_launches: 1,
            ..FaultStats::default()
        },
        metrics: metrics.then(|| ScanMetrics {
            backend: backend.name(),
            total_launches: 1,
            resumed_launches: 0,
            launches: vec![LaunchMetrics {
                launch: 0,
                lanes: pairs,
                warps: 0,
                warp_instructions: 0.0,
                mem_transactions: 0,
                lane_iterations: 0,
                active_lane_iters: 0,
                resident_lane_iters: 0,
                compactions: 0,
                refills: 0,
                simulated_seconds: None,
                host_seconds: host.as_secs_f64(),
                attempts: 1,
                backoff: Duration::ZERO,
                cpu_fallback: false,
            }],
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ArenaError;
    use bulkgcd_bigint::prime::random_prime;
    use bulkgcd_bigint::random::random_odd_bits;
    use bulkgcd_bigint::Nat;
    use bulkgcd_core::Termination;
    use bulkgcd_gpu::{CostModel, DeviceConfig};
    use bulkgcd_rsa::build_corpus;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn gpu_backend() -> GpuSimBackend {
        GpuSimBackend {
            device: DeviceConfig::gtx_780_ti(),
            cost: CostModel::default(),
        }
    }

    fn cpu_scan(moduli: &[Nat], algo: Algorithm, early: bool) -> Result<ScanReport, ScanError> {
        let arena = ModuliArena::try_from_moduli(moduli)?;
        Ok(ScanPipeline::new(&arena)
            .algorithm(algo)
            .early(early)
            .run()?
            .scan)
    }

    fn gpu_scan(
        moduli: &[Nat],
        algo: Algorithm,
        early: bool,
        launch_pairs: usize,
        serial: bool,
    ) -> Result<ScanReport, ScanError> {
        let arena = ModuliArena::try_from_moduli(moduli)?;
        Ok(ScanPipeline::new(&arena)
            .algorithm(algo)
            .early(early)
            .backend(gpu_backend())
            .launch_pairs(launch_pairs)
            .serial(serial)
            .run()?
            .scan)
    }

    fn lockstep_scan(moduli: &[Nat], early: bool, w: usize) -> Result<ScanReport, ScanError> {
        let arena = ModuliArena::try_from_moduli(moduli)?;
        Ok(ScanPipeline::new(&arena)
            .early(early)
            .backend(LockstepBackend::new(w))
            .run()?
            .scan)
    }

    fn resumable_scan(
        arena: &ModuliArena,
        launch_pairs: usize,
        journal: &mut ScanJournal,
        plan: &FaultPlan,
    ) -> Result<PipelineReport, ScanError> {
        ScanPipeline::new(arena)
            .backend(gpu_backend())
            .launch_pairs(launch_pairs)
            .journal(journal)
            .faults(plan)
            .run()
    }

    fn check_findings_match_ground_truth(findings: &[Finding], corpus: &bulkgcd_rsa::Corpus) {
        assert_eq!(findings.len(), corpus.shared.len());
        for (f, (i, j, p)) in findings.iter().zip(&corpus.shared) {
            assert_eq!((f.i, f.j), (*i, *j));
            assert_eq!(&f.factor, p);
        }
    }

    #[test]
    fn cpu_scan_finds_planted_pairs() {
        let mut rng = StdRng::seed_from_u64(1);
        let corpus = build_corpus(&mut rng, 16, 128, 3);
        for early in [false, true] {
            let rep = cpu_scan(&corpus.moduli(), Algorithm::Approximate, early).unwrap();
            assert_eq!(rep.pairs_scanned, 16 * 15 / 2);
            check_findings_match_ground_truth(&rep.findings, &corpus);
        }
    }

    #[test]
    fn all_algorithms_agree_on_cpu() {
        let mut rng = StdRng::seed_from_u64(2);
        let corpus = build_corpus(&mut rng, 8, 128, 2);
        let moduli = corpus.moduli();
        let reference = cpu_scan(&moduli, Algorithm::Approximate, true).unwrap();
        for algo in Algorithm::ALL {
            let rep = cpu_scan(&moduli, algo, true).unwrap();
            assert_eq!(rep.findings, reference.findings, "{}", algo.name());
        }
    }

    #[test]
    fn gpu_scan_matches_cpu_scan() {
        let mut rng = StdRng::seed_from_u64(3);
        let corpus = build_corpus(&mut rng, 12, 128, 2);
        let moduli = corpus.moduli();
        let cpu = cpu_scan(&moduli, Algorithm::Approximate, true).unwrap();
        let gpu = gpu_scan(&moduli, Algorithm::Approximate, true, 32, false).unwrap();
        assert_eq!(cpu.findings, gpu.findings);
        assert_eq!(cpu.pairs_scanned, gpu.pairs_scanned);
        assert!(gpu.simulated().unwrap() > 0.0);
        // The checked accessor errors (not panics) on pure-CPU reports.
        assert_eq!(cpu.simulated(), Err(NoSimulatedClock));
    }

    #[test]
    fn parallel_gpu_sim_matches_serial_reference() {
        let mut rng = StdRng::seed_from_u64(7);
        let corpus = build_corpus(&mut rng, 12, 128, 3);
        let moduli = corpus.moduli();
        for launch_pairs in [1usize, 7, 32, 1000] {
            let par = gpu_scan(&moduli, Algorithm::Approximate, true, launch_pairs, false).unwrap();
            let ser = gpu_scan(&moduli, Algorithm::Approximate, true, launch_pairs, true).unwrap();
            assert_eq!(par.findings, ser.findings, "launch_pairs={launch_pairs}");
            assert_eq!(par.pairs_scanned, ser.pairs_scanned);
            let (ps, ss) = (par.simulated().unwrap(), ser.simulated().unwrap());
            assert!(
                (ps - ss).abs() <= 1e-12 * ss.max(1.0),
                "launch_pairs={launch_pairs}: parallel {ps} vs serial {ss}"
            );
        }
    }

    #[test]
    fn lockstep_scan_matches_cpu_scan_across_widths() {
        let mut rng = StdRng::seed_from_u64(21);
        let corpus = build_corpus(&mut rng, 14, 128, 3);
        let moduli = corpus.moduli();
        for early in [false, true] {
            let cpu = cpu_scan(&moduli, Algorithm::Approximate, early).unwrap();
            for w in [1usize, 3, 8, 32] {
                let ls = lockstep_scan(&moduli, early, w).unwrap();
                assert_eq!(ls.findings, cpu.findings, "early={early} w={w}");
                assert_eq!(ls.pairs_scanned, cpu.pairs_scanned);
                assert_eq!(ls.duplicate_pairs, cpu.duplicate_pairs);
            }
        }
    }

    #[test]
    fn lockstep_scan_classifies_duplicates() {
        let mut rng = StdRng::seed_from_u64(22);
        let corpus = build_corpus(&mut rng, 8, 128, 1);
        let mut moduli = corpus.moduli();
        let dup = moduli[2].clone();
        moduli.push(dup);
        let cpu = cpu_scan(&moduli, Algorithm::Approximate, true).unwrap();
        let ls = lockstep_scan(&moduli, true, 8).unwrap();
        assert_eq!(ls.findings, cpu.findings);
        assert_eq!(ls.duplicate_pairs, 1);
        assert!(ls
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DuplicateModulus));
    }

    #[test]
    fn lockstep_scan_degenerate_corpora() {
        match lockstep_scan(&[], true, 8) {
            Err(ScanError::Arena(ArenaError::EmptyCorpus)) => {}
            other => panic!("expected EmptyCorpus, got {other:?}"),
        }
        let rep = lockstep_scan(&[Nat::from(15u32)], true, 8).unwrap();
        assert_eq!(rep.pairs_scanned, 0);
        // warp_width 0 is clamped to 1, not a panic.
        let mut rng = StdRng::seed_from_u64(23);
        let corpus = build_corpus(&mut rng, 6, 96, 1);
        let rep = lockstep_scan(&corpus.moduli(), true, 0).unwrap();
        check_findings_match_ground_truth(&rep.findings, &corpus);
    }

    #[test]
    fn combine_terminations_folds_conservatively() {
        let e = |bits| Termination::Early {
            threshold_bits: bits,
        };
        // Mixed widths: smallest threshold wins.
        assert_eq!(combine_terminations([e(64), e(48), e(64)]), e(48));
        // Any Full pair pins the whole launch to Full, in either fold order.
        assert_eq!(
            combine_terminations([e(64), Termination::Full, e(48)]),
            Termination::Full
        );
        assert_eq!(
            combine_terminations([Termination::Full, e(64)]),
            Termination::Full
        );
        assert_eq!(
            combine_terminations([e(64), Termination::Full]),
            Termination::Full
        );
        // Degenerate batches.
        assert_eq!(combine_terminations([]), Termination::Full);
        assert_eq!(combine_terminations([Termination::Full]), Termination::Full);
        assert_eq!(combine_terminations([e(10)]), e(10));
    }

    #[test]
    fn mixed_width_batch_still_finds_shared_factor() {
        // Regression for the per-launch termination fold: a batch mixing
        // modulus widths must take the narrowest pair's threshold, so the
        // wide pair's shared factor survives early termination.
        let mut rng = StdRng::seed_from_u64(8);
        let p = random_prime(&mut rng, 64);
        let wide_a = p.mul(&random_prime(&mut rng, 64)); // 128-bit, shares p
        let wide_b = p.mul(&random_prime(&mut rng, 64));
        let moduli = vec![
            wide_a,
            random_odd_bits(&mut rng, 96), // narrower lanes in the same launch
            random_odd_bits(&mut rng, 96),
            wide_b,
        ];
        // One launch covering all pairs (launch_pairs > m(m-1)/2).
        let gpu = gpu_scan(&moduli, Algorithm::Approximate, true, 64, false).unwrap();
        let cpu = cpu_scan(&moduli, Algorithm::Approximate, true).unwrap();
        assert_eq!(gpu.findings, cpu.findings);
        assert_eq!(gpu.findings.len(), 1);
        assert_eq!((gpu.findings[0].i, gpu.findings[0].j), (0, 3));
        assert_eq!(gpu.findings[0].factor, p);
    }

    #[test]
    fn clean_corpus_yields_no_findings() {
        let mut rng = StdRng::seed_from_u64(4);
        let corpus = build_corpus(&mut rng, 8, 96, 0);
        let rep = cpu_scan(&corpus.moduli(), Algorithm::Approximate, true).unwrap();
        assert!(rep.findings.is_empty());
    }

    #[test]
    fn degenerate_corpora() {
        // An empty corpus cannot be packed into an arena: a structured
        // error, not a panic (and not a silent empty report).
        match cpu_scan(&[], Algorithm::Approximate, true) {
            Err(ScanError::Arena(ArenaError::EmptyCorpus)) => {}
            other => panic!("expected EmptyCorpus, got {other:?}"),
        }
        let rep = cpu_scan(&[Nat::from(15u32)], Algorithm::Approximate, true).unwrap();
        assert_eq!(rep.pairs_scanned, 0);
    }

    #[test]
    fn odd_corpus_size_uses_group_size_one() {
        let mut rng = StdRng::seed_from_u64(5);
        let corpus = build_corpus(&mut rng, 7, 96, 1);
        let rep = cpu_scan(&corpus.moduli(), Algorithm::Approximate, true).unwrap();
        assert_eq!(rep.pairs_scanned, 21);
        check_findings_match_ground_truth(&rep.findings, &corpus);
    }

    #[test]
    fn oversized_corpus_is_a_scan_error() {
        // Width overflow propagates through the scan entry point as a
        // structured ScanError::Arena, exercised here via the capped
        // constructor the scan would hit at real isize::MAX scale.
        let moduli = vec![Nat::from_u64(u64::MAX), Nat::from_u64(u64::MAX - 4)];
        match ModuliArena::try_from_moduli_capped(&moduli, 3).map_err(ScanError::from) {
            Err(ScanError::Arena(ArenaError::WidthOverflow { moduli: m, .. })) => {
                assert_eq!(m, 2)
            }
            other => panic!("expected WidthOverflow, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_moduli_classified_and_counted() {
        let mut rng = StdRng::seed_from_u64(9);
        let corpus = build_corpus(&mut rng, 6, 128, 1);
        let mut moduli = corpus.moduli();
        // Plant a duplicate pair alongside the planted shared-prime pair.
        let dup = moduli[1].clone();
        moduli.push(dup);
        let rep = cpu_scan(&moduli, Algorithm::Approximate, true).unwrap();
        assert_eq!(rep.duplicate_pairs, 1);
        let dups: Vec<_> = rep
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::DuplicateModulus)
            .collect();
        assert_eq!(dups.len(), 1);
        assert_eq!((dups[0].i, dups[0].j), (1, 6));
        assert_eq!(
            dups[0].factor, moduli[1],
            "duplicate finding carries gcd = n"
        );
        // The planted shared-prime pair is still classified as such.
        assert!(rep
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::SharedPrime));
        // The GPU path classifies identically.
        let gpu = gpu_scan(&moduli, Algorithm::Approximate, true, 16, false).unwrap();
        assert_eq!(gpu.findings, rep.findings);
        assert_eq!(gpu.duplicate_pairs, 1);
    }

    #[test]
    fn product_tree_backend_matches_pairwise_scan() {
        let mut rng = StdRng::seed_from_u64(31);
        let corpus = build_corpus(&mut rng, 10, 128, 2);
        let mut moduli = corpus.moduli();
        let dup = moduli[3].clone();
        moduli.push(dup);
        let arena = ModuliArena::try_from_moduli(&moduli).unwrap();
        let pairwise = ScanPipeline::new(&arena).run().unwrap().scan;
        for parallel in [false, true] {
            let batch = ScanPipeline::new(&arena)
                .backend(ProductTreeBackend { parallel })
                .run()
                .unwrap()
                .scan;
            assert_eq!(batch.findings, pairwise.findings, "parallel={parallel}");
            assert_eq!(batch.pairs_scanned, pairwise.pairs_scanned);
            assert_eq!(batch.duplicate_pairs, pairwise.duplicate_pairs);
            assert_eq!(batch.simulated_seconds, None);
        }
    }

    #[test]
    fn product_tree_backend_all_flagged_corpus_matches_pairwise_scan() {
        // 257 keys, every one flagged: a 128-key chain where key k is
        // a_k·a_{k+1} (both primes shared), 16 device batches of 8 keys
        // sharing one prime each, and a duplicate modulus.
        let mut rng = StdRng::seed_from_u64(34);
        let mut prime = || random_prime(&mut rng, 64);
        let chain: Vec<Nat> = (0..129).map(|_| prime()).collect();
        let mut moduli: Vec<Nat> = chain.windows(2).map(|w| w[0].mul(&w[1])).collect();
        for _ in 0..16 {
            let shared = prime();
            moduli.extend((0..8).map(|_| shared.mul(&prime())));
        }
        moduli.push(moduli[200].clone());
        let arena = ModuliArena::try_from_moduli(&moduli).unwrap();
        let pairwise = ScanPipeline::new(&arena).run().unwrap().scan;
        assert_eq!(pairwise.findings.len(), 127 + 16 * 28 + 8);
        for parallel in [false, true] {
            let batch = ScanPipeline::new(&arena)
                .backend(ProductTreeBackend { parallel })
                .run()
                .unwrap()
                .scan;
            assert_eq!(batch.findings, pairwise.findings, "parallel={parallel}");
            assert_eq!(batch.duplicate_pairs, pairwise.duplicate_pairs);
        }
    }

    #[test]
    fn product_tree_backend_refuses_launch_layers() {
        let mut rng = StdRng::seed_from_u64(32);
        let corpus = build_corpus(&mut rng, 6, 96, 1);
        let arena = ModuliArena::try_from_moduli(&corpus.moduli()).unwrap();
        let mut journal = ScanJournal::in_memory();
        match ScanPipeline::new(&arena)
            .backend(ProductTreeBackend::default())
            .journal(&mut journal)
            .run()
        {
            Err(ScanError::Unsupported { backend, .. }) => assert_eq!(backend, "product-tree"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn metrics_layer_accounts_every_launch() {
        let mut rng = StdRng::seed_from_u64(33);
        let corpus = build_corpus(&mut rng, 12, 128, 2);
        let arena = ModuliArena::try_from_moduli(&corpus.moduli()).unwrap();
        let rep = ScanPipeline::new(&arena)
            .backend(gpu_backend())
            .launch_pairs(7)
            .metrics()
            .run()
            .unwrap();
        let metrics = rep.metrics.expect("metrics requested");
        assert_eq!(metrics.backend, "gpu-sim");
        assert_eq!(metrics.total_launches, rep.stats.total_launches);
        assert_eq!(metrics.launches.len() as u64, metrics.total_launches);
        // Rows are in launch order and cover every pair exactly once.
        for (idx, row) in metrics.launches.iter().enumerate() {
            assert_eq!(row.launch, idx as u64);
            assert!(row.lanes > 0);
            assert!(row.warps > 0);
            assert!(row.warp_instructions > 0.0);
            assert_eq!(row.attempts, 1);
            assert!(!row.cpu_fallback);
        }
        let lanes: u64 = metrics.launches.iter().map(|l| l.lanes).sum();
        assert_eq!(lanes, rep.scan.pairs_scanned);
        // Per-launch simulated seconds sum to the report's clock (same
        // launch-order f64 sum).
        assert_eq!(
            metrics.total_simulated_seconds().unwrap().to_bits(),
            rep.scan.simulated().unwrap().to_bits()
        );
        // The JSON rendering carries the roll-ups.
        let json = metrics.to_json();
        assert!(json.contains("\"backend\": \"gpu-sim\""));
        assert!(json.contains("\"total_launches\""));
        assert!(json.contains("\"launches\": ["));
    }

    /// The uninterrupted resumable run, fault-free: the reference every
    /// fault scenario must reproduce byte for byte.
    fn fault_free_reference(
        arena: &ModuliArena,
        launch_pairs: usize,
    ) -> (ScanReport, PipelineReport) {
        let plain = ScanPipeline::new(arena)
            .backend(gpu_backend())
            .launch_pairs(launch_pairs)
            .run()
            .unwrap()
            .scan;
        let mut journal = ScanJournal::in_memory();
        let resumable =
            resumable_scan(arena, launch_pairs, &mut journal, &FaultPlan::none()).unwrap();
        (plain, resumable)
    }

    #[test]
    fn fault_free_resumable_matches_plain_gpu_scan() {
        let mut rng = StdRng::seed_from_u64(10);
        let corpus = build_corpus(&mut rng, 12, 128, 3);
        let arena = ModuliArena::try_from_moduli(&corpus.moduli()).unwrap();
        let (plain, resumable) = fault_free_reference(&arena, 7);
        assert_eq!(resumable.scan.findings, plain.findings);
        assert_eq!(resumable.scan.pairs_scanned, plain.pairs_scanned);
        assert_eq!(
            resumable.scan.simulated().unwrap().to_bits(),
            plain.simulated().unwrap().to_bits(),
            "launch-order merge must make even the f64 sum identical"
        );
        assert_eq!(
            resumable.stats.executed_launches,
            resumable.stats.total_launches
        );
        assert_eq!(resumable.stats.resumed_launches, 0);
        assert_eq!(resumable.stats.cpu_fallback_launches, 0);
    }

    #[test]
    fn kill_and_resume_reproduces_uninterrupted_run_at_every_boundary() {
        let mut rng = StdRng::seed_from_u64(11);
        let corpus = build_corpus(&mut rng, 10, 128, 2);
        let arena = ModuliArena::try_from_moduli(&corpus.moduli()).unwrap();
        let launch_pairs = 6;
        let (_, reference) = fault_free_reference(&arena, launch_pairs);
        let total = reference.stats.total_launches;
        assert!(
            total > 2,
            "need several launches to make the test meaningful"
        );

        for kill_at in 0..total {
            let plan = FaultPlan::none().with_kill(kill_at);
            let mut journal = ScanJournal::in_memory();
            match resumable_scan(&arena, launch_pairs, &mut journal, &plan) {
                Err(ScanError::Interrupted { launch }) => assert_eq!(launch, kill_at),
                other => panic!("kill at {kill_at}: expected Interrupted, got {other:?}"),
            }
            assert_eq!(
                journal.committed(),
                kill_at,
                "exactly the pre-kill prefix commits"
            );
            assert!(!journal.is_done());

            // Resume with the fired kill dropped: the run completes and is
            // byte-identical to the uninterrupted reference.
            let resumed = resumable_scan(
                &arena,
                launch_pairs,
                &mut journal,
                &plan.clone().without_kill_at(kill_at),
            )
            .unwrap();
            assert!(journal.is_done());
            assert_eq!(
                resumed.scan.findings, reference.scan.findings,
                "kill at {kill_at}"
            );
            assert_eq!(resumed.scan.duplicate_pairs, reference.scan.duplicate_pairs);
            assert_eq!(
                resumed.scan.simulated().unwrap().to_bits(),
                reference.scan.simulated().unwrap().to_bits(),
                "kill at {kill_at}: resumed f64 sum must be bitwise identical"
            );
            assert_eq!(resumed.stats.resumed_launches, kill_at);
            assert_eq!(resumed.stats.executed_launches, total - kill_at);
        }
    }

    #[test]
    fn file_journal_survives_process_boundary_and_resumes() {
        // The closest in-process analogue to a real crash: the killed run's
        // journal handle is dropped, and the resume replays the journal
        // from disk — nothing survives in memory between the two runs.
        let mut rng = StdRng::seed_from_u64(16);
        let corpus = build_corpus(&mut rng, 10, 128, 2);
        let arena = ModuliArena::try_from_moduli(&corpus.moduli()).unwrap();
        let launch_pairs = 6;
        let (_, reference) = fault_free_reference(&arena, launch_pairs);
        let kill_at = reference.stats.total_launches / 2;

        let dir = std::env::temp_dir().join("bulkgcd-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("scan-resume-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        {
            let plan = FaultPlan::none().with_kill(kill_at);
            let mut journal = ScanJournal::open(&path).unwrap();
            match ScanPipeline::new(&arena)
                .backend(gpu_backend())
                .launch_pairs(launch_pairs)
                .journal(&mut journal)
                .faults(&plan)
                .run()
            {
                Err(ScanError::Interrupted { launch }) => assert_eq!(launch, kill_at),
                other => panic!("expected Interrupted, got {other:?}"),
            }
        }

        let mut journal = ScanJournal::open(&path).unwrap();
        assert_eq!(journal.committed(), kill_at, "pre-kill prefix is on disk");
        assert!(!journal.is_done());
        let resumed =
            resumable_scan(&arena, launch_pairs, &mut journal, &FaultPlan::none()).unwrap();
        assert!(journal.is_done());
        assert_eq!(resumed.scan.findings, reference.scan.findings);
        assert_eq!(
            resumed.scan.simulated().unwrap().to_bits(),
            reference.scan.simulated().unwrap().to_bits()
        );
        assert_eq!(resumed.stats.resumed_launches, kill_at);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn transient_faults_are_retried_and_change_nothing() {
        let mut rng = StdRng::seed_from_u64(12);
        let corpus = build_corpus(&mut rng, 10, 128, 2);
        let arena = ModuliArena::try_from_moduli(&corpus.moduli()).unwrap();
        let (_, reference) = fault_free_reference(&arena, 6);
        // Two launches hiccup: 2 and 1 failing attempts, all within the
        // default 4-attempt budget.
        let plan = FaultPlan::none().with_transient(0, 2).with_transient(2, 1);
        let mut journal = ScanJournal::in_memory();
        let rep = resumable_scan(&arena, 6, &mut journal, &plan).unwrap();
        assert_eq!(rep.scan.findings, reference.scan.findings);
        assert_eq!(
            rep.scan.simulated().unwrap().to_bits(),
            reference.scan.simulated().unwrap().to_bits()
        );
        assert_eq!(rep.stats.retried_attempts, 3);
        assert_eq!(rep.stats.cpu_fallback_launches, 0);
        assert!(
            rep.stats.backoff > Duration::ZERO,
            "backoff must be accounted"
        );
    }

    #[test]
    fn persistent_fault_degrades_to_cpu_with_identical_findings() {
        let mut rng = StdRng::seed_from_u64(13);
        let corpus = build_corpus(&mut rng, 10, 128, 3);
        let arena = ModuliArena::try_from_moduli(&corpus.moduli()).unwrap();
        let (_, reference) = fault_free_reference(&arena, 5);
        let total = reference.stats.total_launches;
        // Every launch persistently fails in turn; findings never change.
        for bad in 0..total {
            let plan = FaultPlan::none().with_persistent(bad);
            let mut journal = ScanJournal::in_memory();
            let rep = resumable_scan(&arena, 5, &mut journal, &plan).unwrap();
            assert_eq!(
                rep.scan.findings, reference.scan.findings,
                "persistent at {bad}"
            );
            assert_eq!(rep.stats.cpu_fallback_launches, 1);
            // The fallback launch contributes no simulated device seconds.
            assert!(rep.scan.simulated().unwrap() <= reference.scan.simulated().unwrap());
        }
    }

    #[test]
    fn exhausted_retries_also_degrade_to_cpu() {
        let mut rng = StdRng::seed_from_u64(14);
        let corpus = build_corpus(&mut rng, 8, 128, 2);
        let arena = ModuliArena::try_from_moduli(&corpus.moduli()).unwrap();
        let (_, reference) = fault_free_reference(&arena, 6);
        // 10 transient failures >> the 4-attempt budget: fallback, not loop.
        let plan = FaultPlan::none().with_transient(1, 10);
        let mut journal = ScanJournal::in_memory();
        let rep = resumable_scan(&arena, 6, &mut journal, &plan).unwrap();
        assert_eq!(rep.scan.findings, reference.scan.findings);
        assert_eq!(rep.stats.cpu_fallback_launches, 1);
        assert_eq!(rep.stats.retried_attempts, 3, "4 attempts = 3 retries");
    }

    #[test]
    fn layered_metrics_record_retries_and_fallbacks() {
        let mut rng = StdRng::seed_from_u64(34);
        let corpus = build_corpus(&mut rng, 10, 128, 2);
        let arena = ModuliArena::try_from_moduli(&corpus.moduli()).unwrap();
        let plan = FaultPlan::none().with_transient(1, 2).with_persistent(3);
        let mut journal = ScanJournal::in_memory();
        let rep = ScanPipeline::new(&arena)
            .backend(gpu_backend())
            .launch_pairs(7)
            .journal(&mut journal)
            .faults(&plan)
            .metrics()
            .run()
            .unwrap();
        let metrics = rep.metrics.expect("metrics requested");
        assert_eq!(metrics.retried_attempts(), rep.stats.retried_attempts);
        assert_eq!(metrics.cpu_fallbacks(), rep.stats.cpu_fallback_launches);
        assert_eq!(metrics.total_backoff(), rep.stats.backoff);
        let row1 = &metrics.launches[1];
        assert_eq!(row1.attempts, 3, "two transient failures then success");
        let row3 = &metrics.launches[3];
        assert!(row3.cpu_fallback);
        assert_eq!(row3.simulated_seconds, None);
    }

    #[test]
    fn journal_from_different_corpus_is_refused() {
        let mut rng = StdRng::seed_from_u64(15);
        let corpus_a = build_corpus(&mut rng, 8, 128, 1);
        let corpus_b = build_corpus(&mut rng, 8, 128, 1);
        let arena_a = ModuliArena::try_from_moduli(&corpus_a.moduli()).unwrap();
        let arena_b = ModuliArena::try_from_moduli(&corpus_b.moduli()).unwrap();
        let mut journal = ScanJournal::in_memory();
        resumable_scan(&arena_a, 8, &mut journal, &FaultPlan::none()).unwrap();
        match resumable_scan(&arena_b, 8, &mut journal, &FaultPlan::none()) {
            Err(ScanError::Journal(JournalError::Mismatch { field, .. })) => {
                assert_eq!(field, "fingerprint")
            }
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
    }
}

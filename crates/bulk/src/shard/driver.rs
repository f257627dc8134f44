//! The sharded-scan driver: a deterministic event loop over logical time.
//!
//! `run_sharded` plays the full multi-worker protocol — acquire, execute,
//! heartbeat, die, reclaim, resume, complete, merge — inside one process,
//! with worker incarnations (`w0`, `w1`, …) standing in for processes and
//! a logical clock (one tick per executed launch) standing in for wall
//! time. Per-tile journals live either in memory (serialized through
//! [`ScanJournal::to_bytes`], so a "dead" worker's journal is exactly the
//! bytes it had fsynced) or as real files under a directory, where a
//! killed *host* process can also resume: the ledger and every shard
//! journal replay on reopen.
//!
//! Injected [`ShardFaultSpec`]s fire on a tile's first assignment only —
//! like [`FaultPlan`] kills, the failure does not recur on resume — so
//! every seeded schedule terminates.

use crate::arena::ModuliArena;
use crate::checkpoint::{JournalError, ScanJournal};
use crate::fault::{FaultPlan, ShardFaultPlan, ShardFaultSpec};
use crate::scan::report::{LaunchMetrics, ScanError, ScanMetrics, ScanReport};
use crate::scan::{ScanBackend, ScanPipeline};
use crate::shard::coordinator::{Completion, CoordStats, Coordinator, LedgerError, LedgerHeader};
use crate::shard::merge::{merge_tiles, MergeError};
use crate::shard::{tile_fingerprint, TilePlan};
use bulkgcd_core::Algorithm;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::PathBuf;
use std::time::Instant;

/// Configuration of one sharded scan.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of tiles to partition the launch sequence into (the actual
    /// tile count is capped at the launch count).
    pub shards: usize,
    /// Lanes per launch — the chunking unit tiles are aligned to.
    pub launch_pairs: usize,
    /// The GCD variant.
    pub algo: Algorithm,
    /// Whether §V early termination is enabled.
    pub early: bool,
    /// Run each worker's launches serially (the deterministic reference).
    pub serial: bool,
    /// Collect per-launch metrics rows into the merged report.
    pub collect_metrics: bool,
    /// Persist the ledger and per-tile journals under this directory
    /// (`ledger` and `shard-<i>.journal`); `None` keeps them in memory.
    pub dir: Option<PathBuf>,
}

impl ShardConfig {
    /// A sharded scan with `shards` tiles and the library defaults
    /// (Approximate Euclid, early termination on, parallel workers,
    /// in-memory journals).
    pub fn new(shards: usize, launch_pairs: usize) -> Self {
        ShardConfig {
            shards,
            launch_pairs,
            algo: Algorithm::Approximate,
            early: true,
            serial: false,
            collect_metrics: false,
            dir: None,
        }
    }
}

/// Accounting for one sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Tiles in the plan.
    pub tiles: usize,
    /// Worker incarnations that attempted a tile.
    pub worker_attempts: u64,
    /// Attempts that died mid-tile (injected worker deaths, torn or not).
    pub worker_deaths: u64,
    /// Worker deaths that additionally tore the journal's final line.
    pub torn_journals: u64,
    /// Attempts that finished their tile but lost the lease before
    /// reporting, abandoning a fully committed journal.
    pub lease_losses: u64,
    /// Completions the coordinator discarded as duplicates.
    pub duplicate_completions: u64,
    /// Launches restored from shard journals instead of re-executed.
    pub resumed_launches: u64,
    /// Launches executed across all attempts.
    pub executed_launches: u64,
    /// Retry attempts beyond first across all launches.
    pub retried_attempts: u64,
    /// Launches that degraded to the CPU fallback path.
    pub cpu_fallback_launches: u64,
}

/// Everything a sharded scan produces.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// The merged scan outcome — bitwise identical to an unsharded run.
    pub scan: ScanReport,
    /// Driver-side accounting.
    pub stats: ShardStats,
    /// Coordinator-side accounting (leases, reclaims, duplicates).
    pub coordinator: CoordStats,
    /// Merged per-launch metrics rows (launches executed under a kill and
    /// then resumed have no row, as in the single-process pipeline).
    pub metrics: Option<ScanMetrics>,
}

/// Why a sharded scan failed.
#[derive(Debug)]
pub enum ShardError {
    /// A worker's pipeline failed for a non-kill reason.
    Scan(ScanError),
    /// The coordinator's ledger refused an operation.
    Ledger(LedgerError),
    /// A shard journal could not be read or written.
    Journal(JournalError),
    /// Per-shard journals could not be merged.
    Merge(MergeError),
    /// Journal-directory I/O failed.
    Io(io::Error),
    /// The event loop stopped making progress — a protocol bug, surfaced
    /// instead of hanging.
    Stalled {
        /// Attempts made before giving up.
        attempts: u64,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Scan(e) => write!(f, "shard worker scan: {e}"),
            ShardError::Ledger(e) => write!(f, "shard coordinator: {e}"),
            ShardError::Journal(e) => write!(f, "shard journal: {e}"),
            ShardError::Merge(e) => write!(f, "shard merge: {e}"),
            ShardError::Io(e) => write!(f, "shard directory I/O: {e}"),
            ShardError::Stalled { attempts } => write!(
                f,
                "sharded scan stalled after {attempts} worker attempts; \
                 this is a coordinator protocol bug"
            ),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Scan(e) => Some(e),
            ShardError::Ledger(e) => Some(e),
            ShardError::Journal(e) => Some(e),
            ShardError::Merge(e) => Some(e),
            ShardError::Io(e) => Some(e),
            ShardError::Stalled { .. } => None,
        }
    }
}

impl From<ScanError> for ShardError {
    fn from(e: ScanError) -> Self {
        ShardError::Scan(e)
    }
}
impl From<LedgerError> for ShardError {
    fn from(e: LedgerError) -> Self {
        ShardError::Ledger(e)
    }
}
impl From<JournalError> for ShardError {
    fn from(e: JournalError) -> Self {
        ShardError::Journal(e)
    }
}
impl From<MergeError> for ShardError {
    fn from(e: MergeError) -> Self {
        ShardError::Merge(e)
    }
}
impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// Where per-tile journals live between worker incarnations.
enum JournalStore {
    Memory(Vec<Vec<u8>>),
    Dir(PathBuf),
}

impl JournalStore {
    fn path(dir: &std::path::Path, tile: usize) -> PathBuf {
        dir.join(format!("shard-{tile}.journal"))
    }

    fn load(&self, tile: usize) -> Result<ScanJournal, ShardError> {
        match self {
            JournalStore::Memory(store) => Ok(ScanJournal::from_bytes(&store[tile])?),
            JournalStore::Dir(dir) => Ok(ScanJournal::open(&Self::path(dir, tile))?),
        }
    }

    /// Persist the journal's committed state. File-backed journals are
    /// already on disk (every commit was appended and fsynced); only the
    /// in-memory store needs an explicit write-back.
    fn save(&mut self, tile: usize, journal: &ScanJournal) {
        if let JournalStore::Memory(store) = self {
            store[tile] = journal.to_bytes();
        }
    }

    /// Tear the journal's tail: append a half-written line with no
    /// terminating newline, exactly what a crash mid-append leaves.
    fn tear(&mut self, tile: usize, journal: &ScanJournal) -> Result<(), ShardError> {
        const TORN: &[u8] = b"L 999999 sim=00";
        match self {
            JournalStore::Memory(store) => {
                store[tile] = journal.to_bytes();
                store[tile].extend_from_slice(TORN);
            }
            JournalStore::Dir(dir) => {
                let mut f = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(Self::path(dir, tile))?;
                f.write_all(TORN)?;
            }
        }
        Ok(())
    }
}

/// Run a sharded all-pairs scan of `arena`: plan tiles, coordinate
/// worker incarnations under `faults`, and merge the per-shard journals
/// into a report bitwise identical to an unsharded
/// [`ScanPipeline`](crate::scan::ScanPipeline) run with the same backend
/// and `launch_pairs`.
///
/// `make_backend` is called once per worker incarnation — each stands in
/// for a fresh process with its own backend instance.
pub fn run_sharded<B, F>(
    arena: &ModuliArena,
    config: &ShardConfig,
    faults: &ShardFaultPlan,
    make_backend: F,
) -> Result<ShardedReport, ShardError>
where
    B: ScanBackend,
    F: Fn() -> B,
{
    let start = Instant::now();
    let priced = make_backend().prices_launches();
    let backend_name = make_backend().name();
    let plan = TilePlan::new(arena.len(), config.launch_pairs, config.shards);

    let mut stats = ShardStats {
        tiles: plan.len(),
        ..ShardStats::default()
    };

    if plan.is_empty() {
        // Fewer than two moduli: nothing to shard, nothing to scan.
        return Ok(ShardedReport {
            scan: ScanReport::fold([], 0, start.elapsed(), priced),
            stats,
            coordinator: CoordStats::default(),
            metrics: config.collect_metrics.then(|| ScanMetrics {
                backend: backend_name,
                ..ScanMetrics::default()
            }),
        });
    }

    let mut coordinator = match &config.dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            Coordinator::open(&dir.join("ledger"))?
        }
        None => Coordinator::in_memory(),
    };
    coordinator.check_compatible(&LedgerHeader::for_plan(
        arena,
        config.algo,
        config.early,
        &plan,
    ))?;

    let mut store = match &config.dir {
        Some(dir) => JournalStore::Dir(dir.clone()),
        None => JournalStore::Memory(vec![Vec::new(); plan.len()]),
    };

    // A lease must outlive a healthy worker's longest possible attempt
    // (one tick per executed launch) with room to heartbeat.
    let max_tile = plan.tiles().iter().map(|t| t.launches).max().unwrap_or(1);
    let lease = 2 * max_tile + 2;

    let mut clock: u64 = 0;
    let mut incarnation: u64 = 0;
    let mut fault_armed: Vec<bool> = vec![true; plan.len()];
    let mut metrics_rows: BTreeMap<u64, LaunchMetrics> = BTreeMap::new();
    // Generous progress bound: each tile needs at most a handful of
    // attempts (its one injected fault, then healthy retries).
    let max_attempts = plan.len() as u64 * 8 + 64;

    while !coordinator.all_complete() {
        if stats.worker_attempts >= max_attempts {
            return Err(ShardError::Stalled {
                attempts: stats.worker_attempts,
            });
        }
        let worker_name = format!("w{incarnation}");
        let Some(grant) = coordinator.acquire(&worker_name, clock, lease)? else {
            // Every incomplete tile is under a live lease held by a dead
            // worker (a live one would have completed before we got
            // here): advance to the earliest expiry and reclaim.
            match coordinator.next_expiry() {
                Some(expiry) => clock = clock.max(expiry),
                None => {
                    return Err(ShardError::Stalled {
                        attempts: stats.worker_attempts,
                    })
                }
            }
            continue;
        };
        incarnation += 1;
        stats.worker_attempts += 1;
        let tile = plan.tiles()[grant.tile];
        let fault = if fault_armed[tile.index] {
            fault_armed[tile.index] = false;
            faults.spec(tile.index as u64)
        } else {
            None
        };

        let launch_faults = match fault {
            Some(ShardFaultSpec::WorkerDeath { after_launches })
            | Some(ShardFaultSpec::TornJournal { after_launches }) => {
                FaultPlan::none().with_kill(tile.start + after_launches % tile.launches)
            }
            _ => FaultPlan::none(),
        };

        let mut journal = store.load(tile.index)?;
        let before = journal.committed();
        stats.resumed_launches += before;

        // One worker incarnation: the ordinary pipeline pointed at its
        // tile, committing to the shard journal, so each shard survives
        // kill/resume exactly like an unsharded scan.
        let mut pipeline = ScanPipeline::new(arena)
            .algorithm(config.algo)
            .early(config.early)
            .backend(make_backend())
            .launch_pairs(config.launch_pairs)
            .serial(config.serial)
            .tile(tile)
            .journal(&mut journal)
            .faults(&launch_faults);
        if config.collect_metrics {
            pipeline = pipeline.metrics();
        }
        let result = pipeline.run();

        let executed = journal.committed() - before;
        stats.executed_launches += executed;
        // Logical time: one tick per executed launch.
        clock = clock.saturating_add(executed);

        match result {
            Ok(report) => {
                stats.retried_attempts += report.stats.retried_attempts;
                stats.cpu_fallback_launches += report.stats.cpu_fallback_launches;
                if let Some(metrics) = report.metrics {
                    for row in metrics.launches {
                        metrics_rows.entry(row.launch).or_insert(row);
                    }
                }
                store.save(tile.index, &journal);

                if matches!(fault, Some(ShardFaultSpec::LeaseLoss)) {
                    // The worker finished but stalls past its expiry; its
                    // heartbeat is refused and it must abandon the tile —
                    // with the journal fully committed for the reclaimer.
                    clock = clock.max(grant.expires);
                    match coordinator.renew(tile.index, &worker_name, clock, lease) {
                        Err(LedgerError::LeaseLost { .. }) => {
                            stats.lease_losses += 1;
                            continue;
                        }
                        Ok(_) => {
                            return Err(ShardError::Stalled {
                                attempts: stats.worker_attempts,
                            })
                        }
                        Err(e) => return Err(e.into()),
                    }
                }

                // Healthy completion path: heartbeat, then report. A
                // refused heartbeat is a lease loss, not an error — the
                // journal is done and the reclaimer completes it cheaply.
                match coordinator.renew(tile.index, &worker_name, clock, lease) {
                    Ok(_) => {}
                    Err(LedgerError::LeaseLost { .. }) => {
                        stats.lease_losses += 1;
                        continue;
                    }
                    Err(e) => return Err(e.into()),
                }
                let fp = tile_fingerprint(&journal);
                match coordinator.complete(tile.index, &worker_name, fp)? {
                    Completion::Accepted => {}
                    Completion::Duplicate => stats.duplicate_completions += 1,
                }
                if matches!(fault, Some(ShardFaultSpec::DuplicateCompletion)) {
                    // The worker's resurrected incarnation resubmits the
                    // same completion; the fingerprint match discards it.
                    match coordinator.complete(tile.index, &worker_name, fp)? {
                        Completion::Duplicate => stats.duplicate_completions += 1,
                        Completion::Accepted => {
                            return Err(ShardError::Stalled {
                                attempts: stats.worker_attempts,
                            })
                        }
                    }
                }
            }
            Err(ScanError::Interrupted { .. }) => {
                // The worker died at a launch boundary. Its journal keeps
                // the committed prefix; its lease runs out on its own and
                // the tile is reclaimed then.
                stats.worker_deaths += 1;
                if matches!(fault, Some(ShardFaultSpec::TornJournal { .. })) {
                    stats.torn_journals += 1;
                    store.tear(tile.index, &journal)?;
                } else {
                    store.save(tile.index, &journal);
                }
            }
            Err(e) => return Err(e.into()),
        }
    }

    // Merge straight from the journals — the single source of truth, as
    // in the single-process pipeline.
    let journals: Vec<ScanJournal> = (0..plan.len())
        .map(|tile| store.load(tile))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&ScanJournal> = journals.iter().collect();
    let scan = merge_tiles(&plan, &refs, priced, start.elapsed())?;

    let metrics = config.collect_metrics.then(|| {
        let rows: Vec<LaunchMetrics> = metrics_rows.into_values().collect();
        ScanMetrics {
            backend: backend_name,
            total_launches: plan.launches(),
            resumed_launches: plan.launches() - rows.len() as u64,
            launches: rows,
        }
    });

    Ok(ShardedReport {
        scan,
        stats,
        coordinator: coordinator.stats(),
        metrics,
    })
}

//! Scan outcome types: findings, reports, errors, and pipeline metrics.

use crate::arena::ArenaError;
use crate::checkpoint::JournalError;
use bulkgcd_bigint::Nat;
use std::fmt;
use std::time::Duration;

/// What a finding means for the two moduli involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// A proper shared factor: `1 < gcd < n_i, n_j`. Both keys factor.
    SharedPrime,
    /// `gcd(n_i, n_j) == n_i` (or `n_j`) — the moduli are duplicates (or
    /// one divides the other). The pair is vulnerable but GCD alone cannot
    /// split either modulus, so it must not be reported as a shared prime.
    DuplicateModulus,
}

/// A pair of moduli found to share a factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Index of the first modulus.
    pub i: usize,
    /// Index of the second modulus.
    pub j: usize,
    /// What the factor means (proper shared prime vs duplicate modulus).
    pub kind: FindingKind,
    /// The shared factor (`gcd(n_i, n_j)`, > 1).
    pub factor: Nat,
}

/// Outcome of a scan.
#[derive(Debug, Clone)]
pub struct ScanReport {
    /// Pairs sharing a factor, ordered by (i, j).
    pub findings: Vec<Finding>,
    /// Unordered pairs examined.
    pub pairs_scanned: u64,
    /// Findings of kind [`FindingKind::DuplicateModulus`].
    pub duplicate_pairs: u64,
    /// Wall-clock time of the scan (host time; for the GPU scan this is
    /// the simulation's own runtime, not the simulated device time).
    pub elapsed: Duration,
    /// Simulated device seconds (launch-priced backends only). Prefer the
    /// checked accessor [`simulated`](Self::simulated) over unwrapping.
    pub simulated_seconds: Option<f64>,
}

impl ScanReport {
    /// Fold launch results into a report: each launch's findings and
    /// simulated seconds, given in launch order. Findings are sorted by
    /// `(i, j)` and duplicate moduli counted; simulated seconds are summed
    /// in the order given, so every driver that folds the same launches in
    /// launch order gets the same `f64` bit for bit. `priced` says whether
    /// the backend fills the simulated clock at all.
    pub(crate) fn fold<'r>(
        launches: impl IntoIterator<Item = (&'r [Finding], f64)>,
        pairs_scanned: u64,
        elapsed: Duration,
        priced: bool,
    ) -> ScanReport {
        let mut findings = Vec::new();
        let mut simulated = 0f64;
        for (found, seconds) in launches {
            findings.extend_from_slice(found);
            simulated += seconds;
        }
        findings.sort_by_key(|f| (f.i, f.j));
        let duplicate_pairs = findings
            .iter()
            .filter(|f| f.kind == FindingKind::DuplicateModulus)
            .count() as u64;
        ScanReport {
            findings,
            pairs_scanned,
            duplicate_pairs,
            elapsed,
            simulated_seconds: priced.then_some(simulated),
        }
    }

    /// Simulated device seconds, or [`NoSimulatedClock`] when the scan ran
    /// on a backend that does not price launches (the pure-CPU paths).
    ///
    /// The field is `None` exactly on those paths, so an `unwrap()` there
    /// turns a backend mix-up into a panic; this accessor turns it into a
    /// diagnosable error instead.
    pub fn simulated(&self) -> Result<f64, NoSimulatedClock> {
        self.simulated_seconds.ok_or(NoSimulatedClock)
    }
}

/// Asked a pure-CPU scan report for its simulated device clock.
///
/// Returned by [`ScanReport::simulated`]: only launch-priced backends (the
/// simulated GPU) fill `simulated_seconds`; the scalar and lockstep host
/// scans have no device clock to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoSimulatedClock;

impl fmt::Display for NoSimulatedClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scan has no simulated device clock (it ran on a pure-CPU backend, \
             not the simulated GPU)"
        )
    }
}

impl std::error::Error for NoSimulatedClock {}

/// Why a scan did not produce a report.
#[derive(Debug)]
pub enum ScanError {
    /// The corpus could not be packed into a [`ModuliArena`](crate::arena::ModuliArena).
    Arena(ArenaError),
    /// The checkpoint journal rejected the run (I/O failure, corruption,
    /// or a journal written by a different scan configuration).
    Journal(JournalError),
    /// An injected kill fired at a launch boundary: the scan stopped as a
    /// crashed process would, leaving the journal resumable. Only pipelines
    /// running under a killing [`FaultPlan`](crate::fault::FaultPlan)
    /// return this.
    Interrupted {
        /// The launch boundary the kill fired at (not yet executed).
        launch: u64,
    },
    /// The scan asks the backend for a capability it does not have (e.g.
    /// checkpointing a whole-corpus product-tree backend, which has no
    /// launch boundaries to journal).
    Unsupported {
        /// The backend that lacks the capability.
        backend: &'static str,
        /// What was asked of it.
        what: &'static str,
    },
    /// The pipeline was restricted to a tile that does not fit the scan's
    /// launch sequence (a shard plan built for a different corpus or
    /// launch width).
    InvalidTile {
        /// First launch of the requested tile.
        tile_start: u64,
        /// Launch count of the requested tile.
        tile_launches: u64,
        /// Launches the scan actually has.
        launches: u64,
    },
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanError::Arena(e) => write!(f, "corpus rejected: {e}"),
            ScanError::Journal(e) => write!(f, "checkpoint journal: {e}"),
            ScanError::Interrupted { launch } => write!(
                f,
                "scan killed at launch boundary {launch}; resume it from the journal"
            ),
            ScanError::Unsupported { backend, what } => {
                write!(f, "the {backend} backend does not support {what}")
            }
            ScanError::InvalidTile {
                tile_start,
                tile_launches,
                launches,
            } => write!(
                f,
                "tile [{tile_start}, {}) does not fit a scan of {launches} launches; \
                 the shard plan was built for a different corpus or launch width",
                tile_start.saturating_add(*tile_launches)
            ),
        }
    }
}

impl std::error::Error for ScanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScanError::Arena(e) => Some(e),
            ScanError::Journal(e) => Some(e),
            ScanError::Interrupted { .. }
            | ScanError::Unsupported { .. }
            | ScanError::InvalidTile { .. } => None,
        }
    }
}

impl From<ArenaError> for ScanError {
    fn from(e: ArenaError) -> Self {
        ScanError::Arena(e)
    }
}

impl From<JournalError> for ScanError {
    fn from(e: JournalError) -> Self {
        ScanError::Journal(e)
    }
}

/// Bookkeeping from one fault-tolerant scan run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Launches the whole scan needs.
    pub total_launches: u64,
    /// Launches restored from the journal instead of re-executed.
    pub resumed_launches: u64,
    /// Launches executed (successfully) by this run.
    pub executed_launches: u64,
    /// Retry attempts beyond each launch's first (transient faults).
    pub retried_attempts: u64,
    /// Launches that exhausted the device and fell back to the CPU path.
    pub cpu_fallback_launches: u64,
    /// Total backoff a production driver would have slept between retries.
    pub backoff: Duration,
}

/// Everything a [`ScanPipeline`](crate::scan::ScanPipeline) run produces.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The scan outcome.
    pub scan: ScanReport,
    /// Resume/retry/fallback accounting (all-zero except `total_launches`
    /// and `executed_launches` for a fresh scan without faults).
    pub stats: FaultStats,
    /// Per-launch execution metrics, when
    /// [`metrics`](crate::scan::ScanPipeline::metrics) was requested.
    pub metrics: Option<ScanMetrics>,
}

/// Execution metrics of one pipeline launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchMetrics {
    /// The launch index within the scan's launch sequence.
    pub launch: u64,
    /// Lanes (pairs) the launch covered.
    pub lanes: u64,
    /// Warps executed (0 for the scalar backend).
    pub warps: u64,
    /// Warp-instructions issued, including divergence serialisation.
    pub warp_instructions: f64,
    /// Coalesced memory transactions issued.
    pub mem_transactions: u64,
    /// Total GCD lane-iterations (0 when the backend does not count them).
    pub lane_iterations: u64,
    /// Σ running lanes over lockstep iterations (useful issue slots; 0
    /// for backends without a lockstep engine).
    pub active_lane_iters: u64,
    /// Σ resident warp width over lockstep iterations (issued slots).
    pub resident_lane_iters: u64,
    /// Compaction events (survivors repacked into a dense column prefix).
    pub compactions: u64,
    /// Refill events (dead columns reloaded with pending pairs).
    pub refills: u64,
    /// Simulated device seconds (launch-priced backends only).
    pub simulated_seconds: Option<f64>,
    /// Host wall-clock seconds spent executing the launch.
    pub host_seconds: f64,
    /// Attempts made (1 for a first-try success).
    pub attempts: u32,
    /// Backoff a production driver would have slept retrying this launch.
    pub backoff: Duration,
    /// Whether the launch degraded to the CPU fallback path.
    pub cpu_fallback: bool,
}

impl LaunchMetrics {
    /// Mean active-lane occupancy of this launch: useful issue slots over
    /// issued slots. `None` for backends without a lockstep engine (no
    /// slots were issued).
    pub fn occupancy(&self) -> Option<f64> {
        if self.resident_lane_iters == 0 {
            None
        } else {
            Some(self.active_lane_iters as f64 / self.resident_lane_iters as f64)
        }
    }
}

/// Structured per-launch metrics collected by the pipeline's launch loop.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScanMetrics {
    /// The backend that executed the scan.
    pub backend: &'static str,
    /// Launches the whole scan needs.
    pub total_launches: u64,
    /// Launches restored from the journal instead of executed this run
    /// (those have no [`LaunchMetrics`] row).
    pub resumed_launches: u64,
    /// One row per launch executed by this run, in launch-index order.
    pub launches: Vec<LaunchMetrics>,
}

impl ScanMetrics {
    /// Sum of host seconds across executed launches.
    pub fn total_host_seconds(&self) -> f64 {
        self.launches.iter().map(|l| l.host_seconds).sum()
    }

    /// Sum of simulated seconds across executed launches, if any launch
    /// was priced.
    pub fn total_simulated_seconds(&self) -> Option<f64> {
        if self.launches.iter().all(|l| l.simulated_seconds.is_none()) {
            return None;
        }
        Some(
            self.launches
                .iter()
                .filter_map(|l| l.simulated_seconds)
                .sum(),
        )
    }

    /// Total warps executed.
    pub fn total_warps(&self) -> u64 {
        self.launches.iter().map(|l| l.warps).sum()
    }

    /// Total warp-instructions issued.
    pub fn total_warp_instructions(&self) -> f64 {
        self.launches.iter().map(|l| l.warp_instructions).sum()
    }

    /// Total coalesced memory transactions issued.
    pub fn total_mem_transactions(&self) -> u64 {
        self.launches.iter().map(|l| l.mem_transactions).sum()
    }

    /// Retry attempts beyond each launch's first.
    pub fn retried_attempts(&self) -> u64 {
        self.launches
            .iter()
            .map(|l| u64::from(l.attempts.saturating_sub(1)))
            .sum()
    }

    /// Launches that degraded to the CPU fallback path.
    pub fn cpu_fallbacks(&self) -> u64 {
        self.launches.iter().filter(|l| l.cpu_fallback).count() as u64
    }

    /// Total compaction events across executed launches.
    pub fn total_compactions(&self) -> u64 {
        self.launches.iter().map(|l| l.compactions).sum()
    }

    /// Total refill events across executed launches.
    pub fn total_refills(&self) -> u64 {
        self.launches.iter().map(|l| l.refills).sum()
    }

    /// Scan-wide mean active-lane occupancy, weighted by issued slots.
    /// `None` when no launch issued lockstep slots (scalar/product-tree
    /// backends).
    pub fn mean_occupancy(&self) -> Option<f64> {
        let resident: u64 = self.launches.iter().map(|l| l.resident_lane_iters).sum();
        if resident == 0 {
            return None;
        }
        let active: u64 = self.launches.iter().map(|l| l.active_lane_iters).sum();
        Some(active as f64 / resident as f64)
    }

    /// Total backoff a production driver would have slept.
    pub fn total_backoff(&self) -> Duration {
        self.launches.iter().map(|l| l.backoff).sum()
    }

    /// Render the metrics as a JSON document (no external serializer; the
    /// same hand-rolled convention as `BENCH_scan.json`).
    pub fn to_json(&self) -> String {
        fn f64_field(x: f64) -> String {
            if x.is_finite() {
                format!("{x:.9}")
            } else {
                "null".to_string()
            }
        }
        fn opt_f64(x: Option<f64>) -> String {
            match x {
                Some(v) => f64_field(v),
                None => "null".to_string(),
            }
        }
        let rows: Vec<String> = self
            .launches
            .iter()
            .map(|l| {
                format!(
                    concat!(
                        "    {{\"launch\": {}, \"lanes\": {}, \"warps\": {}, ",
                        "\"warp_instructions\": {}, \"mem_transactions\": {}, ",
                        "\"lane_iterations\": {}, \"occupancy\": {}, ",
                        "\"compactions\": {}, \"refills\": {}, ",
                        "\"simulated_seconds\": {}, ",
                        "\"host_seconds\": {}, \"attempts\": {}, ",
                        "\"backoff_seconds\": {}, \"cpu_fallback\": {}}}"
                    ),
                    l.launch,
                    l.lanes,
                    l.warps,
                    f64_field(l.warp_instructions),
                    l.mem_transactions,
                    l.lane_iterations,
                    opt_f64(l.occupancy()),
                    l.compactions,
                    l.refills,
                    opt_f64(l.simulated_seconds),
                    f64_field(l.host_seconds),
                    l.attempts,
                    f64_field(l.backoff.as_secs_f64()),
                    l.cpu_fallback,
                )
            })
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"backend\": \"{backend}\",\n",
                "  \"total_launches\": {total},\n",
                "  \"resumed_launches\": {resumed},\n",
                "  \"executed_launches\": {executed},\n",
                "  \"retried_attempts\": {retried},\n",
                "  \"cpu_fallback_launches\": {fallbacks},\n",
                "  \"total_backoff_seconds\": {backoff},\n",
                "  \"total_host_seconds\": {host},\n",
                "  \"total_simulated_seconds\": {sim},\n",
                "  \"total_warps\": {warps},\n",
                "  \"total_warp_instructions\": {insts},\n",
                "  \"total_mem_transactions\": {txns},\n",
                "  \"mean_occupancy\": {occupancy},\n",
                "  \"total_compactions\": {compactions},\n",
                "  \"total_refills\": {refills},\n",
                "  \"launches\": [\n{rows}\n  ]\n",
                "}}\n"
            ),
            backend = self.backend,
            total = self.total_launches,
            resumed = self.resumed_launches,
            executed = self.launches.len(),
            retried = self.retried_attempts(),
            fallbacks = self.cpu_fallbacks(),
            backoff = f64_field(self.total_backoff().as_secs_f64()),
            host = f64_field(self.total_host_seconds()),
            sim = opt_f64(self.total_simulated_seconds()),
            warps = self.total_warps(),
            insts = f64_field(self.total_warp_instructions()),
            txns = self.total_mem_transactions(),
            occupancy = opt_f64(self.mean_occupancy()),
            compactions = self.total_compactions(),
            refills = self.total_refills(),
            rows = rows.join(",\n"),
        )
    }
}

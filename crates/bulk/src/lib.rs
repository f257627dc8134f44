//! # bulkgcd-bulk
//!
//! All-pairs weak-RSA-key scanning — the orchestration layer of the
//! reproduction:
//!
//! * [`arena`] — the whole corpus packed into one contiguous fixed-stride
//!   limb buffer ([`ModuliArena`]), handing out borrowed operand slices so
//!   the scans allocate nothing per pair;
//! * [`pairing`] — the paper's §VI group/block decomposition of the
//!   `m(m−1)/2` pairs, with exact-coverage guarantees;
//! * [`scan`] — the [`ScanPipeline`]: one [`ScanBackend`] (scalar /
//!   lockstep / simulated-GPU / product-tree / auto) driven through one
//!   launch loop (journal, fault injection, retry, metrics), all
//!   producing identical findings;
//! * [`lockstep`] — the lockstep SIMT engine: a launch's operands stored
//!   column-major (limb `k` of all lanes contiguous, the paper's Fig. 3
//!   layout), Approximate Euclid executed one shared instruction at a time
//!   across the warp with per-lane active masks; the engine behind
//!   [`LockstepBackend`] and the Approximate-Euclid GPU-sim launches;
//! * [`batch`] — the product/remainder-tree **batch GCD** baseline
//!   (the pre-existing attack the paper competes with);
//! * [`pipeline`] — scan → factor → private-key recovery, end to end;
//! * [`checkpoint`] — the append-only scan journal: launches commit as
//!   they complete, so a killed scan resumes mid-corpus and provably
//!   reproduces the uninterrupted run's findings;
//! * [`fault`] — deterministic fault plans (transient/persistent launch
//!   faults, process kills at launch boundaries) that drive the
//!   fault-tolerance test suite;
//! * [`shard`] — multi-shard coordination: a [`TilePlan`] partitioning the
//!   launch sequence, a lease-ledger [`Coordinator`] surviving worker
//!   deaths, and a [`merge`](shard::merge) that reproduces the unsharded
//!   report bit for bit;
//! * [`store`] — the on-disk compiled-arena format (`bulkgcd ingest` →
//!   `corpus.arena`): fingerprinted header, succinct acceptance bitmap,
//!   and a chunk-streamed [`ArenaSource`] loader whose bounded-memory
//!   scan reproduces the in-memory findings bit for bit.

#![warn(missing_docs)]

pub mod arena;
pub mod batch;
pub mod checkpoint;
pub mod estimate;
pub mod fault;
pub mod incremental;
mod journal;
pub mod lockstep;
pub mod pairing;
pub mod pipeline;
pub mod scan;
pub mod shard;
pub mod store;

pub use arena::{ArenaError, ModuliArena};
pub use batch::{batch_gcd, batch_gcd_into, batch_gcd_parallel, BatchScratch, ProductTree};
pub use checkpoint::{corpus_fingerprint, JournalError, JournalHeader, LaunchRecord, ScanJournal};
pub use estimate::{estimate_full_scan, ScanEstimate};
pub use fault::{FaultPlan, FaultSpec, ShardFaultPlan, ShardFaultSpec};
pub use incremental::{CorpusIndex, ZeroModulus};
pub use lockstep::{
    CompactionConfig, CompactionEvent, LockstepEngine, LockstepStats, LockstepTrace,
};
pub use pairing::{group_size_for, BlockId, GroupedPairs};
pub use pipeline::{break_weak_keys, recover_keys, BreakReport, BrokenKey};
pub use scan::{
    combine_terminations, AutoBackend, ExecCtx, FaultStats, Finding, FindingKind, GpuSimBackend,
    LaunchExecutor, LaunchMetrics, LaunchOutput, LockstepBackend, NoSimulatedClock, PipelineReport,
    ProductTreeBackend, ScalarBackend, ScanBackend, ScanError, ScanMetrics, ScanPipeline,
    ScanReport, AUTO_LOCKSTEP_MIN_BITS, AUTO_PRODUCT_TREE_MIN_MODULI, DEFAULT_LAUNCH_PAIRS,
};
pub use shard::{
    merge_tiles, run_sharded, tile_fingerprint, Coordinator, MergeError, ShardConfig, ShardError,
    ShardStats, ShardedReport, Tile, TilePlan,
};
pub use store::{write_arena, ArenaHeader, ArenaSource, StoreError, ARENA_MAGIC};

//! Multi-shard scan coordination: partition, lease, execute, merge.
//!
//! This module turns the single-process [`ScanPipeline`](crate::scan::ScanPipeline)
//! into a fault-tolerant multi-worker scan without touching the pipeline's
//! execution semantics:
//!
//! * [`plan`] — [`TilePlan`] splits the global launch sequence into
//!   contiguous [`Tile`]s aligned to launch boundaries, so sharding never
//!   changes what any individual launch computes;
//! * [`coordinator`] — [`Coordinator`] owns an append-only tile-assignment
//!   ledger (built on `bulk::journal`, like [`checkpoint`](crate::checkpoint)):
//!   lease-based tile ownership on a logical clock, heartbeat renewal,
//!   expired-lease reclaim for dead-worker detection, and duplicate
//!   completions discriminated from conflicting ones by tile fingerprint;
//! * [`merge`] — [`merge_tiles`] folds completed per-shard journals in
//!   global launch order, reproducing the unsharded report bit for bit
//!   (including the non-associative `f64` simulated-seconds sum);
//! * [`driver`] — [`run_sharded`] plays the whole protocol end to end
//!   under a deterministic [`ShardFaultPlan`](crate::fault::ShardFaultPlan)
//!   (worker deaths, torn journals, lease losses, duplicate completions).
//!   Each worker incarnation is the ordinary `ScanPipeline` pointed at its
//!   [`Tile`], committing to the shard journal, so each shard survives
//!   kill/resume exactly like an unsharded scan.

pub mod coordinator;
pub mod driver;
pub mod merge;
pub mod plan;

pub use coordinator::{
    tile_fingerprint, Completion, CoordStats, Coordinator, Lease, LedgerError, LedgerHeader,
    TileState,
};
pub use driver::{run_sharded, ShardConfig, ShardError, ShardStats, ShardedReport};
pub use merge::{merge_tiles, MergeError};
pub use plan::{Tile, TilePlan};

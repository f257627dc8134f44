//! # bulk-gcd
//!
//! A from-scratch Rust reproduction of *"Bulk GCD Computation Using a GPU
//! to Break Weak RSA Keys"* (Toru Fujita, Koji Nakano, Yasuaki Ito;
//! IPDPSW 2015, DOI 10.1109/IPDPSW.2015.54).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`bigint`] | `bulkgcd-bigint` | 32-bit-limb multiword arithmetic, Montgomery modpow, Miller–Rabin (the GMP/OpenSSL stand-in) |
//! | [`core`] | `bulkgcd-core` | the **Approximate Euclidean algorithm** and the four comparison variants on fixed operand buffers |
//! | [`umm`] | `bulkgcd-umm` | the Unified Memory Machine model: coalescing, Theorem 1, obliviousness analysis |
//! | [`gpu`] | `bulkgcd-gpu` | SIMT GPU simulator calibrated to the paper's GTX 780 Ti |
//! | [`rsa`] | `bulkgcd-rsa` | textbook RSA, weak-key generators, synthetic corpora, key recovery |
//! | [`bulk`] | `bulkgcd-bulk` | §VI all-pairs decomposition, CPU/GPU-sim scans, batch-GCD baseline, attack pipeline |
//!
//! ## Quickstart
//!
//! ```
//! use bulk_gcd::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Two 128-bit RSA keys that share a prime (a weak pair).
//! let mut rng = StdRng::seed_from_u64(42);
//! let corpus = build_corpus(&mut rng, 4, 128, 1);
//!
//! // Scan all pairs with the paper's Approximate Euclidean algorithm.
//! let publics: Vec<_> = corpus.keys.iter().map(|k| k.public.clone()).collect();
//! let report = break_weak_keys(&publics, Algorithm::Approximate).unwrap();
//!
//! assert_eq!(report.broken.len(), 2); // both endpoints of the weak pair
//! ```

pub use bulkgcd_bigint as bigint;
pub use bulkgcd_bulk as bulk;
pub use bulkgcd_core as core;
pub use bulkgcd_gpu as gpu;
pub use bulkgcd_rsa as rsa;
pub use bulkgcd_umm as umm;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use bulkgcd_bigint::{Montgomery, Nat};
    pub use bulkgcd_bulk::{
        batch_gcd, batch_gcd_parallel, break_weak_keys, estimate_full_scan, group_size_for,
        merge_tiles, run_sharded, tile_fingerprint, write_arena, ArenaError, ArenaHeader,
        ArenaSource, AutoBackend, BreakReport, CompactionConfig, Coordinator, CorpusIndex,
        FaultPlan, FaultSpec, FaultStats, Finding, FindingKind, GpuSimBackend, GroupedPairs,
        JournalError, JournalHeader, LaunchMetrics, LaunchRecord, LockstepBackend, LockstepEngine,
        MergeError, ModuliArena, NoSimulatedClock, PipelineReport, ProductTreeBackend,
        ScalarBackend, ScanBackend, ScanError, ScanJournal, ScanMetrics, ScanPipeline, ScanReport,
        ShardConfig, ShardError, ShardFaultPlan, ShardFaultSpec, ShardStats, ShardedReport,
        StoreError, Tile, TilePlan, ZeroModulus, ARENA_MAGIC, DEFAULT_LAUNCH_PAIRS,
    };
    pub use bulkgcd_core::{
        gcd_nat, lehmer_gcd_nat, run, Algorithm, GcdOutcome, GcdPair, NoProbe, RankSelect,
        RankSelectBuilder, StatsProbe, Termination, TraceProbe,
    };
    pub use bulkgcd_gpu::{
        simulate_bulk_gcd, simulate_bulk_gcd_pairs, simulate_bulk_gcd_retry, CostModel,
        DeviceConfig, FaultInjector, LaunchError, LaunchFault, NoFaults, RetryPolicy,
    };
    pub use bulkgcd_rsa::{
        build_corpus, decrypt, encrypt, fingerprint_limbs, fingerprint_modulus, generate_keypair,
        recover_private_key, sanitize_moduli, Corpus, CrtPrivateKey, IngestReport, KeyPair,
        PublicKey, RejectReason, Rejected, StreamingSanitizer, WeakKeygen,
    };
    pub use bulkgcd_umm::{analyze, simulate, simulate_dmm, Layout, UmmConfig};
}

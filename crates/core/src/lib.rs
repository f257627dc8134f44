//! # bulkgcd-core
//!
//! The primary contribution of *"Bulk GCD Computation Using a GPU to Break
//! Weak RSA Keys"* (Fujita, Nakano, Ito; IPDPSW 2015): the **Approximate
//! Euclidean algorithm** and the four Euclidean variants it is evaluated
//! against, implemented on the fixed multiword operand representation of
//! paper Fig. 1.
//!
//! * [`operand::GcdPair`] — two s-bit numbers in pre-allocated `s/d`-word
//!   buffers with pointer-swap `swap(X, Y)` and the fused one-pass
//!   `X ← rshift(X − α·Y)` update (§IV).
//! * [`approx::approx`] — the `(α, β)` quotient approximation from the top
//!   two 32-bit words, one 64-bit division, all eight paper cases (§III).
//! * [`algorithms`] — (A) Original, (B) Fast, (C) Binary, (D) Fast Binary
//!   and (E) Approximate Euclid, each with full and early (`s/2`-bit)
//!   termination (§V).
//! * [`lanes`] — branch-minimized per-lane step primitives (plan + fused
//!   column update) driving the lockstep SIMT-style engine in `bulkgcd-bulk`.
//! * [`probe`] — zero-cost instrumentation hooks recording iteration counts,
//!   β statistics, §IV memory-operation counts, and full traces.
//! * [`rankselect`] — succinct bit-vector rank/select (O(1) compacted-row ↔
//!   raw-position mapping) backing the corpus acceptance index used by the
//!   ingest and scan layers.
//! * [`smallword`] — generic-word-size (`d` parameter) reference
//!   implementations used to regenerate the paper's d = 4 worked examples
//!   (Tables I–III) and to cross-check the multiword code at d = 32.
//!
//! ## Quick example
//!
//! ```
//! use bulkgcd_bigint::Nat;
//! use bulkgcd_core::{gcd_nat, Algorithm};
//!
//! // The paper's running example: gcd(1043915, 768955) = 5.
//! let g = gcd_nat(
//!     Algorithm::Approximate,
//!     &Nat::from_u64(1_043_915),
//!     &Nat::from_u64(768_955),
//! );
//! assert_eq!(g, Nat::from_u64(5));
//! ```

#![warn(missing_docs)]

pub mod algorithms;
pub mod approx;
pub mod lanes;
pub mod lehmer;
pub mod operand;
pub mod probe;
pub mod rankselect;
pub mod smallword;

pub use algorithms::{gcd_nat, run, run_in_place, Algorithm, GcdOutcome, GcdStatus, Termination};
pub use approx::{approx, approx_top_words, Approx, ApproxCase};
pub use lanes::{
    copy_lane_columns, fused_submul_rshift_columns_prefix, head_words, kernel_isa,
    load_lane_column, plan_lane, plan_lanes, LaneHeads, LanePlan, LanePlans, LaneState,
    PassScratch,
};
pub use lehmer::{lehmer_euclid, lehmer_gcd_nat};
pub use operand::GcdPair;
pub use probe::{NoProbe, Probe, RunStats, StatsProbe, Step, StepKind, TraceProbe};
pub use rankselect::{RankSelect, RankSelectBuilder};

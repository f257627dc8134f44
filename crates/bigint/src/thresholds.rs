//! The arithmetic dispatch ladder: operand-width cutoffs that decide which
//! algorithm `mul_dispatch`, `div_rem_slices` and `Nat::gcd` route to.
//!
//! Every cutoff is a limb count. The ladder (see DESIGN.md, "Arithmetic
//! dispatch ladder") is, from narrow to wide operands:
//!
//! | routine | below cutoff          | at/above cutoff          |
//! |---------|-----------------------|--------------------------|
//! | mul     | schoolbook            | Karatsuba (`karatsuba`)  |
//! | mul     | Karatsuba             | 3-prime NTT (`ntt`)      |
//! | div     | Knuth Algorithm D     | Newton reciprocal (`newton_div`) |
//! | gcd     | binary GCD            | half-GCD (`hgcd`)        |
//!
//! Defaults were tuned on the bench host from `BENCH_bigint.json` sweeps
//! (`bigint_bench`; ladder-vs-legacy medians per width). With the
//! vectorized NTT (AVX-512 butterflies, 2-vCPU bench host), balanced mul
//! beats Karatsuba via NTT from 128 limbs (×0.83 at 96, ×1.03 at 112,
//! ×1.16–1.39 at 128, ×1.31 at 192, ×2.5–3.1 at 512). A balanced product
//! past `ntt::MAX_NTT_TOTAL_LIMBS` runs Karatsuba, whose halves re-enter
//! the NTT. On the 1-core
//! reference box, Newton division crossed Knuth between divisor 1024
//! (×0.75) and 2048 (×1.31), so it opens at 1536; half-GCD beats binary
//! GCD already at 192 limbs (×1.16, growing to ×3.5 at 1536). Each cutoff
//! can be overridden for a sweep via its environment variable (read once,
//! on first use), or programmatically via `set()` — the latter is what the
//! perf gate uses to pit the new ladder against the legacy
//! Karatsuba/Knuth-only configuration inside one process. Correctness
//! never depends on the values.

use core::sync::atomic::{AtomicUsize, Ordering};

/// One tunable cutoff: a limb count with an env-var override, cached in an
/// atomic so the hot dispatch paths pay a single relaxed load.
pub struct Threshold {
    env: &'static str,
    default: usize,
    /// Cached value; 0 means "not initialized yet" (no cutoff is ever 0:
    /// `set` clamps to >= 1, and `usize::MAX` disables a rung entirely).
    cached: AtomicUsize,
}

impl Threshold {
    const fn new(env: &'static str, default: usize) -> Self {
        Threshold {
            env,
            default,
            cached: AtomicUsize::new(0),
        }
    }

    /// Current cutoff in limbs.
    #[inline]
    pub fn get(&self) -> usize {
        let v = self.cached.load(Ordering::Relaxed);
        if v != 0 {
            return v;
        }
        self.init()
    }

    #[cold]
    fn init(&self) -> usize {
        let v = std::env::var(self.env)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(self.default)
            .max(1);
        self.cached.store(v, Ordering::Relaxed);
        v
    }

    /// Override the cutoff for this process (bench sweeps and the
    /// `--gate-subquadratic` legacy-vs-ladder comparison). Values are
    /// clamped to >= 1; `usize::MAX` disables the rung.
    pub fn set(&self, limbs: usize) {
        self.cached.store(limbs.max(1), Ordering::Relaxed);
    }

    /// The environment variable consulted on first use.
    pub fn env_var(&self) -> &'static str {
        self.env
    }

    /// The built-in default (what `get` returns absent overrides).
    pub fn default_value(&self) -> usize {
        self.default
    }
}

/// Operand length (limbs) at which multiplication switches schoolbook →
/// Karatsuba. Applied to the *shorter* operand of a balanced product.
pub static KARATSUBA: Threshold = Threshold::new("BULKGCD_KARATSUBA_CUTOFF", 32);

/// Shorter-operand length (limbs) at which a balanced product switches
/// Karatsuba → the 3-prime CRT NTT. The NTT's cost is a step function
/// of `next_power_of_two(la + lb)`, so the crossover sits just above the
/// width where a 256-point transform's flat cost undercuts Karatsuba.
pub static NTT: Threshold = Threshold::new("BULKGCD_NTT_CUTOFF", 128);

/// Divisor length (limbs) at which division switches Knuth Algorithm D →
/// Newton reciprocal (the quotient must also be at least half this many
/// limbs; see `div::newton_applies`).
pub static NEWTON_DIV: Threshold = Threshold::new("BULKGCD_NEWTON_DIV_CUTOFF", 1536);

/// Operand length (limbs) at which `Nat::gcd` switches binary GCD →
/// the half-GCD driver.
pub static HGCD: Threshold = Threshold::new("BULKGCD_HGCD_CUTOFF", 192);

/// Snapshot of the whole ladder, for bench reports.
pub fn snapshot() -> [(&'static str, usize); 4] {
    [
        ("karatsuba", KARATSUBA.get()),
        ("ntt", NTT.get()),
        ("newton_div", NEWTON_DIV.get()),
        ("hgcd", HGCD.get()),
    ]
}

/// Disable every subquadratic rung (Karatsuba and Knuth remain), restoring
/// the pre-ladder behaviour. Used by the perf gate's legacy arm.
pub fn set_legacy_ladder() {
    NTT.set(usize::MAX);
    NEWTON_DIV.set(usize::MAX);
    HGCD.set(usize::MAX);
}

/// Restore every rung to its default (or env-overridden) value.
pub fn reset_ladder() {
    for t in [&KARATSUBA, &NTT, &NEWTON_DIV, &HGCD] {
        t.cached.store(0, Ordering::Relaxed);
        t.get();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered() {
        // The mul ladder must be monotone: schoolbook < karatsuba < ntt.
        assert!(KARATSUBA.default_value() < NTT.default_value());
    }

    #[test]
    fn set_and_get_roundtrip() {
        // A private Threshold so we don't perturb the global ladder used by
        // concurrently running tests.
        static T: Threshold = Threshold::new("BULKGCD_TEST_CUTOFF_UNSET", 17);
        assert_eq!(T.get(), 17);
        T.set(99);
        assert_eq!(T.get(), 99);
        T.set(0); // clamped
        assert_eq!(T.get(), 1);
        assert_eq!(T.env_var(), "BULKGCD_TEST_CUTOFF_UNSET");
    }
}

//! The arithmetic dispatch ladder: operand-width cutoffs that decide which
//! algorithm `mul_dispatch` and `div_rem_slices` route to.
//!
//! Every cutoff is a limb count. The ladder (see DESIGN.md, "Arithmetic
//! dispatch ladder") is, from narrow to wide operands:
//!
//! | routine | below cutoff          | at/above cutoff          |
//! |---------|-----------------------|--------------------------|
//! | mul     | schoolbook            | Karatsuba (`karatsuba`)  |
//! | mul     | Karatsuba             | 3-prime NTT (`ntt`)      |
//! | div     | Knuth Algorithm D     | Newton reciprocal (`newton_div`) |
//!
//! Defaults were tuned on the bench host from `BENCH_bigint.json` sweeps
//! (`bigint_bench`; ladder-vs-legacy medians per width). With the
//! vectorized NTT (AVX-512 butterflies, 2-vCPU bench host), balanced mul
//! beats Karatsuba via NTT from 128 limbs (×0.83 at 96, ×1.03 at 112,
//! ×1.16–1.39 at 128, ×1.31 at 192, ×2.5–3.1 at 512). A balanced product
//! past `ntt::MAX_NTT_TOTAL_LIMBS` runs Karatsuba, whose halves re-enter
//! the NTT. Newton division (with its wrapped residues) against Knuth,
//! `bigint_bench`'s `newton_div` rows: at divisor 512 it wins with 2× and
//! 3× dividends (×1.70, ×2.34) but loses with 1.5× (×0.70), the smallest
//! quotient the dispatcher sends it at the cutoff; at 768 it wins all
//! three (×1.21, ×2.35, ×3.54), so it opens at 768. A process may override
//! a cutoff with `set()`: the perf gate does so to pit the ladder against
//! the legacy Karatsuba/Knuth-only configuration inside one process.
//! Correctness never depends on the values.

use core::sync::atomic::{AtomicUsize, Ordering};

/// One cutoff: a limb count in an atomic, so the hot dispatch paths pay a
/// single relaxed load.
pub struct Threshold {
    default: usize,
    value: AtomicUsize,
}

impl Threshold {
    const fn new(default: usize) -> Self {
        Threshold {
            default,
            value: AtomicUsize::new(default),
        }
    }

    /// Current cutoff in limbs.
    #[inline]
    pub fn get(&self) -> usize {
        self.value.load(Ordering::Relaxed)
    }

    /// Override the cutoff for this process (bench sweeps and the
    /// `--gate-subquadratic` legacy-vs-ladder comparison). Values are
    /// clamped to >= 1; `usize::MAX` disables the rung.
    pub fn set(&self, limbs: usize) {
        self.value.store(limbs.max(1), Ordering::Relaxed);
    }

    /// The built-in default (what `get` returns absent overrides).
    pub fn default_value(&self) -> usize {
        self.default
    }
}

/// Operand length (limbs) at which multiplication switches schoolbook →
/// Karatsuba. Applied to the *shorter* operand of a balanced product.
pub static KARATSUBA: Threshold = Threshold::new(32);

/// Shorter-operand length (limbs) at which a balanced product switches
/// Karatsuba → the 3-prime CRT NTT. The NTT's cost is a step function
/// of `next_power_of_two(la + lb)`, so the crossover sits just above the
/// width where a 256-point transform's flat cost undercuts Karatsuba.
pub static NTT: Threshold = Threshold::new(128);

/// Divisor length (limbs) at which division switches Knuth Algorithm D →
/// Newton reciprocal (the quotient must also be at least half this many
/// limbs; see `div::newton_applies`).
pub static NEWTON_DIV: Threshold = Threshold::new(768);

/// Snapshot of the whole ladder, for bench reports.
pub fn snapshot() -> [(&'static str, usize); 3] {
    [
        ("karatsuba", KARATSUBA.get()),
        ("ntt", NTT.get()),
        ("newton_div", NEWTON_DIV.get()),
    ]
}

/// Disable every subquadratic rung (Karatsuba and Knuth remain), restoring
/// the pre-ladder behaviour. Used by the perf gate's legacy arm.
pub fn set_legacy_ladder() {
    NTT.set(usize::MAX);
    NEWTON_DIV.set(usize::MAX);
}

/// Restore every rung to its default.
pub fn reset_ladder() {
    for t in [&KARATSUBA, &NTT, &NEWTON_DIV] {
        t.set(t.default);
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
        static T: Threshold = Threshold::new(17);
        assert_eq!(T.get(), 17);
        T.set(99);
        assert_eq!(T.get(), 99);
        T.set(0); // clamped
        assert_eq!(T.get(), 1);
        assert_eq!(T.default_value(), 17);
    }
}

//! [`ModuliArena`]: the whole corpus in one contiguous limb buffer.
//!
//! An all-pairs scan reads every modulus `m − 1` times; materialising each
//! read as an owned [`Nat`] clone (the previous design) put a heap
//! allocation on the hot path per pair. The arena instead stores all `m`
//! moduli in a single `Vec<u32>` at a fixed stride (the widest modulus,
//! high-zero padded) and hands out borrowed limb slices, so loading a pair
//! into a [`GcdPair`](bulkgcd_core::GcdPair) workspace copies limbs but
//! never allocates.
//!
//! The backing buffer is **row-wise** in the sense of paper Fig. 3
//! (`bulkgcd_umm::Layout::RowWise`): modulus `j`'s limb `i` lives at
//! `j · stride + i`, the natural host layout for handing out per-modulus
//! slices.

use bulkgcd_bigint::{ops, Limb, Nat};
use std::fmt;

/// Why a [`ModuliArena`] could not be built from a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaError {
    /// The corpus holds no moduli at all — there is nothing to scan, and a
    /// degenerate arena would only defer the surprise to the scan layer.
    EmptyCorpus,
    /// `moduli × stride` limbs exceed what one contiguous buffer may hold.
    WidthOverflow {
        /// Number of moduli in the corpus.
        moduli: usize,
        /// Limbs per modulus (width of the widest modulus).
        stride: usize,
        /// The limit that was exceeded.
        max_limbs: usize,
    },
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaError::EmptyCorpus => write!(f, "corpus holds no moduli"),
            ArenaError::WidthOverflow {
                moduli,
                stride,
                max_limbs,
            } => write!(
                f,
                "corpus does not fit one arena: {moduli} moduli x {stride} limbs \
                 exceeds {max_limbs} limbs"
            ),
        }
    }
}

impl std::error::Error for ArenaError {}

/// A corpus of moduli packed into one fixed-stride limb buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuliArena {
    /// Row-wise backing store: modulus `j` at `j * stride .. (j + 1) * stride`.
    limbs: Vec<Limb>,
    /// Limbs per modulus (width of the widest modulus, at least 1).
    stride: usize,
    /// Number of moduli.
    m: usize,
    /// Cached significant-bit counts, one per modulus (drives the §V
    /// early-termination threshold without touching the limb data).
    bit_lens: Vec<u64>,
}

impl ModuliArena {
    /// The most limbs one arena buffer may hold (the allocator's hard
    /// ceiling for a single contiguous allocation).
    pub const MAX_TOTAL_LIMBS: usize = isize::MAX as usize / std::mem::size_of::<Limb>();

    /// Pack `moduli` into a fresh arena. The stride is the limb count of
    /// the widest modulus (minimum 1); narrower moduli are high-zero padded.
    ///
    /// Fails with [`ArenaError::EmptyCorpus`] for an empty slice and
    /// [`ArenaError::WidthOverflow`] when `moduli.len() × stride` would
    /// exceed a single allocation ([`Self::MAX_TOTAL_LIMBS`]).
    pub fn try_from_moduli(moduli: &[Nat]) -> Result<Self, ArenaError> {
        Self::try_from_moduli_capped(moduli, Self::MAX_TOTAL_LIMBS)
    }

    /// [`try_from_moduli`](Self::try_from_moduli) with an explicit limb
    /// budget — the overflow guard made testable (and a hook for callers
    /// that want to bound scan memory below the allocator's ceiling).
    pub fn try_from_moduli_capped(
        moduli: &[Nat],
        max_total_limbs: usize,
    ) -> Result<Self, ArenaError> {
        if moduli.is_empty() {
            return Err(ArenaError::EmptyCorpus);
        }
        let stride = moduli.iter().map(Nat::len).max().unwrap_or(0).max(1);
        let total = moduli
            .len()
            .checked_mul(stride)
            .filter(|&t| t <= max_total_limbs)
            .ok_or(ArenaError::WidthOverflow {
                moduli: moduli.len(),
                stride,
                max_limbs: max_total_limbs,
            })?;
        let mut limbs = vec![0 as Limb; total];
        for (row, n) in limbs.chunks_exact_mut(stride).zip(moduli) {
            row[..n.len()].copy_from_slice(n.as_limbs());
        }
        Ok(ModuliArena {
            limbs,
            stride,
            m: moduli.len(),
            bit_lens: moduli.iter().map(Nat::bit_len).collect(),
        })
    }

    /// Number of moduli.
    #[inline]
    pub fn len(&self) -> usize {
        self.m
    }

    /// True when the arena holds no moduli.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// Limbs per modulus row (fixed for the whole corpus).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Modulus `i` as a borrowed little-endian limb slice of exactly
    /// [`stride`](Self::stride) limbs (high-zero padded).
    #[inline]
    pub fn limbs(&self, i: usize) -> &[Limb] {
        &self.limbs[i * self.stride..(i + 1) * self.stride]
    }

    /// Modulus `i` with high-zero padding trimmed: the slice a canonical
    /// [`Nat`] of the same value would hold. Lets the scan compare a GCD
    /// against a modulus (the duplicate-modulus check) without allocating.
    #[inline]
    pub fn limbs_trimmed(&self, i: usize) -> &[Limb] {
        let row = self.limbs(i);
        &row[..ops::normalized_len(row)]
    }

    /// Significant bits of modulus `i` (cached at construction).
    #[inline]
    pub fn bit_len(&self, i: usize) -> u64 {
        self.bit_lens[i]
    }

    /// Rebuild modulus `i` as an owned [`Nat`] (allocates; for findings and
    /// interop, not for the scan hot loop).
    pub fn nat(&self, i: usize) -> Nat {
        Nat::from_limb_slice(self.limbs(i))
    }

    /// The whole row-wise backing buffer (`m · stride` limbs).
    #[inline]
    pub fn as_limbs(&self) -> &[Limb] {
        &self.limbs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulkgcd_bigint::ops;
    use bulkgcd_umm::Layout;

    fn nat(v: u128) -> Nat {
        Nat::from_u128(v)
    }

    #[test]
    fn roundtrips_moduli_of_mixed_widths() {
        let moduli = vec![
            nat(0xffff_ffff_ffff_ffff_ffff_ffff), // 3 limbs
            nat(5),                               // 1 limb
            Nat::zero(),                          // 0 limbs
            nat(1u128 << 100),                    // 4 limbs
        ];
        let arena = ModuliArena::try_from_moduli(&moduli).unwrap();
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.stride(), 4);
        for (i, n) in moduli.iter().enumerate() {
            assert_eq!(&arena.nat(i), n, "modulus {i}");
            assert_eq!(arena.bit_len(i), n.bit_len(), "modulus {i}");
            assert_eq!(arena.limbs(i).len(), 4);
            assert_eq!(ops::normalized_len(arena.limbs(i)), n.len());
        }
    }

    #[test]
    fn empty_corpus_is_rejected() {
        assert_eq!(
            ModuliArena::try_from_moduli(&[]).unwrap_err(),
            ArenaError::EmptyCorpus
        );
    }

    #[test]
    fn oversized_corpus_is_rejected() {
        // Two 3-limb moduli need 6 limbs; a 5-limb budget must refuse
        // rather than assert or abort on allocation.
        let moduli = vec![nat(1u128 << 80), nat(3)];
        let err = ModuliArena::try_from_moduli_capped(&moduli, 5).unwrap_err();
        assert_eq!(
            err,
            ArenaError::WidthOverflow {
                moduli: 2,
                stride: 3,
                max_limbs: 5
            }
        );
        assert!(err.to_string().contains("does not fit"));
        // The same corpus fits the real ceiling.
        assert!(ModuliArena::try_from_moduli(&moduli).is_ok());
    }

    #[test]
    fn trimmed_limbs_drop_padding_only() {
        let moduli = vec![nat(1u128 << 80), nat(3), Nat::zero()];
        let arena = ModuliArena::try_from_moduli(&moduli).unwrap();
        for (i, n) in moduli.iter().enumerate() {
            assert_eq!(arena.limbs_trimmed(i), n.as_limbs(), "modulus {i}");
        }
    }

    #[test]
    fn row_wise_backing_matches_layout_addressing() {
        let moduli = vec![nat(0x1_0000_0002), nat(3), nat(0xdead_beef_cafe)];
        let arena = ModuliArena::try_from_moduli(&moduli).unwrap();
        for j in 0..arena.len() {
            for i in 0..arena.stride() {
                let addr = Layout::RowWise.address(j, i, arena.len(), arena.stride());
                assert_eq!(arena.as_limbs()[addr], arena.limbs(j)[i]);
            }
        }
    }

    #[test]
    fn borrowed_slices_load_into_gcd_pair() {
        use bulkgcd_core::{run_in_place, Algorithm, GcdPair, GcdStatus, NoProbe, Termination};
        let p = 0xffff_fffbu128;
        let moduli = vec![nat(p * 4_294_967_311), nat(p * 4_294_967_357)];
        let arena = ModuliArena::try_from_moduli(&moduli).unwrap();
        let mut pair = GcdPair::with_capacity(arena.stride());
        pair.load_from_limbs(arena.limbs(0), arena.limbs(1));
        let status = run_in_place(
            Algorithm::Approximate,
            &mut pair,
            Termination::Full,
            &mut NoProbe,
        );
        assert_eq!(status, GcdStatus::Done);
        assert_eq!(pair.x_nat(), nat(p));
    }
}

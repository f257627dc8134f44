//! Branch-minimized per-lane step primitives for lockstep (SIMT-style)
//! execution of Approximate Euclid.
//!
//! A real GPU runs one warp instruction across all lanes per cycle; the
//! host-side lockstep engine (`bulkgcd-bulk`'s `lockstep` module) mirrors
//! that by splitting every AEA iteration into
//!
//! 1. a **per-lane planning step** ([`plan_lane`]) that reads only O(1)
//!    words per lane (the paper's §IV head accesses: top two words of `X`
//!    and `Y`, plus the low two difference words that fix the shift) and
//!    classifies the lane into the overwhelmingly common fused update or
//!    one of the rare scalar paths, and
//! 2. a **shared vector pass** ([`fused_submul_rshift_columns`]) that
//!    applies `X ← rshift(X − α·Y)` to every fused lane at once over
//!    column-major operand planes. It dispatches at run time
//!    ([`kernel_isa`]) to a hand-written AVX-512F lane-block kernel, to the
//!    portable body autovectorized for AVX2, or to the portable body itself,
//!    which is the oracle the other two are tested against bit for bit.
//!
//! The vector pass is numerically identical to the scalar
//! `ops::fused_submul_rshift` single-pass loop: same difference limb
//! stream, same shift-emission, same carry discipline. Lanes that are
//! masked off (terminated, or planned onto a scalar path) participate with
//! `α = 0, rs = 0`, which makes the pass an exact identity on their
//! columns — no masking logic in the inner loop at all.

use crate::approx::{approx_top_words, ApproxCase};
pub use bulkgcd_bigint::isa::{kernel_isa, KernelIsa};
use bulkgcd_bigint::{Limb, LIMB_BITS};

/// What one lockstep iteration does to one lane, decided from O(1) words.
///
/// The variants are ordered from common to vanishingly rare; everything but
/// [`LanePlan::Fused`] is executed by a per-lane scalar fixup outside the
/// vector pass (the lockstep analogue of warp divergence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LanePlan {
    /// The fused β = 0 update `X ← rshift(X − α·Y)` with an odd single-word
    /// `α` and an intra-word shift `1 ≤ rs < 32`: the vector-pass fast path.
    Fused {
        /// Odd single-word quotient digit.
        alpha: Limb,
        /// Trailing-zero count of the difference (bits stripped).
        rs: u32,
    },
    /// β = 0 but the difference has ≥ 32 trailing zero bits (or is zero):
    /// the scalar two-pass fallback, exactly like `fused_submul_rshift`'s.
    DeepShift {
        /// Odd single-word quotient digit.
        alpha: Limb,
    },
    /// Case 1 produced an exact quotient wider than one word; `X` and `Y`
    /// fit in 64 bits, so the lane finishes with plain 64-bit arithmetic.
    WideAlpha {
        /// The exact (odd-forced) quotient, up to 64 bits.
        alpha: u64,
    },
    /// The rare β > 0 divergent path: `X ← rshift(X − (α·D^β − 1)·Y)`.
    BetaPositive {
        /// Single-word quotient digit (β > 0 guarantees it fits).
        alpha: Limb,
        /// Word-shift exponent.
        beta: usize,
    },
}

impl LanePlan {
    /// True for the β > 0 divergent branch (the `ApproxBetaPositive` step
    /// kind); everything else is a β = 0 step.
    #[inline]
    pub fn is_beta_positive(&self) -> bool {
        matches!(self, LanePlan::BetaPositive { .. })
    }
}

/// Force a β = 0 quotient odd so the difference `X − α·Y` is even,
/// branchlessly: `α − 1` when even, unchanged when odd.
#[inline(always)]
pub fn force_odd(alpha: u64) -> u64 {
    alpha - (1 - (alpha & 1))
}

/// Low 64 bits of `X − α·Y` computed exactly as the scalar
/// `fused_submul_rshift` low-2 probe: `x_lo`/`y_lo` pack limbs 0 and 1
/// (little-endian; the high half must be 0 when the operand has fewer than
/// two limbs), and a single-limb `X` contributes only its limb 0 — the
/// same `0..2.min(lx)` loop bound as the scalar code.
#[inline(always)]
pub fn low_diff64(x_lo: u64, y_lo: u64, lx: usize, alpha: Limb) -> u64 {
    let x0 = x_lo as Limb;
    let p0 = alpha as u64 * (y_lo as Limb) as u64;
    let d0 = x0.wrapping_sub(p0 as Limb);
    let carry = (p0 >> LIMB_BITS) + (x0 < p0 as Limb) as u64;
    let mut d1: Limb = 0;
    if lx >= 2 {
        let x1 = (x_lo >> LIMB_BITS) as Limb;
        let p1 = alpha as u64 * (y_lo >> LIMB_BITS) + carry;
        d1 = x1.wrapping_sub(p1 as Limb);
    }
    (d1 as u64) << LIMB_BITS | d0 as u64
}

/// Plan one AEA iteration for one lane from its O(1) head words.
///
/// `x_top`/`y_top` are the operands' top-two-word values (whole value when
/// the operand spans ≤ 2 limbs — see
/// [`approx_top_words`](crate::approx::approx_top_words)); `x_lo`/`y_lo`
/// pack limbs 0 and 1 (high half 0 when shorter). Requires `X ≥ Y > 0`.
///
/// Returns the plan plus the `(α, β, case)` the iteration would report to a
/// probe — with α already forced odd on the β = 0 paths, matching
/// `approximate_euclid_loop` exactly.
pub fn plan_lane(
    x_top: u64,
    x_lo: u64,
    lx: usize,
    y_top: u64,
    y_lo: u64,
    ly: usize,
) -> (LanePlan, u64, usize, ApproxCase) {
    let a = approx_top_words(x_top, lx, y_top, ly);
    // analyze: allow(cf-branch, reason = "beta > 0 is the paper's rare divergent case; the lane leaves the vector pass by design")
    if a.beta > 0 {
        // β > 0 guarantees α fits one word (§III).
        // analyze: allow(cf-early-return, reason = "divergent-lane exit paired with the beta > 0 branch above")
        return (
            LanePlan::BetaPositive {
                alpha: a.alpha as Limb,
                beta: a.beta,
            },
            a.alpha,
            a.beta,
            a.case,
        );
    }
    let alpha = force_odd(a.alpha);
    // analyze: allow(cf-branch, reason = "WideAlpha: a two-word quotient needs the 64-bit scalar finish; divergent by design")
    if alpha > Limb::MAX as u64 {
        // Case 1 can produce a two-word exact quotient; X fits in 64 bits.
        // analyze: allow(cf-early-return, reason = "divergent-lane exit paired with the WideAlpha branch above")
        return (LanePlan::WideAlpha { alpha }, alpha, 0, a.case);
    }
    let alpha = alpha as Limb;
    let low = low_diff64(x_lo, y_lo, lx, alpha);
    // analyze: allow(cf-branch, reason = "DeepShift classification: a zero low difference forces the scalar two-pass path")
    let plan = if low == 0 {
        LanePlan::DeepShift { alpha }
    } else {
        let rs = low.trailing_zeros();
        // analyze: allow(cf-branch, reason = "DeepShift classification: a full-word shift leaves the fused path")
        if rs >= LIMB_BITS {
            LanePlan::DeepShift { alpha }
        } else {
            LanePlan::Fused { alpha, rs }
        }
    };
    (plan, alpha as u64, 0, a.case)
}

/// One lockstep fused update `X ← rshift(X − α·Y)` over a warp's
/// column-major operand planes.
///
/// Layout: planes `u` and `v` each hold `rows_cap × w` limbs with limb `k`
/// of lane `t` at index `k·w + t` — limb `k` of all `w` lanes is
/// contiguous, the paper's Fig. 3 column-wise arrangement. Which plane
/// holds a lane's `X` is selected by `sel[t]`: 0 when `X` lives in plane
/// `u` ("buffer A"), all-ones when in plane `v` — the branchless analogue
/// of [`GcdPair`](crate::GcdPair)'s pointer swap.
///
/// Per lane, `alpha[t]` is the odd multiplier and `rs[t] ∈ 0..32` the
/// shift. A lane with `alpha = 0, rs = 0` is an exact identity (its
/// difference stream is its own `X` stream and the shift is 0), which is
/// how terminated and divergent lanes are masked without any conditional
/// in the inner loops.
///
/// `rows` is the limb-row count to process: the maximum `lX` over the
/// active fused lanes. Shorter lanes are handled by their high-zero
/// padding (difference limbs beyond `lX` are zero, so the emitted limbs
/// are too); each lane's result therefore lands exactly where the scalar
/// `fused_submul_rshift` would put it, with the padding invariant
/// preserved.
///
/// `carry`, `prev` and `dcur` are caller-provided scratch rows of `w`
/// elements each (reused across iterations; the engine allocates nothing
/// in its steady state). The AVX-512 path keeps these rows in registers
/// and leaves the scratch untouched; their contents after a call are
/// unspecified.
///
/// Requirements per active lane (the planner guarantees them): `α` odd,
/// `α·Y ≤ X`, `1 ≤ rs < 32`, and `rs` is the trailing-zero count of
/// `X − α·Y`.
#[allow(clippy::too_many_arguments)]
pub fn fused_submul_rshift_columns(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    rows: usize,
    sel: &[Limb],
    alpha: &[Limb],
    rs: &[u32],
    carry: &mut [u64],
    prev: &mut [Limb],
    dcur: &mut [Limb],
) {
    fused_submul_rshift_columns_prefix(u, v, w, w, rows, sel, alpha, rs, carry, prev, dcur);
}

/// [`fused_submul_rshift_columns`] over a **dense column prefix**: process
/// only columns `0..lanes` of planes whose row stride stays `w`.
///
/// This is the warp-compaction entry point: after survivors of a ragged
/// warp are repacked into a dense prefix (or the resident width shrinks as
/// lanes terminate without replacement), the vector pass only touches the
/// live columns instead of dragging `w − lanes` identity lanes through
/// every row. With `lanes == w` it is exactly the full-width pass.
#[allow(clippy::too_many_arguments)]
pub fn fused_submul_rshift_columns_prefix(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    lanes: usize,
    rows: usize,
    sel: &[Limb],
    alpha: &[Limb],
    rs: &[u32],
    carry: &mut [u64],
    prev: &mut [Limb],
    dcur: &mut [Limb],
) {
    let ran = columns_on(
        KernelIsa::detect(),
        u,
        v,
        w,
        lanes,
        rows,
        sel,
        alpha,
        rs,
        carry,
        prev,
        dcur,
    );
    debug_assert!(ran, "the detected kernel ISA is always available");
}

/// Run the vector pass on the given implementation. Returns `false`, with
/// nothing touched, when this CPU cannot run it — which is how tests reach
/// each path and skip the ones the host lacks. Arguments as
/// [`fused_submul_rshift_columns_prefix`]; the length checks here are what
/// the AVX-512 path's raw accesses rely on.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn columns_on(
    isa: KernelIsa,
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    lanes: usize,
    rows: usize,
    sel: &[Limb],
    alpha: &[Limb],
    rs: &[u32],
    carry: &mut [u64],
    prev: &mut [Limb],
    dcur: &mut [Limb],
) -> bool {
    assert!(
        lanes <= w,
        "column prefix wider than the plane: {lanes} > {w}"
    );
    assert!(rows == 0 || (u.len() >= rows * w && v.len() >= rows * w));
    assert!(sel.len() >= lanes && alpha.len() >= lanes && rs.len() >= lanes);
    assert!(carry.len() >= lanes && prev.len() >= lanes && dcur.len() >= lanes);
    if !isa.available() {
        return false;
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available()` confirmed AVX-512F above, and the asserts
        // above are the plane and per-lane slice lengths that the kernel's
        // pointer accesses rely on.
        KernelIsa::Avx512 => unsafe { columns_avx512(u, v, w, lanes, rows, sel, alpha, rs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available()` confirmed AVX2 above.
        KernelIsa::Avx2 => unsafe {
            columns_avx2(u, v, w, lanes, rows, sel, alpha, rs, carry, prev, dcur)
        },
        _ => columns_kernel(u, v, w, lanes, rows, sel, alpha, rs, carry, prev, dcur),
    }
    true
}

/// Copy lane column `src` onto lane column `dst` across **both** operand
/// planes (`rows` limb rows, row stride `w`) — the plane half of a warp
/// compaction: together with the per-lane registers (`sel`, `lX`, `lY`,
/// state) it relocates a surviving lane into the dense prefix. The copy is
/// a fixed strided sweep: which lanes move is decided by the public
/// termination structure, never by operand values.
pub fn copy_lane_columns(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    rows: usize,
    src: usize,
    dst: usize,
) {
    assert!(src < w && dst < w, "lane out of range: {src}/{dst} vs {w}");
    assert!(rows == 0 || (u.len() >= rows * w && v.len() >= rows * w));
    for k in 0..rows {
        let base = k * w;
        u[base + dst] = u[base + src];
        v[base + dst] = v[base + src];
    }
}

/// Zero lane column `t` across both operand planes (`rows` limb rows, row
/// stride `w`): clears a dead column before a fresh pair is refilled into
/// it, restoring the high-zero padding invariant the vector pass relies on.
pub fn zero_lane_columns(u: &mut [Limb], v: &mut [Limb], w: usize, rows: usize, t: usize) {
    assert!(t < w, "lane out of range: {t} vs {w}");
    for k in 0..rows {
        let base = k * w;
        u[base + t] = 0;
        v[base + t] = 0;
    }
}

// SAFETY: callers must only invoke this when the CPU supports AVX2 (the
// dispatcher's `is_x86_feature_detected!` guard); beyond that the function
// is as safe as `columns_kernel` — the body holds no intrinsics and no raw
// pointers, the target-feature attribute merely licenses the compiler to
// autovectorize the inlined kernel with AVX2 instructions.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn columns_avx2(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    lanes: usize,
    rows: usize,
    sel: &[Limb],
    alpha: &[Limb],
    rs: &[u32],
    carry: &mut [u64],
    prev: &mut [Limb],
    dcur: &mut [Limb],
) {
    columns_kernel(u, v, w, lanes, rows, sel, alpha, rs, carry, prev, dcur);
}

/// The AVX-512F vector pass: lane-block outer, limb row inner.
///
/// A lane block is one zmm of 16 lanes' limbs. The multiply-subtract runs
/// on `u64` halves — the even lanes in place, the odd lanes shifted down —
/// and the block keeps its `α`, `rs`, `sel` mask, carries and previous
/// difference row in registers across all `rows`, so unlike the portable
/// body it needs no scratch rows and never writes them. [`lane_blocks`]
/// runs two blocks interleaved (four independent carry chains), then one
/// block for the rest of the prefix; a tail mask on every load and store
/// covers a `lanes` that is not a multiple of 16. Each row reads `X`/`Y`
/// through a `sel` blend and writes the shifted result back with two masked
/// stores: plane `u` where `sel` is 0, plane `v` where it is all-ones. `Y`
/// words and columns `≥ lanes` are never stored to.
///
/// `sel` words must be 0 or all-ones (the engine only ever writes those):
/// the blend mask is "word is nonzero", where the portable body blends bit
/// by bit.
///
/// # Safety
///
/// The CPU must support AVX-512F, and the slices must pass the length
/// checks of [`columns_on`]: `lanes ≤ w`, planes of at least `rows·w`
/// limbs, per-lane slices of at least `lanes`.
// SAFETY: every raw access below relies on the contract above.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn columns_avx512(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    lanes: usize,
    rows: usize,
    sel: &[Limb],
    alpha: &[Limb],
    rs: &[u32],
) {
    const BLOCK: usize = 16;
    const INTERLEAVE: usize = 2;
    let (up, vp) = (u.as_mut_ptr(), v.as_mut_ptr());
    let mut t = 0;
    while t + INTERLEAVE * BLOCK <= lanes {
        // SAFETY: columns t..t+32 lie inside the checked prefix.
        unsafe { lane_blocks::<INTERLEAVE>(up, vp, w, t, rows, sel, alpha, rs, 0xffff) };
        t += INTERLEAVE * BLOCK;
    }
    while t < lanes {
        let n = (lanes - t).min(BLOCK);
        let tail = (0xffff_u32 >> (BLOCK - n)) as u16;
        // SAFETY: the tail mask confines every access to columns t..t+n,
        // inside the checked prefix.
        unsafe { lane_blocks::<1>(up, vp, w, t, rows, sel, alpha, rs, tail) };
        t += n;
    }
}

/// `N` interleaved 16-lane blocks of [`columns_avx512`] starting at column
/// `t0`; `tail` masks the columns of the last block (0xffff when full).
///
/// # Safety
///
/// As [`columns_avx512`], with `up`/`vp` its plane pointers; columns
/// `t0..t0 + 16·(N−1)` plus the `tail` columns of the last block must lie
/// inside the checked prefix `0..lanes`.
// SAFETY: every raw access below relies on the contract above.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn lane_blocks<const N: usize>(
    up: *mut Limb,
    vp: *mut Limb,
    w: usize,
    t0: usize,
    rows: usize,
    sel: &[Limb],
    alpha: &[Limb],
    rs: &[u32],
    tail: u16,
) {
    use std::arch::x86_64::*;
    // The carry chain runs biased so that it needs no borrow extraction.
    // Row k's `s = x_k − α·y_k − carry` lies in [−(2⁶⁴ − 2³²), 2³²), so
    // `t = s + (2⁶⁴ − 2³²)` fits a u64 exactly: its low half is the
    // difference limb d and its high half is `hi = 2³² − 1 − carry'`. The
    // next row's `t' = x' − α·y' − carry' − 2³²` is then `x' + g − α·y'`
    // with `g = hi − (2³³ − 1)` (mod 2⁶⁴), and `carry = 0` is `g = −2³²`.
    let g0 = _mm512_set1_epi64(-(1i64 << 32));
    let bias = _mm512_set1_epi64(1 - (1i64 << 33));
    let lo32 = _mm512_set1_epi64(Limb::MAX as i64);
    let k32 = _mm512_set1_epi32(LIMB_BITS as i32);
    // Per block, `u64` halves (e = even lanes, o = odd lanes): α, carry
    // state g; per block, 16 limb lanes: rs, 32 − rs, previous d row.
    let [mut ae, mut ao, mut ge, mut go, mut r, mut rc, mut prev] = [[g0; N]; 7];
    // Per block: the column mask, and the store masks of plane `u` (`X`
    // there: sel = 0) and plane `v` (sel = all-ones).
    let (mut kcol, mut ku, mut kv) = ([0u16; N], [0u16; N], [0u16; N]);
    for b in 0..N {
        let col = t0 + 16 * b;
        let k = if b + 1 == N { tail } else { 0xffff };
        // SAFETY: masked loads read only columns the mask admits, all
        // below `lanes ≤` each per-lane slice's length.
        let (selv, av, rv) = unsafe {
            (
                _mm512_maskz_loadu_epi32(k, sel.as_ptr().add(col).cast()),
                _mm512_maskz_loadu_epi32(k, alpha.as_ptr().add(col).cast()),
                _mm512_maskz_loadu_epi32(k, rs.as_ptr().add(col).cast()),
            )
        };
        kcol[b] = k;
        kv[b] = _mm512_mask_test_epi32_mask(k, selv, selv);
        ku[b] = k & !kv[b];
        ae[b] = av;
        ao[b] = _mm512_srli_epi64::<32>(av);
        r[b] = rv;
        rc[b] = _mm512_sub_epi32(k32, rv);
    }
    for k in 0..rows {
        let row = k * w + t0;
        for b in 0..N {
            let at = row + 16 * b;
            // SAFETY: row k < rows and the masked columns are < lanes ≤ w,
            // so every admitted word lies inside both `rows·w` planes.
            let (uw, vw) = unsafe {
                (
                    _mm512_maskz_loadu_epi32(kcol[b], up.add(at).cast()),
                    _mm512_maskz_loadu_epi32(kcol[b], vp.add(at).cast()),
                )
            };
            let x = _mm512_mask_blend_epi32(kv[b], uw, vw);
            let y = _mm512_mask_blend_epi32(kv[b], vw, uw);
            // `mul_epu32` reads the low limb of each u64: the even lanes
            // as loaded, the odd lanes once shifted down.
            let te = _mm512_sub_epi64(
                _mm512_add_epi64(_mm512_and_si512(x, lo32), ge[b]),
                _mm512_mul_epu32(ae[b], y),
            );
            let to = _mm512_sub_epi64(
                _mm512_add_epi64(_mm512_srli_epi64::<32>(x), go[b]),
                _mm512_mul_epu32(ao[b], _mm512_srli_epi64::<32>(y)),
            );
            ge[b] = _mm512_add_epi64(_mm512_srli_epi64::<32>(te), bias);
            go[b] = _mm512_add_epi64(_mm512_srli_epi64::<32>(to), bias);
            // This row's 16 difference limbs, back in lane order: the odd
            // lanes' d moves up from the low half of `to`.
            let d = _mm512_mask_shuffle_epi32::<0b10_10_00_00>(te, 0xaaaa, to);
            // Row k−1 is final now that its high bits (this row's d) are
            // known: out = (prev >> rs) | (d << (32 − rs)), where a shift
            // by 32 gives 0, so rs = 0 (identity lanes) is exact. Row 0
            // has no row below.
            if k > 0 {
                let out = _mm512_or_si512(
                    _mm512_srlv_epi32(prev[b], r[b]),
                    _mm512_sllv_epi32(d, rc[b]),
                );
                // SAFETY: row k−1 of the same admitted columns; masked
                // stores write only the words `ku`/`kv` admit.
                unsafe {
                    _mm512_mask_storeu_epi32(up.add(at - w).cast(), ku[b], out);
                    _mm512_mask_storeu_epi32(vp.add(at - w).cast(), kv[b], out);
                }
            }
            prev[b] = d;
        }
    }
    // Top row: no difference limb above it, so out = prev >> rs.
    if rows > 0 {
        let row = (rows - 1) * w + t0;
        for b in 0..N {
            let at = row + 16 * b;
            let out = _mm512_srlv_epi32(prev[b], r[b]);
            // SAFETY: row rows−1 of the admitted columns, masked stores.
            unsafe {
                _mm512_mask_storeu_epi32(up.add(at).cast(), ku[b], out);
                _mm512_mask_storeu_epi32(vp.add(at).cast(), kv[b], out);
            }
        }
    }
}

/// The portable kernel body; `inline(always)` so the AVX2 wrapper's
/// target-feature scope covers the loops it is asked to vectorize.
///
/// `w` is the plane row stride; `lanes ≤ w` the dense column prefix to
/// process (the warp's resident width after compaction).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn columns_kernel(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    lanes: usize,
    rows: usize,
    sel: &[Limb],
    alpha: &[Limb],
    rs: &[u32],
    carry: &mut [u64],
    prev: &mut [Limb],
    dcur: &mut [Limb],
) {
    let sel = &sel[..lanes];
    let alpha = &alpha[..lanes];
    let rs = &rs[..lanes];
    let carry = &mut carry[..lanes];
    let mut prev = &mut prev[..lanes];
    let mut dcur = &mut dcur[..lanes];
    for c in carry.iter_mut() {
        *c = 0;
    }
    prev.fill(0);
    for k in 0..rows {
        let base = k * w;
        // Difference row k: d = x_k − (α·y_k + carry) with the combined
        // mul-high + borrow carry chain of the scalar fused pass. Lanes
        // are independent — one row, `lanes` lanes, vectorizable.
        {
            let urow = &u[base..base + lanes];
            let vrow = &v[base..base + lanes];
            for t in 0..lanes {
                let m = sel[t];
                let uw = urow[t];
                let vw = vrow[t];
                let xk = (uw & !m) | (vw & m);
                let yk = (uw & m) | (vw & !m);
                let p = alpha[t] as u64 * yk as u64 + carry[t];
                let pl = p as Limb;
                dcur[t] = xk.wrapping_sub(pl);
                carry[t] = (p >> LIMB_BITS) + (xk < pl) as u64;
            }
        }
        // Emit output row k−1 now that its high bits (row k's difference)
        // are known: out = (prev | d·2³²) >> rs, the branchless form of the
        // scalar `(prev >> rs) | (d << (32 − rs))` that is also exact at
        // rs = 0 (identity lanes).
        if k > 0 {
            emit_row(u, v, w, lanes, k - 1, sel, rs, prev, dcur);
        }
        core::mem::swap(&mut prev, &mut dcur);
    }
    // Top row: no difference limb above it, so d = 0 and out = prev >> rs —
    // the scalar loop's final `x[xl−1] = prev >> rs` write.
    if rows > 0 {
        dcur.fill(0);
        emit_row(u, v, w, lanes, rows - 1, sel, rs, prev, dcur);
    }
}

/// Emit one shifted output row into the selected `X` plane of each lane,
/// leaving the `Y` plane untouched, with branchless blend stores.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn emit_row(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    lanes: usize,
    row: usize,
    sel: &[Limb],
    rs: &[u32],
    prev: &[Limb],
    d: &[Limb],
) {
    let base = row * w;
    let urow = &mut u[base..base + lanes];
    let vrow = &mut v[base..base + lanes];
    for t in 0..lanes {
        let m = sel[t];
        let out = (((prev[t] as u64) | ((d[t] as u64) << LIMB_BITS)) >> rs[t]) as Limb;
        let uw = urow[t];
        let vw = vrow[t];
        urow[t] = (out & !m) | (uw & m);
        vrow[t] = (out & m) | (vw & !m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulkgcd_bigint::ops;

    fn pack_lo(x: &[Limb]) -> u64 {
        let lo = *x.first().unwrap_or(&0) as u64;
        let hi = *x.get(1).unwrap_or(&0) as u64;
        hi << 32 | lo
    }

    fn top2(x: &[Limb], l: usize) -> u64 {
        match l {
            0 => 0,
            1 => x[0] as u64,
            _ => ((x[l - 1] as u64) << 32) | x[l - 2] as u64,
        }
    }

    #[test]
    fn force_odd_matches_branchy_form() {
        for a in [1u64, 2, 3, 4, u32::MAX as u64 + 1, u64::MAX - 1, u64::MAX] {
            let expect = if a & 1 == 0 { a - 1 } else { a };
            assert_eq!(force_odd(a), expect, "alpha={a}");
        }
    }

    #[test]
    fn low_diff_matches_scalar_probe() {
        // Mirror the scalar low-2 loop on explicit limb vectors.
        let cases: &[(&[Limb], &[Limb], Limb)] = &[
            (&[7, 9, 3], &[5, 1], 3),
            (&[0, 0, 1], &[1], 1),
            (&[10], &[3], 3),
            (&[0x8000_0000, 1], &[1, 1], 1),
        ];
        for &(x, y, alpha) in cases {
            let lx = x.len();
            let mut carry = 0u64;
            let mut d0 = 0;
            let mut d1 = 0;
            for (i, &xi) in x.iter().enumerate().take(2.min(lx)) {
                let yi = *y.get(i).unwrap_or(&0);
                let p = alpha as u64 * yi as u64 + carry;
                let (d, bo) = bulkgcd_bigint::limb::sbb(xi, p as Limb, 0);
                if i == 0 {
                    d0 = d;
                } else {
                    d1 = d;
                }
                carry = (p >> 32) + bo as u64;
            }
            let expect = (d1 as u64) << 32 | d0 as u64;
            assert_eq!(low_diff64(pack_lo(x), pack_lo(y), lx, alpha), expect);
        }
    }

    #[test]
    fn plan_classifies_and_matches_approx() {
        // X = 3 limbs, Y = 1 limb: Case 2, fused path expected.
        let x: &[Limb] = &[1, 2, 9];
        let y: &[Limb] = &[4];
        let (plan, alpha, beta, _) =
            plan_lane(top2(x, 3), pack_lo(x), 3, top2(y, 1), pack_lo(y), 1);
        assert_eq!(beta, 2, "Case 2-A has beta = lx - 1");
        assert!(plan.is_beta_positive());
        assert_eq!(alpha, 9 / 4);

        // Equal operands: Case 4-C, difference zero => DeepShift.
        let n: &[Limb] = &[5, 6, 7];
        let (plan, alpha, beta, _) =
            plan_lane(top2(n, 3), pack_lo(n), 3, top2(n, 3), pack_lo(n), 3);
        assert_eq!((alpha, beta), (1, 0));
        assert_eq!(plan, LanePlan::DeepShift { alpha: 1 });
    }

    /// The column kernel against the scalar fused pass, lane by lane,
    /// including identity (masked) lanes and ragged lengths.
    #[test]
    fn column_kernel_matches_scalar_fused_pass() {
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let w = 8usize;
        let stride = 6usize;
        for round in 0..200 {
            // Build w lanes: random X >= alpha*Y with normalized lengths.
            let mut xs: Vec<Vec<Limb>> = Vec::new();
            let mut ys: Vec<Vec<Limb>> = Vec::new();
            let mut alphas = vec![0 as Limb; w];
            let mut rss = vec![0u32; w];
            let mut sels = vec![0 as Limb; w];
            let mut u = vec![0 as Limb; stride * w];
            let mut v = vec![0 as Limb; stride * w];
            let mut rows = 0usize;
            for t in 0..w {
                let lx = 1 + (next() as usize % stride);
                let ly = 1 + (next() as usize % lx);
                let mut x: Vec<Limb> = (0..lx).map(|_| next() as Limb).collect();
                let mut y: Vec<Limb> = (0..ly).map(|_| next() as Limb).collect();
                // Keep X comfortably above alpha*Y: small alpha, big X top,
                // small Y top (alpha*(y_top+1) < 8*2^24 << 2^31 <= x_top).
                x[lx - 1] |= 0x8000_0000;
                y[ly - 1] >>= 8;
                if y[ly - 1] == 0 {
                    y[ly - 1] = 1;
                }
                let alpha = ((next() as Limb) & 0x7) | 1;
                let masked = round % 3 == 0 && t % 2 == 0;
                let lo = low_diff64(pack_lo(&x), pack_lo(&y), lx, alpha);
                let rs = if lo == 0 { 32 } else { lo.trailing_zeros() };
                if !masked && (1..32).contains(&rs) {
                    alphas[t] = alpha;
                    rss[t] = rs;
                    rows = rows.max(lx);
                }
                let sel = if next() & 1 == 0 { 0 } else { Limb::MAX };
                sels[t] = sel;
                let (xp, yp) = if sel == 0 {
                    (&mut u, &mut v)
                } else {
                    (&mut v, &mut u)
                };
                for (k, &l) in x.iter().enumerate() {
                    xp[k * w + t] = l;
                }
                for (k, &l) in y.iter().enumerate() {
                    yp[k * w + t] = l;
                }
                xs.push(x);
                ys.push(y);
            }
            let (mut carry, mut prev, mut dcur) = (vec![0u64; w], vec![0; w], vec![0; w]);
            fused_submul_rshift_columns(
                &mut u, &mut v, w, rows, &sels, &alphas, &rss, &mut carry, &mut prev, &mut dcur,
            );
            for t in 0..w {
                let xp = if sels[t] == 0 { &u } else { &v };
                let yp = if sels[t] == 0 { &v } else { &u };
                let got_x: Vec<Limb> = (0..stride).map(|k| xp[k * w + t]).collect();
                let got_y: Vec<Limb> = (0..stride).map(|k| yp[k * w + t]).collect();
                let mut expect_x = xs[t].clone();
                if alphas[t] != 0 {
                    let yl = ys[t].len();
                    let (newl, r) =
                        ops::fused_submul_rshift(&mut expect_x, &ys[t][..yl], alphas[t]);
                    assert_eq!(r as u32, rss[t]);
                    expect_x.truncate(newl);
                }
                expect_x.resize(stride, 0);
                assert_eq!(got_x, expect_x, "round {round} lane {t} X");
                let mut expect_y = ys[t].clone();
                expect_y.resize(stride, 0);
                assert_eq!(got_y, expect_y, "round {round} lane {t} Y untouched");
            }
        }
    }

    /// Every ISA path against the portable oracle, bit for bit, on random
    /// planes: ragged prefixes of every width, mixed `sel`, identity lanes
    /// beside α = u32::MAX / rs = 31, and untouched bytes past the prefix
    /// and above `rows`.
    #[test]
    fn isa_paths_match_portable_kernel() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for isa in [KernelIsa::Avx512, KernelIsa::Avx2] {
            if !isa.available() {
                eprintln!("skipped: this CPU cannot run the {} kernel", isa.name());
                continue;
            }
            for w in [8usize, 32, 33, 128] {
                for rows in [0usize, 1, 2, 64] {
                    let cap = rows + 2;
                    for lanes in 1..=w {
                        let u0: Vec<Limb> = (0..cap * w).map(|_| next() as Limb).collect();
                        let v0: Vec<Limb> = (0..cap * w).map(|_| next() as Limb).collect();
                        let mut sel = vec![0 as Limb; w];
                        let mut alpha = vec![0 as Limb; w];
                        let mut rs = vec![0u32; w];
                        for t in 0..w {
                            let r = next();
                            sel[t] = if r & 1 == 0 { 0 } else { Limb::MAX };
                            (alpha[t], rs[t]) = match (r >> 1) % 4 {
                                0 => (0, 0),
                                1 => (Limb::MAX, 31),
                                _ => ((r >> 8) as Limb, (r >> 40) as u32 % 32),
                            };
                        }
                        let run = |isa: KernelIsa| {
                            let (mut u, mut v) = (u0.clone(), v0.clone());
                            // Per-lane slices exactly `lanes` long, the
                            // dispatcher's minimum.
                            let (mut carry, mut prev, mut dcur) =
                                (vec![0u64; lanes], vec![0; lanes], vec![0; lanes]);
                            let ran = columns_on(
                                isa,
                                &mut u,
                                &mut v,
                                w,
                                lanes,
                                rows,
                                &sel[..lanes],
                                &alpha[..lanes],
                                &rs[..lanes],
                                &mut carry,
                                &mut prev,
                                &mut dcur,
                            );
                            assert!(ran);
                            (u, v)
                        };
                        let (u, v) = run(isa);
                        let (pu, pv) = run(KernelIsa::Portable);
                        let at = format!("{} w={w} lanes={lanes} rows={rows}", isa.name());
                        assert!(u == pu && v == pv, "{at}: differs from portable");
                        for i in 0..cap * w {
                            if i % w >= lanes || i / w >= rows {
                                assert_eq!((u[i], v[i]), (u0[i], v0[i]), "{at}: word {i}");
                            }
                        }
                    }
                }
            }
        }
    }
}

//! Branch-minimized per-lane step primitives for lockstep (SIMT-style)
//! execution of Approximate Euclid.
//!
//! A real GPU runs one warp instruction across all lanes per cycle; the
//! host-side lockstep engine (`bulkgcd-bulk`'s `lockstep` module) mirrors
//! that by splitting every AEA iteration into
//!
//! 1. a **planning step** ([`plan_lanes`]) over the warp's per-lane head
//!    registers ([`LaneHeads`]: the lengths plus the paper's §IV head words,
//!    the top two and bottom two words of `X` and `Y`). One branch-free
//!    pass (a hand-written AVX-512 kernel, or the portable body) plans the
//!    overwhelmingly common fused update and marks every other running
//!    lane in a bitmask; a scalar pass over its set bits applies the
//!    termination tests and sends the few lanes left (short operands,
//!    β > 0, deep shifts) through the scalar oracle [`plan_lane`] onto one
//!    of the rare scalar paths, and
//! 2. a **shared vector pass** ([`fused_submul_rshift_columns_prefix`])
//!    that applies `X ← rshift(X − α·Y)` to every fused lane at once over
//!    column-major operand planes and, once per lane block after its rows,
//!    brings each fused lane's registers up to date itself: the new `lX`,
//!    the new head words, and the `X < Y` verdict with its pointer swap.
//!    It dispatches at run time ([`kernel_isa`]) to a hand-written
//!    AVX-512F lane-block kernel, to the portable body autovectorized for
//!    AVX2, or to the portable body itself, which is the oracle the other
//!    two are tested against bit for bit.
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
    alpha.wrapping_sub(!alpha & 1)
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
    let x1 = (x_lo >> LIMB_BITS) as Limb;
    let p1 = alpha as u64 * (y_lo >> LIMB_BITS) + carry;
    // A single-limb X stops after limb 0: mask the high half off.
    let d1 = x1.wrapping_sub(p1 as Limb) & ((lx >= 2) as Limb).wrapping_neg();
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
/// `approximate_euclid_loop` exactly. This is the scalar oracle of
/// [`plan_lanes`], and the path it takes for the lanes its branch-free
/// pass leaves out.
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

/// Where a lane of a lockstep run stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LaneState {
    /// Still iterating.
    Running,
    /// `Y` reached 0: `X` holds the GCD.
    Done,
    /// Early termination fired: `Y` fell below the bit threshold.
    Early,
}

/// The head words of an operand of `l` limbs, read through `limb(k)`:
/// `(top, low)` with `top = limb(l−1)·D + limb(l−2)` and
/// `low = limb(1)·D + limb(0)`, where a row that does not exist (below
/// row 0, or at or above `l`) reads 0. That is the padded column's own
/// content, so `top` and `low` equal a strided gather of the rows.
///
/// For `l ≤ 2` the whole value is `low`; [`plan_lanes`] hands that, not
/// `top`, to [`plan_lane`] as the top-two-word value.
#[inline]
pub fn head_words(l: usize, limb: impl Fn(usize) -> Limb) -> (u64, u64) {
    let word = |k: usize, present: bool| if present { limb(k) as u64 } else { 0 };
    let top = word(l.wrapping_sub(1), l >= 1) << LIMB_BITS | word(l.wrapping_sub(2), l >= 2);
    let low = word(1, l >= 2) << LIMB_BITS | word(0, l >= 1);
    (top, low)
}

/// A warp's per-lane registers: each lane's plane selector, operand
/// lengths and the §IV head words of `X` and `Y` (see [`head_words`]). The
/// planner reads the lengths and head words; the vector pass keeps every
/// fused lane's registers current itself, so no iteration gathers them
/// from the column planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneHeads {
    /// Plane selector per lane: 0 when `X` lives in plane `u`, all-ones
    /// when in plane `v` (see [`fused_submul_rshift_columns_prefix`]).
    pub sel: Vec<Limb>,
    /// `lX` per lane.
    pub lx: Vec<u32>,
    /// `lY` per lane.
    pub ly: Vec<u32>,
    /// `X`'s top-two words per lane.
    pub xt: Vec<u64>,
    /// `X`'s low-two words per lane.
    pub xl: Vec<u64>,
    /// `Y`'s top-two words per lane.
    pub yt: Vec<u64>,
    /// `Y`'s low-two words per lane.
    pub yl: Vec<u64>,
}

impl LaneHeads {
    /// Registers for `w` lanes, all zero.
    pub fn new(w: usize) -> Self {
        LaneHeads {
            sel: vec![0; w],
            lx: vec![0; w],
            ly: vec![0; w],
            xt: vec![0; w],
            xl: vec![0; w],
            yt: vec![0; w],
            yl: vec![0; w],
        }
    }

    /// Set lane `t`'s `X` registers: length `l`, head words `(top, low)`.
    #[inline]
    pub fn set_x(&mut self, t: usize, l: usize, (top, low): (u64, u64)) {
        self.lx[t] = l as u32;
        self.xt[t] = top;
        self.xl[t] = low;
    }

    /// Set lane `t`'s `Y` registers: length `l`, head words `(top, low)`.
    #[inline]
    pub fn set_y(&mut self, t: usize, l: usize, (top, low): (u64, u64)) {
        self.ly[t] = l as u32;
        self.yt[t] = top;
        self.yl[t] = low;
    }

    /// The pointer swap of lane `t`: flip its selector and exchange its `X`
    /// and `Y` registers.
    #[inline]
    pub fn swap_xy(&mut self, t: usize) {
        self.sel[t] ^= Limb::MAX;
        core::mem::swap(&mut self.lx[t], &mut self.ly[t]);
        core::mem::swap(&mut self.xt[t], &mut self.yt[t]);
        core::mem::swap(&mut self.xl[t], &mut self.yl[t]);
    }

    /// Copy lane `src`'s registers onto lane `dst` (a compaction move).
    #[inline]
    pub fn copy_lane(&mut self, src: usize, dst: usize) {
        self.sel[dst] = self.sel[src];
        self.lx[dst] = self.lx[src];
        self.ly[dst] = self.ly[src];
        self.xt[dst] = self.xt[src];
        self.xl[dst] = self.xl[src];
        self.yt[dst] = self.yt[src];
        self.yl[dst] = self.yl[src];
    }

    /// The number of lanes every register row holds.
    fn lanes(&self) -> usize {
        [
            self.sel.len(),
            self.lx.len(),
            self.ly.len(),
            self.xt.len(),
            self.xl.len(),
            self.yt.len(),
            self.yl.len(),
        ]
        .into_iter()
        .min()
        .unwrap_or(0)
    }
}

/// One lockstep iteration's plan for a warp's resident prefix, as
/// [`plan_lanes`] writes it. Sized once per warp; planning allocates
/// nothing after the first iterations have grown `fixups`.
#[derive(Debug, Clone)]
pub struct LanePlans {
    /// Per lane: the fused multiplier, 0 when the lane sits the vector pass
    /// out (terminated, or planned onto a scalar path).
    pub alpha: Vec<Limb>,
    /// Per lane: the fused shift, 0 when masked.
    pub rs: Vec<u32>,
    /// The lanes planned onto a scalar path, in lane order.
    pub fixups: Vec<(usize, LanePlan)>,
    /// The vector pass's trip count: the largest `lX` over the fused lanes
    /// (0 when no lane is fused).
    pub rows: usize,
    /// Lanes still running after this iteration's termination tests.
    pub running: usize,
    /// The lanes this iteration's termination tests ended, in lane order.
    pub ended: Vec<usize>,
    /// The lanes the branch-free pass left to the scalar pass (termination
    /// or [`plan_lane`]): lane `t` is bit `t % 64` of word `t / 64`, and
    /// the bits past the planned prefix are 0.
    rare: Vec<u64>,
}

impl LanePlans {
    /// Plan storage for `w` lanes.
    pub fn new(w: usize) -> Self {
        LanePlans {
            alpha: vec![0; w],
            rs: vec![0; w],
            fixups: Vec::with_capacity(w),
            ended: Vec::with_capacity(w),
            rows: 0,
            running: 0,
            rare: vec![0; w.div_ceil(64)],
        }
    }
}

/// `n / d` for `d ≥ 1`, exact whenever the quotient is below 2³² (the
/// only quotients [`plan_lanes`] keeps). An f64 estimate, rounded so that
/// it never exceeds the true quotient and falls short of it by at most 1,
/// then one exact correction upward.
///
/// Below 2³² the estimate's relative error (three roundings: the two
/// hardware u64 → f64 conversions and the division, ≤ 3·2⁻⁵³) is under
/// 2⁻¹⁹ in absolute terms, so rounding `n/d − ½ − 2⁻¹⁸` to the nearest
/// integer gives `⌊n/d⌋ − 1` or `⌊n/d⌋`, and `n − q·d` cannot wrap.
#[inline(always)]
fn div_below_2_32(n: u64, d: u64) -> u64 {
    const M52: f64 = (1u64 << 52) as f64;
    let est = (n as f64 / d as f64 - (0.5 + 1.0 / (1u64 << 18) as f64)).max(0.0);
    // Adding 2⁵² rounds to the nearest integer and leaves it in the low
    // mantissa bits.
    let q = (est + M52).to_bits() & ((1u64 << 52) - 1);
    let r = n.wrapping_sub(q.wrapping_mul(d));
    q.wrapping_add((r >= d) as u64)
}

/// `⌊n/d⌋` on eight `u64` lanes, read off the f64 quotient, plus the
/// lanes where that may be wrong: the ones whose quotient lies within
/// 2⁻¹⁶ of an integer.
///
/// The f64 quotient of the hardware-converted operands carries three
/// roundings (relative error ≤ 3·2⁻⁵³), under 2⁻¹⁸ in absolute terms
/// while `n/d < 2³³`. So where it lies at least 2⁻¹⁶ from an integer the
/// true quotient lies in the same unit interval, and its truncation is
/// exact; a quotient of 2³³ or more reads at least 2³². The flagged
/// lanes, about one in 2¹⁵ for quotients with a uniform fraction (and
/// every exact multiple), are for the caller to settle another way.
///
/// # Safety
///
/// The CPU must support AVX-512F and DQ.
// SAFETY: register arithmetic only; the contract above is the features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
unsafe fn floor_quotient_x8(
    n: std::arch::x86_64::__m512i,
    d: std::arch::x86_64::__m512i,
) -> (std::arch::x86_64::__m512i, u8) {
    use std::arch::x86_64::*;
    let est = _mm512_div_pd(_mm512_cvtepu64_pd(n), _mm512_cvtepu64_pd(d));
    // `est − round(est)`: the distance to the nearest integer.
    let off = _mm512_abs_pd(_mm512_reduce_pd::<{ _MM_FROUND_TO_NEAREST_INT }>(est));
    let near = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(off, _mm512_set1_pd(1.0 / (1u64 << 16) as f64));
    (_mm512_cvttpd_epu64(est), near)
}

/// Plan one lockstep iteration for the resident prefix `0..lanes`.
///
/// For every running lane, in the scalar loop's order: `Y = 0` ends the
/// lane as [`LaneState::Done`]; with `threshold_bits > 0` a `Y` of fewer
/// bits (read from its head register) ends it as [`LaneState::Early`].
/// Every other running lane gets exactly the plan [`plan_lane`] would
/// give it: fused lanes their `(α, rs)` in `plans`, the rest a
/// [`LanePlans::fixups`] entry. `plans.rows`, `plans.running` and
/// `plans.ended` are set for the iteration.
///
/// One branch-free pass plans the common lane: both operands longer than
/// two words (the paper's Case 4) with β = 0 and a shift below one word.
/// Its quotient comes from an f64 estimate, not a 64-bit division (Case
/// 4's β = 0 quotients are below 2³²), and its shift from the low limb
/// alone: `rs < 32` exactly when `d0 = x0 − α·y0 mod 2³²` is nonzero, and
/// then `rs` is `d0`'s trailing-zero count. The pass marks every other
/// running lane in a bitmask, and a scalar pass walks only its set bits:
/// the terminations, and [`plan_lane`] for short operands, β > 0 and
/// deep shifts. It also counts the running lanes; `plans.running` is that
/// count less the lanes the scalar pass ends.
///
/// The branch-free pass is a hand-written AVX-512 kernel
/// (`plan_avx512`), the portable body autovectorized for AVX2, or, on
/// the portable build, skipped: with only SSE2 it vectorizes two lanes
/// wide on shuffles and costs more than [`plan_lane`] per lane, so that
/// build marks every running lane rare.
pub fn plan_lanes(
    heads: &LaneHeads,
    state: &mut [LaneState],
    lanes: usize,
    threshold_bits: u64,
    plans: &mut LanePlans,
) {
    let isa = [KernelIsa::Avx512, KernelIsa::Avx2]
        .into_iter()
        .find(|&isa| planner_available(isa))
        .unwrap_or(KernelIsa::Portable);
    let ran = plan_lanes_on(isa, heads, state, lanes, threshold_bits, plans);
    debug_assert!(ran, "the chosen planner build is available");
}

/// Whether this CPU runs the planner build for `isa`: the AVX-512 kernel
/// also needs DQ (the u64 ↔ f64 conversions), CD (leading-zero counts),
/// BW with VL (the state bytes) and POPCNT (the running count).
fn planner_available(isa: KernelIsa) -> bool {
    match isa {
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx512 => {
            isa.available()
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512cd")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("popcnt")
        }
        _ => isa.available(),
    }
}

/// [`plan_lanes`] on the given build. Returns `false`, with nothing
/// touched, when this CPU cannot run it — how tests reach each build. The
/// length checks here are what the AVX-512 kernel's raw accesses rely on.
#[doc(hidden)]
pub fn plan_lanes_on(
    isa: KernelIsa,
    heads: &LaneHeads,
    state: &mut [LaneState],
    lanes: usize,
    threshold_bits: u64,
    plans: &mut LanePlans,
) -> bool {
    assert!(heads.lanes() >= lanes);
    assert!(state.len() >= lanes);
    assert!(plans.alpha.len() >= lanes);
    assert!(plans.rs.len() >= lanes);
    assert!(plans.rare.len() >= lanes.div_ceil(64));
    if !planner_available(isa) {
        return false;
    }
    let (rows, live) = match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `planner_available` confirmed every feature the kernel
        // enables, and the asserts above are its slice bounds.
        KernelIsa::Avx512 => unsafe { plan_avx512(heads, state, lanes, threshold_bits, plans) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `planner_available` confirmed AVX2.
        KernelIsa::Avx2 => unsafe { plan_avx2(heads, state, lanes, threshold_bits, plans) },
        _ => plan_body(heads, state, lanes, threshold_bits, plans, false),
    };
    plan_rare(heads, state, lanes, threshold_bits, plans, rows);
    plans.running = live - plans.ended.len();
    true
}

// SAFETY: callers must only invoke this when the CPU supports AVX2; the
// body holds no intrinsics and no raw pointers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn plan_avx2(
    heads: &LaneHeads,
    state: &[LaneState],
    lanes: usize,
    threshold_bits: u64,
    plans: &mut LanePlans,
) -> (u32, usize) {
    plan_body(heads, state, lanes, threshold_bits, plans, true)
}

/// The branch-free planning pass, portable form, and the oracle of
/// [`plan_avx512`]; `inline(always)` so the AVX2 build's target features
/// cover it. Writes every lane's fused `(α, rs)` (0 when not fused) and
/// the rare bitmask, and returns the largest fused `lX` and the number of
/// running lanes. Without `branch_free` no lane fuses, so every running
/// lane is rare.
// analyze: constant-flow(public = "lanes, lx, ly, state, threshold_bits, branch_free, rows, live")
#[inline(always)]
fn plan_body(
    heads: &LaneHeads,
    state: &[LaneState],
    lanes: usize,
    threshold_bits: u64,
    plans: &mut LanePlans,
    branch_free: bool,
) -> (u32, usize) {
    let (lx, ly) = (&heads.lx[..lanes], &heads.ly[..lanes]);
    let (xt, xl) = (&heads.xt[..lanes], &heads.xl[..lanes]);
    let (yt, yl) = (&heads.yt[..lanes], &heads.yl[..lanes]);
    let state = &state[..lanes];
    let alpha = &mut plans.alpha[..lanes];
    let rs = &mut plans.rs[..lanes];
    let mut rows = 0u32;
    let mut live = 0usize;
    for c in 0..lanes.div_ceil(64) {
        let mut rare = 0u64;
        for t in 64 * c..lanes.min(64 * c + 64) {
            let (lxt, lyt) = (lx[t], ly[t]);
            let (x12, y12) = (xt[t], yt[t]);
            let running = state[t] == LaneState::Running;
            live += running as usize;
            // Y's bit length: its top word sits in the high half of `y12`.
            let ybits = (LIMB_BITS as u64 * lyt as u64).wrapping_sub(y12.leading_zeros() as u64);
            let stays = (lyt != 0) & (ybits >= threshold_bits);
            // Case 4 at β = 0: 4-A with lX = lY (α = x12/(y12+1)), 4-B with
            // lX = lY + 1 (α = x12/(y1+1)), 4-C (α = 1).
            let gt = x12 > y12;
            let beta0 = (lxt == lyt) | ((lxt == lyt + 1) & !gt);
            let gt_mask = (gt as u64).wrapping_neg();
            let d = (y12.wrapping_add(1) & gt_mask) | (((y12 >> LIMB_BITS) + 1) & !gt_mask);
            let one = ((lxt == lyt) & !gt) as u64;
            let q = div_below_2_32(x12, d) * (1 - one) + one;
            let a = force_odd(q);
            // The low limb of X − α·Y: nonzero exactly when rs < 32.
            let d0 = (xl[t] as Limb).wrapping_sub((a as Limb).wrapping_mul(yl[t] as Limb));
            let fused = branch_free
                & running
                & stays
                & (lxt > 2)
                & (lyt > 2)
                & beta0
                & (a <= Limb::MAX as u64)
                & (d0 != 0);
            let mask = (fused as Limb).wrapping_neg();
            alpha[t] = a as Limb & mask;
            rs[t] = d0.trailing_zeros() & mask;
            rows = rows.max(lxt & mask);
            rare |= ((running & !fused) as u64) << (t % 64);
        }
        plans.rare[c] = rare;
    }
    (rows, live)
}

/// The AVX-512 planning pass: [`plan_body`]'s branch-free pass, 16 lanes
/// per block. Lengths, `α`, `rs`, `Y`'s bit length and the state tests
/// live in 32-bit lanes and k-masks; only the head words and the quotient
/// use 64-bit halves (lanes 0..8 and 8..16 of the block), and the even
/// and odd 32-bit words of a pair of halves are one permute away. The
/// trip count is a running `max` in a register, the running lanes a
/// count of mask bits, and each block's rare lanes 16 bits of the
/// bitmask.
///
/// The kernel may leave more lanes to the scalar pass than [`plan_body`]
/// does, never fewer, and the scalar pass plans them exactly: the lanes
/// whose quotient [`floor_quotient_x8`] cannot settle, and those whose `Y`
/// has `2²⁶ + 3` limbs or more, where its bit length would overflow the
/// 32-bit lane it is computed in.
///
/// # Safety
///
/// The CPU must support AVX-512 F, DQ, CD, BW, VL and POPCNT, and the
/// slices must pass the checks of [`plan_lanes_on`]: `heads` rows,
/// `state`, `plans.alpha` and `plans.rs` of at least `lanes` entries and
/// `plans.rare` of at least `lanes.div_ceil(64)` words.
// SAFETY: every raw access below relies on the contract above.
// analyze: constant-flow(public = "lanes, threshold_bits")
// analyze: zero-alloc
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512cd,avx512bw,avx512vl,popcnt")]
unsafe fn plan_avx512(
    heads: &LaneHeads,
    state: &[LaneState],
    lanes: usize,
    threshold_bits: u64,
    plans: &mut LanePlans,
) -> (u32, usize) {
    use std::arch::x86_64::*;
    const LONG_Y: i32 = 1 << 26;
    let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
    let odd = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31);
    let (one32, one64) = (_mm512_set1_epi32(1), _mm512_set1_epi64(1));
    let (three, k31) = (_mm512_set1_epi32(3), _mm512_set1_epi32(31));
    let long_y = _mm512_set1_epi32(LONG_Y);
    // Clamped to u32: a larger threshold exceeds every `ybits` below, as
    // the clamped one does.
    let thr = _mm512_set1_epi32(threshold_bits.min(u32::MAX as u64) as u32 as i32);
    let running = _mm_set1_epi8(LaneState::Running as i8);
    let zero = _mm512_setzero_si512();
    // Per 32-bit lane: the largest fused `lX`.
    let mut rows = zero;
    let mut live = 0u32;
    let words64 = lanes.div_ceil(64);
    if words64 > 0 {
        // The bits past the prefix; the blocks below store the rest.
        plans.rare[words64 - 1] = 0;
    }
    // Block b's 16 bits are the b-th u16 of the little-endian bitmask.
    let rare = plans.rare.as_mut_ptr().cast::<u16>();
    for b in 0..lanes.div_ceil(16) {
        let t = 16 * b;
        let k = (u32::MAX >> (32 - (lanes - t).min(16))) as u16;
        let half = [k as u8, (k >> 8) as u8];
        // Lanes t..t+16 of a register row.
        let row32 = |r: &[u32]| {
            // SAFETY: the masked load reads only the lanes `k` admits, all
            // below `lanes ≤ r.len()`.
            unsafe { _mm512_maskz_loadu_epi32(k, r.as_ptr().add(t).cast()) }
        };
        let row64 = |r: &[u64]| {
            let p = r.as_ptr().wrapping_add(t);
            // SAFETY: as `row32`, for each half; `wrapping_add` because a
            // short tail's second half may start past the end.
            unsafe {
                [
                    _mm512_maskz_loadu_epi64(half[0], p.cast()),
                    _mm512_maskz_loadu_epi64(half[1], p.wrapping_add(8).cast()),
                ]
            }
        };
        // The even (low) or odd (high) 32-bit words of 16 head words.
        let words = |v: [__m512i; 2], idx: __m512i| _mm512_permutex2var_epi32(v[0], idx, v[1]);
        // SAFETY: a masked load of lanes t..t+16 below `lanes`; `LaneState`
        // is one byte.
        let st = unsafe { _mm_maskz_loadu_epi8(k, state.as_ptr().add(t).cast()) };
        let live_k = _mm_mask_cmpeq_epi8_mask(k, st, running);
        let (lx, ly) = (row32(&heads.lx), row32(&heads.ly));
        let (xt, yt) = (row64(&heads.xt), row64(&heads.yt));
        let (xl, yl) = (row64(&heads.xl), row64(&heads.yl));
        // Y's bit length from its top limb; 3 ≤ lY < 2²⁶ + 3.
        let ybits = _mm512_sub_epi32(
            _mm512_slli_epi32::<5>(ly),
            _mm512_lzcnt_epi32(words(yt, odd)),
        );
        let long = _mm512_mask_cmplt_epu32_mask(live_k, _mm512_sub_epi32(ly, three), long_y);
        let stays = _mm512_mask_cmpge_epu32_mask(long, ybits, thr);
        // Case 4 at β = 0, as in `plan_body`: 4-A (x12 > y12) and 4-C
        // with lX = lY, 4-B with lX = lY + 1; `le` is x12 ≤ y12.
        let le = [0, 1].map(|h| _mm512_cmple_epu64_mask(xt[h], yt[h]));
        let le16 = le[0] as u16 | (le[1] as u16) << 8;
        let same = _mm512_mask_cmpeq_epi32_mask(stays, lx, ly);
        let next = _mm512_mask_cmpeq_epi32_mask(stays & le16, lx, _mm512_add_epi32(ly, one32));
        let case_c = same & le16;
        let q = [0, 1].map(|h| {
            let y = yt[h];
            // y12 + 1 for 4-A, y1 + 1 for 4-B.
            let top = _mm512_mask_srli_epi64::<32>(y, le[h], y);
            // SAFETY: the kernel's features include F and DQ.
            unsafe { floor_quotient_x8(xt[h], _mm512_add_epi64(top, one64)) }
        });
        let near = q[0].1 as u16 | (q[1].1 as u16) << 8;
        let q = [q[0].0, q[1].0];
        // A quotient of 2³² or more, or one the estimate cannot settle,
        // leaves the lane to the scalar pass; 4-C needs none.
        let settled =
            _mm512_mask_testn_epi32_mask((same | next) & !near, words(q, odd), words(q, odd));
        let q = _mm512_mask_mov_epi32(words(q, even), case_c, one32);
        // Forced odd: `q − 1` when even.
        let alpha = _mm512_sub_epi32(q, _mm512_andnot_si512(q, one32));
        let d0 = _mm512_sub_epi32(words(xl, even), _mm512_mullo_epi32(alpha, words(yl, even)));
        let fused = _mm512_mask_test_epi32_mask(case_c | settled, d0, d0);
        // tz(d0) = 31 − lzcnt(d0 & −d0).
        let lowest = _mm512_and_si512(d0, _mm512_sub_epi32(zero, d0));
        let rs = _mm512_sub_epi32(k31, _mm512_lzcnt_epi32(lowest));
        // SAFETY: masked stores of lanes t..t+16 below `lanes`.
        unsafe {
            let (ap, rp) = (
                plans.alpha.as_mut_ptr().add(t),
                plans.rs.as_mut_ptr().add(t),
            );
            _mm512_mask_storeu_epi32(ap.cast(), k, _mm512_maskz_mov_epi32(fused, alpha));
            _mm512_mask_storeu_epi32(rp.cast(), k, _mm512_maskz_mov_epi32(fused, rs));
        }
        rows = _mm512_mask_max_epu32(rows, fused, rows, lx);
        live += live_k.count_ones();
        // SAFETY: u16 b lies in word b/4 < lanes.div_ceil(64), inside the
        // checked `plans.rare`.
        unsafe { rare.add(b).write(live_k & !fused) };
    }
    (_mm512_reduce_max_epu32(rows), live as usize)
}

/// The scalar pass over the lanes a branch-free pass left rare, in lane
/// order: the same termination tests as the scalar loop's `finished()`,
/// then [`plan_lane`] for the lanes that keep running. Sets
/// `plans.fixups`, `plans.ended` and `plans.rows` (the largest of `rows`
/// and the `lX` of every lane `plan_lane` fuses).
// analyze: constant-flow(public = "lanes, lx, ly, state, threshold_bits, rows, fixups, rare, bits, t")
// analyze: zero-alloc
fn plan_rare(
    heads: &LaneHeads,
    state: &mut [LaneState],
    lanes: usize,
    threshold_bits: u64,
    plans: &mut LanePlans,
    mut rows: u32,
) {
    let (xt, xl) = (&heads.xt, &heads.xl);
    let (yt, yl) = (&heads.yt, &heads.yl);
    plans.fixups.clear();
    plans.ended.clear();
    for c in 0..lanes.div_ceil(64) {
        // The rare set is the iteration's divergence structure, as public
        // as the fixups it produces.
        let mut bits = plans.rare[c];
        while bits != 0 {
            let t = 64 * c + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let (lxl, lyl) = (heads.lx[t] as usize, heads.ly[t] as usize);
            // Same check order as the scalar loop's `finished()`: Y == 0
            // first, then the early-termination bit threshold.
            if lyl == 0 {
                state[t] = LaneState::Done;
                // analyze: allow(za-alloc, reason = "live/fixups are cleared each iteration and keep their capacity: a push after warmup reuses the allocation")
                plans.ended.push(t);
                continue;
            }
            let ybits = (LIMB_BITS as usize * lyl) as u64 - yt[t].leading_zeros() as u64;
            // analyze: allow(cf-branch, reason = "early termination compares the live bit length of Y; terminated lanes mask off — the paper's documented data-dependent exit")
            if ybits < threshold_bits {
                state[t] = LaneState::Early;
                // analyze: allow(za-alloc, reason = "live/fixups are cleared each iteration and keep their capacity: a push after warmup reuses the allocation")
                plans.ended.push(t);
                continue;
            }
            // Up to two limbs the whole value is the low register.
            let whole = |l: usize, top: u64, low: u64| if l <= 2 { low } else { top };
            let (x_top, x_lo) = (whole(lxl, xt[t], xl[t]), xl[t]);
            let (y_top, y_lo) = (whole(lyl, yt[t], yl[t]), yl[t]);
            let (plan, _, _, _) = plan_lane(x_top, x_lo, lxl, y_top, y_lo, lyl);
            // analyze: allow(cf-branch, reason = "the fused/divergent dispatch is the documented warp-divergence point: diverged lanes queue for serialized scalar fixups")
            match plan {
                LanePlan::Fused { alpha: a, rs: r } => {
                    plans.alpha[t] = a;
                    plans.rs[t] = r;
                    rows = rows.max(lxl as u32);
                }
                // analyze: allow(za-alloc, reason = "live/fixups are cleared each iteration and keep their capacity: a push after warmup reuses the allocation")
                other => plans.fixups.push((t, other)),
            }
        }
    }
    plans.rows = rows as usize;
}

/// The portable vector-pass body's scratch rows: the carry chain, and the
/// previous and the current difference row. Sized once per warp
/// (`new(w)`) and reused across iterations; the AVX-512 path keeps all of
/// it in registers and never touches it.
#[derive(Debug, Clone)]
pub struct PassScratch {
    carry: Vec<u64>,
    prev: Vec<Limb>,
    dcur: Vec<Limb>,
}

impl PassScratch {
    /// Scratch for `w` lanes.
    pub fn new(w: usize) -> Self {
        PassScratch {
            carry: vec![0; w],
            prev: vec![0; w],
            dcur: vec![0; w],
        }
    }
}

/// One lockstep fused update `X ← rshift(X − α·Y)` over the **dense column
/// prefix** `0..lanes` of a warp's column-major operand planes.
///
/// Layout: planes `u` and `v` each hold `rows_cap × w` limbs with limb `k`
/// of lane `t` at index `k·w + t` — limb `k` of all `w` lanes is
/// contiguous, the paper's Fig. 3 column-wise arrangement. Which plane
/// holds a lane's `X` is selected by `heads.sel[t]`: 0 when `X` lives in
/// plane `u` ("buffer A"), all-ones when in plane `v` — the branchless
/// analogue of [`GcdPair`](crate::GcdPair)'s pointer swap. Only columns
/// `0..lanes` are touched (the row stride stays `w`): after compaction the
/// pass skips the dead columns past the resident prefix.
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
/// The row loop computes only the difference and the shift. Once per lane
/// block, after its rows, a **register tail** brings every fused lane's
/// registers in `heads` up to date: the new `lX`, scanned down from the
/// old one (the new `X` is never longer); the new head words; and the
/// `X < Y` verdict, decided from the lengths, then the top two words
/// against the `Y` register, and only when both agree from the rows below
/// them. Where `X < Y` the lane's selector flips and its `X` and `Y`
/// registers swap. A masked lane (`alpha = 0`) keeps every register.
///
/// Requirements per active lane (the planner guarantees them): `α` odd,
/// `α·Y ≤ X`, `1 ≤ rs < 32`, `rs` the trailing-zero count of `X − α·Y`,
/// `lX ≤ rows`, and registers that describe the planes.
#[allow(clippy::too_many_arguments)]
pub fn fused_submul_rshift_columns_prefix(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    lanes: usize,
    rows: usize,
    alpha: &[Limb],
    rs: &[u32],
    heads: &mut LaneHeads,
    scratch: &mut PassScratch,
) {
    let ran = columns_on(
        KernelIsa::detect(),
        u,
        v,
        w,
        lanes,
        rows,
        alpha,
        rs,
        heads,
        scratch,
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
    alpha: &[Limb],
    rs: &[u32],
    heads: &mut LaneHeads,
    scratch: &mut PassScratch,
) -> bool {
    assert!(
        lanes <= w,
        "column prefix wider than the plane: {lanes} > {w}"
    );
    assert!(rows == 0 || (u.len() >= rows * w && v.len() >= rows * w));
    assert!(
        rows * w <= i32::MAX as usize,
        "planes of {rows}x{w} limbs overflow a 32-bit row index"
    );
    assert!(alpha.len() >= lanes && rs.len() >= lanes);
    assert!(heads.lanes() >= lanes);
    if !isa.available() {
        return false;
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available()` confirmed AVX-512F above, and the asserts
        // above are the plane, index and per-lane slice bounds that the
        // kernel's pointer accesses rely on.
        KernelIsa::Avx512 => unsafe { columns_avx512(u, v, w, lanes, rows, alpha, rs, heads) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available()` confirmed AVX2 above.
        KernelIsa::Avx2 => unsafe { columns_avx2(u, v, w, lanes, rows, alpha, rs, heads, scratch) },
        _ => columns_kernel(u, v, w, lanes, rows, alpha, rs, heads, scratch),
    }
    true
}

/// Copy lane column `src` onto lane column `dst` across **both** operand
/// planes (`rows` limb rows, row stride `w`) — the plane half of a warp
/// compaction: together with the per-lane registers (the head registers,
/// state) it relocates a surviving lane into the dense prefix. Rows at and
/// above `rows` must already be zero in both columns: the caller passes
/// the larger of the two lanes' operand lengths.
/// The copy is a fixed strided sweep: which lanes move is decided by the
/// public termination structure, never by operand values.
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

/// Load `limbs` into lane column `t` of one operand plane (row stride
/// `w`) and zero the column's rows from there up to `rows`: a refill
/// claims a dead column and restores, in the same sweep, the high-zero
/// padding invariant the vector pass relies on.
pub fn load_lane_column(plane: &mut [Limb], w: usize, rows: usize, t: usize, limbs: &[Limb]) {
    assert!(t < w, "lane out of range: {t} vs {w}");
    assert!(
        limbs.len() <= rows,
        "{} limbs overflow {rows} rows",
        limbs.len()
    );
    for (k, &limb) in limbs.iter().enumerate() {
        plane[k * w + t] = limb;
    }
    for k in limbs.len()..rows {
        plane[k * w + t] = 0;
    }
}

/// Whether lane `t`'s `X` (plane selector `m`) is below its `Y` when both
/// are `l` limbs long and their top two words agree: a bottom-up compare
/// of the rows below those two, where the highest row that differs
/// decides and equal operands are not below. `read(i)` returns the limbs
/// of planes `u` and `v` at index `i`. This is the register tail's rare
/// exact-compare fallback, shared by every path.
#[inline(never)]
fn tie_less(read: impl Fn(usize) -> (Limb, Limb), w: usize, m: Limb, t: usize, l: usize) -> bool {
    let mut less = false;
    for k in 0..l.saturating_sub(2) {
        let (uw, vw) = read(k * w + t);
        let (x, y) = ((uw & !m) | (vw & m), (uw & m) | (vw & !m));
        less = (x < y) | (less & (x == y));
    }
    less
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
    alpha: &[Limb],
    rs: &[u32],
    heads: &mut LaneHeads,
    scratch: &mut PassScratch,
) {
    columns_kernel(u, v, w, lanes, rows, alpha, rs, heads, scratch);
}

/// The AVX-512F vector pass: lane-block outer, limb row inner.
///
/// A lane block is one zmm of 16 lanes' limbs. The multiply-subtract runs
/// on `u64` halves — the even lanes in place, the odd lanes shifted down —
/// and the block keeps its `α`, `rs`, `sel` mask, carries, previous
/// difference row and its output rows 0 and 1 in registers across all
/// `rows`, so unlike the portable body it needs no scratch rows.
/// [`lane_blocks`] runs two blocks interleaved (four independent carry
/// chains), then one block for the rest of the prefix; a tail mask on
/// every load and store covers a `lanes` that is not a multiple of 16.
/// Each row reads `X`/`Y` through a `sel` blend and writes the shifted
/// result back with two masked stores: plane `u` where `sel` is 0, plane
/// `v` where it is all-ones. `Y` words and columns `≥ lanes` are never
/// stored to. After the rows each block runs its register tail
/// ([`block_tail`]).
///
/// `sel` words must be 0 or all-ones (the engine only ever writes those):
/// the blend mask is "word is nonzero", where the portable body blends bit
/// by bit.
///
/// # Safety
///
/// The CPU must support AVX-512F, and the slices must pass the checks of
/// [`columns_on`]: `lanes ≤ w`, planes of at least `rows·w` limbs with
/// `rows·w` a valid `i32`, per-lane slices and `heads` rows of at least
/// `lanes`.
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
    alpha: &[Limb],
    rs: &[u32],
    heads: &mut LaneHeads,
) {
    const BLOCK: usize = 16;
    const INTERLEAVE: usize = 2;
    let (up, vp) = (u.as_mut_ptr(), v.as_mut_ptr());
    let mut t = 0;
    while t + INTERLEAVE * BLOCK <= lanes {
        // SAFETY: columns t..t+32 lie inside the checked prefix.
        unsafe { lane_blocks::<INTERLEAVE>(up, vp, w, t, rows, alpha, rs, heads, 0xffff) };
        t += INTERLEAVE * BLOCK;
    }
    while t < lanes {
        let n = (lanes - t).min(BLOCK);
        let tail = (0xffff_u32 >> (BLOCK - n)) as u16;
        // SAFETY: the tail mask confines every access to columns t..t+n,
        // inside the checked prefix.
        unsafe { lane_blocks::<1>(up, vp, w, t, rows, alpha, rs, heads, tail) };
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
    alpha: &[Limb],
    rs: &[u32],
    heads: &mut LaneHeads,
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
    let zero = _mm512_setzero_si512();
    // Per block, `u64` halves (e = even lanes, o = odd lanes): α, carry
    // state g; per block, 16 limb lanes: rs, 32 − rs, previous d row, the
    // selector words, output rows 0 and 1.
    let [mut ae, mut ao, mut ge, mut go, mut r, mut rc, mut prev] = [[g0; N]; 7];
    let [mut selv, mut low0, mut low1] = [[zero; N]; 3];
    // Per block: the column mask, the store masks of plane `u` (`X` there:
    // sel = 0) and plane `v` (sel = all-ones), and the fused lanes.
    let (mut kcol, mut ku, mut kv, mut fused) = ([0u16; N], [0u16; N], [0u16; N], [0u16; N]);
    for b in 0..N {
        let col = t0 + 16 * b;
        let k = if b + 1 == N { tail } else { 0xffff };
        // SAFETY: masked loads read only columns the mask admits, all
        // below `lanes ≤` each per-lane slice's length.
        let (sv, av, rv) = unsafe {
            (
                _mm512_maskz_loadu_epi32(k, heads.sel.as_ptr().add(col).cast()),
                _mm512_maskz_loadu_epi32(k, alpha.as_ptr().add(col).cast()),
                _mm512_maskz_loadu_epi32(k, rs.as_ptr().add(col).cast()),
            )
        };
        kcol[b] = k;
        selv[b] = sv;
        kv[b] = _mm512_mask_test_epi32_mask(k, sv, sv);
        ku[b] = k & !kv[b];
        fused[b] = _mm512_mask_test_epi32_mask(k, av, av);
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
                let o = _mm512_or_si512(
                    _mm512_srlv_epi32(prev[b], r[b]),
                    _mm512_sllv_epi32(d, rc[b]),
                );
                // SAFETY: row k−1 of the same admitted columns; masked
                // stores write only the words `ku`/`kv` admit.
                unsafe {
                    _mm512_mask_storeu_epi32(up.add(at - w).cast(), ku[b], o);
                    _mm512_mask_storeu_epi32(vp.add(at - w).cast(), kv[b], o);
                }
                match k {
                    1 => low0[b] = o,
                    2 => low1[b] = o,
                    _ => {}
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
            let o = _mm512_srlv_epi32(prev[b], r[b]);
            // SAFETY: row rows−1 of the admitted columns, masked stores.
            unsafe {
                _mm512_mask_storeu_epi32(up.add(at).cast(), ku[b], o);
                _mm512_mask_storeu_epi32(vp.add(at).cast(), kv[b], o);
            }
            match rows {
                1 => low0[b] = o,
                2 => low1[b] = o,
                _ => {}
            }
        }
    }
    let blocks = BlockRegs {
        col: core::array::from_fn(|b| t0 + 16 * b),
        kv,
        fused,
        sel: selv,
        low0,
        low1,
    };
    // SAFETY: the same planes and admitted columns as the rows above.
    unsafe { block_tail(up, vp, w, rows, &blocks, heads) };
}

/// What a block's register tail ([`block_tail`]) takes over from its rows:
/// per block, the first column, the `v`-plane and fused-lane masks, the
/// selector words and the output rows 0 and 1.
#[cfg(target_arch = "x86_64")]
struct BlockRegs<const N: usize> {
    col: [usize; N],
    kv: [u16; N],
    fused: [u16; N],
    sel: [std::arch::x86_64::__m512i; N],
    low0: [std::arch::x86_64::__m512i; N],
    low1: [std::arch::x86_64::__m512i; N],
}

/// The register tail of `N` AVX-512 lane blocks (see
/// [`fused_submul_rshift_columns_prefix`]). Per fused lane: scan the new
/// `lX` down from `min(lX, rows)` with masked gathers, one row per round
/// and only for the lanes whose row came back zero; gather the row below
/// the top; decide the verdict from the lengths and the 64-bit top words
/// against the `Y` register, with [`tie_less`] for the lanes where both
/// agree; then write the registers and flip `sel` with masked stores.
///
/// # Safety
///
/// The CPU must support AVX-512F; `up`/`vp`, `w`, `rows` and every block's
/// fused columns as in [`lane_blocks`].
// SAFETY: every raw access below relies on the contract above.
// analyze: constant-flow(public = "w, rows, col, kv, fused, lx, ly, sel")
// analyze: zero-alloc
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn block_tail<const N: usize>(
    up: *const Limb,
    vp: *const Limb,
    w: usize,
    rows: usize,
    blk: &BlockRegs<N>,
    heads: &mut LaneHeads,
) {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_si512();
    let one = _mm512_set1_epi32(1);
    let two = _mm512_set1_epi32(2);
    let wv = _mm512_set1_epi32(w as i32);
    let lane_ids = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    // Lane `X` words at the plane indices `idx`, for the lanes `m` admits
    // (0 elsewhere): plane `u` where `sel` is 0, plane `v` where it is not.
    let gather = |kv: u16, m: u16, idx: __m512i| {
        // SAFETY: callers admit only fused lanes at rows below `rows`, so
        // every index lies inside both `rows·w` planes.
        unsafe {
            let a = _mm512_mask_i32gather_epi32::<4>(zero, m & !kv, idx, up.cast());
            _mm512_mask_i32gather_epi32::<4>(a, m & kv, idx, vp.cast())
        }
    };
    let (mut l, mut idx, mut top1) = ([zero; N], [zero; N], [zero; N]);
    let mut scan = [0u16; N];
    for b in 0..N {
        // SAFETY: masked load of the block's fused columns.
        let lx = unsafe {
            _mm512_maskz_loadu_epi32(blk.fused[b], heads.lx.as_ptr().add(blk.col[b]).cast())
        };
        l[b] = _mm512_min_epu32(lx, _mm512_set1_epi32(rows as i32));
        scan[b] = _mm512_mask_test_epi32_mask(blk.fused[b], l[b], l[b]);
        let cols = _mm512_add_epi32(lane_ids, _mm512_set1_epi32(blk.col[b] as i32));
        idx[b] = _mm512_add_epi32(_mm512_mullo_epi32(_mm512_sub_epi32(l[b], one), wv), cols);
    }
    // Scan down: a lane whose row `l − 1` is zero drops to `l − 1` and
    // reads the row below; the rest keep that row as their top word.
    loop {
        let mut any = 0u16;
        for b in 0..N {
            if scan[b] == 0 {
                continue;
            }
            let g = gather(blk.kv[b], scan[b], idx[b]);
            top1[b] = _mm512_mask_mov_epi32(top1[b], scan[b], g);
            let z = _mm512_mask_cmpeq_epi32_mask(scan[b], g, zero);
            l[b] = _mm512_mask_sub_epi32(l[b], z, l[b], one);
            idx[b] = _mm512_mask_sub_epi32(idx[b], z, idx[b], wv);
            scan[b] = _mm512_mask_test_epi32_mask(z, l[b], l[b]);
            any |= scan[b];
        }
        if any == 0 {
            break;
        }
    }
    for b in 0..N {
        let (col, fused) = (blk.col[b], blk.fused[b]);
        let has2 = _mm512_mask_cmpge_epu32_mask(fused, l[b], two);
        let has1 = _mm512_mask_test_epi32_mask(fused, l[b], l[b]);
        let top2 = gather(blk.kv[b], has2, _mm512_sub_epi32(idx[b], wv));
        // Rows at or above the new length read 0, as in `head_words`.
        let low0 = _mm512_maskz_mov_epi32(has1, blk.low0[b]);
        let low1 = _mm512_maskz_mov_epi32(has2, blk.low1[b]);
        // 64-bit head words of lanes 0..8 and 8..16: `hi·2³² + lo`.
        let wide = |hi: __m512i, lo: __m512i| {
            let pair = |h: __m256i, l: __m256i| {
                _mm512_or_si512(
                    _mm512_slli_epi64::<32>(_mm512_cvtepu32_epi64(h)),
                    _mm512_cvtepu32_epi64(l),
                )
            };
            [
                pair(_mm512_castsi512_si256(hi), _mm512_castsi512_si256(lo)),
                pair(
                    _mm512_extracti64x4_epi64::<1>(hi),
                    _mm512_extracti64x4_epi64::<1>(lo),
                ),
            ]
        };
        let top = wide(top1[b], top2);
        let low = wide(low1, low0);
        let half = |m: u16, h: usize| (m >> (8 * h)) as u8;
        // SAFETY: masked loads of the block's fused columns; the 64-bit
        // halves use `wrapping_add` because a short tail's second half may
        // start past the end.
        let (ly, yt) = unsafe {
            (
                _mm512_maskz_loadu_epi32(fused, heads.ly.as_ptr().add(col).cast()),
                [0, 1].map(|h| {
                    _mm512_maskz_loadu_epi64(
                        half(fused, h),
                        heads.yt.as_ptr().wrapping_add(col + 8 * h).cast(),
                    )
                }),
            )
        };
        let shorter = _mm512_mask_cmplt_epu32_mask(fused, l[b], ly);
        let same = _mm512_mask_cmpeq_epi32_mask(fused, l[b], ly);
        let lt = _mm512_cmplt_epu64_mask(top[0], yt[0]) as u16
            | (_mm512_cmplt_epu64_mask(top[1], yt[1]) as u16) << 8;
        let eq = _mm512_cmpeq_epi64_mask(top[0], yt[0]) as u16
            | (_mm512_cmpeq_epi64_mask(top[1], yt[1]) as u16) << 8;
        let mut less = shorter | (same & lt);
        let mut tie = same & eq;
        // analyze: allow(cf-branch, reason = "rare exact compare: only lanes whose new X agrees with Y in length and top 64 bits read the rows below them (a documented data-dependent site)")
        while tie != 0 {
            let bit = tie.trailing_zeros() as usize;
            tie &= tie - 1;
            // SAFETY: the lane's rows below its new length `lY ≤ rows`.
            let read = |at: usize| unsafe { (*up.add(at), *vp.add(at)) };
            let lane = col + bit;
            // analyze: allow(cf-index, reason = "same rare exact compare: the tied lane's selector and length registers")
            let (m, ly) = (heads.sel[lane], heads.ly[lane] as usize);
            less |= (tie_less(read, w, m, lane, ly) as u16) << bit;
        }
        // Write-back: a swapped lane's X registers take the old Y's and
        // its Y registers the new X's.
        // SAFETY: masked loads and stores of the block's fused columns;
        // `wrapping_add` for the 64-bit halves, as for `yt` above.
        unsafe {
            let yl = [0, 1].map(|h| {
                _mm512_maskz_loadu_epi64(
                    half(less, h),
                    heads.yl.as_ptr().wrapping_add(col + 8 * h).cast(),
                )
            });
            let lx_new = _mm512_mask_blend_epi32(less, l[b], ly);
            _mm512_mask_storeu_epi32(heads.lx.as_mut_ptr().add(col).cast(), fused, lx_new);
            _mm512_mask_storeu_epi32(heads.ly.as_mut_ptr().add(col).cast(), less, l[b]);
            for h in 0..2 {
                let (f, s) = (half(fused, h), half(less, h));
                let (xt, xl) = (
                    heads.xt.as_mut_ptr().wrapping_add(col + 8 * h),
                    heads.xl.as_mut_ptr().wrapping_add(col + 8 * h),
                );
                let (ytp, ylp) = (
                    heads.yt.as_mut_ptr().wrapping_add(col + 8 * h),
                    heads.yl.as_mut_ptr().wrapping_add(col + 8 * h),
                );
                _mm512_mask_storeu_epi64(xt.cast(), f, _mm512_mask_blend_epi64(s, top[h], yt[h]));
                _mm512_mask_storeu_epi64(xl.cast(), f, _mm512_mask_blend_epi64(s, low[h], yl[h]));
                _mm512_mask_storeu_epi64(ytp.cast(), s, top[h]);
                _mm512_mask_storeu_epi64(ylp.cast(), s, low[h]);
            }
            let flipped = _mm512_xor_si512(blk.sel[b], _mm512_set1_epi32(-1));
            _mm512_mask_storeu_epi32(heads.sel.as_mut_ptr().add(col).cast(), less, flipped);
        }
    }
}

/// The portable kernel body; `inline(always)` so the AVX2 wrapper's
/// target-feature scope covers the loops it is asked to vectorize.
///
/// `w` is the plane row stride; `lanes ≤ w` the dense column prefix to
/// process (the warp's resident width after compaction). The whole prefix
/// is one lane block: the rows run across all lanes, then
/// [`refresh_heads`] is the register tail.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn columns_kernel(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    lanes: usize,
    rows: usize,
    alpha: &[Limb],
    rs: &[u32],
    heads: &mut LaneHeads,
    scratch: &mut PassScratch,
) {
    let sel = &heads.sel[..lanes];
    let alpha = &alpha[..lanes];
    let rs = &rs[..lanes];
    let PassScratch { carry, prev, dcur } = scratch;
    let carry = &mut carry[..lanes];
    let mut prev = &mut prev[..lanes];
    let mut dcur = &mut dcur[..lanes];
    carry.fill(0);
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
            emit_row(u, v, w, k - 1, sel, rs, prev, dcur);
        }
        core::mem::swap(&mut prev, &mut dcur);
    }
    // Top row: no difference limb above it, so d = 0 and out = prev >> rs —
    // the scalar loop's final `x[xl−1] = prev >> rs` write.
    if rows > 0 {
        dcur.fill(0);
        emit_row(u, v, w, rows - 1, sel, rs, prev, dcur);
    }
    refresh_heads(u, v, w, lanes, rows, alpha, heads);
}

/// Emit one shifted output row into the selected `X` plane of each lane,
/// leaving the `Y` plane untouched, with branchless blend stores.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn emit_row(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    row: usize,
    sel: &[Limb],
    rs: &[u32],
    prev: &[Limb],
    d: &[Limb],
) {
    let lanes = sel.len();
    let base = row * w;
    let urow = &mut u[base..base + lanes];
    let vrow = &mut v[base..base + lanes];
    for t in 0..lanes {
        let m = sel[t];
        let out = (((prev[t] as u64) | ((d[t] as u64) << LIMB_BITS)) >> rs[t]) as Limb;
        urow[t] = (out & !m) | (urow[t] & m);
        vrow[t] = (out & m) | (vrow[t] & !m);
    }
}

/// The portable register tail (see [`fused_submul_rshift_columns_prefix`]):
/// per fused lane, the new length scanned down from `min(lX, rows)`, its
/// head words, the verdict and a branch-free write-back.
// analyze: constant-flow(public = "w, lanes, rows, sel, lx, ly")
// analyze: zero-alloc
#[inline(always)]
fn refresh_heads(
    u: &[Limb],
    v: &[Limb],
    w: usize,
    lanes: usize,
    rows: usize,
    alpha: &[Limb],
    heads: &mut LaneHeads,
) {
    let wide = |b: bool| (b as u64).wrapping_neg();
    for t in 0..lanes {
        // analyze: allow(cf-branch, reason = "the fused/divergent dispatch is the documented warp-divergence point: diverged lanes queue for serialized scalar fixups")
        if alpha[t] == 0 {
            continue;
        }
        let m = heads.sel[t];
        let x = |row: usize| (u[row * w + t] & !m) | (v[row * w + t] & m);
        let mut l = (heads.lx[t] as usize).min(rows);
        // analyze: allow(cf-branch, reason = "length scan: the new lX is a length, public in the semi-oblivious model (the next iteration's rows_per_iter discloses it); the scan reads only the rows from the old lX down to it")
        // analyze: allow(cf-short-circuit, reason = "same length scan: stops at the lane's new lX, a public length")
        while l > 0 && x(l - 1) == 0 {
            l -= 1;
        }
        let (top, low) = head_words(l, x);
        let (ly, yt, yl) = (heads.ly[t], heads.yt[t], heads.yl[t]);
        let l = l as u32;
        let tie = (l == ly) & (top == yt);
        let read = |at: usize| (u[at], v[at]);
        // analyze: allow(cf-short-circuit, reason = "rare exact compare: only a lane whose new X agrees with Y in length and top 64 bits reads the rows below them (a documented data-dependent site)")
        let exact = tie && tie_less(read, w, m, t, l as usize);
        let less = (l < ly) | ((l == ly) & (top < yt)) | exact;
        // The pointer swap: a swapped lane's X registers take the old Y's.
        let (s, s64) = ((less as Limb).wrapping_neg(), wide(less));
        heads.sel[t] = m ^ s;
        heads.lx[t] = (ly & s) | (l & !s);
        heads.ly[t] = (l & s) | (ly & !s);
        heads.xt[t] = (yt & s64) | (top & !s64);
        heads.yt[t] = (top & s64) | (yt & !s64);
        heads.xl[t] = (yl & s64) | (low & !s64);
        heads.yl[t] = (low & s64) | (yl & !s64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulkgcd_bigint::{ops, Nat};
    use proptest::prelude::*;

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

    /// Lane `t`'s column of `plane` (row stride `w`).
    fn column(plane: &[Limb], w: usize, t: usize) -> Vec<Limb> {
        (0..plane.len() / w).map(|k| plane[k * w + t]).collect()
    }

    /// Lane `t`'s registers read afresh from the planes under selector
    /// `sel`, as the engine's loader sets them.
    fn gather_heads(heads: &mut LaneHeads, u: &[Limb], v: &[Limb], w: usize, t: usize, sel: Limb) {
        let (xp, yp) = if sel == 0 { (u, v) } else { (v, u) };
        let (x, y) = (column(xp, w, t), column(yp, w, t));
        let (lx, ly) = (ops::normalized_len(&x), ops::normalized_len(&y));
        heads.sel[t] = sel;
        heads.set_x(t, lx, head_words(lx, |k| x[k]));
        heads.set_y(t, ly, head_words(ly, |k| y[k]));
    }

    /// Every register row of lanes `0..lanes`.
    fn registers(h: &LaneHeads, lanes: usize) -> Vec<(Limb, u32, u32, u64, u64, u64, u64)> {
        (0..lanes)
            .map(|t| {
                (
                    h.sel[t], h.lx[t], h.ly[t], h.xt[t], h.xl[t], h.yt[t], h.yl[t],
                )
            })
            .collect()
    }

    /// Every ISA path against the portable oracle, bit for bit, on random
    /// planes and random registers: ragged prefixes of every width, mixed
    /// `sel`, identity lanes beside α = u32::MAX / rs = 31, lengths past
    /// `rows`, and untouched bytes past the prefix and above `rows`. The
    /// planes, every register row and `sel` must agree.
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
                        let mut alpha = vec![0 as Limb; w];
                        let mut rs = vec![0u32; w];
                        // Registers exactly `lanes` long, the dispatcher's
                        // minimum; the Y lengths sometimes equal the X
                        // lengths so that the top-word compare decides.
                        let mut heads0 = LaneHeads::new(lanes);
                        for t in 0..w {
                            let r = next();
                            (alpha[t], rs[t]) = match (r >> 1) % 4 {
                                0 => (0, 0),
                                1 => (Limb::MAX, 31),
                                _ => ((r >> 8) as Limb, (r >> 40) as u32 % 32),
                            };
                            if t < lanes {
                                let h = &mut heads0;
                                h.sel[t] = if r & 1 == 0 { 0 } else { Limb::MAX };
                                h.lx[t] = (next() % (cap as u64 + 1)) as u32;
                                h.ly[t] = match next() % 3 {
                                    0 => h.lx[t],
                                    _ => (next() % (cap as u64 + 1)) as u32,
                                };
                                (h.xt[t], h.xl[t], h.yt[t], h.yl[t]) =
                                    (next(), next(), next(), next());
                            }
                        }
                        let run = |isa: KernelIsa| {
                            let (mut u, mut v) = (u0.clone(), v0.clone());
                            let mut heads = heads0.clone();
                            let mut scratch = PassScratch::new(lanes);
                            let ran = columns_on(
                                isa,
                                &mut u,
                                &mut v,
                                w,
                                lanes,
                                rows,
                                &alpha[..lanes],
                                &rs[..lanes],
                                &mut heads,
                                &mut scratch,
                            );
                            assert!(ran);
                            (u, v, heads)
                        };
                        let (u, v, heads) = run(isa);
                        let (pu, pv, pheads) = run(KernelIsa::Portable);
                        let at = format!("{} w={w} lanes={lanes} rows={rows}", isa.name());
                        assert!(u == pu && v == pv, "{at}: differs from portable");
                        assert_eq!(
                            registers(&heads, lanes),
                            registers(&pheads, lanes),
                            "{at}: registers"
                        );
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

    /// One fused lane for the register-tail tests: `Y`, and `α`, `rs` and
    /// the new `X` the pass must produce, from `shape`; the lane's `X` is
    /// `α·Y + new·2^rs`. Shapes: an ordinary step, whose new `X` is one
    /// limb shorter than `Y`, as long or one limb longer; a new `X`
    /// several limbs shorter than the old (multi-limb cancellation);
    /// `X = α·Y` exactly (the new `X` is 0); a new `X` as long as `Y` with
    /// the same top two words (the exact-compare fallback), or equal to
    /// `Y`; short operands, far below the pass's `rows`; and a new `X` as
    /// long as `Y` whose top two words differ from `Y`'s. Every limb is
    /// odd, so no length shrinks and `rs` is exactly the shift of an odd
    /// new `X`.
    fn tail_lane(shape: u64, mut next: impl FnMut() -> u64) -> (Vec<Limb>, Limb, u32, Vec<Limb>) {
        fn limbs(n: usize, next: &mut impl FnMut() -> u64) -> Vec<Limb> {
            (0..n).map(|_| next() as Limb | 1).collect()
        }
        let ly = match shape {
            5 => 1 + (next() % 3) as usize,
            _ => 5 + (next() % 60) as usize,
        };
        let y = limbs(ly, &mut next);
        // Y's top two words over fresh lower limbs.
        let same_top = |next: &mut _| {
            let mut r = y.clone();
            r[..ly - 2].copy_from_slice(&limbs(ly - 2, next));
            r
        };
        let new: Vec<Limb> = match shape {
            // Multi-limb cancellation: a one- to three-limb remainder.
            1 => limbs(1 + (next() % 3) as usize, &mut next),
            2 => Vec::new(),
            3 => same_top(&mut next),
            4 => y.clone(),
            // Flip a bit above bit 0 in one of the top two words.
            6 => {
                let mut r = same_top(&mut next);
                r[ly - 1 - (next() % 2) as usize] ^= (next() as Limb | 1) << 1;
                r
            }
            _ => limbs(ly + 1 - (next() % 3) as usize, &mut next),
        };
        let alpha = match next() % 2 {
            0 => (next() as Limb % 16) | 1,
            _ => next() as Limb | 1,
        };
        (y, alpha, (next() % 31) as u32 + 1, new)
    }

    proptest! {
        /// The register tail on hostile lanes: every ISA path against the
        /// portable oracle, and every path against the scalar fused pass
        /// (the planes it wrote: the new `X` in the old `X` plane, `Y`
        /// untouched) and against a fresh [`head_words`] gather of those
        /// planes under the selector the scalar `X < Y` verdict gives. Fused
        /// lanes of every [`tail_lane`] shape sit beside masked lanes
        /// (`α = 0`, garbage registers and planes, which must stay as
        /// they were) in a prefix that is rarely a multiple of 16.
        #[test]
        fn register_tail_matches_oracle_and_fresh_gather(
            seed in any::<u64>(),
            lanes in 1usize..70,
            pad in 0usize..3,
        ) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let (w, cap) = (lanes + pad, 68usize);
            let mut u0 = vec![0 as Limb; cap * w];
            let mut v0 = vec![0 as Limb; cap * w];
            let mut heads0 = LaneHeads::new(w);
            let (mut alpha, mut rs) = (vec![0 as Limb; w], vec![0u32; w]);
            let mut expect = Vec::new();
            let mut rows = 0;
            for t in 0..w {
                let sel = (next() & 1).wrapping_neg() as Limb;
                if next() % 5 == 0 {
                    for k in 0..cap {
                        (u0[k * w + t], v0[k * w + t]) = (next() as Limb, next() as Limb);
                    }
                    let h = &mut heads0;
                    h.sel[t] = sel;
                    (h.lx[t], h.ly[t]) = (next() as u32, next() as u32);
                    (h.xt[t], h.xl[t], h.yt[t], h.yl[t]) = (next(), next(), next(), next());
                    expect.push(None);
                    continue;
                }
                let (y, a, r, new) = tail_lane(next() % 7, &mut next);
                let x = Nat::from_limbs(&y)
                    .mul(&Nat::from_u64(a as u64))
                    .add(&Nat::from_limbs(&new).shl(r as u64));
                let x = x.as_limbs();
                let (xp, yp) = if sel == 0 { (&mut u0, &mut v0) } else { (&mut v0, &mut u0) };
                for (k, &l) in x.iter().enumerate() {
                    xp[k * w + t] = l;
                }
                for (k, &l) in y.iter().enumerate() {
                    yp[k * w + t] = l;
                }
                gather_heads(&mut heads0, &u0, &v0, w, t, sel);
                (alpha[t], rs[t]) = (a, r);
                rows = rows.max(x.len());
                // The scalar fused pass gives the new X; below Y it swaps.
                let mut xs = x.to_vec();
                let (l, _) = ops::fused_submul_rshift(&mut xs, &y, a);
                prop_assert_eq!(&xs[..l], &new[..ops::normalized_len(&new)]);
                let less = ops::cmp(&xs[..l], &y) == core::cmp::Ordering::Less;
                let padded = |v: &[Limb]| {
                    let mut p = v.to_vec();
                    p.resize(cap, 0);
                    p
                };
                let new_sel = sel ^ (less as Limb).wrapping_neg();
                expect.push(Some((sel, new_sel, padded(&xs[..l]), padded(&y))));
            }
            let mut portable = None;
            for isa in KernelIsa::ALL.into_iter().rev() {
                let (mut u, mut v, mut heads) = (u0.clone(), v0.clone(), heads0.clone());
                let mut scratch = PassScratch::new(w);
                if !columns_on(isa, &mut u, &mut v, w, lanes, rows, &alpha, &rs, &mut heads, &mut scratch) {
                    continue;
                }
                let at = isa.name();
                for (t, e) in expect.iter().enumerate().take(lanes) {
                    match *e {
                        None => {
                            prop_assert_eq!(column(&u, w, t), column(&u0, w, t), "{} lane {}", at, t);
                            prop_assert_eq!(column(&v, w, t), column(&v0, w, t), "{} lane {}", at, t);
                            prop_assert_eq!(registers(&heads, w)[t], registers(&heads0, w)[t], "{} lane {}", at, t);
                        }
                        Some((sel, new_sel, ref x, ref y)) => {
                            let (xp, yp) = if sel == 0 { (&u, &v) } else { (&v, &u) };
                            prop_assert_eq!(&column(xp, w, t), x, "{} lane {}: X", at, t);
                            prop_assert_eq!(&column(yp, w, t), y, "{} lane {}: Y", at, t);
                            let mut fresh = heads.clone();
                            gather_heads(&mut fresh, &u, &v, w, t, new_sel);
                            prop_assert_eq!(registers(&heads, w)[t], registers(&fresh, w)[t], "{} lane {}", at, t);
                        }
                    }
                }
                match &portable {
                    None => portable = Some((u, v, registers(&heads, w))),
                    Some((pu, pv, ph)) => {
                        prop_assert!(&u == pu && &v == pv, "{}: planes differ from portable", at);
                        prop_assert_eq!(&registers(&heads, w), ph, "{}: registers differ from portable", at);
                    }
                }
            }
        }
    }

    /// `div_below_2_32` against the hardware division wherever the
    /// quotient is below 2³², 0 included, and the AVX-512 kernel's
    /// `floor_quotient_x8` against it on the same pairs: exact or flagged
    /// below 2³³, at least 2³² or flagged from there up. The pairs are
    /// exact multiples (where an f64 estimate lands on or just past the
    /// integer), one below and one short of the next multiple, with
    /// divisors across the whole range. On uniformly random pairs the
    /// kernel must flag almost nothing: a flagged lane costs a scalar
    /// plan.
    #[test]
    fn f64_quotient_is_exact_below_2_32() {
        let mut state = 0x5851_f42d_4c95_7f2du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let ds = [
            1u64,
            2,
            3,
            u32::MAX as u64,
            1 << 32,
            (1 << 32) + 1,
            u64::MAX / 3,
        ];
        let mut pairs = Vec::new();
        for round in 0..20_000 {
            let d = match round % 4 {
                0 => ds[round / 4 % ds.len()],
                1 => next() | 1 << 32,
                2 => next() >> (next() % 64),
                _ => (next() >> 31).max(1),
            }
            .max(1);
            let qmax = (u64::MAX / d).min(u32::MAX as u64 + 2);
            let q = match round % 3 {
                0 => qmax,
                1 => next() % (qmax + 1),
                _ => qmax.min(next() % 8),
            };
            let base = q * d;
            for n in [
                base,
                base.saturating_sub(1),
                base + (d - 1).min(u64::MAX - base),
            ] {
                if n / d <= u32::MAX as u64 {
                    assert_eq!(div_below_2_32(n, d), n / d, "n={n:#x} d={d:#x}");
                }
                pairs.push((n, d));
            }
        }
        let random: Vec<(u64, u64)> = (0..4096)
            .map(|_| {
                let d = (next() >> (next() % 32)).max(1);
                (next() % d.saturating_mul(1 << 32), d)
            })
            .collect();
        let flagged = kernel_quotients(&pairs).map(|got| {
            for (&(n, d), (q, near)) in pairs.iter().zip(got) {
                let want = n / d;
                assert!(
                    near || if want < 1 << 33 {
                        q == want
                    } else {
                        q >= 1 << 32
                    },
                    "n={n:#x} d={d:#x}: {q:#x}, not flagged"
                );
            }
            let got = kernel_quotients(&random).expect("the same CPU");
            got.iter().filter(|&&(_, near)| near).count()
        });
        if let Some(flagged) = flagged {
            assert!(flagged <= 4, "{flagged} of 4096 random quotients flagged");
        }
    }

    /// `floor_quotient_x8` over `pairs`, eight at a time; `None` when this
    /// CPU cannot run it.
    fn kernel_quotients(pairs: &[(u64, u64)]) -> Option<Vec<(u64, bool)>> {
        #[cfg(target_arch = "x86_64")]
        if planner_available(KernelIsa::Avx512) {
            use std::arch::x86_64::*;
            let mut out = Vec::with_capacity(pairs.len());
            for chunk in pairs.chunks(8) {
                let (mut n, mut d) = ([0u64; 8], [1u64; 8]);
                for (i, &(a, b)) in chunk.iter().enumerate() {
                    (n[i], d[i]) = (a, b);
                }
                let mut q = [0u64; 8];
                // SAFETY: `planner_available` confirmed AVX-512F and DQ;
                // the loads and the store cover eight-word arrays.
                let near = unsafe {
                    let (qv, near) = floor_quotient_x8(
                        _mm512_loadu_si512(n.as_ptr().cast()),
                        _mm512_loadu_si512(d.as_ptr().cast()),
                    );
                    _mm512_storeu_si512(q.as_mut_ptr().cast(), qv);
                    near
                };
                out.extend((0..chunk.len()).map(|i| (q[i], near >> i & 1 == 1)));
            }
            return Some(out);
        }
        let _ = pairs;
        None
    }

    /// One lane's operands for the planner tests, from `shape`: random
    /// words, edge words (0, 1, `u32::MAX`), `Y` repeating `X`'s top two
    /// words, `Y = X` (a zero low difference), `X`'s top two words an
    /// exact multiple of `y12 + 1` (where the f64 quotient lands on an
    /// integer), `y1 = 1`, `X` and `Y` equal but for limb 1 (Case 4-C with
    /// a zero low limb and a nonzero second limb of the difference:
    /// DeepShift), Case 4-B with `y1 = u32::MAX` (divisor 2³²; sometimes
    /// `x12 = y12`, quotient 2³² − 1), Case 4-A with quotient 2³² − 1
    /// (`x12 = 2⁶⁴ − 1`, `y12 = 2³²`), and Case 1 with quotient 2³².
    fn lane_operands(shape: u8, mut next: impl FnMut() -> u64) -> (Vec<Limb>, Vec<Limb>) {
        const EDGE: [Limb; 4] = [0, 1, Limb::MAX, Limb::MAX - 1];
        let lx = match next() % 3 {
            0 => 1 + (next() % 4) as usize,
            1 => 3 + (next() % 3) as usize,
            _ => 1 + (next() % 64) as usize,
        };
        let ly = match next() % 4 {
            0 => lx,
            1 => lx.saturating_sub(1).max(1),
            _ => 1 + (next() % lx as u64) as usize,
        };
        let mut word = |edge: bool| -> Limb {
            if edge {
                EDGE[(next() % 4) as usize]
            } else {
                next() as Limb
            }
        };
        let edge = shape % 2 == 1;
        let mut x: Vec<Limb> = (0..lx).map(|_| word(edge)).collect();
        let mut y: Vec<Limb> = (0..ly).map(|_| word(edge)).collect();
        *x.last_mut().expect("lx >= 1") |= (x[lx - 1] == 0) as Limb;
        *y.last_mut().expect("ly >= 1") |= (y[ly - 1] == 0) as Limb;
        match shape / 2 % 9 {
            // Y repeats X's top two words.
            1 if ly >= 2 => {
                y[ly - 1] = x[lx - 1];
                y[ly - 2] = x[lx.max(2) - 2];
            }
            // Y = X.
            2 => y = x.clone(),
            // X's top two words a multiple of y12 + 1 (equal lengths).
            3 if ly >= 3 && y[ly - 1] != Limb::MAX => {
                x = y.clone();
                let y12 = (y[ly - 1] as u64) << LIMB_BITS | y[ly - 2] as u64;
                let q = (next() % (u64::MAX / (y12 + 1)).max(1)).max(1);
                let x12 = q * (y12 + 1);
                x[ly - 1] = (x12 >> LIMB_BITS) as Limb;
                x[ly - 2] = x12 as Limb;
            }
            // y1 = 1 (or Y = 1).
            4 => y[ly - 1] = 1,
            // X = Y but for a larger limb 1.
            5 if ly >= 4 => {
                y[1] = y[1].min(Limb::MAX - 1);
                x = y.clone();
                x[1] += 1;
            }
            // 4-B with y1 = u32::MAX.
            6 if ly >= 3 => {
                y[ly - 1] = Limb::MAX;
                x = (0..=ly).map(|_| word(edge)).collect();
                x[ly] = x[ly].clamp(1, Limb::MAX - 1);
                if next() & 1 == 0 {
                    (x[ly], x[ly - 1]) = (Limb::MAX, y[ly - 2]);
                }
            }
            // 4-A with quotient 2³² − 1.
            7 if ly >= 3 => {
                (y[ly - 1], y[ly - 2]) = (1, 0);
                x = y.clone();
                (x[ly - 1], x[ly - 2]) = (Limb::MAX, Limb::MAX);
            }
            // Case 1 with quotient 2³²: X = y0·2³² + r, r < y0.
            8 => {
                let y0 = next() as Limb | 2;
                (x, y) = (vec![next() as Limb % y0, y0], vec![y0]);
            }
            _ => {}
        }
        let (lx, ly) = (ops::normalized_len(&x), ops::normalized_len(&y));
        if ops::cmp(&x[..lx], &y[..ly]) == core::cmp::Ordering::Less {
            (y, x)
        } else {
            (x, y)
        }
    }

    proptest! {
        /// `plan_lanes` gives every lane exactly what the scalar planning
        /// loop gives it: the same termination (listed in `ended`), and
        /// `plan_lane`'s plan —
        /// fused `(α, rs)` or the same fixup, in lane order — with the
        /// same trip count and running count. Prefixes of up to 130 lanes
        /// cover 16-lane tails and more than one 64-lane word of the rare
        /// bitmask; the plan storage is wider than the prefix and starts
        /// out with garbage, which must not leak into the plan or past
        /// the prefix. Lanes that are already `Done` or `Early` carry
        /// garbage registers.
        #[test]
        fn plan_lanes_matches_plan_lane(
            seed in any::<u64>(),
            lanes in 1usize..=130,
            threshold_bits in prop_oneof![Just(0u64), 1u64..2048],
        ) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut heads = LaneHeads::new(lanes);
            let mut states = vec![LaneState::Running; lanes];
            let mut expect_states = states.clone();
            let mut expect_alpha = vec![0 as Limb; lanes];
            let mut expect_rs = vec![0u32; lanes];
            let (mut expect_fixups, mut expect_ended) = (Vec::new(), Vec::new());
            let (mut expect_rows, mut expect_running) = (0usize, 0usize);
            for t in 0..lanes {
                let (x, mut y) = lane_operands((next() % 18) as u8, &mut next);
                if next() % 16 == 0 {
                    y.clear();
                }
                let (lx, ly) = (ops::normalized_len(&x), ops::normalized_len(&y));
                heads.set_x(t, lx, head_words(lx, |k| x[k]));
                heads.set_y(t, ly, head_words(ly, |k| y[k]));
                states[t] = match next() % 16 {
                    0 => LaneState::Done,
                    1 => LaneState::Early,
                    _ => LaneState::Running,
                };
                expect_states[t] = states[t];
                if states[t] != LaneState::Running {
                    let h = &mut heads;
                    (h.lx[t], h.ly[t]) = (next() as u32, next() as u32);
                    (h.xt[t], h.xl[t], h.yt[t], h.yl[t]) = (next(), next(), next(), next());
                    continue;
                }
                if ly == 0 {
                    expect_states[t] = LaneState::Done;
                    expect_ended.push(t);
                    continue;
                }
                let ybits = (ly as u64 - 1) * 32 + 32 - y[ly - 1].leading_zeros() as u64;
                if ybits < threshold_bits {
                    expect_states[t] = LaneState::Early;
                    expect_ended.push(t);
                    continue;
                }
                expect_running += 1;
                let (x_top, x_lo) = (top2(&x, lx), pack_lo(&x[..lx]));
                let (y_top, y_lo) = (top2(&y, ly), pack_lo(&y[..ly]));
                match plan_lane(x_top, x_lo, lx, y_top, y_lo, ly).0 {
                    LanePlan::Fused { alpha, rs } => {
                        expect_alpha[t] = alpha;
                        expect_rs[t] = rs;
                        expect_rows = expect_rows.max(lx);
                    }
                    other => expect_fixups.push((t, other)),
                }
            }
            // Every build this CPU runs, each from the same starting state.
            for isa in KernelIsa::ALL {
                let mut plans = LanePlans::new(lanes + 70);
                plans.alpha.fill(7);
                plans.rs.fill(7);
                plans.rare.fill(u64::MAX);
                let mut got_states = states.clone();
                if !plan_lanes_on(isa, &heads, &mut got_states, lanes, threshold_bits, &mut plans) {
                    continue;
                }
                let at = isa.name();
                prop_assert_eq!(&got_states, &expect_states, "{}", at);
                prop_assert_eq!(&plans.alpha[..lanes], &expect_alpha[..], "{}", at);
                prop_assert_eq!(&plans.rs[..lanes], &expect_rs[..], "{}", at);
                prop_assert!(plans.alpha[lanes..].iter().chain(&plans.rs[lanes..]).all(|&v| v == 7), "{}", at);
                prop_assert_eq!(&plans.fixups, &expect_fixups, "{}", at);
                prop_assert_eq!(&plans.ended, &expect_ended, "{}", at);
                prop_assert_eq!(plans.rows, expect_rows, "{}", at);
                prop_assert_eq!(plans.running, expect_running, "{}", at);
            }
        }
    }
}

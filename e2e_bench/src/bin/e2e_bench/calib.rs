//! Host-speed calibration for the end-to-end times.
//!
//! On a shared virtual machine the cores run the same instructions at a
//! speed that drifts by up to 2× over seconds to minutes, as other tenants
//! load the physical cores under them; user CPU time drifts with wall time,
//! so no choice of clock hides it. Every timed end-to-end op is therefore
//! bracketed by a fixed reference workload run on the same cores, and its
//! wall time is reported at the reference speed:
//!
//! ```text
//! calibrated = wall × NOMINAL / (reference time around the op)
//! ```
//!
//! The reference is this file's own code, not the program's, so a faster
//! program reads faster and a faster reference never moves a metric. Its
//! work is what the program's layers do most: a limb multiply (carry
//! chains) and a subtract-and-shift loop (the binary GCD's inner step). A
//! burst lasts about 40 ms: shorter ones caught more of the host's
//! millisecond jitter than the ops they calibrate, which average it. The
//! work is pinned by a checksum test; changing it changes every calibrated
//! number, which needs a new baseline.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Limbs of the multiply operands (the product has twice as many).
const MUL_LIMBS: usize = 32;

/// Limbs of the subtract-and-shift operands.
const SUB_LIMBS: usize = 64;

/// Subtract-and-shift steps per round.
const SUB_STEPS: usize = 16;

/// Rounds in one burst (about 40 ms on a quiet core).
pub const BURST_ROUNDS: usize = 10_000;

/// Rounds in one slice, the unit the key service runs while it waits for
/// the next arrival (about 1.6 ms).
pub const SLICE_ROUNDS: usize = 400;

/// Seconds of one round on a quiet core of a 2.1 GHz Intel Xeon
/// (Sapphire Rapids class). Calibrated times are wall times scaled to
/// this speed.
pub const NOMINAL_ROUND_S: f64 = 4.0e-6;

/// The operands, allocated once so timing never includes a page fault.
struct Scratch {
    a: Vec<u64>,
    b: Vec<u64>,
    prod: Vec<u64>,
    c: Vec<u64>,
    d: Vec<u64>,
}

/// xorshift64: the operands' fixed contents.
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

impl Scratch {
    fn new() -> Scratch {
        let mut s = 0x9E37_79B9_7F4A_7C15;
        let mut fill = |n: usize| (0..n).map(|_| xorshift(&mut s)).collect::<Vec<u64>>();
        Scratch {
            a: fill(MUL_LIMBS),
            b: fill(MUL_LIMBS),
            prod: vec![0; 2 * MUL_LIMBS],
            c: fill(SUB_LIMBS),
            d: fill(SUB_LIMBS),
        }
    }

    /// One round of the reference work; returns a value that depends on
    /// all of it.
    fn round(&mut self) -> u64 {
        // Schoolbook multiply.
        self.prod.iter_mut().for_each(|x| *x = 0);
        for (i, &x) in self.a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in self.b.iter().enumerate() {
                let t = u128::from(self.prod[i + j]) + u128::from(x) * u128::from(y) + carry;
                self.prod[i + j] = t as u64;
                carry = t >> 64;
            }
            self.prod[i + MUL_LIMBS] = carry as u64;
        }
        // Subtract, then shift out the trailing zeros.
        for _ in 0..SUB_STEPS {
            let mut borrow = false;
            for (x, &y) in self.c.iter_mut().zip(&self.d) {
                let (d1, o1) = x.overflowing_sub(y);
                let (d2, o2) = d1.overflowing_sub(u64::from(borrow));
                *x = d2;
                borrow = o1 | o2;
            }
            let tz = (self.c[0] | 1 << 63).trailing_zeros();
            if tz > 0 {
                for k in 0..SUB_LIMBS - 1 {
                    self.c[k] = (self.c[k] >> tz) | (self.c[k + 1] << (64 - tz));
                }
                self.c[SUB_LIMBS - 1] >>= tz;
            }
            self.c[0] |= 1;
            self.c[SUB_LIMBS - 1] |= 1 << 62;
        }
        self.prod[MUL_LIMBS] ^ self.c[0]
    }

    /// Run `rounds` rounds; seconds taken.
    fn run(&mut self, rounds: usize) -> f64 {
        let t0 = Instant::now();
        let mut h = 0u64;
        for _ in 0..rounds {
            h = h.wrapping_add(black_box(self.round()));
        }
        black_box(h);
        t0.elapsed().as_secs_f64()
    }
}

/// Measures how fast the host runs the reference work right now, on the
/// calling thread: the benchmark runs the program on one worker thread.
pub struct Calibrator {
    scratch: Scratch,
}

impl Calibrator {
    /// A warmed-up calibrator.
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            scratch: Scratch::new(),
        };
        c.scratch.run(BURST_ROUNDS / 10);
        c
    }

    /// Run one burst. Returns how many times slower than
    /// [`NOMINAL_ROUND_S`] the host ran it.
    pub fn burst(&mut self) -> f64 {
        slowdown(self.scratch.run(BURST_ROUNDS), BURST_ROUNDS)
    }

    /// Run one slice; returns its slowdown like [`Calibrator::burst`].
    pub fn slice(&mut self) -> f64 {
        slowdown(self.scratch.run(SLICE_ROUNDS), SLICE_ROUNDS)
    }
}

/// Slowdown of `rounds` rounds that took `seconds`.
pub fn slowdown(seconds: f64, rounds: usize) -> f64 {
    seconds / (rounds as f64 * NOMINAL_ROUND_S)
}

/// A wall time scaled to the reference speed, given the slowdowns measured
/// just before and just after it.
fn calibrate(wall: f64, before: f64, after: f64) -> f64 {
    wall / ((before + after) / 2.0)
}

/// Wall times of ops scaled to the reference speed: a calibration burst
/// runs before the first op and after every group of back-to-back ops, and
/// each op in a group is scaled by the mean slowdown of the bursts around
/// it.
pub struct Bracketed {
    cal: Calibrator,
    last: f64,
    /// Every burst's slowdown, for the report.
    pub slowdowns: Vec<f64>,
}

impl Bracketed {
    /// Start with one burst, right before the first op.
    pub fn start() -> Bracketed {
        let mut cal = Calibrator::new();
        let last = cal.burst();
        Bracketed {
            cal,
            last,
            slowdowns: vec![last],
        }
    }

    /// The ops that just ran back to back took `walls` seconds: their
    /// calibrated times.
    pub fn ops<const N: usize>(&mut self, walls: [f64; N]) -> [f64; N] {
        let now = self.cal.burst();
        let (before, after) = (self.last, now);
        self.last = now;
        self.slowdowns.push(now);
        walls.map(|w| calibrate(w, before, after))
    }

    /// A note on how far the host ran from the reference speed.
    pub fn note(&self) -> String {
        format!(
            "host slowdown vs reference: median {:.3}, range {:.3}–{:.3} over {} bursts",
            median(&self.slowdowns),
            self.slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
            self.slowdowns.iter().copied().fold(0.0, f64::max),
            self.slowdowns.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_never_changes() {
        // Every calibrated number in a baseline depends on exactly this
        // work; a change to it needs a new baseline.
        let mut s = Scratch::new();
        let mut h = 0u64;
        for _ in 0..100 {
            h = h.wrapping_mul(31).wrapping_add(s.round());
        }
        assert_eq!(h, 10_311_281_333_108_989_800);
    }

    #[test]
    fn slowdown_is_nominal_over_measured() {
        let rounds = 1000;
        let nominal = rounds as f64 * NOMINAL_ROUND_S;
        assert!((slowdown(nominal, rounds) - 1.0).abs() < 1e-12);
        assert!((slowdown(2.0 * nominal, rounds) - 2.0).abs() < 1e-12);
        assert!((calibrate(3.0, 1.4, 1.6) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_burst_measures_a_positive_slowdown() {
        let mut c = Calibrator::new();
        let s = c.burst();
        assert!(s.is_finite() && s > 0.0);
        assert!(c.slice() > 0.0);
    }
}

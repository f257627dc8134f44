//! # bulkgcd-bigint
//!
//! Multiword natural-number arithmetic on 32-bit limbs — the substrate for
//! the reproduction of *"Bulk GCD Computation Using a GPU to Break Weak RSA
//! Keys"* (Fujita, Nakano, Ito; IPDPSW 2015).
//!
//! The paper fixes the word size at `d = 32` bits with 64-bit temporaries
//! (§V), and this crate follows suit: numbers are little-endian `u32` limb
//! vectors. Everything the reproduction needs from GMP/OpenSSL is
//! implemented here from scratch:
//!
//! * [`Nat`] — the owner type with comparison, add/sub, shifts and the
//!   paper's `rshift` (trailing-zero strip);
//! * [`ops`] — slice-level kernels shared with the fixed-buffer GCD operands
//!   of `bulkgcd-core`, including the fused `X ← rshift(X − α·Y)` single-pass
//!   update of paper §IV;
//! * a width-dispatched multiplication ladder — schoolbook, Karatsuba
//!   and a 3-prime CRT NTT ([`ntt`]) — with cutoffs
//!   in [`thresholds`]; the NTT butterflies run on the SIMD path
//!   [`kernel_isa`] names;
//! * division by Knuth Algorithm D, switching to Newton–Raphson reciprocal
//!   division ([`newton`]) for large divisors;
//! * binary GCD ([`gcd`]) at every width;
//! * Montgomery modular exponentiation and modular inverse (for recovering
//!   RSA private keys), and a one-word Montgomery fold ([`MontFold`]) for
//!   reducing long products modulo a short odd modulus;
//! * Miller–Rabin primality testing and random prime generation (replacing
//!   the paper's use of the OpenSSL toolkit to produce RSA moduli).

pub mod bytes;
pub mod convert;
pub mod div;
pub mod gcd;
pub mod gcd_ref;
pub mod isa;
pub mod limb;
pub mod modular;
pub mod mul;
pub mod nat;
pub mod newton;
pub mod ntt;
pub mod ops;
pub mod prime;
pub mod random;
pub mod square;
pub mod thresholds;

pub use isa::{kernel_isa, KernelIsa};
pub use limb::{Limb, Wide, D, LIMB_BITS};
pub use modular::{MontFold, Montgomery};
pub use nat::Nat;

//! The one CPU-feature probe for the hand-vectorized kernels.
//!
//! Both SIMD kernels of the workspace — the NTT butterflies
//! ([`crate::ntt`]) and the lockstep vector pass (`bulkgcd-core`'s
//! `lanes`, which re-exports this module's items) — pick their
//! implementation from [`KernelIsa::detect`], so one name,
//! [`kernel_isa`], describes both.

/// Which implementation of the SIMD kernels this CPU runs: `"avx512"`,
/// `"avx2"` or `"portable"`.
///
/// This is the same decision the NTT and the lockstep vector pass
/// dispatch on, so a bench row or a timing line that records it names the
/// kernel that actually produced the number.
pub fn kernel_isa() -> &'static str {
    KernelIsa::detect().name()
}

/// The kernel implementations, fastest first. Hidden: tests and the
/// kernel benches use it to reach each path; callers use the dispatchers.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelIsa {
    /// Hand-written AVX-512F kernels.
    Avx512,
    /// The portable bodies autovectorized for AVX2.
    Avx2,
    /// The portable bodies, and the oracle for the others.
    Portable,
}

impl KernelIsa {
    /// Every implementation, fastest first.
    pub const ALL: [KernelIsa; 3] = [KernelIsa::Avx512, KernelIsa::Avx2, KernelIsa::Portable];

    /// The fastest implementation this CPU can run.
    #[inline]
    pub fn detect() -> KernelIsa {
        let avx512 = KernelIsa::Avx512.available();
        let avx2 = KernelIsa::Avx2.available();
        if avx512 {
            KernelIsa::Avx512
        } else if avx2 {
            KernelIsa::Avx2
        } else {
            KernelIsa::Portable
        }
    }

    /// Whether this CPU supports the implementation.
    #[inline]
    pub fn available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelIsa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            KernelIsa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            KernelIsa::Portable => true,
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The name [`kernel_isa`] reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelIsa::Avx512 => "avx512",
            KernelIsa::Avx2 => "avx2",
            KernelIsa::Portable => "portable",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_isa_names_the_detected_path() {
        let isa = KernelIsa::detect();
        assert!(isa.available());
        assert_eq!(kernel_isa(), isa.name());
        assert!(["avx512", "avx2", "portable"].contains(&kernel_isa()));
    }
}

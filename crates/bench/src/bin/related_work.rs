//! Reproduces the §I/§VII related-work comparison: per-1024-bit-GCD time
//! of this implementation against the published prior GPU results the
//! paper cites, plus the paper's own number.
//!
//! Run: `cargo run --release -p bulkgcd-bench --bin related_work -- [--pairs N]`

use bulkgcd_bench::{rsa_modulus_pairs, Options};
use bulkgcd_core::{Algorithm, Termination};
use bulkgcd_gpu::{simulate_bulk_gcd_pairs, CostModel, DeviceConfig};

/// Published per-1024-bit-GCD times the paper compares against (§I).
const LITERATURE: &[(&str, &str, f64)] = &[
    ("Fujimoto [19], 2009", "GeForce GTX 285", 10.9),
    ("Scharfglass et al. [20], 2012", "GeForce GTX 480", 10.02),
    ("White [21], 2013", "Tesla K20Xm", 3.15),
    (
        "Fujita et al. (the paper), 2015",
        "GeForce GTX 780 Ti",
        0.346,
    ),
];

fn main() {
    let opts = Options::from_env();
    // Enough lanes to occupy every simulated device (2 warps per SM on the
    // 30-SM GTX 285); per-GCD time is meaningless on an idle device.
    let pairs_n: usize = opts.get("pairs", 1920);
    opts.finish();
    let bits = 1024;
    let pairs = rsa_modulus_pairs(pairs_n, bits, 77);
    let term = Termination::Early {
        threshold_bits: bits / 2,
    };
    let cost = CostModel::default();

    println!("Related-work comparison: time per 1024-bit GCD (microseconds)\n");
    println!("{:<36} {:<26} {:>10}", "implementation", "device", "us/GCD");
    for (who, device, us) in LITERATURE {
        println!("{who:<36} {device:<26} {us:>10.3}");
    }
    // Our Approximate Euclid on the simulated 780 Ti, and — as a bonus —
    // Binary Euclid on the simulated GTX 285 to sanity-check the simulator
    // against Fujimoto's generation of hardware.
    let ours = simulate_bulk_gcd_pairs(
        &DeviceConfig::gtx_780_ti(),
        &cost,
        Algorithm::Approximate,
        &pairs,
        term,
    );
    println!(
        "{:<36} {:<26} {:>10.3}",
        "this repo, Approximate (E)",
        "GTX 780 Ti (simulated)",
        ours.per_gcd_seconds * 1e6
    );
    let fujimoto_like = simulate_bulk_gcd_pairs(
        &DeviceConfig::gtx_285(),
        &cost,
        Algorithm::Binary,
        &pairs,
        Termination::Full,
    );
    println!(
        "{:<36} {:<26} {:>10.3}",
        "this repo, Binary (C) a la [19]",
        "GTX 285 (simulated)",
        fujimoto_like.per_gcd_seconds * 1e6
    );
    // The other two prior results, each on its own simulated device
    // (both used Binary-Euclid-style kernels).
    let scharfglass_like = simulate_bulk_gcd_pairs(
        &DeviceConfig::gtx_480(),
        &cost,
        Algorithm::Binary,
        &pairs,
        Termination::Full,
    );
    println!(
        "{:<36} {:<26} {:>10.3}",
        "this repo, Binary (C) a la [20]",
        "GTX 480 (simulated)",
        scharfglass_like.per_gcd_seconds * 1e6
    );
    let white_like = simulate_bulk_gcd_pairs(
        &DeviceConfig::tesla_k20xm(),
        &cost,
        Algorithm::Binary,
        &pairs,
        Termination::Full,
    );
    println!(
        "{:<36} {:<26} {:>10.3}",
        "this repo, Binary (C) a la [21]",
        "Tesla K20Xm (simulated)",
        white_like.per_gcd_seconds * 1e6
    );

    let speedup = fujimoto_like.per_gcd_seconds / ours.per_gcd_seconds;
    println!(
        "\nSimulated speedup of (E)@780Ti over (C)@285: {speedup:.1}x \
         (paper claims >9x over the best prior same-generation result)"
    );
}

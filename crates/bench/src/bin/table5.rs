//! Reproduces **Table V**: per-GCD time in microseconds for (C) Binary,
//! (D) Fast Binary and (E) Approximate Euclid on the CPU (measured
//! wall-clock, single thread) and the GPU (simulated GTX 780 Ti), with the
//! CPU/GPU ratio, for non-terminate and early-terminate modes.
//!
//! Paper setup: all 134M pairs of 16K moduli on a Xeon X7460 and a real
//! GTX 780 Ti. Here the CPU numbers are real measurements on the host and
//! the GPU numbers come from the architectural simulator; compare shapes
//! (who wins, by what factor), not absolute microseconds.
//!
//! Run: `cargo run --release -p bulkgcd-bench --bin table5 -- [--pairs N] [--bits a,b,..]`

use bulkgcd_bench::{cpu_seconds_per_gcd, rsa_modulus_pairs, Options};
use bulkgcd_core::{Algorithm, Termination};
use bulkgcd_gpu::{simulate_bulk_gcd_pairs, CostModel, DeviceConfig};

/// Paper Table V (microseconds per GCD): (bits, tag, cpu_non, cpu_early,
/// gpu_non, gpu_early).
const PAPER: &[(u64, &str, f64, f64, f64, f64)] = &[
    (512, "(C)", 25.7, 17.1, 0.460, 0.410),
    (512, "(D)", 16.9, 10.8, 0.137, 0.105),
    (512, "(E)", 14.8, 9.40, 0.115, 0.0773),
    (1024, "(C)", 81.0, 56.2, 3.54, 2.93),
    (1024, "(D)", 49.7, 33.6, 0.683, 0.583),
    (1024, "(E)", 43.4, 28.6, 0.437, 0.346),
    (2048, "(C)", 279.0, 200.0, 15.8, 12.5),
    (2048, "(D)", 166.0, 117.0, 3.01, 2.32),
    (2048, "(E)", 140.0, 96.4, 1.75, 1.33),
    (4096, "(C)", 1040.0, 771.0, 66.8, 50.6),
    (4096, "(D)", 624.0, 448.0, 11.9, 9.11),
    (4096, "(E)", 499.0, 357.0, 6.69, 5.01),
];

fn paper(bits: u64, tag: &str) -> (f64, f64, f64, f64) {
    PAPER
        .iter()
        .find(|r| r.0 == bits && r.1 == tag)
        .map(|r| (r.2, r.3, r.4, r.5))
        .unwrap_or((f64::NAN, f64::NAN, f64::NAN, f64::NAN))
}

fn main() {
    let opts = Options::from_env();
    let pairs_n: usize = opts.get("pairs", 64);
    // The GPU needs enough lanes in flight to occupy its 15 SMs, otherwise
    // per-GCD time is dominated by idle hardware (the paper amortizes over
    // 134M pairs). Default: two warps per SM.
    let gpu_pairs_n: usize = opts.get("gpu-pairs", pairs_n.max(960));
    let sizes = opts.get_list("bits", &[512, 1024]);
    opts.finish();
    let device = DeviceConfig::gtx_780_ti();
    let cost = CostModel::default();
    let algos = [
        Algorithm::Binary,
        Algorithm::FastBinary,
        Algorithm::Approximate,
    ];

    println!("TABLE V. The performance of Euclidean algorithms: one GCD computing");
    println!("time in microseconds ({pairs_n} sampled pairs per size; paper used all");
    println!(
        "pairs of 16K moduli). CPU = measured on this host; GPU = simulated {}.",
        device.name
    );

    for &bits in &sizes {
        let pairs = rsa_modulus_pairs(pairs_n, bits, 55);
        // Cheaper odd pairs for the big GPU batch: identical iteration
        // statistics, no prime generation cost.
        let gpu_pairs = bulkgcd_bench::odd_pairs(gpu_pairs_n, bits, 56);
        let early = Termination::Early {
            threshold_bits: bits / 2,
        };
        println!("\n--- {bits}-bit moduli ---");
        println!(
            "{:<6} {:<12} {:>10} {:>9} | {:>10} {:>9} | {:>9} {:>9}",
            "mode", "algorithm", "CPU us", "(paper)", "GPU us", "(paper)", "CPU/GPU", "(paper)"
        );
        for (mode, term, early_mode) in [("non", Termination::Full, false), ("early", early, true)]
        {
            for algo in algos {
                let cpu_us = cpu_seconds_per_gcd(algo, &pairs, term) * 1e6;
                let launch = simulate_bulk_gcd_pairs(&device, &cost, algo, &gpu_pairs, term);
                let gpu_us = launch.per_gcd_seconds * 1e6;
                let (pc_n, pc_e, pg_n, pg_e) = paper(bits, algo.tag());
                let (pc, pg) = if early_mode {
                    (pc_e, pg_e)
                } else {
                    (pc_n, pg_n)
                };
                println!(
                    "{:<6} {:<12} {:>10.2} {:>9.1} | {:>10.3} {:>9.3} | {:>9.1} {:>9.1}",
                    mode,
                    algo.tag(),
                    cpu_us,
                    pc,
                    gpu_us,
                    pg,
                    cpu_us / gpu_us,
                    pc / pg
                );
            }
        }
    }

    // Projection to the paper's full experiment: all pairs of 16K moduli.
    println!("\n--- Projected full scan of all 16384*16383/2 pairs (simulated GPU, early-terminate, (E)) ---");
    for &bits in &sizes {
        let gpu_pairs = bulkgcd_bench::odd_pairs(gpu_pairs_n, bits, 56);
        let est = bulkgcd_bulk::estimate_full_scan(
            &device,
            &cost,
            Algorithm::Approximate,
            &gpu_pairs,
            16_384,
            bits,
            Termination::Early {
                threshold_bits: bits / 2,
            },
        );
        let paper_us = paper(bits, "(E)").3;
        println!(
            "{bits:>5}-bit: {:.1} s simulated (paper: {:.1} s from {:.3} us/GCD)",
            est.total_seconds,
            paper_us * 1e-6 * est.pairs as f64,
            paper_us
        );
    }

    // §VII footnote: host->device transfer is negligible.
    let moduli_bytes = 16_384u64 * (sizes.iter().max().copied().unwrap_or(1024) / 8);
    println!(
        "\nHost->device transfer of 16K moduli: {:.4} s (paper: 0.002 s for 16K 4096-bit moduli)",
        device.host_transfer_seconds(moduli_bytes)
    );
    println!("\nNote: GPU times are simulated; compare CPU/GPU *shape* (E < D < C,");
    println!("Binary's ratio depressed by branch divergence), not absolute values.");
}

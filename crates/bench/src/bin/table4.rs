//! Reproduces **Table IV**: mean iteration counts of all five Euclidean
//! variants over random RSA moduli, non-terminate and early-terminate,
//! plus the (E)−(B) gap row and the §V β>0 statistics.
//!
//! Paper setup: 10000 pairs of 512/1024/2048/4096-bit OpenSSL moduli.
//! Default here: 200 pairs of 512/1024 bits (runtime); scale with
//! `--pairs N --bits 512,1024,2048,4096`.
//!
//! Run: `cargo run --release -p bulkgcd-bench --bin table4 -- [--pairs N] [--bits a,b,..]`

use bulkgcd_bench::{iteration_summary, rsa_modulus_pairs, Options};
use bulkgcd_core::{Algorithm, Termination};

/// Paper Table IV values for comparison: (bits, algo tag, non-term, early).
const PAPER: &[(u64, &str, f64, f64)] = &[
    (512, "(A)", 299.2, 149.9),
    (512, "(B)", 190.5, 95.2),
    (512, "(C)", 722.2, 361.2),
    (512, "(D)", 362.3, 180.4),
    (512, "(E)", 190.5, 95.2),
    (1024, "(A)", 598.4, 299.3),
    (1024, "(B)", 380.8, 190.3),
    (1024, "(C)", 1445.1, 722.8),
    (1024, "(D)", 723.6, 361.0),
    (1024, "(E)", 380.8, 190.3),
    (2048, "(A)", 1197.1, 598.8),
    (2048, "(B)", 761.8, 380.9),
    (2048, "(C)", 2890.8, 1445.8),
    (2048, "(D)", 1446.5, 722.4),
    (2048, "(E)", 761.8, 380.9),
    // The 4096-bit row of the available paper text is garbled (its
    // non-terminate and early-terminate columns appear swapped/shifted), so
    // the linear-in-s extrapolation from the clean rows is shown instead:
    // non-term ~ 2x the 2048 value, early ~ half of non-term.
    (4096, "(A)", 2394.2, 1197.1),
    (4096, "(B)", 1523.6, 761.8),
    (4096, "(C)", 5781.6, 2890.8),
    (4096, "(D)", 2893.0, 1446.5),
    (4096, "(E)", 1523.6, 761.8),
];

fn paper_value(bits: u64, tag: &str) -> Option<(f64, f64)> {
    PAPER
        .iter()
        .find(|(b, t, _, _)| *b == bits && *t == tag)
        .map(|(_, _, n, e)| (*n, *e))
}

fn main() {
    let opts = Options::from_env();
    let pairs_n: usize = opts.get("pairs", 200);
    let sizes = opts.get_list("bits", &[512, 1024]);
    opts.finish();

    println!("TABLE IV. The number of iterations performed by Euclidean algorithms");
    println!("({pairs_n} random RSA-modulus pairs per size; paper used 10000)");
    println!();
    for &bits in &sizes {
        println!("--- {bits}-bit RSA moduli ---");
        println!(
            "{:<40} {:>13} {:>11} {:>13} {:>11}",
            "algorithm", "non-term", "(paper)", "early-term", "(paper)"
        );
        let pairs = rsa_modulus_pairs(pairs_n, bits, 2015);
        let early = Termination::Early {
            threshold_bits: bits / 2,
        };
        let mut fast_means = (0.0, 0.0);
        let mut approx_means = (0.0, 0.0);
        let mut beta_stats = (0u64, 0u64);
        for algo in Algorithm::ALL {
            let full = iteration_summary(algo, &pairs, Termination::Full);
            let early_s = iteration_summary(algo, &pairs, early);
            let (pn, pe) = paper_value(bits, algo.tag()).unwrap_or((f64::NAN, f64::NAN));
            println!(
                "{} {:<36} {:>8.1} ±{:<4.1} {:>11.1} {:>8.1} ±{:<4.1} {:>11.1}",
                algo.tag(),
                algo.name(),
                full.mean_iterations,
                full.distribution.ci95(),
                pn,
                early_s.mean_iterations,
                early_s.distribution.ci95(),
                pe
            );
            match algo {
                Algorithm::Fast => fast_means = (full.mean_iterations, early_s.mean_iterations),
                Algorithm::Approximate => {
                    approx_means = (full.mean_iterations, early_s.mean_iterations);
                    beta_stats = (
                        full.beta_nonzero + early_s.beta_nonzero,
                        full.total_iterations + early_s.total_iterations,
                    );
                }
                _ => {}
            }
        }
        println!(
            "    (E)-(B): non-term {:+.4}, early {:+.4}   (paper: ~+0.003, ~+0.001)",
            approx_means.0 - fast_means.0,
            approx_means.1 - fast_means.1
        );
        println!(
            "    beta>0 fired {} times in {} (E)-iterations (paper section V: rate < 1e-8 at d=32)",
            beta_stats.0, beta_stats.1
        );
        println!();
    }
}

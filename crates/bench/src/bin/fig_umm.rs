//! Reproduces the UMM material: **Fig. 2** (pipeline walkthrough),
//! **Fig. 3 / Theorem 1** (column-wise bulk execution meets the
//! `(p/w + l − 1)·t` bound, row-wise does not), and the §VI
//! semi-obliviousness claim for the GCD kernels.
//!
//! Run: `cargo run --release -p bulkgcd-bench --bin fig_umm -- [--gcd] [--pairs N] [--bits B]`

use bulkgcd_bench::{odd_pairs, Options};
use bulkgcd_core::{Algorithm, Termination};
use bulkgcd_umm::gcd_trace::bulk_gcd_trace;
use bulkgcd_umm::{analyze, simulate, BulkTrace, Layout, UmmConfig, UmmReport};

fn oblivious_bulk(p: usize, steps: usize) -> BulkTrace {
    let mut b = BulkTrace::with_threads(p);
    for th in &mut b.threads {
        for i in 0..steps {
            th.read(i);
        }
    }
    b
}

fn main() {
    let opts = Options::from_env();
    let pairs_n: usize = opts.get("pairs", 128);
    let bits: u64 = opts.get("bits", 512);
    opts.finish();

    println!("=== Fig. 2 walkthrough: w = 4, l = 5 ===");
    let cfg = UmmConfig::new(4, 5);
    let mut b = BulkTrace::with_threads(8);
    for (j, &o) in [0usize, 0, 1, 2, 1, 1, 1, 1].iter().enumerate() {
        b.threads[j].read(o);
    }
    let r = simulate(&b, Layout::ColumnWise, cfg);
    println!(
        "W(0) spans 3 address groups, W(1) spans 1; completion in {} time units (paper: 3+1+5-1 = 8)\n",
        r.time_units
    );

    println!("=== Theorem 1: oblivious bulk, column-wise vs row-wise ===");
    println!(
        "{:>6} {:>4} {:>4} {:>6} | {:>12} {:>12} {:>12} {:>9}",
        "p", "w", "l", "steps", "col-wise", "bound", "row-wise", "row/col"
    );
    for (p, w, l, steps) in [
        (128usize, 32usize, 16usize, 64usize),
        (1024, 32, 32, 64),
        (4096, 32, 64, 64),
        (1024, 32, 256, 64),
    ] {
        let bulk = oblivious_bulk(p, steps);
        let cfg = UmmConfig::new(w, l);
        let col = simulate(&bulk, Layout::ColumnWise, cfg);
        let row = simulate(&bulk, Layout::RowWise, cfg);
        let bound = UmmReport::theorem1_bound(p, steps as u64, cfg);
        println!(
            "{:>6} {:>4} {:>4} {:>6} | {:>12} {:>12} {:>12} {:>9.1}",
            p,
            w,
            l,
            steps,
            col.time_units,
            bound,
            row.time_units,
            row.time_units as f64 / col.time_units as f64
        );
        assert_eq!(col.time_units, bound, "oblivious column-wise is exact");
    }

    {
        println!("\n=== Section VI: bulk GCD traces ({pairs_n} pairs, {bits}-bit, early term) ===");
        println!(
            "{:<14} {:>10} {:>13} {:>13} {:>9} {:>11} {:>13}",
            "algorithm", "steps", "col-time", "row-time", "row/col", "uniform%", "<=2 offsets%"
        );
        let inputs = odd_pairs(pairs_n, bits, 99);
        let term = Termination::Early {
            threshold_bits: bits / 2,
        };
        let cfg = UmmConfig::new(32, 32);
        for algo in [
            Algorithm::Binary,
            Algorithm::FastBinary,
            Algorithm::Approximate,
        ] {
            let bulk = bulk_gcd_trace(algo, &inputs, term);
            let col = simulate(&bulk, Layout::ColumnWise, cfg);
            let row = simulate(&bulk, Layout::RowWise, cfg);
            let ob = analyze(&bulk);
            println!(
                "{:<14} {:>10} {:>13} {:>13} {:>9.1} {:>10.1}% {:>12.1}%",
                algo.name().replace(" Euclidean algorithm", ""),
                bulk.steps(),
                col.time_units,
                row.time_units,
                row.time_units as f64 / col.time_units as f64,
                ob.uniform_fraction() * 100.0,
                ob.near_uniform_fraction() * 100.0
            );
        }
        println!("\nThe high <=2-offset fraction is the paper's semi-obliviousness: the");
        println!("word scan is uniform up to the X/Y pointer swap; only the O(1)");
        println!("approx/compare reads per iteration scatter.");

        // Extension: the same traces on the DMM (shared-memory banks, §I).
        println!("\n=== Extension: DMM (shared-memory bank) model on the same traces ===");
        use bulkgcd_umm::simulate_dmm;
        println!(
            "{:<14} {:>16} {:>16} {:>18} {:>18}",
            "algorithm", "col conflict-free", "row conflict-free", "col stages", "row stages"
        );
        for algo in [Algorithm::Binary, Algorithm::Approximate] {
            let bulk = bulk_gcd_trace(algo, &inputs[..pairs_n.min(64)], term);
            let col = simulate_dmm(&bulk, Layout::ColumnWise, cfg);
            let row = simulate_dmm(&bulk, Layout::RowWise, cfg);
            println!(
                "{:<14} {:>16.1}% {:>16.1}% {:>18} {:>18}",
                algo.name().replace(" Euclidean algorithm", ""),
                col.conflict_free_fraction() * 100.0,
                row.conflict_free_fraction() * 100.0,
                col.stages_occupied,
                row.stages_occupied
            );
        }
        println!("(column-wise wins on both machine models: banks stay distinct AND bursts stay contiguous)");

        // Ablation: force full obliviousness (fixed full-width scans).
        println!("\n=== Ablation: semi-oblivious vs fully oblivious execution ===");
        use bulkgcd_umm::gcd_trace::bulk_gcd_trace_oblivious;
        let subset = &inputs[..pairs_n.min(64)];
        let semi = bulk_gcd_trace(Algorithm::Approximate, subset, term);
        let obl = bulk_gcd_trace_oblivious(Algorithm::Approximate, subset, term);
        let semi_sim = simulate(&semi, Layout::ColumnWise, cfg);
        let obl_sim = simulate(&obl, Layout::ColumnWise, cfg);
        println!(
            "semi-oblivious : {:>9} accesses, {:>9} UMM time units, coalesced {:>5.1}%",
            semi.total_accesses(),
            semi_sim.time_units,
            semi_sim.coalesced_fraction() * 100.0
        );
        println!(
            "fully oblivious: {:>9} accesses, {:>9} UMM time units, coalesced {:>5.1}%",
            obl.total_accesses(),
            obl_sim.time_units,
            obl_sim.coalesced_fraction() * 100.0
        );
        println!(
            "(the oblivious kernel buys 100% coalescing with {:.2}x the word traffic)",
            obl.total_accesses() as f64 / semi.total_accesses().max(1) as f64
        );
    }
}

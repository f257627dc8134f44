//! Backend selection: fixed engines vs the auto-tuning selector.
//!
//! The same corpus scanned four ways — scalar arena loop, plain lockstep
//! warps, queue-mode compacted lockstep, and `AutoBackend`, which
//! reads the corpus shape (size, operand width, algorithm) and picks the
//! fastest strategy itself. Findings are identical in
//! every case; the metrics layer reports which backend auto chose.
//!
//! Run with: `cargo run --release --example auto_backend`

use bulk_gcd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2015);
    let corpus = build_corpus(&mut rng, 48, 1024, 2);
    let moduli = corpus.moduli();
    let arena = ModuliArena::try_from_moduli(&moduli).expect("corpus is non-degenerate");

    let scalar = ScanPipeline::new(&arena).run().expect("scalar scan").scan;

    let lockstep = ScanPipeline::new(&arena)
        .backend(LockstepBackend::new(32))
        .run()
        .expect("lockstep scan")
        .scan;

    // Queue-mode compaction keeps warps dense: terminated lanes are
    // harvested, survivors repacked into a column prefix, and dead slots
    // refilled with pending pairs from the launch queue.
    let compacted = ScanPipeline::new(&arena)
        .backend(LockstepBackend::new(32).with_compaction(CompactionConfig::default()))
        .run()
        .expect("compacted scan")
        .scan;

    // `AutoBackend` resolves its choice once per corpus and the metrics
    // layer reports it as "auto:<choice>".
    let auto = ScanPipeline::new(&arena)
        .backend(AutoBackend::new(32))
        .metrics()
        .run()
        .expect("auto scan");

    assert_eq!(lockstep.findings, scalar.findings);
    assert_eq!(compacted.findings, scalar.findings);
    assert_eq!(auto.scan.findings, scalar.findings);

    let metrics = auto.metrics.expect("metrics layer collects");
    println!(
        "{} moduli, {} weak pairs found by every backend",
        moduli.len(),
        scalar.findings.len()
    );
    println!("auto picked: {}", metrics.backend);
    if let Some(occ) = metrics.mean_occupancy() {
        println!(
            "occupancy {:.3}, {} compactions, {} refills",
            occ,
            metrics.total_compactions(),
            metrics.total_refills()
        );
    }
}

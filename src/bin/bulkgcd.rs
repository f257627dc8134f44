//! `bulkgcd` — command-line weak-RSA-key scanner.
//!
//! ```text
//! bulkgcd gen    --keys 64 --bits 512 --weak-pairs 3 --out corpus.txt
//! bulkgcd ingest corpus.txt --out corpus.arena [--min-bits B]
//! bulkgcd scan   corpus.txt [--engine cpu|lockstep|gpu|batch|auto] [--algo E] [--full] [--metrics-out m.json]
//!                [--shards N] [--shard-dir DIR]
//! bulkgcd scan   corpus.arena --arena [scan flags] [--chunk-limbs N]
//! bulkgcd check  corpus.txt <modulus-hex>
//! bulkgcd break  corpus.txt [--engine cpu|lockstep|gpu|batch|auto] [--exponent E]
//! bulkgcd gcd    <x-hex> <y-hex> [--algo A|B|C|D|E|lehmer] [--stats]
//! ```
//!
//! Corpus files hold one hexadecimal modulus per line; `#` starts a comment.

use bulk_gcd::bulk::recover_keys;
use bulk_gcd::prelude::*;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::process::ExitCode;

fn algo_from_flag(s: &str) -> Option<Algorithm> {
    match s.to_ascii_uppercase().as_str() {
        "A" | "ORIGINAL" => Some(Algorithm::Original),
        "B" | "FAST" => Some(Algorithm::Fast),
        "C" | "BINARY" => Some(Algorithm::Binary),
        "D" | "FASTBINARY" | "FAST-BINARY" => Some(Algorithm::FastBinary),
        "E" | "APPROX" | "APPROXIMATE" => Some(Algorithm::Approximate),
        _ => None,
    }
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                // A flag consumes the next token as its value unless the
                // next token is another flag or missing.
                let value = argv.get(i + 1).filter(|v| !v.starts_with("--"));
                if let Some(v) = value {
                    flags.push((name.to_string(), Some(v.clone())));
                    i += 2;
                } else {
                    flags.push((name.to_string(), None));
                    i += 1;
                }
            } else {
                positional.push(a.clone());
                i += 1;
            }
        }
        Args { positional, flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }
}

/// Stream the hex corpus at `path` line by line into the sanitizer: the
/// file is never materialized whole, and each accepted modulus is stored
/// exactly once (inside the sanitizer). `#` starts a comment.
fn read_corpus_streaming(path: &str, min_bits: u64) -> Result<(Vec<Nat>, IngestReport), String> {
    use std::io::BufRead;
    let file = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut reader = std::io::BufReader::new(file);
    let mut sanitizer = StreamingSanitizer::new(min_bits);
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading {path}: {e}"))?;
        if read == 0 {
            break;
        }
        lineno += 1;
        let text = line.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let n = Nat::from_hex(text).map_err(|e| format!("{path}:{lineno}: {e}"))?;
        sanitizer.push(n);
    }
    Ok(sanitizer.finish())
}

/// Quarantine malformed moduli instead of aborting: zero, even, undersized
/// (below `--min-bits`, default 0 = no floor) and duplicate inputs are
/// reported on stderr and dropped. Returns the scannable moduli plus the
/// ingest report whose rank/select acceptance index maps scanned rows back
/// to raw corpus lines in O(1).
fn sanitized_corpus(args: &Args, path: &str) -> Result<(Vec<Nat>, IngestReport), String> {
    let min_bits: u64 = args.get_parse("min-bits", 0)?;
    let (moduli, report) = read_corpus_streaming(path, min_bits)?;
    if !report.rejected.is_empty() {
        eprintln!("{}", report.summary());
        for r in &report.rejected {
            eprintln!("  quarantined modulus #{}: {}", r.index, r.reason);
        }
    }
    Ok((moduli, report))
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let keys: usize = args.get_parse("keys", 64)?;
    let bits: u64 = args.get_parse("bits", 512)?;
    let weak_pairs: usize = args.get_parse("weak-pairs", 2)?;
    let seed: u64 = args.get_parse("seed", 42)?;
    if 2 * weak_pairs > keys {
        return Err("--weak-pairs must be at most keys/2".into());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    eprintln!("generating {keys} keys of {bits} bits with {weak_pairs} weak pairs ...");
    let corpus = build_corpus(&mut rng, keys, bits, weak_pairs);
    let mut out: Box<dyn Write> = match args.get("out") {
        Some(path) => {
            Box::new(std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?)
        }
        None => Box::new(std::io::stdout().lock()),
    };
    writeln!(
        out,
        "# bulkgcd corpus: {keys} keys, {bits} bits, seed {seed}"
    )
    .unwrap();
    for k in &corpus.keys {
        writeln!(out, "{}", k.public.n.to_hex()).unwrap();
    }
    if let Some(path) = args.get("truth") {
        let mut t = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        writeln!(t, "# i j shared-prime-hex").unwrap();
        for (i, j, p) in &corpus.shared {
            writeln!(t, "{i} {j} {}", p.to_hex()).unwrap();
        }
        eprintln!("ground truth written to {path}");
    }
    eprintln!(
        "done; {} vulnerable keys among {}",
        corpus.vulnerable_indices().len(),
        keys
    );
    Ok(())
}

/// The `--algo` of a scan (Approximate Euclid by default).
fn scan_algo(args: &Args) -> Result<Algorithm, String> {
    match args.get("algo") {
        None => Ok(Algorithm::Approximate),
        Some(s) => algo_from_flag(s).ok_or_else(|| format!("unknown algorithm {s:?}")),
    }
}

/// The engine table: an `--engine` name to a constructor of its backend.
/// Every scan path (text corpus, compiled arena, sharded) and `break` pick
/// their backend here.
fn engine_backend(engine: &str, algo: Algorithm) -> Result<fn() -> Box<dyn ScanBackend>, String> {
    let make: fn() -> Box<dyn ScanBackend> = match engine {
        "cpu" => || Box::new(ScalarBackend),
        "gpu" => || {
            Box::new(GpuSimBackend {
                device: DeviceConfig::gtx_780_ti(),
                cost: CostModel::default(),
            })
        },
        "lockstep" => {
            if algo != Algorithm::Approximate {
                return Err(format!(
                    "--engine lockstep executes the Approximate variant only, not {algo:?} \
                     (drop --algo or use --algo E)"
                ));
            }
            || Box::new(LockstepBackend::new(32).with_compaction(CompactionConfig::default()))
        }
        "batch" => || Box::new(ProductTreeBackend { parallel: true }),
        "auto" => || Box::new(AutoBackend::new(32)),
        other => return Err(format!("unknown engine {other:?}")),
    };
    Ok(make)
}

/// Print the scan's clock line: simulated device seconds for launch-priced
/// backends, host wall clock otherwise. Engines that can run the lockstep
/// vector pass also name the ISA path it dispatched to.
fn report_timing(engine: &str, scan: &ScanReport) {
    let isa = match engine {
        "lockstep" | "auto" | "gpu" => format!(" [vector pass: {}]", bulk_gcd::core::kernel_isa()),
        _ => String::new(),
    };
    match scan.simulated() {
        Ok(sim) => eprintln!(
            "simulated GPU scan: {sim:.6} s simulated ({:.3} us/GCD){isa}",
            sim * 1e6 / scan.pairs_scanned.max(1) as f64
        ),
        Err(_) => eprintln!(
            "{engine} scan: {:.3} s ({:.2} us/GCD){isa}",
            scan.elapsed.as_secs_f64(),
            scan.elapsed.as_secs_f64() * 1e6 / scan.pairs_scanned.max(1) as f64
        ),
    }
}

/// Report findings in the raw corpus's numbering — `select1` over the
/// acceptance bitmap maps each compacted row to its raw line in O(1) — so
/// output lines match the operator's key list.
fn print_findings(findings: &[Finding], acceptance: &RankSelect) {
    if findings.is_empty() {
        println!("no shared factors found");
    }
    for f in findings {
        let i = acceptance
            .select1(f.i)
            .expect("finding row within accepted corpus");
        let j = acceptance
            .select1(f.j)
            .expect("finding row within accepted corpus");
        println!("{i} {j} {}", f.factor.to_hex());
    }
}

fn cmd_scan(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: bulkgcd scan <corpus-file> [--engine cpu|lockstep|gpu|batch|auto]")?;
    if args.has("arena") {
        return cmd_scan_arena(args, path);
    }
    let (moduli, report) = sanitized_corpus(args, path)?;
    if moduli.len() < 2 {
        // Quarantine may leave fewer than two scannable moduli; that is a
        // trivially clean corpus, not an error.
        println!("no shared factors found");
        return Ok(());
    }
    let algo = scan_algo(args)?;
    let engine = args.get("engine").unwrap_or("cpu");
    eprintln!(
        "scanning {} moduli ({} pairs) with {} [{engine}] ...",
        moduli.len(),
        moduli.len() * moduli.len().saturating_sub(1) / 2,
        algo.name()
    );
    let arena = ModuliArena::try_from_moduli(&moduli).map_err(|e| e.to_string())?;
    scan_resident(args, &arena, &report.acceptance, algo)
}

/// `bulkgcd scan <file> --arena`: scan a compiled arena produced by
/// `bulkgcd ingest`, skipping hex parsing and re-sanitization. With
/// `--chunk-limbs N` the corpus streams through a bounded window of ~`N`
/// limbs per side (the larger-than-RAM path, scalar engine); otherwise the
/// arena is loaded whole and scanned exactly like a text corpus. Findings
/// are identical either way.
fn cmd_scan_arena(args: &Args, path: &str) -> Result<(), String> {
    let algo = scan_algo(args)?;
    let engine = args.get("engine").unwrap_or("cpu");
    let mut source = ArenaSource::open(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    let header = *source.header();
    eprintln!(
        "arena: {} moduli (stride {} limbs, {} raw inputs, fp {:016x})",
        header.m, header.stride, header.raw_len, header.fingerprint
    );
    let chunk_limbs: usize = args.get_parse("chunk-limbs", 0)?;
    if chunk_limbs == 0 {
        let arena = source.load_arena().map_err(|e| e.to_string())?;
        return scan_resident(args, &arena, source.acceptance(), algo);
    }
    if engine != "cpu" {
        return Err(format!(
            "--chunk-limbs streams through the scalar engine; --engine {engine} needs the \
             corpus resident (drop --chunk-limbs)"
        ));
    }
    if args.get_parse("shards", 0usize)? > 0 {
        return Err("--chunk-limbs does not combine with --shards".into());
    }
    if args.get("metrics-out").is_some() {
        return Err(
            "--chunk-limbs does not combine with --metrics-out (the streaming scan has no \
             launches to report)"
                .into(),
        );
    }
    let rows = (chunk_limbs / header.stride.max(1)).max(1);
    eprintln!("streaming scan: {rows} rows per window ({chunk_limbs} limb budget)");
    let scan = source
        .scan_chunked(algo, !args.has("full"), chunk_limbs)
        .map_err(|e| e.to_string())?;
    report_timing(engine, &scan);
    report_duplicates(&scan);
    print_findings(&scan.findings, source.acceptance());
    Ok(())
}

/// Scan a resident arena on the `--engine` backend: the one path a text
/// corpus and a loaded compiled arena share. Plain, or with `--shards N`
/// through the shard coordinator (lease ledger, per-shard journals,
/// deterministic merge; with `--shard-dir DIR` the ledger and journals
/// persist, so a killed scan resumes from the completed tiles). Either way
/// `--metrics-out FILE` writes the per-launch metrics as JSON.
fn scan_resident(
    args: &Args,
    arena: &ModuliArena,
    acceptance: &RankSelect,
    algo: Algorithm,
) -> Result<(), String> {
    let engine = args.get("engine").unwrap_or("cpu");
    let early = !args.has("full");
    let make_backend = engine_backend(engine, algo)?;
    let metrics_out = args.get("metrics-out");
    let shards: usize = args.get_parse("shards", 0)?;
    let (scan, metrics) = if shards > 0 {
        if engine == "batch" || engine == "auto" {
            return Err(format!(
                "--shards requires a per-launch engine (cpu, gpu, or lockstep), not {engine:?}"
            ));
        }
        let mut config = ShardConfig::new(shards, DEFAULT_LAUNCH_PAIRS);
        config.algo = algo;
        config.early = early;
        config.collect_metrics = metrics_out.is_some();
        config.dir = args.get("shard-dir").map(std::path::PathBuf::from);
        let report = run_sharded(arena, &config, &ShardFaultPlan::none(), make_backend)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "sharded scan: {} tiles, {} worker attempts, {} launches executed, {} resumed",
            report.stats.tiles,
            report.stats.worker_attempts,
            report.stats.executed_launches,
            report.stats.resumed_launches,
        );
        (report.scan, report.metrics)
    } else {
        let mut pipeline = ScanPipeline::new(arena)
            .algorithm(algo)
            .early(early)
            .backend(make_backend());
        if metrics_out.is_some() {
            pipeline = pipeline.metrics();
        }
        let report = pipeline.run().map_err(|e| e.to_string())?;
        (report.scan, report.metrics)
    };
    report_timing(engine, &scan);
    report_duplicates(&scan);
    if let Some(path) = metrics_out {
        let metrics = metrics.expect("metrics were collected for --metrics-out");
        std::fs::write(path, metrics.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "wrote {} launch metrics ({} backend) to {path}",
            metrics.total_launches, metrics.backend
        );
    }
    print_findings(&scan.findings, acceptance);
    Ok(())
}

fn report_duplicates(rep: &ScanReport) {
    if rep.duplicate_pairs > 0 {
        eprintln!(
            "note: {} finding(s) are duplicate moduli (gcd = n); GCD cannot factor those pairs",
            rep.duplicate_pairs
        );
    }
}

fn cmd_check(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: bulkgcd check <corpus-file> <modulus-hex>")?;
    let hex = args
        .positional
        .get(2)
        .ok_or("usage: bulkgcd check <corpus-file> <modulus-hex>")?;
    let n = Nat::from_hex(hex).map_err(|e| e.to_string())?;
    let (moduli, _) = sanitized_corpus(args, path)?;
    let idx = CorpusIndex::from_moduli(&moduli).map_err(|e| e.to_string())?;
    let g = idx.shared_factor(&n).map_err(|e| e.to_string())?;
    if g.is_one() {
        println!(
            "clean: no factor shared with the {} indexed moduli",
            idx.len()
        );
    } else {
        println!("WEAK: shares factor {}", g.to_hex());
        return Ok(());
    }
    Ok(())
}

fn cmd_break(args: &Args) -> Result<(), String> {
    let path = args.positional.get(1).ok_or(
        "usage: bulkgcd break <corpus-file> [--engine cpu|lockstep|gpu|batch|auto] [--algo A..E] \
         [--exponent E]",
    )?;
    let (moduli, ingest) = sanitized_corpus(args, path)?;
    if moduli.len() < 2 {
        println!("no keys broken");
        return Ok(());
    }
    let e_val: u64 = match args.get("exponent") {
        None => 65_537,
        Some(v) => v.parse().map_err(|_| format!("invalid --exponent {v:?}"))?,
    };
    let algo = scan_algo(args)?;
    let engine = args.get("engine").unwrap_or("cpu");
    let e = Nat::from_u64(e_val);
    let keys: Vec<PublicKey> = moduli
        .iter()
        .map(|n| PublicKey {
            n: n.clone(),
            e: e.clone(),
        })
        .collect();
    // The same engine configuration as `scan`, so `break --engine batch`
    // finds its pairs with the product tree.
    let arena = ModuliArena::try_from_moduli(&moduli).map_err(|e| e.to_string())?;
    let scan = ScanPipeline::new(&arena)
        .algorithm(algo)
        .backend(engine_backend(engine, algo)?())
        .run()
        .map_err(|e| e.to_string())?
        .scan;
    let broken = recover_keys(&keys, &scan.findings);
    eprintln!(
        "scanned {} pairs in {:.3} s [{engine}]; {} shared-factor pairs; {} keys broken",
        scan.pairs_scanned,
        scan.elapsed.as_secs_f64(),
        scan.findings.len(),
        broken.len()
    );
    if broken.is_empty() {
        println!("no keys broken");
    }
    for b in &broken {
        println!(
            "{} {} {}",
            ingest.raw_index(b.index),
            b.factor.to_hex(),
            b.private.d.to_hex()
        );
    }
    Ok(())
}

/// `bulkgcd ingest`: sanitize a raw hex corpus once and compile it to the
/// on-disk arena format, so later `scan --arena` runs skip parsing and
/// quarantine and can stream the corpus through a bounded memory window.
fn cmd_ingest(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: bulkgcd ingest <corpus-file> --out <arena-file> [--min-bits B]")?;
    let out = args
        .get("out")
        .ok_or("ingest requires --out <arena-file>")?;
    let min_bits: u64 = args.get_parse("min-bits", 0)?;
    let (moduli, report) = sanitized_corpus(args, path)?;
    if moduli.is_empty() {
        return Err("no scannable moduli survived sanitization".into());
    }
    let arena = ModuliArena::try_from_moduli(&moduli).map_err(|e| e.to_string())?;
    let header = write_arena(
        std::path::Path::new(out),
        &arena,
        &report.acceptance,
        min_bits,
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "compiled {} moduli (stride {} limbs, {} raw inputs, fp {:016x}) to {out}",
        header.m, header.stride, header.raw_len, header.fingerprint
    );
    Ok(())
}

fn cmd_gcd(args: &Args) -> Result<(), String> {
    let x = args
        .positional
        .get(1)
        .ok_or("usage: bulkgcd gcd <x-hex> <y-hex>")?;
    let y = args
        .positional
        .get(2)
        .ok_or("usage: bulkgcd gcd <x-hex> <y-hex>")?;
    let x = Nat::from_hex(x).map_err(|e| format!("x: {e}"))?;
    let y = Nat::from_hex(y).map_err(|e| format!("y: {e}"))?;
    let algo_flag = args.get("algo").unwrap_or("E");
    let g = if algo_flag.eq_ignore_ascii_case("lehmer") {
        lehmer_gcd_nat(&x, &y)
    } else {
        let algo =
            algo_from_flag(algo_flag).ok_or_else(|| format!("unknown algorithm {algo_flag:?}"))?;
        if args.has("stats") && !x.is_zero() && !y.is_zero() {
            let (xo, _) = x.rshift();
            let (yo, _) = y.rshift();
            let mut pair = GcdPair::new(&xo, &yo);
            let mut probe = StatsProbe::default();
            run(algo, &mut pair, Termination::Full, &mut probe);
            eprintln!(
                "iterations: {}  beta>0: {}  mem-ops: {}  swaps: {}",
                probe.stats.iterations,
                probe.stats.beta_nonzero,
                probe.stats.mem_ops,
                probe.stats.swaps
            );
        }
        gcd_nat(algo, &x, &y)
    };
    println!("{}", g.to_hex());
    Ok(())
}

fn usage() -> String {
    "bulkgcd — weak-RSA-key scanner (reproduction of Fujita/Nakano/Ito, IPDPSW 2015)

USAGE:
  bulkgcd gen    [--keys N] [--bits B] [--weak-pairs W] [--seed S] [--out FILE] [--truth FILE]
  bulkgcd ingest <corpus-file> --out <arena-file> [--min-bits B]   # compile a sanitized on-disk arena
  bulkgcd scan   <corpus-file> [--engine cpu|lockstep|gpu|batch|auto] [--algo A..E] [--full] [--metrics-out FILE]
                 [--shards N] [--shard-dir DIR]   # tile-sharded scan with a resumable lease ledger
  bulkgcd scan   <arena-file> --arena [scan flags] [--chunk-limbs N]   # scan a compiled arena; with a
                 # chunk budget, stream it through a bounded window (corpora larger than RAM)
  bulkgcd check  <corpus-file> <modulus-hex>
  bulkgcd break  <corpus-file> [--engine cpu|lockstep|gpu|batch|auto] [--algo A..E] [--exponent E]
                 # prints: index factor-hex d-hex
  bulkgcd gcd    <x-hex> <y-hex> [--algo A|B|C|D|E|lehmer] [--stats]

Corpus files: one hex modulus per line, '#' comments."
        .to_string()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv);
    let result = match args.positional.first().map(|s| s.as_str()) {
        Some("gen") => cmd_gen(&args),
        Some("ingest") => cmd_ingest(&args),
        Some("scan") => cmd_scan(&args),
        Some("check") => cmd_check(&args),
        Some("break") => cmd_break(&args),
        Some("gcd") => cmd_gcd(&args),
        Some("help") | None => {
            println!("{}", usage());
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

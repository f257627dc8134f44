//! The traced run (`--trace 1`): per-layer numbers.
//!
//! A batch rep runs the untraced CLI path once (the reference for
//! `trace.overhead`) and replays it in-process inside a `replay` span,
//! calling each layer's public function in the order the CLI calls it; the
//! two alternate which goes first from rep to rep. Layers the workload's
//! own path does not reach are timed afterwards by
//! probes on the same corpus (outside `replay`), so every per-layer metric
//! is measured on every workload. Reps alternate until `--seconds` are used
//! and each metric is the median over its spans. Key recovery is checked
//! here too: `bulkgcd break` rescans with the scalar engine, so the
//! end-to-end path stops at attributed findings.

use crate::calib::Calibrator;
use crate::child::{check_findings, check_quarantine};
use crate::report::Report;
use crate::service::{run_open_loop, KeyService, Sample, WallClock};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{
    cli_ingest, cli_scan, op_timeout, room_for_another, Ctx, Engine, Inputs, RunDir, Shape,
    Workload, MIN_REPS,
};
use bulkgcd_bigint::Nat;
use bulkgcd_bulk::{
    batch_gcd_parallel, run_sharded, write_arena, ArenaSource, AutoBackend, CompactionConfig,
    CorpusIndex, Finding, LockstepBackend, ModuliArena, ProductTree, ProductTreeBackend,
    ScanMetrics, ScanPipeline, ShardConfig, ShardFaultPlan, DEFAULT_LAUNCH_PAIRS,
};
use bulkgcd_core::RankSelect;
use bulkgcd_rsa::{
    decrypt, encrypt, recover_private_key, IngestReport, PublicKey, StreamingSanitizer,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Calls per timed probe (`P mod n`, index checks).
const PROBES: usize = 8;

/// `gcd_reference` calls in the reference-GCD probe.
const GCD_PROBES: usize = 32;

/// Untraced/traced index-build pairs behind the key service's
/// `trace.overhead`.
const OVERHEAD_PAIRS: usize = 10;

/// Per-layer metrics read off span durations: (metric, span, scale).
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("ingest.parse_s", "ingest.parse", 1.0),
    ("ingest.sanitize_s", "ingest.sanitize", 1.0),
    ("store.write_s", "store.write", 1.0),
    ("store.open_s", "store.open", 1.0),
    ("store.load_s", "store.load", 1.0),
    ("attribution.s", "attribution", 1.0),
    ("batch.build_s", "batch.build", 1.0),
    ("batch.gcd_s", "batch.gcd", 1.0),
    ("incremental.build_s", "incremental.build", 1.0),
    ("incremental.check_ms", "incremental.check", 1e3),
    ("incremental.commit_s", "incremental.commit", 1.0),
    ("bigint.root_rem_ms", "bigint.root_rem", 1e3),
    ("bigint.gcd_ref_us", "bigint.gcd_ref", 1e6),
];

/// The CLI's `read_corpus_streaming` + `sanitized_corpus` + arena build,
/// one span per layer call.
fn replay_ingest(
    t: &mut Tracer,
    path: &Path,
    min_bits: u64,
) -> Result<(ModuliArena, IngestReport), String> {
    t.span("ingest", |t| {
        let text = t
            .span("ingest.read", |_| std::fs::read_to_string(path))
            .1
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let parsed = t
            .span("ingest.parse", |_| {
                text.lines()
                    .map(|l| l.split('#').next().unwrap_or("").trim())
                    .filter(|l| !l.is_empty())
                    .map(Nat::from_hex)
                    .collect::<Result<Vec<Nat>, _>>()
            })
            .1
            .map_err(|e| format!("parsing the corpus: {e}"))?;
        let (moduli, report) = t
            .span("ingest.sanitize", |_| {
                let mut s = StreamingSanitizer::new(min_bits);
                for n in parsed {
                    s.push(n);
                }
                s.finish()
            })
            .1;
        let arena = t
            .span("ingest.arena", |_| ModuliArena::try_from_moduli(&moduli))
            .1
            .map_err(|e| e.to_string())?;
        Ok((arena, report))
    })
    .1
}

/// Ingest, arena write and open: the shared head of every replay.
fn replay_store(
    t: &mut Tracer,
    inp: &Inputs,
    min_bits: u64,
    path: &Path,
) -> Result<(IngestReport, ArenaSource), String> {
    let (arena, report) = replay_ingest(t, &inp.files.corpus, min_bits)?;
    t.span("store.write", |_| {
        write_arena(path, &arena, &report.acceptance, min_bits)
    })
    .1
    .map_err(|e| e.to_string())?;
    // The ingest process ends here in the CLI; free its corpus too.
    drop(arena);
    let source = t
        .span("store.open", |_| ArenaSource::open(path))
        .1
        .map_err(|e| e.to_string())?;
    Ok((report, source))
}

/// Judge the replayed quarantine and record the ingest and store counts of
/// the shared replay head.
fn replay_head_report(inp: &Inputs, report: &IngestReport, path: &Path, r: &mut Report) {
    let q = check_quarantine(&quarantine_text(report), &inp.scenario.quarantine);
    r.op(q.is_ok(), || {
        format!("replayed quarantine: {}", q.clone().unwrap_err())
    });
    r.add("ingest.rejected", report.rejected.len() as f64);
    r.add(
        "store.bytes",
        std::fs::metadata(path).map_or(0.0, |m| m.len() as f64),
    );
}

/// What the scan layer returned.
struct ScanOut {
    findings: Vec<Finding>,
    pairs: u64,
    metrics: Option<ScanMetrics>,
    /// Tiles and executed launches of a sharded scan.
    shard: Option<(usize, u64)>,
}

fn lockstep() -> LockstepBackend {
    LockstepBackend::new(32).with_compaction(CompactionConfig::default())
}

/// The CLI's scan call for this workload's engine, with the metrics layer
/// on for the lockstep counters.
fn run_engine(engine: Engine, arena: &ModuliArena, shard_dir: &Path) -> Result<ScanOut, String> {
    let pipeline = ScanPipeline::new(arena);
    let rep = match engine {
        Engine::ShardedLockstep { shards } => {
            let mut config = ShardConfig::new(shards, DEFAULT_LAUNCH_PAIRS);
            config.collect_metrics = true;
            config.dir = Some(shard_dir.to_path_buf());
            let rep = run_sharded(arena, &config, &ShardFaultPlan::none(), lockstep)
                .map_err(|e| e.to_string())?;
            return Ok(ScanOut {
                pairs: rep.scan.pairs_scanned,
                findings: rep.scan.findings,
                metrics: rep.metrics,
                shard: Some((rep.stats.tiles, rep.stats.executed_launches)),
            });
        }
        Engine::Batch => pipeline
            .backend(ProductTreeBackend { parallel: true })
            .metrics()
            .run(),
        Engine::Auto => pipeline.backend(AutoBackend::new(32)).metrics().run(),
    }
    .map_err(|e| e.to_string())?;
    Ok(ScanOut {
        pairs: rep.scan.pairs_scanned,
        findings: rep.scan.findings,
        metrics: rep.metrics,
        shard: None,
    })
}

/// The CLI's `print_findings`: raw-numbered `i j factor-hex` lines.
fn attribute(findings: &[Finding], acceptance: &RankSelect) -> String {
    let mut out = String::new();
    for f in findings {
        match (acceptance.select1(f.i), acceptance.select1(f.j)) {
            (Some(i), Some(j)) => out.push_str(&format!("{i} {j} {}\n", f.factor.to_hex())),
            _ => out.push_str("unattributable finding\n"),
        }
    }
    out
}

/// The ingest report rendered as the CLI prints its quarantine.
fn quarantine_text(report: &IngestReport) -> String {
    report
        .rejected
        .iter()
        .map(|r| format!("  quarantined modulus #{}: {}\n", r.index, r.reason))
        .collect()
}

/// A non-member key of corpus width for probes.
fn probe_key(moduli: &[Nat], i: usize) -> Nat {
    moduli[i % moduli.len()].add(&Nat::from_u64(2))
}

/// Product-tree and bigint probes: `ProductTree::build`, `P mod n`,
/// `gcd_reference` and `batch_gcd_parallel` on the workload's moduli.
/// Returns the `batch_gcd_parallel` seconds.
fn tree_probes(t: &mut Tracer, moduli: &[Nat], r: &mut Report) -> f64 {
    let tree = t.span("batch.build", |_| ProductTree::build(moduli)).1;
    for i in 0..PROBES {
        let n = probe_key(moduli, i);
        t.span("bigint.root_rem", |_| black_box(tree.root().rem(&n)));
    }
    drop(tree);
    for i in 0..GCD_PROBES {
        let (a, b) = (
            &moduli[(2 * i) % moduli.len()],
            &moduli[(2 * i + 1) % moduli.len()],
        );
        t.span("bigint.gcd_ref", |_| black_box(a.gcd_reference(b)));
    }
    let (g, gcds) = t.span("batch.gcd", |_| batch_gcd_parallel(moduli));
    r.add(
        "batch.flagged",
        gcds.iter().filter(|g| !g.is_one()).count() as f64,
    );
    t.duration(g)
}

/// Key-service probes for batch workloads: index build, checks, a commit.
fn index_probes(t: &mut Tracer, source: &mut ArenaSource, moduli: &[Nat]) -> Result<(), String> {
    let mut idx = t
        .span("incremental.build", |_| {
            CorpusIndex::from_arena_source(source)
        })
        .1
        .map_err(|e| e.to_string())?;
    for i in 0..PROBES {
        let n = probe_key(moduli, i);
        let _ = t.span("incremental.check", |_| black_box(idx.shared_factor(&n)));
    }
    let n = probe_key(moduli, PROBES);
    t.span("incremental.commit", |_| {
        let ins = idx.insert(n);
        idx.commit();
        ins
    })
    .1
    .map_err(|e| e.to_string())
}

/// Recover a private key for every key in `findings` and confirm it
/// decrypts: one op per key.
fn check_recovery(arena: &ModuliArena, findings: &[Finding], r: &mut Report) {
    let mut factor_of: BTreeMap<usize, &Nat> = BTreeMap::new();
    for f in findings {
        factor_of.entry(f.i).or_insert(&f.factor);
        factor_of.entry(f.j).or_insert(&f.factor);
    }
    for (&row, &p) in &factor_of {
        let pk = PublicKey {
            n: arena.nat(row),
            e: Nat::from_u64(65_537),
        };
        let m = Nat::from_u64(0x5EED_0000 + row as u64);
        let ok = recover_private_key(&pk, p)
            .ok()
            .and_then(|sk| Some(decrypt(&sk, &encrypt(&pk, &m).ok()?).ok()? == m))
            .unwrap_or(false);
        r.op(ok, || format!("row {row}: recovered key does not decrypt"));
    }
}

/// Line and byte counts of the shard ledger and journals under `dir`.
fn journal_stats(dir: &Path) -> (usize, u64) {
    let mut records = 0;
    let mut bytes = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Ok(data) = std::fs::read(e.path()) {
                records += data.iter().filter(|&&b| b == b'\n').count();
                bytes += data.len() as u64;
            }
        }
    }
    (records, bytes)
}

/// Metrics every traced run derives from its spans: the per-layer call
/// times, and the trace's own coverage, which must be at least 0.95 in
/// every root span for the trace to count.
fn span_metrics(t: &Tracer, roots: &[usize], r: &mut Report) {
    for &(metric, span, scale) in SPAN_METRICS {
        let v: Vec<f64> = t.durations(span).iter().map(|s| s * scale).collect();
        if !v.is_empty() {
            r.set(metric, v);
        }
    }
    let coverage: Vec<f64> = roots.iter().map(|&root| t.coverage(root)).collect();
    let low = coverage.iter().copied().fold(1.0, f64::min);
    r.op(low >= 0.95, || {
        format!("trace covers only {low:.3} of a root span")
    });
    r.set("trace.coverage", coverage);
}

/// Record the tracing-overhead ratio: the median over pairs of a traced and
/// an untraced op run back to back, so a drift in the host's speed cancels
/// within each pair. Outside [0.9, 1.1] it is flagged in the table (machine
/// noise can put it there, so it fails no op).
fn overhead(traced: &[f64], untraced: &[f64], r: &mut Report) {
    let ratios: Vec<f64> = traced.iter().zip(untraced).map(|(t, u)| t / u).collect();
    let ratio = median(&ratios);
    if !(0.9..=1.1).contains(&ratio) {
        r.note(format!(
            "trace.overhead {ratio:.3} is outside [0.9, 1.1]: per-layer times are suspect"
        ));
    }
    r.add("trace.overhead", ratio);
}

/// Traced batch run. Returns the report and the spans.
pub fn trace_batch(
    ctx: &Ctx,
    w: &Workload,
    inp: &Inputs,
    seconds: f64,
    deadline: Instant,
) -> (Report, Tracer) {
    let mut r = Report::default();
    let mut t = Tracer::new();
    if let Err(e) = trace_batch_into(ctx, w, inp, seconds, deadline, &mut r, &mut t) {
        r.op(false, || e);
    }
    (r, t)
}

fn trace_batch_into(
    ctx: &Ctx,
    w: &Workload,
    inp: &Inputs,
    seconds: f64,
    deadline: Instant,
    r: &mut Report,
    t: &mut Tracer,
) -> Result<(), String> {
    let Shape::Batch {
        engine,
        nominal_scan_s,
    } = w.shape
    else {
        unreachable!("trace_batch takes batch workloads")
    };
    let min_bits = w.corpus.key_bits();
    let dir = RunDir::new(ctx, w)?;
    let (cli_arena, path) = (dir.join("cli.arena"), dir.join("replay.arena"));
    let start = Instant::now();
    let (mut cli_scans, mut cli_e2e, mut replays, mut roots, mut reps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Untraced reference: the same path through the real binary. Returns
    // the ingest + scan wall.
    let reference = |cli_scans: &mut Vec<f64>, r: &mut Report| -> Result<f64, String> {
        let timeout = op_timeout(&[], 1.0, deadline);
        let ing =
            cli_ingest(ctx, w, inp, &cli_arena, timeout, r).ok_or("reference ingest failed")?;
        let cli_shards = dir.join("cli-shards");
        let timeout = op_timeout(cli_scans, nominal_scan_s, deadline);
        let scan = cli_scan(ctx, w, inp, &cli_arena, &cli_shards, timeout, r);
        let _ = std::fs::remove_dir_all(&cli_shards);
        let scan = scan.ok_or("reference scan failed")?;
        cli_scans.push(scan.wall);
        Ok(ing.wall + scan.wall)
    };
    for rep in 0.. {
        let rep_start = Instant::now();
        // Alternate which side goes first, so neither always meets the
        // machine in the state the other left it.
        if rep % 2 == 0 {
            cli_e2e.push(reference(&mut cli_scans, r)?);
        }
        let shard_dir = dir.join(&format!("replay-shards-{rep}"));
        let (root, out) = t.span("replay", |t| -> Result<_, String> {
            let (report, mut source) = replay_store(t, inp, min_bits, &path)?;
            let arena = t
                .span("store.load", |_| source.load_arena())
                .1
                .map_err(|e| e.to_string())?;
            let (s, scan) = t.span("scan.run", |_| run_engine(engine, &arena, &shard_dir));
            let scan = scan?;
            let lines = t
                .span("attribution", |_| {
                    attribute(&scan.findings, source.acceptance())
                })
                .1;
            Ok((report, source, arena, scan, lines, s))
        });
        let (report, mut source, arena, scan, lines, scan_span) = out?;
        roots.push(root);
        replays.push(t.duration(root));
        if rep % 2 == 1 {
            cli_e2e.push(reference(&mut cli_scans, r)?);
        }

        let check = check_findings(&lines, &inp.scenario.findings);
        r.op(check.exact(), || {
            format!("replayed findings differ from the planted ones: {check:?}")
        });
        replay_head_report(inp, &report, &path, r);
        let run_s = t.duration(scan_span);
        r.add("scan.run_s", run_s);
        r.add("scan.pairs", scan.pairs as f64);
        r.add("scan.findings", scan.findings.len() as f64);
        let m = scan.metrics.clone().unwrap_or_default();
        if rep == 0 {
            r.note(format!("backend: {}", m.backend));
        }
        r.add("lockstep.occupancy", m.mean_occupancy().unwrap_or(0.0));
        r.add("lockstep.compactions", m.total_compactions() as f64);
        r.add("lockstep.refills", m.total_refills() as f64);
        r.add("lockstep.launches", m.launches.len() as f64);
        let (records, bytes) = journal_stats(&shard_dir);
        let (tiles, executed) = scan.shard.unwrap_or((0, 0));
        r.add(
            "shard.run_s",
            if scan.shard.is_some() { run_s } else { 0.0 },
        );
        r.add("shard.tiles", tiles as f64);
        r.add("shard.executed_launches", executed as f64);
        r.add("shard.journal_records", records as f64);
        r.add("shard.journal_bytes", bytes as f64);
        let _ = std::fs::remove_dir_all(&shard_dir);

        // What sharding costs: the same lockstep launches, unsharded and
        // unjournaled. 1 when the workload has no shard layer.
        let shard_overhead = if scan.shard.is_some() {
            let (u, rep) = t.span("shard.unsharded", |_| {
                ScanPipeline::new(&arena)
                    .backend(lockstep())
                    .launch_pairs(DEFAULT_LAUNCH_PAIRS)
                    .run()
            });
            let rep = rep.map_err(|e| e.to_string())?;
            r.op(rep.scan.findings == scan.findings, || {
                "unsharded findings differ from sharded".into()
            });
            run_s / t.duration(u)
        } else {
            1.0
        };
        r.add("shard.overhead", shard_overhead);

        let moduli: Vec<Nat> = (0..arena.len()).map(|i| arena.nat(i)).collect();
        let gcd_s = tree_probes(t, &moduli, r);
        r.add("batch.overhead_s", run_s - gcd_s);
        index_probes(t, &mut source, &moduli)?;
        r.add("incremental.wait_p99_ms", 0.0);
        if rep == 0 {
            check_recovery(&arena, &scan.findings, r);
        }

        reps.push(rep_start.elapsed().as_secs_f64());
        if !room_for_another(start, &reps, seconds, deadline, MIN_REPS) {
            break;
        }
    }
    span_metrics(t, &roots, r);
    overhead(&replays, &cli_e2e, r);
    Ok(())
}

/// Traced key-service run: index-build pairs for the overhead ratio, then
/// the replay — ingest, arena write, open, index build and the open-loop
/// stream, with a span per check and per commit.
pub fn trace_service(ctx: &Ctx, w: &Workload, inp: &Inputs, deadline: Instant) -> (Report, Tracer) {
    let mut r = Report::default();
    let mut t = Tracer::new();
    if let Err(e) = trace_service_into(ctx, w, inp, deadline, &mut r, &mut t) {
        r.op(false, || e);
    }
    (r, t)
}

fn trace_service_into(
    ctx: &Ctx,
    w: &Workload,
    inp: &Inputs,
    deadline: Instant,
    r: &mut Report,
    t: &mut Tracer,
) -> Result<(), String> {
    let Shape::Service { commit_every, .. } = w.shape else {
        unreachable!("trace_service takes service workloads")
    };
    let min_bits = w.corpus.key_bits();
    let dir = RunDir::new(ctx, w)?;

    // Overhead pairs: open + build on the arena the real `bulkgcd ingest`
    // wrote, untraced and then inside spans.
    let cli_arena = dir.join("cli.arena");
    cli_ingest(ctx, w, inp, &cli_arena, op_timeout(&[], 1.0, deadline), r)
        .ok_or("reference ingest failed")?;
    let untraced_build = || -> Result<f64, String> {
        let t0 = Instant::now();
        let mut src = ArenaSource::open(&cli_arena).map_err(|e| e.to_string())?;
        let index = CorpusIndex::from_arena_source(&mut src).map_err(|e| e.to_string())?;
        let s = t0.elapsed().as_secs_f64();
        drop(index);
        Ok(s)
    };
    let (mut untraced, mut traced, mut roots) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..OVERHEAD_PAIRS {
        // Alternate which side goes first, so neither always meets the
        // machine in the state the other left it.
        if k % 2 == 0 {
            untraced.push(untraced_build()?);
        }
        let (root, built) = t.span("setup", |t| -> Result<_, String> {
            let mut src = t
                .span("store.open", |_| ArenaSource::open(&cli_arena))
                .1
                .map_err(|e| e.to_string())?;
            t.span("incremental.build", |_| {
                CorpusIndex::from_arena_source(&mut src)
            })
            .1
            .map_err(|e| e.to_string())
        });
        drop(built?);
        roots.push(root);
        traced.push(t.duration(root));
        if k % 2 == 1 {
            untraced.push(untraced_build()?);
        }
    }

    let path = dir.join("replay.arena");
    let cands = &inp.scenario.candidates;
    let dues: Vec<f64> = cands.iter().map(|c| c.due).collect();
    let (root, out) = t.span("replay", |t| -> Result<_, String> {
        let (report, mut source) = replay_store(t, inp, min_bits, &path)?;
        let index = t
            .span("incremental.build", |_| {
                CorpusIndex::from_arena_source(&mut source)
            })
            .1
            .map_err(|e| e.to_string())?;
        let mut svc = KeyService::new(index, commit_every);
        let (_, served) = t.span("serve", |t| {
            let parent = t.current();
            let mut clock = WallClock::start(Calibrator::new());
            let served = run_open_loop(&dues, &mut clock, |i, _| {
                let s = svc.serve(&cands[i].n);
                if let Ok(s) = &s {
                    t.record(
                        "incremental.check",
                        t.at(s.check.0),
                        t.at(s.check.1),
                        parent,
                    );
                    if let Some((c0, c1)) = s.commit {
                        t.record("incremental.commit", t.at(c0), t.at(c1), parent);
                    }
                }
                s
            });
            if let Ok(Some((c0, c1))) = svc.flush() {
                t.record("incremental.commit", t.at(c0), t.at(c1), parent);
            }
            served
        });
        Ok((report, source, served))
    });
    let (report, mut source, served) = out?;
    roots.push(root);

    replay_head_report(inp, &report, &path, r);
    let (mut pairs, mut weak) = (0u64, 0usize);
    for (k, s) in served.iter().enumerate() {
        let want = cands[k].expect.clone().unwrap_or_else(Nat::one);
        let got = s.out.as_ref().map(|x| x.factor.clone());
        r.op(got.as_ref() == Ok(&want), || {
            format!("check {k}: answered {got:?}, expected {}", want.to_hex())
        });
        if let Ok(x) = &s.out {
            pairs += x.indexed as u64;
            weak += usize::from(!x.factor.is_one());
        }
    }

    let checks = t.durations("incremental.check");
    if checks.is_empty() || t.durations("incremental.commit").is_empty() {
        return Err("the stream produced no checks or no commits".into());
    }
    let waits: Vec<f64> = served.iter().map(Sample::wait).collect();
    r.add("incremental.wait_p99_ms", percentile(&waits, 99.0) * 1e3);
    r.add("scan.run_s", checks.iter().sum());
    r.add("scan.pairs", pairs as f64);
    r.add("scan.findings", weak as f64);
    // No pairwise scan, shard layer or batch scan runs in the service.
    for name in [
        "lockstep.occupancy",
        "lockstep.compactions",
        "lockstep.refills",
        "lockstep.launches",
        "shard.run_s",
        "shard.tiles",
        "shard.executed_launches",
        "shard.journal_records",
        "shard.journal_bytes",
        "batch.overhead_s",
    ] {
        r.add(name, 0.0);
    }
    r.add("shard.overhead", 1.0);
    r.note(format!(
        "{} checks, {} commits; check service p50 {:.3} ms",
        checks.len(),
        t.durations("incremental.commit").len(),
        median(&checks) * 1e3
    ));

    let arena = t
        .span("store.load", |_| source.load_arena())
        .1
        .map_err(|e| e.to_string())?;
    let moduli: Vec<Nat> = (0..arena.len()).map(|i| arena.nat(i)).collect();
    tree_probes(t, &moduli, r);
    // Attribution maps scan findings to raw lines; the service has none.
    r.add("attribution.s", 0.0);
    span_metrics(t, &roots, r);
    overhead(&traced, &untraced, r);
    Ok(())
}

//! Workloads, their inputs, and the untraced end-to-end runs.
//!
//! Batch workloads run the real CLI as child processes: `bulkgcd ingest`
//! (corpus text → sanitized arena) then `bulkgcd scan --arena`, and judge
//! the attributed `i j factor` lines against the planted truth. The key
//! service runs in a child copy of this binary (`e2e_bench serve`), so its
//! peak memory is measured the same way as a scan's.

use crate::calib::{Bracketed, Calibrator};
use crate::child::{self, check_findings, check_quarantine, Outcome};
use crate::corpus::{self, CorpusSpec, Scenario, ScenarioFiles, StreamSpec};
use crate::report::{tail_note, Report};
use crate::service::{generator_lag, run_open_loop, KeyService, Sample, WallClock};
use crate::stats::{median, percentile};
use bulkgcd_bigint::Nat;
use bulkgcd_bulk::{ArenaSource, CorpusIndex};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Longest `--seconds` the prime pools are sized for.
pub const MAX_SECONDS: u64 = 60;

/// `bulkgcd ingest` runs timed for `setup_s` in each rep, between two
/// calibration bursts, besides the rep's own ingest. Ingest is
/// millisecond-scale, so its median needs many, and spread over every rep
/// they sample the whole run: taken all at its start, they caught one phase
/// of the host's speed and their median spread twice as much across runs.
const SETUP_INGESTS_PER_REP: usize = 6;

/// Reps a batch run makes even past `--seconds`: a median of a single rep
/// (or a traced/untraced ratio of a single pair) would carry that rep's
/// noise whole.
pub const MIN_REPS: usize = 2;

/// Index builds the key service times for its `setup_s`.
const SERVICE_SETUPS: usize = 10;

/// A check's latency is calibrated by the slices the key service ran
/// within this many seconds of its due time.
const SLOWDOWN_WINDOW_S: f64 = 0.5;

/// The check-latency percentile the key service reports as `e2e_s`. About
/// 25 of a run's 500 checks lie beyond it, all queued behind commits, so it
/// tracks commit stalls without hinging on the few arrivals that land
/// nearest a commit's start: p98 (ten beyond) spread twice as much from run
/// to run. The table still prints p98.
const SERVICE_TAIL_PERCENT: f64 = 95.0;

/// How a batch workload scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `--engine auto`: the library picks the strategy from the corpus.
    Auto,
    /// `--engine batch`: the product tree, at any corpus size.
    Batch,
    /// `--engine lockstep --shards N --shard-dir <fresh dir>`: the
    /// journaled, lease-coordinated path.
    ShardedLockstep {
        /// Tiles the launch sequence is split into.
        shards: usize,
    },
}

/// What a workload does with its corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Corpus file → findings through the CLI.
    Batch {
        /// The scan engine.
        engine: Engine,
        /// Expected scan seconds; the first scan's timeout is ten times
        /// this (later ones use ten times the median so far).
        nominal_scan_s: f64,
    },
    /// The corpus becomes a key-service index that answers a stream.
    Service {
        /// Poisson arrival rate, candidates per second.
        rate: f64,
        /// Clean candidates per index commit.
        commit_every: usize,
        /// Index builds timed for `setup_s`.
        setup_reps: usize,
    },
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as `--workload` takes it.
    pub name: &'static str,
    /// The batch corpus (for the service: the base index).
    pub corpus: CorpusSpec,
    /// What runs on it.
    pub shape: Shape,
}

impl Workload {
    /// The candidate stream of a service workload over `seconds`.
    pub fn stream(&self, seconds: f64) -> Option<StreamSpec> {
        match self.shape {
            Shape::Service {
                rate, commit_every, ..
            } => Some(StreamSpec {
                rate,
                seconds,
                commit_every,
            }),
            Shape::Batch { .. } => None,
        }
    }
}

/// The benchmark's workloads (`smoke`: the same four at tiny scale: at most
/// 64 keys of 256 bits and about 50 checks).
pub fn catalog(smoke: bool) -> [Workload; 4] {
    let spec = |keys, prime_bits, batches, batch_size, pairs| CorpusSpec {
        keys,
        prime_bits,
        batches,
        batch_size,
        pairs,
    };
    // Every op of a run is bracketed by calibration bursts, which follow
    // the host's speed only over a second or two, so no scan here runs
    // much longer than that on one thread. The key service's index has
    // 4096 keys, so its commit stalls (about 0.3 s) stand well clear of its
    // checks (about 8 ms) and a run still holds about 15 of them.
    let (web, device, durable, index) = if smoke {
        (
            spec(64, 128, 2, 4, 2),
            spec(48, 128, 2, 6, 2),
            spec(64, 128, 1, 4, 2),
            spec(64, 128, 2, 4, 2),
        )
    } else {
        (
            spec(1024, 512, 1, 6, 2),
            spec(256, 1024, 2, 12, 4),
            spec(384, 512, 1, 8, 2),
            spec(4096, 512, 4, 8, 4),
        )
    };
    [
        Workload {
            name: "web-1k",
            corpus: web,
            shape: Shape::Batch {
                engine: Engine::Batch,
                nominal_scan_s: 1.5,
            },
        },
        Workload {
            name: "device-2048",
            corpus: device,
            shape: Shape::Batch {
                engine: Engine::Auto,
                nominal_scan_s: 1.6,
            },
        },
        Workload {
            name: "durable-384",
            corpus: durable,
            shape: Shape::Batch {
                engine: Engine::ShardedLockstep { shards: 2 },
                nominal_scan_s: 1.5,
            },
        },
        Workload {
            name: "keyservice-4k",
            corpus: index,
            shape: Shape::Service {
                rate: if smoke { 100.0 } else { 25.0 },
                commit_every: if smoke { 16 } else { 32 },
                setup_reps: if smoke { 2 } else { SERVICE_SETUPS },
            },
        },
    ]
}

/// Primes in the `bits`-wide pool: the largest need of any workload at
/// [`MAX_SECONDS`], plus a sixteenth so each seed draws a different subset.
/// Generating the pools is most of a checkout's first run (about 2 minutes
/// on two threads), so the slack stays small.
pub fn pool_count(bits: u64, smoke: bool) -> usize {
    let need = catalog(smoke)
        .iter()
        .filter(|w| w.corpus.prime_bits == bits)
        .map(|w| {
            w.corpus.primes_needed() + w.stream(MAX_SECONDS as f64).map_or(0, |s| s.primes_bound())
        })
        .max()
        .unwrap_or(0);
    (need + need / 16).div_ceil(64) * 64
}

/// Where things live, and the CLI binary under test.
pub struct Ctx {
    /// Cargo target directory of this binary (`<target>/release/e2e_bench`).
    pub target: PathBuf,
    /// The freshly built `bulkgcd`, next to this binary.
    pub cli: PathBuf,
    /// Threads for prime-pool generation (`nproc`).
    pub threads: usize,
    /// Tiny-scale smoke mode.
    pub smoke: bool,
}

/// The repository root: the parent of this package's directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

impl Ctx {
    /// Locate the target directory and build `bulkgcd` from the
    /// repository's sources into it.
    pub fn new(smoke: bool) -> Result<Ctx, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("this binary is not inside a cargo target directory")?
            .to_path_buf();
        let manifest = repo_root().join("Cargo.toml");
        if !manifest.is_file() {
            return Err(format!("no repository manifest at {}", manifest.display()));
        }
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "bulkgcd",
            ])
            .arg("--manifest-path")
            .arg(&manifest)
            .arg("--target-dir")
            .arg(&target)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("running cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building bulkgcd failed ({status})"));
        }
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(Ctx {
            cli: target.join("release").join("bulkgcd"),
            target,
            threads,
            smoke,
        })
    }

    /// `<name>-s<seed>`, prefixed `smoke-` in smoke mode: names cached
    /// inputs, traces and saved results.
    pub fn label(&self, w: &Workload, seed: u64) -> String {
        let prefix = if self.smoke { "smoke-" } else { "" };
        format!("{prefix}{}-s{seed}", w.name)
    }
}

/// A workload's generated inputs.
pub struct Inputs {
    /// In-memory scenario (truth included).
    pub scenario: Scenario,
    /// The files the CLI reads.
    pub files: ScenarioFiles,
}

/// Generate (or reuse) the inputs of `w` for `seed`.
pub fn prepare(ctx: &Ctx, w: &Workload, seed: u64, seconds: f64) -> Result<Inputs, String> {
    let cache = ctx.target.join("e2e-corpora");
    // Every pool is loaded, so the first run in a target directory makes
    // them all (about 2 minutes on two threads) and no later run does.
    let mut widths: Vec<u64> = catalog(ctx.smoke)
        .iter()
        .map(|w| w.corpus.prime_bits)
        .collect();
    widths.sort_unstable();
    widths.dedup();
    let mut pool = Vec::new();
    for bits in widths {
        let p = corpus::load_pool(&cache, bits, pool_count(bits, ctx.smoke), ctx.threads)
            .map_err(|e| format!("prime pool: {e}"))?;
        if bits == w.corpus.prime_bits {
            pool = p;
        }
    }
    let stream = w.stream(seconds);
    let scenario = corpus::build(&pool, &w.corpus, true, stream.as_ref(), seed);
    let files = corpus::write_scenario(&cache.join(ctx.label(w, seed)), w.name, &scenario)
        .map_err(|e| format!("writing inputs: {e}"))?;
    Ok(Inputs { scenario, files })
}

/// A per-run scratch directory, removed when dropped.
pub struct RunDir(PathBuf);

impl RunDir {
    /// A fresh, empty directory for one run of `w`.
    pub fn new(ctx: &Ctx, w: &Workload) -> Result<RunDir, String> {
        let dir = ctx
            .target
            .join("e2e-runs")
            .join(format!("{}-p{}", w.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    /// `name` inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Timeout for the next op: ten times the median so far (or `nominal`
/// before the first), at least 5 s, never past `deadline`.
pub fn op_timeout(prev: &[f64], nominal: f64, deadline: Instant) -> Duration {
    let base = if prev.is_empty() {
        nominal
    } else {
        median(prev)
    };
    Duration::from_secs_f64((10.0 * base).max(5.0))
        .min(deadline.saturating_duration_since(Instant::now()))
}

/// Whether to run another rep: always until `min_reps` are done, then while
/// one more, as long as the median of `reps` so far, still ends within
/// `seconds` of `start`; never when it could run into `deadline`.
pub fn room_for_another(
    start: Instant,
    reps: &[f64],
    seconds: f64,
    deadline: Instant,
    min_reps: usize,
) -> bool {
    let next = median(reps);
    Instant::now() + Duration::from_secs_f64(2.0 * next) <= deadline
        && (reps.len() < min_reps || start.elapsed().as_secs_f64() + next <= seconds)
}

/// One `bulkgcd ingest` op: exit 0 and exactly the planted quarantine.
pub fn cli_ingest(
    ctx: &Ctx,
    w: &Workload,
    inp: &Inputs,
    arena: &Path,
    timeout: Duration,
    r: &mut Report,
) -> Option<Outcome> {
    let out = child::run(
        Command::new(&ctx.cli)
            .arg("ingest")
            .arg(&inp.files.corpus)
            .arg("--out")
            .arg(arena)
            .args(["--min-bits", &w.corpus.key_bits().to_string()]),
        timeout,
    );
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            r.op(false, || format!("spawning bulkgcd ingest: {e}"));
            return None;
        }
    };
    let verdict = if out.ok() {
        check_quarantine(&out.stderr, &inp.scenario.quarantine)
    } else {
        Err(out.failure())
    };
    r.op(verdict.is_ok(), || {
        format!("ingest: {}", verdict.clone().unwrap_err())
    });
    verdict.is_ok().then_some(out)
}

/// One `bulkgcd scan --arena` op: exit 0 and exactly the planted findings.
/// `None` when the op failed.
pub fn cli_scan(
    ctx: &Ctx,
    w: &Workload,
    inp: &Inputs,
    arena: &Path,
    shard_dir: &Path,
    timeout: Duration,
    r: &mut Report,
) -> Option<Outcome> {
    let mut cmd = Command::new(&ctx.cli);
    cmd.arg("scan").arg(arena).arg("--arena");
    match w.shape {
        Shape::Batch {
            engine: Engine::ShardedLockstep { shards },
            ..
        } => {
            cmd.args(["--engine", "lockstep", "--shards", &shards.to_string()])
                .arg("--shard-dir")
                .arg(shard_dir);
        }
        Shape::Batch {
            engine: Engine::Batch,
            ..
        } => {
            cmd.args(["--engine", "batch"]);
        }
        _ => {
            cmd.args(["--engine", "auto"]);
        }
    }
    let out = match child::run(&mut cmd, timeout) {
        Ok(o) => o,
        Err(e) => {
            r.op(false, || format!("spawning bulkgcd scan: {e}"));
            return None;
        }
    };
    let check = check_findings(&out.stdout, &inp.scenario.findings);
    let ok = out.ok() && check.exact();
    r.op(ok, || {
        if out.ok() {
            format!("scan output differs from the planted findings: {check:?}")
        } else {
            format!("scan: {}", out.failure())
        }
    });
    ok.then_some(out)
}

/// Untraced batch run: reps of timed ingests for `setup_s` and an ingest +
/// scan, until `seconds` are used. Every time is calibrated.
pub fn run_batch(ctx: &Ctx, w: &Workload, inp: &Inputs, seconds: f64, deadline: Instant) -> Report {
    let mut r = Report::default();
    let Shape::Batch { nominal_scan_s, .. } = w.shape else {
        unreachable!("run_batch takes batch workloads")
    };
    let dir = match RunDir::new(ctx, w) {
        Ok(d) => d,
        Err(e) => {
            r.op(false, || e);
            return r;
        }
    };
    let arena = dir.join("corpus.arena");
    let (mut ingests, mut scans, mut e2e, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Raw walls: the timeouts and the run's length go by the clock.
    let (mut raw_ingests, mut raw_scans, mut raw_reps) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    // Warm-up (untimed): page in the binary and the corpus file.
    if cli_ingest(ctx, w, inp, &arena, op_timeout(&[], 1.0, deadline), &mut r).is_none() {
        return r;
    }
    let mut clock = Bracketed::start();
    'reps: for rep in 0.. {
        let rep_start = Instant::now();
        let mut walls = [0.0; SETUP_INGESTS_PER_REP];
        for wall in &mut walls {
            let timeout = op_timeout(&raw_ingests, 1.0, deadline);
            let Some(o) = cli_ingest(ctx, w, inp, &arena, timeout, &mut r) else {
                break 'reps;
            };
            raw_ingests.push(o.wall);
            *wall = o.wall;
        }
        ingests.extend(clock.ops(walls));
        let timeout = op_timeout(&raw_ingests, 1.0, deadline);
        let Some(ing) = cli_ingest(ctx, w, inp, &arena, timeout, &mut r) else {
            break;
        };
        raw_ingests.push(ing.wall);
        let shard_dir = dir.join(&format!("shards-{rep}"));
        let timeout = op_timeout(&raw_scans, nominal_scan_s, deadline);
        let scan = cli_scan(ctx, w, inp, &arena, &shard_dir, timeout, &mut r);
        let _ = std::fs::remove_dir_all(&shard_dir);
        let Some(scan) = scan else {
            break;
        };
        raw_scans.push(scan.wall);
        let [ing_s, scan_s] = clock.ops([ing.wall, scan.wall]);
        ingests.push(ing_s);
        scans.push(scan_s);
        e2e.push(ing_s + scan_s);
        rss.push(scan.peak_rss_kb as f64 / 1024.0);
        raw_reps.push(rep_start.elapsed().as_secs_f64());
        if !room_for_another(start, &raw_reps, seconds, deadline, MIN_REPS) {
            break;
        }
    }
    r.note(clock.note());
    if !raw_scans.is_empty() {
        r.note(format!(
            "uncalibrated wall: ingest median {:.6} s, scan median {:.3} s",
            median(&raw_ingests),
            median(&raw_scans)
        ));
    }
    for (name, v) in [
        ("setup_s", ingests),
        ("e2e_s", e2e),
        ("scan_s", scans),
        ("peak_rss_mb", rss),
    ] {
        if !v.is_empty() {
            r.set(name, v);
        }
    }
    r
}

/// Untraced key-service run: one CLI ingest builds the arena, then a child
/// `e2e_bench serve` times the index builds and serves the stream.
pub fn run_service(
    ctx: &Ctx,
    w: &Workload,
    inp: &Inputs,
    seconds: f64,
    deadline: Instant,
) -> Report {
    let mut r = Report::default();
    let Shape::Service {
        commit_every,
        setup_reps,
        ..
    } = w.shape
    else {
        unreachable!("run_service takes service workloads")
    };
    let dir = match RunDir::new(ctx, w) {
        Ok(d) => d,
        Err(e) => {
            r.op(false, || e);
            return r;
        }
    };
    let arena = dir.join("corpus.arena");
    if cli_ingest(ctx, w, inp, &arena, op_timeout(&[], 1.0, deadline), &mut r).is_none() {
        return r;
    }
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            r.op(false, || format!("locating this binary: {e}"));
            return r;
        }
    };
    let mut cmd = Command::new(exe);
    cmd.arg("serve")
        .arg(&arena)
        .arg(&inp.files.candidates)
        .arg(setup_reps.to_string())
        .arg(commit_every.to_string());
    let timeout = Duration::from_secs_f64(seconds + 60.0)
        .min(deadline.saturating_duration_since(Instant::now()));
    let out = match child::run(&mut cmd, timeout) {
        Ok(o) => o,
        Err(e) => {
            r.op(false, || format!("spawning the key service: {e}"));
            return r;
        }
    };
    r.op(out.ok(), || format!("key service: {}", out.failure()));
    let served = parse_serve(&out.stdout, &inp.scenario.candidates, &mut r);
    let latencies: Vec<f64> = served.samples.iter().map(Sample::latency).collect();
    let waits: Vec<f64> = served.samples.iter().map(Sample::wait).collect();
    if latencies.is_empty() || served.commits.is_empty() {
        return r;
    }
    // At the reference speed: each check's latency and service time divided
    // by the slowdown the service measured around it. The service time of
    // the few checks that fill a commit batch includes the commit.
    let calibrated: Vec<f64> = served.samples.iter().map(|s| s.latency() / s.out).collect();
    let service: Vec<f64> = served
        .samples
        .iter()
        .map(|s| (s.end - s.start) / s.out)
        .collect();
    let slowdowns: Vec<f64> = served.samples.iter().map(|s| s.out).collect();
    r.note(tail_note(
        "check latency at reference speed (due → answer)",
        &calibrated,
    ));
    r.note(tail_note("uncalibrated check latency", &latencies));
    r.note(format!(
        "queueing wait p99 {:.3} ms; generator lag max {:.3} ms; {} commits, uncalibrated median {:.3} s",
        percentile(&waits, 99.0) * 1e3,
        generator_lag(&served.samples) * 1e3,
        served.commits.len(),
        median(&served.commits)
    ));
    r.note(format!(
        "host slowdown vs reference between arrivals: median {:.3}, range {:.3}–{:.3}; uncalibrated index build median {:.3} s",
        median(&slowdowns),
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max),
        median(&served.setup_walls)
    ));
    // The latency tail is what a commit stall costs the checks queued
    // behind it; the median service time is the read path, `P mod n` over
    // the index.
    for (name, v) in [
        ("setup_s", served.setups),
        ("e2e_s", vec![percentile(&calibrated, SERVICE_TAIL_PERCENT)]),
        ("scan_s", service),
        ("peak_rss_mb", vec![out.peak_rss_kb as f64 / 1024.0]),
    ] {
        if !v.is_empty() && v.iter().all(|&x| x > 0.0) {
            r.set(name, v);
        }
    }
    r
}

/// What the serve child reported.
#[derive(Debug, Default)]
pub struct ServeLog {
    /// Calibrated index build seconds, one per setup rep.
    pub setups: Vec<f64>,
    /// Their uncalibrated walls.
    pub setup_walls: Vec<f64>,
    /// Per-check timing on the stream clock, with the slowdown the
    /// service measured around each check.
    pub samples: Vec<Sample<f64>>,
    /// Commit seconds.
    pub commits: Vec<f64>,
}

/// Parse the serve child's stdout and judge every answer: one op per
/// candidate, failed when its line is missing, malformed or wrong.
pub fn parse_serve(stdout: &str, cands: &[corpus::Candidate], r: &mut Report) -> ServeLog {
    let mut s = ServeLog::default();
    let mut answered = vec![false; cands.len()];
    let mut malformed = 0usize;
    for line in stdout.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        let ok = match f.as_slice() {
            ["setup", calibrated, wall] => match (calibrated.parse(), wall.parse()) {
                (Ok(c), Ok(w)) => {
                    s.setups.push(c);
                    s.setup_walls.push(w);
                    true
                }
                _ => false,
            },
            ["commit", secs] => secs.parse().map(|v| s.commits.push(v)).is_ok(),
            ["check", k, due, start, end, slowdown, hex] => {
                let parsed = (|| {
                    let k: usize = k.parse().ok()?;
                    let sample = Sample {
                        due: due.parse().ok()?,
                        start: start.parse().ok()?,
                        end: end.parse().ok()?,
                        out: slowdown.parse().ok().filter(|s: &f64| *s > 0.0)?,
                    };
                    Some((k, sample, Nat::from_hex(hex).ok()?))
                })();
                match parsed {
                    Some((k, sample, factor)) if k < cands.len() && !answered[k] => {
                        answered[k] = true;
                        let want = cands[k].expect.clone().unwrap_or_else(Nat::one);
                        r.op(factor == want, || {
                            format!(
                                "check {k}: answered {}, expected {}",
                                factor.to_hex(),
                                want.to_hex()
                            )
                        });
                        s.samples.push(sample);
                        true
                    }
                    _ => false,
                }
            }
            _ => false,
        };
        if !ok {
            malformed += 1;
        }
    }
    for (k, done) in answered.iter().enumerate() {
        if !done {
            r.op(false, || format!("check {k}: no answer"));
        }
    }
    if malformed > 0 {
        r.op(false, || {
            format!("key service printed {malformed} malformed line(s)")
        });
    }
    s
}

/// `e2e_bench serve <arena> <candidates> <setup-reps> <commit-every>`: the
/// key-service child. Times `setup-reps` index builds, then serves the
/// candidate stream open loop and prints one line per event.
pub fn serve_main(args: &[String]) -> Result<(), String> {
    let [arena, cands, reps, every] = args else {
        return Err(
            "usage: e2e_bench serve <arena> <candidates> <setup-reps> <commit-every>".into(),
        );
    };
    let reps: usize = reps
        .parse()
        .map_err(|_| format!("bad setup reps {reps:?}"))?;
    let every: usize = every
        .parse()
        .map_err(|_| format!("bad commit size {every:?}"))?;
    let cands = corpus::read_candidates(Path::new(cands))?;
    let mut index = None;
    let mut setups = Vec::new();
    let mut timer = Bracketed::start();
    for _ in 0..reps.max(1) {
        drop(index.take());
        let t0 = Instant::now();
        let mut source = ArenaSource::open(Path::new(arena)).map_err(|e| e.to_string())?;
        index = Some(CorpusIndex::from_arena_source(&mut source).map_err(|e| e.to_string())?);
        let wall = t0.elapsed().as_secs_f64();
        let [calibrated] = timer.ops([wall]);
        setups.push((calibrated, wall));
    }
    let mut svc = KeyService::new(index.expect("at least one setup rep"), every);
    let dues: Vec<f64> = cands.iter().map(|c| c.0).collect();
    // Checks run on the server's one core, so one-thread slices measure
    // the speed they see.
    let mut clock = WallClock::start(Calibrator::new());
    let samples = run_open_loop(&dues, &mut clock, |i, _| svc.serve(&cands[i].1));
    let flush = svc.flush()?;

    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let io = |e: std::io::Error| e.to_string();
    for (calibrated, wall) in setups {
        writeln!(out, "setup {calibrated} {wall}").map_err(io)?;
    }

    for (k, s) in samples.into_iter().enumerate() {
        let served = s.out?;
        let slowdown = clock
            .slowdown_near(s.due, SLOWDOWN_WINDOW_S)
            .ok_or("no calibration slice ran near a check")?;
        writeln!(
            out,
            "check {k} {} {} {} {slowdown} {}",
            s.due,
            s.start,
            s.end,
            served.factor.to_hex()
        )
        .map_err(io)?;
        if let Some((c0, c1)) = served.commit {
            writeln!(out, "commit {}", (c1 - c0).as_secs_f64()).map_err(io)?;
        }
    }
    if let Some((c0, c1)) = flush {
        writeln!(out, "commit {}", (c1 - c0).as_secs_f64()).map_err(io)?;
    }
    out.flush().map_err(io)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_cover_every_workload_at_the_longest_run() {
        for smoke in [false, true] {
            for w in catalog(smoke) {
                let need = w.corpus.primes_needed()
                    + w.stream(MAX_SECONDS as f64).map_or(0, |s| s.primes_bound());
                assert!(pool_count(w.corpus.prime_bits, smoke) >= need, "{}", w.name);
                assert!(w.corpus.clean_keys() > 0);
            }
        }
    }

    #[test]
    fn device_2048_stays_below_the_product_tree_threshold() {
        // `--engine auto` must keep resolving to lockstep there.
        let device = catalog(false)[1];
        assert_eq!(device.name, "device-2048");
        assert!(device.corpus.keys < bulkgcd_bulk::AUTO_PRODUCT_TREE_MIN_MODULI);
    }

    #[test]
    fn release_profile_matches_the_repository() {
        // In-process layer times are compared with the CLI binary's, so
        // both must be compiled alike.
        let profile = |manifest: &Path| -> Vec<String> {
            let text = std::fs::read_to_string(manifest).unwrap();
            let start = text.find("[profile.release]").expect("a release profile");
            text[start..]
                .lines()
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        let here = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        assert_eq!(profile(&here), profile(&repo_root().join("Cargo.toml")));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let path = crate::BENCHMARK_JSON;
        let bench = crate::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared: Vec<&str> = bench
            .get("workloads")
            .and_then(crate::json::Json::arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().str().unwrap())
            .collect();
        let names: Vec<&str> = catalog(false).iter().map(|w| w.name).collect();
        assert_eq!(declared, names);
    }

    #[test]
    fn serve_output_is_judged_per_candidate() {
        let cands = vec![
            corpus::Candidate {
                due: 0.0,
                n: Nat::from_u64(15),
                expect: None,
            },
            corpus::Candidate {
                due: 0.1,
                n: Nat::from_u64(21),
                expect: Some(Nat::from_u64(7)),
            },
        ];
        let mut r = Report::default();
        let s = parse_serve(
            "setup 0.5 0.6\ncheck 0 0 0 0.01 1.2 1\ncheck 1 0.1 0.1 0.12 0.8 7\ncommit 0.2\n",
            &cands,
            &mut r,
        );
        assert_eq!((r.attempted, r.failed), (2, 0));
        assert_eq!(s.samples.len(), 2);
        assert_eq!((s.setups, s.setup_walls), (vec![0.5], vec![0.6]));
        assert_eq!((s.samples[1].out, s.commits.len()), (0.8, 1));

        let mut r = Report::default();
        parse_serve("check 0 0 0 0.01 1 3\nbogus\n", &cands, &mut r);
        // wrong answer, missing answer, malformed line
        assert_eq!((r.attempted, r.failed), (3, 3));
    }
}

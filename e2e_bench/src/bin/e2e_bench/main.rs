//! `e2e_bench` — end-to-end benchmark of `bulkgcd`: corpus file to
//! attributed weak-key findings, over four weak-key workloads, with a
//! traced per-layer breakdown. See `README.md` next to this package.
//!
//! ```text
//! e2e_bench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! e2e_bench --smoke [--seed <n>]
//! e2e_bench compare <parent-results…> -- <change-results…>
//! ```
//!
//! The last stdout line of a workload run is its JSON result:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod calib;
mod child;
mod compare;
mod corpus;
mod json;
mod replay;
mod report;
mod service;
mod stats;
mod trace;
mod workload;

use report::Report;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Ctx, Shape, Workload};

/// Hard cap on one workload run after its inputs exist, so a run always
/// ends inside the 180 s the benchmark promises.
const RUN_DEADLINE: Duration = Duration::from_secs(160);

/// The repository's benchmark definition: metric names, units, directions
/// and bounds.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => o.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                }
            }
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !o.smoke && o.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if o.seconds == 0 || o.seconds > workload::MAX_SECONDS {
        return Err(format!("--seconds must be 1..={}", workload::MAX_SECONDS));
    }
    Ok(o)
}

/// Run one workload: inputs, measurement, checks. Prints the table and the
/// JSON line and saves the result for `compare`.
fn run_one(
    ctx: &Ctx,
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let inputs = workload::prepare(ctx, w, seed, seconds)?;
    let deadline = Instant::now() + RUN_DEADLINE;
    let mut report = match (w.shape, trace) {
        (Shape::Batch { .. }, false) => workload::run_batch(ctx, w, &inputs, seconds, deadline),
        (Shape::Service { .. }, false) => workload::run_service(ctx, w, &inputs, seconds, deadline),
        (shape, true) => {
            let (report, tracer) = match shape {
                Shape::Batch { .. } => replay::trace_batch(ctx, w, &inputs, seconds, deadline),
                Shape::Service { .. } => replay::trace_service(ctx, w, &inputs, deadline),
            };
            let dir = ctx.target.join("e2e-traces");
            let path = dir.join(format!("{}.json", ctx.label(w, seed)));
            let saved = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, tracer.to_json()));
            if let Err(e) = saved {
                eprintln!("e2e_bench: could not save the trace: {e}");
            }
            report
        }
    };
    if report.correct() {
        if let Err(e) = report.validate(trace) {
            report.op(false, || e);
        }
    }
    print!("{}", report.table(w.name, trace));
    let line = report.json(trace);
    println!("{line}");
    // The run id (start time and pid) keeps every run's result: `compare`
    // pairs runs of one seed, so repeated runs must not overwrite each other.
    let run_id = format!(
        "{}-p{}",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis()),
        std::process::id()
    );
    let dir = ctx.target.join("e2e-results");
    let saved = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!(
                "{}-t{}-{run_id}.json",
                ctx.label(w, seed),
                u8::from(trace)
            )),
            format!(
                "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"result\": {line}}}\n",
                json::quote(w.name),
                u8::from(trace)
            ),
        )
    });
    if let Err(e) = saved {
        eprintln!("e2e_bench: could not save the result: {e}");
    }
    Ok(report)
}

fn bench(o: &Opts) -> Result<bool, String> {
    let ctx = Ctx::new(o.smoke)?;
    let all = workload::catalog(o.smoke);
    let mut correct = true;
    if o.smoke {
        let start = Instant::now();
        for w in &all {
            for trace in [false, true] {
                correct &= run_one(&ctx, w, o.seed, 0.5, trace)?.correct();
            }
        }
        eprintln!(
            "e2e_bench: smoke finished in {:.1} s",
            start.elapsed().as_secs_f64()
        );
        return Ok(correct);
    }
    let chosen: Vec<&Workload> = if o.workload == "all" {
        all.iter().collect()
    } else {
        let w = all
            .iter()
            .find(|w| w.name == o.workload)
            .ok_or_else(|| format!("unknown workload {:?}", o.workload))?;
        vec![w]
    };
    for w in chosen {
        correct &= run_one(&ctx, w, o.seed, o.seconds as f64, o.trace)?.correct();
    }
    Ok(correct)
}

fn main() -> ExitCode {
    // Every scan runs on one worker thread. On a small shared host the
    // cores may be hyperthreads of one physical core, so a second thread's
    // gain swings with where the host places them, and no calibration
    // follows that. CLI and key-service children inherit this, and the
    // in-process replay's rayon reads it on first use.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("serve") => workload::serve_main(&args[1..]).map(|()| 0),
        Some("compare") => compare::main(&args[1..]),
        _ => parse_opts(&args)
            .and_then(|o| bench(&o))
            .map(|ok| if ok { 0 } else { 1 }),
    };
    match outcome {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::from(2)
        }
    }
}

//! `e2e_bench compare <parent-results…> -- <change-results…>`: judge a
//! change against its parent, per workload and metric.
//!
//! * Correctness comes first. Every workload gets an `ops` row with each
//!   side's correct runs and error rate (failed ÷ attempted ops). It
//!   regresses when any change run is incorrect (a missing or extra
//!   finding, a wrong check answer, any failed op), or when the parent has
//!   runs of the workload and the change has none. Metrics are judged on
//!   correct runs only.
//! * Regression: the change's median is worse than the parent's by more
//!   than the metric's `BENCHMARK.json` bound, or the change lacks a metric
//!   the parent reported.
//! * Gain: at least ten parent/change pairs (the k-th runs of a seed on
//!   each side pair up), the change wins at least nine tenths of them (ties
//!   count for neither), and the medians differ by more than the parent's
//!   IQR.
//! * Unresolved: the run-to-run spread (IQR over median, either side) is
//!   wider than the bound, unless every change run beats every parent run.

use crate::json::{self, Json};
use crate::stats::{iqr, median, quantiles};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Shown better by the gain rule.
    Better,
    /// Within the bound.
    NoWorse,
    /// Worse than the bound allows.
    Regressed,
    /// Spread wider than the bound.
    Unresolved,
    /// No bound (per-layer metric) and no shown gain.
    Info,
}

/// Judge one metric. `pairs` are `(parent, change)` values of runs with the
/// same seed.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    lower_is_better: bool,
    bound: Option<f64>,
) -> Verdict {
    let (mp, mc) = (median(parent), median(change));
    let beats = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let wins = pairs.iter().filter(|(p, c)| beats(*c, *p)).count();
    if pairs.len() >= 10
        && wins * 10 >= 9 * pairs.len()
        && beats(mc, mp)
        && (mc - mp).abs() > iqr(parent)
    {
        return Verdict::Better;
    }
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    let rel_spread = |v: &[f64], m: f64| {
        if v.len() < 2 || m == 0.0 {
            0.0
        } else {
            iqr(v) / m.abs()
        }
    };
    let spread = rel_spread(parent, mp).max(rel_spread(change, mc));
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    if spread > bound {
        return if all_better {
            Verdict::NoWorse
        } else {
            Verdict::Unresolved
        };
    }
    let worse = if mp == 0.0 {
        if beats(mp, mc) {
            f64::INFINITY
        } else {
            0.0
        }
    } else if lower_is_better {
        (mc - mp) / mp.abs()
    } else {
        (mp - mc) / mp.abs()
    };
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::NoWorse
    }
}

/// One saved run.
#[derive(Debug, Clone)]
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// The runs of one workload in one mode, in load order.
fn runs_of<'a>(runs: &'a [Run], workload: &str, trace: bool) -> Vec<&'a Run> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .collect()
}

/// Pair the k-th parent run of each seed with the k-th change run of the
/// same seed (runs in the order they were loaded).
fn pair_up<'a>(parent: &[&'a Run], change: &[&'a Run]) -> Vec<(&'a Run, &'a Run)> {
    let mut used = vec![false; change.len()];
    parent
        .iter()
        .filter_map(|p| {
            let k = (0..change.len()).find(|&k| !used[k] && change[k].seed == p.seed)?;
            used[k] = true;
            Some((*p, change[k]))
        })
        .collect()
}

/// Judge correctness on one workload: any incorrect change run, or no
/// change runs where the parent has some, is a regression.
fn judge_ops(parent: &[&Run], change: &[&Run]) -> Verdict {
    if change.iter().any(|r| !r.correct) || (change.is_empty() && !parent.is_empty()) {
        Verdict::Regressed
    } else {
        Verdict::NoWorse
    }
}

/// `correct/runs` and the error rate (failed ÷ attempted ops) of one side.
fn ops_summary(runs: &[&Run]) -> String {
    let correct = runs.iter().filter(|r| r.correct).count();
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let rate = if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    };
    format!(
        "{correct}/{} runs correct, error_rate {rate:.6} ({failed}/{attempted} ops)",
        runs.len()
    )
}

fn collect(paths: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for p in paths {
        let p = Path::new(p);
        if p.is_dir() {
            let mut inner: Vec<PathBuf> = std::fs::read_dir(p)
                .map_err(|e| format!("{}: {e}", p.display()))?
                .flatten()
                .map(|e| e.path())
                .filter(|f| f.extension().is_some_and(|x| x == "json"))
                .collect();
            inner.sort();
            files.extend(inner);
        } else {
            files.push(p.to_path_buf());
        }
    }
    Ok(files)
}

fn load(paths: &[String]) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for f in collect(paths)? {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let v = json::parse(text.trim()).map_err(|e| format!("{}: {e}", f.display()))?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("{}: no {k:?}", f.display()));
        let result = field("result")?;
        let count = |k: &str| {
            result
                .get(k)
                .and_then(Json::num)
                .map(|x| x as u64)
                .ok_or_else(|| format!("{}: no {k:?}", f.display()))
        };
        let metrics = result
            .get("metrics")
            .and_then(Json::obj)
            .ok_or_else(|| format!("{}: no metrics", f.display()))?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.num()?)))
            .collect();
        runs.push(Run {
            workload: field("workload")?.str().unwrap_or_default().to_string(),
            seed: field("seed")?.num().unwrap_or(0.0) as u64,
            trace: field("trace")?.num() == Some(1.0),
            correct: result.get("correct") == Some(&Json::Bool(true)),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        });
    }
    Ok(runs)
}

/// The metric catalog of `BENCHMARK.json`.
fn catalog(bench: &Json) -> Catalog {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in bench.get(key).and_then(Json::arr).unwrap_or_default() {
            let Some(name) = m.get("name").and_then(Json::str) else {
                continue;
            };
            let unit = m.get("unit").and_then(Json::str).unwrap_or("").to_string();
            let lower = m.get("better").and_then(Json::str) != Some("higher");
            out.insert(
                name.to_string(),
                (unit, lower, m.get("bound").and_then(Json::num)),
            );
        }
    }
    out
}

fn fmt(v: &[f64]) -> String {
    let q = quantiles(v, 4);
    format!("{:.6} [{:.6}, {:.6}] n={}", median(v), q[0], q[2], v.len())
}

/// Metric name → (unit, lower is better, bound).
type Catalog = BTreeMap<String, (String, bool, Option<f64>)>;

/// Run the comparison; returns the process exit code (1 if anything
/// regressed).
pub fn main(args: &[String]) -> Result<i32, String> {
    let sep = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: e2e_bench compare <parent-results…> -- <change-results…>")?;
    let parent = load(&args[..sep])?;
    let change = load(&args[sep + 1..])?;
    let bench_path = crate::BENCHMARK_JSON;
    let bench = json::parse(
        &std::fs::read_to_string(bench_path).map_err(|e| format!("{bench_path}: {e}"))?,
    )?;
    let (table, regressed) = compare(&parent, &change, &catalog(&bench));
    print!("{table}");
    Ok(i32::from(regressed))
}

/// The verdict table for every workload × mode × metric, and whether
/// anything regressed.
fn compare(parent: &[Run], change: &[Run], cat: &Catalog) -> (String, bool) {
    let groups: BTreeSet<(&str, bool)> = parent
        .iter()
        .chain(change)
        .map(|r| (r.workload.as_str(), r.trace))
        .collect();
    let mut regressed = false;
    let mut out = String::from("workload metric unit | parent median [q1, q3] | change median [q1, q3] | change/parent | wins/pairs | verdict\n");
    for (wl, trace) in groups {
        let (p, c) = (runs_of(parent, wl, trace), runs_of(change, wl, trace));
        let ops = judge_ops(&p, &c);
        regressed |= ops == Verdict::Regressed;
        let mode = if trace { "traced" } else { "untraced" };
        let _ = writeln!(
            out,
            "{wl} ops ({mode}) | {} | {} | - | - | {ops:?}",
            ops_summary(&p),
            ops_summary(&c)
        );
        let pairs = pair_up(&p, &c);
        for (name, (unit, lower, bound)) in cat {
            // Per-layer metrics (no bound) come from traced runs only.
            if trace != bound.is_none() {
                continue;
            }
            let value = |r: &Run| r.metrics.get(name).copied().filter(|_| r.correct);
            let pv: Vec<f64> = p.iter().filter_map(|r| value(r)).collect();
            let cv: Vec<f64> = c.iter().filter_map(|r| value(r)).collect();
            if pv.is_empty() {
                continue;
            }
            if cv.is_empty() {
                regressed = true;
                let _ = writeln!(
                    out,
                    "{wl} {name} {unit} | {} | missing | - | - | Regressed",
                    fmt(&pv)
                );
                continue;
            }
            let metric_pairs: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(a, b)| Some((value(a)?, value(b)?)))
                .collect();
            let v = judge(&pv, &cv, &metric_pairs, *lower, *bound);
            regressed |= v == Verdict::Regressed;
            let wins = metric_pairs
                .iter()
                .filter(|(a, b)| if *lower { b < a } else { b > a })
                .count();
            let _ = writeln!(
                out,
                "{wl} {name} {unit} | {} | {} | {:.4} | {wins}/{} | {v:?}",
                fmt(&pv),
                fmt(&cv),
                median(&cv) / median(&pv),
                metric_pairs.len()
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    #[test]
    fn a_consistent_win_is_a_gain() {
        let p: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let c: Vec<f64> = p.iter().map(|x| x * 0.9).collect();
        assert_eq!(
            judge(&p, &c, &pairs(&p, &c), true, Some(0.1)),
            Verdict::Better
        );
        // Nine pairs are not enough, even all won.
        assert_eq!(
            judge(&p[..9], &c[..9], &pairs(&p[..9], &c[..9]), true, Some(0.1)),
            Verdict::NoWorse
        );
    }

    #[test]
    fn worse_by_more_than_the_bound_regresses() {
        let p = [10.0, 10.1, 9.9, 10.0, 10.05];
        let c = [11.5, 11.6, 11.4, 11.5, 11.55];
        assert_eq!(
            judge(&p, &c, &pairs(&p, &c), true, Some(0.1)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&p, &c, &pairs(&p, &c), true, Some(0.2)),
            Verdict::NoWorse
        );
        // Higher is better: a drop regresses.
        assert_eq!(
            judge(&c, &p, &pairs(&c, &p), false, Some(0.1)),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let p = [10.0, 14.0, 8.0, 12.0, 9.0];
        let c = [10.5, 13.0, 8.5, 12.5, 9.5];
        assert_eq!(
            judge(&p, &c, &pairs(&p, &c), true, Some(0.05)),
            Verdict::Unresolved
        );
        let c = [7.0, 7.5, 6.5, 7.2, 7.1];
        assert_eq!(
            judge(&p, &c, &pairs(&p, &c), true, Some(0.05)),
            Verdict::NoWorse
        );
    }

    fn run(seed: u64, failed: u64, e2e_s: f64) -> Run {
        Run {
            workload: "w".into(),
            seed,
            trace: false,
            correct: failed == 0,
            attempted: 10,
            failed,
            metrics: [("e2e_s".to_string(), e2e_s)].into_iter().collect(),
        }
    }

    #[test]
    fn an_incorrect_change_run_regresses_even_when_faster() {
        let cat: Catalog = [("e2e_s".to_string(), ("s".to_string(), true, Some(0.1)))]
            .into_iter()
            .collect();
        let parent: Vec<Run> = (0..10).map(|s| run(s, 0, 1.0 + 0.001 * s as f64)).collect();
        let mut change: Vec<Run> = (0..10).map(|s| run(s, 0, 0.5)).collect();
        let (table, regressed) = compare(&parent, &change, &cat);
        assert!(!regressed, "{table}");
        assert!(
            table.contains("e2e_s s |") && table.contains("Better"),
            "{table}"
        );

        // One change run misses a finding: the ops row regresses, and the
        // run's time is left out of the metric.
        change[3] = run(3, 1, 0.1);
        let (table, regressed) = compare(&parent, &change, &cat);
        assert!(regressed, "{table}");
        assert!(table.contains("w ops (untraced) | 10/10 runs correct, error_rate 0.000000 (0/100 ops) | 9/10 runs correct, error_rate 0.010000 (1/100 ops) | - | - | Regressed"), "{table}");
        assert!(table.contains("n=9"), "{table}");

        // Every change run failed: nothing to time, still a regression.
        let broken: Vec<Run> = (0..10).map(|s| run(s, 2, 0.5)).collect();
        let (table, regressed) = compare(&parent, &broken, &cat);
        assert!(regressed && table.contains("missing"), "{table}");

        // No change runs of a workload the parent ran.
        let (table, regressed) = compare(&parent, &[], &cat);
        assert!(regressed && table.contains("0/0 runs correct"), "{table}");
    }

    #[test]
    fn repeated_seeds_pair_in_run_order() {
        let parent = [run(1, 0, 1.0), run(1, 0, 2.0), run(2, 0, 3.0)];
        let change = [run(2, 0, 30.0), run(1, 0, 10.0), run(1, 0, 20.0)];
        let (p, c) = (runs_of(&parent, "w", false), runs_of(&change, "w", false));
        let pairs: Vec<(f64, f64)> = pair_up(&p, &c)
            .iter()
            .map(|(a, b)| (a.metrics["e2e_s"], b.metrics["e2e_s"]))
            .collect();
        assert_eq!(pairs, [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]);
    }

    #[test]
    fn unbounded_metrics_are_informational() {
        let p = [1.0, 2.0];
        assert_eq!(judge(&p, &p, &pairs(&p, &p), true, None), Verdict::Info);
    }
}

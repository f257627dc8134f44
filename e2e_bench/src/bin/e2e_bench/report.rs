//! The metric catalog and the run report every mode prints.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a run
//! refuses to print a result that lacks any of them.

use crate::json::quote;
use crate::stats::{percentile, tail_percent, Summary};
use std::fmt::Write as _;

/// End-to-end metrics (untraced runs), with units. Every workload reports
/// each one. On the key service, which has no scan, `e2e_s` is the check
/// latency's tail percentile and `scan_s` its median; see the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("e2e_s", "s"),
    ("setup_s", "s"),
    ("scan_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ingest.parse_s", "s"),
    ("ingest.sanitize_s", "s"),
    ("ingest.rejected", "count"),
    ("store.write_s", "s"),
    ("store.bytes", "bytes"),
    ("store.open_s", "s"),
    ("store.load_s", "s"),
    ("scan.run_s", "s"),
    ("scan.pairs", "count"),
    ("scan.findings", "count"),
    ("lockstep.occupancy", "ratio"),
    ("lockstep.compactions", "count"),
    ("lockstep.refills", "count"),
    ("lockstep.launches", "count"),
    ("shard.run_s", "s"),
    ("shard.tiles", "count"),
    ("shard.executed_launches", "count"),
    ("shard.journal_records", "count"),
    ("shard.journal_bytes", "bytes"),
    ("shard.overhead", "ratio"),
    ("batch.build_s", "s"),
    ("batch.gcd_s", "s"),
    ("batch.flagged", "count"),
    ("batch.overhead_s", "s"),
    ("incremental.build_s", "s"),
    ("incremental.check_ms", "ms"),
    ("incremental.commit_s", "s"),
    ("incremental.wait_p99_ms", "ms"),
    ("bigint.root_rem_ms", "ms"),
    ("bigint.gcd_ref_us", "us"),
    ("attribution.s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// One metric's samples; its reported value is their median.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalog name.
    pub name: &'static str,
    /// Samples taken in this run.
    pub samples: Vec<f64>,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: CLI invocations, checks, key recoveries.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Metric samples.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (labels, tail latencies).
    pub notes: Vec<String>,
}

impl Report {
    /// Record one operation's outcome.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Set metric `name` from `samples` (replacing earlier samples).
    pub fn set(&mut self, name: &'static str, samples: Vec<f64>) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, samples });
    }

    /// Append one sample to metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => m.samples.push(value),
            None => self.metrics.push(Metric {
                name,
                samples: vec![value],
            }),
        }
    }

    /// Add a free-form line to the printed report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// No failed operation.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn catalog(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Check that exactly the catalog's metrics are present, each with at
    /// least one finite sample.
    pub fn validate(&self, trace: bool) -> Result<(), String> {
        let catalog = Self::catalog(trace);
        for (name, _) in catalog {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.samples.is_empty() || m.samples.iter().any(|v| !v.is_finite()) {
                return Err(format!("metric {name} has no finite samples"));
            }
        }
        if let Some(m) = self
            .metrics
            .iter()
            .find(|m| !catalog.iter().any(|c| c.0 == m.name))
        {
            return Err(format!("metric {} is not in the catalog", m.name));
        }
        Ok(())
    }

    /// The human-readable table: every metric with median, IQR and sample
    /// count, then notes and failures.
    pub fn table(&self, workload: &str, trace: bool) -> String {
        let mut out = format!(
            "== {workload} ({}) — {} ops attempted, {} failed\n",
            if trace { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>14} {:>12} {:>4}  unit",
            "metric", "median", "iqr", "n"
        );
        for (name, unit) in Self::catalog(trace) {
            if let Some(m) = self.metrics.iter().find(|m| m.name == *name) {
                let s = Summary::of(&m.samples);
                let _ = writeln!(
                    out,
                    "  {name:<24} {:>14.6} {:>12.6} {:>4}  {unit}",
                    s.median, s.iqr, s.n
                );
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// median of every metric.
    pub fn json(&self, trace: bool) -> String {
        let mut metrics = Vec::new();
        for (name, unit) in Self::catalog(trace) {
            if let Some(m) = self.metrics.iter().find(|m| m.name == *name) {
                let v = Summary::of(&m.samples).median;
                if !v.is_finite() {
                    // Only a failed run gets here; keep the line valid JSON.
                    continue;
                }
                metrics.push(format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                ));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The median and the tail percentile ([`tail_percent`]) of latencies
/// (seconds) as a note, with the count of samples beyond the tail.
pub fn tail_note(label: &str, seconds: &[f64]) -> String {
    let p = tail_percent(seconds.len());
    let tail = percentile(seconds, p);
    let beyond = seconds.iter().filter(|&&s| s > tail).count();
    format!(
        "{label}: p50 {:.3} ms, p{p:.1} {:.3} ms ({} samples, {beyond} beyond)",
        percentile(seconds, 50.0) * 1e3,
        tail * 1e3,
        seconds.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.op(true, String::new);
        for (name, _) in END_TO_END {
            r.set(name, vec![1.0, 3.0, 2.0]);
        }
        r.validate(false).unwrap();
        let v = crate::json::parse(&r.json(false)).unwrap();
        let keys: Vec<&String> = v.obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("e2e_s").unwrap();
        assert_eq!(m.get("value").and_then(crate::json::Json::num), Some(2.0));
        assert!(r.validate(true).is_err(), "per-layer metrics missing");
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.op(true, String::new);
        assert!(r.correct());
        r.op(false, || "scan printed an extra line".into());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = crate::BENCHMARK_JSON;
        let bench = crate::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(&str, &str)> = bench
                .get(key)
                .and_then(crate::json::Json::arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().str().unwrap(),
                        m.get("unit").unwrap().str().unwrap(),
                    )
                })
                .collect();
            assert_eq!(declared, catalog, "{key}");
        }
    }
}

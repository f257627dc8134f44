//! Child processes: run with a timeout, time to the exit, track peak RSS,
//! and judge the CLI's output against ground truth.

use crate::corpus::Bait;
use bulkgcd_bigint::Nat;
use std::io::Read;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// How a child process ended.
#[derive(Debug)]
pub struct Outcome {
    /// Exit status, or `None` when the child was killed for overrunning.
    pub status: Option<ExitStatus>,
    /// Spawn to exit, seconds.
    pub wall: f64,
    /// Everything the child wrote to stdout.
    pub stdout: String,
    /// Everything the child wrote to stderr.
    pub stderr: String,
    /// Highest `VmHWM` seen while polling `/proc/<pid>/status`, KiB.
    pub peak_rss_kb: u64,
}

impl Outcome {
    /// Exited on its own with status 0.
    pub fn ok(&self) -> bool {
        self.status.is_some_and(|s| s.success())
    }

    /// One line saying why the child failed (for the run log).
    pub fn failure(&self) -> String {
        match self.status {
            None => format!("killed after {:.1} s timeout", self.wall),
            Some(s) => format!(
                "exited with {s}; stderr: {}",
                self.stderr.lines().last().unwrap_or("")
            ),
        }
    }
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn drain(mut pipe: impl Read + Send + 'static) -> thread::JoinHandle<String> {
    thread::spawn(move || {
        let mut buf = Vec::new();
        // A read error only truncates the captured text; the exit status
        // still decides the outcome.
        let _ = pipe.read_to_end(&mut buf);
        String::from_utf8_lossy(&buf).into_owned()
    })
}

/// Run `cmd` to completion, killing it after `timeout`. The wall time runs
/// from just before spawn to the moment `wait` returns, measured on a
/// waiter thread so polling never adds to it.
pub fn run(cmd: &mut Command, timeout: Duration) -> std::io::Result<Outcome> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = child.id();
    let out = drain(child.stdout.take().expect("stdout is piped"));
    let err = drain(child.stderr.take().expect("stderr is piped"));
    let (tx, rx) = mpsc::channel();
    let waiter = thread::spawn(move || {
        let status = child.wait();
        let end = Instant::now();
        // The receiver outlives the waiter; a send error cannot occur.
        let _ = tx.send((status, end));
    });
    let mut peak = 0u64;
    let mut killed = false;
    let (status, end) = loop {
        // Poll fast at first so short-lived children still show a peak.
        let poll = if start.elapsed() < Duration::from_millis(100) {
            1
        } else {
            10
        };
        match rx.recv_timeout(Duration::from_millis(poll)) {
            Ok(done) => break done,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak = peak.max(kb);
                }
                if !killed && start.elapsed() > timeout {
                    killed = true;
                    // The waiter still reaps the child after the kill.
                    let _ = Command::new("kill")
                        .args(["-KILL", &pid.to_string()])
                        .stdout(Stdio::null())
                        .stderr(Stdio::null())
                        .status();
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("the waiter always sends before exiting")
            }
        }
    };
    waiter.join().expect("waiter thread panicked");
    let status = status?;
    Ok(Outcome {
        status: (!killed).then_some(status),
        wall: end.duration_since(start).as_secs_f64(),
        stdout: out.join().expect("stdout reader panicked"),
        stderr: err.join().expect("stderr reader panicked"),
        peak_rss_kb: peak,
    })
}

/// Differences between a scan's stdout and the planted findings.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FindingCheck {
    /// Planted findings reported exactly.
    pub matched: usize,
    /// Planted findings not reported.
    pub missing: usize,
    /// Well-formed findings that were not planted (or repeated).
    pub extra: usize,
    /// Lines that are not `i j factor-hex`.
    pub malformed: usize,
}

impl FindingCheck {
    /// True when the output is exactly the planted findings.
    pub fn exact(&self) -> bool {
        self.missing == 0 && self.extra == 0 && self.malformed == 0
    }
}

/// Parse `i j factor-hex` lines.
fn parse_finding(line: &str) -> Option<(usize, usize, Nat)> {
    let mut parts = line.split(' ');
    let i = parts.next()?.parse().ok()?;
    let j = parts.next()?.parse().ok()?;
    let f = Nat::from_hex(parts.next()?).ok()?;
    (parts.next().is_none() && i < j).then_some((i, j, f))
}

/// Compare the CLI's finding lines with `truth` (sorted by `(i, j)`). The
/// output must be exactly the planted set: one line per finding, nothing
/// else ("no shared factors found" only when nothing is planted).
pub fn check_findings(stdout: &str, truth: &[(usize, usize, Nat)]) -> FindingCheck {
    let mut check = FindingCheck::default();
    let mut seen = vec![false; truth.len()];
    for line in stdout.lines() {
        if truth.is_empty() && line == "no shared factors found" {
            continue;
        }
        let Some((i, j, f)) = parse_finding(line) else {
            check.malformed += 1;
            continue;
        };
        match truth.binary_search_by(|t| (t.0, t.1).cmp(&(i, j))) {
            Ok(k) if !seen[k] && truth[k].2 == f => {
                seen[k] = true;
                check.matched += 1;
            }
            _ => check.extra += 1,
        }
    }
    check.missing = truth.len() - check.matched;
    check
}

/// Check the ingest quarantine report on stderr against the planted bait:
/// every hostile line, and nothing else, is quarantined for its reason.
pub fn check_quarantine(stderr: &str, expected: &[(usize, Bait)]) -> Result<(), String> {
    let mut got: Vec<(usize, String)> = Vec::new();
    for line in stderr.lines() {
        if let Some(rest) = line.trim_start().strip_prefix("quarantined modulus #") {
            let (idx, reason) = rest
                .split_once(": ")
                .ok_or_else(|| format!("malformed quarantine line {line:?}"))?;
            let idx: usize = idx
                .parse()
                .map_err(|_| format!("malformed quarantine index in {line:?}"))?;
            got.push((idx, reason.to_string()));
        }
    }
    if got.len() != expected.len() {
        return Err(format!(
            "{} lines quarantined, {} planted",
            got.len(),
            expected.len()
        ));
    }
    for &(idx, bait) in expected {
        let reason = got
            .iter()
            .find(|g| g.0 == idx)
            .map(|g| g.1.as_str())
            .ok_or_else(|| format!("planted hostile line #{idx} was not quarantined"))?;
        let ok = match bait {
            Bait::Zero => reason == "zero modulus",
            Bait::Even => reason == "even modulus",
            Bait::Undersized => reason.starts_with("undersized modulus"),
            Bait::Duplicate(of) => reason == format!("duplicate of modulus #{of}"),
        };
        if !ok {
            return Err(format!(
                "line #{idx} quarantined as {reason:?}, planted {bait:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> Vec<(usize, usize, Nat)> {
        vec![(1, 4, Nat::from_u64(0xb)), (2, 9, Nat::from_u64(0xd))]
    }

    #[test]
    fn exact_output_passes() {
        let c = check_findings("1 4 b\n2 9 d\n", &truth());
        assert!(c.exact());
        assert_eq!(c.matched, 2);
    }

    #[test]
    fn a_malformed_or_extra_line_fails_the_op() {
        assert_eq!(
            check_findings("1 4 b\n2 9 d\nwarning: x\n", &truth()).malformed,
            1
        );
        assert!(!check_findings("1 4 b\n2 9 d\n1 4\n", &truth()).exact());
        assert!(!check_findings("1 4 b\n2 9 d\n4 1 b\n", &truth()).exact());
        let extra = check_findings("1 4 b\n2 9 d\n3 5 b\n", &truth());
        assert_eq!(extra.extra, 1);
        assert!(!extra.exact());
        let repeated = check_findings("1 4 b\n1 4 b\n2 9 d\n", &truth());
        assert_eq!(repeated.extra, 1);
        let wrong_factor = check_findings("1 4 d\n2 9 d\n", &truth());
        assert_eq!((wrong_factor.extra, wrong_factor.missing), (1, 1));
        assert_eq!(check_findings("1 4 b\n", &truth()).missing, 1);
        assert!(!check_findings("no shared factors found\n", &truth()).exact());
        assert!(check_findings("no shared factors found\n", &[]).exact());
    }

    #[test]
    fn quarantine_report_must_match_the_bait() {
        let expected = [(0, Bait::Zero), (3, Bait::Duplicate(1))];
        let good = "accepted 2 of 4 moduli (...)\n  quarantined modulus #0: zero modulus\n  quarantined modulus #3: duplicate of modulus #1\n";
        assert!(check_quarantine(good, &expected).is_ok());
        let wrong = good.replace("#1\n", "#2\n");
        assert!(check_quarantine(&wrong, &expected).is_err());
        assert!(check_quarantine("  quarantined modulus #0: zero modulus\n", &expected).is_err());
    }

    #[test]
    fn run_times_and_captures_a_child() {
        let out = run(
            Command::new("sh").args(["-c", "echo hi; echo err >&2"]),
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(out.ok());
        assert_eq!(out.stdout, "hi\n");
        assert_eq!(out.stderr, "err\n");
        assert!(out.wall > 0.0);
        let slow = run(Command::new("sleep").arg("5"), Duration::from_millis(100)).unwrap();
        assert!(!slow.ok() && slow.status.is_none());
        assert!(slow.wall < 4.0);
    }
}

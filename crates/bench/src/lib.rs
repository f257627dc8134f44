//! Shared helpers for the reproduction harness binaries and benches.

#![warn(missing_docs)]

use bulkgcd_bigint::Nat;
use bulkgcd_core::{run, Algorithm, GcdPair, StatsProbe, Termination};
use bulkgcd_rsa::generate_keypair;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic RSA-modulus pairs for experiments: `n` pairs of `bits`-bit
/// moduli (each the product of two `bits/2`-bit primes, OpenSSL-style).
pub fn rsa_modulus_pairs(n: usize, bits: u64, seed: u64) -> Vec<(Nat, Nat)> {
    let mut rng = StdRng::seed_from_u64(seed ^ bits);
    (0..n)
        .map(|_| {
            (
                generate_keypair(&mut rng, bits).public.n,
                generate_keypair(&mut rng, bits).public.n,
            )
        })
        .collect()
}

/// Deterministic random odd pairs (cheaper than full RSA moduli; identical
/// iteration statistics for GCD purposes).
pub fn odd_pairs(n: usize, bits: u64, seed: u64) -> Vec<(Nat, Nat)> {
    use bulkgcd_bigint::random::random_odd_bits;
    let mut rng = StdRng::seed_from_u64(seed ^ (bits << 1));
    (0..n)
        .map(|_| {
            (
                random_odd_bits(&mut rng, bits),
                random_odd_bits(&mut rng, bits),
            )
        })
        .collect()
}

/// Online mean/variance accumulator (Welford).
#[derive(Debug, Default, Clone)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (0 with fewer than two observations).
    pub fn std(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Half-width of the ~95% confidence interval of the mean.
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.std() / (self.n as f64).sqrt()
        }
    }
}

/// Iteration statistics of `algo` over `pairs`.
pub struct IterationSummary {
    /// Mean do-while iterations per pair.
    pub mean_iterations: f64,
    /// Total iterations.
    pub total_iterations: u64,
    /// Total β>0 occurrences.
    pub beta_nonzero: u64,
    /// Total §IV memory operations.
    pub mem_ops: u64,
    /// Full distribution of per-pair iteration counts.
    pub distribution: Welford,
}

/// Run `algo` over all `pairs` collecting iteration statistics.
pub fn iteration_summary(
    algo: Algorithm,
    pairs: &[(Nat, Nat)],
    term: Termination,
) -> IterationSummary {
    let mut ws = GcdPair::with_capacity(1);
    let mut total = 0u64;
    let mut beta = 0u64;
    let mut mem = 0u64;
    let mut dist = Welford::default();
    for (a, b) in pairs {
        ws.load(a, b);
        let mut probe = StatsProbe::default();
        run(algo, &mut ws, term, &mut probe);
        total += probe.stats.iterations;
        beta += probe.stats.beta_nonzero;
        mem += probe.stats.mem_ops;
        dist.push(probe.stats.iterations as f64);
    }
    IterationSummary {
        mean_iterations: total as f64 / pairs.len().max(1) as f64,
        total_iterations: total,
        beta_nonzero: beta,
        mem_ops: mem,
        distribution: dist,
    }
}

/// Wall-clock seconds per GCD for `algo` over `pairs`, single-threaded
/// (the Table V CPU measurement).
pub fn cpu_seconds_per_gcd(algo: Algorithm, pairs: &[(Nat, Nat)], term: Termination) -> f64 {
    use bulkgcd_core::NoProbe;
    let mut ws = GcdPair::with_capacity(1);
    // Warm-up pass (allocation, caches).
    if let Some((a, b)) = pairs.first() {
        ws.load(a, b);
        run(algo, &mut ws, term, &mut NoProbe);
    }
    let start = std::time::Instant::now();
    for (a, b) in pairs {
        ws.load(a, b);
        std::hint::black_box(run(algo, &mut ws, term, &mut NoProbe));
    }
    start.elapsed().as_secs_f64() / pairs.len().max(1) as f64
}

/// Drift-robust interleaved timing for perf gates, shared by the bench
/// binaries (`scan_bench`, `bigint_bench`).
///
/// The gated quantities are **per-round ratios** (entries of the same
/// round are temporally adjacent, so a sustained machine-throttle phase
/// cancels out of the ratio), aggregated by median — far more robust than
/// a ratio of bests taken in different thermal states.
pub mod gate {
    use std::time::Instant;

    /// Top up rounds until the slowest contestant has accumulated about
    /// this many seconds of samples, so sub-millisecond cells still gate
    /// on meaningful ratios. At `scan_bench`'s m=64 1024-bit cell on a
    /// 2-vCPU AVX-512 host, 30 alternating runs put the builder-vs-direct
    /// median ratio's spread at σ = 0.034 with 0.25 s (10 rounds) and
    /// σ = 0.010 with 1 s (39 rounds).
    pub const GATE_SAMPLE_SECONDS: f64 = 1.0;
    /// Hard cap on top-up rounds, so big cells stay fast.
    pub const MAX_GATE_ROUNDS: usize = 50;

    /// Per-round wall seconds for several contestants with the rounds
    /// interleaved round-robin (one warmup each first), so machine drift
    /// and frequency scaling land on every contestant equally. Returns one
    /// time series per contestant plus its (deterministic) result.
    pub fn round_times(
        reps: usize,
        fs: &mut [&mut dyn FnMut() -> usize],
    ) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut slowest = 0.0f64;
        let mut sinks = Vec::with_capacity(fs.len());
        for f in fs.iter_mut() {
            let start = Instant::now();
            sinks.push(f());
            slowest = slowest.max(start.elapsed().as_secs_f64());
        }
        let rounds = if slowest > 0.0 {
            ((GATE_SAMPLE_SECONDS / slowest).ceil() as usize).min(MAX_GATE_ROUNDS)
        } else {
            MAX_GATE_ROUNDS
        }
        .max(reps.max(1));
        let mut times = vec![Vec::with_capacity(rounds); fs.len()];
        for _ in 0..rounds {
            for ((f, sink), ts) in fs.iter_mut().zip(&sinks).zip(times.iter_mut()) {
                let start = Instant::now();
                let got = std::hint::black_box(f());
                ts.push(start.elapsed().as_secs_f64());
                assert_eq!(got, *sink, "non-deterministic benched result");
            }
        }
        (times, sinks)
    }

    /// Fastest sample of a time series.
    pub fn best_of(ts: &[f64]) -> f64 {
        ts.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Median of a sample vector (by total order; empty input panics).
    pub fn median(mut v: Vec<f64>) -> f64 {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    }

    /// Median over rounds of `base[r] / new[r]`: how much faster `new` ran
    /// than `base`, with both samples of each ratio taken back-to-back.
    pub fn median_speedup(base: &[f64], new: &[f64]) -> f64 {
        median(base.iter().zip(new).map(|(b, n)| b / n).collect())
    }
}

/// `--key value` style options from `std::env::args`.
///
/// Every name the binary asks about is recorded, with whether it takes a
/// value. A value that is missing or fails to parse stops the process
/// (exit 2, naming the flag) when it is asked for, and [`Options::finish`],
/// called once the binary has asked about every option it reads, stops it
/// on any argument that was never asked about. So a mistyped flag fails
/// loudly instead of being ignored.
pub struct Options {
    args: Vec<String>,
    /// Every name asked about, and whether it takes a value.
    asked: std::cell::RefCell<Vec<(String, bool)>>,
}

/// Print `error: {msg}` and exit 2.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

impl Options {
    /// Capture the process arguments.
    pub fn from_env() -> Self {
        Options::from_args(std::env::args().skip(1))
    }

    /// Options over the given arguments (without the program name).
    fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        Options {
            args: args.into_iter().collect(),
            asked: Default::default(),
        }
    }

    /// Record `name` as asked about; the raw value of `--name <v>`, if
    /// the flag is present, and an error if it has no value.
    fn value_of(&self, name: &str) -> Result<Option<&str>, String> {
        self.asked.borrow_mut().push((name.to_string(), true));
        let flag = format!("--{name}");
        match self.args.iter().position(|a| *a == flag) {
            None => Ok(None),
            Some(i) => match self.args.get(i + 1) {
                Some(v) => Ok(Some(v)),
                None => Err(format!("{flag} needs a value")),
            },
        }
    }

    /// [`Options::get`], with a missing or unparsable value as an error.
    fn try_get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value_of(name)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }

    /// Value of `--name <v>`, parsed, or `default`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.try_get(name, default).unwrap_or_else(|e| die(&e))
    }

    /// [`Options::get_list`], with a missing or unparsable value as an
    /// error.
    fn try_get_list(&self, name: &str, default: &[u64]) -> Result<Vec<u64>, String> {
        match self.value_of(name)? {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.parse()
                        .map_err(|_| format!("--{name}: cannot parse {s:?} in {v:?}"))
                })
                .collect(),
        }
    }

    /// All values of a comma-separated `--name a,b,c` list, or `default`.
    pub fn get_list(&self, name: &str, default: &[u64]) -> Vec<u64> {
        self.try_get_list(name, default).unwrap_or_else(|e| die(&e))
    }

    /// Whether the bare flag `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        self.asked.borrow_mut().push((name.to_string(), false));
        self.args.iter().any(|a| a == &format!("--{name}"))
    }

    /// An error naming the first argument that is neither a flag asked
    /// about nor the value of one.
    fn check_all_asked(&self) -> Result<(), String> {
        let asked = self.asked.borrow();
        let mut args = self.args.iter();
        while let Some(arg) = args.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            match asked.iter().find(|(n, _)| n == name) {
                None => return Err(format!("unknown flag {arg}")),
                Some(&(_, true)) => {
                    args.next();
                }
                Some(&(_, false)) => {}
            }
        }
        Ok(())
    }

    /// Stop the process (exit 2) on any argument the binary did not ask
    /// about. Call it once every option of the run has been read, before
    /// the work starts.
    pub fn finish(&self) {
        self.check_all_asked().unwrap_or_else(|e| die(&e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_generators_are_deterministic() {
        assert_eq!(odd_pairs(3, 128, 1), odd_pairs(3, 128, 1));
        let a = rsa_modulus_pairs(1, 96, 2);
        let b = rsa_modulus_pairs(1, 96, 2);
        assert_eq!(a, b);
        assert_eq!(a[0].0.bit_len(), 96);
    }

    #[test]
    fn iteration_summary_counts() {
        let pairs = odd_pairs(4, 128, 3);
        let s = iteration_summary(Algorithm::Approximate, &pairs, Termination::Full);
        assert!(s.total_iterations > 0);
        assert!(s.mean_iterations > 10.0);
        assert!(s.mem_ops > s.total_iterations);
        assert_eq!(s.distribution.n(), 4);
        assert!((s.distribution.mean() - s.mean_iterations).abs() < 1e-9);
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs = [2.0f64, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.std() - var.sqrt()).abs() < 1e-12);
        assert!(w.ci95() > 0.0);
        assert_eq!(Welford::default().std(), 0.0);
    }

    fn options(args: &[&str]) -> Options {
        Options::from_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn options_reject_flags_never_asked_about() {
        let opts = options(&["--gate-subquadratc", "--reps", "2"]);
        assert_eq!(opts.try_get("reps", 3usize), Ok(2));
        assert!(!opts.has("gate-subquadratic"));
        assert_eq!(
            opts.check_all_asked(),
            Err("unknown flag --gate-subquadratc".to_string())
        );
        // A stray token that is no flag's value.
        let opts = options(&["--gate", "extra"]);
        assert!(opts.has("gate"));
        assert!(opts.check_all_asked().unwrap_err().contains("\"extra\""));
        // Every argument asked about, in any order: accepted.
        let opts = options(&["--out", "x.json", "--gate", "--sizes", "16,32"]);
        assert!(opts.has("gate"));
        assert_eq!(opts.try_get_list("sizes", &[]), Ok(vec![16, 32]));
        assert_eq!(opts.try_get("out", String::new()), Ok("x.json".into()));
        assert_eq!(opts.check_all_asked(), Ok(()));
    }

    #[test]
    fn options_reject_values_that_do_not_parse() {
        let opts = options(&["--reps", "three", "--sizes", "16,abc", "--out"]);
        assert_eq!(
            opts.try_get("reps", 3usize),
            Err("--reps: cannot parse \"three\"".to_string())
        );
        let err = opts.try_get_list("sizes", &[64]).unwrap_err();
        assert!(err.starts_with("--sizes: cannot parse \"abc\""), "{err}");
        assert_eq!(
            opts.try_get("out", String::new()),
            Err("--out needs a value".to_string())
        );
        // Absent flags take their defaults.
        assert_eq!(opts.try_get("keys", 24usize), Ok(24));
        assert_eq!(opts.try_get_list("bits", &[128]), Ok(vec![128]));
    }

    #[test]
    fn cpu_timer_positive() {
        let pairs = odd_pairs(2, 128, 4);
        let t = cpu_seconds_per_gcd(Algorithm::FastBinary, &pairs, Termination::Full);
        assert!(t > 0.0);
    }
}

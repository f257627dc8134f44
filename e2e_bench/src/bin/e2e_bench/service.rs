//! The key-service workload: an open-loop stream of candidate keys served
//! by one FIFO server over `bulk::incremental::CorpusIndex`.
//!
//! There is no CLI server, so the service runs in-process through the
//! library's public API. Arrivals follow a Poisson trace fixed before the
//! run (open loop): a stall delays every later request, and each request is
//! timed from when it was due, not from when it started.

use crate::calib::Calibrator;
use bulkgcd_bigint::Nat;
use bulkgcd_bulk::CorpusIndex;
use std::time::Instant;

/// Time source for the open-loop generator: the wall clock in runs, a
/// virtual clock in tests.
pub trait Clock {
    /// Seconds since the stream started.
    fn now(&self) -> f64;
    /// Block until `now() >= t`.
    fn wait_until(&mut self, t: f64);
}

/// The real clock, measuring the host's speed while it waits: instead of
/// sleeping, it runs calibration slices on the server's core until the next
/// arrival is near, then spins the rest. A sleeping wait let the core go
/// cold between arrivals, which made check latency slower and noisier.
pub struct WallClock {
    origin: Instant,
    cal: Calibrator,
    /// Wall seconds of the latest slice.
    recent: f64,
    /// `(start, slowdown)` of every slice, in time order.
    slices: Vec<(f64, f64)>,
}

impl WallClock {
    /// A clock whose zero is now.
    pub fn start(cal: Calibrator) -> WallClock {
        WallClock {
            origin: Instant::now(),
            cal,
            recent: 0.0,
            slices: Vec::new(),
        }
    }

    /// Mean slowdown of the slices that started within `window` seconds of
    /// `t`, the window doubled until it holds one (a check queued behind a
    /// commit can be far from any idle time); `None` when no slice ran. The
    /// mean, not the median: a slice the host preempted counts in full, as
    /// it does in the requests' own times.
    pub fn slowdown_near(&self, t: f64, mut window: f64) -> Option<f64> {
        if self.slices.is_empty() {
            return None;
        }
        loop {
            let lo = self.slices.partition_point(|s| s.0 < t - window);
            let hi = self.slices.partition_point(|s| s.0 <= t + window);
            if lo < hi {
                let near = &self.slices[lo..hi];
                return Some(near.iter().map(|s| s.1).sum::<f64>() / near.len() as f64);
            }
            window *= 2.0;
        }
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Starts a slice only while three more fit before `t`, so a request
    /// starts late only when a slice overran by that much.
    fn wait_until(&mut self, t: f64) {
        loop {
            let now = self.now();
            if now >= t {
                return;
            }
            if t - now > 3.0 * self.recent {
                let slowdown = self.cal.slice();
                self.slices.push((now, slowdown));
                self.recent = self.now() - now;
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// One served request on the generator's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample<R> {
    /// When the request was due.
    pub due: f64,
    /// When the server started it.
    pub start: f64,
    /// When the answer was ready.
    pub end: f64,
    /// What the server returned.
    pub out: R,
}

impl<R> Sample<R> {
    /// Due to answer: what the requester waits.
    pub fn latency(&self) -> f64 {
        self.end - self.due
    }

    /// Due to start: queueing behind earlier requests (plus any oversleep).
    pub fn wait(&self) -> f64 {
        self.start - self.due
    }
}

/// Serve `dues` (ascending) in FIFO order on one server: each request
/// starts at `max(due, previous end)`.
pub fn run_open_loop<C: Clock, R>(
    dues: &[f64],
    clock: &mut C,
    mut serve: impl FnMut(usize, &mut C) -> R,
) -> Vec<Sample<R>> {
    let mut samples = Vec::with_capacity(dues.len());
    for (i, &due) in dues.iter().enumerate() {
        if clock.now() < due {
            clock.wait_until(due);
        }
        let start = clock.now();
        let out = serve(i, clock);
        samples.push(Sample {
            due,
            start,
            end: clock.now(),
            out,
        });
    }
    samples
}

/// How late the generator ran: the largest `start − due` among requests
/// that found the server idle (their wait is oversleep, not queueing).
pub fn generator_lag<R>(samples: &[Sample<R>]) -> f64 {
    let mut lag = 0.0f64;
    let mut prev_end = f64::NEG_INFINITY;
    for s in samples {
        if prev_end <= s.due {
            lag = lag.max(s.wait());
        }
        prev_end = s.end;
    }
    lag
}

/// One answered check.
#[derive(Debug, Clone)]
pub struct Served {
    /// `gcd(n, P mod n)`: 1 for a clean key, the shared prime otherwise.
    pub factor: Nat,
    /// The `shared_factor` call.
    pub check: (Instant, Instant),
    /// The inserts + `commit` this request triggered, if any.
    pub commit: Option<(Instant, Instant)>,
    /// Moduli indexed when the check ran.
    pub indexed: usize,
}

/// Check-then-register key service. Clean keys are buffered and indexed in
/// batches: `CorpusIndex::insert` drops the product tree until `commit`,
/// and a check made in between would report every key clean, so the
/// inserts and the commit happen together once `commit_every` clean keys
/// are pending. Weak keys are refused, never indexed.
pub struct KeyService {
    index: CorpusIndex,
    pending: Vec<Nat>,
    commit_every: usize,
}

impl KeyService {
    /// Serve on top of `index`.
    pub fn new(index: CorpusIndex, commit_every: usize) -> KeyService {
        KeyService {
            index,
            pending: Vec::new(),
            commit_every: commit_every.max(1),
        }
    }

    /// Check `n`; register it if clean.
    pub fn serve(&mut self, n: &Nat) -> Result<Served, String> {
        let t0 = Instant::now();
        let factor = self.index.shared_factor(n).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let indexed = self.index.len();
        let mut commit = None;
        if factor.is_one() {
            self.pending.push(n.clone());
            if self.pending.len() == self.commit_every {
                commit = self.flush()?;
            }
        }
        Ok(Served {
            factor,
            check: (t0, t1),
            commit,
            indexed,
        })
    }

    /// Index every pending key and rebuild the tree (also run once when the
    /// stream ends, like a service shutting down cleanly). `None` when
    /// nothing was pending.
    pub fn flush(&mut self) -> Result<Option<(Instant, Instant)>, String> {
        if self.pending.is_empty() {
            return Ok(None);
        }
        let c0 = Instant::now();
        for m in self.pending.drain(..) {
            self.index.insert(m).map_err(|e| e.to_string())?;
        }
        self.index.commit();
        Ok(Some((c0, Instant::now())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Virtual time: waiting jumps the clock, serving advances it by a
    /// fixed service time.
    struct FakeClock {
        t: f64,
    }

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.t
        }
        fn wait_until(&mut self, t: f64) {
            self.t = self.t.max(t);
        }
    }

    #[test]
    fn open_loop_times_requests_from_their_due_time() {
        let dues = [0.0, 0.010, 0.020, 0.100, 0.101];
        let mut clock = FakeClock { t: 0.0 };
        // Fixed 15 ms service, except a 50 ms stall on request 3.
        let samples = run_open_loop(&dues, &mut clock, |i, c| {
            c.t += if i == 3 { 0.050 } else { 0.015 };
            i
        });
        let starts: Vec<f64> = samples.iter().map(|s| s.start).collect();
        let lat: Vec<f64> = samples.iter().map(Sample::latency).collect();
        let want_starts = [0.0, 0.015, 0.030, 0.100, 0.150];
        let want_lat = [0.015, 0.020, 0.025, 0.050, 0.064];
        for k in 0..5 {
            assert!((starts[k] - want_starts[k]).abs() < 1e-12, "start {k}");
            assert!((lat[k] - want_lat[k]).abs() < 1e-12, "latency {k}");
        }
        // Request 4 queued behind the stall: 49 ms of wait, none of it lag.
        assert!((samples[4].wait() - 0.049).abs() < 1e-12);
        assert_eq!(generator_lag(&samples), 0.0);
        assert_eq!(samples[2].out, 2);
    }

    #[test]
    fn slowdown_near_takes_the_mean_of_nearby_slices() {
        let mut clock = WallClock::start(Calibrator::new());
        clock.slices = vec![(0.0, 1.0), (0.4, 3.0), (0.5, 2.0), (0.6, 9.0), (2.0, 5.0)];
        assert_eq!(clock.slowdown_near(0.5, 0.1), Some(14.0 / 3.0));
        assert_eq!(clock.slowdown_near(0.5, 0.5), Some(3.75));
        assert_eq!(clock.slowdown_near(1.3, 0.5), Some(4.75), "window doubled");
        let mut fresh = WallClock::start(Calibrator::new());
        assert_eq!(fresh.slowdown_near(0.0, 0.5), None);
        let until = fresh.now() + 0.05;
        fresh.wait_until(until);
        assert!(fresh.now() >= until);
        assert!(fresh.slices.len() > 5, "waiting runs slices");
    }

    #[test]
    fn generator_lag_counts_only_idle_starts() {
        let s = |due: f64, start: f64, end: f64| Sample {
            due,
            start,
            end,
            out: (),
        };
        let samples = [
            s(0.0, 0.002, 0.01),
            s(0.005, 0.01, 0.02),
            s(0.05, 0.051, 0.06),
        ];
        assert!((generator_lag(&samples) - 0.002).abs() < 1e-12);
    }

    #[test]
    fn service_buffers_inserts_until_commit() {
        let moduli = [Nat::from_u64(101 * 211), Nat::from_u64(103 * 223)];
        let mut svc = KeyService::new(CorpusIndex::from_moduli(&moduli).unwrap(), 2);
        let a = svc.serve(&Nat::from_u64(107 * 227)).unwrap();
        assert!(a.factor.is_one() && a.commit.is_none());
        // Still answered against the committed tree while one key is pending.
        let weak = svc.serve(&Nat::from_u64(101 * 229)).unwrap();
        assert_eq!(weak.factor, Nat::from_u64(101));
        let b = svc.serve(&Nat::from_u64(109 * 233)).unwrap();
        assert!(b.commit.is_some(), "second clean key fills the batch");
        let c = svc.serve(&Nat::from_u64(227 * 239)).unwrap();
        assert_eq!(
            c.factor,
            Nat::from_u64(227),
            "committed candidates are indexed"
        );
        assert_eq!(c.indexed, 4);
    }
}

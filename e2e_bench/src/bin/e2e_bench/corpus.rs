//! Scenario corpora with exact ground truth.
//!
//! `rsa::build_corpus` cannot be used at benchmark scale: it derives truth
//! from an all-pairs `gcd_reference` pass (33.5M reference GCDs at
//! m = 8192) and runs 32 Miller–Rabin rounds per prime. Here truth comes
//! from construction instead, and primes come from a cached pool:
//!
//! * prime `k` of a `bits`-wide pool depends only on `(bits, k)` — one
//!   seeded RNG per prime index — so the pool is byte-identical for any
//!   thread count. Candidates are decided by
//!   `bigint::prime::is_probable_prime_rounds(·, 2)`;
//! * a workload seed draws a random subset of the pool and plants the
//!   weak-key families, so the same seed always gives the same corpus.
//!
//! GCD-visible families: shared-prime pairs, device batches (many keys on
//! one prime), exact duplicates, and hostile lines that ingest must
//! quarantine. Out of scope, because no GCD can see them: close primes
//! (Fermat-factorable keys) and low-entropy primes that are not shared.

use bulkgcd_bigint::prime::is_probable_prime_rounds;
use bulkgcd_bigint::random::random_odd_bits;
use bulkgcd_bigint::Nat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bumped whenever prime generation changes, so a cached pool made by an
/// older generator is never reused.
pub const GENERATOR_VERSION: u32 = 2;

/// The public exponent every planted key must admit (`gcd(e, p − 1) = 1`),
/// so recovered private keys exist.
const E: u32 = 65_537;

/// SplitMix64 finalizer: spreads `(salt, bits, index)` into RNG seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a continuing from `seed`, for cache fingerprints.
fn fnv(bytes: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325 ^ seed;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// The prime pool.
// ---------------------------------------------------------------------------

/// Prime `index` of the `bits`-wide pool: exactly `bits` bits with the top
/// two set (so two such primes multiply to exactly `2·bits` bits) and
/// `p ≢ 1 (mod 65537)`. Depends only on `(bits, index)`.
pub fn prime_at(bits: u64, index: u64) -> Nat {
    assert!(bits >= 32, "pool primes are at least 32 bits");
    let mut rng = StdRng::seed_from_u64(mix(0xE2E0_B00C ^ (bits << 40) ^ index));
    let top2 = Nat::one().shl(bits - 2);
    loop {
        let mut cand = random_odd_bits(&mut rng, bits);
        if !cand.bit(bits - 2) {
            cand = cand.add(&top2);
        }
        if cand.rem_u32(E) != 1 && is_probable_prime_rounds(&cand, &mut rng, 2) {
            return cand;
        }
    }
}

/// Primes `range` of the `bits`-wide pool, in index order, computed on up
/// to `threads` threads. Output does not depend on `threads`.
pub fn generate_pool(bits: u64, range: std::ops::Range<usize>, threads: usize) -> Vec<Nat> {
    let next = AtomicUsize::new(range.start);
    let mut found: Vec<(usize, Nat)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices.
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= range.end {
                            return mine;
                        }
                        mine.push((k, prime_at(bits, k as u64)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("prime worker panicked"))
            .collect()
    });
    found.sort_by_key(|(k, _)| *k);
    found.into_iter().map(|(_, p)| p).collect()
}

fn pool_header(bits: u64) -> String {
    format!("# e2e_bench prime pool v{GENERATOR_VERSION} bits={bits}")
}

/// The first `count` primes of the `bits`-wide pool, from
/// `cache/pool-<bits>.txt` when it holds them; missing primes are generated
/// and the file is rewritten (atomically, via rename).
pub fn load_pool(cache: &Path, bits: u64, count: usize, threads: usize) -> io::Result<Vec<Nat>> {
    let path = cache.join(format!("pool-{bits}.txt"));
    let mut pool = Vec::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        let mut lines = text.lines();
        if lines.next() == Some(pool_header(bits).as_str()) {
            for line in lines {
                match Nat::from_hex(line) {
                    Ok(p) if p.bit_len() == bits => pool.push(p),
                    _ => {
                        pool.clear();
                        break;
                    }
                }
            }
        }
    }
    if pool.len() >= count {
        pool.truncate(count);
        return Ok(pool);
    }
    let have = pool.len();
    eprintln!(
        "e2e_bench: generating {} {bits}-bit pool primes on {threads} thread(s)",
        count - have
    );
    pool.extend(generate_pool(bits, have..count, threads));
    std::fs::create_dir_all(cache)?;
    let mut text = pool_header(bits);
    text.push('\n');
    for p in &pool {
        text.push_str(&p.to_hex());
        text.push('\n');
    }
    write_atomic(&path, text.as_bytes())?;
    Ok(pool)
}

/// Write `bytes` to `path` through a temporary file and a rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Scenarios.
// ---------------------------------------------------------------------------

/// Shape of a batch corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusSpec {
    /// Accepted (scannable) moduli.
    pub keys: usize,
    /// Bits per prime; moduli have twice as many.
    pub prime_bits: u64,
    /// Device batches: groups of keys that all share one prime.
    pub batches: usize,
    /// Keys per device batch.
    pub batch_size: usize,
    /// Disjoint shared-prime pairs.
    pub pairs: usize,
}

impl CorpusSpec {
    /// Modulus width in bits.
    pub fn key_bits(&self) -> u64 {
        2 * self.prime_bits
    }

    /// Keys outside any planted family.
    pub fn clean_keys(&self) -> usize {
        self.keys - self.batches * self.batch_size - 2 * self.pairs
    }

    /// Pool primes the corpus consumes.
    pub fn primes_needed(&self) -> usize {
        self.batches * (1 + self.batch_size) + 3 * self.pairs + 2 * self.clean_keys()
    }

    /// Findings the corpus plants: every pair inside a batch, plus the pairs.
    pub fn planted_findings(&self) -> usize {
        self.batches * self.batch_size * (self.batch_size - 1) / 2 + self.pairs
    }
}

/// Shape of the key-service candidate stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Poisson arrival rate, candidates per second.
    pub rate: f64,
    /// Arrivals are generated over `[0, seconds)`.
    pub seconds: f64,
    /// Clean candidates inserted per index commit.
    pub commit_every: usize,
}

impl StreamSpec {
    /// Pool primes the stream can consume (every candidate takes at most
    /// two), with room for a Poisson count well above its mean.
    pub fn primes_bound(&self) -> usize {
        let mean = self.rate * self.seconds;
        2 * (mean + 6.0 * mean.sqrt() + 16.0).ceil() as usize
    }
}

/// A hostile line planted in a corpus; ingest must quarantine it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bait {
    /// The literal value zero.
    Zero,
    /// An even value of full width.
    Even,
    /// An odd value below `--min-bits`.
    Undersized,
    /// A byte-identical copy of the key at the given raw index.
    Duplicate(usize),
}

/// One candidate key of the service stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Arrival time, seconds after the stream starts.
    pub due: f64,
    /// The candidate modulus.
    pub n: Nat,
    /// The planted shared prime, or `None` for a clean candidate.
    pub expect: Option<Nat>,
}

/// A generated scenario: corpus lines plus everything needed to judge the
/// program's answers.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Raw corpus lines (hex moduli and hostile lines), in file order.
    pub lines: Vec<String>,
    /// Expected findings `(i, j, shared prime)` in raw numbering, `i < j`,
    /// sorted.
    pub findings: Vec<(usize, usize, Nat)>,
    /// Expected quarantine: raw index and the bait planted there.
    pub quarantine: Vec<(usize, Bait)>,
    /// The candidate stream (empty for batch workloads).
    pub candidates: Vec<Candidate>,
}

/// Draws pool primes in a seeded random order, each at most once.
struct Draw<'a> {
    pool: &'a [Nat],
    order: Vec<usize>,
    next: usize,
}

impl<'a> Draw<'a> {
    fn new(pool: &'a [Nat], rng: &mut StdRng) -> Draw<'a> {
        let mut order: Vec<usize> = (0..pool.len()).collect();
        shuffle(&mut order, rng);
        Draw {
            pool,
            order,
            next: 0,
        }
    }

    fn prime(&mut self) -> &'a Nat {
        let idx = *self
            .order
            .get(self.next)
            .expect("prime pool too small for the scenario");
        self.next += 1;
        &self.pool[idx]
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// Raw line kinds before file positions are fixed.
enum Line {
    Key(usize),
    Bait(Bait),
}

/// Build the scenario for `seed` from `pool`: the batch corpus of `spec`
/// with hostile lines when `bait` is set, plus the candidate stream of
/// `stream` if given.
pub fn build(
    pool: &[Nat],
    spec: &CorpusSpec,
    bait: bool,
    stream: Option<&StreamSpec>,
    seed: u64,
) -> Scenario {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x5CE7_A210));
    let mut draw = Draw::new(pool, &mut rng);

    // Keys as (p, q) with a family id: batches first, then pairs, then
    // clean keys; file order is shuffled below.
    let mut keys: Vec<(Nat, Nat, Option<usize>)> = Vec::with_capacity(spec.keys);
    let mut family = 0usize;
    for _ in 0..spec.batches {
        let p = draw.prime().clone();
        for _ in 0..spec.batch_size {
            keys.push((p.clone(), draw.prime().clone(), Some(family)));
        }
        family += 1;
    }
    for _ in 0..spec.pairs {
        let p = draw.prime().clone();
        for _ in 0..2 {
            keys.push((p.clone(), draw.prime().clone(), Some(family)));
        }
        family += 1;
    }
    for _ in 0..spec.clean_keys() {
        keys.push((draw.prime().clone(), draw.prime().clone(), None));
    }
    shuffle(&mut keys, &mut rng);
    let moduli: Vec<Nat> = keys.iter().map(|(p, q, _)| p.mul(q)).collect();

    let mut layout: Vec<Line> = (0..keys.len()).map(Line::Key).collect();
    if bait {
        let clean: Vec<usize> = (0..keys.len()).filter(|&k| keys[k].2.is_none()).collect();
        let plant = |layout: &mut Vec<Line>, rng: &mut StdRng, b: Bait, after: Option<usize>| {
            let lo = match after {
                Some(key) => {
                    1 + layout
                        .iter()
                        .position(|l| matches!(l, Line::Key(k) if *k == key))
                        .expect("duplicated key is in the layout")
                }
                None => 0,
            };
            let at = rng.gen_range(lo..=layout.len());
            layout.insert(at, Line::Bait(b));
        };
        for b in [Bait::Zero, Bait::Zero, Bait::Even, Bait::Even] {
            plant(&mut layout, &mut rng, b, None);
        }
        for b in [Bait::Undersized, Bait::Undersized] {
            plant(&mut layout, &mut rng, b, None);
        }
        for _ in 0..2 {
            let key = clean[rng.gen_range(0..clean.len())];
            // Duplicate(raw index) is resolved once positions are final.
            plant(&mut layout, &mut rng, Bait::Duplicate(key), Some(key));
        }
    }

    let mut raw_of_key = vec![0usize; keys.len()];
    for (raw, line) in layout.iter().enumerate() {
        if let Line::Key(k) = line {
            raw_of_key[*k] = raw;
        }
    }
    let mut lines = Vec::with_capacity(layout.len());
    let mut quarantine = Vec::new();
    for (raw, line) in layout.iter().enumerate() {
        match *line {
            Line::Key(k) => lines.push(moduli[k].to_hex()),
            Line::Bait(b) => {
                let (text, b) = match b {
                    Bait::Zero => ("0".to_string(), Bait::Zero),
                    Bait::Even => {
                        let v = random_odd_bits(&mut rng, spec.key_bits());
                        (v.sub(&Nat::one()).to_hex(), Bait::Even)
                    }
                    Bait::Undersized => (
                        random_odd_bits(&mut rng, spec.key_bits() / 2).to_hex(),
                        Bait::Undersized,
                    ),
                    Bait::Duplicate(k) => (moduli[k].to_hex(), Bait::Duplicate(raw_of_key[k])),
                };
                lines.push(text);
                quarantine.push((raw, b));
            }
        }
    }

    let mut members: Vec<Vec<usize>> = vec![Vec::new(); family];
    for (k, key) in keys.iter().enumerate() {
        if let Some(f) = key.2 {
            members[f].push(k);
        }
    }
    let mut findings = Vec::with_capacity(spec.planted_findings());
    for group in &members {
        for (a, &x) in group.iter().enumerate() {
            for &y in &group[a + 1..] {
                let (i, j) = (
                    raw_of_key[x].min(raw_of_key[y]),
                    raw_of_key[x].max(raw_of_key[y]),
                );
                findings.push((i, j, keys[x].0.clone()));
            }
        }
    }
    findings.sort_by_key(|f| (f.0, f.1));

    let candidates = match stream {
        Some(s) => {
            let base_clean: Vec<&Nat> = keys
                .iter()
                .filter(|k| k.2.is_none())
                .map(|k| &k.0)
                .collect();
            build_stream(s, &base_clean, &mut draw, &mut rng)
        }
        None => Vec::new(),
    };

    Scenario {
        lines,
        findings,
        quarantine,
        candidates,
    }
}

/// Weak candidates in a stream (fewer only if the stream is shorter).
pub const WEAK_CANDIDATES: usize = 10;

/// The open-loop candidate stream: Poisson arrivals over `[0, seconds)`,
/// [`WEAK_CANDIDATES`] of them weak, on a trace that is the same for every
/// seed. Half of the weak candidates share a
/// prime with a clean base key; the other half share one with a clean
/// candidate that at least one commit has already indexed when the weak one
/// arrives.
fn build_stream(
    s: &StreamSpec,
    base_clean: &[&Nat],
    draw: &mut Draw<'_>,
    rng: &mut StdRng,
) -> Vec<Candidate> {
    // One fixed trace for every seed: arrival times and which arrivals are
    // weak, and so where the commits fall. The latency tail is set by the
    // few arrivals that land on a commit; with a trace per seed it swung
    // more from seed to seed than any change worth catching. The seed
    // still draws every key.
    let mut arrivals = StdRng::seed_from_u64(mix(0xA771_7A15));
    let mut dues = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = arrivals.gen();
        t += -(1.0 - u).ln() / s.rate;
        if t >= s.seconds || 2 * (dues.len() + 1) > s.primes_bound() {
            break;
        }
        dues.push(t);
    }
    let n = dues.len();
    let weak = WEAK_CANDIDATES.min(n);
    let mut kind = vec![0u8; n]; // 0 clean, 1 weak vs base, 2 weak vs candidate
    let mut positions: Vec<usize> = (0..n).collect();
    shuffle(&mut positions, &mut arrivals);
    for &p in positions.iter().take(weak.div_ceil(2)) {
        kind[p] = 1;
    }
    // The arrival whose insert triggers the first commit.
    let mut clean = 0;
    let first_commit = (0..n).find(|&i| {
        if kind[i] == 0 {
            clean += 1;
        }
        clean == s.commit_every
    });
    if let Some(f) = first_commit {
        let mut later: Vec<usize> = (f + 1..n).filter(|&i| kind[i] == 0).collect();
        shuffle(&mut later, &mut arrivals);
        for &p in later.iter().take(weak / 2) {
            kind[p] = 2;
        }
    }

    let mut out = Vec::with_capacity(n);
    let mut clean_primes: Vec<Nat> = Vec::new();
    for (i, due) in dues.into_iter().enumerate() {
        let (p, expect) = match kind[i] {
            0 => {
                let p = draw.prime().clone();
                clean_primes.push(p.clone());
                (p, None)
            }
            1 => {
                let p = base_clean[rng.gen_range(0..base_clean.len())].clone();
                (p.clone(), Some(p))
            }
            _ => {
                let committed = clean_primes.len() / s.commit_every * s.commit_every;
                let p = clean_primes[rng.gen_range(0..committed)].clone();
                (p.clone(), Some(p))
            }
        };
        out.push(Candidate {
            due,
            n: p.mul(draw.prime()),
            expect,
        });
    }
    out
}

/// Where a scenario's files live, and whether they were already current.
pub struct ScenarioFiles {
    /// `corpus.txt`: one hex modulus per line.
    pub corpus: PathBuf,
    /// `truth.txt`: `f i j p`, `q i kind` and `c k p` records.
    pub truth: PathBuf,
    /// `candidates.txt`: `due hex` per candidate.
    pub candidates: PathBuf,
}

/// Write the scenario's files to `dir`, unless `dir/fingerprint` already
/// holds the fingerprint of exactly this content (a repeated seed).
pub fn write_scenario(dir: &Path, name: &str, sc: &Scenario) -> io::Result<ScenarioFiles> {
    let files = ScenarioFiles {
        corpus: dir.join("corpus.txt"),
        truth: dir.join("truth.txt"),
        candidates: dir.join("candidates.txt"),
    };
    let mut corpus = format!("# e2e_bench corpus {name}\n");
    for l in &sc.lines {
        corpus.push_str(l);
        corpus.push('\n');
    }
    let mut truth =
        String::from("# f i j shared-prime | q raw-index bait | c candidate shared-prime\n");
    for (i, j, p) in &sc.findings {
        truth.push_str(&format!("f {i} {j} {}\n", p.to_hex()));
    }
    for (i, b) in &sc.quarantine {
        truth.push_str(&format!("q {i} {b:?}\n"));
    }
    let mut cands = String::from("# due-seconds modulus-hex\n");
    for (k, c) in sc.candidates.iter().enumerate() {
        cands.push_str(&format!("{:.9} {}\n", c.due, c.n.to_hex()));
        if let Some(p) = &c.expect {
            truth.push_str(&format!("c {k} {}\n", p.to_hex()));
        }
    }
    let mut h = 0;
    for text in [&corpus, &truth, &cands] {
        h = fnv(text.as_bytes(), h);
    }
    let stamp = format!("{h:016x}\n");
    let fp_path = dir.join("fingerprint");
    let current = std::fs::read_to_string(&fp_path).ok().as_deref() == Some(stamp.as_str())
        && files.corpus.exists()
        && files.truth.exists()
        && files.candidates.exists();
    if !current {
        std::fs::create_dir_all(dir)?;
        write_atomic(&files.corpus, corpus.as_bytes())?;
        write_atomic(&files.truth, truth.as_bytes())?;
        write_atomic(&files.candidates, cands.as_bytes())?;
        write_atomic(&fp_path, stamp.as_bytes())?;
    }
    Ok(files)
}

/// Parse a `candidates.txt` file back into `(due, modulus)` pairs.
pub fn read_candidates(path: &Path) -> Result<Vec<(f64, Nat)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (due, hex) = l
                .split_once(' ')
                .ok_or_else(|| format!("malformed candidate line {l:?}"))?;
            let due: f64 = due.parse().map_err(|_| format!("bad due time in {l:?}"))?;
            let n = Nat::from_hex(hex).map_err(|e| format!("bad modulus in {l:?}: {e}"))?;
            Ok((due, n))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulkgcd_bigint::prime::is_probable_prime;

    fn small_spec() -> CorpusSpec {
        CorpusSpec {
            keys: 64,
            prime_bits: 64,
            batches: 2,
            batch_size: 4,
            pairs: 3,
        }
    }

    #[test]
    fn pool_primes_are_rsa_shaped_primes() {
        let mut rng = StdRng::seed_from_u64(3);
        for bits in [64, 96, 128, 200] {
            let p = prime_at(bits, 7);
            assert!(is_probable_prime(&p, &mut rng), "{bits}-bit pool prime");
            assert_eq!(p.bit_len(), bits);
            assert!(p.bit(bits - 2), "top two bits set");
            assert_ne!(p.rem_u32(E), 1);
            assert_eq!(p.mul(&prime_at(bits, 8)).bit_len(), 2 * bits);
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_corpus_at_one_and_two_threads() {
        let spec = small_spec();
        let stream = StreamSpec {
            rate: 100.0,
            seconds: 0.5,
            commit_every: 8,
        };
        let need = spec.primes_needed() + stream.primes_bound();
        let one = generate_pool(64, 0..need, 1);
        let two = generate_pool(64, 0..need, 2);
        assert_eq!(one, two);
        let a = build(&one, &spec, true, Some(&stream), 11);
        let b = build(&two, &spec, true, Some(&stream), 11);
        assert_eq!(a, b);
        assert_ne!(a.lines, build(&one, &spec, true, Some(&stream), 12).lines);
    }

    #[test]
    fn truth_matches_an_all_pairs_reference_oracle() {
        let spec = small_spec();
        let pool = generate_pool(64, 0..spec.primes_needed() + 8, 2);
        let sc = build(&pool, &spec, true, None, 5);
        assert_eq!(sc.lines.len(), spec.keys + 8);
        assert_eq!(sc.findings.len(), spec.planted_findings());

        let values: Vec<Nat> = sc
            .lines
            .iter()
            .map(|l| Nat::from_hex(l).expect("corpus lines are hex"))
            .collect();
        let quarantined: Vec<usize> = sc.quarantine.iter().map(|q| q.0).collect();
        let mut oracle = Vec::new();
        for i in 0..values.len() {
            for j in i + 1..values.len() {
                if quarantined.contains(&i) || quarantined.contains(&j) {
                    continue;
                }
                let g = values[i].gcd_reference(&values[j]);
                if !g.is_one() {
                    oracle.push((i, j, g));
                }
            }
        }
        assert_eq!(sc.findings, oracle);

        // Every hostile line is what it claims to be.
        let mut kinds = [0usize; 4];
        for &(raw, bait) in &sc.quarantine {
            let v = &values[raw];
            match bait {
                Bait::Zero => {
                    assert!(v.is_zero());
                    kinds[0] += 1;
                }
                Bait::Even => {
                    assert!(v.is_even() && !v.is_zero() && v.bit_len() == spec.key_bits());
                    kinds[1] += 1;
                }
                Bait::Undersized => {
                    assert!(v.is_odd() && v.bit_len() < spec.key_bits());
                    kinds[2] += 1;
                }
                Bait::Duplicate(of) => {
                    assert!(of < raw && sc.lines[of] == sc.lines[raw]);
                    kinds[3] += 1;
                }
            }
        }
        assert_eq!(kinds, [2, 2, 2, 2]);
    }

    #[test]
    fn stream_weak_candidates_share_only_committed_primes() {
        let spec = small_spec();
        let stream = StreamSpec {
            rate: 400.0,
            seconds: 0.5,
            commit_every: 16,
        };
        let pool = generate_pool(64, 0..spec.primes_needed() + stream.primes_bound(), 2);
        let sc = build(&pool, &spec, false, Some(&stream), 9);
        let n = sc.candidates.len();
        assert!(n > 100, "about 200 arrivals expected, got {n}");
        assert!(sc.candidates.windows(2).all(|w| w[0].due < w[1].due));
        let base: Vec<Nat> = sc.lines.iter().map(|l| Nat::from_hex(l).unwrap()).collect();
        let mut indexed = base.clone();
        let mut pending = Vec::new();
        let mut weak = 0;
        for c in &sc.candidates {
            let g = indexed
                .iter()
                .map(|m| m.gcd_reference(&c.n))
                .find(|g| !g.is_one())
                .unwrap_or_else(Nat::one);
            match &c.expect {
                Some(p) => {
                    assert_eq!(&g, p, "weak candidate answer is its planted prime");
                    weak += 1;
                }
                None => {
                    assert!(g.is_one(), "clean candidate shares nothing indexed");
                    pending.push(c.n.clone());
                    if pending.len() == stream.commit_every {
                        indexed.append(&mut pending);
                    }
                }
            }
        }
        assert_eq!(weak, WEAK_CANDIDATES);
    }
}

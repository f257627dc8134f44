//! Incremental weak-key checking.
//!
//! The all-pairs scan answers "which of these m keys share primes"; a key
//! *service* faces the streaming variant: "does this one new modulus share
//! a prime with anything we have seen?". The index keeps the corpus as a
//! flat list of segment products, so a check is one pass over about
//! `m·|n|` limbs of products plus one GCD, instead of m pairwise GCDs, and
//! registering a key costs one multiply into the open tail segment.

use bulkgcd_bigint::{MontFold, Nat};
use std::fmt;

/// Limb budget of one segment product: 32 1024-bit keys.
///
/// Measured on 4096 random odd 1024-bit moduli, one thread on a 2-vCPU
/// host, budgets interleaved over 15 rounds of 10 checks: at 256 / 512 /
/// 1024 / 2048 limbs the build took 13 / 22 / 36 / 59 ms and a check
/// 2.00 / 1.51 / 1.31 / 1.24 ms (a second run: 17 / 27 / 42 / 67 ms and
/// 2.28 / 1.88 / 1.36 / 1.20 ms). The folded work is the same at any
/// budget; a larger one saves per-segment combines and pays in wider build
/// multiplies and inserts (a key is multiplied into up to this many
/// limbs). Past 1024 the check gains ~5% for a build 1.6× slower. In the
/// same runs the whole-corpus product tree built in 0.25–0.28 s.
const SEGMENT_LIMBS: usize = 1024;

/// A zero modulus offered to the index. `gcd(0, n) = n` would make it
/// "share a factor" with every key; a key service must refuse it at the
/// door instead of poisoning the index (a zero key zeroes its segment's
/// product, breaking every later check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroModulus;

impl fmt::Display for ZeroModulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "candidate modulus is zero")
    }
}

impl std::error::Error for ZeroModulus {}

/// A corpus index answering shared-prime checks against every registered
/// modulus in one pass over the corpus's products.
///
/// The moduli are kept only as products: consecutive keys are multiplied
/// into segments of at most `SEGMENT_LIMBS` limbs (a key wider than that
/// gets a segment of its own), and the last segment stays open for
/// [`Self::insert`]. No product over the whole corpus is ever formed.
#[derive(Debug, Clone, Default)]
pub struct CorpusIndex {
    /// Segment products in insertion order; the last one is the open tail.
    segments: Vec<Nat>,
    /// Number of registered moduli.
    keys: usize,
}

impl CorpusIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index over the corpus stored in a compiled arena file (`bulkgcd
    /// ingest` output) — the bridge that lets the incremental key service
    /// bootstrap from the same on-disk artifact the batch scans stream.
    ///
    /// A sanitized arena never stores a zero modulus, so finding one is
    /// reported as arena corruption rather than [`ZeroModulus`].
    pub fn from_arena_source(
        source: &mut crate::store::ArenaSource,
    ) -> Result<Self, crate::store::StoreError> {
        let stride = source.stride().max(1);
        let limbs = source.load_rows(0, source.rows())?;
        let moduli: Vec<Nat> = limbs
            .chunks_exact(stride)
            .map(Nat::from_limb_slice)
            .collect();
        Self::from_moduli(&moduli).map_err(|_| crate::store::StoreError::Corrupt {
            line: 2,
            reason: "arena stores a zero modulus".into(),
        })
    }

    /// Index over an initial corpus. Refuses a corpus containing a zero
    /// modulus, for the same reason [`Self::insert`] does.
    ///
    /// Keys are cut into runs of at most `SEGMENT_LIMBS` limbs in order,
    /// and each run is multiplied up by a small product tree.
    pub fn from_moduli(moduli: &[Nat]) -> Result<Self, ZeroModulus> {
        if moduli.iter().any(Nat::is_zero) {
            return Err(ZeroModulus);
        }
        let mut segments = Vec::new();
        let mut start = 0;
        let mut limbs = 0;
        for (i, n) in moduli.iter().enumerate() {
            if i > start && limbs + n.len() > SEGMENT_LIMBS {
                segments.push(product(&moduli[start..i]));
                start = i;
                limbs = 0;
            }
            limbs += n.len();
        }
        if start < moduli.len() {
            segments.push(product(&moduli[start..]));
        }
        Ok(CorpusIndex {
            segments,
            keys: moduli.len(),
        })
    }

    /// Number of indexed moduli.
    pub fn len(&self) -> usize {
        self.keys
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.keys == 0
    }

    /// Check a candidate modulus against everything indexed: returns
    /// `gcd(n, P mod n)` with `P` the product of every indexed modulus — a
    /// value > 1 exactly when `n` shares a factor with (or equals) some
    /// indexed modulus. Every [`Self::insert`] counts at once. A zero
    /// candidate is refused ([`ZeroModulus`]) rather than asserted away.
    ///
    /// For odd `n > 1` each segment `S` is folded to `S·2^(−64·L) mod n`
    /// ([`MontFold::fold`]) and the residues are combined by Montgomery
    /// products (multiply, then fold), so the result is `r = P·u mod n`
    /// with `u` a power of `2^(−64)`. Since `n` is odd, `u` is a unit mod `n`:
    /// `r` is zero exactly when `P ≡ 0 (mod n)`, and
    /// `gcd(r, n) = gcd(P·u, n) = gcd(P, n) = gcd(P mod n, n)`, bit for bit
    /// the answer of reducing `P` itself. Even `n` and `n = 1` reduce each
    /// segment by division instead.
    pub fn shared_factor(&self, n: &Nat) -> Result<Nat, ZeroModulus> {
        if n.is_zero() {
            return Err(ZeroModulus);
        }
        if self.is_empty() {
            return Ok(Nat::one());
        }
        let r = if n.is_odd() && !n.is_one() {
            let fold = MontFold::new(n);
            self.segments
                .iter()
                .map(|s| fold.fold(s.limbs()))
                .reduce(|acc, s| fold.fold(acc.mul(&s).limbs()))
                .unwrap_or_else(Nat::one)
        } else {
            self.segments
                .iter()
                .fold(Nat::one(), |acc, s| acc.mul(&s.rem(n)).rem(n))
        };
        if r.is_zero() {
            // n divides the product: n itself is (a product of) shared
            // primes — the duplicate-modulus case.
            return Ok(n.clone());
        }
        Ok(r.gcd(n))
    }

    /// Register a new modulus, visible to every later check. It is
    /// multiplied into the open tail segment, O(|tail|·|n|), or starts a
    /// new tail when the tail would outgrow `SEGMENT_LIMBS`. A zero
    /// modulus is refused — indexing one would zero its segment and break
    /// every later check.
    pub fn insert(&mut self, n: Nat) -> Result<(), ZeroModulus> {
        if n.is_zero() {
            return Err(ZeroModulus);
        }
        match self.segments.last_mut() {
            Some(tail) if tail.len() + n.len() <= SEGMENT_LIMBS => *tail = tail.mul(&n),
            _ => self.segments.push(n),
        }
        self.keys += 1;
        Ok(())
    }

    /// A no-op: [`Self::insert`] already indexes the key. Kept so callers
    /// that batch inserts and then commit them, such as a key service
    /// flushing a buffer of accepted keys, keep working unchanged.
    pub fn commit(&mut self) {}

    /// Check-then-insert in one step: returns the shared factor (1 when
    /// clean) and registers the modulus either way. A zero modulus is
    /// refused and the index is left untouched. Costs one check plus one
    /// multiply into the tail segment.
    pub fn check_and_insert(&mut self, n: &Nat) -> Result<Nat, ZeroModulus> {
        let g = self.shared_factor(n)?;
        self.insert(n.clone())?;
        Ok(g)
    }
}

/// Product of a non-empty run of moduli by a balanced product tree, so
/// the multiplies stay balanced and the ladder picks its fast rungs.
fn product(moduli: &[Nat]) -> Nat {
    match moduli {
        [n] => n.clone(),
        _ => {
            let (a, b) = moduli.split_at(moduli.len() / 2);
            product(a).mul(&product(b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulkgcd_bigint::prime::random_rsa_prime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nat(v: u128) -> Nat {
        Nat::from_u128(v)
    }

    #[test]
    fn empty_index_reports_clean() {
        let idx = CorpusIndex::new();
        assert!(idx.is_empty());
        assert!(idx.shared_factor(&nat(101 * 103)).unwrap().is_one());
    }

    #[test]
    fn index_bootstraps_from_a_compiled_arena() {
        use crate::arena::ModuliArena;
        use crate::store::{write_arena, ArenaSource};
        use bulkgcd_core::rankselect::RankSelect;

        let moduli = [nat(101 * 211), nat(103 * 223), nat(107 * 227)];
        let arena = ModuliArena::try_from_moduli(&moduli).unwrap();
        let path = std::env::temp_dir().join(format!("bulkgcd-incr-{}.arena", std::process::id()));
        let acceptance = RankSelect::from_bools(&[true; 3]);
        write_arena(&path, &arena, &acceptance, 0).unwrap();
        let mut source = ArenaSource::open(&path).unwrap();
        let idx = CorpusIndex::from_arena_source(&mut source).unwrap();
        assert_eq!(idx.len(), 3);
        assert_eq!(
            idx.shared_factor(&nat(103 * 1009)).unwrap(),
            nat(103),
            "indexed corpus must expose the shared prime"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn detects_shared_prime_with_indexed_modulus() {
        let idx =
            CorpusIndex::from_moduli(&[nat(101 * 211), nat(103 * 223), nat(107 * 227)]).unwrap();
        assert_eq!(idx.len(), 3);
        // Candidate shares 103 with the second modulus.
        assert_eq!(idx.shared_factor(&nat(103 * 229)).unwrap(), nat(103));
        // Clean candidate.
        assert!(idx.shared_factor(&nat(109 * 233)).unwrap().is_one());
    }

    #[test]
    fn duplicate_modulus_detected() {
        let n = nat(101 * 211);
        let idx = CorpusIndex::from_moduli(&[n.clone(), nat(103 * 223)]).unwrap();
        assert_eq!(idx.shared_factor(&n).unwrap(), n);
    }

    #[test]
    fn check_and_insert_stream() {
        let mut idx = CorpusIndex::new();
        assert!(idx.check_and_insert(&nat(101 * 211)).unwrap().is_one());
        assert!(idx.check_and_insert(&nat(103 * 223)).unwrap().is_one());
        // Third key reuses 101.
        assert_eq!(idx.check_and_insert(&nat(101 * 227)).unwrap(), nat(101));
        assert_eq!(idx.len(), 3);
        // Fourth key reuses 227 from the third.
        assert_eq!(idx.check_and_insert(&nat(227 * 229)).unwrap(), nat(227));
    }

    #[test]
    fn matches_pairwise_scan_on_rsa_corpus() {
        let mut rng = StdRng::seed_from_u64(1);
        let shared = random_rsa_prime(&mut rng, 48);
        let moduli = vec![
            random_rsa_prime(&mut rng, 48).mul(&random_rsa_prime(&mut rng, 48)),
            shared.mul(&random_rsa_prime(&mut rng, 48)),
            random_rsa_prime(&mut rng, 48).mul(&random_rsa_prime(&mut rng, 48)),
        ];
        let idx = CorpusIndex::from_moduli(&moduli).unwrap();
        let candidate = shared.mul(&random_rsa_prime(&mut rng, 48));
        assert_eq!(idx.shared_factor(&candidate).unwrap(), shared);
    }

    #[test]
    fn insert_without_commit_then_query_rebuilds() {
        let mut idx = CorpusIndex::new();
        idx.insert(nat(101 * 211)).unwrap();
        idx.insert(nat(103 * 223)).unwrap();
        idx.commit();
        assert_eq!(idx.shared_factor(&nat(211 * 9973)).unwrap(), nat(211));
    }

    #[test]
    fn uncommitted_insert_is_visible_to_checks() {
        let mut idx = CorpusIndex::from_moduli(&[nat(101 * 211), nat(103 * 223)]).unwrap();
        idx.insert(nat(107 * 227)).unwrap();
        // No commit: the pending key's prime is still found.
        assert_eq!(idx.shared_factor(&nat(227 * 229)).unwrap(), nat(227));
        assert_eq!(idx.shared_factor(&nat(101 * 233)).unwrap(), nat(101));
        assert!(idx.shared_factor(&nat(109 * 233)).unwrap().is_one());
        assert_eq!(idx.shared_factor(&nat(107 * 227)).unwrap(), nat(107 * 227));
        // Pending keys only, no tree yet.
        let mut fresh = CorpusIndex::new();
        fresh.insert(nat(101 * 211)).unwrap();
        assert_eq!(fresh.shared_factor(&nat(211 * 239)).unwrap(), nat(211));
        // Committing changes no answer.
        let before = idx.shared_factor(&nat(103 * 227)).unwrap();
        idx.commit();
        assert_eq!(idx.shared_factor(&nat(103 * 227)).unwrap(), before);
        assert_eq!(before, nat(103 * 227));
    }

    #[test]
    fn segments_stay_within_budget_and_inserts_match_a_bootstrap() {
        let mut rng = StdRng::seed_from_u64(2);
        // 100 keys of 24 limbs (42 to a segment) with a key wider than a
        // whole segment in the middle, which gets a segment of its own:
        // 42 + 8 keys, the wide key, 42 + 8 keys.
        let mut keys: Vec<Nat> = (0..100)
            .map(|_| bulkgcd_bigint::random::random_odd_bits(&mut rng, 24 * 32))
            .collect();
        keys.insert(
            50,
            bulkgcd_bigint::random::random_odd_bits(&mut rng, 1100 * 32),
        );
        let boot = CorpusIndex::from_moduli(&keys).unwrap();
        let mut streamed = CorpusIndex::new();
        for k in &keys {
            streamed.insert(k.clone()).unwrap();
        }
        for idx in [&boot, &streamed] {
            assert_eq!(idx.len(), keys.len());
            assert_eq!(idx.segments.len(), 5);
            assert_eq!(idx.segments[2], keys[50]);
            let prod = keys.iter().fold(Nat::one(), |p, k| p.mul(k));
            assert_eq!(idx.segments.iter().fold(Nat::one(), |p, s| p.mul(s)), prod);
            for s in idx.segments.iter().filter(|s| **s != keys[50]) {
                assert!(s.len() <= SEGMENT_LIMBS);
            }
        }
        // A key from the last segment, even and odd candidates.
        let p = nat(1_000_003);
        let weak = keys[99].mul(&p);
        assert_eq!(boot.shared_factor(&weak).unwrap(), keys[99]);
        assert_eq!(streamed.shared_factor(&weak.shl(1)).unwrap(), keys[99]);
        assert_eq!(boot.shared_factor(&keys[50]).unwrap(), keys[50]);
    }

    #[test]
    fn zero_moduli_are_refused_not_asserted() {
        let mut idx = CorpusIndex::from_moduli(&[nat(101 * 211)]).unwrap();
        assert_eq!(idx.shared_factor(&Nat::default()), Err(ZeroModulus));
        assert_eq!(idx.insert(Nat::default()), Err(ZeroModulus));
        assert_eq!(idx.check_and_insert(&Nat::default()), Err(ZeroModulus));
        assert_eq!(idx.len(), 1, "refused moduli must not be registered");
        assert_eq!(
            CorpusIndex::from_moduli(&[nat(3), Nat::default()]).err(),
            Some(ZeroModulus)
        );
    }
}

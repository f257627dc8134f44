//! Incremental weak-key checking.
//!
//! The all-pairs scan answers "which of these m keys share primes"; a key
//! *service* faces the streaming variant: "does this one new modulus share
//! a prime with anything we have seen?". A precomputed product tree makes
//! each check one `P mod n` plus one GCD — quasi-constant work per new key
//! instead of m pairwise GCDs.

use crate::batch::ProductTree;
use bulkgcd_bigint::Nat;
use std::fmt;

/// A zero modulus offered to the index. `gcd(0, n) = n` would make it
/// "share a factor" with every key; a key service must refuse it at the
/// door instead of poisoning the product tree (a zero leaf zeroes the
/// root, breaking every later check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroModulus;

impl fmt::Display for ZeroModulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "candidate modulus is zero")
    }
}

impl std::error::Error for ZeroModulus {}

/// A corpus index supporting O(log-ish) shared-prime checks against all
/// previously registered moduli.
#[derive(Debug, Clone, Default)]
pub struct CorpusIndex {
    moduli: Vec<Nat>,
    /// Product tree over the committed prefix `moduli[..committed]`.
    tree: Option<ProductTree>,
    /// Moduli covered by `tree`; `moduli[committed..]` are pending inserts.
    committed: usize,
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
    pub fn from_moduli(moduli: &[Nat]) -> Result<Self, ZeroModulus> {
        if moduli.iter().any(Nat::is_zero) {
            return Err(ZeroModulus);
        }
        let mut idx = CorpusIndex {
            moduli: moduli.to_vec(),
            ..Self::default()
        };
        idx.rebuild();
        Ok(idx)
    }

    fn rebuild(&mut self) {
        // Drop the old tree first: a rebuild never holds two trees.
        self.tree = None;
        if !self.moduli.is_empty() {
            self.tree = Some(ProductTree::build(&self.moduli));
        }
        self.committed = self.moduli.len();
    }

    /// Number of indexed moduli.
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// Check a candidate modulus against everything indexed: returns
    /// `gcd(n, P mod n)` — a value > 1 exactly when `n` shares a factor
    /// with (or equals) some indexed modulus. Moduli inserted since the
    /// last [`Self::commit`] count too: their residues mod `n` join the
    /// committed tree's, so the answer is the one a commit would give. A
    /// zero candidate is refused ([`ZeroModulus`]) rather than asserted
    /// away.
    pub fn shared_factor(&self, n: &Nat) -> Result<Nat, ZeroModulus> {
        if n.is_zero() {
            return Err(ZeroModulus);
        }
        if self.moduli.is_empty() {
            return Ok(Nat::one());
        }
        let mut r = match &self.tree {
            Some(tree) => tree.root().rem(n),
            None => Nat::one(),
        };
        for m in &self.moduli[self.committed..] {
            r = r.mul(&m.rem(n)).rem(n);
        }
        if r.is_zero() {
            // n divides the product: n itself is (a product of) shared
            // primes — the duplicate-modulus case.
            return Ok(n.clone());
        }
        Ok(r.gcd_reference(n))
    }

    /// Register a new modulus. Checks see it at once (reduced mod the
    /// candidate directly) and the next [`Self::commit`] folds it into the
    /// product tree. A zero modulus is refused — indexing one would zero
    /// the product tree's root and break every later check.
    pub fn insert(&mut self, n: Nat) -> Result<(), ZeroModulus> {
        if n.is_zero() {
            return Err(ZeroModulus);
        }
        self.moduli.push(n);
        Ok(())
    }

    /// Rebuild the tree over every modulus after a batch of
    /// [`Self::insert`]s.
    pub fn commit(&mut self) {
        self.rebuild();
    }

    /// Check-then-insert in one step: returns the shared factor (1 when
    /// clean) and registers the modulus either way. A zero modulus is
    /// refused and the index is left untouched.
    ///
    /// Note: rebuilding per key is O(m) multiplications; batch inserts and
    /// a single [`Self::commit`] when throughput matters.
    pub fn check_and_insert(&mut self, n: &Nat) -> Result<Nat, ZeroModulus> {
        let g = self.shared_factor(n)?;
        self.insert(n.clone())?;
        self.commit();
        Ok(g)
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

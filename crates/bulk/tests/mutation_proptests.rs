//! Byte-mutation properties for the three durable file formats: the scan
//! journal, the shard lease ledger and the arena file.
//!
//! Each mutation takes one valid file written by the real writers and
//! applies a seeded truncation at any offset, a byte flip, or an inserted
//! byte run. Replaying the result must return `Ok` or a typed error and
//! never panic. A journal that replays `Ok` must survive its own
//! serialization: `from_bytes(to_bytes())` gives the same state. A ledger
//! that opens and takes a new record must open again.

use bulkgcd_bigint::Nat;
use bulkgcd_bulk::shard::coordinator::LedgerHeader;
use bulkgcd_bulk::{
    write_arena, ArenaSource, Coordinator, Finding, FindingKind, JournalHeader, LaunchRecord,
    ModuliArena, ScanJournal,
};
use bulkgcd_core::RankSelectBuilder;
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Mutations tried per case, each on a fresh copy of the valid file.
const MUTATIONS_PER_CASE: usize = 8;

/// Bytes that steer insertions into the formats' grammar: newlines,
/// separators, digits and record tags.
const GRAMMAR: &[u8] = b"\n =,0123456789abcdefHLDACRBPS";

#[derive(Debug, Clone)]
enum Mutation {
    Truncate(usize),
    Flip(usize, u8),
    Insert(usize, Vec<u8>),
}

fn mutation_byte() -> impl Strategy<Value = u8> {
    prop_oneof![any::<u8>(), (0..GRAMMAR.len()).prop_map(|i| GRAMMAR[i])]
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<usize>().prop_map(Mutation::Truncate),
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip(at, mask)),
        (any::<usize>(), vec(mutation_byte(), 1..12))
            .prop_map(|(at, run)| Mutation::Insert(at, run)),
    ]
}

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    vec(mutation(), MUTATIONS_PER_CASE)
}

fn mutate(bytes: &[u8], m: &Mutation) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match m {
        Mutation::Truncate(at) => out.truncate(at % (bytes.len() + 1)),
        Mutation::Flip(at, mask) => out[at % bytes.len()] ^= mask,
        Mutation::Insert(at, run) => {
            let at = at % (bytes.len() + 1);
            out.splice(at..at, run.iter().copied());
        }
    }
    out
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bulkgcd-mutation-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// A shard journal: tile header, out-of-order records with both finding
/// kinds, and the done marker.
fn journal_file() -> &'static [u8] {
    static FILE: OnceLock<Vec<u8>> = OnceLock::new();
    FILE.get_or_init(write_journal)
}

fn write_journal() -> Vec<u8> {
    let header = JournalHeader {
        fingerprint: 0x0123_4567_89ab_cdef,
        moduli: 8,
        stride: 2,
        algo: "(E)".to_string(),
        early: true,
        launch_pairs: 2,
        launches: 14,
        tile_start: 2,
        tile_launches: 3,
    };
    let path = tmp("writer.journal");
    let _ = std::fs::remove_file(&path);
    let mut journal = ScanJournal::open(&path).unwrap();
    journal.check_compatible(&header).unwrap();
    for launch in [4u64, 2, 3] {
        let findings = (0..launch - 2)
            .map(|k| Finding {
                i: k as usize,
                j: launch as usize,
                kind: if k == 0 {
                    FindingKind::SharedPrime
                } else {
                    FindingKind::DuplicateModulus
                },
                factor: Nat::from_u64(0xdead_beef + launch),
            })
            .collect();
        journal
            .record(LaunchRecord {
                launch,
                simulated_seconds: 0.1 * launch as f64,
                cpu_fallback: launch == 3,
                findings,
            })
            .unwrap();
    }
    journal.mark_done().unwrap();
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

fn ledger_header() -> LedgerHeader {
    LedgerHeader {
        fingerprint: 0xfeed,
        moduli: 16,
        launch_pairs: 4,
        launches: 30,
        tiles: 3,
        algo: "(E)".to_string(),
        early: true,
    }
}

/// A ledger with acquire, renew and complete lines.
fn ledger_file() -> &'static [u8] {
    static FILE: OnceLock<Vec<u8>> = OnceLock::new();
    FILE.get_or_init(write_ledger)
}

fn write_ledger() -> Vec<u8> {
    let path = tmp("writer.ledger");
    let _ = std::fs::remove_file(&path);
    let mut c = Coordinator::open(&path).unwrap();
    c.check_compatible(&ledger_header()).unwrap();
    c.acquire("w0", 0, 10).unwrap().unwrap();
    c.acquire("w1", 1, 10).unwrap().unwrap();
    c.renew(0, "w0", 5, 10).unwrap();
    c.complete(0, "w0", 0xabc).unwrap();
    c.acquire("w2", 12, 10).unwrap().unwrap();
    drop(c);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// An arena of four moduli out of six raw inputs.
fn arena_file() -> &'static [u8] {
    static FILE: OnceLock<Vec<u8>> = OnceLock::new();
    FILE.get_or_init(write_arena_file)
}

fn write_arena_file() -> Vec<u8> {
    let moduli: Vec<Nat> = [15u64, 21, 0x1_0000_0001, 77]
        .iter()
        .map(|&v| Nat::from_u64(v))
        .collect();
    let arena = ModuliArena::try_from_moduli(&moduli).unwrap();
    let mut bits = RankSelectBuilder::new();
    for accepted in [true, false, true, true, false, true] {
        bits.push(accepted);
    }
    let path = tmp("writer.arena");
    write_arena(&path, &arena, &bits.finish(), 3).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

proptest! {
    #[test]
    fn mutated_scan_journal_replays_or_is_refused(ms in mutations()) {
        for m in &ms {
            let Ok(journal) = ScanJournal::from_bytes(&mutate(journal_file(), m)) else {
                continue;
            };
            let again = ScanJournal::from_bytes(&journal.to_bytes())
                .expect("a journal's own serialization replays");
            prop_assert_eq!(again.header(), journal.header(), "{:?}", m);
            prop_assert_eq!(
                again.records().collect::<Vec<_>>(),
                journal.records().collect::<Vec<_>>(),
                "{:?}",
                m
            );
            prop_assert_eq!(again.is_done(), journal.is_done(), "{:?}", m);
        }
    }

    #[test]
    fn mutated_ledger_opens_or_is_refused(ms in mutations()) {
        let path = tmp("mutated.ledger");
        for m in &ms {
            std::fs::write(&path, mutate(ledger_file(), m)).unwrap();
            let Ok(mut c) = Coordinator::open(&path) else {
                continue;
            };
            if c.check_compatible(&ledger_header()).is_ok() && c.acquire("w3", 40, 10).is_ok() {
                drop(c);
                if let Err(e) = Coordinator::open(&path) {
                    panic!("{m:?}: ledger no longer opens after an append: {e}");
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mutated_arena_opens_or_is_refused(ms in mutations()) {
        let path = tmp("mutated.arena");
        for m in &ms {
            std::fs::write(&path, mutate(arena_file(), m)).unwrap();
            if let Ok(mut src) = ArenaSource::open(&path) {
                let _ = src.load_arena();
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}

//! Deterministic merge of per-shard journals into one unsharded report.
//!
//! Why the merge is exact (the proof sketch, expanded in DESIGN.md §4c):
//! tiles are unions of *whole launches*, and a launch's journal record —
//! its findings (each pair lives in exactly one launch), its
//! `combine_terminations` fold (computed within the launch), and its
//! simulated seconds (priced per launch) — does not depend on which
//! process executed it. The unsharded scan builds its report by folding
//! journal records in global launch order: findings concatenated then
//! sorted by `(i, j)`, simulated seconds summed as `f64` in launch order.
//! This module performs the *same fold over the same records in the same
//! order*, just read from several journals instead of one — so the merged
//! report is bitwise identical, including the non-associative `f64` sum.

use crate::checkpoint::ScanJournal;
use crate::scan::report::ScanReport;
use crate::shard::TilePlan;
use std::fmt;
use std::time::Duration;

/// Why per-shard journals could not be merged.
#[derive(Debug)]
pub enum MergeError {
    /// The number of journals does not match the plan's tile count.
    WrongJournalCount {
        /// Tiles in the plan.
        expected: usize,
        /// Journals supplied.
        got: usize,
    },
    /// A journal is not bound to the tile the plan puts at its position.
    TileMismatch {
        /// The tile position in the plan.
        tile: usize,
        /// What the journal's header covers (`start+launches`), or `None`
        /// if it has no header at all.
        journal: Option<(u64, u64)>,
        /// What the plan expects.
        expected: (u64, u64),
    },
    /// A journal is not done-marked or is missing launch records: its
    /// shard has not finished.
    Incomplete {
        /// The unfinished tile.
        tile: usize,
        /// Records committed so far.
        committed: u64,
        /// Records the tile needs.
        needed: u64,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::WrongJournalCount { expected, got } => {
                write!(f, "expected {expected} shard journals, got {got}")
            }
            MergeError::TileMismatch {
                tile,
                journal,
                expected,
            } => write!(
                f,
                "journal {tile} covers {journal:?}, but the plan's tile {tile} is \
                 [{}, +{})",
                expected.0, expected.1
            ),
            MergeError::Incomplete {
                tile,
                committed,
                needed,
            } => write!(
                f,
                "tile {tile} is incomplete ({committed} of {needed} launches committed)"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Fold completed per-shard journals (index-aligned with
/// `plan.tiles()`) into the report an unsharded scan of the same corpus
/// would produce. `priced` states whether the backend prices launches
/// (fills `simulated_seconds`); `elapsed` is the caller's wall-clock for
/// the whole sharded run.
pub fn merge_tiles(
    plan: &TilePlan,
    journals: &[&ScanJournal],
    priced: bool,
    elapsed: Duration,
) -> Result<ScanReport, MergeError> {
    if journals.len() != plan.len() {
        return Err(MergeError::WrongJournalCount {
            expected: plan.len(),
            got: journals.len(),
        });
    }

    for (tile, journal) in plan.tiles().iter().zip(journals) {
        let expected = (tile.start, tile.launches);
        match journal.header() {
            Some(h) if (h.tile_start, h.tile_launches) == expected => {}
            other => {
                return Err(MergeError::TileMismatch {
                    tile: tile.index,
                    journal: other.map(|h| (h.tile_start, h.tile_launches)),
                    expected,
                });
            }
        }
        if !journal.is_done() || journal.committed() != tile.launches {
            return Err(MergeError::Incomplete {
                tile: tile.index,
                committed: journal.committed(),
                needed: tile.launches,
            });
        }
    }
    // Tiles are ordered by start and journals key records by launch
    // index, so this folds records in *global* launch order — the exact
    // fold order of the unsharded scan, which is what keeps the f64 sum
    // bitwise identical. Per-tile pair counts sum back to the full
    // triangle by construction, so the total comes from the plan's corpus.
    let records = journals.iter().flat_map(|j| j.records());
    Ok(ScanReport::fold(
        records.map(|r| (r.findings.as_slice(), r.simulated_seconds)),
        total_pairs(plan.moduli()),
        elapsed,
        priced,
    ))
}

fn total_pairs(moduli: usize) -> u64 {
    let m = moduli as u64;
    m * m.saturating_sub(1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{JournalHeader, LaunchRecord, ScanJournal};

    fn journal_for(
        header: &JournalHeader,
        tile: (u64, u64),
        records: impl IntoIterator<Item = LaunchRecord>,
        done: bool,
    ) -> ScanJournal {
        let mut h = header.clone();
        h.tile_start = tile.0;
        h.tile_launches = tile.1;
        let mut j = ScanJournal::in_memory();
        j.check_compatible(&h).unwrap();
        for rec in records {
            j.record(rec).unwrap();
        }
        if done {
            j.mark_done().unwrap();
        }
        j
    }

    fn rec(launch: u64, sim: f64) -> LaunchRecord {
        LaunchRecord {
            launch,
            simulated_seconds: sim,
            cpu_fallback: false,
            findings: Vec::new(),
        }
    }

    fn header() -> JournalHeader {
        JournalHeader {
            fingerprint: 7,
            moduli: 4, // 6 pairs, launch_pairs=2 => 3 launches
            stride: 2,
            algo: "(E)".to_string(),
            early: true,
            launch_pairs: 2,
            launches: 3,
            tile_start: 0,
            tile_launches: 3,
        }
    }

    #[test]
    fn merge_sums_simulated_seconds_in_global_launch_order() {
        let plan = TilePlan::new(4, 2, 2); // tiles [0,2) and [2,3)
        let h = header();
        let j0 = journal_for(&h, (0, 2), [rec(0, 0.1), rec(1, 0.2)], true);
        let j1 = journal_for(&h, (2, 1), [rec(2, 0.3)], true);
        let merged = merge_tiles(&plan, &[&j0, &j1], true, Duration::ZERO).unwrap();
        let expected = 0.1f64 + 0.2 + 0.3; // the unsharded fold order
        assert_eq!(
            merged.simulated_seconds.unwrap().to_bits(),
            expected.to_bits()
        );
        assert_eq!(merged.pairs_scanned, 6);
        assert!(merged.findings.is_empty());
    }

    #[test]
    fn incomplete_or_mismatched_journals_are_refused() {
        let plan = TilePlan::new(4, 2, 2);
        let h = header();
        let done0 = journal_for(&h, (0, 2), [rec(0, 0.0), rec(1, 0.0)], true);
        // Not done-marked.
        let undone = journal_for(&h, (2, 1), [rec(2, 0.0)], false);
        match merge_tiles(&plan, &[&done0, &undone], true, Duration::ZERO) {
            Err(MergeError::Incomplete { tile: 1, .. }) => {}
            other => panic!("expected Incomplete, got {other:?}"),
        }
        // Wrong tile bounds for its position.
        let wrong = journal_for(&h, (0, 2), [rec(0, 0.0), rec(1, 0.0)], true);
        match merge_tiles(&plan, &[&done0, &wrong], true, Duration::ZERO) {
            Err(MergeError::TileMismatch { tile: 1, .. }) => {}
            other => panic!("expected TileMismatch, got {other:?}"),
        }
        // Wrong journal count.
        match merge_tiles(&plan, &[&done0], true, Duration::ZERO) {
            Err(MergeError::WrongJournalCount {
                expected: 2,
                got: 1,
            }) => {}
            other => panic!("expected WrongJournalCount, got {other:?}"),
        }
    }
}

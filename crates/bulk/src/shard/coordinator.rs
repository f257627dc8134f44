//! The tile-assignment coordinator: an append-only lease ledger.
//!
//! One coordinator owns the [`TilePlan`](crate::shard::TilePlan) and hands
//! tiles to workers under *leases* measured on a logical clock (plain
//! `u64` ticks supplied by the caller — never wall time, so every test
//! and every resumed run replays identically). The protocol:
//!
//! * [`acquire`](Coordinator::acquire) assigns the lowest-indexed
//!   incomplete tile that is unassigned *or whose lease has expired* —
//!   expiry is the dead-worker detector: a worker that stops heartbeating
//!   loses the tile and a fresh worker resumes it from its journal;
//! * [`renew`](Coordinator::renew) is the heartbeat: it extends the lease
//!   iff the caller still holds it and it has not expired, otherwise the
//!   worker learns it lost the tile ([`LedgerError::LeaseLost`]) and must
//!   abandon it without completing;
//! * [`complete`](Coordinator::complete) records the tile's result
//!   fingerprint (FNV-1a-64 over the shard journal's launch records, see
//!   [`tile_fingerprint`]). A second completion with the *same*
//!   fingerprint — a resurrected worker resubmitting — is discarded as
//!   [`Completion::Duplicate`]; a different fingerprint is
//!   [`LedgerError::ConflictingCompletion`], because deterministic tiles
//!   cannot legitimately produce two different results.
//!
//! The ledger is a `bulk::journal` file, like the scan journal of
//! [`bulk::checkpoint`](crate::checkpoint): line-oriented plain text,
//! magic + header in one append, fsync per record, and a torn final line
//! dropped and truncated away on reopen:
//!
//! ```text
//! bulkgcd-shard-ledger v1
//! H fp=<hex16> m=<moduli> launch_pairs=<n> launches=<n> tiles=<n> algo=<tag> early=<0|1>
//! A tile=<i> worker=<name> expires=<tick>
//! R tile=<i> worker=<name> expires=<tick>
//! C tile=<i> worker=<name> fp=<hex16>
//! ```

use crate::arena::ModuliArena;
use crate::checkpoint::{corpus_fingerprint, ScanJournal};
use crate::journal::{
    field, first_mismatch, parse_hex_u64, parse_num, Corrupt, Fnv64, HeaderField, Journal,
};
use crate::shard::TilePlan;
use bulkgcd_core::Algorithm;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;

/// First line of every ledger file.
const MAGIC: &str = "bulkgcd-shard-ledger v1";

/// FNV-1a-64 over a completed tile journal's launch records (their exact
/// journal lines, in launch order). Two executions of the same tile over
/// the same corpus — original, resumed, or re-run by a reclaiming worker —
/// produce the same records and therefore the same fingerprint; the
/// coordinator uses it to tell harmless duplicate completions from
/// impossible conflicting ones.
pub fn tile_fingerprint(journal: &ScanJournal) -> u64 {
    let mut h = Fnv64::new();
    for record in journal.records() {
        h.eat(record.to_line().as_bytes());
        h.eat(b"\n");
    }
    h.finish()
}

/// Why the ledger refused an operation.
#[derive(Debug)]
pub enum LedgerError {
    /// The ledger file could not be read or appended to.
    Io(io::Error),
    /// A complete ledger line failed to parse (a torn final line is
    /// dropped, not an error).
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The ledger belongs to a different sharded scan configuration.
    Mismatch {
        /// The header field that differs.
        field: &'static str,
        /// The ledger's value.
        ledger: String,
        /// The current run's value.
        run: String,
    },
    /// A tile index outside the plan.
    UnknownTile {
        /// The offending tile index.
        tile: usize,
    },
    /// The caller no longer holds the tile's lease (it expired or the
    /// tile was reassigned); it must abandon the tile.
    LeaseLost {
        /// The tile whose lease was lost.
        tile: usize,
        /// The worker that lost it.
        worker: String,
    },
    /// Two completions of the same tile reported different result
    /// fingerprints — impossible for a deterministic scan, so one of the
    /// journals is corrupt or belongs to a different corpus.
    ConflictingCompletion {
        /// The tile completed twice.
        tile: usize,
        /// The fingerprint already on record.
        have: u64,
        /// The conflicting fingerprint just submitted.
        got: u64,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Io(e) => write!(f, "ledger I/O: {e}"),
            LedgerError::Corrupt { line, reason } => {
                write!(f, "ledger corrupt at line {line}: {reason}")
            }
            LedgerError::Mismatch { field, ledger, run } => write!(
                f,
                "ledger belongs to a different sharded scan ({field}: ledger has {ledger}, \
                 this run has {run}); delete it or rerun with the original settings"
            ),
            LedgerError::UnknownTile { tile } => {
                write!(f, "tile {tile} is outside the ledger's tile plan")
            }
            LedgerError::LeaseLost { tile, worker } => write!(
                f,
                "worker {worker} no longer holds the lease on tile {tile}; \
                 the tile was reclaimed"
            ),
            LedgerError::ConflictingCompletion { tile, have, got } => write!(
                f,
                "tile {tile} completed twice with different fingerprints \
                 ({have:016x} vs {got:016x}); a shard journal is corrupt"
            ),
        }
    }
}

impl std::error::Error for LedgerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LedgerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LedgerError {
    fn from(e: io::Error) -> Self {
        LedgerError::Io(e)
    }
}

impl From<Corrupt> for LedgerError {
    fn from(Corrupt { line, reason }: Corrupt) -> Self {
        LedgerError::Corrupt { line, reason }
    }
}

/// The sharded-scan configuration a ledger is bound to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerHeader {
    /// [`corpus_fingerprint`] of the arena.
    pub fingerprint: u64,
    /// Number of moduli in the corpus.
    pub moduli: usize,
    /// Lanes per launch (the tile plan's chunking unit).
    pub launch_pairs: usize,
    /// Total launches in the scan.
    pub launches: u64,
    /// Number of tiles in the plan.
    pub tiles: usize,
    /// The GCD algorithm's paper tag.
    pub algo: String,
    /// Whether §V early termination was enabled.
    pub early: bool,
}

impl LedgerHeader {
    /// The fields [`Coordinator::check_compatible`] compares, in order.
    const FIELDS: [HeaderField<LedgerHeader>; 7] = [
        ("fingerprint", |h| format!("{:016x}", h.fingerprint)),
        ("moduli", |h| h.moduli.to_string()),
        ("launch_pairs", |h| h.launch_pairs.to_string()),
        ("launches", |h| h.launches.to_string()),
        ("tiles", |h| h.tiles.to_string()),
        ("algo", |h| h.algo.clone()),
        ("early", |h| h.early.to_string()),
    ];

    /// The header binding a ledger to `arena` scanned under `plan`.
    pub fn for_plan(arena: &ModuliArena, algo: Algorithm, early: bool, plan: &TilePlan) -> Self {
        LedgerHeader {
            fingerprint: corpus_fingerprint(arena),
            moduli: arena.len(),
            launch_pairs: plan.launch_pairs(),
            launches: plan.launches(),
            tiles: plan.len(),
            algo: algo.tag().to_string(),
            early,
        }
    }

    fn to_line(&self) -> String {
        format!(
            "H fp={:016x} m={} launch_pairs={} launches={} tiles={} algo={} early={}",
            self.fingerprint,
            self.moduli,
            self.launch_pairs,
            self.launches,
            self.tiles,
            self.algo,
            u8::from(self.early),
        )
    }
}

/// Where one tile is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileState {
    /// Never assigned (or its only lease expired before this ledger was
    /// written — unassigned and expired-lease tiles are acquired alike).
    Unassigned,
    /// Leased to a worker until the `expires` tick (exclusive: the lease
    /// is dead once `now >= expires`).
    Leased {
        /// The worker holding the lease.
        worker: String,
        /// First tick at which the lease counts as expired.
        expires: u64,
    },
    /// Completed, with the result fingerprint on record.
    Complete {
        /// The worker whose completion was accepted.
        worker: String,
        /// [`tile_fingerprint`] of the completed shard journal.
        fingerprint: u64,
    },
}

/// What [`Coordinator::complete`] did with a submitted completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// First completion of the tile: recorded.
    Accepted,
    /// The tile was already complete with an identical fingerprint — a
    /// resurrected worker resubmitting. Discarded.
    Duplicate,
}

/// Run accounting for one coordinator lifetime (not persisted: replaying
/// a ledger reconstructs tile *states*, not historical counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoordStats {
    /// Tiles handed out (first assignments and reassignments).
    pub assignments: u64,
    /// Successful lease renewals (heartbeats).
    pub renewals: u64,
    /// Assignments that reclaimed an expired lease from a dead worker.
    pub reclaimed_leases: u64,
    /// Completions discarded as duplicates (matching fingerprint).
    pub duplicate_completions: u64,
    /// Renewals refused because the lease was expired or reassigned.
    pub lost_leases: u64,
}

/// The append-only tile-assignment ledger. See the module docs for the
/// protocol and the on-disk format.
#[derive(Debug)]
pub struct Coordinator {
    log: Journal,
    header: Option<LedgerHeader>,
    /// Every tile that has left [`TileState::Unassigned`], by index. Only
    /// touched tiles are stored, so the header's `tiles=` count (which a
    /// hand-edited ledger can set to anything) never sizes an allocation.
    states: BTreeMap<usize, TileState>,
    stats: CoordStats,
}

/// The state of every in-plan tile absent from [`Coordinator::states`].
static UNASSIGNED: TileState = TileState::Unassigned;

impl Coordinator {
    /// A ledger with no backing file: protocol semantics without I/O.
    pub fn in_memory() -> Self {
        Coordinator {
            log: Journal::in_memory(MAGIC),
            header: None,
            states: BTreeMap::new(),
            stats: CoordStats::default(),
        }
    }

    /// Open (or create) the ledger at `path`, replaying any prior run's
    /// records. Leases replay with their recorded expiry ticks, so a
    /// restarted coordinator resumes dead-worker detection where it left
    /// off; a torn final line is dropped and truncated away.
    // analyze: journal(replay)
    pub fn open(path: &Path) -> Result<Self, LedgerError> {
        let mut ledger = Coordinator::in_memory();
        ledger.log = Journal::open(path, MAGIC, |lineno, line| ledger.apply(lineno, line))?;
        Ok(ledger)
    }

    /// Apply one replayed record line to the tile states.
    fn apply(&mut self, lineno: usize, line: &str) -> Result<(), LedgerError> {
        let corrupt = |reason: String| LedgerError::Corrupt {
            line: lineno,
            reason,
        };
        match line.as_bytes().first() {
            Some(b'H') => {
                self.header = Some(parse_header(line, lineno)?);
                self.states.clear();
            }
            Some(b'A') | Some(b'R') => {
                let (tile, worker, expires) = parse_lease_line(line, lineno)?;
                let state = self.state_mut(tile, lineno)?;
                if let TileState::Complete { .. } = state {
                    return Err(corrupt(format!("lease recorded for complete tile {tile}")));
                }
                *state = TileState::Leased { worker, expires };
            }
            Some(b'C') => {
                let (tile, worker, fingerprint) = parse_complete_line(line, lineno)?;
                let state = self.state_mut(tile, lineno)?;
                if let TileState::Complete {
                    fingerprint: have, ..
                } = state
                {
                    if *have != fingerprint {
                        return Err(corrupt(format!(
                            "tile {tile} completed twice with different fingerprints"
                        )));
                    }
                }
                *state = TileState::Complete {
                    worker,
                    fingerprint,
                };
            }
            _ => return Err(corrupt(format!("unknown record `{line}`"))),
        }
        Ok(())
    }

    fn state_mut(&mut self, tile: usize, lineno: usize) -> Result<&mut TileState, LedgerError> {
        let tiles = self.tiles();
        if tile >= tiles {
            return Err(LedgerError::Corrupt {
                line: lineno,
                reason: format!("tile {tile} out of range (header declares {tiles} tiles)"),
            });
        }
        Ok(self.states.entry(tile).or_insert(TileState::Unassigned))
    }

    /// The plan's tile count (0 before the ledger is bound to a header).
    fn tiles(&self) -> usize {
        self.header.as_ref().map_or(0, |h| h.tiles)
    }

    /// Bind the ledger to `header`, or verify it is already bound to an
    /// identical one.
    // analyze: journal(create)
    pub fn check_compatible(&mut self, header: &LedgerHeader) -> Result<(), LedgerError> {
        let Some(existing) = &self.header else {
            self.log.bind(&header.to_line())?;
            self.header = Some(header.clone());
            return Ok(());
        };
        if let Some((field, ledger, run)) = first_mismatch(&LedgerHeader::FIELDS, existing, header)
        {
            return Err(LedgerError::Mismatch { field, ledger, run });
        }
        Ok(())
    }

    /// Assign the lowest-indexed acquirable tile to `worker` with a lease
    /// until `now + lease_ticks`. A tile is acquirable if it was never
    /// assigned, or if it is leased and `now >= expires` — the latter is a
    /// reclaim from a worker presumed dead. Returns `None` when every
    /// incomplete tile is under a live lease (the caller should wait until
    /// [`next_expiry`](Self::next_expiry)).
    // analyze: journal
    pub fn acquire(
        &mut self,
        worker: &str,
        now: u64,
        lease_ticks: u64,
    ) -> Result<Option<Lease>, LedgerError> {
        for tile in 0..self.tiles() {
            let reclaim = match self.states.get(&tile) {
                None | Some(TileState::Unassigned) => false,
                Some(TileState::Leased { expires, .. }) if now >= *expires => true,
                Some(_) => continue,
            };
            let expires = now.saturating_add(lease_ticks.max(1));
            self.log
                .append_line(&format!("A tile={tile} worker={worker} expires={expires}"))?;
            self.states.insert(
                tile,
                TileState::Leased {
                    worker: worker.to_string(),
                    expires,
                },
            );
            self.stats.assignments += 1;
            if reclaim {
                self.stats.reclaimed_leases += 1;
            }
            return Ok(Some(Lease { tile, expires }));
        }
        Ok(None)
    }

    /// Heartbeat: extend `worker`'s lease on `tile` to `now + lease_ticks`.
    /// Refused with [`LedgerError::LeaseLost`] if the lease expired
    /// (`now >= expires`), was reassigned to another worker, or the tile
    /// is already complete — in every case the worker must abandon the
    /// tile (its journal keeps the work for whoever resumes it).
    // analyze: journal
    pub fn renew(
        &mut self,
        tile: usize,
        worker: &str,
        now: u64,
        lease_ticks: u64,
    ) -> Result<u64, LedgerError> {
        let lost = |worker: &str| {
            Err(LedgerError::LeaseLost {
                tile,
                worker: worker.to_string(),
            })
        };
        match self.tile_state(tile) {
            None => Err(LedgerError::UnknownTile { tile }),
            Some(TileState::Leased {
                worker: holder,
                expires,
            }) if holder == worker => {
                if now >= *expires {
                    self.stats.lost_leases += 1;
                    return lost(worker);
                }
                let expires = now.saturating_add(lease_ticks.max(1));
                self.log
                    .append_line(&format!("R tile={tile} worker={worker} expires={expires}"))?;
                self.states.insert(
                    tile,
                    TileState::Leased {
                        worker: worker.to_string(),
                        expires,
                    },
                );
                self.stats.renewals += 1;
                Ok(expires)
            }
            Some(_) => {
                self.stats.lost_leases += 1;
                lost(worker)
            }
        }
    }

    /// Record `worker`'s completion of `tile` with result `fingerprint`.
    /// The first completion wins regardless of lease state — the shard
    /// journal it fingerprints is the authoritative result. An identical
    /// re-submission (a resurrected worker) is discarded as
    /// [`Completion::Duplicate`]; a different fingerprint is an error.
    // analyze: journal
    pub fn complete(
        &mut self,
        tile: usize,
        worker: &str,
        fingerprint: u64,
    ) -> Result<Completion, LedgerError> {
        match self.tile_state(tile) {
            None => Err(LedgerError::UnknownTile { tile }),
            Some(TileState::Complete {
                fingerprint: have, ..
            }) => {
                if *have != fingerprint {
                    return Err(LedgerError::ConflictingCompletion {
                        tile,
                        have: *have,
                        got: fingerprint,
                    });
                }
                self.stats.duplicate_completions += 1;
                Ok(Completion::Duplicate)
            }
            Some(_) => {
                self.log.append_line(&format!(
                    "C tile={tile} worker={worker} fp={fingerprint:016x}"
                ))?;
                self.states.insert(
                    tile,
                    TileState::Complete {
                        worker: worker.to_string(),
                        fingerprint,
                    },
                );
                Ok(Completion::Accepted)
            }
        }
    }

    /// Whether every tile is complete.
    pub fn all_complete(&self) -> bool {
        self.incomplete() == 0
    }

    /// Number of tiles not yet complete.
    pub fn incomplete(&self) -> usize {
        let complete = self
            .states
            .values()
            .filter(|s| matches!(s, TileState::Complete { .. }))
            .count();
        self.tiles() - complete
    }

    /// The earliest lease expiry among leased tiles — the tick at which
    /// an idle caller should retry [`acquire`](Self::acquire).
    pub fn next_expiry(&self) -> Option<u64> {
        self.states
            .values()
            .filter_map(|s| match s {
                TileState::Leased { expires, .. } => Some(*expires),
                _ => None,
            })
            .min()
    }

    /// The state of tile `tile`, if it is in the plan.
    pub fn tile_state(&self, tile: usize) -> Option<&TileState> {
        (tile < self.tiles()).then(|| self.states.get(&tile).unwrap_or(&UNASSIGNED))
    }

    /// The accepted fingerprint of tile `tile`, if it is complete.
    pub fn completed_fingerprint(&self, tile: usize) -> Option<u64> {
        match self.states.get(&tile) {
            Some(TileState::Complete { fingerprint, .. }) => Some(*fingerprint),
            _ => None,
        }
    }

    /// Run accounting since this coordinator was constructed.
    pub fn stats(&self) -> CoordStats {
        self.stats
    }

    /// The header the ledger is bound to, if any run has started.
    pub fn header(&self) -> Option<&LedgerHeader> {
        self.header.as_ref()
    }
}

fn parse_header(line: &str, lineno: usize) -> Result<LedgerHeader, LedgerError> {
    Ok(LedgerHeader {
        fingerprint: parse_hex_u64(field(line, "fp", lineno)?, "fingerprint", lineno)?,
        moduli: parse_num(field(line, "m", lineno)?, "moduli count", lineno)?,
        launch_pairs: parse_num(field(line, "launch_pairs", lineno)?, "launch_pairs", lineno)?,
        launches: parse_num(field(line, "launches", lineno)?, "launches", lineno)?,
        tiles: parse_num(field(line, "tiles", lineno)?, "tile count", lineno)?,
        algo: field(line, "algo", lineno)?.to_string(),
        early: field(line, "early", lineno)? == "1",
    })
}

fn parse_lease_line(line: &str, lineno: usize) -> Result<(usize, String, u64), LedgerError> {
    Ok((
        parse_num(field(line, "tile", lineno)?, "tile index", lineno)?,
        field(line, "worker", lineno)?.to_string(),
        parse_num(field(line, "expires", lineno)?, "expiry tick", lineno)?,
    ))
}

fn parse_complete_line(line: &str, lineno: usize) -> Result<(usize, String, u64), LedgerError> {
    Ok((
        parse_num(field(line, "tile", lineno)?, "tile index", lineno)?,
        field(line, "worker", lineno)?.to_string(),
        parse_hex_u64(field(line, "fp", lineno)?, "fingerprint", lineno)?,
    ))
}

/// A granted lease: which tile, and when it expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// The tile index assigned.
    pub tile: usize,
    /// First tick at which the lease counts as expired.
    pub expires: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn header(tiles: usize) -> LedgerHeader {
        LedgerHeader {
            fingerprint: 0xfeed,
            moduli: 16,
            launch_pairs: 4,
            launches: 30,
            tiles,
            algo: "(E)".to_string(),
            early: true,
        }
    }

    fn coordinator(tiles: usize) -> Coordinator {
        let mut c = Coordinator::in_memory();
        c.check_compatible(&header(tiles)).unwrap();
        c
    }

    #[test]
    fn lease_protocol_assigns_renews_and_completes() {
        let mut c = coordinator(2);
        let lease = c.acquire("w0", 0, 10).unwrap().unwrap();
        assert_eq!(lease.tile, 0);
        assert_eq!(lease.expires, 10);
        // Heartbeat extends the lease.
        assert_eq!(c.renew(0, "w0", 5, 10).unwrap(), 15);
        // Second worker gets the next tile; then nothing is acquirable.
        assert_eq!(c.acquire("w1", 5, 10).unwrap().unwrap().tile, 1);
        assert!(c.acquire("w2", 5, 10).unwrap().is_none());
        assert_eq!(c.next_expiry(), Some(15));

        assert_eq!(c.complete(0, "w0", 0xabc).unwrap(), Completion::Accepted);
        assert_eq!(c.complete(1, "w1", 0xdef).unwrap(), Completion::Accepted);
        assert!(c.all_complete());
        assert_eq!(c.completed_fingerprint(0), Some(0xabc));
        assert_eq!(c.stats().assignments, 2);
        assert_eq!(c.stats().renewals, 1);
        assert_eq!(c.stats().reclaimed_leases, 0);
    }

    #[test]
    fn expired_lease_is_reclaimed_and_dead_workers_renewal_is_refused() {
        let mut c = coordinator(1);
        c.acquire("w0", 0, 10).unwrap().unwrap();
        // Before expiry nothing is acquirable.
        assert!(c.acquire("w1", 9, 10).unwrap().is_none());
        // At the expiry tick the tile is reclaimed.
        let lease = c.acquire("w1", 10, 10).unwrap().unwrap();
        assert_eq!(lease.tile, 0);
        assert_eq!(c.stats().reclaimed_leases, 1);
        // The dead worker's late heartbeat is refused...
        match c.renew(0, "w0", 11, 10) {
            Err(LedgerError::LeaseLost { tile: 0, .. }) => {}
            other => panic!("expected LeaseLost, got {other:?}"),
        }
        // ...and the live holder's is not.
        c.renew(0, "w1", 11, 10).unwrap();
        assert_eq!(c.stats().lost_leases, 1);
    }

    #[test]
    fn renewal_at_expiry_tick_is_already_too_late() {
        let mut c = coordinator(1);
        c.acquire("w0", 0, 10).unwrap().unwrap();
        match c.renew(0, "w0", 10, 10) {
            Err(LedgerError::LeaseLost { .. }) => {}
            other => panic!("expected LeaseLost at the expiry tick, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_completion_discarded_conflicting_refused() {
        let mut c = coordinator(1);
        c.acquire("w0", 0, 10).unwrap().unwrap();
        assert_eq!(c.complete(0, "w0", 0xabc).unwrap(), Completion::Accepted);
        // A resurrected worker resubmits the same result: discarded.
        assert_eq!(c.complete(0, "w0", 0xabc).unwrap(), Completion::Duplicate);
        assert_eq!(c.stats().duplicate_completions, 1);
        // A different fingerprint can only mean corruption.
        match c.complete(0, "w1", 0x123) {
            Err(LedgerError::ConflictingCompletion { tile: 0, .. }) => {}
            other => panic!("expected ConflictingCompletion, got {other:?}"),
        }
    }

    #[test]
    fn ledger_file_replays_and_tolerates_torn_tail() {
        let dir = std::env::temp_dir().join("bulkgcd-ledger-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("torn-{}.ledger", std::process::id()));
        let _ = std::fs::remove_file(&path);

        {
            let mut c = Coordinator::open(&path).unwrap();
            c.check_compatible(&header(2)).unwrap();
            c.acquire("w0", 0, 10).unwrap().unwrap();
            c.complete(0, "w0", 0xabc).unwrap();
            c.acquire("w1", 3, 10).unwrap().unwrap();
        }
        // A crash mid-append leaves a torn line; replay drops it.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"C tile=1 wor").unwrap();
        }
        let mut c = Coordinator::open(&path).unwrap();
        c.check_compatible(&header(2)).unwrap();
        assert_eq!(c.completed_fingerprint(0), Some(0xabc));
        assert!(matches!(
            c.tile_state(1),
            Some(TileState::Leased { expires: 13, .. })
        ));
        assert!(!c.all_complete());
        assert_eq!(c.incomplete(), 1);
        // The restarted coordinator resumes dead-worker detection: w1's
        // replayed lease expires at 13 and is then reclaimable.
        assert!(c.acquire("w2", 12, 10).unwrap().is_none());
        assert_eq!(c.acquire("w2", 13, 10).unwrap().unwrap().tile, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_cut_before_the_next_append() {
        // Reopening must cut the torn line off the file, or the next record
        // is glued onto it and every later open fails as corrupt.
        let dir = std::env::temp_dir().join("bulkgcd-ledger-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("torn-append-{}.ledger", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut c = Coordinator::open(&path).unwrap();
            c.check_compatible(&header(2)).unwrap();
            c.acquire("w0", 0, 10).unwrap().unwrap();
            c.complete(0, "w0", 0xabc).unwrap();
        }
        // Tear the last line: `C tile=0 worker=w0 fp=…` becomes `C tile=0 wor`.
        let bytes = std::fs::read(&path).unwrap();
        let last = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap();
        std::fs::write(&path, &bytes[..last + 1 + "C tile=0 wor".len()]).unwrap();
        {
            let mut c = Coordinator::open(&path).unwrap();
            c.check_compatible(&header(2)).unwrap();
            assert_eq!(c.completed_fingerprint(0), None);
            // w0's lease on tile 0 is live until tick 10, so w1 gets tile 1.
            assert_eq!(c.acquire("w1", 1, 30).unwrap().unwrap().tile, 1);
        }
        let mut c = Coordinator::open(&path).unwrap();
        c.check_compatible(&header(2)).unwrap();
        assert!(matches!(
            c.tile_state(1),
            Some(TileState::Leased { expires: 31, .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_ledger_is_refused() {
        let mut c = coordinator(2);
        let mut other = header(2);
        other.tiles = 3;
        match c.check_compatible(&other) {
            Err(LedgerError::Mismatch { field: "tiles", .. }) => {}
            other => panic!("expected tiles mismatch, got {other:?}"),
        }
        let mut other = header(2);
        other.fingerprint = 1;
        match c.check_compatible(&other) {
            Err(LedgerError::Mismatch {
                field: "fingerprint",
                ..
            }) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        c.check_compatible(&header(2)).unwrap();
    }

    #[test]
    fn ledger_header_tile_count_sizes_no_allocation() {
        // A hand-edited `tiles=` far beyond any plan must neither size an
        // allocation on open nor bind: the run's own header refuses it.
        let dir = std::env::temp_dir().join("bulkgcd-ledger-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("huge-tiles-{}.ledger", std::process::id()));
        let mut hostile = header(2);
        hostile.tiles = usize::MAX;
        std::fs::write(
            &path,
            format!(
                "{MAGIC}\n{}\nA tile={} worker=w0 expires=5\n",
                hostile.to_line(),
                usize::MAX - 1
            ),
        )
        .unwrap();
        let mut c = Coordinator::open(&path).unwrap();
        assert_eq!(c.header(), Some(&hostile));
        assert!(matches!(
            c.tile_state(usize::MAX - 1),
            Some(TileState::Leased { expires: 5, .. })
        ));
        match c.check_compatible(&header(2)) {
            Err(LedgerError::Mismatch { field: "tiles", .. }) => {}
            other => panic!("expected tiles mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn completion_survives_restart_as_duplicate_detector() {
        let dir = std::env::temp_dir().join("bulkgcd-ledger-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("dup-{}.ledger", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut c = Coordinator::open(&path).unwrap();
            c.check_compatible(&header(1)).unwrap();
            c.acquire("w0", 0, 10).unwrap().unwrap();
            c.complete(0, "w0", 0xabc).unwrap();
        }
        let mut c = Coordinator::open(&path).unwrap();
        c.check_compatible(&header(1)).unwrap();
        assert_eq!(c.complete(0, "w0", 0xabc).unwrap(), Completion::Duplicate);
        match c.complete(0, "w0", 0xbad) {
            Err(LedgerError::ConflictingCompletion { .. }) => {}
            other => panic!("expected ConflictingCompletion, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}

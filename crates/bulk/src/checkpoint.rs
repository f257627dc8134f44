//! Append-only checkpoint journal for resumable scans.
//!
//! A full all-pairs sweep of a real corpus takes hours; a crash near the
//! end must not force a restart from pair zero. The scan pipeline
//! ([`ScanPipeline::checkpoint`](crate::scan::ScanPipeline::checkpoint))
//! commits each completed launch to a [`ScanJournal`] — launch index,
//! simulated seconds, CPU-fallback flag, and the launch's findings — and
//! on resume skips every launch the journal already holds. Because the final report is
//! always merged **from the journal**, a resumed run reduces to exactly the
//! records an uninterrupted run would have written, making the
//! resume-equals-rerun property testable byte for byte.
//!
//! # Journal format (version 1)
//!
//! A plain-text, line-oriented, append-only file. No external
//! serialization crates are used; every value round-trips exactly:
//!
//! ```text
//! bulkgcd-scan-journal v1
//! H fp=<fnv1a64 hex16> m=<moduli> stride=<limbs> algo=<tag> early=<0|1> launch_pairs=<lanes> launches=<count>
//! L <launch> sim=<f64-bits hex16> fb=<0|1> n=<findings> <i>,<j>,<S|D>,<factor-hex> ...
//! D
//! ```
//!
//! * the magic line pins the format version;
//! * `H` binds the journal to one scan configuration: a corpus fingerprint
//!   (FNV-1a-64 over the arena's dimensions and limb bytes) plus the
//!   algorithm, termination mode and launch width — resuming with *any*
//!   different configuration is refused with [`JournalError::Mismatch`]
//!   rather than silently merging incompatible findings;
//! * one `L` line per completed launch. Simulated seconds are stored as
//!   the `f64` bit pattern in hex (`to_bits`), not decimal, so the resumed
//!   sum is bitwise identical; factors are lower-case hex;
//! * `D` marks the scan complete.
//!
//! The crash rules are those of `bulk::journal`: each record is one
//! fsynced append, so a crash can only tear the final line, which
//! [`ScanJournal::open`] drops (the interrupted launch is simply re-run),
//! while a malformed *complete* line is [`JournalError::Corrupt`]. `L`
//! lines may appear in any order — the parallel driver commits each launch
//! the moment it completes — and are normalised to launch-index order on
//! replay.

use crate::arena::ModuliArena;
use crate::journal::{
    field, first_mismatch, opt_field, parse_hex_u64, parse_num, Corrupt, Fnv64, HeaderField,
    Journal,
};
use crate::scan::{Finding, FindingKind};
use bulkgcd_bigint::Nat;
use bulkgcd_core::Algorithm;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;

/// First line of every journal file.
const MAGIC: &str = "bulkgcd-scan-journal v1";

/// Why a journal could not be used.
#[derive(Debug)]
pub enum JournalError {
    /// The journal file could not be read or appended to.
    Io(io::Error),
    /// A complete line of the journal failed to parse. (A torn *final*
    /// line — no trailing newline — is not corruption; it is dropped.)
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The journal was written by a different scan configuration and must
    /// not be resumed with this one.
    Mismatch {
        /// The header field that differs.
        field: &'static str,
        /// The journal's value.
        journal: String,
        /// The current run's value.
        run: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
            JournalError::Mismatch {
                field,
                journal,
                run,
            } => write!(
                f,
                "journal belongs to a different scan ({field}: journal has {journal}, \
                 this run has {run}); delete it or rerun with the original settings"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<Corrupt> for JournalError {
    fn from(Corrupt { line, reason }: Corrupt) -> Self {
        JournalError::Corrupt { line, reason }
    }
}

/// FNV-1a-64 over the arena's shape and limb bytes: any reordering or edit
/// of the corpus changes it.
pub fn corpus_fingerprint(arena: &ModuliArena) -> u64 {
    let mut h = Fnv64::new();
    h.eat(&(arena.len() as u64).to_le_bytes());
    h.eat(&(arena.stride() as u64).to_le_bytes());
    for i in 0..arena.len() {
        for &limb in arena.limbs(i) {
            h.eat(&limb.to_le_bytes());
        }
    }
    h.finish()
}

/// The configuration a journal is bound to. Two runs may share a journal
/// only if every field matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// [`corpus_fingerprint`] of the arena.
    pub fingerprint: u64,
    /// Number of moduli in the corpus.
    pub moduli: usize,
    /// Arena stride in limbs.
    pub stride: usize,
    /// The GCD algorithm's paper tag (e.g. `(E)`).
    pub algo: String,
    /// Whether §V early termination was enabled.
    pub early: bool,
    /// Lanes per simulated kernel launch.
    pub launch_pairs: usize,
    /// Total launches the scan needs (`ceil(m(m-1)/2 / launch_pairs)`).
    pub launches: u64,
    /// First global launch index this journal covers. `0` for an
    /// unsharded scan; a shard journal covers `[tile_start,
    /// tile_start + tile_launches)` of the global launch sequence.
    pub tile_start: u64,
    /// Number of launches this journal covers. Equal to `launches` for an
    /// unsharded scan.
    pub tile_launches: u64,
}

impl JournalHeader {
    /// The fields [`ScanJournal::check_compatible`] compares, in order.
    const FIELDS: [HeaderField<JournalHeader>; 8] = [
        ("fingerprint", |h| format!("{:016x}", h.fingerprint)),
        ("moduli", |h| h.moduli.to_string()),
        ("stride", |h| h.stride.to_string()),
        ("algo", |h| h.algo.clone()),
        ("early", |h| h.early.to_string()),
        ("launch_pairs", |h| h.launch_pairs.to_string()),
        // Derived from moduli and launch_pairs, so a driver-written header
        // always agrees — but a hand-edited journal must not smuggle
        // phantom launch records past compatibility.
        ("launches", |h| h.launches.to_string()),
        ("tile", |h| format!("{}+{}", h.tile_start, h.tile_launches)),
    ];

    /// The header for a scan of `arena` with the given settings.
    pub fn for_scan(
        arena: &ModuliArena,
        algo: Algorithm,
        early: bool,
        launch_pairs: usize,
    ) -> Self {
        let m = arena.len() as u64;
        let total_pairs = m * m.saturating_sub(1) / 2;
        let launches = total_pairs.div_ceil(launch_pairs.max(1) as u64);
        JournalHeader {
            fingerprint: corpus_fingerprint(arena),
            moduli: arena.len(),
            stride: arena.stride(),
            algo: algo.tag().to_string(),
            early,
            launch_pairs,
            launches,
            tile_start: 0,
            tile_launches: launches,
        }
    }

    /// The header for a shard journal covering launches
    /// `[tile_start, tile_start + tile_launches)` of the same scan.
    pub fn for_tile(
        arena: &ModuliArena,
        algo: Algorithm,
        early: bool,
        launch_pairs: usize,
        tile_start: u64,
        tile_launches: u64,
    ) -> Self {
        let mut header = JournalHeader::for_scan(arena, algo, early, launch_pairs);
        header.tile_start = tile_start;
        header.tile_launches = tile_launches;
        header
    }

    /// Whether this journal covers the whole launch sequence (an
    /// unsharded scan) rather than one shard's tile.
    pub fn is_full_range(&self) -> bool {
        self.tile_start == 0 && self.tile_launches == self.launches
    }

    fn to_line(&self) -> String {
        let mut line = format!(
            "H fp={:016x} m={} stride={} algo={} early={} launch_pairs={} launches={}",
            self.fingerprint,
            self.moduli,
            self.stride,
            self.algo,
            u8::from(self.early),
            self.launch_pairs,
            self.launches,
        );
        // Full-range headers stay byte-identical to the pre-shard format;
        // only shard journals carry the tile fields.
        if !self.is_full_range() {
            line.push_str(&format!(
                " tile_start={} tile_launches={}",
                self.tile_start, self.tile_launches
            ));
        }
        line
    }
}

/// One committed launch: everything needed to reproduce its contribution
/// to the final [`ScanReport`](crate::scan::ScanReport).
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchRecord {
    /// The launch index within the scan's launch sequence.
    pub launch: u64,
    /// Simulated device seconds (0.0 for a CPU-fallback launch).
    pub simulated_seconds: f64,
    /// Whether the launch was degraded to the host path.
    pub cpu_fallback: bool,
    /// The launch's findings, in lane order.
    pub findings: Vec<Finding>,
}

impl LaunchRecord {
    /// The journal line for this record. Also the unit the shard
    /// coordinator fingerprints tile completions over, so it must stay
    /// deterministic for a given record.
    pub(crate) fn to_line(&self) -> String {
        let mut line = format!(
            "L {} sim={:016x} fb={} n={}",
            self.launch,
            self.simulated_seconds.to_bits(),
            u8::from(self.cpu_fallback),
            self.findings.len(),
        );
        for f in &self.findings {
            let kind = match f.kind {
                FindingKind::SharedPrime => 'S',
                FindingKind::DuplicateModulus => 'D',
            };
            line.push_str(&format!(" {},{},{},{}", f.i, f.j, kind, f.factor.to_hex()));
        }
        line
    }
}

/// The append-only checkpoint journal.
///
/// Backed by a file ([`open`](Self::open)) for real crash tolerance, or by
/// nothing ([`in_memory`](Self::in_memory)) when tests only need the
/// resume semantics. Records live in launch-index order regardless of the
/// order they were committed in, which is what makes the parallel driver's
/// merge deterministic.
#[derive(Debug)]
pub struct ScanJournal {
    log: Journal,
    header: Option<JournalHeader>,
    records: BTreeMap<u64, LaunchRecord>,
    done: bool,
}

impl ScanJournal {
    /// A journal with no backing file: resume semantics without I/O.
    pub fn in_memory() -> Self {
        ScanJournal {
            log: Journal::in_memory(MAGIC),
            header: None,
            records: BTreeMap::new(),
            done: false,
        }
    }

    /// Open (or create) the journal at `path`, replaying any prior run's
    /// records. A torn final line — the signature of a crash mid-append —
    /// is dropped *and truncated away*, so later appends land on a clean
    /// line boundary; that launch will simply be re-executed.
    // analyze: journal(replay)
    pub fn open(path: &Path) -> Result<Self, JournalError> {
        let mut journal = ScanJournal::in_memory();
        journal.log = Journal::open(path, MAGIC, |lineno, line| journal.apply(lineno, line))?;
        Ok(journal)
    }

    /// Rehydrate a journal from serialized bytes, with the same
    /// torn-tail tolerance as [`open`](Self::open). The shard driver uses
    /// this to model worker-process death deterministically: a dead
    /// worker's journal is exactly the bytes it had fsynced.
    // analyze: journal(replay)
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, JournalError> {
        let mut journal = ScanJournal::in_memory();
        journal.replay(bytes)?;
        Ok(journal)
    }

    /// Serialize the committed state back to journal bytes (records in
    /// launch-index order). `from_bytes(to_bytes())` round-trips.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut text = String::new();
        if self.log.magic_written() {
            text.push_str(MAGIC);
            text.push('\n');
        }
        if let Some(header) = &self.header {
            text.push_str(&header.to_line());
            text.push('\n');
        }
        for rec in self.records.values() {
            text.push_str(&rec.to_line());
            text.push('\n');
        }
        if self.done {
            text.push_str("D\n");
        }
        text.into_bytes()
    }

    fn replay(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        self.log = Journal::from_bytes(bytes, MAGIC, |lineno, line| self.apply(lineno, line))?;
        Ok(())
    }

    /// Apply one replayed record line to the in-memory state.
    fn apply(&mut self, lineno: usize, line: &str) -> Result<(), JournalError> {
        let corrupt = |reason: String| JournalError::Corrupt {
            line: lineno,
            reason,
        };
        match line.as_bytes().first() {
            Some(b'H') => self.header = Some(parse_header(line, lineno)?),
            Some(b'L') => {
                let Some(header) = &self.header else {
                    return Err(corrupt("launch record before header".into()));
                };
                let rec = parse_record(line, lineno)?;
                if rec.launch >= header.launches {
                    return Err(corrupt(format!(
                        "launch index {} out of range (header declares {} launches)",
                        rec.launch, header.launches
                    )));
                }
                let tile_end = header.tile_start + header.tile_launches;
                if rec.launch < header.tile_start || rec.launch >= tile_end {
                    return Err(corrupt(format!(
                        "launch index {} outside this journal's tile [{}, {})",
                        rec.launch, header.tile_start, tile_end
                    )));
                }
                self.records.insert(rec.launch, rec);
            }
            Some(b'D') => self.done = true,
            _ => return Err(corrupt(format!("unknown record `{line}`"))),
        }
        Ok(())
    }

    /// Bind the journal to `header`, or verify it is already bound to an
    /// identical one. Field-by-field mismatches are reported so the caller
    /// knows *what* diverged (corpus edits show up as `fingerprint`).
    // analyze: journal(create)
    pub fn check_compatible(&mut self, header: &JournalHeader) -> Result<(), JournalError> {
        let Some(existing) = &self.header else {
            self.log.bind(&header.to_line())?;
            self.header = Some(header.clone());
            return Ok(());
        };
        if let Some((field, journal, run)) =
            first_mismatch(&JournalHeader::FIELDS, existing, header)
        {
            return Err(JournalError::Mismatch {
                field,
                journal,
                run,
            });
        }
        // A done marker vouches for every launch in the journal's
        // range; a done journal missing launch records (truncated
        // by hand, or spliced from a run with a different launch
        // count) would silently merge an incomplete report.
        if self.done && self.records.len() as u64 != existing.tile_launches {
            return Err(JournalError::Corrupt {
                line: 0,
                reason: format!(
                    "journal is marked done but holds {} of {} launch records",
                    self.records.len(),
                    existing.tile_launches
                ),
            });
        }
        Ok(())
    }

    /// Whether launch `launch` is already committed.
    pub fn completed(&self, launch: u64) -> bool {
        self.records.contains_key(&launch)
    }

    /// Number of committed launches.
    pub fn committed(&self) -> u64 {
        self.records.len() as u64
    }

    /// Whether the scan this journal tracks ran to completion.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The header the journal is bound to, if any run has started.
    pub fn header(&self) -> Option<&JournalHeader> {
        self.header.as_ref()
    }

    /// Commit one completed launch. The line is written and fsynced
    /// (`sync_data`) before this returns, so a crash immediately after —
    /// including an OS crash or power loss — cannot lose the launch.
    // analyze: journal
    pub fn record(&mut self, record: LaunchRecord) -> Result<(), JournalError> {
        self.log.append_line(&record.to_line())?;
        self.records.insert(record.launch, record);
        Ok(())
    }

    /// Mark the scan complete. Idempotent.
    // analyze: journal
    pub fn mark_done(&mut self) -> Result<(), JournalError> {
        if !self.done {
            self.log.append_line("D")?;
            self.done = true;
        }
        Ok(())
    }

    /// Committed records in launch-index order — the merge order every
    /// run (interrupted or not) reduces the scan in.
    pub fn records(&self) -> impl Iterator<Item = &LaunchRecord> {
        self.records.values()
    }
}

fn parse_header(line: &str, lineno: usize) -> Result<JournalHeader, JournalError> {
    let launches: u64 = parse_num(field(line, "launches", lineno)?, "launches", lineno)?;
    // Pre-shard journals have no tile fields; they parse as full-range.
    let tile_start: u64 = match opt_field(line, "tile_start") {
        Some(s) => parse_num(s, "tile_start", lineno)?,
        None => 0,
    };
    let tile_launches: u64 = match opt_field(line, "tile_launches") {
        Some(s) => parse_num(s, "tile_launches", lineno)?,
        None => launches,
    };
    let tile_end = tile_start
        .checked_add(tile_launches)
        .ok_or_else(|| JournalError::Corrupt {
            line: lineno,
            reason: format!("tile range {tile_start}+{tile_launches} overflows"),
        })?;
    if tile_end > launches {
        return Err(JournalError::Corrupt {
            line: lineno,
            reason: format!(
                "tile [{tile_start}, {tile_end}) exceeds the scan's {launches} launches"
            ),
        });
    }
    Ok(JournalHeader {
        fingerprint: parse_hex_u64(field(line, "fp", lineno)?, "fingerprint", lineno)?,
        moduli: parse_num(field(line, "m", lineno)?, "moduli count", lineno)?,
        stride: parse_num(field(line, "stride", lineno)?, "stride", lineno)?,
        algo: field(line, "algo", lineno)?.to_string(),
        early: field(line, "early", lineno)? == "1",
        launch_pairs: parse_num(field(line, "launch_pairs", lineno)?, "launch_pairs", lineno)?,
        launches,
        tile_start,
        tile_launches,
    })
}

fn parse_record(line: &str, lineno: usize) -> Result<LaunchRecord, JournalError> {
    let corrupt = |reason: String| JournalError::Corrupt {
        line: lineno,
        reason,
    };
    let mut toks = line.split_ascii_whitespace();
    toks.next(); // the leading "L"
    let launch = parse_num(
        toks.next()
            .ok_or_else(|| corrupt("missing launch index".into()))?,
        "launch index",
        lineno,
    )?;
    let sim_bits = parse_hex_u64(field(line, "sim", lineno)?, "sim bits", lineno)?;
    let cpu_fallback = field(line, "fb", lineno)? == "1";
    // `n` is checked against the tokens actually present, never used to
    // size an allocation: a corrupt count must not be able to abort replay.
    let n: usize = parse_num(field(line, "n", lineno)?, "finding count", lineno)?;
    let mut findings = Vec::new();
    // Findings are the tokens after the fixed fields (launch, sim, fb, n).
    for tok in toks.skip(3) {
        let mut parts = tok.split(',');
        let mut next = |what: &str| {
            parts.next().ok_or_else(|| JournalError::Corrupt {
                line: lineno,
                reason: format!("finding `{tok}` missing {what}"),
            })
        };
        let i = parse_num(next("i")?, "finding index i", lineno)?;
        let j = parse_num(next("j")?, "finding index j", lineno)?;
        let kind = match next("kind")? {
            "S" => FindingKind::SharedPrime,
            "D" => FindingKind::DuplicateModulus,
            other => return Err(corrupt(format!("unknown finding kind `{other}`"))),
        };
        let factor = Nat::from_hex(next("factor")?).map_err(|e| JournalError::Corrupt {
            line: lineno,
            reason: format!("bad factor hex in `{tok}`: {e}"),
        })?;
        findings.push(Finding { i, j, kind, factor });
    }
    if findings.len() != n {
        return Err(corrupt(format!(
            "finding count mismatch: header says {n}, line has {}",
            findings.len()
        )));
    }
    Ok(LaunchRecord {
        launch,
        simulated_seconds: f64::from_bits(sim_bits),
        cpu_fallback,
        findings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

    fn sample_record() -> LaunchRecord {
        LaunchRecord {
            launch: 3,
            simulated_seconds: 0.1 + 0.2, // a value decimal printing would mangle
            cpu_fallback: false,
            findings: vec![
                Finding {
                    i: 1,
                    j: 4,
                    kind: FindingKind::SharedPrime,
                    factor: Nat::from_u64(0xdead_beef),
                },
                Finding {
                    i: 2,
                    j: 5,
                    kind: FindingKind::DuplicateModulus,
                    factor: Nat::from_u64(77),
                },
            ],
        }
    }

    #[test]
    fn record_line_roundtrips_exactly() {
        let rec = sample_record();
        let parsed = parse_record(&rec.to_line(), 1).unwrap();
        assert_eq!(parsed, rec);
        // f64 bits survive: bitwise, not approximately.
        assert_eq!(
            parsed.simulated_seconds.to_bits(),
            rec.simulated_seconds.to_bits()
        );
    }

    #[test]
    fn header_line_roundtrips() {
        let header = JournalHeader {
            fingerprint: 0x0123_4567_89ab_cdef,
            moduli: 128,
            stride: 8,
            algo: "(E)".to_string(),
            early: true,
            launch_pairs: 64,
            launches: 127,
            tile_start: 0,
            tile_launches: 127,
        };
        assert_eq!(parse_header(&header.to_line(), 1).unwrap(), header);
        // Pre-shard header lines (no tile fields) parse as full-range.
        assert!(!header.to_line().contains("tile"));
    }

    #[test]
    fn tile_header_roundtrips_and_is_bounds_checked() {
        let mut header = JournalHeader {
            fingerprint: 0x0123_4567_89ab_cdef,
            moduli: 128,
            stride: 8,
            algo: "(E)".to_string(),
            early: true,
            launch_pairs: 64,
            launches: 127,
            tile_start: 40,
            tile_launches: 30,
        };
        assert!(!header.is_full_range());
        assert_eq!(parse_header(&header.to_line(), 1).unwrap(), header);
        // A tile reaching past the scan's launch count is corruption, not
        // a valid shard journal.
        header.tile_launches = 100;
        match parse_header(&header.to_line(), 1) {
            Err(JournalError::Corrupt { reason, .. }) => {
                assert!(reason.contains("exceeds"), "{reason}")
            }
            other => panic!("expected tile bound corruption, got {other:?}"),
        }
    }

    #[test]
    fn journal_file_replays_and_tolerates_torn_tail() {
        let dir = std::env::temp_dir().join("bulkgcd-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("torn-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let header = JournalHeader {
            fingerprint: 42,
            moduli: 5,
            stride: 2,
            algo: "(E)".to_string(),
            early: false,
            launch_pairs: 2,
            launches: 5,
            tile_start: 0,
            tile_launches: 5,
        };
        let rec = sample_record();
        {
            let mut j = ScanJournal::open(&path).unwrap();
            j.check_compatible(&header).unwrap();
            j.record(rec.clone()).unwrap();
        }
        // Simulate a crash mid-append: a trailing half-written line.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"L 4 sim=0000").unwrap();
        }
        let j = ScanJournal::open(&path).unwrap();
        assert_eq!(j.header(), Some(&header));
        assert!(j.completed(3));
        assert!(!j.completed(4), "torn record must not count as committed");
        assert!(!j.is_done());
        assert_eq!(j.records().cloned().collect::<Vec<_>>(), vec![rec]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_header_is_refused() {
        let mut j = ScanJournal::in_memory();
        let header = JournalHeader {
            fingerprint: 1,
            moduli: 4,
            stride: 2,
            algo: "(E)".to_string(),
            early: false,
            launch_pairs: 2,
            launches: 3,
            tile_start: 0,
            tile_launches: 3,
        };
        j.check_compatible(&header).unwrap();
        let mut other = header.clone();
        other.fingerprint = 2;
        match j.check_compatible(&other) {
            Err(JournalError::Mismatch { field, .. }) => assert_eq!(field, "fingerprint"),
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        let mut other = header.clone();
        other.launch_pairs = 99;
        match j.check_compatible(&other) {
            Err(JournalError::Mismatch { field, .. }) => assert_eq!(field, "launch_pairs"),
            other => panic!("expected launch_pairs mismatch, got {other:?}"),
        }
        // A hand-edited launch count is refused even though the driver
        // always derives it from moduli and launch_pairs.
        let mut other = header.clone();
        other.launches = 99;
        match j.check_compatible(&other) {
            Err(JournalError::Mismatch { field, .. }) => assert_eq!(field, "launches"),
            other => panic!("expected launches mismatch, got {other:?}"),
        }
        // A shard journal for tile [1, 3) must not resume an unsharded
        // scan (or another shard's tile).
        let mut other = header.clone();
        other.tile_start = 1;
        other.tile_launches = 2;
        match j.check_compatible(&other) {
            Err(JournalError::Mismatch { field, .. }) => assert_eq!(field, "tile"),
            other => panic!("expected tile mismatch, got {other:?}"),
        }
        // The original header still matches.
        j.check_compatible(&header).unwrap();
    }

    #[test]
    fn done_journal_with_missing_records_is_refused() {
        // Regression: a journal whose header matches and whose `D` marker
        // is present, but whose launch records were truncated (hand-edit,
        // or a splice from a run with a different launch count), used to
        // pass `check_compatible` and merge an incomplete report.
        let header = JournalHeader {
            fingerprint: 1,
            moduli: 4,
            stride: 2,
            algo: "(E)".to_string(),
            early: false,
            launch_pairs: 2,
            launches: 3,
            tile_start: 0,
            tile_launches: 3,
        };
        let mut text = format!("{MAGIC}\n{}\n", header.to_line());
        // Only 1 of the 3 launches, yet done-marked.
        text.push_str("L 0 sim=0000000000000000 fb=0 n=0\nD\n");
        let mut j = ScanJournal::from_bytes(text.as_bytes()).unwrap();
        assert!(j.is_done());
        match j.check_compatible(&header) {
            Err(JournalError::Corrupt { reason, .. }) => {
                assert!(reason.contains("1 of 3"), "{reason}")
            }
            other => panic!("expected done-count corruption, got {other:?}"),
        }
        // A genuinely complete done journal still passes.
        let mut text = format!("{MAGIC}\n{}\n", header.to_line());
        for launch in 0..3 {
            text.push_str(&format!("L {launch} sim=0000000000000000 fb=0 n=0\n"));
        }
        text.push_str("D\n");
        let mut j = ScanJournal::from_bytes(text.as_bytes()).unwrap();
        j.check_compatible(&header).unwrap();
    }

    #[test]
    fn bytes_roundtrip_preserves_state_and_tile_bounds() {
        let header = JournalHeader {
            fingerprint: 9,
            moduli: 8,
            stride: 2,
            algo: "(E)".to_string(),
            early: true,
            launch_pairs: 2,
            launches: 14,
            tile_start: 2,
            tile_launches: 4,
        };
        let mut j = ScanJournal::in_memory();
        j.check_compatible(&header).unwrap();
        let mut rec = sample_record();
        rec.launch = 4; // inside the tile
        j.record(rec.clone()).unwrap();
        let revived = ScanJournal::from_bytes(&j.to_bytes()).unwrap();
        assert_eq!(revived.header(), Some(&header));
        assert_eq!(revived.records().cloned().collect::<Vec<_>>(), vec![rec]);
        assert!(!revived.is_done());
        assert_eq!(revived.to_bytes(), j.to_bytes());

        // A record outside the tile is rejected on replay even though it
        // is inside the scan's overall launch range.
        let mut text = String::from_utf8(j.to_bytes()).unwrap();
        text.push_str("L 9 sim=0000000000000000 fb=0 n=0\n");
        match ScanJournal::from_bytes(text.as_bytes()) {
            Err(JournalError::Corrupt { reason, .. }) => {
                assert!(reason.contains("outside this journal's tile"), "{reason}")
            }
            other => panic!("expected tile-range corruption, got {other:?}"),
        }
    }

    #[test]
    fn crash_between_magic_and_header_does_not_duplicate_magic() {
        // A run that died after persisting the magic line but before the
        // header leaves `MAGIC\n` on disk. The next open must append only
        // the header; a second magic line would make every later replay
        // fail as corrupt — an unrecoverable journal from a recoverable
        // crash.
        let dir = std::env::temp_dir().join("bulkgcd-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("magic-only-{}.journal", std::process::id()));
        std::fs::write(&path, format!("{MAGIC}\n")).unwrap();

        let header = JournalHeader {
            fingerprint: 7,
            moduli: 4,
            stride: 2,
            algo: "(E)".to_string(),
            early: false,
            launch_pairs: 2,
            launches: 3,
            tile_start: 0,
            tile_launches: 3,
        };
        {
            let mut j = ScanJournal::open(&path).unwrap();
            assert!(j.header().is_none());
            j.check_compatible(&header).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.matches(MAGIC).count(),
            1,
            "magic line must not be duplicated:\n{text}"
        );
        let mut j = ScanJournal::open(&path).unwrap();
        assert_eq!(j.header(), Some(&header));
        j.check_compatible(&header).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_order_commits_replay_in_launch_order() {
        // The parallel driver commits launches as they complete, so on-disk
        // L lines can be in any order; replay must normalise them.
        let mut j = ScanJournal::in_memory();
        let header_line =
            "H fp=0000000000000001 m=4 stride=2 algo=(E) early=0 launch_pairs=2 launches=4";
        let mut text = format!("{MAGIC}\n{header_line}\n");
        for launch in [2u64, 0, 3, 1] {
            let rec = LaunchRecord {
                launch,
                simulated_seconds: launch as f64,
                cpu_fallback: false,
                findings: Vec::new(),
            };
            text.push_str(&rec.to_line());
            text.push('\n');
        }
        j.replay(text.as_bytes()).unwrap();
        let order: Vec<u64> = j.records().map(|r| r.launch).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(j.committed(), 4);
    }

    #[test]
    fn phantom_launch_record_is_corrupt() {
        // An L record whose launch index is outside the header's declared
        // launch count must not be silently merged into the final report.
        let mut j = ScanJournal::in_memory();
        let bytes = format!(
            "{MAGIC}\nH fp=0000000000000001 m=4 stride=2 algo=(E) early=0 \
             launch_pairs=2 launches=3\nL 3 sim=0000000000000000 fb=0 n=0\n"
        );
        match j.replay(bytes.as_bytes()) {
            Err(JournalError::Corrupt { line, reason }) => {
                assert_eq!(line, 3);
                assert!(reason.contains("out of range"), "{reason}");
            }
            other => panic!("expected out-of-range corruption, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_complete_line_is_an_error() {
        let mut j = ScanJournal::in_memory();
        let bytes =
            format!("{MAGIC}\nH fp=zz m=1 stride=1 algo=(E) early=0 launch_pairs=1 launches=0\n");
        match j.replay(bytes.as_bytes()) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected corruption at line 2, got {other:?}"),
        }
    }

    #[test]
    fn huge_finding_count_is_corrupt_not_an_allocation() {
        let text = format!(
            "{MAGIC}\nH fp=0000000000000001 m=4 stride=2 algo=(E) early=0 launch_pairs=2 \
             launches=3\nL 0 sim=0000000000000000 fb=0 n=18446744073709551615\n"
        );
        match ScanJournal::from_bytes(text.as_bytes()) {
            Err(JournalError::Corrupt { line: 3, reason }) => {
                assert!(reason.contains("finding count mismatch"), "{reason}")
            }
            other => panic!("expected a finding-count corruption, got {other:?}"),
        }
    }

    #[test]
    fn mark_done_is_idempotent() {
        let mut j = ScanJournal::in_memory();
        assert!(!j.is_done());
        j.mark_done().unwrap();
        j.mark_done().unwrap();
        assert!(j.is_done());
    }
}

//! The journal primitive behind every durable plain-text file in this crate.
//!
//! The checkpoint journal ([`crate::checkpoint`]) and the shard lease ledger
//! ([`crate::shard::coordinator`]) are append-only, line-oriented text files
//! with one set of crash rules, and the arena file ([`crate::store`]) shares
//! their header conventions. This module owns those rules; each owner keeps
//! only its record grammar and its state machine.
//!
//! * Line 1 is a magic string pinning the format and its version.
//! * The owner's header is bound with the magic line in **one** append
//!   ([`Journal::bind`]), so a crash cannot leave a magic line followed by
//!   half a header. A magic line already on disk (a run that died between
//!   the two) is not written again.
//! * Every record is one `write_all` followed by `sync_data` before the
//!   commit returns ([`Journal::append_line`]). `File::flush` alone is a no-op;
//!   only `sync_data` makes the record survive an OS crash or power loss,
//!   so such a crash can only tear the final line.
//! * On replay ([`Journal::open`], [`Journal::from_bytes`]) the bytes after
//!   the last `\n` are that torn line: they are dropped, and `open` cuts
//!   them off the file before reopening it for append, so the next record
//!   starts on a clean line boundary. A malformed *complete* line is real
//!   corruption.
//! * Records are `key=value` tokens read with [`field`], [`opt_field`],
//!   [`parse_num`] and [`parse_hex_u64`]. Every parse failure is one
//!   [`Corrupt`] value, which each owner converts into its own error type.
//! * A header is compared field by field in one fixed order
//!   ([`first_mismatch`]), and the first differing field is reported by
//!   name.
//! * Content fingerprints (corpus, tile) are FNV-1a-64 ([`Fnv64`]).

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::str::FromStr;

/// A complete line that failed to parse, before the owner wraps it in its
/// own error type (`JournalError`, `LedgerError` or `StoreError`).
#[derive(Debug)]
pub(crate) struct Corrupt {
    /// 1-based line number of the offending line (0: the file as a whole).
    pub(crate) line: usize,
    /// What was wrong with it.
    pub(crate) reason: String,
}

/// An append-only journal file, or no file at all ([`in_memory`]) when only
/// the owner's state machine is wanted.
///
/// [`in_memory`]: Journal::in_memory
#[derive(Debug)]
pub(crate) struct Journal {
    file: Option<File>,
    magic: &'static str,
    /// Whether the magic line is already on disk (written by this run or
    /// replayed from a prior one).
    magic_written: bool,
}

impl Journal {
    /// A journal with no backing file: appends only update the owner's
    /// state.
    pub(crate) fn in_memory(magic: &'static str) -> Self {
        Journal {
            file: None,
            magic,
            magic_written: false,
        }
    }

    /// Open (or create) the journal at `path`, replaying its committed
    /// lines through `on_line` as [`from_bytes`](Self::from_bytes) does.
    /// Only once the whole prefix has replayed is a torn tail truncated
    /// away (and the truncation synced), so a file that fails to replay,
    /// perhaps not a journal at all, is left untouched.
    // analyze: journal(replay)
    pub(crate) fn open<E>(
        path: &Path,
        magic: &'static str,
        on_line: impl FnMut(usize, &str) -> Result<(), E>,
    ) -> Result<Self, E>
    where
        E: From<Corrupt> + From<io::Error>,
    {
        let mut journal = Journal::in_memory(magic);
        if path.exists() {
            let bytes = std::fs::read(path)?;
            journal = Journal::from_bytes(&bytes, magic, on_line)?;
            let committed = committed_len(&bytes);
            if committed < bytes.len() {
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(committed as u64)?;
                file.sync_data()?;
            }
        }
        journal.file = Some(OpenOptions::new().create(true).append(true).open(path)?);
        Ok(journal)
    }

    /// Replay journal bytes with no file behind them. Bytes after the last
    /// `\n` are a torn line and are ignored. Line 1 must be `magic`; every
    /// later line goes to `on_line` with its 1-based line number.
    // analyze: journal(replay)
    pub(crate) fn from_bytes<E: From<Corrupt>>(
        bytes: &[u8],
        magic: &'static str,
        mut on_line: impl FnMut(usize, &str) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut journal = Journal::in_memory(magic);
        let text = std::str::from_utf8(&bytes[..committed_len(bytes)]).map_err(|e| Corrupt {
            line: 0,
            reason: format!("not UTF-8: {e}"),
        })?;
        let mut lines = text.lines();
        if let Some(first) = lines.next() {
            check_magic(first, magic)?;
            journal.magic_written = true;
        }
        for (idx, line) in lines.enumerate() {
            on_line(idx + 2, line)?;
        }
        Ok(journal)
    }

    /// Whether the magic line is on disk (or would be, for an in-memory
    /// journal that has been bound).
    pub(crate) fn magic_written(&self) -> bool {
        self.magic_written
    }

    /// Bind the journal to the owner's `header_line`: one append carrying
    /// the magic line too, unless a prior run already persisted it.
    // analyze: journal(create)
    pub(crate) fn bind(&mut self, header_line: &str) -> io::Result<()> {
        if self.magic_written {
            self.append_line(header_line)?;
        } else {
            self.append_line(&format!("{}\n{header_line}", self.magic))?;
        }
        self.magic_written = true;
        Ok(())
    }

    /// Append `line` plus its newline in one `write_all` and `sync_data`
    /// it before returning. (Not named `append`: `crates/analyze` reads
    /// `.append(` as `Vec::append` and would not follow calls into it.)
    // analyze: journal(append)
    pub(crate) fn append_line(&mut self, line: &str) -> io::Result<()> {
        if let Some(file) = &mut self.file {
            file.write_all(format!("{line}\n").as_bytes())?;
            file.sync_data()?;
        }
        Ok(())
    }
}

/// Length of the committed prefix: everything up to and including the
/// last `\n`.
fn committed_len(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |pos| pos + 1)
}

/// Check that line 1 of a file is `magic`.
pub(crate) fn check_magic(line: &str, magic: &str) -> Result<(), Corrupt> {
    if line == magic {
        return Ok(());
    }
    Err(Corrupt {
        line: 1,
        reason: format!("expected `{magic}`, found `{line}`"),
    })
}

/// The value of the first `key=value` token on `line`, if any.
pub(crate) fn opt_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_ascii_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// The value of the first `key=value` token on `line`; its absence is
/// corruption.
pub(crate) fn field<'a>(line: &'a str, key: &str, lineno: usize) -> Result<&'a str, Corrupt> {
    opt_field(line, key).ok_or_else(|| Corrupt {
        line: lineno,
        reason: format!("missing field `{key}`"),
    })
}

/// Parse a decimal value; `what` names it in the error.
pub(crate) fn parse_num<T: FromStr>(s: &str, what: &str, lineno: usize) -> Result<T, Corrupt>
where
    T::Err: fmt::Display,
{
    s.parse().map_err(|e| Corrupt {
        line: lineno,
        reason: format!("bad {what} `{s}`: {e}"),
    })
}

/// Parse a hexadecimal `u64`; `what` names it in the error.
pub(crate) fn parse_hex_u64(s: &str, what: &str, lineno: usize) -> Result<u64, Corrupt> {
    u64::from_str_radix(s, 16).map_err(|e| Corrupt {
        line: lineno,
        reason: format!("bad {what} `{s}`: {e}"),
    })
}

/// FNV-1a-64: the one content hash behind the arena, journal and ledger
/// fingerprints. Cheap, dependency-free, and sensitive to any reordering
/// or edit of the bytes fed to it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The hash of no bytes.
    pub(crate) fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Feed `bytes`, in order.
    pub(crate) fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of every byte fed so far.
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// One header field: its name in a mismatch error, and its rendering in
/// that error (the comparison is on the rendering, so it must be
/// injective).
pub(crate) type HeaderField<H> = (&'static str, fn(&H) -> String);

/// The first of `fields`, in order, whose rendering differs between the
/// header already bound (`stored`) and the current run's (`run`), as
/// `(field, stored value, run value)`.
pub(crate) fn first_mismatch<H>(
    fields: &[HeaderField<H>],
    stored: &H,
    run: &H,
) -> Option<(&'static str, String, String)> {
    fields.iter().find_map(|&(name, render)| {
        let (stored, run) = (render(stored), render(run));
        (stored != run).then_some((name, stored, run))
    })
}

#[cfg(test)]
mod tests {
    use crate::checkpoint::{JournalError, JournalHeader, ScanJournal};
    use crate::shard::{Coordinator, LedgerError, LedgerHeader};

    /// A header field's name and an edit that changes only that field.
    type Edit<H> = (&'static str, fn(&mut H));

    /// Bind a fresh store to `base`, then check `run` against it: the name
    /// of the reported mismatched field.
    fn journal_mismatch(base: &JournalHeader, run: &JournalHeader) -> &'static str {
        let mut j = ScanJournal::in_memory();
        j.check_compatible(base).unwrap();
        match j.check_compatible(run) {
            Err(JournalError::Mismatch { field, .. }) => field,
            other => panic!("expected a journal mismatch, got {other:?}"),
        }
    }

    fn ledger_mismatch(base: &LedgerHeader, run: &LedgerHeader) -> &'static str {
        let mut c = Coordinator::in_memory();
        c.check_compatible(base).unwrap();
        match c.check_compatible(run) {
            Err(LedgerError::Mismatch { field, .. }) => field,
            other => panic!("expected a ledger mismatch, got {other:?}"),
        }
    }

    /// Each header field, changed alone, is refused by name. Changing the
    /// fields cumulatively from the last one back, the earliest changed
    /// field is always the one reported, which pins the check order.
    fn check_fields<H: Clone>(base: &H, edits: &[Edit<H>], mismatch: fn(&H, &H) -> &'static str) {
        let mut all = base.clone();
        for &(name, edit) in edits.iter().rev() {
            let mut one = base.clone();
            edit(&mut one);
            assert_eq!(mismatch(base, &one), name, "{name} alone");
            edit(&mut all);
            assert_eq!(mismatch(base, &all), name, "{name} and every later field");
        }
    }

    #[test]
    fn each_header_field_mismatch_is_reported_by_name() {
        let journal = JournalHeader {
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
        check_fields(
            &journal,
            &[
                ("fingerprint", |h| h.fingerprint = 2),
                ("moduli", |h| h.moduli = 5),
                ("stride", |h| h.stride = 3),
                ("algo", |h| h.algo = "(A)".to_string()),
                ("early", |h| h.early = true),
                ("launch_pairs", |h| h.launch_pairs = 1),
                ("launches", |h| h.launches = 6),
                ("tile", |h| h.tile_launches = 2),
            ],
            journal_mismatch,
        );

        let ledger = LedgerHeader {
            fingerprint: 1,
            moduli: 4,
            launch_pairs: 2,
            launches: 3,
            tiles: 2,
            algo: "(E)".to_string(),
            early: false,
        };
        check_fields(
            &ledger,
            &[
                ("fingerprint", |h| h.fingerprint = 2),
                ("moduli", |h| h.moduli = 5),
                ("launch_pairs", |h| h.launch_pairs = 1),
                ("launches", |h| h.launches = 6),
                ("tiles", |h| h.tiles = 3),
                ("algo", |h| h.algo = "(A)".to_string()),
                ("early", |h| h.early = true),
            ],
            ledger_mismatch,
        );
    }
}

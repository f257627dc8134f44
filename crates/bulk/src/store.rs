//! The on-disk compiled-arena format and its chunk-streamed loader.
//!
//! `bulkgcd ingest` sanitizes a raw hex corpus **once** and compiles the
//! result to a `corpus.arena` file; every later `scan --arena` run then
//! skips hex parsing and quarantine entirely and can stream the moduli
//! through a bounded-memory window — the path that lets a corpus larger
//! than RAM be scanned tile by tile.
//!
//! # Arena file format (version 1)
//!
//! A text header in the `bulk::journal` conventions shared with
//! [`crate::checkpoint`] — pinned by a magic line, `key=value` fields,
//! fsynced writes, explicit torn-tail rules — followed by one binary
//! payload:
//!
//! ```text
//! bulkgcd-arena v1
//! H m=<rows> stride=<limbs> raw=<raw inputs> min_bits=<floor> fp=<fnv1a64 hex16>
//! B <hex64 word> <hex64 word> ...
//! P <payload bytes>
//! <m * stride * 4 bytes of little-endian limbs, row-major>
//! ```
//!
//! * the magic line pins the format version;
//! * `H` carries the arena shape, the ingest floor the corpus was
//!   sanitized with, and the corpus fingerprint — the **same**
//!   [`corpus_fingerprint`] a checkpoint journal binds to, so a scan
//!   resumed from a journal and a scan fed from the arena file agree on
//!   corpus identity;
//! * `B` is the acceptance bitmap of the original raw corpus (`raw` bits,
//!   packed little-endian into 64-bit words): bit `i` set iff raw input
//!   `i` was accepted. Rehydrated into a [`RankSelect`], it maps compacted
//!   rows back to raw corpus positions in O(1) without a `Vec<usize>`
//!   side table;
//! * `P` declares the exact payload length in bytes, then the limbs
//!   follow with **no trailing text**.
//!
//! **Torn-tail rule.** Header lines are only trusted complete (a file
//! ending mid-header fails to parse its final line and is reported as
//! [`StoreError::Corrupt`]); a payload shorter than `P` declared — the
//! signature of a crash mid-write — is [`StoreError::Truncated`], and
//! trailing bytes past the payload are corruption. Unlike the append-only
//! journal there is no valid prefix to salvage: an arena is written in
//! one shot and is either whole or rejected, which is why
//! [`ArenaSource::open`] also streams the payload once to verify the
//! fingerprint before handing out any rows.

use crate::arena::{ArenaError, ModuliArena};
use crate::checkpoint::corpus_fingerprint;
use crate::journal::{check_magic, field, parse_hex_u64, parse_num, Corrupt, Fnv64};
use crate::scan::backend::{scan_pair, termination_for};
use crate::scan::report::ScanReport;
use bulkgcd_bigint::{ops, Limb, Nat};
use bulkgcd_core::{Algorithm, GcdPair, RankSelect};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Instant;

/// First line of every arena file.
pub const ARENA_MAGIC: &str = "bulkgcd-arena v1";

/// Bytes per stored limb.
const LIMB_BYTES: usize = std::mem::size_of::<Limb>();

/// Why an arena file could not be written or used.
#[derive(Debug)]
pub enum StoreError {
    /// The arena file could not be read or written.
    Io(io::Error),
    /// A header line failed to parse (including a file torn mid-header).
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The payload is shorter than the header declared — a torn write.
    Truncated {
        /// Bytes the `P` line promised.
        expected: u64,
        /// Bytes actually present after the header.
        found: u64,
    },
    /// The payload does not hash to the header's fingerprint.
    Fingerprint {
        /// The fingerprint stored in the header.
        stored: u64,
        /// The fingerprint of the bytes on disk.
        computed: u64,
    },
    /// The acceptance bitmap does not have exactly one set bit per row.
    AcceptanceMismatch {
        /// Set bits in the bitmap.
        ones: usize,
        /// Rows the arena holds.
        rows: usize,
    },
    /// The payload could not be shaped into a [`ModuliArena`].
    Arena(ArenaError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "arena I/O: {e}"),
            StoreError::Corrupt { line, reason } => {
                write!(f, "arena file corrupt at line {line}: {reason}")
            }
            StoreError::Truncated { expected, found } => write!(
                f,
                "arena payload truncated: header declares {expected} bytes, file holds {found} \
                 (torn write; re-run bulkgcd ingest)"
            ),
            StoreError::Fingerprint { stored, computed } => write!(
                f,
                "arena fingerprint mismatch: header has {stored:016x}, payload hashes to \
                 {computed:016x}"
            ),
            StoreError::AcceptanceMismatch { ones, rows } => write!(
                f,
                "acceptance bitmap has {ones} set bits for {rows} arena rows"
            ),
            StoreError::Arena(e) => write!(f, "arena shape: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<Corrupt> for StoreError {
    fn from(Corrupt { line, reason }: Corrupt) -> Self {
        StoreError::Corrupt { line, reason }
    }
}

impl From<ArenaError> for StoreError {
    fn from(e: ArenaError) -> Self {
        StoreError::Arena(e)
    }
}

/// The parsed `H` line of an arena file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaHeader {
    /// Accepted moduli (arena rows).
    pub m: usize,
    /// Limbs per row.
    pub stride: usize,
    /// Raw corpus inputs the acceptance bitmap covers.
    pub raw_len: usize,
    /// The `--min-bits` floor the corpus was sanitized with.
    pub min_bits: u64,
    /// [`corpus_fingerprint`] of the stored arena.
    pub fingerprint: u64,
}

impl ArenaHeader {
    /// Exact payload length in bytes, or `None` if a hostile shape
    /// overflows it.
    fn payload_bytes(&self) -> Option<u64> {
        (self.m as u64)
            .checked_mul(self.stride as u64)?
            .checked_mul(LIMB_BYTES as u64)
    }
}

/// Compile a sanitized arena (plus its acceptance bitmap and ingest floor)
/// to `path`. The write is fsynced (`sync_data`) before returning, and the
/// returned header is what [`ArenaSource::open`] will see.
// analyze: journal
pub fn write_arena(
    path: &Path,
    arena: &ModuliArena,
    acceptance: &RankSelect,
    min_bits: u64,
) -> Result<ArenaHeader, StoreError> {
    if acceptance.count_ones() != arena.len() {
        return Err(StoreError::AcceptanceMismatch {
            ones: acceptance.count_ones(),
            rows: arena.len(),
        });
    }
    let header = ArenaHeader {
        m: arena.len(),
        stride: arena.stride(),
        raw_len: acceptance.len(),
        min_bits,
        fingerprint: corpus_fingerprint(arena),
    };
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "{ARENA_MAGIC}")?;
    writeln!(
        w,
        "H m={} stride={} raw={} min_bits={} fp={:016x}",
        header.m, header.stride, header.raw_len, header.min_bits, header.fingerprint
    )?;
    write!(w, "B")?;
    for word in acceptance.words() {
        write!(w, " {word:016x}")?;
    }
    writeln!(w)?;
    writeln!(w, "P {}", arena.as_limbs().len() * LIMB_BYTES)?;
    for &limb in arena.as_limbs() {
        w.write_all(&limb.to_le_bytes())?;
    }
    let file = w.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
    file.sync_data()?;
    Ok(header)
}

/// A chunk-streamed reader over an arena file.
///
/// [`open`](Self::open) parses and validates the header, verifies the
/// payload length against the torn-tail rule, and streams the payload once
/// through the fingerprint — without ever materializing the corpus. After
/// that, rows are loaded on demand: [`load_rows`](Self::load_rows) for a
/// bounded window (the larger-than-RAM path), [`load_arena`](Self::load_arena)
/// for the whole corpus (the convenience path feeding the existing
/// pipeline, shard and incremental drivers).
#[derive(Debug)]
pub struct ArenaSource {
    file: File,
    header: ArenaHeader,
    acceptance: RankSelect,
    payload_offset: u64,
}

impl ArenaSource {
    /// Open and validate `path`.
    // analyze: journal(replay)
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let mut file = File::open(path)?;
        let mut reader = io::BufReader::new(&mut file);
        let mut lineno = 0usize;

        check_magic(&read_header_line(&mut reader, &mut lineno)?, ARENA_MAGIC)?;
        let h_line = read_header_line(&mut reader, &mut lineno)?;
        let header = parse_h_line(&h_line, lineno)?;
        let needed = header.payload_bytes().ok_or_else(|| StoreError::Corrupt {
            line: lineno,
            reason: format!(
                "m={} * stride={} overflows the payload length",
                header.m, header.stride
            ),
        })?;
        let b_line = read_header_line(&mut reader, &mut lineno)?;
        let words = parse_b_line(&b_line, lineno)?;
        let p_line = read_header_line(&mut reader, &mut lineno)?;
        let declared = parse_p_line(&p_line, lineno)?;
        if declared != needed {
            return Err(StoreError::Corrupt {
                line: lineno,
                reason: format!("P declares {declared} bytes but m * stride needs {needed}"),
            });
        }

        let acceptance = RankSelect::from_words(words, header.raw_len);
        if acceptance.count_ones() != header.m {
            return Err(StoreError::AcceptanceMismatch {
                ones: acceptance.count_ones(),
                rows: header.m,
            });
        }

        // Torn-tail rule: the payload must be exactly as long as declared.
        let payload_offset = reader.stream_position()?;
        drop(reader);
        let file_len = file.metadata()?.len();
        let found = file_len.saturating_sub(payload_offset);
        if found < declared {
            return Err(StoreError::Truncated {
                expected: declared,
                found,
            });
        }
        if found > declared {
            return Err(StoreError::Corrupt {
                line: lineno,
                reason: format!("{} trailing bytes after the payload", found - declared),
            });
        }

        let mut source = ArenaSource {
            file,
            header,
            acceptance,
            payload_offset,
        };
        source.verify_fingerprint(declared)?;
        Ok(source)
    }

    /// Stream the payload once through the corpus fingerprint and compare
    /// with the header — bounded memory regardless of corpus size.
    fn verify_fingerprint(&mut self, payload_bytes: u64) -> Result<(), StoreError> {
        let mut h = Fnv64::new();
        h.eat(&(self.header.m as u64).to_le_bytes());
        h.eat(&(self.header.stride as u64).to_le_bytes());
        self.file.seek(SeekFrom::Start(self.payload_offset))?;
        let mut remaining = payload_bytes;
        let mut buf = vec![0u8; (1 << 20).min(remaining.max(1) as usize)];
        while remaining > 0 {
            let take = buf.len().min(remaining as usize);
            self.file.read_exact(&mut buf[..take])?;
            h.eat(&buf[..take]);
            remaining -= take as u64;
        }
        let h = h.finish();
        if h != self.header.fingerprint {
            return Err(StoreError::Fingerprint {
                stored: self.header.fingerprint,
                computed: h,
            });
        }
        Ok(())
    }

    /// The validated header.
    pub fn header(&self) -> &ArenaHeader {
        &self.header
    }

    /// Accepted rows (moduli) in the arena.
    pub fn rows(&self) -> usize {
        self.header.m
    }

    /// Limbs per row.
    pub fn stride(&self) -> usize {
        self.header.stride
    }

    /// The acceptance bitmap: compacted row ↔ raw corpus position.
    pub fn acceptance(&self) -> &RankSelect {
        &self.acceptance
    }

    /// Raw corpus position of arena row `row` — O(1) via rank/select.
    ///
    /// Panics if `row >= rows()` (rows come from scan findings over this
    /// arena, so an out-of-range row is a caller bug).
    pub fn raw_index(&self, row: usize) -> usize {
        // analyze: allow(no-panic, reason = "documented panic contract: open() verified count_ones == m, so every row < m has a raw position")
        self.acceptance
            .select1(row)
            .expect("arena row within acceptance bitmap")
    }

    /// Load rows `[start, start + count)` into a row-major limb buffer of
    /// `count * stride` limbs.
    pub fn load_rows(&mut self, start: usize, count: usize) -> Result<Vec<Limb>, StoreError> {
        assert!(start + count <= self.header.m, "row range out of bounds");
        let stride = self.header.stride;
        let byte_off = self.payload_offset + (start * stride * LIMB_BYTES) as u64;
        self.file.seek(SeekFrom::Start(byte_off))?;
        let mut bytes = vec![0u8; count * stride * LIMB_BYTES];
        self.file.read_exact(&mut bytes)?;
        let limbs = bytes
            .chunks_exact(LIMB_BYTES)
            .map(|c| Limb::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Ok(limbs)
    }

    /// Materialize the whole corpus as a [`ModuliArena`] — the bridge to
    /// the in-memory pipeline, shard ([`TilePlan`](crate::shard::TilePlan))
    /// and incremental drivers when the corpus does fit in RAM.
    pub fn load_arena(&mut self) -> Result<ModuliArena, StoreError> {
        let stride = self.header.stride;
        let limbs = self.load_rows(0, self.header.m)?;
        let moduli: Vec<Nat> = limbs
            .chunks_exact(stride.max(1))
            .map(Nat::from_limb_slice)
            .collect();
        let arena = ModuliArena::try_from_moduli(&moduli)?;
        if arena.stride() != stride {
            // The widest row defines the stride; a mismatch means the
            // payload does not belong to this header.
            return Err(StoreError::Corrupt {
                line: 2,
                reason: format!(
                    "stored stride {stride} but widest payload row needs {}",
                    arena.stride()
                ),
            });
        }
        Ok(arena)
    }

    /// All-pairs scalar scan streamed through a bounded limb budget.
    ///
    /// At most two row windows of ~`chunk_limbs` limbs each are resident
    /// at any time (plus the `GcdPair` workspace), so the corpus itself
    /// never has to fit in memory. Produces findings **bitwise identical**
    /// to [`ScanPipeline`](crate::scan::ScanPipeline) with
    /// [`ScalarBackend`](crate::scan::ScalarBackend) over the same corpus:
    /// the scalar backend's termination is per pair
    /// (`min(bits_i, bits_j) / 2` under early termination) and findings
    /// are globally ordered by `(i, j)`, so neither depends on how the
    /// pair space is tiled into chunks.
    pub fn scan_chunked(
        &mut self,
        algo: Algorithm,
        early: bool,
        chunk_limbs: usize,
    ) -> Result<ScanReport, StoreError> {
        let start = Instant::now();
        let m = self.header.m;
        let stride = self.header.stride.max(1);
        let rows_per_chunk = (chunk_limbs / stride).max(1);
        let nchunks = m.div_ceil(rows_per_chunk.max(1)).max(1);
        let mut pair = GcdPair::with_capacity(stride);
        let mut findings = Vec::new();
        for a in 0..nchunks {
            let a_start = a * rows_per_chunk;
            let chunk_a = self.load_rows(a_start, rows_per_chunk.min(m - a_start))?;
            // Window A against itself, then against every later window B.
            for b in a..nchunks {
                let b_start = b * rows_per_chunk;
                let loaded;
                let chunk_b = if b == a {
                    &chunk_a
                } else {
                    loaded = self.load_rows(b_start, rows_per_chunk.min(m - b_start))?;
                    &loaded
                };
                for (ia, row_a) in chunk_a.chunks_exact(stride).enumerate() {
                    // Within one window, only the pairs with i < j.
                    let first = if b == a { ia + 1 } else { 0 };
                    for (jb, row_b) in chunk_b.chunks_exact(stride).enumerate().skip(first) {
                        let term = termination_for(ops::bit_len(row_a), ops::bit_len(row_b), early);
                        let (i, j) = (a_start + ia, b_start + jb);
                        findings.extend(scan_pair(&mut pair, algo, term, i, row_a, j, row_b));
                    }
                }
            }
        }
        let pairs = (m as u64) * (m as u64).saturating_sub(1) / 2;
        Ok(ScanReport::fold(
            [(findings.as_slice(), 0.0)],
            pairs,
            start.elapsed(),
            false,
        ))
    }
}

/// Read one header line (without its newline). A file that ends before the
/// newline is torn mid-header.
fn read_header_line<R: io::BufRead>(r: &mut R, lineno: &mut usize) -> Result<String, StoreError> {
    *lineno += 1;
    let mut buf = Vec::new();
    let n = r.read_until(b'\n', &mut buf)?;
    if n == 0 || buf.last() != Some(&b'\n') {
        return Err(StoreError::Corrupt {
            line: *lineno,
            reason: "file ends mid-header (torn write)".into(),
        });
    }
    buf.pop();
    String::from_utf8(buf).map_err(|_| StoreError::Corrupt {
        line: *lineno,
        reason: "header line is not UTF-8".into(),
    })
}

/// `line` without its record `tag`, or corruption naming the line expected.
fn strip_tag<'a>(line: &'a str, tag: &str, lineno: usize) -> Result<&'a str, Corrupt> {
    line.strip_prefix(tag).ok_or_else(|| Corrupt {
        line: lineno,
        reason: format!("expected {} line, got {line:?}", tag.trim_end()),
    })
}

fn parse_h_line(line: &str, lineno: usize) -> Result<ArenaHeader, StoreError> {
    strip_tag(line, "H ", lineno)?;
    Ok(ArenaHeader {
        m: parse_num(field(line, "m", lineno)?, "m", lineno)?,
        stride: parse_num(field(line, "stride", lineno)?, "stride", lineno)?,
        raw_len: parse_num(field(line, "raw", lineno)?, "raw", lineno)?,
        min_bits: parse_num(field(line, "min_bits", lineno)?, "min_bits", lineno)?,
        fingerprint: parse_hex_u64(field(line, "fp", lineno)?, "fp", lineno)?,
    })
}

fn parse_b_line(line: &str, lineno: usize) -> Result<Vec<u64>, StoreError> {
    Ok(strip_tag(line, "B", lineno)?
        .split_ascii_whitespace()
        .map(|w| parse_hex_u64(w, "bitmap word", lineno))
        .collect::<Result<_, _>>()?)
}

fn parse_p_line(line: &str, lineno: usize) -> Result<u64, StoreError> {
    let rest = strip_tag(line, "P ", lineno)?;
    Ok(parse_num(rest.trim(), "payload length", lineno)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{ScalarBackend, ScanPipeline};
    use bulkgcd_bigint::Nat;
    use bulkgcd_core::RankSelectBuilder;

    fn arena_of(values: &[u64]) -> ModuliArena {
        let moduli: Vec<Nat> = values.iter().map(|&v| Nat::from_u64(v)).collect();
        ModuliArena::try_from_moduli(&moduli).unwrap()
    }

    fn all_accepted(n: usize) -> RankSelect {
        let mut b = RankSelectBuilder::new();
        for _ in 0..n {
            b.push(true);
        }
        b.finish()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("bulkgcd-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn round_trips_header_bitmap_and_rows() {
        let arena = arena_of(&[15, 21, 35, 77]);
        let mut bits = RankSelectBuilder::new();
        for accepted in [true, false, true, true, false, true] {
            bits.push(accepted);
        }
        let acceptance = bits.finish();
        let path = tmp("roundtrip.arena");
        let header = write_arena(&path, &arena, &acceptance, 3).unwrap();
        let mut src = ArenaSource::open(&path).unwrap();
        assert_eq!(src.header(), &header);
        assert_eq!(src.rows(), 4);
        assert_eq!(src.header().raw_len, 6);
        assert_eq!(src.header().min_bits, 3);
        assert_eq!(
            (0..4).map(|r| src.raw_index(r)).collect::<Vec<_>>(),
            vec![0, 2, 3, 5]
        );
        let loaded = src.load_arena().unwrap();
        assert_eq!(loaded, arena);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn acceptance_bitmap_must_match_rows() {
        let arena = arena_of(&[15, 21]);
        let path = tmp("mismatch.arena");
        let err = write_arena(&path, &arena, &all_accepted(3), 0).unwrap_err();
        assert!(matches!(
            err,
            StoreError::AcceptanceMismatch { ones: 3, rows: 2 }
        ));
    }

    #[test]
    fn truncated_payload_is_detected() {
        let arena = arena_of(&[15, 21, 35]);
        let path = tmp("torn.arena");
        write_arena(&path, &arena, &all_accepted(3), 0).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        match ArenaSource::open(&path) {
            Err(StoreError::Truncated { expected, found }) => {
                assert_eq!(found + 3, expected);
            }
            other => panic!("want Truncated, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_payload_byte_fails_the_fingerprint() {
        let arena = arena_of(&[15, 21, 35]);
        let path = tmp("flip.arena");
        write_arena(&path, &arena, &all_accepted(3), 0).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ArenaSource::open(&path),
            Err(StoreError::Fingerprint { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("magic.arena");
        std::fs::write(&path, "bulkgcd-arena v9\nH m=1\n").unwrap();
        assert!(matches!(
            ArenaSource::open(&path),
            Err(StoreError::Corrupt { line: 1, .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_torn_mid_header_is_corrupt() {
        let path = tmp("midheader.arena");
        std::fs::write(&path, format!("{ARENA_MAGIC}\nH m=2 stri")).unwrap();
        assert!(matches!(
            ArenaSource::open(&path),
            Err(StoreError::Corrupt { line: 2, .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn overflowing_shape_is_corrupt() {
        let path = tmp("overflow.arena");
        std::fs::write(
            &path,
            format!(
                "{ARENA_MAGIC}\nH m=4294967296 stride=4294967296 raw=0 min_bits=0 \
                 fp=0000000000000000\nB\nP 0\n"
            ),
        )
        .unwrap();
        match ArenaSource::open(&path) {
            Err(StoreError::Corrupt { line: 2, reason }) => {
                assert!(reason.contains("overflows"), "{reason}")
            }
            other => panic!("want Corrupt at the H line, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chunked_scan_matches_in_memory_pipeline_bitwise() {
        // Shared factors across chunk boundaries: 3*5, 5*7, 7*11, a
        // duplicate pair, and some coprime filler.
        let values = [15u64, 35, 77, 221, 15, 33, 65, 119, 143, 187];
        let arena = arena_of(&values);
        let path = tmp("chunkscan.arena");
        write_arena(&path, &arena, &all_accepted(values.len()), 0).unwrap();
        let mut src = ArenaSource::open(&path).unwrap();

        let reference = ScanPipeline::new(&arena)
            .backend(ScalarBackend)
            .run()
            .unwrap()
            .scan;
        // A chunk budget of one row per window: every pair crosses a
        // chunk boundary.
        for chunk_limbs in [1, 2, 3, 1000] {
            let chunked = src
                .scan_chunked(Algorithm::Approximate, true, chunk_limbs)
                .unwrap();
            assert_eq!(chunked.findings, reference.findings, "chunk={chunk_limbs}");
            assert_eq!(chunked.pairs_scanned, reference.pairs_scanned);
            assert_eq!(chunked.duplicate_pairs, reference.duplicate_pairs);
        }
        std::fs::remove_file(&path).unwrap();
    }
}

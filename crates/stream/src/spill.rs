//! The compact binary spill formats for partial matrices.
//!
//! A spilled partial is the paper's "partially merged result written back
//! to DRAM", transplanted to disk: sorted COO triples, the same
//! row-major `(row, col)` order the merge hardware consumes ("sorted by
//! row index then column index", §II-A), so a reader can stream straight
//! into a k-way merge without ever materializing the matrix.
//!
//! Two on-disk formats share a 28-byte header (little-endian):
//!
//! ```text
//! magic  u32   0x5350_4d31 ("SPM1", raw) | 0x5350_4d32 ("SPM2", varint)
//! rows   u64
//! cols   u64
//! nnz    u64
//! ```
//!
//! **Raw** (`SPM1`) stores each entry as `(row u32, col u32, value f64)`
//! — 16 bytes per element, streamable in both directions.
//!
//! **Delta+varint** (`SPM2`) exploits the sort order: rows are
//! non-decreasing and columns strictly increase within a row, so
//! coordinates delta-encode into single-byte varints almost always.
//! Per entry:
//!
//! ```text
//! drow   varint  row - previous row (0 for same-row runs)
//! token  varint  (cval << 1) | value_mode
//!                cval = col            if first entry or drow > 0
//!                     = col - prev_col otherwise (≥ 1: strictly increasing)
//! value  value_mode 0: varint of value.to_bits().swap_bytes()
//!        value_mode 1: raw 8-byte little-endian bit pattern
//! ```
//!
//! The byte swap moves the mantissa's trailing zero bytes — which small
//! integers, halves and other short-mantissa values have in abundance —
//! to the top of the word where LEB128 drops them: `3.0` encodes in 2
//! bytes instead of 8. Values whose swapped varint would not beat the
//! raw 8 bytes use mode 1, so an entry never pays more than
//! `drow + token + 8`. As a final guarantee a varint encoding that is
//! not strictly smaller than raw is thrown away and the partial is
//! written raw instead — a *requested* varint spill is never larger
//! than raw, on any input.
//!
//! **One pass.** The writer walks `row_ptr`, `col_idx` and `values`
//! once. Every LEB128 field it emits fits in 7 bytes, so each is built
//! as one little-endian word plus a length and stored whole into a
//! fixed-size chunk buffer, which goes out with one `write_all` when the
//! next entry might not fit. A varint encoding is abandoned the moment
//! it reaches the raw size (an empty partial is the common case) and the
//! partial is encoded again, raw.
//!
//! **Row index.** The same pass records a [`RowIndex`] in the returned
//! [`SpillFile`]: a mark every `⌈rows / 1024⌉` rows holding the byte
//! offset, the entries before it and the row of the entry before it —
//! the decoder's whole state at a row boundary. The stride depends on
//! the shape alone, so every partial of a merge round has its marks at
//! the same rows, and [`SpillReader::open_band`] can start a reader at
//! any mark. The index lives in memory only: the formats below do not
//! change, because a spill file only ever comes back to the process
//! that wrote it.
//!
//! The same encoding doubles as the **wire format** of the distributed
//! layer: [`encode_partial`] produces the header + body as bytes for a
//! socket frame, byte for byte what [`write_partial`] puts on disk.
//!
//! **One decoder, two framings.** Whatever the bytes came from, one
//! function turns them into entries: it parses an entry of either
//! format from a byte slice and a cursor, taking a single-load LEB128
//! path while eight bytes are ahead and bounds-checked reads near the
//! end of the input, and holds every entry to the header's shape and to
//! strictly increasing `(row, col)` order. The two framings only decide
//! what slice it sees:
//!
//! * a **spill file** is read by [`SpillReader`] through a bounded 64 KiB
//!   buffer; the decoder runs over each buffered window, taking an entry
//!   only while a worst-case one fits or the window holds the file's
//!   tail. [`SpillReader::next_rows`], which fills a merge source's
//!   [`RowGroup`], and [`SpillReader::read_all`] are thin loops over
//!   that one path. A band reader holds its entries to its rows as well;
//! * a **wire frame** is decoded whole by [`decode_partial`].
//!
//! Both hold the header's entry count against the body bytes present
//! before sizing anything by it. Two checks are wire-only, because a
//! frame comes from another process while a spill file comes back to
//! the process that wrote it (and its shape is checked against the one
//! written, [`SpillReader::expect_shape`]): a cap on the declared shape,
//! and no bytes past the declared entries. Every failure is a typed
//! [`StreamError::Io`] — never a panic — and a file's carries its path.

use crate::{SpillCodec, StreamError};
use sparch_sparse::{Csr, CsrBuilder, Index, Triple};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

const MAGIC_RAW: u32 = 0x5350_4d31;
const MAGIC_VARINT: u32 = 0x5350_4d32;
const HEADER_BYTES: u64 = 28;
const RAW_ENTRY_BYTES: u64 = 16;

/// Read-buffer capacity for streaming a spilled partial back in. Small
/// by design: this bounds the resident bytes a spilled merge child costs.
const READ_BUF_BYTES: usize = 64 * 1024;

/// Worst-case encoded size of one entry in either format — three 10-byte
/// LEB128 fields (drow, token, value), above raw's 16 — so a buffered
/// window with this many bytes ahead holds the next entry whole.
const MAX_VARINT_ENTRY_BYTES: usize = 30;

/// Chunk-buffer capacity of the writer: encoded bytes collected per
/// `write_all`. The same as a reader's buffer, and below the allocator's
/// default mmap threshold, so a fresh one stays cheap.
const CHUNK_BYTES: usize = 64 * 1024;

/// Chunk room the writer keeps free before it encodes an entry. A raw
/// entry is 16 bytes. A varint entry's fields are at most 5 (drow, a
/// `u32` delta), 5 (token, 33 bits) and 8 (value) bytes, and each field
/// is stored as a whole 8-byte word, so the last store ends at most 18
/// bytes past the entry's start.
const ENTRY_ROOM: usize = 18;

/// Marks per [`RowIndex`], at most (plus the end mark).
const MARKS: usize = 1024;

/// Largest row/column count [`decode_partial`] accepts. The row-pointer
/// array scales with the declared row count *before* any entry is read,
/// so a corrupt wire header must not be able to provoke an unbounded
/// allocation; 16M rows (a 128 MiB row-pointer worst case) sits far
/// above any shape this system ships while keeping the damage a hostile
/// frame can do survivable.
const MAX_WIRE_DIM: u64 = 1 << 24;

/// A partial matrix sitting on disk.
#[derive(Debug, Clone)]
pub struct SpillFile {
    /// Where the partial lives.
    pub path: PathBuf,
    /// File size in bytes (header + entries), for traffic accounting.
    pub bytes: u64,
    /// Shape `(rows, cols)` of the partial written: the header a reader
    /// reopens must still declare it (see [`SpillReader::expect_shape`]).
    pub shape: (usize, usize),
    /// Where the file's rows start, recorded while it was written.
    pub(crate) index: RowIndex,
}

/// The rows between marks of a [`RowIndex`]: `⌈rows / 1024⌉`, and at
/// least one. A function of the row count alone, so every partial of one
/// shape has its marks at the same rows.
pub(crate) fn mark_stride(rows: usize) -> usize {
    rows.div_ceil(MARKS).max(1)
}

/// A spill file's row index: mark `k` sits at row `k · stride` (the last
/// one at `rows`, the end of the file) and holds what a reader needs to
/// start decoding there.
#[derive(Debug, Clone)]
pub(crate) struct RowIndex {
    rows: usize,
    stride: usize,
    marks: Vec<Mark>,
}

/// One mark of a [`RowIndex`].
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// Byte offset of the first entry at or after the mark's row.
    offset: u64,
    /// Entries before the mark.
    entries: u64,
    /// Row of the entry before the mark (0 when there is none): the
    /// delta decoder's state at the mark, since the entry after it
    /// starts a new row and so carries an absolute column.
    prev_row: Index,
}

impl RowIndex {
    /// The spans between marks: marks are numbered `0..=spans()`.
    pub(crate) fn spans(&self) -> usize {
        self.marks.len() - 1
    }

    /// The row mark `k` sits at.
    pub(crate) fn row(&self, k: usize) -> usize {
        (k * self.stride).min(self.rows)
    }

    /// Entries before mark `k`.
    pub(crate) fn entries_before(&self, k: usize) -> usize {
        self.marks[k].entries as usize
    }

    /// Entries in the whole file.
    pub(crate) fn entries(&self) -> usize {
        self.entries_before(self.spans())
    }
}

/// The exact on-disk size `csr` would occupy in the raw format.
pub fn raw_size(csr: &Csr) -> u64 {
    HEADER_BYTES + csr.nnz() as u64 * RAW_ENTRY_BYTES
}

/// The exact on-disk size `csr` would occupy in the delta+varint format
/// (before the writer's raw fallback is applied).
pub fn varint_size(csr: &Csr) -> u64 {
    let mut chunk = vec![0u8; chunk_len(csr)];
    let sized = encode(csr, true, u64::MAX, &mut chunk, |_| Ok(()));
    sized
        .expect("a discarding sink cannot fail")
        .expect("no limit")
        .0
}

/// Writes `csr` to `path` under the requested codec.
///
/// [`SpillCodec::Varint`] is a *request*: a varint encoding that is not
/// strictly smaller than raw is thrown away and the file written raw,
/// so the returned [`SpillFile::bytes`] never exceeds [`raw_size`]. The
/// magic records the format actually chosen.
pub fn write_partial(path: &Path, csr: &Csr, codec: SpillCodec) -> Result<SpillFile, StreamError> {
    SpillWriter::default().write(path, csr, codec)
}

/// The spill writer's chunk buffer, kept across writes: the pipeline's
/// writer thread owns one, so a run of small spills allocates it once.
#[derive(Debug, Default)]
pub(crate) struct SpillWriter {
    chunk: Vec<u8>,
}

impl SpillWriter {
    /// [`write_partial`] through this writer's chunk buffer.
    pub(crate) fn write(
        &mut self,
        path: &Path,
        csr: &Csr,
        codec: SpillCodec,
    ) -> Result<SpillFile, StreamError> {
        self.write_with(path, csr, codec, || File::create(path))
    }

    /// Encodes `csr` into what `create` opens — the file at `path`, or a
    /// faulting writer under test — and reports it as a spill file at
    /// `path`. A varint encoding that reaches the raw size is abandoned
    /// and `create` is called again for the raw one, so `create` must
    /// start an empty file each time. A failed write names `path` and
    /// leaves no file there.
    pub(crate) fn write_with<W: Write>(
        &mut self,
        path: &Path,
        csr: &Csr,
        codec: SpillCodec,
        mut create: impl FnMut() -> io::Result<W>,
    ) -> Result<SpillFile, StreamError> {
        let want = chunk_len(csr);
        if self.chunk.len() < want {
            self.chunk.resize(want, 0);
        }
        let mut write = |varint: bool, limit: u64| {
            let mut w = create()?;
            let done = encode(csr, varint, limit, &mut self.chunk, |b| w.write_all(b))?;
            w.flush()?;
            Ok::<_, io::Error>(done)
        };
        // `None` when there is no varint encoding: not asked for, or
        // abandoned at the raw size.
        let varint = match codec {
            SpillCodec::Raw => None,
            SpillCodec::Varint => write(true, raw_size(csr)).transpose(),
        };
        let written = match varint {
            Some(done) => done,
            None => write(false, u64::MAX).map(|done| done.expect("raw is never abandoned")),
        };
        let (bytes, index) = written.map_err(|e| {
            let _ = std::fs::remove_file(path);
            spill_io(path, "write", &e)
        })?;
        Ok(SpillFile {
            path: path.to_path_buf(),
            bytes,
            shape: (csr.rows(), csr.cols()),
            index,
        })
    }
}

/// An I/O failure on a spill file, with the path it happened on — the
/// context an operator needs when a temp volume fills up mid-run.
fn spill_io(path: &Path, verb: &str, detail: &dyn std::fmt::Display) -> StreamError {
    StreamError::Io(format!(
        "failed to {verb} spill file {}: {detail}",
        path.display()
    ))
}

/// The chunk buffer [`encode`] needs for `csr`: [`CHUNK_BYTES`], or less
/// when the partial's worst-case encoding is smaller.
fn chunk_len(csr: &Csr) -> usize {
    let worst = HEADER_BYTES as usize + ENTRY_ROOM * (csr.nnz() + 1);
    worst.min(CHUNK_BYTES)
}

/// The encoder's output side: a fixed chunk buffer and the bytes it has
/// already handed on.
struct Chunk<'a> {
    buf: &'a mut [u8],
    pos: usize,
    flushed: u64,
}

impl Chunk<'_> {
    /// Bytes encoded so far.
    fn bytes(&self) -> u64 {
        self.flushed + self.pos as u64
    }

    /// Stores the low `len` bytes of `word` (little-endian); the whole
    /// word is written, so 8 bytes must be free.
    #[inline(always)]
    fn word(&mut self, word: u64, len: usize) {
        self.buf[self.pos..self.pos + 8].copy_from_slice(&word.to_le_bytes());
        self.pos += len;
    }

    /// Stores `v` (below 2⁵⁶) as LEB128.
    #[inline(always)]
    fn varint(&mut self, v: u64) {
        let (word, len) = leb128_word(v);
        self.word(word, len);
    }

    /// Hands the buffered bytes to `sink`.
    fn flush(&mut self, sink: &mut impl FnMut(&[u8]) -> io::Result<()>) -> io::Result<()> {
        sink(&self.buf[..self.pos])?;
        self.flushed += self.pos as u64;
        self.pos = 0;
        Ok(())
    }
}

/// The LEB128 encoding of `v` (below 2⁵⁶) as one little-endian word and
/// its length in bytes. Branch-free: field lengths vary entry to entry,
/// and a branch on them mispredicts.
#[inline(always)]
fn leb128_word(v: u64) -> (u64, usize) {
    let len = varint_len(v) as usize;
    // Byte k takes bits 7k..7k+7 of `v`, spread in three halving steps:
    // 28-bit groups into 32-bit lanes, 14-bit into 16-bit, 7-bit into
    // bytes. Every byte but the last carries the continuation bit.
    let v = (v & 0x0fff_ffff) | (v & 0x00ff_ffff_f000_0000) << 4;
    let v = (v & 0x0000_3fff_0000_3fff) | (v & 0x0fff_c000_0fff_c000) << 2;
    let v = (v & 0x007f_007f_007f_007f) | (v & 0x3f80_3f80_3f80_3f80) << 1;
    let more = 0x8080_8080_8080_8080 & ((1u64 << (8 * (len - 1))) - 1);
    (v | more, len)
}

/// The one encoder behind [`write_partial`], [`encode_partial`] and
/// [`varint_size`]: header and body of `csr` in the varint (`varint`) or
/// raw format, built in `buf` (at least [`chunk_len`] bytes) and handed
/// to `sink` a chunk at a time, with the [`RowIndex`] recorded on the
/// way. Returns the bytes encoded and the index, or `None` — with the
/// bytes from `limit` on never handed over — once the encoding reaches
/// `limit` bytes.
fn encode(
    csr: &Csr,
    varint: bool,
    limit: u64,
    buf: &mut [u8],
    mut sink: impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<Option<(u64, RowIndex)>> {
    debug_assert!(buf.len() >= chunk_len(csr));
    let (rp, ci, vs) = (csr.row_ptr(), csr.col_indices(), csr.values());
    let mut out = Chunk {
        buf,
        pos: 0,
        flushed: 0,
    };
    let magic = if varint { MAGIC_VARINT } else { MAGIC_RAW };
    out.word(magic.into(), 4);
    for word in [csr.rows(), csr.cols(), csr.nnz()] {
        out.word(word as u64, 8);
    }
    let rows = csr.rows();
    let stride = mark_stride(rows);
    let mut marks = Vec::with_capacity(rows.div_ceil(stride) + 1);
    let mut prev_row: Index = 0;
    for start in (0..rows).step_by(stride) {
        marks.push(Mark {
            offset: out.bytes(),
            entries: rp[start] as u64,
            prev_row,
        });
        for r in start..(start + stride).min(rows) {
            let (lo, hi) = (rp[r], rp[r + 1]);
            if lo == hi {
                continue;
            }
            let row = r as Index;
            // A row's first entry carries the row delta and an absolute
            // column; the rest carry a zero delta and a column delta.
            let (mut drow, mut base) = (u64::from(row - prev_row), 0);
            for j in lo..hi {
                if out.buf.len() - out.pos < ENTRY_ROOM {
                    if out.bytes() >= limit {
                        return Ok(None);
                    }
                    out.flush(&mut sink)?;
                }
                let (col, bits) = (ci[j], vs[j].to_bits());
                if varint {
                    // The value as the varint of its swapped bits when
                    // that is shorter than 8 bytes (mode 0), else raw.
                    let swapped = bits.swap_bytes();
                    let raw = varint_len(swapped) >= 8;
                    let value = if raw { (bits, 8) } else { leb128_word(swapped) };
                    out.varint(drow);
                    out.varint(u64::from(col - base) << 1 | u64::from(raw));
                    out.word(value.0, value.1);
                    (drow, base) = (0, col);
                } else {
                    out.word(u64::from(row) | u64::from(col) << 32, 8);
                    out.word(bits, 8);
                }
            }
            prev_row = row;
        }
    }
    if out.bytes() >= limit {
        return Ok(None);
    }
    marks.push(Mark {
        offset: out.bytes(),
        entries: csr.nnz() as u64,
        prev_row,
    });
    out.flush(&mut sink)?;
    let index = RowIndex {
        rows,
        stride,
        marks,
    };
    Ok(Some((out.flushed, index)))
}

/// Encodes `csr` into the spill format in memory — the payload the
/// distributed layer ships over a socket. Identical bytes to what
/// [`write_partial`] puts on disk, including the raw fallback.
pub fn encode_partial(csr: &Csr, codec: SpillCodec) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_partial_into(&mut buf, csr, codec);
    buf
}

/// [`encode_partial`] appended to `buf` — a frame under assembly — a
/// chunk at a time, with room for the whole partial reserved up front;
/// returns the bytes appended.
pub fn encode_partial_into(buf: &mut Vec<u8>, csr: &Csr, codec: SpillCodec) -> u64 {
    let (start, raw) = (buf.len(), raw_size(csr));
    // Varint bytes from the raw size on are never appended, so the raw
    // size bounds the frame either way.
    buf.reserve(raw as usize);
    let mut chunk = vec![0u8; chunk_len(csr)];
    let mut append = |buf: &mut Vec<u8>, varint: bool, limit: u64| {
        let sink = |b: &[u8]| {
            buf.extend_from_slice(b);
            Ok(())
        };
        let done = encode(csr, varint, limit, &mut chunk, sink);
        done.expect("writing to a Vec cannot fail")
    };
    if codec == SpillCodec::Varint {
        if let Some((bytes, _)) = append(buf, true, raw) {
            return bytes;
        }
        buf.truncate(start);
    }
    append(buf, false, u64::MAX)
        .expect("raw is never abandoned")
        .0
}

/// Decodes a partial from an **untrusted** byte slice — the inverse of
/// [`encode_partial`] for frames that crossed a process boundary.
///
/// The header is validated before it is believed — the magic, a shape
/// within [`MAX_WIRE_DIM`], an entry count the payload can hold — and
/// the body goes through the same entry decoder as [`SpillReader`]
/// (shape, order and overflow checks included), followed by an
/// exact-length check: trailing garbage is an error. Corruption
/// therefore surfaces as [`StreamError::Io`] — never a panic, an
/// over-allocation, or a silently wrong matrix.
pub fn decode_partial(bytes: &[u8]) -> Result<Csr, StreamError> {
    let (mut body, nnz) = decode_header(bytes)?;
    let (rows, cols) = (body.check.rows, body.check.cols);
    if rows > MAX_WIRE_DIM || cols > MAX_WIRE_DIM {
        return Err(StreamError::Io(format!(
            "partial payload declares implausible shape {rows}x{cols} (limit {MAX_WIRE_DIM})"
        )));
    }
    let mut i = HEADER_BYTES as usize;
    body.check_entry_count(nnz, (bytes.len() - i) as u64)?;
    let mut b = CsrBuilder::with_capacity(rows as usize, cols as usize, nnz as usize);
    for _ in 0..nnz {
        let (r, c, v) = body.entry(bytes, &mut i)?;
        b.push_trusted(r, c, v);
    }
    if i != bytes.len() {
        return Err(StreamError::Io(format!(
            "partial payload has {} trailing bytes past the declared {nnz} entries",
            bytes.len() - i
        )));
    }
    Ok(b.finish())
}

/// Parses the header at the front of `bytes`: the body decoder its
/// magic selects, holding its shape, and the declared entry count.
fn decode_header(bytes: &[u8]) -> Result<(BodyDecoder, u64), StreamError> {
    let Some(h) = bytes.get(..HEADER_BYTES as usize) else {
        return Err(truncated("header"));
    };
    let word = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().expect("8 bytes"));
    let magic = u32::from_le_bytes(h[..4].try_into().expect("4 bytes"));
    let delta = match magic {
        MAGIC_RAW => None,
        MAGIC_VARINT => Some(DeltaState::new()),
        _ => return Err(StreamError::Io(format!("bad partial magic {magic:#010x}"))),
    };
    let check = EntryCheck::new(word(4), word(12));
    Ok((BodyDecoder { delta, check }, word(20)))
}

/// The truncation error every under-long header or body maps to.
fn truncated(what: &str) -> StreamError {
    StreamError::Io(format!("partial truncated mid-{what}"))
}

/// The next `N` bytes of `buf` at `*i`, advancing `i`; `None` past the
/// end. Inlined, like [`EntryCheck::admit`], into the per-entry loop.
#[inline(always)]
fn take<const N: usize>(buf: &[u8], i: &mut usize) -> Option<[u8; N]> {
    let bytes = buf.get(*i..*i + N)?.try_into().ok()?;
    *i += N;
    Some(bytes)
}

/// What every decoded entry is held to before it is believed: inside the
/// header's shape and the reader's rows, and strictly after its
/// predecessor in `(row, col)` order — what `CsrBuilder::push_trusted`
/// and the merge kernels assume of the keys they are fed.
#[derive(Debug)]
struct EntryCheck {
    rows: u64,
    cols: u64,
    /// The rows admitted: all of them, or a band reader's.
    band: Range<u64>,
    prev: Option<u64>,
}

impl EntryCheck {
    fn new(rows: u64, cols: u64) -> Self {
        EntryCheck {
            rows,
            cols,
            band: 0..rows,
            prev: None,
        }
    }

    /// Admits `(row, col)` as the next entry.
    #[inline(always)]
    fn admit(&mut self, row: Index, col: Index) -> Result<(), StreamError> {
        let band = &self.band;
        if u64::from(row).wrapping_sub(band.start) >= band.end - band.start
            || u64::from(col) >= self.cols
        {
            return Err(self.stray(row, col));
        }
        let key = u64::from(row) << 32 | u64::from(col);
        if self.prev.is_some_and(|p| p >= key) {
            return Err(StreamError::Io(format!(
                "partial entries not in strictly increasing (row, col) order at ({row}, {col})"
            )));
        }
        self.prev = Some(key);
        Ok(())
    }

    /// The error for an entry outside the shape or the band.
    #[cold]
    fn stray(&self, row: Index, col: Index) -> StreamError {
        let (rows, cols, band) = (self.rows, self.cols, &self.band);
        StreamError::Io(if u64::from(row) >= rows || u64::from(col) >= cols {
            format!("partial entry ({row}, {col}) outside declared shape {rows}x{cols}")
        } else {
            format!("partial entry ({row}, {col}) outside band rows {band:?}")
        })
    }
}

/// The body decoder of one partial, file or frame: the format the
/// header's magic named and the [`EntryCheck`] every entry must pass.
#[derive(Debug)]
struct BodyDecoder {
    /// Delta state for the varint format; `None` for raw.
    delta: Option<DeltaState>,
    check: EntryCheck,
}

impl BodyDecoder {
    /// Rejects a declared entry count that `body_bytes` cannot possibly
    /// hold — a raw entry costs 16 bytes, a varint one at least 3 (drow,
    /// token, value, one byte each) — before any allocation is sized by it.
    fn check_entry_count(&self, nnz: u64, body_bytes: u64) -> Result<(), StreamError> {
        let min_entry = if self.delta.is_some() {
            3
        } else {
            RAW_ENTRY_BYTES
        };
        if nnz.saturating_mul(min_entry) > body_bytes {
            return Err(StreamError::Io(format!(
                "header declares {nnz} entries but the partial holds only {body_bytes} body bytes"
            )));
        }
        Ok(())
    }

    /// Decodes the entry at `buf[*i..]`, advancing `i` past it, and
    /// admits it through the [`EntryCheck`] — the one place entry bytes
    /// become `(row, col, value)`, for every reader of either format.
    /// Every read is bounds-checked ([`take_varint`] takes its single
    /// load only with eight bytes ahead), so input that ends mid-entry is
    /// a truncation error, never a panic. Forced inline so each reader's
    /// loop folds the format branch and the varint fast paths into itself.
    #[inline(always)]
    fn entry(&mut self, buf: &[u8], i: &mut usize) -> Result<Triple, StreamError> {
        let (r, c, bits) = match &mut self.delta {
            None => {
                let e: [u8; 16] = take(buf, i).ok_or_else(|| truncated("entry"))?;
                let half =
                    |at: usize| u32::from_le_bytes(e[at..at + 4].try_into().expect("4 bytes"));
                (
                    half(0),
                    half(4),
                    u64::from_le_bytes(e[8..].try_into().expect("8 bytes")),
                )
            }
            Some(state) => {
                let drow = take_varint(buf, i)?;
                let token = take_varint(buf, i)?;
                let (r, c) = state.advance(drow, token >> 1)?;
                let bits = if token & 1 == 0 {
                    take_varint(buf, i)?.swap_bytes()
                } else {
                    u64::from_le_bytes(take(buf, i).ok_or_else(|| truncated("entry"))?)
                };
                (r, c, bits)
            }
        };
        self.check.admit(r, c)?;
        Ok((r, c, f64::from_bits(bits)))
    }
}

/// How one value is stored in the varint format.
#[cfg(test)]
enum ValueEnc {
    /// Varint of the byte-swapped bit pattern (shorter than 8 bytes).
    Varint(u64),
    /// Raw 8-byte bit pattern (the swap would not have helped).
    Raw(u64),
}

/// The delta decoder's state: the previous entry's coordinates. The
/// per-entry encoder the writer replaced walks the same deltas; it is
/// kept as the tests' byte-identity reference.
#[derive(Debug)]
struct DeltaState {
    prev_row: Index,
    prev_col: Index,
    first: bool,
}

impl DeltaState {
    fn new() -> Self {
        DeltaState {
            prev_row: 0,
            prev_col: 0,
            first: true,
        }
    }

    /// Encodes one `(row, col, value)` into its (drow, token, value)
    /// triplet, advancing the state.
    #[cfg(test)]
    fn encode(&mut self, r: Index, c: Index, v: f64) -> (u64, u64, ValueEnc) {
        let drow = (r - self.prev_row) as u64;
        let cval = if self.first || drow > 0 {
            c as u64
        } else {
            (c - self.prev_col) as u64
        };
        let vbits = v.to_bits().swap_bytes();
        let value = if varint_len(vbits) < 8 {
            ValueEnc::Varint(vbits)
        } else {
            ValueEnc::Raw(v.to_bits())
        };
        let mode = matches!(value, ValueEnc::Raw(_)) as u64;
        self.prev_row = r;
        self.prev_col = c;
        self.first = false;
        (drow, (cval << 1) | mode, value)
    }

    /// Applies one entry's coordinate deltas, advancing the state. The
    /// sums are checked: a corrupt stream whose accumulated row or column
    /// escapes the `u32` index space errors out instead of wrapping.
    fn advance(&mut self, drow: u64, cval: u64) -> Result<(Index, Index), StreamError> {
        let col_base = if self.first || drow > 0 {
            0
        } else {
            self.prev_col
        };
        let sum = |base: Index, delta: u64| {
            u64::from(base)
                .checked_add(delta)
                .and_then(|v| Index::try_from(v).ok())
        };
        let (Some(r), Some(c)) = (sum(self.prev_row, drow), sum(col_base, cval)) else {
            return Err(StreamError::Io(
                "delta-coded coordinate overflows the u32 index space".into(),
            ));
        };
        self.prev_row = r;
        self.prev_col = c;
        self.first = false;
        Ok((r, c))
    }
}

/// The bounded read buffer behind [`SpillReader`], refilled from `R` —
/// the spill file, or a fault-injecting reader under test.
#[derive(Debug)]
struct SpillBuf<R = File> {
    src: R,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    eof: bool,
}

impl<R: Read> SpillBuf<R> {
    fn new(src: R) -> Self {
        SpillBuf {
            src,
            buf: vec![0u8; READ_BUF_BYTES],
            pos: 0,
            len: 0,
            eof: false,
        }
    }

    /// Refills until at least `want` unread bytes are buffered or the
    /// source ends (`want` must be ≤ the buffer capacity), retrying
    /// interrupted reads. Returns the unread bytes and whether they run
    /// to the end of the source.
    fn window(&mut self, want: usize) -> Result<(&[u8], bool), StreamError> {
        debug_assert!(want <= self.buf.len());
        if self.len - self.pos < want && !self.eof {
            self.buf.copy_within(self.pos..self.len, 0);
            self.len -= self.pos;
            self.pos = 0;
            while self.len < self.buf.len() {
                match self.src.read(&mut self.buf[self.len..]) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => self.len += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        Ok((&self.buf[self.pos..self.len], self.eof))
    }

    /// Marks `n` buffered bytes as consumed.
    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len - self.pos);
        self.pos += n;
    }
}

/// Streams a spilled partial back as sorted triples through a bounded
/// read buffer, whichever format the writer chose.
#[derive(Debug)]
pub struct SpillReader<R = File> {
    buf: SpillBuf<R>,
    /// The header's format and shape and the last entry decoded: a
    /// damaged file must fail here, not merge into a malformed matrix.
    body: BodyDecoder,
    remaining: u64,
    /// Body bytes the file held when opened — what
    /// [`SpillReader::read_all`] holds the header's entry count against.
    body_bytes: u64,
    /// Where the partial lives — prefixed onto every I/O error so a
    /// failure deep in a merge names the file that caused it.
    path: PathBuf,
}

/// Prefixes the spill file's path onto an I/O error's message.
fn with_path(path: &Path, e: StreamError) -> StreamError {
    match e {
        StreamError::Io(msg) => StreamError::Io(format!("spill file {}: {msg}", path.display())),
        other => other,
    }
}

impl SpillReader {
    /// Opens a spill file, validates its header and selects the decoder
    /// for the format named by the magic. Errors from here and from
    /// every read that follows carry the file's path.
    pub fn open(path: &Path) -> Result<Self, StreamError> {
        let opened = File::open(path).and_then(|file| Ok((file.metadata()?.len(), file)));
        let (len, file) = opened.map_err(|e| with_path(path, e.into()))?;
        SpillReader::from_source(file, len, path)
    }

    /// Opens a reader over `file`'s rows from mark `marks.start` to mark
    /// `marks.end` of its row index. The header is validated and held to
    /// the written shape as by [`SpillReader::open`]; the reader then
    /// seeks to the first mark, seeds the decoder with that mark's state
    /// and yields exactly the entries the index counts between the two
    /// marks. An entry outside their rows is an error naming the file.
    pub(crate) fn open_band(file: &SpillFile, marks: Range<usize>) -> Result<Self, StreamError> {
        let (path, index) = (&file.path, &file.index);
        let (from, to) = (index.marks[marks.start], index.marks[marks.end]);
        let open = || -> Result<(File, BodyDecoder), StreamError> {
            let mut src = File::open(path)?;
            let mut header = [0u8; HEADER_BYTES as usize];
            src.read_exact(&mut header)?;
            let (body, _) = decode_header(&header)?;
            src.seek(SeekFrom::Start(from.offset))?;
            Ok((src, body))
        };
        let (src, mut body) = open().map_err(|e| with_path(path, e))?;
        if let Some(delta) = &mut body.delta {
            // The entry after a mark starts a row, so only the row
            // carries over — and nothing before the first entry.
            delta.prev_row = from.prev_row;
            delta.first = from.entries == 0;
        }
        body.check.band = index.row(marks.start) as u64..index.row(marks.end) as u64;
        let reader = SpillReader {
            buf: SpillBuf::new(src),
            body,
            remaining: to.entries - from.entries,
            body_bytes: to.offset - from.offset,
            path: path.clone(),
        };
        reader.expect_shape(file.shape.0, file.shape.1)?;
        Ok(reader)
    }
}

impl<R: Read> SpillReader<R> {
    /// A reader over `len` bytes of spill format refilled from `src`,
    /// naming `path` in its errors — [`SpillReader::open`] over a file,
    /// or any reader a test wants to fault.
    pub(crate) fn from_source(src: R, len: u64, path: &Path) -> Result<Self, StreamError> {
        let mut buf = SpillBuf::new(src);
        let header = buf
            .window(HEADER_BYTES as usize)
            .and_then(|(bytes, _)| decode_header(bytes));
        let (body, remaining) = header.map_err(|e| with_path(path, e))?;
        buf.consume(HEADER_BYTES as usize);
        Ok(SpillReader {
            buf,
            body,
            remaining,
            body_bytes: len.saturating_sub(HEADER_BYTES),
            path: path.to_path_buf(),
        })
    }

    /// Declared shape of the spilled partial.
    pub fn shape(&self) -> (usize, usize) {
        (self.body.check.rows as usize, self.body.check.cols as usize)
    }

    /// Errors, naming the file, unless the header declares `rows × cols`
    /// — the shape its reader already knows the partial has. The header
    /// shape is otherwise believed: it sizes [`SpillReader::read_all`]'s
    /// row pointers (a damaged header declaring 2⁴⁰ rows would abort the
    /// process) and bounds the entries admitted into a merge whose output
    /// is only `rows × cols`.
    pub fn expect_shape(&self, rows: usize, cols: usize) -> Result<(), StreamError> {
        let (r, c) = self.shape();
        if (r, c) == (rows, cols) {
            return Ok(());
        }
        let msg = format!("header declares shape {r}x{c}, expected {rows}x{cols}");
        Err(with_path(&self.path, StreamError::Io(msg)))
    }

    /// Entries not yet decoded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Decodes up to `max` entries into `group`, replacing what it held,
    /// and returns how many came (0 only at the end of the file). The
    /// group's last row may go on in the next one.
    pub(crate) fn next_rows(
        &mut self,
        max: usize,
        group: &mut RowGroup,
    ) -> Result<usize, StreamError> {
        let RowGroup { rows, entries, at } = group;
        rows.clear();
        entries.clear();
        *at = 0;
        self.read_entries(max, |(r, c, v)| {
            if rows.last().is_none_or(|last| last.0 != r) {
                rows.push((r, entries.len()));
            }
            entries.push((c, v));
        })
    }

    /// Drains the whole file into a CSR — the non-streaming fallback used
    /// when a spilled partial *is* the final result.
    ///
    /// The header's entry count sizes the result's arrays, so it is first
    /// held against the body bytes the file held when opened: a header
    /// that lies is an error naming the file, not an allocation.
    pub fn read_all(mut self) -> Result<Csr, StreamError> {
        let (rows, cols) = self.shape();
        let fits = self.body.check_entry_count(self.remaining, self.body_bytes);
        fits.map_err(|e| with_path(&self.path, e))?;
        let mut b = CsrBuilder::with_capacity(rows, cols, self.remaining as usize);
        self.read_entries(usize::MAX, |(r, c, v)| b.push_trusted(r, c, v))?;
        Ok(b.finish())
    }

    /// Hands up to `max` entries to `emit`, returning how many — the loop
    /// behind every public read. Each buffered window is decoded entry by
    /// entry while a worst-case entry still fits in it, or to the end
    /// once it holds the file's tail; errors name the file.
    fn read_entries(
        &mut self,
        max: usize,
        mut emit: impl FnMut(Triple),
    ) -> Result<usize, StreamError> {
        let take = max.min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        let SpillReader {
            buf, body, path, ..
        } = self;
        let mut got = 0usize;
        while got < take {
            let (window, tail) = buf
                .window(MAX_VARINT_ENTRY_BYTES)
                .map_err(|e| with_path(path, e))?;
            let mut i = 0usize;
            while got < take && (tail || window.len() - i >= MAX_VARINT_ENTRY_BYTES) {
                emit(body.entry(window, &mut i).map_err(|e| with_path(path, e))?);
                got += 1;
            }
            buf.consume(i);
        }
        self.remaining -= take as u64;
        Ok(take)
    }
}

/// Entries a merge source decodes from a spilled partial at a time
/// ([`SpillReader::next_rows`]): at most 32 KiB of row group per spilled
/// source, enough to amortize the decoder's setup per call.
pub(crate) const GROUP_ENTRIES: usize = 1024;

/// Entries of a spilled partial decoded in order and grouped by row:
/// group row `g` is `(row, start)` = `rows[g]`, its `(col, value)`
/// entries run from `start` to the next row's start (or the end) of
/// `entries`, and the last row may go on in the next group. Rows before
/// `at` have been consumed.
#[derive(Debug, Default)]
pub(crate) struct RowGroup {
    rows: Vec<(Index, usize)>,
    entries: Vec<(Index, f64)>,
    at: usize,
}

impl RowGroup {
    /// An empty group with room for `entries` entries.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        RowGroup {
            rows: Vec::with_capacity(entries),
            entries: Vec::with_capacity(entries),
            at: 0,
        }
    }

    /// The entries of group row `g`.
    fn row(&self, g: usize) -> &[(Index, f64)] {
        let end = self.rows.get(g + 1).map_or(self.entries.len(), |r| r.1);
        &self.entries[self.rows[g].1..end]
    }

    /// The first row not consumed, if any.
    pub(crate) fn head(&self) -> Option<Index> {
        self.rows.get(self.at).map(|r| r.0)
    }

    /// The head row's entries, and whether they are the whole row: the
    /// group's last row may go on in the next group.
    pub(crate) fn buffered(&self) -> (usize, bool) {
        (self.row(self.at).len(), self.at + 1 < self.rows.len())
    }

    /// Consumes every row below `limit`, handing its entries to `f` as
    /// `(row << 32) | col` keys and values.
    #[inline(always)]
    pub(crate) fn feed(&mut self, limit: u64, mut f: impl FnMut(u64, f64)) {
        while let Some(row) = self.head().filter(|&r| u64::from(r) < limit) {
            let hi = u64::from(row) << 32;
            for &(c, v) in self.row(self.at) {
                f(hi | u64::from(c), v);
            }
            self.at += 1;
        }
    }
}

/// Decodes one LEB128 value from `buf` at `*i`, advancing `i` — the one
/// varint decoder. With at least 8 bytes ahead, every 1–8-byte encoding
/// — all coordinates and almost all values the writer emits — decodes
/// from a single `u64` load with a branch-free continuation scan; longer
/// encodings and the last few bytes of the input take the checked
/// per-byte [`take_varint_slow`], kept out of line so the fast paths
/// inline into [`BodyDecoder::entry`].
#[inline(always)]
fn take_varint(buf: &[u8], i: &mut usize) -> Result<u64, StreamError> {
    let Some(word) = buf.get(*i..*i + 8) else {
        return take_varint_slow(buf, i);
    };
    let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
    // One byte — nearly every row delta and column token — needs no scan.
    if word & 0x80 == 0 {
        *i += 1;
        return Ok(word & 0x7f);
    }
    // A clear top bit marks the final byte of the varint; the lowest
    // clear top bit tells us how many bytes the encoding spans.
    let stops = !word & 0x8080_8080_8080_8080;
    if stops != 0 {
        let n = stops.trailing_zeros() as usize / 8 + 1;
        let word = if n == 8 {
            word
        } else {
            word & ((1u64 << (n * 8)) - 1)
        };
        let mut value = 0u64;
        for k in 0..n {
            value |= ((word >> (k * 8)) & 0x7f) << (k * 7);
        }
        *i += n;
        Ok(value)
    } else {
        take_varint_slow(buf, i)
    }
}

/// The checked per-byte path behind [`take_varint`]: rejects input that
/// ends mid-varint, encodings past 10 bytes and payload bits that would
/// overflow a `u64` (a corrupted file must surface as an error, never
/// decode to a silently truncated value).
#[cold]
#[inline(never)]
fn take_varint_slow(buf: &[u8], i: &mut usize) -> Result<u64, StreamError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*i) else {
            return Err(truncated("entry"));
        };
        *i += 1;
        let bits = u64::from(byte & 0x7f);
        let shifted = bits << shift;
        if shifted >> shift != bits {
            return Err(StreamError::Io("varint overflows u64".into()));
        }
        value |= shifted;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift >= 64 {
            return Err(StreamError::Io("varint longer than 10 bytes".into()));
        }
    }
}

/// LEB128 length of `v` in bytes (1..=10).
fn varint_len(v: u64) -> u64 {
    (64 - v.max(1).leading_zeros() as u64).div_ceil(7)
}

/// Writes `v` as LEB128, returning the bytes written.
#[cfg(test)]
fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<u64> {
    let mut written = 0u64;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.write_all(&[byte])?;
            return Ok(written + 1);
        }
        w.write_all(&[byte | 0x80])?;
        written += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use sparch_sparse::{gen, linalg};

    #[test]
    fn raw_round_trips_through_disk() {
        let dir = TempDir::new("spill_roundtrip");
        let m = gen::uniform_random(20, 30, 120, 5);
        let path = dir.file("roundtrip.bin");
        let file = write_partial(&path, &m, SpillCodec::Raw).unwrap();
        assert_eq!(file.bytes, 28 + 16 * m.nnz() as u64);
        assert_eq!(file.bytes, std::fs::metadata(&path).unwrap().len());
        let reader = SpillReader::open(&path).unwrap();
        assert_eq!(reader.shape(), (20, 30));
        assert_eq!(reader.read_all().unwrap(), m);
    }

    #[test]
    fn varint_round_trips_and_shrinks_small_int_values() {
        let dir = TempDir::new("spill_varint");
        let m = sparch_sparse::linalg::map_values(&gen::uniform_random(24, 24, 150, 7), |v| {
            (v * 4.0).round()
        });
        let path = dir.file("varint.bin");
        let file = write_partial(&path, &m, SpillCodec::Varint).unwrap();
        assert_eq!(file.bytes, std::fs::metadata(&path).unwrap().len());
        assert!(
            file.bytes * 2 <= raw_size(&m),
            "small-int partial should compress ≥2×: {} vs {}",
            file.bytes,
            raw_size(&m)
        );
        assert_eq!(SpillReader::open(&path).unwrap().read_all().unwrap(), m);
    }

    #[test]
    fn both_codecs_stream_in_sorted_order() {
        let dir = TempDir::new("spill_sorted");
        let m = gen::rmat_graph500(32, 4, 9);
        for codec in [SpillCodec::Raw, SpillCodec::Varint] {
            let path = dir.file(&format!("sorted_{codec}.bin"));
            write_partial(&path, &m, codec).unwrap();
            let reader = SpillReader::open(&path).unwrap();
            let triples = drain_rows(reader, GROUP_ENTRIES).unwrap();
            let want: Vec<_> = m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
            assert_eq!(triples, want, "{codec}");
            assert!(triples
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        }
    }

    #[test]
    fn explicit_zeros_and_negative_zero_survive_both_codecs() {
        let dir = TempDir::new("spill_zeros");
        let m = Csr::try_new(2, 2, vec![0, 1, 2], vec![1, 0], vec![0.0, -0.0]).unwrap();
        for codec in [SpillCodec::Raw, SpillCodec::Varint] {
            let path = dir.file(&format!("zeros_{codec}.bin"));
            write_partial(&path, &m, codec).unwrap();
            let back = SpillReader::open(&path).unwrap().read_all().unwrap();
            assert_eq!(back.nnz(), 2);
            assert_eq!(back.values()[0].to_bits(), 0.0f64.to_bits(), "{codec}");
            assert_eq!(back.values()[1].to_bits(), (-0.0f64).to_bits(), "{codec}");
        }
    }

    #[test]
    fn varint_never_exceeds_raw_and_empty_falls_back() {
        let dir = TempDir::new("spill_fallback");
        // An empty partial is header-only in both formats, so varint is
        // not strictly smaller and the writer must emit the raw magic.
        let empty = Csr::zero(4, 4);
        let path = dir.file("empty.bin");
        let file = write_partial(&path, &empty, SpillCodec::Varint).unwrap();
        assert_eq!(file.bytes, 28);
        assert_eq!(SpillReader::open(&path).unwrap().read_all().unwrap(), empty);

        // Incompressible values (full-mantissa floats) still never cost
        // more than raw, thanks to the per-file fallback.
        let m = gen::uniform_random(16, 16, 80, 3);
        let path = dir.file("fallback.bin");
        let file = write_partial(&path, &m, SpillCodec::Varint).unwrap();
        assert!(file.bytes <= raw_size(&m));
        assert_eq!(SpillReader::open(&path).unwrap().read_all().unwrap(), m);
    }

    /// Every entry point decodes the same stream, bit for bit: `read_all`,
    /// `next_rows` at group sizes below and above the file's entry count
    /// (size 1 decodes the whole file through the tail-of-window logic
    /// one entry at a time) and the wire's `decode_partial`.
    #[test]
    fn row_group_decode_matches_whole_file_and_wire_decode() {
        let dir = TempDir::new("spill_chunks");
        let int = sparch_sparse::linalg::map_values(&gen::uniform_random(40, 50, 600, 11), |v| {
            (v * 8.0).round()
        });
        let float = gen::uniform_random(40, 50, 600, 13);
        for (tag, m) in [("int", &int), ("float", &float)] {
            for codec in [SpillCodec::Raw, SpillCodec::Varint] {
                let path = dir.file(&format!("chunk_{tag}_{codec}.bin"));
                write_partial(&path, m, codec).unwrap();
                let bits = |t: Triple| (t.0, t.1, t.2.to_bits());
                let expected: Vec<_> = m.iter().map(bits).collect();
                for cap in [1usize, 7, GROUP_ENTRIES] {
                    let got = drain_rows(SpillReader::open(&path).unwrap(), cap).unwrap();
                    assert_eq!(got, expected, "{tag} {codec} next_rows {cap}");
                }
                let all = SpillReader::open(&path).unwrap().read_all().unwrap();
                assert_eq!(all.iter().map(bits).collect::<Vec<_>>(), expected);
                let wire = decode_partial(&std::fs::read(&path).unwrap()).unwrap();
                assert_eq!(wire.iter().map(bits).collect::<Vec<_>>(), expected);
            }
        }
    }

    /// The one varint decoder's single-load path (eight bytes ahead) and
    /// its checked per-byte path agree on every encoding length from 1
    /// to 10 bytes, and both reject overflow and over-long chains.
    #[test]
    fn varint_fast_and_checked_paths_agree() {
        let samples = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            1 << 21,
            u32::MAX as u64,
            1 << 35,
            (1 << 49) - 1,
            (1 << 56) - 1,
            1 << 56,
            (1 << 63) - 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut lengths = Vec::new();
        for v in samples {
            let mut enc = Vec::new();
            write_varint(&mut enc, v).unwrap();
            let len = enc.len();
            lengths.push(len);
            // Unpadded, so a short encoding has fewer than eight bytes
            // ahead; then padded, so up to 8-byte ones take the load.
            let (mut unpadded, mut slow, mut padded) = (0usize, 0usize, 0usize);
            assert_eq!(take_varint(&enc, &mut unpadded).unwrap(), v);
            assert_eq!(take_varint_slow(&enc, &mut slow).unwrap(), v);
            enc.extend_from_slice(&[0u8; 16]);
            assert_eq!(take_varint(&enc, &mut padded).unwrap(), v);
            assert_eq!((unpadded, slow, padded), (len, len, len), "{v}");
            // Cut short by one byte, both paths report truncation.
            for decode in [take_varint, take_varint_slow] {
                assert!(decode(&enc[..len - 1], &mut 0).is_err(), "{v}");
            }
        }
        lengths.dedup();
        assert_eq!(lengths, (1..=10).collect::<Vec<_>>());
        // A 10-byte encoding whose final byte carries payload bits past
        // u64's capacity, and an 11-byte continuation chain: rejected by
        // both paths, padded or not, never wrapped or truncated.
        let mut overflow = vec![0x80u8; 10];
        overflow[9] = 0x7e;
        for bad in [overflow, vec![0xffu8; 11]] {
            for input in [bad.clone(), [bad, vec![0u8; 16]].concat()] {
                assert!(take_varint(&input, &mut 0).is_err());
                assert!(take_varint_slow(&input, &mut 0).is_err());
            }
        }
    }

    #[test]
    fn varint_helpers_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            let written = write_varint(&mut buf, v).unwrap();
            assert_eq!(written, buf.len() as u64);
            assert_eq!(written, varint_len(v), "declared length for {v}");
            assert_eq!(take_varint(&buf, &mut 0).unwrap(), v);
        }
        // The writer's one-word encoding agrees with the per-byte one at
        // every length it is used for (1 to 8 bytes, below 2⁵⁶).
        for bits in [
            0, 6, 7, 13, 14, 20, 21, 27, 28, 34, 35, 41, 42, 48, 49, 55, 56,
        ] {
            for v in [
                (1u64 << bits) - 1,
                1 << bits,
                0x5555_5555_5555_5555 >> (63 - bits),
            ] {
                let v = v & ((1 << 56) - 1);
                let mut want = Vec::new();
                write_varint(&mut want, v).unwrap();
                let (word, len) = leb128_word(v);
                assert_eq!(word.to_le_bytes()[..len], want[..], "{v:#x}");
                assert!(
                    len == 8 || word >> (8 * len) == 0,
                    "{v:#x}: bytes past the length"
                );
            }
        }
    }

    #[test]
    fn bad_magic_is_an_io_error() {
        let dir = TempDir::new("spill_badmagic");
        let path = dir.file("badmagic.bin");
        std::fs::write(&path, [0u8; 64]).unwrap();
        assert!(matches!(SpillReader::open(&path), Err(StreamError::Io(_))));
    }

    #[test]
    fn truncated_files_are_io_errors() {
        let dir = TempDir::new("spill_truncated");
        let m = gen::uniform_random(8, 8, 20, 1);
        for codec in [SpillCodec::Raw, SpillCodec::Varint] {
            let path = dir.file(&format!("truncated_{codec}.bin"));
            write_partial(&path, &m, codec).unwrap();
            let full = std::fs::read(&path).unwrap();
            std::fs::write(&path, &full[..full.len() - 5]).unwrap();
            let reader = SpillReader::open(&path).unwrap();
            assert!(
                matches!(reader.read_all(), Err(StreamError::Io(_))),
                "{codec}"
            );
        }
    }

    /// A header whose shape was damaged on disk: the writer's recorded
    /// shape catches it before anything sizes from it — 2⁴⁰ declared rows
    /// would make `read_all` abort the process on the row-pointer
    /// allocation — with an error naming the file.
    #[test]
    fn a_damaged_header_shape_is_refused_against_the_written_shape() {
        let dir = TempDir::new("spill_shape");
        let m = gen::uniform_random(8, 9, 20, 1);
        for codec in [SpillCodec::Raw, SpillCodec::Varint] {
            let name = format!("shape_{codec}.bin");
            let path = dir.file(&name);
            let file = write_partial(&path, &m, codec).unwrap();
            assert_eq!(file.shape, (8, 9));
            SpillReader::open(&path)
                .unwrap()
                .expect_shape(8, 9)
                .unwrap();
            let honest = std::fs::read(&path).unwrap();
            for (field, lie) in [(4usize, 1u64 << 40), (4, 7), (12, 1 << 40), (12, 10)] {
                let mut bytes = honest.clone();
                bytes[field..field + 8].copy_from_slice(&lie.to_le_bytes());
                std::fs::write(&path, &bytes).unwrap();
                let reader = SpillReader::open(&path).unwrap();
                match reader.expect_shape(file.shape.0, file.shape.1) {
                    Err(StreamError::Io(msg)) => assert!(
                        msg.contains(&name) && msg.contains("declares shape"),
                        "{codec} {field} {lie}: {msg}"
                    ),
                    other => panic!("{codec} {field} {lie}: expected an Io error, got {other:?}"),
                }
            }
        }
    }

    /// A header whose entry count the body cannot hold: `read_all`
    /// would size its arrays from it, so it must refuse first — with the
    /// file's name, without the allocation (`u64::MAX / 2` entries would
    /// abort on capacity overflow, a few billion would take the host's
    /// memory) — while an honest count still reads back whole.
    #[test]
    fn a_lying_entry_count_fails_read_all_before_it_allocates() {
        let dir = TempDir::new("spill_fat_nnz");
        let m = gen::uniform_random(8, 8, 20, 1);
        for codec in [SpillCodec::Raw, SpillCodec::Varint] {
            let name = format!("fat_{codec}.bin");
            let path = dir.file(&name);
            write_partial(&path, &m, codec).unwrap();
            assert_eq!(SpillReader::open(&path).unwrap().read_all().unwrap(), m);
            let honest = std::fs::read(&path).unwrap();
            for lie in [u64::MAX / 2, 1 << 33, m.nnz() as u64 * 8] {
                let mut bytes = honest.clone();
                bytes[20..28].copy_from_slice(&lie.to_le_bytes());
                std::fs::write(&path, &bytes).unwrap();
                match SpillReader::open(&path).unwrap().read_all() {
                    Err(StreamError::Io(msg)) => assert!(
                        msg.contains(&name) && msg.contains("declares") && msg.contains("entries"),
                        "{codec} {lie}: {msg}"
                    ),
                    other => panic!("{codec} {lie}: expected an Io error, got {other:?}"),
                }
            }
        }
    }

    /// The in-memory encoder is byte-for-byte the on-disk writer, and
    /// the untrusting decoder inverts it bit-exactly — the contract the
    /// distributed wire format stands on.
    #[test]
    fn encode_partial_matches_disk_bytes_and_round_trips() {
        let dir = TempDir::new("spill_wire");
        let int = sparch_sparse::linalg::map_values(&gen::uniform_random(16, 20, 90, 3), |v| {
            (v * 4.0).round()
        });
        let float = gen::uniform_random(16, 20, 90, 5);
        let empty = Csr::zero(6, 9);
        for (tag, m) in [("int", &int), ("float", &float), ("empty", &empty)] {
            for codec in [SpillCodec::Raw, SpillCodec::Varint] {
                let wire = encode_partial(m, codec);
                let path = dir.file(&format!("wire_{tag}_{codec}.bin"));
                write_partial(&path, m, codec).unwrap();
                assert_eq!(wire, std::fs::read(&path).unwrap(), "{tag} {codec}");
                let back = decode_partial(&wire).unwrap();
                assert_eq!(&back, m, "{tag} {codec}");
                for ((_, _, a), (_, _, b)) in back.iter().zip(m.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{tag} {codec}");
                }
            }
        }
    }

    /// Every class of wire corruption maps to a typed error: truncation
    /// at any byte, bad magic, lying headers, out-of-order or
    /// out-of-bounds entries, trailing garbage. Never a panic, and the
    /// entry-count check runs before any count-sized allocation.
    #[test]
    fn decode_partial_rejects_corruption() {
        let m = sparch_sparse::linalg::map_values(&gen::uniform_random(10, 12, 40, 9), |v| {
            (v * 2.0).round()
        });
        for codec in [SpillCodec::Raw, SpillCodec::Varint] {
            let wire = encode_partial(&m, codec);
            for cut in 0..wire.len() {
                assert!(
                    matches!(decode_partial(&wire[..cut]), Err(StreamError::Io(_))),
                    "{codec} truncated at {cut} must error"
                );
            }
            let mut trailing = wire.clone();
            trailing.push(0);
            assert!(matches!(decode_partial(&trailing), Err(StreamError::Io(_))));
            let mut bad_magic = wire.clone();
            bad_magic[0] ^= 0xff;
            assert!(matches!(
                decode_partial(&bad_magic),
                Err(StreamError::Io(_))
            ));
            // Header lies: an absurd dimension and an entry count the
            // body cannot hold are both rejected up front.
            let mut huge_dim = wire.clone();
            huge_dim[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(matches!(decode_partial(&huge_dim), Err(StreamError::Io(_))));
            let mut fat_nnz = wire.clone();
            fat_nnz[20..28].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
            assert!(matches!(decode_partial(&fat_nnz), Err(StreamError::Io(_))));
        }
        // Hand-built raw payloads: out-of-bounds and out-of-order entries.
        let mut oob = header(MAGIC_RAW, 1);
        oob.extend_from_slice(&raw_entry(2, 7, 1.0));
        assert!(matches!(decode_partial(&oob), Err(StreamError::Io(_))));
        let mut unsorted = header(MAGIC_RAW, 2);
        unsorted.extend_from_slice(&raw_entry(1, 3, 1.0));
        unsorted.extend_from_slice(&raw_entry(1, 3, 2.0));
        assert!(matches!(decode_partial(&unsorted), Err(StreamError::Io(_))));
    }

    /// The header of a hand-built 4×4 partial.
    fn header(magic: u32, nnz: u64) -> Vec<u8> {
        let mut h = magic.to_le_bytes().to_vec();
        h.extend_from_slice(&4u64.to_le_bytes());
        h.extend_from_slice(&4u64.to_le_bytes());
        h.extend_from_slice(&nnz.to_le_bytes());
        h
    }

    fn raw_entry(r: u32, c: u32, v: f64) -> Vec<u8> {
        let mut e = r.to_le_bytes().to_vec();
        e.extend_from_slice(&c.to_le_bytes());
        e.extend_from_slice(&v.to_bits().to_le_bytes());
        e
    }

    /// A varint entry from its raw fields, the value stored as `1.0`.
    fn varint_entry(drow: u64, cval: u64) -> Vec<u8> {
        let mut e = Vec::new();
        write_varint(&mut e, drow).unwrap();
        write_varint(&mut e, cval << 1).unwrap();
        write_varint(&mut e, 1.0f64.to_bits().swap_bytes()).unwrap();
        e
    }

    /// Drains `reader` through `next_rows(cap)` as `(row, col, value
    /// bits)`, after checking that each group holds the entries it
    /// reports, at most `cap`, in distinct non-empty rows.
    fn drain_rows<R: Read>(
        mut reader: SpillReader<R>,
        cap: usize,
    ) -> Result<Vec<(Index, Index, u64)>, StreamError> {
        let (mut group, mut got) = (RowGroup::default(), Vec::new());
        loop {
            let n = reader.next_rows(cap, &mut group)?;
            if n == 0 {
                break;
            }
            assert!(n <= cap && n == group.entries.len());
            assert!(group.rows.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(group.rows[0].1, 0);
            for (g, &(row, _)) in group.rows.iter().enumerate() {
                assert!(!group.row(g).is_empty(), "group row {g} is empty");
                got.extend(group.row(g).iter().map(|&(c, v)| (row, c, v.to_bits())));
            }
        }
        assert_eq!(reader.remaining(), 0);
        Ok(got)
    }

    /// Writes `bytes` as a spill file and drives every read path over it
    /// — row-group decode at several group sizes, `read_all` — and hands
    /// the same bytes to the wire's `decode_partial`: each must fail with
    /// an `Io` error naming `needle` (and, from a file, the file), never
    /// finish, panic or hang.
    fn assert_every_read_path_fails(dir: &TempDir, name: &str, bytes: &[u8], needle: &str) {
        let path = dir.file(name);
        std::fs::write(&path, bytes).unwrap();
        let check = |what: &str, result: Result<(), StreamError>| match result {
            Err(StreamError::Io(msg)) => assert!(
                (msg.contains(name) || what == "decode_partial") && msg.contains(needle),
                "{name} {what}: {msg}"
            ),
            other => panic!("{name} {what}: expected an Io error, got {other:?}"),
        };
        check("decode_partial", decode_partial(bytes).map(|_| ()));
        for cap in [1usize, 7, GROUP_ENTRIES, usize::MAX] {
            let reader = SpillReader::open(&path).unwrap();
            check("next_rows", drain_rows(reader, cap).map(|_| ()));
        }
        check(
            "read_all",
            SpillReader::open(&path).unwrap().read_all().map(|_| ()),
        );
    }

    /// A 64×64 varint partial whose every entry is exactly 5 bytes —
    /// all-ones values (3 bytes) and < 64 columns (1-byte token), one
    /// drow byte — so entry `k` starts at byte `28 + 5k`. Returns the
    /// encoded bytes and each entry's row.
    fn five_byte_entries() -> (Vec<u8>, Vec<Index>) {
        let m = sparch_sparse::linalg::map_values(&gen::uniform_random(64, 64, 2000, 21), |_| 1.0);
        let bytes = encode_partial(&m, SpillCodec::Varint);
        assert_eq!(bytes[..4], MAGIC_VARINT.to_le_bytes());
        assert_eq!(bytes.len(), 28 + 5 * m.nnz());
        (bytes, m.iter().map(|(r, _, _)| r).collect())
    }

    /// One flipped row-delta byte in a varint body: that entry and every
    /// later one land past the declared shape.
    #[test]
    fn a_flipped_row_delta_fails_every_read_path() {
        let dir = TempDir::new("spill_flipped");
        let (mut bytes, rows) = five_byte_entries();
        for entry in [0, 114, rows.len() - 1] {
            let at = 28 + 5 * entry;
            let clean = std::mem::replace(&mut bytes[at], 0x7f); // row += 127
            assert_every_read_path_fails(&dir, "flipped.bin", &bytes, "outside declared shape");
            bytes[at] = clean;
        }
    }

    /// A same-row entry whose column delta is zeroed repeats its
    /// predecessor's coordinate.
    #[test]
    fn a_zeroed_column_delta_fails_every_read_path() {
        let dir = TempDir::new("spill_repeat");
        let (mut bytes, rows) = five_byte_entries();
        let repeat = (1..rows.len()).find(|&k| rows[k] == rows[k - 1]).unwrap();
        bytes[28 + 5 * repeat + 1] = 0;
        assert_every_read_path_fails(&dir, "repeat.bin", &bytes, "strictly increasing");
    }

    /// A hand-built raw 4×4 partial holding `entries`, all valued `1.0`.
    fn raw_partial(entries: &[(u32, u32)]) -> Vec<u8> {
        let mut bytes = header(MAGIC_RAW, entries.len() as u64);
        for &(r, c) in entries {
            bytes.extend_from_slice(&raw_entry(r, c, 1.0));
        }
        bytes
    }

    #[test]
    fn raw_entries_outside_the_shape_fail_every_read_path() {
        let dir = TempDir::new("spill_raw_shape");
        for (name, entries) in [
            ("row.bin", [(0, 1), (4, 0)]),
            ("col.bin", [(0, 1), (1, 4)]),
            ("huge.bin", [(0, 1), (u32::MAX, 0)]),
        ] {
            let bytes = raw_partial(&entries);
            assert_every_read_path_fails(&dir, name, &bytes, "outside declared shape");
        }
    }

    #[test]
    fn raw_entries_out_of_order_fail_every_read_path() {
        let dir = TempDir::new("spill_raw_order");
        for (name, entries) in [
            ("col_back.bin", [(1, 2), (1, 1), (2, 0)]),
            ("repeat.bin", [(1, 2), (2, 3), (2, 3)]),
            ("row_back.bin", [(0, 0), (3, 0), (2, 1)]),
        ] {
            let bytes = raw_partial(&entries);
            assert_every_read_path_fails(&dir, name, &bytes, "strictly increasing");
        }
    }

    /// Delta sums that leave the `u32` index space are errors on the
    /// slice decoder (file padded past its look-ahead) and on the
    /// per-field tail decoder (unpadded) alike — never a wrapped
    /// coordinate.
    #[test]
    fn coordinate_overflow_fails_every_read_path() {
        let dir = TempDir::new("spill_overflow");
        for (name, drow, cval) in [
            ("row_sum.bin", u64::from(u32::MAX), 0),
            ("row_wide.bin", 1 << 32, 0),
            ("row_u64.bin", u64::MAX, 0),
            ("col_sum.bin", 0, u64::from(u32::MAX)),
            ("col_wide.bin", 0, 1 << 40),
        ] {
            let mut bytes = header(MAGIC_VARINT, 2);
            bytes.extend_from_slice(&varint_entry(1, 2));
            bytes.extend_from_slice(&varint_entry(drow, cval));
            assert_every_read_path_fails(&dir, name, &bytes, "overflows the u32 index space");
            bytes.extend_from_slice(&[0u8; 2 * MAX_VARINT_ENTRY_BYTES]);
            assert_every_read_path_fails(&dir, name, &bytes, "overflows the u32 index space");
        }
    }

    /// Spill I/O failures carry the path of the file that failed — the
    /// injected-ENOSPC-style guarantee: writing under a non-directory
    /// fails like a full volume does, and the error names the path.
    #[test]
    fn spill_errors_carry_path_context() {
        let dir = TempDir::new("spill_patherr");
        let blocker = dir.file("not_a_dir");
        std::fs::write(&blocker, b"plain file").unwrap();
        let target = blocker.join("partial.bin");
        let m = gen::uniform_random(4, 4, 6, 2);
        match write_partial(&target, &m, SpillCodec::Raw) {
            Err(StreamError::Io(msg)) => assert!(
                msg.contains("not_a_dir") && msg.contains("write"),
                "write error must name the path: {msg}"
            ),
            other => panic!("expected Io error, got {other:?}"),
        }

        // Reader-side: truncate a valid file and check every read path
        // names it.
        let path = dir.file("truncated.bin");
        write_partial(&path, &m, SpillCodec::Raw).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        for cap in [1usize, 7, GROUP_ENTRIES, usize::MAX] {
            let mut reader = SpillReader::open(&path).unwrap();
            let mut group = RowGroup::default();
            let err = loop {
                match reader.next_rows(cap, &mut group) {
                    Ok(0) => panic!("truncated file read to completion at cap {cap}"),
                    Ok(_) => continue,
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(&err, StreamError::Io(msg) if msg.contains("truncated.bin")),
                "read error at cap {cap} must name the path: {err:?}"
            );
        }
        let err = SpillReader::open(&path).unwrap().read_all().unwrap_err();
        assert!(
            matches!(&err, StreamError::Io(msg) if msg.contains("truncated.bin")),
            "read_all error must name the path: {err:?}"
        );
        // Opening a missing file names it too.
        let missing = dir.file("missing.bin");
        assert!(
            matches!(SpillReader::open(&missing), Err(StreamError::Io(msg)) if msg.contains("missing.bin")),
        );
    }

    /// A refill source over `bytes` that hands out at most `step` bytes
    /// a read, fails its `interrupt`-th read with `Interrupted`, and
    /// fails every read from byte `fail_at` on with a device error.
    #[derive(Debug)]
    struct FaultySource {
        bytes: Vec<u8>,
        at: usize,
        step: usize,
        reads: usize,
        interrupt: Option<usize>,
        fail_at: Option<usize>,
    }

    impl FaultySource {
        fn new(bytes: &[u8], step: usize) -> Self {
            FaultySource {
                bytes: bytes.to_vec(),
                at: 0,
                step,
                reads: 0,
                interrupt: None,
                fail_at: None,
            }
        }

        fn reader(self) -> SpillReader<FaultySource> {
            let len = self.bytes.len() as u64;
            SpillReader::from_source(self, len, Path::new("faulty.bin")).unwrap()
        }
    }

    impl Read for FaultySource {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            if self.interrupt == Some(self.reads) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            if self.fail_at.is_some_and(|f| self.at >= f) {
                return Err(io::Error::other("injected device error"));
            }
            let end = self.fail_at.unwrap_or(self.bytes.len());
            let n = self.step.min(out.len()).min(end - self.at);
            out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// Both codecs over small-integer and full-mantissa values, each
    /// encoding larger than the 64 KiB read buffer so windows refill and
    /// compact mid-entry.
    fn large_encodings() -> Vec<(String, Csr, Vec<u8>)> {
        let float = gen::uniform_random(400, 400, 20_000, 31);
        let int = sparch_sparse::linalg::map_values(&float, |v| (v * 4.0).round());
        let mut out = Vec::new();
        for (tag, m) in [("int", int), ("float", float)] {
            for codec in [SpillCodec::Raw, SpillCodec::Varint] {
                let bytes = encode_partial(&m, codec);
                assert!(bytes.len() > READ_BUF_BYTES, "{tag} {codec}");
                out.push((format!("{tag} {codec}"), m.clone(), bytes));
            }
        }
        out
    }

    /// Reads that return 1–3 bytes, and a read interrupted at the header
    /// or mid-body, decode to exactly the encoded matrix — value bits
    /// included — through `read_all` and `next_rows`.
    #[test]
    fn short_and_interrupted_reads_decode_bit_identically() {
        for (tag, m, bytes) in large_encodings() {
            let expected: Vec<_> = m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
            for (step, interrupt) in [
                (1, None),
                (2, None),
                (3, None),
                (4096, Some(1)),
                (4096, Some(5)),
            ] {
                let case = format!("{tag} step {step} interrupt {interrupt:?}");
                let src = || FaultySource {
                    interrupt,
                    ..FaultySource::new(&bytes, step)
                };
                let all = src().reader().read_all().unwrap();
                let all: Vec<_> = all.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
                assert_eq!(all, expected, "{case} read_all");
                assert_eq!(drain_rows(src().reader(), 7).unwrap(), expected, "{case}");
            }
        }
    }

    /// A device error mid-body fails every reader path with an `Io` error
    /// naming the file and the cause: no panic, no partial matrix.
    #[test]
    fn a_read_error_mid_body_is_a_path_carrying_io_error() {
        for (tag, _, bytes) in large_encodings() {
            // Past the first buffer fill, so the header reads cleanly.
            let faulty = || FaultySource {
                fail_at: Some((READ_BUF_BYTES + bytes.len()) / 2),
                ..FaultySource::new(&bytes, 1000)
            };
            let results = [
                ("read_all", faulty().reader().read_all().map(|_| ())),
                ("next_rows", drain_rows(faulty().reader(), 7).map(|_| ())),
            ];
            for (what, result) in results {
                match result {
                    Err(StreamError::Io(msg)) => assert!(
                        msg.contains("faulty.bin") && msg.contains("injected device error"),
                        "{tag} {what}: {msg}"
                    ),
                    other => panic!("{tag} {what}: expected an Io error, got {other:?}"),
                }
            }
        }
    }

    /// The per-entry encoder the one-pass writer replaced: the exact
    /// varint size first, then `DeltaState::encode` and `write_varint`
    /// field by field, raw when varint is not strictly smaller — the
    /// byte-identity oracle for disk and wire.
    fn reference_encoding(csr: &Csr, codec: SpillCodec) -> Vec<u8> {
        let mut varint = Vec::new();
        let mut enc = DeltaState::new();
        for (r, c, v) in csr.iter() {
            let (drow, token, value) = enc.encode(r, c, v);
            write_varint(&mut varint, drow).unwrap();
            write_varint(&mut varint, token).unwrap();
            match value {
                ValueEnc::Varint(bits) => {
                    write_varint(&mut varint, bits).unwrap();
                }
                ValueEnc::Raw(bits) => varint.extend_from_slice(&bits.to_le_bytes()),
            }
        }
        let use_varint =
            codec == SpillCodec::Varint && HEADER_BYTES + (varint.len() as u64) < raw_size(csr);
        let magic = if use_varint { MAGIC_VARINT } else { MAGIC_RAW };
        let mut out = magic.to_le_bytes().to_vec();
        for word in [csr.rows(), csr.cols(), csr.nnz()] {
            out.extend_from_slice(&(word as u64).to_le_bytes());
        }
        if use_varint {
            out.extend_from_slice(&varint);
        } else {
            for (r, c, v) in csr.iter() {
                out.extend_from_slice(&raw_entry(r, c, v));
            }
        }
        out
    }

    /// Four full-mantissa entries 2¹⁴ rows apart at columns ≥ 2²⁷: each
    /// varint entry is 3 (drow) + 5 (token) + 8 (value) bytes, the raw
    /// size, so a varint request falls back to raw.
    fn fallback_partial() -> Csr {
        let entries = (1..=4).map(|k| (k << 14, (1 << 27) + 3 * k, 0.1 * f64::from(k)));
        let m = partial(5 << 14, 1 << 28, entries);
        assert_eq!(
            reference_encoding(&m, SpillCodec::Varint)[..4],
            MAGIC_RAW.to_le_bytes()
        );
        m
    }

    /// A sorted `rows × cols` partial holding `entries`.
    fn partial(rows: usize, cols: usize, entries: impl IntoIterator<Item = Triple>) -> Csr {
        let mut coo = sparch_sparse::Coo::new(rows, cols);
        for (r, c, v) in entries {
            coo.push(r, c, v);
        }
        coo.to_csr()
    }

    /// A partial of 5-byte varint entries (all-ones values, < 64
    /// columns) whose encoding runs over several chunks, with entry
    /// 13 101 — bytes 65 533..65 538 — straddling the first chunk's end.
    fn straddling_partial() -> Csr {
        let m = linalg::map_values(&gen::uniform_random(1000, 64, 40_000, 23), |_| 1.0);
        let bytes = reference_encoding(&m, SpillCodec::Varint);
        assert_eq!(bytes.len(), 28 + 5 * m.nnz());
        assert!(bytes.len() > 2 * CHUNK_BYTES);
        let at = 28 + 5 * 13_101;
        assert!(at < CHUNK_BYTES && at + 5 > CHUNK_BYTES);
        m
    }

    /// The one-pass writer is byte for byte the per-entry encoder it
    /// replaced — on disk and on the wire, under both codecs — over the
    /// generators with full-mantissa and small-integer values, an empty
    /// partial, one that falls back to raw, and one whose encoding runs
    /// over several chunks with an entry straddling a chunk's end.
    #[test]
    fn the_writer_matches_the_per_entry_reference_byte_for_byte() {
        let dir = TempDir::new("spill_identity");
        let grid = [
            ("uniform", gen::uniform_random(300, 200, 3000, 1)),
            ("rmat", gen::rmat_graph500(256, 8, 2)),
            ("banded", gen::banded(300, 4, 100, 3)),
            ("diagonal", gen::diagonal_noise(300, 200, 4)),
            ("poisson", gen::poisson3d(6, 6, 6)),
            ("powerlaw", gen::powerlaw_rows(300, 2000, 1.5, 5)),
            ("block", gen::block_sparse(256, 256, 16, 0.1, 6)),
            ("wide", gen::uniform_random(2500, 70_000, 9000, 7)),
        ];
        let mut cases = Vec::new();
        for (tag, m) in grid {
            let int = linalg::map_values(&m, |v| (v * 4.0).round());
            cases.push((format!("{tag} int"), int));
            cases.push((format!("{tag} float"), m));
        }
        cases.push(("empty".into(), Csr::zero(6, 9)));
        cases.push(("empty, no rows".into(), Csr::zero(0, 0)));
        cases.push(("fallback".into(), fallback_partial()));
        cases.push(("straddling".into(), straddling_partial()));
        let mut writer = SpillWriter::default();
        for (tag, m) in &cases {
            for codec in [SpillCodec::Raw, SpillCodec::Varint] {
                let want = reference_encoding(m, codec);
                assert!(
                    encode_partial(m, codec) == want,
                    "{tag} {codec}: wire bytes"
                );
                let mut framed = vec![7u8; 3];
                let appended = encode_partial_into(&mut framed, m, codec);
                assert_eq!(appended, want.len() as u64, "{tag} {codec}");
                assert!(framed[3..] == want[..], "{tag} {codec}: appended bytes");
                let path = dir.file("identity.bin");
                for file in [
                    write_partial(&path, m, codec).unwrap(),
                    writer.write(&path, m, codec).unwrap(),
                ] {
                    assert_eq!(file.bytes, want.len() as u64, "{tag} {codec}");
                    assert!(
                        std::fs::read(&path).unwrap() == want,
                        "{tag} {codec}: disk bytes"
                    );
                }
            }
            assert_eq!(varint_size(m), reference_varint_size(m), "{tag}");
        }
    }

    /// The varint size the per-entry encoder computed field by field.
    fn reference_varint_size(csr: &Csr) -> u64 {
        let mut enc = DeltaState::new();
        let fields = csr.iter().map(|(r, c, v)| match enc.encode(r, c, v) {
            (drow, token, ValueEnc::Varint(bits)) => {
                varint_len(drow) + varint_len(token) + varint_len(bits)
            }
            (drow, token, ValueEnc::Raw(_)) => varint_len(drow) + varint_len(token) + 8,
        });
        HEADER_BYTES + fields.sum::<u64>()
    }

    /// A varint encoding that reaches its limit stops there: nothing
    /// from the limit on reaches the sink, and no index is returned.
    #[test]
    fn an_encoding_at_its_limit_is_abandoned_before_the_limit_is_handed_on() {
        let m = straddling_partial();
        let mut chunk = vec![0u8; chunk_len(&m)];
        for limit in [28, 1000, CHUNK_BYTES as u64, 3 * CHUNK_BYTES as u64 / 2] {
            let mut handed = 0u64;
            let sink = |b: &[u8]| {
                handed += b.len() as u64;
                Ok(())
            };
            assert!(encode(&m, true, limit, &mut chunk, sink).unwrap().is_none());
            assert!(handed < limit, "{limit}: {handed} bytes handed on");
        }
    }

    /// A write sink over `inner` that takes at most `step` bytes a write,
    /// fails its `interrupt`-th write with `Interrupted`, and from byte
    /// `fail_at` on fails every write with a device error — or, with
    /// `zero`, accepts nothing, which `write_all` reports as `WriteZero`.
    #[derive(Debug)]
    struct FaultySink<W> {
        inner: W,
        at: usize,
        step: usize,
        writes: usize,
        interrupt: Option<usize>,
        fail_at: Option<usize>,
        zero: bool,
    }

    impl<W> FaultySink<W> {
        fn new(inner: W, step: usize) -> Self {
            FaultySink {
                inner,
                at: 0,
                step,
                writes: 0,
                interrupt: None,
                fail_at: None,
                zero: false,
            }
        }
    }

    impl<W: Write> Write for FaultySink<W> {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            if self.interrupt == Some(self.writes) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            match self.fail_at {
                Some(f) if self.at >= f && self.zero => return Ok(0),
                Some(f) if self.at >= f => return Err(io::Error::other("injected device error")),
                _ => {}
            }
            let end = self.fail_at.unwrap_or(usize::MAX);
            let n = self.step.min(bytes.len()).min(end - self.at);
            let n = self.inner.write(&bytes[..n])?;
            self.at += n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    /// Writes of 7 bytes at a time, and a write interrupted once at the
    /// header or mid-body, are retried into exactly the reference bytes,
    /// varint and raw (the fallback rewrite included).
    #[test]
    fn short_and_interrupted_writes_produce_the_reference_bytes() {
        let dir = TempDir::new("spill_short_writes");
        let path = dir.file("short.bin");
        let float = gen::uniform_random(400, 400, 20_000, 31);
        let int = linalg::map_values(&float, |v| (v * 4.0).round());
        for (tag, m) in [
            ("int", int),
            ("float", float),
            ("fallback", fallback_partial()),
        ] {
            for codec in [SpillCodec::Raw, SpillCodec::Varint] {
                let want = reference_encoding(&m, codec);
                for (step, interrupt) in [(7, None), (4096, Some(1)), (4096, Some(3))] {
                    let case = format!("{tag} {codec} step {step} interrupt {interrupt:?}");
                    let create = || {
                        let sink = FaultySink::new(File::create(&path)?, step);
                        Ok(FaultySink { interrupt, ..sink })
                    };
                    let mut writer = SpillWriter::default();
                    let file = writer.write_with(&path, &m, codec, create).unwrap();
                    assert_eq!(file.bytes, want.len() as u64, "{case}");
                    assert!(std::fs::read(&path).unwrap() == want, "{case}");
                }
            }
        }
    }

    /// A device error or a zero-length write mid-body fails the write
    /// with an `Io` error naming the file and the cause — no spill file
    /// is returned — and leaves nothing behind in the directory.
    #[test]
    fn a_write_error_mid_body_is_a_path_carrying_io_error_and_leaves_no_file() {
        let dir = TempDir::new("spill_write_faults");
        let path = dir.file("faulty.bin");
        let m = gen::uniform_random(400, 400, 20_000, 31);
        for codec in [SpillCodec::Raw, SpillCodec::Varint] {
            let half = reference_encoding(&m, codec).len() / 2;
            assert!(
                half > CHUNK_BYTES,
                "{codec}: the fault must strike past a chunk"
            );
            for (zero, cause) in [
                (false, "injected device error"),
                (true, "write whole buffer"),
            ] {
                let create = || {
                    let sink = FaultySink::new(File::create(&path)?, 4096);
                    Ok(FaultySink {
                        fail_at: Some(half),
                        zero,
                        ..sink
                    })
                };
                let written = SpillWriter::default().write_with(&path, &m, codec, create);
                match written {
                    Err(StreamError::Io(msg)) => assert!(
                        msg.contains("faulty.bin") && msg.contains(cause),
                        "{codec} zero {zero}: {msg}"
                    ),
                    other => panic!("{codec} zero {zero}: expected an Io error, got {other:?}"),
                }
                let left: Vec<_> = std::fs::read_dir(dir.path()).unwrap().collect();
                assert!(left.is_empty(), "{codec} zero {zero}: {left:?} left behind");
            }
        }
    }

    /// Drains a band reader of `file` from mark `lo` to mark `hi` as
    /// `(row, col, value bits)`, after checking its entry count.
    fn drain_band(
        file: &SpillFile,
        lo: usize,
        hi: usize,
    ) -> Result<Vec<(Index, Index, u64)>, StreamError> {
        let reader = SpillReader::open_band(file, lo..hi)?;
        let index = &file.index;
        let entries = index.entries_before(hi) - index.entries_before(lo);
        assert_eq!(reader.remaining(), entries as u64);
        drain_rows(reader, 7)
    }

    /// For both codecs and the raw fallback, a band reader between any
    /// two marks yields exactly the entries of the rows between them,
    /// value bits included: every pair of marks on partials with a mark
    /// per row, and every pair among a spread of marks plus every
    /// neighbouring pair on partials with several rows per mark.
    #[test]
    fn a_band_reader_between_marks_yields_exactly_those_rows() {
        let dir = TempDir::new("spill_bands");
        let small = gen::uniform_random(40, 50, 600, 11);
        let tall = gen::uniform_random(2500, 3000, 30_000, 12);
        let int = |m: &Csr| linalg::map_values(m, |v| (v * 8.0).round());
        let cases = [
            ("small float", small.clone(), SpillCodec::Varint),
            ("small int", int(&small), SpillCodec::Varint),
            ("small raw", small, SpillCodec::Raw),
            ("tall float", tall.clone(), SpillCodec::Varint),
            ("tall int", int(&tall), SpillCodec::Varint),
            ("tall raw", tall, SpillCodec::Raw),
            ("fallback", fallback_partial(), SpillCodec::Varint),
        ];
        for (tag, m, codec) in cases {
            let path = dir.file(&format!("{tag}.bin"));
            let file = write_partial(&path, &m, codec).unwrap();
            let index = &file.index;
            assert_eq!(index.stride, mark_stride(m.rows()), "{tag}");
            assert_eq!(index.spans(), m.rows().div_ceil(index.stride), "{tag}");
            assert_eq!(index.entries(), m.nnz(), "{tag}");
            let spans = index.spans();
            let pairs: Vec<(usize, usize)> = if index.stride == 1 {
                (0..=spans)
                    .flat_map(|lo| (lo..=spans).map(move |hi| (lo, hi)))
                    .collect()
            } else {
                let spread: Vec<usize> = (0..=12).map(|k| k * spans / 12).collect();
                let all = spread
                    .iter()
                    .flat_map(|&lo| spread.iter().map(move |&hi| (lo, hi)));
                let neighbours = (0..spans).map(|k| (k, k + 1));
                all.filter(|(lo, hi)| lo <= hi).chain(neighbours).collect()
            };
            for (lo, hi) in pairs {
                let rows = index.row(lo)..index.row(hi);
                let want: Vec<_> = m
                    .iter()
                    .filter(|(r, _, _)| rows.contains(&(*r as usize)))
                    .map(|(r, c, v)| (r, c, v.to_bits()))
                    .collect();
                let got = drain_band(&file, lo, hi).unwrap();
                assert_eq!(got, want, "{tag}: marks {lo}..{hi}");
            }
        }
    }

    /// A row delta damaged inside a band takes the entry past the band's
    /// rows: the band reader fails with the file's path, while a band
    /// that starts after the damage still reads clean.
    #[test]
    fn a_damaged_row_delta_inside_a_band_fails_with_the_path() {
        let dir = TempDir::new("spill_band_damage");
        let (mut bytes, rows) = five_byte_entries();
        let path = dir.file("band.bin");
        let m = linalg::map_values(&gen::uniform_random(64, 64, 2000, 21), |_| 1.0);
        let file = write_partial(&path, &m, SpillCodec::Varint).unwrap();
        assert!(std::fs::read(&path).unwrap() == bytes);
        // An entry that is not its row's first: its row delta is 0.
        let k = (rows.len() / 2..rows.len())
            .find(|&k| rows[k] == rows[k - 1])
            .unwrap();
        let row = rows[k] as usize;
        bytes[28 + 5 * k] = 1;
        std::fs::write(&path, &bytes).unwrap();
        match drain_band(&file, row, row + 1) {
            Err(StreamError::Io(msg)) => assert!(
                msg.contains("band.bin") && msg.contains("outside band rows"),
                "{msg}"
            ),
            other => panic!("expected an Io error, got {other:?}"),
        }
        let after = row + 1..64;
        let want: Vec<_> = m
            .iter()
            .filter(|(r, _, _)| after.contains(&(*r as usize)))
            .map(|(r, c, v)| (r, c, v.to_bits()))
            .collect();
        assert_eq!(drain_band(&file, row + 1, 64).unwrap(), want);
    }
}

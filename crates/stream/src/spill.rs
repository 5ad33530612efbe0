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
//! `drow + token + 8`. As a final guarantee the writer computes the
//! exact varint size first and falls back to `SPM1` whenever varint
//! would not be strictly smaller — a *requested* varint spill is never
//! larger than raw, on any input. The reader dispatches on the magic,
//! so the choice is invisible to the merge heap: both formats stream
//! back through the same bounded buffer.
//!
//! The same encoding doubles as the **wire format** of the distributed
//! layer: [`encode_partial`] produces the header + body as bytes for a
//! socket frame, and [`decode_partial`] is its *untrusting* inverse —
//! it validates the header, coordinate order and bounds and the exact
//! payload length, so a truncated or corrupted frame surfaces as a
//! typed [`StreamError::Io`], never a panic.

use crate::{SpillCodec, StreamError};
use sparch_sparse::{Csr, CsrBuilder, Index, Triple};
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};

const MAGIC_RAW: u32 = 0x5350_4d31;
const MAGIC_VARINT: u32 = 0x5350_4d32;
const HEADER_BYTES: u64 = 28;
const RAW_ENTRY_BYTES: u64 = 16;

/// Read-buffer capacity for streaming a spilled partial back in. Small
/// by design: this bounds the resident bytes a spilled merge child costs.
const READ_BUF_BYTES: usize = 64 * 1024;

/// Worst-case encoded size of one varint entry: three 10-byte LEB128
/// fields (drow, token, value) — the batch decoder's look-ahead bound.
const MAX_VARINT_ENTRY_BYTES: usize = 30;

/// Largest row/column count [`decode_partial`] accepts. The row-pointer
/// array scales with the declared row count *before* any entry is read,
/// so a corrupt wire header must not be able to provoke an unbounded
/// allocation; 16M rows (a 128 MiB row-pointer worst case) sits far
/// above any shape this system ships while keeping the damage a hostile
/// frame can do survivable.
const MAX_WIRE_DIM: u64 = 1 << 24;

/// A partial matrix sitting on disk.
#[derive(Debug)]
pub struct SpillFile {
    /// Where the partial lives.
    pub path: PathBuf,
    /// File size in bytes (header + entries), for traffic accounting.
    pub bytes: u64,
    /// Shape `(rows, cols)` of the partial written: the header a reader
    /// reopens must still declare it (see [`SpillReader::expect_shape`]).
    pub shape: (usize, usize),
}

/// The exact on-disk size `csr` would occupy in the raw format.
pub fn raw_size(csr: &Csr) -> u64 {
    HEADER_BYTES + csr.nnz() as u64 * RAW_ENTRY_BYTES
}

/// The exact on-disk size `csr` would occupy in the delta+varint format
/// (before the writer's raw fallback is applied).
pub fn varint_size(csr: &Csr) -> u64 {
    let mut body = 0u64;
    let mut enc = DeltaState::new();
    for (r, c, v) in csr.iter() {
        let (drow, token, value) = enc.encode(r, c, v);
        body += varint_len(drow) + varint_len(token);
        body += match value {
            ValueEnc::Varint(bits) => varint_len(bits),
            ValueEnc::Raw(_) => 8,
        };
    }
    HEADER_BYTES + body
}

/// Writes `csr` to `path` under the requested codec.
///
/// [`SpillCodec::Varint`] is a *request*: the writer computes the exact
/// delta+varint size first and silently falls back to the raw format
/// whenever varint would not be strictly smaller, so the returned
/// [`SpillFile::bytes`] never exceeds [`raw_size`]. The magic records
/// the format actually chosen.
pub fn write_partial(path: &Path, csr: &Csr, codec: SpillCodec) -> Result<SpillFile, StreamError> {
    let write = || -> io::Result<u64> {
        let mut w = BufWriter::new(File::create(path)?);
        let (use_varint, _) = resolve_codec(csr, codec);
        let bytes = encode_into(&mut w, csr, use_varint)?;
        w.flush()?;
        Ok(bytes)
    };
    let bytes = write().map_err(|e| spill_io(path, "write", &e))?;
    Ok(SpillFile {
        path: path.to_path_buf(),
        bytes,
        shape: (csr.rows(), csr.cols()),
    })
}

/// An I/O failure on a spill file, with the path it happened on — the
/// context an operator needs when a temp volume fills up mid-run.
fn spill_io(path: &Path, verb: &str, detail: &dyn std::fmt::Display) -> StreamError {
    StreamError::Io(format!(
        "failed to {verb} spill file {}: {detail}",
        path.display()
    ))
}

/// What a codec request resolves to for `csr`: whether the body is
/// delta+varint (the raw fallback applied) and the exact encoded size.
fn resolve_codec(csr: &Csr, codec: SpillCodec) -> (bool, u64) {
    let raw = raw_size(csr);
    match codec {
        SpillCodec::Raw => (false, raw),
        SpillCodec::Varint => {
            let varint = varint_size(csr);
            (varint < raw, varint.min(raw))
        }
    }
}

/// The shared encoder behind [`write_partial`] and [`encode_partial`]:
/// header plus body in the format [`resolve_codec`] chose, returning the
/// bytes written.
fn encode_into<W: Write>(w: &mut W, csr: &Csr, use_varint: bool) -> io::Result<u64> {
    let magic = if use_varint { MAGIC_VARINT } else { MAGIC_RAW };
    w.write_all(&magic.to_le_bytes())?;
    w.write_all(&(csr.rows() as u64).to_le_bytes())?;
    w.write_all(&(csr.cols() as u64).to_le_bytes())?;
    w.write_all(&(csr.nnz() as u64).to_le_bytes())?;
    let mut bytes = HEADER_BYTES;
    if use_varint {
        let mut enc = DeltaState::new();
        for (r, c, v) in csr.iter() {
            let (drow, token, value) = enc.encode(r, c, v);
            bytes += write_varint(w, drow)?;
            bytes += write_varint(w, token)?;
            match value {
                ValueEnc::Varint(vbits) => bytes += write_varint(w, vbits)?,
                ValueEnc::Raw(vbits) => {
                    w.write_all(&vbits.to_le_bytes())?;
                    bytes += 8;
                }
            }
        }
    } else {
        for (r, c, v) in csr.iter() {
            w.write_all(&r.to_le_bytes())?;
            w.write_all(&c.to_le_bytes())?;
            w.write_all(&v.to_bits().to_le_bytes())?;
        }
        bytes += csr.nnz() as u64 * RAW_ENTRY_BYTES;
    }
    Ok(bytes)
}

/// Encodes `csr` into the spill format in memory — the payload the
/// distributed layer ships over a socket. Identical bytes to what
/// [`write_partial`] puts on disk, including the raw fallback.
pub fn encode_partial(csr: &Csr, codec: SpillCodec) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_partial_into(&mut buf, csr, codec);
    buf
}

/// [`encode_partial`] appended to `buf` — a frame under assembly — with
/// no intermediate copy; returns the bytes appended.
pub fn encode_partial_into(buf: &mut Vec<u8>, csr: &Csr, codec: SpillCodec) -> u64 {
    let (use_varint, size) = resolve_codec(csr, codec);
    buf.reserve(size as usize);
    encode_into(buf, csr, use_varint).expect("writing to a Vec cannot fail")
}

/// Decodes a partial from an **untrusted** byte slice — the inverse of
/// [`encode_partial`] for frames that crossed a process boundary.
///
/// Every declared quantity is validated before it is believed: the
/// magic, the shape (indices are `u32`), the entry count against the
/// payload's minimum entry size, strictly increasing `(row, col)`
/// coordinates within bounds (the [`EntryCheck`] it shares with
/// [`SpillReader`]), and an exact-length payload (trailing garbage is an
/// error). Corruption therefore surfaces as [`StreamError::Io`] — never
/// a panic, an over-allocation, or a silently wrong matrix.
pub fn decode_partial(bytes: &[u8]) -> Result<Csr, StreamError> {
    let mut r = bytes;
    let magic = read_u32(&mut r).map_err(|_| truncated("header"))?;
    let mut delta = match magic {
        MAGIC_RAW => None,
        MAGIC_VARINT => Some(DeltaState::new()),
        _ => {
            return Err(StreamError::Io(format!(
                "bad partial magic {magic:#010x} in wire payload"
            )))
        }
    };
    let rows = read_u64(&mut r).map_err(|_| truncated("header"))?;
    let cols = read_u64(&mut r).map_err(|_| truncated("header"))?;
    let nnz = read_u64(&mut r).map_err(|_| truncated("header"))?;
    if rows > MAX_WIRE_DIM || cols > MAX_WIRE_DIM {
        return Err(StreamError::Io(format!(
            "partial payload declares implausible shape {rows}x{cols} (limit {MAX_WIRE_DIM})"
        )));
    }
    check_entry_count("partial payload", nnz, delta.is_some(), r.len() as u64)?;
    let mut b = CsrBuilder::with_capacity(rows as usize, cols as usize, nnz as usize);
    let mut check = EntryCheck::new(rows, cols);
    for _ in 0..nnz {
        let (row, col, v) = match &mut delta {
            None => {
                let row = read_u32(&mut r).map_err(|_| truncated("entry"))?;
                let col = read_u32(&mut r).map_err(|_| truncated("entry"))?;
                let bits = read_u64(&mut r).map_err(|_| truncated("entry"))?;
                (row as Index, col as Index, f64::from_bits(bits))
            }
            // A short read mid-entry surfaces as the reader's own
            // `UnexpectedEof`-derived message; overflow keeps its own.
            Some(state) => state.decode(&mut r)?,
        };
        check.admit(row, col)?;
        b.push(row, col, v);
    }
    if !r.is_empty() {
        return Err(StreamError::Io(format!(
            "partial payload has {} trailing bytes past the declared {nnz} entries",
            r.len()
        )));
    }
    Ok(b.finish())
}

/// Rejects a declared entry count that `body_bytes` cannot possibly
/// hold — every entry costs at least 3 bytes (varint: drow + token +
/// value, one byte each) — before any allocation is sized by it.
fn check_entry_count(
    what: &str,
    nnz: u64,
    varint: bool,
    body_bytes: u64,
) -> Result<(), StreamError> {
    let min_entry = if varint { 3 } else { RAW_ENTRY_BYTES };
    if nnz.saturating_mul(min_entry) > body_bytes {
        return Err(StreamError::Io(format!(
            "{what} declares {nnz} entries but holds only {body_bytes} body bytes"
        )));
    }
    Ok(())
}

/// The truncation error every under-long wire payload maps to.
fn truncated(what: &str) -> StreamError {
    StreamError::Io(format!("partial payload truncated mid-{what}"))
}

/// What every decoder holds an entry to before believing it: inside the
/// header's shape, and strictly after its predecessor in `(row, col)`
/// order — what `CsrBuilder::push_trusted` and the merge kernels assume
/// of the keys they are fed.
#[derive(Debug)]
struct EntryCheck {
    rows: u64,
    cols: u64,
    prev: Option<u64>,
}

impl EntryCheck {
    fn new(rows: u64, cols: u64) -> Self {
        EntryCheck {
            rows,
            cols,
            prev: None,
        }
    }

    /// Admits `(row, col)` as the next entry, returning its merge key.
    fn admit(&mut self, row: Index, col: Index) -> Result<u64, StreamError> {
        if u64::from(row) >= self.rows || u64::from(col) >= self.cols {
            return Err(StreamError::Io(format!(
                "partial entry ({row}, {col}) outside declared shape {}x{}",
                self.rows, self.cols
            )));
        }
        let key = pack_key(row, col);
        if self.prev.is_some_and(|p| p >= key) {
            return Err(StreamError::Io(format!(
                "partial entries not in strictly increasing (row, col) order at ({row}, {col})"
            )));
        }
        self.prev = Some(key);
        Ok(key)
    }
}

/// How one value is stored in the varint format.
enum ValueEnc {
    /// Varint of the byte-swapped bit pattern (shorter than 8 bytes).
    Varint(u64),
    /// Raw 8-byte bit pattern (the swap would not have helped).
    Raw(u64),
}

/// Shared encoder state machine: the writer, the sizer and the decoder
/// all walk the same (prev_row, prev_col) deltas, so the three can never
/// disagree about the format.
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

    /// Decodes one entry from `reader`, advancing the state.
    fn decode<R: Read>(&mut self, reader: &mut R) -> Result<Triple, StreamError> {
        let drow = read_varint(reader)?;
        let token = read_varint(reader)?;
        let (r, c) = self.advance(drow, token >> 1)?;
        let v = if token & 1 == 0 {
            f64::from_bits(read_varint(reader)?.swap_bytes())
        } else {
            f64::from_bits(read_u64(reader)?)
        };
        Ok((r, c, v))
    }

    /// Decodes one entry straight from a byte slice, advancing `i`. The
    /// caller guarantees at least [`MAX_VARINT_ENTRY_BYTES`] readable
    /// bytes at `buf[*i..]` — the batch decoder's fast path, sharing
    /// [`DeltaState::advance`] with [`DeltaState::decode`] so the two can
    /// never disagree about the format.
    fn decode_slice(&mut self, buf: &[u8], i: &mut usize) -> Result<Triple, StreamError> {
        let drow = take_varint(buf, i)?;
        let token = take_varint(buf, i)?;
        let (r, c) = self.advance(drow, token >> 1)?;
        let v = if token & 1 == 0 {
            f64::from_bits(take_varint(buf, i)?.swap_bytes())
        } else {
            let bits = u64::from_le_bytes(buf[*i..*i + 8].try_into().expect("8 bytes ensured"));
            *i += 8;
            f64::from_bits(bits)
        };
        Ok((r, c, v))
    }
}

/// The bounded read buffer behind [`SpillReader`]: serves the per-triple
/// path through [`Read`] and the batch path through raw slice access
/// (`ensure`/`buffered`/`consume`), over one shared cursor so the two
/// paths can interleave freely.
#[derive(Debug)]
struct SpillBuf {
    file: File,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    eof: bool,
}

impl SpillBuf {
    fn new(file: File) -> Self {
        SpillBuf {
            file,
            buf: vec![0u8; READ_BUF_BYTES],
            pos: 0,
            len: 0,
            eof: false,
        }
    }

    /// Refills until at least `want` unread bytes are buffered or the
    /// file ends (`want` must be ≤ the buffer capacity). Returns the
    /// number of unread bytes available afterwards.
    fn ensure(&mut self, want: usize) -> Result<usize, StreamError> {
        debug_assert!(want <= self.buf.len());
        if self.len - self.pos < want && !self.eof {
            self.buf.copy_within(self.pos..self.len, 0);
            self.len -= self.pos;
            self.pos = 0;
            while self.len < self.buf.len() {
                let n = self.file.read(&mut self.buf[self.len..])?;
                if n == 0 {
                    self.eof = true;
                    break;
                }
                self.len += n;
            }
        }
        Ok(self.len - self.pos)
    }

    /// The unread bytes currently buffered.
    fn buffered(&self) -> &[u8] {
        &self.buf[self.pos..self.len]
    }

    /// Marks `n` buffered bytes as consumed.
    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len - self.pos);
        self.pos += n;
    }

    /// Bytes between the cursor and the end of the file: what is
    /// buffered plus what the file still holds past its read position.
    fn bytes_left(&mut self) -> Result<u64, StreamError> {
        let on_disk = self.file.metadata()?.len();
        let read = self.file.stream_position()?;
        Ok(on_disk.saturating_sub(read) + (self.len - self.pos) as u64)
    }
}

impl Read for SpillBuf {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.len && !self.eof {
            self.pos = 0;
            self.len = 0;
            while self.len < self.buf.len() {
                let n = self.file.read(&mut self.buf[self.len..])?;
                if n == 0 {
                    self.eof = true;
                    break;
                }
                self.len += n;
            }
        }
        let n = (self.len - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Streams a spilled partial back as sorted triples through a bounded
/// read buffer, whichever format the writer chose.
#[derive(Debug)]
pub struct SpillReader {
    buf: SpillBuf,
    /// The header's shape and the last entry decoded: a damaged file must
    /// fail here, not merge into a malformed matrix.
    check: EntryCheck,
    remaining: u64,
    /// Delta state for the varint format; `None` for raw.
    delta: Option<DeltaState>,
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
        Self::open_inner(path).map_err(|e| with_path(path, e))
    }

    fn open_inner(path: &Path) -> Result<Self, StreamError> {
        let mut buf = SpillBuf::new(File::open(path)?);
        let magic = read_u32(&mut buf)?;
        let delta = match magic {
            MAGIC_RAW => None,
            MAGIC_VARINT => Some(DeltaState::new()),
            _ => {
                return Err(StreamError::Io(format!("bad spill magic {magic:#010x}")));
            }
        };
        let rows = read_u64(&mut buf)?;
        let cols = read_u64(&mut buf)?;
        let remaining = read_u64(&mut buf)?;
        Ok(SpillReader {
            buf,
            check: EntryCheck::new(rows, cols),
            remaining,
            delta,
            path: path.to_path_buf(),
        })
    }

    /// Declared shape of the spilled partial.
    pub fn shape(&self) -> (usize, usize) {
        (self.check.rows as usize, self.check.cols as usize)
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

    /// The next triple in `(row, col)` order, or `None` at the end.
    pub fn next_triple(&mut self) -> Result<Option<Triple>, StreamError> {
        self.next_triple_inner()
            .map_err(|e| with_path(&self.path, e))
    }

    fn next_triple_inner(&mut self) -> Result<Option<Triple>, StreamError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let (r, c, v) = match &mut self.delta {
            None => {
                let r = read_u32(&mut self.buf)?;
                let c = read_u32(&mut self.buf)?;
                (r, c, f64::from_bits(read_u64(&mut self.buf)?))
            }
            Some(state) => state.decode(&mut self.buf)?,
        };
        self.check.admit(r, c)?;
        Ok(Some((r, c, v)))
    }

    /// Decodes up to `max` entries in one batch into the caller's scratch
    /// columns — packed `(row << 32) | col` keys plus values — returning
    /// how many were produced (0 only at the end of the file). This is
    /// the merge kernel's fast path: whole buffered spans decode with
    /// slice arithmetic instead of per-field `Read` calls, and the
    /// delta/varint state machine is shared with the per-triple path.
    pub fn next_chunk(
        &mut self,
        max: usize,
        keys: &mut Vec<u64>,
        vals: &mut Vec<f64>,
    ) -> Result<usize, StreamError> {
        match self.next_chunk_inner(max, keys, vals) {
            Ok(n) => Ok(n),
            Err(e) => Err(with_path(&self.path, e)),
        }
    }

    fn next_chunk_inner(
        &mut self,
        max: usize,
        keys: &mut Vec<u64>,
        vals: &mut Vec<f64>,
    ) -> Result<usize, StreamError> {
        keys.clear();
        vals.clear();
        let take = max.min(self.remaining as usize);
        let SpillReader {
            buf, delta, check, ..
        } = self;
        match delta {
            None => {
                let mut got = 0usize;
                while got < take {
                    let avail = buf.ensure(RAW_ENTRY_BYTES as usize)?;
                    if avail < RAW_ENTRY_BYTES as usize {
                        return Err(StreamError::Io(
                            "spill file truncated mid-entry (raw)".into(),
                        ));
                    }
                    let span = (avail / RAW_ENTRY_BYTES as usize).min(take - got);
                    let bytes = span * RAW_ENTRY_BYTES as usize;
                    for rec in buf.buffered()[..bytes].chunks_exact(RAW_ENTRY_BYTES as usize) {
                        let r = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes"));
                        let c = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes"));
                        let bits = u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes"));
                        keys.push(check.admit(r, c)?);
                        vals.push(f64::from_bits(bits));
                    }
                    buf.consume(bytes);
                    got += span;
                }
            }
            Some(state) => {
                let mut got = 0usize;
                while got < take {
                    let avail = buf.ensure(MAX_VARINT_ENTRY_BYTES)?;
                    if avail >= MAX_VARINT_ENTRY_BYTES {
                        // Slice span: decode entries while a worst-case
                        // entry still fits entirely in the buffer.
                        let span = buf.buffered();
                        let mut i = 0usize;
                        while got < take && span.len() - i >= MAX_VARINT_ENTRY_BYTES {
                            let (r, c, v) = state.decode_slice(span, &mut i)?;
                            keys.push(check.admit(r, c)?);
                            vals.push(v);
                            got += 1;
                        }
                        buf.consume(i);
                    } else {
                        // File tail: fall back to the bounds-checked
                        // per-field path for the last few entries.
                        let (r, c, v) = state.decode(buf)?;
                        keys.push(check.admit(r, c)?);
                        vals.push(v);
                        got += 1;
                    }
                }
            }
        }
        self.remaining -= take as u64;
        Ok(take)
    }

    /// Drains the whole file into a CSR — the non-streaming fallback used
    /// when a spilled partial *is* the final result.
    ///
    /// The header's entry count sizes the result's arrays, so it is first
    /// held against what the rest of the file can hold: a header that
    /// lies is an error naming the file, not an allocation.
    pub fn read_all(mut self) -> Result<Csr, StreamError> {
        let (rows, cols) = self.shape();
        let varint = self.delta.is_some();
        let fits = self
            .buf
            .bytes_left()
            .and_then(|left| check_entry_count("header", self.remaining, varint, left));
        fits.map_err(|e| with_path(&self.path, e))?;
        let mut b = CsrBuilder::with_capacity(rows, cols, self.remaining as usize);
        while let Some((r, c, v)) = self.next_triple()? {
            b.push(r, c, v);
        }
        Ok(b.finish())
    }
}

/// Packs `(row, col)` into the single `u64` sort key the chunked merge
/// kernel compares: row in the high 32 bits, column in the low 32, so
/// key order is exactly `(row, col)` lexicographic order.
pub(crate) fn pack_key(r: Index, c: Index) -> u64 {
    ((r as u64) << 32) | c as u64
}

/// Decodes one LEB128 value from `buf` at `*i`, advancing `i`. The
/// caller guarantees at least 8 readable bytes past `*i` (the batch
/// decoder's look-ahead invariant), which lets every 1–8-byte encoding —
/// all coordinates and almost all values the writer emits — decode from
/// a single `u64` load with a branch-free continuation scan instead of a
/// byte-at-a-time loop.
fn take_varint(buf: &[u8], i: &mut usize) -> Result<u64, StreamError> {
    let word = u64::from_le_bytes(buf[*i..*i + 8].try_into().expect("8 bytes ensured"));
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

/// The checked per-byte path behind [`take_varint`]: 9–10-byte
/// encodings plus corrupt continuation runs, enforcing the same length
/// and overflow rules as [`read_varint`].
fn take_varint_slow(buf: &[u8], i: &mut usize) -> Result<u64, StreamError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*i) else {
            return Err(StreamError::Io("varint truncated".into()));
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

/// Reads one LEB128 value; rejects encodings past 10 bytes and payload
/// bits that would overflow a `u64` (a corrupted file must surface as
/// an error, never decode to a silently truncated value).
fn read_varint<R: Read>(r: &mut R) -> Result<u64, StreamError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut buf = [0u8; 1];
        r.read_exact(&mut buf)?;
        let byte = buf[0];
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

fn read_u32<R: Read>(r: &mut R) -> Result<u32, StreamError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, StreamError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use sparch_sparse::gen;

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
            let mut reader = SpillReader::open(&path).unwrap();
            let mut triples = Vec::new();
            while let Some(t) = reader.next_triple().unwrap() {
                triples.push(t);
            }
            assert_eq!(triples, m.iter().collect::<Vec<_>>(), "{codec}");
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

    /// The batch decoder must produce exactly the per-triple stream, in
    /// every chunk-size regime: chunks smaller than the file, bigger
    /// than the file, and size 1 (all slow-path tail decoding).
    #[test]
    fn chunked_decode_matches_per_triple_decode() {
        let dir = TempDir::new("spill_chunks");
        let int = sparch_sparse::linalg::map_values(&gen::uniform_random(40, 50, 600, 11), |v| {
            (v * 8.0).round()
        });
        let float = gen::uniform_random(40, 50, 600, 13);
        for (tag, m) in [("int", &int), ("float", &float)] {
            for codec in [SpillCodec::Raw, SpillCodec::Varint] {
                let path = dir.file(&format!("chunk_{tag}_{codec}.bin"));
                write_partial(&path, m, codec).unwrap();
                let expected: Vec<(u64, u64)> = m
                    .iter()
                    .map(|(r, c, v)| (pack_key(r, c), v.to_bits()))
                    .collect();
                for chunk in [1usize, 7, 256, usize::MAX] {
                    let mut reader = SpillReader::open(&path).unwrap();
                    let (mut keys, mut vals) = (Vec::new(), Vec::new());
                    let mut got = Vec::new();
                    loop {
                        let n = reader.next_chunk(chunk, &mut keys, &mut vals).unwrap();
                        if n == 0 {
                            break;
                        }
                        assert_eq!(keys.len(), n);
                        assert_eq!(vals.len(), n);
                        got.extend(keys.iter().zip(&vals).map(|(&k, &v)| (k, v.to_bits())));
                    }
                    assert_eq!(got, expected, "{tag} {codec} chunk {chunk}");
                    assert_eq!(reader.remaining(), 0);
                }
            }
        }
    }

    /// Slice varint decoding agrees with the `Read`-based decoder for
    /// every encoding length, including the 10-byte maximum that takes
    /// the checked slow path.
    #[test]
    fn take_varint_matches_read_varint() {
        let samples = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            (1 << 56) - 1,
            1 << 56,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for v in samples {
            write_varint(&mut buf, v).unwrap();
        }
        // Pad so the fast path's 8-byte look-ahead holds at every entry.
        buf.extend_from_slice(&[0u8; 16]);
        let mut i = 0usize;
        for v in samples {
            assert_eq!(take_varint(&buf, &mut i).unwrap(), v);
        }
        // Corrupt continuation runs fail like read_varint, never panic.
        let mut bad = vec![0xffu8; 11];
        bad.extend_from_slice(&[0u8; 16]);
        assert!(take_varint(&bad, &mut 0).is_err());
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
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
        // An 11-byte continuation chain is rejected, not wrapped.
        let bad = [0xffu8; 11];
        assert!(read_varint(&mut bad.as_slice()).is_err());
        // A 10-byte encoding whose final byte carries payload bits past
        // u64's capacity is rejected, never silently truncated.
        let mut overflow = [0x80u8; 10];
        overflow[9] = 0x7e;
        assert!(read_varint(&mut overflow.as_slice()).is_err());
        // The canonical 10-byte u64::MAX encoding still decodes.
        let mut max = Vec::new();
        write_varint(&mut max, u64::MAX).unwrap();
        assert_eq!(max.len(), 10);
        assert_eq!(read_varint(&mut max.as_slice()).unwrap(), u64::MAX);
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

    /// Writes `bytes` as a spill file and drives every read path over it
    /// — batch decode at several chunk sizes, per-triple, `read_all`:
    /// each must fail with an `Io` error naming the file and `needle`,
    /// never finish, panic or hang.
    fn assert_every_read_path_fails(dir: &TempDir, name: &str, bytes: &[u8], needle: &str) {
        let path = dir.file(name);
        std::fs::write(&path, bytes).unwrap();
        let check = |what: &str, result: Result<(), StreamError>| match result {
            Err(StreamError::Io(msg)) => assert!(
                msg.contains(name) && msg.contains(needle),
                "{name} {what}: {msg}"
            ),
            other => panic!("{name} {what}: expected an Io error, got {other:?}"),
        };
        for chunk in [1usize, 7, usize::MAX] {
            let mut reader = SpillReader::open(&path).unwrap();
            let (mut keys, mut vals) = (Vec::new(), Vec::new());
            let result = loop {
                match reader.next_chunk(chunk, &mut keys, &mut vals) {
                    Ok(0) => break Ok(()),
                    Ok(_) => {}
                    Err(e) => break Err(e),
                }
            };
            check("next_chunk", result);
        }
        let mut reader = SpillReader::open(&path).unwrap();
        let result = loop {
            match reader.next_triple() {
                Ok(None) => break Ok(()),
                Ok(Some(_)) => {}
                Err(e) => break Err(e),
            }
        };
        check("next_triple", result);
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
            assert!(decode_partial(&bytes).is_err());
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
        assert!(decode_partial(&bytes).is_err());
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
        let mut reader = SpillReader::open(&path).unwrap();
        let err = loop {
            match reader.next_triple() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("truncated file read to completion"),
                Err(e) => break e,
            }
        };
        match err {
            StreamError::Io(msg) => assert!(
                msg.contains("truncated.bin"),
                "read error must name the path: {msg}"
            ),
            other => panic!("expected Io error, got {other:?}"),
        }
        let mut reader = SpillReader::open(&path).unwrap();
        let (mut keys, mut vals) = (Vec::new(), Vec::new());
        let err = loop {
            match reader.next_chunk(usize::MAX, &mut keys, &mut vals) {
                Ok(0) => panic!("truncated file chunked to completion"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(
            matches!(&err, StreamError::Io(msg) if msg.contains("truncated.bin")),
            "chunk error must name the path: {err:?}"
        );
        // Opening a missing file names it too.
        let missing = dir.file("missing.bin");
        assert!(
            matches!(SpillReader::open(&missing), Err(StreamError::Io(msg)) if msg.contains("missing.bin")),
        );
    }
}

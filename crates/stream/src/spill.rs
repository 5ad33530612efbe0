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
//! larger than raw, on any input.
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
//!   tail. `next_chunk`, `next_triple` and `read_all` are thin loops
//!   over that one path;
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
use std::io::{self, BufWriter, Read, Write};
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

    /// Admits `(row, col)` as the next entry.
    #[inline(always)]
    fn admit(&mut self, row: Index, col: Index) -> Result<(), StreamError> {
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
        Ok(())
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

    /// The next triple in `(row, col)` order, or `None` at the end.
    pub fn next_triple(&mut self) -> Result<Option<Triple>, StreamError> {
        let mut next = None;
        self.read_entries(1, |t| next = Some(t))?;
        Ok(next)
    }

    /// Decodes up to `max` entries in one batch into the caller's scratch
    /// columns — packed `(row << 32) | col` keys plus values — returning
    /// how many were produced (0 only at the end of the file). This is
    /// the merge kernel's fast path: the inner merge loop then compares
    /// single `u64`s and never touches the decoder.
    pub fn next_chunk(
        &mut self,
        max: usize,
        keys: &mut Vec<u64>,
        vals: &mut Vec<f64>,
    ) -> Result<usize, StreamError> {
        keys.clear();
        vals.clear();
        self.read_entries(max, |(r, c, v)| {
            keys.push(pack_key(r, c));
            vals.push(v);
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

/// Packs `(row, col)` into the single `u64` sort key the chunked merge
/// kernel compares: row in the high 32 bits, column in the low 32, so
/// key order is exactly `(row, col)` lexicographic order.
pub(crate) fn pack_key(r: Index, c: Index) -> u64 {
    ((r as u64) << 32) | c as u64
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

    /// Every entry point decodes the same stream, bit for bit: `read_all`,
    /// `next_chunk` at chunk sizes below and above the file's entry count
    /// (size 1 decodes the whole file through the tail-of-window logic
    /// one entry at a time), `next_triple` and the wire's `decode_partial`.
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
                let bits = |t: Triple| (t.0, t.1, t.2.to_bits());
                let expected: Vec<_> = m.iter().map(bits).collect();
                for chunk in [1usize, 7, 1024] {
                    let got = drain_chunks(SpillReader::open(&path).unwrap(), chunk).unwrap();
                    assert_eq!(got, expected, "{tag} {codec} next_chunk {chunk}");
                }
                let mut reader = SpillReader::open(&path).unwrap();
                let mut got = Vec::new();
                while let Some(t) = reader.next_triple().unwrap() {
                    got.push(bits(t));
                }
                assert_eq!(got, expected, "{tag} {codec} next_triple");
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

    /// Drains `reader` through `next_chunk(chunk)`, each key unpacked and
    /// each value as its bits.
    fn drain_chunks<R: Read>(
        mut reader: SpillReader<R>,
        chunk: usize,
    ) -> Result<Vec<(Index, Index, u64)>, StreamError> {
        let (mut keys, mut vals, mut got) = (Vec::new(), Vec::new(), Vec::new());
        while reader.next_chunk(chunk, &mut keys, &mut vals)? > 0 {
            assert_eq!(keys.len(), vals.len());
            let unpack = |(&k, &v): (&u64, &f64)| ((k >> 32) as Index, k as Index, v.to_bits());
            got.extend(keys.iter().zip(&vals).map(unpack));
        }
        assert_eq!(reader.remaining(), 0);
        Ok(got)
    }

    /// Writes `bytes` as a spill file and drives every read path over it
    /// — batch decode at several chunk sizes, per-triple, `read_all` —
    /// and hands the same bytes to the wire's `decode_partial`: each must
    /// fail with an `Io` error naming `needle` (and, from a file, the
    /// file), never finish, panic or hang.
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
        for chunk in [1usize, 7, usize::MAX] {
            let reader = SpillReader::open(&path).unwrap();
            check("next_chunk", drain_chunks(reader, chunk).map(|_| ()));
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
    /// included — through `read_all` and `next_chunk`.
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
                assert_eq!(drain_chunks(src().reader(), 7).unwrap(), expected, "{case}");
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
                ("next_chunk", drain_chunks(faulty().reader(), 7).map(|_| ())),
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
}

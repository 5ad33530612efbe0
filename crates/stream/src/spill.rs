//! The compact binary spill formats for partial matrices.
//!
//! A spilled partial is the paper's "partially merged result written back
//! to DRAM", transplanted to disk: the entries in the row-major
//! `(row, col)` order the merge hardware consumes ("sorted by row index
//! then column index", §II-A), so a reader can stream straight into a
//! k-way merge without ever materializing the matrix.
//!
//! Two on-disk formats share a 28-byte header (little-endian):
//!
//! ```text
//! magic  u32   0x5350_4d31 ("SPM1", raw) | 0x5350_4d33 ("SPM3", blocks)
//! rows   u64
//! cols   u64
//! nnz    u64
//! ```
//!
//! **Raw** (`SPM1`) stores each entry as `(row u32, col u32, value f64)`
//! — 16 bytes per element, streamable in both directions.
//!
//! **Row-grouped blocks** (`SPM3`, written for [`SpillCodec::Varint`])
//! exploit the sort order the way the fold reads it: a row at a time. The
//! body is a run of blocks of at most [`GROUP_ENTRIES`] entries; a block
//! never spans a mark of the row index (below), and a row longer than
//! the room left in a block goes on in the next one. Each block is
//!
//! ```text
//! rows     u16  occupied rows it holds (1..=entries)
//! entries  u16  entries it holds (1..=GROUP_ENTRIES)
//! width    u8   bytes per value: 1, 2 or 4 (integer lanes), or 8 (raw f64 bits)
//! control  ⌈codes / 4⌉ bytes: 2 bits per code, its length in bytes − 1,
//!          low bits first; bits past the last code are zero
//! codes    per row: its row delta, its entry count, then one column
//!          code per entry — each 1–4 bytes, little-endian
//! values   entries × width bytes
//! ```
//!
//! with `codes = 2 · rows + entries`. This is the Stream VByte layout
//! (Lemire, Kurz & Rupp, 2018): the lengths sit in their own stream, so
//! neither encoder nor decoder branches per entry. A row delta is the
//! row minus the previous row (the row itself for the first row of the
//! partial); a zero delta on a block's first row marks the previous
//! block's last row going on, and is an error anywhere else. A row's
//! first column code is its column, the rest — and the first of a row
//! going on — are deltas from the column before, at least 1 since
//! columns strictly increase. A block stores its values as
//! sign-magnitude integer lanes, `|v| << 1 | sign`, of the narrowest
//! width that holds them when every value is an integer below 2³¹ in
//! magnitude — signed zeros included, so `-0.0` costs one byte like
//! `0.0`; NaN, the infinities and fractions do not qualify — and as raw
//! 8-byte words otherwise. An encoding that is not
//! strictly smaller than raw is thrown away and the partial is written
//! raw instead — a *requested* block spill is never larger than raw, on
//! any input.
//!
//! **One pass.** The writer walks `row_ptr`, `col_idx` and `values`
//! once, a block at a time (each block's values are scanned once more
//! for their width). Codes are stored as whole 4-byte words into a
//! fixed-size chunk buffer, which goes out with one `write_all` when the
//! next block might not fit. A block encoding is abandoned the moment it
//! reaches the raw size (an empty partial is the common case) and the
//! partial is encoded again, raw.
//!
//! **Row index.** The same pass records a row index in the returned
//! [`SpillFile`]: a mark every `⌈rows / 1024⌉` rows holding the byte
//! offset, the entries before it and the row of the entry before it —
//! the decoder's whole state at a row boundary, where a block starts.
//! The stride depends on the shape alone, so every partial of a merge
//! round has its marks at the same rows, and a band reader
//! (`SpillReader::open_band`) can start at any mark. The index lives in
//! memory only: the formats above do not change, because a spill file
//! only ever comes back to the process that wrote it.
//!
//! The same encoding doubles as the **wire format** of the distributed
//! layer: [`encode_partial`] produces the header + body as bytes for a
//! socket frame, byte for byte what [`write_partial`] puts on disk.
//!
//! **One decoder, two framings.** Whatever the bytes came from, one
//! decoder turns them into rows of a [`RowGroup`] — the row-grouped
//! partial a merge source reads and the simulator's rounds store — a row
//! slice at a time. It opens a block only once the whole block is in the
//! bytes it is given, and holds each row, not each entry, to the
//! header's shape: the row inside the shape (or a band reader's rows)
//! and after the previous row, its column deltas all at least 1 and its
//! last column below `cols`. The two framings only decide what slice it
//! sees:
//!
//! * a **spill file** is read by [`SpillReader`] through a bounded 64 KiB
//!   buffer, which always holds a worst-case block or the file's tail.
//!   `SpillReader::next_rows`, which fills a merge source's row group,
//!   and [`SpillReader::read_all`] are thin loops over that one path;
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
use sparch_sparse::algo::RowGroup;
use sparch_sparse::{Csr, CsrBuilder, Index};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

const MAGIC_RAW: u32 = 0x5350_4d31;
const MAGIC_BLOCKS: u32 = 0x5350_4d33;
const HEADER_BYTES: u64 = 28;
const RAW_ENTRY_BYTES: u64 = 16;

/// Bytes of a block's header: rows, entries, value width.
const BLOCK_HEADER_BYTES: usize = 5;

/// Read-buffer capacity for streaming a spilled partial back in. Small
/// by design: this bounds the resident bytes a spilled merge child costs.
const READ_BUF_BYTES: usize = 64 * 1024;

/// Entries a merge source decodes from a spilled partial at a time
/// ([`SpillReader::next_rows`]), and the most a block holds: at most
/// 28 KiB of row group per spilled source, enough to amortize the
/// decoder's setup per call.
pub(crate) const GROUP_ENTRIES: usize = 1024;

/// The most bytes a block of `entries` entries can take: its header, and
/// per entry three 4-byte codes with their control bits (a row of its
/// own at most) and an 8-byte value. The writer keeps this much chunk
/// room free before it encodes a block.
const fn block_room(entries: usize) -> usize {
    BLOCK_HEADER_BYTES + (3 * entries).div_ceil(4) + 3 * 4 * entries + 8 * entries
}

/// The largest block, which a read buffer holds whole.
const MAX_BLOCK_BYTES: usize = block_room(GROUP_ENTRIES);
const _: () = assert!(MAX_BLOCK_BYTES <= READ_BUF_BYTES);

/// An upper bound on [`block_room`] per entry, for blocks of any size:
/// what [`chunk_len`] sizes a small partial's chunk buffer by.
const MAX_ENTRY_BYTES: usize = 26;
const _: () = assert!(block_room(1) <= MAX_ENTRY_BYTES);

/// The fewest bytes an entry can take, in quarter bytes: a 1-byte column
/// code and its 2 control bits, and a 1-byte value (raw: 16 bytes).
/// Every header's entry count is held against the body bytes at this
/// rate before anything is sized by it.
const MIN_ENTRY_QUARTERS: u64 = 9;

/// Chunk-buffer capacity of the writer: encoded bytes collected per
/// `write_all`. The same as a reader's buffer, and below the allocator's
/// default mmap threshold, so a fresh one stays cheap.
const CHUNK_BYTES: usize = 64 * 1024;

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
    /// Byte offset of the first entry at or after the mark's row: the
    /// start of a block in the block format.
    offset: u64,
    /// Entries before the mark.
    entries: u64,
    /// Row of the entry before the mark (0 when there is none): the
    /// decoder's state at the mark, since the entry after it starts a
    /// new row.
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

/// The exact on-disk size `csr` would occupy in the block format
/// [`SpillCodec::Varint`] writes (before the writer's raw fallback is
/// applied).
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
/// [`SpillCodec::Varint`] is a *request*: a block encoding that is not
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
    /// `path`. A block encoding that reaches the raw size is abandoned
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
        let mut write = |blocks: bool, limit: u64| {
            let mut w = create()?;
            let done = encode(csr, blocks, limit, &mut self.chunk, |b| w.write_all(b))?;
            w.flush()?;
            Ok::<_, io::Error>(done)
        };
        // `None` when there is no block encoding: not asked for, or
        // abandoned at the raw size.
        let blocks = match codec {
            SpillCodec::Raw => None,
            SpillCodec::Varint => write(true, raw_size(csr)).transpose(),
        };
        let written = match blocks {
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
    let worst = HEADER_BYTES as usize + MAX_ENTRY_BYTES * csr.nnz();
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

    /// Hands the buffered bytes to `sink`.
    fn flush(&mut self, sink: &mut impl FnMut(&[u8]) -> io::Result<()>) -> io::Result<()> {
        sink(&self.buf[..self.pos])?;
        self.flushed += self.pos as u64;
        self.pos = 0;
        Ok(())
    }
}

/// The one encoder behind [`write_partial`], [`encode_partial`] and
/// [`varint_size`]: header and body of `csr` in the block (`blocks`) or
/// raw format, built in `buf` (at least [`chunk_len`] bytes) and handed
/// to `sink` a chunk at a time, with the [`RowIndex`] recorded on the
/// way. Returns the bytes encoded and the index, or `None` — with the
/// bytes from `limit` on never handed over — once the encoding reaches
/// `limit` bytes.
fn encode(
    csr: &Csr,
    blocks: bool,
    limit: u64,
    buf: &mut [u8],
    mut sink: impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<Option<(u64, RowIndex)>> {
    debug_assert!(buf.len() >= chunk_len(csr));
    let rp = csr.row_ptr();
    let mut out = Chunk {
        buf,
        pos: 0,
        flushed: 0,
    };
    let magic = if blocks { MAGIC_BLOCKS } else { MAGIC_RAW };
    out.word(magic.into(), 4);
    for word in [csr.rows(), csr.cols(), csr.nnz()] {
        out.word(word as u64, 8);
    }
    let rows = csr.rows();
    let stride = mark_stride(rows);
    let mut marks = Vec::with_capacity(rows.div_ceil(stride) + 1);
    // The row holding the next block's first entry, and the row of the
    // entry before it.
    let (mut row, mut prev_row): (usize, Index) = (0, 0);
    for start in (0..rows).step_by(stride) {
        marks.push(Mark {
            offset: out.bytes(),
            entries: rp[start] as u64,
            prev_row,
        });
        let span = rp[start]..rp[(start + stride).min(rows)];
        for lo in span.clone().step_by(GROUP_ENTRIES) {
            let block = lo..span.end.min(lo + GROUP_ENTRIES);
            let room = if blocks {
                block_room(block.len())
            } else {
                RAW_ENTRY_BYTES as usize * block.len()
            };
            if out.buf.len() - out.pos < room {
                if out.bytes() >= limit {
                    return Ok(None);
                }
                out.flush(&mut sink)?;
            }
            while rp[row + 1] <= lo {
                row += 1;
            }
            if blocks {
                put_block(&mut out, csr, row, block.clone(), prev_row);
            } else {
                put_raw(&mut out, csr, row, block.clone());
            }
            while rp[row + 1] < block.end {
                row += 1;
            }
            prev_row = row as Index;
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

/// The occupied rows of `rp` holding entries in `block`, from row
/// `first` (the row of its first entry) on, each with the part of its
/// entries inside the block.
fn block_rows(
    rp: &[usize],
    first: usize,
    block: Range<usize>,
) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    (first..)
        .map_while(move |r| {
            (rp[r] < block.end).then(|| (r, rp[r].max(block.start)..rp[r + 1].min(block.end)))
        })
        .filter(|(_, part)| !part.is_empty())
}

/// Stores the entries `block` of `csr`, the first in row `first`, as raw
/// 16-byte entries.
fn put_raw(out: &mut Chunk, csr: &Csr, first: usize, block: Range<usize>) {
    let (ci, vs) = (csr.col_indices(), csr.values());
    for (r, part) in block_rows(csr.row_ptr(), first, block) {
        for j in part {
            out.word(r as u64 | u64::from(ci[j]) << 32, 8);
            out.word(vs[j].to_bits(), 8);
        }
    }
}

/// Stores the entries `block` of `csr`, the first in row `first` and
/// the entry before them in row `prev_row`, as one block. The chunk must
/// have [`block_room`] bytes free.
fn put_block(out: &mut Chunk, csr: &Csr, first: usize, block: Range<usize>, mut prev_row: Index) {
    let (rp, ci, vs) = (csr.row_ptr(), csr.col_indices(), csr.values());
    let rows = block_rows(rp, first, block.clone()).count();
    let values = &vs[block.clone()];
    let width = value_width(values);
    let at = out.pos;
    let ctrl = at + BLOCK_HEADER_BYTES;
    let data = ctrl + (2 * rows + block.len()).div_ceil(4);
    out.buf[at..at + 2].copy_from_slice(&(rows as u16).to_le_bytes());
    out.buf[at + 2..at + 4].copy_from_slice(&(block.len() as u16).to_le_bytes());
    out.buf[at + 4] = width as u8;
    out.buf[ctrl..data].fill(0);
    let mut codes = CodeWriter {
        buf: out.buf,
        ctrl,
        code: 0,
        data,
    };
    for (r, part) in block_rows(rp, first, block) {
        // A row going on from the last block continues its deltas; any
        // other row starts from its own first column.
        let (drow, col) = if part.start > rp[r] {
            (0, ci[part.start] - ci[part.start - 1])
        } else {
            (r as Index - prev_row, ci[part.start])
        };
        codes.put(drow);
        codes.put(part.len() as u32);
        codes.put(col);
        for pair in ci[part].windows(2) {
            codes.put(pair[1] - pair[0]);
        }
        prev_row = r as Index;
    }
    let data = codes.data;
    let end = data + values.len() * width;
    put_values(&mut out.buf[data..end], values, width);
    out.pos = end;
}

/// The code stream of a block under construction: control bits from
/// `ctrl` (zeroed), code bytes from `data`.
struct CodeWriter<'a> {
    buf: &'a mut [u8],
    ctrl: usize,
    code: usize,
    data: usize,
}

impl CodeWriter<'_> {
    /// Appends `x` as a 1–4-byte code. Branch-free: code lengths vary
    /// entry to entry, and a branch on them mispredicts. The whole word
    /// is stored, which the block's room allows for.
    #[inline(always)]
    fn put(&mut self, x: u32) {
        let len = (39 - (x | 1).leading_zeros() as usize) / 8;
        self.buf[self.data..self.data + 4].copy_from_slice(&x.to_le_bytes());
        self.buf[self.ctrl + self.code / 4] |= ((len - 1) << (2 * (self.code % 4))) as u8;
        self.code += 1;
        self.data += len;
    }
}

/// The sign-magnitude integer lane of `v` — `|v| << 1 | sign` — and
/// whether it holds `v` bit for bit: it does when `v` is an integer
/// below 2³¹ in magnitude, `-0.0` included (NaN and the infinities are
/// not integers).
#[inline(always)]
fn lane(v: f64) -> (u32, bool) {
    let bits = v.to_bits();
    let mag = f64::from_bits(bits & !(1 << 63));
    let m = mag as u32;
    let exact = f64::from(m).to_bits() == mag.to_bits() && m >> 31 == 0;
    (m << 1 | (bits >> 63) as u32, exact)
}

/// The value a [`lane`] holds.
#[inline(always)]
fn unlane(lane: u32) -> f64 {
    f64::from_bits(f64::from(lane >> 1).to_bits() | u64::from(lane & 1) << 63)
}

/// The bytes per value a block of `values` stores: the narrowest of 1, 2
/// and 4 that holds every value's [`lane`] when each holds its value,
/// else 8 (the raw bits).
fn value_width(values: &[f64]) -> usize {
    let (mut exact, mut lanes) = (true, 0u32);
    for &v in values {
        let (l, e) = lane(v);
        exact &= e;
        lanes |= l;
    }
    match lanes {
        _ if !exact => 8,
        0..=0xff => 1,
        0x100..=0xffff => 2,
        _ => 4,
    }
}

/// Stores `values` into `out`, `width` bytes each (see [`value_width`]).
fn put_values(out: &mut [u8], values: &[f64], width: usize) {
    fn lanes<const W: usize>(out: &mut [u8], values: &[f64]) {
        for (bytes, &v) in out.chunks_exact_mut(W).zip(values) {
            bytes.copy_from_slice(&lane(v).0.to_le_bytes()[..W]);
        }
    }
    match width {
        1 => lanes::<1>(out, values),
        2 => lanes::<2>(out, values),
        4 => lanes::<4>(out, values),
        _ => {
            for (bytes, &v) in out.chunks_exact_mut(8).zip(values) {
                bytes.copy_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
}

/// Loads `values.len()` values of `width` bytes each from `bytes` — the
/// inverse of [`put_values`].
fn get_values(bytes: &[u8], values: &mut [f64], width: usize) {
    fn lanes<const W: usize>(bytes: &[u8], values: &mut [f64]) {
        for (v, bytes) in values.iter_mut().zip(bytes.chunks_exact(W)) {
            let mut word = [0u8; 4];
            word[..W].copy_from_slice(bytes);
            *v = unlane(u32::from_le_bytes(word));
        }
    }
    match width {
        1 => lanes::<1>(bytes, values),
        2 => lanes::<2>(bytes, values),
        4 => lanes::<4>(bytes, values),
        _ => {
            for (v, bytes) in values.iter_mut().zip(bytes.chunks_exact(8)) {
                *v = f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("8 bytes")));
            }
        }
    }
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
    // Block bytes from the raw size on are never appended, so the raw
    // size bounds the frame either way.
    buf.reserve(raw as usize);
    let mut chunk = vec![0u8; chunk_len(csr)];
    let mut append = |buf: &mut Vec<u8>, blocks: bool, limit: u64| {
        let sink = |b: &[u8]| {
            buf.extend_from_slice(b);
            Ok(())
        };
        let done = encode(csr, blocks, limit, &mut chunk, sink);
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
/// within `MAX_WIRE_DIM` (2²⁴), an entry count the payload can hold — and
/// the body goes through the same decoder as [`SpillReader`] (shape,
/// order and overflow checks included), followed by an exact-length
/// check: trailing garbage is an error. Corruption therefore surfaces as
/// [`StreamError::Io`] — never a panic, an over-allocation, or a
/// silently wrong matrix.
pub fn decode_partial(bytes: &[u8]) -> Result<Csr, StreamError> {
    let mut body = decode_header(bytes)?;
    let (rows, cols, nnz) = (body.rows, body.cols, body.unopened);
    if rows > MAX_WIRE_DIM || cols > MAX_WIRE_DIM {
        return Err(StreamError::Io(format!(
            "partial payload declares implausible shape {rows}x{cols} (limit {MAX_WIRE_DIM})"
        )));
    }
    let mut i = HEADER_BYTES as usize;
    check_entry_count(body.blocks, nnz, (bytes.len() - i) as u64)?;
    let mut b = CsrBuilder::with_capacity(rows as usize, cols as usize, nnz as usize);
    let mut group = RowGroup::with_capacity(GROUP_ENTRIES.min(nnz as usize));
    let mut left = nnz as usize;
    while left > 0 {
        group.clear();
        let (got, used) = body.decode(&bytes[i..], true, left.min(GROUP_ENTRIES), &mut group)?;
        append_rows(&mut b, &group);
        (i, left) = (i + used, left - got);
    }
    if i != bytes.len() {
        return Err(StreamError::Io(format!(
            "partial payload has {} trailing bytes past the declared {nnz} entries",
            bytes.len() - i
        )));
    }
    Ok(b.finish())
}

/// Appends every row of `group` to `b`.
fn append_rows(b: &mut CsrBuilder, group: &RowGroup) {
    let mut at = 0;
    while let Some(row) = group.head(at) {
        group.feed(&mut at, |c, v| b.push_trusted(row, c, v));
    }
}

/// Parses the header at the front of `bytes` into the body decoder its
/// magic selects, holding its shape and its declared entry count.
fn decode_header(bytes: &[u8]) -> Result<BodyDecoder, StreamError> {
    let Some(h) = bytes.get(..HEADER_BYTES as usize) else {
        return Err(truncated("header"));
    };
    let word = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().expect("8 bytes"));
    let magic = u32::from_le_bytes(h[..4].try_into().expect("4 bytes"));
    let blocks = match magic {
        MAGIC_RAW => false,
        MAGIC_BLOCKS => true,
        _ => return Err(StreamError::Io(format!("bad partial magic {magic:#010x}"))),
    };
    Ok(BodyDecoder::new(blocks, word(4), word(12), word(20)))
}

/// The truncation error every under-long header or body maps to.
fn truncated(what: &str) -> StreamError {
    StreamError::Io(format!("partial truncated mid-{what}"))
}

/// Rejects a declared entry count that `body_bytes` cannot possibly hold
/// (see [`MIN_ENTRY_QUARTERS`]) before any allocation is sized by it.
fn check_entry_count(blocks: bool, nnz: u64, body_bytes: u64) -> Result<(), StreamError> {
    let quarters = if blocks {
        MIN_ENTRY_QUARTERS
    } else {
        4 * RAW_ENTRY_BYTES
    };
    if nnz.saturating_mul(quarters) > body_bytes.saturating_mul(4) {
        return Err(StreamError::Io(format!(
            "header declares {nnz} entries but the partial holds only {body_bytes} body bytes"
        )));
    }
    Ok(())
}

/// The body decoder of one partial, file or frame: the format the
/// header's magic named, what each decoded row is held to — inside the
/// header's shape and the reader's rows, after the row before — and
/// where it stands in the block it is reading.
#[derive(Debug)]
struct BodyDecoder {
    /// The block format; raw entries otherwise.
    blocks: bool,
    rows: u64,
    cols: u64,
    /// The rows admitted: all of them, or a band reader's.
    band: Range<u64>,
    /// The last row decoded (or, for a band reader, the row before its
    /// first mark); `None` before the first.
    row: Option<Index>,
    /// The last column decoded in `row`.
    col: u64,
    /// Entries in no block opened so far: at first the header's count,
    /// which a reader's `remaining` starts from.
    unopened: u64,
    /// The block being read, at the front of the bytes the decoder is
    /// given; `entries == 0` when none is.
    block: Block,
}

/// Where the decoder stands inside an open block. Offsets count from the
/// block's first byte.
#[derive(Debug, Default, Clone, Copy)]
struct Block {
    /// The block's bytes.
    len: usize,
    /// Bytes per value.
    width: usize,
    /// Entries not yet decoded.
    entries: usize,
    /// Row headers not yet read.
    rows: usize,
    /// Whether no row header has been read yet.
    first_row: bool,
    /// Entries of the current row not yet decoded.
    row_left: usize,
    /// Whether the current row's next column code is its first column.
    fresh: bool,
    /// The next code's index, its bytes' offset and the next value's.
    code: usize,
    data: usize,
    value: usize,
}

/// The codes of a block being read: control bits from
/// [`BLOCK_HEADER_BYTES`] on, the next code `code` at byte `data`.
struct Codes<'a> {
    block: &'a [u8],
    code: usize,
    data: usize,
}

impl Codes<'_> {
    /// The next code. Branch-free: one control-bit lookup and one 4-byte
    /// load, masked to the code's length.
    #[inline(always)]
    fn next(&mut self) -> u32 {
        let ctrl = self.block[BLOCK_HEADER_BYTES + self.code / 4];
        let len = usize::from(ctrl >> (2 * (self.code % 4)) & 3) + 1;
        let word = match self.block.get(self.data..self.data + 4) {
            Some(w) => u32::from_le_bytes(w.try_into().expect("4 bytes")),
            None => load_tail(self.block, self.data),
        };
        self.code += 1;
        self.data += len;
        word & (u32::MAX >> (32 - 8 * len))
    }
}

/// The up to four bytes of `bytes` from `at` on as a little-endian word,
/// zero-padded: a code at the very end of the input.
#[cold]
fn load_tail(bytes: &[u8], at: usize) -> u32 {
    let mut word = [0u8; 4];
    let tail = bytes.get(at..).unwrap_or_default();
    let n = tail.len().min(4);
    word[..n].copy_from_slice(&tail[..n]);
    u32::from_le_bytes(word)
}

/// The code bytes `ctrl` describes for `codes` codes: each code's 2-bit
/// length field plus one. Errors if a field past the last code is set.
fn code_bytes(ctrl: &[u8], codes: usize) -> Result<usize, StreamError> {
    let fields = |x: u64| {
        (x & 0x5555_5555_5555_5555).count_ones() + 2 * (x & 0xaaaa_aaaa_aaaa_aaaa).count_ones()
    };
    let mut sum = codes;
    let mut words = ctrl.chunks_exact(8);
    for w in &mut words {
        sum += fields(u64::from_le_bytes(w.try_into().expect("8 bytes"))) as usize;
    }
    for &b in words.remainder() {
        sum += fields(u64::from(b)) as usize;
    }
    let used = codes % 4;
    if used > 0 && ctrl.last().is_some_and(|&b| b >> (2 * used) != 0) {
        return Err(StreamError::Io(format!(
            "partial block has control bits past its {codes} codes"
        )));
    }
    Ok(sum)
}

impl BodyDecoder {
    fn new(blocks: bool, rows: u64, cols: u64, nnz: u64) -> Self {
        BodyDecoder {
            blocks,
            rows,
            cols,
            band: 0..rows,
            row: None,
            col: 0,
            unopened: nnz,
            block: Block::default(),
        }
    }

    /// Decodes up to `want` entries from the front of `bytes` — which
    /// holds the whole body from the decoder's position on when `tail` —
    /// into `group`, and returns how many came and how many bytes of
    /// `bytes` they finished with. A block is decoded only once it is
    /// in `bytes` whole; bytes of a block that is not yet done are not
    /// counted, so the next call must hand them in again.
    fn decode(
        &mut self,
        bytes: &[u8],
        tail: bool,
        want: usize,
        group: &mut RowGroup,
    ) -> Result<(usize, usize), StreamError> {
        if !self.blocks {
            return self.decode_raw(bytes, tail, want, group);
        }
        let (mut got, mut at) = (0, 0);
        while got < want {
            if self.block.entries == 0 {
                match self.open_block(&bytes[at..], tail)? {
                    Some(block) => self.block = block,
                    None => break,
                }
            }
            let len = self.block.len;
            got += self.decode_block(&bytes[at..at + len], want - got, group)?;
            if self.block.entries == 0 {
                at += len;
            }
        }
        Ok((got, at))
    }

    /// The block at the front of `bytes`, validated, or `None` when
    /// `bytes` does not hold it whole yet (an error at the tail).
    fn open_block(&mut self, bytes: &[u8], tail: bool) -> Result<Option<Block>, StreamError> {
        let short = || {
            if tail {
                Err(truncated("block"))
            } else {
                Ok(None)
            }
        };
        let Some(h) = bytes.get(..BLOCK_HEADER_BYTES) else {
            return short();
        };
        let rows = usize::from(u16::from_le_bytes([h[0], h[1]]));
        let entries = usize::from(u16::from_le_bytes([h[2], h[3]]));
        if !(1..=GROUP_ENTRIES).contains(&entries) || !(1..=entries).contains(&rows) {
            return Err(StreamError::Io(format!(
                "partial block declares {entries} entries in {rows} rows"
            )));
        }
        if entries as u64 > self.unopened {
            let left = self.unopened;
            return Err(StreamError::Io(format!(
                "partial block declares {entries} entries where {left} are left"
            )));
        }
        let width = match h[4] {
            w @ (1 | 2 | 4 | 8) => usize::from(w),
            w => {
                return Err(StreamError::Io(format!(
                    "partial block has value width {w}"
                )))
            }
        };
        let codes = 2 * rows + entries;
        let data = BLOCK_HEADER_BYTES + codes.div_ceil(4);
        let Some(ctrl) = bytes.get(BLOCK_HEADER_BYTES..data) else {
            return short();
        };
        let value = data + code_bytes(ctrl, codes)?;
        let len = value + entries * width;
        if bytes.len() < len {
            return short();
        }
        self.unopened -= entries as u64;
        Ok(Some(Block {
            len,
            width,
            entries,
            rows,
            first_row: true,
            row_left: 0,
            fresh: false,
            code: 0,
            data,
            value,
        }))
    }

    /// Decodes up to `want` entries of the open block, whose bytes
    /// `block` are, into `group`, a row slice at a time; returns how
    /// many came.
    fn decode_block(
        &mut self,
        block: &[u8],
        want: usize,
        group: &mut RowGroup,
    ) -> Result<usize, StreamError> {
        let mut b = self.block;
        let mut codes = Codes {
            block,
            code: b.code,
            data: b.data,
        };
        let mut got = 0;
        while got < want && b.entries > 0 {
            if b.row_left == 0 {
                self.next_row(&mut b, &mut codes)?;
            }
            let row = self.row.expect("a row is open");
            let n = b.row_left.min(want - got);
            let (cols, values) = group.extend_row(row, n);
            let (mut col, mut from) = (self.col, 0);
            if b.fresh {
                col = u64::from(codes.next());
                cols[0] = col as Index;
                (b.fresh, from) = (false, 1);
            }
            let mut zero = false;
            for slot in &mut cols[from..] {
                let delta = codes.next();
                zero |= delta == 0;
                col += u64::from(delta);
                *slot = col as Index;
            }
            if zero {
                return Err(StreamError::Io(format!(
                    "partial row {row} has a zero column delta"
                )));
            }
            if col >= self.cols || col > u64::from(Index::MAX) {
                return Err(self.stray(row.into(), col));
            }
            self.col = col;
            let end = b.value + n * b.width;
            get_values(&block[b.value..end], values, b.width);
            b.value = end;
            b.row_left -= n;
            b.entries -= n;
            got += n;
        }
        (b.code, b.data) = (codes.code, codes.data);
        self.block = b;
        Ok(got)
    }

    /// Reads the next row header of block `b` and makes its row the
    /// decoder's: a row after the last, or — on the block's first row,
    /// with a zero delta — the last row going on.
    fn next_row(&mut self, b: &mut Block, codes: &mut Codes) -> Result<(), StreamError> {
        let (drow, n) = (codes.next(), codes.next() as usize);
        let last = b.rows == 1;
        if n == 0 || n > b.entries || (last && n != b.entries) {
            return Err(StreamError::Io(format!(
                "partial block row declares {n} entries where {} are left in {} rows",
                b.entries, b.rows
            )));
        }
        let going_on = b.first_row && drow == 0 && self.row.is_some();
        let row = match self.row {
            Some(prev) if going_on => u64::from(prev),
            Some(prev) if drow == 0 => {
                return Err(StreamError::Io(format!(
                    "partial block has a zero row delta after row {prev}"
                )))
            }
            Some(prev) => u64::from(prev) + u64::from(drow),
            None => u64::from(drow),
        };
        if row.wrapping_sub(self.band.start) >= self.band.end - self.band.start
            || row > u64::from(Index::MAX)
        {
            return Err(self.stray(row, 0));
        }
        b.fresh = !going_on;
        (b.first_row, b.rows, b.row_left) = (false, b.rows - 1, n);
        self.row = Some(row as Index);
        Ok(())
    }

    /// Decodes up to `want` raw entries from the front of `bytes`, each
    /// held to the shape, the band and strictly increasing `(row, col)`
    /// order; returns how many came and the bytes they took.
    fn decode_raw(
        &mut self,
        bytes: &[u8],
        tail: bool,
        want: usize,
        group: &mut RowGroup,
    ) -> Result<(usize, usize), StreamError> {
        let n = want.min(bytes.len() / RAW_ENTRY_BYTES as usize);
        if n < want && tail {
            return Err(truncated("entry"));
        }
        for e in bytes.chunks_exact(RAW_ENTRY_BYTES as usize).take(n) {
            let half = |at: usize| u32::from_le_bytes(e[at..at + 4].try_into().expect("4 bytes"));
            let (r, c) = (half(0), u64::from(half(4)));
            let bits = u64::from_le_bytes(e[8..].try_into().expect("8 bytes"));
            let same = self.row == Some(r);
            if (same && c <= self.col) || self.row.is_some_and(|p| r < p) {
                return Err(StreamError::Io(format!(
                    "partial entries not in strictly increasing (row, col) order at ({r}, {c})"
                )));
            }
            let row = u64::from(r);
            if row.wrapping_sub(self.band.start) >= self.band.end - self.band.start
                || c >= self.cols
            {
                return Err(self.stray(row, c));
            }
            (self.row, self.col) = (Some(r), c);
            let (cols, values) = group.extend_row(r, 1);
            (cols[0], values[0]) = (c as Index, f64::from_bits(bits));
        }
        Ok((n, n * RAW_ENTRY_BYTES as usize))
    }

    /// The error for a coordinate outside the index space, the shape or
    /// the band.
    #[cold]
    fn stray(&self, row: u64, col: u64) -> StreamError {
        let (rows, cols, band) = (self.rows, self.cols, &self.band);
        let max = u64::from(Index::MAX);
        StreamError::Io(if row > max || col > max {
            format!("partial coordinate ({row}, {col}) overflows the u32 index space")
        } else if row >= rows || col >= cols {
            format!("partial entry ({row}, {col}) outside declared shape {rows}x{cols}")
        } else {
            format!("partial entry ({row}, {col}) outside band rows {band:?}")
        })
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

/// Streams a spilled partial back a row slice at a time through a
/// bounded read buffer, whichever format the writer chose.
#[derive(Debug)]
pub struct SpillReader<R = File> {
    buf: SpillBuf<R>,
    /// The header's format and shape and where decoding stands: a
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
            let body = decode_header(&header)?;
            src.seek(SeekFrom::Start(from.offset))?;
            Ok((src, body))
        };
        let (src, mut body) = open().map_err(|e| with_path(path, e))?;
        // The entry after a mark starts a row after the mark's.
        body.row = (from.entries > 0).then_some(from.prev_row);
        body.band = index.row(marks.start) as u64..index.row(marks.end) as u64;
        body.unopened = to.entries - from.entries;
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
        let body = header.map_err(|e| with_path(path, e))?;
        buf.consume(HEADER_BYTES as usize);
        Ok(SpillReader {
            buf,
            remaining: body.unopened,
            body,
            body_bytes: len.saturating_sub(HEADER_BYTES),
            path: path.to_path_buf(),
        })
    }

    /// Declared shape of the spilled partial.
    pub fn shape(&self) -> (usize, usize) {
        (self.body.rows as usize, self.body.cols as usize)
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
    /// group's last row may go on in the next one. Each buffered window
    /// holds a worst-case block or the file's tail; errors name the file.
    pub fn next_rows(&mut self, max: usize, group: &mut RowGroup) -> Result<usize, StreamError> {
        group.clear();
        let take = max.min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        let SpillReader {
            buf, body, path, ..
        } = self;
        let mut got = 0usize;
        while got < take {
            let (window, tail) = buf
                .window(MAX_BLOCK_BYTES)
                .map_err(|e| with_path(path, e))?;
            let (n, used) = body
                .decode(window, tail, take - got, group)
                .map_err(|e| with_path(path, e))?;
            debug_assert!(n > 0, "a window holds a whole block");
            buf.consume(used);
            got += n;
        }
        self.remaining -= take as u64;
        Ok(take)
    }

    /// Drains the whole file into a CSR — the non-streaming fallback used
    /// when a spilled partial *is* the final result.
    ///
    /// The header's entry count sizes the result's arrays, so it is first
    /// held against the body bytes the file held when opened: a header
    /// that lies is an error naming the file, not an allocation.
    pub fn read_all(mut self) -> Result<Csr, StreamError> {
        let (rows, cols) = self.shape();
        let fits = check_entry_count(self.body.blocks, self.remaining, self.body_bytes);
        fits.map_err(|e| with_path(&self.path, e))?;
        let nnz = self.remaining as usize;
        let mut b = CsrBuilder::with_capacity(rows, cols, nnz);
        let mut group = RowGroup::with_capacity(GROUP_ENTRIES.min(nnz));
        while self.next_rows(GROUP_ENTRIES, &mut group)? > 0 {
            append_rows(&mut b, &group);
        }
        Ok(b.finish())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use sparch_sparse::{gen, linalg, Triple};

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
        // An empty partial is header-only in both formats, so the block
        // format is not strictly smaller and the writer must emit the
        // raw magic.
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
    /// (size 1 decodes the whole file one entry at a time, stopping
    /// inside every block) and the wire's `decode_partial`.
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
                let expected = bits(m);
                for cap in [1usize, 7, GROUP_ENTRIES] {
                    let got = drain_rows(SpillReader::open(&path).unwrap(), cap).unwrap();
                    assert_eq!(got, expected, "{tag} {codec} next_rows {cap}");
                }
                let all = SpillReader::open(&path).unwrap().read_all().unwrap();
                assert_eq!(bits(&all), expected);
                let wire = decode_partial(&std::fs::read(&path).unwrap()).unwrap();
                assert_eq!(bits(&wire), expected);
            }
        }
    }

    /// `m`'s entries as `(row, col, value bits)`.
    fn bits(m: &Csr) -> Vec<(Index, Index, u64)> {
        m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect()
    }

    /// The block format's codes come back at every length boundary, and
    /// its values at every width: the narrowest width is chosen, signed
    /// zeros stay integer lanes, and anything else that is not an integer
    /// below 2³¹ in magnitude — NaN, the infinities, `±2³¹`, fractions,
    /// subnormals — makes the block raw.
    #[test]
    fn codes_and_values_round_trip_at_every_width() {
        let codes = [
            0u32,
            1,
            0xff,
            0x100,
            0xffff,
            0x1_0000,
            0xff_ffff,
            0x100_0000,
            u32::MAX,
        ];
        let mut buf = vec![0u8; block_room(codes.len())];
        let data = BLOCK_HEADER_BYTES + codes.len().div_ceil(4);
        let mut w = CodeWriter {
            buf: &mut buf,
            ctrl: BLOCK_HEADER_BYTES,
            code: 0,
            data,
        };
        codes.iter().for_each(|&x| w.put(x));
        let end = w.data;
        assert_eq!(end - data, 1 + 1 + 1 + 2 + 2 + 3 + 3 + 4 + 4);
        let ctrl = &buf[BLOCK_HEADER_BYTES..data];
        assert_eq!(code_bytes(ctrl, codes.len()).unwrap(), end - data);
        // Read back from a slice that ends with the last code, so the
        // last loads take the zero-padded tail path.
        let mut r = Codes {
            block: &buf[..end],
            code: 0,
            data,
        };
        for &x in &codes {
            assert_eq!(r.next(), x);
        }
        let cases: [(&[f64], usize); 9] = [
            (&[0.0, -0.0, 1.0, -1.0, 127.0, -127.0], 1),
            (&[128.0, -3.0], 2),
            (&[-32767.0, 32767.0, -0.0], 2),
            (&[32768.0, 0.0], 4),
            (&[2147483647.0, -2147483647.0], 4),
            (&[1.0, -2147483648.0], 8),
            (&[1.0, 2147483648.0], 8),
            (&[0.5, -0.0], 8),
            (&[f64::NAN, f64::INFINITY, f64::MIN_POSITIVE / 4.0], 8),
        ];
        for (values, width) in cases {
            assert_eq!(value_width(values), width, "{values:?}");
            let mut bytes = vec![0u8; values.len() * width];
            put_values(&mut bytes, values, width);
            let mut back = vec![0.0; values.len()];
            get_values(&bytes, &mut back, width);
            let b = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(b(&back), b(values), "{values:?}");
        }
    }

    /// A file that is not a partial, and an `SPM2` file — the delta and
    /// LEB128 format this one replaced — are both bad magic.
    #[test]
    fn bad_magic_is_an_io_error() {
        let dir = TempDir::new("spill_badmagic");
        let path = dir.file("badmagic.bin");
        std::fs::write(&path, [0u8; 64]).unwrap();
        assert!(matches!(SpillReader::open(&path), Err(StreamError::Io(_))));
        let mut spm2 = header(0x5350_4d32, 1);
        spm2.extend_from_slice(&[1, 2, 0x80, 0x3f]);
        std::fs::write(&path, &spm2).unwrap();
        match SpillReader::open(&path) {
            Err(StreamError::Io(msg)) => assert!(msg.contains("bad partial magic"), "{msg}"),
            other => panic!("expected an Io error, got {other:?}"),
        }
        match decode_partial(&spm2) {
            Err(StreamError::Io(msg)) => assert!(msg.contains("bad partial magic"), "{msg}"),
            other => panic!("expected an Io error, got {other:?}"),
        }
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

    /// A header whose entry count the body cannot hold: `read_all` and
    /// `decode_partial` would size their arrays from it, so they must
    /// refuse first — with the file's name, without the allocation
    /// (`u64::MAX / 2` entries would abort on capacity overflow, a few
    /// billion would take the host's memory) — while an honest count
    /// still reads back whole. The floor is the format's true minimum,
    /// 2¼ bytes per block entry: one entry past it is refused up front,
    /// one at it gets past the floor and fails on the body instead.
    #[test]
    fn a_lying_entry_count_fails_read_all_before_it_allocates() {
        let dir = TempDir::new("spill_fat_nnz");
        let m = gen::uniform_random(8, 8, 20, 1);
        let ints = linalg::map_values(&m, |v| (v * 4.0).round());
        for (codec, m) in [(SpillCodec::Raw, &m), (SpillCodec::Varint, &ints)] {
            let name = format!("fat_{codec}.bin");
            let path = dir.file(&name);
            let file = write_partial(&path, m, codec).unwrap();
            assert_eq!(SpillReader::open(&path).unwrap().read_all().unwrap(), *m);
            let honest = std::fs::read(&path).unwrap();
            let quarters = if codec == SpillCodec::Raw {
                4 * RAW_ENTRY_BYTES
            } else {
                assert_eq!(honest[..4], MAGIC_BLOCKS.to_le_bytes());
                MIN_ENTRY_QUARTERS
            };
            let floor = 4 * (file.bytes - HEADER_BYTES) / quarters;
            let mut lies = vec![(u64::MAX / 2, true), (1 << 33, true), (floor + 1, true)];
            if codec == SpillCodec::Varint {
                assert!(
                    floor > m.nnz() as u64,
                    "the honest count is below the floor"
                );
                lies.push((floor, false));
            }
            for (lie, refused) in lies {
                let mut bytes = honest.clone();
                bytes[20..28].copy_from_slice(&lie.to_le_bytes());
                std::fs::write(&path, &bytes).unwrap();
                let results = [
                    ("read_all", SpillReader::open(&path).unwrap().read_all()),
                    ("decode_partial", decode_partial(&bytes)),
                ];
                for (what, result) in results {
                    match result {
                        Err(StreamError::Io(msg)) => assert!(
                            msg.contains("body bytes") == refused
                                && (what == "decode_partial" || msg.contains(&name)),
                            "{codec} {what} {lie}: {msg}"
                        ),
                        other => {
                            panic!("{codec} {what} {lie}: expected an Io error, got {other:?}")
                        }
                    }
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
                assert_eq!(bits(&back), bits(m), "{tag} {codec}");
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
            assert!(n <= cap && n == group.len());
            let (mut at, mut prev) = (0, None);
            while let Some(row) = group.head(at) {
                assert!(prev < Some(row), "group row {at} repeats a row");
                assert!(group.row_len(at) > 0, "group row {at} is empty");
                group.feed(&mut at, |c, v| got.push((row, c, v.to_bits())));
                prev = Some(row);
            }
        }
        assert_eq!(reader.remaining(), 0);
        Ok(got)
    }

    /// Writes `bytes` — a 4×4 partial — as a spill file and drives every
    /// read path over it: row-group decode at several group sizes,
    /// `read_all`, a band reader over the whole file, and the wire's
    /// `decode_partial` on the same bytes. Each must fail with an `Io`
    /// error naming `needle` (and, from a file, the file), never finish,
    /// panic or hang.
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
        let nnz = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
        let mark = |offset, entries| Mark {
            offset,
            entries,
            prev_row: 0,
        };
        let file = SpillFile {
            path: path.clone(),
            bytes: bytes.len() as u64,
            shape: (4, 4),
            index: RowIndex {
                rows: 4,
                stride: 4,
                marks: vec![mark(HEADER_BYTES, 0), mark(bytes.len() as u64, nnz)],
            },
        };
        let band = SpillReader::open_band(&file, 0..1);
        check("open_band", band.and_then(|r| drain_rows(r, 7)).map(|_| ()));
    }

    /// One row of a hand-built block: its row delta, the entry count its
    /// header declares and its column codes.
    #[derive(Debug, Clone)]
    pub(crate) struct RefRow {
        drow: u32,
        n: u32,
        cols: Vec<u32>,
    }

    /// A row whose header declares the columns it holds.
    fn row(drow: u32, cols: &[u32]) -> RefRow {
        RefRow {
            drow,
            n: cols.len() as u32,
            cols: cols.to_vec(),
        }
    }

    /// One block of the reference encoding, field by field.
    #[derive(Debug, Clone)]
    pub(crate) struct RefBlock {
        rows: Vec<RefRow>,
        values: Vec<f64>,
    }

    impl RefBlock {
        /// The block's bytes, spelled out code by code: the header, the
        /// control bits, every code in as many bytes as it needs, and
        /// the values at the block's width.
        fn bytes(&self) -> Vec<u8> {
            let codes: Vec<u32> = (self.rows.iter())
                .flat_map(|r| [r.drow, r.n].into_iter().chain(r.cols.iter().copied()))
                .collect();
            let mut ctrl = vec![0u8; codes.len().div_ceil(4)];
            let mut data = Vec::new();
            for (k, &x) in codes.iter().enumerate() {
                let len = match x {
                    0..=0xff => 1,
                    0x100..=0xffff => 2,
                    0x1_0000..=0xff_ffff => 3,
                    _ => 4,
                };
                ctrl[k / 4] |= ((len - 1) << (2 * (k % 4))) as u8;
                data.extend_from_slice(&x.to_le_bytes()[..len]);
            }
            let width = self.width();
            let mut out = (self.rows.len() as u16).to_le_bytes().to_vec();
            out.extend_from_slice(&(self.values.len() as u16).to_le_bytes());
            out.push(width as u8);
            out.extend(ctrl);
            out.extend(data);
            for &v in &self.values {
                if width == 8 {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                } else {
                    let lane = ref_lane(v).expect("an integer lane");
                    out.extend_from_slice(&lane.to_le_bytes()[..width]);
                }
            }
            out
        }

        /// The narrowest width that holds every value as twice its
        /// magnitude plus its sign bit when each is an integer below 2³¹
        /// in magnitude, else 8.
        fn width(&self) -> usize {
            let lanes: Option<Vec<u64>> = (self.values.iter()).map(|&v| ref_lane(v)).collect();
            let Some(lanes) = lanes else { return 8 };
            match lanes.into_iter().max().unwrap_or(0) {
                0..=0xff => 1,
                0x100..=0xffff => 2,
                _ => 4,
            }
        }
    }

    /// `2 |v| + sign` when `v` is an integer of magnitude below 2³¹.
    fn ref_lane(v: f64) -> Option<u64> {
        let (mag, sign) = (v.abs(), u64::from(v.is_sign_negative()));
        let whole = mag.fract() == 0.0 && mag < 2f64.powi(31);
        whole.then(|| 2 * mag as u64 + sign)
    }

    /// A block of `rows` holding `values`.
    fn block(rows: Vec<RefRow>, values: &[f64]) -> RefBlock {
        RefBlock {
            rows,
            values: values.to_vec(),
        }
    }

    /// The reference block encoding of `csr`: every mark's span of
    /// entries cut into runs of at most `GROUP_ENTRIES`, and each run's
    /// rows coded from the entry before them, triple by triple.
    pub(crate) fn reference_blocks(csr: &Csr) -> Vec<RefBlock> {
        let stride = mark_stride(csr.rows());
        let triples: Vec<Triple> = csr.iter().collect();
        let (mut blocks, mut prev): (Vec<RefBlock>, Option<(Index, Index)>) = (Vec::new(), None);
        for span in triples.chunk_by(|a, b| a.0 as usize / stride == b.0 as usize / stride) {
            for run in span.chunks(GROUP_ENTRIES) {
                let mut rows = Vec::new();
                for part in run.chunk_by(|a, b| a.0 == b.0) {
                    let (r, c) = (part[0].0, part[0].1);
                    let (drow, first) = match prev {
                        Some((pr, pc)) if pr == r => (0, c - pc),
                        Some((pr, _)) => (r - pr, c),
                        None => (r, c),
                    };
                    let deltas = part.windows(2).map(|w| w[1].1 - w[0].1);
                    let cols: Vec<u32> = std::iter::once(first).chain(deltas).collect();
                    rows.push(row(drow, &cols));
                    prev = Some((r, part[part.len() - 1].1));
                }
                let values: Vec<f64> = run.iter().map(|t| t.2).collect();
                blocks.push(block(rows, &values));
            }
        }
        blocks
    }

    /// A partial's bytes: the header for `rows × cols` and `nnz`
    /// entries, then `blocks`.
    fn blocks_partial(rows: usize, cols: usize, nnz: usize, blocks: &[RefBlock]) -> Vec<u8> {
        let mut out = MAGIC_BLOCKS.to_le_bytes().to_vec();
        for word in [rows, cols, nnz] {
            out.extend_from_slice(&(word as u64).to_le_bytes());
        }
        blocks.iter().for_each(|b| out.extend(b.bytes()));
        out
    }

    /// The block encoding of `m` with the row delta of the row that
    /// holds entry `entry` raised by 127, so that row and every later
    /// one land past any shape of fewer than 127 rows. The delta stays a
    /// 1-byte code, so the bytes are as long as the honest encoding and
    /// its row index still holds.
    pub(crate) fn with_row_shifted_at(m: &Csr, entry: usize) -> Vec<u8> {
        let mut blocks = reference_blocks(m);
        let mut before = 0;
        let row = (blocks.iter_mut().flat_map(|b| &mut b.rows))
            .find(|r| {
                before += r.cols.len();
                before > entry
            })
            .expect("entry inside the partial");
        assert!(row.drow < 128, "a 1-byte row delta");
        row.drow += 127;
        let bytes = blocks_partial(m.rows(), m.cols(), m.nnz(), &blocks);
        assert_eq!(bytes.len(), encode_partial(m, SpillCodec::Varint).len());
        bytes
    }

    /// The 4×4 partial every hand-built block case damages: rows 0 and
    /// 2, `[[0, 1, 0, 2], [0; 4], [3, 0, 4, 5], [0; 4]]`, in one block.
    fn two_rows() -> RefBlock {
        block(
            vec![row(0, &[1, 2]), row(2, &[0, 2, 1])],
            &[1.0, 2.0, 3.0, 4.0, 5.0],
        )
    }

    /// Each field of a block damaged on its own fails every read path
    /// with its own error: a block entry count that lies either way, a
    /// row count that lies, a row's entry count past the block's, control
    /// bits past the last code, control lengths past the input, an
    /// unknown value width, a zero row delta after a block's first row,
    /// a zero column delta and a column past `cols`.
    #[test]
    fn every_block_field_corruption_fails_every_read_path() {
        let dir = TempDir::new("spill_block_fields");
        let honest = blocks_partial(4, 4, 5, &[two_rows()]);
        let want = Csr::try_new(
            4,
            4,
            vec![0, 2, 2, 5, 5],
            vec![1, 3, 0, 2, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        );
        assert_eq!(decode_partial(&honest).unwrap(), want.unwrap());
        let at = HEADER_BYTES as usize;
        let patched = |bytes: &[u8], offset: usize, byte: u8| {
            let mut bytes = bytes.to_vec();
            bytes[at + offset] = byte;
            bytes
        };
        // 4 entries in 8 codes: a count of 3 keeps the two control bytes,
        // so the rows' counts, not the layout, give the lie away.
        let four = block(vec![row(0, &[1, 2]), row(2, &[0, 2])], &[1.0; 4]);
        let four = blocks_partial(4, 4, 4, &[four]);
        let mut past_count = two_rows();
        past_count.rows[1].n = 4;
        let mut zero_drow = two_rows();
        zero_drow.rows[1].drow = 0;
        let mut zero_col = two_rows();
        zero_col.rows[1].cols[2] = 0;
        let mut wide_col = two_rows();
        wide_col.rows[1].cols[2] = 2;
        // 9 codes: the third control byte holds one field.
        let ctrl_tail = BLOCK_HEADER_BYTES + 2;
        let cases: [(&str, Vec<u8>, &str); 10] = [
            (
                "entries_more.bin",
                patched(&honest, 2, 6),
                "declares 6 entries where 5 are left",
            ),
            (
                "entries_fewer.bin",
                patched(&four, 2, 3),
                "row declares 2 entries where 1",
            ),
            (
                "row_count.bin",
                blocks_partial(4, 4, 5, &[past_count]),
                "row declares 4 entries",
            ),
            (
                "ctrl_past.bin",
                patched(&honest, ctrl_tail, 0b0100),
                "control bits past",
            ),
            (
                "ctrl_long.bin",
                patched(&honest, BLOCK_HEADER_BYTES, 0xff),
                "truncated mid-block",
            ),
            ("width.bin", patched(&honest, 4, 3), "value width 3"),
            (
                "zero_drow.bin",
                blocks_partial(4, 4, 5, &[zero_drow]),
                "zero row delta",
            ),
            (
                "zero_col.bin",
                blocks_partial(4, 4, 5, &[zero_col]),
                "zero column delta",
            ),
            (
                "wide_col.bin",
                blocks_partial(4, 4, 5, &[wide_col]),
                "outside declared shape",
            ),
            (
                "no_rows.bin",
                patched(&honest, 0, 0),
                "declares 5 entries in 0 rows",
            ),
        ];
        for (name, bytes, needle) in cases {
            assert_every_read_path_fails(&dir, name, &bytes, needle);
        }
    }

    /// A row delta damaged so that a row lands past the declared shape,
    /// on the partial's first row, a middle one and its last.
    #[test]
    fn a_flipped_row_delta_fails_every_read_path() {
        let dir = TempDir::new("spill_flipped");
        for k in 0..3 {
            let mut rows = vec![row(0, &[1]), row(1, &[2]), row(2, &[3])];
            rows[k].drow += 4;
            let bytes = blocks_partial(4, 4, 3, &[block(rows, &[1.0; 3])]);
            assert_every_read_path_fails(&dir, "flipped.bin", &bytes, "outside declared shape");
        }
    }

    /// A column delta zeroed inside a row, and on the first entry of a
    /// row going on from the block before, repeats its predecessor's
    /// coordinate.
    #[test]
    fn a_zeroed_column_delta_fails_every_read_path() {
        let dir = TempDir::new("spill_repeat");
        let mut inside = two_rows();
        inside.rows[0].cols[1] = 0;
        let going_on = [
            block(vec![row(1, &[0, 1])], &[1.0, 2.0]),
            block(vec![row(0, &[0, 1])], &[3.0, 4.0]),
        ];
        for bytes in [
            blocks_partial(4, 4, 5, &[inside]),
            blocks_partial(4, 4, 4, &going_on),
        ] {
            assert_every_read_path_fails(&dir, "repeat.bin", &bytes, "zero column delta");
        }
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

    /// Row and column sums that leave the `u32` index space are errors,
    /// never wrapped coordinates — on a file that ends with the damaged
    /// block and on one padded past it.
    #[test]
    fn coordinate_overflow_fails_every_read_path() {
        let dir = TempDir::new("spill_overflow");
        for (name, rows) in [
            ("row_sum.bin", vec![row(1, &[2]), row(u32::MAX, &[0])]),
            ("col_sum.bin", vec![row(1, &[2]), row(1, &[1, u32::MAX])]),
        ] {
            let nnz = rows.iter().map(|r| r.cols.len()).sum();
            let values = vec![1.0; nnz];
            let mut bytes = blocks_partial(4, 4, nnz, &[block(rows, &values)]);
            assert_every_read_path_fails(&dir, name, &bytes, "overflows the u32 index space");
            bytes.extend_from_slice(&[0u8; 64]);
            assert_every_read_path_fails(&dir, name, &bytes, "overflows the u32 index space");
        }
    }

    /// One row of `3 · GROUP_ENTRIES + 100` entries between occupied
    /// rows, in a partial with a mark at every row: its blocks go on
    /// from one another inside the row, and integer and full-mantissa
    /// blocks alternate. `next_rows` at every cap, and a band reader
    /// between every pair of marks, read exactly what `read_all` does.
    #[test]
    fn a_long_row_across_blocks_and_marks_reads_the_same_every_way() {
        let dir = TempDir::new("spill_long_row");
        let long = 3 * GROUP_ENTRIES + 100;
        let mut entries = Vec::new();
        for r in 0..8u32 {
            let n = if r == 3 { long } else { 3 + r as usize };
            for c in 0..n as u32 {
                // Full-mantissa values in the long row's second block.
                let v = if r == 3 && (1024..2048).contains(&c) {
                    0.1 * f64::from(c)
                } else {
                    f64::from(c % 7) - 3.0
                };
                entries.push((r, 2 * c + r % 2, v));
            }
        }
        let m = partial(8, 2 * long + 2, entries);
        let path = dir.file("long.bin");
        let file = write_partial(&path, &m, SpillCodec::Varint).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[..4], MAGIC_BLOCKS.to_le_bytes());
        let blocks = reference_blocks(&m);
        assert_eq!(blocks.len(), 8 + 3, "the long row spans four blocks");
        assert!(blocks.iter().any(|b| b.width() == 8) && blocks.iter().any(|b| b.width() == 1));
        let all = bits(&SpillReader::open(&path).unwrap().read_all().unwrap());
        assert_eq!(all, bits(&m));
        for cap in [1, 7, GROUP_ENTRIES] {
            let got = drain_rows(SpillReader::open(&path).unwrap(), cap).unwrap();
            assert_eq!(got, all, "next_rows {cap}");
        }
        assert_eq!(file.index.spans(), 8);
        for lo in 0..=8 {
            for hi in lo..=8 {
                let want: Vec<_> = (all.iter().copied())
                    .filter(|t| (lo..hi).contains(&(t.0 as usize)))
                    .collect();
                assert_eq!(drain_band(&file, lo, hi).unwrap(), want, "marks {lo}..{hi}");
            }
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
    /// compact mid-block.
    fn large_encodings() -> Vec<(String, Csr, Vec<u8>)> {
        let float = gen::uniform_random(600, 600, 32_000, 31);
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
            let expected = bits(&m);
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
                assert_eq!(bits(&all), expected, "{case} read_all");
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

    /// The plain reference the one-pass writer must match: the
    /// [`reference_blocks`] spelled out field by field, raw entry by
    /// entry when the blocks are not strictly smaller than raw — the
    /// byte-identity oracle for disk and wire.
    fn reference_encoding(csr: &Csr, codec: SpillCodec) -> Vec<u8> {
        let blocks = blocks_partial(csr.rows(), csr.cols(), csr.nnz(), &reference_blocks(csr));
        if codec == SpillCodec::Varint && (blocks.len() as u64) < raw_size(csr) {
            return blocks;
        }
        let mut out = MAGIC_RAW.to_le_bytes().to_vec();
        out.extend_from_slice(&blocks[4..HEADER_BYTES as usize]);
        for (r, c, v) in csr.iter() {
            out.extend_from_slice(&raw_entry(r, c, v));
        }
        out
    }

    /// Four full-mantissa entries 2¹⁴ rows apart at columns ≥ 2²⁷, each
    /// in a block of its own: 5 (header) + 1 (control) + 2 (row delta) +
    /// 1 (count) + 4 (column) + 8 (value) bytes, above raw's 16, so a
    /// block request falls back to raw.
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

    /// A small-integer partial whose block encoding runs over several
    /// chunks.
    fn multi_chunk_partial() -> Csr {
        let m = linalg::map_values(&gen::uniform_random(4000, 128, 120_000, 23), |_| 1.0);
        let bytes = reference_encoding(&m, SpillCodec::Varint);
        assert_eq!(bytes[..4], MAGIC_BLOCKS.to_le_bytes());
        assert!(bytes.len() > 2 * CHUNK_BYTES);
        m
    }

    /// The one-pass writer is byte for byte the plain reference encoder —
    /// on disk and on the wire, under both codecs — over the generators
    /// with full-mantissa and small-integer values, an empty partial,
    /// one that falls back to raw, and one whose encoding runs over
    /// several chunks.
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
            ("long rows", gen::uniform_random(40, 5000, 100_000, 8)),
        ];
        let mut cases = Vec::new();
        for (tag, m) in grid {
            // Integer values 1, 2 and 4 bytes wide as lanes.
            for (ints, scale) in [("int", 4.0), ("wide int", 1000.0), ("huge int", 70_000.0)] {
                let int = linalg::map_values(&m, |v| (v * scale).round());
                cases.push((format!("{tag} {ints}"), int));
            }
            cases.push((format!("{tag} float"), m));
        }
        cases.push(("empty".into(), Csr::zero(6, 9)));
        cases.push(("empty, no rows".into(), Csr::zero(0, 0)));
        cases.push(("fallback".into(), fallback_partial()));
        cases.push(("multi-chunk".into(), multi_chunk_partial()));
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
            let blocks = blocks_partial(m.rows(), m.cols(), m.nnz(), &reference_blocks(m));
            assert_eq!(varint_size(m), blocks.len() as u64, "{tag}");
        }
    }

    /// A block encoding that reaches its limit stops there: nothing
    /// from the limit on reaches the sink, and no index is returned.
    #[test]
    fn an_encoding_at_its_limit_is_abandoned_before_the_limit_is_handed_on() {
        let m = multi_chunk_partial();
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
    /// blocks and raw (the fallback rewrite included).
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
                let want: Vec<_> = bits(&m)
                    .into_iter()
                    .filter(|(r, _, _)| rows.contains(&(*r as usize)))
                    .collect();
                let got = drain_band(&file, lo, hi).unwrap();
                assert_eq!(got, want, "{tag}: marks {lo}..{hi}");
            }
        }
    }

    /// A row delta damaged inside a band takes its row past the band's
    /// rows: the band reader fails with the file's path, while a band
    /// that starts after the damage still reads clean.
    #[test]
    fn a_damaged_row_delta_inside_a_band_fails_with_the_path() {
        let dir = TempDir::new("spill_band_damage");
        let path = dir.file("band.bin");
        let m = linalg::map_values(&gen::uniform_random(64, 64, 2000, 21), |_| 1.0);
        let file = write_partial(&path, &m, SpillCodec::Varint).unwrap();
        // A mark per row, so a block per row: raise the delta of a row
        // in the middle by one, onto the next band's first row.
        assert_eq!(file.index.stride, 1);
        let mut blocks = reference_blocks(&m);
        let k = blocks.len() / 2;
        blocks[k].rows[0].drow += 1;
        let first = m.iter().map(|t| t.0).collect::<Vec<_>>();
        let row = first[blocks[..k].iter().map(|b| b.values.len()).sum::<usize>()] as usize;
        std::fs::write(&path, blocks_partial(64, 64, m.nnz(), &blocks)).unwrap();
        match drain_band(&file, row, row + 1) {
            Err(StreamError::Io(msg)) => assert!(
                msg.contains("band.bin") && msg.contains("outside band rows"),
                "{msg}"
            ),
            other => panic!("expected an Io error, got {other:?}"),
        }
        let after = row + 1..64;
        let want: Vec<_> = bits(&m)
            .into_iter()
            .filter(|(r, _, _)| after.contains(&(*r as usize)))
            .collect();
        assert_eq!(drain_band(&file, row + 1, 64).unwrap(), want);
    }
}

//! Streaming k-way merge of partial matrices.
//!
//! Each merge round consumes up to `ways` partials — resident CSRs or
//! spilled-partial readers — as sorted `(row, col)` streams and folds
//! them into one partial, summing duplicate coordinates. This is the
//! software analogue of the paper's comparator-array merge tree: the
//! inputs are sorted COO streams, the output is a sorted COO stream, and
//! entries that fold to zero are **kept** (zero elimination is a
//! separate, explicit stage everywhere in this repository).
//!
//! The kernel is built for throughput, mirroring how the paper's merger
//! is a wide comparator array rather than a one-comparator heap:
//!
//! * **Chunked sources.** [`PartialSource::next_chunk`] decodes sources
//!   in batches into reused scratch columns — packed
//!   `(row << 32) | col` keys plus values — so the inner merge loop
//!   compares single `u64`s and never touches the decoder. Spilled
//!   partials batch-decode whole buffered spans (branch-free LEB128 in
//!   `spill.rs`); resident CSRs are walked with the row scan amortized
//!   per chunk instead of per triple.
//! * **Loser tree.** The k-way fold replaces the seed's `BinaryHeap` +
//!   `Option` accumulator with a tournament (loser) tree: advancing the
//!   winner replays exactly one root-to-leaf path — `log₂ k` branchless
//!   comparisons, no sift-down, no per-triple allocation.
//! * **Galloping two-way fast path.** `ways == 2` rounds (the most
//!   common plan shape) skip the tree entirely: two cursors, with runs
//!   of non-overlapping keys located by exponential-then-binary search
//!   and copied out in bulk.
//! * **Pre-sized output.** `merge_sources` pre-sizes its [`CsrBuilder`]
//!   from the summed source nnz (an exact upper bound), so the output
//!   never reallocates mid-merge.
//!
//! Determinism: for one set of sources the fold order is fixed — key
//! order by `(row, col)` with ties broken by source position, and source
//! positions come from the Huffman plan — so the merged values are
//! bit-identical regardless of which sources happened to spill and how
//! many threads produced them. The seed heap kernel is kept as
//! [`merge_sources_reference`] and a differential suite pins the two to
//! byte-equal outputs.

use crate::spill::SpillReader;
use crate::StreamError;
use sparch_sparse::{Csr, CsrBuilder, Index, Triple};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Entries decoded per [`PartialSource::next_chunk`] call: 16 KiB of
/// scratch per lane (8 B key + 8 B value), small enough that a full
/// merge fan-in stays well under the allocator-audited slack, large
/// enough to amortize decode and refill overhead.
const CHUNK_ENTRIES: usize = 1024;

/// One sorted input stream of a merge round.
#[derive(Debug)]
pub struct PartialSource(Inner);

#[derive(Debug)]
enum Inner {
    /// A resident partial, iterated in place.
    Mem { csr: Csr, row: usize, pos: usize },
    /// A spilled partial, streamed through a bounded buffer.
    Disk(SpillReader),
}

impl PartialSource {
    /// A source over a resident CSR.
    pub fn from_csr(csr: Csr) -> Self {
        PartialSource(Inner::Mem {
            csr,
            row: 0,
            pos: 0,
        })
    }

    /// A source streaming a spilled partial back from disk.
    pub fn from_spill(reader: SpillReader) -> Self {
        PartialSource(Inner::Disk(reader))
    }

    /// Drains a fresh source into a CSR: a resident one as it is, a
    /// spilled one through [`SpillReader::read_all`].
    pub(crate) fn into_csr(self) -> Result<Csr, StreamError> {
        match self.0 {
            Inner::Mem { csr, .. } => Ok(csr),
            Inner::Disk(reader) => reader.read_all(),
        }
    }

    /// Errors unless the source declares the shape `rows × cols`: a
    /// resident CSR its own, a spilled partial its header (an error that
    /// names the file).
    pub fn expect_shape(&self, rows: usize, cols: usize) -> Result<(), StreamError> {
        match &self.0 {
            Inner::Mem { csr, .. } if (csr.rows(), csr.cols()) != (rows, cols) => {
                Err(StreamError::Shape(format!(
                    "resident partial is {}x{}, expected {rows}x{cols}",
                    csr.rows(),
                    csr.cols()
                )))
            }
            Inner::Mem { .. } => Ok(()),
            Inner::Disk(reader) => reader.expect_shape(rows, cols),
        }
    }

    /// Entries this source has not yet produced — the exact residual
    /// nnz, used to pre-size merge outputs.
    pub fn remaining_nnz(&self) -> usize {
        match &self.0 {
            Inner::Mem { csr, pos, .. } => csr.nnz() - pos,
            Inner::Disk(reader) => reader.remaining() as usize,
        }
    }

    /// The next `(row, col, value)` in row-major order, or `None` — the
    /// per-triple path, used by [`merge_sources_reference`].
    fn next_triple(&mut self) -> Result<Option<Triple>, StreamError> {
        match &mut self.0 {
            Inner::Mem { csr, row, pos } => {
                if *pos >= csr.nnz() {
                    return Ok(None);
                }
                while csr.row_ptr()[*row + 1] <= *pos {
                    *row += 1;
                }
                let t = (*row as u32, csr.col_indices()[*pos], csr.values()[*pos]);
                *pos += 1;
                Ok(Some(t))
            }
            Inner::Disk(reader) => reader.next_triple(),
        }
    }

    /// Decodes up to `max` entries into the caller's scratch columns —
    /// packed `(row << 32) | col` keys plus values — returning how many
    /// were produced (0 only when the source is exhausted). Resident
    /// CSRs amortize the row scan across the chunk; spilled partials
    /// batch-decode through [`SpillReader::next_chunk`].
    pub fn next_chunk(
        &mut self,
        max: usize,
        keys: &mut Vec<u64>,
        vals: &mut Vec<f64>,
    ) -> Result<usize, StreamError> {
        match &mut self.0 {
            Inner::Mem { csr, row, pos } => {
                keys.clear();
                vals.clear();
                let end = pos.saturating_add(max).min(csr.nnz());
                let rp = csr.row_ptr();
                let ci = csr.col_indices();
                let vs = csr.values();
                let mut p = *pos;
                let mut r = *row;
                while p < end {
                    while rp[r + 1] <= p {
                        r += 1;
                    }
                    let stop = rp[r + 1].min(end);
                    let hi = (r as u64) << 32;
                    for j in p..stop {
                        keys.push(hi | ci[j] as u64);
                        vals.push(vs[j]);
                    }
                    p = stop;
                }
                let n = p - *pos;
                *pos = p;
                *row = r;
                Ok(n)
            }
            Inner::Disk(reader) => reader.next_chunk(max, keys, vals),
        }
    }
}

/// One source's decode lane: reused key/value columns plus a cursor.
#[derive(Debug, Default)]
struct Lane {
    keys: Vec<u64>,
    vals: Vec<f64>,
    pos: usize,
}

/// Reusable per-worker scratch for [`merge_sources`]: one decode lane
/// per merge way, kept allocated across rounds so steady-state merging
/// never touches the allocator for scratch.
#[derive(Debug, Default)]
pub struct MergeScratch {
    lanes: Vec<Lane>,
}

impl MergeScratch {
    /// An empty scratch; lanes grow on first use and are then reused.
    pub fn new() -> Self {
        MergeScratch::default()
    }

    fn reset(&mut self, ways: usize) {
        if self.lanes.len() < ways {
            self.lanes.resize_with(ways, Lane::default);
        }
        for lane in &mut self.lanes[..ways] {
            lane.keys.clear();
            lane.vals.clear();
            lane.pos = 0;
        }
    }
}

/// Refills `lane` from `src`; `false` means the source is exhausted.
fn refill(src: &mut PartialSource, lane: &mut Lane) -> Result<bool, StreamError> {
    lane.pos = 0;
    Ok(src.next_chunk(CHUNK_ENTRIES, &mut lane.keys, &mut lane.vals)? > 0)
}

/// Unpacks a key and appends the entry. Every source yields strictly
/// increasing in-shape keys — resident CSRs by invariant, spilled ones
/// because `SpillReader` checks each entry it decodes — so the merged
/// stream does too and this takes the trusted fast path.
fn emit(out: &mut CsrBuilder, key: u64, val: f64) {
    out.push_trusted((key >> 32) as Index, key as u32, val);
}

/// Entries at the front of `keys` strictly below `limit`, found by
/// exponential probe + binary search. `keys[0] < limit` must hold.
fn gallop(keys: &[u64], limit: u64) -> usize {
    debug_assert!(!keys.is_empty() && keys[0] < limit);
    let mut hi = 1usize;
    while hi < keys.len() && keys[hi] < limit {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(keys.len());
    lo + keys[lo..hi].partition_point(|&k| k < limit)
}

/// Merges sorted partial streams into one `rows × cols` partial, folding
/// duplicate coordinates by addition (explicit zeros kept). The output
/// builder is pre-sized from the summed source nnz, an exact upper
/// bound, so it never reallocates mid-merge.
///
/// Every source must declare the merge's own shape
/// ([`PartialSource::expect_shape`]): entries are checked against their
/// source's shape as they are decoded, and the output trusts them to fit.
pub fn merge_sources(
    rows: usize,
    cols: usize,
    mut sources: Vec<PartialSource>,
    scratch: &mut MergeScratch,
) -> Result<Csr, StreamError> {
    for src in &sources {
        src.expect_shape(rows, cols)?;
    }
    let total: usize = sources.iter().map(PartialSource::remaining_nnz).sum();
    let mut out = CsrBuilder::with_capacity(rows, cols, total);
    scratch.reset(sources.len());
    match sources.len() {
        0 => {}
        1 => drain_single(&mut sources[0], &mut scratch.lanes[0], &mut out)?,
        2 => merge_two(&mut sources, scratch, &mut out)?,
        _ => merge_k(&mut sources, scratch, &mut out)?,
    }
    Ok(out.finish())
}

/// A one-source "merge" is a straight chunked copy.
fn drain_single(
    src: &mut PartialSource,
    lane: &mut Lane,
    out: &mut CsrBuilder,
) -> Result<(), StreamError> {
    while refill(src, lane)? {
        for (&k, &v) in lane.keys.iter().zip(&lane.vals) {
            emit(out, k, v);
        }
    }
    Ok(())
}

/// The galloping two-way fast path: coordinates unique within each
/// source, so a collision folds exactly two values (source 0 first,
/// matching the reference heap's tie-break) and disjoint runs copy out
/// in bulk without an accumulator.
fn merge_two(
    sources: &mut [PartialSource],
    scratch: &mut MergeScratch,
    out: &mut CsrBuilder,
) -> Result<(), StreamError> {
    let (src0, src1) = sources.split_at_mut(1);
    let (src0, src1) = (&mut src0[0], &mut src1[0]);
    let (l0, l1) = scratch.lanes.split_at_mut(1);
    let (l0, l1) = (&mut l0[0], &mut l1[0]);
    let mut a0 = refill(src0, l0)?;
    let mut a1 = refill(src1, l1)?;
    while a0 && a1 {
        let k0 = l0.keys[l0.pos];
        let k1 = l1.keys[l1.pos];
        if k0 == k1 {
            emit(out, k0, l0.vals[l0.pos] + l1.vals[l1.pos]);
            l0.pos += 1;
            if l0.pos == l0.keys.len() {
                a0 = refill(src0, l0)?;
            }
            l1.pos += 1;
            if l1.pos == l1.keys.len() {
                a1 = refill(src1, l1)?;
            }
        } else if k0 < k1 {
            let run = gallop(&l0.keys[l0.pos..], k1);
            for j in l0.pos..l0.pos + run {
                emit(out, l0.keys[j], l0.vals[j]);
            }
            l0.pos += run;
            if l0.pos == l0.keys.len() {
                a0 = refill(src0, l0)?;
            }
        } else {
            let run = gallop(&l1.keys[l1.pos..], k0);
            for j in l1.pos..l1.pos + run {
                emit(out, l1.keys[j], l1.vals[j]);
            }
            l1.pos += run;
            if l1.pos == l1.keys.len() {
                a1 = refill(src1, l1)?;
            }
        }
    }
    while a0 {
        for j in l0.pos..l0.keys.len() {
            emit(out, l0.keys[j], l0.vals[j]);
        }
        a0 = refill(src0, l0)?;
    }
    while a1 {
        for j in l1.pos..l1.keys.len() {
            emit(out, l1.keys[j], l1.vals[j]);
        }
        a1 = refill(src1, l1)?;
    }
    Ok(())
}

/// `true` when leaf `a` wins the match against leaf `b`: alive beats
/// exhausted, then `(key, source index)` order — the exact pop order of
/// the reference heap's `Reverse((row, col, source))` keys.
fn leads(a: usize, b: usize, head: &[u64], alive: &[bool]) -> bool {
    match (alive[a], alive[b]) {
        (true, true) => (head[a], a) < (head[b], b),
        (true, false) => true,
        (false, true) => false,
        (false, false) => a < b,
    }
}

/// The loser-tree k-way fold for `ways ≥ 3`. Internal nodes hold match
/// losers; advancing the winner replays one leaf-to-root path of
/// `log₂ ways` comparisons.
fn merge_k(
    sources: &mut [PartialSource],
    scratch: &mut MergeScratch,
    out: &mut CsrBuilder,
) -> Result<(), StreamError> {
    let ways = sources.len();
    let w = ways.next_power_of_two();
    let mut head = vec![0u64; w];
    let mut alive = vec![false; w];
    for s in 0..ways {
        if refill(&mut sources[s], &mut scratch.lanes[s])? {
            head[s] = scratch.lanes[s].keys[0];
            alive[s] = true;
        }
    }
    // Seed the tree by playing every match bottom-up; `win[n]` is the
    // winner advancing out of node `n`, `losers[n]` the one staying.
    let mut losers = vec![0usize; w];
    let mut win = vec![0usize; 2 * w];
    for (s, slot) in win[w..].iter_mut().enumerate() {
        *slot = s;
    }
    for n in (1..w).rev() {
        let (a, b) = (win[2 * n], win[2 * n + 1]);
        if leads(a, b, &head, &alive) {
            win[n] = a;
            losers[n] = b;
        } else {
            win[n] = b;
            losers[n] = a;
        }
    }
    let mut winner = win[1];
    drop(win);

    let (mut acc_key, mut acc_val, mut have) = (0u64, 0.0f64, false);
    while alive[winner] {
        let s = winner;
        let lane = &mut scratch.lanes[s];
        let k = head[s];
        let v = lane.vals[lane.pos];
        if have && k == acc_key {
            acc_val += v;
        } else {
            if have {
                emit(out, acc_key, acc_val);
            }
            acc_key = k;
            acc_val = v;
            have = true;
        }
        lane.pos += 1;
        if lane.pos == lane.keys.len() && !refill(&mut sources[s], lane)? {
            alive[s] = false;
        } else {
            head[s] = lane.keys[lane.pos];
        }
        // Replay the path from leaf `s` to the root.
        let mut n = (w + s) >> 1;
        while n >= 1 {
            if leads(losers[n], winner, &head, &alive) {
                std::mem::swap(&mut losers[n], &mut winner);
            }
            n >>= 1;
        }
    }
    if have {
        emit(out, acc_key, acc_val);
    }
    Ok(())
}

/// The seed per-triple kernel — `BinaryHeap` over source heads with an
/// `Option` accumulator — kept verbatim as the differential oracle and
/// the micro-bench baseline. Output is byte-identical to
/// [`merge_sources`] on every input.
pub fn merge_sources_reference(
    rows: usize,
    cols: usize,
    mut sources: Vec<PartialSource>,
) -> Result<Csr, StreamError> {
    for src in &sources {
        src.expect_shape(rows, cols)?;
    }
    let mut out = CsrBuilder::new(rows, cols);
    // Heap keys are (row, col, source-index): coordinate order first, and
    // within one coordinate the plan's child order — a fixed, documented
    // fold order.
    let mut heap: BinaryHeap<Reverse<(u32, u32, usize)>> = BinaryHeap::with_capacity(sources.len());
    let mut heads: Vec<Option<Triple>> = Vec::with_capacity(sources.len());
    for (s, src) in sources.iter_mut().enumerate() {
        let head = src.next_triple()?;
        if let Some((r, c, _)) = head {
            heap.push(Reverse((r, c, s)));
        }
        heads.push(head);
    }

    let mut acc: Option<Triple> = None;
    while let Some(Reverse((r, c, s))) = heap.pop() {
        let (_, _, v) = heads[s].take().expect("head present for heap entry");
        acc = match acc {
            Some((ar, ac, av)) if (ar, ac) == (r, c) => Some((ar, ac, av + v)),
            Some((ar, ac, av)) => {
                out.push(ar, ac, av);
                Some((r, c, v))
            }
            None => Some((r, c, v)),
        };
        let next = sources[s].next_triple()?;
        if let Some((nr, nc, _)) = next {
            heap.push(Reverse((nr, nc, s)));
        }
        heads[s] = next;
    }
    if let Some((r, c, v)) = acc {
        out.push(r, c, v);
    }
    Ok(out.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::write_partial;
    use crate::tempdir::TempDir;
    use crate::SpillCodec;
    use sparch_sparse::{algo, gen, linalg};

    fn mem(csr: Csr) -> PartialSource {
        PartialSource::from_csr(csr)
    }

    fn merge(rows: usize, cols: usize, sources: Vec<PartialSource>) -> Csr {
        merge_sources(rows, cols, sources, &mut MergeScratch::new()).unwrap()
    }

    /// Element-wise sum oracle via repeated linalg addition on dense.
    fn sum_oracle(parts: &[Csr]) -> Csr {
        let mut acc = parts[0].clone();
        for p in &parts[1..] {
            acc = linalg::add(&acc, p);
        }
        acc
    }

    #[test]
    fn merges_mem_sources_like_matrix_addition() {
        let parts: Vec<Csr> = (0..3)
            .map(|s| gen::uniform_random(12, 14, 40, s as u64))
            .collect();
        let merged = merge(12, 14, parts.iter().cloned().map(mem).collect());
        assert_eq!(merged, sum_oracle(&parts));
    }

    #[test]
    fn disk_and_mem_sources_merge_identically() {
        let dir = TempDir::new("merge_mixed");
        let parts: Vec<Csr> = (0..4)
            .map(|s| gen::uniform_random(10, 10, 30, 50 + s as u64))
            .collect();
        let all_mem = merge(10, 10, parts.iter().cloned().map(mem).collect());
        // Spill sources 1 and 3 to disk.
        let mut mixed = Vec::new();
        for (s, p) in parts.iter().enumerate() {
            if s % 2 == 1 {
                let path = dir.file(&format!("mixed{s}.bin"));
                write_partial(&path, p, SpillCodec::Varint).unwrap();
                mixed.push(PartialSource::from_spill(SpillReader::open(&path).unwrap()));
            } else {
                mixed.push(mem(p.clone()));
            }
        }
        let merged = merge(10, 10, mixed);
        assert_eq!(merged, all_mem);
    }

    /// A spill file damaged on disk must stop a `ways`-way merge with an
    /// error naming it — wherever it sits among spilled and resident
    /// neighbours — instead of feeding `push_trusted` rows past the shape.
    fn assert_a_damaged_spill_file_stops_the_merge(ways: usize) {
        let dir = TempDir::new(&format!("merge_damaged_{ways}"));
        // All-ones values and < 64 columns: every varint entry is exactly
        // 5 bytes, so body byte 600 is the row delta of entry 120.
        let ones = |seed| linalg::map_values(&gen::uniform_random(64, 64, 2000, seed), |_| 1.0);
        let damaged = dir.file("damaged.bin");
        let file = write_partial(&damaged, &ones(1), SpillCodec::Varint).unwrap();
        assert_eq!(file.bytes, 28 + 5 * ones(1).nnz() as u64);
        let mut bytes = std::fs::read(&damaged).unwrap();
        bytes[28 + 600] = 0x7f;
        std::fs::write(&damaged, bytes).unwrap();
        let clean = dir.file("clean.bin");
        write_partial(&clean, &ones(2), SpillCodec::Varint).unwrap();

        let spilled =
            |path: &std::path::Path| PartialSource::from_spill(SpillReader::open(path).unwrap());
        for at in 0..ways {
            let sources = (0..ways)
                .map(|s| match s {
                    _ if s == at => spilled(&damaged),
                    _ if s % 2 == 0 => spilled(&clean),
                    _ => mem(ones(2 + s as u64)),
                })
                .collect();
            match merge_sources(64, 64, sources, &mut MergeScratch::new()) {
                Err(StreamError::Io(msg)) => assert!(
                    msg.contains("damaged.bin") && msg.contains("outside declared shape"),
                    "{ways}-way, damaged at {at}: {msg}"
                ),
                other => panic!("{ways}-way, damaged at {at}: got {other:?}"),
            }
        }
    }

    /// A source that declares a shape other than the merge's is refused
    /// before a single entry is merged: spilled ones with their path,
    /// resident ones as a shape error — by both kernels.
    #[test]
    fn sources_must_declare_the_merge_shape() {
        let dir = TempDir::new("merge_shape");
        let part = gen::uniform_random(10, 12, 30, 4);
        let path = dir.file("wide.bin");
        write_partial(&path, &part, SpillCodec::Varint).unwrap();
        for kernel in ["merge_sources", "merge_sources_reference"] {
            let run = |sources: Vec<PartialSource>| match kernel {
                "merge_sources" => merge_sources(10, 8, sources, &mut MergeScratch::new()),
                _ => merge_sources_reference(10, 8, sources),
            };
            let spilled = PartialSource::from_spill(SpillReader::open(&path).unwrap());
            match run(vec![mem(Csr::zero(10, 8)), spilled]) {
                Err(StreamError::Io(msg)) => assert!(
                    msg.contains("wide.bin") && msg.contains("declares shape 10x12"),
                    "{kernel}: {msg}"
                ),
                other => panic!("{kernel}: expected an Io error, got {other:?}"),
            }
            assert!(
                matches!(run(vec![mem(part.clone())]), Err(StreamError::Shape(_))),
                "{kernel}"
            );
        }
    }

    #[test]
    fn a_damaged_spill_file_stops_the_two_way_merge() {
        assert_a_damaged_spill_file_stops_the_merge(2);
    }

    #[test]
    fn a_damaged_spill_file_stops_the_k_way_merge_and_the_single_source_copy() {
        for ways in [1, 3, 4] {
            assert_a_damaged_spill_file_stops_the_merge(ways);
        }
    }

    #[test]
    fn folded_zeros_are_kept() {
        let a = Csr::try_new(1, 2, vec![0, 2], vec![0, 1], vec![2.0, 1.0]).unwrap();
        let b = Csr::try_new(1, 2, vec![0, 1], vec![0], vec![-2.0]).unwrap();
        let merged = merge(1, 2, vec![mem(a), mem(b)]);
        assert_eq!(merged.nnz(), 2, "cancelled entry must stay structural");
        assert_eq!(merged.get(0, 0), Some(0.0));
        assert_eq!(merged.get(0, 1), Some(1.0));
    }

    #[test]
    fn single_and_empty_sources() {
        let m = gen::uniform_random(6, 6, 12, 3);
        assert_eq!(merge(6, 6, vec![mem(m.clone())]), m);
        let empty = merge(6, 6, vec![]);
        assert_eq!(empty.nnz(), 0);
        assert_eq!((empty.rows(), empty.cols()), (6, 6));
        let with_zero = merge(6, 6, vec![mem(m.clone()), mem(Csr::zero(6, 6))]);
        assert_eq!(with_zero, m);
    }

    #[test]
    fn panel_partials_reassemble_the_product() {
        // The real use: partials of A[:, p] · B[p, :] merge to A · B.
        let a = gen::rmat_graph500(40, 4, 2);
        let b = gen::uniform_random(40, 32, 200, 3);
        let parts: Vec<Csr> = sparch_sparse::panel_ranges(a.cols(), 5)
            .into_iter()
            .map(|r| algo::gustavson(&a.col_panel(r.clone()), &b.row_panel(r)))
            .filter(|p| p.nnz() > 0)
            .collect();
        let merged = merge(40, 32, parts.into_iter().map(mem).collect());
        assert_eq!(merged, algo::gustavson(&a, &b));
    }

    /// The loser-tree/gallop kernel must be byte-identical to the seed
    /// `BinaryHeap` kernel at every fan-in, over heavily overlapping
    /// sources (duplicate coordinates in most merge steps) and over
    /// disk/mem mixes under both codecs.
    #[test]
    fn chunked_kernel_matches_reference_heap() {
        let dir = TempDir::new("merge_differential");
        for ways in [2usize, 3, 4, 5, 7, 8, 9] {
            // Same shape for all sources → dense coordinate collisions;
            // float values so fold order differences would show in bits.
            let parts: Vec<Csr> = (0..ways)
                .map(|s| gen::uniform_random(30, 26, 220, 400 + s as u64))
                .collect();
            for codec in [SpillCodec::Raw, SpillCodec::Varint] {
                let make = |spill_mask: usize| -> Vec<PartialSource> {
                    parts
                        .iter()
                        .enumerate()
                        .map(|(s, p)| {
                            if spill_mask >> (s % 8) & 1 == 1 {
                                let path = dir.file(&format!("d{ways}_{codec}_{spill_mask}_{s}"));
                                write_partial(&path, p, codec).unwrap();
                                PartialSource::from_spill(SpillReader::open(&path).unwrap())
                            } else {
                                mem(p.clone())
                            }
                        })
                        .collect()
                };
                // All-mem, all-disk, and an alternating mix.
                for mask in [0usize, 0xff, 0b0101_0101] {
                    let fast = merge(30, 26, make(mask));
                    let slow = merge_sources_reference(30, 26, make(mask)).unwrap();
                    assert_eq!(fast, slow, "ways {ways} {codec} mask {mask:#x}");
                    for (a, b) in fast.values().iter().zip(slow.values()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "ways {ways} {codec}");
                    }
                }
            }
        }
    }

    /// Degenerate fan-ins agree with the reference too: empty sources,
    /// singletons, full cancellation, and every source identical.
    #[test]
    fn kernel_edge_cases_match_reference() {
        let m = gen::uniform_random(9, 9, 25, 77);
        let neg = linalg::map_values(&m, |v| -v);
        let cases: Vec<Vec<Csr>> = vec![
            vec![],
            vec![Csr::zero(9, 9)],
            vec![m.clone()],
            vec![m.clone(), neg.clone()],
            vec![m.clone(), neg.clone(), m.clone()],
            vec![Csr::zero(9, 9); 5],
            vec![m.clone(); 4],
            vec![m.clone(), Csr::zero(9, 9), m.clone(), Csr::zero(9, 9), neg],
        ];
        for (i, parts) in cases.into_iter().enumerate() {
            let fast = merge(9, 9, parts.iter().cloned().map(mem).collect());
            let slow = merge_sources_reference(9, 9, parts.into_iter().map(mem).collect()).unwrap();
            assert_eq!(fast, slow, "case {i}");
        }
    }

    /// Chunk boundaries are invisible: a merge whose sources span many
    /// refills (nnz ≫ CHUNK_ENTRIES) still matches the oracle.
    #[test]
    fn multi_chunk_sources_merge_correctly() {
        let parts: Vec<Csr> = (0..3)
            .map(|s| gen::uniform_random(120, 110, 4 * CHUNK_ENTRIES, 900 + s as u64))
            .collect();
        let merged = merge(120, 110, parts.iter().cloned().map(mem).collect());
        assert_eq!(merged, sum_oracle(&parts));
        let two = merge(120, 110, parts[..2].iter().cloned().map(mem).collect());
        assert_eq!(two, sum_oracle(&parts[..2]));
    }
}

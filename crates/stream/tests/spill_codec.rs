//! Property suite for the spill codecs.
//!
//! Random sorted-COO partials — drawn from the shared `gen::arb` CSR
//! strategies, which guarantee the spill writer's input invariants
//! (rows non-decreasing, columns strictly increasing within a row,
//! duplicate-free), including explicit stored zeros and empty partials —
//! must encode→decode **bit-identically** in both the raw and the
//! row-grouped block format, and a block-requested (`Varint`) file must
//! never be larger than the raw encoding of the same partial. On the
//! explicit-zeros (small-integer) grid the block format must save at
//! least 2× in aggregate — the ROADMAP target that motivated the codec.
//! Edge values — signed zeros side by side, infinities, NaN payloads,
//! subnormals and integers at the ends of the integer-lane range —
//! must come back bit for bit through every read path.

use proptest::prelude::*;
use sparch_sparse::algo::RowGroup;
use sparch_sparse::gen::arb::{self, ValueClass};
use sparch_sparse::{Csr, CsrBuilder};
use sparch_stream::spill::{
    decode_partial, encode_partial, raw_size, varint_size, write_partial, SpillReader,
};
use sparch_stream::tempdir::TempDir;
use sparch_stream::SpillCodec;
use std::collections::BTreeMap;

/// Bit-exact equality: `Csr == Csr` compares values with `f64::eq`,
/// which conflates `0.0` with `-0.0`; the codec contract is stronger.
fn assert_bits_identical(back: &Csr, original: &Csr, what: &str) {
    assert_eq!(back.rows(), original.rows(), "{what}: rows");
    assert_eq!(back.cols(), original.cols(), "{what}: cols");
    assert_eq!(back.row_ptr(), original.row_ptr(), "{what}: row_ptr");
    assert_eq!(
        back.col_indices(),
        original.col_indices(),
        "{what}: col_idx"
    );
    assert_eq!(back.values().len(), original.values().len(), "{what}: nnz");
    for (i, (x, y)) in back.values().iter().zip(original.values()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: value {i} bits differ ({x} vs {y})"
        );
    }
}

/// Round-trips `m` through both codecs, checking bit-exactness and the
/// block-never-larger guarantee.
fn check_roundtrip(m: &Csr) {
    let dir = TempDir::new("codec");
    let raw_path = dir.file("raw.bin");
    let varint_path = dir.file("varint.bin");
    let raw = write_partial(&raw_path, m, SpillCodec::Raw).unwrap();
    let varint = write_partial(&varint_path, m, SpillCodec::Varint).unwrap();
    assert_eq!(raw.bytes, raw_size(m));
    assert_eq!(raw.bytes, std::fs::metadata(&raw_path).unwrap().len());
    assert_eq!(varint.bytes, std::fs::metadata(&varint_path).unwrap().len());
    // The writer's per-file fallback: a varint request never loses.
    assert!(
        varint.bytes <= raw.bytes,
        "varint {} > raw {}",
        varint.bytes,
        raw.bytes
    );
    assert_eq!(varint.bytes, varint_size(m).min(raw_size(m)));
    let from_raw = SpillReader::open(&raw_path).unwrap().read_all().unwrap();
    assert_bits_identical(&from_raw, m, "raw");
    let from_varint = SpillReader::open(&varint_path).unwrap().read_all().unwrap();
    assert_bits_identical(&from_varint, m, "varint");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn with_zeros_partials_round_trip(m in arb::csr_with(24, 28, 120, ValueClass::SmallIntWithZeros)) {
        check_roundtrip(&m);
    }

    #[test]
    fn float_partials_round_trip(m in arb::csr_with(20, 26, 100, ValueClass::Float)) {
        // Full-mantissa values: the swapped-bits varint rarely helps, so
        // this exercises the raw-value mode and the per-file fallback.
        check_roundtrip(&m);
    }

    #[test]
    fn small_int_partials_round_trip(m in arb::csr_with(26, 22, 140, ValueClass::SmallInt)) {
        check_roundtrip(&m);
    }

    #[test]
    fn unit_partials_round_trip(m in arb::csr_with(18, 40, 90, ValueClass::Unit)) {
        check_roundtrip(&m);
    }

    #[test]
    fn edge_value_partials_round_trip_on_every_read_path(m in edge_partial(12, 40, 160)) {
        check_every_read_path(&m);
    }
}

/// The values the integer-lane mode must not bend: both zeros, the
/// infinities, NaNs with payloads (quiet and signalling, either sign),
/// subnormals, and the integers where lanes end — `±2³¹` (not a lane)
/// and `±(2³¹ − 1)`, `±(2³¹ + 1)` beside them.
const EDGES: [f64; 16] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    arb::PAYLOAD_NAN,
    f64::from_bits(0xfff4_0000_0000_0123),
    f64::from_bits(1),
    f64::from_bits(0x800f_ffff_ffff_ffff),
    2147483648.0,
    -2147483648.0,
    2147483647.0,
    -2147483647.0,
    2147483649.0,
    -2147483649.0,
    0.5,
    -1e300,
];

/// A partial of up to `max_rows` rows whose values are mostly small
/// integers — so most blocks would take the integer-lane mode — with
/// about one in five from [`EDGES`], and runs of `0.0`, `-0.0` side by
/// side.
fn edge_partial(max_rows: usize, max_cols: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    let value = (0u32..5, -4i32..=4, 0..EDGES.len()).prop_map(|(pick, i, edge)| match pick {
        0 => EDGES[edge],
        _ => f64::from(i),
    });
    let entry = (0..max_rows as u32, 0..max_cols as u32, value);
    let entries = proptest::collection::vec(entry, 0..max_nnz);
    (entries, 0u32..2).prop_map(move |(entries, zeros)| {
        let mut cells = BTreeMap::new();
        for (r, c, v) in entries {
            cells.entry((r, c)).or_insert(v);
        }
        if zeros == 1 {
            // Signed zeros side by side in one row.
            for c in 0..max_cols as u32 {
                let v = if c % 2 == 0 { 0.0 } else { -0.0 };
                cells.insert((max_rows as u32 / 2, c), v);
            }
        }
        let mut b = CsrBuilder::new(max_rows, max_cols);
        for ((r, c), v) in cells {
            b.push(r, c, v);
        }
        b.finish()
    })
}

/// `m`'s entries as `(row, col, value bits)`.
fn bit_triples(m: &Csr) -> Vec<(u32, u32, u64)> {
    m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect()
}

/// Round-trips `m` under both codecs through every read path —
/// `SpillReader::next_rows` at group sizes 1, 7 and 1024,
/// `SpillReader::read_all` and the wire's `decode_partial` — bit for
/// bit, and checks the block-never-larger guarantee.
fn check_every_read_path(m: &Csr) {
    check_roundtrip(m);
    let dir = TempDir::new("codec_edges");
    let want = bit_triples(m);
    for codec in [SpillCodec::Raw, SpillCodec::Varint] {
        let path = dir.file(&format!("edges_{codec}.bin"));
        write_partial(&path, m, codec).unwrap();
        for cap in [1, 7, 1024] {
            let mut reader = SpillReader::open(&path).unwrap();
            let (mut group, mut got) = (RowGroup::default(), Vec::new());
            while reader.next_rows(cap, &mut group).unwrap() > 0 {
                let mut at = 0;
                while let Some(row) = group.head(at) {
                    group.feed(&mut at, |c, v| got.push((row, c, v.to_bits())));
                }
            }
            assert_eq!(got, want, "{codec} next_rows {cap}");
        }
        let all = SpillReader::open(&path).unwrap().read_all().unwrap();
        assert_eq!(bit_triples(&all), want, "{codec} read_all");
        let wire = decode_partial(&encode_partial(m, codec)).unwrap();
        assert_eq!(bit_triples(&wire), want, "{codec} decode_partial");
    }
}

#[test]
fn empty_and_negative_zero_partials_round_trip() {
    check_roundtrip(&Csr::zero(7, 5));
    check_roundtrip(&Csr::zero(0, 0));
    let m = Csr::try_new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![0.0, -0.0, 5.5]).unwrap();
    check_roundtrip(&m);
    // Every edge value in one otherwise-integer row, one per block.
    let n = EDGES.len() as u32;
    let mut b = CsrBuilder::new(n as usize, 4);
    for (r, &v) in EDGES.iter().enumerate() {
        for (c, w) in [(0, 1.0), (1, v), (2, -0.0), (3, 0.0)] {
            b.push(r as u32, c, w);
        }
    }
    check_every_read_path(&b.finish());
}

/// The ROADMAP's ≥2× target, asserted in aggregate over a deterministic
/// sample of the WithZeros arb grid (the workload class the streaming
/// conformance suite spills).
#[test]
fn varint_halves_spill_bytes_on_the_with_zeros_grid() {
    let strategy = arb::csr_with(32, 32, 300, ValueClass::SmallIntWithZeros);
    let mut total_raw = 0u64;
    let mut total_varint = 0u64;
    let mut sampled = 0usize;
    for seed in 0..32 {
        let m = arb::sample(&strategy, seed);
        if m.nnz() == 0 {
            continue;
        }
        sampled += 1;
        total_raw += raw_size(&m);
        total_varint += varint_size(&m).min(raw_size(&m));
    }
    assert!(sampled >= 16, "grid degenerated to empties: {sampled}");
    assert!(
        total_varint * 2 <= total_raw,
        "varint saved less than 2x on the WithZeros grid: {total_varint} of {total_raw}"
    );
}

//! Exact-count pin for the whole simulator.
//!
//! Every `sim_cycles` / `sim_dram_bytes` figure and every paper table
//! comes out of `SpArchSim::run_with_scratch`, so any rewrite of its hot
//! stages must leave every count where it was. This file pins, for a grid
//! of small generator operands crossed with every configuration axis the
//! model branches on, the exact cycles, rounds, multiplies, output nnz,
//! DRAM traffic per category, `PrefetchStats`, merge additions, and a hash
//! of the result's structure and value bits.
//!
//! The table was captured from the heap-merge / hash-map implementation
//! the row-wise fold and the dense prefetcher replaced; a mismatch means a
//! change moved a number the figures are built from.

use sparch_core::{
    PrefetchConfig, ReplacementPolicy, SimReport, SimScratch, SpArchConfig, SpArchSim,
};
use sparch_mem::TrafficCategory;
use sparch_sparse::{gen, Csr};

/// One pinned case: what the simulator reported for `operand` under
/// `config`.
struct Golden {
    operand: &'static str,
    config: &'static str,
    cycles: u64,
    rounds: usize,
    multiplies: u64,
    output_nnz: u64,
    /// Bytes per `TrafficCategory::ALL` entry.
    traffic: [u64; 5],
    /// `row_accesses, line_requests, line_hits, line_misses, evictions,
    /// dram_bytes, buffer_read_bytes, buffer_write_bytes`.
    prefetch: [u64; 8],
    adds: u64,
    result_hash: u64,
}

/// The operand grid: `(name, A, B)`, each pair small enough for a debug
/// build and shaped to reach a different part of the model.
fn operands() -> Vec<(&'static str, Csr, Csr)> {
    vec![
        (
            "rmat",
            gen::rmat_graph500(128, 6, 3),
            gen::rmat_graph500(128, 6, 4),
        ),
        ("band", gen::banded(96, 8, 12, 5), gen::banded(96, 8, 12, 6)),
        (
            "uniform",
            gen::uniform_random(120, 150, 700, 7),
            gen::uniform_random(150, 90, 900, 8),
        ),
        (
            "powerlaw",
            gen::powerlaw_rows(128, 768, 1.8, 9),
            gen::powerlaw_rows(128, 768, 1.8, 10),
        ),
        (
            "block",
            gen::block_sparse(96, 96, 4, 0.15, 11),
            gen::block_sparse(96, 96, 4, 0.15, 12),
        ),
    ]
}

/// A small prefetch buffer, so the operands above evict.
fn buffer(
    lines: usize,
    line_elems: usize,
    lookahead: usize,
    policy: ReplacementPolicy,
) -> PrefetchConfig {
    PrefetchConfig {
        lines,
        line_elems,
        lookahead,
        policy,
        ..PrefetchConfig::default()
    }
}

/// The configuration grid: the ablation ladder, shallow trees (many
/// rounds, spilled partials), both replacement policies on a buffer that
/// evicts, a look-ahead window shorter than the access sequence (rows
/// hide and are revealed), and a 4-line buffer that rows larger than the
/// buffer stream through, evicting their own lines.
fn configs() -> Vec<(&'static str, SpArchConfig)> {
    let ladder = SpArchConfig::ablation_ladder();
    let with_buffer = |p: PrefetchConfig| SpArchConfig {
        prefetch: p,
        ..SpArchConfig::default()
    };
    vec![
        ("ladder0", ladder[0].1.clone()),
        ("ladder1", ladder[1].1.clone()),
        ("ladder2", ladder[2].1.clone()),
        ("ladder3", ladder[3].1.clone()),
        ("layers2", SpArchConfig::default().with_tree_layers(2)),
        ("layers3", SpArchConfig::default().with_tree_layers(3)),
        (
            "lru16",
            with_buffer(buffer(16, 4, 8192, ReplacementPolicy::Lru)),
        ),
        (
            "noprefetch",
            SpArchConfig::default()
                .with_tree_layers(3)
                .without_prefetcher(),
        ),
        (
            "window16",
            with_buffer(buffer(16, 4, 16, ReplacementPolicy::Belady)),
        ),
        (
            "lines4",
            with_buffer(buffer(4, 2, 8192, ReplacementPolicy::Belady)).with_tree_layers(3),
        ),
    ]
}

/// FNV-1a over the result's row pointers, column indices and value bits.
fn result_hash(c: &Csr) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &p in c.row_ptr() {
        eat(p as u64);
    }
    for &j in c.col_indices() {
        eat(u64::from(j));
    }
    for &v in c.values() {
        eat(v.to_bits());
    }
    h
}

fn observe(operand: &'static str, config: &'static str, r: &SimReport) -> Golden {
    let p = &r.prefetch;
    Golden {
        operand,
        config,
        cycles: r.perf.cycles,
        rounds: r.perf.rounds,
        multiplies: r.perf.multiplies,
        output_nnz: r.perf.output_nnz,
        traffic: TrafficCategory::ALL.map(|c| r.traffic.bytes(c)),
        prefetch: [
            p.row_accesses,
            p.line_requests,
            p.line_hits,
            p.line_misses,
            p.evictions,
            p.dram_bytes,
            p.buffer_read_bytes,
            p.buffer_write_bytes,
        ],
        adds: r.activity.adds,
        result_hash: result_hash(r.result()),
    }
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden { operand: "rmat", config: "ladder0", cycles: 2988, rounds: 2, multiplies: 8030, output_nnz: 4319, traffic: [6744, 96360, 63936, 63936, 52860], prefetch: [562, 591, 0, 591, 0, 96360, 96360, 0], adds: 3711, result_hash: 0xd53f87a8618b718f },
    Golden { operand: "rmat", config: "ladder1", cycles: 1900, rounds: 1, multiplies: 8030, output_nnz: 4319, traffic: [6744, 96360, 0, 0, 52860], prefetch: [562, 591, 0, 591, 0, 96360, 96360, 0], adds: 3711, result_hash: 0xd53f87a8618b718f },
    Golden { operand: "rmat", config: "ladder2", cycles: 1900, rounds: 1, multiplies: 8030, output_nnz: 4319, traffic: [6744, 96360, 0, 0, 52860], prefetch: [562, 591, 0, 591, 0, 96360, 96360, 0], adds: 3711, result_hash: 0xd53f87a8618b718f },
    Golden { operand: "rmat", config: "ladder3", cycles: 657, rounds: 1, multiplies: 8030, output_nnz: 4319, traffic: [6744, 6348, 0, 0, 52860], prefetch: [562, 591, 516, 75, 0, 6348, 96360, 6348], adds: 3711, result_hash: 0xd53f87a8618b718f },
    Golden { operand: "rmat", config: "layers2", cycles: 2488, rounds: 14, multiplies: 8030, output_nnz: 4319, traffic: [6744, 6348, 57408, 57408, 52860], prefetch: [562, 591, 516, 75, 0, 6348, 96360, 6348], adds: 3711, result_hash: 0xd53f87a8618b718f },
    Golden { operand: "rmat", config: "layers3", cycles: 1321, rounds: 6, multiplies: 8030, output_nnz: 4319, traffic: [6744, 6348, 18688, 18688, 52860], prefetch: [562, 591, 516, 75, 0, 6348, 96360, 6348], adds: 3711, result_hash: 0xd53f87a8618b718f },
    Golden { operand: "rmat", config: "lru16", cycles: 1261, rounds: 1, multiplies: 8030, output_nnz: 4319, traffic: [6744, 83724, 0, 0, 52860], prefetch: [562, 2238, 277, 1961, 1945, 83724, 96360, 83724], adds: 3711, result_hash: 0xd53f87a8618b718f },
    Golden { operand: "rmat", config: "noprefetch", cycles: 2565, rounds: 6, multiplies: 8030, output_nnz: 4319, traffic: [6744, 96360, 18688, 18688, 52860], prefetch: [562, 591, 0, 591, 0, 96360, 96360, 0], adds: 3711, result_hash: 0xd53f87a8618b718f },
    Golden { operand: "rmat", config: "window16", cycles: 1064, rounds: 1, multiplies: 8030, output_nnz: 4319, traffic: [6744, 65016, 0, 0, 52860], prefetch: [562, 2238, 679, 1559, 1543, 65016, 96360, 65016], adds: 3711, result_hash: 0xd53f87a8618b718f },
    Golden { operand: "rmat", config: "lines4", cycles: 2020, rounds: 6, multiplies: 8030, output_nnz: 4319, traffic: [6744, 95664, 18688, 18688, 52860], prefetch: [562, 4210, 29, 4181, 4177, 95664, 96360, 95664], adds: 3711, result_hash: 0xd53f87a8618b718f },
    Golden { operand: "band", config: "ladder0", cycles: 5536, rounds: 2, multiplies: 26051, output_nnz: 3178, traffic: [18852, 312612, 47744, 47744, 38912], prefetch: [1571, 1571, 0, 1571, 0, 312612, 312612, 0], adds: 22873, result_hash: 0xa3f04b66c7d2de86 },
    Golden { operand: "band", config: "ladder1", cycles: 4701, rounds: 1, multiplies: 26051, output_nnz: 3178, traffic: [18852, 312612, 0, 0, 38912], prefetch: [1571, 1571, 0, 1571, 0, 312612, 312612, 0], adds: 22873, result_hash: 0x45d11a50beab94d9 },
    Golden { operand: "band", config: "ladder2", cycles: 4701, rounds: 1, multiplies: 26051, output_nnz: 3178, traffic: [18852, 312612, 0, 0, 38912], prefetch: [1571, 1571, 0, 1571, 0, 312612, 312612, 0], adds: 22873, result_hash: 0x6c9e76b373c2f6b3 },
    Golden { operand: "band", config: "ladder3", cycles: 1865, rounds: 1, multiplies: 26051, output_nnz: 3178, traffic: [18852, 18852, 0, 0, 38912], prefetch: [1571, 1571, 1475, 96, 0, 18852, 312612, 18852], adds: 22873, result_hash: 0x6c9e76b373c2f6b3 },
    Golden { operand: "band", config: "layers2", cycles: 3989, rounds: 6, multiplies: 26051, output_nnz: 3178, traffic: [18852, 18852, 163280, 163280, 38912], prefetch: [1571, 1571, 1475, 96, 0, 18852, 312612, 18852], adds: 22873, result_hash: 0xd440d9c6d3c179ac },
    Golden { operand: "band", config: "layers3", cycles: 2414, rounds: 3, multiplies: 26051, output_nnz: 3178, traffic: [18852, 18852, 71088, 71088, 38912], prefetch: [1571, 1571, 1475, 96, 0, 18852, 312612, 18852], adds: 22873, result_hash: 0x939a64b09b923ebc },
    Golden { operand: "band", config: "lru16", cycles: 3128, rounds: 1, multiplies: 26051, output_nnz: 3178, traffic: [18852, 312336, 0, 0, 38912], prefetch: [1571, 7580, 7, 7573, 7557, 312336, 312612, 312336], adds: 22873, result_hash: 0x6c9e76b373c2f6b3 },
    Golden { operand: "band", config: "noprefetch", cycles: 5952, rounds: 3, multiplies: 26051, output_nnz: 3178, traffic: [18852, 312612, 71088, 71088, 38912], prefetch: [1571, 1571, 0, 1571, 0, 312612, 312612, 0], adds: 22873, result_hash: 0x939a64b09b923ebc },
    Golden { operand: "band", config: "window16", cycles: 2627, rounds: 1, multiplies: 26051, output_nnz: 3178, traffic: [18852, 266868, 0, 0, 38912], prefetch: [1571, 7580, 1081, 6499, 6483, 266868, 312612, 266868], adds: 22873, result_hash: 0x6c9e76b373c2f6b3 },
    Golden { operand: "band", config: "lines4", cycles: 4381, rounds: 3, multiplies: 26051, output_nnz: 3178, traffic: [18852, 312612, 71088, 71088, 38912], prefetch: [1571, 13685, 0, 13685, 13681, 312612, 312612, 312612], adds: 22873, result_hash: 0x939a64b09b923ebc },
    Golden { operand: "uniform", config: "ladder0", cycles: 2629, rounds: 3, multiplies: 4208, output_nnz: 3467, traffic: [8400, 50496, 51488, 51488, 42572], prefetch: [700, 700, 0, 700, 0, 50496, 50496, 0], adds: 741, result_hash: 0xe836bfb3d5620dc2 },
    Golden { operand: "uniform", config: "ladder1", cycles: 1647, rounds: 1, multiplies: 4208, output_nnz: 3467, traffic: [8400, 50496, 0, 0, 42572], prefetch: [700, 700, 0, 700, 0, 50496, 50496, 0], adds: 741, result_hash: 0xffddfcd396cefcc9 },
    Golden { operand: "uniform", config: "ladder2", cycles: 1647, rounds: 1, multiplies: 4208, output_nnz: 3467, traffic: [8400, 50496, 0, 0, 42572], prefetch: [700, 700, 0, 700, 0, 50496, 50496, 0], adds: 741, result_hash: 0xdf7bbed59ee97381 },
    Golden { operand: "uniform", config: "ladder3", cycles: 637, rounds: 1, multiplies: 4208, output_nnz: 3467, traffic: [8400, 10752, 0, 0, 42572], prefetch: [700, 700, 551, 149, 0, 10752, 50496, 10752], adds: 741, result_hash: 0xdf7bbed59ee97381 },
    Golden { operand: "uniform", config: "layers2", cycles: 1451, rounds: 4, multiplies: 4208, output_nnz: 3467, traffic: [8400, 10752, 39120, 39120, 42572], prefetch: [700, 700, 551, 149, 0, 10752, 50496, 10752], adds: 741, result_hash: 0x1e9727d70acedb5d },
    Golden { operand: "uniform", config: "layers3", cycles: 767, rounds: 2, multiplies: 4208, output_nnz: 3467, traffic: [8400, 10752, 4112, 4112, 42572], prefetch: [700, 700, 551, 149, 0, 10752, 50496, 10752], adds: 741, result_hash: 0xdf7bbed59ee97381 },
    Golden { operand: "uniform", config: "lru16", cycles: 926, rounds: 1, multiplies: 4208, output_nnz: 3467, traffic: [8400, 47748, 0, 0, 42572], prefetch: [700, 1320, 74, 1246, 1230, 47748, 50496, 47748], adds: 741, result_hash: 0xdf7bbed59ee97381 },
    Golden { operand: "uniform", config: "noprefetch", cycles: 1777, rounds: 2, multiplies: 4208, output_nnz: 3467, traffic: [8400, 50496, 4112, 4112, 42572], prefetch: [700, 700, 0, 700, 0, 50496, 50496, 0], adds: 741, result_hash: 0xdf7bbed59ee97381 },
    Golden { operand: "uniform", config: "window16", cycles: 830, rounds: 1, multiplies: 4208, output_nnz: 3467, traffic: [8400, 43644, 0, 0, 42572], prefetch: [700, 1320, 178, 1142, 1126, 43644, 50496, 43644], adds: 741, result_hash: 0xdf7bbed59ee97381 },
    Golden { operand: "uniform", config: "lines4", cycles: 1073, rounds: 2, multiplies: 4208, output_nnz: 3467, traffic: [8400, 49956, 4112, 4112, 42572], prefetch: [700, 2282, 24, 2258, 2254, 49956, 50496, 49956], adds: 741, result_hash: 0xdf7bbed59ee97381 },
    Golden { operand: "powerlaw", config: "ladder0", cycles: 2899, rounds: 3, multiplies: 4650, output_nnz: 2741, traffic: [9048, 55800, 69072, 69072, 33924], prefetch: [754, 741, 0, 741, 0, 55800, 55800, 0], adds: 1909, result_hash: 0xc8ad9db56be5f1bc },
    Golden { operand: "powerlaw", config: "ladder1", cycles: 3014, rounds: 3, multiplies: 4650, output_nnz: 2741, traffic: [9048, 55800, 76400, 76400, 33924], prefetch: [754, 741, 0, 741, 0, 55800, 55800, 0], adds: 1909, result_hash: 0x5fb0941acf85b203 },
    Golden { operand: "powerlaw", config: "ladder2", cycles: 1867, rounds: 3, multiplies: 4650, output_nnz: 2741, traffic: [9048, 55800, 3104, 3104, 33924], prefetch: [754, 741, 0, 741, 0, 55800, 55800, 0], adds: 1909, result_hash: 0x7ef9954dcefb924f },
    Golden { operand: "powerlaw", config: "ladder3", cycles: 792, rounds: 3, multiplies: 4650, output_nnz: 2741, traffic: [9048, 9060, 3104, 3104, 33924], prefetch: [754, 741, 615, 126, 0, 9060, 55800, 9060], adds: 1909, result_hash: 0x7ef9954dcefb924f },
    Golden { operand: "powerlaw", config: "layers2", cycles: 5043, rounds: 43, multiplies: 4650, output_nnz: 2741, traffic: [9048, 9060, 91632, 91632, 33924], prefetch: [754, 741, 615, 126, 0, 9060, 55800, 9060], adds: 1909, result_hash: 0xc974e99ec35a16f3 },
    Golden { operand: "powerlaw", config: "layers3", cycles: 2585, rounds: 19, multiplies: 4650, output_nnz: 2741, traffic: [9048, 9060, 41456, 41456, 33924], prefetch: [754, 741, 615, 126, 0, 9060, 55800, 9060], adds: 1909, result_hash: 0x596c5688b49e6c0c },
    Golden { operand: "powerlaw", config: "lru16", cycles: 1110, rounds: 3, multiplies: 4650, output_nnz: 2741, traffic: [9048, 49752, 3104, 3104, 33924], prefetch: [754, 1476, 152, 1324, 1308, 49752, 55800, 49752], adds: 1909, result_hash: 0x7ef9954dcefb924f },
    Golden { operand: "powerlaw", config: "noprefetch", cycles: 3659, rounds: 19, multiplies: 4650, output_nnz: 2741, traffic: [9048, 55800, 41456, 41456, 33924], prefetch: [754, 741, 0, 741, 0, 55800, 55800, 0], adds: 1909, result_hash: 0x596c5688b49e6c0c },
    Golden { operand: "powerlaw", config: "window16", cycles: 1019, rounds: 3, multiplies: 4650, output_nnz: 2741, traffic: [9048, 46668, 3104, 3104, 33924], prefetch: [754, 1476, 247, 1229, 1213, 46668, 55800, 46668], adds: 1909, result_hash: 0x7ef9954dcefb924f },
    Golden { operand: "powerlaw", config: "lines4", cycles: 2937, rounds: 19, multiplies: 4650, output_nnz: 2741, traffic: [9048, 54336, 41456, 41456, 33924], prefetch: [754, 2511, 68, 2443, 2439, 54336, 55800, 54336], adds: 1909, result_hash: 0x596c5688b49e6c0c },
    Golden { operand: "block", config: "ladder0", cycles: 6052, rounds: 2, multiplies: 25984, output_nnz: 4560, traffic: [19008, 311808, 72960, 72960, 55496], prefetch: [1584, 1568, 0, 1568, 0, 311808, 311808, 0], adds: 21424, result_hash: 0xa4906f1f9ea43a4a },
    Golden { operand: "block", config: "ladder1", cycles: 4824, rounds: 1, multiplies: 25984, output_nnz: 4560, traffic: [19008, 311808, 0, 0, 55496], prefetch: [1584, 1568, 0, 1568, 0, 311808, 311808, 0], adds: 21424, result_hash: 0x677e329a2b01688c },
    Golden { operand: "block", config: "ladder2", cycles: 4824, rounds: 1, multiplies: 25984, output_nnz: 4560, traffic: [19008, 311808, 0, 0, 55496], prefetch: [1584, 1568, 0, 1568, 0, 311808, 311808, 0], adds: 21424, result_hash: 0x83f1df4318452918 },
    Golden { operand: "block", config: "ladder3", cycles: 1861, rounds: 1, multiplies: 25984, output_nnz: 4560, traffic: [19008, 17664, 0, 0, 55496], prefetch: [1584, 1568, 1476, 92, 0, 17664, 311808, 17664], adds: 21424, result_hash: 0x83f1df4318452918 },
    Golden { operand: "block", config: "layers2", cycles: 4921, rounds: 9, multiplies: 25984, output_nnz: 4560, traffic: [19008, 17664, 216576, 216576, 55496], prefetch: [1584, 1568, 1476, 92, 0, 17664, 311808, 17664], adds: 21424, result_hash: 0x2c9977d37d1ae31f },
    Golden { operand: "block", config: "layers3", cycles: 2826, rounds: 4, multiplies: 25984, output_nnz: 4560, traffic: [19008, 17664, 91648, 91648, 55496], prefetch: [1584, 1568, 1476, 92, 0, 17664, 311808, 17664], adds: 21424, result_hash: 0x8e24a5a7d36c61eb },
    Golden { operand: "block", config: "lru16", cycles: 3250, rounds: 1, multiplies: 25984, output_nnz: 4560, traffic: [19008, 311040, 0, 0, 55496], prefetch: [1584, 6496, 16, 6480, 6464, 311040, 311808, 311040], adds: 21424, result_hash: 0x83f1df4318452918 },
    Golden { operand: "block", config: "noprefetch", cycles: 6474, rounds: 4, multiplies: 25984, output_nnz: 4560, traffic: [19008, 311808, 91648, 91648, 55496], prefetch: [1584, 1568, 0, 1568, 0, 311808, 311808, 0], adds: 21424, result_hash: 0x8e24a5a7d36c61eb },
    Golden { operand: "block", config: "window16", cycles: 2736, rounds: 1, multiplies: 25984, output_nnz: 4560, traffic: [19008, 264096, 0, 0, 55496], prefetch: [1584, 6496, 994, 5502, 5486, 264096, 311808, 264096], adds: 21424, result_hash: 0x83f1df4318452918 },
    Golden { operand: "block", config: "lines4", cycles: 4905, rounds: 4, multiplies: 25984, output_nnz: 4560, traffic: [19008, 311712, 91648, 91648, 55496], prefetch: [1584, 12992, 4, 12988, 12984, 311712, 311808, 311712], adds: 21424, result_hash: 0x8e24a5a7d36c61eb },
];

#[test]
fn every_count_matches_the_pinned_table() {
    let operands = operands();
    let configs = configs();
    assert_eq!(GOLDEN.len(), operands.len() * configs.len());
    let mut scratch = SimScratch::new();
    let mut want = GOLDEN.iter();
    for (op, a, b) in &operands {
        for (name, config) in &configs {
            let got = observe(
                op,
                name,
                &SpArchSim::new(config.clone()).run_with_scratch(a, b, &mut scratch),
            );
            let w = want.next().unwrap();
            let case = format!("{op} × {name}");
            assert_eq!(
                (got.operand, got.config),
                (w.operand, w.config),
                "table order"
            );
            assert_eq!(got.cycles, w.cycles, "{case}: cycles");
            assert_eq!(got.rounds, w.rounds, "{case}: rounds");
            assert_eq!(got.multiplies, w.multiplies, "{case}: multiplies");
            assert_eq!(got.output_nnz, w.output_nnz, "{case}: output nnz");
            assert_eq!(got.traffic, w.traffic, "{case}: traffic per category");
            assert_eq!(got.prefetch, w.prefetch, "{case}: prefetch stats");
            assert_eq!(got.adds, w.adds, "{case}: adds");
            assert_eq!(got.result_hash, w.result_hash, "{case}: result bits");
        }
    }
}

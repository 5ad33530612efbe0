//! Property-based tests (proptest) on the core invariants.

use proptest::collection::vec;
use proptest::prelude::*;
use sparch::core::{
    kway_merge_fold, kway_merge_fold_into, CondensedView, MergePlan, SchedulerKind, SpArchConfig,
    SpArchSim,
};
use sparch::engine::{item, merge_step, ComparatorMerger, HierarchicalMerger, MergeItem};
use sparch::sparse::gen::arb;
use sparch::sparse::{Coo, Csr};

/// Strategy: a sorted, strictly-increasing coordinate stream.
fn sorted_stream() -> impl Strategy<Value = Vec<MergeItem>> {
    vec(0u64..500, 0..40).prop_map(|mut coords| {
        coords.sort_unstable();
        coords.dedup();
        coords
            .into_iter()
            .map(|c| MergeItem {
                coord: c,
                value: c as f64 + 0.5,
            })
            .collect()
    })
}

/// Strategy: a sorted stream that may repeat coordinates (duplicates are
/// legal merge-tree input; the fold sums them) with small integer values
/// so cancellations to exact zero are common.
fn sorted_dup_stream() -> impl Strategy<Value = Vec<MergeItem>> {
    vec((0u64..60, -3i64..=3), 0..50).prop_map(|mut pairs| {
        pairs.sort_by_key(|p| p.0);
        pairs
            .into_iter()
            .map(|(coord, v)| MergeItem {
                coord,
                value: v as f64,
            })
            .collect()
    })
}

/// `BinaryHeap`-based reference for the k-way merge-fold: push *every*
/// `(coord, stream, position)` up front, pop in sorted order, fold
/// duplicate coordinates. Same tie-break order as the streaming merge.
fn reference_merge_fold(streams: &[&[MergeItem]]) -> (Vec<MergeItem>, u64) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap = BinaryHeap::new();
    for (k, s) in streams.iter().enumerate() {
        for (pos, e) in s.iter().enumerate() {
            heap.push(Reverse((e.coord, k, pos)));
        }
    }
    let mut out: Vec<MergeItem> = Vec::new();
    let mut adds = 0u64;
    while let Some(Reverse((coord, k, pos))) = heap.pop() {
        let e = streams[k][pos];
        match out.last_mut() {
            Some(last) if last.coord == coord => {
                last.value += e.value;
                adds += 1;
            }
            _ => out.push(e),
        }
    }
    (out, adds)
}

/// Strategy: a random matrix with shape <= 24x24, from the shared
/// `gen::arb` test-support module (zeros pruned, duplicates folded).
fn small_matrix() -> impl Strategy<Value = Csr> {
    arb::csr(23, 23, 60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_step_equals_sorted_union(a in sorted_stream(), b in sorted_stream()) {
        let merged = merge_step(&a, &b);
        let mut expected: Vec<u64> = a.iter().chain(&b).map(|i| i.coord).collect();
        expected.sort_unstable();
        let got: Vec<u64> = merged.iter().map(|i| i.coord).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn streaming_mergers_agree(a in sorted_stream(), b in sorted_stream(), n in 1usize..8) {
        let flat = ComparatorMerger::new(n).merge(&a, &b);
        let chunk = (1..=n).rev().find(|d| n % d == 0 && *d * *d <= n * 2).unwrap_or(1);
        let hier = HierarchicalMerger::new(n, chunk).merge(&a, &b);
        prop_assert_eq!(flat, hier);
    }

    #[test]
    fn merged_output_is_sorted(a in sorted_stream(), b in sorted_stream()) {
        let out = ComparatorMerger::new(4).merge(&a, &b);
        prop_assert!(item::is_sorted(&out));
        prop_assert_eq!(out.len(), a.len() + b.len());
    }

    #[test]
    fn condensing_partitions_the_matrix(m in small_matrix()) {
        let view = CondensedView::new(&m);
        let mut covered = 0usize;
        for j in 0..view.num_cols() {
            for e in view.col(j) {
                prop_assert_eq!(m.get(e.row as usize, e.orig_col as usize), Some(e.value));
                covered += 1;
            }
        }
        prop_assert_eq!(covered, m.nnz());
    }

    #[test]
    fn huffman_is_minimal_among_schedulers(
        weights in vec(1u64..100, 2..30),
        ways in 2usize..8,
        seed in 0u64..1000,
    ) {
        let h = MergePlan::build(SchedulerKind::Huffman, &weights, ways);
        let s = MergePlan::build(SchedulerKind::Sequential, &weights, ways);
        let r = MergePlan::build(SchedulerKind::Random(seed), &weights, ways);
        h.validate();
        s.validate();
        r.validate();
        prop_assert!(h.estimated_total_weight() <= s.estimated_total_weight());
        prop_assert!(h.estimated_total_weight() <= r.estimated_total_weight());
    }

    #[test]
    fn kway_merge_fold_matches_heap_reference(streams in vec(sorted_dup_stream(), 0..6)) {
        let refs: Vec<&[MergeItem]> = streams.iter().map(|s| s.as_slice()).collect();
        let (expected, expected_adds) = reference_merge_fold(&refs);

        let (out, adds) = kway_merge_fold(&refs);
        prop_assert_eq!(&out, &expected);
        prop_assert_eq!(adds, expected_adds);

        // The `_into` variant agrees and fully replaces prior contents.
        let mut reused = vec![MergeItem { coord: 999, value: 9.9 }; 3];
        let adds_into = kway_merge_fold_into(&refs, &mut reused);
        prop_assert_eq!(&reused, &expected);
        prop_assert_eq!(adds_into, expected_adds);

        // Folded output: strictly sorted, one element per merged-in
        // duplicate fewer than the inputs, zeros kept (not eliminated).
        prop_assert!(item::is_sorted_unique(&out));
        let total: usize = streams.iter().map(|s| s.len()).sum();
        prop_assert_eq!(out.len() as u64, total as u64 - adds);
    }

    #[test]
    fn kway_merge_fold_keeps_explicit_zeros(coords in vec(0u64..40, 1..20)) {
        // Two streams with identical coordinates and cancelling values:
        // every fold produces an exact zero, and the zero stays explicit
        // (zero elimination is the engine's separate stage).
        let mut cs = coords;
        cs.sort_unstable();
        cs.dedup();
        let pos: Vec<MergeItem> = cs.iter().map(|&c| MergeItem { coord: c, value: 2.5 }).collect();
        let neg: Vec<MergeItem> = cs.iter().map(|&c| MergeItem { coord: c, value: -2.5 }).collect();
        let mut out = Vec::new();
        let adds = kway_merge_fold_into(&[&pos, &neg], &mut out);
        prop_assert_eq!(adds as usize, cs.len());
        prop_assert_eq!(out.len(), cs.len());
        prop_assert!(out.iter().all(|e| e.value == 0.0));
        prop_assert_eq!(out.iter().map(|e| e.coord).collect::<Vec<_>>(), cs);
    }

    #[test]
    fn csr_round_trips(m in small_matrix()) {
        prop_assert_eq!(m.to_coo().to_csr(), m.clone());
        prop_assert_eq!(m.to_csc().to_csr(), m.clone());
        prop_assert_eq!(m.transpose().transpose(), m.clone());
        let text = sparch::sparse::mm::write_string(&m.to_coo());
        let parsed = sparch::sparse::mm::read_str(&text).unwrap();
        prop_assert_eq!(parsed.to_csr(), m);
    }

    #[test]
    fn traffic_is_internally_consistent(a in small_matrix()) {
        let sq = {
            // make it square so A x A works
            let n = a.rows().max(a.cols());
            let mut coo = Coo::new(n, n);
            for (r, c, v) in a.iter() { coo.push(r, c, v); }
            coo.to_csr()
        };
        let report = SpArchSim::new(SpArchConfig::default().with_tree_layers(2)).run(&sq, &sq);
        let t = &report.traffic;
        prop_assert_eq!(t.total_bytes(), t.read_bytes() + t.write_bytes());
        // Every spilled partial is read back exactly once.
        prop_assert_eq!(
            t.bytes(sparch::mem::TrafficCategory::PartialWrite),
            t.bytes(sparch::mem::TrafficCategory::PartialRead)
        );
    }
}

mod more_properties {
    use super::*;
    use sparch::core::prefetch::{PrefetchConfig, ReplacementPolicy, RowPrefetcher};
    use sparch::engine::ZeroEliminator;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn zero_eliminator_equals_filter(
            values in vec(prop_oneof![Just(0.0f64), (1u32..100).prop_map(|v| v as f64)], 0..64),
            width in 1usize..16,
        ) {
            let input: Vec<MergeItem> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| MergeItem { coord: i as u64, value: v })
                .collect();
            let expected: Vec<f64> = values.iter().copied().filter(|&v| v != 0.0).collect();
            let mut z = ZeroEliminator::new(width);
            let got: Vec<f64> = z.eliminate(&input).iter().map(|i| i.value).collect();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn prefetcher_traffic_is_conserved(
            accesses in vec(0u32..32, 1..120),
            lines in 1usize..32,
            lookahead in 1usize..64,
        ) {
            let b = sparch::sparse::gen::uniform_random(32, 32, 32 * 4, 9);
            let cfg = PrefetchConfig {
                enabled: true,
                lines,
                line_elems: 4,
                lookahead,
                fetchers: 16,
                policy: ReplacementPolicy::Belady,
            };
            let mut p = RowPrefetcher::new(&b, &cfg, accesses.clone());
            let dram = p.run_to_end();
            let stats = *p.stats();
            // Conservation: hits + misses = requests; DRAM never exceeds
            // the no-buffer cost and never undercuts the distinct-rows cost.
            prop_assert_eq!(stats.line_hits + stats.line_misses, stats.line_requests);
            prop_assert_eq!(stats.dram_bytes, dram);
            let worst: u64 = accesses
                .iter()
                .map(|&r| b.row_nnz(r as usize) as u64 * 12)
                .sum();
            prop_assert!(dram <= worst);
            let distinct: std::collections::HashSet<u32> = accesses.iter().copied().collect();
            let best: u64 = distinct
                .iter()
                .map(|&r| b.row_nnz(r as usize) as u64 * 12)
                .sum();
            prop_assert!(dram >= best, "dram {} below compulsory {}", dram, best);
        }

        #[test]
        fn belady_beats_or_ties_lru_hit_rate(
            accesses in vec(0u32..24, 10..150),
            lines in 2usize..16,
        ) {
            let b = sparch::sparse::gen::uniform_random(24, 24, 24 * 4, 5);
            let run = |policy| {
                let cfg = PrefetchConfig {
                    enabled: true,
                    lines,
                    line_elems: 8,
                    lookahead: 4096, // window covers the whole sequence
                    fetchers: 16,
                    policy,
                };
                let mut p = RowPrefetcher::new(&b, &cfg, accesses.clone());
                p.run_to_end();
                p.stats().line_hits
            };
            let belady = run(ReplacementPolicy::Belady);
            let lru = run(ReplacementPolicy::Lru);
            prop_assert!(
                belady >= lru,
                "Belady hits {} below LRU {} for {:?}", belady, lru, accesses
            );
        }

        #[test]
        fn huffman_internal_weight_lower_bound(
            weights in vec(1u64..50, 2..20),
            ways in 2usize..6,
        ) {
            // Internal weight can never be below the root alone (sum of
            // leaves) and never above sum * rounds.
            let plan = MergePlan::build(SchedulerKind::Huffman, &weights, ways);
            let total: u64 = weights.iter().sum();
            prop_assert!(plan.estimated_internal_weight() >= total);
            prop_assert!(
                plan.estimated_internal_weight() <= total * plan.rounds.len() as u64
            );
        }
    }
}

//! Shared proptest strategies for random sparse matrices (test support).
//!
//! Before this module existed, every `#[cfg(test)]` block rolled its own
//! random-matrix builder (`gen::uniform_random` with ad-hoc dims in each
//! algo module, a hand-written COO strategy in `tests/properties.rs`).
//! This module centralizes them as composable [`proptest`] strategies over
//! three axes:
//!
//! * **dims** — bounded shapes, including the degenerate `1×N` / `N×1`,
//! * **density** — a target entry count drawn up to a bound,
//! * **value class** — [`ValueClass`]: small integers (cancellation to
//!   exact zero is common), unit pattern values, continuous floats, or
//!   IEEE-754 edge values (signed zeros, infinities, NaN, subnormals).
//!
//! It is compiled for this crate's own unit tests and, for external
//! consumers (the facade's `tests/`), behind the `arb` cargo feature:
//!
//! ```toml
//! [dev-dependencies]
//! sparch-sparse = { workspace = true, features = ["arb"] }
//! ```
//!
//! Plain (non-proptest) tests draw deterministic cases from a strategy
//! with [`sample`], so "run this check on 5 random pairs" tests share the
//! same generators as the property tests.

use crate::{Coo, Csr};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestRng;

/// How stored values are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueClass {
    /// Integers in `[-4, 4]` **excluding 0** — folds cancel to exact zero
    /// often, but no entry starts as an explicit zero.
    SmallInt,
    /// Integers in `[-4, 4]` *including 0* — explicit zeros are stored,
    /// as `+0.0` or `-0.0`.
    SmallIntWithZeros,
    /// Every value is `1.0` (pattern matrices).
    Unit,
    /// Continuous floats in `(-4, 4)`, never exactly zero.
    Float,
    /// Mostly integers in `[-4, 4] \ {0}`, plus about one value in six
    /// drawn from `±0.0`, `±∞`, a NaN with a payload, or `±` a
    /// subnormal. No product or sum of these can overflow to `±∞`
    /// from finite terms at any realistic inner dimension.
    Edge,
}

/// The NaN [`ValueClass::Edge`] draws: quiet, with a non-zero payload,
/// so a kernel that loses or rewrites the payload is visible in bits.
pub const PAYLOAD_NAN: f64 = f64::from_bits(0x7ff8_0000_0000_beef);

/// Strategy for one stored value of the given class.
pub fn value(class: ValueClass) -> BoxedStrategy<f64> {
    match class {
        ValueClass::SmallInt => (1i32..=4, prop_oneof![Just(1.0), Just(-1.0)])
            .prop_map(|(m, s)| m as f64 * s)
            .boxed(),
        ValueClass::SmallIntWithZeros => (-4i32..=4, prop_oneof![Just(1.0), Just(-1.0)])
            .prop_map(|(v, s)| if v == 0 { 0.0 * s } else { v as f64 })
            .boxed(),
        ValueClass::Unit => Just(1.0).boxed(),
        ValueClass::Float => (0.0625f64..4.0, prop_oneof![Just(1.0), Just(-1.0)])
            .prop_map(|(m, s)| m * s)
            .boxed(),
        ValueClass::Edge => (0u32..32, 1i32..=4, prop_oneof![Just(1.0), Just(-1.0)])
            .prop_map(|(pick, m, s)| match pick {
                0 => 0.0 * s,
                1 => f64::INFINITY * s,
                2 => PAYLOAD_NAN,
                3 | 4 => f64::from_bits(m as u64 * 0x1_0000_0001) * s, // subnormal
                _ => m as f64 * s,
            })
            .boxed(),
    }
}

/// Strategy for matrix dims: `1..=max_rows` × `1..=max_cols` (so `1×N`
/// and `N×1` edge shapes occur naturally).
pub fn dims(max_rows: usize, max_cols: usize) -> impl Strategy<Value = (usize, usize)> {
    (1..=max_rows, 1..=max_cols)
}

/// Strategy for a random CSR matrix with the given shape bounds, up to
/// `max_nnz` raw entries of the given value class. Duplicate coordinates
/// are folded (COO canonicalization); explicit zeros — whether stored
/// directly by [`ValueClass::SmallIntWithZeros`] or produced by folds —
/// are **kept**, matching the repository-wide convention that zero
/// elimination is a separate, explicit stage.
pub fn csr_with(
    max_rows: usize,
    max_cols: usize,
    max_nnz: usize,
    class: ValueClass,
) -> impl Strategy<Value = Csr> {
    dims(max_rows, max_cols).prop_flat_map(move |(r, c)| {
        vec((0..r as u32, 0..c as u32, value(class)), 0..max_nnz.max(1)).prop_map(move |entries| {
            let mut coo = Coo::new(r, c);
            for (i, j, v) in entries {
                coo.push(i, j, v);
            }
            coo.to_csr()
        })
    })
}

/// Strategy matching the historical `small_matrix()` of
/// `tests/properties.rs`: shape `< 24×24`, small-integer values, folded
/// duplicates, **zeros pruned** (structurally sparse input).
pub fn csr(max_rows: usize, max_cols: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    dims(max_rows, max_cols).prop_flat_map(move |(r, c)| {
        vec(
            (
                0..r as u32,
                0..c as u32,
                value(ValueClass::SmallIntWithZeros),
            ),
            0..max_nnz.max(1),
        )
        .prop_map(move |entries| {
            let mut coo = Coo::new(r, c);
            for (i, j, v) in entries {
                if v != 0.0 {
                    coo.push(i, j, v);
                }
            }
            coo.sort_dedup();
            coo.prune_zeros();
            coo.to_csr()
        })
    })
}

/// Strategy for a shape-compatible SpGEMM pair `(A, B)` with
/// `A: r×k`, `B: k×c`, each with up to `max_nnz` entries of `class`.
pub fn spgemm_pair(
    max_dim: usize,
    max_nnz: usize,
    class: ValueClass,
) -> impl Strategy<Value = (Csr, Csr)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(move |(r, k, c)| {
        (
            vec((0..r as u32, 0..k as u32, value(class)), 0..max_nnz.max(1)),
            vec((0..k as u32, 0..c as u32, value(class)), 0..max_nnz.max(1)),
        )
            .prop_map(move |(ea, eb)| {
                let mut ca = Coo::new(r, k);
                for (i, j, v) in ea {
                    ca.push(i, j, v);
                }
                let mut cb = Coo::new(k, c);
                for (i, j, v) in eb {
                    cb.push(i, j, v);
                }
                (ca.to_csr(), cb.to_csr())
            })
    })
}

/// Draws one deterministic case from `strategy` for the given seed — the
/// bridge that lets plain `#[test]`s ("check 5 random pairs") reuse these
/// strategies without the `proptest!` macro.
pub fn sample<S: Strategy>(strategy: &S, seed: u64) -> S::Value {
    strategy.generate(&mut TestRng::new(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_deterministic() {
        let s = csr(16, 16, 40);
        assert_eq!(sample(&s, 3), sample(&s, 3));
    }

    #[test]
    fn spgemm_pairs_are_compatible() {
        let s = spgemm_pair(20, 60, ValueClass::SmallInt);
        for seed in 0..20 {
            let (a, b) = sample(&s, seed);
            assert_eq!(a.cols(), b.rows(), "seed {seed}");
        }
    }

    #[test]
    fn value_classes_respect_their_contract() {
        for seed in 0..30 {
            let v = sample(&value(ValueClass::SmallInt), seed);
            assert!(v != 0.0 && v.fract() == 0.0 && v.abs() <= 4.0);
            let v = sample(&value(ValueClass::Unit), seed);
            assert_eq!(v, 1.0);
            let v = sample(&value(ValueClass::Float), seed);
            assert!(v != 0.0 && v.abs() < 4.0);
        }
        let zeros: Vec<u64> = (0..200)
            .map(|seed| sample(&value(ValueClass::SmallIntWithZeros), seed))
            .filter(|&v| v == 0.0)
            .map(f64::to_bits)
            .collect();
        assert!(zeros.contains(&0.0f64.to_bits()) && zeros.contains(&(-0.0f64).to_bits()));
        let edge: Vec<f64> = (0..400)
            .map(|seed| sample(&value(ValueClass::Edge), seed))
            .collect();
        assert!(edge
            .iter()
            .all(|v| v.is_nan() || v.abs() <= 4.0 || v.is_infinite()));
        assert!(edge.iter().any(|v| v.to_bits() == PAYLOAD_NAN.to_bits()));
        assert!(edge.iter().any(|v| v.is_subnormal()));
        assert!(edge.contains(&f64::NEG_INFINITY));
        assert!(edge.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()));
    }

    #[test]
    fn csr_prunes_zeros_but_csr_with_keeps_them() {
        let pruned = csr(12, 12, 80);
        for seed in 0..20 {
            let m = sample(&pruned, seed);
            assert!(m.values().iter().all(|&v| v != 0.0), "seed {seed}");
        }
        // With zeros allowed, some seed stores an explicit zero.
        let kept = csr_with(12, 12, 80, ValueClass::SmallIntWithZeros);
        assert!((0..50).any(|seed| sample(&kept, seed).values().contains(&0.0)));
    }
}

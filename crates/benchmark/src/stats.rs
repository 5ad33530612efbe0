//! Order statistics over small timing samples.
//!
//! Every timed metric is reported as a median with its quartiles, range
//! and sample count; a tail percentile is reported only as high as the
//! sample count supports (at least ten samples beyond it).

use serde_json::Value;

/// The `i`-th of `parts` cut points of `sorted` (ascending, at least two
/// samples), by the exclusive method — the one Python's
/// `statistics.quantiles` defaults to, so a spread printed here is the
/// spread a reader recomputes from the raw values there.
fn cut_point(sorted: &[f64], i: usize, parts: usize) -> f64 {
    let n = sorted.len();
    let j = (i * (n + 1) / parts).clamp(1, n - 1);
    // Signed: clamping `j` lets the cut point extrapolate past the ends
    // of a tiny sample, exactly as the Python method does.
    let delta = (i * (n + 1)) as f64 - (j * parts) as f64;
    (sorted[j - 1] * (parts as f64 - delta) + sorted[j] * delta) / parts as f64
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    (s[(n - 1) / 2] + s[n / 2]) / 2.0
}

/// First and third quartile (a single sample is its own quartiles).
fn quartiles_sorted(s: &[f64]) -> (f64, f64) {
    if s.len() < 2 {
        return (s[0], s[0]);
    }
    (cut_point(s, 1, 4), cut_point(s, 3, 4))
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    median_sorted(&sorted(samples))
}

/// The highest whole percentile (at most `cap`, above the median) that
/// still has at least ten samples beyond it, with its nearest-rank value;
/// `None` when the sample is too small to support one.
pub fn tail_percentile(samples: &[f64], cap: u32) -> Option<(u32, f64)> {
    let s = sorted(samples);
    let n = s.len();
    let pct = ((n.checked_sub(10)? * 100 / n) as u32).min(cap);
    // Nearest rank: the smallest value with at least pct % of the sample
    // at or below it, which leaves n - rank >= 10 samples beyond.
    let rank = (pct as usize * n).div_ceil(100).max(1);
    (pct > 50).then(|| (pct, s[rank - 1]))
}

/// A metric's value with the spread it was observed at. Counts and other
/// single observations carry `n = 1` and a zero-width spread.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        let (q1, q3) = quartiles_sorted(&s);
        Summary {
            median: median_sorted(&s),
            min: s[0],
            max: s[s.len() - 1],
            q1,
            q3,
            n: s.len(),
        }
    }

    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self, unit: &str) -> Value {
        Value::Obj(vec![
            ("value".into(), Value::F64(self.median)),
            ("unit".into(), Value::Str(unit.into())),
            ("min".into(), Value::F64(self.min)),
            ("max".into(), Value::F64(self.max)),
            ("q1".into(), Value::F64(self.q1)),
            ("q3".into(), Value::F64(self.q3)),
            ("n".into(), Value::U64(self.n as u64)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        let num = |key: &str| json_f64(v.get(key)?);
        Some(Summary {
            median: num("value")?,
            min: num("min")?,
            max: num("max")?,
            q1: num("q1")?,
            q3: num("q3")?,
            n: num("n")? as usize,
        })
    }
}

/// Any JSON number as `f64`.
pub fn json_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(f) => Some(f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    fn quartiles(samples: &[f64]) -> (f64, f64) {
        let s = Summary::of(samples);
        (s.q1, s.q3)
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // 20 samples: only the median has ten beyond it.
        assert_eq!(tail_percentile(&v, 99), None);
        assert_eq!(tail_percentile(&v[..9], 99), None);

        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99), Some((90, 90.0)));
        assert_eq!(tail_percentile(&v, 75), Some((75, 75.0)));

        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95), Some((95, 950.0)));
        assert_eq!(tail_percentile(&v, 100), Some((99, 990.0)));

        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        // 199 samples: p95 would leave only nine beyond; p94 leaves eleven.
        assert_eq!(tail_percentile(&v, 95), Some((94, 188.0)));
    }

    #[test]
    fn summary_round_trips_and_reports_spread() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::from_json(&s.to_json("s")), Some(s));
        assert_eq!(Summary::single(0.0).spread(), 0.0);
    }
}

//! Sample summaries: median, quartiles, and the tail percentile a sample
//! count can support.

/// Median of `v` (midpoint of the two central values for even counts);
/// 0 for an empty sample, which only untouched layer metrics produce.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the rule the acceptance check of
/// this benchmark is written in. Needs at least two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median: the spread the
/// repeatability criterion bounds.
pub fn spread(v: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(v)?;
    let m = median(v);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The `q`-quantile of `v` by linear interpolation between order statistics
/// (`q = 0` is the minimum); 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    s[lo] + (s[(lo + 1).min(s.len() - 1)] - s[lo]) * frac
}

/// The percentiles a report may quote, lowest first, in tenths of a
/// percent (ranks are computed in integers: 99.9% of 10 000 is rank 9990).
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it, with its nearest-rank value; `None` below 20 samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    LADDER
        .iter()
        .rev()
        .map(|&p| (p, (p * n).div_ceil(1000).max(1)))
        .find(|&(_, rank)| rank <= n && n - rank >= 10)
        .map(|(p, rank)| (p as f64 / 10.0, s[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some(10.5 / 4.0));
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
        assert_eq!(quantile(&[], 0.1), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(19)), None);
        assert_eq!(tail(&v(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&v(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&v(200)), Some((95.0, 190.0)));
        assert_eq!(tail(&v(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&v(10_000)), Some((99.9, 9990.0)));
    }
}

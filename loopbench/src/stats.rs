//! The statistics the report and the compare mode share: the percentile
//! definition, the failure share, and the before/after comparison rule.

use std::fmt;

/// Samples that must lie beyond a tail percentile before it may be
/// reported: p95 needs 200 samples, p99 needs 1000.
pub const TAIL_SAMPLES: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PercentileError {
    /// No samples at all.
    Empty,
    /// Fewer samples than the percentile needs (see [`min_samples`]).
    TooFewSamples { q: f64, have: usize, need: usize },
}

impl fmt::Display for PercentileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PercentileError::Empty => write!(f, "no samples"),
            PercentileError::TooFewSamples { q, have, need } => write!(
                f,
                "p{} needs {need} samples so that {TAIL_SAMPLES} lie beyond it, have {have}",
                q * 100.0
            ),
        }
    }
}

/// The smallest sample count that leaves [`TAIL_SAMPLES`] samples beyond
/// percentile `q` (a fraction in `(0, 1)`). The median and lower
/// percentiles need one sample.
pub fn min_samples(q: f64) -> usize {
    if q <= 0.5 {
        1
    } else {
        // The epsilon absorbs the rounding of `1 - q` (10 / 0.05 is
        // 199.99999999999997 in binary floating point).
        (TAIL_SAMPLES as f64 / (1.0 - q) - 1e-6).ceil() as usize
    }
}

/// Nearest-rank percentile: the smallest sample such that at least a
/// fraction `q` of all samples is at or below it. `samples` need not be
/// sorted.
///
/// # Errors
///
/// Refuses an empty input and a tail percentile with fewer than
/// [`min_samples`] samples.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, PercentileError> {
    if samples.is_empty() {
        return Err(PercentileError::Empty);
    }
    let need = min_samples(q);
    if samples.len() < need {
        return Err(PercentileError::TooFewSamples {
            q,
            have: samples.len(),
            need,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Ok(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Failed operations as a percentage of attempted ones.
///
/// # Panics
///
/// Panics if `attempted` is 0 or smaller than `failed`: every run attempts
/// at least one operation, and failures are a subset of attempts.
pub fn failed_ops_pct(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "a run attempts at least one operation");
    assert!(failed <= attempted, "more failures than attempts");
    100.0 * failed as f64 / attempted as f64
}

/// The median of a small set of run values (the mean of the two middle
/// values for an even count, as Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile of a set of run values, by the same method as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method),
/// so a spread computed here matches one computed with Python.
/// A single value has no spread: both quartiles are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0]);
    }
    let m = ld + 1;
    let quantile = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (quantile(1), quantile(3))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Whether `a` is strictly better than `b`.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }

    /// How much worse `change` is than `base`, as a share of `base`
    /// (negative when it is better).
    fn worsening(self, change: f64, base: f64) -> f64 {
        let diff = match self {
            Better::Lower => change - base,
            Better::Higher => base - change,
        };
        diff / base.abs()
    }
}

/// The outcome of comparing a change's runs against its parent's on one
/// workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and the medians
    /// differ by more than the parent's own quartile spread.
    Improved,
    /// The change's median is within the metric's bound of the parent's.
    NoWorse,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// The parent's runs spread wider than the bound, so "no worse" cannot
    /// be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A comparison with everything its verdict rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    pub verdict: Verdict,
    pub parent_median: f64,
    pub change_median: f64,
    /// Parent quartile spread as a share of the parent median.
    pub parent_spread: f64,
    /// Pairs the change won, lost, and tied (ties count for neither).
    pub wins: usize,
    pub losses: usize,
    pub ties: usize,
}

impl Comparison {
    /// Change median over parent median: the ratio's base is the parent.
    pub fn ratio(&self) -> f64 {
        self.change_median / self.parent_median
    }
}

/// Compares run values of a change against its parent's. Run `i` of one
/// side pairs with run `i` of the other (runs are expected to alternate
/// sides). `bound` is the share of the parent median the metric may worsen
/// by.
///
/// # Panics
///
/// Panics if either side is empty or the parent median is 0.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    assert!(
        !parent.is_empty() && !change.is_empty(),
        "comparison needs runs on both sides"
    );
    let parent_median = median(parent);
    let change_median = median(change);
    assert!(parent_median != 0.0, "ratios need a non-zero parent median");
    let (q1, q3) = quartiles(parent);
    let parent_spread = (q3 - q1) / parent_median.abs();
    let (mut wins, mut losses, mut ties) = (0, 0, 0);
    for (&p, &c) in parent.iter().zip(change) {
        if better.beats(c, p) {
            wins += 1;
        } else if better.beats(p, c) {
            losses += 1;
        } else {
            ties += 1;
        }
    }
    let pairs = wins + losses + ties;
    let medians_apart = (change_median - parent_median).abs() > q3 - q1;
    let dominates = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better.beats(c, p)));
    let verdict =
        if wins * 10 >= pairs * 9 && medians_apart && better.beats(change_median, parent_median) {
            Verdict::Improved
        } else if better.worsening(change_median, parent_median) > bound {
            Verdict::Worse
        } else if parent_spread > bound && !dominates {
            Verdict::Unresolved
        } else {
            Verdict::NoWorse
        };
    Comparison {
        verdict,
        parent_median,
        change_median,
        parent_spread,
        wins,
        losses,
        ties,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        assert_eq!(min_samples(0.5), 1);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.95), 200);
        assert_eq!(min_samples(0.99), 1000);
        let data: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(
            percentile(&data, 0.95),
            Err(PercentileError::TooFewSamples {
                q: 0.95,
                have: 199,
                need: 200
            })
        );
        let data: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&data, 0.99).is_err());
        assert_eq!(percentile(&[], 0.5), Err(PercentileError::Empty));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let data: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&data, 0.5), Ok(100.0));
        assert_eq!(percentile(&data, 0.95), Ok(190.0));
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.99), Ok(990.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Ok(2.0));
        assert_eq!(percentile(&[7.0], 0.5), Ok(7.0));
    }

    #[test]
    fn failed_ops_share() {
        assert_eq!(failed_ops_pct(0, 10), 0.0);
        assert_eq!(failed_ops_pct(1, 4), 25.0);
        assert_eq!(failed_ops_pct(3, 3), 100.0);
    }

    #[test]
    #[should_panic(expected = "at least one operation")]
    fn failed_ops_share_refuses_no_attempts() {
        failed_ops_pct(0, 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn nine_of_ten_wins_with_separated_medians_is_an_improvement() {
        let parent = runs(100.0, 0.1);
        let change = runs(80.0, 0.1);
        let c = compare(&parent, &change, Better::Lower, 0.05);
        assert_eq!(
            (c.verdict, c.wins, c.losses, c.ties),
            (Verdict::Improved, 10, 0, 0)
        );
        assert!((c.ratio() - 0.8 / 1.0).abs() < 0.01);
        // The same figures are a regression for a higher-is-better metric.
        let c = compare(&parent, &change, Better::Higher, 0.05);
        assert_eq!(c.verdict, Verdict::Worse);
    }

    #[test]
    fn ties_count_for_neither_side() {
        // Eight wins and two ties: 8 of 10 pairs is short of nine tenths,
        // although the change never loses.
        let parent = runs(100.0, 0.1);
        let mut change: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        change[0] = parent[0];
        change[1] = parent[1];
        let c = compare(&parent, &change, Better::Lower, 0.05);
        assert_eq!((c.wins, c.losses, c.ties), (8, 0, 2));
        assert_ne!(c.verdict, Verdict::Improved);
        // Nine wins and one tie is enough.
        change[1] = parent[1] - 20.0;
        let c = compare(&parent, &change, Better::Lower, 0.05);
        assert_eq!((c.wins, c.ties, c.verdict), (9, 1, Verdict::Improved));
    }

    #[test]
    fn wins_without_separated_medians_are_not_an_improvement() {
        // The change wins every pair by a hair, less than the parent's own
        // quartile spread.
        let parent = runs(100.0, 1.0);
        let change: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        let c = compare(&parent, &change, Better::Lower, 0.25);
        assert_eq!(c.wins, 10);
        assert_eq!(c.verdict, Verdict::NoWorse);
    }

    #[test]
    fn worse_and_unresolved_follow_the_bound() {
        let parent = runs(100.0, 0.1);
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(
            compare(&parent, &slower, Better::Lower, 0.1).verdict,
            Verdict::Worse
        );
        assert_eq!(
            compare(&parent, &slower, Better::Lower, 0.25).verdict,
            Verdict::NoWorse
        );
        // A parent spreading wider than the bound leaves "no worse"
        // unresolved ...
        let noisy = runs(50.0, 10.0);
        let same = noisy.clone();
        assert_eq!(
            compare(&noisy, &same, Better::Lower, 0.1).verdict,
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        let all_better: Vec<f64> = noisy.iter().map(|_| 40.0).collect();
        let c = compare(&noisy, &all_better, Better::Lower, 0.1);
        assert_ne!(c.verdict, Verdict::Unresolved);
    }
}

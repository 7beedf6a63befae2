//! Order statistics over timing samples.

/// Fewest samples that must lie beyond a reported percentile. With `p90`
/// as the highest percentile reported, this puts the floor at 100 ops.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count for which `percentile(_, p)` has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn min_samples_for(p: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - p) - 1e-9).ceil() as usize
}

/// Nearest-rank percentile (`p` in `0.0..=1.0`) of an unsorted sample.
/// Returns NaN for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Blocks a timed phase is cut into. Each block gives its own p50, p90 and
/// throughput and the phase reports the median of the blocks, so that a
/// burst of interference from the machine moves one block, not the result.
pub const BLOCKS: usize = 5;

/// `(op_ms_p50, op_ms_p90, ops_per_s)` of a phase under one estimator.
pub type Triple = (f64, f64, f64);

/// The three estimators that were compared when this benchmark was defined
/// (README, "How the estimator was chosen"). Only one is reported as the
/// metric; all three go into the run file so a study can compare them on the
/// same runs.
pub struct Estimates {
    /// Nearest-rank percentiles over all ops; ops over the phase's span.
    pub plain: Triple,
    /// Median over the blocks of each block's own value.
    pub block_median: Triple,
    /// Second-best block (second-lowest time, second-highest rate of five).
    pub block_q1: Triple,
}

/// Ops are given as `(seconds from phase start to the op's end, op time in
/// ms)`. They are ordered by end time and cut into [`BLOCKS`] groups of
/// equal count; a block's throughput is its count over the time from the
/// previous block's last end to its own. Phases too short to give every
/// block five ops are one block.
pub fn estimates(ops: &[(f64, f64)]) -> Estimates {
    let mut ops = ops.to_vec();
    ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    let all: Vec<f64> = ops.iter().map(|o| o.1).collect();
    let span = ops.last().map_or(f64::NAN, |o| o.0);
    let plain = (
        percentile(&all, 0.5),
        percentile(&all, 0.9),
        all.len() as f64 / span,
    );
    let blocks = if ops.len() >= BLOCKS * 5 { BLOCKS } else { 1 };
    let (mut p50s, mut p90s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut from = 0;
    let mut t_prev = 0.0;
    for b in 1..=blocks {
        let to = ops.len() * b / blocks;
        let ms = &all[from..to];
        let t_end = ops[to - 1].0;
        p50s.push(percentile(ms, 0.5));
        p90s.push(percentile(ms, 0.9));
        rates.push(ms.len() as f64 / (t_end - t_prev));
        (from, t_prev) = (to, t_end);
    }
    // Second-best of the blocks: rank 2 ascending for times, descending for
    // rates (the only block, when there is one).
    let second = |v: &[f64], ascending: bool| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        if !ascending {
            v.reverse();
        }
        v[1.min(v.len() - 1)]
    };
    Estimates {
        plain,
        block_median: (median(&p50s), median(&p90s), median(&rates)),
        block_q1: (
            second(&p50s, true),
            second(&p90s, true),
            second(&rates, false),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.5), 20);
        // With exactly 100 samples, ten lie beyond p90.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 0.9);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), MIN_BEYOND);
    }

    #[test]
    fn a_burst_in_one_block_does_not_move_the_summary() {
        // 100 ops of 10 ms back to back; ops 40..60 hit a 5x burst.
        let mut t = 0.0;
        let ops: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let ms = if (40..60).contains(&i) { 50.0 } else { 10.0 };
                t += ms / 1e3;
                (t, ms)
            })
            .collect();
        let e = estimates(&ops);
        let (p50, p90, rate) = e.block_median;
        assert_eq!((p50, p90), (10.0, 10.0));
        assert!((rate - 100.0).abs() < 1e-6, "{rate}");
        assert_eq!(e.block_q1.0, 10.0);
        // The plain p90 over all ops reports the burst.
        assert_eq!(e.plain.1, 50.0);
    }

    #[test]
    fn short_phases_are_one_block_and_order_does_not_matter() {
        let ops = [(0.3, 30.0), (0.1, 10.0), (0.2, 20.0)];
        let e = estimates(&ops);
        assert_eq!((e.block_median.0, e.block_median.1), (20.0, 30.0));
        assert!((e.block_median.2 - 10.0).abs() < 1e-9);
        assert_eq!(e.block_q1, e.block_median);
        assert_eq!(e.plain, e.block_median);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

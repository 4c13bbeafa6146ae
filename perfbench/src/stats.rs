//! Statistics helpers: nearest-rank percentiles, the rule that picks
//! which tail percentile may be reported, rates over equal batches and
//! their trimmed mean, and the self time of a span once its children
//! are subtracted.

/// Nearest-rank percentile of an ascending-sorted sample, with the
/// percentile given in tenths of a percent (`500` = p50, `990` = p99,
/// `999` = p99.9): the smallest value with at least that share of the
/// sample at or below it. Integer rank arithmetic, so p50 of `1..=100`
/// is exactly 50 and p99 of 1000 samples is rank 990.
pub fn percentile(sorted: &[f64], permille: u64) -> Option<f64> {
    let n = sorted.len() as u64;
    if n == 0 {
        return None;
    }
    let rank = (permille * n).div_ceil(1000).clamp(1, n);
    Some(sorted[rank as usize - 1])
}

/// Samples strictly beyond the nearest-rank percentile `permille`.
pub fn beyond(n: usize, permille: u64) -> usize {
    let n = n as u64;
    n.saturating_sub((permille * n).div_ceil(1000).clamp(1, n.max(1))) as usize
}

/// Tail percentiles a report may choose from, highest first.
pub const TAIL_CANDIDATES: [u64; 3] = [999, 990, 900];

/// The highest tail percentile with at least ten samples beyond it, and
/// its value; `None` when even p90 has fewer than ten beyond it.
pub fn tail_percentile(sorted: &[f64]) -> Option<(u64, f64)> {
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| beyond(sorted.len(), p) >= 10)
        .and_then(|&p| percentile(sorted, p).map(|v| (p, v)))
}

/// Median of an unsorted sample (mean of the middle two for an even
/// count, like Python's `statistics.median`).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Splits completions into consecutive batches of `batch` items and
/// returns each full batch's rate: work done in the batch divided by the
/// time from the previous batch's last completion (or `start`) to this
/// batch's last completion. A trailing partial batch is dropped.
///
/// `completions` are `(seconds since an epoch, work)` pairs in any
/// order; `start` is the epoch time the measured phase began.
pub fn batch_rates(completions: &[(f64, f64)], batch: usize, start: f64) -> Vec<f64> {
    let mut sorted = completions.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut rates = Vec::new();
    let mut from = start;
    for group in sorted.chunks_exact(batch.max(1)) {
        let end = group[group.len() - 1].0;
        let work: f64 = group.iter().map(|&(_, w)| w).sum();
        if end > from {
            rates.push(work / (end - from));
        }
        from = end;
    }
    rates
}

/// Mean of the values left after dropping the lowest and highest
/// `trim` share of them, rounded up but always keeping at least one
/// value (or two, for an even count).
pub fn trimmed_mean(values: &[f64], trim: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = ((v.len() as f64 * trim).ceil() as usize).min(v.len().saturating_sub(1) / 2);
    let kept = &v[cut..v.len() - cut];
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Share of batches dropped at each end by [`batch_rate`].
pub const BATCH_TRIM: f64 = 0.1;

/// The rate a run reports from a measured phase cut into segments,
/// each given as `(start, completions)`: the mean of the middle 80% of
/// the [`batch_rates`] of all segments. Batches never straddle the gap
/// between two segments. A burst from a neighbour moves one batch,
/// which the trim drops, while the slower and faster stretches a shared
/// host alternates between for seconds at a time are averaged rather
/// than letting the median jump between them.
pub fn batch_rate(segments: &[(f64, Vec<(f64, f64)>)], batch: usize) -> Option<f64> {
    let rates: Vec<f64> = segments
        .iter()
        .flat_map(|(start, done)| batch_rates(done, batch, *start))
        .collect();
    trimmed_mean(&rates, BATCH_TRIM)
}

/// Percentile `permille` a run reports for latencies taken in segments,
/// each list in completion order (or one client's after another's):
/// the trimmed mean of the percentile of every run of `batch`
/// consecutive samples, a trailing partial batch of each segment
/// dropped. Like [`batch_rate`], it moves in proportion to the share of
/// the run the host spends slow, where the percentile of the pooled
/// sample jumps between the slow and the fast cluster.
pub fn batch_percentile(segments: &[&[f64]], batch: usize, permille: u64) -> Option<f64> {
    let per_batch: Vec<f64> = segments
        .iter()
        .flat_map(|s| s.chunks_exact(batch.max(1)))
        .filter_map(|c| {
            let mut c = c.to_vec();
            c.sort_by(f64::total_cmp);
            percentile(&c, permille)
        })
        .collect();
    trimmed_mean(&per_batch, BATCH_TRIM)
}

/// Self time of a span covering `[start, end)`: its duration minus the
/// part of that interval covered by at least one child interval.
/// Children may overlap each other and may stick out of the parent;
/// only the covered part inside the parent is subtracted.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: u32) -> Vec<f64> {
        (1..=n).map(f64::from).collect()
    }

    #[test]
    fn nearest_rank_percentiles_on_fixed_samples() {
        let s = one_to(100);
        assert_eq!(percentile(&s, 500), Some(50.0));
        assert_eq!(percentile(&s, 990), Some(99.0));
        assert_eq!(percentile(&s, 1000), Some(100.0));
        assert_eq!(percentile(&s, 0), Some(1.0));
        assert_eq!(percentile(&one_to(1000), 990), Some(990.0));
        assert_eq!(percentile(&one_to(1000), 999), Some(999.0));
        // Odd count: p50 of 1..=5 is the middle value.
        assert_eq!(percentile(&one_to(5), 500), Some(3.0));
        // Rank rounds up: p90 of 1..=15 is rank 14.
        assert_eq!(percentile(&one_to(15), 900), Some(14.0));
        assert_eq!(percentile(&[], 500), None);
        assert_eq!(percentile(&[7.0], 990), Some(7.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(beyond(999, 990), 9);
        assert_eq!(beyond(989, 990), 9);
        assert_eq!(beyond(10_000, 999), 10);
        // 10 000 samples: p99.9 has exactly ten beyond it.
        assert_eq!(tail_percentile(&one_to(10_000)), Some((999, 9990.0)));
        // 1000 samples: p99.9 has one beyond it, so p99 is the tail.
        assert_eq!(tail_percentile(&one_to(1000)), Some((990, 990.0)));
        // 989 samples: p99 has only nine beyond it, so p90 is the tail.
        assert_eq!(tail_percentile(&one_to(989)), Some((900, 891.0)));
        // 100 samples: p90 has exactly ten beyond it.
        assert_eq!(tail_percentile(&one_to(100)), Some((900, 90.0)));
        // 99 samples: nothing qualifies.
        assert_eq!(tail_percentile(&one_to(99)), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        let v: Vec<f64> = one_to(10);
        // 10% of 10 values: drop 1 and 10, mean of 2..=9.
        assert_eq!(trimmed_mean(&v, 0.1), Some(5.5));
        // The cut rounds up: one value from each end of three.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 9.0], 0.1), Some(2.0));
        // But always keeps the middle.
        assert_eq!(trimmed_mean(&[1.0, 3.0], 0.1), Some(2.0));
        assert_eq!(trimmed_mean(&[5.0], 0.4), Some(5.0));
        // One outlier among twenty moves the trimmed mean not at all.
        let mut v = vec![4.0; 19];
        v.push(1000.0);
        assert_eq!(trimmed_mean(&v, 0.1), Some(4.0));
        assert_eq!(trimmed_mean(&[], 0.1), None);
    }

    #[test]
    fn batch_rates_use_equal_batches_and_drop_the_tail() {
        // Work 1 each at t = 1, 2, ..., 9 with batches of 3: batches end
        // at 3, 6 and 9, each covering 3 s from the previous end.
        let c: Vec<(f64, f64)> = (1..=9).map(|t| (f64::from(t), 1.0)).collect();
        assert_eq!(batch_rates(&c, 3, 0.0), vec![1.0, 1.0, 1.0]);
        // Ten completions: the tenth is a partial batch and is dropped.
        let mut c10 = c.clone();
        c10.push((100.0, 1.0));
        assert_eq!(batch_rates(&c10, 3, 0.0).len(), 3);
        // Order of input does not matter.
        let mut rev = c.clone();
        rev.reverse();
        assert_eq!(batch_rates(&rev, 3, 0.0), vec![1.0, 1.0, 1.0]);
        // One slow batch among ten moves one rate, which the trim drops.
        let mut c: Vec<(f64, f64)> = (1..=10).map(|t| (f64::from(t), 4.0)).collect();
        for (t, _) in c.iter_mut().skip(5) {
            *t += 9.0;
        }
        let rates = batch_rates(&c, 1, 0.0);
        assert_eq!(rates.iter().filter(|&&r| r == 4.0).count(), 9);
        assert_eq!(batch_rate(&[(0.0, c)], 1), Some(4.0));
        // Work is summed inside a batch.
        let c = vec![(0.5, 2.0), (1.0, 6.0)];
        assert_eq!(batch_rate(&[(0.0, c)], 2), Some(8.0));
    }

    #[test]
    fn batch_rate_skips_the_gaps_between_segments() {
        // Two segments at 2 items/s, with 100 s of set-up between them:
        // the gap is in no batch.
        let seg = |start: f64| -> (f64, Vec<(f64, f64)>) {
            (
                start,
                (1..=4).map(|k| (start + 0.5 * f64::from(k), 1.0)).collect(),
            )
        };
        assert_eq!(batch_rate(&[seg(0.0), seg(102.0)], 2), Some(2.0));
        // Each segment drops its own partial batch.
        let (start, mut done) = seg(0.0);
        done.push((2.5, 1.0));
        assert_eq!(batch_rates(&done, 2, start).len(), 2);
        assert_eq!(batch_rate(&[(start, done), seg(102.0)], 2), Some(2.0));
        assert_eq!(batch_rate(&[], 2), None);
    }

    #[test]
    fn batch_percentile_averages_per_batch_percentiles() {
        // Batches of three: p50s 2, 5 and 8 in the first segment (its
        // tenth value is a partial batch), 12 in the second.
        let a: Vec<f64> = vec![3.0, 1.0, 2.0, 6.0, 5.0, 4.0, 9.0, 7.0, 8.0, 100.0];
        let b: Vec<f64> = vec![11.0, 12.0, 13.0];
        // Trimming one of four from each end leaves 5 and 8.
        assert_eq!(batch_percentile(&[&a, &b], 3, 500), Some(6.5));
        assert_eq!(batch_percentile(&[&a], 3, 1000), Some(6.0));
        // Batches never span segments: two partial batches give nothing.
        assert_eq!(batch_percentile(&[&a[..2], &b[..2]], 3, 500), None);
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        // Overlapping children count their union once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // Nested children count once.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        // A child outside the parent subtracts nothing.
        assert_eq!(self_time(10, 20, &[(30, 40)]), 10);
        // Fully covered parent.
        assert_eq!(self_time(10, 20, &[(10, 20)]), 0);
    }
}

//! Order statistics for the benchmark's timings.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it: a p99 of 200 samples is the second-largest value, which is
//! noise rather than a tail. Callers that cannot meet the rule pick a lower
//! percentile or report the refusal.

/// Fewest samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `xs` (`0 < q <= 1`), refused unless at
/// least [`MIN_BEYOND`] samples lie above its rank.
pub fn percentile(xs: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let n = xs.len();
    if n == 0 {
        return Err("no samples".to_string());
    }
    // 1-based nearest rank; the epsilon keeps 0.95 * 200 at rank 190
    // instead of letting float error round it up to 191.
    let rank = ((q * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of `xs` (mean of the middle pair for even counts), NaN for
/// no samples. Used for repeated whole-run measurements, where the sample
/// count is small by design and no tail is claimed.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Open-loop accounting of one request: how late the generator sent it,
/// and its latency counted from when it was *due* (so a stall that delays
/// the sender is charged to every request it held back).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DueTimed {
    /// Send time minus due time, in ms (never negative).
    pub late_ms: f64,
    /// Completion time minus due time, in ms.
    pub latency_ms: f64,
}

/// Accounts one request from its due, send and completion instants,
/// given as nanoseconds on a common clock.
pub fn due_timed(due_ns: u64, sent_ns: u64, done_ns: u64) -> DueTimed {
    DueTimed {
        late_ms: sent_ns.saturating_sub(due_ns) as f64 / 1e6,
        latency_ms: done_ns.saturating_sub(due_ns) as f64 / 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten beyond it.
        assert_eq!(percentile(&xs, 0.90), Ok(90.0));
        // p95 of 100 samples: only five beyond.
        let err = percentile(&xs, 0.95).unwrap_err();
        assert!(err.contains("5 beyond"), "{err}");
        // p99 needs 1000 samples.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Ok(990.0));
        assert!(percentile(&many[..999], 0.99).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn percentile_rank_survives_float_error() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), Ok(190.0));
        assert_eq!(percentile(&xs, 0.5), Ok(100.0));
        // Unsorted input is sorted first.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.95), Ok(190.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at 1 ms, sent on time, done at 11 ms.
        assert_eq!(
            due_timed(1_000_000, 1_000_000, 11_000_000),
            DueTimed {
                late_ms: 0.0,
                latency_ms: 10.0
            }
        );
        // A stall held the sender 30 ms past due: the request is charged
        // the stall even though its own round trip took 10 ms.
        let held = due_timed(1_000_000, 31_000_000, 41_000_000);
        assert_eq!(held.late_ms, 30.0);
        assert_eq!(held.latency_ms, 40.0);
        // Sent early (never happens, but must not underflow).
        assert_eq!(due_timed(5, 1, 6).late_ms, 0.0);
    }
}

//! Result types and order statistics shared by the workloads.

use std::time::Duration;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarises.
    pub samples: usize,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Printed with the metrics but left out of the result line: values
    /// too noisy on a shared host to carry a regression bound.
    pub notes: Vec<Metric>,
    /// Requests attempted in the measured passes.
    pub attempted: u64,
    /// Attempted requests that did not end in exactly one clean
    /// response (or, for posted writes, one accepted send).
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.notes.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Fold another outcome's counts and problems in (metrics excluded).
    pub fn absorb_checks(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems.iter().cloned());
    }
}

/// Linearly interpolated percentile (`p` in 0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The `p`th percentile of integer samples, read as the grouped-data
/// quantile: a sample `v` stands for the unit interval `[v, v + 1)` and
/// the result is interpolated inside the interval that holds the
/// percentile. Simulated latencies are whole cycles, so plain
/// interpolation would return the same integer for most inputs; this
/// reading also moves with the share of samples in that interval.
pub fn grouped_percentile(values: &[u64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let target = p / 100.0 * sorted.len() as f64;
    let idx = (target.ceil() as usize).clamp(1, sorted.len()) - 1;
    let v = sorted[idx];
    let below = sorted.partition_point(|&x| x < v);
    let at = sorted.partition_point(|&x| x <= v) - below;
    v as f64 + (target - below as f64) / at as f64
}

/// Batch times are summarised per window of at least this many
/// consecutive batches, which keeps ten samples beyond each window's
/// 99th percentile.
pub const BATCH_WINDOW: usize = 1000;

/// p50, p90 and p99 of one window of batch times.
pub fn tails(window: &[f64]) -> [f64; 3] {
    [50.0, 90.0, 99.0].map(|p| percentile(window, p))
}

/// [`tails`] of consecutive [`BATCH_WINDOW`]-sized windows of
/// `samples` (in the order they were taken); a trailing partial window
/// is folded into the one before it.
pub fn windowed_tails(samples: &[f64]) -> Vec<[f64; 3]> {
    let windows = (samples.len() / BATCH_WINDOW).max(1);
    (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * BATCH_WINDOW
            };
            tails(&samples[w * BATCH_WINDOW..end])
        })
        .collect()
}

/// Push `batch_p50_ms`, and `batch_p90_ms` and `batch_p99_ms` as
/// notes: each the mean over windows of the window's percentile. Window
/// medians on the reference host fall into two modes, so their mean
/// moves less between runs than their median. The tails carry no
/// bound: on that shared 2-core host they moved 30–120% between runs of
/// the same code.
pub fn push_batch_tails(out: &mut Outcome, windows: &[[f64; 3]], samples: usize) {
    let col = |i: usize| windows.iter().map(|w| w[i]).sum::<f64>() / windows.len() as f64;
    out.push("batch_p50_ms", col(0), "ms", samples);
    out.note("batch_p90_ms", col(1), "ms", samples);
    out.note("batch_p99_ms", col(2), "ms", samples);
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

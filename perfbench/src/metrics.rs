//! Metric math shared by every workload: the percentile rule, the tail
//! window, failure accounting under a run budget, and self-time
//! subtraction between adjacent passes.

/// Samples a reported percentile must leave beyond it. A p99 over fewer
/// than 1 000 samples would rest on a handful of operations, so the
/// reported quantile is lowered until ten samples lie above it.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank reported for quantile `q` of `n` samples
/// under the "at least ten samples beyond" rule: lowered below `q` when
/// too few samples lie beyond it, `None` when no rank leaves ten beyond.
pub fn rank(n: usize, q: f64) -> Option<usize> {
    if n <= MIN_BEYOND {
        return None;
    }
    Some(((q * n as f64).ceil() as usize).clamp(1, n - MIN_BEYOND))
}

/// Nearest-rank percentile of `sorted` (ascending) under [`rank`]'s rule.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    rank(sorted.len(), q).map(|r| sorted[r - 1])
}

/// Success rate over a window of a unit's operations: the last tenth
/// (the sustained rate) or the first tenth (the rate before state
/// accretes).
///
/// Operations arrive in submissions of one or more (coalesced batches),
/// each timed as a whole. A submission that straddles a window edge
/// contributes the share of its host time that its in-window operations
/// make up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    start: u64,
    end: u64,
    ok: u64,
    secs: f64,
}

impl Window {
    /// The last tenth (rounded up) of `total` operations.
    pub fn tail(total: u64) -> Self {
        Window::range(total - total.div_ceil(10), total)
    }

    /// The first tenth (rounded up) of `total` operations.
    pub fn head(total: u64) -> Self {
        Window::range(0, total.div_ceil(10))
    }

    fn range(start: u64, end: u64) -> Self {
        Window {
            start,
            end,
            ok: 0,
            secs: 0.0,
        }
    }

    /// Whether operation `i` lies inside the window.
    pub fn contains(&self, i: u64) -> bool {
        (self.start..self.end).contains(&i)
    }

    /// Records one submission of `n` operations starting at index
    /// `first` that took `secs` of host time; `ok_in_window` counts its
    /// successful operations inside the window.
    pub fn record(&mut self, first: u64, n: u64, ok_in_window: u64, secs: f64) {
        let lo = first.max(self.start);
        let hi = (first + n).min(self.end);
        if n == 0 || hi <= lo {
            return;
        }
        self.ok += ok_in_window;
        self.secs += secs * (hi - lo) as f64 / n as f64;
    }

    /// Successful operations inside the window.
    pub fn ok(&self) -> u64 {
        self.ok
    }

    /// Host seconds spent inside the window.
    pub fn secs(&self) -> f64 {
        self.secs
    }
}

/// Per-unit operation accounting. A run budget can end a unit before
/// every generated operation is applied; those operations count as
/// failed, so a cut run cannot look better than one that finished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Operations the workload generated.
    pub generated: u64,
    /// Operations handed to the system before the budget expired.
    pub applied: u64,
    /// Applied operations that succeeded.
    pub ok: u64,
}

impl Accounting {
    /// Applied operations that returned an error.
    pub fn failed_applied(&self) -> u64 {
        self.applied - self.ok
    }

    /// Operations never applied because the budget expired.
    pub fn not_applied(&self) -> u64 {
        self.generated - self.applied
    }

    /// Every operation that did not succeed.
    pub fn failed(&self) -> u64 {
        self.generated - self.ok
    }

    /// Failed over generated.
    pub fn failed_ratio(&self) -> f64 {
        ratio(self.failed() as f64, self.generated as f64)
    }

    /// Succeeded over generated.
    pub fn ok_ratio(&self) -> f64 {
        ratio(self.ok as f64, self.generated as f64)
    }

    /// Whether the counts are consistent: nothing applied beyond what was
    /// generated and nothing succeeded beyond what was applied.
    pub fn consistent(&self) -> bool {
        self.ok <= self.applied && self.applied <= self.generated
    }

    /// Sums two units.
    pub fn merge(&mut self, o: &Accounting) {
        self.generated += o.generated;
        self.applied += o.applied;
        self.ok += o.ok;
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Self time of a layer from two adjacent passes over the same
/// operations: the pass that enters at the layer (`outer`) minus the pass
/// that enters one layer down (`inner`). The passes run separately, so
/// host noise can make the inner pass the slower one; the difference is
/// clamped at zero and is approximate either way.
pub fn self_time(outer: f64, inner: f64) -> f64 {
    (outer - inner).max(0.0)
}

/// Mean of a list of measurements; 0 for an empty list.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Median of a list of measurements (mean of the middle two for an even
/// count); 0 for an empty list.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank_when_enough_samples_lie_beyond() {
        let s: Vec<u64> = (1..=2000).collect();
        assert_eq!(percentile(&s, 0.5), Some(1000));
        assert_eq!(percentile(&s, 0.99), Some(1980));
    }

    #[test]
    fn percentile_lowers_the_quantile_to_keep_ten_samples_beyond() {
        // 100 samples: p99 would leave one sample beyond, so the rule
        // reports rank 90, the highest with ten beyond.
        let s: Vec<u64> = (1..=100).collect();
        let v = percentile(&s, 0.99).expect("enough samples");
        assert_eq!(v, 90);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), MIN_BEYOND);
        // The median is unaffected.
        assert_eq!(percentile(&s, 0.5), Some(50));
    }

    #[test]
    fn percentile_has_no_rank_for_ten_or_fewer_samples() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7; 10], 0.5), None);
        assert_eq!(rank(11, 0.99), Some(1));
        assert_eq!(percentile(&[7; 11], 0.99), Some(7));
    }

    #[test]
    fn tail_window_covers_the_last_tenth() {
        let mut w = Window::tail(1000);
        assert!(!w.contains(899) && w.contains(900) && w.contains(999));
        // Entirely before the window: ignored.
        w.record(0, 900, 0, 5.0);
        assert_eq!((w.ok(), w.secs()), (0, 0.0));
        // Entirely inside.
        w.record(900, 50, 40, 1.0);
        assert_eq!((w.ok(), w.secs()), (40, 1.0));
        // A rounded-up tenth: 15 ops leave a window of 2.
        let w = Window::tail(15);
        assert!(!w.contains(12) && w.contains(13));
        // The head window mirrors it.
        let h = Window::head(1000);
        assert!(h.contains(0) && h.contains(99) && !h.contains(100));
    }

    #[test]
    fn window_prorates_a_straddling_submission() {
        let mut w = Window::tail(100);
        // Ops 86..=95 in one batch of 10; 6 of them (90..=95) are inside.
        w.record(86, 10, 6, 2.0);
        assert_eq!(w.ok(), 6);
        assert!((w.secs() - 1.2).abs() < 1e-12);
        let mut h = Window::head(100);
        // Ops 5..=14: 5 of them (5..=9) are inside the first ten.
        h.record(5, 10, 5, 2.0);
        assert_eq!(h.ok(), 5);
        assert!((h.secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budget_cut_counts_unapplied_operations_as_failed() {
        // 1000 generated, the budget expired after 600 were applied, 50
        // of which failed.
        let a = Accounting {
            generated: 1000,
            applied: 600,
            ok: 550,
        };
        assert!(a.consistent());
        assert_eq!(a.failed_applied(), 50);
        assert_eq!(a.not_applied(), 400);
        assert_eq!(a.failed(), 450);
        assert!((a.failed_ratio() - 0.45).abs() < 1e-12);
        assert!((a.ok_ratio() - 0.55).abs() < 1e-12);
        let mut total = Accounting {
            generated: 1000,
            applied: 1000,
            ok: 1000,
        };
        total.merge(&a);
        assert_eq!(total.failed(), 450);
        assert!((total.failed_ratio() - 0.225).abs() < 1e-12);
        assert!(!Accounting {
            generated: 5,
            applied: 6,
            ok: 0
        }
        .consistent());
    }

    #[test]
    fn self_time_is_the_difference_of_adjacent_passes() {
        // Whole machine 10 s, file system and below 7 s, storage 4 s.
        let (machine, memfs, storage) = (10.0, 7.0, 4.0);
        assert_eq!(self_time(machine, memfs), 3.0);
        assert_eq!(self_time(memfs, storage), 3.0);
        // Shares of the outer pass add back up to it.
        let parts = self_time(machine, memfs) + self_time(memfs, storage) + storage;
        assert_eq!(parts, machine);
        // Noise can make the inner pass slower: clamp, never negative.
        assert_eq!(self_time(4.0, 4.5), 0.0);
    }

    #[test]
    fn median_and_mean_of_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }
}

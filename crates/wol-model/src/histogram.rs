//! Equi-depth attribute histograms for cost-based query planning.
//!
//! The planner's original selectivity model assumed every attribute value is
//! equally likely (`1/ndv`). Real integration workloads — the paper's
//! Chr22DB/ACe22DB trials above all — are *skewed*: a few clones carry most
//! markers, so an equality join on the clone attribute produces far more rows
//! than the uniform model predicts, and the planner orders joins accordingly
//! badly. This module gives the planner the distribution itself.
//!
//! An [`AttrHistogram`] is an equi-depth histogram over the multiset of values
//! one attribute takes across a class extent:
//!
//! * values are sorted and grouped into runs of equal values;
//! * runs are packed into buckets of roughly `entries / target_buckets`
//!   entries each (equi-*depth*, not equi-width, so dense regions get more
//!   resolution);
//! * a run at least as large as the target depth becomes a **singleton
//!   bucket** (`lo == hi`, `distinct == 1`) carrying its *exact* count — the
//!   heavy hitters of a zipfian distribution are represented precisely, which
//!   is where the uniform model is most wrong.
//!
//! Estimation queries ([`eq_count`](AttrHistogram::eq_count) for
//! `attr = constant`, [`eq_join_rows`](AttrHistogram::eq_join_rows) for
//! `l.attr = r.attr` joins) answer from singleton buckets exactly and fall
//! back to the uniform-within-bucket assumption elsewhere, so the estimates
//! degrade gracefully to a uniform `1/ndv` estimate on genuinely uniform data.
//!
//! Histograms are built lazily per `(class, attribute)` by
//! [`Instance::attr_histogram`](crate::Instance::attr_histogram) and cached in
//! the same per-class cache as the attribute indexes, so any mutation of a
//! class invalidates its histograms wholesale — a stale histogram can only
//! mislead estimates, never correctness, but the tests still pin the
//! invalidation down.

use std::collections::BTreeMap;

use crate::values::Value;

/// Default number of buckets a histogram aims for. Enough resolution to
/// separate a zipfian head from its tail, small enough that estimation stays
/// a handful of comparisons.
pub(crate) const DEFAULT_BUCKETS: usize = 32;

/// Extent size above which [`Instance::attr_histogram`](crate::Instance::attr_histogram)
/// switches from an exact build to [`AttrHistogram::build_sampled`].
pub const SAMPLE_THRESHOLD: usize = 32_768;

/// Reservoir size used by [`AttrHistogram::build_sampled`]. Large enough
/// that a bucket's expected sample depth (`SAMPLE_SIZE / DEFAULT_BUCKETS` =
/// 256) keeps relative error on heavy-hitter *detection* small.
pub(crate) const SAMPLE_SIZE: usize = 8_192;

/// SplitMix64 step: a tiny, deterministic, high-quality PRNG. Seeded with a
/// fixed constant so sampled histograms are reproducible across runs,
/// threads, and platforms.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One bucket of an equi-depth histogram: the closed value range `[lo, hi]`,
/// the number of entries falling in it, and how many distinct values they
/// spread over. A bucket with `distinct == 1` (`lo == hi`) is a *singleton*:
/// its count is the exact frequency of that one value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct HistogramBucket {
    /// Smallest value in the bucket.
    pub lo: Value,
    /// Largest value in the bucket.
    pub hi: Value,
    /// Entries (attribute occurrences) in the bucket.
    pub count: usize,
    /// Distinct values the entries spread over.
    pub distinct: usize,
}

impl HistogramBucket {
    /// Whether this bucket holds exactly one distinct value (exact count).
    pub(crate) fn is_singleton(&self) -> bool {
        self.distinct == 1
    }

    /// Whether `value` falls inside the bucket's closed range.
    fn contains(&self, value: &Value) -> bool {
        *value >= self.lo && *value <= self.hi
    }

    /// Average entries per distinct value under the uniform-within-bucket
    /// assumption.
    fn avg_frequency(&self) -> f64 {
        self.count as f64 / self.distinct.max(1) as f64
    }
}

/// An equi-depth histogram over one attribute's value multiset.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AttrHistogram {
    /// Buckets in ascending value order; ranges are disjoint.
    buckets: Vec<HistogramBucket>,
    entries: usize,
    distinct: usize,
}

impl AttrHistogram {
    /// Build a histogram from an iterator of attribute values, targeting
    /// `DEFAULT_BUCKETS` buckets.
    pub fn build(values: impl IntoIterator<Item = Value>) -> Self {
        Self::build_with_buckets(values, DEFAULT_BUCKETS)
    }

    /// Build a histogram targeting `target_buckets` buckets (at least 1).
    pub(crate) fn build_with_buckets(
        values: impl IntoIterator<Item = Value>,
        target_buckets: usize,
    ) -> Self {
        let mut counts: BTreeMap<Value, usize> = BTreeMap::new();
        for value in values {
            *counts.entry(value).or_insert(0) += 1;
        }
        Self::from_counts(counts, target_buckets)
    }

    /// Build from pre-aggregated `(value, count)` runs in ascending value
    /// order (the `BTreeMap` guarantees the order).
    pub(crate) fn from_counts(counts: BTreeMap<Value, usize>, target_buckets: usize) -> Self {
        let entries: usize = counts.values().sum();
        let distinct = counts.len();
        if entries == 0 {
            return AttrHistogram::default();
        }
        // Equi-depth target: ceil(entries / buckets), at least 1.
        let depth = entries.div_ceil(target_buckets.max(1)).max(1);
        let mut buckets: Vec<HistogramBucket> = Vec::new();
        let mut current: Option<HistogramBucket> = None;
        for (value, count) in counts {
            if count >= depth {
                // A heavy hitter gets its own exact singleton bucket.
                if let Some(done) = current.take() {
                    buckets.push(done);
                }
                buckets.push(HistogramBucket {
                    lo: value.clone(),
                    hi: value,
                    count,
                    distinct: 1,
                });
                continue;
            }
            match current.as_mut() {
                Some(bucket) => {
                    bucket.hi = value;
                    bucket.count += count;
                    bucket.distinct += 1;
                }
                None => {
                    current = Some(HistogramBucket {
                        lo: value.clone(),
                        hi: value,
                        count,
                        distinct: 1,
                    });
                }
            }
            if let Some(full) = current.take_if(|b| b.count >= depth) {
                buckets.push(full);
            }
        }
        if let Some(done) = current.take() {
            buckets.push(done);
        }
        AttrHistogram {
            buckets,
            entries,
            distinct,
        }
    }

    /// Build a histogram from a *sample* of the values, for extents too
    /// large to aggregate exactly. `make_values` must produce the same value
    /// sequence on each call (the build takes two passes):
    ///
    /// 1. One pass counts the population and fills a deterministic
    ///    reservoir (algorithm R driven by a fixed-seed SplitMix64).
    /// 2. Values that look heavy in the sample (at least one expected bucket
    ///    depth of sample entries) get their **exact** population counts
    ///    from a second pass — the skew head, where estimates matter most,
    ///    stays precise.
    ///
    /// The light tail is scaled from the sample (`count · n / SAMPLE_SIZE`).
    /// Populations of at most `SAMPLE_SIZE` fall back to the exact build.
    /// The construction is fully deterministic for a given value sequence.
    pub fn build_sampled<I, F>(make_values: F) -> Self
    where
        I: Iterator<Item = Value>,
        F: Fn() -> I,
    {
        let mut n = 0usize;
        let mut reservoir: Vec<Value> = Vec::with_capacity(SAMPLE_SIZE);
        let mut rng: u64 = 0;
        for value in make_values() {
            if reservoir.len() < SAMPLE_SIZE {
                reservoir.push(value);
            } else {
                let j = (splitmix64(&mut rng) % (n as u64 + 1)) as usize;
                if j < SAMPLE_SIZE {
                    reservoir[j] = value;
                }
            }
            n += 1;
        }
        if n <= SAMPLE_SIZE {
            return Self::build(reservoir);
        }
        let mut sample_counts: BTreeMap<Value, usize> = BTreeMap::new();
        for value in reservoir {
            *sample_counts.entry(value).or_insert(0) += 1;
        }
        let sample_depth = SAMPLE_SIZE.div_ceil(DEFAULT_BUCKETS).max(1);
        let mut exact: BTreeMap<Value, usize> = sample_counts
            .iter()
            .filter(|(_, count)| **count >= sample_depth)
            .map(|(value, _)| (value.clone(), 0))
            .collect();
        if !exact.is_empty() {
            for value in make_values() {
                if let Some(slot) = exact.get_mut(&value) {
                    *slot += 1;
                }
            }
        }
        let scale = n as f64 / SAMPLE_SIZE as f64;
        let mut counts = exact;
        for (value, count) in sample_counts {
            counts
                .entry(value)
                .or_insert_with(|| ((count as f64 * scale).round() as usize).max(1));
        }
        Self::from_counts(counts, DEFAULT_BUCKETS)
    }

    /// Total entries (attribute occurrences) summarised.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Total distinct values summarised.
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// True if the histogram summarises no entries (empty extent, or an
    /// attribute no object carries).
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The bucket containing `value`, if any.
    fn bucket_of(&self, value: &Value) -> Option<&HistogramBucket> {
        // Buckets are few (<= ~2x DEFAULT_BUCKETS); a linear scan is cheaper
        // than getting a Value-ordering binary search subtly wrong.
        self.buckets.iter().find(|b| b.contains(value))
    }

    /// Estimated number of entries equal to `value`: exact for singleton
    /// buckets, the bucket's average frequency otherwise, `0` outside every
    /// bucket (the value provably does not occur).
    pub fn eq_count(&self, value: &Value) -> f64 {
        match self.bucket_of(value) {
            Some(b) if b.is_singleton() => b.count as f64,
            Some(b) => b.avg_frequency(),
            None => 0.0,
        }
    }

    /// Estimated size of the equality join of this attribute against
    /// `other`'s: an approximation of `Σ_v count_self(v) · count_other(v)`.
    ///
    /// Singleton buckets (the skew head) match exactly by value; the
    /// remaining span mass joins under the uniform + containment assumption
    /// (`rest_l · rest_r / max(ndv_l, ndv_r)`), and only when the span ranges
    /// actually overlap — disjoint domains estimate to zero.
    pub fn eq_join_rows(&self, other: &AttrHistogram) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let mut rows = 0.0;
        // Head ↔ anything: each of our singletons looks its exact value up on
        // the other side (exact against their singletons, average within
        // their spans).
        for bucket in self.buckets.iter().filter(|b| b.is_singleton()) {
            rows += bucket.count as f64 * other.eq_count(&bucket.lo);
        }
        // Their singletons against our *spans* only — the singleton/singleton
        // and singleton-in-their-span cases are already covered above.
        for bucket in other.buckets.iter().filter(|b| b.is_singleton()) {
            if let Some(ours) = self.bucket_of(&bucket.lo) {
                if !ours.is_singleton() {
                    rows += bucket.count as f64 * ours.avg_frequency();
                }
            }
        }
        // Span ↔ span tail mass: uniform + containment, gated on range
        // overlap.
        let span = |h: &AttrHistogram| {
            let mut count = 0usize;
            let mut distinct = 0usize;
            let mut lo: Option<&Value> = None;
            let mut hi: Option<&Value> = None;
            for b in h.buckets.iter().filter(|b| !b.is_singleton()) {
                count += b.count;
                distinct += b.distinct;
                lo = Some(match lo {
                    Some(l) if l <= &b.lo => l,
                    _ => &b.lo,
                });
                hi = Some(match hi {
                    Some(h) if h >= &b.hi => h,
                    _ => &b.hi,
                });
            }
            (count, distinct, lo.cloned(), hi.cloned())
        };
        let (lc, ld, llo, lhi) = span(self);
        let (rc, rd, rlo, rhi) = span(other);
        if let (Some(llo), Some(lhi), Some(rlo), Some(rhi)) = (llo, lhi, rlo, rhi) {
            if llo <= rhi && rlo <= lhi {
                rows += lc as f64 * rc as f64 / ld.max(rd).max(1) as f64;
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(values: impl IntoIterator<Item = i64>) -> AttrHistogram {
        AttrHistogram::build(values.into_iter().map(Value::int))
    }

    #[test]
    fn empty_input_gives_an_empty_histogram() {
        let h = AttrHistogram::build(std::iter::empty());
        assert!(h.is_empty());
        assert_eq!(h.entries(), 0);
        assert_eq!(h.distinct(), 0);
        assert!(h.buckets.is_empty());
        assert_eq!(h.eq_count(&Value::int(1)), 0.0);
        assert_eq!(h.eq_join_rows(&h), 0.0);
    }

    #[test]
    fn single_distinct_value_is_one_exact_singleton_bucket() {
        let h = ints(std::iter::repeat_n(7, 40));
        assert_eq!(h.entries(), 40);
        assert_eq!(h.distinct(), 1);
        assert_eq!(h.buckets.len(), 1);
        assert!(h.buckets[0].is_singleton());
        assert_eq!(h.eq_count(&Value::int(7)), 40.0);
        assert_eq!(h.eq_count(&Value::int(8)), 0.0);
        // Self-join of 40 duplicates is exactly 40 * 40.
        assert_eq!(h.eq_join_rows(&h), 1600.0);
    }

    #[test]
    fn uniform_data_matches_the_flat_model() {
        // 64 distinct values, 4 entries each: every estimate should agree
        // with the flat 1/ndv model.
        let h = ints((0..64).flat_map(|v| std::iter::repeat_n(v, 4)));
        assert_eq!(h.entries(), 256);
        assert_eq!(h.distinct(), 64);
        let flat = h.entries() as f64 * h.entries() as f64 / h.distinct() as f64;
        let est = h.eq_join_rows(&h);
        assert!(
            (est - flat).abs() / flat < 0.05,
            "uniform estimate {est} strays from flat {flat}"
        );
        for v in [0, 13, 63] {
            assert_eq!(h.eq_count(&Value::int(v)), 4.0);
        }
    }

    #[test]
    fn heavy_hitters_get_exact_singleton_buckets() {
        // Zipf-ish: value 0 carries half the mass, 1 a quarter, tail uniform.
        let mut values = vec![0; 500];
        values.extend(std::iter::repeat_n(1, 250));
        for v in 2..252 {
            values.push(v);
        }
        let h = ints(values);
        assert_eq!(h.eq_count(&Value::int(0)), 500.0);
        assert_eq!(h.eq_count(&Value::int(1)), 250.0);
        // A uniform `1/ndv` estimate would put the self-join at n^2/ndv = 1M/252
        // ~ 4k rows; the true size is 500^2 + 250^2 + 250 = 312,750.
        let est = h.eq_join_rows(&h);
        let truth = 500.0f64 * 500.0 + 250.0 * 250.0 + 250.0;
        assert!(
            (est - truth).abs() / truth < 0.05,
            "skewed estimate {est} strays from true {truth}"
        );
        let flat = (h.entries() as f64).powi(2) / h.distinct() as f64;
        assert!(est > 50.0 * flat, "estimate {est} not above flat {flat}");
    }

    #[test]
    fn bucket_boundary_values_are_found() {
        // Force small buckets so several boundaries exist, then probe every
        // value, including each bucket's exact lo and hi.
        let h = AttrHistogram::build_with_buckets((0..40).map(Value::int), 8);
        assert!(h.buckets.len() >= 8);
        for b in &h.buckets {
            assert!(h.eq_count(&b.lo) > 0.0);
            assert!(h.eq_count(&b.hi) > 0.0);
        }
        for v in 0..40 {
            assert!(h.eq_count(&Value::int(v)) > 0.0, "value {v} fell in a gap");
        }
        // Values outside the summarised domain estimate to zero.
        assert_eq!(h.eq_count(&Value::int(-1)), 0.0);
        assert_eq!(h.eq_count(&Value::int(40)), 0.0);
    }

    #[test]
    fn disjoint_domains_join_to_zero() {
        let l = ints(0..50);
        let r = ints(100..150);
        assert_eq!(l.eq_join_rows(&r), 0.0);
        assert_eq!(r.eq_join_rows(&l), 0.0);
    }

    #[test]
    fn string_values_are_supported() {
        let h = AttrHistogram::build(["a", "b", "b", "c", "c", "c"].into_iter().map(Value::str));
        assert_eq!(h.entries(), 6);
        assert_eq!(h.distinct(), 3);
        assert!(h.eq_count(&Value::str("c")) >= 1.0);
        assert_eq!(h.eq_count(&Value::str("z")), 0.0);
    }

    #[test]
    fn sampled_build_is_deterministic_and_keeps_heavy_hitters_exact() {
        // 100k entries: value 0 carries 40%, value 1 carries 20%, tail uniform
        // over 40k distinct values — well above the sampling threshold.
        let make = || {
            std::iter::repeat_n(0i64, 40_000)
                .chain(std::iter::repeat_n(1, 20_000))
                .chain(1_000..41_000)
                .map(Value::int)
        };
        assert!(make().count() > SAMPLE_THRESHOLD);
        let a = AttrHistogram::build_sampled(make);
        let b = AttrHistogram::build_sampled(make);
        assert_eq!(a, b, "sampled construction must be deterministic");
        // Heavy hitters get exact population counts despite sampling.
        assert_eq!(a.eq_count(&Value::int(0)), 40_000.0);
        assert_eq!(a.eq_count(&Value::int(1)), 20_000.0);
        // The scaled tail keeps the self-join estimate near the truth.
        let truth = 40_000.0f64 * 40_000.0 + 20_000.0 * 20_000.0 + 40_000.0;
        let est = a.eq_join_rows(&a);
        assert!(
            (est - truth).abs() / truth < 0.1,
            "sampled estimate {est} strays from true {truth}"
        );
    }

    #[test]
    fn sampled_build_below_the_reservoir_is_exact() {
        let make = || (0..100i64).map(Value::int);
        let sampled = AttrHistogram::build_sampled(make);
        let exact = AttrHistogram::build(make());
        assert_eq!(sampled, exact);
    }

    #[test]
    fn join_estimate_is_symmetric_enough() {
        let mut values = vec![0; 300];
        values.extend(0..100);
        let l = ints(values);
        let r = ints((0..100).chain(std::iter::repeat_n(0, 50)));
        let lr = l.eq_join_rows(&r);
        let rl = r.eq_join_rows(&l);
        assert!((lr - rl).abs() / lr.max(rl) < 0.05, "lr={lr} rl={rl}");
        // True: 301*51 (value 0) + 99 more singles ~ 15,450.
        let truth = 301.0f64 * 51.0 + 99.0;
        assert!((lr - truth).abs() / truth < 0.2, "lr={lr} truth={truth}");
    }
}

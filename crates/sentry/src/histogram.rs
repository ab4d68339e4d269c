//! A fixed-size latency histogram: constant memory however long the
//! service runs.
//!
//! Values below [`EXACT_BELOW`] have a bucket each; above it every
//! power-of-two octave is split into [`SUB_BUCKETS`] equal buckets, so
//! a reported quantile overstates the true sample by at most
//! `1 / SUB_BUCKETS` (6.25 %) of its value. Count and maximum are
//! exact.

/// Buckets per octave in the log-bucketed tail (a power of two).
pub const SUB_BUCKETS: u64 = 16;

/// Values below this are counted exactly, one bucket per value.
pub const EXACT_BELOW: u64 = 2 * SUB_BUCKETS;

const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// One bucket per value in the first octave pair, then `SUB_BUCKETS`
/// per octave up to `u64::MAX`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) * SUB_BUCKETS as usize) + SUB_BUCKETS as usize;

/// Event-count latency samples, bucketed. See the [module docs](self).
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    max: u64,
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            max: 0,
        }
    }
}

/// The bucket `value` falls in.
fn bucket_of(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    // `octave` ≥ 0: the position of the top bit above the sub-bucket
    // bits; the next `SUB_BITS` bits below the top one pick the bucket.
    let octave = value.ilog2() - SUB_BITS;
    let sub = (value >> octave) & (SUB_BUCKETS - 1);
    ((u64::from(octave) + 1) * SUB_BUCKETS + sub) as usize
}

/// The largest value bucket `index` holds.
fn upper_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let octave = (index / SUB_BUCKETS - 1) as u32;
    let lower = (SUB_BUCKETS + index % SUB_BUCKETS) << octave;
    lower + ((1u64 << octave) - 1)
}

impl LatencyHistogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The largest sample recorded (0 when empty). Exact.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0..=1.0`, nearest rank): exact for samples
    /// below [`EXACT_BELOW`], otherwise the upper edge of the sample's
    /// bucket, never above [`max`](Self::max). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen > rank {
                return upper_bound(index).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact_and_the_tail_is_within_one_sub_bucket() {
        for v in (0..4096u64).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let hi = upper_bound(bucket_of(v));
            assert!(hi >= v, "{v} above its bucket edge {hi}");
            if v < EXACT_BELOW {
                assert_eq!(hi, v, "small values have a bucket each");
            } else {
                assert!(hi - v <= v / SUB_BUCKETS, "{v} → {hi}: over 1/16 off");
            }
        }
        // Buckets tile the range: each starts right after the last ends.
        for index in 1..BUCKETS {
            assert_eq!(bucket_of(upper_bound(index - 1) + 1), index);
        }
        assert_eq!(upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_follow_nearest_rank_and_clip_to_the_maximum() {
        let mut h = LatencyHistogram::default();
        assert_eq!((h.count(), h.max(), h.quantile(0.5)), (0, 0, 0));
        for v in [0, 0, 3, 10, 1600] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.75), 10);
        assert_eq!(h.max(), 1600);
        assert_eq!(h.quantile(1.0), 1600, "the top bucket's edge clips to max");
    }
}

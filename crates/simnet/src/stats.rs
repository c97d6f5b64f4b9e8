//! Lightweight instrumentation used across the simulator: running summary
//! statistics, throughput meters and fixed-bucket histograms.

use crate::time::{SimDuration, SimTime};

/// Incremental min/mean/max over a stream of samples.
#[derive(Clone, Debug, Default)]
pub struct RunningStats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn record(&mut self, sample: f64) {
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.count += 1;
        self.sum += sample;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// Payload throughput between the first and last recorded transfer.
#[derive(Clone, Debug, Default)]
pub struct Throughput {
    bytes: u64,
    first: Option<SimTime>,
    last: SimTime,
}

impl Throughput {
    /// An empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `bytes` moving at instant `t`.
    pub fn record(&mut self, t: SimTime, bytes: u64) {
        if self.first.is_none() {
            self.first = Some(t);
        }
        self.last = self.last.max(t);
        self.bytes += bytes;
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Mean throughput in megabits per second over the observed interval,
    /// or `None` if fewer than two distinct instants were seen.
    pub fn mbps(&self) -> Option<f64> {
        let first = self.first?;
        let span = self.last.since(first);
        if span.is_zero() {
            return None;
        }
        Some(self.bytes as f64 * 8.0 / span.as_secs_f64() / 1e6)
    }
}

/// Snapshot of one [`crate::LinkTx`]'s counters, with injected-fault
/// outcomes broken out per class: `frames_dropped` counts frames lost
/// outright (periodic/probabilistic/burst loss and down windows), while
/// `frames_corrupted` counts frames that occupied the wire but failed the
/// receiver's FCS check — the two used to be conflated in one counter.
#[derive(Clone, Copy, Debug)]
pub struct LinkStats {
    /// Total frames handed to the transmitter.
    pub frames_sent: u64,
    /// Frames lost outright to the injected fault model.
    pub frames_dropped: u64,
    /// Frames corrupted in flight (never delivered, FCS failure).
    pub frames_corrupted: u64,
    /// Frames held back by injected reorder/jitter delay.
    pub frames_delayed: u64,
    /// Longest time a frame waited behind earlier traffic.
    pub max_backlog: SimDuration,
    /// Total payload bytes recorded by the throughput meter.
    pub payload_bytes: u64,
    /// Payload throughput observed so far (Mbps), if any traffic flowed.
    pub payload_mbps: Option<f64>,
}

impl LinkStats {
    /// Frames the fault model prevented from being delivered.
    pub fn frames_lost(&self) -> u64 {
        self.frames_dropped + self.frames_corrupted
    }
}

/// Fixed-boundary histogram of `u64` samples (e.g. latencies in ns).
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Build with ascending bucket upper bounds; an implicit overflow bucket
    /// catches everything above the last bound.
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            total: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, sample: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| sample <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `(upper_bound, count)` pairs; the final entry has `u64::MAX` as its
    /// bound (the overflow bucket).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
    }

    /// Approximate quantile: the upper bound of the bucket containing the
    /// q-th sample. `q` in [0, 1].
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let target = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (bound, count) in self.buckets() {
            seen += count;
            if seen >= target {
                return Some(bound);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_summary() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), None);
        for v in [3.0, 1.0, 2.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
    }

    #[test]
    fn throughput_computes_mbps() {
        let mut t = Throughput::new();
        assert_eq!(t.mbps(), None);
        t.record(SimTime::from_nanos(0), 500_000);
        assert_eq!(t.mbps(), None); // single instant
        t.record(SimTime::from_nanos(8_000_000), 500_000);
        // 1 MB over 8 ms = 1e6 * 8 bits / 0.008 s = 1000 Mbps.
        let mbps = t.mbps().unwrap();
        assert!((mbps - 1000.0).abs() < 1e-6, "got {mbps}");
        assert_eq!(t.bytes(), 1_000_000);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(vec![10, 100, 1000]);
        for v in [5, 7, 50, 500, 5000] {
            h.record(v);
        }
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(10, 2), (100, 1), (1000, 1), (u64::MAX, 1)]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.quantile(0.0), Some(10));
        assert_eq!(h.quantile(0.5), Some(100));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(vec![10, 10]);
    }
}

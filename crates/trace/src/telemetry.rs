//! Always-on telemetry: log-linear histograms, gauges, sampled time
//! series, and the cross-layer [`Registry`].
//!
//! Unlike the event tracing in this crate (gated behind the `trace`
//! feature), everything here is compiled unconditionally and designed to
//! stay cheap enough to leave on: recording into a [`LogLinHistogram`] or
//! bumping a [`Gauge`] is a handful of relaxed atomic operations, and the
//! sampler's fast path is a single atomic load per executed sim event.
//!
//! Layers register into one per-simulation [`Registry`] (owned by
//! `simnet::SimShared`, reached via `SimAccess::telemetry()`) under stable
//! dotted names:
//!
//! | prefix      | owner                | examples                          |
//! |-------------|----------------------|-----------------------------------|
//! | `app.`      | `emp-apps`           | `app.rtt_ns`, `app.eventloop_turn_ns` |
//! | `sock.`     | `core` (sockets)     | `sock.credit_wait_ns`, `sock.n1.credits_out` |
//! | `core.`     | `core` (poll)        | `core.poll_wait_ns`               |
//! | `emp.`      | `emp-proto`          | `emp.msg_latency_ns`, `emp.n0.tx_inflight` |
//! | `tcp.`      | `kernel-tcp`         | `tcp.n0.segments_out`             |
//! | `nicfw.`    | `tigon-nic`          | `nicfw.n0.tx.backlog_ns`          |
//! | `nic.`      | NIC uplinks          | `nic.n0.uplink.backlog_ns`        |
//! | `switch.`   | `simnet` switch      | `switch.port0.backlog_ns`         |
//! | `simnet.`   | `simnet` engine      | `simnet.events.task`, `simnet.thread_handoffs` |
//! | `host.`     | harness wall clock   | `host.wall_us_per_sim_s`          |
//!
//! Everything except the `host.` namespace is a pure function of simulated
//! execution, so two same-seed runs produce byte-identical snapshots;
//! [`RegistrySnapshot::deterministic_text`] renders exactly that subset.
//!
//! Time series are produced by a *sim-time sampler*: the engine calls
//! [`Registry::maybe_sample`] after every executed event, and on a sample
//! tick the registry appends the current value of every gauge and every
//! registered poll closure to a bounded series. When the bound is hit the
//! series are decimated 2:1 and the cadence doubles, so memory stays
//! constant however long the run is.
//!
//! **Poll closures must not call back into the registry** — they run with
//! the registry lock held. They should only read component state (safe
//! under the engine's strict event/process alternation).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::metrics::Counter;

/// Linear buckets below this value (exact: one bucket per integer).
const LINEAR_MAX: u64 = 16;
/// Sub-buckets per octave above the linear range; 16 ⇒ ≤ 6.25% relative
/// bucket width, i.e. quantiles are exact to within 1/16 of an octave.
const SUB_BUCKETS: usize = 16;
/// Total buckets needed to cover all of `u64` (16 linear + 60 octaves).
const NUM_BUCKETS: usize = 976;

/// Bucket index for a value (log-linear, HDR-style).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        // Highest set bit m >= 4; drop to 4 significant bits + group.
        let g = (63 - v.leading_zeros()) - 4;
        LINEAR_MAX as usize + (g as usize) * SUB_BUCKETS + (((v >> g) as usize) & 0xF)
    }
}

/// Smallest value mapping to bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i < LINEAR_MAX as usize {
        i as u64
    } else {
        let g = ((i - LINEAR_MAX as usize) / SUB_BUCKETS) as u32;
        let sub = ((i - LINEAR_MAX as usize) % SUB_BUCKETS) as u64;
        (LINEAR_MAX + sub) << g
    }
}

/// Largest value mapping to bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    if i < LINEAR_MAX as usize {
        i as u64
    } else {
        let g = ((i - LINEAR_MAX as usize) / SUB_BUCKETS) as u32;
        bucket_lower(i) + ((1u64 << g) - 1)
    }
}

/// A signed instantaneous value (queue depth, credits outstanding, live
/// connections). Sampled into a time series by the registry.
#[derive(Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.v.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A log-linear histogram over `u64` values (typically nanoseconds):
/// exact buckets below 16, then 16 sub-buckets per power of two, so any
/// recorded quantile is exact to within 6.25% of its value. Covers the
/// full `u64` range with a fixed 976-slot table; recording is a handful of
/// relaxed loads and stores and never allocates.
pub struct LogLinHistogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// The thread that records into this histogram ([`writer_token`]),
    /// 0 before the first record. Debug builds hold every later record to
    /// it, since two writers would lose counts.
    #[cfg(debug_assertions)]
    writer: std::sync::atomic::AtomicUsize,
}

/// A token that tells the calling thread from every other live thread:
/// the address of one of its thread-locals.
#[cfg(debug_assertions)]
fn writer_token() -> usize {
    thread_local!(static TOKEN: u8 = const { 0 });
    TOKEN.with(|t| t as *const u8 as usize)
}

impl LogLinHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogLinHistogram {
            // Box the array directly; Vec round-trip avoids a large stack
            // temporary in debug builds.
            buckets: (0..NUM_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>()
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("length is NUM_BUCKETS")),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            writer: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Record one value. One writing thread: a histogram is recorded into
    /// by the simulation that registered it, which runs on a single
    /// thread, so each field takes a relaxed load and store instead of a
    /// read-modify-write, whose lock prefix cost more than the rest of the
    /// record. Debug builds panic on a record from a second thread.
    /// Snapshots may be taken from any thread.
    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(debug_assertions)]
        {
            let me = writer_token();
            let first = self
                .writer
                .compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed);
            assert!(
                first.is_ok() || first == Err(me),
                "LogLinHistogram recorded into from a second thread"
            );
        }
        let add = |field: &AtomicU64, n: u64| {
            field.store(
                field.load(Ordering::Relaxed).wrapping_add(n),
                Ordering::Relaxed,
            )
        };
        add(&self.buckets[bucket_index(v)], 1);
        add(&self.count, 1);
        add(&self.sum, v);
        if v < self.min.load(Ordering::Relaxed) {
            self.min.store(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.store(v, Ordering::Relaxed);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy (sparse: only non-empty buckets).
    pub fn snapshot(&self) -> HistSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u32, c));
            }
        }
        HistSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for LogLinHistogram {
    fn default() -> Self {
        LogLinHistogram::new()
    }
}

/// Immutable copy of a [`LogLinHistogram`]: sparse `(bucket, count)`
/// pairs in ascending bucket order, plus exact count/sum/min/max.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Non-empty buckets as `(bucket index, count)`, ascending.
    pub buckets: Vec<(u32, u64)>,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistSnapshot {
    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate (`q` in `[0, 1]`): the upper bound of the bucket
    /// holding the ⌈q·count⌉-th smallest value, clamped to the observed
    /// `max`. Always within one log-linear bucket (≤ 6.25%) of the true
    /// sorted-sample quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_upper(i as usize).min(self.max);
            }
        }
        self.max
    }

    /// Merge another snapshot into this one. Merging snapshots of two
    /// streams yields exactly the snapshot of the concatenated stream.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let mut merged: Vec<(u32, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        merged.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, cb));
                        b.next();
                    } else {
                        merged.push((ia, ca + cb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Where a time-series point comes from at each sample tick.
enum Source {
    /// Read an atomic gauge.
    Gauge(Arc<Gauge>),
    /// Call a closure with the current sim time (ns). Must not call back
    /// into the registry, and must not block: `None` skips this tick
    /// (components read their own state with `try_lock`, because a
    /// process can legitimately be parked mid-call holding its lock when
    /// the engine-side sampler fires).
    Poll(Box<dyn Fn(u64) -> Option<i64> + Send>),
}

struct SeriesSlot {
    source: Source,
    points: Vec<(u64, i64)>,
}

struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<LogLinHistogram>>,
    series: BTreeMap<String, SeriesSlot>,
    /// Sampling cadence in sim nanoseconds; doubles on decimation.
    every_ns: u64,
    /// Sample ticks taken since the last decimation.
    samples: u64,
}

/// Default sampling cadence: one tick per 100 µs of simulated time.
pub const DEFAULT_SAMPLE_EVERY_NS: u64 = 100_000;
/// Maximum points per series before 2:1 decimation kicks in.
const SERIES_CAP: u64 = 512;

/// The per-simulation telemetry registry: named counters, gauges,
/// log-linear histograms, and sampled time series. Get-or-create lookups
/// return shared handles; hot paths should cache the `Arc` and touch the
/// registry map only once.
pub struct Registry {
    inner: Mutex<Inner>,
    /// Next sim instant at which to take a sample — the sampler fast path
    /// is one relaxed load of this.
    next_sample_ns: AtomicU64,
}

impl Registry {
    /// A fresh registry. Automatically registers the
    /// `host.wall_us_per_sim_s` series (host wall-clock microseconds spent
    /// per simulated second — the harness-efficiency metric), which is the
    /// only non-deterministic entry and is excluded from
    /// [`RegistrySnapshot::deterministic_text`].
    pub fn new() -> Arc<Registry> {
        let reg = Arc::new(Registry {
            inner: Mutex::new(Inner {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
                series: BTreeMap::new(),
                every_ns: DEFAULT_SAMPLE_EVERY_NS,
                samples: 0,
            }),
            next_sample_ns: AtomicU64::new(DEFAULT_SAMPLE_EVERY_NS),
        });
        let born = Instant::now();
        reg.register_sampled("host.wall_us_per_sim_s", move |now_ns| {
            if now_ns == 0 {
                return Some(0);
            }
            let wall_us = born.elapsed().as_micros();
            Some((wall_us * 1_000_000_000 / now_ns as u128) as i64)
        });
        reg
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Get or create a named counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(self.lock().counters.entry(name.to_string()).or_default())
    }

    /// Get or create a named gauge. Gauges are automatically sampled into
    /// a time series of the same name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut g = self.lock();
        let gauge = Arc::clone(g.gauges.entry(name.to_string()).or_default());
        g.series
            .entry(name.to_string())
            .or_insert_with(|| SeriesSlot {
                source: Source::Gauge(Arc::clone(&gauge)),
                points: Vec::new(),
            });
        gauge
    }

    /// Get or create a named log-linear histogram.
    pub fn histogram(&self, name: &str) -> Arc<LogLinHistogram> {
        Arc::clone(self.lock().histograms.entry(name.to_string()).or_default())
    }

    /// Register a poll closure sampled into a time series under `name`.
    /// First registration wins; duplicates are ignored (components
    /// registering lazily on first activity may race benignly). The
    /// closure receives the sample's sim time in nanoseconds and must not
    /// call back into this registry or block: return `None` (e.g. on a
    /// failed `try_lock`) to skip the tick — a parked process may hold
    /// the component's lock when the sampler fires.
    pub fn register_sampled<F>(&self, name: &str, f: F)
    where
        F: Fn(u64) -> Option<i64> + Send + 'static,
    {
        self.lock()
            .series
            .entry(name.to_string())
            .or_insert_with(|| SeriesSlot {
                source: Source::Poll(Box::new(f)),
                points: Vec::new(),
            });
    }

    /// Override the sampling cadence (tests and short benches). Resets the
    /// next-sample deadline to the new cadence.
    pub fn set_sample_every_ns(&self, every_ns: u64) {
        let every = every_ns.max(1);
        self.lock().every_ns = every;
        self.next_sample_ns.store(every, Ordering::Relaxed);
    }

    /// Sampler entry point, called by the engine after each executed
    /// event. Fast path: one relaxed atomic load.
    #[inline]
    pub fn maybe_sample(&self, now_ns: u64) {
        if now_ns >= self.next_sample_ns.load(Ordering::Relaxed) {
            self.sample_now(now_ns);
        }
    }

    /// Take one sample tick unconditionally (also used by `empstat` to
    /// capture a final data point before rendering).
    pub fn sample_now(&self, now_ns: u64) {
        let mut g = self.lock();
        for slot in g.series.values_mut() {
            let v = match &slot.source {
                Source::Gauge(gauge) => Some(gauge.get()),
                Source::Poll(f) => f(now_ns),
            };
            if let Some(v) = v {
                slot.points.push((now_ns, v));
            }
        }
        g.samples += 1;
        if g.samples >= SERIES_CAP {
            // Bound memory: drop every other point everywhere and sample
            // half as often from here on.
            for slot in g.series.values_mut() {
                let mut i = 0usize;
                slot.points.retain(|_| {
                    let keep = i.is_multiple_of(2);
                    i += 1;
                    keep
                });
            }
            g.samples /= 2;
            g.every_ns = g.every_ns.saturating_mul(2);
        }
        let every = g.every_ns;
        self.next_sample_ns.store(
            (now_ns / every + 1).saturating_mul(every),
            Ordering::Relaxed,
        );
    }

    /// Point-in-time copy of everything in the registry.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let g = self.lock();
        RegistrySnapshot {
            counters: g
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: g.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            series: g
                .series
                .iter()
                .map(|(k, s)| {
                    (
                        k.clone(),
                        SeriesSnapshot {
                            every_ns: g.every_ns,
                            points: s.points.clone(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// One sampled time series.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Sampling cadence in sim ns at snapshot time (doubles on decimation).
    pub every_ns: u64,
    /// `(sim time ns, value)` points in ascending time order.
    pub points: Vec<(u64, i64)>,
}

/// Point-in-time copy of a [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    /// Counter values by dotted name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by dotted name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by dotted name.
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Sampled time series by dotted name.
    pub series: BTreeMap<String, SeriesSnapshot>,
}

const QUANTILES: [(f64, &str); 4] = [(0.50, "p50"), (0.90, "p90"), (0.99, "p99"), (0.999, "p999")];

impl RegistrySnapshot {
    /// Render as an `ss`/`netstat`-style aligned table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.histograms.is_empty() {
            out.push_str("HISTOGRAMS\n");
            let w = self.histograms.keys().map(|k| k.len()).max().unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:w$}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
                "name", "count", "min", "p50", "p90", "p99", "p999", "max"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:w$}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
                    name,
                    h.count,
                    h.min,
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                    h.quantile(0.999),
                    h.max,
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("COUNTERS\n");
            let w = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:w$}  {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("GAUGES\n");
            let w = self.gauges.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:w$}  {v}");
            }
        }
        if !self.series.is_empty() {
            out.push_str("SERIES\n");
            let w = self.series.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, s) in &self.series {
                let (min, max, last) = series_stats(&s.points);
                let _ = writeln!(
                    out,
                    "  {name:w$}  points={} min={min} max={max} last={last}",
                    s.points.len(),
                );
            }
        }
        out
    }

    /// Render in Prometheus text exposition format. Dots in names become
    /// underscores; histograms expose `_bucket{le=...}` / `_sum` /
    /// `_count`, series expose their last value.
    pub fn render_prom(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {v}");
        }
        for (name, s) in &self.series {
            if self.gauges.contains_key(name) {
                continue; // already exported as the gauge's value
            }
            if let Some(&(_, last)) = s.points.last() {
                let n = prom_name(name);
                let _ = writeln!(out, "# TYPE {n} gauge\n{n} {last}");
            }
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cum = 0u64;
            for &(i, c) in &h.buckets {
                cum += c;
                let _ = writeln!(
                    out,
                    "{n}_bucket{{le=\"{}\"}} {cum}",
                    bucket_upper(i as usize)
                );
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {cum}");
            let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", h.sum, h.count);
        }
        out
    }

    /// Render as JSON (hand-rolled; the workspace carries no JSON deps).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_map(
            &mut out,
            self.counters.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\n  \"gauges\": {");
        push_map(
            &mut out,
            self.gauges.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\n  \"histograms\": {");
        push_map(
            &mut out,
            self.histograms.iter().map(|(k, h)| {
                let mut s = format!(
                    "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}",
                    h.count, h.sum, h.min, h.max
                );
                for (q, label) in QUANTILES {
                    let _ = write!(s, ", \"{label}\": {}", h.quantile(q));
                }
                s.push('}');
                (k, s)
            }),
        );
        out.push_str("},\n  \"series\": {");
        push_map(
            &mut out,
            self.series.iter().map(|(k, s)| {
                let pts: Vec<String> = s
                    .points
                    .iter()
                    .map(|&(t, v)| format!("[{t}, {v}]"))
                    .collect();
                (
                    k,
                    format!(
                        "{{\"every_ns\": {}, \"points\": [{}]}}",
                        s.every_ns,
                        pts.join(", ")
                    ),
                )
            }),
        );
        out.push_str("}\n}\n");
        out
    }

    /// Deterministic rendering: every counter, gauge, histogram bucket and
    /// series point whose name does not start with `host.` (the only
    /// wall-clock-dependent namespace). Two same-seed runs must produce
    /// byte-identical output — tested in the bench crate.
    pub fn deterministic_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            if name.starts_with("host.") {
                continue;
            }
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, v) in &self.gauges {
            if name.starts_with("host.") {
                continue;
            }
            let _ = writeln!(out, "gauge {name} {v}");
        }
        for (name, h) in &self.histograms {
            if name.starts_with("host.") {
                continue;
            }
            let _ = writeln!(
                out,
                "hist {name} count={} sum={} min={} max={} buckets={:?}",
                h.count, h.sum, h.min, h.max, h.buckets
            );
        }
        for (name, s) in &self.series {
            if name.starts_with("host.") {
                continue;
            }
            let _ = writeln!(out, "series {name} every={} {:?}", s.every_ns, s.points);
        }
        out
    }
}

fn series_stats(points: &[(u64, i64)]) -> (i64, i64, i64) {
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    for &(_, v) in points {
        min = min.min(v);
        max = max.max(v);
    }
    if points.is_empty() {
        (0, 0, 0)
    } else {
        (min, max, points[points.len() - 1].1)
    }
}

fn prom_name(name: &str) -> String {
    name.replace('.', "_")
}

fn push_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a String, String)>) {
    let body: Vec<String> = entries.map(|(k, v)| format!("\"{k}\": {v}")).collect();
    out.push_str(&body.join(", "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_roundtrip() {
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            65_535,
            1 << 40,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(
                bucket_lower(i) <= v && v <= bucket_upper(i),
                "v={v} idx={i} lo={} hi={}",
                bucket_lower(i),
                bucket_upper(i)
            );
        }
        // Adjacent buckets tile the space with no gaps or overlaps.
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(bucket_upper(i) + 1, bucket_lower(i + 1), "bucket {i}");
        }
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_extremes_and_quantiles() {
        let h = LogLinHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.50);
        // True p50 is 500; bucket width there is 32, so the estimate must
        // land in [500, 531].
        assert!((500..=531).contains(&p50), "p50={p50}");
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(s.quantile(0.0), bucket_upper(bucket_index(1)));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_second_recording_thread_is_caught() {
        let h = Arc::new(LogLinHistogram::new());
        h.record(1);
        let h2 = Arc::clone(&h);
        let other = std::thread::spawn(move || h2.record(2)).join();
        assert!(other.is_err(), "the second thread's record must panic");
        // Snapshots from another thread are fine.
        let snap = std::thread::spawn(move || h.snapshot()).join();
        assert_eq!(snap.expect("snapshot").count, 1);
    }

    #[test]
    fn merged_snapshots_match_merged_stream() {
        let (a, b, all) = (
            LogLinHistogram::new(),
            LogLinHistogram::new(),
            LogLinHistogram::new(),
        );
        for v in [3u64, 17, 17, 900, 70_000] {
            a.record(v);
            all.record(v);
        }
        for v in [1u64, 17, 400_000] {
            b.record(v);
            all.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, all.snapshot());
    }

    #[test]
    fn registry_get_or_create_shares_handles() {
        let r = Registry::new();
        r.counter("x.a").inc();
        r.counter("x.a").add(2);
        assert_eq!(r.counter("x.a").get(), 3);
        r.gauge("x.g").set(7);
        assert_eq!(r.gauge("x.g").get(), 7);
        r.histogram("x.h").record(42);
        assert_eq!(r.histogram("x.h").count(), 1);
    }

    #[test]
    fn sampler_samples_gauges_and_polls_on_cadence() {
        let r = Registry::new();
        r.set_sample_every_ns(100);
        let g = r.gauge("t.depth");
        r.register_sampled("t.poll", |now| Some((now / 10) as i64));
        r.register_sampled("t.skip", |_| None);
        g.set(5);
        r.maybe_sample(50); // below cadence: no sample
        r.maybe_sample(100);
        g.set(9);
        r.maybe_sample(150); // below next deadline (200)
        r.maybe_sample(250);
        let snap = r.snapshot();
        assert_eq!(snap.series["t.depth"].points, vec![(100, 5), (250, 9)]);
        assert_eq!(snap.series["t.poll"].points, vec![(100, 10), (250, 25)]);
        // A closure returning None (component lock busy) skips the tick.
        assert_eq!(snap.series["t.skip"].points, vec![]);
    }

    #[test]
    fn series_decimate_and_cadence_doubles_at_cap() {
        let r = Registry::new();
        r.set_sample_every_ns(10);
        let g = r.gauge("t.v");
        for i in 0..SERIES_CAP + 10 {
            g.set(i as i64);
            r.sample_now(i * 10);
        }
        let snap = r.snapshot();
        let pts = &snap.series["t.v"].points;
        assert!(pts.len() < SERIES_CAP as usize, "len={}", pts.len());
        assert_eq!(snap.series["t.v"].every_ns, 20);
        // Decimation keeps time order.
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn renders_include_all_sections() {
        let r = Registry::new();
        r.counter("a.c").inc();
        r.gauge("a.g").set(-3);
        r.histogram("a.h").record(1234);
        r.sample_now(1000);
        let snap = r.snapshot();
        let table = snap.render_table();
        for needle in ["HISTOGRAMS", "COUNTERS", "GAUGES", "SERIES", "a.h", "p999"] {
            assert!(table.contains(needle), "table missing {needle}:\n{table}");
        }
        let prom = snap.render_prom();
        for needle in ["a_c 1", "a_g -3", "a_h_count 1", "le=\"+Inf\""] {
            assert!(prom.contains(needle), "prom missing {needle}:\n{prom}");
        }
        let json = snap.to_json();
        for needle in ["\"a.c\": 1", "\"p99\":", "\"every_ns\"", "\"series\""] {
            assert!(json.contains(needle), "json missing {needle}:\n{json}");
        }
    }

    #[test]
    fn deterministic_text_excludes_host_namespace() {
        let r = Registry::new();
        r.counter("a.c").inc();
        r.sample_now(5_000_000_000); // host series definitely non-zero
        let d = r.snapshot().deterministic_text();
        assert!(d.contains("counter a.c 1"));
        assert!(!d.contains("host."), "host.* leaked into {d}");
        assert!(r.snapshot().series.contains_key("host.wall_us_per_sim_s"));
    }
}

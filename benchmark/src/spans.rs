//! Spans around the benchmark's own calls into the sockets facade.
//!
//! A span is one call (or one whole request): name, start and end on both
//! clocks, the span that caused it, and the request it belongs to. Each
//! simulated process records into its own [`Recorder`] (no lock per span)
//! and hands the lot to the shared [`SpanLog`] when it ends; the log is
//! written out once, after the run. Recording is off in every run that
//! produces an end-to-end number.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use simnet::{ProcessCtx, SimAccess};

use crate::json::{obj, Value};

/// Parent id of a span nobody caused (a request's root).
pub const NO_PARENT: u64 = 0;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never [`NO_PARENT`]).
    pub id: u64,
    /// Id of the enclosing span, or [`NO_PARENT`].
    pub parent: u64,
    /// Request identifier shared by every span of one operation.
    pub req: u64,
    /// Layer the called code belongs to (crate name, or `benchmark`).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Simulated process that made the call.
    pub proc_id: u64,
    /// Sim clock, nanoseconds.
    pub sim_start_ns: u64,
    /// Sim clock, nanoseconds.
    pub sim_end_ns: u64,
    /// Host clock, nanoseconds since the log was created.
    pub host_start_ns: u64,
    /// Host clock, nanoseconds since the log was created.
    pub host_end_ns: u64,
}

/// The run-wide span store.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    next_proc: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// A log; when `enabled` is false every recorder is a no-op.
    pub fn new(enabled: bool) -> Arc<SpanLog> {
        Arc::new(SpanLog {
            enabled,
            epoch: Instant::now(),
            next_proc: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// A recorder for one simulated process.
    pub fn recorder(self: &Arc<SpanLog>) -> Recorder {
        Recorder {
            log: Arc::clone(self),
            // Relaxed: the counter only hands out distinct numbers.
            proc_id: self.next_proc.fetch_add(1, Ordering::Relaxed),
            next_local: 1,
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Every span handed in so far, ordered by id (process, then start
    /// order), which is the same on every run of the same seed.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock());
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Token returned by [`Recorder::begin`]; pass it to [`Recorder::end`].
#[derive(Clone, Copy)]
pub struct Open(usize);

/// One simulated process's span recorder. Spans nest by call order: a span
/// begun while another is open is its child.
pub struct Recorder {
    log: Arc<SpanLog>,
    proc_id: u64,
    next_local: u64,
    open: Vec<Span>,
    done: Vec<Span>,
}

impl Recorder {
    /// Open a span for request `req`.
    pub fn begin(
        &mut self,
        ctx: &ProcessCtx,
        layer: &'static str,
        name: &'static str,
        req: u64,
    ) -> Open {
        if !self.log.enabled {
            return Open(usize::MAX);
        }
        let id = self.proc_id << 32 | self.next_local;
        self.next_local += 1;
        self.open.push(Span {
            id,
            parent: self.open.last().map_or(NO_PARENT, |p| p.id),
            req,
            layer,
            name,
            proc_id: self.proc_id,
            sim_start_ns: ctx.now().nanos(),
            sim_end_ns: 0,
            host_start_ns: self.log.epoch.elapsed().as_nanos() as u64,
            host_end_ns: 0,
        });
        Open(self.open.len() - 1)
    }

    /// Close the span `open` (and, defensively, any span left open inside
    /// it by an early return).
    pub fn end(&mut self, ctx: &ProcessCtx, open: Open) {
        if !self.log.enabled {
            return;
        }
        let sim = ctx.now().nanos();
        let host = self.log.epoch.elapsed().as_nanos() as u64;
        while self.open.len() > open.0 {
            let mut span = self.open.pop().expect("length checked");
            span.sim_end_ns = sim;
            span.host_end_ns = host;
            self.done.push(span);
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if !self.done.is_empty() {
            self.log.spans.lock().append(&mut self.done);
        }
    }
}

/// Which clock an interval is taken on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time.
    Sim,
    /// Host time.
    Host,
}

impl Span {
    /// `(start, end)` on `clock`, in nanoseconds.
    pub fn interval(&self, clock: Clock) -> (u64, u64) {
        match clock {
            Clock::Sim => (self.sim_start_ns, self.sim_end_ns),
            Clock::Host => (self.host_start_ns, self.host_end_ns),
        }
    }
}

/// Length of the union of `intervals` clipped to `within`.
pub fn covered(within: (u64, u64), intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = within.0;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(within.1);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span on `clock`: its duration minus the part of that
/// interval its direct children cover (overlapping children count once).
/// Returned in the order of `spans`.
pub fn self_times(spans: &[Span], clock: Clock) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        children
            .entry(s.parent)
            .or_default()
            .push(s.interval(clock));
    }
    spans
        .iter()
        .map(|s| {
            let (start, end) = s.interval(clock);
            let kids = children
                .get_mut(&s.id)
                .map_or(0, |k| covered((start, end), k));
            (end - start).saturating_sub(kids)
        })
        .collect()
}

/// The span file: one object per span, ids as decimal numbers.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let rows: Vec<Value> = spans
        .iter()
        .map(|s| {
            obj([
                ("id", Value::Num(s.id as f64)),
                ("parent", Value::Num(s.parent as f64)),
                ("req", Value::Num(s.req as f64)),
                ("proc", Value::Num(s.proc_id as f64)),
                ("layer", Value::Str(s.layer.into())),
                ("name", Value::Str(s.name.into())),
                ("sim_start_ns", Value::Num(s.sim_start_ns as f64)),
                ("sim_end_ns", Value::Num(s.sim_end_ns as f64)),
                ("host_start_ns", Value::Num(s.host_start_ns as f64)),
                ("host_end_ns", Value::Num(s.host_end_ns as f64)),
            ])
        })
        .collect();
    obj([
        ("workload", Value::Str(workload.into())),
        ("seed", Value::Num(seed as f64)),
        ("spans", Value::Arr(rows)),
    ])
    .render()
}

//! The discrete-event engine.
//!
//! A [`Sim`] owns a priority queue of events ordered by `(time, sequence)`;
//! ties in time are broken by scheduling order, which makes every run
//! deterministic. Simulated *processes* (threads with blocking semantics)
//! are layered on top in [`crate::process`].
//!
//! **One turn, many threads.** Exactly one thread — the caller of
//! [`Sim::run`] or a single process thread — holds *the turn* at any
//! instant, and whoever holds it runs the event loop (`Sim::drive`): it
//! pops the next event and executes it, so event closures run on whichever
//! thread has the turn. A parking process keeps driving; when the event it
//! pops is its own wake-up it simply returns into process code (no thread
//! switch), and when it is another process's it hands the turn straight to
//! that thread. The `run*` caller sleeps until the turn comes back (loop
//! ended, a process exited, or an event panicked on a process thread).
//! Because only the turn holder executes, component state guarded by
//! [`parking_lot::Mutex`] is never contended.
//!
//! Ownership discipline (important, see `DESIGN.md` §6): components must
//! **not** store `Sim` handles. Every component method takes a
//! `&dyn SimAccess` argument; events receive `&Sim`. This keeps the `Sim` the
//! unique strong owner of the engine, so dropping it deterministically
//! terminates all parked process threads.

use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::error::SimResult;
use crate::process::{Baton, LoopMsg, ProcId, ProcTable, ProcessCtx, Resume, HANDOFF_WATCHDOG};
use crate::sync::Completion;
use crate::time::{SimDuration, SimTime};

/// A scheduled event: a one-shot closure run on the thread holding the turn.
pub type EventFn = Box<dyn FnOnce(&Sim) + Send>;

/// What a queued event does when its time comes.
enum Action {
    Call(EventFn),
    /// Resume a parked process: its thread takes the turn.
    Wake(ProcId),
}

struct Event {
    time: SimTime,
    seq: u64,
    action: Action,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Reversed so that `BinaryHeap` (a max-heap) pops the earliest event.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

pub(crate) struct SimCore {
    now: SimTime,
    next_seq: u64,
    queue: BinaryHeap<Event>,
    executed: u64,
    /// Stop conditions of the current `run*` call.
    deadline: SimTime,
    done: Option<Completion>,
    /// Set by `Sim::drop`: no thread may run another event.
    terminated: bool,
    /// The process whose wake-up was popped last (named by the watchdog).
    turn: ProcId,
}

/// Engine state shared between the `run*` caller and process threads.
///
/// This type has no public API of its own; use it through [`SimAccess`].
pub struct SimShared {
    pub(crate) core: Mutex<SimCore>,
    pub(crate) procs: Mutex<ProcTable>,
    /// Where the `run*` caller sleeps while a process thread has the turn.
    main: Baton<LoopMsg>,
    handoffs: AtomicU64,
    pub(crate) tracer: emp_trace::Tracer,
    pub(crate) telemetry: Arc<emp_trace::telemetry::Registry>,
}

impl SimShared {
    pub(crate) fn now(&self) -> SimTime {
        self.core.lock().now
    }

    fn schedule(&self, at: SimTime, action: Action) {
        let mut core = self.core.lock();
        // Never schedule into the past; clamp to "now" (runs after events
        // already queued for the current instant, preserving causality).
        let time = at.max(core.now);
        let seq = core.next_seq;
        core.next_seq += 1;
        core.queue.push(Event { time, seq, action });
    }

    pub(crate) fn schedule_boxed(&self, at: SimTime, f: EventFn) {
        self.schedule(at, Action::Call(f));
    }

    /// Schedule the wake-up of a parked process. Crate-private: the 1:1
    /// park/wake discipline is maintained by the blocking primitives in
    /// [`crate::process`] and [`crate::sync`].
    pub(crate) fn schedule_wake(&self, pid: ProcId, at: SimTime) {
        self.schedule(at, Action::Wake(pid));
    }

    /// Pop the next event and advance the clock to it, or `None` once the
    /// current `run*` call must return: `done` fired, the queue drained, the
    /// next event lies past the deadline, or the simulation is being dropped.
    fn next_event(&self) -> Option<Event> {
        let mut core = self.core.lock();
        if core.terminated || core.done.as_ref().is_some_and(Completion::is_done) {
            return None;
        }
        if core.queue.peek()?.time > core.deadline {
            return None;
        }
        let ev = core.queue.pop().expect("peeked event exists");
        core.now = ev.time;
        core.executed += 1;
        if let Action::Wake(pid) = ev.action {
            core.turn = pid;
        }
        Some(ev)
    }

    /// Give the turn back to the `run*` caller.
    pub(crate) fn post(&self, msg: LoopMsg) {
        self.handoffs.fetch_add(1, Ordering::Relaxed);
        self.main.pass(msg);
    }
}

/// Access to the engine from either the event loop (`&Sim`) or a simulated
/// process (`&ProcessCtx`).
///
/// Component methods should take `&dyn SimAccess` so they can be called from
/// both contexts. The extension trait [`SimAccessExt`] adds the generic
/// convenience methods.
pub trait SimAccess {
    /// The shared engine state. Panics if the simulation no longer exists
    /// (only possible from a process thread racing teardown, which the
    /// termination protocol prevents for well-behaved processes).
    #[doc(hidden)]
    fn shared(&self) -> Arc<SimShared>;

    /// The current simulated time.
    fn now(&self) -> SimTime {
        self.shared().now()
    }

    /// Schedule a boxed event at an absolute time (clamped to now).
    fn schedule_boxed(&self, at: SimTime, f: EventFn) {
        self.shared().schedule_boxed(at, f);
    }

    /// This simulation's event tracer (a cheap shared handle). All layers
    /// record into the same per-simulation ring; recording is a no-op
    /// unless the `trace` feature is enabled, and emission sites should be
    /// gated on [`emp_trace::ENABLED`] so they compile out entirely.
    fn tracer(&self) -> emp_trace::Tracer {
        self.shared().tracer.clone()
    }

    /// This simulation's always-on telemetry registry. Unlike the tracer
    /// this is live in every build; layers register counters, gauges,
    /// histograms, and sampled series under stable dotted names. The
    /// engine drives its sampler after every executed event.
    fn telemetry(&self) -> Arc<emp_trace::telemetry::Registry> {
        Arc::clone(&self.shared().telemetry)
    }

    /// A weak handle on this simulation's clock (see [`SimClock`]).
    fn clock(&self) -> SimClock {
        SimClock(Arc::downgrade(&self.shared()))
    }
}

/// Read-only access to a simulation's clock for a component that must
/// know the time in a method no `SimAccess` is passed to. Weak, like every
/// cross-component reference: it never keeps the engine alive.
#[derive(Clone)]
pub struct SimClock(Weak<SimShared>);

impl SimClock {
    /// The current simulated time; `None` once the simulation is gone.
    pub fn now(&self) -> Option<SimTime> {
        self.0.upgrade().map(|s| s.now())
    }
}

/// Generic conveniences on top of [`SimAccess`].
pub trait SimAccessExt: SimAccess {
    /// Schedule `f` to run `after` from now.
    fn schedule_after<F>(&self, after: SimDuration, f: F)
    where
        F: FnOnce(&Sim) + Send + 'static,
    {
        self.schedule_boxed(self.now() + after, Box::new(f));
    }

    /// Schedule `f` at the absolute instant `at` (clamped to now).
    fn schedule_at<F>(&self, at: SimTime, f: F)
    where
        F: FnOnce(&Sim) + Send + 'static,
    {
        self.schedule_boxed(at, Box::new(f));
    }
}

impl<T: SimAccess + ?Sized> SimAccessExt for T {}

/// A discrete-event simulation.
///
/// `Sim` is deliberately **not** `Clone`: it is the unique strong owner of
/// the engine. Dropping it terminates and joins all process threads.
///
/// # Example
///
/// ```
/// use simnet::{Sim, SimAccess, SimDuration};
///
/// let sim = Sim::new();
/// sim.spawn("hello", |ctx| {
///     ctx.delay(SimDuration::from_micros(5))?;
///     assert_eq!(ctx.now().nanos(), 5_000);
///     Ok(())
/// });
/// sim.run();
/// assert_eq!(sim.now().nanos(), 5_000);
/// ```
pub struct Sim {
    shared: Arc<SimShared>,
    /// False for the handle a process thread runs events with
    /// ([`Sim::view`]); dropping that one terminates nothing.
    owner: bool,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

/// Keep freed heap memory in the process rather than returning the heap
/// top to the kernel whenever 128 KiB of it is free (glibc's default trim
/// threshold). A simulation allocates and frees message-sized buffers (up
/// to 64 KiB) at a high rate; where they happen to sit at the heap top,
/// every message paid an `sbrk` round trip and a page fault per 4 KiB it
/// touched, and whether a run was hit depended on the sizes of unrelated
/// allocations. Applied once per process.
fn keep_heap_top() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            const M_TRIM_THRESHOLD: i32 = -1;
            extern "C" {
                fn mallopt(param: i32, value: i32) -> i32;
            }
            // SAFETY: glibc's `mallopt`, declared with its C signature; it
            // only sets an allocator tunable, under the allocator's lock.
            unsafe {
                mallopt(M_TRIM_THRESHOLD, 64 << 20);
            }
        });
    }
}

impl Sim {
    /// Create an empty simulation at t = 0.
    pub fn new() -> Sim {
        keep_heap_top();
        let shared = Arc::new(SimShared {
            core: Mutex::new(SimCore {
                now: SimTime::ZERO,
                next_seq: 0,
                queue: BinaryHeap::new(),
                executed: 0,
                deadline: SimTime::MAX,
                done: None,
                terminated: false,
                turn: 0,
            }),
            procs: Mutex::new(ProcTable::new()),
            main: Baton::new(),
            handoffs: AtomicU64::new(0),
            tracer: emp_trace::Tracer::new(),
            telemetry: emp_trace::telemetry::Registry::new(),
        });
        Sim {
            shared,
            owner: true,
        }
    }

    /// The handle a process thread passes to the events it runs while it
    /// holds the turn.
    pub(crate) fn view(shared: Arc<SimShared>) -> Sim {
        Sim {
            shared,
            owner: false,
        }
    }

    /// Spawn a simulated process that starts at the current simulated time.
    ///
    /// The closure runs on a dedicated OS thread, and only while that thread
    /// holds the turn: between two [`ProcessCtx`] blocking calls nothing else
    /// in the simulation executes, so it may freely manipulate shared
    /// component state. While the process is blocked its thread either runs
    /// the event loop itself or sleeps until its wake-up event is popped.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&mut ProcessCtx) -> SimResult<()> + Send + 'static,
    {
        let pid = ProcTable::spawn(&self.shared, name.into(), f);
        self.shared.schedule_wake(pid, self.shared.now());
        pid
    }

    /// Run until the event queue is empty. Returns the final simulated time.
    pub fn run(&self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Run events with `time <= deadline`. The clock advances only to
    /// executed events, so a drained queue leaves it at the last event that
    /// ran. Returns the current simulated time.
    pub fn run_until(&self, deadline: SimTime) -> SimTime {
        self.run_loop(deadline, None);
        self.shared.now()
    }

    /// Run until `done` completes or the event queue drains, with a hard
    /// `deadline` as a backstop against runaway protocol timers. Returns
    /// `true` if the completion fired.
    pub fn run_until_complete(&self, done: &Completion, deadline: SimTime) -> bool {
        self.run_loop(deadline, Some(done.clone()));
        done.is_done()
    }

    /// Total number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.shared.core.lock().executed
    }

    /// Number of events currently queued.
    pub fn events_pending(&self) -> usize {
        self.shared.core.lock().queue.len()
    }

    /// How many times the turn has moved from one OS thread to another
    /// (to a process thread whose wake-up was popped, or back to the
    /// `run*` caller). A process woken by the thread it parked on costs none.
    pub fn thread_handoffs(&self) -> u64 {
        self.shared.handoffs.load(Ordering::Relaxed)
    }

    /// Drive the loop from the `run*` caller's thread, sleeping whenever a
    /// process thread has the turn, until a stop condition is met.
    fn run_loop(&self, deadline: SimTime, done: Option<Completion>) {
        {
            let mut core = self.shared.core.lock();
            core.deadline = deadline;
            core.done = done;
        }
        while !self.drive(None) {
            match self.await_turn() {
                LoopMsg::LoopEnded => break,
                LoopMsg::Exited(pid, result) => {
                    self.shared.procs.lock().reap(pid);
                    if let Err(msg) = result {
                        panic!("simulated process failed: {msg}");
                    }
                }
                LoopMsg::EventPanic(payload) => resume_unwind(payload),
            }
        }
    }

    /// Pop and run events on the calling thread until the turn leaves it or
    /// the loop ends. `me` is the calling process, `None` for the `run*`
    /// caller. Returns `true` if the caller still holds the turn: its own
    /// wake-up was popped (process), or the loop ended (`run*` caller).
    pub(crate) fn drive(&self, me: Option<ProcId>) -> bool {
        let shared = &self.shared;
        loop {
            let Some(ev) = shared.next_event() else {
                if me.is_some() {
                    shared.post(LoopMsg::LoopEnded);
                }
                return me.is_none();
            };
            match ev.action {
                Action::Call(f) if me.is_none() => f(self),
                // On a process thread a panicking event must not unwind into
                // the parked process: it belongs to the `run*` caller.
                Action::Call(f) => {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(self))) {
                        shared.post(LoopMsg::EventPanic(payload));
                        return false;
                    }
                }
                // The caller's own wake-up; the sample this event is owed is
                // taken when the process next parks or exits.
                Action::Wake(pid) if me == Some(pid) => return true,
                Action::Wake(pid) => {
                    let baton = shared.procs.lock().baton(pid);
                    if let Some(baton) = baton {
                        shared.handoffs.fetch_add(1, Ordering::Relaxed);
                        baton.pass(Resume::Run);
                        return false;
                    }
                    // Stale wake-up of a process that already exited.
                }
            }
            shared.telemetry.maybe_sample(ev.time.nanos());
        }
    }

    /// Sleep until a process thread gives the turn back. Every
    /// [`HANDOFF_WATCHDOG`] check that the loop still makes progress: a
    /// process blocked outside the engine's primitives would otherwise
    /// freeze the simulation silently.
    fn await_turn(&self) -> LoopMsg {
        let mut seen = self.events_executed();
        loop {
            if let Some(msg) = self.shared.main.take_timeout(HANDOFF_WATCHDOG) {
                return msg;
            }
            let executed = self.events_executed();
            if executed == seen {
                let turn = self.shared.core.lock().turn;
                panic!(
                    "engine stuck: no event ran for {HANDOFF_WATCHDOG:?} while process '{}' \
                     held the turn; it is blocked outside the simulation's blocking primitives",
                    self.shared.procs.lock().name(turn)
                );
            }
            seen = executed;
        }
    }
}

impl SimAccess for Sim {
    fn shared(&self) -> Arc<SimShared> {
        Arc::clone(&self.shared)
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        if self.owner {
            self.shared.core.lock().terminated = true;
            self.shared.procs.lock().terminate_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn events_run_in_time_order() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for &t in &[30u64, 10, 20] {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(t), move |sim| {
                log.lock().push(sim.now().nanos());
            });
        }
        sim.run();
        assert_eq!(*log.lock(), vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5 {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(100), move |_| log.lock().push(i));
        }
        sim.run();
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn events_can_schedule_events() {
        let sim = Sim::new();
        let count = Arc::new(AtomicU64::new(0));
        fn chain(sim: &Sim, count: Arc<AtomicU64>, left: u64) {
            if left == 0 {
                return;
            }
            count.fetch_add(1, Ordering::Relaxed);
            sim.schedule_after(SimDuration::from_nanos(7), move |sim| {
                chain(sim, count, left - 1)
            });
        }
        let c2 = Arc::clone(&count);
        sim.schedule_at(SimTime::ZERO, move |sim| chain(sim, c2, 10));
        sim.run();
        assert_eq!(count.load(Ordering::Relaxed), 10);
        assert_eq!(sim.now().nanos(), 10 * 7);
        assert_eq!(sim.events_executed(), 11);
    }

    #[test]
    fn run_until_respects_deadline() {
        let sim = Sim::new();
        let hits = Arc::new(AtomicU64::new(0));
        for t in [10u64, 20, 30, 40] {
            let hits = Arc::clone(&hits);
            sim.schedule_at(SimTime::from_nanos(t), move |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        sim.run_until(SimTime::from_nanos(25));
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(sim.events_pending(), 2);
        sim.run();
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn scheduling_into_the_past_clamps_to_now() {
        let sim = Sim::new();
        let seen = Arc::new(Mutex::new(None));
        let seen2 = Arc::clone(&seen);
        sim.schedule_at(SimTime::from_nanos(100), move |sim| {
            let seen3 = Arc::clone(&seen2);
            // Try to schedule at t=5, which is in the past.
            sim.schedule_at(SimTime::from_nanos(5), move |sim| {
                *seen3.lock() = Some(sim.now().nanos());
            });
        });
        sim.run();
        assert_eq!(*seen.lock(), Some(100));
    }

    #[test]
    fn identical_runs_are_deterministic() {
        fn run_once() -> Vec<u64> {
            let sim = Sim::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..50u64 {
                let log = Arc::clone(&log);
                sim.schedule_at(SimTime::from_nanos(i % 7), move |_| {
                    log.lock().push(i);
                });
            }
            sim.run();
            let v = log.lock().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }
}

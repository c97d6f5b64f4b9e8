//! The discrete-event engine.
//!
//! A [`Sim`] owns a priority queue of events ordered by `(time, as_of,
//! sequence)`: ties in time are broken by the instant each event was
//! scheduled as of, then by scheduling order, which makes every run
//! deterministic. An ordinary event is scheduled as of now; a frame
//! delivery booked ahead of time (a frame whose firmware task or switch
//! latency is still running when it is put on the wire) is scheduled as of
//! the instant it stands for, so it sorts where the event chain it replaces
//! would have put it (DESIGN §6). Simulated *processes* (coroutines with
//! blocking semantics) are layered on top in [`crate::process`].
//!
//! **One thread, many stacks.** Everything runs on the thread that calls
//! [`Sim::run`]: on its own stack, or on the stack of one process. Exactly
//! one stack holds *the turn* at any instant, and whoever holds it runs the
//! event loop (`Sim::drive`): it pops the next event and executes it, so
//! event closures run on whichever stack has the turn. A parking process
//! keeps driving; when the event it pops is its own wake-up it simply
//! returns into process code (no switch), and when it is another process's
//! it switches straight to that process's stack. The `run*` caller's stack
//! is suspended until the turn comes back (loop ended, a process exited,
//! or an event panicked on a process's stack). Because only the turn
//! holder executes, component state guarded by [`parking_lot::Mutex`] is
//! never contended.
//!
//! Ownership discipline (important, see `DESIGN.md` §6): components must
//! **not** store `Sim` handles. Every component method takes a
//! `&dyn SimAccess` argument; events receive `&Sim`. This keeps the `Sim` the
//! unique strong owner of the engine, so dropping it deterministically
//! terminates all parked processes.

use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use emp_trace::Counter;
use parking_lot::Mutex;

use crate::coroutine::{self, Context};
use crate::error::SimResult;
use crate::frame::Frame;
use crate::link::FrameSink;
use crate::process::{self, Baton, Handoff, LoopMsg, ProcId, ProcTable, ProcessCtx, Resume};
use crate::sync::Completion;
use crate::time::{SimDuration, SimTime};

/// A scheduled event: a one-shot closure run on the stack holding the turn.
pub type EventFn = Box<dyn FnOnce(&Sim) + Send>;

/// What kind of work an executed event is. The engine counts executed
/// events per class in the telemetry registry, as
/// `simnet.events.<class>` (`wake`, `deliver`, `task`, `timer`, `other`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventClass {
    /// A parked process resumes.
    Wake,
    /// A frame's last bit reaches a station or a switch port.
    Deliver,
    /// A firmware or kernel CPU task completes.
    Task,
    /// A timer fires: retransmission, staging deadline, a timeout.
    Timer,
    /// Anything else.
    Other,
}

impl EventClass {
    const ALL: [EventClass; 5] = [
        EventClass::Wake,
        EventClass::Deliver,
        EventClass::Task,
        EventClass::Timer,
        EventClass::Other,
    ];

    /// The class's name in `simnet.events.<name>`.
    fn name(self) -> &'static str {
        match self {
            EventClass::Wake => "wake",
            EventClass::Deliver => "deliver",
            EventClass::Task => "task",
            EventClass::Timer => "timer",
            EventClass::Other => "other",
        }
    }
}

/// Cancels the timer events scheduled with it
/// ([`SimAccess::schedule_timer`]). A cancelled timer is still popped at its
/// instant, so the clock and the telemetry sampler see it, but it is not
/// run and not counted as executed (`simnet.events.cancelled` counts it).
#[derive(Clone, Default)]
pub struct TimerGuard(Arc<AtomicBool>);

impl TimerGuard {
    /// A guard whose timers are live.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cancel every timer scheduled with this guard that has not fired.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether [`TimerGuard::cancel`] was called. Only the turn holder
    /// cancels and pops timers, and every stack that can hold the turn runs
    /// on one thread, so a relaxed flag is enough.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// What a queued event does when its time comes.
enum Action {
    Call(EventClass, EventFn),
    /// A timer that is skipped once its guard is cancelled.
    Timer(TimerGuard, EventFn),
    /// Resume a parked process: its stack takes the turn.
    Wake(ProcId),
    /// Hand a frame to the sink its link delivers to.
    Deliver(Arc<dyn FrameSink>, Frame),
}

impl Action {
    fn class(&self) -> EventClass {
        match self {
            Action::Call(class, _) => *class,
            Action::Timer(..) => EventClass::Timer,
            Action::Wake(_) => EventClass::Wake,
            Action::Deliver(..) => EventClass::Deliver,
        }
    }
}

/// A queued event's place in the order. Its action waits in
/// [`SimCore::actions`], so the heap moves 32-byte keys, not actions.
struct Key {
    time: SimTime,
    /// The instant the event was scheduled as of: `now` for an ordinary
    /// event, the instant it stands for for a delivery booked ahead.
    as_of: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    // Reversed so that `BinaryHeap` (a max-heap) pops the earliest event.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.as_of, other.seq).cmp(&(self.time, self.as_of, self.seq))
    }
}

/// A popped event; no action for a cancelled timer, which is skipped.
struct Event {
    time: SimTime,
    action: Option<Action>,
}

pub(crate) struct SimCore {
    next_seq: u64,
    queue: BinaryHeap<Key>,
    /// The actions of queued events, indexed by [`Key::slot`]; `free`
    /// lists the empty slots.
    actions: Vec<Option<Action>>,
    free: Vec<u32>,
    /// Stop conditions of the current `run*` call.
    deadline: SimTime,
    done: Option<Completion>,
    /// Set once processes are being terminated (`Sim::drop`, or a failure
    /// re-raised by `run*`): no stack may run another event.
    terminated: bool,
}

/// Engine state shared between the `run*` caller and the processes.
///
/// This type has no public API of its own; use it through [`SimAccess`].
pub struct SimShared {
    pub(crate) core: Mutex<SimCore>,
    /// The clock, in ns. Only the turn holder advances it (under the
    /// `core` lock, when it pops an event), and every stack runs on one
    /// thread, so a relaxed load outside the lock reads the current time.
    now: AtomicU64,
    pub(crate) procs: Mutex<ProcTable>,
    /// Where the `run*` caller's stack is suspended while a process has the
    /// turn.
    main: Baton<LoopMsg>,
    /// `simnet.thread_handoffs`: see [`Sim::thread_handoffs`].
    handoffs: Arc<Counter>,
    /// `simnet.events.<class>`, indexed by [`EventClass`].
    executed_by_class: [Arc<Counter>; 5],
    /// `simnet.events.cancelled`: timers popped after their guard was
    /// cancelled.
    cancelled: Arc<Counter>,
    pub(crate) tracer: emp_trace::Tracer,
    pub(crate) telemetry: Arc<emp_trace::telemetry::Registry>,
}

impl SimShared {
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now.load(Ordering::Relaxed))
    }

    /// Queue `action` at `at`, as of `as_of` (both clamped to now).
    fn schedule(&self, at: SimTime, as_of: SimTime, action: Action) {
        let mut core = self.core.lock();
        // Never schedule into the past; clamp to "now" (runs after events
        // already queued for the current instant, preserving causality).
        let now = self.now();
        let time = at.max(now);
        let as_of = as_of.max(now).min(time);
        let seq = core.next_seq;
        core.next_seq += 1;
        let slot = match core.free.pop() {
            Some(slot) => {
                core.actions[slot as usize] = Some(action);
                slot
            }
            None => {
                core.actions.push(Some(action));
                (core.actions.len() - 1) as u32
            }
        };
        core.queue.push(Key {
            time,
            as_of,
            seq,
            slot,
        });
    }

    /// Schedule the wake-up of a parked process. Crate-private: the 1:1
    /// park/wake discipline is maintained by the blocking primitives in
    /// [`crate::process`] and [`crate::sync`].
    pub(crate) fn schedule_wake(&self, pid: ProcId, at: SimTime) {
        self.schedule(at, SimTime::ZERO, Action::Wake(pid));
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
        let key = core.queue.pop().expect("peeked event exists");
        core.free.push(key.slot);
        let action = core.actions[key.slot as usize].take();
        let action = action.expect("a queued event's slot holds its action");
        self.now.store(key.time.nanos(), Ordering::Relaxed);
        if matches!(&action, Action::Timer(guard, _) if guard.is_cancelled()) {
            self.cancelled.inc();
            // The closure is dropped with the lock released: what it owns
            // may reach back into the engine when it goes.
            drop(core);
            drop(action);
            return Some(Event {
                time: key.time,
                action: None,
            });
        }
        self.executed_by_class[action.class() as usize].inc();
        Some(Event {
            time: key.time,
            action: Some(action),
        })
    }

    /// Leave `msg` for the `run*` caller, which the turn goes back to.
    pub(crate) fn post(&self, msg: LoopMsg) {
        self.handoffs.inc();
        self.main.pass(msg);
    }

    /// The `run*` caller's context, for a process's final switch.
    pub(crate) fn main_ctx(&self) -> *const Context {
        &self.main.ctx
    }

    /// Suspend the running stack, whose context is `from`, and give the
    /// turn to `to`; returns when the turn comes back to `from`.
    pub(crate) fn hand_over(&self, from: &Context, to: &Handoff) {
        let to = match to {
            Handoff::Main => &self.main.ctx,
            Handoff::Proc(baton) => &baton.ctx,
        };
        // SAFETY: every stack but the running one is suspended in `switch`
        // or not yet started, and all belong to this thread (`Sim` and
        // `ProcessCtx` are neither `Send` nor `Sync`). The `run*` caller's
        // stack is suspended whenever a process runs; a process handed the
        // turn came from the table, which keeps its stack mapped until it
        // is reaped after its final switch; and the running stack never
        // hands the turn to itself.
        unsafe { coroutine::switch(from, to) }
    }

    /// From the `run*` caller: give the turn to `to` and wait for it to
    /// come back. Returns the message left for the caller, if any.
    pub(crate) fn turn_from_main(&self, to: Handoff) -> Option<LoopMsg> {
        self.hand_over(&self.main.ctx, &to);
        self.main.take()
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
    /// (only possible from a process racing teardown, which the
    /// termination protocol prevents for well-behaved processes).
    #[doc(hidden)]
    fn shared(&self) -> Arc<SimShared>;

    /// The shared engine state without a reference-count round trip, where
    /// the handle owns it (a [`Sim`]).
    #[doc(hidden)]
    fn shared_ref(&self) -> Option<&SimShared> {
        None
    }

    /// The current simulated time.
    fn now(&self) -> SimTime {
        match self.shared_ref() {
            Some(shared) => shared.now(),
            None => self.shared().now(),
        }
    }

    /// Schedule a boxed event at an absolute time (clamped to now).
    fn schedule_boxed(&self, at: SimTime, f: EventFn) {
        self.schedule_class(at, EventClass::Other, f);
    }

    /// Schedule a boxed event of class `class` at an absolute time
    /// (clamped to now).
    fn schedule_class(&self, at: SimTime, class: EventClass, f: EventFn) {
        schedule_on(self, at, SimTime::ZERO, Action::Call(class, f));
    }

    /// Schedule a timer at an absolute time (clamped to now) that does not
    /// run once `guard` is cancelled.
    fn schedule_timer(&self, at: SimTime, guard: TimerGuard, f: EventFn) {
        schedule_on(self, at, SimTime::ZERO, Action::Timer(guard, f));
    }

    /// Schedule the delivery of `frame` to `sink` at `at`, as of the instant
    /// `as_of` (clamped to `[now, at]`) it stands for: a frame booked onto a
    /// wire ahead of time sorts among the events of its delivery instant as
    /// if it had been sent at `as_of`.
    fn schedule_delivery(
        &self,
        at: SimTime,
        as_of: SimTime,
        sink: Arc<dyn FrameSink>,
        frame: Frame,
    ) {
        schedule_on(self, at, as_of, Action::Deliver(sink, frame));
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

fn schedule_on<S: SimAccess + ?Sized>(s: &S, at: SimTime, as_of: SimTime, action: Action) {
    match s.shared_ref() {
        Some(shared) => shared.schedule(at, as_of, action),
        None => s.shared().schedule(at, as_of, action),
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

    /// Schedule `f` as a timer event `after` from now.
    fn timer_after<F>(&self, after: SimDuration, f: F)
    where
        F: FnOnce(&Sim) + Send + 'static,
    {
        self.schedule_class(self.now() + after, EventClass::Timer, Box::new(f));
    }

    /// Schedule `f` as a timer event at the absolute instant `at` (clamped
    /// to now).
    fn timer_at<F>(&self, at: SimTime, f: F)
    where
        F: FnOnce(&Sim) + Send + 'static,
    {
        self.schedule_class(at, EventClass::Timer, Box::new(f));
    }

    /// Schedule `f` as a timer event `after` from now that does not run
    /// once `guard` is cancelled.
    fn guarded_timer_after<F>(&self, after: SimDuration, guard: TimerGuard, f: F)
    where
        F: FnOnce(&Sim) + Send + 'static,
    {
        self.schedule_timer(self.now() + after, guard, Box::new(f));
    }
}

impl<T: SimAccess + ?Sized> SimAccessExt for T {}

/// A discrete-event simulation.
///
/// `Sim` is deliberately **not** `Clone`: it is the unique strong owner of
/// the engine. Dropping it terminates all processes. Nor is it `Send`: its
/// processes' stacks run on the thread that created it, whose
/// thread-locals they may have cached.
///
/// ```compile_fail
/// fn on_another_thread<T: Send>(_: T) {}
/// on_another_thread(simnet::Sim::new());
/// ```
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
    /// False for the handle a process runs events with ([`Sim::view`]);
    /// dropping that one terminates nothing.
    owner: bool,
    _one_thread: PhantomData<*const ()>,
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
        let telemetry = emp_trace::telemetry::Registry::new();
        let shared = Arc::new(SimShared {
            now: AtomicU64::new(0),
            core: Mutex::new(SimCore {
                next_seq: 0,
                queue: BinaryHeap::new(),
                actions: Vec::new(),
                free: Vec::new(),
                deadline: SimTime::MAX,
                done: None,
                terminated: false,
            }),
            procs: Mutex::new(ProcTable::new()),
            main: Baton::new(),
            handoffs: telemetry.counter("simnet.thread_handoffs"),
            executed_by_class: EventClass::ALL
                .map(|class| telemetry.counter(&format!("simnet.events.{}", class.name()))),
            cancelled: telemetry.counter("simnet.events.cancelled"),
            tracer: emp_trace::Tracer::new(),
            telemetry,
        });
        Sim {
            shared,
            owner: true,
            _one_thread: PhantomData,
        }
    }

    /// The handle a process passes to the events it runs while it holds
    /// the turn.
    pub(crate) fn view(shared: Arc<SimShared>) -> Sim {
        Sim {
            shared,
            owner: false,
            _one_thread: PhantomData,
        }
    }

    /// Spawn a simulated process that starts at the current simulated time.
    ///
    /// The closure runs on a stack of its own, on the thread that runs the
    /// simulation, and only while that stack holds the turn: between two
    /// [`ProcessCtx`] blocking calls nothing else in the simulation
    /// executes, so it may freely manipulate shared component state. While
    /// the process is blocked its stack either runs the event loop itself or
    /// is suspended until its wake-up event is popped.
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

    /// Total number of events executed so far (the sum of the
    /// `simnet.events.<class>` counters).
    pub fn events_executed(&self) -> u64 {
        self.shared.executed_by_class.iter().map(|c| c.get()).sum()
    }

    /// Number of events currently queued.
    pub fn events_pending(&self) -> usize {
        self.shared.core.lock().queue.len()
    }

    /// How many times the turn has moved from one stack to another (to a
    /// process whose wake-up was popped, or back to the `run*` caller). A
    /// process woken by its own stack's loop costs none. Also the registry
    /// counter `simnet.thread_handoffs`.
    pub fn thread_handoffs(&self) -> u64 {
        self.shared.handoffs.get()
    }

    /// Drive the loop from the `run*` caller's stack, suspending it
    /// whenever a process has the turn, until a stop condition is met.
    fn run_loop(&self, deadline: SimTime, done: Option<Completion>) {
        {
            let mut core = self.shared.core.lock();
            core.deadline = deadline;
            core.done = done;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| self.pass_turns()));
        if !matches!(outcome, Ok(Ok(()))) {
            // Process code must not run while this thread unwinds: end the
            // parked processes first.
            self.terminate();
        }
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => panic!("simulated process failed: {msg}"),
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Run the loop on this stack and hand the turn to processes until the
    /// loop ends; `Err` is a process's failure text.
    fn pass_turns(&self) -> Result<(), String> {
        while let Some(next) = self.drive(None) {
            match self.shared.turn_from_main(next) {
                Some(LoopMsg::LoopEnded) => break,
                Some(LoopMsg::Exited(pid, result)) => {
                    self.shared.procs.lock().reap(pid);
                    result?;
                }
                Some(LoopMsg::EventPanic(payload)) => resume_unwind(payload),
                None => unreachable!("the turn came back without a message"),
            }
        }
        Ok(())
    }

    /// Pop and run events on the calling stack until the turn leaves it or
    /// the loop ends. `me` is the calling process, `None` for the `run*`
    /// caller. Returns `None` if the caller keeps the turn: its own wake-up
    /// was popped (process), or the loop ended (`run*` caller); otherwise
    /// whom it must hand the turn to.
    pub(crate) fn drive(&self, me: Option<ProcId>) -> Option<Handoff> {
        let shared = &self.shared;
        loop {
            // The loop ended: a process gives the turn back to the caller.
            let Some(ev) = shared.next_event() else {
                return me.map(|_| {
                    shared.post(LoopMsg::LoopEnded);
                    Handoff::Main
                });
            };
            let kept_turn = match ev.action {
                None => true,
                Some(Action::Call(_, f) | Action::Timer(_, f)) => self.run_event(me, f),
                Some(Action::Deliver(sink, frame)) => {
                    self.run_event(me, move |sim| sink.deliver(sim, frame))
                }
                // The caller's own wake-up; the sample this event is owed is
                // taken when the process next parks or exits.
                Some(Action::Wake(pid)) if me == Some(pid) => return None,
                Some(Action::Wake(pid)) => {
                    let baton = shared.procs.lock().baton(pid);
                    if let Some(baton) = baton {
                        shared.handoffs.inc();
                        baton.pass(Resume::Run);
                        return Some(Handoff::Proc(baton));
                    }
                    // Stale wake-up of a process that already exited.
                    true
                }
            };
            if !kept_turn {
                return Some(Handoff::Main);
            }
            shared.telemetry.maybe_sample(ev.time.nanos());
        }
    }

    /// Run one event on the turn holder's stack. On a process's stack (`me`
    /// is `Some`) a panicking event must not unwind into the parked
    /// process: it belongs to the `run*` caller, and `false` says the turn
    /// goes back to it.
    fn run_event(&self, me: Option<ProcId>, f: impl FnOnce(&Sim)) -> bool {
        if me.is_none() {
            f(self);
            return true;
        }
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(()) => true,
            Err(payload) => {
                self.shared.post(LoopMsg::EventPanic(payload));
                false
            }
        }
    }

    /// Stop the engine for good and terminate every live process.
    fn terminate(&self) {
        self.shared.core.lock().terminated = true;
        process::terminate_all(&self.shared);
    }
}

impl SimAccess for Sim {
    fn shared(&self) -> Arc<SimShared> {
        Arc::clone(&self.shared)
    }

    fn shared_ref(&self) -> Option<&SimShared> {
        Some(&self.shared)
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        if self.owner {
            self.terminate();
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

    #[test]
    fn cancelled_timers_are_popped_but_not_run() {
        let sim = Sim::new();
        let fired = Arc::new(AtomicU64::new(0));
        let guard = TimerGuard::new();
        for at in [100, 200] {
            let fired = Arc::clone(&fired);
            sim.schedule_timer(
                SimTime::from_nanos(at),
                guard.clone(),
                Box::new(move |_| {
                    fired.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        let g2 = guard.clone();
        sim.schedule_at(SimTime::from_nanos(50), move |_| g2.cancel());
        sim.run();
        assert_eq!(fired.load(Ordering::Relaxed), 0);
        assert_eq!(sim.now().nanos(), 200, "the clock still reaches them");
        assert_eq!(sim.events_executed(), 1);
        let counters = sim.telemetry().snapshot().counters;
        assert_eq!(counters["simnet.events.cancelled"], 2);
        assert_eq!(counters["simnet.events.timer"], 0);
    }

    #[test]
    fn executed_events_are_counted_by_class() {
        struct Null;
        impl FrameSink for Null {
            fn deliver(&self, _s: &dyn SimAccess, _frame: Frame) {}
        }
        let sim = Sim::new();
        let frame = Frame {
            src: crate::frame::MacAddr(0),
            dst: crate::frame::MacAddr(1),
            ethertype: crate::frame::EtherType::EMP,
            payload: crate::frame::Payload::new((), 4),
        };
        sim.schedule_delivery(SimTime::from_nanos(5), SimTime::ZERO, Arc::new(Null), frame);
        sim.timer_at(SimTime::from_nanos(6), |_| {});
        sim.schedule_class(SimTime::from_nanos(7), EventClass::Task, Box::new(|_| {}));
        sim.schedule_at(SimTime::from_nanos(8), |_| {});
        sim.spawn("p", |ctx| ctx.delay(SimDuration::from_nanos(10)));
        sim.run();
        let counters = sim.telemetry().snapshot().counters;
        let counts = EventClass::ALL.map(|c| counters[&format!("simnet.events.{}", c.name())]);
        // Two wakes: the spawn and the end of the delay.
        assert_eq!(counts, [2, 1, 1, 1, 1]);
        assert_eq!(counts.iter().sum::<u64>(), sim.events_executed());
        assert_eq!(counters["simnet.thread_handoffs"], sim.thread_handoffs());
    }

    #[test]
    fn ties_break_by_the_instant_an_event_stands_for() {
        // Two events for t = 100: one scheduled at t = 10 as of then, one
        // booked earlier (at t = 0) as of t = 20. The booked one runs
        // second, where an event scheduled at t = 20 would have.
        struct Log(Arc<Mutex<Vec<&'static str>>>);
        impl FrameSink for Log {
            fn deliver(&self, _s: &dyn SimAccess, _frame: Frame) {
                self.0.lock().push("booked");
            }
        }
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let frame = Frame {
            src: crate::frame::MacAddr(0),
            dst: crate::frame::MacAddr(1),
            ethertype: crate::frame::EtherType::EMP,
            payload: crate::frame::Payload::new((), 4),
        };
        let sink = Arc::new(Log(Arc::clone(&log)));
        sim.schedule_delivery(
            SimTime::from_nanos(100),
            SimTime::from_nanos(20),
            sink,
            frame,
        );
        let l2 = Arc::clone(&log);
        sim.schedule_at(SimTime::from_nanos(10), move |sim| {
            sim.schedule_at(SimTime::from_nanos(100), move |_| {
                l2.lock().push("ordinary")
            });
        });
        sim.run();
        assert_eq!(*log.lock(), ["ordinary", "booked"]);
    }
}

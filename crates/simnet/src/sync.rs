//! Synchronization primitives for simulated processes.
//!
//! These are the only legal ways (besides [`ProcessCtx::delay`]) for a
//! process to block, preserving the engine's 1:1 park/wake discipline:
//!
//! * [`Completion`] — one-shot broadcast ("this operation finished").
//! * [`SimCondvar`] — multi-shot condition variable; pair it with shared
//!   state and a re-check loop, exactly like a real condvar.
//! * [`SimQueue`] — FIFO queue with blocking pop (accept queues, mailboxes).
//!
//! All of them may be signalled from event context (`&Sim`) or from another
//! process (`&ProcessCtx`) via the common [`SimAccess`] bound.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::engine::{SimAccess, SimShared};
use crate::error::SimResult;
use crate::process::{ProcId, ProcessCtx};

/// A one-shot event: processes wait, anyone completes it exactly once.
///
/// A handle belongs to the thread of its simulation:
///
/// ```compile_fail
/// let done = simnet::Completion::new();
/// std::thread::spawn(move || done.is_done());
/// ```
#[derive(Clone, Default)]
pub struct Completion {
    inner: Rc<CompletionState>,
}

#[derive(Default)]
struct CompletionState {
    done: Cell<bool>,
    /// The status the completer reported ([`Completion::complete_with`]).
    outcome: Cell<u32>,
    /// The first waiter, in place: most completions have one, and it then
    /// costs no allocation.
    first: RefCell<Option<Waiter>>,
    /// Later waiters, in registration order.
    rest: RefCell<Vec<Waiter>>,
    /// Task wakers (async front end) fired alongside process wakes.
    wakers: RefCell<Vec<std::task::Waker>>,
}

/// A process waiting on a completion.
enum Waiter {
    /// Waiting on this completion alone ([`Completion::wait`]).
    Proc(ProcId),
    /// Waiting on several ([`wait_any`]) as its wait number `u64`: the
    /// first of them to fire claims the wait, which ensures the parked
    /// process receives one wake-up; the rest find it spent and skip it.
    Any(ProcId, u64),
}

impl Waiter {
    fn spent(&self, shared: &SimShared) -> bool {
        match *self {
            Waiter::Proc(_) => false,
            Waiter::Any(pid, wait) => !shared.procs.borrow().wait_is(pid, wait),
        }
    }

    /// The process to wake, unless another completion already did.
    fn claim(self, shared: &SimShared) -> Option<ProcId> {
        match self {
            Waiter::Proc(pid) => Some(pid),
            Waiter::Any(pid, wait) => shared.procs.borrow().claim_wait(pid, wait).then_some(pid),
        }
    }
}

impl Completion {
    /// A fresh, incomplete completion.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once [`Completion::complete`] has been called.
    pub fn is_done(&self) -> bool {
        self.inner.done.get()
    }

    /// Mark complete and wake all waiters. Subsequent calls are no-ops.
    pub fn complete(&self, s: &dyn SimAccess) {
        self.complete_with(s, 0);
    }

    /// The status the completer reported, once complete: `0` from
    /// [`Completion::complete`].
    pub fn outcome(&self) -> Option<u32> {
        self.is_done().then(|| self.inner.outcome.get())
    }

    /// [`Completion::complete`], reporting `outcome` to every holder, as
    /// an I/O completion carries its result. Subsequent calls are no-ops.
    pub fn complete_with(&self, s: &dyn SimAccess, outcome: u32) {
        if self.inner.done.replace(true) {
            return;
        }
        self.inner.outcome.set(outcome);
        let shared = s.shared();
        let now = shared.now();
        let first = self.inner.first.take();
        for waiter in first.into_iter().chain(self.inner.rest.take()) {
            if let Some(pid) = waiter.claim(&shared) {
                shared.schedule_wake(pid, now);
            }
        }
        // Task wakers fire after process wakes, in registration order — a
        // fixed sequence, so the executor's ready queue stays deterministic.
        for waker in self.inner.wakers.take() {
            waker.wake();
        }
    }

    fn register(&self, shared: &SimShared, waiter: Waiter) -> bool {
        if self.is_done() {
            return false;
        }
        // Prune waits claimed by other completions so long-lived
        // completions (e.g. a control channel polled by every read) stay
        // small.
        let mut first = self.inner.first.borrow_mut();
        if first.as_ref().is_some_and(|w| w.spent(shared)) {
            *first = None;
        }
        let mut rest = self.inner.rest.borrow_mut();
        rest.retain(|w| !w.spent(shared));
        if first.is_none() && rest.is_empty() {
            *first = Some(waiter);
        } else {
            rest.push(waiter);
        }
        true
    }

    /// Register a task waker to be fired (once) when this completion
    /// completes. Returns `false` — registering nothing — when already
    /// complete: the caller must treat that as "ready now" and re-check
    /// instead of sleeping, which closes the classic lost-wakeup race.
    ///
    /// Re-registering a waker that [`std::task::Waker::will_wake`] an
    /// already-stored one is a no-op, so a task polling the same
    /// long-lived completion many times costs one slot, not one per poll.
    pub fn watch_waker(&self, waker: &std::task::Waker) -> bool {
        if self.is_done() {
            return false;
        }
        let mut wakers = self.inner.wakers.borrow_mut();
        if !wakers.iter().any(|w| w.will_wake(waker)) {
            wakers.push(waker.clone());
        }
        true
    }

    /// Block the calling process until complete. Returns immediately if
    /// already complete; consumes no simulated time.
    pub fn wait(&self, ctx: &ProcessCtx) -> SimResult<()> {
        if self.register(&ctx.shared(), Waiter::Proc(ctx.pid())) {
            ctx.park()?;
            debug_assert!(self.is_done(), "completion waiter woken before completion");
        }
        Ok(())
    }
}

/// Block until any of `completions` is done; returns the index of the
/// first done one (ties broken by position). Completions the process
/// remains registered with after waking cannot re-wake it: wake-up rights
/// are mediated by a one-shot guard.
pub fn wait_any(ctx: &ProcessCtx, completions: &[&Completion]) -> SimResult<usize> {
    assert!(!completions.is_empty(), "wait_any on an empty set");
    loop {
        if let Some(idx) = completions.iter().position(|c| c.is_done()) {
            return Ok(idx);
        }
        // None is done, and nothing runs before the park: every
        // registration takes.
        let shared = ctx.shared();
        let wait = shared.procs.borrow().begin_wait(ctx.pid());
        for c in completions {
            c.register(&shared, Waiter::Any(ctx.pid(), wait));
        }
        ctx.park()?;
    }
}

/// A condition variable for simulated processes.
///
/// Usage mirrors a classic condvar: share state in a `Cell` or `RefCell`,
/// and in the waiter loop re-check the predicate after every wake (wakes
/// can be spurious when several processes contend):
///
/// ```
/// use simnet::{Sim, SimCondvar, SimAccess};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let sim = Sim::new();
/// let ready = Rc::new(Cell::new(false));
/// let cv = SimCondvar::new();
///
/// let (r2, cv2) = (Rc::clone(&ready), cv.clone());
/// sim.spawn("consumer", move |ctx| {
///     while !r2.get() {
///         cv2.wait(ctx)?;
///     }
///     Ok(())
/// });
/// let (r3, cv3) = (ready, cv);
/// sim.spawn("producer", move |ctx| {
///     ctx.delay(simnet::SimDuration::from_micros(1))?;
///     r3.set(true);
///     cv3.notify_all(ctx);
///     Ok(())
/// });
/// sim.run();
/// ```
///
/// Never hold a borrow of the state across `wait` — check, drop the
/// borrow, wait, re-check (nothing runs between the predicate check and
/// the park).
#[derive(Clone, Default)]
pub struct SimCondvar {
    waiters: Rc<RefCell<CondvarWaiters>>,
}

#[derive(Default)]
struct CondvarWaiters {
    pids: Vec<ProcId>,
    wakers: Vec<std::task::Waker>,
}

impl SimCondvar {
    /// A condvar with no waiters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wake every currently waiting process.
    pub fn notify_all(&self, s: &dyn SimAccess) {
        let (mut waiters, wakers) = {
            let mut st = self.waiters.borrow_mut();
            if st.pids.is_empty() && st.wakers.is_empty() {
                return;
            }
            (std::mem::take(&mut st.pids), std::mem::take(&mut st.wakers))
        };
        let shared = s.shared();
        let now = shared.now();
        for pid in waiters.drain(..) {
            shared.schedule_wake(pid, now);
        }
        // Keep the emptied list for the next waiters: a condvar waited on
        // in a loop allocates once.
        {
            let mut st = self.waiters.borrow_mut();
            if st.pids.is_empty() {
                st.pids = waiters;
            }
        }
        for waker in wakers {
            waker.wake();
        }
    }

    /// Register a task waker for the *next* `notify_all` (multi-shot: the
    /// registration is consumed by each notify, so a task that wants the
    /// one after must re-register — exactly the condvar re-check loop, in
    /// future form). Wakes may be spurious; always re-check the predicate.
    pub fn watch_waker(&self, waker: &std::task::Waker) {
        let mut st = self.waiters.borrow_mut();
        if !st.wakers.iter().any(|w| w.will_wake(waker)) {
            st.wakers.push(waker.clone());
        }
    }

    /// Block until the next `notify_all`. Always re-check the guarded
    /// predicate in a loop around this call.
    pub fn wait(&self, ctx: &ProcessCtx) -> SimResult<()> {
        self.waiters.borrow_mut().pids.push(ctx.pid());
        ctx.park()
    }
}

/// An unbounded FIFO queue with blocking pop.
#[derive(Clone)]
pub struct SimQueue<T> {
    inner: Rc<RefCell<QueueState<T>>>,
}

struct QueueState<T> {
    items: VecDeque<T>,
    waiters: VecDeque<ProcId>,
}

impl<T> Default for SimQueue<T> {
    fn default() -> Self {
        SimQueue {
            inner: Rc::new(RefCell::new(QueueState {
                items: VecDeque::new(),
                waiters: VecDeque::new(),
            })),
        }
    }
}

impl<T> SimQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an item and wake the longest-waiting popper, if any.
    pub fn push(&self, s: &dyn SimAccess, item: T) {
        let waiter = {
            let mut st = self.inner.borrow_mut();
            st.items.push_back(item);
            st.waiters.pop_front()
        };
        if let Some(pid) = waiter {
            let shared = s.shared();
            let now = shared.now();
            shared.schedule_wake(pid, now);
        }
    }

    /// Remove the head item, blocking while the queue is empty.
    pub fn pop(&self, ctx: &ProcessCtx) -> SimResult<T> {
        loop {
            {
                let mut st = self.inner.borrow_mut();
                if let Some(item) = st.items.pop_front() {
                    return Ok(item);
                }
                st.waiters.push_back(ctx.pid());
            }
            ctx.park()?;
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        self.inner.borrow_mut().items.pop_front()
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.inner.borrow().items.len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Sim, SimAccessExt};
    use crate::time::{SimDuration, SimTime};
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn completion_wakes_waiter_at_completion_time() {
        let sim = Sim::new();
        let done = Completion::new();
        let woke_at = Arc::new(Mutex::new(None));
        let (d2, w2) = (done.clone(), Arc::clone(&woke_at));
        sim.spawn("waiter", move |ctx| {
            d2.wait(ctx)?;
            *w2.lock() = Some(ctx.now().nanos());
            Ok(())
        });
        let d3 = done.clone();
        sim.schedule_at(SimTime::from_nanos(42), move |sim| d3.complete(sim));
        sim.run();
        assert_eq!(*woke_at.lock(), Some(42));
        assert!(done.is_done());
    }

    #[test]
    fn wait_on_done_completion_returns_immediately() {
        let sim = Sim::new();
        let done = Completion::new();
        let d2 = done.clone();
        sim.spawn("completer-then-waiter", move |ctx| {
            d2.complete(ctx);
            d2.wait(ctx)?; // must not block
            assert_eq!(ctx.now(), SimTime::ZERO);
            Ok(())
        });
        sim.run();
    }

    #[test]
    fn completion_wakes_all_waiters() {
        let sim = Sim::new();
        let done = Completion::new();
        let count = Arc::new(Mutex::new(0u32));
        for i in 0..5 {
            let (d, c) = (done.clone(), Arc::clone(&count));
            sim.spawn(format!("w{i}"), move |ctx| {
                d.wait(ctx)?;
                *c.lock() += 1;
                Ok(())
            });
        }
        let d = done.clone();
        sim.schedule_at(SimTime::from_nanos(10), move |sim| d.complete(sim));
        sim.run();
        assert_eq!(*count.lock(), 5);
    }

    #[test]
    fn queue_delivers_in_fifo_order_and_blocks() {
        let sim = Sim::new();
        let q: SimQueue<u32> = SimQueue::new();
        let got = Arc::new(Mutex::new(Vec::new()));
        let (q2, g2) = (q.clone(), Arc::clone(&got));
        sim.spawn("popper", move |ctx| {
            for _ in 0..3 {
                let v = q2.pop(ctx)?;
                g2.lock().push((v, ctx.now().nanos()));
            }
            Ok(())
        });
        let q3 = q.clone();
        sim.spawn("pusher", move |ctx| {
            for v in 1..=3u32 {
                ctx.delay(SimDuration::from_nanos(100))?;
                q3.push(ctx, v);
            }
            Ok(())
        });
        sim.run();
        assert_eq!(*got.lock(), vec![(1, 100), (2, 200), (3, 300)]);
    }

    #[test]
    fn queue_try_pop_and_len() {
        let sim = Sim::new();
        let q: SimQueue<&'static str> = SimQueue::new();
        let q2 = q.clone();
        sim.spawn("p", move |ctx| {
            q2.push(ctx, "a");
            q2.push(ctx, "b");
            assert_eq!(q2.len(), 2);
            assert_eq!(q2.try_pop(), Some("a"));
            assert_eq!(q2.try_pop(), Some("b"));
            assert_eq!(q2.try_pop(), None);
            assert!(q2.is_empty());
            Ok(())
        });
        sim.run();
    }

    #[test]
    fn wait_any_returns_first_completed() {
        let sim = Sim::new();
        let (a, b, c) = (Completion::new(), Completion::new(), Completion::new());
        let got = Arc::new(Mutex::new(Vec::new()));
        let (a2, b2, c2, g2) = (a.clone(), b.clone(), c.clone(), Arc::clone(&got));
        sim.spawn("waiter", move |ctx| {
            let idx = crate::sync::wait_any(ctx, &[&a2, &b2, &c2])?;
            g2.lock().push((idx, ctx.now().nanos()));
            // b fired; now also wait for c — the stale registration with a
            // must not produce a spurious wake.
            c2.wait(ctx)?;
            g2.lock().push((99, ctx.now().nanos()));
            // Park once more via a delay; a's later completion must not
            // break this sleep.
            ctx.delay(SimDuration::from_nanos(500))?;
            g2.lock().push((100, ctx.now().nanos()));
            Ok(())
        });
        let b3 = b.clone();
        sim.schedule_at(SimTime::from_nanos(10), move |s| b3.complete(s));
        let c3 = c.clone();
        sim.schedule_at(SimTime::from_nanos(20), move |s| c3.complete(s));
        let a3 = a.clone();
        sim.schedule_at(SimTime::from_nanos(25), move |s| a3.complete(s));
        sim.run();
        assert_eq!(*got.lock(), vec![(1, 10), (99, 20), (100, 520)]);
    }

    #[test]
    fn wait_any_with_already_done_completion_is_immediate() {
        let sim = Sim::new();
        let (a, b) = (Completion::new(), Completion::new());
        let b2 = b.clone();
        sim.spawn("p", move |ctx| {
            b2.complete(ctx);
            let idx = crate::sync::wait_any(ctx, &[&a, &b2])?;
            assert_eq!(idx, 1);
            assert_eq!(ctx.now(), SimTime::ZERO);
            Ok(())
        });
        sim.run();
    }

    #[test]
    fn condvar_wakes_all_and_recheck_loops_work() {
        let sim = Sim::new();
        let state = Arc::new(Mutex::new(0u32));
        let cv = SimCondvar::new();
        let finished = Arc::new(Mutex::new(Vec::new()));
        // Two waiters with different thresholds; both must eventually pass.
        for threshold in [1u32, 2u32] {
            let (st, cv2, fin) = (Arc::clone(&state), cv.clone(), Arc::clone(&finished));
            sim.spawn(format!("waiter-{threshold}"), move |ctx| {
                while *st.lock() < threshold {
                    cv2.wait(ctx)?;
                }
                fin.lock().push((threshold, ctx.now().nanos()));
                Ok(())
            });
        }
        let (st, cv3) = (Arc::clone(&state), cv.clone());
        sim.spawn("setter", move |ctx| {
            for _ in 0..2 {
                ctx.delay(SimDuration::from_nanos(10))?;
                *st.lock() += 1;
                cv3.notify_all(ctx);
            }
            Ok(())
        });
        sim.run();
        assert_eq!(*finished.lock(), vec![(1, 10), (2, 20)]);
    }

    /// Waker counting its `wake` calls, for watch_waker tests.
    struct CountWaker(std::sync::atomic::AtomicUsize);

    impl CountWaker {
        fn pair() -> (Arc<Self>, std::task::Waker) {
            let w = Arc::new(CountWaker(std::sync::atomic::AtomicUsize::new(0)));
            let waker = std::task::Waker::from(Arc::clone(&w));
            (w, waker)
        }

        fn count(&self) -> usize {
            self.0.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl std::task::Wake for CountWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn completion_watch_waker_fires_once_and_dedupes() {
        let sim = Sim::new();
        let done = Completion::new();
        let (count, waker) = CountWaker::pair();
        // Registering the same task twice stores one slot.
        assert!(done.watch_waker(&waker));
        assert!(done.watch_waker(&waker.clone()));
        let d = done.clone();
        sim.schedule_at(SimTime::from_nanos(5), move |s| {
            d.complete(s);
            d.complete(s); // second complete must not re-fire wakers
        });
        sim.run();
        assert_eq!(count.count(), 1);
        // Registration after completion reports "ready now".
        let (late, late_waker) = CountWaker::pair();
        assert!(!done.watch_waker(&late_waker));
        assert_eq!(late.count(), 0);
    }

    #[test]
    fn condvar_watch_waker_is_consumed_per_notify() {
        let sim = Sim::new();
        let cv = SimCondvar::new();
        let (count, waker) = CountWaker::pair();
        cv.watch_waker(&waker);
        cv.watch_waker(&waker); // deduped
        let cv2 = cv.clone();
        let w2 = waker.clone();
        sim.schedule_at(SimTime::from_nanos(5), move |s| {
            cv2.notify_all(s); // fires the registration once
            cv2.notify_all(s); // nothing registered: no extra wake
            cv2.watch_waker(&w2); // re-arm, multi-shot
            cv2.notify_all(s);
        });
        sim.run();
        assert_eq!(count.count(), 2);
    }
}

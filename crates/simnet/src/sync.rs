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

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::SimAccess;
use crate::error::SimResult;
use crate::process::{ProcId, ProcessCtx};

/// Guard ensuring a parked process receives at most one wake-up even when
/// registered with several completions (`wait_any`). The first completion
/// to fire claims the guard; the rest see it spent and skip the wake.
struct WaitGuard {
    pid: ProcId,
    woken: std::sync::atomic::AtomicBool,
}

impl WaitGuard {
    fn new(pid: ProcId) -> Arc<Self> {
        Arc::new(WaitGuard {
            pid,
            woken: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Claim the guard; true exactly once.
    fn claim(&self) -> bool {
        !self.woken.swap(true, std::sync::atomic::Ordering::Relaxed)
    }

    fn spent(&self) -> bool {
        self.woken.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A one-shot event: processes wait, anyone completes it exactly once.
#[derive(Clone, Default)]
pub struct Completion {
    inner: Arc<Mutex<CompletionState>>,
}

#[derive(Default)]
struct CompletionState {
    done: bool,
    waiters: Vec<Arc<WaitGuard>>,
    /// Task wakers (async front end) fired alongside process wakes.
    wakers: Vec<std::task::Waker>,
}

impl Completion {
    /// A fresh, incomplete completion.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once [`Completion::complete`] has been called.
    pub fn is_done(&self) -> bool {
        self.inner.lock().done
    }

    /// Mark complete and wake all waiters. Subsequent calls are no-ops.
    pub fn complete(&self, s: &dyn SimAccess) {
        let (waiters, wakers) = {
            let mut st = self.inner.lock();
            if st.done {
                return;
            }
            st.done = true;
            (
                std::mem::take(&mut st.waiters),
                std::mem::take(&mut st.wakers),
            )
        };
        let shared = s.shared();
        let now = shared.now();
        for guard in waiters {
            if guard.claim() {
                shared.schedule_wake(guard.pid, now);
            }
        }
        // Task wakers fire after process wakes, in registration order — a
        // fixed sequence, so the executor's ready queue stays deterministic.
        for waker in wakers {
            waker.wake();
        }
    }

    fn register(&self, guard: &Arc<WaitGuard>) -> bool {
        let mut st = self.inner.lock();
        if st.done {
            return false;
        }
        // Prune guards spent by other completions so long-lived completions
        // (e.g. a control channel polled by every read) stay small.
        st.waiters.retain(|w| !w.spent());
        st.waiters.push(Arc::clone(guard));
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
        let mut st = self.inner.lock();
        if st.done {
            return false;
        }
        if !st.wakers.iter().any(|w| w.will_wake(waker)) {
            st.wakers.push(waker.clone());
        }
        true
    }

    /// Block the calling process until complete. Returns immediately if
    /// already complete; consumes no simulated time.
    pub fn wait(&self, ctx: &ProcessCtx) -> SimResult<()> {
        let guard = WaitGuard::new(ctx.pid());
        if self.register(&guard) {
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
        let guard = WaitGuard::new(ctx.pid());
        let mut registered_any = false;
        let mut fired = false;
        for c in completions {
            if !c.register(&guard) {
                // Completed during registration — impossible under strict
                // alternation, but handle it defensively: claim our own
                // guard so a racing complete() cannot double-wake.
                fired = true;
                break;
            }
            registered_any = true;
        }
        if fired {
            if guard.claim() {
                // Nobody woke us; loop to pick the completed index.
                continue;
            }
            // A completion claimed the guard: a wake event is scheduled
            // for us, so we must park to consume it.
            ctx.park()?;
            continue;
        }
        debug_assert!(registered_any);
        ctx.park()?;
    }
}

/// A condition variable for simulated processes.
///
/// Usage mirrors a classic condvar: guard shared state with a
/// [`parking_lot::Mutex`], and in the waiter loop re-check the predicate
/// after every wake (wakes can be spurious when several processes contend):
///
/// ```
/// use simnet::{Sim, SimCondvar, SimAccess};
/// use parking_lot::Mutex;
/// use std::sync::Arc;
///
/// let sim = Sim::new();
/// let ready = Arc::new(Mutex::new(false));
/// let cv = SimCondvar::new();
///
/// let (r2, cv2) = (Arc::clone(&ready), cv.clone());
/// sim.spawn("consumer", move |ctx| {
///     while !*r2.lock() {
///         cv2.wait(ctx)?;
///     }
///     Ok(())
/// });
/// let (r3, cv3) = (ready, cv);
/// sim.spawn("producer", move |ctx| {
///     ctx.delay(simnet::SimDuration::from_micros(1))?;
///     *r3.lock() = true;
///     cv3.notify_all(ctx);
///     Ok(())
/// });
/// sim.run();
/// ```
///
/// Never hold the state mutex across `wait` — check, drop the guard, wait,
/// re-check (the strict-alternation engine makes the unlocked window safe:
/// nothing runs between the predicate check and the park).
#[derive(Clone, Default)]
pub struct SimCondvar {
    waiters: Arc<Mutex<CondvarWaiters>>,
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
        let (waiters, wakers) = {
            let mut st = self.waiters.lock();
            (std::mem::take(&mut st.pids), std::mem::take(&mut st.wakers))
        };
        let shared = s.shared();
        let now = shared.now();
        for pid in waiters {
            shared.schedule_wake(pid, now);
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
        let mut st = self.waiters.lock();
        if !st.wakers.iter().any(|w| w.will_wake(waker)) {
            st.wakers.push(waker.clone());
        }
    }

    /// Block until the next `notify_all`. Always re-check the guarded
    /// predicate in a loop around this call.
    pub fn wait(&self, ctx: &ProcessCtx) -> SimResult<()> {
        self.waiters.lock().pids.push(ctx.pid());
        ctx.park()
    }
}

/// An unbounded FIFO queue with blocking pop.
#[derive(Clone)]
pub struct SimQueue<T> {
    inner: Arc<Mutex<QueueState<T>>>,
}

struct QueueState<T> {
    items: VecDeque<T>,
    waiters: VecDeque<ProcId>,
}

impl<T> Default for SimQueue<T> {
    fn default() -> Self {
        SimQueue {
            inner: Arc::new(Mutex::new(QueueState {
                items: VecDeque::new(),
                waiters: VecDeque::new(),
            })),
        }
    }
}

impl<T: Send> SimQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an item and wake the longest-waiting popper, if any.
    pub fn push(&self, s: &dyn SimAccess, item: T) {
        let waiter = {
            let mut st = self.inner.lock();
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
                let mut st = self.inner.lock();
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
        self.inner.lock().items.pop_front()
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
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

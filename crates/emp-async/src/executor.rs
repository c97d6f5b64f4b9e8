//! The executor: task storage, wakers, the doorbell park loop, and the
//! scoped process-context needed by leaf futures.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::thread::ThreadId;

use simnet::emp_trace::telemetry::Gauge;
use simnet::emp_trace::Counter;
use simnet::engine::SimShared;
use simnet::process::with_task_slot;
use simnet::{Completion, ProcessCtx, SimAccess, SimResult};

type TaskId = usize;

/// Engine handle for a waker, which fires from simulation code that already
/// holds the engine but has no `&Sim` or `&ProcessCtx` to pass on.
struct EngineRef(Rc<SimShared>);

impl SimAccess for EngineRef {
    fn shared(&self) -> Rc<SimShared> {
        Rc::clone(&self.0)
    }
}

thread_local! {
    /// This thread's live executors, by key: a waker finds its own here.
    static EXECUTORS: RefCell<HashMap<u64, Weak<Inner>>> = RefCell::new(HashMap::new());
    static NEXT_KEY: Cell<u64> = const { Cell::new(0) };
}

/// One task's waker target: plain data, as `Waker`'s `Send + Sync`
/// contract demands. A wake from another thread than the executor's, or
/// after the executor is gone (its simulation dropped, say), is a no-op.
struct TaskWaker {
    thread: ThreadId,
    /// The executor's key in its thread's `EXECUTORS`.
    exec: u64,
    task: TaskId,
}

impl std::task::Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if std::thread::current().id() != self.thread {
            return;
        }
        let exec = EXECUTORS
            .try_with(|e| e.borrow().get(&self.exec).and_then(Weak::upgrade))
            .ok()
            .flatten();
        if let Some(exec) = exec {
            exec.enqueue(self.task);
        }
    }
}

#[derive(Default)]
struct ReadyQueue {
    q: VecDeque<TaskId>,
    queued: HashSet<TaskId>,
}

struct Task {
    fut: Pin<Box<dyn Future<Output = ()>>>,
    /// One waker per task for its whole life, so `Waker::will_wake`
    /// dedups repeated registrations on long-lived completions.
    waker: Waker,
}

struct Inner {
    /// This executor's key in `EXECUTORS`.
    key: u64,
    tasks: RefCell<BTreeMap<TaskId, Task>>,
    next: Cell<TaskId>,
    /// Tasks woken but not yet polled — FIFO in wake order, deduplicated.
    /// Wake order is itself deterministic (wakes happen inside engine
    /// events), so this queue *is* the schedule.
    ready: RefCell<ReadyQueue>,
    /// The completion the executor parks on; replaced before every park.
    doorbell: RefCell<Completion>,
    /// The engine the doorbell rings in; set by [`LocalExecutor::run`].
    sim: RefCell<Weak<SimShared>>,
    /// `exec.wakes` — every waker fire, including coalesced ones.
    wakes: RefCell<Option<Rc<Counter>>>,
    /// `exec.tasks_live`, once `run` has a registry.
    tasks_live: RefCell<Option<Rc<Gauge>>>,
}

impl Inner {
    /// Mark `task` ready and ring the doorbell. Callable from anywhere —
    /// waker context, spawn, the executor's own process.
    fn enqueue(&self, task: TaskId) {
        {
            let mut r = self.ready.borrow_mut();
            if r.queued.insert(task) {
                r.q.push_back(task);
            }
        }
        if let Some(c) = self.wakes.borrow().as_ref() {
            c.inc();
        }
        let bell = self.doorbell.borrow().clone();
        let sim = self.sim.borrow().upgrade();
        if let Some(sim) = sim {
            bell.complete(&EngineRef(sim));
        }
    }

    fn pop_ready(&self) -> Option<TaskId> {
        let mut r = self.ready.borrow_mut();
        let id = r.q.pop_front()?;
        r.queued.remove(&id);
        Some(id)
    }

    fn has_ready(&self) -> bool {
        !self.ready.borrow().q.is_empty()
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Fails only while the thread itself is torn down.
        let _ = EXECUTORS.try_with(|e| e.borrow_mut().remove(&self.key));
    }
}

/// A single-threaded executor owned by one simulated process. Tasks are
/// `!Send` futures; everything runs on the owning process's stack in
/// deterministic wake order.
pub struct LocalExecutor {
    inner: Rc<Inner>,
}

impl Default for LocalExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalExecutor {
    /// A fresh executor with no tasks.
    pub fn new() -> Self {
        let key = NEXT_KEY.with(|k| k.replace(k.get() + 1));
        let inner = Rc::new(Inner {
            key,
            tasks: RefCell::new(BTreeMap::new()),
            next: Cell::new(0),
            ready: RefCell::new(ReadyQueue::default()),
            doorbell: RefCell::new(Completion::new()),
            sim: RefCell::new(Weak::new()),
            wakes: RefCell::new(None),
            tasks_live: RefCell::new(None),
        });
        EXECUTORS.with(|e| e.borrow_mut().insert(key, Rc::downgrade(&inner)));
        LocalExecutor { inner }
    }

    /// A cloneable handle for spawning from inside tasks.
    pub fn spawner(&self) -> Spawner {
        Spawner {
            inner: Rc::clone(&self.inner),
        }
    }

    /// Spawn a task; it is polled first during [`LocalExecutor::run`].
    /// The [`JoinHandle`] resolves to the task's output (awaiting it is
    /// optional — detached tasks run to completion regardless).
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.spawner().spawn(fut)
    }

    /// Drive every task to completion. Parks on the doorbell whenever no
    /// task is ready; wakers fired by simulation events un-park it. This
    /// is the executor's event loop — one call serves the process's whole
    /// async lifetime.
    pub fn run(&self, ctx: &ProcessCtx) -> SimResult<()> {
        let inner = &self.inner;
        *inner.sim.borrow_mut() = Rc::downgrade(&SimAccess::shared(ctx));
        let reg = ctx.telemetry();
        *inner.wakes.borrow_mut() = Some(reg.counter("exec.wakes"));
        let tasks_live = reg.gauge("exec.tasks_live");
        tasks_live.set(inner.tasks.borrow().len() as i64);
        *inner.tasks_live.borrow_mut() = Some(tasks_live);
        // Task polls per executor wake-up: the batch-size distribution —
        // 1 means a wake-per-poll regime, large values mean one event
        // readied many tasks.
        let poll_spins = reg.histogram("exec.poll_spins");
        loop {
            let mut spins: u64 = 0;
            while let Some(id) = inner.pop_ready() {
                spins += 1;
                self.poll_task(ctx, id);
            }
            if spins > 0 {
                poll_spins.record(spins);
            }
            if inner.tasks.borrow().is_empty() {
                return Ok(());
            }
            // Install a fresh doorbell *before* the final ready re-check:
            // any wake after the check completes the new doorbell, so the
            // park below cannot sleep through it (and under strict
            // alternation nothing even runs in between).
            let bell = Completion::new();
            *inner.doorbell.borrow_mut() = bell.clone();
            if inner.has_ready() {
                continue;
            }
            bell.wait(ctx)?;
        }
    }

    fn poll_task(&self, ctx: &ProcessCtx, id: TaskId) {
        // A stale wake for a finished task: nothing to do.
        let Some(mut task) = self.inner.tasks.borrow_mut().remove(&id) else {
            return;
        };
        let waker = task.waker.clone();
        let mut cx = Context::from_waker(&waker);
        let poll = {
            let _scope = CtxScope::enter(ctx);
            task.fut.as_mut().poll(&mut cx)
        };
        match poll {
            Poll::Pending => {
                self.inner.tasks.borrow_mut().insert(id, task);
            }
            Poll::Ready(()) => {
                // Drop the future with the context still installed so
                // drop-guards (cancellation) can reach the stack.
                let _scope = CtxScope::enter(ctx);
                drop(task);
                if let Some(g) = self.inner.tasks_live.borrow().as_ref() {
                    g.sub(1);
                }
            }
        }
    }
}

/// Spawns tasks onto a [`LocalExecutor`] from inside its tasks. `!Send`,
/// like everything task-side.
#[derive(Clone)]
pub struct Spawner {
    inner: Rc<Inner>,
}

impl Spawner {
    /// See [`LocalExecutor::spawn`].
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            waiter: None,
        }));
        let st = Rc::clone(&state);
        let wrapped = async move {
            let out = fut.await;
            let waiter = {
                let mut s = st.borrow_mut();
                s.result = Some(out);
                s.waiter.take()
            };
            if let Some(w) = waiter {
                w.wake();
            }
        };
        let id = self.inner.next.get();
        self.inner.next.set(id + 1);
        let waker = Waker::from(Arc::new(TaskWaker {
            thread: std::thread::current().id(),
            exec: self.inner.key,
            task: id,
        }));
        self.inner.tasks.borrow_mut().insert(
            id,
            Task {
                fut: Box::pin(wrapped),
                waker,
            },
        );
        if let Some(g) = self.inner.tasks_live.borrow().as_ref() {
            g.add(1);
        }
        self.inner.enqueue(id);
        JoinHandle { state }
    }
}

/// Extension for spawning when only a `&LocalExecutor` or `&Spawner` is
/// in scope generically.
pub trait SpawnHandleExt {
    /// Spawn `fut` onto the underlying executor.
    fn spawn_task<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static;
}

impl SpawnHandleExt for LocalExecutor {
    fn spawn_task<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.spawn(fut)
    }
}

impl SpawnHandleExt for Spawner {
    fn spawn_task<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.spawn(fut)
    }
}

struct JoinState<T> {
    result: Option<T>,
    waiter: Option<Waker>,
}

/// Awaits a spawned task's output. Dropping the handle detaches the task
/// (it still runs); it does not cancel it.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Take the output if the task has finished (useful after
    /// [`LocalExecutor::run`] returns, outside async context).
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        match st.result.take() {
            Some(v) => Poll::Ready(v),
            None => {
                st.waiter = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// Create an executor, spawn `fut` as its only root task, and run the
/// executor to completion — the async `main` for one simulated process.
pub fn block_on<T, F>(ctx: &ProcessCtx, fut: F) -> SimResult<T>
where
    T: 'static,
    F: Future<Output = T> + 'static,
{
    let ex = LocalExecutor::new();
    let handle = ex.spawn(fut);
    ex.run(ctx)?;
    Ok(handle.try_take().expect("run drained every task"))
}

/// Installs a `&ProcessCtx` for the duration of one task poll (or drop) in
/// the process's task slot ([`simnet::process::with_task_slot`]), restoring
/// the previous value on exit. The slot is saved with its process whenever
/// it parks, so with several executors in one simulation a poll that parks
/// still finds its own context when it resumes.
struct CtxScope {
    prev: *const (),
}

impl CtxScope {
    fn enter(ctx: &ProcessCtx) -> CtxScope {
        let prev = with_task_slot(|c| c.replace((ctx as *const ProcessCtx).cast()));
        CtxScope { prev }
    }
}

impl Drop for CtxScope {
    fn drop(&mut self) {
        with_task_slot(|c| c.set(self.prev));
    }
}

/// The process context of the enclosing executor — how leaf futures reach
/// the stack's nonblocking calls from inside `Future::poll`. Panics
/// outside a task poll; use [`try_with_ctx`] from drop guards that may
/// run after the executor is gone.
pub fn with_ctx<R>(f: impl FnOnce(&ProcessCtx) -> R) -> R {
    try_with_ctx(f).expect("with_ctx outside an executor task")
}

/// [`with_ctx`], returning `None` when no executor of this process is
/// polling (e.g. a future dropped with its executor after `run`).
pub fn try_with_ctx<R>(f: impl FnOnce(&ProcessCtx) -> R) -> Option<R> {
    let p = with_task_slot(|c| c.get()).cast::<ProcessCtx>();
    if p.is_null() {
        return None;
    }
    // SAFETY: `p` was installed by `CtxScope::enter` from a live
    // `&ProcessCtx` borrowed for the whole poll/drop call this closure
    // runs inside, in this same process's slot, and is cleared when that
    // scope unwinds — so the reference is valid for the duration of `f`.
    Some(f(unsafe { &*p }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sleep, wait_for, yield_now};
    use parking_lot::Mutex;
    use simnet::{Sim, SimAccessExt, SimDuration, SimTime};

    #[test]
    fn block_on_returns_root_value() {
        let sim = Sim::new();
        let out = Arc::new(Mutex::new(0u32));
        let o2 = Arc::clone(&out);
        sim.spawn("main", move |ctx| {
            let v = block_on(ctx, async { 6 * 7 })?;
            *o2.lock() = v;
            Ok(())
        });
        sim.run();
        assert_eq!(*out.lock(), 42);
    }

    #[test]
    fn two_processes_whose_polls_park_each_see_their_own_ctx() {
        let sim = Sim::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        for step in [3u64, 5] {
            let seen = Arc::clone(&seen);
            sim.spawn(format!("every-{step}ns"), move |ctx| {
                let me = ctx.pid();
                block_on(ctx, async move {
                    for _ in 0..20 {
                        // Parks inside the poll; the other process polls
                        // (and parks) before this one resumes.
                        with_ctx(|c| c.delay(SimDuration::from_nanos(step)))
                            .expect("the simulation outlives the test");
                        seen.lock().push((me, with_ctx(|c| c.pid())));
                    }
                })
            });
        }
        sim.run();
        let seen = seen.lock();
        assert_eq!(seen.len(), 40);
        for &(me, saw) in seen.iter() {
            assert_eq!(saw, me, "process {me} saw process {saw}'s context");
        }
    }

    #[test]
    fn a_process_spawned_while_another_parks_in_a_poll_starts_with_no_ctx() {
        let sim = Sim::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        sim.spawn("parker", move |ctx| {
            // The event fires while this poll is parked, on this stack,
            // and the new process's first wake-up is popped here too.
            ctx.schedule_after(SimDuration::from_nanos(5), move |sim| {
                sim.spawn("late", move |ctx| {
                    let me = ctx.pid();
                    let before = try_with_ctx(|c| c.pid());
                    let inside = block_on(ctx, async { with_ctx(|c| c.pid()) })?;
                    let after = try_with_ctx(|c| c.pid());
                    seen2.lock().push((me, before, inside, after));
                    Ok(())
                });
            });
            block_on(ctx, async {
                with_ctx(|c| c.delay(SimDuration::from_nanos(10)))
                    .expect("the simulation outlives the test");
            })
        });
        sim.run();
        let seen = seen.lock();
        let &[(me, before, inside, after)] = &seen[..] else {
            panic!("the late process ran {} times", seen.len());
        };
        assert_eq!(before, None, "a new process saw another's context");
        assert_eq!(inside, me);
        assert_eq!(after, None, "block_on restored another's context");
    }

    #[test]
    fn tasks_interleave_and_join() {
        let sim = Sim::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o2 = Arc::clone(&order);
        sim.spawn("main", move |ctx| {
            let ex = LocalExecutor::new();
            let spawner = ex.spawner();
            let (oa, ob) = (Arc::clone(&o2), Arc::clone(&o2));
            let handle = ex.spawn(async move {
                oa.lock().push("a1");
                yield_now().await;
                oa.lock().push("a2");
                17u32
            });
            ex.spawn(async move {
                ob.lock().push("b1");
                let got = handle.await;
                ob.lock().push("b2");
                assert_eq!(got, 17);
            });
            // A late spawn from inside a task also runs.
            let o3 = Arc::clone(&o2);
            ex.spawn(async move {
                spawner
                    .spawn(async move {
                        o3.lock().push("c");
                    })
                    .await;
            });
            ex.run(ctx)
        });
        sim.run();
        assert_eq!(*order.lock(), vec!["a1", "b1", "a2", "c", "b2"]);
    }

    #[test]
    fn sim_events_wake_parked_executor() {
        let sim = Sim::new();
        let done = Completion::new();
        let woke_at = Arc::new(Mutex::new(None));
        let (d2, w2) = (done.clone(), Arc::clone(&woke_at));
        sim.spawn("main", move |ctx| {
            block_on(ctx, async move {
                wait_for(&d2).await;
                *w2.lock() = Some(with_ctx(|ctx| ctx.now()));
            })
        });
        let d3 = done.clone();
        sim.schedule_at(SimTime::from_nanos(250), move |s| d3.complete(s));
        sim.run();
        assert_eq!(*woke_at.lock(), Some(SimTime::from_nanos(250)));
    }

    #[test]
    fn sleeps_run_in_deadline_order_regardless_of_spawn_order() {
        let sim = Sim::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o2 = Arc::clone(&order);
        sim.spawn("main", move |ctx| {
            let ex = LocalExecutor::new();
            for (tag, ns) in [("slow", 300u64), ("fast", 100), ("mid", 200)] {
                let o = Arc::clone(&o2);
                ex.spawn(async move {
                    sleep(SimDuration::from_nanos(ns)).await;
                    o.lock().push((tag, with_ctx(|c| c.now().nanos())));
                });
            }
            ex.run(ctx)
        });
        sim.run();
        assert_eq!(
            *order.lock(),
            vec![("fast", 100), ("mid", 200), ("slow", 300)]
        );
    }

    #[test]
    fn spawn_blocking_round_trips_through_a_helper_process() {
        let sim = Sim::new();
        let got = Arc::new(Mutex::new(None));
        let g2 = Arc::clone(&got);
        sim.spawn("main", move |ctx| {
            block_on(ctx, async move {
                let v = crate::spawn_blocking("helper", |helper| {
                    helper.delay(SimDuration::from_nanos(40))?;
                    Ok(99u64)
                })
                .await
                .expect("helper ran");
                *g2.lock() = Some((v, with_ctx(|c| c.now().nanos())));
            })
        });
        sim.run();
        assert_eq!(*got.lock(), Some((99, 40)));
    }

    #[test]
    fn executor_telemetry_registers_and_counts() {
        let sim = Sim::new();
        sim.spawn("main", move |ctx| {
            let reg = ctx.telemetry();
            block_on(ctx, async {
                sleep(SimDuration::from_nanos(10)).await;
            })?;
            assert!(reg.counter("exec.wakes").get() > 0);
            assert_eq!(reg.gauge("exec.tasks_live").get(), 0);
            Ok(())
        });
        sim.run();
    }

    /// Spawn a process whose one task registers its waker and stays
    /// pending until a second poll. Returns the waker's slot and the
    /// number of polls so far.
    #[allow(clippy::type_complexity)]
    fn park_a_task(sim: &Sim) -> (Arc<Mutex<Option<Waker>>>, Arc<Mutex<u32>>) {
        let (waker, polls) = (Arc::new(Mutex::new(None)), Arc::new(Mutex::new(0u32)));
        let (w2, p2) = (Arc::clone(&waker), Arc::clone(&polls));
        sim.spawn("parked", move |ctx| {
            block_on(ctx, async move {
                std::future::poll_fn(|cx| {
                    *w2.lock() = Some(cx.waker().clone());
                    let mut n = p2.lock();
                    *n += 1;
                    if *n == 1 {
                        Poll::Pending
                    } else {
                        Poll::Ready(())
                    }
                })
                .await
            })
        });
        sim.run();
        assert_eq!(*polls.lock(), 1, "nothing wakes the task");
        (waker, polls)
    }

    #[test]
    fn a_waker_woken_on_another_thread_is_a_no_op() {
        let sim = Sim::new();
        let (waker, polls) = park_a_task(&sim);
        let w = waker.lock().clone().expect("the task registered its waker");
        std::thread::spawn(move || w.wake())
            .join()
            .expect("a wake from another thread does not panic");
        sim.run();
        assert_eq!(*polls.lock(), 1, "the foreign wake polled the task");
        // The same waker, woken on the simulation's thread, does poll it.
        waker.lock().take().expect("still registered").wake();
        sim.run();
        assert_eq!(*polls.lock(), 2);
    }

    #[test]
    fn a_waker_woken_after_its_sim_was_dropped_is_a_no_op() {
        let sim = Sim::new();
        let (waker, polls) = park_a_task(&sim);
        let w = waker.lock().take().expect("the task registered its waker");
        drop(sim);
        w.wake();
        assert_eq!(*polls.lock(), 1);
    }
}

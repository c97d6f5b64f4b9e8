//! Simulated processes with blocking semantics, run as coroutines.
//!
//! Each simulated process runs on a stack of its own
//! (`coroutine.rs`) on the thread that called `Sim::run*`, and only
//! while it holds *the turn* (see [`crate::engine`]): exactly one stack
//! executes at any instant. This gives application code (ftp clients, web
//! servers, ...) natural blocking `read()`/`write()` style without an async
//! runtime, while keeping the whole simulation deterministic.
//!
//! A process that blocks keeps the turn: `ProcessCtx::park` runs the event
//! loop on the process's own stack. If the next wake-up popped is the
//! parker's own, `park` just returns; only a wake-up for *another* process
//! costs a switch, straight to that process's stack. Process code never
//! changes stacks; event closures run on whichever stack holds the turn.
//! Every stack belongs to the thread that created the [`Sim`], which is why
//! neither a `Sim` nor a `ProcessCtx` may move to another thread.
//!
//! The 1:1 park/wake discipline: a parked process has *exactly one* pending
//! wake-up — scheduled either by [`ProcessCtx::delay`] or by the sync
//! primitive it blocked on. Blocking primitives outside this crate must be
//! built from [`crate::sync`] types (or `delay`), never by scheduling raw
//! wakes, which is why `SimShared::schedule_wake` is crate-private. A
//! process that blocks by any other means (a channel, a lock held by a
//! parked process) blocks the `run*` caller's thread with it.

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::coroutine::{self, Context, Stack};
use crate::engine::{Sim, SimAccess, SimShared};
use crate::error::{SimError, SimResult};
use crate::time::SimDuration;

/// Identifier of a simulated process (index into the process table).
pub type ProcId = usize;

/// A stack's mailbox: where it resumes, and the message it finds there.
pub(crate) struct Baton<T> {
    pub(crate) ctx: Context,
    slot: Mutex<Option<T>>,
}

impl<T> Baton<T> {
    pub(crate) fn new() -> Self {
        Baton {
            ctx: Context::new(),
            slot: Mutex::new(None),
        }
    }

    /// Leave `msg` for the stack to find when it next resumes.
    pub(crate) fn pass(&self, msg: T) {
        *self.slot.lock() = Some(msg);
    }

    /// The message left for this stack, if any.
    pub(crate) fn take(&self) -> Option<T> {
        self.slot.lock().take()
    }
}

/// What a process finds in its baton when it resumes.
pub(crate) enum Resume {
    Run,
    Terminate,
}

/// Why a process gives the turn back to the `run*` caller.
pub(crate) enum LoopMsg {
    /// A stop condition of the current `run*` call was met.
    LoopEnded,
    /// The process function returned or panicked; `Err` is the failure text.
    Exited(ProcId, Result<(), String>),
    /// An event closure panicked on a process's stack; the payload to
    /// re-raise.
    EventPanic(Box<dyn Any + Send>),
}

/// Whom the turn goes to when its holder gives it up; the message it will
/// find is already in that stack's baton.
pub(crate) enum Handoff {
    /// The `run*` caller, with a [`LoopMsg`].
    Main,
    /// A process, with a [`Resume`].
    Proc(Arc<Baton<Resume>>),
}

struct ProcSlot {
    baton: Arc<Baton<Resume>>,
    /// `None` once the process exited.
    stack: Option<Stack>,
}

/// Handle given to a process closure; provides time, scheduling and the
/// blocking primitives.
pub struct ProcessCtx {
    shared: Weak<SimShared>,
    pid: ProcId,
    name: String,
    baton: Arc<Baton<Resume>>,
    /// Set once the process received [`Resume::Terminate`]: it stays
    /// terminated, whatever its cleanup code tries to block on.
    terminated: Cell<bool>,
    /// The process's stack lives on the thread that created its [`Sim`]:
    /// a `ProcessCtx` (or a reference to it) must not leave that thread.
    _one_thread: PhantomData<*const ()>,
}

impl SimAccess for ProcessCtx {
    fn shared(&self) -> Arc<SimShared> {
        self.shared
            .upgrade()
            .expect("simulation dropped while process was running")
    }
}

impl ProcessCtx {
    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// The name given at spawn time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Consume `d` of simulated time (models CPU work or an explicit sleep).
    pub fn delay(&self, d: SimDuration) -> SimResult<()> {
        let shared = self.shared();
        let at = shared.now() + d;
        shared.schedule_wake(self.pid, at);
        self.park()
    }

    /// Yield the CPU: re-run this process after all events already queued
    /// for the current instant.
    pub fn yield_now(&self) -> SimResult<()> {
        let shared = self.shared();
        let now = shared.now();
        shared.schedule_wake(self.pid, now);
        self.park()
    }

    /// Spawn a sibling process starting at the current simulated time.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&mut ProcessCtx) -> SimResult<()> + Send + 'static,
    {
        let shared = self.shared();
        let pid = ProcTable::spawn(&shared, name.into(), f);
        shared.schedule_wake(pid, shared.now());
        pid
    }

    /// Park this process. A wake-up must already be arranged (crate-internal;
    /// see module docs for the discipline). The process's stack runs the
    /// event loop until this process's wake-up is popped — by itself, or by
    /// the stack it handed the turn to.
    pub(crate) fn park(&self) -> SimResult<()> {
        if self.terminated.get() {
            return Err(SimError::Terminated);
        }
        let shared = self.shared.upgrade().ok_or(SimError::Terminated)?;
        // The sample the loop owes the wake event that resumed this process.
        shared.telemetry.maybe_sample(shared.now().nanos());
        let Some(next) = Sim::view(Arc::clone(&shared)).drive(Some(self.pid)) else {
            return Ok(());
        };
        shared.hand_over(&self.baton.ctx, &next);
        self.await_baton()
    }

    /// What the stack that handed this process the turn left it.
    fn await_baton(&self) -> SimResult<()> {
        match self.baton.take() {
            Some(Resume::Run) => Ok(()),
            Some(Resume::Terminate) => {
                self.terminated.set(true);
                Err(SimError::Terminated)
            }
            None => unreachable!("a process resumed without a message"),
        }
    }
}

/// Run `f` on the running process's *task slot*: one pointer that belongs
/// to the process and is kept with it across every park, as a thread-local
/// would be if each process had a thread of its own. A runtime layered on
/// processes keeps its per-process state here (`emp-async` keeps the
/// context of the task it is polling). Null until set; an event sees the
/// slot of the stack it runs on, and the `run*` caller has one of its own.
pub fn with_task_slot<R>(f: impl FnOnce(&Cell<*const ()>) -> R) -> R {
    coroutine::TASK_SLOT.with(f)
}

/// A process's code, as spawned.
type Body = Box<dyn FnOnce(&mut ProcessCtx) -> SimResult<()>>;

/// What a new process's stack starts from.
struct Start {
    ctx: ProcessCtx,
    f: Body,
}

impl Start {
    /// Wait for the first turn, run the body, and report its end to the
    /// `run*` caller. Returns the `run*` caller's context to switch to;
    /// everything this stack owned is dropped by then.
    fn run(self) -> *const Context {
        let Start { mut ctx, f } = self;
        // Terminate here means the simulation ended before this process ran.
        let result = ctx.await_baton().is_ok().then(|| {
            match catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
                Ok(Ok(())) | Ok(Err(SimError::Terminated)) => Ok(()),
                Ok(Err(e)) => Err(format!("process '{}': {e}", ctx.name)),
                // `&*payload`: deref the Box explicitly, otherwise the
                // Box itself coerces to `dyn Any` and downcasts fail.
                Err(payload) => Err(format!(
                    "process '{}' panicked: {}",
                    ctx.name,
                    panic_message(&*payload)
                )),
            }
        });
        let shared = ctx
            .shared
            .upgrade()
            .expect("the simulation outlives its processes");
        if let Some(result) = result {
            shared.telemetry.maybe_sample(shared.now().nanos());
            shared.post(LoopMsg::Exited(ctx.pid, result));
        }
        shared.main_ctx()
    }
}

/// The first frame of every process stack.
extern "C" fn process_main(start: *mut u8) -> ! {
    // SAFETY: `start` is the `Box<Start>` that `ProcTable::spawn` leaked
    // for this stack, and this frame, run once, is the only one to take it.
    let start = unsafe { Box::from_raw(start.cast::<Start>()) };
    // The slot still holds the value of the stack that switched here,
    // which that stack restores for itself when it resumes.
    coroutine::TASK_SLOT.set(std::ptr::null());
    let main = start.run();
    // SAFETY: `main` points into the `SimShared` that the `run*` caller's
    // `Sim` owns; that caller is suspended in `hand_over` (it resumed this
    // process or is waiting for it to finish), so both are alive. Nothing
    // on this stack needs dropping: the caller reaps it without resuming it.
    unsafe { coroutine::switch(&Context::new(), &*main) };
    unreachable!("a finished process was resumed");
}

/// Registry of all processes in a simulation.
pub(crate) struct ProcTable {
    slots: Vec<ProcSlot>,
    /// Stacks of exited processes, for the next spawns to reuse: mapping a
    /// fresh one costs three system calls, and a page fault for each page
    /// the process touches. There are never more than the most processes
    /// that were alive at once.
    spare: Vec<Stack>,
}

impl ProcTable {
    pub(crate) fn new() -> Self {
        ProcTable {
            slots: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Give the process a stack and register the slot. The new process
    /// does not run until its first wake event fires.
    pub(crate) fn spawn<F>(shared: &Arc<SimShared>, name: String, f: F) -> ProcId
    where
        F: FnOnce(&mut ProcessCtx) -> SimResult<()> + Send + 'static,
    {
        let baton = Arc::new(Baton::new());
        let mut table = shared.procs.lock();
        let stack = table.spare.pop().unwrap_or_else(Stack::new);
        let pid = table.slots.len();
        let start = Box::new(Start {
            ctx: ProcessCtx {
                shared: Arc::downgrade(shared),
                pid,
                name,
                baton: Arc::clone(&baton),
                terminated: Cell::new(false),
                _one_thread: PhantomData,
            },
            f: Box::new(f),
        });
        baton
            .ctx
            .start_on(&stack, process_main, Box::into_raw(start).cast());
        table.slots.push(ProcSlot {
            baton,
            stack: Some(stack),
        });
        pid
    }

    /// The baton of `pid`, or `None` if the process already exited.
    pub(crate) fn baton(&self, pid: ProcId) -> Option<Arc<Baton<Resume>>> {
        let slot = self.slots.get(pid)?;
        slot.stack.as_ref().map(|_| Arc::clone(&slot.baton))
    }

    /// Keep for reuse the stack of a process that made its final switch.
    pub(crate) fn reap(&mut self, pid: ProcId) {
        self.spare.extend(self.slots[pid].stack.take());
    }

    /// How many processes were ever spawned.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Terminate every live process: each runs on its stack until it returns,
/// its blocking calls failing with [`SimError::Terminated`]. Called by the
/// `run*` caller, after setting the engine's terminated flag, with the turn
/// in hand.
pub(crate) fn terminate_all(shared: &SimShared) {
    // By index: cleanup code may spawn; those processes end unstarted.
    let mut pid = 0;
    while pid < shared.procs.lock().len() {
        let baton = shared.procs.lock().baton(pid);
        if let Some(baton) = baton {
            baton.pass(Resume::Terminate);
            // The process's exit message, if it had started: nobody waits
            // for it now.
            let _ = shared.turn_from_main(Handoff::Proc(baton));
            shared.procs.lock().reap(pid);
        }
        pid += 1;
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Sim, SimAccessExt};
    use crate::sync::{Completion, SimQueue};
    use crate::time::SimTime;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

    #[test]
    fn delay_advances_process_time() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        sim.spawn("delayer", move |ctx| {
            for _ in 0..3 {
                ctx.delay(SimDuration::from_micros(10))?;
                log2.lock().push(ctx.now().nanos());
            }
            Ok(())
        });
        sim.run();
        assert_eq!(*log.lock(), vec![10_000, 20_000, 30_000]);
    }

    #[test]
    fn processes_interleave_deterministically() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (name, step) in [("a", 3u64), ("b", 5u64)] {
            let log = Arc::clone(&log);
            sim.spawn(name, move |ctx| {
                for _ in 0..4 {
                    ctx.delay(SimDuration::from_nanos(step))?;
                    log.lock().push((ctx.name().to_string(), ctx.now().nanos()));
                }
                Ok(())
            });
        }
        sim.run();
        let got: Vec<(String, u64)> = log.lock().clone();
        let expect: Vec<(String, u64)> = vec![
            ("a".into(), 3),
            ("b".into(), 5),
            ("a".into(), 6),
            ("a".into(), 9),
            ("b".into(), 10),
            ("a".into(), 12),
            ("b".into(), 15),
            ("b".into(), 20),
        ];
        assert_eq!(got, expect);
    }

    #[test]
    fn spawn_from_process_starts_at_current_time() {
        let sim = Sim::new();
        let seen = Arc::new(Mutex::new(None));
        let seen2 = Arc::clone(&seen);
        sim.spawn("parent", move |ctx| {
            ctx.delay(SimDuration::from_micros(7))?;
            let seen3 = Arc::clone(&seen2);
            ctx.spawn("child", move |ctx| {
                *seen3.lock() = Some(ctx.now().nanos());
                Ok(())
            });
            Ok(())
        });
        sim.run();
        assert_eq!(*seen.lock(), Some(7_000));
    }

    #[test]
    fn yield_now_runs_after_queued_events() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let log_p = Arc::clone(&log);
        let log_e = Arc::clone(&log);
        sim.spawn("yielder", move |ctx| {
            log_p.lock().push("proc-before");
            ctx.yield_now()?;
            log_p.lock().push("proc-after");
            Ok(())
        });
        sim.schedule_at(SimTime::ZERO, move |_| log_e.lock().push("event"));
        sim.run();
        assert_eq!(*log.lock(), vec!["proc-before", "event", "proc-after"]);
    }

    #[test]
    fn dropping_sim_terminates_parked_processes() {
        let sim = Sim::new();
        let cleanly_terminated = Arc::new(Mutex::new(false));
        let flag = Arc::clone(&cleanly_terminated);
        sim.spawn("sleeper", move |ctx| {
            // Park forever: the sim is dropped before this wake fires.
            let res = ctx.delay(SimDuration::from_secs(10_000));
            if res == Err(SimError::Terminated) {
                *flag.lock() = true;
            }
            res
        });
        sim.run_until(SimTime::from_nanos(1));
        drop(sim); // must not hang, must join the thread
        assert!(*cleanly_terminated.lock());
    }

    #[test]
    fn never_started_process_is_reclaimed() {
        let sim = Sim::new();
        sim.spawn("never-runs", |_ctx| Ok(()));
        drop(sim); // process never stepped; drop must still join it
    }

    #[test]
    #[should_panic(expected = "process 'bomber' panicked: boom")]
    fn process_panic_propagates_to_run() {
        let sim = Sim::new();
        sim.spawn("bomber", |_ctx| panic!("boom"));
        sim.run();
    }

    #[test]
    #[should_panic(expected = "process 'failer': application error: gave up")]
    fn process_app_error_propagates_to_run() {
        let sim = Sim::new();
        sim.spawn("failer", |_ctx| Err(SimError::app("gave up")));
        sim.run();
    }

    #[test]
    fn event_panic_on_a_process_thread_reaches_run_with_its_payload() {
        #[derive(Debug, PartialEq)]
        struct Boom(u32);
        const PARKED: u8 = 1;
        let sim = Sim::new();
        let state = Arc::new(AtomicU8::new(0));
        let seen_by_event = Arc::new(AtomicU8::new(0));
        let terminated = Arc::new(AtomicBool::new(false));
        let (state2, seen2, flag) = (
            Arc::clone(&state),
            Arc::clone(&seen_by_event),
            Arc::clone(&terminated),
        );
        sim.spawn("bystander", move |ctx| {
            let state3 = Arc::clone(&state2);
            // Popped by the bystander's own loop while it is parked below.
            ctx.schedule_after(SimDuration::from_nanos(5), move |_| {
                seen2.store(state3.load(Ordering::SeqCst), Ordering::SeqCst);
                std::panic::panic_any(Boom(7));
            });
            state2.store(PARKED, Ordering::SeqCst);
            let res = ctx.delay(SimDuration::from_nanos(10));
            state2.store(PARKED + 1, Ordering::SeqCst);
            flag.store(res == Err(SimError::Terminated), Ordering::SeqCst);
            res
        });
        let payload = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run must panic");
        assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(7)));
        assert_eq!(seen_by_event.load(Ordering::SeqCst), PARKED);
        // Terminated before `run` re-raised, not when the sim is dropped.
        assert!(terminated.load(Ordering::SeqCst));
    }

    #[test]
    fn every_process_and_event_runs_on_the_run_callers_thread() {
        let sim = Sim::new();
        let caller = std::thread::current().id();
        let seen = Arc::new(Mutex::new(Vec::new()));
        for i in 0..64u64 {
            let seen = Arc::clone(&seen);
            sim.spawn(format!("p{i}"), move |ctx| {
                seen.lock().push(std::thread::current().id());
                let seen2 = Arc::clone(&seen);
                ctx.schedule_after(SimDuration::from_nanos(i), move |_| {
                    seen2.lock().push(std::thread::current().id())
                });
                ctx.delay(SimDuration::from_nanos(64 - i))?;
                seen.lock().push(std::thread::current().id());
                Ok(())
            });
        }
        sim.run();
        let seen = seen.lock();
        assert_eq!(seen.len(), 3 * 64);
        assert!(seen.iter().all(|&id| id == caller));
    }

    /// MXCSR, through which a process may change the SSE rounding mode.
    fn mxcsr() -> u32 {
        let mut v = 0u32;
        // SAFETY: `stmxcsr` stores the 4-byte register at a valid `&mut u32`.
        unsafe { std::arch::asm!("stmxcsr [{}]", in(reg) &mut v, options(nostack)) };
        v
    }

    fn set_mxcsr(v: u32) {
        // SAFETY: `ldmxcsr` loads 4 bytes from a valid `&u32`; the value
        // keeps every exception masked, only the rounding bits change.
        unsafe { std::arch::asm!("ldmxcsr [{}]", in(reg) &v, options(nostack)) };
    }

    /// A process's accumulators after `steps` steps, with `park` between
    /// steps: integers a release build keeps in callee-saved registers
    /// across the call, and floats it spills.
    fn accumulate(
        p: u64,
        steps: u64,
        mut park: impl FnMut() -> SimResult<()>,
    ) -> SimResult<[u64; 4]> {
        let (mut a, mut b) = (p, p.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (mut x, mut y) = (p as f64, 1.0f64);
        for i in 0..steps {
            a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            b ^= a.rotate_left(7);
            x += i as f64 * 0.5;
            y = y * 1.000_001 + 2.0 / 3.0;
            park()?;
        }
        Ok([a, b, x.to_bits(), y.to_bits()])
    }

    #[test]
    fn parked_processes_keep_their_registers_and_rounding_mode() {
        const STEPS: u64 = 10_000;
        const ROUND_TOWARD_ZERO: u32 = 0x6000;
        let sim = Sim::new();
        let results = Arc::new(Mutex::new(Vec::new()));
        for p in 0..8u64 {
            let results = Arc::clone(&results);
            sim.spawn(format!("acc{p}"), move |ctx| {
                if p == 0 {
                    set_mxcsr(mxcsr() | ROUND_TOWARD_ZERO);
                }
                let acc = accumulate(p, STEPS, || ctx.delay(SimDuration::from_nanos(1 + p)))?;
                let tenth = std::hint::black_box(1.0f64) / std::hint::black_box(10.0f64);
                results.lock().push((p, acc, mxcsr(), tenth.to_bits()));
                Ok(())
            });
        }
        sim.run();
        let nearest = 0.1f64.to_bits();
        let results = results.lock();
        assert_eq!(results.len(), 8);
        for &(p, acc, csr, tenth) in results.iter() {
            if p == 0 {
                assert_eq!(csr & ROUND_TOWARD_ZERO, ROUND_TOWARD_ZERO);
                assert_eq!(tenth, nearest - 1, "process 0 rounds toward zero");
                continue;
            }
            let expect = accumulate(p, STEPS, || Ok(())).expect("no parks");
            assert_eq!(acc, expect, "process {p}'s accumulators");
            assert_eq!(csr, mxcsr(), "process {p}'s MXCSR");
            assert_eq!(tenth, nearest, "process {p} rounds to nearest");
        }
        // The `run` caller's own mode survived every switch.
        assert_eq!(mxcsr() & ROUND_TOWARD_ZERO, 0);
    }

    #[test]
    fn deadline_met_on_a_process_thread_stops_the_loop_and_a_second_run_resumes() {
        let sim = Sim::new();
        let hits = Arc::new(AtomicU64::new(0));
        for t in [10u64, 20, 30, 40] {
            let hits = Arc::clone(&hits);
            sim.schedule_at(SimTime::from_nanos(t), move |_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Parks at t=0 and from then on pops the events above itself.
        sim.spawn("driver", |ctx| ctx.delay(SimDuration::from_nanos(100)));
        let terminated = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&terminated);
        sim.spawn("sleeper", move |ctx| {
            let res = ctx.delay(SimDuration::from_secs(10_000));
            flag.store(res == Err(SimError::Terminated), Ordering::SeqCst);
            res
        });

        assert_eq!(sim.run_until(SimTime::from_nanos(25)).nanos(), 20);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        // Events at 30 and 40, the driver's wake at 100, the sleeper's.
        assert_eq!(sim.events_pending(), 4);
        assert_eq!(sim.events_executed(), 4);

        assert_eq!(sim.run_until(SimTime::from_nanos(35)).nanos(), 30);
        assert_eq!(sim.events_pending(), 3);
        assert_eq!(sim.run_until(SimTime::from_nanos(500)).nanos(), 100);
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        assert_eq!(sim.events_pending(), 1);
        drop(sim); // the sleeper, parked on its baton, must be joined
        assert!(terminated.load(Ordering::SeqCst));
    }

    #[test]
    fn run_until_complete_stops_at_the_event_where_a_process_fires_done() {
        let sim = Sim::new();
        let done = Completion::new();
        let done2 = done.clone();
        sim.spawn("finisher", move |ctx| {
            ctx.delay(SimDuration::from_nanos(10))?;
            done2.complete(ctx);
            ctx.delay(SimDuration::from_nanos(10))
        });
        let late = Arc::new(AtomicBool::new(false));
        let late2 = Arc::clone(&late);
        sim.schedule_at(SimTime::from_nanos(11), move |_| {
            late2.store(true, Ordering::SeqCst)
        });
        assert!(sim.run_until_complete(&done, SimTime::MAX));
        // The finisher's two wake-ups and nothing after them.
        assert_eq!(sim.events_executed(), 2);
        assert_eq!(sim.now().nanos(), 10);
        assert!(!late.load(Ordering::SeqCst));
        assert_eq!(sim.events_pending(), 2);
    }

    #[test]
    fn a_process_woken_by_its_own_thread_costs_no_handoff() {
        let sim = Sim::new();
        sim.spawn("delayer", |ctx| {
            for _ in 0..1_000 {
                ctx.delay(SimDuration::from_nanos(3))?;
            }
            Ok(())
        });
        sim.run();
        assert_eq!(sim.events_executed(), 1_001);
        // To the process at its first wake, back to `run` when it exits.
        assert_eq!(sim.thread_handoffs(), 2);
    }

    #[test]
    fn a_ping_pong_costs_at_most_one_handoff_per_wake() {
        let sim = Sim::new();
        let (ping, pong) = (Arc::new(SimQueue::new()), Arc::new(SimQueue::new()));
        let (ping2, pong2) = (Arc::clone(&ping), Arc::clone(&pong));
        sim.spawn("pinger", move |ctx| {
            for i in 0..100u32 {
                ping.push(ctx, i);
                assert_eq!(pong.pop(ctx)?, i);
            }
            Ok(())
        });
        sim.spawn("ponger", move |ctx| {
            for _ in 0..100 {
                let i = ping2.pop(ctx)?;
                pong2.push(ctx, i);
            }
            Ok(())
        });
        sim.run();
        // Every event here is a wake-up; the two exits hand back to `run`.
        assert!(sim.events_executed() >= 200);
        assert!(sim.thread_handoffs() <= sim.events_executed() + 2);
    }
}

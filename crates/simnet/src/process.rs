//! Thread-backed simulated processes with blocking semantics.
//!
//! Each simulated process runs on a dedicated OS thread, but only while
//! that thread holds *the turn* (see [`crate::engine`]): exactly one thread
//! executes at any instant. This gives application code (ftp clients, web
//! servers, ...) natural blocking `read()`/`write()` style without an async
//! runtime, while keeping the whole simulation deterministic.
//!
//! A process that blocks does not give its thread up: `ProcessCtx::park`
//! keeps running the event loop on it. If the next wake-up popped is the
//! parker's own, `park` just returns; only a wake-up for *another* process
//! costs a thread switch, one `Baton` passed directly to that thread.
//! Process code never changes threads; event closures (`Send`) may run on
//! any of them.
//!
//! The 1:1 park/wake discipline: a parked process has *exactly one* pending
//! wake-up — scheduled either by [`ProcessCtx::delay`] or by the sync
//! primitive it blocked on. Blocking primitives outside this crate must be
//! built from [`crate::sync`] types (or `delay`), never by scheduling raw
//! wakes, which is why `SimShared::schedule_wake` is crate-private.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::{Sim, SimAccess, SimShared};
use crate::error::{SimError, SimResult};
use crate::time::SimDuration;

/// Identifier of a simulated process (index into the process table).
pub type ProcId = usize;

/// How often the `run*` caller checks that the loop still makes progress
/// while a process thread holds the turn (see `Sim::await_turn`).
#[cfg(not(test))]
pub(crate) const HANDOFF_WATCHDOG: Duration = Duration::from_secs(30);
#[cfg(test)]
pub(crate) const HANDOFF_WATCHDOG: Duration = Duration::from_millis(500);

/// One-slot mailbox a thread sleeps on until another hands it the turn.
pub(crate) struct Baton<T> {
    slot: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> Baton<T> {
    pub(crate) fn new() -> Self {
        Baton {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    pub(crate) fn pass(&self, msg: T) {
        *self.slot.lock().expect("baton lock never poisons") = Some(msg);
        self.ready.notify_one();
    }

    fn take(&self) -> T {
        let slot = self.slot.lock().expect("baton lock never poisons");
        let mut slot = self
            .ready
            .wait_while(slot, |s| s.is_none())
            .expect("baton lock never poisons");
        slot.take().expect("waited until a message was there")
    }

    /// [`Baton::take`], giving up after `timeout`.
    pub(crate) fn take_timeout(&self, timeout: Duration) -> Option<T> {
        let slot = self.slot.lock().expect("baton lock never poisons");
        let (mut slot, _) = self
            .ready
            .wait_timeout_while(slot, timeout, |s| s.is_none())
            .expect("baton lock never poisons");
        slot.take()
    }
}

/// What a process thread finds in its baton.
pub(crate) enum Resume {
    Run,
    Terminate,
}

/// Why a process thread gives the turn back to the `run*` caller.
pub(crate) enum LoopMsg {
    /// A stop condition of the current `run*` call was met.
    LoopEnded,
    /// The process function returned or panicked; `Err` is the failure text.
    Exited(ProcId, Result<(), String>),
    /// An event closure panicked on a process thread; the payload to re-raise.
    EventPanic(Box<dyn Any + Send>),
}

struct ProcSlot {
    name: String,
    baton: Arc<Baton<Resume>>,
    join: Option<JoinHandle<()>>,
}

/// Handle given to a process closure; provides time, scheduling and the
/// blocking primitives.
pub struct ProcessCtx {
    shared: Weak<SimShared>,
    pid: ProcId,
    name: String,
    baton: Arc<Baton<Resume>>,
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
    /// see module docs for the discipline). The calling thread runs the event
    /// loop until this process's wake-up is popped — by itself, or by the
    /// thread it handed the turn to.
    pub(crate) fn park(&self) -> SimResult<()> {
        let shared = self.shared.upgrade().ok_or(SimError::Terminated)?;
        // The sample the loop owes the wake event that resumed this process.
        shared.telemetry.maybe_sample(shared.now().nanos());
        if Sim::view(shared).drive(Some(self.pid)) {
            return Ok(());
        }
        self.await_baton()
    }

    fn await_baton(&self) -> SimResult<()> {
        match self.baton.take() {
            Resume::Run => Ok(()),
            Resume::Terminate => {
                // Stay terminated: cleanup code may try to block again.
                self.baton.pass(Resume::Terminate);
                Err(SimError::Terminated)
            }
        }
    }
}

/// Registry of all processes in a simulation.
pub(crate) struct ProcTable {
    slots: Vec<ProcSlot>,
}

impl ProcTable {
    pub(crate) fn new() -> Self {
        ProcTable { slots: Vec::new() }
    }

    /// Spawn the backing thread and register the slot. The new process does
    /// not run until its first wake event fires.
    pub(crate) fn spawn<F>(shared: &Arc<SimShared>, name: String, f: F) -> ProcId
    where
        F: FnOnce(&mut ProcessCtx) -> SimResult<()> + Send + 'static,
    {
        let baton = Arc::new(Baton::new());
        let mut table = shared.procs.lock();
        let pid = table.slots.len();
        let mut ctx = ProcessCtx {
            shared: Arc::downgrade(shared),
            pid,
            name: name.clone(),
            baton: Arc::clone(&baton),
        };
        let join = std::thread::Builder::new()
            .name(format!("sim-proc-{pid}-{name}"))
            .spawn(move || {
                // Wait for the first wake; Terminate here means the sim was
                // dropped before this process ever ran.
                if ctx.await_baton().is_err() {
                    return;
                }
                let result = match catch_unwind(AssertUnwindSafe(|| (f)(&mut ctx))) {
                    Ok(Ok(())) | Ok(Err(SimError::Terminated)) => Ok(()),
                    Ok(Err(e)) => Err(format!("process '{}': {e}", ctx.name)),
                    // `&*payload`: deref the Box explicitly, otherwise the
                    // Box itself coerces to `dyn Any` and downcasts fail.
                    Err(payload) => Err(format!(
                        "process '{}' panicked: {}",
                        ctx.name,
                        panic_message(&*payload)
                    )),
                };
                // During teardown nobody listens; `terminate_all` joins us.
                if let Some(shared) = ctx.shared.upgrade() {
                    shared.telemetry.maybe_sample(shared.now().nanos());
                    shared.post(LoopMsg::Exited(pid, result));
                }
            })
            .expect("failed to spawn simulated-process thread");
        table.slots.push(ProcSlot {
            name,
            baton,
            join: Some(join),
        });
        pid
    }

    /// The baton of `pid`, or `None` if the process already exited.
    pub(crate) fn baton(&self, pid: ProcId) -> Option<Arc<Baton<Resume>>> {
        let slot = self.slots.get(pid)?;
        slot.join.is_some().then(|| Arc::clone(&slot.baton))
    }

    pub(crate) fn name(&self, pid: ProcId) -> String {
        self.slots[pid].name.clone()
    }

    /// Join the thread of a process that posted [`LoopMsg::Exited`].
    pub(crate) fn reap(&mut self, pid: ProcId) {
        if let Some(join) = self.slots[pid].join.take() {
            let _ = join.join();
        }
    }

    /// Terminate every live process and join its thread. Called from
    /// `Sim::drop`; afterwards the table is empty.
    pub(crate) fn terminate_all(&mut self) {
        for slot in self.slots.drain(..) {
            if let Some(join) = slot.join {
                // The thread sleeps on its baton (or will look at it the
                // next time it tries to block).
                slot.baton.pass(Resume::Terminate);
                let _ = join.join();
            }
        }
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
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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
        let sim = Sim::new();
        let ran_on_process_thread = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran_on_process_thread);
        sim.spawn("bystander", move |ctx| {
            let me = std::thread::current().id();
            ctx.schedule_after(SimDuration::from_nanos(5), move |_| {
                flag.store(std::thread::current().id() == me, Ordering::SeqCst);
                std::panic::panic_any(Boom(7));
            });
            ctx.delay(SimDuration::from_nanos(10))
        });
        let payload = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run must panic");
        assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(7)));
        assert!(ran_on_process_thread.load(Ordering::SeqCst));
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

    #[test]
    fn watchdog_names_the_process_blocked_outside_the_engine() {
        let sim = Sim::new();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        sim.spawn("stuck-on-a-channel", move |_ctx| {
            let _ = rx.recv(); // not one of the engine's blocking primitives
            Ok(())
        });
        let payload = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("watchdog fires");
        let msg = panic_message(&*payload);
        assert!(msg.contains("process 'stuck-on-a-channel'"), "{msg}");
        assert!(
            !msg.contains('\n') && !msg.contains("  "),
            "one line: {msg:?}"
        );
        tx.send(()).expect("process still waits"); // let `drop(sim)` join it
    }
}

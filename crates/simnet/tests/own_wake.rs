//! A process's own wake-up from `delay` or `yield_now` is taken in place
//! when it would be the next event popped (DESIGN §6). These cases hold
//! the schedule to what the queue's `(time, as_of, seq)` order decides, so
//! each passes whether a wake-up is queued or taken in place.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use simnet::{
    Completion, EtherType, Frame, FrameSink, MacAddr, Payload, Sim, SimAccess, SimAccessExt,
    SimDuration, SimError, SimTime,
};

type Log = Rc<RefCell<Vec<(&'static str, u64)>>>;

fn log_at(log: &Log, what: &'static str, s: &dyn SimAccess) {
    log.borrow_mut().push((what, s.now().nanos()));
}

struct LogSink(Log);

impl FrameSink for LogSink {
    fn deliver(&self, s: &dyn SimAccess, _frame: Frame) {
        log_at(&self.0, "delivery", s);
    }
}

fn frame() -> Frame {
    Frame {
        src: MacAddr(0),
        dst: MacAddr(1),
        ethertype: EtherType::EMP,
        payload: Payload::new((), 4),
    }
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

#[test]
fn an_event_scheduled_earlier_for_the_same_instant_runs_first() {
    let sim = Sim::new();
    let log: Log = Rc::default();
    // Scheduled at t = 0 for t = 10 µs: as of 0, before the wake-up the
    // process asks for at t = 5 µs, as of 5 µs.
    let l = Rc::clone(&log);
    sim.schedule_at(SimTime::from_micros(10), move |s| log_at(&l, "earlier", s));
    let l = Rc::clone(&log);
    sim.spawn("p", move |ctx| {
        ctx.delay(us(5))?;
        // Same instant, same as-of, scheduled before the wake-up: first.
        let l2 = Rc::clone(&l);
        ctx.schedule_at(SimTime::from_micros(10), move |s| log_at(&l2, "same", s));
        ctx.delay(us(5))?;
        log_at(&l, "woken", ctx);
        Ok(())
    });
    sim.run();
    assert_eq!(
        *log.borrow(),
        [("earlier", 10_000), ("same", 10_000), ("woken", 10_000)]
    );
}

#[test]
fn a_delivery_booked_as_of_a_later_instant_runs_after_the_wake_up() {
    let sim = Sim::new();
    let log: Log = Rc::default();
    // Booked at t = 0 for t = 10 µs as of 8 µs: it sorts after a wake-up
    // for 10 µs asked for at 5 µs, so the process takes that in place.
    sim.schedule_delivery(
        SimTime::from_micros(10),
        SimTime::from_micros(8),
        Rc::new(LogSink(Rc::clone(&log))),
        frame(),
    );
    let l = Rc::clone(&log);
    sim.spawn("p", move |ctx| {
        ctx.delay(us(5))?;
        ctx.delay(us(5))?;
        log_at(&l, "woken", ctx);
        Ok(())
    });
    sim.run();
    assert_eq!(*log.borrow(), [("woken", 10_000), ("delivery", 10_000)]);
    // Spawn wake-up, two delays and the delivery.
    assert_eq!(sim.events_executed(), 4);
}

#[test]
fn a_wake_up_past_the_deadline_ends_the_loop() {
    let sim = Sim::new();
    let woken = Rc::new(Cell::new(0));
    let w = Rc::clone(&woken);
    sim.spawn("p", move |ctx| {
        ctx.delay(us(5))?;
        w.set(ctx.now().nanos());
        ctx.delay(us(10))?;
        w.set(ctx.now().nanos());
        Ok(())
    });
    // The second wake-up (15 µs) lies past the deadline: the loop ends with
    // the clock at the last event it ran and the wake-up still queued.
    assert_eq!(sim.run_until(SimTime::from_micros(12)).nanos(), 5_000);
    assert_eq!(woken.get(), 5_000);
    assert_eq!(sim.events_pending(), 1);
    assert_eq!(sim.events_executed(), 2);
    sim.run();
    assert_eq!(woken.get(), 15_000);
    assert_eq!(sim.events_executed(), 3);
}

#[test]
fn a_completed_done_stops_the_loop_before_the_wake_up() {
    let sim = Sim::new();
    let done = Completion::new();
    let d = done.clone();
    let after = Rc::new(Cell::new(false));
    let a = Rc::clone(&after);
    sim.spawn("p", move |ctx| {
        ctx.delay(us(5))?;
        d.complete(ctx);
        ctx.delay(us(5))?;
        a.set(true);
        Ok(())
    });
    assert!(sim.run_until_complete(&done, SimTime::MAX));
    assert_eq!(sim.now().nanos(), 5_000);
    assert!(!after.get(), "the loop stopped at the completion");
    assert_eq!(sim.events_pending(), 1);
    sim.run();
    assert!(after.get());
    assert_eq!(sim.now().nanos(), 10_000);
}

#[test]
fn a_terminated_process_still_gets_terminated() {
    let sim = Sim::new();
    let seen = Rc::new(RefCell::new(Vec::new()));
    let s2 = Rc::clone(&seen);
    sim.spawn("p", move |ctx| {
        let first = ctx.delay(us(100));
        // Cleanup after termination: every further block fails too, with
        // nothing else queued that could hold it.
        let cleanup = ctx.delay(us(1));
        let yielded = ctx.yield_now();
        s2.borrow_mut().extend([first, cleanup, yielded]);
        Ok(())
    });
    sim.run_until(SimTime::from_micros(10));
    drop(sim);
    assert_eq!(
        *seen.borrow(),
        [
            Err(SimError::Terminated),
            Err(SimError::Terminated),
            Err(SimError::Terminated)
        ]
    );
}

#[test]
fn executed_events_and_handoffs_match_the_queued_schedule() {
    // Two processes whose delays interleave, one yielding, beside a
    // chain of plain events: the counts are those of the queued schedule.
    let sim = Sim::new();
    let log: Log = Rc::default();
    for (name, step, n) in [("a", 3, 6u64), ("b", 5, 4)] {
        let l = Rc::clone(&log);
        sim.spawn(name, move |ctx| {
            for _ in 0..n {
                ctx.delay(us(step))?;
                log_at(&l, name, ctx);
            }
            ctx.yield_now()?;
            Ok(())
        });
    }
    for t in [4u64, 9, 15] {
        let l = Rc::clone(&log);
        sim.schedule_at(SimTime::from_micros(t), move |s| log_at(&l, "event", s));
    }
    sim.run();
    let order: Vec<_> = log.borrow().iter().map(|&(w, t)| (w, t / 1000)).collect();
    assert_eq!(
        order,
        [
            ("a", 3),
            ("event", 4),
            ("b", 5),
            ("a", 6),
            ("event", 9),
            ("a", 9),
            ("b", 10),
            ("a", 12),
            ("event", 15),
            ("b", 15),
            ("a", 15),
            ("a", 18),
            ("b", 20),
        ]
    );
    // Wake-ups: two spawns, ten delays, two yields; plus three events.
    assert_eq!(sim.events_executed(), 17);
    let counters = sim.telemetry().snapshot().counters;
    assert_eq!(counters["simnet.events.wake"], 14);
    assert_eq!(sim.thread_handoffs(), 12);
}

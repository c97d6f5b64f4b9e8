//! A firmware CPU: a serial task executor with cost accounting.
//!
//! The Tigon2 carries two general-purpose embedded CPUs (~88 MHz MIPS
//! cores). EMP dedicates one to the transmit path and one to the receive
//! path. Each CPU executes firmware tasks strictly serially; per-task costs
//! are what ultimately bound EMP's small-message latency and large-message
//! bandwidth, so the model tracks busy time precisely: a task posted while
//! the CPU is busy starts when the CPU frees up. A task is booked — its
//! start and end fixed — when it is posted, but counts as busy time only
//! as its run elapses, so busy time never exceeds the clock.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use simnet::{EventClass, EventTarget, Sim, SimAccess, SimClock, SimDuration, SimTime};

struct CpuState {
    busy_until: SimTime,
    /// Busy time of booked runs that had ended when last settled.
    ran: SimDuration,
    /// Booked runs not yet settled as over: `(start, end)` in time order,
    /// back-to-back runs merged into one.
    booked: VecDeque<(SimTime, SimTime)>,
    tasks_run: u64,
    last_seen: SimTime,
    /// The clock of the simulation that booked the first task.
    clock: Option<SimClock>,
}

impl CpuState {
    /// Busy time elapsed by `now`: runs over by then move into `ran`, and
    /// the one under way, if any, counts what it has run so far.
    fn busy_at(&mut self, now: SimTime) -> SimDuration {
        while let Some(&(start, end)) = self.booked.front() {
            if end > now {
                return self.ran + now.since(start);
            }
            self.ran += end - start;
            self.booked.pop_front();
        }
        self.ran
    }

    /// Every booked run, elapsed or not.
    fn booked_total(&self) -> SimDuration {
        self.ran + self.booked.iter().map(|&(start, end)| end - start).sum()
    }
}

/// One embedded firmware CPU.
#[derive(Clone)]
pub struct FirmwareCpu {
    name: &'static str,
    node: u16,
    state: Rc<RefCell<CpuState>>,
}

impl FirmwareCpu {
    /// A fresh, idle CPU. `name` labels it in diagnostics ("tx", "rx").
    pub fn new(name: &'static str) -> Self {
        FirmwareCpu {
            name,
            node: simnet::emp_trace::NO_NODE,
            state: Rc::new(RefCell::new(CpuState {
                busy_until: SimTime::ZERO,
                ran: SimDuration::ZERO,
                booked: VecDeque::new(),
                tasks_run: 0,
                last_seen: SimTime::ZERO,
                clock: None,
            })),
        }
    }

    /// Tag trace events from this CPU with a station id (the NIC's MAC).
    pub fn with_node(mut self, node: u16) -> Self {
        self.node = node;
        self
    }

    /// Label given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Run a task costing `cost` CPU time, no earlier than `earliest`
    /// (models e.g. PCI posting latency before a command is visible).
    /// `f` executes when the task *completes*; the returned instant is that
    /// completion time.
    pub fn exec_at<F>(
        &self,
        s: &dyn SimAccess,
        earliest: SimTime,
        cost: SimDuration,
        f: F,
    ) -> SimTime
    where
        F: FnOnce(&Sim) + 'static,
    {
        let done = self.reserve(s, earliest, cost);
        s.schedule_class(done, EventClass::Task, Box::new(f));
        done
    }

    /// Run a task starting as soon as the CPU is free.
    pub fn exec<F>(&self, s: &dyn SimAccess, cost: SimDuration, f: F) -> SimTime
    where
        F: FnOnce(&Sim) + 'static,
    {
        self.exec_at(s, s.now(), cost, f)
    }

    /// Run a task starting as soon as the CPU is free whose end fires
    /// `target` with `slot`, where the target keeps the task's work (see
    /// [`EventTarget`]). Returns the completion instant.
    pub fn exec_fire(
        &self,
        s: &dyn SimAccess,
        cost: SimDuration,
        target: Rc<dyn EventTarget>,
        slot: u32,
    ) -> SimTime {
        self.exec_fire_at(s, s.now(), cost, target, slot)
    }

    /// [`FirmwareCpu::exec_fire`], starting no earlier than `earliest`.
    pub fn exec_fire_at(
        &self,
        s: &dyn SimAccess,
        earliest: SimTime,
        cost: SimDuration,
        target: Rc<dyn EventTarget>,
        slot: u32,
    ) -> SimTime {
        let done = self.reserve(s, earliest, cost);
        s.schedule_fire(done, EventClass::Task, target, slot);
        done
    }

    /// Book a task costing `cost`, starting as soon as the CPU is free,
    /// with no event at its end; returns its completion instant. The
    /// caller applies the task's effect now, as of that instant.
    pub fn book(&self, s: &dyn SimAccess, cost: SimDuration) -> SimTime {
        self.reserve(s, s.now(), cost)
    }

    /// Fix a task's start and end in the CPU's FIFO and account for it.
    fn reserve(&self, s: &dyn SimAccess, earliest: SimTime, cost: SimDuration) -> SimTime {
        let (start, done) = {
            let mut st = self.state.borrow_mut();
            let now = s.now();
            let start = earliest.max(st.busy_until).max(now);
            let done = start + cost;
            // Settle the runs already over, which keeps `booked` as short
            // as the CPU's backlog.
            st.busy_at(now);
            match st.booked.back_mut() {
                Some(run) if run.1 == start => run.1 = done,
                _ => st.booked.push_back((start, done)),
            }
            st.busy_until = done;
            st.tasks_run += 1;
            st.last_seen = st.last_seen.max(done);
            if st.clock.is_none() {
                st.clock = Some(s.clock());
                // First task: publish this CPU's task backlog (how far its
                // completion horizon runs ahead of sim time) as a sampled
                // series.
                let name = if self.node == simnet::emp_trace::NO_NODE {
                    format!("nicfw.{}.backlog_ns", self.name)
                } else {
                    format!("nicfw.n{}.{}.backlog_ns", self.node, self.name)
                };
                let state = Rc::downgrade(&self.state);
                s.telemetry().register_sampled(&name, move |t| {
                    let st = state.upgrade()?;
                    let g = st.try_borrow().ok()?;
                    Some(g.busy_until.nanos().saturating_sub(t) as i64)
                });
            }
            (start, done)
        };
        if simnet::emp_trace::ENABLED {
            s.tracer().emit(
                done.nanos(),
                self.node,
                simnet::emp_trace::NO_CONN,
                simnet::emp_trace::EventKind::FwTask,
                cost.nanos(),
                start.nanos(),
            );
        }
        done
    }

    /// Instant at which the CPU becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.state.borrow().busy_until
    }

    /// Total CPU time consumed by tasks so far: the elapsed part of every
    /// booked task, so never more than the sim time gone by. Once the CPU
    /// is idle (or the simulation is gone) this is the whole cost of every
    /// task booked.
    pub fn busy_total(&self) -> SimDuration {
        let mut st = self.state.borrow_mut();
        match st.clock.as_ref().and_then(SimClock::now) {
            Some(now) => st.busy_at(now),
            None => st.booked_total(),
        }
    }

    /// Number of tasks executed (scheduled) so far.
    pub fn tasks_run(&self) -> u64 {
        self.state.borrow().tasks_run
    }

    /// Fraction of time busy between t=0 and the last task completion.
    pub fn utilization(&self) -> f64 {
        let st = self.state.borrow();
        if st.last_seen == SimTime::ZERO {
            return 0.0;
        }
        st.booked_total().as_secs_f64() / st.last_seen.since(SimTime::ZERO).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use simnet::{SimAccessExt, SimTime};
    use std::sync::Arc;

    #[test]
    fn tasks_serialize_on_the_cpu() {
        let sim = Sim::new();
        let cpu = FirmwareCpu::new("tx");
        let done = Arc::new(Mutex::new(Vec::new()));
        let (cpu2, done2) = (cpu.clone(), Arc::clone(&done));
        sim.schedule_at(SimTime::ZERO, move |s| {
            for i in 0..3u32 {
                let d = Arc::clone(&done2);
                cpu2.exec(s, SimDuration::from_micros(5), move |sim| {
                    d.lock().push((i, sim.now().nanos()));
                });
            }
        });
        sim.run();
        assert_eq!(*done.lock(), vec![(0, 5_000), (1, 10_000), (2, 15_000)]);
        assert_eq!(cpu.tasks_run(), 3);
        assert_eq!(cpu.busy_total(), SimDuration::from_micros(15));
    }

    #[test]
    fn earliest_bound_is_respected() {
        let sim = Sim::new();
        let cpu = FirmwareCpu::new("rx");
        let at = Arc::new(Mutex::new(0u64));
        let (cpu2, at2) = (cpu.clone(), Arc::clone(&at));
        sim.schedule_at(SimTime::ZERO, move |s| {
            cpu2.exec_at(
                s,
                SimTime::from_nanos(1_000),
                SimDuration::from_nanos(500),
                move |sim| {
                    *at2.lock() = sim.now().nanos();
                },
            );
        });
        sim.run();
        assert_eq!(*at.lock(), 1_500);
    }

    #[test]
    fn idle_gaps_do_not_count_as_busy() {
        let sim = Sim::new();
        let cpu = FirmwareCpu::new("tx");
        let cpu2 = cpu.clone();
        sim.schedule_at(SimTime::ZERO, move |s| {
            cpu2.exec(s, SimDuration::from_micros(2), |_| {});
        });
        let cpu3 = cpu.clone();
        sim.schedule_at(SimTime::from_micros(10), move |s| {
            cpu3.exec(s, SimDuration::from_micros(2), |_| {});
        });
        sim.run();
        assert_eq!(cpu.busy_total(), SimDuration::from_micros(4));
        assert_eq!(cpu.busy_until(), SimTime::from_nanos(12_000));
        let u = cpu.utilization();
        assert!((u - 4.0 / 12.0).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn booked_work_counts_as_busy_only_as_it_runs() {
        let sim = Sim::new();
        let cpu = FirmwareCpu::new("rx");
        let cost = SimDuration::from_micros(4);
        let cpu2 = cpu.clone();
        sim.schedule_at(SimTime::ZERO, move |s| {
            cpu2.exec_at(s, SimTime::from_micros(10), cost, |_| {});
        });
        let reads = Arc::new(Mutex::new(Vec::new()));
        for at in [5, 12] {
            let (cpu, reads) = (cpu.clone(), Arc::clone(&reads));
            sim.schedule_at(SimTime::from_micros(at), move |_| {
                reads.lock().push(cpu.busy_total());
            });
        }
        sim.run();
        assert_eq!(
            *reads.lock(),
            vec![SimDuration::ZERO, SimDuration::from_micros(2)],
            "nothing before the task starts, half its cost midway"
        );
        assert_eq!(cpu.busy_total(), cost, "its full cost after it runs");
        assert_eq!(cpu.busy_until(), SimTime::from_micros(14));
    }

    #[test]
    fn a_booked_task_costs_what_an_executed_one_does() {
        // The same three tasks, once run as events and once only booked,
        // posted at the same instants: same completion instants, same busy
        // time as they run and once idle, and no event for the booked ones.
        fn drive(book: bool) -> (Vec<u64>, Vec<SimDuration>, u64) {
            let sim = Sim::new();
            let cpu = FirmwareCpu::new("tx");
            let dones = Arc::new(Mutex::new(Vec::new()));
            for (at, cost) in [(0, 3), (1, 4), (20, 2)] {
                let (cpu, dones) = (cpu.clone(), Arc::clone(&dones));
                sim.schedule_at(SimTime::from_micros(at), move |s| {
                    let cost = SimDuration::from_micros(cost);
                    let done = if book {
                        cpu.book(s, cost)
                    } else {
                        cpu.exec(s, cost, |_| {})
                    };
                    dones.lock().push(done.nanos());
                });
            }
            let reads = Arc::new(Mutex::new(Vec::new()));
            for at in [2, 5, 21, 30] {
                let (cpu, reads) = (cpu.clone(), Arc::clone(&reads));
                sim.schedule_at(SimTime::from_micros(at), move |_| {
                    reads.lock().push(cpu.busy_total());
                });
            }
            sim.run();
            let dones = dones.lock().clone();
            let reads = reads.lock().clone();
            (dones, reads, sim.events_executed())
        }
        let (booked, executed) = (drive(true), drive(false));
        assert_eq!(booked.0, [3_000, 7_000, 22_000]);
        assert_eq!(booked.0, executed.0, "completion instants");
        let us = SimDuration::from_micros;
        assert_eq!(booked.1, [us(2), us(5), us(8), us(9)]);
        assert_eq!(booked.1, executed.1, "busy time as the tasks run");
        assert_eq!(executed.2 - booked.2, 3, "one event per executed task");
    }
}

//! Property-based tests of the engine's core guarantees: event ordering,
//! determinism under arbitrary schedules, and the sync primitives'
//! invariants under randomized process interleavings.

use parking_lot::Mutex;
use proptest::prelude::*;
use simnet::{Sim, SimAccess, SimAccessExt, SimDuration, SimQueue, SimTime};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn events_always_execute_in_time_then_seq_order(
        times in prop::collection::vec(0u64..10_000, 1..200)
    ) {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (seq, &t) in times.iter().enumerate() {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(t), move |s| {
                log.lock().push((s.now().nanos(), seq));
            });
        }
        sim.run();
        let got = log.lock().clone();
        prop_assert_eq!(got.len(), times.len());
        // Non-decreasing times; equal times preserve scheduling order.
        for w in got.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "ties broken by scheduling order");
            }
        }
    }

    #[test]
    fn arbitrary_schedules_are_deterministic(
        times in prop::collection::vec(0u64..1_000, 1..100)
    ) {
        fn run(times: &[u64]) -> Vec<(u64, usize)> {
            let sim = Sim::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            for (seq, &t) in times.iter().enumerate() {
                let log = Arc::clone(&log);
                // Each event schedules a follow-up, exercising dynamic
                // insertion too.
                sim.schedule_at(SimTime::from_nanos(t), move |s| {
                    log.lock().push((s.now().nanos(), seq));
                    let log = Arc::clone(&log);
                    s.schedule_after(SimDuration::from_nanos(t % 7 + 1), move |s2| {
                        log.lock().push((s2.now().nanos(), seq + 10_000));
                    });
                });
            }
            sim.run();
            let v = log.lock().clone();
            v
        }
        prop_assert_eq!(run(&times), run(&times));
    }

    #[test]
    fn processes_with_random_delays_preserve_per_process_order(
        delays in prop::collection::vec(1u64..500, 2..40),
        nprocs in 2usize..5,
    ) {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for p in 0..nprocs {
            let log = Arc::clone(&log);
            let delays = delays.clone();
            sim.spawn(format!("p{p}"), move |ctx| {
                for (i, &d) in delays.iter().enumerate() {
                    ctx.delay(SimDuration::from_nanos(d + p as u64))?;
                    log.lock().push((p, i));
                }
                Ok(())
            });
        }
        sim.run();
        let got = log.lock().clone();
        prop_assert_eq!(got.len(), nprocs * delays.len());
        // Each process's entries appear in its own program order.
        for p in 0..nprocs {
            let seq: Vec<usize> = got.iter().filter(|(q, _)| *q == p).map(|(_, i)| *i).collect();
            let sorted: Vec<usize> = (0..delays.len()).collect();
            prop_assert_eq!(seq, sorted);
        }
    }

    #[test]
    fn queue_delivers_every_item_exactly_once(
        items in prop::collection::vec(any::<u32>(), 1..60),
        nconsumers in 1usize..4,
    ) {
        let sim = Sim::new();
        let q: SimQueue<u32> = SimQueue::new();
        let got = Arc::new(Mutex::new(Vec::new()));
        let n = items.len();
        // Consumers contend for items.
        let quota = n / nconsumers;
        let extra = n % nconsumers;
        for c in 0..nconsumers {
            let q = q.clone();
            let got = Arc::clone(&got);
            let take = quota + usize::from(c < extra);
            sim.spawn(format!("consumer{c}"), move |ctx| {
                for _ in 0..take {
                    let v = q.pop(ctx)?;
                    got.lock().push(v);
                }
                Ok(())
            });
        }
        let q2 = q.clone();
        let items2 = items.clone();
        sim.spawn("producer", move |ctx| {
            for (i, v) in items2.into_iter().enumerate() {
                ctx.delay(SimDuration::from_nanos((i as u64 % 5) + 1))?;
                q2.push(ctx, v);
            }
            Ok(())
        });
        sim.run();
        let mut got = got.lock().clone();
        let mut want = items.clone();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want, "every item exactly once");
        prop_assert!(q.is_empty());
    }
}

//! Failure injection: EMP's reliability machinery (cumulative acks with a
//! selective-ack bitmap, hole resends, RTT-measured timeout retransmission
//! with backoff) under sustained frame loss on the wire. The paper's fabric is lossless; these tests exist
//! because a reliable protocol must prove itself on a lossy one.

use bytes::Bytes;
use emp_proto::{build_cluster, EmpConfig, Tag};
use hostsim::VirtRange;
use parking_lot::Mutex;
use simnet::{Completion, FaultPlan, LinkConfig, Sim, SimDuration, SwitchConfig};
use std::sync::Arc;
use tigon_nic::{NicConfig, NicFaultPlan};

fn faulty_switch(faults: FaultPlan) -> SwitchConfig {
    SwitchConfig {
        link: LinkConfig {
            faults,
            ..LinkConfig::default()
        },
        ..SwitchConfig::default()
    }
}

fn lossy_switch(drop_every: u64) -> SwitchConfig {
    faulty_switch(FaultPlan::drop_every(drop_every))
}

fn buf(slot: u64, len: usize) -> VirtRange {
    VirtRange::new(0x5_0000_0000 + slot * 0x100_0000, len.max(1) as u64)
}

#[test]
fn small_messages_survive_loss() {
    let sim = Sim::new();
    // Every 2nd frame corrupted on every link: brutal, but EMP must win.
    let cl = build_cluster(2, EmpConfig::default(), lossy_switch(2));
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let dst = b.addr();
    let done = Completion::new();
    let done2 = done.clone();
    const COUNT: usize = 20;

    let b2 = b.clone();
    sim.spawn("receiver", move |ctx| {
        for i in 0..COUNT {
            let h = b2.post_recv(ctx, Tag(1), None, 64, buf(1, 64))?;
            let msg = b2.wait_recv(ctx, &h)?.expect("delivered despite loss");
            assert_eq!(&msg.data[..], format!("msg-{i:04}").as_bytes());
        }
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        ctx.delay(SimDuration::from_micros(10))?;
        for i in 0..COUNT {
            let h = a.post_send(
                ctx,
                dst,
                Tag(1),
                Bytes::from(format!("msg-{i:04}").into_bytes()),
                buf(0, 8),
            )?;
            assert!(a.wait_send(ctx, &h)?, "must eventually be acknowledged");
        }
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
    assert!(
        cl.nodes[0].nic.stats().frames_retransmitted > 0,
        "50% loss must force retransmissions"
    );
}

#[test]
fn large_message_reassembles_exactly_under_loss() {
    let sim = Sim::new();
    let cl = build_cluster(2, EmpConfig::default(), lossy_switch(7));
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let dst = b.addr();
    let len = 200_000usize;
    let payload: Vec<u8> = (0..len).map(|i| (i % 241) as u8).collect();
    let expect = payload.clone();
    let done = Completion::new();
    let done2 = done.clone();

    let b2 = b.clone();
    sim.spawn("receiver", move |ctx| {
        let h = b2.post_recv(ctx, Tag(9), None, len, buf(1, len))?;
        let msg = b2.wait_recv(ctx, &h)?.expect("delivered");
        assert_eq!(msg.data.len(), expect.len());
        assert_eq!(&msg.data[..], &expect[..], "no corruption, no reordering");
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        ctx.delay(SimDuration::from_micros(10))?;
        let h = a.post_send(ctx, dst, Tag(9), Bytes::from(payload), buf(0, len))?;
        assert!(a.wait_send(ctx, &h)?);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
    let stats = cl.nodes[0].nic.stats();
    assert!(stats.frames_retransmitted > 0);
    assert_eq!(stats.sends_failed, 0);
}

#[test]
fn lossy_runs_are_still_deterministic() {
    fn run_once() -> (u64, u64) {
        let sim = Sim::new();
        let cl = build_cluster(2, EmpConfig::default(), lossy_switch(3));
        let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
        let dst = b.addr();
        let b2 = b.clone();
        sim.spawn("receiver", move |ctx| {
            for i in 0..10u64 {
                let h = b2.post_recv(ctx, Tag(1), None, 8 * 1024, buf(i % 2, 8 * 1024))?;
                b2.wait_recv(ctx, &h)?.expect("data");
            }
            Ok(())
        });
        sim.spawn("sender", move |ctx| {
            ctx.delay(SimDuration::from_micros(20))?;
            for i in 0..10usize {
                let h = a.post_send(
                    ctx,
                    dst,
                    Tag(1),
                    Bytes::from(vec![i as u8; 700 * (i + 1)]),
                    buf(5, 8 * 1024),
                )?;
                a.wait_send(ctx, &h)?;
            }
            Ok(())
        });
        sim.run();
        (
            sim.events_executed(),
            cl.nodes[0].nic.stats().frames_retransmitted,
        )
    }
    let first = run_once();
    assert!(first.1 > 0, "loss model must trigger retransmission");
    assert_eq!(first, run_once());
}

#[test]
fn unrelenting_loss_eventually_fails_the_send() {
    // Drop EVERY frame on the path: after max_retries the send must
    // complete unsuccessfully rather than hang.
    let cfg = EmpConfig {
        max_retries: 4,
        retransmit_timeout: SimDuration::from_micros(100),
        ..EmpConfig::default()
    };
    let sim = Sim::new();
    let cl = build_cluster(2, cfg, lossy_switch(1));
    let a = cl.nodes[0].endpoint();
    let dst = cl.nodes[1].addr();
    let finished = Arc::new(Mutex::new(false));
    let f2 = Arc::clone(&finished);

    sim.spawn("sender", move |ctx| {
        let h = a.post_send(ctx, dst, Tag(1), Bytes::from_static(b"void"), buf(0, 4))?;
        assert!(!a.wait_send(ctx, &h)?, "total loss must fail the send");
        *f2.lock() = true;
        Ok(())
    });
    sim.run();
    assert!(*finished.lock());
    assert_eq!(cl.nodes[0].nic.stats().sends_failed, 1);
}

/// One sender pushing `len` patterned bytes to one receiver over `sw`,
/// with `emp` as the protocol config. Asserts byte-exact reassembly.
fn exact_transfer(emp: EmpConfig, sw: SwitchConfig, len: usize) -> emp_proto::EmpCluster {
    let sim = Sim::new();
    let cl = build_cluster(2, emp, sw);
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let dst = b.addr();
    let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    let expect = payload.clone();
    let done = Completion::new();
    let done2 = done.clone();

    let b2 = b.clone();
    sim.spawn("receiver", move |ctx| {
        let h = b2.post_recv(ctx, Tag(3), None, len, buf(1, len))?;
        let msg = b2.wait_recv(ctx, &h)?.expect("delivered");
        assert_eq!(&msg.data[..], &expect[..], "byte-exact reassembly");
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        ctx.delay(SimDuration::from_micros(10))?;
        let h = a.post_send(ctx, dst, Tag(3), Bytes::from(payload), buf(0, len))?;
        assert!(a.wait_send(ctx, &h)?);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
    cl
}

#[test]
fn retransmission_survives_corruption_and_reordering() {
    // Not just periodic drop: seeded in-flight corruption plus reorder
    // windows wide enough for frames to genuinely overtake each other.
    let plan = FaultPlan::seeded(0xC0FFEE)
        .with_corrupt_prob(0.15)
        .with_reorder(0.4, SimDuration::from_micros(80));
    let cl = exact_transfer(EmpConfig::default(), faulty_switch(plan), 150_000);
    let stats = cl.nodes[0].nic.stats();
    assert!(
        stats.frames_retransmitted > 0,
        "corruption must force resend"
    );
    assert_eq!(stats.sends_failed, 0);
    let corrupted: u64 = cl
        .switch
        .port_stats()
        .iter()
        .map(|s| s.frames_corrupted)
        .sum();
    assert!(corrupted > 0, "fault plan injected no corruption");
}

#[test]
fn retransmission_survives_burst_loss_and_jitter() {
    let plan = FaultPlan::seeded(0xB00B5)
        .with_drop_prob(0.05)
        .with_burst(0.8, 5)
        .with_jitter(SimDuration::from_micros(15));
    let cl = exact_transfer(EmpConfig::default(), faulty_switch(plan), 120_000);
    let stats = cl.nodes[0].nic.stats();
    assert!(stats.frames_retransmitted > 0);
    assert_eq!(stats.sends_failed, 0);
}

#[test]
fn nic_rx_ring_exhaustion_is_recovered_by_retransmission() {
    let emp = EmpConfig {
        nic: NicConfig {
            faults: NicFaultPlan::seeded(77).with_rx_ring_drop_prob(0.25),
            ..NicConfig::default()
        },
        ..EmpConfig::default()
    };
    let cl = exact_transfer(emp, SwitchConfig::default(), 100_000);
    let rx_stats = cl.nodes[1].nic.stats();
    assert!(
        rx_stats.nic_rx_ring_drops > 0,
        "rx-ring fault never fired at p=0.25"
    );
    let tx_stats = cl.nodes[0].nic.stats();
    assert!(tx_stats.frames_retransmitted > 0);
    assert_eq!(tx_stats.sends_failed, 0);
}

#[test]
fn delayed_dma_completions_slow_but_do_not_break_transfers() {
    let emp = EmpConfig {
        nic: NicConfig {
            faults: NicFaultPlan::seeded(13).with_dma_delay(0.2, SimDuration::from_micros(40)),
            ..NicConfig::default()
        },
        ..EmpConfig::default()
    };
    let cl = exact_transfer(emp, SwitchConfig::default(), 100_000);
    let stats = cl.nodes[1].nic.stats();
    assert!(stats.nic_dma_delays > 0, "DMA-delay fault never fired");
    assert_eq!(cl.nodes[0].nic.stats().sends_failed, 0);
}

#[test]
fn seeded_fault_runs_are_deterministic() {
    fn run_once() -> (u64, u64) {
        let plan = FaultPlan::seeded(4242)
            .with_drop_prob(0.1)
            .with_corrupt_prob(0.1)
            .with_reorder(0.3, SimDuration::from_micros(40));
        let cl = exact_transfer(EmpConfig::default(), faulty_switch(plan), 60_000);
        let st = cl.nodes[0].nic.stats();
        (st.frames_retransmitted, st.acks_sent)
    }
    let first = run_once();
    assert!(first.0 > 0);
    assert_eq!(first, run_once());
}

#[test]
fn selective_repeat_resends_little_more_than_was_lost() {
    // 1 MiB (717 frames) with every 50th frame on every link dropped. A
    // rewind to the acknowledged prefix resent 309 frames for 27 dropped
    // here; resending only the holes the receiver reports stays within
    // 2.5 per frame dropped.
    let cl = exact_transfer(EmpConfig::default(), lossy_switch(50), 1 << 20);
    let dropped: u64 = cl
        .switch
        .port_stats()
        .iter()
        .map(|p| p.frames_dropped)
        .sum();
    let stats = cl.nodes[0].nic.stats();
    assert!(dropped > 0, "the fault plan must have bitten");
    assert_eq!(stats.sends_failed, 0);
    assert!(
        stats.fast_retransmits > 0,
        "holes are resent on ack evidence"
    );
    assert!(
        stats.frames_retransmitted * 2 <= dropped * 5,
        "{} frames resent for {dropped} dropped",
        stats.frames_retransmitted
    );
}

#[test]
fn a_slow_receiver_is_not_mistaken_for_loss() {
    // Three senders stream 8 KiB messages into one receiver on a lossless
    // fabric: its rx CPU is saturated, so acks lag behind the 500 µs timer
    // floor. With the timeout fixed at that floor the senders counted
    // 1 064 frames retransmitted — frames that were only queued, fed back
    // into the queue that delayed them. A timeout measured from the round
    // trip resends at most a tenth of that.
    const PER_SENDER: usize = 64;
    const LEN: usize = 8 << 10;
    let pattern = |src: u16, m: usize, i: usize| (i * 7 + usize::from(src) * 13 + m * 29) as u8;
    let sim = Sim::new();
    let cl = build_cluster(4, EmpConfig::default(), SwitchConfig::default());
    let dst = cl.nodes[0].addr();
    let rx = cl.nodes[0].endpoint();
    let done = Completion::new();
    let done2 = done.clone();
    sim.spawn("receiver", move |ctx| {
        let posts: Vec<_> = (0..3 * PER_SENDER as u64)
            .map(|i| (Tag(7), None, LEN, buf(i, LEN)))
            .collect();
        let mut seen = [0usize; 4];
        for h in &rx.post_recv_batch(ctx, &posts)? {
            let msg = rx.wait_recv(ctx, h)?.expect("delivered");
            let src = msg.src.0;
            let m = seen[usize::from(src)];
            seen[usize::from(src)] += 1;
            assert!(
                msg.data
                    .iter()
                    .enumerate()
                    .all(|(i, &b)| b == pattern(src, m, i)),
                "message {m} from {src} corrupted or out of order"
            );
        }
        done2.complete(ctx);
        Ok(())
    });
    for node in &cl.nodes[1..] {
        let tx = node.endpoint();
        let src = node.addr().0;
        sim.spawn(format!("sender-{src}"), move |ctx| {
            // Start once every descriptor is on the NIC, so nothing is
            // refused with a busy NACK.
            ctx.delay(SimDuration::from_millis(1))?;
            let mut handles = Vec::new();
            for m in 0..PER_SENDER {
                let data: Vec<u8> = (0..LEN).map(|i| pattern(src, m, i)).collect();
                let slot = 100 + u64::from(src);
                handles.push(tx.post_send(ctx, dst, Tag(7), Bytes::from(data), buf(slot, LEN))?);
            }
            assert!(tx.wait_sends(ctx, &handles)?);
            Ok(())
        });
    }
    sim.run();
    assert!(done.is_done());
    assert!(cl.switch.port_stats().iter().all(|p| p.frames_lost() == 0));
    let rx_util = cl.nodes[0].nic.tigon().cpu_rx.utilization();
    assert!(rx_util > 0.9, "receiver rx CPU not saturated: {rx_util}");
    let resent: u64 = cl.nodes[1..]
        .iter()
        .map(|n| n.nic.stats().frames_retransmitted)
        .sum();
    assert!(
        resent <= 1_064 / 10,
        "{resent} frames resent on a lossless fabric"
    );
    let (rto, _) = cl.nodes[1].nic.rtt(dst);
    assert!(rto > EmpConfig::default().retransmit_timeout, "RTO {rto:?}");
}

//! End-to-end tests of the EMP protocol on the simulated testbed,
//! including the calibration points the rest of the reproduction depends
//! on: ~28 µs one-way latency for 4-byte messages and a ~840 Mbps
//! large-message ceiling (paper §7.1-7.2).

use bytes::Bytes;
use emp_proto::{build_cluster, EmpCluster, EmpConfig, RecvPoll, Tag};
use hostsim::VirtRange;
use parking_lot::Mutex;
use simnet::{Completion, Sim, SimAccess, SimDuration, SimTime, SwitchConfig};
use std::sync::Arc;

fn cluster(n: usize) -> EmpCluster {
    build_cluster(n, EmpConfig::default(), SwitchConfig::default())
}

/// A stable fake buffer address per (node, purpose) so the translation
/// cache behaves as it would for a real re-used buffer.
fn buf(slot: u64, len: usize) -> VirtRange {
    VirtRange::new(0x1_0000_0000 + slot * 0x100_0000, len as u64)
}

#[test]
fn single_message_delivery_preserves_contents() {
    let sim = Sim::new();
    let cl = cluster(2);
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let done = Completion::new();
    let done2 = done.clone();
    let dst = b.addr();

    let b2 = b.clone();
    sim.spawn("receiver", move |ctx| {
        let h = b2.post_recv(ctx, Tag(7), None, 1024, buf(1, 1024))?;
        let msg = b2.wait_recv(ctx, &h)?.expect("message, not cancel");
        assert_eq!(&msg.data.to_bytes()[..], b"hello emp");
        assert_eq!(msg.tag, Tag(7));
        assert!(!msg.from_unexpected);
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        ctx.delay(SimDuration::from_micros(5))?; // let the receiver post
        let h = a.post_send(
            ctx,
            dst,
            Tag(7),
            Bytes::from_static(b"hello emp"),
            buf(0, 9),
        )?;
        assert!(a.wait_send(ctx, &h)?);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
    assert_eq!(cl.nodes[1].nic.stats().msgs_received, 1);
    assert_eq!(cl.nodes[0].nic.stats().msgs_sent, 1);
    assert_eq!(cl.nodes[0].nic.stats().frames_retransmitted, 0);
}

#[test]
fn four_byte_latency_calibrates_to_paper() {
    // Ping-pong as in §7.1: one-way latency = RTT/2 for 4-byte messages.
    // Raw EMP must land near the paper's ~28 us (the datagram substrate
    // adds ~0.5-1 us on top of this).
    let sim = Sim::new();
    let cl = cluster(2);
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let (addr_a, addr_b) = (a.addr(), b.addr());
    let result = Arc::new(Mutex::new(0.0f64));
    let result2 = Arc::clone(&result);

    let b2 = b.clone();
    sim.spawn("echoer", move |ctx| {
        for _ in 0..100 {
            let h = b2.post_recv(ctx, Tag(1), None, 4, buf(10, 4))?;
            let msg = b2.wait_recv(ctx, &h)?.expect("ping");
            let hs = b2.post_send(ctx, addr_a, Tag(2), msg.data.to_bytes(), buf(11, 4))?;
            b2.wait_send(ctx, &hs)?;
        }
        Ok(())
    });
    sim.spawn("pinger", move |ctx| {
        ctx.delay(SimDuration::from_micros(50))?; // warm-up: peer posted
        let iters = 100u32;
        let t0 = ctx.now();
        for _ in 0..iters {
            let hr = a.post_recv(ctx, Tag(2), None, 4, buf(12, 4))?;
            let hs = a.post_send(ctx, addr_b, Tag(1), Bytes::from_static(b"ping"), buf(13, 4))?;
            a.wait_recv(ctx, &hr)?.expect("pong");
            // wait_send after the pong: the ack always beats the reply.
            a.wait_send(ctx, &hs)?;
        }
        let rtt = (ctx.now() - t0) / iters as u64;
        *result2.lock() = rtt.as_micros_f64() / 2.0;
        Ok(())
    });
    sim.run();
    let one_way = *result.lock();
    assert!(
        (25.0..31.0).contains(&one_way),
        "raw EMP 4-byte one-way latency {one_way:.2} us; paper reports ~28 us"
    );
}

#[test]
fn large_message_bandwidth_hits_nic_ceiling() {
    // Stream 4 MB in 64 KiB messages; goodput must land near the paper's
    // 840 Mbps NIC-receive-path ceiling (not the 975 Mbps wire ceiling).
    let sim = Sim::new();
    let cl = cluster(2);
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let dst = b.addr();
    const MSG: usize = 64 * 1024;
    const COUNT: usize = 64;
    let result = Arc::new(Mutex::new(0.0f64));
    let result2 = Arc::clone(&result);

    let b2 = b.clone();
    sim.spawn("sink", move |ctx| {
        // Pre-post a deep pipeline of descriptors, then drain.
        let mut handles = Vec::new();
        for i in 0..COUNT {
            handles.push(b2.post_recv(ctx, Tag(1), None, MSG, buf(100 + i as u64, MSG))?);
        }
        let t0 = ctx.now();
        for h in &handles {
            b2.wait_recv(ctx, h)?.expect("data");
        }
        let elapsed = ctx.now() - t0;
        let bits = (MSG * COUNT) as f64 * 8.0;
        *result2.lock() = bits / elapsed.as_secs_f64() / 1e6;
        Ok(())
    });
    sim.spawn("source", move |ctx| {
        ctx.delay(SimDuration::from_millis(1))?; // descriptors in place
        let payload = Bytes::from(vec![0xabu8; MSG]);
        let mut pending = Vec::new();
        for _ in 0..COUNT {
            pending.push(a.post_send(ctx, dst, Tag(1), payload.clone(), buf(50, MSG))?);
        }
        for h in &pending {
            assert!(a.wait_send(ctx, h)?);
        }
        Ok(())
    });
    sim.run();
    let mbps = *result.lock();
    assert!(
        (780.0..900.0).contains(&mbps),
        "EMP large-message goodput {mbps:.0} Mbps; paper reports ~840 Mbps"
    );
    assert_eq!(cl.nodes[0].nic.stats().frames_retransmitted, 0);
}

#[test]
fn multi_frame_message_reassembles() {
    let sim = Sim::new();
    let cl = cluster(2);
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let dst = b.addr();
    let len = 10_000usize;
    let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
    let expect = payload.clone();
    let done = Completion::new();
    let done2 = done.clone();

    let b2 = b.clone();
    sim.spawn("receiver", move |ctx| {
        let h = b2.post_recv(ctx, Tag(3), None, 16 * 1024, buf(1, 16 * 1024))?;
        let msg = b2.wait_recv(ctx, &h)?.expect("data");
        assert_eq!(msg.data.len(), expect.len());
        assert_eq!(&msg.data.to_bytes()[..], &expect[..]);
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
    // 10'000 bytes = 7 frames; acks at 4 and 7 (window of 4 + final).
    let stats = cl.nodes[1].nic.stats();
    assert_eq!(stats.acks_sent, 2);
}

#[test]
fn unmatched_message_is_dropped_then_retransmitted() {
    let sim = Sim::new();
    let cl = cluster(2);
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let dst = b.addr();
    let done = Completion::new();
    let done2 = done.clone();

    // Sender fires immediately; nothing is posted at the receiver.
    let a2 = a.clone();
    sim.spawn("sender", move |ctx| {
        let h = a2.post_send(ctx, dst, Tag(9), Bytes::from_static(b"late"), buf(0, 4))?;
        assert!(a2.wait_send(ctx, &h)?, "retransmission must succeed");
        Ok(())
    });
    // Receiver posts only after one retransmit timeout has surely passed.
    let b2 = b.clone();
    sim.spawn("receiver", move |ctx| {
        ctx.delay(SimDuration::from_micros(500))?;
        let h = b2.post_recv(ctx, Tag(9), None, 64, buf(1, 64))?;
        let msg = b2.wait_recv(ctx, &h)?.expect("data");
        assert_eq!(&msg.data.to_bytes()[..], b"late");
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
    assert!(cl.nodes[1].nic.stats().frames_dropped >= 1);
    assert!(cl.nodes[0].nic.stats().frames_retransmitted >= 1);
}

#[test]
fn send_gives_up_after_max_retries() {
    let cfg = EmpConfig {
        max_retries: 3,
        retransmit_timeout: SimDuration::from_micros(100),
        ..EmpConfig::default()
    };
    let sim = Sim::new();
    let cl = build_cluster(2, cfg, SwitchConfig::default());
    let a = cl.nodes[0].endpoint();
    let dst = cl.nodes[1].addr();

    sim.spawn("sender", move |ctx| {
        let h = a.post_send(ctx, dst, Tag(5), Bytes::from_static(b"void"), buf(0, 4))?;
        assert!(!a.wait_send(ctx, &h)?, "send must fail: no descriptor ever");
        Ok(())
    });
    sim.run();
    assert_eq!(cl.nodes[0].nic.stats().sends_failed, 1);
}

#[test]
fn unexpected_queue_buffers_and_claims() {
    let sim = Sim::new();
    let cl = cluster(2);
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let dst = b.addr();
    let done = Completion::new();
    let done2 = done.clone();

    let b_setup = b.clone();
    sim.spawn("receiver", move |ctx| {
        b_setup.set_unexpected_slots(ctx, 4)?;
        // Post nothing; the message must park in the unexpected queue.
        ctx.delay(SimDuration::from_micros(300))?;
        assert_eq!(b_setup.nic().stats().unexpected_msgs, 1);
        let h = b_setup.post_recv(ctx, Tag(2), None, 64, buf(1, 64))?;
        let msg = b_setup.wait_recv(ctx, &h)?.expect("claimed from pool");
        assert!(msg.from_unexpected);
        assert_eq!(&msg.data.to_bytes()[..], b"surprise");
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        ctx.delay(SimDuration::from_micros(20))?;
        let h = a.post_send(ctx, dst, Tag(2), Bytes::from_static(b"surprise"), buf(0, 8))?;
        assert!(a.wait_send(ctx, &h)?, "unexpected queue still acks");
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
    assert_eq!(cl.nodes[1].nic.stats().frames_dropped, 0);
    assert_eq!(cl.nodes[0].nic.stats().frames_retransmitted, 0);
}

#[test]
fn unpost_completes_with_none() {
    let sim = Sim::new();
    let cl = cluster(2);
    let b = cl.nodes[1].endpoint();
    sim.spawn("owner", move |ctx| {
        let h = b.post_recv(ctx, Tag(4), None, 64, buf(1, 64))?;
        ctx.delay(SimDuration::from_micros(10))?;
        assert_eq!(b.nic().preposted_len(), 1);
        b.unpost_recv(ctx, &h)?;
        assert!(b.wait_recv(ctx, &h)?.is_none());
        assert_eq!(b.nic().preposted_len(), 0);
        Ok(())
    });
    sim.run();
}

#[test]
fn tag_and_source_filters_select_descriptors() {
    let sim = Sim::new();
    let cl = cluster(3);
    let (a, b, c) = (
        cl.nodes[0].endpoint(),
        cl.nodes[1].endpoint(),
        cl.nodes[2].endpoint(),
    );
    let dst = c.addr();
    let (addr_a, addr_b) = (a.addr(), b.addr());
    let done = Completion::new();
    let done2 = done.clone();

    let c2 = c.clone();
    sim.spawn("receiver", move |ctx| {
        // Descriptor 1: tag 1 from A only. Descriptor 2: tag 1 from anyone.
        let h_a = c2.post_recv(ctx, Tag(1), Some(addr_a), 64, buf(1, 64))?;
        let h_any = c2.post_recv(ctx, Tag(1), None, 64, buf(2, 64))?;
        let from_b = c2.wait_recv(ctx, &h_any)?.expect("b's message");
        assert_eq!(from_b.src, addr_b);
        assert_eq!(&from_b.data.to_bytes()[..], b"from-b");
        let from_a = c2.wait_recv(ctx, &h_a)?.expect("a's message");
        assert_eq!(from_a.src, addr_a);
        assert_eq!(&from_a.data.to_bytes()[..], b"from-a");
        done2.complete(ctx);
        Ok(())
    });
    // B sends first; its message must skip the src-filtered descriptor.
    sim.spawn("sender-b", move |ctx| {
        ctx.delay(SimDuration::from_micros(20))?;
        let h = b.post_send(ctx, dst, Tag(1), Bytes::from_static(b"from-b"), buf(0, 6))?;
        b.wait_send(ctx, &h)?;
        Ok(())
    });
    sim.spawn("sender-a", move |ctx| {
        ctx.delay(SimDuration::from_micros(120))?;
        let h = a.post_send(ctx, dst, Tag(1), Bytes::from_static(b"from-a"), buf(0, 6))?;
        a.wait_send(ctx, &h)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn tag_match_walk_is_counted() {
    let sim = Sim::new();
    let cl = cluster(2);
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let dst = b.addr();
    let b2 = b.clone();
    sim.spawn("receiver", move |ctx| {
        // Five decoy descriptors ahead of the real one: the matcher must
        // walk all six.
        for i in 0..5u64 {
            b2.post_recv(ctx, Tag(100 + i as u16), None, 64, buf(10 + i, 64))?;
        }
        let h = b2.post_recv(ctx, Tag(1), None, 64, buf(20, 64))?;
        let msg = b2.wait_recv(ctx, &h)?.expect("data");
        assert_eq!(&msg.data.to_bytes()[..], b"x");
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        ctx.delay(SimDuration::from_micros(50))?;
        let h = a.post_send(ctx, dst, Tag(1), Bytes::from_static(b"x"), buf(0, 1))?;
        a.wait_send(ctx, &h)?;
        Ok(())
    });
    sim.run();
    assert_eq!(cl.nodes[1].nic.stats().descriptors_walked, 6);
    assert_eq!(cl.nodes[1].nic.preposted_len(), 5);
}

#[test]
fn poll_recv_reports_pending_then_ready() {
    let sim = Sim::new();
    let cl = cluster(2);
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let dst = b.addr();
    let b2 = b.clone();
    sim.spawn("receiver", move |ctx| {
        let h = b2.post_recv(ctx, Tag(1), None, 64, buf(1, 64))?;
        assert!(matches!(b2.poll_recv(ctx, &h)?, RecvPoll::Pending));
        ctx.delay(SimDuration::from_micros(100))?;
        assert!(matches!(b2.poll_recv(ctx, &h)?, RecvPoll::Ready(_)));
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        ctx.delay(SimDuration::from_micros(10))?;
        let h = a.post_send(ctx, dst, Tag(1), Bytes::from_static(b"now"), buf(0, 3))?;
        a.wait_send(ctx, &h)?;
        Ok(())
    });
    sim.run();
}

#[test]
fn runs_are_deterministic() {
    fn run_once() -> (u64, u64, SimTime) {
        let sim = Sim::new();
        let cl = cluster(2);
        let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
        let dst = b.addr();
        let b2 = b.clone();
        sim.spawn("receiver", move |ctx| {
            for i in 0..20u64 {
                let h = b2.post_recv(ctx, Tag(1), None, 4096, buf(i % 3, 4096))?;
                b2.wait_recv(ctx, &h)?.expect("data");
            }
            Ok(())
        });
        sim.spawn("sender", move |ctx| {
            ctx.delay(SimDuration::from_micros(30))?;
            for i in 0..20usize {
                let h = a.post_send(
                    ctx,
                    dst,
                    Tag(1),
                    Bytes::from(vec![1u8; 100 * (i + 1)]),
                    buf(5, 4096),
                )?;
                a.wait_send(ctx, &h)?;
            }
            Ok(())
        });
        let end = sim.run();
        let walked = cl.nodes[1].nic.stats().descriptors_walked;
        (sim.events_executed(), walked, end)
    }
    assert_eq!(run_once(), run_once());
}

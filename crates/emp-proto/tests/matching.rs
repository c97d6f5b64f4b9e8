//! Tag-matching semantics in depth: capacity filtering, unexpected-queue
//! overflow, queue resizing, walk accounting, and cross-connection
//! isolation under interleaved traffic.

use bytes::Bytes;
use emp_proto::{build_cluster, EmpCluster, EmpConfig, Tag};
use hostsim::VirtRange;
use parking_lot::Mutex;
use simnet::{Sim, SimDuration, SwitchConfig};
use std::sync::Arc;

fn cluster(n: usize) -> EmpCluster {
    build_cluster(n, EmpConfig::default(), SwitchConfig::default())
}

fn buf(slot: u64, len: usize) -> VirtRange {
    VirtRange::new(0x7_0000_0000 + slot * 0x100_0000, len.max(1) as u64)
}

#[test]
fn undersized_descriptors_are_skipped_in_the_walk() {
    let sim = Sim::new();
    let cl = cluster(2);
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let dst = b.addr();

    let b2 = b.clone();
    sim.spawn("receiver", move |ctx| {
        // Same tag, too small for the incoming 1000-byte message — the
        // matcher must pass over it and land on the adequate one.
        let small = b2.post_recv(ctx, Tag(1), None, 10, buf(1, 10))?;
        let large = b2.post_recv(ctx, Tag(1), None, 4096, buf(2, 4096))?;
        let msg = b2.wait_recv(ctx, &large)?.expect("matched the large one");
        assert_eq!(msg.data.len(), 1000);
        assert!(!small.is_done(), "undersized descriptor stays posted");
        b2.unpost_recv(ctx, &small)?;
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        ctx.delay(SimDuration::from_micros(20))?;
        let h = a.post_send(ctx, dst, Tag(1), Bytes::from(vec![3u8; 1000]), buf(0, 1000))?;
        assert!(a.wait_send(ctx, &h)?);
        Ok(())
    });
    sim.run();
    // Walk: small (skipped) + large (matched) = 2 entries examined.
    assert_eq!(cl.nodes[1].nic.stats().descriptors_walked, 2);
}

#[test]
fn unexpected_queue_overflow_drops_until_slots_free() {
    let sim = Sim::new();
    let cl = cluster(2);
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let dst = b.addr();
    let got = Arc::new(Mutex::new(Vec::new()));
    let g2 = Arc::clone(&got);

    let b2 = b.clone();
    sim.spawn("receiver", move |ctx| {
        b2.set_unexpected_slots(ctx, 2)?;
        // Let the sender fire 4 messages into 2 slots; two must be
        // dropped and retransmitted later.
        ctx.delay(SimDuration::from_millis(1))?;
        assert_eq!(b2.nic().stats().unexpected_msgs, 2);
        assert!(b2.nic().stats().frames_dropped >= 2);
        for i in 0..4u64 {
            let h = b2.post_recv(ctx, Tag(5), None, 64, buf(10 + i, 64))?;
            let msg = b2.wait_recv(ctx, &h)?.expect("message");
            g2.lock().push(msg.data.to_bytes()[0]);
        }
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        ctx.delay(SimDuration::from_micros(20))?;
        let mut handles = Vec::new();
        for i in 0..4u8 {
            handles.push(a.post_send(ctx, dst, Tag(5), Bytes::from(vec![i; 8]), buf(0, 8))?);
        }
        for h in &handles {
            assert!(a.wait_send(ctx, h)?, "all must eventually deliver");
        }
        Ok(())
    });
    sim.run();
    let mut v = got.lock().clone();
    v.sort_unstable();
    assert_eq!(v, vec![0, 1, 2, 3], "every message delivered exactly once");
    assert!(cl.nodes[0].nic.stats().frames_retransmitted >= 2);
}

#[test]
fn shrinking_the_unexpected_queue_keeps_parked_messages() {
    let sim = Sim::new();
    let cl = cluster(2);
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let dst = b.addr();

    let b2 = b.clone();
    sim.spawn("receiver", move |ctx| {
        b2.set_unexpected_slots(ctx, 4)?;
        ctx.delay(SimDuration::from_millis(1))?; // two messages park
        b2.set_unexpected_slots(ctx, 0)?; // shrink below in-use
        ctx.delay(SimDuration::from_micros(50))?;
        // Parked messages are still claimable.
        for i in 0..2u64 {
            let h = b2.post_recv(ctx, Tag(6), None, 64, buf(20 + i, 64))?;
            assert!(b2.wait_recv(ctx, &h)?.is_some());
        }
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        ctx.delay(SimDuration::from_micros(20))?;
        for i in 0..2u8 {
            let h = a.post_send(ctx, dst, Tag(6), Bytes::from(vec![i; 4]), buf(0, 4))?;
            assert!(a.wait_send(ctx, &h)?);
        }
        Ok(())
    });
    sim.run();
}

#[test]
fn interleaved_connections_never_cross_messages() {
    // Two senders, two tags each, interleaved multi-frame messages: every
    // payload must arrive intact on its own (tag, src) lane.
    let sim = Sim::new();
    let cl = cluster(3);
    let c = cl.nodes[2].endpoint();
    let dst = c.addr();
    let done = Arc::new(Mutex::new(0u32));

    for sender in 0..2u16 {
        let ep = cl.nodes[sender as usize].endpoint();
        sim.spawn(format!("sender-{sender}"), move |ctx| {
            ctx.delay(SimDuration::from_micros(50 + u64::from(sender)))?;
            for tag in [10u16, 11u16] {
                for round in 0..3usize {
                    let len = 3000 + round * 1000 + usize::from(sender) * 100;
                    let fill = (sender as u8) * 16 + (tag as u8 - 10) * 4 + round as u8;
                    let h = ep.post_send(
                        ctx,
                        dst,
                        Tag(tag),
                        Bytes::from(vec![fill; len]),
                        buf(u64::from(sender), len),
                    )?;
                    assert!(ep.wait_send(ctx, &h)?);
                }
            }
            Ok(())
        });
    }
    for sender in 0..2u16 {
        for tag in [10u16, 11u16] {
            let ep = c.clone();
            let src = cl.nodes[sender as usize].addr();
            let done = Arc::clone(&done);
            sim.spawn(format!("receiver-{sender}-{tag}"), move |ctx| {
                for round in 0..3usize {
                    let len = 3000 + round * 1000 + usize::from(sender) * 100;
                    let fill = (sender as u8) * 16 + (tag as u8 - 10) * 4 + round as u8;
                    let h = ep.post_recv(
                        ctx,
                        Tag(tag),
                        Some(src),
                        8192,
                        buf(100 + u64::from(sender) * 10 + u64::from(tag), 8192),
                    )?;
                    let msg = ep.wait_recv(ctx, &h)?.expect("message");
                    assert_eq!(msg.data.len(), len, "lane ({sender},{tag}) round {round}");
                    assert!(
                        msg.data.to_bytes().iter().all(|&b| b == fill),
                        "no cross-talk"
                    );
                }
                *done.lock() += 1;
                Ok(())
            });
        }
    }
    sim.run();
    assert_eq!(*done.lock(), 4, "all four lanes complete");
}

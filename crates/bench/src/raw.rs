//! Raw-EMP microbenchmarks: the "EMP" series of Figures 11 and 13,
//! measured directly on the message-passing API with no sockets layer.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use emp_proto::{build_cluster, EmpConfig, Tag};
use hostsim::VirtRange;
use simnet::{Sim, SimAccess, SimDuration, SwitchConfig};

fn buf(slot: u64, len: usize) -> VirtRange {
    VirtRange::new(0x9_0000_0000 + slot * 0x100_0000, len.max(1) as u64)
}

/// One-way latency of raw EMP for `msg_size`-byte messages (µs).
pub fn emp_latency_us(msg_size: usize, iters: u32) -> f64 {
    let sim = Sim::new();
    let cl = build_cluster(2, EmpConfig::default(), SwitchConfig::default());
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let (addr_a, addr_b) = (a.addr(), b.addr());
    let out = Rc::new(Cell::new(f64::NAN));
    let out2 = Rc::clone(&out);

    // The classic EMP latency test is lean: sends are fire-and-forget in
    // the loop (handles are drained afterwards), exactly what the
    // datagram substrate also does — so the comparison is like-for-like.
    let b2 = b.clone();
    sim.spawn("raw-echoer", move |ctx| {
        let mut sends = Vec::with_capacity((iters + 4) as usize);
        for _ in 0..iters + 4 {
            let h = b2.post_recv(ctx, Tag(1), None, msg_size, buf(1, msg_size))?;
            let msg = b2.wait_recv(ctx, &h)?.expect("ping");
            sends.push(b2.post_send(ctx, addr_a, Tag(2), msg.data.to_bytes(), buf(2, msg_size))?);
        }
        for h in &sends {
            assert!(b2.wait_send(ctx, h)?);
        }
        Ok(())
    });
    sim.spawn("raw-pinger", move |ctx| {
        ctx.delay(SimDuration::from_micros(50))?;
        let payload = Bytes::from(vec![0x11u8; msg_size]);
        let mut sends = Vec::with_capacity((iters + 4) as usize);
        for _ in 0..4 {
            let hr = a.post_recv(ctx, Tag(2), None, msg_size, buf(3, msg_size))?;
            sends.push(a.post_send(ctx, addr_b, Tag(1), payload.clone(), buf(4, msg_size))?);
            a.wait_recv(ctx, &hr)?.expect("pong");
        }
        let t0 = ctx.now();
        for _ in 0..iters {
            let hr = a.post_recv(ctx, Tag(2), None, msg_size, buf(3, msg_size))?;
            sends.push(a.post_send(ctx, addr_b, Tag(1), payload.clone(), buf(4, msg_size))?);
            a.wait_recv(ctx, &hr)?.expect("pong");
        }
        out2.set(((ctx.now() - t0) / u64::from(iters)).as_micros_f64() / 2.0);
        for h in &sends {
            assert!(a.wait_send(ctx, h)?);
        }
        Ok(())
    });
    sim.run();
    let us = out.get();
    assert!(us.is_finite(), "raw EMP ping-pong did not complete");
    us
}

/// Raw EMP goodput for `msg_size`-byte messages over `total_bytes` (Mbps).
pub fn emp_bandwidth_mbps(msg_size: usize, total_bytes: usize) -> f64 {
    let count = total_bytes / msg_size;
    let sim = Sim::new();
    let cl = build_cluster(2, EmpConfig::default(), SwitchConfig::default());
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let dst = b.addr();
    let out = Rc::new(Cell::new(f64::NAN));
    let out2 = Rc::clone(&out);

    let b2 = b.clone();
    sim.spawn("raw-sink", move |ctx| {
        let mut handles = Vec::with_capacity(count);
        for i in 0..count {
            handles.push(b2.post_recv(
                ctx,
                Tag(1),
                None,
                msg_size,
                buf(10 + (i % 64) as u64, msg_size),
            )?);
        }
        let t0 = ctx.now();
        for h in &handles {
            b2.wait_recv(ctx, h)?.expect("data");
        }
        let elapsed = ctx.now() - t0;
        out2.set((msg_size * count) as f64 * 8.0 / elapsed.as_secs_f64() / 1e6);
        Ok(())
    });
    sim.spawn("raw-source", move |ctx| {
        ctx.delay(SimDuration::from_millis(2))?;
        let payload = Bytes::from(vec![0x22u8; msg_size]);
        // Self-clocking window of 4 outstanding messages.
        let mut pending = std::collections::VecDeque::new();
        for _ in 0..count {
            if pending.len() >= 4 {
                let h: emp_proto::SendHandle = pending.pop_front().expect("nonempty");
                assert!(a.wait_send(ctx, &h)?);
            }
            pending.push_back(a.post_send(ctx, dst, Tag(1), payload.clone(), buf(5, msg_size))?);
        }
        for h in pending {
            assert!(a.wait_send(ctx, &h)?);
        }
        Ok(())
    });
    sim.run();
    let mbps = out.get();
    assert!(mbps.is_finite(), "raw EMP bandwidth did not complete");
    mbps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_latency_at_paper_point() {
        let us = emp_latency_us(4, 50);
        assert!((25.0..31.0).contains(&us), "raw EMP {us:.1} us");
    }

    #[test]
    fn raw_bandwidth_at_paper_point() {
        let mbps = emp_bandwidth_mbps(64 * 1024, 4 << 20);
        assert!((780.0..920.0).contains(&mbps), "raw EMP {mbps:.0} Mbps");
    }
}

//! The readiness layer end to end: nonblocking socket calls returning
//! [`NetError::WouldBlock`], and [`PollSet`] waits over connections and
//! listeners that report exactly when a retry will make progress.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use emp_proto::{build_cluster, EmpCluster, EmpConfig};
use simnet::{Completion, FaultPlan, LinkConfig, Sim, SimAccess, SimDuration, SwitchConfig};
use sockets_emp::{EmpSockets, Interest, NetError, PollSet, SockAddr, SubstrateConfig};

fn cluster(n: usize) -> EmpCluster {
    build_cluster(n, EmpConfig::default(), SwitchConfig::default())
}

fn substrate(cl: &EmpCluster, node: usize, cfg: SubstrateConfig) -> EmpSockets {
    EmpSockets::new(cl.nodes[node].endpoint(), cfg)
}

#[test]
fn try_read_would_block_until_poll_reports_readable() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = substrate(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 8)?.expect("port free");
        let conn = l.accept(ctx)?.expect("client");
        // The client stays silent for a millisecond: nothing to read yet.
        assert_eq!(conn.try_read(ctx, 64)?.unwrap_err(), NetError::WouldBlock);
        let mut set = PollSet::new();
        set.register_conn(&conn, 7, Interest::READABLE);
        let events = set.poll(ctx, None)?.expect("poll");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].is_readable());
        // Readiness is truthful: the retry now succeeds.
        let data = conn.try_read(ctx, 64)?.expect("ready data");
        assert_eq!(&data[..], b"late");
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        ctx.delay(SimDuration::from_millis(1))?;
        conn.write(ctx, b"late")?.expect("send");
        ctx.delay(SimDuration::from_millis(2))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

/// Deterministic payload byte for (datagram index, offset).
fn pat(idx: usize, i: usize) -> u8 {
    ((i * 31 + idx * 7 + 3) % 251) as u8
}

#[test]
fn dgram_try_read_would_block_then_delivers_in_send_order_then_eof() {
    let sim = Sim::new();
    // Reordering only: later datagrams overtake earlier ones, so the
    // reader meets the reorder buffer, not just in-order arrivals.
    let sw = SwitchConfig {
        link: LinkConfig {
            faults: FaultPlan::seeded(0xD6).with_reorder(0.3, SimDuration::from_micros(80)),
            ..LinkConfig::default()
        },
        ..SwitchConfig::default()
    };
    let cl = build_cluster(2, EmpConfig::default(), sw);
    let server = substrate(&cl, 1, SubstrateConfig::dg());
    let client = substrate(&cl, 0, SubstrateConfig::dg());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    // Eager sizes, and one past `dgram_eager_max` that rendezvouses.
    let sizes: Vec<usize> = (0..40).map(|i| 1 + i * 37 % 1400).chain([6000]).collect();
    let sizes2 = sizes.clone();
    let wakes = Arc::new(AtomicUsize::new(0));
    let wakes2 = Arc::clone(&wakes);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("receiver", move |ctx| {
        let l = server.listen(ctx, 80, 8)?.expect("port free");
        let conn = l.accept(ctx)?.expect("client");
        // The sender waits a millisecond: nothing to read yet.
        assert_eq!(conn.try_read(ctx, 8192)?.unwrap_err(), NetError::WouldBlock);
        let mut set = PollSet::new();
        set.register_conn(&conn, 3, Interest::READABLE);
        // Every datagram, then the EOF, each read nonblocking and retried
        // after a poll reports the connection readable.
        let mut got = Vec::new();
        loop {
            match conn.try_read(ctx, 8192)? {
                Ok(m) if m.is_empty() => break,
                Ok(m) => got.push(m),
                Err(NetError::WouldBlock) => {
                    let events = set.poll(ctx, None)?.expect("poll");
                    assert_eq!(events.len(), 1);
                    assert!(events[0].is_readable());
                    wakes2.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => panic!("try_read failed after {} datagrams: {e:?}", got.len()),
            }
        }
        assert_eq!(got.len(), sizes.len(), "datagram count");
        for (i, (m, len)) in got.iter().zip(&sizes).enumerate() {
            assert_eq!(m.len(), *len, "datagram {i}: boundary lost");
            assert!(
                m.iter().enumerate().all(|(j, b)| *b == pat(i, j)),
                "datagram {i}: bytes wrong or out of order"
            );
        }
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        ctx.delay(SimDuration::from_millis(1))?;
        for (i, len) in sizes2.iter().enumerate() {
            let data: Vec<u8> = (0..*len).map(|j| pat(i, j)).collect();
            conn.write(ctx, &data)?.expect("send");
        }
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done(), "receiver did not reach EOF");
    assert!(wakes.load(Ordering::Relaxed) > 0, "no read waited on poll");
    let delayed: u64 = cl
        .switch
        .port_stats()
        .iter()
        .map(|s| s.frames_delayed)
        .sum();
    assert!(delayed > 0, "the fabric reordered nothing");
}

#[test]
fn try_write_would_block_on_credit_exhaustion_until_acks_return() {
    let sim = Sim::new();
    let cl = cluster(2);
    // Two credits and immediate acks: exhaustion after two eager sends,
    // recovery as soon as the receiver consumes them.
    let cfg = SubstrateConfig::ds().with_credits(2);
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 8)?.expect("port free");
        let conn = l.accept(ctx)?.expect("client");
        // Hold the credits hostage for a while before draining.
        ctx.delay(SimDuration::from_millis(2))?;
        let mut got = 0usize;
        loop {
            let chunk = conn.read(ctx, 1024)?.expect("drain");
            if chunk.is_empty() {
                break;
            }
            got += chunk.len();
        }
        assert_eq!(got, 64 * 3);
        conn.close(ctx)?;
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let msg = [0x5au8; 64];
        // Both credits go out the door immediately...
        assert_eq!(conn.try_write(ctx, &msg)?.expect("credit 1"), 64);
        assert_eq!(conn.try_write(ctx, &msg)?.expect("credit 2"), 64);
        // ...and the third write has none to take.
        assert_eq!(
            conn.try_write(ctx, &msg)?.unwrap_err(),
            NetError::WouldBlock
        );
        assert!(!conn.writable());
        let mut set = PollSet::new();
        set.register_conn(&conn, 3, Interest::WRITABLE);
        let events = set.poll(ctx, None)?.expect("poll");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 3);
        assert!(events[0].is_writable());
        assert!(conn.writable());
        assert_eq!(conn.try_write(ctx, &msg)?.expect("credits back"), 64);
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn try_accept_would_block_until_poll_reports_acceptable() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = substrate(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 8)?.expect("port free");
        assert_eq!(
            l.try_accept(ctx).map(|r| r.map(|_| ()))?.unwrap_err(),
            NetError::WouldBlock
        );
        let mut set = PollSet::new();
        set.register_listener(&l, 9, Interest::ACCEPTABLE);
        let events = set.poll(ctx, None)?.expect("poll");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 9);
        assert!(events[0].is_acceptable());
        let conn = l.try_accept(ctx)?.expect("queued connection");
        let data = conn.read(ctx, 64)?.expect("hello");
        assert_eq!(&data[..], b"hi");
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        ctx.delay(SimDuration::from_millis(1))?;
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.write(ctx, b"hi")?.expect("send");
        ctx.delay(SimDuration::from_millis(2))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn select_on_an_empty_set_is_invalid_not_a_hang() {
    let sim = Sim::new();
    let cl = cluster(1);
    let s = substrate(&cl, 0, SubstrateConfig::ds_da_uq());
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("selector", move |ctx| {
        assert_eq!(s.select_readable(ctx, &[])?.unwrap_err(), NetError::Invalid);
        // Same for a bare poll with nothing to wait on and no timeout.
        let mut set = PollSet::new();
        assert_eq!(set.poll(ctx, None)?.unwrap_err(), NetError::Invalid);
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn poll_timeout_returns_no_events_after_the_deadline() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = substrate(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 8)?.expect("port free");
        let conn = l.accept(ctx)?.expect("client");
        let t0 = ctx.now();
        let mut set = PollSet::new();
        set.register_conn(&conn, 0, Interest::READABLE);
        // The client never writes: the poll must give up at the deadline.
        let events = set
            .poll(ctx, Some(SimDuration::from_millis(1)))?
            .expect("poll");
        assert!(events.is_empty());
        let waited = ctx.now() - t0;
        assert!(waited >= SimDuration::from_millis(1), "waited {waited:?}");
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        ctx.delay(SimDuration::from_millis(5))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

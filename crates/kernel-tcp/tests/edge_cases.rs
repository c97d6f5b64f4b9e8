//! Edge-case coverage for the kernel stack: EOF exactness, half-close
//! semantics, UDP overflow, port exhaustion behaviour, listener teardown.

use kernel_tcp::{build_tcp_cluster, NetError, SockAddr, TcpCluster, TcpConfig};
use parking_lot::Mutex;
use simnet::{Completion, Sim, SimDuration, SwitchConfig};
use std::sync::Arc;

fn cluster(n: usize) -> TcpCluster {
    build_tcp_cluster(n, TcpConfig::default(), SwitchConfig::default())
}

#[test]
fn eof_arrives_only_after_all_data() {
    let sim = Sim::new();
    let cl = cluster(2);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    let api_s = cl.nodes[1].api();
    sim.spawn("server", move |ctx| {
        let l = api_s.listen(ctx, 80, 4)?.expect("port");
        let c = l.accept(ctx)?.expect("connection");
        // Write everything, then close immediately: FIN is queued behind
        // the data and must not truncate it.
        c.write(ctx, &vec![9u8; 100_000])?.expect("write");
        c.close(ctx)?;
        Ok(())
    });
    let api_c = cl.nodes[0].api();
    sim.spawn("client", move |ctx| {
        let c = api_c.connect(ctx, addr)?.expect("connect");
        let mut got = 0usize;
        loop {
            let d = c.read(ctx, 8192)?.expect("read");
            if d.is_empty() {
                break;
            }
            assert!(d.iter().all(|&b| b == 9));
            got += d.len();
        }
        assert_eq!(got, 100_000, "EOF must come after every byte");
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn half_close_still_allows_receiving() {
    // A closes its send side; B can keep sending (CloseWait) and A keeps
    // reading until B's FIN.
    let sim = Sim::new();
    let cl = cluster(2);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    let api_s = cl.nodes[1].api();
    sim.spawn("peer-b", move |ctx| {
        let l = api_s.listen(ctx, 80, 4)?.expect("port");
        let c = l.accept(ctx)?.expect("connection");
        // Wait for A's FIN (read returns EOF), then still send data.
        let d = c.read(ctx, 64)?.expect("read");
        assert!(d.is_empty(), "A closed first");
        c.write(ctx, b"parting words")?
            .expect("send from CloseWait");
        c.close(ctx)?;
        Ok(())
    });
    let api_c = cl.nodes[0].api();
    sim.spawn("peer-a", move |ctx| {
        let c = api_c.connect(ctx, addr)?.expect("connect");
        c.close(ctx)?; // half-close: our FIN goes out
        let d = c
            .read_exact(ctx, 13)?
            .expect("read")
            .expect("data after our close");
        assert_eq!(&d[..], b"parting words");
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn write_after_close_is_an_error() {
    let sim = Sim::new();
    let cl = cluster(2);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let api_s = cl.nodes[1].api();
    sim.spawn("server", move |ctx| {
        let l = api_s.listen(ctx, 80, 4)?.expect("port");
        let _c = l.accept(ctx)?.expect("connection");
        ctx.delay(SimDuration::from_millis(1))?;
        Ok(())
    });
    let api_c = cl.nodes[0].api();
    sim.spawn("client", move |ctx| {
        let c = api_c.connect(ctx, addr)?.expect("connect");
        c.close(ctx)?;
        let err = c.write(ctx, b"too late")?.expect_err("closed socket");
        assert_eq!(err, NetError::Closed);
        Ok(())
    });
    sim.run();
}

#[test]
fn udp_queue_overflow_drops_excess_datagrams() {
    let sim = Sim::new();
    let cl = cluster(2);
    let b_addr = SockAddr::new(cl.nodes[1].addr(), 5000);

    let api_b = cl.nodes[1].api();
    let api_a = cl.nodes[0].api();
    sim.spawn("receiver", move |ctx| {
        let s = api_b.udp_bind(ctx, 5000)?.expect("port");
        // Sleep while the sender floods far past the queue limit.
        ctx.delay(SimDuration::from_millis(100))?;
        let mut got = 0;
        while s.recv_from(ctx).is_ok() {
            got += 1;
            if got >= 128 {
                break; // the queue limit; anything more was dropped
            }
        }
        assert_eq!(got, 128);
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        let s = api_a.udp_bind(ctx, 5001)?.expect("port");
        for i in 0..200u32 {
            s.send_to(ctx, b_addr, &i.to_le_bytes())?;
        }
        Ok(())
    });
    sim.run_until(simnet::SimTime::from_millis(200));
    assert_eq!(
        cl.nodes[1].stack.udp_datagrams_dropped(),
        200 - 128,
        "datagrams beyond the socket buffer are dropped, UDP-style"
    );
}

#[test]
fn listener_unlisten_refuses_future_connects() {
    let sim = Sim::new();
    let cl = cluster(2);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let refused = Arc::new(Mutex::new(false));
    let r2 = Arc::clone(&refused);

    let api_s = cl.nodes[1].api();
    sim.spawn("server", move |ctx| {
        let l = api_s.listen(ctx, 80, 4)?.expect("port");
        let c = l.accept(ctx)?.expect("connection");
        let _ = c.read(ctx, 16)?;
        l.unlisten();
        c.close(ctx)?;
        ctx.delay(SimDuration::from_millis(5))?;
        Ok(())
    });
    let api_c = cl.nodes[0].api();
    sim.spawn("client", move |ctx| {
        let c = api_c.connect(ctx, addr)?.expect("first connect works");
        c.write(ctx, b"x")?.expect("send");
        ctx.delay(SimDuration::from_millis(1))?;
        c.close(ctx)?;
        let second = api_c.connect(ctx, addr)?;
        assert_eq!(second.err(), Some(NetError::Refused));
        *r2.lock() = true;
        Ok(())
    });
    sim.run();
    assert!(*refused.lock());
}

#[test]
fn duplicate_listen_is_addr_in_use() {
    let sim = Sim::new();
    let cl = cluster(1);
    let api = cl.nodes[0].api();
    sim.spawn("p", move |ctx| {
        let _l = api.listen(ctx, 80, 4)?.expect("first");
        let second = api.listen(ctx, 80, 4)?;
        assert_eq!(second.err(), Some(NetError::AddrInUse));
        Ok(())
    });
    sim.run();
}

#[test]
fn many_sequential_connections_recycle_ephemeral_ports() {
    let sim = Sim::new();
    let cl = cluster(2);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();
    const CONNS: usize = 50;

    let api_s = cl.nodes[1].api();
    sim.spawn("server", move |ctx| {
        let l = api_s.listen(ctx, 80, 16)?.expect("port");
        for _ in 0..CONNS {
            let c = l.accept(ctx)?.expect("connection");
            let d = c.read_exact(ctx, 2)?.expect("read").expect("data");
            c.write(ctx, &d)?.expect("echo");
            c.close(ctx)?;
        }
        Ok(())
    });
    let api_c = cl.nodes[0].api();
    sim.spawn("client", move |ctx| {
        for i in 0..CONNS {
            let c = api_c.connect(ctx, addr)?.expect("connect");
            let msg = [(i % 256) as u8, (i / 256) as u8];
            c.write(ctx, &msg)?.expect("send");
            let r = c.read_exact(ctx, 2)?.expect("read").expect("echo");
            assert_eq!(&r[..], &msg);
            c.close(ctx)?;
        }
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn nagle_delays_back_to_back_small_writes() {
    // The classic Nagle + delayed-ack interaction: the second of two
    // sub-MSS writes is held until the first is acknowledged, and the
    // receiver delays that ack — so the pair takes a delayed-ack timeout
    // longer than with TCP_NODELAY semantics.
    fn two_small_writes_us(nagle: bool) -> f64 {
        let cfg = TcpConfig {
            nagle,
            ..TcpConfig::default()
        };
        let cl = build_tcp_cluster(2, cfg, SwitchConfig::default());
        let sim = Sim::new();
        let addr = SockAddr::new(cl.nodes[1].addr(), 80);
        let out = Arc::new(Mutex::new(f64::NAN));
        let o2 = Arc::clone(&out);
        let api_s = cl.nodes[1].api();
        sim.spawn("server", move |ctx| {
            let l = api_s.listen(ctx, 80, 4)?.expect("port");
            let c = l.accept(ctx)?.expect("connection");
            let d = c.read_exact(ctx, 2)?.expect("read").expect("two bytes");
            assert_eq!(&d[..], b"ab");
            c.write(ctx, b"!")?.expect("reply");
            Ok(())
        });
        let api_c = cl.nodes[0].api();
        sim.spawn("client", move |ctx| {
            let c = api_c.connect(ctx, addr)?.expect("connect");
            let t0 = simnet::SimAccess::now(ctx);
            c.write(ctx, b"a")?.expect("first");
            c.write(ctx, b"b")?.expect("second");
            c.read_exact(ctx, 1)?.expect("read").expect("reply");
            *o2.lock() = (simnet::SimAccess::now(ctx) - t0).as_micros_f64();
            c.close(ctx)?;
            Ok(())
        });
        sim.run();
        let us = *out.lock();
        assert!(us.is_finite());
        us
    }
    let nodelay = two_small_writes_us(false);
    let nagle = two_small_writes_us(true);
    assert!(
        nagle > nodelay + 150.0,
        "Nagle must stall on the delayed ack: {nagle:.0} vs {nodelay:.0} us"
    );
}

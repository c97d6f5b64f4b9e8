//! The kernel baseline's nonblocking surface: `try_*` calls returning
//! [`NetError::WouldBlock`] and `poll()` over mixed sockets, mirroring the
//! substrate's readiness layer so the facade can drive either stack from
//! one event loop.

use kernel_tcp::{
    build_tcp_cluster, Interest, NetError, SockAddr, TcpCluster, TcpConfig, TcpPollSource,
    TcpPollTarget,
};
use simnet::{Completion, Sim, SimAccess, SimDuration, SwitchConfig};

fn cluster(n: usize) -> TcpCluster {
    build_tcp_cluster(n, TcpConfig::default(), SwitchConfig::default())
}

#[test]
fn try_read_would_block_until_poll_reports_readable() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server_addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    let api_s = cl.nodes[1].api();
    sim.spawn("server", move |ctx| {
        let l = api_s.listen(ctx, 80, 8)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        assert_eq!(conn.try_read(ctx, 64)?.unwrap_err(), NetError::WouldBlock);
        let sources = [TcpPollSource {
            target: TcpPollTarget::Conn(&conn),
            token: 5,
            interest: Interest::READABLE,
        }];
        let events = api_s.poll(ctx, &sources, None)?.expect("poll");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 5);
        assert!(events[0].is_readable());
        let d = conn.try_read(ctx, 64)?.expect("ready data");
        assert_eq!(&d[..], b"late");
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    let api_c = cl.nodes[0].api();
    sim.spawn("client", move |ctx| {
        let conn = api_c.connect(ctx, server_addr)?.expect("accepted");
        ctx.delay(SimDuration::from_millis(1))?;
        conn.write(ctx, b"late")?.expect("send");
        ctx.delay(SimDuration::from_millis(2))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn try_write_would_block_when_the_send_buffer_fills() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server_addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    let api_s = cl.nodes[1].api();
    sim.spawn("server", move |ctx| {
        let l = api_s.listen(ctx, 80, 8)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        // Let the client saturate both buffers before draining.
        ctx.delay(SimDuration::from_millis(5))?;
        loop {
            let chunk = conn.read(ctx, 65536)?.expect("drain");
            if chunk.is_empty() {
                break;
            }
        }
        conn.close(ctx)?;
        Ok(())
    });
    let api_c = cl.nodes[0].api();
    sim.spawn("client", move |ctx| {
        let conn = api_c.connect(ctx, server_addr)?.expect("accepted");
        let chunk = vec![0xa5u8; 8192];
        // The server is asleep: the send buffer (and the peer's receive
        // window) must fill within a bounded number of writes.
        let mut stalled = false;
        for _ in 0..64 {
            match conn.try_write(ctx, &chunk)? {
                Ok(n) => assert!(n >= 1),
                Err(NetError::WouldBlock) => {
                    stalled = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(stalled, "the send path must exert backpressure");
        assert!(!conn.writable());
        let sources = [TcpPollSource {
            target: TcpPollTarget::Conn(&conn),
            token: 1,
            interest: Interest::WRITABLE,
        }];
        let events = api_c.poll(ctx, &sources, None)?.expect("poll");
        assert!(events[0].is_writable());
        assert!(conn.writable());
        assert!(conn.try_write(ctx, &chunk)?.expect("space again") >= 1);
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
    let server_addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    let api_s = cl.nodes[1].api();
    sim.spawn("server", move |ctx| {
        let l = api_s.listen(ctx, 80, 8)?.expect("port free");
        assert!(matches!(l.try_accept(ctx)?, Err(NetError::WouldBlock)));
        let sources = [TcpPollSource {
            target: TcpPollTarget::Listener(&l),
            token: 2,
            interest: Interest::ACCEPTABLE,
        }];
        let events = api_s.poll(ctx, &sources, None)?.expect("poll");
        assert!(events[0].is_acceptable());
        let conn = l.try_accept(ctx)?.expect("queued connection");
        let d = conn.read(ctx, 64)?.expect("hello");
        assert_eq!(&d[..], b"hi");
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    let api_c = cl.nodes[0].api();
    sim.spawn("client", move |ctx| {
        ctx.delay(SimDuration::from_millis(1))?;
        let conn = api_c.connect(ctx, server_addr)?.expect("accepted");
        conn.write(ctx, b"hi")?.expect("send");
        ctx.delay(SimDuration::from_millis(2))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn poll_timeout_and_empty_select_match_the_substrate_semantics() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server_addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    let api_s = cl.nodes[1].api();
    sim.spawn("server", move |ctx| {
        let l = api_s.listen(ctx, 80, 8)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        // An empty select can never wake: EINVAL, not a hang.
        assert_eq!(
            api_s.select_readable(ctx, &[])?.unwrap_err(),
            NetError::Invalid
        );
        let t0 = ctx.now();
        let sources = [TcpPollSource {
            target: TcpPollTarget::Conn(&conn),
            token: 0,
            interest: Interest::READABLE,
        }];
        let events = api_s
            .poll(ctx, &sources, Some(SimDuration::from_millis(1)))?
            .expect("poll");
        assert!(events.is_empty(), "silent peer: the deadline must fire");
        assert!(ctx.now() - t0 >= SimDuration::from_millis(1));
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    let api_c = cl.nodes[0].api();
    sim.spawn("client", move |ctx| {
        let conn = api_c.connect(ctx, server_addr)?.expect("accepted");
        ctx.delay(SimDuration::from_millis(5))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

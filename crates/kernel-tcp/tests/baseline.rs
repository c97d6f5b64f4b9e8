//! End-to-end tests of the kernel TCP baseline, including the paper's
//! calibration points: ~120 µs one-way small-message latency, ~340 Mbps
//! with 16 KiB socket buffers, ~550 Mbps with large ones, and 200-250 µs
//! connection setup (§7.2, §7.4).

use kernel_tcp::{build_tcp_cluster, NetError, SockAddr, TcpCluster, TcpConfig};
use parking_lot::Mutex;
use simnet::{Completion, Sim, SimAccess, SimDuration, SwitchConfig};
use std::sync::Arc;

fn cluster(n: usize) -> TcpCluster {
    build_tcp_cluster(n, TcpConfig::default(), SwitchConfig::default())
}

#[test]
fn connect_transfer_close_roundtrip() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server_addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    let api_s = cl.nodes[1].api();
    sim.spawn("server", move |ctx| {
        let l = api_s.listen(ctx, 80, 8)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let req = conn.read(ctx, 1024)?.expect("request");
        assert_eq!(&req[..], b"hello?");
        conn.write(ctx, b"world!")?.expect("write ok");
        conn.close(ctx)?;
        Ok(())
    });
    let api_c = cl.nodes[0].api();
    sim.spawn("client", move |ctx| {
        let conn = api_c.connect(ctx, server_addr)?.expect("accepted");
        conn.write(ctx, b"hello?")?.expect("write ok");
        let resp = conn.read(ctx, 1024)?.expect("response");
        assert_eq!(&resp[..], b"world!");
        let eof = conn.read(ctx, 1024)?.expect("eof");
        assert!(eof.is_empty(), "server closed; read must return EOF");
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn connect_time_calibrates_to_paper() {
    // §7.4: "the connection time requires intervention by the kernel and
    // is typically about 200 to 250 us".
    let sim = Sim::new();
    let cl = cluster(2);
    let server_addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let measured = Arc::new(Mutex::new(0.0f64));
    let m2 = Arc::clone(&measured);

    let api_s = cl.nodes[1].api();
    sim.spawn("server", move |ctx| {
        let l = api_s.listen(ctx, 80, 16)?.expect("port free");
        for _ in 0..20 {
            let c = l.accept(ctx)?.expect("connection");
            c.close(ctx)?;
        }
        Ok(())
    });
    let api_c = cl.nodes[0].api();
    sim.spawn("client", move |ctx| {
        ctx.delay(SimDuration::from_micros(100))?;
        let iters = 20u32;
        let t0 = ctx.now();
        for _ in 0..iters {
            let c = api_c.connect(ctx, server_addr)?.expect("accepted");
            c.close(ctx)?;
        }
        *m2.lock() = ((ctx.now() - t0) / iters as u64).as_micros_f64();
        Ok(())
    });
    sim.run();
    let us = *measured.lock();
    assert!(
        (180.0..280.0).contains(&us),
        "TCP connect takes {us:.1} us; paper reports 200-250 us"
    );
}

#[test]
fn four_byte_latency_calibrates_to_paper() {
    // Ping-pong one-way latency for 4-byte messages: paper reports
    // ~120 us for TCP.
    let sim = Sim::new();
    let cl = cluster(2);
    let server_addr = SockAddr::new(cl.nodes[1].addr(), 7);
    let measured = Arc::new(Mutex::new(0.0f64));
    let m2 = Arc::clone(&measured);

    let api_s = cl.nodes[1].api();
    sim.spawn("echoer", move |ctx| {
        let l = api_s.listen(ctx, 7, 4)?.expect("port free");
        let c = l.accept(ctx)?.expect("connection");
        loop {
            let data = c.read(ctx, 64)?.expect("data");
            if data.is_empty() {
                break;
            }
            c.write(ctx, &data)?.expect("echo");
        }
        Ok(())
    });
    let api_c = cl.nodes[0].api();
    sim.spawn("pinger", move |ctx| {
        let c = api_c.connect(ctx, server_addr)?.expect("accepted");
        // Warm up one exchange.
        c.write(ctx, b"warm")?.expect("write");
        c.read_exact(ctx, 4)?.expect("read").expect("pong");
        let iters = 50u32;
        let t0 = ctx.now();
        for _ in 0..iters {
            c.write(ctx, b"ping")?.expect("write");
            c.read_exact(ctx, 4)?.expect("read").expect("pong");
        }
        let one_way = ((ctx.now() - t0) / iters as u64).as_micros_f64() / 2.0;
        *m2.lock() = one_way;
        c.close(ctx)?;
        Ok(())
    });
    sim.run();
    let us = *measured.lock();
    assert!(
        (105.0..135.0).contains(&us),
        "TCP 4-byte one-way latency {us:.1} us; paper reports ~120 us"
    );
}

fn measure_bandwidth(sockbuf: usize) -> f64 {
    const TOTAL: usize = 8 * 1024 * 1024;
    const CHUNK: usize = 64 * 1024;
    let sim = Sim::new();
    let cl = cluster(2);
    cl.nodes[0].stack.set_sockbuf(sockbuf);
    cl.nodes[1].stack.set_sockbuf(sockbuf);
    let server_addr = SockAddr::new(cl.nodes[1].addr(), 9);
    let measured = Arc::new(Mutex::new(0.0f64));
    let m2 = Arc::clone(&measured);

    let api_s = cl.nodes[1].api();
    sim.spawn("sink", move |ctx| {
        let l = api_s.listen(ctx, 9, 4)?.expect("port free");
        let c = l.accept(ctx)?.expect("connection");
        let mut got = 0usize;
        let t0 = ctx.now();
        loop {
            let data = c.read(ctx, CHUNK)?.expect("data");
            if data.is_empty() {
                break;
            }
            got += data.len();
        }
        let elapsed = ctx.now() - t0;
        assert_eq!(got, TOTAL);
        *m2.lock() = got as f64 * 8.0 / elapsed.as_secs_f64() / 1e6;
        Ok(())
    });
    let api_c = cl.nodes[0].api();
    sim.spawn("source", move |ctx| {
        let c = api_c.connect(ctx, server_addr)?.expect("accepted");
        let chunk = vec![0x5au8; CHUNK];
        for _ in 0..TOTAL / CHUNK {
            c.write(ctx, &chunk)?.expect("write");
        }
        c.close(ctx)?;
        Ok(())
    });
    sim.run();
    let mbps = *measured.lock();
    mbps
}

#[test]
fn bandwidth_with_default_16k_buffers_is_window_limited() {
    let mbps = measure_bandwidth(16 * 1024);
    assert!(
        (300.0..390.0).contains(&mbps),
        "TCP bandwidth with 16 KiB buffers {mbps:.0} Mbps; paper reports ~340 Mbps"
    );
}

#[test]
fn bandwidth_with_large_buffers_is_cpu_limited() {
    let mbps = measure_bandwidth(256 * 1024);
    assert!(
        (500.0..600.0).contains(&mbps),
        "TCP bandwidth with large buffers {mbps:.0} Mbps; paper reports ~550 Mbps"
    );
}

#[test]
fn larger_buffers_strictly_help_until_the_cpu_ceiling() {
    let a = measure_bandwidth(16 * 1024);
    let b = measure_bandwidth(64 * 1024);
    let c = measure_bandwidth(256 * 1024);
    let d = measure_bandwidth(512 * 1024);
    assert!(a < b, "16K ({a:.0}) must be slower than 64K ({b:.0})");
    assert!(b <= c + 1.0, "64K ({b:.0}) must not beat 256K ({c:.0})");
    // Beyond the CPU ceiling, more buffer gains (almost) nothing —
    // "after which increasing the kernel space allocated does not make
    // any difference" (§7.2).
    assert!((c - d).abs() < 25.0, "256K ({c:.0}) vs 512K ({d:.0})");
}

#[test]
fn connection_refused_when_no_listener() {
    let sim = Sim::new();
    let cl = cluster(2);
    let target = SockAddr::new(cl.nodes[1].addr(), 4444);
    let api = cl.nodes[0].api();
    sim.spawn("client", move |ctx| {
        let res = api.connect(ctx, target)?;
        assert_eq!(res.err(), Some(NetError::Refused));
        Ok(())
    });
    sim.run();
    assert_eq!(cl.nodes[1].stack.rsts_sent(), 1);
}

#[test]
fn backlog_overflow_refuses_connections() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server_addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let refused = Arc::new(Mutex::new(0u32));

    // Server listens with backlog 1 and never accepts.
    let api_s = cl.nodes[1].api();
    sim.spawn("lazy-server", move |ctx| {
        let _l = api_s.listen(ctx, 80, 1)?.expect("port free");
        ctx.delay(SimDuration::from_millis(50))?;
        Ok(())
    });
    for i in 0..3 {
        let api = cl.nodes[0].api();
        let refused = Arc::clone(&refused);
        sim.spawn(format!("client-{i}"), move |ctx| {
            ctx.delay(SimDuration::from_micros(100 + i * 500))?;
            if api.connect(ctx, server_addr)?.is_err() {
                *refused.lock() += 1;
            }
            Ok(())
        });
    }
    sim.run();
    // First connection fills the backlog; later ones are refused.
    assert_eq!(*refused.lock(), 2);
}

#[test]
fn bidirectional_writes_do_not_deadlock_within_buffers() {
    // The paper (§5.2) notes TCP tolerates write-write/read-read patterns
    // up to the kernel buffer size; verify 8 KiB each way works with
    // 16 KiB buffers.
    let sim = Sim::new();
    let cl = cluster(2);
    let server_addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();
    const N: usize = 4 * 1024;

    let api_s = cl.nodes[1].api();
    sim.spawn("peer-b", move |ctx| {
        let l = api_s.listen(ctx, 80, 4)?.expect("port free");
        let c = l.accept(ctx)?.expect("connection");
        // Write first, then read — mirror image of the client.
        c.write(ctx, &vec![2u8; N])?.expect("write");
        let got = c.read_exact(ctx, N)?.expect("read").expect("data");
        assert!(got.iter().all(|&b| b == 1));
        Ok(())
    });
    let api_c = cl.nodes[0].api();
    sim.spawn("peer-a", move |ctx| {
        let c = api_c.connect(ctx, server_addr)?.expect("accepted");
        c.write(ctx, &vec![1u8; N])?.expect("write");
        let got = c.read_exact(ctx, N)?.expect("read").expect("data");
        assert!(got.iter().all(|&b| b == 2));
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn udp_datagram_roundtrip_with_fragmentation() {
    let sim = Sim::new();
    let cl = cluster(2);
    let b_addr = SockAddr::new(cl.nodes[1].addr(), 5000);
    let done = Completion::new();
    let done2 = done.clone();

    let api_b = cl.nodes[1].api();
    sim.spawn("udp-b", move |ctx| {
        let s = api_b.udp_bind(ctx, 5000)?.expect("port free");
        let (from, data) = s.recv_from(ctx)?;
        assert_eq!(data.len(), 4000); // fragmented into 3 frames
        assert_eq!(from.port, 5001);
        s.send_to(ctx, from, &data[..100])?;
        Ok(())
    });
    let api_a = cl.nodes[0].api();
    sim.spawn("udp-a", move |ctx| {
        let s = api_a.udp_bind(ctx, 5001)?.expect("port free");
        ctx.delay(SimDuration::from_micros(50))?;
        s.send_to(ctx, b_addr, &vec![7u8; 4000])?;
        let (_, reply) = s.recv_from(ctx)?;
        assert_eq!(reply.len(), 100);
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn select_wakes_on_the_readable_connection() {
    let sim = Sim::new();
    let cl = cluster(3);
    let server_addr = SockAddr::new(cl.nodes[0].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    let api_s = cl.nodes[0].api();
    sim.spawn("selector", move |ctx| {
        let l = api_s.listen(ctx, 80, 8)?.expect("port free");
        let c1 = l.accept(ctx)?.expect("connection");
        let c2 = l.accept(ctx)?.expect("connection");
        // Identify connections by peer host.
        let conns = [&c1, &c2];
        let idx = api_s.select_readable(ctx, &conns)?.expect("nonempty set");
        let data = conns[idx].read(ctx, 64)?.expect("data");
        assert_eq!(&data[..], b"from-2");
        assert_eq!(conns[idx].peer_addr().host, simnet::MacAddr(2));
        done2.complete(ctx);
        Ok(())
    });
    for i in [1u16, 2u16] {
        let api = cl.nodes[i as usize].api();
        sim.spawn(format!("client-{i}"), move |ctx| {
            let c = api.connect(ctx, server_addr)?.expect("accepted");
            if i == 2 {
                ctx.delay(SimDuration::from_millis(1))?;
                c.write(ctx, b"from-2")?.expect("write");
            } else {
                // Node 1 connects but stays silent.
                ctx.delay(SimDuration::from_millis(5))?;
            }
            c.close(ctx)?;
            Ok(())
        });
    }
    sim.run();
    assert!(done.is_done());
}

#[test]
fn runs_are_deterministic() {
    fn run_once() -> (u64, f64) {
        let mbps = measure_bandwidth(32 * 1024);
        (0, mbps)
    }
    assert_eq!(run_once().1.to_bits(), run_once().1.to_bits());
}

//! End-to-end tests of the sockets-over-EMP substrate, including the
//! paper's headline calibration points: 28.5 µs datagram latency and
//! ~37 µs data-streaming latency for 4-byte messages (§7.1), and a peak
//! bandwidth above 840 Mbps (§7.2).

use emp_proto::{build_cluster, EmpCluster, EmpConfig};
use parking_lot::Mutex;
use simnet::{Completion, Sim, SimAccess, SimDuration, SimTime, SwitchConfig};
use sockets_emp::{EmpSockets, NetError, SockAddr, SubstrateConfig};
use std::sync::Arc;

fn cluster(n: usize) -> EmpCluster {
    build_cluster(n, EmpConfig::default(), SwitchConfig::default())
}

fn substrate(cl: &EmpCluster, node: usize, cfg: SubstrateConfig) -> EmpSockets {
    EmpSockets::new(cl.nodes[node].endpoint(), cfg)
}

#[test]
fn stream_roundtrip_with_partial_reads() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = substrate(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 8)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        // The client sent 10 bytes in one write; data streaming lets us
        // read them as 4 + 6 (§4.1.2's "two sets of 5 bytes" behaviour).
        let a = conn.read(ctx, 4)?.expect("first part");
        assert_eq!(&a[..], b"0123");
        let b = conn.read(ctx, 100)?.expect("rest");
        assert_eq!(&b[..], b"456789");
        conn.write(ctx, b"pong")?.expect("reply");
        conn.close(ctx)?;
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.write(ctx, b"0123456789")?.expect("send");
        let r = conn.read(ctx, 64)?.expect("reply");
        assert_eq!(&r[..], b"pong");
        // After the peer closes, reads return EOF.
        let eof = conn.read(ctx, 64)?.expect("eof");
        assert!(eof.is_empty());
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn datagram_preserves_message_boundaries() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::dg());
    let client = substrate(&cl, 0, SubstrateConfig::dg());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 8)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        // Two sends = two messages, never coalesced.
        let m1 = conn.read(ctx, 1024)?.expect("m1");
        assert_eq!(&m1[..], b"first");
        let m2 = conn.read(ctx, 1024)?.expect("m2");
        assert_eq!(&m2[..], b"second message");
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.write(ctx, b"first")?.expect("send 1");
        conn.write(ctx, b"second message")?.expect("send 2");
        ctx.delay(SimDuration::from_millis(1))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

/// Shared ping-pong harness: returns the measured one-way latency in µs
/// for 4-byte messages under `cfg`.
fn pingpong_latency_us(cfg: SubstrateConfig) -> f64 {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let out = Arc::new(Mutex::new(0.0f64));
    let out2 = Arc::clone(&out);

    sim.spawn("echoer", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        loop {
            let m = conn.read(ctx, 64)?.expect("data");
            if m.is_empty() {
                break;
            }
            conn.write(ctx, &m)?.expect("echo");
        }
        Ok(())
    });
    sim.spawn("pinger", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        // Warm up (connection setup, translation caches).
        for _ in 0..4 {
            conn.write(ctx, b"warm")?.expect("w");
            conn.read_exact(ctx, 4)?.expect("r").expect("pong");
        }
        let iters = 100u32;
        let t0 = ctx.now();
        for _ in 0..iters {
            conn.write(ctx, b"ping")?.expect("w");
            conn.read_exact(ctx, 4)?.expect("r").expect("pong");
        }
        *out2.lock() = ((ctx.now() - t0) / iters as u64).as_micros_f64() / 2.0;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    let us = *out.lock();
    us
}

#[test]
fn datagram_latency_calibrates_to_paper() {
    let us = pingpong_latency_us(SubstrateConfig::dg());
    assert!(
        (26.5..31.0).contains(&us),
        "datagram 4-byte one-way latency {us:.2} us; paper reports 28.5 us"
    );
}

#[test]
fn streaming_latency_calibrates_to_paper() {
    let us = pingpong_latency_us(SubstrateConfig::ds_da_uq());
    assert!(
        (33.0..40.0).contains(&us),
        "DS_DA_UQ 4-byte one-way latency {us:.2} us; paper reports 37 us"
    );
}

#[test]
fn enhancement_ordering_matches_figure_11() {
    // Figure 11: DS >= DS_DA >= DS_DA_UQ > DG, all above raw EMP.
    let ds = pingpong_latency_us(SubstrateConfig::ds());
    let ds_da = pingpong_latency_us(SubstrateConfig::ds_da());
    let ds_da_uq = pingpong_latency_us(SubstrateConfig::ds_da_uq());
    let dg = pingpong_latency_us(SubstrateConfig::dg());
    assert!(
        ds >= ds_da - 0.01,
        "delayed acks must not hurt: DS {ds:.2} vs DS_DA {ds_da:.2}"
    );
    // At 32 credits with delayed acks only ~3 ack descriptors exist, so
    // the unexpected-queue benefit is within noise here (its real effect
    // shows at small credit counts — Figure 12); it must not *hurt* by
    // more than a poll's worth.
    assert!(
        ds_da >= ds_da_uq - 0.7,
        "unexpected-queue acks must not hurt: {ds_da:.2} vs {ds_da_uq:.2}"
    );
    assert!(
        ds_da_uq > dg,
        "datagram must beat streaming: {ds_da_uq:.2} vs {dg:.2}"
    );
}

#[test]
fn stream_bandwidth_exceeds_840mbps() {
    const MSG: usize = 64 * 1024;
    const COUNT: usize = 64;
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = substrate(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let out = Arc::new(Mutex::new(0.0f64));
    let out2 = Arc::clone(&out);

    sim.spawn("sink", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        let mut got = 0usize;
        let t0 = ctx.now();
        while got < MSG * COUNT {
            let d = conn.read(ctx, MSG)?.expect("data");
            assert!(!d.is_empty());
            got += d.len();
        }
        let elapsed = ctx.now() - t0;
        *out2.lock() = (got as f64 * 8.0) / elapsed.as_secs_f64() / 1e6;
        Ok(())
    });
    sim.spawn("source", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let buf = vec![0xa5u8; MSG];
        for _ in 0..COUNT {
            conn.write(ctx, &buf)?.expect("send");
        }
        ctx.delay(SimDuration::from_millis(2))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    let mbps = *out.lock();
    assert!(
        (780.0..920.0).contains(&mbps),
        "stream bandwidth {mbps:.0} Mbps; paper reports >840 Mbps"
    );
}

#[test]
fn credits_throttle_an_unread_sender() {
    // With N=2 credits and a receiver that never reads, only 2 messages
    // can be outstanding; the third write blocks until the receiver reads.
    let sim = Sim::new();
    let cl = cluster(2);
    let cfg = SubstrateConfig::ds().with_credits(2);
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let progress = Arc::new(Mutex::new(Vec::new()));
    let p2 = Arc::clone(&progress);

    sim.spawn("lazy-reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        ctx.delay(SimDuration::from_millis(5))?; // stall before reading
        loop {
            let d = conn.read(ctx, 4096)?.expect("data");
            if d.is_empty() {
                break;
            }
        }
        Ok(())
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        for i in 0..4 {
            conn.write(ctx, &[i as u8; 100])?.expect("send");
            p2.lock().push((i, ctx.now().nanos()));
        }
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    let p = progress.lock();
    assert_eq!(p.len(), 4);
    // Writes 0 and 1 complete quickly; write 2 stalls until the reader
    // wakes at 5 ms.
    assert!(p[1].1 < 1_000_000, "second write fast, got {} ns", p[1].1);
    assert!(
        p[2].1 > 5_000_000,
        "third write must wait for the reader, got {} ns",
        p[2].1
    );
}

#[test]
fn delayed_acks_reduce_ack_traffic() {
    fn fcacks_for(cfg: SubstrateConfig) -> u64 {
        let sim = Sim::new();
        let cl = cluster(2);
        let server = substrate(&cl, 1, cfg.clone());
        let client = substrate(&cl, 0, cfg);
        let addr = SockAddr::new(cl.nodes[1].addr(), 80);
        sim.spawn("reader", move |ctx| {
            let l = server.listen(ctx, 80, 4)?.expect("port free");
            let conn = l.accept(ctx)?.expect("request");
            loop {
                let d = conn.read(ctx, 4096)?.expect("data");
                if d.is_empty() {
                    break;
                }
            }
            Ok(())
        });
        sim.spawn("writer", move |ctx| {
            let conn = client.connect(ctx, addr)?.expect("connect");
            for _ in 0..64 {
                conn.write(ctx, &[7u8; 256])?.expect("send");
            }
            ctx.delay(SimDuration::from_millis(2))?;
            conn.close(ctx)?;
            Ok(())
        });
        sim.run();
        // Substrate messages received by the *writer's* NIC are the
        // flow-control acks (the reader sends nothing else).
        cl.nodes[0].nic.stats().msgs_received
    }
    let eager = fcacks_for(SubstrateConfig::ds());
    let delayed = fcacks_for(SubstrateConfig::ds_da());
    // 64 messages: per-message acks ≈ 64; delayed (threshold 16) ≈ 4.
    assert!(
        eager >= 32,
        "per-message acks expected to be frequent, got {eager}"
    );
    assert!(
        delayed <= eager / 4,
        "delayed acks must cut ack traffic: {delayed} vs {eager}"
    );
}

#[test]
fn uq_mode_routes_acks_through_unexpected_queue() {
    let sim = Sim::new();
    let cl = cluster(2);
    let cfg = SubstrateConfig::ds_da_uq();
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        loop {
            let d = conn.read(ctx, 4096)?.expect("data");
            if d.is_empty() {
                break;
            }
        }
        Ok(())
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        for _ in 0..64 {
            conn.write(ctx, &[7u8; 256])?.expect("send");
        }
        ctx.delay(SimDuration::from_millis(2))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    // The writer's NIC must have taken fc-acks through the unexpected
    // queue rather than pre-posted descriptors.
    assert!(
        cl.nodes[0].nic.stats().unexpected_msgs > 0,
        "fc-acks should land in the unexpected queue in UQ mode"
    );
    assert_eq!(cl.nodes[0].nic.stats().frames_dropped, 0);
}

#[test]
fn rendezvous_transfers_large_datagrams() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::dg());
    let client = substrate(&cl, 0, SubstrateConfig::dg());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();
    const BIG: usize = 200_000;

    sim.spawn("receiver", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        let m = conn.read(ctx, BIG)?.expect("large datagram");
        assert_eq!(m.len(), BIG);
        assert!(m.iter().all(|&b| b == 0x42));
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let n = conn
            .write(ctx, &vec![0x42u8; BIG])?
            .expect("rendezvous send");
        assert_eq!(n, BIG);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn rendezvous_rejects_oversized_datagrams() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::dg());
    let client = substrate(&cl, 0, SubstrateConfig::dg());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("receiver", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        // Only willing to take 4 KiB; then get the follow-up small one.
        let m = conn.read(ctx, 4096)?.expect("small datagram");
        assert_eq!(&m[..], b"small");
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let err = conn
            .write(ctx, &vec![1u8; 100_000])?
            .expect_err("too big for receiver");
        assert!(matches!(err, NetError::TooBig { limit: 4096, .. }));
        conn.write(ctx, b"small")?.expect("fits");
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn figure7_rendezvous_deadlock_reproduces() {
    // §5.2 Figure 7: both peers send a large (rendezvous) message before
    // either receives — both block forever awaiting the grant.
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::dg());
    let client = substrate(&cl, 0, SubstrateConfig::dg());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let progressed = Arc::new(Mutex::new((false, false)));
    const BIG: usize = 100_000;

    let p = Arc::clone(&progressed);
    sim.spawn("peer-b", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        conn.write(ctx, &vec![2u8; BIG])?.expect("never completes");
        p.lock().1 = true;
        Ok(())
    });
    let p = Arc::clone(&progressed);
    sim.spawn("peer-a", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        ctx.delay(SimDuration::from_micros(200))?; // let accept complete
        conn.write(ctx, &vec![1u8; BIG])?.expect("never completes");
        p.lock().0 = true;
        Ok(())
    });
    sim.run_until(SimTime::from_millis(200));
    let (a, b) = *progressed.lock();
    assert!(
        !a && !b,
        "write-write on rendezvous datagrams must deadlock"
    );
}

#[test]
fn eager_write_write_read_read_does_not_deadlock_within_credits() {
    // The same pattern on *stream* sockets is safe up to N credits — the
    // whole point of eager-with-flow-control (§5.2, Figure 9).
    let sim = Sim::new();
    let cl = cluster(2);
    let cfg = SubstrateConfig::ds_da_uq().with_credits(4);
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();
    const N: usize = 8 * 1024;

    sim.spawn("peer-b", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        conn.write(ctx, &vec![2u8; N])?.expect("write first");
        let got = conn.read_exact(ctx, N)?.expect("read").expect("data");
        assert!(got.iter().all(|&b| b == 1));
        Ok(())
    });
    sim.spawn("peer-a", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.write(ctx, &vec![1u8; N])?.expect("write first");
        let got = conn.read_exact(ctx, N)?.expect("read").expect("data");
        assert!(got.iter().all(|&b| b == 2));
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn close_releases_descriptors() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = substrate(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);

    let server_nic = Arc::clone(&cl.nodes[1].nic);
    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 2)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        // Descriptors are batch-posted behind one doorbell; give the rx
        // CPU's insert task time to run before sampling.
        ctx.delay(SimDuration::from_micros(100))?;
        let before = server_nic.preposted_len();
        assert!(before >= 32, "N data descriptors + control posted");
        let d = conn.read(ctx, 64)?.expect("data");
        assert_eq!(&d[..], b"hi");
        conn.close(ctx)?;
        l.close(ctx)?;
        ctx.delay(SimDuration::from_micros(100))?;
        assert_eq!(
            server_nic.preposted_len(),
            0,
            "close must unpost every descriptor (§5.3)"
        );
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.write(ctx, b"hi")?.expect("send");
        ctx.delay(SimDuration::from_millis(1))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
}

#[test]
fn write_after_local_close_fails() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = substrate(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 2)?.expect("port free");
        let _conn = l.accept(ctx)?.expect("request");
        ctx.delay(SimDuration::from_millis(1))?;
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.close(ctx)?;
        let err = conn.write(ctx, b"late")?.expect_err("closed");
        assert_eq!(err, NetError::Closed);
        Ok(())
    });
    sim.run();
}

#[test]
fn select_readable_picks_the_live_connection() {
    let sim = Sim::new();
    let cl = cluster(3);
    let server = substrate(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[0].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    let server2 = server.clone();
    sim.spawn("selector", move |ctx| {
        let l = server2.listen(ctx, 80, 8)?.expect("port free");
        let c1 = l.accept(ctx)?.expect("conn 1");
        let c2 = l.accept(ctx)?.expect("conn 2");
        let conns = [&c1, &c2];
        let idx = server2.select_readable(ctx, &conns)?.expect("nonempty set");
        let d = conns[idx].read(ctx, 64)?.expect("data");
        assert_eq!(&d[..], b"from-2");
        assert_eq!(conns[idx].peer(), simnet::MacAddr(2));
        done2.complete(ctx);
        Ok(())
    });
    for i in [1u16, 2u16] {
        let s = substrate(&cl, i as usize, SubstrateConfig::ds_da_uq());
        sim.spawn(format!("client-{i}"), move |ctx| {
            ctx.delay(SimDuration::from_micros(u64::from(i) * 40))?;
            let conn = s.connect(ctx, addr)?.expect("connect");
            if i == 2 {
                ctx.delay(SimDuration::from_millis(1))?;
                conn.write(ctx, b"from-2")?.expect("send");
            }
            ctx.delay(SimDuration::from_millis(5))?;
            conn.close(ctx)?;
            Ok(())
        });
    }
    sim.run();
    assert!(done.is_done());
}

#[test]
fn pipelined_connect_and_write_reach_the_acceptor() {
    // The §7.4 behaviour: the client writes immediately after connect();
    // the request data beats accept()'s descriptor posting and must be
    // absorbed by the unexpected queue, not a retransmission storm.
    let sim = Sim::new();
    let cl = cluster(2);
    // Credit size 4, as the paper's web server uses — §7.4 notes that with
    // 32 credits "a lot of time would be wasted in the posting and garbage
    // collection of all the descriptors".
    let cfg = SubstrateConfig::ds_da_uq().with_credits(4);
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let served_at = Arc::new(Mutex::new(0u64));
    let s2 = Arc::clone(&served_at);

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        let d = conn.read(ctx, 64)?.expect("pipelined data");
        assert_eq!(&d[..], b"GET /index.html");
        *s2.lock() = ctx.now().nanos();
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.write(ctx, b"GET /index.html")?.expect("send");
        ctx.delay(SimDuration::from_millis(1))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    let t = *served_at.lock();
    assert!(t > 0, "request served");
    assert!(
        t < 200_000,
        "request must arrive without a retransmission delay; served at {t} ns"
    );
    assert_eq!(cl.nodes[0].nic.stats().sends_failed, 0);
}

#[test]
fn fd_table_routes_files_and_sockets() {
    use sockets_emp::FdTable;
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = substrate(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 21);
    cl.nodes[0]
        .host
        .fs()
        .put("local.txt", &b"file contents"[..]);
    let client_fs = cl.nodes[0].host.fs().clone();
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 21, 2)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        let d = conn.read_exact(ctx, 13)?.expect("read").expect("data");
        assert_eq!(&d[..], b"file contents");
        conn.close(ctx)?;
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let fds = FdTable::new(client, client_fs);
        // §5.4: the same read()/write() interface serves both a file and a
        // socket; the table decides where each call goes.
        let file_fd = fds.open(ctx, "local.txt")?.expect("open");
        let sock_fd = fds.socket_connect(ctx, addr)?.expect("connect");
        loop {
            let chunk = fds.read(ctx, file_fd, 5)?.expect("file read");
            if chunk.is_empty() {
                break;
            }
            fds.write(ctx, sock_fd, &chunk)?.expect("socket write");
        }
        fds.close(ctx, file_fd)?.expect("close file");
        fds.close(ctx, sock_fd)?.expect("close sock");
        assert_eq!(fds.live_fds(), 0);
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn stream_survives_a_lossy_fabric() {
    // Failure injection below the substrate: every 9th frame corrupted on
    // every link. EMP's reliability must make the sockets semantics hold
    // unchanged (bytes intact, in order, EOF exact).
    use simnet::LinkConfig;
    let sim = Sim::new();
    let lossy = SwitchConfig {
        link: LinkConfig {
            faults: simnet::FaultPlan::drop_every(9),
            ..LinkConfig::default()
        },
        ..SwitchConfig::default()
    };
    let cl = build_cluster(2, EmpConfig::default(), lossy);
    let server = substrate_on(&cl, 1);
    let client = substrate_on(&cl, 0);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();
    const TOTAL: usize = 300_000;

    fn substrate_on(cl: &EmpCluster, node: usize) -> EmpSockets {
        EmpSockets::new(cl.nodes[node].endpoint(), SubstrateConfig::ds_da_uq())
    }

    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let mut buf = Vec::with_capacity(TOTAL);
        while buf.len() < TOTAL {
            let m = conn.read(ctx, 8192)?.expect("data");
            assert!(!m.is_empty(), "premature EOF under loss");
            buf.extend_from_slice(&m);
        }
        for (i, b) in buf.iter().enumerate() {
            assert_eq!(*b as usize, (i * 13 + 5) % 239, "byte {i} corrupted");
        }
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let payload: Vec<u8> = (0..TOTAL).map(|i| ((i * 13 + 5) % 239) as u8).collect();
        for chunk in payload.chunks(50_000) {
            conn.write(ctx, chunk)?.expect("send");
        }
        ctx.delay(SimDuration::from_millis(50))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run_until(SimTime::from_secs(300));
    assert!(done.is_done(), "transfer must complete despite loss");
    assert!(
        cl.nodes[0].nic.stats().frames_retransmitted > 0,
        "loss must have exercised retransmission"
    );
}

#[test]
fn comm_thread_ablation_degrades_latency_as_the_paper_says() {
    use sockets_emp::RecvMode;
    // §5.2: the polling comm thread costs ~20 us of synchronization per
    // message; the blocking variant degrades to scheduling granularity.
    fn latency_with(mode: RecvMode) -> f64 {
        let mut cfg = SubstrateConfig::ds_da_uq();
        cfg.recv_mode = mode;
        pingpong_latency_us(cfg)
    }
    let direct = latency_with(RecvMode::Direct);
    let polling = latency_with(RecvMode::CommThreadPolling);
    let blocking = latency_with(RecvMode::CommThreadBlocking);
    // Polling adds one ~20 us thread sync per message per side.
    assert!(
        (polling - direct - 40.0).abs() < 5.0,
        "polling thread adds ~2x20 us: direct {direct:.1}, polling {polling:.1}"
    );
    // Blocking is "order of milliseconds".
    assert!(
        blocking > 5_000.0,
        "blocking comm thread must cost milliseconds, got {blocking:.0} us"
    );
}

#[test]
fn runs_are_deterministic() {
    fn once() -> (f64, u64) {
        let us = pingpong_latency_us(SubstrateConfig::ds_da_uq());
        (us, 0)
    }
    assert_eq!(once().0.to_bits(), once().0.to_bits());
}

//! Substrate edge cases: port limits, zero-length traffic, giant writes,
//! listener lifecycle, many sequential connections, id recycling.

use emp_proto::{build_cluster, EmpCluster, EmpConfig};
use parking_lot::Mutex;
use simnet::{Completion, Sim, SimDuration, SimError, SimTime, SwitchConfig};
use sockets_emp::{EmpSockets, NetError, SockAddr, SubstrateConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn cluster(n: usize) -> EmpCluster {
    build_cluster(n, EmpConfig::default(), SwitchConfig::default())
}

fn sub(cl: &EmpCluster, node: usize, cfg: SubstrateConfig) -> EmpSockets {
    EmpSockets::new(cl.nodes[node].endpoint(), cfg)
}

#[test]
fn ports_beyond_the_tag_space_are_rejected() {
    let sim = Sim::new();
    let cl = cluster(2);
    let s = sub(&cl, 0, SubstrateConfig::ds_da_uq());
    sim.spawn("p", move |ctx| {
        let too_big = 0x1000;
        assert_eq!(s.listen(ctx, too_big, 4)?.err(), Some(NetError::AddrInUse));
        assert_eq!(
            s.connect(ctx, SockAddr::new(simnet::MacAddr(1), too_big))?
                .err(),
            Some(NetError::AddrInUse)
        );
        Ok(())
    });
    sim.run();
}

/// The connection request carries the credit count in 16 bits: a count it
/// cannot carry is refused before anything is posted, not truncated (65 536
/// would announce a window of 0 to the peer).
#[test]
fn a_credit_count_the_request_cannot_carry_is_rejected() {
    let sim = Sim::new();
    let cl = cluster(2);
    let cfg = SubstrateConfig {
        credits: 65_536,
        ..SubstrateConfig::ds_da_uq()
    };
    let s = sub(&cl, 0, cfg);
    let s2 = s.clone();
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    sim.spawn("p", move |ctx| {
        assert_eq!(s.connect(ctx, addr)?.err(), Some(NetError::Invalid));
        Ok(())
    });
    sim.run();
    assert_eq!(s2.stats().connections, 0);
    assert_eq!(cl.nodes[0].nic.preposted_len(), 0);
}

#[test]
fn duplicate_listen_is_rejected() {
    let sim = Sim::new();
    let cl = cluster(1);
    let s = sub(&cl, 0, SubstrateConfig::ds_da_uq());
    sim.spawn("p", move |ctx| {
        let _l = s.listen(ctx, 80, 4)?.expect("first listen");
        assert_eq!(s.listen(ctx, 80, 4)?.err(), Some(NetError::AddrInUse));
        Ok(())
    });
    sim.run();
}

#[test]
fn zero_length_stream_write_is_a_noop() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = sub(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = sub(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port");
        let conn = l.accept(ctx)?.expect("conn");
        let d = conn.read(ctx, 64)?.expect("data");
        assert_eq!(&d[..], b"after-empty");
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        assert_eq!(conn.write(ctx, b"")?.expect("empty write"), 0);
        conn.write(ctx, b"after-empty")?.expect("send");
        ctx.delay(SimDuration::from_millis(1))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn giant_write_fragments_beyond_the_credit_budget() {
    // 2 credits x 8 KiB buffers but a 200 KiB write: 25 messages, forced
    // through the flow-control loop many times over.
    let mut cfg = SubstrateConfig::ds_da_uq().with_credits(2);
    cfg.temp_buf_size = 8 * 1024;
    let sim = Sim::new();
    let cl = cluster(2);
    let server = sub(&cl, 1, cfg.clone());
    let client = sub(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    const TOTAL: usize = 200_000;
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port");
        let conn = l.accept(ctx)?.expect("conn");
        let mut got = 0usize;
        while got < TOTAL {
            let d = conn.read(ctx, 16 * 1024)?.expect("data");
            assert!(!d.is_empty());
            for (i, b) in d.iter().enumerate() {
                assert_eq!(*b as usize, (got + i) % 199);
            }
            got += d.len();
        }
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let payload: Vec<u8> = (0..TOTAL).map(|i| (i % 199) as u8).collect();
        assert_eq!(conn.write(ctx, &payload)?.expect("giant write"), TOTAL);
        ctx.delay(SimDuration::from_millis(5))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run_until(SimTime::from_secs(60));
    assert!(done.is_done());
}

#[test]
fn connection_ids_are_quarantined_not_instantly_reused() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = sub(&cl, 1, SubstrateConfig::ds_da_uq().with_credits(2));
    let client = sub(&cl, 0, SubstrateConfig::ds_da_uq().with_credits(2));
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let cids = Arc::new(Mutex::new(Vec::new()));
    let c2 = Arc::clone(&cids);
    const ROUNDS: usize = 5;

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port");
        for _ in 0..ROUNDS {
            let conn = l.accept(ctx)?.expect("conn");
            let d = conn.read(ctx, 16)?.expect("data");
            conn.write(ctx, &d)?.expect("echo");
            loop {
                if conn.read(ctx, 16)?.expect("drain").is_empty() {
                    break;
                }
            }
            conn.close(ctx)?;
        }
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        for i in 0..ROUNDS {
            let conn = client.connect(ctx, addr)?.expect("connect");
            c2.lock().push(conn.cid());
            conn.write(ctx, format!("round-{i}").as_bytes())?
                .expect("send");
            let r = conn.read(ctx, 16)?.expect("echo");
            assert_eq!(&r[..], format!("round-{i}").as_bytes());
            conn.close(ctx)?;
        }
        Ok(())
    });
    sim.run();
    let ids = cids.lock();
    assert_eq!(ids.len(), ROUNDS);
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ROUNDS, "fresh cid per connection: {ids:?}");
}

#[test]
fn listener_close_releases_backlog_descriptors() {
    let sim = Sim::new();
    let cl = cluster(1);
    let s = sub(&cl, 0, SubstrateConfig::ds_da_uq());
    let nic = Arc::clone(&cl.nodes[0].nic);
    sim.spawn("p", move |ctx| {
        let l = s.listen(ctx, 80, 6)?.expect("port");
        ctx.delay(SimDuration::from_micros(50))?;
        assert_eq!(nic.preposted_len(), 6, "backlog descriptors posted");
        l.close(ctx)?;
        ctx.delay(SimDuration::from_micros(50))?;
        assert_eq!(nic.preposted_len(), 0, "listener close unposts them");
        // The port is free again.
        let _l2 = s.listen(ctx, 80, 2)?.expect("relisten");
        Ok(())
    });
    sim.run();
}

#[test]
fn reads_capped_at_zero_bytes_return_immediately() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = sub(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = sub(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port");
        let conn = l.accept(ctx)?.expect("conn");
        let t0 = simnet::SimAccess::now(ctx);
        let d = conn.read(ctx, 0)?.expect("zero read");
        assert!(d.is_empty());
        assert_eq!(simnet::SimAccess::now(ctx), t0, "no blocking, no cost");
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        ctx.delay(SimDuration::from_millis(1))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
}

#[test]
fn connection_statistics_track_traffic() {
    use sockets_emp::ConnStats;
    let sim = Sim::new();
    let cl = cluster(2);
    let cfg = SubstrateConfig::ds().with_credits(2); // per-message explicit acks
    let server = sub(&cl, 1, cfg.clone());
    let client = sub(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let server_stats = Arc::new(Mutex::new(ConnStats::default()));
    let client_stats = Arc::new(Mutex::new(ConnStats::default()));

    let ss = Arc::clone(&server_stats);
    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port");
        let conn = l.accept(ctx)?.expect("conn");
        let mut got = 0;
        while got < 1000 {
            let d = conn.read(ctx, 4096)?.expect("data");
            got += d.len();
        }
        conn.write(ctx, &[1u8; 100])?.expect("reply");
        ctx.delay(SimDuration::from_millis(2))?;
        *ss.lock() = conn.stats();
        conn.close(ctx)?;
        Ok(())
    });
    let cs = Arc::clone(&client_stats);
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        for _ in 0..10 {
            conn.write(ctx, &[7u8; 100])?.expect("send");
        }
        let r = conn.read_exact(ctx, 100)?.expect("read").expect("reply");
        assert_eq!(r.len(), 100);
        ctx.delay(SimDuration::from_millis(2))?;
        *cs.lock() = conn.stats();
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    let s = *server_stats.lock();
    let c = *client_stats.lock();
    assert_eq!(c.bytes_sent, 1000);
    assert_eq!(c.msgs_sent, 10);
    assert_eq!(c.bytes_received, 100);
    assert_eq!(s.bytes_received, 1000);
    assert_eq!(s.msgs_received, 10);
    assert_eq!(s.bytes_sent, 100);
    // Per-message explicit acks (threshold 1, piggyback off in ds()).
    assert_eq!(s.fcacks_sent, 10);
    // The client ran out of its 2 credits repeatedly.
    assert!(c.credit_stalls > 0, "2 credits for 10 messages must stall");
}

#[test]
fn rendezvous_statistics_count_round_trips() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = sub(&cl, 1, SubstrateConfig::dg());
    let client = sub(&cl, 0, SubstrateConfig::dg());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port");
        let conn = l.accept(ctx)?.expect("conn");
        // Both reads offer 100 KiB: the first returns the small eager
        // message (boundaries preserved), the second the rendezvous one.
        let small = conn.read(ctx, 100_000)?.expect("small");
        assert_eq!(small.len(), 100);
        let large = conn.read(ctx, 100_000)?.expect("large");
        assert_eq!(large.len(), 50_000);
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.write(ctx, &[1u8; 100])?.expect("eager");
        conn.write(ctx, &[2u8; 50_000])?.expect("rendezvous");
        ctx.delay(SimDuration::from_millis(1))?;
        let st = conn.stats();
        assert_eq!(st.msgs_sent, 2);
        assert_eq!(st.rendezvous, 1, "only the large datagram rendezvoused");
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn shutdown_write_half_closes() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = sub(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = sub(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port");
        let conn = l.accept(ctx)?.expect("conn");
        // Drain the request until the client's shutdown EOF...
        let mut req = Vec::new();
        loop {
            let d = conn.read(ctx, 64)?.expect("data");
            if d.is_empty() {
                break;
            }
            req.extend_from_slice(&d);
        }
        assert_eq!(&req[..], b"whole request");
        // ...then respond on the still-open reverse direction.
        conn.write(ctx, b"whole response")?.expect("respond");
        conn.close(ctx)?;
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.write(ctx, b"whole request")?.expect("send");
        conn.shutdown_write(ctx)?;
        let err = conn.write(ctx, b"more")?.expect_err("write side closed");
        assert_eq!(err, NetError::Closed);
        let resp = conn.read_exact(ctx, 14)?.expect("read").expect("response");
        assert_eq!(&resp[..], b"whole response");
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn accept_after_listener_close_errors_cleanly() {
    let sim = Sim::new();
    let cl = cluster(1);
    let s = sub(&cl, 0, SubstrateConfig::ds_da_uq());
    sim.spawn("p", move |ctx| {
        let l = s.listen(ctx, 80, 2)?.expect("port");
        l.close(ctx)?;
        assert_eq!(l.accept(ctx)?.err(), Some(NetError::Closed));
        Ok(())
    });
    sim.run();
}

/// A one-way stream of `writes` 1 KiB writes, then a close, from a
/// `client` to a `server` configuration, bounded at 2 s of sim time: the
/// bytes the server read (`None` if the stream did not finish), and the
/// fc-ack descriptors it kept posted for the connection meanwhile.
fn one_way(server: SubstrateConfig, client: SubstrateConfig) -> Option<(Vec<u8>, usize)> {
    let sim = Sim::new();
    let cl = cluster(2);
    let nic = Arc::clone(&cl.nodes[1].nic);
    let server = sub(&cl, 1, server);
    let client = sub(&cl, 0, client);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let got = Arc::new(Mutex::new((Vec::new(), 0)));
    let got2 = Arc::clone(&got);
    let done = Completion::new();
    let done2 = done.clone();
    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port");
        let conn = l.accept(ctx)?.expect("conn");
        let fcack = sockets_emp::tags::fcack_tag(0, true);
        loop {
            let d = conn.read(ctx, 4096)?.expect("data");
            if d.is_empty() {
                break;
            }
            let mut g = got2.lock();
            g.0.extend_from_slice(&d);
            g.1 = nic
                .debug_preposted()
                .iter()
                .filter(|p| p.0 == fcack)
                .count();
        }
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        for i in 0..8u8 {
            conn.write(ctx, &[i; 1024])?.expect("send");
        }
        conn.close(ctx)?;
        Ok(())
    });
    let finished = sim.run_until_complete(&done, SimTime::from_secs(2));
    let g = got.lock();
    finished.then(|| g.clone())
}

/// An acceptor adopts the client's N and, with it, §6.3's threshold of
/// half of N: a `ds_da()` server (32 credits of its own, so 16) returns
/// a credit every two messages of a 4-credit client, whose one-way stream
/// would otherwise stall for a return that never comes. It sizes its
/// fc-ack descriptors (and, in unexpected-queue mode, its quota) by that
/// N too, as a server configured with the client's credits does.
#[test]
fn an_acceptor_paces_credit_returns_by_the_clients_window() {
    let expect: Vec<u8> = (0..8u8).flat_map(|i| [i; 1024]).collect();
    for n in [3, 4] {
        let client = SubstrateConfig::ds_da().with_credits(n);
        let (bytes, fcacks) = one_way(SubstrateConfig::ds_da(), client.clone())
            .unwrap_or_else(|| panic!("N = {n}: the stream stalled"));
        assert!(bytes == expect, "N = {n}: the stream arrived corrupted");
        let own = one_way(client.clone(), client.clone()).expect("alike").1;
        assert_eq!(fcacks, own, "N = {n}");
        assert_eq!(fcacks, client.fcack_descriptors(n), "N = {n}");
        let uq = SubstrateConfig::ds_da_uq();
        let (bytes, _) = one_way(uq.clone(), uq.with_credits(n)).expect("uq stream");
        assert!(bytes == expect, "N = {n}: the UQ stream arrived corrupted");
    }
}

/// A reader that never writes never reaps its sends: each fc-ack it sends
/// drops the ones that completed, so the handles it holds stay bounded
/// however many messages it consumes.
#[test]
fn a_pure_reader_holds_no_completed_fcack_handles() {
    const MSGS: u64 = 1_000;
    let sim = Sim::new();
    let cl = cluster(2);
    let server = sub(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = sub(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let seen = Arc::new(Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port");
        let conn = l.accept(ctx)?.expect("conn");
        while conn.stats().msgs_received < MSGS {
            assert!(!conn.read(ctx, 64)?.expect("data").is_empty());
        }
        *seen2.lock() = Some((conn.stats(), conn.debug_state().sends_in_flight));
        conn.close(ctx)
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        for _ in 0..MSGS {
            conn.write(ctx, &[7u8; 64])?.expect("write");
        }
        conn.close(ctx)
    });
    sim.run_until(SimTime::from_secs(10));
    let (stats, held) = seen.lock().expect("the reader consumed every message");
    assert!(
        stats.msgs_received >= MSGS && stats.fcacks_sent >= 10,
        "{stats:?}"
    );
    assert!(
        held <= 2,
        "{held} send handles held after {} fc-acks",
        stats.fcacks_sent
    );
}

/// A process that fails while another is parked inside a socket `read`:
/// `run` re-raises the failure only after the reader was terminated — its
/// `read` returned `Terminated` — so no process code runs while the
/// failure unwinds.
#[test]
fn a_failing_process_terminates_a_reader_parked_in_read_before_run_reraises() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = sub(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = sub(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let reading = Arc::new(Mutex::new(false));
    let read_result = Arc::new(Mutex::new(None));
    let (reading2, read_result2) = (Arc::clone(&reading), Arc::clone(&read_result));
    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port");
        let conn = l.accept(ctx)?.expect("conn");
        *reading2.lock() = true;
        let res = conn.read(ctx, 64);
        *read_result2.lock() = Some(res.as_ref().err().cloned());
        res.map(drop)
    });
    sim.spawn("writer", move |ctx| {
        let _conn = client.connect(ctx, addr)?.expect("connect");
        ctx.delay(SimDuration::from_millis(1))?;
        panic!("the writer gave up");
    });
    let payload = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run re-raises");
    let msg = payload
        .downcast_ref::<String>()
        .expect("a formatted failure");
    assert!(
        msg.contains("process 'writer' panicked: the writer gave up"),
        "{msg}"
    );
    assert!(*reading.lock(), "the reader was parked in read");
    assert_eq!(*read_result.lock(), Some(Some(SimError::Terminated)));
}

//! Descriptor re-arms under the §6.1 switch (`SubstrateConfig::piggyback_acks`).
//!
//! With the switch on, a consumed stream data descriptor is not reposted
//! when its message is read: it waits on the connection until the next
//! send that returns its credit — a data message carrying piggy-backed
//! credits, a staged flush, or the explicit flow-control ack — and that
//! send's NIC request re-arms it. A credit therefore never leaves without
//! its descriptor, and a close frees what is still waiting. The four
//! presets leave the switch off and repost at consume time, as the paper
//! describes.

use std::sync::Arc;

use emp_proto::{build_cluster, EmpCluster, EmpConfig};
use parking_lot::Mutex;
use simnet::{ProcessCtx, Sim, SimDuration, SimResult, SwitchConfig};
use sockets_emp::{ConnDebugState, ConnStats, Connection, EmpSockets, SockAddr, SubstrateConfig};

fn cluster() -> EmpCluster {
    build_cluster(2, EmpConfig::default(), SwitchConfig::default())
}

/// Connect once the server listens, and return once it accepted: a
/// connection request or first message racing the server's descriptors
/// waits in the unexpected queue (§7.4's pipelined connect), which is not
/// what this suite is about. The request goes bare (`flush()`), so the
/// server accepts now and the first write binds a data descriptor like
/// every later one instead of riding the request (DESIGN §12).
fn connect_settled(ctx: &ProcessCtx, api: &EmpSockets, addr: SockAddr) -> SimResult<Connection> {
    let settle = SimDuration::from_millis(2);
    ctx.delay(settle)?;
    let conn = api.connect(ctx, addr)?.expect("connect");
    conn.flush(ctx)?.expect("bare request");
    ctx.delay(settle)?;
    Ok(conn)
}

/// The byte at offset `i` of the test streams.
fn pattern(i: usize) -> u8 {
    (i % 251) as u8
}

/// Per side: the connection's counters and receive state just before it
/// closed.
type Side = (ConnStats, ConnDebugState);

/// `rounds` requests of `req` bytes from node 0, each answered with `resp`
/// bytes by node 1. Returns `(client, server)`.
fn request_response(
    cl: &EmpCluster,
    cfg: SubstrateConfig,
    rounds: usize,
    req: usize,
    resp: usize,
) -> (Side, Side) {
    let sim = Sim::new();
    let server = EmpSockets::new(cl.nodes[1].endpoint(), cfg.clone());
    let client = EmpSockets::new(cl.nodes[0].endpoint(), cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let out: Arc<Mutex<Vec<Side>>> = Arc::default();

    let o = Arc::clone(&out);
    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let answer = vec![0x5Au8; resp];
        for _ in 0..rounds {
            conn.read_exact(ctx, req)?.expect("read").expect("request");
            conn.write(ctx, &answer)?.expect("response");
        }
        assert!(conn.read(ctx, 1)?.expect("eof").is_empty());
        o.lock().push((conn.stats(), conn.debug_state()));
        conn.close(ctx)
    });
    let o = Arc::clone(&out);
    sim.spawn("client", move |ctx| {
        let conn = connect_settled(ctx, &client, addr)?;
        let ask = vec![0xA5u8; req];
        for _ in 0..rounds {
            conn.write(ctx, &ask)?.expect("request");
            conn.read_exact(ctx, resp)?
                .expect("read")
                .expect("response");
        }
        o.lock().insert(0, (conn.stats(), conn.debug_state()));
        conn.close(ctx)
    });
    sim.run();
    let sides = out.lock().clone();
    (sides[0], sides[1])
}

/// A one-way stream of `writes` from node 0 to node 1, verified byte by
/// byte by a reader taking `read_max` at a time. Returns the reader side.
fn one_way(cl: &EmpCluster, cfg: SubstrateConfig, writes: &[usize], read_max: usize) -> Side {
    let sim = Sim::new();
    let server = EmpSockets::new(cl.nodes[1].endpoint(), cfg.clone());
    let client = EmpSockets::new(cl.nodes[0].endpoint(), cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let total: usize = writes.iter().sum();
    let out: Arc<Mutex<Option<Side>>> = Arc::default();

    let o = Arc::clone(&out);
    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let mut got = 0;
        loop {
            let chunk = conn.read(ctx, read_max)?.expect("data");
            if chunk.is_empty() {
                break;
            }
            for (k, b) in chunk.iter().enumerate() {
                assert_eq!(*b, pattern(got + k), "stream byte {}", got + k);
            }
            got += chunk.len();
        }
        assert_eq!(got, total, "stream length");
        *o.lock() = Some((conn.stats(), conn.debug_state()));
        conn.close(ctx)
    });
    let writes = writes.to_vec();
    sim.spawn("writer", move |ctx| {
        let conn = connect_settled(ctx, &client, addr)?;
        let mut off = 0;
        for len in writes {
            let buf: Vec<u8> = (off..off + len).map(pattern).collect();
            conn.write(ctx, &buf)?.expect("write");
            off += len;
        }
        conn.close(ctx)
    });
    sim.run();
    let side = out.lock().expect("reader finished");
    side
}

/// Every descriptor a side consumed was re-armed by one of its sends or
/// is still waiting for one, and the descriptors of its receive window —
/// `window`, the initial two or N once grown — are all accounted for.
fn assert_rearmed(who: &str, (stats, st): Side, window: u32) {
    assert_eq!(
        stats.rearms_ridden + st.rearms_pending as u64,
        stats.msgs_received,
        "{who}: every consumed descriptor re-armed or waiting"
    );
    assert_eq!(stats.credits_without_rearm, 0, "{who}");
    assert_eq!(st.window, window, "{who}");
    assert_eq!(st.data_slots + st.rearms_pending, window as usize, "{who}");
}

#[test]
fn request_response_rearms_every_consumed_descriptor_on_a_reply() {
    let cfg = SubstrateConfig::default();
    let cl = cluster();
    let (client, server) = request_response(&cl, cfg, 64, 64, 512);
    assert_eq!(server.0.msgs_received, 64);
    // Each request's descriptor rides back on its own response.
    assert_eq!(server.0.rearms_ridden, 64);
    assert_eq!(server.1.rearms_pending, 0);
    assert_eq!(server.0.fcacks_sent, 0, "responses carry every credit");
    // One message unconsumed at a time: both windows stay at two.
    assert_rearmed("client", client, 2);
    assert_rearmed("server", server, 2);
    for node in &cl.nodes {
        let s = node.nic.stats();
        assert_eq!(
            s.unexpected_msgs, 0,
            "a message found its descriptor missing"
        );
        assert!(s.tx_fw.rearm > 0, "the tx CPU inserts the re-arms");
    }
}

#[test]
fn a_one_way_stream_rearms_on_its_flow_control_acks_and_stays_byte_exact() {
    let cfg = SubstrateConfig::default();
    let credits = cfg.credits;
    let cl = cluster();
    // Mixed sizes: zero-copy writes past 16 KiB, buffered and staged ones
    // below it, so every send path returns credits to the writer.
    let writes: Vec<usize> = (0..96).map(|i| [40_000, 9_000, 700, 64][i % 4]).collect();
    let reader = one_way(&cl, cfg, &writes, 3_000);
    let (stats, st) = reader;
    assert!(stats.fcacks_sent > 0);
    assert_eq!(stats.piggybacked_credits, 0, "the reader never writes");
    // The reader's NIC inserted exactly the re-arms its acks carried,
    // and the N − 2 descriptors of the window's one growth.
    let reader_nic = cl.nodes[1].nic.stats();
    let per_rearm = EmpConfig::default().rx_post_cost.nanos();
    assert_eq!(
        (stats.window_grows, stats.window_grants),
        (1, u64::from(credits - 2))
    );
    assert_eq!(
        reader_nic.tx_fw.rearm,
        (stats.rearms_ridden + stats.window_grants) * per_rearm
    );
    assert_eq!(reader_nic.unexpected_msgs, 0);
    assert_rearmed("reader", (stats, st), credits);
}

#[test]
fn a_staging_deadline_flush_rearms_from_event_context() {
    // The server answers request B while its 16 KiB answer to A is still
    // on the wire, so the second answer is staged, and then makes no
    // substrate call: only the staging deadline's timer can send it, and
    // with it B's credit and the re-arm of B's descriptor. Two warm-up
    // messages first grow the client's window to N: with two credits the
    // server would flush answer B at once on credit pressure.
    const BIG: usize = 16 * 1024;
    let credits = SubstrateConfig::default().credits;
    let sim = Sim::new();
    let cl = cluster();
    let server = EmpSockets::new(cl.nodes[1].endpoint(), SubstrateConfig::default());
    let client = EmpSockets::new(cl.nodes[0].endpoint(), SubstrateConfig::default());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let out: Arc<Mutex<Option<Side>>> = Arc::default();

    let o = Arc::clone(&out);
    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        conn.write(ctx, &[3u8; 64])?.expect("warm-up");
        ctx.delay(SimDuration::from_micros(100))?;
        conn.write(ctx, &[4u8; 64])?.expect("warm-up");
        conn.read_exact(ctx, 64)?.expect("read").expect("request A");
        conn.write(ctx, &[1u8; BIG])?.expect("answer A, buffered");
        conn.read_exact(ctx, 64)?.expect("read").expect("request B");
        conn.write(ctx, &[2u8; 64])?.expect("answer B, staged");
        let st = conn.debug_state();
        assert_eq!((st.rearms_pending, conn.stats().writes_coalesced), (1, 1));
        ctx.delay(SimDuration::from_millis(1))?;
        *o.lock() = Some((conn.stats(), conn.debug_state()));
        assert!(conn.read(ctx, 1)?.expect("eof").is_empty());
        conn.close(ctx)
    });
    sim.spawn("client", move |ctx| {
        let conn = connect_settled(ctx, &client, addr)?;
        conn.read_exact(ctx, 128)?.expect("read").expect("warm-up");
        assert_eq!(conn.debug_state().window, credits);
        // Let the growing return be acknowledged: a send in flight would
        // stage request A.
        ctx.delay(SimDuration::from_micros(100))?;
        conn.write(ctx, &[7u8; 64])?.expect("request A");
        ctx.delay(SimDuration::from_micros(20))?;
        conn.write(ctx, &[8u8; 64])?.expect("request B");
        let answers = conn
            .read_exact(ctx, BIG + 64)?
            .expect("read")
            .expect("answers");
        assert!(answers[..BIG].iter().all(|&b| b == 1));
        assert!(answers[BIG..].iter().all(|&b| b == 2));
        conn.close(ctx)
    });
    sim.run();
    let (stats, st) = out.lock().expect("server finished");
    assert_eq!(stats.coalesce_flushes, 1, "the timer sent answer B");
    assert_eq!((stats.msgs_received, stats.rearms_ridden), (2, 2));
    assert_eq!(st.rearms_pending, 0);
    assert_eq!(stats.credits_without_rearm, 0);
}

#[test]
fn closing_with_rearms_pending_leaks_no_buffer_or_descriptor() {
    // 100 connections, each read once and closed by the server with its
    // request's descriptor still waiting for a credit-returning send:
    // the close frees the buffer, so neither the process range pool nor
    // the pinned pages grow after the first cycle, and once the listener
    // closes too the NIC holds no descriptor at all.
    const CYCLES: usize = 100;
    let sim = Sim::new();
    let cl = cluster();
    let server = EmpSockets::new(cl.nodes[1].endpoint(), SubstrateConfig::default());
    let client = EmpSockets::new(cl.nodes[0].endpoint(), SubstrateConfig::default());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let host = cl.nodes[1].host.clone();
    // (pooled ranges, pinned pages) after each close.
    let after: Arc<Mutex<Vec<(usize, u64)>>> = Arc::default();

    let a = Arc::clone(&after);
    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        for _ in 0..CYCLES {
            let conn = l.accept(ctx)?.expect("connection");
            conn.read_exact(ctx, 64)?.expect("read").expect("request");
            assert_eq!(conn.debug_state().rearms_pending, 1);
            conn.close(ctx)?;
            // Let the unposts land on the NIC.
            ctx.delay(SimDuration::from_micros(200))?;
            let pinned = host.memory().lock().pinned_pages();
            let pooled = server.stats().pooled_ranges;
            a.lock().push((pooled, pinned));
        }
        l.close(ctx)
    });
    sim.spawn("client", move |ctx| {
        for _ in 0..CYCLES {
            let conn = client.connect(ctx, addr)?.expect("connect");
            // Bare request: the request below binds a data descriptor.
            conn.flush(ctx)?.expect("bare request");
            conn.write(ctx, &[7u8; 64])?.expect("request");
            assert!(conn.read(ctx, 1)?.expect("eof").is_empty());
            conn.close(ctx)?;
        }
        Ok(())
    });
    sim.run();
    let after = after.lock().clone();
    assert_eq!(after.len(), CYCLES);
    assert!(
        after.iter().all(|x| *x == after[0]),
        "pool or pinned pages grew: first {:?}, last {:?}",
        after[0],
        after[CYCLES - 1]
    );
    assert_eq!(
        cl.nodes[1].nic.preposted_len(),
        0,
        "a descriptor was stranded"
    );
}

#[test]
fn the_presets_repost_at_consume_time_and_never_rearm_on_a_send() {
    let presets = [
        SubstrateConfig::ds(),
        SubstrateConfig::ds_da(),
        SubstrateConfig::ds_da_uq(),
        SubstrateConfig::dg(),
    ];
    for cfg in presets {
        let stream = cfg.socket_type == sockets_emp::SocketType::Stream;
        let credits = cfg.credits as usize;
        // A fresh cluster per run: NICs carry protocol state across sims.
        let clusters = [cluster(), cluster()];
        let mut sides = vec![];
        let (client, server) = request_response(&clusters[0], cfg.clone(), 16, 64, 512);
        sides.extend([client, server]);
        if stream {
            sides.push(one_way(&clusters[1], cfg, &[40_000, 9_000, 700, 64], 3_000));
        }
        for (stats, st) in sides {
            assert_eq!(stats.rearms_ridden, 0);
            assert_eq!(st.rearms_pending, 0);
            if stream {
                assert_eq!(st.data_slots, credits, "reposted at consume time");
            }
        }
        for node in clusters.iter().flat_map(|cl| &cl.nodes) {
            let s = node.nic.stats();
            assert_eq!(s.tx_fw.rearm, 0, "a preset's tx CPU inserted a descriptor");
        }
    }
}

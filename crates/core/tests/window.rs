//! Receive windows that scale with traffic (DESIGN §12). Under the §6.1
//! switch (`SubstrateConfig::piggyback_acks`, on in `default()`) each
//! direction of a stream connection starts with two data descriptors and
//! grows to N once, when its sender has used both: the receiver finds every
//! descriptor of its window consumed, the credit return is due at once, and
//! that send posts the N − 2 new descriptors with their credits in the same
//! NIC request. Request/response traffic keeps two for life. The connect
//! announces the rule and the acceptor adopts it, so a preset on either end
//! still agrees with a default peer.

use std::sync::Arc;

use emp_proto::{build_cluster, EmpCluster, EmpConfig};
use hostsim::{MemoryRegistry, VirtRange};
use parking_lot::Mutex;
use simnet::{
    Completion, ProcessCtx, Sim, SimAccess, SimDuration, SimResult, SimTime, SwitchConfig,
};
use sockets_emp::proto::DATA_HEADER;
use sockets_emp::{
    ConnDebugState, ConnStats, Connection, CopyPolicy, EmpSockets, SockAddr, SubstrateConfig,
};

fn cluster() -> EmpCluster {
    build_cluster(2, EmpConfig::default(), SwitchConfig::default())
}

/// Node 1 serves port 80 to node 0: `(server, client, address)`.
fn pair(
    cl: &EmpCluster,
    server: SubstrateConfig,
    client: SubstrateConfig,
) -> (EmpSockets, EmpSockets, SockAddr) {
    (
        EmpSockets::new(cl.nodes[1].endpoint(), server),
        EmpSockets::new(cl.nodes[0].endpoint(), client),
        SockAddr::new(cl.nodes[1].addr(), 80),
    )
}

/// Connect once the server listens, and return once it accepted, so no
/// request or first message waits in the unexpected queue. The request
/// goes bare (`flush()`), so the server accepts now and the first write
/// binds a data descriptor like every later one instead of riding the
/// request (DESIGN §12).
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

fn bytes(from: usize, len: usize) -> Vec<u8> {
    (from..from + len).map(pattern).collect()
}

/// Read `total` pattern bytes, checking each, `max` at a time.
fn read_checked(ctx: &ProcessCtx, conn: &Connection, total: usize, max: usize) -> SimResult<()> {
    let mut got = 0;
    while got < total {
        let chunk = conn.read(ctx, max)?.expect("data");
        assert!(!chunk.is_empty(), "EOF at byte {got} of {total}");
        for (k, b) in chunk.iter().enumerate() {
            assert_eq!(*b, pattern(got + k), "stream byte {}", got + k);
        }
        got += chunk.len();
    }
    Ok(())
}

/// Sim-time bound on a scenario: reaching it means the connection hung.
const HANG: SimTime = SimTime::from_secs(5);

type Side = (ConnStats, ConnDebugState);

#[test]
fn request_response_keeps_two_descriptors_for_life() {
    const ROUNDS: usize = 1_000;
    let sim = Sim::new();
    let cl = cluster();
    let cfg = SubstrateConfig::default();
    let (server, client, addr) = pair(&cl, cfg.clone(), cfg);
    let sides: Arc<Mutex<Vec<Side>>> = Arc::default();

    let s = Arc::clone(&sides);
    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        for _ in 0..ROUNDS {
            conn.read_exact(ctx, 64)?.expect("read").expect("request");
            conn.write(ctx, &[0x5A; 512])?.expect("response");
        }
        assert!(conn.read(ctx, 1)?.expect("eof").is_empty());
        s.lock().push((conn.stats(), conn.debug_state()));
        conn.close(ctx)
    });
    let s = Arc::clone(&sides);
    sim.spawn("client", move |ctx| {
        let conn = connect_settled(ctx, &client, addr)?;
        for _ in 0..ROUNDS {
            conn.write(ctx, &[0xA5; 64])?.expect("request");
            conn.read_exact(ctx, 512)?.expect("read").expect("response");
        }
        s.lock().push((conn.stats(), conn.debug_state()));
        conn.close(ctx)
    });
    sim.run();
    let sides = sides.lock().clone();
    assert_eq!(sides.len(), 2);
    for (stats, st) in sides {
        assert_eq!(stats.msgs_received, ROUNDS as u64);
        assert_eq!(st.window, 2);
        assert_eq!(st.data_slots + st.rearms_pending, 2);
        assert_eq!((stats.window_grows, stats.window_grants), (0, 0));
        assert_eq!(
            stats.fcacks_sent, 0,
            "every credit rides on the other side's data"
        );
        assert_eq!(stats.credits_without_rearm, 0);
    }
    for node in &cl.nodes {
        assert_eq!(node.nic.stats().unexpected_msgs, 0);
    }
}

/// One-way 16 KiB writes: the writer uses both credits of the fresh
/// window on its first two messages and stalls once; the reader's read of
/// the second message grows its window to N. Returns (writer, reader).
fn one_way_stream(cl: &EmpCluster, writes: usize, len: usize) -> (ConnStats, Side) {
    let sim = Sim::new();
    let cfg = SubstrateConfig::default();
    let n = cfg.credits;
    let (server, client, addr) = pair(cl, cfg.clone(), cfg);
    let reader_side: Arc<Mutex<Option<Side>>> = Arc::default();
    let writer_stats: Arc<Mutex<Option<ConnStats>>> = Arc::default();
    let done = Completion::new();

    let (out, done2) = (Arc::clone(&reader_side), done.clone());
    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let (mut got, total) = (0, writes * len);
        while got < total {
            let chunk = conn.read(ctx, 4096)?.expect("data");
            assert!(!chunk.is_empty(), "EOF at byte {got}");
            for (k, b) in chunk.iter().enumerate() {
                assert_eq!(*b, pattern(got + k), "stream byte {}", got + k);
            }
            got += chunk.len();
            // Two until the second message is consumed, N from that read on.
            let (stats, st) = (conn.stats(), conn.debug_state());
            assert_eq!(
                stats.credits_without_rearm, 0,
                "a credit left without its descriptor"
            );
            let want = if stats.msgs_received < 2 { 2 } else { n };
            assert_eq!(st.window, want, "after {} messages", stats.msgs_received);
            assert_eq!(st.data_slots + st.rearms_pending, want as usize);
        }
        assert!(conn.read(ctx, 1)?.expect("eof").is_empty());
        *out.lock() = Some((conn.stats(), conn.debug_state()));
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    let out = Arc::clone(&writer_stats);
    sim.spawn("writer", move |ctx| {
        let conn = connect_settled(ctx, &client, addr)?;
        for w in 0..writes {
            conn.write(ctx, &bytes(w * len, len))?.expect("write");
        }
        conn.flush(ctx)?.expect("flush");
        *out.lock() = Some(conn.stats());
        conn.close(ctx)
    });
    assert!(sim.run_until_complete(&done, HANG), "the stream hung");
    let writer = writer_stats.lock().expect("writer finished");
    let reader = reader_side.lock().expect("reader finished");
    (writer, reader)
}

#[test]
fn a_one_way_stream_grows_once_to_n_at_its_second_message() {
    let n = SubstrateConfig::default().credits;
    let cl = cluster();
    let (writer, (reader, st)) = one_way_stream(&cl, 64, 16 * 1024);
    assert_eq!(reader.msgs_received, writer.msgs_sent);
    assert_eq!(st.window, n);
    assert_eq!(
        (reader.window_grows, reader.window_grants),
        (1, u64::from(n - 2))
    );
    assert_eq!(reader.credits_without_rearm, 0);
    assert_eq!(
        writer.credit_stalls, 1,
        "one stall: the growth's round trip"
    );
    assert_eq!(
        writer.window_grows, 0,
        "the writer's own window never filled"
    );
    assert_eq!(cl.nodes[1].nic.stats().unexpected_msgs, 0);
}

/// Measurements around one growing read.
#[derive(Clone, Copy)]
struct GrowingRead {
    /// Host time of the read, ns.
    read_ns: u64,
    /// Pages the read pinned.
    pages: u64,
    /// The reader NIC's transmit-CPU busy time once the growth is
    /// inserted, ns.
    tx_ns: u64,
    /// The re-arm share of it, ns.
    tx_rearm_ns: u64,
}

/// A reader with `credits` = N finds two messages landed and consumes
/// both in one read, which grows its window.
fn growing_read(credits: u32) -> GrowingRead {
    let sim = Sim::new();
    let cl = cluster();
    let cfg = SubstrateConfig::default().with_credits(credits);
    let (server, client, addr) = pair(&cl, cfg.clone(), cfg);
    let (host, nic) = (cl.nodes[1].host.clone(), Arc::clone(&cl.nodes[1].nic));
    let out: Arc<Mutex<Option<GrowingRead>>> = Arc::default();

    let o = Arc::clone(&out);
    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        ctx.delay(SimDuration::from_millis(8))?;
        let pinned = || host.memory().lock().pinned_pages();
        let (t0, p0) = (ctx.now(), pinned());
        conn.read_exact(ctx, 128)?
            .expect("read")
            .expect("both messages");
        let (t1, p1) = (ctx.now(), pinned());
        assert_eq!(conn.stats().window_grows, 1);
        // Let the transmit CPU insert what the growing return carried.
        ctx.delay(SimDuration::from_micros(500))?;
        let tx = nic.stats().tx_fw;
        *o.lock() = Some(GrowingRead {
            read_ns: (t1 - t0).nanos(),
            pages: p1 - p0,
            tx_ns: tx.total(),
            tx_rearm_ns: tx.rearm,
        });
        assert!(conn.read(ctx, 1)?.expect("eof").is_empty());
        conn.close(ctx)
    });
    sim.spawn("writer", move |ctx| {
        let conn = connect_settled(ctx, &client, addr)?;
        for i in 0..2 {
            // Far enough apart that each goes alone, not staged.
            conn.write(ctx, &bytes(64 * i, 64))?.expect("write");
            ctx.delay(SimDuration::from_micros(200))?;
        }
        ctx.delay(SimDuration::from_millis(10))?;
        conn.close(ctx)
    });
    sim.run();
    let measured = out.lock().expect("reader finished");
    measured
}

#[test]
fn growth_costs_exactly_n_minus_two_descriptor_posts() {
    // The same two-message exchange at N = 32 and at N = 4: the growing
    // return re-arms the two consumed descriptors and posts N − 2 new
    // ones, so everything but those posts is the same in both runs.
    let (big, small) = (SubstrateConfig::default().credits, 4);
    let (b, s) = (growing_read(big), growing_read(small));
    let emp = EmpConfig::default();
    let post = emp.rx_post_cost.nanos();
    // Transmit CPU: one insert per descriptor of the window.
    assert_eq!(b.tx_rearm_ns, u64::from(big) * post);
    assert_eq!(s.tx_rearm_ns, u64::from(small) * post);
    assert_eq!(b.tx_ns - s.tx_ns, u64::from(big - small) * post);
    // Host: a descriptor build and a first-touch pin per new descriptor.
    let host = cluster().nodes[0].host.clone();
    let range = VirtRange::new(0x1000_0000, (64 * 1024 + DATA_HEADER) as u64);
    let (pin, _) = MemoryRegistry::new().register(range, host.cost());
    let extra = u64::from(big - small);
    assert_eq!(b.pages - s.pages, extra * range.pages());
    assert_eq!(
        b.read_ns - s.read_ns,
        extra * (emp.desc_build + pin).nanos(),
        "host time of the growing read"
    );
}

#[test]
fn write_write_read_on_a_fresh_connection_grows_once() {
    // `coalesced_pingpong_flushes_on_read_and_completes` on a fresh
    // connection. The first request's header rides in the connection
    // request (DESIGN §12) and binds no descriptor, so its body uses one;
    // the second request's two messages use both descriptors of the
    // echoer's window and grow it. No round after that one may wait out a
    // staging deadline.
    const HEADER: usize = 16;
    const MSG: usize = 64;
    const ROUNDS: usize = 25;
    let n = SubstrateConfig::default().credits;
    let sim = Sim::new();
    let cl = cluster();
    let cfg = SubstrateConfig::default();
    let (server, client, addr) = pair(&cl, cfg.clone(), cfg);
    let echoer: Arc<Mutex<Option<Side>>> = Arc::default();
    // The pinger's side and each round's duration.
    type Rounds = (Side, Vec<SimDuration>);
    let pinger: Arc<Mutex<Option<Rounds>>> = Arc::default();

    let o = Arc::clone(&echoer);
    sim.spawn("echoer", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        while let Some(m) = conn.read_exact(ctx, MSG)?.expect("read") {
            conn.write(ctx, &m)?.expect("echo");
        }
        *o.lock() = Some((conn.stats(), conn.debug_state()));
        conn.close(ctx)
    });
    let o = Arc::clone(&pinger);
    sim.spawn("pinger", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let mut rounds = Vec::with_capacity(ROUNDS);
        for r in 0..ROUNDS {
            let payload = bytes(r, MSG);
            let t0 = ctx.now();
            conn.write(ctx, &payload[..HEADER])?.expect("header");
            conn.write(ctx, &payload[HEADER..])?.expect("body");
            let echo = conn.read_exact(ctx, MSG)?.expect("read").expect("pong");
            assert_eq!(&echo[..], &payload[..], "round {r}");
            rounds.push(ctx.now() - t0);
        }
        *o.lock() = Some(((conn.stats(), conn.debug_state()), rounds));
        conn.close(ctx)
    });
    sim.run();
    let (e_stats, e_st) = echoer.lock().expect("echoer finished");
    let ((p_stats, p_st), rounds) = pinger.lock().clone().expect("pinger finished");
    assert_eq!((e_stats.window_grows, e_st.window), (1, n));
    assert_eq!(e_stats.msgs_received, 2 * ROUNDS as u64);
    assert_eq!(p_stats.conn_riders, 1, "the first header rode the request");
    assert_eq!(
        (p_stats.window_grows, p_st.window),
        (0, 2),
        "one echo at a time"
    );
    // Round 0 pays the accept: its header rides the request and its body
    // reaches the echoer before accept posts the connection's descriptors,
    // so it waits in the unexpected queue (each NIC parks one message
    // over the run). Round 1 grows the echoer's window.
    // Both are pinned exactly; every later round stays fast.
    assert_eq!(
        cl.nodes
            .iter()
            .map(|n| n.nic.stats().unexpected_msgs)
            .collect::<Vec<_>>(),
        [1, 1]
    );
    assert_eq!(
        rounds[..2],
        [
            SimDuration::from_nanos(116_865),
            SimDuration::from_nanos(316_530)
        ],
        "the accepting and the growing round"
    );
    for (r, d) in rounds.iter().enumerate().skip(2) {
        assert!(
            *d < CopyPolicy::STAGE_DEADLINE * 2,
            "round {r} took {d:?}: no round after the growing one may wait out a staging deadline"
        );
    }
}

/// 1 MiB from client to server, then 1 MiB back, in 64 KiB writes.
/// Returns (client, server) unless the exchange hung.
fn both_ways(client_cfg: SubstrateConfig, server_cfg: SubstrateConfig) -> Option<(Side, Side)> {
    const TOTAL: usize = 1 << 20;
    const WRITE: usize = 64 * 1024;
    let sim = Sim::new();
    let cl = cluster();
    let (server, client, addr) = pair(&cl, server_cfg, client_cfg);
    let sides: Arc<Mutex<Vec<Side>>> = Arc::default();
    let done = Completion::new();

    let s = Arc::clone(&sides);
    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        read_checked(ctx, &conn, TOTAL, 8192)?;
        for off in (0..TOTAL).step_by(WRITE) {
            conn.write(ctx, &bytes(off, WRITE))?.expect("write back");
        }
        s.lock().push((conn.stats(), conn.debug_state()));
        assert!(conn.read(ctx, 1)?.expect("eof").is_empty());
        conn.close(ctx)
    });
    let (s, done2) = (Arc::clone(&sides), done.clone());
    sim.spawn("client", move |ctx| {
        let conn = connect_settled(ctx, &client, addr)?;
        for off in (0..TOTAL).step_by(WRITE) {
            conn.write(ctx, &bytes(off, WRITE))?.expect("write");
        }
        read_checked(ctx, &conn, TOTAL, 8192)?;
        s.lock().insert(0, (conn.stats(), conn.debug_state()));
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    if !sim.run_until_complete(&done, HANG) {
        return None;
    }
    let sides = sides.lock().clone();
    Some((sides[0], sides[1]))
}

#[test]
fn a_preset_and_a_default_peer_agree_on_the_window_either_way() {
    let n = SubstrateConfig::default().credits;
    // A default client announces growth; a preset acceptor adopts it.
    let (client, server) = both_ways(SubstrateConfig::default(), SubstrateConfig::ds_da_uq())
        .expect("default client, preset server: the exchange hung");
    for (who, (stats, st)) in [("client", client), ("server", server)] {
        assert_eq!((stats.window_grows, st.window), (1, n), "{who}");
        assert_eq!(st.data_slots + st.rearms_pending, n as usize, "{who}");
    }
    // A preset client announces nothing: both sides post N at once.
    let (client, server) = both_ways(SubstrateConfig::ds_da_uq(), SubstrateConfig::default())
        .expect("preset client, default server: the exchange hung");
    for (who, (stats, st)) in [("client", client), ("server", server)] {
        assert_eq!((stats.window_grows, st.window), (0, n), "{who}");
        assert_eq!(stats.credits_without_rearm, 0, "{who}");
    }
}

/// `cycles` connections from node 0 to node 1, each a 64 KiB stream in
/// four writes that grows the server's window. With `close_racing`, the
/// server closes in the same instant its growing read returns, while the
/// transmit CPU is still inserting the new descriptors. Returns the
/// server's (pooled ranges, pinned pages) after each close, once the
/// listener closed too, the descriptors the server's NIC still holds.
fn churn(cycles: usize, close_racing: bool) -> (Vec<(usize, u64)>, usize) {
    const LEN: usize = 16 * 1024;
    let sim = Sim::new();
    let cl = cluster();
    let cfg = SubstrateConfig::default();
    let (server, client, addr) = pair(&cl, cfg.clone(), cfg);
    let (host, nic) = (cl.nodes[1].host.clone(), Arc::clone(&cl.nodes[1].nic));
    let after: Arc<Mutex<Vec<(usize, u64)>>> = Arc::default();

    let a = Arc::clone(&after);
    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        for _ in 0..cycles {
            let conn = l.accept(ctx)?.expect("connection");
            if close_racing {
                read_checked(ctx, &conn, 2 * LEN, 2 * LEN)?;
                assert_eq!(conn.stats().window_grows, 1);
                assert!(
                    nic.tigon().cpu_tx.busy_until() > ctx.now(),
                    "the growth's inserts are still queued on the transmit CPU"
                );
            } else {
                read_checked(ctx, &conn, 4 * LEN, 8192)?;
                assert!(conn.read(ctx, 1)?.expect("eof").is_empty());
                assert_eq!(conn.stats().window_grows, 1);
            }
            conn.close(ctx)?;
            // Let the unposts land on the NIC.
            ctx.delay(SimDuration::from_micros(200))?;
            let pinned = host.memory().lock().pinned_pages();
            a.lock().push((server.stats().pooled_ranges, pinned));
        }
        l.close(ctx)
    });
    sim.spawn("client", move |ctx| {
        for _ in 0..cycles {
            let conn = client.connect(ctx, addr)?.expect("connect");
            let writes = if close_racing { 2 } else { 4 };
            for w in 0..writes {
                conn.write(ctx, &bytes(w * LEN, LEN))?.expect("write");
            }
            if close_racing {
                // The server closes first here.
                assert!(conn.read(ctx, 1)?.expect("eof").is_empty());
            }
            conn.close(ctx)?;
        }
        Ok(())
    });
    sim.run();
    let after = after.lock().clone();
    assert_eq!(after.len(), cycles);
    (after, cl.nodes[1].nic.preposted_len())
}

fn assert_nothing_grew(after: &[(usize, u64)], preposted: usize) {
    assert!(
        after.iter().all(|x| *x == after[0]),
        "pool or pinned pages grew: first {:?}, last {:?}",
        after[0],
        after[after.len() - 1]
    );
    assert_eq!(preposted, 0, "a descriptor was stranded");
}

#[test]
fn connection_churn_reuses_the_grown_windows_buffers() {
    let (after, preposted) = churn(100, false);
    assert_nothing_grew(&after, preposted);
}

#[test]
fn a_close_racing_the_growth_strands_nothing() {
    let (after, preposted) = churn(20, true);
    assert_nothing_grew(&after, preposted);
}

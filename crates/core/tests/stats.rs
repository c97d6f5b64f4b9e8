//! ConnStats behaviour under the Figure 11 presets: the per-connection
//! counters must move the way each enhancement says they should —
//! explicit fc-acks per message under `DS`, far fewer under `DS_DA`,
//! the same accounting when acks ride the unexpected queue (`DS_DA_UQ`),
//! piggy-backed credits only when traffic is bidirectional, and
//! rendezvous round trips only for large datagrams (`DG`).

use emp_proto::{build_cluster, EmpCluster, EmpConfig};
use parking_lot::Mutex;
use simnet::{Sim, SimDuration, SwitchConfig};
use sockets_emp::{ConnStats, EmpSockets, SockAddr, SubstrateConfig};
use std::sync::Arc;

fn cluster(n: usize) -> EmpCluster {
    build_cluster(n, EmpConfig::default(), SwitchConfig::default())
}

fn substrate(cl: &EmpCluster, node: usize, cfg: SubstrateConfig) -> EmpSockets {
    EmpSockets::new(cl.nodes[node].endpoint(), cfg)
}

/// One-way transfer: the writer sends `count` messages of `size` bytes,
/// the reader drains them. Returns `(writer_stats, reader_stats)`.
fn one_way(cfg: SubstrateConfig, count: usize, size: usize) -> (ConnStats, ConnStats) {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let out = Arc::new(Mutex::new((ConnStats::default(), ConnStats::default())));

    let cap = size.max(4096);
    let o = Arc::clone(&out);
    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        loop {
            let d = conn.read(ctx, cap)?.expect("data");
            if d.is_empty() {
                break;
            }
        }
        o.lock().1 = conn.stats();
        Ok(())
    });
    let o = Arc::clone(&out);
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let buf = vec![7u8; size];
        for _ in 0..count {
            conn.write(ctx, &buf)?.expect("send");
        }
        ctx.delay(SimDuration::from_millis(2))?;
        o.lock().0 = conn.stats();
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    let r = *out.lock();
    r
}

/// Ping-pong exchange: both sides alternate send/receive `iters` times.
/// Returns `(client_stats, server_stats)`.
fn ping_pong(cfg: SubstrateConfig, iters: usize) -> (ConnStats, ConnStats) {
    ping_pong_on(&cluster(2), cfg, iters)
}

/// [`ping_pong`] between nodes 0 and 1 of `cl`.
fn ping_pong_on(cl: &EmpCluster, cfg: SubstrateConfig, iters: usize) -> (ConnStats, ConnStats) {
    let sim = Sim::new();
    let server = substrate(cl, 1, cfg.clone());
    let client = substrate(cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let out = Arc::new(Mutex::new((ConnStats::default(), ConnStats::default())));

    let o = Arc::clone(&out);
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
        o.lock().1 = conn.stats();
        Ok(())
    });
    let o = Arc::clone(&out);
    sim.spawn("pinger", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        for _ in 0..iters {
            conn.write(ctx, b"ping")?.expect("w");
            conn.read_exact(ctx, 4)?.expect("r").expect("pong");
        }
        o.lock().0 = conn.stats();
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    let r = *out.lock();
    r
}

#[test]
fn ds_sends_an_explicit_fcack_per_message() {
    let (w, r) = one_way(SubstrateConfig::ds(), 64, 256);
    assert_eq!(w.msgs_sent, 64);
    assert_eq!(r.msgs_received, 64);
    assert_eq!(r.bytes_received, 64 * 256);
    // No delayed acks: every consumed message is acknowledged explicitly.
    assert!(
        r.fcacks_sent >= 60,
        "DS must ack (nearly) per message, got {}",
        r.fcacks_sent
    );
    // One-way traffic with piggybacking off: nothing to ride on.
    assert_eq!(r.piggybacked_credits, 0);
    assert_eq!(w.piggybacked_credits, 0);
    assert_eq!(w.rendezvous, 0);
}

#[test]
fn ds_da_cuts_fcacks_by_the_delay_threshold() {
    let (_, r_ds) = one_way(SubstrateConfig::ds(), 64, 256);
    let (_, r_da) = one_way(SubstrateConfig::ds_da(), 64, 256);
    assert_eq!(r_da.msgs_received, 64);
    assert!(r_da.fcacks_sent > 0, "some acks must still flow");
    assert!(
        r_da.fcacks_sent <= r_ds.fcacks_sent / 4,
        "delayed acks must batch: DS {} vs DS_DA {}",
        r_ds.fcacks_sent,
        r_da.fcacks_sent
    );
}

#[test]
fn ds_da_uq_accounts_acks_identically_to_ds_da() {
    // Routing acks through the unexpected queue changes where they land
    // on the sender's NIC, not how many the receiver sends.
    let (_, r_da) = one_way(SubstrateConfig::ds_da(), 64, 256);
    let (_, r_uq) = one_way(SubstrateConfig::ds_da_uq(), 64, 256);
    assert_eq!(r_uq.msgs_received, 64);
    assert_eq!(
        r_uq.fcacks_sent, r_da.fcacks_sent,
        "UQ routing must not change the ack count"
    );
}

#[test]
fn credit_stalls_move_when_the_receiver_lags() {
    // 2 credits and a reader that sleeps 5 ms before draining: the third
    // write must block, and the counter must say so.
    let cfg = SubstrateConfig::ds().with_credits(2);
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let stalls = Arc::new(Mutex::new(0u64));

    sim.spawn("lazy-reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        ctx.delay(SimDuration::from_millis(5))?;
        loop {
            let d = conn.read(ctx, 4096)?.expect("data");
            if d.is_empty() {
                break;
            }
        }
        Ok(())
    });
    let s2 = Arc::clone(&stalls);
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        for i in 0..6 {
            conn.write(ctx, &[i as u8; 100])?.expect("send");
        }
        *s2.lock() = conn.stats().credit_stalls;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    let n = *stalls.lock();
    assert!(n > 0, "writes beyond the credit window must record stalls");
}

#[test]
fn unstalled_writer_records_no_credit_stalls() {
    let (w, _) = one_way(SubstrateConfig::ds_da_uq(), 16, 256);
    assert_eq!(
        w.credit_stalls, 0,
        "16 msgs against 32 credits and a draining reader must not stall"
    );
}

#[test]
fn piggybacked_credits_move_only_with_bidirectional_traffic() {
    // Ping-pong under the piggyback ablation. Piggy-backing rides credits
    // accrued *before* the ack threshold fires, so it only bites with
    // delayed acks (under plain DS the threshold is 1 and every consumed
    // credit becomes an explicit ack before any write can carry it).
    let piggyback = SubstrateConfig {
        piggyback_acks: true,
        ..SubstrateConfig::ds_da()
    };
    let (c_pb, s_pb) = ping_pong(piggyback, 32);
    assert!(
        c_pb.piggybacked_credits > 0 && s_pb.piggybacked_credits > 0,
        "echo traffic must carry piggy-backed credits: {} / {}",
        c_pb.piggybacked_credits,
        s_pb.piggybacked_credits
    );
    // Without the toggle the same workload uses explicit acks only.
    let (c, s) = ping_pong(SubstrateConfig::ds_da(), 32);
    assert_eq!(c.piggybacked_credits, 0);
    assert_eq!(s.piggybacked_credits, 0);
    assert!(
        s_pb.fcacks_sent < s.fcacks_sent,
        "piggybacking must displace explicit acks: {} vs {}",
        s_pb.fcacks_sent,
        s.fcacks_sent
    );
}

#[test]
fn only_the_default_binds_nic_level_ack_piggybacking() {
    // The substrate switches EMP's own ack piggy-backing with the §6.1
    // flag when it binds: under every paper preset the NIC never holds an
    // ack, so each message still costs one standalone ack frame.
    let presets = [
        SubstrateConfig::ds(),
        SubstrateConfig::ds_da(),
        SubstrateConfig::ds_da_uq(),
        SubstrateConfig::dg(),
    ];
    for cfg in presets {
        let cl = cluster(2);
        ping_pong_on(&cl, cfg, 16);
        for node in &cl.nodes {
            let s = node.nic.stats();
            assert!(!node.nic.piggyback_acks());
            assert_eq!((s.acks_held, s.acks_piggybacked), (0, 0));
            assert_eq!(s.acks_sent, s.msgs_received);
        }
    }
    let cl = cluster(2);
    ping_pong_on(&cl, SubstrateConfig::default(), 16);
    for node in &cl.nodes {
        let s = node.nic.stats();
        assert!(node.nic.piggyback_acks());
        assert!(s.acks_piggybacked > 0, "echo traffic carries EMP acks");
        assert!(s.acks_sent < s.msgs_received);
    }
}

#[test]
fn dg_counts_rendezvous_only_for_large_datagrams() {
    // Small datagrams are eager.
    let (w_small, r_small) = one_way(SubstrateConfig::dg(), 8, 512);
    assert_eq!(w_small.rendezvous, 0, "512-byte datagrams must stay eager");
    assert_eq!(r_small.msgs_received, 8);
    // Large ones must take the §5.2 request/grant/data round trip.
    let (w_big, r_big) = one_way(SubstrateConfig::dg(), 3, 100_000);
    assert_eq!(
        w_big.rendezvous, 3,
        "each large datagram is one rendezvous round trip"
    );
    assert_eq!(r_big.bytes_received, 3 * 100_000);
    // Streams never rendezvous, whatever the size.
    let (w_stream, _) = one_way(SubstrateConfig::ds_da_uq(), 3, 100_000);
    assert_eq!(w_stream.rendezvous, 0);
}

#[test]
fn substrate_stats_aggregate_over_live_connections() {
    // EmpSockets::stats() must sum per-connection counters and count the
    // live sockets/listeners it holds.
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = substrate(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let seen = Arc::new(Mutex::new(None));

    let server2 = server.clone();
    sim.spawn("server", move |ctx| {
        let l = server2.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("request");
        loop {
            let d = conn.read(ctx, 4096)?.expect("data");
            if d.is_empty() {
                break;
            }
        }
        Ok(())
    });
    let s2 = Arc::clone(&seen);
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        for _ in 0..16 {
            conn.write(ctx, &[9u8; 128])?.expect("send");
        }
        ctx.delay(SimDuration::from_millis(1))?;
        let agg = client.stats();
        assert_eq!(agg.connections, 1);
        assert_eq!(agg.listeners, 0);
        assert_eq!(agg.totals, conn.stats());
        *s2.lock() = Some(server.stats());
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    let srv = seen.lock().take().expect("server snapshot");
    assert_eq!(srv.connections, 1);
    assert_eq!(srv.listeners, 1);
    assert_eq!(srv.totals.msgs_received, 16);
    assert_eq!(srv.totals.bytes_received, 16 * 128);
}

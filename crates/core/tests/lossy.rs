//! Substrate robustness under injected fabric faults: every Figure 11
//! preset must deliver byte-exact data over a fabric that drops, reorders,
//! and delays frames, and a peer that vanishes must surface
//! [`NetError::Timeout`] / [`NetError::PeerGone`] instead of a hang.

use emp_apps::{ring, EmpNet, NetApi};
use emp_proto::{build_cluster, EmpCluster, EmpConfig};
use simnet::ring::{CqeResult, RingConfig, RingCore, RingDriver, RingOp, Sqe};
use simnet::{
    Completion, FaultPlan, Interest, LinkConfig, OpResult, ProcessCtx, Sim, SimAccess, SimDuration,
    SimResult, SwitchConfig,
};
use sockets_emp::{CopyPolicy, EmpSockets, NetError, SockAddr, SubstrateConfig};

fn faulty_cluster(n: usize, faults: FaultPlan) -> EmpCluster {
    // EMP abandons a message after `max_retries` silent timer rounds — a
    // policy tuned for realistic loss. The sweep's harshest schedule drops
    // every 2nd frame on every link, where a single-frame message's
    // data+ack round trip can need far more rounds (no partial-ack
    // progress ever resets the counter), so the transport gets a deeper
    // retry budget here; what is under test is the substrate above it.
    let emp = EmpConfig {
        max_retries: 5_000,
        ..EmpConfig::default()
    };
    let sw = SwitchConfig {
        link: LinkConfig {
            faults,
            ..LinkConfig::default()
        },
        ..SwitchConfig::default()
    };
    build_cluster(n, emp, sw)
}

fn substrate(cl: &EmpCluster, node: usize, cfg: SubstrateConfig) -> EmpSockets {
    EmpSockets::new(cl.nodes[node].endpoint(), cfg)
}

/// Deterministic payload byte for (message index, offset).
fn pat(idx: usize, i: usize) -> u8 {
    ((i * 31 + idx * 7 + 3) % 251) as u8
}

fn pattern(idx: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| pat(idx, i)).collect()
}

/// The fault schedules of the sweep — drop rates 1/2, 1/5 and 1/10, each
/// combined with probabilistic reordering so consecutive messages can
/// overtake. The 1/5 and 1/10 rates use the strictly periodic legacy
/// schedule; the 1/2 rate uses a seeded probabilistic drop, because a
/// perfectly alternating drop pattern phase-locks with EMP's (capped,
/// deterministic) retransmission backoff and models a malicious wire
/// rather than a lossy one.
fn sweep_plans() -> Vec<FaultPlan> {
    let reorder = SimDuration::from_micros(80);
    vec![
        FaultPlan::seeded(0xD5)
            .with_drop_prob(0.5)
            .with_reorder(0.2, reorder),
        FaultPlan::drop_every(5).with_reorder(0.2, reorder),
        FaultPlan::drop_every(10).with_reorder(0.2, reorder),
    ]
}

/// Push `total` bytes through a stream connection over a faulty fabric and
/// require: bytes intact and in order, exact EOF, clean close on both ends.
fn stream_exchange(cfg: SubstrateConfig, faults: FaultPlan, total: usize, chunk: usize) {
    let sim = Sim::new();
    let cl = faulty_cluster(2, faults);
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let r_done = Completion::new();
    let w_done = Completion::new();
    let (r2, w2) = (r_done.clone(), w_done.clone());

    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let mut buf = Vec::with_capacity(total);
        while buf.len() < total {
            let m = conn.read(ctx, 8192)?.expect("data");
            assert!(!m.is_empty(), "premature EOF at byte {}", buf.len());
            buf.extend_from_slice(&m);
        }
        assert_eq!(buf.len(), total, "overrun");
        for (i, b) in buf.iter().enumerate() {
            assert_eq!(*b, pat(0, i), "byte {i} wrong");
        }
        let eof = conn.read(ctx, 8192)?.expect("eof");
        assert!(eof.is_empty(), "EOF must follow the last byte exactly");
        conn.close(ctx)?;
        r2.complete(ctx);
        Ok(())
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let data = pattern(0, total);
        for c in data.chunks(chunk) {
            conn.write(ctx, c)?.expect("send");
        }
        conn.close(ctx)?;
        w2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(r_done.is_done(), "reader did not finish cleanly");
    assert!(w_done.is_done(), "writer did not finish cleanly");
}

/// Send `sizes` datagrams over a faulty fabric and require: boundaries
/// preserved, send order preserved, exact EOF, clean close on both ends.
fn dgram_exchange(faults: FaultPlan, sizes: Vec<usize>) {
    let sim = Sim::new();
    let cl = faulty_cluster(2, faults);
    let server = substrate(&cl, 1, SubstrateConfig::dg());
    let client = substrate(&cl, 0, SubstrateConfig::dg());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let r_done = Completion::new();
    let w_done = Completion::new();
    let (r2, w2) = (r_done.clone(), w_done.clone());
    let n = sizes.len();
    let sizes2 = sizes.clone();

    sim.spawn("receiver", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        for (i, len) in sizes.iter().enumerate() {
            let m = conn.read(ctx, 64_000)?.expect("message");
            assert_eq!(m.len(), *len, "datagram {i}: boundary lost");
            assert_eq!(&m[..], &pattern(i, *len)[..], "datagram {i}: bytes wrong");
        }
        let eof = conn.read(ctx, 64_000)?.expect("eof");
        assert!(eof.is_empty(), "EOF must follow datagram {n} exactly");
        conn.close(ctx)?;
        r2.complete(ctx);
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        for (i, len) in sizes2.iter().enumerate() {
            conn.write(ctx, &pattern(i, *len))?.expect("send");
        }
        conn.close(ctx)?;
        w2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(r_done.is_done(), "receiver did not finish cleanly");
    assert!(w_done.is_done(), "sender did not finish cleanly");
}

// ---- sweep: each Figure 11 preset × loss 1/2, 1/5, 1/10 + reorder ----

const SWEEP_BYTES: usize = 64 * 1024;

#[test]
fn ds_survives_the_loss_sweep() {
    for plan in sweep_plans() {
        stream_exchange(SubstrateConfig::ds(), plan, SWEEP_BYTES, 7919);
    }
}

#[test]
fn ds_da_survives_the_loss_sweep() {
    for plan in sweep_plans() {
        stream_exchange(SubstrateConfig::ds_da(), plan, SWEEP_BYTES, 7919);
    }
}

#[test]
fn ds_da_uq_survives_the_loss_sweep() {
    for plan in sweep_plans() {
        stream_exchange(SubstrateConfig::ds_da_uq(), plan, SWEEP_BYTES, 7919);
    }
}

#[test]
fn dg_survives_the_loss_sweep() {
    // Sizes straddle the eager/rendezvous boundary (~1.5 KB), so both
    // paths run under loss and reordering.
    let sizes: Vec<usize> = (0..24).map(|i| (i * 977) % 3000 + 1).collect();
    for plan in sweep_plans() {
        dgram_exchange(plan, sizes.clone());
    }
}

// ---- acceptance: 1 MB byte-exact at p = 0.2 seeded loss + reorder ----

const MEGABYTE: usize = 1 << 20;

fn acceptance_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_drop_prob(0.2)
        .with_reorder(0.1, SimDuration::from_micros(60))
}

#[test]
fn ds_moves_a_megabyte_at_twenty_percent_loss() {
    stream_exchange(
        SubstrateConfig::ds(),
        acceptance_plan(11),
        MEGABYTE,
        32 * 1024,
    );
}

#[test]
fn ds_da_moves_a_megabyte_at_twenty_percent_loss() {
    stream_exchange(
        SubstrateConfig::ds_da(),
        acceptance_plan(12),
        MEGABYTE,
        32 * 1024,
    );
}

#[test]
fn ds_da_uq_moves_a_megabyte_at_twenty_percent_loss() {
    stream_exchange(
        SubstrateConfig::ds_da_uq(),
        acceptance_plan(13),
        MEGABYTE,
        32 * 1024,
    );
}

#[test]
fn dg_moves_a_megabyte_at_twenty_percent_loss() {
    // 128 × 8 KiB datagrams: every one takes the §5.2 rendezvous, whose
    // request/grant control messages are themselves exposed to the loss.
    dgram_exchange(acceptance_plan(14), vec![8192; 128]);
}

// ---- the default data path under chaos: the adaptive copy policy must
// never trade bytes for speed ----

#[test]
fn coalesced_writes_survive_the_loss_sweep() {
    // Small writes aggregate in the staging buffer; flushes (buffer-full,
    // credit pressure, the deadline timer) are messages exposed to the
    // same loss and reordering as everything else.
    for plan in sweep_plans() {
        stream_exchange(SubstrateConfig::default(), plan, SWEEP_BYTES, 700);
    }
}

#[test]
fn coalescing_with_delayed_acks_survives_the_loss_sweep() {
    // The policy × §6.3 delayed acks on the pre-posted fc-ack descriptor
    // path (non-UQ, no piggy-backing): the one configuration that sets the
    // policy value on a paper preset.
    let cfg = SubstrateConfig {
        copy_policy: CopyPolicy::ADAPTIVE,
        ..SubstrateConfig::ds_da()
    };
    for plan in sweep_plans() {
        stream_exchange(cfg.clone(), plan, SWEEP_BYTES, 700);
    }
}

#[test]
fn direct_delivery_survives_the_loss_sweep() {
    // Writes too large to stage: reordering forces constant interleaving
    // of the direct path (next in-sequence message, reader posted) with
    // the reorder-buffer path.
    for plan in sweep_plans() {
        stream_exchange(SubstrateConfig::default(), plan, SWEEP_BYTES, 7919);
    }
}

#[test]
fn coalescing_moves_a_megabyte_at_twenty_percent_loss() {
    stream_exchange(
        SubstrateConfig::default(),
        acceptance_plan(21),
        MEGABYTE,
        600,
    );
}

#[test]
fn both_fast_paths_move_a_megabyte_at_twenty_percent_loss() {
    // Credit stalls under loss leave the deadline timer to end most
    // staging episodes early, so many staged messages fit the reader's
    // 8 KiB buffer and go direct: both halves of the policy on one stream.
    stream_exchange(
        SubstrateConfig::default(),
        acceptance_plan(22),
        MEGABYTE,
        900,
    );
}

#[test]
fn long_writes_with_copied_tails_survive_the_loss_sweep() {
    // Writes above `send_copy_threshold` leave a copied tail in flight when
    // they return, so the next write's head follows it onto a lossy,
    // reordering wire: 64 KiB writes (zero-copy head + tail) and 20 KiB
    // writes (a 4 KiB head, copied too, + tail).
    for plan in sweep_plans() {
        for chunk in [64 * 1024, 20 * 1024] {
            stream_exchange(SubstrateConfig::default(), plan, 4 * SWEEP_BYTES, chunk);
        }
    }
}

#[test]
fn long_writes_with_copied_tails_move_a_megabyte_at_twenty_percent_loss() {
    for (seed, chunk) in [(23, 64 * 1024), (24, 20 * 1024)] {
        stream_exchange(
            SubstrateConfig::default(),
            acceptance_plan(seed),
            MEGABYTE,
            chunk,
        );
    }
}

/// `conns` fresh `default()` connections in a row over a faulty fabric,
/// each opened by a first write that rides in its connection request
/// (DESIGN §12) and followed at once by a second write, then answered: the
/// request, the data message behind it and the answer all cross the
/// lossy, reordering wire, so the second message can overtake the request
/// and wait in the unexpected queue for the accept. Bytes must be exact
/// both ways on every connection, and every request must carry its
/// first write.
fn rider_churn(faults: FaultPlan, conns: usize) {
    const FIRST: usize = 100;
    const SECOND: usize = 3000;
    const ANSWER: usize = 2000;
    let sim = Sim::new();
    let cl = faulty_cluster(2, faults);
    let server = substrate(&cl, 1, SubstrateConfig::default());
    let client = substrate(&cl, 0, SubstrateConfig::default());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        for k in 0..conns {
            let conn = l.accept(ctx)?.expect("connection");
            let req = conn
                .read_exact(ctx, FIRST + SECOND)?
                .expect("read")
                .expect("request");
            assert_eq!(&req[..], &pattern(k, FIRST + SECOND)[..], "conn {k}");
            conn.write(ctx, &pattern(k + 1, ANSWER))?.expect("answer");
            assert!(conn.read(ctx, 1)?.expect("eof").is_empty(), "conn {k}");
            conn.close(ctx)?;
        }
        l.close(ctx)
    });
    sim.spawn("client", move |ctx| {
        for k in 0..conns {
            let conn = client.connect(ctx, addr)?.expect("connect");
            let req = pattern(k, FIRST + SECOND);
            conn.write(ctx, &req[..FIRST])?.expect("first write");
            conn.write(ctx, &req[FIRST..])?.expect("second write");
            let answer = conn
                .read_exact(ctx, ANSWER)?
                .expect("read")
                .expect("answer");
            assert_eq!(&answer[..], &pattern(k + 1, ANSWER)[..], "conn {k}");
            assert_eq!(conn.stats().conn_riders, 1, "conn {k}");
            conn.close(ctx)?;
        }
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done(), "the client did not finish cleanly");
}

#[test]
fn requests_carrying_first_writes_survive_the_loss_sweep() {
    for plan in sweep_plans() {
        rider_churn(plan, 12);
    }
}

#[test]
fn requests_carrying_first_writes_survive_twenty_percent_loss() {
    for seed in [11, 12, 13, 14, 21, 22, 23, 24] {
        rider_churn(acceptance_plan(seed), 12);
    }
}

/// The staging deadline on a poisoned socket. A side that stages a small
/// write, then trips its reorder-buffer cap on the next read, is left with
/// a deadline timer pending on a connection that may send nothing more:
/// the read flushed the staged bytes before it parked, so the timer finds
/// its episode over — no message after the poisoning, every later
/// operation still `Exhausted`, close still clean.
#[test]
fn the_staging_deadline_on_a_poisoned_socket_sends_nothing() {
    let sim = Sim::new();
    // No loss, heavy overtaking: an ahead-of-sequence message arrives soon.
    let cl = faulty_cluster(
        2,
        FaultPlan::seeded(0x51).with_reorder(0.3, SimDuration::from_micros(80)),
    );
    // Any out-of-order payload at all exceeds a zero-byte budget.
    let server = substrate(&cl, 1, SubstrateConfig::default().with_reorder_cap(0));
    let client = substrate(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("poisoned-side", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let mut got = 0;
        let err = loop {
            // Every round stages a write (arming a deadline) and lets the
            // read send it.
            conn.write(ctx, &[7u8; 32])?.expect("stage");
            match conn.read(ctx, 8192)? {
                Ok(m) => {
                    assert!(!m.is_empty(), "the cap must trip before EOF");
                    for (i, b) in m.iter().enumerate() {
                        assert_eq!(*b, pat(0, got + i), "byte {} wrong", got + i);
                    }
                    got += m.len();
                }
                Err(e) => break e,
            }
        };
        assert_eq!(err, NetError::Exhausted);
        let sent = conn.stats().msgs_sent;
        // Well past the pending deadline of the last staged write.
        ctx.delay(SimDuration::from_millis(1))?;
        assert_eq!(conn.stats().msgs_sent, sent, "a poisoned socket is silent");
        assert_eq!(conn.write(ctx, &[7u8; 32])?, Err(NetError::Exhausted));
        conn.close(ctx)?;
        l.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("streamer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        // Separate small messages back to back, so some overtake; the
        // peer poisons itself part-way and stops reading.
        for (i, c) in pattern(0, 256 * 1024).chunks(2048).enumerate() {
            if conn.write(ctx, c)?.is_err() {
                assert!(i > 0, "the first write cannot already fail");
                break;
            }
        }
        conn.close(ctx)
    });
    sim.run();
    assert!(done.is_done(), "the poisoned side did not finish cleanly");
}

// ---- completion-ring data path under chaos: the SQ/CQ model must be
// byte-exact over a faulty fabric and must not leak registered buffers ----

/// Pull `total` bytes through a completion ring on the server side of a
/// faulty fabric. All registered buffers stay pipelined as reads, so
/// several are in flight across every drop/reorder/outage window; the
/// EOF completion's `final_seq` must count exactly the bytes delivered,
/// and teardown must return every registered buffer to the pool.
fn ring_exchange(faults: FaultPlan, total: usize, chunk: usize) {
    let sim = Sim::new();
    let cl = faulty_cluster(2, faults);
    let server = substrate(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = substrate(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let r_done = Completion::new();
    let w_done = Completion::new();
    let (r2, w2) = (r_done.clone(), w_done.clone());

    sim.spawn("ring-reader", move |ctx| {
        let cfg = RingConfig {
            sq_depth: 8,
            cq_depth: 16,
            buf_count: 4,
            buf_size: 8192,
            max_registered_bytes: None,
        };
        let api = EmpNet::new(server, "lossy");
        let l = api.listen(ctx, 80, 4)?.expect("port free");
        let mut ring = ring(&api, cfg, "lossy-ring");
        assert_eq!(ring.add_listener(l), 0);

        ring.push(Sqe::new(0, RingOp::Accept { listener: 0 }))
            .expect("push accept");
        ring.submit_and_wait(ctx, 1)?.expect("accept committed");
        let cqes = ring.reap(usize::MAX);
        assert!(
            matches!(cqes[0].result, CqeResult::Accepted { conn: 0 }),
            "accept completion malformed: {cqes:?}"
        );

        // Keep every registered buffer armed as a read on the one
        // connection; per-target FIFO order makes reassembly trivial.
        let mut ud = 1u64;
        for b in 0..cfg.buf_count as u32 {
            ring.push(Sqe::new(ud, RingOp::Read { conn: 0, buf: b }))
                .expect("arm read");
            ud += 1;
        }
        let mut got = Vec::with_capacity(total);
        let mut final_seq = None;
        while final_seq.is_none() {
            ring.submit_and_wait(ctx, 1)?.expect("reads committed");
            for cqe in ring.reap(usize::MAX) {
                match cqe.result {
                    CqeResult::Read { buf, len } => {
                        got.extend_from_slice(&ring.buf(buf).expect("registered")[..len as usize]);
                        if final_seq.is_none() {
                            ring.push(Sqe::new(ud, RingOp::Read { conn: 0, buf }))
                                .expect("re-arm read");
                            ud += 1;
                        }
                    }
                    CqeResult::Close {
                        conn,
                        final_seq: seq,
                    } => {
                        assert_eq!(conn, 0);
                        final_seq = Some(seq);
                    }
                    other => panic!("unexpected completion under faults: {other:?}"),
                }
            }
        }
        assert_eq!(final_seq, Some(total as u64), "EOF miscounted the stream");
        assert_eq!(got.len(), total, "byte count wrong");
        for (i, b) in got.iter().enumerate() {
            assert_eq!(*b, pat(0, i), "byte {i} wrong");
        }

        // Retire the connection: still-armed reads behind the EOF drain
        // as further Close completions, then the Close op itself lands.
        ring.push(Sqe::new(ud, RingOp::Close { conn: 0 }))
            .expect("push close");
        ring.submit(ctx)?;
        let _ = ring.reap(usize::MAX);
        ring.shutdown(ctx)?;
        assert_eq!(
            ring.free_bufs(),
            cfg.buf_count,
            "registered buffers leaked through teardown"
        );
        let d = ring.depths();
        assert_eq!(
            (d.sq, d.in_flight, d.cq),
            (0, 0, 0),
            "ring not drained: {d:?}"
        );
        let c = ring.counters();
        assert!(
            c.pushed == c.completed && c.completed == c.reaped,
            "completion conservation violated: {c:?}"
        );
        r2.complete(ctx);
        Ok(())
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let data = pattern(0, total);
        for c in data.chunks(chunk) {
            conn.write(ctx, c)?.expect("send");
        }
        conn.close(ctx)?;
        w2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(r_done.is_done(), "ring reader did not finish cleanly");
    assert!(w_done.is_done(), "writer did not finish cleanly");
}

#[test]
fn ring_moves_a_megabyte_at_one_in_five_loss() {
    // Seeded p = 0.2 rather than the periodic 1-in-5 schedule: over a
    // megabyte the strictly periodic drop phase-locks with EMP's
    // deterministic backoff (see `sweep_plans`) and models a malicious
    // wire, not a lossy one.
    ring_exchange(
        FaultPlan::seeded(0x30)
            .with_drop_prob(0.2)
            .with_reorder(0.1, SimDuration::from_micros(60)),
        MEGABYTE,
        32 * 1024,
    );
}

#[test]
fn ring_moves_a_megabyte_through_burst_loss() {
    // Bursts take out whole windows of consecutive frames, so several
    // pipelined ring reads stall and restart together.
    ring_exchange(
        FaultPlan::seeded(0x31)
            .with_drop_prob(0.05)
            .with_burst(0.02, 4),
        MEGABYTE,
        32 * 1024,
    );
}

#[test]
fn ring_moves_a_megabyte_through_heavy_reordering() {
    // No loss at all — pure overtaking. The per-connection FIFO contract
    // of the ring has to hold even when the wire order does not.
    ring_exchange(
        FaultPlan::seeded(0x32).with_reorder(0.3, SimDuration::from_micros(80)),
        MEGABYTE,
        32 * 1024,
    );
}

#[test]
fn ring_moves_a_megabyte_across_link_outages() {
    // The link goes fully dark for 2 ms out of every 20 ms; EMP's
    // retransmission carries the stream across each outage window.
    ring_exchange(
        FaultPlan::seeded(0x33)
            .with_down_schedule(SimDuration::from_millis(20), SimDuration::from_millis(2)),
        MEGABYTE,
        32 * 1024,
    );
}

// ---- vanished peers: Timeout and PeerGone instead of hangs ----

#[test]
fn connect_to_a_dead_peer_times_out_within_the_deadline() {
    let sim = Sim::new();
    // The wire swallows every frame: the connection request never
    // arrives anywhere, EMP retransmits into silence until the deadline.
    let cl = faulty_cluster(2, FaultPlan::seeded(9).with_drop_prob(1.0));
    let deadline = SimDuration::from_millis(50);
    let client = substrate(&cl, 0, SubstrateConfig::ds().with_connect_timeout(deadline));
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("client", move |ctx| {
        let t0 = ctx.now();
        let r = client.connect(ctx, addr)?;
        let Err(err) = r else {
            panic!("must not connect")
        };
        assert_eq!(err, NetError::Timeout);
        let waited = ctx.now() - t0;
        assert!(
            waited <= deadline + SimDuration::from_millis(1),
            "timeout overshot the deadline: {waited:?}"
        );
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

/// The blocking connect's resend schedule against a dead station, pinned
/// in sim time: EMP gives up on each request after four silent rounds,
/// and the substrate resends after `deadline / 8`, doubling, until the
/// deadline passes.
#[test]
fn connect_to_a_dead_peer_resends_on_the_deadline_schedule() {
    let sim = Sim::new();
    let emp = EmpConfig {
        max_retries: 4,
        ..EmpConfig::default()
    };
    let sw = SwitchConfig {
        link: LinkConfig {
            faults: FaultPlan::seeded(9).with_drop_prob(1.0),
            ..LinkConfig::default()
        },
        ..SwitchConfig::default()
    };
    let cl = build_cluster(2, emp, sw);
    let deadline = SimDuration::from_millis(50);
    let client = substrate(&cl, 0, SubstrateConfig::ds().with_connect_timeout(deadline));
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let surfaced = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let s = std::sync::Arc::clone(&surfaced);

    sim.spawn("client", move |ctx| {
        let r = client.connect(ctx, addr)?;
        *s.lock() = Some((r.err(), ctx.now().nanos()));
        Ok(())
    });
    sim.run();
    let (err, at) = surfaced.lock().take().expect("connect returned");
    assert_eq!(err, Some(NetError::Timeout));
    let stats = cl.nodes[0].nic.stats();
    // Each request is one frame; every other frame is a retransmission.
    let requests = cl.nodes[0].nic.tigon().frames_sent() - stats.frames_retransmitted;
    assert_eq!(requests, 3, "connection requests sent");
    // The third request is still retransmitting when the deadline passes,
    // 50 ms after the connect began sending.
    assert_eq!(at, 50_286_500, "Timeout instant (ns)");
}

#[test]
fn connect_to_a_live_nic_with_no_listener_is_refused_not_timed_out() {
    let sim = Sim::new();
    let cl = faulty_cluster(2, FaultPlan::none());
    // Node 1's NIC is alive but no process ever listens: the connection
    // request finds no posted descriptor and is NACKed immediately —
    // the typed refusal, not a deadline-long hang.
    let deadline = SimDuration::from_millis(50);
    let client = substrate(&cl, 0, SubstrateConfig::ds().with_connect_timeout(deadline));
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("client", move |ctx| {
        let t0 = ctx.now();
        let r = client.connect(ctx, addr)?;
        let Err(err) = r else {
            panic!("must not connect")
        };
        assert_eq!(err, NetError::Refused);
        let waited = ctx.now() - t0;
        assert!(
            waited < deadline,
            "refusal must land well before the connect deadline: {waited:?}"
        );
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn stream_reader_survives_a_writer_crash_mid_stream() {
    let sim = Sim::new();
    let cl = faulty_cluster(2, FaultPlan::none());
    let cfg = SubstrateConfig::ds_da_uq().with_peer_watchdog(SimDuration::from_millis(20));
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let m = conn
            .read(ctx, 1024)?
            .expect("the bytes sent before the crash");
        assert_eq!(&m[..], b"last words");
        // The writer is gone without a Close: the watchdog must convert
        // silence into PeerGone, not block forever.
        let err = conn.read(ctx, 1024)?.expect_err("peer vanished");
        assert_eq!(err, NetError::PeerGone);
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.write(ctx, b"last words")?.expect("send");
        // Crash: return without close(); no Close message is ever sent.
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn stream_writer_survives_a_reader_crash_mid_stream() {
    let sim = Sim::new();
    let cl = faulty_cluster(2, FaultPlan::none());
    let cfg = SubstrateConfig::ds()
        .with_credits(2)
        .with_peer_watchdog(SimDuration::from_millis(20));
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let _ = conn.read(ctx, 64)?.expect("first message");
        // Crash: stop reading, never return credits, never close.
        Ok(())
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        // With 2 credits and a dead reader, some write soon stalls on
        // flow control; the watchdog must fire instead of hanging.
        let mut outcome = Ok(0);
        for _ in 0..16 {
            outcome = conn.write(ctx, &[7u8; 64])?;
            if outcome.is_err() {
                break;
            }
        }
        assert_eq!(outcome.expect_err("credit starvation"), NetError::PeerGone);
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

/// `stream_writer_survives_a_reader_crash_mid_stream` on `default()`: each
/// 64 KiB write returns with its copied tail in flight, and the reader
/// vanishes while the first one's is. The writer's next call fails —
/// `PeerGone` from the watchdog, or `PeerClosed` from a tail that failed
/// — and closing strands nothing.
#[test]
fn default_writer_survives_a_reader_crash_with_a_tail_in_flight() {
    let sim = Sim::new();
    let cl = faulty_cluster(2, FaultPlan::none());
    let cfg = SubstrateConfig::default()
        .with_credits(2)
        .with_peer_watchdog(SimDuration::from_millis(20));
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let writer_nic = std::sync::Arc::clone(&cl.nodes[0].nic);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let _ = conn.read(ctx, 64)?.expect("the first write's head");
        assert_eq!(writer_nic.debug_tx().0.len(), 1, "the tail is in flight");
        // Crash: stop reading, never return credits, never close.
        Ok(())
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let data = vec![7u8; 64 * 1024];
        conn.write(ctx, &data)?.expect("the first write");
        let mut outcome = Ok(0);
        for _ in 0..16 {
            outcome = conn.write(ctx, &data)?;
            if outcome.is_err() {
                break;
            }
        }
        let err = outcome.expect_err("a write after the crash fails");
        assert!(
            matches!(err, NetError::PeerGone | NetError::PeerClosed),
            "{err:?}"
        );
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
    let counters = sim.telemetry().snapshot().counters;
    for name in ["sock.stranded_bytes", "sock.unpaid_flush_debt_ns"] {
        assert_eq!(counters.get(name).copied().unwrap_or(0), 0, "{name}");
    }
}

#[test]
fn accepted_but_abandoned_connection_yields_peer_gone() {
    // Mid-handshake crash: the acceptor dies right after the transport
    // handshake, before any data flows.
    let sim = Sim::new();
    let cl = faulty_cluster(2, FaultPlan::none());
    let cfg = SubstrateConfig::ds_da_uq().with_peer_watchdog(SimDuration::from_millis(20));
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("acceptor", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let _conn = l.accept(ctx)?.expect("connection");
        // Crash immediately after accepting.
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let err = conn.read(ctx, 64)?.expect_err("peer vanished");
        assert_eq!(err, NetError::PeerGone);
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn dgram_receiver_survives_a_sender_crash() {
    let sim = Sim::new();
    let cl = faulty_cluster(2, FaultPlan::none());
    let cfg = SubstrateConfig::dg().with_peer_watchdog(SimDuration::from_millis(20));
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("receiver", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let m = conn.read(ctx, 1024)?.expect("pre-crash datagram");
        assert_eq!(&m[..], b"dgram");
        let err = conn.read(ctx, 1024)?.expect_err("peer vanished");
        assert_eq!(err, NetError::PeerGone);
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.write(ctx, b"dgram")?.expect("send");
        // Crash without close().
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn dgram_sender_survives_a_receiver_crash_mid_rendezvous() {
    let sim = Sim::new();
    let cl = faulty_cluster(2, FaultPlan::none());
    let cfg = SubstrateConfig::dg().with_peer_watchdog(SimDuration::from_millis(20));
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("receiver", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let m = conn.read(ctx, 1024)?.expect("eager datagram");
        assert_eq!(m.len(), 64);
        // Crash before the large datagram's rendezvous can be granted.
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.write(ctx, &[1u8; 64])?.expect("eager send");
        // Let the receiver consume the eager datagram and die before the
        // rendezvous starts (otherwise its in-progress read answers it).
        ctx.delay(SimDuration::from_millis(2))?;
        // Large message: rendezvous request goes out, the grant never
        // comes back; the watchdog must fail the send with PeerGone.
        let err = conn
            .write(ctx, &vec![2u8; 16 * 1024])?
            .expect_err("grant never arrives");
        assert_eq!(err, NetError::PeerGone);
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

/// A ring driver over a vanished peer: every op reports what the
/// watchdog reports to the blocking calls above.
struct VanishedPeer;

impl RingDriver for VanishedPeer {
    type Conn = ();
    type Listener = ();

    fn try_accept(&self, _: &ProcessCtx, _: &()) -> OpResult<()> {
        Ok(Err(NetError::PeerGone))
    }

    fn try_read(&self, _: &ProcessCtx, _: &(), _: &mut [u8]) -> OpResult<usize> {
        Ok(Err(NetError::PeerGone))
    }

    fn try_write(&self, _: &ProcessCtx, _: &(), _: &[u8]) -> OpResult<usize> {
        Ok(Err(NetError::PeerGone))
    }

    fn close(&self, _: &ProcessCtx, _: ()) -> SimResult<()> {
        Ok(())
    }

    fn close_listener(&self, _: &ProcessCtx, _: ()) -> SimResult<()> {
        Ok(())
    }

    fn wait(
        &self,
        _: &ProcessCtx,
        _: &[(&(), Interest)],
        _: &[&()],
        _: Option<SimDuration>,
    ) -> SimResult<()> {
        unreachable!("no op ever stalls on a vanished peer")
    }
}

#[test]
fn ring_ops_on_a_vanished_peer_complete_as_peer_gone() {
    let sim = Sim::new();
    let done = Completion::new();
    let done2 = done.clone();
    sim.spawn("ring", move |ctx| {
        let mut ring = RingCore::new(VanishedPeer, RingConfig::default(), "vanished");
        let conn = ring.add_conn(());
        ring.push(Sqe::new(0, RingOp::Read { conn, buf: 0 }))
            .expect("room");
        ring.submit_and_wait(ctx, 1)?.expect("committed");
        // The blocking calls' PeerGone, unchanged (rings used to say PeerClosed).
        assert_eq!(
            ring.reap(1)[0].result,
            CqeResult::Failed {
                err: NetError::PeerGone
            }
        );
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

// ---- connect/disconnect churn: admission control under a hostile wire ----

/// The churn preset: a storm of short-lived connections against a
/// 2-deep accept queue, over a wire that drops 10% of frames and goes
/// fully dark for 1 ms out of every 10 ms. Every client either gets a
/// typed refusal/timeout or delivers its payload byte-exact — no third
/// outcome, no leaked connection state on either station.
#[test]
fn connect_churn_over_a_lossy_wire_keeps_survivors_byte_exact() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const CLIENTS: usize = 12;
    const PAYLOAD: usize = 2048;
    let ms = SimDuration::from_millis;

    let sim = Sim::new();
    let cl = faulty_cluster(
        2,
        FaultPlan::seeded(0xC4)
            .with_drop_prob(0.10)
            .with_down_schedule(ms(10), ms(1)),
    );
    let server = substrate(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = substrate(
        &cl,
        0,
        SubstrateConfig::ds_da_uq().with_connect_timeout(ms(30)),
    );
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let d2 = done.clone();
    let finished = Arc::new(AtomicUsize::new(0));
    let served = Arc::new(AtomicUsize::new(0));
    let zombies = Arc::new(AtomicUsize::new(0));
    let refused = Arc::new(AtomicUsize::new(0));
    let timed_out = Arc::new(AtomicUsize::new(0));
    let (srv2, fin2, zom2) = (
        Arc::clone(&served),
        Arc::clone(&finished),
        Arc::clone(&zombies),
    );

    let server2 = server.clone();
    sim.spawn("churn-server", move |ctx| {
        // Backlog 2 against 12 staggered clients: overflow is the point.
        let l = server2.listen(ctx, 80, 2)?.expect("port free");
        loop {
            match l.accept_deadline(ctx, ms(5))? {
                Ok(conn) => {
                    // Serve serially — the slow consumer is what makes
                    // the accept queue overflow under the storm. Reads
                    // carry a deadline: a connect whose final ack died
                    // in a down window leaves a half-open connection
                    // (the client already gave up) that would otherwise
                    // wedge the server forever.
                    let mut got = Vec::with_capacity(1 + PAYLOAD);
                    let dead = loop {
                        match conn.read_deadline(ctx, 4096, ms(25))? {
                            Ok(m) if m.is_empty() => break false,
                            Ok(m) => got.extend_from_slice(&m),
                            Err(NetError::Timeout) => break true,
                            Err(other) => panic!("read failed oddly: {other:?}"),
                        }
                    };
                    if dead {
                        assert!(
                            got.is_empty(),
                            "a live client must never stall mid-stream for 25 ms"
                        );
                        conn.close(ctx)?;
                        zom2.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let idx = usize::from(got[0]);
                    assert_eq!(got.len(), 1 + PAYLOAD, "client {idx} truncated");
                    for (i, b) in got[1..].iter().enumerate() {
                        assert_eq!(*b, pat(idx, i), "client {idx} byte {i} corrupted");
                    }
                    conn.close(ctx)?;
                    srv2.fetch_add(1, Ordering::Relaxed);
                }
                Err(NetError::Timeout) => {
                    if fin2.load(Ordering::Relaxed) == CLIENTS {
                        break;
                    }
                }
                Err(other) => panic!("accept failed oddly: {other:?}"),
            }
        }
        d2.complete(ctx);
        Ok(())
    });

    for i in 0..CLIENTS {
        let (sub, fin) = (client.clone(), Arc::clone(&finished));
        let (refu, timo) = (Arc::clone(&refused), Arc::clone(&timed_out));
        sim.spawn(format!("churn-client-{i}"), move |ctx| {
            ctx.delay(SimDuration::from_millis(2) * (i as u64))?;
            match sub.connect(ctx, addr)? {
                Ok(conn) => {
                    let mut msg = vec![i as u8];
                    msg.extend_from_slice(&pattern(i, PAYLOAD));
                    let mut rest = &msg[..];
                    while !rest.is_empty() {
                        let n = conn.write(ctx, rest)?.expect("survivor write");
                        rest = &rest[n..];
                    }
                    conn.close(ctx)?;
                }
                Err(NetError::Refused) => {
                    refu.fetch_add(1, Ordering::Relaxed);
                }
                Err(NetError::Timeout) => {
                    timo.fetch_add(1, Ordering::Relaxed);
                }
                Err(other) => panic!("connect failed oddly: {other:?}"),
            }
            fin.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
    }
    sim.run();
    assert!(done.is_done(), "server never drained the churn");

    use std::sync::atomic::Ordering::Relaxed;
    let (s, r, t) = (
        served.load(Relaxed),
        refused.load(Relaxed),
        timed_out.load(Relaxed),
    );
    let z = zombies.load(Relaxed);
    assert_eq!(
        s + r + t,
        CLIENTS,
        "every client must land in exactly one bucket: served={s} refused={r} timed_out={t}"
    );
    assert!(s > 0, "the storm must not refuse everyone (served={s})");
    assert!(
        r + t > 0,
        "a 2-deep backlog under 12 clients and a dark wire must shed someone"
    );
    // A half-open connection can only come from a timed-out connect
    // whose request had in fact been admitted before the ack died.
    assert!(
        z <= t,
        "zombies ({z}) in excess of timed-out connects ({t})"
    );
    // No half-open state survives: both stations' tables drain to zero.
    assert_eq!(server.stats().connections, 0, "server leaked connections");
    assert_eq!(server.stats().listeners, 1, "listener itself stays");
    assert_eq!(client.stats().connections, 0, "client leaked connections");
}

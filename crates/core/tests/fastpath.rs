//! The adaptive copy policy (`SubstrateConfig::default()`): direct delivery
//! to posted readers and staged small writes, exercised on a clean fabric
//! where the exact counter values are deterministic — direct vs temp-buffer
//! interleaving with partial reads, `try_read` racing arrivals, staged
//! request/response traffic that must not deadlock or inflate latency, and
//! the staging deadline: bytes the application stops looking at still leave
//! within `CopyPolicy::STAGE_DEADLINE`, on every front end, and the host
//! time of sending them is still charged to the writer.
//!
//! Under `default()` a first write that fits travels inside the connection
//! request (DESIGN §12; `rider.rs` covers that path). The tests here count
//! every write as a data message into a data descriptor, so each client
//! sends its request bare with `flush()` right after `connect()`.

use emp_proto::{build_cluster, EmpCluster, EmpConfig};
use simnet::{Completion, Sim, SimDuration, SwitchConfig};
use sockets_emp::{ConnStats, EmpSockets, NetError, SockAddr, SubstrateConfig};

fn cluster(n: usize) -> EmpCluster {
    build_cluster(n, EmpConfig::default(), SwitchConfig::default())
}

fn substrate(cl: &EmpCluster, node: usize, cfg: SubstrateConfig) -> EmpSockets {
    EmpSockets::new(cl.nodes[node].endpoint(), cfg)
}

fn pat(i: usize) -> u8 {
    ((i * 31 + 3) % 251) as u8
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(pat).collect()
}

/// A posted reader (parked in `read()` with a big-enough buffer) must
/// take every message through the direct path: zero temp-buffer copies,
/// every received byte accounted as direct.
#[test]
fn posted_reader_takes_every_message_directly() {
    let sim = Sim::new();
    let cl = cluster(2);
    let cfg = SubstrateConfig::default();
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();
    const MSG: usize = 1024;
    const ROUNDS: usize = 20;

    sim.spawn("echoer", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        loop {
            let m = conn.read(ctx, MSG)?.expect("data");
            if m.is_empty() {
                break;
            }
            conn.write(ctx, &m)?.expect("echo");
        }
        let s = conn.stats();
        assert_eq!(s.copies_avoided, ROUNDS as u64, "every ping direct");
        assert_eq!(s.bytes_direct, (ROUNDS * MSG) as u64);
        assert_eq!(s.bytes_received, s.bytes_direct, "no temp-buffer bytes");
        conn.close(ctx)?;
        l.close(ctx)?;
        Ok(())
    });
    sim.spawn("pinger", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.flush(ctx)?.expect("bare request");
        let payload = pattern(MSG);
        for _ in 0..ROUNDS {
            conn.write(ctx, &payload)?.expect("ping");
            let echo = conn.read_exact(ctx, MSG)?.expect("read").expect("pong");
            assert_eq!(&echo[..], &payload[..]);
        }
        let s = conn.stats();
        assert_eq!(s.copies_avoided, ROUNDS as u64, "every pong direct");
        assert_eq!(s.bytes_direct, (ROUNDS * MSG) as u64);
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

/// Direct delivery must interleave correctly with the §6.2 temp-buffer
/// path: a partial read (buffer smaller than the message) takes the
/// buffered path and leaves a remainder; a fully-posted read takes the
/// direct path; bytes stay exact throughout.
#[test]
fn partial_reads_interleave_with_direct_delivery() {
    let sim = Sim::new();
    let cl = cluster(2);
    let cfg = SubstrateConfig::default();
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();
    let gap = SimDuration::from_millis(1);

    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let mut got = Vec::new();
        // Message 1 (1000 B) read with a 400 B buffer: too big for the
        // posted buffer, so it must take the temp-buffer path and serve
        // partial reads.
        let m = conn.read(ctx, 400)?.expect("data");
        assert_eq!(m.len(), 400, "partial read from the buffered stream");
        got.extend_from_slice(&m);
        let m = conn.read(ctx, 8192)?.expect("data");
        assert_eq!(m.len(), 600, "the rest of message 1, still buffered");
        got.extend_from_slice(&m);
        assert_eq!(conn.stats().copies_avoided, 0, "nothing direct yet");
        // Message 2 (500 B) read with the stream drained and a big
        // posted buffer: the direct path.
        let m = conn.read(ctx, 8192)?.expect("data");
        assert_eq!(m.len(), 500, "message 2 whole");
        got.extend_from_slice(&m);
        let s = conn.stats();
        assert_eq!(s.copies_avoided, 1, "exactly message 2 went direct");
        assert_eq!(s.bytes_direct, 500);
        // Message 3 (200 B) read with a 100 B buffer: buffered again.
        let m = conn.read(ctx, 100)?.expect("data");
        assert_eq!(m.len(), 100);
        got.extend_from_slice(&m);
        let m = conn.read(ctx, 8192)?.expect("data");
        assert_eq!(m.len(), 100);
        got.extend_from_slice(&m);
        let s = conn.stats();
        assert_eq!(s.copies_avoided, 1, "message 3 must not count as direct");
        assert_eq!(s.bytes_received, 1700);
        assert_eq!(&got[..], &pattern(1700)[..], "stream bytes exact in order");
        let eof = conn.read(ctx, 8192)?.expect("eof");
        assert!(eof.is_empty());
        conn.close(ctx)?;
        l.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let all = pattern(1700);
        // Gaps keep each message a separate arrival at the receiver.
        conn.write(ctx, &all[..1000])?.expect("msg 1");
        ctx.delay(gap)?;
        conn.write(ctx, &all[1000..1500])?.expect("msg 2");
        ctx.delay(gap)?;
        conn.write(ctx, &all[1500..])?.expect("msg 3");
        ctx.delay(gap)?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

/// `try_read` passes its posted buffer to the direct path too: arrivals
/// that land between polls are handed over copy-free, while a too-small
/// `try_read` falls back to the buffered path — and WouldBlock never
/// loses data.
#[test]
fn try_read_races_arrivals_through_the_direct_path() {
    let sim = Sim::new();
    let cl = cluster(2);
    let cfg = SubstrateConfig::default();
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();
    const MSGS: usize = 8;
    const MSG: usize = 600;

    sim.spawn("poller", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let mut got = Vec::new();
        loop {
            match conn.try_read(ctx, 8192)? {
                Ok(m) if m.is_empty() => break,
                Ok(m) => got.extend_from_slice(&m),
                Err(NetError::WouldBlock) => ctx.delay(SimDuration::from_micros(20))?,
                Err(e) => panic!("try_read failed: {e:?}"),
            }
        }
        assert_eq!(got.len(), MSGS * MSG);
        assert_eq!(&got[..], &pattern(MSGS * MSG)[..]);
        let s = conn.stats();
        assert!(
            s.copies_avoided >= 1,
            "some arrivals must land in a spinning try_read: {s:?}"
        );
        assert_eq!(
            s.bytes_direct + copied_bytes(&s),
            (MSGS * MSG) as u64,
            "every byte is either direct or buffered"
        );
        conn.close(ctx)?;
        l.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let all = pattern(MSGS * MSG);
        for c in all.chunks(MSG) {
            conn.write(ctx, c)?.expect("send");
            ctx.delay(SimDuration::from_micros(200))?;
        }
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

/// Bytes that went through the temp buffer (everything received that was
/// not direct).
fn copied_bytes(s: &ConnStats) -> u64 {
    s.bytes_received - s.bytes_direct
}

/// Request/response traffic whose request is two writes (header, then
/// body): the header finds the connection idle and goes at once, the body
/// is staged behind it, and flush-on-read pushes it out before the side
/// parks for the reply — so the exchange completes with no deadlock and
/// no wait for the staging deadline. The one-write echo is never staged.
/// Two warm-up messages grow the echoer's window to N first: on a fresh
/// connection the first request uses both descriptors of its window, and
/// the growing return would stage the first echo behind it.
#[test]
fn coalesced_pingpong_flushes_on_read_and_completes() {
    let sim = Sim::new();
    let cl = cluster(2);
    let cfg = SubstrateConfig::default();
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();
    const HEADER: usize = 16;
    const MSG: usize = 64;
    const ROUNDS: usize = 25;

    sim.spawn("echoer", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        conn.read_exact(ctx, 2 * MSG)?
            .expect("read")
            .expect("warm-up");
        assert_eq!(
            conn.debug_state().window,
            SubstrateConfig::default().credits
        );
        // Let the growing return be acknowledged: a send in flight would
        // stage the first echo.
        ctx.delay(SimDuration::from_micros(100))?;
        while let Some(m) = conn.read_exact(ctx, MSG)?.expect("read") {
            conn.write(ctx, &m)?.expect("echo");
        }
        let s = conn.stats();
        assert_eq!(s.writes_coalesced, 0, "a lone echo is sent at once");
        assert_eq!(s.msgs_sent, ROUNDS as u64);
        conn.close(ctx)?;
        l.close(ctx)?;
        Ok(())
    });
    sim.spawn("pinger", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.flush(ctx)?.expect("bare request");
        let payload = pattern(MSG);
        for _ in 0..2 {
            conn.write(ctx, &payload)?.expect("warm-up");
            ctx.delay(SimDuration::from_micros(100))?;
        }
        ctx.delay(SimDuration::from_millis(1))?;
        let t0 = ctx.now();
        for _ in 0..ROUNDS {
            conn.write(ctx, &payload[..HEADER])?.expect("header");
            conn.write(ctx, &payload[HEADER..])?.expect("body");
            let echo = conn.read_exact(ctx, MSG)?.expect("read").expect("pong");
            assert_eq!(&echo[..], &payload[..]);
        }
        let per_round = (ctx.now() - t0) / ROUNDS as u64;
        assert!(
            per_round < CopyPolicy::STAGE_DEADLINE * 2,
            "no round may wait out a staging deadline: {per_round:?} per round"
        );
        let s = conn.stats();
        assert_eq!(s.writes_coalesced, ROUNDS as u64, "every body staged");
        // Each staged body goes out on the very next read (flush-on-read):
        // nothing aggregated across rounds.
        assert_eq!(s.coalesce_flushes, ROUNDS as u64);
        // Two warm-up messages and two per round.
        assert_eq!(s.msgs_sent, 2 * ROUNDS as u64 + 2);
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

/// Bulk small writes under coalescing collapse into far fewer substrate
/// messages, and an explicit `flush()` plus `close()` push out the tail
/// byte-exactly.
#[test]
fn coalescing_collapses_small_writes_into_few_messages() {
    let sim = Sim::new();
    let cl = cluster(2);
    let cfg = SubstrateConfig::default();
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();
    const WRITES: usize = 512;
    const MSG: usize = 64;
    const TOTAL: usize = WRITES * MSG;

    sim.spawn("sink", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let mut got = Vec::with_capacity(TOTAL);
        while got.len() < TOTAL {
            let m = conn.read(ctx, 8192)?.expect("data");
            assert!(!m.is_empty(), "premature EOF at {}", got.len());
            got.extend_from_slice(&m);
        }
        assert_eq!(&got[..], &pattern(TOTAL)[..]);
        let eof = conn.read(ctx, 8192)?.expect("eof");
        assert!(eof.is_empty());
        conn.close(ctx)?;
        l.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("source", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let all = pattern(TOTAL);
        for c in all.chunks(MSG) {
            conn.write(ctx, c)?.expect("write");
        }
        conn.flush(ctx)?.expect("flush");
        let s = conn.stats();
        assert_eq!(
            s.writes_coalesced + (s.msgs_sent - s.coalesce_flushes),
            WRITES as u64,
            "every write is staged or, finding the connection idle, sent at once"
        );
        assert_eq!(s.bytes_sent, TOTAL as u64);
        assert!(
            s.msgs_sent <= (WRITES / 8) as u64,
            "512 × 64 B writes must collapse at least 8:1, sent {} messages",
            s.msgs_sent
        );
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

/// Under the paper's policy (every Figure 11 preset) the fast-path
/// counters stay zero: nothing is staged, everything is copied.
#[test]
fn paper_presets_take_neither_fast_path() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::ds_da_uq());
    let client = substrate(&cl, 0, SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let m = conn.read_exact(ctx, 256)?.expect("read").expect("data");
        conn.write(ctx, &m)?.expect("echo");
        let s = conn.stats();
        assert_eq!(s.copies_avoided, 0);
        assert_eq!(s.bytes_direct, 0);
        assert_eq!(s.writes_coalesced, 0);
        assert_eq!(s.coalesce_flushes, 0);
        conn.close(ctx)?;
        l.close(ctx)?;
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.write(ctx, &pattern(256))?.expect("send");
        let _ = conn.read_exact(ctx, 256)?.expect("read").expect("echo");
        let s = conn.stats();
        assert_eq!(s.copies_avoided + s.writes_coalesced, 0);
        conn.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

// ---- the staging deadline: no stranded bytes --------------------------

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use emp_apps::{ring, EmpNet};
use simnet::ring::{CqeResult, RingConfig, RingOp, Sqe};
use simnet::SimAccess;
use sockets_emp::{Connection, CopyPolicy};

/// Two small writes back to back on an established connection, then
/// 10 ms of computation. The first finds the connection idle and is sent
/// at once; the second is staged behind it and nothing the application
/// does afterwards touches the socket — yet the reader, parked in
/// `read()`, must hold it within the staging deadline plus one one-way
/// latency, not when `close()` finally flushes it 10 ms later. The
/// warm-up grows the reader's window to N first: with two credits the
/// second write would be flushed at once on credit pressure.
#[test]
fn a_write_reaches_a_parked_reader_at_once_or_within_the_deadline() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::default());
    let client = substrate(&cl, 0, SubstrateConfig::default());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let written_at = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let written_at2 = Arc::clone(&written_at);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        // Warm-up round trip: the connection is established, its window
        // grown and every buffer pinned before the measured writes.
        let m = conn.read_exact(ctx, 128)?.expect("read").expect("warm-up");
        assert_eq!(
            conn.debug_state().window,
            SubstrateConfig::default().credits
        );
        conn.write(ctx, &m[..64])?.expect("echo");
        let deadline = CopyPolicy::STAGE_DEADLINE.nanos();
        for (i, bounds) in [(0, 40_000), (deadline, 90_000)].into_iter().enumerate() {
            let m = conn.read(ctx, 8192)?.expect("data");
            let waited = ctx.now().nanos() - written_at2[i].load(Ordering::Relaxed);
            assert_eq!(&m[..], &pattern(64)[..]);
            assert!(
                (bounds.0..=bounds.1).contains(&waited),
                "write {i} took {waited} ns to reach the reader, expected {bounds:?}"
            );
        }
        assert!(conn.read(ctx, 8192)?.expect("eof").is_empty());
        conn.close(ctx)?;
        l.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.flush(ctx)?.expect("bare request");
        for _ in 0..2 {
            conn.write(ctx, &pattern(64))?.expect("warm-up");
            ctx.delay(SimDuration::from_micros(100))?;
        }
        conn.read_exact(ctx, 64)?.expect("read").expect("echo");
        ctx.delay(SimDuration::from_millis(1))?;
        for at in written_at.iter() {
            at.store(ctx.now().nanos(), Ordering::Relaxed);
            conn.write(ctx, &pattern(64))?.expect("write");
        }
        ctx.delay(SimDuration::from_millis(10))?;
        let s = conn.stats();
        // Two warm-up messages and the two measured writes' messages.
        assert_eq!((s.msgs_sent, s.coalesce_flushes), (4, 1), "the timer's");
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

/// What closes socket B once the exchange is over (the connection itself,
/// or the ring that took it over).
type Teardown<'a> = Box<dyn FnOnce(&simnet::ProcessCtx) -> simnet::SimResult<()> + 'a>;

/// How the process in [`write_to_b_then_block_on_a`] hands its small
/// message to socket B.
#[derive(Clone, Copy, Debug)]
enum FrontEnd {
    Write,
    TryWriteNoPoll,
    RingWriteSqe,
}

/// A process writes two small messages to socket B and then blocks
/// reading socket A, whose peer answers only once B's peer has seen both.
/// The first goes at once; the second is staged behind it and nothing the
/// process does afterwards touches B, so only the staging deadline can
/// send it: without one this is a deadlock.
fn write_to_b_then_block_on_a(front_end: FrontEnd) {
    let sim = Sim::new();
    let cl = cluster(3);
    let me = substrate(&cl, 0, SubstrateConfig::default());
    let peer_a = substrate(&cl, 1, SubstrateConfig::default());
    let peer_b = substrate(&cl, 2, SubstrateConfig::default());
    let addr_a = SockAddr::new(cl.nodes[1].addr(), 80);
    let addr_b = SockAddr::new(cl.nodes[2].addr(), 80);
    let b_saw_it = Completion::new();
    let b_saw_it2 = b_saw_it.clone();
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("peer-a", move |ctx| {
        let l = peer_a.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        b_saw_it2.wait(ctx)?;
        conn.write(ctx, b"go on")?.expect("answer");
        assert!(conn.read(ctx, 64)?.expect("eof").is_empty());
        conn.close(ctx)?;
        l.close(ctx)
    });
    sim.spawn("peer-b", move |ctx| {
        let l = peer_b.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let m = conn.read_exact(ctx, 128)?.expect("read").expect("messages");
        assert_eq!(&m[..], &pattern(128)[..]);
        b_saw_it.complete(ctx);
        assert!(conn.read(ctx, 64)?.expect("eof").is_empty());
        conn.close(ctx)?;
        l.close(ctx)
    });
    sim.spawn("me", move |ctx| {
        let api = EmpNet::new(me.clone(), "me");
        let a = me.connect(ctx, addr_a)?.expect("connect a");
        let b = me.connect(ctx, addr_b)?.expect("connect b");
        b.flush(ctx)?.expect("bare request");
        let halves = pattern(128);
        let (first, second) = halves.split_at(64);
        let close_b: Teardown = match front_end {
            FrontEnd::Write => {
                b.write(ctx, first)?.expect("write");
                b.write(ctx, second)?.expect("write");
                assert_eq!(b.stats().writes_coalesced, 1);
                Box::new(move |ctx| b.close(ctx))
            }
            FrontEnd::TryWriteNoPoll => {
                assert_eq!(b.try_write(ctx, first)?, Ok(64));
                assert_eq!(b.try_write(ctx, second)?, Ok(64));
                assert_eq!(b.stats().writes_coalesced, 1);
                Box::new(move |ctx| b.close(ctx))
            }
            FrontEnd::RingWriteSqe => {
                let cfg = RingConfig {
                    sq_depth: 4,
                    cq_depth: 4,
                    buf_count: 2,
                    buf_size: 64,
                    max_registered_bytes: None,
                };
                let mut ring = ring(&api, cfg, "deadline");
                let conn = ring.add_conn(Box::new(b));
                for (buf, half) in [(0, first), (1, second)] {
                    ring.fill(buf, half).expect("fill");
                    let write = RingOp::Write { conn, buf, len: 64 };
                    ring.push(Sqe::new(u64::from(buf), write)).expect("push");
                }
                ring.submit(ctx)?;
                let cqes = ring.reap(usize::MAX);
                assert!(
                    matches!(cqes[1].result, CqeResult::Wrote { buf: 1, len: 64 }),
                    "{cqes:?}"
                );
                let s = ring.conn(conn).expect("registered").substrate_stats();
                assert_eq!(s.expect("substrate").writes_coalesced, 1);
                Box::new(move |ctx| ring.shutdown(ctx))
            }
        };
        let answer = a.read(ctx, 64)?.expect("a's answer");
        assert_eq!(&answer[..], b"go on");
        close_b(ctx)?;
        a.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done(), "{front_end:?}: the write to B never left");
}

#[test]
fn a_write_nobody_follows_up_still_leaves_on_every_front_end() {
    write_to_b_then_block_on_a(FrontEnd::Write);
    write_to_b_then_block_on_a(FrontEnd::TryWriteNoPoll);
    write_to_b_then_block_on_a(FrontEnd::RingWriteSqe);
}

/// Host time the writer spends inside the substrate over `rounds` pairs of
/// small writes 100 us apart — the first of a pair sent at once, the
/// second staged behind it and flushed by `flush_now` (an explicit
/// `flush()`) or left to the deadline timer.
fn writer_host_ns(rounds: u32, flush_now: bool) -> u64 {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::default());
    let client = substrate(&cl, 0, SubstrateConfig::default());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let spent = Arc::new(AtomicU64::new(0));
    let spent2 = Arc::clone(&spent);

    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        conn.read_exact(ctx, 128)?.expect("read").expect("warm-up");
        assert_eq!(
            conn.debug_state().window,
            SubstrateConfig::default().credits
        );
        while !conn.read(ctx, 8192)?.expect("data").is_empty() {}
        conn.close(ctx)?;
        l.close(ctx)
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.flush(ctx)?.expect("bare request");
        // Pin the send buffer first, so both variants post from a
        // registered one, and grow the reader's window to N so the
        // measured rounds never run short of credits.
        for _ in 0..2 {
            conn.write(ctx, &pattern(64))?.expect("warm-up");
            ctx.delay(SimDuration::from_micros(100))?;
        }
        let mut inside = 0;
        for _ in 0..rounds {
            ctx.delay(SimDuration::from_micros(100))?;
            let t0 = ctx.now();
            conn.write(ctx, &pattern(64))?.expect("sent at once");
            conn.write(ctx, &pattern(64))?.expect("staged");
            if flush_now {
                conn.flush(ctx)?.expect("flush");
            }
            inside += (ctx.now() - t0).nanos();
        }
        ctx.delay(SimDuration::from_micros(100))?;
        let t0 = ctx.now();
        conn.flush(ctx)?.expect("settle the last flush's debt");
        inside += (ctx.now() - t0).nanos();
        let s = conn.stats();
        assert_eq!(s.coalesce_flushes, u64::from(rounds));
        assert_eq!(s.msgs_sent, 2 * u64::from(rounds) + 2);
        spent2.store(inside, Ordering::Relaxed);
        conn.close(ctx)
    });
    sim.run();
    spent.load(Ordering::Relaxed)
}

/// A timer flush is not free host work: what it does — bookkeeping,
/// descriptor, pin, doorbell — is booked against the writer, which pays at
/// its next substrate call. Over N flushes the writer is charged exactly
/// what N flushes of its own would have cost, less the one thing only its
/// own flush does: poll the unexpected queue for credit returns (§6.4)
/// before spending a credit. The timer holds two by invariant and polls
/// nothing.
#[test]
fn timer_flushes_charge_the_writer_what_its_own_would() {
    // Fewer messages than the delayed-ack threshold: no credit return
    // lands, so the poll is all that the writer's own flush adds.
    const ROUNDS: u32 = 6;
    let by_timer = writer_host_ns(ROUNDS, false);
    let by_hand = writer_host_ns(ROUNDS, true);
    let poll = cluster(1).nodes[0].host.cost().poll_completion.nanos();
    assert!(poll > 0 && by_timer > 0);
    assert_eq!(by_hand - by_timer, u64::from(ROUNDS) * poll);
}

/// `close()` (or `shutdown_write()`) racing the deadline: whichever of the
/// owner and the timer gets to the staged bytes first sends them, the
/// other finds nothing, and the peer reads them exactly once before EOF.
/// The sweep walks the owner's call across the deadline instant in 250 ns
/// steps so that some runs park the owner mid-flush as the timer fires.
#[test]
fn close_and_shutdown_racing_the_deadline_send_the_bytes_exactly_once() {
    for half_close in [false, true] {
        for step in 0..32u64 {
            let gap = CopyPolicy::STAGE_DEADLINE - SimDuration::from_micros(4)
                + SimDuration::from_nanos(250 * step);
            race_close_with_deadline(gap, half_close);
        }
    }
}

fn race_close_with_deadline(gap: SimDuration, half_close: bool) {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::default());
    let client = substrate(&cl, 0, SubstrateConfig::default());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let mut got = Vec::new();
        loop {
            let m = conn.read(ctx, 8192)?.expect("data");
            if m.is_empty() {
                break;
            }
            got.extend_from_slice(&m);
        }
        assert_eq!(&got[..], &pattern(200)[..], "gap {gap:?}");
        assert_eq!(conn.stats().msgs_received, 2, "gap {gap:?}");
        conn.close(ctx)?;
        l.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.flush(ctx)?.expect("bare request");
        let credits = conn.debug_state().credits;
        conn.write(ctx, &pattern(100))?.expect("sent at once");
        conn.write(ctx, &pattern(200)[100..])?.expect("staged");
        ctx.delay(gap)?;
        if half_close {
            conn.shutdown_write(ctx)?;
            // The timer of the ended episode fires on a half-closed
            // socket: it must find nothing to do.
            ctx.delay(CopyPolicy::STAGE_DEADLINE * 2)?;
        } else {
            conn.close(ctx)?;
        }
        let s = conn.stats();
        assert_eq!((s.msgs_sent, s.coalesce_flushes), (2, 1), "gap {gap:?}");
        assert_eq!(
            conn.debug_state().credits,
            credits - 2,
            "two credits spent, none lost to the race (gap {gap:?})"
        );
        conn.close(ctx)
    });
    sim.run();
    assert!(done.is_done(), "gap {gap:?}");
    // Closing connections report what they strand; whoever lost the race,
    // nothing was: no staged byte left behind, no timer flush unpaid.
    let counters = sim.telemetry().snapshot().counters;
    assert_eq!(
        counters.get("sock.coalesce_flushes"),
        Some(&1),
        "gap {gap:?}"
    );
    assert_eq!(counters.get("sock.stranded_bytes"), None, "gap {gap:?}");
    assert_eq!(
        counters.get("sock.unpaid_flush_debt_ns"),
        None,
        "gap {gap:?}"
    );
}

/// A 64 B writer faster than the wire, into a reader parked in `read()`:
/// with a full message of this connection still unacknowledged the
/// deadline defers instead of cutting the stream, so the staged messages
/// grow toward capacity (one `temp_buf_size`) instead of stopping at what
/// one deadline gathers. The writer's NIC never queues more than three
/// full messages' worth of frames.
#[test]
fn a_busy_stream_is_cut_by_capacity_not_by_the_deadline() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::default());
    let client = substrate(&cl, 0, SubstrateConfig::default());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let nic = Arc::clone(&cl.nodes[0].nic);
    let done = Completion::new();
    let done2 = done.clone();
    const MSG: usize = 64;
    const TOTAL: usize = 1 << 20;

    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let mut got = Vec::with_capacity(TOTAL);
        while got.len() < TOTAL {
            let m = conn.read(ctx, 1 << 16)?.expect("data");
            assert!(!m.is_empty(), "premature EOF at {}", got.len());
            got.extend_from_slice(&m);
        }
        assert!(got == pattern(TOTAL), "stream bytes differ");
        assert!(conn.read(ctx, 64)?.expect("eof").is_empty());
        conn.close(ctx)?;
        l.close(ctx)?;
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let mut queued_max = 0;
        for c in pattern(TOTAL).chunks(MSG) {
            conn.write(ctx, c)?.expect("write");
            let queued = nic.debug_tx().0.iter().map(|r| r.3 - r.1).sum();
            queued_max = queued_max.max(queued);
        }
        conn.flush(ctx)?.expect("flush");
        let s = conn.stats();
        assert!(s.stage_deferrals > 0, "the deadline never deferred: {s:?}");
        let avg = s.bytes_sent / s.msgs_sent;
        assert!(avg >= 32 << 10, "messages of {avg} B on average: {s:?}");
        let three_full = 3 * emp_proto::wire::frames_for((64 << 10) + 64);
        assert!(
            queued_max <= three_full,
            "{queued_max} frames queued at the NIC"
        );
        conn.close(ctx)
    });
    sim.run();
    assert!(done.is_done());
}

/// The deferral re-arms: a writer stages its last small writes while more
/// than a full message is still unacknowledged, then blocks on something
/// only the reader can complete, and only once it has every byte. Nothing
/// the writer does sends the staged tail, so only a deadline that keeps
/// coming back can. It arrives byte-exact within the drain of what was in
/// flight at the last write, one deadline and one one-way latency.
#[test]
fn a_deferred_deadline_still_sends_the_staged_tail() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, SubstrateConfig::default());
    let client = substrate(&cl, 0, SubstrateConfig::default());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let received = Arc::new(AtomicU64::new(0));
    let received2 = Arc::clone(&received);
    let all_read = Completion::new();
    let (all_read2, all_read3) = (all_read.clone(), all_read.clone());
    let bound_ns = Arc::new(AtomicU64::new(0));
    let bound_ns2 = Arc::clone(&bound_ns);
    // Three full messages and a tail a little over one deadline's worth.
    const TOTAL: usize = 3 * (64 << 10) + 4000;

    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let mut got = Vec::with_capacity(TOTAL);
        while got.len() < TOTAL {
            let m = conn.read(ctx, 1 << 16)?.expect("data");
            assert!(!m.is_empty(), "premature EOF at {}", got.len());
            got.extend_from_slice(&m);
            received2.store(got.len() as u64, Ordering::Relaxed);
        }
        assert!(got == pattern(TOTAL), "stream bytes differ");
        let at = ctx.now().nanos();
        let bound = bound_ns2.load(Ordering::Relaxed);
        assert!(at <= bound, "the tail arrived at {at} ns, bound {bound} ns");
        all_read2.complete(ctx);
        assert!(conn.read(ctx, 64)?.expect("eof").is_empty());
        conn.close(ctx)?;
        l.close(ctx)
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        for c in pattern(TOTAL).chunks(64) {
            conn.write(ctx, c)?.expect("write");
        }
        // In flight at the last write, drained at 800 Mbit/s or better.
        let in_flight = TOTAL as u64 - received.load(Ordering::Relaxed);
        assert!(in_flight >= 64 << 10, "only {in_flight} B in flight");
        let one_way = 40_000;
        let bound =
            ctx.now().nanos() + in_flight * 10 + CopyPolicy::STAGE_DEADLINE.nanos() + one_way;
        bound_ns.store(bound, Ordering::Relaxed);
        all_read3.wait(ctx)?;
        assert!(conn.stats().stage_deferrals > 0, "{:?}", conn.stats());
        conn.close(ctx)
    });
    sim.run();
    assert!(all_read.is_done(), "the staged tail never left");
}

/// Direct delivery through a ring: a ring `Read` is a posted reader like
/// any other, so the policy — not the front end — decides. The paper's
/// presets copy, the default does not.
#[test]
fn ring_reads_follow_the_copy_policy() {
    for (cfg, direct) in [
        (SubstrateConfig::ds_da_uq(), false),
        (SubstrateConfig::default(), true),
    ] {
        let sim = Sim::new();
        let cl = cluster(2);
        let server = substrate(&cl, 1, cfg.clone());
        let client = substrate(&cl, 0, cfg);
        let addr = SockAddr::new(cl.nodes[1].addr(), 80);
        let done = Completion::new();
        let done2 = done.clone();
        sim.spawn("ring-reader", move |ctx| {
            let l = server.listen(ctx, 80, 4)?.expect("port free");
            let conn: Connection = l.accept(ctx)?.expect("connection");
            let cfg = RingConfig {
                sq_depth: 4,
                cq_depth: 4,
                buf_count: 1,
                buf_size: 4096,
                max_registered_bytes: None,
            };
            let api = EmpNet::new(server, "policy");
            let mut ring = ring(&api, cfg, "policy");
            let conn = ring.add_conn(Box::new(conn));
            ring.push(Sqe::new(1, RingOp::Read { conn, buf: 0 }))
                .expect("push");
            ring.submit_and_wait(ctx, 1)?.expect("read");
            let cqes = ring.reap(usize::MAX);
            assert!(
                matches!(cqes[0].result, CqeResult::Read { buf: 0, len: 2048 }),
                "{cqes:?}"
            );
            let s = ring.conn(conn).expect("registered").substrate_stats();
            let s = s.expect("substrate");
            assert_eq!(s.copies_avoided, u64::from(direct));
            assert_eq!(s.bytes_direct, if direct { 2048 } else { 0 });
            ring.shutdown(ctx)?;
            done2.complete(ctx);
            Ok(())
        });
        sim.spawn("writer", move |ctx| {
            let conn = client.connect(ctx, addr)?.expect("connect");
            conn.write(ctx, &pattern(2048))?.expect("write");
            ctx.delay(SimDuration::from_millis(1))?;
            conn.close(ctx)
        });
        sim.run();
        assert!(done.is_done());
    }
}

// ---- a long write's copied tail ---------------------------------------

/// What one write of a fresh connection looked like from both ends.
struct OneWrite {
    /// Substrate data messages the write sent.
    msgs: u64,
    /// Sim instant the write returned (ns).
    returned_at: u64,
    /// Sim instant the reader held the write's last byte (ns).
    last_byte_at: u64,
    /// Messages the writer's NIC still held unacknowledged on return.
    unacked_at_return: usize,
}

/// One `len`-byte write under `cfg` to a reader already parked in
/// `read()`, the bytes checked exactly at the reader.
fn one_write(cfg: SubstrateConfig, len: usize) -> OneWrite {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1, cfg.clone());
    let client = substrate(&cl, 0, cfg);
    let nic = Arc::clone(&cl.nodes[0].nic);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let last_byte_at = Arc::new(AtomicU64::new(0));
    let out = Arc::new(parking_lot::Mutex::new(None));
    let (last2, out2) = (Arc::clone(&last_byte_at), Arc::clone(&out));

    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let mut got = Vec::with_capacity(len);
        while got.len() < len {
            let m = conn.read(ctx, 256 << 10)?.expect("data");
            assert!(!m.is_empty(), "premature EOF at byte {}", got.len());
            got.extend_from_slice(&m);
        }
        last2.store(ctx.now().nanos(), Ordering::SeqCst);
        assert!(got == pattern(len), "{len} B write: bytes differ");
        let eof = conn.read(ctx, 8192)?.expect("eof");
        assert!(eof.is_empty(), "EOF must follow the last byte exactly");
        conn.close(ctx)?;
        l.close(ctx)
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        // Long enough for the reader to be parked in `read()`.
        ctx.delay(SimDuration::from_millis(1))?;
        let before = conn.stats().msgs_sent;
        conn.write(ctx, &pattern(len))?.expect("write");
        *out2.lock() = Some(OneWrite {
            msgs: conn.stats().msgs_sent - before,
            returned_at: ctx.now().nanos(),
            last_byte_at: 0,
            unacked_at_return: nic.debug_tx().0.len(),
        });
        conn.close(ctx)
    });
    sim.run();
    let mut w = out.lock().take().expect("the write returned");
    w.last_byte_at = last_byte_at.load(Ordering::SeqCst);
    assert!(
        w.last_byte_at > 0,
        "{len} B write: the reader got every byte"
    );
    w
}

/// On `default()` one 64 KiB write to a parked reader goes out as a
/// zero-copy head and a copied 16 KiB tail, and returns once the head is
/// acknowledged: the tail is still on its way, so the reader holds the
/// last byte only after the writer is free again.
#[test]
fn a_long_default_write_returns_with_its_copied_tail_in_flight() {
    let w = one_write(SubstrateConfig::default(), 64 << 10);
    assert_eq!(w.msgs, 2, "a zero-copy head and a copied tail");
    assert_eq!(w.unacked_at_return, 1, "the tail, and only it, in flight");
    assert!(
        w.returned_at < w.last_byte_at,
        "returned at {} ns, the reader held the last byte at {} ns",
        w.returned_at,
        w.last_byte_at
    );
}

/// Write sizes around the tail rule, each byte-exact with the message
/// count it predicts: a write of at most `send_copy_threshold` (T) is one
/// copied message; a longer one is a head in `temp_buf_size` fragments
/// plus a T-byte copied tail. A head of at most T takes the copy path
/// too, so writes up to 2 × T end up fully copied; above that the write
/// waits for its zero-copy head and returns with only the tail in flight.
#[test]
fn writes_around_the_threshold_split_as_the_tail_rule_predicts() {
    let cfg = SubstrateConfig::default();
    let t = cfg.send_copy_threshold;
    assert_eq!((t, cfg.temp_buf_size), (16 << 10, 64 << 10));
    for (len, msgs) in [
        (t, 1),
        (t + 1, 2),
        (2 * t, 2),
        (64 << 10, 2),
        ((64 << 10) + 1, 2),
        (256 << 10, 5), // 64 + 64 + 64 + 48 KiB head, 16 KiB tail
    ] {
        let w = one_write(cfg.clone(), len);
        assert_eq!(w.msgs, msgs, "{len} B write");
        assert!(
            w.returned_at < w.last_byte_at,
            "{len} B write: tail in flight"
        );
        if len > 2 * t {
            assert_eq!(w.unacked_at_return, 1, "{len} B write: only the tail");
        } else {
            assert!(w.unacked_at_return >= 1, "{len} B write: nothing waited");
        }
    }
}

/// The four Figure 11 presets carry `CopyPolicy::PAPER`, so the rule never
/// applies: the same 64 KiB write stays one zero-copy message and returns
/// only after its acknowledgment, with nothing left in flight.
#[test]
fn paper_presets_keep_a_long_write_one_message_that_waits_for_its_ack() {
    for (name, cfg) in [
        ("ds", SubstrateConfig::ds()),
        ("ds_da", SubstrateConfig::ds_da()),
        ("ds_da_uq", SubstrateConfig::ds_da_uq()),
        ("dg", SubstrateConfig::dg()),
    ] {
        let w = one_write(cfg, 64 << 10);
        assert_eq!(w.msgs, 1, "{name}: one message");
        assert_eq!(w.unacked_at_return, 0, "{name}: returned after its ack");
    }
}

//! Acceptance tests for the async/await front end: straight-line
//! `async fn` handlers ([`emp_apps::serve_async`]) serving 32 concurrent
//! connections byte-exact on both stacks, same-seed determinism of the
//! whole executor schedule, and the cancellation/waker contracts the
//! futures are built on:
//!
//! * dropping a ring-op future mid-read is its cancellation — the
//!   registered buffer comes back to the pool and the ring drains;
//! * readiness that fired *before* a waker was registered is found by
//!   the check-then-arm recheck (no lost wakeup);
//! * spurious wakes re-poll, re-check, re-arm — and the data still
//!   arrives intact;
//! * abandoning an armed write-interest wait and switching to read
//!   interest disarms cleanly (the substrate's flow-control ack watch)
//!   and the new interest still wakes.

use std::future::{poll_fn, Future};
use std::pin::pin;
use std::sync::Arc;
use std::task::Poll;

use emp_apps::kvstore;
use emp_apps::webserver::{concurrent_throughput, ServerModel};
use emp_apps::{AsyncRing, AsyncStream, Interest, NetError, RingConfig, Testbed};
use parking_lot::Mutex;
use simnet::{Sim, SimAccess, SimAccessExt, SimDuration, SimResult};

const CONNS: u32 = 32;
const REQS_PER_CONN: u32 = 4;
const RESPONSE: usize = 1024;

#[test]
fn async_server_serves_32_connections_on_the_substrate() {
    let tb = Testbed::emp_default(5);
    let r = concurrent_throughput(&tb, ServerModel::Async, CONNS, REQS_PER_CONN, RESPONSE);
    assert_eq!(r.requests, u64::from(CONNS * REQS_PER_CONN));
    assert!(r.reqs_per_sec > 0.0);
}

#[test]
fn async_server_serves_32_connections_on_kernel_tcp() {
    let tb = Testbed::kernel_default(5);
    let r = concurrent_throughput(&tb, ServerModel::Async, CONNS, REQS_PER_CONN, RESPONSE);
    assert_eq!(r.requests, u64::from(CONNS * REQS_PER_CONN));
    assert!(r.reqs_per_sec > 0.0);
}

#[test]
fn all_four_server_models_agree_on_the_workload() {
    // Same testbed, same workload, all four I/O models: identical
    // request counts (the figure generator compares their curves), and
    // the async model competitive with the event loop it desugars to.
    let tb = Testbed::emp_default(5);
    let aw = concurrent_throughput(&tb, ServerModel::Async, CONNS, REQS_PER_CONN, RESPONSE);
    let cq = concurrent_throughput(&tb, ServerModel::Completion, CONNS, REQS_PER_CONN, RESPONSE);
    let el = concurrent_throughput(&tb, ServerModel::EventLoop, CONNS, REQS_PER_CONN, RESPONSE);
    let pc = concurrent_throughput(
        &tb,
        ServerModel::PerConnection,
        CONNS,
        REQS_PER_CONN,
        RESPONSE,
    );
    assert_eq!(aw.requests, cq.requests);
    assert_eq!(aw.requests, el.requests);
    assert_eq!(aw.requests, pc.requests);
    assert!(
        aw.reqs_per_sec >= 0.85 * el.reqs_per_sec,
        "async goodput fell >15% behind the event loop: {} vs {}",
        aw.reqs_per_sec,
        el.reqs_per_sec
    );
}

const KV_CLIENTS: usize = 32;
const KV_OPS: u32 = 8;

#[test]
fn async_kvstore_serves_32_clients_on_the_substrate() {
    let tb = Testbed::emp_default(KV_CLIENTS + 1);
    let r = kvstore::run_workload_with(&tb, ServerModel::Async, KV_CLIENTS, KV_OPS, 256, 0.5, 7);
    assert_eq!(r.ops, (KV_CLIENTS as u64) * u64::from(KV_OPS));
    assert!(r.hits > 0, "warmed keys must produce hits");
    assert!(r.ops_per_sec > 0.0);
}

#[test]
fn async_kvstore_serves_32_clients_on_kernel_tcp() {
    let tb = Testbed::kernel_default(KV_CLIENTS + 1);
    let r = kvstore::run_workload_with(&tb, ServerModel::Async, KV_CLIENTS, KV_OPS, 256, 0.5, 7);
    assert_eq!(r.ops, (KV_CLIENTS as u64) * u64::from(KV_OPS));
    assert!(r.hits > 0, "warmed keys must produce hits");
    assert!(r.ops_per_sec > 0.0);
}

#[test]
fn async_server_runs_are_deterministic() {
    // The executor inherits the engine's (time, sequence) order, so two
    // same-seed async-served runs on fresh sims produce byte-identical
    // telemetry — executor counters included — and bit-equal results.
    use emp_apps::webserver;

    let run = || {
        let sim = Sim::new();
        let tb = Testbed::emp_default(3);
        let r = webserver::concurrent_throughput_on(&sim, &tb, ServerModel::Async, 8, 6, 512);
        let reg = sim.telemetry();
        reg.sample_now(sim.now().nanos());
        (r, reg.snapshot().deterministic_text())
    };
    let (ra, ta) = run();
    let (rb, tb) = run();
    assert!(
        ta.contains("exec.wakes"),
        "executor telemetry missing from the registry"
    );
    assert!(ta.contains("exec.poll_spins"), "poll-spin counter missing");
    assert_eq!(
        ta, tb,
        "async-model telemetry diverged across same-seed runs"
    );
    assert_eq!(ra.requests, rb.requests);
    assert_eq!(ra.elapsed_us.to_bits(), rb.elapsed_us.to_bits());
}

// ---- cancellation: dropping a ring-op future releases its resources ----

const DROP_PORT: u16 = 1200;
const DROP_CFG: RingConfig = RingConfig {
    sq_depth: 4,
    cq_depth: 8,
    buf_count: 2,
    buf_size: 512,
    max_registered_bytes: None,
};

fn ring_drop_run(tb: &Testbed) {
    let sim = Sim::new();
    let server = Arc::clone(&tb.nodes[0].api);
    sim.spawn("silent-server", move |ctx| {
        let l = server.listen(ctx, DROP_PORT, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("client");
        // Hold the connection open and never send a byte: the client's
        // ring read must be cancelled by its deadline, not completed.
        ctx.delay(SimDuration::from_millis(5))?;
        conn.close(ctx)?;
        l.close(ctx)?;
        Ok(())
    });
    let api = Arc::clone(&tb.nodes[1].api);
    let host = tb.nodes[0].api.local_host();
    let checked = Arc::new(Mutex::new(false));
    let checked2 = Arc::clone(&checked);
    sim.spawn("ring-drop-client", move |ctx| {
        let conn = api.connect(ctx, host, DROP_PORT)?.expect("connect");
        emp_async::block_on(ctx, async move {
            let ring = AsyncRing::new(api.as_ref(), DROP_CFG, "drop-guard");
            let id = ring.add_conn(conn);
            let got = emp_async::timeout(SimDuration::from_micros(500), ring.read(id)).await;
            assert!(got.is_none(), "peer is silent; the read must time out");
            // The dropped future's guard cancelled the stalled op: its
            // registered buffer is back in the pool and the ring is
            // fully drained.
            assert_eq!(
                ring.pool_free(),
                DROP_CFG.buf_count,
                "cancelled read leaked its registered buffer"
            );
            let d = ring.depths();
            assert_eq!(
                (d.sq, d.in_flight, d.cq),
                (0, 0, 0),
                "cancelled op left ring residue"
            );
            emp_async::with_ctx(|ctx| ring.shutdown(ctx))?;
            *checked2.lock() = true;
            SimResult::Ok(())
        })??;
        Ok(())
    });
    sim.run();
    assert!(*checked.lock(), "client assertions never ran");
    // Shutdown republished the ring gauges: all drained to zero.
    let reg = sim.telemetry();
    for g in ["sq", "in_flight", "cq"] {
        assert_eq!(
            reg.gauge(&format!("ring.drop-guard.{g}")).get(),
            0,
            "ring.drop-guard.{g} gauge left non-zero after cancellation"
        );
    }
}

#[test]
fn dropping_a_ring_read_future_releases_its_buffer_on_the_substrate() {
    ring_drop_run(&Testbed::emp_default(2));
}

#[test]
fn dropping_a_ring_read_future_releases_its_buffer_on_kernel_tcp() {
    ring_drop_run(&Testbed::kernel_default(2));
}

// ---- waker re-arm edges -------------------------------------------------

const EDGE_PORT: u16 = 1300;

/// Readiness that fired before any waker existed must be observed by the
/// registration-time check — the lost-wakeup edge of check-then-arm.
fn late_registration_run(tb: &Testbed) {
    let sim = Sim::new();
    let server = Arc::clone(&tb.nodes[0].api);
    sim.spawn("eager-server", move |ctx| {
        let l = server.listen(ctx, EDGE_PORT, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("client");
        conn.write(ctx, &[0x5a])?.expect("greeting");
        conn.flush(ctx)?.expect("flush");
        // Wait for the client to consume and hang up.
        loop {
            match conn.read_deadline(ctx, 1 << 16, SimDuration::from_millis(5))? {
                Ok(b) if !b.is_empty() => continue,
                _ => break,
            }
        }
        conn.close(ctx)?;
        l.close(ctx)?;
        Ok(())
    });
    let api = Arc::clone(&tb.nodes[1].api);
    let host = tb.nodes[0].api.local_host();
    let checked = Arc::new(Mutex::new(false));
    let checked2 = Arc::clone(&checked);
    sim.spawn("late-client", move |ctx| {
        let conn = api.connect(ctx, host, EDGE_PORT)?.expect("connect");
        // A default substrate connection sends its request with its first
        // operation; send it bare now, so the server accepts and greets
        // while this client sleeps.
        conn.flush(ctx)?.expect("flush");
        // Let the server's byte land long before any waker exists.
        ctx.delay(SimDuration::from_millis(2))?;
        emp_async::block_on(ctx, async move {
            let stream = AsyncStream::new(conn);
            let before = emp_async::with_ctx(|ctx| ctx.now());
            let r = stream
                .ready(Interest::READABLE)
                .await?
                .expect("readiness check");
            assert!(
                r.contains(Interest::READABLE),
                "byte arrived long ago; readiness must report it"
            );
            let after = emp_async::with_ctx(|ctx| ctx.now());
            assert_eq!(
                before, after,
                "pre-fired readiness resolved via a wake instead of the recheck"
            );
            let b = stream.read(16).await?.expect("data");
            assert_eq!(&b[..], &[0x5a]);
            stream.close().await?;
            *checked2.lock() = true;
            SimResult::Ok(())
        })??;
        Ok(())
    });
    sim.run();
    assert!(*checked.lock(), "client assertions never ran");
}

#[test]
fn readiness_fired_before_registration_is_not_lost_on_the_substrate() {
    late_registration_run(&Testbed::emp_default(2));
}

#[test]
fn readiness_fired_before_registration_is_not_lost_on_kernel_tcp() {
    late_registration_run(&Testbed::kernel_default(2));
}

const SPURIOUS_PORT: u16 = 1400;

/// Spurious wakes — wakes with no readiness behind them — must re-poll,
/// re-check, re-arm, and leave the eventual delivery intact.
fn spurious_wake_run(tb: &Testbed) {
    let sim = Sim::new();
    let server = Arc::clone(&tb.nodes[0].api);
    sim.spawn("slow-server", move |ctx| {
        let l = server.listen(ctx, SPURIOUS_PORT, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("client");
        // Send only after the client has eaten several spurious wakes.
        ctx.delay(SimDuration::from_millis(1))?;
        conn.write(ctx, b"payload!")?.expect("payload");
        conn.flush(ctx)?.expect("flush");
        loop {
            match conn.read_deadline(ctx, 1 << 16, SimDuration::from_millis(5))? {
                Ok(b) if !b.is_empty() => continue,
                _ => break,
            }
        }
        conn.close(ctx)?;
        l.close(ctx)?;
        Ok(())
    });
    let api = Arc::clone(&tb.nodes[1].api);
    let host = tb.nodes[0].api.local_host();
    let checked = Arc::new(Mutex::new(false));
    let checked2 = Arc::clone(&checked);
    sim.spawn("spurious-client", move |ctx| {
        let conn = api.connect(ctx, host, SPURIOUS_PORT)?.expect("connect");
        emp_async::block_on(ctx, async move {
            let stream = AsyncStream::new(conn);
            let read = stream.read(64);
            let mut read = pin!(read);
            let mut injected = false;
            let b = poll_fn(|cx| {
                if !injected {
                    injected = true;
                    // Fire three wakes with nothing ready behind them,
                    // all before the server's 1ms send.
                    emp_async::with_ctx(|ctx| {
                        for i in 1..=3u64 {
                            let w = cx.waker().clone();
                            ctx.schedule_after(SimDuration::from_micros(100 * i), move |_| {
                                w.wake()
                            });
                        }
                    });
                }
                read.as_mut().poll(cx)
            })
            .await?
            .expect("data");
            assert_eq!(&b[..], b"payload!", "spurious wakes corrupted delivery");
            stream.close().await?;
            *checked2.lock() = true;
            SimResult::Ok(())
        })??;
        Ok(())
    });
    sim.run();
    assert!(*checked.lock(), "client assertions never ran");
}

#[test]
fn spurious_wakes_rearm_and_still_deliver_on_the_substrate() {
    spurious_wake_run(&Testbed::emp_default(2));
}

#[test]
fn spurious_wakes_rearm_and_still_deliver_on_kernel_tcp() {
    spurious_wake_run(&Testbed::kernel_default(2));
}

const SWITCH_PORT: u16 = 1500;

/// Arm write interest against a full window, abandon the wait (its drop
/// guard disarms what it armed — the substrate's flow-control ack
/// watch), then wait for *read* interest instead: the changed interest
/// must still wake, and the write path must still work afterwards.
fn interest_switch_run(tb: &Testbed) {
    let sim = Sim::new();
    let server = Arc::clone(&tb.nodes[0].api);
    sim.spawn("draining-server", move |ctx| {
        let l = server.listen(ctx, SWITCH_PORT, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("client");
        // Let the client fill its send window and park a write wait.
        ctx.delay(SimDuration::from_millis(1))?;
        // Drain everything it managed to send, then signal readability.
        loop {
            match conn.read_deadline(ctx, 1 << 16, SimDuration::from_millis(1))? {
                Ok(b) if !b.is_empty() => continue,
                _ => break,
            }
        }
        conn.write(ctx, &[0x99])?.expect("marker");
        conn.flush(ctx)?.expect("flush");
        loop {
            match conn.read_deadline(ctx, 1 << 16, SimDuration::from_millis(5))? {
                Ok(b) if !b.is_empty() => continue,
                _ => break,
            }
        }
        conn.close(ctx)?;
        l.close(ctx)?;
        Ok(())
    });
    let api = Arc::clone(&tb.nodes[1].api);
    let host = tb.nodes[0].api.local_host();
    let checked = Arc::new(Mutex::new(false));
    let checked2 = Arc::clone(&checked);
    sim.spawn("switching-client", move |ctx| {
        let conn = api.connect(ctx, host, SWITCH_PORT)?.expect("connect");
        emp_async::block_on(ctx, async move {
            let stream = AsyncStream::new(conn);
            // Fill the send window; the server is not reading yet.
            let chunk = vec![0x42u8; 4096];
            let mut stuffed = false;
            for _ in 0..4096 {
                match emp_async::with_ctx(|ctx| stream.get_ref().try_write(ctx, &chunk))? {
                    Ok(_) => {}
                    Err(NetError::WouldBlock) => {
                        stuffed = true;
                        break;
                    }
                    Err(e) => panic!("unexpected write error: {e:?}"),
                }
            }
            assert!(stuffed, "send window never filled");
            // Arm write interest, observe Pending, then change our
            // mind: drop the wait and wait for readability instead.
            {
                let wr = stream.ready(Interest::WRITABLE);
                let mut wr = pin!(wr);
                let pending = poll_fn(|cx| Poll::Ready(wr.as_mut().poll(cx).is_pending())).await;
                assert!(pending, "window is full; write interest must park");
            } // dropped here — the armed source is disarmed
            let r = stream
                .ready(Interest::READABLE)
                .await?
                .expect("readiness after interest switch");
            assert!(r.contains(Interest::READABLE));
            let marker = stream
                .read_exact(1)
                .await?
                .expect("marker")
                .expect("marker byte");
            assert_eq!(marker[0], 0x99);
            // The write path still works after the abandoned wait.
            stream.write_all(b"bye").await?.expect("write after switch");
            stream.flush().await?.expect("flush");
            stream.close().await?;
            *checked2.lock() = true;
            SimResult::Ok(())
        })??;
        Ok(())
    });
    sim.run();
    assert!(*checked.lock(), "client assertions never ran");
}

#[test]
fn interest_change_between_poll_and_wake_is_safe_on_the_substrate() {
    interest_switch_run(&Testbed::emp_default(2));
}

#[test]
fn interest_change_between_poll_and_wake_is_safe_on_kernel_tcp() {
    interest_switch_run(&Testbed::kernel_default(2));
}

// ---- staged writes nobody flushes ---------------------------------------

/// Two `write_all`s to one stream without `flush` — the second is staged
/// behind the first — then await a read on another whose peer answers
/// only after the first stream's peer saw all the bytes. The awaited
/// readiness is socket A's alone, so nothing the task does ever touches B
/// again: the substrate's staging deadline has to send the staged half
/// (the async case of `crates/core/tests/fastpath.rs`'s
/// `a_write_nobody_follows_up_still_leaves_on_every_front_end`).
#[test]
fn write_all_without_flush_still_leaves_on_the_substrate() {
    const PORT: u16 = 1400;
    let tb = Testbed::emp_default(3);
    let sim = Sim::new();
    let b_saw_it = simnet::Completion::new();
    for (node, is_b) in [(1, false), (2, true)] {
        let api = Arc::clone(&tb.nodes[node].api);
        let b_saw_it = b_saw_it.clone();
        sim.spawn(format!("peer-{node}"), move |ctx| {
            let l = api.listen(ctx, PORT, 4)?.expect("port free");
            let conn = l.accept(ctx)?.expect("client");
            if is_b {
                let m = conn.read_exact(ctx, 19)?.expect("read");
                assert_eq!(&m.expect("the unflushed bytes")[..], b"nobody flushes this");
                b_saw_it.complete(ctx);
            } else {
                b_saw_it.wait(ctx)?;
                conn.write(ctx, b"go on")?.expect("answer");
                conn.flush(ctx)?.expect("flush");
            }
            assert!(conn.read(ctx, 64)?.expect("eof").is_empty());
            conn.close(ctx)?;
            l.close(ctx)
        });
    }
    let api = Arc::clone(&tb.nodes[0].api);
    let (host_a, host_b) = (tb.nodes[1].api.local_host(), tb.nodes[2].api.local_host());
    let finished = Arc::new(Mutex::new(false));
    let finished2 = Arc::clone(&finished);
    sim.spawn("async-client", move |ctx| {
        let a = AsyncStream::new(api.connect(ctx, host_a, PORT)?.expect("connect a"));
        let b = AsyncStream::new(api.connect(ctx, host_b, PORT)?.expect("connect b"));
        emp_async::block_on(ctx, async move {
            b.write_all(b"nobody ").await?.expect("write");
            b.write_all(b"flushes this").await?.expect("write");
            let answer = a.read(64).await?.expect("a's answer");
            assert_eq!(&answer[..], b"go on");
            b.close().await?;
            a.close().await?;
            *finished2.lock() = true;
            SimResult::Ok(())
        })??;
        Ok(())
    });
    sim.run();
    assert!(*finished.lock(), "the write to B never left");
}

//! The latency microbenchmark (§7.1-7.2): a ping-pong between two nodes;
//! one-way latency is half the measured round trip.

use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{Sim, SimAccess, SimDuration};

use crate::testbed::Testbed;

/// Measure one-way latency for `msg_size`-byte messages over `iters`
/// round trips on nodes 0 and 1 of `tb`. Returns microseconds.
pub fn one_way_latency_us(sim: &Sim, tb: &Testbed, msg_size: usize, iters: u32) -> f64 {
    pingpong_run(sim, tb, msg_size, iters, false, None)
}

/// [`one_way_latency_us`], also returning both connections' substrate
/// counters summed (sampled just before close; all zeros on kernel TCP).
/// The ping-pong is the posted-reader case: each side is parked in
/// `read()` when its message arrives, so under
/// `CopyPolicy::ADAPTIVE` every delivery should bypass the temp-buffer
/// copy (`copies_avoided`/`bytes_direct` account it).
pub fn pingpong_with_stats(
    sim: &Sim,
    tb: &Testbed,
    msg_size: usize,
    iters: u32,
) -> (f64, sockets_emp::ConnStats) {
    let stats = Arc::new(Mutex::new(sockets_emp::ConnStats::default()));
    let us = pingpong_run(sim, tb, msg_size, iters, false, Some(Arc::clone(&stats)));
    let s = *stats.lock();
    (us, s)
}

/// A ping-pong run captured for analysis: the measured latency plus the
/// post-warmup event trace (see `simnet::emp_trace`).
pub struct TracedPingpong {
    /// Measured one-way latency in microseconds, as
    /// [`one_way_latency_us`] reports it.
    pub one_way_us: f64,
    /// The events recorded between the end of the warmup and the end of
    /// the run, sorted by sim-time. Empty unless the `trace` feature is
    /// enabled.
    pub events: Vec<simnet::emp_trace::TraceEvent>,
    /// Events lost to ring overflow (0 means the trace is complete).
    pub dropped: u64,
}

/// Run the ping-pong with tracing: the simulation's tracer is cleared
/// after the warmup round trips, so the returned trace covers exactly the
/// `iters` measured round trips. Feed `events` to
/// `emp_trace::Breakdown::compute` for the §7-style latency budget or to
/// `emp_trace::chrome_trace_json` for a Perfetto-loadable timeline.
pub fn traced_pingpong(sim: &Sim, tb: &Testbed, msg_size: usize, iters: u32) -> TracedPingpong {
    let one_way_us = pingpong_run(sim, tb, msg_size, iters, true, None);
    let tracer = sim.tracer();
    TracedPingpong {
        one_way_us,
        events: tracer.snapshot(),
        dropped: tracer.dropped(),
    }
}

fn pingpong_run(
    sim: &Sim,
    tb: &Testbed,
    msg_size: usize,
    iters: u32,
    traced: bool,
    stats: Option<Arc<Mutex<sockets_emp::ConnStats>>>,
) -> f64 {
    assert!(tb.nodes.len() >= 2, "ping-pong needs two nodes");
    assert!(msg_size >= 1);
    let out = Arc::new(Mutex::new(f64::NAN));
    let out2 = Arc::clone(&out);
    let (stats_srv, stats_cli) = (stats.clone(), stats);
    let server_api = Arc::clone(&tb.nodes[1].api);
    let client_api = Arc::clone(&tb.nodes[0].api);
    let server_host = server_api.local_host();
    const PORT: u16 = 77;

    sim.spawn("pingpong-echoer", move |ctx| {
        let l = server_api.listen(ctx, PORT, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        // The read errs (reset/refused) under a torn-down client.
        while let Ok(m) = conn.read(ctx, msg_size)? {
            if m.is_empty() {
                break;
            }
            // Echo exactly what arrived (byte streams may fragment).
            if conn.write(ctx, &m)?.is_err() {
                break;
            }
        }
        if let (Some(acc), Some(s)) = (&stats_srv, conn.substrate_stats()) {
            *acc.lock() += s;
        }
        let _ = conn.close(ctx);
        l.close(ctx)?;
        Ok(())
    });
    sim.spawn("pingpong-pinger", move |ctx| {
        let conn = client_api
            .connect(ctx, server_host, PORT)?
            .expect("connect");
        let payload = vec![0x55u8; msg_size];
        // Warm up: connection setup, buffer registration, caches.
        for _ in 0..4 {
            conn.write(ctx, &payload)?.expect("warm write");
            conn.read_exact(ctx, msg_size)?
                .expect("warm read")
                .expect("pong");
        }
        if traced {
            // Drop warmup noise so the trace covers exactly the measured
            // round trips (connection setup dwarfs steady-state RTTs).
            ctx.tracer().clear();
        }
        let rtt_hist = ctx.telemetry().histogram("app.rtt_ns");
        let t0 = ctx.now();
        for _ in 0..iters {
            let iter_start = ctx.now();
            conn.write(ctx, &payload)?.expect("write");
            conn.read_exact(ctx, msg_size)?
                .expect("read")
                .expect("pong");
            rtt_hist.record((ctx.now() - iter_start).nanos());
        }
        let rtt = (ctx.now() - t0) / u64::from(iters);
        *out2.lock() = rtt.as_micros_f64() / 2.0;
        ctx.delay(SimDuration::from_micros(50))?;
        if let (Some(acc), Some(s)) = (&stats_cli, conn.substrate_stats()) {
            *acc.lock() += s;
        }
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    let us = *out.lock();
    assert!(us.is_finite(), "ping-pong did not complete");
    us
}

/// Measure connection setup, both ways of looking at it:
/// `(client_blocked_us, established_us)` — how long `connect()` blocks
/// the caller, and how long until the server's `accept()` holds the
/// connection. Averaged over `iters` sequential connections.
///
/// §7.4: TCP's connect blocks ~200-250 µs for the kernel handshake; the
/// substrate's connect is a single posted message ("the connection time
/// of the substrate \[reduces\] to the time required by a message
/// exchange") and returns almost immediately.
pub fn connect_times_us(sim: &Sim, tb: &Testbed, iters: u32) -> (f64, f64) {
    assert!(tb.nodes.len() >= 2);
    let out = Arc::new(Mutex::new((f64::NAN, f64::NAN)));
    let t_connect_call = Arc::new(Mutex::new(Vec::new()));
    const PORT: u16 = 79;

    let server_api = Arc::clone(&tb.nodes[1].api);
    let (out2, tcc) = (Arc::clone(&out), Arc::clone(&t_connect_call));
    sim.spawn("conn-server", move |ctx| {
        let l = server_api.listen(ctx, PORT, 8)?.expect("port free");
        let mut established = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            let conn = l.accept(ctx)?.expect("connection");
            established.push(ctx.now().nanos());
            // Consume the probe byte so the client can move on.
            let d = conn.read(ctx, 8)?.expect("probe");
            debug_assert_eq!(d.len(), 1);
            let _ = conn.close(ctx);
        }
        // Pair accept times with the recorded connect-call times.
        let starts = tcc.lock();
        let mean_est: f64 = established
            .iter()
            .zip(starts.iter())
            .map(|(e, s): (&u64, &u64)| (e - s) as f64 / 1000.0)
            .sum::<f64>()
            / iters as f64;
        out2.lock().1 = mean_est;
        l.close(ctx)?;
        Ok(())
    });
    let client_api = Arc::clone(&tb.nodes[0].api);
    let server_host = tb.nodes[1].api.local_host();
    let (out3, tcc) = (Arc::clone(&out), Arc::clone(&t_connect_call));
    sim.spawn("conn-client", move |ctx| {
        let mut blocked = 0u64;
        for _ in 0..iters {
            let t0 = ctx.now();
            tcc.lock().push(t0.nanos());
            let conn = client_api
                .connect(ctx, server_host, PORT)?
                .expect("connect");
            blocked += (ctx.now() - t0).nanos();
            conn.write(ctx, b"x")?.expect("probe");
            // Wait for the server to finish with this connection before
            // the next one (sequential setup measurements).
            let _ = conn.read(ctx, 8)?;
            let _ = conn.close(ctx);
        }
        out3.lock().0 = blocked as f64 / 1000.0 / f64::from(iters);
        Ok(())
    });
    sim.run();
    let (blocked, established) = *out.lock();
    assert!(blocked.is_finite() && established.is_finite());
    (blocked, established)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emp_vs_kernel_latency_gap() {
        let sim = Sim::new();
        let tb = Testbed::emp_default(2);
        let emp = one_way_latency_us(&sim, &tb, 4, 30);
        let sim = Sim::new();
        let tb = Testbed::kernel_default(2);
        let tcp = one_way_latency_us(&sim, &tb, 4, 30);
        // Abstract: "28.5/37 us vs 120 us" — a 3-4x improvement.
        let ratio = tcp / emp;
        assert!(
            (2.5..4.5).contains(&ratio),
            "latency improvement {ratio:.2}x (emp {emp:.1} us, tcp {tcp:.1} us)"
        );
    }

    #[test]
    fn connect_costs_match_the_paper() {
        let sim = Sim::new();
        let tb = Testbed::kernel_default(2);
        let (tcp_blocked, _tcp_est) = connect_times_us(&sim, &tb, 10);
        assert!(
            (180.0..280.0).contains(&tcp_blocked),
            "TCP connect blocks {tcp_blocked:.0} us (paper: 200-250)"
        );
        let sim = Sim::new();
        // Credit size 4, as §7.4's web server — fewer descriptors to post
        // and garbage-collect per connection.
        let tb = Testbed::emp(
            2,
            emp_proto::EmpConfig::default(),
            sockets_emp::SubstrateConfig::ds_da_uq().with_credits(4),
            "emp-c4",
        );
        let (emp_blocked, emp_est) = connect_times_us(&sim, &tb, 10);
        assert!(
            emp_blocked < tcp_blocked / 2.0,
            "substrate connect ({emp_blocked:.0} us) is just local posting"
        );
        assert!(
            emp_est < 120.0,
            "established within a message exchange: {emp_est:.0} us"
        );
    }

    #[test]
    fn traced_pingpong_breakdown_sums_to_measured_rtt() {
        use simnet::emp_trace;
        if !emp_trace::ENABLED {
            return; // meaningful only with `--features trace`
        }
        let sim = Sim::new();
        let tb = Testbed::emp_default(2);
        let iters = 30;
        let run = traced_pingpong(&sim, &tb, 4, iters);
        assert_eq!(run.dropped, 0, "ring must hold the whole measured run");
        assert!(!run.events.is_empty(), "traced run must record events");

        // The milestone tiling must reproduce the measured RTT: the
        // breakdown window covers the iters round trips, so its per-RTT
        // mean and the wall-clock measurement agree within 5% (the only
        // slack is the sub-µs tail after the last SockReadEnd).
        let b = emp_trace::Breakdown::compute(&run.events).expect("complete window");
        assert_eq!(b.stage_ns.iter().sum::<u64>(), b.total_ns());
        assert_eq!(b.legs, u64::from(iters) * 2, "two socket reads per RTT");
        let trace_rtt_ns = b.mean_rtt_ns().expect("enough legs");
        let measured_rtt_ns = run.one_way_us * 2.0 * 1e3;
        let err = (trace_rtt_ns - measured_rtt_ns).abs() / measured_rtt_ns;
        assert!(
            err < 0.05,
            "breakdown rtt {trace_rtt_ns:.0} ns vs measured {measured_rtt_ns:.0} ns ({:.1}% off)",
            err * 100.0
        );
        // Every stage the paper budgets must be visibly non-zero.
        for stage in emp_trace::STAGES {
            assert!(
                b.stage(stage) > 0,
                "stage '{}' missing from the budget",
                stage.name()
            );
        }

        // The Chrome export must be structurally valid JSON (the writer
        // emits no strings containing braces or brackets, so balanced
        // delimiters plus the envelope prove well-formedness).
        let json = emp_trace::chrome_trace_json(&run.events);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        let count = |c| json.chars().filter(|&x| x == c).count();
        assert_eq!(count('{'), count('}'));
        assert_eq!(count('['), count(']'));
        assert!(json.matches("\"ph\":\"i\"").count() >= run.events.len());
    }

    #[test]
    fn latency_grows_with_message_size() {
        let sim = Sim::new();
        let tb = Testbed::emp_default(2);
        let small = one_way_latency_us(&sim, &tb, 4, 20);
        let sim = Sim::new();
        let tb = Testbed::emp_default(2);
        let large = one_way_latency_us(&sim, &tb, 4096, 20);
        assert!(
            large > small + 10.0,
            "4 KiB ({large:.1}) vs 4 B ({small:.1})"
        );
    }
}

//! The `empstat` workload: one deterministic simulation exercising the
//! latency path (ping-pong), the staged-write path (a one-way stream of
//! small writes), the readiness path (event-loop webserver) and the
//! completion path (ring-served webserver) on the same testbed,
//! then a snapshot of everything the always-on telemetry registry
//! collected along the way, and each NIC's protocol counters with its
//! firmware time split by task kind.
//!
//! The `empstat` binary runs this, and the determinism integration test
//! runs it twice and asserts byte-identical registry contents.

use std::fmt::Write as _;

use emp_proto::EmpStats;
use simnet::emp_trace::telemetry::RegistrySnapshot;
use simnet::{Sim, SimAccess};

use emp_apps::webserver::{self, ConcurrencyRun, ServerModel};
use emp_apps::{bandwidth, overload, pingpong, OverloadReport, StormConfig, Testbed};

/// Ping-pong message size (bytes) in the standard workload.
pub const PINGPONG_BYTES: usize = 4;
/// Measured ping-pong round trips in the standard workload.
pub const PINGPONG_ITERS: u32 = 50;
/// Write size of the standard workload's one-way stream: small enough
/// that the default configuration stages it.
pub const STREAM_WRITE_BYTES: usize = 64;
/// Bytes the one-way stream carries.
pub const STREAM_BYTES: usize = 32 * 1024;
/// Concurrent webserver connections in the standard workload.
pub const WEB_CONNS: u32 = 8;
/// Requests per webserver connection in the standard workload.
pub const WEB_REQS: u32 = 10;
/// Webserver response body size in bytes.
pub const WEB_RESPONSE_BYTES: usize = 512;
/// Connection attempts in the standard workload's overload storm.
pub const STORM_CLIENTS: u32 = 24;

/// Everything one standard-workload run produces.
pub struct StatRun {
    /// The telemetry registry after the workload drained (sampled one
    /// final time at the end so series include the closing state).
    pub snapshot: RegistrySnapshot,
    /// Ping-pong one-way latency, µs.
    pub pingpong_us: f64,
    /// One-way small-write stream goodput, Mbit/s. Request/response
    /// traffic never stages (a lone write is sent at once), so this is
    /// the stage that puts `sock.coalesce_flushes` on record.
    pub stream_mbps: f64,
    /// Event-loop webserver aggregate result.
    pub web: ConcurrencyRun,
    /// Completion-ring webserver aggregate result (same workload shape
    /// as `web`, served through the SQ/CQ model).
    pub web_completion: ConcurrencyRun,
    /// Async-executor webserver aggregate result (same workload shape,
    /// served by straight-line `async` handlers on the deterministic
    /// executor), so the `exec.*` telemetry is always live in the
    /// export.
    pub web_async: ConcurrencyRun,
    /// Overload storm result (connect storm against a shedding server),
    /// so the admission-control counters are always live in the export.
    pub storm: OverloadReport,
    /// Each NIC's protocol counters and firmware profile, by node.
    pub nics: Vec<EmpStats>,
}

/// Run the standard workload on a fresh simulation: a
/// [`PINGPONG_ITERS`]-round ping-pong between nodes 0 and 1, then the
/// event-loop webserver serving [`WEB_CONNS`] concurrent connections,
/// then the same webserver workload through the completion ring, all on
/// one 3-node substrate testbed so every layer registers into a single
/// telemetry registry.
pub fn run_standard_workload() -> StatRun {
    let sim = Sim::new();
    let tb = Testbed::emp_default(3);
    let pingpong_us = pingpong::one_way_latency_us(&sim, &tb, PINGPONG_BYTES, PINGPONG_ITERS);
    let web = webserver::concurrent_throughput_on(
        &sim,
        &tb,
        ServerModel::EventLoop,
        WEB_CONNS,
        WEB_REQS,
        WEB_RESPONSE_BYTES,
    );
    let web_completion = webserver::concurrent_throughput_on(
        &sim,
        &tb,
        ServerModel::Completion,
        WEB_CONNS,
        WEB_REQS,
        WEB_RESPONSE_BYTES,
    );
    let web_async = webserver::concurrent_throughput_on(
        &sim,
        &tb,
        ServerModel::Async,
        WEB_CONNS,
        WEB_REQS,
        WEB_RESPONSE_BYTES,
    );
    // A connect storm past saturation: the overload counters
    // (`sock.connects_refused`, `app.shed`, ...) register in the same
    // snapshot the dashboards scrape.
    let storm = overload::run_storm_on(
        &sim,
        &tb,
        &StormConfig {
            clients: STORM_CLIENTS,
            ..StormConfig::default()
        },
    );
    // Last, so the stages above keep their place on the sim clock.
    let stream_mbps = bandwidth::throughput_mbps(&sim, &tb, STREAM_WRITE_BYTES, STREAM_BYTES);
    let reg = sim.telemetry();
    reg.sample_now(sim.now().nanos());
    let cluster = tb.emp_cluster().expect("EMP testbed");
    StatRun {
        nics: cluster.nodes.iter().map(|n| n.nic.stats()).collect(),
        snapshot: reg.snapshot(),
        pingpong_us,
        stream_mbps,
        web,
        web_completion,
        web_async,
        storm,
    }
}

/// One-line workload summary printed above the table/export formats.
pub fn workload_summary(run: &StatRun) -> String {
    format!(
        "empstat workload: {PINGPONG_BYTES}B ping-pong {:.2} us one-way over \
         {PINGPONG_ITERS} iters; event-loop webserver {WEB_CONNS} conns x \
         {WEB_REQS} reqs ({} requests, {:.0} req/s); completion-ring \
         webserver ({} requests, {:.0} req/s); async webserver \
         ({} requests, {:.0} req/s)",
        run.pingpong_us,
        run.web.requests,
        run.web.reqs_per_sec,
        run.web_completion.requests,
        run.web_completion.reqs_per_sec,
        run.web_async.requests,
        run.web_async.reqs_per_sec
    ) + &format!(
        "; overload storm {STORM_CLIENTS} attempts -> served={} degraded={} \
         refused={} shed={} timed_out={} ({:.1} Mbps goodput, p99 {:.0} us); \
         {STREAM_WRITE_BYTES}B-write stream {:.0} Mbps",
        run.storm.outcomes.served,
        run.storm.outcomes.degraded,
        run.storm.outcomes.refused,
        run.storm.shed,
        run.storm.outcomes.timed_out,
        run.storm.goodput_mbps(),
        run.storm.p99_us,
        run.stream_mbps
    )
}

/// Per-NIC firmware profile: each CPU's busy time by task kind (µs), and
/// how the NIC's acks left — standalone or riding on a data frame.
pub fn nic_profile_table(nics: &[EmpStats]) -> String {
    let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
    let mut out = String::from(
        "per-NIC firmware busy time (us) by task kind\n\
         node | rx: total frame walk dma completion ack post uq_resize \
         | tx: total request rearm frame ack | acks: standalone held piggybacked\n",
    );
    for (node, s) in nics.iter().enumerate() {
        let (rx, tx) = (s.rx_fw, s.tx_fw);
        let rx_cols = [
            rx.total(),
            rx.frame,
            rx.walk,
            rx.dma,
            rx.completion,
            rx.ack,
            rx.post,
            rx.uq_resize,
        ]
        .map(us)
        .join(" ");
        let tx_cols = [tx.total(), tx.request, tx.rearm, tx.frame, tx.ack]
            .map(us)
            .join(" ");
        let _ = writeln!(
            out,
            "n{node} | rx: {rx_cols} | tx: {tx_cols} | acks: {} {} {}",
            s.acks_sent, s.acks_held, s.acks_piggybacked
        );
    }
    out
}

/// Telemetry self-check: the histograms and series the acceptance
/// criteria name must be non-empty after the standard workload. Returns
/// an error string naming the first missing piece.
pub fn self_check(run: &StatRun) -> Result<String, String> {
    let snap = &run.snapshot;
    let need_hists = [
        "app.rtt_ns",
        "app.eventloop_turn_ns",
        "app.completion_turn_ns",
        "emp.msg_latency_ns",
        "core.poll_wait_ns",
    ];
    for name in need_hists {
        match snap.histograms.get(name) {
            Some(h) if h.count > 0 => {}
            Some(_) => return Err(format!("histogram {name} recorded nothing")),
            None => return Err(format!("histogram {name} missing")),
        }
    }
    let live_series = snap
        .series
        .iter()
        .filter(|(_, s)| !s.points.is_empty())
        .count();
    if live_series < 3 {
        return Err(format!(
            "only {live_series} non-empty time series (need >= 3)"
        ));
    }
    // The completion ring exports its depth gauges as sampled series.
    let ring_series = snap
        .series
        .iter()
        .filter(|(name, s)| name.starts_with("ring.") && !s.points.is_empty())
        .count();
    if ring_series == 0 {
        return Err("no ring.* depth series recorded".into());
    }
    // Overload counters: the storm stage must have tripped admission
    // control somewhere (stack refusal or application shed) and the
    // bookkeeping counters must exist even when zero.
    for name in ["app.shed", "app.reaped"] {
        if !snap.counters.contains_key(name) {
            return Err(format!("counter {name} missing"));
        }
    }
    let refused = snap
        .counters
        .get("sock.connects_refused")
        .copied()
        .unwrap_or(0)
        + snap
            .counters
            .get("tcp.connects_refused")
            .copied()
            .unwrap_or(0);
    let shed = snap.counters.get("app.shed").copied().unwrap_or(0);
    if refused + shed == 0 {
        return Err("overload storm tripped no admission control (refused+shed == 0)".into());
    }
    // Executor telemetry: the async webserver stage runs on the
    // deterministic executor, so its wake counter and poll-spin
    // histogram must have fired, and every task must have retired
    // (`exec.tasks_live` back to zero) once the workload drained.
    let wakes = snap.counters.get("exec.wakes").copied().unwrap_or(0);
    if wakes == 0 {
        return Err("exec.wakes never fired (async stage did not run?)".into());
    }
    match snap.histograms.get("exec.poll_spins") {
        Some(h) if h.count > 0 => {}
        _ => return Err("histogram exec.poll_spins recorded nothing".into()),
    }
    match snap.gauges.get("exec.tasks_live").copied() {
        Some(0) => {}
        Some(v) => return Err(format!("exec.tasks_live stuck at {v} after drain")),
        None => return Err("gauge exec.tasks_live missing".into()),
    }
    // Registered-buffer leak gate: every completion ring's depth gauges
    // (`ring.<label>.sq` / `.in_flight` / `.cq`) must read zero once the
    // workload drained — an in-flight op past the end means a registered
    // buffer the application can never safely reuse.
    for (name, v) in &snap.gauges {
        if name.starts_with("ring.") && *v != 0 {
            return Err(format!("ring gauge {name} stuck at {v} after drain"));
        }
    }
    // The default data path must actually be the one taken: closing
    // connections add their counters, so each of the five mechanisms
    // (staged writes, piggy-backed credits, descriptor re-arms riding the
    // sends that return those credits, direct delivery, first writes
    // riding connection requests) must have fired
    // somewhere in the workload, and EMP's own acks must have ridden on
    // data frames — and no connection may have closed with bytes still
    // staged or a timer flush it never paid for, nor returned a credit
    // without re-arming its descriptor in the same request, nor held other
    // than its receive window of data descriptors. Windows start at two
    // and grow to N once a sender uses both: the streaming stage must
    // grow one, and each grow posts exactly N − 2 descriptors. The
    // webserver stages greet first, so their clients' first operation is a
    // read and their requests go bare; the ping-pong and stream clients
    // write first.
    let ctr = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let emp_piggybacked: u64 = run.nics.iter().map(|s| s.acks_piggybacked).sum();
    if emp_piggybacked == 0 {
        return Err("emp acks_piggybacked == 0: the default path was not taken".into());
    }
    let fast_path = [
        "sock.coalesce_flushes",
        "sock.piggybacked_credits",
        "sock.rearms_ridden",
        "sock.copies_avoided",
        "sock.conn_riders",
    ];
    for name in fast_path {
        if ctr(name) == 0 {
            return Err(format!("{name} == 0: the default path was not taken"));
        }
    }
    for name in [
        "sock.stranded_bytes",
        "sock.unpaid_flush_debt_ns",
        "sock.credits_without_rearm",
        "sock.window_unaccounted",
    ] {
        if ctr(name) != 0 {
            return Err(format!("{name} = {} after the drain", ctr(name)));
        }
    }
    let (grows, grants) = (ctr("sock.window_grows"), ctr("sock.window_grants"));
    let n = u64::from(sockets_emp::SubstrateConfig::default().credits);
    if grows == 0 || grants != grows * (n - 2) {
        return Err(format!(
            "sock.window_grows = {grows}, sock.window_grants = {grants}: \
             each grow must post N - 2 = {} descriptors",
            n - 2
        ));
    }
    let mut parts: Vec<String> = need_hists
        .iter()
        .map(|n| format!("{n}={}", snap.histograms[*n].count))
        .collect();
    parts.push(format!("series={live_series}"));
    parts.push(format!("ring_series={ring_series}"));
    parts.push(format!("exec.wakes={wakes}"));
    parts.push(format!("refused={refused}"));
    parts.push(format!("shed={shed}"));
    parts.extend(fast_path.iter().map(|n| format!("{n}={}", ctr(n))));
    parts.push(format!("sock.window_grows={grows}"));
    parts.push(format!("sock.window_grants={grants}"));
    parts.push(format!("emp.acks_piggybacked={emp_piggybacked}"));
    Ok(format!("empstat self-check ok: {}", parts.join(" ")))
}

/// Connect-storm smoke for the `overload-smoke` stage of `ci.sh`: a
/// past-saturation storm plus slowloris against both stacks, each on a
/// fresh simulation so the telemetry gates read only storm traffic.
/// Gates, per stack: admission control actually refused connections
/// *and* real clients were still served (refused > 0 && goodput > 0),
/// the refusals are visible as telemetry counters (not just in the
/// report), the idle reaper removed the slowloris connections, and no
/// connections or listeners leaked. Returns the per-stack report lines,
/// or the first gate violation.
pub fn run_overload_smoke() -> Result<String, String> {
    let mut lines = vec!["overload smoke ok".to_string()];
    for kernel in [false, true] {
        let sim = Sim::new();
        let tb = if kernel {
            Testbed::kernel_default(4)
        } else {
            Testbed::emp_default(4)
        };
        let label = tb.nodes[0].api.label().to_string();
        let cfg = StormConfig {
            slowloris: 4,
            ..StormConfig::default()
        };
        let r = overload::run_storm_on(&sim, &tb, &cfg);
        let reg = sim.telemetry();
        reg.sample_now(sim.now().nanos());
        let snap = reg.snapshot();
        let ctr = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        if r.outcomes.served == 0 || r.goodput_bytes == 0 {
            return Err(format!("{label}: storm starved every client: {r:?}"));
        }
        if r.outcomes.refused == 0 {
            return Err(format!(
                "{label}: past-saturation storm refused nothing: {r:?}"
            ));
        }
        if ctr("sock.connects_refused") + ctr("tcp.connects_refused") == 0 {
            return Err(format!(
                "{label}: refusals happened but no telemetry counter recorded them"
            ));
        }
        if r.reaped == 0 || ctr("app.reaped") == 0 {
            return Err(format!(
                "{label}: slowloris connections were not reaped: {r:?}"
            ));
        }
        if r.leaked_conns + r.leaked_listeners != 0 {
            return Err(format!("{label}: leaked state after the storm: {r:?}"));
        }
        lines.push(format!(
            "overload[{label}]: served={} degraded={} refused={} shed={} \
             timed_out={} reaped={} goodput={:.1} Mbps p99={:.0} us leaks=0",
            r.outcomes.served,
            r.outcomes.degraded,
            r.outcomes.refused,
            r.shed,
            r.outcomes.timed_out,
            r.reaped,
            r.goodput_mbps(),
            r.p99_us
        ));
    }
    Ok(lines.join("\n"))
}

/// Measured per-operation cost of the telemetry hot paths on this host,
/// and the overhead estimate for the standard ping-pong.
pub struct OverheadReport {
    /// Host nanoseconds per `LogLinHistogram::record`.
    pub ns_per_record: f64,
    /// Host nanoseconds per `Registry::maybe_sample` fast-path check.
    pub ns_per_check: f64,
    /// Telemetry operations the instrumented ping-pong performs
    /// (histogram records across all layers).
    pub pingpong_ops: u64,
    /// Host wall time of the instrumented ping-pong, nanoseconds.
    pub pingpong_wall_ns: u64,
    /// Estimated telemetry share of the ping-pong wall time, percent.
    pub overhead_pct: f64,
}

impl OverheadReport {
    /// Human-readable report (the EXPERIMENTS.md overhead row quotes it).
    pub fn text(&self) -> String {
        format!(
            "telemetry overhead: record={:.1} ns/op, sampler check={:.1} ns/op; \
             pingpong performed {} telemetry ops in {:.2} ms wall \
             -> estimated {:.3}% of run time (budget 2%)",
            self.ns_per_record,
            self.ns_per_check,
            self.pingpong_ops,
            self.pingpong_wall_ns as f64 / 1e6,
            self.overhead_pct
        )
    }
}

/// Microbenchmark the telemetry hot paths and estimate their share of an
/// instrumented ping-pong run. The estimate is (ops x per-op cost) /
/// measured wall time — an upper bound on what unplugging telemetry could
/// save, since it charges every op at its isolated (cache-cold-free)
/// cost.
pub fn measure_overhead() -> OverheadReport {
    use std::time::Instant;

    // Per-op record cost: hammer one histogram with varied values so the
    // branchy bucket math is exercised, not just one cached bucket.
    let h = simnet::emp_trace::telemetry::LogLinHistogram::new();
    const RECORDS: u64 = 2_000_000;
    let t0 = Instant::now();
    for i in 0..RECORDS {
        h.record(i.wrapping_mul(2654435761) & 0xFFFF_FFFF);
    }
    let ns_per_record = t0.elapsed().as_nanos() as f64 / RECORDS as f64;

    // Sampler fast path: the per-event check when no tick is due.
    let reg = simnet::emp_trace::telemetry::Registry::new();
    reg.set_sample_every_ns(u64::MAX / 4);
    const CHECKS: u64 = 2_000_000;
    let t0 = Instant::now();
    for i in 0..CHECKS {
        reg.maybe_sample(i);
    }
    let ns_per_check = t0.elapsed().as_nanos() as f64 / CHECKS as f64;

    // Instrumented ping-pong: wall time and the telemetry ops it drove.
    let sim = Sim::new();
    let tb = Testbed::emp_default(2);
    let t0 = Instant::now();
    let _ = pingpong::one_way_latency_us(&sim, &tb, PINGPONG_BYTES, 200);
    let pingpong_wall_ns = t0.elapsed().as_nanos() as u64;
    let reg = sim.telemetry();
    reg.sample_now(sim.now().nanos());
    let snap = reg.snapshot();
    let hist_ops: u64 = snap.histograms.values().map(|h| h.count).sum();
    let sample_points: u64 = snap.series.values().map(|s| s.points.len() as u64).sum();
    let pingpong_ops = hist_ops + sample_points;
    // Charge records at the record cost and sampled points at roughly a
    // record's cost too (one closure call + push); every simulated event
    // also pays one fast-path check.
    let est_ns = pingpong_ops as f64 * ns_per_record.max(ns_per_check);
    let overhead_pct = est_ns / pingpong_wall_ns.max(1) as f64 * 100.0;
    OverheadReport {
        ns_per_record,
        ns_per_check,
        pingpong_ops,
        pingpong_wall_ns,
        overhead_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_workload_fills_registry() {
        let run = run_standard_workload();
        let ok = self_check(&run).expect("self-check");
        assert!(ok.contains("series="));
        assert!(run.pingpong_us > 0.0);
        assert!(run.web.requests == u64::from(WEB_CONNS) * u64::from(WEB_REQS));
        // The acceptance criteria's quantiles are all present and ordered.
        let rtt = &run.snapshot.histograms["app.rtt_ns"];
        assert!(rtt.quantile(0.5) <= rtt.quantile(0.99));
        assert!(rtt.quantile(0.99) <= rtt.quantile(0.999));
        assert!(rtt.quantile(0.999) <= rtt.max);
    }
}

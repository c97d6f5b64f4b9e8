//! The metric catalogue and how each metric is computed from a run.
//!
//! Names here are the names in `BENCHMARK.json`; a unit test holds the two
//! together. Units say which clock a number is on: `sim_us`, `1/sim_s` and
//! `Mbit/sim_s` are simulated time (exact for a given seed), `s`, `us`,
//! `ns`, `1/s` and `MiB` are the host.

use simnet::emp_trace::telemetry::RegistrySnapshot;

use crate::harness::RunRecord;
use crate::spans::{self, Clock, Span};
use crate::stats;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, which also names the clock.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees, per workload.
pub const END_TO_END: [MetricDef; 8] = [
    lo("sim_p50_us", "sim_us"),
    lo("sim_p99_us", "sim_us"),
    lo("sim_tail_us", "sim_us"),
    hi("sim_ops_per_s", "1/sim_s"),
    hi("sim_goodput_mbps", "Mbit/sim_s"),
    lo("host_wall_s", "s"),
    lo("host_peak_rss_mb", "MiB"),
    lo("setup_s", "s"),
];

/// End-to-end metrics on the host clock: the median of the repeats is
/// reported. Every other end-to-end metric is on the sim clock and is taken
/// over the pooled samples of the repeats.
pub const HOST_CLOCK: [&str; 3] = ["host_wall_s", "host_peak_rss_mb", "setup_s"];

/// What single layers do, per workload (layer = crate name).
pub const PER_LAYER: [MetricDef; 86] = [
    // simnet: the engine, links and switch.
    lo("simnet.events_executed", "count"),
    hi("simnet.host_events_per_s", "1/s"),
    lo("simnet.host_ns_per_event", "ns"),
    lo("simnet.host_sys_share", "ratio"),
    lo("simnet.proc_threads_peak", "count"),
    hi("simnet.link_util", "ratio"),
    lo("simnet.switch_backlog_max_ns", "sim_ns"),
    lo("simnet.frames_dropped", "count"),
    lo("simnet.frames_delayed", "count"),
    // hostsim: pin/translate cache.
    hi("hostsim.pin_cache_hit_ratio", "ratio"),
    lo("hostsim.pinned_pages_peak", "count"),
    // tigon-nic: the two firmware CPUs of the server's NIC.
    lo("tigon-nic.tx_cpu_util", "ratio"),
    lo("tigon-nic.rx_cpu_util", "ratio"),
    lo("tigon-nic.rx_backlog_max_ns", "sim_ns"),
    lo("tigon-nic.tx_backlog_max_ns", "sim_ns"),
    lo("tigon-nic.frames_sent", "count"),
    // emp-proto: the NIC-resident protocol.
    lo("emp-proto.raw_oneway_us.4b", "sim_us"),
    lo("emp-proto.host_us_per_rt", "us"),
    lo("emp-proto.msg_latency_p50_ns", "sim_ns"),
    lo("emp-proto.msg_latency_p99_ns", "sim_ns"),
    lo("emp-proto.descriptors_walked_per_msg", "count"),
    lo("emp-proto.unexpected_msgs", "count"),
    lo("emp-proto.acks_per_msg", "ratio"),
    lo("emp-proto.frames_retransmitted", "count"),
    hi("emp-proto.frames_delivered_ratio", "ratio"),
    lo("emp-proto.nacks", "count"),
    lo("emp-proto.sends_failed", "count"),
    // core: the sockets substrate.
    lo("core.overhead_us.4b", "sim_us"),
    lo("core.host_us_per_rt", "us"),
    lo("core.write_self_us_p50", "sim_us"),
    lo("core.read_wait_us_p50", "sim_us"),
    lo("core.connect_us_p50", "sim_us"),
    lo("core.accept_us_p50", "sim_us"),
    lo("core.close_us_p50", "sim_us"),
    lo("core.msgs_per_write", "ratio"),
    lo("core.fcacks_per_msg", "ratio"),
    hi("core.piggyback_share", "ratio"),
    lo("core.credit_stalls", "count"),
    lo("core.credit_wait_p99_ns", "sim_ns"),
    lo("core.copied_bytes_share", "ratio"),
    hi("core.coalesce_flushes", "count"),
    lo("core.poll_wait_p50_ns", "sim_ns"),
    lo("core.reorder_msgs_max", "count"),
    // kernel-tcp: the baseline stack.
    lo("kernel-tcp.oneway_us.4b", "sim_us"),
    lo("kernel-tcp.host_us_per_rt", "us"),
    lo("kernel-tcp.kernel_cpu_busy_share", "ratio"),
    lo("kernel-tcp.interrupts_per_op", "ratio"),
    lo("kernel-tcp.segments_per_op", "ratio"),
    lo("kernel-tcp.rsts_sent", "count"),
    // emp-async: the executor, from the async row of the model sweep.
    lo("emp-async.wakes_per_op", "ratio"),
    lo("emp-async.poll_spins_p99", "count"),
    lo("emp-async.tasks_live_end", "count"),
    // apps: the server front ends.
    lo("apps.kv_op_us.1conn", "sim_us"),
    lo("apps.host_us_per_rt", "us"),
    hi("apps.per_conn.sim_ops_per_s", "1/sim_s"),
    hi("apps.event_loop.sim_ops_per_s", "1/sim_s"),
    hi("apps.completion.sim_ops_per_s", "1/sim_s"),
    hi("apps.async.sim_ops_per_s", "1/sim_s"),
    lo("apps.eventloop_turn_p99_ns", "sim_ns"),
    hi("apps.jain_fairness", "ratio"),
    // trace: the repo's `trace`-feature latency budget of one ping-pong leg.
    lo("trace.host_us.4b", "sim_us"),
    lo("trace.nicfw_us.4b", "sim_us"),
    lo("trace.dma_us.4b", "sim_us"),
    lo("trace.wire_us.4b", "sim_us"),
    lo("trace.copy_us.4b", "sim_us"),
    lo("trace.host_us.4k", "sim_us"),
    lo("trace.nicfw_us.4k", "sim_us"),
    lo("trace.dma_us.4k", "sim_us"),
    lo("trace.wire_us.4k", "sim_us"),
    lo("trace.copy_us.4k", "sim_us"),
    lo("trace.host_us.64k", "sim_us"),
    lo("trace.nicfw_us.64k", "sim_us"),
    lo("trace.dma_us.64k", "sim_us"),
    lo("trace.wire_us.64k", "sim_us"),
    lo("trace.copy_us.64k", "sim_us"),
    lo("trace.host_overhead_pct", "%"),
    // benchmark: what measuring costs, and which tail is reported.
    lo("benchmark.span_overhead_pct", "%"),
    lo("benchmark.op_self_host_us_p50", "us"),
    hi("benchmark.tail_percentile", "%"),
    // paper: the six anchors and their worst error.
    lo("paper.err_pct", "%"),
    lo("paper.oneway_us.ds_da_uq", "sim_us"),
    lo("paper.oneway_us.datagram", "sim_us"),
    lo("paper.oneway_us.tcp", "sim_us"),
    hi("paper.peak_mbps.substrate", "Mbit/sim_s"),
    hi("paper.peak_mbps.tcp_16k", "Mbit/sim_s"),
    hi("paper.peak_mbps.tcp_256k", "Mbit/sim_s"),
];

/// The catalogue entry of `name`, end-to-end or per-layer.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// Named values, in the order computed.
pub type Values = Vec<(String, f64)>;

/// Value of `name` in `values`.
pub fn get(values: &Values, name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// Set (or replace) `name` in `values`.
pub fn set(values: &mut Values, name: &str, v: f64) {
    match values.iter_mut().find(|(n, _)| n == name) {
        Some(slot) => slot.1 = v,
        None => values.push((name.to_string(), v)),
    }
}

/// Build [`Values`] from `(name, value)` pairs.
pub fn named<'a>(pairs: impl IntoIterator<Item = (&'a str, f64)>) -> Values {
    pairs.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
}

/// The unit of metric `name` (empty for a name outside the catalogue).
pub fn unit_of(name: &str) -> &'static str {
    def(name).map_or("", |d| d.unit)
}

/// `values` as the JSON object both the driver's result line and the result
/// set carry: `{name: {"value": v, "unit": u}}`.
pub fn to_json(values: &Values) -> crate::json::Value {
    use crate::json::{obj, Value};
    obj(values.iter().map(|(n, v)| {
        (
            n.clone(),
            obj([
                ("value", Value::Num(*v)),
                ("unit", Value::Str(unit_of(n).into())),
            ]),
        )
    }))
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// What one repeat contributes to the sim-clock end-to-end metrics. The
/// supervisor pools the repeats of a run (each under its own sub-seed)
/// before taking percentiles, so one seed's run of bad luck in the kv draws
/// or the loss pattern does not set the tail.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimSamples {
    /// Sim nanoseconds of each measured operation.
    pub samples_ns: Vec<u64>,
    /// Payload bytes verified in the window.
    pub verified_bytes: u64,
    /// Window length on the sim clock, nanoseconds.
    pub window_ns: u64,
}

impl SimSamples {
    /// The part of `rec` the sim-clock metrics are computed from.
    pub fn of(rec: &RunRecord) -> SimSamples {
        SimSamples {
            samples_ns: rec.samples_ns.clone(),
            verified_bytes: rec.verified_bytes,
            window_ns: rec.window.sim_close.since(rec.window.sim_open).nanos(),
        }
    }

    /// Add another repeat's samples and window to this one.
    pub fn pool(&mut self, other: &SimSamples) {
        self.samples_ns.extend_from_slice(&other.samples_ns);
        self.verified_bytes += other.verified_bytes;
        self.window_ns += other.window_ns;
    }
}

/// The sim-clock end-to-end metrics of (pooled) samples.
pub fn sim_end_to_end(s: &SimSamples) -> Values {
    let mut sorted = s.samples_ns.clone();
    sorted.sort_unstable();
    let pct = |p: f64| {
        if sorted.is_empty() {
            0.0
        } else {
            us(stats::percentile(&sorted, p))
        }
    };
    let secs = s.window_ns as f64 / 1e9;
    let tail = stats::tail_percentile(sorted.len().max(1));
    named([
        ("sim_p50_us", pct(50.0)),
        ("sim_p99_us", pct(99.0)),
        ("sim_tail_us", pct(tail)),
        ("sim_ops_per_s", ratio(sorted.len() as f64, secs)),
        (
            "sim_goodput_mbps",
            ratio(s.verified_bytes as f64 * 8.0 / 1e6, secs),
        ),
    ])
}

/// The sim-clock end-to-end metrics of a `paper_anchors` run. The anchors
/// come from the repo's microbenchmarks, which report means; the idle
/// ping-pong's longest round trip (exact, from its histogram) stands in for
/// both percentiles.
pub fn sim_end_to_end_anchors(rec: &RunRecord) -> Values {
    let peak = rec
        .anchors
        .iter()
        .find(|a| a.name == "peak_mbps.substrate")
        .map_or(0.0, |a| a.measured);
    named([
        ("sim_p50_us", rec.headline.mean_us),
        ("sim_p99_us", rec.headline.max_us),
        ("sim_tail_us", rec.headline.max_us),
        ("sim_ops_per_s", ratio(1e6, rec.headline.mean_us)),
        ("sim_goodput_mbps", peak),
    ])
}

/// The host-clock end-to-end metrics of one repeat (one process).
/// `host_peak_rss_mb` is read from the process at the time of the call.
pub fn host_end_to_end(rec: &RunRecord) -> Values {
    named([
        ("host_wall_s", rec.window.host_secs()),
        ("host_peak_rss_mb", crate::host::peak_rss_mb()),
        ("setup_s", rec.window.host_open.as_secs_f64()),
    ])
}

fn hist_q(t: &RegistrySnapshot, name: &str, q: f64) -> f64 {
    t.histograms.get(name).map_or(0.0, |h| h.quantile(q) as f64)
}

fn series_max(t: &RegistrySnapshot, prefix: &str, suffix: &str) -> f64 {
    t.series
        .iter()
        .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
        .flat_map(|(_, s)| s.points.iter().map(|&(_, v)| v))
        .max()
        .unwrap_or(0) as f64
}

/// The per-layer metrics that come from public counters and the telemetry
/// registry of one run: window differences unless the catalogue says level.
pub fn layer_counters(rec: &RunRecord) -> Values {
    let (o, c) = (&rec.open, &rec.close);
    let w_ns = rec.window.sim_close.since(rec.window.sim_open).nanos() as f64;
    let host_s = rec.window.host_secs();
    // Saturating: a run that never closed its window has no close reading
    // (it is rejected anyway; its numbers just must not wrap).
    let events = c.events.saturating_sub(o.events) as f64;
    let (user, sys) = (
        c.cpu_ticks.0.saturating_sub(o.cpu_ticks.0) as f64,
        c.cpu_ticks.1.saturating_sub(o.cpu_ticks.1) as f64,
    );
    let busiest_port = c
        .port_payload_bytes
        .iter()
        .zip(&o.port_payload_bytes)
        .map(|(c, o)| c.saturating_sub(*o))
        .max()
        .unwrap_or(0) as f64;
    let d = |f: fn(&crate::harness::Counters) -> u64| f(c).saturating_sub(f(o)) as f64;
    let msgs_rx = d(|k| k.emp.msgs_received);
    let frames = d(|k| k.nic_frames_sent);
    let retx = d(|k| k.emp.frames_retransmitted);
    let cs = &rec.conn_stats;
    let t = &rec.telemetry;
    let ops = rec.attempted as f64;
    let rates: Vec<f64> = rec
        .per_conn
        .iter()
        .filter(|(n, _)| *n > 0)
        .map(|&(n, ns)| ratio(n as f64, ns as f64))
        .collect();
    named([
        ("simnet.events_executed", events),
        ("simnet.host_events_per_s", ratio(events, host_s)),
        ("simnet.host_ns_per_event", ratio(host_s * 1e9, events)),
        ("simnet.host_sys_share", ratio(sys, user + sys)),
        ("simnet.proc_threads_peak", o.threads.max(c.threads) as f64),
        // Payload bits over the busiest switch egress port, as a share of
        // the 1 Gbit/s line.
        ("simnet.link_util", ratio(busiest_port * 8.0, w_ns)),
        (
            "simnet.switch_backlog_max_ns",
            c.switch_backlog_max_ns as f64,
        ),
        ("simnet.frames_dropped", d(|k| k.link_dropped)),
        ("simnet.frames_delayed", d(|k| k.link_delayed)),
        (
            "hostsim.pin_cache_hit_ratio",
            ratio(d(|k| k.pin_hits), d(|k| k.pin_hits) + d(|k| k.pin_misses)),
        ),
        (
            "hostsim.pinned_pages_peak",
            o.pinned_pages.max(c.pinned_pages) as f64,
        ),
        (
            "tigon-nic.tx_cpu_util",
            ratio(d(|k| k.server_tx_busy_ns), w_ns),
        ),
        (
            "tigon-nic.rx_cpu_util",
            ratio(d(|k| k.server_rx_busy_ns), w_ns),
        ),
        (
            "tigon-nic.rx_backlog_max_ns",
            series_max(t, "nicfw.n0.rx.", "backlog_ns"),
        ),
        (
            "tigon-nic.tx_backlog_max_ns",
            series_max(t, "nicfw.n0.tx.", "backlog_ns"),
        ),
        ("tigon-nic.frames_sent", frames),
        (
            "emp-proto.msg_latency_p50_ns",
            hist_q(t, "emp.msg_latency_ns", 0.50),
        ),
        (
            "emp-proto.msg_latency_p99_ns",
            hist_q(t, "emp.msg_latency_ns", 0.99),
        ),
        (
            "emp-proto.descriptors_walked_per_msg",
            ratio(d(|k| k.emp.descriptors_walked), msgs_rx),
        ),
        ("emp-proto.unexpected_msgs", d(|k| k.emp.unexpected_msgs)),
        (
            "emp-proto.acks_per_msg",
            ratio(d(|k| k.emp.acks_sent), msgs_rx),
        ),
        ("emp-proto.frames_retransmitted", retx),
        (
            "emp-proto.frames_delivered_ratio",
            if frames == 0.0 {
                0.0
            } else {
                1.0 - retx / frames
            },
        ),
        ("emp-proto.nacks", d(|k| k.emp.nacks_sent)),
        ("emp-proto.sends_failed", d(|k| k.emp.sends_failed)),
        (
            "core.msgs_per_write",
            ratio(cs.msgs_sent as f64, rec.write_calls as f64),
        ),
        (
            "core.fcacks_per_msg",
            ratio(cs.fcacks_sent as f64, cs.msgs_received as f64),
        ),
        (
            "core.piggyback_share",
            ratio(
                cs.piggybacked_credits as f64,
                (cs.piggybacked_credits + cs.fcacks_sent) as f64,
            ),
        ),
        ("core.credit_stalls", cs.credit_stalls as f64),
        (
            "core.credit_wait_p99_ns",
            hist_q(t, "sock.credit_wait_ns", 0.99),
        ),
        (
            "core.copied_bytes_share",
            if cs.bytes_received == 0 {
                0.0
            } else {
                1.0 - cs.bytes_direct as f64 / cs.bytes_received as f64
            },
        ),
        ("core.coalesce_flushes", cs.coalesce_flushes as f64),
        (
            "core.poll_wait_p50_ns",
            hist_q(t, "core.poll_wait_ns", 0.50),
        ),
        (
            "core.reorder_msgs_max",
            series_max(t, "sock.n", ".reorder_msgs"),
        ),
        (
            "kernel-tcp.kernel_cpu_busy_share",
            ratio(d(|k| k.server_kernel_busy_ns), w_ns),
        ),
        (
            "kernel-tcp.interrupts_per_op",
            ratio(d(|k| k.tcp_interrupts), ops),
        ),
        (
            "kernel-tcp.segments_per_op",
            ratio(d(|k| k.tcp_segments), ops),
        ),
        ("kernel-tcp.rsts_sent", d(|k| k.tcp_rsts)),
        (
            "apps.eventloop_turn_p99_ns",
            hist_q(t, "app.eventloop_turn_ns", 0.99),
        ),
        (
            "apps.jain_fairness",
            if rates.is_empty() {
                0.0
            } else {
                stats::jain_fairness(&rates)
            },
        ),
        (
            "benchmark.tail_percentile",
            stats::tail_percentile(rec.samples_ns.len().max(1)),
        ),
    ])
}

fn p50_us(mut ns: Vec<u64>) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    us(stats::percentile(&ns, 50.0))
}

/// The per-layer metrics that come from a traced run's spans.
pub fn layer_spans(spans: &[Span]) -> Values {
    let sim_self = spans::self_times(spans, Clock::Sim);
    let host_self = spans::self_times(spans, Clock::Host);
    let pick = |layer: &str, names: &[&str], from: &[u64]| -> Vec<u64> {
        spans
            .iter()
            .zip(from)
            .filter(|(s, _)| s.layer == layer && names.contains(&s.name))
            .map(|(_, &v)| v)
            .collect()
    };
    let durations: Vec<u64> = spans
        .iter()
        .map(|s| s.sim_end_ns - s.sim_start_ns)
        .collect();
    let roots: Vec<u64> = spans
        .iter()
        .zip(&host_self)
        .filter(|(s, _)| s.layer == "benchmark")
        .map(|(_, &v)| v)
        .collect();
    named([
        (
            "core.write_self_us_p50",
            p50_us(pick("core", &["write"], &sim_self)),
        ),
        (
            "core.read_wait_us_p50",
            p50_us(pick("core", &["read", "read_exact"], &durations)),
        ),
        (
            "core.connect_us_p50",
            p50_us(pick("core", &["connect"], &durations)),
        ),
        (
            "core.accept_us_p50",
            p50_us(pick("core", &["accept"], &durations)),
        ),
        (
            "core.close_us_p50",
            p50_us(pick("core", &["close"], &durations)),
        ),
        ("benchmark.op_self_host_us_p50", p50_us(roots)),
    ])
}

/// The `paper.*` metrics of an anchors run.
pub fn layer_paper(rec: &RunRecord) -> Values {
    let mut v: Values = rec
        .anchors
        .iter()
        .map(|a| (format!("paper.{}", a.name), a.measured))
        .collect();
    v.push((
        "paper.err_pct".into(),
        crate::workloads::anchors::max_err_pct(&rec.anchors),
    ));
    v
}

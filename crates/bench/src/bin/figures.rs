//! Regenerate the paper's figures.
//!
//! ```text
//! cargo run --release -p emp-bench --bin figures            # all, full sweeps
//! cargo run --release -p emp-bench --bin figures -- --quick # smoke profile
//! cargo run --release -p emp-bench --bin figures -- fig14   # one figure
//! cargo run --release -p emp-bench --bin figures --features trace -- --trace
//! ```
//!
//! Tables print to stdout; JSON lands in `target/figures/<id>.json`.
//! `--json <path>` additionally writes every generated figure into one
//! combined machine-readable file (schema v2): `meta` records the
//! profile, seed, build features, and a fingerprint of the default sim
//! configs; `telemetry` embeds a full registry snapshot from the
//! `empstat` standard workload (tail-latency quantiles, sampled time
//! series); `perf_summary` carries the fast-path counters the
//! `regress` gate asserts on. The `small-message-throughput` and
//! `copy-avoidance` figures also print one `key=value` summary line per
//! swept size (the perf-smoke stage of `ci.sh` asserts on these).
//! `--trace` (requires the `trace` feature) runs a traced ping-pong
//! instead, printing the §7-style latency budget and writing a
//! Perfetto-loadable Chrome trace to `target/figures/pingpong_trace.json`.

use emp_bench::figures::{self, CopyAvoidPoint, SmallMsgPoint};
use emp_bench::{stat, Figure, Profile};

/// Counters from the fast-path sweeps, kept for the combined JSON's
/// `perf_summary` section when those figures were generated.
#[derive(Default)]
struct PerfPoints {
    small: Option<Vec<SmallMsgPoint>>,
    copy: Option<Vec<CopyAvoidPoint>>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--trace") {
        run_traced_pingpong();
        return;
    }
    let mut profile = Profile::Full;
    let mut json_path: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => profile = Profile::Quick,
            "--json" => match it.next() {
                Some(p) => json_path = Some(p),
                None => {
                    eprintln!("--json needs a file path");
                    std::process::exit(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown flag '{other}'");
                std::process::exit(2);
            }
            _ => wanted.push(a),
        }
    }

    let mut perf = PerfPoints::default();
    let figures: Vec<Figure> = {
        if wanted.is_empty() {
            // Same set and order as `figures::all_figures`, spelled out so
            // the fast-path sweeps land in `perf` here too.
            wanted = vec![
                "fig11",
                "fig12",
                "fig13a",
                "fig13b",
                "fig14",
                "fig15",
                "fig16",
                "fig17",
                "connect-time",
                "datacenter-kv",
                "event-loop-concurrency",
                "concurrency-fairness",
                "ablation-commthread",
                "ablation-piggyback",
                "ablation-nic-cpus",
                "cpu-utilization",
                "small-message-throughput",
                "copy-avoidance",
                "overload-degradation",
            ]
            .into_iter()
            .map(String::from)
            .collect();
        }
        let mut out = Vec::new();
        for name in &wanted {
            let fig = match name.as_str() {
                "fig11" => figures::fig11(profile),
                "fig12" => figures::fig12(profile),
                "fig13a" | "fig13" => figures::fig13_latency(profile),
                "fig13b" => figures::fig13_bandwidth(profile),
                "fig14" => figures::fig14(profile),
                "fig15" => figures::fig15(profile),
                "fig16" => figures::fig16(profile),
                "fig17" => figures::fig17(profile),
                "ablation-commthread" => figures::ablation_commthread(profile),
                "ablation-piggyback" => figures::ablation_piggyback(profile),
                "cpu-utilization" => figures::cpu_utilization(profile),
                "ablation-nic-cpus" => figures::ablation_nic_cpus(profile),
                "connect-time" => figures::connect_time(profile),
                "datacenter-kv" => figures::datacenter_kv(profile),
                "event-loop-concurrency" => figures::event_loop_concurrency(profile),
                "concurrency-fairness" => figures::concurrency_fairness(profile),
                "small-message-throughput" => small_message_with_summary(profile, &mut perf),
                "copy-avoidance" => copy_avoidance_with_summary(profile, &mut perf),
                "overload-degradation" => figures::overload_degradation(profile),
                other => {
                    eprintln!("unknown figure '{other}'");
                    std::process::exit(2);
                }
            };
            out.push(fig);
        }
        out
    };

    let json_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(json_dir).expect("create target/figures");
    for fig in &figures {
        println!("{}", fig.to_table());
        let path = json_dir.join(format!("{}.json", fig.id));
        std::fs::write(&path, fig.to_json()).expect("write figure json");
    }
    println!("(json written to target/figures/)");
    if let Some(path) = json_path {
        let combined = combined_json(&figures, profile, &perf);
        std::fs::write(&path, combined).expect("write combined json");
        println!("(combined json written to {path})");
    }
}

/// Assemble the schema-v2 combined JSON: metadata, every generated
/// figure, a telemetry snapshot from the standard workload, and the
/// fast-path counters (when their sweeps ran).
fn combined_json(figures: &[Figure], profile: Profile, perf: &PerfPoints) -> String {
    use std::fmt::Write;
    let telem = stat::run_standard_workload();
    let mut out = String::from("{\n\"schema_version\": 2,\n");
    let _ = writeln!(
        out,
        "\"meta\": {{\"generator\": \"figures\", \"profile\": \"{}\", \"seed\": 0, \
         \"features\": {{\"trace\": {}}}, \"config_fingerprint\": \"{:016x}\"}},",
        match profile {
            Profile::Quick => "quick",
            Profile::Full => "full",
        },
        simnet::emp_trace::ENABLED,
        config_fingerprint(),
    );
    let body: Vec<String> = figures.iter().map(|f| f.to_json()).collect();
    let _ = write!(out, "\"figures\": [\n{}],\n", body.join(","));
    let _ = writeln!(
        out,
        "\"workload\": {{\"pingpong_us\": {}, \"web_requests\": {}, \"web_reqs_per_sec\": {}}},",
        telem.pingpong_us, telem.web.requests, telem.web.reqs_per_sec
    );
    let _ = write!(
        out,
        "\"telemetry\": {}",
        telem.snapshot.to_json().trim_end()
    );
    if let Some(summary) = perf_summary_json(perf) {
        let _ = write!(out, ",\n\"perf_summary\": {summary}");
    }
    out.push_str("\n}\n");
    out
}

/// The counters the `regress` gate asserts on, from the 64-byte point of
/// the coalescing sweep and the whole direct-delivery sweep. `None` when
/// neither sweep ran this invocation.
fn perf_summary_json(perf: &PerfPoints) -> Option<String> {
    let mut fields = Vec::new();
    if let Some(pts) = &perf.small {
        if let Some(p) = pts.iter().find(|p| p.size == 64) {
            fields.push(format!("\"msgs_64b_coalesce_off\": {}", p.msgs_paper));
            fields.push(format!("\"msgs_64b_coalesce_on\": {}", p.msgs_default));
            fields.push(format!("\"mbps_64b_coalesce_on\": {}", p.mbps_default));
        }
    }
    if let Some(pts) = &perf.copy {
        let avoided: u64 = pts.iter().map(|p| p.copies_avoided).sum();
        let direct: u64 = pts.iter().map(|p| p.bytes_direct).sum();
        let received: u64 = pts.iter().map(|p| p.bytes_received).sum();
        fields.push(format!("\"copies_avoided\": {avoided}"));
        fields.push(format!("\"bytes_direct\": {direct}"));
        fields.push(format!("\"bytes_received\": {received}"));
    }
    if fields.is_empty() {
        None
    } else {
        Some(format!("{{{}}}", fields.join(", ")))
    }
}

/// FNV-1a over the `Debug` renderings of the default configurations every
/// figure harness builds from — any knob change (credits, MTU, timing
/// constants, TCP parameters) lands in the combined JSON's metadata, so a
/// baseline mismatch is attributable to config drift vs code drift.
fn config_fingerprint() -> u64 {
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}",
        emp_proto::EmpConfig::default(),
        sockets_emp::SubstrateConfig::ds_da_uq(),
        kernel_tcp::TcpConfig::default(),
        hostsim::FsConfig::default(),
    );
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Generate the small-message figure, printing one machine-parsable line
/// per swept write size for the perf-smoke stage.
fn small_message_with_summary(profile: Profile, perf: &mut PerfPoints) -> Figure {
    let pts = figures::small_message_sweep(profile);
    for p in &pts {
        println!(
            "small-message-throughput: {}B msgs_sent ds_da_uq={} default={} \
             mbps_ds_da_uq={:.1} mbps_default={:.1} mbps_tcp={:.1}",
            p.size, p.msgs_paper, p.msgs_default, p.mbps_paper, p.mbps_default, p.mbps_tcp
        );
    }
    let fig = figures::small_message_figure(&pts, profile);
    perf.small = Some(pts);
    fig
}

/// Generate the copy-avoidance figure, printing one machine-parsable line
/// per swept message size for the perf-smoke stage.
fn copy_avoidance_with_summary(profile: Profile, perf: &mut PerfPoints) -> Figure {
    let sweep = figures::copy_avoidance_sweep(profile);
    for p in &sweep.points {
        println!(
            "copy-avoidance: {}B copies_avoided={} bytes_direct={} bytes_received={} \
             us_ds_da_uq={:.2} us_default={:.2}",
            p.size, p.copies_avoided, p.bytes_direct, p.bytes_received, p.us_paper, p.us_default
        );
    }
    let fig = figures::copy_avoidance_figure(&sweep, profile);
    perf.copy = Some(sweep.points);
    fig
}

/// Run a 4-byte ping-pong with the event tracer on, print the latency
/// budget, and write the Chrome trace for Perfetto.
fn run_traced_pingpong() {
    use simnet::emp_trace;
    if !emp_trace::ENABLED {
        eprintln!(
            "tracing is compiled out; rebuild with --features trace \
             (e.g. cargo run --release -p emp-bench --bin figures \
             --features trace -- --trace)"
        );
        std::process::exit(2);
    }
    let sim = simnet::Sim::new();
    let tb = emp_apps::Testbed::emp_default(2);
    let run = emp_apps::pingpong::traced_pingpong(&sim, &tb, 4, 50);
    println!(
        "traced ping-pong: 4-byte one-way latency {:.2} us over 50 round trips",
        run.one_way_us
    );
    if run.dropped > 0 {
        println!("warning: {} events lost to ring overflow", run.dropped);
    }
    match emp_trace::Breakdown::compute(&run.events) {
        Some(b) => print!("{}", b.text_report()),
        None => println!("trace holds no complete write..read window"),
    }
    // Fault counters from every layer that can injure a frame (all zero on
    // the default lossless fabric — the point is that the plumbing that
    // the chaos suite relies on is alive in the traced build too).
    if let Some(cl) = tb.emp_cluster() {
        let (mut drops, mut corrupt, mut delayed) = (0u64, 0u64, 0u64);
        for p in cl.switch.port_stats() {
            drops += p.frames_dropped;
            corrupt += p.frames_corrupted;
            delayed += p.frames_delayed;
        }
        let (mut retx, mut fast, mut ring_drops, mut dma_delays) = (0u64, 0u64, 0u64, 0u64);
        for node in &cl.nodes {
            let s = node.nic.stats();
            retx += s.frames_retransmitted;
            fast += s.fast_retransmits;
            ring_drops += s.nic_rx_ring_drops;
            dma_delays += s.nic_dma_delays;
        }
        println!(
            "fault counters: wire_drops={drops} wire_corrupt={corrupt} \
             wire_delayed={delayed} retransmits={retx} fast_retransmits={fast} \
             nic_rx_ring_drops={ring_drops} nic_dma_delays={dma_delays}"
        );
    }
    let json_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(json_dir).expect("create target/figures");
    let path = json_dir.join("pingpong_trace.json");
    std::fs::write(&path, emp_trace::chrome_trace_json(&run.events)).expect("write chrome trace");
    println!(
        "({} events; chrome trace written to {} — load it in ui.perfetto.dev)",
        run.events.len(),
        path.display()
    );
}

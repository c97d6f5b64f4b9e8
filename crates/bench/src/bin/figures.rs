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
//! `--json <path>` also writes every generated figure into one file, a
//! JSON array of their bodies ([`emp_bench::figures_json`]). With
//! `--quick` and no figure names that file is the committed golden
//! `crates/bench/tests/figures.quick.json`, which `figure_shapes.rs`
//! checks byte for byte; a change meant to move a figure regenerates it
//! with
//!
//! ```text
//! cargo run --release -p emp-bench --bin figures -- --quick \
//!     --json crates/bench/tests/figures.quick.json
//! ```
//!
//! and commits the diff. The `small-message-throughput` and
//! `copy-avoidance` figures also print one `key=value` summary line per
//! swept size (the perf-smoke stage of `ci.sh` asserts on these).
//! `--trace` (requires the `trace` feature) runs a traced ping-pong
//! instead, printing the §7-style latency budget and writing a
//! Perfetto-loadable Chrome trace to `target/figures/pingpong_trace.json`.

use emp_bench::{figures, figures_json, Figure, Profile};

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
    if wanted.is_empty() {
        wanted = figures::FIGURES
            .iter()
            .map(|(name, _)| name.to_string())
            .collect();
    }

    let figures: Vec<Figure> = wanted
        .iter()
        .map(|name| match name.as_str() {
            "small-message-throughput" => small_message_with_summary(profile),
            "copy-avoidance" => copy_avoidance_with_summary(profile),
            other => match figures::FIGURES.iter().find(|(n, _)| *n == other) {
                Some((_, generate)) => generate(profile),
                None => {
                    eprintln!("unknown figure '{other}'");
                    std::process::exit(2);
                }
            },
        })
        .collect();

    let json_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(json_dir).expect("create target/figures");
    for fig in &figures {
        println!("{}", fig.to_table());
        let path = json_dir.join(format!("{}.json", fig.id));
        std::fs::write(&path, fig.to_json()).expect("write figure json");
    }
    println!("(json written to target/figures/)");
    if let Some(path) = json_path {
        std::fs::write(&path, figures_json(&figures)).expect("write combined json");
        println!("(combined json written to {path})");
    }
}

/// Generate the small-message figure, printing one machine-parsable line
/// per swept write size for the perf-smoke stage.
fn small_message_with_summary(profile: Profile) -> Figure {
    let pts = figures::small_message_sweep(profile);
    for p in &pts {
        println!(
            "small-message-throughput: {}B msgs_sent ds_da_uq={} default={} \
             mbps_ds_da_uq={:.1} mbps_default={:.1} mbps_tcp={:.1}",
            p.size, p.msgs_paper, p.msgs_default, p.mbps_paper, p.mbps_default, p.mbps_tcp
        );
    }
    figures::small_message_figure(&pts, profile)
}

/// Generate the copy-avoidance figure, printing one machine-parsable line
/// per swept message size for the perf-smoke stage. `first_max` is the
/// largest first write that rides a connection request and is therefore
/// copied at accept.
fn copy_avoidance_with_summary(profile: Profile) -> Figure {
    let sweep = figures::copy_avoidance_sweep(profile);
    for p in &sweep.points {
        println!(
            "copy-avoidance: {}B copies_avoided={} bytes_direct={} bytes_received={} \
             us_ds_da_uq={:.2} us_default={:.2} first_max={}",
            p.size,
            p.copies_avoided,
            p.bytes_direct,
            p.bytes_received,
            p.us_paper,
            p.us_default,
            sockets_emp::proto::FIRST_MAX
        );
    }
    figures::copy_avoidance_figure(&sweep, profile)
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

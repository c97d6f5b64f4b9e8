//! Per-layer measurements that do not depend on the workload: the depth
//! ladder, the server-model sweep, and the `trace`-feature latency budget.
//!
//! **Depth ladder.** The same 4 B round trip is measured through
//! successively deeper stacks — raw `EmpEndpoint` post/wait (emp-proto +
//! tigon-nic + simnet), the substrate ping-pong (adds core), a one-
//! connection kv GET (adds apps), and the kernel-TCP ping-pong beside it —
//! so each layer's sim µs and host µs per round trip fall out by
//! subtraction. Every rung is the repo's own microbenchmark.

use std::time::Instant;

use emp_apps::webserver::ServerModel;
use emp_apps::{kvstore, pingpong, Testbed};
use simnet::emp_trace;
use simnet::Sim;

use crate::metrics::{self, SimSamples, Values};
use crate::workloads::{kv, Params};

/// Round trips per ladder rung.
pub const LADDER_ROUND_TRIPS: u32 = 1000;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64() * 1e6)
}

/// Run the ladder; host numbers are wall µs per round trip of the whole
/// rung (set-up amortised over [`LADDER_ROUND_TRIPS`]).
pub fn ladder(seed: u64) -> Values {
    let n = LADDER_ROUND_TRIPS;
    let per_rt = |wall_us: f64| wall_us / f64::from(n);
    let (raw_us, raw_host) = timed(|| emp_bench::raw::emp_latency_us(4, n));
    let (sub_us, sub_host) =
        timed(|| pingpong::one_way_latency_us(&Sim::new(), &Testbed::emp_default(2), 4, n));
    let (tcp_us, tcp_host) =
        timed(|| pingpong::one_way_latency_us(&Sim::new(), &Testbed::kernel_default(2), 4, n));
    let (kv, kv_host) = timed(|| {
        kvstore::run_workload_with(
            &Testbed::emp_default(2),
            ServerModel::EventLoop,
            1,
            n,
            4,
            1.0,
            seed,
        )
    });
    metrics::named([
        ("emp-proto.raw_oneway_us.4b", raw_us),
        ("emp-proto.host_us_per_rt", per_rt(raw_host)),
        ("core.overhead_us.4b", sub_us - raw_us),
        ("core.host_us_per_rt", per_rt(sub_host) - per_rt(raw_host)),
        ("kernel-tcp.oneway_us.4b", tcp_us),
        ("kernel-tcp.host_us_per_rt", per_rt(tcp_host)),
        ("apps.kv_op_us.1conn", kv.mean_op_us),
        ("apps.host_us_per_rt", per_rt(kv_host) - per_rt(sub_host)),
    ])
}

/// `kv_fanin.emp`'s traffic at a tenth of its size through each of the
/// repo's four public kv servers. Returns the metrics and any correctness
/// violation found on the way.
pub fn model_sweep(seed: u64, divisor: u64) -> (Values, Vec<String>) {
    let mut out = Values::new();
    let mut errors = Vec::new();
    let p = Params {
        seed,
        divisor,
        traced: false,
    };
    for (name, model) in [
        ("per_conn", kv::Model::PerConn),
        ("event_loop", kv::Model::EventLoop),
        ("completion", kv::Model::Completion),
        ("async", kv::Model::Async),
    ] {
        let rec = kv::run(Instant::now(), p, kv::Stack::Emp, model);
        errors.extend(
            crate::gate::violations("kv_fanin.emp", &rec)
                .into_iter()
                .map(|e| format!("model sweep, {name}: {e}")),
        );
        let e2e = metrics::sim_end_to_end(&SimSamples::of(&rec));
        out.push((
            format!("apps.{name}.sim_ops_per_s"),
            metrics::get(&e2e, "sim_ops_per_s").unwrap_or(0.0),
        ));
        if model == kv::Model::Async {
            let t = &rec.telemetry;
            let wakes = t.counters.get("exec.wakes").copied().unwrap_or(0) as f64;
            // Whole-run wakes over whole-run operations (preload and
            // warm-up included on both sides of the ratio).
            out.push((
                "emp-async.wakes_per_op".into(),
                metrics::ratio(wakes, rec.write_calls as f64),
            ));
            out.push((
                "emp-async.poll_spins_p99".into(),
                t.histograms
                    .get("exec.poll_spins")
                    .map_or(0.0, |h| h.quantile(0.99) as f64),
            ));
            out.push((
                "emp-async.tasks_live_end".into(),
                t.gauges.get("exec.tasks_live").copied().unwrap_or(0) as f64,
            ));
        }
    }
    (out, errors)
}

/// Message sizes of the `trace.*` budget and their metric suffixes.
pub const TRACE_SIZES: [(usize, &str); 3] = [(4, "4b"), (4096, "4k"), (65536, "64k")];

/// The repo's traced ping-pong at three sizes, each decomposed by
/// `Breakdown::compute` into µs per one-way leg. Meaningful only in a build
/// with the repo's `trace` feature; `Err` says why it could not be read.
pub fn trace_budget() -> Result<Values, String> {
    if !emp_trace::ENABLED {
        return Err("this build has the `trace` feature off".into());
    }
    let mut out = Values::new();
    for (size, tag) in TRACE_SIZES {
        let sim = Sim::new();
        let run = pingpong::traced_pingpong(&sim, &Testbed::emp_default(2), size, 20);
        if run.dropped != 0 {
            return Err(format!("{tag}: trace ring dropped {} events", run.dropped));
        }
        let b = emp_trace::Breakdown::compute(&run.events)
            .ok_or_else(|| format!("{tag}: no complete window in the trace"))?;
        if b.stage_ns.iter().sum::<u64>() != b.total_ns() {
            return Err(format!("{tag}: stages do not sum to the window"));
        }
        let per_leg = |s: emp_trace::Stage| b.stage(s) as f64 / b.legs as f64 / 1e3;
        for (stage, name) in [
            (emp_trace::Stage::Host, "host_us"),
            (emp_trace::Stage::NicFirmware, "nicfw_us"),
            (emp_trace::Stage::Dma, "dma_us"),
            (emp_trace::Stage::Wire, "wire_us"),
            (emp_trace::Stage::SubstrateCopy, "copy_us"),
        ] {
            out.push((format!("trace.{name}.{tag}"), per_leg(stage)));
        }
    }
    Ok(out)
}

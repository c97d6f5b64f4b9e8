//! One benchmark run of one workload, as the driver asks for it.
//!
//! A run is a number of repeats fixed by `--seconds` alone (one per
//! [`SECONDS_PER_REPEAT`]; a full-size repeat takes about that long on the
//! container the baseline was taken on), each in a fresh pinned process
//! under its own sub-seed. Sim-clock metrics are taken over the pooled
//! samples of all repeats, so they are a function of `(seed, seconds)`
//! only; host-clock metrics are the median of the repeats. A traced run
//! adds the span pass, the ladder, the model sweep and the `trace`-feature
//! budget.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::json::{self, Value};
use crate::metrics::{self, SimSamples, Values, END_TO_END, HOST_CLOCK, PER_LAYER};
use crate::pattern::sub_seed;
use crate::repeat::{values_from, RepeatResult};
use crate::workloads::{anchors, Params};
use crate::{host, layers, stats};

/// Requested seconds that buy one full-size repeat.
pub const SECONDS_PER_REPEAT: f64 = 2.0;
/// Fewest repeats whose median is reported for a host-clock metric.
pub const MIN_REPEATS: usize = 3;
/// Most repeats one run makes.
pub const MAX_REPEATS: usize = 30;

/// Repeats a run of `seconds` makes: a function of the request alone, never
/// of how fast the host turns out to be, so the pooled sim-clock numbers
/// repeat exactly.
pub fn repeats_for(seconds: f64, min_repeats: usize) -> usize {
    ((seconds / SECONDS_PER_REPEAT).round() as usize).clamp(min_repeats, MAX_REPEATS)
}

/// Per-layer metrics on the host clock: the median of the full-size passes.
pub const HOST_LAYER: [&str; 4] = [
    "simnet.host_events_per_s",
    "simnet.host_ns_per_event",
    "simnet.host_sys_share",
    "simnet.proc_threads_peak",
];

/// Operation counts of the span pass and the sweep relative to the run's.
pub const TRACED_DIVISOR: u64 = 10;

/// What to run and with what.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Produce the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Divide every operation count by this (1 = full size).
    pub divisor: u64,
    /// Fewest repeats (1 in the smoke profile).
    pub min_repeats: usize,
    /// This executable, re-run for every repeat.
    pub exe: PathBuf,
    /// The same program built with the repo's `trace` feature.
    pub traced_exe: Option<PathBuf>,
    /// Where span files go.
    pub out_dir: PathBuf,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Operations issued in one repeat's window (its sample count).
    pub attempted: u64,
    /// Operations that failed (always 0 in a result that is returned).
    pub failed: u64,
    /// The metrics of the kind asked for, in catalogue order.
    pub metrics: Values,
    /// Quartile spread (as a share of the median) of each host-clock metric
    /// over the repeats; empty for a traced run.
    pub spreads: Values,
    /// Full-size repeats made.
    pub repeats: usize,
    /// CPU the repeats were pinned to, if they were.
    pub pinned_cpu: Option<usize>,
}

fn child(exe: &Path, args: &[String]) -> Result<String, String> {
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "`{} {}` failed ({}): {}",
            exe.display(),
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("`{} {}` printed nothing", exe.display(), args.join(" ")))
}

fn spawn_repeat(
    a: &RunArgs,
    index: u64,
    divisor: u64,
    spans_out: Option<&Path>,
) -> Result<RepeatResult, String> {
    let mut args = vec![
        "repeat".to_string(),
        "--workload".into(),
        a.workload.clone(),
        "--seed".into(),
        sub_seed(a.seed, index).to_string(),
        "--divisor".into(),
        divisor.to_string(),
    ];
    if let Some(p) = spans_out {
        args.push("--spans".into());
        args.push(p.display().to_string());
    }
    let rep = RepeatResult::from_json(&child(&a.exe, &args)?)?;
    if rep.errors.is_empty() {
        Ok(rep)
    } else {
        Err(format!(
            "{} is not correct:\n  {}",
            a.workload,
            rep.errors.join("\n  ")
        ))
    }
}

fn require(values: &Values, name: &str) -> Result<f64, String> {
    metrics::get(values, name).ok_or_else(|| format!("metric `{name}` was not produced"))
}

/// Same seed ⇒ same simulation: every sim-clock number of every repeat must
/// equal the first repeat's to the last bit.
fn check_identical(reps: &[&Values], names: &[&str], what: &str) -> Result<(), String> {
    for name in names {
        let first = require(reps[0], name)?;
        for (i, r) in reps.iter().enumerate().skip(1) {
            let v = require(r, name)?;
            if v.to_bits() != first.to_bits() {
                return Err(format!(
                    "{what}: `{name}` differs between repeats of one seed ({first} vs {v} in repeat {i}): the simulation is not deterministic"
                ));
            }
        }
    }
    Ok(())
}

fn median_of(reps: &[&Values], name: &str) -> Result<f64, String> {
    let vals = reps
        .iter()
        .map(|r| require(r, name))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(stats::median(&vals))
}

/// Run as the driver asks.
pub fn run(a: &RunArgs) -> Result<RunOutput, String> {
    if a.trace {
        run_layers(a)
    } else {
        run_end_to_end(a)
    }
}

fn run_end_to_end(a: &RunArgs) -> Result<RunOutput, String> {
    let reps = (0..repeats_for(a.seconds, a.min_repeats) as u64)
        .map(|i| spawn_repeat(a, i, a.divisor, None))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = if reps[0].sim_fixed.is_empty() {
        let mut pooled = SimSamples::default();
        for r in &reps {
            pooled.pool(&r.sim);
        }
        metrics::sim_end_to_end(&pooled)
    } else {
        // Seed-independent by construction; every repeat must agree.
        let fixed: Vec<&Values> = reps.iter().map(|r| &r.sim_fixed).collect();
        let names: Vec<&str> = fixed[0].iter().map(|(n, _)| n.as_str()).collect();
        check_identical(&fixed, &names, &a.workload)?;
        reps[0].sim_fixed.clone()
    };
    let host: Vec<&Values> = reps.iter().map(|r| &r.host).collect();
    let mut spreads = Values::new();
    for name in HOST_CLOCK {
        let vals = host
            .iter()
            .map(|r| require(r, name))
            .collect::<Result<Vec<_>, _>>()?;
        if vals.len() >= 2 {
            spreads.push((name.to_string(), stats::quartile_spread(&vals)));
        }
        out.push((name.to_string(), stats::median(&vals)));
    }
    let metrics = END_TO_END
        .iter()
        .map(|d| Ok((d.name.to_string(), require(&out, d.name)?)))
        .collect::<Result<Values, String>>()?;
    Ok(RunOutput {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics,
        spreads,
        repeats: reps.len(),
        pinned_cpu: reps[0].pinned_cpu,
    })
}

/// What a `probe` child reports.
struct Probe {
    rr_host_wall_s: f64,
    budget: Result<Values, String>,
}

fn spawn_probe(exe: &Path, seed: u64, divisor: u64) -> Result<Probe, String> {
    let line = child(
        exe,
        &[
            "probe".into(),
            "--seed".into(),
            seed.to_string(),
            "--divisor".into(),
            divisor.to_string(),
        ],
    )?;
    let v = json::parse(&line)?;
    let budget = match v.get("budget") {
        Some(b @ Value::Obj(_)) => Ok(values_from(Some(b))),
        _ => Err(v
            .get("budget_error")
            .and_then(Value::as_str)
            .unwrap_or("no budget reported")
            .to_string()),
    };
    Ok(Probe {
        rr_host_wall_s: v
            .get("rr_host_wall_s")
            .and_then(Value::as_f64)
            .ok_or("probe lacks `rr_host_wall_s`")?,
        budget,
    })
}

fn run_layers(a: &RunArgs) -> Result<RunOutput, String> {
    let mut all = Values::new();

    // Full-size passes under the run's own seed, spans off: the counters
    // behind the first repeat of the end-to-end run. About a third of the
    // requested seconds.
    let passes = repeats_for(a.seconds / 3.0, 1);
    let full = (0..passes)
        .map(|_| spawn_repeat(a, 0, a.divisor, None))
        .collect::<Result<Vec<_>, _>>()?;
    let full_layers: Vec<&Values> = full.iter().map(|r| &r.layers).collect();
    check_identical(&full_layers, &["simnet.events_executed"], &a.workload)?;
    for (name, v) in full_layers[0] {
        let v = if HOST_LAYER.contains(&name.as_str()) {
            median_of(&full_layers, name)?
        } else {
            *v
        };
        metrics::set(&mut all, name, v);
    }

    // The span pass at a tenth of the size, against plain runs of the same
    // size; the difference is what recording spans costs.
    std::fs::create_dir_all(&a.out_dir).map_err(|e| format!("{}: {e}", a.out_dir.display()))?;
    let spans_file = a.out_dir.join(format!("spans.{}.json", a.workload));
    let small = a.divisor * TRACED_DIVISOR;
    let (mut plain_s, mut spans_s) = (Vec::new(), Vec::new());
    // What a run without a span pass reports: zeros.
    let mut span_layers = metrics::layer_spans(&[]);
    // `paper_anchors` runs the repo's microbenchmarks: none of its facade
    // calls are the benchmark's own, so there is nothing to wrap in spans.
    let pairs = if a.workload == "paper_anchors" {
        0
    } else {
        repeats_for(a.seconds / 2.0, a.min_repeats.min(2))
    };
    for _ in 0..pairs {
        let plain = spawn_repeat(a, 0, small, None)?;
        let traced = spawn_repeat(a, 0, small, Some(&spans_file))?;
        plain_s.push(require(&plain.host, "host_wall_s")?);
        spans_s.push(require(&traced.host, "host_wall_s")?);
        span_layers = traced.layers;
    }
    for d in PER_LAYER {
        // Only what the spans alone can give; the counters of the small
        // pass would overwrite the full-size ones.
        if let (None, Some(v)) = (
            metrics::get(&all, d.name),
            metrics::get(&span_layers, d.name),
        ) {
            metrics::set(&mut all, d.name, v);
        }
    }
    let overhead = if pairs == 0 {
        0.0
    } else {
        (stats::median(&spans_s) / stats::median(&plain_s) - 1.0) * 100.0
    };
    metrics::set(&mut all, "benchmark.span_overhead_pct", overhead);

    // Workload-independent layers, measured in this process on one core.
    host::pin_to_one_core();
    all.extend(layers::ladder(a.seed));
    let (sweep, sweep_errors) = layers::model_sweep(a.seed, small);
    if !sweep_errors.is_empty() {
        return Err(sweep_errors.join("\n"));
    }
    all.extend(sweep);
    if metrics::get(&all, "paper.err_pct").is_none() {
        let (anchors, _) = anchors::measure_at_size();
        for an in &anchors {
            all.push((format!("paper.{}", an.name), an.measured));
        }
        all.push(("paper.err_pct".into(), anchors::max_err_pct(&anchors)));
    }

    // The `trace`-feature build: its latency budget, and what compiling the
    // tracing in costs the host clock.
    let traced_exe = a
        .traced_exe
        .as_ref()
        .ok_or("no `trace`-feature build given (run through benchmark/run.sh)")?;
    let base = spawn_probe(&a.exe, a.seed, small)?;
    let traced = spawn_probe(traced_exe, a.seed, small)?;
    all.extend(traced.budget.map_err(|e| format!("trace budget: {e}"))?);
    metrics::set(
        &mut all,
        "trace.host_overhead_pct",
        (traced.rr_host_wall_s / base.rr_host_wall_s - 1.0) * 100.0,
    );

    let mut out = Values::new();
    for d in PER_LAYER {
        out.push((d.name.to_string(), require(&all, d.name)?));
    }
    Ok(RunOutput {
        attempted: full[0].attempted,
        failed: full[0].failed,
        metrics: out,
        spreads: Values::new(),
        repeats: full.len(),
        pinned_cpu: full[0].pinned_cpu,
    })
}

/// `probe`: `rr_4b.emp` at `divisor` three times in this process (median
/// window wall), plus the latency budget when this build can trace.
pub fn probe(seed: u64, divisor: u64) -> Result<String, String> {
    host::pin_to_one_core();
    let p = Params {
        seed,
        divisor,
        traced: false,
    };
    let mut walls = Vec::new();
    for _ in 0..3 {
        let rec = crate::workloads::rr::run(Instant::now(), p);
        let errors = crate::gate::violations("rr_4b.emp", &rec);
        if !errors.is_empty() {
            return Err(errors.join("\n"));
        }
        walls.push(rec.window.host_secs());
    }
    let mut members = vec![(
        "rr_host_wall_s".to_string(),
        Value::Num(stats::median(&walls)),
    )];
    match layers::trace_budget() {
        Ok(b) => members.push((
            "budget".into(),
            json::obj(b.into_iter().map(|(k, v)| (k, Value::Num(v)))),
        )),
        Err(e) => members.push(("budget_error".into(), Value::Str(e))),
    }
    Ok(Value::Obj(members).render())
}

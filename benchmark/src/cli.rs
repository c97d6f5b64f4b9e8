//! Command line. The driver form is
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; everything
//! else is for people (see `benchmark/README.md`).

use std::path::PathBuf;
use std::time::Instant;

use crate::json::{obj, Value};
use crate::manifest::Manifest;
use crate::repeat::{self, RepeatArgs};
use crate::supervisor::{self, RunArgs, RunOutput, MIN_REPEATS};
use crate::workloads::{Params, WORKLOADS};
use crate::{compare, metrics, report};

/// Seed used when none is given. (`BENCHMARK.json` admits no key for it.)
pub const DEFAULT_SEED: u64 = 20_020_923;

/// Operation-count divisor of the `--smoke` profile.
pub const SMOKE_DIVISOR: u64 = 20;

const USAGE: &str = "\
usage: benchmark/run.sh                       every workload, end-to-end metrics
       benchmark/run.sh --layers              ... and every per-layer metric, span files
       benchmark/run.sh --smoke               1/20 size: all workloads, ladder, spans, name check
       benchmark/run.sh --noise               two full sets back to back, compared
       benchmark/run.sh compare A.json B.json  one row per metric x workload
       benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   (the driver's form)
options: --seed N  --seconds S  --json FILE (write the full result set)";

/// Flags shared by the subcommands.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    divisor: Option<u64>,
    spans: Option<PathBuf>,
    json: Option<PathBuf>,
    layers: bool,
    smoke: bool,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--workload" => f.workload = Some(value(a)?),
            "--seed" => {
                f.seed = Some(
                    value(a)?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                )
            }
            "--seconds" => {
                let s: f64 = value(a)?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = Some(match value(a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--divisor" => {
                let d: u64 = value(a)?
                    .parse()
                    .map_err(|_| "--divisor takes a whole number")?;
                if d == 0 {
                    return Err("--divisor must be at least 1".into());
                }
                f.divisor = Some(d);
            }
            "--spans" => f.spans = Some(PathBuf::from(value(a)?)),
            "--json" => f.json = Some(PathBuf::from(value(a)?)),
            "--layers" => f.layers = true,
            "--smoke" => f.smoke = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}\n{USAGE}"))
            }
            other => f.positional.push(other.to_string()),
        }
    }
    Ok(f)
}

/// Where things are: set by `run.sh`, with fall-backs for a bare binary
/// started at the root of a checkout.
struct Paths {
    exe: PathBuf,
    traced_exe: Option<PathBuf>,
    bench_dir: PathBuf,
}

fn paths() -> Result<Paths, String> {
    let bench_dir = std::env::var_os("EMP_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark"));
    Ok(Paths {
        exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
        traced_exe: std::env::var_os("EMP_BENCH_TRACED_BIN").map(PathBuf::from),
        bench_dir,
    })
}

fn manifest(p: &Paths) -> Result<Manifest, String> {
    // BENCHMARK.json sits at the root of the checkout, beside benchmark/.
    let root = p.bench_dir.parent().map(PathBuf::from).unwrap_or_default();
    Manifest::load(&root.join("BENCHMARK.json"))
}

fn run_args(p: &Paths, f: &Flags, workload: &str, trace: bool, seconds: f64) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed: f.seed.unwrap_or(DEFAULT_SEED),
        seconds,
        trace,
        divisor: if f.smoke { SMOKE_DIVISOR } else { 1 },
        min_repeats: if f.smoke { 1 } else { MIN_REPEATS },
        exe: p.exe.clone(),
        traced_exe: p.traced_exe.clone(),
        out_dir: p.bench_dir.join("out"),
    }
}

/// The driver's result line.
pub fn result_line(out: &RunOutput) -> String {
    obj([
        ("correct", Value::Bool(true)),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", metrics::to_json(&out.metrics)),
    ])
    .render()
}

/// Run the command line `args` (without the program name).
pub fn dispatch(started: Instant, args: &[String]) -> Result<(), String> {
    crate::host::available_cpus(); // read before anything pins this process
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("", args),
    };
    let f = parse_flags(rest)?;
    match cmd {
        // Internal: one repeat in this process.
        "repeat" => {
            let workload = f.workload.clone().ok_or("repeat needs --workload")?;
            let r = repeat::run(
                started,
                &RepeatArgs {
                    workload,
                    params: Params {
                        seed: f.seed.unwrap_or(DEFAULT_SEED),
                        divisor: f.divisor.unwrap_or(1),
                        traced: f.spans.is_some(),
                    },
                    spans_out: f.spans.clone(),
                },
            )?;
            println!("{}", r.to_json());
            Ok(())
        }
        // Internal: what the `trace.*` metrics need from one build.
        "probe" => {
            println!(
                "{}",
                supervisor::probe(f.seed.unwrap_or(DEFAULT_SEED), f.divisor.unwrap_or(1))?
            );
            Ok(())
        }
        "compare" => match f.positional.as_slice() {
            [a, b] => {
                let m = manifest(&paths()?)?;
                print!("{}", compare::compare_files(&m, a.as_ref(), b.as_ref())?);
                Ok(())
            }
            _ => Err(format!("compare takes two result files\n{USAGE}")),
        },
        "noise" => {
            let p = paths()?;
            let m = manifest(&p)?;
            let seconds = f.seconds.unwrap_or(m.run_seconds as f64);
            let set = |label: &str| {
                eprintln!("noise: {label} set");
                report::run_set(&m, true, |w, trace| {
                    supervisor::run(&run_args(&p, &f, w, trace, seconds))
                })
            };
            let (first, second) = (set("first")?, set("second")?);
            let other_seed = Flags {
                seed: Some(f.seed.unwrap_or(DEFAULT_SEED) + 1),
                ..Flags::default()
            };
            eprintln!("noise: seed check");
            let reseeded = report::run_set(&m, false, |w, trace| {
                supervisor::run(&run_args(&p, &other_seed, w, trace, 1.0))
            })?;
            print!("{}", report::noise_report(&m, &first, &second, &reseeded)?);
            Ok(())
        }
        "" if f.workload.is_some() => {
            // The driver's form: one workload, one result line, last.
            let p = paths()?;
            let workload = f.workload.as_deref().expect("checked");
            if !WORKLOADS.contains(&workload) {
                return Err(format!("unknown workload `{workload}`"));
            }
            let m = manifest(&p)?;
            let trace = f.trace.unwrap_or(false);
            let seconds = f.seconds.unwrap_or(m.run_seconds as f64);
            let out = supervisor::run(&run_args(&p, &f, workload, trace, seconds))?;
            m.check_names(trace, out.metrics.iter().map(|(n, _)| n.as_str()))?;
            eprintln!(
                "{workload}: {} repeats, pinned to cpu {}",
                out.repeats,
                out.pinned_cpu
                    .map_or("none (unpinned)".to_string(), |c| c.to_string())
            );
            println!("{}", result_line(&out));
            Ok(())
        }
        "" | "all" => {
            let p = paths()?;
            let m = manifest(&p)?;
            let seconds = f
                .seconds
                .unwrap_or(if f.smoke { 1.0 } else { m.run_seconds as f64 });
            let layers = f.layers || f.smoke;
            let set = report::run_set(&m, layers, |w, trace| {
                let out = supervisor::run(&run_args(&p, &f, w, trace, seconds))?;
                m.check_names(trace, out.metrics.iter().map(|(n, _)| n.as_str()))?;
                Ok(out)
            })?;
            print!(
                "{}",
                report::render(&m, &set, f.seed.unwrap_or(DEFAULT_SEED))
            );
            if let Some(path) = &f.json {
                std::fs::write(path, report::to_json(&set, f.seed.unwrap_or(DEFAULT_SEED)))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            if f.smoke {
                println!(
                    "smoke: all {} workloads correct, metric names match BENCHMARK.json",
                    WORKLOADS.len()
                );
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

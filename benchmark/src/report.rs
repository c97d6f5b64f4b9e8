//! Running a whole set of workloads and showing it to a person: the metric
//! tables, the JSON result set `compare` reads, and the noise report.

use std::fmt::Write as _;

use crate::json::{obj, Value};
use crate::manifest::Manifest;
use crate::metrics::{self, Values};
use crate::supervisor::RunOutput;
use crate::{host, stats};

/// One workload's results in a set.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// The end-to-end run.
    pub e2e: RunOutput,
    /// The traced run, when asked for.
    pub layers: Option<RunOutput>,
}

/// Every workload's results.
pub type ResultSet = Vec<WorkloadResult>;

/// Run every workload of the manifest; the traced pass only when `layers`.
pub fn run_set(
    m: &Manifest,
    layers: bool,
    run: impl Fn(&str, bool) -> Result<RunOutput, String>,
) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for name in &m.workloads {
        eprintln!("running {name} ...");
        let e2e = run(name, false)?;
        let layers = if layers { Some(run(name, true)?) } else { None };
        set.push(WorkloadResult {
            name: name.clone(),
            e2e,
            layers,
        });
    }
    Ok(set)
}

fn table(out: &mut String, values: &Values) {
    for (name, v) in values {
        let _ = writeln!(out, "  {name:<40} {v:>18.6} {}", metrics::unit_of(name));
    }
}

/// The human report: every metric by name with its unit, per workload.
pub fn render(m: &Manifest, set: &ResultSet, seed: u64) -> String {
    let mut out = String::new();
    let pinned = set
        .first()
        .and_then(|w| w.e2e.pinned_cpu)
        .map_or("unpinned".to_string(), |c| format!("pinned to cpu {c}"));
    let _ = writeln!(
        out,
        "emp-benchmark: seed {seed}, {} cpus available, repeats {pinned}, traffic on simulated links only",
        host::available_cpus()
    );
    for w in set {
        let _ = writeln!(
            out,
            "\n{} — samples {} over {} repeats, failed {}",
            w.name, w.e2e.attempted, w.e2e.repeats, w.e2e.failed
        );
        table(&mut out, &w.e2e.metrics);
        for (name, s) in &w.e2e.spreads {
            if let Some(b) = m.bound(name) {
                let _ = writeln!(
                    out,
                    "  {:<40} {:>17.2}% (bound {:.1}%)",
                    format!("spread of {name} over repeats"),
                    s * 100.0,
                    b * 100.0
                );
            }
        }
        if let Some(l) = &w.layers {
            let _ = writeln!(out, "  -- per layer --");
            table(&mut out, &l.metrics);
        }
    }
    out
}

/// The result set as JSON, the input of `compare`.
pub fn to_json(set: &ResultSet, seed: u64) -> String {
    let workloads = set.iter().map(|w| {
        let mut members = vec![
            ("samples".to_string(), Value::Num(w.e2e.attempted as f64)),
            ("repeats".to_string(), Value::Num(w.e2e.repeats as f64)),
            ("end_to_end".to_string(), metrics::to_json(&w.e2e.metrics)),
            (
                "spread".to_string(),
                obj(w
                    .e2e
                    .spreads
                    .iter()
                    .map(|(n, s)| (n.clone(), Value::Num(*s)))),
            ),
        ];
        if let Some(l) = &w.layers {
            members.push(("per_layer".to_string(), metrics::to_json(&l.metrics)));
        }
        (w.name.clone(), Value::Obj(members))
    });
    obj([
        ("seed", Value::Num(seed as f64)),
        ("cpus", Value::Num(host::available_cpus() as f64)),
        ("workloads", obj(workloads)),
    ])
    .render()
        + "\n"
}

/// Is `name` measured on the host clock (noisy), rather than on the sim
/// clock or as an exact count?
pub fn on_host_clock(name: &str) -> bool {
    metrics::HOST_CLOCK.contains(&name)
        || crate::supervisor::HOST_LAYER.contains(&name)
        || name.ends_with(".host_us_per_rt")
        || name.ends_with("_overhead_pct")
        || name == "benchmark.op_self_host_us_p50"
}

fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
    }
}

/// The noise report (`benchmark/NOISE.md`): two sets of the same code and
/// seed compared metric by metric against the bounds, and a third set under
/// another seed to show what a seed may and may not change.
pub fn noise_report(
    m: &Manifest,
    first: &ResultSet,
    second: &ResultSet,
    reseeded: &ResultSet,
) -> Result<String, String> {
    let mut out = String::new();
    let mut violations = Vec::new();
    let _ = writeln!(out, "# Determinism and noise self-check\n");
    let _ = writeln!(
        out,
        "Two full sets of runs of the same code and seed, back to back, on {} cpus, repeats {}.",
        host::available_cpus(),
        first
            .first()
            .and_then(|w| w.e2e.pinned_cpu)
            .map_or("unpinned".to_string(), |c| format!("pinned to cpu {c}")),
    );
    let _ = writeln!(
        out,
        "Sim-clock metrics and exact counts must be bit-identical. Host-clock metrics must differ by less than their bound; a difference beyond the bound but inside bound + quartile spread of the repeats is flagged `noisy`, beyond that it is a violation.\n"
    );
    let _ = writeln!(
        out,
        "| workload | metric | first | second | rel. diff | bound | verdict |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    let mut exact_checked = 0usize;
    for (a, b) in first.iter().zip(second) {
        let e2e = a.e2e.metrics.iter().zip(&b.e2e.metrics).map(|r| (r, true));
        // Per-layer: every sim-clock metric and exact count is checked; only
        // the event count (and any violation) gets a row.
        let layers = a
            .layers
            .iter()
            .zip(&b.layers)
            .flat_map(|(x, y)| x.metrics.iter().zip(&y.metrics))
            .filter(|((n, _), _)| !on_host_clock(n))
            .map(|r| (r, r.0 .0 == "simnet.events_executed"));
        for (((name, x), (_, y)), show) in e2e.chain(layers) {
            let diff = rel_diff(*x, *y);
            let (bound, verdict) = if on_host_clock(name) {
                // Two single runs are compared here, not the medians of ten
                // the driver compares: a difference counts against the code
                // only beyond the bound plus the spread the repeats of
                // these very runs show.
                let bound = m.bound(name).unwrap_or(0.0);
                let spread = |w: &WorkloadResult| metrics::get(&w.e2e.spreads, name).unwrap_or(0.0);
                let verdict = if diff <= bound {
                    "ok"
                } else if diff <= bound + spread(a).max(spread(b)) {
                    "noisy (inside bound + spread over repeats)"
                } else {
                    "VIOLATION"
                };
                (format!("{:.1}%", bound * 100.0), verdict)
            } else {
                exact_checked += 1;
                let same = x.to_bits() == y.to_bits();
                ("exact".to_string(), if same { "ok" } else { "VIOLATION" })
            };
            if verdict == "VIOLATION" {
                violations.push(format!("{} {name}: {x} vs {y}", a.name));
            }
            if show || verdict != "ok" {
                let _ = writeln!(
                    out,
                    "| {} | {name} | {x} | {y} | {:.3}% | {bound} | {verdict} |",
                    a.name,
                    diff * 100.0,
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "\n{exact_checked} sim-clock values and exact counts were compared bit for bit (every end-to-end `sim_*` above, and every per-layer metric not on the host clock, of which only `simnet.events_executed` is listed)."
    );
    let _ = writeln!(out, "\n## Spread over the repeats of one run\n");
    let _ = writeln!(
        out,
        "Distance between the first and third quartile of a host-clock metric over the repeats of one run, as a share of their median (the larger of the two sets).\n"
    );
    let _ = writeln!(out, "| workload | metric | spread | bound |");
    let _ = writeln!(out, "|---|---|---|---|");
    for (a, b) in first.iter().zip(second) {
        for ((name, s1), (_, s2)) in a.e2e.spreads.iter().zip(&b.e2e.spreads) {
            let _ = writeln!(
                out,
                "| {} | {name} | {:.2}% | {:.1}% |",
                a.name,
                s1.max(*s2) * 100.0,
                m.bound(name).unwrap_or(0.0) * 100.0
            );
        }
    }
    let _ = writeln!(out, "\n## Another seed\n");
    let _ = writeln!(
        out,
        "A different `--seed` must change the kv operation sequence and the loss pattern, and must not change any operation count.\n"
    );
    let _ = writeln!(out, "| workload | samples per repeat (seed) | samples per repeat (seed+1) | sim_p50_us (seed) | sim_p50_us (seed+1) | verdict |");
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for (a, r) in first.iter().zip(reseeded) {
        let p50 = |w: &WorkloadResult| metrics::get(&w.e2e.metrics, "sim_p50_us").unwrap_or(0.0);
        let goodput =
            |w: &WorkloadResult| metrics::get(&w.e2e.metrics, "sim_goodput_mbps").unwrap_or(0.0);
        let seeded = a.name.starts_with("kv_fanin") || a.name == "stream_lossy.emp";
        let moved = p50(a) != p50(r) || goodput(a) != goodput(r);
        // Per repeat: the reseeded set is shorter and makes fewer repeats.
        let same_counts =
            a.e2e.attempted * r.e2e.repeats as u64 == r.e2e.attempted * a.e2e.repeats as u64;
        let ok = same_counts && (!seeded || moved);
        if !ok {
            violations.push(format!("{}: seed check", a.name));
        }
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} |",
            a.name,
            a.e2e.attempted / a.e2e.repeats as u64,
            r.e2e.attempted / r.e2e.repeats as u64,
            p50(a),
            p50(r),
            match (ok, seeded) {
                (false, _) => "VIOLATION",
                (true, true) => "ok (seed moves the traffic, not the counts)",
                (true, false) => "ok",
            }
        );
    }
    let worst: Vec<f64> = first
        .iter()
        .zip(second)
        .flat_map(|(a, b)| {
            a.e2e
                .metrics
                .iter()
                .zip(&b.e2e.metrics)
                .filter(|((n, _), _)| on_host_clock(n))
                .map(|((_, x), (_, y))| rel_diff(*x, *y))
        })
        .collect();
    let _ = writeln!(
        out,
        "\nLargest host-clock difference between the two sets: {:.2}% (median {:.2}%).",
        worst.iter().copied().fold(0.0, f64::max) * 100.0,
        if worst.is_empty() {
            0.0
        } else {
            stats::median(&worst) * 100.0
        }
    );
    if violations.is_empty() {
        let _ = writeln!(out, "\nResult: **pass** — no violation.");
        Ok(out)
    } else {
        Err(format!(
            "{out}\nnoise check failed:\n  {}",
            violations.join("\n  ")
        ))
    }
}

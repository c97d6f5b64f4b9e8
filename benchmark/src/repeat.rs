//! One repeat: one workload, once, in this (fresh, pinned) process. The
//! supervisor starts one such process per repeat, so every repeat has its
//! own peak-RSS reading, its own allocator and thread state, and a
//! `setup_s` that really counts from process start.

use std::path::PathBuf;
use std::time::Instant;

use crate::json::{obj, Value};
use crate::metrics::{self, SimSamples, Values};
use crate::workloads::{self, Params};
use crate::{gate, host, spans};

/// What to run.
#[derive(Clone, Debug)]
pub struct RepeatArgs {
    /// Workload name.
    pub workload: String,
    /// Per-run parameters.
    pub params: Params,
    /// Where to write the span file of a traced run.
    pub spans_out: Option<PathBuf>,
}

/// What one repeat reports to the supervisor.
#[derive(Clone, Debug, Default)]
pub struct RepeatResult {
    /// Correctness violations; empty = correct.
    pub errors: Vec<String>,
    /// Operations issued in the window.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What the run's sim-clock end-to-end metrics are pooled from.
    pub sim: SimSamples,
    /// Sim-clock end-to-end metrics already final (`paper_anchors`, whose
    /// numbers are the repo microbenchmarks' means, not samples).
    pub sim_fixed: Values,
    /// Host-clock end-to-end metrics of this repeat.
    pub host: Values,
    /// Per-layer metrics this run could compute by itself.
    pub layers: Values,
    /// CPU the process was pinned to, if it was.
    pub pinned_cpu: Option<usize>,
}

/// Run one repeat in this process.
pub fn run(started: Instant, args: &RepeatArgs) -> Result<RepeatResult, String> {
    let pinned_cpu = host::pin_to_one_core();
    let rec = workloads::run(&args.workload, started, args.params)?;
    let errors = gate::violations(&args.workload, &rec);
    let mut layers = metrics::layer_counters(&rec);
    if args.params.traced {
        layers.extend(metrics::layer_spans(&rec.spans));
        if let Some(path) = &args.spans_out {
            let text = spans::to_json(&args.workload, args.params.seed, &rec.spans);
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    if !rec.anchors.is_empty() {
        layers.extend(metrics::layer_paper(&rec));
    }
    Ok(RepeatResult {
        errors,
        attempted: rec.attempted,
        failed: rec.failed,
        sim: SimSamples::of(&rec),
        sim_fixed: if rec.anchors.is_empty() {
            Values::new()
        } else {
            metrics::sim_end_to_end_anchors(&rec)
        },
        host: metrics::host_end_to_end(&rec),
        layers,
        pinned_cpu,
    })
}

fn values_json(v: &Values) -> Value {
    obj(v.iter().map(|(n, x)| (n.clone(), Value::Num(*x))))
}

/// The numbers of a JSON object of `name: number` members.
pub fn values_from(v: Option<&Value>) -> Values {
    v.and_then(Value::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                .collect()
        })
        .unwrap_or_default()
}

impl RepeatResult {
    /// The one line a repeat process prints.
    pub fn to_json(&self) -> String {
        obj([
            (
                "errors",
                Value::Arr(self.errors.iter().cloned().map(Value::Str).collect()),
            ),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "pinned_cpu",
                self.pinned_cpu
                    .map_or(Value::Null, |c| Value::Num(c as f64)),
            ),
            (
                "samples_ns",
                Value::Arr(
                    self.sim
                        .samples_ns
                        .iter()
                        .map(|&n| Value::Num(n as f64))
                        .collect(),
                ),
            ),
            ("verified_bytes", Value::Num(self.sim.verified_bytes as f64)),
            ("sim_window_ns", Value::Num(self.sim.window_ns as f64)),
            ("sim_fixed", values_json(&self.sim_fixed)),
            ("host", values_json(&self.host)),
            ("layers", values_json(&self.layers)),
        ])
        .render()
    }

    /// Parse that line back.
    pub fn from_json(line: &str) -> Result<RepeatResult, String> {
        let v = crate::json::parse(line)?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("repeat result lacks `{k}`"))
        };
        Ok(RepeatResult {
            errors: v
                .get("errors")
                .and_then(Value::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(|e| e.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            pinned_cpu: v
                .get("pinned_cpu")
                .and_then(Value::as_f64)
                .map(|c| c as usize),
            sim: SimSamples {
                samples_ns: v
                    .get("samples_ns")
                    .and_then(Value::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(Value::as_f64)
                            .map(|n| n as u64)
                            .collect()
                    })
                    .unwrap_or_default(),
                verified_bytes: num("verified_bytes")? as u64,
                window_ns: num("sim_window_ns")? as u64,
            },
            sim_fixed: values_from(v.get("sim_fixed")),
            host: values_from(v.get("host")),
            layers: values_from(v.get("layers")),
        })
    }
}

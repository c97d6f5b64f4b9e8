//! `compare <a.json> <b.json>`: one row per metric × workload — base, new,
//! the ratio new/base, the bound, and a verdict. The table a later change
//! pastes to show what it moved and what it left alone.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Value};
use crate::manifest::Manifest;
use crate::metrics::{self, Better};
use crate::report::on_host_clock;

/// What a row concludes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound (or at all, for an exact metric
    /// without a bound).
    Better,
    /// Within the bound.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound and the difference
    /// lies inside it, or a noisy metric moved and no spread is known.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric. `worsening` is how much worse `new` is than `base` as
/// a share of `base` (negative = improved); `spread` is the larger quartile
/// spread of the two sides, when known.
pub fn judge(worsening: f64, bound: Option<f64>, spread: Option<f64>, noisy: bool) -> Verdict {
    match bound {
        Some(bound) => {
            if spread.is_some_and(|s| s > bound && worsening.abs() <= s) {
                Verdict::Unresolved
            } else if worsening > bound {
                Verdict::Worse
            } else if worsening < -bound {
                Verdict::Better
            } else {
                Verdict::Same
            }
        }
        // Per-layer metrics carry no bound: exact ones compare exactly,
        // noisy ones cannot be resolved from one reading a side.
        None if worsening == 0.0 => Verdict::Same,
        None if noisy => Verdict::Unresolved,
        None if worsening > 0.0 => Verdict::Worse,
        None => Verdict::Better,
    }
}

/// How much worse `new` is than `base`, as a share of `base`.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    if base == new {
        return 0.0;
    }
    let rel = (new - base) / base.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

fn metric_values(w: &Value, section: &str) -> Vec<(String, f64)> {
    w.get(section)
        .and_then(Value::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| {
                    v.get("value")
                        .and_then(Value::as_f64)
                        .map(|x| (k.clone(), x))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two result sets written by `run.sh --json`.
pub fn compare_files(m: &Manifest, base: &Path, new: &Path) -> Result<String, String> {
    let (a, b) = (load(base)?, load(new)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "base = {} (seed {}), new = {} (seed {}); ratio = new / base",
        base.display(),
        a.get("seed").and_then(Value::as_f64).unwrap_or(0.0),
        new.display(),
        b.get("seed").and_then(Value::as_f64).unwrap_or(0.0),
    );
    let _ = writeln!(
        out,
        "| workload | metric | base | new | ratio | bound | verdict |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    let workloads = |v: &Value| {
        v.get("workloads")
            .and_then(Value::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("no `workloads` object")
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    for (name, base_w) in &wa {
        let Some((_, new_w)) = wb.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(out, "| {name} | (absent from new) | | | | | |");
            continue;
        };
        for section in ["end_to_end", "per_layer"] {
            let new_vals = metric_values(new_w, section);
            for (metric, x) in metric_values(base_w, section) {
                let Some(y) = metrics::get(&new_vals, &metric) else {
                    continue;
                };
                let better = metrics::def(&metric).map_or(Better::Lower, |d| d.better);
                let bound = m.bound(&metric);
                let spread_of = |w: &Value| {
                    w.get("spread")
                        .and_then(|s| s.get(&metric))
                        .and_then(Value::as_f64)
                };
                let spread = match (spread_of(base_w), spread_of(new_w)) {
                    (Some(p), Some(q)) => Some(p.max(q)),
                    (p, q) => p.or(q),
                };
                let verdict = judge(
                    worsening(x, y, better),
                    bound,
                    spread,
                    on_host_clock(&metric),
                );
                let _ = writeln!(
                    out,
                    "| {name} | {metric} | {x} | {y} | {:.6} | {} | {} |",
                    if x == 0.0 { f64::NAN } else { y / x },
                    bound.map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0)),
                    verdict.word()
                );
            }
        }
    }
    Ok(out)
}

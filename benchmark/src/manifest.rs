//! `BENCHMARK.json`: the names, units, directions and bounds the driver
//! holds the benchmark to. The benchmark reads it to validate its own
//! output and to judge a comparison.

use std::path::Path;

use crate::json::{self, Value};

/// One metric as the manifest declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct ManifestMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the base's median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself uses.
#[derive(Clone, Debug, Default)]
pub struct Manifest {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<ManifestMetric>,
    /// Per-layer metrics.
    pub per_layer: Vec<ManifestMetric>,
    /// Seconds one run measures.
    pub run_seconds: u64,
}

fn metrics_of(v: &Value, key: &str) -> Result<Vec<ManifestMetric>, String> {
    let field = |m: &Value, k: &str| {
        m.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("a `{key}` entry lacks `{k}`"))
    };
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("`{key}` missing"))?
        .iter()
        .map(|m| {
            Ok(ManifestMetric {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                better: field(m, "better")?,
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Manifest {
    /// Parse the manifest text.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let v = json::parse(text)?;
        let workloads = v
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("`workloads` missing")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "a workload lacks `name`".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Manifest {
            workloads,
            end_to_end: metrics_of(&v, "end_to_end")?,
            per_layer: metrics_of(&v, "per_layer")?,
            run_seconds: v
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("`run_seconds` missing")? as u64,
        })
    }

    /// Read and parse `path`.
    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Manifest::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The declared bound of end-to-end metric `name`.
    pub fn bound(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.bound)
    }

    /// Check that `names` are exactly the declared names of one kind
    /// (`end_to_end` when `trace` is false, else `per_layer`), the rule the
    /// driver applies to a run's `metrics` object.
    pub fn check_names<'a>(
        &self,
        trace: bool,
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<(), String> {
        let declared = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut want: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
        let mut got: Vec<&str> = names.into_iter().collect();
        want.sort_unstable();
        got.sort_unstable();
        if want == got {
            return Ok(());
        }
        let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
        let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
        Err(format!(
            "metric names differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
        ))
    }
}

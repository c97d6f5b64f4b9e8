//! `paper_anchors`: the six numbers of the paper's abstract, re-measured
//! under the paper's named presets with the repo's own microbenchmarks.
//!
//! This is the accuracy guard. The model is calibrated to the paper, so a
//! "speed-up" that moves these is a de-calibration, not a gain.

use std::time::Instant;

use emp_apps::{bandwidth, pingpong, Testbed};
use emp_proto::EmpConfig;
use kernel_tcp::TcpConfig;
use simnet::{Sim, SimAccess};
use sockets_emp::SubstrateConfig;

use super::{warmup, BASE};
use crate::harness::RunRecord;

/// The largest relative error against the paper, in percent, at which the
/// workload still counts as correct. The calibrated model sits below 5.
pub const MAX_ERR_PCT: f64 = 6.0;

/// One anchor: what the paper reports and what the model gives.
#[derive(Clone, Debug)]
pub struct Anchor {
    /// Metric-name suffix (`paper.<name>`).
    pub name: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// The value measured in this run.
    pub measured: f64,
}

impl Anchor {
    /// Relative error against the paper, percent.
    pub fn err_pct(&self) -> f64 {
        (self.measured - self.paper).abs() / self.paper * 100.0
    }
}

/// The paper's six values, in report order (abstract and §7.2).
pub const PAPER: [(&str, f64); 6] = [
    ("oneway_us.ds_da_uq", 37.0),
    ("oneway_us.datagram", 28.5),
    ("oneway_us.tcp", 120.0),
    ("peak_mbps.substrate", 840.0),
    ("peak_mbps.tcp_16k", 340.0),
    ("peak_mbps.tcp_256k", 550.0),
];

/// Round trips of the DS_DA_UQ anchor: `(mean, longest)` in sim µs.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeadlineRtt {
    /// Mean round trip.
    pub mean_us: f64,
    /// Longest single round trip (exact, from the `app.rtt_ns` histogram).
    pub max_us: f64,
}

fn emp(cfg: SubstrateConfig, label: &str) -> Testbed {
    Testbed::emp(2, EmpConfig::default(), cfg, label)
}

fn tcp(sockbuf: Option<usize>, label: &str) -> Testbed {
    Testbed::kernel(2, TcpConfig::default(), sockbuf, label)
}

/// Measure the six anchors at `round_trips` / `bytes` per anchor.
pub fn measure(round_trips: u32, bytes: usize) -> (Vec<Anchor>, HeadlineRtt) {
    // Peak bandwidth: the largest message size of Figure 13.
    const MSG: usize = 256 << 10;
    let mut headline = HeadlineRtt::default();
    let ds = {
        let sim = Sim::new();
        let us = pingpong::one_way_latency_us(
            &sim,
            &emp(SubstrateConfig::ds_da_uq(), "ds-da-uq"),
            4,
            round_trips,
        );
        headline.mean_us = 2.0 * us;
        if let Some(h) = sim.telemetry().snapshot().histograms.get("app.rtt_ns") {
            headline.max_us = h.max as f64 / 1e3;
        }
        us
    };
    let measured = [
        ds,
        pingpong::one_way_latency_us(
            &Sim::new(),
            &emp(SubstrateConfig::dg(), "dg"),
            4,
            round_trips,
        ),
        pingpong::one_way_latency_us(&Sim::new(), &tcp(None, "tcp-16k"), 4, round_trips),
        bandwidth::throughput_mbps(
            &Sim::new(),
            &emp(SubstrateConfig::ds_da_uq(), "ds-da-uq"),
            MSG,
            bytes,
        ),
        bandwidth::throughput_mbps(&Sim::new(), &tcp(None, "tcp-16k"), MSG, bytes),
        bandwidth::throughput_mbps(&Sim::new(), &tcp(Some(256 << 10), "tcp-256k"), MSG, bytes),
    ];
    let anchors = PAPER
        .iter()
        .zip(measured)
        .map(|(&(name, paper), measured)| Anchor {
            name,
            paper,
            measured,
        })
        .collect();
    (anchors, headline)
}

/// Largest relative error over the anchors, percent.
pub fn max_err_pct(anchors: &[Anchor]) -> f64 {
    anchors.iter().map(Anchor::err_pct).fold(0.0, f64::max)
}

/// [`measure`] at the one size the anchors are ever taken at. They are an
/// accuracy guard against fixed constants, and short transfers read
/// differently (start-up is a larger share), so no profile shrinks them.
pub fn measure_at_size() -> (Vec<Anchor>, HeadlineRtt) {
    measure(BASE.anchor_round_trips as u32, BASE.anchor_bytes as usize)
}

/// Run the workload once: a tenth-size pass as warm-up, then the measured
/// pass. Its "operations" are the six anchors; one outside
/// [`MAX_ERR_PCT`] is a failed operation.
pub fn run(started: Instant) -> RunRecord {
    measure(
        warmup(BASE.anchor_round_trips) as u32,
        warmup(BASE.anchor_bytes) as usize,
    );
    let mut rec = RunRecord::default();
    rec.window.host_open = started.elapsed();
    let (anchors, headline) = measure_at_size();
    rec.window.host_close = started.elapsed();
    rec.attempted = anchors.len() as u64;
    for a in anchors.iter().filter(|a| a.err_pct() > MAX_ERR_PCT) {
        rec.failed += 1;
        rec.errors.push(format!(
            "paper.{}: measured {:.2}, paper {:.2} ({:.1} % off, limit {MAX_ERR_PCT} %)",
            a.name,
            a.measured,
            a.paper,
            a.err_pct()
        ));
    }
    rec.anchors = anchors;
    rec.headline = headline;
    rec
}

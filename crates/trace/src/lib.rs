//! Cross-layer sim-time tracing and metrics for the EMP sockets testbed.
//!
//! The paper's argument (§7) is a *latency budget*: it explains every
//! figure by attributing microseconds to host overhead, NIC firmware,
//! DMA, and the wire. This crate makes that budget observable in the
//! reproduction:
//!
//! - [`Tracer`]: a bounded ring buffer of typed [`TraceEvent`]s, each
//!   stamped with a simulated-time nanosecond value, an originating node,
//!   and (where known) a connection id. One tracer is owned per
//!   simulation (by `simnet::SimShared`) and reached from any layer via
//!   `SimAccess::tracer()`. Recording is compiled to a no-op unless the
//!   `trace` cargo feature is on — gate emission sites on [`ENABLED`]
//!   so argument construction folds away too.
//! - [`Breakdown`]: decomposes a closed-loop exchange (e.g. a pingpong
//!   RTT) into host / NIC-firmware / DMA / wire / substrate-copy stages
//!   by *tiling* the interval between milestone events, so the stages
//!   sum to the measured wall interval exactly.
//! - [`chrome_trace_json`]: exports a trace as Chrome trace-event JSON,
//!   loadable in Perfetto or `chrome://tracing`; [`Breakdown::text_report`]
//!   renders the same data as a plain-text table.
//! - [`telemetry`]: the *always-on* observability layer — log-linear
//!   histograms with tail quantiles, gauges, sampled time series, and the
//!   cross-layer [`telemetry::Registry`]. Compiled unconditionally (unlike
//!   event tracing) and cheap enough to leave on in every build.
//!
//! This crate deliberately depends on nothing (events store raw
//! nanoseconds, not `SimTime`) so every layer of the stack — including
//! `simnet` itself — can depend on it without cycles.

mod breakdown;
mod chrome;
mod event;
mod metrics;
pub mod telemetry;

pub use breakdown::{Breakdown, Stage, STAGES};
pub use chrome::chrome_trace_json;
pub use event::{EventKind, TraceEvent, Tracer, NO_CONN, NO_NODE};
pub use metrics::Counter;

/// True when the `trace` cargo feature is enabled. A `const`, so
/// `if emp_trace::ENABLED { ... }` blocks at emission sites are removed
/// entirely by constant folding in untraced builds.
pub const ENABLED: bool = cfg!(feature = "trace");

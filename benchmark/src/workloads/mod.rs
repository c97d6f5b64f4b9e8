//! The eight workloads. Names are fixed; [`BASE`] sizes give 1 to 2 s of
//! pinned host time each on the container the baseline was taken on, and
//! every profile divides all of them (but the anchors') by one number.
//!
//! All load is closed loop, generated inside the one process by simulated
//! clients that each issue their next operation when the previous reply has
//! been verified. All traffic crosses simulated links only.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use emp_apps::{Conn, NetApi, NetError, NetListener};
use simnet::{MacAddr, ProcessCtx, SimResult};

use crate::harness::{RunRecord, Session};
use crate::spans::{Open, Recorder};

pub mod anchors;
pub mod http;
pub mod kv;
pub mod rr;
pub mod stream;

/// Workload names, in report order.
pub const WORKLOADS: [&str; 8] = [
    "rr_4b.emp",
    "stream_64k.emp",
    "stream_64b.emp",
    "kv_fanin.emp",
    "kv_fanin.tcp",
    "http_churn.emp",
    "stream_lossy.emp",
    "paper_anchors",
];

/// Per-run parameters common to every workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Workload seed: kv draws, payload patterns, `FaultPlan` seed.
    pub seed: u64,
    /// All operation counts are the base counts divided by this.
    pub divisor: u64,
    /// Record spans around the facade calls.
    pub traced: bool,
}

/// Full-size operation counts (the `BASE` profile, divisor 1).
pub struct Base {
    /// Round trips of `rr_4b.emp`.
    pub rr_round_trips: u64,
    /// Bytes `stream_64k.emp` moves in 64 KiB writes.
    pub stream_64k_bytes: u64,
    /// 64 B writes of `stream_64b.emp`.
    pub stream_64b_writes: u64,
    /// Connections of `kv_fanin.*`.
    pub kv_conns: u64,
    /// Operations per connection of `kv_fanin.*`.
    pub kv_ops_per_conn: u64,
    /// Clients of `http_churn.emp`.
    pub http_clients: u64,
    /// Connections per client of `http_churn.emp`.
    pub http_conns_per_client: u64,
    /// Bytes `stream_lossy.emp` moves in 16 KiB writes.
    pub stream_lossy_bytes: u64,
    /// Round trips per latency anchor of `paper_anchors`.
    pub anchor_round_trips: u64,
    /// Bytes per bandwidth anchor of `paper_anchors`.
    pub anchor_bytes: u64,
}

/// The full-size profile.
pub const BASE: Base = Base {
    rr_round_trips: 10_000,
    stream_64k_bytes: 384 << 20,
    stream_64b_writes: 24_000,
    kv_conns: 32,
    kv_ops_per_conn: 320,
    http_clients: 3,
    http_conns_per_client: 600,
    stream_lossy_bytes: 192 << 20,
    anchor_round_trips: 800,
    anchor_bytes: 16 << 20,
};

/// `count / divisor`, at least `floor` (a workload never shrinks to nothing).
pub fn scaled(count: u64, divisor: u64, floor: u64) -> u64 {
    (count / divisor.max(1)).max(floor)
}

/// Warm-up is a tenth of the measured operations, at least one.
pub fn warmup(ops: u64) -> u64 {
    (ops / 10).max(1)
}

/// Run workload `name` once in this process. `started` is the process
/// start, the origin of `setup_s`.
pub fn run(name: &str, started: Instant, p: Params) -> Result<RunRecord, String> {
    match name {
        "rr_4b.emp" => Ok(rr::run(started, p)),
        "stream_64k.emp" => Ok(stream::run(started, p, stream::Shape::Bulk64k)),
        "stream_64b.emp" => Ok(stream::run(started, p, stream::Shape::Small64b)),
        "stream_lossy.emp" => Ok(stream::run(started, p, stream::Shape::Lossy16k)),
        "kv_fanin.emp" => Ok(kv::run(started, p, kv::Stack::Emp, kv::Model::EventLoop)),
        "kv_fanin.tcp" => Ok(kv::run(started, p, kv::Stack::Kernel, kv::Model::EventLoop)),
        "http_churn.emp" => Ok(http::run(started, p)),
        "paper_anchors" => Ok(anchors::run(started)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The benchmark's calls into the sockets facade, each wrapped in a span
/// (when the run is traced) and counted. One per simulated process.
pub struct Calls {
    rec: Recorder,
    /// Layer the facade calls land in: `core` or `kernel-tcp`.
    layer: &'static str,
    /// Facade write calls made through this object.
    pub write_calls: u64,
}

impl Calls {
    /// The call wrapper of one simulated process of `session`.
    pub fn new(session: &Arc<Session>) -> Calls {
        Calls {
            rec: session.spans.recorder(),
            layer: if session.bed.is_kernel() {
                "kernel-tcp"
            } else {
                "core"
            },
            write_calls: 0,
        }
    }

    /// Open the root span of request `req`.
    pub fn op_begin(&mut self, ctx: &ProcessCtx, name: &'static str, req: u64) -> Open {
        self.rec.begin(ctx, "benchmark", name, req)
    }

    /// Close a root span.
    pub fn op_end(&mut self, ctx: &ProcessCtx, open: Open) {
        self.rec.end(ctx, open);
    }

    /// `NetApi::connect`.
    pub fn connect(
        &mut self,
        ctx: &ProcessCtx,
        api: &dyn NetApi,
        host: MacAddr,
        port: u16,
        req: u64,
    ) -> SimResult<Result<Conn, NetError>> {
        let s = self.rec.begin(ctx, self.layer, "connect", req);
        let r = api.connect(ctx, host, port);
        self.rec.end(ctx, s);
        r
    }

    /// `NetListener::accept`.
    pub fn accept(
        &mut self,
        ctx: &ProcessCtx,
        l: &dyn NetListener,
        req: u64,
    ) -> SimResult<Result<Conn, NetError>> {
        let s = self.rec.begin(ctx, self.layer, "accept", req);
        let r = l.accept(ctx);
        self.rec.end(ctx, s);
        r
    }

    /// `NetConn::write` (the whole buffer).
    pub fn write(
        &mut self,
        ctx: &ProcessCtx,
        conn: &Conn,
        data: &[u8],
        req: u64,
    ) -> SimResult<Result<usize, NetError>> {
        self.write_calls += 1;
        let s = self.rec.begin(ctx, self.layer, "write", req);
        let r = conn.write(ctx, data);
        self.rec.end(ctx, s);
        r
    }

    /// `NetConn::read` (up to `max` bytes; empty = EOF).
    pub fn read(
        &mut self,
        ctx: &ProcessCtx,
        conn: &Conn,
        max: usize,
        req: u64,
    ) -> SimResult<Result<Bytes, NetError>> {
        let s = self.rec.begin(ctx, self.layer, "read", req);
        let r = conn.read(ctx, max);
        self.rec.end(ctx, s);
        r
    }

    /// `NetConn::read_exact` (`None` = EOF before `n` bytes).
    pub fn read_exact(
        &mut self,
        ctx: &ProcessCtx,
        conn: &Conn,
        n: usize,
        req: u64,
    ) -> SimResult<Result<Option<Bytes>, NetError>> {
        let s = self.rec.begin(ctx, self.layer, "read_exact", req);
        let r = conn.read_exact(ctx, n);
        self.rec.end(ctx, s);
        r
    }

    /// `NetConn::close`.
    pub fn close(&mut self, ctx: &ProcessCtx, conn: &Conn, req: u64) -> SimResult<()> {
        let s = self.rec.begin(ctx, self.layer, "close", req);
        let r = conn.close(ctx);
        self.rec.end(ctx, s);
        r
    }
}

//! `kv_fanin.emp` / `kv_fanin.tcp`: 32 persistent connections from three
//! client nodes into the repo's key-value server on node 0.
//!
//! Many connections share one NIC and one server loop, so tag-match walk
//! length, readiness/poll cost, NIC-firmware backlog and fairness show up
//! in the tail; reads run beside writes and small values beside large. The
//! `.tcp` twin sends identical traffic through the kernel baseline.
//!
//! 90 % GET / 10 % PUT over 256 keys. Key `k` only ever holds one value
//! (see [`crate::pattern::kv_value`]), so every GET is byte-verifiable
//! whatever order the connections' operations interleave in.

use std::sync::Arc;
use std::time::Instant;

use emp_apps::{kvstore, Conn};
use simnet::{ProcessCtx, Sim, SimAccess, SimResult};

use super::{scaled, warmup, Calls, Params, BASE};
use crate::harness::{Bed, ClientReport, RunRecord, Session, SERVER};
use crate::pattern::{self, KvOp, Rng, KV_KEYS};

// The repo server's wire protocol (`emp_apps::kvstore`): request is op u8,
// key u32 LE, value length u32 LE, then the value for a PUT; response is
// status u8, length u32 LE, then the value for a GET hit.
const OP_GET: u8 = 1;
const OP_PUT: u8 = 2;
const STATUS_OK: u8 = 0;

/// Which testbed carries the traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stack {
    /// `Testbed::emp_default(4)`
    Emp,
    /// `Testbed::kernel_default(4)`
    Kernel,
}

/// Which of the repo's four public kv servers answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// `kvstore::spawn_server`
    PerConn,
    /// `kvstore::spawn_server_event_loop` — what the workloads use.
    EventLoop,
    /// `kvstore::spawn_server_completion`
    Completion,
    /// `kvstore::spawn_server_async`
    Async,
}

/// Encode one request in the repo server's format.
pub fn encode_request(op: KvOp, seed: u64) -> Vec<u8> {
    let (code, key, value) = match op {
        KvOp::Get(k) => (OP_GET, k, Vec::new()),
        KvOp::Put(k) => (OP_PUT, k, pattern::kv_value(seed, k)),
    };
    let mut b = Vec::with_capacity(9 + value.len());
    b.push(code);
    b.extend_from_slice(&key.to_le_bytes());
    b.extend_from_slice(&(value.len() as u32).to_le_bytes());
    b.extend_from_slice(&value);
    b
}

/// Run the workload once.
pub fn run(started: Instant, p: Params, stack: Stack, model: Model) -> RunRecord {
    let conns = BASE.kv_conns as usize;
    let ops = scaled(BASE.kv_ops_per_conn, p.divisor, 10);
    let bed = match stack {
        Stack::Emp => Bed::emp_default(4),
        Stack::Kernel => Bed::kernel_default(4),
    };
    let session = Session::new(started, bed, p.seed, p.traced, conns, conns);
    let sim = Sim::new();
    let tb = session.bed.testbed();
    match model {
        Model::PerConn => kvstore::spawn_server(&sim, tb, SERVER, conns as u32),
        Model::EventLoop => kvstore::spawn_server_event_loop(&sim, tb, SERVER, conns as u32),
        Model::Completion => kvstore::spawn_server_completion(&sim, tb, SERVER, conns as u32),
        Model::Async => kvstore::spawn_server_async(&sim, tb, SERVER, conns as u32),
    }
    for c in 0..conns {
        spawn_client(&sim, &session, c, conns, ops);
    }
    session.finish(&sim)
}

fn spawn_client(sim: &Sim, session: &Arc<Session>, c: usize, conns: usize, ops: u64) {
    let s = Arc::clone(session);
    sim.spawn(format!("kv-client-{c}"), move |ctx| {
        let clients = s.bed.apis.len() - 1;
        let api = Arc::clone(&s.bed.apis[1 + c % clients]);
        let server = s.bed.apis[SERVER].local_host();
        let mut calls = Calls::new(&s);
        // Request ids are unique across connections: connection in the high
        // half, operation index in the low half.
        let req_base = (c as u64) << 32;
        let connected = calls.connect(ctx, api.as_ref(), server, kvstore::KV_PORT, req_base)?;
        let Some(conn) = s.setup(&format!("connection {c}: connect"), connected) else {
            return Ok(());
        };
        // Preload this connection's share of the keys, so that once every
        // connection has, every key holds its value and no GET can miss.
        let mut n = 0u64;
        for key in (0..KV_KEYS).filter(|k| *k as usize % conns == c) {
            if op(ctx, &s, &mut calls, &conn, KvOp::Put(key), req_base | n)?.is_none() {
                return Ok(());
            }
            n += 1;
        }
        s.preloaded.arrive(ctx, || {})?;
        let mut rng = Rng::new(s.seed, c as u64);
        for _ in 0..warmup(ops) {
            if op(
                ctx,
                &s,
                &mut calls,
                &conn,
                pattern::kv_draw(&mut rng),
                req_base | n,
            )?
            .is_none()
            {
                return Ok(());
            }
            n += 1;
        }
        s.open_window(ctx)?;
        let mut report = ClientReport::default();
        report.samples_ns.reserve(ops as usize);
        for _ in 0..ops {
            report.attempted += 1;
            match op(
                ctx,
                &s,
                &mut calls,
                &conn,
                pattern::kv_draw(&mut rng),
                req_base | n,
            )? {
                Some((ns, bytes)) => {
                    report.samples_ns.push(ns);
                    report.verified_bytes += bytes;
                }
                None => {
                    report.failed += 1;
                    break;
                }
            }
            n += 1;
        }
        report.write_calls = calls.write_calls;
        report.conn_stats = conn.substrate_stats().unwrap_or_default();
        s.client_done(ctx, report);
        calls.close(ctx, &conn, req_base | n)?;
        Ok(())
    });
}

/// One verified operation: `(sim nanoseconds, value bytes verified)`, or
/// `None` (after recording why) on any failure.
fn op(
    ctx: &ProcessCtx,
    s: &Arc<Session>,
    calls: &mut Calls,
    conn: &Conn,
    what: KvOp,
    req: u64,
) -> SimResult<Option<(u64, u64)>> {
    let request = encode_request(what, s.seed);
    let t0 = ctx.now();
    let span = calls.op_begin(
        ctx,
        match what {
            KvOp::Get(_) => "kv.get",
            KvOp::Put(_) => "kv.put",
        },
        req,
    );
    let outcome = exchange(ctx, s, calls, conn, what, &request, req)?;
    calls.op_end(ctx, span);
    let ns = ctx.now().since(t0).nanos();
    match outcome {
        Ok(bytes) => Ok(Some((ns, bytes))),
        Err(why) => {
            s.fail(format!("request {req:#x} ({what:?}): {why}"));
            Ok(None)
        }
    }
}

fn exchange(
    ctx: &ProcessCtx,
    s: &Arc<Session>,
    calls: &mut Calls,
    conn: &Conn,
    what: KvOp,
    request: &[u8],
    req: u64,
) -> SimResult<Result<u64, String>> {
    if let Err(e) = calls.write(ctx, conn, request, req)? {
        return Ok(Err(format!("write: {e}")));
    }
    let hdr = match calls.read_exact(ctx, conn, 5, req)? {
        Ok(Some(h)) => h,
        Ok(None) => return Ok(Err("EOF instead of a response".into())),
        Err(e) => return Ok(Err(format!("read: {e}"))),
    };
    let len = u32::from_le_bytes(hdr[1..5].try_into().expect("4 bytes")) as usize;
    if hdr[0] != STATUS_OK {
        return Ok(Err(format!("status {}", hdr[0])));
    }
    match what {
        KvOp::Put(key) => {
            if len != 0 {
                return Ok(Err(format!("PUT response carries {len} bytes")));
            }
            Ok(Ok(pattern::kv_value_len(key) as u64))
        }
        KvOp::Get(key) => {
            let want = pattern::kv_value(s.seed, key);
            if len != want.len() {
                return Ok(Err(format!("value length {len}, expected {}", want.len())));
            }
            match calls.read_exact(ctx, conn, len, req)? {
                Ok(Some(body)) if body[..] == want[..] => Ok(Ok(len as u64)),
                Ok(Some(_)) => Ok(Err("value bytes differ".into())),
                Ok(None) => Ok(Err("EOF inside a value".into())),
                Err(e) => Ok(Err(format!("read: {e}"))),
            }
        }
    }
}

//! `http_churn.emp`: three clients, one per node, each opening a fresh
//! connection per request — connect, 16 B request, 4 KiB reply, close —
//! against an accept-and-spawn-worker server (the paper's Figure 15 shape).
//!
//! Connection management (§5.1 descriptor pre-post, the connect message,
//! close and clean-up) does most of the work; the data path does little.

use std::sync::Arc;
use std::time::Instant;

use simnet::{ProcessCtx, Sim, SimAccess, SimResult};

use super::{scaled, warmup, Calls, Params, BASE};
use crate::harness::{Bed, ClientReport, RunRecord, Session, SERVER};
use crate::pattern;

const PORT: u16 = 80;
const REQUEST: usize = 16;
const REPLY: usize = 4096;
const BACKLOG: usize = 16;

/// The request of client `client`'s `iter`-th connection: who is asking,
/// then eight pattern bytes the server checks.
pub fn request(seed: u64, client: u32, iter: u32) -> Vec<u8> {
    let mut r = Vec::with_capacity(REQUEST);
    r.extend_from_slice(&client.to_le_bytes());
    r.extend_from_slice(&iter.to_le_bytes());
    r.extend_from_slice(&pattern::bytes(
        seed,
        0x6874_0000 | u64::from(client),
        u64::from(iter) * 8,
        8,
    ));
    r
}

/// The reply that request must get.
pub fn reply(seed: u64, client: u32, iter: u32) -> Vec<u8> {
    pattern::bytes(
        seed,
        0x6874_1000 | u64::from(client),
        u64::from(iter) * REPLY as u64,
        REPLY,
    )
}

/// Run the workload once.
pub fn run(started: Instant, p: Params) -> RunRecord {
    let clients = BASE.http_clients as usize;
    let conns = scaled(BASE.http_conns_per_client, p.divisor, 10);
    let warm = warmup(conns);
    let bed = Bed::emp_default(clients + 1);
    let session = Session::new(started, bed, p.seed, p.traced, clients, clients);
    let sim = Sim::new();
    spawn_server(&sim, &session, clients as u64 * (warm + conns));
    for c in 0..clients {
        spawn_client(&sim, &session, c as u32, warm, conns);
    }
    session.finish(&sim)
}

fn spawn_server(sim: &Sim, session: &Arc<Session>, expected: u64) {
    let s = Arc::clone(session);
    sim.spawn("http-server", move |ctx| {
        let api = Arc::clone(&s.bed.apis[SERVER]);
        let mut calls = Calls::new(&s);
        let Some(l) = s.setup("listen", api.listen(ctx, PORT, BACKLOG)?) else {
            return Ok(());
        };
        for n in 0..expected {
            let conn = match calls.accept(ctx, l.as_ref(), n)? {
                Ok(c) => c,
                Err(e) => {
                    s.fail(format!("accept {n}: {e}"));
                    break;
                }
            };
            let s = Arc::clone(&s);
            ctx.spawn("http-worker", move |ctx| serve(ctx, &s, &conn));
        }
        l.close(ctx)?;
        Ok(())
    });
}

fn serve(ctx: &ProcessCtx, s: &Arc<Session>, conn: &emp_apps::Conn) -> SimResult<()> {
    let mut calls = Calls::new(s);
    // The request names its client and iteration; until it is read the
    // spans carry no request id.
    let req = match calls.read_exact(ctx, conn, REQUEST, 0)? {
        Ok(Some(r)) => r,
        Ok(None) => {
            s.fail("worker: EOF instead of a request");
            return conn.close(ctx);
        }
        Err(e) => {
            s.fail(format!("worker read: {e}"));
            return conn.close(ctx);
        }
    };
    let client = u32::from_le_bytes(req[0..4].try_into().expect("4 bytes"));
    let iter = u32::from_le_bytes(req[4..8].try_into().expect("4 bytes"));
    let id = req_id(client, iter);
    if req[..] != request(s.seed, client, iter)[..] {
        s.fail(format!("worker: request {id:#x} bytes differ"));
    }
    if calls
        .write(ctx, conn, &reply(s.seed, client, iter), id)?
        .is_err()
    {
        s.fail(format!("worker: reply {id:#x} failed"));
    }
    // The client closes first (HTTP/1.0 client reads to its content length,
    // then hangs up); wait for that so the close order is the same always.
    match calls.read(ctx, conn, 1, id)? {
        Ok(b) if b.is_empty() => {}
        Ok(_) => s.fail(format!("worker: bytes after request {id:#x}")),
        Err(_) => {} // a reset at hang-up is the peer's close, seen late
    }
    s.server_conn_done(calls.write_calls, conn.substrate_stats());
    calls.close(ctx, conn, id)
}

fn req_id(client: u32, iter: u32) -> u64 {
    u64::from(client) << 32 | u64::from(iter)
}

fn spawn_client(sim: &Sim, session: &Arc<Session>, client: u32, warm: u64, conns: u64) {
    let s = Arc::clone(session);
    sim.spawn(format!("http-client-{client}"), move |ctx| {
        let mut calls = Calls::new(&s);
        let mut report = ClientReport::default();
        report.samples_ns.reserve(conns as usize);
        for i in 0..warm + conns {
            if i == warm {
                s.open_window(ctx)?;
            }
            let measured = i >= warm;
            report.attempted += u64::from(measured);
            match fetch(ctx, &s, &mut calls, client, i as u32, &mut report)? {
                Some(ns) if measured => {
                    report.samples_ns.push(ns);
                    report.verified_bytes += (REQUEST + REPLY) as u64;
                }
                Some(_) => {}
                None => {
                    report.failed += u64::from(measured);
                    break;
                }
            }
        }
        report.write_calls = calls.write_calls;
        s.client_done(ctx, report);
        Ok(())
    });
}

/// One connect → request → verified reply → close; its sim nanoseconds.
fn fetch(
    ctx: &ProcessCtx,
    s: &Arc<Session>,
    calls: &mut Calls,
    client: u32,
    iter: u32,
    report: &mut ClientReport,
) -> SimResult<Option<u64>> {
    let api = Arc::clone(&s.bed.apis[1 + client as usize]);
    let server = s.bed.apis[SERVER].local_host();
    let id = req_id(client, iter);
    let t0 = ctx.now();
    let span = calls.op_begin(ctx, "http.fetch", id);
    let outcome = match calls.connect(ctx, api.as_ref(), server, PORT, id)? {
        Ok(conn) => {
            let result = exchange(ctx, s, calls, &conn, client, iter)?;
            report.conn_stats += conn.substrate_stats().unwrap_or_default();
            calls.close(ctx, &conn, id)?;
            result
        }
        Err(e) => Err(format!("connect: {e}")),
    };
    calls.op_end(ctx, span);
    let ns = ctx.now().since(t0).nanos();
    match outcome {
        Ok(()) => Ok(Some(ns)),
        Err(why) => {
            s.fail(format!("fetch {id:#x}: {why}"));
            Ok(None)
        }
    }
}

fn exchange(
    ctx: &ProcessCtx,
    s: &Arc<Session>,
    calls: &mut Calls,
    conn: &emp_apps::Conn,
    client: u32,
    iter: u32,
) -> SimResult<Result<(), String>> {
    let id = req_id(client, iter);
    if let Err(e) = calls.write(ctx, conn, &request(s.seed, client, iter), id)? {
        return Ok(Err(format!("write: {e}")));
    }
    Ok(match calls.read_exact(ctx, conn, REPLY, id)? {
        Ok(Some(body)) if body[..] == reply(s.seed, client, iter)[..] => Ok(()),
        Ok(Some(_)) => Err("reply bytes differ".into()),
        Ok(None) => Err("EOF inside the reply".into()),
        Err(e) => Err(format!("read: {e}")),
    })
}

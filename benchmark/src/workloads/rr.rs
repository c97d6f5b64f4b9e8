//! `rr_4b.emp`: one connection, 4 B request / 4 B reply.
//!
//! Latency-bound and idle-pipeline: per-message host, NIC-firmware and wire
//! cost with no copy and no queueing. On the host clock it is dominated by
//! process block/wake, not by events.

use std::sync::Arc;
use std::time::Instant;

use simnet::{ProcessCtx, Sim, SimAccess, SimResult};

use super::{scaled, warmup, Calls, Params, BASE};
use crate::harness::{Bed, ClientReport, RunRecord, Session, SERVER};
use crate::pattern;

const PORT: u16 = 7;
const MSG: usize = 4;
/// Pattern stream of the requests.
const REQ_STREAM: u64 = 0x7272;

/// The reply the echoer must give to `req`: every bit flipped, so a reply
/// is never just the request reflected by some lower layer.
pub fn reply_to(req: &[u8]) -> Vec<u8> {
    req.iter().map(|b| !b).collect()
}

/// Run the workload once.
pub fn run(started: Instant, p: Params) -> RunRecord {
    let ops = scaled(BASE.rr_round_trips, p.divisor, 100);
    let session = Session::new(started, Bed::emp_default(2), p.seed, p.traced, 1, 1);
    let sim = Sim::new();
    spawn_echoer(&sim, &session);
    spawn_pinger(&sim, &session, ops);
    session.finish(&sim)
}

fn spawn_echoer(sim: &Sim, session: &Arc<Session>) {
    let s = Arc::clone(session);
    sim.spawn("rr-echoer", move |ctx| {
        let api = Arc::clone(&s.bed.apis[SERVER]);
        let mut calls = Calls::new(&s);
        let Some(l) = s.setup("listen", api.listen(ctx, PORT, 4)?) else {
            return Ok(());
        };
        let Some(conn) = s.setup("accept", calls.accept(ctx, l.as_ref(), 0)?) else {
            return Ok(());
        };
        let mut req = 0u64;
        loop {
            match calls.read_exact(ctx, &conn, MSG, req)? {
                Ok(Some(m)) => {
                    if calls.write(ctx, &conn, &reply_to(&m), req)?.is_err() {
                        s.fail("echoer write failed");
                        break;
                    }
                }
                Ok(None) => break, // the pinger closed: clean EOF
                Err(e) => {
                    s.fail(format!("echoer read: {e}"));
                    break;
                }
            }
            req += 1;
        }
        s.server_conn_done(calls.write_calls, conn.substrate_stats());
        calls.close(ctx, &conn, req)?;
        l.close(ctx)?;
        Ok(())
    });
}

fn spawn_pinger(sim: &Sim, session: &Arc<Session>, ops: u64) {
    let s = Arc::clone(session);
    sim.spawn("rr-pinger", move |ctx| {
        let api = Arc::clone(&s.bed.apis[1]);
        let server = s.bed.apis[SERVER].local_host();
        let mut calls = Calls::new(&s);
        let Some(conn) = s.setup(
            "connect",
            calls.connect(ctx, api.as_ref(), server, PORT, 0)?,
        ) else {
            return Ok(());
        };
        let warm = warmup(ops);
        let mut report = ClientReport::default();
        for i in 0..warm {
            round_trip(ctx, &s, &mut calls, &conn, i)?;
        }
        s.open_window(ctx)?;
        report.samples_ns.reserve(ops as usize);
        for i in warm..warm + ops {
            report.attempted += 1;
            match round_trip(ctx, &s, &mut calls, &conn, i)? {
                Some(ns) => {
                    report.samples_ns.push(ns);
                    report.verified_bytes += 2 * MSG as u64;
                }
                None => {
                    report.failed += 1;
                    break;
                }
            }
        }
        report.write_calls = calls.write_calls;
        report.conn_stats = conn.substrate_stats().unwrap_or_default();
        s.client_done(ctx, report);
        calls.close(ctx, &conn, warm + ops)?;
        Ok(())
    });
}

/// One verified round trip; its sim nanoseconds, or `None` on any failure.
fn round_trip(
    ctx: &ProcessCtx,
    s: &Arc<Session>,
    calls: &mut Calls,
    conn: &emp_apps::Conn,
    i: u64,
) -> SimResult<Option<u64>> {
    let req = pattern::bytes(s.seed, REQ_STREAM, i * MSG as u64, MSG);
    let t0 = ctx.now();
    let op = calls.op_begin(ctx, "rr.round_trip", i);
    let wrote = calls.write(ctx, conn, &req, i)?;
    let reply = match wrote {
        Ok(_) => calls.read_exact(ctx, conn, MSG, i)?,
        Err(e) => Err(e),
    };
    calls.op_end(ctx, op);
    let ns = ctx.now().since(t0).nanos();
    match reply {
        Ok(Some(m)) if m[..] == reply_to(&req)[..] => Ok(Some(ns)),
        Ok(Some(_)) => {
            s.fail(format!("round trip {i}: wrong reply bytes"));
            Ok(None)
        }
        Ok(None) => {
            s.fail(format!("round trip {i}: EOF instead of a reply"));
            Ok(None)
        }
        Err(e) => {
            s.fail(format!("round trip {i}: {e}"));
            Ok(None)
        }
    }
}

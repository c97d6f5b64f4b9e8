//! The one-way stream workloads: one connection, a source that writes a
//! patterned byte stream and a sink that verifies every byte of it.
//!
//! * `stream_64k.emp` — 64 KiB writes. Bandwidth-bound: copy, DMA, wire and
//!   credit flow control dominate and per-message cost is amortised; on the
//!   host clock it is event-bound with few process switches.
//! * `stream_64b.emp` — 64 B writes. The same write path used the other way:
//!   a busy pipeline where per-message cost and NIC-firmware queueing set
//!   goodput; the one workload where coalescing and copy-policy defaults
//!   can show.
//! * `stream_lossy.emp` — 16 KiB writes over links that drop 1 % of frames
//!   and reorder 2 %: the traffic that leaves the fast path.

use std::sync::Arc;
use std::time::Instant;

use simnet::{FaultPlan, Sim, SimAccess, SimDuration};

use super::{scaled, warmup, Calls, Params, BASE};
use crate::harness::{Bed, ClientReport, RunRecord, Session, SERVER};
use crate::pattern::StreamPattern;

const PORT: u16 = 9;
/// Pattern stream of the payload.
const DATA_STREAM: u64 = 0x7374;

/// Which stream workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `stream_64k.emp`
    Bulk64k,
    /// `stream_64b.emp`
    Small64b,
    /// `stream_lossy.emp`
    Lossy16k,
}

impl Shape {
    fn write_size(self) -> usize {
        match self {
            Shape::Bulk64k => 64 << 10,
            Shape::Small64b => 64,
            Shape::Lossy16k => 16 << 10,
        }
    }

    fn writes(self, divisor: u64) -> u64 {
        let full = match self {
            Shape::Bulk64k => BASE.stream_64k_bytes / self.write_size() as u64,
            Shape::Small64b => BASE.stream_64b_writes,
            Shape::Lossy16k => BASE.stream_lossy_bytes / self.write_size() as u64,
        };
        scaled(full, divisor, 100)
    }

    fn bed(self, seed: u64) -> Bed {
        match self {
            Shape::Lossy16k => Bed::emp_with_faults(2, lossy_plan(seed)),
            _ => Bed::emp_default(2),
        }
    }
}

/// The loss and reorder every link of `stream_lossy.emp` carries.
pub fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_drop_prob(0.01)
        .with_reorder(0.02, SimDuration::from_micros(80))
}

/// Run the workload once.
pub fn run(started: Instant, p: Params, shape: Shape) -> RunRecord {
    let writes = shape.writes(p.divisor);
    let warm = warmup(writes);
    let size = shape.write_size();
    // Source and sink both meet at the window-open barrier and both report.
    let session = Session::new(started, shape.bed(p.seed), p.seed, p.traced, 2, 2);
    let sim = Sim::new();
    let pattern = Arc::new(StreamPattern::new(p.seed, DATA_STREAM));
    spawn_sink(&sim, &session, &pattern, size, warm, writes);
    spawn_source(&sim, &session, &pattern, size, warm, writes);
    session.finish(&sim)
}

fn spawn_sink(
    sim: &Sim,
    session: &Arc<Session>,
    pattern: &Arc<StreamPattern>,
    size: usize,
    warm: u64,
    writes: u64,
) {
    let (s, pat) = (Arc::clone(session), Arc::clone(pattern));
    sim.spawn("stream-sink", move |ctx| {
        let api = Arc::clone(&s.bed.apis[SERVER]);
        let mut calls = Calls::new(&s);
        let Some(l) = s.setup("listen", api.listen(ctx, PORT, 4)?) else {
            return Ok(());
        };
        let Some(conn) = s.setup("accept", calls.accept(ctx, l.as_ref(), 0)?) else {
            return Ok(());
        };
        let warm_bytes = warm * size as u64;
        let total = (warm + writes) * size as u64;
        let mut got = 0u64;
        let mut report = ClientReport::default();
        let mut opened = false;
        while got < total {
            if !opened && got == warm_bytes {
                s.open_window(ctx)?;
                opened = true;
            }
            // Never read across the warm-up boundary, so the window opens
            // on an empty pipe.
            let limit = if opened { total } else { warm_bytes };
            let max = size.min((limit - got) as usize);
            let chunk = match calls.read(ctx, &conn, max, got / size as u64)? {
                Ok(c) => c,
                Err(e) => {
                    s.fail(format!("sink read at byte {got}: {e}"));
                    break;
                }
            };
            if chunk.is_empty() {
                s.fail(format!("EOF at byte {got}, expected {total}"));
                break;
            }
            if !pat.matches(got, &chunk) {
                s.fail(format!(
                    "stream bytes differ in {got}..{}",
                    got + chunk.len() as u64
                ));
                report.failed += 1;
                break;
            }
            got += chunk.len() as u64;
            if opened {
                report.verified_bytes += chunk.len() as u64;
            }
        }
        report.conn_stats = conn.substrate_stats().unwrap_or_default();
        s.client_done(ctx, report);
        if got == total {
            // Exact EOF: the source closes after its last byte, so the next
            // read must report end of stream and nothing else.
            match calls.read(ctx, &conn, size, u64::MAX)? {
                Ok(c) if c.is_empty() => {}
                Ok(c) => s.fail(format!("{} bytes after the end of the stream", c.len())),
                Err(e) => s.fail(format!("sink read at EOF: {e}")),
            }
        }
        calls.close(ctx, &conn, u64::MAX)?;
        l.close(ctx)?;
        Ok(())
    });
}

fn spawn_source(
    sim: &Sim,
    session: &Arc<Session>,
    pattern: &Arc<StreamPattern>,
    size: usize,
    warm: u64,
    writes: u64,
) {
    let (s, pat) = (Arc::clone(session), Arc::clone(pattern));
    sim.spawn("stream-source", move |ctx| {
        let api = Arc::clone(&s.bed.apis[1]);
        let server = s.bed.apis[SERVER].local_host();
        let mut calls = Calls::new(&s);
        let Some(conn) = s.setup(
            "connect",
            calls.connect(ctx, api.as_ref(), server, PORT, 0)?,
        ) else {
            return Ok(());
        };
        let mut report = ClientReport::default();
        report.samples_ns.reserve(writes as usize);
        for i in 0..warm + writes {
            if i == warm {
                if conn.flush(ctx)?.is_err() {
                    s.fail("flush after warm-up failed");
                }
                s.open_window(ctx)?;
            }
            let measured = i >= warm;
            let t0 = ctx.now();
            let op = calls.op_begin(ctx, "stream.write", i);
            let r = calls.write(ctx, &conn, pat.at(i * size as u64, size), i)?;
            calls.op_end(ctx, op);
            if measured {
                report.attempted += 1;
            }
            match r {
                Ok(n) if n == size => {
                    if measured {
                        report.samples_ns.push(ctx.now().since(t0).nanos());
                    }
                }
                Ok(n) => {
                    s.fail(format!("write {i}: short count {n} of {size}"));
                    report.failed += u64::from(measured);
                    break;
                }
                Err(e) => {
                    s.fail(format!("write {i}: {e}"));
                    report.failed += u64::from(measured);
                    break;
                }
            }
        }
        if conn.flush(ctx)?.is_err() {
            s.fail("final flush failed");
        }
        report.write_calls = calls.write_calls;
        report.conn_stats = conn.substrate_stats().unwrap_or_default();
        s.client_done(ctx, report);
        calls.close(ctx, &conn, warm + writes)?;
        Ok(())
    });
}

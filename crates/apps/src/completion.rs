//! A single-process completion-model server skeleton over the facade's
//! completion ring ([`crate::api::ring`]).
//!
//! The readiness twin of this skeleton ([`crate::eventloop`]) asks the
//! stack *when* I/O would succeed and then performs it; this one submits
//! the I/O itself — `Accept`/`Read`/`Write`/`Close` ops on a
//! submission queue over registered buffers — and consumes completions
//! in batches. It takes the same `service(inbuf, out)` framing callback
//! as every other model, and [`crate::serve()`] runs it as
//! [`crate::ServerModel::Completion`], so the server models answer the
//! same protocol byte-for-byte and differ only in their I/O model.
//!
//! The discipline mirrors the event loop's: per connection at most one
//! op is in flight — a `Read` while idle, `Write`s while a response is
//! being pushed (the client is waiting on us; reading more requests
//! would only buffer them), then back to a `Read`. That caps the ring
//! footprint at one registered buffer per live connection plus the
//! armed `Accept`.

use std::collections::HashMap;

use simnet::{ProcessCtx, SimAccess, SimResult};

use crate::api::{
    ring, CqeResult, NetApi, NetListener, Ring, RingConfig, RingCounters, RingOp, Sqe,
};
use crate::serve::READ_CHUNK;

/// What one completion-model serve produced, for assertions and reports.
pub struct CompletionRun {
    /// Ring op accounting (pushed == completed == reaped at exit).
    pub counters: RingCounters,
    /// Aggregate EMP substrate counters of every served connection
    /// (`None` on the kernel stack). On the substrate,
    /// `copies_avoided > 0` here is the evidence that ring reads ride
    /// the direct-delivery path.
    pub substrate_stats: Option<sockets_emp::ConnStats>,
}

/// Ring geometry sized for `n_conns` concurrent connections under the
/// one-op-per-connection discipline: a buffer per connection plus slack,
/// completion room for every possible in-flight op. A registered buffer
/// holds one [`READ_CHUNK`] — the read granularity and write chunk.
pub fn ring_config(n_conns: u32) -> RingConfig {
    let n = n_conns as usize;
    RingConfig {
        sq_depth: n + 8,
        cq_depth: 2 * n + 16,
        buf_count: n + 4,
        buf_size: READ_CHUNK,
        max_registered_bytes: None,
    }
}

/// Per-connection state (`conn` ids live in the ring).
struct CState {
    /// Bytes received but not yet consumed by the service.
    inbuf: Vec<u8>,
    /// Bytes produced by the service but not yet accepted by the stack.
    out: Vec<u8>,
    /// How much of `out` the stack has taken.
    sent: usize,
    /// The registered buffer the in-flight op holds, returned to the
    /// free list when its completion is reaped.
    cur_buf: Option<u32>,
    /// A `Close` op has been pushed; ignore further failures.
    closing: bool,
}

/// Op kinds encoded in the `user_data` tag (high 32 bits; the low 32
/// hold the connection id).
const UD_ACCEPT: u64 = 0;
const UD_READ: u64 = 1;
const UD_WRITE: u64 = 2;
const UD_CLOSE: u64 = 3;

fn ud(kind: u64, conn: u32) -> u64 {
    (kind << 32) | u64::from(conn)
}

fn ud_conn(user_data: u64) -> u32 {
    user_data as u32
}

fn ud_kind(user_data: u64) -> u64 {
    user_data >> 32
}

/// Accept `n_conns` connections from `l` and serve them all through one
/// completion ring: ops in, completions out, no readiness callbacks.
/// Each accepted connection is greeted with `greeting` (empty for
/// none); thereafter `service(inbuf, out)` runs whenever bytes arrive —
/// it consumes any complete requests from `inbuf` and appends the
/// responses to `out`, leaving partial requests in place. Returns when
/// every connection has reached EOF (its `Close{final_seq}` completion)
/// and been retired by a `Close` op.
pub fn serve_completion(
    ctx: &ProcessCtx,
    api: &dyn NetApi,
    l: Box<dyn NetListener>,
    n_conns: u32,
    greeting: &[u8],
    mut service: impl FnMut(&mut Vec<u8>, &mut Vec<u8>),
) -> SimResult<CompletionRun> {
    let cfg = ring_config(n_conns);
    let label = format!("srv-n{}", api.local_host().0);
    let mut ring = ring(api, cfg, label);
    let listener = ring.add_listener(l);
    let mut free_bufs: Vec<u32> = (0..cfg.buf_count as u32).rev().collect();
    let mut conns: HashMap<u32, CState> = HashMap::new();
    let mut accepted = 0u32;
    let mut open = 0u32;
    // Time spent turning each completion batch into new submissions —
    // the completion model's per-turn latency distribution.
    let turn_hist = ctx.telemetry().histogram("app.completion_turn_ns");

    if n_conns == 0 {
        let counters = ring.counters();
        let substrate_stats = ring.driver().substrate_stats();
        ring.shutdown(ctx)?;
        return Ok(CompletionRun {
            counters,
            substrate_stats,
        });
    }
    // Arm the first accept; re-armed from each Accepted completion.
    ring.push(Sqe::new(ud(UD_ACCEPT, 0), RingOp::Accept { listener }))
        .expect("fresh ring has room");

    while accepted < n_conns || open > 0 {
        ring.submit_and_wait(ctx, 1)?
            .expect("server ring never stalls");
        let batch = ring.reap(cfg.cq_depth);
        let turn_start = ctx.now();
        for cqe in batch {
            let conn = ud_conn(cqe.user_data);
            // The completed op's buffer (if any) is application-owned
            // again as of this reap.
            if ud_kind(cqe.user_data) != UD_ACCEPT {
                if let Some(st) = conns.get_mut(&conn) {
                    if let Some(b) = st.cur_buf.take() {
                        free_bufs.push(b);
                    }
                }
            }
            match cqe.result {
                CqeResult::Accepted { conn } => {
                    accepted += 1;
                    open += 1;
                    if accepted < n_conns {
                        ring.push(Sqe::new(ud(UD_ACCEPT, 0), RingOp::Accept { listener }))
                            .expect("sq sized for the accept");
                    }
                    let mut st = CState {
                        inbuf: Vec::new(),
                        out: greeting.to_vec(),
                        sent: 0,
                        cur_buf: None,
                        closing: false,
                    };
                    next_op(&mut ring, &mut st, conn, &mut free_bufs);
                    conns.insert(conn, st);
                }
                CqeResult::Read { buf, len } => {
                    let chunk = ring.buf(buf).expect("registered")[..len as usize].to_vec();
                    let st = conns.get_mut(&conn).expect("live conn");
                    st.inbuf.extend_from_slice(&chunk);
                    service(&mut st.inbuf, &mut st.out);
                    next_op(&mut ring, st, conn, &mut free_bufs);
                }
                CqeResult::Wrote { len, .. } => {
                    let st = conns.get_mut(&conn).expect("live conn");
                    st.sent += len as usize;
                    if st.sent == st.out.len() {
                        st.out.clear();
                        st.sent = 0;
                    }
                    next_op(&mut ring, st, conn, &mut free_bufs);
                }
                CqeResult::Close { conn, .. } => {
                    // EOF: the peer is done sending; retire the conn.
                    let st = conns.get_mut(&conn).expect("live conn");
                    st.closing = true;
                    ring.push(Sqe::new(ud(UD_CLOSE, conn), RingOp::Close { conn }))
                        .expect("sq sized for the close");
                }
                CqeResult::Closed { conn } => {
                    conns.remove(&conn);
                    open -= 1;
                }
                CqeResult::Failed { .. } => {
                    // A failed op (peer reset mid-exchange) tears the
                    // connection down like the event loop's error path.
                    if let Some(st) = conns.get_mut(&conn) {
                        if !st.closing {
                            st.closing = true;
                            ring.push(Sqe::new(ud(UD_CLOSE, conn), RingOp::Close { conn }))
                                .expect("sq sized for the close");
                        }
                    }
                }
            }
        }
        turn_hist.record((ctx.now() - turn_start).nanos());
    }

    let counters = ring.counters();
    let substrate_stats = ring.driver().substrate_stats();
    ring.shutdown(ctx)?;
    debug_assert_eq!(ring.free_bufs(), cfg.buf_count, "ring leaked buffers");
    Ok(CompletionRun {
        counters,
        substrate_stats,
    })
}

/// Post the connection's next op under the one-op-in-flight discipline:
/// the next `Write` chunk while a response is pending, a `Read`
/// otherwise. No-op while closing.
fn next_op(ring: &mut Ring<'_>, st: &mut CState, conn: u32, free_bufs: &mut Vec<u32>) {
    if st.closing {
        return;
    }
    let buf = free_bufs.pop().expect("pool sized one buffer per conn");
    if st.sent < st.out.len() {
        let chunk = (st.out.len() - st.sent).min(READ_CHUNK);
        ring.fill(buf, &st.out[st.sent..st.sent + chunk])
            .expect("buffer off the free list");
        ring.push(Sqe::new(
            ud(UD_WRITE, conn),
            RingOp::Write {
                conn,
                buf,
                len: chunk as u32,
            },
        ))
        .expect("sq sized one op per conn");
    } else {
        ring.push(Sqe::new(ud(UD_READ, conn), RingOp::Read { conn, buf }))
            .expect("sq sized one op per conn");
    }
    st.cur_buf = Some(buf);
}

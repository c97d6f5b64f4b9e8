//! A single-process event-loop server skeleton over [`NetApi::poll`].
//!
//! The readiness-first shape of the paper's substrate (one descriptor
//! table, one poll wait) makes the classic single-process server — one
//! `poll()` over the listener and every live connection, nonblocking
//! reads and writes in between — expressible without threads or helper
//! processes. This module is that skeleton: applications supply only the
//! request framing (bytes in → bytes out) and get accept, flow-controlled
//! writes, EOF, and error teardown for free. [`crate::serve()`] runs it
//! as [`crate::ServerModel::EventLoop`]; the overload policy is this
//! model's alone.

use simnet::{ProcessCtx, SimAccess, SimDuration, SimResult, SimTime};

use crate::api::{Conn, Interest, NetApi, NetError, NetListener, PollSource, PollTarget};
use crate::serve::READ_CHUNK;

/// Per-connection state of the event loop.
struct ConnState {
    conn: Conn,
    /// Bytes received but not yet consumed by the service.
    inbuf: Vec<u8>,
    /// Bytes produced by the service but not yet accepted by the stack.
    out: Vec<u8>,
    /// How much of `out` the stack has taken.
    sent: usize,
    /// When this connection last made progress (bytes in or out) — the
    /// idle reaper's clock.
    last_activity: SimTime,
}

/// Overload policy for [`serve_event_loop_with`]: how the server degrades
/// gracefully instead of queueing without bound. All knobs default off
/// ([`OverloadPolicy::default`] = the unprotected loop).
#[derive(Clone, Debug, Default)]
pub struct OverloadPolicy {
    /// Shed new connections while this many are already being served:
    /// the connection is accepted, answered with [`Self::shed_response`]
    /// (so the client sees a *deterministic* degrade, not silence), and
    /// closed. Counted in the `app.shed` telemetry counter.
    pub max_conns: Option<usize>,
    /// Shed a connection whose pending response bytes exceed this cap —
    /// the slow-consumer guard. Counted in `app.shed`.
    pub max_queued_bytes: Option<usize>,
    /// Bytes written to a shed connection before closing it (empty =
    /// close silently). An HTTP server would put `503` here.
    pub shed_response: Vec<u8>,
    /// Reap connections that made no progress for this long (the
    /// slowloris guard). Counted in `app.reaped`.
    pub idle_timeout: Option<SimDuration>,
}

/// What [`serve_event_loop_with`] did under pressure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections served to EOF normally.
    pub served: u32,
    /// Connections shed at accept (max_conns) or mid-stream (queue cap).
    pub shed: u32,
    /// Connections reaped for idleness.
    pub reaped: u32,
}

/// Accept `n_conns` connections from `l` and serve them all from the
/// calling process: one [`NetApi::poll`] wait over the listener and every
/// live connection, nonblocking calls everywhere else. Each accepted
/// connection is greeted with `greeting` (empty for none); thereafter
/// `service(inbuf, out)` runs whenever bytes arrive — it consumes any
/// complete requests from `inbuf` and appends the responses to `out`,
/// leaving partial requests in place. Returns when every connection has
/// reached EOF (or errored) and been torn down.
///
/// While a response is pending the loop polls the connection for
/// [`Interest::WRITABLE`] only (the stack's flow control — credits on the
/// substrate, the send buffer on TCP — decides when more is accepted);
/// otherwise it polls for [`Interest::READABLE`].
///
/// `policy` is how the loop degrades instead of queueing without bound
/// ([`OverloadPolicy::default`] = unprotected, what [`crate::serve()`]
/// passes): it sheds connections past `max_conns` (degrade response, then
/// close), sheds slow consumers whose pending output exceeds
/// `max_queued_bytes`, and reaps connections idle past `idle_timeout`.
/// Shed and reaped connections count toward `n_conns` — under a connect
/// storm the server answers everyone *deterministically*, it just answers
/// most of them with the degrade response.
pub fn serve_event_loop_with(
    ctx: &ProcessCtx,
    api: &dyn NetApi,
    l: &dyn NetListener,
    n_conns: u32,
    greeting: &[u8],
    policy: &OverloadPolicy,
    mut service: impl FnMut(&mut Vec<u8>, &mut Vec<u8>),
) -> SimResult<ServeReport> {
    const LISTENER: usize = usize::MAX;

    let mut conns: Vec<Option<ConnState>> = Vec::new();
    let mut accepted = 0u32;
    let mut open = 0u32;
    let mut report = ServeReport::default();
    let shed_ctr = ctx.telemetry().counter("app.shed");
    let reaped_ctr = ctx.telemetry().counter("app.reaped");
    // Time spent handling each batch of readiness events (poll return to
    // loop bottom) — the server's per-turn latency distribution.
    let turn_hist = ctx.telemetry().histogram("app.eventloop_turn_ns");
    while accepted < n_conns || open > 0 {
        let events = {
            let mut sources = Vec::new();
            if accepted < n_conns {
                sources.push(PollSource {
                    target: PollTarget::Listener(l),
                    token: LISTENER,
                    interest: Interest::ACCEPTABLE,
                });
            }
            for (i, slot) in conns.iter().enumerate() {
                if let Some(st) = slot {
                    let interest = if st.sent < st.out.len() {
                        Interest::WRITABLE
                    } else {
                        Interest::READABLE
                    };
                    sources.push(PollSource {
                        target: PollTarget::Conn(&st.conn),
                        token: i,
                        interest,
                    });
                }
            }
            // With a reaper armed the poll must wake even when no socket
            // does — an all-idle connection set would otherwise park the
            // loop forever.
            api.poll(ctx, &sources, policy.idle_timeout)?.expect("poll")
        };
        let turn_start = ctx.now();
        for ev in events {
            if ev.token == LISTENER {
                // Drain the whole accept queue while we are here.
                while accepted < n_conns {
                    match l.try_accept(ctx)? {
                        Ok(conn) => {
                            accepted += 1;
                            if policy.max_conns.is_some_and(|m| (open as usize) >= m) {
                                // Over budget: degrade response, close.
                                let _ = conn.try_write(ctx, &policy.shed_response)?;
                                let _ = conn.flush(ctx)?;
                                let _ = conn.close(ctx);
                                report.shed += 1;
                                shed_ctr.add(1);
                                continue;
                            }
                            open += 1;
                            conns.push(Some(ConnState {
                                conn,
                                inbuf: Vec::new(),
                                out: greeting.to_vec(),
                                sent: 0,
                                last_activity: ctx.now(),
                            }));
                        }
                        Err(NetError::WouldBlock) => break,
                        Err(e) => panic!("event-loop accept failed: {e}"),
                    }
                }
                continue;
            }
            let Some(st) = conns[ev.token].as_mut() else {
                continue;
            };
            let mut dead = false;
            let before = (st.sent, st.inbuf.len());
            // Flush pending output first; while a response is in flight
            // the loop does not read (the client is waiting on us).
            flush(ctx, st, &mut dead)?;
            while !dead && st.out.is_empty() {
                match st.conn.try_read(ctx, READ_CHUNK)? {
                    Ok(chunk) if chunk.is_empty() => dead = true, // EOF
                    Ok(chunk) => {
                        st.inbuf.extend_from_slice(&chunk);
                        service(&mut st.inbuf, &mut st.out);
                    }
                    Err(NetError::WouldBlock) => break,
                    Err(_) => dead = true,
                }
            }
            // Opportunistically push what the service just produced.
            flush(ctx, st, &mut dead)?;
            if (st.sent, st.inbuf.len()) != before || !st.out.is_empty() {
                st.last_activity = ctx.now();
            }
            let over_queue = policy
                .max_queued_bytes
                .is_some_and(|cap| st.out.len() - st.sent > cap);
            if dead || over_queue {
                let st = conns[ev.token].take().expect("live state");
                let _ = st.conn.close(ctx);
                open -= 1;
                if over_queue && !dead {
                    report.shed += 1;
                    shed_ctr.add(1);
                } else {
                    report.served += 1;
                }
            }
        }
        if let Some(patience) = policy.idle_timeout {
            for slot in conns.iter_mut() {
                let idle = slot
                    .as_ref()
                    .is_some_and(|st| ctx.now().since(st.last_activity) >= patience);
                if idle {
                    let st = slot.take().expect("live state");
                    let _ = st.conn.close(ctx);
                    open -= 1;
                    report.reaped += 1;
                    reaped_ctr.add(1);
                }
            }
        }
        turn_hist.record((ctx.now() - turn_start).nanos());
    }
    Ok(report)
}

/// Write as much pending output as the stack will take right now.
fn flush(ctx: &ProcessCtx, st: &mut ConnState, dead: &mut bool) -> SimResult<()> {
    while !*dead && st.sent < st.out.len() {
        match st.conn.try_write(ctx, &st.out[st.sent..])? {
            Ok(n) => st.sent += n,
            Err(NetError::WouldBlock) => break,
            Err(_) => *dead = true,
        }
    }
    if st.sent == st.out.len() {
        st.out.clear();
        st.sent = 0;
        // The response is fully handed to the stack: push out anything it
        // staged for aggregation before going back to the poll (the
        // client is waiting on these bytes).
        if !*dead && st.conn.flush(ctx)?.is_err() {
            *dead = true;
        }
    }
    Ok(())
}

//! Overload chaos harness: connect storms and slowloris against a
//! shedding server, on either stack.
//!
//! The robustness claim (`DESIGN.md` §15) is not that the substrate is
//! fast — it is that *under offered load past saturation the system
//! degrades deterministically instead of collapsing*: every connection
//! attempt ends in exactly one typed outcome (served, degraded, refused,
//! timed out), goodput stays near its saturated peak, and nothing leaks.
//! This module is the workload that demonstrates it, written once
//! against the [`crate::NetApi`] facade so both stacks face the identical
//! storm.
//!
//! The server is a bounded-everything event loop: bounded accept
//! backlog (stack-level admission control refuses the overflow),
//! bounded concurrency (`max_conns` — the overflow is *answered* with a
//! degrade response, then closed), and an idle reaper (the slowloris
//! guard). Clients connect under a deadline and read under a deadline,
//! so no outcome is ever "hung".

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{Interest, ProcessCtx, Sim, SimAccess, SimDuration, SimResult, SimTime};

use crate::api::{Api, Conn, NetError, PollSource, PollTarget};
use crate::testbed::Testbed;

/// The storm server's port (within the substrate's tag-space limit).
pub const STORM_PORT: u16 = 999;
/// Fixed request size (a "file name", as in the web server).
pub const REQUEST_SIZE: usize = 16;
/// The degrade response a shed connection is answered with before the
/// close — the client sees a deterministic "server busy", not silence.
pub const BUSY: &[u8] = b"BUSY";

/// The `j`-th byte of a full response; starts with 1, never `b'B'` at
/// offset 0, so a degrade response is distinguishable from byte one.
pub fn response_byte(j: usize) -> u8 {
    ((j * 7 + 1) % 251) as u8
}

/// One storm's shape.
#[derive(Clone, Debug)]
pub struct StormConfig {
    /// Connection attempts (spread round-robin over the client nodes).
    pub clients: u32,
    /// Extra connections that go silent after connecting — the
    /// slowloris component. The server's idle reaper must remove them.
    pub slowloris: u32,
    /// Inter-arrival gap between consecutive connection attempts: the
    /// offered-load knob (smaller = harder storm).
    pub stagger: SimDuration,
    /// Server listen backlog — the stack-level admission bound; SYNs or
    /// connection requests past it are *refused*, typed.
    pub backlog: usize,
    /// Server concurrency bound — accepted connections past it are
    /// answered with [`BUSY`] and closed (application-level shedding).
    pub max_conns: usize,
    /// Client-side connect deadline.
    pub connect_deadline: SimDuration,
    /// Client-side budget for the full request/response exchange.
    pub response_deadline: SimDuration,
    /// Full-response size in bytes.
    pub response_size: usize,
    /// Server-side idle patience before reaping a silent connection.
    pub idle_timeout: SimDuration,
    /// Kernel-only stack-level connection cap on the server node
    /// ([`kernel_tcp::TcpStack::set_max_conns`]): SYNs past it are
    /// refused with RST. The substrate's equivalent admission bound is
    /// the listen backlog (connection requests past the posted
    /// descriptors are NACKed), so it needs no extra knob here.
    pub kernel_stack_cap: Option<usize>,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            clients: 48,
            slowloris: 0,
            stagger: SimDuration::from_micros(20),
            backlog: 6,
            max_conns: 6,
            connect_deadline: SimDuration::from_millis(20),
            response_deadline: SimDuration::from_millis(50),
            response_size: 4096,
            idle_timeout: SimDuration::from_millis(5),
            kernel_stack_cap: Some(10),
        }
    }
}

/// Every attempt's fate, tallied. The invariant the tests gate on:
/// `served + degraded + refused + timed_out + errored` accounts for
/// every storm client — no attempt vanishes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Full byte-verified response received.
    pub served: u32,
    /// Deterministic degrade: [`BUSY`], early EOF, or peer close.
    pub degraded: u32,
    /// Connect positively refused (backlog/budget admission control).
    pub refused: u32,
    /// Connect or exchange deadline expired.
    pub timed_out: u32,
    /// Local resource budget hit ([`NetError::Exhausted`]).
    pub exhausted: u32,
    /// Anything else (should stay zero).
    pub errored: u32,
}

/// What one storm produced.
#[derive(Clone, Debug, Default)]
pub struct OverloadReport {
    /// Client-side fates (storm clients only, not slowloris).
    pub outcomes: Outcomes,
    /// Server-side sheds (accept-overflow answers).
    pub shed: u32,
    /// Server-side idle reaps (slowloris victims).
    pub reaped: u32,
    /// Bytes of *full* responses delivered and verified.
    pub goodput_bytes: u64,
    /// The serving window: first connect attempt to last *served*
    /// response, in µs. Deliberately excludes the post-storm tail where
    /// refused/timed-out clients sit out their deadlines — goodput
    /// measures what the server delivered while it was delivering.
    pub elapsed_us: f64,
    /// p99 client latency (connect → verified response) over served
    /// requests, in µs; 0 when nothing was served.
    pub p99_us: f64,
    /// Live connections left in any node's demux/active table after the
    /// storm drained — the leak check; must be zero.
    pub leaked_conns: usize,
    /// Open listeners left behind (server closes its own) — must be zero.
    pub leaked_listeners: usize,
}

impl OverloadReport {
    /// Aggregate goodput over the run, in megabits per second.
    pub fn goodput_mbps(&self) -> f64 {
        if self.elapsed_us <= 0.0 {
            return 0.0;
        }
        (self.goodput_bytes as f64 * 8.0) / self.elapsed_us
    }
}

struct SrvConn {
    conn: Conn,
    inbuf: Vec<u8>,
    out: Vec<u8>,
    sent: usize,
    /// Response fully handed to the stack; close when it drains.
    responded: bool,
    last_activity: SimTime,
}

/// Run one storm (plus optional slowloris) against a shedding server on
/// node 0 of `tb`, clients spread over the remaining nodes. Returns the
/// full accounting; the caller asserts what it cares about (the CI
/// smoke gates `refused > 0 && served > 0 && leaked_conns == 0`).
pub fn run_storm(tb: &Testbed, cfg: &StormConfig) -> OverloadReport {
    run_storm_on(&Sim::new(), tb, cfg)
}

/// [`run_storm`] on a caller-owned simulation, so the storm's telemetry
/// lands in a registry shared with other workload stages (`empstat`).
pub fn run_storm_on(sim: &Sim, tb: &Testbed, cfg: &StormConfig) -> OverloadReport {
    assert!(
        tb.nodes.len() >= 2,
        "storm needs a server and a client node"
    );
    if let Some(stack) = tb.nodes[0].api.tcp_stack() {
        stack.set_max_conns(cfg.kernel_stack_cap);
    }
    let total_clients = cfg.clients + cfg.slowloris;
    let done = Arc::new(AtomicU32::new(0));
    let tallies = Arc::new(Mutex::new(Outcomes::default()));
    let latencies = Arc::new(Mutex::new(Vec::<f64>::new()));
    let served_bytes = Arc::new(AtomicU32::new(0));
    let last_finish = Arc::new(Mutex::new(SimTime::ZERO));
    let server_counts = Arc::new(Mutex::new((0u32, 0u32))); // (shed, reaped)

    // --- server ---
    {
        let api = Arc::clone(&tb.nodes[0].api);
        let cfg = cfg.clone();
        let done = Arc::clone(&done);
        let server_counts = Arc::clone(&server_counts);
        sim.spawn("storm-server", move |ctx| {
            serve_storm(ctx, &api, &cfg, total_clients, &done, &server_counts)
        });
    }

    // --- slowloris clients: connect, hold silently, close late ---
    for k in 0..cfg.slowloris {
        let node = 1 + (k as usize % (tb.nodes.len() - 1));
        let api = Arc::clone(&tb.nodes[node].api);
        let server = tb.nodes[0].api.local_host();
        let cfg = cfg.clone();
        let done = Arc::clone(&done);
        sim.spawn(format!("slowloris-{k}"), move |ctx| {
            ctx.delay(cfg.stagger * u64::from(k))?;
            if let Ok(conn) = api.connect_deadline(ctx, server, STORM_PORT, cfg.connect_deadline)? {
                // Say nothing; the server's reaper must fire. Hold well
                // past its patience so the reap is unambiguous.
                ctx.delay(cfg.idle_timeout * 4)?;
                let _ = conn.close(ctx);
            }
            done.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
    }

    // --- storm clients ---
    for k in 0..cfg.clients {
        let node = 1 + (k as usize % (tb.nodes.len() - 1));
        let api = Arc::clone(&tb.nodes[node].api);
        let server = tb.nodes[0].api.local_host();
        let cfg = cfg.clone();
        let done = Arc::clone(&done);
        let tallies = Arc::clone(&tallies);
        let latencies = Arc::clone(&latencies);
        let served_bytes = Arc::clone(&served_bytes);
        let last_finish = Arc::clone(&last_finish);
        sim.spawn(format!("storm-client-{k}"), move |ctx| {
            ctx.delay(cfg.stagger * u64::from(cfg.slowloris + k))?;
            let t0 = ctx.now();
            match api.connect_deadline(ctx, server, STORM_PORT, cfg.connect_deadline)? {
                Err(NetError::Refused) => tallies.lock().refused += 1,
                Err(NetError::Timeout) => tallies.lock().timed_out += 1,
                Err(NetError::Exhausted) => tallies.lock().exhausted += 1,
                Err(_) => tallies.lock().errored += 1,
                Ok(conn) => {
                    let fate = exchange(ctx, &conn, &cfg)?;
                    let _ = conn.close(ctx);
                    match fate {
                        Fate::Served => {
                            tallies.lock().served += 1;
                            latencies.lock().push(ctx.now().since(t0).as_micros_f64());
                            served_bytes.fetch_add(cfg.response_size as u32, Ordering::Relaxed);
                            let mut lf = last_finish.lock();
                            *lf = (*lf).max(ctx.now());
                        }
                        Fate::Degraded => tallies.lock().degraded += 1,
                        Fate::TimedOut => tallies.lock().timed_out += 1,
                    }
                }
            }
            done.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
    }

    let started_at = sim.now();
    sim.run_until(started_at + SimDuration::from_secs(120));

    let outcomes = *tallies.lock();
    assert_eq!(
        outcomes.served
            + outcomes.degraded
            + outcomes.refused
            + outcomes.timed_out
            + outcomes.exhausted
            + outcomes.errored,
        cfg.clients,
        "every attempt must end in exactly one typed outcome: {outcomes:?}"
    );

    // Leak check: every node's live-connection table must be empty once
    // the storm drained — refused, shed, reaped, and served alike.
    let mut leaked_conns = 0;
    let mut leaked_listeners = 0;
    for node in &tb.nodes {
        if let Some(s) = node.api.substrate() {
            let st = s.stats();
            leaked_conns += st.connections;
            leaked_listeners += st.listeners;
        }
        if let Some(stack) = node.api.tcp_stack() {
            leaked_conns += stack.live_conns();
        }
    }

    let mut lat = latencies.lock().clone();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p99_us = if lat.is_empty() {
        0.0
    } else {
        lat[((lat.len() - 1) * 99) / 100]
    };
    let (shed, reaped) = *server_counts.lock();
    let elapsed_us = last_finish.lock().since(started_at).as_micros_f64();
    OverloadReport {
        outcomes,
        shed,
        reaped,
        goodput_bytes: u64::from(served_bytes.load(Ordering::Relaxed)),
        elapsed_us,
        p99_us,
        leaked_conns,
        leaked_listeners,
    }
}

/// A client exchange's fate (the connect already succeeded).
enum Fate {
    Served,
    Degraded,
    TimedOut,
}

/// Send the request and read the response under the exchange deadline.
fn exchange(ctx: &ProcessCtx, conn: &Conn, cfg: &StormConfig) -> SimResult<Fate> {
    let give_up_at = ctx.now() + cfg.response_deadline;
    let req = [b'R'; REQUEST_SIZE];
    match conn.write_deadline(ctx, &req, cfg.response_deadline)? {
        Ok(_) => {}
        Err(NetError::Timeout) => return Ok(Fate::TimedOut),
        // A shed server may close before reading the request.
        Err(_) => return Ok(Fate::Degraded),
    }
    let mut got = Vec::with_capacity(cfg.response_size);
    loop {
        let now = ctx.now();
        if now >= give_up_at {
            return Ok(Fate::TimedOut);
        }
        match conn.read_deadline(ctx, cfg.response_size - got.len(), give_up_at.since(now))? {
            Ok(chunk) if chunk.is_empty() => return Ok(Fate::Degraded), // early EOF
            Ok(chunk) => {
                got.extend_from_slice(&chunk);
                if got[0] == b'B' {
                    // Degrade response; drain nothing further.
                    return Ok(Fate::Degraded);
                }
                if got.len() >= cfg.response_size {
                    for (j, &b) in got.iter().enumerate() {
                        assert_eq!(b, response_byte(j), "response byte {j} corrupt");
                    }
                    return Ok(Fate::Served);
                }
            }
            Err(NetError::Timeout) => return Ok(Fate::TimedOut),
            Err(_) => return Ok(Fate::Degraded),
        }
    }
}

/// The bounded-everything server loop. Exits when every client process
/// has finished and no connection is live.
fn serve_storm(
    ctx: &ProcessCtx,
    api: &Api,
    cfg: &StormConfig,
    total_clients: u32,
    done: &AtomicU32,
    counts: &Mutex<(u32, u32)>,
) -> SimResult<()> {
    const LISTENER: usize = usize::MAX;
    let l = api
        .listen(ctx, STORM_PORT, cfg.backlog)?
        .expect("storm port free");
    let shed_ctr = ctx.telemetry().counter("app.shed");
    let reaped_ctr = ctx.telemetry().counter("app.reaped");
    let tick = cfg.idle_timeout / 2;
    let mut conns: Vec<Option<SrvConn>> = Vec::new();
    let mut live = 0usize;
    loop {
        if done.load(Ordering::Relaxed) >= total_clients && live == 0 {
            break;
        }
        let events = {
            let mut sources = vec![PollSource {
                target: PollTarget::Listener(l.as_ref()),
                token: LISTENER,
                interest: Interest::ACCEPTABLE,
            }];
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
            api.poll(ctx, &sources, Some(tick))?.expect("poll")
        };
        for ev in events {
            if ev.token == LISTENER {
                loop {
                    match l.try_accept(ctx)? {
                        Ok(conn) => {
                            if live >= cfg.max_conns {
                                // Concurrency bound: answer, then close —
                                // the deterministic degrade.
                                let _ = conn.try_write(ctx, BUSY)?;
                                let _ = conn.flush(ctx)?;
                                let _ = conn.close(ctx);
                                counts.lock().0 += 1;
                                shed_ctr.add(1);
                                continue;
                            }
                            live += 1;
                            conns.push(Some(SrvConn {
                                conn,
                                inbuf: Vec::new(),
                                out: Vec::new(),
                                sent: 0,
                                responded: false,
                                last_activity: ctx.now(),
                            }));
                        }
                        Err(NetError::WouldBlock) => break,
                        Err(_) => break,
                    }
                }
                continue;
            }
            let Some(st) = conns[ev.token].as_mut() else {
                continue;
            };
            let mut dead = false;
            let before = (st.sent, st.inbuf.len());
            flush_out(ctx, st, &mut dead)?;
            while !dead && st.out.is_empty() && !st.responded {
                match st.conn.try_read(ctx, REQUEST_SIZE)? {
                    Ok(chunk) if chunk.is_empty() => dead = true,
                    Ok(chunk) => {
                        st.inbuf.extend_from_slice(&chunk);
                        if st.inbuf.len() >= REQUEST_SIZE {
                            st.out = (0..cfg.response_size).map(response_byte).collect();
                            st.inbuf.clear();
                        }
                    }
                    Err(NetError::WouldBlock) => break,
                    Err(_) => dead = true,
                }
            }
            flush_out(ctx, st, &mut dead)?;
            if (st.sent, st.inbuf.len()) != before {
                st.last_activity = ctx.now();
            }
            // Response fully delivered: HTTP/1.0 style, close our end.
            if st.responded && st.out.is_empty() {
                dead = true;
            }
            if dead {
                let st = conns[ev.token].take().expect("live state");
                let _ = st.conn.close(ctx);
                live -= 1;
            }
        }
        // The slowloris guard: reap connections that made no progress.
        for slot in conns.iter_mut() {
            let idle = slot
                .as_ref()
                .is_some_and(|st| ctx.now().since(st.last_activity) >= cfg.idle_timeout);
            if idle {
                let st = slot.take().expect("live state");
                let _ = st.conn.close(ctx);
                live -= 1;
                counts.lock().1 += 1;
                reaped_ctr.add(1);
            }
        }
    }
    l.close(ctx)?;
    Ok(())
}

/// Push pending response bytes; mark `responded` once the stack took
/// (and flushed) the whole response.
fn flush_out(ctx: &ProcessCtx, st: &mut SrvConn, dead: &mut bool) -> SimResult<()> {
    while !*dead && st.sent < st.out.len() {
        match st.conn.try_write(ctx, &st.out[st.sent..])? {
            Ok(n) => st.sent += n,
            Err(NetError::WouldBlock) => break,
            Err(_) => *dead = true,
        }
    }
    if !st.out.is_empty() && st.sent == st.out.len() {
        st.out.clear();
        st.sent = 0;
        st.responded = true;
        if !*dead && st.conn.flush(ctx)?.is_err() {
            *dead = true;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_no_leaks(r: &OverloadReport) {
        assert_eq!(r.leaked_conns, 0, "leaked connections: {r:?}");
        assert_eq!(r.leaked_listeners, 0, "leaked listeners: {r:?}");
    }

    #[test]
    fn storm_on_the_substrate_sheds_and_serves_without_leaks() {
        let r = run_storm(&Testbed::emp_default(4), &StormConfig::default());
        assert!(r.outcomes.served > 0, "some clients must be served: {r:?}");
        assert!(
            r.outcomes.refused + r.shed > 0,
            "past-saturation storm must trip admission control: {r:?}"
        );
        assert_eq!(r.outcomes.errored, 0, "no untyped outcome: {r:?}");
        assert!(r.goodput_bytes > 0);
        assert_no_leaks(&r);
    }

    #[test]
    fn storm_on_the_kernel_stack_sheds_and_serves_without_leaks() {
        let r = run_storm(&Testbed::kernel_default(4), &StormConfig::default());
        assert!(r.outcomes.served > 0, "some clients must be served: {r:?}");
        assert!(
            r.outcomes.refused + r.shed > 0,
            "past-saturation storm must trip admission control: {r:?}"
        );
        assert_eq!(r.outcomes.errored, 0, "no untyped outcome: {r:?}");
        assert_no_leaks(&r);
    }

    #[test]
    fn slowloris_connections_are_reaped_on_both_stacks() {
        for tb in [Testbed::emp_default(4), Testbed::kernel_default(4)] {
            let cfg = StormConfig {
                clients: 6,
                slowloris: 4,
                stagger: SimDuration::from_micros(200),
                ..StormConfig::default()
            };
            let r = run_storm(&tb, &cfg);
            assert!(
                r.reaped > 0,
                "idle reaper must fire on {}: {r:?}",
                tb.nodes[0].api.label()
            );
            assert!(r.outcomes.served > 0, "real clients still served: {r:?}");
            assert_no_leaks(&r);
        }
    }

    #[test]
    fn gentle_load_is_served_in_full_with_no_degradation() {
        // Below saturation nothing should be refused, shed, or reaped.
        let cfg = StormConfig {
            clients: 6,
            stagger: SimDuration::from_millis(2),
            max_conns: 16,
            backlog: 16,
            ..StormConfig::default()
        };
        for tb in [Testbed::emp_default(3), Testbed::kernel_default(3)] {
            let r = run_storm(&tb, &cfg);
            assert_eq!(
                r.outcomes.served,
                6,
                "all served on {}: {r:?}",
                tb.nodes[0].api.label()
            );
            assert_eq!(r.shed + r.reaped + r.outcomes.refused, 0, "{r:?}");
            assert_no_leaks(&r);
        }
    }
}

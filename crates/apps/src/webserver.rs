//! The web server application (§7.4): one server, three clients.
//!
//! Each HTTP/1.0 request is connect → 16-byte request → S-byte response →
//! close; HTTP/1.1 reuses one connection for up to 8 requests. The metric
//! is the average client-observed response time (connect included for the
//! requests that need one), which is where the substrate's cheap
//! connection management pays off.
//!
//! Every server here runs one protocol, `respond`, through
//! [`crate::serve()`]; the paper's figures use the process-per-connection
//! model, the concurrent-connection experiment all four.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use simnet::{ProcessCtx, Sim, SimAccess, SimResult, SimTime};

use crate::api::Conn;
use crate::eventloop::{serve_event_loop_with, OverloadPolicy, ServeReport};
use crate::serve::serve;
// Re-exported at its historical path, which the benchmark imports.
pub use crate::serve::ServerModel;
use crate::testbed::Testbed;

/// The request message size (§7.4: "a request message (which can
/// typically be considered a file name) of size 16 bytes").
pub const REQUEST_SIZE: usize = 16;
/// Server port.
pub const HTTP_PORT: u16 = 80;
/// HTTP/1.1 requests per connection (§7.4: "up to 8 requests on one
/// connection").
pub const HTTP11_REQUESTS_PER_CONN: u32 = 8;

/// Which HTTP flavour drives connection reuse.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HttpVersion {
    /// One request per connection.
    Http10,
    /// Up to [`HTTP11_REQUESTS_PER_CONN`] requests per connection.
    Http11,
}

/// Run the experiment: node 0 serves, nodes 1..=3 each issue
/// `requests_per_client` requests for an `response_size`-byte object.
/// Returns the mean response time in microseconds across all requests.
pub fn average_response_us(
    sim: &Sim,
    tb: &Testbed,
    version: HttpVersion,
    response_size: usize,
    requests_per_client: u32,
) -> f64 {
    let per_conn = match version {
        HttpVersion::Http10 => 1,
        HttpVersion::Http11 => HTTP11_REQUESTS_PER_CONN,
    };
    average_response_us_per_conn(sim, tb, per_conn, response_size, requests_per_client)
}

/// As [`average_response_us`] with an explicit requests-per-connection
/// count. §7.4 observes that "if the web server allows infinite requests
/// on a single connection, the web server application boils down to a
/// simple latency test" — pass a large `per_conn` to reproduce that.
pub fn average_response_us_per_conn(
    sim: &Sim,
    tb: &Testbed,
    per_conn: u32,
    response_size: usize,
    requests_per_client: u32,
) -> f64 {
    assert!(tb.nodes.len() >= 4, "web server experiment uses 4 nodes");
    assert!(per_conn >= 1);
    let n_clients = 3u32;
    let total_requests = requests_per_client * n_clients;
    let total_conns: u32 = (0..n_clients)
        .map(|_| requests_per_client.div_ceil(per_conn))
        .sum();

    // --- server ---
    let api = Arc::clone(&tb.nodes[0].api);
    sim.spawn("http-server", move |ctx| {
        let l = api.listen(ctx, HTTP_PORT, 16)?.expect("port free");
        serve(
            ctx,
            api.as_ref(),
            l,
            ServerModel::PerConnection,
            total_conns,
            &[],
            respond(response_size),
        )
    });

    // --- clients ---
    let samples = Rc::new(RefCell::new(Vec::with_capacity(total_requests as usize)));
    for client in 1..=n_clients {
        let api = Arc::clone(&tb.nodes[client as usize].api);
        let server_host = tb.nodes[0].api.local_host();
        let samples = Rc::clone(&samples);
        sim.spawn(format!("http-client-{client}"), move |ctx| {
            let mut done = 0;
            while done < requests_per_client {
                let t_conn = ctx.now();
                let conn = api.connect(ctx, server_host, HTTP_PORT)?.expect("connect");
                let burst = (requests_per_client - done).min(per_conn);
                for i in 0..burst {
                    // The first request on a connection pays for the
                    // connect; later ones (HTTP/1.1) don't.
                    let t0 = if i == 0 { t_conn } else { ctx.now() };
                    request(ctx, &conn, client, done + i, response_size)?;
                    samples.borrow_mut().push((ctx.now() - t0).as_micros_f64());
                }
                done += burst;
                conn.close(ctx)?;
            }
            Ok(())
        });
    }
    sim.run_until(SimTime::from_secs(600));
    let s = samples.borrow();
    assert_eq!(
        s.len(),
        total_requests as usize,
        "all requests must complete"
    );
    s.iter().sum::<f64>() / s.len() as f64
}

/// Convenience wrapper: build a fresh sim, run, return the average.
pub fn run_once(tb: &Testbed, version: HttpVersion, response_size: usize, reqs: u32) -> f64 {
    let sim = Sim::new();
    average_response_us(&sim, tb, version, response_size, reqs)
}

// ---------------------------------------------------------------------
// Concurrent connections: the four server models
// ---------------------------------------------------------------------

/// Byte the server sends right after accepting, before the first request.
/// Clients wait for it, so the measurement starts when the server has
/// actually taken the connection, not while it sits in the backlog.
const HELLO_BYTE: u8 = b'+';

/// Byte a shedding server answers instead of the greeting byte when the
/// connection is over its concurrency budget — the HTTP-503 of this
/// one-byte protocol. Clients see it and back off deterministically.
pub const SHED_BYTE: u8 = b'!';

/// Aggregate result of one [`concurrent_throughput`] run.
#[derive(Clone, Copy, Debug)]
pub struct ConcurrencyRun {
    /// Requests completed across all connections.
    pub requests: u64,
    /// First connect to last verified response, in µs.
    pub elapsed_us: f64,
    /// Aggregate request throughput.
    pub reqs_per_sec: f64,
}

/// The expected `j`-th body byte of the response to request `req` on
/// connection `conn`: every byte depends on the connection, the request,
/// and the position, so interleaved connections cannot pass verification
/// with each other's (or a stale) response.
pub fn body_byte(conn: u32, req: u32, j: usize) -> u8 {
    ((u64::from(conn) * 131 + u64::from(req) * 31 + j as u64 * 7 + 13) % 251) as u8
}

fn encode_request(conn: u32, req: u32) -> [u8; REQUEST_SIZE] {
    let mut b = [b'.'; REQUEST_SIZE];
    b[0] = b'G';
    b[1..5].copy_from_slice(&conn.to_le_bytes());
    b[5..9].copy_from_slice(&req.to_le_bytes());
    b
}

fn decode_request(req: &[u8]) -> (u32, u32) {
    debug_assert_eq!(req[0], b'G');
    (
        u32::from_le_bytes(req[1..5].try_into().expect("4 bytes")),
        u32::from_le_bytes(req[5..9].try_into().expect("4 bytes")),
    )
}

/// The web server's protocol, stated once for every server model: answer
/// each complete request in `inbuf` with `size` bytes of
/// [`body_byte`]s, leaving a partial request in place.
fn respond(size: usize) -> impl FnMut(&mut Vec<u8>, &mut Vec<u8>) + 'static {
    move |inbuf, out| {
        while inbuf.len() >= REQUEST_SIZE {
            let (conn, req) = decode_request(&inbuf[..REQUEST_SIZE]);
            inbuf.drain(..REQUEST_SIZE);
            out.extend((0..size).map(|j| body_byte(conn, req, j)));
        }
    }
}

/// One request round trip on `conn`: send request `req` of connection
/// `k`, read the `size`-byte response, and verify every byte of it.
fn request(ctx: &ProcessCtx, conn: &Conn, k: u32, req: u32, size: usize) -> SimResult<()> {
    conn.write(ctx, &encode_request(k, req))?.expect("request");
    let body = conn
        .read_exact(ctx, size)?
        .expect("response")
        .expect("body");
    for (j, &byte) in body.iter().enumerate() {
        assert_eq!(byte, body_byte(k, req, j), "conn {k} req {req} byte {j}");
    }
    Ok(())
}

/// Run `n_conns` concurrent persistent connections (clients spread
/// round-robin over nodes 1..) against one server on node 0 structured
/// per `model`; each connection issues `reqs_per_conn` requests and
/// byte-verifies every response. Returns the aggregate throughput.
pub fn concurrent_throughput(
    tb: &Testbed,
    model: ServerModel,
    n_conns: u32,
    reqs_per_conn: u32,
    response_size: usize,
) -> ConcurrencyRun {
    concurrent_throughput_on(
        &Sim::new(),
        tb,
        model,
        n_conns,
        reqs_per_conn,
        response_size,
    )
}

/// [`concurrent_throughput`] on a caller-supplied simulation, so tools
/// that inspect the sim afterwards (`empstat`, the determinism test) can
/// read its telemetry registry once the workload drains.
pub fn concurrent_throughput_on(
    sim: &Sim,
    tb: &Testbed,
    model: ServerModel,
    n_conns: u32,
    reqs_per_conn: u32,
    response_size: usize,
) -> ConcurrencyRun {
    let (samples, end) = run_concurrent(sim, tb, model, n_conns, reqs_per_conn, response_size);
    let requests = samples.len() as u64;
    ConcurrencyRun {
        requests,
        elapsed_us: end.as_secs_f64() * 1e6,
        reqs_per_sec: requests as f64 / end.as_secs_f64(),
    }
}

/// The concurrent workload on `sim`: a node-0 server structured per
/// `model`, and `n_conns` clients that each take the greeting and then
/// issue `reqs_per_conn` byte-verified requests. Returns every request's
/// `(connection, µs)` round trip and the instant the last connection
/// closed.
fn run_concurrent(
    sim: &Sim,
    tb: &Testbed,
    model: ServerModel,
    n_conns: u32,
    reqs_per_conn: u32,
    response_size: usize,
) -> (Vec<(u32, f64)>, SimTime) {
    assert!(tb.nodes.len() >= 2, "need a server node and a client node");
    assert!(n_conns >= 1 && reqs_per_conn >= 1);
    let api = Arc::clone(&tb.nodes[0].api);
    let backlog = n_conns as usize + 8;
    sim.spawn("http-server", move |ctx| {
        let l = api.listen(ctx, HTTP_PORT, backlog)?.expect("port free");
        serve(
            ctx,
            api.as_ref(),
            l,
            model,
            n_conns,
            &[HELLO_BYTE],
            respond(response_size),
        )
    });

    // (request samples, per-connection close instants)
    let acc = Rc::new(RefCell::new((Vec::new(), Vec::new())));
    for k in 0..n_conns {
        let node = 1 + (k as usize % (tb.nodes.len() - 1));
        let api = Arc::clone(&tb.nodes[node].api);
        let server_host = tb.nodes[0].api.local_host();
        let acc = Rc::clone(&acc);
        sim.spawn(format!("http-conc-client-{k}"), move |ctx| {
            let conn = api.connect(ctx, server_host, HTTP_PORT)?.expect("connect");
            let hello = conn
                .read_exact(ctx, 1)?
                .expect("hello")
                .expect("hello byte");
            assert_eq!(hello[0], HELLO_BYTE);
            for r in 0..reqs_per_conn {
                let t0 = ctx.now();
                request(ctx, &conn, k, r, response_size)?;
                acc.borrow_mut()
                    .0
                    .push((k, (ctx.now() - t0).as_micros_f64()));
            }
            conn.close(ctx)?;
            acc.borrow_mut().1.push(ctx.now());
            Ok(())
        });
    }
    sim.run_until(SimTime::from_secs(600));
    let (samples, ends) = std::mem::take(&mut *acc.borrow_mut());
    assert_eq!(ends.len(), n_conns as usize, "every connection must finish");
    assert_eq!(
        samples.len(),
        (n_conns * reqs_per_conn) as usize,
        "every request must complete"
    );
    (
        samples,
        ends.into_iter().max().expect("at least one connection"),
    )
}

/// Latency/fairness view of one [`concurrent_throughput`]-shaped run.
#[derive(Clone, Copy, Debug)]
pub struct LatencyRun {
    /// Median request → verified-response time, µs.
    pub p50_us: f64,
    /// 99th-percentile request time, µs — the tail the scheduling model
    /// inflicts on unlucky connections.
    pub p99_us: f64,
    /// Jain fairness index over per-connection mean request times:
    /// 1.0 = every connection served equally, 1/n = one connection
    /// monopolized the server.
    pub jain_fairness: f64,
}

/// The concurrent workload measured per request instead of in aggregate:
/// each client stamps every request round trip, and the run reduces to
/// median, tail, and a cross-connection fairness index. This is how the
/// server models' *scheduling* differences show up — a cooperative
/// executor or event loop that let one connection hog its turn would
/// keep aggregate throughput but lose fairness and tail latency.
pub fn concurrent_latency(
    tb: &Testbed,
    model: ServerModel,
    n_conns: u32,
    reqs_per_conn: u32,
    response_size: usize,
) -> LatencyRun {
    let sim = Sim::new();
    let (s, _) = run_concurrent(&sim, tb, model, n_conns, reqs_per_conn, response_size);
    let mut rtts: Vec<f64> = s.iter().map(|&(_, us)| us).collect();
    rtts.sort_by(f64::total_cmp);
    let pct = |q: f64| rtts[((rtts.len() - 1) as f64 * q).round() as usize];
    let mut per_conn = vec![(0.0f64, 0u32); n_conns as usize];
    for &(k, us) in s.iter() {
        per_conn[k as usize].0 += us;
        per_conn[k as usize].1 += 1;
    }
    let means: Vec<f64> = per_conn
        .iter()
        .map(|&(sum, n)| sum / f64::from(n))
        .collect();
    let sum: f64 = means.iter().sum();
    let sum_sq: f64 = means.iter().map(|m| m * m).sum();
    LatencyRun {
        p50_us: pct(0.5),
        p99_us: pct(0.99),
        jain_fairness: (sum * sum) / (means.len() as f64 * sum_sq),
    }
}

/// The event-loop server under a concurrency bound: `n_conns` clients
/// connect at once, the server serves at most `max_conns` of them
/// concurrently and answers the overflow with [`SHED_BYTE`] before
/// closing. Shed clients back off and report it; nothing hangs. Returns
/// `(fully_served, shed_observed, server_report)` — served + shed
/// always accounts for every client.
pub fn concurrent_throughput_shedding(
    tb: &Testbed,
    n_conns: u32,
    max_conns: usize,
    reqs_per_conn: u32,
    response_size: usize,
) -> (u32, u32, ServeReport) {
    assert!(tb.nodes.len() >= 2, "need a server node and a client node");
    let sim = Sim::new();
    let api = Arc::clone(&tb.nodes[0].api);
    let backlog = n_conns as usize + 8;
    let report = Rc::new(RefCell::new(ServeReport::default()));
    {
        let report = Rc::clone(&report);
        sim.spawn("http-shedding-loop", move |ctx| {
            let l = api.listen(ctx, HTTP_PORT, backlog)?.expect("port free");
            let policy = OverloadPolicy {
                max_conns: Some(max_conns),
                shed_response: vec![SHED_BYTE],
                ..OverloadPolicy::default()
            };
            *report.borrow_mut() = serve_event_loop_with(
                ctx,
                api.as_ref(),
                l.as_ref(),
                n_conns,
                &[HELLO_BYTE],
                &policy,
                respond(response_size),
            )?;
            l.close(ctx)
        });
    }
    let tally = Rc::new(RefCell::new((0u32, 0u32))); // (served, shed)
    for k in 0..n_conns {
        let node = 1 + (k as usize % (tb.nodes.len() - 1));
        let api = Arc::clone(&tb.nodes[node].api);
        let server_host = tb.nodes[0].api.local_host();
        let tally = Rc::clone(&tally);
        sim.spawn(format!("http-shed-client-{k}"), move |ctx| {
            let conn = api.connect(ctx, server_host, HTTP_PORT)?.expect("connect");
            let first = conn.read_exact(ctx, 1)?.expect("greeting");
            match first {
                Some(b) if b[0] == HELLO_BYTE => {
                    for r in 0..reqs_per_conn {
                        request(ctx, &conn, k, r, response_size)?;
                    }
                    tally.borrow_mut().0 += 1;
                }
                // SHED_BYTE or bare EOF: the deterministic degrade.
                _ => tally.borrow_mut().1 += 1,
            }
            let _ = conn.close(ctx);
            Ok(())
        });
    }
    sim.run_until(SimTime::from_secs(600));
    let (served, shed) = *tally.borrow();
    assert_eq!(served + shed, n_conns, "every client gets a typed answer");
    let report = *report.borrow();
    (served, shed, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emp_proto::EmpConfig;
    use sockets_emp::SubstrateConfig;

    fn emp_tb() -> Testbed {
        // §7.4: "In this experiment, we have used a credit size of 4."
        Testbed::emp(
            4,
            EmpConfig::default(),
            SubstrateConfig::ds_da_uq().with_credits(4),
            "emp-c4",
        )
    }

    #[test]
    fn http10_substrate_beats_tcp_by_a_wide_margin() {
        let emp = run_once(&emp_tb(), HttpVersion::Http10, 1024, 8);
        let tcp = run_once(&Testbed::kernel_default(4), HttpVersion::Http10, 1024, 8);
        let ratio = tcp / emp;
        // §8: "the web server application showed as much as six times
        // performance enhancement"; at 1 KiB responses expect >2.5x.
        assert!(
            ratio > 2.5,
            "HTTP/1.0 ratio {ratio:.2} (emp {emp:.0} us, tcp {tcp:.0} us)"
        );
    }

    #[test]
    fn http11_narrows_but_does_not_close_the_gap() {
        // §7.4: HTTP/1.1 amortizes TCP's connection cost over 8 requests;
        // "Even with this specification, our substrate was found to
        // perform better".
        let emp10 = run_once(&emp_tb(), HttpVersion::Http10, 1024, 8);
        let tcp10 = run_once(&Testbed::kernel_default(4), HttpVersion::Http10, 1024, 8);
        let emp11 = run_once(&emp_tb(), HttpVersion::Http11, 1024, 8);
        let tcp11 = run_once(&Testbed::kernel_default(4), HttpVersion::Http11, 1024, 8);
        let r10 = tcp10 / emp10;
        let r11 = tcp11 / emp11;
        assert!(r11 > 1.2, "substrate still wins under HTTP/1.1: {r11:.2}");
        assert!(
            r11 < r10,
            "persistent connections must narrow the gap: {r11:.2} vs {r10:.2}"
        );
    }

    #[test]
    fn response_time_grows_with_response_size() {
        let small = run_once(&emp_tb(), HttpVersion::Http10, 4, 6);
        let large = run_once(&emp_tb(), HttpVersion::Http10, 8192, 6);
        assert!(large > small, "8K ({large:.0}) vs 4B ({small:.0})");
    }

    #[test]
    fn shedding_event_loop_bounds_concurrency_on_both_stacks() {
        // 8 clients vs a concurrency budget of 3: whoever is over budget
        // gets the SHED_BYTE (or a clean EOF), never a hang, and the
        // server's own count matches what clients observed.
        for tb in [Testbed::emp_default(4), Testbed::kernel_default(4)] {
            let (served, shed, report) = concurrent_throughput_shedding(&tb, 8, 3, 2, 256);
            assert_eq!(served + shed, 8);
            assert!(
                shed > 0,
                "over-budget clients must be shed on {}",
                tb.nodes[0].api.label()
            );
            assert!(served >= 3, "budgeted clients are served in full");
            assert_eq!(report.shed, shed, "server and client shed counts agree");
            assert_eq!(report.served, served);
        }
    }

    #[test]
    fn latency_run_reports_a_sane_distribution() {
        // The fairness figure's measurement: percentiles ordered, Jain
        // index in (0, 1], and the async model not collapsing fairness
        // relative to process-per-connection.
        let tb = Testbed::emp_default(3);
        let aw = concurrent_latency(&tb, ServerModel::Async, 8, 4, 512);
        let pc = concurrent_latency(&tb, ServerModel::PerConnection, 8, 4, 512);
        for r in [aw, pc] {
            assert!(r.p50_us > 0.0 && r.p50_us <= r.p99_us, "{r:?}");
            assert!(
                r.jain_fairness > 0.0 && r.jain_fairness <= 1.0 + 1e-9,
                "{r:?}"
            );
        }
        assert!(
            aw.jain_fairness > 0.8,
            "cooperative executor starved connections: {aw:?}"
        );
    }

    #[test]
    fn event_loop_serves_concurrent_connections_byte_exact() {
        // Byte-exactness is asserted inside every client; here both server
        // models must complete the same workload on both stacks.
        for tb in [Testbed::emp_default(4), Testbed::kernel_default(4)] {
            for model in [
                ServerModel::EventLoop,
                ServerModel::PerConnection,
                ServerModel::Completion,
                ServerModel::Async,
            ] {
                let r = concurrent_throughput(&tb, model, 6, 4, 512);
                assert_eq!(
                    r.requests,
                    24,
                    "{} on {}",
                    model.label(),
                    tb.nodes[0].api.label()
                );
                assert!(r.reqs_per_sec > 0.0);
            }
        }
    }
}

#[cfg(test)]
mod infinite_requests {
    use super::*;
    use crate::pingpong;
    use emp_proto::EmpConfig;
    use simnet::Sim;
    use sockets_emp::SubstrateConfig;

    #[test]
    fn unbounded_persistent_connections_degenerate_to_the_latency_test() {
        // §7.4: "In the worst case, if the web server allows infinite
        // requests on a single connection, the web server application
        // boils down to a simple latency test which has been plotted in
        // Section 7.1". With 64 requests per connection the connect cost
        // amortizes away and the per-request time approaches one request
        // round trip of the Figure 11 ping-pong.
        let tb = Testbed::emp(
            4,
            EmpConfig::default(),
            SubstrateConfig::ds_da_uq().with_credits(4),
            "emp-c4",
        );
        let sim = Sim::new();
        let per_request = average_response_us_per_conn(&sim, &tb, 64, REQUEST_SIZE, 64);
        // The comparable microbenchmark: a 16-byte-each-way ping-pong is
        // one full round trip; the web request/response is too.
        let sim = Sim::new();
        let tb2 = Testbed::emp(
            2,
            EmpConfig::default(),
            SubstrateConfig::ds_da_uq().with_credits(4),
            "emp-c4",
        );
        let rtt = pingpong::one_way_latency_us(&sim, &tb2, REQUEST_SIZE, 40) * 2.0;
        // Within ~40%: the web server still has 3 clients sharing one
        // server process, which adds queueing the pure ping-pong lacks.
        assert!(
            per_request < rtt * 1.6,
            "persistent-connection request time {per_request:.1} us should \
             approach the ping-pong round trip {rtt:.1} us"
        );
        assert!(per_request > rtt * 0.8, "but not beat it");
    }
}

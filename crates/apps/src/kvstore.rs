//! A key-value store — the paper's stated future work (§8: "utilizing
//! and evaluating the proposed substrate for a range of commercial
//! applications in the Data center environment").
//!
//! A memcached-shaped service: persistent connections carry GET/PUT
//! requests with small keys and configurable value sizes; clients measure
//! per-operation latency and aggregate throughput. The workload is where
//! the substrate's strengths compound — small messages (latency-bound)
//! on long-lived connections (its connection-setup advantage amortized
//! away), so the win here is a clean view of the data-path difference.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{Sim, SimAccess, SimTime};

use crate::api::Conn;
use crate::eventloop::{serve_event_loop_with, OverloadPolicy, ServeReport};
use crate::serve::{serve, ServerModel};
use crate::testbed::Testbed;

/// Server port.
pub const KV_PORT: u16 = 111;

const OP_GET: u8 = 1;
const OP_PUT: u8 = 2;
const STATUS_OK: u8 = 0;
const STATUS_MISS: u8 = 1;
/// Degrade status a shedding server answers when over its concurrency
/// budget — the client's cue to back off and retry elsewhere.
pub const STATUS_BUSY: u8 = 2;

/// Results of a client run.
#[derive(Clone, Copy, Debug, Default)]
pub struct KvResults {
    /// Operations completed.
    pub ops: u64,
    /// GETs that found a value.
    pub hits: u64,
    /// Mean per-operation round trip in µs.
    pub mean_op_us: f64,
    /// Aggregate operation throughput (ops/s) across all clients.
    pub ops_per_sec: f64,
}

fn encode_request(op: u8, key: u32, value: Option<&[u8]>) -> Bytes {
    let mut b = BytesMut::with_capacity(9 + value.map_or(0, <[u8]>::len));
    b.put_u8(op);
    b.put_u32_le(key);
    b.put_u32_le(value.map_or(0, <[u8]>::len) as u32);
    if let Some(v) = value {
        b.extend_from_slice(v);
    }
    b.freeze()
}

fn read_exactly(
    ctx: &simnet::ProcessCtx,
    conn: &Conn,
    n: usize,
) -> simnet::SimResult<Option<Bytes>> {
    match conn.read_exact(ctx, n)? {
        Ok(v) => Ok(v),
        Err(_) => Ok(None),
    }
}

/// Serve `expected_conns` clients on node `server`, structured per
/// `model`: the GET/PUT protocol is stated once (`serve_frames`) and
/// [`crate::serve()`] runs it under any of the four I/O models.
pub fn spawn_server_model(
    sim: &Sim,
    tb: &Testbed,
    server: usize,
    expected_conns: u32,
    model: ServerModel,
) {
    let api = Arc::clone(&tb.nodes[server].api);
    sim.spawn("kv-server", move |ctx| {
        let l = api.listen(ctx, KV_PORT, 16)?.expect("port free");
        // The service owns the store: the single-process models need no
        // cell, and `serve` shares it in one for per-connection workers.
        let mut store: HashMap<u32, Bytes> = HashMap::new();
        serve(
            ctx,
            api.as_ref(),
            l,
            model,
            expected_conns,
            &[],
            move |inbuf, out| serve_frames(&mut store, inbuf, out),
        )
    });
}

/// [`spawn_server_model`] with [`ServerModel::PerConnection`].
pub fn spawn_server(sim: &Sim, tb: &Testbed, server: usize, expected_conns: u32) {
    spawn_server_model(sim, tb, server, expected_conns, ServerModel::PerConnection);
}

/// [`spawn_server_model`] with [`ServerModel::EventLoop`].
pub fn spawn_server_event_loop(sim: &Sim, tb: &Testbed, server: usize, expected_conns: u32) {
    spawn_server_model(sim, tb, server, expected_conns, ServerModel::EventLoop);
}

/// [`spawn_server_model`] with [`ServerModel::Completion`].
pub fn spawn_server_completion(sim: &Sim, tb: &Testbed, server: usize, expected_conns: u32) {
    spawn_server_model(sim, tb, server, expected_conns, ServerModel::Completion);
}

/// [`spawn_server_model`] with [`ServerModel::Async`].
pub fn spawn_server_async(sim: &Sim, tb: &Testbed, server: usize, expected_conns: u32) {
    spawn_server_model(sim, tb, server, expected_conns, ServerModel::Async);
}

/// The event-loop server with a concurrency budget: at most
/// `max_conns` clients are served at once and the overflow is answered
/// with a [`STATUS_BUSY`] frame, then closed. Returns a handle that
/// carries the server's [`ServeReport`] once the workload drains.
pub fn spawn_server_event_loop_shedding(
    sim: &Sim,
    tb: &Testbed,
    server: usize,
    expected_conns: u32,
    max_conns: usize,
) -> Rc<RefCell<Option<ServeReport>>> {
    let api = Arc::clone(&tb.nodes[server].api);
    let report = Rc::new(RefCell::new(None));
    let out = Rc::clone(&report);
    sim.spawn("kv-shedding-loop", move |ctx| {
        let l = api.listen(ctx, KV_PORT, 16)?.expect("port free");
        let mut store: HashMap<u32, Bytes> = HashMap::new();
        // Busy frame: status byte + zero-length value.
        let mut busy = vec![STATUS_BUSY];
        busy.extend_from_slice(&0u32.to_le_bytes());
        let policy = OverloadPolicy {
            max_conns: Some(max_conns),
            shed_response: busy,
            ..OverloadPolicy::default()
        };
        let r = serve_event_loop_with(
            ctx,
            api.as_ref(),
            l.as_ref(),
            expected_conns,
            &[],
            &policy,
            |inbuf, out| serve_frames(&mut store, inbuf, out),
        )?;
        *report.borrow_mut() = Some(r);
        l.close(ctx)?;
        Ok(())
    });
    out
}

/// Consume every complete request in `inbuf` — leaving a partial frame
/// (short header, or a PUT whose value is still in flight) for the next
/// batch of bytes — and append the responses to `out`.
fn serve_frames(store: &mut HashMap<u32, Bytes>, inbuf: &mut Vec<u8>, out: &mut Vec<u8>) {
    loop {
        if inbuf.len() < 9 {
            return;
        }
        let op = inbuf[0];
        let key = u32::from_le_bytes(inbuf[1..5].try_into().expect("4 bytes"));
        let vlen = u32::from_le_bytes(inbuf[5..9].try_into().expect("4 bytes")) as usize;
        match op {
            OP_PUT => {
                if inbuf.len() < 9 + vlen {
                    return; // the value is still in flight
                }
                store.insert(key, Bytes::copy_from_slice(&inbuf[9..9 + vlen]));
                inbuf.drain(..9 + vlen);
                out.push(STATUS_OK);
                out.extend_from_slice(&0u32.to_le_bytes());
            }
            OP_GET => {
                inbuf.drain(..9);
                match store.get(&key).cloned() {
                    Some(v) => {
                        out.push(STATUS_OK);
                        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                        out.extend_from_slice(&v);
                    }
                    None => {
                        out.push(STATUS_MISS);
                        out.extend_from_slice(&0u32.to_le_bytes());
                    }
                }
            }
            other => panic!("unknown kv op {other}"),
        }
    }
}

/// Run `n_clients` clients (on nodes 1..) against a server on node 0;
/// each performs `ops_per_client` operations with the given value size
/// and GET fraction. Deterministic for a given seed.
pub fn run_workload(
    tb: &Testbed,
    n_clients: usize,
    ops_per_client: u32,
    value_size: usize,
    get_fraction: f64,
    seed: u64,
) -> KvResults {
    run_workload_with(
        tb,
        ServerModel::PerConnection,
        n_clients,
        ops_per_client,
        value_size,
        get_fraction,
        seed,
    )
}

/// As [`run_workload`], with the server structured per `model`.
pub fn run_workload_with(
    tb: &Testbed,
    model: ServerModel,
    n_clients: usize,
    ops_per_client: u32,
    value_size: usize,
    get_fraction: f64,
    seed: u64,
) -> KvResults {
    assert!(
        tb.nodes.len() > n_clients,
        "need a node per client + server"
    );
    let sim = Sim::new();
    spawn_server_model(&sim, tb, 0, n_clients as u32, model);
    let acc = Rc::new(RefCell::new((0u64, 0u64, 0.0f64, SimTime::ZERO)));

    for c in 0..n_clients {
        let api = Arc::clone(&tb.nodes[c + 1].api);
        let host = tb.nodes[0].api.local_host();
        let acc = Rc::clone(&acc);
        sim.spawn(format!("kv-client-{c}"), move |ctx| {
            let mut rng = StdRng::seed_from_u64(seed ^ (c as u64) << 32);
            let conn = api.connect(ctx, host, KV_PORT)?.expect("connect");
            let value = vec![0xcdu8; value_size];
            let key_space = 256u32;
            let mut ops = 0u64;
            let mut hits = 0u64;
            let mut total_us = 0.0f64;
            // Warm a few keys so GETs can hit.
            for k in 0..8u32 {
                conn.write(ctx, &encode_request(OP_PUT, k, Some(&value)))?
                    .expect("put");
                let _ = read_exactly(ctx, &conn, 5)?.expect("resp");
            }
            for _ in 0..ops_per_client {
                let t0 = ctx.now();
                let key = rng.gen_range(0..key_space);
                if rng.gen_bool(get_fraction) {
                    conn.write(ctx, &encode_request(OP_GET, key, None))?
                        .expect("get");
                    let hdr = read_exactly(ctx, &conn, 5)?.expect("resp");
                    let len = u32::from_le_bytes(hdr[1..5].try_into().expect("4")) as usize;
                    if hdr[0] == STATUS_OK {
                        hits += 1;
                        let body = read_exactly(ctx, &conn, len)?.expect("body");
                        debug_assert_eq!(body.len(), value_size);
                    }
                } else {
                    conn.write(ctx, &encode_request(OP_PUT, key, Some(&value)))?
                        .expect("put");
                    let _ = read_exactly(ctx, &conn, 5)?.expect("resp");
                }
                ops += 1;
                total_us += (ctx.now() - t0).as_micros_f64();
            }
            conn.close(ctx)?;
            let mut a = acc.borrow_mut();
            a.0 += ops;
            a.1 += hits;
            a.2 += total_us;
            a.3 = a.3.max(ctx.now());
            Ok(())
        });
    }
    sim.run_until(SimTime::from_secs(600));
    let (ops, hits, total_us, end) = *acc.borrow();
    assert_eq!(
        ops,
        n_clients as u64 * u64::from(ops_per_client),
        "every operation completes"
    );
    KvResults {
        ops,
        hits,
        mean_op_us: total_us / ops as f64,
        ops_per_sec: ops as f64 / end.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn store_roundtrips_values_exactly() {
        // Direct correctness: PUT then GET the same key returns identical
        // bytes (checked inside the client via length + debug asserts;
        // here also via hit counting with a single hot key).
        let tb = Testbed::emp_default(2);
        let r = run_workload(&tb, 1, 60, 256, 0.7, 42);
        assert_eq!(r.ops, 60);
        assert!(r.hits > 0, "warmed keys must produce hits");
        assert!(r.mean_op_us > 0.0);
    }

    #[test]
    fn substrate_serves_ops_faster_than_tcp() {
        // Data-center shape: small values, persistent connections, three
        // clients. Per-op latency is dominated by the stack's small-
        // message path (Figure 13a), so the substrate should serve ops
        // ~3x faster.
        let emp = run_workload(&Testbed::emp_default(4), 3, 50, 128, 0.9, 7);
        let tcp = run_workload(&Testbed::kernel_default(4), 3, 50, 128, 0.9, 7);
        let ratio = tcp.mean_op_us / emp.mean_op_us;
        assert!(
            ratio > 2.0,
            "kv op latency ratio {ratio:.2} (emp {:.0} us, tcp {:.0} us)",
            emp.mean_op_us,
            tcp.mean_op_us
        );
        assert!(emp.ops_per_sec > tcp.ops_per_sec);
    }

    #[test]
    fn event_loop_server_completes_the_same_workload() {
        let tb = Testbed::emp_default(3);
        let el = run_workload_with(&tb, ServerModel::EventLoop, 2, 30, 64, 0.5, 9);
        assert_eq!(el.ops, 60);
        assert!(el.hits > 0, "warmed keys must produce hits");
        let tcp = Testbed::kernel_default(3);
        let el = run_workload_with(&tcp, ServerModel::EventLoop, 2, 30, 64, 0.5, 9);
        assert_eq!(el.ops, 60);
    }

    #[test]
    fn shedding_kv_server_degrades_overflow_deterministically() {
        // 6 clients vs a budget of 2: the overflow gets STATUS_BUSY (or
        // a clean close), the budgeted ones a real response; server and
        // client counts agree; nobody hangs.
        for tb in [Testbed::emp_default(4), Testbed::kernel_default(4)] {
            let sim = Sim::new();
            let report = spawn_server_event_loop_shedding(&sim, &tb, 0, 6, 2);
            let tally = Arc::new(Mutex::new((0u32, 0u32))); // (served, busy)
            for c in 0..6u32 {
                let node = 1 + (c as usize % (tb.nodes.len() - 1));
                let api = Arc::clone(&tb.nodes[node].api);
                let host = tb.nodes[0].api.local_host();
                let tally = Arc::clone(&tally);
                sim.spawn(format!("kv-shed-client-{c}"), move |ctx| {
                    let conn = api.connect(ctx, host, KV_PORT)?.expect("connect");
                    let value = [0xabu8; 32];
                    let mut busy = false;
                    if conn
                        .write(ctx, &encode_request(OP_PUT, c, Some(&value)))?
                        .is_err()
                    {
                        busy = true; // shed before the request was read
                    }
                    if !busy {
                        match read_exactly(ctx, &conn, 5)? {
                            Some(hdr) if hdr[0] == STATUS_OK => {}
                            // STATUS_BUSY frame or bare EOF: degraded.
                            _ => busy = true,
                        }
                    }
                    let _ = conn.close(ctx);
                    let mut t = tally.lock();
                    if busy {
                        t.1 += 1;
                    } else {
                        t.0 += 1;
                    }
                    Ok(())
                });
            }
            sim.run_until(SimTime::from_secs(60));
            let (served, busy) = *tally.lock();
            assert_eq!(served + busy, 6, "every client gets a typed answer");
            assert!(
                busy > 0,
                "overflow must be degraded on {}",
                tb.nodes[0].api.label()
            );
            assert!(served >= 2, "budgeted clients are served");
            let r = report.borrow_mut().expect("server finished");
            assert_eq!(r.shed, busy, "server and client shed counts agree");
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let a = run_workload(&Testbed::emp_default(3), 2, 30, 64, 0.5, 9);
        let b = run_workload(&Testbed::emp_default(3), 2, 30, 64, 0.5, 9);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.mean_op_us.to_bits(), b.mean_op_us.to_bits());
    }
}

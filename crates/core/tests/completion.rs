//! Cross-stack conformance suite for the completion-queue I/O model.
//!
//! One ring drives both stacks: [`emp_apps::ring`] is the
//! [`simnet::RingCore`] engine over the facade's sockets, whose wait is
//! [`emp_apps::NetApi::poll`]. So every queueing, ordering, and
//! backpressure decision — and the driver itself — is shared by
//! construction. What this suite pins down is the part that is *not*
//! shared: each stack's nonblocking op semantics and the errors it
//! reports. Each scenario runs the identical submission script against
//! both stacks and diffs the normalized completion traces; every op kind
//! (`Accept`, `Read`, `Write`, `Close`), EOF (`Close { final_seq }`),
//! short writes, and op-failure surfacing must render byte-identically.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use emp_apps::{ring, Conn, Ring, Testbed};
use emp_proto::EmpConfig;
use simnet::ring::{Cqe, CqeResult, RingConfig, RingError, RingOp, Sqe};
use simnet::{Completion, ProcessCtx, Sim, SimAccess, SimDuration, SimResult};
use sockets_emp::SubstrateConfig;

const PORT: u16 = 80;

/// Deterministic payload byte for (stream index, offset).
fn pat(idx: usize, i: usize) -> u8 {
    ((i * 31 + idx * 7 + 3) % 251) as u8
}

fn pattern(idx: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| pat(idx, i)).collect()
}

/// Render a completion in the stack-agnostic form the traces compare.
fn fmt_cqe(c: &Cqe) -> String {
    match c.result {
        CqeResult::Accepted { conn } => format!("{}:accepted({conn})", c.user_data),
        CqeResult::Read { buf, len } => format!("{}:read(b{buf},{len})", c.user_data),
        CqeResult::Wrote { buf, len } => format!("{}:wrote(b{buf},{len})", c.user_data),
        CqeResult::Close { conn, final_seq } => format!("{}:eof({conn},{final_seq})", c.user_data),
        CqeResult::Closed { conn } => format!("{}:closed({conn})", c.user_data),
        CqeResult::Failed { err } => format!("{}:failed({err:?})", c.user_data),
    }
}

fn push(ring: &mut Ring<'_>, user_data: u64, op: RingOp) {
    ring.push(Sqe::new(user_data, op)).expect("push admitted");
}

/// Submit, park until at least `n` completions accumulated, reap them
/// all. Scenarios keep few enough ops in flight that batches are exact.
fn wait_cqes(ctx: &ProcessCtx, ring: &mut Ring<'_>, n: usize) -> SimResult<Vec<Cqe>> {
    let mut out = Vec::new();
    while out.len() < n {
        ring.submit_and_wait(ctx, n - out.len())?
            .expect("scenario keeps enough ops committed");
        out.extend(ring.reap(usize::MAX));
    }
    Ok(out)
}

/// The client half's blocking write of a whole buffer.
fn send_all(ctx: &ProcessCtx, c: &Conn, mut data: &[u8]) -> SimResult<()> {
    while !data.is_empty() {
        let n = c.write(ctx, data)?.expect("client write");
        data = &data[n..];
    }
    Ok(())
}

/// The client half's blocking read of exactly `n` bytes.
fn recv_exact(ctx: &ProcessCtx, c: &Conn, n: usize) -> SimResult<Vec<u8>> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let m = c.read(ctx, n - out.len())?.expect("client read");
        assert!(!m.is_empty(), "premature EOF at byte {}", out.len());
        out.extend_from_slice(&m);
    }
    Ok(out)
}

/// The stacks every scenario runs on: the substrate under the paper's
/// best preset, and the kernel baseline.
fn testbeds() -> [Testbed; 2] {
    [
        Testbed::emp(
            2,
            EmpConfig::default(),
            SubstrateConfig::ds_da_uq(),
            "conf-emp",
        ),
        Testbed::kernel_default(2),
    ]
}

/// Run a scenario on `tb`: `server` drives a ring on node 1 whose
/// listener is registered as id 0, `client(ctx, i, conn)` runs once per
/// spawned client on node 0. Returns the server's trace after asserting
/// the ring tore down clean (no leaked buffers, every push accounted for).
fn run<S, C>(tb: &Testbed, n_clients: usize, cfg: RingConfig, server: S, client: C) -> Vec<String>
where
    S: FnOnce(&ProcessCtx, &mut Ring<'_>) -> SimResult<Vec<String>> + Send + 'static,
    C: Fn(&ProcessCtx, usize, &Conn) -> SimResult<()> + Send + Sync + 'static,
{
    let sim = Sim::new();
    let sapi = Arc::clone(&tb.nodes[1].api);
    let host = sapi.local_host();
    let trace: Arc<Mutex<Vec<String>>> = Arc::default();
    let done = Completion::new();
    let (t2, d2) = (trace.clone(), done.clone());
    sim.spawn("ring-server", move |ctx| {
        let l = sapi
            .listen(ctx, PORT, n_clients.max(4))?
            .expect("port free");
        let mut ring = ring(sapi.as_ref(), cfg, "conf");
        assert_eq!(ring.add_listener(l), 0);
        let tr = server(ctx, &mut ring)?;
        finish_ring(ctx, &mut ring)?;
        *t2.lock().unwrap() = tr;
        d2.complete(ctx);
        Ok(())
    });
    let client = Arc::new(client);
    let cdone: Vec<Completion> = (0..n_clients).map(|_| Completion::new()).collect();
    for (i, cd) in cdone.iter().enumerate() {
        let (api, cf, cd) = (Arc::clone(&tb.nodes[0].api), client.clone(), cd.clone());
        sim.spawn(format!("client-{i}"), move |ctx| {
            let conn = api.connect(ctx, host, PORT)?.expect("connect");
            cf(ctx, i, &conn)?;
            cd.complete(ctx);
            Ok(())
        });
    }
    sim.run();
    assert!(done.is_done(), "server did not finish cleanly");
    for (i, c) in cdone.iter().enumerate() {
        assert!(c.is_done(), "client {i} did not finish cleanly");
    }
    Arc::try_unwrap(trace).unwrap().into_inner().unwrap()
}

/// [`run`] on both [`testbeds`]: the substrate's trace, then the kernel's.
fn run_both<S, C>(n_clients: usize, cfg: RingConfig, server: S, client: C) -> [Vec<String>; 2]
where
    S: FnOnce(&ProcessCtx, &mut Ring<'_>) -> SimResult<Vec<String>> + Copy + Send + 'static,
    C: Fn(&ProcessCtx, usize, &Conn) -> SimResult<()> + Copy + Send + Sync + 'static,
{
    testbeds().map(|tb| run(&tb, n_clients, cfg, server, client))
}

/// Teardown invariants every scenario must leave behind: shutdown
/// releases the whole registered pool, the queues drain to zero, and
/// the push/complete/reap counters balance (no lost or double
/// completions).
fn finish_ring(ctx: &ProcessCtx, ring: &mut Ring<'_>) -> SimResult<()> {
    ring.shutdown(ctx)?;
    assert_eq!(
        ring.free_bufs(),
        ring.cfg().buf_count,
        "registered buffers leaked through teardown"
    );
    let d = ring.depths();
    assert_eq!((d.sq, d.in_flight, d.cq), (0, 0, 0), "ring not drained");
    let c = ring.counters();
    assert_eq!(c.pushed, c.completed, "pushed ops lost");
    assert_eq!(c.completed, c.reaped, "completions lost");
    Ok(())
}

// --- lifecycle: every op kind once, in its natural order -------------

const LIFE_REQ: usize = 32;
const LIFE_REPLY: usize = 8;

fn lifecycle_server(ctx: &ProcessCtx, ring: &mut Ring<'_>) -> SimResult<Vec<String>> {
    let mut trace = Vec::new();
    push(ring, 1, RingOp::Accept { listener: 0 });
    trace.extend(wait_cqes(ctx, ring, 1)?.iter().map(fmt_cqe));
    push(ring, 2, RingOp::Read { conn: 0, buf: 0 });
    trace.extend(wait_cqes(ctx, ring, 1)?.iter().map(fmt_cqe));
    assert_eq!(
        &ring.buf(0).expect("registered")[..LIFE_REQ],
        &pattern(7, LIFE_REQ)[..],
        "request bytes corrupted in the registered buffer"
    );
    ring.fill(1, &pattern(8, LIFE_REPLY)).expect("fill reply");
    push(
        ring,
        3,
        RingOp::Write {
            conn: 0,
            buf: 1,
            len: LIFE_REPLY as u32,
        },
    );
    trace.extend(wait_cqes(ctx, ring, 1)?.iter().map(fmt_cqe));
    push(ring, 4, RingOp::Read { conn: 0, buf: 2 });
    trace.extend(wait_cqes(ctx, ring, 1)?.iter().map(fmt_cqe));
    push(ring, 5, RingOp::Close { conn: 0 });
    trace.extend(wait_cqes(ctx, ring, 1)?.iter().map(fmt_cqe));
    Ok(trace)
}

fn lifecycle_client(ctx: &ProcessCtx, _i: usize, c: &Conn) -> SimResult<()> {
    send_all(ctx, c, &pattern(7, LIFE_REQ))?;
    let reply = recv_exact(ctx, c, LIFE_REPLY)?;
    assert_eq!(reply, pattern(8, LIFE_REPLY), "reply bytes corrupted");
    c.close(ctx)
}

#[test]
fn lifecycle_trace_identical_across_stacks() {
    let cfg = RingConfig::default();
    let [emp, tcp] = run_both(1, cfg, lifecycle_server, lifecycle_client);
    let want = vec![
        "1:accepted(0)".to_string(),
        format!("2:read(b0,{LIFE_REQ})"),
        format!("3:wrote(b1,{LIFE_REPLY})"),
        format!("4:eof(0,{LIFE_REQ})"),
        "5:closed(0)".to_string(),
    ];
    assert_eq!(emp, want, "substrate lifecycle trace");
    assert_eq!(tcp, want, "kernel lifecycle trace");
}

// --- per-connection FIFO: queued ops run and complete in push order --

fn fifo_server(ctx: &ProcessCtx, ring: &mut Ring<'_>) -> SimResult<Vec<String>> {
    let mut trace = Vec::new();
    push(ring, 9, RingOp::Accept { listener: 0 });
    trace.extend(wait_cqes(ctx, ring, 1)?.iter().map(fmt_cqe));
    // Three ops queued on the same connection before any data exists:
    // a read, a write, a read. FIFO means the write cannot jump the
    // queue even though it could complete immediately.
    ring.fill(1, &pattern(2, 8)).expect("fill reply");
    push(ring, 10, RingOp::Read { conn: 0, buf: 0 });
    push(
        ring,
        11,
        RingOp::Write {
            conn: 0,
            buf: 1,
            len: 8,
        },
    );
    push(ring, 12, RingOp::Read { conn: 0, buf: 2 });
    trace.extend(wait_cqes(ctx, ring, 3)?.iter().map(fmt_cqe));
    assert_eq!(&ring.buf(0).expect("registered")[..16], &pattern(1, 16)[..]);
    assert_eq!(&ring.buf(2).expect("registered")[..16], &pattern(3, 16)[..]);
    push(ring, 13, RingOp::Read { conn: 0, buf: 3 });
    trace.extend(wait_cqes(ctx, ring, 1)?.iter().map(fmt_cqe));
    push(ring, 14, RingOp::Close { conn: 0 });
    trace.extend(wait_cqes(ctx, ring, 1)?.iter().map(fmt_cqe));
    Ok(trace)
}

fn fifo_client(ctx: &ProcessCtx, _i: usize, c: &Conn) -> SimResult<()> {
    send_all(ctx, c, &pattern(1, 16))?;
    // The reply only arrives after the first read completed (FIFO), so
    // receiving it synchronizes the second send.
    let reply = recv_exact(ctx, c, 8)?;
    assert_eq!(reply, pattern(2, 8));
    send_all(ctx, c, &pattern(3, 16))?;
    c.close(ctx)
}

#[test]
fn fifo_order_identical_across_stacks() {
    let cfg = RingConfig::default();
    let [emp, tcp] = run_both(1, cfg, fifo_server, fifo_client);
    let want = vec![
        "9:accepted(0)".to_string(),
        // Short reads: 16 bytes into a 4096-byte registered buffer.
        "10:read(b0,16)".to_string(),
        "11:wrote(b1,8)".to_string(),
        "12:read(b2,16)".to_string(),
        "13:eof(0,32)".to_string(),
        "14:closed(0)".to_string(),
    ];
    assert_eq!(emp, want, "substrate FIFO trace");
    assert_eq!(tcp, want, "kernel FIFO trace");
}

// --- EOF: final_seq counts every delivered byte, bytes intact --------

const BULK_TOTAL: usize = 10_000;

fn bulk_read_server(ctx: &ProcessCtx, ring: &mut Ring<'_>) -> SimResult<Vec<String>> {
    let mut trace = Vec::new();
    push(ring, 1, RingOp::Accept { listener: 0 });
    assert_eq!(fmt_cqe(&wait_cqes(ctx, ring, 1)?[0]), "1:accepted(0)");
    let mut got = Vec::with_capacity(BULK_TOTAL);
    let mut ud = 2;
    loop {
        push(ring, ud, RingOp::Read { conn: 0, buf: 0 });
        let cqe = wait_cqes(ctx, ring, 1)?[0];
        assert_eq!(cqe.user_data, ud);
        match cqe.result {
            CqeResult::Read { buf, len } => {
                got.extend_from_slice(&ring.buf(buf).expect("registered")[..len as usize]);
            }
            CqeResult::Close { conn, final_seq } => {
                trace.push(format!("eof({conn},{final_seq})"));
                break;
            }
            other => panic!("unexpected completion {other:?}"),
        }
        ud += 1;
    }
    assert_eq!(got.len(), BULK_TOTAL, "byte count");
    for (i, b) in got.iter().enumerate() {
        assert_eq!(*b, pat(0, i), "byte {i} corrupted");
    }
    push(ring, ud + 1, RingOp::Close { conn: 0 });
    let cqe = wait_cqes(ctx, ring, 1)?[0];
    assert!(matches!(cqe.result, CqeResult::Closed { conn: 0 }));
    trace.push("closed(0)".into());
    Ok(trace)
}

fn bulk_write_client(ctx: &ProcessCtx, _i: usize, c: &Conn) -> SimResult<()> {
    let data = pattern(0, BULK_TOTAL);
    for chunk in data.chunks(1000) {
        send_all(ctx, c, chunk)?;
    }
    c.close(ctx)
}

#[test]
fn eof_final_seq_counts_all_delivered_bytes() {
    // Read sizes differ between the stacks (message vs segment
    // boundaries), so only the EOF accounting is diffed: both must
    // report exactly BULK_TOTAL bytes delivered before the peer close.
    let cfg = RingConfig::default();
    let [emp, tcp] = run_both(1, cfg, bulk_read_server, bulk_write_client);
    let want = vec![format!("eof(0,{BULK_TOTAL})"), "closed(0)".to_string()];
    assert_eq!(emp, want, "substrate EOF accounting");
    assert_eq!(tcp, want, "kernel EOF accounting");
}

// --- short writes: a 64 KiB push through 4 KiB buffers ---------------

const SEND_TOTAL: usize = 65_536;

fn bulk_write_server(ctx: &ProcessCtx, ring: &mut Ring<'_>) -> SimResult<Vec<String>> {
    push(ring, 1, RingOp::Accept { listener: 0 });
    assert_eq!(fmt_cqe(&wait_cqes(ctx, ring, 1)?[0]), "1:accepted(0)");
    let data = pattern(9, SEND_TOTAL);
    let buf_size = ring.cfg().buf_size;
    let mut sent = 0;
    let mut ud = 2;
    while sent < SEND_TOTAL {
        let want = (SEND_TOTAL - sent).min(buf_size);
        ring.fill(0, &data[sent..sent + want]).expect("fill chunk");
        push(
            ring,
            ud,
            RingOp::Write {
                conn: 0,
                buf: 0,
                len: want as u32,
            },
        );
        let cqe = wait_cqes(ctx, ring, 1)?[0];
        match cqe.result {
            // Short writes are legal results: the stack reports what it
            // accepted and the application continues from there.
            CqeResult::Wrote { buf: 0, len } => {
                assert!(
                    (1..=want as u32).contains(&len),
                    "write result {len} out of range 1..={want}"
                );
                sent += len as usize;
            }
            other => panic!("unexpected completion {other:?}"),
        }
        ud += 1;
    }
    push(ring, ud, RingOp::Close { conn: 0 });
    let cqe = wait_cqes(ctx, ring, 1)?[0];
    assert!(matches!(cqe.result, CqeResult::Closed { conn: 0 }));
    Ok(vec![format!("sent({sent})")])
}

fn bulk_read_client(ctx: &ProcessCtx, _i: usize, c: &Conn) -> SimResult<()> {
    let got = recv_exact(ctx, c, SEND_TOTAL)?;
    for (i, b) in got.iter().enumerate() {
        assert_eq!(*b, pat(9, i), "byte {i} corrupted");
    }
    c.close(ctx)
}

#[test]
fn short_writes_deliver_byte_exact_on_both_stacks() {
    let cfg = RingConfig::default();
    let [emp, tcp] = run_both(1, cfg, bulk_write_server, bulk_read_client);
    let want = vec![format!("sent({SEND_TOTAL})")];
    assert_eq!(emp, want, "substrate short-write continuation");
    assert_eq!(tcp, want, "kernel short-write continuation");
}

// --- error surfacing: ops behind a Close fail in order, retired ids
// --- are rejected at push -------------------------------------------

fn close_order_server(ctx: &ProcessCtx, ring: &mut Ring<'_>) -> SimResult<Vec<String>> {
    let mut trace = Vec::new();
    push(ring, 1, RingOp::Accept { listener: 0 });
    trace.extend(wait_cqes(ctx, ring, 1)?.iter().map(fmt_cqe));
    // A close with ops queued behind it: the close wins, the rest fail
    // with the stack-agnostic `Closed` error, in submission order.
    ring.fill(1, &[7; 4]).expect("fill");
    push(ring, 20, RingOp::Close { conn: 0 });
    push(ring, 21, RingOp::Read { conn: 0, buf: 0 });
    push(
        ring,
        22,
        RingOp::Write {
            conn: 0,
            buf: 1,
            len: 4,
        },
    );
    trace.extend(wait_cqes(ctx, ring, 3)?.iter().map(fmt_cqe));
    // The id is retired: later pushes are rejected synchronously.
    assert_eq!(
        ring.push(Sqe::new(23, RingOp::Read { conn: 0, buf: 0 })),
        Err(RingError::BadTarget(0)),
        "retired connection id must be rejected at push"
    );
    Ok(trace)
}

#[test]
fn ops_behind_close_fail_identically_across_stacks() {
    let cfg = RingConfig::default();
    let [emp, tcp] = run_both(1, cfg, close_order_server, |ctx, _i, c| c.close(ctx));
    let want = vec![
        "1:accepted(0)".to_string(),
        "20:closed(0)".to_string(),
        "21:failed(Closed)".to_string(),
        "22:failed(Closed)".to_string(),
    ];
    assert_eq!(emp, want, "substrate close-ordering trace");
    assert_eq!(tcp, want, "kernel close-ordering trace");
}

// --- push validation: every typed backpressure/argument error --------

#[test]
fn push_validation_surfaces_typed_errors() {
    // Engine-level validation never reaches the stack, so both must agree
    // trivially. sq=8 > cq=3 makes CQ admission the binding constraint.
    let cfg = RingConfig {
        sq_depth: 8,
        cq_depth: 3,
        buf_count: 4,
        buf_size: 64,
        max_registered_bytes: None,
    };
    let server = |ctx: &ProcessCtx, ring: &mut Ring<'_>| {
        // A wait with nothing committed can never end: typed error.
        assert_eq!(
            ring.submit_and_wait(ctx, 1)?,
            Err(RingError::Stalled),
            "empty ring must refuse to park"
        );
        push(ring, 1, RingOp::Accept { listener: 0 });
        let cqes = wait_cqes(ctx, ring, 1)?;
        assert!(matches!(cqes[0].result, CqeResult::Accepted { conn: 0 }));

        let read = |buf| Sqe::new(40, RingOp::Read { conn: 0, buf });
        ring.push(read(0)).expect("first read admitted");
        // The same registered buffer cannot back two in-flight ops.
        assert_eq!(ring.push(read(0)), Err(RingError::BufInFlight(0)));
        assert_eq!(ring.push(read(99)), Err(RingError::BadBuf(99)));
        assert_eq!(
            ring.push(Sqe::new(
                41,
                RingOp::Write {
                    conn: 0,
                    buf: 1,
                    len: 65,
                },
            )),
            Err(RingError::BadLen { buf: 1, len: 65 }),
            "write longer than the registered buffer"
        );
        assert_eq!(
            ring.push(Sqe::new(42, RingOp::Read { conn: 7, buf: 1 })),
            Err(RingError::BadTarget(7)),
            "unknown connection id"
        );
        // CQ admission: committed ops (SQ + in flight + unreaped CQEs)
        // are capped at cq_depth so completions can never be dropped.
        push(ring, 43, RingOp::Read { conn: 0, buf: 1 });
        push(ring, 44, RingOp::Read { conn: 0, buf: 2 });
        assert_eq!(
            ring.push(Sqe::new(45, RingOp::Read { conn: 0, buf: 3 })),
            Err(RingError::CqOverflow),
            "admitting a 4th op could overflow the 3-deep CQ"
        );
        Ok(Vec::new())
    };
    run_both(1, cfg, server, |ctx, _i, c| c.close(ctx));

    // With a deep CQ the submission queue itself is the bound.
    let cfg = RingConfig {
        sq_depth: 2,
        cq_depth: 8,
        buf_count: 4,
        buf_size: 64,
        max_registered_bytes: None,
    };
    let server = |ctx: &ProcessCtx, ring: &mut Ring<'_>| {
        push(ring, 1, RingOp::Accept { listener: 0 });
        let cqes = wait_cqes(ctx, ring, 1)?;
        assert!(matches!(cqes[0].result, CqeResult::Accepted { conn: 0 }));
        push(ring, 50, RingOp::Read { conn: 0, buf: 0 });
        push(ring, 51, RingOp::Read { conn: 0, buf: 1 });
        assert_eq!(
            ring.push(Sqe::new(52, RingOp::Read { conn: 0, buf: 2 })),
            Err(RingError::SqFull),
            "third unsubmitted push overflows the 2-deep SQ"
        );
        Ok(Vec::new())
    };
    run_both(1, cfg, server, |ctx, _i, c| c.close(ctx));
}

// --- 32 concurrent connections, byte-exact echo ----------------------

const ECHO_CONNS: usize = 32;
const ECHO_REQS: usize = 4;
const ECHO_MSG: usize = 512;

struct EchoState {
    buf: u32,
    pending: Vec<u8>,
    sent: usize,
}

/// A completion-model echo server driven directly against the ring
/// engine: one op in flight per connection, one registered buffer per
/// connection, accepts re-armed until every expected client arrived.
fn echo_server(ctx: &ProcessCtx, ring: &mut Ring<'_>) -> SimResult<Vec<String>> {
    const UD_ACCEPT: u64 = u64::MAX;
    let mut free: Vec<u32> = (0..ring.cfg().buf_count as u32).collect();
    let mut st: BTreeMap<u32, EchoState> = BTreeMap::new();
    let mut accepted = 0usize;
    let mut closed = 0usize;
    push(ring, UD_ACCEPT, RingOp::Accept { listener: 0 });
    while closed < ECHO_CONNS {
        ring.submit_and_wait(ctx, 1)?
            .expect("a live connection always has a committed op");
        for cqe in ring.reap(usize::MAX) {
            match cqe.result {
                CqeResult::Accepted { conn } => {
                    accepted += 1;
                    if accepted < ECHO_CONNS {
                        push(ring, UD_ACCEPT, RingOp::Accept { listener: 0 });
                    }
                    let buf = free.pop().expect("pool holds one buffer per conn");
                    st.insert(
                        conn,
                        EchoState {
                            buf,
                            pending: Vec::new(),
                            sent: 0,
                        },
                    );
                    push(ring, u64::from(conn), RingOp::Read { conn, buf });
                }
                CqeResult::Read { buf, len } => {
                    let conn = cqe.user_data as u32;
                    let s = st.get_mut(&conn).expect("known conn");
                    s.pending = ring.buf(buf).expect("registered")[..len as usize].to_vec();
                    s.sent = 0;
                    ring.fill(buf, &s.pending).expect("echo refill");
                    push(
                        ring,
                        u64::from(conn),
                        RingOp::Write {
                            conn,
                            buf,
                            len: s.pending.len() as u32,
                        },
                    );
                }
                CqeResult::Wrote { buf, len } => {
                    let conn = cqe.user_data as u32;
                    let s = st.get_mut(&conn).expect("known conn");
                    s.sent += len as usize;
                    if s.sent < s.pending.len() {
                        // Short write: continue from where the stack
                        // stopped, same registered buffer.
                        let rest = s.pending[s.sent..].to_vec();
                        ring.fill(buf, &rest).expect("refill rest");
                        push(
                            ring,
                            u64::from(conn),
                            RingOp::Write {
                                conn,
                                buf,
                                len: rest.len() as u32,
                            },
                        );
                    } else {
                        push(ring, u64::from(conn), RingOp::Read { conn, buf });
                    }
                }
                CqeResult::Close { conn, final_seq } => {
                    assert_eq!(
                        final_seq,
                        (ECHO_REQS * ECHO_MSG) as u64,
                        "conn {conn} EOF accounting"
                    );
                    free.push(st.remove(&conn).expect("known conn").buf);
                    push(ring, u64::from(conn), RingOp::Close { conn });
                }
                CqeResult::Closed { .. } => closed += 1,
                CqeResult::Failed { err } => panic!("echo op failed: {err:?}"),
            }
        }
    }
    assert_eq!(ring.live_conns(), 0, "all connections retired");
    Ok(vec![format!("served({closed})")])
}

fn echo_client(ctx: &ProcessCtx, i: usize, c: &Conn) -> SimResult<()> {
    for r in 0..ECHO_REQS {
        let msg = pattern(i * ECHO_REQS + r + 11, ECHO_MSG);
        send_all(ctx, c, &msg)?;
        let echo = recv_exact(ctx, c, ECHO_MSG)?;
        assert_eq!(echo, msg, "client {i} round {r} echo mismatch");
    }
    c.close(ctx)
}

fn echo_cfg() -> RingConfig {
    RingConfig {
        sq_depth: 2 * ECHO_CONNS + 4,
        cq_depth: 4 * ECHO_CONNS + 8,
        buf_count: ECHO_CONNS + 4,
        buf_size: 4096,
        max_registered_bytes: None,
    }
}

#[test]
fn echo_32_connections_byte_exact_on_substrate() {
    let [emp, _] = testbeds();
    let trace = run(&emp, ECHO_CONNS, echo_cfg(), echo_server, echo_client);
    assert_eq!(trace, vec![format!("served({ECHO_CONNS})")]);
}

#[test]
fn echo_32_connections_byte_exact_on_kernel() {
    let [_, tcp] = testbeds();
    let trace = run(&tcp, ECHO_CONNS, echo_cfg(), echo_server, echo_client);
    assert_eq!(trace, vec![format!("served({ECHO_CONNS})")]);
}

// --- per-op deadlines: a deadlined Sqe fires Timeout while ops on
// --- other targets proceed, and head-of-line releases afterwards ----

fn deadline_server(ctx: &ProcessCtx, ring: &mut Ring<'_>) -> SimResult<Vec<String>> {
    let mut trace = Vec::new();
    let ms = SimDuration::from_millis;
    push(ring, 1, RingOp::Accept { listener: 0 });
    trace.extend(wait_cqes(ctx, ring, 1)?.iter().map(fmt_cqe));

    // A deadlined accept nobody will ever satisfy, alongside a read the
    // client answers at ~1 ms. The read must complete on schedule — the
    // stalled accept is on a different target and cannot block it —
    // and the accept must then expire as a typed Timeout at 5 ms.
    ring.push(Sqe::new(20, RingOp::Accept { listener: 0 }).with_deadline(ctx.now() + ms(5)))
        .expect("push deadlined accept");
    push(ring, 21, RingOp::Read { conn: 0, buf: 0 });
    trace.extend(wait_cqes(ctx, ring, 2)?.iter().map(fmt_cqe));

    // A deadlined read the client never satisfies, with a write queued
    // behind it on the same connection: per-target FIFO holds the write
    // until the deadline retires the read, then the write proceeds.
    ring.fill(2, &[7; 4]).expect("fill");
    ring.push(Sqe::new(22, RingOp::Read { conn: 0, buf: 1 }).with_deadline(ctx.now() + ms(5)))
        .expect("push deadlined read");
    push(
        ring,
        23,
        RingOp::Write {
            conn: 0,
            buf: 2,
            len: 4,
        },
    );
    trace.extend(wait_cqes(ctx, ring, 2)?.iter().map(fmt_cqe));

    push(ring, 24, RingOp::Close { conn: 0 });
    trace.extend(wait_cqes(ctx, ring, 1)?.iter().map(fmt_cqe));
    Ok(trace)
}

fn deadline_client(ctx: &ProcessCtx, _i: usize, c: &Conn) -> SimResult<()> {
    ctx.delay(SimDuration::from_millis(1))?;
    send_all(ctx, c, &[9; 4])?;
    let got = recv_exact(ctx, c, 4)?;
    assert_eq!(got, [7; 4], "post-timeout write corrupted");
    c.close(ctx)
}

fn deadline_trace() -> Vec<String> {
    vec![
        "1:accepted(0)".to_string(),
        "21:read(b0,4)".to_string(),
        "20:failed(Timeout)".to_string(),
        "22:failed(Timeout)".to_string(),
        "23:wrote(b2,4)".to_string(),
        "24:closed(0)".to_string(),
    ]
}

#[test]
fn deadlined_sqes_time_out_while_other_targets_proceed_on_both_stacks() {
    let cfg = RingConfig::default();
    let [emp, tcp] = run_both(1, cfg, deadline_server, deadline_client);
    assert_eq!(emp, deadline_trace(), "substrate deadline trace");
    assert_eq!(tcp, deadline_trace(), "kernel deadline trace");
}

// --- ring deadlines compose with the substrate's connection-level
// --- timeout knobs (connect timeout, peer watchdog) -----------------

#[test]
fn ring_deadlines_fire_under_connect_timeout_and_peer_watchdog() {
    let ms = SimDuration::from_millis;
    // Both overload knobs armed: the connect path carries a 50 ms
    // deadline, blocking waits a 20 ms ack-starvation watchdog. Ring
    // deadlines are shorter than both and must fire independently.
    let cfg = SubstrateConfig::ds_da_uq()
        .with_connect_timeout(ms(50))
        .with_peer_watchdog(ms(20));
    let tb = Testbed::emp(2, EmpConfig::default(), cfg, "emp-watchdog");
    let server = move |ctx: &ProcessCtx, ring: &mut Ring<'_>| {
        push(ring, 1, RingOp::Accept { listener: 0 });
        let cqes = wait_cqes(ctx, ring, 1)?;
        assert!(matches!(cqes[0].result, CqeResult::Accepted { conn: 0 }));

        // The client stays silent for 10 ms — longer than the 5 ms ring
        // deadline, shorter than the 20 ms watchdog. The deadline wins
        // and the connection survives it.
        let t0 = ctx.now();
        ring.push(Sqe::new(20, RingOp::Read { conn: 0, buf: 0 }).with_deadline(t0 + ms(5)))
            .expect("push deadlined read");
        let cqes = wait_cqes(ctx, ring, 1)?;
        assert!(
            matches!(
                cqes[0].result,
                CqeResult::Failed {
                    err: simnet::NetError::Timeout
                }
            ),
            "5 ms ring deadline must fire before the 20 ms watchdog: {cqes:?}"
        );
        assert_eq!(ctx.now().since(t0), ms(5), "deadline fired off schedule");

        // The connection is still live: a fresh undeadlined read picks
        // up the client's (late) payload.
        push(ring, 21, RingOp::Read { conn: 0, buf: 0 });
        let cqes = wait_cqes(ctx, ring, 1)?;
        assert!(
            matches!(cqes[0].result, CqeResult::Read { buf: 0, len: 4 }),
            "post-deadline read must still deliver: {cqes:?}"
        );
        push(ring, 22, RingOp::Close { conn: 0 });
        let _ = wait_cqes(ctx, ring, 1)?;
        Ok(Vec::new())
    };
    let client = move |ctx: &ProcessCtx, _i: usize, conn: &Conn| {
        ctx.delay(ms(10))?;
        conn.write(ctx, &[5; 4])?.expect("late write");
        conn.close(ctx)
    };
    run(&tb, 1, RingConfig::default(), server, client);
}

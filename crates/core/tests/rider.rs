//! The connection request carries the first write (DESIGN §12). Under the
//! §6.1 switch (`SubstrateConfig::piggyback_acks`, on in `default()`) a
//! non-blocking stream `connect()` sends nothing yet; the connection's
//! first operation sends the request. A first write of
//! 1..=`proto::FIRST_MAX` bytes travels inside it as data message 0, and
//! the acceptor queues those bytes with no data descriptor and no credit
//! due. Every other first operation sends the bare request, then runs as
//! before. Blocking connects and the presets send the request at once, and
//! every listener, preset or not, accepts a request with data aboard.

use std::sync::Arc;

use emp_proto::{build_cluster, EmpCluster, EmpConfig};
use parking_lot::Mutex;
use simnet::{
    Completion, Interest, ProcessCtx, Sim, SimAccess, SimDuration, SimResult, SwitchConfig,
};
use sockets_emp::proto::FIRST_MAX;
use sockets_emp::{ConnStats, Connection, EmpSockets, PollSet, SockAddr, SubstrateConfig};

fn cluster() -> EmpCluster {
    build_cluster(2, EmpConfig::default(), SwitchConfig::default())
}

/// Byte `i` of stream `tag`.
fn pattern(tag: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + tag * 7 + 3) % 251) as u8)
        .collect()
}

/// Bytes the client writes after its first operation, and the server's
/// greeting and reply sizes.
const TAIL: usize = 64;
const GREETING: usize = 32;
const REPLY: usize = 700;

/// What the client does first with a fresh connection.
#[derive(Clone, Copy, Debug)]
enum First {
    /// `write` of this many request bytes (then the `TAIL`).
    Write(usize),
    Read,
    PollReadable,
    Flush,
    TryWrite,
    Close,
}

impl First {
    /// Request bytes the server reads.
    fn request_len(self) -> usize {
        match self {
            First::Write(n) => n + TAIL,
            First::Close => 0,
            _ => TAIL,
        }
    }
}

/// One side's counters just before it closed.
#[derive(Clone, Copy, Debug, Default)]
struct Side {
    stats: ConnStats,
    /// Data descriptors consumed and waiting for their re-arm.
    rearms_pending: usize,
}

/// What one exchange left behind.
struct Outcome {
    client: Side,
    server: Side,
    /// Telemetry counters: what closing connections published.
    counters: std::collections::BTreeMap<String, u64>,
    /// Descriptors still posted on each NIC after every close.
    preposted: [usize; 2],
    /// Registered buffer ranges back in each process's pool.
    pooled: [usize; 2],
    /// The server re-arms consumed descriptors on its sends (§6.1
    /// switch on); a preset server reposts them at read time.
    server_rearms: bool,
}

impl Outcome {
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// The server greets each accepted connection (unless `greet` is off),
/// reads the request, answers it, and waits for EOF. The client runs
/// `first`, then reads the greeting, sends what is left of its request
/// and reads the answer. Every byte is checked both ways.
fn exchange(first: First, server_cfg: SubstrateConfig, client_cfg: SubstrateConfig) -> Outcome {
    let sim = Sim::new();
    let cl = cluster();
    let server_rearms = server_cfg.piggyback_acks;
    let server = EmpSockets::new(cl.nodes[1].endpoint(), server_cfg);
    let client = EmpSockets::new(cl.nodes[0].endpoint(), client_cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let sides: Arc<Mutex<[Side; 2]>> = Arc::default();
    let greet = !matches!(first, First::Close);

    let (s, api) = (Arc::clone(&sides), server.clone());
    sim.spawn("server", move |ctx| {
        let l = api.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        if greet {
            conn.write(ctx, &pattern(1, GREETING))?.expect("greeting");
        }
        let want = first.request_len();
        if want > 0 {
            let req = conn.read_exact(ctx, want)?.expect("read").expect("request");
            assert_eq!(&req[..], &pattern(0, want)[..], "{first:?}: request bytes");
            conn.write(ctx, &pattern(2, REPLY))?.expect("reply");
        }
        assert!(
            conn.read(ctx, 1)?.expect("eof").is_empty(),
            "{first:?}: EOF"
        );
        s.lock()[1] = side(&conn);
        conn.close(ctx)?;
        l.close(ctx)
    });
    let (s, api) = (Arc::clone(&sides), client.clone());
    sim.spawn("client", move |ctx| {
        let conn = api.connect(ctx, addr)?.expect("connect");
        let req = pattern(0, first.request_len());
        let mut sent = 0;
        let mut greeted = false;
        match first {
            First::Write(n) => {
                assert_eq!(conn.write(ctx, &req[..n])?, Ok(n));
                sent = n;
            }
            First::Read => {
                read_greeting(ctx, &conn)?;
                greeted = true;
            }
            First::PollReadable => {
                let mut set = PollSet::new();
                set.register_conn(&conn, 0, Interest::READABLE);
                let events = set.poll(ctx, None)?.expect("poll");
                assert_eq!(events[0].ready, Interest::READABLE);
            }
            First::Flush => conn.flush(ctx)?.expect("flush"),
            First::TryWrite => {
                assert_eq!(conn.try_write(ctx, &req)?, Ok(TAIL));
                sent = TAIL;
            }
            First::Close => {
                conn.close(ctx)?;
                s.lock()[0] = side(&conn);
                return Ok(());
            }
        }
        if sent < req.len() {
            conn.write(ctx, &req[sent..])?.expect("request");
        }
        if !greeted {
            read_greeting(ctx, &conn)?;
        }
        let reply = conn.read_exact(ctx, REPLY)?.expect("read").expect("reply");
        assert_eq!(&reply[..], &pattern(2, REPLY)[..], "{first:?}: reply bytes");
        s.lock()[0] = side(&conn);
        conn.close(ctx)
    });
    sim.run();
    let [client_side, server_side] = *sides.lock();
    Outcome {
        client: client_side,
        server: server_side,
        counters: sim.telemetry().snapshot().counters,
        preposted: [
            cl.nodes[0].nic.preposted_len(),
            cl.nodes[1].nic.preposted_len(),
        ],
        pooled: [client.stats().pooled_ranges, server.stats().pooled_ranges],
        server_rearms,
    }
}

fn read_greeting(ctx: &ProcessCtx, conn: &Connection) -> SimResult<()> {
    let g = conn
        .read_exact(ctx, GREETING)?
        .expect("read")
        .expect("greeting");
    assert_eq!(&g[..], &pattern(1, GREETING)[..], "greeting bytes");
    Ok(())
}

fn side(conn: &Connection) -> Side {
    Side {
        stats: conn.stats(),
        rearms_pending: conn.debug_state().rearms_pending,
    }
}

/// The checks every exchange passes: the client's rider count is `riders`,
/// each side received every message the other sent, every message but a
/// rider consumed a data descriptor that was re-armed or still waits for
/// its re-arm, and no connection closed holding a credit without its
/// descriptor or other than its window of descriptors.
fn assert_clean(first: First, o: &Outcome, riders: u64) {
    let (c, s) = (o.client.stats, o.server.stats);
    assert_eq!(c.conn_riders, riders, "{first:?}");
    assert_eq!(o.counter("sock.conn_riders"), riders, "{first:?}");
    assert_eq!(s.msgs_received, c.msgs_sent, "{first:?}: server got all");
    assert_eq!(c.msgs_received, s.msgs_sent, "{first:?}: client got all");
    if o.server_rearms {
        assert_eq!(
            s.rearms_ridden + o.server.rearms_pending as u64,
            s.msgs_received - riders,
            "{first:?}: a rider binds no descriptor, every other message one"
        );
    }
    assert_eq!(
        c.rearms_ridden + o.client.rearms_pending as u64,
        c.msgs_received,
        "{first:?}"
    );
    for name in ["sock.credits_without_rearm", "sock.window_unaccounted"] {
        assert_eq!(o.counter(name), 0, "{first:?}: {name}");
    }
    assert_eq!(o.preposted, [0, 0], "{first:?}: a descriptor was stranded");
}

#[test]
fn a_first_write_up_to_first_max_rides_the_request() {
    for n in [1, 16, FIRST_MAX] {
        let first = First::Write(n);
        let o = exchange(
            first,
            SubstrateConfig::default(),
            SubstrateConfig::default(),
        );
        assert_clean(first, &o, 1);
        // The rider and the tail: two messages, one credit spent.
        assert_eq!(o.client.stats.msgs_sent, 2, "{first:?}");
        assert_eq!(o.client.stats.bytes_sent, (n + TAIL) as u64);
        assert_eq!(o.server.stats.bytes_received, (n + TAIL) as u64);
    }
}

#[test]
fn a_larger_or_empty_first_write_sends_the_bare_request() {
    // FIRST_MAX + 1 goes as an ordinary data message behind the bare
    // request; an empty write is an empty data message, as on a preset.
    for n in [FIRST_MAX + 1, 0] {
        let first = First::Write(n);
        let o = exchange(
            first,
            SubstrateConfig::default(),
            SubstrateConfig::default(),
        );
        assert_clean(first, &o, 0);
        assert_eq!(o.client.stats.msgs_sent, 2, "{first:?}");
        assert_eq!(o.server.stats.bytes_received, (n + TAIL) as u64);
    }
}

#[test]
fn every_other_first_operation_sends_the_bare_request() {
    for first in [
        First::Read,
        First::PollReadable,
        First::Flush,
        First::TryWrite,
    ] {
        let o = exchange(
            first,
            SubstrateConfig::default(),
            SubstrateConfig::default(),
        );
        assert_clean(first, &o, 0);
        assert_eq!(o.client.stats.msgs_sent, 1, "{first:?}: the request bytes");
        assert_eq!(o.server.stats.bytes_sent, (GREETING + REPLY) as u64);
    }
}

#[test]
fn close_first_gives_the_server_eof_and_leaks_nothing() {
    let o = exchange(
        First::Close,
        SubstrateConfig::default(),
        SubstrateConfig::default(),
    );
    assert_clean(First::Close, &o, 0);
    assert_eq!(o.client.stats.msgs_sent, 0);
    assert_eq!(o.server.stats.msgs_received, 0);
    // Every range either side registered for its connection is back in
    // its pool: send, fc-ack, control, rendezvous and user buffers, and
    // the staging buffers of a two-descriptor window.
    assert_eq!(o.pooled, [7, 7]);
}

#[test]
fn a_preset_listener_accepts_a_request_with_data() {
    let first = First::Write(100);
    let o = exchange(
        first,
        SubstrateConfig::ds_da_uq(),
        SubstrateConfig::default(),
    );
    assert_clean(first, &o, 1);
    // The preset server reposts at read time, and its window is N.
    assert_eq!(o.server.stats.rearms_ridden, 0);
    assert_eq!(o.server.rearms_pending, 0);
}

#[test]
fn a_blocking_connect_never_carries_data() {
    // A connect policy must learn of a refusal, so the request goes at
    // once and bare: the server has accepted before the first write.
    let client_cfg = SubstrateConfig::default().with_connect_timeout(SimDuration::from_millis(50));
    let first = First::Write(100);
    let o = exchange(first, SubstrateConfig::default(), client_cfg.clone());
    assert_clean(first, &o, 0);

    let sim = Sim::new();
    let cl = cluster();
    let server = EmpSockets::new(cl.nodes[1].endpoint(), SubstrateConfig::default());
    let client = EmpSockets::new(cl.nodes[0].endpoint(), client_cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let accepted_at = Arc::new(Mutex::new(None));
    let a = Arc::clone(&accepted_at);
    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        *a.lock() = Some(ctx.now());
        assert!(conn.read(ctx, 1)?.expect("eof").is_empty());
        conn.close(ctx)?;
        l.close(ctx)
    });
    sim.spawn("client", move |ctx| {
        ctx.delay(SimDuration::from_micros(100))?;
        let conn = client.connect(ctx, addr)?.expect("connect");
        ctx.delay(SimDuration::from_millis(1))?;
        let accepted = accepted_at.lock().expect("accepted before any operation");
        assert!(accepted < ctx.now());
        conn.close(ctx)
    });
    sim.run();
}

#[test]
fn requests_with_data_fit_every_backlog_slot() {
    // A 16-deep backlog serves 40 connections one after another: the
    // 17th request lands in the first slot `accept()` posted to replace
    // one, the 40th in a replacement of a replacement. Every request
    // carries a first write of FIRST_MAX bytes, which fits only a slot
    // sized for it.
    const CONNS: usize = 40;
    let sim = Sim::new();
    let cl = cluster();
    let server = EmpSockets::new(cl.nodes[1].endpoint(), SubstrateConfig::default());
    let client = EmpSockets::new(cl.nodes[0].endpoint(), SubstrateConfig::default());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let served = Arc::new(Mutex::new(0usize));
    let s = Arc::clone(&served);
    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 16)?.expect("port free");
        for k in 0..CONNS {
            let conn = l.accept(ctx)?.expect("connection");
            let req = conn
                .read_exact(ctx, FIRST_MAX)?
                .expect("read")
                .expect("request");
            assert_eq!(&req[..], &pattern(k, FIRST_MAX)[..], "connection {k}");
            assert_eq!(conn.debug_state().rearms_pending, 0, "connection {k}");
            conn.write(ctx, &pattern(k + 1, REPLY))?.expect("reply");
            assert!(conn.read(ctx, 1)?.expect("eof").is_empty());
            conn.close(ctx)?;
            *s.lock() += 1;
        }
        l.close(ctx)
    });
    sim.spawn("client", move |ctx| {
        for k in 0..CONNS {
            let conn = client.connect(ctx, addr)?.expect("connect");
            conn.write(ctx, &pattern(k, FIRST_MAX))?.expect("request");
            let reply = conn.read_exact(ctx, REPLY)?.expect("read").expect("reply");
            assert_eq!(&reply[..], &pattern(k + 1, REPLY)[..], "connection {k}");
            assert_eq!(conn.stats().conn_riders, 1, "connection {k}");
            conn.close(ctx)?;
        }
        Ok(())
    });
    sim.run();
    assert_eq!(*served.lock(), CONNS, "a request found no slot it fits");
    let counters = sim.telemetry().snapshot().counters;
    assert_eq!(counters.get("sock.conn_riders"), Some(&(CONNS as u64)));
    assert_eq!(counters.get("sock.window_unaccounted"), None);
    assert_eq!(counters.get("sock.credits_without_rearm"), None);
}

#[test]
fn a_rider_then_an_immediate_close_is_read_before_eof() {
    // The close counts the rider as data message 0 (`final_seq` 1), and
    // the accept that queues it makes the stream whole: the server reads
    // every byte, then EOF.
    let sim = Sim::new();
    let cl = cluster();
    let server = EmpSockets::new(cl.nodes[1].endpoint(), SubstrateConfig::default());
    let client = EmpSockets::new(cl.nodes[0].endpoint(), SubstrateConfig::default());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let got: Arc<Mutex<Vec<u8>>> = Arc::default();
    let g = Arc::clone(&got);
    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        loop {
            let m = conn.read(ctx, 4096)?.expect("data");
            if m.is_empty() {
                break;
            }
            g.lock().extend_from_slice(&m);
        }
        conn.close(ctx)?;
        l.close(ctx)
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.write(ctx, &pattern(0, 300))?.expect("rider");
        assert_eq!(conn.stats().conn_riders, 1);
        conn.close(ctx)
    });
    sim.run();
    assert_eq!(&got.lock()[..], &pattern(0, 300)[..]);
    assert_eq!(cl.nodes[1].nic.preposted_len(), 0);
}

#[test]
fn a_read_on_another_process_during_the_first_write_keeps_the_rider() {
    // Two processes share the connection. The reader's first operation
    // lands while the writer's rider is still being copied: it must find
    // the request already claimed, not send it bare and lose the bytes.
    const REQ: usize = 100;
    let sim = Sim::new();
    let cl = cluster();
    let server = EmpSockets::new(cl.nodes[1].endpoint(), SubstrateConfig::default());
    let client = EmpSockets::new(cl.nodes[0].endpoint(), SubstrateConfig::default());
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let shared: Arc<Mutex<Option<Arc<Connection>>>> = Arc::default();
    let ready = Completion::new();
    let sides: Arc<Mutex<[Option<Side>; 2]>> = Arc::default();

    let s = Arc::clone(&sides);
    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let req = conn.read_exact(ctx, REQ)?.expect("read").expect("request");
        assert_eq!(&req[..], &pattern(0, REQ)[..], "request bytes");
        conn.write(ctx, &pattern(2, REPLY))?.expect("reply");
        assert!(conn.read(ctx, 1)?.expect("eof").is_empty(), "EOF");
        s.lock()[1] = Some(side(&conn));
        conn.close(ctx)?;
        l.close(ctx)
    });
    let (slot, go) = (Arc::clone(&shared), ready.clone());
    sim.spawn("writer", move |ctx| {
        let conn = Arc::new(client.connect(ctx, addr)?.expect("connect"));
        *slot.lock() = Some(Arc::clone(&conn));
        go.complete(ctx);
        assert_eq!(conn.write(ctx, &pattern(0, REQ))?, Ok(REQ));
        Ok(())
    });
    let (slot, s) = (Arc::clone(&shared), Arc::clone(&sides));
    sim.spawn("reader", move |ctx| {
        ready.wait(ctx)?;
        let conn = slot.lock().clone().expect("connection shared");
        let reply = conn.read_exact(ctx, REPLY)?.expect("read").expect("reply");
        assert_eq!(&reply[..], &pattern(2, REPLY)[..], "reply bytes");
        s.lock()[0] = Some(side(&conn));
        conn.close(ctx)
    });
    sim.run();
    let [c, s] = *sides.lock();
    let (c, s) = (c.expect("client finished"), s.expect("server finished"));
    assert_eq!(c.stats.conn_riders, 1, "the write rode the request");
    assert_eq!((s.stats.msgs_received, c.stats.msgs_sent), (1, 1));
    assert_eq!(s.stats.bytes_received, REQ as u64);
    let counters = sim.telemetry().snapshot().counters;
    for name in ["sock.credits_without_rearm", "sock.window_unaccounted"] {
        assert_eq!(counters.get(name).copied().unwrap_or(0), 0, "{name}");
    }
    assert_eq!(
        [
            cl.nodes[0].nic.preposted_len(),
            cl.nodes[1].nic.preposted_len()
        ],
        [0, 0]
    );
}

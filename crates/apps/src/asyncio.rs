//! The async/await front end: straight-line handlers over both stacks.
//!
//! Everything here runs inside an [`emp_async::LocalExecutor`] on one
//! simulated process — single-threaded, woken only by simulation events,
//! deterministic for a given seed. The socket surface is phase-typed the
//! way Demikernel splits its queue descriptors: an [`AsyncConnector`]
//! (the API handle) opens connections and listeners, an
//! [`AsyncListener`] accepts, and an [`AsyncStream`] carries bytes. Each
//! type only offers the operations its phase allows, so "read before
//! connect" is unrepresentable rather than a runtime error.
//!
//! Two wake sources feed the futures:
//!
//! * **readiness** — [`crate::NetConn::poll_ready`] and
//!   [`NetListener::poll_acceptable`] arm a waker in the stack's readiness
//!   layer; the leaf futures here retry the nonblocking call after each
//!   wake (`try_read` → `WouldBlock` → wait readable → retry);
//! * **completion** — [`AsyncRing`] wraps the facade's completion ring
//!   ([`Ring`]) and parks ops as futures on their CQEs via
//!   [`simnet::ring::RingCore::register_waker`].
//!
//! Cancellation is dropping the future. A dropped readiness wait disarms
//! the stateful wake sources it armed ([`crate::NetConn::cancel_ready`] —
//! the substrate's flow-control ack watch); a dropped ring op is cancelled
//! in the submission queue ([`simnet::ring::RingCore::cancel`]) or, when
//! already past that point, marked abandoned so its completion is
//! discarded and its buffer returned on the next reap. Deadlines compose
//! the same way: [`emp_async::timeout`] drops the losing future, which
//! *is* the cancellation.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use bytes::Bytes;
use emp_async::{try_with_ctx, with_ctx, LocalExecutor};
use simnet::{
    MacAddr, OpResult, ProcessCtx, SimAccess, SimAccessExt, SimDuration, SimResult, SimTime,
};

use crate::api::{
    ring, Api, Conn, CqeResult, Interest, NetApi, NetError, NetListener, Ring, RingConfig,
    RingCounters, RingDepths, RingOp, Sqe,
};
use crate::serve::READ_CHUNK;

// ---------------------------------------------------------------------
// Phase 1: the connector
// ---------------------------------------------------------------------

/// The entry phase of the async socket lifecycle: opens connections
/// (→ [`AsyncStream`]) and listeners (→ [`AsyncListener`]) on one stack.
pub struct AsyncConnector {
    api: Api,
}

impl AsyncConnector {
    /// Wrap a stack API.
    pub fn new(api: Api) -> Self {
        AsyncConnector { api }
    }

    /// The wrapped API.
    pub fn api(&self) -> &Api {
        &self.api
    }

    /// Active open. The blocking handshake runs on a helper process
    /// ([`emp_async::spawn_blocking`]), so sibling tasks keep running
    /// while this connection is being set up.
    pub async fn connect(&self, host: MacAddr, port: u16) -> OpResult<AsyncStream> {
        let api = Arc::clone(&self.api);
        let res =
            emp_async::spawn_blocking("async-connect", move |ctx| api.connect(ctx, host, port))
                .await?;
        Ok(res.map(AsyncStream::new))
    }

    /// [`Self::connect`] bounded by `deadline` — the stack's typed
    /// connect timeout ([`NetError::Timeout`] / [`NetError::Refused`]).
    pub async fn connect_deadline(
        &self,
        host: MacAddr,
        port: u16,
        deadline: SimDuration,
    ) -> OpResult<AsyncStream> {
        let api = Arc::clone(&self.api);
        let res = emp_async::spawn_blocking("async-connect", move |ctx| {
            api.connect_deadline(ctx, host, port, deadline)
        })
        .await?;
        Ok(res.map(AsyncStream::new))
    }

    /// Passive open: bind `port` and move to the listening phase.
    pub async fn listen(&self, port: u16, backlog: usize) -> OpResult<AsyncListener> {
        let res = with_ctx(|ctx| self.api.listen(ctx, port, backlog))?;
        Ok(res.map(AsyncListener::new))
    }
}

// ---------------------------------------------------------------------
// Phase 2: the listener
// ---------------------------------------------------------------------

/// The listening phase: accepts connections into [`AsyncStream`]s.
pub struct AsyncListener {
    l: Box<dyn NetListener>,
}

impl AsyncListener {
    /// Wrap a facade listener (e.g. one opened before entering async
    /// code).
    pub fn new(l: Box<dyn NetListener>) -> Self {
        AsyncListener { l }
    }

    /// The wrapped facade listener.
    pub fn get_ref(&self) -> &dyn NetListener {
        self.l.as_ref()
    }

    /// Await the next connection.
    pub async fn accept(&self) -> OpResult<AsyncStream> {
        loop {
            match with_ctx(|ctx| self.l.try_accept(ctx))? {
                Ok(c) => return Ok(Ok(AsyncStream::new(c))),
                Err(NetError::WouldBlock) => {}
                Err(e) => return Ok(Err(e)),
            }
            if let Err(e) = acceptable(self.l.as_ref()).await? {
                return Ok(Err(e));
            }
        }
    }

    /// [`Self::accept`] bounded by `deadline`: dropping the losing
    /// accept future is its cancellation.
    pub async fn accept_deadline(&self, deadline: SimDuration) -> OpResult<AsyncStream> {
        match emp_async::timeout(deadline, self.accept()).await {
            Some(r) => r,
            None => Ok(Err(NetError::Timeout)),
        }
    }

    /// Stop listening.
    pub async fn close(&self) -> SimResult<()> {
        with_ctx(|ctx| self.l.close(ctx))
    }
}

/// Resolve when the listener's backlog is non-empty.
async fn acceptable(l: &dyn NetListener) -> OpResult<Interest> {
    poll_fn(|cx| {
        with_ctx(|ctx| match l.poll_acceptable(ctx, cx.waker()) {
            Err(e) => Poll::Ready(Err(e)),
            Ok(Err(e)) => Poll::Ready(Ok(Err(e))),
            Ok(Ok(r)) if !r.is_empty() => Poll::Ready(Ok(Ok(r))),
            Ok(Ok(_)) => Poll::Pending,
        })
    })
    .await
}

// ---------------------------------------------------------------------
// Phase 3: the stream
// ---------------------------------------------------------------------

/// An established connection in the async lifecycle. Every method is a
/// nonblocking attempt retried after a readiness wake, so awaiting one
/// never parks the executor's process — sibling tasks keep running.
pub struct AsyncStream {
    conn: Conn,
}

impl AsyncStream {
    /// Wrap an established facade connection.
    pub fn new(conn: Conn) -> Self {
        AsyncStream { conn }
    }

    /// The wrapped facade connection.
    pub fn get_ref(&self) -> &Conn {
        &self.conn
    }

    /// Unwrap back to the facade connection (e.g. to register it in a
    /// completion ring).
    pub fn into_inner(self) -> Conn {
        self.conn
    }

    /// Read up to `max` bytes; empty = EOF.
    pub async fn read(&self, max: usize) -> OpResult<Bytes> {
        loop {
            match with_ctx(|ctx| self.conn.try_read(ctx, max))? {
                Ok(b) => return Ok(Ok(b)),
                Err(NetError::WouldBlock) => {}
                Err(e) => return Ok(Err(e)),
            }
            if let Err(e) = Readiness::new(&self.conn, Interest::READABLE).await? {
                return Ok(Err(e));
            }
        }
    }

    /// Read exactly `n` bytes; `None` on premature EOF.
    pub async fn read_exact(&self, n: usize) -> OpResult<Option<Bytes>> {
        let mut buf = Vec::with_capacity(n);
        while buf.len() < n {
            let chunk = match self.read(n - buf.len()).await? {
                Ok(c) => c,
                Err(e) => return Ok(Err(e)),
            };
            if chunk.is_empty() {
                return Ok(Ok(None));
            }
            buf.extend_from_slice(&chunk);
        }
        Ok(Ok(Some(Bytes::from(buf))))
    }

    /// [`Self::read`] bounded by `deadline`. The timed-out read future
    /// is dropped — its drop guard disarms whatever it had armed.
    pub async fn read_deadline(&self, max: usize, deadline: SimDuration) -> OpResult<Bytes> {
        match emp_async::timeout(deadline, self.read(max)).await {
            Some(r) => r,
            None => Ok(Err(NetError::Timeout)),
        }
    }

    /// Write the whole buffer, waiting out flow control between chunks.
    pub async fn write_all(&self, data: &[u8]) -> OpResult<()> {
        let mut sent = 0;
        while sent < data.len() {
            match with_ctx(|ctx| self.conn.try_write(ctx, &data[sent..]))? {
                Ok(n) => sent += n,
                Err(NetError::WouldBlock) => {
                    if let Err(e) = Readiness::new(&self.conn, Interest::WRITABLE).await? {
                        return Ok(Err(e));
                    }
                }
                Err(e) => return Ok(Err(e)),
            }
        }
        Ok(Ok(()))
    }

    /// [`Self::write_all`] bounded by `deadline`; a cancelled write
    /// disarms the substrate's flow-control ack watch on the way out.
    pub async fn write_all_deadline(&self, data: &[u8], deadline: SimDuration) -> OpResult<()> {
        match emp_async::timeout(deadline, self.write_all(data)).await {
            Some(r) => r,
            None => Ok(Err(NetError::Timeout)),
        }
    }

    /// Push out anything the stack staged for aggregation.
    pub async fn flush(&self) -> OpResult<()> {
        with_ctx(|ctx| self.conn.flush(ctx))
    }

    /// Await readiness without performing I/O — the async `poll()`.
    pub async fn ready(&self, interest: Interest) -> OpResult<Interest> {
        Readiness::new(&self.conn, interest).await
    }

    /// Orderly close.
    pub async fn close(&self) -> SimResult<()> {
        with_ctx(|ctx| self.conn.close(ctx))
    }
}

/// Leaf future over [`crate::NetConn::poll_ready`]: resolves when any of
/// `interest` is ready. Its `Drop` is the cancellation path — when the
/// wait is abandoned mid-flight (deadline fired, task dropped) it
/// disarms the stateful wake sources registration armed.
struct Readiness<'a> {
    conn: &'a Conn,
    interest: Interest,
    /// A registration is live (armed and not yet observed ready).
    armed: bool,
}

impl<'a> Readiness<'a> {
    fn new(conn: &'a Conn, interest: Interest) -> Self {
        Readiness {
            conn,
            interest,
            armed: false,
        }
    }
}

impl Future for Readiness<'_> {
    type Output = OpResult<Interest>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        with_ctx(
            |ctx| match this.conn.poll_ready(ctx, this.interest, cx.waker()) {
                Err(e) => Poll::Ready(Err(e)),
                Ok(Err(e)) => {
                    this.armed = false;
                    Poll::Ready(Ok(Err(e)))
                }
                Ok(Ok(r)) if !r.is_empty() => {
                    this.armed = false;
                    Poll::Ready(Ok(Ok(r)))
                }
                Ok(Ok(_)) => {
                    this.armed = true;
                    Poll::Pending
                }
            },
        )
    }
}

impl Drop for Readiness<'_> {
    fn drop(&mut self) {
        if self.armed {
            // Executor drops run with the context installed; a drop
            // after the executor is gone (abandoned task) has no stack
            // to disarm and nothing left to leak.
            try_with_ctx(|ctx| {
                let _ = self.conn.cancel_ready(ctx);
            });
        }
    }
}

// ---------------------------------------------------------------------
// The async server skeleton
// ---------------------------------------------------------------------

/// Accept `n_conns` connections from `l` and serve each with a
/// straight-line async handler: greeting, then read → `service(inbuf,
/// out)` → write-all → flush until EOF. The per-connection state machine
/// the event loop threads by hand is just control flow here, yet the
/// whole server still runs on one process — the executor interleaves
/// handlers at their await points. [`crate::serve()`] runs it as
/// [`crate::ServerModel::Async`], the same protocol byte for byte as the
/// other three models.
pub fn serve_async(
    ctx: &ProcessCtx,
    l: Box<dyn NetListener>,
    n_conns: u32,
    greeting: &[u8],
    service: impl FnMut(&mut Vec<u8>, &mut Vec<u8>) + 'static,
) -> SimResult<()> {
    let exec = LocalExecutor::new();
    let spawner = exec.spawner();
    let listener = Rc::new(AsyncListener::new(l));
    let service: SharedService = Rc::new(RefCell::new(service));
    let greeting: Rc<[u8]> = Rc::from(greeting);
    let handles: Rc<RefCell<Vec<emp_async::JoinHandle<SimResult<()>>>>> =
        Rc::new(RefCell::new(Vec::new()));
    let root = {
        let handles = Rc::clone(&handles);
        exec.spawn(async move {
            for _ in 0..n_conns {
                let stream = listener.accept().await?.expect("async accept");
                let service = Rc::clone(&service);
                let greeting = Rc::clone(&greeting);
                let h = spawner.spawn(async move { handle_conn(stream, &greeting, service).await });
                handles.borrow_mut().push(h);
            }
            listener.close().await
        })
    };
    exec.run(ctx)?;
    // `run` drains every task, so the handles resolve; surface any
    // simulation error a handler hit instead of swallowing it.
    root.try_take().expect("acceptor ran to completion")?;
    for h in handles.borrow_mut().drain(..) {
        h.try_take().expect("handler ran to completion")?;
    }
    Ok(())
}

/// The request handler shared by every connection task: `(inbuf, out)`.
type SharedService = Rc<RefCell<dyn FnMut(&mut Vec<u8>, &mut Vec<u8>)>>;

/// One connection's life, written straight down the page.
async fn handle_conn(
    stream: AsyncStream,
    greeting: &[u8],
    service: SharedService,
) -> SimResult<()> {
    let mut inbuf: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    if stream.write_all(greeting).await?.is_ok() && stream.flush().await?.is_ok() {
        loop {
            let chunk = match stream.read(READ_CHUNK).await? {
                Ok(c) => c,
                Err(_) => break,
            };
            if chunk.is_empty() {
                break; // EOF
            }
            inbuf.extend_from_slice(&chunk);
            // The borrow lives for this statement only — never across an
            // await (the executor is single-threaded; a held borrow over
            // a suspension point would poison sibling handlers).
            service.borrow_mut()(&mut inbuf, &mut out);
            if !out.is_empty() {
                if stream.write_all(&out).await?.is_err() {
                    break;
                }
                out.clear();
                if stream.flush().await?.is_err() {
                    break;
                }
            }
        }
    }
    stream.close().await
}

// ---------------------------------------------------------------------
// The completion layer as futures
// ---------------------------------------------------------------------

/// What a reaped completion boils down to once its registered buffer has
/// been copied out and returned to the pool.
enum Done {
    /// `Accept` completed with this registered connection id.
    Accepted(u32),
    /// `Read` delivered these bytes (copied out of the registered
    /// buffer at reap time, before the buffer could be reused).
    Data(Bytes),
    /// `Read` met end-of-stream.
    Eof,
    /// `Write` accepted this many bytes.
    Wrote(u32),
    /// `Close` retired the connection.
    Closed,
    /// The op failed.
    Failed(NetError),
}

struct RingInner<'a> {
    ring: Ring<'a>,
    cfg: RingConfig,
    next_ud: u64,
    /// Completions reaped but not yet claimed by their future.
    completed: HashMap<u64, Done>,
    /// Ops whose future was dropped: discard the completion on reap.
    abandoned: HashSet<u64>,
    /// Application-owned registered buffers.
    free_bufs: Vec<u32>,
    /// Which buffer each in-flight op holds, so *any* completion —
    /// including `Failed`/`Cancelled`, whose CQE does not name a buffer —
    /// returns it to the pool.
    bufs_in_flight: HashMap<u64, u32>,
    /// Deadline instants a timer is already scheduled for.
    timers: Vec<SimTime>,
}

/// Wakers of the futures currently parked on this ring, keyed by op tag.
/// Ordered so wake fan-out is deterministic, and shared so the
/// deadline timer scheduled into the engine can reach it.
type RingWaiters = Rc<RefCell<BTreeMap<u64, Waker>>>;

/// A completion [`Ring`] driven by futures: submit an op, `await` its
/// completion. One future per op; any parked future re-drives the ring
/// when woken and distributes the completions it reaps to its siblings.
/// Dropping an op future cancels it ([`simnet::ring::RingCore::cancel`])
/// or, past the point of no return, abandons it — either way the
/// registered buffer comes back to the pool and `ring.*` gauges drain to
/// zero.
pub struct AsyncRing<'a> {
    inner: Rc<RefCell<RingInner<'a>>>,
    waiters: RingWaiters,
}

/// Drain the completion queue into the stash, copying read payloads out
/// of their registered buffers and returning every completed op's buffer
/// to the pool. Abandoned ops' completions are discarded here.
fn reap_all(inner: &mut RingInner<'_>) {
    for cqe in inner.ring.reap(usize::MAX) {
        let done = match cqe.result {
            CqeResult::Accepted { conn } => Done::Accepted(conn),
            CqeResult::Read { buf, len } => Done::Data(Bytes::copy_from_slice(
                &inner.ring.buf(buf).expect("registered buffer")[..len as usize],
            )),
            CqeResult::Close { .. } => Done::Eof,
            CqeResult::Wrote { len, .. } => Done::Wrote(len),
            CqeResult::Closed { .. } => Done::Closed,
            CqeResult::Failed { err } => Done::Failed(err),
        };
        if let Some(buf) = inner.bufs_in_flight.remove(&cqe.user_data) {
            inner.free_bufs.push(buf);
        }
        if inner.abandoned.remove(&cqe.user_data) {
            continue;
        }
        inner.completed.insert(cqe.user_data, done);
    }
}

/// Wake every parked sibling except `except`. Called whenever one op
/// resolves or is dropped: the stack-level waker the ring armed may have
/// belonged to the departing future, so the survivors re-poll and one of
/// them re-arms (their recheck makes the spurious wakes harmless).
fn wake_siblings(waiters: &RingWaiters, except: u64) {
    for (ud, w) in waiters.borrow().iter() {
        if *ud != except {
            w.wake_by_ref();
        }
    }
}

impl<'a> AsyncRing<'a> {
    /// Build a completion ring on `api` and wrap it. `label` namespaces
    /// the ring's telemetry gauges (`ring.<label>.*`).
    pub fn new(api: &'a dyn NetApi, cfg: RingConfig, label: &str) -> Self {
        let ring = ring(api, cfg, label);
        AsyncRing {
            inner: Rc::new(RefCell::new(RingInner {
                ring,
                cfg,
                next_ud: 0,
                completed: HashMap::new(),
                abandoned: HashSet::new(),
                free_bufs: (0..cfg.buf_count as u32).rev().collect(),
                bufs_in_flight: HashMap::new(),
                timers: Vec::new(),
            })),
            waiters: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }

    /// Register a facade connection (same stack as the ring).
    pub fn add_conn(&self, conn: Conn) -> u32 {
        self.inner.borrow_mut().ring.add_conn(conn)
    }

    /// Register a facade listener (same stack as the ring).
    pub fn add_listener(&self, l: Box<dyn NetListener>) -> u32 {
        self.inner.borrow_mut().ring.add_listener(l)
    }

    /// Await the next connection on a registered listener.
    pub async fn accept(&self, listener: u32) -> OpResult<u32> {
        match self.submit(RingOp::Accept { listener }, None, None).await? {
            Done::Accepted(conn) => Ok(Ok(conn)),
            Done::Failed(e) => Ok(Err(e)),
            _ => unreachable!("accept completes as Accepted or Failed"),
        }
    }

    /// Await one read on `conn` (up to one registered buffer's worth);
    /// empty = EOF.
    pub async fn read(&self, conn: u32) -> OpResult<Bytes> {
        self.read_inner(conn, None).await
    }

    /// [`Self::read`] with an absolute per-op deadline
    /// ([`NetError::Timeout`] when it passes while the op would still
    /// block).
    pub async fn read_deadline(&self, conn: u32, deadline: SimTime) -> OpResult<Bytes> {
        self.read_inner(conn, Some(deadline)).await
    }

    async fn read_inner(&self, conn: u32, deadline: Option<SimTime>) -> OpResult<Bytes> {
        let buf = self.take_buf();
        match self
            .submit(RingOp::Read { conn, buf }, Some(buf), deadline)
            .await?
        {
            Done::Data(b) => Ok(Ok(b)),
            Done::Eof => Ok(Ok(Bytes::new())),
            Done::Failed(e) => Ok(Err(e)),
            _ => unreachable!("read completes as Read, Close, or Failed"),
        }
    }

    /// Write the whole buffer through registered buffers, one chunk in
    /// flight at a time.
    pub async fn write_all(&self, conn: u32, data: &[u8]) -> OpResult<()> {
        let chunk_cap = self.inner.borrow().cfg.buf_size;
        let mut sent = 0;
        while sent < data.len() {
            let buf = self.take_buf();
            let chunk = (data.len() - sent).min(chunk_cap);
            self.inner
                .borrow_mut()
                .ring
                .fill(buf, &data[sent..sent + chunk])
                .expect("buffer off the free list");
            let op = RingOp::Write {
                conn,
                buf,
                len: chunk as u32,
            };
            match self.submit(op, Some(buf), None).await? {
                Done::Wrote(n) => sent += n as usize,
                Done::Failed(e) => return Ok(Err(e)),
                _ => unreachable!("write completes as Wrote or Failed"),
            }
        }
        Ok(Ok(()))
    }

    /// Retire a registered connection.
    pub async fn close_conn(&self, conn: u32) -> OpResult<()> {
        match self.submit(RingOp::Close { conn }, None, None).await? {
            Done::Closed => Ok(Ok(())),
            Done::Failed(e) => Ok(Err(e)),
            _ => unreachable!("close completes as Closed or Failed"),
        }
    }

    /// Registered buffers currently application-owned (pool view — equals
    /// [`simnet::ring::RingCore::free_bufs`] when no completion is
    /// stashed).
    pub fn pool_free(&self) -> usize {
        self.inner.borrow().free_bufs.len()
    }

    /// Ring occupancy passthrough.
    pub fn depths(&self) -> RingDepths {
        self.inner.borrow().ring.depths()
    }

    /// Ring op accounting passthrough.
    pub fn counters(&self) -> RingCounters {
        self.inner.borrow().ring.counters()
    }

    /// Registered connections currently live.
    pub fn live_conns(&self) -> usize {
        self.inner.borrow().ring.live_conns()
    }

    /// Fail queued ops, close every target, release buffers.
    pub fn shutdown(&self, ctx: &ProcessCtx) -> SimResult<()> {
        self.inner.borrow_mut().ring.shutdown(ctx)
    }

    fn take_buf(&self) -> u32 {
        self.inner
            .borrow_mut()
            .free_bufs
            .pop()
            .expect("ring buffer pool sized for its concurrent ops")
    }

    fn submit(&self, op: RingOp, buf: Option<u32>, deadline: Option<SimTime>) -> RingOpFuture<'a> {
        let mut inner = self.inner.borrow_mut();
        let ud = inner.next_ud;
        inner.next_ud += 1;
        let mut sqe = Sqe::new(ud, op);
        if let Some(d) = deadline {
            sqe = sqe.with_deadline(d);
        }
        inner.ring.push(sqe).expect("async ring sized for its ops");
        if let Some(b) = buf {
            inner.bufs_in_flight.insert(ud, b);
        }
        RingOpFuture {
            ring: Rc::clone(&self.inner),
            waiters: Rc::clone(&self.waiters),
            user_data: ud,
            done: false,
        }
    }
}

/// One submitted op awaiting its completion.
struct RingOpFuture<'a> {
    ring: Rc<RefCell<RingInner<'a>>>,
    waiters: RingWaiters,
    user_data: u64,
    done: bool,
}

impl Future for RingOpFuture<'_> {
    type Output = SimResult<Done>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut inner = this.ring.borrow_mut();
        if let Some(done) = inner.completed.remove(&this.user_data) {
            drop(inner);
            this.resolve();
            return Poll::Ready(Ok(done));
        }
        let res: SimResult<Poll<Done>> = with_ctx(|ctx| {
            // Drive, then reap for everyone: completions for sibling ops
            // land in the stash and their futures are woken below.
            inner.ring.submit(ctx)?;
            reap_all(&mut inner);
            if let Some(done) = inner.completed.remove(&this.user_data) {
                return Ok(Poll::Ready(done));
            }
            // Park: stash our waker for sibling-driven wakes, arm the
            // stack-level waker over every stalled head op, and make
            // sure the earliest per-op deadline has a timer.
            this.waiters
                .borrow_mut()
                .insert(this.user_data, cx.waker().clone());
            if let Some(deadline) = inner.ring.register_waker(ctx, cx.waker())? {
                let now = ctx.now();
                inner.timers.retain(|t| *t > now);
                if !inner.timers.contains(&deadline) {
                    inner.timers.push(deadline);
                    let waiters = Rc::clone(&this.waiters);
                    // The timer wakes whoever is parked *at fire time* —
                    // the arming future may be long gone by then.
                    ctx.timer_at(deadline, move |_| {
                        for w in waiters.borrow().values() {
                            w.wake_by_ref();
                        }
                    });
                }
            }
            Ok(Poll::Pending)
        });
        drop(inner);
        match res {
            Err(e) => Poll::Ready(Err(e)),
            Ok(Poll::Ready(done)) => {
                this.resolve();
                Poll::Ready(Ok(done))
            }
            Ok(Poll::Pending) => Poll::Pending,
        }
    }
}

impl RingOpFuture<'_> {
    /// Mark resolved and hand the baton to the siblings: the stack-level
    /// waker may be ours (now stale), so they must re-poll and re-arm.
    fn resolve(&mut self) {
        self.done = true;
        self.waiters.borrow_mut().remove(&self.user_data);
        wake_siblings(&self.waiters, self.user_data);
    }
}

impl Drop for RingOpFuture<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        self.waiters.borrow_mut().remove(&self.user_data);
        let mut inner = self.ring.borrow_mut();
        if inner.completed.remove(&self.user_data).is_none() {
            // Not yet reaped into the stash: cancel it in the queue if
            // it is still there; either way discard the eventual
            // completion. The buffer returns to the pool at reap.
            inner.abandoned.insert(self.user_data);
            try_with_ctx(|ctx| {
                if inner.ring.cancel(ctx, self.user_data) {
                    // The Cancelled CQE is reapable right now — tidy so
                    // the buffer is back in the pool before we return.
                    reap_all(&mut inner);
                }
            });
        }
        drop(inner);
        wake_siblings(&self.waiters, self.user_data);
    }
}

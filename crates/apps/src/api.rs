//! A stack-agnostic sockets facade.
//!
//! The paper's whole point is that the *same application* runs over kernel
//! TCP and over the EMP substrate. This module is that seam: every
//! application in this crate is written against [`NetApi`]/[`NetConn`],
//! and adapters implement them for both stacks.

use std::any::Any;
use std::sync::Arc;

use bytes::Bytes;
use simnet::{MacAddr, OpResult, ProcessCtx, SimDuration, SimResult, SimTime};

pub use simnet::ring::{
    Cqe, CqeResult, RingConfig, RingCounters, RingDepths, RingError, RingOp, Sqe,
};
pub use simnet::{Event, Interest, NetError};

/// One established connection.
pub trait NetConn: Send + Sync + 'static {
    /// Write the whole buffer (blocking).
    fn write(&self, ctx: &ProcessCtx, data: &[u8]) -> OpResult<usize>;
    /// Read up to `max` bytes; empty = EOF.
    fn read(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Bytes>;
    /// Nonblocking write: accept what fits right now (a partial count);
    /// [`NetError::WouldBlock`] when no byte could be taken.
    fn try_write(&self, ctx: &ProcessCtx, data: &[u8]) -> OpResult<usize>;
    /// Nonblocking read: serve what is already there; empty = EOF;
    /// [`NetError::WouldBlock`] when a blocking read would park.
    fn try_read(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Bytes>;
    /// [`Self::read`] bounded by `deadline`: [`NetError::Timeout`] when
    /// nothing becomes readable in time.
    fn read_deadline(&self, ctx: &ProcessCtx, max: usize, deadline: SimDuration)
        -> OpResult<Bytes>;
    /// [`Self::write`] bounded by `deadline`: returns the (possibly
    /// short) count accepted before the deadline; [`NetError::Timeout`]
    /// when not a single byte was taken in time.
    fn write_deadline(
        &self,
        ctx: &ProcessCtx,
        data: &[u8],
        deadline: SimDuration,
    ) -> OpResult<usize>;
    /// Orderly close.
    fn close(&self, ctx: &ProcessCtx) -> SimResult<()>;
    /// Would `read` return without blocking?
    fn readable(&self) -> bool;
    /// Would `write` make progress without blocking?
    fn writable(&self) -> bool;
    /// The remote station.
    fn peer_host(&self) -> MacAddr;
    /// Downcast support for stack-specific `select()`/`poll()`.
    fn as_any(&self) -> &dyn Any;
    /// Consume the box for an owning downcast — how a facade connection
    /// moves into a stack's completion ring ([`NetRing::add_conn`]).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;

    /// Flush any writes the stack buffered for aggregation (the EMP
    /// substrate's small-write coalescing). No-op on stacks without a
    /// staging buffer.
    fn flush(&self, _ctx: &ProcessCtx) -> OpResult<()> {
        Ok(Ok(()))
    }

    /// The EMP substrate's per-connection counters, when this connection
    /// runs over it (`None` on other stacks).
    fn substrate_stats(&self) -> Option<sockets_emp::ConnStats> {
        None
    }

    /// Nonblocking readiness check that arms a [`std::task::Waker`]: the
    /// returned interests are what is ready *right now* (possibly empty);
    /// when empty, `waker` fires once something in `interest` (or an
    /// error) becomes ready. The async front end's bridge into the
    /// readiness layer — registration is check-then-arm with a recheck,
    /// so a wake racing the registration resolves toward a spurious
    /// recheck, never a lost wakeup.
    ///
    /// A caller that armed write interest and then walks away without
    /// the wake having fired must call [`Self::cancel_ready`] (stacks
    /// may have armed stateful wake sources, e.g. the EMP substrate's
    /// flow-control ack watch).
    fn poll_ready(
        &self,
        ctx: &ProcessCtx,
        interest: Interest,
        waker: &std::task::Waker,
    ) -> OpResult<Interest>;

    /// Disarm any stateful wake source a prior [`Self::poll_ready`]
    /// armed. Idempotent; the drop-guard hook for cancelled futures.
    /// No-op on stacks whose wake sources are stateless.
    fn cancel_ready(&self, _ctx: &ProcessCtx) -> OpResult<()> {
        Ok(Ok(()))
    }

    /// Read exactly `n` bytes; `None` on premature EOF.
    fn read_exact(&self, ctx: &ProcessCtx, n: usize) -> OpResult<Option<Bytes>> {
        let mut buf = Vec::with_capacity(n);
        while buf.len() < n {
            let chunk = match self.read(ctx, n - buf.len())? {
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
}

/// A boxed connection, as applications hold it.
pub type Conn = Box<dyn NetConn>;

/// A listening socket.
pub trait NetListener: Send + Sync + 'static {
    /// Block for the next connection.
    fn accept(&self, ctx: &ProcessCtx) -> OpResult<Conn>;
    /// Nonblocking accept: [`NetError::WouldBlock`] on an empty backlog.
    fn try_accept(&self, ctx: &ProcessCtx) -> OpResult<Conn>;
    /// [`Self::accept`] bounded by `deadline`: [`NetError::Timeout`]
    /// when no connection arrives in time.
    fn accept_deadline(&self, ctx: &ProcessCtx, deadline: SimDuration) -> OpResult<Conn>;
    /// Nonblocking acceptability check that arms a [`std::task::Waker`]:
    /// [`Interest::ACCEPTABLE`] when the backlog is non-empty, otherwise
    /// empty with `waker` armed for the next arrival. Same
    /// check-then-arm contract as [`NetConn::poll_ready`].
    fn poll_acceptable(&self, ctx: &ProcessCtx, waker: &std::task::Waker) -> OpResult<Interest>;
    /// Stop listening.
    fn close(&self, ctx: &ProcessCtx) -> SimResult<()>;
    /// Downcast support for stack-specific `poll()`.
    fn as_any(&self) -> &dyn Any;
    /// Consume the box for an owning downcast — how a facade listener
    /// moves into a stack's completion ring ([`NetRing::add_listener`]).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// What one [`PollSource`] watches: a connection or a listener.
pub enum PollTarget<'a> {
    /// An established connection (readable/writable interests).
    Conn(&'a Conn),
    /// A listening socket (acceptable interest).
    Listener(&'a dyn NetListener),
}

/// One registration of a [`NetApi::poll`] call: target, caller-chosen
/// token, and the interests to watch.
pub struct PollSource<'a> {
    /// The socket to watch.
    pub target: PollTarget<'a>,
    /// Token reported back in the matching [`Event`].
    pub token: usize,
    /// Interests to watch ([`Interest::ERROR`] is always reported).
    pub interest: Interest,
}

/// A stack's completion ring behind the facade: the
/// submission/completion I/O model ([`simnet::ring`]) with facade
/// connections and listeners as the registered targets. Applications
/// written against this trait (the `ServerModel::Completion` servers)
/// run unchanged over both stacks, like the readiness servers do over
/// [`NetApi::poll`].
pub trait NetRing {
    /// Register a facade connection; it must come from the same stack
    /// that built this ring.
    fn add_conn(&mut self, conn: Conn) -> u32;
    /// Register a facade listener from the same stack.
    fn add_listener(&mut self, l: Box<dyn NetListener>) -> u32;
    /// Copy `data` into the front of a free registered buffer.
    fn fill(&mut self, buf: u32, data: &[u8]) -> Result<(), RingError>;
    /// Read access to a registered buffer.
    fn buf(&self, buf: u32) -> Option<&[u8]>;
    /// Queue one op ([`simnet::ring::RingCore::push`] semantics).
    fn push(&mut self, sqe: Sqe) -> Result<(), RingError>;
    /// Submit queued ops and drive without blocking.
    fn submit(&mut self, ctx: &ProcessCtx) -> SimResult<()>;
    /// Submit, then park until `min_complete` completions are reapable.
    fn submit_and_wait(
        &mut self,
        ctx: &ProcessCtx,
        min_complete: usize,
    ) -> SimResult<Result<(), RingError>>;
    /// Pop up to `max` completions, returning their buffers to the app.
    fn reap(&mut self, max: usize) -> Vec<Cqe>;
    /// Current occupancy.
    fn depths(&self) -> RingDepths;
    /// Monotonic op accounting.
    fn counters(&self) -> RingCounters;
    /// Buffers currently application-owned.
    fn free_bufs(&self) -> usize;
    /// Registered connections currently live.
    fn live_conns(&self) -> usize;
    /// The geometry this ring was built with.
    fn cfg(&self) -> RingConfig;
    /// Cancel one queued op by `user_data`: it completes with
    /// [`NetError::Cancelled`] (buffer returned on reap as usual) and
    /// the remaining per-target FIFO order is preserved. `false` when
    /// no queued op carries that `user_data` (already completed, or
    /// mid-flight past the point of no return).
    fn cancel(&mut self, ctx: &ProcessCtx, user_data: u64) -> bool;
    /// Arm `waker` to fire when any stalled head op's target becomes
    /// ready. The returned instant, when `Some`, is the earliest
    /// deadline among the stalled ops (the caller owns the timer that
    /// expires it). When nothing is stalled, nothing is armed and
    /// `None` comes back — completions are already reapable, so
    /// drive/reap instead of sleeping.
    fn register_waker(
        &mut self,
        ctx: &ProcessCtx,
        waker: &std::task::Waker,
    ) -> SimResult<Option<SimTime>>;
    /// Fail queued ops, close every registered target, release buffers.
    fn shutdown(&mut self, ctx: &ProcessCtx) -> SimResult<()>;
    /// Aggregate EMP substrate counters of the connections this ring has
    /// closed (`None` on the kernel stack) — the evidence that ring
    /// reads ride the direct-delivery path (`copies_avoided`).
    fn substrate_stats(&self) -> Option<sockets_emp::ConnStats>;
}

/// One node's sockets interface.
pub trait NetApi: Send + Sync + 'static {
    /// Active open.
    fn connect(&self, ctx: &ProcessCtx, host: MacAddr, port: u16) -> OpResult<Conn>;
    /// Active open bounded by `deadline`, with typed outcomes on both
    /// stacks: [`NetError::Refused`] when the remote positively refused
    /// (no listener, full backlog), [`NetError::Timeout`] when nobody
    /// answered in time, [`NetError::Exhausted`] past a local
    /// connection budget.
    fn connect_deadline(
        &self,
        ctx: &ProcessCtx,
        host: MacAddr,
        port: u16,
        deadline: SimDuration,
    ) -> OpResult<Conn>;
    /// Passive open.
    fn listen(&self, ctx: &ProcessCtx, port: u16, backlog: usize)
        -> OpResult<Box<dyn NetListener>>;
    /// Block until at least one source is ready (or the timeout expires —
    /// then the empty vector), returning every ready one. The heart of an
    /// event-loop server: connections and listeners in one wait.
    fn poll(
        &self,
        ctx: &ProcessCtx,
        sources: &[PollSource<'_>],
        timeout: Option<SimDuration>,
    ) -> OpResult<Vec<Event>>;
    /// Block until one of `conns` is readable; returns its index. An
    /// empty set is [`NetError::Invalid`].
    fn select_readable(&self, ctx: &ProcessCtx, conns: &[&Conn]) -> OpResult<usize>;
    /// This node's station address.
    fn local_host(&self) -> MacAddr;
    /// Short label for reports ("emp-ds", "tcp-16k", ...).
    fn label(&self) -> String;
    /// Build a completion ring on this stack ([`NetRing`]). `label`
    /// namespaces the ring's telemetry gauges (`ring.<label>.*`).
    fn ring(&self, cfg: RingConfig, label: &str) -> Box<dyn NetRing>;
    /// The wrapped EMP substrate, when this API runs over it (`None` on
    /// the kernel stack). Overload-harness introspection: leak checks
    /// read live-connection counts after a chaos run.
    fn substrate(&self) -> Option<&sockets_emp::EmpSockets> {
        None
    }
    /// The wrapped kernel stack, when this API runs over it (`None` on
    /// the substrate).
    fn tcp_stack(&self) -> Option<&Arc<kernel_tcp::TcpStack>> {
        None
    }
}

/// Shared handle applications pass around.
pub type Api = Arc<dyn NetApi>;

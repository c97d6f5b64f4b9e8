//! A stack-agnostic sockets facade.
//!
//! The paper's whole point is that the *same application* runs over kernel
//! TCP and over the EMP substrate. This module is that seam: every
//! application in this crate is written against [`NetApi`]/[`NetConn`],
//! and each stack's own socket types implement them ([`crate::stacks`]).
//! The completion ring is written once over the same surface: [`ring`]
//! drives any node's sockets through their nonblocking calls and parks in
//! [`NetApi::poll`].

use std::any::Any;
use std::cell::RefCell;
use std::sync::Arc;

use bytes::Bytes;
use simnet::ring::{RingCore, RingDriver};
use simnet::{MacAddr, OpResult, ProcessCtx, SimDuration, SimResult};

pub use simnet::ring::{
    Cqe, CqeResult, RingConfig, RingCounters, RingDepths, RingError, RingOp, Sqe,
};
pub use simnet::{Event, Interest, NetError};

/// One established connection.
pub trait NetConn: 'static {
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
    /// Downcast to the stack's own type, for its `select()`/`poll()`.
    fn as_any(&self) -> &dyn Any;

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
        let mut buf = Vec::new();
        while buf.len() < n {
            let chunk = match self.read(ctx, n - buf.len())? {
                Ok(c) => c,
                Err(e) => return Ok(Err(e)),
            };
            if chunk.is_empty() {
                return Ok(Ok(None));
            }
            // One read that brought all `n` bytes: hand it over as is.
            if chunk.len() == n {
                return Ok(Ok(Some(chunk)));
            }
            buf.extend_from_slice(&chunk);
        }
        Ok(Ok(Some(Bytes::from(buf))))
    }
}

/// A boxed connection, as applications hold it.
pub type Conn = Box<dyn NetConn>;

/// A listening socket.
pub trait NetListener: 'static {
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
    /// Downcast to the stack's own type, for its `poll()`.
    fn as_any(&self) -> &dyn Any;
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

/// One node's sockets interface.
pub trait NetApi: 'static {
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

/// A completion ring over one node's facade sockets: the
/// submission/completion I/O model ([`simnet::ring`]) with [`Conn`]s and
/// listeners as the registered targets. Applications written against it
/// (the `ServerModel::Completion` servers) run unchanged over both
/// stacks, like the readiness servers do over [`NetApi::poll`].
pub type Ring<'a> = RingCore<ApiRingDriver<'a>>;

/// Build a completion ring over `api`'s sockets; register only
/// connections and listeners that `api` opened. `label` namespaces the
/// ring's telemetry gauges (`ring.<label>.*`).
pub fn ring<'a>(api: &'a dyn NetApi, cfg: RingConfig, label: impl Into<String>) -> Ring<'a> {
    let driver = ApiRingDriver {
        api,
        closed_stats: RefCell::default(),
    };
    RingCore::new(driver, cfg, label)
}

/// The one [`RingDriver`]: each op is the socket's own nonblocking call,
/// and the blocking wait is [`NetApi::poll`] over the stalled targets.
/// Under the substrate's adaptive copy policy a ring `Read` is a reader
/// posted before the data arrived, so every message it fits skips the
/// §6.2 temp-buffer copy ([`sockets_emp::ConnStats::copies_avoided`]);
/// on the kernel stack every read still pays the user/kernel copy.
pub struct ApiRingDriver<'a> {
    api: &'a dyn NetApi,
    /// Substrate counters of the connections this ring has closed, kept
    /// so the copy-avoidance evidence outlives the connections.
    closed_stats: RefCell<sockets_emp::ConnStats>,
}

impl ApiRingDriver<'_> {
    /// Aggregate EMP substrate counters of every connection this ring has
    /// closed (`None` on the kernel stack).
    pub fn substrate_stats(&self) -> Option<sockets_emp::ConnStats> {
        self.api.substrate().map(|_| *self.closed_stats.borrow())
    }
}

impl RingDriver for ApiRingDriver<'_> {
    type Conn = Conn;
    type Listener = Box<dyn NetListener>;

    fn try_accept(&self, ctx: &ProcessCtx, l: &Box<dyn NetListener>) -> OpResult<Conn> {
        l.try_accept(ctx)
    }

    fn try_read(&self, ctx: &ProcessCtx, c: &Conn, buf: &mut [u8]) -> OpResult<usize> {
        Ok(c.try_read(ctx, buf.len())?.map(|bytes| {
            buf[..bytes.len()].copy_from_slice(&bytes);
            bytes.len()
        }))
    }

    fn try_write(&self, ctx: &ProcessCtx, c: &Conn, data: &[u8]) -> OpResult<usize> {
        c.try_write(ctx, data)
    }

    fn close(&self, ctx: &ProcessCtx, c: Conn) -> SimResult<()> {
        if let Some(stats) = c.substrate_stats() {
            *self.closed_stats.borrow_mut() += stats;
        }
        c.close(ctx)
    }

    fn close_listener(&self, ctx: &ProcessCtx, l: Box<dyn NetListener>) -> SimResult<()> {
        l.close(ctx)
    }

    fn wait(
        &self,
        ctx: &ProcessCtx,
        conns: &[(&Conn, Interest)],
        listeners: &[&Box<dyn NetListener>],
        timeout: Option<SimDuration>,
    ) -> SimResult<()> {
        let conns = conns
            .iter()
            .map(|&(c, interest)| (PollTarget::Conn(c), interest));
        let listeners = listeners
            .iter()
            .map(|l| (PollTarget::Listener(l.as_ref()), Interest::ACCEPTABLE));
        let sources: Vec<PollSource<'_>> = conns
            .chain(listeners)
            .enumerate()
            .map(|(token, (target, interest))| PollSource {
                target,
                token,
                interest,
            })
            .collect();
        // The events themselves are discarded: RingCore re-drives every
        // head op after a wake, which subsumes them (a timeout wake lets
        // the drive pass expire deadlined head ops).
        self.api.poll(ctx, &sources, timeout)??;
        Ok(())
    }

    fn register_waker(
        &self,
        ctx: &ProcessCtx,
        conns: &[(&Conn, Interest)],
        listeners: &[&Box<dyn NetListener>],
        waker: &std::task::Waker,
    ) -> SimResult<bool> {
        // Readiness found during registration means the ring should
        // re-drive now, not sleep: deliver the wake straight back. An
        // unwakeable or failed source wakes it too, so the next drive
        // pass surfaces the op's error.
        let ready = |r: Result<Interest, NetError>| r.map_or(true, |r| !r.is_empty());
        let mut wake_now = false;
        for (c, interest) in conns {
            wake_now |= ready(c.poll_ready(ctx, *interest, waker)?);
        }
        for l in listeners {
            wake_now |= ready(l.poll_acceptable(ctx, waker)?);
        }
        if wake_now {
            waker.wake_by_ref();
        }
        Ok(true)
    }
}

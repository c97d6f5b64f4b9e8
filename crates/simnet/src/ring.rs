//! Completion-queue I/O: submission/completion rings over registered
//! buffers, shared by every stack in the workspace.
//!
//! The readiness model ([`crate::readiness`]) tells an application *when*
//! an operation would succeed; the completion model submits the operation
//! itself and reports *that it finished*. That is the modern shape of the
//! paper's argument — once socket processing leaves the kernel, the
//! natural steady state is a pool of application-registered buffers the
//! stack completes into directly (io_uring-style), not a parked reader
//! per socket. The sockets-over-EMP substrate and the kernel TCP
//! baseline run their rings on these types, through one driver over the
//! applications' sockets facade, so the two stacks share one contract.
//!
//! The contract, in brief:
//!
//! * An application registers a **buffer pool** and integer-id **targets**
//!   (connections, listeners), then pushes [`Sqe`]s — `Accept`, `Read`,
//!   `Write`, `Close` — each tagged with caller-chosen `user_data`.
//! * Ops on the **same target complete in submission order** (FIFO per
//!   target); ops on different targets may interleave.
//! * Every admitted op completes **exactly once** with one [`Cqe`];
//!   nothing is lost, duplicated, or silently dropped.
//! * A buffer named by an op is **owned by the ring** from push until the
//!   matching completion is reaped; pushing a second op naming it is the
//!   typed error [`RingError::BufInFlight`], never aliasing.
//! * The CQ **cannot overflow silently**: an op is only admitted while
//!   the ring can guarantee a CQ slot for it
//!   ([`RingError::CqOverflow`] is backpressure at push time).
//! * Reads complete with at least one byte, or — at end of stream — with
//!   [`CqeResult::Close`] carrying `final_seq`, the total bytes the
//!   connection delivered over its lifetime. Writes complete with the
//!   count the stack accepted on first progress (short writes are
//!   `write(2)`-legal results, not errors).
//!
//! [`RingCore`] is the whole state machine, generic over a [`RingDriver`]
//! (the stack's nonblocking ops plus one blocking wait), so the two
//! stacks share every queueing, ordering, and backpressure decision by
//! construction.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use emp_trace::telemetry::Gauge;

use crate::engine::SimAccess;
use crate::error::{NetError, OpResult, SimResult};
use crate::process::ProcessCtx;
use crate::readiness::Interest;
use crate::time::{SimDuration, SimTime};

/// Ring geometry and registered-buffer-pool shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingConfig {
    /// Submission-queue depth: ops pushed but not yet submitted.
    pub sq_depth: usize,
    /// Completion-queue depth — also the cap on admitted-but-unreaped
    /// ops, since every admitted op is guaranteed a CQ slot.
    pub cq_depth: usize,
    /// Registered buffers in the pool.
    pub buf_count: usize,
    /// Bytes per registered buffer.
    pub buf_size: usize,
    /// Byte budget for the registered pool: `Some(cap)` makes
    /// [`RingCore::try_new`] refuse a pool whose `buf_count × buf_size`
    /// exceeds `cap` with the typed error [`RingError::PoolExhausted`],
    /// instead of pinning unbounded memory. `None` (the default) keeps
    /// registration unbudgeted.
    pub max_registered_bytes: Option<usize>,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            sq_depth: 64,
            cq_depth: 128,
            buf_count: 64,
            buf_size: 4096,
            max_registered_bytes: None,
        }
    }
}

impl RingConfig {
    /// Bytes the registered pool pins.
    pub fn registered_bytes(&self) -> usize {
        self.buf_count * self.buf_size
    }
}

/// One submitted operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingOp {
    /// Accept the next connection on a registered listener; completes
    /// with [`CqeResult::Accepted`] carrying the new connection's id.
    Accept {
        /// Registered listener id.
        listener: u32,
    },
    /// Read up to the buffer's size into registered buffer `buf`.
    Read {
        /// Registered connection id.
        conn: u32,
        /// Registered buffer the stack completes into.
        buf: u32,
    },
    /// Write the first `len` bytes of registered buffer `buf`.
    Write {
        /// Registered connection id.
        conn: u32,
        /// Registered buffer holding the bytes.
        buf: u32,
        /// How many of the buffer's bytes to write.
        len: u32,
    },
    /// Orderly close; queued behind this connection's earlier ops.
    Close {
        /// Registered connection id.
        conn: u32,
    },
}

impl RingOp {
    /// The registered buffer this op holds in flight, if any.
    pub fn buf(&self) -> Option<u32> {
        match *self {
            RingOp::Read { buf, .. } | RingOp::Write { buf, .. } => Some(buf),
            RingOp::Accept { .. } | RingOp::Close { .. } => None,
        }
    }
}

/// One submission-queue entry: the op plus caller-chosen tag echoed in
/// the matching [`Cqe`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sqe {
    /// Caller-chosen tag, returned verbatim in the completion.
    pub user_data: u64,
    /// The operation.
    pub op: RingOp,
    /// Absolute per-op deadline. A deadlined op that reaches the head of
    /// its target's queue and *would block* past this instant completes
    /// as [`CqeResult::Failed`] with [`NetError::Timeout`] instead of
    /// stalling the target forever; an op whose progress is ready
    /// completes normally even past its deadline. `None` (the default)
    /// waits indefinitely.
    pub deadline: Option<SimTime>,
}

impl Sqe {
    /// An op with no deadline.
    pub fn new(user_data: u64, op: RingOp) -> Self {
        Sqe {
            user_data,
            op,
            deadline: None,
        }
    }

    /// Attach an absolute deadline (see [`Sqe::deadline`]).
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Submission-time errors: typed backpressure and validation. These are
/// push/ring-level failures — an admitted op never fails with one of
/// these; op failures surface as [`CqeResult::Failed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingError {
    /// The submission queue is full; submit and retry.
    SqFull,
    /// Admitting this op could overflow the completion queue; reap and
    /// retry. The CQ never drops a completion silently — this error *is*
    /// the overflow, surfaced at push time.
    CqOverflow,
    /// The named buffer is attached to an earlier op whose completion has
    /// not been reaped; the pool never aliases two in-flight ops.
    BufInFlight(u32),
    /// No such registered buffer.
    BadBuf(u32),
    /// No such registered connection or listener.
    BadTarget(u32),
    /// `len` exceeds the named buffer's size.
    BadLen {
        /// The buffer named by the op.
        buf: u32,
        /// The out-of-range length.
        len: u32,
    },
    /// A wait could never be satisfied: fewer completions pending (SQ +
    /// in-flight + CQ) than the wait asks for.
    Stalled,
    /// Registering the buffer pool would exceed the configured
    /// byte budget ([`RingConfig::max_registered_bytes`]).
    PoolExhausted {
        /// Bytes the requested pool would pin.
        requested: usize,
        /// The configured budget.
        cap: usize,
    },
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::SqFull => write!(f, "submission queue full"),
            RingError::CqOverflow => write!(f, "completion queue would overflow"),
            RingError::BufInFlight(b) => write!(f, "buffer {b} already in flight"),
            RingError::BadBuf(b) => write!(f, "no registered buffer {b}"),
            RingError::BadTarget(t) => write!(f, "no registered target {t}"),
            RingError::BadLen { buf, len } => {
                write!(f, "length {len} exceeds buffer {buf}")
            }
            RingError::Stalled => write!(f, "wait could never be satisfied"),
            RingError::PoolExhausted { requested, cap } => {
                write!(
                    f,
                    "registered pool of {requested} bytes exceeds budget {cap}"
                )
            }
        }
    }
}

impl std::error::Error for RingError {}

/// The payload of a completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqeResult {
    /// `Accept` completed; the new connection is registered under `conn`.
    Accepted {
        /// The newly registered connection id.
        conn: u32,
    },
    /// `Read` completed with `len` bytes (≥ 1) in the named buffer.
    Read {
        /// The buffer the bytes landed in (ownership returns on reap).
        buf: u32,
        /// Bytes delivered.
        len: u32,
    },
    /// A `Read` met end-of-stream: the peer closed after `final_seq`
    /// total bytes, all of which have been delivered.
    Close {
        /// The connection that reached EOF.
        conn: u32,
        /// Total bytes this connection delivered over its lifetime.
        final_seq: u64,
    },
    /// `Write` completed; the stack accepted `len` bytes (short writes
    /// are legal results).
    Wrote {
        /// The buffer the bytes came from (ownership returns on reap).
        buf: u32,
        /// Bytes the stack accepted.
        len: u32,
    },
    /// `Close` completed; the connection id is retired.
    Closed {
        /// The retired connection id.
        conn: u32,
    },
    /// The op failed; any attached buffer still returns on reap.
    Failed {
        /// Why.
        err: NetError,
    },
}

/// One completion-queue entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cqe {
    /// The tag of the [`Sqe`] this completes.
    pub user_data: u64,
    /// What happened.
    pub result: CqeResult,
}

/// Point-in-time ring occupancy (also exported as telemetry gauges).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingDepths {
    /// Ops pushed but not yet submitted.
    pub sq: usize,
    /// Ops submitted but not yet completed.
    pub in_flight: usize,
    /// Completions waiting to be reaped.
    pub cq: usize,
}

/// Monotonic op accounting (the no-lost/no-double-completion invariant:
/// `pushed == completed + sq + in_flight` and every reaped CQE came from
/// exactly one push).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingCounters {
    /// Sqes admitted by [`RingCore::push`].
    pub pushed: u64,
    /// Cqes produced.
    pub completed: u64,
    /// Cqes handed back by [`RingCore::reap`].
    pub reaped: u64,
}

/// A stack's nonblocking ops plus one blocking wait — everything
/// [`RingCore`] needs to drive a ring over it. The one implementation
/// (`emp-apps`' `ApiRingDriver`) works over the sockets facade, so it
/// serves both the EMP substrate and the kernel TCP baseline; test
/// fakes implement it too.
pub trait RingDriver {
    /// The stack's connection handle.
    type Conn;
    /// The stack's listener handle.
    type Listener;

    /// Nonblocking accept: [`NetError::WouldBlock`] when the backlog is
    /// empty.
    fn try_accept(&self, ctx: &ProcessCtx, l: &Self::Listener) -> OpResult<Self::Conn>;

    /// Nonblocking read into `buf`: `Ok(0)` is end-of-stream,
    /// [`NetError::WouldBlock`] means a blocking read would park.
    fn try_read(&self, ctx: &ProcessCtx, c: &Self::Conn, buf: &mut [u8]) -> OpResult<usize>;

    /// Nonblocking write: the count accepted right now (≥ 1), or
    /// [`NetError::WouldBlock`] when no byte could be taken.
    fn try_write(&self, ctx: &ProcessCtx, c: &Self::Conn, data: &[u8]) -> OpResult<usize>;

    /// Orderly close of a connection. Never blocks indefinitely.
    fn close(&self, ctx: &ProcessCtx, c: Self::Conn) -> SimResult<()>;

    /// Close a registered listener at ring teardown.
    fn close_listener(&self, ctx: &ProcessCtx, l: Self::Listener) -> SimResult<()>;

    /// Park until one of the connections could make the named progress,
    /// a listener could accept, or `timeout` elapses (the ring passes the
    /// margin to its earliest head-op deadline). Called only with at
    /// least one entry.
    fn wait(
        &self,
        ctx: &ProcessCtx,
        conns: &[(&Self::Conn, Interest)],
        listeners: &[&Self::Listener],
        timeout: Option<SimDuration>,
    ) -> SimResult<()>;

    /// Register a task waker to fire when one of the connections could
    /// make the named progress or a listener could accept — the async
    /// executor's completion-layer wake source. Wakes may be spurious;
    /// the ring re-drives and re-registers on every poll. Returns
    /// `Ok(false)` when the driver has no waker support (the default),
    /// in which case [`RingCore::register_waker`] reports the ring as
    /// unpollable rather than losing wakeups.
    fn register_waker(
        &self,
        _ctx: &ProcessCtx,
        _conns: &[(&Self::Conn, Interest)],
        _listeners: &[&Self::Listener],
        _waker: &std::task::Waker,
    ) -> SimResult<bool> {
        Ok(false)
    }
}

enum BufState {
    /// Application-owned: may be filled and named by a new op.
    Free,
    /// Ring-owned: named by a pushed op whose CQE is not yet reaped.
    Attached,
}

struct ConnEntry<C> {
    conn: C,
    /// Total bytes delivered to completions on this connection — the
    /// `final_seq` reported at EOF, tracked here (not by the stack) so
    /// both stacks agree by construction.
    rx_bytes: u64,
    /// Submitted ops, FIFO; only the head is ever attempted.
    q: VecDeque<Sqe>,
}

struct ListenerEntry<L> {
    l: L,
    q: VecDeque<Sqe>,
}

/// Gauges exporting ring occupancy through the telemetry registry
/// (sampled automatically into time series of the same names).
struct RingGauges {
    sq: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    cq: Arc<Gauge>,
}

/// The targets [`RingCore`] waits on: stalled head ops, per target.
struct Stalled<'a, C, L> {
    conns: Vec<(&'a C, Interest)>,
    listeners: Vec<&'a L>,
    next_deadline: Option<SimTime>,
}

impl<C, L> Stalled<'_, C, L> {
    fn note(&mut self, deadline: Option<SimTime>) {
        if let Some(d) = deadline {
            self.next_deadline = Some(self.next_deadline.map_or(d, |n| n.min(d)));
        }
    }
}

/// The completion-ring state machine, generic over the stack underneath.
///
/// Not `Sync`: a ring belongs to the one simulated process driving it,
/// like an io_uring belongs to its submitter.
pub struct RingCore<D: RingDriver> {
    cfg: RingConfig,
    driver: D,
    label: String,
    bufs: Vec<Vec<u8>>,
    buf_state: Vec<BufState>,
    conns: BTreeMap<u32, ConnEntry<D::Conn>>,
    listeners: BTreeMap<u32, ListenerEntry<D::Listener>>,
    next_conn: u32,
    next_listener: u32,
    sq: VecDeque<Sqe>,
    /// Completions plus the buffer each returns to the app when reaped.
    cq: VecDeque<(Cqe, Option<u32>)>,
    in_flight: usize,
    counters: RingCounters,
    gauges: Option<RingGauges>,
}

impl<D: RingDriver> RingCore<D> {
    /// A fresh ring over `driver`. `label` namespaces the telemetry
    /// gauges (`ring.<label>.sq` / `.in_flight` / `.cq`). Panics when
    /// the pool exceeds [`RingConfig::max_registered_bytes`]; use
    /// [`RingCore::try_new`] for the typed error.
    pub fn new(driver: D, cfg: RingConfig, label: impl Into<String>) -> Self {
        Self::try_new(driver, cfg, label).expect("ring registered-buffer budget")
    }

    /// [`RingCore::new`], but a pool over the configured byte budget is
    /// the typed error [`RingError::PoolExhausted`] instead of a panic —
    /// admission control at registration time.
    pub fn try_new(
        driver: D,
        cfg: RingConfig,
        label: impl Into<String>,
    ) -> Result<Self, RingError> {
        assert!(cfg.sq_depth >= 1 && cfg.cq_depth >= 1, "degenerate ring");
        assert!(cfg.buf_count >= 1 && cfg.buf_size >= 1, "degenerate pool");
        if let Some(cap) = cfg.max_registered_bytes {
            if cfg.registered_bytes() > cap {
                return Err(RingError::PoolExhausted {
                    requested: cfg.registered_bytes(),
                    cap,
                });
            }
        }
        Ok(RingCore {
            driver,
            label: label.into(),
            bufs: (0..cfg.buf_count)
                .map(|_| vec![0u8; cfg.buf_size])
                .collect(),
            buf_state: (0..cfg.buf_count).map(|_| BufState::Free).collect(),
            conns: BTreeMap::new(),
            listeners: BTreeMap::new(),
            next_conn: 0,
            next_listener: 0,
            sq: VecDeque::with_capacity(cfg.sq_depth),
            cq: VecDeque::with_capacity(cfg.cq_depth),
            in_flight: 0,
            counters: RingCounters {
                pushed: 0,
                completed: 0,
                reaped: 0,
            },
            gauges: None,
            cfg,
        })
    }

    /// The geometry this ring was built with.
    pub fn cfg(&self) -> RingConfig {
        self.cfg
    }

    /// The driver underneath (stack-specific accessors).
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// Register a connection; its id is valid in `Read`/`Write`/`Close`
    /// ops until a `Close` completion retires it.
    pub fn add_conn(&mut self, conn: D::Conn) -> u32 {
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(
            id,
            ConnEntry {
                conn,
                rx_bytes: 0,
                q: VecDeque::new(),
            },
        );
        id
    }

    /// Register a listener; its id is valid in `Accept` ops.
    pub fn add_listener(&mut self, l: D::Listener) -> u32 {
        let id = self.next_listener;
        self.next_listener += 1;
        self.listeners.insert(
            id,
            ListenerEntry {
                l,
                q: VecDeque::new(),
            },
        );
        id
    }

    /// Borrow a registered connection (stack-specific inspection).
    pub fn conn(&self, id: u32) -> Option<&D::Conn> {
        self.conns.get(&id).map(|e| &e.conn)
    }

    /// Registered connections currently live.
    pub fn live_conns(&self) -> usize {
        self.conns.len()
    }

    /// Read access to a registered buffer (the bytes a `Read` completed
    /// into, or what a `Write` will send).
    pub fn buf(&self, id: u32) -> Option<&[u8]> {
        self.bufs.get(id as usize).map(Vec::as_slice)
    }

    /// Copy `data` into the front of a free registered buffer (the
    /// staging step before a `Write` op names it).
    pub fn fill(&mut self, id: u32, data: &[u8]) -> Result<(), RingError> {
        let Some(b) = self.bufs.get_mut(id as usize) else {
            return Err(RingError::BadBuf(id));
        };
        if data.len() > b.len() {
            return Err(RingError::BadLen {
                buf: id,
                len: data.len() as u32,
            });
        }
        if matches!(self.buf_state[id as usize], BufState::Attached) {
            return Err(RingError::BufInFlight(id));
        }
        b[..data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Buffers currently application-owned. Equal to
    /// [`RingConfig::buf_count`] exactly when nothing is in flight or
    /// unreaped — the no-leak check the teardown tests assert.
    pub fn free_bufs(&self) -> usize {
        self.buf_state
            .iter()
            .filter(|s| matches!(s, BufState::Free))
            .count()
    }

    /// Current occupancy.
    pub fn depths(&self) -> RingDepths {
        RingDepths {
            sq: self.sq.len(),
            in_flight: self.in_flight,
            cq: self.cq.len(),
        }
    }

    /// Monotonic op accounting.
    pub fn counters(&self) -> RingCounters {
        self.counters
    }

    /// Completions admitted to but not yet retired from the ring — every
    /// one is guaranteed a CQ slot.
    fn committed(&self) -> usize {
        self.sq.len() + self.in_flight + self.cq.len()
    }

    /// Push one op onto the submission queue. All validation is here, as
    /// typed errors; an accepted op is guaranteed to complete exactly
    /// once. A buffer named by the op becomes ring-owned until its
    /// completion is reaped.
    pub fn push(&mut self, sqe: Sqe) -> Result<(), RingError> {
        if self.sq.len() >= self.cfg.sq_depth {
            return Err(RingError::SqFull);
        }
        if self.committed() >= self.cfg.cq_depth {
            return Err(RingError::CqOverflow);
        }
        match sqe.op {
            RingOp::Accept { listener } => {
                if !self.listeners.contains_key(&listener) {
                    return Err(RingError::BadTarget(listener));
                }
            }
            RingOp::Read { conn, buf } => {
                self.check_conn(conn)?;
                self.check_buf(buf, None)?;
            }
            RingOp::Write { conn, buf, len } => {
                self.check_conn(conn)?;
                self.check_buf(buf, Some(len))?;
            }
            RingOp::Close { conn } => self.check_conn(conn)?,
        }
        if let Some(b) = sqe.op.buf() {
            self.buf_state[b as usize] = BufState::Attached;
        }
        self.sq.push_back(sqe);
        self.counters.pushed += 1;
        Ok(())
    }

    fn check_conn(&self, conn: u32) -> Result<(), RingError> {
        if self.conns.contains_key(&conn) {
            Ok(())
        } else {
            Err(RingError::BadTarget(conn))
        }
    }

    fn check_buf(&self, buf: u32, len: Option<u32>) -> Result<(), RingError> {
        let Some(b) = self.bufs.get(buf as usize) else {
            return Err(RingError::BadBuf(buf));
        };
        if let Some(len) = len {
            if len as usize > b.len() {
                return Err(RingError::BadLen { buf, len });
            }
        }
        if matches!(self.buf_state[buf as usize], BufState::Attached) {
            return Err(RingError::BufInFlight(buf));
        }
        Ok(())
    }

    /// Move the SQ into the per-target queues and drive every target as
    /// far as it goes without blocking. Returns without parking.
    pub fn submit(&mut self, ctx: &ProcessCtx) -> SimResult<()> {
        while let Some(sqe) = self.sq.pop_front() {
            self.in_flight += 1;
            match sqe.op {
                RingOp::Accept { listener } => {
                    // Validated at push; a listener is never retired
                    // while the ring lives.
                    self.listeners
                        .get_mut(&listener)
                        .expect("push validated listener")
                        .q
                        .push_back(sqe);
                }
                RingOp::Read { conn, .. } | RingOp::Write { conn, .. } | RingOp::Close { conn } => {
                    match self.conns.get_mut(&conn) {
                        Some(e) => e.q.push_back(sqe),
                        // The conn was retired by a Close that completed
                        // after this op was pushed: fail it, in order.
                        None => self.complete(
                            sqe,
                            CqeResult::Failed {
                                err: NetError::Closed,
                            },
                        ),
                    }
                }
            }
        }
        self.drive(ctx)?;
        self.publish_gauges(ctx);
        Ok(())
    }

    /// [`RingCore::submit`], then park until at least `min_complete`
    /// completions are reapable. [`RingError::Stalled`] when fewer ops
    /// than that are committed to the ring (the wait could never end).
    pub fn submit_and_wait(
        &mut self,
        ctx: &ProcessCtx,
        min_complete: usize,
    ) -> SimResult<Result<(), RingError>> {
        self.submit(ctx)?;
        while self.cq.len() < min_complete {
            if self.committed() < min_complete {
                return Ok(Err(RingError::Stalled));
            }
            self.park(ctx)?;
            self.drive(ctx)?;
            self.publish_gauges(ctx);
        }
        Ok(Ok(()))
    }

    /// Pop up to `max` completions. Each reaped CQE returns its attached
    /// buffer (if any) to application ownership.
    pub fn reap(&mut self, max: usize) -> Vec<Cqe> {
        let n = max.min(self.cq.len());
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let (cqe, buf) = self.cq.pop_front().expect("len checked");
            if let Some(b) = buf {
                self.buf_state[b as usize] = BufState::Free;
            }
            self.counters.reaped += 1;
            out.push(cqe);
        }
        out
    }

    /// Cancel the op tagged `user_data` if it has not yet run: it
    /// completes as [`CqeResult::Failed`] with [`NetError::Cancelled`]
    /// (any attached buffer returns to the application when that CQE is
    /// reaped — buffer ownership follows the normal completion path, so
    /// nothing leaks). Ops behind it on the same target keep their FIFO
    /// order. Returns `false` when no queued op carries the tag — it
    /// already completed (its CQE is in the CQ or was reaped) or never
    /// existed; distinguishing those is the caller's `user_data`
    /// discipline. The async front end calls this when an op future is
    /// dropped before completing.
    pub fn cancel(&mut self, ctx: &ProcessCtx, user_data: u64) -> bool {
        // Not yet submitted: still on the SQ.
        if let Some(pos) = self.sq.iter().position(|s| s.user_data == user_data) {
            let sqe = self.sq.remove(pos).expect("position found");
            self.in_flight += 1; // complete() expects an in-flight op
            self.complete(
                sqe,
                CqeResult::Failed {
                    err: NetError::Cancelled,
                },
            );
            self.publish_gauges(ctx);
            return true;
        }
        // Submitted: sitting in some target's FIFO.
        let found = |q: &VecDeque<Sqe>| q.iter().position(|s| s.user_data == user_data);
        let mut cancelled: Option<Sqe> = None;
        for e in self.conns.values_mut() {
            if let Some(pos) = found(&e.q) {
                cancelled = e.q.remove(pos);
                break;
            }
        }
        if cancelled.is_none() {
            for e in self.listeners.values_mut() {
                if let Some(pos) = found(&e.q) {
                    cancelled = e.q.remove(pos);
                    break;
                }
            }
        }
        match cancelled {
            Some(sqe) => {
                self.complete(
                    sqe,
                    CqeResult::Failed {
                        err: NetError::Cancelled,
                    },
                );
                self.publish_gauges(ctx);
                true
            }
            None => false,
        }
    }

    /// Register a task waker to fire when a stalled head op could make
    /// progress — the completion layer as an executor wake source.
    /// Returns the earliest head-op deadline so the caller can arm a
    /// timer for expiry, or `Ok(None)` when nothing is stalled (no
    /// registration happens; the caller should reap instead of sleeping).
    /// Wakes may be spurious: re-drive ([`RingCore::submit`]) and
    /// re-register on every poll.
    ///
    /// Panics if the driver lacks waker support (the base
    /// [`RingDriver::register_waker`]) — a sleep would otherwise never
    /// end.
    pub fn register_waker(
        &mut self,
        ctx: &ProcessCtx,
        waker: &std::task::Waker,
    ) -> SimResult<Option<SimTime>> {
        let Stalled {
            conns,
            listeners,
            next_deadline,
        } = self.stalled();
        if conns.is_empty() && listeners.is_empty() {
            return Ok(None);
        }
        let supported = self.driver.register_waker(ctx, &conns, &listeners, waker)?;
        assert!(supported, "ring driver has no waker support");
        Ok(next_deadline)
    }

    /// Tear the ring down: fail every queued op (as [`NetError::Closed`]
    /// completions, reaped and discarded), close every live connection
    /// and listener through the driver, and release every buffer. After
    /// this, [`RingCore::free_bufs`] equals the pool size.
    pub fn shutdown(&mut self, ctx: &ProcessCtx) -> SimResult<()> {
        // Queued-but-unsubmitted and submitted-but-unattempted ops fail.
        let sq: Vec<Sqe> = self.sq.drain(..).collect();
        for sqe in sq {
            self.in_flight += 1;
            self.complete(
                sqe,
                CqeResult::Failed {
                    err: NetError::Closed,
                },
            );
        }
        let conn_ids: Vec<u32> = self.conns.keys().copied().collect();
        for id in conn_ids {
            let mut e = self.conns.remove(&id).expect("listed");
            let q: Vec<Sqe> = e.q.drain(..).collect();
            for sqe in q {
                self.complete(
                    sqe,
                    CqeResult::Failed {
                        err: NetError::Closed,
                    },
                );
            }
            self.driver.close(ctx, e.conn)?;
        }
        let listener_ids: Vec<u32> = self.listeners.keys().copied().collect();
        for id in listener_ids {
            let mut e = self.listeners.remove(&id).expect("listed");
            let q: Vec<Sqe> = e.q.drain(..).collect();
            for sqe in q {
                self.complete(
                    sqe,
                    CqeResult::Failed {
                        err: NetError::Closed,
                    },
                );
            }
            self.driver.close_listener(ctx, e.l)?;
        }
        // Drain the CQ (releasing buffers); discard the failures.
        let backlog = self.cq.len();
        let _ = self.reap(backlog);
        self.publish_gauges(ctx);
        Ok(())
    }

    /// Record a completion for `sqe` (which must already count as in
    /// flight) and release bookkeeping. The attached buffer stays
    /// ring-owned until the CQE is reaped.
    fn complete(&mut self, sqe: Sqe, result: CqeResult) {
        debug_assert!(self.in_flight >= 1);
        debug_assert!(self.cq.len() < self.cfg.cq_depth, "admission bounds CQ");
        self.in_flight -= 1;
        self.counters.completed += 1;
        self.cq.push_back((
            Cqe {
                user_data: sqe.user_data,
                result,
            },
            sqe.op.buf(),
        ));
    }

    /// Attempt every target's head op until nothing makes progress.
    /// Targets are visited in id order each pass, so cross-target
    /// completion order is deterministic for a given readiness history.
    fn drive(&mut self, ctx: &ProcessCtx) -> SimResult<()> {
        loop {
            let mut progressed = false;
            let listener_ids: Vec<u32> = self.listeners.keys().copied().collect();
            for id in listener_ids {
                progressed |= self.drive_listener(ctx, id)?;
            }
            let conn_ids: Vec<u32> = self.conns.keys().copied().collect();
            for id in conn_ids {
                progressed |= self.drive_conn(ctx, id)?;
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    fn drive_listener(&mut self, ctx: &ProcessCtx, id: u32) -> SimResult<bool> {
        let mut progressed = false;
        loop {
            let Some(e) = self.listeners.get_mut(&id) else {
                return Ok(progressed);
            };
            let Some(&sqe) = e.q.front() else {
                return Ok(progressed);
            };
            let outcome = self.driver.try_accept(ctx, &e.l)?;
            let Some(outcome) = Self::settle(ctx, &sqe, outcome) else {
                return Ok(progressed);
            };
            e.q.pop_front();
            let result = match outcome {
                Ok(conn) => CqeResult::Accepted {
                    conn: self.add_conn(conn),
                },
                Err(err) => CqeResult::Failed { err },
            };
            self.complete(sqe, result);
            progressed = true;
        }
    }

    fn drive_conn(&mut self, ctx: &ProcessCtx, id: u32) -> SimResult<bool> {
        let mut progressed = false;
        loop {
            let Some(e) = self.conns.get_mut(&id) else {
                return Ok(progressed);
            };
            let Some(&sqe) = e.q.front() else {
                return Ok(progressed);
            };
            let outcome = match sqe.op {
                RingOp::Read { buf, .. } => {
                    // Split the borrow: lift the buffer out while the
                    // stack completes into it.
                    let mut storage = std::mem::take(&mut self.bufs[buf as usize]);
                    let r = self.driver.try_read(ctx, &e.conn, &mut storage);
                    self.bufs[buf as usize] = storage;
                    r?.map(|n| {
                        if n == 0 {
                            CqeResult::Close {
                                conn: id,
                                final_seq: e.rx_bytes,
                            }
                        } else {
                            e.rx_bytes += n as u64;
                            CqeResult::Read { buf, len: n as u32 }
                        }
                    })
                }
                RingOp::Write { buf, len, .. } => {
                    let storage = std::mem::take(&mut self.bufs[buf as usize]);
                    let r = self
                        .driver
                        .try_write(ctx, &e.conn, &storage[..len as usize]);
                    self.bufs[buf as usize] = storage;
                    r?.map(|n| CqeResult::Wrote { buf, len: n as u32 })
                }
                RingOp::Close { .. } => {
                    // Retire the connection; later ops queued on it fail
                    // in submission order.
                    let mut e = self.conns.remove(&id).expect("borrowed above");
                    e.q.pop_front();
                    let rest: Vec<Sqe> = e.q.drain(..).collect();
                    self.driver.close(ctx, e.conn)?;
                    self.complete(sqe, CqeResult::Closed { conn: id });
                    for later in rest {
                        self.complete(
                            later,
                            CqeResult::Failed {
                                err: NetError::Closed,
                            },
                        );
                    }
                    return Ok(true);
                }
                RingOp::Accept { .. } => unreachable!("accepts queue on listeners"),
            };
            let Some(outcome) = Self::settle(ctx, &sqe, outcome) else {
                return Ok(progressed);
            };
            e.q.pop_front();
            self.complete(sqe, outcome.unwrap_or_else(|err| CqeResult::Failed { err }));
            progressed = true;
        }
    }

    /// A head op's attempt, or `None` while it would still block: a stall
    /// past the op's deadline settles as a [`NetError::Timeout`] failure
    /// instead of blocking further.
    fn settle<T>(
        ctx: &ProcessCtx,
        sqe: &Sqe,
        outcome: Result<T, NetError>,
    ) -> Option<Result<T, NetError>> {
        match outcome {
            Err(NetError::WouldBlock) if sqe.deadline.is_some_and(|d| ctx.now() >= d) => {
                Some(Err(NetError::Timeout))
            }
            Err(NetError::WouldBlock) => None,
            settled => Some(settled),
        }
    }

    /// Every target whose head op would block, with the progress it waits
    /// for, and the earliest deadline among those ops.
    fn stalled(&self) -> Stalled<'_, D::Conn, D::Listener> {
        let mut s = Stalled {
            conns: Vec::new(),
            listeners: Vec::new(),
            next_deadline: None,
        };
        for e in self.conns.values() {
            let Some(head) = e.q.front() else { continue };
            let interest = match head.op {
                RingOp::Read { .. } => Interest::READABLE,
                RingOp::Write { .. } => Interest::WRITABLE,
                // A Close head never stalls (drive retires it).
                _ => continue,
            };
            s.note(head.deadline);
            s.conns.push((&e.conn, interest));
        }
        for e in self.listeners.values() {
            let Some(head) = e.q.front() else { continue };
            s.note(head.deadline);
            s.listeners.push(&e.l);
        }
        s
    }

    /// Park until some stalled head op could make progress, or until the
    /// earliest head-op deadline so `drive` can expire it.
    fn park(&mut self, ctx: &ProcessCtx) -> SimResult<()> {
        let Stalled {
            conns,
            listeners,
            next_deadline,
        } = self.stalled();
        debug_assert!(
            !(conns.is_empty() && listeners.is_empty()),
            "park only with stalled ops (submit_and_wait checks committed)"
        );
        let timeout = match next_deadline {
            // An already-due deadline: skip the park entirely so the
            // next drive pass expires the op.
            Some(d) if d <= ctx.now() => return Ok(()),
            Some(d) => Some(d.since(ctx.now())),
            None => None,
        };
        self.driver.wait(ctx, &conns, &listeners, timeout)
    }

    /// Export the ring depths through the telemetry registry (gauges are
    /// sampled into time series automatically).
    fn publish_gauges(&mut self, ctx: &ProcessCtx) {
        if self.gauges.is_none() {
            let reg = ctx.telemetry();
            self.gauges = Some(RingGauges {
                sq: reg.gauge(&format!("ring.{}.sq", self.label)),
                in_flight: reg.gauge(&format!("ring.{}.in_flight", self.label)),
                cq: reg.gauge(&format!("ring.{}.cq", self.label)),
            });
        }
        let g = self.gauges.as_ref().expect("just filled");
        g.sq.set(self.sq.len() as i64);
        g.in_flight.set(self.in_flight as i64);
        g.cq.set(self.cq.len() as i64);
    }
}

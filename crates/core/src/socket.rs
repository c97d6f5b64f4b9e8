//! The public sockets API of the substrate.
//!
//! [`EmpSockets`] is one process's sockets library instance; it hands out
//! [`Listener`]s and [`Connection`]s whose `read`/`write`/`close` behave
//! like their BSD counterparts — while everything underneath runs on EMP
//! in user space, kernel-free after buffer registration.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use emp_proto::{EmpEndpoint, RecvHandle, SendHandle};
use parking_lot::Mutex;
use simnet::{
    until_deadline, wait_any, Interest, MacAddr, NetError, OpResult, ProcessCtx, SimAccess,
    SimAccessExt, SimDuration, SimResult,
};

use crate::config::{SocketType, SubstrateConfig};
use crate::conn::{ProcShared, SockShared};
use crate::conn_core::OpKind;
use crate::proto::{Msg, CONN_REQ, FIRST_MAX};
use crate::stream::ok_or_return;
use crate::tags;

/// A remote (or local) substrate address: station + port.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SockAddr {
    /// Station address.
    pub host: MacAddr,
    /// Port (must fit the substrate's tag encoding, `<= tags::MAX_PORT`).
    pub port: u16,
}

impl SockAddr {
    /// Construct from host and port.
    pub fn new(host: MacAddr, port: u16) -> Self {
        SockAddr { host, port }
    }
}

/// Capacity of a listener's backlog slot: a connection request with its
/// connection's first write aboard. Every listener posts this size,
/// preset or not, so any client's request fits.
const BACKLOG_SLOT: usize = CONN_REQ + FIRST_MAX;

/// Post `n` backlog slots for `port` into `range`, behind one doorbell:
/// `listen()`'s whole backlog and `accept()`'s replacement alike, so the
/// two can never disagree on the slot size.
fn post_backlog(
    proc_: &ProcShared,
    ctx: &ProcessCtx,
    port: u16,
    range: hostsim::VirtRange,
    n: usize,
) -> SimResult<Vec<RecvHandle>> {
    let posts = vec![(tags::conn_tag(port), None, BACKLOG_SLOT, range); n];
    proc_.ep.post_recv_batch(ctx, &posts)
}

/// One process's sockets-over-EMP library instance.
#[derive(Clone)]
pub struct EmpSockets {
    proc_: Arc<ProcShared>,
}

impl EmpSockets {
    /// Bind the substrate to a node's EMP endpoint with the given
    /// configuration. `cfg.piggyback_acks` switches piggy-backing at both
    /// layers: credit acks on reverse data here, and EMP's own acks on
    /// reverse frames in the NIC (DESIGN §8).
    pub fn new(ep: EmpEndpoint, cfg: SubstrateConfig) -> Self {
        ep.nic().set_piggyback_acks(cfg.piggyback_acks);
        EmpSockets {
            proc_: ProcShared::new(ep, cfg),
        }
    }

    /// This station's address.
    pub fn local_host(&self) -> MacAddr {
        self.proc_.ep.addr()
    }

    /// The substrate configuration in force.
    pub fn cfg(&self) -> &SubstrateConfig {
        &self.proc_.cfg
    }

    /// The EMP endpoint underneath (stats, NIC access).
    pub fn endpoint(&self) -> &EmpEndpoint {
        &self.proc_.ep
    }

    /// Passive open: pre-post `backlog` connection-request descriptors on
    /// `port` (§5.1: the backlog "limits the number of connections that
    /// can be simultaneously waiting for an acceptance").
    pub fn listen(&self, ctx: &ProcessCtx, port: u16, backlog: usize) -> OpResult<Listener> {
        self.proc_.ensure_init(ctx)?;
        if port > tags::MAX_PORT {
            return Ok(Err(NetError::AddrInUse));
        }
        {
            let mut st = self.proc_.state.lock();
            if st.listeners.contains_key(&port) {
                return Ok(Err(NetError::AddrInUse));
            }
            st.listeners.insert(port, ());
        }
        let range = self.proc_.alloc_range(BACKLOG_SLOT);
        let pending: VecDeque<RecvHandle> =
            post_backlog(&self.proc_, ctx, port, range, backlog.max(1))?.into();
        Ok(Ok(Listener {
            proc_: Arc::clone(&self.proc_),
            port,
            pending: Arc::new(Mutex::new(pending)),
            range,
        }))
    }

    /// Active open: allocate a connection id, wire up the local side, and
    /// send the connection-request message (§5.1).
    ///
    /// With no connect timeout configured it returns at once, and the
    /// application may write right away; a refused connection surfaces
    /// as [`NetError::Refused`] on a later operation. Under the §6.1
    /// switch (`piggyback_acks`, as in `default()`) a stream connect sends
    /// nothing yet: the connection's first operation sends the request
    /// (DESIGN §12). A first `write` of 1..=[`crate::proto::FIRST_MAX`]
    /// bytes travels inside it as data message 0, copied, spending no
    /// credit — one frame instead of two, as TCP Fast Open (RFC 7413)
    /// carries data in its SYN and Linux's `TCP_FASTOPEN_CONNECT` defers
    /// the SYN to the first `write()`. Any other first operation (a larger
    /// or empty write, a read, a poll for readability, `try_write`,
    /// `flush`, `shutdown_write`, `close`) sends the bare request first.
    /// Until then the server does not see the connection: a client that
    /// waits for a server to speak first should poll, read or flush. The
    /// presets send the request at once, and the server queues whatever
    /// rode in it whatever its own configuration.
    ///
    /// With a deadline ([`SubstrateConfig::with_connect_timeout`]) the
    /// call sends the request bare and blocks, and fails with a *typed*
    /// outcome: [`NetError::Refused`] when the receiver positively refused
    /// the request (full backlog, no listener), [`NetError::Timeout`] when
    /// nobody answered within the deadline, [`NetError::Exhausted`] past
    /// the local connection budget. A configured credit count outside
    /// `1..=65535`, which the request cannot carry, is
    /// [`NetError::Invalid`] before anything is posted.
    pub fn connect(&self, ctx: &ProcessCtx, addr: SockAddr) -> OpResult<Connection> {
        self.connect_inner(ctx, addr, None)
    }

    /// [`Self::connect`] bounded by `deadline` for this one call,
    /// overriding (or standing in for) the configured connect timeout.
    pub fn connect_deadline(
        &self,
        ctx: &ProcessCtx,
        addr: SockAddr,
        deadline: SimDuration,
    ) -> OpResult<Connection> {
        self.connect_inner(ctx, addr, Some(deadline))
    }

    fn connect_inner(
        &self,
        ctx: &ProcessCtx,
        addr: SockAddr,
        deadline: Option<SimDuration>,
    ) -> OpResult<Connection> {
        let cfg = &self.proc_.cfg;
        if !(1..=u32::from(u16::MAX)).contains(&cfg.credits) {
            return Ok(Err(NetError::Invalid));
        }
        self.proc_.ensure_init(ctx)?;
        if addr.port > tags::MAX_PORT {
            return Ok(Err(NetError::AddrInUse));
        }
        let cid = ok_or_return!(self.proc_.alloc_cid());
        // Windows that grow with traffic ride the §6.1 switch: the
        // request announces them and the acceptor adopts them.
        let grows_window = cfg.piggyback_acks;
        let sock = SockShared::establish(
            &self.proc_,
            ctx,
            cid,
            addr.host,
            addr.port,
            true, // we are the client
            cfg.socket_type,
            cfg.credits,
            cfg.temp_buf_size,
            grows_window,
        )?;
        match deadline.or(cfg.connect_timeout) {
            // A blocking connect sends the request *refusably*: it must
            // never park in the receiver's unexpected queue — a full
            // backlog (or no listener at all) answers with a NACK that
            // surfaces here as a deterministic `Refused`.
            Some(deadline) => ok_or_return!(self.await_connect(ctx, &sock, deadline)?),
            // A non-blocking connect keeps the parking behaviour: hiding
            // the request round trip behind pipelined data (§7.4) depends
            // on it. Under the §6.1 switch a stream's first operation
            // sends it, with the first write aboard when that fits; the
            // presets send it now.
            None if grows_window && cfg.socket_type == SocketType::Stream => {
                sock.inner.lock().core.hold_request();
            }
            None => sock.post_conn_req(ctx, Bytes::new())?,
        }
        Ok(Ok(Connection { sock }))
    }

    /// The blocking half of `connect()`: send the request and wait for its
    /// ack, resending whenever EMP gives up on it after `deadline / 8`,
    /// doubling, capped at the deadline. Refusal and silence fail apart;
    /// either way the half-built side is torn down first, leaking nothing.
    fn await_connect(
        &self,
        ctx: &ProcessCtx,
        sock: &Arc<SockShared>,
        deadline: SimDuration,
    ) -> OpResult<()> {
        let req = sock.conn_req(Bytes::new()).encode();
        let range = sock.inner.lock().send_range;
        let tag = tags::conn_tag(sock.port);
        let send = || -> SimResult<SendHandle> {
            let h = self
                .proc_
                .ep
                .post_send_refusable(ctx, sock.peer, tag, req.clone(), range)?;
            sock.inner.lock().conn_send = Some(h.clone());
            Ok(h)
        };
        let mut handle = send()?;
        let give_up_at = ctx.now() + deadline;
        let base = deadline / 8;
        let mut backoff = if base.is_zero() { deadline } else { base }.nanos();
        let failure = loop {
            match handle.status() {
                Some(true) => break None,
                Some(false) if handle.refused() => {
                    // The receiver positively refused the request: full
                    // backlog or nobody listening on the port. Retrying
                    // immediately would re-create the overload that
                    // refused us — surface it.
                    break Some(NetError::Refused);
                }
                Some(false) => {
                    // EMP gave up without an answer (dead station,
                    // exhausted link retries): back off and resend while
                    // the deadline allows.
                    let wait = SimDuration::from_nanos(backoff.max(1));
                    if ctx.now() + wait >= give_up_at {
                        break Some(NetError::Timeout);
                    }
                    ctx.delay(wait)?;
                    backoff = backoff.saturating_mul(2).min(deadline.nanos());
                    handle = send()?;
                }
                None => {
                    let timer = simnet::Completion::new();
                    let t2 = timer.clone();
                    ctx.timer_at(give_up_at, move |s| t2.complete(s));
                    wait_any(ctx, &[handle.completion(), &timer])?;
                    if !handle.is_done() {
                        break Some(NetError::Timeout);
                    }
                }
            }
        };
        if let Some(err) = failure {
            let series = match err {
                NetError::Refused => "sock.connects_refused",
                _ => "sock.connects_timedout",
            };
            ctx.telemetry().counter(series).add(1);
            // Suppress the goodbye: there is nobody to say it to.
            sock.inner.lock().core.peer_closed = true;
            sock.run_op(ctx, OpKind::Close, &[]).map(drop)?;
            return Ok(Err(err));
        }
        Ok(Ok(()))
    }

    /// Substrate-wide counters: every live connection's [`crate::ConnStats`]
    /// summed, plus table sizes. Closed connections leave the active table,
    /// so this reflects the substrate's current working set.
    pub fn stats(&self) -> SubstrateStats {
        let (socks, listeners, pooled_ranges) = {
            let st = self.proc_.state.lock();
            let socks: Vec<Arc<SockShared>> = st
                .active
                .values()
                .filter_map(std::sync::Weak::upgrade)
                .collect();
            (socks, st.listeners.len(), st.pooled_ranges())
        };
        let mut totals = crate::ConnStats::default();
        for s in &socks {
            totals += s.inner.lock().core.stats;
        }
        SubstrateStats {
            connections: socks.len(),
            listeners,
            pooled_ranges,
            totals,
        }
    }

    /// `select()` for readability across connections: blocks until one
    /// would not block on `read`, returning its index. A one-shot
    /// [`crate::PollSet`] with `READABLE` interests underneath; an empty
    /// set is [`NetError::Invalid`] (it could never wake), not a panic.
    ///
    /// This is the readiness way to multiplex connections in one
    /// process; the completion model ([`simnet::ring`]) is the other —
    /// there the application submits the reads themselves over
    /// registered buffers and waits on completions, never on readiness.
    pub fn select_readable(&self, ctx: &ProcessCtx, conns: &[&Connection]) -> OpResult<usize> {
        if conns.is_empty() {
            return Ok(Err(NetError::Invalid));
        }
        let mut set = crate::poll::PollSet::new();
        for (idx, c) in conns.iter().enumerate() {
            set.register_conn(c, idx, Interest::READABLE);
        }
        let events = ok_or_return!(set.poll(ctx, None)?);
        Ok(Ok(events[0].token))
    }
}

/// A listening substrate socket.
pub struct Listener {
    proc_: Arc<ProcShared>,
    port: u16,
    /// Pre-posted connection descriptors, completion order (shared with
    /// [`crate::PollSet`] registrations).
    pub(crate) pending: Arc<Mutex<VecDeque<RecvHandle>>>,
    range: hostsim::VirtRange,
}

impl Listener {
    /// The listening port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Block for the next connection request and build the server side of
    /// the connection (§5.1: "the substrate blocks on the completion of
    /// the descriptor at the head of the backlog queue").
    pub fn accept(&self, ctx: &ProcessCtx) -> OpResult<Connection> {
        let handle = {
            let mut p = self.pending.lock();
            match p.pop_front() {
                Some(h) => h,
                // The listener was closed (backlog drained).
                None => return Ok(Err(NetError::Closed)),
            }
        };
        // Keep the backlog depth constant.
        let replacement = post_backlog(&self.proc_, ctx, self.port, self.range, 1)?;
        self.pending.lock().extend(replacement);

        let Some(msg) = self.proc_.ep.wait_recv(ctx, &handle)? else {
            return Ok(Err(NetError::Closed));
        };
        let parsed = ok_or_return!(Msg::decode(&msg.data));
        let Msg::ConnReq {
            cid,
            port,
            socket_type,
            credits,
            buf_size,
            grows_window,
            first,
        } = parsed
        else {
            return Ok(Err(NetError::Protocol(
                "non-connection message on a listen tag",
            )));
        };
        debug_assert_eq!(port, self.port);
        let sock = SockShared::establish(
            &self.proc_,
            ctx,
            cid,
            msg.src,
            port,
            false, // accepted side: we are the server
            socket_type,
            u32::from(credits),
            buf_size as usize,
            grows_window,
        )?;
        if !first.is_empty() {
            sock.accept_first(ctx, first)?;
        }
        Ok(Ok(Connection { sock }))
    }

    /// [`Self::accept`] bounded by `deadline`: blocks for the next
    /// connection request, failing with [`NetError::Timeout`] if none
    /// arrives in time. The bounded-patience accept a server's event loop
    /// uses to interleave admission with housekeeping (idle reaping).
    pub fn accept_deadline(&self, ctx: &ProcessCtx, deadline: SimDuration) -> OpResult<Connection> {
        until_deadline(
            ctx,
            deadline,
            "sock.op_timeouts",
            || self.try_accept(ctx),
            |left| {
                let mut set = crate::poll::PollSet::new();
                set.register_listener(self, 0, Interest::ACCEPTABLE);
                Ok(set.poll(ctx, Some(left))?.map(|events| !events.is_empty()))
            },
        )
    }

    /// Nonblocking accept: build the connection when a request already
    /// landed at the head of the backlog; [`NetError::WouldBlock`] when
    /// an `accept` would park, [`NetError::Closed`] on a closed
    /// listener. Poll with [`simnet::Interest::ACCEPTABLE`] to learn when
    /// to retry.
    pub fn try_accept(&self, ctx: &ProcessCtx) -> OpResult<Connection> {
        let front_done = {
            let p = self.pending.lock();
            match p.front() {
                Some(h) => h.is_done(),
                None => return Ok(Err(NetError::Closed)),
            }
        };
        if !front_done {
            return Ok(Err(NetError::WouldBlock));
        }
        // The head descriptor is complete: `accept` will not block.
        self.accept(ctx)
    }

    /// Stop listening: unpost the backlog descriptors and free the port.
    pub fn close(&self, ctx: &ProcessCtx) -> SimResult<()> {
        let handles: Vec<RecvHandle> = self.pending.lock().drain(..).collect();
        for h in handles {
            if !h.is_done() {
                self.proc_.ep.unpost_recv(ctx, &h)?;
            }
        }
        self.proc_.state.lock().listeners.remove(&self.port);
        Ok(())
    }
}

/// An established substrate connection (one side).
pub struct Connection {
    pub(crate) sock: Arc<SockShared>,
}

impl Connection {
    /// The remote station.
    pub fn peer(&self) -> MacAddr {
        self.sock.peer
    }

    /// The connection id (diagnostics).
    pub fn cid(&self) -> u16 {
        self.sock.cid
    }

    /// The server port this connection targets.
    pub fn port(&self) -> u16 {
        self.sock.port
    }

    /// The negotiated credit count N.
    pub fn credits(&self) -> u32 {
        self.sock.credits_max
    }

    /// Stream or datagram.
    pub fn socket_type(&self) -> SocketType {
        self.sock.socket_type
    }

    /// Write the whole buffer.
    ///
    /// * Stream sockets: fragments into temp-buffer-sized messages behind
    ///   credit-based flow control; blocking, zero-copy on the send side.
    /// * Datagram sockets: one message with preserved boundaries; eager if
    ///   it fits a frame, rendezvous otherwise.
    pub fn write(&self, ctx: &ProcessCtx, data: &[u8]) -> OpResult<usize> {
        match self.sock.socket_type {
            SocketType::Stream => {
                let len = data.len();
                self.sock
                    .run_op(ctx, OpKind::Write { len, block: true }, data)
            }
            SocketType::Datagram => self.sock.dgram_send(ctx, data),
        }
    }

    /// Read up to `max` bytes.
    ///
    /// * Stream sockets: any available prefix (TCP-style partial reads);
    ///   empty bytes = EOF after the peer closed.
    /// * Datagram sockets: exactly one whole message (which must fit
    ///   `max`); empty bytes = peer closed.
    pub fn read(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Bytes> {
        match self.sock.socket_type {
            SocketType::Stream => self.sock.stream_read(ctx, max, true),
            SocketType::Datagram => self.sock.dgram_recv(ctx, max, true),
        }
    }

    /// Read exactly `n` bytes (stream sockets); `None` on premature EOF.
    pub fn read_exact(&self, ctx: &ProcessCtx, n: usize) -> OpResult<Option<Bytes>> {
        let mut buf = Vec::with_capacity(n);
        while buf.len() < n {
            let chunk = ok_or_return!(self.read(ctx, n - buf.len())?);
            if chunk.is_empty() {
                return Ok(Ok(None));
            }
            buf.extend_from_slice(&chunk);
        }
        Ok(Ok(Some(Bytes::from(buf))))
    }

    /// [`Self::read`] bounded by `deadline`: serves data the moment any
    /// is available, and fails with [`NetError::Timeout`] if none lands
    /// in time. A slow peer stops costing the caller unbounded patience.
    pub fn read_deadline(
        &self,
        ctx: &ProcessCtx,
        max: usize,
        deadline: SimDuration,
    ) -> OpResult<Bytes> {
        until_deadline(
            ctx,
            deadline,
            "sock.op_timeouts",
            || self.try_read(ctx, max),
            |left| self.wait_ready(ctx, Interest::READABLE, left),
        )
    }

    /// [`Self::write`] bounded by `deadline`: accepts as many bytes as
    /// flow control allows the moment credits are available, and fails
    /// with [`NetError::Timeout`] if none free up in time — a slow reader
    /// stops pinning the writer forever. Returns the byte count accepted
    /// (possibly short, like a POSIX `write`).
    pub fn write_deadline(
        &self,
        ctx: &ProcessCtx,
        data: &[u8],
        deadline: SimDuration,
    ) -> OpResult<usize> {
        until_deadline(
            ctx,
            deadline,
            "sock.op_timeouts",
            || self.try_write(ctx, data),
            |left| self.wait_ready(ctx, Interest::WRITABLE, left),
        )
    }

    /// Park in a one-entry [`crate::PollSet`] until `interest` holds
    /// (`true`) or `within` passes (`false`).
    fn wait_ready(
        &self,
        ctx: &ProcessCtx,
        interest: Interest,
        within: SimDuration,
    ) -> OpResult<bool> {
        let mut set = crate::poll::PollSet::new();
        set.register_conn(self, 0, interest);
        Ok(set
            .poll(ctx, Some(within))?
            .map(|events| !events.is_empty()))
    }

    /// Nonblocking write: accept what can be sent with the credits (or
    /// eager budget) in hand right now.
    ///
    /// * Stream sockets: sends up to `data.len()` bytes as credits allow
    ///   and returns the count accepted; [`NetError::WouldBlock`] when
    ///   the credits are exhausted before any byte is taken.
    /// * Datagram sockets: eager-sized messages go out as usual (they are
    ///   fire-and-forget); rendezvous-sized ones are
    ///   [`NetError::Invalid`] — the round trip cannot complete without
    ///   blocking.
    pub fn try_write(&self, ctx: &ProcessCtx, data: &[u8]) -> OpResult<usize> {
        match self.sock.socket_type {
            SocketType::Stream => {
                let len = data.len();
                self.sock
                    .run_op(ctx, OpKind::Write { len, block: false }, data)
            }
            SocketType::Datagram if data.len() > self.sock.proc_.cfg.dgram_eager_max => {
                Ok(Err(NetError::Invalid))
            }
            SocketType::Datagram => self.sock.dgram_send(ctx, data),
        }
    }

    /// Nonblocking read: serve whatever is buffered or already landed;
    /// [`NetError::WouldBlock`] when a blocking `read` would park. Empty
    /// bytes = EOF. Poll with [`Interest::READABLE`] to learn
    /// when to retry.
    pub fn try_read(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Bytes> {
        match self.sock.socket_type {
            SocketType::Stream => self.sock.stream_read(ctx, max, false),
            SocketType::Datagram => self.sock.dgram_recv(ctx, max, false),
        }
    }

    /// Would `read` return without blocking?
    pub fn readable(&self) -> bool {
        self.sock.readable_now()
    }

    /// Would `write` make progress without blocking? True with stream
    /// credits in hand or in any error state (the write fails fast —
    /// POSIX `POLLOUT` semantics); always true for datagrams.
    pub fn writable(&self) -> bool {
        match self.sock.socket_type {
            SocketType::Stream => self.sock.inner.lock().core.writable(),
            SocketType::Datagram => true,
        }
    }

    /// Send now what small writes have staged
    /// ([`crate::CopyPolicy::stage_below`]) instead of leaving it to the
    /// staging deadline, blocking for a credit if none is in hand. No-op
    /// when nothing is staged or on a datagram socket.
    pub fn flush(&self, ctx: &ProcessCtx) -> OpResult<()> {
        match self.sock.socket_type {
            SocketType::Stream => {
                let flush = OpKind::Flush {
                    request: true,
                    block: true,
                };
                Ok(self.sock.run_op(ctx, flush, &[])?.map(drop))
            }
            SocketType::Datagram => Ok(Ok(())),
        }
    }

    /// Half-close the write side (`shutdown(SHUT_WR)`): the peer sees EOF
    /// after draining, while this side keeps reading. Useful for
    /// request/response protocols that signal end-of-request by shutdown.
    pub fn shutdown_write(&self, ctx: &ProcessCtx) -> SimResult<()> {
        self.sock.run_op(ctx, OpKind::ShutdownWrite, &[]).map(drop)
    }

    /// Orderly close: notify the peer and release every descriptor this
    /// connection holds (§5.3).
    pub fn close(&self, ctx: &ProcessCtx) -> SimResult<()> {
        self.sock.run_op(ctx, OpKind::Close, &[]).map(drop)
    }

    /// Per-connection substrate counters.
    pub fn stats(&self) -> crate::ConnStats {
        self.sock.inner.lock().core.stats
    }

    /// Diagnostic snapshot of the connection's receive/flow-control state.
    pub fn debug_state(&self) -> ConnDebugState {
        let i = self.sock.inner.lock();
        let done_slots = i.data_slots.iter().filter(|s| s.handle.is_done()).count();
        ConnDebugState {
            data_slots: i.data_slots.len(),
            done_slots,
            stream_len: i.core.stream_len,
            credits: i.core.credits,
            consumed: i.core.consumed,
            rearms_pending: i.core.rearms.len(),
            window: i.core.window,
            sends_in_flight: i.inflight_sends.len(),
            peer_closed: i.core.peer_closed,
            closed: i.core.closed,
        }
    }
}

/// Diagnostic snapshot of a connection's receive and flow-control state
/// (see [`Connection::debug_state`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnDebugState {
    /// Data descriptors currently posted.
    pub data_slots: usize,
    /// How many of those already completed.
    pub done_slots: usize,
    /// Bytes buffered in the reassembled stream awaiting `read()`.
    pub stream_len: usize,
    /// Send credits currently available (§6.1).
    pub credits: u32,
    /// Messages consumed since the last credit return.
    pub consumed: u32,
    /// Consumed data descriptors waiting for the send that returns their
    /// credits to re-arm them (piggy-backing on; always 0 under the
    /// presets). `data_slots + rearms_pending == window`.
    pub rearms_pending: usize,
    /// This side's receive window: 2 on a fresh connection whose connect
    /// announced growth (`default()`), N once its sender used both, and N
    /// from the start under the presets.
    pub window: u32,
    /// Send handles held until they are reaped: data messages, fc-acks
    /// and the close notification. A write or poll drops the completed
    /// ones; so does a read whenever it sends an fc-ack.
    pub sends_in_flight: usize,
    /// Peer sent a close notification.
    pub peer_closed: bool,
    /// This side is closed.
    pub closed: bool,
}

/// Substrate-wide counter aggregate (see [`EmpSockets::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubstrateStats {
    /// Live (not yet closed) connections in the active-socket table.
    pub connections: usize,
    /// Open listeners.
    pub listeners: usize,
    /// Registered buffer ranges in the process pool, free for the next
    /// connection.
    pub pooled_ranges: usize,
    /// Sum of every live connection's [`crate::ConnStats`].
    pub totals: crate::ConnStats,
}

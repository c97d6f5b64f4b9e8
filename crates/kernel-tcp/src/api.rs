//! The process-facing sockets API of the kernel stack.
//!
//! Handle-based (a `TcpConn` rather than an integer fd): the integer-fd
//! interposition story belongs to the sockets-over-EMP substrate, which
//! maintains its own descriptor table (paper §5.4); the kernel baseline
//! here only needs functional parity for the benchmarked applications.

use std::sync::Arc;

use bytes::Bytes;
use simnet::{
    until_deadline, Event, Interest, NetError, OpResult, ProcessCtx, SimAccess, SimAccessExt,
    SimDuration, SimResult,
};

use crate::stack::{ListenerState, TcpStack};
use crate::tcp::TcpSocket;
use crate::udp::{self, UdpPort};
use crate::wire::SockAddr;

/// What one [`TcpPollSource`] watches: a connection or a listener.
pub enum TcpPollTarget<'a> {
    /// An established connection (readable/writable interests).
    Conn(&'a TcpConn),
    /// A listening socket (acceptable interest).
    Listener(&'a TcpListener),
}

/// One registration of a [`TcpApi::poll`] call: target, caller-chosen
/// token, and the interests to watch.
pub struct TcpPollSource<'a> {
    /// The socket to watch.
    pub target: TcpPollTarget<'a>,
    /// Token reported back in the matching [`Event`].
    pub token: usize,
    /// Interests to watch ([`Interest::ERROR`] is always reported).
    pub interest: Interest,
}

/// Entry point for processes on a host: make connections, listen, bind UDP.
#[derive(Clone)]
pub struct TcpApi {
    stack: Arc<TcpStack>,
}

impl TcpApi {
    /// API bound to `stack`.
    pub fn new(stack: Arc<TcpStack>) -> Self {
        TcpApi { stack }
    }

    /// The stack behind this API.
    pub fn stack(&self) -> &Arc<TcpStack> {
        &self.stack
    }

    /// This host's address.
    pub fn local_host(&self) -> simnet::MacAddr {
        self.stack.host().id()
    }

    /// Active open to `remote`; blocks for the three-way handshake
    /// (~200-250 µs on the calibrated testbed, §7.4).
    pub fn connect(&self, ctx: &ProcessCtx, remote: SockAddr) -> OpResult<TcpConn> {
        Ok(self.stack.connect(ctx, remote)?.map(|sock| TcpConn {
            stack: Arc::clone(&self.stack),
            sock,
        }))
    }

    /// [`Self::connect`] bounded by `deadline`: fails with
    /// [`NetError::Timeout`] when the handshake has not completed in time
    /// (refusal stays the distinct [`NetError::Refused`]).
    pub fn connect_deadline(
        &self,
        ctx: &ProcessCtx,
        remote: SockAddr,
        deadline: SimDuration,
    ) -> OpResult<TcpConn> {
        Ok(self
            .stack
            .connect_inner(ctx, remote, Some(deadline))?
            .map(|sock| TcpConn {
                stack: Arc::clone(&self.stack),
                sock,
            }))
    }

    /// Passive open on `port`.
    pub fn listen(&self, ctx: &ProcessCtx, port: u16, backlog: usize) -> OpResult<TcpListener> {
        Ok(self.stack.listen(ctx, port, backlog)?.map(|l| TcpListener {
            stack: Arc::clone(&self.stack),
            l,
        }))
    }

    /// Bind a UDP port.
    pub fn udp_bind(&self, ctx: &ProcessCtx, port: u16) -> OpResult<UdpSock> {
        Ok(udp::bind(&self.stack, ctx, port)?.map(|p| UdpSock {
            stack: Arc::clone(&self.stack),
            p,
        }))
    }

    /// `poll()` over mixed sockets: blocks until at least one source is
    /// ready (or the timeout expires — then the empty vector), returning
    /// every ready one. One syscall charged on entry; every wait parks on
    /// the stack's activity condvar, which `sock_on_segment` notifies on
    /// each segment (data, acks opening the send window, accept-queue
    /// deliveries, resets), so all readiness kinds share one wake source.
    ///
    /// An empty source list with no timeout is [`NetError::Invalid`]
    /// (the wait could never wake).
    pub fn poll(
        &self,
        ctx: &ProcessCtx,
        sources: &[TcpPollSource<'_>],
        timeout: Option<SimDuration>,
    ) -> OpResult<Vec<Event>> {
        if sources.is_empty() && timeout.is_none() {
            return Ok(Err(NetError::Invalid));
        }
        ctx.delay(self.stack.host().cost().syscall)?;
        let give_up_at = timeout.map(|d| ctx.now() + d);
        if let Some(at) = give_up_at {
            // The deadline rides the same wake source as the sockets.
            let cv = self.stack.activity.clone();
            ctx.timer_at(at, move |s| cv.notify_all(s));
        }
        loop {
            let mut events = Vec::new();
            for src in sources {
                let ready = match &src.target {
                    TcpPollTarget::Conn(c) => {
                        let i = c.sock.inner.lock();
                        let mut r = Interest::EMPTY;
                        if i.reset {
                            r |= Interest::ERROR;
                        }
                        if src.interest.intersects(Interest::READABLE) && i.readable() {
                            r |= Interest::READABLE;
                        }
                        if src.interest.intersects(Interest::WRITABLE) && i.writable() {
                            r |= Interest::WRITABLE;
                        }
                        r
                    }
                    TcpPollTarget::Listener(l) => {
                        if src.interest.intersects(Interest::ACCEPTABLE) && !l.l.queue.is_empty() {
                            Interest::ACCEPTABLE
                        } else {
                            Interest::EMPTY
                        }
                    }
                };
                if !ready.is_empty() {
                    events.push(Event {
                        token: src.token,
                        ready,
                    });
                }
            }
            if !events.is_empty() {
                return Ok(Ok(events));
            }
            if give_up_at.is_some_and(|at| ctx.now() >= at) {
                return Ok(Ok(Vec::new()));
            }
            self.stack.activity.wait(ctx)?;
        }
    }

    /// `select()` over connections for readability: blocks until at least
    /// one is readable and returns its index. A readable-only
    /// [`TcpApi::poll`] underneath; an empty set is [`NetError::Invalid`]
    /// (it could never wake), not an endless park.
    pub fn select_readable(&self, ctx: &ProcessCtx, conns: &[&TcpConn]) -> OpResult<usize> {
        let sources: Vec<TcpPollSource<'_>> = conns
            .iter()
            .enumerate()
            .map(|(idx, c)| TcpPollSource {
                target: TcpPollTarget::Conn(c),
                token: idx,
                interest: Interest::READABLE,
            })
            .collect();
        Ok(self
            .poll(ctx, &sources, None)?
            .map(|events| events[0].token))
    }

    /// Change the socket-buffer size for sockets created from now on.
    pub fn set_sockbuf(&self, bytes: usize) {
        self.stack.set_sockbuf(bytes);
    }
}

/// An established TCP connection.
pub struct TcpConn {
    stack: Arc<TcpStack>,
    sock: Arc<TcpSocket>,
}

impl TcpConn {
    /// Peer address.
    pub fn peer_addr(&self) -> SockAddr {
        self.sock.remote
    }

    /// Blocking read of up to `max` bytes; an empty buffer is EOF.
    pub fn read(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Bytes> {
        self.stack.read(ctx, &self.sock, max, true)
    }

    /// Read exactly `n` bytes (looping over `read`); `None` on premature
    /// EOF.
    pub fn read_exact(&self, ctx: &ProcessCtx, n: usize) -> OpResult<Option<Bytes>> {
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

    /// Blocking write of the whole buffer.
    pub fn write(&self, ctx: &ProcessCtx, data: &[u8]) -> OpResult<usize> {
        self.stack.write(ctx, &self.sock, data, true)
    }

    /// Nonblocking read: serve what the receive buffer holds;
    /// [`NetError::WouldBlock`] when a blocking read would park.
    pub fn try_read(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Bytes> {
        self.stack.read(ctx, &self.sock, max, false)
    }

    /// [`Self::read`] bounded by `deadline`: serves data the moment any
    /// arrives, fails with [`NetError::Timeout`] if none does in time.
    pub fn read_deadline(
        &self,
        ctx: &ProcessCtx,
        max: usize,
        deadline: SimDuration,
    ) -> OpResult<Bytes> {
        until_deadline(
            ctx,
            deadline,
            "tcp.op_timeouts",
            || self.try_read(ctx, max),
            |left| self.wait_ready(ctx, Interest::READABLE, left),
        )
    }

    /// [`Self::write`] bounded by `deadline`: accepts what fits the send
    /// buffer the moment space frees up (a possibly short count, like
    /// POSIX `write`), fails with [`NetError::Timeout`] if the buffer
    /// stays full — the slowloris defence on the kernel stack.
    pub fn write_deadline(
        &self,
        ctx: &ProcessCtx,
        data: &[u8],
        deadline: SimDuration,
    ) -> OpResult<usize> {
        until_deadline(
            ctx,
            deadline,
            "tcp.op_timeouts",
            || self.try_write(ctx, data),
            |left| self.wait_ready(ctx, Interest::WRITABLE, left),
        )
    }

    /// Park until `interest` holds (`true`) or `within` passes (`false`).
    fn wait_ready(
        &self,
        ctx: &ProcessCtx,
        interest: Interest,
        within: SimDuration,
    ) -> OpResult<bool> {
        poll_one(
            &self.stack,
            ctx,
            TcpPollTarget::Conn(self),
            interest,
            within,
        )
    }

    /// Nonblocking write: copy what fits the send buffer and report the
    /// count accepted; [`NetError::WouldBlock`] when it is full before
    /// any byte is taken.
    pub fn try_write(&self, ctx: &ProcessCtx, data: &[u8]) -> OpResult<usize> {
        self.stack.write(ctx, &self.sock, data, false)
    }

    /// Orderly close (FIN behind buffered data).
    pub fn close(&self, ctx: &ProcessCtx) -> SimResult<()> {
        self.stack.close(ctx, &self.sock)
    }

    /// Would `read` return without blocking?
    pub fn readable(&self) -> bool {
        self.sock.inner.lock().readable()
    }

    /// Would `write` make progress without blocking? (Send-buffer space,
    /// or an error state the write reports immediately.)
    pub fn writable(&self) -> bool {
        self.sock.inner.lock().writable()
    }

    /// Nonblocking readiness with a task-waker registration — the async
    /// front end's leaf on the kernel stack. Computes the same ready mask
    /// as a [`TcpApi::poll`] pass; when it is empty, registers `waker` on
    /// the stack's activity condvar (the single wake source every segment
    /// notifies) and reports pending. Condvar wakes are multi-shot and
    /// may be spurious: the caller re-checks and re-registers each poll,
    /// which is exactly the waker contract. Registration happens *after*
    /// the readiness check inside the engine's strict alternation, so no
    /// segment can land in between — the lost-wakeup race cannot occur.
    pub fn poll_ready(&self, interest: Interest, waker: &std::task::Waker) -> Interest {
        let ready = {
            let i = self.sock.inner.lock();
            let mut r = Interest::EMPTY;
            if i.reset {
                r |= Interest::ERROR;
            }
            if interest.intersects(Interest::READABLE) && i.readable() {
                r |= Interest::READABLE;
            }
            if interest.intersects(Interest::WRITABLE) && i.writable() {
                r |= Interest::WRITABLE;
            }
            r
        };
        if ready.is_empty() {
            self.stack.activity.watch_waker(waker);
        }
        ready
    }
}

impl Drop for TcpConn {
    /// The last handle is gone: after [`TcpConn::close`], data that still
    /// arrives is answered with a reset.
    fn drop(&mut self) {
        self.sock.inner.lock().orphaned = true;
    }
}

/// A listening socket.
pub struct TcpListener {
    stack: Arc<TcpStack>,
    l: Arc<ListenerState>,
}

impl TcpListener {
    /// Block for the next established connection; [`NetError::Closed`]
    /// once the listener is closed ([`Self::unlisten`]) and its queue is
    /// empty.
    pub fn accept(&self, ctx: &ProcessCtx) -> OpResult<TcpConn> {
        Ok(self.stack.accept(ctx, &self.l, true)?.map(|sock| TcpConn {
            stack: Arc::clone(&self.stack),
            sock,
        }))
    }

    /// [`Self::accept`] bounded by `deadline`: fails with
    /// [`NetError::Timeout`] if no established connection is queued in
    /// time — the bounded-patience accept an event loop interleaves with
    /// housekeeping.
    pub fn accept_deadline(&self, ctx: &ProcessCtx, deadline: SimDuration) -> OpResult<TcpConn> {
        until_deadline(
            ctx,
            deadline,
            "tcp.op_timeouts",
            || self.try_accept(ctx),
            |left| {
                let target = TcpPollTarget::Listener(self);
                poll_one(&self.stack, ctx, target, Interest::ACCEPTABLE, left)
            },
        )
    }

    /// Nonblocking accept: pop an established connection if one is
    /// queued; [`NetError::WouldBlock`] otherwise. Poll with
    /// [`Interest::ACCEPTABLE`] to learn when to retry.
    pub fn try_accept(&self, ctx: &ProcessCtx) -> OpResult<TcpConn> {
        Ok(self.stack.accept(ctx, &self.l, false)?.map(|sock| TcpConn {
            stack: Arc::clone(&self.stack),
            sock,
        }))
    }

    /// Nonblocking accept-readiness with a task-waker registration: the
    /// listener-side analogue of [`TcpConn::poll_ready`]. Reports
    /// [`Interest::ACCEPTABLE`] when an established connection is queued,
    /// otherwise registers `waker` on the stack's activity condvar and
    /// reports [`Interest::EMPTY`] (= pending).
    pub fn poll_acceptable(&self, waker: &std::task::Waker) -> Interest {
        if !self.l.queue.is_empty() {
            return Interest::ACCEPTABLE;
        }
        self.stack.activity.watch_waker(waker);
        Interest::EMPTY
    }

    /// Stop listening (the port frees; queued connections stay valid).
    pub fn unlisten(&self) {
        self.stack.unlisten(self.port());
    }

    /// The listening port.
    pub fn port(&self) -> u16 {
        // ListenerState is private; expose through its field here.
        self.l_port()
    }

    fn l_port(&self) -> u16 {
        self.l.port
    }
}

/// Park in a one-source [`TcpApi::poll`] until `interest` holds on
/// `target` (`true`) or `within` passes (`false`).
fn poll_one(
    stack: &Arc<TcpStack>,
    ctx: &ProcessCtx,
    target: TcpPollTarget<'_>,
    interest: Interest,
    within: SimDuration,
) -> OpResult<bool> {
    let sources = [TcpPollSource {
        target,
        token: 0,
        interest,
    }];
    let events = TcpApi::new(Arc::clone(stack)).poll(ctx, &sources, Some(within))?;
    Ok(events.map(|events| !events.is_empty()))
}

/// A bound UDP socket.
pub struct UdpSock {
    stack: Arc<TcpStack>,
    p: Arc<UdpPort>,
}

impl UdpSock {
    /// The bound port.
    pub fn port(&self) -> u16 {
        self.p.port
    }

    /// Send a datagram to `dst` (fragments beyond the MTU).
    pub fn send_to(&self, ctx: &ProcessCtx, dst: SockAddr, data: &[u8]) -> SimResult<()> {
        udp::send_to(&self.stack, ctx, self.p.port, dst, data)
    }

    /// Block for the next datagram.
    pub fn recv_from(&self, ctx: &ProcessCtx) -> SimResult<(SockAddr, Bytes)> {
        udp::recv_from(&self.stack, ctx, &self.p)
    }

    /// Unbind.
    pub fn close(&self) {
        udp::unbind(&self.stack, self.p.port);
    }
}

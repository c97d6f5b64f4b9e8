//! [`NetApi`] adapters for the two stacks under comparison.

use std::any::Any;
use std::sync::Arc;

use bytes::Bytes;
use kernel_tcp::{TcpApi, TcpConn, TcpListener, TcpPollSource, TcpPollTarget};
use simnet::{Event, Interest, MacAddr, OpResult, ProcessCtx, SimDuration, SimResult, SimTime};
use sockets_emp::{Connection, EmpSockets, Listener, PollSet, SockAddr as EmpAddr};

use crate::api::{
    Conn, Cqe, NetApi, NetConn, NetListener, NetRing, PollSource, PollTarget, RingConfig,
    RingCounters, RingDepths, RingError, Sqe,
};

// ---------------------------------------------------------------------
// Sockets-over-EMP adapter
// ---------------------------------------------------------------------

/// The substrate as a [`NetApi`].
pub struct EmpNet {
    sockets: EmpSockets,
    label: String,
}

impl EmpNet {
    /// Wrap a substrate instance; `label` shows up in reports.
    pub fn new(sockets: EmpSockets, label: impl Into<String>) -> Self {
        EmpNet {
            sockets,
            label: label.into(),
        }
    }

    /// The wrapped substrate.
    pub fn sockets(&self) -> &EmpSockets {
        &self.sockets
    }
}

struct EmpConnAdapter(Connection);
struct EmpListenerAdapter(Listener);

/// Downcast a facade connection to the substrate's.
fn emp_conn(c: &Conn) -> &Connection {
    &c.as_any()
        .downcast_ref::<EmpConnAdapter>()
        .expect("EMP api polls EMP connections")
        .0
}

/// Downcast a facade listener to the substrate's.
fn emp_listener(l: &dyn NetListener) -> &Listener {
    &l.as_any()
        .downcast_ref::<EmpListenerAdapter>()
        .expect("EMP api polls EMP listeners")
        .0
}

impl NetConn for EmpConnAdapter {
    fn write(&self, ctx: &ProcessCtx, data: &[u8]) -> OpResult<usize> {
        self.0.write(ctx, data)
    }

    fn read(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Bytes> {
        self.0.read(ctx, max)
    }

    fn try_write(&self, ctx: &ProcessCtx, data: &[u8]) -> OpResult<usize> {
        self.0.try_write(ctx, data)
    }

    fn try_read(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Bytes> {
        self.0.try_read(ctx, max)
    }

    fn read_deadline(
        &self,
        ctx: &ProcessCtx,
        max: usize,
        deadline: SimDuration,
    ) -> OpResult<Bytes> {
        self.0.read_deadline(ctx, max, deadline)
    }

    fn write_deadline(
        &self,
        ctx: &ProcessCtx,
        data: &[u8],
        deadline: SimDuration,
    ) -> OpResult<usize> {
        self.0.write_deadline(ctx, data, deadline)
    }

    fn close(&self, ctx: &ProcessCtx) -> SimResult<()> {
        self.0.close(ctx)
    }

    fn readable(&self) -> bool {
        self.0.readable()
    }

    fn writable(&self) -> bool {
        self.0.writable()
    }

    fn peer_host(&self) -> MacAddr {
        self.0.peer()
    }

    fn flush(&self, ctx: &ProcessCtx) -> OpResult<()> {
        self.0.flush(ctx)
    }

    fn substrate_stats(&self) -> Option<sockets_emp::ConnStats> {
        Some(self.0.stats())
    }

    fn poll_ready(
        &self,
        ctx: &ProcessCtx,
        interest: Interest,
        waker: &std::task::Waker,
    ) -> OpResult<Interest> {
        self.0.poll_ready(ctx, interest, waker)
    }

    fn cancel_ready(&self, ctx: &ProcessCtx) -> OpResult<()> {
        self.0.cancel_ready(ctx)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl NetListener for EmpListenerAdapter {
    fn accept(&self, ctx: &ProcessCtx) -> OpResult<Conn> {
        Ok(self
            .0
            .accept(ctx)?
            .map(|c| Box::new(EmpConnAdapter(c)) as Conn))
    }

    fn try_accept(&self, ctx: &ProcessCtx) -> OpResult<Conn> {
        Ok(self
            .0
            .try_accept(ctx)?
            .map(|c| Box::new(EmpConnAdapter(c)) as Conn))
    }

    fn accept_deadline(&self, ctx: &ProcessCtx, deadline: SimDuration) -> OpResult<Conn> {
        Ok(self
            .0
            .accept_deadline(ctx, deadline)?
            .map(|c| Box::new(EmpConnAdapter(c)) as Conn))
    }

    fn poll_acceptable(&self, ctx: &ProcessCtx, waker: &std::task::Waker) -> OpResult<Interest> {
        self.0.poll_acceptable(ctx, waker)
    }

    fn close(&self, ctx: &ProcessCtx) -> SimResult<()> {
        self.0.close(ctx)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl NetApi for EmpNet {
    fn connect(&self, ctx: &ProcessCtx, host: MacAddr, port: u16) -> OpResult<Conn> {
        Ok(self
            .sockets
            .connect(ctx, EmpAddr::new(host, port))?
            .map(|c| Box::new(EmpConnAdapter(c)) as Conn))
    }

    fn connect_deadline(
        &self,
        ctx: &ProcessCtx,
        host: MacAddr,
        port: u16,
        deadline: SimDuration,
    ) -> OpResult<Conn> {
        Ok(self
            .sockets
            .connect_deadline(ctx, EmpAddr::new(host, port), deadline)?
            .map(|c| Box::new(EmpConnAdapter(c)) as Conn))
    }

    fn listen(
        &self,
        ctx: &ProcessCtx,
        port: u16,
        backlog: usize,
    ) -> OpResult<Box<dyn NetListener>> {
        Ok(self
            .sockets
            .listen(ctx, port, backlog)?
            .map(|l| Box::new(EmpListenerAdapter(l)) as Box<dyn NetListener>))
    }

    fn poll(
        &self,
        ctx: &ProcessCtx,
        sources: &[PollSource<'_>],
        timeout: Option<SimDuration>,
    ) -> OpResult<Vec<Event>> {
        let mut set = PollSet::new();
        for src in sources {
            match &src.target {
                PollTarget::Conn(c) => set.register_conn(emp_conn(c), src.token, src.interest),
                PollTarget::Listener(l) => {
                    set.register_listener(emp_listener(*l), src.token, src.interest);
                }
            }
        }
        set.poll(ctx, timeout)
    }

    fn select_readable(&self, ctx: &ProcessCtx, conns: &[&Conn]) -> OpResult<usize> {
        let inner: Vec<&Connection> = conns.iter().map(|c| emp_conn(c)).collect();
        self.sockets.select_readable(ctx, &inner)
    }

    fn local_host(&self) -> MacAddr {
        self.sockets.local_host()
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn ring(&self, cfg: RingConfig, label: &str) -> Box<dyn NetRing> {
        Box::new(EmpRingAdapter(sockets_emp::ring::ring(cfg, label)))
    }

    fn substrate(&self) -> Option<&EmpSockets> {
        Some(&self.sockets)
    }
}

// ---------------------------------------------------------------------
// Kernel TCP adapter
// ---------------------------------------------------------------------

/// The kernel baseline as a [`NetApi`].
pub struct KernelNet {
    api: TcpApi,
    label: String,
}

impl KernelNet {
    /// Wrap a kernel sockets API.
    pub fn new(api: TcpApi, label: impl Into<String>) -> Self {
        KernelNet {
            api,
            label: label.into(),
        }
    }

    /// The wrapped kernel API.
    pub fn api(&self) -> &TcpApi {
        &self.api
    }
}

struct TcpConnAdapter(TcpConn);
struct TcpListenerAdapter(TcpListener);

/// Downcast a facade connection to the kernel stack's.
fn tcp_conn(c: &Conn) -> &TcpConn {
    &c.as_any()
        .downcast_ref::<TcpConnAdapter>()
        .expect("kernel api polls kernel connections")
        .0
}

/// Downcast a facade listener to the kernel stack's.
fn tcp_listener(l: &dyn NetListener) -> &TcpListener {
    &l.as_any()
        .downcast_ref::<TcpListenerAdapter>()
        .expect("kernel api polls kernel listeners")
        .0
}

impl NetConn for TcpConnAdapter {
    fn write(&self, ctx: &ProcessCtx, data: &[u8]) -> OpResult<usize> {
        self.0.write(ctx, data)
    }

    fn read(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Bytes> {
        self.0.read(ctx, max)
    }

    fn try_write(&self, ctx: &ProcessCtx, data: &[u8]) -> OpResult<usize> {
        self.0.try_write(ctx, data)
    }

    fn try_read(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Bytes> {
        self.0.try_read(ctx, max)
    }

    fn read_deadline(
        &self,
        ctx: &ProcessCtx,
        max: usize,
        deadline: SimDuration,
    ) -> OpResult<Bytes> {
        self.0.read_deadline(ctx, max, deadline)
    }

    fn write_deadline(
        &self,
        ctx: &ProcessCtx,
        data: &[u8],
        deadline: SimDuration,
    ) -> OpResult<usize> {
        self.0.write_deadline(ctx, data, deadline)
    }

    fn close(&self, ctx: &ProcessCtx) -> SimResult<()> {
        self.0.close(ctx)
    }

    fn readable(&self) -> bool {
        self.0.readable()
    }

    fn writable(&self) -> bool {
        self.0.writable()
    }

    fn peer_host(&self) -> MacAddr {
        self.0.peer_addr().host
    }

    fn poll_ready(
        &self,
        _ctx: &ProcessCtx,
        interest: Interest,
        waker: &std::task::Waker,
    ) -> OpResult<Interest> {
        // Pure check-and-arm on the stack's activity condvar; the
        // kernel stack has no stateful wake source to disarm, so the
        // default no-op `cancel_ready` is correct here.
        Ok(Ok(self.0.poll_ready(interest, waker)))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl NetListener for TcpListenerAdapter {
    fn accept(&self, ctx: &ProcessCtx) -> OpResult<Conn> {
        Ok(self
            .0
            .accept(ctx)?
            .map(|c| Box::new(TcpConnAdapter(c)) as Conn))
    }

    fn try_accept(&self, ctx: &ProcessCtx) -> OpResult<Conn> {
        Ok(self
            .0
            .try_accept(ctx)?
            .map(|c| Box::new(TcpConnAdapter(c)) as Conn))
    }

    fn accept_deadline(&self, ctx: &ProcessCtx, deadline: SimDuration) -> OpResult<Conn> {
        Ok(self
            .0
            .accept_deadline(ctx, deadline)?
            .map(|c| Box::new(TcpConnAdapter(c)) as Conn))
    }

    fn poll_acceptable(&self, _ctx: &ProcessCtx, waker: &std::task::Waker) -> OpResult<Interest> {
        Ok(Ok(self.0.poll_acceptable(waker)))
    }

    fn close(&self, _ctx: &ProcessCtx) -> SimResult<()> {
        self.0.unlisten();
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl NetApi for KernelNet {
    fn connect(&self, ctx: &ProcessCtx, host: MacAddr, port: u16) -> OpResult<Conn> {
        Ok(self
            .api
            .connect(ctx, kernel_tcp::SockAddr::new(host, port))?
            .map(|c| Box::new(TcpConnAdapter(c)) as Conn))
    }

    fn connect_deadline(
        &self,
        ctx: &ProcessCtx,
        host: MacAddr,
        port: u16,
        deadline: SimDuration,
    ) -> OpResult<Conn> {
        Ok(self
            .api
            .connect_deadline(ctx, kernel_tcp::SockAddr::new(host, port), deadline)?
            .map(|c| Box::new(TcpConnAdapter(c)) as Conn))
    }

    fn listen(
        &self,
        ctx: &ProcessCtx,
        port: u16,
        backlog: usize,
    ) -> OpResult<Box<dyn NetListener>> {
        Ok(self
            .api
            .listen(ctx, port, backlog)?
            .map(|l| Box::new(TcpListenerAdapter(l)) as Box<dyn NetListener>))
    }

    fn poll(
        &self,
        ctx: &ProcessCtx,
        sources: &[PollSource<'_>],
        timeout: Option<SimDuration>,
    ) -> OpResult<Vec<Event>> {
        let inner: Vec<TcpPollSource<'_>> = sources
            .iter()
            .map(|src| TcpPollSource {
                target: match &src.target {
                    PollTarget::Conn(c) => TcpPollTarget::Conn(tcp_conn(c)),
                    PollTarget::Listener(l) => TcpPollTarget::Listener(tcp_listener(*l)),
                },
                token: src.token,
                interest: src.interest,
            })
            .collect();
        self.api.poll(ctx, &inner, timeout)
    }

    fn select_readable(&self, ctx: &ProcessCtx, conns: &[&Conn]) -> OpResult<usize> {
        let inner: Vec<&TcpConn> = conns.iter().map(|c| tcp_conn(c)).collect();
        self.api.select_readable(ctx, &inner)
    }

    fn local_host(&self) -> MacAddr {
        self.api.local_host()
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn ring(&self, cfg: RingConfig, label: &str) -> Box<dyn NetRing> {
        Box::new(TcpRingAdapter(kernel_tcp::ring::ring(
            self.api.clone(),
            cfg,
            label,
        )))
    }

    fn tcp_stack(&self) -> Option<&Arc<kernel_tcp::TcpStack>> {
        Some(self.api.stack())
    }
}

// ---------------------------------------------------------------------
// Completion-ring adapters
// ---------------------------------------------------------------------

/// The substrate's completion ring behind the facade. Registration is
/// an *owning* downcast: the facade box is consumed and the bare
/// [`Connection`]/[`Listener`] moves into the ring.
struct EmpRingAdapter(sockets_emp::EmpRing);

/// The kernel stack's completion ring behind the facade.
struct TcpRingAdapter(kernel_tcp::TcpRing);

/// Forward the stack-independent [`NetRing`] surface to the wrapped
/// [`simnet::ring::RingCore`]; only target registration (the owning
/// downcasts) and `substrate_stats` differ per stack.
macro_rules! forward_ring {
    () => {
        fn fill(&mut self, buf: u32, data: &[u8]) -> Result<(), RingError> {
            self.0.fill(buf, data)
        }

        fn buf(&self, buf: u32) -> Option<&[u8]> {
            self.0.buf(buf)
        }

        fn push(&mut self, sqe: Sqe) -> Result<(), RingError> {
            self.0.push(sqe)
        }

        fn submit(&mut self, ctx: &ProcessCtx) -> SimResult<()> {
            self.0.submit(ctx)
        }

        fn submit_and_wait(
            &mut self,
            ctx: &ProcessCtx,
            min_complete: usize,
        ) -> SimResult<Result<(), RingError>> {
            self.0.submit_and_wait(ctx, min_complete)
        }

        fn reap(&mut self, max: usize) -> Vec<Cqe> {
            self.0.reap(max)
        }

        fn depths(&self) -> RingDepths {
            self.0.depths()
        }

        fn counters(&self) -> RingCounters {
            self.0.counters()
        }

        fn free_bufs(&self) -> usize {
            self.0.free_bufs()
        }

        fn live_conns(&self) -> usize {
            self.0.live_conns()
        }

        fn cfg(&self) -> RingConfig {
            self.0.cfg()
        }

        fn cancel(&mut self, ctx: &ProcessCtx, user_data: u64) -> bool {
            self.0.cancel(ctx, user_data)
        }

        fn register_waker(
            &mut self,
            ctx: &ProcessCtx,
            waker: &std::task::Waker,
        ) -> SimResult<Option<SimTime>> {
            self.0.register_waker(ctx, waker)
        }

        fn shutdown(&mut self, ctx: &ProcessCtx) -> SimResult<()> {
            self.0.shutdown(ctx)
        }
    };
}

impl NetRing for EmpRingAdapter {
    fn add_conn(&mut self, conn: Conn) -> u32 {
        let c = conn
            .into_any()
            .downcast::<EmpConnAdapter>()
            .expect("EMP ring registers EMP connections");
        self.0.add_conn(c.0)
    }

    fn add_listener(&mut self, l: Box<dyn NetListener>) -> u32 {
        let l = l
            .into_any()
            .downcast::<EmpListenerAdapter>()
            .expect("EMP ring registers EMP listeners");
        self.0.add_listener(l.0)
    }

    fn substrate_stats(&self) -> Option<sockets_emp::ConnStats> {
        Some(self.0.driver().closed_stats())
    }

    forward_ring!();
}

impl NetRing for TcpRingAdapter {
    fn add_conn(&mut self, conn: Conn) -> u32 {
        let c = conn
            .into_any()
            .downcast::<TcpConnAdapter>()
            .expect("kernel ring registers kernel connections");
        self.0.add_conn(c.0)
    }

    fn add_listener(&mut self, l: Box<dyn NetListener>) -> u32 {
        let l = l
            .into_any()
            .downcast::<TcpListenerAdapter>()
            .expect("kernel ring registers kernel listeners");
        self.0.add_listener(l.0)
    }

    fn substrate_stats(&self) -> Option<sockets_emp::ConnStats> {
        None
    }

    forward_ring!();
}

/// Convenience: arc up an adapter.
pub fn arc_api<T: NetApi>(api: T) -> Arc<dyn NetApi> {
    Arc::new(api)
}

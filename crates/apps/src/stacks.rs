//! The two stacks under comparison behind the facade: each stack's own
//! sockets implement [`NetConn`]/[`NetListener`], and [`EmpNet`] /
//! [`KernelNet`] are the per-node [`NetApi`]s that open them.

use std::any::Any;
use std::sync::Arc;

use bytes::Bytes;
use kernel_tcp::{TcpApi, TcpConn, TcpListener, TcpPollSource, TcpPollTarget};
use simnet::{Event, Interest, MacAddr, OpResult, ProcessCtx, SimDuration, SimResult};
use sockets_emp::{Connection, EmpSockets, Listener, PollSet, SockAddr as EmpAddr};

use crate::api::{Conn, NetApi, NetConn, NetListener, PollSource, PollTarget};

/// Box a stack's connection as a facade one.
fn boxed(c: impl NetConn) -> Conn {
    Box::new(c)
}

/// Downcast a facade socket to the stack's own type: a node's API only
/// ever sees sockets it opened itself.
fn own<T: 'static>(socket: &dyn Any) -> &T {
    socket
        .downcast_ref()
        .expect("a stack's api polls only that stack's sockets")
}

// ---------------------------------------------------------------------
// Sockets over EMP
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
}

impl NetConn for Connection {
    fn write(&self, ctx: &ProcessCtx, data: &[u8]) -> OpResult<usize> {
        self.write(ctx, data)
    }

    fn read(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Bytes> {
        self.read(ctx, max)
    }

    fn try_write(&self, ctx: &ProcessCtx, data: &[u8]) -> OpResult<usize> {
        self.try_write(ctx, data)
    }

    fn try_read(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Bytes> {
        self.try_read(ctx, max)
    }

    fn read_deadline(
        &self,
        ctx: &ProcessCtx,
        max: usize,
        deadline: SimDuration,
    ) -> OpResult<Bytes> {
        self.read_deadline(ctx, max, deadline)
    }

    fn write_deadline(
        &self,
        ctx: &ProcessCtx,
        data: &[u8],
        deadline: SimDuration,
    ) -> OpResult<usize> {
        self.write_deadline(ctx, data, deadline)
    }

    fn close(&self, ctx: &ProcessCtx) -> SimResult<()> {
        self.close(ctx)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn flush(&self, ctx: &ProcessCtx) -> OpResult<()> {
        self.flush(ctx)
    }

    fn substrate_stats(&self) -> Option<sockets_emp::ConnStats> {
        Some(self.stats())
    }

    fn poll_ready(
        &self,
        ctx: &ProcessCtx,
        interest: Interest,
        waker: &std::task::Waker,
    ) -> OpResult<Interest> {
        self.poll_ready(ctx, interest, waker)
    }

    fn cancel_ready(&self, ctx: &ProcessCtx) -> OpResult<()> {
        self.cancel_ready(ctx)
    }
}

impl NetListener for Listener {
    fn accept(&self, ctx: &ProcessCtx) -> OpResult<Conn> {
        Ok(self.accept(ctx)?.map(boxed))
    }

    fn try_accept(&self, ctx: &ProcessCtx) -> OpResult<Conn> {
        Ok(self.try_accept(ctx)?.map(boxed))
    }

    fn accept_deadline(&self, ctx: &ProcessCtx, deadline: SimDuration) -> OpResult<Conn> {
        Ok(self.accept_deadline(ctx, deadline)?.map(boxed))
    }

    fn poll_acceptable(&self, ctx: &ProcessCtx, waker: &std::task::Waker) -> OpResult<Interest> {
        self.poll_acceptable(ctx, waker)
    }

    fn close(&self, ctx: &ProcessCtx) -> SimResult<()> {
        self.close(ctx)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl NetApi for EmpNet {
    fn connect(&self, ctx: &ProcessCtx, host: MacAddr, port: u16) -> OpResult<Conn> {
        Ok(self
            .sockets
            .connect(ctx, EmpAddr::new(host, port))?
            .map(boxed))
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
            .map(boxed))
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
            .map(|l| Box::new(l) as Box<dyn NetListener>))
    }

    fn poll(
        &self,
        ctx: &ProcessCtx,
        sources: &[PollSource<'_>],
        timeout: Option<SimDuration>,
    ) -> OpResult<Vec<Event>> {
        let mut set = PollSet::new();
        for src in sources {
            match src.target {
                PollTarget::Conn(c) => set.register_conn(own(c.as_any()), src.token, src.interest),
                PollTarget::Listener(l) => {
                    set.register_listener(own(l.as_any()), src.token, src.interest);
                }
            }
        }
        set.poll(ctx, timeout)
    }

    fn select_readable(&self, ctx: &ProcessCtx, conns: &[&Conn]) -> OpResult<usize> {
        let inner: Vec<&Connection> = conns.iter().map(|c| own(c.as_any())).collect();
        self.sockets.select_readable(ctx, &inner)
    }

    fn local_host(&self) -> MacAddr {
        self.sockets.local_host()
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn substrate(&self) -> Option<&EmpSockets> {
        Some(&self.sockets)
    }
}

// ---------------------------------------------------------------------
// Kernel TCP
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
}

impl NetConn for TcpConn {
    fn write(&self, ctx: &ProcessCtx, data: &[u8]) -> OpResult<usize> {
        self.write(ctx, data)
    }

    fn read(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Bytes> {
        self.read(ctx, max)
    }

    fn try_write(&self, ctx: &ProcessCtx, data: &[u8]) -> OpResult<usize> {
        self.try_write(ctx, data)
    }

    fn try_read(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Bytes> {
        self.try_read(ctx, max)
    }

    fn read_deadline(
        &self,
        ctx: &ProcessCtx,
        max: usize,
        deadline: SimDuration,
    ) -> OpResult<Bytes> {
        self.read_deadline(ctx, max, deadline)
    }

    fn write_deadline(
        &self,
        ctx: &ProcessCtx,
        data: &[u8],
        deadline: SimDuration,
    ) -> OpResult<usize> {
        self.write_deadline(ctx, data, deadline)
    }

    fn close(&self, ctx: &ProcessCtx) -> SimResult<()> {
        self.close(ctx)
    }

    fn as_any(&self) -> &dyn Any {
        self
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
        Ok(Ok(self.poll_ready(interest, waker)))
    }
}

impl NetListener for TcpListener {
    fn accept(&self, ctx: &ProcessCtx) -> OpResult<Conn> {
        Ok(self.accept(ctx)?.map(boxed))
    }

    fn try_accept(&self, ctx: &ProcessCtx) -> OpResult<Conn> {
        Ok(self.try_accept(ctx)?.map(boxed))
    }

    fn accept_deadline(&self, ctx: &ProcessCtx, deadline: SimDuration) -> OpResult<Conn> {
        Ok(self.accept_deadline(ctx, deadline)?.map(boxed))
    }

    fn poll_acceptable(&self, _ctx: &ProcessCtx, waker: &std::task::Waker) -> OpResult<Interest> {
        Ok(Ok(self.poll_acceptable(waker)))
    }

    fn close(&self, _ctx: &ProcessCtx) -> SimResult<()> {
        self.unlisten();
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl NetApi for KernelNet {
    fn connect(&self, ctx: &ProcessCtx, host: MacAddr, port: u16) -> OpResult<Conn> {
        Ok(self
            .api
            .connect(ctx, kernel_tcp::SockAddr::new(host, port))?
            .map(boxed))
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
            .map(boxed))
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
            .map(|l| Box::new(l) as Box<dyn NetListener>))
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
                target: match src.target {
                    PollTarget::Conn(c) => TcpPollTarget::Conn(own(c.as_any())),
                    PollTarget::Listener(l) => TcpPollTarget::Listener(own(l.as_any())),
                },
                token: src.token,
                interest: src.interest,
            })
            .collect();
        self.api.poll(ctx, &inner, timeout)
    }

    fn select_readable(&self, ctx: &ProcessCtx, conns: &[&Conn]) -> OpResult<usize> {
        let inner: Vec<&TcpConn> = conns.iter().map(|c| own(c.as_any())).collect();
        self.api.select_readable(ctx, &inner)
    }

    fn local_host(&self) -> MacAddr {
        self.api.local_host()
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn tcp_stack(&self) -> Option<&Arc<kernel_tcp::TcpStack>> {
        Some(self.api.stack())
    }
}

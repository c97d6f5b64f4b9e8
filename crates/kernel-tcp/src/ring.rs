//! The kernel baseline's completion-ring driver.
//!
//! [`TcpRingDriver`] gives the kernel TCP stack the same
//! submission/completion API as the EMP substrate by emulating it over
//! the stack's nonblocking operations — exactly how io_uring's
//! socket ops sit atop the in-kernel TCP code paths. Nothing about the
//! data path changes: every ring read still pays the kernel stack's
//! user/kernel copy and syscall-shaped costs, which is what makes the
//! completion-model comparison between the two stacks an
//! apples-to-apples differential test (same [`simnet::RingCore`]
//! semantics, different substrate underneath).

use simnet::ring::{RingConfig, RingCore, RingDriver};
use simnet::{Interest, OpResult, ProcessCtx, SimDuration, SimResult};

use crate::api::{TcpApi, TcpConn, TcpListener, TcpPollSource, TcpPollTarget};

/// A completion ring over the kernel TCP stack.
pub type TcpRing = RingCore<TcpRingDriver>;

/// Build a completion ring over kernel sockets. `label` namespaces the
/// ring's telemetry gauges (`ring.<label>.*`).
pub fn ring(api: TcpApi, cfg: RingConfig, label: impl Into<String>) -> TcpRing {
    RingCore::new(TcpRingDriver { api }, cfg, label)
}

/// [`RingDriver`] over kernel [`TcpConn`]s/[`TcpListener`]s.
pub struct TcpRingDriver {
    /// The stack API, kept for its `poll` (the ring's park primitive).
    api: TcpApi,
}

impl RingDriver for TcpRingDriver {
    type Conn = TcpConn;
    type Listener = TcpListener;

    fn try_accept(&self, ctx: &ProcessCtx, l: &TcpListener) -> OpResult<TcpConn> {
        l.try_accept(ctx)
    }

    fn try_read(&self, ctx: &ProcessCtx, c: &TcpConn, buf: &mut [u8]) -> OpResult<usize> {
        Ok(c.try_read(ctx, buf.len())?.map(|bytes| {
            buf[..bytes.len()].copy_from_slice(&bytes);
            bytes.len()
        }))
    }

    fn try_write(&self, ctx: &ProcessCtx, c: &TcpConn, data: &[u8]) -> OpResult<usize> {
        c.try_write(ctx, data)
    }

    fn close(&self, ctx: &ProcessCtx, c: TcpConn) -> SimResult<()> {
        c.close(ctx)
    }

    fn close_listener(&self, _ctx: &ProcessCtx, l: TcpListener) -> SimResult<()> {
        l.unlisten();
        Ok(())
    }

    fn wait(
        &self,
        ctx: &ProcessCtx,
        conns: &[(&TcpConn, Interest)],
        listeners: &[&TcpListener],
        timeout: Option<SimDuration>,
    ) -> SimResult<()> {
        let mut sources: Vec<TcpPollSource<'_>> = Vec::with_capacity(conns.len() + listeners.len());
        for (i, (c, interest)) in conns.iter().enumerate() {
            sources.push(TcpPollSource {
                target: TcpPollTarget::Conn(c),
                token: i,
                interest: *interest,
            });
        }
        for (i, l) in listeners.iter().enumerate() {
            sources.push(TcpPollSource {
                target: TcpPollTarget::Listener(l),
                token: conns.len() + i,
                interest: Interest::ACCEPTABLE,
            });
        }
        // Events are discarded: RingCore re-drives every head op after
        // the wake, which subsumes them (a timeout wake lets the drive
        // pass expire deadlined head ops).
        self.api.poll(ctx, &sources, timeout)??;
        Ok(())
    }

    fn register_waker(
        &self,
        _ctx: &ProcessCtx,
        conns: &[(&TcpConn, Interest)],
        listeners: &[&TcpListener],
        waker: &std::task::Waker,
    ) -> SimResult<bool> {
        // Every source registers on the stack's single activity condvar;
        // readiness discovered during registration wakes immediately so
        // the ring re-drives instead of sleeping.
        let mut wake_now = false;
        for (c, interest) in conns {
            wake_now |= !c.poll_ready(*interest, waker).is_empty();
        }
        for l in listeners {
            wake_now |= !l.poll_acceptable(waker).is_empty();
        }
        if wake_now {
            waker.wake_by_ref();
        }
        Ok(true)
    }
}

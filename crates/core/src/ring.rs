//! The substrate's completion-ring driver.
//!
//! [`EmpRingDriver`] plugs the user-level sockets into
//! [`simnet::RingCore`], giving the EMP stack the submission/completion
//! model described in `DESIGN.md` §14. A ring `Read` names a registered
//! buffer the application posted *before* the data arrived — a posted
//! reader like any other, so under [`crate::CopyPolicy::ADAPTIVE`] every
//! message it fits skips the §6.2 temp-buffer copy and counts in
//! [`ConnStats::copies_avoided`]; the paper's presets copy here as they
//! do everywhere.
//!
//! Waiting is the readiness layer reused, not duplicated: the driver
//! parks in a throwaway [`PollSet`] over the stalled head ops.

use std::cell::RefCell;

use simnet::ring::{RingConfig, RingCore, RingDriver};
use simnet::{Interest, OpResult, ProcessCtx, SimDuration, SimResult};

use crate::conn::ConnStats;
use crate::poll::PollSet;
use crate::socket::{Connection, Listener};

/// A completion ring over the EMP substrate.
pub type EmpRing = RingCore<EmpRingDriver>;

/// Build a completion ring over substrate sockets. `label` namespaces
/// the ring's telemetry gauges (`ring.<label>.*`).
pub fn ring(cfg: RingConfig, label: impl Into<String>) -> EmpRing {
    RingCore::new(EmpRingDriver::default(), cfg, label)
}

/// [`RingDriver`] over substrate [`Connection`]s/[`Listener`]s.
#[derive(Default)]
pub struct EmpRingDriver {
    /// Stats of connections this ring has closed, accumulated so the
    /// copy-avoidance evidence survives the connections themselves.
    closed_stats: RefCell<ConnStats>,
}

impl EmpRingDriver {
    /// Aggregate substrate counters of every connection this ring closed.
    pub fn closed_stats(&self) -> ConnStats {
        *self.closed_stats.borrow()
    }
}

impl RingDriver for EmpRingDriver {
    type Conn = Connection;
    type Listener = Listener;

    fn try_accept(&self, ctx: &ProcessCtx, l: &Listener) -> OpResult<Connection> {
        l.try_accept(ctx)
    }

    fn try_read(&self, ctx: &ProcessCtx, c: &Connection, buf: &mut [u8]) -> OpResult<usize> {
        Ok(c.try_read(ctx, buf.len())?.map(|bytes| {
            buf[..bytes.len()].copy_from_slice(&bytes);
            bytes.len()
        }))
    }

    fn try_write(&self, ctx: &ProcessCtx, c: &Connection, data: &[u8]) -> OpResult<usize> {
        c.try_write(ctx, data)
    }

    fn close(&self, ctx: &ProcessCtx, c: Connection) -> SimResult<()> {
        *self.closed_stats.borrow_mut() += c.stats();
        c.close(ctx)
    }

    fn close_listener(&self, ctx: &ProcessCtx, l: Listener) -> SimResult<()> {
        l.close(ctx)
    }

    fn wait(
        &self,
        ctx: &ProcessCtx,
        conns: &[(&Connection, Interest)],
        listeners: &[&Listener],
        timeout: Option<SimDuration>,
    ) -> SimResult<()> {
        let mut ps = PollSet::new();
        for (i, (c, interest)) in conns.iter().enumerate() {
            ps.register_conn(c, i, *interest);
        }
        for (i, l) in listeners.iter().enumerate() {
            ps.register_listener(l, conns.len() + i, Interest::ACCEPTABLE);
        }
        // The events themselves are discarded: RingCore re-drives every
        // head op after a wake, which subsumes them (a timeout wake lets
        // the drive pass expire deadlined head ops).
        ps.poll(ctx, timeout)??;
        Ok(())
    }

    fn register_waker(
        &self,
        ctx: &ProcessCtx,
        conns: &[(&Connection, Interest)],
        listeners: &[&Listener],
        waker: &std::task::Waker,
    ) -> SimResult<bool> {
        // Readiness found during registration means the ring should
        // re-drive now, not sleep: deliver the wake straight back.
        let mut wake_now = false;
        for (c, interest) in conns {
            match c.poll_ready(ctx, *interest, waker)? {
                Ok(ready) => wake_now |= !ready.is_empty(),
                // An unwakeable or failed source still wakes the ring so
                // the next drive pass surfaces the op's error.
                Err(_) => wake_now = true,
            }
        }
        for l in listeners {
            match l.poll_acceptable(ctx, waker)? {
                Ok(ready) => wake_now |= !ready.is_empty(),
                Err(_) => wake_now = true,
            }
        }
        if wake_now {
            waker.wake_by_ref();
        }
        Ok(true)
    }
}

//! The unified readiness layer: [`PollSet`].
//!
//! A `PollSet` holds registrations — connections and listeners, each with
//! a caller-chosen token and an [`Interest`] mask — and its [`PollSet::poll`]
//! blocks until at least one registration is actionable, returning every
//! ready one as an [`Event`]. The blocking sockets API layers on top:
//! `select_readable` is a one-shot `PollSet` with `READABLE` interests,
//! and an application event loop keeps one `PollSet` alive across
//! iterations so the descriptor-completion watch lists are collected once
//! per registration and reused, not rebuilt on every wake.
//!
//! Readiness is one of the substrate's two I/O models, not the only one:
//! the completion model ([`simnet::ring`]) submits `Accept`/`Read`/
//! `Write`/`Close` ops over registered buffers and reaps completions in
//! batches instead of asking when an operation would succeed. Its ring
//! driver reuses this layer's wakeup machinery (a `PollSet` is the wait
//! under `submit_and_wait`), so both models share one readiness truth.
//!
//! Readiness sources per kind:
//!
//! * **readable** — buffered stream bytes, a completed data/rendezvous
//!   descriptor, or a drained peer close (EOF counts as readable);
//! * **writable** — stream credits in hand (§6.1; credit returns arrive
//!   on the flow-control-ack channel, piggy-backed returns apply when a
//!   read consumes the carrying message), or always for datagrams (eager
//!   sends are fire-and-forget);
//! * **acceptable** — a completed connection-request descriptor at the
//!   head of a listener's backlog;
//! * **error** — local close, a failed send (refused connection, vanished
//!   peer), or a protocol violation; reported regardless of the mask.
//!
//! In unexpected-queue mode (§6.4) there is no pre-posted fc-ack
//! descriptor to watch, so a poll with write interest on a credit-starved
//! stream arms a one-shot fc-ack descriptor and disarms it (consuming or
//! unposting) before returning — see `SockShared::arm_poll_fcack`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use emp_proto::RecvHandle;
use simnet::{
    wait_any, Completion, Event, Interest, NetError, OpResult, ProcessCtx, SimAccess, SimAccessExt,
    SimDuration, SimResult,
};

use crate::config::SocketType;
use crate::conn::SockShared;
use crate::conn_core::OpKind;
use crate::socket::{Connection, Listener};
use crate::stream::ok_or_return;

enum Target {
    Conn(Rc<SockShared>),
    /// A listener's backlog queue (shared with the `Listener` itself).
    Listener(Rc<RefCell<VecDeque<RecvHandle>>>),
}

struct Entry {
    token: usize,
    interest: Interest,
    target: Target,
    /// Completions to wait on for this entry, collected lazily and kept
    /// until one of them fires (then invalidated and re-collected) — the
    /// watch list is built once per registration per park, not rebuilt on
    /// every wake.
    watch: Option<Vec<Completion>>,
}

/// A registered set of poll targets; see the module docs.
#[derive(Default)]
pub struct PollSet {
    entries: Vec<Entry>,
}

impl PollSet {
    /// An empty set.
    pub fn new() -> Self {
        PollSet::default()
    }

    /// Number of registrations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Register a connection under `token` with the given interests.
    pub fn register_conn(&mut self, conn: &Connection, token: usize, interest: Interest) {
        self.entries.push(Entry {
            token,
            interest,
            target: Target::Conn(Rc::clone(&conn.sock)),
            watch: None,
        });
    }

    /// Register a listener under `token` (usually with
    /// [`Interest::ACCEPTABLE`]).
    pub fn register_listener(&mut self, l: &Listener, token: usize, interest: Interest) {
        self.entries.push(Entry {
            token,
            interest,
            target: Target::Listener(Rc::clone(&l.pending)),
            watch: None,
        });
    }

    /// Drop all registrations.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Block until at least one registration is ready (or the timeout
    /// expires — then the empty vector), returning every ready one.
    ///
    /// * `Err(NetError::Invalid)` for a wait that could never wake: an
    ///   empty set, or one whose interests watch nothing, with no timeout.
    /// * Error states ([`Interest::ERROR`]) are reported regardless of
    ///   the registered mask, like POSIX `POLLERR`.
    pub fn poll(&mut self, ctx: &ProcessCtx, timeout: Option<SimDuration>) -> OpResult<Vec<Event>> {
        if self.entries.is_empty() && timeout.is_none() {
            return Ok(Err(NetError::Invalid));
        }
        let deadline = timeout.map(|d| {
            let c = Completion::new();
            let c2 = c.clone();
            ctx.timer_after(d, move |s| c2.complete(s));
            c
        });
        let entered_ns = ctx.now().nanos();
        loop {
            // 1. Compute readiness (consuming landed control traffic and
            // credit returns along the way).
            let mut events = Vec::new();
            for e in &self.entries {
                let ready = match &e.target {
                    Target::Conn(s) => ok_or_return!(conn_ready(ctx, s, e.interest)?),
                    Target::Listener(p) => listener_ready(p, e.interest),
                };
                if !ready.is_empty() {
                    events.push(Event {
                        token: e.token,
                        ready,
                    });
                }
            }
            if !events.is_empty() {
                ok_or_return!(self.finish(ctx)?);
                record_poll_wait(ctx, entered_ns);
                return Ok(Ok(events));
            }
            if deadline.as_ref().is_some_and(Completion::is_done) {
                ok_or_return!(self.finish(ctx)?);
                record_poll_wait(ctx, entered_ns);
                return Ok(Ok(Vec::new()));
            }
            // 2. (Re)collect watch lists where invalidated, arming the
            // unexpected-queue fc-ack descriptor when write interest
            // needs it.
            for e in &mut self.entries {
                if e.watch.is_none() {
                    e.watch = Some(collect_watch(ctx, &e.target, e.interest)?);
                }
            }
            let mut refs: Vec<&Completion> = Vec::new();
            for e in &self.entries {
                refs.extend(e.watch.as_deref().unwrap_or(&[]));
            }
            if let Some(d) = &deadline {
                refs.push(d);
            }
            if refs.is_empty() {
                // Nothing registered can ever produce a wake.
                return Ok(Err(NetError::Invalid));
            }
            wait_any(ctx, &refs)?;
            // 3. Invalidate watch lists that fired: a done completion left
            // in the wait set would spin this loop at one instant of
            // simulated time. The next iteration consumes whatever landed
            // and re-collects only the invalidated lists.
            for e in &mut self.entries {
                if e.watch
                    .as_ref()
                    .is_some_and(|w| w.iter().any(Completion::is_done))
                {
                    e.watch = None;
                }
            }
        }
    }

    /// Pre-return cleanup: disarm any one-shot fc-ack descriptor this
    /// poll armed (consuming a landed credit return, unposting an idle
    /// descriptor) and invalidate the watch lists that referenced it.
    fn finish(&mut self, ctx: &ProcessCtx) -> OpResult<()> {
        for e in &mut self.entries {
            if let Target::Conn(s) = &e.target {
                if s.inner.borrow().poll_fcack.is_some() {
                    e.watch = None;
                    ok_or_return!(s.disarm_poll_fcack(ctx)?);
                }
            }
        }
        Ok(Ok(()))
    }
}

impl Connection {
    /// Nonblocking readiness check with a task-waker registration — the
    /// async front end's leaf. Computes the ready mask exactly like a
    /// [`PollSet::poll`] pass (consuming landed control traffic and
    /// credit returns); when it is empty, registers `waker` with every
    /// completion that could change it and returns [`Interest::EMPTY`]
    /// (= pending). If any watch source already fired during
    /// registration, readiness is recomputed instead of sleeping — the
    /// lost-wakeup race resolves toward a spurious recheck, never a hang.
    ///
    /// In unexpected-queue mode a pending write interest leaves the
    /// one-shot fc-ack descriptor armed (it *is* the wake source); a
    /// future that stops waiting must call [`Connection::cancel_ready`].
    pub fn poll_ready(
        &self,
        ctx: &ProcessCtx,
        interest: Interest,
        waker: &std::task::Waker,
    ) -> OpResult<Interest> {
        loop {
            let ready = ok_or_return!(conn_ready(ctx, &self.sock, interest)?);
            if !ready.is_empty() {
                // Mirror PollSet::finish: a ready return never leaves the
                // one-shot fc-ack descriptor armed behind it.
                if self.sock.inner.borrow().poll_fcack.is_some() {
                    ok_or_return!(self.sock.disarm_poll_fcack(ctx)?);
                }
                return Ok(Ok(ready));
            }
            let target = Target::Conn(Rc::clone(&self.sock));
            let watch = collect_watch(ctx, &target, interest)?;
            if watch.is_empty() {
                // Nothing can ever produce a wake (PollSet reports the
                // same condition as an unwakeable wait).
                return Ok(Err(NetError::Invalid));
            }
            let mut fired = false;
            for c in &watch {
                fired |= !c.watch_waker(waker);
            }
            if fired {
                // Readiness already moved between the check and the
                // registration: consume it now (conn_ready reaps what
                // landed, so this converges).
                continue;
            }
            return Ok(Ok(Interest::EMPTY));
        }
    }

    /// Withdraw from a pending [`Connection::poll_ready`]: disarm the
    /// one-shot fc-ack descriptor it may have armed for write interest.
    /// Waker registrations themselves need no teardown — a fired waker
    /// for a dropped future is a no-op wake. Drop guards call this.
    pub fn cancel_ready(&self, ctx: &ProcessCtx) -> OpResult<()> {
        if self.sock.inner.borrow().poll_fcack.is_some() {
            ok_or_return!(self.sock.disarm_poll_fcack(ctx)?);
        }
        Ok(Ok(()))
    }
}

impl Listener {
    /// Nonblocking accept-readiness with a task-waker registration: the
    /// listener-side analogue of [`Connection::poll_ready`]. Returns the
    /// ready mask ([`Interest::ACCEPTABLE`], [`Interest::ERROR`] for a
    /// closed listener, or [`Interest::EMPTY`] = pending with `waker`
    /// registered on the head-of-backlog completion).
    pub fn poll_acceptable(
        &self,
        ctx: &ProcessCtx,
        waker: &std::task::Waker,
    ) -> OpResult<Interest> {
        loop {
            let ready = listener_ready(&self.pending, Interest::ACCEPTABLE);
            if !ready.is_empty() {
                return Ok(Ok(ready));
            }
            let target = Target::Listener(Rc::clone(&self.pending));
            let watch = collect_watch(ctx, &target, Interest::ACCEPTABLE)?;
            if watch.is_empty() {
                return Ok(Err(NetError::Invalid));
            }
            let mut fired = false;
            for c in &watch {
                fired |= !c.watch_waker(waker);
            }
            if fired {
                continue;
            }
            return Ok(Ok(Interest::EMPTY));
        }
    }
}

/// Compute a connection's ready mask for the given interests.
/// Record one completed poll wait into the `core.poll_wait_ns` histogram.
fn record_poll_wait(ctx: &ProcessCtx, entered_ns: u64) {
    ctx.telemetry()
        .histogram("core.poll_wait_ns")
        .record(ctx.now().nanos().saturating_sub(entered_ns));
}

fn conn_ready(ctx: &ProcessCtx, sock: &SockShared, interest: Interest) -> OpResult<Interest> {
    let mut ready = Interest::EMPTY;
    // Flush-on-poll: a caller about to park has nothing more to add to
    // the staged message, so it goes now instead of at its deadline. A
    // caller waiting to read has nothing for a held-back connection
    // request to carry, so that goes too.
    if sock.socket_type == SocketType::Stream {
        let flush = OpKind::Flush {
            request: interest.intersects(Interest::READABLE),
            block: false,
        };
        ok_or_return!(sock.run_op(ctx, flush, &[])?);
    }
    // Drain landed control traffic (close notifications, rendezvous
    // replies) so readiness reflects it; surface hard failures as ERROR.
    if sock.poll_ctrl(ctx)?.is_err() || sock.reap_sends().is_err() {
        ready |= Interest::ERROR;
    }
    if sock.inner.borrow().core.closed {
        ready |= Interest::ERROR;
    }
    if interest.intersects(Interest::READABLE) && sock.readable_now() {
        ready |= Interest::READABLE;
    }
    if interest.intersects(Interest::WRITABLE) {
        match sock.socket_type {
            SocketType::Stream => {
                // Collect credit returns that already landed — pre-posted
                // descriptors, the unexpected pool, or the one-shot
                // descriptor a previous iteration armed.
                sock.reap_fcacks(ctx)?;
                if sock
                    .inner
                    .borrow()
                    .poll_fcack
                    .as_ref()
                    .is_some_and(RecvHandle::is_done)
                {
                    ok_or_return!(sock.disarm_poll_fcack(ctx)?);
                }
                if sock.inner.borrow().core.writable() {
                    ready |= Interest::WRITABLE;
                }
            }
            // Eager datagram sends are fire-and-forget: always writable.
            SocketType::Datagram => ready |= Interest::WRITABLE,
        }
    }
    Ok(Ok(ready))
}

/// Compute a listener's ready mask: head-of-backlog completion means
/// acceptable; a drained backlog means the listener was closed.
fn listener_ready(pending: &RefCell<VecDeque<RecvHandle>>, interest: Interest) -> Interest {
    let p = pending.borrow();
    match p.front() {
        None => Interest::ERROR,
        Some(h) if h.is_done() && interest.intersects(Interest::ACCEPTABLE) => Interest::ACCEPTABLE,
        Some(_) => Interest::EMPTY,
    }
}

/// Collect the completions that can make this entry ready, scoped to its
/// interests — watching a completion whose firing cannot change the
/// entry's readiness would wake (and re-park) the poll for nothing, or
/// worse, spin it when the completion is already done.
fn collect_watch(
    ctx: &ProcessCtx,
    target: &Target,
    interest: Interest,
) -> SimResult<Vec<Completion>> {
    let mut v = Vec::new();
    match target {
        Target::Conn(s) => {
            if interest.intersects(Interest::READABLE) {
                // Data front, datagram slot, rendezvous request, control.
                v.extend(s.watch_completions());
            }
            if interest.intersects(Interest::WRITABLE) && s.socket_type == SocketType::Stream {
                if s.proc_.cfg.acks_in_unexpected_queue {
                    // §6.4: arm the one-shot fc-ack descriptor (no-op with
                    // credits in hand) and watch it.
                    s.arm_poll_fcack(ctx)?;
                    if let Some(h) = &s.inner.borrow().poll_fcack {
                        v.push(h.completion().clone());
                    }
                } else if let Some(h) = s.inner.borrow().fcack_handles.front() {
                    v.push(h.completion().clone());
                }
                if !interest.intersects(Interest::READABLE) {
                    // Write-only interest still needs close notifications
                    // (a closing peer makes the write fail fast = ready).
                    v.push(s.ctrl_completion());
                }
            }
        }
        Target::Listener(p) => {
            if interest.intersects(Interest::ACCEPTABLE) {
                if let Some(h) = p.borrow().front() {
                    v.push(h.completion().clone());
                }
            }
        }
    }
    Ok(v)
}

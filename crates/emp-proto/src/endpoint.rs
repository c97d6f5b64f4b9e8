//! The host-side EMP API.
//!
//! What a user-space program (here: the sockets substrate) sees: post a
//! send, post a receive descriptor, wait for completions. Every call
//! charges realistic host costs — descriptor construction, the combined
//! pin-and-translate system call (cached after first touch), the PCI
//! doorbell write — before the firmware takes over. This is the OS-bypass
//! path: note the *absence* of per-operation kernel costs once buffers are
//! registered.

use std::sync::Arc;

use bytes::Bytes;
use hostsim::{Host, VirtRange};
use simnet::emp_trace::{self, EventKind};
use simnet::{MacAddr, ProcessCtx, SimAccess, SimDuration, SimResult};

use crate::nic::{DescId, EmpNic, RecvState, SendState, TxBuf};
use crate::wire::{RecvMsg, Tag};

/// A receive descriptor to post from the host: `(tag, source filter,
/// capacity, buffer)`.
pub type PostSpec = (Tag, Option<MacAddr>, usize, VirtRange);

/// Handle to an in-flight send.
#[derive(Clone)]
pub struct SendHandle {
    state: SendState,
    len: usize,
}

impl SendHandle {
    /// Bytes of the message this send carries.
    pub fn msg_len(&self) -> usize {
        self.len
    }

    /// True once the send completed (successfully or not).
    pub fn is_done(&self) -> bool {
        self.state.completion.is_done()
    }

    /// `Some(acked)` once complete; `None` while in flight.
    pub fn status(&self) -> Option<bool> {
        *self.state.ok.lock()
    }

    /// True when the send failed because the peer NIC *refused* it (a
    /// `no_uq` message that matched no descriptor), as opposed to failing
    /// after silence. Meaningful once [`SendHandle::status`] is
    /// `Some(false)`.
    pub fn refused(&self) -> bool {
        *self.state.refused.lock()
    }

    /// The completion to block on.
    pub fn completion(&self) -> &simnet::Completion {
        &self.state.completion
    }
}

/// Handle to a posted receive descriptor.
#[derive(Clone)]
pub struct RecvHandle {
    id: DescId,
    state: RecvState,
}

impl RecvHandle {
    fn new((id, state): (DescId, RecvState)) -> Self {
        RecvHandle { id, state }
    }

    /// The NIC descriptor id (for explicit unposting).
    pub fn id(&self) -> DescId {
        self.id
    }

    /// True once a message landed or the descriptor was unposted.
    pub fn is_done(&self) -> bool {
        self.state.completion.is_done()
    }

    /// The completion to block on (e.g. with [`simnet::wait_any`]).
    pub fn completion(&self) -> &simnet::Completion {
        &self.state.completion
    }
}

/// Result of polling a receive without blocking.
#[derive(Clone, Debug)]
pub enum RecvPoll {
    /// Nothing has landed yet.
    Pending,
    /// The descriptor was explicitly unposted.
    Cancelled,
    /// A message arrived.
    Ready(RecvMsg),
}

/// A host process's interface to its EMP NIC.
#[derive(Clone)]
pub struct EmpEndpoint {
    host: Host,
    nic: Arc<EmpNic>,
}

impl EmpEndpoint {
    /// Bind `host`'s process to its NIC.
    pub fn new(host: Host, nic: Arc<EmpNic>) -> Self {
        EmpEndpoint { host, nic }
    }

    /// This station's address (the EMP source index).
    pub fn addr(&self) -> MacAddr {
        self.nic.mac()
    }

    /// The host this endpoint runs on.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// The NIC behind this endpoint (stats, direct firmware access).
    pub fn nic(&self) -> &Arc<EmpNic> {
        &self.nic
    }

    /// Record a trace event stamped with this station's id. Compiles to
    /// nothing without the `trace` feature.
    fn trace(&self, ctx: &dyn SimAccess, kind: EventKind, a: u64, b: u64) {
        if emp_trace::ENABLED {
            ctx.tracer().emit(
                ctx.now().nanos(),
                self.nic.mac().0,
                emp_trace::NO_CONN,
                kind,
                a,
                b,
            );
        }
    }

    /// Post a message send from the buffer `buf` (whose registration state
    /// determines whether the pin syscall is paid). Returns immediately
    /// after the doorbell; use [`EmpEndpoint::wait_send`] to block until
    /// the NIC has every frame acknowledged.
    pub fn post_send(
        &self,
        ctx: &ProcessCtx,
        dst: MacAddr,
        tag: Tag,
        data: Bytes,
        buf: VirtRange,
    ) -> SimResult<SendHandle> {
        self.post_send_buf(ctx, dst, tag, TxBuf::one(data), buf, false)
    }

    /// [`EmpEndpoint::post_send`], but the message is flagged `no_uq`: it
    /// must match a pre-posted descriptor at the receiver, and an
    /// unmatched delivery comes back as an explicit refusal (the handle
    /// completes unacknowledged with [`SendHandle::refused`] set) instead
    /// of parking in the unexpected queue or timing out in silence. The
    /// admission-control send — connection requests use it.
    pub fn post_send_refusable(
        &self,
        ctx: &ProcessCtx,
        dst: MacAddr,
        tag: Tag,
        data: Bytes,
        buf: VirtRange,
    ) -> SimResult<SendHandle> {
        self.post_send_buf(ctx, dst, tag, TxBuf::one(data), buf, true)
    }

    /// [`EmpEndpoint::post_send`] that also re-arms the receive
    /// descriptors `rearms` in the same request: each pays its descriptor
    /// build and pin-cache lookup here, but rides the send's doorbell, and
    /// the NIC's transmit CPU inserts it before the message's first frame
    /// leaves. `data` may be a header + payload pair, which the NIC
    /// gathers itself. Returns the send's handle and one receive handle
    /// per re-arm, in order.
    pub fn post_send_rearming(
        &self,
        ctx: &ProcessCtx,
        dst: MacAddr,
        tag: Tag,
        data: TxBuf,
        buf: VirtRange,
        rearms: &[PostSpec],
    ) -> SimResult<(SendHandle, Vec<RecvHandle>)> {
        ctx.delay(self.send_host_cost(buf, rearms))?;
        Ok(self.start_send(ctx, dst, tag, data, false, rearms))
    }

    /// [`EmpEndpoint::post_send_rearming`] from event context — a timer,
    /// with no process to charge: the doorbell is rung now, and the host
    /// cost the caller would have been delayed by comes back for it to
    /// book against the process that owns the buffer.
    pub fn post_send_rearming_from_event(
        &self,
        sim: &dyn SimAccess,
        dst: MacAddr,
        tag: Tag,
        data: TxBuf,
        buf: VirtRange,
        rearms: &[PostSpec],
    ) -> (SendHandle, Vec<RecvHandle>, SimDuration) {
        let cost = self.send_host_cost(buf, rearms);
        let (h, descs) = self.start_send(sim, dst, tag, data, false, rearms);
        (h, descs, cost)
    }

    /// Host time of posting one send from `buf` that re-arms `rearms`:
    /// a descriptor build and a pin-and-translate call (free once cached)
    /// per descriptor, and one doorbell write.
    fn send_host_cost(&self, buf: VirtRange, rearms: &[PostSpec]) -> SimDuration {
        let mut cost = self.nic.cfg().desc_build + self.pin(buf) + self.host.cost().doorbell_write;
        for (_, _, _, rbuf) in rearms {
            cost += self.nic.cfg().desc_build + self.pin(*rbuf);
        }
        cost
    }

    /// The pin-and-translate call for `buf`: a cache lookup once pinned.
    fn pin(&self, buf: VirtRange) -> SimDuration {
        self.host.memory().lock().register(buf, self.host.cost()).0
    }

    /// Ring the doorbell: hand the NIC the send (and its re-arms).
    fn start_send(
        &self,
        sim: &dyn SimAccess,
        dst: MacAddr,
        tag: Tag,
        data: TxBuf,
        no_uq: bool,
        rearms: &[PostSpec],
    ) -> (SendHandle, Vec<RecvHandle>) {
        let len = data.len();
        self.trace(sim, EventKind::TxDoorbell, len as u64, 0);
        let specs = rearms.iter().map(|&(t, s, c, _)| (t, s, c)).collect();
        let (state, descs) = self.nic.start_send(sim, dst, tag, data, no_uq, specs);
        let handles = descs.into_iter().map(RecvHandle::new).collect();
        (SendHandle { state, len }, handles)
    }

    fn post_send_buf(
        &self,
        ctx: &ProcessCtx,
        dst: MacAddr,
        tag: Tag,
        data: TxBuf,
        buf: VirtRange,
        no_uq: bool,
    ) -> SimResult<SendHandle> {
        ctx.delay(self.send_host_cost(buf, &[]))?;
        Ok(self.start_send(ctx, dst, tag, data, no_uq, &[]).0)
    }

    /// Block until the send is fully acknowledged (`true`) or abandoned
    /// after the retry limit (`false`).
    pub fn wait_send(&self, ctx: &ProcessCtx, h: &SendHandle) -> SimResult<bool> {
        h.state.completion.wait(ctx)?;
        ctx.delay(self.host.cost().poll_completion)?;
        Ok(h.state.ok.lock().expect("completed send has a status"))
    }

    /// Block until *every* send in the batch completed, then reap them
    /// with a single completion poll. Returns true only when all were
    /// acknowledged. A batch of one costs exactly one
    /// [`EmpEndpoint::wait_send`].
    pub fn wait_sends(&self, ctx: &ProcessCtx, hs: &[SendHandle]) -> SimResult<bool> {
        if hs.is_empty() {
            return Ok(true);
        }
        for h in hs {
            h.state.completion.wait(ctx)?;
        }
        ctx.delay(self.host.cost().poll_completion)?;
        Ok(hs
            .iter()
            .all(|h| h.state.ok.lock().expect("completed send has a status")))
    }

    /// Post a receive descriptor matching `tag` (and `src` if given) into a
    /// buffer of `capacity` bytes at `buf`.
    ///
    /// If a matching message is parked in the NIC's unexpected queue, the
    /// descriptor-insert firmware claims it (in order with frame
    /// processing) and the handle completes as usual; the extra staging
    /// copy the unexpected path costs (§6.4) is paid when the message is
    /// collected.
    pub fn post_recv(
        &self,
        ctx: &ProcessCtx,
        tag: Tag,
        src: Option<MacAddr>,
        capacity: usize,
        buf: VirtRange,
    ) -> SimResult<RecvHandle> {
        let cfg = self.nic.cfg();
        ctx.delay(cfg.desc_build + self.pin(buf) + self.host.cost().doorbell_write)?;
        Ok(RecvHandle::new(
            self.nic.post_descriptor(ctx, tag, src, capacity),
        ))
    }

    /// Post a batch of receive descriptors behind one doorbell: each entry
    /// pays its descriptor build and (first-touch) pin, but the PCI
    /// doorbell write and the firmware's unexpected-pool rescan are paid
    /// once for the whole batch. A batch of one costs exactly one
    /// [`EmpEndpoint::post_recv`].
    pub fn post_recv_batch(
        &self,
        ctx: &ProcessCtx,
        posts: &[PostSpec],
    ) -> SimResult<Vec<RecvHandle>> {
        if posts.is_empty() {
            return Ok(Vec::new());
        }
        let cfg = self.nic.cfg();
        let mut cost = self.host.cost().doorbell_write;
        for (_, _, _, buf) in posts {
            cost += cfg.desc_build + self.pin(*buf);
        }
        ctx.delay(cost)?;
        let specs = posts
            .iter()
            .map(|&(tag, src, cap, _)| (tag, src, cap))
            .collect();
        Ok(self
            .nic
            .post_descriptors(ctx, specs)
            .into_iter()
            .map(RecvHandle::new)
            .collect())
    }

    /// Block until the descriptor delivers a message (or `None` if it was
    /// explicitly unposted). Messages that came through the unexpected
    /// queue cost an extra staging-to-user copy here (§6.4) — free for
    /// the zero-payload acks the substrate routes that way.
    pub fn wait_recv(&self, ctx: &ProcessCtx, h: &RecvHandle) -> SimResult<Option<RecvMsg>> {
        h.state.completion.wait(ctx)?;
        ctx.delay(self.host.cost().poll_completion)?;
        let msg = h
            .state
            .slot
            .lock()
            .clone()
            .expect("completed recv has a result");
        if let Some(m) = &msg {
            if m.from_unexpected {
                let copy = self.host.cost().memcpy(m.data.len());
                ctx.delay(copy)?;
                self.trace(
                    ctx,
                    EventKind::SubstrateCopy,
                    m.data.len() as u64,
                    copy.nanos(),
                );
            }
        }
        Ok(msg)
    }

    /// Non-blocking check of a receive (costs one poll of the completion
    /// word).
    pub fn poll_recv(&self, ctx: &ProcessCtx, h: &RecvHandle) -> SimResult<RecvPoll> {
        ctx.delay(self.host.cost().poll_completion)?;
        if !h.state.completion.is_done() {
            return Ok(RecvPoll::Pending);
        }
        Ok(
            match h
                .state
                .slot
                .lock()
                .clone()
                .expect("completed recv has a result")
            {
                Some(msg) => RecvPoll::Ready(msg),
                None => RecvPoll::Cancelled,
            },
        )
    }

    /// Claim a message from the unexpected pool without posting anything
    /// if none matches. Charges the doorbell-free host path: a check of
    /// the pool plus the staging copy when a message is claimed.
    pub fn try_claim_unexpected(
        &self,
        ctx: &ProcessCtx,
        tag: Tag,
        src: Option<MacAddr>,
    ) -> SimResult<Option<RecvMsg>> {
        ctx.delay(self.host.cost().poll_completion)?;
        match self.nic.claim_unexpected(tag, src) {
            Some(msg) => {
                let copy = self.host.cost().memcpy(msg.data.len());
                ctx.delay(copy)?;
                self.trace(
                    ctx,
                    EventKind::SubstrateCopy,
                    msg.data.len() as u64,
                    copy.nanos(),
                );
                Ok(Some(msg))
            }
            None => Ok(None),
        }
    }

    /// Explicitly unpost a descriptor (garbage collection, §4.2/§5.3). The
    /// handle completes with `None` unless a message already matched it.
    pub fn unpost_recv(&self, ctx: &ProcessCtx, h: &RecvHandle) -> SimResult<()> {
        ctx.delay(self.host.cost().doorbell_write)?;
        self.nic.unpost_descriptor(ctx, h.id);
        Ok(())
    }

    /// Configure the depth of the NIC's unexpected queue.
    pub fn set_unexpected_slots(&self, ctx: &ProcessCtx, slots: usize) -> SimResult<()> {
        ctx.delay(self.host.cost().doorbell_write)?;
        self.nic.set_unexpected_slots(ctx, slots);
        Ok(())
    }
}

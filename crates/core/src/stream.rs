//! Data-streaming sockets: the eager-with-flow-control path (§5.2, §6),
//! driving `ConnCore`. Arriving messages dissolve into a byte stream that
//! `read()` serves with partial reads at the cost of one extra copy; the
//! send side spends credits and blocks on flow-control acks when it runs
//! dry, consumed from pre-posted descriptors or, under §6.4, from the EMP
//! unexpected queue.

use bytes::Bytes;
use emp_proto::{SendHandle, TxBuf};
use hostsim::VirtRange;
use simnet::emp_trace::{self, EventKind};
use simnet::{NetError, OpResult, ProcessCtx, SimAccess, SimAccessExt, SimDuration, SimResult};

use crate::config::{CopyPolicy, RecvMode, SocketType};
use crate::conn::SockShared;
use crate::conn_core::{Credit, CreditReturn, Deadline, Flush, Nic, Op, OpKind, Step};
use crate::proto::{Msg, DATA_HEADER};

macro_rules! ok_or_return {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(err) => return Ok(Err(err)),
        }
    };
}

pub(crate) use ok_or_return;

/// Bytes of `sends` the NIC has not yet acknowledged, from the handles'
/// status words (as `reap_sends` reads them): no host time.
fn unacked_bytes(sends: &[SendHandle]) -> usize {
    sends
        .iter()
        .filter(|h| h.status().is_none())
        .map(SendHandle::msg_len)
        .sum()
}

/// The driver's side of [`Nic`]: the sends not yet reaped, and the data
/// descriptors posted.
struct Sends<'a>(&'a [SendHandle], usize);

impl Nic for Sends<'_> {
    fn in_flight(&self) -> bool {
        !self.0.is_empty()
    }

    fn unacked_ahead(&self) -> usize {
        self.0
            .split_last()
            .map_or(0, |(_, ahead)| unacked_bytes(ahead))
    }

    fn posted(&self) -> usize {
        self.1
    }
}

impl SockShared {
    /// Run one stream operation to its end, performing each step
    /// `ConnCore::step` names: the core decides, the driver charges host
    /// time, calls the NIC and traces, in the order of the steps. `data`
    /// is a write's bytes.
    pub(crate) fn run_op(&self, ctx: &ProcessCtx, kind: OpKind, data: &[u8]) -> OpResult<usize> {
        if let OpKind::Write { len, .. } = kind {
            self.trace(ctx, EventKind::SockWriteStart, len as u64, 0);
        }
        let mut op = Op::new(kind);
        // What a failed credit wait found, for `Step::Fail`.
        let mut failed = None;
        // One harness-side copy models handing the NIC the user buffer:
        // each fragment is a cheap refcounted slice of it.
        let mut whole = None;
        let mut zc_sends = Vec::new();
        loop {
            let step = {
                let i = &mut *self.inner.lock();
                let nic = Sends(&i.inflight_sends, i.data_slots.len());
                i.core.step(&mut op, &nic)
            };
            match step {
                Step::PayDebt => {
                    let debt = std::mem::take(&mut self.inner.lock().flush_debt);
                    if !debt.is_zero() {
                        ctx.delay(debt)?;
                    }
                }
                Step::Request { rides: false } => self.post_conn_req(ctx, Bytes::new())?,
                // A rider is copied like any small write.
                Step::Request { rides: true } => {
                    self.charge_send(ctx, Some(data.len()))?;
                    self.post_conn_req(ctx, Bytes::copy_from_slice(data))?;
                }
                Step::Reap => ok_or_return!(self.reap_sends()),
                Step::Credit { block } => op.found(match self.take_credit(ctx, block)? {
                    Ok(()) => Credit::Spent,
                    Err(NetError::WouldBlock) => Credit::WouldBlock,
                    Err(e) => {
                        failed = Some(e);
                        Credit::Failed
                    }
                }),
                // No copy of its own: each append paid one.
                Step::SendStaged(f) => {
                    self.trace_flush(ctx, &f);
                    self.charge_send(ctx, None)?;
                    let h = self.send_data_msg(ctx, f.ret, f.seq, f.payload)?;
                    self.inner.lock().inflight_sends.push(h);
                }
                Step::Fragment(ret, seq, range, copy) => {
                    self.trace_piggyback(ctx, &ret);
                    let whole = whole.get_or_insert_with(|| Bytes::copy_from_slice(data));
                    let len = range.len();
                    let payload = whole.slice(range);
                    // Copied into a registered staging buffer, the send
                    // goes on like TCP's write-into-sockbuf. Zero-copy, the
                    // user buffer is pinned and handed to the NIC: the
                    // doorbells go out back-to-back, reaped once at the end.
                    self.charge_send(ctx, copy.then_some(len))?;
                    let h = self.send_data_msg(ctx, ret, seq, payload)?;
                    if copy {
                        self.inner.lock().inflight_sends.push(h);
                    } else {
                        zc_sends.push(h);
                    }
                }
                // The one copy a staged write pays; the first byte of an
                // episode arms its deadline.
                Step::Stage => {
                    self.charge_copy(ctx, data.len())?;
                    let (staged, first_of) = self.inner.lock().core.stage(data);
                    if let Some(episode) = first_of {
                        self.arm_stage_deadline(ctx, episode);
                    }
                    let (len, staged) = (data.len() as u64, staged as u64);
                    self.trace(ctx, EventKind::CoalesceAppend, len, staged);
                }
                // The deadline defers while a full message is in flight,
                // so without this wait a writer faster than the wire would
                // queue a full message per credit at the NIC; with it the
                // NIC holds at most three and never waits for the writer.
                // A failed send surfaces at the next call (`reap_sends`).
                Step::AwaitQueueRoom => {
                    let h = {
                        let sends = &self.inner.lock().inflight_sends;
                        sends[sends.len() - 2].clone()
                    };
                    self.proc_.ep.wait_send(ctx, &h)?;
                }
                // The buffer is the application's again once every
                // zero-copy fragment is acknowledged.
                Step::AwaitZeroCopy => {
                    if !self.proc_.ep.wait_sends(ctx, &zc_sends)? {
                        self.inner.lock().core.peer_closed = true;
                        return Ok(Err(NetError::PeerClosed));
                    }
                }
                Step::Publish { unaccounted } => {
                    let stream = self.socket_type == SocketType::Stream;
                    self.publish_stats(ctx, if stream { unaccounted } else { 0 });
                }
                Step::SendClose(final_seq) => {
                    let h = self.send_msg(ctx, self.tx_ctrl_tag(), &Msg::Close { final_seq })?;
                    self.inner.lock().inflight_sends.push(h);
                }
                Step::Teardown(stale) => self.teardown(ctx, stale)?,
                Step::Done(r) => return Ok(r.map_err(NetError::from)),
                Step::Fail => return Ok(Err(failed.take().expect("a credit wait failed"))),
            }
        }
    }

    /// The host work of one send of the stream: the substrate's overhead,
    /// the communication-thread handoff, and a copy of `copy` bytes.
    fn charge_send(&self, ctx: &ProcessCtx, copy: Option<usize>) -> SimResult<()> {
        ctx.delay(self.proc_.cfg.stream_overhead)?;
        self.comm_thread_penalty(ctx)?;
        copy.map_or(Ok(()), |len| self.charge_copy(ctx, len))
    }

    /// Accept side of a rider: copy the request's bytes out of the backlog
    /// slot, which the next request reuses, into the stream.
    pub(crate) fn accept_first(&self, ctx: &ProcessCtx, first: Bytes) -> SimResult<()> {
        self.charge_copy(ctx, first.len())?;
        self.inner.lock().core.accept_first(first);
        Ok(())
    }

    /// Charge one host copy of `len` bytes: a small write into a
    /// registered send buffer, or a request's bytes out of a backlog slot.
    fn charge_copy(&self, ctx: &ProcessCtx, len: usize) -> SimResult<()> {
        let copy = self.proc_.ep.host().cost().memcpy(len);
        ctx.delay(copy)?;
        self.trace(ctx, EventKind::SubstrateCopy, len as u64, copy.nanos());
        Ok(())
    }

    fn trace_piggyback(&self, sim: &dyn SimAccess, ret: &CreditReturn<VirtRange>) {
        if emp_trace::ENABLED && ret.credits > 0 {
            self.trace(sim, EventKind::AckPiggybacked, u64::from(ret.credits), 0);
        }
    }

    /// Trace the end of a staging episode.
    fn trace_flush(&self, sim: &dyn SimAccess, f: &Flush<VirtRange>) {
        self.trace(
            sim,
            EventKind::CoalesceFlush,
            f.payload.len() as u64,
            f.writes,
        );
        self.trace_piggyback(sim, &f.ret);
    }

    /// Fire [`Self::stage_deadline`] for `episode` one
    /// [`CopyPolicy::STAGE_DEADLINE`] from now.
    fn arm_stage_deadline(&self, sim: &dyn SimAccess, episode: u64) {
        let me = self.self_ref.clone();
        sim.timer_after(CopyPolicy::STAGE_DEADLINE, move |sim| {
            if let Some(sock) = me.upgrade() {
                sock.stage_deadline(sim, episode);
            }
        });
    }

    /// The staging deadline, in event context: send what `episode` still
    /// holds, or re-arm, as `ConnCore::deadline` decides. No process to
    /// delay here, so the host work of a send is booked as a debt the
    /// owner pays at its next substrate call — nothing becomes free, and
    /// no helper thread exists (§5.2 rejects one).
    fn stage_deadline(&self, sim: &dyn SimAccess, episode: u64) {
        let decided = {
            let mut i = self.inner.lock();
            let unacked = unacked_bytes(&i.inflight_sends);
            i.core.deadline(episode, unacked)
        };
        match decided {
            Deadline::Skip => return,
            Deadline::Defer => return self.arm_stage_deadline(sim, episode),
            Deadline::Send => {}
        }
        let Some(f) = self.inner.lock().core.take_staged() else {
            return;
        };
        self.trace_flush(sim, &f);
        let (ret, seq, payload) = (f.ret, f.seq, f.payload);
        let range = self.inner.lock().send_range;
        let data = TxBuf::pair(Msg::data_header(ret.credits, seq, payload.len()), payload);
        let rearms = self.rearm_posts(&ret);
        let (h, handles, post) = self.proc_.ep.post_send_rearming_from_event(
            sim,
            self.peer,
            self.tx_data_tag(),
            data,
            range,
            &rearms,
        );
        self.rearmed(ret, handles);
        let mut i = self.inner.lock();
        i.inflight_sends.push(h);
        i.flush_debt += self.proc_.cfg.stream_overhead + self.comm_thread_cost() + post;
    }

    /// Serve up to `max` buffered stream bytes if any are waiting, paying
    /// the §6.2 temp-buffer-to-user copy. `None` means nothing buffered.
    fn serve_buffered(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Option<Bytes>> {
        let Some(out) = ok_or_return!(self.inner.lock().core.read(max).map_err(NetError::from))
        else {
            return Ok(Ok(None));
        };
        // The data-streaming copy from the substrate's temporary buffer
        // into the caller's buffer (§6.2).
        let copy = self.proc_.ep.host().cost().memcpy(out.len());
        ctx.delay(copy)?;
        if emp_trace::ENABLED {
            self.trace(
                ctx,
                EventKind::SubstrateCopy,
                out.len() as u64,
                copy.nanos(),
            );
            self.trace(ctx, EventKind::SockReadEnd, out.len() as u64, 0);
        }
        self.inner.lock().core.stats.bytes_received += out.len() as u64;
        Ok(Ok(Some(out)))
    }

    /// Stream read: up to `max` bytes, at least one (or an empty buffer
    /// at EOF). Pays the §6.2 temp-buffer-to-user copy. Without `block`
    /// it serves whatever is buffered or already landed and returns
    /// [`NetError::WouldBlock`] where a blocking read would park. A ring
    /// `Read` comes through here too: its registered buffer is a posted
    /// reader like any other, and the copy policy treats it so.
    pub(crate) fn stream_read(&self, ctx: &ProcessCtx, max: usize, block: bool) -> OpResult<Bytes> {
        if max == 0 {
            return Ok(Ok(Bytes::new()));
        }
        // A held request goes bare; flush-on-read: staged coalesced writes
        // go out before this side parks waiting for a response (keeps
        // request/response latency flat under coalescing).
        let prologue = OpKind::Flush {
            request: true,
            block: false,
        };
        ok_or_return!(self.run_op(ctx, prologue, &[])?);
        let direct_max = self.proc_.cfg.copy_policy.direct_to_posted.then_some(max);
        loop {
            // 1. Serve buffered bytes.
            if let Some(out) = ok_or_return!(self.serve_buffered(ctx, max)?) {
                return Ok(Ok(out));
            }
            // 2. Pull completed messages into the stream — or, with the
            // reader's buffer posted and the stream empty, straight into
            // the reader's hands.
            if self.data_landed() {
                if let Some(out) = ok_or_return!(self.pull_stream_msgs(ctx, direct_max)?) {
                    return Ok(Ok(out));
                }
                continue;
            }
            if !block {
                // Notice a close notification that landed but was never
                // drained: a nonblocking read never parks in
                // `wait_data_or_ctrl`, which is where a blocking one
                // drains it.
                ok_or_return!(self.poll_ctrl(ctx)?);
                if self.data_landed() {
                    continue;
                }
            }
            // 3. EOF once the peer closed and every data message it
            // announced has been delivered (a Close can overtake data that
            // is still retransmitting on a lossy fabric).
            if self.inner.lock().core.peer_drained() {
                return Ok(Ok(Bytes::new()));
            }
            // 4. Block for data or control.
            if !block {
                return Ok(Err(NetError::WouldBlock));
            }
            let data_completion = {
                let i = self.inner.lock();
                i.data_slots
                    .front()
                    .map(|s| s.handle.completion().clone())
                    .expect("stream socket keeps its window posted")
            };
            ok_or_return!(self.wait_data_or_ctrl(ctx, &data_completion)?);
        }
    }

    /// Has a message landed in the head data descriptor?
    fn data_landed(&self) -> bool {
        let i = self.inner.lock();
        i.data_slots.front().is_some_and(|s| s.handle.is_done())
    }

    /// Drain every completed head data descriptor through
    /// `ConnCore::on_data`. Consumed descriptors the core hands back are
    /// batch-reposted behind one doorbell; the returns it makes due go out
    /// after them. With `direct_max` (a reader is parked here with a posted
    /// buffer of that size) a payload the core delivers directly is
    /// returned, skipping the §6.2 temp-buffer copy.
    pub(crate) fn pull_stream_msgs(
        &self,
        ctx: &ProcessCtx,
        direct_max: Option<usize>,
    ) -> OpResult<Option<Bytes>> {
        let mut direct: Option<Bytes> = None;
        let mut reposts = Vec::new();
        let mut explicit_acks = Vec::new();
        loop {
            let slot = {
                let mut i = self.inner.lock();
                match i.data_slots.front() {
                    Some(s) if s.handle.is_done() => i.data_slots.pop_front().unwrap(),
                    _ => break,
                }
            };
            self.comm_thread_penalty(ctx)?;
            let Some(msg) = self.proc_.ep.wait_recv(ctx, &slot.handle)? else {
                continue; // unposted during close: consumed, nothing to repost
            };
            let parsed = ok_or_return!(Msg::decode(&msg.data));
            let Msg::Data {
                piggyback,
                seq,
                payload,
            } = parsed
            else {
                return Ok(Err(NetError::Protocol("non-data message on data tag")));
            };
            ctx.delay(self.proc_.cfg.stream_overhead)?;
            let took = {
                let mut i = self.inner.lock();
                let max = direct_max.filter(|_| direct.is_none());
                i.core.on_data(slot.range, piggyback, seq, payload, max)
            };
            reposts.extend(took.repost);
            if let (Some(accrued), true) = (took.delayed, emp_trace::ENABLED) {
                self.trace(ctx, EventKind::AckDelayed, u64::from(accrued), 0);
            }
            if let Some(d) = took.direct {
                if emp_trace::ENABLED {
                    self.trace(ctx, EventKind::DirectDeliver, d.len() as u64, 0);
                    self.trace(ctx, EventKind::SockReadEnd, d.len() as u64, 0);
                }
                direct = Some(d);
            }
            if let Some(mut ret) = took.ret {
                // A grown window's new descriptors, posted by this return.
                ret.grants = (0..took.grant)
                    .map(|_| self.proc_.alloc_range(self.buf_size + DATA_HEADER))
                    .collect();
                explicit_acks.push(ret);
            }
            if self.inner.lock().core.poisoned {
                // Budget tripped on this message: the popped descriptors
                // can no longer serve the (now unrecoverable) stream —
                // recycle their buffers instead of reposting.
                let unsent = explicit_acks
                    .into_iter()
                    .flat_map(|r| r.rearms.into_iter().chain(r.grants));
                for r in reposts.into_iter().chain(unsent) {
                    self.proc_.free_range(r);
                }
                ctx.telemetry().counter("sock.reorder_cap_trips").add(1);
                return Ok(Err(NetError::Exhausted));
            }
        }
        // Batch-repost every consumed descriptor to its staging range
        // behind a single doorbell, *before* the explicit acks go out:
        // the credits those acks grant must never race ahead of the
        // descriptors that will catch the messages they pay for.
        if !reposts.is_empty() {
            self.post_data_slots(ctx, reposts)?;
        }
        for ret in explicit_acks {
            if emp_trace::ENABLED {
                self.trace(ctx, EventKind::CreditReturn, u64::from(ret.credits), 0);
                self.trace(ctx, EventKind::AckSent, u64::from(ret.credits), 0);
            }
            let h = self.send_fcack(ctx, ret)?;
            let mut i = self.inner.lock();
            i.core.stats.fcacks_sent += 1;
            // A reader that never writes never reaps: drop the sends that
            // completed, keeping a failed one for `reap_sends` to report.
            i.inflight_sends.retain(|h| h.status() != Some(true));
            i.inflight_sends.push(h);
        }
        Ok(Ok(direct))
    }

    /// Spend one credit (`ConnCore::spend`), collecting the returns that
    /// landed first; a stall parks for the next flow-control ack and is
    /// timed into `sock.credit_wait_ns`.
    fn take_credit(&self, ctx: &ProcessCtx, block: bool) -> OpResult<()> {
        // Sim instant the first stall began, for the credit-wait histogram
        // (only stalled acquisitions record; the fast path stays free).
        let mut stall_start: Option<u64> = None;
        loop {
            self.reap_fcacks(ctx)?;
            let spent = self.inner.lock().core.spend(block);
            if ok_or_return!(spent.map_err(NetError::from)) {
                if let Some(t0) = stall_start {
                    ctx.telemetry()
                        .histogram("sock.credit_wait_ns")
                        .record(ctx.now().nanos().saturating_sub(t0));
                }
                return Ok(Ok(()));
            }
            stall_start.get_or_insert(ctx.now().nanos());
            self.trace(ctx, EventKind::CreditStall, 0, 0);
            // Out of credits: block for the next flow-control ack.
            if self.proc_.cfg.acks_in_unexpected_queue {
                // §6.4: the ack may already be parked in the unexpected
                // pool; otherwise post a descriptor and wait.
                // Hoisted out of the call: a guard temporary in the
                // argument list would stay locked across `post_recv`'s
                // park, stalling the telemetry sampler's state reads.
                let fcack_range = self.inner.lock().fcack_range;
                let h = self.proc_.ep.post_recv(
                    ctx,
                    self.rx_fcack_tag(),
                    Some(self.peer),
                    crate::proto::HEADER,
                    fcack_range,
                )?;
                ok_or_return!(self.wait_data_or_ctrl(ctx, h.completion())?);
                if h.is_done() {
                    if let Some(msg) = self.proc_.ep.wait_recv(ctx, &h)? {
                        ok_or_return!(self.apply_fcack(ctx, &msg.data));
                    }
                } else {
                    // Control (close) woke us; unpost the straggler.
                    self.proc_.ep.unpost_recv(ctx, &h)?;
                }
            } else {
                let front = {
                    let i = self.inner.lock();
                    i.fcack_handles
                        .front()
                        .map(|h| h.completion().clone())
                        .expect("stream socket pre-posts fc-ack descriptors")
                };
                ok_or_return!(self.wait_data_or_ctrl(ctx, &front)?);
                self.reap_fcacks(ctx)?;
            }
        }
    }

    /// Consume completed pre-posted fc-ack descriptors (non-UQ mode) and,
    /// in UQ mode, anything parked in the unexpected pool.
    pub(crate) fn reap_fcacks(&self, ctx: &ProcessCtx) -> SimResult<()> {
        if self.proc_.cfg.acks_in_unexpected_queue {
            while let Some(msg) =
                self.proc_
                    .ep
                    .try_claim_unexpected(ctx, self.rx_fcack_tag(), Some(self.peer))?
            {
                let _ = self.apply_fcack(ctx, &msg.data);
            }
            return Ok(());
        }
        loop {
            let handle = {
                let i = self.inner.lock();
                match i.fcack_handles.front() {
                    Some(h) if h.is_done() => h.clone(),
                    _ => return Ok(()),
                }
            };
            self.inner.lock().fcack_handles.pop_front();
            if let Some(msg) = self.proc_.ep.wait_recv(ctx, &handle)? {
                let _ = self.apply_fcack(ctx, &msg.data);
                // Repost to keep the fc-ack descriptor count constant.
                let range = self.inner.lock().fcack_range;
                let h = self.proc_.ep.post_recv(
                    ctx,
                    self.rx_fcack_tag(),
                    Some(self.peer),
                    crate::proto::HEADER,
                    range,
                )?;
                self.inner.lock().fcack_handles.push_back(h);
            }
        }
    }

    /// Arm a one-shot fc-ack descriptor for a `poll` with write interest
    /// in unexpected-queue mode (§6.4), where a credit return would park
    /// silently in the unexpected pool. No-op outside UQ mode, with
    /// credits in hand, or when one is already armed.
    pub(crate) fn arm_poll_fcack(&self, ctx: &ProcessCtx) -> SimResult<()> {
        if !self.proc_.cfg.acks_in_unexpected_queue {
            return Ok(());
        }
        {
            let i = self.inner.lock();
            let c = &i.core;
            if i.poll_fcack.is_some() || c.credits > 0 || c.closed || c.peer_closed {
                return Ok(());
            }
        }
        let range = self.inner.lock().fcack_range;
        let h = self.proc_.ep.post_recv(
            ctx,
            self.rx_fcack_tag(),
            Some(self.peer),
            crate::proto::HEADER,
            range,
        )?;
        self.inner.lock().poll_fcack = Some(h);
        Ok(())
    }

    /// Consume (if completed) or unpost the poll-armed fc-ack descriptor.
    /// Must run before a poll returns: a descriptor left posted would
    /// steal the next ack from the blocking write path's own post.
    pub(crate) fn disarm_poll_fcack(&self, ctx: &ProcessCtx) -> OpResult<()> {
        let Some(h) = self.inner.lock().poll_fcack.take() else {
            return Ok(Ok(()));
        };
        if h.is_done() {
            if let Some(msg) = self.proc_.ep.wait_recv(ctx, &h)? {
                ok_or_return!(self.apply_fcack(ctx, &msg.data));
            }
        } else {
            self.proc_.ep.unpost_recv(ctx, &h)?;
        }
        Ok(Ok(()))
    }

    fn apply_fcack(&self, ctx: &ProcessCtx, raw: &Bytes) -> Result<(), NetError> {
        match Msg::decode(raw)? {
            Msg::FcAck {
                credits,
                grew_window,
            } => {
                self.trace(ctx, EventKind::CreditGrant, u64::from(credits), 0);
                self.inner.lock().core.on_fcack(credits, grew_window);
                Ok(())
            }
            _ => Err(NetError::Protocol("non-ack message on fc-ack tag")),
        }
    }

    /// The §5.2 communication-thread ablation: every message handoff costs
    /// a thread synchronization (polling) or a scheduler-granularity wait
    /// (blocking thread).
    pub(crate) fn comm_thread_penalty(&self, ctx: &ProcessCtx) -> SimResult<()> {
        let cost = self.comm_thread_cost();
        if cost.is_zero() {
            return Ok(());
        }
        ctx.delay(cost)
    }

    fn comm_thread_cost(&self) -> SimDuration {
        match self.proc_.cfg.recv_mode {
            RecvMode::Direct => SimDuration::ZERO,
            RecvMode::CommThreadPolling => self.proc_.ep.host().cost().thread_sync,
            // On average half a scheduling quantum until the blocked
            // communication thread runs again.
            RecvMode::CommThreadBlocking => self.proc_.ep.host().cost().scheduler_granularity / 2,
        }
    }
}

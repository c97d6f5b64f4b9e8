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

use crate::config::{CopyPolicy, RecvMode};
use crate::conn::SockShared;
use crate::conn_core::{CreditReturn, Deadline, Request};
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

impl SockShared {
    /// Stream write: fragments into temp-buffer-sized substrate messages,
    /// spending one credit each. A message of at most
    /// `send_copy_threshold` bytes is copied and left in flight; a larger
    /// one goes zero-copy and the call returns when the NIC has
    /// acknowledged it. Under a staging copy policy the write's copied
    /// tail (`ConnCore::copied_tail`) is still on the wire when it returns,
    /// so the next write's head queues behind it at the NIC; a tail that
    /// fails later fails the next call, as a copied small write does.
    ///
    /// Without `block` the write never parks: it sends as many fragments
    /// as the credits in hand allow and returns the bytes taken, or
    /// [`NetError::WouldBlock`] before any. Every fragment is then copied:
    /// a zero-copy send pins the caller's buffer until the NIC
    /// acknowledges it, which is a wait. Such a write sends a held-back
    /// connection request bare instead of riding it.
    pub(crate) fn stream_write(
        &self,
        ctx: &ProcessCtx,
        data: &[u8],
        block: bool,
    ) -> OpResult<usize> {
        self.trace(ctx, EventKind::SockWriteStart, data.len() as u64, 0);
        self.pay_flush_debt(ctx)?;
        if !block {
            self.send_conn_req(ctx)?;
        } else if self.ride_conn_req(ctx, data)? {
            return Ok(Ok(data.len()));
        }
        // The send half of the copy policy: stage, or travel on its own.
        // Completed sends are reaped first, so "in flight" is current.
        if self.inner.lock().core.stage_fits(data.len()) {
            ok_or_return!(self.check_writable());
            let stages = {
                let i = self.inner.lock();
                i.core.stages(!i.inflight_sends.is_empty())
            };
            if stages {
                return self.coalesce_append(ctx, data, block);
            }
        }
        // A larger write must not overtake bytes already staged.
        if !ok_or_return!(self.flush_coalesced(ctx, block)?) {
            return Ok(Err(NetError::WouldBlock));
        }
        // One harness-side copy models handing the NIC the user buffer:
        // each fragment below is a cheap refcounted slice of it, not a
        // fresh allocation-and-copy per chunk.
        let whole = Bytes::copy_from_slice(data);
        let head = if block {
            data.len() - self.inner.lock().core.copied_tail(data.len())
        } else {
            data.len()
        };
        let mut zc_sends = Vec::new();
        let mut off = 0;
        loop {
            ok_or_return!(self.check_writable());
            match self.take_credit(ctx, block)? {
                Ok(()) => {}
                // Out of credits without parking: the bytes taken so far.
                Err(NetError::WouldBlock) if off > 0 || data.is_empty() => return Ok(Ok(off)),
                Err(e) => return Ok(Err(e)),
            }
            // Head fragments first; the tail, if any, is one message.
            let end = if off < head { head } else { data.len() };
            let chunk = (end - off).min(self.buf_size);
            let (ret, seq) = self.inner.lock().core.begin_msg(chunk);
            self.trace_piggyback(ctx, &ret);
            let payload = whole.slice(off..off + chunk);
            ctx.delay(self.proc_.cfg.stream_overhead)?;
            self.comm_thread_penalty(ctx)?;
            if !block || chunk <= self.proc_.cfg.send_copy_threshold {
                // Buffered send: copy into a registered staging buffer and
                // return without waiting (like TCP's write-into-sockbuf).
                self.charge_copy(ctx, chunk)?;
                let h = self.send_data_msg(ctx, ret, seq, payload)?;
                self.inner.lock().inflight_sends.push(h);
            } else {
                // Zero-copy send: the user buffer is pinned and handed to
                // the NIC. Fragments pipeline — the doorbells go out
                // back-to-back and the batch is reaped once below.
                let h = self.send_data_msg(ctx, ret, seq, payload)?;
                zc_sends.push(h);
            }
            off += chunk;
            if off >= data.len() {
                break;
            }
        }
        if !zc_sends.is_empty() {
            // Block until every zero-copy fragment is acknowledged (the
            // buffer is the application's to reuse again) — one completion
            // reap for the whole batch.
            let acked = self.proc_.ep.wait_sends(ctx, &zc_sends)?;
            if !acked {
                self.inner.lock().core.peer_closed = true;
                return Ok(Err(NetError::PeerClosed));
            }
        }
        Ok(Ok(data.len()))
    }

    /// The first write of a connection whose connect held its request
    /// back (DESIGN §12) rides in it, copied like any small write, when
    /// `ConnCore::claim_request` says so. Returns whether `data` went; a
    /// write that does not fit sends the bare request and runs as usual.
    fn ride_conn_req(&self, ctx: &ProcessCtx, data: &[u8]) -> SimResult<bool> {
        let claim = self.inner.lock().core.claim_request(Some(data.len()));
        match claim {
            Request::NotHeld => return Ok(false),
            Request::Bare => {
                self.post_conn_req(ctx, Bytes::new())?;
                return Ok(false);
            }
            Request::Rides => {}
        }
        ctx.delay(self.proc_.cfg.stream_overhead)?;
        self.comm_thread_penalty(ctx)?;
        self.charge_copy(ctx, data.len())?;
        self.post_conn_req(ctx, Bytes::copy_from_slice(data))?;
        Ok(true)
    }

    /// Accept side of [`Self::ride_conn_req`]: copy the request's bytes out
    /// of the backlog slot, which the next request reuses, into the stream.
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

    /// Stage a small write in the connection's send buffer (one copy, but
    /// a substrate message shared by many writes), flushing as
    /// `ConnCore::stage_overflows` and `stage_flush_due` say; after a
    /// capacity flush a blocking call waits while the NIC is far behind
    /// ([`Self::await_queue_room`]). Invariant on return: bytes staged ⇒
    /// at least two credits in hand, so the deadline timer never waits
    /// for one. Without `block`, staging requires a credit in hand
    /// (reaped, not awaited), so a coalesced `try_write` never accepts
    /// bytes nothing can send.
    fn coalesce_append(&self, ctx: &ProcessCtx, data: &[u8], block: bool) -> OpResult<usize> {
        let overflow = self.inner.lock().core.stage_overflows(data.len());
        if overflow {
            if !ok_or_return!(self.flush_coalesced(ctx, block)?) {
                return Ok(Err(NetError::WouldBlock));
            }
            if block {
                self.await_queue_room(ctx)?;
            }
        }
        if !block {
            // Look for a credit without spending it.
            ok_or_return!(self.take_credit(ctx, false)?);
            self.inner.lock().core.refund();
        }
        self.stage_bytes(ctx, data)?;
        let (full, flush) = self.inner.lock().core.stage_flush_due();
        if flush {
            ok_or_return!(self.flush_coalesced(ctx, block)?);
        }
        if full && block {
            self.await_queue_room(ctx)?;
        }
        Ok(Ok(data.len()))
    }

    /// After a capacity flush: when two full substrate messages (two
    /// `temp_buf_size`s) are still unacknowledged ahead of the one just
    /// sent, park until the NIC has acknowledged them. The deadline defers
    /// while a full message is in flight, so without this a writer faster
    /// than the wire would queue a full message per credit at the NIC;
    /// with it the NIC holds at most three and never waits for the
    /// writer. A failed send surfaces at the next call (`reap_sends`).
    fn await_queue_room(&self, ctx: &ProcessCtx) -> SimResult<()> {
        let last_ahead = {
            let i = self.inner.lock();
            let Some((_, ahead)) = i.inflight_sends.split_last() else {
                return Ok(());
            };
            if unacked_bytes(ahead) < 2 * self.buf_size {
                return Ok(());
            }
            ahead.last().cloned()
        };
        if let Some(h) = last_ahead {
            self.proc_.ep.wait_send(ctx, &h)?;
        }
        Ok(())
    }

    /// Copy `data` into the staging buffer — the one copy a staged write
    /// pays. The first byte of an episode arms its deadline.
    fn stage_bytes(&self, ctx: &ProcessCtx, data: &[u8]) -> SimResult<()> {
        self.charge_copy(ctx, data.len())?;
        let (staged, first_of) = self.inner.lock().core.stage(data);
        if let Some(episode) = first_of {
            self.arm_stage_deadline(ctx, episode);
        }
        self.trace(
            ctx,
            EventKind::CoalesceAppend,
            data.len() as u64,
            staged as u64,
        );
        Ok(())
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
        let Some((ret, seq, payload)) = self.take_staged(sim) else {
            return;
        };
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

    /// Pay for the flushes the deadline timer did since the last call.
    fn pay_flush_debt(&self, ctx: &ProcessCtx) -> SimResult<()> {
        let debt = std::mem::take(&mut self.inner.lock().flush_debt);
        if debt.is_zero() {
            return Ok(());
        }
        ctx.delay(debt)
    }

    /// Flush staged writes as one substrate message; returns whether none
    /// are left. With no credit in hand a blocking call parks for one; a
    /// nonblocking one leaves them and reports `false`, a closed peer
    /// included (the read it precedes still serves what is buffered).
    pub(crate) fn flush_coalesced(&self, ctx: &ProcessCtx, block: bool) -> OpResult<bool> {
        self.pay_flush_debt(ctx)?;
        if self.inner.lock().core.staged.is_empty() {
            return Ok(Ok(true));
        }
        let credit = self.take_credit(ctx, block)?;
        if credit.is_err() && !block {
            return Ok(Ok(false));
        }
        ok_or_return!(credit);
        ok_or_return!(self.flush_staged(ctx)?);
        Ok(Ok(true))
    }

    /// `ConnCore::take_staged`, traced.
    fn take_staged(&self, sim: &dyn SimAccess) -> Option<(CreditReturn<VirtRange>, u32, Bytes)> {
        let f = self.inner.lock().core.take_staged()?;
        self.trace(
            sim,
            EventKind::CoalesceFlush,
            f.payload.len() as u64,
            f.writes,
        );
        self.trace_piggyback(sim, &f.ret);
        Some((f.ret, f.seq, f.payload))
    }

    /// Send the staged bytes (credit already spent) as one data message,
    /// with no copy of its own: each append paid one.
    fn flush_staged(&self, ctx: &ProcessCtx) -> OpResult<()> {
        let Some((ret, seq, payload)) = self.take_staged(ctx) else {
            // The timer sent them while this call was parked: settle now.
            return self.pay_flush_debt(ctx).map(Ok);
        };
        ctx.delay(self.proc_.cfg.stream_overhead)?;
        self.comm_thread_penalty(ctx)?;
        let h = self.send_data_msg(ctx, ret, seq, payload)?;
        self.inner.lock().inflight_sends.push(h);
        Ok(Ok(()))
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
        self.send_conn_req(ctx)?;
        // Flush-on-read: staged coalesced writes go out before this side
        // parks waiting for a response (keeps request/response latency
        // flat under coalescing).
        ok_or_return!(self.flush_coalesced(ctx, false)?);
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
            i.inflight_sends.push(h);
        }
        Ok(Ok(direct))
    }

    /// A *fully* closed peer unposts its descriptors, which surfaces as
    /// failed sends through `reap_sends`; a received `Close` alone does
    /// not fail writes (the peer may only have shut down its write side,
    /// as TCP allows after a FIN).
    fn check_writable(&self) -> Result<(), NetError> {
        self.reap_sends()?;
        Ok(self.inner.lock().core.check_writable()?)
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

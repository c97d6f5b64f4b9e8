//! Data-streaming sockets: the eager-with-flow-control path (§5.2, §6).
//!
//! The receive side pre-posts its window of descriptors into temp buffers
//! (N, or under the default two until the sender first uses both);
//! arriving messages dissolve into a byte stream that `read()` serves
//! with partial reads (TCP's data-streaming semantics) at the cost of one
//! extra copy.
//! The send side spends credits, piggy-backs credit returns on reverse
//! data, and blocks on explicit flow-control acks when it runs dry —
//! consumed from pre-posted descriptors, or from the EMP unexpected queue
//! when §6.4 is enabled.

use bytes::Bytes;
use emp_proto::{SendHandle, TxBuf};
use simnet::emp_trace::{self, EventKind};
use simnet::{NetError, OpResult, ProcessCtx, SimAccess, SimAccessExt, SimDuration, SimResult};

use crate::config::{CopyPolicy, RecvMode};
use crate::conn::{CreditReturn, DataSlot, SockShared};
use crate::proto::{Msg, FIRST_MAX};

macro_rules! ok_or_return {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(err) => return Ok(Err(err)),
        }
    };
}

pub(crate) use ok_or_return;

/// Bytes of `sends` the NIC has not yet acknowledged. Reads the handles'
/// status words, as `reap_sends` does, so it charges no host time.
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
    /// acknowledged it (the buffer is the application's to reuse again).
    /// Under a staging copy policy (`stage_below > 0`, as in `default()`)
    /// a write longer than the threshold keeps its last
    /// `send_copy_threshold` bytes back as a copied tail: the call returns
    /// when the zero-copy head is acknowledged while the tail is still on
    /// the wire, so the next write's head queues behind it at the NIC and
    /// the link does not idle while the final ack comes back. A tail that
    /// fails later fails the next call, as a copied small write does.
    ///
    /// Without `block` the write never parks: it sends as many fragments
    /// as the credits in hand allow and returns the bytes taken, or
    /// [`NetError::WouldBlock`] before any. Every fragment is then copied
    /// (fire and forget): a zero-copy send pins the caller's buffer until
    /// the NIC acknowledges it, which is a wait. Such a write sends a
    /// held-back connection request bare instead of riding it.
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
        if ok_or_return!(self.stages(data.len())) {
            return self.coalesce_append(ctx, data, block);
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
            data.len() - self.copied_tail(data.len())
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
            let (ret, seq) = self.begin_msg(ctx, chunk);
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
                self.inner.lock().peer_closed = true;
                return Ok(Err(NetError::PeerClosed));
            }
        }
        Ok(Ok(data.len()))
    }

    /// The first write of a connection whose connect held its request
    /// back (DESIGN §8): 1..=[`FIRST_MAX`] bytes travel inside the request
    /// as data message 0 — copied like any small write, seq 0, no credit
    /// spent, so the peer's accept queues them with no descriptor and
    /// returns no credit for them. Returns whether `data` went; a write
    /// that does not fit sends the bare request and runs as usual. No-op
    /// once the request is sent.
    fn ride_conn_req(&self, ctx: &ProcessCtx, data: &[u8]) -> SimResult<bool> {
        if data.is_empty() || data.len() > FIRST_MAX {
            self.send_conn_req(ctx)?;
            return Ok(false);
        }
        // Claim the request and seq 0 together: an operation of another
        // process during the charges below finds the request gone.
        let Some(req) = self.inner.lock().conn_req.take() else {
            return Ok(false);
        };
        let (ret, seq) = self.begin_msg(ctx, data.len());
        debug_assert!(seq == 0 && ret.credits == 0, "nothing precedes a rider");
        self.inner.lock().stats.conn_riders += 1;
        ctx.delay(self.proc_.cfg.stream_overhead)?;
        self.comm_thread_penalty(ctx)?;
        self.charge_copy(ctx, data.len())?;
        self.post_conn_req(ctx, req, Bytes::copy_from_slice(data))?;
        Ok(true)
    }

    /// Accept side of [`Self::ride_conn_req`]: queue the bytes a
    /// connection request carried as received data message 0. They are
    /// copied out of the backlog slot, which the next request reuses, into
    /// the stream; no data descriptor held them, so no credit is due.
    pub(crate) fn accept_first(&self, ctx: &ProcessCtx, first: Bytes) -> SimResult<()> {
        self.charge_copy(ctx, first.len())?;
        let mut i = self.inner.lock();
        i.rx_next_seq = 1;
        i.stats.msgs_received += 1;
        i.stream_len += first.len();
        i.stream_chunks.push_back(first);
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

    /// Bytes at the end of a `len`-byte write sent as one copied message
    /// that the write does not wait for: the last `send_copy_threshold`
    /// of a longer write under a staging policy, else none. A head of at
    /// most the threshold is copied too, so writes up to twice the
    /// threshold go fully copied.
    fn copied_tail(&self, len: usize) -> usize {
        let cfg = &self.proc_.cfg;
        if cfg.copy_policy.stage_below > 0 && len > cfg.send_copy_threshold {
            cfg.send_copy_threshold.min(self.buf_size)
        } else {
            0
        }
    }

    /// The send half of the copy policy: does a write of `len` bytes wait
    /// in the send buffer to share a substrate message with its
    /// neighbours, or travel on its own? On its own when it is too large,
    /// and when it would wait alone — nothing staged, nothing in flight
    /// (completed sends are reaped first, so that is current). Fails as
    /// the write itself would on an unwritable socket.
    fn stages(&self, len: usize) -> Result<bool, NetError> {
        let cfg = &self.proc_.cfg;
        let below = cfg.copy_policy.stage_below.min(cfg.send_copy_threshold);
        if len == 0 || len > below.min(self.stage_capacity()) {
            return Ok(false);
        }
        self.check_writable()?;
        let i = self.inner.lock();
        Ok(!(i.coalesce_buf.is_empty() && i.inflight_sends.is_empty()))
    }

    /// Staged bytes that force a flush: one substrate message at most.
    fn stage_capacity(&self) -> usize {
        self.proc_.cfg.copy_policy.stage_capacity.min(self.buf_size)
    }

    /// Open one outgoing data message: ride any pending credit return on
    /// it (§6.1 piggy-backing; free, so done for any amount), with the
    /// re-arms of the descriptors those credits pay for, count it and
    /// claim its sequence number. `user_bytes` is what it adds to
    /// `bytes_sent` (staged bytes were counted when they were written).
    fn begin_msg(&self, sim: &dyn SimAccess, user_bytes: usize) -> (CreditReturn, u32) {
        let (ret, seq) = {
            let mut i = self.inner.lock();
            let ret = if self.proc_.cfg.piggyback_acks {
                i.take_credit_return()
            } else {
                CreditReturn::default()
            };
            i.stats.bytes_sent += user_bytes as u64;
            i.stats.msgs_sent += 1;
            i.stats.piggybacked_credits += u64::from(ret.credits);
            (ret, i.claim_tx_seq())
        };
        if emp_trace::ENABLED && ret.credits > 0 {
            self.trace(sim, EventKind::AckPiggybacked, u64::from(ret.credits), 0);
        }
        (ret, seq)
    }

    /// Stage a small write in the connection's send buffer (one copy, but
    /// a substrate message shared by many writes), flushing first when it
    /// would overflow one message and immediately after when the buffer
    /// fills or the last credits are in hand; after either capacity flush
    /// a blocking call waits while the NIC is far behind
    /// ([`Self::await_queue_room`]). Invariant on return: bytes staged ⇒
    /// at least two credits in hand — which is why the deadline timer
    /// never has to wait for one. Without `block`, staging requires a
    /// credit in hand (reaped, not awaited) so staged bytes are always
    /// flushable without parking — otherwise a coalesced `try_write` could
    /// silently accept bytes nothing can send.
    fn coalesce_append(&self, ctx: &ProcessCtx, data: &[u8], block: bool) -> OpResult<usize> {
        let cap = self.stage_capacity();
        let overflow = {
            let i = self.inner.lock();
            i.coalesce_buf.len() + data.len() > cap
        };
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
            self.inner.lock().credits += 1;
        }
        self.stage_bytes(ctx, data)?;
        let (full, pressure) = {
            let i = self.inner.lock();
            (i.coalesce_buf.len() >= cap, i.credits <= 1)
        };
        if full || pressure {
            // Credit pressure: never sit on staged bytes when the peer is
            // about to stop granting credits — a staged-but-unsendable
            // buffer would turn a visible write stall into a silent one.
            ok_or_return!(self.flush_coalesced(ctx, block)?);
        }
        if full && block {
            self.await_queue_room(ctx)?;
        }
        Ok(Ok(data.len()))
    }

    /// After a capacity flush: when two full substrate messages (two
    /// `temp_buf_size`s, whatever the staging capacity) are still
    /// unacknowledged ahead of the one just sent — one on the wire, one
    /// queued behind it — park until the NIC has acknowledged them. The
    /// staging deadline defers while a full message is in flight, so
    /// without this bound a writer faster than the wire would queue a full
    /// message per credit at the NIC (32 × 64 KiB under `default()`). With
    /// it the NIC holds at most three and never waits for the writer: the
    /// writer resumes while the newest message is still to send, and fills
    /// the next one while the NIC works on it. A send that fails completes
    /// too; the failure surfaces at the next call through `reap_sends`.
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
    /// pays — and account for it. The first byte of an episode arms its
    /// deadline: one sim-time event that sends whatever is still staged
    /// then; a flush in between ends the episode and it finds nothing.
    fn stage_bytes(&self, ctx: &ProcessCtx, data: &[u8]) -> SimResult<()> {
        self.charge_copy(ctx, data.len())?;
        let (staged, first_of) = {
            let mut i = self.inner.lock();
            let first_of = i.coalesce_buf.is_empty().then_some(i.stage_episode);
            i.coalesce_buf.extend_from_slice(data);
            i.coalesce_count += 1;
            i.stats.writes_coalesced += 1;
            i.stats.bytes_sent += data.len() as u64;
            (i.coalesce_buf.len(), first_of)
        };
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
    /// holds — unless this connection's unacknowledged sends already add
    /// up to a full substrate message. Then the NIC could not start on the
    /// staged bytes any sooner, so the deadline defers instead: it re-arms
    /// for the same episode and the bytes keep gathering company until
    /// capacity, credit pressure, the owner's next read, poll, flush,
    /// shutdown or close, or a deadline that finds less in flight. The sum
    /// reads the send handles' status words, as `reap_sends` does, so it
    /// charges no host time. No process to delay here, so the host work
    /// of a send is booked as a debt the owner pays at its next substrate
    /// call — nothing becomes free, and no helper thread exists (§5.2
    /// rejects one).
    fn stage_deadline(&self, sim: &dyn SimAccess, episode: u64) {
        {
            let mut i = self.inner.lock();
            // A flush ended the episode (`close` and `shutdown_write`
            // flush first, so that covers them), or — no credit — the
            // owner is parked in `flush_coalesced` on these very bytes
            // (invariant on `coalesce_append`) and sends them itself.
            if i.stage_episode != episode || i.credits == 0 {
                return;
            }
            if unacked_bytes(&i.inflight_sends) >= self.stage_capacity() {
                i.stats.stage_deferrals += 1;
                drop(i);
                self.arm_stage_deadline(sim, episode);
                return;
            }
            i.credits -= 1;
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

    /// Flush staged writes as one substrate message; returns whether the
    /// staging buffer is now empty. No-op when nothing is staged. With no
    /// credit in hand a blocking call parks for one; a nonblocking call
    /// leaves the bytes staged and reports `false`, a closed peer
    /// included — the read it precedes still serves what is buffered.
    pub(crate) fn flush_coalesced(&self, ctx: &ProcessCtx, block: bool) -> OpResult<bool> {
        self.pay_flush_debt(ctx)?;
        if self.inner.lock().coalesce_buf.is_empty() {
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

    /// End the staging episode, credit already spent: the staged bytes and
    /// the header fields of their message. `None` when the other context
    /// (owner or timer) got here first — the credit goes back.
    fn take_staged(&self, sim: &dyn SimAccess) -> Option<(CreditReturn, u32, Bytes)> {
        let (payload, writes) = {
            let mut i = self.inner.lock();
            if i.coalesce_buf.is_empty() {
                i.credits += 1;
                return None;
            }
            i.stage_episode += 1;
            i.stats.coalesce_flushes += 1;
            let payload = Bytes::from(std::mem::take(&mut i.coalesce_buf));
            (payload, std::mem::take(&mut i.coalesce_count))
        };
        self.trace(sim, EventKind::CoalesceFlush, payload.len() as u64, writes);
        let (ret, seq) = self.begin_msg(sim, 0);
        Some((ret, seq, payload))
    }

    /// Send the staged bytes (credit already spent) as one data message.
    /// The staging copy was paid per-append, so the flush itself hands
    /// the NIC the buffer without another copy.
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
    /// Shared by the blocking and nonblocking read paths.
    fn serve_buffered(&self, ctx: &ProcessCtx, max: usize) -> OpResult<Option<Bytes>> {
        let served = {
            let mut i = self.inner.lock();
            if i.closed {
                return Ok(Err(NetError::Closed));
            }
            if i.poisoned {
                return Ok(Err(NetError::Exhausted));
            }
            if i.stream_len > 0 {
                let mut out = Vec::with_capacity(max.min(i.stream_len));
                while out.len() < max {
                    let Some(mut chunk) = i.stream_chunks.pop_front() else {
                        break;
                    };
                    let want = max - out.len();
                    if chunk.len() > want {
                        let rest = chunk.split_off(want);
                        i.stream_chunks.push_front(rest);
                    }
                    out.extend_from_slice(&chunk);
                }
                i.stream_len -= out.len();
                Some(Bytes::from(out))
            } else {
                None
            }
        };
        if let Some(out) = served {
            // The data-streaming copy from the substrate's temporary
            // buffer into the caller's buffer (§6.2).
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
            self.inner.lock().stats.bytes_received += out.len() as u64;
            return Ok(Ok(Some(out)));
        }
        Ok(Ok(None))
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
            if self.inner.lock().peer_drained() {
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

    /// Would a stream `write` make progress without blocking right now?
    /// True with credits in hand, and true in every error state (the
    /// write returns the error immediately — POSIX `POLLOUT` semantics).
    pub(crate) fn stream_writable_now(&self) -> bool {
        let i = self.inner.lock();
        i.credits > 0 || i.peer_closed || i.write_closed || i.closed || i.poisoned
    }

    /// Drain every completed head data descriptor: append payloads to the
    /// stream, and run the credit-return policy (§6.1/§6.3) per message.
    /// The consumed descriptors are batch-reposted behind one doorbell —
    /// or, with piggy-backing on, left for the send that returns their
    /// credits to re-arm, so a credit never leaves without its descriptor.
    /// A drain that uses up a window below N grows it: the return is sent
    /// at once and posts the new descriptors too.
    ///
    /// With `direct_max` set (a reader is parked here with a posted buffer
    /// of that size), the first in-sequence payload that fits while the
    /// stream is empty is handed straight back — skipping the §6.2
    /// temp-buffer-to-user copy entirely.
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
            let (send_explicit, delivered_direct) = {
                let mut i = self.inner.lock();
                if self.proc_.cfg.piggyback_acks {
                    i.rearms.push(slot.range);
                } else {
                    reposts.push(slot.range);
                }
                i.credits += u32::from(piggyback);
                i.stats.msgs_received += 1;
                // The descriptor is consumed (and reposted or re-armed)
                // regardless of arrival order; only the *byte stream* is
                // sequenced. An ahead-of-sequence payload parks in the
                // reorder buffer until the retransmitting gap message lands.
                let mut delivered = 0;
                if seq == i.rx_next_seq {
                    // Direct delivery is only sound for the very next bytes
                    // of the stream with nothing buffered ahead of them,
                    // and only once per pull (the reader posted one buffer).
                    let take_direct = direct.is_none()
                        && i.stream_len == 0
                        && !payload.is_empty()
                        && direct_max.is_some_and(|m| payload.len() <= m);
                    i.rx_next_seq += 1;
                    if take_direct {
                        delivered = payload.len();
                        i.stats.copies_avoided += 1;
                        i.stats.bytes_direct += delivered as u64;
                        i.stats.bytes_received += delivered as u64;
                        direct = Some(payload);
                    } else {
                        i.stream_len += payload.len();
                        i.stream_chunks.push_back(payload);
                    }
                    loop {
                        let next = i.rx_next_seq;
                        let Some(parked) = i.rx_ooo.remove(&next) else {
                            break;
                        };
                        i.rx_next_seq += 1;
                        i.stream_len += parked.len();
                        i.stream_chunks.push_back(parked);
                    }
                } else if seq > i.rx_next_seq {
                    // Reorder-buffer budget: the payload was EMP-acked, so
                    // dropping it would corrupt the stream — past the cap
                    // the connection is poisoned instead and every
                    // subsequent operation fails with `Exhausted`.
                    let over = self.proc_.cfg.reorder_cap_bytes.is_some_and(|cap| {
                        i.rx_ooo.values().map(Bytes::len).sum::<usize>() + payload.len() > cap
                    });
                    if over {
                        i.poisoned = true;
                    } else {
                        i.rx_ooo.insert(seq, payload);
                    }
                }
                // seq < rx_next_seq would be a duplicate; EMP's
                // message-level dedup makes that unreachable, so it is
                // silently ignored.
                i.consumed += 1;
                // §6.3: with delayed acks the return is due only after half
                // the credits are consumed. Piggy-backing rides on writes
                // that happen to occur before the threshold (§6.1: "when a
                // message is available to be sent... we cannot always rely
                // on this approach and need an explicit acknowledgment
                // mechanism too"); at the threshold, with no write in hand,
                // the ack goes out explicitly.
                //
                // A window below N is used up before that threshold: every
                // descriptor of it consumed means the sender holds no
                // credit, so the return is due at once and grows the
                // window to N (DESIGN §8). At N the threshold always
                // comes first.
                let threshold = self.proc_.cfg.ack_threshold();
                let used_up = i.window < self.credits_max && i.consumed >= i.window;
                let explicit = if used_up || i.consumed >= threshold {
                    Some((i.take_credit_return(), used_up))
                } else {
                    if emp_trace::ENABLED && self.proc_.cfg.piggyback_acks && i.consumed > 0 {
                        let accrued = u64::from(i.consumed);
                        drop(i);
                        self.trace(ctx, EventKind::AckDelayed, accrued, 0);
                    }
                    None
                };
                (explicit, delivered)
            };
            if delivered_direct > 0 && emp_trace::ENABLED {
                self.trace(ctx, EventKind::DirectDeliver, delivered_direct as u64, 0);
                self.trace(ctx, EventKind::SockReadEnd, delivered_direct as u64, 0);
            }
            if let Some((mut ret, used_up)) = send_explicit {
                if used_up {
                    self.grow_window(&mut ret);
                }
                explicit_acks.push(ret);
            }
            if self.inner.lock().poisoned {
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
            let cap = self.buf_size + crate::proto::DATA_HEADER;
            let posts: Vec<_> = reposts
                .iter()
                .map(|range| (self.rx_data_tag(), Some(self.peer), cap, *range))
                .collect();
            let handles = self.proc_.ep.post_recv_batch(ctx, &posts)?;
            let mut i = self.inner.lock();
            for (handle, range) in handles.into_iter().zip(reposts) {
                i.data_slots.push_back(DataSlot { handle, range });
            }
        }
        for ret in explicit_acks {
            if emp_trace::ENABLED {
                self.trace(ctx, EventKind::CreditReturn, u64::from(ret.credits), 0);
                self.trace(ctx, EventKind::AckSent, u64::from(ret.credits), 0);
            }
            let h = self.send_fcack(ctx, ret)?;
            let mut i = self.inner.lock();
            i.stats.fcacks_sent += 1;
            i.inflight_sends.push(h);
        }
        Ok(Ok(direct))
    }

    fn check_writable(&self) -> Result<(), NetError> {
        self.reap_sends()?;
        let i = self.inner.lock();
        if i.closed || i.write_closed {
            return Err(NetError::Closed);
        }
        if i.poisoned {
            return Err(NetError::Exhausted);
        }
        // Note: a received Close does NOT fail writes here — the peer may
        // only have shut down its write side (its descriptors stay posted
        // and our data still flows, as TCP allows after a FIN). A *fully*
        // closed peer unposts its descriptors, which surfaces as failed
        // sends through `reap_sends` above.
        Ok(())
    }

    /// Spend one credit, collecting the credit returns that already
    /// landed first. With none in hand: [`NetError::PeerClosed`] once the
    /// peer closed; else a blocking call parks for the next flow-control
    /// ack (a credit stall, timed into `sock.credit_wait_ns`) and a
    /// nonblocking one gets [`NetError::WouldBlock`].
    fn take_credit(&self, ctx: &ProcessCtx, block: bool) -> OpResult<()> {
        // Sim instant the first stall began, for the credit-wait histogram
        // (only stalled acquisitions record; the fast path stays free).
        let mut stall_start: Option<u64> = None;
        loop {
            self.reap_fcacks(ctx)?;
            {
                let mut i = self.inner.lock();
                if i.credits > 0 {
                    i.credits -= 1;
                    drop(i);
                    if let Some(t0) = stall_start {
                        ctx.telemetry()
                            .histogram("sock.credit_wait_ns")
                            .record(ctx.now().nanos().saturating_sub(t0));
                    }
                    return Ok(Ok(()));
                }
                if i.peer_closed {
                    return Ok(Err(NetError::PeerClosed));
                }
                if !block {
                    return Ok(Err(NetError::WouldBlock));
                }
                i.stats.credit_stalls += 1;
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
    /// in unexpected-queue mode (§6.4): with no pre-posted fc-ack
    /// descriptors there, a credit return parks silently in the
    /// unexpected pool and nothing would wake the poll. No-op outside UQ
    /// mode, with credits in hand, or when one is already armed.
    pub(crate) fn arm_poll_fcack(&self, ctx: &ProcessCtx) -> SimResult<()> {
        if !self.proc_.cfg.acks_in_unexpected_queue {
            return Ok(());
        }
        {
            let i = self.inner.lock();
            if i.poll_fcack.is_some() || i.credits > 0 || i.closed || i.peer_closed {
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
                let mut i = self.inner.lock();
                i.credits += u32::from(credits);
                if grew_window {
                    i.peer_window = self.credits_max;
                }
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

//! Datagram sockets: data streaming disabled (§6.2).
//!
//! Message boundaries are preserved and delivery is zero-copy: `recv()`
//! posts a descriptor pointing at the user buffer, so small messages land
//! directly (the 28.5 µs path). Messages beyond one frame's worth use the
//! §5.2 rendezvous — request, grant, data — which also means the deadlock
//! of Figure 7 is reproducible here by design: two peers that both send
//! large messages before either receives will block forever ("the
//! responsibility to avoid a deadlock lies on the user").

use bytes::Bytes;
use simnet::emp_trace::EventKind;
use simnet::{NetError, OpResult, ProcessCtx};

use crate::conn::{DataSlot, SockShared};
use crate::proto::{Msg, DATA_HEADER, HEADER};
use crate::stream::ok_or_return;

impl SockShared {
    /// Send one datagram. Small messages go eagerly (EMP retransmission
    /// covers the no-descriptor race); large ones rendezvous.
    pub(crate) fn dgram_send(&self, ctx: &ProcessCtx, data: &[u8]) -> OpResult<usize> {
        self.trace(ctx, EventKind::SockWriteStart, data.len() as u64, 0);
        ctx.delay(self.proc_.cfg.dgram_overhead)?;
        ok_or_return!(self.reap_sends());
        {
            let i = self.inner.borrow();
            if i.core.closed || i.core.write_closed {
                return Ok(Err(NetError::Closed));
            }
            // A received Close may be a half-close; writes flow until
            // sends actually fail (`reap_sends`).
        }
        if data.len() <= self.proc_.cfg.dgram_eager_max {
            let msg = Msg::Data {
                piggyback: 0,
                seq: self.inner.borrow_mut().core.claim_tx_seq(),
                payload: Bytes::copy_from_slice(data),
            };
            let h = self.send_msg(ctx, self.tx_data_tag(), &msg)?;
            {
                let mut i = self.inner.borrow_mut();
                i.core.stats.bytes_sent += data.len() as u64;
                i.core.stats.msgs_sent += 1;
                i.inflight_sends.push(h);
            }
            return Ok(Ok(data.len()));
        }
        // Rendezvous: announce, await the grant, then send.
        self.trace(ctx, EventKind::RndvRequest, data.len() as u64, 0);
        let req = self.send_msg(
            ctx,
            self.tx_rndv_tag(),
            &Msg::RndvReq {
                size: data.len() as u32,
            },
        )?;
        self.inner.borrow_mut().inflight_sends.push(req);
        loop {
            {
                let mut i = self.inner.borrow_mut();
                if let Some(limit) = i.rndv_refused.take() {
                    return Ok(Err(NetError::TooBig {
                        size: data.len(),
                        limit,
                    }));
                }
                if i.rndv_granted {
                    i.rndv_granted = false;
                    break;
                }
                if i.core.peer_closed {
                    return Ok(Err(NetError::PeerClosed));
                }
                if i.core.closed {
                    return Ok(Err(NetError::Closed));
                }
            }
            let ctrl = self.ctrl_completion();
            // Watchdog-aware wait: a peer that crashes between the request
            // and the grant must not hang the sender forever.
            ok_or_return!(self.wait_watched(ctx, &[&ctrl])?);
            ok_or_return!(self.poll_ctrl(ctx)?);
        }
        self.trace(ctx, EventKind::RndvData, data.len() as u64, 0);
        let msg = Msg::Data {
            piggyback: 0,
            seq: self.inner.borrow_mut().core.claim_tx_seq(),
            payload: Bytes::copy_from_slice(data),
        };
        let h = self.send_msg(ctx, self.tx_data_tag(), &msg)?;
        // Rendezvous sends are synchronous: the receiver's descriptor is
        // posted, so this completes without retransmission.
        let acked = self.proc_.ep.wait_send(ctx, &h)?;
        if !acked {
            self.inner.borrow_mut().core.peer_closed = true;
            return Ok(Err(NetError::PeerClosed));
        }
        {
            let mut i = self.inner.borrow_mut();
            i.core.stats.bytes_sent += data.len() as u64;
            i.core.stats.msgs_sent += 1;
            i.core.stats.rendezvous += 1;
        }
        Ok(Ok(data.len()))
    }

    /// Receive one whole datagram of up to `max` bytes, zero-copy into the
    /// (simulated) user buffer. Empty bytes = peer closed. Datagrams are
    /// delivered in send order: a message that overtook an earlier one on
    /// a reordering fabric parks in the reorder buffer until the gap fills.
    /// Without `block` the call still posts the user-buffer descriptor
    /// (so a later poll has something to wake on) and answers rendezvous
    /// requests, but returns [`NetError::WouldBlock`] where a blocking
    /// receive would park.
    pub(crate) fn dgram_recv(&self, ctx: &ProcessCtx, max: usize, block: bool) -> OpResult<Bytes> {
        ctx.delay(self.proc_.cfg.dgram_overhead)?;
        loop {
            // 0. Serve the next-in-order datagram if it already arrived
            // (ahead of sequence, parked by a previous iteration).
            let parked = {
                let mut i = self.inner.borrow_mut();
                if i.core.closed {
                    return Ok(Err(NetError::Closed));
                }
                i.core.next_dgram()
            };
            if let Some(payload) = parked {
                self.trace(ctx, EventKind::SockReadEnd, payload.len() as u64, 0);
                return Ok(Ok(payload));
            }
            // 1. Post the user-buffer descriptor if none is outstanding.
            if self.inner.borrow().dgram_data.is_none() {
                let range = self.inner.borrow().user_range;
                let handle = self.proc_.ep.post_recv(
                    ctx,
                    self.rx_data_tag(),
                    Some(self.peer),
                    max + DATA_HEADER,
                    range,
                )?;
                self.inner.borrow_mut().dgram_data = Some(DataSlot { handle, range });
            }
            // 2. Data landed?
            let data_done = {
                let i = self.inner.borrow();
                i.dgram_data.as_ref().is_some_and(|d| d.handle.is_done())
            };
            if data_done {
                let slot = self.inner.borrow_mut().dgram_data.take().expect("checked");
                let Some(msg) = self.proc_.ep.wait_recv(ctx, &slot.handle)? else {
                    return Ok(Err(NetError::Closed));
                };
                let parsed = ok_or_return!(Msg::decode(&msg.data));
                let Msg::Data { seq, payload, .. } = parsed else {
                    return Ok(Err(NetError::Protocol("non-data message on data tag")));
                };
                let next = self.inner.borrow_mut().core.on_dgram(seq, payload);
                if let Some(payload) = next {
                    self.trace(ctx, EventKind::SockReadEnd, payload.len() as u64, 0);
                    return Ok(Ok(payload));
                }
                // Out of order: repost (top of loop) and keep waiting for
                // the gap message, which EMP is still retransmitting.
                continue;
            }
            // 3. Rendezvous request?
            let rndv_done = {
                let i = self.inner.borrow();
                i.rndv_handle.as_ref().is_some_and(|h| h.is_done())
            };
            if rndv_done {
                ok_or_return!(self.serve_rndv_request(ctx, max)?);
                continue;
            }
            if !block {
                // Drain a close notification a poll may not have consumed
                // yet: a nonblocking receive never parks below, which is
                // where a blocking one drains it.
                ok_or_return!(self.poll_ctrl(ctx)?);
            }
            // 4. Peer closed and every announced datagram delivered?
            {
                let i = self.inner.borrow();
                if i.core.peer_drained() {
                    return Ok(Ok(Bytes::new()));
                }
                if !block {
                    // Look again if more landed while control drained.
                    if i.ctrl_handle.as_ref().is_some_and(|h| h.is_done())
                        || i.dgram_data.as_ref().is_some_and(|d| d.handle.is_done())
                    {
                        continue;
                    }
                    return Ok(Err(NetError::WouldBlock));
                }
            }
            // 5. Block on data, rendezvous request, or control (with the
            // ack-starvation watchdog when configured).
            let (data_c, rndv_c) = {
                let i = self.inner.borrow();
                (
                    i.dgram_data
                        .as_ref()
                        .map(|d| d.handle.completion().clone())
                        .expect("posted above"),
                    i.rndv_handle.as_ref().map(|h| h.completion().clone()),
                )
            };
            let ctrl = self.ctrl_completion();
            let mut watch = vec![&data_c, &ctrl];
            if let Some(r) = &rndv_c {
                watch.push(r);
            }
            ok_or_return!(self.wait_watched(ctx, &watch)?);
            ok_or_return!(self.poll_ctrl(ctx)?);
        }
    }

    /// Answer a rendezvous request while a receive of capacity `max` is
    /// posted: grant if it fits, refuse otherwise; repost the request
    /// descriptor either way.
    fn serve_rndv_request(&self, ctx: &ProcessCtx, max: usize) -> OpResult<()> {
        let handle = self
            .inner
            .borrow_mut()
            .rndv_handle
            .take()
            .expect("caller checked rndv handle");
        let Some(msg) = self.proc_.ep.wait_recv(ctx, &handle)? else {
            return Ok(Ok(()));
        };
        let parsed = ok_or_return!(Msg::decode(&msg.data));
        let Msg::RndvReq { size } = parsed else {
            return Ok(Err(NetError::Protocol(
                "non-rendezvous message on rendezvous tag",
            )));
        };
        // Repost the request descriptor for the next sender (§5.2: "posts
        // two descriptors - one for the expected data message and the
        // other for the next request").
        let range = self.inner.borrow().rndv_range;
        let new_handle =
            self.proc_
                .ep
                .post_recv(ctx, self.rx_rndv_tag(), Some(self.peer), HEADER, range)?;
        self.inner.borrow_mut().rndv_handle = Some(new_handle);
        let reply = if size as usize <= max {
            self.trace(ctx, EventKind::RndvAck, u64::from(size), 0);
            Msg::RndvAck
        } else {
            Msg::RndvNak { limit: max as u32 }
        };
        let h = self.send_msg(ctx, self.tx_ctrl_tag(), &reply)?;
        self.inner.borrow_mut().inflight_sends.push(h);
        Ok(Ok(()))
    }
}

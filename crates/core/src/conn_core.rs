//! The stream credit protocol as a pure state machine (DESIGN §12):
//! [`ConnCore`] holds one side's flow-control state and makes every
//! decision over it, performing nothing — no host time, NIC call, lock or
//! trace. Its driver, `SockShared`, performs the answers. Generic over a
//! descriptor's range type, so the explorer below runs two cores over an
//! abstract NIC with integer ranges.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

/// Data descriptors each direction of a stream connection starts with
/// when its connect announced window growth (`piggyback_acks`). A
/// request/response connection never has more than one message
/// unconsumed, so two serve it for life; a stream uses both on its second
/// message and grows to N then. Larger starting windows bring back the
/// per-connection posting and unposting that saturate an accept storm
/// (`overload_goodput_degrades_gracefully_past_saturation`: 3, 4 and 8
/// fail it, 2 passes at 0.806).
pub(crate) const INITIAL_WINDOW: u32 = 2;

/// Per-connection substrate counters, mirroring what a production sockets
/// library exposes for diagnosis (`getsockopt`-style).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ConnStats {
    /// User bytes written on this connection.
    pub bytes_sent: u64,
    /// User bytes read on this connection.
    pub bytes_received: u64,
    /// Substrate data messages sent.
    pub msgs_sent: u64,
    /// Substrate data messages consumed.
    pub msgs_received: u64,
    /// Explicit flow-control acknowledgments sent.
    pub fcacks_sent: u64,
    /// Credit returns that rode on data messages (§6.1 piggy-back).
    pub piggybacked_credits: u64,
    /// Times a write blocked waiting for credits.
    pub credit_stalls: u64,
    /// Rendezvous round trips performed (datagram large sends).
    pub rendezvous: u64,
    /// §6.2 temp-buffer copies skipped by receiver-posted direct delivery.
    pub copies_avoided: u64,
    /// User bytes delivered straight into the reader's buffer.
    pub bytes_direct: u64,
    /// Writes absorbed into the coalescing staging buffer.
    pub writes_coalesced: u64,
    /// Coalesced flushes (substrate messages carrying staged writes).
    pub coalesce_flushes: u64,
    /// Staging deadlines that sent nothing and re-armed because a full
    /// substrate message of this connection was still unacknowledged.
    pub stage_deferrals: u64,
    /// Consumed data descriptors re-armed by the send that returned their
    /// credits (§6.1 piggy-backing on; the presets repost at consume time).
    pub rearms_ridden: u64,
    /// Credits returned with piggy-backing on whose descriptor the same
    /// send did not re-arm (or, for a window's growth, post). Zero by
    /// construction.
    pub credits_without_rearm: u64,
    /// Times this side's receive window grew from two to N: at most once
    /// per connection, when its sender first used the whole window.
    pub window_grows: u64,
    /// New data descriptors the window's growth posted (N − 2 per grow),
    /// each in the request of the send that returned its credit. Not
    /// re-arms: none of them was ever consumed.
    pub window_grants: u64,
    /// Connections whose first write travelled inside the connection
    /// request (at most 1, counted on the connecting side).
    pub conn_riders: u64,
}

impl std::ops::AddAssign for ConnStats {
    fn add_assign(&mut self, o: ConnStats) {
        self.bytes_sent += o.bytes_sent;
        self.bytes_received += o.bytes_received;
        self.msgs_sent += o.msgs_sent;
        self.msgs_received += o.msgs_received;
        self.fcacks_sent += o.fcacks_sent;
        self.piggybacked_credits += o.piggybacked_credits;
        self.credit_stalls += o.credit_stalls;
        self.rendezvous += o.rendezvous;
        self.copies_avoided += o.copies_avoided;
        self.bytes_direct += o.bytes_direct;
        self.writes_coalesced += o.writes_coalesced;
        self.coalesce_flushes += o.coalesce_flushes;
        self.stage_deferrals += o.stage_deferrals;
        self.rearms_ridden += o.rearms_ridden;
        self.credits_without_rearm += o.credits_without_rearm;
        self.window_grows += o.window_grows;
        self.window_grants += o.window_grants;
        self.conn_riders += o.conn_riders;
    }
}

/// Credits one message returns to the peer and, with piggy-backing on,
/// the ranges of the consumed data descriptors the same send re-arms;
/// after a growth, also the ranges of the new descriptors it posts.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct CreditReturn<R> {
    pub(crate) credits: u16,
    pub(crate) rearms: Vec<R>,
    pub(crate) grants: Vec<R>,
}

/// Why the core refuses an operation: the `NetError` of the same name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Refusal {
    Closed,
    Exhausted,
    PeerClosed,
    WouldBlock,
}

/// The configuration the core decides with, fixed at establish.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct CoreCfg {
    /// N: the largest receive window either direction reaches.
    pub(crate) n: u32,
    pub(crate) ack_threshold: u32,
    /// §6.1 piggy-backing, with re-arms riding the credit return.
    pub(crate) piggyback: bool,
    /// Largest substrate message payload (the temp-buffer size).
    pub(crate) buf_size: usize,
    pub(crate) send_copy_threshold: usize,
    pub(crate) stage_below: usize,
    /// Staged bytes that force a flush: one substrate message at most.
    pub(crate) stage_capacity: usize,
    /// Largest first write that rides the connection request.
    pub(crate) first_max: usize,
    pub(crate) reorder_cap: Option<usize>,
}

/// Who sends a held connection request (see [`ConnCore::claim_request`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Request {
    NotHeld,
    /// The caller sends it bare, then carries on.
    Bare,
    /// The caller sends it with the write aboard as data message 0.
    Rides,
}

/// What a staging deadline does (see [`ConnCore::deadline`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Deadline {
    Skip,
    /// Re-arm for the same episode.
    Defer,
    /// A credit is spent: send what is staged.
    Send,
}

/// A staging episode's end: the staged bytes and their message's header.
pub(crate) struct Flush<R> {
    pub(crate) payload: Bytes,
    pub(crate) writes: u64,
    pub(crate) ret: CreditReturn<R>,
    pub(crate) seq: u32,
}

/// What consuming one data message decided (see [`ConnCore::on_data`]).
pub(crate) struct Consumed<R> {
    /// Without piggy-backing: the descriptor to repost now.
    pub(crate) repost: Option<R>,
    /// The payload, handed straight to the posted reader.
    pub(crate) direct: Option<Bytes>,
    /// An explicit return due now; its credits include a growth's.
    pub(crate) ret: Option<CreditReturn<R>>,
    /// New descriptors that return must post.
    pub(crate) grant: u32,
    /// With piggy-backing on and no return due: the credits accrued.
    pub(crate) delayed: Option<u32>,
}

/// One side of a stream connection's flow-control state (DESIGN §12).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ConnCore<R> {
    cfg: CoreCfg,
    /// Credits available to send (§6.1).
    pub(crate) credits: u32,
    /// The peer's receive window for this side, as last announced.
    /// `peer_window - credits` credits are out.
    pub(crate) peer_window: u32,
    /// This side's receive window: the data descriptors it keeps, posted
    /// or in `rearms`. [`INITIAL_WINDOW`] or N; grows to N at most once.
    pub(crate) window: u32,
    /// Messages consumed since the last credit return.
    pub(crate) consumed: u32,
    /// With piggy-backing on, those messages' descriptors, each waiting
    /// for the send that returns its credit to re-arm it.
    pub(crate) rearms: Vec<R>,
    tx_seq: u32,
    rx_next_seq: u32,
    /// Payloads that arrived ahead of sequence, parked until the gap fills.
    pub(crate) rx_ooo: BTreeMap<u32, Bytes>,
    /// Data messages the peer sent before its `Close`.
    peer_final_seq: Option<u32>,
    /// Reassembled byte stream awaiting `read()`.
    stream: VecDeque<Bytes>,
    pub(crate) stream_len: usize,
    /// Staged small writes (the send half of `CopyPolicy`) and their count.
    pub(crate) staged: Vec<u8>,
    staged_writes: u64,
    /// Flushes so far. A deadline carries the value its first staged byte
    /// saw; a flush in between makes it a no-op.
    stage_episode: u64,
    /// `connect()` held the request back for the first operation.
    req_held: bool,
    pub(crate) peer_closed: bool,
    /// The reorder cap tripped: the stream cannot be delivered intact, so
    /// every later operation fails with `Exhausted`.
    pub(crate) poisoned: bool,
    /// Local write side shut down (half-close); reads keep working.
    pub(crate) write_closed: bool,
    pub(crate) closed: bool,
    pub(crate) stats: ConnStats,
}

impl<R: Copy> ConnCore<R> {
    /// A side at establish, its window's descriptors posted. With
    /// `grows_window` (announced by the client, adopted by the acceptor)
    /// both directions' windows start at [`INITIAL_WINDOW`].
    pub(crate) fn new(cfg: CoreCfg, grows_window: bool) -> Self {
        let window = if grows_window {
            INITIAL_WINDOW.min(cfg.n)
        } else {
            cfg.n
        };
        ConnCore {
            cfg,
            credits: window,
            peer_window: window,
            window,
            consumed: 0,
            rearms: Vec::new(),
            tx_seq: 0,
            rx_next_seq: 0,
            rx_ooo: BTreeMap::new(),
            peer_final_seq: None,
            stream: VecDeque::new(),
            stream_len: 0,
            staged: Vec::new(),
            staged_writes: 0,
            stage_episode: 0,
            req_held: false,
            peer_closed: false,
            poisoned: false,
            write_closed: false,
            closed: false,
            stats: ConnStats::default(),
        }
    }

    // ---- connect ----

    /// A non-blocking connect under the §6.1 switch holds its request.
    pub(crate) fn hold_request(&mut self) {
        self.req_held = true;
    }

    /// The first operation claims a held request. `write` is the length
    /// of a blocking write, the only operation a request carries: 1..=
    /// `first_max` bytes ride as data message 0, spending no credit. The
    /// claim and seq 0 are one step, so an operation of another process
    /// during the rider's charges finds the request gone.
    pub(crate) fn claim_request(&mut self, write: Option<usize>) -> Request {
        if !std::mem::take(&mut self.req_held) {
            return Request::NotHeld;
        }
        match write {
            Some(len) if (1..=self.cfg.first_max).contains(&len) => {
                let (ret, seq) = self.begin_msg(len);
                debug_assert!(seq == 0 && ret.credits == 0, "nothing precedes a rider");
                self.stats.conn_riders += 1;
                Request::Rides
            }
            _ => Request::Bare,
        }
    }

    /// Accept side of a rider: data message 0, no descriptor, no credit.
    pub(crate) fn accept_first(&mut self, first: Bytes) {
        self.rx_next_seq = 1;
        self.stats.msgs_received += 1;
        self.push_stream(first);
    }

    // ---- write ----

    /// A write fails on a closed, shut down or poisoned side. A received
    /// `Close` does not fail it: the peer may only have shut down writing.
    pub(crate) fn check_writable(&self) -> Result<(), Refusal> {
        if self.closed || self.write_closed {
            return Err(Refusal::Closed);
        }
        if self.poisoned {
            return Err(Refusal::Exhausted);
        }
        Ok(())
    }

    /// Would a write make progress now? With credits in hand, and in every
    /// error state (the write fails at once — POSIX `POLLOUT`).
    pub(crate) fn writable(&self) -> bool {
        self.credits > 0 || self.peer_closed || self.write_closed || self.closed || self.poisoned
    }

    /// Spend one credit: `Ok(true)`. With none, `PeerClosed` once the peer
    /// closed, `WouldBlock` without `block`, else a counted stall.
    pub(crate) fn spend(&mut self, block: bool) -> Result<bool, Refusal> {
        if self.credits > 0 {
            self.credits -= 1;
            return Ok(true);
        }
        if self.peer_closed {
            return Err(Refusal::PeerClosed);
        }
        if !block {
            return Err(Refusal::WouldBlock);
        }
        self.stats.credit_stalls += 1;
        Ok(false)
    }

    /// Give back a spent credit whose send did not happen.
    pub(crate) fn refund(&mut self) {
        self.credits += 1;
    }

    /// Open one outgoing data message, claiming its sequence number: with
    /// piggy-backing on it carries the credit return due with its re-arms.
    /// It adds `user_bytes` to `bytes_sent` (staged bytes count earlier).
    pub(crate) fn begin_msg(&mut self, user_bytes: usize) -> (CreditReturn<R>, u32) {
        let ret = if self.cfg.piggyback {
            self.take_return()
        } else {
            CreditReturn {
                credits: 0,
                rearms: Vec::new(),
                grants: Vec::new(),
            }
        };
        self.stats.bytes_sent += user_bytes as u64;
        self.stats.msgs_sent += 1;
        self.stats.piggybacked_credits += u64::from(ret.credits);
        (ret, self.claim_tx_seq())
    }

    pub(crate) fn claim_tx_seq(&mut self) -> u32 {
        self.tx_seq += 1;
        self.tx_seq - 1
    }

    /// Data messages sent so far: what a `Close` announces.
    pub(crate) fn final_seq(&self) -> u32 {
        self.tx_seq
    }

    /// Bytes at the end of a `len`-byte blocking write sent as one copied
    /// message the write does not wait for: under a staging policy the
    /// last `send_copy_threshold` of a longer write, else none.
    pub(crate) fn copied_tail(&self, len: usize) -> usize {
        let c = &self.cfg;
        if c.stage_below > 0 && len > c.send_copy_threshold {
            c.send_copy_threshold.min(c.buf_size)
        } else {
            0
        }
    }

    /// Is a `len`-byte write small enough to stage: no more than the
    /// send-copy rule copies anyway, nor than one message?
    pub(crate) fn stage_fits(&self, len: usize) -> bool {
        let c = &self.cfg;
        len > 0
            && len
                <= c.stage_below
                    .min(c.send_copy_threshold)
                    .min(c.stage_capacity)
    }

    /// Does a write that fits stage? Not when it would wait alone, with
    /// nothing staged and nothing `in_flight` (Nagle's rule).
    pub(crate) fn stages(&self, in_flight: bool) -> bool {
        !self.staged.is_empty() || in_flight
    }

    /// Would `len` more bytes overflow one staged message?
    pub(crate) fn stage_overflows(&self, len: usize) -> bool {
        self.staged.len() + len > self.cfg.stage_capacity
    }

    /// Stage `data`: the bytes now staged and, for the first of an
    /// episode, the episode its deadline must carry.
    pub(crate) fn stage(&mut self, data: &[u8]) -> (usize, Option<u64>) {
        let first_of = self.staged.is_empty().then_some(self.stage_episode);
        self.staged.extend_from_slice(data);
        self.staged_writes += 1;
        self.stats.writes_coalesced += 1;
        self.stats.bytes_sent += data.len() as u64;
        (self.staged.len(), first_of)
    }

    /// After staging: `(full, flush)` — the bytes must go now, full or
    /// under credit pressure (the peer is about to stop granting).
    pub(crate) fn stage_flush_due(&self) -> (bool, bool) {
        let full = self.staged.len() >= self.cfg.stage_capacity;
        (full, full || self.credits <= 1)
    }

    /// The deadline of `episode` fired with `unacked` bytes of this side's
    /// sends unacknowledged. Skip when a flush ended the episode, or with
    /// no credit (the owner is parked on these bytes); defer while a full
    /// message is unacknowledged; else spend a credit.
    pub(crate) fn deadline(&mut self, episode: u64, unacked: usize) -> Deadline {
        if self.stage_episode != episode || self.credits == 0 {
            return Deadline::Skip;
        }
        if unacked >= self.cfg.stage_capacity {
            self.stats.stage_deferrals += 1;
            return Deadline::Defer;
        }
        self.credits -= 1;
        Deadline::Send
    }

    /// End the staging episode, a credit spent; `None` (credit refunded)
    /// when the owner or the deadline got here first.
    pub(crate) fn take_staged(&mut self) -> Option<Flush<R>> {
        if self.staged.is_empty() {
            self.refund();
            return None;
        }
        self.stage_episode += 1;
        self.stats.coalesce_flushes += 1;
        let payload = Bytes::from(std::mem::take(&mut self.staged));
        let writes = std::mem::take(&mut self.staged_writes);
        let (ret, seq) = self.begin_msg(0);
        Some(Flush {
            payload,
            writes,
            ret,
            seq,
        })
    }

    // ---- receive ----

    /// Consume the data message that landed in the descriptor of `range`,
    /// whatever the arrival order: a payload ahead of sequence parks until
    /// the gap fills, or past the reorder cap poisons the side (it was
    /// EMP-acked; dropping it would corrupt the stream). With `direct_max`
    /// (a posted reader's empty buffer) the next payload that fits an
    /// empty stream goes straight to it. A return is due after
    /// `ack_threshold` messages (§6.3) unless a write carried it first
    /// (§6.1) — or at once when a window below N is used up: its sender
    /// holds no credit, and the return grows the window to N.
    pub(crate) fn on_data(
        &mut self,
        range: R,
        piggyback: u16,
        seq: u32,
        payload: Bytes,
        direct_max: Option<usize>,
    ) -> Consumed<R> {
        let mut out = Consumed {
            repost: None,
            direct: None,
            ret: None,
            grant: 0,
            delayed: None,
        };
        if self.cfg.piggyback {
            self.rearms.push(range);
        } else {
            out.repost = Some(range);
        }
        self.credits += u32::from(piggyback);
        self.stats.msgs_received += 1;
        if seq == self.rx_next_seq {
            self.rx_next_seq += 1;
            if self.stream_len == 0
                && !payload.is_empty()
                && direct_max.is_some_and(|m| payload.len() <= m)
            {
                self.stats.copies_avoided += 1;
                self.stats.bytes_direct += payload.len() as u64;
                self.stats.bytes_received += payload.len() as u64;
                out.direct = Some(payload);
            } else {
                self.push_stream(payload);
            }
            while let Some(parked) = self.rx_ooo.remove(&self.rx_next_seq) {
                self.rx_next_seq += 1;
                self.push_stream(parked);
            }
        } else if seq > self.rx_next_seq {
            let over = self.cfg.reorder_cap.is_some_and(|cap| {
                self.rx_ooo.values().map(Bytes::len).sum::<usize>() + payload.len() > cap
            });
            if over {
                self.poisoned = true;
            } else {
                self.rx_ooo.insert(seq, payload);
            }
        }
        // An older seq would be a duplicate, which EMP's dedup rules out.
        self.consumed += 1;
        let used_up = self.window < self.cfg.n && self.consumed >= self.window;
        if used_up || self.consumed >= self.cfg.ack_threshold {
            let mut ret = self.take_return();
            if used_up {
                out.grant = self.cfg.n - self.window;
                self.window = self.cfg.n;
                self.stats.window_grows += 1;
                ret.credits += out.grant as u16;
            }
            out.ret = Some(ret);
        } else if self.cfg.piggyback {
            out.delayed = Some(self.consumed);
        }
        out
    }

    /// Take the credit return due: every credit consumed since the last
    /// one, with the descriptors to re-arm.
    pub(crate) fn take_return(&mut self) -> CreditReturn<R> {
        CreditReturn {
            credits: std::mem::take(&mut self.consumed) as u16,
            rearms: std::mem::take(&mut self.rearms),
            grants: Vec::new(),
        }
    }

    /// Book a send of `ret` that re-armed or posted `posted` descriptors.
    pub(crate) fn rearmed(&mut self, ret: &CreditReturn<R>, posted: usize) {
        if self.cfg.piggyback {
            self.stats.rearms_ridden += ret.rearms.len() as u64;
            self.stats.credits_without_rearm +=
                u64::from(ret.credits).saturating_sub(posted as u64);
        }
        self.stats.window_grants += ret.grants.len() as u64;
    }

    /// A flow-control ack: its credits, and whether its return grew the
    /// peer's window to N.
    pub(crate) fn on_fcack(&mut self, credits: u16, grew_window: bool) {
        self.credits += u32::from(credits);
        if grew_window {
            self.peer_window = self.cfg.n;
        }
    }

    /// Serve up to `max` buffered stream bytes; `None` with none buffered.
    pub(crate) fn read(&mut self, max: usize) -> Result<Option<Bytes>, Refusal> {
        if self.closed {
            return Err(Refusal::Closed);
        }
        if self.poisoned {
            return Err(Refusal::Exhausted);
        }
        if self.stream_len == 0 {
            return Ok(None);
        }
        let mut out = Vec::with_capacity(max.min(self.stream_len));
        while out.len() < max {
            let Some(mut chunk) = self.stream.pop_front() else {
                break;
            };
            let want = max - out.len();
            if chunk.len() > want {
                self.stream.push_front(chunk.split_off(want));
            }
            out.extend_from_slice(&chunk);
        }
        self.stream_len -= out.len();
        Ok(Some(Bytes::from(out)))
    }

    /// Would a read return without blocking, from this state alone?
    pub(crate) fn readable(&self) -> bool {
        self.stream_len > 0 || self.peer_drained() || self.closed || self.poisoned
    }

    /// The peer closed and every data message it announced was delivered
    /// in order: reads surface EOF. One that vanished without a `Close`
    /// announced no count; EOF is immediate then.
    pub(crate) fn peer_drained(&self) -> bool {
        self.peer_closed && self.peer_final_seq.is_none_or(|f| self.rx_next_seq >= f)
    }

    /// The peer's `Close` arrived, announcing `final_seq` data messages.
    pub(crate) fn on_close(&mut self, final_seq: u32) {
        self.peer_closed = true;
        self.peer_final_seq = Some(final_seq);
    }

    /// A datagram arrived: deliver the next one in send order, if here.
    pub(crate) fn on_dgram(&mut self, seq: u32, payload: Bytes) -> Option<Bytes> {
        if seq >= self.rx_next_seq {
            self.rx_ooo.insert(seq, payload);
        }
        self.next_dgram()
    }

    /// Deliver the next datagram in send order if it has arrived.
    pub(crate) fn next_dgram(&mut self) -> Option<Bytes> {
        let payload = self.rx_ooo.remove(&self.rx_next_seq)?;
        self.rx_next_seq += 1;
        self.stats.bytes_received += payload.len() as u64;
        self.stats.msgs_received += 1;
        Some(payload)
    }

    fn push_stream(&mut self, payload: Bytes) {
        self.stream_len += payload.len();
        self.stream.push_back(payload);
    }

    // ---- close ----

    /// Close this side: `true` if it already was. Descriptors waiting for
    /// a re-arm never get one; the caller recycles `take_return().rearms`.
    pub(crate) fn close(&mut self) -> bool {
        std::mem::replace(&mut self.closed, true)
    }

    /// Shut the write side: `true` if it already was, or the side closed.
    pub(crate) fn shutdown_write(&mut self) -> bool {
        std::mem::replace(&mut self.write_closed, true) || self.closed
    }

    /// How far `posted` descriptors plus `rearms` are from the window:
    /// zero, except on a poisoned side, which recycles what it consumed.
    pub(crate) fn window_unaccounted(&self, posted: usize) -> u64 {
        if self.poisoned {
            return 0;
        }
        (posted + self.rearms.len()).abs_diff(self.window as usize) as u64
    }
}

#[cfg(test)]
mod tests {
    //! A breadth-first explorer: two cores joined by an abstract NIC, each
    //! driven by a script of blocking writes and reads and a close, with
    //! every interleaving of their steps, the NIC's deliveries in any
    //! order, and the staging deadline free to fire at any step. A
    //! write's decision and its send are separate steps, so another
    //! operation on the same side (the connection's second process, or
    //! the deadline) can run between them. Every reachable state is
    //! checked against §6.1's invariants; afterwards a backward pass over
    //! the explored graph checks that every state can still finish.

    use std::collections::hash_map::Entry;
    use std::collections::{HashMap, VecDeque};
    use std::hash::{BuildHasherDefault, Hash, Hasher};

    use super::*;
    use crate::config::SocketType;
    use crate::proto::Msg;

    /// One substrate message holds this many bytes in the model.
    const BUF: usize = 4;

    /// The four stream configurations; `ds_da()` and `ds_da_uq()` differ
    /// only in how the driver receives an ack, not in the core.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Preset {
        Ds,
        DsDa,
        DsDaUq,
        Default,
    }
    const PRESETS: [Preset; 4] = [Preset::Ds, Preset::DsDa, Preset::DsDaUq, Preset::Default];

    fn cfg(p: Preset, n: u32) -> CoreCfg {
        let delayed = p != Preset::Ds;
        CoreCfg {
            n,
            ack_threshold: if delayed { (n / 2).max(1) } else { 1 },
            piggyback: p == Preset::Default,
            buf_size: BUF,
            send_copy_threshold: BUF / 2,
            stage_below: if p == Preset::Default { usize::MAX } else { 0 },
            stage_capacity: if p == Preset::Default { BUF } else { 0 },
            first_max: BUF / 2,
            reorder_cap: None,
        }
    }

    /// Byte `i` of either direction's stream.
    fn pattern(from: usize, len: usize) -> Bytes {
        Bytes::from((from..from + len).map(|i| i as u8).collect::<Vec<u8>>())
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Op {
        Write(usize),
        Read(usize),
        Close,
    }

    /// Where the current operation is: a write's staging and chunk phases,
    /// a read call's prologue (the request, the flush-on-read).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum At {
        Start,
        /// Flush staged bytes before a larger write, then send from `off`.
        FlushThenChunks,
        Chunk {
            off: usize,
        },
        /// A staging write whose bytes overflow the staged message.
        FlushThenStage,
        Stage,
        /// Staged bytes that must go now (full, or credit pressure).
        FlushAfterStage,
        /// A read call, after its prologue.
        Pull,
    }

    /// A data message in its descriptor: piggy-backed credits, seq, bytes.
    type Landed = (u16, u32, Bytes);

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum Wire {
        /// The encoded connection request.
        Req(Bytes),
        Data {
            piggyback: u16,
            seq: u32,
            payload: Bytes,
        },
        FcAck {
            credits: u16,
            grew: bool,
        },
        Close(u32),
    }

    /// A decided send, waiting for the process to perform it.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum Out {
        Req(Bytes),
        Data(CreditReturn<u8>, u32, Bytes),
        FcAck(CreditReturn<u8>),
        Close(u32),
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Side {
        core: Option<ConnCore<u8>>,
        /// Posted data descriptors in completion order, landed or not.
        slots: VecDeque<(u8, Option<Landed>)>,
        next_range: u8,
        op: usize,
        at: At,
        out: VecDeque<Out>,
        /// Armed staging deadlines, by episode.
        timers: Vec<u64>,
        written: usize,
        read: usize,
        /// Connection requests (server) or riders (client) delivered.
        reqs: u8,
        riders: u8,
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct State {
        sides: [Side; 2],
        /// Messages on the wire toward side `i`, delivered in any order.
        wire: [Vec<Wire>; 2],
        /// The client's second process has made its first operation.
        raced: bool,
    }

    struct World {
        cfgs: [CoreCfg; 2],
        scripts: [Vec<Op>; 2],
        /// The client's connect holds its request for the first operation.
        holds: bool,
    }

    impl Side {
        /// A side not yet established.
        fn new() -> Self {
            Side {
                core: None,
                slots: VecDeque::new(),
                next_range: 0,
                op: 0,
                at: At::Start,
                out: VecDeque::new(),
                timers: Vec::new(),
                written: 0,
                read: 0,
                reqs: 0,
                riders: 0,
            }
        }

        fn establish(&mut self, core: ConnCore<u8>) {
            for _ in 0..core.window {
                self.post();
            }
            self.core = Some(core);
        }

        fn post(&mut self) {
            self.slots.push_back((self.next_range, None));
            self.next_range += 1;
        }

        fn core(&mut self) -> &mut ConnCore<u8> {
            self.core.as_mut().expect("established")
        }

        fn has_credit(&self) -> bool {
            self.core.as_ref().is_some_and(|c| c.credits > 0)
        }

        /// Spend a credit and end the staging episode into a send.
        fn flush(&mut self) {
            let c = self.core();
            assert_eq!(c.spend(true), Ok(true));
            if let Some(f) = c.take_staged() {
                self.out.push_back(Out::Data(f.ret, f.seq, f.payload));
            }
        }

        fn next_op(&mut self) {
            self.op += 1;
            self.at = At::Start;
        }
    }

    impl State {
        /// Bytes of `side`'s data messages the peer has not yet taken in,
        /// and whether any message of `side` is still on the wire.
        fn in_flight(&self, side: usize) -> (usize, bool) {
            let wire = &self.wire[1 - side];
            let unacked = wire
                .iter()
                .map(|w| match w {
                    Wire::Data { payload, .. } => payload.len(),
                    _ => 0,
                })
                .sum();
            (unacked, !wire.is_empty())
        }

        /// Perform `side`'s next decided send: the NIC re-arms or posts the
        /// return's descriptors, then the message leaves.
        fn send(&mut self, side: usize) {
            let s = &mut self.sides[side];
            let wire = match s.out.pop_front().expect("a send is due") {
                Out::Req(req) => Wire::Req(req),
                Out::Close(f) => Wire::Close(f),
                Out::Data(ret, seq, payload) => {
                    let piggyback = ret.credits;
                    rearm(s, &ret);
                    Wire::Data {
                        piggyback,
                        seq,
                        payload,
                    }
                }
                Out::FcAck(ret) => {
                    let grew = !ret.grants.is_empty();
                    let credits = ret.credits;
                    rearm(s, &ret);
                    Wire::FcAck { credits, grew }
                }
            };
            self.wire[1 - side].push(wire);
        }
    }

    fn rearm(s: &mut Side, ret: &CreditReturn<u8>) {
        for r in ret.rearms.iter().chain(&ret.grants) {
            s.slots.push_back((*r, None));
        }
        let posted = ret.rearms.len() + ret.grants.len();
        s.core().rearmed(ret, posted);
    }

    /// Why a state is wrong.
    type Violation = String;

    impl World {
        fn initial(&self) -> State {
            let mut client = ConnCore::new(self.cfgs[0], self.cfgs[0].piggyback);
            if self.holds {
                client.hold_request();
            }
            let mut sides = [Side::new(), Side::new()];
            sides[0].establish(client);
            if !self.holds {
                sides[0].out.push_back(Out::Req(self.request(Bytes::new())));
            }
            State {
                sides,
                wire: [Vec::new(), Vec::new()],
                raced: false,
            }
        }

        /// The client's connection request, in its wire encoding.
        fn request(&self, first: Bytes) -> Bytes {
            let c = &self.cfgs[0];
            Msg::ConnReq {
                cid: 0,
                port: 80,
                socket_type: SocketType::Stream,
                credits: c.n as u16,
                buf_size: BUF as u32,
                grows_window: c.piggyback,
                first,
            }
            .encode()
        }

        /// Every state one step from `st`.
        fn successors(&self, st: &State, next: &mut Vec<State>) -> Result<(), Violation> {
            for side in 0..2 {
                let s = &st.sides[side];
                if !s.out.is_empty() {
                    let mut n = st.clone();
                    n.send(side);
                    next.push(n);
                } else if let Some(n) = self.op_step(st, side)? {
                    next.push(n);
                }
                for k in 0..s.timers.len() {
                    let mut n = st.clone();
                    let (unacked, _) = n.in_flight(side);
                    let s = &mut n.sides[side];
                    let episode = s.timers[k];
                    let c = s.core();
                    match c.deadline(episode, unacked) {
                        Deadline::Defer => continue,
                        Deadline::Skip => {}
                        Deadline::Send => {
                            // Event context: the send is posted at once.
                            if let Some(f) = c.take_staged() {
                                rearm(s, &f.ret);
                                n.wire[1 - side].push(Wire::Data {
                                    piggyback: f.ret.credits,
                                    seq: f.seq,
                                    payload: f.payload,
                                });
                            }
                        }
                    }
                    n.sides[side].timers.remove(k);
                    next.push(n);
                }
                for k in 0..st.wire[side].len() {
                    if let Some(n) = self.deliver(st, side, k)? {
                        next.push(n);
                    }
                }
            }
            if self.holds && !st.raced {
                // The client's second process: its first operation (a
                // read) sends a request it finds held, bare, at once.
                let mut n = st.clone();
                n.raced = true;
                if n.sides[0].core().claim_request(None) == Request::Bare {
                    n.wire[1].push(Wire::Req(self.request(Bytes::new())));
                }
                next.push(n);
            }
            Ok(())
        }

        /// Deliver message `k` of the wire toward `side`, if it can land.
        fn deliver(&self, st: &State, side: usize, k: usize) -> Result<Option<State>, Violation> {
            let mut n = st.clone();
            let s = &mut n.sides[side];
            match n.wire[side][k].clone() {
                Wire::Req(raw) => {
                    s.reqs += 1;
                    if s.core.is_some() {
                        return Err("a second connection request arrived".into());
                    }
                    let Ok(Msg::ConnReq {
                        credits,
                        grows_window,
                        first,
                        ..
                    }) = Msg::decode(&raw)
                    else {
                        return Err("the request does not decode".into());
                    };
                    let c = CoreCfg {
                        n: u32::from(credits),
                        ..self.cfgs[1]
                    };
                    s.establish(ConnCore::new(c, grows_window));
                    if !first.is_empty() {
                        s.riders += 1;
                        s.core().accept_first(first);
                    }
                }
                // Before accept a message waits, as in the unexpected queue.
                _ if s.core.is_none() => return Ok(None),
                Wire::Data {
                    piggyback,
                    seq,
                    payload,
                } => {
                    if s.core.as_ref().is_some_and(|c| c.closed) {
                        return Err("data arrived after close".into());
                    }
                    let Some(slot) = s.slots.iter_mut().find(|(_, m)| m.is_none()) else {
                        return Err(format!("message {seq} found no descriptor posted"));
                    };
                    slot.1 = Some((piggyback, seq, payload));
                }
                Wire::FcAck { credits, grew } => {
                    let c = s.core();
                    if !c.closed {
                        c.on_fcack(credits, grew);
                    }
                }
                Wire::Close(f) => {
                    let c = s.core();
                    if !c.closed {
                        c.on_close(f);
                    }
                }
            }
            n.wire[side].remove(k);
            Ok(Some(n))
        }

        /// Advance `side`'s current operation by one decision, if it can
        /// make one now.
        fn op_step(&self, st: &State, side: usize) -> Result<Option<State>, Violation> {
            let script = &self.scripts[side];
            let s = &st.sides[side];
            let (Some(core), Some(&op)) = (&s.core, script.get(s.op)) else {
                return Ok(None);
            };
            let (_, in_flight) = st.in_flight(side);
            let mut n = st.clone();
            let s = &mut n.sides[side];
            match (op, s.at) {
                (Op::Write(len), At::Start) => {
                    let data = pattern(s.written, len);
                    match s.core().claim_request(Some(len)) {
                        Request::Rides => {
                            s.riders += 1;
                            s.written += len;
                            s.out.push_back(Out::Req(self.request(data)));
                            s.next_op();
                            return Ok(Some(n));
                        }
                        Request::Bare => s.out.push_back(Out::Req(self.request(Bytes::new()))),
                        Request::NotHeld => {}
                    }
                    let c = s.core();
                    s.at = if c.stage_fits(len) && c.stages(in_flight) {
                        if c.stage_overflows(len) {
                            At::FlushThenStage
                        } else {
                            At::Stage
                        }
                    } else {
                        At::FlushThenChunks
                    };
                }
                (Op::Write(_), At::FlushThenStage) => {
                    if !s.has_credit() {
                        return Ok(None);
                    }
                    s.flush();
                    s.at = At::Stage;
                }
                (Op::Write(len), At::Stage) => {
                    let data = pattern(s.written, len);
                    s.written += len;
                    let c = s.core();
                    let (_, first_of) = c.stage(&data);
                    let (_, flush) = c.stage_flush_due();
                    s.timers.extend(first_of);
                    if flush {
                        s.at = At::FlushAfterStage;
                    } else {
                        s.next_op();
                    }
                }
                (Op::Write(_), At::FlushAfterStage) => {
                    if !core.staged.is_empty() {
                        if !s.has_credit() {
                            return Ok(None);
                        }
                        s.flush();
                    }
                    s.next_op();
                }
                (Op::Write(_), At::FlushThenChunks) => {
                    if !core.staged.is_empty() {
                        if !s.has_credit() {
                            return Ok(None);
                        }
                        s.flush();
                    }
                    s.at = At::Chunk { off: 0 };
                }
                (Op::Write(len), At::Chunk { off }) => {
                    if core.check_writable().is_err() {
                        return Err("a write found its side unwritable".into());
                    }
                    if !s.has_credit() {
                        return Ok(None);
                    }
                    let head = len - core.copied_tail(len);
                    let end = if off < head { head } else { len };
                    let chunk = (end - off).min(BUF);
                    let payload = pattern(s.written + off, chunk);
                    let c = s.core();
                    assert_eq!(c.spend(true), Ok(true));
                    let (ret, seq) = c.begin_msg(chunk);
                    s.out.push_back(Out::Data(ret, seq, payload));
                    if off + chunk >= len {
                        s.written += len;
                        s.next_op();
                    } else {
                        s.at = At::Chunk { off: off + chunk };
                    }
                }
                (Op::Read(_), At::Start) => {
                    // A read call's prologue: send a held request, flush
                    // staged bytes if a credit is in hand.
                    if s.core().claim_request(None) == Request::Bare {
                        s.out.push_back(Out::Req(self.request(Bytes::new())));
                    }
                    if !core.staged.is_empty() && core.credits > 0 {
                        s.flush();
                    }
                    s.at = At::Pull;
                }
                (Op::Read(_), At::Pull) => {
                    let want = s.read_in_op(script);
                    let got = if core.stream_len > 0 {
                        s.core().read(want).expect("readable").expect("buffered")
                    } else {
                        let Some((range, Some((piggyback, seq, payload)))) =
                            s.slots.front().cloned()
                        else {
                            return Ok(None);
                        };
                        s.slots.pop_front();
                        let c = s.core();
                        let (window, consumed) = (c.window, c.consumed);
                        let took = c.on_data(range, piggyback, seq, payload, Some(want));
                        if window < c.cfg.n && consumed + 1 >= window && c.window != c.cfg.n {
                            return Err("a used-up window below N did not grow".into());
                        }
                        if let Some(r) = took.repost {
                            s.slots.push_back((r, None));
                        }
                        if let Some(mut ret) = took.ret {
                            for _ in 0..took.grant {
                                ret.grants.push(s.next_range);
                                s.next_range += 1;
                            }
                            s.out.push_back(Out::FcAck(ret));
                        }
                        match took.direct {
                            Some(d) => d,
                            None => return Ok(Some(n)),
                        }
                    };
                    if got != pattern(s.read, got.len()) {
                        return Err(format!("read {got:?} at byte {}", s.read));
                    }
                    s.read += got.len();
                    s.at = At::Start;
                    if s.read_in_op(script) == 0 {
                        s.next_op();
                    }
                }
                (Op::Close, _) => {
                    // Staged bytes go before the Close (a blocking flush).
                    if s.core().claim_request(None) == Request::Bare {
                        s.out.push_back(Out::Req(self.request(Bytes::new())));
                    }
                    if !core.staged.is_empty() {
                        if !s.has_credit() {
                            return Ok(None);
                        }
                        s.flush();
                    }
                    let posted = s.slots.len();
                    let c = s.core();
                    c.close();
                    if c.window_unaccounted(posted) != 0 {
                        return Err("close found descriptors unaccounted".into());
                    }
                    c.take_return();
                    if !c.peer_closed {
                        let f = c.final_seq();
                        s.out.push_back(Out::Close(f));
                    }
                    s.next_op();
                }
                (Op::Read(_), _) | (Op::Write(_), At::Pull) => unreachable!(),
            }
            Ok(Some(n))
        }

        /// §6.1's invariants, in one state.
        fn check(&self, st: &State) -> Result<(), Violation> {
            for side in 0..2 {
                let (me, peer) = (&st.sides[side], &st.sides[1 - side]);
                if me.reqs > 1 {
                    return Err("the connection request arrived twice".into());
                }
                let Some(c) = &me.core else { continue };
                // Receive side: posted + waiting re-arms + the re-arms and
                // grants of decided returns make up the window.
                let deciding: usize = me
                    .out
                    .iter()
                    .map(|o| match o {
                        Out::Data(r, ..) | Out::FcAck(r) => r.rearms.len() + r.grants.len(),
                        _ => 0,
                    })
                    .sum();
                if !c.closed && !c.poisoned {
                    let held = me.slots.len() + c.rearms.len() + deciding;
                    if held != c.window as usize {
                        return Err(format!(
                            "side {side} keeps {held} descriptors for a window of {}",
                            c.window
                        ));
                    }
                }
                if c.consumed >= c.cfg.ack_threshold {
                    return Err("a credit return reached its threshold unsent".into());
                }
                if c.stats.credits_without_rearm != 0 {
                    return Err("a credit left without its re-arm".into());
                }
                if c.stats.window_grows > 1 || (c.window != c.cfg.n && c.window != INITIAL_WINDOW) {
                    return Err(format!("side {side}'s window {} grew wrongly", c.window));
                }
                // Credit conservation, toward this side's window: the peer's
                // credits, its messages decided, on the wire or landed here,
                // what this side consumed, and the returns on their way.
                let Some(pc) = &peer.core else { continue };
                if c.closed || pc.closed {
                    continue;
                }
                let mut sum = pc.credits + c.consumed;
                for o in &peer.out {
                    sum += u32::from(matches!(o, Out::Data(..)));
                }
                for w in &st.wire[side] {
                    sum += u32::from(matches!(w, Wire::Data { .. }));
                }
                sum += me.slots.iter().filter(|(_, m)| m.is_some()).count() as u32;
                for o in &me.out {
                    if let Out::Data(r, ..) | Out::FcAck(r) = o {
                        sum += u32::from(r.credits);
                    }
                }
                for w in &st.wire[1 - side] {
                    if let Wire::Data { piggyback: k, .. } | Wire::FcAck { credits: k, .. } = w {
                        sum += u32::from(*k);
                    }
                }
                for (_, m) in &peer.slots {
                    if let Some((k, ..)) = m {
                        sum += u32::from(*k);
                    }
                }
                if sum != c.window {
                    return Err(format!(
                        "credits toward side {side} add up to {sum}, not its window {}",
                        c.window
                    ));
                }
            }
            Ok(())
        }

        /// Both scripts done and both sides closed, nothing on the wire,
        /// every data message the peer sent consumed, and the request
        /// and its rider delivered exactly once.
        fn finished(&self, st: &State) -> bool {
            let drained = |i: usize| {
                let (s, peer) = (&st.sides[i], &st.sides[1 - i]);
                let (Some(c), Some(pc)) = (&s.core, &peer.core) else {
                    return false;
                };
                s.op == self.scripts[i].len()
                    && s.out.is_empty()
                    && c.closed
                    && c.rx_next_seq == pc.final_seq()
                    && s.slots.iter().all(|(_, m)| m.is_none())
            };
            st.wire.iter().all(Vec::is_empty)
                && drained(0)
                && drained(1)
                && st.sides[1].reqs == 1
                && st.sides[1].riders == st.sides[0].riders
        }
    }

    impl Side {
        /// Bytes the current read operation still wants.
        fn read_in_op(&self, script: &[Op]) -> usize {
            let before: usize = script[..self.op]
                .iter()
                .map(|o| if let Op::Read(n) = o { *n } else { 0 })
                .sum();
            match script[self.op] {
                Op::Read(n) => before + n - self.read,
                _ => 0,
            }
        }
    }

    /// A multiply-rotate hasher: the explorer hashes every state it
    /// reaches, and SipHash's strength buys nothing here.
    #[derive(Default)]
    struct Fx(u64);

    impl Hasher for Fx {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for b in bytes {
                self.write_u64(u64::from(*b));
            }
        }
        fn write_u64(&mut self, v: u64) {
            self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
        fn write_u8(&mut self, v: u8) {
            self.write_u64(u64::from(v));
        }
        fn write_u16(&mut self, v: u16) {
            self.write_u64(u64::from(v));
        }
        fn write_u32(&mut self, v: u32) {
            self.write_u64(u64::from(v));
        }
        fn write_usize(&mut self, v: usize) {
            self.write_u64(v as u64);
        }
    }

    /// A 64-bit fingerprint of a state, with the counters that only count
    /// (deadline deferrals) cleared so a deferral is a self-loop. Two
    /// states sharing one would merge; at 10⁵–10⁶ states the odds are
    /// below 10⁻⁷.
    fn fingerprint(st: &mut State) -> u64 {
        for s in &mut st.sides {
            if let Some(c) = &mut s.core {
                c.stats.stage_deferrals = 0;
            }
        }
        let mut h = Fx(0);
        st.hash(&mut h);
        h.finish()
    }

    struct Explored {
        states: usize,
        edges: usize,
    }

    /// Explore every state of `world`; fail on the first violation, or on
    /// a state from which no path finishes.
    fn explore(world: &World) -> Result<Explored, Violation> {
        let mut init = world.initial();
        let mut index: HashMap<u64, u32, BuildHasherDefault<Fx>> = HashMap::default();
        index.insert(fingerprint(&mut init), 0);
        let mut queue = VecDeque::from([(init, 0u32)]);
        let mut preds: Vec<Vec<u32>> = vec![Vec::new()];
        let mut done: Vec<bool> = vec![false];
        let mut edges = 0;
        let mut next = Vec::new();
        while let Some((st, id)) = queue.pop_front() {
            world.check(&st).map_err(|v| format!("{v}\nin {st:?}"))?;
            done[id as usize] = world.finished(&st);
            next.clear();
            world
                .successors(&st, &mut next)
                .map_err(|v| format!("{v}\nfrom {st:?}"))?;
            for mut n in next.drain(..) {
                edges += 1;
                let k = match index.entry(fingerprint(&mut n)) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let k = preds.len() as u32;
                        e.insert(k);
                        preds.push(Vec::new());
                        done.push(false);
                        queue.push_back((n, k));
                        k
                    }
                };
                preds[k as usize].push(id);
            }
        }
        // Liveness: walk back from the finished states.
        let mut live = done.clone();
        let mut stack: Vec<u32> = (0..done.len() as u32)
            .filter(|&i| done[i as usize])
            .collect();
        while let Some(i) = stack.pop() {
            for &p in &preds[i as usize] {
                if !live[p as usize] {
                    live[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        let stuck = live.iter().filter(|l| !**l).count();
        if stuck > 0 {
            return Err(format!("{stuck} states cannot finish"));
        }
        Ok(Explored {
            states: done.len(),
            edges,
        })
    }

    fn scripts() -> Vec<(&'static str, [Vec<Op>; 2])> {
        use Op::*;
        vec![
            (
                "one-way stream",
                [vec![Write(4), Write(4), Close], vec![Read(8), Close]],
            ),
            (
                "request/response",
                [
                    vec![Write(2), Read(2), Write(1), Close],
                    vec![Read(2), Write(2), Read(1), Close],
                ],
            ),
            (
                "small writes",
                [
                    vec![Write(1), Write(1), Write(2), Close],
                    vec![Read(4), Close],
                ],
            ),
            (
                "both ways at once",
                [
                    vec![Write(2), Read(2), Close],
                    vec![Write(2), Read(2), Close],
                ],
            ),
        ]
    }

    /// Every pairing of the four presets (the two delayed-ack ones share
    /// a core, so one of them stands for both), N = 1..=4, every script.
    fn worlds() -> Vec<(String, World)> {
        let mut v = Vec::new();
        for n in 1..=4 {
            for client in PRESETS {
                for server in PRESETS {
                    if client == Preset::DsDaUq || server == Preset::DsDaUq {
                        continue;
                    }
                    for (name, scripts) in scripts() {
                        let world = World {
                            cfgs: [cfg(client, n), cfg(server, n)],
                            scripts,
                            holds: client == Preset::Default,
                        };
                        v.push((format!("{name}, N = {n}, {client:?} to {server:?}"), world));
                    }
                }
            }
        }
        v
    }

    /// Explore every world, on as many threads as there are cores (up to
    /// four), each taking the next world left; returns the states and
    /// steps explored.
    fn explore_all(worlds: &[(String, World)]) -> Result<(usize, usize), Violation> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        let next = std::sync::atomic::AtomicUsize::new(0);
        let work = || -> Result<(usize, usize), Violation> {
            let (mut states, mut edges) = (0, 0);
            while let Some((name, world)) =
                worlds.get(next.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
            {
                let e = explore(world).map_err(|v| format!("{name}: {v}"))?;
                states += e.states;
                edges += e.edges;
            }
            Ok((states, edges))
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            let mut total = (0, 0);
            for h in handles {
                let (s, e) = h.join().expect("explorer thread")?;
                total = (total.0 + s, total.1 + e);
            }
            Ok(total)
        })
    }

    #[test]
    fn the_credit_protocol_holds_in_every_reachable_state() {
        let t0 = std::time::Instant::now();
        let (states, edges) = explore_all(&worlds()).unwrap_or_else(|v| panic!("{v}"));
        eprintln!(
            "explored {states} states and {edges} steps in {:.2} s",
            t0.elapsed().as_secs_f64()
        );
        assert!(states >= 100_000, "only {states} states explored");
    }
}

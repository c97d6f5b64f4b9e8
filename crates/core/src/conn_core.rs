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

/// Messages consumed before an explicit credit return is due toward a
/// window of `n`: half of it with §6.3's delayed acks, else every one.
pub(crate) fn ack_threshold(delayed_acks: bool, n: u32) -> u32 {
    if delayed_acks {
        (n / 2).max(1)
    } else {
        1
    }
}

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
    /// §6.3: return credits after half the window, not after each message.
    pub(crate) delayed_acks: bool,
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

/// A stream operation, as [`ConnCore::step`] walks it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum OpKind {
    /// A write of `len` bytes. With `block` it returns once its zero-copy
    /// fragments are acknowledged, copied ones (small writes, a staging
    /// policy's tail) still in flight: a copied send that fails later
    /// fails the next call. Without `block` it never parks: every
    /// fragment is copied, and it takes what its credits allow, or is
    /// `WouldBlock` before any byte.
    Write {
        len: usize,
        block: bool,
    },
    /// Send the staged bytes, a held request first (bare) if `request`:
    /// `flush()` with `block`, a read's or a poll's prologue without.
    Flush {
        request: bool,
        block: bool,
    },
    ShutdownWrite,
    Close,
}

/// What performing a [`Step::Credit`] found: `Failed` is any failure but
/// `WouldBlock`, kept by the performer for [`Step::Fail`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Credit {
    Spent,
    WouldBlock,
    Failed,
}

/// One operation in progress: how far [`ConnCore::step`] has taken it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Op {
    kind: OpKind,
    at: Phase,
    /// Where the flush in progress leads.
    then: Phase,
    /// A write's bytes sent so far; whether one of its fragments went
    /// zero-copy (the write waits for those).
    off: usize,
    zero_copy: bool,
    credit: Option<Credit>,
}

impl Op {
    pub(crate) fn new(kind: OpKind) -> Self {
        Op {
            kind,
            at: Phase::Start,
            then: Phase::Start,
            off: 0,
            zero_copy: false,
            credit: None,
        }
    }

    /// Record what the [`Step::Credit`] just performed found.
    pub(crate) fn found(&mut self, credit: Credit) {
        self.credit = Some(credit);
    }

    /// Go on at `at` once the performer has done `step`.
    fn go<R>(&mut self, at: Phase, step: Step<R>) -> Step<R> {
        self.at = at;
        step
    }

    /// Flush the staged bytes, then go on at `then`.
    fn flush(&mut self, then: Phase) -> Phase {
        self.then = then;
        Phase::FlushDebt
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Phase {
    Start,
    Request,
    /// A write: stage it or send it?
    Route,
    Stages,
    /// After a capacity flush, room at the NIC; then the probe, or (when
    /// the staged message filled) the write's end.
    Room,
    Full,
    Probe,
    Staged,
    Fragment,
    Send,
    ZeroCopy,
    FlushDebt,
    FlushStaged,
    FlushSpend,
    Publish,
    Announce,
    Teardown,
    Return(usize),
}

/// What only the performer of a step can see, asked only when a decision
/// needs it: whether a send of this side is unacknowledged, the bytes
/// unacknowledged in its sends before the latest, and the data
/// descriptors it keeps posted.
pub(crate) trait Nic {
    fn in_flight(&self) -> bool;
    fn unacked_ahead(&self) -> usize;
    fn posted(&self) -> usize;
}

/// The next thing to perform for an operation (see [`ConnCore::step`]).
pub(crate) enum Step<R> {
    /// Pay the host time of deadline flushes done on this side's behalf.
    PayDebt,
    /// Send the held connection request, the write aboard if `rides`.
    Request {
        rides: bool,
    },
    /// Prune completed sends; a failed one ends the operation.
    Reap,
    /// Spend a credit, parking for one with `block`; then [`Op::found`].
    Credit {
        block: bool,
    },
    SendStaged(Flush<R>),
    /// Send the write's bytes in the range as one data message that
    /// returns the credits and has the sequence number given: copied
    /// (`true`) or zero-copy.
    Fragment(CreditReturn<R>, u32, std::ops::Range<usize>, bool),
    /// Copy the write into the staging buffer ([`ConnCore::stage`]).
    Stage,
    /// Park until the send before the latest is acknowledged.
    AwaitQueueRoom,
    /// Park until the write's zero-copy fragments are acknowledged.
    AwaitZeroCopy,
    /// A close's counters are final; the window's descriptors not
    /// accounted for.
    Publish {
        unaccounted: u64,
    },
    /// Announce the data messages sent with a `Close`.
    SendClose(u32),
    /// Unpost and recycle everything, these consumed descriptors too.
    Teardown(Vec<R>),
    /// The operation is over: the bytes it took, or why not.
    Done(Result<usize, Refusal>),
    /// The operation is over, with the error its credit wait found.
    Fail,
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

    /// Accept side of a rider: data message 0, no descriptor, no credit.
    pub(crate) fn accept_first(&mut self, first: Bytes) {
        self.rx_next_seq = 1;
        self.stats.msgs_received += 1;
        self.push_stream(first);
    }

    // ---- operations ----

    /// The next step of `op`: every decision of a stream write, flush,
    /// shutdown or close, in the order the driver performs them (DESIGN
    /// §12). The performer does what the step names and asks again; a
    /// [`Step::Credit`]'s answer comes back through [`Op::found`]. The
    /// decisions between two steps are made at once, on the state the
    /// last step left.
    pub(crate) fn step(&mut self, op: &mut Op, nic: &dyn Nic) -> Step<R> {
        let (len, block) = match op.kind {
            OpKind::Write { len, block } => (len, block),
            OpKind::Flush { block, .. } => (0, block),
            OpKind::ShutdownWrite | OpKind::Close => (0, true),
        };
        let room = 2 * self.cfg.buf_size;
        let short = || block && nic.unacked_ahead() >= room;
        loop {
            op.at = match op.at {
                Phase::Start => match op.kind {
                    OpKind::Write { .. } => return op.go(Phase::Request, Step::PayDebt),
                    OpKind::Flush { request: false, .. } => op.flush(Phase::Return(0)),
                    // A shut down or closed side does nothing more; the
                    // consumed descriptors of a closing one are never
                    // re-armed: `Step::Teardown` recycles them.
                    OpKind::ShutdownWrite
                        if std::mem::replace(&mut self.write_closed, true) || self.closed =>
                    {
                        return Step::Done(Ok(0))
                    }
                    OpKind::Close if std::mem::replace(&mut self.closed, true) => {
                        return Step::Done(Ok(0))
                    }
                    _ => Phase::Request,
                },
                Phase::Request => {
                    // The first operation claims a held request: 1..=
                    // `first_max` bytes of a blocking write ride it as
                    // data message 0, spending no credit; anything else
                    // sends it bare. Claim and seq 0 are one decision, so
                    // another process's operation during the rider's
                    // charges finds the request gone.
                    let held = std::mem::take(&mut self.req_held);
                    let rides = held
                        && matches!(op.kind, OpKind::Write { block: true, .. })
                        && (1..=self.cfg.first_max).contains(&len);
                    if rides {
                        let (ret, seq) = self.begin_msg(len);
                        debug_assert!(seq == 0 && ret.credits == 0, "nothing precedes a rider");
                        self.stats.conn_riders += 1;
                    }
                    let next = match op.kind {
                        OpKind::Write { .. } if rides => Phase::Return(len),
                        OpKind::Write { .. } => Phase::Route,
                        OpKind::Flush { .. } => op.flush(Phase::Return(0)),
                        OpKind::ShutdownWrite => op.flush(Phase::Announce),
                        OpKind::Close => op.flush(Phase::Publish),
                    };
                    if !held {
                        next
                    } else {
                        return op.go(next, Step::Request { rides });
                    }
                }
                Phase::Route => {
                    // Stage no more than the send-copy rule copies anyway,
                    // nor than one message.
                    let c = &self.cfg;
                    let small = c.stage_below.min(c.send_copy_threshold);
                    if len > 0 && len <= small.min(c.stage_capacity) {
                        return op.go(Phase::Stages, Step::Reap);
                    }
                    // A larger write must not overtake staged bytes.
                    op.flush(Phase::Fragment)
                }
                Phase::Stages => match self.check_writable() {
                    Err(r) => return Step::Done(Err(r)),
                    // With nothing staged and nothing in flight the write
                    // would wait alone: it goes at once (Nagle's rule).
                    Ok(()) if self.staged.is_empty() && !nic.in_flight() => {
                        op.flush(Phase::Fragment)
                    }
                    Ok(()) if self.staged.len() + len > self.cfg.stage_capacity => {
                        op.flush(Phase::Room)
                    }
                    Ok(()) => Phase::Probe,
                },
                // Two full messages unacknowledged ahead of a capacity
                // flush: the NIC holds enough.
                Phase::Room if short() => return op.go(Phase::Probe, Step::AwaitQueueRoom),
                Phase::Room => Phase::Probe,
                Phase::Full if short() => return op.go(Phase::Return(len), Step::AwaitQueueRoom),
                Phase::Full => Phase::Return(len),
                Phase::Probe if block => return op.go(Phase::Staged, Step::Stage),
                // Without `block`, staging needs a credit in hand (reaped,
                // not awaited): never take bytes nothing can send.
                Phase::Probe => match op.credit.take() {
                    None => return Step::Credit { block },
                    Some(Credit::Spent) => {
                        self.refund();
                        return op.go(Phase::Staged, Step::Stage);
                    }
                    Some(Credit::WouldBlock) => return Step::Done(Err(Refusal::WouldBlock)),
                    Some(Credit::Failed) => return Step::Fail,
                },
                // Flush when full, or under credit pressure (the peer is
                // about to stop granting): bytes staged ⇒ two credits in
                // hand, so a deadline never waits for one.
                Phase::Staged if self.staged.len() >= self.cfg.stage_capacity => {
                    op.flush(Phase::Full)
                }
                Phase::Staged if self.credits <= 1 => op.flush(Phase::Return(len)),
                Phase::Staged => Phase::Return(len),
                Phase::Fragment => return op.go(Phase::Send, Step::Reap),
                Phase::Send => {
                    match op.credit.take() {
                        None => match self.check_writable() {
                            Err(r) => return Step::Done(Err(r)),
                            Ok(()) => return Step::Credit { block },
                        },
                        // Out of credits without parking: the bytes taken.
                        Some(Credit::WouldBlock) if op.off > 0 || len == 0 => {
                            return Step::Done(Ok(op.off))
                        }
                        Some(Credit::WouldBlock) => return Step::Done(Err(Refusal::WouldBlock)),
                        Some(Credit::Failed) => return Step::Fail,
                        Some(Credit::Spent) => {}
                    }
                    // Head fragments first. Under a staging policy a
                    // blocking write longer than the threshold ends with
                    // its last `send_copy_threshold` bytes as one copied
                    // message it does not wait for.
                    let c = &self.cfg;
                    let staging = block && c.stage_below > 0 && len > c.send_copy_threshold;
                    let head = len - usize::from(staging) * c.send_copy_threshold.min(c.buf_size);
                    let off = op.off;
                    let end = if off < head { head } else { len };
                    let chunk = (end - off).min(c.buf_size);
                    // Zero-copy pins the caller's buffer until the NIC
                    // acknowledges it, which is a wait.
                    let copy = !block || chunk <= c.send_copy_threshold;
                    let (ret, seq) = self.begin_msg(chunk);
                    op.off += chunk;
                    op.zero_copy |= !copy;
                    op.at = if op.off < len {
                        Phase::Fragment
                    } else {
                        Phase::ZeroCopy
                    };
                    return Step::Fragment(ret, seq, off..op.off, copy);
                }
                Phase::ZeroCopy if op.zero_copy => {
                    return op.go(Phase::Return(len), Step::AwaitZeroCopy)
                }
                Phase::ZeroCopy => Phase::Return(len),
                Phase::FlushDebt => return op.go(Phase::FlushStaged, Step::PayDebt),
                Phase::FlushStaged if self.staged.is_empty() => op.then,
                Phase::FlushStaged => Phase::FlushSpend,
                Phase::FlushSpend => {
                    let Some(found) = op.credit.take() else {
                        return Step::Credit { block };
                    };
                    match found {
                        Credit::Spent => {
                            let send = self.take_staged().map_or(Step::PayDebt, Step::SendStaged);
                            return op.go(op.then, send);
                        }
                        // The deadline sent the bytes while this call was
                        // parked: nothing left to fail; settle its debt.
                        _ if block && self.staged.is_empty() => {
                            return op.go(op.then, Step::PayDebt)
                        }
                        // Without `block` the bytes stay staged, and a
                        // write must not overtake or overflow them.
                        _ if !block && matches!(op.then, Phase::Fragment | Phase::Room) => {
                            return Step::Done(Err(Refusal::WouldBlock))
                        }
                        // A close's flush that cannot be delivered is moot.
                        _ if block && !matches!(op.then, Phase::Publish | Phase::Announce) => {
                            return Step::Fail
                        }
                        _ => op.then,
                    }
                }
                Phase::Publish => {
                    // Posted descriptors and waiting re-arms make up the
                    // window, but on a poisoned side, which recycles what
                    // it consumed.
                    let held = nic.posted() + self.rearms.len();
                    let off = held.abs_diff(self.window as usize) as u64;
                    let unaccounted = if self.poisoned { 0 } else { off };
                    return op.go(Phase::Announce, Step::Publish { unaccounted });
                }
                // `Close` goes unless the peer closed first, or a shutdown
                // sent it.
                Phase::Announce
                    if self.peer_closed || (op.kind == OpKind::Close && self.write_closed) =>
                {
                    Phase::Teardown
                }
                Phase::Announce => return op.go(Phase::Teardown, Step::SendClose(self.tx_seq)),
                Phase::Teardown if op.kind != OpKind::Close => Phase::Return(0),
                Phase::Teardown => {
                    let stale = self.take_return().rearms;
                    return op.go(Phase::Return(0), Step::Teardown(stale));
                }
                Phase::Return(n) => return Step::Done(Ok(n)),
            };
        }
    }

    /// A write fails on a closed, shut down or poisoned side. A received
    /// `Close` does not fail it: the peer may only have shut down writing.
    fn check_writable(&self) -> Result<(), Refusal> {
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
    fn refund(&mut self) {
        self.credits += 1;
    }

    /// Open one outgoing data message, claiming its sequence number: with
    /// piggy-backing on it carries the credit return due with its re-arms
    /// — unless the side is closed, whose consumed descriptors are never
    /// re-armed (its close takes them). It adds `user_bytes` to
    /// `bytes_sent` (staged bytes count earlier).
    fn begin_msg(&mut self, user_bytes: usize) -> (CreditReturn<R>, u32) {
        let ret = if self.cfg.piggyback && !self.closed {
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
    /// [`ack_threshold`] messages (§6.3) unless a write carried it first
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
        if used_up || self.consumed >= ack_threshold(self.cfg.delayed_acks, self.cfg.n) {
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
    fn take_return(&mut self) -> CreditReturn<R> {
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
        // The front chunk alone covers the read: hand over (a slice of) it.
        let want = max.min(self.stream_len);
        if let Some(front) = self.stream.front_mut().filter(|f| f.len() >= want) {
            let out = if front.len() == want {
                self.stream.pop_front().expect("front exists")
            } else {
                front.split_to(want)
            };
            self.stream_len -= want;
            return Ok(Some(out));
        }
        let mut out = Vec::with_capacity(want);
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
}

#[cfg(test)]
mod tests {
    //! A breadth-first explorer: two cores joined by an abstract NIC, each
    //! running a script of writes (blocking or not), reads, a shutdown and
    //! a close through [`ConnCore::step`] — the driver's own sequence —
    //! with every interleaving of their steps, the NIC's deliveries in any
    //! order, and the staging deadline free to fire at any step. Each step
    //! that sends or stages is a step of its own, so another operation on
    //! the same side (the connection's second process, or the deadline)
    //! can run between them. Every reachable state is checked against
    //! §6.1's invariants; afterwards a backward pass over the explored
    //! graph checks that every state can still finish.

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

    /// A side's configuration with its own credit count `n`; an acceptor
    /// adopts the client's.
    fn cfg(p: Preset, n: u32) -> CoreCfg {
        CoreCfg {
            n,
            delayed_acks: p != Preset::Ds,
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

    /// A script's operations.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Act {
        Write(usize),
        /// A nonblocking write, retried until all its bytes are taken.
        TryWrite(usize),
        Read(usize),
        Shutdown,
        Close,
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
        /// The script's current action, and the core's operation for it
        /// (`None` before it starts, and while a read pulls).
        act: usize,
        op: Option<Op>,
        pulling: bool,
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
        scripts: [Vec<Act>; 2],
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
                act: 0,
                op: None,
                pulling: false,
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
                self.slots.push_back((self.next_range, None));
                self.next_range += 1;
            }
            self.core = Some(core);
        }

        fn core(&mut self) -> &mut ConnCore<u8> {
            self.core.as_mut().expect("established")
        }

        /// Bytes the current read or write action still wants.
        fn left(&self, script: &[Act]) -> usize {
            let (mut w, mut r) = (0, 0);
            for a in &script[..=self.act] {
                match a {
                    Act::Write(n) | Act::TryWrite(n) => w += n,
                    Act::Read(n) => r += n,
                    _ => {}
                }
            }
            match script[self.act] {
                Act::Write(_) | Act::TryWrite(_) => w - self.written,
                Act::Read(_) => r - self.read,
                _ => 0,
            }
        }

        /// The operation the current action runs.
        fn op(&self, script: &[Act]) -> Op {
            let kind = match script[self.act] {
                Act::Write(_) | Act::TryWrite(_) => OpKind::Write {
                    len: self.left(script),
                    block: matches!(script[self.act], Act::Write(_)),
                },
                // A read's prologue.
                Act::Read(_) => OpKind::Flush {
                    request: true,
                    block: false,
                },
                Act::Shutdown => OpKind::ShutdownWrite,
                Act::Close => OpKind::Close,
            };
            self.op.unwrap_or(Op::new(kind))
        }
    }

    /// What [`ConnCore::step`] asks of a side's NIC: its messages on the
    /// wire, and its posted descriptors.
    struct Abstract<'a>(&'a [Wire], usize);

    impl Abstract<'_> {
        /// Data messages on the wire, unacknowledged: seq, bytes.
        fn unacked(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
            self.0.iter().filter_map(|w| match w {
                Wire::Data { seq, payload, .. } => Some((*seq, payload.len())),
                _ => None,
            })
        }
    }

    impl Nic for Abstract<'_> {
        // The connection request is not in flight: the driver keeps it
        // apart.
        fn in_flight(&self) -> bool {
            self.0.iter().any(|w| !matches!(w, Wire::Req(_)))
        }

        fn unacked_ahead(&self) -> usize {
            let latest = self.unacked().map(|(seq, _)| seq).max();
            let ahead = self.unacked().filter(|(seq, _)| Some(*seq) != latest);
            ahead.map(|(_, len)| len).sum()
        }

        fn posted(&self) -> usize {
            self.1
        }
    }

    impl State {
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
                    let nic = Abstract(&n.wire[1 - side], 0);
                    let unacked = nic.unacked().map(|(_, len)| len).sum();
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
                // The client's second process: its first operation, a
                // read, sends a request it finds held, bare, at once.
                let mut n = st.clone();
                n.raced = true;
                let mut op = Op::new(OpKind::Flush {
                    request: true,
                    block: false,
                });
                let nic = Abstract(&[], 0);
                if let Step::Request { .. } = n.sides[0].core().step(&mut op, &nic) {
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
                    }) = Msg::decode(&raw.into())
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
                // A closing side still takes credits for its last flush.
                Wire::FcAck { credits, grew } => s.core().on_fcack(credits, grew),
                Wire::Close(f) => s.core().on_close(f),
            }
            n.wire[side].remove(k);
            Ok(Some(n))
        }

        /// Advance `side`'s current action: perform the steps its
        /// operation names up to the next one that sends, stages or ends
        /// it, if it can move now.
        fn op_step(&self, st: &State, side: usize) -> Result<Option<State>, Violation> {
            let script = &self.scripts[side];
            let s = &st.sides[side];
            let (Some(_), Some(&act)) = (&s.core, script.get(s.act)) else {
                return Ok(None);
            };
            if s.pulling {
                return self.pull(st, side);
            }
            let mut op = s.op(script);
            let mut n = st.clone();
            // Nothing performed before a send changes what the NIC shows.
            let nic = Abstract(&n.wire[1 - side], n.sides[side].slots.len());
            loop {
                let s = &mut n.sides[side];
                let left = s.left(script);
                match s.core().step(&mut op, &nic) {
                    // Nothing to pay or reap, no buffers to recycle.
                    Step::PayDebt | Step::Reap | Step::Teardown(_) => continue,
                    Step::Publish { unaccounted } if unaccounted != 0 => {
                        return Err("close found descriptors unaccounted".into())
                    }
                    Step::Publish { .. } => continue,
                    Step::Credit { block } => {
                        let c = s.core();
                        if block && c.credits == 0 && !c.peer_closed {
                            // Parked: the core asks again on the next try.
                            s.op = Some(op);
                            return Ok((n != *st).then_some(n));
                        }
                        op.found(match c.spend(block) {
                            Ok(_) => Credit::Spent,
                            Err(Refusal::WouldBlock) => Credit::WouldBlock,
                            Err(_) => Credit::Failed,
                        });
                        continue;
                    }
                    // A wait the core decides afresh on the next try.
                    Step::AwaitQueueRoom => return Ok(None),
                    Step::AwaitZeroCopy if nic.unacked().next().is_some() => return Ok(None),
                    Step::AwaitZeroCopy => continue,
                    Step::Request { rides } => {
                        let first = if rides {
                            s.riders += 1;
                            pattern(s.written, left)
                        } else {
                            Bytes::new()
                        };
                        s.out.push_back(Out::Req(self.request(first)));
                    }
                    Step::SendStaged(f) => s.out.push_back(Out::Data(f.ret, f.seq, f.payload)),
                    Step::Fragment(ret, seq, range, _) => {
                        let payload = pattern(s.written + range.start, range.len());
                        s.out.push_back(Out::Data(ret, seq, payload));
                    }
                    Step::Stage => {
                        let data = pattern(s.written, left);
                        let (_, first_of) = s.core().stage(&data);
                        s.timers.extend(first_of);
                    }
                    Step::SendClose(f) => s.out.push_back(Out::Close(f)),
                    Step::Done(Ok(k)) => {
                        s.written += k;
                        match act {
                            Act::Read(_) => s.pulling = true,
                            Act::Write(_) | Act::TryWrite(_) if s.left(script) > 0 => {}
                            _ => s.act += 1,
                        }
                        s.op = None;
                        return Ok(Some(n));
                    }
                    // Nothing taken: try again later.
                    Step::Done(Err(Refusal::WouldBlock)) => {
                        s.op = None;
                        return Ok(Some(n));
                    }
                    Step::Done(Err(r)) => return Err(format!("{act:?} refused: {r:?}")),
                    Step::Fail => return Err(format!("{act:?} found the peer gone")),
                }
                n.sides[side].op = Some(op);
                return Ok(Some(n));
            }
        }

        /// A read pulls: one buffered chunk, or one landed message.
        fn pull(&self, st: &State, side: usize) -> Result<Option<State>, Violation> {
            let script = &self.scripts[side];
            let mut n = st.clone();
            let s = &mut n.sides[side];
            let want = s.left(script);
            let got = if s.core().stream_len > 0 {
                s.core().read(want).expect("readable").expect("buffered")
            } else {
                let Some((range, Some((piggyback, seq, payload)))) = s.slots.front().cloned()
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
            // The next read call starts with its prologue again.
            s.pulling = false;
            if s.left(script) == 0 {
                s.act += 1;
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
                if c.consumed >= ack_threshold(c.cfg.delayed_acks, c.cfg.n) {
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
                s.act == self.scripts[i].len()
                    && s.out.is_empty()
                    && c.closed
                    && c.rx_next_seq == pc.tx_seq
                    && s.slots.iter().all(|(_, m)| m.is_none())
            };
            st.wire.iter().all(Vec::is_empty)
                && drained(0)
                && drained(1)
                && st.sides[1].reqs == 1
                && st.sides[1].riders == st.sides[0].riders
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

    fn scripts() -> Vec<(&'static str, [Vec<Act>; 2])> {
        use Act::*;
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
                "small writes, one nonblocking, then a larger one",
                [
                    vec![TryWrite(1), TryWrite(1), Write(3), Close],
                    vec![Read(5), Close],
                ],
            ),
            (
                "both ways at once, one half-closing",
                [
                    vec![Write(2), Shutdown, Read(2), Close],
                    vec![Write(2), Read(2), Close],
                ],
            ),
        ]
    }

    /// Every pairing of the four presets (the two delayed-ack ones share
    /// a core, so one of them stands for both), N = 1..=4, every script;
    /// and acceptors configured with more credits than their client's N,
    /// which they adopt.
    fn worlds() -> Vec<(String, World)> {
        let mut v = Vec::new();
        for (n, own) in [(1, 1), (2, 2), (3, 3), (4, 4), (1, 4), (2, 4)] {
            for client in PRESETS {
                for server in PRESETS {
                    if client == Preset::DsDaUq || server == Preset::DsDaUq {
                        continue;
                    }
                    for (name, scripts) in scripts() {
                        if own != n && name != "one-way stream" {
                            continue;
                        }
                        let world = World {
                            cfgs: [cfg(client, n), cfg(server, own)],
                            scripts,
                            holds: client == Preset::Default,
                        };
                        let label = format!("{name}, N = {n} (acceptor's own {own})");
                        v.push((format!("{label}, {client:?} to {server:?}"), world));
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

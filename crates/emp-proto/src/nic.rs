//! The EMP firmware: the protocol state machines that run on the NIC.
//!
//! This is Figure 2 of the paper in executable form. Transmit: a host
//! request (T1) is parsed by the tx CPU (T2-T3 bookkeeping) — which also
//! inserts any receive descriptors the request re-arms before its frames
//! leave (DESIGN §8) — each frame is DMA-fetched (T5) and sent; a
//! transmission record tracks acknowledged frames, with selective-repeat
//! retransmission under an RTT-measured timeout (DESIGN §8). Receive: each
//! arriving frame is classified (R3), tag-matched against the pre-posted
//! descriptor list (R4, at the measured 550 ns per descriptor walked), and
//! DMA'd to the host buffer (R6); acks with a bitmap of held fragments go
//! back every `ack_window` frames, and every frame while the message has a
//! hole. With piggy-backing on, a short message's final ack may wait up to
//! half an SRTT to ride on a data frame to the same peer (DESIGN §8).
//! Frames that match nothing fall into the unexpected queue if slots are
//! available (checked last, extra host copy on claim), else are dropped for
//! the sender to retransmit.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::hash::BuildHasherDefault;
use std::ops::Deref;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use simnet::emp_trace::{self, EventKind};
use simnet::{
    Completion, EtherType, EventClass, EventTarget, Frame, FrameSink, IdHasher, IdMap, MacAddr,
    Sim, SimAccess, SimAccessExt, SimDuration, SimTime, Slab, TimerGuard,
};
use tigon_nic::{FirmwareCpu, Tigon};

use crate::config::EmpConfig;
use crate::wire::{ack_fits, chunk_range, frames_for, Ack, EmpWire, MsgBuf, RecvMsg, Tag};

/// Identifier of a posted receive descriptor.
pub type DescId = u64;

/// A receive descriptor to post: `(tag, source filter, capacity)`.
pub type DescSpec = (Tag, Option<MacAddr>, usize);

/// Diagnostic view of a live transmit record:
/// `(msg_id, acked, next_to_send, num_frames, retries)`.
pub type TxRecordView = (u64, u32, u32, u32, u32);

/// Observable protocol counters.
#[derive(Clone, Debug, Default)]
pub struct EmpStats {
    /// Messages fully sent and acknowledged.
    pub msgs_sent: u64,
    /// Messages fully received (descriptor or unexpected queue).
    pub msgs_received: u64,
    /// Data frames dropped because nothing matched and no unexpected slot
    /// was free.
    pub frames_dropped: u64,
    /// Data frames resent (after a rewind or for a selective-ack hole).
    pub frames_retransmitted: u64,
    /// The subset of `frames_retransmitted` resent on ack evidence (a
    /// hole below a fragment the receiver holds), not by a rewind.
    pub fast_retransmits: u64,
    /// Messages abandoned after `max_retries`.
    pub sends_failed: u64,
    /// Standalone ack frames put on the wire.
    pub acks_sent: u64,
    /// Final acks held back to ride on a data frame to the same peer
    /// (DESIGN §8); each then rides, or leaves alone when the hold ends.
    pub acks_held: u64,
    /// Acks that went out attached to a data frame rather than in a frame
    /// of their own (not counted in `acks_sent`).
    pub acks_piggybacked: u64,
    /// Acks consumed from arriving data frames.
    pub acks_piggybacked_received: u64,
    /// Negative acknowledgments put on the wire (busy backpressure and
    /// refusals of `no_uq` messages that matched nothing).
    pub nacks_sent: u64,
    /// Negative acknowledgments received from peers.
    pub nacks_received: u64,
    /// Sends refused by the peer NIC (a `no_uq` message matched no
    /// descriptor there) — a subset of `sends_failed`.
    pub sends_refused: u64,
    /// Messages that completed through the unexpected queue.
    pub unexpected_msgs: u64,
    /// Total descriptors examined by the tag matcher (walk length sum).
    pub descriptors_walked: u64,
    /// Data frames lost to injected receive-descriptor-ring exhaustion
    /// (dropped before classification; retransmission recovers them).
    pub nic_rx_ring_drops: u64,
    /// DMA completions delayed by injected PCI contention.
    pub nic_dma_delays: u64,
    /// Receive-firmware busy time by task kind.
    pub rx_fw: RxFirmwareNs,
    /// Transmit-firmware busy time by task kind.
    pub tx_fw: TxFirmwareNs,
}

/// Receive-CPU busy nanoseconds by firmware task kind, counted when a
/// task is booked. On a two-CPU NIC the kinds sum to the work booked on
/// the rx CPU, which is its `busy_total()` whenever it is idle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RxFirmwareNs {
    /// Per-frame classification and reliability bookkeeping (R3–R5),
    /// attached acks included.
    pub frame: u64,
    /// Tag-match walk over the pre-posted descriptors (R4).
    pub walk: u64,
    /// DMA of received bytes to the host (R6), injected stalls included.
    pub dma: u64,
    /// Completion posts to the host.
    pub completion: u64,
    /// Consuming standalone acks and nacks.
    pub ack: u64,
    /// Descriptor inserts and removals.
    pub post: u64,
    /// Unexpected-queue resizes.
    pub uq_resize: u64,
}

impl RxFirmwareNs {
    /// All kinds together.
    pub fn total(&self) -> u64 {
        self.frame + self.walk + self.dma + self.completion + self.ack + self.post + self.uq_resize
    }
}

/// Transmit-CPU busy nanoseconds by firmware task kind, counted when a
/// task is booked. On a two-CPU NIC the kinds sum to the work booked on
/// the tx CPU, which is its `busy_total()` whenever it is idle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxFirmwareNs {
    /// Accepting host send requests (T1–T3).
    pub request: u64,
    /// Inserting the receive descriptors a send request re-arms.
    pub rearm: u64,
    /// Per-frame DMA fetch, header build and MAC hand-off (T4–T5).
    pub frame: u64,
    /// Generating standalone acks and nacks.
    pub ack: u64,
}

impl TxFirmwareNs {
    /// All kinds together.
    pub fn total(&self) -> u64 {
        self.request + self.rearm + self.frame + self.ack
    }
}

/// A firmware task kind, indexing [`FwProfile`].
#[derive(Clone, Copy)]
enum Fw {
    RxFrame,
    RxWalk,
    RxDma,
    RxCompletion,
    RxAck,
    RxPost,
    RxUqResize,
    TxRequest,
    TxRearm,
    TxFrame,
    TxAck,
}

/// Firmware busy nanoseconds per task kind, charged when the task is
/// scheduled — where the CPU adds it to its busy total.
#[derive(Default)]
struct FwProfile([Cell<u64>; 11]);

impl FwProfile {
    fn get(&self, kind: Fw) -> u64 {
        self.0[kind as usize].get()
    }

    fn rx(&self) -> RxFirmwareNs {
        RxFirmwareNs {
            frame: self.get(Fw::RxFrame),
            walk: self.get(Fw::RxWalk),
            dma: self.get(Fw::RxDma),
            completion: self.get(Fw::RxCompletion),
            ack: self.get(Fw::RxAck),
            post: self.get(Fw::RxPost),
            uq_resize: self.get(Fw::RxUqResize),
        }
    }

    fn tx(&self) -> TxFirmwareNs {
        TxFirmwareNs {
            request: self.get(Fw::TxRequest),
            rearm: self.get(Fw::TxRearm),
            frame: self.get(Fw::TxFrame),
            ack: self.get(Fw::TxAck),
        }
    }
}

/// Host-visible side of a send: completes when every frame is acked (or the
/// protocol gives up).
#[derive(Clone)]
pub struct SendState {
    /// Completes with the send's [`SendState::status`] as its outcome.
    pub(crate) completion: Completion,
}

/// [`SendState`]'s completion outcomes.
const SENT: u32 = 1;
const FAILED: u32 = 2;
const REFUSED: u32 = 3;

impl SendState {
    fn new() -> Self {
        SendState {
            completion: Completion::new(),
        }
    }

    /// Record the outcome and wake the host: acknowledged, failed after
    /// silence, or refused by the peer NIC (a `no_uq` message it NACKed).
    fn finish(&self, s: &dyn SimAccess, ok: bool, refused: bool) {
        let outcome = match (ok, refused) {
            (true, _) => SENT,
            (false, false) => FAILED,
            (false, true) => REFUSED,
        };
        self.completion.complete_with(s, outcome);
    }

    /// `Some(acked)` once complete.
    pub(crate) fn status(&self) -> Option<bool> {
        self.completion.outcome().map(|o| o == SENT)
    }

    /// The send failed because the peer NIC refused it.
    pub(crate) fn refused(&self) -> bool {
        self.completion.outcome() == Some(REFUSED)
    }
}

/// Host-visible side of a posted receive. `slot` fills with `Some(msg)` on
/// delivery or `None` if the descriptor was explicitly unposted.
#[derive(Clone)]
pub struct RecvState {
    pub(crate) completion: Completion,
    pub(crate) slot: Rc<RefCell<Option<Option<RecvMsg>>>>,
}

impl RecvState {
    pub(crate) fn new() -> Self {
        RecvState {
            completion: Completion::new(),
            slot: Rc::new(RefCell::new(None)),
        }
    }
}

struct TxRecord {
    dst: MacAddr,
    tag: Tag,
    data: MsgBuf,
    /// This message may not park in the receiver's unexpected queue; an
    /// unmatched delivery comes back as a refusal NACK.
    no_uq: bool,
    num_frames: u32,
    /// Sim time (ns) the host posted the send — start of the
    /// per-message latency measured at final ack.
    posted_ns: u64,
    /// Next frame index to release to the wire (rewinds on retransmit).
    next_to_send: u32,
    /// Cumulative frames acknowledged by the receiver.
    acked: u32,
    /// Fragments the receiver holds: bit `i` is fragment `acked + i`.
    held: u64,
    /// Fragments resent in the current timer round, indexed like `held`.
    resent: u64,
    /// One past the highest fragment ever released.
    sent_hi: u32,
    /// The fragment timed for an RTT sample and its release time (ns).
    timed: Option<(u32, u64)>,
    /// Consecutive timer rounds without ack progress.
    retries: u32,
    /// The per-message timer, once armed; cancelled when the record goes.
    timer: Option<TimerGuard>,
    state: SendState,
}

impl TxRecord {
    /// Message bytes carried by fragment `idx`.
    fn chunk_len(&self, idx: u32) -> usize {
        let (a, b) = chunk_range(self.data.len(), idx);
        b - a
    }

    /// Fragment `idx`'s bit in `held` and `resent`.
    fn bit(&self, idx: u32) -> u64 {
        1u64.checked_shl(idx - self.acked).unwrap_or(0)
    }

    /// This message's share of the NIC's in-flight window: fragments
    /// released and not yet acknowledged, less those the receiver already
    /// holds. A held fragment waits only for the hole below it, not for
    /// the wire or the receiver's backlog, which the window bounds.
    fn outstanding(&self) -> u32 {
        let released = self.next_to_send - self.acked;
        let mask = 1u64.checked_shl(released).map_or(u64::MAX, |b| b - 1);
        released - (self.held & mask).count_ones()
    }

    /// Apply an ack; returns the frames freed from the window and the
    /// holes to resend now: released, unheld fragments below the highest
    /// held one, not yet resent this round.
    fn on_ack(&mut self, frames: u32, sack: u64) -> (u32, u64) {
        // Invariant: this message holds `outstanding()` of the global
        // in-flight window. An ack can outrun `next_to_send` when it
        // belongs to frames sent before a rewind — then those frames need
        // no resend, so the send pointer jumps forward with it.
        let old_outstanding = self.outstanding();
        if frames >= self.acked {
            let advance = frames - self.acked;
            self.held = self.held.checked_shr(advance).unwrap_or(0) | sack << 1;
            self.resent = self.resent.checked_shr(advance).unwrap_or(0);
            self.acked = frames;
            self.next_to_send = self.next_to_send.max(frames);
        }
        let freed = old_outstanding - self.outstanding();
        let below_top = self.held.checked_ilog2().map_or(0, |top| (1 << top) - 1);
        let released = 1u64
            .checked_shl(self.next_to_send - self.acked)
            .map_or(u64::MAX, |b| b - 1);
        (freed, below_top & released & !self.held & !self.resent)
    }

    /// Start a round: back to the acknowledged prefix. Returns the frames
    /// leaving the in-flight window.
    fn rewind(&mut self) -> u32 {
        let rewound = self.outstanding();
        self.next_to_send = self.acked;
        self.resent = 0;
        rewound
    }

    /// Fragment `idx` goes on the wire at `now_ns`: is it a resend?
    fn note_send(&mut self, idx: u32, now_ns: u64) -> bool {
        if idx < self.sent_hi {
            self.resent |= self.bit(idx);
            if self.timed.is_some_and(|(t, _)| t == idx) {
                self.timed = None;
            }
            true
        } else {
            self.sent_hi = idx + 1;
            self.timed.get_or_insert((idx, now_ns));
            false
        }
    }

    /// The record is gone: its pending timer check has nothing to do.
    fn cancel_timer(&self) {
        if let Some(guard) = &self.timer {
            guard.cancel();
        }
    }

    /// An RTT sample, if the timed fragment is now acknowledged or held.
    fn take_rtt_sample(&mut self, now_ns: u64) -> Option<u64> {
        let (idx, sent) = self.timed?;
        if idx >= self.acked && self.held & self.bit(idx) == 0 {
            return None;
        }
        self.timed = None;
        Some(now_ns - sent)
    }
}

/// Fold the RTT sample `r` into a peer's `(srtt, rttvar)`, in ns (RFC 6298).
fn rtt_update(prev: Option<(u64, u64)>, r: u64) -> (u64, u64) {
    prev.map_or((r, r / 2), |(srtt, var)| {
        ((7 * srtt + r) / 8, (3 * var + srtt.abs_diff(r)) / 4)
    })
}

struct RecvDesc {
    id: DescId,
    tag: Tag,
    src_filter: Option<MacAddr>,
    capacity: usize,
    state: RecvState,
}

enum RecvDest {
    /// Matched a pre-posted descriptor.
    Desc(RecvState),
    /// Landed in the unexpected queue.
    Unexpected,
}

/// Which fragments of a message arrived, one bit each: the first 64 in
/// place, so a message of up to 64 frames allocates no bitmap.
struct Held {
    low: u64,
    high: Vec<u64>,
}

impl Held {
    fn new(frames: u32) -> Held {
        Held {
            low: 0,
            high: vec![0; (frames as usize).saturating_sub(64).div_ceil(64)],
        }
    }

    fn get(&self, i: u32) -> bool {
        let word = match i {
            0..64 => self.low,
            _ => self.high[(i as usize - 64) / 64],
        };
        word >> (i % 64) & 1 == 1
    }

    fn set(&mut self, i: u32) {
        let word = match i {
            0..64 => &mut self.low,
            _ => &mut self.high[(i as usize - 64) / 64],
        };
        *word |= 1 << (i % 64);
    }
}

struct ActiveRecv {
    tag: Tag,
    num_frames: u32,
    total_len: u32,
    /// Fragments stored so far (any order — the sender may retransmit
    /// from an earlier offset after loss).
    received_count: u32,
    /// Length of the contiguous prefix, the value cumulative acks carry.
    contiguous: u32,
    /// No hole has opened and no duplicate arrived, so no ack went back
    /// before the final one.
    clean: bool,
    have: Held,
    /// The contiguous prefix's bytes: its fragments' chunks, rejoined.
    prefix: MsgBuf,
    /// Fragments held past the first hole, by index.
    ahead: BTreeMap<u32, MsgBuf>,
    dest: RecvDest,
}

impl ActiveRecv {
    fn new(tag: Tag, num_frames: u32, total_len: u32, dest: RecvDest) -> ActiveRecv {
        ActiveRecv {
            tag,
            num_frames,
            total_len,
            received_count: 0,
            contiguous: 0,
            clean: true,
            have: Held::new(num_frames),
            prefix: MsgBuf::default(),
            ahead: BTreeMap::new(),
            dest,
        }
    }

    /// Store one fragment; returns `(was_duplicate, message_complete)`.
    /// An in-order fragment joins the prefix; one past a hole waits in
    /// `ahead` until the hole fills.
    fn store(&mut self, idx: u32, chunk: &MsgBuf) -> (bool, bool) {
        if self.have.get(idx) {
            self.clean = false;
            return (true, false);
        }
        self.have.set(idx);
        self.received_count += 1;
        if idx == self.contiguous {
            self.prefix.append(chunk);
            self.contiguous += 1;
            while self.contiguous < self.num_frames && self.have.get(self.contiguous) {
                let held = self.ahead.remove(&self.contiguous).expect("held fragment");
                self.prefix.append(&held);
                self.contiguous += 1;
            }
        } else {
            self.ahead.insert(idx, chunk.clone());
        }
        self.clean &= self.received_count == self.contiguous;
        (false, self.contiguous == self.num_frames)
    }

    /// The selective-ack bitmap: bit `i` is fragment `contiguous + 1 + i`.
    fn sack(&self) -> u64 {
        let from = self.contiguous as usize + 1;
        let held = (from..self.num_frames as usize).take(64);
        held.rev()
            .fold(0, |bits, i| bits << 1 | u64::from(self.have.get(i as u32)))
    }

    /// The ack due after a store: every `ack_window` fragments, on
    /// completion, and at once while a hole is open (as TCP does).
    fn ack_due(&self, ack_window: u32, done: bool) -> Option<(u32, u64)> {
        let due = done
            || self.received_count.is_multiple_of(ack_window)
            || self.received_count > self.contiguous;
        due.then(|| (self.contiguous, self.sack()))
    }
}

/// NIC-level ack piggy-backing (DESIGN §8): acks held for a data frame to
/// ride on, and which conversations alternate.
#[derive(Default)]
struct AckRides {
    /// The switch, set from `SubstrateConfig::piggyback_acks` when the
    /// substrate binds.
    on: bool,
    /// Acks held for each peer, oldest first.
    held: IdMap<MacAddr, VecDeque<Ack>>,
    /// Peers this NIC released a data frame to since it last completed a
    /// message from them.
    sent_since_done: HashSet<MacAddr, BuildHasherDefault<IdHasher>>,
}

impl AckRides {
    /// A data frame carrying `chunk_len` bytes leaves for `dst`: the oldest
    /// ack held for `dst` boards it if there is room under the MTU.
    fn board(&mut self, dst: MacAddr, chunk_len: usize) -> Option<Ack> {
        if !self.on {
            return None;
        }
        self.sent_since_done.insert(dst);
        let held = self.held.get_mut(&dst).filter(|_| ack_fits(chunk_len))?;
        held.pop_front()
    }
}

struct NicState {
    next_msg_id: u64,
    next_desc_id: DescId,
    tx: IdMap<u64, TxRecord>,
    /// Messages with frames still to release, in FIFO order.
    tx_order: VecDeque<u64>,
    /// Released-but-unacknowledged frames across all messages.
    tx_inflight: u32,
    /// `(srtt, rttvar)` in ns toward each peer this NIC sends to.
    rtt: IdMap<MacAddr, (u64, u64)>,
    rides: AckRides,
    /// Pre-posted descriptors in post order — the list the tag matcher
    /// walks, 550 ns per entry examined.
    preposted: Vec<RecvDesc>,
    /// Descriptors a send request re-arms that the tx CPU has not inserted
    /// yet, each flagged once the host unposted it in the meantime.
    rearming: IdMap<DescId, bool>,
    /// In-progress multi-frame receives, keyed by (source, message id).
    active: IdMap<(MacAddr, u64), ActiveRecv>,
    /// Slots available for unexpected messages.
    unexpected_capacity: usize,
    /// Slots consumed: active unexpected receives + unclaimed pool entries.
    unexpected_in_use: usize,
    /// Completed unexpected messages awaiting a claiming descriptor.
    pool: VecDeque<RecvMsg>,
    /// Unexpected messages whose final fragment is classified but whose
    /// DMA to the staging area has not finished: they are in neither
    /// `active` nor `pool`, yet later messages of the same lane must not
    /// overtake them into a descriptor.
    pending_unexpected: IdMap<(MacAddr, Tag), u32>,
    /// Recently completed receives, so duplicates of a message whose
    /// final ack was lost can be re-acknowledged instead of silently
    /// dropped (which would wedge the sender forever).
    recent_done: IdMap<(MacAddr, u64), u32>,
    recent_done_order: VecDeque<(MacAddr, u64)>,
    stats: EmpStats,
    /// Post-to-final-ack latency histogram (`emp.msg_latency_ns`, shared
    /// across all NICs of the sim). `None` until the first send, when the
    /// telemetry registry becomes reachable.
    msg_latency: Option<Rc<emp_trace::telemetry::LogLinHistogram>>,
}

impl NicState {
    /// A fresh receive descriptor for `(tag, src_filter, capacity)`.
    fn new_desc(&mut self, (tag, src_filter, capacity): DescSpec) -> RecvDesc {
        let id = self.next_desc_id;
        self.next_desc_id += 1;
        RecvDesc {
            id,
            tag,
            src_filter,
            capacity,
            state: RecvState::new(),
        }
    }
}

/// Completed-receive memory depth (bounds `recent_done`).
const RECENT_DONE_CAP: usize = 4096;

/// One EMP NIC, as its owners hold it: a handle on the [`NicCore`], whose
/// methods it derefs to. Firmware events and the NIC's link hold the core
/// itself, by `Rc`, so not even the `Arc` a cluster node keeps it in can
/// leave the simulation's thread:
///
/// ```compile_fail
/// use emp_proto::{EmpConfig, EmpNic};
/// let nic = EmpNic::new(simnet::MacAddr(0), EmpConfig::default());
/// std::thread::spawn(move || nic.mac());
/// ```
pub struct EmpNic(Rc<NicCore>);

impl EmpNic {
    /// Build the NIC for station `mac`.
    #[allow(clippy::arc_with_non_send_sync)] // the repo benchmark names `Arc<EmpNic>`
    pub fn new(mac: MacAddr, cfg: EmpConfig) -> Arc<EmpNic> {
        Arc::new(EmpNic(Rc::new_cyclic(|weak| NicCore::new(mac, cfg, weak))))
    }

    /// The core, which the NIC's link and its endpoints hold.
    pub(crate) fn core(&self) -> &Rc<NicCore> {
        &self.0
    }
}

impl Deref for EmpNic {
    type Target = NicCore;

    fn deref(&self) -> &NicCore {
        &self.0
    }
}

/// One EMP NIC: the Tigon hardware plus the protocol state it runs.
pub struct NicCore {
    tigon: Tigon,
    cfg: EmpConfig,
    state: RefCell<NicState>,
    fw: FwProfile,
    /// The work of this NIC's pending closure-free events.
    work: RefCell<Slab<NicWork>>,
    /// `release_tx`'s frame list, kept between calls.
    tx_frames: Cell<Vec<Frame>>,
    self_ref: Weak<NicCore>,
}

/// What one of the NIC's closure-free events does (its slot in
/// [`NicCore::work`]).
enum NicWork {
    /// rx CPU: a standalone ack arrived.
    Ack(Ack),
    /// rx CPU: a negative acknowledgment `(msg_id, busy)` arrived.
    Nack(u64, bool),
    /// rx CPU, phase 1 of a data frame: classify and match it.
    RxFrame(Frame),
    /// rx CPU, phase 2 of a data frame: its ack, nack and delivery.
    RxPhase2(RxPhase2),
    /// tx CPU: the send request for message `u64`, with the descriptors
    /// it re-arms.
    Send(u64, Vec<RecvDesc>),
    /// rx CPU: insert posted descriptors.
    Insert(Vec<RecvDesc>),
    /// A send's completion reaches the host.
    SendDone(SendState),
    /// A pooled message's match reaches its descriptor's host.
    PoolDeliver(RecvState, RecvMsg),
    /// The hold of the final ack of message `u64` to a station ends.
    HoldEnds(MacAddr, u64),
    /// A message's retransmission timer fires (a guarded timer: a
    /// cancelled one is discarded instead).
    Retransmit {
        msg_id: u64,
        acked_snapshot: u32,
        since_ns: u64,
        guard: TimerGuard,
    },
    /// rx CPU: unpost a descriptor.
    Unpost(DescId),
}

impl NicCore {
    fn new(mac: MacAddr, cfg: EmpConfig, weak: &Weak<NicCore>) -> NicCore {
        NicCore {
            tigon: Tigon::new(mac, cfg.nic.clone()),
            cfg,
            state: RefCell::new(NicState {
                next_msg_id: 0,
                next_desc_id: 0,
                tx: IdMap::default(),
                tx_order: VecDeque::new(),
                tx_inflight: 0,
                rtt: IdMap::default(),
                rides: AckRides::default(),
                preposted: Vec::new(),
                rearming: IdMap::default(),
                active: IdMap::default(),
                unexpected_capacity: 0,
                unexpected_in_use: 0,
                pool: VecDeque::new(),
                pending_unexpected: IdMap::default(),
                recent_done: IdMap::default(),
                recent_done_order: VecDeque::new(),
                stats: EmpStats::default(),
                msg_latency: None,
            }),
            fw: FwProfile::default(),
            work: RefCell::default(),
            tx_frames: Cell::default(),
            self_ref: weak.clone(),
        }
    }

    /// Station address.
    pub fn mac(&self) -> MacAddr {
        self.tigon.mac()
    }

    /// Protocol configuration.
    pub fn cfg(&self) -> &EmpConfig {
        &self.cfg
    }

    /// The underlying NIC hardware (to attach the link, read CPU stats).
    pub fn tigon(&self) -> &Tigon {
        &self.tigon
    }

    /// Snapshot of the protocol counters (including the hardware-level
    /// injected-fault counts kept by the Tigon).
    pub fn stats(&self) -> EmpStats {
        let mut stats = self.state.borrow().stats.clone();
        let (ring_drops, dma_delays) = self.tigon.fault_counts();
        stats.nic_rx_ring_drops = ring_drops;
        stats.nic_dma_delays = dma_delays;
        stats.rx_fw = self.fw.rx();
        stats.tx_fw = self.fw.tx();
        stats
    }

    /// Switch NIC-level ack piggy-backing (DESIGN §8): a message of at most
    /// `ack_window` frames that completes with no hole may hold its ack for
    /// up to half the SRTT to its sender, to ride on a data frame going
    /// back, when the conversation with that peer alternates. Off until
    /// set; the sockets substrate sets it from
    /// `SubstrateConfig::piggyback_acks` when it binds.
    pub fn set_piggyback_acks(&self, on: bool) {
        self.state.borrow_mut().rides.on = on;
    }

    /// Whether NIC-level ack piggy-backing is on.
    pub fn piggyback_acks(&self) -> bool {
        self.state.borrow().rides.on
    }

    /// Charge `cost` of firmware time to task kind `kind`; returns `cost`.
    fn charge(&self, kind: Fw, cost: SimDuration) -> SimDuration {
        let ns = &self.fw.0[kind as usize];
        ns.set(ns.get() + cost.nanos());
        cost
    }

    /// Pre-posted descriptors currently on the NIC.
    pub fn preposted_len(&self) -> usize {
        self.state.borrow().preposted.len()
    }

    /// Diagnostic snapshot of the pre-posted descriptor list:
    /// `(tag, source filter, capacity)` in walk order.
    pub fn debug_preposted(&self) -> Vec<(Tag, Option<MacAddr>, usize)> {
        self.state
            .borrow()
            .preposted
            .iter()
            .map(|d| (d.tag, d.src_filter, d.capacity))
            .collect()
    }

    /// Diagnostic: live transmit records plus the global in-flight count.
    pub fn debug_tx(&self) -> (Vec<TxRecordView>, u32) {
        let st = self.state.borrow();
        let mut v: Vec<_> = st
            .tx
            .iter()
            .map(|(id, r)| (*id, r.acked, r.next_to_send, r.num_frames, r.retries))
            .collect();
        v.sort_unstable();
        (v, st.tx_inflight)
    }

    /// Diagnostic: the retransmission timeout toward `peer` and the
    /// smoothed RTT it is built from (`None` until the first sample).
    pub fn rtt(&self, peer: MacAddr) -> (SimDuration, Option<SimDuration>) {
        let est = self.state.borrow().rtt.get(&peer).copied();
        let srtt = est.map(|(srtt, _)| SimDuration::from_nanos(srtt));
        (self.timeout(est, 0), srtt)
    }

    /// RTO = max(floor, SRTT + 4·RTTVAR), ×2 per fruitless round (≤ 2^5).
    fn timeout(&self, est: Option<(u64, u64)>, retries: u32) -> SimDuration {
        let floor = self.cfg.retransmit_timeout;
        let rto = est.map_or(floor, |(srtt, var)| SimDuration::from_nanos(srtt + 4 * var));
        floor.max(rto) * 2u64.pow(retries.min(5))
    }

    /// Book a task on `cpu`, starting no earlier than `earliest`, whose
    /// end does `work`; returns the task's end.
    fn task(
        &self,
        cpu: &FirmwareCpu,
        s: &dyn SimAccess,
        earliest: SimTime,
        cost: SimDuration,
        work: NicWork,
    ) -> SimTime {
        let slot = self.work.borrow_mut().insert(work);
        cpu.exec_fire_at(s, earliest, cost, self.rc(), slot)
    }

    /// Do `work` `after` from now, in an event of class `class`.
    fn after(&self, s: &dyn SimAccess, after: SimDuration, class: EventClass, work: NicWork) {
        let slot = self.work.borrow_mut().insert(work);
        s.schedule_fire(s.now() + after, class, self.rc(), slot);
    }

    fn rc(&self) -> Rc<NicCore> {
        self.self_ref
            .upgrade()
            .expect("a NicCore is always Rc-owned")
    }

    /// First-send telemetry hookup: grab the shared per-message latency
    /// histogram and publish this NIC's queue-occupancy gauges as sampled
    /// series. The testbed builds NICs before any `Sim` exists, so this
    /// runs lazily with the first `SimAccess` we see.
    fn ensure_telemetry(&self, s: &dyn SimAccess) {
        if self.state.borrow().msg_latency.is_some() {
            return;
        }
        let reg = s.telemetry();
        let hist = reg.histogram("emp.msg_latency_ns");
        let mac = self.mac().0;
        for (series, read) in [
            (
                "tx_inflight",
                Box::new(|st: &NicState| st.tx_inflight as i64) as Box<dyn Fn(&NicState) -> i64>,
            ),
            (
                "preposted",
                Box::new(|st: &NicState| st.preposted.len() as i64),
            ),
            (
                "uq_used",
                Box::new(|st: &NicState| st.unexpected_in_use as i64),
            ),
        ] {
            let weak = self.self_ref.clone();
            reg.register_sampled(&format!("emp.n{mac}.{series}"), move |_| {
                let nic = weak.upgrade()?;
                let st = nic.state.try_borrow().ok()?;
                Some(read(&st))
            });
        }
        self.state.borrow_mut().msg_latency = Some(hist);
    }

    /// Record a trace event stamped with this NIC's station id. Compiles
    /// to nothing without the `trace` feature.
    fn trace(&self, s: &dyn SimAccess, kind: EventKind, a: u64, b: u64) {
        self.trace_at(s, s.now(), kind, a, b);
    }

    /// [`NicCore::trace`] stamped at `at`: the end of a task booked now.
    fn trace_at(&self, s: &dyn SimAccess, at: SimTime, kind: EventKind, a: u64, b: u64) {
        if emp_trace::ENABLED {
            s.tracer()
                .emit(at.nanos(), self.mac().0, emp_trace::NO_CONN, kind, a, b);
        }
    }

    // ------------------------------------------------------------------
    // Transmit path
    // ------------------------------------------------------------------

    /// Accept a host send request (T1 has already been paid by the host;
    /// this starts the firmware side). Returns the send's host-visible
    /// state, and that of each receive descriptor in `rearms`: the tx CPU
    /// parses the request, inserts those descriptors at `rx_post_cost`
    /// each and matches the unexpected pool against them before the
    /// message's first frame is released — so a credit the message
    /// returns can never reach the peer ahead of the descriptor it pays
    /// for.
    pub fn start_send(
        &self,
        s: &dyn SimAccess,
        dst: MacAddr,
        tag: Tag,
        data: MsgBuf,
        no_uq: bool,
        rearms: Vec<DescSpec>,
    ) -> (SendState, Vec<(DescId, RecvState)>) {
        self.ensure_telemetry(s);
        let state = SendState::new();
        let (msg_id, descs) = {
            let mut st = self.state.borrow_mut();
            let descs: Vec<RecvDesc> = rearms.into_iter().map(|d| st.new_desc(d)).collect();
            for d in &descs {
                st.rearming.insert(d.id, false);
            }
            let msg_id = st.next_msg_id;
            st.next_msg_id += 1;
            let num_frames = frames_for(data.len());
            st.tx.insert(
                msg_id,
                TxRecord {
                    dst,
                    tag,
                    data,
                    no_uq,
                    num_frames,
                    posted_ns: s.now().nanos(),
                    next_to_send: 0,
                    acked: 0,
                    held: 0,
                    resent: 0,
                    sent_hi: 0,
                    timed: None,
                    retries: 0,
                    timer: None,
                    state: state.clone(),
                },
            );
            (msg_id, descs)
        };
        let handles = descs.iter().map(|d| (d.id, d.state.clone())).collect();
        let earliest = s.now() + self.cfg.nic.pci_post_latency;
        let cost = self.charge(Fw::TxRequest, self.cfg.nic.tx_request_cost)
            + self.charge(Fw::TxRearm, self.cfg.rx_post_cost * descs.len() as u64);
        let work = NicWork::Send(msg_id, descs);
        self.task(&self.tigon.cpu_tx, s, earliest, cost, work);
        (state, handles)
    }

    /// The tx CPU takes message `msg_id`'s send request: it inserts the
    /// descriptors the send re-arms, then queues the message for release.
    fn send_request(&self, sim: &Sim, msg_id: u64, descs: Vec<RecvDesc>) {
        if !descs.is_empty() {
            self.insert_descriptors(sim, descs);
        }
        self.state.borrow_mut().tx_order.push_back(msg_id);
        self.release_tx(sim, Vec::new());
    }

    /// Release frames to the wire, respecting the per-NIC transmit window:
    /// at most `tx_window_frames` outstanding frames (released, neither
    /// acknowledged nor held by the receiver) exist across all messages.
    /// Messages release in FIFO order, which keeps the receiver's
    /// processing backlog (and therefore ack lag) bounded — the
    /// reliability window of a NIC-driven protocol. `resends` (holes the
    /// window already counts) go first. Each frame's tx CPU task (DMA
    /// fetch, header, MAC hand-off) is booked, and the frame goes on the
    /// link at once as of the task's end: its content was fixed here.
    fn release_tx(&self, sim: &Sim, resends: Vec<Frame>) {
        let window = self.cfg.tx_window_frames;
        let now = sim.now().nanos();
        let mut to_schedule = self.tx_frames.take();
        to_schedule.extend(resends);
        {
            let mut guard = self.state.borrow_mut();
            let st = &mut *guard;
            while st.tx_inflight < window {
                let Some(&msg_id) = st.tx_order.front() else {
                    break;
                };
                // Stagger retransmission rounds: shrink the round size by
                // the retry count (mod 4) so a deterministic protocol
                // cannot phase-lock with a periodic loss pattern whose
                // period divides the round size.
                let stagger = st.tx.get(&msg_id).map_or(0, |r| r.retries % 4);
                let effective = window.saturating_sub(stagger).max(1);
                if st.tx_inflight >= effective {
                    break;
                }
                let budget = effective - st.tx_inflight;
                let Some(rec) = st.tx.get_mut(&msg_id) else {
                    // Abandoned message still queued for release.
                    st.tx_order.pop_front();
                    continue;
                };
                // Held fragments are skipped and cost no budget; the send
                // pointer moves past any that end the released range.
                let mut released = 0;
                let mut idx = rec.next_to_send;
                while idx < rec.num_frames {
                    if rec.held & rec.bit(idx) == 0 {
                        if released == budget {
                            break;
                        }
                        if rec.note_send(idx, now) {
                            st.stats.frames_retransmitted += 1;
                        }
                        let ack = st.rides.board(rec.dst, rec.chunk_len(idx));
                        st.stats.acks_piggybacked += u64::from(ack.is_some());
                        to_schedule.push(self.data_frame(msg_id, rec, idx, ack));
                        released += 1;
                    }
                    idx += 1;
                }
                rec.next_to_send = idx;
                let fully_released = rec.next_to_send == rec.num_frames;
                if rec.timer.is_none() && rec.next_to_send > rec.acked {
                    let guard = rec.timer.insert(TimerGuard::new()).clone();
                    // Arming only schedules an event; safe under the lock.
                    let floor = self.cfg.retransmit_timeout;
                    self.arm_retransmit_timer(sim, msg_id, rec.acked, now, floor, guard);
                }
                st.tx_inflight += released;
                if fully_released {
                    st.tx_order.pop_front();
                } else {
                    break; // window exhausted mid-message
                }
            }
        }
        for frame in to_schedule.drain(..) {
            let wire_len = frame.payload.wire_len();
            let dma = self.cfg.nic.dma_time(wire_len);
            // Injected NIC fault: the frame's DMA fetch may stall behind
            // (simulated) PCI contention.
            let stall = self.tigon.inject_dma_delay();
            if !stall.is_zero() {
                self.trace(sim, EventKind::NicFault, 1, stall.nanos());
            }
            let cost = self.charge(Fw::TxFrame, dma + self.cfg.nic.tx_frame_cost + stall);
            let done = self.tigon.cpu_tx.book(sim, cost);
            if emp_trace::ENABLED {
                self.trace_at(sim, done, EventKind::DmaCopy, wire_len as u64, dma.nanos());
                self.trace_at(sim, done, EventKind::NicTxWire, wire_len as u64, 0);
            }
            self.tigon.send_frame(sim, done, frame);
        }
        self.tx_frames.set(to_schedule);
    }

    /// Data frame `idx` of message `msg_id`, carrying `ack` if one boarded.
    fn data_frame(&self, msg_id: u64, rec: &TxRecord, idx: u32, ack: Option<Ack>) -> Frame {
        let (a, b) = chunk_range(rec.data.len(), idx);
        Frame {
            src: self.mac(),
            dst: rec.dst,
            ethertype: EtherType::EMP,
            payload: wire_payload(EmpWire::Data {
                msg_id,
                tag: rec.tag,
                frame_idx: idx,
                num_frames: rec.num_frames,
                total_len: rec.data.len() as u32,
                no_uq: rec.no_uq,
                chunk: rec.data.part(a, b),
                ack,
            }),
        }
    }

    /// The per-message retransmission timer: checks for ack progress every
    /// `retransmit_timeout` while the record lives. A silence since
    /// `since_ns` that outlasts the backed-off RTO rewinds the send
    /// pointer to the acknowledged prefix and releases what is not held.
    /// The record's `guard` cancels the pending check when the record
    /// goes (final ack or refusal), so a finished message costs no event.
    fn arm_retransmit_timer(
        &self,
        s: &dyn SimAccess,
        msg_id: u64,
        acked_snapshot: u32,
        since_ns: u64,
        delay: SimDuration,
        guard: TimerGuard,
    ) {
        let work = NicWork::Retransmit {
            msg_id,
            acked_snapshot,
            since_ns,
            guard: guard.clone(),
        };
        let slot = self.work.borrow_mut().insert(work);
        s.schedule_guarded_fire(s.now() + delay, guard, self.rc(), slot);
    }

    /// The retransmission timer armed by [`NicCore::arm_retransmit_timer`]
    /// fires: re-arm on progress or a silence shorter than the RTO, give
    /// up past the retry limit, or rewind and resend.
    fn retransmit_check(
        &self,
        sim: &Sim,
        msg_id: u64,
        acked_snapshot: u32,
        since_ns: u64,
        guard: TimerGuard,
    ) {
        enum Action {
            Rearm(u32, u64, SimDuration),
            Fail(SendState),
            Retransmit(SimDuration, u32, u32),
        }
        let now = sim.now().nanos();
        let action = {
            let mut locked = self.state.borrow_mut();
            let st = &mut *locked;
            let Some(rec) = st.tx.get_mut(&msg_id) else {
                return; // abandoned by an earlier round of this timer
            };
            let due = self.timeout(st.rtt.get(&rec.dst).copied(), rec.retries);
            if rec.acked > acked_snapshot {
                // Progress since the last arming: not a loss, reset the
                // backoff and keep watching.
                rec.retries = 0;
                Action::Rearm(rec.acked, now, self.cfg.retransmit_timeout)
            } else if now - since_ns < due.nanos() {
                // Silent, but not for a whole RTO: maybe only slow.
                let rest = SimDuration::from_nanos(since_ns + due.nanos() - now);
                Action::Rearm(acked_snapshot, since_ns, rest)
            } else {
                rec.retries += 1;
                if rec.retries > self.cfg.max_retries {
                    let rec = st.tx.remove(&msg_id).expect("present above");
                    st.stats.sends_failed += 1;
                    // The abandoned message's outstanding frames leave the
                    // in-flight window with it.
                    st.tx_inflight -= rec.outstanding();
                    // Drop any queued release entry for this message.
                    st.tx_order.retain(|&id| id != msg_id);
                    Action::Fail(rec.state)
                } else {
                    st.tx_inflight -= rec.rewind();
                    let (retries, acked) = (rec.retries, rec.acked);
                    if !st.tx_order.contains(&msg_id) {
                        st.tx_order.push_front(msg_id);
                    }
                    let backoff = self.timeout(st.rtt.get(&rec.dst).copied(), retries);
                    Action::Retransmit(backoff, acked, retries)
                }
            }
        };
        match action {
            Action::Rearm(acked, since, delay) => {
                self.arm_retransmit_timer(sim, msg_id, acked, since, delay, guard)
            }
            Action::Fail(state) => state.finish(sim, false, false),
            Action::Retransmit(backoff, acked, retries) => {
                self.trace(sim, EventKind::Retransmit, u64::from(retries), msg_id);
                self.arm_retransmit_timer(sim, msg_id, acked, now, backoff, guard);
                self.release_tx(sim, Vec::new());
            }
        }
    }

    /// Apply a peer's ack; `attached` when it rode on a data frame.
    fn process_ack(&self, sim: &Sim, ack: Ack, attached: bool) {
        let Ack {
            msg_id,
            frames,
            sack,
        } = ack;
        let now = sim.now().nanos();
        let mut resends = Vec::new();
        let finished = {
            let mut guard = self.state.borrow_mut();
            let st = &mut *guard;
            st.stats.acks_piggybacked_received += u64::from(attached);
            let Some(rec) = st.tx.get_mut(&msg_id) else {
                return; // duplicate ack after completion
            };
            let (freed, holes) = rec.on_ack(frames, sack);
            st.tx_inflight -= freed;
            if let Some(sample) = rec.take_rtt_sample(now) {
                let est = rtt_update(st.rtt.get(&rec.dst).copied(), sample);
                st.rtt.insert(rec.dst, est);
            }
            // Resend each hole now; it already counts in the window.
            for bit in (0..u64::BITS).filter(|b| holes >> b & 1 != 0) {
                let idx = rec.acked + bit;
                rec.note_send(idx, now);
                let ack = st.rides.board(rec.dst, rec.chunk_len(idx));
                st.stats.acks_piggybacked += u64::from(ack.is_some());
                resends.push(self.data_frame(msg_id, rec, idx, ack));
            }
            st.stats.frames_retransmitted += resends.len() as u64;
            st.stats.fast_retransmits += resends.len() as u64;
            if rec.acked >= rec.num_frames {
                let rec = st.tx.remove(&msg_id).expect("present above");
                rec.cancel_timer();
                st.stats.msgs_sent += 1;
                st.tx_order.retain(|&id| id != msg_id);
                if let Some(h) = &st.msg_latency {
                    h.record(now.saturating_sub(rec.posted_ns));
                }
                Some(rec.state)
            } else {
                None
            }
        };
        if let Some(state) = finished {
            // The completion is host-visible only after the status DMA.
            let post = self.cfg.nic.completion_post;
            self.after(sim, post, EventClass::Other, NicWork::SendDone(state));
        }
        self.release_tx(sim, resends);
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Host posts a receive descriptor (R1/R2 already paid host-side).
    /// The descriptor becomes matchable once the rx CPU inserts it — and
    /// the *insert* first scans the unexpected queue, serialized with
    /// frame processing on the rx CPU, so a message that raced ahead of
    /// the descriptor is claimed in order rather than stranded in the
    /// pool. (The host pays the staging copy when it collects the
    /// message; see `EmpEndpoint::wait_recv`.)
    pub fn post_descriptor(
        &self,
        s: &dyn SimAccess,
        tag: Tag,
        src_filter: Option<MacAddr>,
        capacity: usize,
    ) -> (DescId, RecvState) {
        self.post_descriptors(s, [(tag, src_filter, capacity)])
            .pop()
            .expect("one descriptor posted")
    }

    /// Post a batch of `(tag, src filter, capacity)` descriptors behind a
    /// single doorbell: the rx CPU runs one insert task costing
    /// `rx_post_cost` per descriptor, inserts them in order, and scans the
    /// unexpected queue once — the PCI post latency and the pool walk are
    /// amortized over the batch. A batch of one costs exactly what
    /// [`NicCore::post_descriptor`] costs.
    pub fn post_descriptors(
        &self,
        s: &dyn SimAccess,
        specs: impl IntoIterator<Item = DescSpec>,
    ) -> Vec<(DescId, RecvState)> {
        let descs: Vec<RecvDesc> = {
            let mut st = self.state.borrow_mut();
            specs.into_iter().map(|d| st.new_desc(d)).collect()
        };
        if descs.is_empty() {
            return Vec::new();
        }
        let out = descs.iter().map(|d| (d.id, d.state.clone())).collect();
        let earliest = s.now() + self.cfg.nic.pci_post_latency;
        let cost = self.charge(Fw::RxPost, self.cfg.rx_post_cost * descs.len() as u64);
        self.task(
            &self.tigon.cpu_rx,
            s,
            earliest,
            cost,
            NicWork::Insert(descs),
        );
        out
    }

    /// The firmware's descriptor insert: append `descs` to the pre-posted
    /// list in order, then claim whatever the unexpected pool holds for
    /// them. A re-armed descriptor the host unposted before this ran is
    /// completed as unposted instead.
    fn insert_descriptors(&self, sim: &Sim, descs: Vec<RecvDesc>) {
        if descs.len() > 1 {
            self.trace(sim, EventKind::DescPostBatch, descs.len() as u64, 0);
        }
        for d in descs {
            let unposted = self.state.borrow_mut().rearming.remove(&d.id) == Some(true);
            if unposted {
                self.trace(sim, EventKind::DescUnpost, d.id, 0);
                *d.state.slot.borrow_mut() = Some(None);
                d.state.completion.complete(sim);
                continue;
            }
            self.trace(sim, EventKind::DescPost, d.id, d.capacity as u64);
            self.state.borrow_mut().preposted.push(d);
        }
        self.drain_pool_matches(sim);
    }

    /// Host explicitly unposts a descriptor (§4.2: "every descriptor is
    /// required to be either used for a message or explicitly unposted").
    /// The descriptor's recv state completes with `None`.
    pub fn unpost_descriptor(&self, s: &dyn SimAccess, id: DescId) {
        let earliest = s.now() + self.cfg.nic.pci_post_latency;
        let cost = self.charge(Fw::RxPost, self.cfg.rx_post_cost);
        self.task(&self.tigon.cpu_rx, s, earliest, cost, NicWork::Unpost(id));
    }

    /// The rx CPU takes an unpost: the descriptor leaves the pre-posted
    /// list and completes empty.
    fn unpost(&self, sim: &Sim, id: DescId) {
        let state = {
            let mut st = self.state.borrow_mut();
            let pos = st.preposted.iter().position(|d| d.id == id);
            if pos.is_none() {
                // A re-arm still queued on the tx CPU: it completes as
                // unposted when that CPU reaches it.
                if let Some(unposted) = st.rearming.get_mut(&id) {
                    *unposted = true;
                }
            }
            pos.map(|p| st.preposted.remove(p).state)
        };
        if let Some(state) = state {
            self.trace(sim, EventKind::DescUnpost, id, 0);
            *state.slot.borrow_mut() = Some(None);
            state.completion.complete(sim);
        }
    }

    /// Resize the unexpected queue (number of in-flight-or-unclaimed
    /// unexpected messages the NIC will hold).
    pub fn set_unexpected_slots(&self, s: &dyn SimAccess, slots: usize) {
        let me = self.rc();
        let earliest = s.now() + self.cfg.nic.pci_post_latency;
        let cost = self.charge(Fw::RxUqResize, self.cfg.rx_post_cost);
        self.tigon.cpu_rx.exec_at(s, earliest, cost, move |_| {
            me.state.borrow_mut().unexpected_capacity = slots;
        });
    }

    /// Host-side claim of a pooled unexpected message matching `(tag, src)`.
    /// Returns the message; the caller charges the extra copy cost.
    pub fn claim_unexpected(&self, tag: Tag, src_filter: Option<MacAddr>) -> Option<RecvMsg> {
        let mut st = self.state.borrow_mut();
        let pos = st
            .pool
            .iter()
            .position(|m| m.tag == tag && src_filter.is_none_or(|s| s == m.src))?;
        let msg = st.pool.remove(pos).expect("position just found");
        st.unexpected_in_use -= 1;
        Some(msg)
    }

    /// Classification + matching, at the completion of the first rx CPU
    /// phase. Returns the work for the second phase.
    fn rx_match(&self, sim: &Sim, frame: &Frame, wire: &EmpWire) -> RxPhase2 {
        let EmpWire::Data {
            msg_id,
            tag,
            frame_idx,
            num_frames,
            total_len,
            no_uq,
            chunk,
            ack: carried,
        } = wire
        else {
            unreachable!("rx_match is only called for data frames");
        };
        let src = frame.src;
        let mut st = self.state.borrow_mut();
        let key = (src, *msg_id);
        let ack_to_src = |(frames, sack)| {
            let ack = Ack {
                msg_id: *msg_id,
                frames,
                sack,
            };
            (src, ack)
        };

        // A duplicate of a message that already completed (its final ack
        // was lost): re-acknowledge the full count so the sender finishes.
        if let Some(&frames) = st.recent_done.get(&key) {
            return RxPhase2 {
                ack: Some(ack_to_src((frames, 0))),
                ..RxPhase2::default()
            };
        }

        // Fragments of an already-bound message skip the walk (the match
        // is recorded in the receive data structures, R4). Fragments may
        // arrive out of order after loss; each lands at its own offset.
        if let Some(active) = st.active.get_mut(&key) {
            let (dup, done) = active.store(*frame_idx, chunk);
            if dup {
                // Retransmission overlap: nothing stored; re-ack so the
                // sender advances.
                return RxPhase2 {
                    ack: Some(ack_to_src((active.contiguous, active.sack()))),
                    ..RxPhase2::default()
                };
            }
            let ack = active.ack_due(self.cfg.ack_window, done).map(ack_to_src);
            if done {
                let active = st.active.remove(&key).expect("present above");
                let hold = self.ack_hold(&mut st, src, &active, carried.is_some());
                let phase2 = self.finish_recv(&mut st, key, *tag, active, chunk.len(), ack);
                return RxPhase2 { hold, ..phase2 };
            }
            return RxPhase2 {
                dma_bytes: chunk.len(),
                ack,
                ..RxPhase2::default()
            };
        }

        // First fragment seen for this message (not necessarily index 0 —
        // every fragment carries the tag and totals): walk the pre-posted
        // list (R4). A descriptor matches on tag, optional source filter,
        // and sufficient capacity.
        //
        // Lane FIFO: if an *earlier* message of the same (tag, source)
        // lane is still in the unexpected queue (parked or mid-DMA), this
        // message must queue behind it rather than overtake it into a
        // descriptor — otherwise a stream's bytes reorder whenever its
        // first messages raced ahead of the descriptors.
        let lane_blocked = st.pool.iter().any(|m| m.tag == *tag && m.src == src)
            || st
                .pending_unexpected
                .get(&(src, *tag))
                .is_some_and(|&n| n > 0)
            || st.active.iter().any(|(k, a)| {
                k.0 == src && a.tag == *tag && matches!(a.dest, RecvDest::Unexpected)
            });
        let mut walked = 0usize;
        let mut found = None;
        if !lane_blocked {
            for (i, d) in st.preposted.iter().enumerate() {
                walked = i + 1;
                if d.tag == *tag
                    && d.src_filter.is_none_or(|f| f == src)
                    && d.capacity >= *total_len as usize
                {
                    found = Some(i);
                    break;
                }
            }
        } else {
            // The matcher still walks the whole list before falling back.
            walked = st.preposted.len();
        }
        st.stats.descriptors_walked += walked as u64;

        let dest = match found {
            Some(i) => {
                let desc = st.preposted.remove(i);
                self.trace(sim, EventKind::DescConsume, desc.id, u64::from(*total_len));
                RecvDest::Desc(desc.state)
            }
            None if *no_uq => {
                // A no-park message matched nothing: refuse it outright.
                // This is the admission-control path — a connection
                // request hitting a full backlog (or no listener) fails
                // deterministically at the requester instead of camping
                // in the unexpected queue.
                st.stats.frames_dropped += 1;
                if emp_trace::ENABLED {
                    self.trace(sim, EventKind::FrameDrop, chunk.len() as u64, 0);
                }
                return RxPhase2 {
                    walked,
                    nack: Some((src, *msg_id, false)),
                    ..RxPhase2::default()
                };
            }
            None => {
                // Unexpected queue: checked after the whole pre-posted list.
                if st.unexpected_in_use < st.unexpected_capacity {
                    st.unexpected_in_use += 1;
                    st.stats.descriptors_walked += 1;
                    self.trace(sim, EventKind::UqHit, u64::from(*total_len), 0);
                    RecvDest::Unexpected
                } else {
                    // Transient exhaustion: the frame is lost, but the
                    // sender hears an explicit busy NACK (backpressure)
                    // instead of waiting out its retransmission timer.
                    st.stats.frames_dropped += 1;
                    if emp_trace::ENABLED {
                        self.trace(sim, EventKind::UqOverflow, u64::from(*total_len), 0);
                        self.trace(sim, EventKind::FrameDrop, chunk.len() as u64, 0);
                    }
                    return RxPhase2 {
                        walked,
                        nack: Some((src, *msg_id, true)),
                        ..RxPhase2::default()
                    };
                }
            }
        };

        let mut active = ActiveRecv::new(*tag, *num_frames, *total_len, dest);
        let (_dup, done) = active.store(*frame_idx, chunk);
        let ack = active.ack_due(self.cfg.ack_window, done).map(ack_to_src);
        if done {
            let hold = self.ack_hold(&mut st, src, &active, carried.is_some());
            let phase2 = self.finish_recv(&mut st, key, *tag, active, chunk.len(), ack);
            return RxPhase2 { hold, ..phase2 };
        }
        st.active.insert(key, active);
        RxPhase2 {
            walked,
            dma_bytes: chunk.len(),
            ack,
            ..RxPhase2::default()
        }
    }

    /// How long the final ack of `active`, just completed from `src`, may
    /// wait to ride on a data frame going back (DESIGN §8): only with the
    /// switch on, for a message of at most `ack_window` frames that never
    /// had a hole, and only when a data frame back is likely soon — this
    /// NIC sent to `src` since the last message from it completed, or the
    /// final frame itself carried an ack (`carried_ack`). At most half the
    /// SRTT to `src`; no estimate, no hold.
    fn ack_hold(
        &self,
        st: &mut NicState,
        src: MacAddr,
        active: &ActiveRecv,
        carried_ack: bool,
    ) -> Option<SimDuration> {
        if !st.rides.on {
            return None;
        }
        let alternating = st.rides.sent_since_done.remove(&src) || carried_ack;
        let short = active.clean && active.num_frames <= self.cfg.ack_window;
        let &(srtt, _) = st.rtt.get(&src).filter(|_| alternating && short)?;
        Some(SimDuration::from_nanos(srtt / 2))
    }

    fn finish_recv(
        &self,
        st: &mut NicState,
        key: (MacAddr, u64),
        tag: Tag,
        active: ActiveRecv,
        last_chunk: usize,
        ack: Option<(MacAddr, Ack)>,
    ) -> RxPhase2 {
        debug_assert_eq!(active.prefix.len(), active.total_len as usize);
        st.stats.msgs_received += 1;
        // Remember the completion so late duplicates are re-acked.
        st.recent_done.insert(key, active.num_frames);
        st.recent_done_order.push_back(key);
        if st.recent_done_order.len() > RECENT_DONE_CAP {
            let old = st.recent_done_order.pop_front().expect("nonempty");
            st.recent_done.remove(&old);
        }
        let (src, _) = key;
        let walked = 0; // walk already accounted when the message bound
        let data = active.prefix;
        let deliver = match active.dest {
            RecvDest::Desc(state) => Deliver::Host {
                state,
                msg: RecvMsg {
                    src,
                    tag,
                    data,
                    from_unexpected: false,
                },
            },
            RecvDest::Unexpected => {
                st.stats.unexpected_msgs += 1;
                *st.pending_unexpected.entry((src, tag)).or_insert(0) += 1;
                Deliver::Pool(RecvMsg {
                    src,
                    tag,
                    data,
                    from_unexpected: true,
                })
            }
        };
        RxPhase2 {
            walked,
            dma_bytes: last_chunk,
            ack,
            deliver: Some(deliver),
            ..RxPhase2::default()
        }
    }

    /// Finalize a message that went through the unexpected path: park it
    /// in the pool, then run the matcher — a descriptor posted while the
    /// message was in flight through the DMA engine takes it.
    fn finalize_unexpected(&self, sim: &Sim, msg: RecvMsg) {
        {
            let mut st = self.state.borrow_mut();
            let key = (msg.src, msg.tag);
            if let Some(n) = st.pending_unexpected.get_mut(&key) {
                *n -= 1;
                if *n == 0 {
                    st.pending_unexpected.remove(&key);
                }
            }
            st.pool.push_back(msg);
        }
        self.drain_pool_matches(sim);
    }

    /// Match pooled unexpected messages against pre-posted descriptors.
    /// Runs on descriptor insertion and on unexpected-message completion,
    /// always serialized on the rx CPU; messages are considered in pool
    /// (arrival) order and descriptors in post order, so each traffic lane
    /// `(tag, src)` completes its descriptors in order — as long as a
    /// lane's descriptor capacities are uniform, which the substrate
    /// guarantees per connection.
    fn drain_pool_matches(&self, sim: &Sim) {
        loop {
            let delivered = {
                let mut st = self.state.borrow_mut();
                let mut found = None;
                'outer: for (mi, m) in st.pool.iter().enumerate() {
                    for (di, d) in st.preposted.iter().enumerate() {
                        if d.tag == m.tag
                            && d.src_filter.is_none_or(|f| f == m.src)
                            && d.capacity >= m.data.len()
                        {
                            found = Some((mi, di));
                            break 'outer;
                        }
                    }
                }
                match found {
                    Some((mi, di)) => {
                        let msg = st.pool.remove(mi).expect("index just found");
                        let desc = st.preposted.remove(di);
                        st.unexpected_in_use -= 1;
                        self.trace(sim, EventKind::DescConsume, desc.id, msg.data.len() as u64);
                        Some((desc.state, msg))
                    }
                    None => None,
                }
            };
            let Some((state, msg)) = delivered else { break };
            let post = self.cfg.nic.completion_post;
            let work = NicWork::PoolDeliver(state, msg);
            self.after(sim, post, EventClass::Other, work);
        }
    }

    /// Hand `msg` to the host that posted the descriptor `state` belongs
    /// to.
    fn deliver_to_host(&self, sim: &Sim, state: RecvState, msg: RecvMsg) {
        self.trace(sim, EventKind::RecvDeliver, msg.data.len() as u64, 0);
        *state.slot.borrow_mut() = Some(Some(msg));
        state.completion.complete(sim);
    }

    /// Put an ack on the wire. Like every frame this NIC sends, it is
    /// booked on the tx CPU and leaves as of the task's end, so frames
    /// reach the link in the CPU's order.
    fn send_ack(&self, sim: &Sim, dst: MacAddr, ack: Ack) {
        self.state.borrow_mut().stats.acks_sent += 1;
        let frame = Frame {
            src: self.mac(),
            dst,
            ethertype: EtherType::EMP,
            payload: wire_payload(EmpWire::Ack(ack)),
        };
        let cost = self.charge(Fw::TxAck, self.cfg.nic.ack_cost);
        let done = self.tigon.cpu_tx.book(sim, cost);
        self.tigon.send_frame(sim, done, frame);
    }

    /// Hold `ack` for at most `hold` to board the next data frame to `dst`
    /// with room for it; if none leaves in time it goes as a frame of its
    /// own.
    fn hold_ack(&self, sim: &Sim, dst: MacAddr, ack: Ack, hold: SimDuration) {
        {
            let mut st = self.state.borrow_mut();
            st.stats.acks_held += 1;
            st.rides.held.entry(dst).or_default().push_back(ack);
        }
        self.after(
            sim,
            hold,
            EventClass::Timer,
            NicWork::HoldEnds(dst, ack.msg_id),
        );
    }

    /// The hold of the ack for `msg_id` to `dst` ends: if no data frame
    /// took it on board, it goes as a frame of its own.
    fn hold_ends(&self, sim: &Sim, dst: MacAddr, msg_id: u64) {
        let unboarded = {
            let mut st = self.state.borrow_mut();
            st.rides.held.get_mut(&dst).and_then(|held| {
                let i = held.iter().position(|a| a.msg_id == msg_id)?;
                held.remove(i)
            })
        };
        if let Some(ack) = unboarded {
            self.send_ack(sim, dst, ack);
        }
    }

    /// Put a negative acknowledgment on the wire (same tx-CPU cost as an
    /// ack — it is the same kind of firmware-generated control frame).
    fn send_nack(&self, s: &dyn SimAccess, dst: MacAddr, msg_id: u64, busy: bool) {
        self.state.borrow_mut().stats.nacks_sent += 1;
        let frame = Frame {
            src: self.mac(),
            dst,
            ethertype: EtherType::EMP,
            payload: wire_payload(EmpWire::Nack { msg_id, busy }),
        };
        let cost = self.charge(Fw::TxAck, self.cfg.nic.ack_cost);
        let done = self.tigon.cpu_tx.book(s, cost);
        self.tigon.send_frame(s, done, frame);
    }

    /// React to a peer's negative acknowledgment. `busy` is transient
    /// exhaustion: rewind the unacknowledged frames and release the ones
    /// not held again after a short pause (explicit backpressure, cheaper
    /// than waiting out the retransmission timer). `!busy` is a refusal: the send
    /// fails immediately with the `refused` flag set, which the host
    /// maps to `NetError::Refused`.
    fn process_nack(&self, sim: &Sim, msg_id: u64, busy: bool) {
        if busy {
            {
                let mut st = self.state.borrow_mut();
                st.stats.nacks_received += 1;
                let Some(rec) = st.tx.get_mut(&msg_id) else {
                    return; // already completed or abandoned
                };
                let rewound = rec.rewind();
                if rewound == 0 {
                    return; // nothing outstanding (already rewound)
                }
                st.tx_inflight -= rewound;
                if !st.tx_order.contains(&msg_id) {
                    st.tx_order.push_front(msg_id);
                }
            }
            let me = self.rc();
            let pause = SimDuration::from_nanos(self.cfg.retransmit_timeout.nanos() / 4);
            sim.timer_after(pause, move |sim| me.release_tx(sim, Vec::new()));
        } else {
            let state = {
                let mut st = self.state.borrow_mut();
                st.stats.nacks_received += 1;
                let Some(rec) = st.tx.remove(&msg_id) else {
                    return; // duplicate refusal
                };
                rec.cancel_timer();
                st.tx_inflight -= rec.outstanding();
                st.tx_order.retain(|&id| id != msg_id);
                st.stats.sends_failed += 1;
                st.stats.sends_refused += 1;
                rec.state
            };
            state.finish(sim, false, true);
            self.release_tx(sim, Vec::new());
        }
    }
}

/// Work computed by the rx matching phase, executed as the second rx task.
/// A phase 2 with nothing to report — no ack, no nack, no delivery — is
/// only booked on the rx CPU: three frames in four of a large message.
#[derive(Default)]
struct RxPhase2 {
    walked: usize,
    dma_bytes: usize,
    /// An ack to put on the wire: `(dst, ack)`.
    ack: Option<(MacAddr, Ack)>,
    /// How long `ack` may wait to ride on a data frame to `dst`.
    hold: Option<SimDuration>,
    /// A negative acknowledgment to put on the wire: `(dst, msg_id, busy)`.
    nack: Option<(MacAddr, u64, bool)>,
    deliver: Option<Deliver>,
}

impl RxPhase2 {
    fn has_effect(&self) -> bool {
        self.ack.is_some() || self.nack.is_some() || self.deliver.is_some()
    }
}

enum Deliver {
    Host { state: RecvState, msg: RecvMsg },
    Pool(RecvMsg),
}

fn wire_payload(wire: EmpWire) -> simnet::Payload {
    let len = wire.wire_len();
    simnet::Payload::new(wire, len)
}

impl FrameSink for NicCore {
    fn deliver(&self, s: &dyn SimAccess, frame: Frame) {
        if frame.ethertype != EtherType::EMP || frame.dst != self.mac() {
            return; // flooded foreign traffic; MAC filter drops it
        }
        let Some(wire) = frame.payload.downcast::<EmpWire>() else {
            return;
        };
        match *wire {
            EmpWire::Ack(ack) => {
                let cost = self.charge(Fw::RxAck, self.cfg.nic.ack_cost);
                self.task(&self.tigon.cpu_rx, s, s.now(), cost, NicWork::Ack(ack));
            }
            EmpWire::Nack { msg_id, busy } => {
                let cost = self.charge(Fw::RxAck, self.cfg.nic.ack_cost);
                let work = NicWork::Nack(msg_id, busy);
                self.task(&self.tigon.cpu_rx, s, s.now(), cost, work);
            }
            EmpWire::Data { msg_id, .. } => {
                // Injected NIC fault: the receive-descriptor ring is
                // exhausted, so the frame has nowhere to land and is lost
                // before the firmware even classifies it. The loss is no
                // longer silent: the hardware path answers with a busy
                // NACK so the sender rewinds under explicit backpressure
                // instead of waiting out its retransmission timer.
                if self.tigon.inject_rx_ring_exhausted() {
                    self.trace(s, EventKind::NicFault, 0, frame.payload.wire_len() as u64);
                    self.send_nack(s, frame.src, msg_id, true);
                    return;
                }
                self.trace(s, EventKind::NicRxStart, frame.payload.wire_len() as u64, 0);
                // Phase 1: classification + bookkeeping, fixed cost; an
                // attached ack is consumed within it.
                let cost = self.charge(Fw::RxFrame, self.cfg.nic.rx_frame_cost);
                self.task(
                    &self.tigon.cpu_rx,
                    s,
                    s.now(),
                    cost,
                    NicWork::RxFrame(frame),
                );
            }
        }
    }
}

impl EventTarget for NicCore {
    fn fire(&self, sim: &Sim, slot: u32) {
        let work = self.work.borrow_mut().take(slot);
        match work {
            NicWork::Ack(ack) => self.process_ack(sim, ack, false),
            NicWork::Nack(msg_id, busy) => self.process_nack(sim, msg_id, busy),
            NicWork::RxFrame(frame) => self.rx_phase1(sim, &frame),
            NicWork::RxPhase2(phase2) => self.rx_phase2(sim, phase2),
            NicWork::Send(msg_id, descs) => self.send_request(sim, msg_id, descs),
            NicWork::Insert(descs) => self.insert_descriptors(sim, descs),
            NicWork::SendDone(state) => state.finish(sim, true, false),
            NicWork::PoolDeliver(state, msg) => self.deliver_to_host(sim, state, msg),
            NicWork::HoldEnds(dst, msg_id) => self.hold_ends(sim, dst, msg_id),
            NicWork::Retransmit {
                msg_id,
                acked_snapshot,
                since_ns,
                guard,
            } => self.retransmit_check(sim, msg_id, acked_snapshot, since_ns, guard),
            NicWork::Unpost(id) => self.unpost(sim, id),
        }
    }

    fn discard(&self, slot: u32) {
        drop(self.work.borrow_mut().take(slot));
    }
}

impl NicCore {
    /// The end of a data frame's first rx CPU task: consume an attached
    /// ack, match the frame, and book the second task, which carries the
    /// walk and the DMA (and runs as an event only if it has an effect).
    fn rx_phase1(&self, sim: &Sim, frame: &Frame) {
        let wire = frame
            .payload
            .downcast::<EmpWire>()
            .expect("checked at arrival");
        if let EmpWire::Data { ack: Some(ack), .. } = *wire {
            self.process_ack(sim, ack, true);
        }
        let phase2 = self.rx_match(sim, frame, wire);
        let cfg = &self.cfg.nic;
        let mut dma = cfg.dma_time(phase2.dma_bytes);
        if phase2.dma_bytes > 0 {
            // Injected NIC fault: this DMA completion stalls behind
            // (simulated) PCI contention.
            let stall = self.tigon.inject_dma_delay();
            if !stall.is_zero() {
                self.trace(sim, EventKind::NicFault, 1, stall.nanos());
                dma += stall;
            }
        }
        let mut cost = self.charge(Fw::RxWalk, cfg.tag_match_time(phase2.walked))
            + self.charge(Fw::RxDma, dma);
        if matches!(phase2.deliver, Some(Deliver::Host { .. })) {
            cost += self.charge(Fw::RxCompletion, cfg.completion_post);
        }
        // Phase 2: tag-match walk + DMA to host (+ status post), still
        // serial on the rx CPU — this serial chain is EMP's large-message
        // bottleneck.
        let dma_bytes = phase2.dma_bytes;
        let done = if phase2.has_effect() {
            let work = NicWork::RxPhase2(phase2);
            self.task(&self.tigon.cpu_rx, sim, sim.now(), cost, work)
        } else {
            self.tigon.cpu_rx.book(sim, cost)
        };
        if emp_trace::ENABLED && dma_bytes > 0 {
            let bytes = dma_bytes as u64;
            self.trace_at(sim, done, EventKind::DmaCopy, bytes, dma.nanos());
        }
    }

    /// The end of a receive's second rx CPU task: its ack (sent or held),
    /// its nack and its delivery.
    fn rx_phase2(&self, sim: &Sim, phase2: RxPhase2) {
        match (phase2.ack, phase2.hold) {
            (Some((dst, ack)), Some(hold)) => self.hold_ack(sim, dst, ack, hold),
            (Some((dst, ack)), None) => self.send_ack(sim, dst, ack),
            (None, _) => {}
        }
        if let Some((dst, msg_id, busy)) = phase2.nack {
            self.send_nack(sim, dst, msg_id, busy);
        }
        match phase2.deliver {
            Some(Deliver::Host { state, msg }) => self.deliver_to_host(sim, state, msg),
            Some(Deliver::Pool(msg)) => self.finalize_unexpected(sim, msg),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::sync::Arc;

    fn active(frames: u32, len: u32) -> ActiveRecv {
        ActiveRecv::new(Tag(1), frames, len, RecvDest::Unexpected)
    }

    fn chunk(fill: u8, len: usize) -> MsgBuf {
        MsgBuf::one(Bytes::from(vec![fill; len]))
    }

    #[test]
    fn msgbuf_slices_and_parts_match_the_concatenation() {
        let head = Bytes::from_static(b"0123456789AB");
        let tail = Bytes::from((0..4000).map(|i| i as u8).collect::<Vec<_>>());
        let mut whole = head.to_vec();
        whole.extend_from_slice(&tail);
        let buf = MsgBuf::pair(head, tail);
        assert_eq!(buf.len(), whole.len());
        for (a, b) in [(0, 5), (0, 12), (12, 100), (5, 30), (0, 4012), (4000, 4012)] {
            assert_eq!(&buf.slice(a, b)[..], &whole[a..b], "range {a}..{b}");
            assert_eq!(
                &buf.part(a, b).to_bytes()[..],
                &whole[a..b],
                "part {a}..{b}"
            );
        }
        let one = MsgBuf::one(Bytes::from(whole.clone()));
        assert_eq!(&one.slice(3, 17)[..], &whole[3..17]);
        assert!(MsgBuf::one(Bytes::new()).is_empty());
        let mut prefix = [0u8; 16];
        assert_eq!(buf.copy_prefix(&mut prefix), 16);
        assert_eq!(prefix[..], whole[..16]);
    }

    #[test]
    fn a_message_reassembles_from_its_parts_without_a_copy() {
        // Header + payload, as the substrate sends a data message: the
        // fragments, joined in order, are the sender's two segments again.
        let head = Bytes::from_static(b"0123456789AB");
        let tail = Bytes::from(vec![5u8; 3 * crate::wire::MAX_CHUNK]);
        let sent = MsgBuf::pair(head.clone(), tail.clone());
        let frames = frames_for(sent.len());
        let mut a = active(frames, sent.len() as u32);
        for idx in (0..frames).rev() {
            let (lo, hi) = chunk_range(sent.len(), idx);
            let done = idx == 0;
            assert_eq!(a.store(idx, &sent.part(lo, hi)), (false, done));
        }
        assert_eq!(a.prefix.len(), sent.len());
        let got = a.prefix.slice(head.len(), sent.len());
        assert_eq!(
            got.as_ptr(),
            tail.as_ptr(),
            "the payload is the sender's buffer"
        );
        assert_eq!(got.len(), tail.len());
        assert_eq!(a.prefix.slice(0, head.len())[..], head[..]);
    }

    #[test]
    fn in_order_fragments_complete() {
        let len = (2 * crate::wire::MAX_CHUNK + 100) as u32;
        let mut a = active(3, len);
        let chunk0 = chunk(1, crate::wire::MAX_CHUNK);
        let chunk1 = chunk(2, crate::wire::MAX_CHUNK);
        let chunk2 = chunk(3, 100);
        assert_eq!(a.store(0, &chunk0), (false, false));
        assert_eq!(a.contiguous, 1);
        assert_eq!(a.store(1, &chunk1), (false, false));
        assert_eq!(a.store(2, &chunk2), (false, true));
        assert_eq!(a.received_count, 3);
        let data = a.prefix.to_bytes();
        assert!(data[..crate::wire::MAX_CHUNK].iter().all(|&b| b == 1));
        assert!(data[len as usize - 100..].iter().all(|&b| b == 3));
    }

    #[test]
    fn out_of_order_fragments_track_the_contiguous_prefix() {
        let len = (2 * crate::wire::MAX_CHUNK + 50) as u32;
        let mut a = active(3, len);
        let full = chunk(9, crate::wire::MAX_CHUNK);
        let tail = chunk(7, 50);
        // Arrive 2, 0, 1 (a retransmission pattern).
        assert_eq!(a.store(2, &tail), (false, false));
        assert_eq!(a.contiguous, 0, "gap at 0 holds the prefix");
        assert_eq!(a.store(0, &full), (false, false));
        assert_eq!(a.contiguous, 1);
        assert_eq!(a.store(1, &full), (false, true));
        assert_eq!(a.contiguous, 3, "prefix jumps over the stored tail");
        let data = a.prefix.to_bytes();
        assert_eq!(data.len(), len as usize);
        assert!(data[..len as usize - 50].iter().all(|&b| b == 9));
        assert!(data[len as usize - 50..].iter().all(|&b| b == 7));
    }

    #[test]
    fn sack_bitmap_reports_what_is_held_past_the_first_hole() {
        let mut a = active(5, (5 * crate::wire::MAX_CHUNK) as u32);
        let c = chunk(0, crate::wire::MAX_CHUNK);
        // Arrive 2, 0, 4, 1, 3.
        a.store(2, &c);
        assert_eq!((a.contiguous, a.sack()), (0, 0b10), "bit 0 is fragment 1");
        a.store(0, &c);
        assert_eq!((a.contiguous, a.sack()), (1, 0b1));
        a.store(4, &c);
        assert_eq!((a.contiguous, a.sack()), (1, 0b101));
        a.store(1, &c);
        assert_eq!(
            (a.contiguous, a.sack()),
            (3, 0b1),
            "never reports `contiguous`"
        );
        a.store(3, &c);
        assert_eq!((a.contiguous, a.sack()), (5, 0));
    }

    #[test]
    fn acks_carry_the_bitmap_every_frame_while_a_hole_is_open() {
        let sim = Sim::new();
        let nic = EmpNic::new(MacAddr(1), EmpConfig::default());
        nic.state.borrow_mut().unexpected_capacity = 1;
        let rec = record(3);
        let ack_for = |idx: u32| {
            let frame = Frame {
                src: MacAddr(0),
                ..NicCore::data_frame(&nic, 7, &rec, idx, None)
            };
            let wire = frame.payload.downcast::<EmpWire>().cloned().expect("emp");
            let ack = nic.rx_match(&sim, &frame, &wire).ack;
            ack.map(|(_, ack)| (ack.frames, ack.sack))
        };
        // Arrive 2, 0, 1: each acked at once while the hole is open.
        assert_eq!(ack_for(2), Some((0, 0b10)));
        assert_eq!(ack_for(0), Some((1, 0b1)));
        assert_eq!(ack_for(1), Some((3, 0)), "completion");
        // A late duplicate of the finished message is re-acked in full.
        assert_eq!(ack_for(2), Some((3, 0)));
    }

    /// A fresh record of a `frames`-fragment message to `MacAddr(1)`.
    fn record(frames: u32) -> TxRecord {
        let data = vec![3u8; frames as usize * crate::wire::MAX_CHUNK];
        TxRecord {
            dst: MacAddr(1),
            tag: Tag(1),
            data: MsgBuf::one(Bytes::from(data)),
            no_uq: false,
            num_frames: frames,
            posted_ns: 0,
            next_to_send: 0,
            acked: 0,
            held: 0,
            resent: 0,
            sent_hi: 0,
            timed: None,
            retries: 0,
            timer: None,
            state: SendState::new(),
        }
    }

    /// A record of `frames` fragments, all released once.
    fn released(frames: u32) -> TxRecord {
        let mut rec = record(frames);
        for idx in 0..frames {
            assert!(!rec.note_send(idx, 0), "first send");
        }
        rec.next_to_send = frames;
        rec
    }

    #[test]
    fn a_hole_is_resent_once_per_round() {
        let mut rec = released(8);
        // 0, 1 and 4 arrived: the ack is for 2 with fragment 4 held, so
        // 2 and 3 are holes. 0, 1 and the held 4 leave the window.
        assert_eq!(rec.on_ack(2, 0b10), (3, 0b11));
        assert!(rec.note_send(2, 10) && rec.note_send(3, 10));
        // 5 arrives too: it leaves the window; same holes, already resent
        // this round.
        assert_eq!(rec.on_ack(2, 0b110), (1, 0));
        // 2's resend arrives: 3 is still resent, relative to the new base.
        assert_eq!(rec.on_ack(3, 0b11), (1, 0));
        // A timer round rewinds 3, 6 and 7 (4 and 5 are held and already
        // out of the window); the release skips 4 and 5 and resends 3, 6
        // and 7 — and that resend is the round's one resend of 3.
        assert_eq!(rec.rewind(), 3);
        let sent: Vec<u32> = (3..8).filter(|&i| rec.held & rec.bit(i) == 0).collect();
        assert_eq!(sent, [3, 6, 7]);
        for idx in sent {
            assert!(rec.note_send(idx, 20), "resend");
        }
        rec.next_to_send = 8;
        assert_eq!(rec.on_ack(3, 0b11), (0, 0));
    }

    /// The NIC's in-flight count, checked against the records it counts.
    fn window_matches_records(nic: &EmpNic) -> u32 {
        let st = nic.state.borrow_mut();
        let sum = st.tx.values().map(TxRecord::outstanding).sum();
        assert_eq!(st.tx_inflight, sum, "tx_inflight against its records");
        sum
    }

    #[test]
    fn the_window_counts_exactly_the_outstanding_fragments() {
        // Nothing runs: each step changes the NIC's state at once, and the
        // frames it schedules never leave.
        let sim = Sim::new();
        let cl = crate::build_cluster(2, EmpConfig::default(), simnet::SwitchConfig::default());
        let nic = Arc::clone(&cl.nodes[0].nic);
        let window = nic.cfg.tx_window_frames;
        {
            let mut st = nic.state.borrow_mut();
            for id in 0..2 {
                st.tx.insert(id, record(12));
                st.tx_order.push_back(id);
            }
        }
        nic.release_tx(&sim, Vec::new());
        assert_eq!(window_matches_records(&nic), window);
        let ack = |msg_id, frames, sack| Ack {
            msg_id,
            frames,
            sack,
        };
        // Message 0: 0..=2 arrived, 3 and 4 are holes (resent at once),
        // 5 and 6 are held. Five frames leave the window, and message 1
        // takes their place.
        nic.process_ack(&sim, ack(0, 3, 0b110), false);
        assert_eq!(window_matches_records(&nic), window);
        assert_eq!(nic.state.borrow_mut().tx[&0].outstanding(), 7);
        // A busy NACK rewinds message 0 to its acknowledged prefix; the
        // paused release then resends its seven unheld fragments.
        nic.process_nack(&sim, 0, true);
        assert_eq!(window_matches_records(&nic), window - 7);
        nic.release_tx(&sim, Vec::new());
        assert_eq!(window_matches_records(&nic), window);
        assert_eq!(nic.debug_tx().0[0], (0, 3, 12, 12, 0));
        // Message 0 completes; message 1 is then refused.
        nic.process_ack(&sim, ack(0, 12, 0), false);
        window_matches_records(&nic);
        nic.process_nack(&sim, 1, false);
        assert_eq!(window_matches_records(&nic), 0);
        assert!(nic.debug_tx().0.is_empty());
    }

    #[test]
    fn rtt_samples_come_only_from_fragments_never_resent() {
        let mut rec = released(4);
        assert_eq!(rec.timed, Some((0, 0)), "first fragment released is timed");
        rec.on_ack(1, 0);
        assert_eq!(rec.take_rtt_sample(40), Some(40));
        // Nothing new was released, so nothing is timed.
        assert_eq!(rec.take_rtt_sample(50), None);
        let mut rec = released(4);
        rec.rewind();
        assert!(rec.note_send(0, 30), "fragment 0 resent");
        rec.on_ack(4, 0);
        assert_eq!(rec.take_rtt_sample(60), None, "Karn's rule");
    }

    /// A sending NIC holding a 6-fragment message, all released: the
    /// receiver acked fragment 0 and holds 2, 3 and 4, so 1 and 5 are
    /// the only ones missing.
    fn nic_with_held_fragments() -> (Sim, Arc<EmpNic>, crate::EmpCluster) {
        let sim = Sim::new();
        let cl = crate::build_cluster(2, EmpConfig::default(), simnet::SwitchConfig::default());
        let nic = Arc::clone(&cl.nodes[0].nic);
        let mut rec = released(6);
        rec.on_ack(1, 0b111);
        let mut st = nic.state.borrow_mut();
        st.tx.insert(0, rec);
        st.tx_inflight = 2;
        drop(st);
        (sim, nic, cl)
    }

    #[test]
    fn the_timer_never_resends_a_held_fragment() {
        let (sim, nic, _cl) = nic_with_held_fragments();
        let floor = nic.cfg.retransmit_timeout;
        nic.arm_retransmit_timer(&sim, 0, 1, 0, floor, TimerGuard::new());
        sim.run_until(simnet::SimTime::ZERO + floor + SimDuration::from_nanos(1));
        let stats = nic.stats();
        assert_eq!(stats.frames_retransmitted, 2, "fragments 1 and 5 only");
        assert_eq!(stats.fast_retransmits, 0);
        assert_eq!(nic.debug_tx().0, [(0, 1, 6, 6, 1)]);
    }

    #[test]
    fn a_send_inserts_its_rearms_on_the_tx_cpu_before_its_frames_leave() {
        let sim = Sim::new();
        let cl = crate::build_cluster(2, EmpConfig::default(), simnet::SwitchConfig::default());
        let nic = Arc::clone(&cl.nodes[0].nic);
        let data = MsgBuf::one(Bytes::from_static(b"credit"));
        let rearms = vec![(Tag(7), Some(MacAddr(1)), 64); 2];
        let (_, descs) = nic.start_send(&sim, MacAddr(1), Tag(3), data, false, rearms);
        sim.run();
        assert_eq!(nic.debug_preposted().len(), 2);
        assert!(descs.iter().all(|(_, s)| !s.completion.is_done()));
        let (rx, tx) = (nic.stats().rx_fw, nic.stats().tx_fw);
        assert_eq!(tx.rearm, 2 * nic.cfg.rx_post_cost.nanos());
        assert_eq!(tx.total(), nic.tigon.cpu_tx.busy_total().nanos());
        assert_eq!(rx.post, 0, "the rx CPU inserted nothing");
    }

    #[test]
    fn a_rearm_unposted_before_the_tx_cpu_reaches_it_is_never_inserted() {
        // The host unposts (close) while the re-arming send still waits
        // for the tx CPU: the unpost, on the rx CPU, finds nothing; the
        // insert then completes the descriptor as unposted instead of
        // stranding it on the list.
        let sim = Sim::new();
        let cl = crate::build_cluster(2, EmpConfig::default(), simnet::SwitchConfig::default());
        let nic = Arc::clone(&cl.nodes[0].nic);
        let data = MsgBuf::one(Bytes::from_static(b"credit"));
        let rearms = vec![(Tag(7), Some(MacAddr(1)), 64)];
        let (_, descs) = nic.start_send(&sim, MacAddr(1), Tag(3), data, false, rearms);
        let (id, state) = descs.into_iter().next().expect("one re-arm");
        nic.unpost_descriptor(&sim, id);
        sim.run();
        assert!(nic.debug_preposted().is_empty());
        assert!(state.completion.is_done());
        assert!(state
            .slot
            .borrow_mut()
            .as_ref()
            .is_some_and(Option::is_none));
        assert!(nic.state.borrow_mut().rearming.is_empty());
    }

    #[test]
    fn a_busy_nack_never_resends_a_held_fragment() {
        let (sim, nic, _cl) = nic_with_held_fragments();
        nic.process_nack(&sim, 0, true);
        let pause = nic.cfg.retransmit_timeout.nanos() / 4;
        sim.run_until(simnet::SimTime::ZERO + SimDuration::from_nanos(pause + 1));
        assert_eq!(
            nic.stats().frames_retransmitted,
            2,
            "fragments 1 and 5 only"
        );
        assert_eq!(nic.debug_tx().0, [(0, 1, 6, 6, 0)]);
    }

    #[test]
    fn duplicates_are_detected_and_store_nothing() {
        let mut a = active(2, (crate::wire::MAX_CHUNK + 10) as u32);
        let c = chunk(5, crate::wire::MAX_CHUNK);
        assert_eq!(a.store(0, &c), (false, false));
        assert_eq!(a.store(0, &c), (true, false), "duplicate flagged");
        assert_eq!(a.received_count, 1);
    }
}

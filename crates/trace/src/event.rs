//! Typed trace events and the per-simulation ring buffer that stores them.

use std::cell::RefCell;
use std::rc::Rc;

use crate::ENABLED;

/// Sentinel connection id for events not tied to a connection.
pub const NO_CONN: u32 = u32::MAX;

/// Sentinel node id for events with no single originating station.
pub const NO_NODE: u16 = u16::MAX;

/// What happened. Grouped by the layer that emits it; the `a`/`b`
/// payload meaning is per-kind (documented inline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    // --- NIC descriptor lifecycle (emp-proto) ---
    /// A receive descriptor was inserted. `a` = descriptor id.
    DescPost,
    /// A message consumed a preposted descriptor. `a` = descriptor id, `b` = bytes.
    DescConsume,
    /// A descriptor was explicitly unposted. `a` = descriptor id.
    DescUnpost,
    // --- Credit flow control (core) ---
    /// The sender regained credits from a flow-control ack. `a` = credits.
    CreditGrant,
    /// The sender blocked with zero credits.
    CreditStall,
    /// The receiver returned credits via an explicit flow-control ack. `a` = credits.
    CreditReturn,
    // --- Substrate acks (core) ---
    /// An explicit flow-control ack message was sent. `a` = credits.
    AckSent,
    /// An ack became due but was withheld for piggybacking (§6.3). `a` = credits accrued.
    AckDelayed,
    /// A due ack rode on an outgoing data message (§6.1). `a` = credits.
    AckPiggybacked,
    // --- Rendezvous datagrams (core) ---
    /// A rendezvous request was sent for an oversized datagram. `a` = bytes.
    RndvRequest,
    /// A rendezvous grant (ack) was issued. `a` = bytes granted.
    RndvAck,
    /// Rendezvous payload data was sent after the grant. `a` = bytes.
    RndvData,
    // --- Unexpected queue (emp-proto) ---
    /// A message landed in the unexpected queue. `a` = bytes.
    UqHit,
    /// The unexpected queue was full; the message was dropped. `a` = bytes.
    UqOverflow,
    // --- Wire (simnet link/switch) ---
    /// First bit of a frame hit a link. `a` = payload bytes, `b` = destination node.
    WireTx,
    /// Last bit of a frame arrived at a sink. `a` = payload bytes, `b` = source node.
    WireRx,
    /// The switch fabric forwarded (or flooded) a frame. `a` = payload bytes.
    SwitchForward,
    /// A frame was dropped (loss injection or no matching descriptor). `a` = bytes.
    FrameDrop,
    /// The reliability layer retransmitted a frame. `a` = attempt number.
    Retransmit,
    // --- Cost sub-spans (used to refine the breakdown) ---
    /// A firmware CPU task ran. `a` = cost ns, `b` = start ns.
    FwTask,
    /// NIC DMA moved bytes across the PCI bus. `a` = bytes, `b` = duration ns.
    DmaCopy,
    /// The substrate copied payload between user and staging buffers.
    /// `a` = bytes, `b` = duration ns.
    SubstrateCopy,
    // --- Latency-breakdown milestones (core + emp-proto) ---
    /// A socket-level write entered the substrate. `a` = bytes.
    SockWriteStart,
    /// The host rang the NIC doorbell for a send (host costs paid).
    TxDoorbell,
    /// The NIC handed the message's first frame to the wire. `a` = bytes.
    NicTxWire,
    /// The last bit of a data frame arrived at the destination NIC. `a` = bytes.
    NicRxStart,
    /// The receive completed on the destination host (completion posted). `a` = bytes.
    RecvDeliver,
    /// A socket-level read returned data to the application. `a` = bytes.
    SockReadEnd,
    // --- Fault injection (simnet/tigon-nic/emp-proto) ---
    /// A frame was corrupted on the wire (occupied the link, failed FCS,
    /// never delivered). `a` = payload bytes.
    FrameCorrupt,
    /// A frame was delayed by reorder/jitter injection past its natural
    /// delivery time. `a` = payload bytes, `b` = extra delay ns.
    FrameReorder,
    /// A frame arrived while the link was in a scheduled down window. `a` = bytes.
    LinkDown,
    /// An injected NIC fault fired (rx-ring exhaustion or delayed DMA
    /// completion). `a` = 0 for rx-ring drop, 1 for DMA delay; `b` = bytes
    /// or delay ns respectively.
    NicFault,
    // --- Data-path fast paths (core) ---
    /// A stream read took an in-order message straight into the user
    /// buffer, skipping the §6.2 temp-buffer copy. `a` = bytes.
    DirectDeliver,
    /// A small write was staged in the coalescing buffer. `a` = bytes,
    /// `b` = staged bytes after the append.
    CoalesceAppend,
    /// The coalescing buffer flushed as one substrate message. `a` =
    /// bytes, `b` = writes aggregated.
    CoalesceFlush,
    /// A batch of receive descriptors was posted with one doorbell.
    /// `a` = descriptors in the batch.
    DescPostBatch,
}

impl EventKind {
    /// Stable `layer/event` name used in trace exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::DescPost => "nic/desc_post",
            EventKind::DescConsume => "nic/desc_consume",
            EventKind::DescUnpost => "nic/desc_unpost",
            EventKind::CreditGrant => "sock/credit_grant",
            EventKind::CreditStall => "sock/credit_stall",
            EventKind::CreditReturn => "sock/credit_return",
            EventKind::AckSent => "sock/ack_sent",
            EventKind::AckDelayed => "sock/ack_delayed",
            EventKind::AckPiggybacked => "sock/ack_piggybacked",
            EventKind::RndvRequest => "sock/rndv_request",
            EventKind::RndvAck => "sock/rndv_ack",
            EventKind::RndvData => "sock/rndv_data",
            EventKind::UqHit => "nic/uq_hit",
            EventKind::UqOverflow => "nic/uq_overflow",
            EventKind::WireTx => "wire/tx",
            EventKind::WireRx => "wire/rx",
            EventKind::SwitchForward => "wire/switch_forward",
            EventKind::FrameDrop => "wire/frame_drop",
            EventKind::Retransmit => "nic/retransmit",
            EventKind::FwTask => "nic/fw_task",
            EventKind::DmaCopy => "nic/dma_copy",
            EventKind::SubstrateCopy => "sock/substrate_copy",
            EventKind::SockWriteStart => "path/sock_write_start",
            EventKind::TxDoorbell => "path/tx_doorbell",
            EventKind::NicTxWire => "path/nic_tx_wire",
            EventKind::NicRxStart => "path/nic_rx_start",
            EventKind::RecvDeliver => "path/recv_deliver",
            EventKind::SockReadEnd => "path/sock_read_end",
            EventKind::FrameCorrupt => "wire/frame_corrupt",
            EventKind::FrameReorder => "wire/frame_reorder",
            EventKind::LinkDown => "wire/link_down",
            EventKind::NicFault => "nic/fault",
            EventKind::DirectDeliver => "sock/direct_deliver",
            EventKind::CoalesceAppend => "sock/coalesce_append",
            EventKind::CoalesceFlush => "sock/coalesce_flush",
            EventKind::DescPostBatch => "nic/desc_post_batch",
        }
    }

    /// True for the milestone kinds the latency breakdown tiles between.
    pub fn is_milestone(self) -> bool {
        matches!(
            self,
            EventKind::SockWriteStart
                | EventKind::TxDoorbell
                | EventKind::NicTxWire
                | EventKind::NicRxStart
                | EventKind::RecvDeliver
                | EventKind::SockReadEnd
        )
    }
}

/// One recorded event. Fixed-size and `Copy`: recording is a ring-buffer
/// store, never an allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time in nanoseconds. May be in the (simulated) future
    /// relative to recording time — e.g. a frame's wire-start while it
    /// queues behind earlier traffic — so consumers sort by this field.
    pub t_ns: u64,
    /// Originating station (`MacAddr` index), or [`NO_NODE`].
    pub node: u16,
    /// Connection id, or [`NO_CONN`] when not connection-scoped.
    pub conn: u32,
    /// What happened.
    pub kind: EventKind,
    /// Per-kind payload (see [`EventKind`] docs).
    pub a: u64,
    /// Per-kind payload (see [`EventKind`] docs).
    pub b: u64,
}

struct Ring {
    buf: Vec<TraceEvent>,
    /// Next write position once the buffer is full.
    next: usize,
    wrapped: bool,
    total: u64,
}

struct TracerInner {
    ring: RefCell<Ring>,
    capacity: usize,
}

/// A shared handle to one simulation's event ring.
///
/// Cloning is an `Rc` bump; all clones observe the same ring. Recording
/// is a no-op (and emission sites should be gated on [`ENABLED`]) unless
/// the `trace` feature is on.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<TracerInner>,
}

impl Tracer {
    /// Default ring capacity: enough for several thousand RTTs.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// A tracer whose ring keeps the most recent `capacity` events.
    /// No buffer memory is allocated until the first event is recorded.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be positive");
        Tracer {
            inner: Rc::new(TracerInner {
                ring: RefCell::new(Ring {
                    buf: Vec::new(),
                    next: 0,
                    wrapped: false,
                    total: 0,
                }),
                capacity,
            }),
        }
    }

    /// A tracer with [`Tracer::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Tracer::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Record one event. Compiled to nothing when the `trace` feature is
    /// off; gate the call on [`ENABLED`] so argument construction
    /// disappears too.
    #[inline]
    pub fn emit(&self, t_ns: u64, node: u16, conn: u32, kind: EventKind, a: u64, b: u64) {
        if !ENABLED {
            return;
        }
        let ev = TraceEvent {
            t_ns,
            node,
            conn,
            kind,
            a,
            b,
        };
        let mut ring = self.inner.ring.borrow_mut();
        ring.total += 1;
        if ring.buf.len() < self.inner.capacity {
            ring.buf.push(ev);
        } else {
            let next = ring.next;
            ring.buf[next] = ev;
            ring.next = (next + 1) % self.inner.capacity;
            ring.wrapped = true;
        }
    }

    /// The events currently retained, oldest first (ring order), sorted
    /// by timestamp (future-stamped events land in their proper place).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let ring = self.inner.ring.borrow();
        let mut out = Vec::with_capacity(ring.buf.len());
        if ring.wrapped {
            out.extend_from_slice(&ring.buf[ring.next..]);
            out.extend_from_slice(&ring.buf[..ring.next]);
        } else {
            out.extend_from_slice(&ring.buf);
        }
        out.sort_by_key(|e| e.t_ns);
        out
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.inner.ring.borrow().total
    }

    /// Events lost to ring overflow.
    pub fn dropped(&self) -> u64 {
        let ring = self.inner.ring.borrow();
        ring.total - ring.buf.len() as u64
    }

    /// Discard all retained events (e.g. after a warmup phase).
    pub fn clear(&self) {
        let mut ring = self.inner.ring.borrow_mut();
        ring.buf.clear();
        ring.next = 0;
        ring.wrapped = false;
        ring.total = 0;
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of distinct [`EventKind`]s.
    const KIND_COUNT: usize = EventKind::DescPostBatch as usize + 1;

    const ALL_KINDS: [EventKind; KIND_COUNT] = [
        EventKind::DescPost,
        EventKind::DescConsume,
        EventKind::DescUnpost,
        EventKind::CreditGrant,
        EventKind::CreditStall,
        EventKind::CreditReturn,
        EventKind::AckSent,
        EventKind::AckDelayed,
        EventKind::AckPiggybacked,
        EventKind::RndvRequest,
        EventKind::RndvAck,
        EventKind::RndvData,
        EventKind::UqHit,
        EventKind::UqOverflow,
        EventKind::WireTx,
        EventKind::WireRx,
        EventKind::SwitchForward,
        EventKind::FrameDrop,
        EventKind::Retransmit,
        EventKind::FwTask,
        EventKind::DmaCopy,
        EventKind::SubstrateCopy,
        EventKind::SockWriteStart,
        EventKind::TxDoorbell,
        EventKind::NicTxWire,
        EventKind::NicRxStart,
        EventKind::RecvDeliver,
        EventKind::SockReadEnd,
        EventKind::FrameCorrupt,
        EventKind::FrameReorder,
        EventKind::LinkDown,
        EventKind::NicFault,
        EventKind::DirectDeliver,
        EventKind::CoalesceAppend,
        EventKind::CoalesceFlush,
        EventKind::DescPostBatch,
    ];

    fn ev(t: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            t_ns: t,
            node: 0,
            conn: NO_CONN,
            kind,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn ring_retains_most_recent_and_counts_drops() {
        let tr = Tracer::with_capacity(4);
        for t in 0..10u64 {
            tr.emit(t, 0, NO_CONN, EventKind::WireTx, 0, 0);
        }
        if ENABLED {
            let snap = tr.snapshot();
            assert_eq!(snap.len(), 4);
            assert_eq!(snap[0].t_ns, 6);
            assert_eq!(snap[3].t_ns, 9);
            assert_eq!(tr.total_recorded(), 10);
            assert_eq!(tr.dropped(), 6);
            tr.clear();
            assert!(tr.snapshot().is_empty());
        } else {
            assert!(tr.snapshot().is_empty());
            assert_eq!(tr.total_recorded(), 0);
        }
    }

    #[test]
    fn snapshot_sorts_future_stamped_events() {
        let tr = Tracer::with_capacity(8);
        tr.emit(50, 0, NO_CONN, EventKind::WireTx, 0, 0);
        tr.emit(10, 0, NO_CONN, EventKind::WireRx, 0, 0);
        if ENABLED {
            let snap = tr.snapshot();
            assert_eq!(snap[0], ev(10, EventKind::WireRx));
            assert_eq!(snap[1], ev(50, EventKind::WireTx));
        }
    }

    #[test]
    fn kind_names_are_unique_and_indexed() {
        let mut names: Vec<&str> = ALL_KINDS.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KIND_COUNT);
        for (i, k) in ALL_KINDS.iter().enumerate() {
            assert_eq!(*k as usize, i, "discriminant order matches ALL_KINDS");
        }
    }
}

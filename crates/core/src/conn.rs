//! Connection state and management.
//!
//! §5.1's adopted design: connection management by *data message exchange*.
//! `listen()` pre-posts `backlog` connection descriptors, `connect()` sends
//! an explicit request carrying the client's address and parameters, and
//! `accept()` blocks on the head of the backlog queue. Each established
//! connection owns EMP descriptors (data, flow-control-ack, rendezvous,
//! control) that the substrate must account for and explicitly release on
//! `close()` — §5.3's resource management.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Weak};

use bytes::Bytes;
use emp_proto::{EmpEndpoint, PostSpec, RecvHandle, SendHandle, TxBuf};
use hostsim::{VirtRange, PAGE_SIZE};
use parking_lot::Mutex;
use simnet::emp_trace::{self, EventKind};
use simnet::{
    wait_any, Completion, MacAddr, NetError, OpResult, ProcessCtx, SimAccess, SimAccessExt,
    SimDuration, SimResult,
};

use crate::config::{SocketType, SubstrateConfig};
use crate::proto::{Msg, DATA_HEADER, HEADER};
use crate::tags;

/// Data descriptors each direction of a stream connection starts with
/// when its connect announced window growth (`piggyback_acks`, DESIGN §8).
/// A request/response connection never has more than one message
/// unconsumed, so two serve it for life; a stream uses both on its second
/// message and grows to N then. Larger starting windows bring back the
/// per-connection posting and unposting that saturate an accept storm
/// (`overload_goodput_degrades_gracefully_past_saturation`: 3, 4 and 8
/// fail it, 2 passes at 0.806).
pub(crate) const INITIAL_WINDOW: u32 = 2;

/// Per-process substrate state (behind `EmpSockets`).
pub(crate) struct ProcShared {
    pub(crate) ep: EmpEndpoint,
    pub(crate) cfg: SubstrateConfig,
    pub(crate) state: Mutex<ProcState>,
    /// For telemetry poll closures that walk the active-socket table.
    self_ref: Weak<ProcShared>,
}

pub(crate) struct ProcState {
    /// Recycled connection ids, reused only after the fresh space is
    /// exhausted (TIME_WAIT-like quarantine: immediate reuse would let
    /// stragglers from the previous connection match the new one's tags).
    free_cids: VecDeque<u16>,
    next_cid: u16,
    /// The active-socket table (§5.3): every open connection, so teardown
    /// can account for all NIC resources.
    pub(crate) active: HashMap<u16, Weak<SockShared>>,
    pub(crate) listeners: HashMap<u16, ()>,
    /// Unexpected-queue slots currently allocated across connections.
    pub(crate) unexpected_slots: usize,
    /// Whether the baseline unexpected slots have been configured.
    pub(crate) initialized: bool,
    /// Bump allocator for synthetic buffer addresses (stable per purpose,
    /// so the pin/translate cache behaves like reused real buffers).
    range_cursor: u64,
    /// Recycled buffer ranges by size: connections reuse the previous
    /// connection's (already pinned) buffers, so only the first connection
    /// of a given shape pays pin+translate syscalls — the way a real
    /// substrate would pool its registered temp buffers.
    range_pool: HashMap<u64, Vec<VirtRange>>,
}

impl ProcState {
    /// Buffer ranges waiting in the pool.
    pub(crate) fn pooled_ranges(&self) -> usize {
        self.range_pool.values().map(Vec::len).sum()
    }
}

impl ProcShared {
    pub(crate) fn new(ep: EmpEndpoint, cfg: SubstrateConfig) -> Arc<Self> {
        Arc::new_cyclic(|weak| ProcShared {
            ep,
            cfg,
            state: Mutex::new(ProcState {
                free_cids: VecDeque::new(),
                next_cid: 0,
                active: HashMap::new(),
                listeners: HashMap::new(),
                unexpected_slots: 0,
                initialized: false,
                range_cursor: 0x1000_0000,
                range_pool: HashMap::new(),
            }),
            self_ref: weak.clone(),
        })
    }

    pub(crate) fn alloc_cid(&self) -> Result<u16, NetError> {
        let mut st = self.state.lock();
        // Admission control: the per-process connection budget counts live
        // sockets (close() removes them from the active table), so a
        // refused connect costs nothing durable.
        if let Some(max) = self.cfg.max_connections {
            let live = st.active.values().filter(|w| w.strong_count() > 0).count();
            if live >= max {
                return Err(NetError::Exhausted);
            }
        }
        if st.next_cid <= tags::MAX_CID {
            let cid = st.next_cid;
            st.next_cid += 1;
            return Ok(cid);
        }
        st.free_cids
            .pop_front()
            .ok_or(NetError::Protocol("connection ids exhausted"))
    }

    pub(crate) fn free_cid(&self, cid: u16) {
        let mut st = self.state.lock();
        st.active.remove(&cid);
        st.free_cids.push_back(cid);
    }

    /// Allocate a page-aligned fake buffer range, reusing a pooled one of
    /// the same size when available (pin-cache hit).
    pub(crate) fn alloc_range(&self, len: usize) -> VirtRange {
        let mut st = self.state.lock();
        let key = len.max(1) as u64;
        if let Some(r) = st.range_pool.get_mut(&key).and_then(Vec::pop) {
            return r;
        }
        let pages = key.div_ceil(PAGE_SIZE).max(1);
        let addr = st.range_cursor;
        st.range_cursor += (pages + 1) * PAGE_SIZE; // guard page between buffers
        VirtRange::new(addr, key)
    }

    /// Return a buffer range to the pool for the next connection.
    pub(crate) fn free_range(&self, range: VirtRange) {
        let mut st = self.state.lock();
        st.range_pool.entry(range.len).or_default().push(range);
    }

    /// First-use initialization: allocate the process's baseline
    /// unexpected-queue slots.
    pub(crate) fn ensure_init(&self, ctx: &ProcessCtx) -> SimResult<()> {
        let needs = {
            let mut st = self.state.lock();
            !std::mem::replace(&mut st.initialized, true)
        };
        if needs {
            self.adjust_unexpected(ctx, self.cfg.base_unexpected_slots as isize)?;
            self.register_telemetry(ctx);
        }
        Ok(())
    }

    /// Publish this process's substrate health as sampled time series:
    /// live connections, credits outstanding (in-flight, not yet
    /// returned), reorder-buffer occupancy, and staged coalescing bytes.
    /// Each series walks the active-socket table at sample time via a
    /// weak self reference, so telemetry never keeps the process alive.
    fn register_telemetry(&self, ctx: &dyn SimAccess) {
        let node = self.ep.addr().0;
        let reg = ctx.telemetry();
        type SockFn = Box<dyn Fn(&SockShared) -> i64 + Send>;
        let series: [(&str, SockFn); 4] = [
            ("conns_live", Box::new(|_| 1)),
            (
                "credits_out",
                Box::new(|s| {
                    let i = s.inner.lock();
                    i64::from(i.peer_window) - i64::from(i.credits)
                }),
            ),
            (
                "reorder_msgs",
                Box::new(|s| s.inner.lock().rx_ooo.len() as i64),
            ),
            (
                "staged_bytes",
                Box::new(|s| s.inner.lock().coalesce_buf.len() as i64),
            ),
        ];
        for (name, per_sock) in series {
            let weak = self.self_ref.clone();
            reg.register_sampled(&format!("sock.n{node}.{name}"), move |_| {
                let p = weak.upgrade()?;
                let socks: Vec<Arc<SockShared>> = p
                    .state
                    .try_lock()?
                    .active
                    .values()
                    .filter_map(Weak::upgrade)
                    .collect();
                // A parked process may hold a socket lock right now; skip
                // the whole tick rather than publish a partial sum.
                let mut total = 0i64;
                for s in &socks {
                    let i = s.inner.try_lock()?;
                    if !i.closed {
                        drop(i);
                        total += per_sock(s);
                    }
                }
                Some(total)
            });
        }
    }

    /// Grow/shrink this process's unexpected-queue allocation.
    pub(crate) fn adjust_unexpected(&self, ctx: &ProcessCtx, delta: isize) -> SimResult<()> {
        let slots = {
            let mut st = self.state.lock();
            st.unexpected_slots = st.unexpected_slots.saturating_add_signed(delta);
            st.unexpected_slots
        };
        self.ep.set_unexpected_slots(ctx, slots)
    }
}

/// Per-connection substrate counters, mirroring what a production sockets
/// library exposes for diagnosis (`getsockopt`-style).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
    /// Times this side's receive window grew from
    /// two (`conn::INITIAL_WINDOW`) to N: at most once
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

/// A data descriptor slot: handle + the stable buffer range it reposts to.
pub(crate) struct DataSlot {
    pub(crate) handle: RecvHandle,
    pub(crate) range: VirtRange,
}

/// Credits one message returns to the peer and, with piggy-backing on,
/// the staging ranges of the consumed data descriptors the same send
/// re-arms. A return that grows the window also carries the ranges of
/// the new descriptors the same send posts, counted in `credits`.
#[derive(Default)]
pub(crate) struct CreditReturn {
    pub(crate) credits: u16,
    pub(crate) rearms: Vec<VirtRange>,
    pub(crate) grants: Vec<VirtRange>,
}

/// Mutable per-connection state (single-process discipline: one simulated
/// process drives each side of a connection, so this mutex is never
/// contended — it exists for `Send`/`Sync` plumbing).
pub(crate) struct SockInner {
    // ---- transmit ----
    /// Credits available to send (§6.1).
    pub(crate) credits: u32,
    /// Data descriptors the peer keeps for this side: its receive window,
    /// agreed by the connection request and raised by the return that
    /// grows it. `peer_window - credits` credits are out.
    pub(crate) peer_window: u32,
    /// Pre-posted flow-control-ack descriptors, completion order (empty in
    /// unexpected-queue mode).
    pub(crate) fcack_handles: VecDeque<RecvHandle>,
    /// One-shot fc-ack descriptor a `poll` with write interest arms in
    /// unexpected-queue mode, where there is otherwise no completion to
    /// watch for a credit return. Consumed or unposted before the poll
    /// returns (see `disarm_poll_fcack`), so it never races the blocking
    /// write path's own post.
    pub(crate) poll_fcack: Option<RecvHandle>,
    /// Fire-and-forget sends not yet known complete.
    pub(crate) inflight_sends: Vec<SendHandle>,
    /// The connection request (client side) — checked for refusal.
    pub(crate) conn_send: Option<SendHandle>,
    /// The request of a non-blocking connect under the §6.1 switch, held
    /// back until the connection's first operation sends it — with that
    /// operation's bytes when it is a write that fits (DESIGN §8).
    pub(crate) conn_req: Option<Msg>,
    // ---- receive (stream) ----
    /// This side's receive window: the data descriptors it keeps, posted
    /// (`data_slots`) or waiting to be re-armed (`rearms`).
    /// [`INITIAL_WINDOW`] or N at establish; grows to N at most once.
    pub(crate) window: u32,
    /// Pre-posted data descriptors in completion order.
    pub(crate) data_slots: VecDeque<DataSlot>,
    /// Reassembled byte stream awaiting `read()` (chunks + total length).
    pub(crate) stream_chunks: VecDeque<bytes::Bytes>,
    pub(crate) stream_len: usize,
    /// Messages consumed since the last credit return.
    pub(crate) consumed: u32,
    /// With piggy-backing on, the ranges of those messages' descriptors:
    /// each waits to be re-armed by the send that returns its credit
    /// (`consumed` long). Empty under the presets.
    pub(crate) rearms: Vec<VirtRange>,
    // ---- staged small writes (the send half of `CopyPolicy`) ----
    /// Staged writes awaiting one flush.
    pub(crate) coalesce_buf: Vec<u8>,
    /// Writes currently staged in `coalesce_buf`.
    pub(crate) coalesce_count: u64,
    /// Flushes so far. The deadline timer armed by the first staged byte
    /// carries the value it saw; a flush in between makes it a no-op.
    pub(crate) stage_episode: u64,
    /// Host time of flushes the deadline timer did on the owner's behalf,
    /// which the owner pays at its next substrate call.
    pub(crate) flush_debt: SimDuration,
    // ---- receive (datagram) ----
    pub(crate) rndv_handle: Option<RecvHandle>,
    pub(crate) dgram_data: Option<DataSlot>,
    /// Rendezvous grant received and not yet consumed by a sender.
    pub(crate) rndv_granted: bool,
    /// Rendezvous refusal (receiver buffer too small), with its limit.
    pub(crate) rndv_refused: Option<usize>,
    // ---- message ordering (fault robustness) ----
    /// Sequence number the next outgoing data message will carry.
    pub(crate) tx_seq: u32,
    /// Sequence number the next in-order incoming data message must carry.
    pub(crate) rx_next_seq: u32,
    /// Payloads that arrived ahead of sequence (fabric reordering let a
    /// later message bind a descriptor first), parked until the gap fills.
    pub(crate) rx_ooo: BTreeMap<u32, Bytes>,
    /// Total data messages the peer sent before closing (from `Close`);
    /// EOF is surfaced only once `rx_next_seq` reaches it.
    pub(crate) peer_final_seq: Option<u32>,
    // ---- statistics ----
    pub(crate) stats: ConnStats,
    // ---- control ----
    pub(crate) ctrl_handle: Option<RecvHandle>,
    pub(crate) peer_closed: bool,
    /// Set when a resource budget tripped mid-stream (reorder-buffer cap):
    /// the byte stream can no longer be delivered intact, so every
    /// subsequent operation fails with
    /// [`NetError::Exhausted`]. Sticky until `close()`.
    pub(crate) poisoned: bool,
    /// Local write side shut down (half-close); reads keep working.
    pub(crate) write_closed: bool,
    pub(crate) closed: bool,
    // ---- buffer ranges ----
    pub(crate) send_range: VirtRange,
    pub(crate) fcack_range: VirtRange,
    pub(crate) ctrl_range: VirtRange,
    pub(crate) rndv_range: VirtRange,
    pub(crate) user_range: VirtRange,
}

impl SockInner {
    /// True once the peer closed AND every data message it announced has
    /// been delivered in order — only then may reads surface EOF. A peer
    /// that vanished without a `Close` (failed sends) has no announced
    /// count; EOF is immediate then.
    pub(crate) fn peer_drained(&self) -> bool {
        self.peer_closed && self.peer_final_seq.is_none_or(|f| self.rx_next_seq >= f)
    }

    /// Deliver the next datagram in send order if it has arrived: take it
    /// from the reorder buffer and count it received.
    pub(crate) fn take_next_dgram(&mut self) -> Option<Bytes> {
        let payload = self.rx_ooo.remove(&self.rx_next_seq)?;
        self.rx_next_seq += 1;
        self.stats.bytes_received += payload.len() as u64;
        self.stats.msgs_received += 1;
        Some(payload)
    }

    /// Take the credit return due: every credit consumed since the last
    /// one, with the descriptors to re-arm.
    pub(crate) fn take_credit_return(&mut self) -> CreditReturn {
        CreditReturn {
            credits: std::mem::take(&mut self.consumed) as u16,
            rearms: std::mem::take(&mut self.rearms),
            grants: Vec::new(),
        }
    }

    /// Claim the next outgoing data-message sequence number.
    pub(crate) fn claim_tx_seq(&mut self) -> u32 {
        let s = self.tx_seq;
        self.tx_seq += 1;
        s
    }
}

/// One side of a substrate connection.
pub(crate) struct SockShared {
    pub(crate) proc_: Arc<ProcShared>,
    /// The connection id (always the client's — it names both directions).
    pub(crate) cid: u16,
    /// The remote station.
    pub(crate) peer: MacAddr,
    /// Server port the connection targets (diagnostics).
    pub(crate) port: u16,
    /// Whether this side initiated the connection. Determines which tag
    /// direction it posts receives on and which it sends with.
    pub(crate) is_client: bool,
    /// Stream or datagram (negotiated by the connection request).
    pub(crate) socket_type: SocketType,
    /// Effective credit count (client's N, mirrored by the acceptor): the
    /// largest receive window either direction reaches.
    pub(crate) credits_max: u32,
    /// Effective temp-buffer size.
    pub(crate) buf_size: usize,
    pub(crate) inner: Mutex<SockInner>,
    /// For the staging-deadline timer (it must not keep us alive).
    pub(crate) self_ref: Weak<SockShared>,
}

impl SockShared {
    /// Build and wire up one side of a connection. For the client side
    /// this happens at `connect()`; for the server side at `accept()`.
    /// With `grows_window` (announced by the client, adopted by the
    /// acceptor) both directions' windows start at [`INITIAL_WINDOW`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn establish(
        proc_: &Arc<ProcShared>,
        ctx: &ProcessCtx,
        cid: u16,
        peer: MacAddr,
        port: u16,
        is_client: bool,
        socket_type: SocketType,
        credits_max: u32,
        buf_size: usize,
        grows_window: bool,
    ) -> SimResult<Arc<SockShared>> {
        let window = if grows_window {
            INITIAL_WINDOW.min(credits_max)
        } else {
            credits_max
        };
        let sock = Arc::new_cyclic(|self_ref| SockShared {
            self_ref: self_ref.clone(),
            proc_: Arc::clone(proc_),
            cid,
            peer,
            port,
            is_client,
            socket_type,
            credits_max,
            buf_size,
            inner: Mutex::new(SockInner {
                credits: window,
                peer_window: window,
                fcack_handles: VecDeque::new(),
                poll_fcack: None,
                inflight_sends: Vec::new(),
                conn_send: None,
                conn_req: None,
                window,
                data_slots: VecDeque::new(),
                stream_chunks: VecDeque::new(),
                stream_len: 0,
                consumed: 0,
                rearms: Vec::new(),
                coalesce_buf: Vec::new(),
                coalesce_count: 0,
                stage_episode: 0,
                flush_debt: SimDuration::ZERO,
                rndv_handle: None,
                dgram_data: None,
                rndv_granted: false,
                rndv_refused: None,
                tx_seq: 0,
                rx_next_seq: 0,
                rx_ooo: BTreeMap::new(),
                peer_final_seq: None,
                stats: ConnStats::default(),
                ctrl_handle: None,
                peer_closed: false,
                poisoned: false,
                write_closed: false,
                closed: false,
                send_range: proc_.alloc_range(buf_size + DATA_HEADER),
                fcack_range: proc_.alloc_range(HEADER),
                ctrl_range: proc_.alloc_range(HEADER),
                rndv_range: proc_.alloc_range(HEADER),
                user_range: proc_.alloc_range(buf_size.max(1 << 20) + DATA_HEADER),
            }),
        });
        proc_.state.lock().active.insert(cid, Arc::downgrade(&sock));

        let ep = &proc_.ep;
        let cfg = &proc_.cfg;
        // Control descriptor: close notifications, rendezvous acks.
        {
            let range = sock.inner.lock().ctrl_range;
            let h = ep.post_recv(ctx, sock.rx_ctrl_tag(), Some(peer), HEADER, range)?;
            sock.inner.lock().ctrl_handle = Some(h);
        }
        match socket_type {
            SocketType::Stream => {
                // The window's data descriptors into temp buffers (§5.2
                // eager w/ flow control), each with its own stable staging
                // range — posted as one batch behind a single doorbell.
                let mut posts = Vec::with_capacity(window as usize);
                for _ in 0..window {
                    let range = proc_.alloc_range(buf_size + DATA_HEADER);
                    posts.push((
                        sock.rx_data_tag(),
                        Some(peer),
                        buf_size + DATA_HEADER,
                        range,
                    ));
                }
                let handles = ep.post_recv_batch(ctx, &posts)?;
                for (h, (_, _, _, range)) in handles.into_iter().zip(posts) {
                    sock.inner
                        .lock()
                        .data_slots
                        .push_back(DataSlot { handle: h, range });
                }
                // Flow-control-ack descriptors: pre-posted, or routed via
                // the unexpected queue (§6.4).
                let fcack_range = sock.inner.lock().fcack_range;
                let posts: Vec<_> = (0..cfg.fcack_descriptors())
                    .map(|_| (sock.rx_fcack_tag(), Some(peer), HEADER, fcack_range))
                    .collect();
                for h in ep.post_recv_batch(ctx, &posts)? {
                    sock.inner.lock().fcack_handles.push_back(h);
                }
                let quota = cfg.unexpected_quota();
                if quota > 0 {
                    proc_.adjust_unexpected(ctx, quota as isize)?;
                }
            }
            SocketType::Datagram => {
                // One rendezvous-request descriptor (§5.2's rendezvous).
                let range = sock.inner.lock().rndv_range;
                let h = ep.post_recv(ctx, sock.rx_rndv_tag(), Some(peer), HEADER, range)?;
                sock.inner.lock().rndv_handle = Some(h);
            }
        }
        Ok(sock)
    }

    /// Record a trace event stamped with this station and connection id.
    /// Compiles to nothing without the `trace` feature.
    pub(crate) fn trace(&self, ctx: &dyn SimAccess, kind: EventKind, a: u64, b: u64) {
        if emp_trace::ENABLED {
            ctx.tracer().emit(
                ctx.now().nanos(),
                self.proc_.ep.addr().0,
                u32::from(self.cid),
                kind,
                a,
                b,
            );
        }
    }

    // --- tag helpers -------------------------------------------------
    // Receives match traffic flowing *towards* this side; sends carry the
    // opposite direction.

    pub(crate) fn rx_data_tag(&self) -> emp_proto::Tag {
        tags::data_tag(self.cid, !self.is_client)
    }

    pub(crate) fn tx_data_tag(&self) -> emp_proto::Tag {
        tags::data_tag(self.cid, self.is_client)
    }

    pub(crate) fn rx_fcack_tag(&self) -> emp_proto::Tag {
        tags::fcack_tag(self.cid, !self.is_client)
    }

    pub(crate) fn tx_fcack_tag(&self) -> emp_proto::Tag {
        tags::fcack_tag(self.cid, self.is_client)
    }

    pub(crate) fn rx_rndv_tag(&self) -> emp_proto::Tag {
        tags::rndv_tag(self.cid, !self.is_client)
    }

    pub(crate) fn tx_rndv_tag(&self) -> emp_proto::Tag {
        tags::rndv_tag(self.cid, self.is_client)
    }

    pub(crate) fn rx_ctrl_tag(&self) -> emp_proto::Tag {
        tags::ctrl_tag(self.cid, !self.is_client)
    }

    pub(crate) fn tx_ctrl_tag(&self) -> emp_proto::Tag {
        tags::ctrl_tag(self.cid, self.is_client)
    }

    /// Send a substrate message on this connection, returning the handle.
    pub(crate) fn send_msg(
        &self,
        ctx: &ProcessCtx,
        tag: emp_proto::Tag,
        msg: &Msg,
    ) -> SimResult<SendHandle> {
        let range = self.inner.lock().send_range;
        self.proc_
            .ep
            .post_send(ctx, self.peer, tag, msg.encode(), range)
    }

    /// Send the connection request `connect()` held back, bare, if it
    /// still holds one. Every first operation of such a connection but a
    /// riding write comes through here; afterwards it is a no-op.
    pub(crate) fn send_conn_req(&self, ctx: &ProcessCtx) -> SimResult<()> {
        let Some(req) = self.inner.lock().conn_req.take() else {
            return Ok(());
        };
        self.post_conn_req(ctx, req, Bytes::new())
    }

    /// Send `req`, already taken from `conn_req`, carrying `first` as data
    /// message 0 (empty: a bare request).
    pub(crate) fn post_conn_req(
        &self,
        ctx: &ProcessCtx,
        mut req: Msg,
        first: Bytes,
    ) -> SimResult<()> {
        if let Msg::ConnReq { first: f, .. } = &mut req {
            *f = first;
        }
        let h = self.send_msg(ctx, tags::conn_tag(self.port), &req)?;
        self.inner.lock().conn_send = Some(h);
        Ok(())
    }

    /// Like [`Self::send_msg`], but the message may never park in the
    /// receiver's unexpected queue: an unmatched delivery is refused with
    /// an explicit NACK and the handle fails with its `refused()` flag
    /// set. Used for connection requests under a configured connect
    /// policy — a full backlog (or absent listener) answers
    /// deterministically instead of camping in the receiver's pool.
    pub(crate) fn send_msg_refusable(
        &self,
        ctx: &ProcessCtx,
        tag: emp_proto::Tag,
        msg: &Msg,
    ) -> SimResult<SendHandle> {
        let range = self.inner.lock().send_range;
        self.proc_
            .ep
            .post_send_refusable(ctx, self.peer, tag, msg.encode(), range)
    }

    /// Send a data message returning `ret` as a header + payload pair: the
    /// NIC gathers the two segments itself, so the payload is never
    /// assembled into a fresh host buffer. The wire bytes are identical to
    /// `send_msg(.., &Msg::Data { .. })`.
    pub(crate) fn send_data_msg(
        &self,
        ctx: &ProcessCtx,
        ret: CreditReturn,
        seq: u32,
        payload: Bytes,
    ) -> SimResult<SendHandle> {
        let header = Msg::data_header(ret.credits, seq, payload.len());
        let data = TxBuf::pair(header, payload);
        self.send_returning(ctx, self.tx_data_tag(), data, ret)
    }

    /// Send an explicit flow-control ack returning `ret`.
    pub(crate) fn send_fcack(&self, ctx: &ProcessCtx, ret: CreditReturn) -> SimResult<SendHandle> {
        let data = TxBuf::one(
            Msg::FcAck {
                credits: ret.credits,
                grew_window: !ret.grants.is_empty(),
            }
            .encode(),
        );
        self.send_returning(ctx, self.tx_fcack_tag(), data, ret)
    }

    /// Post `data`, which returns `ret`'s credits, in one NIC request with
    /// the re-arms of their descriptors (and the window's new ones).
    fn send_returning(
        &self,
        ctx: &ProcessCtx,
        tag: emp_proto::Tag,
        data: TxBuf,
        ret: CreditReturn,
    ) -> SimResult<SendHandle> {
        let range = self.inner.lock().send_range;
        let rearms = self.rearm_posts(&ret);
        let (h, handles) = self
            .proc_
            .ep
            .post_send_rearming(ctx, self.peer, tag, data, range, &rearms)?;
        self.rearmed(ret, handles);
        Ok(h)
    }

    /// The data-descriptor posts that re-arm `ret`'s ranges, then those
    /// that grow the window.
    pub(crate) fn rearm_posts(&self, ret: &CreditReturn) -> Vec<PostSpec> {
        let cap = self.buf_size + DATA_HEADER;
        let tag = self.rx_data_tag();
        ret.rearms
            .iter()
            .chain(&ret.grants)
            .map(|r| (tag, Some(self.peer), cap, *r))
            .collect()
    }

    /// Book the descriptors a send re-armed or posted for `ret`: they
    /// join the data slots in the order the NIC inserts them.
    pub(crate) fn rearmed(&self, ret: CreditReturn, handles: Vec<RecvHandle>) {
        let mut i = self.inner.lock();
        if self.proc_.cfg.piggyback_acks {
            i.stats.rearms_ridden += ret.rearms.len() as u64;
            i.stats.credits_without_rearm +=
                u64::from(ret.credits).saturating_sub(handles.len() as u64);
        }
        i.stats.window_grants += ret.grants.len() as u64;
        let ranges = ret.rearms.into_iter().chain(ret.grants);
        for (handle, range) in handles.into_iter().zip(ranges) {
            i.data_slots.push_back(DataSlot { handle, range });
        }
    }

    /// Grow the window to N on a return that is due because the sender
    /// used all of it: allocate the N − window new descriptors' staging
    /// ranges and add their credits. The send of `ret` posts them.
    pub(crate) fn grow_window(&self, ret: &mut CreditReturn) {
        let grant = {
            let mut i = self.inner.lock();
            let grant = self.credits_max - i.window;
            i.window = self.credits_max;
            i.stats.window_grows += 1;
            grant
        };
        ret.credits += grant as u16;
        ret.grants = (0..grant)
            .map(|_| self.proc_.alloc_range(self.buf_size + DATA_HEADER))
            .collect();
    }

    /// Drain the control descriptor if it completed: handles `Close` and
    /// rendezvous grants/refusals, reposting the descriptor while the
    /// connection stays open.
    pub(crate) fn poll_ctrl(&self, ctx: &ProcessCtx) -> OpResult<()> {
        loop {
            let handle = {
                let i = self.inner.lock();
                match &i.ctrl_handle {
                    Some(h) if h.is_done() => h.clone(),
                    _ => return Ok(Ok(())),
                }
            };
            let Some(msg) = self.proc_.ep.wait_recv(ctx, &handle)? else {
                // Unposted during close.
                self.inner.lock().ctrl_handle = None;
                return Ok(Ok(()));
            };
            let parsed = match Msg::decode(&msg.data) {
                Ok(m) => m,
                Err(e) => return Ok(Err(e)),
            };
            let mut repost = true;
            match parsed {
                Msg::Close { final_seq } => {
                    let mut i = self.inner.lock();
                    i.peer_closed = true;
                    i.peer_final_seq = Some(final_seq);
                    repost = false;
                }
                Msg::RndvAck => {
                    self.inner.lock().rndv_granted = true;
                }
                Msg::RndvNak { limit } => {
                    self.inner.lock().rndv_refused = Some(limit as usize);
                }
                _ => return Ok(Err(NetError::Protocol("unexpected control message"))),
            }
            if repost {
                let range = self.inner.lock().ctrl_range;
                let h = self.proc_.ep.post_recv(
                    ctx,
                    self.rx_ctrl_tag(),
                    Some(self.peer),
                    HEADER,
                    range,
                )?;
                self.inner.lock().ctrl_handle = Some(h);
            } else {
                self.inner.lock().ctrl_handle = None;
                return Ok(Ok(()));
            }
        }
    }

    /// The completion of the control channel. After close (local, or the
    /// peer's `Close` consumed) the channel is gone and no further control
    /// event can arrive, so a never-completing completion is returned:
    /// every waiter re-checks `peer_closed`/`closed`/`peer_drained()`
    /// before blocking, and an already-done completion here would spin
    /// such a waiter at one instant of simulated time while lost data is
    /// still retransmitting toward it.
    pub(crate) fn ctrl_completion(&self) -> Completion {
        let i = self.inner.lock();
        match &i.ctrl_handle {
            Some(h) => h.completion().clone(),
            None => Completion::new(),
        }
    }

    /// Prune completed fire-and-forget sends; report a failed one.
    pub(crate) fn reap_sends(&self) -> Result<(), NetError> {
        let mut i = self.inner.lock();
        let conn_status = i.conn_send.as_ref().and_then(|h| h.status());
        match conn_status {
            Some(false) => return Err(NetError::Refused),
            Some(true) => i.conn_send = None,
            None => {}
        }
        let mut failed = false;
        i.inflight_sends.retain(|h| match h.status() {
            Some(true) => false,
            Some(false) => {
                failed = true;
                false
            }
            None => true,
        });
        if failed {
            // The peer stopped posting descriptors: treat as closed.
            i.peer_closed = true;
            return Err(NetError::PeerClosed);
        }
        Ok(())
    }

    /// Half-close: notify the peer that no more data will flow this way
    /// (its reads will see EOF after draining), while this side keeps
    /// reading. The shutdown(SHUT_WR) of the sockets API.
    pub(crate) fn shutdown_write(&self, ctx: &ProcessCtx) -> SimResult<()> {
        let already = {
            let mut i = self.inner.lock();
            std::mem::replace(&mut i.write_closed, true) || i.closed
        };
        if already {
            return Ok(());
        }
        // Staged coalesced writes must precede the Close (which carries
        // the final sequence count); an undeliverable flush is moot.
        self.send_conn_req(ctx)?;
        let _ = self.flush_coalesced(ctx, true)?;
        let (peer_closed, final_seq) = {
            let i = self.inner.lock();
            (i.peer_closed, i.tx_seq)
        };
        if !peer_closed {
            let h = self.send_msg(ctx, self.tx_ctrl_tag(), &Msg::Close { final_seq })?;
            self.inner.lock().inflight_sends.push(h);
        }
        Ok(())
    }

    /// Tear down this side: notify the peer, explicitly unpost every
    /// descriptor (§5.3), release the unexpected-queue quota and recycle
    /// the connection id.
    pub(crate) fn close(&self, ctx: &ProcessCtx) -> SimResult<()> {
        let already = {
            let mut i = self.inner.lock();
            std::mem::replace(&mut i.closed, true)
        };
        if already {
            return Ok(());
        }
        let unaccounted = self.window_unaccounted();
        // Descriptors still waiting for a credit-returning send are never
        // re-armed, and their credits never returned: the buffers go back
        // to the pool with the rest below.
        let stale = self.inner.lock().take_credit_return().rearms;
        // As in shutdown_write: staged writes go out before the Close.
        self.send_conn_req(ctx)?;
        let _ = self.flush_coalesced(ctx, true)?;
        self.publish_stats(ctx, unaccounted);
        let (peer_closed, already_shut, final_seq) = {
            let i = self.inner.lock();
            (i.peer_closed, i.write_closed, i.tx_seq)
        };
        if !peer_closed && !already_shut {
            let h = self.send_msg(ctx, self.tx_ctrl_tag(), &Msg::Close { final_seq })?;
            self.inner.lock().inflight_sends.push(h);
        }
        // Unpost everything still on the NIC, recycling the buffers.
        let (handles, ranges) = {
            let mut i = self.inner.lock();
            let mut v: Vec<RecvHandle> = Vec::new();
            let mut r: Vec<VirtRange> = vec![
                i.send_range,
                i.fcack_range,
                i.ctrl_range,
                i.rndv_range,
                i.user_range,
            ];
            r.extend(stale);
            for slot in i.data_slots.drain(..) {
                v.push(slot.handle);
                r.push(slot.range);
            }
            v.extend(i.fcack_handles.drain(..));
            v.extend(i.poll_fcack.take());
            v.extend(i.rndv_handle.take());
            v.extend(i.ctrl_handle.take());
            if let Some(slot) = i.dgram_data.take() {
                v.push(slot.handle);
            }
            (v, r)
        };
        for h in handles {
            if !h.is_done() {
                self.proc_.ep.unpost_recv(ctx, &h)?;
            }
        }
        for r in ranges {
            self.proc_.free_range(r);
        }
        if self.socket_type == SocketType::Stream {
            let quota = self.proc_.cfg.unexpected_quota();
            if quota > 0 {
                self.proc_.adjust_unexpected(ctx, -(quota as isize))?;
            }
        }
        self.proc_.free_cid(self.cid);
        Ok(())
    }

    /// How far a stream side's data descriptors, posted or waiting for a
    /// re-arm, are from its window. Zero by construction, except on a
    /// poisoned connection, which recycles the descriptors it consumed.
    fn window_unaccounted(&self) -> u64 {
        let i = self.inner.lock();
        if self.socket_type != SocketType::Stream || i.poisoned {
            return 0;
        }
        (i.data_slots.len() + i.rearms.len()).abs_diff(i.window as usize) as u64
    }

    /// Add this connection's data-path counters to the telemetry as it
    /// closes, with what it strands (staged bytes, unpaid flush debt: both
    /// must read zero, as must `credits_without_rearm` and the descriptors
    /// `unaccounted` for by the window). Only non-zero values register a
    /// counter.
    fn publish_stats(&self, ctx: &ProcessCtx, unaccounted: u64) {
        let (s, stranded, debt) = {
            let i = self.inner.lock();
            (i.stats, i.coalesce_buf.len() as u64, i.flush_debt.nanos())
        };
        for (name, v) in [
            ("sock.coalesce_flushes", s.coalesce_flushes),
            ("sock.stage_deferrals", s.stage_deferrals),
            ("sock.piggybacked_credits", s.piggybacked_credits),
            ("sock.copies_avoided", s.copies_avoided),
            ("sock.rearms_ridden", s.rearms_ridden),
            ("sock.credits_without_rearm", s.credits_without_rearm),
            ("sock.window_grows", s.window_grows),
            ("sock.window_grants", s.window_grants),
            ("sock.conn_riders", s.conn_riders),
            ("sock.window_unaccounted", unaccounted),
            ("sock.stranded_bytes", stranded),
            ("sock.unpaid_flush_debt_ns", debt),
        ] {
            if v > 0 {
                ctx.telemetry().counter(name).add(v);
            }
        }
    }

    /// Would `read()` return without blocking?
    pub(crate) fn readable_now(&self) -> bool {
        let i = self.inner.lock();
        if i.stream_len > 0 || i.peer_drained() || i.closed || i.poisoned {
            return true;
        }
        if let Some(front) = i.data_slots.front() {
            if front.handle.is_done() {
                return true;
            }
        }
        if let Some(d) = &i.dgram_data {
            if d.handle.is_done() {
                return true;
            }
        }
        if let Some(r) = &i.rndv_handle {
            if r.is_done() {
                return true;
            }
        }
        false
    }

    /// Completions a `select()` should watch for this connection.
    pub(crate) fn watch_completions(&self) -> Vec<Completion> {
        let i = self.inner.lock();
        let mut v = Vec::new();
        if let Some(front) = i.data_slots.front() {
            v.push(front.handle.completion().clone());
        }
        if let Some(d) = &i.dgram_data {
            v.push(d.handle.completion().clone());
        }
        if let Some(r) = &i.rndv_handle {
            v.push(r.completion().clone());
        }
        if let Some(c) = &i.ctrl_handle {
            v.push(c.completion().clone());
        }
        v
    }

    /// Block until any of `watched` fires. With the ack-starvation
    /// watchdog armed ([`crate::SubstrateConfig::peer_gone_after`]), a wait
    /// that hears nothing from the peer for the configured patience fails
    /// with [`NetError::PeerGone`] instead of parking forever — the
    /// vanished-peer detection a production substrate needs (a crashed
    /// process never sends `Close`). Every call re-arms the full patience,
    /// so any completion progress resets the watchdog.
    pub(crate) fn wait_watched(&self, ctx: &ProcessCtx, watched: &[&Completion]) -> OpResult<()> {
        let Some(patience) = self.proc_.cfg.peer_gone_after else {
            wait_any(ctx, watched)?;
            return Ok(Ok(()));
        };
        let timer = Completion::new();
        let t2 = timer.clone();
        ctx.timer_after(patience, move |s| t2.complete(s));
        let mut all: Vec<&Completion> = Vec::with_capacity(watched.len() + 1);
        all.extend_from_slice(watched);
        all.push(&timer);
        wait_any(ctx, &all)?;
        if watched.iter().any(|c| c.is_done()) {
            Ok(Ok(()))
        } else {
            Ok(Err(NetError::PeerGone))
        }
    }

    /// Block until either the given completion or the control channel
    /// fires, then drain control.
    pub(crate) fn wait_data_or_ctrl(&self, ctx: &ProcessCtx, data: &Completion) -> OpResult<()> {
        let ctrl = self.ctrl_completion();
        if let Err(e) = self.wait_watched(ctx, &[data, &ctrl])? {
            return Ok(Err(e));
        }
        self.poll_ctrl(ctx)
    }
}

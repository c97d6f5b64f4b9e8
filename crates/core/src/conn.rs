//! Connection management by *data message exchange* (§5.1) and the driver
//! of each connection's `ConnCore`. `listen()` pre-posts `backlog`
//! connection descriptors, `connect()` sends a request carrying the
//! client's address and parameters, `accept()` blocks on the head of the
//! backlog queue; each connection's EMP descriptors are accounted for and
//! released on `close()` (§5.3).

use std::collections::{HashMap, VecDeque};
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
use crate::conn_core::{ConnCore, CoreCfg, CreditReturn, Refusal};
use crate::proto::{Msg, DATA_HEADER, FIRST_MAX, HEADER};
use crate::tags;

impl From<Refusal> for NetError {
    fn from(r: Refusal) -> Self {
        match r {
            Refusal::Closed => NetError::Closed,
            Refusal::Exhausted => NetError::Exhausted,
            Refusal::PeerClosed => NetError::PeerClosed,
            Refusal::WouldBlock => NetError::WouldBlock,
        }
    }
}

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
                    let c = &s.inner.lock().core;
                    i64::from(c.peer_window) - i64::from(c.credits)
                }),
            ),
            (
                "reorder_msgs",
                Box::new(|s| s.inner.lock().core.rx_ooo.len() as i64),
            ),
            (
                "staged_bytes",
                Box::new(|s| s.inner.lock().core.staged.len() as i64),
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
                    if !i.core.closed {
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

/// A data descriptor slot: handle + the stable buffer range it reposts to.
pub(crate) struct DataSlot {
    pub(crate) handle: RecvHandle,
    pub(crate) range: VirtRange,
}

/// Mutable per-connection state: the flow-control core and the driver's
/// I/O resources. The mutex is contended — the staging-deadline timer
/// takes it in event context, and a second process may share the
/// connection — so it is never held across a host charge or NIC call.
pub(crate) struct SockInner {
    /// Credits, windows, sequence numbers, staged bytes, flags, counters.
    pub(crate) core: ConnCore<VirtRange>,
    /// Pre-posted flow-control-ack descriptors, completion order (empty in
    /// unexpected-queue mode).
    pub(crate) fcack_handles: VecDeque<RecvHandle>,
    /// One-shot fc-ack descriptor a `poll` with write interest arms in
    /// unexpected-queue mode; consumed or unposted before the poll returns
    /// (`disarm_poll_fcack`), so it never races a blocking write's post.
    pub(crate) poll_fcack: Option<RecvHandle>,
    /// Fire-and-forget sends not yet known complete.
    pub(crate) inflight_sends: Vec<SendHandle>,
    /// The connection request (client side) — checked for refusal.
    pub(crate) conn_send: Option<SendHandle>,
    /// Posted data descriptors in completion order.
    pub(crate) data_slots: VecDeque<DataSlot>,
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
    pub(crate) ctrl_handle: Option<RecvHandle>,
    // ---- buffer ranges ----
    pub(crate) send_range: VirtRange,
    pub(crate) fcack_range: VirtRange,
    pub(crate) ctrl_range: VirtRange,
    pub(crate) rndv_range: VirtRange,
    pub(crate) user_range: VirtRange,
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
    /// acceptor) both directions' windows start at two descriptors.
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
        let cfg = &proc_.cfg;
        let core = ConnCore::new(
            CoreCfg {
                n: credits_max,
                delayed_acks: cfg.delayed_acks,
                piggyback: cfg.piggyback_acks,
                buf_size,
                send_copy_threshold: cfg.send_copy_threshold,
                stage_below: cfg.copy_policy.stage_below,
                stage_capacity: cfg.copy_policy.stage_capacity.min(buf_size),
                first_max: FIRST_MAX,
                reorder_cap: cfg.reorder_cap_bytes,
            },
            grows_window,
        );
        let window = core.window;
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
                core,
                fcack_handles: VecDeque::new(),
                poll_fcack: None,
                inflight_sends: Vec::new(),
                conn_send: None,
                data_slots: VecDeque::new(),
                flush_debt: SimDuration::ZERO,
                rndv_handle: None,
                dgram_data: None,
                rndv_granted: false,
                rndv_refused: None,
                ctrl_handle: None,
                send_range: proc_.alloc_range(buf_size + DATA_HEADER),
                fcack_range: proc_.alloc_range(HEADER),
                ctrl_range: proc_.alloc_range(HEADER),
                rndv_range: proc_.alloc_range(HEADER),
                user_range: proc_.alloc_range(buf_size.max(1 << 20) + DATA_HEADER),
            }),
        });
        proc_.state.lock().active.insert(cid, Arc::downgrade(&sock));

        let ep = &proc_.ep;
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
                let ranges = (0..window)
                    .map(|_| proc_.alloc_range(buf_size + DATA_HEADER))
                    .collect();
                sock.post_data_slots(ctx, ranges)?;
                // Flow-control-ack descriptors: pre-posted, or routed via
                // the unexpected queue (§6.4).
                let fcack_range = sock.inner.lock().fcack_range;
                let posts: Vec<_> = (0..cfg.fcack_descriptors(credits_max))
                    .map(|_| (sock.rx_fcack_tag(), Some(peer), HEADER, fcack_range))
                    .collect();
                for h in ep.post_recv_batch(ctx, &posts)? {
                    sock.inner.lock().fcack_handles.push_back(h);
                }
                let quota = cfg.unexpected_quota(credits_max);
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

    /// The connection request of this (client) side, carrying `first`
    /// as data message 0 (empty: a bare request).
    pub(crate) fn conn_req(&self, first: Bytes) -> Msg {
        Msg::ConnReq {
            cid: self.cid,
            port: self.port,
            socket_type: self.socket_type,
            credits: self.credits_max as u16,
            buf_size: self.buf_size as u32,
            grows_window: self.proc_.cfg.piggyback_acks,
            first,
        }
    }

    /// Send the connection request, claimed from the core, with `first`.
    pub(crate) fn post_conn_req(&self, ctx: &ProcessCtx, first: Bytes) -> SimResult<()> {
        let h = self.send_msg(ctx, tags::conn_tag(self.port), &self.conn_req(first))?;
        self.inner.lock().conn_send = Some(h);
        Ok(())
    }

    /// Send a data message returning `ret` as a header + payload pair the
    /// NIC gathers itself: the payload is never copied into a new buffer.
    pub(crate) fn send_data_msg(
        &self,
        ctx: &ProcessCtx,
        ret: CreditReturn<VirtRange>,
        seq: u32,
        payload: Bytes,
    ) -> SimResult<SendHandle> {
        let header = Msg::data_header(ret.credits, seq, payload.len());
        let data = TxBuf::pair(header, payload);
        self.send_returning(ctx, self.tx_data_tag(), data, ret)
    }

    /// Send an explicit flow-control ack returning `ret`.
    pub(crate) fn send_fcack(
        &self,
        ctx: &ProcessCtx,
        ret: CreditReturn<VirtRange>,
    ) -> SimResult<SendHandle> {
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
        ret: CreditReturn<VirtRange>,
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
    pub(crate) fn rearm_posts(&self, ret: &CreditReturn<VirtRange>) -> Vec<PostSpec> {
        self.data_posts(ret.rearms.iter().chain(&ret.grants))
    }

    fn data_posts<'a>(&self, ranges: impl Iterator<Item = &'a VirtRange>) -> Vec<PostSpec> {
        let cap = self.buf_size + DATA_HEADER;
        let tag = self.rx_data_tag();
        ranges.map(|r| (tag, Some(self.peer), cap, *r)).collect()
    }

    /// Post data descriptors into `ranges` behind one doorbell.
    pub(crate) fn post_data_slots(
        &self,
        ctx: &ProcessCtx,
        ranges: Vec<VirtRange>,
    ) -> SimResult<()> {
        let handles = self
            .proc_
            .ep
            .post_recv_batch(ctx, &self.data_posts(ranges.iter()))?;
        let mut i = self.inner.lock();
        for (handle, range) in handles.into_iter().zip(ranges) {
            i.data_slots.push_back(DataSlot { handle, range });
        }
        Ok(())
    }

    /// Book the descriptors a send re-armed or posted for `ret`: they
    /// join the data slots in the order the NIC inserts them.
    pub(crate) fn rearmed(&self, ret: CreditReturn<VirtRange>, handles: Vec<RecvHandle>) {
        let mut i = self.inner.lock();
        i.core.rearmed(&ret, handles.len());
        let ranges = ret.rearms.into_iter().chain(ret.grants);
        for (handle, range) in handles.into_iter().zip(ranges) {
            i.data_slots.push_back(DataSlot { handle, range });
        }
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
                    self.inner.lock().core.on_close(final_seq);
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

    /// The completion of the control channel; after close, one that never
    /// completes (every waiter re-checks the close flags before blocking,
    /// and a done one would spin it while lost data still retransmits).
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
            i.core.peer_closed = true;
            return Err(NetError::PeerClosed);
        }
        Ok(())
    }

    /// The end of a close: unpost every descriptor still on the NIC
    /// (§5.3), recycling the buffers, `stale` among them — consumed
    /// descriptors whose credit-returning send never came — then release
    /// the unexpected-queue quota and recycle the connection id.
    pub(crate) fn teardown(&self, ctx: &ProcessCtx, stale: Vec<VirtRange>) -> SimResult<()> {
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
            let quota = self.proc_.cfg.unexpected_quota(self.credits_max);
            if quota > 0 {
                self.proc_.adjust_unexpected(ctx, -(quota as isize))?;
            }
        }
        self.proc_.free_cid(self.cid);
        Ok(())
    }

    /// Add this connection's data-path counters to the telemetry as it
    /// closes, with what it strands (staged bytes, unpaid flush debt: both
    /// must read zero, as must `credits_without_rearm` and the descriptors
    /// `unaccounted` for by the window). Only non-zero values register a
    /// counter.
    pub(crate) fn publish_stats(&self, ctx: &ProcessCtx, unaccounted: u64) {
        let (s, stranded, debt) = {
            let i = self.inner.lock();
            (
                i.core.stats,
                i.core.staged.len() as u64,
                i.flush_debt.nanos(),
            )
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
        i.core.readable()
            || i.data_slots.front().is_some_and(|s| s.handle.is_done())
            || i.dgram_data.as_ref().is_some_and(|d| d.handle.is_done())
            || i.rndv_handle.as_ref().is_some_and(RecvHandle::is_done)
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

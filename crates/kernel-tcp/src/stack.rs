//! The kernel: demultiplexing, TCP machinery, timers and the cost model of
//! the traditional in-kernel path (Figure 3 of the paper).
//!
//! Everything here runs on the host's single "kernel" execution resource —
//! per-segment transmit/receive processing, interrupt handling, ack
//! generation — while application processes pay syscalls and user/kernel
//! copies on their own time. The separation is what lets the baseline reach
//! 550 Mbps while still costing ~120 µs per small message end-to-end.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Weak};

use bytes::Bytes;
use hostsim::Host;
use parking_lot::Mutex;
use simnet::{
    EtherType, Frame, MacAddr, NetError, OpResult, Payload, ProcessCtx, SimAccess, SimAccessExt,
    SimCondvar, SimQueue, SimResult,
};
use tigon_nic::FirmwareCpu;

use crate::config::TcpConfig;
use crate::nic::{AcenicNic, BatchHandler};
use crate::tcp::{conn_key, ConnKey, TcpInner, TcpSocket, TcpState};
use crate::udp::UdpPort;
use crate::udp::UdpReasm;
use crate::wire::{IpPacket, IpProto, SockAddr, TcpFlags, TcpSegment};

/// A listening socket's kernel state.
pub(crate) struct ListenerState {
    pub(crate) port: u16,
    pub(crate) backlog: usize,
    /// Fully established connections awaiting `accept()`.
    pub(crate) queue: SimQueue<Arc<TcpSocket>>,
}

pub(crate) struct StackState {
    pub(crate) conns: HashMap<ConnKey, Arc<TcpSocket>>,
    pub(crate) listeners: HashMap<u16, Arc<ListenerState>>,
    pub(crate) udp_ports: HashMap<u16, Arc<UdpPort>>,
    pub(crate) udp_reasm: HashMap<(MacAddr, u64), UdpReasm>,
    pub(crate) next_ephemeral: u16,
    pub(crate) next_udp_id: u64,
    /// Socket buffer size for new sockets (the Figure 13 knob).
    pub(crate) sockbuf: usize,
    /// Per-stack connection budget: actives beyond this are refused
    /// ([`NetError::Exhausted`] locally, RST to remote SYNs). `None` =
    /// unbounded.
    pub(crate) max_conns: Option<usize>,
    pub(crate) rst_sent: u64,
    pub(crate) udp_dropped: u64,
}

/// `buf[start..start + len]` as a `Vec`, in at most two slice copies (a
/// `VecDeque` is at most two contiguous runs) instead of a byte iterator.
fn copy_range(buf: &VecDeque<u8>, start: usize, len: usize) -> Vec<u8> {
    let (a, b) = buf.as_slices();
    let head = a.get(start..).unwrap_or(&[]);
    let from_a = head.len().min(len);
    let b_start = start.saturating_sub(a.len());
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&head[..from_a]);
    out.extend_from_slice(&b[b_start..b_start + len - from_a]);
    out
}

/// One host's kernel network stack.
pub struct TcpStack {
    pub(crate) host: Host,
    pub(crate) cfg: TcpConfig,
    /// The kernel execution resource (interrupts, protocol processing).
    pub(crate) kernel: FirmwareCpu,
    pub(crate) nic: Arc<AcenicNic>,
    pub(crate) state: Mutex<StackState>,
    /// Notified on any socket becoming readable — the `select()` hook.
    pub(crate) activity: SimCondvar,
    /// Cached `tcp.n<id>.segments_out` counter; telemetry is hooked up on
    /// the first emitted packet (the stack is built before any `Sim`
    /// exists).
    segments_out: Mutex<Option<Arc<simnet::emp_trace::Counter>>>,
    self_ref: Weak<TcpStack>,
}

impl TcpStack {
    /// Build the stack (and its NIC) for `host`.
    pub fn new(host: Host, cfg: TcpConfig) -> Arc<Self> {
        let nic = AcenicNic::new(
            host.id(),
            cfg.nic_tx_cost,
            cfg.coalesce_timer,
            cfg.coalesce_frames,
        );
        let sockbuf = cfg.default_sockbuf;
        let node = host.id().0;
        let stack = Arc::new_cyclic(|weak: &Weak<TcpStack>| TcpStack {
            host,
            cfg,
            kernel: FirmwareCpu::new("kernel").with_node(node),
            nic,
            state: Mutex::new(StackState {
                conns: HashMap::new(),
                listeners: HashMap::new(),
                udp_ports: HashMap::new(),
                udp_reasm: HashMap::new(),
                next_ephemeral: 32768,
                next_udp_id: 0,
                sockbuf,
                max_conns: None,
                rst_sent: 0,
                udp_dropped: 0,
            }),
            activity: SimCondvar::new(),
            segments_out: Mutex::new(None),
            self_ref: weak.clone(),
        });
        let weak: Weak<dyn BatchHandler> = Arc::downgrade(&stack) as Weak<dyn BatchHandler>;
        stack.nic.set_handler(weak);
        stack
    }

    /// The host this stack serves.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// The stack's NIC (to cable to a switch).
    pub fn nic(&self) -> &Arc<AcenicNic> {
        &self.nic
    }

    /// Stack configuration.
    pub fn cfg(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Set the socket buffer size used by sockets created from now on (the
    /// paper's "kernel space allocated by TCP for the NIC" knob, §7.2).
    pub fn set_sockbuf(&self, bytes: usize) {
        self.state.lock().sockbuf = bytes;
    }

    /// Cap live connections on this stack: an active open past the cap
    /// fails with [`NetError::Exhausted`]; a remote SYN past it is
    /// refused with RST, exactly like a full accept backlog. `None`
    /// removes the cap.
    pub fn set_max_conns(&self, max: Option<usize>) {
        self.state.lock().max_conns = max;
    }

    /// RST segments emitted (refused connections).
    pub fn rsts_sent(&self) -> u64 {
        self.state.lock().rst_sent
    }

    /// Connections currently in the demux table — the overload harness's
    /// leak check (zero once every socket is closed on both ends).
    pub fn live_conns(&self) -> usize {
        self.state.lock().conns.len()
    }

    /// Total kernel-CPU time consumed by this stack (interrupts, protocol
    /// processing, ack generation) — the host cost EMP's NIC-resident
    /// design avoids.
    pub fn kernel_cpu_busy(&self) -> simnet::SimDuration {
        self.kernel.busy_total()
    }

    /// UDP datagrams dropped for lack of receive-queue space.
    pub fn udp_datagrams_dropped(&self) -> u64 {
        self.state.lock().udp_dropped
    }

    pub(crate) fn arc(&self) -> Arc<TcpStack> {
        self.self_ref.upgrade().expect("TcpStack is Arc-owned")
    }

    // ------------------------------------------------------------------
    // Wire side
    // ------------------------------------------------------------------

    pub(crate) fn emit(&self, s: &dyn SimAccess, pkt: IpPacket) {
        self.ensure_telemetry(s).inc();
        let wire_len = pkt.wire_len();
        let frame = Frame {
            src: pkt.src,
            dst: pkt.dst,
            ethertype: EtherType::IPV4,
            payload: Payload::new(pkt, wire_len),
        };
        self.nic.send(s, frame);
    }

    /// First-packet telemetry hookup: the per-node outbound-segment
    /// counter plus a sampled series of established connections.
    fn ensure_telemetry(&self, s: &dyn SimAccess) -> Arc<simnet::emp_trace::Counter> {
        if let Some(c) = self.segments_out.lock().clone() {
            return c;
        }
        let reg = s.telemetry();
        let node = self.host.id().0;
        let c = reg.counter(&format!("tcp.n{node}.segments_out"));
        let weak = self.self_ref.clone();
        reg.register_sampled(&format!("tcp.n{node}.conns"), move |_| {
            let st = weak.upgrade()?;
            let g = st.state.try_lock()?;
            Some(g.conns.len() as i64)
        });
        *self.segments_out.lock() = Some(Arc::clone(&c));
        c
    }

    /// Emit `seg` for `sock` on the kernel CPU at `cost`.
    fn emit_segment(
        &self,
        s: &dyn SimAccess,
        sock: &Arc<TcpSocket>,
        seg: TcpSegment,
        cost: simnet::SimDuration,
    ) {
        let me = self.arc();
        let pkt = IpPacket {
            src: sock.local.host,
            dst: sock.remote.host,
            proto: IpProto::Tcp(seg),
        };
        self.kernel.exec(s, cost, move |sim| me.emit(sim, pkt));
    }

    fn on_segment(&self, sim: &dyn SimAccess, src: MacAddr, seg: TcpSegment) {
        let key = ConnKey {
            local_port: seg.dst_port,
            remote: SockAddr::new(src, seg.src_port),
        };
        let sock = self.state.lock().conns.get(&key).cloned();
        if let Some(sock) = sock {
            self.sock_on_segment(sim, &sock, seg);
            return;
        }
        if seg.flags.syn && !seg.flags.ack {
            let (listener, budget_free) = {
                let st = self.state.lock();
                let free = st.max_conns.is_none_or(|m| st.conns.len() < m);
                (st.listeners.get(&seg.dst_port).cloned(), free)
            };
            if let Some(l) = listener {
                if budget_free && l.queue.len() < l.backlog {
                    self.spawn_child(sim, &l, key, &seg);
                    return;
                }
            }
            // No listener or backlog overflow: refuse.
            self.send_rst(sim, key);
        }
        // Anything else for an unknown connection is a stale segment from a
        // torn-down socket; drop it.
    }

    fn spawn_child(
        &self,
        sim: &dyn SimAccess,
        l: &Arc<ListenerState>,
        key: ConnKey,
        syn: &TcpSegment,
    ) {
        let sockbuf = self.state.lock().sockbuf;
        let child = Arc::new(TcpSocket {
            local: SockAddr::new(self.host.id(), l.port),
            remote: key.remote,
            inner: Mutex::new(TcpInner::new(&self.cfg, sockbuf, TcpState::SynRcvd)),
            cv: SimCondvar::new(),
        });
        child.inner.lock().peer_window = syn.window;
        self.state.lock().conns.insert(key, Arc::clone(&child));
        self.send_flags(
            sim,
            &child,
            TcpFlags {
                syn: true,
                ack: true,
                ..TcpFlags::default()
            },
        );
    }

    fn sock_on_segment(&self, sim: &dyn SimAccess, sock: &Arc<TcpSocket>, seg: TcpSegment) {
        let mut need_ack = false;
        let mut deliver_accept = false;
        let mut remove_key = None;
        {
            let mut i = sock.inner.lock();
            if seg.flags.rst {
                let connecting = i.state == TcpState::SynSent;
                i.reset = true;
                i.state = TcpState::Closed;
                drop(i);
                if !connecting {
                    // `connect` tears a refused socket down itself.
                    self.state
                        .lock()
                        .conns
                        .remove(&conn_key(sock.local, sock.remote));
                }
                sock.cv.notify_all(sim);
                self.activity.notify_all(sim);
                return;
            }
            if !seg.data.is_empty() && i.fin_queued && i.orphaned {
                // Data for a socket the application has closed and let go
                // of: nobody will read it, so the socket is reset and the
                // peer told (RFC 1122 §4.2.2.13; Linux counts it as
                // TCPAbortOnData).
                i.reset = true;
                i.state = TcpState::Closed;
                drop(i);
                let key = conn_key(sock.local, sock.remote);
                self.state.lock().conns.remove(&key);
                self.send_rst(sim, key);
                sock.cv.notify_all(sim);
                self.activity.notify_all(sim);
                return;
            }
            i.peer_window = seg.window;
            if seg.flags.ack {
                let advance = seg.ack.min(i.snd_nxt).saturating_sub(i.snd_una);
                if advance > 0 {
                    i.snd_una += advance;
                    i.snd_buf.drain(..advance as usize);
                    // Slow start: one MSS per new ack; a loss-free LAN
                    // never leaves this phase. Capped to keep it finite.
                    i.cwnd = (i.cwnd + self.cfg.mss).min(1 << 20);
                }
            }
            match i.state {
                TcpState::SynSent if seg.flags.syn && seg.flags.ack => {
                    i.state = TcpState::Established;
                    need_ack = true;
                }
                TcpState::SynRcvd if seg.flags.ack && !seg.flags.syn => {
                    i.state = TcpState::Established;
                    deliver_accept = true;
                }
                _ => {}
            }
            if !seg.data.is_empty() && matches!(i.state, TcpState::Established | TcpState::FinWait)
            {
                debug_assert_eq!(seg.seq, i.rcv_nxt, "loss-free fabric delivers in order");
                i.rcv_buf.extend(&seg.data[..]);
                i.rcv_nxt += seg.data.len() as u64;
                i.unacked_segments += 1;
                if i.unacked_segments >= self.cfg.ack_every_segments {
                    need_ack = true;
                } else if !i.delack_armed {
                    i.delack_armed = true;
                    i.delack_gen += 1;
                    let gen = i.delack_gen;
                    let me = self.arc();
                    let sock2 = Arc::clone(sock);
                    sim.timer_after(self.cfg.delack_timeout, move |sim2| {
                        let fire = {
                            let i = sock2.inner.lock();
                            i.delack_armed && i.delack_gen == gen && i.unacked_segments > 0
                        };
                        if fire {
                            me.send_ack(sim2, &sock2);
                        }
                    });
                }
            }
            if seg.flags.fin {
                i.fin_received = true;
                need_ack = true;
                i.state = match i.state {
                    TcpState::Established => TcpState::CloseWait,
                    TcpState::FinWait => TcpState::Closed,
                    s => s,
                };
            }
            // Crude FIN-ack detection (FIN carries no sequence space in
            // this model): in LastAck, any pure ack finishes the close.
            if i.state == TcpState::LastAck && seg.flags.ack && seg.data.is_empty() {
                i.state = TcpState::Closed;
            }
            if i.state == TcpState::Closed && i.fin_sent && i.fin_received {
                remove_key = Some(conn_key(sock.local, sock.remote));
            }
        }
        sock.cv.notify_all(sim);
        self.activity.notify_all(sim);
        if need_ack {
            self.send_ack(sim, sock);
        }
        if deliver_accept {
            let listener = self.state.lock().listeners.get(&sock.local.port).cloned();
            if let Some(l) = listener {
                l.queue.push(sim, Arc::clone(sock));
            }
        }
        self.try_output(sim, sock);
        if let Some(key) = remove_key {
            self.state.lock().conns.remove(&key);
        }
    }

    /// Push out as much data (and a queued FIN) as windows allow.
    pub(crate) fn try_output(&self, s: &dyn SimAccess, sock: &Arc<TcpSocket>) {
        let mut segs: Vec<TcpSegment> = Vec::new();
        {
            let mut i = sock.inner.lock();
            loop {
                let fin_pending = i.fin_queued && !i.fin_sent;
                if i.reset || (!i.can_send_data() && !fin_pending) {
                    break;
                }
                let window = i.cwnd.min(i.peer_window);
                let budget = window.saturating_sub(i.in_flight());
                let mut len = self.cfg.mss.min(i.unsent()).min(budget);
                // Nagle: a sub-MSS segment waits while earlier data is
                // unacknowledged (and the window isn't the limiter).
                if self.cfg.nagle
                    && len > 0
                    && len < self.cfg.mss
                    && len == i.unsent()
                    && i.in_flight() > 0
                {
                    len = 0;
                }
                if len == 0 {
                    // FIN rides once the buffer is drained onto the wire.
                    if i.fin_queued && !i.fin_sent && i.unsent() == 0 && i.can_send_data() {
                        i.fin_sent = true;
                        i.state = match i.state {
                            TcpState::Established => TcpState::FinWait,
                            TcpState::CloseWait => TcpState::LastAck,
                            s => s,
                        };
                        let adv = i.advertised_window(&self.cfg);
                        i.last_advertised = adv;
                        i.unacked_segments = 0;
                        i.delack_gen += 1;
                        i.delack_armed = false;
                        segs.push(TcpSegment {
                            src_port: sock.local.port,
                            dst_port: sock.remote.port,
                            seq: i.snd_nxt,
                            ack: i.rcv_nxt,
                            flags: TcpFlags {
                                fin: true,
                                ack: true,
                                ..TcpFlags::default()
                            },
                            window: adv,
                            data: Bytes::new(),
                        });
                    }
                    break;
                }
                let start = i.in_flight();
                let data = copy_range(&i.snd_buf, start, len);
                let adv = i.advertised_window(&self.cfg);
                i.last_advertised = adv;
                i.unacked_segments = 0;
                i.delack_gen += 1;
                i.delack_armed = false;
                segs.push(TcpSegment {
                    src_port: sock.local.port,
                    dst_port: sock.remote.port,
                    seq: i.snd_nxt,
                    ack: i.rcv_nxt,
                    flags: TcpFlags {
                        ack: true,
                        ..TcpFlags::default()
                    },
                    window: adv,
                    data: Bytes::from(data),
                });
                i.snd_nxt += len as u64;
            }
        }
        for seg in segs {
            self.emit_segment(s, sock, seg, self.cfg.tcp_tx_cost);
        }
    }

    /// Emit a pure acknowledgment / window update.
    pub(crate) fn send_ack(&self, s: &dyn SimAccess, sock: &Arc<TcpSocket>) {
        let seg = {
            let mut i = sock.inner.lock();
            let adv = i.advertised_window(&self.cfg);
            i.last_advertised = adv;
            i.unacked_segments = 0;
            i.delack_gen += 1;
            i.delack_armed = false;
            TcpSegment {
                src_port: sock.local.port,
                dst_port: sock.remote.port,
                seq: i.snd_nxt,
                ack: i.rcv_nxt,
                flags: TcpFlags {
                    ack: true,
                    ..TcpFlags::default()
                },
                window: adv,
                data: Bytes::new(),
            }
        };
        self.emit_segment(s, sock, seg, self.cfg.ack_tx_cost);
    }

    fn send_flags(&self, s: &dyn SimAccess, sock: &Arc<TcpSocket>, flags: TcpFlags) {
        let seg = {
            let i = sock.inner.lock();
            TcpSegment {
                src_port: sock.local.port,
                dst_port: sock.remote.port,
                seq: i.snd_nxt,
                ack: if flags.ack { i.rcv_nxt } else { 0 },
                flags,
                window: i.advertised_window(&self.cfg),
                data: Bytes::new(),
            }
        };
        self.emit_segment(s, sock, seg, self.cfg.tcp_tx_cost);
    }

    fn send_rst(&self, s: &dyn SimAccess, key: ConnKey) {
        self.state.lock().rst_sent += 1;
        let me = self.arc();
        let pkt = IpPacket {
            src: self.host.id(),
            dst: key.remote.host,
            proto: IpProto::Tcp(TcpSegment {
                src_port: key.local_port,
                dst_port: key.remote.port,
                seq: 0,
                ack: 0,
                flags: TcpFlags {
                    rst: true,
                    ..TcpFlags::default()
                },
                window: 0,
                data: Bytes::new(),
            }),
        };
        self.kernel
            .exec(s, self.cfg.ack_tx_cost, move |sim| me.emit(sim, pkt));
    }

    // ------------------------------------------------------------------
    // Process-facing operations (called through `api`)
    // ------------------------------------------------------------------

    fn alloc_ephemeral(&self, remote: SockAddr) -> u16 {
        let mut st = self.state.lock();
        loop {
            let port = st.next_ephemeral;
            st.next_ephemeral = if st.next_ephemeral >= 60999 {
                32768
            } else {
                st.next_ephemeral + 1
            };
            let key = ConnKey {
                local_port: port,
                remote,
            };
            if !st.conns.contains_key(&key) && !st.listeners.contains_key(&port) {
                return port;
            }
        }
    }

    /// Active open. Blocks until established or refused.
    pub(crate) fn connect(&self, ctx: &ProcessCtx, remote: SockAddr) -> OpResult<Arc<TcpSocket>> {
        self.connect_inner(ctx, remote, None)
    }

    /// [`Self::connect`] bounded by an optional deadline: gives up with
    /// [`NetError::Timeout`] (tearing the half-open socket down) when the
    /// handshake has not completed in time. Refusal (RST) stays a
    /// distinct outcome, as does [`NetError::Exhausted`] past the
    /// per-stack connection budget.
    pub(crate) fn connect_inner(
        &self,
        ctx: &ProcessCtx,
        remote: SockAddr,
        deadline: Option<simnet::SimDuration>,
    ) -> OpResult<Arc<TcpSocket>> {
        ctx.delay(self.host.cost().syscall)?;
        {
            let st = self.state.lock();
            if st.max_conns.is_some_and(|m| st.conns.len() >= m) {
                ctx.telemetry().counter("tcp.connects_exhausted").add(1);
                return Ok(Err(NetError::Exhausted));
            }
        }
        let port = self.alloc_ephemeral(remote);
        let sockbuf = self.state.lock().sockbuf;
        let sock = Arc::new(TcpSocket {
            local: SockAddr::new(self.host.id(), port),
            remote,
            inner: Mutex::new(TcpInner::new(&self.cfg, sockbuf, TcpState::SynSent)),
            cv: SimCondvar::new(),
        });
        self.state
            .lock()
            .conns
            .insert(conn_key(sock.local, sock.remote), Arc::clone(&sock));
        self.send_flags(
            ctx,
            &sock,
            TcpFlags {
                syn: true,
                ..TcpFlags::default()
            },
        );
        let give_up_at = deadline.map(|d| ctx.now() + d);
        if let Some(at) = give_up_at {
            // The deadline rides the socket's own wake source.
            let cv = sock.cv.clone();
            ctx.timer_at(at, move |s| cv.notify_all(s));
        }
        loop {
            {
                let i = sock.inner.lock();
                if i.reset {
                    drop(i);
                    self.state
                        .lock()
                        .conns
                        .remove(&conn_key(sock.local, sock.remote));
                    ctx.telemetry().counter("tcp.connects_refused").add(1);
                    return Ok(Err(NetError::Refused));
                }
                if i.state == TcpState::Established {
                    break;
                }
            }
            if give_up_at.is_some_and(|at| ctx.now() >= at) {
                // Tear the half-open socket down: the demux entry goes,
                // so a late SYN-ACK meets a drop (and the peer's child
                // socket is cleaned up by its own lifecycle).
                self.state
                    .lock()
                    .conns
                    .remove(&conn_key(sock.local, sock.remote));
                sock.inner.lock().state = TcpState::Closed;
                ctx.telemetry().counter("tcp.connects_timedout").add(1);
                return Ok(Err(NetError::Timeout));
            }
            sock.cv.wait(ctx)?;
        }
        ctx.delay(self.host.cost().process_wakeup + self.host.cost().context_switch)?;
        Ok(Ok(sock))
    }

    /// Passive open.
    pub(crate) fn listen(
        &self,
        ctx: &ProcessCtx,
        port: u16,
        backlog: usize,
    ) -> OpResult<Arc<ListenerState>> {
        ctx.delay(self.host.cost().syscall)?;
        let mut st = self.state.lock();
        if st.listeners.contains_key(&port) {
            return Ok(Err(NetError::AddrInUse));
        }
        let l = Arc::new(ListenerState {
            port,
            backlog,
            queue: SimQueue::new(),
        });
        st.listeners.insert(port, Arc::clone(&l));
        Ok(Ok(l))
    }

    /// Stop listening (frees the port; queued connections stay accepted).
    pub(crate) fn unlisten(&self, port: u16) {
        self.state.lock().listeners.remove(&port);
    }

    /// Whether `l` was unlistened with nothing left in its queue: no
    /// connection can ever arrive for it.
    fn listener_closed(&self, l: &Arc<ListenerState>) -> bool {
        l.queue.is_empty()
            && !self
                .state
                .lock()
                .listeners
                .get(&l.port)
                .is_some_and(|cur| Arc::ptr_eq(cur, l))
    }

    /// Accept the next established connection; [`NetError::Closed`] once
    /// the listener is closed and drained. With an empty queue a blocking
    /// call parks for the next connection and a nonblocking one returns
    /// [`NetError::WouldBlock`].
    pub(crate) fn accept(
        &self,
        ctx: &ProcessCtx,
        l: &Arc<ListenerState>,
        block: bool,
    ) -> OpResult<Arc<TcpSocket>> {
        ctx.delay(self.host.cost().syscall)?;
        // Popping first and looking for a closed listener only on an empty
        // queue decides as looking first would: a closed listener is one
        // whose queue is empty.
        let sock = match l.queue.try_pop() {
            Some(sock) => sock,
            None if self.listener_closed(l) => return Ok(Err(NetError::Closed)),
            None if !block => return Ok(Err(NetError::WouldBlock)),
            None => l.queue.pop(ctx)?,
        };
        ctx.delay(self.host.cost().process_wakeup + self.host.cost().context_switch)?;
        Ok(Ok(sock))
    }

    /// Read up to `max` bytes. Empty result = orderly EOF. With nothing
    /// buffered a blocking call parks (and pays the wakeup once data
    /// comes) and a nonblocking one returns [`NetError::WouldBlock`].
    pub(crate) fn read(
        &self,
        ctx: &ProcessCtx,
        sock: &Arc<TcpSocket>,
        max: usize,
        block: bool,
    ) -> OpResult<Bytes> {
        ctx.delay(self.host.cost().syscall)?;
        let mut waited = false;
        loop {
            let taken = {
                let mut i = sock.inner.lock();
                if i.reset {
                    return Ok(Err(NetError::PeerClosed));
                }
                if !i.rcv_buf.is_empty() {
                    let n = max.min(i.rcv_buf.len());
                    let data = copy_range(&i.rcv_buf, 0, n);
                    i.rcv_buf.drain(..n);
                    let adv = i.advertised_window(&self.cfg);
                    // Window update when reading opened the window enough
                    // to matter to a stalled sender.
                    let update = adv >= i.last_advertised + 2 * self.cfg.mss;
                    Some((Bytes::from(data), update))
                } else if i.fin_received {
                    return Ok(Ok(Bytes::new()));
                } else if i.state == TcpState::Closed {
                    return Ok(Err(NetError::Closed));
                } else {
                    None
                }
            };
            if let Some((data, update)) = taken {
                if waited {
                    ctx.delay(self.host.cost().process_wakeup + self.host.cost().context_switch)?;
                }
                ctx.delay(self.host.cost().memcpy(data.len()))?;
                if update {
                    self.send_ack(ctx, sock);
                }
                return Ok(Ok(data));
            }
            if !block {
                return Ok(Err(NetError::WouldBlock));
            }
            waited = true;
            sock.inner.lock().reader_waiting = true;
            let res = sock.cv.wait(ctx);
            sock.inner.lock().reader_waiting = false;
            res?;
        }
    }

    /// Write `data` into the send buffer. A blocking call parks while the
    /// buffer is full and returns once every byte is copied (standard
    /// blocking-socket semantics); a nonblocking one copies what fits
    /// right now and reports the count, [`NetError::WouldBlock`] when the
    /// buffer is full before any byte is taken.
    pub(crate) fn write(
        &self,
        ctx: &ProcessCtx,
        sock: &Arc<TcpSocket>,
        data: &[u8],
        block: bool,
    ) -> OpResult<usize> {
        ctx.delay(self.host.cost().syscall)?;
        let mut off = 0;
        while off < data.len() || !block {
            let n = {
                let mut i = sock.inner.lock();
                if i.reset {
                    return Ok(Err(NetError::PeerClosed));
                }
                if i.fin_queued || matches!(i.state, TcpState::Closed | TcpState::FinWait) {
                    return Ok(Err(NetError::Closed));
                }
                let n = (i.snd_cap - i.snd_buf.len()).min(data.len() - off);
                i.snd_buf.extend(&data[off..off + n]);
                n
            };
            if n == 0 && !data.is_empty() {
                if !block {
                    return Ok(Err(NetError::WouldBlock));
                }
                sock.cv.wait(ctx)?;
                continue;
            }
            ctx.delay(self.host.cost().memcpy(n))?;
            self.try_output(ctx, sock);
            if !block {
                return Ok(Ok(n));
            }
            off += n;
        }
        Ok(Ok(data.len()))
    }

    /// Orderly close: queue a FIN behind any buffered data.
    pub(crate) fn close(&self, ctx: &ProcessCtx, sock: &Arc<TcpSocket>) -> SimResult<()> {
        ctx.delay(self.host.cost().syscall)?;
        {
            let mut i = sock.inner.lock();
            if i.fin_queued || i.reset || i.state == TcpState::Closed {
                return Ok(());
            }
            i.fin_queued = true;
        }
        self.try_output(ctx, sock);
        Ok(())
    }
}

impl BatchHandler for TcpStack {
    fn handle_batch(&self, s: &dyn SimAccess, frames: Vec<Frame>) {
        // One interrupt for the whole batch, then per-segment processing,
        // all on the kernel CPU.
        self.kernel.book(s, self.cfg.interrupt_cost);
        for frame in frames {
            let Some(pkt) = frame.payload.downcast::<IpPacket>().cloned() else {
                continue;
            };
            let cost = match &pkt.proto {
                IpProto::Tcp(seg)
                    if seg.data.is_empty()
                        && !seg.flags.syn
                        && !seg.flags.fin
                        && !seg.flags.rst =>
                {
                    self.cfg.ack_rx_cost
                }
                _ => self.cfg.tcp_rx_cost,
            };
            let me = self.arc();
            self.kernel.exec(s, cost, move |sim| match pkt.proto {
                IpProto::Tcp(seg) => me.on_segment(sim, pkt.src, seg),
                IpProto::UdpFrag {
                    id,
                    idx,
                    count,
                    dgram,
                    frag_len,
                } => crate::udp::on_frag(&me, sim, pkt.src, id, idx, count, dgram, frag_len),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_range_matches_the_byte_iterator_across_the_wrap() {
        // Push and pop until the ring's head sits mid-buffer, so the
        // contents straddle the wrap point in two runs.
        let mut buf: VecDeque<u8> = VecDeque::with_capacity(16);
        buf.extend(0u8..12);
        buf.drain(..9);
        buf.extend(12u8..24);
        assert!(!buf.as_slices().1.is_empty(), "fixture must wrap");
        for start in 0..=buf.len() {
            for len in 0..=buf.len() - start {
                let want: Vec<u8> = buf.iter().skip(start).take(len).copied().collect();
                assert_eq!(copy_range(&buf, start, len), want, "{start}+{len}");
            }
        }
    }
}

//! Full-duplex point-to-point links.
//!
//! A [`LinkTx`] models one direction of a link: frames serialize at the
//! configured line rate (back-to-back frames queue behind `busy_until`, i.e.
//! an infinite output FIFO whose depth is tracked in the stats), then arrive
//! at the peer [`FrameSink`] after the propagation delay.
//!
//! A sender whose frame reaches the MAC at a known later instant books it
//! onto the wire at once with [`LinkTx::send_at`] instead of scheduling an
//! event to send it then. That is exact only if every frame on the link is
//! booked in the order the instants come: the NIC's tx CPU and the switch's
//! fixed forwarding latency both guarantee it.

use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::engine::SimAccess;
use crate::fault::{FaultDecision, FaultPlan, FaultState};
use crate::frame::Frame;
use crate::stats::{LinkStats, Throughput};
use crate::time::{SimDuration, SimTime};

/// Anything that can receive Ethernet frames: a NIC's MAC, a switch port.
pub trait FrameSink: Send + Sync {
    /// Called when the last bit of `frame` has arrived.
    fn deliver(&self, s: &dyn SimAccess, frame: Frame);
}

/// Physical-layer parameters of a link.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Line rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay (cable length + PHY latency).
    pub propagation: SimDuration,
    /// Failure injection plan (seeded, deterministic — lossy runs stay
    /// reproducible). [`FaultPlan::none`] = lossless, the testbed default
    /// (a machine-room Gigabit switch corrupts essentially nothing; faults
    /// are injected only to exercise reliability paths).
    pub faults: FaultPlan,
}

impl Default for LinkConfig {
    /// Gigabit Ethernet over a short machine-room cable.
    fn default() -> Self {
        LinkConfig {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::from_nanos(500),
            faults: FaultPlan::none(),
        }
    }
}

struct TxState {
    busy_until: SimTime,
    throughput: Throughput,
    faults: FaultState,
    frames_sent: u64,
    frames_dropped: u64,
    frames_corrupted: u64,
    frames_delayed: u64,
    max_backlog: SimDuration,
    /// Telemetry name (e.g. `switch.port0`, `nic.n1.uplink`); links with
    /// no name stay anonymous and publish nothing.
    name: Option<String>,
    /// Set once the backlog series has been registered.
    registered: bool,
}

/// The transmitting end of one direction of a link.
///
/// Holds only a weak reference to the peer sink, so component graphs built
/// through a switch contain no `Arc` cycles and are reclaimed when the
/// testbed drops.
#[derive(Clone)]
pub struct LinkTx {
    cfg: LinkConfig,
    peer: Weak<dyn FrameSink>,
    state: Arc<Mutex<TxState>>,
}

impl LinkTx {
    /// Create a transmitter delivering to `peer`.
    pub fn new(cfg: LinkConfig, peer: &Arc<dyn FrameSink>) -> Self {
        LinkTx {
            cfg,
            peer: Arc::downgrade(peer),
            state: Arc::new(Mutex::new(TxState {
                busy_until: SimTime::ZERO,
                throughput: Throughput::new(),
                faults: FaultState::new(&cfg.faults),
                frames_sent: 0,
                frames_dropped: 0,
                frames_corrupted: 0,
                frames_delayed: 0,
                max_backlog: SimDuration::ZERO,
                name: None,
                registered: false,
            })),
        }
    }

    /// Name this link for telemetry. On the next [`LinkTx::send`] a
    /// `<name>.backlog_ns` time series (output-queue depth expressed as
    /// nanoseconds of queued wire time) is registered with the
    /// simulation's registry.
    pub fn set_name(&self, name: impl Into<String>) {
        self.state.lock().name = Some(name.into());
    }

    /// Queue `frame` for transmission now. Serialization begins when the
    /// wire frees up; delivery fires at `start + serialization +
    /// propagation`.
    pub fn send(&self, s: &dyn SimAccess, frame: Frame) {
        self.send_at(s, s.now(), frame);
    }

    /// Queue `frame` as handed to the MAC at `at` (now or later): it starts
    /// at `max(at, busy_until)`, and everything about it — its wire slot,
    /// its fault draw, its trace events and its delivery event — is fixed
    /// now, as of `at`. Every frame a link carries must reach it in the
    /// order of its `at`.
    pub fn send_at(&self, s: &dyn SimAccess, at: SimTime, frame: Frame) {
        let Some(peer) = self.peer.upgrade() else {
            return; // peer torn down; drop the frame silently
        };
        let tx_time = SimDuration::for_bits_at_rate(frame.wire_bits(), self.cfg.bandwidth_bps);
        let (start, deliver_at, fate, register) = {
            let mut st = self.state.lock();
            let start = at.max(st.busy_until);
            let backlog = start.since(at);
            st.max_backlog = st.max_backlog.max(backlog);
            st.busy_until = start + tx_time;
            st.frames_sent += 1;
            st.throughput.record(at, frame.payload.wire_len() as u64);
            // Failure injection. Dropped/corrupted frames still occupy the
            // wire (corruption means the FCS fails at the receiver) but
            // are never delivered; delayed frames may be overtaken.
            let frames_sent = st.frames_sent;
            let fate = st.faults.decide(&self.cfg.faults, start, frames_sent);
            match fate {
                FaultDecision::Drop | FaultDecision::Down => st.frames_dropped += 1,
                FaultDecision::Corrupt => st.frames_corrupted += 1,
                FaultDecision::Deliver { extra_delay } if !extra_delay.is_zero() => {
                    st.frames_delayed += 1
                }
                FaultDecision::Deliver { .. } => {}
            }
            // The backlog series is registered on the first named send.
            let register = st.name.clone().filter(|_| !st.registered);
            st.registered |= register.is_some();
            (start, st.busy_until + self.cfg.propagation, fate, register)
        };
        if let Some(name) = register {
            self.register_telemetry(s, &name);
        }
        let extra_delay = match fate {
            FaultDecision::Deliver { extra_delay } => Some(extra_delay),
            _ => None,
        };
        if emp_trace::ENABLED {
            // Stamped at serialization start, which may be in the future
            // when the frame queues behind earlier traffic.
            let kind = match fate {
                FaultDecision::Drop => emp_trace::EventKind::FrameDrop,
                FaultDecision::Corrupt => emp_trace::EventKind::FrameCorrupt,
                FaultDecision::Down => emp_trace::EventKind::LinkDown,
                FaultDecision::Deliver { .. } => emp_trace::EventKind::WireTx,
            };
            s.tracer().emit(
                start.nanos(),
                frame.src.0,
                emp_trace::NO_CONN,
                kind,
                frame.payload.wire_len() as u64,
                u64::from(frame.dst.0),
            );
            if let Some(extra) = extra_delay.filter(|d| !d.is_zero()) {
                s.tracer().emit(
                    start.nanos(),
                    frame.src.0,
                    emp_trace::NO_CONN,
                    emp_trace::EventKind::FrameReorder,
                    frame.payload.wire_len() as u64,
                    extra.nanos(),
                );
            }
        }
        if let Some(extra) = extra_delay {
            let arrive = deliver_at + extra;
            if emp_trace::ENABLED {
                s.tracer().emit(
                    arrive.nanos(),
                    frame.dst.0,
                    emp_trace::NO_CONN,
                    emp_trace::EventKind::WireRx,
                    frame.payload.wire_len() as u64,
                    u64::from(frame.src.0),
                );
            }
            s.schedule_delivery(arrive, at, peer, frame);
        }
    }

    /// Register the backlog series. Runs with the state lock released so
    /// the registry's sampler (which locks state from its poll closure) can
    /// never see an inverted lock order.
    fn register_telemetry(&self, s: &dyn SimAccess, name: &str) {
        let state = Arc::downgrade(&self.state);
        s.telemetry()
            .register_sampled(&format!("{name}.backlog_ns"), move |t| {
                let st = state.upgrade()?;
                let g = st.try_lock()?;
                Some(g.busy_until.nanos().saturating_sub(t) as i64)
            });
    }

    /// Instant at which the wire becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.state.lock().busy_until
    }

    /// Total frames handed to this transmitter.
    pub fn frames_sent(&self) -> u64 {
        self.state.lock().frames_sent
    }

    /// Frames lost outright to the injected fault model (periodic,
    /// probabilistic or burst loss, and scheduled down windows).
    pub fn frames_dropped(&self) -> u64 {
        self.state.lock().frames_dropped
    }

    /// Frames corrupted in flight: they occupied the wire but failed the
    /// receiver's FCS check and were never delivered.
    pub fn frames_corrupted(&self) -> u64 {
        self.state.lock().frames_corrupted
    }

    /// Frames held back by injected reorder/jitter delay.
    pub fn frames_delayed(&self) -> u64 {
        self.state.lock().frames_delayed
    }

    /// Snapshot of all per-link counters.
    pub fn stats(&self) -> LinkStats {
        let st = self.state.lock();
        LinkStats {
            frames_sent: st.frames_sent,
            frames_dropped: st.frames_dropped,
            frames_corrupted: st.frames_corrupted,
            frames_delayed: st.frames_delayed,
            max_backlog: st.max_backlog,
            payload_bytes: st.throughput.bytes(),
            payload_mbps: st.throughput.mbps(),
        }
    }

    /// Longest time a frame waited behind earlier traffic.
    pub fn max_backlog(&self) -> SimDuration {
        self.state.lock().max_backlog
    }

    /// Payload throughput observed so far (Mbps), if any traffic flowed.
    pub fn payload_mbps(&self) -> Option<f64> {
        self.state.lock().throughput.mbps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Sim, SimAccessExt};
    use crate::frame::{EtherType, MacAddr, Payload};

    struct Recorder {
        arrivals: Mutex<Vec<(u64, usize)>>,
    }

    impl FrameSink for Recorder {
        fn deliver(&self, s: &dyn SimAccess, frame: Frame) {
            self.arrivals
                .lock()
                .push((s.now().nanos(), frame.payload.wire_len()));
        }
    }

    fn frame(len: usize) -> Frame {
        Frame {
            src: MacAddr(0),
            dst: MacAddr(1),
            ethertype: EtherType::EMP,
            payload: Payload::new((), len),
        }
    }

    #[test]
    fn single_frame_timing() {
        let sim = Sim::new();
        let rec = Arc::new(Recorder {
            arrivals: Mutex::new(Vec::new()),
        });
        let sink: Arc<dyn FrameSink> = rec.clone();
        let tx = LinkTx::new(
            LinkConfig {
                bandwidth_bps: 1_000_000_000,
                propagation: SimDuration::from_nanos(100),
                faults: FaultPlan::none(),
            },
            &sink,
        );
        let tx2 = tx.clone();
        sim.schedule_at(SimTime::ZERO, move |s| tx2.send(s, frame(4)));
        sim.run();
        // 84 bytes on wire = 672 ns serialization + 100 ns propagation.
        assert_eq!(*rec.arrivals.lock(), vec![(772, 4)]);
    }

    #[test]
    fn back_to_back_frames_queue_on_the_wire() {
        let sim = Sim::new();
        let rec = Arc::new(Recorder {
            arrivals: Mutex::new(Vec::new()),
        });
        let sink: Arc<dyn FrameSink> = rec.clone();
        let tx = LinkTx::new(
            LinkConfig {
                bandwidth_bps: 1_000_000_000,
                propagation: SimDuration::ZERO,
                faults: FaultPlan::none(),
            },
            &sink,
        );
        let tx2 = tx.clone();
        sim.schedule_at(SimTime::ZERO, move |s| {
            // Two MTU frames sent in the same instant: the second must wait
            // a full serialization time (12304 ns) behind the first.
            tx2.send(s, frame(1500));
            tx2.send(s, frame(1500));
        });
        sim.run();
        assert_eq!(*rec.arrivals.lock(), vec![(12_304, 1500), (24_608, 1500)]);
        assert_eq!(tx.frames_sent(), 2);
        assert_eq!(tx.max_backlog(), SimDuration::from_nanos(12_304));
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let sim = Sim::new();
        let rec = Arc::new(Recorder {
            arrivals: Mutex::new(Vec::new()),
        });
        let sink: Arc<dyn FrameSink> = rec.clone();
        let tx = LinkTx::new(
            LinkConfig {
                bandwidth_bps: 1_000_000_000,
                propagation: SimDuration::ZERO,
                faults: FaultPlan::none(),
            },
            &sink,
        );
        let tx2 = tx.clone();
        sim.schedule_at(SimTime::ZERO, move |s| tx2.send(s, frame(4)));
        let tx3 = tx.clone();
        sim.schedule_at(SimTime::from_nanos(100_000), move |s| tx3.send(s, frame(4)));
        sim.run();
        assert_eq!(*rec.arrivals.lock(), vec![(672, 4), (100_672, 4)]);
        assert_eq!(tx.max_backlog(), SimDuration::ZERO);
    }

    #[test]
    fn loss_injection_drops_every_nth_frame() {
        let sim = Sim::new();
        let rec = Arc::new(Recorder {
            arrivals: Mutex::new(Vec::new()),
        });
        let sink: Arc<dyn FrameSink> = rec.clone();
        let tx = LinkTx::new(
            LinkConfig {
                bandwidth_bps: 1_000_000_000,
                propagation: SimDuration::ZERO,
                faults: FaultPlan::drop_every(3),
            },
            &sink,
        );
        let tx2 = tx.clone();
        sim.schedule_at(SimTime::ZERO, move |s| {
            for _ in 0..9 {
                tx2.send(s, frame(4));
            }
        });
        sim.run();
        assert_eq!(rec.arrivals.lock().len(), 6, "frames 3, 6, 9 dropped");
        assert_eq!(tx.frames_dropped(), 3);
        assert_eq!(tx.frames_sent(), 9);
    }

    fn blast(plan: FaultPlan, n: usize) -> (Arc<Recorder>, LinkTx) {
        let sim = Sim::new();
        let rec = Arc::new(Recorder {
            arrivals: Mutex::new(Vec::new()),
        });
        let sink: Arc<dyn FrameSink> = rec.clone();
        let tx = LinkTx::new(
            LinkConfig {
                bandwidth_bps: 1_000_000_000,
                propagation: SimDuration::ZERO,
                faults: plan,
            },
            &sink,
        );
        let tx2 = tx.clone();
        sim.schedule_at(SimTime::ZERO, move |s| {
            for _ in 0..n {
                tx2.send(s, frame(4));
            }
        });
        sim.run();
        (rec, tx)
    }

    #[test]
    fn probabilistic_loss_is_seeded_and_reproducible() {
        let plan = FaultPlan::seeded(99).with_drop_prob(0.3);
        let (rec_a, tx_a) = blast(plan, 200);
        let (rec_b, tx_b) = blast(plan, 200);
        assert_eq!(*rec_a.arrivals.lock(), *rec_b.arrivals.lock());
        assert_eq!(tx_a.frames_dropped(), tx_b.frames_dropped());
        let dropped = tx_a.frames_dropped();
        assert!(
            (30..90).contains(&dropped),
            "p=0.3 over 200 frames dropped {dropped}"
        );
        assert_eq!(
            rec_a.arrivals.lock().len() as u64 + dropped,
            tx_a.frames_sent()
        );
    }

    #[test]
    fn corruption_is_counted_separately_from_drops() {
        let plan = FaultPlan::seeded(5).with_corrupt_prob(0.25);
        let (rec, tx) = blast(plan, 200);
        let stats = tx.stats();
        assert_eq!(stats.frames_dropped, 0);
        assert!(
            (20..80).contains(&stats.frames_corrupted),
            "p=0.25 over 200 frames corrupted {}",
            stats.frames_corrupted
        );
        assert_eq!(tx.frames_corrupted(), stats.frames_corrupted);
        assert_eq!(
            rec.arrivals.lock().len() as u64 + stats.frames_corrupted,
            stats.frames_sent
        );
    }

    #[test]
    fn reorder_injection_lets_later_frames_overtake() {
        let plan = FaultPlan::seeded(11).with_reorder(0.5, SimDuration::from_micros(100));
        let (rec, tx) = blast(plan, 50);
        let arrivals = rec.arrivals.lock();
        assert_eq!(arrivals.len(), 50, "reordering must not lose frames");
        assert!(tx.frames_delayed() > 0, "no reorder delays fired");
        // The recorder logs in delivery order; a delayed frame makes the
        // timestamp sequence non-monotonic relative to send order only if
        // something actually overtook. With per-frame extra delay the
        // arrival times are no longer the uniform back-to-back spacing.
        let times: Vec<u64> = arrivals.iter().map(|(t, _)| *t).collect();
        let spacing: Vec<u64> = times
            .windows(2)
            .map(|w| w[1].saturating_sub(w[0]))
            .collect();
        assert!(
            spacing.iter().any(|&gap| gap != spacing[0]),
            "delays did not perturb delivery schedule"
        );
    }

    #[test]
    fn down_window_drops_frames_while_link_is_down() {
        // Down for the first 10 µs of every 100 µs; blasting at t=0 the
        // first frames fall inside the outage.
        let plan = FaultPlan::seeded(1)
            .with_down_schedule(SimDuration::from_micros(100), SimDuration::from_micros(10));
        let (rec, tx) = blast(plan, 100);
        assert!(tx.frames_dropped() > 0, "no frames lost to the outage");
        assert_eq!(
            rec.arrivals.lock().len() as u64 + tx.frames_dropped(),
            tx.frames_sent()
        );
    }

    #[test]
    fn dropped_peer_discards_frames() {
        let sim = Sim::new();
        let rec = Arc::new(Recorder {
            arrivals: Mutex::new(Vec::new()),
        });
        let sink: Arc<dyn FrameSink> = rec.clone();
        let tx = LinkTx::new(LinkConfig::default(), &sink);
        drop(sink);
        drop(rec); // peer fully gone
        let tx2 = tx.clone();
        sim.schedule_at(SimTime::ZERO, move |s| tx2.send(s, frame(4)));
        sim.run(); // must not panic
        assert_eq!(tx.frames_sent(), 0);
    }
}

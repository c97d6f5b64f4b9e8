//! A store-and-forward Ethernet switch (the testbed's "Packet Engines"
//! switch).
//!
//! Frames fully arrive on an input port (the input link models that), pass
//! through the switching fabric after a fixed forwarding latency, then
//! serialize onto the output port's link — which is busy while earlier
//! frames drain, giving per-output-port queueing.
//!
//! The switch decides a frame's output port(s) when it arrives and books
//! it onto them at once, as of arrival + forwarding latency
//! ([`LinkTx::send_at`]): one event per hop, not two. The latency is the
//! same for every frame, so every output link is booked in the order its
//! frames leave the fabric. Stations register their address at build time,
//! so the lookup gives the same answer at arrival as it would after the
//! latency.

use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::engine::SimAccess;
use crate::frame::{Frame, MacAddr};
use crate::link::{FrameSink, LinkConfig, LinkTx};
use crate::stats::LinkStats;
use crate::time::SimDuration;

/// Destination address that floods to every port.
pub const BROADCAST: MacAddr = MacAddr(0xFFFF);

/// Switch parameters.
#[derive(Clone, Copy, Debug)]
pub struct SwitchConfig {
    /// Fabric latency between full frame reception and the start of
    /// transmission on the output port.
    pub forwarding_latency: SimDuration,
    /// Physical parameters of every attached link.
    pub link: LinkConfig,
}

impl Default for SwitchConfig {
    /// A late-1990s store-and-forward Gigabit switch: a couple of
    /// microseconds of fabric latency on top of store-and-forward.
    fn default() -> Self {
        SwitchConfig {
            forwarding_latency: SimDuration::from_micros(2),
            link: LinkConfig::default(),
        }
    }
}

struct PortState {
    tx: LinkTx,
    // Keeps the ingress sink alive for the lifetime of the switch; the
    // node-side LinkTx only holds a Weak to it.
    _ingress: Arc<PortIngress>,
}

/// No port known for an address in [`SwitchState::fdb`].
const UNKNOWN: usize = usize::MAX;

struct SwitchState {
    ports: Vec<PortState>,
    /// Forwarding table indexed by station address: the port, or
    /// [`UNKNOWN`].
    fdb: Vec<usize>,
    forwarded: u64,
    flooded: u64,
}

impl SwitchState {
    fn learn(&mut self, mac: MacAddr, port: usize) {
        let i = usize::from(mac.0);
        if i >= self.fdb.len() {
            self.fdb.resize(i + 1, UNKNOWN);
        }
        self.fdb[i] = port;
    }

    fn port_of(&self, mac: MacAddr) -> Option<usize> {
        let port = *self.fdb.get(usize::from(mac.0))?;
        (port != UNKNOWN && mac != BROADCAST).then_some(port)
    }
}

struct SwitchInner {
    cfg: SwitchConfig,
    state: Mutex<SwitchState>,
}

/// The switch itself. Attach stations with [`Switch::attach`].
pub struct Switch {
    inner: Arc<SwitchInner>,
}

impl Switch {
    /// An empty switch.
    pub fn new(cfg: SwitchConfig) -> Self {
        Switch {
            inner: Arc::new(SwitchInner {
                cfg,
                state: Mutex::new(SwitchState {
                    ports: Vec::new(),
                    fdb: Vec::new(),
                    forwarded: 0,
                    flooded: 0,
                }),
            }),
        }
    }

    /// Attach a station. `peer` receives frames the switch forwards to this
    /// port; the returned [`LinkTx`] is the station's transmitter *towards*
    /// the switch.
    pub fn attach(&self, peer: &Arc<dyn FrameSink>) -> LinkTx {
        let mut st = self.inner.state.lock();
        let port = st.ports.len();
        let egress = LinkTx::new(self.inner.cfg.link, peer);
        // Egress queueing is where cross-traffic contention shows up, so
        // each switch-to-station link publishes its backlog time series.
        egress.set_name(format!("switch.port{port}"));
        let ingress = Arc::new(PortIngress {
            switch: Arc::downgrade(&self.inner),
            port,
        });
        st.ports.push(PortState {
            tx: egress,
            _ingress: Arc::clone(&ingress),
        });
        let sink: Arc<dyn FrameSink> = ingress;
        LinkTx::new(self.inner.cfg.link, &sink)
    }

    /// Statically map `mac` to the given port (stations register at boot;
    /// dynamic learning also runs on every received frame).
    pub fn register_mac(&self, mac: MacAddr, port: usize) {
        self.inner.state.lock().learn(mac, port);
    }

    /// Frames forwarded to a known unicast destination.
    pub fn frames_forwarded(&self) -> u64 {
        self.inner.state.lock().forwarded
    }

    /// Frames flooded (unknown destination or broadcast).
    pub fn frames_flooded(&self) -> u64 {
        self.inner.state.lock().flooded
    }

    /// Per-port egress-link counters, in attach order. Surfaces the
    /// injected-fault outcomes (drops vs corruption vs reorder delays) of
    /// every switch-to-station link.
    pub fn port_stats(&self) -> Vec<LinkStats> {
        self.inner
            .state
            .lock()
            .ports
            .iter()
            .map(|p| p.tx.stats())
            .collect()
    }
}

struct PortIngress {
    switch: Weak<SwitchInner>,
    port: usize,
}

impl FrameSink for PortIngress {
    fn deliver(&self, s: &dyn SimAccess, frame: Frame) {
        let Some(switch) = self.switch.upgrade() else {
            return;
        };
        let in_port = self.port;
        let out_at = s.now() + switch.cfg.forwarding_latency;
        if emp_trace::ENABLED {
            s.tracer().emit(
                out_at.nanos(),
                emp_trace::NO_NODE,
                emp_trace::NO_CONN,
                emp_trace::EventKind::SwitchForward,
                frame.payload.wire_len() as u64,
                u64::from(frame.dst.0),
            );
        }
        let mut st = switch.state.lock();
        st.learn(frame.src, in_port);
        match st.port_of(frame.dst) {
            Some(out_port) => {
                st.forwarded += 1;
                st.ports[out_port].tx.send_at(s, out_at, frame);
            }
            None => {
                st.flooded += 1;
                for (_, port) in st.ports.iter().enumerate().filter(|(i, _)| *i != in_port) {
                    port.tx.send_at(s, out_at, frame.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Sim, SimAccessExt};
    use crate::frame::{EtherType, Payload};
    use crate::time::SimTime;

    struct Station {
        mac: MacAddr,
        arrivals: Mutex<Vec<(u64, MacAddr)>>,
    }

    impl FrameSink for Station {
        fn deliver(&self, s: &dyn SimAccess, frame: Frame) {
            // Flooded frames may carry a foreign unicast destination; a real
            // NIC in non-promiscuous mode would filter them, which upper
            // layers in this workspace do. Record everything here.
            let _ = self.mac;
            self.arrivals.lock().push((s.now().nanos(), frame.src));
        }
    }

    fn testbed(n: usize) -> (Sim, Switch, Vec<Arc<Station>>, Vec<LinkTx>) {
        let sim = Sim::new();
        let switch = Switch::new(SwitchConfig {
            forwarding_latency: SimDuration::from_micros(2),
            link: LinkConfig {
                bandwidth_bps: 1_000_000_000,
                propagation: SimDuration::from_nanos(100),
                faults: crate::fault::FaultPlan::none(),
            },
        });
        let mut stations = Vec::new();
        let mut txs = Vec::new();
        for i in 0..n {
            let st = Arc::new(Station {
                mac: MacAddr(i as u16),
                arrivals: Mutex::new(Vec::new()),
            });
            let sink: Arc<dyn FrameSink> = st.clone();
            let tx = switch.attach(&sink);
            switch.register_mac(st.mac, i);
            stations.push(st);
            txs.push(tx);
        }
        (sim, switch, stations, txs)
    }

    fn frame(src: u16, dst: u16, len: usize) -> Frame {
        Frame {
            src: MacAddr(src),
            dst: MacAddr(dst),
            ethertype: EtherType::EMP,
            payload: Payload::new((), len),
        }
    }

    #[test]
    fn unicast_end_to_end_timing() {
        let (sim, switch, stations, txs) = testbed(3);
        let tx = txs[0].clone();
        sim.schedule_at(SimTime::ZERO, move |s| tx.send(s, frame(0, 1, 4)));
        sim.run();
        // 84B min frame: 672 ns serialize + 100 ns prop (ingress link)
        // + 2000 ns fabric + 672 ns serialize + 100 ns prop (egress link).
        assert_eq!(*stations[1].arrivals.lock(), vec![(3_544, MacAddr(0))]);
        assert!(stations[2].arrivals.lock().is_empty());
        assert_eq!(switch.frames_forwarded(), 1);
        assert_eq!(switch.frames_flooded(), 0);
    }

    #[test]
    fn unknown_destination_floods_all_but_ingress() {
        let (sim, switch, stations, txs) = testbed(3);
        let tx = txs[0].clone();
        sim.schedule_at(SimTime::ZERO, move |s| tx.send(s, frame(0, 99, 4)));
        sim.run();
        assert!(stations[0].arrivals.lock().is_empty());
        assert_eq!(stations[1].arrivals.lock().len(), 1);
        assert_eq!(stations[2].arrivals.lock().len(), 1);
        assert_eq!(switch.frames_flooded(), 1);
    }

    #[test]
    fn broadcast_floods() {
        let (sim, _switch, stations, txs) = testbed(4);
        let tx = txs[2].clone();
        sim.schedule_at(SimTime::ZERO, move |s| tx.send(s, frame(2, BROADCAST.0, 4)));
        sim.run();
        for (i, st) in stations.iter().enumerate() {
            let n = st.arrivals.lock().len();
            assert_eq!(n, usize::from(i != 2), "station {i}");
        }
    }

    #[test]
    fn switch_learns_source_ports() {
        let (sim, switch, stations, txs) = testbed(2);
        // Forget static registrations, force learning.
        switch.inner.state.lock().fdb.clear();
        let tx0 = txs[0].clone();
        sim.schedule_at(SimTime::ZERO, move |s| tx0.send(s, frame(0, 1, 4))); // floods, learns 0
        let tx1 = txs[1].clone();
        sim.schedule_at(SimTime::from_micros(50), move |s| {
            tx1.send(s, frame(1, 0, 4))
        }); // forwarded
        sim.run();
        assert_eq!(switch.frames_flooded(), 1);
        assert_eq!(switch.frames_forwarded(), 1);
        assert_eq!(stations[0].arrivals.lock().len(), 1);
    }

    #[test]
    fn congested_output_port_queues() {
        let (sim, _switch, stations, txs) = testbed(3);
        // Stations 0 and 2 both blast an MTU frame at station 1 at t=0.
        let tx0 = txs[0].clone();
        let tx2 = txs[2].clone();
        sim.schedule_at(SimTime::ZERO, move |s| tx0.send(s, frame(0, 1, 1500)));
        sim.schedule_at(SimTime::ZERO, move |s| tx2.send(s, frame(2, 1, 1500)));
        sim.run();
        let arr = stations[1].arrivals.lock();
        assert_eq!(arr.len(), 2);
        // Second frame serializes behind the first on the egress link.
        assert_eq!(arr[1].0 - arr[0].0, 12_304);
    }

    /// Records `(arrival ns, sender, frame id)` of every frame delivered.
    #[derive(Default)]
    struct Sink(Mutex<Vec<(u64, u16, u32)>>);

    impl FrameSink for Sink {
        fn deliver(&self, s: &dyn SimAccess, frame: Frame) {
            let id = *frame.payload.downcast::<u32>().expect("frame id");
            self.0.lock().push((s.now().nanos(), frame.src.0, id));
        }
    }

    /// The forward as two events, the way the switch worked before it
    /// booked its output on arrival: ingress schedules a forward event
    /// `latency` later, which sends on the output link then.
    struct TwoEventPort {
        egress: LinkTx,
        latency: SimDuration,
    }

    impl FrameSink for TwoEventPort {
        fn deliver(&self, s: &dyn SimAccess, frame: Frame) {
            let egress = self.egress.clone();
            s.schedule_after(self.latency, move |sim| egress.send(sim, frame));
        }
    }

    /// Three stations send to a fourth, each frame handed to its MAC at a
    /// planned instant: booked onto the uplink ahead of time and forwarded
    /// by the switch (`booked`), or sent by an event at that instant and
    /// forwarded by the two-event reference. Several frames from different
    /// ports reach the switch at the same instant. Returns what the fourth
    /// station received.
    fn fan_in(booked: bool) -> Vec<(u64, u16, u32)> {
        let cfg = SwitchConfig {
            forwarding_latency: SimDuration::from_micros(2),
            link: LinkConfig {
                bandwidth_bps: 1_000_000_000,
                propagation: SimDuration::from_nanos(100),
                faults: crate::fault::FaultPlan::none(),
            },
        };
        let sim = Sim::new();
        let sink = Arc::new(Sink::default());
        let station: Arc<dyn FrameSink> = sink.clone();
        let mut uplinks = Vec::new();
        let switch = Switch::new(cfg);
        let mut ports: Vec<Arc<dyn FrameSink>> = Vec::new();
        if booked {
            for i in 0..3 {
                let other: Arc<dyn FrameSink> = Arc::new(Sink::default());
                uplinks.push(switch.attach(&other));
                switch.register_mac(MacAddr(i), usize::from(i));
                ports.push(other);
            }
            switch.attach(&station);
            switch.register_mac(MacAddr(3), 3);
        } else {
            let egress = LinkTx::new(cfg.link, &station);
            for _ in 0..3 {
                let port: Arc<dyn FrameSink> = Arc::new(TwoEventPort {
                    egress: egress.clone(),
                    latency: cfg.forwarding_latency,
                });
                uplinks.push(LinkTx::new(cfg.link, &port));
                ports.push(port);
            }
        }
        // (sender, MAC hand-off ns, payload bytes), in booking order,
        // which each uplink sees in hand-off order. Equal instants and
        // sizes from different ports tie at the switch; a large frame
        // makes the ones behind it queue on the output port. The last
        // two tie at the switch at 101 772 ns, but the frame booked first
        // was handed to its MAC later: the tie goes to the one handed
        // over first, as it would in the reference.
        let plan: [(u16, u64, usize); 11] = [
            (0, 0, 64),
            (1, 0, 64),
            (2, 0, 64),
            (0, 500, 1500),
            (1, 500, 64),
            (2, 1_000, 64),
            (1, 13_000, 200),
            (2, 13_000, 200),
            (0, 13_000, 200),
            (0, 101_000, 4),
            (1, 100_272, 137),
        ];
        let ids = 0..plan.len() as u32;
        sim.schedule_at(SimTime::ZERO, move |s| {
            for ((src, at, len), id) in plan.into_iter().zip(ids) {
                let f = Frame {
                    src: MacAddr(src),
                    dst: MacAddr(3),
                    ethertype: EtherType::EMP,
                    payload: Payload::new(id, len),
                };
                let (uplink, at) = (uplinks[usize::from(src)].clone(), SimTime::from_nanos(at));
                if booked {
                    uplink.send_at(s, at, f);
                } else {
                    s.schedule_at(at, move |sim| uplink.send(sim, f));
                }
            }
        });
        sim.run();
        drop(ports);
        let got = sink.0.lock().clone();
        got
    }

    #[test]
    fn booked_forwarding_matches_the_two_event_forward() {
        let booked = fan_in(true);
        assert_eq!(booked.len(), 11);
        assert_eq!(booked, fan_in(false));
        // The three first frames tie at the switch: they leave in port
        // order, back to back.
        let first: Vec<(u64, u16)> = booked[..3].iter().map(|&(t, src, _)| (t, src)).collect();
        assert_eq!(first, [(3_832, 0), (4_648, 1), (5_464, 2)]);
        let last: Vec<(u16, u32)> = booked[9..].iter().map(|&(_, src, id)| (src, id)).collect();
        assert_eq!(last, [(1, 10), (0, 9)], "the earlier hand-off wins the tie");
    }
}

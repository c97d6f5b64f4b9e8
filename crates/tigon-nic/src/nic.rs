//! The NIC chassis: two firmware CPUs, cost configuration and the link
//! towards the switch.
//!
//! The protocol "firmware program" lives in the `emp-proto` crate; this
//! struct supplies the hardware it runs on. Frames the NIC wants on the
//! wire go out through [`Tigon::send_frame`]; frames arriving from the
//! switch are handed to whatever [`simnet::FrameSink`] the protocol crate
//! implements (the protocol object typically owns the `Tigon` and passes
//! itself to `Switch::attach`).

use simnet::{Frame, LinkTx, MacAddr, SimAccess, SimDuration, SimTime, XorShift64};
use std::cell::RefCell;

use crate::config::NicConfig;
use crate::cpu::FirmwareCpu;

/// Mutable cursor through the NIC's injected-fault schedule, plus the
/// counters observability surfaces.
struct NicFaultState {
    rng: XorShift64,
    rx_ring_drops: u64,
    dma_delays: u64,
}

/// One Tigon2-style NIC.
pub struct Tigon {
    mac: MacAddr,
    cfg: NicConfig,
    /// Transmit-path firmware CPU.
    pub cpu_tx: FirmwareCpu,
    /// Receive-path firmware CPU.
    pub cpu_rx: FirmwareCpu,
    link: RefCell<Option<LinkTx>>,
    faults: RefCell<NicFaultState>,
}

impl Tigon {
    /// Build a NIC with the given station address and cost constants.
    /// With `cfg.single_cpu` both protocol directions share one firmware
    /// CPU (the IPDPS'02 multi-CPU-NIC ablation).
    pub fn new(mac: MacAddr, cfg: NicConfig) -> Self {
        let cpu_tx = FirmwareCpu::new("tx").with_node(mac.0);
        let cpu_rx = if cfg.single_cpu {
            cpu_tx.clone()
        } else {
            FirmwareCpu::new("rx").with_node(mac.0)
        };
        let fault_seed = cfg.faults.seed ^ u64::from(mac.0);
        Tigon {
            mac,
            cfg,
            cpu_tx,
            cpu_rx,
            link: RefCell::new(None),
            faults: RefCell::new(NicFaultState {
                rng: XorShift64::new(fault_seed),
                rx_ring_drops: 0,
                dma_delays: 0,
            }),
        }
    }

    /// Station address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Cost constants.
    pub fn cfg(&self) -> &NicConfig {
        &self.cfg
    }

    /// Connect the NIC to its switch port (the `LinkTx` returned by
    /// [`simnet::Switch::attach`]).
    pub fn attach_link(&self, tx: LinkTx) {
        // Station-to-switch queueing shows up here; name the link so its
        // backlog series lands in the registry on first use.
        tx.set_name(format!("nic.n{}.uplink", self.mac.0));
        *self.link.borrow_mut() = Some(tx);
    }

    /// Hand a frame to the MAC for transmission at `at` (now, or the end
    /// of the tx CPU task booked for it): see [`LinkTx::send_at`]. Every
    /// frame must come through the tx CPU's FIFO, so `at` never goes back.
    /// Panics if the NIC was never cabled up — that is a testbed
    /// construction bug.
    pub fn send_frame(&self, s: &dyn SimAccess, at: SimTime, frame: Frame) {
        let link = self.link.borrow();
        link.as_ref()
            .expect("NIC not attached to a link; call attach_link at testbed build time")
            .send_at(s, at, frame);
    }

    /// Frames handed to the MAC so far.
    pub fn frames_sent(&self) -> u64 {
        self.link.borrow().as_ref().map_or(0, |l| l.frames_sent())
    }

    /// Injected-fault draw for one arriving data frame: true when the
    /// receive-descriptor ring is (simulated as) exhausted — the frame
    /// must be dropped before classification, for the sender's
    /// retransmission to recover. Deterministic in the NIC's fault seed.
    pub fn inject_rx_ring_exhausted(&self) -> bool {
        let plan = &self.cfg.faults;
        if plan.rx_ring_drop_prob <= 0.0 {
            return false;
        }
        let mut st = self.faults.borrow_mut();
        if st.rng.chance(plan.rx_ring_drop_prob) {
            st.rx_ring_drops += 1;
            true
        } else {
            false
        }
    }

    /// Injected-fault draw for one DMA completion: the extra latency (zero
    /// when the fault does not fire) to add to the transfer.
    pub fn inject_dma_delay(&self) -> SimDuration {
        let plan = &self.cfg.faults;
        if plan.dma_delay_prob <= 0.0 {
            return SimDuration::ZERO;
        }
        let mut st = self.faults.borrow_mut();
        if st.rng.chance(plan.dma_delay_prob) {
            st.dma_delays += 1;
            plan.dma_delay
        } else {
            SimDuration::ZERO
        }
    }

    /// Injected-fault counters: `(rx_ring_drops, dma_delays)`.
    pub fn fault_counts(&self) -> (u64, u64) {
        let st = self.faults.borrow();
        (st.rx_ring_drops, st.dma_delays)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use simnet::{EtherType, FrameSink, Payload, Sim, SimAccessExt, SimTime, Switch, SwitchConfig};
    use std::rc::Rc;

    struct Collector {
        got: Mutex<Vec<u64>>,
    }

    impl FrameSink for Collector {
        fn deliver(&self, s: &dyn SimAccess, _frame: Frame) {
            self.got.lock().push(s.now().nanos());
        }
    }

    #[test]
    fn nic_sends_through_switch() {
        let sim = Sim::new();
        let switch = Switch::new(SwitchConfig::default());
        let nic = Tigon::new(MacAddr(1), NicConfig::default());
        let collector = Rc::new(Collector {
            got: Mutex::new(Vec::new()),
        });
        let nic_sink: Rc<dyn FrameSink> = Rc::new(NullSink);
        nic.attach_link(switch.attach(&nic_sink));
        switch.register_mac(MacAddr(1), 0);
        let col_sink: Rc<dyn FrameSink> = collector.clone();
        switch.attach(&col_sink);
        switch.register_mac(MacAddr(2), 1);

        let nic = Rc::new(nic);
        let nic2 = Rc::clone(&nic);
        sim.schedule_at(SimTime::ZERO, move |s| {
            nic2.send_frame(
                s,
                s.now(),
                Frame {
                    src: MacAddr(1),
                    dst: MacAddr(2),
                    ethertype: EtherType::EMP,
                    payload: Payload::new((), 100),
                },
            );
        });
        sim.run();
        assert_eq!(collector.got.lock().len(), 1);
        assert_eq!(nic.frames_sent(), 1);
    }

    struct NullSink;
    impl FrameSink for NullSink {
        fn deliver(&self, _s: &dyn SimAccess, _f: Frame) {}
    }

    #[test]
    #[should_panic(expected = "NIC not attached")]
    fn sending_unattached_panics() {
        let sim = Sim::new();
        let nic = Rc::new(Tigon::new(MacAddr(1), NicConfig::default()));
        sim.schedule_at(SimTime::ZERO, move |s| {
            nic.send_frame(
                s,
                s.now(),
                Frame {
                    src: MacAddr(1),
                    dst: MacAddr(2),
                    ethertype: EtherType::EMP,
                    payload: Payload::new((), 4),
                },
            );
        });
        sim.run();
    }
}

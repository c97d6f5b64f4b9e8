//! The "Acenic" NIC: the same Tigon silicon as EMP, running the stock
//! interrupt-driven firmware (paper §3: "Most of the current NIC drivers,
//! including the standard Acenic driver on Alteon NICs, use this style of
//! architecture").
//!
//! The key behavioural difference from EMP is on receive: frames are
//! buffered on the NIC and delivered to the kernel in *coalesced interrupt
//! batches* — an interrupt fires when `coalesce_frames` are pending or
//! `coalesce_timer` after the first one, whichever comes first. Coalescing
//! is what lets the kernel path reach 550 Mbps, and simultaneously what
//! puts a ~60 µs floor under small-message latency.

use std::sync::{Arc, Weak};

use parking_lot::Mutex;
use simnet::{Frame, FrameSink, LinkTx, MacAddr, SimAccess, SimAccessExt, SimDuration};
use tigon_nic::FirmwareCpu;

/// Receiver of coalesced frame batches (the kernel's interrupt handler).
pub trait BatchHandler: Send + Sync {
    /// Called once per interrupt with every frame delivered by it.
    fn handle_batch(&self, s: &dyn SimAccess, frames: Vec<Frame>);
}

struct RxState {
    pending: Vec<Frame>,
    timer_generation: u64,
    timer_armed: bool,
    interrupts: u64,
}

/// The conventional NIC model.
pub struct AcenicNic {
    mac: MacAddr,
    tx_cost: SimDuration,
    coalesce_timer: SimDuration,
    coalesce_frames: usize,
    tx_cpu: FirmwareCpu,
    link: Mutex<Option<LinkTx>>,
    rx: Mutex<RxState>,
    handler: Mutex<Option<Weak<dyn BatchHandler>>>,
    self_ref: Weak<AcenicNic>,
}

impl AcenicNic {
    /// Build a NIC for station `mac`.
    pub fn new(
        mac: MacAddr,
        tx_cost: SimDuration,
        coalesce_timer: SimDuration,
        coalesce_frames: usize,
    ) -> Arc<Self> {
        assert!(coalesce_frames >= 1, "coalescing threshold must be >= 1");
        Arc::new_cyclic(|weak| AcenicNic {
            mac,
            tx_cost,
            coalesce_timer,
            coalesce_frames,
            tx_cpu: FirmwareCpu::new("acenic-tx"),
            link: Mutex::new(None),
            rx: Mutex::new(RxState {
                pending: Vec::new(),
                timer_generation: 0,
                timer_armed: false,
                interrupts: 0,
            }),
            handler: Mutex::new(None),
            self_ref: weak.clone(),
        })
    }

    /// Station address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Cable the NIC to its switch port.
    pub fn attach_link(&self, tx: LinkTx) {
        *self.link.lock() = Some(tx);
    }

    /// Register the kernel's interrupt handler.
    pub fn set_handler(&self, handler: Weak<dyn BatchHandler>) {
        *self.handler.lock() = Some(handler);
    }

    /// Transmit a frame (driver has already built it; this is the NIC-side
    /// descriptor fetch + DMA + MAC, serialized on the NIC).
    pub fn send(&self, s: &dyn SimAccess, frame: Frame) {
        // Every frame goes through the tx CPU's FIFO, so booking the task
        // and putting the frame on the link as of its end keeps the link's
        // order (`LinkTx::send_at`).
        let done = self.tx_cpu.book(s, self.tx_cost);
        let link = self.link.lock();
        link.as_ref()
            .expect("NIC not attached to a link")
            .send_at(s, done, frame);
    }

    /// Interrupts raised so far.
    pub fn interrupts(&self) -> u64 {
        self.rx.lock().interrupts
    }

    fn fire(&self, s: &dyn SimAccess) {
        let batch = {
            let mut rx = self.rx.lock();
            rx.timer_generation += 1; // cancel any armed timer
            rx.timer_armed = false;
            if rx.pending.is_empty() {
                return;
            }
            rx.interrupts += 1;
            std::mem::take(&mut rx.pending)
        };
        let handler = self.handler.lock().as_ref().and_then(|w| w.upgrade());
        if let Some(h) = handler {
            h.handle_batch(s, batch);
        }
    }
}

impl FrameSink for AcenicNic {
    fn deliver(&self, s: &dyn SimAccess, frame: Frame) {
        if frame.dst != self.mac {
            return; // foreign flooded traffic
        }
        let fire_now = {
            let mut rx = self.rx.lock();
            rx.pending.push(frame);
            if rx.pending.len() >= self.coalesce_frames {
                true
            } else {
                if !rx.timer_armed {
                    rx.timer_armed = true;
                    rx.timer_generation += 1;
                    let gen = rx.timer_generation;
                    let me = self.self_ref.upgrade().expect("AcenicNic is Arc-owned");
                    s.timer_after(self.coalesce_timer, move |sim| {
                        let live = {
                            let rx = me.rx.lock();
                            rx.timer_armed && rx.timer_generation == gen
                        };
                        if live {
                            me.fire(sim);
                        }
                    });
                }
                false
            }
        };
        if fire_now {
            self.fire(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{EtherType, Payload, Sim, SimTime};

    struct Recorder {
        batches: Mutex<Vec<(u64, usize)>>,
    }

    impl BatchHandler for Recorder {
        fn handle_batch(&self, s: &dyn SimAccess, frames: Vec<Frame>) {
            self.batches.lock().push((s.now().nanos(), frames.len()));
        }
    }

    fn frame(dst: u16) -> Frame {
        Frame {
            src: MacAddr(9),
            dst: MacAddr(dst),
            ethertype: EtherType::IPV4,
            payload: Payload::new((), 60),
        }
    }

    fn nic_with_recorder() -> (Arc<AcenicNic>, Arc<Recorder>) {
        let nic = AcenicNic::new(
            MacAddr(1),
            SimDuration::from_micros(3),
            SimDuration::from_micros(60),
            4,
        );
        let rec = Arc::new(Recorder {
            batches: Mutex::new(Vec::new()),
        });
        let weak: Weak<dyn BatchHandler> = Arc::downgrade(&rec) as Weak<dyn BatchHandler>;
        nic.set_handler(weak);
        (nic, rec)
    }

    #[test]
    fn lone_frame_waits_for_the_coalescing_timer() {
        let sim = Sim::new();
        let (nic, rec) = nic_with_recorder();
        let nic2 = Arc::clone(&nic);
        sim.schedule_at(SimTime::ZERO, move |s| nic2.deliver(s, frame(1)));
        sim.run();
        assert_eq!(*rec.batches.lock(), vec![(60_000, 1)]);
        assert_eq!(nic.interrupts(), 1);
    }

    #[test]
    fn threshold_fires_immediately() {
        let sim = Sim::new();
        let (nic, rec) = nic_with_recorder();
        let nic2 = Arc::clone(&nic);
        sim.schedule_at(SimTime::from_nanos(5), move |s| {
            for _ in 0..4 {
                nic2.deliver(s, frame(1));
            }
        });
        sim.run();
        assert_eq!(*rec.batches.lock(), vec![(5, 4)]);
    }

    #[test]
    fn timer_cancelled_after_threshold_fire() {
        let sim = Sim::new();
        let (nic, rec) = nic_with_recorder();
        // 5 frames: threshold batch of 4, then the straggler waits for a
        // fresh timer.
        let nic2 = Arc::clone(&nic);
        sim.schedule_at(SimTime::ZERO, move |s| {
            for _ in 0..5 {
                nic2.deliver(s, frame(1));
            }
        });
        sim.run();
        assert_eq!(*rec.batches.lock(), vec![(0, 4), (60_000, 1)]);
        assert_eq!(nic.interrupts(), 2);
    }

    #[test]
    fn foreign_frames_filtered() {
        let sim = Sim::new();
        let (nic, rec) = nic_with_recorder();
        let nic2 = Arc::clone(&nic);
        sim.schedule_at(SimTime::ZERO, move |s| nic2.deliver(s, frame(77)));
        sim.run();
        assert!(rec.batches.lock().is_empty());
    }
}

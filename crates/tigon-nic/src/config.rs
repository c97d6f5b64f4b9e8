//! NIC cost constants.
//!
//! Calibrated so that the EMP protocol built on this NIC reproduces the
//! paper's end-to-end numbers: ~28 µs one-way latency for 4-byte messages
//! and a ~840 Mbps bandwidth ceiling for large ones (the receive firmware
//! path, not the wire, is EMP's large-message bottleneck — 1500 B per
//! ~14.3 µs of rx processing ≈ 840 Mbps).

use simnet::SimDuration;

/// Injectable NIC faults, seeded and deterministic like the wire-level
/// [`simnet::FaultPlan`]. All classes default to off. The two fault
/// classes model real Tigon failure modes the paper's lossless testbed
/// never hit: the receive-descriptor ring running dry (an arriving frame
/// has nowhere to land and is dropped before classification, recovered by
/// the sender's retransmission) and a DMA completion stalling behind PCI
/// bus contention.
#[derive(Clone, Copy, Debug)]
pub struct NicFaultPlan {
    /// Seed for every random decision this plan makes on a NIC.
    pub seed: u64,
    /// Probability an arriving data frame finds the receive-descriptor
    /// ring exhausted and is dropped before the firmware sees it.
    pub rx_ring_drop_prob: f64,
    /// Probability a DMA completion is delayed by [`NicFaultPlan::dma_delay`].
    pub dma_delay_prob: f64,
    /// Extra latency added to a delayed DMA completion.
    pub dma_delay: SimDuration,
}

impl NicFaultPlan {
    /// A healthy NIC: no injected faults.
    pub const fn none() -> Self {
        NicFaultPlan {
            seed: 1,
            rx_ring_drop_prob: 0.0,
            dma_delay_prob: 0.0,
            dma_delay: SimDuration::ZERO,
        }
    }

    /// An otherwise-healthy plan carrying `seed` for the builders.
    pub const fn seeded(seed: u64) -> Self {
        let mut p = NicFaultPlan::none();
        p.seed = seed;
        p
    }

    /// Receive-descriptor-ring exhaustion probability.
    pub fn with_rx_ring_drop_prob(mut self, prob: f64) -> Self {
        self.rx_ring_drop_prob = prob;
        self
    }

    /// Delayed-DMA-completion injection.
    pub fn with_dma_delay(mut self, prob: f64, delay: SimDuration) -> Self {
        self.dma_delay_prob = prob;
        self.dma_delay = delay;
        self
    }
}

impl Default for NicFaultPlan {
    fn default() -> Self {
        NicFaultPlan::none()
    }
}

/// Cost constants of the Tigon2-style NIC.
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// Fixed DMA channel setup per transfer (descriptor fetch, bus
    /// arbitration).
    pub dma_setup: SimDuration,
    /// Sustained DMA bandwidth across the PCI bus (64-bit/66 MHz is
    /// 528 MB/s theoretical; ~400 MB/s effective).
    pub dma_bytes_per_sec: u64,
    /// Latency until a posted host write (doorbell/mailbox) becomes visible
    /// to firmware.
    pub pci_post_latency: SimDuration,
    /// Transmit firmware: accept and parse one host send request
    /// (descriptor decode, transmission-record setup — T1..T3 in Figure 2).
    pub tx_request_cost: SimDuration,
    /// Transmit firmware: per-frame header build + MAC handoff (T4..T5).
    pub tx_frame_cost: SimDuration,
    /// Receive firmware: per-frame classification + reliability bookkeeping
    /// (R3..R5), *excluding* tag matching and the DMA to host.
    pub rx_frame_cost: SimDuration,
    /// Tag-match walk cost per pre-posted descriptor examined. The paper
    /// measures ~550 ns per descriptor (§6.3).
    pub tag_match_per_descriptor: SimDuration,
    /// Generate or consume one protocol-level acknowledgment frame.
    pub ack_cost: SimDuration,
    /// DMA of a completion/status word to host memory plus the host cache
    /// transaction that makes it visible to a polling loop.
    pub completion_post: SimDuration,
    /// Run transmit and receive firmware on a single CPU instead of the
    /// Tigon2's two. The ablation for the authors' companion question
    /// ("Can User Level Protocols Take Advantage of Multi-CPU NICs?",
    /// IPDPS'02): with one CPU the tx and rx paths contend and the
    /// bandwidth ceiling drops.
    pub single_cpu: bool,
    /// Injectable hardware faults (default: none).
    pub faults: NicFaultPlan,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            dma_setup: SimDuration::from_nanos(800),
            dma_bytes_per_sec: 400_000_000,
            pci_post_latency: SimDuration::from_nanos(800),
            tx_request_cost: SimDuration::from_micros_f64(5.5),
            tx_frame_cost: SimDuration::from_micros(2),
            rx_frame_cost: SimDuration::from_micros(9),
            tag_match_per_descriptor: SimDuration::from_nanos(550),
            ack_cost: SimDuration::from_micros_f64(1.5),
            completion_post: SimDuration::from_micros(2),
            single_cpu: false,
            faults: NicFaultPlan::none(),
        }
    }
}

impl NicConfig {
    /// Time to DMA `bytes` across the bus (setup + transfer).
    pub fn dma_time(&self, bytes: usize) -> SimDuration {
        self.dma_setup + SimDuration::for_bytes_at_rate(bytes as u64, self.dma_bytes_per_sec)
    }

    /// Tag-match cost after walking `descriptors_examined` list entries.
    pub fn tag_match_time(&self, descriptors_examined: usize) -> SimDuration {
        self.tag_match_per_descriptor * descriptors_examined as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_time_includes_setup() {
        let c = NicConfig::default();
        assert_eq!(c.dma_time(0), c.dma_setup);
        // 400 MB/s => 2.5 ns per byte; 1500 B = 3750 ns + 800 setup.
        assert_eq!(c.dma_time(1500), SimDuration::from_nanos(4_550));
    }

    #[test]
    fn tag_match_is_linear_in_walk_length() {
        let c = NicConfig::default();
        assert_eq!(c.tag_match_time(0), SimDuration::ZERO);
        assert_eq!(c.tag_match_time(10), SimDuration::from_nanos(5_500));
    }

    #[test]
    fn rx_path_cost_supports_840mbps_ceiling() {
        // The calibration invariant: rx firmware + tag match (1 entry) +
        // DMA of a full frame ≈ 14.3 us, i.e. ~840 Mbps of 1500-byte
        // payloads through the receive CPU.
        let c = NicConfig::default();
        let per_frame = c.rx_frame_cost + c.tag_match_time(1) + c.dma_time(1500);
        let mbps = 1500.0 * 8.0 / per_frame.as_secs_f64() / 1e6;
        assert!(
            (800.0..900.0).contains(&mbps),
            "rx ceiling {mbps:.0} Mbps out of calibration range"
        );
    }
}

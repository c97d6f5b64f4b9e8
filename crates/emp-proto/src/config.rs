//! EMP protocol parameters.

use simnet::SimDuration;
use tigon_nic::NicConfig;

/// Tunables of the EMP protocol and its host interface.
#[derive(Clone, Debug)]
pub struct EmpConfig {
    /// NIC hardware cost constants.
    pub nic: NicConfig,
    /// Frames per NIC-level acknowledgment ("acknowledgments are sent for a
    /// certain window size of frames. In our current implementation, this
    /// was chosen to be four" — paper §2).
    pub ack_window: u32,
    /// Per-NIC cap on released-but-unacknowledged data frames. This is the
    /// reliability window that keeps the sender from racing arbitrarily
    /// far ahead of the receiving NIC's (slower) processing path.
    pub tx_window_frames: u32,
    /// Floor of the per-peer measured retransmission timeout, RTO =
    /// max(this, SRTT + 4·RTTVAR), and the period of each message's
    /// ack-progress check.
    pub retransmit_timeout: SimDuration,
    /// Give up on a message after this many retransmission rounds; the
    /// send handle then completes unsuccessfully.
    pub max_retries: u32,
    /// Host cost of building a transmit/receive descriptor in user space.
    pub desc_build: SimDuration,
    /// Firmware cost of inserting/removing a pre-posted descriptor or
    /// adjusting the unexpected queue.
    pub rx_post_cost: SimDuration,
}

impl Default for EmpConfig {
    fn default() -> Self {
        EmpConfig {
            nic: NicConfig::default(),
            ack_window: 4,
            tx_window_frames: 16,
            retransmit_timeout: SimDuration::from_micros(500),
            max_retries: 100,
            desc_build: SimDuration::from_nanos(500),
            rx_post_cost: SimDuration::from_nanos(800),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EmpConfig::default();
        assert_eq!(c.ack_window, 4);
        assert_eq!(c.nic.tag_match_per_descriptor, SimDuration::from_nanos(550));
    }
}

//! Substrate configuration: socket type, credits, buffers and the §6
//! performance enhancements, with presets matching the labels of the
//! paper's Figure 11 (DS, DS_DA, DS_DA_UQ, DG).

use simnet::SimDuration;

use crate::conn_core::ack_threshold;

/// Which sockets semantics a connection provides.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SocketType {
    /// TCP-like data streaming: no message boundaries, partial reads, the
    /// receive side buffers eagerly in temp buffers (one extra copy).
    Stream,
    /// Datagram ("data streaming disabled", §6.2): message boundaries
    /// preserved, zero-copy delivery into the posted user buffer, large
    /// messages via rendezvous. Deadlock avoidance is the user's problem.
    Datagram,
}

/// How unexpected-message handling is driven (§5.2's three alternatives).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecvMode {
    /// The adopted design: the main thread drives the substrate directly
    /// (eager with flow control / rendezvous).
    Direct,
    /// Ablation: a separate *polling* communication thread reposts
    /// descriptors. Costs ~20 µs of thread synchronization per message and
    /// halves the CPU available to the application (§5.2).
    CommThreadPolling,
    /// Ablation: a *blocking* communication thread; response time degrades
    /// to the OS scheduling granularity ("order of milliseconds", §5.2).
    CommThreadBlocking,
}

/// The per-message copy decision of a stream socket, taken in
/// `core::stream` for every write and every arriving message. Two named
/// values exist: [`CopyPolicy::PAPER`] (what §6.2 describes and Figures
/// 11–17 measure) and [`CopyPolicy::ADAPTIVE`] (the default). The fields
/// are public only for the sweep that justifies `ADAPTIVE` (`figures
/// small-message-throughput`); there is no builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopyPolicy {
    /// Send side: a write of at most this many bytes — and never more than
    /// `send_copy_threshold`: what is copied into a send buffer anyway may
    /// share a message, what goes zero-copy never waits — is staged to
    /// share one substrate message (one credit, one `stream_overhead`)
    /// with its neighbours, unless it would wait alone: with nothing
    /// staged and nothing in flight it is sent at once (Nagle's rule).
    /// Staged bytes leave at [`Self::stage_capacity`], on credit pressure,
    /// when the owner reads, polls, flushes, shuts down or closes, and
    /// otherwise by a sim-time timer [`Self::STAGE_DEADLINE`] after the
    /// first was written, whatever the owner does — unless the
    /// connection's unacknowledged sends still add up to a full substrate
    /// message: the NIC could not start on the staged bytes sooner, so the
    /// timer re-arms and they keep gathering company. A blocking writer
    /// whose capacity flush finds two full messages unacknowledged ahead
    /// of it waits for them, so the NIC queue stays at most three deep.
    /// `0` never stages.
    pub stage_below: usize,
    /// Staged bytes that end an episode at once. Never more than one
    /// substrate message (`temp_buf_size`), whatever this says.
    pub stage_capacity: usize,
    /// Receive side: an in-sequence payload is handed straight to a reader
    /// that is already posted (`read`, `try_read` or a ring `Read`) with a
    /// buffer it fits, skipping the §6.2 temp-buffer copy; anything else
    /// goes through the temp buffer.
    pub direct_to_posted: bool,
}

impl CopyPolicy {
    /// Always temp-buffer, never stage: the paper's data path, carried by
    /// the four Figure 11 presets.
    pub const PAPER: CopyPolicy = CopyPolicy {
        stage_below: 0,
        stage_capacity: 0,
        direct_to_posted: false,
    };

    /// Stage every write the send-copy rule copies anyway, a substrate
    /// message at most; deliver to posted readers directly. Both sizes are
    /// the winners of the committed sweep (EXPERIMENTS.md, "copy policy
    /// constants"), and neither is a number of its own.
    pub const ADAPTIVE: CopyPolicy = CopyPolicy {
        stage_below: usize::MAX,
        stage_capacity: usize::MAX,
        direct_to_posted: true,
    };

    /// Longest a staged byte waits for company before the timer sends it
    /// — while less than a full substrate message of its connection is
    /// unacknowledged. With a full message ahead of it the timer re-arms
    /// for another period instead: it never delays a byte the NIC could
    /// already start on, it only decides how many writes share a message.
    pub const STAGE_DEADLINE: SimDuration = SimDuration::from_micros(50);
}

/// Per-process substrate configuration.
#[derive(Clone, Debug)]
pub struct SubstrateConfig {
    /// Stream or datagram sockets.
    pub socket_type: SocketType,
    /// Credit count N: the sender may have N unconsumed messages
    /// outstanding; the receiver pre-posts matching descriptors (§6.1).
    pub credits: u32,
    /// Size of each receive temp buffer (64 KiB in §7.1) — also the
    /// maximum bytes per substrate message on a stream socket.
    pub temp_buf_size: usize,
    /// §6.3 Delayed Acknowledgments: send a flow-control ack only after
    /// half the credits are consumed, instead of after every message.
    pub delayed_acks: bool,
    /// §6.4: keep flow-control-ack buffers in the EMP unexpected queue so
    /// they stop lengthening the data descriptors' tag-match walk.
    pub acks_in_unexpected_queue: bool,
    /// §6.1: piggy-back due acknowledgments on reverse-direction data —
    /// the substrate's credit acks, and (set on the NIC at bind) EMP's own
    /// per-message acks (DESIGN §8).
    pub piggyback_acks: bool,
    /// Datagram sockets: messages up to this size go eagerly (zero-copy to
    /// a pre-posted user buffer); larger ones use rendezvous (§6.2).
    pub dgram_eager_max: usize,
    /// Receive-path driver (the §5.2 design alternatives).
    pub recv_mode: RecvMode,
    /// Baseline EMP unexpected-queue slots per process, independent of the
    /// §6.4 ack routing: they absorb the data a client pipelines right
    /// behind its connection request, before `accept()` has posted the
    /// connection's descriptors (the §7.4 "time for the actual request is
    /// hidden" behaviour relies on this).
    pub base_unexpected_slots: usize,
    /// Stream writes up to this size are copied into a registered send
    /// buffer and complete asynchronously (standard sockets `write`
    /// semantics); larger writes go zero-copy and block until the NIC
    /// acknowledges, so the buffer is safe to reuse. Under a staging
    /// [`CopyPolicy`] (`stage_below > 0`, as in `default()`) a larger
    /// write copies its last this-many bytes as well and blocks only
    /// until its zero-copy head is acknowledged, leaving that tail in
    /// flight; under the presets it blocks until its last fragment is.
    pub send_copy_threshold: usize,
    /// Host bookkeeping per stream message (buffer list management, credit
    /// accounting) on the 700 MHz testbed host.
    pub stream_overhead: SimDuration,
    /// Host bookkeeping per datagram operation.
    pub dgram_overhead: SimDuration,
    /// `None` (the default) keeps `connect()` non-blocking: it returns
    /// immediately and the request travels ahead of (or, under the §6.1
    /// switch, with) the first data (§7.4). `Some(deadline)` makes
    /// `connect()` block until the request is acknowledged, resending it
    /// after `deadline / 8`, doubling, whenever EMP gives up on it, and
    /// fail with [`crate::NetError::Timeout`] once the deadline passes
    /// with no answer — the behaviour an application wants against a
    /// possibly-dead station. Set by [`Self::with_connect_timeout`].
    pub connect_timeout: Option<SimDuration>,
    /// Per-process connection budget: `connect()`/`accept()` beyond this
    /// many live connections fail with
    /// [`crate::NetError::Exhausted`] instead of consuming
    /// descriptors and registered buffers without bound. `None` (default)
    /// bounds connections only by the tag space.
    pub max_connections: Option<usize>,
    /// Byte cap on a connection's out-of-order reorder buffer. A stream
    /// whose gap message is lost can otherwise park an unbounded number of
    /// acked-but-undeliverable payloads; at the cap the connection is
    /// poisoned with [`crate::NetError::Exhausted`] (the bytes
    /// were EMP-acked, so dropping them silently would corrupt the
    /// stream). `None` (default) keeps the buffer unbounded.
    pub reorder_cap_bytes: Option<usize>,
    /// Ack-starvation watchdog: when a blocking read or credit wait hears
    /// *nothing* from the peer — no data, no credit return, no control
    /// message — for this long, the operation fails with
    /// [`crate::NetError::PeerGone`] instead of waiting forever. `None`
    /// (the default) preserves the paper's semantics, where a vanished or
    /// deadlocked peer blocks the caller indefinitely (Figure 7 relies on
    /// this).
    pub peer_gone_after: Option<SimDuration>,
    /// Copy or not, per message (see [`CopyPolicy`]).
    pub copy_policy: CopyPolicy,
}

impl Default for SubstrateConfig {
    /// What a user gets without choosing: `DS_DA_UQ` (32 credits ×
    /// 64 KiB) plus §6.1 piggy-backed acks and [`CopyPolicy::ADAPTIVE`].
    /// The Figure 11 presets below stay the paper's.
    fn default() -> Self {
        SubstrateConfig {
            piggyback_acks: true,
            copy_policy: CopyPolicy::ADAPTIVE,
            ..SubstrateConfig::ds_da_uq()
        }
    }
}

impl SubstrateConfig {
    fn stream_base() -> Self {
        SubstrateConfig {
            socket_type: SocketType::Stream,
            credits: 32,
            temp_buf_size: 64 * 1024,
            delayed_acks: false,
            acks_in_unexpected_queue: false,
            piggyback_acks: false, // §6.1; on in `default()`, off in the measured presets
            dgram_eager_max: crate::proto::MAX_EAGER_DGRAM,
            recv_mode: RecvMode::Direct,
            base_unexpected_slots: 16,
            send_copy_threshold: 16 * 1024,
            stream_overhead: SimDuration::from_micros_f64(2.8),
            dgram_overhead: SimDuration::from_nanos(300),
            connect_timeout: None,
            max_connections: None,
            reorder_cap_bytes: None,
            peer_gone_after: None,
            copy_policy: CopyPolicy::PAPER,
        }
    }

    /// Figure 11 "DS": basic data-streaming substrate, no enhancements —
    /// an explicit flow-control ack per consumed message.
    pub fn ds() -> Self {
        Self::stream_base()
    }

    /// Figure 11 "DS_DA": data streaming + delayed acknowledgments.
    pub fn ds_da() -> Self {
        SubstrateConfig {
            delayed_acks: true,
            ..Self::stream_base()
        }
    }

    /// Figure 11 "DS_DA_UQ": delayed acks + acks through the unexpected
    /// queue — the configuration the paper benchmarks as "Data Streaming".
    pub fn ds_da_uq() -> Self {
        SubstrateConfig {
            delayed_acks: true,
            acks_in_unexpected_queue: true,
            ..Self::stream_base()
        }
    }

    /// Figure 11 "DG": datagram sockets.
    pub fn dg() -> Self {
        SubstrateConfig {
            socket_type: SocketType::Datagram,
            ..Self::stream_base()
        }
    }

    /// With a different credit count, in the `1..=65535` the request's 16
    /// bits carry (the web server uses 4, §7.4; Figure 12 sweeps 1..32).
    pub fn with_credits(mut self, n: u32) -> Self {
        assert!(n >= 1, "at least one credit required");
        assert!(
            n <= u32::from(u16::MAX),
            "the request carries 16-bit credits"
        );
        self.credits = n;
        self
    }

    /// Bound `connect()` by `deadline`: block until the request is
    /// answered, resending with exponential backoff, and surface
    /// [`crate::NetError::Timeout`] when the deadline passes. A later
    /// call replaces an earlier one.
    pub fn with_connect_timeout(mut self, deadline: SimDuration) -> Self {
        assert!(!deadline.is_zero(), "a zero connect deadline always fires");
        self.connect_timeout = Some(deadline);
        self
    }

    /// Cap live connections per process at `n`
    /// ([`crate::NetError::Exhausted`] beyond it).
    pub fn with_max_connections(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one connection required");
        self.max_connections = Some(n);
        self
    }

    /// Cap the out-of-order reorder buffer at `bytes`
    /// (see [`Self::reorder_cap_bytes`]).
    pub fn with_reorder_cap(mut self, bytes: usize) -> Self {
        self.reorder_cap_bytes = Some(bytes);
        self
    }

    /// Arm the ack-starvation watchdog: blocking operations fail with
    /// [`crate::NetError::PeerGone`] after `patience` of total silence
    /// from the peer.
    pub fn with_peer_watchdog(mut self, patience: SimDuration) -> Self {
        assert!(!patience.is_zero(), "a zero watchdog always fires");
        self.peer_gone_after = Some(patience);
        self
    }

    /// Flow-control-ack descriptors a connection of window N = `n` (the
    /// client's credits, which the acceptor adopts) pre-posts, zero when
    /// they live in the unexpected queue instead. With per-message acks
    /// this is N — which is how ack descriptors come to be "half of the
    /// total descriptors posted" (§6.3); with delayed acks only a couple
    /// are ever outstanding.
    pub fn fcack_descriptors(&self, n: u32) -> usize {
        if self.acks_in_unexpected_queue {
            0
        } else {
            (self.acks_outstanding(n) + 1).min(n as usize + 1)
        }
    }

    /// Unexpected-queue slots a connection of window N = `n` needs for
    /// its acks.
    pub fn unexpected_quota(&self, n: u32) -> usize {
        if self.acks_in_unexpected_queue {
            self.acks_outstanding(n) + 1
        } else {
            0
        }
    }

    fn acks_outstanding(&self, n: u32) -> usize {
        n.div_ceil(ack_threshold(self.delayed_acks, n)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_figure_11_labels() {
        let ds = SubstrateConfig::ds();
        assert!(!ds.delayed_acks && !ds.acks_in_unexpected_queue);
        let da = SubstrateConfig::ds_da();
        assert!(da.delayed_acks && !da.acks_in_unexpected_queue);
        let uq = SubstrateConfig::ds_da_uq();
        assert!(uq.delayed_acks && uq.acks_in_unexpected_queue);
        assert_eq!(SubstrateConfig::dg().socket_type, SocketType::Datagram);
        assert_eq!(ds.credits, 32);
        assert_eq!(ds.temp_buf_size, 64 * 1024);
    }

    #[test]
    fn ack_threshold_halves_credits_when_delayed() {
        assert_eq!(ack_threshold(false, 32), 1);
        assert_eq!(ack_threshold(true, 32), 16);
        assert_eq!(ack_threshold(true, 1), 1);
        assert_eq!(ack_threshold(true, 3), 1);
    }

    #[test]
    fn ack_descriptor_fractions_match_paper_examples() {
        // §6.3: credit size 1 => ack descriptors are ~50% of the total.
        let c1 = SubstrateConfig::ds_da().with_credits(1);
        assert_eq!(c1.fcack_descriptors(1), 2); // vs 1 data descriptor
                                                // Credit size 32 with delayed acks: ~2 ack descriptors vs 32 data,
                                                // the ~6% the paper quotes.
        let c32 = SubstrateConfig::ds_da();
        assert_eq!(c32.fcack_descriptors(32), 3);
        // Without delayed acks, one per credit (plus slack).
        assert_eq!(SubstrateConfig::ds().fcack_descriptors(32), 33);
    }

    #[test]
    fn robustness_knobs_default_off() {
        for cfg in [
            SubstrateConfig::ds(),
            SubstrateConfig::ds_da(),
            SubstrateConfig::ds_da_uq(),
            SubstrateConfig::dg(),
        ] {
            assert_eq!(cfg.connect_timeout, None);
            assert_eq!(cfg.max_connections, None);
            assert_eq!(cfg.reorder_cap_bytes, None);
            assert_eq!(cfg.peer_gone_after, None);
            assert_eq!(cfg.copy_policy, CopyPolicy::PAPER);
            assert!(!cfg.piggyback_acks);
        }
        let armed = SubstrateConfig::ds()
            .with_connect_timeout(SimDuration::from_millis(5))
            .with_peer_watchdog(SimDuration::from_millis(20));
        assert_eq!(armed.connect_timeout, Some(SimDuration::from_millis(5)));
        assert_eq!(armed.peer_gone_after, Some(SimDuration::from_millis(20)));
    }

    #[test]
    fn a_later_connect_timeout_replaces_an_earlier_one() {
        let cfg = SubstrateConfig::ds()
            .with_connect_timeout(SimDuration::from_millis(3))
            .with_connect_timeout(SimDuration::from_millis(8));
        assert_eq!(cfg.connect_timeout, Some(SimDuration::from_millis(8)));
    }

    #[test]
    fn default_differs_from_ds_da_uq_in_policy_and_piggyback_only() {
        let d = SubstrateConfig::default();
        assert_eq!(d.copy_policy, CopyPolicy::ADAPTIVE);
        assert!(d.piggyback_acks);
        let back = SubstrateConfig {
            copy_policy: CopyPolicy::PAPER,
            piggyback_acks: false,
            ..d
        };
        assert_eq!(
            format!("{back:?}"),
            format!("{:?}", SubstrateConfig::ds_da_uq())
        );
    }

    #[test]
    fn unexpected_quota_only_in_uq_mode() {
        assert_eq!(SubstrateConfig::ds_da().unexpected_quota(32), 0);
        assert_eq!(SubstrateConfig::ds_da_uq().unexpected_quota(32), 3);
        assert_eq!(SubstrateConfig::ds_da_uq().fcack_descriptors(32), 0);
    }
}

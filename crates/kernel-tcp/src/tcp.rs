//! TCP socket state.
//!
//! A deliberately *simplified but behaviourally faithful* TCP for the
//! simulated LAN: the fabric is loss-free and ordered (the switch model
//! queues rather than drops), so there is no data retransmission machinery
//! and SYN/FIN do not consume sequence space. What *is* modelled precisely
//! is everything the paper's numbers depend on: the three-way handshake,
//! socket-buffer copies on both sides, sender flow control against the
//! advertised window (half the receive buffer, as Linux does), slow-start
//! congestion window growth, delayed acks, and RST for refused connections.

use simnet::SimCondvar;

use crate::chunks::Chunks;

use crate::config::TcpConfig;
use crate::wire::SockAddr;

/// Connection lifecycle states (the subset a loss-free fabric needs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    /// Client sent SYN, awaiting SYN-ACK.
    SynSent,
    /// Listener child sent SYN-ACK, awaiting ACK.
    SynRcvd,
    /// Data flows.
    Established,
    /// We sent FIN first; peer may still send.
    FinWait,
    /// Peer sent FIN first; we may still send.
    CloseWait,
    /// We closed after the peer did (FIN sent from CloseWait).
    LastAck,
    /// Fully closed or reset.
    Closed,
}

/// Mutable socket state, guarded by the socket's mutex.
pub(crate) struct TcpInner {
    pub(crate) state: TcpState,
    // --- send side ---
    /// Unacknowledged + unsent bytes (front is `snd_una`), as the chunks
    /// `write` copied in.
    pub(crate) snd_buf: Chunks,
    pub(crate) snd_cap: usize,
    /// First unacknowledged byte offset.
    pub(crate) snd_una: u64,
    /// Next byte offset to put on the wire.
    pub(crate) snd_nxt: u64,
    /// Congestion window (bytes); grows by one MSS per new ack (slow
    /// start — a loss-free LAN never leaves it).
    pub(crate) cwnd: usize,
    /// Peer's advertised receive window (bytes).
    pub(crate) peer_window: usize,
    pub(crate) fin_queued: bool,
    pub(crate) fin_sent: bool,
    // --- receive side ---
    /// Received, in-order, not yet read by the application: the segments'
    /// own bytes.
    pub(crate) rcv_buf: Chunks,
    pub(crate) rcv_cap: usize,
    /// Next expected byte offset.
    pub(crate) rcv_nxt: u64,
    pub(crate) fin_received: bool,
    pub(crate) reset: bool,
    /// Closed and its handle dropped: nothing will ever read what
    /// arrives (a kernel's orphaned socket).
    pub(crate) orphaned: bool,
    // --- ack bookkeeping ---
    /// Window size most recently advertised to the peer.
    pub(crate) last_advertised: usize,
    /// Data segments received since the last ack we sent.
    pub(crate) unacked_segments: u32,
    /// Generation counter cancelling stale delayed-ack timers.
    pub(crate) delack_gen: u64,
    pub(crate) delack_armed: bool,
    /// True while a process is blocked in `read()`. The hosts are quad
    /// processors: a blocked reader drains the buffer concurrently with
    /// kernel processing, so acks generated then advertise the window as
    /// if the buffer were already empty.
    pub(crate) reader_waiting: bool,
}

impl TcpInner {
    pub(crate) fn new(cfg: &TcpConfig, sockbuf: usize, state: TcpState) -> Self {
        TcpInner {
            state,
            snd_buf: Chunks::default(),
            snd_cap: sockbuf,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: cfg.mss * cfg.initial_cwnd_segments as usize,
            peer_window: cfg.mss,
            fin_queued: false,
            fin_sent: false,
            rcv_buf: Chunks::default(),
            rcv_cap: sockbuf,
            rcv_nxt: 0,
            fin_received: false,
            reset: false,
            orphaned: false,
            last_advertised: 0,
            unacked_segments: 0,
            delack_gen: 0,
            delack_armed: false,
            reader_waiting: false,
        }
    }

    /// Bytes in flight (sent, unacknowledged).
    pub(crate) fn in_flight(&self) -> usize {
        (self.snd_nxt - self.snd_una) as usize
    }

    /// Buffered bytes not yet put on the wire.
    pub(crate) fn unsent(&self) -> usize {
        self.snd_buf.len() - self.in_flight()
    }

    /// Current window to advertise. A blocked reader counts as an empty
    /// buffer (it drains on another CPU before new data could arrive).
    pub(crate) fn advertised_window(&self, cfg: &TcpConfig) -> usize {
        let unread = if self.reader_waiting {
            0
        } else {
            self.rcv_buf.len()
        };
        cfg.advertised_window(self.rcv_cap, unread)
    }

    /// True when `read()` would not block.
    pub(crate) fn readable(&self) -> bool {
        !self.rcv_buf.is_empty() || self.fin_received || self.reset
    }

    /// True when `write()` would make progress without blocking: send
    /// buffer space available, or an error/closed state the write reports
    /// immediately (POSIX `POLLOUT` semantics).
    pub(crate) fn writable(&self) -> bool {
        self.reset
            || self.fin_queued
            || matches!(self.state, TcpState::Closed | TcpState::FinWait)
            || self.snd_cap > self.snd_buf.len()
    }

    /// May the socket transmit data in its current state?
    pub(crate) fn can_send_data(&self) -> bool {
        matches!(self.state, TcpState::Established | TcpState::CloseWait)
    }
}

/// One TCP socket (connection endpoint). Created by `connect` or by a
/// listener accepting a SYN; owned jointly by the application handle and
/// the stack's demux table.
pub(crate) struct TcpSocket {
    pub(crate) local: SockAddr,
    pub(crate) remote: SockAddr,
    pub(crate) inner: std::cell::RefCell<TcpInner>,
    /// Single condvar for all of this socket's waiters (connectors,
    /// readers, writers); state changes `notify_all` and waiters re-check.
    pub(crate) cv: SimCondvar,
}

/// Demux key: local port + full remote address (the local host is implied
/// by which stack the table lives in).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct ConnKey {
    pub(crate) local_port: u16,
    pub(crate) remote: SockAddr,
}

/// The local half of the key for a socket (the local host is implied by
/// the stack instance the table lives in).
pub(crate) fn conn_key(local: SockAddr, remote: SockAddr) -> ConnKey {
    ConnKey {
        local_port: local.port,
        remote,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inner() -> TcpInner {
        TcpInner::new(&TcpConfig::default(), 16 * 1024, TcpState::Established)
    }

    #[test]
    fn inflight_and_unsent_accounting() {
        let mut i = inner();
        i.snd_buf.push(vec![0u8; 5000].into());
        assert_eq!(i.in_flight(), 0);
        assert_eq!(i.unsent(), 5000);
        i.snd_nxt = 3000;
        assert_eq!(i.in_flight(), 3000);
        assert_eq!(i.unsent(), 2000);
        i.snd_una = 1000;
        assert_eq!(i.in_flight(), 2000);
    }

    #[test]
    fn readable_conditions() {
        let mut i = inner();
        assert!(!i.readable());
        i.rcv_buf.push(bytes::Bytes::from_static(&[1]));
        assert!(i.readable());
        i.rcv_buf.drain(1);
        i.fin_received = true;
        assert!(i.readable());
    }

    #[test]
    fn advertised_window_shrinks_with_unread_data() {
        let cfg = TcpConfig::default();
        let mut i = inner();
        assert_eq!(i.advertised_window(&cfg), 12 * 1024);
        i.rcv_buf.push(vec![0u8; 3000].into());
        assert_eq!(i.advertised_window(&cfg), 12 * 1024 - 3000);
        i.reader_waiting = true;
        assert_eq!(i.advertised_window(&cfg), 12 * 1024);
    }

    #[test]
    fn data_allowed_only_when_open() {
        let mut i = inner();
        assert!(i.can_send_data());
        i.state = TcpState::CloseWait;
        assert!(i.can_send_data());
        i.state = TcpState::FinWait;
        assert!(!i.can_send_data());
        i.state = TcpState::Closed;
        assert!(!i.can_send_data());
    }
}

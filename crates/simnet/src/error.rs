//! Error types shared by everything that runs inside a simulation: the
//! engine's [`SimError`] and the sockets' [`NetError`].

use std::fmt;

/// Result type for code running inside a simulated process.
pub type SimResult<T> = Result<T, SimError>;

/// A socket operation's result nested in the simulation result: outer for
/// engine termination, inner for the socket error.
pub type OpResult<T> = SimResult<Result<T, NetError>>;

/// Errors surfaced to simulated processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The simulation was dropped, or a `run*` call is re-raising a failure,
    /// while this process was blocked. A process receiving this should
    /// unwind promptly (the `?` operator does the right thing); it is the
    /// normal way processes are reclaimed.
    Terminated,
    /// An application-level failure. Protocol layers convert their own error
    /// types into this variant when a process gives up; the simulation run
    /// loop reports it by panicking with the message, so tests fail loudly.
    App(String),
}

impl SimError {
    /// Convenience constructor for application errors.
    pub fn app(msg: impl Into<String>) -> Self {
        SimError::App(msg.into())
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Terminated => write!(f, "simulation terminated"),
            SimError::App(msg) => write!(f, "application error: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Why a socket operation failed — one errno-style set for every stack
/// (the EMP substrate, the kernel TCP baseline) and every front end over
/// them (blocking calls, readiness, completion rings, async). The same
/// condition is the same variant everywhere, with no translation between
/// layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetError {
    /// Nobody listening, or the backlog overflowed (ECONNREFUSED).
    Refused,
    /// Operation on a locally closed socket or listener, or an op queued
    /// behind a `Close` on the same connection.
    Closed,
    /// The peer closed or reset the connection; writes fail (reads drain,
    /// then return EOF).
    PeerClosed,
    /// The peer stopped responding entirely — no data, no credit returns,
    /// no control traffic — past the substrate's ack-starvation watchdog.
    /// Distinct from [`NetError::PeerClosed`]: a closed peer said goodbye;
    /// a gone peer just vanished (crashed process, unplugged station).
    PeerGone,
    /// A datagram exceeded the receiver's posted buffer, or a stream write
    /// exceeded what the substrate can fragment.
    TooBig {
        /// Message size.
        size: usize,
        /// What the receiver could take.
        limit: usize,
    },
    /// Port already listening, or outside the stack's encodable range.
    AddrInUse,
    /// A nonblocking operation found nothing to do (EAGAIN): no data, no
    /// credits or buffer space, or an empty backlog. Retry after the
    /// stack's poll reports readiness.
    WouldBlock,
    /// Invalid argument (EINVAL): e.g. a poll that could never wake, or a
    /// nonblocking call whose progress needs a round trip.
    Invalid,
    /// A deadline expired before the operation could complete
    /// (ETIMEDOUT): a bounded connect, a deadlined read/write/accept, a
    /// ring op past its deadline, or a write stalled past the stall
    /// detector.
    Timeout,
    /// A resource budget was exhausted (ENOBUFS): connection budgets,
    /// reorder-buffer caps, registered-buffer pools.
    Exhausted,
    /// The operation was cancelled before it ran (a completion-ring op
    /// withdrawn by `cancel`, e.g. because its future was dropped).
    Cancelled,
    /// Malformed message or protocol violation.
    Protocol(&'static str),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Refused => write!(f, "connection refused"),
            NetError::Closed => write!(f, "socket closed"),
            NetError::PeerClosed => write!(f, "peer closed"),
            NetError::PeerGone => write!(f, "peer vanished (ack starvation)"),
            NetError::TooBig { size, limit } => {
                write!(f, "message of {size} bytes exceeds receiver limit {limit}")
            }
            NetError::AddrInUse => write!(f, "address in use"),
            NetError::WouldBlock => write!(f, "operation would block"),
            NetError::Invalid => write!(f, "invalid argument"),
            NetError::Timeout => write!(f, "operation timed out"),
            NetError::Exhausted => write!(f, "resource budget exhausted"),
            NetError::Cancelled => write!(f, "operation cancelled"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<NetError> for SimError {
    fn from(e: NetError) -> SimError {
        SimError::app(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(SimError::Terminated.to_string(), "simulation terminated");
        assert_eq!(SimError::app("boom").to_string(), "application error: boom");
    }

    #[test]
    fn display_and_simerror_conversion() {
        let e = NetError::TooBig {
            size: 100,
            limit: 64,
        };
        assert!(e.to_string().contains("100"));
        let s: SimError = NetError::Closed.into();
        assert_eq!(s, SimError::app("socket closed"));
    }
}

//! Readiness primitives shared by every stack in the workspace.
//!
//! Kernel-bypass stacks scale by making *readiness* the core primitive
//! rather than blocking calls: an application registers what it cares
//! about (an [`Interest`] mask per socket) and a poll call reports which
//! registrations are actionable ([`Event`]s). Both the sockets-over-EMP
//! substrate and the kernel TCP baseline express their poll layers in
//! these types so the comparison stays apples-to-apples.
//!
//! A nonblocking attempt plus a readiness wait is all a deadlined blocking
//! call needs; [`until_deadline`] is that loop, written once for every
//! stack.

use crate::engine::SimAccess;
use crate::error::{NetError, OpResult};
use crate::process::ProcessCtx;
use crate::time::SimDuration;

/// A blocking operation bounded by `deadline`, built from its nonblocking
/// form: `attempt` runs until it returns anything but
/// [`NetError::WouldBlock`]; between attempts, `wait_ready(remaining)`
/// parks until the operation could make progress (`Ok(true)`) or
/// `remaining` passes (`Ok(false)`). When the deadline wins, the call
/// fails with [`NetError::Timeout`] and adds one to the `timeouts`
/// telemetry counter.
pub fn until_deadline<T>(
    ctx: &ProcessCtx,
    deadline: SimDuration,
    timeouts: &str,
    mut attempt: impl FnMut() -> OpResult<T>,
    mut wait_ready: impl FnMut(SimDuration) -> OpResult<bool>,
) -> OpResult<T> {
    let give_up_at = ctx.now() + deadline;
    loop {
        match attempt()? {
            Err(NetError::WouldBlock) => {}
            done => return Ok(done),
        }
        let now = ctx.now();
        if now < give_up_at {
            match wait_ready(give_up_at.since(now))? {
                Ok(true) => continue,
                Ok(false) => {}
                Err(e) => return Ok(Err(e)),
            }
        }
        ctx.telemetry().counter(timeouts).add(1);
        return Ok(Err(NetError::Timeout));
    }
}

/// A readiness interest mask: which conditions a poll should report for
/// one registration. Combine with `|`; test with [`Interest::contains`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Interest(u8);

impl Interest {
    /// The empty mask (matches nothing; registrations still report
    /// [`Interest::ERROR`]).
    pub const EMPTY: Interest = Interest(0);
    /// A `read` (or `recv`) would make progress without blocking —
    /// buffered data, a completed message, or EOF.
    pub const READABLE: Interest = Interest(1 << 0);
    /// A `write` (or `send`) would make progress without blocking —
    /// credits/buffer space available.
    pub const WRITABLE: Interest = Interest(1 << 1);
    /// An `accept` would return a connection without blocking.
    pub const ACCEPTABLE: Interest = Interest(1 << 2);
    /// The registration is in an error state (peer reset/closed, refused
    /// connection, protocol violation). Reported regardless of the
    /// registered mask, like POSIX `POLLERR`.
    pub const ERROR: Interest = Interest(1 << 3);

    /// True when every bit of `other` is set in `self`.
    pub fn contains(self, other: Interest) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when `self` and `other` share at least one bit.
    pub fn intersects(self, other: Interest) -> bool {
        self.0 & other.0 != 0
    }

    /// True when no bit is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for Interest {
    fn bitor_assign(&mut self, rhs: Interest) {
        self.0 |= rhs.0;
    }
}

impl std::ops::BitAnd for Interest {
    type Output = Interest;
    fn bitand(self, rhs: Interest) -> Interest {
        Interest(self.0 & rhs.0)
    }
}

impl std::fmt::Debug for Interest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        if self.contains(Interest::READABLE) {
            parts.push("READABLE");
        }
        if self.contains(Interest::WRITABLE) {
            parts.push("WRITABLE");
        }
        if self.contains(Interest::ACCEPTABLE) {
            parts.push("ACCEPTABLE");
        }
        if self.contains(Interest::ERROR) {
            parts.push("ERROR");
        }
        if parts.is_empty() {
            write!(f, "EMPTY")
        } else {
            write!(f, "{}", parts.join("|"))
        }
    }
}

/// One ready registration out of a poll: the caller-chosen token plus the
/// readiness bits that are actually set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// The token the registration was made with.
    pub token: usize,
    /// Which of the registered interests (plus [`Interest::ERROR`]) hold.
    pub ready: Interest,
}

impl Event {
    /// Does this event report readability?
    pub fn is_readable(&self) -> bool {
        self.ready.contains(Interest::READABLE)
    }

    /// Does this event report writability?
    pub fn is_writable(&self) -> bool {
        self.ready.contains(Interest::WRITABLE)
    }

    /// Does this event report an acceptable connection?
    pub fn is_acceptable(&self) -> bool {
        self.ready.contains(Interest::ACCEPTABLE)
    }

    /// Does this event report an error state?
    pub fn is_error(&self) -> bool {
        self.ready.contains(Interest::ERROR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_algebra() {
        let rw = Interest::READABLE | Interest::WRITABLE;
        assert!(rw.contains(Interest::READABLE));
        assert!(rw.contains(Interest::WRITABLE));
        assert!(!rw.contains(Interest::ACCEPTABLE));
        assert!(rw.intersects(Interest::READABLE | Interest::ERROR));
        assert!(!rw.intersects(Interest::ERROR));
        assert!(Interest::EMPTY.is_empty());
        assert!((rw & Interest::READABLE) == Interest::READABLE);
    }

    #[test]
    fn debug_lists_set_bits() {
        let s = format!("{:?}", Interest::READABLE | Interest::ERROR);
        assert!(s.contains("READABLE") && s.contains("ERROR"));
        assert_eq!(format!("{:?}", Interest::EMPTY), "EMPTY");
    }

    #[test]
    fn event_accessors() {
        let e = Event {
            token: 7,
            ready: Interest::ACCEPTABLE,
        };
        assert!(e.is_acceptable());
        assert!(!e.is_readable() && !e.is_writable() && !e.is_error());
    }
}

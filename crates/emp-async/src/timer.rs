//! Simulated-time timers: futures that resolve at an absolute instant,
//! scheduled as ordinary engine events (never a wall clock).

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use simnet::{Completion, SimAccess, SimAccessExt, SimDuration, SimTime};

use crate::executor::with_ctx;

/// Resolves at `deadline` (immediately if it already passed). The
/// deadline/cancellation building block: `select`-style raced against an
/// I/O future, or awaited alone as a pure sleep.
pub fn sleep_until(deadline: SimTime) -> Sleep {
    Sleep {
        deadline: Some(deadline),
        dur: None,
        timer: None,
    }
}

/// Resolves `dur` after the first poll (the async analogue of
/// [`simnet::ProcessCtx::delay`], but only this task sleeps).
pub fn sleep(dur: SimDuration) -> Sleep {
    Sleep {
        deadline: None,
        dur: Some(dur),
        timer: None,
    }
}

/// Future returned by [`sleep`] / [`sleep_until`].
///
/// Dropping it cancels the wake (the scheduled engine event still runs,
/// completing a timer nobody watches — a no-op).
pub struct Sleep {
    deadline: Option<SimTime>,
    dur: Option<SimDuration>,
    timer: Option<Completion>,
}

impl Sleep {
    /// The absolute instant this sleep resolves at, once known (a
    /// relative [`sleep`] resolves it on first poll).
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        with_ctx(|ctx| {
            let dur = this.dur;
            let deadline = *this
                .deadline
                .get_or_insert_with(|| ctx.now() + dur.expect("sleep has a duration"));
            if ctx.now() >= deadline {
                return Poll::Ready(());
            }
            let timer = this.timer.get_or_insert_with(|| {
                let c = Completion::new();
                let c2 = c.clone();
                ctx.timer_at(deadline, move |s| c2.complete(s));
                c
            });
            if timer.watch_waker(cx.waker()) {
                Poll::Pending
            } else {
                Poll::Ready(())
            }
        })
    }
}

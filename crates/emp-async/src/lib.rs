//! # emp-async — a deterministic, sim-driven async/await executor
//!
//! The modern front end for the paper's user-level sockets substrate:
//! `async fn` handlers over the readiness ([`simnet::readiness`]) and
//! completion ([`simnet::ring`]) layers, scheduled by a single-threaded
//! executor that runs *inside* one simulated process and is woken only by
//! simulation events — never by a wall clock or an OS reactor.
//!
//! ## How a wake travels
//!
//! 1. A leaf future finds its operation would block and registers its
//!    [`std::task::Waker`] with a simulation-side wake source:
//!    [`simnet::Completion::watch_waker`] (one-shot; readiness
//!    completions, timers, ring progress) or
//!    [`simnet::SimCondvar::watch_waker`] (multi-shot; the kernel stack's
//!    activity condvar).
//! 2. When the source fires — always from a deterministic simulation
//!    event — the waker pushes its task onto the executor's ready queue
//!    and completes the executor's *doorbell* [`simnet::Completion`],
//!    which schedules a process wake at the current simulated instant.
//! 3. The executor process resumes, polls every ready task to quiescence,
//!    then installs a fresh doorbell and parks again.
//!
//! Every step is driven by the engine's `(time, sequence)` event order,
//! so same-seed runs produce byte-identical task schedules: determinism
//! is inherited, not re-implemented.
//!
//! ## Cancellation contract
//!
//! Dropping a future *is* cancellation, and drops run with the process
//! context still installed (see [`with_ctx`]), so drop guards can reach
//! the stack to disarm poll descriptors or cancel submitted ring ops.
//! Executor teardown via [`LocalExecutor::run`] drains naturally; tasks
//! that outlive an abandoned executor are dropped without a context and
//! must use [`try_with_ctx`] in their guards.

#![warn(missing_docs)]

mod executor;
mod timer;

pub use executor::{
    block_on, try_with_ctx, with_ctx, JoinHandle, LocalExecutor, SpawnHandleExt, Spawner,
};
pub use timer::{sleep, sleep_until, Sleep};

use std::cell::Cell;
use std::rc::Rc;

use simnet::{Completion, ProcessCtx, SimResult};

/// Await a [`simnet::Completion`]: resolves when it completes, immediately
/// if it already has. The bridge from one-shot simulation events (connect
/// results, helper-process handoffs, timers) into a future.
pub async fn wait_for(c: &Completion) {
    std::future::poll_fn(|cx| {
        if c.watch_waker(cx.waker()) {
            std::task::Poll::Pending
        } else {
            std::task::Poll::Ready(())
        }
    })
    .await
}

/// Yield to the executor once: resolves on its second poll. Lets a busy
/// task give siblings a turn without consuming simulated time.
pub async fn yield_now() {
    let mut yielded = false;
    std::future::poll_fn(move |cx| {
        if yielded {
            std::task::Poll::Ready(())
        } else {
            yielded = true;
            cx.waker().wake_by_ref();
            std::task::Poll::Pending
        }
    })
    .await
}

/// Bound `fut` by a simulated-time budget: `Some(output)` when it
/// resolves in time, `None` when the deadline fires first. The losing
/// future is dropped — which under the cancellation contract *is* its
/// cancellation, drop guards included. This is how the facade's
/// deadline'd operations (PR 7's typed timeouts) surface in async code.
pub async fn timeout<T>(
    dur: simnet::SimDuration,
    fut: impl std::future::Future<Output = T>,
) -> Option<T> {
    use std::future::Future;
    let mut fut = std::pin::pin!(fut);
    let mut deadline = std::pin::pin!(sleep(dur));
    std::future::poll_fn(move |cx| {
        if let std::task::Poll::Ready(v) = fut.as_mut().poll(cx) {
            return std::task::Poll::Ready(Some(v));
        }
        if deadline.as_mut().poll(cx).is_ready() {
            return std::task::Poll::Ready(None);
        }
        std::task::Poll::Pending
    })
    .await
}

/// Run a blocking closure on a helper simulated process and await its
/// result — the escape hatch for operations that only exist in blocking
/// form (the substrate's policy-driven `connect`, for example). The
/// closure runs on its own process, so the executor keeps scheduling
/// other tasks while it parks.
pub async fn spawn_blocking<T, F>(name: impl Into<String>, f: F) -> SimResult<T>
where
    T: 'static,
    F: FnOnce(&ProcessCtx) -> SimResult<T> + 'static,
{
    let slot = Rc::new(Cell::new(None));
    let done = Completion::new();
    let (slot2, done2) = (Rc::clone(&slot), done.clone());
    with_ctx(|ctx| {
        ctx.spawn(name, move |helper| {
            slot2.set(Some(f(helper)));
            done2.complete(helper);
            Ok(())
        })
    });
    wait_for(&done).await;
    slot.take().expect("helper stored its result")
}

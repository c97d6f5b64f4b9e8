//! One server for every I/O model.
//!
//! An application states its protocol once, as a `service(inbuf, out)`
//! closure: consume every complete request in `inbuf` (leaving a partial
//! one in place) and append the responses to `out`. [`serve`] runs that
//! closure under any of the four [`ServerModel`]s — a blocking worker
//! process per connection, the readiness event loop
//! ([`crate::eventloop`]), the completion ring ([`crate::completion`]) or
//! the async executor ([`crate::asyncio`]) — so the same protocol answers
//! byte for byte whichever model serves it, over either stack.

use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{ProcessCtx, SimResult};

use crate::api::{NetApi, NetListener};
use crate::asyncio::serve_async;
use crate::completion::serve_completion;
use crate::eventloop::{serve_event_loop_with, OverloadPolicy};

/// Read granularity of every server model (and the completion ring's
/// registered-buffer size), so the four issue identical reads.
pub const READ_CHUNK: usize = 4096;

/// How a server is structured.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServerModel {
    /// A worker process per accepted connection, blocking calls.
    PerConnection,
    /// One process, one [`crate::api::NetApi::poll`] wait, nonblocking
    /// calls ([`serve_event_loop_with`]).
    EventLoop,
    /// One process, one completion ring ([`crate::api::ring`]):
    /// ops submitted over registered buffers, completions reaped in
    /// batches ([`serve_completion`]).
    Completion,
    /// One process, one async executor ([`emp_async::LocalExecutor`]):
    /// a straight-line `async` handler task per connection, wakes from
    /// the readiness layer ([`serve_async`]).
    Async,
}

impl ServerModel {
    /// Short name for reports.
    pub fn label(self) -> &'static str {
        match self {
            ServerModel::PerConnection => "per-conn",
            ServerModel::EventLoop => "event-loop",
            ServerModel::Completion => "completion",
            ServerModel::Async => "async",
        }
    }
}

/// Accept `n_conns` connections from `l` and serve them structured per
/// `model`. Each connection is greeted with `greeting` (empty for none);
/// thereafter `service(inbuf, out)` runs whenever bytes arrive and what
/// it appends to `out` is written back. Returns once every connection
/// has reached EOF (or errored) and `l` is closed.
pub fn serve(
    ctx: &ProcessCtx,
    api: &dyn NetApi,
    l: Box<dyn NetListener>,
    model: ServerModel,
    n_conns: u32,
    greeting: &[u8],
    service: impl FnMut(&mut Vec<u8>, &mut Vec<u8>) + Send + 'static,
) -> SimResult<()> {
    match model {
        ServerModel::PerConnection => serve_per_connection(ctx, l, n_conns, greeting, service),
        ServerModel::EventLoop => {
            let policy = OverloadPolicy::default();
            serve_event_loop_with(ctx, api, l.as_ref(), n_conns, greeting, &policy, service)?;
            l.close(ctx)
        }
        ServerModel::Completion => {
            serve_completion(ctx, api, l, n_conns, greeting, service).map(|_| ())
        }
        ServerModel::Async => serve_async(ctx, l, n_conns, greeting, service),
    }
}

/// The paper's server structure: accept, then hand each connection to its
/// own worker process, which blocks in `read` and runs the (shared)
/// service on whatever arrived.
fn serve_per_connection(
    ctx: &ProcessCtx,
    l: Box<dyn NetListener>,
    n_conns: u32,
    greeting: &[u8],
    service: impl FnMut(&mut Vec<u8>, &mut Vec<u8>) + Send + 'static,
) -> SimResult<()> {
    let service = Arc::new(Mutex::new(service));
    for _ in 0..n_conns {
        let conn = l.accept(ctx)?.expect("client");
        let service = Arc::clone(&service);
        let mut out = greeting.to_vec();
        ctx.spawn("server-worker", move |ctx| {
            let mut inbuf = Vec::new();
            loop {
                if !out.is_empty() {
                    if conn.write(ctx, &out)?.is_err() || conn.flush(ctx)?.is_err() {
                        break;
                    }
                    out.clear();
                }
                match conn.read(ctx, READ_CHUNK)? {
                    Ok(chunk) if !chunk.is_empty() => inbuf.extend_from_slice(&chunk),
                    _ => break, // EOF or error
                }
                service.lock()(&mut inbuf, &mut out);
            }
            let _ = conn.close(ctx);
            Ok(())
        });
    }
    l.close(ctx)
}

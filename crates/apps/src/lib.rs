//! # emp-apps — the applications of the paper's evaluation (§7)
//!
//! Every application is written once against the stack-agnostic
//! [`NetApi`] facade and runs over both the sockets-over-EMP substrate
//! and the kernel TCP baseline:
//!
//! * [`pingpong`] — the latency microbenchmark (Figures 11-13);
//! * [`bandwidth`] — the throughput microbenchmark (Figure 13);
//! * [`ftp`] — RAM-disk-backed file transfer (Figure 14);
//! * [`webserver`] — HTTP/1.0 and HTTP/1.1, one server + three clients
//!   (Figures 15-16);
//! * [`matmul`] — master/worker matrix multiply with `select()`
//!   (Figure 17);
//! * [`kvstore`] — a data-center-style key-value service (the paper's
//!   §8 future work).
//!
//! The two servers state their protocol once and [`serve()`] runs it
//! under any of the four I/O models ([`ServerModel`]).
//! [`testbed::Testbed`] builds the 4-node cluster over either stack.

#![warn(missing_docs)]

pub mod api;
#[cfg(test)]
mod api_tests;
pub mod asyncio;
pub mod bandwidth;
pub mod completion;
pub mod eventloop;
pub mod ftp;
pub mod kvstore;
pub mod matmul;
pub mod overload;
pub mod pingpong;
pub mod serve;
pub mod stacks;
pub mod testbed;
pub mod webserver;

pub use api::{
    ring, Api, Conn, Cqe, CqeResult, Event, Interest, NetApi, NetConn, NetError, NetListener,
    PollSource, PollTarget, Ring, RingConfig, RingCounters, RingDepths, RingError, RingOp, Sqe,
};
pub use asyncio::{serve_async, AsyncConnector, AsyncListener, AsyncRing, AsyncStream};
pub use completion::serve_completion;
pub use eventloop::{serve_event_loop_with, OverloadPolicy, ServeReport};
pub use overload::{run_storm, run_storm_on, OverloadReport, StormConfig};
pub use serve::{serve, ServerModel};
pub use stacks::{EmpNet, KernelNet};
pub use testbed::{AppNode, Testbed};

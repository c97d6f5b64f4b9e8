//! # sockets-emp — High Performance User Level Sockets over (simulated)
//! Gigabit Ethernet
//!
//! The paper's contribution: a user-level sockets substrate on EMP that
//! runs TCP-style applications unmodified, at a fraction of the kernel
//! stack's cost. Everything from §4-§6 of the paper is here:
//!
//! * **Connection management by data message exchange** (§5.1) —
//!   [`EmpSockets::listen`]/[`Listener::accept`]/[`EmpSockets::connect`];
//! * **Eager with flow control** for data-streaming sockets (§5.2, §6.1):
//!   N credits, pre-posted temp buffers, one receive-side copy, partial
//!   reads;
//! * **Rendezvous** for datagram sockets' large messages (§5.2, §6.2) —
//!   zero-copy, deadlock-prone by design (Figure 7);
//! * **Credit-based flow control with 2N descriptors** and **piggy-backed
//!   acks** (§6.1) — under the default configuration each direction's
//!   window starts at two descriptors and grows to N once its sender
//!   uses both;
//! * **Delayed acknowledgments** (§6.3) and **acks through the EMP
//!   unexpected queue** (§6.4) — toggled via [`SubstrateConfig`] presets
//!   `ds()`, `ds_da()`, `ds_da_uq()`, `dg()`, matching Figure 11's labels;
//! * **Resource management** (§5.3): an active-socket table and explicit
//!   descriptor unposting on `close()`;
//! * **Function name-space interposition** (§5.4): [`FdTable`] routes
//!   integer-fd `read`/`write`/`close` to the substrate or the simulated
//!   filesystem;
//! * the rejected **separate communication thread** alternative (§5.2) as
//!   an ablation, via [`RecvMode`].

#![warn(missing_docs)]

pub mod config;
pub mod conn;
mod conn_core;
pub mod dgram;
pub mod fdtable;
pub mod poll;
pub mod proto;
pub mod socket;
pub mod stream;
pub mod tags;

pub use config::{CopyPolicy, RecvMode, SocketType, SubstrateConfig};
pub use conn_core::ConnStats;
pub use fdtable::{FdError, FdTable, PollFd};
pub use poll::PollSet;
pub use simnet::{Event, Interest, NetError};
pub use socket::{ConnDebugState, Connection, EmpSockets, Listener, SockAddr, SubstrateStats};

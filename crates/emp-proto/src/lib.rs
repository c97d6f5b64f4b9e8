//! # emp-proto — Ethernet Message Passing
//!
//! A from-scratch implementation of EMP, the "zero-copy, OS-bypass,
//! NIC-level messaging system for Gigabit Ethernet" the paper's sockets
//! substrate is built on (Shivam, Wyckoff, Panda — SC'01; summarized in §2
//! of the reproduced paper). The protocol runs as firmware on the simulated
//! Tigon2 NIC:
//!
//! * [`wire`] — frame formats: data fragments with 16-bit tags, cumulative
//!   NIC-level acks;
//! * [`nic`] — the firmware: descriptor tag matching (550 ns per entry
//!   walked), transmission records, window-of-4 acknowledgments, timeout
//!   retransmission, the unexpected queue;
//! * [`endpoint`] — the host API: `post_send`/`post_recv`/`wait`, with
//!   pin+translate syscall accounting and a translation cache;
//! * [`testbed`] — clusters of EMP nodes on one switch.

#![warn(missing_docs)]

pub mod config;
pub mod endpoint;
pub mod nic;
pub mod testbed;
pub mod wire;

pub use config::EmpConfig;
pub use endpoint::{EmpEndpoint, PostSpec, RecvHandle, RecvPoll, SendHandle};
pub use nic::{DescId, DescSpec, EmpNic, EmpStats, TxBuf};
pub use testbed::{build_cluster, EmpCluster, EmpNode};
pub use wire::{RecvMsg, Tag, MAX_CHUNK};

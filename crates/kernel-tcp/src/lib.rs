//! # kernel-tcp — the baseline: kernel sockets over a conventional driver
//!
//! The "traditional communication architecture" of the paper's Figure 3,
//! built from scratch: BSD-style sockets whose data path runs through the
//! kernel — syscalls and user/kernel copies at the edges, TCP/UDP/IP
//! processing on the kernel CPU, and an interrupt-driven NIC (the same
//! Tigon silicon as EMP running the stock "Acenic" firmware, with receive
//! interrupt coalescing).
//!
//! Calibrated to the paper's baseline measurements: ~120 µs small-message
//! latency, ~340 Mbps with the default 16 KiB socket buffers, ~550 Mbps
//! with large ones, and 200-250 µs connection setup.

#![warn(missing_docs)]

pub mod api;
mod chunks;
pub mod config;
pub mod nic;
pub mod stack;
pub mod tcp;
pub mod testbed;
pub mod udp;
pub mod wire;

pub use api::{TcpApi, TcpConn, TcpListener, TcpPollSource, TcpPollTarget, UdpSock};
pub use config::TcpConfig;
pub use nic::AcenicNic;
pub use simnet::{Event, Interest, NetError};
pub use stack::{StackCore, TcpStack};
pub use testbed::{build_tcp_cluster, TcpCluster, TcpNode};
pub use wire::SockAddr;

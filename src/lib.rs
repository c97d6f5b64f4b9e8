//! # sockets-over-emp
//!
//! A full reproduction of **"High Performance User Level Sockets over
//! Gigabit Ethernet"** (Balaji, Shivam, Wyckoff, Panda — IEEE Cluster
//! 2002) as a Rust workspace: the sockets-over-EMP substrate, every
//! subsystem it stands on (EMP protocol, Tigon2-style NIC, Gigabit
//! Ethernet fabric, kernel TCP baseline, host models), the paper's
//! applications, and a benchmark harness that regenerates every figure of
//! its evaluation. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for paper-vs-measured numbers.
//!
//! This crate is a facade over the workspace members:
//!
//! * [`simnet`] — deterministic discrete-event engine + Ethernet fabric;
//! * [`hostsim`] — host cost models, pinned memory, RAM disk;
//! * [`tigon_nic`] — the programmable NIC;
//! * [`emp_proto`] — the EMP messaging protocol;
//! * [`kernel_tcp`] — the kernel TCP/UDP/IP baseline;
//! * [`sockets_emp`] — **the paper's contribution**: user-level sockets
//!   over EMP;
//! * [`emp_apps`] — ftp, web server, matmul, microbenchmarks.
//!
//! ## Quickstart
//!
//! ```
//! use sockets_over_emp::prelude::*;
//!
//! let sim = Sim::new();
//! let cluster = emp_proto::build_cluster(2, EmpConfig::default(), SwitchConfig::default());
//! // `default()` is the fast configuration; name a preset (`ds_da_uq()`,
//! // `dg()`, ...) to measure what the paper measured.
//! let server = EmpSockets::new(cluster.nodes[1].endpoint(), SubstrateConfig::default());
//! let client = EmpSockets::new(cluster.nodes[0].endpoint(), SubstrateConfig::default());
//! let addr = SockAddr::new(cluster.nodes[1].addr(), 80);
//!
//! sim.spawn("server", move |ctx| {
//!     let listener = server.listen(ctx, 80, 8)?.expect("port free");
//!     let conn = listener.accept(ctx)?.expect("connection");
//!     let msg = conn.read(ctx, 64)?.expect("data");
//!     conn.write(ctx, &msg)?.expect("echo");
//!     Ok(())
//! });
//! sim.spawn("client", move |ctx| {
//!     let conn = client.connect(ctx, addr)?.expect("connect");
//!     conn.write(ctx, b"hello")?.expect("send");
//!     let reply = conn.read(ctx, 64)?.expect("reply");
//!     assert_eq!(&reply[..], b"hello");
//!     Ok(())
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]

pub use emp_apps;
pub use emp_proto;
pub use hostsim;
pub use kernel_tcp;
pub use simnet;
pub use sockets_emp;

/// The names most programs need.
pub mod prelude {
    pub use emp_proto::{EmpConfig, EmpEndpoint};
    pub use simnet::{Sim, SimAccess, SimDuration, SimTime, SwitchConfig};
    pub use sockets_emp::{Connection, EmpSockets, FdTable, Listener, SockAddr, SubstrateConfig};
}

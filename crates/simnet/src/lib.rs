//! # simnet — deterministic discrete-event simulation + Gigabit Ethernet
//!
//! The substrate every other crate in this workspace stands on:
//!
//! * a **discrete-event engine** ([`Sim`]) with nanosecond time, strict
//!   `(time, sequence)` event ordering and bit-for-bit reproducible runs;
//! * **simulated processes** ([`ProcessCtx`]) — stackful coroutines on the
//!   `run*` caller's thread, of which exactly one runs at a time (and runs
//!   the event loop while its process is blocked), so protocol and
//!   application code is written in natural blocking style;
//! * **synchronization primitives** ([`Completion`], [`SimCondvar`],
//!   [`SimQueue`]) that preserve the engine's park/wake discipline;
//! * a **Gigabit Ethernet physical layer**: exact frame wire-size
//!   accounting ([`Frame`]), full-duplex links ([`LinkTx`]) and a
//!   store-and-forward switch ([`Switch`]).
//!
//! Everything above this crate — the Tigon2 NIC model, the EMP protocol,
//! the kernel TCP baseline and the sockets-over-EMP substrate — plugs into
//! the [`FrameSink`]/[`LinkTx`] pair and the process/event machinery here.
//!
//! ## Ownership discipline
//!
//! Components never store a [`Sim`] handle; every component method takes a
//! `&dyn SimAccess` (events get `&Sim`, processes use their
//! [`ProcessCtx`]). Cross-component references through links are weak.
//! Consequently `Sim` is the unique owner of the world: dropping it
//! terminates every simulated process deterministically.

#![warn(missing_docs)]

mod coroutine;
pub mod engine;
pub mod error;
pub mod fault;
pub mod frame;
pub mod link;
pub mod process;
pub mod readiness;
pub mod ring;
pub mod stats;
pub mod switch;
pub mod sync;
pub mod time;

pub use emp_trace;
pub use engine::{EventClass, EventFn, Sim, SimAccess, SimAccessExt, SimClock, TimerGuard};
pub use error::{NetError, OpResult, SimError, SimResult};
pub use fault::{FaultDecision, FaultPlan, FaultState, XorShift64};
pub use frame::{EtherType, Frame, MacAddr, Payload, MTU};
pub use link::{FrameSink, LinkConfig, LinkTx};
pub use process::{ProcId, ProcessCtx};
pub use readiness::{until_deadline, Event, Interest};
pub use ring::{
    Cqe, CqeResult, RingConfig, RingCore, RingCounters, RingDepths, RingDriver, RingError, RingOp,
    Sqe,
};
pub use stats::{Histogram, LinkStats, RunningStats, Throughput};
pub use switch::{Switch, SwitchConfig, BROADCAST};
pub use sync::{wait_any, Completion, SimCondvar, SimQueue};
pub use time::{SimDuration, SimTime};

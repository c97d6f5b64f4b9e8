//! # emp-bench — figure harnesses
//!
//! Regenerates every figure of the paper's evaluation (§7) from the
//! simulated testbed: [`figures::fig11`] through [`figures::fig17`], plus
//! the §5.2/§6 ablations. The `figures` binary prints the tables and
//! writes JSON.

#![warn(missing_docs)]

pub mod figures;
pub mod raw;
pub mod report;
pub mod stat;

pub use figures::{all_figures, Profile};
pub use report::{figures_json, Figure, Series};

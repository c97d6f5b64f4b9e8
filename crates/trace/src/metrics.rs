//! The counter behind every [`crate::telemetry::Registry`] counter
//! series.

use std::cell::Cell;

/// A monotonically increasing counter, kept on its simulation's thread.
#[derive(Default)]
pub struct Counter {
    v: Cell<u64>,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.set(self.v.get() + n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.get()
    }
}

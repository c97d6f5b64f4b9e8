//! A host: one machine of the simulated cluster.
//!
//! Bundles the pieces every protocol stack needs — identity, cost model,
//! pinned-memory registry and RAM disk. NIC attachment is done by the
//! protocol crates (`tigon-nic` for EMP, `kernel-tcp` for the baseline),
//! which keep their own per-host state keyed by [`Host::id`].

use std::rc::Rc;

use simnet::MacAddr;

use crate::cost::CostModel;
use crate::fs::{FsConfig, RamDisk};
use crate::memory::MemoryRegistry;

/// One machine: identity + cost model + memory + filesystem.
#[derive(Clone)]
pub struct Host {
    inner: Rc<HostInner>,
}

struct HostInner {
    id: MacAddr,
    cost: CostModel,
    /// A `Mutex` only because the repo benchmark locks [`Host::memory`].
    memory: parking_lot::Mutex<MemoryRegistry>,
    fs: RamDisk,
}

impl Host {
    /// Build a host with the given station id and default cost/fs models.
    pub fn new(id: MacAddr) -> Self {
        Self::with_models(id, CostModel::default(), FsConfig::default())
    }

    /// Build a host with explicit models.
    pub fn with_models(id: MacAddr, cost: CostModel, fs_cfg: FsConfig) -> Self {
        Host {
            inner: Rc::new(HostInner {
                id,
                cost,
                memory: parking_lot::Mutex::new(MemoryRegistry::new()),
                fs: RamDisk::new(fs_cfg),
            }),
        }
    }

    /// Station id (MAC / EMP source index).
    pub fn id(&self) -> MacAddr {
        self.inner.id
    }

    /// The host's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    /// The pinned-memory registry (lock to use).
    pub fn memory(&self) -> &parking_lot::Mutex<MemoryRegistry> {
        &self.inner.memory
    }

    /// The host's RAM disk.
    pub fn fs(&self) -> &RamDisk {
        &self.inner.fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::VirtRange;

    #[test]
    fn host_bundles_components() {
        let h = Host::new(MacAddr(3));
        assert_eq!(h.id(), MacAddr(3));
        h.fs().put("f", &b"x"[..]);
        assert!(h.fs().exists("f"));
        let (d1, _) = h
            .memory()
            .lock()
            .register(VirtRange::new(0, 4096), h.cost());
        let (d2, _) = h
            .memory()
            .lock()
            .register(VirtRange::new(0, 4096), h.cost());
        assert!(d1 > d2);
    }

    #[test]
    fn clones_share_state() {
        let h = Host::new(MacAddr(1));
        let h2 = h.clone();
        h.fs().put("shared", &b"y"[..]);
        assert!(h2.fs().exists("shared"));
    }
}

//! Testbed construction: an EMP cluster wired through one switch.
//!
//! Mirrors the paper's experimental setup (§7): hosts with Alteon NICs
//! hanging off a single Gigabit store-and-forward switch.

use std::rc::Rc;
use std::sync::Arc;

use hostsim::Host;
use simnet::{FrameSink, MacAddr, Switch, SwitchConfig};

use crate::config::EmpConfig;
use crate::endpoint::EmpEndpoint;
use crate::nic::EmpNic;

/// One node of the cluster: a host and its EMP NIC.
pub struct EmpNode {
    /// The machine.
    pub host: Host,
    /// Its NIC (already cabled to the switch).
    pub nic: Arc<EmpNic>,
}

impl EmpNode {
    /// An endpoint for a process running on this node.
    pub fn endpoint(&self) -> EmpEndpoint {
        EmpEndpoint::new(self.host.clone(), Rc::clone(self.nic.core()))
    }

    /// Station address.
    pub fn addr(&self) -> MacAddr {
        self.nic.mac()
    }
}

/// A cluster of EMP nodes on one switch.
pub struct EmpCluster {
    /// The switch in the middle.
    pub switch: Switch,
    /// The nodes, addressed `MacAddr(0..n)`.
    pub nodes: Vec<EmpNode>,
}

/// Build `n` nodes attached to a fresh switch. Station `i` gets address
/// `MacAddr(i)` and is statically registered with the switch (no flooding
/// in the measurements).
pub fn build_cluster(n: usize, emp_cfg: EmpConfig, switch_cfg: SwitchConfig) -> EmpCluster {
    let switch = Switch::new(switch_cfg);
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let mac = MacAddr(i as u16);
        let host = Host::new(mac);
        let nic = EmpNic::new(mac, emp_cfg.clone());
        let sink: Rc<dyn FrameSink> = nic.core().clone();
        nic.tigon().attach_link(switch.attach(&sink));
        switch.register_mac(mac, i);
        nodes.push(EmpNode { host, nic });
    }
    EmpCluster { switch, nodes }
}

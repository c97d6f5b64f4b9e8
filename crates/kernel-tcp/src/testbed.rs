//! Testbed construction: a kernel-TCP cluster on one switch.

use std::rc::Rc;
use std::sync::Arc;

use hostsim::Host;
use simnet::{FrameSink, MacAddr, Switch, SwitchConfig};

use crate::api::TcpApi;
use crate::config::TcpConfig;
use crate::stack::TcpStack;

/// One node: host + kernel stack (NIC already cabled).
pub struct TcpNode {
    /// The machine.
    pub host: Host,
    /// Its kernel network stack.
    pub stack: Arc<TcpStack>,
}

impl TcpNode {
    /// A sockets API handle for processes on this node.
    pub fn api(&self) -> TcpApi {
        TcpApi::new(Arc::clone(&self.stack))
    }

    /// Station address.
    pub fn addr(&self) -> MacAddr {
        self.host.id()
    }
}

/// A cluster of kernel-TCP nodes on one switch.
pub struct TcpCluster {
    /// The switch in the middle.
    pub switch: Switch,
    /// Nodes addressed `MacAddr(0..n)`.
    pub nodes: Vec<TcpNode>,
}

/// Build `n` nodes attached to a fresh switch.
pub fn build_tcp_cluster(n: usize, cfg: TcpConfig, switch_cfg: SwitchConfig) -> TcpCluster {
    let switch = Switch::new(switch_cfg);
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let mac = MacAddr(i as u16);
        let host = Host::new(mac);
        let stack = TcpStack::new(host.clone(), cfg.clone());
        let sink: Rc<dyn FrameSink> = Rc::clone(stack.nic()) as Rc<dyn FrameSink>;
        stack.nic().attach_link(switch.attach(&sink));
        switch.register_mac(mac, i);
        nodes.push(TcpNode { host, stack });
    }
    TcpCluster { switch, nodes }
}

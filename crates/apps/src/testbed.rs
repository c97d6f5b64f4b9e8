//! Application testbeds: n-node clusters over either stack, behind the
//! common [`crate::api::NetApi`] facade.

use std::sync::Arc;

use emp_proto::{EmpCluster, EmpConfig};
use hostsim::Host;
use kernel_tcp::{TcpCluster, TcpConfig};
use simnet::SwitchConfig;
use sockets_emp::{EmpSockets, SubstrateConfig};

use crate::api::Api;
use crate::stacks::{EmpNet, KernelNet};

/// Which stack a testbed runs (the variants keep the protocol objects —
/// switch, NICs, stacks — alive for the simulation's lifetime).
#[allow(dead_code)]
enum Backing {
    Emp(EmpCluster),
    Kernel(TcpCluster),
}

/// One application node: the host plus its sockets API.
pub struct AppNode {
    /// The machine (filesystem, cost model).
    pub host: Host,
    /// The sockets interface.
    pub api: Api,
}

/// An n-node cluster ready for application processes.
pub struct Testbed {
    // Keeps the protocol objects (NICs, switch) alive for the run.
    _backing: Backing,
    /// The nodes, addressed `MacAddr(0..n)`.
    pub nodes: Vec<AppNode>,
}

#[allow(clippy::arc_with_non_send_sync)] // the repo benchmark names `Api`, an `Arc`
impl Testbed {
    /// A sockets-over-EMP cluster.
    pub fn emp(n: usize, emp_cfg: EmpConfig, sub_cfg: SubstrateConfig, label: &str) -> Testbed {
        let cluster = emp_proto::build_cluster(n, emp_cfg, SwitchConfig::default());
        let nodes = cluster
            .nodes
            .iter()
            .map(|node| AppNode {
                host: node.host.clone(),
                api: Arc::new(EmpNet::new(
                    EmpSockets::new(node.endpoint(), sub_cfg.clone()),
                    label,
                )),
            })
            .collect();
        Testbed {
            _backing: Backing::Emp(cluster),
            nodes,
        }
    }

    /// A kernel-TCP cluster; `sockbuf` overrides the default 16 KiB socket
    /// buffers (the Figure 13 "increased kernel buffer" configuration).
    pub fn kernel(n: usize, tcp_cfg: TcpConfig, sockbuf: Option<usize>, label: &str) -> Testbed {
        let cluster = kernel_tcp::build_tcp_cluster(n, tcp_cfg, SwitchConfig::default());
        if let Some(bytes) = sockbuf {
            for node in &cluster.nodes {
                node.stack.set_sockbuf(bytes);
            }
        }
        let nodes = cluster
            .nodes
            .iter()
            .map(|node| AppNode {
                host: node.host.clone(),
                api: Arc::new(KernelNet::new(node.api(), label)),
            })
            .collect();
        Testbed {
            _backing: Backing::Kernel(cluster),
            nodes,
        }
    }

    /// What a user gets without choosing: [`SubstrateConfig::default`] —
    /// the paper's best configuration (`DS_DA_UQ`) plus piggy-backed acks
    /// and the adaptive copy policy. The paper's own numbers are measured
    /// on the named presets through [`Testbed::emp`].
    pub fn emp_default(n: usize) -> Testbed {
        Testbed::emp(
            n,
            EmpConfig::default(),
            SubstrateConfig::default(),
            "emp-default",
        )
    }

    /// Default kernel testbed (16 KiB socket buffers).
    pub fn kernel_default(n: usize) -> Testbed {
        Testbed::kernel(n, TcpConfig::default(), None, "tcp-16k")
    }

    /// The EMP cluster behind this testbed, if any (NIC stats).
    pub fn emp_cluster(&self) -> Option<&EmpCluster> {
        match &self._backing {
            Backing::Emp(c) => Some(c),
            Backing::Kernel(_) => None,
        }
    }
}

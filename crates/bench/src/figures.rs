//! One generator per figure of the paper's evaluation (§7). Each returns a
//! [`Figure`] with the same series the paper plots; the `figures` binary
//! prints them.

use emp_apps::{
    bandwidth, ftp, kvstore, matmul, overload, pingpong, webserver, StormConfig, Testbed,
};
use emp_proto::EmpConfig;
use kernel_tcp::TcpConfig;
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{Sim, SimAccess, SimDuration};
use sockets_emp::{RecvMode, SubstrateConfig};

use crate::raw;
use crate::report::{parallel_sweep, Figure};

/// Sweep resolution: `quick` trims the point count for smoke runs;
/// `full` reproduces every plotted point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Few points, few iterations (CI).
    Quick,
    /// The full sweeps.
    Full,
}

impl Profile {
    fn latency_sizes(self) -> &'static [usize] {
        match self {
            Profile::Quick => &[4, 256, 4096],
            Profile::Full => &[4, 16, 64, 256, 1024, 4096],
        }
    }

    fn iters(self) -> u32 {
        match self {
            Profile::Quick => 20,
            Profile::Full => 60,
        }
    }
}

fn emp_tb(cfg: SubstrateConfig, label: &str, n: usize) -> Testbed {
    Testbed::emp(n, EmpConfig::default(), cfg, label)
}

fn tcp_tb(n: usize, sockbuf: Option<usize>, label: &str) -> Testbed {
    Testbed::kernel(n, TcpConfig::default(), sockbuf, label)
}

fn latency_sweep(
    cfg: SubstrateConfig,
    label: &str,
    sizes: &[usize],
    iters: u32,
) -> Vec<(f64, f64)> {
    parallel_sweep(sizes, |&size| {
        let sim = Sim::new();
        let tb = emp_tb(cfg.clone(), label, 2);
        (
            size as f64,
            pingpong::one_way_latency_us(&sim, &tb, size, iters),
        )
    })
}

/// Figure 11: small-message latency of the substrate variants (DS, DS_DA,
/// DS_DA_UQ, DG) against raw EMP.
pub fn fig11(profile: Profile) -> Figure {
    let sizes = profile.latency_sizes();
    let iters = profile.iters();
    let mut fig = Figure::new(
        "fig11",
        "Micro-Benchmarks: Latency (substrate variants vs raw EMP)",
        "msg bytes",
        "one-way us",
    );
    fig.push(
        "DS",
        latency_sweep(SubstrateConfig::ds(), "ds", sizes, iters),
    );
    fig.push(
        "DS_DA",
        latency_sweep(SubstrateConfig::ds_da(), "ds-da", sizes, iters),
    );
    fig.push(
        "DS_DA_UQ",
        latency_sweep(SubstrateConfig::ds_da_uq(), "ds-da-uq", sizes, iters),
    );
    fig.push(
        "DG",
        latency_sweep(SubstrateConfig::dg(), "dg", sizes, iters),
    );
    fig.push(
        "EMP",
        parallel_sweep(sizes, |&size| {
            (size as f64, raw::emp_latency_us(size, iters))
        }),
    );
    fig
}

/// Figure 12: 4-byte latency against credit size, with and without
/// delayed acknowledgments.
pub fn fig12(profile: Profile) -> Figure {
    let credits: &[u32] = match profile {
        Profile::Quick => &[1, 4, 32],
        Profile::Full => &[1, 2, 4, 8, 16, 32],
    };
    let iters = profile.iters();
    let mut fig = Figure::new(
        "fig12",
        "Latency variation for Delayed Acknowledgments with Credit Size",
        "credits",
        "one-way us (4-byte msgs)",
    );
    for (label, delayed) in [("DS", false), ("DS_DA", true)] {
        let pts = parallel_sweep(credits, |&n| {
            let cfg = if delayed {
                SubstrateConfig::ds_da().with_credits(n)
            } else {
                SubstrateConfig::ds().with_credits(n)
            };
            let sim = Sim::new();
            let tb = emp_tb(cfg, label, 2);
            (
                f64::from(n),
                pingpong::one_way_latency_us(&sim, &tb, 4, iters),
            )
        });
        fig.push(label, pts);
    }
    fig
}

/// Figure 13 (left): latency of the substrate vs TCP.
pub fn fig13_latency(profile: Profile) -> Figure {
    let sizes = profile.latency_sizes();
    let iters = profile.iters();
    let mut fig = Figure::new(
        "fig13a",
        "Micro-Benchmarks: Latency (substrate vs TCP)",
        "msg bytes",
        "one-way us",
    );
    fig.push(
        "Datagram",
        latency_sweep(SubstrateConfig::dg(), "dg", sizes, iters),
    );
    fig.push(
        "DataStream",
        latency_sweep(SubstrateConfig::ds_da_uq(), "ds", sizes, iters),
    );
    fig.push(
        "EMP",
        parallel_sweep(sizes, |&size| {
            (size as f64, raw::emp_latency_us(size, iters))
        }),
    );
    for (label, buf) in [("TCP-16K", None), ("TCP-256K", Some(256 * 1024))] {
        let pts = parallel_sweep(sizes, |&size| {
            let sim = Sim::new();
            let tb = tcp_tb(2, buf, label);
            (
                size as f64,
                pingpong::one_way_latency_us(&sim, &tb, size, iters),
            )
        });
        fig.push(label, pts);
    }
    fig
}

/// Figure 13 (right): bandwidth of the substrate vs TCP (default and
/// enlarged kernel buffers).
pub fn fig13_bandwidth(profile: Profile) -> Figure {
    let sizes: &[usize] = match profile {
        Profile::Quick => &[4096, 65536],
        Profile::Full => &[1024, 4096, 16384, 65536, 262_144],
    };
    let total = match profile {
        Profile::Quick => 2 << 20,
        Profile::Full => 8 << 20,
    };
    let mut fig = Figure::new(
        "fig13b",
        "Micro-Benchmarks: Bandwidth (substrate vs TCP)",
        "msg bytes",
        "Mbps",
    );
    fig.push(
        "DataStream",
        parallel_sweep(sizes, |&size| {
            let sim = Sim::new();
            let tb = emp_tb(SubstrateConfig::ds_da_uq(), "ds", 2);
            (
                size as f64,
                bandwidth::throughput_mbps(&sim, &tb, size, total),
            )
        }),
    );
    fig.push(
        "Datagram",
        parallel_sweep(sizes, |&size| {
            let sim = Sim::new();
            let tb = emp_tb(SubstrateConfig::dg(), "dg", 2);
            (
                size as f64,
                bandwidth::throughput_mbps(&sim, &tb, size, total),
            )
        }),
    );
    fig.push(
        "EMP",
        parallel_sweep(sizes, |&size| {
            (size as f64, raw::emp_bandwidth_mbps(size, total))
        }),
    );
    for (label, buf) in [("TCP-16K", None), ("TCP-256K", Some(256 * 1024))] {
        let pts = parallel_sweep(sizes, |&size| {
            let sim = Sim::new();
            let tb = tcp_tb(2, buf, label);
            (
                size as f64,
                bandwidth::throughput_mbps(&sim, &tb, size, total),
            )
        });
        fig.push(label, pts);
    }
    fig
}

/// Figure 14: ftp bandwidth over RAM disks.
pub fn fig14(profile: Profile) -> Figure {
    let sizes: &[usize] = match profile {
        Profile::Quick => &[1 << 20, 4 << 20],
        Profile::Full => &[256 << 10, 1 << 20, 4 << 20, 16 << 20],
    };
    let mut fig = Figure::new(
        "fig14",
        "FTP Performance (RAM disk to RAM disk)",
        "file bytes",
        "Mbps",
    );
    fig.push(
        "DataStream",
        parallel_sweep(sizes, |&size| {
            let tb = emp_tb(SubstrateConfig::ds_da_uq(), "ds", 2);
            (size as f64, ftp::transfer_mbps(&tb, size))
        }),
    );
    fig.push(
        "Datagram",
        parallel_sweep(sizes, |&size| {
            let tb = emp_tb(SubstrateConfig::dg(), "dg", 2);
            (size as f64, ftp::transfer_mbps(&tb, size))
        }),
    );
    fig.push(
        "TCP",
        parallel_sweep(sizes, |&size| {
            let tb = tcp_tb(2, None, "tcp");
            (size as f64, ftp::transfer_mbps(&tb, size))
        }),
    );
    fig
}

fn webserver_fig(
    id: &str,
    title: &str,
    version: webserver::HttpVersion,
    profile: Profile,
) -> Figure {
    let sizes: &[usize] = match profile {
        Profile::Quick => &[4, 1024, 8192],
        Profile::Full => &[4, 64, 256, 1024, 4096, 8192],
    };
    let reqs: u32 = match profile {
        Profile::Quick => 8,
        Profile::Full => 24,
    };
    let mut fig = Figure::new(id, title, "response bytes", "avg response us");
    fig.push(
        "Substrate",
        parallel_sweep(sizes, |&size| {
            // §7.4: credit size 4 for the web server.
            let tb = emp_tb(SubstrateConfig::ds_da_uq().with_credits(4), "emp-c4", 4);
            (size as f64, webserver::run_once(&tb, version, size, reqs))
        }),
    );
    fig.push(
        "TCP",
        parallel_sweep(sizes, |&size| {
            let tb = tcp_tb(4, None, "tcp");
            (size as f64, webserver::run_once(&tb, version, size, reqs))
        }),
    );
    fig
}

/// Figure 15: web server average response time, HTTP/1.0.
pub fn fig15(profile: Profile) -> Figure {
    webserver_fig(
        "fig15",
        "Web Server Average Response Time (HTTP/1.0)",
        webserver::HttpVersion::Http10,
        profile,
    )
}

/// Figure 16: web server average response time, HTTP/1.1.
pub fn fig16(profile: Profile) -> Figure {
    webserver_fig(
        "fig16",
        "Web Server Average Response Time (HTTP/1.1)",
        webserver::HttpVersion::Http11,
        profile,
    )
}

/// Figure 17: distributed matrix multiplication on 4 nodes.
pub fn fig17(profile: Profile) -> Figure {
    let ns: &[usize] = match profile {
        Profile::Quick => &[48, 96],
        Profile::Full => &[48, 96, 192, 384],
    };
    let mut fig = Figure::new(
        "fig17",
        "Matrix Multiplication Performance (4 nodes)",
        "matrix n",
        "elapsed ms",
    );
    fig.push(
        "Substrate",
        parallel_sweep(ns, |&n| {
            let sim = Sim::new();
            let tb = emp_tb(SubstrateConfig::ds_da_uq(), "emp", 4);
            let (us, _) = matmul::run(&sim, &tb, n);
            (n as f64, us / 1000.0)
        }),
    );
    fig.push(
        "TCP",
        parallel_sweep(ns, |&n| {
            let sim = Sim::new();
            let tb = tcp_tb(4, None, "tcp");
            let (us, _) = matmul::run(&sim, &tb, n);
            (n as f64, us / 1000.0)
        }),
    );
    fig
}

/// The §5.2 ablation: the rejected separate-communication-thread designs
/// against the adopted direct one, on the 4-byte latency test.
pub fn ablation_commthread(profile: Profile) -> Figure {
    let iters = match profile {
        Profile::Quick => 8,
        Profile::Full => 20,
    };
    let mut fig = Figure::new(
        "ablation-commthread",
        "§5.2 alternatives: receive-path driver vs 4-byte latency",
        "variant (0=direct, 1=polling thread, 2=blocking thread)",
        "one-way us",
    );
    let variants = [
        (0.0, RecvMode::Direct),
        (1.0, RecvMode::CommThreadPolling),
        (2.0, RecvMode::CommThreadBlocking),
    ];
    let pts = parallel_sweep(&variants, |&(x, mode)| {
        let mut cfg = SubstrateConfig::ds_da_uq();
        cfg.recv_mode = mode;
        let sim = Sim::new();
        let tb = emp_tb(cfg, "ablation", 2);
        (x, pingpong::one_way_latency_us(&sim, &tb, 4, iters))
    });
    fig.push("DS_DA_UQ", pts);
    fig
}

/// Ablation: piggy-backed credit returns on vs off (4-byte latency and
/// flow-control-ack message count in a one-way stream).
pub fn ablation_piggyback(profile: Profile) -> Figure {
    let iters = profile.iters();
    let mut fig = Figure::new(
        "ablation-piggyback",
        "§6.1 piggy-back acks: latency with and without",
        "piggyback (0=off, 1=on)",
        "one-way us (4-byte msgs)",
    );
    let variants = [(0.0, false), (1.0, true)];
    let pts = parallel_sweep(&variants, |&(x, on)| {
        let mut cfg = SubstrateConfig::ds_da_uq().with_credits(4);
        cfg.piggyback_acks = on;
        let sim = Sim::new();
        let tb = emp_tb(cfg, "ablation", 2);
        (x, pingpong::one_way_latency_us(&sim, &tb, 4, iters))
    });
    fig.push("DS_DA_UQ", pts);
    fig
}

/// The §8 future-work experiment: a data-center key-value service
/// (persistent connections, small read-mostly operations) over both
/// stacks — per-operation latency against value size.
pub fn datacenter_kv(profile: Profile) -> Figure {
    let sizes: &[usize] = match profile {
        Profile::Quick => &[64, 4096],
        Profile::Full => &[64, 512, 4096, 16384],
    };
    let ops = match profile {
        Profile::Quick => 60,
        Profile::Full => 200,
    };
    let mut fig = Figure::new(
        "datacenter-kv",
        "Key-value service (3 clients, 90% GET) — §8 future work",
        "value bytes",
        "mean op us",
    );
    fig.push(
        "Substrate",
        parallel_sweep(sizes, |&size| {
            let r = kvstore::run_workload(&Testbed::emp_default(4), 3, ops, size, 0.9, 11);
            (size as f64, r.mean_op_us)
        }),
    );
    fig.push(
        "TCP",
        parallel_sweep(sizes, |&size| {
            let r = kvstore::run_workload(&Testbed::kernel_default(4), 3, ops, size, 0.9, 11);
            (size as f64, r.mean_op_us)
        }),
    );
    fig
}

/// Multi-connection scaling: aggregate request throughput against the
/// number of concurrent persistent connections, for the single-process
/// event-loop server (the readiness layer's `poll()` + nonblocking
/// calls), the completion-ring server (submitted ops over registered
/// buffers), the async/await server (straight-line handlers on one
/// deterministic executor), and the process-per-connection server, over
/// both stacks.
pub fn event_loop_concurrency(profile: Profile) -> Figure {
    let conns: &[u32] = match profile {
        Profile::Quick => &[4, 16, 32],
        Profile::Full => &[4, 8, 16, 32, 64],
    };
    let reqs_per_conn: u32 = match profile {
        Profile::Quick => 4,
        Profile::Full => 8,
    };
    let response = 1024usize;
    let mut fig = Figure::new(
        "event-loop-concurrency",
        "Concurrent connections vs throughput: readiness event loop vs \
         completion ring vs async/await vs process-per-connection",
        "connections",
        "reqs/s",
    );
    let models = [
        webserver::ServerModel::EventLoop,
        webserver::ServerModel::Completion,
        webserver::ServerModel::Async,
        webserver::ServerModel::PerConnection,
    ];
    for model in models {
        let pts = parallel_sweep(conns, |&n| {
            let tb = emp_tb(SubstrateConfig::ds_da_uq().with_credits(4), "emp-c4", 5);
            let r = webserver::concurrent_throughput(&tb, model, n, reqs_per_conn, response);
            (f64::from(n), r.reqs_per_sec)
        });
        fig.push(format!("Substrate {}", model.label()), pts);
    }
    for model in models {
        let pts = parallel_sweep(conns, |&n| {
            let tb = tcp_tb(5, None, "tcp");
            let r = webserver::concurrent_throughput(&tb, model, n, reqs_per_conn, response);
            (f64::from(n), r.reqs_per_sec)
        });
        fig.push(format!("TCP {}", model.label()), pts);
    }
    fig
}

/// Fairness and tail latency of the concurrency models: per-request p50
/// and p99 against connection count on the substrate, for the async
/// executor, the event loop, and process-per-connection. The aggregate
/// throughput curves above can hide a server that serves connections
/// unevenly; the p99/p50 gap here is where a scheduling model that lets
/// one handler hog its turn would show up (the Jain fairness index per
/// run is asserted in the apps tests).
pub fn concurrency_fairness(profile: Profile) -> Figure {
    let conns: &[u32] = match profile {
        Profile::Quick => &[8, 32],
        Profile::Full => &[8, 16, 32, 64],
    };
    let reqs_per_conn: u32 = match profile {
        Profile::Quick => 4,
        Profile::Full => 8,
    };
    let response = 1024usize;
    let mut fig = Figure::new(
        "concurrency-fairness",
        "Request latency under concurrency: async vs event loop vs \
         process-per-connection (substrate, per-request percentiles)",
        "connections",
        "request us",
    );
    let models = [
        webserver::ServerModel::Async,
        webserver::ServerModel::EventLoop,
        webserver::ServerModel::PerConnection,
    ];
    for model in models {
        let pts = parallel_sweep(conns, |&n| {
            let tb = emp_tb(SubstrateConfig::ds_da_uq().with_credits(4), "emp-c4", 5);
            let r = webserver::concurrent_latency(&tb, model, n, reqs_per_conn, response);
            (f64::from(n), r.p50_us)
        });
        fig.push(format!("{} p50", model.label()), pts);
    }
    for model in models {
        let pts = parallel_sweep(conns, |&n| {
            let tb = emp_tb(SubstrateConfig::ds_da_uq().with_credits(4), "emp-c4", 5);
            let r = webserver::concurrent_latency(&tb, model, n, reqs_per_conn, response);
            (f64::from(n), r.p99_us)
        });
        fig.push(format!("{} p99", model.label()), pts);
    }
    fig
}

/// Connection-setup comparison (§7.4's quoted numbers): how long
/// `connect()` blocks the caller, and how long until `accept()` holds
/// the connection.
pub fn connect_time(profile: Profile) -> Figure {
    let iters = match profile {
        Profile::Quick => 8,
        Profile::Full => 24,
    };
    let mut fig = Figure::new(
        "connect-time",
        "Connection setup: substrate vs kernel TCP (§7.4)",
        "stack (0=TCP, 1=substrate c4)",
        "us",
    );
    let sim = Sim::new();
    let tb = tcp_tb(2, None, "tcp");
    let (tcp_blocked, tcp_est) = pingpong::connect_times_us(&sim, &tb, iters);
    let sim = Sim::new();
    let tb = emp_tb(SubstrateConfig::ds_da_uq().with_credits(4), "emp-c4", 2);
    let (emp_blocked, emp_est) = pingpong::connect_times_us(&sim, &tb, iters);
    fig.push(
        "connect() blocks",
        vec![(0.0, tcp_blocked), (1.0, emp_blocked)],
    );
    fig.push("established", vec![(0.0, tcp_est), (1.0, emp_est)]);
    fig
}

/// The IPDPS'02 companion ablation: EMP on a single-firmware-CPU NIC vs
/// the Tigon2's two. One CPU serializes the transmit and receive paths,
/// which mostly costs bandwidth (both directions' per-frame work lands
/// on the same resource).
pub fn ablation_nic_cpus(profile: Profile) -> Figure {
    let total = match profile {
        Profile::Quick => 2 << 20,
        Profile::Full => 8 << 20,
    };
    let mut fig = Figure::new(
        "ablation-nic-cpus",
        "Single vs dual firmware CPU (IPDPS'02 companion question)",
        "firmware CPUs",
        "stream bandwidth Mbps",
    );
    let variants = [(1.0f64, true), (2.0, false)];
    for (label, bidirectional) in [("one-way", false), ("bidirectional", true)] {
        let pts = parallel_sweep(&variants, |&(x, single)| {
            let mut emp_cfg = EmpConfig::default();
            emp_cfg.nic.single_cpu = single;
            let sim = Sim::new();
            let tb = Testbed::emp(2, emp_cfg, SubstrateConfig::ds_da_uq(), "nic-cpus");
            let mbps = if bidirectional {
                bandwidth::bidirectional_mbps(&sim, &tb, 64 * 1024, total)
            } else {
                bandwidth::throughput_mbps(&sim, &tb, 64 * 1024, total)
            };
            (x, mbps)
        });
        fig.push(label, pts);
    }
    fig
}

/// Host-CPU-consumption experiment (the §2 claim: "This gives maximum
/// benefit to the host in terms of not just bandwidth and latency but
/// also CPU utilization"): kernel/stack CPU milliseconds consumed across
/// both hosts while moving a fixed volume, per stack. The substrate's
/// entry is zero by construction — the whole protocol lives on the NIC
/// and in user space, so no kernel resource is ever charged.
pub fn cpu_utilization(profile: Profile) -> Figure {
    let total = match profile {
        Profile::Quick => 2 << 20,
        Profile::Full => 8 << 20,
    };
    let mut fig = Figure::new(
        "cpu-utilization",
        "Host kernel/stack CPU time per bulk transfer (§2 claim)",
        "stack (0=TCP, 1=substrate)",
        "kernel CPU ms",
    );
    // Kernel TCP, built directly so the kernel resource is introspectable.
    let tcp_cluster =
        kernel_tcp::build_tcp_cluster(2, TcpConfig::default(), simnet::SwitchConfig::default());
    for node in &tcp_cluster.nodes {
        node.stack.set_sockbuf(256 * 1024);
    }
    let sim = Sim::new();
    run_tcp_bulk(&sim, &tcp_cluster, total);
    let tcp_busy_ms: f64 = tcp_cluster
        .nodes
        .iter()
        .map(|n| n.stack.kernel_cpu_busy().as_millis_f64())
        .sum();
    // Substrate: run the same volume to confirm completion, then report
    // its (structurally zero) kernel time.
    let sim = Sim::new();
    let tb = emp_tb(SubstrateConfig::ds_da_uq(), "emp", 2);
    bandwidth::throughput_mbps(&sim, &tb, 64 * 1024, total);
    let emp_busy_ms = 0.0;
    fig.push("kernel CPU", vec![(0.0, tcp_busy_ms), (1.0, emp_busy_ms)]);
    fig
}

/// Drive one bulk transfer over a raw kernel cluster (introspectable,
/// unlike the adapter-wrapped testbed).
fn run_tcp_bulk(sim: &Sim, cluster: &kernel_tcp::TcpCluster, total: usize) {
    use kernel_tcp::SockAddr;
    let api_s = cluster.nodes[1].api();
    let api_c = cluster.nodes[0].api();
    let addr = SockAddr::new(cluster.nodes[1].addr(), 9);
    sim.spawn("cpu-sink", move |ctx| {
        let l = api_s.listen(ctx, 9, 4)?.expect("port");
        let c = l.accept(ctx)?.expect("conn");
        let mut got = 0;
        while got < total {
            let d = c.read(ctx, 64 * 1024)?.expect("data");
            if d.is_empty() {
                break;
            }
            got += d.len();
        }
        Ok(())
    });
    sim.spawn("cpu-source", move |ctx| {
        let c = api_c.connect(ctx, addr)?.expect("connect");
        let buf = vec![0u8; 64 * 1024];
        let mut sent = 0;
        while sent < total {
            c.write(ctx, &buf)?.expect("write");
            sent += buf.len();
        }
        c.close(ctx)?;
        Ok(())
    });
    sim.run();
}

/// One point of the small-write sweep: goodput on the paper's preset and
/// on the default configuration (plus kernel TCP for scale) and the
/// substrate message counts that explain the gap. `ci.sh` asserts on the
/// counters; the figure plots the Mbps columns.
pub struct SmallMsgPoint {
    /// Application write size in bytes.
    pub size: usize,
    /// Goodput, `SubstrateConfig::ds_da_uq()`.
    pub mbps_paper: f64,
    /// Goodput, `SubstrateConfig::default()`.
    pub mbps_default: f64,
    /// Goodput, kernel TCP (256K socket buffers).
    pub mbps_tcp: f64,
    /// Substrate data messages sent, `ds_da_uq()`.
    pub msgs_paper: u64,
    /// Substrate data messages sent, `default()`.
    pub msgs_default: u64,
    /// Goodput at each cell of the copy-policy constants grid, in
    /// [`policy_grid`] order.
    pub mbps_grid: Vec<f64>,
}

/// The copy-policy constants the committed sweep walks (EXPERIMENTS.md,
/// "copy policy constants"): stage-below x staging capacity.
pub fn policy_grid(profile: Profile) -> Vec<(usize, usize)> {
    let send_copy = SubstrateConfig::default().send_copy_threshold;
    let (below, caps): (&[usize], &[usize]) = match profile {
        Profile::Quick => (&[send_copy], &[8 << 10, 64 << 10]),
        Profile::Full => (
            &[256, 1024, 4096, send_copy],
            &[8 << 10, 16 << 10, 64 << 10],
        ),
    };
    let cells = below
        .iter()
        .flat_map(|&b| caps.iter().map(move |&c| (b, c)));
    cells.collect()
}

/// The default configuration with other copy-policy constants.
fn policy_cfg(stage_below: usize, stage_capacity: usize) -> SubstrateConfig {
    let mut cfg = SubstrateConfig::default();
    cfg.copy_policy.stage_below = stage_below;
    cfg.copy_policy.stage_capacity = stage_capacity;
    cfg
}

fn grid_label(stage_below: usize, capacity: usize) -> String {
    format!("s{stage_below}/c{}K", capacity >> 10)
}

/// Run the small-message bandwidth sweep behind
/// [`small_message_throughput`], returning the per-point counters too.
/// The full profile ends with two write sizes above `send_copy_threshold`,
/// where the default sends a zero-copy head and a copied tail it does not
/// wait for, and the preset one zero-copy write it waits out.
pub fn small_message_sweep(profile: Profile) -> Vec<SmallMsgPoint> {
    let sizes: &[usize] = match profile {
        Profile::Quick => &[64, 256],
        Profile::Full => &[16, 64, 256, 1024, 4096, 16 << 10, 64 << 10, 256 << 10],
    };
    let floor: usize = match profile {
        Profile::Quick => 64 * 1024,
        Profile::Full => 1 << 20,
    };
    let grid = policy_grid(profile);
    parallel_sweep(sizes, |&size| {
        // Enough writes at every size for the pipeline to fill.
        let total = floor.max(size * 64);
        let run = |cfg: SubstrateConfig, label: &str| {
            let sim = Sim::new();
            let tb = emp_tb(cfg, label, 2);
            bandwidth::throughput_with_stats(&sim, &tb, size, total)
        };
        let (mbps_paper, st_paper) = run(SubstrateConfig::ds_da_uq(), "ds-da-uq");
        let (mbps_default, st_default) = run(SubstrateConfig::default(), "default");
        let sim = Sim::new();
        let tb = tcp_tb(2, Some(256 * 1024), "tcp-256k");
        let mbps_tcp = bandwidth::throughput_mbps(&sim, &tb, size, total);
        let mbps_grid = grid
            .iter()
            .map(|&(below, cap)| run(policy_cfg(below, cap), "policy-grid").0)
            .collect();
        SmallMsgPoint {
            size,
            mbps_paper,
            mbps_default,
            mbps_tcp,
            msgs_paper: st_paper.msgs_sent,
            msgs_default: st_default.msgs_sent,
            mbps_grid,
        }
    })
}

/// Shape a finished sweep into the plotted figure.
pub fn small_message_figure(points: &[SmallMsgPoint], profile: Profile) -> Figure {
    let mut fig = Figure::new(
        "small-message-throughput",
        "Small-message bandwidth: default vs the paper's preset vs TCP, and the copy-policy grid",
        "msg bytes",
        "Mbps",
    );
    let series = |y: &dyn Fn(&SmallMsgPoint) -> f64| -> Vec<(f64, f64)> {
        points.iter().map(|p| (p.size as f64, y(p))).collect()
    };
    fig.push("DS_DA_UQ", series(&|p| p.mbps_paper));
    fig.push("default", series(&|p| p.mbps_default));
    fig.push("TCP 256K", series(&|p| p.mbps_tcp));
    for (i, (below, cap)) in policy_grid(profile).into_iter().enumerate() {
        fig.push(grid_label(below, cap), series(&|p| p.mbps_grid[i]));
    }
    fig
}

/// Small-message bandwidth on the paper's preset, on the default, and
/// across the copy-policy constants grid.
pub fn small_message_throughput(profile: Profile) -> Figure {
    small_message_figure(&small_message_sweep(profile), profile)
}

/// One point of the posted-reader sweep: ping-pong latency on the paper's
/// preset and on the default, plus the delivery counters. The ping-pong
/// reader is always parked in `read()` when its message lands, so under
/// the default every in-sequence delivery should bypass the §6.2
/// temp-buffer copy. The point also carries the request/response shape
/// the benchmark lacks: write-write-read with a body of this size.
pub struct CopyAvoidPoint {
    /// Message size in bytes.
    pub size: usize,
    /// One-way latency, `SubstrateConfig::ds_da_uq()` (µs).
    pub us_paper: f64,
    /// One-way latency, `SubstrateConfig::default()` (µs).
    pub us_default: f64,
    /// Temp-buffer copies skipped (both ends summed), default.
    pub copies_avoided: u64,
    /// Bytes delivered straight into posted reader buffers, default.
    pub bytes_direct: u64,
    /// Total bytes received (both ends summed), default.
    pub bytes_received: u64,
    /// Write-write-read round trip (µs): `ds_da_uq()` first, then the
    /// default with each stage-below of [`policy_grid`].
    pub wwr_us: Vec<f64>,
}

/// Everything the `copy-avoidance` entry measures.
pub struct CopyAvoidSweep {
    /// One point per message size.
    pub points: Vec<CopyAvoidPoint>,
    /// The sparse one-way sender ([`sparse_sender_us`]; it has one size,
    /// 64 B): `ds_da_uq()`, then `default()`.
    pub sparse_us: [f64; 2],
}

/// The stage-below values of [`policy_grid`], each once.
fn stage_belows(profile: Profile) -> Vec<usize> {
    let mut v: Vec<usize> = policy_grid(profile).into_iter().map(|c| c.0).collect();
    v.dedup();
    v
}

/// Run the posted-reader ping-pong sweep behind [`copy_avoidance`], with
/// the two request shapes.
pub fn copy_avoidance_sweep(profile: Profile) -> CopyAvoidSweep {
    let sizes = profile.latency_sizes();
    let iters = profile.iters();
    let belows = stage_belows(profile);
    let sparse = |cfg| sparse_sender_us(&emp_tb(cfg, "sparse", 2), iters * 2);
    let sparse_us = [
        sparse(SubstrateConfig::ds_da_uq()),
        sparse(SubstrateConfig::default()),
    ];
    let points = parallel_sweep(sizes, |&size| {
        let run = |cfg: SubstrateConfig, label: &str| {
            let sim = Sim::new();
            let tb = emp_tb(cfg, label, 2);
            pingpong::pingpong_with_stats(&sim, &tb, size, iters)
        };
        let (us_paper, _) = run(SubstrateConfig::ds_da_uq(), "ds-da-uq");
        let (us_default, st) = run(SubstrateConfig::default(), "default");
        let wwr = |cfg: SubstrateConfig| write_write_read_us(&emp_tb(cfg, "wwr", 2), size, iters);
        let mut wwr_us = vec![wwr(SubstrateConfig::ds_da_uq())];
        wwr_us.extend(belows.iter().map(|&b| wwr(policy_cfg(b, 64 << 10))));
        CopyAvoidPoint {
            size,
            us_paper,
            us_default,
            copies_avoided: st.copies_avoided,
            bytes_direct: st.bytes_direct,
            bytes_received: st.bytes_received,
            wwr_us,
        }
    });
    CopyAvoidSweep { points, sparse_us }
}

/// Header size of the write-write-read shape.
const WWR_HEADER: usize = 16;
/// Reply size of the write-write-read shape.
const WWR_REPLY: usize = 64;

/// Write-write-read: a 16 B header and a `body`-byte body as two writes,
/// then wait for a 64 B reply — the request shape of every framed
/// protocol, and the one a send-at-once rule for idle connections loses
/// on. Returns the mean round trip in µs.
pub fn write_write_read_us(tb: &Testbed, body: usize, iters: u32) -> f64 {
    const PORT: u16 = 79;
    let sim = Sim::new();
    let out = Arc::new(Mutex::new(f64::NAN));
    let out2 = Arc::clone(&out);
    let server = Arc::clone(&tb.nodes[1].api);
    let client = Arc::clone(&tb.nodes[0].api);
    let host = server.local_host();
    sim.spawn("wwr-server", move |ctx| {
        let l = server.listen(ctx, PORT, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        while let Some(_req) = conn.read_exact(ctx, WWR_HEADER + body)?.expect("request") {
            conn.write(ctx, &[0x52; WWR_REPLY])?.expect("reply");
        }
        conn.close(ctx)?;
        l.close(ctx)
    });
    sim.spawn("wwr-client", move |ctx| {
        let conn = client.connect(ctx, host, PORT)?.expect("connect");
        let (header, payload) = ([0x48u8; WWR_HEADER], vec![0x42u8; body]);
        let mut t0 = ctx.now();
        // Four warm-up exchanges (set-up, buffer registration), then timed.
        for i in 0..iters + 4 {
            if i == 4 {
                t0 = ctx.now();
            }
            conn.write(ctx, &header)?.expect("header");
            conn.write(ctx, &payload)?.expect("body");
            conn.read_exact(ctx, WWR_REPLY)?
                .expect("reply")
                .expect("reply");
        }
        *out2.lock() = ((ctx.now() - t0) / u64::from(iters)).as_micros_f64();
        conn.close(ctx)
    });
    sim.run();
    let us = *out.lock();
    assert!(us.is_finite(), "write-write-read did not complete");
    us
}

/// The sparse one-way sender: one 64 B write every 100 µs into a reader
/// parked in `read()`. Returns the mean time from the write call to the
/// reader holding the bytes, in µs — a default that adds its full staging
/// deadline to every such message does not win here.
pub fn sparse_sender_us(tb: &Testbed, writes: u32) -> f64 {
    const PORT: u16 = 76;
    const MSG: usize = 64;
    let sim = Sim::new();
    let sent = Arc::new(Mutex::new(Vec::new()));
    let sent2 = Arc::clone(&sent);
    let total_ns = Arc::new(Mutex::new(0u64));
    let total_ns2 = Arc::clone(&total_ns);
    let server = Arc::clone(&tb.nodes[1].api);
    let client = Arc::clone(&tb.nodes[0].api);
    let host = server.local_host();
    sim.spawn("sparse-reader", move |ctx| {
        let l = server.listen(ctx, PORT, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        for i in 0..writes as usize {
            conn.read_exact(ctx, MSG)?.expect("read").expect("message");
            let written = sent2.lock()[i];
            *total_ns2.lock() += (ctx.now() - written).nanos();
        }
        conn.close(ctx)?;
        l.close(ctx)
    });
    sim.spawn("sparse-writer", move |ctx| {
        let conn = client.connect(ctx, host, PORT)?.expect("connect");
        // Let the connection establish: the first write is not sparse.
        ctx.delay(SimDuration::from_millis(1))?;
        for _ in 0..writes {
            sent.lock().push(ctx.now());
            conn.write(ctx, &[0x53; MSG])?.expect("write");
            ctx.delay(SimDuration::from_micros(100))?;
        }
        conn.close(ctx)
    });
    sim.run();
    let ns = *total_ns.lock();
    ns as f64 / f64::from(writes) / 1e3
}

/// Shape a finished sweep into the plotted figure (the sparse sender at
/// its one size, x = 64).
pub fn copy_avoidance_figure(sweep: &CopyAvoidSweep, profile: Profile) -> Figure {
    let points = &sweep.points;
    let mut fig = Figure::new(
        "copy-avoidance",
        "Posted-reader direct delivery, and two request shapes: latency and share of bytes copied",
        "msg bytes",
        "one-way us (copied %, round-trip and delivery us on the right series)",
    );
    let series = |y: &dyn Fn(&CopyAvoidPoint) -> f64| -> Vec<(f64, f64)> {
        points.iter().map(|p| (p.size as f64, y(p))).collect()
    };
    fig.push("DS_DA_UQ", series(&|p| p.us_paper));
    fig.push("default", series(&|p| p.us_default));
    fig.push(
        "copied %",
        series(&|p| {
            let copied = p.bytes_received.saturating_sub(p.bytes_direct) as f64;
            if p.bytes_received == 0 {
                0.0
            } else {
                copied / p.bytes_received as f64 * 100.0
            }
        }),
    );
    fig.push("wwr paper", series(&|p| p.wwr_us[0]));
    for (i, below) in stage_belows(profile).into_iter().enumerate() {
        fig.push(format!("wwr s{below}"), series(&|p| p.wwr_us[i + 1]));
    }
    fig.push("sparse paper", vec![(64.0, sweep.sparse_us[0])]);
    fig.push("sparse dflt", vec![(64.0, sweep.sparse_us[1])]);
    fig
}

/// Ping-pong latency and copy share on the paper's preset and the
/// default, with the write-write-read and sparse-sender shapes.
pub fn copy_avoidance(profile: Profile) -> Figure {
    copy_avoidance_figure(&copy_avoidance_sweep(profile), profile)
}

/// Inter-arrival gap (µs) at the storm server's saturation point: the
/// offered-load axis of [`overload_degradation`] is expressed as
/// multiples of this arrival rate (load 2.0 = half the gap).
pub const SATURATION_STAGGER_US: u64 = 80;

/// One overload point: a connect storm at `load` times the saturation
/// arrival rate against a shedding server on `tb`.
pub fn overload_point(tb: &Testbed, load: f64, clients: u32) -> emp_apps::OverloadReport {
    let gap_us = (SATURATION_STAGGER_US as f64 / load).max(1.0) as u64;
    overload::run_storm(
        tb,
        &StormConfig {
            clients,
            stagger: SimDuration::from_micros(gap_us),
            ..StormConfig::default()
        },
    )
}

/// Overload robustness: offered load (multiples of the saturation
/// arrival rate) against goodput and p99 served latency, both stacks.
/// The claim under test (DESIGN.md §15): past saturation, admission
/// control and shedding hold goodput near its saturated peak — offered
/// load rises 8x across the sweep, goodput must not collapse.
pub fn overload_degradation(profile: Profile) -> Figure {
    let loads: &[f64] = match profile {
        Profile::Quick => &[0.5, 1.0, 4.0],
        Profile::Full => &[0.5, 1.0, 2.0, 4.0],
    };
    let clients: u32 = match profile {
        Profile::Quick => 32,
        Profile::Full => 48,
    };
    let mut fig = Figure::new(
        "overload-degradation",
        "Offered load vs goodput and tail latency under admission control",
        "offered load (% of saturation)",
        "goodput Mbps / p99 us",
    );
    let emp_pts = parallel_sweep(loads, |&load| {
        let r = overload_point(&Testbed::emp_default(4), load, clients);
        (load, (r.goodput_mbps(), r.p99_us))
    });
    let tcp_pts = parallel_sweep(loads, |&load| {
        let r = overload_point(&Testbed::kernel_default(4), load, clients);
        (load, (r.goodput_mbps(), r.p99_us))
    });
    fig.push(
        "Substrate goodput",
        emp_pts
            .iter()
            .map(|&(x, (g, _))| (x * 100.0, g))
            .collect::<Vec<_>>(),
    );
    fig.push(
        "TCP goodput",
        tcp_pts
            .iter()
            .map(|&(x, (g, _))| (x * 100.0, g))
            .collect::<Vec<_>>(),
    );
    fig.push(
        "Substrate p99",
        emp_pts
            .iter()
            .map(|&(x, (_, p))| (x * 100.0, p))
            .collect::<Vec<_>>(),
    );
    fig.push(
        "TCP p99",
        tcp_pts
            .iter()
            .map(|&(x, (_, p))| (x * 100.0, p))
            .collect::<Vec<_>>(),
    );
    fig
}

/// A figure generator.
pub type FigureFn = fn(Profile) -> Figure;

/// Every figure, in paper order: the name the `figures` binary takes
/// (each figure's [`Figure::id`]) and its generator.
pub const FIGURES: &[(&str, FigureFn)] = &[
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13a", fig13_latency),
    ("fig13b", fig13_bandwidth),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("connect-time", connect_time),
    ("datacenter-kv", datacenter_kv),
    ("event-loop-concurrency", event_loop_concurrency),
    ("concurrency-fairness", concurrency_fairness),
    ("ablation-commthread", ablation_commthread),
    ("ablation-piggyback", ablation_piggyback),
    ("ablation-nic-cpus", ablation_nic_cpus),
    ("cpu-utilization", cpu_utilization),
    ("small-message-throughput", small_message_throughput),
    ("copy-avoidance", copy_avoidance),
    ("overload-degradation", overload_degradation),
];

/// Every figure, in paper order (generated in parallel: each owns its
/// simulations).
pub fn all_figures(profile: Profile) -> Vec<Figure> {
    parallel_sweep(FIGURES, |(_, generate)| generate(profile))
}

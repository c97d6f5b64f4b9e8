//! Workspace-level integration tests: whole scenarios spanning every
//! crate — engine, NIC, EMP, substrate, kernel baseline and applications.

use std::sync::Arc;

use parking_lot::Mutex;
use sockets_over_emp::emp_apps::{ftp, kvstore, matmul, webserver, ServerModel, Testbed};
use sockets_over_emp::emp_proto::{self, EmpConfig};
use sockets_over_emp::prelude::*;

#[test]
fn facade_quickstart_roundtrip() {
    let sim = Sim::new();
    let cluster = emp_proto::build_cluster(2, EmpConfig::default(), SwitchConfig::default());
    let server = EmpSockets::new(cluster.nodes[1].endpoint(), SubstrateConfig::ds_da_uq());
    let client = EmpSockets::new(cluster.nodes[0].endpoint(), SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cluster.nodes[1].addr(), 80);
    let ok = Arc::new(Mutex::new(false));
    let ok2 = Arc::clone(&ok);

    sim.spawn("server", move |ctx| {
        let listener = server.listen(ctx, 80, 8)?.expect("port free");
        let conn = listener.accept(ctx)?.expect("connection");
        let msg = conn.read(ctx, 64)?.expect("data");
        conn.write(ctx, &msg)?.expect("echo");
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        conn.write(ctx, b"integration")?.expect("send");
        let reply = conn.read(ctx, 64)?.expect("reply");
        assert_eq!(&reply[..], b"integration");
        *ok2.lock() = true;
        Ok(())
    });
    sim.run();
    assert!(*ok.lock());
}

#[test]
fn nic_firmware_profile_accounts_for_every_busy_nanosecond() {
    // A short kv run on the default testbed: 3 clients into the event-loop
    // server, 4 KiB values (multi-frame PUTs). Each NIC's per-kind
    // firmware time must sum to its CPUs' busy totals exactly.
    let tb = Testbed::emp_default(4);
    let r = kvstore::run_workload_with(&tb, ServerModel::EventLoop, 3, 8, 4096, 0.5, 11);
    assert_eq!(r.ops, 24);
    let cluster = tb.emp_cluster().expect("EMP testbed");
    for node in &cluster.nodes {
        let (s, tigon) = (node.nic.stats(), node.nic.tigon());
        assert_eq!(
            s.rx_fw.total(),
            tigon.cpu_rx.busy_total().nanos(),
            "{:?}",
            s.rx_fw
        );
        assert_eq!(
            s.tx_fw.total(),
            tigon.cpu_tx.busy_total().nanos(),
            "{:?}",
            s.tx_fw
        );
    }
    let server = cluster.nodes[0].nic.stats();
    let rx = server.rx_fw;
    for (kind, ns) in [
        ("frame", rx.frame),
        ("walk", rx.walk),
        ("dma", rx.dma),
        ("completion", rx.completion),
        ("post", rx.post),
        ("uq_resize", rx.uq_resize),
    ] {
        assert!(ns > 0, "server rx firmware spent nothing on {kind}");
    }
    assert!(server.tx_fw.request > 0 && server.tx_fw.frame > 0);
    // Under the default's §6.1 switch the responses re-arm the request
    // descriptors, on the tx CPU.
    assert!(
        server.tx_fw.rearm > 0,
        "server tx firmware re-armed nothing"
    );
    assert!(server.acks_piggybacked > 0, "responses carry request acks");
}

#[test]
fn ftp_delivers_identical_bytes_over_both_stacks() {
    // The application-level promise of the paper: the same program, the
    // same files, byte-identical results — only faster over the substrate.
    fn fetch_bytes(tb: &Testbed) -> bytes::Bytes {
        tb.nodes[1].host.fs().put_synthetic("data.bin", 777_777);
        let sim = Sim::new();
        ftp::spawn_server(&sim, tb, 1, 1);
        let (bytes, _, _) = ftp::fetch(&sim, tb, 0, 1, "data.bin");
        assert_eq!(bytes, 777_777);
        // Read what the client stored.
        let got = Arc::new(Mutex::new(bytes::Bytes::new()));
        let g2 = Arc::clone(&got);
        let fs = tb.nodes[0].host.fs().clone();
        sim.spawn("verify", move |ctx| {
            let fd = fs.open(ctx, "dl-data.bin")?.expect("stored");
            let mut all = Vec::new();
            loop {
                let c = fs.read(ctx, fd, 1 << 20)?.expect("read");
                if c.is_empty() {
                    break;
                }
                all.extend_from_slice(&c);
            }
            *g2.lock() = bytes::Bytes::from(all);
            Ok(())
        });
        sim.run();
        let b = got.lock().clone();
        b
    }
    let emp = fetch_bytes(&Testbed::emp_default(2));
    let tcp = fetch_bytes(&Testbed::kernel_default(2));
    assert_eq!(emp.len(), 777_777);
    assert_eq!(emp, tcp, "both stacks must deliver identical file contents");
}

#[test]
fn webserver_completes_identical_workloads_on_both_stacks() {
    for tb in [Testbed::emp_default(4), Testbed::kernel_default(4)] {
        let avg = webserver::run_once(&tb, webserver::HttpVersion::Http10, 512, 6);
        assert!(avg > 0.0 && avg < 10_000.0, "plausible response time {avg}");
        let avg = webserver::run_once(&tb, webserver::HttpVersion::Http11, 512, 8);
        assert!(avg > 0.0 && avg < 10_000.0, "plausible response time {avg}");
    }
}

#[test]
fn matmul_checksums_agree_across_stacks_and_sizes() {
    for n in [12usize, 48] {
        let sim = Sim::new();
        let (_, emp_sum) = matmul::run(&sim, &Testbed::emp_default(4), n);
        let sim = Sim::new();
        let (_, tcp_sum) = matmul::run(&sim, &Testbed::kernel_default(4), n);
        let local = matmul::local_checksum(n);
        assert_eq!(emp_sum.to_bits(), tcp_sum.to_bits(), "n={n}");
        assert!(
            (emp_sum - local).abs() <= 1e-6 * local.abs().max(1.0),
            "n={n}: distributed {emp_sum} vs local {local}"
        );
    }
}

#[test]
fn headline_numbers_hold_end_to_end() {
    // The abstract in one test: substrate latency 28.5/37 us vs TCP 120 us;
    // bandwidth ~840 vs 550 Mbps.
    use sockets_over_emp::emp_apps::{bandwidth, pingpong};

    let sim = Sim::new();
    let dg = pingpong::one_way_latency_us(
        &sim,
        &Testbed::emp(2, EmpConfig::default(), SubstrateConfig::dg(), "dg"),
        4,
        40,
    );
    let sim = Sim::new();
    let ds = pingpong::one_way_latency_us(&sim, &Testbed::emp_default(2), 4, 40);
    let sim = Sim::new();
    let tcp = pingpong::one_way_latency_us(&sim, &Testbed::kernel_default(2), 4, 40);
    assert!(
        (26.5..31.0).contains(&dg),
        "datagram {dg:.1} us (paper 28.5)"
    );
    assert!(
        (32.0..40.0).contains(&ds),
        "streaming {ds:.1} us (paper 37)"
    );
    assert!((105.0..135.0).contains(&tcp), "tcp {tcp:.1} us (paper 120)");

    let sim = Sim::new();
    let emp_bw = bandwidth::throughput_mbps(&sim, &Testbed::emp_default(2), 64 << 10, 4 << 20);
    let sim = Sim::new();
    let tcp_bw = bandwidth::throughput_mbps(
        &sim,
        &Testbed::kernel(
            2,
            kernel_tcp::TcpConfig::default(),
            Some(256 << 10),
            "tcp-big",
        ),
        64 << 10,
        4 << 20,
    );
    assert!(emp_bw > 800.0, "substrate {emp_bw:.0} Mbps (paper >840)");
    assert!(
        (500.0..600.0).contains(&tcp_bw),
        "tcp {tcp_bw:.0} Mbps (paper ~550)"
    );
}

#[test]
fn fd_interposition_spans_fs_and_network() {
    let sim = Sim::new();
    let cluster = emp_proto::build_cluster(2, EmpConfig::default(), SwitchConfig::default());
    let server = EmpSockets::new(cluster.nodes[1].endpoint(), SubstrateConfig::ds_da_uq());
    let client = EmpSockets::new(cluster.nodes[0].endpoint(), SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cluster.nodes[1].addr(), 21);
    cluster.nodes[1].host.fs().put_synthetic("src.bin", 100_000);
    let (sfs, cfs) = (
        cluster.nodes[1].host.fs().clone(),
        cluster.nodes[0].host.fs().clone(),
    );
    let done = Arc::new(Mutex::new(false));
    let done2 = Arc::clone(&done);

    sim.spawn("server", move |ctx| {
        let fds = FdTable::new(server, sfs);
        let lfd = fds.socket_listen(ctx, 21, 2)?.expect("listen");
        let cfd = fds.accept(ctx, lfd)?.expect("accept");
        let ffd = fds.open(ctx, "src.bin")?.expect("open");
        loop {
            let chunk = fds.read(ctx, ffd, 8192)?.expect("file read");
            if chunk.is_empty() {
                break;
            }
            fds.write(ctx, cfd, &chunk)?.expect("sock write");
        }
        fds.close(ctx, ffd)?.expect("close");
        fds.close(ctx, cfd)?.expect("close");
        fds.close(ctx, lfd)?.expect("close");
        assert_eq!(fds.live_fds(), 0);
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let fds = FdTable::new(client, cfs);
        let sfd = fds.socket_connect(ctx, addr)?.expect("connect");
        let ofd = fds.create(ctx, "dst.bin")?.expect("create");
        let mut total = 0;
        loop {
            let chunk = fds.read(ctx, sfd, 8192)?.expect("sock read");
            if chunk.is_empty() {
                break;
            }
            total += chunk.len();
            fds.write(ctx, ofd, &chunk)?.expect("file write");
        }
        assert_eq!(total, 100_000);
        fds.close(ctx, sfd)?.expect("close");
        fds.close(ctx, ofd)?.expect("close");
        *done2.lock() = true;
        Ok(())
    });
    sim.run();
    assert!(*done.lock());
}

#[test]
fn whole_application_runs_are_deterministic() {
    fn run_once() -> f64 {
        let tb = Testbed::emp_default(4);
        webserver::run_once(&tb, webserver::HttpVersion::Http10, 1024, 4)
    }
    assert_eq!(run_once().to_bits(), run_once().to_bits());
}

//! The bandwidth microbenchmark (§7.2): one-way bulk transfer; goodput is
//! measured at the receiver between first and last byte.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use simnet::{Sim, SimAccess, SimDuration};

use crate::testbed::Testbed;

/// Stream `total_bytes` from node 0 to node 1 in `msg_size` writes;
/// returns goodput in Mbps.
pub fn throughput_mbps(sim: &Sim, tb: &Testbed, msg_size: usize, total_bytes: usize) -> f64 {
    throughput_with_stats(sim, tb, msg_size, total_bytes).0
}

/// [`throughput_mbps`], also returning both connections' substrate
/// counters summed (sender + receiver, sampled just before close). All
/// zeros on stacks that expose none (kernel TCP).
pub fn throughput_with_stats(
    sim: &Sim,
    tb: &Testbed,
    msg_size: usize,
    total_bytes: usize,
) -> (f64, sockets_emp::ConnStats) {
    assert!(tb.nodes.len() >= 2, "bandwidth test needs two nodes");
    let out = Rc::new(Cell::new(f64::NAN));
    let out2 = Rc::clone(&out);
    let stats = Rc::new(RefCell::new(sockets_emp::ConnStats::default()));
    let (stats_rx, stats_tx) = (Rc::clone(&stats), Rc::clone(&stats));
    let server_api = Arc::clone(&tb.nodes[1].api);
    let client_api = Arc::clone(&tb.nodes[0].api);
    let server_host = server_api.local_host();
    const PORT: u16 = 78;

    sim.spawn("bw-sink", move |ctx| {
        let l = server_api.listen(ctx, PORT, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let mut got = 0usize;
        let mut t0 = None;
        while got < total_bytes {
            let d = conn.read(ctx, msg_size)?.expect("data");
            if d.is_empty() {
                break;
            }
            if t0.is_none() {
                t0 = Some(ctx.now());
            }
            got += d.len();
        }
        let elapsed = ctx.now() - t0.expect("received something");
        out2.set(got as f64 * 8.0 / elapsed.as_secs_f64() / 1e6);
        if let Some(s) = conn.substrate_stats() {
            *stats_rx.borrow_mut() += s;
        }
        let _ = conn.close(ctx);
        l.close(ctx)?;
        Ok(())
    });
    sim.spawn("bw-source", move |ctx| {
        let conn = client_api
            .connect(ctx, server_host, PORT)?
            .expect("connect");
        let buf = vec![0xa5u8; msg_size];
        let mut sent = 0usize;
        while sent < total_bytes {
            let n = msg_size.min(total_bytes - sent);
            conn.write(ctx, &buf[..n])?.expect("write");
            sent += n;
        }
        conn.flush(ctx)?.expect("flush");
        ctx.delay(SimDuration::from_millis(2))?;
        if let Some(s) = conn.substrate_stats() {
            *stats_tx.borrow_mut() += s;
        }
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    let mbps = out.get();
    assert!(mbps.is_finite(), "bandwidth test did not complete");
    let totals = *stats.borrow();
    (mbps, totals)
}

/// Simultaneous bulk transfer in both directions between nodes 0 and 1;
/// returns the aggregate goodput in Mbps. Exercises full-duplex links and
/// both NIC firmware directions at once.
pub fn bidirectional_mbps(sim: &Sim, tb: &Testbed, msg_size: usize, total_each: usize) -> f64 {
    assert!(tb.nodes.len() >= 2);
    let out = Rc::new(RefCell::new((f64::NAN, f64::NAN)));
    const PORT_FWD: u16 = 81;
    const PORT_REV: u16 = 82;

    for (dir, (src, dst, port)) in [(0usize, (0usize, 1usize, PORT_FWD)), (1, (1, 0, PORT_REV))] {
        let sink_api = Arc::clone(&tb.nodes[dst].api);
        let src_api = Arc::clone(&tb.nodes[src].api);
        let dst_host = tb.nodes[dst].api.local_host();
        let out = Rc::clone(&out);
        sim.spawn(format!("bidir-sink-{dir}"), move |ctx| {
            let l = sink_api.listen(ctx, port, 4)?.expect("port free");
            let conn = l.accept(ctx)?.expect("connection");
            let mut got = 0usize;
            let t0 = ctx.now();
            while got < total_each {
                let d = conn.read(ctx, msg_size)?.expect("data");
                if d.is_empty() {
                    break;
                }
                got += d.len();
            }
            let mbps = got as f64 * 8.0 / (ctx.now() - t0).as_secs_f64() / 1e6;
            {
                // Scope the borrow: close() blocks, and a borrow held
                // across a blocking call panics any other process that
                // borrows the cell meanwhile.
                let mut o = out.borrow_mut();
                if dir == 0 {
                    o.0 = mbps;
                } else {
                    o.1 = mbps;
                }
            }
            let _ = conn.close(ctx);
            l.close(ctx)?;
            Ok(())
        });
        sim.spawn(format!("bidir-source-{dir}"), move |ctx| {
            let conn = src_api.connect(ctx, dst_host, port)?.expect("connect");
            let buf = vec![dir as u8; msg_size];
            let mut sent = 0usize;
            while sent < total_each {
                conn.write(ctx, &buf)?.expect("write");
                sent += msg_size;
            }
            ctx.delay(SimDuration::from_millis(2))?;
            conn.close(ctx)?;
            Ok(())
        });
    }
    sim.run();
    let (a, b) = *out.borrow();
    assert!(a.is_finite() && b.is_finite(), "both directions complete");
    a + b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emp_beats_kernel_tcp_by_the_paper_margin() {
        let sim = Sim::new();
        let tb = Testbed::emp_default(2);
        let emp = throughput_mbps(&sim, &tb, 64 * 1024, 4 << 20);
        let sim = Sim::new();
        let tb = Testbed::kernel(
            2,
            kernel_tcp::TcpConfig::default(),
            Some(256 * 1024),
            "tcp-big",
        );
        let tcp = throughput_mbps(&sim, &tb, 64 * 1024, 4 << 20);
        // §8: "840 Mbps ... compared to 550 Mbps ... up to 53%".
        let gain = (emp - tcp) / tcp * 100.0;
        assert!(
            (35.0..75.0).contains(&gain),
            "bandwidth gain {gain:.0}% (emp {emp:.0}, tcp {tcp:.0})"
        );
    }

    #[test]
    fn full_duplex_links_carry_both_directions() {
        // Bidirectional aggregate must clearly exceed one direction's
        // ceiling (the links are full duplex; the NIC has two CPUs).
        let sim = Sim::new();
        let tb = Testbed::emp_default(2);
        let one_way = throughput_mbps(&sim, &tb, 64 * 1024, 2 << 20);
        let sim = Sim::new();
        let tb = Testbed::emp_default(2);
        let both = bidirectional_mbps(&sim, &tb, 64 * 1024, 2 << 20);
        assert!(
            both > one_way * 1.5,
            "aggregate {both:.0} vs one-way {one_way:.0} Mbps"
        );
    }

    /// The paper's small-message penalty, so on the paper's preset: the
    /// default stages 1 KiB writes precisely to remove it.
    #[test]
    fn small_messages_cost_bandwidth() {
        let paper = || {
            let cfg = sockets_emp::SubstrateConfig::ds_da_uq();
            Testbed::emp(2, emp_proto::EmpConfig::default(), cfg, "ds-da-uq")
        };
        let big = throughput_mbps(&Sim::new(), &paper(), 64 * 1024, 2 << 20);
        let small = throughput_mbps(&Sim::new(), &paper(), 1024, 2 << 20);
        assert!(
            big > small,
            "64K writes ({big:.0}) vs 1K writes ({small:.0})"
        );
    }
}

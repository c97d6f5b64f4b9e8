//! Distributed matrix multiplication over sockets (§7.5): a master and
//! three workers on a 4-node cluster.
//!
//! The master partitions A by rows, ships each worker its slice plus all
//! of B, and gathers the C slices back — using `select()` to service
//! whichever worker answers first, as the paper does ("To handle this, we
//! used the select() operation").

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use simnet::{Sim, SimAccess, SimDuration, SimTime};

use crate::api::Conn;
use crate::testbed::Testbed;

/// Worker port.
pub const MATMUL_PORT: u16 = 99;

/// Sustained double-precision rate of the 700 MHz PIII hosts doing a
/// straightforward triple loop (cache-blocked naive code of the era).
pub const HOST_FLOPS: f64 = 150e6;

fn encode_matrix(m: &[f64]) -> Bytes {
    let mut b = BytesMut::with_capacity(m.len() * 8);
    for &v in m {
        b.put_f64_le(v);
    }
    b.freeze()
}

fn decode_matrix(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunks")))
        .collect()
}

/// Multiply `rows x n` slice of A with `n x n` B (plain triple loop; the
/// simulated time cost is charged separately from real compute).
fn multiply_slice(a_rows: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let rows = a_rows.len() / n;
    let mut c = vec![0.0f64; rows * n];
    for i in 0..rows {
        for k in 0..n {
            let aik = a_rows[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// Run the distributed multiply of two deterministic `n x n` matrices on
/// `tb` (node 0 = master, nodes 1.. = workers). Returns
/// `(elapsed_us, checksum)`; the checksum is a content witness that the
/// distributed result matches the local product.
pub fn run(sim: &Sim, tb: &Testbed, n: usize) -> (f64, f64) {
    let workers = tb.nodes.len() - 1;
    assert!(workers >= 1, "matmul needs at least one worker");
    assert_eq!(n % workers, 0, "rows must split evenly across workers");
    let rows_per = n / workers;

    // --- workers ---
    for w in 1..=workers {
        let api = Arc::clone(&tb.nodes[w].api);
        sim.spawn(format!("matmul-worker-{w}"), move |ctx| {
            let l = api.listen(ctx, MATMUL_PORT, 2)?.expect("port free");
            let conn = l.accept(ctx)?.expect("master");
            // Receive: rows of A (rows_per x n) then all of B (n x n).
            let a_bytes = conn
                .read_exact(ctx, rows_per * n * 8)?
                .expect("A slice")
                .expect("data");
            let b_bytes = conn.read_exact(ctx, n * n * 8)?.expect("B").expect("data");
            let a = decode_matrix(&a_bytes);
            let b = decode_matrix(&b_bytes);
            // The real arithmetic (content), charged at the host's rate
            // (time): 2*rows*n*n flops.
            let c = multiply_slice(&a, &b, n);
            let flops = 2.0 * rows_per as f64 * n as f64 * n as f64;
            ctx.delay(SimDuration::from_micros_f64(flops / HOST_FLOPS * 1e6))?;
            conn.write(ctx, &encode_matrix(&c))?.expect("C slice");
            let _ = conn.close(ctx);
            l.close(ctx)?;
            Ok(())
        });
    }

    // --- master ---
    let api = Arc::clone(&tb.nodes[0].api);
    let worker_hosts: Vec<_> = (1..=workers)
        .map(|w| tb.nodes[w].api.local_host())
        .collect();
    let out = Rc::new(Cell::new((f64::NAN, 0.0f64)));
    let out2 = Rc::clone(&out);
    sim.spawn("matmul-master", move |ctx| {
        // Deterministic matrices.
        let a: Vec<f64> = (0..n * n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let b: Vec<f64> = (0..n * n).map(|i| ((i % 7) as f64) * 0.5).collect();
        let t0 = ctx.now();
        let b_bytes = encode_matrix(&b);
        let mut conns: Vec<Conn> = Vec::with_capacity(worker_hosts.len());
        for (w, host) in worker_hosts.iter().enumerate() {
            let conn = api.connect(ctx, *host, MATMUL_PORT)?.expect("worker");
            let slice = &a[w * rows_per * n..(w + 1) * rows_per * n];
            conn.write(ctx, &encode_matrix(slice))?.expect("send A");
            conn.write(ctx, &b_bytes)?.expect("send B");
            conns.push(conn);
        }
        // Gather with select(): take results as they become ready.
        let mut c = vec![0.0f64; n * n];
        let mut done = vec![false; conns.len()];
        for _ in 0..conns.len() {
            let watch: Vec<&Conn> = conns
                .iter()
                .enumerate()
                .filter(|(i, _)| !done[*i])
                .map(|(_, c)| c)
                .collect();
            let idx_in_watch = api.select_readable(ctx, &watch)?.expect("live set");
            let w = conns
                .iter()
                .enumerate()
                .filter(|(i, _)| !done[*i])
                .nth(idx_in_watch)
                .expect("index in range")
                .0;
            let bytes = conns[w]
                .read_exact(ctx, rows_per * n * 8)?
                .expect("C slice")
                .expect("data");
            c[w * rows_per * n..(w + 1) * rows_per * n].copy_from_slice(&decode_matrix(&bytes));
            done[w] = true;
        }
        let elapsed = (ctx.now() - t0).as_micros_f64();
        for conn in &conns {
            conn.close(ctx)?;
        }
        let checksum: f64 = c
            .iter()
            .enumerate()
            .map(|(i, v)| v * ((i % 5) as f64))
            .sum();
        out2.set((elapsed, checksum));
        Ok(())
    });
    sim.run_until(SimTime::from_secs(3600));
    let (us, checksum) = out.get();
    assert!(us.is_finite(), "matmul did not complete");
    (us, checksum)
}

/// The checksum the distributed run must reproduce, computed locally.
pub fn local_checksum(n: usize) -> f64 {
    let a: Vec<f64> = (0..n * n).map(|i| ((i % 13) as f64) - 6.0).collect();
    let b: Vec<f64> = (0..n * n).map(|i| ((i % 7) as f64) * 0.5).collect();
    let c = multiply_slice(&a, &b, n);
    c.iter()
        .enumerate()
        .map(|(i, v)| v * ((i % 5) as f64))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_result_matches_local_product() {
        let sim = Sim::new();
        let tb = Testbed::emp_default(4);
        let (_us, checksum) = run(&sim, &tb, 24);
        let expect = local_checksum(24);
        assert!(
            (checksum - expect).abs() < 1e-6 * expect.abs().max(1.0),
            "distributed {checksum} vs local {expect}"
        );
    }

    #[test]
    fn kernel_stack_computes_the_same_answer_slower() {
        let sim = Sim::new();
        let tb = Testbed::emp_default(4);
        let (emp_us, emp_sum) = run(&sim, &tb, 24);
        let sim = Sim::new();
        let tb = Testbed::kernel_default(4);
        let (tcp_us, tcp_sum) = run(&sim, &tb, 24);
        assert_eq!(emp_sum.to_bits(), tcp_sum.to_bits(), "same arithmetic");
        assert!(
            emp_us < tcp_us,
            "substrate must finish first ({emp_us:.0} vs {tcp_us:.0} us)"
        );
    }

    #[test]
    fn compute_dominates_at_large_n() {
        // Once the O(n^3) compute swamps the O(n^2) communication, the
        // stacks converge (the shape of Figure 17's right side). At small
        // n the gap is also compressed by fixed connection-setup costs,
        // so compare a communication-bound size with a compute-bound one.
        fn gap(n: usize) -> f64 {
            let sim = Sim::new();
            let (emp_us, _) = run(&sim, &Testbed::emp_default(4), n);
            let sim = Sim::new();
            let (tcp_us, _) = run(&sim, &Testbed::kernel_default(4), n);
            tcp_us / emp_us
        }
        let mid = gap(96); // communication still matters
        let big = gap(288); // ~15 ms of compute per worker dominates
        assert!(
            big < mid,
            "relative gap must shrink once compute dominates: n=288 {big:.3} vs n=96 {mid:.3}"
        );
        assert!(big > 1.0, "substrate never loses: {big:.3}");
    }
}

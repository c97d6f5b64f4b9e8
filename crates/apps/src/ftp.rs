//! The ftp application (§7.3): file transfer between RAM disks.
//!
//! Mirrors the paper's setup — RAM disks on both ends "to remove the
//! effects of disk access and caching", so the gap between ftp throughput
//! and raw socket bandwidth is exactly the file-system overhead. The
//! server interleaves file reads and socket writes; the client interleaves
//! socket reads and file writes; both go through the same byte-oriented
//! interface, which on the EMP side is the §5.4 fd-interposition story
//! (see `sockets_emp::FdTable` and the `fd_table_routes_files_and_sockets`
//! test).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use simnet::{Sim, SimAccess};

use crate::api::NetError;
use crate::testbed::Testbed;

/// Transfer chunk (what the real ftp's sendfile-less loop uses).
pub const CHUNK: usize = 64 * 1024;
/// Control port of the ftp server.
pub const FTP_PORT: u16 = 21;

/// Serve files from node `server`'s RAM disk: a minimal RETR-only ftp
/// server handling one connection per request (spawned per accept).
/// Returns after `expected_requests` transfers.
pub fn spawn_server(sim: &Sim, tb: &Testbed, server: usize, expected_requests: usize) {
    let api = Arc::clone(&tb.nodes[server].api);
    let fs = tb.nodes[server].host.fs().clone();
    sim.spawn("ftp-server", move |ctx| {
        let l = api.listen(ctx, FTP_PORT, 8)?.expect("port free");
        for _ in 0..expected_requests {
            let conn = l.accept(ctx)?.expect("client");
            let fs = fs.clone();
            ctx.spawn("ftp-server-worker", move |ctx| {
                // Request line: "RETR <name>\n".
                let mut req = Vec::new();
                loop {
                    let b = conn.read(ctx, 256)?.expect("request bytes");
                    if b.is_empty() {
                        return Ok(());
                    }
                    req.extend_from_slice(&b);
                    if req.last() == Some(&b'\n') {
                        break;
                    }
                }
                let line = String::from_utf8_lossy(&req);
                let name = line
                    .trim()
                    .strip_prefix("RETR ")
                    .expect("RETR command")
                    .to_string();
                let fd = fs.open(ctx, &name)?.expect("file exists");
                loop {
                    let chunk = fs.read(ctx, fd, CHUNK)?.expect("file read");
                    if chunk.is_empty() {
                        break;
                    }
                    conn.write(ctx, &chunk)?.expect("socket write");
                }
                fs.close(ctx, fd)?.expect("close file");
                conn.close(ctx)?;
                Ok(())
            });
        }
        l.close(ctx)?;
        Ok(())
    });
}

/// Fetch `name` from the server on node `server_idx` into the local RAM
/// disk of node `client`; returns `(bytes, elapsed_us, mbps)`.
pub fn fetch(
    sim: &Sim,
    tb: &Testbed,
    client: usize,
    server_idx: usize,
    name: &str,
) -> (usize, f64, f64) {
    let api = Arc::clone(&tb.nodes[client].api);
    let fs = tb.nodes[client].host.fs().clone();
    let server_host = tb.nodes[server_idx].api.local_host();
    let name = name.to_string();
    let out = Rc::new(RefCell::new((0usize, 0.0f64)));
    let out2 = Rc::clone(&out);

    sim.spawn("ftp-client", move |ctx| {
        let t0 = ctx.now();
        let conn = api.connect(ctx, server_host, FTP_PORT)?.expect("connect");
        conn.write(ctx, format!("RETR {name}\n").as_bytes())?
            .expect("send request");
        let local = fs.create(ctx, &format!("dl-{name}"))?;
        let mut got = 0usize;
        loop {
            let chunk = match conn.read(ctx, CHUNK)? {
                Ok(c) => c,
                Err(NetError::PeerClosed) => break,
                Err(e) => panic!("ftp read failed: {e}"),
            };
            if chunk.is_empty() {
                break;
            }
            got += chunk.len();
            fs.write(ctx, local, &chunk)?.expect("file write");
        }
        fs.close(ctx, local)?.expect("close");
        conn.close(ctx)?;
        let elapsed = (ctx.now() - t0).as_micros_f64();
        *out2.borrow_mut() = (got, elapsed);
        Ok(())
    });
    sim.run_until(simnet::SimTime::from_secs(600));
    let (bytes, us) = *out.borrow();
    assert!(bytes > 0, "ftp transfer did not complete");
    let mbps = bytes as f64 * 8.0 / (us / 1e6) / 1e6;
    (bytes, us, mbps)
}

/// One-shot convenience: build nothing, just run a single transfer of a
/// synthetic file of `size` bytes and return the goodput in Mbps.
pub fn transfer_mbps(tb: &Testbed, size: usize) -> f64 {
    let sim = Sim::new();
    tb.nodes[1].host.fs().put_synthetic("payload.bin", size);
    spawn_server(&sim, tb, 1, 1);
    let (bytes, _us, mbps) = fetch(&sim, tb, 0, 1, "payload.bin");
    assert_eq!(bytes, size, "whole file must arrive");
    mbps
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostsim::RamDisk;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// The whole contents of `path` on `fs`, read in a simulation of its own.
    fn contents(fs: &RamDisk, path: &str) -> Vec<u8> {
        let sim = Sim::new();
        let (fs, path) = (fs.clone(), path.to_string());
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        sim.spawn("slurp", move |ctx| {
            let fd = fs.open(ctx, &path)?.expect("file exists");
            loop {
                let chunk = fs.read(ctx, fd, CHUNK)?.expect("file read");
                if chunk.is_empty() {
                    break;
                }
                out2.lock().extend_from_slice(&chunk);
            }
            fs.close(ctx, fd)?.expect("close");
            Ok(())
        });
        sim.run();
        let data = std::mem::take(&mut *out.lock());
        data
    }

    #[test]
    fn transfers_whole_file_and_stores_it() {
        let tb = Testbed::emp_default(2);
        tb.nodes[1].host.fs().put_synthetic("a.bin", 300_000);
        let sim = Sim::new();
        spawn_server(&sim, &tb, 1, 1);
        let (bytes, _, _) = fetch(&sim, &tb, 0, 1, "a.bin");
        assert_eq!(bytes, 300_000);
        let served = contents(tb.nodes[1].host.fs(), "a.bin");
        let stored = contents(tb.nodes[0].host.fs(), "dl-a.bin");
        assert_eq!(served.len(), 300_000);
        assert!(stored == served, "stored file differs from the served one");
    }

    #[test]
    fn ftp_over_emp_roughly_doubles_tcp() {
        // §7.3/§8: "For ftp we got almost twice the performance benefit as
        // TCP" (1 MiB+ files).
        const SIZE: usize = 4 << 20;
        let emp = transfer_mbps(&Testbed::emp_default(2), SIZE);
        let tcp = transfer_mbps(&Testbed::kernel_default(2), SIZE);
        let ratio = emp / tcp;
        assert!(
            (1.5..3.0).contains(&ratio),
            "ftp ratio {ratio:.2} (emp {emp:.0} Mbps, tcp {tcp:.0} Mbps)"
        );
    }

    #[test]
    fn file_system_overhead_caps_ftp_below_raw_bandwidth() {
        // §7.3: "The application is not able to achieve the peak bandwidth
        // ... due to the File System overhead."
        const SIZE: usize = 4 << 20;
        let ftp = transfer_mbps(&Testbed::emp_default(2), SIZE);
        let sim = Sim::new();
        let tb = Testbed::emp_default(2);
        let raw = crate::bandwidth::throughput_mbps(&sim, &tb, CHUNK, SIZE);
        assert!(
            ftp < raw * 0.75,
            "ftp ({ftp:.0} Mbps) must sit well below raw sockets ({raw:.0} Mbps)"
        );
    }
}

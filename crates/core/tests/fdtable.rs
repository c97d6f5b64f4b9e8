//! Error paths and the POSIX-shaped nonblocking surface of the §5.4
//! descriptor table: wrong-kind operations, stale descriptors, clean EOF,
//! `O_NONBLOCK`, and `poll(2)` over mixed descriptor kinds.

use emp_proto::{build_cluster, EmpCluster, EmpConfig};
use simnet::{Completion, Sim, SimDuration, SwitchConfig};
use sockets_emp::{
    EmpSockets, FdError, FdTable, Interest, NetError, PollFd, SockAddr, SubstrateConfig,
};

fn cluster(n: usize) -> EmpCluster {
    build_cluster(n, EmpConfig::default(), SwitchConfig::default())
}

fn substrate(cl: &EmpCluster, node: usize) -> EmpSockets {
    EmpSockets::new(cl.nodes[node].endpoint(), SubstrateConfig::ds_da_uq())
}

#[test]
fn reading_a_listener_fd_is_wrong_kind() {
    let sim = Sim::new();
    let cl = cluster(1);
    let s = substrate(&cl, 0);
    let fs = cl.nodes[0].host.fs().clone();
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("proc", move |ctx| {
        let fds = FdTable::new(s, fs);
        let lfd = fds.socket_listen(ctx, 80, 4)?.expect("listen");
        assert_eq!(fds.read(ctx, lfd, 64)?.unwrap_err(), FdError::WrongKind);
        assert_eq!(
            fds.write(ctx, lfd, b"nope")?.unwrap_err(),
            FdError::WrongKind
        );
        fds.close(ctx, lfd)?.expect("close");
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn closing_twice_reports_bad_fd() {
    let sim = Sim::new();
    let cl = cluster(1);
    let s = substrate(&cl, 0);
    let fs = cl.nodes[0].host.fs().clone();
    fs.put("f.txt", &b"x"[..]);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("proc", move |ctx| {
        let fds = FdTable::new(s, fs);
        let fd = fds.open(ctx, "f.txt")?.expect("open");
        fds.close(ctx, fd)?.expect("first close");
        assert_eq!(fds.close(ctx, fd)?.unwrap_err(), FdError::BadFd);
        // Data calls on the stale fd fail the same way.
        assert_eq!(fds.read(ctx, fd, 4)?.unwrap_err(), FdError::BadFd);
        assert_eq!(fds.accept(ctx, fd)?.unwrap_err(), FdError::BadFd);
        assert_eq!(fds.live_fds(), 0);
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn read_after_peer_close_is_clean_eof() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1);
    let client = substrate(&cl, 0);
    let fs = cl.nodes[0].host.fs().clone();
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("client");
        conn.write(ctx, b"bye")?.expect("farewell");
        conn.close(ctx)?;
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let fds = FdTable::new(client, fs);
        let fd = fds.socket_connect(ctx, addr)?.expect("connect");
        let d = fds.read(ctx, fd, 64)?.expect("data");
        assert_eq!(&d[..], b"bye");
        // The peer closed after its write: EOF, not an error — twice.
        assert!(fds.read(ctx, fd, 64)?.expect("eof").is_empty());
        assert!(fds.read(ctx, fd, 64)?.expect("still eof").is_empty());
        fds.close(ctx, fd)?.expect("close");
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn o_nonblock_turns_parks_into_would_block() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1);
    let client = substrate(&cl, 0);
    let fs = cl.nodes[1].host.fs().clone();
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let fds = FdTable::new(server, fs);
        let lfd = fds.socket_listen(ctx, 80, 4)?.expect("listen");
        fds.set_nonblocking(lfd, true).expect("known fd");
        // Nothing queued yet.
        assert_eq!(
            fds.accept(ctx, lfd)?.unwrap_err(),
            FdError::Net(NetError::WouldBlock)
        );
        // Wait for the connection with poll(2), then retry.
        let mut pfds = [PollFd::new(lfd, Interest::READABLE)];
        let n = fds.poll(ctx, &mut pfds, None)?.expect("poll");
        assert_eq!(n, 1);
        assert!(pfds[0].revents.intersects(Interest::ACCEPTABLE));
        let cfd = fds.accept(ctx, lfd)?.expect("queued connection");
        fds.set_nonblocking(cfd, true).expect("known fd");
        // The client delays its message: a nonblocking read sees EAGAIN.
        assert_eq!(
            fds.read(ctx, cfd, 64)?.unwrap_err(),
            FdError::Net(NetError::WouldBlock)
        );
        let mut pfds = [PollFd::new(cfd, Interest::READABLE)];
        fds.poll(ctx, &mut pfds, None)?.expect("poll");
        let d = fds.read(ctx, cfd, 64)?.expect("data");
        assert_eq!(&d[..], b"slow");
        fds.close(ctx, cfd)?.expect("close conn");
        fds.close(ctx, lfd)?.expect("close listener");
        done2.complete(ctx);
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        ctx.delay(SimDuration::from_millis(1))?;
        let conn = client.connect(ctx, addr)?.expect("connect");
        ctx.delay(SimDuration::from_millis(1))?;
        conn.write(ctx, b"slow")?.expect("send");
        ctx.delay(SimDuration::from_millis(2))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

#[test]
fn poll_mixes_files_sockets_and_invalid_fds() {
    let sim = Sim::new();
    let cl = cluster(2);
    let server = substrate(&cl, 1);
    let client = substrate(&cl, 0);
    let fs = cl.nodes[0].host.fs().clone();
    fs.put("ready.txt", &b"always"[..]);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let done = Completion::new();
    let done2 = done.clone();

    sim.spawn("server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("client");
        ctx.delay(SimDuration::from_millis(2))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.spawn("client", move |ctx| {
        let fds = FdTable::new(client, fs);
        let ffd = fds.open(ctx, "ready.txt")?.expect("open");
        let sfd = fds.socket_connect(ctx, addr)?.expect("connect");
        // A file is always ready, an idle socket is not, fd 99 is nobody:
        // the sweep must not park even though the socket never fires.
        let mut pfds = [
            PollFd::new(ffd, Interest::READABLE),
            PollFd::new(sfd, Interest::READABLE),
            PollFd::new(99, Interest::READABLE),
        ];
        let n = fds.poll(ctx, &mut pfds, None)?.expect("poll");
        assert_eq!(n, 2);
        assert_eq!(pfds[0].revents, Interest::READABLE);
        assert_eq!(pfds[1].revents, Interest::EMPTY);
        assert_eq!(pfds[2].revents, Interest::ERROR);
        fds.close(ctx, ffd)?.expect("close file");
        fds.close(ctx, sfd)?.expect("close sock");
        done2.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(done.is_done());
}

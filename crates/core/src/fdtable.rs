//! File-descriptor tracking — the §5.4 name-space interposition.
//!
//! UNIX applications call generic `read()`/`write()`/`close()` on integer
//! descriptors that may name files, pipes or sockets. The substrate cannot
//! blindly override those symbols (a read might be on a local file), so it
//! tracks descriptor state: calls that *create* descriptors — `open()`,
//! `socket()`/`connect()`/`accept()` — register what each fd is, and the
//! generic calls dispatch to either the EMP substrate or the (simulated)
//! OS. The ftp application exercises exactly this: every transfer does
//! both file reads and socket writes through the same fd-based interface.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use hostsim::{FileHandle, RamDisk};
use simnet::{Interest, NetError, ProcessCtx, SimDuration, SimResult};

use crate::poll::PollSet;
use crate::socket::{Connection, EmpSockets, Listener, SockAddr};

enum FdEntry {
    File(FileHandle),
    Socket(Rc<Connection>),
    Listener(Rc<Listener>),
}

/// One descriptor-table slot: what the fd names, plus its `O_NONBLOCK`
/// flag.
struct FdSlot {
    entry: FdEntry,
    nonblocking: bool,
}

/// A per-process descriptor table routing POSIX-style calls to the
/// substrate or the filesystem.
#[derive(Clone)]
pub struct FdTable {
    sockets: EmpSockets,
    fs: RamDisk,
    inner: Rc<RefCell<FdState>>,
}

struct FdState {
    entries: HashMap<i32, FdSlot>,
    next_fd: i32,
}

/// Errors from the unified descriptor interface.
#[derive(Clone, Debug, PartialEq)]
pub enum FdError {
    /// Unknown or already-closed descriptor.
    BadFd,
    /// The operation does not apply to this descriptor kind (e.g. `read`
    /// on a listener).
    WrongKind,
    /// Socket-layer failure. A nonblocking descriptor (`set_nonblocking`)
    /// with nothing to do is [`NetError::WouldBlock`] here — retry after
    /// [`FdTable::poll`] reports readiness.
    Net(NetError),
    /// Filesystem failure.
    Fs(hostsim::FsError),
}

impl std::fmt::Display for FdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FdError::BadFd => write!(f, "bad file descriptor"),
            FdError::WrongKind => write!(f, "operation not supported on this descriptor"),
            FdError::Net(e) => write!(f, "{e}"),
            FdError::Fs(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FdError {}

impl From<NetError> for FdError {
    fn from(e: NetError) -> Self {
        FdError::Net(e)
    }
}

/// One entry of an [`FdTable::poll`] call, `struct pollfd`-shaped: the
/// descriptor, the interests to watch, and the readiness reported back.
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// The descriptor to watch.
    pub fd: i32,
    /// Requested interests ([`Interest::ERROR`] is always reported).
    pub events: Interest,
    /// Readiness reported by the poll (empty when not ready).
    pub revents: Interest,
}

impl PollFd {
    /// Watch `fd` for `events`.
    pub fn new(fd: i32, events: Interest) -> Self {
        PollFd {
            fd,
            events,
            revents: Interest::EMPTY,
        }
    }
}

type FdResult<T> = SimResult<Result<T, FdError>>;

macro_rules! fd_try {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(err) => return Ok(Err(err.into())),
        }
    };
}

impl FdTable {
    /// Build a table over a node's substrate instance and RAM disk.
    pub fn new(sockets: EmpSockets, fs: RamDisk) -> Self {
        FdTable {
            sockets,
            fs,
            inner: Rc::new(RefCell::new(FdState {
                entries: HashMap::new(),
                // Descriptors 0-2 belong to stdio, as on a real system.
                next_fd: 3,
            })),
        }
    }

    /// The substrate underneath (for select and diagnostics).
    pub fn sockets(&self) -> &EmpSockets {
        &self.sockets
    }

    fn install(&self, entry: FdEntry) -> i32 {
        let mut st = self.inner.borrow_mut();
        let fd = st.next_fd;
        st.next_fd += 1;
        st.entries.insert(
            fd,
            FdSlot {
                entry,
                nonblocking: false,
            },
        );
        fd
    }

    /// `fcntl(F_SETFL, O_NONBLOCK)`: toggle nonblocking mode on a
    /// descriptor. A nonblocking socket fd makes `read`/`write`/`accept`
    /// return [`NetError::WouldBlock`] instead of parking; file fds accept
    /// the flag but never block anyway (the RAM disk is synchronous).
    pub fn set_nonblocking(&self, fd: i32, on: bool) -> Result<(), FdError> {
        let mut st = self.inner.borrow_mut();
        match st.entries.get_mut(&fd) {
            Some(slot) => {
                slot.nonblocking = on;
                Ok(())
            }
            None => Err(FdError::BadFd),
        }
    }

    /// `open(2)` on the RAM disk.
    pub fn open(&self, ctx: &ProcessCtx, path: &str) -> FdResult<i32> {
        let fh = fd_try!(self.fs.open(ctx, path)?.map_err(FdError::Fs));
        Ok(Ok(self.install(FdEntry::File(fh))))
    }

    /// `creat(2)` on the RAM disk.
    pub fn create(&self, ctx: &ProcessCtx, path: &str) -> FdResult<i32> {
        let fh = self.fs.create(ctx, path)?;
        Ok(Ok(self.install(FdEntry::File(fh))))
    }

    /// `socket(2)` + `connect(2)` to a substrate address.
    pub fn socket_connect(&self, ctx: &ProcessCtx, addr: SockAddr) -> FdResult<i32> {
        let conn = fd_try!(self.sockets.connect(ctx, addr)?);
        Ok(Ok(self.install(FdEntry::Socket(Rc::new(conn)))))
    }

    /// `socket(2)` + `bind(2)` + `listen(2)`.
    pub fn socket_listen(&self, ctx: &ProcessCtx, port: u16, backlog: usize) -> FdResult<i32> {
        let l = fd_try!(self.sockets.listen(ctx, port, backlog)?);
        Ok(Ok(self.install(FdEntry::Listener(Rc::new(l)))))
    }

    /// `accept(2)` on a listener fd; returns the connection's fd. On a
    /// nonblocking listener fd an empty backlog is
    /// [`NetError::WouldBlock`].
    pub fn accept(&self, ctx: &ProcessCtx, fd: i32) -> FdResult<i32> {
        let (l, nonblocking) = {
            let st = self.inner.borrow();
            match st.entries.get(&fd) {
                Some(FdSlot {
                    entry: FdEntry::Listener(l),
                    nonblocking,
                }) => (Rc::clone(l), *nonblocking),
                Some(_) => return Ok(Err(FdError::WrongKind)),
                None => return Ok(Err(FdError::BadFd)),
            }
        };
        let conn = if nonblocking {
            fd_try!(l.try_accept(ctx)?)
        } else {
            fd_try!(l.accept(ctx)?)
        };
        Ok(Ok(self.install(FdEntry::Socket(Rc::new(conn)))))
    }

    /// Look up a socket/file fd for a data operation.
    fn data_entry(&self, fd: i32) -> Result<(Result<FileHandle, Rc<Connection>>, bool), FdError> {
        let st = self.inner.borrow();
        match st.entries.get(&fd) {
            Some(slot) => match &slot.entry {
                FdEntry::File(fh) => Ok((Ok(*fh), slot.nonblocking)),
                FdEntry::Socket(c) => Ok((Err(Rc::clone(c)), slot.nonblocking)),
                FdEntry::Listener(_) => Err(FdError::WrongKind),
            },
            None => Err(FdError::BadFd),
        }
    }

    /// Generic `read(2)`: dispatches on what the descriptor names. On a
    /// nonblocking socket fd, nothing deliverable is
    /// [`NetError::WouldBlock`].
    pub fn read(&self, ctx: &ProcessCtx, fd: i32, max: usize) -> FdResult<Bytes> {
        match fd_try!(self.data_entry(fd)) {
            (Ok(fh), _) => {
                let data = fd_try!(self.fs.read(ctx, fh, max)?.map_err(FdError::Fs));
                Ok(Ok(data))
            }
            (Err(conn), nonblocking) => {
                let data = if nonblocking {
                    fd_try!(conn.try_read(ctx, max)?)
                } else {
                    fd_try!(conn.read(ctx, max)?)
                };
                Ok(Ok(data))
            }
        }
    }

    /// Generic `write(2)`. On a nonblocking socket fd the write accepts
    /// what the credits in hand allow (a partial count), or
    /// [`NetError::WouldBlock`] when no byte could be taken.
    pub fn write(&self, ctx: &ProcessCtx, fd: i32, data: &[u8]) -> FdResult<usize> {
        match fd_try!(self.data_entry(fd)) {
            (Ok(fh), _) => {
                let n = fd_try!(self.fs.write(ctx, fh, data)?.map_err(FdError::Fs));
                Ok(Ok(n))
            }
            (Err(conn), nonblocking) => {
                let n = if nonblocking {
                    fd_try!(conn.try_write(ctx, data)?)
                } else {
                    fd_try!(conn.write(ctx, data)?)
                };
                Ok(Ok(n))
            }
        }
    }

    /// Generic `close(2)`.
    pub fn close(&self, ctx: &ProcessCtx, fd: i32) -> FdResult<()> {
        let slot = {
            let mut st = self.inner.borrow_mut();
            match st.entries.remove(&fd) {
                Some(e) => e,
                None => return Ok(Err(FdError::BadFd)),
            }
        };
        match slot.entry {
            FdEntry::File(fh) => {
                fd_try!(self.fs.close(ctx, fh)?.map_err(FdError::Fs));
            }
            FdEntry::Socket(conn) => conn.close(ctx)?,
            FdEntry::Listener(l) => l.close(ctx)?,
        }
        Ok(Ok(()))
    }

    /// `poll(2)` over descriptors of any kind. Socket and listener fds go
    /// through the substrate's [`PollSet`]; file fds are always ready for
    /// whatever data interests were asked (the RAM disk never blocks);
    /// unknown fds report [`Interest::ERROR`] (POSIX `POLLNVAL`). Each
    /// entry's `revents` is filled in and the count of ready entries
    /// returned — zero only on timeout.
    ///
    /// A listener fd watched for [`Interest::READABLE`] reports
    /// [`Interest::ACCEPTABLE`], the way `POLLIN` covers accept on a real
    /// listening socket.
    pub fn poll(
        &self,
        ctx: &ProcessCtx,
        fds: &mut [PollFd],
        timeout: Option<SimDuration>,
    ) -> FdResult<usize> {
        let mut set = PollSet::new();
        let mut already_ready = false;
        for (idx, p) in fds.iter_mut().enumerate() {
            p.revents = Interest::EMPTY;
            let st = self.inner.borrow();
            match st.entries.get(&p.fd) {
                Some(slot) => match &slot.entry {
                    FdEntry::File(_) => {
                        p.revents = p.events & (Interest::READABLE | Interest::WRITABLE);
                        already_ready |= !p.revents.is_empty();
                    }
                    FdEntry::Socket(c) => {
                        let c = Rc::clone(c);
                        drop(st);
                        set.register_conn(&c, idx, p.events);
                    }
                    FdEntry::Listener(l) => {
                        let l = Rc::clone(l);
                        drop(st);
                        let mut interest = p.events;
                        if interest.intersects(Interest::READABLE) {
                            interest |= Interest::ACCEPTABLE;
                        }
                        set.register_listener(&l, idx, interest);
                    }
                },
                None => {
                    p.revents = Interest::ERROR;
                    already_ready = true;
                }
            }
        }
        if !set.is_empty() || timeout.is_some() {
            // With a file/unknown fd already ready, only sweep the socket
            // entries without parking.
            let effective = if already_ready {
                Some(SimDuration::ZERO)
            } else {
                timeout
            };
            if !(set.is_empty() && already_ready) {
                let events = fd_try!(set.poll(ctx, effective)?);
                for ev in events {
                    fds[ev.token].revents |= ev.ready;
                }
            }
        } else if !already_ready {
            // Nothing pollable and no timeout: the wait could never wake.
            return Ok(Err(FdError::Net(NetError::Invalid)));
        }
        Ok(Ok(fds.iter().filter(|p| !p.revents.is_empty()).count()))
    }

    /// Number of live descriptors (diagnostics; the ftp tests assert no
    /// leaks).
    pub fn live_fds(&self) -> usize {
        self.inner.borrow().entries.len()
    }
}

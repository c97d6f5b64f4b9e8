//! A RAM-disk filesystem.
//!
//! The paper's ftp experiment (§7.3) serves files from RAM disks "to remove
//! the effects of disk access and caching", and explicitly attributes the
//! gap between ftp throughput and the raw socket bandwidth to "the File
//! System overhead". This module models that overhead: each read/write pays
//! a VFS/syscall entry plus a copy through the (modest, PIII-era) RAM-disk
//! bandwidth.
//!
//! Methods that move data take a [`ProcessCtx`] and consume simulated time
//! directly, so application code reads like ordinary blocking file I/O.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use simnet::{ProcessCtx, SimAccess, SimDuration, SimResult};

/// Filesystem timing parameters.
#[derive(Clone, Debug)]
pub struct FsConfig {
    /// Fixed cost per filesystem call (syscall entry + VFS path).
    pub call_overhead: SimDuration,
    /// Sustained RAM-disk copy bandwidth, bytes per second. This is the
    /// "file system overhead" knob: ~110 MB/s makes the simulated ftp land
    /// at roughly half the raw socket bandwidth, as in Figure 14.
    pub bytes_per_sec: u64,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig {
            call_overhead: SimDuration::from_micros(3),
            bytes_per_sec: 110_000_000,
        }
    }
}

/// A file descriptor into a [`RamDisk`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FileHandle(pub u32);

#[derive(Debug)]
struct OpenFile {
    path: String,
    offset: usize,
}

#[derive(Default)]
struct FsState {
    /// Each file is one buffer, appended in place by [`RamDisk::write`].
    files: BTreeMap<String, Vec<u8>>,
    open: BTreeMap<u32, OpenFile>,
    next_fd: u32,
}

/// Filesystem errors (a small errno subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist.
    NotFound,
    /// File handle is not open.
    BadHandle,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file"),
            FsError::BadHandle => write!(f, "bad file handle"),
        }
    }
}

impl std::error::Error for FsError {}

/// The RAM disk of one host. Clone-able handle; state is shared.
#[derive(Clone)]
pub struct RamDisk {
    cfg: FsConfig,
    state: Arc<Mutex<FsState>>,
}

impl RamDisk {
    /// An empty RAM disk.
    pub fn new(cfg: FsConfig) -> Self {
        RamDisk {
            cfg,
            state: Arc::new(Mutex::new(FsState::default())),
        }
    }

    /// Instantly create `path` with the given contents (test/benchmark
    /// setup; consumes no simulated time).
    pub fn put(&self, path: impl Into<String>, data: impl Into<Vec<u8>>) {
        self.state.lock().files.insert(path.into(), data.into());
    }

    /// Create `path` filled with `len` deterministic bytes (setup helper).
    pub fn put_synthetic(&self, path: impl Into<String>, len: usize) {
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        self.put(path, data);
    }

    /// File size without opening (stat-like; costs one call overhead).
    pub fn len_of(&self, ctx: &ProcessCtx, path: &str) -> SimResult<Result<usize, FsError>> {
        ctx.delay(self.cfg.call_overhead)?;
        Ok(self
            .state
            .lock()
            .files
            .get(path)
            .map(|d| d.len())
            .ok_or(FsError::NotFound))
    }

    /// True if `path` exists (no simulated cost; metadata convenience).
    pub fn exists(&self, path: &str) -> bool {
        self.state.lock().files.contains_key(path)
    }

    /// List all paths (no simulated cost; used by the ftp server's LIST).
    pub fn list(&self) -> Vec<String> {
        self.state.lock().files.keys().cloned().collect()
    }

    /// Open an existing file for reading/writing at offset 0.
    pub fn open(&self, ctx: &ProcessCtx, path: &str) -> SimResult<Result<FileHandle, FsError>> {
        ctx.delay(self.cfg.call_overhead)?;
        let mut st = self.state.lock();
        if !st.files.contains_key(path) {
            return Ok(Err(FsError::NotFound));
        }
        let fd = st.next_fd;
        st.next_fd += 1;
        st.open.insert(
            fd,
            OpenFile {
                path: path.to_string(),
                offset: 0,
            },
        );
        Ok(Ok(FileHandle(fd)))
    }

    /// Create (or truncate) a file and open it for writing.
    pub fn create(&self, ctx: &ProcessCtx, path: &str) -> SimResult<FileHandle> {
        ctx.delay(self.cfg.call_overhead)?;
        let mut st = self.state.lock();
        st.files.insert(path.to_string(), Vec::new());
        let fd = st.next_fd;
        st.next_fd += 1;
        st.open.insert(
            fd,
            OpenFile {
                path: path.to_string(),
                offset: 0,
            },
        );
        Ok(FileHandle(fd))
    }

    /// Read up to `len` bytes at the current offset, advancing it. An empty
    /// result means end-of-file. Consumes call overhead + copy time.
    pub fn read(
        &self,
        ctx: &ProcessCtx,
        fd: FileHandle,
        len: usize,
    ) -> SimResult<Result<Bytes, FsError>> {
        let chunk = {
            let mut st = self.state.lock();
            let Some(of) = st.open.get(&fd.0) else {
                drop(st);
                ctx.delay(self.cfg.call_overhead)?;
                return Ok(Err(FsError::BadHandle));
            };
            let data = st.files.get(&of.path).map_or(&[][..], |d| &d[..]);
            let end = (of.offset + len).min(data.len());
            let chunk = Bytes::copy_from_slice(&data[of.offset.min(end)..end]);
            st.open.get_mut(&fd.0).expect("checked above").offset = end;
            chunk
        };
        ctx.delay(
            self.cfg.call_overhead
                + SimDuration::for_bytes_at_rate(chunk.len() as u64, self.cfg.bytes_per_sec),
        )?;
        ctx.telemetry()
            .counter("fs.bytes_read")
            .add(chunk.len() as u64);
        Ok(Ok(chunk))
    }

    /// Append `data` at the current offset (simple append-only write model:
    /// offsets always end up at the end of what was written).
    pub fn write(
        &self,
        ctx: &ProcessCtx,
        fd: FileHandle,
        data: &[u8],
    ) -> SimResult<Result<usize, FsError>> {
        {
            let mut st = self.state.lock();
            let FsState { files, open, .. } = &mut *st;
            let Some(of) = open.get_mut(&fd.0) else {
                drop(st);
                ctx.delay(self.cfg.call_overhead)?;
                return Ok(Err(FsError::BadHandle));
            };
            let file = files.entry(of.path.clone()).or_default();
            file.resize(of.offset, 0);
            file.extend_from_slice(data);
            of.offset += data.len();
        }
        ctx.delay(
            self.cfg.call_overhead
                + SimDuration::for_bytes_at_rate(data.len() as u64, self.cfg.bytes_per_sec),
        )?;
        ctx.telemetry()
            .counter("fs.bytes_written")
            .add(data.len() as u64);
        Ok(Ok(data.len()))
    }

    /// Close a handle (costs one call overhead).
    pub fn close(&self, ctx: &ProcessCtx, fd: FileHandle) -> SimResult<Result<(), FsError>> {
        ctx.delay(self.cfg.call_overhead)?;
        match self.state.lock().open.remove(&fd.0) {
            Some(_) => Ok(Ok(())),
            None => Ok(Err(FsError::BadHandle)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Sim, SimAccess};

    fn disk() -> RamDisk {
        RamDisk::new(FsConfig::default())
    }

    #[test]
    fn read_roundtrip_with_costs() {
        let sim = Sim::new();
        let fs = disk();
        fs.put("a.txt", &b"hello world"[..]);
        let fs2 = fs.clone();
        sim.spawn("reader", move |ctx| {
            let fd = fs2.open(ctx, "a.txt")?.expect("file exists");
            let t0 = ctx.now();
            let chunk = fs2.read(ctx, fd, 5)?.expect("read");
            assert_eq!(&chunk[..], b"hello");
            assert!(ctx.now() > t0, "read must consume simulated time");
            let rest = fs2.read(ctx, fd, 100)?.expect("read");
            assert_eq!(&rest[..], b" world");
            let eof = fs2.read(ctx, fd, 100)?.expect("read");
            assert!(eof.is_empty());
            fs2.close(ctx, fd)?.expect("close");
            Ok(())
        });
        sim.run();
    }

    #[test]
    fn write_then_read_back() {
        let sim = Sim::new();
        let fs = disk();
        let fs2 = fs.clone();
        sim.spawn("writer", move |ctx| {
            let fd = fs2.create(ctx, "out.bin")?;
            fs2.write(ctx, fd, b"abc")?.expect("write");
            fs2.write(ctx, fd, b"def")?.expect("write");
            fs2.close(ctx, fd)?.expect("close");
            let fd = fs2.open(ctx, "out.bin")?.expect("exists");
            let all = fs2.read(ctx, fd, 100)?.expect("read");
            assert_eq!(&all[..], b"abcdef");
            Ok(())
        });
        sim.run();
        assert!(fs.exists("out.bin"));
    }

    #[test]
    fn missing_file_errors() {
        let sim = Sim::new();
        let fs = disk();
        let fs2 = fs.clone();
        sim.spawn("p", move |ctx| {
            assert_eq!(fs2.open(ctx, "nope")?, Err(FsError::NotFound));
            assert_eq!(fs2.len_of(ctx, "nope")?, Err(FsError::NotFound));
            assert_eq!(fs2.read(ctx, FileHandle(99), 1)?, Err(FsError::BadHandle));
            assert_eq!(fs2.close(ctx, FileHandle(99))?, Err(FsError::BadHandle));
            Ok(())
        });
        sim.run();
    }

    #[test]
    fn large_read_takes_proportional_time() {
        let sim = Sim::new();
        let fs = RamDisk::new(FsConfig {
            call_overhead: SimDuration::ZERO,
            bytes_per_sec: 1_000_000,
        });
        fs.put_synthetic("big", 1_000_000);
        let fs2 = fs.clone();
        sim.spawn("p", move |ctx| {
            let fd = fs2.open(ctx, "big")?.expect("exists");
            let t0 = ctx.now();
            let data = fs2.read(ctx, fd, 1_000_000)?.expect("read");
            assert_eq!(data.len(), 1_000_000);
            // 1 MB at 1 MB/s = 1 simulated second.
            assert_eq!((ctx.now() - t0), SimDuration::from_secs(1));
            Ok(())
        });
        sim.run();
    }

    #[test]
    fn synthetic_contents_are_deterministic() {
        let fs = disk();
        fs.put_synthetic("x", 512);
        fs.put_synthetic("y", 512);
        let sx = fs.state.lock().files.get("x").cloned().unwrap();
        let sy = fs.state.lock().files.get("y").cloned().unwrap();
        assert_eq!(sx, sy);
        assert_eq!(sx[0], 0);
        assert_eq!(sx[250], 250);
        assert_eq!(sx[251], 0);
    }
}

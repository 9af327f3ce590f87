//! The things a workload leaves behind if nobody cleans up: spawned
//! `shard_server` children and scratch directories. Both are owned by
//! guards whose `Drop` kills the child (and waits for it) or removes the
//! directory, so they go away on a panic's unwind as well as on success.

use std::io::BufRead as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

/// A spawned `shard_server` child process serving an in-memory engine on
/// an ephemeral loopback port.
pub struct ShardServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ShardServerProc {
    /// Spawn `bin` and wait for its `LISTENING <addr>` announcement.
    pub fn spawn(bin: &Path) -> Result<ShardServerProc, String> {
        let mut child = Command::new(bin)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // From here the guard owns the child: an early return kills it.
        let mut server = ShardServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read shard_server announcement: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .ok_or_else(|| format!("unexpected shard_server announcement: {line:?}"))?
            .parse()
            .map_err(|e| format!("shard_server announced a bad address: {e}"))?;
        Ok(server)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set of the child so far, in KiB. Read it before the
    /// guard drops: a reaped process has no `/proc` entry.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        peak_rss_kib(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for ShardServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of this process, in KiB.
pub fn self_peak_rss_kib() -> Result<u64, String> {
    peak_rss_kib("/proc/self/status")
}

fn peak_rss_kib(status_path: &str) -> Result<u64, String> {
    let status =
        std::fs::read_to_string(status_path).map_err(|e| format!("read {status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {status_path}"))
}

/// The `shard_server` binary: `run.sh` builds it next to `jbbench`; a
/// test binary lives one directory further down, in `deps/`.
pub fn shard_server_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let beside = exe.with_file_name("shard_server");
    let above = exe
        .parent()
        .and_then(Path::parent)
        .map(|dir| dir.join("shard_server"));
    [Some(beside.clone()), above]
        .into_iter()
        .flatten()
        .find(|bin| bin.exists())
        .ok_or_else(|| {
            format!(
                "shard_server binary not found at {} — build it first: cargo build --release \
                 --manifest-path jbbench/Cargo.toml -p joinboost --bin shard_server",
                beside.display()
            )
        })
}

/// A scratch directory under the benchmark's own output directory (the
/// benchmark writes nowhere else), removed when the guard drops.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Make a fresh, empty directory under `parent`.
    pub fn new(parent: &Path, hint: &str) -> Result<ScratchDir, String> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = parent.join(format!(
            "tmp-{}-{}-{hint}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        // A leftover from a killed run with a recycled pid would hold a
        // stale store; start from nothing.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total size of the regular files directly inside, in bytes.
    pub fn bytes_on_disk(&self) -> Result<u64, String> {
        let mut total = 0;
        let entries =
            std::fs::read_dir(&self.path).map_err(|e| format!("{}: {e}", self.path.display()))?;
        for entry in entries {
            let meta = entry
                .and_then(|e| e.metadata())
                .map_err(|e| format!("{}: {e}", self.path.display()))?;
            if meta.is_file() {
                total += meta.len();
            }
        }
        Ok(total)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_panic() {
        let parent = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-procs-{}", std::process::id()));
        let kept;
        {
            let dir = ScratchDir::new(&parent, "a").unwrap();
            std::fs::write(dir.path().join("f"), b"12345").unwrap();
            assert_eq!(dir.bytes_on_disk().unwrap(), 5);
            kept = dir.path().to_path_buf();
        }
        assert!(!kept.exists());
        let parent2 = parent.clone();
        let seen = std::panic::catch_unwind(move || {
            let dir = ScratchDir::new(&parent2, "b").unwrap();
            let path = dir.path().to_path_buf();
            std::panic::resume_unwind(Box::new(path));
        })
        .unwrap_err();
        let path = seen.downcast::<PathBuf>().unwrap();
        assert!(!path.exists(), "the unwind must remove the directory");
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn reads_own_peak_rss() {
        assert!(self_peak_rss_kib().unwrap() > 0);
    }
}

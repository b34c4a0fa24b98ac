//! The `indaas serve` child process: spawn, address discovery, `/proc`
//! accounting, and clean-up on every exit path.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::gen::SHARDS;
use crate::stats::parse_status_field;

/// Result-cache capacity the daemon is booted with. A cold workload
/// inserts a ~180 KB report per op, so with the default 4,096 entries
/// the daemon's peak memory would grow with the number of ops a run
/// fits into its window — a faster daemon would score a *worse*
/// `peak_rss_mib`. At 128 every cold run fills the cache well inside
/// its window (≥ 200 ops) and measures the steady state; `sia_hot`'s 64
/// specs still fit twice over.
pub const CACHE_CAPACITY: usize = 128;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const BOOT_DEADLINE: Duration = Duration::from_secs(20);

/// A scratch directory under the build directory (the benchmark may
/// write nowhere else), removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(target_dir: &Path) -> Result<Self, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = target_dir.join(format!("bench_pipeline/tmp-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running daemon. Dropping it — on success, on error, or while a
/// panic unwinds — kills the child and waits for it.
pub struct Daemon {
    child: Child,
    pub addr: String,
    stderr_path: PathBuf,
}

impl Daemon {
    /// Spawns `indaas serve` over `records` and returns once it has
    /// announced the address it listens on (which it does after the
    /// records are loaded).
    pub fn spawn(indaas: &Path, records: &Path, scratch: &Path) -> Result<Self, String> {
        let stderr_path = scratch.join("daemon.stderr");
        let stderr = std::fs::File::create(&stderr_path)
            .map_err(|e| format!("creating {}: {e}", stderr_path.display()))?;
        let child = Command::new(indaas)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers", "1"])
            .args(["--shards", &SHARDS.to_string()])
            .args(["--cache", &CACHE_CAPACITY.to_string()])
            .arg("--records")
            .arg(records)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", indaas.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stderr_path,
        };
        let booted = Instant::now();
        loop {
            if let Some(addr) = listen_addr(&daemon.stderr()) {
                daemon.addr = addr;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(daemon.failure(&format!("daemon exited during boot: {status}")));
            }
            if booted.elapsed() > BOOT_DEADLINE {
                return Err(daemon.failure("daemon never announced its address"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn stderr(&self) -> String {
        std::fs::read_to_string(&self.stderr_path).unwrap_or_default()
    }

    /// `message` followed by what the daemon wrote to stderr.
    pub fn failure(&self, message: &str) -> String {
        format!("{message}\n--- daemon stderr ---\n{}", self.stderr())
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))
    }

    /// CPU time (user + system, all threads) the daemon has used, ms,
    /// from its process CPU-time clock: that has nanosecond resolution
    /// where `/proc/<pid>/stat` has 10 ms ticks, so it can be read
    /// around a single op.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        // The id `clock_getcpuclockid(3)` computes: the pid's complement
        // above three flag bits, of which 2 selects the scheduler's
        // exact accounting.
        let pid = i32::try_from(self.child.id()).map_err(|e| format!("daemon pid: {e}"))?;
        let clock_id = (!pid << 3) | 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `timespec` for the call.
        if unsafe { clock_gettime(clock_id, &mut ts) } != 0 {
            return Err(format!(
                "reading the daemon's CPU clock: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6)
    }

    fn status_field(&self, key: &str) -> Result<u64, String> {
        parse_status_field(&self.proc_file("status")?, key)
            .ok_or_else(|| format!("no {key} in /proc/<pid>/status"))
    }

    /// High-water mark of the daemon's resident set, MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        Ok(self.status_field("VmHWM")? as f64 / 1024.0)
    }

    pub fn threads(&self) -> Result<u64, String> {
        self.status_field("Threads")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The address in the daemon's listen banner: the last token of the
/// line, once the whole line is there (stderr is unbuffered, so a read
/// can catch the banner with its port half written).
fn listen_addr(stderr: &str) -> Option<String> {
    stderr
        .split_inclusive('\n')
        .find(|l| l.contains("listening on") && l.ends_with('\n'))?
        .split_ascii_whitespace()
        .last()
        .filter(|addr| addr.parse::<std::net::SocketAddr>().is_ok())
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_address() {
        let log = "ts=1790384099208 INFO serve: indaas daemon listening on 127.0.0.1:40123\n";
        assert_eq!(listen_addr(log).as_deref(), Some("127.0.0.1:40123"));
        // A half-written banner is not an address yet.
        assert_eq!(listen_addr(&log[..log.len() - 3]), None);
        assert_eq!(listen_addr(""), None);
    }
}

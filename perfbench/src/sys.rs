//! Host-side probes (`/proc` CPU time and peak RSS) and the spawned
//! `disc_served` process.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use disc_serve::Client;

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, which is
/// 100 per second on every architecture Linux exposes to user space.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of process `pid` (`"self"` for this one),
/// all threads included.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Number of CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A running `disc_served` with its two client connections.
pub struct Served {
    child: Child,
    /// `HOST:PORT` the server listens on.
    addr: String,
    evict_dir: PathBuf,
}

impl Served {
    /// Spawns `disc_served --workers 2` on an ephemeral port, with its
    /// own eviction directory under `out_dir`, waits for the address it
    /// prints, and opens `clients` connections (each reads the server's
    /// `hello`).
    ///
    /// # Errors
    ///
    /// Spawn, address or connection failures, as text.
    pub fn start(
        exe: &Path,
        out_dir: &Path,
        clients: usize,
    ) -> Result<(Served, Vec<Client>), String> {
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        let n = STARTED.fetch_add(1, Ordering::Relaxed);
        let evict_dir = out_dir.join(format!("evict-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&evict_dir).map_err(|e| format!("evict dir: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--print-addr"])
            .arg("--evict-dir")
            .arg(&evict_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let mut served = Served {
            child,
            addr: line.trim().to_string(),
            evict_dir,
        };
        if read.is_err() || served.addr.is_empty() {
            served.kill();
            return Err("disc_served printed no address".into());
        }
        let mut conns = Vec::new();
        for _ in 0..clients {
            match Client::connect(&served.addr) {
                Ok(c) => conns.push(c),
                Err(e) => {
                    served.kill();
                    return Err(format!("connect {}: {e}", served.addr));
                }
            }
        }
        Ok((served, conns))
    }

    /// The server's process id, as `/proc` names it.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the server to shut down and waits for it; kills it when it
    /// does not exit within five seconds.
    pub fn stop(mut self) {
        let clean = Client::connect(&self.addr)
            .and_then(|mut c| c.shutdown())
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(5);
        while clean && Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                self.cleanup();
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.cleanup();
    }

    fn cleanup(&mut self) {
        let _ = std::fs::remove_dir_all(&self.evict_dir);
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

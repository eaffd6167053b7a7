//! The `unigen_cli serve` daemon under test: spawn, readiness, probes
//! read from outside the process, and shutdown.

use std::fs;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use crate::wireconn::WireConn;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed at
/// 100 in the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// How long a daemon may take to become ready before the run fails.
const READY_TIMEOUT: Duration = Duration::from_secs(150);

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    pid: u32,
    sock: PathBuf,
}

/// How the daemon is started.
pub struct DaemonSpec<'a> {
    /// The `unigen_cli` binary.
    pub binary: &'a Path,
    /// Unix socket path (relative to the working directory, to stay under
    /// the socket-path length limit).
    pub sock: PathBuf,
    /// `--jobs`.
    pub jobs: usize,
    /// `--max-formulas`.
    pub max_formulas: u64,
    /// Resident DIMACS files, prepared before the daemon binds.
    pub residents: &'a [PathBuf],
}

impl Daemon {
    /// Spawn the daemon and wait until a connect succeeds and `HelloAck`
    /// arrives. Returns the daemon, that control connection, and the time
    /// from spawn to `HelloAck` (the set-up time, resident preload
    /// included).
    pub fn start(spec: &DaemonSpec<'_>) -> Result<(Daemon, WireConn, Duration), String> {
        match fs::remove_file(&spec.sock) {
            Ok(()) => {}
            Err(err) if err.kind() == io::ErrorKind::NotFound => {}
            Err(err) => return Err(format!("removing stale socket: {err}")),
        }
        let mut cmd = Command::new(spec.binary);
        cmd.arg("serve")
            .arg("--unix")
            .arg(&spec.sock)
            .arg("--jobs")
            .arg(spec.jobs.to_string())
            .arg("--max-formulas")
            .arg(spec.max_formulas.to_string())
            .arg("--allow-shutdown")
            .arg("--quiet")
            .args(spec.residents)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        let started = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|err| format!("spawning {}: {err}", spec.binary.display()))?;
        let pid = child.id();
        let mut daemon = Daemon {
            child,
            pid,
            sock: spec.sock.clone(),
        };
        // Readiness: retry the connect itself. The socket only appears
        // once every resident is prepared.
        loop {
            if let Some(status) = daemon.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("daemon exited before it was ready: {status}"));
            }
            if let Ok(stream) = UnixStream::connect(&daemon.sock) {
                let conn = WireConn::handshake(stream)?;
                let setup = started.elapsed();
                return Ok((daemon, conn, setup));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err("daemon not ready within the timeout".to_owned());
            }
            thread::sleep(Duration::from_micros(500));
        }
    }

    /// Open another client connection.
    pub fn connect(&self) -> Result<WireConn, String> {
        let stream = UnixStream::connect(&self.sock).map_err(|e| format!("connect: {e}"))?;
        WireConn::handshake(stream)
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn rss_peak_mb(&self) -> Option<f64> {
        status_field(self.pid, "VmHWM:").map(|kb| kb as f64 / 1024.0)
    }

    /// Current thread count.
    pub fn threads(&self) -> Option<u64> {
        status_field(self.pid, "Threads:")
    }

    /// User plus system CPU time consumed so far, in seconds.
    pub fn cpu_s(&self) -> Option<f64> {
        let stat = fs::read_to_string(format!("/proc/{}/stat", self.pid)).ok()?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: u64 = fields.get(11)?.parse().ok()?;
        let stime: u64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) as f64 / USER_HZ)
    }

    /// Ask the daemon to exit over `control` and wait for it; kill it if it
    /// has not exited within ten seconds.
    pub fn shutdown(mut self, mut control: WireConn) -> Result<(), String> {
        let asked = control.shutdown_server();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                let _ = fs::remove_file(&self.sock);
                asked?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            thread::sleep(Duration::from_millis(5));
        }
        Err("daemon ignored Shutdown; killed".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = fs::remove_file(&self.sock);
    }
}

/// A `kB` or count field of `/proc/<pid>/status`.
fn status_field(pid: u32, key: &str) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

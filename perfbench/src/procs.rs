//! Child `sfo serve` daemons, peak memory, and the run deadline.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

/// Pids of live daemons, so the deadline can stop them before the process exits.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// One `sfo serve` child process.
pub struct Daemon {
    child: Child,
    /// The address it listens on, as it announced.
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts `sfo serve <snapshot> --listen 127.0.0.1:0 <extra...>` and waits for
    /// its `serving <snapshot> on <addr> ...` announcement.
    pub fn spawn(sfo: &Path, snapshot: &str, extra: &[&str]) -> Result<Daemon, String> {
        let mut child = Command::new(sfo)
            .arg("serve")
            .arg(snapshot)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sfo.display()))?;
        LIVE.lock()
            .expect("daemon registry poisoned")
            .push(child.id());
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let read = stderr.read_line(&mut line);
        let prefix = format!("serving {snapshot} on ");
        let addr = line
            .strip_prefix(&prefix)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            unregister(child.id());
            return Err(format!("sfo serve did not start: {}", line.trim()));
        };
        // Pass anything else the daemon says through to our stderr.
        let drain = std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                let _ = writeln!(std::io::stderr(), "[sfo serve] {line}");
            }
        });
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// The daemon's peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb_of(&format!("/proc/{}/status", self.child.id()))
    }

    /// Stops the daemon and waits for it; returns its peak resident set in MiB.
    pub fn stop(mut self) -> f64 {
        let peak = self.peak_rss_mb();
        self.shutdown();
        peak
    }

    fn shutdown(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        unregister(self.child.id());
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn unregister(pid: u32) {
    if let Ok(mut live) = LIVE.lock() {
        live.retain(|&p| p != pid);
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB (0 where it cannot be read).
fn peak_rss_mb_of(status: &str) -> f64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// This process's peak resident set, in MiB.
pub fn own_peak_rss_mb() -> f64 {
    peak_rss_mb_of("/proc/self/status")
}

/// Ends the process with code 3 after `limit`, first killing any live daemon, so
/// that a hung run still exits in bounded time without leaving children behind.
pub fn arm_deadline(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {} s; stopping", limit.as_secs());
        let pids: Vec<u32> = LIVE.lock().map(|l| l.clone()).unwrap_or_default();
        for pid in pids {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        std::process::exit(3);
    });
}

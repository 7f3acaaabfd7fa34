//! The `ukc serve` process under test: spawned with default flags on an
//! ephemeral port, addressed through its `listening on` stderr line, and
//! always killed and reaped.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// The flags every server runs with: in-memory, default kernel, no
/// staleness budget. Only the address is given, and it asks for any port.
pub const FLAGS: &[&str] = &["serve", "--addr", "127.0.0.1:0"];

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<String>>,
}

impl Server {
    /// Spawns the server and blocks on its stderr until it prints the
    /// bound address. No sleeping, no polling: the line arrives once the
    /// listener is bound, so the first connect succeeds.
    pub fn spawn(ukc: &Path) -> Result<Server, String> {
        let mut child = Command::new(ukc)
            .args(FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", ukc.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stderr.read_line(&mut line).unwrap_or(0);
            if read == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server exited before listening: {line}"));
            }
            if let Some(rest) = line.trim().split("listening on ").nth(1) {
                match rest.parse::<SocketAddr>() {
                    Ok(addr) => break addr,
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("bad listening line {line:?}: {e}"));
                    }
                }
            }
        };
        // Keep draining stderr so the server can never block on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            rest
        });
        Ok(Server {
            child,
            addr,
            stderr: Some(drain),
        })
    }

    /// The server's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line in /proc status".to_string())
    }

    /// Kills the server and waits until it and the drain thread are gone.
    pub fn stop(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

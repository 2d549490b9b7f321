//! The daemon under test as a child process: spawn, find its port, read
//! its memory from `/proc`, SIGKILL it, and never leave it running.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// The `upa-serverd` binary: `$UPA_SERVERD`, else the sibling of this
/// executable (both are built into one target directory).
pub fn serverd_path() -> io::Result<PathBuf> {
    if let Some(path) = std::env::var_os("UPA_SERVERD") {
        return Ok(PathBuf::from(path));
    }
    let sibling = std::env::current_exe()?.with_file_name("upa-serverd");
    if sibling.is_file() {
        Ok(sibling)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} not found: build the whole benchmark package or set UPA_SERVERD",
                sibling.display()
            ),
        ))
    }
}

/// A running daemon. Dropping it kills the process and waits for it.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    addr: String,
    // Held so a later write to stdout cannot hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns `bin` with `args` and blocks until it announces its
    /// address on stdout (its first line, by contract with the daemon).
    /// The daemon's event log goes to `stderr_file`.
    ///
    /// # Errors
    ///
    /// Spawn failures, or the daemon exiting before it listens (the
    /// error carries the tail of its stderr).
    pub fn spawn(bin: &Path, args: &[String], stderr_file: &Path) -> io::Result<Daemon> {
        let stderr = std::fs::File::create(stderr_file)?;
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut first = String::new();
        let read = stdout.read_line(&mut first);
        let addr = first
            .trim()
            .strip_prefix("upa-server listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                addr,
                _stdout: stdout,
            }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                let log = std::fs::read_to_string(stderr_file).unwrap_or_default();
                let tail: Vec<&str> = log.lines().rev().take(5).collect();
                Err(io::Error::other(format!(
                    "daemon did not announce an address (read: {read:?}, line: {first:?}); stderr tail: {tail:?}"
                )))
            }
        }
    }

    /// The `host:port` the daemon listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A `Vm*` field of `/proc/<pid>/status`, in kB (`VmHWM` is the peak
    /// resident set, `VmRSS` the current one).
    pub fn status_kb(&self, field: &str) -> Option<u64> {
        proc_status_kb(&format!("/proc/{}/status", self.child.id()), field)
    }

    /// SIGKILLs the daemon and reaps it.
    pub fn kill(mut self) {
        self.kill_and_wait();
    }

    /// Waits for a daemon that was asked to shut down; kills it if it
    /// has not exited after `patience`.
    pub fn wait_exit(mut self, patience: std::time::Duration) {
        let deadline = std::time::Instant::now() + patience;
        while std::time::Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // Dropping `self` kills and reaps it.
    }

    fn kill_and_wait(&mut self) {
        // `Child::kill` is SIGKILL on Unix; an already-exited child is
        // not an error worth reporting.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill_and_wait();
    }
}

/// Parses one `Name:   123 kB` field out of a `/proc/<pid>/status` file.
pub fn proc_status_kb(path: &str, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(path).ok()?;
    parse_status_kb(&status, field)
}

fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status =
            "Name:\tupa-serverd\nVmPeak:\t  300000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t    9876 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(12_345));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(9_876));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb(status, "Vm"), None);
        assert!(proc_status_kb("/proc/self/status", "VmHWM").is_some_and(|kb| kb > 0));
    }
}

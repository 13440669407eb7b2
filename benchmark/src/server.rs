//! The `cnp_server` process under test: spawn, connect, read its counters
//! from `/v1/health` and its CPU, context switches and memory from `/proc`.

use cnp_serve::json::Json;
use cnp_server::http::{self, ClientResponse, HttpError};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Linux reports `/proc/<pid>/stat` CPU times in ticks of this rate.
const TICKS_PER_SECOND: f64 = 100.0;

/// A running `cnp_server`; killed and reaped on drop.
pub struct ServerProcess {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Spawns the binary on `snapshot` with two workers and the default
    /// compaction threshold, and waits for its "listening on" line.
    pub fn spawn(bin: &Path, snapshot: &Path) -> Result<ServerProcess, String> {
        let mut child = Command::new(bin)
            .arg("--snapshot")
            .arg(snapshot)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--compact-threshold",
                "4",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("server stdout is not piped")?;
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .strip_prefix("cnp_server listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok());
        let mut server = ServerProcess {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!("server did not start: {line:?}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time, summed context switches and peak resident memory now.
    pub fn sample(&self) -> Result<ProcSample, String> {
        ProcSample::read(self.pid())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Counters of the server process at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU time of all threads, in seconds.
    pub cpu_s: f64,
    pub voluntary: u64,
    pub involuntary: u64,
    /// `VmHWM`, in kB.
    pub peak_rss_kb: u64,
}

impl ProcSample {
    fn read(pid: u32) -> Result<ProcSample, String> {
        let field = |text: &str, key: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
        let mut sample = ProcSample {
            peak_rss_kb: field(&status, "VmHWM:"),
            ..ProcSample::default()
        };
        let mut runtime_ms = Some(0.0);
        let tasks = std::fs::read_dir(format!("/proc/{pid}/task"))
            .map_err(|e| format!("/proc/{pid}/task: {e}"))?;
        for task in tasks.flatten() {
            if let Ok(text) = std::fs::read_to_string(task.path().join("status")) {
                sample.voluntary += field(&text, "voluntary_ctxt_switches:");
                sample.involuntary += field(&text, "nonvoluntary_ctxt_switches:");
            }
            // Per-thread run time in milliseconds with nanosecond digits,
            // where the kernel exposes it; the sum covers every thread that
            // is alive, and the server's threads live as long as it does.
            let ran = std::fs::read_to_string(task.path().join("sched"))
                .ok()
                .and_then(|text| {
                    text.lines()
                        .find_map(|l| l.strip_prefix("se.sum_exec_runtime"))
                        .and_then(|v| v.trim_start_matches([' ', ':']).trim().parse::<f64>().ok())
                });
            runtime_ms = runtime_ms.zip(ran).map(|(a, b)| a + b);
        }
        sample.cpu_s = match runtime_ms {
            Some(ms) => ms / 1e3,
            None => {
                // utime + stime, fields 14 and 15 of the line, counted
                // from after the parenthesised command name.
                let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
                    .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
                let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
                let fields: Vec<&str> = rest.split_whitespace().collect();
                let tick = |i: usize| {
                    fields
                        .get(i)
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0)
                };
                (tick(11) + tick(12)) as f64 / TICKS_PER_SECOND
            }
        };
        Ok(sample)
    }
}

/// One keep-alive client connection.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Conn {
            addr,
            stream,
            reader,
        })
    }

    /// Writes one complete request and reads its response. A response that
    /// closes the connection, or an error, reconnects for the next call.
    pub fn exchange(&mut self, raw: &[u8]) -> Result<ClientResponse, HttpError> {
        let result = self
            .stream
            .write_all(raw)
            .map_err(HttpError::Io)
            .and_then(|()| http::read_client_response(&mut self.reader, http::MAX_BODY_BYTES))
            .and_then(|r| r.ok_or(HttpError::Malformed("server closed the connection")));
        let reconnect = match &result {
            Ok(response) => !response.keep_alive,
            Err(_) => true,
        };
        if reconnect {
            if let Ok(fresh) = Conn::connect(self.addr) {
                *self = fresh;
            }
        }
        result
    }

    /// `GET /v1/health`.
    pub fn health(&mut self) -> Result<Health, String> {
        let mut raw = Vec::new();
        http::write_request(&mut raw, "GET", "/v1/health", None, true)
            .map_err(|e| e.to_string())?;
        let response = self.exchange(&raw).map_err(|e| format!("health: {e}"))?;
        let doc = std::str::from_utf8(&response.body)
            .ok()
            .and_then(|t| Json::parse(t).ok())
            .ok_or("health: unparseable body")?;
        let stat = |key: &str| {
            doc.get("stats")
                .and_then(|s| s.get(key))
                .and_then(Json::as_u64)
                .ok_or(format!("health: stats.{key} missing"))
        };
        Ok(Health {
            requests: stat("requests")?,
            ok: stat("responsesOk")?,
            error: stat("responsesError")?,
            overloaded: stat("overloaded")?,
            malformed: stat("malformed")?,
            lookup: stat("kindLookup")?,
            tag: stat("kindTag")?,
        })
    }
}

/// The `/v1/health` counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Health {
    pub requests: u64,
    pub ok: u64,
    pub error: u64,
    pub overloaded: u64,
    pub malformed: u64,
    pub lookup: u64,
    pub tag: u64,
}

impl Health {
    /// Counter deltas from `self` to `later`.
    pub fn delta(&self, later: &Health) -> Health {
        Health {
            requests: later.requests - self.requests,
            ok: later.ok - self.ok,
            error: later.error - self.error,
            overloaded: later.overloaded - self.overloaded,
            malformed: later.malformed - self.malformed,
            lookup: later.lookup - self.lookup,
            tag: later.tag - self.tag,
        }
    }
}

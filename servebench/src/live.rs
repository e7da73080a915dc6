//! The live server: spawning `rpr serve`, driving closed-loop traffic
//! over keep-alive connections, and reading the process's counters.

use crate::gen::{Kind, Request};
use crate::prom;
use rpr_serve::HttpClient;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Closed-loop connections: one per vCPU of the reference host, so
/// both stay busy and no idle core's wake-up cost enters the figures.
pub const CONNECTIONS: u64 = 2;

/// Session-cache entries (the server default, stated so results
/// record it).
pub const CACHE_ENTRIES: usize = 32;

/// Shard-store byte ceiling: `cold_hard` fills it in set-up, so its
/// window runs at steady-state eviction.
pub const SHARD_BYTES_MAX: u64 = 256 * 1024;

/// The fixed server flags, recorded with every result.
pub fn server_flags() -> Vec<String> {
    [
        "--jobs",
        "2",
        "--cache",
        &CACHE_ENTRIES.to_string(),
        "--cache-bytes-max",
        &SHARD_BYTES_MAX.to_string(),
        "--requests-per-conn",
        "1000000000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// A running `rpr serve` child process.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// Its process id, for `/proc`.
    pub pid: u32,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Server {
    /// Spawns the server on an ephemeral port and waits for its
    /// listening line.
    pub fn spawn(bin: &Path) -> std::io::Result<Server> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(server_flags())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line.trim().rsplit("http://").next().unwrap_or("").to_owned();
        let pid = child.id();
        let server = Server { child, stdout, pid, addr };
        if !line.starts_with("rpr-serve listening on http://") {
            return Err(std::io::Error::other(format!("unexpected server banner {line:?}")));
        }
        Ok(server)
    }

    /// A numeric field of `/proc/<pid>/status` (kB for memory lines).
    pub fn status_field(&self, key: &str) -> Option<u64> {
        proc_status_field(self.pid, key)
    }

    /// User plus system CPU seconds the server has used.
    pub fn cpu_seconds(&self) -> f64 {
        proc_cpu_seconds(self.pid).unwrap_or(f64::NAN)
    }

    /// Scrapes `/metrics` on a fresh connection.
    pub fn scrape(&self) -> std::io::Result<BTreeMap<String, f64>> {
        let (status, body) =
            HttpClient::new(self.addr.clone()).call_close("GET", "/metrics", b"")?;
        if status != 200 {
            return Err(std::io::Error::other(format!("/metrics answered {status}")));
        }
        Ok(prom::parse(&String::from_utf8_lossy(&body)))
    }

    /// Drains the server through `POST /shutdown` and waits for it to
    /// exit; kills it if it has not exited within ten seconds.
    pub fn stop(mut self) {
        let _ = HttpClient::new(self.addr.clone()).call_close("POST", "/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn proc_status_field(pid: u32, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key) && l[key.len()..].starts_with(':'))?;
    line[key.len() + 1..].split_whitespace().next()?.parse().ok()
}

/// `utime + stime` from `/proc/<pid>/stat`, at the kernel's 100 Hz
/// `USER_HZ`.
fn proc_cpu_seconds(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 / 100.0)
}

/// The distinct answers seen under one request key, with how often
/// each came back.
pub type Answers = HashMap<(Kind, u64, u64), Vec<(u16, Vec<u8>, u64)>>;

/// What one connection saw during a window.
#[derive(Default)]
pub struct ConnLog {
    /// `(kind, latency ns)` of every request that got a response.
    pub latencies: Vec<(Kind, u64)>,
    /// Requests sent.
    pub sent: u64,
    /// Requests with no response (transport errors).
    pub lost: u64,
    /// Distinct response bodies per request key. Identical answers are
    /// compared byte for byte and counted, so each distinct body is
    /// checked once after the window.
    pub answers: Answers,
    /// Cold: the generator's verdict per sequence number.
    pub optimal: Vec<bool>,
}

/// Runs one closed-loop window: `CONNECTIONS` threads, each with one
/// keep-alive connection, each sending `make(conn_index, seq)` for
/// `seq = 0, 1, …` until `duration` has passed. Generation and answer
/// bookkeeping happen outside the timed send-to-response interval.
/// Returns the per-connection logs and the window's length in seconds.
pub fn drive(
    addr: &str,
    duration: Duration,
    make: &(dyn Fn(u64, u64) -> Request + Sync),
) -> (Vec<ConnLog>, f64) {
    let barrier = Barrier::new(CONNECTIONS as usize + 1);
    let start_flag = AtomicBool::new(false);
    let (mut start, mut logs, mut end) = (Instant::now(), Vec::new(), Instant::now());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (barrier, start_flag) = (&barrier, &start_flag);
                scope.spawn(move || {
                    let mut client = HttpClient::new(addr.to_owned());
                    // Connect before the window so no request pays for it.
                    let _ = client.call("GET", "/healthz", b"");
                    barrier.wait();
                    while !start_flag.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    let deadline = Instant::now() + duration;
                    let mut log = ConnLog::default();
                    let mut seq = 0;
                    while Instant::now() < deadline {
                        let req = make(c, seq);
                        seq += 1;
                        log.sent += 1;
                        log.optimal.push(req.optimal);
                        let t0 = Instant::now();
                        let result = client.call("POST", req.kind.path(), req.body.as_bytes());
                        let ns = t0.elapsed().as_nanos() as u64;
                        match result {
                            Ok((status, body)) => {
                                log.latencies.push((req.kind, ns));
                                let seen = log
                                    .answers
                                    .entry((req.kind, req.key.0, req.key.1))
                                    .or_default();
                                match seen.iter_mut().find(|(s, b, _)| *s == status && *b == body) {
                                    Some(entry) => entry.2 += 1,
                                    None => seen.push((status, body, 1)),
                                }
                            }
                            Err(_) => log.lost += 1,
                        }
                    }
                    (log, Instant::now())
                })
            })
            .collect();
        barrier.wait();
        start = Instant::now();
        start_flag.store(true, Ordering::Release);
        for h in handles {
            let (log, t) = h.join().expect("load thread panicked");
            end = end.max(t);
            logs.push(log);
        }
    });
    (logs, end.duration_since(start).as_secs_f64())
}

/// Sends `bodies` (path, body) split across `CONNECTIONS` connections
/// and returns the statuses in order; used for set-up loads.
pub fn upload(addr: &str, bodies: &[(&'static str, String)]) -> Vec<u16> {
    let mut statuses = vec![0u16; bodies.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS as usize)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = HttpClient::new(addr.to_owned());
                    bodies
                        .iter()
                        .enumerate()
                        .skip(c)
                        .step_by(CONNECTIONS as usize)
                        .map(|(i, (path, body))| {
                            (i, client.call("POST", path, body.as_bytes()).map_or(0, |r| r.0))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, s) in h.join().expect("upload thread panicked") {
                statuses[i] = s;
            }
        }
    });
    statuses
}

/// Samples the server's `Threads` count every few milliseconds until
/// `stop` is set; returns the maximum seen.
pub fn sample_threads(pid: u32, stop: &AtomicBool) -> u64 {
    let mut max = 0;
    while !stop.load(Ordering::Relaxed) {
        max = max.max(proc_status_field(pid, "Threads").unwrap_or(0));
        std::thread::sleep(Duration::from_millis(2));
    }
    max
}

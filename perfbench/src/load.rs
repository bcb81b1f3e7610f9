//! The load generator: closed loops over synchronous clients and an
//! open loop that writes frames on a fixed schedule and reads the
//! responses on a second thread, so a stall queues later requests
//! instead of delaying their sends.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hlsh_server::protocol::{decode_response, read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
use hlsh_server::{Client, ClientError, Response};

/// A socket read that takes longer than this fails the request, so a
/// wedged server becomes a failed run rather than a hang.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How often [`with_heartbeat`] pings each server.
pub const HEARTBEAT: Duration = Duration::from_millis(5);

/// One request as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct ClientSpan {
    /// Index into the request sequence.
    pub req: usize,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
}

/// Outcome of one timed phase.
#[derive(Debug)]
pub struct Phase {
    pub name: &'static str,
    /// Requests sent, including warm-up.
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    /// Successful requests inside the measured window.
    pub spans: Vec<ClientSpan>,
    /// Start and length (seconds) of the measured window.
    pub from: Option<Instant>,
    pub window_s: f64,
    /// First wrong answer seen, if any.
    pub mismatch: Option<String>,
    /// First transport or server error seen, if any.
    pub error: Option<String>,
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests while the phase ran.
    pub steal: f64,
}

impl Phase {
    fn new(name: &'static str) -> Phase {
        Phase {
            name,
            attempted: 0,
            succeeded: 0,
            failed: 0,
            spans: Vec::new(),
            from: None,
            window_s: 0.0,
            mismatch: None,
            error: None,
            steal: 0.0,
        }
    }

    fn merge(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.spans.extend(other.spans);
        self.mismatch = self.mismatch.take().or(other.mismatch);
        self.error = self.error.take().or(other.error);
    }

    /// Request latencies in ms, from due time to response.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.spans.iter().map(|s| (s.done - s.due).as_secs_f64() * 1e3).collect()
    }

    /// How late each open-loop send went out, in ms.
    pub fn late_ms(&self) -> Vec<f64> {
        self.spans.iter().map(|s| (s.sent - s.due).as_secs_f64() * 1e3).collect()
    }

    /// Completed requests per second over the measured window.
    pub fn rate(&self) -> f64 {
        self.spans.len() as f64 / self.window_s.max(1e-9)
    }
}

/// `(steal, total)` CPU ticks since boot from `/proc/stat`, if readable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings; 0 where `/proc/stat` is unreadable.
pub fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        _ => 0.0,
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`); 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A connected client whose reads time out after [`IO_TIMEOUT`].
pub fn connect(addr: &str) -> Result<Client, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    Client::from_stream(stream).map_err(|e| e.to_string())
}

/// Runs `body` while a thread of its own sends an Info request to each
/// server in `addrs` every [`HEARTBEAT`], each on a connection of its
/// own.
///
/// The server's event loop can lose a wake-up: it clears its wake flag
/// before it reads the wake pipe, so a response posted between the two
/// leaves the flag set and the pipe empty. From then on no finished
/// response wakes the loop; it sleeps until a socket event or its
/// once-a-second timer tick. When every client is waiting for an
/// answer, each request then takes up to a second, and a run measures
/// the timer instead of the program (a `churn` run took longer than its
/// 170 s bound this way). An Info request is answered on the loop
/// thread, and each one lets the loop collect the finished responses,
/// so the pings bound such a stall to one heartbeat. [`lost_wakeup`]
/// tells afterwards whether the loop lost its wake-up.
pub fn with_heartbeat<T>(addrs: &[String], body: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut clients: Vec<Client> = addrs.iter().filter_map(|a| connect(a).ok()).collect();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(HEARTBEAT);
                for c in &mut clients {
                    let _ = c.info();
                }
            }
        });
        let out = body();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

/// Whether the event loop of the server at `addr` has lost its wake-up
/// (see [`with_heartbeat`]); call it with no other client talking to
/// the server. Three one-query requests in a row then take a few
/// milliseconds, or about two seconds or more if each answer waits for
/// the loop's timer tick.
pub fn lost_wakeup(addr: &str, query: &[f32], radius: f64) -> Result<bool, String> {
    let mut client = connect(addr)?;
    let t = Instant::now();
    for _ in 0..3 {
        client
            .query_batch(&[query.to_vec()], radius)
            .map_err(|e| format!("wake-up probe of {addr}: {e}"))?;
    }
    Ok(t.elapsed() > Duration::from_secs(1))
}

/// `conns` closed-loop clients, each sending its next request as soon
/// as the previous one is answered, for `warm + dur`. Requests sent
/// during the first `warm` are checked but not timed. `issue(client, i)`
/// sends request `i` of the shared sequence; `check(i, &answer)` runs
/// after the request's clock stops.
pub fn closed<R>(
    name: &'static str,
    addr: &str,
    conns: usize,
    warm: Duration,
    dur: Duration,
    issue: impl Fn(&mut Client, usize) -> Result<R, ClientError> + Sync,
    check: impl Fn(usize, &R) -> Result<(), String> + Sync,
) -> Phase {
    let next = AtomicUsize::new(0);
    let total = Mutex::new(Phase::new(name));
    let ticks = cpu_ticks();
    let start = Instant::now();
    let (measure_from, end) = (start + warm, start + warm + dur);
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut mine = Phase::new(name);
                let mut client = match connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        mine.error = Some(e);
                        mine.attempted += 1;
                        mine.failed += 1;
                        total.lock().expect("phase lock").merge(mine);
                        return;
                    }
                };
                while Instant::now() < end {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    mine.attempted += 1;
                    let sent = Instant::now();
                    let answer = issue(&mut client, i);
                    let done = Instant::now();
                    match answer {
                        Ok(answer) => {
                            mine.succeeded += 1;
                            if sent >= measure_from {
                                mine.spans.push(ClientSpan { req: i, due: sent, sent, done });
                            }
                            if let Err(e) = check(i, &answer) {
                                mine.mismatch.get_or_insert(e);
                            }
                        }
                        Err(e) => {
                            mine.failed += 1;
                            let broken = matches!(e, ClientError::Io(_));
                            mine.error.get_or_insert_with(|| format!("request {i}: {e}"));
                            if broken {
                                break;
                            }
                        }
                    }
                }
                total.lock().expect("phase lock").merge(mine);
            });
        }
    });
    let mut phase = total.into_inner().expect("phase lock");
    let last = phase.spans.iter().map(|s| s.done).max().unwrap_or(end);
    phase.from = Some(measure_from);
    phase.window_s = last.saturating_duration_since(measure_from).as_secs_f64();
    phase.steal = steal_share(ticks, cpu_ticks());
    phase
}

/// An open loop at `rate` requests per second over `conns` connections
/// (round-robin), for `warm + dur`. `frame(i)` is request `i` encoded;
/// `check(i, response)` judges its answer. Latency runs from the due
/// time, so a stall counts against every request queued behind it.
#[allow(clippy::too_many_arguments)]
pub fn open(
    name: &'static str,
    addr: &str,
    conns: usize,
    rate: f64,
    warm: Duration,
    dur: Duration,
    frame: impl Fn(usize) -> Vec<u8> + Sync,
    check: impl Fn(usize, Response) -> Result<(), String> + Sync,
) -> Phase {
    let total = Mutex::new(Phase::new(name));
    let ticks = cpu_ticks();
    let start = Instant::now() + Duration::from_millis(20);
    let (measure_from, end) = (start + warm, start + warm + dur);
    let gap = Duration::from_secs_f64(1.0 / rate);
    std::thread::scope(|scope| {
        for c in 0..conns {
            let (tx, rx) = channel::<(usize, Instant, Instant)>();
            let stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(e) => {
                    let mut p = Phase::new(name);
                    p.attempted += 1;
                    p.failed += 1;
                    p.error = Some(format!("connect {addr}: {e}"));
                    total.lock().expect("phase lock").merge(p);
                    continue;
                }
            };
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
            let read_half = stream.try_clone().expect("clone socket");
            let (frame, total) = (&frame, &total);
            scope.spawn(move || {
                let mut w = BufWriter::new(stream);
                for g in (c..).step_by(conns) {
                    let due = start + gap * g as u32;
                    if due >= end {
                        break;
                    }
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let bytes = frame(g);
                    let sent = Instant::now();
                    if tx.send((g, due, sent)).is_err() || write_frame(&mut w, &bytes).is_err() {
                        break;
                    }
                }
            });
            let check = &check;
            scope.spawn(move || {
                let mut mine = Phase::new(name);
                let mut r = BufReader::new(read_half);
                for (g, due, sent) in rx {
                    mine.attempted += 1;
                    let got = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES)
                        .map_err(|e| e.to_string())
                        .and_then(|(kind, body)| {
                            decode_response(kind, &body).map_err(|e| e.to_string())
                        });
                    let done = Instant::now();
                    match got {
                        Ok(Response::Error { code, message }) => {
                            mine.failed += 1;
                            mine.error.get_or_insert(format!("request {g}: {code:?}: {message}"));
                        }
                        Ok(resp) => {
                            mine.succeeded += 1;
                            if due >= measure_from {
                                mine.spans.push(ClientSpan { req: g, due, sent, done });
                            }
                            if let Err(e) = check(g, resp) {
                                mine.mismatch.get_or_insert(e);
                            }
                        }
                        Err(e) => {
                            mine.failed += 1;
                            mine.error.get_or_insert(format!("request {g}: {e}"));
                            break;
                        }
                    }
                }
                total.lock().expect("phase lock").merge(mine);
            });
        }
    });
    let mut phase = total.into_inner().expect("phase lock");
    phase.window_s = dur.as_secs_f64();
    phase.steal = steal_share(ticks, cpu_ticks());
    phase
}

//! The served side: a release `tangled serve` child and the load
//! generator's three phases (closed loop, open loop, serial round trips).
//!
//! The generator is this one process: one thread (closed loop, round
//! trips) or two (open loop: writer and reader) on one keep-alive
//! connection per phase, one phase at a time, and frames encoded before
//! the phase starts. Replies are kept as raw bodies and
//! checked after the phase, so decoding them costs the server no CPU
//! while it is being measured.

use crate::check::Reply;
use crate::gen::Stream;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tangled_mass::crypto::SplitMix64;
use tangled_mass::trustd::wire::{is_timeout, read_frame, FrameError};

/// How long the reader waits with no reply before it declares every
/// outstanding request missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Read timeout of every reply read: how often a waiting reader
/// re-checks whether the writer has finished.
const POLL: Duration = Duration::from_millis(20);

/// The `tangled` binary built next to this benchmark's own executable.
pub fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let bin = exe.with_file_name("tangled");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("server binary {} not built", bin.display()))
    }
}

/// The (server, generator) cores when the machine has two or more and
/// `taskset` is there to pin them: once set up, the server runs on one
/// core and the load generator on another, so the two never time-slice
/// against each other and a measured latency is the server's, not a
/// scheduler quantum of the generator. `None` runs both unpinned.
pub fn split_cores() -> Option<(usize, usize)> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let taskset = Command::new("taskset")
        .arg("-V")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    (cores >= 2 && taskset).then_some((0, 1))
}

/// Pin this process (every thread) to the generator core, if the cores
/// are split. Returns whether it did.
pub fn pin_generator() -> bool {
    split_cores().is_some_and(|(_, core)| taskset(&core.to_string(), std::process::id()))
}

/// Let this process run on every core again (after the served phases,
/// so in-process work that uses the `exec` pool gets its full width).
pub fn unpin_generator() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if split_cores().is_some() {
        taskset(&format!("0-{}", cores - 1), std::process::id());
    }
}

/// Pin the calling thread (only) to `core`, if the cores are split.
pub fn pin_this_thread(core: usize) {
    if split_cores().is_none() {
        return;
    }
    let tid = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse::<u32>().ok());
    if let Some(tid) = tid {
        Command::new("taskset")
            .args(["-p", "-c", &core.to_string(), &tid.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .ok();
    }
}

fn taskset(cores: &str, pid: u32) -> bool {
    Command::new("taskset")
        .args(["-a", "-p", "-c", cores, &pid.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// A running `tangled serve` child, killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Held open so the server's stdout never sees a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawn the server on an ephemeral loopback port with its swap
    /// journal at `journal`, and wait for its listening line.
    pub fn spawn(bin: &Path, journal: &Path) -> Result<Server, String> {
        let mut child = crate::util::die_with_parent(&mut Command::new(bin))
            .arg("serve")
            .arg("127.0.0.1:0")
            .arg("--journal")
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("trustd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not start (said {line:?})"))
            }
        }
    }

    /// Move every thread of the server to the server core, if the cores
    /// are split. Set-up runs before this, on the whole machine.
    pub fn pin(&self) {
        if let Some((core, _)) = split_cores() {
            taskset(&core.to_string(), self.child.id());
        }
    }

    /// CPU seconds the server's threads have run so far, steal excluded.
    pub fn cpu_s(&self) -> f64 {
        crate::util::process_cpu_s(self.child.id())
    }

    /// The child's peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::util::peak_rss_mb(&self.child.id().to_string()).unwrap_or(f64::NAN)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn a server and time it from spawn to its first reply, which the
/// caller checks (it is the answer to stream position 0).
pub fn spawn_timed(
    bin: &Path,
    journal: &Path,
    stream: &Stream,
) -> Result<(Server, f64, Reply), String> {
    let started = Instant::now();
    let server = Server::spawn(bin, journal)?;
    let mut conn = connect(server.addr)?;
    conn.write_all(&stream.frames[0])
        .map_err(|e| format!("first request: {e}"))?;
    let body = read_reply(&mut conn, Instant::now() + REPLY_TIMEOUT);
    Ok((server, started.elapsed().as_secs_f64(), (0, body)))
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    conn.set_read_timeout(Some(POLL))
        .map_err(|e| e.to_string())?;
    conn.set_write_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(conn)
}

/// Read one reply frame, polling until `deadline`. `None` on a timeout,
/// a closed connection or a framing error.
fn read_reply(conn: &mut TcpStream, deadline: Instant) -> Option<Vec<u8>> {
    loop {
        match read_frame(conn) {
            Ok(Some(body)) => return Some(body),
            Ok(None) => return None,
            Err(FrameError::Io(e)) if is_timeout(&e) && Instant::now() < deadline => continue,
            Err(_) => return None,
        }
    }
}

/// Yield until `at`. A sleeping core of a virtual machine can take
/// milliseconds to be woken; one that yields stays awake, and lets the
/// reader thread run the moment a reply arrives.
fn wait_until(at: Instant) {
    while Instant::now() < at {
        std::thread::yield_now();
    }
}

/// What one load phase observed.
pub struct PhaseResult {
    /// Every request sent, in order, with its reply (if any).
    pub replies: Vec<Reply>,
    /// When each reply arrived, aligned with the replies that did.
    pub arrived: Vec<Instant>,
    /// When the first request went out.
    pub started: Instant,
    /// When each request was due (open loop) or sent (closed loop).
    pub due: Vec<Instant>,
    /// How late each send was against its due time (open loop).
    pub late_us: Vec<f64>,
    /// The stream position after the last request sent.
    pub next_pos: usize,
}

impl PhaseResult {
    /// Replies per second between the first send and the last reply.
    pub fn throughput(&self) -> f64 {
        let done = self.arrived.len() as f64;
        match self.arrived.last() {
            Some(last) => done / last.duration_since(self.started).as_secs_f64().max(1e-9),
            None => 0.0,
        }
    }

    /// Per-request latency in µs, from due (or send) time to reply, for
    /// the requests that got one.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.arrived
            .iter()
            .zip(&self.due)
            .map(|(done, due)| crate::util::us(done.duration_since(*due)))
            .collect()
    }
}

/// How requests are released onto the connection.
#[derive(Debug, Clone, Copy)]
pub enum Schedule {
    /// Closed loop: keep `depth` requests in flight until the phase
    /// ends or `count` requests have been sent.
    Closed {
        /// Requests in flight.
        depth: usize,
        /// Requests to send at most.
        count: usize,
    },
    /// Open loop: send on a schedule regardless of replies, with
    /// exponential gaps (Poisson arrivals) drawn from `seed`. A fixed
    /// gap would lock in phase with the server's idle sleep and make
    /// the latency depend on where that phase happened to fall.
    Open {
        /// Mean requests per second.
        rate: f64,
        /// Seed of the gaps.
        seed: u64,
    },
}

impl Schedule {
    /// A closed loop bounded only by the phase's duration.
    pub fn closed(depth: usize) -> Schedule {
        Schedule::Closed {
            depth,
            count: usize::MAX,
        }
    }

    /// `count` requests one at a time (round trips).
    pub fn serial(count: usize) -> Schedule {
        Schedule::Closed { depth: 1, count }
    }
}

/// Run one phase on a fresh connection for `duration` (or until a
/// closed loop's `count`), starting at stream position `start`.
/// `on_send` runs as each request is released and `on_reply` as each
/// reply arrives, with the request's sequence number (the traced run
/// records spans there). Neither loop waits on a socket timeout, which
/// ticks at the kernel's jiffy: they block on the socket (closed loop)
/// or yield (open loop).
pub fn run_phase(
    addr: SocketAddr,
    stream: &Stream,
    start: usize,
    schedule: Schedule,
    duration: Duration,
    on_send: &(dyn Fn(usize) + Sync),
    on_reply: &(dyn Fn(usize) + Sync),
) -> Result<PhaseResult, String> {
    let phase = Phase {
        stream,
        start,
        started: Instant::now(),
        duration,
        on_send,
        on_reply,
    };
    match schedule {
        Schedule::Closed {
            depth: 0 | 1,
            count,
        } => serial_loop(addr, &phase, count),
        Schedule::Closed { depth, count } => closed_loop(addr, &phase, depth, count),
        Schedule::Open { rate, seed } => open_loop(addr, &phase, rate, seed),
    }
}

struct Phase<'a> {
    stream: &'a Stream,
    start: usize,
    started: Instant,
    duration: Duration,
    on_send: &'a (dyn Fn(usize) + Sync),
    on_reply: &'a (dyn Fn(usize) + Sync),
}

impl Phase<'_> {
    /// Append requests `from..to` to `batch`, running `on_send` for each.
    fn release(&self, from: usize, to: usize, batch: &mut Vec<u8>) {
        batch.clear();
        for j in from..to {
            batch.extend_from_slice(&self.stream.frames[(self.start + j) % self.stream.len()]);
            (self.on_send)(j);
        }
    }

    /// The phase's result; whatever was sent and never answered is
    /// missing.
    fn finish(
        &self,
        mut replies: Vec<Reply>,
        arrived: Vec<Instant>,
        due: Vec<Instant>,
        late_us: Vec<f64>,
    ) -> PhaseResult {
        let n = self.stream.len();
        for k in replies.len()..due.len() {
            replies.push(((self.start + k) % n, None));
        }
        let next_pos = (self.start + replies.len()) % n;
        PhaseResult {
            replies,
            arrived,
            started: self.started,
            due,
            late_us,
            next_pos,
        }
    }
}

/// The closed loop: one thread keeps `depth` requests in flight. It
/// takes every reply already read from the socket before it refills the
/// free slots, so one write carries them all; the load generator's own
/// cost per request stays small next to the server's.
fn closed_loop(
    addr: SocketAddr,
    phase: &Phase,
    depth: usize,
    count: usize,
) -> Result<PhaseResult, String> {
    let mut writer = connect(addr)?;
    let clone = writer.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::with_capacity(64 * 1024, clone);
    let deadline = phase.started + phase.duration;
    let (mut due, mut replies, mut arrived) = (Vec::new(), Vec::<Reply>::new(), Vec::new());
    let mut batch = Vec::new();
    let mut last_progress = Instant::now();
    loop {
        let sent = due.len();
        if reader.buffer().is_empty() && sent < count && Instant::now() < deadline {
            let k = (depth - (sent - replies.len())).min(count - sent);
            if k > 0 {
                phase.release(sent, sent + k, &mut batch);
                let send_at = Instant::now();
                if writer.write_all(&batch).is_err() {
                    break;
                }
                due.extend(std::iter::repeat_n(send_at, k));
            }
        }
        if replies.len() == due.len() {
            break;
        }
        match read_frame(&mut reader) {
            Ok(Some(body)) => {
                arrived.push(Instant::now());
                (phase.on_reply)(replies.len());
                let pos = (phase.start + replies.len()) % phase.stream.len();
                replies.push((pos, Some(body)));
                last_progress = Instant::now();
            }
            Err(FrameError::Io(e)) if is_timeout(&e) => {
                if last_progress.elapsed() >= REPLY_TIMEOUT {
                    break;
                }
            }
            _ => break,
        }
    }
    Ok(phase.finish(replies, arrived, due, Vec::new()))
}

/// Yield until `conn` has bytes to read (or `deadline` passes). The
/// socket is nonblocking only while it is polled, so the frame itself is
/// read with a plain blocking read.
fn wait_readable(conn: &TcpStream, deadline: Instant) -> bool {
    if conn.set_nonblocking(true).is_err() {
        return false;
    }
    let mut byte = [0u8; 1];
    let ready = loop {
        match conn.peek(&mut byte) {
            Ok(_) => break true,
            Err(e) if is_timeout(&e) && Instant::now() < deadline => std::thread::yield_now(),
            Err(_) => break false,
        }
    };
    conn.set_nonblocking(false).is_ok() && ready
}

/// One request at a time: send, wait for the reply, send the next. The
/// wait yields instead of blocking, so neither this core nor the
/// server's (which polls a moment after each reply before it sleeps)
/// goes idle between requests: a round trip is the program's path and
/// the kernel's loopback, not the time a virtual machine takes to wake a
/// halted core.
fn serial_loop(addr: SocketAddr, phase: &Phase, count: usize) -> Result<PhaseResult, String> {
    let mut conn = connect(addr)?;
    let deadline = phase.started + phase.duration;
    let (mut due, mut replies, mut arrived) = (Vec::new(), Vec::<Reply>::new(), Vec::new());
    let mut batch = Vec::new();
    while due.len() < count && Instant::now() < deadline {
        let i = due.len();
        phase.release(i, i + 1, &mut batch);
        let send_at = Instant::now();
        if conn.write_all(&batch).is_err() {
            break;
        }
        due.push(send_at);
        if !wait_readable(&conn, Instant::now() + REPLY_TIMEOUT) {
            break;
        }
        match read_reply(&mut conn, Instant::now() + REPLY_TIMEOUT) {
            Some(body) => {
                arrived.push(Instant::now());
                (phase.on_reply)(i);
                replies.push(((phase.start + i) % phase.stream.len(), Some(body)));
            }
            None => break,
        }
    }
    Ok(phase.finish(replies, arrived, due, Vec::new()))
}

/// The open loop: two threads share the connection. The writer yields
/// until each frame is due (never sleeping) and writes it; the reader
/// blocks on the socket and stamps each reply as it arrives. The writer
/// never busy-spins without yielding, which starved the kernel's
/// loopback processing on its core.
fn open_loop(addr: SocketAddr, phase: &Phase, rate: f64, seed: u64) -> Result<PhaseResult, String> {
    let mut writer = connect(addr)?;
    let reader = writer.try_clone().map_err(|e| e.to_string())?;
    let deadline = phase.started + phase.duration;
    let sent = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);

    let (due, late_us, replies, arrived) = std::thread::scope(|s| {
        let writer_thread = s.spawn(|| {
            let mut due = Vec::new();
            let mut late_us = Vec::new();
            let mut batch = Vec::new();
            let mut rng = SplitMix64::new(seed);
            let mut at = phase.started;
            for i in 0.. {
                // An exponential gap of mean 1/rate, from a uniform draw
                // in (0, 1].
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                at += Duration::from_secs_f64(-(1.0 - u).ln() / rate);
                if at >= deadline {
                    break;
                }
                wait_until(at);
                phase.release(i, i + 1, &mut batch);
                let send_at = Instant::now();
                if writer.write_all(&batch).is_err() {
                    break;
                }
                due.push(at);
                late_us.push(crate::util::us(send_at.saturating_duration_since(at)));
                sent.store(i + 1, Ordering::SeqCst);
            }
            writer_done.store(true, Ordering::SeqCst);
            (due, late_us)
        });

        let mut reader = BufReader::with_capacity(64 * 1024, reader);
        let mut replies: Vec<Reply> = Vec::new();
        let mut arrived = Vec::new();
        let mut last_progress = Instant::now();
        loop {
            let got = replies.len();
            let outstanding = sent.load(Ordering::SeqCst) > got;
            if writer_done.load(Ordering::SeqCst) && !outstanding {
                break;
            }
            match read_frame(&mut reader) {
                Ok(Some(body)) => {
                    arrived.push(Instant::now());
                    replies.push(((phase.start + got) % phase.stream.len(), Some(body)));
                    last_progress = Instant::now();
                    (phase.on_reply)(got);
                }
                // The poll tick: nothing arrived; re-check the writer.
                Err(FrameError::Io(e)) if is_timeout(&e) => {
                    if !outstanding {
                        last_progress = Instant::now();
                    } else if last_progress.elapsed() >= REPLY_TIMEOUT {
                        break;
                    }
                }
                _ => break,
            }
        }
        let (due, late_us) = writer_thread.join().expect("writer thread panicked");
        (due, late_us, replies, arrived)
    });
    Ok(phase.finish(replies, arrived, due, late_us))
}

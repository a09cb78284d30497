//! Running one served workload: untraced (end-to-end metrics) or traced
//! (per-layer metrics).
//!
//! An untraced run: generate the stream and the in-process oracle; spawn
//! the server [`SETUP_SPAWNS`] times on the whole machine, timing each
//! from spawn to its first correct reply; pin the last one to its core
//! and the generator to another, and warm the server's memos with one
//! full pass; then rounds of a closed loop at a fixed pipeline depth
//! (throughput) and serial round trips (latency). Every reply of every
//! phase is checked.
//!
//! Throughput is requests per server CPU second. It, the round trips and
//! the set-up time are scaled by the speed of the cores they ran on
//! ([`crate::calib`]). The traced run adds an open loop with Poisson
//! arrivals, timed from each request's due time, and a run of serial
//! swaps.

use crate::calib::{self, CoreProbe};
use crate::check::{self, Tally};
use crate::gen::{self, Stream, Workload};
use crate::layers::{self, Metrics};
use crate::serve::{self, run_phase, PhaseResult, Schedule, Server};
use crate::trace::{SpanId, Tracer};
use crate::util::{median, own_process_cpu_s, quantile, RunDir};
use crate::Outcome;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Server spawns per run; `setup_s` is their median.
pub const SETUP_SPAWNS: usize = 3;
/// Rounds per run.
pub const ROUNDS: usize = 32;
/// Share of `--seconds` spent in closed loops.
pub const CLOSED_SHARE: f64 = 0.4;
/// Share of `--seconds` spent in serial round trips.
pub const SERIAL_SHARE: f64 = 0.6;
/// Serial swaps of the traced run.
pub const TRACED_SWAPS: usize = 24;
/// Requests in flight in the closed loop.
pub const DEPTH: usize = 128;
/// An open-loop request sent more than this long after it was due is late.
pub const LATE_LIMIT: Duration = Duration::from_millis(1);
/// The stated share: a traced run whose open-loop generator sent more
/// than this share of its requests late fell behind its schedule. It is
/// invalid and reports nothing.
pub const BEHIND_SHARE: f64 = 0.5;
/// Upper bound on a warm-up pass.
const WARM_LIMIT: Duration = Duration::from_secs(120);

/// The open-loop rate (requests/s) of each workload: fixed, and a tenth
/// of what the server sustains on one core or less, so the latency
/// measures service time and little queueing, and a slow stretch of a
/// shared machine does not tip it into a backlog.
pub fn open_rate(workload: Workload) -> f64 {
    match workload {
        Workload::HotValidate => 2000.0,
        Workload::WideCompare => 300.0,
        Workload::FleetMix => 150.0,
    }
}

struct Prepared {
    stream: Stream,
    swaps: Stream,
    expected: Vec<String>,
    swap_expected: Vec<String>,
    dir: RunDir,
    bin: std::path::PathBuf,
}

fn prepare(workload: Workload, seed: u64) -> Result<Prepared, String> {
    let stream = gen::stream(workload, seed);
    // Every swap is the same request; the swap phase cycles a stream of one.
    let swaps = gen::swap_stream(1);
    let expected = check::expected(&stream.requests)?;
    let swap_expected = check::expected(&swaps.requests)?;
    Ok(Prepared {
        stream,
        swaps,
        expected,
        swap_expected,
        dir: RunDir::create(workload.name()).map_err(|e| format!("scratch dir: {e}"))?,
        bin: serve::server_binary()?,
    })
}

fn spawn(p: &Prepared, k: usize, tally: &mut Tally) -> Result<(Server, f64), String> {
    let journal = p.dir.path().join(format!("swap-{k}.journal"));
    let (server, secs, reply) = serve::spawn_timed(&p.bin, &journal, &p.stream)?;
    let first = check::check(&p.expected, &[reply]);
    if first.failed > 0 || !first.correct() {
        return Err("the server's first reply is wrong or missing".into());
    }
    tally.absorb(&first);
    Ok((server, secs))
}

/// Once set up, the server gets one core and the generator another.
fn split(server: &Server) {
    if !serve::pin_generator() {
        eprintln!("perfbench: server and generator share the cores (fewer than 2, or no taskset)");
    }
    server.pin();
}

fn phase(
    server: &Server,
    stream: &Stream,
    expected: &[String],
    start: usize,
    schedule: Schedule,
    duration: Duration,
    tally: &mut Tally,
) -> Result<PhaseResult, String> {
    let noop = |_: usize| {};
    let r = run_phase(server.addr, stream, start, schedule, duration, &noop, &noop)?;
    tally.absorb(&check::check(expected, &r.replies));
    Ok(r)
}

fn warm(p: &Prepared, server: &Server, tally: &mut Tally) -> Result<(), String> {
    let schedule = Schedule::Closed {
        depth: DEPTH,
        count: p.stream.len(),
    };
    phase(
        server,
        &p.stream,
        &p.expected,
        0,
        schedule,
        WARM_LIMIT,
        tally,
    )?;
    Ok(())
}

/// The untraced run: every end-to-end metric.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut clock = vec![Instant::now()];
    let p = prepare(workload, seed)?;
    clock.push(Instant::now());
    let total = Duration::from_secs(seconds);
    let mut tally = Tally::default();

    let mut setups = Vec::new();
    let mut setup_unit = Vec::new();
    let mut server = None;
    for k in 0..SETUP_SPAWNS {
        drop(server.take());
        setup_unit.push(calib::sample());
        let (s, secs) = spawn(&p, k, &mut tally)?;
        setups.push(secs);
        server = Some(s);
    }
    setup_unit.push(calib::sample());
    let server = server.expect("at least one spawn");
    clock.push(Instant::now());
    split(&server);
    warm(&p, &server, &mut tally)?;
    clock.push(Instant::now());

    // Closed loop and serial round trips alternate in rounds, so a slow
    // stretch of the shared machine is spread over every metric instead
    // of landing on one phase. The reference unit is timed on both
    // cores before each round and after the last.
    let closed_time = total.mul_f64(CLOSED_SHARE / ROUNDS as f64);
    let serial_time = total.mul_f64(SERIAL_SHARE / ROUNDS as f64);
    let probe = CoreProbe::on_core(serve::split_cores().map_or(0, |(core, _)| core));
    let mut unit = vec![probe.sample()];
    let mut unit_here = vec![calib::sample()];
    let mut pos = 0;
    let (mut cpu_rps, mut wall_rps, mut p50s) = (vec![], vec![], vec![]);
    for _ in 0..ROUNDS {
        let cpu0 = server.cpu_s();
        let closed = phase(
            &server,
            &p.stream,
            &p.expected,
            pos,
            Schedule::closed(DEPTH),
            closed_time,
            &mut tally,
        )?;
        let cpu = server.cpu_s() - cpu0;
        wall_rps.push(closed.throughput());
        let serial = phase(
            &server,
            &p.stream,
            &p.expected,
            closed.next_pos,
            Schedule::serial(usize::MAX),
            serial_time,
            &mut tally,
        )?;
        pos = serial.next_pos;
        p50s.push(median(&serial.latencies_us()));
        unit.push(probe.sample());
        unit_here.push(calib::sample());
        cpu_rps.push(closed.arrived.len() as f64 / cpu);
    }
    drop(probe);
    // The run's core speed: the geometric mean of the two cores' median
    // reference samples (the server's work runs on one, the generator's
    // and half the loopback on the other).
    let u = (median(&unit) * median(&unit_here)).sqrt();
    clock.push(Instant::now());
    let wall: Vec<String> = clock
        .windows(2)
        .zip(["prepare", "set-up", "warm-up", "rounds"])
        .map(|(w, name)| format!("{name} {:.1} s", (w[1] - w[0]).as_secs_f64()))
        .collect();
    eprintln!(
        "perfbench: wall time: {}; each set-up {:?} s; reference unit around them {:?} us",
        wall.join(", "),
        setups,
        setup_unit
            .iter()
            .map(|u| (u * 1e6).round())
            .collect::<Vec<_>>(),
    );
    let rounded = |v: &[f64], k: f64| v.iter().map(|x| (x * k).round()).collect::<Vec<_>>();
    eprintln!(
        "perfbench: {} seed {seed}: per round: closed-loop rps per server CPU s {:?}, \
         per wall s {:?}; round-trip p50 {:?} us; reference unit on the server core {:?} us, \
         on the generator core {:?} us.",
        workload.name(),
        rounded(&cpu_rps, 1.0),
        rounded(&wall_rps, 1.0),
        rounded(&p50s, 1.0),
        rounded(&unit, 1e6),
        rounded(&unit_here, 1e6),
    );
    let rss = server.peak_rss_mb();
    drop(server);

    let mut o = Outcome::new(tally.correct(), tally.attempted, tally.failed);
    o.metric(
        "setup_s",
        calib::scale_time(median(&setups), median(&setup_unit)),
        "s",
    );
    o.metric(
        "throughput_rps",
        calib::scale_rate(median(&cpu_rps), u),
        "1/s",
    );
    o.metric("latency_p50_us", calib::scale_time(median(&p50s), u), "us");
    o.metric("peak_rss_mb", rss, "MB");
    Ok(o)
}

/// The traced run's serial swaps: the round trip of each, in µs.
fn swap_phase(p: &Prepared, server: &Server, tally: &mut Tally) -> Result<Vec<f64>, String> {
    let r = phase(
        server,
        &p.swaps,
        &p.swap_expected,
        0,
        Schedule::serial(TRACED_SWAPS),
        WARM_LIMIT,
        tally,
    )?;
    Ok(r.latencies_us())
}

/// The traced run: every per-layer metric, plus the tracing overhead
/// (traced minus untraced closed-loop throughput, same seed, same run).
pub fn run_traced(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let p = prepare(workload, seed)?;
    let total = Duration::from_secs(seconds);
    let tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut m = Metrics::new();

    let (server, _) = spawn(&p, 0, &mut tally)?;
    split(&server);
    warm(&p, &server, &mut tally)?;
    let cpu0 = own_process_cpu_s();
    let half = total.mul_f64(0.2);
    let untraced = phase(
        &server,
        &p.stream,
        &p.expected,
        0,
        Schedule::closed(DEPTH),
        half,
        &mut tally,
    )?;
    let open_spans: Mutex<Vec<SpanId>> = Mutex::new(Vec::new());
    let on_send = |i: usize| {
        let id = tracer.open("bench.served_request", None, i as u64);
        open_spans.lock().expect("span list poisoned").push(id);
    };
    let on_reply = |i: usize| tracer.close(open_spans.lock().expect("span list poisoned")[i]);
    let traced = run_phase(
        server.addr,
        &p.stream,
        untraced.next_pos,
        Schedule::closed(DEPTH),
        half,
        &on_send,
        &on_reply,
    )?;
    tally.absorb(&check::check(&p.expected, &traced.replies));
    let open = phase(
        &server,
        &p.stream,
        &p.expected,
        traced.next_pos,
        Schedule::Open {
            rate: open_rate(workload),
            seed,
        },
        total.mul_f64(0.4),
        &mut tally,
    )?;
    let rtt = phase(
        &server,
        &p.stream,
        &p.expected,
        open.next_pos,
        Schedule::serial(usize::MAX),
        total.mul_f64(0.2),
        &mut tally,
    )?;
    let client_cpu = own_process_cpu_s() - cpu0;
    // Swaps last, so the memo entries they invalidate cost no phase above.
    let swaps = swap_phase(&p, &server, &mut tally)?;
    drop(server);
    let behind = open
        .late_us
        .iter()
        .filter(|&&us| us > crate::util::us(LATE_LIMIT))
        .count() as f64
        / open.late_us.len().max(1) as f64;
    if behind > BEHIND_SHARE {
        return Err(format!(
            "run invalid: the open-loop generator sent {:.1}% of its requests more than {:?} \
             late (limit {:.0}%)",
            behind * 100.0,
            LATE_LIMIT,
            BEHIND_SHARE * 100.0
        ));
    }
    // The in-process passes below (and the study stages' `exec` pool)
    // run on the whole machine.
    serve::unpin_generator();

    m.insert(
        "bench.trace_overhead_rps".into(),
        (traced.throughput() - untraced.throughput(), "1/s"),
    );
    m.insert(
        "bench.gen_late_p99_us".into(),
        (quantile(&open.late_us, 0.99), "us"),
    );
    m.insert(
        "bench.open_p50_us".into(),
        (median(&open.latencies_us()), "us"),
    );
    m.insert(
        "bench.open_p99_us".into(),
        (quantile(&open.latencies_us(), 0.99), "us"),
    );
    m.insert("bench.client_cpu_s".into(), (client_cpu, "s"));
    m.insert("bench.swap_p50_us".into(), (median(&swaps), "us"));
    let served_p50 = median(&rtt.latencies_us());
    m.insert("bench.served_rtt_p50_us".into(), (served_p50, "us"));

    let inproc_p50 = layers::traced_pass(&tracer, workload, seed, &p.stream, p.dir.path(), &mut m)?;
    m.insert(
        "trustd.event.transport_us".into(),
        (served_p50 - inproc_p50, "us"),
    );
    layers::crypto(&tracer, seed, &mut m);
    let stages = layers::stages(&tracer, seed, &mut m);
    if let Err(e) = &stages {
        eprintln!("perfbench: study stage check failed: {e}");
    }

    let path = crate::util::trace_dir().join(format!("{}-{seed}.jsonl", workload.name()));
    write_trace(&tracer, &path);
    eprint!("{}", layers::self_time_table(&tracer));

    let mut o = Outcome::new(
        tally.correct() && stages.is_ok(),
        tally.attempted,
        tally.failed,
    );
    for (name, (value, unit)) in m {
        o.metric(&name, value, unit);
    }
    Ok(o)
}

fn write_trace(tracer: &Tracer, path: &Path) {
    match tracer.write_jsonl(path) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tracer.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
    }
}

//! Small helpers: percentiles, process accounting, the scratch directory.

use std::path::PathBuf;
use std::time::Duration;

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// the two nearest ranks. `values` need not be sorted. NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Microseconds in a duration, with sub-microsecond digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nanoseconds in a duration.
pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Peak resident set (`VmHWM`) of a process in MiB, from procfs.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU clocks of the C library that Rust's standard library already
/// links; no crate is needed for three calls. The layout is 64-bit
/// Linux's.
mod clock {
    #[repr(C)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }
    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        pub fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    }
    pub const PROCESS_CPUTIME: i32 = 2;
    pub const THREAD_CPUTIME: i32 = 3;
}

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = clock::Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    match unsafe { clock::clock_gettime(clock, &mut ts) } {
        0 => ts.sec as f64 + ts.nsec as f64 * 1e-9,
        _ => f64::NAN,
    }
}

/// CPU seconds the calling thread has run so far. The kernel's run time
/// leaves out the time the hypervisor gave the virtual core to another
/// guest (steal), which a wall clock counts: on a shared host this is
/// the steadier measure of the same work.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(clock::THREAD_CPUTIME)
}

/// CPU seconds every thread of this process has run so far, exited
/// threads included (steal excluded).
pub fn own_process_cpu_s() -> f64 {
    cpu_clock_s(clock::PROCESS_CPUTIME)
}

/// CPU seconds every thread of process `pid` has run so far (steal
/// excluded). NaN when the process is gone.
pub fn process_cpu_s(pid: u32) -> f64 {
    let mut clock = 0i32;
    // SAFETY: `clock` is a valid, writable int for the call's duration.
    match unsafe { clock::clock_getcpuclockid(pid as i32, &mut clock) } {
        0 => cpu_clock_s(clock),
        _ => f64::NAN,
    }
}

/// Have the kernel kill `cmd`'s process when the thread that spawns it
/// (this process's main thread) ends, however it ends: a benchmark
/// killed from outside leaves no server or child behind.
pub fn die_with_parent(cmd: &mut std::process::Command) -> &mut std::process::Command {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the closure runs in the forked child before `exec` and
    // only makes one async-signal-safe system call.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        })
    }
}

/// The benchmark's directory inside the checkout's build directory
/// (`$CARGO_TARGET_DIR`, else `.bench_build`).
fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
        .join("perfbench")
}

/// A per-run scratch directory under [`bench_dir`], removed on drop.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Create `<bench dir>/<label>-<pid>`.
    pub fn create(label: &str) -> std::io::Result<RunDir> {
        let path = bench_dir().join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where traced runs leave their span files: beside the run directories,
/// kept after the run.
pub fn trace_dir() -> PathBuf {
    bench_dir().join("traces")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(median(&[]).is_nan());
    }
}

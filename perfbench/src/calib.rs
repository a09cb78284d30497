//! Core speed: a fixed unit of CPU work in this crate's own code, timed
//! on the core a measurement used, next to it in time.
//!
//! On a shared virtual machine the same work takes a different amount of
//! CPU time from one minute to the next (the host's other guests share
//! its caches, memory and clock). Every CPU-time metric is divided by
//! the core's speed at the time it was measured: the time the reference
//! unit took then, over [`NOMINAL_S`]. The unit is this crate's code, so
//! a change to the program under test never moves it.

use crate::util::{median, thread_cpu_s};
use std::sync::mpsc;

/// Entries of the table the reference unit walks: 64 KiB of `u32`,
/// which fits a core's L2 cache.
const TABLE: usize = 16 * 1024;
/// Steps of one reference unit.
const STEPS: usize = 250_000;
/// Units per sample; a sample is their median.
const UNITS: usize = 9;
/// The reference unit's CPU time on the nominal core every scaled metric
/// is expressed on (about what the unit takes on the machine this
/// benchmark was written on).
pub const NOMINAL_S: f64 = 1e-3;

/// A table whose entries form one cycle through every slot (Sattolo's
/// shuffle), so a walk visits the whole table.
fn cycle() -> Vec<u32> {
    let mut table: Vec<u32> = (0..TABLE as u32).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..TABLE).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table.swap(i, (x % i as u64) as usize);
    }
    table
}

/// One reference unit: a pointer chase through the table, each load's
/// address the previous load's value. Of the probes tried (chases that
/// fit L2, L3 or only memory, copies, hash-map builds, an integer
/// mixing loop), its time followed the program's own offline pass most
/// closely from one second to the next on a shared 2-core VM.
fn unit(table: &[u32]) -> u32 {
    let mut i = 0u32;
    for _ in 0..STEPS {
        i = table[i as usize];
    }
    i
}

/// The median thread-CPU seconds of [`UNITS`] reference units on the
/// calling thread.
pub fn sample() -> f64 {
    let table = cycle();
    let times: Vec<f64> = (0..UNITS)
        .map(|_| {
            let t = thread_cpu_s();
            std::hint::black_box(unit(std::hint::black_box(&table)));
            thread_cpu_s() - t
        })
        .collect();
    median(&times)
}

/// A CPU time measured while the reference unit took `unit_s`,
/// expressed on the nominal core.
pub fn scale_time(t: f64, unit_s: f64) -> f64 {
    t * NOMINAL_S / unit_s
}

/// A rate per CPU second measured while the reference unit took
/// `unit_s`, expressed on the nominal core.
pub fn scale_rate(r: f64, unit_s: f64) -> f64 {
    r * unit_s / NOMINAL_S
}

/// A thread pinned to one core that takes a [`sample`] on request: the
/// served runs time the unit on the server's core while the server is
/// idle between phases.
pub struct CoreProbe {
    ask: Option<mpsc::Sender<()>>,
    answer: mpsc::Receiver<f64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl CoreProbe {
    /// Start the probe thread and pin it to `core` (when the cores are
    /// split; otherwise it runs wherever the scheduler puts it).
    pub fn on_core(core: usize) -> CoreProbe {
        let (ask, asked) = mpsc::channel::<()>();
        let (tell, answer) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            crate::serve::pin_this_thread(core);
            while asked.recv().is_ok() {
                if tell.send(sample()).is_err() {
                    break;
                }
            }
        });
        CoreProbe {
            ask: Some(ask),
            answer,
            thread: Some(thread),
        }
    }

    /// One sample on the probe's core.
    pub fn sample(&self) -> f64 {
        match &self.ask {
            Some(ask) if ask.send(()).is_ok() => self.answer.recv().unwrap_or(f64::NAN),
            _ => f64::NAN,
        }
    }
}

impl Drop for CoreProbe {
    fn drop(&mut self) {
        drop(self.ask.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

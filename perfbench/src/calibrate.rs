//! Machine-speed calibration.
//!
//! On a shared host the program's speed drifts by tens of percent
//! within seconds, mostly through the memory system and the allocator:
//! on a shared 2-vCPU x86-64 VM, 2-second windows of small `save_all` calls
//! varied with an interquartile range of 11% of their median, and a
//! fixed allocate-and-clone loop interleaved with them slowed in step
//! (correlation 0.8; a cache-resident arithmetic loop did not).
//! Dividing by that loop's slowdown halved the spread.
//!
//! So every workload interleaves samples of this benchmark-owned kernel
//! with its measured work and reports each time converted to the
//! reference speed: a time `t` measured while a sample took `c` on
//! average is reported as `t · NOMINAL / c`. Samples are taken only
//! while the program is idle — between calls, or on `serve_durable` once
//! the server has published its last ack and the reader has its answer —
//! so the program's own threads never slow a sample. The kernel still
//! shares the process's allocator with the program, so a program change
//! that leaves the heap in a worse state could slow the samples too; the
//! raw figures are printed alongside (`raw.*`) to show such a change.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One sample's duration on the reference machine (about a typical
/// sample on a 2-vCPU x86-64 VM); figures read as if the machine ran at
/// that speed.
const NOMINAL: Duration = Duration::from_micros(1_000);
/// One disk sample's duration on the reference machine.
const NOMINAL_DISK: Duration = Duration::from_micros(1_000);
/// Files a disk sample writes and syncs.
const DISK_FILES: usize = 3;
/// Rows the kernel allocates and clones per sample.
const ROWS: usize = 7_000;
/// Samples taken around a step that cannot be interleaved with them.
pub const BURST: usize = 8;

/// Allocates small rows the way the program holds its data, clones
/// them, and drops both; returns its wall time.
fn sample() -> Duration {
    let start = Instant::now();
    let rows: Vec<Vec<f64>> = (0..ROWS).map(|i| vec![i as f64; 3]).collect();
    let copy = rows.clone();
    black_box((rows, copy));
    start.elapsed()
}

/// Calibration samples taken so far, in time order.
#[derive(Default)]
pub struct Calibrator {
    samples: Vec<Duration>,
}

impl Calibrator {
    /// Takes `n` samples now.
    pub fn take(&mut self, n: usize) {
        self.samples.extend((0..n).map(|_| sample()));
    }

    /// Marks the current end of the sample sequence.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// Slowdown against the reference machine over samples
    /// `from..to` (over every sample when that range holds none).
    pub fn between(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.samples.len());
        let range = match self.samples.get(from..to) {
            Some(range) if !range.is_empty() => range,
            _ => &self.samples[..],
        };
        if range.is_empty() {
            return 1.0;
        }
        let mean = range.iter().map(Duration::as_secs_f64).sum::<f64>() / range.len() as f64;
        mean / NOMINAL.as_secs_f64()
    }

    /// Slowdown over the samples taken since `from`.
    pub fn since(&self, from: usize) -> f64 {
        self.between(from, self.samples.len())
    }

    /// Slowdown over every sample taken.
    pub fn overall(&self) -> f64 {
        self.between(0, self.samples.len())
    }
}

/// CPU time the calling thread has used so far
/// (`CLOCK_THREAD_CPUTIME_ID`); zero where the clock is unavailable.
pub fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec for the whole call.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Slowdown of the disk against the reference machine: `n` samples that
/// each write, sync and remove a few small files in `dir` (with the
/// directory synced after each), the work creating a durable store does.
/// On a shared host the sync latency drifts apart from the CPU's speed.
pub fn disk_factor(dir: &Path, n: usize) -> std::io::Result<f64> {
    std::fs::create_dir_all(dir)?;
    let directory = std::fs::File::open(dir)?;
    let path = dir.join("calibration");
    let mut total = Duration::ZERO;
    for _ in 0..n {
        let start = Instant::now();
        for _ in 0..DISK_FILES {
            let mut file = std::fs::File::create(&path)?;
            file.write_all(&[0x5a; 4096])?;
            file.sync_all()?;
            directory.sync_all()?;
            std::fs::remove_file(&path)?;
        }
        total += start.elapsed();
    }
    Ok(total.as_secs_f64() / n.max(1) as f64 / NOMINAL_DISK.as_secs_f64())
}

//! Host speed, measured with a fixed reference kernel that shares no code
//! with the simulator.
//!
//! The benchmark runs on shared hosts whose speed drifts by up to half
//! over minutes (other tenants on the same cores, caches and memory bus),
//! with no run-queue wait or steal time to show it. A run therefore times
//! the reference kernel every [`SAMPLE_INTERVAL`] of measured work,
//! between simulator calls, and scales the host seconds it measured to a
//! host that runs the kernel in [`NOMINAL_S`]. The kernel makes dependent,
//! data-driven reads and writes over a table larger than a private cache
//! and smaller than the shared one, as the simulator's model state is, so
//! a drift in host speed slows both alike. It is part of the benchmark,
//! so a change to the simulator cannot move it.

use crate::probes::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reference-kernel seconds on the nominal host (what one kernel run
/// takes on an idle 2-vCPU cloud VM).
pub const NOMINAL_S: f64 = 0.006;

/// Measured work between two reference samples, at most.
pub const SAMPLE_INTERVAL: Duration = Duration::from_millis(100);

/// Table entries: 2 MiB of `u64`.
const TABLE: usize = 1 << 18;
/// Table steps per kernel run.
const STEPS: u64 = 600_000;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reference samples over a stretch of measured work.
pub struct HostSpeed {
    table: Vec<u64>,
    /// Kernel seconds sampled in the current window.
    window: Vec<f64>,
    /// When the last sample ended.
    last: Instant,
}

impl HostSpeed {
    /// Builds the kernel's table, runs the kernel once untimed and takes
    /// the first sample.
    pub fn new() -> HostSpeed {
        let mut h = HostSpeed {
            table: (0..TABLE as u64).map(mix).collect(),
            window: Vec::new(),
            last: Instant::now(),
        };
        black_box(h.kernel());
        h.sample();
        h
    }

    /// One kernel run: xorshift-driven reads, each deciding between a
    /// write back and a second, data-dependent read. Returns a checksum so
    /// nothing is optimised away.
    fn kernel(&mut self) -> u64 {
        let n = self.table.len() as u64;
        let mut x = 0x9876_5432_1FED_CBA9u64;
        let mut sum = 0u64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % n) as usize;
            let v = self.table[j];
            if v & 1 == 0 {
                self.table[j] = v.wrapping_add(i);
            } else {
                sum = sum.wrapping_add(v >> 3);
            }
            if i % 3 == 0 {
                sum ^= self.table[((v ^ i) % n) as usize];
            }
        }
        sum
    }

    /// Times one kernel run into the current window.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(self.kernel());
        self.window.push(t.elapsed().as_secs_f64());
        self.last = Instant::now();
    }

    /// Samples if [`SAMPLE_INTERVAL`] has passed since the last sample.
    /// Call it between timed calls, never inside one.
    pub fn sample_if_due(&mut self) {
        if self.last.elapsed() >= SAMPLE_INTERVAL {
            self.sample();
        }
    }

    /// Ends the window with a sample and returns how much slower than
    /// nominal the host ran in it: the window's median kernel time over
    /// [`NOMINAL_S`]. The closing sample also opens the next window, so
    /// every window is bracketed by samples.
    pub fn close_window(&mut self) -> f64 {
        self.sample();
        let closing = *self.window.last().expect("just sampled");
        let slowdown = median(std::mem::replace(&mut self.window, vec![closing])) / NOMINAL_S;
        slowdown.max(f64::MIN_POSITIVE)
    }
}

impl Default for HostSpeed {
    fn default() -> HostSpeed {
        HostSpeed::new()
    }
}

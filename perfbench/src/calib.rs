//! Host-speed calibration for the end-to-end times.
//!
//! On a shared host the same code runs up to a third slower from one minute
//! to the next. Every timed interval of the untraced run is therefore
//! followed by one run of a fixed kernel that shares no code with the
//! measured program, and the interval is scaled by `NOMINAL_MS / kernel
//! time`: the time the interval would have taken at the host speed the
//! kernel calls nominal. A slow spell stretches interval and kernel alike
//! and cancels out; a change to the program moves only the interval.

use std::hint::black_box;
use std::time::Instant;

/// Kernel wall time at nominal host speed (about the median on the 2-vCPU
/// host the benchmark was defined on).
pub const NOMINAL_MS: f64 = 8.8;
/// Words in the kernel's buffer (16 MiB, larger than the per-core L2).
const WORDS: usize = 1 << 21;
/// Random read-modify-writes per kernel run.
const STEPS: usize = 1 << 19;

/// The kernel's buffer and the kernel times measured so far.
pub struct Calibration {
    buf: Vec<u64>,
    /// Wall time of each kernel run, in milliseconds.
    pub samples_ms: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self {
            buf: (0..WORDS as u64).collect(),
            samples_ms: Vec::new(),
        }
    }
}

impl Calibration {
    /// Runs the kernel once (xorshift-indexed read-modify-writes over the
    /// buffer) and returns the factor `NOMINAL_MS / kernel time` that scales
    /// the interval measured just before it.
    pub fn factor(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (WORDS - 1);
            acc = acc.wrapping_mul(31).wrapping_add(self.buf[i]);
            self.buf[i] = acc ^ x;
        }
        black_box(acc);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        NOMINAL_MS / ms
    }
}

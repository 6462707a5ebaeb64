//! Host-speed calibration.
//!
//! The reference box is a 2-vCPU VM whose cores each flip, every few seconds
//! and independently, between a fast state and one about 1.5x slower (a fixed
//! interpreter loop measures 9.1 ms or 13.9 ms; see the README). A run's
//! median then says which state the host was in, not what the code costs. So
//! the harness times a small fixed kernel on its own thread right before and
//! after every operation and scales the operation's time by how far the
//! kernel was from its nominal time. What is reported is time at the nominal
//! host speed; the raw medians are printed beside it.

use std::cell::RefCell;
use std::time::Instant;

/// The kernel's time on the reference box in its fast state, in microseconds.
/// Only ratios to it matter; it is a constant so that two runs, two seeds and
/// two commits are all scaled to the same speed.
pub const NOMINAL_US: f64 = 54.0;

/// Kernel passes per sample; the fastest counts. An operation leaves caches
/// and branch predictors in whatever state it likes and the first pass after
/// it pays for that, while host contention lasts seconds and slows every
/// pass alike.
const PASSES: usize = 5;

/// Words the kernel works over: 32 KiB, resident in L1/L2.
const WORDS: usize = 4096;

thread_local! {
    /// The kernel's working set, allocated once per thread: the kernel must
    /// not allocate, or it would time the allocator's state (after a large
    /// free, glibc trims and regrows the heap on every small allocation
    /// cycle, which reads as a 5x slower host).
    static BUFFER: RefCell<Vec<u64>> = RefCell::new(vec![0; WORDS]);
}

/// This thread's speed right now: the fastest of [`PASSES`] kernel passes, in µs.
pub fn sample() -> f64 {
    BUFFER.with(|buffer| {
        let mut buffer = buffer.borrow_mut();
        (0..PASSES)
            .map(|_| pass(&mut buffer))
            .fold(f64::INFINITY, f64::min)
    })
}

/// One pass of the kernel: pseudo-random fill, data-dependent scattered
/// updates, then a sort of a prefix — loads, stores and unpredictable
/// branches, no system calls and no allocation.
fn pass(buffer: &mut [u64]) -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for word in buffer.iter_mut() {
        *word = next();
    }
    for _ in 0..2 * WORDS {
        let r = next();
        let (i, j) = (r as usize % WORDS, (r >> 32) as usize % WORDS);
        if buffer[i] > buffer[j] {
            buffer[i] = buffer[i].wrapping_add(buffer[j]);
        } else {
            buffer[j] ^= r;
        }
    }
    buffer[..WORDS / 4].sort_unstable();
    std::hint::black_box(&buffer);
    start.elapsed().as_secs_f64() * 1e6
}

/// The factor that scales a duration measured between two kernel samples to
/// the nominal host speed.
pub fn factor(before_us: f64, after_us: f64) -> f64 {
    let mean = (before_us + after_us) / 2.0;
    if mean > 0.0 {
        NOMINAL_US / mean
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_a_slow_host_down_and_a_fast_host_up() {
        assert_eq!(factor(NOMINAL_US, NOMINAL_US), 1.0);
        assert!((factor(1.5 * NOMINAL_US, 1.5 * NOMINAL_US) - 2.0 / 3.0).abs() < 1e-12);
        assert!(factor(NOMINAL_US / 2.0, NOMINAL_US) > 1.0);
        assert_eq!(factor(0.0, 0.0), 1.0);
    }

    #[test]
    fn the_kernel_does_its_work() {
        assert!(sample() > 0.0);
    }
}

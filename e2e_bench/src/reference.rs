//! The reference kernel: a fixed piece of benchmark-owned work, timed beside
//! the program, that says how fast this box is *right now*.
//!
//! The benchmark runs on a few cores of a shared host. Its neighbours take
//! execution resources in bursts that last minutes, and while they do, whole
//! windows run 30–140% slower (README, "Steadiness"): two runs of one binary
//! then differ by more than any bound a regression check could use. No
//! statistic of the window alone removes that — the slow minutes outlast a
//! run.
//!
//! So every timed stretch is paired with passes of this kernel taken in the
//! same moments, and reported in **reference time**: the measured time
//! multiplied by [`NOMINAL_NS`] ÷ (the kernel's median pass in that stretch).
//! When the box is as fast as the quiet sizing box, the factor is 1 and the
//! numbers are plain microseconds; when a neighbour slows the box, kernel
//! and program slow together and the factor takes most of it back out.
//!
//! The kernel formats integers into a reused buffer, reverses the bytes and
//! hashes them: short, branchy, store-heavy integer code, which is what the
//! program's scan, embed and candidate-gathering paths are made of. It was
//! picked by measurement — of the kernels tried (random-row gather with a
//! vectorised dot, dependent integer chain, pointer chase, bucket probe,
//! this one) it tracked all six workloads best; a DRAM-latency-bound kernel
//! barely moves when the program slows by half. It calls nothing in the
//! program and never allocates after construction, so no change to the
//! program can move it.

use std::fmt::Write;
use std::time::Instant;

use crate::stats::median;

/// One pass of the kernel on the quiet sizing box, nanoseconds. Only a unit
/// conversion: it makes reference time read like that box's wall time.
pub const NOMINAL_NS: f64 = 6_000.0;

/// Strings formatted and hashed per pass.
const STRINGS_PER_PASS: u64 = 64;

/// The kernel's state: a counter, so no two passes format the same numbers,
/// and the buffers a pass reuses.
pub struct Reference {
    counter: u64,
    text: String,
    reversed: Vec<u8>,
    sink: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    pub fn new() -> Self {
        Self {
            counter: 0x9E37_79B9_7F4A_7C15,
            text: String::with_capacity(64),
            reversed: Vec::with_capacity(64),
            sink: 0,
        }
    }

    /// One timed pass; nanoseconds.
    pub fn pass(&mut self) -> f64 {
        let started = Instant::now();
        let mut hash = self.sink;
        for i in 0..STRINGS_PER_PASS {
            self.counter = self.counter.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i);
            self.text.clear();
            write!(self.text, "value-{}-{i}", self.counter).expect("writing to a String");
            self.reversed.clear();
            self.reversed.extend(self.text.bytes().rev());
            for &byte in &self.reversed {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        self.sink = std::hint::black_box(hash);
        started.elapsed().as_nanos() as f64
    }
}

/// The factor that turns a time measured beside `passes` into reference
/// time. 1 when there are no passes to judge by.
pub fn scale(passes: &mut [f64]) -> f64 {
    if passes.is_empty() {
        return 1.0;
    }
    NOMINAL_NS / median(passes).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_takes_time_and_the_scale_inverts_it() {
        let mut reference = Reference::new();
        let mut passes: Vec<f64> = (0..50).map(|_| reference.pass()).collect();
        assert!(passes.iter().all(|&ns| ns > 0.0));
        // A box twice as slow as nominal halves every time measured on it.
        assert_eq!(scale(&mut [2.0 * NOMINAL_NS; 5]), 0.5);
        assert_eq!(scale(&mut []), 1.0);
        assert!(scale(&mut passes) > 0.0);
    }
}

//! Wall-clock timing helpers for the evaluation harness.
//!
//! The paper reports *seconds per query averaged over all queries* and
//! decomposes end-to-end response time into loading, embedding-inference and
//! index-lookup components. [`Stopwatch`] measures one span ([`timed`]
//! wraps a closure in one); [`fmt_secs`] renders seconds for a report.

use std::time::{Duration, Instant};

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self { start: Instant::now() }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed seconds as `f64`.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Time a closure, returning its result and the elapsed duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.elapsed())
}

/// Render seconds with adaptive units for reports (e.g. `35 ms`, `3.12 s`).
pub fn fmt_secs(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.2} s")
    } else if secs >= 1e-3 {
        format!("{:.2} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.2} µs", secs * 1e6)
    } else {
        format!("{:.0} ns", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_something() {
        let (v, d) = timed(|| {
            let mut x = 0u64;
            for i in 0..10_000 {
                x = x.wrapping_add(i);
            }
            x
        });
        assert_eq!(v, 49995000);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn fmt_units() {
        assert_eq!(fmt_secs(3.123), "3.12 s");
        assert_eq!(fmt_secs(0.0351), "35.10 ms");
        assert_eq!(fmt_secs(12e-6), "12.00 µs");
        assert_eq!(fmt_secs(5e-8), "50 ns");
    }
}

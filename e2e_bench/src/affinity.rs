//! Pin every thread of the process to one CPU for the length of a window.
//!
//! Only `cold_wgrp_s` uses this. Its client and its server's handler thread
//! hand each request back and forth; left to the scheduler they sit on
//! different CPUs and every hand-off is a cross-CPU wake-up out of an idle
//! state. On the 2-vCPU shared box this benchmark was sized on, those
//! wake-ups were half the operation (p50 460 µs free vs 237 µs pinned) and
//! swung ±25% from run to run, so the number tracked the hypervisor, not the
//! wire path. On one CPU the two threads simply alternate and the metric is
//! the CPU cost of framing, codec and socket calls — what a WGRP change can
//! actually move.

/// Restores the saved affinity of every thread when dropped.
pub struct Pinned {
    #[cfg(target_os = "linux")]
    saved: linux::CpuSet,
}

impl Pinned {
    /// Pin all current threads to the first CPU the process may run on.
    /// Returns `None` (and pins nothing) where that is not possible; the
    /// run then measures unpinned.
    pub fn all_threads_to_one_cpu() -> Option<Pinned> {
        #[cfg(target_os = "linux")]
        {
            let saved = linux::affinity_of_caller()?;
            let cpu = saved.iter().enumerate().find(|(_, w)| **w != 0)?;
            let mut one = [0u64; linux::WORDS];
            one[cpu.0] = 1 << cpu.1.trailing_zeros();
            linux::set_all_threads(&one);
            Some(Pinned { saved })
        }
        #[cfg(not(target_os = "linux"))]
        None
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        linux::set_all_threads(&self.saved);
    }
}

#[cfg(target_os = "linux")]
mod linux {
    /// `cpu_set_t`: 1024 bits.
    pub const WORDS: usize = 16;
    pub type CpuSet = [u64; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn affinity_of_caller() -> Option<CpuSet> {
        let mut set = [0u64; WORDS];
        // SAFETY: `set` is a live, writable buffer of exactly the byte size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    /// Apply `set` to every thread listed in `/proc/self/task`. Failures
    /// (a thread that just exited, a mask the cgroup forbids) are ignored:
    /// pinning is measurement hygiene, never a correctness condition.
    pub fn set_all_threads(set: &CpuSet) {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return };
        for tid in tasks.filter_map(|t| t.ok()?.file_name().to_str()?.parse::<i32>().ok()) {
            // SAFETY: `set` is a live buffer of exactly the byte size passed;
            // the kernel only reads it. `tid` is a thread id of this process.
            unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
        }
    }
}

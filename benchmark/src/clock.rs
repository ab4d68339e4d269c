//! The benchmark's clocks: wall time, the calling thread's CPU time —
//! all of it, and its user-mode part — and the host's *pace*.
//!
//! The bench host is a two-core virtual machine among neighbours. Four
//! things move a reading there without the program changing: the whole
//! machine is paused for tens of milliseconds to seconds at a time; an
//! `fsync` takes 0.2 ms or 4 ms depending on what the neighbours write,
//! and the CPU time the kernel spends submitting it moves with that
//! (identical work cost the service thread 0.08 to 0.69 s of system time
//! per repetition within two minutes, and 0.28 to 0.46 s of user time);
//! the cores switch between two clock rates 1.28× apart every few
//! seconds; and the core's other hardware thread is sometimes busy.
//! CPU time leaves out the pauses and the waiting for the disk, its
//! user-mode part also what the kernel's I/O path costs today. The pace
//! takes out most of the rest: a fixed kernel is timed on the measuring
//! thread next to every measured piece of work, and the work's CPU
//! seconds are scaled to what they would have been had the kernel taken
//! [`PACE_REF_NS`]. README.md ("Noise") has the measurements behind
//! this.

use std::time::Instant;

/// Nanoseconds the pace kernel takes on the bench host at its base
/// clock rate in a quiet spell. Every `*_cpu_s` metric and `setup_s` is
/// in seconds *at this pace*. On another host the constant rescales all
/// of them alike; comparisons on one host never see it.
pub const PACE_REF_NS: f64 = 45_000.0;

/// Steps of the pace kernel's arithmetic half: about 25 µs.
const PACE_STEPS: u64 = 16_000;
/// Procfs reads in its other half: about 35 µs.
const PACE_READS: usize = 8;

/// One run of the pace kernel.
///
/// Four independent multiply–xor–rotate chains in registers follow the
/// core's clock rate and nothing else. A procfs read is `open`, `read`
/// and `close` of a small file: path walk, allocation, formatting —
/// code chasing pointers through memory it has not touched for a
/// while, which is what slows down when the core's other hardware
/// thread or the host's caches are busy. Read on the service thread
/// every [`crate::harness::PACE_EVERY`] events, the sum of the two
/// follows that thread's user CPU time per repetition of identical
/// work (correlation 0.54 on the corpus trace, 0.89 on the fleet trace,
/// a hundred repetitions each); readings taken between repetitions,
/// while the thread's companion is idle, do not (0.2 to 0.4).
fn pace_kernel() -> u64 {
    let mut x = [
        0x9e37_79b9_7f4a_7c15u64,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0x2545_f491_4f6c_dd1d,
    ];
    for i in 0..PACE_STEPS {
        for lane in &mut x {
            *lane = (*lane ^ i)
                .wrapping_mul(0xff51_afd7_ed55_8ccd)
                .rotate_left(7);
        }
    }
    for _ in 0..PACE_READS {
        x[0] ^= procfs_read() as u64;
    }
    x[0] ^ x[1] ^ x[2] ^ x[3]
}

/// The host's pace now: nanoseconds the pace kernel takes, the fastest
/// of three runs (an interrupt lengthens a run, nothing shortens one).
pub fn pace_ns() -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(pace_kernel());
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads the thread CPU clock of 64-bit Linux");

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Seconds the calling thread has spent running on a CPU so far, to the
/// nanosecond: time blocked in `fsync`, waiting for traffic or waiting
/// for a core is not in it. (`/proc/thread-self/schedstat` has the same
/// count but moves only at scheduler ticks, 4 ms apart on the bench
/// host — as long as the pieces of work timed here.)
#[allow(unsafe_code)]
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the targets the `compile_error!` above lets through)
    // for the whole call, and `clock_gettime` writes to nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on every Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// `USER_HZ`: the unit of the times in `/proc/<pid>/stat`, 1/100 s on
/// every Linux architecture this benchmark builds for.
const USER_HZ: f64 = 100.0;

/// Seconds the calling thread has spent running *user-mode* code so
/// far (`utime` of `/proc/thread-self/stat`), in steps of 10 ms: the
/// program's own computation, without what the kernel spends on its
/// system calls. The kernel splits a thread's exact CPU time between
/// user and system by where its 250 Hz timer tick found the thread, so
/// a reading is good to about a percent over a few seconds of CPU and
/// useless under a tenth of a second.
pub fn thread_user_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat")
        .expect("procfs is mounted on every Linux this benchmark runs on");
    // The second field, the thread's name in parentheses, may hold
    // spaces; `utime` is the twelfth field after it.
    let after_name = stat.rfind(')').map_or(0, |i| i + 1);
    let utime: f64 = stat[after_name..]
        .split_ascii_whitespace()
        .nth(11)
        .and_then(|field| field.parse().ok())
        .expect("/proc/thread-self/stat has a numeric utime field");
    utime / USER_HZ
}

/// One trip through the kernel's procfs paths: `open`, `read` and
/// `close` of a small per-thread file.
fn procfs_read() -> usize {
    std::fs::read("/proc/thread-self/schedstat").map_or(0, |bytes| bytes.len())
}

/// One timed piece of work on one thread.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    /// Wall seconds.
    pub wall_s: f64,
    /// Seconds the thread spent on a CPU.
    pub cpu_s: f64,
    /// The host's pace while it ran.
    pub pace_ns: f64,
}

impl Lap {
    /// CPU seconds at the reference pace.
    pub fn ref_cpu_s(&self) -> f64 {
        self.cpu_s * PACE_REF_NS / self.pace_ns
    }

    /// Wall seconds at the reference pace — for work that computes on
    /// several threads and waits for nothing else.
    pub fn ref_wall_s(&self) -> f64 {
        self.wall_s * PACE_REF_NS / self.pace_ns
    }
}

/// Runs `f` and times it, with the pace taken before and after.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Lap) {
    let before = pace_ns();
    let (wall, cpu) = (Instant::now(), thread_cpu_s());
    let value = f();
    let (wall_s, cpu_s) = (wall.elapsed().as_secs_f64(), thread_cpu_s() - cpu);
    let lap = Lap {
        wall_s,
        cpu_s,
        pace_ns: (before + pace_ns()) / 2.0,
    };
    (value, lap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lap_scales_with_the_pace() {
        let lap = Lap {
            wall_s: 2.0,
            cpu_s: 1.0,
            pace_ns: PACE_REF_NS * 2.0,
        };
        assert_eq!(lap.ref_cpu_s(), 0.5);
        assert_eq!(lap.ref_wall_s(), 1.0);
        let ((), lap) = timed(|| ());
        assert!(lap.cpu_s >= 0.0 && lap.wall_s >= 0.0 && lap.pace_ns > 0.0);
    }

    #[test]
    fn user_time_reads_and_never_runs_backwards() {
        let before = thread_user_s();
        std::hint::black_box(pace_ns());
        assert!(before >= 0.0 && thread_user_s() >= before);
    }

    #[test]
    fn the_pace_kernel_takes_tens_of_microseconds() {
        let pace = pace_ns();
        assert!((2_000.0..2_000_000.0).contains(&pace), "{pace} ns");
    }
}

//! The host's speed, measured from inside a run: the process CPU clock, and
//! a fixed reference kernel whose rate tracks how fast the host runs this
//! kind of work at the moment.
//!
//! On a shared VM the same work can take a third more CPU time (and twice
//! the wall time) for minutes at a stretch, when other guests load the
//! host's cores and memory. The benchmark therefore reports its timed
//! figures in *reference seconds*: CPU seconds scaled by the reference
//! kernel's rate in the same run over [`NOMINAL_REFERENCE_RATE`]. A figure
//! then moves with the program and not with the host; on a host that runs
//! the kernel at the nominal rate, reference seconds are CPU seconds.

use std::hint::black_box;

/// CPU time this process has used so far, summed over its threads (live
/// and exited), in seconds. On a kernel with paravirtual steal accounting it
/// leaves out the time the host ran other guests instead.
///
/// # Panics
///
/// Panics if the process CPU clock cannot be read.
#[must_use]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::os::raw::c_int, ts: *mut Timespec) -> std::os::raw::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout that
    // `clock_gettime` fills in.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(status, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Reference-kernel updates per CPU second that make a reference second: about
/// what a two-vCPU Xeon VM gives when its host is quiet.
pub const NOMINAL_REFERENCE_RATE: f64 = 40e6;

/// Words in each worker's table: 16 MiB, larger than a core's share of the
/// last-level cache, like the fleet state the workloads walk.
const TABLE_WORDS: usize = 1 << 21;
/// Table updates per worker in one measurement.
const UPDATES: usize = 1 << 21;

/// The reference kernel: one worker per engine thread, each making
/// pseudo-random read-modify-write updates to its own table with a little
/// arithmetic between them. Returns updates per CPU second.
#[must_use]
pub fn reference_rate(tables: &mut [Vec<u64>]) -> f64 {
    let start = cpu_seconds();
    std::thread::scope(|scope| {
        for (worker, table) in tables.iter_mut().enumerate() {
            scope.spawn(move || {
                let mut x = 0x9E37_79B9_7F4A_7C15_u64 ^ worker as u64;
                let mut acc = 0.0_f64;
                for _ in 0..UPDATES {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let cell = &mut table[(x as usize) & (TABLE_WORDS - 1)];
                    *cell = cell.rotate_left(5) ^ x;
                    acc += (*cell >> 11) as f64 * 1e-9;
                }
                black_box(acc);
            });
        }
    });
    (tables.len() * UPDATES) as f64 / (cpu_seconds() - start)
}

/// Tables for [`reference_rate`], one per worker.
#[must_use]
pub fn reference_tables(workers: usize) -> Vec<Vec<u64>> {
    (0..workers)
        .map(|worker| {
            (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ worker as u64)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let start = cpu_seconds();
        let rate = reference_rate(&mut reference_tables(2));
        assert!(rate.is_finite() && rate > 0.0);
        assert!(cpu_seconds() > start);
    }
}

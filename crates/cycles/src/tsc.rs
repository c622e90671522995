//! Time-stamp-counter reads: serialized brackets for measurement, and
//! one unfenced read for stamps.

/// Nanoseconds since the first call: the "TSC" on targets without one,
/// so cycle figures there mean nanoseconds.
#[cfg(not(target_arch = "x86_64"))]
fn fallback_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Read the TSC once, unfenced: the cheapest clock read there is (tens
/// of cycles, against about 50 ns for `Instant::now`), for stamps that
/// only need to order and time events microseconds apart. The read may
/// drift a few instructions either way, so bracket a measured region
/// with [`rdtsc_serialized`] instead. Stamps taken on different cores
/// compare on hosts with an invariant, synchronized TSC; subtract them
/// saturating. On non-x86 targets this is the same monotonic nanosecond
/// clock as [`rdtsc_serialized`].
#[inline(always)]
pub fn now() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC is available on every x86-64 CPU and has no
    // memory-safety effects.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        fallback_ns()
    }
}

/// Read the TSC with serialization against earlier and later instructions
/// (`LFENCE; RDTSC; LFENCE`), so the measured region cannot leak out of
/// the bracket. On non-x86 targets this falls back to a monotonic
/// nanosecond clock (cycle figures then mean "nanoseconds").
#[inline(always)]
pub fn rdtsc_serialized() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: LFENCE and RDTSC are available on every x86-64 CPU this
    // crate targets and have no memory-safety effects.
    unsafe {
        core::arch::x86_64::_mm_lfence();
        let t = core::arch::x86_64::_rdtsc();
        core::arch::x86_64::_mm_lfence();
        t
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        fallback_ns()
    }
}

/// The constant cost of one [`rdtsc_serialized`] bracket, calibrated once
/// per process — the analogue of the paper's "overhead to read a PMC is
/// constantly 83 cycles, and is excluded from the results".
pub fn overhead() -> u64 {
    use std::sync::OnceLock;
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut best = u64::MAX;
        for _ in 0..10_000 {
            let a = rdtsc_serialized();
            let b = rdtsc_serialized();
            best = best.min(b - a);
        }
        best
    })
}

/// Estimated TSC frequency in cycles per second, calibrated once against
/// the monotonic clock (~50 ms spin). Used to convert cycle counts into
/// lookup rates.
pub fn cycles_per_second() -> f64 {
    use std::sync::OnceLock;
    static FREQ: OnceLock<f64> = OnceLock::new();
    *FREQ.get_or_init(|| {
        let wall = std::time::Instant::now();
        let t0 = rdtsc_serialized();
        while wall.elapsed() < std::time::Duration::from_millis(50) {
            std::hint::spin_loop();
        }
        let t1 = rdtsc_serialized();
        (t1 - t0) as f64 / wall.elapsed().as_secs_f64()
    })
}

/// TSC ticks per nanosecond, derived from [`cycles_per_second`] (and
/// cached with it). On non-x86 targets the "TSC" is already a
/// nanosecond clock, so this converges to ~1.0.
pub fn cycles_per_ns() -> f64 {
    cycles_per_second() / 1e9
}

/// Convert a cycle count to nanoseconds using the once-per-process
/// calibration. This is what lets latency reports carry both units:
/// cycles are comparable to the paper's per-lookup figures, nanoseconds
/// are comparable across hosts with different clock rates.
pub fn cycles_to_ns(cycles: u64) -> u64 {
    (cycles as f64 / cycles_per_ns()).round() as u64
}

/// Convert nanoseconds to TSC cycles using the once-per-process
/// calibration (the inverse of [`cycles_to_ns`]).
pub fn ns_to_cycles(ns: u64) -> u64 {
    (ns as f64 * cycles_per_ns()).round() as u64
}

/// Time `f` over one serialized bracket, returning elapsed cycles with the
/// bracket overhead subtracted (saturating at zero).
///
/// For per-operation distributions call this once per operation; for
/// throughput, wrap the whole batch.
#[inline]
pub fn measure_batch<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let start = rdtsc_serialized();
    let r = f();
    let end = rdtsc_serialized();
    ((end - start).saturating_sub(overhead()), r)
}

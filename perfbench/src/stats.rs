//! Sample statistics, process memory and the host calibration kernel.

use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values`; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// This process's resident-set high-water mark (`VmHWM`) in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or has no
/// `VmHWM` line (a non-Linux host).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line '{line}': {e}"))?;
    Ok(kib / 1024.0)
}

/// Repetitions of the calibration kernel; the median is reported.
const CALIB_REPS: usize = 7;

/// Times a fixed CPU-bound kernel (a xorshift stream folded through a
/// square root, about 10 ms on a 2020s core) and returns the median of
/// [`CALIB_REPS`] runs in milliseconds. The kernel touches no memory
/// beyond registers, so it tracks the host's momentary CPU speed and
/// nothing about the program under test; a run whose figures moved with
/// `host.calib_ms` moved with the host.
pub fn calibrate() -> (f64, usize) {
    let times: Vec<f64> = (0..CALIB_REPS)
        .map(|_| {
            let start = Instant::now();
            let mut state = black_box(0x9e37_79b9_7f4a_7c15_u64);
            let mut acc = 0.0_f64;
            for _ in 0..4_000_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                acc += ((state >> 11) as f64).sqrt();
            }
            black_box(acc);
            ms_since(start)
        })
        .collect();
    (median(&times), CALIB_REPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }
}

//! What the numbers were measured on: core count, last-level cache, a
//! STREAM-triad bandwidth probe and the process's peak resident set.

use std::time::Instant;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads every threaded layer is pinned to: `min(nproc, 2)`, so
/// runs on wider hosts stay comparable with the 2-core reference host.
pub fn threads() -> usize {
    nproc().min(2)
}

/// Size of the largest cache level sysfs reports for cpu0, in bytes
/// (`None` where sysfs has no cache directory, e.g. some containers).
pub fn llc_bytes() -> Option<u64> {
    let mut largest = None;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, scale) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1u64 << 10),
            Some(b'M') => (&text[..text.len() - 1], 1 << 20),
            Some(b'G') => (&text[..text.len() - 1], 1 << 30),
            _ => (text, 1),
        };
        if let Ok(n) = digits.parse::<u64>() {
            largest = largest.max(Some(n * scale));
        }
    }
    largest
}

fn proc_kib(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    proc_kib("/proc/self/status", "VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// The STREAM triad `a[i] = b[i] + s * c[i]` over three arrays, run on
/// `threads` threads. The arrays are sized at four times the last-level
/// cache each (the rule for a bandwidth probe) unless that would take
/// more than a quarter of available memory; both sizes are recorded.
///
/// The arrays live for one probe only: held across the run, gigabytes
/// of resident memory slow the layers measured between the probes (the
/// fleet's spawns by half on the reference host).
pub struct Triad {
    threads: usize,
    /// Bytes per array.
    pub array_bytes: u64,
    /// Bytes of last-level cache the sizing was based on.
    pub llc_bytes: u64,
    samples: Vec<f64>,
}

impl Triad {
    /// Sizes the arrays. `cap_bytes` bounds one array (used by `--check`
    /// to stay tiny).
    pub fn new(threads: usize, cap_bytes: Option<u64>) -> Triad {
        // Where sysfs hides the caches, assume a 32 MiB LLC.
        let llc = llc_bytes().unwrap_or(32 << 20);
        let available = proc_kib("/proc/meminfo", "MemAvailable:").map_or(u64::MAX, |k| k << 10);
        let array_bytes = (4 * llc)
            .min(available / 4 / 3)
            .min(cap_bytes.unwrap_or(u64::MAX))
            .max(1 << 16);
        Triad {
            threads: threads.max(1),
            array_bytes: array_bytes / 8 * 8,
            llc_bytes: llc,
            samples: Vec::new(),
        }
    }

    /// Allocates and first-touches the arrays, times one triad pass, and
    /// frees them; returns and records GB/s (24 bytes move per element:
    /// two reads and one write).
    pub fn probe(&mut self) -> f64 {
        let len = (self.array_bytes / 8) as usize;
        let chunk = len.div_ceil(self.threads);
        // Zeroed allocations are not resident yet: each thread fills its
        // own chunks, so the pages are first touched here, in parallel,
        // and not in the timed pass.
        let (mut a, mut b, mut c) = (vec![0.0f64; len], vec![0.0f64; len], vec![0.0f64; len]);
        std::thread::scope(|scope| {
            let parts = a
                .chunks_mut(chunk)
                .zip(b.chunks_mut(chunk))
                .zip(c.chunks_mut(chunk));
            for ((a, b), c) in parts {
                scope.spawn(move || {
                    a.fill(-1.0);
                    b.fill(1.0);
                    c.fill(2.0);
                });
            }
        });
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let parts = a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk));
            for ((a, b), c) in parts {
                scope.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = *y + 3.0 * *z;
                    }
                    std::hint::black_box(a);
                });
            }
        });
        let seconds = t0.elapsed().as_secs_f64();
        assert!(a.iter().step_by(4096).all(|&x| x == 7.0), "triad result");
        let gbps = len as f64 * 24.0 / seconds.max(1e-9) / 1e9;
        self.samples.push(gbps);
        gbps
    }

    /// Median bandwidth over the probes taken so far, in GB/s.
    pub fn gbps(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// Spread of the probes — (max − min) / median — taken at the start,
    /// middle and end of a run: how much the host itself moved.
    pub fn noise_frac(&self) -> f64 {
        let s = crate::stats::Summary::of(&self.samples);
        (s.max - s.min) / s.median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_probes_and_reports_noise() {
        let mut t = Triad::new(2, Some(1 << 16));
        assert_eq!(t.array_bytes, 1 << 16);
        for _ in 0..3 {
            assert!(t.probe() > 0.0);
        }
        assert!(t.gbps() > 0.0);
        assert!(t.noise_frac() >= 0.0);
    }

    #[test]
    fn host_facts_are_sane() {
        assert!(nproc() >= 1);
        assert!((1..=2).contains(&threads()));
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}

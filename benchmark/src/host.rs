//! What the box could do and whether it was quiet while it was measured.
//! None of these move with the program; they qualify the other numbers.

use std::hint::black_box;
use std::time::Instant;

/// A fixed reference loop owned by the benchmark (nothing of the
/// program's), timed at the start of every round; its spread across rounds
/// says whether the host was quiet. Sixty-four independent multiply-add
/// chains over 8 KiB that stay in the first-level cache: bound by how many
/// operations the core issues per cycle, which is what a busy neighbour on
/// the same physical core takes away. (Interleaved with `BatchRunner::step`
/// on one thread of the reference box, second by second: the step's time
/// spread 24 %, a single dependent multiply chain's 2 %, this loop's 22 %,
/// and the step's over this loop's 4-5 %. It speaks for the thread it runs
/// on; another core has another neighbour.)
pub fn canary_ms() -> f64 {
    let mut data = [0i32; 2048];
    for (i, d) in data.iter_mut().enumerate() {
        *d = (i as i32).wrapping_mul(-1_640_531_535) | 1;
    }
    let t = Instant::now();
    let mut acc = [0i32; 64];
    for _ in 0..4000 {
        for chunk in black_box(&data).chunks_exact(64) {
            for (a, &d) in acc.iter_mut().zip(chunk) {
                *a = a.wrapping_add(d.wrapping_mul(d ^ *a));
            }
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// A run whose canary's slowest reading exceeds its fastest by more than
/// this factor is marked `noisy`.
pub const NOISY_SPREAD: f64 = 1.15;

/// Canary readings of one run.
#[derive(Clone, Debug, Default)]
pub struct Canary {
    pub readings_ms: Vec<f64>,
}

impl Canary {
    pub fn sample(&mut self) {
        self.readings_ms.push(canary_ms());
    }
    pub fn min_ms(&self) -> f64 {
        self.readings_ms
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
    /// Slowest over fastest reading (1.0 with fewer than two).
    pub fn spread(&self) -> f64 {
        let max = self.readings_ms.iter().copied().fold(0.0, f64::max);
        if self.readings_ms.len() < 2 {
            1.0
        } else {
            max / self.min_ms()
        }
    }
    pub fn noisy(&self) -> bool {
        self.spread() > NOISY_SPREAD
    }
}

/// Sequential read bandwidth over a buffer far larger than the private
/// caches, best of five passes, in GB/s. The denominator of the roofline
/// ratio: a packed GEMV streams its weights once per token.
pub fn stream_gbps() -> f64 {
    const WORDS: usize = 16 << 20; // 128 MiB of u64
    let buf: Vec<u64> = (0..WORDS as u64).collect();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        // Eight independent accumulators so the loop is bound by loads,
        // not by one add chain.
        let mut acc = [0u64; 8];
        for chunk in black_box(&buf).chunks_exact(8) {
            for (a, &w) in acc.iter_mut().zip(chunk) {
                *a = a.wrapping_add(w);
            }
        }
        black_box(acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (WORDS * 8) as f64 / best / 1e9
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_spread_marks_a_noisy_run() {
        let quiet = Canary {
            readings_ms: vec![5.0, 5.2, 5.1],
        };
        assert!(!quiet.noisy());
        assert_eq!(quiet.min_ms(), 5.0);
        let noisy = Canary {
            readings_ms: vec![5.0, 6.0],
        };
        assert!(noisy.noisy());
        assert_eq!(Canary::default().spread(), 1.0);
    }
}

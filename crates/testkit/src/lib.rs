//! # testkit — dependency-free property-testing and benchmarking helpers
//!
//! The container this repository builds in has no access to crates.io, so
//! the usual `proptest`/`criterion` dev-dependencies are replaced by this
//! tiny in-tree crate: a deterministic splitmix/xorshift PRNG, a case
//! runner for randomized property tests, and a wall-clock micro-benchmark
//! timer. Everything is seeded and reproducible — a failing case prints
//! the seed and iteration needed to replay it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// A small, fast, deterministic PRNG (xorshift64* seeded via splitmix64).
///
/// Not cryptographic; plenty for generating test cases.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed (any value, including 0).
    pub fn new(seed: u64) -> Self {
        // splitmix64 of the seed avoids weak xorshift states.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng { state: (z ^ (z >> 31)) | 1 }
    }

    /// Next raw 64-bit value.
    pub fn u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.u64() % (hi - lo)
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(lo as u64, hi as u64) as u32
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A random boolean.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// A vector of `len in [min_len, max_len)` values drawn by `gen`.
    pub fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut gen: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let n = self.range_usize(min_len, max_len);
        (0..n).map(|_| gen(self)).collect()
    }

    /// Picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range_usize(0, xs.len())]
    }
}

/// Default number of cases run by [`check`].
pub const DEFAULT_CASES: u32 = 256;

/// Runs `f` for [`DEFAULT_CASES`] seeded cases; the closure receives a
/// fresh deterministic [`Rng`] per case. Panics from `f` are augmented
/// with the case index so failures replay exactly.
pub fn check(name: &str, f: impl Fn(&mut Rng)) {
    check_n(name, DEFAULT_CASES, f);
}

/// [`check`] with an explicit case count.
pub fn check_n(name: &str, cases: u32, f: impl Fn(&mut Rng)) {
    for case in 0..cases {
        let mut rng = Rng::new(0xC0FFEE ^ (case as u64).wrapping_mul(0x9E37_79B9));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(e) = result {
            eprintln!("property '{name}' failed at case {case}/{cases}");
            std::panic::resume_unwind(e);
        }
    }
}

/// One timed benchmark result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark label.
    pub name: String,
    /// Iterations measured.
    pub iters: u32,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest single iteration in nanoseconds.
    pub min_ns: f64,
}

impl BenchResult {
    fn fmt_ns(ns: f64) -> String {
        if ns >= 1e9 {
            format!("{:.2} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.2} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.2} µs", ns / 1e3)
        } else {
            format!("{ns:.0} ns")
        }
    }
}

impl std::fmt::Display for BenchResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<40} {:>12}/iter (min {:>12}, {} iters)",
            self.name,
            Self::fmt_ns(self.mean_ns),
            Self::fmt_ns(self.min_ns),
            self.iters
        )
    }
}

/// Times `f` for `iters` iterations (after one untimed warm-up) and prints
/// the result. Use [`std::hint::black_box`] inside `f` to keep the
/// optimizer honest.
pub fn bench(name: &str, iters: u32, mut f: impl FnMut()) -> BenchResult {
    assert!(iters > 0);
    f(); // warm-up
    let mut min_ns = f64::INFINITY;
    let total = Instant::now();
    for _ in 0..iters {
        let t = Instant::now();
        f();
        min_ns = min_ns.min(t.elapsed().as_nanos() as f64);
    }
    let r = BenchResult {
        name: name.to_string(),
        iters,
        mean_ns: total.elapsed().as_nanos() as f64 / iters as f64,
        min_ns,
    };
    println!("{r}");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let (mut a, mut b) = (Rng::new(1), Rng::new(2));
        assert_ne!(a.u64(), b.u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Rng::new(42);
        for _ in 0..10_000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = r.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_hits_every_value() {
        let mut r = Rng::new(3);
        let seen: std::collections::HashSet<u64> = (0..1000).map(|_| r.range_u64(0, 8)).collect();
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn vec_lengths_in_range() {
        let mut r = Rng::new(5);
        for _ in 0..100 {
            let v = r.vec(1, 10, |r| r.bool());
            assert!((1..10).contains(&v.len()));
        }
    }

    #[test]
    fn check_runs_all_cases() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let n = AtomicU32::new(0);
        check_n("count", 17, |_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn bench_reports_positive_time() {
        let r = bench("noop-ish", 3, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        assert!(r.mean_ns > 0.0 && r.min_ns <= r.mean_ns * 3.0 + 1.0);
    }
}

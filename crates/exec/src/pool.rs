//! Size-class buffer pool: recycles transient and scratch allocations
//! across executor runs.
//!
//! The executor's steady-state cost model (paper §5: compile once, run
//! many times) wants repeat runs to avoid the allocator entirely. The pool
//! implements *reset-not-free* semantics: buffers released at the end of a
//! run are parked in power-of-two size-class bins and handed back — zeroed
//! — to the next acquisition of a compatible size. Zeroing on acquire is
//! load-bearing for correctness, not just hygiene: transients must start
//! every run with the same contents a fresh allocation (or the reference
//! interpreter) would observe, so recycling can never leak data between
//! runs or between executors sharing a pool.

use crate::stats::AtomicStats;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Retention cap per size class: bounds worst-case held memory when many
/// distinctly-sized transients churn through one pool.
const MAX_PER_CLASS: usize = 32;

/// Pool counters (cumulative since construction). Surfaced via
/// `sdfg_profile::ExecCounters`; each run also counts its own
/// acquisitions in its `Stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total buffer acquisitions.
    pub acquires: u64,
    /// Acquisitions served by recycling a previously released buffer.
    pub reuses: u64,
    /// Bytes of requested storage served from recycled buffers.
    pub bytes_reused: u64,
    /// Bytes currently parked in the pool's bins.
    pub bytes_held: u64,
}

impl PoolStats {
    /// Fraction of acquisitions served from the pool, `0.0..=1.0`.
    pub fn reuse_rate(&self) -> f64 {
        if self.acquires == 0 {
            0.0
        } else {
            self.reuses as f64 / self.acquires as f64
        }
    }
}

/// A thread-safe pool of `f64` buffers binned by power-of-two capacity.
///
/// Buffers come back from `BufferPool::acquire` zeroed and exactly the
/// requested length; capacity is rounded up to the size class so a
/// recycled buffer can serve any length in its class without reallocating.
pub struct BufferPool {
    bins: Mutex<HashMap<usize, Vec<Vec<f64>>>>,
    acquires: AtomicU64,
    reuses: AtomicU64,
    bytes_reused: AtomicU64,
    bytes_held: AtomicU64,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> BufferPool {
        BufferPool {
            bins: Mutex::new(HashMap::new()),
            acquires: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            bytes_reused: AtomicU64::new(0),
            bytes_held: AtomicU64::new(0),
        }
    }

    /// Size class serving `len`: the next power of two (min 1).
    fn class(len: usize) -> usize {
        len.next_power_of_two().max(1)
    }

    /// Returns a zeroed buffer of exactly `len` elements, recycling a
    /// parked buffer of the matching size class when one is available.
    /// The acquisition is counted for the pool and for the run `run`.
    pub(crate) fn acquire(&self, len: usize, run: &AtomicStats) -> Vec<f64> {
        self.acquires.fetch_add(1, Ordering::Relaxed);
        run.pool_acquires.fetch_add(1, Ordering::Relaxed);
        let class = Self::class(len);
        let recycled = self.bins.lock().get_mut(&class).and_then(Vec::pop);
        match recycled {
            Some(mut v) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                run.pool_reuses.fetch_add(1, Ordering::Relaxed);
                self.bytes_reused
                    .fetch_add((len * std::mem::size_of::<f64>()) as u64, Ordering::Relaxed);
                self.bytes_held.fetch_sub(
                    (v.capacity() * std::mem::size_of::<f64>()) as u64,
                    Ordering::Relaxed,
                );
                v.clear();
                v.resize(len, 0.0);
                v
            }
            None => {
                // Allocate at class capacity so the buffer stays reusable
                // for every length in its class once released.
                let mut v = Vec::with_capacity(class);
                v.resize(len, 0.0);
                v
            }
        }
    }

    /// Parks a buffer for later reuse. Contents are left as-is — zeroing
    /// happens on the acquire side. Buffers beyond the per-class retention
    /// cap (or with no capacity) are dropped.
    pub fn release(&self, v: Vec<f64>) {
        let cap = v.capacity();
        if cap == 0 {
            return;
        }
        // Bin by the largest power of two the capacity can serve, so a
        // future `acquire` popping this buffer never reallocates.
        let class = if cap.is_power_of_two() {
            cap
        } else {
            cap.next_power_of_two() >> 1
        };
        let mut bins = self.bins.lock();
        let bin = bins.entry(class).or_default();
        if bin.len() >= MAX_PER_CLASS {
            return; // dropped; allocator reclaims it
        }
        self.bytes_held
            .fetch_add((cap * std::mem::size_of::<f64>()) as u64, Ordering::Relaxed);
        bin.push(v);
    }

    /// Drops every parked buffer.
    pub fn clear(&self) {
        self.bins.lock().clear();
        self.bytes_held.store(0, Ordering::Relaxed);
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            acquires: self.acquires.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            bytes_reused: self.bytes_reused.load(Ordering::Relaxed),
            bytes_held: self.bytes_held.load(Ordering::Relaxed),
        }
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_and_run() -> (BufferPool, AtomicStats) {
        (BufferPool::new(), AtomicStats::default())
    }

    #[test]
    fn recycles_within_class_and_zeroes() {
        let (pool, run) = pool_and_run();
        let mut a = pool.acquire(100, &run);
        a.fill(7.0);
        let cap = a.capacity();
        assert_eq!(cap, 128, "allocated at class capacity");
        pool.release(a);
        assert_eq!(pool.stats().bytes_held, 128 * 8);
        // Any length in the class reuses the same storage, zeroed.
        let b = pool.acquire(101, &run);
        assert_eq!(b.len(), 101);
        assert!(
            b.iter().all(|&x| x == 0.0),
            "recycled buffer must be zeroed"
        );
        assert_eq!(b.capacity(), cap);
        let s = pool.stats();
        assert_eq!((s.acquires, s.reuses), (2, 1));
        let r = run.snapshot();
        assert_eq!((r.pool_acquires, r.pool_reuses), (2, 1));
        assert_eq!(s.bytes_reused, 101 * 8);
        assert_eq!(s.bytes_held, 0);
    }

    #[test]
    fn distinct_classes_do_not_alias() {
        let (pool, run) = pool_and_run();
        pool.release(pool.acquire(16, &run));
        let big = pool.acquire(1000, &run); // class 1024 — must not reuse the 16-class buffer
        assert_eq!(big.len(), 1000);
        assert_eq!(pool.stats().reuses, 0);
    }

    #[test]
    fn retention_cap_bounds_memory() {
        let (pool, run) = pool_and_run();
        let held: Vec<_> = (0..MAX_PER_CLASS + 5)
            .map(|_| pool.acquire(8, &run))
            .collect();
        for v in held {
            pool.release(v);
        }
        assert_eq!(pool.stats().bytes_held as usize, MAX_PER_CLASS * 8 * 8);
        pool.clear();
        assert_eq!(pool.stats().bytes_held, 0);
    }

    #[test]
    fn zero_len_buffers_are_harmless() {
        let (pool, run) = pool_and_run();
        let v = pool.acquire(0, &run);
        assert!(v.is_empty());
        pool.release(Vec::new());
        assert_eq!(pool.stats().bytes_held, 0);
    }
}

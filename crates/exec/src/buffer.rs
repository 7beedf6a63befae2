//! Shared mutable container storage for parallel map execution.
//!
//! The SDFG contract (validated structurally, and the same one DaCe's
//! generated OpenMP code relies on) is that concurrent map iterations write
//! disjoint subsets unless the memlet carries a write-conflict resolution —
//! in which case writes go through the atomic path below.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A shared `f64` buffer accessed from multiple worker threads.
///
/// # Safety contract
///
/// Plain `read`/`write` may be used concurrently only on disjoint index
/// sets (guaranteed by map semantics for WCR-free memlets). Conflicting
/// writes must use [`SharedBuffer::atomic_combine`].
pub struct SharedBuffer {
    data: UnsafeCell<Vec<f64>>,
}

// SAFETY: concurrent access is governed by the SDFG semantics contract
// documented above; the atomic path uses word-level CAS.
unsafe impl Sync for SharedBuffer {}
unsafe impl Send for SharedBuffer {}

impl SharedBuffer {
    /// Wraps a vector.
    pub fn new(data: Vec<f64>) -> SharedBuffer {
        SharedBuffer {
            data: UnsafeCell::new(data),
        }
    }

    /// Unwraps the vector.
    pub fn into_inner(self) -> Vec<f64> {
        self.data.into_inner()
    }

    /// Buffer length.
    pub fn len(&self) -> usize {
        unsafe {
            let v: &Vec<f64> = &*self.data.get();
            v.len()
        }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads one element (0.0 out of bounds, matching the interpreter's
    /// forgiving gather).
    #[inline]
    pub fn read(&self, idx: usize) -> f64 {
        unsafe {
            let v: &Vec<f64> = &*self.data.get();
            v.get(idx).copied().unwrap_or(0.0)
        }
    }

    /// Writes one element (ignored out of bounds).
    ///
    /// Caller must guarantee no concurrent access to `idx` (see the type's
    /// safety contract).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub fn write(&self, idx: usize, v: f64) {
        unsafe {
            let vec: &mut Vec<f64> = &mut *self.data.get();
            if let Some(slot) = vec.get_mut(idx) {
                *slot = v;
            }
        }
    }

    /// Writes `src` to the elements starting at `start`, which must lie
    /// in bounds.
    ///
    /// Caller must guarantee no concurrent access to those elements (see
    /// the type's safety contract).
    #[inline]
    pub fn write_slice(&self, start: usize, src: &[f64]) {
        unsafe {
            let vec: &mut Vec<f64> = &mut *self.data.get();
            assert!(start <= vec.len() && src.len() <= vec.len() - start);
            std::ptr::copy_nonoverlapping(src.as_ptr(), vec.as_mut_ptr().add(start), src.len());
        }
    }

    /// Raw slice view. Caller must guarantee the usual aliasing contract.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        unsafe { &*self.data.get() }
    }

    /// Raw mutable slice view (single-threaded phases only).
    ///
    /// # Safety
    ///
    /// The caller must guarantee no other reference (shared or mutable)
    /// to the buffer's contents exists for the lifetime of the returned
    /// slice — i.e. only call this from single-threaded phases.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn as_mut_slice(&self) -> &mut [f64] {
        &mut *self.data.get()
    }

    /// Non-atomic read-modify-write combine, for WCR writes proven
    /// race-free by the executor's analysis.
    #[inline]
    pub fn combine_plain(&self, idx: usize, v: f64, f: impl Fn(f64, f64) -> f64) {
        let old = self.read(idx);
        self.write(idx, f(old, v));
    }

    /// Atomically combines `v` into `data[idx]` with `f` (CAS loop) — the
    /// lowering of write-conflict resolution on CPU targets.
    #[inline]
    pub fn atomic_combine(&self, idx: usize, v: f64, f: impl Fn(f64, f64) -> f64) {
        unsafe {
            let vec = &mut *self.data.get();
            let Some(slot) = vec.get_mut(idx) else { return };
            let atom = &*(slot as *mut f64 as *const AtomicU64);
            let mut cur = atom.load(Ordering::Relaxed);
            loop {
                let old = f64::from_bits(cur);
                let new = f(old, v).to_bits();
                match atom.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
                    Ok(_) => return,
                    Err(actual) => cur = actual,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let b = SharedBuffer::new(vec![0.0; 4]);
        b.write(2, 7.5);
        assert_eq!(b.read(2), 7.5);
        assert_eq!(b.read(99), 0.0); // out of bounds tolerated
        b.write(99, 1.0); // ignored
        assert_eq!(b.into_inner(), vec![0.0, 0.0, 7.5, 0.0]);
    }

    #[test]
    fn atomic_sum_from_many_threads() {
        let b = SharedBuffer::new(vec![0.0; 1]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        b.atomic_combine(0, 1.0, |a, x| a + x);
                    }
                });
            }
        });
        assert_eq!(b.read(0), 80_000.0);
    }

    #[test]
    fn atomic_min_max() {
        let b = SharedBuffer::new(vec![f64::INFINITY, f64::NEG_INFINITY]);
        std::thread::scope(|s| {
            for t in 0..4 {
                let tv = t as f64;
                let b = &b;
                s.spawn(move || {
                    b.atomic_combine(0, tv, f64::min);
                    b.atomic_combine(1, tv, f64::max);
                });
            }
        });
        assert_eq!(b.read(0), 0.0);
        assert_eq!(b.read(1), 3.0);
    }
}

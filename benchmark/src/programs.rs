//! The programs the workloads are made of: how each is built, which of its
//! inputs the seed drives, its hand-written reference, and its native
//! yardstick.

use crate::gen::{self, Rng};
use sdfg_exec::{OptLevel, Profiling, Session};
use sdfg_workloads::{kernels, polybench, tuned, Workload};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    Mm,
    Jacobi2d,
    Histogram,
    Query,
    Spmv,
    Poly(&'static str),
}

/// A program at a fixed size (`aux`: time steps for `jacobi2d`, nonzeros
/// per row for `spmv`).
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub size: usize,
    pub aux: usize,
}

impl Spec {
    pub const fn new(kind: Kind, size: usize, aux: usize) -> Spec {
        Spec { kind, size, aux }
    }

    pub const fn poly(name: &'static str, size: usize) -> Spec {
        Spec::new(Kind::Poly(name), size, 0)
    }

    pub fn label(&self) -> String {
        match self.kind {
            Kind::Mm => format!("mm@{}", self.size),
            Kind::Jacobi2d => format!("jacobi2d@{}x{}", self.size, self.aux),
            Kind::Histogram => format!("histogram@{}", self.size),
            Kind::Query => format!("query@{}", self.size),
            Kind::Spmv => format!("spmv@{}x{}", self.size, self.aux),
            Kind::Poly(name) => format!("{name}@{}", self.size),
        }
    }
}

pub struct Program {
    pub spec: Spec,
    pub label: String,
    pub w: Workload,
}

impl Program {
    /// Builds the SDFG and its generator inputs (the frontend's work), then
    /// overwrites the value-agnostic inputs from the seed.
    pub fn build(spec: Spec, seed: u64) -> Program {
        let w = match spec.kind {
            Kind::Mm => kernels::mm(spec.size),
            Kind::Jacobi2d => kernels::jacobi2d(spec.size, spec.aux),
            Kind::Histogram => kernels::histogram(spec.size),
            Kind::Query => kernels::query(spec.size),
            Kind::Spmv => kernels::spmv(spec.size, spec.aux),
            Kind::Poly(name) => (poly(name).build)(spec.size),
        };
        let mut p = Program {
            spec,
            label: spec.label(),
            w,
        };
        p.seed_inputs(seed, 0);
        p
    }

    /// Regenerates the seeded inputs; `variant` selects one of several
    /// input sets for the same seed (the serve request-body pool).
    /// Structurally constrained inputs (the SPD matrix of `cholesky` and
    /// `ludcmp`, `durbin`'s coefficients, `nussinov`'s sequence) keep the
    /// generator's values.
    pub fn seed_inputs(&mut self, seed: u64, variant: usize) {
        let label = self.label.clone();
        let rng = |array: &str| Rng::new(seed, &format!("{label}/{array}/{variant}"));
        let n = self.spec.size;
        let arrays = &mut self.w.arrays;
        // Replaces an array with `make(its length)`.
        let mut set = |name: &str, make: &mut dyn FnMut(usize) -> Vec<f64>| {
            let slot = arrays.get_mut(name).expect("seeded array exists");
            let data = make(slot.len());
            assert_eq!(slot.len(), data.len(), "`{name}` keeps its shape");
            *slot = data;
        };
        match self.spec.kind {
            Kind::Mm => {
                set("A", &mut |len| rng("A").signed_units(len));
                set("B", &mut |len| rng("B").signed_units(len));
            }
            // Interior of buffer 0; boundaries and buffer 1 stay zero.
            Kind::Jacobi2d => set("A", &mut |len| {
                let mut a = vec![0.0; len];
                let mut r = rng("A");
                for i in 1..n - 1 {
                    for j in 1..n - 1 {
                        a[i * n + j] = r.signed_unit();
                    }
                }
                a
            }),
            Kind::Histogram => set("img", &mut |len| {
                let mut r = rng("img");
                (0..len).map(|_| r.below(256) as f64).collect()
            }),
            // Threshold 0 on a uniform [-1, 1) column: selectivity stays at
            // one half (which elements match moves with the seed, how many
            // barely does).
            Kind::Query => set("col", &mut |len| rng("col").signed_units(len)),
            Kind::Spmv => {
                // Seeded sparsity pattern, fixed nonzeros per row.
                set("A_col", &mut |len| {
                    let mut r = rng("A_col");
                    (0..len).map(|_| r.below(n as u64) as f64).collect()
                });
                set("A_val", &mut |len| rng("A_val").signed_units(len));
                set("x", &mut |len| rng("x").signed_units(len));
            }
            Kind::Poly("3mm") => {
                for name in ["A", "B", "C", "D"] {
                    set(name, &mut |len| rng(name).signed_units(len));
                }
            }
            // Served programs: short decimals keep the JSON body size fixed.
            Kind::Poly("atax") => {
                for name in ["A", "x"] {
                    set(name, &mut |len| rng(name).decimals(len));
                }
            }
            Kind::Poly("bicg") => {
                for name in ["A", "r", "p"] {
                    set(name, &mut |len| rng(name).decimals(len));
                }
            }
            Kind::Poly("ludcmp") => set("b", &mut |len| {
                rng("b").decimals(len).iter().map(|x| 4.0 + x).collect()
            }),
            Kind::Poly(_) => {}
        }
    }

    /// The configuration under test: what users run.
    pub fn session(&self, threads: usize, profiling: Profiling) -> Result<Session, String> {
        self.w
            .session()
            .opt_level(OptLevel::Aggressive)
            .jit(true)
            .nthreads(threads)
            .profiling(profiling)
            .build()
            .map_err(|e| format!("{}: session build: {e}", self.label))
    }

    /// Hand-written reference results for the checked containers.
    pub fn reference(&self) -> HashMap<String, Vec<f64>> {
        let w = &self.w;
        let one = |name: &str, v: Vec<f64>| HashMap::from([(name.to_string(), v)]);
        match self.spec.kind {
            Kind::Mm => one("C", kernels::mm_reference(w)),
            Kind::Jacobi2d => one("A", kernels::jacobi2d_reference(w)),
            Kind::Histogram => one("hist", kernels::histogram_reference(w)),
            Kind::Query => one("count", vec![kernels::query_reference(w)]),
            Kind::Spmv => one("b", kernels::spmv_reference(w)),
            Kind::Poly(name) => (poly(name).reference)(w),
        }
    }

    /// Compares the checked containers against the reference, relative 1e-9.
    pub fn check(&self, got: &HashMap<String, Vec<f64>>) -> Result<(), String> {
        let want = self.reference();
        for name in &self.w.check {
            let (a, b) = match (got.get(name), want.get(name)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(format!("{}: container `{name}` missing", self.label)),
            };
            if a.len() != b.len() {
                return Err(format!(
                    "{}: `{name}` has {} elements, want {}",
                    self.label,
                    a.len(),
                    b.len()
                ));
            }
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                let scale = 1.0 + x.abs().max(y.abs());
                let diff = (x - y).abs();
                // A NaN on either side is a mismatch, not a pass.
                if diff.is_nan() || diff > 1e-9 * scale {
                    return Err(format!(
                        "{}: `{name}`[{i}] = {x}, reference {y}",
                        self.label
                    ));
                }
            }
        }
        Ok(())
    }

    /// Bitwise checksum over the checked containers.
    pub fn checksum(&self, arrays: &HashMap<String, Vec<f64>>) -> u64 {
        self.w.check.iter().fold(0, |h, name| {
            let part = arrays.get(name).map_or(0, |v| gen::checksum(v));
            h.rotate_left(17) ^ part
        })
    }

    /// Runs the native yardstick once on this program's inputs and returns
    /// its time in ms: the `workloads::tuned` kernel where one exists (`3mm`
    /// is three `gemm_tuned` calls), else the hand-written sequential
    /// reference. Buffers are allocated outside the timed interval.
    pub fn native_ms(&self) -> f64 {
        let w = &self.w;
        let n = self.spec.size;
        let a = |name: &str| w.arrays[name].as_slice();
        match self.spec.kind {
            Kind::Mm => {
                let mut c = vec![0.0; n * n];
                timed(|| tuned::gemm_tuned(a("A"), a("B"), &mut c, n, n, n))
            }
            Kind::Jacobi2d => {
                let mut cur = a("A")[..n * n].to_vec();
                let mut next = a("A")[n * n..].to_vec();
                timed(|| tuned::jacobi2d_tuned(&mut cur, &mut next, n, self.spec.aux))
            }
            Kind::Histogram => {
                let mut hist = vec![0.0; 16];
                timed(|| tuned::histogram_tuned(a("img"), &mut hist, 16))
            }
            Kind::Query => {
                let mut out = vec![0.0; n];
                timed(|| {
                    black_box(tuned::query_tuned(a("col"), &mut out, 0.0));
                })
            }
            Kind::Spmv => {
                let mut y = vec![0.0; n];
                timed(|| tuned::spmv_tuned(a("A_row"), a("A_col"), a("A_val"), a("x"), &mut y))
            }
            Kind::Poly("3mm") => {
                let s = |name: &str| w.sym(name) as usize;
                let (ni, nj, nk, nl, nm) = (s("NI"), s("NJ"), s("NK"), s("NL"), s("NM"));
                let mut e = vec![0.0; ni * nj];
                let mut f = vec![0.0; nj * nl];
                let mut g = vec![0.0; ni * nl];
                timed(|| {
                    tuned::gemm_tuned(a("A"), a("B"), &mut e, ni, nk, nj);
                    tuned::gemm_tuned(a("C"), a("D"), &mut f, nj, nm, nl);
                    tuned::gemm_tuned(&e, &f, &mut g, ni, nj, nl);
                    black_box(&g);
                })
            }
            Kind::Poly(name) => {
                let reference = poly(name).reference;
                timed(|| {
                    black_box(reference(w));
                })
            }
        }
    }
}

fn poly(name: &str) -> polybench::PolyKernel {
    polybench::by_name(name).unwrap_or_else(|| panic!("no Polybench kernel `{name}`"))
}

fn timed(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_inputs_are_deterministic_and_keep_structure() {
        let spec = Spec::new(Kind::Spmv, 64, 4);
        let a = Program::build(spec, 3);
        let b = Program::build(spec, 3);
        let c = Program::build(spec, 4);
        for name in ["A_col", "A_val", "x"] {
            assert_eq!(a.w.arrays[name], b.w.arrays[name], "{name}");
            assert_ne!(a.w.arrays[name], c.w.arrays[name], "{name}");
        }
        // The row pointers (fixed nonzeros per row) do not move with the seed.
        assert_eq!(a.w.arrays["A_row"], c.w.arrays["A_row"]);
        assert!(a.w.arrays["A_col"]
            .iter()
            .all(|&c| (0.0..64.0).contains(&c)));
    }

    #[test]
    fn variants_differ_for_one_seed() {
        let mut p = Program::build(Spec::poly("atax", 8), 1);
        let first = p.w.arrays["A"].clone();
        p.seed_inputs(1, 1);
        assert_ne!(first, p.w.arrays["A"]);
        p.seed_inputs(1, 0);
        assert_eq!(first, p.w.arrays["A"]);
    }

    #[test]
    fn check_accepts_the_reference_and_rejects_a_wrong_value() {
        let p = Program::build(Spec::new(Kind::Mm, 8, 0), 1);
        let mut got = p.reference();
        assert!(p.check(&got).is_ok());
        let sum = p.checksum(&got);
        got.get_mut("C").unwrap()[5] += 1e-6;
        assert!(p.check(&got).is_err());
        assert_ne!(sum, p.checksum(&got));
    }
}

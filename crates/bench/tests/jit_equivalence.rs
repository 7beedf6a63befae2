//! The JIT lowering tier's correctness gate.
//!
//! Every Polybench kernel must produce outputs **bit-for-bit identical**
//! with the JIT tier enabled and disabled: the generated C mirrors the
//! interpreted tiers statement for statement and compiles with FP
//! contraction off, so there is no tolerance here — a single differing
//! bit fails the suite. Each kernel runs twice with the JIT on: cold, while
//! its kernels compile in the background (each launch on whichever tier is
//! ready), and again once they have all compiled. On machines without a
//! system C compiler the
//! enabled runs silently fall back to the interpreted tiers and the gate
//! still passes (equality is then trivial), which pins the graceful-
//! degradation contract at the same time.

use sdfg_workloads::polybench;
use sdfg_workloads::workload::Workload;
use std::collections::HashMap;

const SCALE: usize = 24;

fn run_with_jit(w: &Workload, jit: bool, nthreads: usize) -> HashMap<String, Vec<f64>> {
    let session = w
        .session()
        .jit(jit)
        .nthreads(nthreads)
        .build()
        .unwrap_or_else(|e| panic!("{}: session build failed: {e}", w.name));
    session
        .run(w.bindings())
        .unwrap_or_else(|e| panic!("{}: invoke failed: {e}", w.name))
        .into_arrays()
}

fn bitwise_mismatches(
    check: &[String],
    on: &HashMap<String, Vec<f64>>,
    off: &HashMap<String, Vec<f64>>,
) -> usize {
    let mut bad = 0;
    for name in check {
        let a = &on[name];
        let b = &off[name];
        assert_eq!(a.len(), b.len(), "`{name}` length");
        bad += a
            .iter()
            .zip(b)
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count();
    }
    bad
}

/// The gate itself: every Polybench kernel, JIT on vs off, at serial,
/// 2-thread and oversubscribed 8-thread configurations. The thread sweep
/// pins the whole-nest paths — the serial loop collapse, the serial-map
/// admission gate, and the parallel tile→nest-call dispatch on the steal
/// scheduler — against the interpreted tiers, bit for bit.
fn gate_at(nthreads: usize) {
    let mut failures = Vec::new();
    for k in polybench::all() {
        let w = (k.build)(SCALE);
        let cold = run_with_jit(&w, true, nthreads);
        sdfg_exec::jit::wait_idle();
        let warm = run_with_jit(&w, true, nthreads);
        let off = run_with_jit(&w, false, nthreads);
        let bad =
            bitwise_mismatches(&w.check, &cold, &off) + bitwise_mismatches(&w.check, &warm, &off);
        if bad > 0 {
            failures.push(format!("{}: {bad} bitwise mismatches", k.name));
        }
    }
    assert!(
        failures.is_empty(),
        "JIT tier diverged from the interpreted tiers at {nthreads} threads:\n{}",
        failures.join("\n")
    );
}

#[test]
fn polybench_bitwise_identical_with_jit_on_and_off() {
    gate_at(1);
}

#[test]
fn polybench_bitwise_identical_at_two_threads() {
    gate_at(2);
}

#[test]
fn polybench_bitwise_identical_at_eight_threads() {
    gate_at(8);
}

#[test]
fn jit_off_env_var_disables_the_tier() {
    // `SDFG_JIT` is latched once per process, so the env var must be set
    // before any JIT query: spawn a child with it set and have it verify
    // that no points execute on the JIT tier even with `jit(true)`.
    // (Setting env vars in-process would race other tests' threads.)
    if std::env::var_os("SDFG_JIT_OFF_CHILD").is_some() {
        let k = polybench::all()
            .into_iter()
            .find(|k| k.name == "gemm")
            .unwrap();
        let w = (k.build)(SCALE);
        let session = w.session().jit(true).build().unwrap();
        let out = session.run(w.bindings()).unwrap();
        assert_eq!(
            out.stats().jit_points,
            0,
            "SDFG_JIT=off must win over jit(true)"
        );
        return;
    }
    let exe = std::env::current_exe().unwrap();
    let status = std::process::Command::new(exe)
        .args(["--exact", "jit_off_env_var_disables_the_tier"])
        .env("SDFG_JIT", "off")
        .env("SDFG_JIT_OFF_CHILD", "1")
        .status()
        .expect("re-exec test binary");
    assert!(status.success(), "child run with SDFG_JIT=off failed");
}

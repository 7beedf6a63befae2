//! The executor's correctness gate against the oracle.
//!
//! Every Polybench kernel and the five §6.1 kernels (mm, jacobi2d,
//! histogram, query, spmv) must produce outputs **bit-for-bit identical**
//! to the reference interpreter's, on every tier: the micro-kernels only
//! accept tasklet forms they evaluate as written, the generated C mirrors
//! the tasklet VM statement by statement and compiles with FP contraction
//! off, and register reductions seed from the output. So there is no
//! tolerance here — a single differing bit fails the suite. Each program
//! runs with the JIT off and twice with it on: cold, while its kernels
//! compile in the background (each launch on whichever tier is ready),
//! and again once they have all compiled; at both optimization levels. On
//! machines without a system C compiler the enabled runs silently fall
//! back to the interpreted tiers and the gate still holds, which pins the
//! graceful-degradation contract at the same time.

use sdfg_exec::OptLevel;
use sdfg_workloads::workload::Workload;
use sdfg_workloads::{kernels, polybench};
use std::collections::HashMap;

const SCALE: usize = 24;

/// The gated programs at `SCALE`.
fn programs() -> Vec<Workload> {
    let mut ws: Vec<Workload> = polybench::all()
        .into_iter()
        .map(|k| (k.build)(SCALE))
        .collect();
    ws.extend([
        kernels::mm(SCALE),
        kernels::jacobi2d(SCALE, 4),
        kernels::histogram(SCALE * 8),
        kernels::query(SCALE * 8),
        kernels::spmv(SCALE, 4),
    ]);
    ws
}

fn run(w: &Workload, opt: OptLevel, jit: bool, nthreads: usize) -> HashMap<String, Vec<f64>> {
    let session = w
        .session()
        .opt_level(opt)
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
    got: &HashMap<String, Vec<f64>>,
    want: &HashMap<String, Vec<f64>>,
) -> usize {
    let mut bad = 0;
    for name in check {
        let a = &got[name];
        let b = &want[name];
        assert_eq!(a.len(), b.len(), "`{name}` length");
        bad += a
            .iter()
            .zip(b)
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count();
    }
    bad
}

/// The gate itself, at serial, 2-thread and oversubscribed 8-thread
/// configurations. The thread sweep pins the whole-nest paths — the serial
/// loop collapse, the serial-map admission gate, and the parallel
/// tile→nest-call dispatch on the steal scheduler — against the
/// interpreter, bit for bit.
fn gate_at(nthreads: usize) {
    let mut failures = Vec::new();
    for w in programs() {
        let want = w
            .run_interp()
            .unwrap_or_else(|e| panic!("{}: interpreter failed: {e}", w.name));
        for opt in [OptLevel::None, OptLevel::Aggressive] {
            let off = run(&w, opt, false, nthreads);
            let cold = run(&w, opt, true, nthreads);
            sdfg_exec::jit::wait_idle();
            let warm = run(&w, opt, true, nthreads);
            for (when, got) in [("jit off", &off), ("cold", &cold), ("warm", &warm)] {
                let bad = bitwise_mismatches(&w.check, got, &want);
                if bad > 0 {
                    failures.push(format!("{} ({opt:?}, {when}): {bad} elements", w.name));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "executor diverged from the interpreter at {nthreads} threads:\n{}",
        failures.join("\n")
    );
}

#[test]
fn programs_match_the_interpreter_bitwise() {
    gate_at(1);
}

#[test]
fn programs_match_the_interpreter_bitwise_at_two_threads() {
    gate_at(2);
}

#[test]
fn programs_match_the_interpreter_bitwise_at_eight_threads() {
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

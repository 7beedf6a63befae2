//! The executor's compiled fast paths are a load-bearing claim in
//! EXPERIMENTS.md: for the regular kernels (MM contraction, Jacobi
//! stencil) and for the fused SSE operator, *every* tasklet point must be
//! recognized and executed through a compiled tier — the JIT when a
//! system C compiler is present, the native micro-kernels otherwise — so
//! the remaining gap to ahead-of-time compiled code is pure
//! interpretation overhead, not dataflow overhead. Pin that here so
//! executor refactors can't silently fall back to the VM.

use sdfg_workloads::{kernels, sse};

#[test]
fn mm_runs_fully_native() {
    let w = kernels::mm(48);
    let (_, stats, _) = w.run_exec().expect("mm runs");
    assert!(stats.tasklet_points > 0);
    assert_eq!(
        stats.native_points + stats.jit_points,
        stats.tasklet_points,
        "MM contraction must run on a compiled tier"
    );
}

#[test]
fn jacobi_runs_fully_native() {
    let w = kernels::jacobi2d(32, 4);
    let (_, stats, _) = w.run_exec().expect("jacobi runs");
    assert!(stats.tasklet_points > 0);
    assert_eq!(
        stats.native_points + stats.jit_points,
        stats.tasklet_points,
        "Jacobi stencil must run on a compiled tier (JIT or the scaled-sum micro-kernel)"
    );
}

#[test]
fn sse_runs_fully_native() {
    let d = sse::SseDims::small(2);
    let w = sse::build_sse_sdfg(&d);
    let (_, stats, _) = w.run_exec().expect("sse runs");
    assert!(stats.tasklet_points > 0);
    assert_eq!(
        stats.native_points + stats.jit_points,
        stats.tasklet_points,
        "fused SSE operator must execute 100% on a compiled path"
    );
}

#[test]
fn histogram_points_are_counted() {
    // Histogram's data-dependent WCR scatter is *allowed* to use the VM;
    // the statistic itself must still account for every point.
    let w = kernels::histogram(512);
    let (_, stats, _) = w.run_exec().expect("histogram runs");
    assert!(stats.tasklet_points >= 512);
    assert!(stats.native_points + stats.jit_points <= stats.tasklet_points);
}

//! Cross-backend equivalence over the full Polybench suite.
//!
//! Every kernel routed through the heterogeneous runtime under the GPU
//! and FPGA targets must produce outputs bit-for-bit identical to the
//! plain CPU executor on the untransformed SDFG (device dispatch,
//! transforms, and transfer staging may not change a single ulp) and to
//! the reference interpreter.

use sdfg_bench::targets::{run_workload_targeted, Target};
use sdfg_workloads::polybench;

const SCALE: usize = 24;

fn check_target(target: Target) {
    let mut failures = Vec::new();
    for k in polybench::all() {
        let w = (k.build)(SCALE);
        match run_workload_targeted(&w, target) {
            Ok(run) if !run.verified() => failures.push(format!(
                "{}: {} bitwise mismatches vs cpu executor, {} bitwise \
                 mismatches vs interpreter",
                k.name, run.bitwise_mismatches, run.interp_mismatches
            )),
            Ok(_) => {}
            Err(e) => failures.push(format!("{}: {e}", k.name)),
        }
    }
    assert!(
        failures.is_empty(),
        "target {:?} diverged:\n{}",
        target,
        failures.join("\n")
    );
}

#[test]
fn polybench_matches_cpu_and_interpreter_under_gpu_target() {
    check_target(Target::Gpu);
}

#[test]
fn polybench_matches_cpu_and_interpreter_under_fpga_target() {
    check_target(Target::Fpga);
}

#[test]
fn polybench_matches_cpu_and_interpreter_under_hetero_target() {
    check_target(Target::Hetero);
}

#[test]
fn gemm_routes_device_states_to_the_gpu_backend() {
    let k = polybench::all()
        .into_iter()
        .find(|k| k.name == "gemm")
        .unwrap();
    let w = (k.build)(SCALE);
    let run = run_workload_targeted(&w, Target::Gpu).expect("targeted run");
    let g = run
        .report
        .backend("gpu-sim")
        .expect("gpu backend registered");
    assert!(g.state_visits > 0, "no state reached the GPU backend");
    assert!(g.scope.scopes > 0, "no kernel launch was modeled");
    assert!(g.xfer.total() > 0, "no host<->device bytes were accounted");
    let c = run.report.backend("cpu").expect("cpu fallback registered");
    assert!(c.state_visits > 0, "host states should stay on the CPU");
}

#[test]
fn gemm_routes_device_states_to_the_fpga_backend() {
    let k = polybench::all()
        .into_iter()
        .find(|k| k.name == "gemm")
        .unwrap();
    let w = (k.build)(SCALE);
    let run = run_workload_targeted(&w, Target::Fpga).expect("targeted run");
    let f = run
        .report
        .backend("fpga-sim")
        .expect("fpga backend registered");
    assert!(f.state_visits > 0, "no state reached the FPGA backend");
    assert!(f.scope.cycles > 0, "no cycles were modeled");
    assert!(f.xfer.total() > 0, "no DDR bytes were accounted");
}

//! Cross-backend equivalence over the full Polybench suite.
//!
//! Every kernel routed to simulated device backends under the GPU and
//! FPGA targets must produce outputs bit-for-bit identical to the plain
//! CPU executor on the untransformed SDFG (device dispatch, transforms,
//! and transfer staging may not change a single ulp) and to the reference
//! interpreter.

use sdfg_bench::targets::{lower_for, run_workload_targeted, session_for, Target, TargetRun};
use sdfg_exec::BackendStats;
use sdfg_workloads::polybench;
use sdfg_workloads::workload::Workload;

const SCALE: usize = 24;

fn kernel(name: &str) -> Workload {
    let k = polybench::all()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap();
    (k.build)(SCALE)
}

fn backend<'r>(run: &'r TargetRun, name: &str) -> &'r BackendStats {
    run.backends
        .iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("{name} backend registered"))
}

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
    let run = run_workload_targeted(&kernel("gemm"), Target::Gpu).expect("targeted run");
    let g = backend(&run, "gpu-sim");
    assert!(g.state_visits > 0, "no state reached the GPU backend");
    assert!(g.scope.scopes > 0, "no kernel launch was modeled");
    assert!(g.xfer.total() > 0, "no host<->device bytes were accounted");
    let c = backend(&run, "cpu");
    assert!(c.state_visits > 0, "host states should stay on the CPU");
}

#[test]
fn gemm_routes_device_states_to_the_fpga_backend() {
    let run = run_workload_targeted(&kernel("gemm"), Target::Fpga).expect("targeted run");
    let f = backend(&run, "fpga-sim");
    assert!(f.state_visits > 0, "no state reached the FPGA backend");
    assert!(f.scope.cycles > 0, "no cycles were modeled");
    assert!(f.xfer.total() > 0, "no DDR bytes were accounted");
}

/// What the accounting of one backend must pin down: name, state visits,
/// scopes, host-to-device and device-to-host bytes, modeled cycles and
/// processing elements.
type Accounting = (&'static str, u64, u64, u64, u64, u64, u64);

/// The per-backend accounting of gemm and atax at scale 24, as the
/// heterogeneous dispatcher reported it before it became a session
/// backend (`harness gemm atax --target T --json`).
const PINNED: [(&str, Target, [Accounting; 3]); 6] = [
    (
        "atax",
        Target::Gpu,
        [
            ("cpu", 2, 0, 0, 0, 0, 0),
            ("gpu-sim", 2, 2, 6240, 6240, 0, 0),
            ("", 0, 0, 0, 0, 0, 0),
        ],
    ),
    (
        "gemm",
        Target::Gpu,
        [
            ("cpu", 2, 0, 0, 0, 0, 0),
            ("gpu-sim", 2, 2, 16192, 16192, 0, 0),
            ("", 0, 0, 0, 0, 0, 0),
        ],
    ),
    (
        "atax",
        Target::Fpga,
        [
            ("cpu", 2, 0, 0, 0, 0, 0),
            ("fpga-sim", 2, 2, 6240, 6240, 1560, 1),
            ("", 0, 0, 0, 0, 0, 0),
        ],
    ),
    (
        "gemm",
        Target::Fpga,
        [
            ("cpu", 2, 0, 0, 0, 0, 0),
            ("fpga-sim", 2, 2, 16192, 16192, 18264, 1),
            ("", 0, 0, 0, 0, 0, 0),
        ],
    ),
    (
        "atax",
        Target::Hetero,
        [
            ("cpu", 2, 2, 0, 0, 0, 0),
            ("gpu-sim", 0, 0, 0, 0, 0, 0),
            ("fpga-sim", 0, 0, 0, 0, 0, 0),
        ],
    ),
    (
        "gemm",
        Target::Hetero,
        [
            ("cpu", 2, 2, 0, 0, 0, 0),
            ("gpu-sim", 0, 0, 0, 0, 0, 0),
            ("fpga-sim", 0, 0, 0, 0, 0, 0),
        ],
    ),
];

#[test]
fn per_backend_accounting_is_pinned() {
    for (name, target, want) in PINNED {
        let run = run_workload_targeted(&kernel(name), target).expect("targeted run");
        assert!(run.verified(), "{name} {target:?}");
        let got: Vec<(String, u64, u64, u64, u64, u64, u64)> = run
            .backends
            .iter()
            .map(|b| {
                (
                    b.name.clone(),
                    b.state_visits,
                    b.scope.scopes,
                    b.xfer.h2d_bytes,
                    b.xfer.d2h_bytes,
                    b.scope.cycles,
                    b.scope.pes,
                )
            })
            .collect();
        let want: Vec<(String, u64, u64, u64, u64, u64, u64)> = want
            .iter()
            .filter(|w| !w.0.is_empty())
            .map(|&(n, v, s, h, d, c, p)| (n.to_string(), v, s, h, d, c, p))
            .collect();
        assert_eq!(got, want, "{name} {target:?}");
    }
}

/// Everything a backend reports that does not depend on the host clock
/// (the CPU backend's compute time is measured wall time).
fn modeled(b: &BackendStats) -> (String, u64, u64, [u64; 5], u64, u64, [u64; 2]) {
    let compute = if b.name == "cpu" {
        0.0
    } else {
        b.scope.compute_s
    };
    (
        b.name.clone(),
        b.state_visits,
        b.scope.scopes,
        [
            compute,
            b.scope.copy_s,
            b.scope.flops,
            b.scope.bytes,
            b.transfer_s,
        ]
        .map(f64::to_bits),
        b.scope.cycles,
        b.scope.pes,
        [b.xfer.h2d_bytes, b.xfer.d2h_bytes],
    )
}

/// One hetero session invoked from two threads at once: both outputs
/// match the interpreter bit for bit, and both backend reports agree.
#[test]
fn one_hetero_session_serves_two_threads() {
    for name in ["gemm", "atax"] {
        let w = kernel(name);
        let want = w.run_interp().expect("interpreter");
        let session =
            session_for(lower_for(&w.sdfg, Target::Hetero), Target::Hetero).expect("session");
        let (a, b) = std::thread::scope(|s| {
            let run = || s.spawn(|| session.run(w.bindings()).expect("run"));
            let (a, b) = (run(), run());
            (a.join().unwrap(), b.join().unwrap())
        });
        for out in [&a, &b] {
            for c in &w.check {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(out.array(c).unwrap()), bits(&want[c]), "{name}: `{c}`");
            }
        }
        let report = |o: &sdfg_exec::Outputs| o.backends().iter().map(modeled).collect::<Vec<_>>();
        assert_eq!(report(&a).len(), 3, "{name}");
        assert_eq!(report(&a), report(&b), "{name}");
    }
}

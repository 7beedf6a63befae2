//! The `--target` axis: routing kernels to simulated device backends.
//!
//! `harness <kernels...> --target gpu|fpga|hetero` lowers each kernel
//! with the device transform the target implies, runs it on a
//! [`Session`] with the matching simulator backends registered, and
//! writes one `BENCH_<kernel>.json` with per-backend statistics (state
//! visits, modeled compute/copy time, host↔device transfer bytes).
//! `--target cpu` registers no device backend, so it runs the plain host
//! path and reports no backend rows.
//!
//! Verification is two-sided: the targeted run must match, **bit for
//! bit**, both the plain CPU executor on the untransformed SDFG (device
//! dispatch, transforms, and transfer staging must not change a single
//! ulp) and the reference interpreter (every tier computes the
//! interpreter's arithmetic).

use sdfg_core::{Sdfg, SdfgError};
use sdfg_exec::{BackendStats, Session};
use sdfg_fpga_sim::{vcu1525, FpgaMode, FpgaSimBackend};
use sdfg_gpu_sim::{p100, GpuSimBackend};
use sdfg_transforms::{apply_first, FpgaTransform, GpuTransform, Params};
use sdfg_workloads::polybench;
use sdfg_workloads::workload::Workload;

/// Where `--target` sends a kernel's device-scheduled scopes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// CPU only — the plain host path (no transform, no device
    /// backends).
    Cpu,
    /// GPU model: `GpuTransform` + the roofline simulator backend.
    Gpu,
    /// FPGA model: `FpgaTransform` + the pipelined cycle-model backend.
    Fpga,
    /// All backends registered; no transform is applied, so each state
    /// runs wherever its existing schedules point.
    Hetero,
}

impl Target {
    /// Parses a `--target` value.
    pub fn parse(s: &str) -> Option<Target> {
        match s {
            "cpu" => Some(Target::Cpu),
            "gpu" => Some(Target::Gpu),
            "fpga" => Some(Target::Fpga),
            "hetero" => Some(Target::Hetero),
            _ => None,
        }
    }

    /// The `--target` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Target::Cpu => "cpu",
            Target::Gpu => "gpu",
            Target::Fpga => "fpga",
            Target::Hetero => "hetero",
        }
    }
}

/// Lowers `sdfg` for the target: applies the device transform the target
/// implies. A kernel the transform does not match is returned unchanged
/// and will run on the CPU fallback backend.
pub fn lower_for(sdfg: &Sdfg, target: Target) -> Sdfg {
    let mut s = sdfg.clone();
    match target {
        Target::Cpu | Target::Hetero => {}
        Target::Gpu => {
            let _ = apply_first(&mut s, &GpuTransform, &Params::new());
        }
        Target::Fpga => {
            let _ = apply_first(&mut s, &FpgaTransform, &Params::new());
        }
    }
    s
}

/// Builds a session over `sdfg` with the device backends this target
/// needs; the host CPU backend is always there as the fallback for
/// host-scheduled states.
pub fn session_for(sdfg: Sdfg, target: Target) -> Result<Session, SdfgError> {
    let gpu = || Box::new(GpuSimBackend::new(p100()));
    let fpga = || Box::new(FpgaSimBackend::new(vcu1525(), FpgaMode::Pipelined));
    let b = Session::builder(sdfg);
    match target {
        Target::Cpu => b,
        Target::Gpu => b.backend(gpu()),
        Target::Fpga => b.backend(fpga()),
        Target::Hetero => b.backend(gpu()).backend(fpga()),
    }
    .build()
}

/// One targeted, verified run.
pub struct TargetRun {
    /// The target that was requested.
    pub target: Target,
    /// Per-backend totals, host CPU first (empty for [`Target::Cpu`]).
    pub backends: Vec<BackendStats>,
    /// Host wall-clock time of the targeted run.
    pub wall_s: f64,
    /// `check` arrays whose bits differ from the plain CPU executor on
    /// the untransformed SDFG (0 = pass).
    pub bitwise_mismatches: usize,
    /// `check` arrays whose bits differ from the reference interpreter
    /// (0 = pass).
    pub interp_mismatches: usize,
}

impl TargetRun {
    /// Bitwise-identical to the CPU executor and to the interpreter.
    pub fn verified(&self) -> bool {
        self.bitwise_mismatches == 0 && self.interp_mismatches == 0
    }
}

/// True when `a` and `b` hold the same `f64` bit patterns.
pub(crate) fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs one workload under `target` and verifies every `check` array
/// bit-for-bit against the plain CPU executor on the untransformed SDFG
/// and against the interpreter.
pub fn run_workload_targeted(w: &Workload, target: Target) -> Result<TargetRun, String> {
    let interp = w.run_interp().map_err(|e| format!("interpreter: {e}"))?;
    let (cpu, _, _) = w.run_exec().map_err(|e| format!("cpu executor: {e}"))?;
    let session =
        session_for(lower_for(&w.sdfg, target), target).map_err(|e| format!("session: {e}"))?;
    let t0 = std::time::Instant::now();
    let out = session
        .run(w.bindings())
        .map_err(|e| format!("session run: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let mut bitwise_mismatches = 0;
    let mut interp_mismatches = 0;
    for name in &w.check {
        let got = out
            .array(name)
            .map_err(|_| format!("output `{name}` missing after run"))?;
        let base = cpu
            .get(name)
            .ok_or_else(|| format!("cpu executor produced no `{name}`"))?;
        let want = interp
            .get(name)
            .ok_or_else(|| format!("interpreter produced no `{name}`"))?;
        if !bits_equal(got, base) {
            bitwise_mismatches += 1;
        }
        if !bits_equal(got, want) {
            interp_mismatches += 1;
        }
    }
    Ok(TargetRun {
        target,
        backends: out.backends().to_vec(),
        wall_s,
        bitwise_mismatches,
        interp_mismatches,
    })
}

/// The JSON fragment (no surrounding braces) with the target fields of a
/// `BENCH_<kernel>.json`: the target, the verification verdict, and one
/// entry per backend that saw at least one state.
pub fn target_json_fields(run: &TargetRun) -> String {
    let mut out = format!(
        "\"target\": \"{}\",\n  \"target_verified\": {},\n  \"wall_ms\": {:.6},\n  \
         \"backends\": [",
        run.target.as_str(),
        run.verified(),
        run.wall_s * 1e3,
    );
    let active: Vec<_> = run.backends.iter().filter(|b| b.state_visits > 0).collect();
    for (i, b) in active.iter().enumerate() {
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"state_visits\": {}, \"scopes\": {}, \
             \"compute_ms\": {:.6}, \"copy_ms\": {:.6}, \"transfer_ms\": {:.6}, \
             \"h2d_bytes\": {}, \"d2h_bytes\": {}, \"modeled_flops\": {:.1}, \
             \"cycles\": {}, \"pes\": {}}}{}",
            b.name,
            b.state_visits,
            b.scope.scopes,
            b.scope.compute_s * 1e3,
            b.scope.copy_s * 1e3,
            b.transfer_s * 1e3,
            b.xfer.h2d_bytes,
            b.xfer.d2h_bytes,
            b.scope.flops,
            b.scope.cycles,
            b.scope.pes,
            if i + 1 < active.len() { "," } else { "" }
        ));
    }
    out.push_str("\n  ]");
    out
}

/// The `harness <kernels...> --target T` mode: run each kernel on the
/// target's backends, print a per-backend table, write one
/// `BENCH_<kernel>.json` per kernel, and exit non-zero if any kernel's
/// outputs diverge from the interpreter.
pub fn targeted(only: &[String], scale: usize, target: Target, json: bool) {
    println!("# Targeted run (scale {scale}, target {})", target.as_str());
    println!(
        "{:<16} {:>9} {:>12} {:>12} {:>12} {:<8} backends",
        "kernel", "verified", "modeled[ms]", "h2d[B]", "d2h[B]", ""
    );
    let mut matched = false;
    let mut failed = false;
    // `bfs` is not a Polybench kernel but the scheduler smoke job wants a
    // data-driven, stream-and-WCR workload in the mix: run the Fig. 16
    // SDFG on a road graph and verify against the native level-sync
    // baseline. Exact equality is required — depths are small integers,
    // so any scheduling bug shows up bitwise.
    if only.iter().any(|n| n == "bfs") {
        matched = true;
        let g = sdfg_workloads::graphs::road(16, 12, 3);
        let sdfg = sdfg_workloads::bfs::build_bfs();
        let got = sdfg_workloads::bfs::run_bfs(&sdfg, &g, 0);
        let want = sdfg_workloads::bfs::bfs_baseline(&g, 0);
        let ok = got == want;
        if !ok {
            failed = true;
        }
        println!(
            "{:<16} {:>9} {:>12} {:>12} {:>12} {:<8} cpu(baseline-checked)",
            "bfs",
            if ok { "yes" } else { "NO" },
            "-",
            "-",
            "-",
            ""
        );
    }
    for k in polybench::all() {
        if !only.is_empty() && !only.iter().any(|n| n == k.name) {
            continue;
        }
        matched = true;
        let w = (k.build)(scale);
        match run_workload_targeted(&w, target) {
            Ok(run) => {
                if !run.verified() {
                    failed = true;
                }
                let (h2d, d2h): (u64, u64) = run.backends.iter().fold((0, 0), |(h, d), b| {
                    (h + b.xfer.h2d_bytes, d + b.xfer.d2h_bytes)
                });
                // The plain host path has no backend rows: its time is the
                // run's wall time, as the CPU backend's is.
                let (modeled_s, names) = if run.backends.is_empty() {
                    (run.wall_s, vec!["cpu".to_string()])
                } else {
                    let names = run
                        .backends
                        .iter()
                        .filter(|b| b.state_visits > 0)
                        .map(|b| format!("{}({})", b.name, b.state_visits))
                        .collect();
                    (run.backends.iter().map(|b| b.modeled_time_s()).sum(), names)
                };
                println!(
                    "{:<16} {:>9} {:>12.4} {:>12} {:>12} {:<8} {}",
                    k.name,
                    if run.verified() { "yes" } else { "NO" },
                    modeled_s * 1e3,
                    h2d,
                    d2h,
                    "",
                    names.join(" ")
                );
                if json {
                    let path = format!("BENCH_{}.json", k.name);
                    let body = format!(
                        "{{\n  \"kernel\": \"{}\",\n  \"scale\": {},\n  {}\n}}\n",
                        k.name,
                        scale,
                        target_json_fields(&run)
                    );
                    std::fs::write(&path, body).expect("write bench json");
                    eprintln!("  wrote {path}");
                }
            }
            Err(e) => {
                failed = true;
                println!("{:<16} error: {e}", k.name);
            }
        }
    }
    if !matched {
        let names: Vec<&str> = polybench::all().iter().map(|k| k.name).collect();
        eprintln!("no kernel matched; known kernels: {}", names.join(", "));
        std::process::exit(2);
    }
    if failed {
        std::process::exit(1);
    }
}

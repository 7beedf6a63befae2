//! The evaluation harness: regenerates the paper's tables and figures.
//!
//! ```text
//! harness <experiment> [--scale S] [--reps R] [--profile]
//! experiments: fig13a fig13b fig13c fig14a fig14b fig14c fig15 fig17
//!              tab2 tab3 tab5 all
//! ```
//!
//! With `--profile`, the harness instead runs the Polybench kernels under
//! forced instrumentation: it prints a sorted hot-path table per kernel
//! and writes `trace-<kernel>.json` Chrome trace files (viewable in
//! `chrome://tracing`). Pass a kernel name as the experiment (e.g.
//! `harness gemm --profile`) to profile just that kernel.
//!
//! With `--opt[=none|strict|aggressive]`, runs go through the automatic
//! optimization pipeline (strict fixpoint, then cost-hint-driven
//! heuristics at `aggressive`, the default level):
//!
//! ```text
//! harness atax bicg --opt            # print optimization reports,
//!                                    # verify vs the interpreter
//! harness atax bicg --opt --profile  # + hot-path table and
//!                                    # trace-<kernel>.json per kernel
//! ```
//!
//! With `--target cpu|gpu|fpga|hetero`, kernels run on a session with
//! the target's simulator backends instead: each state is dispatched to the
//! backend its schedule selects (GPU roofline model, FPGA cycle model,
//! CPU pool), outputs are verified bit-for-bit against the reference
//! interpreter, and one `BENCH_<kernel>.json` with per-backend stats is
//! written per kernel:
//!
//! ```text
//! harness gemm --target gpu          # GPUTransform + GPU-sim dispatch
//! harness --target fpga              # every kernel through the FPGA model
//! ```
//!
//! Kernel names may be given positionally or via `--kernels a,b`.
//!
//! Observability flags (any mode): `--metrics-out FILE` writes the
//! Prometheus text exposition of the global metrics registry after the
//! run; `--ledger FILE` appends one JSONL run record per executor run
//! (same as `SDFG_RUN_LOG`). Traces come only from `--profile`; modes
//! that never profile (`--target`, the figure experiments) write none.
//! `harness obs-check metrics.prom ledger.jsonl [trace.json]` validates
//! artifacts a previous run wrote — part of CI's smoke job.
//!
//! `harness emit-sdfg <kernel> [--scale N]` prints a kernel's serialized
//! SDFG, and `harness emit-invoke <kernel> [--scale N]` prints an
//! invoke-request body with its input bindings — the payloads CI's
//! `serve-smoke` step curls at a live `sdfg-serve` instance.

use sdfg_bench as x;
use sdfg_exec::OptLevel;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("obs-check") {
        let files: Vec<&str> = args[1..].iter().map(String::as_str).collect();
        let [metrics, ledger, rest @ ..] = files.as_slice() else {
            eprintln!("usage: harness obs-check <metrics.prom> <ledger.jsonl> [trace.json]");
            std::process::exit(2);
        };
        let ok = x::obs::obs_check(metrics, ledger, rest.first().copied());
        std::process::exit(if ok { 0 } else { 1 });
    }
    if let Some(mode @ ("emit-sdfg" | "emit-invoke")) = args.first().map(String::as_str) {
        let Some(kernel) = args.get(1).filter(|a| !a.starts_with("--")) else {
            eprintln!("usage: harness {mode} <kernel> [--scale N]");
            std::process::exit(2);
        };
        let scale = args
            .iter()
            .position(|a| a == "--scale")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(8);
        let emitted = if mode == "emit-sdfg" {
            x::emit::emit_sdfg(kernel, scale)
        } else {
            x::emit::emit_invoke(kernel, scale)
        };
        match emitted {
            Ok(text) => {
                print!("{text}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{mode}: {e}");
                std::process::exit(2);
            }
        }
    }
    let get_str = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let obs = x::obs::ObsConfig {
        metrics_out: get_str("--metrics-out"),
        ledger: get_str("--ledger"),
    };
    obs.setup();
    let code = dispatch(&args);
    obs.finish();
    if code != 0 {
        std::process::exit(code);
    }
}

fn dispatch(args: &[String]) -> i32 {
    let exp = args.first().map(String::as_str).unwrap_or("all");
    let get = |flag: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let get_str = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    // `--opt` alone means aggressive; `--opt=strict` selects a level.
    let opt: Option<OptLevel> = args.iter().find_map(|a| {
        if a == "--opt" {
            Some(OptLevel::Aggressive)
        } else {
            a.strip_prefix("--opt=").map(|lvl| {
                OptLevel::parse(lvl).unwrap_or_else(|| {
                    eprintln!("unknown opt level `{lvl}` (none|strict|aggressive)");
                    std::process::exit(2);
                })
            })
        }
    });
    // Positional (non-flag, non-flag-value) args are kernel names in the
    // target/opt modes and the experiment name otherwise.
    const VALUE_FLAGS: [&str; 6] = [
        "--scale",
        "--reps",
        "--kernels",
        "--target",
        "--metrics-out",
        "--ledger",
    ];
    let positionals: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            let flag_value = *i > 0 && VALUE_FLAGS.contains(&args[i - 1].as_str());
            !a.starts_with("--") && !flag_value
        })
        .map(|(_, a)| a.clone())
        .collect();
    let scale = get("--scale", 0);
    let reps = get("--reps", 3);
    let target: Option<x::Target> = get_str("--target").map(|t| {
        x::Target::parse(&t).unwrap_or_else(|| {
            eprintln!("unknown target `{t}` (cpu|gpu|fpga|hetero)");
            std::process::exit(2);
        })
    });
    if let Some(t) = target {
        let kernels = if let Some(list) = get_str("--kernels") {
            list.split(',').map(str::to_string).collect()
        } else {
            positionals.clone()
        };
        x::targeted(&kernels, if scale > 0 { scale } else { 24 }, t, true);
        return 0;
    }
    if let Some(level) = opt {
        let kernels = if let Some(list) = get_str("--kernels") {
            list.split(',').map(str::to_string).collect()
        } else {
            positionals
        };
        x::optimized(
            &kernels,
            if scale > 0 { scale } else { 24 },
            level,
            args.iter().any(|a| a == "--profile"),
        );
        return 0;
    }
    if args.iter().any(|a| a == "--profile") {
        // Known experiment names profile the whole suite; anything else
        // is treated as a single Polybench kernel name.
        const EXPERIMENTS: [&str; 12] = [
            "all", "fig13a", "fig13b", "fig13c", "fig14a", "fig14b", "fig14c", "fig15", "fig17",
            "tab2", "tab3", "tab5",
        ];
        let only = if EXPERIMENTS.contains(&exp) { "" } else { exp };
        x::profiled(only, if scale > 0 { scale } else { 100 });
        return 0;
    }
    let run = |name: &str| {
        let t0 = std::time::Instant::now();
        match name {
            "fig13a" => x::fig13a(if scale > 0 { scale } else { 100 }, reps),
            "fig13b" => x::fig13b(if scale > 0 { scale } else { 100 }),
            "fig13c" => x::fig13c(if scale > 0 { scale } else { 100 }),
            "fig14a" => x::fig14a(reps),
            "fig14b" => x::fig14b(),
            "fig14c" => x::fig14c(),
            "fig15" => x::fig15(&[64, 128, 192], reps),
            "fig17" => x::fig17(if scale > 0 { scale } else { 1 }, reps),
            "tab2" => x::tab2(if scale > 0 { scale } else { 8 }, reps),
            "tab3" => x::tab3(4096),
            "tab5" => x::tab5(if scale > 0 { scale } else { 1 }),
            other => {
                eprintln!("unknown experiment `{other}`");
                std::process::exit(2);
            }
        }
        eprintln!("[{name} took {:.1}s]", t0.elapsed().as_secs_f64());
        println!();
    };
    if exp == "all" {
        for name in [
            "tab5", "fig13a", "fig13b", "fig13c", "fig14a", "fig14b", "fig14c", "fig15", "fig17",
            "tab2", "tab3",
        ] {
            run(name);
        }
    } else {
        run(exp);
    }
    0
}

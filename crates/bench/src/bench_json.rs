//! The `harness --bench` mode: warm/cold kernel timings with JSON output
//! and a perf-regression gate.
//!
//! For each kernel the protocol measures two quantities:
//!
//! * **cold** — a fresh [`sdfg_exec::Executor`] per iteration, so every
//!   run pays the full lowering pipeline (scope derivation, tasklet
//!   compilation, map planning) plus transient allocation;
//! * **warm** — one executor invoked repeatedly after a warmup, so runs
//!   hit the plan cache and the buffer pool.
//!
//! Both report the best of `reps` iterations. Results are printed as
//! a table, optionally written as `BENCH_<kernel>.json` files, and —
//! when `--baseline` is given — gated against a committed baseline:
//! the gate fails if any kernel's warm time regresses more than
//! [`TOLERANCE`] over its baseline, or if no kernel reaches the
//! baseline's `min_speedup` warm-over-cold ratio.

use crate::obs::{core_snapshot, CoreSnapshot};
use crate::targets::{run_workload_targeted, target_json_fields, Target, TargetRun};
use sdfg_core::serialize::parse_json;
use sdfg_exec::OptLevel;
use sdfg_profile::metrics::{log_buckets, Histogram};
use sdfg_workloads::polybench;
use std::time::Instant;

/// Allowed warm-time regression over the baseline (fractional).
pub const TOLERANCE: f64 = 0.30;

/// Absolute slack added to every warm-time limit, milliseconds. At the
/// microsecond scale these kernels run warm, timer granularity and cache
/// effects alone exceed 30%; the slack keeps the gate meaningful for real
/// regressions without tripping on noise.
pub const ABS_SLACK_MS: f64 = 0.25;

/// Default warm-over-cold speedup at least one kernel must reach.
pub const DEFAULT_MIN_SPEEDUP: f64 = 5.0;

/// Configuration for one `--bench` invocation.
pub struct BenchConfig {
    /// Kernel names to run (Polybench registry names).
    pub kernels: Vec<String>,
    /// Problem scale passed to each kernel builder.
    pub scale: usize,
    /// Timed iterations per measurement (the best is reported).
    pub reps: usize,
    /// Untimed warm iterations before the warm measurement.
    pub warmup: usize,
    /// Warm measurement batches (`--repeat`): the warm protocol runs
    /// `repeat` batches of `reps` iterations each, reporting the overall
    /// minimum as `warm_ms` and the median of per-batch minima as
    /// `warm_median_ms` — a scheduler-noise-robust central estimate.
    pub repeat: usize,
    /// Write one `BENCH_<kernel>.json` per kernel.
    pub json: bool,
    /// Gate against this baseline file.
    pub baseline: Option<String>,
    /// Write a fresh baseline file from this run's numbers.
    pub write_baseline: Option<String>,
    /// Also measure optimized warm runs at this level (`--opt`). When not
    /// `None`, the run additionally gates that at least one kernel's
    /// optimized warm time beats its unoptimized warm time.
    pub opt: OptLevel,
    /// Route each kernel through the heterogeneous runtime for this
    /// target (`--target`): adds an interpreter-verified run and
    /// per-backend statistics to the JSON, and gates on verification.
    pub target: Target,
    /// Tuning database consulted when `opt` is [`OptLevel::Tuned`]
    /// (`--db`); defaults to `bench/tuned.json`.
    pub tuned_db: Option<String>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            kernels: vec!["gemm".into(), "atax".into(), "bicg".into()],
            scale: 24,
            reps: 15,
            warmup: 3,
            repeat: 1,
            json: false,
            baseline: None,
            write_baseline: None,
            opt: OptLevel::None,
            target: Target::Cpu,
            tuned_db: None,
        }
    }
}

/// One kernel's measurement.
pub struct BenchResult {
    /// Kernel name.
    pub kernel: String,
    /// Best cold-run time, milliseconds.
    pub cold_ms: f64,
    /// Best warm-run time, milliseconds (minimum over all batches).
    pub warm_ms: f64,
    /// Median of per-batch warm minima, milliseconds. Equals `warm_ms`
    /// when `--repeat` is 1 (a single batch).
    pub warm_median_ms: f64,
    /// 5th percentile of per-batch warm minima, milliseconds
    /// (histogram-interpolated; meaningful with `--repeat` > 1).
    pub warm_p05_ms: f64,
    /// 95th percentile of per-batch warm minima, milliseconds.
    pub warm_p95_ms: f64,
    /// Plan-cache hit rate over the warm executor's lifetime.
    pub cache_hit_rate: f64,
    /// Buffer-pool reuse rate over the warm executor's lifetime.
    pub pool_reuse_rate: f64,
    /// Bytes served from recycled buffers.
    pub pool_bytes_reused: u64,
    /// Best warm-run time through the optimization pipeline, milliseconds
    /// (`--opt` runs only).
    pub opt_warm_ms: Option<f64>,
    /// Transformations the pipeline fired for this kernel (`--opt` only).
    pub opt_passes: Option<usize>,
    /// Whether the tuning database had an entry for this kernel
    /// (`--opt=tuned` only; `false` = fell back to `aggressive`).
    pub tuned_hit: Option<bool>,
    /// The interpreter-verified heterogeneous run (`--target` only).
    pub target_run: Option<TargetRun>,
    /// Thread count the warm executor ran with.
    pub nthreads: usize,
    /// Work-stealing scheduler counters from the warm executor's pool
    /// (`None` when the run stayed serial).
    pub sched: Option<sdfg_exec::SchedStats>,
    /// Growth of the global core metric counters over this kernel's
    /// measurement (launches, cache hits, bytes moved, ...).
    pub metrics: CoreSnapshot,
    /// Best warm-run time with the JIT lowering tier enabled,
    /// milliseconds. `None` for targeted (non-CPU) measurements.
    /// `cold_ms`/`warm_ms` are always measured with the tier disabled so
    /// they stay comparable across baselines predating the JIT.
    pub jit_warm_ms: Option<f64>,
    /// Wall-clock milliseconds spent inside the C compiler for this
    /// kernel's measurement (0 when every kernel came from a cache).
    pub jit_compile_ms: Option<f64>,
    /// Whole-nest native kernel invocations during the JIT measurement
    /// (collapsed interstate loops plus tile→nest-call dispatches).
    pub nest_calls: Option<u64>,
    /// Map-body points executed inside nest kernels during the JIT
    /// measurement.
    pub nest_points: Option<u64>,
}

impl BenchResult {
    /// Warm-over-cold speedup (`cold / warm`).
    pub fn speedup(&self) -> f64 {
        if self.warm_ms <= 0.0 {
            0.0
        } else {
            self.cold_ms / self.warm_ms
        }
    }

    /// Unoptimized-warm over optimized-warm speedup (>1 = the pipeline
    /// helped), when an optimized measurement exists.
    pub fn opt_speedup(&self) -> Option<f64> {
        match self.opt_warm_ms {
            Some(o) if o > 0.0 => Some(self.warm_ms / o),
            _ => None,
        }
    }

    /// Interpreted-warm over JIT-warm speedup (>1 = the JIT tier helped),
    /// when a JIT measurement exists.
    pub fn jit_speedup(&self) -> Option<f64> {
        match self.jit_warm_ms {
            Some(j) if j > 0.0 => Some(self.warm_ms / j),
            _ => None,
        }
    }
}

/// Best-of-N: the minimum is the standard low-variance estimator for
/// microbenchmarks — scheduler preemption and frequency scaling only ever
/// inflate a sample, so the minimum tracks the true cost.
fn best_ms(xs: Vec<f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// Interpolated percentile of a sample, computed through the metrics
/// histogram type: samples are folded into a fine log-spaced bucket
/// ladder (1 µs .. ~2 s at 12.5% resolution) and the quantile is read
/// back with linear interpolation inside the hit bucket — the same
/// estimator the Prometheus exposition's `le` buckets support.
fn percentile_ms(xs: &[f64], q: f64) -> f64 {
    let h = Histogram::with_bounds(&log_buckets(1e-3, 1.125, 128));
    for &x in xs {
        h.observe(x);
    }
    h.quantile(q)
}

/// Median of a sample; the mean of the two middle elements for even
/// lengths.
pub(crate) fn median_ms(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// The warm measurement protocol as a library (shared with the
/// autotuner): `warmup` untimed runs, then `repeat` batches of `reps`
/// timed runs each; returns the per-batch minima. `best_ms` of the result
/// is the bench `warm_ms`; [`median_ms`] of it is `warm_median_ms`.
///
/// One session, many invokes: compilation and planning are paid during
/// warmup and cached, and each run's outputs feed the next run's inputs
/// in place ([`sdfg_exec::Outputs::into_bindings`]) — the same
/// state-reuse discipline the legacy executor-reuse protocol had.
pub(crate) fn warm_batch_mins(
    session: &sdfg_exec::Session,
    bindings: sdfg_exec::Bindings,
    warmup: usize,
    reps: usize,
    repeat: usize,
) -> Vec<f64> {
    let mut b = bindings;
    for _ in 0..warmup.max(1) {
        b = session.run(b).expect("warmup run").into_bindings();
    }
    (0..repeat.max(1))
        .map(|_| {
            let batch: Vec<f64> = (0..reps.max(1))
                .map(|_| {
                    let inputs = std::mem::take(&mut b);
                    let t0 = Instant::now();
                    let out = session.run(inputs).expect("warm run");
                    let dt = t0.elapsed().as_secs_f64() * 1e3;
                    b = out.into_bindings();
                    dt
                })
                .collect();
            best_ms(batch)
        })
        .collect()
}

/// Measures one kernel under the warm/cold protocol. With an opt level,
/// a third measurement runs the same workload through the automatic
/// optimization pipeline (same warmup, same executor-reuse discipline) so
/// optimized and unoptimized warm times are directly comparable.
pub fn bench_kernel(name: &str, cfg: &BenchConfig) -> BenchResult {
    let (scale, reps, warmup) = (cfg.scale, cfg.reps, cfg.warmup);
    let (opt, target) = (cfg.opt, cfg.target);
    let kernel = polybench::all()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("unknown kernel `{name}`"));
    let w = (kernel.build)(scale);
    let metrics_before = core_snapshot();

    // Cold: a fresh session (fresh plan cache, fresh pool) every time.
    // The timed region spans `build()` plus the first run, so every
    // one-time cost — validation, content hashing, lowering, planning —
    // is paid inside the measurement, exactly as the legacy executor's
    // first `run()` paid it.
    // The interpreted-tier measurements pin the JIT off, so `cold_ms` and
    // `warm_ms` stay comparable with baselines recorded before the JIT
    // tier existed; the JIT leg below measures the tier separately.
    let cold: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let builder = w.session().jit(false);
            let inputs = w.bindings();
            let t0 = Instant::now();
            let session = builder.build().expect("session");
            session.run(inputs).expect("cold run");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    // Warm: one session; lowering is paid once, then cached. `--repeat`
    // runs several independent batches; each contributes its minimum.
    let session = w.session().jit(false).build().expect("session");
    let batch_mins = warm_batch_mins(&session, w.bindings(), warmup, reps, cfg.repeat);
    let cache = session.cache_stats();
    let pool = session.pool_stats();
    let nthreads = session.nthreads();
    let sched = session.sched_stats();

    // Optimized warm: same protocol, with the pipeline applied at
    // compile time (its cost is warmup, like lowering). `--opt=tuned`
    // points the session at the tuning database instead of a static
    // level.
    let (opt_warm_ms, opt_passes, tuned_hit) = if opt == OptLevel::None {
        (None, None, None)
    } else {
        let mut builder = w.session();
        if opt == OptLevel::Tuned {
            let db = cfg
                .tuned_db
                .clone()
                .unwrap_or_else(|| "bench/tuned.json".into());
            builder = builder.tuning_db(db);
        } else {
            builder = builder.opt_level(opt);
        }
        let osession = builder.build().expect("session");
        let opt_warm = warm_batch_mins(&osession, w.bindings(), warmup, reps, 1);
        let passes = osession.opt_report().map(|r| r.applied.len()).unwrap_or(0);
        let hit = (opt == OptLevel::Tuned).then(|| osession.tuned_config().is_some());
        (Some(best_ms(opt_warm)), Some(passes), hit)
    };

    // JIT: same warm protocol with the native-code tier enabled. Kernel
    // compilation (when the artifact cache is cold) is paid in warmup,
    // like lowering; the compiler wall-clock is reported separately.
    let (jit_warm_ms, jit_compile_ms, nest_calls, nest_points) = if target == Target::Cpu {
        let jit_before = sdfg_exec::jit::stats();
        let nest_before = core_snapshot();
        let jsession = w.session().jit(true).build().expect("session");
        let jit_mins = warm_batch_mins(&jsession, w.bindings(), warmup, reps, cfg.repeat);
        let compile_ms = sdfg_exec::jit::stats().compile_ms - jit_before.compile_ms;
        let nests = core_snapshot().delta(&nest_before);
        (
            Some(best_ms(jit_mins)),
            Some(compile_ms as f64),
            Some(nests.nest_calls),
            Some(nests.nest_points),
        )
    } else {
        (None, None, None, None)
    };

    // Targeted: one heterogeneous-runtime run, verified bit-for-bit
    // against the interpreter, carrying per-backend statistics.
    let target_run = if target == Target::Cpu {
        None
    } else {
        Some(run_workload_targeted(&w, target).unwrap_or_else(|e| panic!("targeted run: {e}")))
    };

    BenchResult {
        kernel: name.to_string(),
        cold_ms: best_ms(cold),
        warm_ms: best_ms(batch_mins.clone()),
        warm_p05_ms: percentile_ms(&batch_mins, 0.05),
        warm_p95_ms: percentile_ms(&batch_mins, 0.95),
        warm_median_ms: median_ms(batch_mins),
        cache_hit_rate: cache.hit_rate(),
        pool_reuse_rate: pool.reuse_rate(),
        pool_bytes_reused: pool.bytes_reused,
        opt_warm_ms,
        opt_passes,
        tuned_hit,
        target_run,
        nthreads,
        sched,
        metrics: core_snapshot().delta(&metrics_before),
        jit_warm_ms,
        jit_compile_ms,
        nest_calls,
        nest_points,
    }
}

fn kernel_json(r: &BenchResult, cfg: &BenchConfig) -> String {
    let mut out = format!(
        "{{\n  \"kernel\": \"{}\",\n  \"scale\": {},\n  \"reps\": {},\n  \"warmup\": {},\n  \
         \"repeat\": {},\n  \"nthreads\": {},\n  \
         \"cold_ms\": {:.6},\n  \"warm_ms\": {:.6},\n  \"warm_median_ms\": {:.6},\n  \
         \"speedup\": {:.3},\n  \
         \"plan_cache_hit_rate\": {:.4},\n  \"pool_reuse_rate\": {:.4},\n  \
         \"pool_bytes_reused\": {}",
        r.kernel,
        cfg.scale,
        cfg.reps,
        cfg.warmup,
        cfg.repeat,
        r.nthreads,
        r.cold_ms,
        r.warm_ms,
        r.warm_median_ms,
        r.speedup(),
        r.cache_hit_rate,
        r.pool_reuse_rate,
        r.pool_bytes_reused,
    );
    if cfg.repeat > 1 {
        out.push_str(&format!(
            ",\n  \"warm_p05_ms\": {:.6},\n  \"warm_p95_ms\": {:.6}",
            r.warm_p05_ms, r.warm_p95_ms
        ));
    }
    out.push_str(&format!(",\n  \"metrics\": {}", r.metrics.json_block()));
    if let Some(s) = &r.sched {
        out.push_str(&format!(
            ",\n  \"sched\": {{\"nworkers\": {}, \"launches\": {}, \
             \"tiles\": {}, \"steals\": {}, \"workers\": [",
            s.nworkers,
            s.launches,
            s.total_tiles(),
            s.total_steals(),
        ));
        for (i, wk) in s.workers.iter().enumerate() {
            out.push_str(&format!(
                "\n    {{\"worker\": {}, \"tiles\": {}, \"steals\": {}, \"idle_ms\": {:.3}}}{}",
                wk.worker,
                wk.tiles,
                wk.steals,
                wk.idle_ns as f64 / 1e6,
                if i + 1 < s.workers.len() { "," } else { "" }
            ));
        }
        out.push_str("\n  ]}");
    }
    if let (Some(opt_warm), Some(passes)) = (r.opt_warm_ms, r.opt_passes) {
        out.push_str(&format!(
            ",\n  \"opt_level\": \"{}\",\n  \"opt_warm_ms\": {:.6},\n  \
             \"opt_speedup\": {:.3},\n  \"opt_passes\": {}",
            cfg.opt.as_str(),
            opt_warm,
            r.opt_speedup().unwrap_or(0.0),
            passes,
        ));
        // `--opt=tuned` also reports the spec'd tuned_* aliases plus
        // whether the database actually had an entry.
        if cfg.opt == OptLevel::Tuned {
            out.push_str(&format!(
                ",\n  \"tuned_warm_ms\": {:.6},\n  \"tuned_speedup\": {:.3},\n  \
                 \"tuned_hit\": {}",
                opt_warm,
                r.opt_speedup().unwrap_or(0.0),
                r.tuned_hit.unwrap_or(false),
            ));
        }
    }
    if let (Some(jit_warm), Some(compile_ms)) = (r.jit_warm_ms, r.jit_compile_ms) {
        out.push_str(&format!(
            ",\n  \"jit_warm_ms\": {:.6},\n  \"jit_speedup\": {:.3},\n  \
             \"jit_compile_ms\": {:.3},\n  \"nest_calls\": {},\n  \"nest_points\": {}",
            jit_warm,
            r.jit_speedup().unwrap_or(0.0),
            compile_ms,
            r.nest_calls.unwrap_or(0),
            r.nest_points.unwrap_or(0),
        ));
    }
    if let Some(run) = &r.target_run {
        out.push_str(&format!(",\n  {}", target_json_fields(run)));
    }
    out.push_str("\n}\n");
    out
}

/// Renders a baseline in canonical form: keys sorted alphabetically at
/// both levels and kernel entries sorted by name, so `--update-baseline`
/// rewrites are byte-stable regardless of CLI kernel order. The stored
/// `warm_ms` is the noise-robust warm median (equal to the batch minimum
/// when `--repeat` is 1), matching what [`gate`] compares against.
fn baseline_json(results: &[BenchResult], cfg: &BenchConfig, min_speedup: f64) -> String {
    let mut sorted: Vec<&BenchResult> = results.iter().collect();
    sorted.sort_by(|a, b| a.kernel.cmp(&b.kernel));
    let mut out = String::from("{\n  \"kernels\": [\n");
    for (i, r) in sorted.iter().enumerate() {
        let warm = r.warm_median_ms;
        let speedup = if warm > 0.0 { r.cold_ms / warm } else { 0.0 };
        out.push_str(&format!(
            "    {{\"cold_ms\": {:.6}, \"kernel\": \"{}\", \"speedup\": {:.3}, \
             \"warm_ms\": {:.6}}}{}\n",
            r.cold_ms,
            r.kernel,
            speedup,
            warm,
            if i + 1 < sorted.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"min_speedup\": {:.1},\n  \"reps\": {},\n  \"scale\": {},\n  \"warmup\": {}\n}}\n",
        min_speedup, cfg.reps, cfg.scale, cfg.warmup
    ));
    out
}

/// Parsed baseline: per-kernel warm times plus the required speedup.
struct Baseline {
    min_speedup: f64,
    warm_ms: Vec<(String, f64)>,
}

fn parse_baseline(src: &str) -> Result<Baseline, String> {
    let root = parse_json(src)?;
    let min_speedup = root.num_field("min_speedup").unwrap_or(DEFAULT_MIN_SPEEDUP);
    let mut warm_ms = Vec::new();
    for k in root.arr_field("kernels")? {
        warm_ms.push((k.str_field("kernel")?.to_string(), k.num_field("warm_ms")?));
    }
    Ok(Baseline {
        min_speedup,
        warm_ms,
    })
}

/// The regression gate's verdict: hard failures (regressions, missing
/// speedup) plus advisories — kernels *faster* than the baseline beyond
/// the same noise envelope, which should prompt a `--update-baseline`
/// refresh rather than fail CI.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Gate-failing messages (empty = pass).
    pub failures: Vec<String>,
    /// Non-failing suggestions (stale-baseline improvements).
    pub advisories: Vec<String>,
}

/// Gates `results` against a baseline file's contents.
///
/// The gated statistic is `warm_median_ms` — the noise-robust central
/// estimate when `--repeat` is active, identical to `warm_ms` for a
/// single batch — and the `TOLERANCE`/`ABS_SLACK_MS` noise envelope is
/// applied symmetrically: a kernel above the envelope is a failure, one
/// below it is an advisory to refresh the baseline.
pub fn gate(results: &[BenchResult], baseline_src: &str) -> Result<GateReport, String> {
    let base = parse_baseline(baseline_src)?;
    let mut report = GateReport::default();
    for (name, base_warm) in &base.warm_ms {
        let Some(r) = results.iter().find(|r| &r.kernel == name) else {
            continue; // baseline covers more kernels than this run
        };
        let warm = r.warm_median_ms;
        let limit = base_warm * (1.0 + TOLERANCE) + ABS_SLACK_MS;
        let floor = base_warm * (1.0 - TOLERANCE) - ABS_SLACK_MS;
        if warm > limit {
            report.failures.push(format!(
                "{name}: warm median {:.3} ms exceeds baseline {:.3} ms +{:.0}% (limit {:.3} ms)",
                warm,
                base_warm,
                TOLERANCE * 100.0,
                limit
            ));
        } else if warm < floor {
            report.advisories.push(format!(
                "{name}: warm median {:.3} ms beats baseline {:.3} ms by more than {:.0}% — \
                 refresh with `--bench --update-baseline`",
                warm,
                base_warm,
                TOLERANCE * 100.0
            ));
        }
    }
    let best = results.iter().map(BenchResult::speedup).fold(0.0, f64::max);
    if best < base.min_speedup {
        report.failures.push(format!(
            "best warm-over-cold speedup {best:.2}x is below required {:.1}x",
            base.min_speedup
        ));
    }
    Ok(report)
}

/// Gates `--opt` results: at least one kernel's optimized warm time must
/// beat (strictly) its unoptimized warm time. Returns failure messages
/// (empty = pass).
pub fn opt_gate(results: &[BenchResult]) -> Vec<String> {
    let measured: Vec<&BenchResult> = results.iter().filter(|r| r.opt_warm_ms.is_some()).collect();
    if measured.is_empty() {
        return vec!["no kernel produced an optimized measurement".into()];
    }
    if measured.iter().any(|r| r.opt_warm_ms.unwrap() < r.warm_ms) {
        return Vec::new();
    }
    measured
        .iter()
        .map(|r| {
            format!(
                "{}: optimized warm {:.3} ms did not beat unoptimized warm {:.3} ms",
                r.kernel,
                r.opt_warm_ms.unwrap(),
                r.warm_ms
            )
        })
        .collect()
}

/// CI's `baseline-check`: validates that the committed baseline parses
/// and carries the expected schema, that every committed `BENCH_*.json`
/// artifact under `bench_dir` parses with the *current* result schema
/// (including the `--repeat` percentile fields and the `metrics` block),
/// and that the baseline covers every such kernel. Returns failure
/// messages (empty = pass).
pub fn baseline_check(baseline_path: &str, bench_dir: &str) -> Result<Vec<String>, String> {
    let src = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline `{baseline_path}`: {e}"))?;
    let root = parse_json(&src).map_err(|e| format!("baseline does not parse: {e}"))?;
    let mut failures = Vec::new();
    for key in ["scale", "reps", "warmup", "min_speedup"] {
        if root.num_field(key).is_err() {
            failures.push(format!("baseline missing numeric `{key}`"));
        }
    }
    let mut covered = std::collections::HashSet::new();
    match root.arr_field("kernels") {
        Ok(ks) => {
            for k in ks {
                match k.str_field("kernel") {
                    Ok(name) => {
                        covered.insert(name.to_string());
                        for key in ["cold_ms", "warm_ms", "speedup"] {
                            if k.num_field(key).is_err() {
                                failures.push(format!(
                                    "baseline kernel `{name}` missing numeric `{key}`"
                                ));
                            }
                        }
                    }
                    Err(e) => failures.push(format!("baseline kernel entry without name: {e}")),
                }
            }
        }
        Err(e) => failures.push(format!("baseline missing `kernels`: {e}")),
    }

    let mut artifacts: Vec<std::path::PathBuf> = std::fs::read_dir(bench_dir)
        .map_err(|e| format!("cannot read `{bench_dir}`: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    artifacts.sort();
    for path in &artifacts {
        let display = path.display();
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!("cannot read `{display}`: {e}"));
                continue;
            }
        };
        let j = match parse_json(&text) {
            Ok(j) => j,
            Err(e) => {
                failures.push(format!("`{display}` does not parse: {e}"));
                continue;
            }
        };
        let name = match j.str_field("kernel") {
            Ok(n) => n.to_string(),
            Err(e) => {
                failures.push(format!("`{display}` missing `kernel`: {e}"));
                continue;
            }
        };
        for key in [
            "scale",
            "reps",
            "warmup",
            "repeat",
            "nthreads",
            "cold_ms",
            "warm_ms",
            "warm_median_ms",
            "speedup",
            "plan_cache_hit_rate",
            "pool_reuse_rate",
            "pool_bytes_reused",
        ] {
            if j.num_field(key).is_err() {
                failures.push(format!("`{display}` missing numeric `{key}`"));
            }
        }
        if j.num_field("repeat").is_ok_and(|r| r > 1.0) {
            for key in ["warm_p05_ms", "warm_p95_ms"] {
                if j.num_field(key).is_err() {
                    failures.push(format!(
                        "`{display}` has repeat > 1 but no `{key}` percentile"
                    ));
                }
            }
        }
        if j.get("metrics").is_none() {
            failures.push(format!("`{display}` missing the `metrics` block"));
        }
        if !covered.contains(&name) {
            failures.push(format!(
                "baseline does not cover kernel `{name}` (committed artifact `{display}`)"
            ));
        }
    }
    Ok(failures)
}

/// Runs the `baseline-check` subcommand, printing the verdict; returns
/// `false` on failure.
pub fn run_baseline_check(baseline_path: &str, bench_dir: &str) -> bool {
    match baseline_check(baseline_path, bench_dir) {
        Ok(failures) if failures.is_empty() => {
            println!("baseline-check: PASS ({baseline_path} vs {bench_dir}/BENCH_*.json)");
            true
        }
        Ok(failures) => {
            println!("baseline-check: FAIL");
            for f in &failures {
                println!("  {f}");
            }
            false
        }
        Err(e) => {
            println!("baseline-check: FAIL — {e}");
            false
        }
    }
}

/// Runs the `--bench` mode end to end; returns `false` when the
/// regression gate fails.
pub fn run_bench(cfg: &BenchConfig) -> bool {
    println!(
        "bench: scale {} | {} reps (best-of) x {} batches | {} warmup{}\n",
        cfg.scale,
        cfg.reps,
        cfg.repeat.max(1),
        cfg.warmup,
        if cfg.opt == OptLevel::None {
            String::new()
        } else {
            format!(" | opt {}", cfg.opt.as_str())
        }
    );
    let opt_cols = if cfg.opt == OptLevel::None {
        String::new()
    } else {
        format!(" {:>10} {:>8}", "opt ms", "opt spd")
    };
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>9} {:>10} {:>10}{opt_cols}",
        "kernel", "cold ms", "warm ms", "median ms", "speedup", "cache hit", "pool reuse"
    );
    let results: Vec<BenchResult> = cfg
        .kernels
        .iter()
        .map(|name| {
            let r = bench_kernel(name, cfg);
            let opt_cols = match (r.opt_warm_ms, r.opt_speedup()) {
                (Some(o), Some(s)) => format!(" {o:>10.3} {s:>7.2}x"),
                _ => String::new(),
            };
            println!(
                "{:<16} {:>10.3} {:>10.3} {:>10.3} {:>8.2}x {:>9.1}% {:>9.1}%{opt_cols}",
                r.kernel,
                r.cold_ms,
                r.warm_ms,
                r.warm_median_ms,
                r.speedup(),
                r.cache_hit_rate * 100.0,
                r.pool_reuse_rate * 100.0
            );
            if cfg.repeat > 1 {
                println!(
                    "  warm batches: p05 {:.3} ms | median {:.3} ms | p95 {:.3} ms",
                    r.warm_p05_ms, r.warm_median_ms, r.warm_p95_ms
                );
            }
            if let Some(s) = &r.sched {
                println!(
                    "  sched: {} launches, {} tiles, {} steals across {} workers",
                    s.launches,
                    s.total_tiles(),
                    s.total_steals(),
                    s.nworkers
                );
            }
            if let (Some(jit), Some(calls)) = (r.jit_speedup(), r.nest_calls) {
                println!(
                    "  jit: {jit:.2}x over interpreted warm | {calls} nest calls, {} nest points | \
                     {} interstate evals",
                    r.nest_points.unwrap_or(0),
                    r.metrics.interstate_evals,
                );
            }
            if cfg.json {
                let path = format!("BENCH_{}.json", r.kernel);
                std::fs::write(&path, kernel_json(&r, cfg)).expect("write bench json");
                eprintln!("  wrote {path}");
            }
            r
        })
        .collect();

    let mut ok = true;
    if cfg.target != Target::Cpu {
        let bad: Vec<&BenchResult> = results
            .iter()
            .filter(|r| r.target_run.as_ref().is_some_and(|t| !t.verified()))
            .collect();
        if bad.is_empty() {
            println!(
                "\ntarget gate: PASS (all kernels match the interpreter on `{}`)",
                cfg.target.as_str()
            );
        } else {
            println!("\ntarget gate: FAIL");
            for r in bad {
                println!("  {}: outputs diverge from the interpreter", r.kernel);
            }
            ok = false;
        }
    }
    if cfg.opt != OptLevel::None {
        let failures = opt_gate(&results);
        if failures.is_empty() {
            println!("\nopt gate: PASS (>=1 kernel optimized-warm beats unoptimized-warm)");
        } else {
            println!("\nopt gate: FAIL");
            for f in &failures {
                println!("  {f}");
            }
            ok = false;
        }
    }

    if let Some(path) = &cfg.write_baseline {
        std::fs::write(path, baseline_json(&results, cfg, DEFAULT_MIN_SPEEDUP))
            .expect("write baseline");
        eprintln!("\nwrote baseline {path}");
    }

    if let Some(path) = &cfg.baseline {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline `{path}`: {e}"));
        match gate(&results, &src) {
            Ok(report) => {
                for a in &report.advisories {
                    println!("\nbench gate advisory: {a}");
                }
                if report.failures.is_empty() {
                    println!("\nbench gate: PASS (vs {path})");
                } else {
                    println!("\nbench gate: FAIL (vs {path})");
                    for f in &report.failures {
                        println!("  {f}");
                    }
                    ok = false;
                }
            }
            Err(e) => {
                println!("\nbench gate: FAIL — malformed baseline `{path}`: {e}");
                ok = false;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(kernel: &str, cold: f64, warm: f64) -> BenchResult {
        BenchResult {
            kernel: kernel.into(),
            cold_ms: cold,
            warm_ms: warm,
            warm_median_ms: warm,
            warm_p05_ms: warm,
            warm_p95_ms: warm,
            cache_hit_rate: 0.9,
            pool_reuse_rate: 0.9,
            pool_bytes_reused: 1024,
            opt_warm_ms: None,
            opt_passes: None,
            tuned_hit: None,
            target_run: None,
            nthreads: 1,
            sched: None,
            jit_warm_ms: None,
            jit_compile_ms: None,
            nest_calls: None,
            nest_points: None,
            metrics: CoreSnapshot::default(),
        }
    }

    fn opt_result(kernel: &str, warm: f64, opt_warm: f64) -> BenchResult {
        BenchResult {
            opt_warm_ms: Some(opt_warm),
            opt_passes: Some(2),
            ..result(kernel, warm * 10.0, warm)
        }
    }

    #[test]
    fn opt_gate_needs_one_winner() {
        // One kernel faster optimized: pass, even if another is slower.
        let pass = vec![opt_result("atax", 1.0, 0.8), opt_result("bicg", 1.0, 1.2)];
        assert!(opt_gate(&pass).is_empty());
        // Equal is not strictly faster.
        let tie = vec![opt_result("atax", 1.0, 1.0)];
        assert_eq!(opt_gate(&tie).len(), 1);
        // No optimized measurements at all: fail loudly.
        assert_eq!(opt_gate(&[result("atax", 1.0, 0.1)]).len(), 1);
    }

    #[test]
    fn kernel_json_includes_opt_fields_only_when_measured() {
        let cfg = BenchConfig {
            opt: OptLevel::Aggressive,
            ..BenchConfig::default()
        };
        let with = kernel_json(&opt_result("atax", 1.0, 0.5), &cfg);
        assert!(with.contains("\"opt_warm_ms\": 0.500000"), "{with}");
        assert!(with.contains("\"opt_level\": \"aggressive\""), "{with}");
        assert!(with.contains("\"opt_speedup\": 2.000"), "{with}");
        let without = kernel_json(&result("atax", 1.0, 0.5), &cfg);
        assert!(!without.contains("opt_warm_ms"), "{without}");
        // Both stay parseable by the in-tree JSON reader.
        parse_json(&with).unwrap();
        parse_json(&without).unwrap();
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        assert!((median_ms(vec![1.0, 100.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median_ms(vec![4.0, 2.0]) - 3.0).abs() < 1e-12);
        assert_eq!(median_ms(vec![]), 0.0);
    }

    #[test]
    fn percentiles_bracket_the_sample() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64 / 10.0).collect(); // 0.1..10.0
        let p05 = percentile_ms(&xs, 0.05);
        let p95 = percentile_ms(&xs, 0.95);
        // Bucket interpolation at 12.5% resolution: loose but ordered.
        assert!(p05 < p95, "p05 {p05} >= p95 {p95}");
        assert!((0.2..=1.2).contains(&p05), "p05 {p05}");
        assert!((8.0..=11.0).contains(&p95), "p95 {p95}");
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn kernel_json_carries_percentiles_and_metrics_block() {
        let cfg = BenchConfig {
            repeat: 8,
            ..BenchConfig::default()
        };
        let mut r = result("gemm", 1.0, 0.5);
        r.warm_p05_ms = 0.4;
        r.warm_p95_ms = 0.9;
        r.metrics.launches = 42;
        r.metrics.bytes_h2d = 512;
        let j = kernel_json(&r, &cfg);
        assert!(j.contains("\"warm_p05_ms\": 0.400000"), "{j}");
        assert!(j.contains("\"warm_p95_ms\": 0.900000"), "{j}");
        assert!(j.contains("\"launches\": 42"), "{j}");
        assert!(j.contains("\"h2d\": 512"), "{j}");
        parse_json(&j).unwrap();
        // A single batch carries the metrics block but no percentiles.
        let single = kernel_json(&r, &BenchConfig::default());
        assert!(!single.contains("warm_p05_ms"), "{single}");
        assert!(single.contains("\"metrics\""), "{single}");
        parse_json(&single).unwrap();
    }

    #[test]
    fn kernel_json_includes_sched_counters_when_present() {
        let cfg = BenchConfig::default();
        let mut r = result("cholesky", 10.0, 1.0);
        r.nthreads = 8;
        r.sched = Some(sdfg_exec::SchedStats {
            nworkers: 2,
            launches: 7,
            workers: vec![
                sdfg_exec::SchedWorker {
                    worker: 0,
                    tiles: 5,
                    steals: 0,
                    idle_ns: 1_500_000,
                },
                sdfg_exec::SchedWorker {
                    worker: 1,
                    tiles: 3,
                    steals: 2,
                    idle_ns: 0,
                },
            ],
        });
        let j = kernel_json(&r, &cfg);
        assert!(j.contains("\"nthreads\": 8"), "{j}");
        assert!(j.contains("\"launches\": 7"), "{j}");
        assert!(j.contains("\"tiles\": 8"), "{j}");
        assert!(j.contains("\"steals\": 2"), "{j}");
        assert!(j.contains("\"worker\": 1"), "{j}");
        parse_json(&j).unwrap();
        // Serial runs carry no sched block.
        let plain = kernel_json(&result("gemm", 1.0, 0.1), &cfg);
        assert!(!plain.contains("\"sched\""), "{plain}");
        parse_json(&plain).unwrap();
    }

    #[test]
    fn gate_passes_within_tolerance() {
        let base = r#"{"min_speedup": 5.0, "kernels": [
            {"kernel": "gemm", "cold_ms": 1.0, "warm_ms": 0.10, "speedup": 10.0}
        ]}"#;
        // 20% slower than baseline warm + speedup 8x: inside the gate.
        let report = gate(&[result("gemm", 0.96, 0.12)], base).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(report.advisories.is_empty(), "{:?}", report.advisories);
    }

    #[test]
    fn gate_fails_on_warm_regression() {
        let base = r#"{"min_speedup": 1.0, "kernels": [
            {"kernel": "gemm", "cold_ms": 10.0, "warm_ms": 1.0, "speedup": 10.0}
        ]}"#;
        // Limit is 1.0 * 1.3 + slack; 1.6 ms is over it.
        let report = gate(&[result("gemm", 10.0, 1.6)], base).unwrap();
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("exceeds baseline"));
    }

    #[test]
    fn gate_uses_the_warm_median_not_the_batch_minimum() {
        let base = r#"{"min_speedup": 1.0, "kernels": [
            {"kernel": "gemm", "cold_ms": 10.0, "warm_ms": 1.0, "speedup": 10.0}
        ]}"#;
        // Batch minimum inside the limit but median far over it: the
        // median is what gates (`--repeat` makes them diverge).
        let mut r = result("gemm", 10.0, 1.0);
        r.warm_median_ms = 2.0;
        let report = gate(&[r], base).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("2.000"));
    }

    #[test]
    fn gate_flags_large_improvements_as_advisory_not_failure() {
        let base = r#"{"min_speedup": 1.0, "kernels": [
            {"kernel": "gemm", "cold_ms": 10.0, "warm_ms": 2.0, "speedup": 10.0}
        ]}"#;
        // Floor is 2.0 * 0.7 - 0.25 = 1.15 ms; 0.5 ms is far under it.
        let report = gate(&[result("gemm", 10.0, 0.5)], base).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.advisories.len(), 1);
        assert!(report.advisories[0].contains("--update-baseline"));
    }

    #[test]
    fn gate_fails_when_no_kernel_reaches_min_speedup() {
        let base = r#"{"min_speedup": 5.0, "kernels": [
            {"kernel": "gemm", "cold_ms": 1.0, "warm_ms": 1.0, "speedup": 1.0}
        ]}"#;
        let report = gate(&[result("gemm", 1.0, 1.0)], base).unwrap();
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("below required"));
    }

    #[test]
    fn baseline_roundtrips_through_parser() {
        let cfg = BenchConfig::default();
        let rs = vec![result("gemm", 2.0, 0.2), result("atax", 1.0, 0.1)];
        let src = baseline_json(&rs, &cfg, DEFAULT_MIN_SPEEDUP);
        let base = parse_baseline(&src).unwrap();
        assert_eq!(base.warm_ms.len(), 2);
        // Canonical form sorts kernel entries by name.
        assert_eq!(base.warm_ms[0].0, "atax");
        assert!((base.warm_ms[0].1 - 0.1).abs() < 1e-9);
        assert!((base.min_speedup - DEFAULT_MIN_SPEEDUP).abs() < 1e-9);
    }

    #[test]
    fn baseline_json_is_canonical_and_byte_stable() {
        let cfg = BenchConfig::default();
        let fwd = baseline_json(
            &[result("gemm", 2.0, 0.2), result("atax", 1.0, 0.1)],
            &cfg,
            DEFAULT_MIN_SPEEDUP,
        );
        let rev = baseline_json(
            &[result("atax", 1.0, 0.1), result("gemm", 2.0, 0.2)],
            &cfg,
            DEFAULT_MIN_SPEEDUP,
        );
        assert_eq!(fwd, rev, "kernel order must not affect the bytes");
        // Keys appear in sorted order at both levels.
        let k = fwd.find("\"kernels\"").unwrap();
        let m = fwd.find("\"min_speedup\"").unwrap();
        let r = fwd.find("\"reps\"").unwrap();
        let s = fwd.find("\"scale\"").unwrap();
        let w = fwd.find("\"warmup\"").unwrap();
        assert!(k < m && m < r && r < s && s < w, "{fwd}");
        assert!(fwd.find("\"cold_ms\"").unwrap() < fwd.find("\"kernel\"").unwrap());
    }

    #[test]
    fn kernel_json_carries_tuned_aliases_only_at_opt_tuned() {
        let tuned_cfg = BenchConfig {
            opt: OptLevel::Tuned,
            ..BenchConfig::default()
        };
        let mut r = opt_result("atax", 1.0, 0.5);
        r.tuned_hit = Some(true);
        let j = kernel_json(&r, &tuned_cfg);
        assert!(j.contains("\"opt_level\": \"tuned\""), "{j}");
        assert!(j.contains("\"tuned_warm_ms\": 0.500000"), "{j}");
        assert!(j.contains("\"tuned_speedup\": 2.000"), "{j}");
        assert!(j.contains("\"tuned_hit\": true"), "{j}");
        parse_json(&j).unwrap();
        // Plain --opt=aggressive carries no tuned_* fields.
        let agg = BenchConfig {
            opt: OptLevel::Aggressive,
            ..BenchConfig::default()
        };
        let j = kernel_json(&opt_result("atax", 1.0, 0.5), &agg);
        assert!(!j.contains("tuned_warm_ms"), "{j}");
    }

    #[test]
    fn baseline_check_validates_schema_and_coverage() {
        let dir = std::env::temp_dir().join(format!("sdfg-basecheck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base_path = dir.join("baseline.json");
        let cfg = BenchConfig::default();
        let rs = vec![result("gemm", 2.0, 0.2)];
        std::fs::write(&base_path, baseline_json(&rs, &cfg, DEFAULT_MIN_SPEEDUP)).unwrap();
        // A current-schema artifact for a covered kernel: clean pass.
        std::fs::write(
            dir.join("BENCH_gemm.json"),
            kernel_json(&result("gemm", 2.0, 0.2), &cfg),
        )
        .unwrap();
        let failures = baseline_check(base_path.to_str().unwrap(), dir.to_str().unwrap()).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
        // An artifact for a kernel the baseline does not cover: failure.
        std::fs::write(
            dir.join("BENCH_lu.json"),
            kernel_json(&result("lu", 2.0, 0.2), &cfg),
        )
        .unwrap();
        let failures = baseline_check(base_path.to_str().unwrap(), dir.to_str().unwrap()).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("does not cover kernel `lu`"));
        // An artifact missing current-schema fields: failure.
        std::fs::write(dir.join("BENCH_lu.json"), "{\"kernel\": \"lu\"}").unwrap();
        let failures = baseline_check(base_path.to_str().unwrap(), dir.to_str().unwrap()).unwrap();
        assert!(
            failures.iter().any(|f| f.contains("missing numeric")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("`metrics`")),
            "{failures:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(gate(&[], "{not json").is_err());
        assert!(gate(&[], r#"{"kernels": [{"kernel": "x"}]}"#).is_err());
    }
}

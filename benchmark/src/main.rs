//! dace-rs benchmark: six named workloads, uniform end-to-end metrics, and
//! per-layer attribution measured from outside, through public APIs only.
//! See `benchmark/README.md` for what each number means.

mod cold;
mod gen;
mod host;
mod json;
mod layers;
mod programs;
mod serve;
mod spans;
mod stats;
mod sweep;

use cold::Cold;
use json::J;
use programs::{Kind, Spec};
use serve::Serve;
use spans::Recorder;
use stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use sweep::{ProbeBudget, Warm};

/// End-to-end metrics: name, unit, lower is better, regression bound.
pub const END_TO_END: [(&str, &str, bool, f64); 5] = [
    ("op_ms_p50", "ms", true, 0.25),
    ("op_ms_p90", "ms", true, 0.25),
    ("ops_per_s", "1/s", false, 0.25),
    ("setup_s", "s", true, 0.25),
    ("peak_rss_mb", "MB", true, 0.10),
];

/// Per-layer metrics: name, unit, lower is better.
pub const PER_LAYER: [(&str, &str, bool); 41] = [
    ("frontend.build_ms", "ms", true),
    ("core.from_json_ms", "ms", true),
    ("core.validate_ms", "ms", true),
    ("core.content_hash_ms", "ms", true),
    ("core.parse_json_mb_s", "MB/s", false),
    ("transforms.optimize_ms", "ms", true),
    ("transforms.passes_applied", "count", false),
    ("transforms.nodes_after", "count", true),
    ("exec.session_build_ms", "ms", true),
    ("exec.first_run_ms", "ms", true),
    ("exec.jit.compile_share", "ratio", true),
    ("exec.jit.compiles", "count", true),
    ("exec.jit.cache_hits", "count", false),
    ("exec.jit.fallbacks", "count", true),
    ("exec.jit.timed_compiles", "count", true),
    ("exec.jit.disk_hit_first_run_ms", "ms", true),
    ("exec.plan.hit_rate", "ratio", false),
    ("exec.pool.reuse_rate", "ratio", false),
    ("exec.dispatch.states", "count", true),
    ("exec.dispatch.interstate_evals", "count", true),
    ("exec.dispatch.map_launches", "count", true),
    ("exec.dispatch.drive_self_ms", "ms", true),
    ("exec.nest.calls", "count", true),
    ("exec.nest.points", "count", false),
    ("exec.lower.jit_point_share", "ratio", false),
    ("exec.kernel.ns_per_point", "ns", true),
    ("exec.sched.tiles", "count", true),
    ("exec.sched.steals", "count", true),
    ("exec.sched.idle_share", "ratio", true),
    ("exec.sched.par_efficiency", "ratio", false),
    ("workloads.tuned.native_ms", "ms", true),
    ("workloads.tuned.vs_native", "ratio", true),
    ("serve.http.read_mb_s", "MB/s", false),
    ("serve.http.write_mb_s", "MB/s", false),
    ("serve.registry.submit_new_ms", "ms", true),
    ("serve.registry.submit_existing_ms", "ms", true),
    ("serve.registry.direct_invoke_ms", "ms", true),
    ("serve.admission.admit_ns", "ns", true),
    ("serve.overhead_ms", "ms", true),
    ("serve.rejected", "count", true),
    ("trace_overhead_ratio", "ratio", true),
];

#[derive(Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Warm `Session::run` sweeps over the programs, in process.
    Sweep,
    /// One child process per op on an empty artifact cache.
    Cold,
    /// HTTP invokes against an in-process server.
    Serve,
}

/// A workload: name, why it exists, how it runs, and its programs at their
/// fixed sizes.
pub struct Def {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: WorkloadKind,
    pub programs: &'static [Spec],
}

pub const WORKLOADS: [Def; 6] = [
    Def {
        name: "dense_warm",
        why: "warm sweep mm, jacobi2d, 3mm: whole-nest JIT and tile dispatch do all the work; carries the tuned gemm/jacobi yardstick",
        kind: WorkloadKind::Sweep,
        programs: &[
            Spec::new(Kind::Mm, 224, 0),
            Spec::new(Kind::Jacobi2d, 448, 24),
            Spec::poly("3mm", 200),
        ],
    },
    Def {
        name: "irregular_warm",
        why: "warm sweep histogram, query, spmv: WCR, streams and indirection make every JIT tier decline, so the interpreted tiers run",
        kind: WorkloadKind::Sweep,
        programs: &[
            Spec::new(Kind::Histogram, 640, 0),
            Spec::new(Kind::Query, 1 << 18, 0),
            Spec::new(Kind::Spmv, 6144, 16),
        ],
    },
    Def {
        name: "solvers_warm",
        why: "warm sweep cholesky, durbin, nussinov: thousands of states and map launches with tiny bodies, so state-machine drive dominates",
        kind: WorkloadKind::Sweep,
        programs: &[
            Spec::poly("cholesky", 320),
            Spec::poly("durbin", 384),
            Spec::poly("nussinov", 40),
        ],
    },
    Def {
        name: "cold_start",
        why: "one child process per op on an empty JIT cache, ludcmp@32 to first verified result: frontend, passes, lowering and cc block",
        kind: WorkloadKind::Cold,
        programs: &[Spec::poly("ludcmp", 32)],
    },
    Def {
        name: "serve_bulk",
        why: "HTTP invoke of atax@512 with a ~3.6 MB JSON body per request: float decode/encode and body I/O dominate the op",
        kind: WorkloadKind::Serve,
        programs: &[Spec::poly("atax", 512)],
    },
    Def {
        name: "serve_small",
        why: "HTTP invokes alternating atax@32 and bicg@32 (~10 KB bodies): fixed per-request cost dominates, body size does not",
        kind: WorkloadKind::Serve,
        programs: &[Spec::poly("atax", 32), Spec::poly("bicg", 32)],
    },
];

/// Named measurements of one run.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

struct Args {
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
    child: Option<String>,
    cache: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        out: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: false,
        quick: false,
        selfcheck: false,
        child: None,
        cache: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--cache" => a.cache = Some(PathBuf::from(value("a directory")?)),
            "--workload" => a.workload = Some(value("a name")?),
            "--child" => a.child = Some(value("a mode")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => a.quick = true,
            "--selfcheck" => a.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.out.as_os_str().is_empty() {
        return Err("--out <dir> is required (benchmark/run.sh passes it)".into());
    }
    if a.seconds <= 0.0 {
        a.seconds = if a.quick {
            QUICK_SECONDS
        } else {
            default_seconds(&a.out)
        };
    }
    Ok(a)
}

const QUICK_SECONDS: f64 = 1.2;

/// `run_seconds` of the `BENCHMARK.json` beside the benchmark directory.
fn default_seconds(out: &Path) -> f64 {
    out.parent()
        .and_then(Path::parent)
        .and_then(|root| std::fs::read_to_string(root.join("BENCHMARK.json")).ok())
        .and_then(|text| json::parse_json(&text).ok())
        .and_then(|doc| doc.num_field("run_seconds").ok())
        .unwrap_or(10.0)
}

fn find_workload(name: &str) -> Result<&'static Def, String> {
    WORKLOADS
        .iter()
        .find(|d| d.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))
}

/// Ops of one workload run a single program when the programs alternate.
fn per_op_share(def: &Def) -> f64 {
    match def.kind {
        WorkloadKind::Serve => 1.0 / def.programs.len() as f64,
        _ => 1.0,
    }
}

/// Scratch space of one process under `out/`, removed when it ends.
struct Work {
    dir: PathBuf,
    /// The artifact cache this process compiles into.
    jit: PathBuf,
}

impl Work {
    fn create(out: &Path, cache: Option<&Path>) -> Result<Work, String> {
        let dir = out.join(format!("work-{}", std::process::id()));
        let tmp = dir.join("tmp");
        let jit = cache.map_or(dir.join("jit"), Path::to_path_buf);
        for d in [&tmp, &jit] {
            std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
        }
        host::scrub_env(&jit, &tmp);
        Ok(Work { dir, jit })
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What a workload run found.
struct Outcome {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<(&'static str, &'static str, f64)>,
    detail: J,
    human: String,
}

fn end_to_end(
    (p50, p90, ops_per_s): stats::Triple,
    setup_s: &[f64],
    peak_rss_mb: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let values = [p50, p90, ops_per_s, median(setup_s), peak_rss_mb];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), v)| (name, unit, v))
        .collect()
}

/// Everything the workload needs before its first timed op. The time from
/// process start to its return is one `setup_s` sample.
enum Ready<'a> {
    Sweep(Warm),
    Cold(Cold<'a>),
    Serve(Box<Serve>),
}

fn setup<'a>(
    def: &'a Def,
    args: &Args,
    work: &Work,
    chain: bool,
    rec: &mut Recorder,
) -> Result<Ready<'a>, String> {
    let specs = def.programs;
    Ok(match def.kind {
        WorkloadKind::Sweep => Ready::Sweep(Warm::setup(
            specs,
            args.seed,
            host::engine_threads(),
            chain,
            rec,
        )?),
        WorkloadKind::Cold => Ready::Cold(Cold::setup(def, args.seed, &args.out, &work.dir, rec)?),
        WorkloadKind::Serve => Ready::Serve(Box::new(Serve::setup(specs, args.seed, chain, rec)?)),
    })
}

/// The untraced run: set-up, the timed phase, output checks, and further
/// set-up samples from fresh processes.
fn run_end_to_end(
    def: &Def,
    args: &Args,
    work: &Work,
    started: Instant,
) -> Result<Outcome, String> {
    let mut rec = Recorder::default();
    let ready = setup(def, args, work, false, &mut rec)?;
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    let mut notes = Vec::new();
    let mut rows = Vec::new();
    let mut counts = J::obj::<&str>([]);
    let (phase, peak_rss_mb, mut correct) = match ready {
        Ready::Sweep(warm) => {
            let phase = warm.phase(&warm.sessions, args.seconds, 1, None);
            rows = warm.program_rows(&phase);
            counts = warm.counts_json();
            (phase, host::peak_rss_mb(), true)
        }
        Ready::Cold(mut cold) => {
            let (phase, _) = cold.phase(args.seconds, 1, None);
            (phase, cold.peak_rss_mb, true)
        }
        Ready::Serve(mut serve) => {
            let sp = serve.phase(args.seconds, 1, 1, None);
            let rss = host::peak_rss_mb();
            let bad = serve.verify_saved();
            for (i, v) in &bad {
                notes.push(format!(
                    "served result of program {i}, body {v} differs from a direct Session::run"
                ));
            }
            if sp.rejected > 0 {
                notes.push(format!("{} requests rejected (429/504)", sp.rejected));
            }
            counts = serve.warm.counts_json();
            (sp.phase, rss, bad.is_empty())
        }
    };
    if !args.quick {
        for _ in 0..2 {
            let cache = work.dir.join("setup-probe");
            let line = cold::spawn_child("setup", def, args.seed, false, &args.out, &cache);
            let _ = std::fs::remove_dir_all(&cache);
            setup_s.push(
                line?
                    .trim()
                    .parse::<f64>()
                    .map_err(|e| format!("setup child: {e}"))?,
            );
        }
    }
    correct &= phase.failed == 0;
    let n = phase.op_ms.len();
    let estimates = phase.estimates();
    let metrics = end_to_end(estimates.block_median, &setup_s, peak_rss_mb);
    let fail_ratio = phase.failed as f64 / n as f64;
    let mut human = String::new();
    for (name, unit, v) in &metrics {
        human.push_str(&format!("  {name:<14} {v:>12.4} {unit}\n"));
    }
    human.push_str(&format!(
        "  {:<14} {:>12}\n  {:<14} {:>12}\n",
        "n_ops", n, "fail_ratio", fail_ratio
    ));
    if n < stats::min_samples_for(0.9) {
        human.push_str(&format!(
            "  note: fewer than {} ops, op_ms_p90 has fewer than {} samples beyond it\n",
            stats::min_samples_for(0.9),
            stats::MIN_BEYOND
        ));
    }
    for (label, p50, p90, share) in &rows {
        human.push_str(&format!(
            "    {label:<18} p50 {p50:>9.4} ms  p90 {p90:>9.4} ms  share {:>5.1} %\n",
            share * 100.0
        ));
    }
    for note in &notes {
        human.push_str(&format!("  FAIL: {note}\n"));
    }
    let detail = J::obj([
        ("n_ops", J::Int(n as u64)),
        ("fail_ratio", J::Num(fail_ratio)),
        (
            "setup_s_samples",
            J::Arr(setup_s.iter().map(|&s| J::Num(s)).collect()),
        ),
        (
            "programs",
            J::Arr(
                rows.iter()
                    .map(|(label, p50, p90, share)| {
                        J::obj([
                            ("program", J::str(label.as_str())),
                            ("p50_ms", J::Num(*p50)),
                            ("p90_ms", J::Num(*p90)),
                            ("share", J::Num(*share)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("counts_per_run", counts),
        ("estimators", {
            let e = &estimates;
            let row = |(p50, p90, rate): stats::Triple| {
                J::obj([
                    ("op_ms_p50", J::Num(p50)),
                    ("op_ms_p90", J::Num(p90)),
                    ("ops_per_s", J::Num(rate)),
                ])
            };
            J::obj([
                ("plain", row(e.plain)),
                ("block_median", row(e.block_median)),
                ("block_q1", row(e.block_q1)),
            ])
        }),
        ("notes", J::Arr(notes.iter().map(J::str).collect())),
    ]);
    Ok(Outcome {
        attempted: n as u64,
        failed: phase.failed,
        correct,
        metrics,
        detail,
        human,
    })
}

/// Fewest ops in a traced phase.
const MIN_TRACED_OPS: usize = 30;

/// The traced run: a short untraced phase, the same ops again under the
/// span recorder, then the per-layer probes. Its end-to-end numbers are
/// never reported; the ratio of the two phases is the tracing overhead.
fn run_traced(def: &Def, args: &Args, work: &Work, started: Instant) -> Result<Outcome, String> {
    let mut rec = Recorder::default();
    let mut m = Metrics::default();
    let s = args.seconds;
    let per_op = per_op_share(def);
    let chain = def.kind != WorkloadKind::Cold;
    // The sweeps' traced ops are the engine probe; the other workloads
    // trace their own ops and give the probe a smaller share.
    let own_ops = ProbeBudget {
        traced_s: s * 0.25,
        min_ops: MIN_TRACED_OPS,
        interleaved_s: s * 0.15,
    };
    let probe_only = ProbeBudget {
        traced_s: s * 0.1,
        min_ops: 3,
        interleaved_s: s * 0.1,
    };
    let ready = setup(def, args, work, chain, &mut rec)?;
    let setup_ms = started.elapsed().as_secs_f64() * 1e3;
    let jit_setup = sdfg_exec::jit::stats();
    let (untraced, traced);
    // Compiler invocations up to the end of the workload's own ops: any
    // beyond set-up happened on a warm timed path.
    let mut jit_timed = jit_setup;
    let mut failed;
    let mut correct = true;
    // The engine-layer probe runs over warm direct sessions of the
    // workload's programs; the sweeps' own ops are exactly that.
    let warm = match ready {
        Ready::Sweep(warm) => {
            untraced = warm.phase(&warm.sessions, s * 0.25, MIN_TRACED_OPS, None);
            jit_timed = sdfg_exec::jit::stats();
            traced = warm.engine_layers(own_ops, per_op, "op", &mut rec, &mut m)?;
            failed = untraced.failed + traced.failed;
            m.set(
                "exec.jit.compile_share",
                jit_setup.compile_ms as f64 / setup_ms,
            );
            warm
        }
        Ready::Cold(mut cold) => {
            let (u, cold_reports) = cold.phase(s * 0.25, MIN_TRACED_OPS, None);
            let (t, traced_reports) = cold.phase(s * 0.25, MIN_TRACED_OPS, Some(&mut rec));
            failed = u.failed + t.failed;
            let disk = cold.disk_hit(&work.dir.join("disk-hit"))?;
            let warm = Warm::setup(
                def.programs,
                args.seed,
                host::engine_threads(),
                false,
                &mut rec,
            )?;
            failed += warm
                .engine_layers(probe_only, per_op, "probe.op", &mut rec, &mut m)?
                .failed;
            // What the blocking path of a cold process costs comes from the
            // children, not from this long-lived parent.
            let chains: Vec<Vec<layers::Chain>> =
                traced_reports.iter().map(|r| vec![r.chain]).collect();
            layers::set_chain_metrics(&chains, 1.0, &mut m);
            let med = |f: fn(&cold::ChildReport) -> f64| {
                median(&cold_reports.iter().map(f).collect::<Vec<_>>())
            };
            m.set("exec.session_build_ms", med(|r| r.session_build_ms));
            m.set("exec.first_run_ms", med(|r| r.first_run_ms));
            m.set("exec.jit.compile_share", med(|r| r.compile_ms / r.op_ms));
            m.set("exec.jit.compiles", med(|r| r.compiles));
            m.set("exec.jit.cache_hits", med(|r| r.cache_hits));
            m.set("exec.jit.fallbacks", med(|r| r.fallbacks));
            m.set("exec.jit.timed_compiles", med(|r| r.compiles));
            m.set("exec.jit.disk_hit_first_run_ms", disk.first_run_ms);
            (untraced, traced) = (u, t);
            warm
        }
        Ready::Serve(mut serve) => {
            let u = serve.phase(s * 0.25, MIN_TRACED_OPS, 1, None);
            let t = serve.phase(s * 0.25, MIN_TRACED_OPS, 2, Some(&mut rec));
            jit_timed = sdfg_exec::jit::stats();
            failed = u.phase.failed + t.phase.failed;
            correct &= serve.verify_saved().is_empty();
            let Serve { warm, .. } = *serve;
            failed += warm
                .engine_layers(probe_only, per_op, "probe.op", &mut rec, &mut m)?
                .failed;
            m.set(
                "exec.jit.compile_share",
                jit_setup.compile_ms as f64 / setup_ms,
            );
            m.set("exec.plan.hit_rate", t.plan_hit_rate);
            m.set("exec.pool.reuse_rate", t.pool_reuse_rate);
            m.set("serve.overhead_ms", median(&t.overhead_ms));
            m.set("serve.rejected", (u.rejected + t.rejected) as f64);
            (untraced, traced) = (u.phase, t.phase);
            warm
        }
    };
    if def.kind != WorkloadKind::Cold {
        m.set("exec.jit.compiles", jit_setup.compiles as f64);
        m.set("exec.jit.cache_hits", jit_setup.cache_hits as f64);
        m.set("exec.jit.fallbacks", jit_setup.fallbacks as f64);
        m.set(
            "exec.jit.timed_compiles",
            (jit_timed.compiles - jit_setup.compiles) as f64,
        );
        // Two more passes over the compile chain, in the warm process.
        let mut chains = vec![warm.chains.clone()];
        for _ in 0..2 {
            let pass: Result<Vec<_>, String> = def
                .programs
                .iter()
                .map(|&spec| {
                    layers::compile_chain(spec, args.seed, None, 0, &mut rec).map(|(_, c)| c)
                })
                .collect();
            chains.push(pass?);
        }
        layers::set_chain_metrics(&chains, per_op, &mut m);
        // Restart cost: a fresh process that finds every artifact on disk.
        let disk = cold::spawn_first_run(def, args.seed, false, &args.out, &work.jit)?;
        m.set("exec.jit.disk_hit_first_run_ms", disk.first_run_ms * per_op);
    }
    // Serve layers on a real request for the first program. The serve
    // workloads report the overhead and rejections of their own traffic.
    let (overhead_ms, rejected) = layers::serve_probe(&warm.programs[0], s * 0.15, &mut m)?;
    if def.kind != WorkloadKind::Serve {
        m.set("serve.overhead_ms", overhead_ms);
        m.set("serve.rejected", rejected as f64);
    }
    m.set("trace_overhead_ratio", traced.p50() / untraced.p50());
    correct &= failed == 0;

    let trace_path = args.out.join(format!("trace-{}.json", def.name));
    std::fs::write(&trace_path, rec.chrome_trace(MAX_TRACED_OPS_WRITTEN))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let mut metrics = Vec::new();
    let mut human = String::new();
    for (name, unit, _) in PER_LAYER {
        let v =
            *m.0.get(name)
                .ok_or(format!("per-layer metric `{name}` was not measured"))?;
        human.push_str(&format!("  {name:<34} {v:>14.4} {unit}\n"));
        metrics.push((name, unit, v));
    }
    human.push_str(&format!(
        "  untraced op_ms_p50 {:.4} ms over {} ops, traced {:.4} ms over {} ops\n  spans by name (count, total ms, self ms):\n",
        untraced.p50(),
        untraced.op_ms.len(),
        traced.p50(),
        traced.op_ms.len()
    ));
    let layer_rows = rec.layers();
    for (name, l) in &layer_rows {
        human.push_str(&format!(
            "    {name:<24} {:>8} {:>12.3} {:>12.3}\n",
            l.count, l.total_ms, l.self_ms
        ));
    }
    human.push_str(&format!("  trace: {}\n", trace_path.display()));
    let detail = J::obj([
        ("n_ops_untraced", J::Int(untraced.op_ms.len() as u64)),
        ("n_ops_traced", J::Int(traced.op_ms.len() as u64)),
        ("untraced_op_ms_p50", J::Num(untraced.p50())),
        ("traced_op_ms_p50", J::Num(traced.p50())),
        ("jit_compile_ms_setup", J::Int(jit_setup.compile_ms)),
        ("setup_ms", J::Num(setup_ms)),
        (
            "spans",
            J::Obj(
                layer_rows
                    .iter()
                    .map(|(name, l)| {
                        let row = J::obj([
                            ("count", J::Int(l.count)),
                            ("total_ms", J::Num(l.total_ms)),
                            ("self_ms", J::Num(l.self_ms)),
                        ]);
                        (name.clone(), row)
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(Outcome {
        attempted: (untraced.op_ms.len() + traced.op_ms.len()) as u64,
        failed,
        correct,
        metrics,
        detail,
        human,
    })
}

/// Ops whose spans go into the Chrome trace file (all of them count toward
/// the per-layer numbers).
const MAX_TRACED_OPS_WRITTEN: u64 = 8;

fn detail_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!("run-{workload}-trace{}.json", u8::from(trace)))
}

/// One workload in this process. The last line printed is the result object
/// the driver reads.
fn run_workload(def: &Def, args: &Args, started: Instant) -> Result<bool, String> {
    let work = Work::create(&args.out, None)?;
    let outcome = if args.trace {
        run_traced(def, args, &work, started)?
    } else {
        run_end_to_end(def, args, &work, started)?
    };
    let metrics = J::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                let value = J::obj([("value", J::Num(*v)), ("unit", J::str(*unit))]);
                (name.to_string(), value)
            })
            .collect(),
    );
    if let Some((name, _, v)) = outcome.metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("metric `{name}` is not a finite number ({v})"));
    }
    let result = J::obj([
        ("correct", J::Bool(outcome.correct)),
        ("attempted", J::Int(outcome.attempted)),
        ("failed", J::Int(outcome.failed)),
        ("metrics", metrics.clone()),
    ]);
    let mut detail = vec![
        ("workload".to_string(), J::str(def.name)),
        ("why".to_string(), J::str(def.why)),
        ("trace".to_string(), J::Bool(args.trace)),
        ("quick".to_string(), J::Bool(args.quick)),
        ("seed".to_string(), J::Int(args.seed)),
        ("seconds".to_string(), J::Num(args.seconds)),
        (
            "scales".to_string(),
            J::Arr(def.programs.iter().map(|s| J::Str(s.label())).collect()),
        ),
        ("correct".to_string(), J::Bool(outcome.correct)),
        ("attempted".to_string(), J::Int(outcome.attempted)),
        ("failed".to_string(), J::Int(outcome.failed)),
        ("metrics".to_string(), metrics),
    ];
    if let J::Obj(more) = outcome.detail {
        detail.extend(more);
    }
    let path = detail_path(&args.out, def.name, args.trace);
    std::fs::write(&path, J::Obj(detail).pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{} (seed {}, {} s, {} engine threads, {}{})",
        def.name,
        args.seed,
        args.seconds,
        host::engine_threads(),
        if args.trace { "traced" } else { "untraced" },
        if args.quick {
            ", quick: not for claims"
        } else {
            ""
        }
    );
    print!("{}", outcome.human);
    println!("{}", result.render());
    Ok(outcome.correct)
}

/// Runs every workload, each in a process of its own, and writes the
/// combined result file. Returns the per-workload details and whether all
/// outputs were correct.
fn run_all(args: &Args) -> Result<(Vec<(String, json::Json)>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut details = Vec::new();
    for def in &WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", def.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if args.quick {
            cmd.arg("--quick");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("spawn {}: {e}", def.name))?;
        all_correct &= status.success();
        let path = detail_path(&args.out, def.name, args.trace);
        let detail = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse_json(&text))
            .map_err(|e| format!("{}: {e}", path.display()));
        match detail {
            Ok(doc) => details.push((def.name.to_string(), doc)),
            Err(e) => {
                all_correct = false;
                eprintln!("{e}");
            }
        }
        println!();
    }
    let bench_dir = args.out.parent().unwrap_or(Path::new("."));
    let results = J::obj([
        (
            "provenance",
            host::provenance(bench_dir, args.seed, args.seconds),
        ),
        ("traced", J::Bool(args.trace)),
        ("quick_not_for_claims", J::Bool(args.quick)),
        (
            "workloads",
            J::Obj(
                details
                    .iter()
                    .map(|(name, doc)| (name.clone(), json::from_parsed(doc)))
                    .collect(),
            ),
        ),
    ]);
    let name = if args.trace {
        "results-trace.json"
    } else {
        "results.json"
    };
    let path = args.out.join(name);
    std::fs::write(&path, results.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok((details, all_correct))
}

fn metric_of(detail: &json::Json, name: &str) -> Option<f64> {
    detail.get("metrics")?.get(name)?.num_field("value").ok()
}

/// Two full sets back to back: every end-to-end metric of every workload
/// must agree within its bound.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let (first, ok1) = run_all(args)?;
    let (second, ok2) = run_all(args)?;
    let mut ok = ok1 && ok2;
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for (metric, _, _, bound) in END_TO_END {
            let (Some(x), Some(y)) = (metric_of(a, metric), metric_of(b, metric)) else {
                return Err(format!("{name}: no {metric}"));
            };
            let diff = (y - x).abs() / x;
            let verdict = if diff > bound { "  EXCEEDS" } else { "" };
            ok &= diff <= bound;
            println!(
                "{name:<16} {metric:<12} {x:>12.4} {y:>12.4} {:>8.2} {:>7.0}{verdict}",
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn run(started: Instant) -> Result<bool, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    if let Some(mode) = &args.child {
        let def = find_workload(args.workload.as_deref().ok_or("--child needs --workload")?)?;
        let cache = args.cache.as_deref().ok_or("--child needs --cache")?;
        let work = Work::create(&args.out, Some(cache))?;
        return match mode.as_str() {
            "first-run" => {
                println!(
                    "{}",
                    cold::child_first_run(def, args.seed, args.trace, started)?.render()
                );
                Ok(true)
            }
            "setup" => {
                drop(setup(def, &args, &work, false, &mut Recorder::default())?);
                println!("{}", started.elapsed().as_secs_f64());
                Ok(true)
            }
            other => Err(format!("unknown child mode `{other}`")),
        };
    }
    match &args.workload {
        Some(name) => run_workload(find_workload(name)?, &args, started),
        None if args.selfcheck => selfcheck(&args),
        None => Ok(run_all(&args)?.1),
    }
}

fn main() {
    let started = Instant::now();
    // Fix the shared span clock base at process start.
    let _ = sdfg_profile::process_epoch();
    match run(started) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    /// `BENCHMARK.json` at the repository root declares what this program
    /// measures; the two must not drift apart.
    #[test]
    fn benchmark_json_matches_the_declarations() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let workloads = doc.arr_field("workloads").unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, def) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(w.str_field("name").unwrap(), def.name);
            assert_eq!(w.str_field("why").unwrap(), def.why);
            assert!(def.why.len() <= 200 && !def.why.contains('\n'));
        }
        let e2e = doc.arr_field("end_to_end").unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (e, (name, unit, lower, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(e.str_field("name").unwrap(), name);
            assert_eq!(e.str_field("unit").unwrap(), unit);
            assert_eq!(e.str_field("better").unwrap() == "lower", lower);
            assert_eq!(e.num_field("bound").unwrap(), bound);
            assert!(bound <= 0.25);
        }
        let layers = doc.arr_field("per_layer").unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (l, (name, unit, lower)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(l.str_field("name").unwrap(), name);
            assert_eq!(l.str_field("unit").unwrap(), unit);
            assert_eq!(l.str_field("better").unwrap() == "lower", lower);
        }
        assert_eq!(
            doc.get("paths"),
            Some(&Json::Arr(vec![Json::Str("benchmark".into())]))
        );
    }
}

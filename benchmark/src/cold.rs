//! Child processes: the cold first pass over a workload's programs in a
//! fresh process. `cold_start` times it on an empty artifact cache, one
//! child per op (the in-process JIT registry has no reset); the traced runs
//! of the other workloads use the same child on their populated cache for
//! the disk-hit restart cost.

use crate::json::{parse_json, Json, J};
use crate::layers::{Chain, CHAIN_METRICS};
use crate::spans::{now_ns, Recorder};
use crate::sweep::{Phase, Warm};
use crate::{host, Def};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// What a first-run child reports on its last line of output.
pub struct ChildReport {
    /// Process start to first verified result, ms.
    pub op_ms: f64,
    pub checksum: String,
    pub rss_mb: f64,
    pub session_build_ms: f64,
    pub first_run_ms: f64,
    pub compile_ms: f64,
    pub compiles: f64,
    pub cache_hits: f64,
    pub fallbacks: f64,
    /// Sums over the workload's programs.
    pub chain: Chain,
    /// `(name, start, end)` relative to the child's start, ns.
    pub spans: Vec<(String, u64, u64)>,
}

/// The child's side: run the first pass, report as one JSON line.
pub fn child_first_run(def: &Def, seed: u64, traced: bool, started: Instant) -> Result<J, String> {
    let mut rec = Recorder::default();
    let warm = Warm::first_pass(def.programs, seed, host::engine_threads(), traced, &mut rec)?;
    let op_ms = started.elapsed().as_secs_f64() * 1e3;
    let jit = sdfg_exec::jit::stats();
    let checksum = warm
        .expected
        .iter()
        .fold(0u64, |h, c| h.rotate_left(21) ^ c);
    let mut fields = vec![
        ("op_ms", J::Num(op_ms)),
        ("checksum", J::Str(format!("{checksum:016x}"))),
        ("rss_mb", J::Num(host::peak_rss_mb())),
        ("session_build_ms", J::Num(warm.session_build_ms)),
        ("first_run_ms", J::Num(warm.first_run_ms)),
        ("compile_ms", J::Int(jit.compile_ms)),
        ("compiles", J::Int(jit.compiles)),
        ("cache_hits", J::Int(jit.cache_hits)),
        ("fallbacks", J::Int(jit.fallbacks)),
    ];
    for (name, field) in CHAIN_METRICS {
        fields.push((name, J::Num(warm.chains.iter().map(field).sum())));
    }
    let spans = rec
        .spans()
        .iter()
        .map(|s| {
            J::Arr(vec![
                J::Str(s.name.clone()),
                J::Int(s.start_ns),
                J::Int(s.end_ns),
            ])
        })
        .collect();
    fields.push(("spans", J::Arr(spans)));
    Ok(J::obj(fields))
}

fn parse_report(line: &str) -> Result<ChildReport, String> {
    let doc = parse_json(line)?;
    let num = |key: &str| doc.num_field(key);
    let chain = Chain {
        build_ms: num("frontend.build_ms")?,
        from_json_ms: num("core.from_json_ms")?,
        validate_ms: num("core.validate_ms")?,
        content_hash_ms: num("core.content_hash_ms")?,
        optimize_ms: num("transforms.optimize_ms")?,
        passes_applied: num("transforms.passes_applied")?,
        nodes_after: num("transforms.nodes_after")?,
    };
    let spans = doc
        .arr_field("spans")?
        .iter()
        .filter_map(|s| match s {
            Json::Arr(v) => match v.as_slice() {
                [Json::Str(name), Json::Num(lo), Json::Num(hi)] => {
                    Some((name.clone(), *lo as u64, *hi as u64))
                }
                _ => None,
            },
            _ => None,
        })
        .collect();
    Ok(ChildReport {
        op_ms: num("op_ms")?,
        checksum: doc.str_field("checksum")?.to_string(),
        rss_mb: num("rss_mb")?,
        session_build_ms: num("session_build_ms")?,
        first_run_ms: num("first_run_ms")?,
        compile_ms: num("compile_ms")?,
        compiles: num("compiles")?,
        cache_hits: num("cache_hits")?,
        fallbacks: num("fallbacks")?,
        chain,
        spans,
    })
}

/// Runs this executable again as a child and returns the last line it
/// printed. The child inherits the scrubbed environment; `cache` replaces
/// its artifact cache directory.
pub fn spawn_child(
    mode: &str,
    def: &Def,
    seed: u64,
    traced: bool,
    out: &Path,
    cache: &Path,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--child", mode, "--workload", def.name])
        .args([
            "--seed",
            &seed.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(out)
        .arg("--cache")
        .arg(cache)
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!(
            "{mode} child failed ({}): {:.400}",
            output.status,
            stderr.trim()
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("{mode} child printed nothing"))
}

pub fn spawn_first_run(
    def: &Def,
    seed: u64,
    traced: bool,
    out: &Path,
    cache: &Path,
) -> Result<ChildReport, String> {
    parse_report(&spawn_child("first-run", def, seed, traced, out, cache)?)
}

/// The `cold_start` workload, parent side.
pub struct Cold<'a> {
    def: &'a Def,
    seed: u64,
    out: PathBuf,
    /// Parent of the per-op cache directories.
    work: PathBuf,
    expected: String,
    pub peak_rss_mb: f64,
    ops_started: usize,
}

impl<'a> Cold<'a> {
    /// One untimed child: pages in the compiler and this executable, and
    /// yields the checksum every timed child must reproduce.
    pub fn setup(
        def: &'a Def,
        seed: u64,
        out: &Path,
        work: &Path,
        rec: &mut Recorder,
    ) -> Result<Cold<'a>, String> {
        let mut cold = Cold {
            def,
            seed,
            out: out.to_path_buf(),
            work: work.to_path_buf(),
            expected: String::new(),
            peak_rss_mb: 0.0,
            ops_started: 0,
        };
        let t0 = now_ns();
        let first = cold.op(false, None)?;
        rec.push("cold.warmup_child", t0, now_ns(), None, 0, 0);
        cold.expected = first.checksum;
        Ok(cold)
    }

    /// One child on a fresh empty cache directory. With `keep`, the
    /// populated directory is left behind at that path.
    fn op(&mut self, traced: bool, keep: Option<&Path>) -> Result<ChildReport, String> {
        self.ops_started += 1;
        let dir = match keep {
            Some(d) => d.to_path_buf(),
            None => self.work.join(format!("cold-{}", self.ops_started)),
        };
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let report = spawn_first_run(self.def, self.seed, traced, &self.out, &dir);
        if keep.is_none() {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let report = report?;
        self.peak_rss_mb = self.peak_rss_mb.max(report.rss_mb);
        Ok(report)
    }

    /// Children one at a time for `seconds` and at least `min_ops`. The op's
    /// time is measured inside the child. With a recorder, the child's spans
    /// are placed on the parent's timeline from the moment of the spawn.
    pub fn phase(
        &mut self,
        seconds: f64,
        min_ops: usize,
        mut rec: Option<&mut Recorder>,
    ) -> (Phase, Vec<ChildReport>) {
        let mut phase = Phase::default();
        let mut reports = Vec::new();
        let t0 = Instant::now();
        while phase.op_ms.len() < min_ops.max(1) || t0.elapsed().as_secs_f64() < seconds {
            let spawned = now_ns();
            match self.op(rec.is_some(), None) {
                Ok(r) => {
                    phase.op_ms.push(r.op_ms);
                    phase.op_end_s.push(t0.elapsed().as_secs_f64());
                    phase.failed += u64::from(r.checksum != self.expected);
                    if let Some(rec) = rec.as_deref_mut() {
                        let op = phase.op_ms.len() as u64;
                        let o = rec.push("op", spawned, now_ns(), None, op, 0);
                        let main = rec.push(
                            "child.main",
                            spawned,
                            spawned + (r.op_ms * 1e6) as u64,
                            Some(o),
                            op,
                            1,
                        );
                        for (name, lo, hi) in &r.spans {
                            rec.push(name.as_str(), spawned + lo, spawned + hi, Some(main), op, 1);
                        }
                    }
                    reports.push(r);
                }
                Err(e) => {
                    eprintln!("cold_start op failed: {e}");
                    phase.op_ms.push((now_ns() - spawned) as f64 / 1e6);
                    phase.op_end_s.push(t0.elapsed().as_secs_f64());
                    phase.failed += 1;
                }
            }
        }
        (phase, reports)
    }

    /// Restart cost: a cold child that populates `dir`, then a second child
    /// that finds every artifact on disk. Returns the second one's report.
    pub fn disk_hit(&mut self, dir: &Path) -> Result<ChildReport, String> {
        self.op(false, Some(dir))?;
        let second = self.op(false, Some(dir));
        let _ = std::fs::remove_dir_all(dir);
        second
    }
}

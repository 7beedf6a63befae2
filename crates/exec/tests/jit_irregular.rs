//! The §6.1 irregular kernels — histogram (a data-dependent write log),
//! query (a stream) and spmv (dynamic-range inner maps and the `x[col[j]]`
//! gather) — run native, bitwise identical to the interpreted tiers, and
//! every access the kernel checks itself fails, or is ignored, exactly as
//! the interpreter's does.
//!
//! Checks that need a particular compiler (a slow one, so launches find
//! their kernel pending) or could hang on a broken kernel run in a
//! re-executed child of this test binary. Everything skips on machines
//! without a C compiler.
#![cfg(unix)]

use sdfg_core::node::MapScope;
use sdfg_core::{DType, Memlet, Schedule, Sdfg, SymRange, Wcr};
use sdfg_exec::{jit, Outputs, Session};
use sdfg_workloads::kernels;
use sdfg_workloads::workload::Workload;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// The child's mode; unset in the parent.
const CHILD_ENV: &str = "SDFG_JIT_IRREGULAR_CHILD";

fn jit_available() -> bool {
    jit::env_enabled() && jit::cc().is_some()
}

/// The three programs at test scale, with what one steady run at any
/// thread count does: `(jit points, nest calls)`.
fn programs() -> Vec<(Workload, (u64, u64))> {
    vec![
        // One call per launch of `pixels` (one per 64-row image tile),
        // every pixel native.
        (kernels::histogram(96), (96 * 96, 2)),
        // Calls of at most 4096 points, so stream staging stays small.
        (kernels::query(20_000), (20_000, 5)),
        // The whole row loop, nonzero loops included, in one call.
        (kernels::spmv(700, 9), (700 + 700 * 9, 1)),
    ]
}

fn session(w: &Workload, jit: bool, nthreads: usize) -> Session {
    Session::builder(w.sdfg.clone())
        .jit(jit)
        .nthreads(nthreads)
        .build()
        .expect("session")
}

/// Every checked array bitwise, plus query's drained stream (`out`), whose
/// order is the push order.
fn assert_bitwise(what: &str, w: &Workload, got: &Outputs, want: &Outputs) {
    let mut names = w.check.clone();
    if w.name == "query" {
        names.push("out".into());
    }
    for name in &names {
        let (a, b) = (got.array(name).unwrap(), want.array(name).unwrap());
        assert_eq!(a.len(), b.len(), "{what}: `{name}` length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: `{name}`[{i}] {x} vs {y}");
        }
    }
}

/// Each program at 1, 2 and 8 threads: a session's cold run (kernels
/// compiling, or pending behind a slow compiler) and its steady run both
/// match the interpreted tiers bitwise, and the steady run is native.
fn programs_match_interpreted_tiers() {
    for (w, (jit_points, nest_calls)) in programs() {
        for nthreads in [1, 2, 8] {
            let what = format!("{}, {nthreads} threads", w.name);
            let off = session(&w, false, nthreads).run(w.bindings()).unwrap();
            let s = session(&w, true, nthreads);
            let cold = s.run(w.bindings()).expect("cold run");
            assert_bitwise(&format!("{what}, cold"), &w, &cold, &off);
            jit::wait_idle();
            let warm = s.run(w.bindings()).expect("steady run");
            assert_bitwise(&format!("{what}, steady"), &w, &warm, &off);
            let st = warm.stats();
            assert_eq!(
                (st.jit_points, st.nest_calls),
                (jit_points, nest_calls),
                "{what}: steady counts"
            );
            assert_eq!(st.tasklet_points, off.stats().tasklet_points, "{what}");
            // Histogram's tile loop writes its local bins back, so only
            // its rows run native; it says so.
            for row in warm.lowering_report() {
                let native = row.tier == "jit";
                assert!(native || row.label == "tiles", "{what}: {row:?}");
                assert_eq!(row.jit_reason.is_none(), native, "{what}: {row:?}");
            }
        }
    }
}

#[test]
fn irregular_kernels_run_native_and_bitwise() {
    if std::env::var(CHILD_ENV).is_err() && jit_available() {
        programs_match_interpreted_tiers();
    }
}

/// Forwards to the first system C compiler on `PATH`, a little late.
const SLOW_CC: &str = "#!/bin/sh\n\
    if [ \"$1\" != --version ]; then sleep 0.2; fi\n\
    for c in cc gcc clang; do\n\
      command -v \"$c\" >/dev/null 2>&1 && exec \"$c\" \"$@\"\n\
    done\n\
    exit 127\n";

/// Re-runs test `test` in a child (with `env` set) and fails it if the
/// child fails or outlives `limit` — a kernel that loops where the
/// interpreter would not must not hang the suite.
fn run_child(test: &str, env: &[(&str, &Path)], limit: Duration) {
    let mut cmd = Command::new(std::env::current_exe().unwrap());
    cmd.args(["--exact", test, "--nocapture"])
        .env(CHILD_ENV, "1");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("re-exec test binary");
    let t0 = Instant::now();
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            assert!(status.success(), "child `{test}` failed");
            return;
        }
        if t0.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("child `{test}` still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sdfg-jit-irregular-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(d.join("cache")).unwrap();
    d
}

#[test]
fn irregular_kernels_switch_tiers_behind_a_slow_compiler() {
    use std::os::unix::fs::PermissionsExt;
    if std::env::var(CHILD_ENV).is_ok() {
        assert!(jit::cc().is_some_and(|cc| cc.path.ends_with("cc-slow")));
        programs_match_interpreted_tiers();
        assert!(
            jit::stats().pending_launches > 0,
            "no launch found a kernel pending"
        );
        return;
    }
    if !jit_available() {
        return;
    }
    let dir = fresh_dir("slow");
    let cc = dir.join("cc-slow");
    std::fs::write(&cc, SLOW_CC).unwrap();
    std::fs::set_permissions(&cc, std::fs::Permissions::from_mode(0o755)).unwrap();
    run_child(
        "irregular_kernels_switch_tiers_behind_a_slow_compiler",
        &[("CC", &cc), ("SDFG_JIT_CACHE", &dir.join("cache"))],
        Duration::from_secs(300),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// --- near misses ---------------------------------------------------------------

/// A run's outcome as the caller sees it: the checked arrays' bits, or
/// the error's message.
fn outcome<E: std::fmt::Display>(w: &Workload, r: Result<Outputs, E>) -> Result<Vec<u64>, String> {
    let out = r.map_err(|e| e.to_string())?;
    let mut bits = Vec::new();
    for name in &w.check {
        bits.extend(out.array(name).unwrap().iter().map(|x| x.to_bits()));
    }
    Ok(bits)
}

/// The interpreted tiers' outcome, and the steady JIT outcome (after the
/// first run has requested the kernels and the compiles have finished),
/// which, when the run succeeds, ran every point native.
fn outcomes(w: &Workload) -> (Result<Vec<u64>, String>, Result<Vec<u64>, String>) {
    let off = outcome(w, session(w, false, 2).run(w.bindings()));
    let s = session(w, true, 2);
    let _ = s.run(w.bindings());
    jit::wait_idle();
    let on = s.run(w.bindings());
    if let Ok(out) = &on {
        let st = out.stats();
        assert_eq!(st.jit_points, st.tasklet_points, "{}: not native", w.name);
    }
    (off, outcome(w, on))
}

/// `hist[bin[i]] += 1` over a `bins`-element histogram: histogram's write
/// log with the bin index read straight from the input.
fn scatter(bin: Vec<f64>, bins: usize) -> Workload {
    let mut sdfg = Sdfg::new("scatter");
    sdfg.add_symbol("N");
    sdfg.add_array("bin", &["N"], DType::F64);
    sdfg.add_array("hist", &[&bins.to_string()], DType::F64);
    let st = sdfg.add_state("main");
    let st = sdfg.state_mut(st);
    let src = st.add_access("bin");
    let dst = st.add_access("hist");
    let mut m = MapScope::new("scan", vec!["i".into()], vec![SymRange::new(0, "N")]);
    m.schedule = Schedule::CpuMulticore;
    let (me, mx) = st.add_map(m);
    let t = st.add_tasklet("put", &["b"], &["out"], "out[int(b)] = 1");
    let all = format!("0:{bins}");
    st.add_edge(src, None, me, Some("IN_bin"), Memlet::parse("bin", "0:N"));
    st.add_edge(me, Some("OUT_bin"), t, Some("b"), Memlet::parse("bin", "i"));
    st.add_edge(
        t,
        Some("out"),
        mx,
        Some("IN_hist"),
        Memlet::parse("hist", &all).with_wcr(Wcr::Sum).dynamic(),
    );
    st.add_edge(
        mx,
        Some("OUT_hist"),
        dst,
        None,
        Memlet::parse("hist", &all).with_wcr(Wcr::Sum),
    );
    sdfg.validate().expect("valid scatter sdfg");
    let n = bin.len() as i64;
    Workload::new("scatter", sdfg)
        .symbol("N", n)
        .array("bin", bin)
        .array("hist", vec![0.0; bins])
        .check("hist")
}

#[test]
fn write_log_indices_behave_as_interpreted() {
    if !jit_available() || std::env::var(CHILD_ENV).is_ok() {
        return;
    }
    let bins: Vec<f64> = (0..1000).map(|i| ((i * 7) % 11) as f64 + 0.25).collect();
    // Indices 8..10 lie past the end of an 8-bin histogram: the combine
    // ignores them.
    let (off, on) = outcomes(&scatter(bins.clone(), 8));
    assert!(off.is_ok(), "{off:?}");
    assert_eq!(on, off, "index past the end");
    // A negative index fails the run with the VM's own error.
    let mut neg = bins;
    neg[700] = -3.0;
    let (off, on) = outcomes(&scatter(neg, 8));
    let err = off.clone().unwrap_err();
    assert!(err.contains("index -3 out of bounds"), "{err}");
    assert_eq!(on, off, "negative index");
}

#[test]
fn out_of_range_gather_fails_as_interpreted() {
    if !jit_available() || std::env::var(CHILD_ENV).is_ok() {
        return;
    }
    let mut w = kernels::spmv(300, 5);
    w.arrays.get_mut("A_col").unwrap()[1234] = 305.0;
    let (off, on) = outcomes(&w);
    let err = off.clone().unwrap_err();
    assert!(
        err.contains("`xv`: index 305 out of bounds (len 300)"),
        "{err}"
    );
    assert_eq!(on, off);
}

/// Row pointers the interpreter converts with `round() as i64`: NaN reads
/// as 0, ±1e300 saturate (an empty row), halves round away from zero —
/// `-0.5` starts a row at -1, whose reads clamp to element 0.
fn row_pointers() {
    for (at_end, v) in [
        (false, f64::NAN),
        (false, 1e300),
        (false, -0.5),
        (false, 2.5),
        (true, -1e300),
        (true, f64::NAN),
    ] {
        let mut w = kernels::spmv(300, 5);
        let rows = w.arrays.get_mut("A_row").unwrap();
        let i = if at_end { rows.len() - 1 } else { 0 };
        rows[i] = v;
        let (off, on) = outcomes(&w);
        assert!(off.is_ok(), "A_row[{i}] = {v}: {off:?}");
        assert_eq!(on, off, "A_row[{i}] = {v}");
    }
}

#[test]
fn loaded_row_bounds_convert_as_interpreted() {
    if std::env::var(CHILD_ENV).is_ok() {
        row_pointers();
        return;
    }
    if jit_available() {
        run_child(
            "loaded_row_bounds_convert_as_interpreted",
            &[],
            Duration::from_secs(120),
        );
    }
}

/// Every lowering-report row below the `jit` tier says why: over the 30
/// Polybench kernels and the three irregular ones, in steady state.
#[test]
fn every_non_jit_row_says_why() {
    if std::env::var(CHILD_ENV).is_ok() {
        return;
    }
    let mut ws: Vec<Workload> = sdfg_workloads::polybench::all()
        .into_iter()
        .map(|k| (k.build)(20))
        .collect();
    ws.extend(programs().into_iter().map(|(w, _)| w));
    for w in &ws {
        let s = session(w, true, 2);
        s.run(w.bindings()).expect("run");
        jit::wait_idle();
        let out = s.run(w.bindings()).expect("steady run");
        let rows = out.lowering_report();
        assert!(!rows.is_empty(), "{}: no lowering rows", w.name);
        for row in rows {
            assert_eq!(
                row.jit_reason.is_none(),
                row.tier == "jit",
                "{}: {row:?}",
                w.name
            );
        }
    }
}

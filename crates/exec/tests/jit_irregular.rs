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
use sdfg_core::{DType, Memlet, Schedule, Sdfg, Subset, SymRange, Wcr};
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

/// At 2 threads in steady state, each map the determinism gate keeps
/// serial says which of its outputs would combine in arrival order:
/// query's stream and spmv's row body, whose nonzero loop combines into
/// `b` directly. Histogram's tiles run in parallel and name nothing. The
/// sizes make every launch worth tiling to the scheduler.
#[test]
fn serial_launches_say_why() {
    if std::env::var(CHILD_ENV).is_ok() {
        return;
    }
    let shared = Some("generic body with a shared write");
    for (w, label, why) in [
        (kernels::histogram(256), "tiles", None),
        (kernels::query(20_000), "scan", Some("stream output")),
        (kernels::spmv(2000, 64), "rows", shared),
    ] {
        let s = session(&w, jit_available(), 2);
        s.run(w.bindings()).expect("run");
        jit::wait_idle();
        let out = s.run(w.bindings()).expect("steady run");
        let rows = out.lowering_report();
        let row = rows.iter().find(|r| r.label == label).expect("map row");
        assert_eq!(row.serial_reason.as_deref(), why, "{}", w.name);
        let tiled = u64::from(why.is_none());
        assert_eq!(out.stats().parallel_regions, tiled, "{}", w.name);
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

// --- ordered write-back replay -------------------------------------------------

/// What [`tiled_sum`] builds: histogram's shape, or one of its near misses
/// that must keep its tiles serial.
#[derive(Clone, Copy, Debug, PartialEq)]
enum TiledSum {
    /// Tile-private bins, written back by WCR: the tiles run in parallel.
    Replayable,
    /// The write-back carries no WCR.
    PlainWriteBack,
    /// The tasklet also reads the write-back's target.
    ReadsTarget,
    /// The tasklet also combines into a container outside the tile.
    SharedWrite,
    /// Replayable, with a log index read straight from `img`: a negative
    /// pixel fails its tile.
    Faulting,
}

/// Histogram with order-sensitive sums: 40 tiles (dim-0 values), each
/// sweeping its row of `img` into 16 tile-private bins as `a * 0.1`, then
/// combining the bins into `hist` with one WCR write-back per tile.
fn tiled_sum(variant: TiledSum) -> Workload {
    const ROWS: usize = 40;
    const COLS: usize = 256;
    let mut sdfg = Sdfg::new("tiled_sum");
    sdfg.add_array("img", &[&ROWS.to_string(), &COLS.to_string()], DType::F64);
    sdfg.add_array("hist", &["16"], DType::F64);
    sdfg.add_array("rows", &[&ROWS.to_string()], DType::F64);
    sdfg.add_transient("lhist", &["16"], DType::F64);
    let st = sdfg.add_state("main");
    let st = sdfg.state_mut(st);
    let img = st.add_access("img");
    let hist = st.add_access("hist");
    let mut outer = MapScope::new(
        "tiles",
        vec!["ti".into()],
        vec![SymRange::new(0, ROWS as i64)],
    );
    outer.schedule = Schedule::CpuMulticore;
    let (oe, ox) = st.add_map(outer);
    let (ie, ix) = st.add_map(MapScope::new(
        "pixels",
        vec!["j".into()],
        vec![SymRange::new(0, COLS as i64)],
    ));
    let (ins, outs, code): (&[&str], &[&str], &str) = match variant {
        TiledSum::ReadsTarget => (
            &["a", "h"],
            &["out"],
            "b = int(abs(a)) % 16\nout[int(b)] = a * 0.1 + h",
        ),
        TiledSum::SharedWrite => (
            &["a"],
            &["out", "r"],
            "b = int(abs(a)) % 16\nout[int(b)] = a * 0.1\nr = a * 0.1",
        ),
        TiledSum::Faulting => (&["a"], &["out"], "out[int(a)] = a * 0.1"),
        _ => (
            &["a"],
            &["out"],
            "b = int(abs(a)) % 16\nout[int(b)] = a * 0.1",
        ),
    };
    let t = st.add_tasklet("bin", ins, outs, code);
    let lh = st.add_access("lhist");
    let all_img = format!("0:{ROWS}, 0:{COLS}");
    st.add_edge(
        img,
        None,
        oe,
        Some("IN_img"),
        Memlet::parse("img", &all_img),
    );
    let row = format!("ti, 0:{COLS}");
    st.add_edge(
        oe,
        Some("OUT_img"),
        ie,
        Some("IN_img"),
        Memlet::parse("img", &row),
    );
    st.add_edge(
        ie,
        Some("OUT_img"),
        t,
        Some("a"),
        Memlet::parse("img", "ti, j"),
    );
    let bins = || Memlet::parse("lhist", "0:16").with_wcr(Wcr::Sum);
    st.add_edge(t, Some("out"), ix, Some("IN_lhist"), bins().dynamic());
    st.add_edge(ix, Some("OUT_lhist"), lh, None, bins());
    let wcr = |m: Memlet| match variant {
        TiledSum::PlainWriteBack => m,
        _ => m.with_wcr(Wcr::Sum),
    };
    let back = Memlet::parse("hist", "0:16").with_other_subset(Subset::parse("0:16").unwrap());
    st.add_edge(lh, None, ox, Some("IN_hist"), wcr(back));
    st.add_edge(
        ox,
        Some("OUT_hist"),
        hist,
        None,
        wcr(Memlet::parse("hist", "0:16")),
    );
    match variant {
        TiledSum::ReadsTarget => {
            let src = st.add_access("hist");
            let h = || Memlet::parse("hist", "0");
            st.add_edge(src, None, oe, Some("IN_hist"), h());
            st.add_edge(oe, Some("OUT_hist"), ie, Some("IN_hist"), h());
            st.add_edge(ie, Some("OUT_hist"), t, Some("h"), h());
        }
        TiledSum::SharedWrite => {
            let dst = st.add_access("rows");
            let r = |s: &str| Memlet::parse("rows", s).with_wcr(Wcr::Sum);
            st.add_edge(t, Some("r"), ix, Some("IN_rows"), r("ti"));
            st.add_edge(ix, Some("OUT_rows"), ox, Some("IN_rows"), r("ti"));
            st.add_edge(ox, Some("OUT_rows"), dst, None, r(&format!("0:{ROWS}")));
        }
        _ => {}
    }
    sdfg.validate().expect("valid tiled-sum sdfg");
    let img: Vec<f64> = (0..ROWS * COLS)
        .map(|i| ((i * 7919) % 4096) as f64 * 0.0371 + 0.013)
        .collect();
    Workload::new("tiled_sum", sdfg)
        .array("img", img)
        .array("hist", vec![0.0; 16])
        .array("rows", vec![0.0; ROWS])
        .check("hist")
        .check("rows")
}

/// A generic tile body whose only shared writes are WCR write-backs runs
/// its tiles in parallel, and replaying the tiles' write-backs in dim-0
/// order gives the interpreter's bits for sums whose order shows: at 1, 2
/// and 8 threads, and on 20 repeated runs at 8. Its near misses stay
/// serial and say why. Each session's first run already tiles: the
/// scheduler weighs each of the 40 tiles by the 256 pixels its inner map
/// sweeps. The 1-thread session's first run requests the kernel.
#[test]
fn tiled_write_backs_replay_in_order() {
    if std::env::var(CHILD_ENV).is_ok() {
        return;
    }
    let jit = jit_available();
    for variant in [
        TiledSum::Replayable,
        TiledSum::PlainWriteBack,
        TiledSum::ReadsTarget,
        TiledSum::SharedWrite,
    ] {
        let w = tiled_sum(variant);
        let want = w.run_interp().expect("interpreter runs");
        let parallel = variant == TiledSum::Replayable;
        for (nthreads, runs) in [(1, 2), (2, 1), (8, 20)] {
            let s = session(&w, jit, nthreads);
            for k in 0..runs {
                let what = format!("{variant:?}, {nthreads} threads, run {k}");
                let out = s.run(w.bindings()).expect("run");
                for name in &w.check {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let got = bits(out.array(name).unwrap());
                    assert_eq!(got, bits(&want[name]), "{what}: `{name}`");
                }
                jit::wait_idle();
                let tiled = parallel && nthreads > 1;
                assert_eq!(out.stats().parallel_regions, u64::from(tiled), "{what}");
                if jit && parallel && (k, nthreads) != (0, 1) {
                    // The tile-private bins let the in-tile kernel run.
                    assert_eq!(out.stats().jit_points, 40 * 256, "{what}");
                }
                let rows = out.lowering_report();
                let tiles = rows.iter().find(|r| r.label == "tiles").expect("tiles row");
                let why = (!parallel && nthreads > 1).then_some("generic body with a shared write");
                assert_eq!(tiles.serial_reason.as_deref(), why, "{what}");
            }
        }
    }
}

/// A launch whose tiles fail ends with the error a serial launch meets
/// first, the failing point with the lowest dim-0 value, however the
/// tiles ran.
#[test]
fn a_failed_tile_reports_the_serial_error() {
    if std::env::var(CHILD_ENV).is_ok() {
        return;
    }
    let jit = jit_available();
    let mut w = tiled_sum(TiledSum::Faulting);
    let s = session(&w, jit, 8);
    // The first run requests the kernel; the second tiles on it.
    s.run(w.bindings()).expect("clean run");
    jit::wait_idle();
    let clean = s.run(w.bindings()).expect("clean run");
    assert_eq!(clean.stats().parallel_regions, 1);
    let img = w.arrays.get_mut("img").unwrap();
    img[5 * 256 + 3] = -3.0;
    img[30 * 256 + 7] = -7.0;
    let serial = session(&w, jit, 1)
        .run(w.bindings())
        .err()
        .expect("the run fails")
        .to_string();
    assert!(serial.contains("index -3 out of bounds"), "{serial}");
    for _ in 0..5 {
        assert_eq!(
            s.run(w.bindings())
                .err()
                .expect("the run fails")
                .to_string(),
            serial
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

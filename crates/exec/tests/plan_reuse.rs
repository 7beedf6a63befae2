//! A program point is planned once, not once per loop iteration.
//!
//! Two halves. The count-based half runs Polybench kernels three times in
//! one session: the first run builds every tasklet body and map plan, the
//! second and third must build none (`CacheStats::point_compiles` stays
//! put) and reproduce the first bit for bit. The differential half is the
//! near-misses: loop bodies that depend on the loop symbol in each way a
//! shared plan could get wrong, compared bitwise with the reference
//! interpreter at 1, 2 and 8 threads with the JIT on and off.
//!
//! Array data are multiples of 0.25 of small magnitude, so every sum and
//! product below is exact and bitwise equality does not hinge on the order
//! a parallel reduction happens to combine in.

use sdfg_core::node::MapScope;
use sdfg_core::{DType, Memlet, Schedule, Sdfg, Wcr};
use sdfg_exec::{Bindings, OptLevel, Session};
use sdfg_frontend::SdfgBuilder;
use sdfg_interp::Interpreter;
use sdfg_symbolic::SymRange;
use sdfg_workloads::polybench;
use std::collections::HashMap;

fn jit_available() -> bool {
    sdfg_exec::jit::env_enabled() && sdfg_exec::jit::cc().is_some()
}

fn data(n: usize, seed: u64) -> Vec<f64> {
    (0..n as u64)
        .map(|i| ((i * 37 + seed * 11) % 23) as f64 * 0.25 - 2.0)
        .collect()
}

fn assert_bitwise(what: &str, name: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: {name} length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: {name}[{i}] = {x}, expected {y}"
        );
    }
}

/// Three runs of one session: runs two and three build `warm_compiles`
/// program points each — none, unless the test is about the variant cap —
/// and return what run one returned. Returns run one's arrays.
fn assert_planned_once(
    what: &str,
    session: &Session,
    bindings: impl Fn() -> Bindings,
    check: &[String],
    warm_compiles: u64,
) -> HashMap<String, Vec<f64>> {
    let first = session.run(bindings()).expect("first run");
    for run in 2..=3 {
        let before = session.cache_stats().point_compiles;
        let again = session.run(bindings()).expect("warm run");
        assert_eq!(
            session.cache_stats().point_compiles - before,
            warm_compiles,
            "{what}: program points compiled by run {run}"
        );
        for name in check {
            let (a, b) = (again.array(name).unwrap(), first.array(name).unwrap());
            assert_bitwise(&format!("{what}, run {run}"), name, a, b);
        }
    }
    first.into_arrays()
}

// --- Polybench: warm runs compile nothing ---------------------------------------

fn polybench_planned_once(name: &str, scale: usize) {
    let kernel = polybench::all()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("no Polybench kernel `{name}`"));
    let w = (kernel.build)(scale);
    let session = w
        .session()
        .opt_level(OptLevel::Aggressive)
        .jit(true)
        .nthreads(2)
        .build()
        .expect("session");
    let what = format!("{name}@{scale}");
    let first = assert_planned_once(&what, &session, || w.bindings(), &w.check, 0);
    // And what was planned once computes the right thing.
    sdfg_workloads::workload::assert_allclose(&w.check, &first, &(kernel.reference)(&w), 1e-9);
}

#[test]
fn state_machine_kernels_plan_once() {
    // The kernels whose state machines loop over map launches: every
    // iteration used to be a new compile context.
    for name in ["durbin", "nussinov", "cholesky", "ludcmp", "lu", "trisolv"] {
        polybench_planned_once(name, 40);
    }
}

#[test]
fn every_polybench_kernel_plans_once() {
    for kernel in polybench::all() {
        polybench_planned_once(kernel.name, 12);
    }
}

// --- near-misses: loop bodies that depend on the loop symbol --------------------

struct Case {
    sdfg: Sdfg,
    symbols: Vec<(&'static str, i64)>,
    arrays: Vec<(&'static str, Vec<f64>)>,
    check: &'static [&'static str],
}

/// Interpreter first; then every thread count with the JIT on and off must
/// match it bitwise on all three runs, building nothing after the first.
/// Returns the `jit_points` of a warm JIT-on run at 8 threads.
fn assert_matches_interpreter(what: &str, case: &Case) -> u64 {
    assert_matches_interpreter_compiling(what, case, 0)
}

/// [`assert_matches_interpreter`] for a case whose warm runs each build
/// `warm_compiles` program points.
fn assert_matches_interpreter_compiling(what: &str, case: &Case, warm_compiles: u64) -> u64 {
    let mut it = Interpreter::new(&case.sdfg);
    for (s, v) in &case.symbols {
        it.set_symbol(s, *v);
    }
    for (n, d) in &case.arrays {
        it.set_array(n, d.clone());
    }
    it.run().expect("interpreter runs");
    let bindings = || {
        let mut b = Bindings::new();
        for (s, v) in &case.symbols {
            b = b.symbol(s, *v);
        }
        for (n, d) in &case.arrays {
            b = b.array(n, d);
        }
        b
    };
    let check: Vec<String> = case.check.iter().map(|s| s.to_string()).collect();
    let mut jit_points = 0;
    for nthreads in [1, 2, 8] {
        for jit in [true, false] {
            let what = format!("{what} ({nthreads} threads, jit {jit})");
            let session = Session::builder(case.sdfg.clone())
                .jit(jit)
                .nthreads(nthreads)
                .build()
                .expect("session");
            let first = assert_planned_once(&what, &session, bindings, &check, warm_compiles);
            for name in case.check {
                assert_bitwise(&what, name, &first[*name], it.array(name));
            }
            if jit {
                // Once every kernel has compiled, each launch it admits is
                // native.
                sdfg_exec::jit::wait_idle();
                jit_points = session.run(bindings()).unwrap().stats().jit_points;
            }
        }
    }
    jit_points
}

/// `for k in lo..hi: body`, where the body state holds one mapped tasklet.
/// The map is multicore-scheduled, which keeps the loop off the whole-loop
/// collapse and on the per-launch tiers this file is about.
#[allow(clippy::too_many_arguments)]
fn looped_map(
    arrays: &[(&str, &str)],
    (lo, hi): (&str, &str),
    ranges: &[(&str, &str)],
    inputs: &[(&str, &str, &str)],
    code: &str,
    output: (&str, &str, &str, Option<Wcr>),
) -> Sdfg {
    let mut b = SdfgBuilder::new("looped");
    b.symbol("N");
    for (name, len) in arrays {
        b.array(name, &[len], DType::F64);
    }
    let body = b.state("body");
    b.mapped_tasklet_wcr(
        body,
        "f",
        ranges,
        inputs,
        code,
        &[output],
        Schedule::CpuMulticore,
    );
    b.add_loop(body, "k", lo, &format!("k < {hi}"), "1");
    b.build().expect("valid sdfg")
}

#[test]
fn window_affine_in_the_loop_symbol() {
    // durbin's shape: `y[k-1-i]` under `for k`.
    let n = 48usize;
    let sdfg = looped_map(
        &[("y", "N"), ("z", "N")],
        ("1", "N"),
        &[("i", "0:k")],
        &[("a", "y", "i"), ("r", "y", "k - 1 - i"), ("c", "z", "i")],
        "o = c + a + 2 * r",
        ("o", "z", "i", None),
    );
    let case = Case {
        sdfg,
        symbols: vec![("N", n as i64)],
        arrays: vec![("y", data(n, 1)), ("z", data(n, 2))],
        check: &["z"],
    };
    assert_matches_interpreter("affine window", &case);
}

#[test]
fn range_crosses_the_hotness_gate_mid_loop() {
    // `0:k` for k = 250..262, on one shared plan: the first launch of 256
    // points requests the kernel, and once it has loaded every launch
    // runs it, the ones below 256 points included.
    let n = 262usize;
    let sdfg = looped_map(
        &[("A", "N"), ("B", "N"), ("C", "N")],
        ("250", "N"),
        &[("i", "0:k")],
        &[("a", "A", "i"), ("b", "B", "k - 1 - i"), ("c", "C", "i")],
        "o = c + a * b",
        ("o", "C", "i", None),
    );
    let case = Case {
        sdfg,
        symbols: vec![("N", n as i64)],
        arrays: vec![("A", data(n, 3)), ("B", data(n, 4)), ("C", data(n, 5))],
        check: &["C"],
    };
    let jit_points = assert_matches_interpreter("range across the gate", &case);
    if jit_available() {
        assert_eq!(jit_points, (250..262).sum::<u64>(), "every launch");
    }
}

fn nonaffine_case(iterations: usize) -> Case {
    let n = 23usize;
    let mut b = SdfgBuilder::new("nonaffine");
    b.symbol("N");
    b.symbol("T");
    b.array("A", &["N"], DType::F64);
    b.array("C", &["4"], DType::F64);
    let body = b.state("body");
    b.mapped_tasklet_wcr(
        body,
        "f",
        &[("i", "0:4")],
        &[
            ("a", "A", "(k * k) % N"),
            ("h", "A", "k // 2"),
            ("c", "C", "i"),
        ],
        "o = c + a + 2 * h",
        &[("o", "C", "i", None)],
        Schedule::CpuMulticore,
    );
    b.add_loop(body, "k", "0", "k < T", "1");
    Case {
        sdfg: b.build().expect("valid sdfg"),
        symbols: vec![("N", n as i64), ("T", iterations as i64)],
        arrays: vec![("A", data(n, 6)), ("C", vec![0.0; 4])],
        check: &["C"],
    }
}

#[test]
fn window_not_affine_in_the_loop_symbol() {
    // `A[(k*k) % N]` and `A[k // 2]`: the value of `k` is folded, and the
    // plan keyed on it — one variant per value, all built by the first run.
    assert_matches_interpreter("non-affine window", &nonaffine_case(20));
}

#[test]
fn folded_variants_are_capped() {
    // 90 values of `k`, 64 folded variants at most: the tasklet and the
    // map plan of the other 26 are built on every visit, warm runs
    // included, and still compute the same thing. Each of the six sessions
    // (3 thread counts, JIT on and off) records the step once per point,
    // not once per visit. Other tests may append to the ledger meanwhile;
    // none of them reaches the cap.
    let ledger = std::env::temp_dir().join(format!("plan-reuse-{}.jsonl", std::process::id()));
    sdfg_profile::ledger::set_path(Some(&ledger));
    let what = "non-affine window, long loop";
    assert_matches_interpreter_compiling(what, &nonaffine_case(90), 2 * (90 - 64));
    sdfg_profile::ledger::set_path(None);
    let text = std::fs::read_to_string(&ledger).expect("ledger written");
    let _ = std::fs::remove_file(&ledger);
    assert_eq!(text.matches("plan-variant-cap").count(), 2 * 6, "{text}");
}

#[test]
fn loop_symbol_assigned_from_a_scalarish_container() {
    // The back edge reads the one-element array `cnt` as a pseudo-symbol:
    // `m = cnt` — a launch-time constant the body's window and range use.
    let n = 40usize;
    let mut b = SdfgBuilder::new("fromcontainer");
    b.symbol("N");
    b.array("A", &["N"], DType::F64);
    b.array("C", &["N"], DType::F64);
    b.array("cnt", &["1"], DType::F64);
    let body = b.state("body");
    b.mapped_tasklet_wcr(
        body,
        "f",
        &[("i", "0:m + 1")],
        &[("a", "A", "m - i"), ("c", "C", "i")],
        "o = c + a",
        &[("o", "C", "i", None)],
        Schedule::CpuMulticore,
    );
    b.mapped_tasklet_wcr(
        body,
        "bump",
        &[("u", "0:1")],
        &[("c", "cnt", "0")],
        "o = c + 2",
        &[("o", "cnt", "0", None)],
        Schedule::Sequential,
    );
    let (init, guard, _) = b.add_loop(body, "k", "0", "k < 12", "1");
    let mut sdfg = b.build().expect("valid sdfg");
    let edge_between = |sdfg: &Sdfg, src, dst| {
        let mut between = sdfg.graph.edges_between(src, dst);
        between.next().expect("edge")
    };
    let enter = edge_between(&sdfg, init, guard);
    sdfg.graph
        .edge_mut(enter)
        .assignments
        .push(("m".into(), "0".into()));
    let back = edge_between(&sdfg, body, guard);
    sdfg.graph
        .edge_mut(back)
        .assignments
        .push(("m".into(), "cnt".into()));
    let case = Case {
        sdfg,
        symbols: vec![("N", n as i64)],
        arrays: vec![("A", data(n, 7)), ("C", data(n, 8)), ("cnt", vec![1.0])],
        check: &["C", "cnt"],
    };
    assert_matches_interpreter("symbol from a container", &case);
}

#[test]
fn wcr_atomicity_follows_the_loop_symbol() {
    // Parallel rows, each summing `A[i, j]` into `C[4*i + j]` for `j < k`:
    // rows are disjoint while k <= 4 and overlap beyond, so whether the
    // combine must be atomic depends on the inner map's trip count — which
    // one shared plan can no longer read off the loop symbol's value.
    let (rows, cols) = (16usize, 9usize);
    let mut sdfg = Sdfg::new("rowsums");
    sdfg.add_symbol("R");
    sdfg.add_symbol("K");
    sdfg.add_array("A", &["R", "K"], DType::F64);
    sdfg.add_array("C", &["4 * R + K"], DType::F64);
    let body = sdfg.add_state("body");
    let st = sdfg.state_mut(body);
    let a = st.add_access("A");
    let c = st.add_access("C");
    let mut outer = MapScope::new("rows", vec!["i".into()], vec![SymRange::new(0, "R")]);
    outer.schedule = Schedule::CpuMulticore;
    let (oe, ox) = st.add_map(outer);
    let mut inner = MapScope::new("cols", vec!["j".into()], vec![SymRange::new(0, "k")]);
    inner.schedule = Schedule::Sequential;
    let (ie, ix) = st.add_map(inner);
    let t = st.add_tasklet("add", &["a"], &["o"], "o = a");
    let sum = |subset: &str| Memlet::parse("C", subset).with_wcr(Wcr::Sum);
    st.add_edge(a, None, oe, Some("IN_A"), Memlet::parse("A", "0:R, 0:k"));
    st.add_edge(
        oe,
        Some("OUT_A"),
        ie,
        Some("IN_A"),
        Memlet::parse("A", "i, 0:k"),
    );
    st.add_edge(ie, Some("OUT_A"), t, Some("a"), Memlet::parse("A", "i, j"));
    st.add_edge(t, Some("o"), ix, Some("IN_C"), sum("4 * i + j"));
    st.add_edge(ix, Some("OUT_C"), ox, Some("IN_C"), sum("4 * i:4 * i + k"));
    st.add_edge(ox, Some("OUT_C"), c, None, sum("0:4 * R + k"));
    let mut b = SdfgBuilder { sdfg };
    b.add_loop(body, "k", "1", "k < K + 1", "1");
    let case = Case {
        sdfg: b.build().expect("valid sdfg"),
        symbols: vec![("R", rows as i64), ("K", cols as i64)],
        arrays: vec![
            ("A", data(rows * cols, 9)),
            ("C", vec![0.0; 4 * rows + cols]),
        ],
        check: &["C"],
    };
    assert_matches_interpreter("WCR atomicity", &case);
}

#[test]
fn connector_named_like_the_loop_symbol() {
    // The map's dynamic-range connector is called `k`, like the loop
    // symbol: `L[k]` on the edge into the entry still means the symbol,
    // while the range `0:k` and the window `A[k + j]` under the entry mean
    // the connector's value — not the symbol's value at state entry.
    let (n, iterations) = (32usize, 6usize);
    let mut sdfg = Sdfg::new("shadowed");
    sdfg.add_symbol("N");
    sdfg.add_symbol("K");
    sdfg.add_array("L", &["K"], DType::F64);
    sdfg.add_array("A", &["N"], DType::F64);
    sdfg.add_array("C", &["N"], DType::F64);
    let body = sdfg.add_state("body");
    let st = sdfg.state_mut(body);
    let (l, a) = (st.add_access("L"), st.add_access("A"));
    let (c_in, c_out) = (st.add_access("C"), st.add_access("C"));
    let cols = MapScope::new("cols", vec!["j".into()], vec![SymRange::new(0, "k")]);
    let (me, mx) = st.add_map(cols);
    let t = st.add_tasklet("add", &["x", "y"], &["o"], "o = y + x");
    st.add_edge(l, None, me, Some("k"), Memlet::parse("L", "k"));
    st.add_edge(a, None, me, Some("IN_A"), Memlet::parse("A", "0:N"));
    st.add_edge(c_in, None, me, Some("IN_C"), Memlet::parse("C", "0:N"));
    st.add_edge(me, Some("OUT_A"), t, Some("x"), Memlet::parse("A", "k + j"));
    st.add_edge(me, Some("OUT_C"), t, Some("y"), Memlet::parse("C", "j"));
    st.add_edge(t, Some("o"), mx, Some("IN_C"), Memlet::parse("C", "j"));
    st.add_edge(mx, Some("OUT_C"), c_out, None, Memlet::parse("C", "0:N"));
    let mut b = SdfgBuilder { sdfg };
    b.add_loop(body, "k", "0", "k < K", "1");
    let lens: Vec<f64> = (0..iterations).map(|k| (11 - 2 * k) as f64).collect();
    let case = Case {
        sdfg: b.build().expect("valid sdfg"),
        symbols: vec![("N", n as i64), ("K", iterations as i64)],
        arrays: vec![("L", lens), ("A", data(n, 10)), ("C", data(n, 11))],
        check: &["C"],
    };
    assert_matches_interpreter("connector shadows the loop symbol", &case);
}

#[test]
fn loop_symbol_first_bound_mid_run() {
    // The first visit finds `m` unbound — harmless, the map over `0:n` is
    // empty — and plans the body without it; the edge taken next binds
    // `m = 3, n = 4`, and the second visit must not reuse that plan: its
    // parameter stack has grown by one launch-time constant.
    let n = 16usize;
    let mut b = SdfgBuilder::new("latebound");
    b.symbol("N");
    b.symbol("n");
    b.symbol("r");
    b.array("A", &["N"], DType::F64);
    b.array("C", &["N"], DType::F64);
    let body = b.state("body");
    b.mapped_tasklet_wcr(
        body,
        "f",
        &[("i", "0:n")],
        &[("a", "A", "m + i"), ("c", "C", "i")],
        "o = c + a",
        &[("o", "C", "i", None)],
        Schedule::CpuMulticore,
    );
    let mut sdfg = b.build().expect("valid sdfg");
    let again = sdfg_core::sdfg::InterstateEdge::when("r < 1")
        .assign("r", "r + 1")
        .assign("m", "3")
        .assign("n", "4");
    sdfg.add_transition(body, body, again);
    let case = Case {
        sdfg,
        symbols: vec![("N", n as i64), ("n", 0), ("r", 0)],
        arrays: vec![("A", data(n, 12)), ("C", data(n, 13))],
        check: &["C"],
    };
    assert_matches_interpreter("constant bound mid-run", &case);
}

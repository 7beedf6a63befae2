//! The JIT call sites' hard cases, each compared bitwise against the
//! interpreted tiers (`jit(false)`) at 1, 2 and 8 threads, plus the run
//! deadline inside a collapsed loop.
//!
//! Without a system C compiler (or under `SDFG_JIT=off`) both sessions run
//! the interpreted tiers and the comparisons hold trivially; assertions on
//! `jit_points` are skipped.

use sdfg_core::node::MapScope;
use sdfg_core::{DType, Memlet, Schedule, Sdfg, Wcr};
use sdfg_exec::{Bindings, Outputs, Session};
use sdfg_frontend::{parse_program, SdfgBuilder};
use sdfg_symbolic::SymRange;
use std::time::{Duration, Instant};

fn jit_available() -> bool {
    sdfg_exec::jit::env_enabled() && sdfg_exec::jit::cc().is_some()
}

fn data(n: usize, seed: u64) -> Vec<f64> {
    (0..n as u64)
        .map(|i| ((i * 37 + seed * 11) % 23) as f64 * 0.25 - 2.0)
        .collect()
}

/// Runs `sdfg` with the JIT on and off at each thread count, asserts every
/// `check` array matches bitwise, and returns the 8-thread JIT-on outputs.
fn assert_jit_bitwise(sdfg: &Sdfg, bindings: impl Fn() -> Bindings, check: &[&str]) -> Outputs {
    let run = |jit: bool, nthreads: usize| {
        Session::builder(sdfg.clone())
            .jit(jit)
            .nthreads(nthreads)
            .build()
            .expect("session")
            .run(bindings())
            .expect("run")
    };
    let mut last = None;
    for nthreads in [1, 2, 8] {
        let (on, off) = (run(true, nthreads), run(false, nthreads));
        assert_eq!(off.stats().jit_points, 0);
        for name in check {
            let (a, b) = (on.array(name).unwrap(), off.array(name).unwrap());
            assert_eq!(a.len(), b.len(), "{name} length");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{name}[{i}] at {nthreads} threads: jit={x} interpreted={y}"
                );
            }
        }
        last = Some(on);
    }
    last.expect("ran")
}

/// Parallel rows, each with a scope-local accumulator `tmp` between two
/// inner maps: the inner spans run natively under a thread-local overlay.
fn local_transient_sdfg() -> Sdfg {
    let mut sdfg = Sdfg::new("rowlocal");
    sdfg.add_symbol("N");
    sdfg.add_symbol("M");
    sdfg.add_array("A", &["N", "M"], DType::F64);
    sdfg.add_array("B", &["N", "M"], DType::F64);
    sdfg.add_transient("tmp", &["M"], DType::F64);
    let sid = sdfg.add_state("main");
    let st = sdfg.state_mut(sid);
    let a = st.add_access("A");
    let b = st.add_access("B");
    let tmp = st.add_access("tmp");
    let mut rows = MapScope::new("rows", vec!["i".into()], vec![SymRange::new(0, "N")]);
    rows.schedule = Schedule::CpuMulticore;
    let (oe, ox) = st.add_map(rows);
    let inner = |label: &str| {
        let mut m = MapScope::new(label, vec!["j".into()], vec![SymRange::new(0, "M")]);
        m.schedule = Schedule::Sequential;
        m
    };
    let (e1, x1) = st.add_map(inner("fill"));
    let (e2, x2) = st.add_map(inner("drain"));
    let t1 = st.add_tasklet("scale", &["a"], &["t"], "t = a * 2");
    let t2 = st.add_tasklet("shift", &["t"], &["b"], "b = t + 1");
    st.add_edge(a, None, oe, Some("IN_A"), Memlet::parse("A", "0:N, 0:M"));
    st.add_edge(
        oe,
        Some("OUT_A"),
        e1,
        Some("IN_A"),
        Memlet::parse("A", "i, 0:M"),
    );
    st.add_edge(e1, Some("OUT_A"), t1, Some("a"), Memlet::parse("A", "i, j"));
    // A Sum combine into the per-row accumulator: only correct when every
    // row starts from a fresh (zeroed) private `tmp`.
    let into_tmp = |subset: &str| Memlet::parse("tmp", subset).with_wcr(Wcr::Sum);
    st.add_edge(t1, Some("t"), x1, Some("IN_tmp"), into_tmp("j"));
    st.add_edge(x1, Some("OUT_tmp"), tmp, None, into_tmp("0:M"));
    st.add_edge(tmp, None, e2, Some("IN_tmp"), Memlet::parse("tmp", "0:M"));
    st.add_edge(
        e2,
        Some("OUT_tmp"),
        t2,
        Some("t"),
        Memlet::parse("tmp", "j"),
    );
    st.add_edge(t2, Some("b"), x2, Some("IN_B"), Memlet::parse("B", "i, j"));
    st.add_edge(
        x2,
        Some("OUT_B"),
        ox,
        Some("IN_B"),
        Memlet::parse("B", "i, 0:M"),
    );
    st.add_edge(ox, Some("OUT_B"), b, None, Memlet::parse("B", "0:N, 0:M"));
    sdfg.validate().expect("valid sdfg");
    sdfg
}

#[test]
fn span_under_a_thread_local_transient() {
    let (n, m) = (24usize, 40usize);
    let sdfg = local_transient_sdfg();
    let bindings = || {
        Bindings::new()
            .symbol("N", n as i64)
            .symbol("M", m as i64)
            .array_vec("A", data(n * m, 1))
            .array_vec("B", vec![0.0; n * m])
    };
    let out = assert_jit_bitwise(&sdfg, bindings, &["B"]);
    let a = data(n * m, 1);
    for (x, y) in a.iter().zip(out.array("B").unwrap()) {
        assert_eq!(*y, x * 2.0 + 1.0);
    }
    if jit_available() {
        assert_eq!(out.stats().jit_points, 2 * (n * m) as u64);
    }
}

#[test]
fn atomic_loop_invariant_wcr_accumulates_in_a_cell() {
    // `s[1]` is invariant in both map dimensions: compiled for a parallel
    // launch its combine is atomic, so the kernel may only fold each row
    // into a private cell and leave the combine to Rust.
    let mut b = SdfgBuilder::new("dot2d");
    b.symbol("N");
    b.symbol("K");
    b.array("A", &["N", "K"], DType::F64);
    b.array("B", &["N", "K"], DType::F64);
    b.array("s", &["2"], DType::F64);
    let st = b.state("main");
    b.mapped_tasklet_wcr(
        st,
        "dot",
        &[("i", "0:N"), ("k", "0:K")],
        &[("a", "A", "i, k"), ("b", "B", "i, k")],
        "o = a * b",
        &[("o", "s", "1", Some(Wcr::Sum))],
        Schedule::CpuMulticore,
    );
    let sdfg = b.build().unwrap();
    let (n, k) = (64usize, 48usize);
    let bindings = || {
        Bindings::new()
            .symbol("N", n as i64)
            .symbol("K", k as i64)
            .array_vec("A", data(n * k, 2))
            .array_vec("B", data(n * k, 3))
            .array_vec("s", vec![0.0, 0.5])
    };
    let out = assert_jit_bitwise(&sdfg, bindings, &["s"]);
    if jit_available() {
        assert_eq!(out.stats().jit_points, (n * k) as u64);
        assert_eq!(out.stats().nest_calls, n as u64, "one span per row");
    }
}

#[test]
fn vm_mirror_span_reads_an_interstate_symbol() {
    let src = r#"
def drift(A: dace.float64[N], T: dace.int64):
    for t in range(T):
        for i in dace.map[0:N]:
            with dace.tasklet:
                a << A[i]
                b >> A[i]
                b = a * 0.5 + t if a > t else a + 1.25
"#;
    let sdfg = parse_program(src).unwrap();
    let (n, t) = (300usize, 6i64);
    let bindings = || {
        Bindings::new()
            .symbol("N", n as i64)
            .symbol("T", t)
            .array_vec("A", data(n, 4))
    };
    let out = assert_jit_bitwise(&sdfg, bindings, &["A"]);
    if jit_available() {
        assert_eq!(out.stats().jit_points, n as u64 * t as u64);
    }
}

#[test]
fn out_of_bounds_last_row_falls_through() {
    // Row `i` reads row `i + 1`: the last row's window lies past the end
    // of `A`. The interpreted tiers read zeros there; the kernel cannot,
    // so that one launch must decline and fall through.
    let mut b = SdfgBuilder::new("shiftrows");
    b.symbol("N");
    b.symbol("M");
    b.array("A", &["N", "M"], DType::F64);
    b.array("B", &["N", "M"], DType::F64);
    let st = b.state("main");
    b.mapped_tasklet(
        st,
        "shift",
        &[("i", "0:N"), ("j", "0:M")],
        &[("a", "A", "i + 1, j")],
        "b = a * 3",
        &[("b", "B", "i, j")],
    );
    let sdfg = b.build_unvalidated();
    let (n, m) = (20usize, 32usize);
    let bindings = || {
        Bindings::new()
            .symbol("N", n as i64)
            .symbol("M", m as i64)
            .array_vec("A", data(n * m, 5))
            .array_vec("B", vec![7.0; n * m])
    };
    let out = assert_jit_bitwise(&sdfg, bindings, &["B"]);
    let last_row = &out.array("B").unwrap()[(n - 1) * m..];
    assert!(last_row.iter().all(|&v| v == 0.0), "zeros past the end");
    if jit_available() {
        // Serial runs launch one span per row; every row but the last is
        // admitted.
        let serial = Session::builder(sdfg.clone())
            .nthreads(1)
            .build()
            .unwrap()
            .run(bindings())
            .unwrap();
        assert_eq!(serial.stats().jit_points, ((n - 1) * m) as u64);
        assert_eq!(serial.stats().tasklet_points, (n * m) as u64);
    }
}

#[test]
fn deadline_bounds_a_collapsed_loop() {
    if !jit_available() {
        return; // no native loop to overrun the budget
    }
    // Cholesky-shaped: a triangular reduction map under a state-machine
    // loop. The whole loop collapses into one native call.
    let src = r#"
def tri(A: dace.float64[N], acc: dace.float64[N]):
    for j in range(N):
        for k in dace.map[0:j]:
            acc[j] += A[k] * A[k]
"#;
    let session = Session::builder(parse_program(src).unwrap())
        .nthreads(1)
        .build()
        .unwrap();
    // Self-calibrating: grow the problem until one warm, un-deadlined run
    // is long enough that a twentieth of it is still a sane budget.
    let mut n = 8192usize;
    let bindings = |n: usize| {
        Bindings::new()
            .symbol("N", n as i64)
            .array_vec("A", data(n, 6))
            .array_vec("acc", vec![0.0; n])
    };
    let full = loop {
        let warm = session.run(bindings(n)).unwrap();
        assert_eq!(warm.stats().nest_calls, 1, "the loop must collapse");
        let t0 = Instant::now();
        session.run(bindings(n)).unwrap();
        let full = t0.elapsed();
        if full >= Duration::from_millis(40) || n >= 1 << 17 {
            break full;
        }
        n *= 2;
    };
    let t0 = Instant::now();
    let err = session
        .run_deadline(bindings(n), full / 20)
        .err()
        .expect("a twentieth of the run time cannot finish the loop");
    let took = t0.elapsed();
    assert_eq!(err.code(), "SDFG-X004", "{err}");
    assert!(
        took < full / 2,
        "deadline {:?} overran: returned after {took:?} of a {full:?} run",
        full / 20
    );
}

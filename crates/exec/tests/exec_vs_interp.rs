//! The executor must agree with the reference interpreter on every program
//! shape it supports — including under parallel execution with WCR.

use proptest::prelude::*;
use sdfg_core::{DType, Schedule, Wcr};
use sdfg_exec::{Bindings, Outputs, Session};
use sdfg_frontend::{parse_program, SdfgBuilder};
use sdfg_interp::Interpreter;

/// Runs `sdfg` once on a fresh session at its defaults.
fn run(sdfg: &sdfg_core::Sdfg, inputs: Bindings) -> Result<Outputs, sdfg_core::SdfgError> {
    Session::builder(sdfg.clone()).build()?.run(inputs)
}

/// Runs both engines on the same inputs and compares every named array
/// bit for bit.
fn assert_equivalent(
    sdfg: &sdfg_core::Sdfg,
    symbols: &[(&str, i64)],
    arrays: &[(&str, Vec<f64>)],
    check: &[&str],
) {
    let mut it = Interpreter::new(sdfg);
    let mut inputs = Bindings::new();
    for (s, v) in symbols {
        it.set_symbol(s, *v);
        inputs = inputs.symbol(s, *v);
    }
    for (n, d) in arrays {
        it.set_array(n, d.clone());
        inputs = inputs.array(n, d);
    }
    it.run().expect("interp runs");
    let out = run(sdfg, inputs).expect("exec runs");
    for name in check {
        let a = it.array(name);
        let b = out.array(name).unwrap();
        assert_eq!(a.len(), b.len(), "{name} length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}[{i}]: interp={x} exec={y}");
        }
    }
}

#[test]
fn elementwise_map() {
    let mut b = SdfgBuilder::new("ew");
    b.symbol("N");
    b.array("A", &["N"], DType::F64);
    b.array("B", &["N"], DType::F64);
    b.array("C", &["N"], DType::F64);
    let st = b.state("main");
    b.mapped_tasklet(
        st,
        "f",
        &[("i", "0:N")],
        &[("a", "A", "i"), ("b", "B", "i")],
        "c = a * 2 + b",
        &[("c", "C", "i")],
    );
    let sdfg = b.build().unwrap();
    let n = 1000;
    assert_equivalent(
        &sdfg,
        &[("N", n)],
        &[
            ("A", (0..n).map(|x| x as f64).collect()),
            ("B", (0..n).map(|x| (x * 3 % 7) as f64).collect()),
            ("C", vec![0.0; n as usize]),
        ],
        &["C"],
    );
}

#[test]
fn dot_product_wcr_parallel() {
    let mut b = SdfgBuilder::new("dot");
    b.symbol("N");
    b.array("A", &["N"], DType::F64);
    b.array("B", &["N"], DType::F64);
    b.array("out", &["1"], DType::F64);
    let st = b.state("main");
    b.mapped_tasklet_wcr(
        st,
        "m",
        &[("i", "0:N")],
        &[("a", "A", "i"), ("b", "B", "i")],
        "o = a * b",
        &[("o", "out", "0", Some(Wcr::Sum))],
        Schedule::CpuMulticore,
    );
    let sdfg = b.build().unwrap();
    let n = 10_000;
    assert_equivalent(
        &sdfg,
        &[("N", n)],
        &[
            ("A", (0..n).map(|x| 1.0 + (x % 7) as f64 * 0.3).collect()),
            ("B", (0..n).map(|x| x as f64 * 0.1).collect()),
            // A seed other than the sum's identity: the reduction must
            // fold onto it in the interpreter's order.
            ("out", vec![0.7]),
        ],
        &["out"],
    );
}

#[test]
fn matmul_wcr() {
    let src = r#"
def mm(A: dace.float64[M, K], B: dace.float64[K, N], C: dace.float64[M, N]):
    for i, j, k in dace.map[0:M, 0:N, 0:K]:
        C[i, j] += A[i, k] * B[k, j]
"#;
    let sdfg = parse_program(src).unwrap();
    let (m, k, n) = (17i64, 23i64, 11i64);
    assert_equivalent(
        &sdfg,
        &[("M", m), ("K", k), ("N", n)],
        &[
            ("A", (0..m * k).map(|x| (x % 13) as f64).collect()),
            ("B", (0..k * n).map(|x| (x % 7) as f64 - 3.0).collect()),
            ("C", vec![0.0; (m * n) as usize]),
        ],
        &["C"],
    );
}

#[test]
fn stencil_with_time_loop() {
    let src = r#"
def laplace(A: dace.float64[2, N], T: dace.int64):
    for t in range(T):
        for i in dace.map[1:N - 1]:
            with dace.tasklet:
                l << A[t % 2, i - 1]
                c << A[t % 2, i]
                r << A[t % 2, i + 1]
                out >> A[(t + 1) % 2, i]
                out = l - 2 * c + r
"#;
    let sdfg = parse_program(src).unwrap();
    let n = 64i64;
    let mut a = vec![0.0; 2 * n as usize];
    for (i, slot) in a.iter_mut().enumerate().take(n as usize) {
        *slot = ((i * 7) % 5) as f64;
    }
    assert_equivalent(&sdfg, &[("N", n), ("T", 6)], &[("A", a)], &["A"]);
}

#[test]
fn branching() {
    let src = r#"
def branchy(A: dace.float64[8], C: dace.int64):
    if C < 5:
        for i in dace.map[0:8]:
            A[i] = A[i] * 2
    else:
        for i in dace.map[0:8]:
            A[i] = A[i] / 2
"#;
    let sdfg = parse_program(src).unwrap();
    for c in [1, 9] {
        assert_equivalent(
            &sdfg,
            &[("C", c)],
            &[("A", (0..8).map(|x| x as f64).collect())],
            &["A"],
        );
    }
}

#[test]
fn histogram_scattered_wcr() {
    // out[bin(a)] += 1 over a 2-D map — the sparse-WCR (write-log) path.
    let mut b = SdfgBuilder::new("hist");
    b.symbol("N");
    b.array("img", &["N", "N"], DType::F64);
    b.array("hist", &["16"], DType::F64);
    let st = b.state("main");
    b.mapped_tasklet_wcr(
        st,
        "h",
        &[("i", "0:N"), ("j", "0:N")],
        &[("a", "img", "i, j")],
        "b = int(a) % 16\nout[int(b)] = 1",
        &[("out", "hist", "0:16", Some(Wcr::Sum))],
        Schedule::CpuMulticore,
    );
    let sdfg = b.build().unwrap();
    let n = 50i64;
    assert_equivalent(
        &sdfg,
        &[("N", n)],
        &[
            ("img", (0..n * n).map(|x| (x % 37) as f64).collect()),
            ("hist", vec![0.0; 16]),
        ],
        &["hist"],
    );
}

#[test]
fn triangular_ranges() {
    let mut b = SdfgBuilder::new("tri");
    b.symbol("N");
    b.array("A", &["N", "N"], DType::F64);
    let st = b.state("main");
    b.mapped_tasklet(
        st,
        "t",
        &[("i", "0:N"), ("j", "0:i + 1")],
        &[("a", "A", "i, j")],
        "o = a + 1",
        &[("o", "A", "i, j")],
    );
    let sdfg = b.build().unwrap();
    assert_equivalent(&sdfg, &[("N", 20)], &[("A", vec![0.0; 400])], &["A"]);
}

#[test]
fn strided_map() {
    let mut b = SdfgBuilder::new("strided");
    b.symbol("N");
    b.array("A", &["N"], DType::F64);
    let st = b.state("main");
    b.mapped_tasklet(
        st,
        "t",
        &[("i", "0:N:3")],
        &[("a", "A", "i")],
        "o = a + 100",
        &[("o", "A", "i")],
    );
    let sdfg = b.build().unwrap();
    assert_equivalent(
        &sdfg,
        &[("N", 32)],
        &[("A", (0..32).map(|x| x as f64).collect())],
        &["A"],
    );
}

/// A WCR output that other chunks of a parallel launch also combine into
/// must stay atomic (or the launch serial): `B[i + j]` meets itself across
/// rows, and so does `B[2*i + j]` once `j` steps by 1024, which its trip
/// count of 2 does not show. Repeated runs at 2 and 8 threads must
/// all equal the interpreter bit for bit.
#[test]
fn wcr_other_chunks_combine_into_stays_atomic() {
    for (src, n, k, m) in [
        (
            "for i, j in dace.map[0:N, 0:N]:\n        B[i + j] += A[i, j]",
            512,
            512,
            1024,
        ),
        (
            "for i, j in dace.map[0:N, 0:2048:1024]:\n        B[2 * i + j] += A[i, 0]",
            8192,
            1,
            17408,
        ),
    ] {
        let src = format!("def p(A: dace.float64[N, K], B: dace.float64[M]):\n    {src}\n");
        let sdfg = parse_program(&src).unwrap();
        let a: Vec<f64> = (0..n * k)
            .map(|k| ((k * 7919) % 1013) as f64 - 500.0)
            .collect();
        let mut it = Interpreter::new(&sdfg);
        it.set_symbol("N", n as i64);
        it.set_symbol("K", k as i64);
        it.set_symbol("M", m as i64);
        it.set_array("A", a.clone());
        it.set_array("B", vec![0.0; m]);
        it.run().unwrap();
        for jit in [false, true] {
            for threads in [1, 2, 8] {
                let session = Session::builder(sdfg.clone())
                    .jit(jit)
                    .nthreads(threads)
                    .build();
                let session = session.unwrap();
                for _ in 0..3 {
                    let inputs = Bindings::new().symbol("N", n as i64).symbol("K", k as i64);
                    let inputs = inputs.symbol("M", m as i64);
                    let inputs = inputs.array("A", &a).array("B", &vec![0.0; m]);
                    let out = session.run(inputs).unwrap();
                    let got = out.array("B").unwrap();
                    let wrong =
                        (it.array("B").iter().zip(got)).filter(|(g, o)| g.to_bits() != o.to_bits());
                    assert_eq!(wrong.count(), 0, "{src} jit={jit} at {threads} threads");
                }
            }
        }
    }
}

#[test]
fn stats_report_native_points() {
    let mut b = SdfgBuilder::new("native");
    b.symbol("N");
    b.array("A", &["N"], DType::F64);
    b.array("B", &["N"], DType::F64);
    b.array("C", &["N"], DType::F64);
    let st = b.state("main");
    b.mapped_tasklet(
        st,
        "add",
        &[("i", "0:N")],
        &[("a", "A", "i"), ("b", "B", "i")],
        "c = a + b",
        &[("c", "C", "i")],
    );
    let sdfg = b.build().unwrap();
    let inputs = || {
        Bindings::new()
            .symbol("N", 4096)
            .array_vec("A", vec![1.0; 4096])
            .array_vec("B", vec![2.0; 4096])
            .array_vec("C", vec![0.0; 4096])
    };
    let out = run(&sdfg, inputs()).unwrap();
    let stats = out.stats();
    assert_eq!(stats.tasklet_points, 4096);
    // A hot, recognized body takes a compiled tier: the JIT when a system
    // C compiler is available, the native micro-kernel otherwise.
    assert_eq!(
        stats.native_points + stats.jit_points,
        4096,
        "simple add must take a compiled path (native or JIT)"
    );
    assert!(out.array("C").unwrap().iter().all(|&v| v == 3.0));

    // With the JIT tier disabled the same map lands on the micro-kernel.
    let session = Session::builder(sdfg.clone()).jit(false).build().unwrap();
    let out = session.run(inputs()).unwrap();
    let stats2 = out.stats();
    assert_eq!(stats2.jit_points, 0, "jit(false) disables the JIT tier");
    assert_eq!(stats2.nest_calls, 0, "jit(false) disables nest sites too");
    assert_eq!(
        stats2.native_points, 4096,
        "simple add must take the native path"
    );
    assert!(out.array("C").unwrap().iter().all(|&v| v == 3.0));
    let report = out.lowering_report();
    assert_eq!(report.len(), 1);
    assert_eq!(report[0].tier, "native");
}

/// `B[i] = A[idx]` for an index that is not affine in `i`: a clamp, a
/// floor division or a modulo. Every tier must read the element the
/// interpreter reads, bit for bit — with the JIT on and off, at 1, 2 and 8
/// threads, cold and with every kernel compiled.
#[test]
fn clamped_indices_match_the_interpreter_bitwise() {
    let n = 4096;
    let a: Vec<f64> = (0..n).map(|x| x as f64 * 0.5 + 1.0).collect();
    for idx in [
        "min(i, 50)",
        "max(i, 4000)",
        "min(i + 1, N - 1)",
        "i // 2",
        "(i * 3) % 7",
    ] {
        let mut b = SdfgBuilder::new("gather");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.array("B", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "gather",
            &[("i", "0:N")],
            &[("a", "A", idx)],
            "b = a",
            &[("b", "B", "i")],
        );
        let sdfg = b.build().unwrap();
        let mut it = Interpreter::new(&sdfg);
        it.set_symbol("N", n as i64);
        it.set_array("A", a.clone());
        it.set_array("B", vec![0.0; n]);
        it.run().expect("interp runs");
        let want = it.array("B").to_vec();
        let bindings = || {
            Bindings::new()
                .symbol("N", n as i64)
                .array_vec("A", a.clone())
                .array_vec("B", vec![0.0; n])
        };
        for jit in [false, true] {
            for nthreads in [1, 2, 8] {
                let session = Session::builder(sdfg.clone())
                    .jit(jit)
                    .nthreads(nthreads)
                    .build()
                    .unwrap();
                let cold = session.run(bindings()).unwrap();
                sdfg_exec::jit::wait_idle();
                let steady = session.run(bindings()).unwrap();
                // The per-point tier runs it, and the JIT names why not.
                let report = steady.lowering_report();
                assert_eq!(report[0].tier, "symbolic", "`A[{idx}]`: {report:?}");
                if jit && sdfg_exec::jit::env_enabled() && sdfg_exec::jit::cc().is_some() {
                    let why = report[0].jit_reason.as_deref().unwrap_or_default();
                    assert!(
                        why.contains("is not affine in iteration variable `i`"),
                        "`A[{idx}]`: {why}"
                    );
                }
                for (when, out) in [("cold", &cold), ("steady", &steady)] {
                    let got = out.array("B").unwrap();
                    let bad = (0..n)
                        .filter(|&k| got[k].to_bits() != want[k].to_bits())
                        .count();
                    assert_eq!(
                        bad, 0,
                        "`B[i] = A[{idx}]`: {bad} of {n} elements differ from the interpreter \
                         (jit {jit}, {nthreads} threads, {when})"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_elementwise_programs_agree(
        n in 1i64..200,
        scale in -5i64..6,
        offset in -10i64..11,
        op in 0usize..4,
    ) {
        let ops = ["c = a * S + b", "c = a - b + S", "c = min(a, b) + S", "c = a * b - S"];
        let code = ops[op].replace('S', &format!("({scale} + {offset})"));
        let mut b = SdfgBuilder::new("rand");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.array("B", &["N"], DType::F64);
        b.array("C", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "f",
            &[("i", "0:N")],
            &[("a", "A", "i"), ("b", "B", "i")],
            &code,
            &[("c", "C", "i")],
        );
        let sdfg = b.build().unwrap();
        let a: Vec<f64> = (0..n).map(|x| ((x * 31 + 7) % 23) as f64).collect();
        let bb: Vec<f64> = (0..n).map(|x| ((x * 17 + 3) % 19) as f64 - 9.0).collect();
        assert_equivalent(
            &sdfg,
            &[("N", n)],
            &[("A", a), ("B", bb), ("C", vec![0.0; n as usize])],
            &["C"],
        );
    }

    #[test]
    fn random_reductions_agree(n in 1i64..500, m in 1i64..20) {
        let mut b = SdfgBuilder::new("red");
        b.symbol("N");
        b.symbol("M");
        b.array("A", &["N", "M"], DType::F64);
        b.array("out", &["M"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet_wcr(
            st,
            "r",
            &[("i", "0:N"), ("j", "0:M")],
            &[("a", "A", "i, j")],
            "o = a",
            &[("o", "out", "j", Some(Wcr::Sum))],
            Schedule::CpuMulticore,
        );
        let sdfg = b.build().unwrap();
        let a: Vec<f64> = (0..n * m).map(|x| ((x % 11) as f64) - 5.0).collect();
        assert_equivalent(
            &sdfg,
            &[("N", n), ("M", m)],
            &[("A", a), ("out", vec![0.0; m as usize])],
            &["out"],
        );
    }
}

/// Builds the query-shaped filter SDFG: map over `col`, push values above
/// `thresh` into a stream through the map exit, then drain the stream into
/// `out` in a second state.
fn filter_stream_sdfg(thresh: f64) -> sdfg_core::Sdfg {
    use sdfg_core::node::MapScope;
    use sdfg_core::{Memlet, Sdfg, Subset};
    use sdfg_symbolic::SymRange;

    let mut sdfg = Sdfg::new("fifo");
    sdfg.add_symbol("N");
    sdfg.add_array("col", &["N"], DType::F64);
    sdfg.add_stream("S", DType::F64);
    sdfg.add_array("out", &["N"], DType::F64);
    let filter = sdfg.add_state("filter");
    {
        let st = sdfg.state_mut(filter);
        let col = st.add_access("col");
        let s_acc = st.add_access("S");
        let (me, mx) = st.add_map(MapScope::new(
            "scan",
            vec!["i".into()],
            vec![SymRange::new(0, "N")],
        ));
        let t = st.add_tasklet(
            "pred",
            &["x"],
            &["S_out"],
            format!("if x > {thresh}:\n    S_out.push(x)"),
        );
        st.add_edge(col, None, me, Some("IN_col"), Memlet::parse("col", "0:N"));
        st.add_edge(me, Some("OUT_col"), t, Some("x"), Memlet::parse("col", "i"));
        st.add_edge(
            t,
            Some("S_out"),
            mx,
            Some("IN_S"),
            Memlet::parse("S", "0").dynamic(),
        );
        st.add_edge(
            mx,
            Some("OUT_S"),
            s_acc,
            None,
            Memlet::parse("S", "0").dynamic(),
        );
    }
    let drain = sdfg.add_state("drain");
    sdfg.add_transition(filter, drain, sdfg_core::sdfg::InterstateEdge::always());
    {
        let st = sdfg.state_mut(drain);
        let s_acc = st.add_access("S");
        let out = st.add_access("out");
        st.add_plain_edge(
            s_acc,
            out,
            Memlet::parse("S", "0")
                .dynamic()
                .with_other_subset(Subset::parse("0:N").unwrap()),
        );
    }
    sdfg.validate().expect("valid filter sdfg");
    sdfg
}

/// Pushes the positive elements of an 8-element `col` into stream `S`,
/// then drains `S` state by state, one drain per entry of `drains`: into
/// `(container, window, dynamic)`. `out` is 1-D and `grid` is 4×4.
fn stream_drains_sdfg(drains: &[(&str, &str, bool)]) -> sdfg_core::Sdfg {
    use sdfg_core::node::MapScope;
    use sdfg_core::{Memlet, Sdfg, Subset};
    use sdfg_symbolic::SymRange;

    let mut sdfg = Sdfg::new("drains");
    sdfg.add_symbol("N");
    sdfg.add_array("col", &["N"], DType::F64);
    sdfg.add_stream("S", DType::F64);
    sdfg.add_array("out", &["N"], DType::F64);
    sdfg.add_array("grid", &["4", "4"], DType::F64);
    let mut prev = sdfg.add_state("filter");
    {
        let st = sdfg.state_mut(prev);
        let col = st.add_access("col");
        let s_acc = st.add_access("S");
        let (me, mx) = st.add_map(MapScope::new(
            "scan",
            vec!["i".into()],
            vec![SymRange::new(0, "N")],
        ));
        let t = st.add_tasklet("pred", &["x"], &["S_out"], "if x > 0:\n    S_out.push(x)");
        st.add_edge(col, None, me, Some("IN_col"), Memlet::parse("col", "0:N"));
        st.add_edge(me, Some("OUT_col"), t, Some("x"), Memlet::parse("col", "i"));
        let push = || Memlet::parse("S", "0").dynamic();
        st.add_edge(t, Some("S_out"), mx, Some("IN_S"), push());
        st.add_edge(mx, Some("OUT_S"), s_acc, None, push());
    }
    for (k, &(dst, window, dynamic)) in drains.iter().enumerate() {
        let next = sdfg.add_state(format!("drain{k}"));
        sdfg.add_transition(prev, next, sdfg_core::sdfg::InterstateEdge::always());
        let st = sdfg.state_mut(next);
        let s_acc = st.add_access("S");
        let to = st.add_access(dst);
        let mut m = Memlet::parse("S", "0").with_other_subset(Subset::parse(window).unwrap());
        if dynamic {
            m = m.dynamic();
        }
        st.add_plain_edge(s_acc, to, m);
        prev = next;
    }
    sdfg.validate().expect("valid drain sdfg");
    sdfg
}

/// A drain that finds fewer values than its window fills the window's
/// first elements in its iteration order, wherever the window starts and
/// whatever its rank; values a drain does not take stay queued for the
/// next. The interpreter gives the expected values, and the executor its
/// bits. `col` matches 1, 2, 3 and 4; -9 marks an untouched element.
#[test]
fn partial_drains_fill_the_window_in_order() {
    let col = [1.0, -1.0, 2.0, -1.0, 3.0, -1.0, 4.0, -1.0];
    let u = -9.0;
    type Case = (
        &'static str,
        Vec<(&'static str, &'static str, bool)>,
        [f64; 8],
        [f64; 16],
    );
    let cases: Vec<Case> = vec![
        (
            "offset window",
            vec![("out", "2:N", true)],
            [u, u, 1.0, 2.0, 3.0, 4.0, u, u],
            [u; 16],
        ),
        (
            "2-D window",
            vec![("grid", "1:3, 1:4", true)],
            [u; 8],
            [u, u, u, u, u, 1.0, 2.0, 3.0, u, 4.0, u, u, u, u, u, u],
        ),
        (
            "full drain",
            vec![("out", "3:7", true)],
            [u, u, u, 1.0, 2.0, 3.0, 4.0, u],
            [u; 16],
        ),
        (
            "non-dynamic underflow",
            vec![("out", "2:N", false)],
            [u, u, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0],
            [u; 16],
        ),
        (
            "leftovers stay queued",
            vec![("out", "1:3", true), ("grid", "2, 0:4", true)],
            [u, 1.0, 2.0, u, u, u, u, u],
            [u, u, u, u, u, u, u, u, 3.0, 4.0, u, u, u, u, u, u],
        ),
    ];
    for (what, drains, want_out, want_grid) in cases {
        let sdfg = stream_drains_sdfg(&drains);
        let mut it = Interpreter::new(&sdfg);
        it.set_symbol("N", 8);
        it.set_array("col", col.to_vec());
        it.set_array("out", vec![u; 8]);
        it.set_array("grid", vec![u; 16]);
        it.run().expect("interp runs");
        assert_eq!(it.array("out"), &want_out[..], "{what}: interpreter `out`");
        assert_eq!(
            it.array("grid"),
            &want_grid[..],
            "{what}: interpreter `grid`"
        );
        assert_equivalent(
            &sdfg,
            &[("N", 8)],
            &[
                ("col", col.to_vec()),
                ("out", vec![u; 8]),
                ("grid", vec![u; 16]),
            ],
            &["out", "grid"],
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stream FIFO semantics: pushes from a sequential map arrive in map
    /// order, and the drain preserves it — on both engines, matching a
    /// plain `filter`.
    #[test]
    fn stream_filter_preserves_fifo_order(
        data in proptest::collection::vec(-8i64..8, 1..120),
        thresh in -4i64..4,
    ) {
        let sdfg = filter_stream_sdfg(thresh as f64);
        let n = data.len();
        let col: Vec<f64> = data.iter().map(|&x| x as f64).collect();
        let expect: Vec<f64> =
            col.iter().copied().filter(|&x| x > thresh as f64).collect();

        for engine in ["interp", "exec"] {
            let got: Vec<f64> = if engine == "interp" {
                let mut it = Interpreter::new(&sdfg);
                it.set_symbol("N", n as i64);
                it.set_array("col", col.clone());
                it.set_array("out", vec![f64::NAN; n]);
                it.run().expect("interp runs");
                it.array("out").to_vec()
            } else {
                let inputs = Bindings::new()
                    .symbol("N", n as i64)
                    .array("col", &col)
                    .array_vec("out", vec![f64::NAN; n]);
                let mut out = run(&sdfg, inputs).expect("exec runs");
                out.take_array("out").unwrap()
            };
            // Drained prefix is exactly the filtered values, in order.
            for (i, want) in expect.iter().enumerate() {
                prop_assert_eq!(got[i], *want, "{}: out[{}]", engine, i);
            }
            // Elements past the drained prefix are untouched.
            for (i, v) in got.iter().enumerate().skip(expect.len()) {
                prop_assert!(v.is_nan(), "{}: out[{}] overwritten to {}", engine, i, v);
            }
        }
    }
}

#[test]
fn try_array_is_total_and_missing_arrays_get_a_stable_code() {
    let mut b = SdfgBuilder::new("vecadd");
    b.symbol("N");
    b.array("A", &["N"], DType::F64);
    b.array("B", &["N"], DType::F64);
    b.array("C", &["N"], DType::F64);
    let st = b.state("main");
    b.mapped_tasklet(
        st,
        "add",
        &[("i", "0:N")],
        &[("a", "A", "i"), ("b", "B", "i")],
        "c = a + b",
        &[("c", "C", "i")],
    );
    let sdfg = b.build().unwrap();
    let inputs = Bindings::new()
        .symbol("N", 4)
        .array_vec("A", vec![1.0; 4])
        .array_vec("B", vec![2.0; 4])
        .array_vec("C", vec![0.0; 4]);
    let out = run(&sdfg, inputs).expect("exec runs");
    assert_eq!(out.array("C").ok(), Some(&[3.0, 3.0, 3.0, 3.0][..]));
    assert!(out.array("nope").is_err());

    // A run that dereferences an unprovided container surfaces the
    // dedicated stable code at the SdfgError boundary.
    let inputs = Bindings::new().symbol("N", 4).array_vec("A", vec![1.0; 4]);
    let boundary = run(&sdfg, inputs)
        .err()
        .expect("missing arrays must not run");
    assert_eq!(boundary.code(), "SDFG-X002");
    assert!(boundary.to_string().contains("unknown data container"));
}

/// A parameter point deeper than the tiers' inline snapshot (24 entries):
/// 24 single-iteration parameters stacked over the one that varies. Every
/// interpreted tier — native loop, affine VM loop, per-point windows —
/// must still see the innermost parameter's coefficient.
#[test]
fn deep_parameter_stacks() {
    let mut ranges: Vec<(String, &str)> = (0..24).map(|d| (format!("p{d}"), "0:1")).collect();
    ranges.push(("q".to_string(), "1:5"));
    let ranges: Vec<(&str, &str)> = ranges.iter().map(|(p, r)| (p.as_str(), *r)).collect();
    let mut b = SdfgBuilder::new("deep");
    b.array("A", &["8"], DType::F64);
    for out in ["C", "D", "E"] {
        b.array(out, &["8"], DType::F64);
    }
    let st = b.state("main");
    // Native copy, affine-VM body, and a two-element window per point.
    b.mapped_tasklet(
        st,
        "copy",
        &ranges,
        &[("a", "A", "q")],
        "c = a",
        &[("c", "C", "q")],
    );
    b.mapped_tasklet(
        st,
        "vm",
        &ranges,
        &[("a", "A", "q")],
        "d = a * 2 if a > 3 else a - 1",
        &[("d", "D", "q")],
    );
    b.mapped_tasklet(
        st,
        "window",
        &ranges,
        &[("w", "A", "q - 1:q + 1")],
        "e = w[0] + 10 * w[1]",
        &[("e", "E", "q")],
    );
    let sdfg = b.build().unwrap();
    let a: Vec<f64> = (0..8).map(|i| (i * i) as f64).collect();
    let zeros = vec![0.0; 8];
    assert_equivalent(
        &sdfg,
        &[],
        &[
            ("A", a),
            ("C", zeros.clone()),
            ("D", zeros.clone()),
            ("E", zeros),
        ],
        &["C", "D", "E"],
    );
}

fn jit_available() -> bool {
    sdfg_exec::jit::env_enabled() && sdfg_exec::jit::cc().is_some()
}

/// Runs `w` with the JIT warm — once, then again after
/// `jit::wait_idle()` — at 1, 2 and 8 threads, compares every checked
/// array bit for bit with the interpreter, and returns the warm runs'
/// stats.
fn assert_warm_bitwise(w: &sdfg_workloads::Workload) -> Vec<sdfg_exec::Stats> {
    let want = w.run_interp().expect("interp runs");
    let mut stats = Vec::new();
    for threads in [1, 2, 8] {
        let session = w.session().jit(true).nthreads(threads).build().unwrap();
        session.run(w.bindings()).unwrap();
        sdfg_exec::jit::wait_idle();
        let out = session.run(w.bindings()).unwrap();
        for name in &w.check {
            let got = out.array(name).unwrap();
            let bad = (want[name].iter().zip(got)).filter(|(g, o)| g.to_bits() != o.to_bits());
            assert_eq!(bad.count(), 0, "{}: `{name}` at {threads} threads", w.name);
        }
        stats.push(out.stats().clone());
    }
    stats
}

/// Reductions that read their own container fold in a register where
/// every such read misses the written element over the reduction's range
/// (cholesky's `A[i, j] += -A[i, k] * A[j, k]` over `0:j`, the triangular
/// solves' `x[i] += -L[i, j] * x[j]` over `0:i`), and combine per point
/// where one may not: with the JIT warm, every one stays bitwise equal to
/// the interpreter. So does the near miss `x[i] += x[k]` over `0:i + 1`,
/// whose last point reads what the earlier ones combined.
#[test]
fn self_reading_reductions_match_the_interpreter_warm() {
    use sdfg_workloads::polybench::by_name;
    for (name, n) in [
        ("cholesky", 40),
        ("trisolv", 64),
        ("lu", 40),
        ("ludcmp", 40),
        ("nussinov", 30),
    ] {
        assert_warm_bitwise(&(by_name(name).unwrap().build)(n));
    }
    let src = "def p(x: dace.float64[N]):\n    for i in range(N):\n        \
               for k in dace.map[0:i + 1]:\n            x[i] += x[k]\n";
    let n = 40;
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 7919) % 13) as f64 * 0.1 - 0.6)
        .collect();
    let w = sdfg_workloads::Workload::new("near_miss", parse_program(src).unwrap())
        .symbol("N", n as i64)
        .array("x", x)
        .check("x");
    let stats = assert_warm_bitwise(&w);
    if jit_available() {
        assert!(stats[0].jit_points > 0, "the near miss runs on its kernel");
    }
}

/// ludcmp's update `A[i, j] += -A[i, k] * A[k, j]` over `[k + 1, N)²`:
/// the write's dimension 0 is `i` alone, so rows of a parallel launch
/// never combine into one element and its combines need not be atomic,
/// though `j`'s span is only known per launch. Repeated runs at 2 and 8
/// threads equal the interpreter bit for bit.
#[test]
fn wcr_rows_distinct_in_one_dimension_match_the_interpreter() {
    let src = "def p(A: dace.float64[N, N]):\n    for k in range(N):\n        \
               for i, j in dace.map[k + 1:N, k + 1:N]:\n            \
               A[i, j] += -A[i, k] * A[k, j]\n";
    let sdfg = parse_program(src).unwrap();
    let n = 48usize;
    let a: Vec<f64> = (0..n * n)
        .map(|k| ((k * 7919) % 1013) as f64 / 4096.0 - 0.125)
        .collect();
    let mut it = Interpreter::new(&sdfg);
    it.set_symbol("N", n as i64);
    it.set_array("A", a.clone());
    it.run().unwrap();
    for jit in [false, true] {
        for threads in [2, 8] {
            let session = Session::builder(sdfg.clone())
                .jit(jit)
                .nthreads(threads)
                .build()
                .unwrap();
            for _ in 0..3 {
                let out = session
                    .run(Bindings::new().symbol("N", n as i64).array("A", &a))
                    .unwrap();
                let got = out.array("A").unwrap();
                let wrong =
                    (it.array("A").iter().zip(got)).filter(|(g, o)| g.to_bits() != o.to_bits());
                assert_eq!(wrong.count(), 0, "jit={jit} at {threads} threads");
                sdfg_exec::jit::wait_idle();
            }
        }
    }
}

/// durbin's three `0:k` maps and four point tasklets run inside its `k`
/// loop, which collapses once its kernel has loaded: a warm run puts every
/// tasklet point — the maps' `3·(n − 1)·n / 2` and four per iteration — on
/// the JIT and none on the micro-kernels.
#[test]
fn a_loaded_kernel_serves_the_cold_launches() {
    let n = 300;
    let w = (sdfg_workloads::polybench::by_name("durbin").unwrap().build)(n);
    for s in assert_warm_bitwise(&w) {
        if jit_available() {
            assert_eq!(s.native_points, 0);
            let points = 3 * (n as u64 - 1) * n as u64 / 2 + 4 * (n as u64 - 1);
            assert_eq!(s.jit_points, points);
        }
    }
}

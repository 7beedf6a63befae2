//! The executor must agree with the reference interpreter on every program
//! shape it supports — including under parallel execution with WCR.

use proptest::prelude::*;
use sdfg_core::{DType, Schedule, Wcr};
use sdfg_exec::{Bindings, Executor, Session};
use sdfg_frontend::{parse_program, SdfgBuilder};
use sdfg_interp::Interpreter;

/// Runs both engines on the same inputs and compares every named array
/// bit for bit.
fn assert_equivalent(
    sdfg: &sdfg_core::Sdfg,
    symbols: &[(&str, i64)],
    arrays: &[(&str, Vec<f64>)],
    check: &[&str],
) {
    let mut it = Interpreter::new(sdfg);
    let mut ex = Executor::new(sdfg);
    for (s, v) in symbols {
        it.set_symbol(s, *v);
        ex.set_symbol(s, *v);
    }
    for (n, d) in arrays {
        it.set_array(n, d.clone());
        ex.set_array(n, d.clone());
    }
    it.run().expect("interp runs");
    ex.run().expect("exec runs");
    for name in check {
        let a = it.array(name);
        let b = ex.array(name);
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
    let mut ex = Executor::new(&sdfg);
    ex.set_symbol("N", 4096);
    ex.set_array("A", vec![1.0; 4096]);
    ex.set_array("B", vec![2.0; 4096]);
    ex.set_array("C", vec![0.0; 4096]);
    let stats = ex.run().unwrap();
    assert_eq!(stats.tasklet_points, 4096);
    // A hot, recognized body takes a compiled tier: the JIT when a system
    // C compiler is available, the native micro-kernel otherwise.
    assert_eq!(
        stats.native_points + stats.jit_points,
        4096,
        "simple add must take a compiled path (native or JIT)"
    );
    assert!(ex.array("C").iter().all(|&v| v == 3.0));

    // With the JIT tier disabled the same map lands on the micro-kernel.
    let session = Session::builder(sdfg.clone()).jit(false).build().unwrap();
    let out = session
        .run(
            Bindings::new()
                .symbol("N", 4096)
                .array_vec("A", vec![1.0; 4096])
                .array_vec("B", vec![2.0; 4096])
                .array_vec("C", vec![0.0; 4096]),
        )
        .unwrap();
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
                let mut ex = Executor::new(&sdfg);
                ex.set_symbol("N", n as i64);
                ex.set_array("col", col.clone());
                ex.set_array("out", vec![f64::NAN; n]);
                ex.run().expect("exec runs");
                ex.array("out").to_vec()
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
    let mut ex = Executor::new(&sdfg);
    ex.set_symbol("N", 4);
    ex.set_array("A", vec![1.0; 4]);
    ex.set_array("B", vec![2.0; 4]);
    ex.set_array("C", vec![0.0; 4]);
    ex.run().expect("exec runs");
    assert_eq!(ex.try_array("C"), Some(&[3.0, 3.0, 3.0, 3.0][..]));
    assert_eq!(ex.try_array("nope"), None);

    // A run that dereferences an unprovided container surfaces the
    // dedicated stable code at the SdfgError boundary.
    let mut ex = Executor::new(&sdfg);
    ex.set_symbol("N", 4);
    ex.set_array("A", vec![1.0; 4]);
    let err = ex.run().expect_err("missing arrays must not run");
    let boundary: sdfg_core::SdfgError = err.into();
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

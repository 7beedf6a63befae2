//! Dense nests: strip-accumulated reductions, whole-nest double-buffered
//! stencils and the race predicate that licenses parallel tiles.
//!
//! Every case runs at 1, 2 and 8 threads with the JIT off, cold (kernels
//! compiling in the background) and steady (every kernel compiled), and
//! each run is compared bitwise against the reference interpreter. Without a system C compiler (or under `SDFG_JIT=off`)
//! the JIT sessions run the interpreted tiers, the comparisons hold
//! trivially and the count assertions are skipped.

use sdfg_codegen::jit::{
    emit_nest_kernel, JitOutMode, JitWcrOp, NestItem, NestOut, NestSpec, NestTasklet,
};
use sdfg_core::{DType, Memlet, Schedule, Sdfg, Wcr};
use sdfg_exec::{Bindings, OptLevel, Outputs, Session, Stats};
use sdfg_frontend::{parse_program, SdfgBuilder};
use sdfg_interp::Interpreter;
use sdfg_lang::TaskletProgram;
use sdfg_workloads::kernels;

fn jit_available() -> bool {
    sdfg_exec::jit::env_enabled() && sdfg_exec::jit::cc().is_some()
}

fn data(n: usize, seed: u64) -> Vec<f64> {
    (0..n as u64)
        .map(|i| ((i * 37 + seed * 11) % 23) as f64 * 0.25 - 2.0)
        .collect()
}

/// A program with its inputs and the arrays whose bits are compared.
struct Case {
    sdfg: Sdfg,
    symbols: Vec<(&'static str, i64)>,
    arrays: Vec<(&'static str, Vec<f64>)>,
    check: Vec<&'static str>,
    opt: OptLevel,
}

impl Case {
    fn new(sdfg: Sdfg, symbols: &[(&'static str, i64)], check: &[&'static str]) -> Case {
        Case {
            sdfg,
            symbols: symbols.to_vec(),
            arrays: Vec::new(),
            check: check.to_vec(),
            opt: OptLevel::None,
        }
    }

    fn array(mut self, name: &'static str, data: Vec<f64>) -> Case {
        self.arrays.push((name, data));
        self
    }

    fn bindings(&self) -> Bindings {
        let mut b = Bindings::new();
        for (s, v) in &self.symbols {
            b = b.symbol(s, *v);
        }
        for (n, d) in &self.arrays {
            b = b.array(n, d);
        }
        b
    }

    fn session(&self, jit: bool, nthreads: usize) -> Session {
        Session::builder(self.sdfg.clone())
            .opt_level(self.opt)
            .jit(jit)
            .nthreads(nthreads)
            .build()
            .expect("session")
    }

    fn interpret(&self) -> Vec<Vec<f64>> {
        let mut it = Interpreter::new(&self.sdfg);
        for (s, v) in &self.symbols {
            it.set_symbol(s, *v);
        }
        for (n, d) in &self.arrays {
            it.set_array(n, d.clone());
        }
        it.run().expect("interpreter runs");
        self.check.iter().map(|n| it.array(n).to_vec()).collect()
    }

    /// Asserts every configuration matches the interpreter bit for bit and
    /// returns, per thread count, the first `jit(false)` run's stats and
    /// the steady JIT run's.
    fn assert_bitwise(&self) -> Vec<(usize, Stats, Outputs)> {
        let want = self.interpret();
        let mut out = Vec::new();
        for nthreads in [1, 2, 8] {
            let off = self
                .session(false, nthreads)
                .run(self.bindings())
                .expect("run");
            assert_eq!(off.stats().jit_points, 0);
            let on = self.session(true, nthreads);
            let cold = on.run(self.bindings()).expect("cold run");
            sdfg_exec::jit::wait_idle();
            let steady = on.run(self.bindings()).expect("steady run");
            for (when, o) in [("jit(false)", &off), ("cold", &cold), ("steady", &steady)] {
                for (name, want) in self.check.iter().zip(&want) {
                    let got = o.array(name).unwrap();
                    assert_eq!(got.len(), want.len(), "{name} length");
                    let bad: Vec<usize> = (0..got.len())
                        .filter(|&i| got[i].to_bits() != want[i].to_bits())
                        .collect();
                    assert!(
                        bad.is_empty(),
                        "{}: {} elements of {name} differ from the oracle at {nthreads} \
                         threads ({when}), first at {}: {} vs {}",
                        self.sdfg.name,
                        bad.len(),
                        bad[0],
                        got[bad[0]],
                        want[bad[0]]
                    );
                }
            }
            out.push((nthreads, off.stats().clone(), steady));
        }
        out
    }
}

// --- strip-accumulated reductions --------------------------------------------

/// `C[i, j] op= A[i, k] * B[b_idx]` over `[0:M, 0:N, k_range]`. With
/// `T`, the map is Sequential and sits in a `for t in range(T)` loop the
/// executor collapses into one native call (deterministic at every thread
/// count); without, it is a parallel map whose tiles run the kernel.
fn gemm(op: Wcr, a_idx: &str, b_idx: &str, k_range: &str, looped: bool) -> Sdfg {
    let mut b = SdfgBuilder::new("gemm");
    for s in ["M", "N", "K"] {
        b.symbol(s);
    }
    b.array("A", &["M", "K"], DType::F64);
    b.array("B", &["K", "N"], DType::F64);
    b.array("Bt", &["N", "K"], DType::F64);
    b.array("C", &["M", "N"], DType::F64);
    b.array("Q", &["M", "M"], DType::F64);
    let st = b.state("main");
    let (a_data, a_sub) = a_idx.split_once(':').unwrap();
    let (b_data, b_sub) = b_idx.split_once(':').unwrap();
    let out = if a_data == "Q" { "Q" } else { "C" };
    b.mapped_tasklet_wcr(
        st,
        "mm",
        &[("i", "0:M"), ("j", "0:N"), ("k", k_range)],
        &[("a", a_data, a_sub), ("b", b_data, b_sub)],
        "o = a * b",
        &[("o", out, "i, j", Some(op))],
        if looped {
            Schedule::Sequential
        } else {
            Schedule::CpuMulticore
        },
    );
    if looped {
        b.symbol("T");
        b.add_loop(st, "t", "0", "t < T", "1");
    }
    b.build().expect("valid gemm")
}

/// A gemm case. The output starts from data, not the reduction's
/// identity: register accumulation must seed from it as the interpreter's
/// per-point combine does.
fn gemm_case(
    op: Wcr,
    b_idx: &str,
    k_range: &str,
    looped: bool,
    (m, n, k): (i64, i64, i64),
) -> Case {
    let sdfg = gemm(op.clone(), "A:i, k", b_idx, k_range, looped);
    let (mu, nu, ku) = (m as usize, n as usize, k as usize);
    Case::new(sdfg, &[("M", m), ("N", n), ("K", k), ("T", 1)], &["C"])
        .array("A", data(mu * ku, 1))
        .array("B", data(ku * nu, 2))
        .array("Bt", data(nu * ku, 3))
        .array("C", data(mu * nu, 6))
        .array("Q", vec![0.0; mu * mu])
}

#[test]
fn strip_extents_match_bitwise() {
    // The strip dimension `j` below, at, around and far past one strip.
    for n in [1, 15, 16, 17, 200] {
        for looped in [true, false] {
            let case = gemm_case(Wcr::Sum, "B:k, j", "0:K", looped, (24, n, 40));
            let runs = case.assert_bitwise();
            if jit_available() && looped {
                for (_, _, steady) in &runs {
                    let st = steady.stats();
                    assert_eq!(st.jit_points, (24 * n * 40) as u64, "N={n}");
                    assert_eq!(st.nest_calls, 1, "N={n}: the loop collapses");
                }
            }
        }
    }
}

#[test]
fn strip_reductions_of_every_operator() {
    for op in [Wcr::Sum, Wcr::Product, Wcr::Min, Wcr::Max] {
        for looped in [true, false] {
            gemm_case(op.clone(), "B:k, j", "0:K", looped, (20, 37, 9)).assert_bitwise();
        }
    }
}

#[test]
fn strip_declines_non_unit_strides_and_dependent_bounds() {
    for looped in [true, false] {
        // Transposed `B`: stride K along the strip dimension.
        gemm_case(Wcr::Sum, "Bt:j, k", "0:K", looped, (20, 40, 24)).assert_bitwise();
        // Triangular: the reduction bounds read the strip dimension.
        gemm_case(Wcr::Sum, "B:k, j", "0:j", looped, (20, 40, 40)).assert_bitwise();
        gemm_case(Wcr::Sum, "B:k, j", "j:K", looped, (20, 40, 40)).assert_bitwise();
        // An empty reduction range: no combine at all.
        let case = gemm_case(Wcr::Sum, "B:k, j", "0:K", looped, (20, 40, 0));
        let runs = case.assert_bitwise();
        assert_eq!(runs[0].2.array("C").unwrap(), &data(20 * 40, 6)[..]);
    }
}

#[test]
fn strip_declines_when_the_output_is_also_read() {
    // `Q[i, j] += Q[i, k] * B[k, j]`: at `k = j` a point reads the element
    // the earlier points combined into, so neither the strip nor any
    // register accumulation keeps the order — every point combines into
    // memory. The race predicate keeps the parallel map serial.
    let (m, k) = (24usize, 24usize);
    for looped in [true, false] {
        let sdfg = gemm(Wcr::Sum, "Q:i, k", "B:k, j", "0:K", looped);
        let case = Case::new(sdfg, &[("M", 24), ("N", 24), ("K", 24), ("T", 1)], &["Q"])
            .array("A", vec![0.0; m * k])
            .array("B", data(k * m, 4))
            .array("Bt", vec![0.0; m * k])
            .array("C", vec![0.0; m * m])
            .array("Q", data(m * m, 5));
        for (_, _, steady) in case.assert_bitwise() {
            if jit_available() && looped {
                assert_eq!(steady.stats().jit_points, (m * m * k) as u64);
            }
        }
    }
}

/// A gemm-shaped kernel as the nest builder emits it (ports `A`, `B`,
/// `C`; the strip dimension `j` is dim 1).
fn gemm_spec(body: &TaskletProgram) -> NestSpec<'_> {
    NestSpec {
        ndims: 3,
        nports: 3,
        tasklets: vec![NestTasklet {
            prog: body,
            ins: vec![0, 1],
            outs: vec![NestOut {
                port: 2,
                mode: JitOutMode::Accumulate(JitWcrOp::Sum),
            }],
        }],
        body: vec![NestItem::Loop {
            dim: 1,
            step: 1,
            body: vec![NestItem::Loop {
                dim: 2,
                step: 1,
                body: vec![NestItem::Call(0)],
            }],
        }],
        reads: vec![vec![0, 2], vec![1, 2], vec![0, 1]],
        ..Default::default()
    }
}

#[test]
fn strip_loop_is_vectorised() {
    let Some(cc) = sdfg_exec::jit::cc() else {
        eprintln!("skipping: no C compiler");
        return;
    };
    let mul = TaskletProgram::compile("o = a * b", &["a".into(), "b".into()], &["o".into()])
        .expect("gemm body compiles");
    let src = emit_nest_kernel(&gemm_spec(&mul)).unwrap();
    let dir = std::env::temp_dir().join(format!("sdfg-strip-vec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let c = dir.join("gemm.c");
    std::fs::write(&c, &src).unwrap();
    let res = std::process::Command::new(&cc.path)
        .args(sdfg_exec::jit::CFLAGS)
        .arg("-fopt-info-vec-optimized")
        .arg(&c)
        .arg("-o")
        .arg(dir.join("gemm.so"))
        .output()
        .expect("cc runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        res.status.success(),
        "{}",
        String::from_utf8_lossy(&res.stderr)
    );
    let report = String::from_utf8_lossy(&res.stderr);
    // The strip's inner loop: `for (int w = 0; ...)` holding `r1[w]`.
    let line = src
        .lines()
        .position(|l| l.contains("const double v1 = r1[w];"))
        .expect("strip form emitted");
    let want = format!("gemm.c:{line}:");
    assert!(
        report
            .lines()
            .any(|l| l.contains(&want) && l.contains("loop vectorized")),
        "strip loop (line {line}) not vectorised:\n{report}"
    );
}

// --- whole-nest double-buffered stencils -------------------------------------

#[test]
fn jacobi2d_runs_one_call_per_tile() {
    // Large enough that every launch at 2 threads is worth tiling.
    let w = kernels::jacobi2d(256, 4);
    let mut case = Case::new(w.sdfg.clone(), &[("N", 256), ("T", 4)], &["A"]);
    case.arrays.push(("A", w.arrays["A"].clone()));
    case.opt = OptLevel::Aggressive;
    let runs = case.assert_bitwise();
    if !jit_available() {
        return;
    }
    let (_, _, steady) = &runs[1];
    let st = steady.stats();
    assert_eq!(st.jit_points, 254 * 254 * 4);
    assert!(st.sched_tiles > 0, "2 threads tile the stencil");
    assert_eq!(st.nest_calls, st.sched_tiles, "one native call per tile");
}

/// Reads the ledger lines a run of `f` appends. The ledger path is
/// process-wide, so one caller at a time.
fn ledger_of(f: impl FnOnce()) -> String {
    static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let dir = std::env::temp_dir().join(format!("sdfg-dense-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ledger.jsonl");
    sdfg_profile::ledger::set_path(Some(&path));
    f();
    sdfg_profile::ledger::set_path(None);
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    text
}

#[test]
fn collapsed_loop_declines_an_index_its_variable_steps() {
    // `t % 2` is a launch-time constant to a map launched once per `t`,
    // but the collapsed loop's kernel steps `t` itself.
    let mut b = SdfgBuilder::new("pingpong");
    b.symbol("N");
    b.symbol("T");
    b.array("A", &["2", "N"], DType::F64);
    let st = b.state("sweep");
    b.mapped_tasklet_wcr(
        st,
        "halve",
        &[("i", "0:N")],
        &[("a", "A", "t % 2, i")],
        "b = a * 0.5 + 1",
        &[("b", "A", "(t + 1) % 2, i", None)],
        Schedule::Sequential,
    );
    b.add_loop(st, "t", "0", "t < T", "1");
    let sdfg = b.build().expect("valid");
    let case = Case::new(sdfg, &[("N", 300), ("T", 5)], &["A"]).array("A", data(600, 7));
    let text = ledger_of(|| {
        case.assert_bitwise();
    });
    if jit_available() {
        assert!(
            text.lines().any(|l| l.contains("\"map\":\"loop@t_guard\"")
                && l.contains("index `t % 2` is not affine in iteration variable `t`")),
            "no decline recorded:\n{text}"
        );
    }
}

#[test]
fn collapsed_loop_declines_a_step_that_is_not_one() {
    // `t = t + 1 + t // 8` steps by one only while `t < 8`: the loop site
    // must decline rather than run every row below `T`.
    let mut b = SdfgBuilder::new("skipping");
    b.symbol("N");
    b.symbol("T");
    b.array("A", &["N"], DType::F64);
    b.array("B", &["T"], DType::F64);
    let st = b.state("sweep");
    b.mapped_tasklet_wcr(
        st,
        "rowsum",
        &[("i", "0:N")],
        &[("a", "A", "i")],
        "b = a",
        &[("b", "B", "t", Some(Wcr::Sum))],
        Schedule::Sequential,
    );
    b.add_loop(st, "t", "0", "t < T", "1 + t // 8");
    let sdfg = b.build().expect("valid");
    let case = Case::new(sdfg, &[("N", 64), ("T", 40)], &["B"])
        .array("A", data(64, 5))
        .array("B", vec![0.0; 40]);
    let text = ledger_of(|| {
        case.assert_bitwise();
    });
    if jit_available() {
        assert!(
            text.lines().any(|l| l.contains("\"map\":\"loop@t_guard\"")
                && l.contains("nest-nonaffine-bounds")
                && l.contains("non-unit loop increment")),
            "no decline recorded:\n{text}"
        );
    }
}

// --- collapsed loop shapes -----------------------------------------------------

/// Runs `case` bitwise (see [`Case::assert_bitwise`]) and asserts its
/// steady runs execute the whole loop — every tasklet point — in one
/// native call, at every thread count.
fn assert_collapses(case: &Case) {
    for (nthreads, _, steady) in case.assert_bitwise() {
        if jit_available() {
            let st = steady.stats();
            let what = format!("{} at {nthreads} threads", case.sdfg.name);
            assert_eq!(st.nest_calls, 1, "{what}: the loop collapses");
            assert_eq!(
                st.jit_points, st.tasklet_points,
                "{what}: every point native"
            );
            assert_eq!(st.parallel_regions, 0, "{what}");
        }
    }
}

/// Runs `case` bitwise and asserts the ledger records the decline of the
/// loop headed by `guard` with a detail containing `why`. Returns the
/// per-thread-count runs.
fn assert_loop_declines(case: &Case, guard: &str, why: &str) -> Vec<(usize, Stats, Outputs)> {
    let mut runs = Vec::new();
    let text = ledger_of(|| runs = case.assert_bitwise());
    if jit_available() {
        let map = format!("\"map\":\"loop@{guard}\"");
        assert!(
            text.lines().any(|l| l.contains(&map) && l.contains(why)),
            "{}: no `{why}` decline of {guard}:\n{text}",
            case.sdfg.name
        );
    }
    runs
}

/// A backward substitution `x[i] = (x[i] − Σ_{j>i} L[i, j]·x[j]) / L[i, i]`
/// over `i` from `N − 1` down to 0 on `step`.
fn backward(step: i64) -> Case {
    let src = format!(
        "def backward(L: dace.float64[N, N], x: dace.float64[N]):\n    \
         for i in range(N - 1, -1, {step}):\n        \
         for j in dace.map[i + 1:N]:\n            \
         x[i] += -L[i, j] * x[j]\n        \
         x[i] = x[i] / L[i, i]\n"
    );
    let n = 96;
    let l = data(n * n, 3).iter().map(|v| v + 4.0).collect();
    Case::new(parse_program(&src).unwrap(), &[("N", n as i64)], &["x"])
        .array("L", l)
        .array("x", data(n, 4))
}

#[test]
fn downward_loops_collapse() {
    // Iterations read what the later indices wrote: only the downward
    // order gives the interpreter's bits.
    assert_collapses(&backward(-1));
    assert_collapses(&backward(-3));
}

#[test]
fn a_branch_with_two_arms_collapses() {
    let src = r#"
def branchy(A: dace.float64[N], B: dace.float64[N]):
    for i in range(N):
        if 2 * i < N:
            B[i] = A[i] * 2.0
        else:
            B[i] = B[i] + A[N - 1 - i]
"#;
    let n = 77;
    let case = Case::new(parse_program(src).unwrap(), &[("N", n)], &["B"])
        .array("A", data(n as usize, 5))
        .array("B", data(n as usize, 6));
    assert_collapses(&case);
}

#[test]
fn a_nested_triangular_loop_collapses() {
    let src = r#"
def tri(A: dace.float64[N, N], s: dace.float64[N]):
    for i in range(N):
        for j in range(i + 1):
            s[i] = s[i] * 0.5 + A[i, j]
"#;
    let n = 64;
    let case = Case::new(parse_program(src).unwrap(), &[("N", n)], &["s"])
        .array("A", data((n * n) as usize, 7))
        .array("s", data(n as usize, 8));
    assert_collapses(&case);
}

/// One state per iteration of `t`: a map `B[i] += A[i]` over `0:N`, then
/// a point tasklet `C[t] = B[t] * 0.5` reading what the map wrote.
fn map_then_point(schedule: Schedule, n: i64, t: i64) -> Case {
    let mut b = SdfgBuilder::new("map_then_point");
    b.symbol("N");
    b.symbol("T");
    b.array("A", &["N"], DType::F64);
    b.array("B", &["N"], DType::F64);
    b.array("C", &["T"], DType::F64);
    let st = b.state("step");
    b.mapped_tasklet_wcr(
        st,
        "bump",
        &[("i", "0:N")],
        &[("a", "A", "i"), ("bi", "B", "i")],
        "o = bi + a",
        &[("o", "B", "i", None)],
        schedule,
    );
    b.add_loop(st, "t", "0", "t < T", "1");
    let mut sdfg = b.build().expect("valid");
    let state = sdfg.state_mut(st);
    let written = sdfg_frontend::builder::get_or_add_read(state, "B");
    let pt = state.add_tasklet("half", &["b"], &["c"], "c = b * 0.5");
    let c = state.add_access("C");
    state.add_edge(written, None, pt, Some("b"), Memlet::parse("B", "t"));
    state.add_edge(pt, Some("c"), c, None, Memlet::parse("C", "t"));
    sdfg.validate().expect("valid");
    Case::new(sdfg, &[("N", n), ("T", t)], &["B", "C"])
        .array("A", data(n as usize, 9))
        .array("B", data(n as usize, 10))
        .array("C", vec![0.0; t as usize])
}

#[test]
fn a_point_tasklet_after_a_map_in_one_state_collapses() {
    assert_collapses(&map_then_point(Schedule::CpuMulticore, 200, 40));
}

#[test]
fn a_step_that_reads_a_symbol_declines() {
    let mut b = SdfgBuilder::new("strided");
    b.symbol("N");
    b.symbol("T");
    b.symbol("S");
    b.array("A", &["N"], DType::F64);
    b.array("B", &["T"], DType::F64);
    let st = b.state("sweep");
    b.mapped_tasklet_wcr(
        st,
        "rowsum",
        &[("i", "0:N")],
        &[("a", "A", "i")],
        "b = a",
        &[("b", "B", "t", Some(Wcr::Sum))],
        Schedule::Sequential,
    );
    b.add_loop(st, "t", "0", "t < T", "S");
    let case = Case::new(
        b.build().expect("valid"),
        &[("N", 64), ("T", 40), ("S", 3)],
        &["B"],
    )
    .array("A", data(64, 11))
    .array("B", vec![0.0; 40]);
    assert_loop_declines(&case, "t_guard", "non-unit loop increment `S + t`");
}

#[test]
fn a_branch_on_a_container_declines() {
    // `for t in range(T)`: `B[t] = A[t]`, then `B[t] *= 2` when the
    // one-element container `c` is positive; `c` flips sign each step.
    let mut b = SdfgBuilder::new("branch_on_data");
    b.symbol("T");
    b.array("A", &["T"], DType::F64);
    b.array("B", &["T"], DType::F64);
    b.array("c", &["1"], DType::F64);
    let head = b.state("head");
    let arm = b.state("arm");
    let merge = b.state("merge");
    let mut sdfg = b.build_unvalidated();
    let st = sdfg.state_mut(head);
    let (a, bb, c_in, c_out) = (
        st.add_access("A"),
        st.add_access("B"),
        st.add_access("c"),
        st.add_access("c"),
    );
    let t = st.add_tasklet("copy", &["x", "ci"], &["y", "co"], "y = x\nco = -ci");
    st.add_edge(a, None, t, Some("x"), Memlet::parse("A", "t"));
    st.add_edge(c_in, None, t, Some("ci"), Memlet::parse("c", "0"));
    st.add_edge(t, Some("y"), bb, None, Memlet::parse("B", "t"));
    st.add_edge(t, Some("co"), c_out, None, Memlet::parse("c", "0"));
    let st = sdfg.state_mut(arm);
    let (src, dst) = (st.add_access("B"), st.add_access("B"));
    let t = st.add_tasklet("twice", &["x"], &["y"], "y = x * 2.0");
    st.add_edge(src, None, t, Some("x"), Memlet::parse("B", "t"));
    st.add_edge(t, Some("y"), dst, None, Memlet::parse("B", "t"));
    let init = sdfg.add_state("t_init");
    let guard = sdfg.add_state("t_guard");
    let exit = sdfg.add_state("t_exit");
    let edge = sdfg_core::InterstateEdge::when;
    sdfg.add_transition(
        init,
        guard,
        sdfg_core::InterstateEdge::always().assign("t", "0"),
    );
    sdfg.add_transition(guard, head, edge("t < T"));
    sdfg.add_transition(guard, exit, edge("not (t < T)"));
    sdfg.add_transition(head, arm, edge("c > 0"));
    sdfg.add_transition(head, merge, edge("not (c > 0)"));
    sdfg.add_transition(arm, merge, sdfg_core::InterstateEdge::always());
    sdfg.add_transition(
        merge,
        guard,
        sdfg_core::InterstateEdge::always().assign("t", "t + 1"),
    );
    sdfg.start = Some(init);
    sdfg.validate().expect("valid");
    let n = 30;
    let case = Case::new(sdfg, &[("T", n)], &["B", "c"])
        .array("A", data(n as usize, 12))
        .array("B", vec![0.0; n as usize])
        .array("c", vec![1.0]);
    assert_loop_declines(&case, "t_guard", "reads container or stream length `c`");
}

#[test]
fn an_inner_variable_read_after_the_loop_declines() {
    // `j` leaves the nest at `N − 1`, which `B[j]` reads.
    let src = r#"
def after(A: dace.float64[N], B: dace.float64[N]):
    for i in range(N):
        for j in range(i):
            A[j] = A[j] * 0.5 + 1.0
    B[j] = 1.0
"#;
    let n = 40;
    let case = Case::new(parse_program(src).unwrap(), &[("N", n)], &["A", "B"])
        .array("A", data(n as usize, 13))
        .array("B", data(n as usize, 14));
    assert_loop_declines(
        &case,
        "i_guard",
        "symbol `j` assigned in the loop is read after it",
    );
}

#[test]
fn a_map_above_the_serial_bound_stays_on_the_scheduler() {
    // 2^17 points are above the tuner's 60 µs parallel threshold at its
    // default 50 ns each, and at the native kernel's cost too.
    let case = map_then_point(Schedule::CpuMulticore, 1 << 17, 3);
    let runs = assert_loop_declines(&case, "t_guard", "parallel-profitable map `bump`");
    let (_, off, steady) = &runs[1];
    assert!(off.parallel_regions > 0, "jit(false) at 2 threads");
    assert!(steady.stats().parallel_regions > 0, "steady at 2 threads");
}

/// Every loop of the three solvers collapses, unoptimized and at
/// `Aggressive`: the ledger records no loop decline (a kernel still
/// compiling is none), and a steady run makes one native call and executes
/// only the few states around its outermost loop.
#[test]
fn solver_loops_collapse_whole() {
    if !jit_available() {
        return;
    }
    for name in ["cholesky", "durbin", "nussinov"] {
        let w = (sdfg_workloads::polybench::by_name(name).unwrap().build)(24);
        for opt in [OptLevel::None, OptLevel::Aggressive] {
            let mut steady = None;
            let text = ledger_of(|| {
                let s = w.session().opt_level(opt).nthreads(2).build().unwrap();
                s.run(w.bindings()).unwrap();
                sdfg_exec::jit::wait_idle();
                steady = Some(s.run(w.bindings()).unwrap().stats().clone());
            });
            let declines: Vec<&str> = text
                .lines()
                .filter(|l| l.contains("\"map\":\"loop@") && !l.contains("jit-compile-pending"))
                .collect();
            assert!(declines.is_empty(), "{name} at {opt:?}: {declines:?}");
            let st = steady.expect("ran");
            assert_eq!(st.nest_calls, 1, "{name} at {opt:?}");
            assert!(st.states_executed <= 6, "{name} at {opt:?}: {st:?}");
        }
    }
}

// --- the race predicate ------------------------------------------------------

/// Runs `case` bitwise and returns whether its first `jit(false)` run at 2
/// threads ran parallel tiles.
fn tiled_at_two_threads(case: &Case) -> bool {
    let runs = case.assert_bitwise();
    runs[1].1.sched_tiles > 0
}

#[test]
fn in_place_stencil_runs_serially() {
    let src = r#"
def inplace(A: dace.float64[N, N]):
    for i, j in dace.map[1:N - 1, 0:N]:
        A[i, j] = 0.5 * (A[i - 1, j] + A[i + 1, j])
"#;
    let case = Case::new(parse_program(src).unwrap(), &[("N", 256)], &["A"])
        .array("A", data(256 * 256, 8));
    assert!(
        !tiled_at_two_threads(&case),
        "rows read their neighbours' writes"
    );
}

/// `A[w] = A[r] * 0.5 + B[i, j]` over `[lo:N, 0:N]` (`A` is `[2, N, N]`).
fn plane_case(r: &str, w: &str, lo: &str) -> Case {
    let mut b = SdfgBuilder::new("planes");
    b.symbol("N");
    b.symbol("P");
    b.array("A", &["2", "N", "N"], DType::F64);
    b.array("B", &["N", "N"], DType::F64);
    let st = b.state("main");
    b.mapped_tasklet(
        st,
        "upd",
        &[("i", lo), ("j", "0:N")],
        &[("a", "A", r), ("b", "B", "i, j")],
        "o = a * 0.5 + b",
        &[("o", "A", w)],
    );
    let n = 128;
    Case::new(b.build().expect("valid"), &[("N", n), ("P", 1)], &["A"])
        .array("A", data(2 * (n * n) as usize, 9))
        .array("B", data((n * n) as usize, 10))
}

#[test]
fn race_predicate_admits_own_elements_and_disjoint_regions() {
    // The element its own point writes.
    assert!(tiled_at_two_threads(&plane_case(
        "P, i, j", "P, i, j", "0:N"
    )));
    // The other plane (jacobi2d's double buffer).
    assert!(tiled_at_two_threads(&plane_case(
        "P, i + 1, j",
        "1 - P, i, j",
        "0:N - 1"
    )));
    // Rows before every written row (ludcmp's pivot row and column).
    assert!(tiled_at_two_threads(&plane_case(
        "P, 0, j", "P, i, j", "1:N"
    )));
}

#[test]
fn race_predicate_near_misses_run_serially() {
    // A neighbour in the written plane.
    assert!(!tiled_at_two_threads(&plane_case(
        "P, i + 1, j",
        "P, i, j",
        "0:N - 1"
    )));
    // The pivot row inside the written rows.
    assert!(!tiled_at_two_threads(&plane_case(
        "P, 0, j", "P, i, j", "0:N"
    )));
    // A transposed element: same region, another point's element.
    assert!(!tiled_at_two_threads(&plane_case(
        "P, j, i", "P, i, j", "0:N"
    )));
    // Not affine in a map parameter: proves nothing.
    assert!(!tiled_at_two_threads(&plane_case(
        "1 - P, i % 2, j",
        "1 - P, i, j",
        "0:N"
    )));
}

//! Dense nests: strip-accumulated reductions, whole-nest double-buffered
//! stencils and the race predicate that licenses parallel tiles.
//!
//! Every case is compared bitwise against the reference interpreter and
//! against the interpreted tiers (`jit(false)`) at 1, 2 and 8 threads, with
//! the JIT cold (kernels compiling in the background) and steady (every
//! kernel compiled). Without a system C compiler (or under `SDFG_JIT=off`)
//! the JIT sessions run the interpreted tiers, the comparisons hold
//! trivially and the count assertions are skipped.

use sdfg_codegen::jit::{
    emit_nest_kernel, JitBody, JitOutMode, JitWcrOp, NestItem, NestOut, NestSpec, NestTasklet,
};
use sdfg_core::{DType, Schedule, Sdfg, Wcr};
use sdfg_exec::{Bindings, OptLevel, Outputs, Session, Stats};
use sdfg_frontend::{parse_program, SdfgBuilder};
use sdfg_interp::Interpreter;
use sdfg_lang::recognize::{BinOpKind, Operand, Pattern};
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
    /// Compare against the interpreted tiers at one thread instead of the
    /// interpreter, for bodies whose native micro-kernel is not the
    /// interpreter's arithmetic (a stencil's `0.2 * (a + b)` runs as
    /// `0.2 * a + 0.2 * b`).
    native_oracle: bool,
}

impl Case {
    fn new(sdfg: Sdfg, symbols: &[(&'static str, i64)], check: &[&'static str]) -> Case {
        Case {
            sdfg,
            symbols: symbols.to_vec(),
            arrays: Vec::new(),
            check: check.to_vec(),
            opt: OptLevel::None,
            native_oracle: false,
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
        if self.native_oracle {
            let out = self.session(false, 1).run(self.bindings()).expect("run");
            return self
                .check
                .iter()
                .map(|n| out.array(n).unwrap().to_vec())
                .collect();
        }
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

fn identity(op: &Wcr) -> f64 {
    match op {
        Wcr::Sum => 0.0,
        Wcr::Product => 1.0,
        Wcr::Min => f64::INFINITY,
        _ => f64::NEG_INFINITY,
    }
}

/// A gemm case; the output starts at the reduction's identity, where the
/// interpreter's per-point combine and the executor's register
/// accumulation agree bit for bit.
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
        .array("C", vec![identity(&op); mu * nu])
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
        assert!(runs[0].2.array("C").unwrap().iter().all(|&c| c == 0.0));
    }
}

#[test]
fn strip_declines_when_the_output_is_also_read() {
    // `Q[i, j] += Q[i, k] * B[k, j]`: each strip point reads the row the
    // earlier points of the strip write, so only the scalar loop keeps
    // the order. The race predicate keeps the parallel map serial.
    let (m, k) = (24usize, 24usize);
    for looped in [true, false] {
        let sdfg = gemm(Wcr::Sum, "Q:i, k", "B:k, j", "0:K", looped);
        let case = Case::new(sdfg, &[("M", 24), ("N", 24), ("K", 24), ("T", 1)], &["Q"])
            .array("A", vec![0.0; m * k])
            .array("B", data(k * m, 4))
            .array("Bt", vec![0.0; m * k])
            .array("C", vec![0.0; m * m])
            .array("Q", data(m * m, 5));
        // The interpreter combines per point and the executor in a
        // register, which differ here: compare against `jit(false)`.
        let off = case.session(false, 1).run(case.bindings()).unwrap();
        let want = off.array("Q").unwrap().to_vec();
        for nthreads in [1, 2, 8] {
            let s = case.session(true, nthreads);
            s.run(case.bindings()).unwrap();
            sdfg_exec::jit::wait_idle();
            let on = s.run(case.bindings()).unwrap();
            let off = case.session(false, nthreads).run(case.bindings()).unwrap();
            for o in [&on, &off] {
                let got = o.array("Q").unwrap();
                let bad = (0..got.len()).filter(|&i| got[i].to_bits() != want[i].to_bits());
                assert_eq!(bad.count(), 0, "looped={looped} at {nthreads} threads");
            }
            if jit_available() && looped {
                assert_eq!(on.stats().jit_points, (m * m * k) as u64);
            }
        }
    }
}

/// A gemm-shaped kernel as the nest builder emits it (ports `A`, `B`,
/// `C`; the strip dimension `j` is dim 1).
fn gemm_spec(body: &Pattern) -> NestSpec<'static> {
    NestSpec {
        ndims: 3,
        nports: 3,
        tasklets: vec![NestTasklet {
            body: JitBody::Pattern(*body),
            ins: vec![0, 1],
            outs: vec![NestOut {
                port: 2,
                mode: JitOutMode::Accumulate(JitWcrOp::Sum),
            }],
        }],
        body: vec![NestItem::Loop {
            dim: 1,
            body: vec![NestItem::Loop {
                dim: 2,
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
    let mul = Pattern::BinOp {
        op: BinOpKind::Mul,
        a: Operand::Input(0),
        b: Operand::Input(1),
    };
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
    case.native_oracle = true;
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

//! The CPU dispatcher's C is the program the engine runs: every Polybench
//! seed's source has structured control flow, and compiled sources (every
//! seed, interior edge assignments, the goto fallback) reproduce the
//! reference interpreter bit for bit. Skipped when the machine has no C
//! compiler, as the JIT tests are.

use dace::codegen::c_expr::c_f64;
use dace::codegen::generate_cpu;
use dace::core::desc::DataDesc;
use dace::core::{DType, InterstateEdge};
use dace::frontend::{parse_program, SdfgBuilder};
use dace::workloads::{polybench, Workload};
use std::path::PathBuf;
use std::process::Command;

/// A scratch directory of this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdfg-emitted-c-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Compiles the emitted source of `w` with a `main` that binds its
/// symbols and arrays, runs it, and returns every argument array's bits.
/// The harness's own names carry a prefix or suffix (`arg_A`, `bits_`),
/// so none shadows an argument or clashes with a libm symbol (`y1`).
fn run_emitted(w: &Workload) -> Option<Vec<(String, Vec<u64>)>> {
    let cc = dace::exec::jit::cc()?;
    let (arrays, symbols) = w.sdfg.arglist();
    let mut src = generate_cpu(&w.sdfg);
    src.push_str("#include <stdio.h>\n\n");
    for a in &arrays {
        let Some(DataDesc::Array(_)) = w.sdfg.desc(a) else {
            panic!("`{a}` is not an array");
        };
        let init: Vec<String> = w.arrays[a].iter().map(|&v| c_f64(v)).collect();
        src.push_str(&format!(
            "static double arg_{a}[] = {{{}}};\n",
            init.join(", ")
        ));
    }
    let args: Vec<String> = arrays
        .iter()
        .map(|a| format!("arg_{a}"))
        .chain(symbols.iter().map(|s| format!("{}LL", w.sym(s))))
        .collect();
    src.push_str(&format!(
        "int main(void) {{\n    {}({});\n",
        w.sdfg.name,
        args.join(", ")
    ));
    for a in &arrays {
        src.push_str(&format!(
            "    for (size_t i = 0; i < sizeof arg_{a} / sizeof arg_{a}[0]; ++i) {{\n        \
             unsigned long long bits_; memcpy(&bits_, &arg_{a}[i], sizeof bits_); \
             printf(\"%llx\\n\", bits_);\n    }}\n"
        ));
    }
    src.push_str("    return 0;\n}\n");
    let dir = scratch(&w.name);
    let (c, exe) = (dir.join("prog.c"), dir.join("prog"));
    std::fs::write(&c, &src).unwrap();
    let built = Command::new(&cc.path)
        .args(["-O0", "-ffp-contract=off", "-o"])
        .arg(&exe)
        .arg(&c)
        .arg("-lm")
        .output()
        .unwrap();
    assert!(
        built.status.success(),
        "{}\n{src}",
        String::from_utf8_lossy(&built.stderr)
    );
    let ran = Command::new(&exe).output().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(ran.status.success());
    let mut bits = String::from_utf8(ran.stdout)
        .unwrap()
        .lines()
        .map(|l| u64::from_str_radix(l, 16).unwrap())
        .collect::<Vec<_>>()
        .into_iter();
    Some(
        arrays
            .iter()
            .map(|a| (a.clone(), bits.by_ref().take(w.arrays[a].len()).collect()))
            .collect(),
    )
}

fn assert_matches_interpreter(w: &Workload) {
    let Some(got) = run_emitted(w) else {
        eprintln!("no C compiler; skipping");
        return;
    };
    let want = w.run_interp().unwrap();
    for (a, bits) in got {
        let expect: Vec<u64> = want[&a].iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits, expect,
            "{}: `{a}` differs from the interpreter",
            w.name
        );
    }
}

#[test]
fn cholesky_source_matches_interpreter_bitwise() {
    // Nested state-machine loops around triangular WCR maps.
    assert_matches_interpreter(&(polybench::by_name("cholesky").unwrap().build)(8));
}

#[test]
fn every_seed_compiles_structured() {
    // Each seed at scale 8: nested state-machine loops, triangular WCR
    // maps, branches and downward loops.
    for k in polybench::all() {
        let w = (k.build)(8);
        let code = generate_cpu(&w.sdfg);
        assert!(!code.contains("goto"), "{}: unstructured\n{code}", k.name);
        assert_matches_interpreter(&w);
    }
}

/// A loop whose body is two states joined by an edge assigning `k`:
/// `s1 -(k = 2*i)-> s2`, with `s2` writing `B[k] = i + 1`.
fn interior_assignment_probe() -> Workload {
    let mut b = SdfgBuilder::new("probe");
    b.array("B", &["8"], DType::F64);
    let init = b.state("init");
    let guard = b.state("guard");
    let s1 = b.state("s1");
    let s2 = b.state("s2");
    let exit = b.state("exit");
    b.mapped_tasklet(
        s2,
        "w",
        &[("j", "0:1")],
        &[],
        "o = i + 1",
        &[("o", "B", "k")],
    );
    let mut edge = |src, dst, e| {
        b.sdfg.add_transition(src, dst, e);
    };
    edge(init, guard, InterstateEdge::always().assign("i", "0"));
    edge(guard, s1, InterstateEdge::when("i < 4"));
    edge(guard, exit, InterstateEdge::when("not (i < 4)"));
    edge(s1, s2, InterstateEdge::always().assign("k", "2*i"));
    edge(s2, guard, InterstateEdge::always().assign("i", "i + 1"));
    Workload::new("probe", b.build().unwrap()).array("B", vec![0.0; 8])
}

#[test]
fn interior_assignment_probe_matches_interpreter_bitwise() {
    let w = interior_assignment_probe();
    let want = w.run_interp().unwrap();
    assert_eq!(want["B"], [1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]);
    assert_matches_interpreter(&w);
}

/// A loop with a second exit from its body (taken at `i == 2`, before
/// the back edge), built so that its start state is not state 0: the
/// structurer rejects it, so the source takes the goto fallback.
fn two_exit_loop() -> Workload {
    let mut b = SdfgBuilder::new("two_exit");
    b.symbol("N");
    b.array("B", &["N"], DType::F64);
    let body = b.state("body");
    let init = b.state("init");
    let guard = b.state("guard");
    let exit = b.state("exit");
    b.sdfg.start = Some(init);
    b.mapped_tasklet(
        body,
        "w",
        &[("j", "0:1")],
        &[],
        "o = i + 1",
        &[("o", "B", "i")],
    );
    let mut edge = |src, dst, e| {
        b.sdfg.add_transition(src, dst, e);
    };
    edge(init, guard, InterstateEdge::always().assign("i", "0"));
    edge(guard, body, InterstateEdge::when("i < N"));
    edge(guard, exit, InterstateEdge::when("not (i < N)"));
    edge(body, exit, InterstateEdge::when("i == 2 and N > 1"));
    edge(body, guard, InterstateEdge::always().assign("i", "i + 1"));
    Workload::new("two_exit", b.build().unwrap())
        .symbol("N", 5)
        .array("B", vec![0.0; 5])
}

#[test]
fn goto_fallback_matches_interpreter_bitwise() {
    let w = two_exit_loop();
    let code = generate_cpu(&w.sdfg);
    assert!(code.contains("goto __state_1;"), "{code}");
    assert!(code.contains("if ((i == 2) && (N > 1)) {"), "{code}");
    assert_eq!(w.run_interp().unwrap()["B"], [1.0, 2.0, 3.0, 0.0, 0.0]);
    assert_matches_interpreter(&w);
}

/// An `if` nested in an `if`'s then-arm, with more states after it in
/// that arm and after the outer merge.
fn nested_branches(b: i64, c: i64) -> Workload {
    let src = r#"
def nested(A: dace.float64[4], B: dace.int64, C: dace.int64):
    if C < 5:
        if B < 2:
            for i in dace.map[0:4]:
                A[i] = A[i] * 2
        else:
            for i in dace.map[0:4]:
                A[i] = A[i] + 1
        for i in dace.map[0:4]:
            A[i] = A[i] - 3
    else:
        for i in dace.map[0:4]:
            A[i] = A[i] / 2
    for i in dace.map[0:4]:
        A[i] = A[i] + 7
"#;
    Workload::new("nested", parse_program(src).unwrap())
        .symbol("B", b)
        .symbol("C", c)
        .array("A", vec![1.5, -2.0, 0.25, 3.0])
}

#[test]
fn nested_branches_are_structured_and_match_interpreter_bitwise() {
    for (b, c) in [(1, 3), (3, 3), (1, 7)] {
        let w = nested_branches(b, c);
        let code = generate_cpu(&w.sdfg);
        assert!(!code.contains("goto"), "{code}");
        assert_matches_interpreter(&w);
    }
}

#[test]
fn thirty_sequential_ifs_structure_and_run_promptly() {
    // Every `if` guard has a loop guard's `c` / `not (c)` edge pair; the
    // structurer must not walk the rest of the program from each one.
    let mut src = String::from(
        "def ifs(A: dace.float64[4], C: dace.int64, T: dace.int64):\n    for t in range(T):\n",
    );
    for k in 0..30 {
        src.push_str(&format!(
            "        if C < {k}:\n            for i in dace.map[0:4]:\n                \
             A[i] = A[i] + {k}\n"
        ));
    }
    let t0 = std::time::Instant::now();
    let w = Workload::new("ifs", parse_program(&src).unwrap())
        .symbol("C", 12)
        .symbol("T", 3)
        .array("A", vec![0.5; 4]);
    let code = generate_cpu(&w.sdfg);
    assert!(!code.contains("goto"), "{code}");
    let (got, _, _) = w.run_exec().unwrap();
    assert!(t0.elapsed() < std::time::Duration::from_secs(30));
    let want = w.run_interp().unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got["A"]), bits(&want["A"]));
    assert_matches_interpreter(&w);
}

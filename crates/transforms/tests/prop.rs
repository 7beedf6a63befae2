//! Property: every transformation in the registry preserves program
//! semantics.
//!
//! Random restricted-Python programs are generated, a golden output is
//! computed with the reference interpreter on the untransformed SDFG, and
//! then each transformation is applied at every site it matches (default
//! parameters), each on a fresh clone. The transformed SDFG must still
//! validate and must produce the golden output on **both** engines. A
//! second property applies random transformation *sequences*, since
//! rewrites must compose (that is how the Fig. 15 chain uses them), and a
//! third runs the whole `Aggressive` pipeline.
//!
//! Inputs are integer-valued f64 and the expression grammar excludes
//! division, so results are exact and comparisons are bitwise.

use proptest::prelude::*;
use sdfg_core::propagate::propagate_sdfg;
use sdfg_core::{validate, Sdfg};
use sdfg_exec::{Bindings, Session};
use sdfg_frontend::parse_program;
use sdfg_interp::Interpreter;
use sdfg_transforms::{apply_first, apply_strict, optimize, registry, OptLevel, Params};

// --- random programs -------------------------------------------------------

/// Random arithmetic expression over the given terminals (no division, so
/// integer-valued inputs stay exact).
fn expr(terminals: &'static [&'static str]) -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        proptest::sample::select(terminals).prop_map(|t| t.to_string()),
        (-3i64..=3).prop_map(|c| format!("{c}")),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        (
            inner.clone(),
            proptest::sample::select(&["+", "-", "*"][..]),
            inner,
        )
            .prop_map(|(l, op, r)| format!("({l} {op} {r})"))
    })
}

/// A generated program: frontend source, containers to mark transient, the
/// output array to compare, and its length as a function of N.
#[derive(Debug, Clone)]
struct Program {
    src: String,
    transients: Vec<&'static str>,
    check: &'static str,
    check_len: fn(usize) -> usize,
}

fn one_d(n: usize) -> usize {
    n
}
fn two_d(n: usize) -> usize {
    n * n
}
fn scalar(_: usize) -> usize {
    1
}

/// One elementwise 1-D map.
fn p_map1d() -> impl Strategy<Value = Program> {
    expr(&["A[i]", "B[i]"]).prop_map(|e| Program {
        src: format!(
            "def p(A: dace.float64[N], B: dace.float64[N], C: dace.float64[N]):\n\
             \x20   for i in dace.map[0:N]:\n\
             \x20       C[i] = {e}\n"
        ),
        transients: vec![],
        check: "C",
        check_len: one_d,
    })
}

/// Two maps chained through a transient — gives MapFusion, RedundantArray,
/// and StateFusion something to match. The consumer reads the transient at
/// the element the producer wrote and at shifted, reversed and clamped
/// ones, which MapFusion must not fuse.
fn p_chain() -> impl Strategy<Value = Program> {
    const READS: [&str; 5] = [
        "D[i]",
        "A[i]",
        "D[N - 1 - i]",
        "D[min(i + 1, N - 1)]",
        "D[max(i - 1, 0)]",
    ];
    (expr(&["A[i]", "B[i]"]), expr(&READS)).prop_map(|(e1, e2)| Program {
        src: format!(
            "def p(A: dace.float64[N], B: dace.float64[N], C: dace.float64[N],\n\
             \x20     D: dace.float64[N]):\n\
             \x20   for i in dace.map[0:N]:\n\
             \x20       D[i] = {e1}\n\
             \x20   for i in dace.map[0:N]:\n\
             \x20       C[i] = {e2}\n"
        ),
        transients: vec!["D"],
        check: "C",
        check_len: one_d,
    })
}

/// One 2-D map (MapCollapse/Expansion/Interchange/Tiling territory). The
/// transposed read keeps interchange non-trivial.
fn p_map2d() -> impl Strategy<Value = Program> {
    expr(&["A[i, j]", "B[j, i]"]).prop_map(|e| Program {
        src: format!(
            "def p(A: dace.float64[N, N], B: dace.float64[N, N],\n\
             \x20     C: dace.float64[N, N]):\n\
             \x20   for i, j in dace.map[0:N, 0:N]:\n\
             \x20       C[i, j] = {e}\n"
        ),
        transients: vec![],
        check: "C",
        check_len: two_d,
    })
}

/// A WCR reduction into a scalar.
fn p_reduce() -> impl Strategy<Value = Program> {
    expr(&["A[i]", "B[i]"]).prop_map(|e| Program {
        src: format!(
            "def p(A: dace.float64[N], B: dace.float64[N], out: dace.float64[1]):\n\
             \x20   for i in dace.map[0:N]:\n\
             \x20       out[0] += {e}\n"
        ),
        transients: vec![],
        check: "out",
        check_len: scalar,
    })
}

/// A sequential state-machine loop around a WCR map (Fig. 2b structure).
fn p_loop() -> impl Strategy<Value = Program> {
    expr(&["A[i]", "B[i]"]).prop_map(|e| Program {
        src: format!(
            "def p(A: dace.float64[N], B: dace.float64[N], C: dace.float64[N]):\n\
             \x20   for t in range(3):\n\
             \x20       for i in dace.map[0:N]:\n\
             \x20           C[i] += {e}\n"
        ),
        transients: vec![],
        check: "C",
        check_len: one_d,
    })
}

fn program() -> impl Strategy<Value = Program> {
    prop_oneof![p_map1d(), p_chain(), p_map2d(), p_reduce(), p_loop()]
}

// --- the oracle ------------------------------------------------------------

/// Builds the SDFG for a generated program.
fn build(p: &Program) -> Sdfg {
    let mut sdfg = parse_program(&p.src).expect("generated program parses");
    for t in &p.transients {
        sdfg.desc_mut(t).unwrap().set_transient(true);
    }
    sdfg
}

/// Integer-valued inputs for every non-transient container of the program.
fn inputs(p: &Program, n: usize, seed: i64) -> Vec<(String, Vec<f64>)> {
    let names_lens: &[(&str, usize)] = match p.check {
        "out" => &[("A", 1), ("B", 1), ("out", 0)],
        _ if p.src.contains("float64[N, N]") => &[("A", 2), ("B", 2), ("C", 2)],
        _ if p.transients.is_empty() => &[("A", 1), ("B", 1), ("C", 1)],
        _ => &[("A", 1), ("B", 1), ("C", 1)],
    };
    names_lens
        .iter()
        .map(|(name, rank)| {
            let len = match rank {
                0 => 1,
                1 => n,
                _ => n * n,
            };
            let data = (0..len)
                .map(|i| (((i as i64 * 7 + seed * 13 + *rank as i64 * 3) % 9) - 4) as f64)
                .collect();
            (name.to_string(), data)
        })
        .collect()
}

fn run_interp(sdfg: &Sdfg, n: usize, ins: &[(String, Vec<f64>)], check: &str) -> Vec<f64> {
    let mut it = Interpreter::new(sdfg);
    it.set_symbol("N", n as i64);
    for (name, data) in ins {
        it.set_array(name, data.clone());
    }
    it.run().expect("interpreter runs");
    it.array(check).to_vec()
}

fn run_exec(sdfg: &Sdfg, n: usize, ins: &[(String, Vec<f64>)], check: &str) -> Vec<f64> {
    let mut inputs = Bindings::new().symbol("N", n as i64);
    for (name, data) in ins {
        inputs = inputs.array(name, data);
    }
    let session = Session::builder(sdfg.clone()).build().expect("valid SDFG");
    let mut out = session.run(inputs).expect("executor runs");
    out.take_array(check).expect("checked array bound")
}

/// Default parameters per transformation. `MapInterchange` requires an
/// explicit permutation; everything else has usable defaults.
fn default_params(name: &str, p: &Program) -> Params {
    let mut params = Params::new();
    if name == "MapInterchange" {
        let order = if p.src.contains("for i, j in") {
            "1,0"
        } else {
            "0"
        };
        params.set_text("order", order);
    }
    params
}

fn assert_same(label: &str, golden: &[f64], got: &[f64]) {
    assert_eq!(golden.len(), got.len(), "{label}: output length");
    for (i, (g, o)) in golden.iter().zip(got).enumerate() {
        assert_eq!(
            g.to_bits(),
            o.to_bits(),
            "{label}: element {i}: golden={g} got={o}"
        );
    }
}

/// Validates `s` and checks it against `golden` on both engines.
fn assert_preserves(
    label: &str,
    p: &Program,
    s: &Sdfg,
    n: usize,
    ins: &[(String, Vec<f64>)],
    golden: &[f64],
) {
    validate(s).unwrap_or_else(|e| panic!("{label}: validation {e:?}"));
    assert_same(label, golden, &run_interp(s, n, ins, p.check));
    assert_same(label, golden, &run_exec(s, n, ins, p.check));
}

// --- properties ------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Each registry transformation, applied alone at each site it
    /// matches, preserves semantics on both engines and keeps the SDFG
    /// valid.
    #[test]
    fn single_transformation_preserves_semantics(
        p in program(),
        n in 1usize..10,
        seed in 0i64..16,
    ) {
        let base = build(&p);
        let ins = inputs(&p, n, seed);
        let golden = run_interp(&base, n, &ins, p.check);
        prop_assert_eq!(golden.len(), (p.check_len)(n));

        for t in registry() {
            let params = default_params(t.name(), &p);
            for (k, m) in t.find(&base).iter().enumerate() {
                let mut s = base.clone();
                // A precondition rejected at apply time (e.g.
                // Vectorization on a non-contiguous access) is a
                // legitimate skip — `s` is a clone, so nothing leaks.
                if t.apply(&mut s, m, &params).is_err() {
                    continue;
                }
                propagate_sdfg(&mut s);
                let label = format!("{} at match {k} on\n{}", t.name(), p.src);
                assert_preserves(&label, &p, &s, n, &ins, &golden);
            }
        }
    }

    /// The whole `Aggressive` pipeline, as every benchmark workload and
    /// the server run it, preserves semantics on both engines.
    #[test]
    fn aggressive_pipeline_preserves_semantics(
        p in program(),
        n in 1usize..10,
        seed in 0i64..16,
    ) {
        let mut s = build(&p);
        let ins = inputs(&p, n, seed);
        let golden = run_interp(&s, n, &ins, p.check);
        let report = optimize(&mut s, OptLevel::Aggressive).expect("pipeline runs");
        let label = format!("Aggressive ({report}) on\n{}", p.src);
        assert_preserves(&label, &p, &s, n, &ins, &golden);
    }

    /// Random transformation *sequences* compose soundly (the chain /
    /// version-control workflow of §4.2).
    #[test]
    fn transformation_sequences_compose(
        p in program(),
        n in 1usize..10,
        seed in 0i64..16,
        picks in proptest::collection::vec(0usize..17, 1..4),
    ) {
        let mut s = build(&p);
        let ins = inputs(&p, n, seed);
        let golden = run_interp(&s, n, &ins, p.check);

        let reg = registry();
        let mut applied = Vec::new();
        for idx in picks {
            let t = &reg[idx % reg.len()];
            if let Ok(true) = apply_first(&mut s, t.as_ref(), &default_params(t.name(), &p)) {
                applied.push(t.name());
                let label = format!("chain {applied:?} on\n{}", p.src);
                assert_preserves(&label, &p, &s, n, &ins, &golden);
            }
        }
    }

    /// The strict-transformation fixpoint pass (applied automatically by
    /// DaCe after parsing) is always safe.
    #[test]
    fn strict_pass_preserves_semantics(
        p in program(),
        n in 1usize..10,
        seed in 0i64..16,
    ) {
        let mut s = build(&p);
        let ins = inputs(&p, n, seed);
        let golden = run_interp(&s, n, &ins, p.check);
        apply_strict(&mut s).expect("strict pass applies");
        assert_preserves(&format!("strict pass on\n{}", p.src), &p, &s, n, &ins, &golden);
    }
}

/// `inputs` keys off the program source to size containers — pin that a
/// 2-D program gets n*n-length inputs so grammar edits can't silently
/// produce length-mismatched arrays (which the engines would reject).
#[test]
fn inputs_cover_every_shape() {
    let p = Program {
        src: "def p(A: dace.float64[N, N], B: dace.float64[N, N],\n\
              \x20     C: dace.float64[N, N]):\n\
              \x20   for i, j in dace.map[0:N, 0:N]:\n\
              \x20       C[i, j] = A[i, j]\n"
            .to_string(),
        transients: vec![],
        check: "C",
        check_len: two_d,
    };
    let ins = inputs(&p, 3, 0);
    assert!(ins.iter().all(|(_, d)| d.len() == 9));
}

//! The tasklet recognizers against the interpreter.
//!
//! A recognized body runs on the executor's micro-kernels instead of the
//! tasklet VM, so a recognizer may only accept a form the kernel evaluates
//! exactly as the source reads: the same operations, in the same order, on
//! the same operands. Random single-assignment bodies over `+ - * / min
//! max` and unary minus, mixing inputs and constants in every association
//! and position, run with the JIT off on one thread; whenever a recognizer
//! accepts one, the micro-kernel's output must equal the interpreter's bit
//! for bit — elementwise, and folded into a reduction whose output does not
//! start at the operator's identity. Inputs come from a pool of signed
//! zeros, infinities, subnormals and NaNs with distinct payloads, or from
//! ordinary values whose sums round.

use sdfg_core::{DType, Schedule, Wcr};
use sdfg_exec::{Bindings, Session};
use sdfg_frontend::SdfgBuilder;
use sdfg_interp::Interpreter;
use sdfg_lang::parse_tasklet;
use sdfg_lang::recognize::{recognize, recognize_lincomb, recognize_mulchain};

/// Points per case.
const N: usize = 64;

/// SplitMix64: a seeded, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// Values where the order of operations shows in the bits: signed zeros,
/// infinities, subnormals, huge magnitudes and NaNs with distinct payloads.
const SPECIAL: [u64; 16] = [
    0x0000_0000_0000_0000, // +0
    0x8000_0000_0000_0000, // -0
    0x7ff0_0000_0000_0000, // +inf
    0xfff0_0000_0000_0000, // -inf
    0x0000_0000_0000_0001, // smallest subnormal
    0x800f_ffff_ffff_fabc, // negative subnormal
    0x7ff8_0000_0000_0001, // NaN, payload 1
    0x7ff8_0000_0000_dead, // NaN, another payload
    0xfff8_0000_0000_beef, // negative NaN
    0x3ff0_0000_0000_0000, // 1
    0xc004_0000_0000_0000, // -2.5
    0x3fb9_9999_9999_999a, // 0.1
    0x7e36_3f3d_7f1c_2a42, // ~3e300
    0xfe36_3f3d_7f1c_2a42, // ~-3e300
    0x01a5_6e1f_c2f8_f359, // ~1e-300
    0x3fe6_6666_6666_6666, // 0.7
];

const INPUTS: [&str; 4] = ["a", "b", "c", "d"];
const CONSTS: [&str; 6] = ["0.3", "2", "0.7", "(-1.5)", "0", "(-0.0)"];

/// One input value: from the special pool, or an ordinary one whose sums
/// and products round.
fn value(r: &mut Rng, special: bool) -> f64 {
    if special {
        f64::from_bits(*r.pick(&SPECIAL))
    } else {
        (r.below(2001) as f64 - 1000.0) * 0.013 + 0.1
    }
}

fn leaf(r: &mut Rng) -> String {
    if r.below(10) < 7 {
        r.pick(&INPUTS).to_string()
    } else {
        r.pick(&CONSTS).to_string()
    }
}

/// A left-folded chain of two to five leaves under `+`/`-` or `*`,
/// sometimes under a leading constant: the shapes `LinComb` and `MulChain`
/// take, and their near misses.
fn chain(r: &mut Rng) -> String {
    let product = r.below(2) == 0;
    let mut s = leaf(r);
    for _ in 1..2 + r.below(4) {
        let op = if product { "*" } else { *r.pick(&["+", "-"]) };
        s = format!("({s} {op} {})", leaf(r));
    }
    if r.below(2) == 0 {
        s = format!("({} * {s})", r.pick(&CONSTS));
    }
    s
}

fn expr(r: &mut Rng, depth: usize) -> String {
    if depth == 0 || r.below(4) == 0 {
        return leaf(r);
    }
    match r.below(9) {
        0..=3 => {
            let op = r.pick(&["+", "-", "*", "/"]);
            format!("({} {op} {})", expr(r, depth - 1), expr(r, depth - 1))
        }
        4 => format!("min({}, {})", expr(r, depth - 1), expr(r, depth - 1)),
        5 => format!("max({}, {})", expr(r, depth - 1), expr(r, depth - 1)),
        6 => format!("(-{})", expr(r, depth - 1)),
        _ => chain(r),
    }
}

/// Whether a recognizer accepts `o = {value}` over `ins`.
fn recognized(code: &str, ins: &[&str]) -> bool {
    let body = parse_tasklet(code).expect("generated body parses");
    let ins: Vec<String> = ins.iter().map(|s| s.to_string()).collect();
    let outs = ["o".to_string()];
    recognize(&body, &ins, &outs).is_some()
        || recognize_lincomb(&body, &ins, &outs).is_some()
        || recognize_mulchain(&body, &ins, &outs).is_some()
}

/// Runs `code` over `i ∈ [0, N)`, input `x` reading `X_x[i]`, into `O[i]`
/// or — with `wcr` — folded into `O[0]`; `O` starts at `seed`. Compares the
/// executor (JIT off, one thread) against the interpreter (see [`same`])
/// and returns the executor's micro-kernel point count, or the mismatch.
fn run(
    code: &str,
    ins: &[&str],
    data: &[Vec<f64>],
    wcr: Option<Wcr>,
    seed: f64,
) -> Result<u64, String> {
    let mut b = SdfgBuilder::new("recognized");
    b.symbol("N");
    let arrays: Vec<String> = ins.iter().map(|x| format!("X_{x}")).collect();
    for a in &arrays {
        b.array(a, &["N"], DType::F64);
    }
    b.array("O", &["N"], DType::F64);
    let st = b.state("main");
    let reads: Vec<(&str, &str, &str)> = ins
        .iter()
        .zip(&arrays)
        .map(|(x, a)| (*x, a.as_str(), "i"))
        .collect();
    let at = if wcr.is_some() { "0" } else { "i" };
    b.mapped_tasklet_wcr(
        st,
        "f",
        &[("i", "0:N")],
        &reads,
        code,
        &[("o", "O", at, wcr.clone())],
        Schedule::Sequential,
    );
    let sdfg = b.build().expect("valid program");
    let out0 = vec![seed; N];
    let mut bindings = Bindings::new().symbol("N", N as i64).array("O", &out0);
    let mut it = Interpreter::new(&sdfg);
    it.set_symbol("N", N as i64).set_array("O", out0.clone());
    for (a, d) in arrays.iter().zip(data) {
        bindings = bindings.array(a, d);
        it.set_array(a, d.clone());
    }
    it.run().expect("interpreter runs");
    let out = Session::builder(sdfg.clone())
        .jit(false)
        .nthreads(1)
        .build()
        .expect("session")
        .run(bindings)
        .expect("executor runs");
    let (got, want) = (out.array("O").unwrap(), it.array("O"));
    match (0..N).find(|&k| !same(got[k], want[k])) {
        None => Ok(out.stats().native_points),
        Some(k) => Err(format!(
            "`{code}` ({wcr:?} from {seed:e}): O[{k}] = {:#018x} ({}), interpreter {:#018x} ({})",
            got[k].to_bits(),
            got[k],
            want[k].to_bits(),
            want[k]
        )),
    }
}

/// Bit equality, except that any two NaNs are equal: which NaN operand's
/// payload (and sign) an operation returns is unspecified in Rust and C
/// alike, and compilers commute `+` and `*` freely, so no two separately
/// compiled evaluators agree on it. Every other bit — signed zeros,
/// infinities, subnormals, the last place of every rounding — must match.
fn same(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

fn inputs(r: &mut Rng, n: usize) -> Vec<Vec<f64>> {
    let special = r.below(2) == 0;
    (0..n)
        .map(|_| (0..N).map(|_| value(r, special)).collect())
        .collect()
}

#[test]
fn recognized_bodies_run_the_interpreters_arithmetic() {
    let mut r = Rng(0x5eed_2f0c_a11e_d5e7);
    let (mut accepted, mut failures) = (0, Vec::new());
    for _ in 0..4000 {
        let code = format!("o = {}", expr(&mut r, 3));
        if !recognized(&code, &INPUTS) {
            continue;
        }
        accepted += 1;
        let data = inputs(&mut r, INPUTS.len());
        let wcr: Option<Wcr> = r
            .pick(&[
                None,
                Some(Wcr::Sum),
                Some(Wcr::Product),
                Some(Wcr::Min),
                Some(Wcr::Max),
            ])
            .clone();
        let special = r.below(4) == 0;
        let seed = value(&mut r, special);
        match run(&code, &INPUTS, &data, wcr, seed) {
            Ok(native) => assert_eq!(native, N as u64, "`{code}` left the micro-kernels"),
            Err(e) => failures.push(e),
        }
    }
    assert!(accepted > 300, "only {accepted} bodies recognized");
    assert!(
        failures.is_empty(),
        "{} of {accepted} recognized bodies differ from the interpreter:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn reassociating_near_misses_match_the_interpreter() {
    // Bodies an older recognizer accepted by distributing a factor,
    // folding constants or flattening a product.
    let cases: [(&str, &[&str]); 6] = [
        ("o = w * 0.3 * c * 0.7", &["w", "c"]),
        ("o = w * 0.3 * c * 0.7 * e", &["w", "c", "e"]),
        ("o = a * (b * c)", &["a", "b", "c"]),
        (
            "o = 0.2 * (c + w + e + nn + s)",
            &["c", "w", "e", "nn", "s"],
        ),
        (
            "o = 0.2 * (s + nn + e + w + c)",
            &["c", "w", "e", "nn", "s"],
        ),
        ("o = c + a * b", &["a", "b", "c"]),
    ];
    let mut r = Rng(0x0dd5_eed5);
    for (code, ins) in cases {
        for _ in 0..8 {
            let data = inputs(&mut r, ins.len());
            for wcr in [None, Some(Wcr::Sum)] {
                if let Err(e) = run(code, ins, &data, wcr, 0.7) {
                    panic!("{e}");
                }
            }
        }
    }
}

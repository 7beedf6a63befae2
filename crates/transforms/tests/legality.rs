//! The legality predicates of the transformations that move data between
//! containers. `MapFusion` fuses only where the consumer reads the element
//! the producer wrote at the same point, and `RedundantArray` removes only
//! a copy that is the identity over both whole containers. Every program
//! here stays bitwise equal to the interpreter at every optimization
//! level, at one and two threads with the JIT on.

use sdfg_core::{DType, Sdfg};
use sdfg_exec::{Bindings, Session};
use sdfg_frontend::{parse_program, SdfgBuilder};
use sdfg_interp::Interpreter;
use sdfg_transforms::{OptLevel, OptimizationReport};

/// Integer-valued, non-linear inputs, so a wrong element shows and every
/// result is exact.
fn input(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7919) % 1013) as f64 - 500.0).collect()
}

/// `out` of `sdfg` on the interpreter, the oracle.
fn interp(sdfg: &Sdfg, n: usize, input_name: &str, out: &str) -> Vec<f64> {
    let mut it = Interpreter::new(sdfg);
    it.set_symbol("N", n as i64);
    it.set_array(input_name, input(n));
    it.set_array(out, vec![0.0; n]);
    it.run().expect("interpreter runs");
    it.array(out).to_vec()
}

/// Runs `sdfg` through a session at `level` on `threads` threads with the
/// JIT on, and checks `out` bit for bit against the interpreter.
fn check(
    sdfg: &Sdfg,
    n: usize,
    (input_name, out): (&str, &str),
    level: OptLevel,
    threads: usize,
) -> OptimizationReport {
    let golden = interp(sdfg, n, input_name, out);
    let session = Session::builder(sdfg.clone())
        .opt_level(level)
        .jit(true)
        .nthreads(threads)
        .build()
        .expect("valid SDFG");
    let bindings = Bindings::new()
        .symbol("N", n as i64)
        .array(input_name, &input(n))
        .array(out, &vec![0.0; n]);
    let got = session.run(bindings).expect("session runs");
    let got = got.array(out).expect("output bound");
    let pairs = golden.iter().zip(got).enumerate();
    let wrong: Vec<_> = pairs
        .filter(|(_, (g, o))| g.to_bits() != o.to_bits())
        .collect();
    let first = &wrong[..wrong.len().min(4)];
    let what = format!("{} of {n} elements differ, first {first:?}", wrong.len());
    assert!(wrong.is_empty(), "{level:?} at {threads} threads: {what}");
    session.opt_report().unwrap_or_default()
}

/// Two maps over `range` through the transient `D`: `D[i] = A[i]*3 + 1`,
/// then `C[i] = read`.
fn chain(read: &str, range: &str) -> Sdfg {
    let src = format!(
        "def p(A: dace.float64[N], C: dace.float64[N], D: dace.float64[N]):\n\
         \x20   for i in dace.map[{range}]:\n\
         \x20       D[i] = A[i] * 3 + 1\n\
         \x20   for i in dace.map[{range}]:\n\
         \x20       C[i] = {read}\n"
    );
    let mut sdfg = parse_program(&src).expect("program parses");
    sdfg.desc_mut("D").unwrap().set_transient(true);
    sdfg
}

#[test]
fn map_fusion_fuses_only_a_consumer_of_the_element_written() {
    let n = 4096;
    for (read, range, fuses) in [
        ("D[i]", "0:N", true),
        ("D[N - 1 - i]", "0:N", false),
        ("D[min(i + 1, N - 1)]", "0:N", false),
        ("D[i - 1] + D[i] + D[i + 1]", "1:N - 1", false),
    ] {
        let sdfg = chain(read, range);
        for level in [OptLevel::None, OptLevel::Strict, OptLevel::Aggressive] {
            for threads in [1, 2] {
                let report = check(&sdfg, n, ("A", "C"), level, threads);
                if level != OptLevel::Aggressive {
                    continue;
                }
                let steps = &report.applied.steps;
                let fused = steps.iter().any(|s| s.transform == "MapFusion");
                assert_eq!(fused, fuses, "C[i] = {read}:\n{report}");
                let declined = report.skipped.iter().any(|s| {
                    s.transform == "MapFusion" && s.reason.starts_with("consumer reads D[")
                });
                assert_eq!(declined, !fuses, "C[i] = {read}:\n{report}");
            }
        }
    }
}

#[test]
fn map_fusion_names_both_subsets_when_it_declines() {
    let mut sdfg = chain("D[N - 1 - i]", "0:N");
    let report = sdfg_transforms::optimize(&mut sdfg, OptLevel::Aggressive).unwrap();
    let skip = report.skipped.iter().find(|s| s.transform == "MapFusion");
    let reason = &skip.expect("MapFusion declined").reason;
    assert_eq!(reason, "consumer reads D[N - i - 1], producer writes D[i]");
}

/// `tmp[i] = A[i] + 5` over `0:N`, then the copy `tmp[src] → B[dst]`.
fn copy_through_tmp(src: &str, dst: &str) -> Sdfg {
    let mut b = SdfgBuilder::new("ra");
    b.symbol("N");
    b.array("A", &["N"], DType::F64);
    b.transient("tmp", &["N"], DType::F64);
    b.array("B", &["N"], DType::F64);
    let st = b.state("main");
    b.mapped_tasklet(
        st,
        "t",
        &[("i", "0:N")],
        &[("a", "A", "i")],
        "o = a + 5",
        &[("o", "tmp", "i")],
    );
    b.copy(st, "tmp", src, "B", dst);
    b.build().unwrap()
}

#[test]
fn redundant_array_keeps_a_shifted_or_partial_copy() {
    let n = 64;
    for (src, dst) in [("0:N - 1", "1:N"), ("0:N/2", "0:N/2")] {
        let sdfg = copy_through_tmp(src, dst);
        let mut strict = sdfg.clone();
        sdfg_transforms::optimize(&mut strict, OptLevel::Strict).unwrap();
        assert!(
            strict.desc("tmp").is_some(),
            "tmp[{src}] -> B[{dst}] removed"
        );
        for level in [OptLevel::None, OptLevel::Strict, OptLevel::Aggressive] {
            for threads in [1, 2] {
                check(&sdfg, n, ("A", "B"), level, threads);
            }
        }
    }
    // The identity copy over the whole container is still removed.
    let mut whole = copy_through_tmp("0:N", "0:N");
    sdfg_transforms::optimize(&mut whole, OptLevel::Strict).unwrap();
    assert!(whole.desc("tmp").is_none());
    check(&whole, n, ("A", "B"), OptLevel::None, 1);
}

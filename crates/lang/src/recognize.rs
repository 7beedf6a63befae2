//! Tasklet pattern recognition.
//!
//! The paper's pipeline reaches native performance because the generated
//! C++ is vectorized by the platform compiler. The Rust analogue: after the
//! `Vectorization` transformation, the executor asks this module whether a
//! tasklet body is one of a handful of canonical element-wise forms and, if
//! so, dispatches a native (LLVM-autovectorized) micro-kernel instead of
//! interpreting bytecode per element.
//!
//! Every form is one the micro-kernel evaluates exactly as the source
//! reads — the same operations on the same operands in the same order — so
//! it computes the interpreter's bits. A body that would need a factor
//! distributed, constants folded or a product flattened is no form; the
//! VM runs it.

use crate::ast::{BinOp, ExprAst, Stmt};

/// Binary operation kinds with native kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOpKind {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
}

/// One operand of a recognized pattern.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// Input connector by slot.
    Input(usize),
    /// Literal constant.
    Const(f64),
}

/// A recognized canonical tasklet form. `out` is always output slot 0 and
/// unindexed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pattern {
    /// `out = a`
    Copy {
        /// Source input slot.
        input: usize,
    },
    /// `out = a <op> b`
    BinOp {
        /// Operation.
        op: BinOpKind,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `out = a * b + c`, never contracted; also matches `c + a * b`,
    /// whose value is the same bits (IEEE addition commutes — only which
    /// NaN operand's payload propagates could differ, and Rust and C leave
    /// that unspecified).
    Fma {
        /// Multiplicand input slot.
        a: usize,
        /// Multiplier input slot.
        b: usize,
        /// Addend input slot.
        c: usize,
    },
    /// `out = mul * a + add` — affine scale/shift of one input. Matches
    /// every commutation of the source (and `a - c` as `a + -c`): with the
    /// other operand a literal, which is never NaN, neither `*` nor `+`
    /// depends on operand order.
    Axpb {
        /// Input slot.
        input: usize,
        /// Multiplier.
        mul: f64,
        /// Addend.
        add: f64,
    },
}

/// The value of a single-assignment tasklet: exactly one statement, a plain
/// (unindexed, non-augmented) assignment to the sole output connector of a
/// value that does not read it. Every recognized form is one, and so is
/// every body the JIT's register accumulation takes.
pub fn sole_assignment<'b>(body: &'b [Stmt], outputs: &[String]) -> Option<&'b ExprAst> {
    let (
        [Stmt::Assign {
            target,
            index: None,
            op: None,
            value,
        }],
        [out],
    ) = (body, outputs)
    else {
        return None;
    };
    (target == out && !reads(value, out)).then_some(value)
}

/// Whether evaluating `e` reads the connector or local `name`.
pub fn reads(e: &ExprAst, name: &str) -> bool {
    match e {
        ExprAst::Num(_) => false,
        ExprAst::Name(n) => n == name,
        ExprAst::Index(n, idx) => n == name || idx.iter().any(|i| reads(i, name)),
        ExprAst::Bin(_, a, b) | ExprAst::Cmp(_, a, b) | ExprAst::And(a, b) | ExprAst::Or(a, b) => {
            reads(a, name) || reads(b, name)
        }
        ExprAst::Neg(a) | ExprAst::Not(a) => reads(a, name),
        ExprAst::Call(_, args) => args.iter().any(|a| reads(a, name)),
        ExprAst::Ternary { cond, then, els } => {
            reads(cond, name) || reads(then, name) || reads(els, name)
        }
    }
}

/// The input slot a plain connector read names.
fn input_slot(e: &ExprAst, inputs: &[String]) -> Option<usize> {
    match e {
        ExprAst::Name(n) => inputs.iter().position(|i| i == n),
        _ => None,
    }
}

/// The value of a literal, negated any number of times (negation is
/// exact, so the VM computes the same constant).
fn constant(e: &ExprAst) -> Option<f64> {
    match e {
        ExprAst::Num(v) => Some(*v),
        ExprAst::Neg(inner) => constant(inner).map(|v| -v),
        _ => None,
    }
}

/// A product chain `out = k * x0 * x1 * …` of three or more inputs — the
/// shape of tensor contraction tasklets (the paper's Σ≷ kernel multiplies
/// four operands; one/two-input products are [`Pattern`]s). Evaluated as
/// written: left-folded in source order, from the leading constant if
/// there is one.
#[derive(Clone, Debug, PartialEq)]
pub struct MulChain {
    /// Input slots, in multiplication order.
    pub slots: Vec<usize>,
    /// The leading constant factor `k`.
    pub scale: Option<f64>,
}

/// Attempts to match a single-assignment tasklet as a [`MulChain`].
pub fn recognize_mulchain(
    body: &[Stmt],
    inputs: &[String],
    outputs: &[String],
) -> Option<MulChain> {
    let mut slots = Vec::new();
    let scale = fold_product(sole_assignment(body, outputs)?, inputs, &mut slots)?;
    (slots.len() >= 3).then_some(MulChain { slots, scale })
}

/// Pushes the inputs of a left-folded product onto `slots` and returns its
/// leading constant; `None` when `e` is not one.
fn fold_product(e: &ExprAst, inputs: &[String], slots: &mut Vec<usize>) -> Option<Option<f64>> {
    if let ExprAst::Bin(BinOp::Mul, l, r) = e {
        let scale = fold_product(l, inputs, slots)?;
        slots.push(input_slot(r, inputs)?);
        return Some(scale);
    }
    if let Some(k) = constant(e) {
        return Some(Some(k));
    }
    slots.push(input_slot(e, inputs)?);
    Some(None)
}

/// A scaled sum `out = k * (x0 ± x1 ± …)` of two or more inputs — the
/// shape of stencil tasklets. Evaluated as written: `acc = x0`, then
/// `acc ±= xᵢ` in source order, then `k * acc`.
#[derive(Clone, Debug, PartialEq)]
pub struct LinComb {
    /// Input slots in source order, each flagged when it is subtracted
    /// (the first never is).
    pub terms: Vec<(usize, bool)>,
    /// The leading constant factor `k`, absent for a bare sum.
    pub scale: Option<f64>,
}

/// Attempts to match a single-assignment tasklet as a [`LinComb`] (e.g.
/// `o = 0.2 * (c + w + e + n + s)`).
pub fn recognize_lincomb(body: &[Stmt], inputs: &[String], outputs: &[String]) -> Option<LinComb> {
    let (scale, sum) = match sole_assignment(body, outputs)? {
        ExprAst::Bin(BinOp::Mul, k, sum) => (Some(constant(k)?), &**sum),
        sum => (None, sum),
    };
    let mut terms = Vec::new();
    fold_sum(sum, inputs, &mut terms)?;
    (terms.len() >= 2).then_some(LinComb { terms, scale })
}

/// Pushes the terms of a left-folded sum of inputs onto `terms`; `None`
/// when `e` is not one.
fn fold_sum(e: &ExprAst, inputs: &[String], terms: &mut Vec<(usize, bool)>) -> Option<()> {
    match e {
        ExprAst::Bin(op @ (BinOp::Add | BinOp::Sub), l, r) => {
            fold_sum(l, inputs, terms)?;
            terms.push((input_slot(r, inputs)?, *op == BinOp::Sub));
        }
        e => terms.push((input_slot(e, inputs)?, false)),
    }
    Some(())
}

/// Attempts to recognize the body of a compiled tasklet as a [`Pattern`]:
/// a [`sole_assignment`] whose operands are plain (unindexed) input
/// connector reads or constants.
pub fn recognize(body: &[Stmt], inputs: &[String], outputs: &[String]) -> Option<Pattern> {
    let value = sole_assignment(body, outputs)?;
    let operand = |e: &ExprAst| -> Option<Operand> {
        constant(e)
            .map(Operand::Const)
            .or_else(|| input_slot(e, inputs).map(Operand::Input))
    };
    let slot = |e: &ExprAst| input_slot(e, inputs);
    match value {
        // out = a
        ExprAst::Name(_) => slot(value).map(|input| Pattern::Copy { input }),
        // out = a op b  /  fma shapes
        ExprAst::Bin(op, l, r) => {
            let kind = match op {
                BinOp::Add => BinOpKind::Add,
                BinOp::Sub => BinOpKind::Sub,
                BinOp::Mul => BinOpKind::Mul,
                BinOp::Div => BinOpKind::Div,
                _ => return None,
            };
            // FMA: out = x*y + z  or  out = z + x*y
            if kind == BinOpKind::Add {
                if let ExprAst::Bin(BinOp::Mul, x, y) = &**l {
                    if let (Some(a), Some(b), Some(c)) = (slot(x), slot(y), slot(r)) {
                        return Some(Pattern::Fma { a, b, c });
                    }
                }
                if let ExprAst::Bin(BinOp::Mul, x, y) = &**r {
                    if let (Some(a), Some(b), Some(c)) = (slot(x), slot(y), slot(l)) {
                        return Some(Pattern::Fma { a, b, c });
                    }
                }
            }
            // Axpb: out = c1*x + c2 (and commutations, and c2 - c1*x-free
            // subtract shapes via constant folding below).
            if kind == BinOpKind::Add || kind == BinOpKind::Sub {
                let sign = if kind == BinOpKind::Sub { -1.0 } else { 1.0 };
                let scaled = |e: &ExprAst| -> Option<(usize, f64)> {
                    match e {
                        ExprAst::Bin(BinOp::Mul, x, y) => match (operand(x), operand(y)) {
                            (Some(Operand::Input(i)), Some(Operand::Const(c)))
                            | (Some(Operand::Const(c)), Some(Operand::Input(i))) => Some((i, c)),
                            _ => None,
                        },
                        _ => slot(e).map(|i| (i, 1.0)),
                    }
                };
                if let (Some((i, c1)), Some(Operand::Const(c2))) = (scaled(l), operand(r)) {
                    return Some(Pattern::Axpb {
                        input: i,
                        mul: c1,
                        add: sign * c2,
                    });
                }
                if kind == BinOpKind::Add {
                    if let (Some(Operand::Const(c2)), Some((i, c1))) = (operand(l), scaled(r)) {
                        return Some(Pattern::Axpb {
                            input: i,
                            mul: c1,
                            add: c2,
                        });
                    }
                }
            }
            let a = operand(l)?;
            let b = operand(r)?;
            // At least one side must be an input; const-const would be a
            // degenerate tasklet.
            if matches!((a, b), (Operand::Const(_), Operand::Const(_))) {
                return None;
            }
            Some(Pattern::BinOp { op: kind, a, b })
        }
        ExprAst::Call(f @ (crate::ast::Builtin::Min | crate::ast::Builtin::Max), args) => {
            let [a, b] = &args[..] else { return None };
            let op = if *f == crate::ast::Builtin::Min {
                BinOpKind::Min
            } else {
                BinOpKind::Max
            };
            Some(Pattern::BinOp {
                op,
                a: operand(a)?,
                b: operand(b)?,
            })
        }
        _ => None,
    }
}

/// Applies a recognized binary op to scalars (used by native kernels).
#[inline]
pub fn apply_binop_kind(op: BinOpKind, x: f64, y: f64) -> f64 {
    match op {
        BinOpKind::Add => x + y,
        BinOpKind::Sub => x - y,
        BinOpKind::Mul => x * y,
        BinOpKind::Div => x / y,
        BinOpKind::Min => x.min(y),
        BinOpKind::Max => x.max(y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_tasklet;

    fn rec(code: &str, ins: &[&str], outs: &[&str]) -> Option<Pattern> {
        let body = parse_tasklet(code).unwrap();
        let ins: Vec<String> = ins.iter().map(|s| s.to_string()).collect();
        let outs: Vec<String> = outs.iter().map(|s| s.to_string()).collect();
        recognize(&body, &ins, &outs)
    }

    #[test]
    fn recognizes_copy() {
        assert_eq!(
            rec("o = a", &["a"], &["o"]),
            Some(Pattern::Copy { input: 0 })
        );
    }

    #[test]
    fn recognizes_binops() {
        assert_eq!(
            rec("o = a + b", &["a", "b"], &["o"]),
            Some(Pattern::BinOp {
                op: BinOpKind::Add,
                a: Operand::Input(0),
                b: Operand::Input(1)
            })
        );
        assert_eq!(
            rec("o = a * 2", &["a"], &["o"]),
            Some(Pattern::BinOp {
                op: BinOpKind::Mul,
                a: Operand::Input(0),
                b: Operand::Const(2.0)
            })
        );
        assert_eq!(
            rec("o = min(a, b)", &["a", "b"], &["o"]),
            Some(Pattern::BinOp {
                op: BinOpKind::Min,
                a: Operand::Input(0),
                b: Operand::Input(1)
            })
        );
    }

    #[test]
    fn recognizes_fma_both_orders() {
        assert_eq!(
            rec("o = a * b + c", &["a", "b", "c"], &["o"]),
            Some(Pattern::Fma { a: 0, b: 1, c: 2 })
        );
        assert_eq!(
            rec("o = c + a * b", &["a", "b", "c"], &["o"]),
            Some(Pattern::Fma { a: 0, b: 1, c: 2 })
        );
    }

    #[test]
    fn recognizes_axpb() {
        assert_eq!(
            rec("o = a * 2 + 1", &["a"], &["o"]),
            Some(Pattern::Axpb {
                input: 0,
                mul: 2.0,
                add: 1.0
            })
        );
        assert_eq!(
            rec("o = 1 + 2 * a", &["a"], &["o"]),
            Some(Pattern::Axpb {
                input: 0,
                mul: 2.0,
                add: 1.0
            })
        );
        assert_eq!(
            rec("o = a - 3", &["a"], &["o"]),
            Some(Pattern::Axpb {
                input: 0,
                mul: 1.0,
                add: -3.0
            })
        );
    }

    fn names(n: &[&str]) -> Vec<String> {
        n.iter().map(|s| s.to_string()).collect()
    }

    fn lincomb(code: &str, ins: &[&str]) -> Option<LinComb> {
        recognize_lincomb(&parse_tasklet(code).unwrap(), &names(ins), &names(&["o"]))
    }

    fn mulchain(code: &str, ins: &[&str]) -> Option<MulChain> {
        recognize_mulchain(&parse_tasklet(code).unwrap(), &names(ins), &names(&["o"]))
    }

    #[test]
    fn recognizes_lincomb_as_written() {
        let ins = ["c", "w", "e", "nn", "s"];
        let lc = lincomb("o = 0.2 * (c + w + e + nn + s)", &ins).unwrap();
        let plus = |s| (s, false);
        assert_eq!(lc.terms, vec![plus(0), plus(1), plus(2), plus(3), plus(4)]);
        assert_eq!(lc.scale, Some(0.2));
        // Source order, not slot order; subtraction stays subtraction.
        let lc = lincomb("o = -0.5 * (s - c + w)", &ins).unwrap();
        assert_eq!(lc.terms, vec![(4, false), (0, true), (1, false)]);
        assert_eq!(lc.scale, Some(-0.5));
        let lc = lincomb("o = c + w - e", &ins).unwrap();
        assert_eq!((lc.terms.len(), lc.scale), (3, None));
        // Anything the kernel would have to reassociate is not one: a sum
        // that is not left-folded, a trailing or inner factor, a constant
        // term, a division.
        for code in [
            "o = 0.2 * (c + (w + e))",
            "o = (c + w + e) * 0.2",
            "o = c - 2 * w + e",
            "o = 0.2 * (c + w + 1)",
            "o = (c + w) / 9",
            "o = c * w",
        ] {
            assert_eq!(lincomb(code, &ins), None, "{code}");
        }
    }

    #[test]
    fn recognizes_mulchain_as_written() {
        let ins = ["a", "b", "c", "d"];
        let mc = mulchain("o = a * b * c * d", &ins).unwrap();
        assert_eq!((mc.slots, mc.scale), (vec![0, 1, 2, 3], None));
        let mc = mulchain("o = -2 * c * a * b", &ins).unwrap();
        assert_eq!((mc.slots, mc.scale), (vec![2, 0, 1], Some(-2.0)));
        for code in [
            // Two-input products are Pattern::BinOp territory.
            "o = a * b",
            // Sums disqualify.
            "o = a * b * (c + d)",
            // Nested products and constants past the first factor would
            // reassociate, and a negated input is no constant.
            "o = a * (b * c)",
            "o = w * 0.3 * c * 0.7",
            "o = a * b * c * 2",
            "o = 2 * a * -b * c",
        ] {
            assert_eq!(mulchain(code, &["a", "b", "c", "d", "w"]), None, "{code}");
        }
    }

    #[test]
    fn rejects_complex_bodies() {
        assert_eq!(rec("t = a + b\no = t * 2", &["a", "b"], &["o"]), None);
        assert_eq!(rec("o = w[0] + w[1]", &["w"], &["o"]), None);
        assert_eq!(rec("o = sqrt(a)", &["a"], &["o"]), None);
        assert_eq!(rec("o = 1 + 2", &[], &["o"]), None);
        assert_eq!(rec("if a > 0: o = a", &["a"], &["o"]), None);
    }
}

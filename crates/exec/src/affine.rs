//! Affine pre-solving of symbolic expressions over map parameters.
//!
//! Inside a map, memlet subsets are functions of the map parameters. Rather
//! than evaluating the symbolic tree per iteration (hash lookups per point),
//! we *probe* each expression: evaluate it at the origin and at unit/double
//! offsets of every parameter. If the results are consistent with an affine
//! function (including a cross-term check), the expression is replaced by
//! `base + Σ coeff_i · p_i` — O(params) integer math per point. Expressions
//! that fail the probe (`i % 2`, `i*i`, min/max of params) fall back to
//! symbolic evaluation.

use sdfg_symbolic::{Env, EvalError, Expr};

/// An expression pre-solved against a parameter list.
#[derive(Clone, Debug)]
pub enum Solved {
    /// `base + Σ coeffs[i] * params[i]`.
    Affine {
        /// Constant term (params at zero).
        base: i64,
        /// Per-parameter coefficients.
        coeffs: Vec<i64>,
    },
    /// Constant (no parameter dependence).
    Const(i64),
    /// Must be evaluated symbolically per point.
    Symbolic(Expr),
}

impl Solved {
    /// Evaluates at a parameter point. `env` is only consulted for the
    /// symbolic fallback (it must contain the parameter bindings).
    #[inline]
    pub fn eval(&self, params: &[i64], env: &Env) -> Result<i64, EvalError> {
        match self {
            Solved::Const(v) => Ok(*v),
            Solved::Affine { base, coeffs } => {
                let mut acc = *base;
                for (c, p) in coeffs.iter().zip(params) {
                    acc += c * p;
                }
                Ok(acc)
            }
            Solved::Symbolic(e) => e.eval(env),
        }
    }

    /// True when this does not need the symbolic fallback.
    pub fn is_fast(&self) -> bool {
        !matches!(self, Solved::Symbolic(_))
    }

    /// The coefficient of parameter `i` (0 for constants; `None` for
    /// symbolic fallbacks).
    pub fn coeff(&self, i: usize) -> Option<i64> {
        match self {
            Solved::Const(_) => Some(0),
            Solved::Affine { coeffs, .. } => Some(coeffs.get(i).copied().unwrap_or(0)),
            Solved::Symbolic(_) => None,
        }
    }
}

/// A compile site: everything a memlet subset or stride is solved against.
///
/// `names` are solved as affine variables — iteration variables and
/// launch-time constants alike — and `env0` holds the launch-invariant
/// bindings, the only values that may be folded into a cached artifact.
/// A launch-time constant is a name whose value is fixed for one launch
/// but differs between launches of the same program point: a mutable
/// interstate symbol, or (for an innermost-span kernel) an enclosing map
/// parameter. Carried as a coefficient, `Σ coeff·value` is added to the
/// base when the launch resolves its offsets, so one artifact serves every
/// launch.
///
/// The one exception is an expression that is *not* affine in a
/// launch-time constant (`A[(k*k) % N]`): when `fold` supplies the current
/// values of the leading names, such an expression is re-solved with those
/// names bound to their values, and each value folded that way is recorded
/// in `folded` — the artifact is then valid only where they recur.
pub(crate) struct Solver<'a> {
    /// Names solved as affine variables.
    pub(crate) names: &'a [String],
    /// Launch-invariant bindings.
    pub(crate) env0: &'a Env,
    /// Current values of the leading `fold.len()` names, the launch-time
    /// constants that may be folded; empty forbids folding.
    pub(crate) fold: &'a [i64],
    /// `(index into names, value)` of every constant folded so far.
    pub(crate) folded: Vec<(usize, i64)>,
}

impl<'a> Solver<'a> {
    /// A solver that never folds a launch-time constant.
    pub(crate) fn new(names: &'a [String], env0: &'a Env) -> Solver<'a> {
        Solver {
            names,
            env0,
            fold: &[],
            folded: Vec::new(),
        }
    }

    /// Solves `expr` at this site (see [`solve`]).
    pub(crate) fn solve(&mut self, expr: &Expr) -> Solved {
        let solved = solve(expr, self.names, self.env0);
        if solved.is_fast() || self.fold.is_empty() {
            return solved;
        }
        let free = expr.free_symbols();
        let hit: Vec<usize> = (0..self.fold.len())
            .filter(|&i| free.contains(&self.names[i]))
            .collect();
        if hit.is_empty() {
            return solved;
        }
        // Bind the constants the expression reads and hide their names from
        // the probe (the empty string is no identifier).
        let mut env = self.env0.clone();
        let mut names = self.names.to_vec();
        for &i in &hit {
            env.insert(std::mem::take(&mut names[i]), self.fold[i]);
        }
        let refolded = solve(expr, &names, &env);
        if !refolded.is_fast() {
            return solved;
        }
        self.folded
            .extend(hit.into_iter().map(|i| (i, self.fold[i])));
        refolded
    }
}

/// Probes `expr` for affinity in `params`, with all other symbols bound by
/// `env`. Returns `Solved::Symbolic` when the expression is not affine or
/// references unbound symbols at probe points.
pub fn solve(expr: &Expr, params: &[String], env: &Env) -> Solved {
    // Fast path: constant after substituting env? Check free symbols.
    let free = expr.free_symbols();
    let uses_param = params.iter().any(|p| free.contains(p));
    if !uses_param {
        // Depends only on interstate symbols: evaluate once.
        return match expr.eval(env) {
            Ok(v) => Solved::Const(v),
            Err(_) => Solved::Symbolic(expr.clone()),
        };
    }
    let mut probe_env = env.clone();
    let set = |pe: &mut Env, vals: &[i64], params: &[String]| {
        for (p, v) in params.iter().zip(vals) {
            pe.insert(p.clone(), *v);
        }
    };
    let zeros = vec![0i64; params.len()];
    set(&mut probe_env, &zeros, params);
    let Ok(f0) = expr.eval(&probe_env) else {
        return Solved::Symbolic(expr.clone());
    };
    let mut coeffs = Vec::with_capacity(params.len());
    for i in 0..params.len() {
        let mut v = zeros.clone();
        v[i] = 1;
        set(&mut probe_env, &v, params);
        let Ok(f1) = expr.eval(&probe_env) else {
            return Solved::Symbolic(expr.clone());
        };
        // Linearity check along this axis at a second point.
        v[i] = 5;
        set(&mut probe_env, &v, params);
        let Ok(f5) = expr.eval(&probe_env) else {
            return Solved::Symbolic(expr.clone());
        };
        let c = f1 - f0;
        if f5 - f0 != 5 * c {
            return Solved::Symbolic(expr.clone());
        }
        // And at a negative point (catches |p|-like shapes and floor
        // division asymmetries).
        v[i] = -3;
        set(&mut probe_env, &v, params);
        let Ok(fm3) = expr.eval(&probe_env) else {
            return Solved::Symbolic(expr.clone());
        };
        if fm3 - f0 != -3 * c {
            return Solved::Symbolic(expr.clone());
        }
        coeffs.push(c);
        // Reset.
        set(&mut probe_env, &zeros, params);
    }
    // Cross-term check: f(1,1,...) must equal base + Σ coeffs.
    let ones = vec![1i64; params.len()];
    set(&mut probe_env, &ones, params);
    let Ok(fall) = expr.eval(&probe_env) else {
        return Solved::Symbolic(expr.clone());
    };
    let expected: i64 = f0 + coeffs.iter().sum::<i64>();
    if fall != expected {
        return Solved::Symbolic(expr.clone());
    }
    if coeffs.iter().all(|&c| c == 0) {
        Solved::Const(f0)
    } else {
        Solved::Affine { base: f0, coeffs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_symbolic::{env, parse_expr};

    fn params(ps: &[&str]) -> Vec<String> {
        ps.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn affine_detection() {
        let e = parse_expr("2*i + 3*j + N").unwrap();
        let s = solve(&e, &params(&["i", "j"]), &env(&[("N", 100)]));
        match &s {
            Solved::Affine { base, coeffs } => {
                assert_eq!(*base, 100);
                assert_eq!(coeffs, &vec![2, 3]);
            }
            other => panic!("expected affine, got {other:?}"),
        }
        assert_eq!(s.eval(&[4, 5], &Env::new()).unwrap(), 100 + 8 + 15);
    }

    #[test]
    fn constant_detection() {
        let e = parse_expr("N * 2").unwrap();
        let s = solve(&e, &params(&["i"]), &env(&[("N", 7)]));
        assert!(matches!(s, Solved::Const(14)));
    }

    #[test]
    fn nonaffine_falls_back() {
        for txt in ["i % 2", "i * i", "i // 3", "min(i, j)", "i * j"] {
            let e = parse_expr(txt).unwrap();
            let s = solve(&e, &params(&["i", "j"]), &Env::new());
            assert!(
                matches!(s, Solved::Symbolic(_)),
                "`{txt}` must not be classified affine"
            );
        }
    }

    #[test]
    fn nonaffine_in_fixed_symbols_is_fine() {
        // t % 2 with t an interstate symbol (not a param) is a constant.
        let e = parse_expr("t % 2").unwrap();
        let s = solve(&e, &params(&["i"]), &env(&[("t", 5)]));
        assert!(matches!(s, Solved::Const(1)));
    }

    #[test]
    fn probe_matches_eval_on_random_affine() {
        // Deterministic pseudo-random affine expressions.
        let mut seed = 0x12345u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) % 21) as i64 - 10
        };
        for _ in 0..50 {
            let (a, b, c) = (rng(), rng(), rng());
            let e = parse_expr(&format!("{a}*i + {b}*j + {c}")).unwrap();
            let s = solve(&e, &params(&["i", "j"]), &Env::new());
            for &(i, j) in &[(0i64, 0i64), (3, 7), (-2, 5), (100, -100)] {
                let direct = e.eval(&env(&[("i", i), ("j", j)])).unwrap();
                assert_eq!(s.eval(&[i, j], &Env::new()).unwrap(), direct);
            }
        }
    }

    #[test]
    fn unbound_symbol_falls_back() {
        let e = parse_expr("i + Q").unwrap();
        let s = solve(&e, &params(&["i"]), &Env::new());
        assert!(matches!(s, Solved::Symbolic(_)));
    }
}

//! Affine pre-solving of symbolic expressions over map parameters.
//!
//! Inside a map, memlet subsets are functions of the map parameters. Rather
//! than evaluating the symbolic tree per iteration (hash lookups per point),
//! each expression is decomposed by its structure ([`Expr::affine_in`]) into
//! `base + Σ coeff_i · p_i` — O(params) integer math per point. An
//! expression that is not affine by structure (`i % 2`, `i*i`, a clamp such
//! as `min(i, 50)`) falls back to symbolic evaluation.

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
/// interstate symbol, an enclosing map parameter, a dynamic-range
/// connector, or (for a suffix kernel) a prefix dim of the map itself. Carried as a coefficient, `Σ coeff·value` is added to the
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
        // the solver (the empty string is no identifier).
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

/// Solves `expr` for affinity in `params`, with all other symbols bound by
/// `env`: the exact decomposition of [`Expr::affine_in`]. Returns
/// `Solved::Symbolic` when the expression is not affine in `params` or reads
/// an unbound symbol.
pub fn solve(expr: &Expr, params: &[String], env: &Env) -> Solved {
    match expr.affine_in(params, env) {
        Ok((base, coeffs)) if coeffs.iter().all(|&c| c == 0) => Solved::Const(base),
        Ok((base, coeffs)) => Solved::Affine { base, coeffs },
        Err(_) => Solved::Symbolic(expr.clone()),
    }
}

// --- launch-time affine forms ----------------------------------------------------

/// An affine index or bound: `base + Σ coeff·dim + Σ coeff·constant +
/// Σ coeff·term`. The dims are iteration variables (compiled into a
/// kernel's coefficient tables, or bounded by intervals in the race
/// predicate); the constants are named launch-time values — mutable
/// interstate symbols, enclosing map parameters — folded into the base per
/// launch. A *term* is an expression that reads launch-time constants only
/// but is not affine in them (`t % 2`): it is evaluated whole, once per
/// launch, which is sound only where every constant it reads is fixed for
/// everything the launch runs.
#[derive(Clone, Debug)]
pub(crate) struct NestAffine {
    pub(crate) base: i64,
    /// `(global dim index, coefficient)`, ascending by dim.
    pub(crate) dims: Vec<(usize, i64)>,
    /// `(launch-time constant, coefficient)`.
    pub(crate) muts: Vec<(String, i64)>,
    /// `(launch-evaluated expression, coefficient)`.
    pub(crate) terms: Vec<(Expr, i64)>,
}

/// Where the names of a compile site (see [`Solver`]) land: dims are
/// iteration variables, the other names launch-time constants.
pub(crate) struct Site {
    pub(crate) names: Vec<String>,
    /// Global dim per name position; `None` = launch-time constant.
    pub(crate) dim_of: Vec<Option<usize>>,
}

impl Site {
    /// What `sym` is at this site: `Some(Some(d))` the iteration variable
    /// of dim `d`, `Some(None)` a launch-time constant, `None` no name of
    /// the site.
    fn kind(&self, sym: &str) -> Option<Option<usize>> {
        let i = self.names.iter().position(|n| n == sym)?;
        Some(self.dim_of[i])
    }
}

impl NestAffine {
    pub(crate) fn constant(base: i64) -> NestAffine {
        NestAffine {
            base,
            dims: Vec::new(),
            muts: Vec::new(),
            terms: Vec::new(),
        }
    }

    pub(crate) fn from_solved(s: &Solved, site: &Site) -> Option<NestAffine> {
        match s {
            Solved::Const(v) => Some(NestAffine::constant(*v)),
            Solved::Affine { base, coeffs } => {
                let mut out = NestAffine::constant(*base);
                for (i, &c) in coeffs.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    match site.dim_of.get(i)? {
                        Some(d) => out.dims.push((*d, c)),
                        None => out.muts.push((site.names[i].clone(), c)),
                    }
                }
                out.dims.sort_by_key(|&(d, _)| d);
                Some(out)
            }
            Solved::Symbolic(_) => None,
        }
    }

    /// Solves `e` at `site`. An expression that is not affine in the
    /// site's names may still be admitted, with `launch_terms`, one
    /// additive term at a time: a term that reads only launch-time
    /// constants (and launch-invariant `env0` names) becomes a term of the
    /// form. `Err` says which index is not affine in which name.
    pub(crate) fn from_expr(
        e: &Expr,
        site: &Site,
        env0: &Env,
        launch_terms: bool,
    ) -> Result<NestAffine, String> {
        if let Some(a) = NestAffine::from_solved(&solve(e, &site.names, env0), site) {
            return Ok(a);
        }
        // A term may read launch-time constants and launch-invariant names.
        let constant = |s: &String| env0.contains_key(s) || site.kind(s) == Some(None);
        // Name the sub-term the decomposition stops at (`min(50, i)` in
        // `min(i, 50) + 1`) and the name that makes it non-affine.
        let why = |t: &Expr| {
            let bad = t
                .affine_in(&site.names, env0)
                .err()
                .unwrap_or_else(|| t.clone());
            let free = bad.free_symbols();
            let sym = free
                .iter()
                .find(|s| matches!(site.kind(s), Some(Some(_))))
                .or_else(|| free.iter().find(|s| !constant(s)))
                .or_else(|| free.iter().next());
            let role = |s: &str| match site.kind(s) {
                Some(Some(_)) => "iteration variable",
                Some(None) => "launch-time constant",
                None => "unbound symbol",
            };
            let at = match bad {
                Expr::Sym(_) => String::new(),
                _ if bad == *e => String::new(),
                _ => format!(" at `{bad}`"),
            };
            match sym {
                Some(s) => format!("index `{e}` is not affine in {} `{s}`{at}", role(s)),
                None => format!("index `{e}` does not evaluate{at}"),
            }
        };
        if !launch_terms {
            return Err(why(e));
        }
        let parts = match e {
            Expr::Add(ts) => &ts[..],
            _ => std::slice::from_ref(e),
        };
        let mut out = NestAffine::constant(0);
        for t in parts {
            match NestAffine::from_solved(&solve(t, &site.names, env0), site) {
                Some(a) => out.add_scaled(&a, 1).ok_or_else(|| why(t))?,
                None if t.free_symbols().iter().all(constant) => out.terms.push((t.clone(), 1)),
                None => return Err(why(t)),
            }
        }
        Ok(out)
    }

    /// `self += k·other`; `None` on i64 overflow.
    pub(crate) fn add_scaled(&mut self, other: &NestAffine, k: i64) -> Option<()> {
        self.base = self.base.checked_add(other.base.checked_mul(k)?)?;
        for &(d, c) in &other.dims {
            let c = c.checked_mul(k)?;
            match self.dims.iter_mut().find(|(dd, _)| *dd == d) {
                Some((_, cc)) => *cc = cc.checked_add(c)?,
                None => self.dims.push((d, c)),
            }
        }
        self.dims.retain(|&(_, c)| c != 0);
        self.dims.sort_by_key(|&(d, _)| d);
        for (n, c) in &other.muts {
            self.muts.push((n.clone(), c.checked_mul(k)?));
        }
        for (t, c) in &other.terms {
            self.terms.push((t.clone(), c.checked_mul(k)?));
        }
        Some(())
    }

    /// The launch-time constant part: base plus the named-constant terms
    /// (`consts`) and the launch-evaluated terms (in `env`). `None` on an
    /// unbound name or i64 overflow.
    pub(crate) fn base_at(&self, consts: &dyn Fn(&str) -> Option<i64>, env: &Env) -> Option<i64> {
        let mut acc = self.base;
        for (name, c) in &self.muts {
            acc = acc.checked_add(c.checked_mul(consts(name)?)?)?;
        }
        for (t, c) in &self.terms {
            acc = acc.checked_add(c.checked_mul(t.eval(env).ok()?)?)?;
        }
        Some(acc)
    }

    pub(crate) fn coeff(&self, d: usize) -> i64 {
        self.dims
            .iter()
            .find(|&&(dd, _)| dd == d)
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }

    pub(crate) fn reads_any(&self, dims: &[usize]) -> bool {
        self.dims.iter().any(|(d, _)| dims.contains(d))
    }

    /// `[min, max]` over the per-dim iteration intervals `ivals`, from a
    /// launch's resolved `base`.
    pub(crate) fn interval(&self, base: i128, ivals: &[(i128, i128)]) -> (i128, i128) {
        sdfg_symbolic::dependence::interval(base, self.dims.iter().copied(), ivals)
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
        for txt in [
            "i % 2",
            "i * i",
            "i // 3",
            "min(i, j)",
            "i * j",
            "min(i, 50)",
            "max(i, 4000)",
            "min(i + 1, N - 1)",
        ] {
            let e = parse_expr(txt).unwrap();
            let s = solve(&e, &params(&["i", "j"]), &env(&[("N", 4096)]));
            assert!(
                matches!(s, Solved::Symbolic(_)),
                "`{txt}` must not be classified affine"
            );
        }
    }

    #[test]
    fn decline_names_the_offending_sub_term() {
        let site = Site {
            names: params(&["i", "t"]),
            dim_of: vec![Some(0), None],
        };
        let why = |txt: &str| {
            NestAffine::from_expr(&parse_expr(txt).unwrap(), &site, &Env::new(), false).unwrap_err()
        };
        assert_eq!(
            why("t % 2"),
            "index `t % 2` is not affine in launch-time constant `t`"
        );
        assert_eq!(
            why("2*i + i // 8"),
            "index `2*i + i // 8` is not affine in iteration variable `i` at `i // 8`"
        );
        assert_eq!(
            why("i + Q"),
            "index `Q + i` is not affine in unbound symbol `Q`"
        );
    }

    #[test]
    fn nonaffine_in_fixed_symbols_is_fine() {
        // t % 2 with t an interstate symbol (not a param) is a constant.
        let e = parse_expr("t % 2").unwrap();
        let s = solve(&e, &params(&["i"]), &env(&[("t", 5)]));
        assert!(matches!(s, Solved::Const(1)));
    }

    #[test]
    fn solve_matches_eval_on_random_affine() {
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

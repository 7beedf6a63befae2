//! Canonical symbolic integer expressions.
//!
//! Expressions are kept in a normal form: n-ary sums of products, constants
//! folded, like terms collected, operands sorted. Two expressions that are
//! syntactically equal after [`Expr::simplify`] compare equal with `==` and
//! hash identically, which the transformation pattern matcher relies on.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// A symbolic integer expression.
///
/// Invariant (maintained by the smart constructors and [`Expr::simplify`]):
/// `Add`/`Mul` have ≥ 2 operands, are flattened (no directly nested node of
/// the same kind), have at most one leading integer constant, and operands
/// are sorted by [`Expr::cmp_key`].
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Free symbol (e.g. an SDFG symbol such as `N` or a map parameter `i`).
    Sym(String),
    /// N-ary sum.
    Add(Vec<Expr>),
    /// N-ary product.
    Mul(Vec<Expr>),
    /// Floor division (rounds toward negative infinity, like Python `//`).
    FloorDiv(Box<Expr>, Box<Expr>),
    /// Euclidean modulo with the sign of the divisor (Python `%`).
    Mod(Box<Expr>, Box<Expr>),
    /// Binary minimum.
    Min(Box<Expr>, Box<Expr>),
    /// Binary maximum.
    Max(Box<Expr>, Box<Expr>),
}

/// Error produced when evaluating an expression with missing symbols or a
/// division by zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A symbol had no binding in the environment.
    UnboundSymbol(String),
    /// `//` or `%` by zero.
    DivisionByZero,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundSymbol(s) => write!(f, "unbound symbol `{s}`"),
            EvalError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for EvalError {}

impl Default for Expr {
    fn default() -> Self {
        Expr::Int(0)
    }
}

/// Floor division (rounds toward -∞). `b` must be nonzero.
pub fn floor_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Modulo paired with [`floor_div`]: `a == floor_div(a,b)*b + floor_mod(a,b)`.
pub fn floor_mod(a: i64, b: i64) -> i64 {
    a - floor_div(a, b) * b
}

/// Assumptions about symbols, used by the conservative comparison helpers.
///
/// In SDFGs, size symbols (array dimensions, map extents) are assumed
/// positive; this mirrors DaCe's `dace.symbol(positive=True)` default.
#[derive(Clone, Debug, Default)]
pub struct Assumptions {
    /// Symbols known to be strictly positive.
    pub positive: std::collections::HashSet<String>,
    /// Treat *all* symbols as nonnegative (common case for shapes/indices).
    pub all_nonnegative: bool,
    /// Treat *all* symbols as strictly positive (DaCe's default for size
    /// symbols; used by memlet propagation).
    pub all_positive: bool,
}

impl Assumptions {
    /// Assumptions where every symbol is nonnegative.
    pub fn nonnegative() -> Self {
        Assumptions {
            all_nonnegative: true,
            ..Default::default()
        }
    }

    fn sym_lower_bound(&self, name: &str) -> Option<i64> {
        if self.all_positive || self.positive.contains(name) {
            Some(1)
        } else if self.all_nonnegative {
            Some(0)
        } else {
            None
        }
    }
}

impl Expr {
    /// Integer constant.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    /// Named symbol.
    pub fn sym(name: impl Into<String>) -> Expr {
        Expr::Sym(name.into())
    }

    /// Zero.
    pub fn zero() -> Expr {
        Expr::Int(0)
    }

    /// One.
    pub fn one() -> Expr {
        Expr::Int(1)
    }

    /// Sum of operands (simplified).
    pub fn add(ops: impl IntoIterator<Item = Expr>) -> Expr {
        simplify_add(ops.into_iter().collect())
    }

    /// Product of operands (simplified).
    pub fn mul(ops: impl IntoIterator<Item = Expr>) -> Expr {
        simplify_mul(ops.into_iter().collect())
    }

    /// `self - other` (simplified).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::add([self, other.neg()])
    }

    /// Negation (simplified).
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Expr {
        Expr::mul([Expr::Int(-1), self])
    }

    /// Floor division (simplified).
    pub fn floor_div_by(self, rhs: Expr) -> Expr {
        simplify_floordiv(self, rhs)
    }

    /// Modulo (simplified).
    pub fn modulo(self, rhs: Expr) -> Expr {
        simplify_mod(self, rhs)
    }

    /// Binary minimum (simplified).
    pub fn min2(self, rhs: Expr) -> Expr {
        simplify_min(self, rhs)
    }

    /// Binary maximum (simplified).
    pub fn max2(self, rhs: Expr) -> Expr {
        simplify_max(self, rhs)
    }

    /// Ceiling division `⌈self / rhs⌉` expressed with floor division.
    pub fn ceil_div_by(self, rhs: Expr) -> Expr {
        Expr::add([self, rhs.clone(), Expr::Int(-1)]).floor_div_by(rhs)
    }

    /// Returns the constant value if this expression is a literal.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Expr::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// True if this is the literal `0`.
    pub fn is_zero(&self) -> bool {
        matches!(self, Expr::Int(0))
    }

    /// True if this is the literal `1`.
    pub fn is_one(&self) -> bool {
        matches!(self, Expr::Int(1))
    }

    /// Collects the free symbols into `out`.
    pub fn collect_symbols(&self, out: &mut std::collections::BTreeSet<String>) {
        match self {
            Expr::Int(_) => {}
            Expr::Sym(s) => {
                out.insert(s.clone());
            }
            Expr::Add(v) | Expr::Mul(v) => {
                for e in v {
                    e.collect_symbols(out);
                }
            }
            Expr::FloorDiv(a, b) | Expr::Mod(a, b) | Expr::Min(a, b) | Expr::Max(a, b) => {
                a.collect_symbols(out);
                b.collect_symbols(out);
            }
        }
    }

    /// The set of free symbols.
    pub fn free_symbols(&self) -> std::collections::BTreeSet<String> {
        let mut s = Default::default();
        self.collect_symbols(&mut s);
        s
    }

    /// True if `name` occurs free in the expression.
    pub fn has_symbol(&self, name: &str) -> bool {
        match self {
            Expr::Int(_) => false,
            Expr::Sym(s) => s == name,
            Expr::Add(v) | Expr::Mul(v) => v.iter().any(|e| e.has_symbol(name)),
            Expr::FloorDiv(a, b) | Expr::Mod(a, b) | Expr::Min(a, b) | Expr::Max(a, b) => {
                a.has_symbol(name) || b.has_symbol(name)
            }
        }
    }

    /// Substitutes `name := value` and re-simplifies.
    pub fn subs(&self, name: &str, value: &Expr) -> Expr {
        match self {
            Expr::Int(_) => self.clone(),
            Expr::Sym(s) => {
                if s == name {
                    value.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Add(v) => Expr::add(v.iter().map(|e| e.subs(name, value))),
            Expr::Mul(v) => Expr::mul(v.iter().map(|e| e.subs(name, value))),
            Expr::FloorDiv(a, b) => a.subs(name, value).floor_div_by(b.subs(name, value)),
            Expr::Mod(a, b) => a.subs(name, value).modulo(b.subs(name, value)),
            Expr::Min(a, b) => a.subs(name, value).min2(b.subs(name, value)),
            Expr::Max(a, b) => a.subs(name, value).max2(b.subs(name, value)),
        }
    }

    /// Substitutes many symbols at once.
    pub fn subs_map(&self, map: &BTreeMap<String, Expr>) -> Expr {
        if map.is_empty() {
            return self.clone();
        }
        match self {
            Expr::Int(_) => self.clone(),
            Expr::Sym(s) => map.get(s).cloned().unwrap_or_else(|| self.clone()),
            Expr::Add(v) => Expr::add(v.iter().map(|e| e.subs_map(map))),
            Expr::Mul(v) => Expr::mul(v.iter().map(|e| e.subs_map(map))),
            Expr::FloorDiv(a, b) => a.subs_map(map).floor_div_by(b.subs_map(map)),
            Expr::Mod(a, b) => a.subs_map(map).modulo(b.subs_map(map)),
            Expr::Min(a, b) => a.subs_map(map).min2(b.subs_map(map)),
            Expr::Max(a, b) => a.subs_map(map).max2(b.subs_map(map)),
        }
    }

    /// Renames a symbol (substitution by another symbol).
    pub fn rename(&self, from: &str, to: &str) -> Expr {
        self.subs(from, &Expr::sym(to))
    }

    /// Evaluates under the environment.
    pub fn eval(&self, env: &crate::Env) -> Result<i64, EvalError> {
        match self {
            Expr::Int(v) => Ok(*v),
            Expr::Sym(s) => env
                .get(s)
                .copied()
                .ok_or_else(|| EvalError::UnboundSymbol(s.clone())),
            Expr::Add(v) => {
                let mut acc = 0i64;
                for e in v {
                    acc = acc.wrapping_add(e.eval(env)?);
                }
                Ok(acc)
            }
            Expr::Mul(v) => {
                let mut acc = 1i64;
                for e in v {
                    acc = acc.wrapping_mul(e.eval(env)?);
                }
                Ok(acc)
            }
            Expr::FloorDiv(a, b) => {
                let (a, b) = (a.eval(env)?, b.eval(env)?);
                if b == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                Ok(floor_div(a, b))
            }
            Expr::Mod(a, b) => {
                let (a, b) = (a.eval(env)?, b.eval(env)?);
                if b == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                Ok(floor_mod(a, b))
            }
            Expr::Min(a, b) => Ok(a.eval(env)?.min(b.eval(env)?)),
            Expr::Max(a, b) => Ok(a.eval(env)?.max(b.eval(env)?)),
        }
    }

    /// Decomposes `self` exactly as `base + Σ coeffs[k]·names[k]`, by
    /// structure rather than by sampling: sums add, a product may have at
    /// most one factor that reads a name, and `//`, `%`, `min` and `max` may
    /// only appear in a sub-term that reads none. A sub-term that reads no
    /// name is evaluated under `env`, which must bind every other symbol.
    ///
    /// `Err` is the first offending sub-term: a clamp or division of a name
    /// (`min(50, i)`, `t // 8`), a product of names (`i*j`), an unbound
    /// symbol, or the sub-term whose coefficients overflow i64.
    pub fn affine_in(&self, names: &[String], env: &crate::Env) -> Result<(i64, Vec<i64>), Expr> {
        let reads = |e: &Expr| names.iter().any(|n| e.has_symbol(n));
        if !reads(self) {
            let value = self.eval(env).map_err(|e| match e {
                EvalError::UnboundSymbol(s) => Expr::Sym(s),
                EvalError::DivisionByZero => self.clone(),
            })?;
            return Ok((value, vec![0; names.len()]));
        }
        let overflow = || self.clone();
        match self {
            // A repeated name is the innermost binding: its last occurrence.
            Expr::Sym(s) => {
                let mut coeffs = vec![0; names.len()];
                if let Some(k) = names.iter().rposition(|n| n == s) {
                    coeffs[k] = 1;
                }
                Ok((0, coeffs))
            }
            Expr::Add(terms) => {
                let (mut base, mut coeffs) = (0i64, vec![0i64; names.len()]);
                for t in terms {
                    let (b, cs) = t.affine_in(names, env)?;
                    base = base.checked_add(b).ok_or_else(overflow)?;
                    for (c, d) in coeffs.iter_mut().zip(cs) {
                        *c = c.checked_add(d).ok_or_else(overflow)?;
                    }
                }
                Ok((base, coeffs))
            }
            Expr::Mul(factors) => {
                let mut linear = factors.iter().filter(|f| reads(f));
                let (Some(f), None) = (linear.next(), linear.next()) else {
                    return Err(self.clone());
                };
                let mut k = 1i64;
                for g in factors.iter().filter(|g| !reads(g)) {
                    k = k
                        .checked_mul(g.affine_in(names, env)?.0)
                        .ok_or_else(overflow)?;
                }
                let scale = |x: i64| x.checked_mul(k).ok_or_else(overflow);
                let (b, cs) = f.affine_in(names, env)?;
                Ok((
                    scale(b)?,
                    cs.into_iter().map(scale).collect::<Result<_, _>>()?,
                ))
            }
            _ => Err(self.clone()),
        }
    }

    /// The stride of `self` along `name`: the coefficient of `name` in the
    /// additive terms that read it, decomposed by [`Expr::affine_in`] with
    /// every other symbol of those terms counted as a name too, so that a
    /// symbolic stride (`N*i`) is a product of names and an `Err`.
    pub fn stride_in(&self, name: &str) -> Result<i64, Expr> {
        let terms = match self {
            Expr::Add(ts) => &ts[..],
            e => std::slice::from_ref(e),
        };
        let reading = Expr::add(terms.iter().filter(|t| t.has_symbol(name)).cloned());
        let names: Vec<String> = std::iter::once(name.to_string())
            .chain(reading.free_symbols().into_iter().filter(|s| s != name))
            .collect();
        Ok(reading.affine_in(&names, &crate::Env::new())?.1[0])
    }

    /// Re-canonicalizes the whole tree. The smart constructors already keep
    /// results canonical; this is the entry point for externally constructed
    /// trees (e.g. deserialized ones).
    pub fn simplify(&self) -> Expr {
        match self {
            Expr::Int(_) | Expr::Sym(_) => self.clone(),
            Expr::Add(v) => Expr::add(v.iter().map(|e| e.simplify())),
            Expr::Mul(v) => Expr::mul(v.iter().map(|e| e.simplify())),
            Expr::FloorDiv(a, b) => a.simplify().floor_div_by(b.simplify()),
            Expr::Mod(a, b) => a.simplify().modulo(b.simplify()),
            Expr::Min(a, b) => a.simplify().min2(b.simplify()),
            Expr::Max(a, b) => a.simplify().max2(b.simplify()),
        }
    }

    /// A conservative constant lower bound under `assumptions`, when one is
    /// derivable. `None` means "unknown" (never "unbounded below" — that is
    /// also `None`).
    pub fn lower_bound(&self, assumptions: &Assumptions) -> Option<i64> {
        match self {
            Expr::Int(v) => Some(*v),
            Expr::Sym(s) => assumptions.sym_lower_bound(s),
            Expr::Add(v) => {
                let mut acc = 0i64;
                for e in v {
                    acc = acc.checked_add(e.lower_bound(assumptions)?)?;
                }
                Some(acc)
            }
            Expr::Mul(v) => {
                // Sound only when every factor is provably nonnegative.
                let mut acc = 1i64;
                for e in v {
                    let lb = e.lower_bound(assumptions)?;
                    if lb < 0 {
                        return None;
                    }
                    acc = acc.checked_mul(lb)?;
                }
                Some(acc)
            }
            Expr::FloorDiv(a, b) => {
                // Nonnegative numerator over a positive divisor stays
                // nonnegative; tighter bounds need the divisor's upper
                // bound, which we do not track.
                if a.lower_bound(assumptions)? >= 0 && b.lower_bound(assumptions)? >= 1 {
                    Some(0)
                } else {
                    None
                }
            }
            Expr::Mod(_, b) => {
                // Floor-mod sign follows the divisor.
                if b.lower_bound(assumptions)? >= 1 {
                    Some(0)
                } else {
                    None
                }
            }
            Expr::Min(a, b) => Some(a.lower_bound(assumptions)?.min(b.lower_bound(assumptions)?)),
            Expr::Max(a, b) => match (a.lower_bound(assumptions), b.lower_bound(assumptions)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (Some(x), None) | (None, Some(x)) => Some(x),
                (None, None) => None,
            },
        }
    }

    /// Conservative test: is `self >= 0` provable under `assumptions`?
    ///
    /// Returns `true` only when provable; `false` means "unknown or false".
    pub fn is_nonnegative(&self, assumptions: &Assumptions) -> bool {
        self.lower_bound(assumptions).is_some_and(|lb| lb >= 0)
    }

    /// Conservative test: is `self > 0` provable under `assumptions`?
    pub fn is_positive(&self, assumptions: &Assumptions) -> bool {
        self.lower_bound(assumptions).is_some_and(|lb| lb >= 1)
    }

    /// Re-simplifies, additionally folding `min`/`max` that become
    /// decidable under `assumptions` (e.g. `min(0, N - 1)` → `0` when all
    /// symbols are positive). Used by memlet propagation.
    pub fn refine(&self, assumptions: &Assumptions) -> Expr {
        match self {
            Expr::Int(_) | Expr::Sym(_) => self.clone(),
            Expr::Add(v) => Expr::add(v.iter().map(|e| e.refine(assumptions))),
            Expr::Mul(v) => Expr::mul(v.iter().map(|e| e.refine(assumptions))),
            Expr::FloorDiv(a, b) => a.refine(assumptions).floor_div_by(b.refine(assumptions)),
            Expr::Mod(a, b) => a.refine(assumptions).modulo(b.refine(assumptions)),
            Expr::Min(a, b) => {
                let (a, b) = (a.refine(assumptions), b.refine(assumptions));
                match a.sym_cmp(&b, assumptions) {
                    Some(Ordering::Greater) => b,
                    Some(_) => a,
                    None => {
                        if a.clone().sub(b.clone()).is_nonnegative(assumptions) {
                            b
                        } else if b.clone().sub(a.clone()).is_nonnegative(assumptions) {
                            a
                        } else {
                            a.min2(b)
                        }
                    }
                }
            }
            Expr::Max(a, b) => {
                let (a, b) = (a.refine(assumptions), b.refine(assumptions));
                match a.sym_cmp(&b, assumptions) {
                    Some(Ordering::Less) => b,
                    Some(_) => a,
                    None => {
                        if a.clone().sub(b.clone()).is_nonnegative(assumptions) {
                            a
                        } else if b.clone().sub(a.clone()).is_nonnegative(assumptions) {
                            b
                        } else {
                            a.max2(b)
                        }
                    }
                }
            }
        }
    }

    /// Conservative symbolic comparison: `Some(ordering)` if `self` vs
    /// `other` is decidable under `assumptions`, otherwise `None`.
    pub fn sym_cmp(&self, other: &Expr, assumptions: &Assumptions) -> Option<Ordering> {
        if self == other {
            return Some(Ordering::Equal);
        }
        let diff = self.clone().sub(other.clone());
        if let Some(v) = diff.as_int() {
            return Some(v.cmp(&0));
        }
        if diff.is_positive(assumptions) {
            return Some(Ordering::Greater);
        }
        if diff.clone().neg().is_positive(assumptions) {
            return Some(Ordering::Less);
        }
        if diff.is_nonnegative(assumptions) {
            // >= 0 but not provably > 0: cannot produce a strict ordering
            // without equality knowledge.
            return None;
        }
        None
    }

    /// Sort key establishing the canonical operand order. Constants first,
    /// then symbols alphabetically, then compound terms structurally.
    fn kind_rank(&self) -> u8 {
        match self {
            Expr::Int(_) => 0,
            Expr::Sym(_) => 1,
            Expr::Mul(_) => 2,
            Expr::Add(_) => 3,
            Expr::FloorDiv(..) => 4,
            Expr::Mod(..) => 5,
            Expr::Min(..) => 6,
            Expr::Max(..) => 7,
        }
    }

    /// Total ordering used for canonicalization.
    pub fn cmp_key(&self, other: &Expr) -> Ordering {
        match (self, other) {
            (Expr::Int(a), Expr::Int(b)) => a.cmp(b),
            (Expr::Sym(a), Expr::Sym(b)) => a.cmp(b),
            (Expr::Add(a), Expr::Add(b)) | (Expr::Mul(a), Expr::Mul(b)) => {
                let mut it_a = a.iter();
                let mut it_b = b.iter();
                loop {
                    match (it_a.next(), it_b.next()) {
                        (None, None) => return Ordering::Equal,
                        (None, Some(_)) => return Ordering::Less,
                        (Some(_), None) => return Ordering::Greater,
                        (Some(x), Some(y)) => match x.cmp_key(y) {
                            Ordering::Equal => continue,
                            o => return o,
                        },
                    }
                }
            }
            (Expr::FloorDiv(a1, b1), Expr::FloorDiv(a2, b2))
            | (Expr::Mod(a1, b1), Expr::Mod(a2, b2))
            | (Expr::Min(a1, b1), Expr::Min(a2, b2))
            | (Expr::Max(a1, b1), Expr::Max(a2, b2)) => a1.cmp_key(a2).then_with(|| b1.cmp_key(b2)),
            _ => self.kind_rank().cmp(&other.kind_rank()),
        }
    }
}

/// Splits a canonical product into `(constant coefficient, residual term)`.
/// The residual is `Int(1)` for pure constants.
fn split_coeff(e: &Expr) -> (i64, Expr) {
    match e {
        Expr::Int(v) => (*v, Expr::Int(1)),
        Expr::Mul(v) => {
            if let Some(Expr::Int(c)) = v.first() {
                let rest: Vec<Expr> = v[1..].to_vec();
                let term = if rest.len() == 1 {
                    rest.into_iter().next().unwrap()
                } else {
                    Expr::Mul(rest)
                };
                (*c, term)
            } else {
                (1, e.clone())
            }
        }
        _ => (1, e.clone()),
    }
}

/// Rebuilds `coeff * term` in canonical form.
fn with_coeff(coeff: i64, term: Expr) -> Expr {
    match coeff {
        0 => Expr::Int(0),
        1 => term,
        c => {
            if term.is_one() {
                Expr::Int(c)
            } else if let Expr::Mul(mut v) = term {
                v.insert(0, Expr::Int(c));
                Expr::Mul(v)
            } else {
                Expr::Mul(vec![Expr::Int(c), term])
            }
        }
    }
}

fn simplify_add(ops: Vec<Expr>) -> Expr {
    // Flatten, fold constants, collect like terms.
    let mut constant = 0i64;
    let mut terms: Vec<(Expr, i64)> = Vec::new(); // (term, coefficient) in first-seen order
    let mut stack: Vec<Expr> = ops;
    stack.reverse();
    while let Some(e) = stack.pop() {
        match e {
            Expr::Add(v) => {
                for x in v.into_iter().rev() {
                    stack.push(x);
                }
            }
            Expr::Int(v) => constant = constant.wrapping_add(v),
            other => {
                let (c, t) = split_coeff(&other);
                if t.is_one() {
                    constant = constant.wrapping_add(c);
                    continue;
                }
                if let Some(entry) = terms.iter_mut().find(|(tt, _)| *tt == t) {
                    entry.1 = entry.1.wrapping_add(c);
                } else {
                    terms.push((t, c));
                }
            }
        }
    }
    let mut out: Vec<Expr> = terms
        .into_iter()
        .filter(|(_, c)| *c != 0)
        .map(|(t, c)| with_coeff(c, t))
        .collect();
    out.sort_by(|a, b| a.cmp_key(b));
    if constant != 0 {
        out.insert(0, Expr::Int(constant));
    }
    match out.len() {
        0 => Expr::Int(0),
        1 => out.into_iter().next().unwrap(),
        _ => Expr::Add(out),
    }
}

fn simplify_mul(ops: Vec<Expr>) -> Expr {
    let mut constant = 1i64;
    let mut factors: Vec<Expr> = Vec::new();
    let mut stack: Vec<Expr> = ops;
    stack.reverse();
    while let Some(e) = stack.pop() {
        match e {
            Expr::Mul(v) => {
                for x in v.into_iter().rev() {
                    stack.push(x);
                }
            }
            Expr::Int(0) => return Expr::Int(0),
            Expr::Int(v) => constant = constant.wrapping_mul(v),
            other => factors.push(other),
        }
    }
    if constant == 0 {
        return Expr::Int(0);
    }
    // Distribute the constant into the first sum factor so that
    // `2*(a+b)*x` and `(2*a + 2*b)*x` canonicalize identically. (Canonical
    // `Add` operands are never sums themselves, so this terminates.)
    if constant != 1 {
        if let Some(pos) = factors.iter().position(|f| matches!(f, Expr::Add(_))) {
            let Expr::Add(terms) = factors.remove(pos) else {
                unreachable!()
            };
            let distributed = simplify_add(
                terms
                    .into_iter()
                    .map(|t| simplify_mul(vec![Expr::Int(constant), t]))
                    .collect(),
            );
            factors.push(distributed);
            return simplify_mul(factors);
        }
    }
    factors.sort_by(|a, b| a.cmp_key(b));
    if factors.is_empty() {
        return Expr::Int(constant);
    }
    if constant != 1 {
        factors.insert(0, Expr::Int(constant));
    }
    if factors.len() == 1 {
        factors.into_iter().next().unwrap()
    } else {
        Expr::Mul(factors)
    }
}

fn simplify_floordiv(a: Expr, b: Expr) -> Expr {
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        if y != 0 {
            return Expr::Int(floor_div(x, y));
        }
    }
    if b.is_one() {
        return a;
    }
    if a.is_zero() {
        return Expr::Int(0);
    }
    // (c*t) // c == t for positive constant c dividing all coefficients.
    if let Some(c) = b.as_int() {
        if c > 0 {
            if let Some(q) = divide_exact(&a, c) {
                return q;
            }
        }
    }
    Expr::FloorDiv(Box::new(a), Box::new(b))
}

/// Exact division of a canonical sum/product by a positive constant, when
/// every coefficient is divisible. Returns `None` otherwise.
fn divide_exact(e: &Expr, c: i64) -> Option<Expr> {
    match e {
        Expr::Int(v) => {
            if v % c == 0 {
                Some(Expr::Int(v / c))
            } else {
                None
            }
        }
        Expr::Add(terms) => {
            let parts: Option<Vec<Expr>> = terms.iter().map(|t| divide_exact(t, c)).collect();
            parts.map(simplify_add)
        }
        other => {
            let (coeff, term) = split_coeff(other);
            if coeff % c == 0 {
                Some(with_coeff(coeff / c, term))
            } else {
                None
            }
        }
    }
}

fn simplify_mod(a: Expr, b: Expr) -> Expr {
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        if y != 0 {
            return Expr::Int(floor_mod(x, y));
        }
    }
    if b.is_one() {
        return Expr::Int(0);
    }
    if a.is_zero() {
        return Expr::Int(0);
    }
    if a == b {
        return Expr::Int(0);
    }
    Expr::Mod(Box::new(a), Box::new(b))
}

fn simplify_min(a: Expr, b: Expr) -> Expr {
    if a == b {
        return a;
    }
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        return Expr::Int(x.min(y));
    }
    if let Some(o) = a.sym_cmp(&b, &Assumptions::default()) {
        return if o == Ordering::Greater { b } else { a };
    }
    let (a, b) = if a.cmp_key(&b) == Ordering::Greater {
        (b, a)
    } else {
        (a, b)
    };
    Expr::Min(Box::new(a), Box::new(b))
}

fn simplify_max(a: Expr, b: Expr) -> Expr {
    if a == b {
        return a;
    }
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        return Expr::Int(x.max(y));
    }
    if let Some(o) = a.sym_cmp(&b, &Assumptions::default()) {
        return if o == Ordering::Less { b } else { a };
    }
    let (a, b) = if a.cmp_key(&b) == Ordering::Greater {
        (b, a)
    } else {
        (a, b)
    };
    Expr::Max(Box::new(a), Box::new(b))
}

// --- operator overloads -----------------------------------------------------

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::add([self, rhs])
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::sub(self, rhs)
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::mul([self, rhs])
    }
}

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::neg(self)
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Expr {
        Expr::Int(v)
    }
}

impl From<&str> for Expr {
    fn from(s: &str) -> Expr {
        // Accept either a bare symbol/number or a full expression.
        crate::parse::parse_expr(s).unwrap_or_else(|e| panic!("invalid expression `{s}`: {e}"))
    }
}

// --- display -----------------------------------------------------------------

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn prec(e: &Expr) -> u8 {
            match e {
                Expr::Int(v) if *v < 0 => 1,
                Expr::Int(_) | Expr::Sym(_) | Expr::Min(..) | Expr::Max(..) => 4,
                Expr::Mul(_) => 3,
                Expr::FloorDiv(..) | Expr::Mod(..) => 2,
                Expr::Add(_) => 1,
            }
        }
        fn write_child(f: &mut fmt::Formatter<'_>, e: &Expr, min_prec: u8) -> fmt::Result {
            if prec(e) < min_prec {
                write!(f, "({e})")
            } else {
                write!(f, "{e}")
            }
        }
        match self {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Sym(s) => write!(f, "{s}"),
            Expr::Add(v) => {
                // Canonical form stores any constant first; render it last
                // (`t + 1`, not `1 + t`).
                let mut disp: Vec<&Expr> = v.iter().collect();
                if disp.len() > 1 && matches!(disp[0], Expr::Int(_)) {
                    disp.rotate_left(1);
                }
                let v = disp;
                for (i, e) in v.iter().enumerate() {
                    let e: &Expr = e;
                    if i == 0 {
                        write_child(f, e, 1)?;
                        continue;
                    }
                    // Render `+ -c*t` as `- c*t`.
                    let (c, t) = split_coeff(e);
                    if c < 0 {
                        write!(f, " - ")?;
                        let pos = with_coeff(-c, t);
                        write_child(f, &pos, 2)?;
                    } else {
                        write!(f, " + ")?;
                        write_child(f, e, 2)?;
                    }
                }
                Ok(())
            }
            Expr::Mul(v) => {
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, "*")?;
                    }
                    write_child(f, e, 3)?;
                }
                Ok(())
            }
            Expr::FloorDiv(a, b) => {
                write_child(f, a, 3)?;
                write!(f, " // ")?;
                write_child(f, b, 4)
            }
            Expr::Mod(a, b) => {
                write_child(f, a, 3)?;
                write!(f, " % ")?;
                write_child(f, b, 4)
            }
            Expr::Min(a, b) => write!(f, "min({a}, {b})"),
            Expr::Max(a, b) => write!(f, "max({a}, {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env;

    fn s(n: &str) -> Expr {
        Expr::sym(n)
    }
    fn i(v: i64) -> Expr {
        Expr::int(v)
    }

    #[test]
    fn constant_folding() {
        assert_eq!(i(2) + i(3), i(5));
        assert_eq!(i(2) * i(3), i(6));
        assert_eq!(i(7).floor_div_by(i(2)), i(3));
        assert_eq!(i(-7).floor_div_by(i(2)), i(-4));
        assert_eq!(i(-7).modulo(i(2)), i(1));
        assert_eq!(i(7).modulo(i(-2)), i(-1));
    }

    #[test]
    fn like_terms_collect() {
        let e = s("x") + s("x") + s("x");
        assert_eq!(e, Expr::mul([i(3), s("x")]));
        let e2 = s("x") * i(2) + s("x") * i(-2);
        assert_eq!(e2, i(0));
    }

    #[test]
    fn add_canonical_order_is_stable() {
        let a = s("b") + s("a") + i(1);
        let b = i(1) + s("a") + s("b");
        assert_eq!(a, b);
    }

    #[test]
    fn distribute_constant_over_sum() {
        let e = Expr::mul([i(2), s("a") + s("b")]);
        let f = Expr::mul([i(2), s("a")]) + Expr::mul([i(2), s("b")]);
        assert_eq!(e, f);
    }

    #[test]
    fn neutral_elements() {
        assert_eq!(s("x") + i(0), s("x"));
        assert_eq!(s("x") * i(1), s("x"));
        assert_eq!(s("x") * i(0), i(0));
        assert_eq!(s("x").floor_div_by(i(1)), s("x"));
        assert_eq!(s("x").modulo(i(1)), i(0));
    }

    #[test]
    fn exact_division() {
        let e = (Expr::mul([i(4), s("n")]) + i(8)).floor_div_by(i(4));
        assert_eq!(e, s("n") + i(2));
        // Non-divisible stays as floordiv.
        let e2 = (s("n") + i(1)).floor_div_by(i(2));
        assert!(matches!(e2, Expr::FloorDiv(..)));
    }

    #[test]
    fn min_max_folding() {
        assert_eq!(i(3).min2(i(5)), i(3));
        assert_eq!(i(3).max2(i(5)), i(5));
        assert_eq!(s("n").min2(s("n")), s("n"));
        // min(n, n+1) == n decidable without assumptions.
        assert_eq!(s("n").min2(s("n") + i(1)), s("n"));
        assert_eq!(s("n").max2(s("n") + i(1)), s("n") + i(1));
        // min is commutatively canonical.
        assert_eq!(s("a").min2(s("b")), s("b").min2(s("a")));
    }

    #[test]
    fn substitution() {
        let e = s("i") * s("n") + s("i");
        let r = e.subs("i", &i(3));
        assert_eq!(r, Expr::mul([i(3), s("n")]) + i(3));
        let r2 = e.subs("i", &(s("j") + i(1)));
        let expect = (s("j") + i(1)) * s("n") + s("j") + i(1);
        assert_eq!(r2, expect);
    }

    #[test]
    fn eval_matches_structure() {
        let e = (s("i") + i(1)).floor_div_by(i(2)) * s("n");
        let env = env(&[("i", 5), ("n", 10)]);
        assert_eq!(e.eval(&env).unwrap(), 30);
        assert_eq!(
            e.eval(&crate::env(&[("i", 5)])),
            Err(EvalError::UnboundSymbol("n".into()))
        );
    }

    #[test]
    fn sym_cmp_with_assumptions() {
        let a = Assumptions {
            positive: ["n".to_string()].into_iter().collect(),
            ..Default::default()
        };
        let e = s("n") + i(1);
        assert_eq!(e.sym_cmp(&i(0), &a), Some(Ordering::Greater));
        assert_eq!(s("n").sym_cmp(&s("n"), &a), Some(Ordering::Equal));
        assert_eq!(s("m").sym_cmp(&s("n"), &a), None);
    }

    #[test]
    fn display_roundtrip() {
        for txt in [
            "a + b",
            "2*a - b + 3",
            "a*b*c",
            "(a + 1) // 2",
            "a % 4",
            "min(a, b)",
            "max(a + 1, 2*b)",
            "a - 1",
        ] {
            let e = crate::parse_expr(txt).unwrap();
            let shown = e.to_string();
            let back = crate::parse_expr(&shown).unwrap();
            assert_eq!(e, back, "roundtrip failed for `{txt}` -> `{shown}`");
        }
    }

    #[test]
    fn affine_in_decomposes_by_structure() {
        let names = ["i".to_string(), "j".to_string()];
        let at =
            |txt: &str, env: &crate::Env| crate::parse_expr(txt).unwrap().affine_in(&names, env);
        let n = env(&[("N", 100)]);
        assert_eq!(at("2*i + 3*j + N", &n), Ok((100, vec![2, 3])));
        assert_eq!(at("N*(i + 1) - j", &n), Ok((100, vec![100, -1])));
        assert_eq!(at("N // 3 + N % 7", &n), Ok((35, vec![0, 0])));
        for (txt, bad) in [
            ("min(i, 50)", "min(50, i)"),
            ("max(i, N - 1) + 1", "max(i, N - 1)"),
            ("j + 1 + j // 8", "j // 8"),
            ("i*j + 1", "i*j"),
            ("i + M", "M"),
        ] {
            assert_eq!(at(txt, &n), Err(crate::parse_expr(bad).unwrap()), "{txt}");
        }
        let stride = |txt: &str| crate::parse_expr(txt).unwrap().stride_in("i");
        assert_eq!(stride("j*N + i + 3"), Ok(1));
        assert_eq!(stride("2*i - j*j"), Ok(2));
        assert_eq!(stride("j*N"), Ok(0));
        assert_eq!(stride("N*i"), Err(crate::parse_expr("N*i").unwrap()));
        assert_eq!(
            stride("min(i, 50)"),
            Err(crate::parse_expr("min(50, i)").unwrap())
        );
        let big = env(&[("N", i64::MAX)]);
        assert!(
            at("2*N*i", &big).is_err(),
            "an overflowing coefficient is no affine form"
        );
    }

    #[test]
    fn free_symbols() {
        let e = crate::parse_expr("i*N + min(j, M) % 2").unwrap();
        let syms: Vec<String> = e.free_symbols().into_iter().collect();
        assert_eq!(syms, ["M", "N", "i", "j"]);
    }
}

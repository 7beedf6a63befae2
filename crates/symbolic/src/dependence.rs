//! Dependence analysis over memlet subsets: can two accesses touch the
//! same element? A transformation is a pattern plus a condition over
//! subsets (paper §4, Appendix B), and a parallel launch is a licence that
//! no two of its points conflict; both ask this module. It proves one of:
//!
//! * [`same`]: the same elements at every point, by exact per-dimension
//!   affine equality (MapFusion, RedundantArray, and a read of the element
//!   its own point writes);
//! * [`distinct_along`]: disjoint across distinct values of one parameter,
//!   by dominance (atomic elision, per subset dimension, and the tile
//!   proof of a native nest);
//! * [`misses`]: one element never the element another access writes
//!   while one parameter sweeps its range (register accumulation of a
//!   reduction that reads its own container);
//! * [`Overlap`]: disjoint in some dimension over a launch box, as a
//!   predicate over launch-time constants (the race check of a tiled
//!   launch).
//!
//! Otherwise the answer is unknown, with the sub-term [`Expr::affine_in`]
//! stopped at when there is one.
//!
//! # What this module does not answer
//!
//! Some gates near these questions ask no element-overlap question, so
//! they stay with their callers:
//!
//! * the scheduler's determinism gate (`steal_deterministic` in
//!   `sdfg-exec`) asks how an output combines (atomic, stream push, log
//!   append), that is, whether the combine order follows steal timing;
//! * the `Vectorization` pass and the `gpu-sim` coalescing model ask how
//!   far one access moves per step of the innermost parameter
//!   ([`Expr::stride_in`]), a memory-layout question;
//! * the serial-collapse gate of a loop nest (`sdfg-exec`'s nest builder)
//!   asks whether a WCR output's coefficient on the chunk parameter is
//!   zero, which is the interpreter's own serial-launch condition, not
//!   whether two accesses meet.

use crate::{Env, Expr, Subset, SymRange};

/// Whether `a` and `b` name the same elements at every point: in every
/// dimension, start, end, step and tile differ by an expression whose exact
/// affine decomposition over its own symbols is zero. `Err(Some(t))` is
/// the sub-term `t` the decomposition stopped at (`min(i + 1, N - 1)`);
/// `Err(None)` a difference that is a nonzero affine form, or a rank
/// mismatch.
pub fn same(a: &Subset, b: &Subset) -> Result<(), Option<Expr>> {
    if a.dims.len() != b.dims.len() {
        return Err(None);
    }
    let parts = |r: &SymRange| {
        [
            r.start.clone(),
            r.end.clone(),
            r.step.clone(),
            r.tile.clone(),
        ]
    };
    let pairs = a.dims.iter().zip(&b.dims);
    for (p, q) in pairs.flat_map(|(x, y)| parts(x).into_iter().zip(parts(y))) {
        match constant(&(p - q)) {
            Ok(Some(0)) => {}
            Ok(_) => return Err(None),
            Err(t) => return Err(Some(t)),
        }
    }
    Ok(())
}

/// The value of `e` when its exact affine decomposition over its own
/// symbols has no symbol left; `Ok(None)` for a nonconstant affine form,
/// `Err(t)` for the sub-term `t` the decomposition stopped at.
fn constant(e: &Expr) -> Result<Option<i64>, Expr> {
    let names: Vec<String> = e.free_symbols().into_iter().collect();
    let (base, cs) = e.affine_in(&names, &Env::new())?;
    Ok(cs.iter().all(|&c| c == 0).then_some(base))
}

/// Whether every dimension of `s` is a single index: the [`same`] as
/// `start:start + 1` with unit step and tile.
pub fn element(s: &Subset) -> bool {
    same(s, &Subset::index(s.dims.iter().map(|r| r.start.clone()))).is_ok()
}

/// Whether an access whose offset is affine with the `(parameter,
/// coefficient)` pairs `coeffs` touches disjoint elements at distinct
/// values of parameter `k`: one step of `k` moves it further than all the
/// other parameters together reach, |c_k| > Σ_{d≠k} |c_d|·span(d), where
/// `span(d)` is how far the values of parameter `d` range.
pub fn distinct_along(
    k: usize,
    coeffs: impl IntoIterator<Item = (usize, i64)>,
    span: impl Fn(usize) -> i128,
) -> bool {
    let (mut ck, mut reach) = (0i128, 0i128);
    for (d, c) in coeffs {
        let c = (c as i128).abs();
        match d == k {
            true => ck = c,
            false => reach = reach.saturating_add(c.saturating_mul(span(d).max(0))),
        }
    }
    ck > reach
}

/// Whether the single element `read` is never the single element `write`
/// while `param` sweeps `range` (positive constant step), whatever values
/// every other symbol takes. It is when, in some dimension, `read − write`
/// is a nonzero constant, or is affine in `param` with coefficient `c ≠ 0`
/// and a constant of strict sign where the range bounds it: negative at
/// the end where it is largest (`end − 1` when `c > 0`, else `start`), or
/// positive at the end where it is smallest. Like [`Overlap`], it reads
/// each dimension on its own, so indices are taken to lie within their
/// dimensions.
pub fn misses(read: &Subset, write: &Subset, param: &str, range: &SymRange) -> bool {
    let swept = |e: &Expr| e.has_symbol(param);
    if !(element(read) && element(write) && read.dims.len() == write.dims.len())
        || swept(&range.start)
        || swept(&range.end)
        || !matches!(constant(&range.step), Ok(Some(s)) if s > 0)
    {
        return false;
    }
    let (first, last) = (range.start.clone(), range.end.clone() - Expr::int(1));
    read.dims.iter().zip(&write.dims).any(|(r, w)| {
        let diff = r.start.clone() - w.start.clone();
        let c = match diff.stride_in(param) {
            Ok(0) => return matches!(constant(&diff), Ok(Some(d)) if d != 0),
            Ok(c) => c,
            Err(_) => return false,
        };
        let (top, bottom) = if c > 0 {
            (&last, &first)
        } else {
            (&first, &last)
        };
        let at = |v: &Expr| constant(&diff.subs(param, v)).ok().flatten();
        at(top).is_some_and(|d| d < 0) || at(bottom).is_some_and(|d| d > 0)
    })
}

/// `[min, max]` of `base + Σ c·x_d` over the `(d, c)` pairs `coeffs`,
/// where `x_d` ranges over the inclusive interval `ivals[d]`.
pub fn interval(
    base: i128,
    coeffs: impl IntoIterator<Item = (usize, i64)>,
    ivals: &[(i128, i128)],
) -> (i128, i128) {
    let (mut lo, mut hi) = (base, base);
    for (d, c) in coeffs {
        let (x, y) = (c as i128 * ivals[d].0, c as i128 * ivals[d].1);
        lo += x.min(y);
        hi += x.max(y);
    }
    (lo, hi)
}

/// Parameters an [`Overlap`] bounds at a launch without allocating; a map
/// with more runs serially.
const BOX: usize = 8;

/// `rest + Σ coeffs[k]·params[k]`, from the additive terms of an
/// expression: those that read a parameter decomposed by
/// [`Expr::affine_in`] under the launch-invariant bindings, the others
/// (`t % 2`) kept in `rest`, which each launch evaluates.
#[derive(Debug)]
struct Form {
    coeffs: Vec<i64>,
    rest: Expr,
}

/// `[start, end)` of a range as forms; `None` where not affine.
type Extent = Option<(Form, Form)>;

/// The (read, write) pairs of a map body that may touch the same element
/// at distinct points, as a predicate over launch-time constants: a launch
/// may run its points in any order when every pair is disjoint in some
/// subset dimension over the launch's box of parameter values.
#[derive(Debug)]
pub struct Overlap {
    /// `[start, end)` of parameters `1..` over the parameters before them.
    bounds: Vec<Extent>,
    /// Per pair, per subset dimension: the read's and the write's extent
    /// (none for subsets of differing rank, which share no dimension).
    pairs: Vec<Vec<(Extent, Extent)>>,
}

impl Overlap {
    /// The predicate for a map body's `reads` and `writes`, as (container,
    /// subset), over the map's `params` sweeping `ranges`: every (read,
    /// write) pair on one container but a read of the [`same`] single
    /// element its own point writes. `env0` binds the launch-invariant
    /// symbols; every other name but the parameters is a launch-time
    /// constant. `None` when there is no pair.
    pub fn new(
        reads: &[(&str, &Subset)],
        writes: &[(&str, &Subset)],
        params: &[String],
        ranges: &[SymRange],
        env0: &Env,
    ) -> Option<Overlap> {
        let form = |e: &Expr| {
            let terms = match e {
                Expr::Add(ts) => &ts[..],
                _ => std::slice::from_ref(e),
            };
            let reads = |t: &&Expr| params.iter().any(|p| t.has_symbol(p));
            let reading = Expr::add(terms.iter().filter(reads).cloned());
            let (base, coeffs) = reading.affine_in(params, env0).ok()?;
            let rest = Expr::add(terms.iter().filter(|t| !reads(t)).cloned()) + Expr::int(base);
            Some(Form { coeffs, rest })
        };
        let extent = |r: &SymRange| Some((form(&r.start)?, form(&r.end)?));
        let mut pairs = Vec::new();
        for &(rd, r) in reads {
            for &(wd, w) in writes {
                if rd == wd && !(element(r) && same(r, w).is_ok()) {
                    let rank = r.dims.len() == w.dims.len();
                    let dims = r.dims.iter().zip(&w.dims).filter(|_| rank);
                    pairs.push(dims.map(|(r, w)| (extent(r), extent(w))).collect());
                }
            }
        }
        (!pairs.is_empty()).then(|| Overlap {
            bounds: ranges.iter().skip(1).map(extent).collect(),
            pairs,
        })
    }

    /// Whether every pair is disjoint at the launch whose launch-time
    /// constants `env` binds and whose first parameter takes values in
    /// `[d0.0, d0.1)`. Allocates nothing while `env` binds every
    /// launch-time constant.
    pub fn disjoint(&self, env: &Env, d0: (i64, i64)) -> bool {
        const FAR: i128 = 1 << 62;
        if self.bounds.len() >= BOX {
            return false;
        }
        let mut ivals = [(-FAR, FAR); BOX];
        ivals[0] = (d0.0 as i128, d0.1 as i128 - 1);
        let set = |e: &Extent, ivals: &[(i128, i128)]| {
            let (lo, hi) = e.as_ref()?;
            let at = |f: &Form| {
                let base = f.rest.eval(env).ok()? as i128;
                Some(interval(base, f.coeffs.iter().copied().enumerate(), ivals))
            };
            Some((at(lo)?.0, at(hi)?.1 - 1))
        };
        for (d, b) in self.bounds.iter().enumerate() {
            let iv = set(b, &ivals).unwrap_or((-FAR, FAR));
            if iv.0 > iv.1 {
                return true; // no points
            }
            ivals[d + 1] = iv;
        }
        self.pairs.iter().all(|dims| {
            dims.iter().any(|(r, w)| {
                matches!((set(r, &ivals), set(w, &ivals)),
                    (Some((rl, rh)), Some((wl, wh))) if rh < wl || wh < rl)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_expr;

    fn subset(s: &str) -> Subset {
        Subset::parse(s).unwrap()
    }

    #[test]
    fn same_is_exact_affine_equality() {
        assert_eq!(same(&subset("i, j"), &subset("i, j")), Ok(()));
        assert_eq!(same(&subset("0:N"), &subset("0:N")), Ok(()));
        assert_eq!(same(&subset("N - 1 - i"), &subset("i")), Err(None));
        assert_eq!(
            same(&subset("0:N/2"), &subset("0:N")),
            Err(Some(parse_expr("N // 2").unwrap()))
        );
        let clamp = parse_expr("min(i + 1, N - 1)").unwrap();
        assert_eq!(
            same(&subset("min(i + 1, N - 1)"), &subset("i")),
            Err(Some(clamp))
        );
        assert_eq!(same(&subset("i"), &subset("i, 0")), Err(None));
    }

    #[test]
    fn dominance_needs_the_chunk_step_to_outreach_the_rest() {
        // Offset 8*i + j with j over 0..8: rows of i never meet.
        let span = |_: usize| 7;
        assert!(distinct_along(0, [(0, 8), (1, 1)], span));
        assert!(!distinct_along(0, [(0, 7), (1, 1)], span));
        assert!(!distinct_along(0, [(1, 1)], span));
    }

    #[test]
    fn misses_needs_a_constant_of_strict_sign_at_the_bounding_end() {
        let r = |s: &str| subset(s).dims[0].clone();
        // cholesky: `A[i, j] += -A[i, k] * A[j, k]` over `k` in `0:j`.
        let w = subset("i, j");
        assert!(misses(&subset("i, k"), &w, "k", &r("0:j")));
        assert!(misses(&subset("j, k"), &w, "k", &r("0:j")));
        // One step further, `k` reaches `j`.
        assert!(!misses(&subset("i, k"), &w, "k", &r("0:j + 1")));
        // ludcmp's backward solve: `x[ii] += -A[ii, j] * x[j]` over `ii + 1:N`.
        assert!(misses(&subset("j"), &subset("ii"), "j", &r("ii + 1:N")));
        // nussinov: `table[k + 1, j]` against `table[i, j]` over `i + 1:j`.
        assert!(misses(&subset("k + 1, j"), &w, "k", &r("i + 1:j")));
        // A nonzero constant in some dimension; none in any.
        assert!(misses(&subset("i - 1, j"), &w, "k", &r("0:N")));
        assert!(!misses(&subset("j, i"), &w, "k", &r("0:N")));
        // A range over a window, or a clamp of the swept parameter.
        assert!(!misses(&subset("i, 0:N"), &w, "k", &r("0:j")));
        assert!(!misses(&subset("i, min(k, j - 1)"), &w, "k", &r("0:j")));
    }

    #[test]
    fn overlap_is_decided_per_launch() {
        let params = ["i".to_string(), "j".to_string()];
        let ranges = [
            SymRange::new(1, 7),
            SymRange::new(parse_expr("k + 1").unwrap(), 8),
        ];
        let (rd, wr) = (subset("i, k"), subset("i, j"));
        let o = Overlap::new(&[("A", &rd)], &[("A", &wr)], &params, &ranges, &Env::new()).unwrap();
        // The read column `k` lies left of every written column `k+1..8`.
        assert!(o.disjoint(&crate::env(&[("k", 3)]), (1, 7)));
        let planes = Overlap::new(
            &[("A", &subset("(t + 1) % 2, i"))],
            &[("A", &subset("t % 2, i"))],
            &params[..1],
            &ranges[..1],
            &Env::new(),
        )
        .unwrap();
        assert!(planes.disjoint(&crate::env(&[("t", 5)]), (1, 7)));
        let shifted = subset("i - 1, j");
        let o = Overlap::new(
            &[("A", &shifted)],
            &[("A", &wr)],
            &params,
            &ranges,
            &Env::new(),
        );
        assert!(!o.unwrap().disjoint(&crate::env(&[("k", 3)]), (1, 7)));
        // A read of the element its own point writes, or of another
        // container, is no pair.
        assert!(Overlap::new(
            &[("A", &wr), ("B", &rd)],
            &[("A", &wr)],
            &params,
            &ranges,
            &Env::new()
        )
        .is_none());
    }
}

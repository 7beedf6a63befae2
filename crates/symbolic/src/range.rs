//! Symbolic strided ranges and N-dimensional rectangular subsets.
//!
//! These are the payload of every memlet in an SDFG: `A[0:N, k]` carries the
//! subset `[0:N, k:k+1]`. Ranges are half-open (`begin:end:step`), matching
//! the Python-style syntax of the paper (Fig. 3), with an optional tile size
//! used for vector-typed movement (`begin:end:step:tile`, Appendix A).

use crate::expr::{Assumptions, EvalError, Expr};
use crate::parse::{parse_expr, ParseError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A symbolic half-open strided range `start : end : step (: tile)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SymRange {
    /// First index (inclusive).
    pub start: Expr,
    /// End index (exclusive).
    pub end: Expr,
    /// Stride between consecutive indices (must be positive).
    pub step: Expr,
    /// Number of consecutive elements moved per index (vector width).
    pub tile: Expr,
}

impl SymRange {
    /// `start:end` with unit step and tile.
    pub fn new(start: impl Into<Expr>, end: impl Into<Expr>) -> SymRange {
        SymRange {
            start: start.into(),
            end: end.into(),
            step: Expr::one(),
            tile: Expr::one(),
        }
    }

    /// `start:end:step`.
    pub fn strided(
        start: impl Into<Expr>,
        end: impl Into<Expr>,
        step: impl Into<Expr>,
    ) -> SymRange {
        SymRange {
            start: start.into(),
            end: end.into(),
            step: step.into(),
            tile: Expr::one(),
        }
    }

    /// A single index `i` (i.e. `i : i+1`).
    pub fn index(i: impl Into<Expr>) -> SymRange {
        let i = i.into();
        SymRange {
            end: i.clone() + Expr::one(),
            start: i,
            step: Expr::one(),
            tile: Expr::one(),
        }
    }

    /// The whole extent `0:size`.
    pub fn full(size: impl Into<Expr>) -> SymRange {
        SymRange::new(Expr::zero(), size)
    }

    /// Symbolic number of iterated indices: `⌈(end - start) / step⌉`,
    /// clamped at zero only on evaluation.
    pub fn num_elements(&self) -> Expr {
        let span = self.end.clone() - self.start.clone();
        if self.step.is_one() {
            span
        } else {
            span.ceil_div_by(self.step.clone())
        }
    }

    /// Symbolic data volume: indices × tile.
    pub fn volume(&self) -> Expr {
        self.num_elements() * self.tile.clone()
    }

    /// True if this range selects exactly one index (tile 1).
    pub fn is_index(&self) -> bool {
        self.num_elements().is_one() && self.tile.is_one()
    }

    /// Substitutes a symbol in all four expressions.
    pub fn subs(&self, name: &str, value: &Expr) -> SymRange {
        SymRange {
            start: self.start.subs(name, value),
            end: self.end.subs(name, value),
            step: self.step.subs(name, value),
            tile: self.tile.subs(name, value),
        }
    }

    /// Substitutes many symbols in all four expressions.
    pub fn subs_map(&self, map: &BTreeMap<String, Expr>) -> SymRange {
        SymRange {
            start: self.start.subs_map(map),
            end: self.end.subs_map(map),
            step: self.step.subs_map(map),
            tile: self.tile.subs_map(map),
        }
    }

    /// Free symbols of all components.
    pub fn collect_symbols(&self, out: &mut std::collections::BTreeSet<String>) {
        self.start.collect_symbols(out);
        self.end.collect_symbols(out);
        self.step.collect_symbols(out);
        self.tile.collect_symbols(out);
    }

    /// Evaluates to a concrete `(start, end, step, tile)`; the span is
    /// clamped so `end >= start`.
    pub fn eval(&self, env: &crate::Env) -> Result<(i64, i64, i64, i64), EvalError> {
        let s = self.start.eval(env)?;
        let e = self.end.eval(env)?.max(s);
        let st = self.step.eval(env)?;
        let t = self.tile.eval(env)?;
        Ok((s, e, st, t))
    }

    /// Concrete iteration count.
    pub fn eval_len(&self, env: &crate::Env) -> Result<i64, EvalError> {
        let (s, e, st, _) = self.eval(env)?;
        if st <= 0 {
            return Err(EvalError::DivisionByZero);
        }
        Ok(((e - s) + st - 1).div_euclid(st).max(0))
    }

    /// Bounding-box union of two ranges (stride collapses to 1 unless equal).
    pub fn union(&self, other: &SymRange) -> SymRange {
        let step = if self.step == other.step {
            self.step.clone()
        } else {
            Expr::one()
        };
        let tile = if self.tile == other.tile {
            self.tile.clone()
        } else {
            Expr::one()
        };
        SymRange {
            start: self.start.clone().min2(other.start.clone()),
            end: self.end.clone().max2(other.end.clone()),
            step,
            tile,
        }
    }

    /// Shifts the range down by `offset` (used by reindexing: expressing a
    /// subset relative to the start of a containing window).
    pub fn offset_by(&self, offset: &Expr) -> SymRange {
        SymRange {
            start: self.start.clone() - offset.clone(),
            end: self.end.clone() - offset.clone(),
            step: self.step.clone(),
            tile: self.tile.clone(),
        }
    }

    /// Folds decidable `min`/`max` under assumptions (see [`Expr::refine`]).
    pub fn refine(&self, assumptions: &Assumptions) -> SymRange {
        SymRange {
            start: self.start.refine(assumptions),
            end: self.end.refine(assumptions),
            step: self.step.refine(assumptions),
            tile: self.tile.refine(assumptions),
        }
    }

    /// The image of this range as `param` sweeps `param_range`: the
    /// bounding range over all values the parameter takes. This is the core
    /// of memlet propagation (paper §4.3 step ❶); assumes the component
    /// expressions are monotonic in `param` (true for the affine accesses
    /// produced by the frontends).
    pub fn image_under(&self, param: &str, param_range: &SymRange) -> SymRange {
        if !self.start.has_symbol(param) && !self.end.has_symbol(param) {
            return self.clone();
        }
        let lo = param_range.start.clone();
        // Last value actually taken by the parameter.
        let n = param_range.num_elements();
        let hi = param_range.start.clone()
            + (n - Expr::one()).max2(Expr::zero()) * param_range.step.clone();
        let start_lo = self.start.subs(param, &lo);
        let start_hi = self.start.subs(param, &hi);
        let end_lo = self.end.subs(param, &lo);
        let end_hi = self.end.subs(param, &hi);
        SymRange {
            start: start_lo.min2(start_hi),
            end: end_lo.max2(end_hi),
            step: Expr::one(),
            tile: self.tile.clone(),
        }
    }
}

impl fmt::Display for SymRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_index() {
            return write!(f, "{}", self.start);
        }
        write!(f, "{}:{}", self.start, self.end)?;
        if !self.step.is_one() || !self.tile.is_one() {
            write!(f, ":{}", self.step)?;
        }
        if !self.tile.is_one() {
            write!(f, ":{}", self.tile)?;
        }
        Ok(())
    }
}

/// An N-dimensional rectangular subset: one [`SymRange`] per dimension.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Subset {
    /// Per-dimension ranges, outermost first.
    pub dims: Vec<SymRange>,
}

impl Subset {
    /// Builds a subset from per-dimension ranges.
    pub fn new(dims: Vec<SymRange>) -> Subset {
        Subset { dims }
    }

    /// A single N-dimensional index.
    pub fn index(indices: impl IntoIterator<Item = Expr>) -> Subset {
        Subset {
            dims: indices.into_iter().map(SymRange::index).collect(),
        }
    }

    /// The full extent of an array with the given shape.
    pub fn full(shape: &[Expr]) -> Subset {
        Subset {
            dims: shape.iter().cloned().map(SymRange::full).collect(),
        }
    }

    /// Parses `"0:N, k"`-style text: comma-separated dimension specs, each
    /// either an index expression or `start:end(:step(:tile))`.
    pub fn parse(src: &str) -> Result<Subset, ParseError> {
        let mut dims = Vec::new();
        for part in split_top_level(src, ',') {
            let part = part.trim();
            if part.is_empty() {
                return Err(ParseError {
                    message: "empty subset dimension".into(),
                    offset: 0,
                });
            }
            let pieces: Vec<&str> = split_top_level(part, ':');
            match pieces.len() {
                1 => dims.push(SymRange::index(parse_expr(pieces[0])?)),
                2 => dims.push(SymRange::new(
                    parse_expr(pieces[0])?,
                    parse_expr(pieces[1])?,
                )),
                3 => dims.push(SymRange::strided(
                    parse_expr(pieces[0])?,
                    parse_expr(pieces[1])?,
                    parse_expr(pieces[2])?,
                )),
                4 => dims.push(SymRange {
                    start: parse_expr(pieces[0])?,
                    end: parse_expr(pieces[1])?,
                    step: parse_expr(pieces[2])?,
                    tile: parse_expr(pieces[3])?,
                }),
                n => {
                    return Err(ParseError {
                        message: format!("too many `:` in subset dimension ({n} pieces)"),
                        offset: 0,
                    })
                }
            }
        }
        Ok(Subset { dims })
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Symbolic element count (product of per-dimension volumes).
    pub fn volume(&self) -> Expr {
        Expr::mul(self.dims.iter().map(|r| r.volume()))
    }

    /// Substitutes a symbol in every dimension.
    pub fn subs(&self, name: &str, value: &Expr) -> Subset {
        Subset {
            dims: self.dims.iter().map(|r| r.subs(name, value)).collect(),
        }
    }

    /// Substitutes many symbols in every dimension.
    pub fn subs_map(&self, map: &BTreeMap<String, Expr>) -> Subset {
        Subset {
            dims: self.dims.iter().map(|r| r.subs_map(map)).collect(),
        }
    }

    /// Free symbols across all dimensions.
    pub fn free_symbols(&self) -> std::collections::BTreeSet<String> {
        let mut out = Default::default();
        for r in &self.dims {
            r.collect_symbols(&mut out);
        }
        out
    }

    /// Bounding-box union, dimension-wise. Panics if ranks differ.
    pub fn union(&self, other: &Subset) -> Subset {
        assert_eq!(self.rank(), other.rank(), "subset rank mismatch in union");
        Subset {
            dims: self
                .dims
                .iter()
                .zip(&other.dims)
                .map(|(a, b)| a.union(b))
                .collect(),
        }
    }

    /// Expresses this subset relative to the origin of `window` (reindexing
    /// through a local-storage transient, Fig. 11b).
    pub fn offset_by(&self, window: &Subset) -> Subset {
        assert_eq!(self.rank(), window.rank(), "subset rank mismatch in offset");
        Subset {
            dims: self
                .dims
                .iter()
                .zip(&window.dims)
                .map(|(r, w)| r.offset_by(&w.start))
                .collect(),
        }
    }

    /// Folds decidable `min`/`max` under assumptions, dimension-wise.
    pub fn refine(&self, assumptions: &Assumptions) -> Subset {
        Subset {
            dims: self.dims.iter().map(|r| r.refine(assumptions)).collect(),
        }
    }

    /// Image under a map parameter sweeping its range (propagation).
    pub fn image_under(&self, param: &str, param_range: &SymRange) -> Subset {
        Subset {
            dims: self
                .dims
                .iter()
                .map(|r| r.image_under(param, param_range))
                .collect(),
        }
    }

    /// Evaluates every dimension to concrete bounds.
    pub fn eval(&self, env: &crate::Env) -> Result<Vec<(i64, i64, i64, i64)>, EvalError> {
        self.dims.iter().map(|r| r.eval(env)).collect()
    }

    /// Concrete element count.
    pub fn eval_volume(&self, env: &crate::Env) -> Result<i64, EvalError> {
        let mut v = 1i64;
        for r in &self.dims {
            let t = r.tile.eval(env)?;
            v = v.saturating_mul(r.eval_len(env)?).saturating_mul(t);
        }
        Ok(v)
    }
}

impl fmt::Display for Subset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

/// Splits on `sep` at paren depth zero.
fn split_top_level(src: &str, sep: char) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in src.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            c if c == sep && depth == 0 => {
                out.push(&src[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&src[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env;

    #[test]
    fn range_len_and_volume() {
        let r = SymRange::strided(0, "N", 2);
        assert_eq!(r.eval_len(&env(&[("N", 9)])).unwrap(), 5);
        let s = Subset::parse("0:N, 0:M").unwrap();
        assert_eq!(s.eval_volume(&env(&[("N", 3), ("M", 4)])).unwrap(), 12);
    }

    #[test]
    fn parse_forms() {
        let s = Subset::parse("i, 0:N, 0:N:2, 0:N:1:4").unwrap();
        assert_eq!(s.rank(), 4);
        assert!(s.dims[0].is_index());
        assert_eq!(s.dims[2].step, Expr::int(2));
        assert_eq!(s.dims[3].tile, Expr::int(4));
        // nested function commas don't split dims
        let t = Subset::parse("min(i, j), 0:max(N, M)").unwrap();
        assert_eq!(t.rank(), 2);
    }

    #[test]
    fn display_roundtrip() {
        for txt in ["i", "0:N", "0:N:2", "i + 1, 0:N", "t % 2, i - 1"] {
            let s = Subset::parse(txt).unwrap();
            let back = Subset::parse(&s.to_string()).unwrap();
            assert_eq!(s, back, "roundtrip failed: `{txt}` -> `{s}`");
        }
    }

    #[test]
    fn union_is_bounding_box() {
        let a = Subset::parse("0:4").unwrap();
        let b = Subset::parse("8:16").unwrap();
        let u = a.union(&b);
        assert_eq!(u, Subset::parse("0:16").unwrap());
    }

    #[test]
    fn image_under_map_param() {
        // A[i, 0:N] under i in 0:M  ->  A[0:M, 0:N]
        let s = Subset::parse("i, 0:N").unwrap();
        let img = s.image_under("i", &SymRange::new(0, "M"));
        // start: min(0, M-1) -> with no assumptions stays min; end: max(1, M).
        let e = img.eval(&env(&[("M", 5), ("N", 3)])).unwrap();
        assert_eq!(e[0].0, 0);
        assert_eq!(e[0].1, 5);
        assert_eq!(e[1], (0, 3, 1, 1));
    }

    #[test]
    fn image_of_stencil_window() {
        // A[i-1 : i+2] under i in 1:N-1  ->  A[0:N]
        let s = Subset::parse("i - 1:i + 2").unwrap();
        let img = s.image_under("i", &SymRange::new(1, Expr::sym("N") - Expr::int(1)));
        let e = img.eval(&env(&[("N", 100)])).unwrap();
        assert_eq!((e[0].0, e[0].1), (0, 100));
    }

    #[test]
    fn image_ignores_free_dims() {
        let s = Subset::parse("k, 0:N").unwrap();
        let img = s.image_under("i", &SymRange::new(0, "M"));
        assert_eq!(img, s);
    }

    #[test]
    fn offset_by_window() {
        // Global access A[i+2, j+3] inside window A[2:10, 3:7] -> local [i, j].
        let acc = Subset::parse("i + 2, j + 3").unwrap();
        let win = Subset::parse("2:10, 3:7").unwrap();
        let local = acc.offset_by(&win);
        assert_eq!(local, Subset::parse("i, j").unwrap());
    }

    #[test]
    fn eval_clamps_empty() {
        let r = SymRange::new(5, 3);
        assert_eq!(r.eval_len(&env(&[])).unwrap(), 0);
    }
}

//! Property tests for the symbolic engine: simplification must be
//! value-preserving, idempotent, and canonical (equal values from equal
//! structure), and the range algebra must be conservative.

use proptest::prelude::*;
use sdfg_symbolic::{Env, Expr, Subset, SymRange};

const SYMS: [&str; 4] = ["a", "b", "c", "d"];

/// Random raw (non-canonicalized) expression trees.
fn raw_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::Int),
        (0usize..SYMS.len()).prop_map(|i| Expr::Sym(SYMS[i].to_string())),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::Add),
            prop::collection::vec(inner.clone(), 2..3).prop_map(Expr::Mul),
            (inner.clone(), 1i64..8)
                .prop_map(|(a, b)| Expr::FloorDiv(Box::new(a), Box::new(Expr::Int(b)))),
            (inner.clone(), 1i64..8)
                .prop_map(|(a, b)| Expr::Mod(Box::new(a), Box::new(Expr::Int(b)))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Min(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Max(Box::new(a), Box::new(b))),
        ]
    })
}

/// Sums and products over symbols, integers, and `//`, `%`, `min` or `max`
/// of a symbol and an integer: unlike [`raw_expr`], often affine in a
/// given symbol.
fn ring_expr() -> impl Strategy<Value = Expr> {
    let sym = || (0usize..SYMS.len()).prop_map(|i| Expr::Sym(SYMS[i].to_string()));
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::Int),
        sym(),
        sym(),
        (sym(), 1i64..8, 0usize..4).prop_map(|(s, k, op)| {
            let (a, b) = (Box::new(s), Box::new(Expr::Int(k)));
            match op {
                0 => Expr::FloorDiv(a, b),
                1 => Expr::Mod(a, b),
                2 => Expr::Min(a, b),
                _ => Expr::Max(a, b),
            }
        }),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::Add),
            prop::collection::vec(inner, 2..3).prop_map(Expr::Mul),
        ]
    })
}

fn env_strategy() -> impl Strategy<Value = Env> {
    prop::collection::vec(-50i64..50, SYMS.len()).prop_map(|vals| {
        SYMS.iter()
            .zip(vals)
            .map(|(s, v)| (s.to_string(), v))
            .collect()
    })
}

proptest! {
    #[test]
    fn simplify_preserves_value(e in raw_expr(), env in env_strategy()) {
        let simplified = e.simplify();
        let v1 = e.eval(&env);
        let v2 = simplified.eval(&env);
        prop_assert_eq!(v1, v2);
    }

    #[test]
    fn simplify_is_idempotent(e in raw_expr()) {
        let once = e.simplify();
        let twice = once.simplify();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn display_parse_roundtrip(e in raw_expr()) {
        let canon = e.simplify();
        let text = canon.to_string();
        let back = sdfg_symbolic::parse_expr(&text).unwrap();
        prop_assert_eq!(canon, back, "text was `{}`", text);
    }

    #[test]
    fn addition_commutes_canonically(e1 in raw_expr(), e2 in raw_expr()) {
        let a = e1.clone().simplify() + e2.clone().simplify();
        let b = e2.simplify() + e1.simplify();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn subs_then_eval_equals_extended_env(e in raw_expr(), env in env_strategy(), v in -20i64..20) {
        // e[a := v] evaluated without `a` == e evaluated with a=v
        let substituted = e.simplify().subs("a", &Expr::Int(v));
        let mut env2 = env.clone();
        env2.insert("a".into(), v);
        prop_assert_eq!(substituted.eval(&env2), e.eval(&env2));
    }

    #[test]
    fn range_union_contains_both(s1 in 0i64..30, l1 in 1i64..20, s2 in 0i64..30, l2 in 1i64..20) {
        let a = SymRange::new(s1, s1 + l1);
        let b = SymRange::new(s2, s2 + l2);
        let u = a.union(&b);
        let env = Env::new();
        let (us, ue, _, _) = u.eval(&env).unwrap();
        prop_assert!(us <= s1 && ue >= s1 + l1);
        prop_assert!(us <= s2 && ue >= s2 + l2);
    }

    #[test]
    fn image_contains_every_point(start in 0i64..10, len in 1i64..12, coeff in -3i64..4, off in -5i64..6) {
        // access index `coeff*i + off` for i in start..start+len: the image
        // bounding range must contain every concrete access.
        let access = Expr::Int(coeff) * Expr::sym("i") + Expr::Int(off);
        let sub = Subset::new(vec![SymRange::index(access.clone())]);
        let prange = SymRange::new(start, start + len);
        let img = sub.image_under("i", &prange);
        let env = Env::new();
        let (lo, hi, _, _) = img.dims[0].eval(&env).unwrap();
        for i in start..start + len {
            let mut e = Env::new();
            e.insert("i".into(), i);
            let v = access.eval(&e).unwrap();
            prop_assert!(lo <= v && v < hi, "point {} outside image [{}, {})", v, lo, hi);
        }
    }

    #[test]
    fn volume_matches_enumeration(start in -5i64..10, len in 0i64..15, step in 1i64..4) {
        let r = SymRange::strided(start, start + len, step);
        let env = Env::new();
        let n = r.eval_len(&env).unwrap();
        let mut count = 0;
        let mut i = start;
        while i < start + len {
            count += 1;
            i += step;
        }
        prop_assert_eq!(n, count);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn affine_in_agrees_with_eval(
        raw in raw_expr(),
        ring in ring_expr(),
        c in -50i64..50,
        point in prop::collection::vec(prop_oneof![-50i64..50, -(1i64 << 40)..(1i64 << 40)], 2),
    ) {
        // `a` and `b` are the names, `c` is bound and `d` is not.
        let names = ["a".to_string(), "b".to_string()];
        let bound = sdfg_symbolic::env(&[("c", c)]);
        for e in [raw.clone(), raw.simplify(), ring.clone(), ring.simplify()] {
            let Ok((base, coeffs)) = e.affine_in(&names, &bound) else {
                continue;
            };
            let mut at = bound.clone();
            at.insert("a".into(), point[0]);
            at.insert("b".into(), point[1]);
            // `eval` wraps, so the affine form is compared in wrapping arithmetic.
            let form = coeffs
                .iter()
                .zip(&point)
                .fold(base, |acc, (k, x)| acc.wrapping_add(k.wrapping_mul(*x)));
            prop_assert_eq!(e.eval(&at), Ok(form), "`{}` claimed {} + {:?}", e, base, coeffs);
        }
    }
}

// --- the dependence analysis --------------------------------------------------

use sdfg_symbolic::dependence::{distinct_along, element, misses, same, Overlap};

/// `c_i*i + c_j*j + c_t*t + c` with small coefficients: an affine index
/// over the map parameters `i`, `j` and the launch-time constant `t`.
fn affine_index() -> impl Strategy<Value = Expr> {
    (-3i64..4, -3i64..4, -2i64..3, -4i64..5).prop_map(|(ci, cj, ct, c)| {
        Expr::Int(ci) * Expr::sym("i")
            + Expr::Int(cj) * Expr::sym("j")
            + Expr::Int(ct) * Expr::sym("t")
            + Expr::Int(c)
    })
}

/// A 2-D subset `s0:s0+l0, s1:s1+l1` over affine starts.
fn affine_subset() -> impl Strategy<Value = Subset> {
    (affine_index(), 1i64..3, affine_index(), 1i64..3).prop_map(|(s0, l0, s1, l1)| {
        Subset::new(vec![
            SymRange::new(s0.clone(), s0 + Expr::Int(l0)),
            SymRange::new(s1.clone(), s1 + Expr::Int(l1)),
        ])
    })
}

/// `c_i*i + c_j*j + c_k*k + c` with coefficients in `-1..=1`, so that
/// differences cancel to constants often; `k` only where `swept`.
fn unit_index(swept: bool) -> impl Strategy<Value = Expr> {
    let ck = if swept { -1i64..2 } else { 0i64..1 };
    (-1i64..2, -1i64..2, ck, -2i64..3).prop_map(|(ci, cj, ck, c)| {
        Expr::Int(ci) * Expr::sym("i")
            + Expr::Int(cj) * Expr::sym("j")
            + Expr::Int(ck) * Expr::sym("k")
            + Expr::Int(c)
    })
}

/// A 2-D single element at `unit_index` starts.
fn unit_element(swept: bool) -> impl Strategy<Value = Subset> {
    (unit_index(swept), unit_index(swept)).prop_map(|(a, b)| Subset::index([a, b]))
}

/// Every dimension's concrete `[start, end)` of `s` at `env`.
fn boxes(s: &Subset, env: &Env) -> Vec<(i64, i64)> {
    s.dims
        .iter()
        .map(|r| (r.start.eval(env).unwrap(), r.end.eval(env).unwrap()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `same` and `element` are never contradicted by evaluation.
    #[test]
    fn same_agrees_with_eval(
        e in ring_expr(),
        other in ring_expr(),
        twin in 0usize..3,
        len in 1i64..3,
        env in env_strategy(),
    ) {
        // The twin is the same expression rebuilt, the same plus a
        // cancelling term, or an unrelated one.
        let e2 = match twin {
            0 => e.simplify(),
            1 => Expr::add([e.clone(), Expr::sym("d"), Expr::Int(-1) * Expr::sym("d")]),
            _ => other,
        };
        let a = Subset::new(vec![SymRange::new(e.clone(), e.clone() + Expr::Int(len))]);
        let b = Subset::new(vec![SymRange::new(e2.clone(), e2 + Expr::Int(len))]);
        if same(&a, &b).is_ok() {
            prop_assert_eq!(boxes(&a, &env), boxes(&b, &env), "`{}` vs `{}`", a, b);
        }
        if element(&a) {
            let (s, t) = boxes(&a, &env)[0];
            prop_assert_eq!(t - s, 1, "`{}` is no single element", a);
        }
    }

    /// `distinct_along` is never contradicted on a box of small spans.
    #[test]
    fn distinct_along_agrees_with_eval(
        coeffs in prop::collection::vec(-4i64..5, 3),
        spans in prop::collection::vec(0i64..4, 3),
        k in 0usize..3,
    ) {
        if !distinct_along(k, coeffs.iter().copied().enumerate(), |d| spans[d] as i128) {
            return;
        }
        let mut points = Vec::new();
        for x in 0..=spans[0] {
            for y in 0..=spans[1] {
                points.extend((0..=spans[2]).map(|z| [x, y, z]));
            }
        }
        let offset = |p: &[i64; 3]| p.iter().zip(&coeffs).map(|(x, c)| x * c).sum::<i64>();
        for p in &points {
            for q in points.iter().filter(|q| q[k] != p[k]) {
                prop_assert!(offset(p) != offset(q), "{:?} over {:?}: {:?} and {:?} meet", coeffs, spans, p, q);
            }
        }
    }

    /// `Overlap::disjoint` never clears a launch in which some point reads
    /// an element another point writes.
    #[test]
    fn overlap_agrees_with_eval(
        read in affine_subset(),
        write in affine_subset(),
        j_start in affine_index(),
        j_len in 0i64..4,
        d0 in (-2i64..3, 1i64..4),
        t in -2i64..3,
    ) {
        // `j` sweeps `[j_start, j_start + j_len)` over `i` (its own term dropped).
        let j_start = j_start.subs("j", &Expr::Int(0));
        let params = ["i".to_string(), "j".to_string()];
        let ranges = [
            SymRange::new(d0.0, d0.0 + d0.1),
            SymRange::new(j_start.clone(), j_start + Expr::Int(j_len)),
        ];
        let pairs = Overlap::new(&[("A", &read)], &[("A", &write)], &params, &ranges, &Env::new());
        let env = sdfg_symbolic::env(&[("t", t)]);
        let Some(o) = pairs else {
            // Dropped only as a read of the element its own point writes.
            prop_assert!(element(&read) && same(&read, &write).is_ok());
            return;
        };
        if !o.disjoint(&env, (d0.0, d0.0 + d0.1)) {
            return;
        }
        let mut points = Vec::new();
        for i in d0.0..d0.0 + d0.1 {
            let mut at = env.clone();
            at.insert("i".into(), i);
            let (lo, hi, _, _) = ranges[1].eval(&at).unwrap();
            for j in lo..hi {
                let mut at = at.clone();
                at.insert("j".into(), j);
                points.push(at);
            }
        }
        for p in &points {
            for q in &points {
                let meet = boxes(&read, p)
                    .iter()
                    .zip(boxes(&write, q))
                    .all(|(&(rs, re), (ws, we))| rs < we && ws < re);
                prop_assert!(!meet, "`{}` at {:?} reads what `{}` writes at {:?}", read, p, write, q);
            }
        }
    }

    /// `misses` never clears a read that evaluation finds at the written
    /// element for some `k` of the range, over a box of `i` and `j`. The
    /// read is the write with one dimension shifted by `s*(k - x) + c` (or
    /// `s*k + t*x + c` for any `t`), and each end of the range is `x + c`
    /// or `c`, for one `x` of `i` and `j`: differences cancel at the range's
    /// ends as often as not.
    #[test]
    fn misses_agrees_with_eval(
        write in unit_element(false),
        swept_write in unit_element(true),
        pick in 0usize..4,
        x in 0usize..2,
        (dim, s, t, c) in (0usize..2, -1i64..2, -1i64..2, -2i64..3),
        ends in ((0i64..2, -2i64..3), (0i64..2, -2i64..3)),
    ) {
        // Mostly a write invariant in `k`, as register accumulation asks.
        let write = if pick == 0 { swept_write } else { write };
        let t = if t == 0 { -s } else { t };
        let x = Expr::sym(["i", "j"][x]);
        let shift = Expr::Int(s) * Expr::sym("k") + Expr::Int(t) * x.clone() + Expr::Int(c);
        let mut read = write.clone();
        read.dims[dim] = SymRange::index(write.dims[dim].start.clone() + shift);
        let end = |(u, c): (i64, i64)| Expr::Int(u) * x.clone() + Expr::Int(c);
        let (start, end) = (end(ends.0), end(ends.1));
        let range = SymRange::new(start, end);
        if !misses(&read, &write, "k", &range) {
            return;
        }
        for i in -3..=3 {
            for j in -3..=3 {
                let at = sdfg_symbolic::env(&[("i", i), ("j", j)]);
                let (lo, hi, _, _) = range.eval(&at).unwrap();
                for k in lo..hi {
                    let mut at = at.clone();
                    at.insert("k".into(), k);
                    prop_assert!(
                        boxes(&read, &at) != boxes(&write, &at),
                        "`{}` meets `{}` at i={} j={} k={} of {}", read, write, i, j, k, range
                    );
                }
            }
        }
    }
}

//! Symbolic integer math for SDFGs.
//!
//! The DaCe implementation of the SDFG paper leans on SymPy for parametric
//! sizes, map ranges and memlet subsets ("we utilize symbolic math
//! evaluation", §2.1). This crate is the from-scratch Rust replacement: a
//! small, canonicalizing symbolic engine over the integers with exactly the
//! operations the IR needs:
//!
//! * [`Expr`] — integer expressions over named symbols with `+`, `*`, floor
//!   division, modulo, `min`/`max`, constant folding and like-term collection.
//! * [`parse`](parse::parse_expr) — text syntax used by frontends and tests
//!   (`"2*N + i - 1"`, `"min(N, 16)"`, `"(i + 1) // 2"`).
//! * [`SymRange`] / [`Subset`] — symbolic half-open strided ranges and
//!   N-dimensional rectangular subsets: the payload of every memlet.
//! * Propagation algebra — the image of a subset under a map parameter
//!   sweeping its range (paper §4.3 step ❶), used to derive the overall data
//!   requirements of scopes.
//! * [`dependence`] — whether two accesses can touch the same element: the
//!   one analysis behind atomic elision, parallel tiles and the legality of
//!   the transformations that move data.
//!
//! Everything is deterministic and hash/equality-canonical after
//! [`Expr::simplify`], which the constructors apply eagerly.

pub mod dependence;
pub mod expr;
pub mod parse;
pub mod range;

pub use expr::{Assumptions, EvalError, Expr};
pub use parse::{parse_expr, ParseError};
pub use range::{Subset, SymRange};

/// Evaluation environment: maps symbol names to concrete values.
pub type Env = std::collections::HashMap<String, i64>;

/// Convenience: build an environment from pairs.
pub fn env(pairs: &[(&str, i64)]) -> Env {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

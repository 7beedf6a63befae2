//! JIT kernel emission: standalone C translation units for map nests. The
//! executor (`sdfg-exec`) compiles the source with the probed system C
//! compiler into a shared object and `dlopen`s it; this module only
//! produces text.
//!
//! # ABI contract
//!
//! Every kernel exports a single entry point, [`NEST_ENTRY`]:
//!
//! ```c
//! void sdfg_nest(double *const *bufs, const long long *geo,
//!                const double *syms,  const long long *bnd,
//!                long long lo0, long long hi0, long long *npts);
//! ```
//!
//! * `bufs` — container base pointers, indexed by each port's `geo` row.
//! * `geo` — port geometry, one row of `2 + D` entries per port
//!   (`D` = nest dimension count): `[buf, base, c0 … c_{D-1}]`. Port `p`
//!   at point `(i0 … i_{D-1})` addresses
//!   `bufs[geo[pS]][geo[pS+1] + Σ_d i_d·geo[pS+2+d]]` with `S = 2+D`.
//!   The caller folds every launch-time constant (symbol values, enclosing
//!   map parameters) into `base` and pre-validates that every reachable
//!   address is in bounds — the kernel performs **no bounds checks**.
//! * `syms[s]` holds the value of the VM-mirror bodies' `symbols[s]`.
//! * `bnd` — affine loop bounds, two rows of `1 + D` entries per
//!   dimension (lower then upper, upper exclusive):
//!   `[const, k0 … k_{D-1}]`; dimension `d` iterates
//!   `i_d ∈ [const_lo + Σ_{e<d} i_e·k_e, const_hi + Σ_{e<d} i_e·k_e)`
//!   with unit step. Dimension 0 ignores its `bnd` rows: its range is the
//!   `[lo0, hi0)` arguments, which is how one artifact serves a whole
//!   collapsed loop, one scheduler tile, or one deadline slice.
//! * `npts` — out-param: number of tasklet executions performed, for the
//!   caller's instrumentation counters.
//!
//! The body is a [`NestSpec`] tree of loops and tasklet calls emitted in
//! dependency order; inner bounds may be affine in outer iteration
//! variables (triangular, banded, trapezoidal). A one-dimensional nest
//! whose body is a single call is the innermost-dimension kernel.
//!
//! # Bitwise discipline
//!
//! A JIT run must be bitwise identical to the tier it replaces, so:
//!
//! * the executor compiles kernels with `-ffp-contract=off` (Rust never
//!   contracts `a*b + c` into an FMA, so the C must not either);
//! * recognized native shapes mirror the executor's micro-kernels
//!   statement for statement (see `crate::cpu`);
//! * unrecognized bodies mirror the tasklet VM via
//!   [`crate::c_expr::vm_expr_to_c`];
//! * programs whose VM execution could observe *stale register state*
//!   (a local read on a path that did not assign it — the VM's register
//!   file persists across map points) are rejected and fall back;
//! * register accumulation ([`JitOutMode::Accumulate`]) is emitted only as
//!   the dedicated reduction-loop form, whose final combine is skipped for
//!   empty ranges exactly like the native tier's early return. Atomic WCR
//!   stays in Rust: the caller points an accumulating port at a private
//!   cell and performs the atomic combine itself.
//!
//! Anything this module cannot prove bitwise-equivalent yields
//! `Err(reason)`; the executor records the reason and falls back to the
//! next tier, which is always correct.

use crate::c_expr::vm_expr_to_c;
use crate::cpu::{lincomb_value_c, mulchain_value_c, pattern_value_c};
use sdfg_lang::ast::{BinOp, Stmt};
use sdfg_lang::recognize::{LinComb, MulChain, Pattern};
use sdfg_lang::TaskletProgram;
use std::fmt::Write as _;

/// Name of the exported kernel entry point.
pub const NEST_ENTRY: &str = "sdfg_nest";

/// WCR reduction operators the JIT supports (`Wcr::Custom` is rejected
/// upstream, before a spec is built).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JitWcrOp {
    /// `old + new`
    Sum,
    /// `old * new`
    Product,
    /// `fmin(old, new)`
    Min,
    /// `fmax(old, new)`
    Max,
}

impl JitWcrOp {
    fn combine(&self, old: &str, new: &str) -> String {
        match self {
            JitWcrOp::Sum => format!("({old} + {new})"),
            JitWcrOp::Product => format!("({old} * {new})"),
            JitWcrOp::Min => format!("fmin({old}, {new})"),
            JitWcrOp::Max => format!("fmax({old}, {new})"),
        }
    }
}

/// How the kernel updates one output port per iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JitOutMode {
    /// Plain store: `out[off] = v` (native element-wise without WCR).
    Write,
    /// Read-modify-write: the output local is seeded from memory before
    /// the body runs and stored back after — the affine VM's protocol for
    /// plain (non-WCR) scalar outputs.
    ReadModifyWrite,
    /// WCR combine per iteration: `out[off] = f(out[off], v)`. Only valid
    /// when the executor's race analysis proved the write race-free
    /// (non-atomic); atomic WCR cannot be mirrored in plain C.
    CombinePerPoint(JitWcrOp),
    /// Register accumulation for a WCR output invariant in the enclosing
    /// loop (coefficient 0): the kernel folds into an identity-seeded
    /// register and combines it into the port once after the loop. Only
    /// valid for native single-output shapes whose call is the loop's
    /// whole body.
    Accumulate(JitWcrOp),
}

/// The body shape to emit, as decided by the lowering pipeline.
pub enum JitBody<'a> {
    /// Recognized canonical pattern (native micro-kernel mirror).
    Pattern(Pattern),
    /// Linear combination (stencil) shape.
    LinComb(&'a LinComb),
    /// Product chain (contraction) shape.
    MulChain(&'a MulChain),
    /// Unrecognized body: mirror the tasklet VM statement by statement.
    Program(&'a TaskletProgram),
}

/// Shared C preamble: includes and the helper functions mirroring the
/// bytecode VM's non-trivial binary operators.
fn emit_preamble(src: &mut String) {
    src.push_str("#include <math.h>\n\n");
    src.push_str(
        "static double sdfg_mod(double a, double b) { return a - floor(a / b) * b; }\n\
         static double sdfg_and(double a, double b) { return a == 0.0 ? a : b; }\n\
         static double sdfg_or(double a, double b) { return a != 0.0 ? a : b; }\n\n",
    );
}

/// Addressing scheme for one emission site: how input slot `i` is loaded
/// and how output slot `j` resolves to a `(base pointer, offset)` pair
/// through the `geo` rows, at the iteration point of the enclosing loops.
struct AddrCtx<'x> {
    ind: &'x str,
    in_expr: &'x dyn Fn(usize) -> String,
    out_ref: &'x dyn Fn(usize) -> (String, String),
}

fn emit_input_loads(src: &mut String, n_inputs: usize, actx: &AddrCtx<'_>) {
    let ind = actx.ind;
    for i in 0..n_inputs {
        let _ = writeln!(src, "{ind}const double v{i} = {};", (actx.in_expr)(i));
    }
}

fn emit_native_value(src: &mut String, body: &JitBody<'_>, ind: &str) -> Result<(), String> {
    match body {
        JitBody::Pattern(p) => {
            let _ = writeln!(src, "{ind}double val = {};", pattern_value_c(p));
        }
        JitBody::LinComb(lc) => src.push_str(&lincomb_value_c(lc, ind)),
        JitBody::MulChain(mc) => src.push_str(&mulchain_value_c(mc, ind)),
        JitBody::Program(_) => return Err("program body has no native value".into()),
    }
    Ok(())
}

/// Emits the per-iteration store for output `j` whose body value is in
/// C variable `val`.
fn emit_out_update(
    src: &mut String,
    j: usize,
    mode: &JitOutMode,
    val: &str,
    actx: &AddrCtx<'_>,
) -> Result<(), String> {
    let ind = actx.ind;
    let (ptr, off) = (actx.out_ref)(j);
    match mode {
        JitOutMode::Write | JitOutMode::ReadModifyWrite => {
            let _ = writeln!(src, "{ind}{ptr}[{off}] = {val};");
        }
        JitOutMode::CombinePerPoint(op) => {
            let _ = writeln!(
                src,
                "{ind}{{ const long long o = {off};\n{ind}  {ptr}[o] = {}; }}",
                op.combine(&format!("{ptr}[o]"), val)
            );
        }
        JitOutMode::Accumulate(_) => return Err("accumulate handled separately".into()),
    }
    Ok(())
}

// --- VM-mirror body emission --------------------------------------------------

/// Emits an unrecognized tasklet body as C statements that mirror the
/// bytecode VM. Output locals `o{j}` are seeded per the output mode
/// (memory for read-modify-write, `0.0` for WCR — exactly the affine VM
/// loop's protocol) and flushed after the body.
fn emit_vm_body(
    src: &mut String,
    prog: &TaskletProgram,
    outs: &[JitOutMode],
    actx: &AddrCtx<'_>,
) -> Result<(), String> {
    if outs.len() != prog.outputs.len() {
        return Err("output arity mismatch".into());
    }
    let ind = actx.ind;
    // Seed output locals.
    for (j, mode) in outs.iter().enumerate() {
        match mode {
            JitOutMode::ReadModifyWrite => {
                let (ptr, off) = (actx.out_ref)(j);
                let _ = writeln!(src, "{ind}double o{j} = {ptr}[{off}];");
            }
            JitOutMode::Write | JitOutMode::CombinePerPoint(_) => {
                let _ = writeln!(src, "{ind}double o{j} = 0.0;");
            }
            JitOutMode::Accumulate(_) => {
                return Err("register accumulation on a VM-mirror body".into())
            }
        }
    }
    // Declare locals up front (VM registers start zeroed); assignments in
    // the body are definite-assignment checked, so the initializer is only
    // observable where the VM would also observe a fresh zero register.
    let mut all_locals: Vec<String> = Vec::new();
    collect_locals(&prog.body, prog, &mut all_locals);
    for l in &all_locals {
        let _ = writeln!(src, "{ind}double l_{l} = 0.0;");
    }
    let mut st = VmEmitState {
        prog,
        declared: Vec::new(),
        definite: Vec::new(),
    };
    for s in &prog.body {
        st.emit_stmt(s, ind, src)?;
    }
    // Flush output locals.
    for (j, mode) in outs.iter().enumerate() {
        emit_out_update(src, j, mode, &format!("o{j}"), actx)?;
    }
    Ok(())
}

/// Collects every local name the body defines (assignment targets that are
/// not output connectors), in first-definition order.
fn collect_locals(body: &[Stmt], prog: &TaskletProgram, acc: &mut Vec<String>) {
    for s in body {
        match s {
            Stmt::Assign { target, .. } => {
                if !prog.outputs.contains(target)
                    && !prog.inputs.contains(target)
                    && !acc.contains(target)
                {
                    acc.push(target.clone());
                }
            }
            Stmt::If { then, els, .. } => {
                collect_locals(then, prog, acc);
                collect_locals(els, prog, acc);
            }
            Stmt::Push { .. } => {}
        }
    }
}

/// Walks the body in the same textual order as the bytecode compiler,
/// tracking which locals exist (`declared`, governing name resolution) and
/// which are definitely assigned on every path (`definite`, guarding
/// against the VM's cross-point register persistence).
struct VmEmitState<'a> {
    prog: &'a TaskletProgram,
    declared: Vec<String>,
    definite: Vec<String>,
}

impl VmEmitState<'_> {
    /// Resolution order must match the bytecode compiler: inputs, then
    /// locals declared so far, then outputs, then SDFG symbols.
    fn resolve_read(&self, n: &str) -> Result<String, String> {
        if let Some(i) = self.prog.inputs.iter().position(|x| x == n) {
            return Ok(format!("v{i}"));
        }
        if self.declared.iter().any(|l| l == n) {
            if !self.definite.iter().any(|l| l == n) {
                return Err(format!(
                    "local `{n}` may be read unassigned (stale VM register)"
                ));
            }
            return Ok(format!("l_{n}"));
        }
        if let Some(j) = self.prog.outputs.iter().position(|x| x == n) {
            return Ok(format!("o{j}"));
        }
        if let Some(s) = self.prog.symbols.iter().position(|x| x == n) {
            return Ok(format!("syms[{s}]"));
        }
        Err(format!("unresolved name `{n}`"))
    }

    fn emit_stmt(&mut self, s: &Stmt, ind: &str, src: &mut String) -> Result<(), String> {
        match s {
            Stmt::Push { stream, .. } => Err(format!("stream push to `{stream}`")),
            Stmt::Assign {
                index: Some(_),
                target,
                ..
            } => Err(format!("indexed store to `{target}`")),
            Stmt::Assign {
                target,
                index: None,
                op,
                value,
            } => {
                // The compiler resolves the RHS before defining the target
                // local, so emit it under the current scope first.
                let rhs = {
                    let resolve = |n: &str| self.resolve_read(n);
                    vm_expr_to_c(value, &resolve)?
                };
                let lhs = if let Some(j) = self.prog.outputs.iter().position(|x| x == target) {
                    format!("o{j}")
                } else if self.prog.inputs.contains(target) {
                    return Err(format!("assignment to input `{target}`"));
                } else {
                    if !self.declared.contains(target) {
                        if op.is_some() {
                            return Err(format!("augmented assignment to undefined `{target}`"));
                        }
                        self.declared.push(target.clone());
                    }
                    if !self.definite.contains(target) {
                        self.definite.push(target.clone());
                    }
                    format!("l_{target}")
                };
                match op {
                    None => {
                        let _ = writeln!(src, "{ind}{lhs} = {rhs};");
                    }
                    Some(op) => {
                        // `t op= v` runs as `t = apply_bin(op, t, v)`.
                        let e = match op {
                            BinOp::Add => format!("({lhs} + {rhs})"),
                            BinOp::Sub => format!("({lhs} - {rhs})"),
                            BinOp::Mul => format!("({lhs} * {rhs})"),
                            BinOp::Div => format!("({lhs} / {rhs})"),
                            BinOp::FloorDiv => format!("floor({lhs} / {rhs})"),
                            BinOp::Mod => format!("sdfg_mod({lhs}, {rhs})"),
                            BinOp::Pow => format!("pow({lhs}, {rhs})"),
                        };
                        let _ = writeln!(src, "{ind}{lhs} = {e};");
                    }
                }
                Ok(())
            }
            Stmt::If { cond, then, els } => {
                let c = {
                    let resolve = |n: &str| self.resolve_read(n);
                    vm_expr_to_c(cond, &resolve)?
                };
                let _ = writeln!(src, "{ind}if (({c}) != 0.0) {{");
                let outer_definite = self.definite.clone();
                let inner = format!("{ind}  ");
                for s in then {
                    self.emit_stmt(s, &inner, src)?;
                }
                let then_definite = std::mem::replace(&mut self.definite, outer_definite.clone());
                let _ = writeln!(src, "{ind}}} else {{");
                for s in els {
                    self.emit_stmt(s, &inner, src)?;
                }
                let els_definite = std::mem::take(&mut self.definite);
                // Only locals assigned on *both* paths are definite after
                // the branch.
                self.definite = outer_definite;
                for l in &then_definite {
                    if els_definite.contains(l) && !self.definite.contains(l) {
                        self.definite.push(l.clone());
                    }
                }
                let _ = writeln!(src, "{ind}}}");
                Ok(())
            }
        }
    }
}

// --- nest emission -----------------------------------------------------------

/// One output binding of a nest tasklet: which global port it writes and
/// how (see [`JitOutMode`]).
pub struct NestOut {
    /// Global port index (row into `geo`).
    pub port: usize,
    /// Update mode. `Accumulate` is only valid when the enclosing loop's
    /// body is exactly this call — the emitter produces the dedicated
    /// reduction-loop form.
    pub mode: JitOutMode,
}

/// One tasklet call site inside the nest.
pub struct NestTasklet<'a> {
    /// Body shape.
    pub body: JitBody<'a>,
    /// Global port index per input slot (row into `geo`).
    pub ins: Vec<usize>,
    /// Output bindings in slot order.
    pub outs: Vec<NestOut>,
}

/// Loop structure of the nest, emitted in order (= dependency order: the
/// recognizer only builds specs whose textual order is a valid topological
/// order of the intra-nest dependencies).
pub enum NestItem {
    /// `for (i{dim} = lo_d; i{dim} < hi_d; ++i{dim}) { body }` with the
    /// bounds taken from the kernel's `bnd` rows (affine in enclosing
    /// iteration variables). `dim` 0 is reserved for the outermost loop,
    /// whose range is the `[lo0, hi0)` arguments.
    Loop {
        /// Nest dimension this loop iterates.
        dim: usize,
        /// Loop body.
        body: Vec<NestItem>,
    },
    /// Execute `tasklets[idx]` at the current iteration point.
    Call(usize),
}

/// Everything the emitter needs to produce one nest kernel.
pub struct NestSpec<'a> {
    /// Number of nest dimensions (outermost/tile dimension included).
    pub ndims: usize,
    /// Number of port rows in `geo`.
    pub nports: usize,
    /// Call sites referenced by [`NestItem::Call`].
    pub tasklets: Vec<NestTasklet<'a>>,
    /// Kernel body, nested directly inside the dimension-0 loop.
    pub body: Vec<NestItem>,
}

/// C literal for a reduction identity (bitwise-identical to the
/// executor's `f64` seeds, including the infinities).
fn wcr_identity_c(op: JitWcrOp) -> &'static str {
    match op {
        JitWcrOp::Sum => "0.0",
        JitWcrOp::Product => "1.0",
        JitWcrOp::Min => "INFINITY",
        JitWcrOp::Max => "-INFINITY",
    }
}

/// `(base pointer, offset)` C expressions for port `p` at the iteration
/// point spanned by `scope` (the dims of all enclosing loops, in order).
fn nest_port_ref(ndims: usize, p: usize, scope: &[usize]) -> (String, String) {
    let row = p * (2 + ndims);
    let ptr = format!("bufs[geo[{row}]]");
    let mut off = format!("geo[{}]", row + 1);
    for &d in scope {
        let _ = write!(off, " + i{d} * geo[{}]", row + 2 + d);
    }
    (ptr, off)
}

/// C expression for the lower (`hi = false`) or upper (`hi = true`) bound
/// of dimension `d`, affine in the enclosing iteration variables.
fn nest_bound_expr(ndims: usize, d: usize, hi: bool, scope: &[usize]) -> String {
    let row = (2 * d + hi as usize) * (1 + ndims);
    let mut e = format!("bnd[{row}]");
    for &s in scope {
        let _ = write!(e, " + i{s} * bnd[{}]", row + 1 + s);
    }
    e
}

/// Emits the complete C translation unit for a nest kernel, or the reason
/// it cannot be emitted bitwise-faithfully.
pub fn emit_nest_kernel(spec: &NestSpec<'_>) -> Result<String, String> {
    if spec.ndims == 0 {
        return Err("nest has no dimensions".into());
    }
    if spec.body.is_empty() || spec.tasklets.is_empty() {
        return Err("empty nest body".into());
    }
    for t in &spec.tasklets {
        for &p in t.ins.iter().chain(t.outs.iter().map(|o| &o.port)) {
            if p >= spec.nports {
                return Err("port index out of range".into());
            }
        }
    }
    let mut src = String::new();
    emit_preamble(&mut src);
    let _ = writeln!(
        src,
        "void {NEST_ENTRY}(double *const *bufs, const long long *geo,\n\
         \x20             const double *syms, const long long *bnd,\n\
         \x20             long long lo0, long long hi0, long long *npts) {{"
    );
    src.push_str("  (void)bufs; (void)geo; (void)syms; (void)bnd;\n");
    src.push_str("  long long cnt = 0;\n");
    emit_nest_loop(&mut src, spec, 0, &spec.body, &mut Vec::new(), "  ")?;
    src.push_str("  *npts = cnt;\n}\n");
    Ok(src)
}

/// If `body` is exactly one call whose single output accumulates, returns
/// `(call index, op)` so the enclosing loop uses the reduction form.
fn accumulate_form(spec: &NestSpec<'_>, body: &[NestItem]) -> Option<(usize, JitWcrOp)> {
    let [NestItem::Call(t)] = body else {
        return None;
    };
    let tk = spec.tasklets.get(*t)?;
    if tk.outs.len() != 1 {
        return None;
    }
    match tk.outs[0].mode {
        JitOutMode::Accumulate(op) => Some((*t, op)),
        _ => None,
    }
}

/// Emits the loop over dimension `d` — whose `[lo{d}, hi{d})` bounds are
/// already C variables in scope (the entry point's arguments for the tile
/// dimension) — either as a plain `for` around `body` or, when `body` is a
/// single accumulating call, as a reduction loop.
fn emit_nest_loop(
    src: &mut String,
    spec: &NestSpec<'_>,
    d: usize,
    body: &[NestItem],
    scope: &mut Vec<usize>,
    ind: &str,
) -> Result<(), String> {
    let Some((t, op)) = accumulate_form(spec, body) else {
        let _ = writeln!(
            src,
            "{ind}for (long long i{d} = lo{d}; i{d} < hi{d}; ++i{d}) {{"
        );
        scope.push(d);
        emit_nest_items(src, spec, body, scope, &format!("{ind}  "))?;
        scope.pop();
        let _ = writeln!(src, "{ind}}}");
        return Ok(());
    };
    // Reduction loop: identity-seeded register, final combine into
    // memory — skipped entirely for empty ranges, mirroring the native
    // tier's early return.
    let tk = &spec.tasklets[t];
    if matches!(tk.body, JitBody::Program(_)) {
        return Err("register accumulation on a VM-mirror body".into());
    }
    let _ = writeln!(src, "{ind}if (lo{d} < hi{d}) {{");
    let _ = writeln!(src, "{ind}  double acc = {};", wcr_identity_c(op));
    let _ = writeln!(
        src,
        "{ind}  for (long long i{d} = lo{d}; i{d} < hi{d}; ++i{d}) {{"
    );
    scope.push(d);
    let inner = format!("{ind}    ");
    {
        let ndims = spec.ndims;
        let in_expr = |i: usize| {
            let (ptr, off) = nest_port_ref(ndims, tk.ins[i], scope);
            format!("{ptr}[{off}]")
        };
        let out_ref = |_j: usize| -> (String, String) { unreachable!("accumulate out") };
        let actx = AddrCtx {
            ind: &inner,
            in_expr: &in_expr,
            out_ref: &out_ref,
        };
        emit_input_loads(src, tk.ins.len(), &actx);
        emit_native_value(src, &tk.body, &inner)?;
    }
    let _ = writeln!(src, "{inner}acc = {};", op.combine("acc", "val"));
    let _ = writeln!(src, "{inner}++cnt;");
    scope.pop();
    let _ = writeln!(src, "{ind}  }}");
    // The out port is loop-invariant (its dim-`d` coefficient is zero), so
    // address it in the outer scope.
    let (ptr, off) = nest_port_ref(spec.ndims, tk.outs[0].port, scope);
    let _ = writeln!(src, "{ind}  {{ const long long o = {off};");
    let _ = writeln!(
        src,
        "{ind}    {ptr}[o] = {}; }}",
        op.combine(&format!("{ptr}[o]"), "acc")
    );
    let _ = writeln!(src, "{ind}}}");
    Ok(())
}

fn emit_nest_items(
    src: &mut String,
    spec: &NestSpec<'_>,
    items: &[NestItem],
    scope: &mut Vec<usize>,
    ind: &str,
) -> Result<(), String> {
    for item in items {
        match item {
            NestItem::Call(t) => emit_nest_call(src, spec, *t, scope, ind)?,
            NestItem::Loop { dim, body } => {
                let d = *dim;
                if d == 0 || d >= spec.ndims {
                    return Err(format!("bad nest dimension {d}"));
                }
                if scope.contains(&d) {
                    return Err(format!("nest dimension {d} reused"));
                }
                let lo = nest_bound_expr(spec.ndims, d, false, scope);
                let hi = nest_bound_expr(spec.ndims, d, true, scope);
                let _ = writeln!(src, "{ind}{{");
                let _ = writeln!(src, "{ind}  const long long lo{d} = {lo};");
                let _ = writeln!(src, "{ind}  const long long hi{d} = {hi};");
                emit_nest_loop(src, spec, d, body, scope, &format!("{ind}  "))?;
                let _ = writeln!(src, "{ind}}}");
            }
        }
    }
    Ok(())
}

/// Emits one tasklet call at the current iteration point. Mirrors the
/// per-point tiers statement for statement; `Accumulate` outputs are
/// rejected here (they are only legal as a whole reduction loop).
fn emit_nest_call(
    src: &mut String,
    spec: &NestSpec<'_>,
    t: usize,
    scope: &[usize],
    ind: &str,
) -> Result<(), String> {
    let tk = spec
        .tasklets
        .get(t)
        .ok_or_else(|| format!("bad call index {t}"))?;
    if tk
        .outs
        .iter()
        .any(|o| matches!(o.mode, JitOutMode::Accumulate(_)))
    {
        return Err("accumulate output outside a reduction loop".into());
    }
    let _ = writeln!(src, "{ind}{{");
    let inner = format!("{ind}  ");
    let ndims = spec.ndims;
    let in_expr = |i: usize| {
        let (ptr, off) = nest_port_ref(ndims, tk.ins[i], scope);
        format!("{ptr}[{off}]")
    };
    let out_ref = |j: usize| nest_port_ref(ndims, tk.outs[j].port, scope);
    let actx = AddrCtx {
        ind: &inner,
        in_expr: &in_expr,
        out_ref: &out_ref,
    };
    emit_input_loads(src, tk.ins.len(), &actx);
    match &tk.body {
        JitBody::Program(prog) => {
            let modes: Vec<JitOutMode> = tk.outs.iter().map(|o| o.mode).collect();
            emit_vm_body(src, prog, &modes, &actx)?;
        }
        native => {
            if tk.outs.len() != 1 {
                return Err("native nest call requires a single output".into());
            }
            emit_native_value(src, native, &inner)?;
            emit_out_update(src, 0, &tk.outs[0].mode, "val", &actx)?;
        }
    }
    let _ = writeln!(src, "{inner}++cnt;");
    let _ = writeln!(src, "{ind}}}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_lang::recognize::{BinOpKind, Operand};

    fn prog(code: &str, ins: &[&str], outs: &[&str]) -> TaskletProgram {
        let ins: Vec<String> = ins.iter().map(|s| s.to_string()).collect();
        let outs: Vec<String> = outs.iter().map(|s| s.to_string()).collect();
        TaskletProgram::compile(code, &ins, &outs).unwrap()
    }

    /// The innermost-dimension kernel: a 1-D nest whose body is one call,
    /// inputs on ports `0..n_inputs`, outputs on the ports after them.
    /// Port `p`'s `geo` row starts at `3p` (`[buf, base, c0]`).
    fn span(body: JitBody<'_>, n_inputs: usize, modes: &[JitOutMode]) -> Result<String, String> {
        emit_nest_kernel(&NestSpec {
            ndims: 1,
            nports: n_inputs + modes.len(),
            tasklets: vec![NestTasklet {
                body,
                ins: (0..n_inputs).collect(),
                outs: modes
                    .iter()
                    .enumerate()
                    .map(|(j, &mode)| NestOut {
                        port: n_inputs + j,
                        mode,
                    })
                    .collect(),
            }],
            body: vec![NestItem::Call(0)],
        })
    }

    #[test]
    fn span_accumulates_on_the_outermost_dimension() {
        let src = span(
            JitBody::Pattern(Pattern::BinOp {
                op: BinOpKind::Mul,
                a: Operand::Input(0),
                b: Operand::Input(1),
            }),
            2,
            &[JitOutMode::Accumulate(JitWcrOp::Sum)],
        )
        .unwrap();
        assert!(src.contains("void sdfg_nest("));
        // Dimension 0 itself is the reduction loop: identity-seeded
        // register, guarded against an empty range, one final combine into
        // the loop-invariant port (addressed by its base alone).
        assert!(src.contains("if (lo0 < hi0) {"));
        assert!(src.contains("double acc = 0.0;"));
        assert!(src.contains("for (long long i0 = lo0; i0 < hi0; ++i0) {"));
        assert!(src.contains("const double v1 = bufs[geo[3]][geo[4] + i0 * geo[5]];"));
        assert!(src.contains("double val = (v0 * v1);"));
        assert!(src.contains("acc = (acc + val);"));
        assert!(src.contains("{ const long long o = geo[7];"));
        assert!(src.contains("bufs[geo[6]][o] = (bufs[geo[6]][o] + acc); }"));
        assert!(src.contains("*npts = cnt;"));
    }

    #[test]
    fn span_emits_elementwise_and_combine_kernels() {
        let src = span(
            JitBody::Pattern(Pattern::Axpb {
                input: 0,
                mul: 2.0,
                add: -1.5,
            }),
            1,
            &[JitOutMode::Write],
        )
        .unwrap();
        assert!(src.contains("double val = (2.0 * v0 + -1.5);"));
        assert!(src.contains("bufs[geo[3]][geo[4] + i0 * geo[5]] = val;"));

        let src = span(
            JitBody::Pattern(Pattern::Copy { input: 0 }),
            1,
            &[JitOutMode::CombinePerPoint(JitWcrOp::Max)],
        )
        .unwrap();
        assert!(src.contains("{ const long long o = geo[4] + i0 * geo[5];"));
        assert!(src.contains("bufs[geo[3]][o] = fmax(bufs[geo[3]][o], val); }"));
    }

    #[test]
    fn span_emits_lincomb_and_mulchain() {
        let lc = LinComb {
            terms: vec![(0, 1.0), (1, -2.0), (2, 1.0)],
            bias: 0.5,
        };
        let src = span(JitBody::LinComb(&lc), 3, &[JitOutMode::Write]).unwrap();
        assert!(src.contains("double val = 0.5;"));
        assert!(src.contains("val += 1.0 * v0;"));
        assert!(src.contains("val += -2.0 * v1;"));

        let mc = MulChain {
            slots: vec![0, 1, 2],
            scale: -1.0,
        };
        let src = span(
            JitBody::MulChain(&mc),
            3,
            &[JitOutMode::Accumulate(JitWcrOp::Sum)],
        )
        .unwrap();
        assert!(src.contains("double val = -1.0;"));
        assert!(src.contains("val *= v0;"));
        assert!(src.contains("acc = (acc + val);"));
    }

    #[test]
    fn span_emits_vm_mirror_program() {
        let p = prog("t = a * a\no = t + b % a", &["a", "b"], &["o"]);
        let src = span(JitBody::Program(&p), 2, &[JitOutMode::ReadModifyWrite]).unwrap();
        // Read-modify-write: the output local is seeded from memory and
        // stored back through the same port.
        assert!(src.contains("double o0 = bufs[geo[6]][geo[7] + i0 * geo[8]];"));
        assert!(src.contains("l_t = (v0 * v0);"));
        assert!(src.contains("o0 = (l_t + sdfg_mod(v1, v0));"));
        assert!(src.contains("bufs[geo[6]][geo[7] + i0 * geo[8]] = o0;"));
        assert!(src.contains("static double sdfg_mod"));
    }

    #[test]
    fn vm_mirror_branches_and_symbols() {
        let p = prog(
            "if a > 0:\n    s = 1.0\nelse:\n    s = -1.0\no = s * N",
            &["a"],
            &["o"],
        );
        assert_eq!(p.symbols, vec!["N".to_string()]);
        let src = span(
            JitBody::Program(&p),
            1,
            &[JitOutMode::CombinePerPoint(JitWcrOp::Sum)],
        )
        .unwrap();
        assert!(src.contains("if ((((v0 > 0.0) ? 1.0 : 0.0)) != 0.0) {"));
        // The symbol table is positional: `syms[s]` is `symbols[s]`.
        assert!(src.contains("o0 = (l_s * syms[0]);"));
        // WCR outputs are seeded with zero and combined per point.
        assert!(src.contains("double o0 = 0.0;"));
        assert!(src.contains("bufs[geo[3]][o] = (bufs[geo[3]][o] + o0); }"));
    }

    #[test]
    fn rejects_conditionally_assigned_local() {
        // `t` is only assigned when the branch is taken; the VM would read
        // a stale register on other points, which C cannot mirror.
        let p = prog("if a > 0:\n    t = a\no = t + 1", &["a"], &["o"]);
        let err = span(JitBody::Program(&p), 1, &[JitOutMode::ReadModifyWrite]).unwrap_err();
        assert!(err.contains("stale"), "{err}");
    }

    #[test]
    fn rejects_indexed_ports_and_bad_shapes() {
        let p = prog("o = w[0] + w[1]", &["w"], &["o"]);
        assert!(span(JitBody::Program(&p), 1, &[JitOutMode::ReadModifyWrite]).is_err());

        // Accumulate is native-only.
        let p2 = prog("o = a + 1", &["a"], &["o"]);
        let acc = [JitOutMode::Accumulate(JitWcrOp::Sum)];
        assert!(span(JitBody::Program(&p2), 1, &acc).is_err());

        // ... and single-output only: with a second output the call is no
        // reduction loop, so the accumulating port has nowhere to fold.
        let two = [JitOutMode::Accumulate(JitWcrOp::Sum), JitOutMode::Write];
        assert!(span(JitBody::Pattern(Pattern::Copy { input: 0 }), 1, &two).is_err());

        // A body needs an output and in-range ports.
        assert!(span(JitBody::Pattern(Pattern::Copy { input: 0 }), 1, &[]).is_err());
    }

    #[test]
    fn branch_joined_locals_are_definite() {
        let p = prog(
            "if a > 0:\n    t = a\nelse:\n    t = -a\no = t",
            &["a"],
            &["o"],
        );
        let src = span(JitBody::Program(&p), 1, &[JitOutMode::ReadModifyWrite]).unwrap();
        assert!(src.contains("o0 = l_t;"));
    }

    // --- multi-dimensional nests ----------------------------------------------

    #[test]
    fn emits_triangular_reduction_nest() {
        // The cholesky inner-state shape: a triangular reduction loop
        // feeding a per-point division tasklet.
        //   for i1 in [bnd(1)]:                # affine in i0
        //     acc over i2 in [bnd(2)]:         # A[i,j] += -A[i,k]*A[j,k]
        //     A[i,j] = A[i,j] / A[j,j]         # program body
        let mc = MulChain {
            slots: vec![0, 1],
            scale: -1.0,
        };
        let div = prog("o = a / b", &["a", "b"], &["o"]);
        let spec = NestSpec {
            ndims: 3,
            nports: 6,
            tasklets: vec![
                NestTasklet {
                    body: JitBody::MulChain(&mc),
                    ins: vec![0, 1],
                    outs: vec![NestOut {
                        port: 2,
                        mode: JitOutMode::Accumulate(JitWcrOp::Sum),
                    }],
                },
                NestTasklet {
                    body: JitBody::Program(&div),
                    ins: vec![3, 4],
                    outs: vec![NestOut {
                        port: 5,
                        mode: JitOutMode::Write,
                    }],
                },
            ],
            body: vec![NestItem::Loop {
                dim: 1,
                body: vec![
                    NestItem::Loop {
                        dim: 2,
                        body: vec![NestItem::Call(0)],
                    },
                    NestItem::Call(1),
                ],
            }],
        };
        let src = emit_nest_kernel(&spec).unwrap();
        assert!(src.contains("void sdfg_nest("));
        assert!(src.contains("for (long long i0 = lo0; i0 < hi0; ++i0)"));
        // dim-1 bounds: rows 2 (lo) and 3 (hi) of width 4, affine in i0.
        assert!(src.contains("const long long lo1 = bnd[8] + i0 * bnd[9];"));
        assert!(src.contains("const long long hi1 = bnd[12] + i0 * bnd[13];"));
        // The reduction is identity-seeded and guarded against empty ranges.
        assert!(src.contains("if (lo2 < hi2) {"));
        assert!(src.contains("double acc = 0.0;"));
        assert!(src.contains("acc = (acc + val);"));
        // Final combine mirrors combine_plain: old + acc.
        assert!(src.contains("[o] = (bufs[geo[10]][o] + acc); }"));
        // The division call loads through geo rows 3/4 (width 5) and
        // stores through row 5.
        assert!(
            src.contains("const double v0 = bufs[geo[15]][geo[16] + i0 * geo[17] + i1 * geo[18]];")
        );
        assert!(src.contains("o0 = (v0 / v1);"));
        assert!(src.contains("bufs[geo[25]][geo[26] + i0 * geo[27] + i1 * geo[28]] = o0;"));
        assert!(src.contains("*npts = cnt;"));
    }

    #[test]
    fn nest_min_identity_is_infinity() {
        let spec = NestSpec {
            ndims: 2,
            nports: 2,
            tasklets: vec![NestTasklet {
                body: JitBody::Pattern(Pattern::Copy { input: 0 }),
                ins: vec![0],
                outs: vec![NestOut {
                    port: 1,
                    mode: JitOutMode::Accumulate(JitWcrOp::Min),
                }],
            }],
            body: vec![NestItem::Loop {
                dim: 1,
                body: vec![NestItem::Call(0)],
            }],
        };
        let src = emit_nest_kernel(&spec).unwrap();
        assert!(src.contains("double acc = INFINITY;"));
        assert!(src.contains("fmin(bufs[geo[4]][o], acc)"));
    }

    #[test]
    fn nest_rejects_bad_shapes() {
        let mk = |body: Vec<NestItem>| NestSpec {
            ndims: 2,
            nports: 2,
            tasklets: vec![NestTasklet {
                body: JitBody::Pattern(Pattern::Copy { input: 0 }),
                ins: vec![0],
                outs: vec![NestOut {
                    port: 1,
                    mode: JitOutMode::Accumulate(JitWcrOp::Sum),
                }],
            }],
            body,
        };
        // Accumulate must be its loop's whole body.
        assert!(emit_nest_kernel(&mk(vec![NestItem::Call(0), NestItem::Call(0)])).is_err());
        // Dimension 0 is the tile loop; reusing it is a bug.
        assert!(emit_nest_kernel(&mk(vec![NestItem::Loop {
            dim: 0,
            body: vec![NestItem::Call(0)],
        }]))
        .is_err());
        // Out-of-range dimension.
        assert!(emit_nest_kernel(&mk(vec![NestItem::Loop {
            dim: 2,
            body: vec![NestItem::Call(0)],
        }]))
        .is_err());
    }
}

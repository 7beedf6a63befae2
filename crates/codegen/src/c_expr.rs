//! C rendering shared by the three dispatchers and the JIT — the analogue
//! of DaCe's Python-to-C++ converter (§3.2): symbolic integer expressions
//! and interstate conditions ([`sym_to_c`], [`cond_to_c`]), and tasklets
//! with the bytecode VM's exact arithmetic ([`vm_expr_to_c`]) and name
//! resolution (`VmScope`). A tasklet body the VM would run differently
//! is refused, not rendered.

use crate::jit::JitWcrOp;
use sdfg_core::desc::DataDesc;
use sdfg_core::{BoolExpr, Node, Sdfg, State, TaskletLang, Wcr};
use sdfg_graph::NodeId;
use sdfg_lang::ast::{BinOp, Builtin, CmpOp, ExprAst, Stmt};
use sdfg_symbolic::{Expr, Subset, SymRange};
use std::fmt::Write as _;

/// The symbolic engine's floor division and modulo, min and max, which
/// [`sym_to_c`] calls.
const SYM_HELPERS: &str = "\
static long long sdfg_idiv(long long a, long long b) { long long q = a / b; \
return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q; }
static long long sdfg_imod(long long a, long long b) { long long r = a % b; \
return (r != 0 && (r < 0) != (b < 0)) ? r + b : r; }
static long long sdfg_imin(long long a, long long b) { return a < b ? a : b; }
static long long sdfg_imax(long long a, long long b) { return a > b ? a : b; }
";

/// The helpers every dispatcher's source starts with: the JIT's VM
/// helpers and index conversion, and [`SYM_HELPERS`].
pub(crate) fn emit_preamble(out: &mut String) {
    crate::jit::emit_preamble(out);
    out.push_str(crate::jit::SDFG_I64);
    out.push_str(SYM_HELPERS);
    out.push('\n');
}

/// Renders a symbolic integer expression as C with the symbolic engine's
/// floor semantics.
pub fn sym_to_c(e: &Expr) -> String {
    sym_prec(e, 0)
}

/// Renders `e`, parenthesized when its operator binds looser than the
/// enclosing one (`outer`: 0 none, 1 `+`, 2 `*`).
fn sym_prec(e: &Expr, outer: u8) -> String {
    let call = |f: &str, a: &Expr, b: &Expr| format!("{f}({}, {})", sym_to_c(a), sym_to_c(b));
    let (s, prec) = match e {
        Expr::Int(v) => (v.to_string(), 3),
        Expr::Sym(s) => (s.clone(), 3),
        Expr::Add(v) => {
            // The canonical form stores a constant first; render it last,
            // and `+ -c*t` as `- c*t`.
            let mut terms: Vec<&Expr> = v.iter().collect();
            if terms.len() > 1 && matches!(terms[0], Expr::Int(_)) {
                terms.rotate_left(1);
            }
            let mut s = sym_prec(terms[0], 1);
            for t in &terms[1..] {
                match t {
                    Expr::Int(c) if *c < 0 => write!(s, " - {}", -c),
                    Expr::Mul(f) if matches!(f[0], Expr::Int(c) if c < 0) => {
                        let Expr::Int(c) = f[0] else { unreachable!() };
                        let mut pos = f.clone();
                        pos[0] = Expr::Int(-c);
                        if c == -1 {
                            pos.remove(0);
                        }
                        write!(s, " - {}", sym_prec(&Expr::Mul(pos), 2))
                    }
                    _ => write!(s, " + {}", sym_prec(t, 1)),
                }
                .unwrap();
            }
            (s, 1)
        }
        Expr::Mul(v) => {
            let parts: Vec<String> = v.iter().map(|x| sym_prec(x, 2)).collect();
            (parts.join(" * "), 2)
        }
        Expr::FloorDiv(a, b) => (call("sdfg_idiv", a, b), 3),
        Expr::Mod(a, b) => (call("sdfg_imod", a, b), 3),
        Expr::Min(a, b) => (call("sdfg_imin", a, b), 3),
        Expr::Max(a, b) => (call("sdfg_imax", a, b), 3),
    };
    if prec < outer {
        format!("({s})")
    } else {
        s
    }
}

/// Renders an interstate condition as C.
pub fn cond_to_c(c: &BoolExpr) -> String {
    let atom = |c: &BoolExpr| match c {
        BoolExpr::Const(_) => cond_to_c(c),
        _ => format!("({})", cond_to_c(c)),
    };
    match c {
        BoolExpr::Const(b) => u8::from(*b).to_string(),
        BoolExpr::Cmp(op, a, b) => format!("{} {} {}", sym_to_c(a), op.symbol(), sym_to_c(b)),
        BoolExpr::And(a, b) => format!("{} && {}", atom(a), atom(b)),
        BoolExpr::Or(a, b) => format!("{} || {}", atom(a), atom(b)),
        BoolExpr::Not(a) => format!("!{}", atom(a)),
    }
}

/// Flattened C index expression for a subset's origin.
pub(crate) fn flat_index(sdfg: &Sdfg, data: &str, subset: &Subset) -> String {
    let strides = match sdfg.desc(data) {
        Some(DataDesc::Array(a)) => a.strides.clone(),
        _ => vec![],
    };
    let terms: Vec<Expr> = subset
        .dims
        .iter()
        .enumerate()
        .map(|(d, r)| r.start.clone() * strides.get(d).cloned().unwrap_or_else(Expr::one))
        .filter(|t| !t.is_zero())
        .collect();
    if terms.is_empty() {
        "0".into()
    } else {
        sym_prec(&Expr::Add(terms), 0)
    }
}

/// Where one tasklet output's value goes (see [`emit_tasklet`]).
pub(crate) enum Sink<'a> {
    /// An element's C lvalue (`A[i]`), combined by the WCR when set.
    Elem(String, Option<&'a Wcr>),
    /// A stream container.
    Stream(&'a str),
}

/// The argument list of a device function: every container as a pointer,
/// then the symbols.
pub(crate) fn pointer_args(sdfg: &Sdfg) -> String {
    let (arrays, symbols) = sdfg.arglist();
    let ctype = |a: &str| sdfg.desc(a).map(|d| d.dtype().ctype()).unwrap_or("double");
    let args = arrays.iter().map(|a| format!("{} *{a}", ctype(a)));
    let syms = symbols.iter().map(|s| format!("long long {s}"));
    args.chain(syms).collect::<Vec<_>>().join(", ")
}

/// The C loop over one map dimension (its body's opening brace included).
pub(crate) fn map_for(p: &str, r: &SymRange) -> String {
    let (start, end, step) = (sym_to_c(&r.start), sym_to_c(&r.end), sym_to_c(&r.step));
    format!("for (long long {p} = {start}; {p} < {end}; {p} += {step}) {{")
}

/// How a tasklet connector is held in its emitted block.
enum Held<'a> {
    /// A `double` holding one element.
    Value,
    /// A pointer into the container (a window).
    Window,
    /// A stream container, written once per `push`.
    Stream(&'a str),
}

/// Emits tasklet `n` of `st` as a C block computing the interpreter's
/// arithmetic. Each element connector is a `double`: an input loaded, an
/// output seeded as the interpreter seeds it (from memory for a plain
/// write, with the WCR identity for a combine) and handed to `store`
/// after the body. A window connector (volume above one) points into its
/// container, which must hold the window densely from its origin, as the
/// interpreter's copy does. A stream output is handed to `store` at each
/// `push`. The body renders through [`vm_expr_to_c`], its names resolved
/// by [`VmScope`]; symbols read as `double`s, as in the VM. A body the
/// VM's semantics cannot be rendered for (a local read before it is
/// assigned, a window output with a WCR, an input window aliasing an
/// output window, ...) becomes an `#error` naming the reason.
pub(crate) fn emit_tasklet(
    sdfg: &Sdfg,
    st: &State,
    n: NodeId,
    ind: &str,
    out: &mut String,
    store: fn(&mut String, &str, &Sink, &str),
) {
    let Node::Tasklet {
        name, code, lang, ..
    } = st.graph.node(n)
    else {
        return;
    };
    let _ = writeln!(out, "{ind}{{  // tasklet: {name}");
    let ind2 = format!("{ind}    ");
    // (connector, memlet) pairs, inputs then outputs.
    let conns = st
        .graph
        .in_edges(n)
        .map(|e| (false, &st.graph.edge(e).dst_conn, &st.graph.edge(e).memlet))
        .chain(
            st.graph
                .out_edges(n)
                .map(|e| (true, &st.graph.edge(e).src_conn, &st.graph.edge(e).memlet)),
        );
    let mut t = TaskletC {
        held: Vec::new(),
        store,
    };
    let (mut ins, mut outs, mut sinks) = (vec![], vec![], vec![]);
    let (mut decls, mut refused) = (String::new(), None);
    let mut windows: [Vec<&str>; 2] = [vec![], vec![]];
    for (output, conn, m) in conns {
        let (Some(conn), false) = (conn.clone(), m.is_empty()) else {
            continue;
        };
        let data = m.data_name();
        let desc = sdfg.desc(data);
        let elem = match desc {
            Some(DataDesc::Scalar(_)) => data.to_string(),
            _ => format!("{data}[{}]", flat_index(sdfg, data, &m.subset)),
        };
        let ctype = desc.map_or("double", |d| d.dtype().ctype());
        let cv = if output { "" } else { "const " };
        let (held, decl) = if let Some(DataDesc::Stream(_)) = desc {
            if output {
                (Held::Stream(data), None)
            } else {
                (
                    Held::Value,
                    Some(format!("const double {conn} = {data}.read()")),
                )
            }
        } else if !m.subset.volume().is_one() {
            windows[usize::from(output)].push(data);
            if !dense_window(sdfg, &m.subset, data) {
                refused = Some(format!("window `{conn}` is not dense in `{data}`"));
            } else if output && m.wcr.is_some() {
                refused = Some(format!("window output `{conn}` has a WCR"));
            }
            (Held::Window, Some(format!("{cv}{ctype} *{conn} = &{elem}")))
        } else if output {
            let seed = match m.wcr.as_ref().zip(desc) {
                Some((w, d)) => c_f64(w.identity(d.dtype()).unwrap_or(0.0)),
                None => elem.clone(),
            };
            sinks.push((Sink::Elem(elem, m.wcr.as_ref()), conn.clone()));
            (Held::Value, Some(format!("double {conn} = {seed}")))
        } else {
            (Held::Value, Some(format!("const double {conn} = {elem}")))
        };
        // A connector with several memlets is held as its first says.
        if t.held(&conn).is_none() {
            if let Some(decl) = decl {
                let _ = writeln!(decls, "{ind2}{decl};");
            }
            t.held.push((conn.clone(), held));
        }
        if output { &mut outs } else { &mut ins }.push(conn);
    }
    if let Some(d) = windows[0].iter().find(|d| windows[1].contains(d)) {
        refused = Some(format!("an input window and an output window share `{d}`"));
    }
    let body = match (lang, refused) {
        (_, Some(why)) => Err(why),
        (TaskletLang::Python, None) => t.body(code, &ins, &outs, &ind2),
        // External code emitted verbatim (paper Fig. 5).
        (TaskletLang::Cpp, None) => Ok(code.lines().map(|l| format!("{ind2}{l}\n")).collect()),
    };
    match body {
        Ok(body) => {
            out.push_str(&decls);
            out.push_str(&body);
            for (sink, conn) in &sinks {
                store(out, &ind2, sink, conn);
            }
        }
        Err(why) => {
            let why = format!("tasklet `{name}` not rendered: {why}");
            let _ = writeln!(out, "#error \"{}\"", why.replace(['"', '\\'], "'"));
        }
    }
    let _ = writeln!(out, "{ind}}}");
}

/// Whether `subset`'s elements sit in `data` at the offsets of the
/// interpreter's dense copy of them, counted from the subset's origin.
fn dense_window(sdfg: &Sdfg, subset: &Subset, data: &str) -> bool {
    let Some(DataDesc::Array(a)) = sdfg.desc(data) else {
        return false;
    };
    let mut inner = Expr::one();
    for (d, r) in subset.dims.iter().enumerate().rev() {
        if r.is_index() {
            continue;
        }
        if !r.step.is_one() || !r.tile.is_one() || a.strides.get(d) != Some(&inner) {
            return false;
        }
        inner = inner * r.num_elements();
    }
    true
}

/// One tasklet's connectors while its body renders.
struct TaskletC<'a> {
    held: Vec<(String, Held<'a>)>,
    store: fn(&mut String, &str, &Sink, &str),
}

impl TaskletC<'_> {
    fn held(&self, n: &str) -> Option<&Held<'_>> {
        self.held.iter().find(|(c, _)| c == n).map(|(_, h)| h)
    }

    /// Renders a Python body: its locals declared up front, as the JIT
    /// declares them, then its statements.
    fn body(
        &self,
        code: &str,
        ins: &[String],
        outs: &[String],
        ind: &str,
    ) -> Result<String, String> {
        let body = sdfg_lang::parse_tasklet(code).map_err(|e| e.to_string())?;
        let mut locals = Vec::new();
        collect_locals(&body, ins, outs, &mut locals);
        let mut src = String::new();
        for l in &locals {
            let _ = writeln!(src, "{ind}double l_{l} = 0.0;");
        }
        let mut names = VmScope::new(ins, outs);
        for s in &body {
            self.stmt(s, &mut names, ind, &mut src)?;
        }
        Ok(src)
    }

    fn expr(&self, e: &ExprAst, names: &VmScope) -> Result<String, String> {
        let windowed = |n: &str| matches!(self.held(n), Some(Held::Window));
        if let Some(n) = unindexable(e, &windowed) {
            return Err(format!("indexed read of `{n}`, which is not a window"));
        }
        vm_expr_to_c(e, &|n| {
            Ok(match names.read(n)? {
                VmName::Local => format!("l_{n}"),
                VmName::Symbol => format!("(double){n}"),
                VmName::Input(_) | VmName::Output(_) => match self.held(n) {
                    // A bare window read is the VM's load at offset 0.
                    Some(Held::Window) => format!("{n}[0]"),
                    Some(Held::Stream(_)) => return Err(format!("read of stream `{n}`")),
                    _ => n.to_string(),
                },
            })
        })
    }

    fn stmt(
        &self,
        s: &Stmt,
        names: &mut VmScope,
        ind: &str,
        out: &mut String,
    ) -> Result<(), String> {
        match s {
            Stmt::Assign {
                target,
                index,
                op,
                value,
            } => {
                let at = match index.as_deref() {
                    None => None,
                    Some([ix]) => Some(self.expr(ix, names)?),
                    Some(_) => return Err(format!("multi-dimensional index into `{target}`")),
                };
                let rhs = self.expr(value, names)?;
                let lhs = match (names.assign(target, op.is_some())?, self.held(target), at) {
                    (VmName::Output(_), Some(Held::Window), at) => {
                        let at = at.map_or("0".into(), |ix| format!("sdfg_i64({ix})"));
                        format!("{target}[{at}]")
                    }
                    (VmName::Output(_), Some(Held::Value), None) => target.clone(),
                    (VmName::Local, _, None) => format!("l_{target}"),
                    _ => return Err(format!("store to `{target}`")),
                };
                // `t op= v` runs as `t = apply_bin(op, t, v)`.
                let rhs = match op {
                    Some(op) => vm_bin_to_c(*op, &lhs, &rhs),
                    None => rhs,
                };
                let _ = writeln!(out, "{ind}{lhs} = {rhs};");
            }
            Stmt::Push { stream, value } => {
                let Some(Held::Stream(data)) = self.held(stream) else {
                    return Err(format!("push to `{stream}`, which is not a stream"));
                };
                (self.store)(out, ind, &Sink::Stream(data), &self.expr(value, names)?);
            }
            Stmt::If { cond, then, els } => {
                let _ = writeln!(out, "{ind}if (({}) != 0.0) {{", self.expr(cond, names)?);
                let inner = format!("{ind}    ");
                let fork = names.fork();
                for s in then {
                    self.stmt(s, names, &inner, out)?;
                }
                let then = names.next_arm(fork);
                if !els.is_empty() {
                    let _ = writeln!(out, "{ind}}} else {{");
                    for s in els {
                        self.stmt(s, names, &inner, out)?;
                    }
                }
                names.join(&then);
                let _ = writeln!(out, "{ind}}}");
            }
        }
        Ok(())
    }
}

/// The first name `e` indexes that `indexable` refuses.
fn unindexable<'e>(e: &'e ExprAst, indexable: &dyn Fn(&str) -> bool) -> Option<&'e str> {
    let sub: Vec<&ExprAst> = match e {
        ExprAst::Num(_) | ExprAst::Name(_) => vec![],
        ExprAst::Index(n, _) if !indexable(n) => return Some(n),
        ExprAst::Index(_, idx) | ExprAst::Call(_, idx) => idx.iter().collect(),
        ExprAst::Bin(_, a, b) | ExprAst::Cmp(_, a, b) | ExprAst::And(a, b) | ExprAst::Or(a, b) => {
            vec![a, b]
        }
        ExprAst::Neg(a) | ExprAst::Not(a) => vec![a],
        ExprAst::Ternary { cond, then, els } => vec![cond, then, els],
    };
    sub.into_iter().find_map(|x| unindexable(x, indexable))
}

/// Collects every local name the body defines (assignment targets that are
/// not connectors), in first-definition order.
pub(crate) fn collect_locals(
    body: &[Stmt],
    inputs: &[String],
    outputs: &[String],
    acc: &mut Vec<String>,
) {
    for s in body {
        match s {
            Stmt::Assign { target, .. } => {
                if !outputs.contains(target) && !inputs.contains(target) && !acc.contains(target) {
                    acc.push(target.clone());
                }
            }
            Stmt::If { then, els, .. } => {
                collect_locals(then, inputs, outputs, acc);
                collect_locals(els, inputs, outputs, acc);
            }
            Stmt::Push { .. } => {}
        }
    }
}

/// What a tasklet name denotes to the bytecode compiler.
pub(crate) enum VmName {
    /// Input connector `i`.
    Input(usize),
    /// A local assigned on every path so far.
    Local,
    /// Output connector `j`.
    Output(usize),
    /// An SDFG symbol.
    Symbol,
}

/// The bytecode compiler's names while a body is walked in textual order
/// (`sdfg_lang::compile`): a read resolves to an input, then a local
/// assigned so far, then an output, then an SDFG symbol. VM registers
/// persist from one execution to the next, so a local read before some
/// path assigns it would read a stale register: it is refused. Every
/// emitter of tasklet bodies resolves names here.
pub(crate) struct VmScope<'p> {
    inputs: &'p [String],
    outputs: &'p [String],
    /// Locals assigned so far on some path (they shadow outputs).
    declared: Vec<String>,
    /// Locals assigned so far on every path.
    definite: Vec<String>,
}

impl<'p> VmScope<'p> {
    pub(crate) fn new(inputs: &'p [String], outputs: &'p [String]) -> Self {
        let (declared, definite) = (Vec::new(), Vec::new());
        VmScope {
            inputs,
            outputs,
            declared,
            definite,
        }
    }

    /// What a read of `n` denotes.
    pub(crate) fn read(&self, n: &str) -> Result<VmName, String> {
        let at = |v: &[String]| v.iter().position(|x| x == n);
        if let Some(i) = at(self.inputs) {
            return Ok(VmName::Input(i));
        }
        if at(&self.declared).is_some() {
            if at(&self.definite).is_none() {
                return Err(format!(
                    "local `{n}` may be read unassigned (stale VM register)"
                ));
            }
            return Ok(VmName::Local);
        }
        Ok(at(self.outputs).map_or(VmName::Symbol, VmName::Output))
    }

    /// What an assignment to `target` writes (resolve its value first, as
    /// the compiler does); `augmented` for `target op= value`.
    pub(crate) fn assign(&mut self, target: &str, augmented: bool) -> Result<VmName, String> {
        let name = target.to_string();
        if let Some(j) = self.outputs.iter().position(|x| *x == name) {
            return Ok(VmName::Output(j));
        }
        if self.inputs.contains(&name) {
            return Err(format!("assignment to input `{target}`"));
        }
        if augmented && !self.definite.contains(&name) {
            return Err(if self.declared.contains(&name) {
                format!("local `{target}` may be read unassigned (stale VM register)")
            } else {
                format!("augmented assignment to undefined `{target}`")
            });
        }
        if !self.declared.contains(&name) {
            self.declared.push(name.clone());
        }
        if !self.definite.contains(&name) {
            self.definite.push(name);
        }
        Ok(VmName::Local)
    }

    /// Before an `if`'s arms: the locals assigned on every path so far.
    pub(crate) fn fork(&self) -> Vec<String> {
        self.definite.clone()
    }

    /// Between an `if`'s arms: starts the else-arm from `fork`, returning
    /// the then-arm's assignments.
    pub(crate) fn next_arm(&mut self, fork: Vec<String>) -> Vec<String> {
        std::mem::replace(&mut self.definite, fork)
    }

    /// After an `if`'s arms: only locals both arms assigned stay definite.
    pub(crate) fn join(&mut self, then: &[String]) {
        self.definite.retain(|l| then.contains(l));
    }
}

/// `old ⊕ new` for a write-conflict resolution, with the interpreter's
/// arithmetic (a custom one renders like a tasklet over `old` and `new`).
pub(crate) fn wcr_to_c(w: &Wcr, old: &str, new: &str) -> String {
    let op = match w {
        Wcr::Sum => JitWcrOp::Sum,
        Wcr::Product => JitWcrOp::Product,
        Wcr::Min => JitWcrOp::Min,
        Wcr::Max => JitWcrOp::Max,
        Wcr::Custom(code) => {
            let resolve = |n: &str| -> Result<String, String> {
                Ok(match n {
                    "old" => old.to_string(),
                    "new" => new.to_string(),
                    _ => format!("(double){n}"),
                })
            };
            let body = sdfg_lang::parse_tasklet(&format!("__r = {code}"));
            return match body.as_deref() {
                Ok([Stmt::Assign { value, .. }]) => vm_expr_to_c(value, &resolve)
                    .unwrap_or_else(|e| format!("{new} /* WCR not rendered: {e} */")),
                _ => format!("{new} /* WCR not rendered: `{code}` */"),
            };
        }
    };
    op.combine(old, new)
}

// --- VM-exact emission -------------------------------------------------------

/// Formats an `f64` as a C literal that parses back to the same bits:
/// Rust's shortest-round-trip `{:?}` output is decimal, and C's correctly
/// rounded `strtod` recovers the original double exactly. Non-finite
/// values (unreachable from the tasklet parser, but cheap to handle) are
/// spelled as constant expressions.
pub fn c_f64(v: f64) -> String {
    if v.is_nan() {
        "(0.0 / 0.0)".to_string()
    } else if v == f64::INFINITY {
        "(1.0 / 0.0)".to_string()
    } else if v == f64::NEG_INFINITY {
        "(-1.0 / 0.0)".to_string()
    } else {
        format!("{v:?}")
    }
}

/// `a op b` with the VM's arithmetic (see [`vm_expr_to_c`]).
pub(crate) fn vm_bin_to_c(op: BinOp, a: &str, b: &str) -> String {
    match op {
        BinOp::Add => format!("({a} + {b})"),
        BinOp::Sub => format!("({a} - {b})"),
        BinOp::Mul => format!("({a} * {b})"),
        BinOp::Div => format!("({a} / {b})"),
        BinOp::FloorDiv => format!("floor({a} / {b})"),
        BinOp::Mod => format!("sdfg_mod({a}, {b})"),
        BinOp::Pow => format!("pow({a}, {b})"),
    }
}

/// Renders a tasklet expression as C with *bitwise* `sdfg_lang::vm`
/// semantics. Every node maps to exactly the arithmetic the VM performs:
///
/// * `%` is `a - floor(a / b) * b` (the VM's Python modulo), emitted as
///   the `sdfg_mod` helper — not `fmod` with sign adjustment, which is not
///   bit-identical for all operands.
/// * `//` is `floor(a / b)`, not C integer division.
/// * `and`/`or` have Python *value* semantics (`a and b` yields `a` when
///   `a == 0.0`, else `b`), not C's `1`/`0` — emitted as `sdfg_and` /
///   `sdfg_or` helpers. The tasklet language has no side effects, so
///   evaluating both operands (vs. the VM's short-circuit jumps) is
///   value-identical.
/// * `int(x)` truncates toward zero on doubles (`trunc`), with no integer
///   cast that would wrap large magnitudes.
/// * n-ary `min`/`max` fold left through `fmin`/`fmax`, matching
///   `f64::min`/`f64::max`.
/// * Comparisons, `not`, and ternary/`if` conditions produce and test
///   `1.0`/`0.0` doubles.
/// * An indexed read `w[ix]` is a plain subscript at `sdfg_i64(ix)`, the
///   VM's index conversion. The JIT hoists its indexed reads into checked
///   loads before rendering, so its bodies never reach this form.
///
/// `resolve` maps a connector/local/symbol name to the C rvalue holding
/// it; unresolvable names and multi-dimensional indices yield `Err` with a
/// human-readable reason (recorded upstream as the JIT fallback reason).
pub fn vm_expr_to_c(
    e: &ExprAst,
    resolve: &dyn Fn(&str) -> Result<String, String>,
) -> Result<String, String> {
    Ok(match e {
        ExprAst::Num(v) => c_f64(*v),
        ExprAst::Name(n) => resolve(n)?,
        ExprAst::Index(n, idx) => match &idx[..] {
            [ix] => format!("{n}[sdfg_i64({})]", vm_expr_to_c(ix, resolve)?),
            _ => return Err(format!("multi-dimensional index into `{n}`")),
        },
        ExprAst::Bin(op, a, b) => {
            vm_bin_to_c(*op, &vm_expr_to_c(a, resolve)?, &vm_expr_to_c(b, resolve)?)
        }
        ExprAst::Cmp(op, a, b) => {
            let o = match op {
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
                CmpOp::Eq => "==",
                CmpOp::Ne => "!=",
            };
            format!(
                "(({} {o} {}) ? 1.0 : 0.0)",
                vm_expr_to_c(a, resolve)?,
                vm_expr_to_c(b, resolve)?
            )
        }
        ExprAst::Neg(a) => format!("(-({}))", vm_expr_to_c(a, resolve)?),
        ExprAst::Not(a) => format!("(({}) == 0.0 ? 1.0 : 0.0)", vm_expr_to_c(a, resolve)?),
        ExprAst::And(a, b) => format!(
            "sdfg_and({}, {})",
            vm_expr_to_c(a, resolve)?,
            vm_expr_to_c(b, resolve)?
        ),
        ExprAst::Or(a, b) => format!(
            "sdfg_or({}, {})",
            vm_expr_to_c(a, resolve)?,
            vm_expr_to_c(b, resolve)?
        ),
        ExprAst::Call(f, args) => match f {
            Builtin::Min | Builtin::Max => {
                let name = if *f == Builtin::Min { "fmin" } else { "fmax" };
                let mut acc = vm_expr_to_c(&args[0], resolve)?;
                for arg in &args[1..] {
                    acc = format!("{name}({acc}, {})", vm_expr_to_c(arg, resolve)?);
                }
                acc
            }
            _ => {
                let name = match f {
                    Builtin::Abs => "fabs",
                    Builtin::Sqrt => "sqrt",
                    Builtin::Exp => "exp",
                    Builtin::Log => "log",
                    Builtin::Sin => "sin",
                    Builtin::Cos => "cos",
                    Builtin::Floor => "floor",
                    Builtin::Ceil => "ceil",
                    Builtin::Int => "trunc",
                    Builtin::Min | Builtin::Max => unreachable!("handled above"),
                };
                format!("{name}({})", vm_expr_to_c(&args[0], resolve)?)
            }
        },
        ExprAst::Ternary { cond, then, els } => format!(
            "(({}) != 0.0 ? {} : {})",
            vm_expr_to_c(cond, resolve)?,
            vm_expr_to_c(then, resolve)?,
            vm_expr_to_c(els, resolve)?
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_lang::parse_tasklet;

    fn body_c(code: &str, ins: &[&str], outs: &[&str]) -> Result<String, String> {
        let owned = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let push = |out: &mut String, _: &str, sink: &Sink, v: &str| {
            if let Sink::Stream(d) = sink {
                let _ = writeln!(out, "{d}.push({v});");
            }
        };
        let mut t = TaskletC {
            held: vec![("S".into(), Held::Stream("Q")), ("w".into(), Held::Window)],
            store: push,
        };
        for c in ins.iter().chain(outs) {
            if t.held(c).is_none() {
                t.held.push((c.to_string(), Held::Value));
            }
        }
        t.body(code, &owned(ins), &owned(outs), "")
    }

    #[test]
    fn tasklets_render_with_vm_arithmetic_and_declared_locals() {
        assert_eq!(
            body_c("c = a * 2 + b", &["a", "b"], &["c"]).unwrap(),
            "c = ((a * 2.0) + b);\n"
        );
        let c = body_c(
            "if a < b:\n    t = sqrt(a)\nelse:\n    t = a % N\no = t ** 2",
            &["a", "b"],
            &["o"],
        )
        .unwrap();
        assert!(c.starts_with("double l_t = 0.0;\n"), "{c}");
        assert!(c.contains("if ((((a < b) ? 1.0 : 0.0)) != 0.0) {"), "{c}");
        assert!(c.contains("l_t = sdfg_mod(a, (double)N);"), "{c}");
        assert!(c.contains("o = pow(l_t, 2.0);"), "{c}");
        let c = body_c(
            "S.push(v + 1)\nacc = v\nacc += w[acc]\nw[i] = acc",
            &["v"],
            &["S", "w"],
        );
        let c = c.unwrap();
        assert!(c.contains("Q.push((v + 1.0));"), "{c}");
        assert!(c.contains("l_acc = (l_acc + w[sdfg_i64(l_acc)]);"), "{c}");
        assert!(c.contains("w[sdfg_i64((double)i)] = l_acc;"), "{c}");
        // A local shadows an output once assigned, not before.
        let c = body_c("x = o\no = 1\ny = o", &[], &["o"]).unwrap();
        assert!(c.contains("l_x = o;") && c.contains("l_y = o;"), "{c}");
    }

    #[test]
    fn bodies_the_vm_runs_differently_are_refused() {
        // VM registers persist across executions: a local some path reads
        // before assigning holds the previous execution's value.
        let stale = "if a < 0:\n    t = a\no = t";
        assert!(body_c(stale, &["a"], &["o"]).unwrap_err().contains("stale"));
        let stale = "if a < 0:\n    t = a\nt += 1\no = t";
        assert!(body_c(stale, &["a"], &["o"]).unwrap_err().contains("stale"));
        let both = "if a < 0:\n    t = a\nelse:\n    t = 1\nt += 1\no = t";
        assert!(body_c(both, &["a"], &["o"]).is_ok());
        assert!(body_c("o = a[1]", &["a"], &["o"])
            .unwrap_err()
            .contains("not a window"));
        assert!(body_c("a = 1", &["a"], &[]).is_err());
        assert!(body_c("o = S", &[], &["o", "S"]).is_err());
    }

    #[test]
    fn symbolic_and_condition_rendering() {
        let e = |s: &str| sdfg_symbolic::parse_expr(s).unwrap();
        assert_eq!(sym_to_c(&e("t + 1")), "t + 1");
        assert_eq!(
            sym_to_c(&Expr::Mul(vec![Expr::Int(2), e("i + 1")])),
            "2 * (i + 1)"
        );
        assert_eq!(sym_to_c(&e("min(i, N - 1)")), "sdfg_imin(i, N - 1)");
        assert_eq!(
            sym_to_c(&e("i - 2*j + k//2")),
            "i - 2 * j + sdfg_idiv(k, 2)"
        );
        let c = sdfg_core::cond::parse_cond("not (j < i) and (k == 0 or N > 2)").unwrap();
        assert_eq!(cond_to_c(&c), "(!(j < i)) && ((k == 0) || (N > 2))");
    }

    #[test]
    fn c_f64_round_trips() {
        for v in [0.0, -0.0, 0.2, 1.0, -3.5, 1e300, 1e-300, 0.1 + 0.2] {
            let s = c_f64(v);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{s}");
        }
        assert_eq!(c_f64(f64::INFINITY), "(1.0 / 0.0)");
    }

    fn vm_c(code: &str) -> Result<String, String> {
        let body = parse_tasklet(code).unwrap();
        let Stmt::Assign { value, .. } = &body[0] else {
            panic!("expected assignment");
        };
        vm_expr_to_c(value, &|n| Ok(n.to_string()))
    }

    #[test]
    fn vm_exact_operators() {
        assert_eq!(vm_c("o = a % b").unwrap(), "sdfg_mod(a, b)");
        assert_eq!(vm_c("o = a // b").unwrap(), "floor(a / b)");
        assert_eq!(vm_c("o = a and b").unwrap(), "sdfg_and(a, b)");
        assert_eq!(vm_c("o = a or b").unwrap(), "sdfg_or(a, b)");
        assert_eq!(vm_c("o = int(a)").unwrap(), "trunc(a)");
        assert_eq!(vm_c("o = min(a, b, c)").unwrap(), "fmin(fmin(a, b), c)");
        assert_eq!(vm_c("o = a < b").unwrap(), "((a < b) ? 1.0 : 0.0)");
        assert_eq!(vm_c("o = not a").unwrap(), "((a) == 0.0 ? 1.0 : 0.0)");
        assert_eq!(vm_c("o = b if a else c").unwrap(), "((a) != 0.0 ? b : c)");
        assert_eq!(vm_c("o = a ** b").unwrap(), "pow(a, b)");
    }

    #[test]
    fn vm_exact_indexing() {
        assert_eq!(vm_c("o = w[k] + a").unwrap(), "(w[sdfg_i64(k)] + a)");
        assert!(vm_c("o = w[0, 1]").is_err());
    }
}

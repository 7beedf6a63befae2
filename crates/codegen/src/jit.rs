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
//!   affine address is in bounds. After the `P` port rows comes the
//!   *length table*, `geo[P·S + p]` = element count of port `p`'s
//!   container, which only the self-checked accesses below read.
//! * `syms[s]` holds the value of the bodies' `symbols[s]`.
//! * `bnd` — affine loop bounds, two rows of `1 + D` entries per
//!   dimension (lower then upper, upper exclusive):
//!   `[const, k0 … k_{D-1}]`; dimension `d` iterates
//!   `i_d ∈ [const_lo + Σ_{e<d} i_e·k_e, const_hi + Σ_{e<d} i_e·k_e)`
//!   with unit step. Dimension 0 ignores its `bnd` rows: its range is the
//!   `[lo0, hi0)` arguments, which is how one artifact serves a whole
//!   collapsed loop, one scheduler tile, or one deadline slice. A bound
//!   listed in [`NestSpec::loaded`] is read from memory instead. A loop
//!   with a constant non-unit step ([`NestItem::Loop`]) runs from its lower
//!   row while short of the upper one, downwards for a negative step.
//!   Condition rows follow the `2·D` bound rows, in the same layout: an
//!   [`NestItem::If`] compares row `2·D + k` with zero.
//! * `npts` — status slots. `npts[0]` returns the number of tasklet
//!   executions performed, for the caller's instrumentation counters. A
//!   kernel with self-checked accesses reports the first failing one in
//!   `npts[`[`STATUS_FAULT`]`]` (a [`fault_code`], left untouched on
//!   success) and `npts[`[`STATUS_INDEX`]`]` (the offending index), and
//!   stream output `k` returns its push count in
//!   `npts[`[`STATUS_STREAMS`]` + k]`.
//!
//! The body is a [`NestSpec`] tree of loops, branches and tasklet calls
//! emitted in dependency order; inner bounds may be affine in outer iteration
//! variables (triangular, banded, trapezoidal) or loaded from a port
//! (a CSR row pointer). A one-dimensional nest whose body is a single call
//! is the innermost-dimension kernel.
//!
//! # Strip form
//!
//! A loop whose body is exactly one reduction loop (gemm's `j` around its
//! `k`) is emitted in two parts: strips of [`STRIP`] iterations with one
//! accumulator each and a `STRIP`-wide inner loop the C compiler
//! vectorises, then the plain loop for the remainder. A guard evaluated
//! from `geo`, `bnd` and `bufs` at run time admits the strips (see
//! [`STRIP`]); the ABI and the artifact are the same for every launch.
//!
//! # One body emitter
//!
//! Every tasklet body is emitted as C that mirrors the bytecode VM
//! statement by statement ([`crate::c_expr::vm_expr_to_c`]), which is the
//! interpreter's own arithmetic; the executor's micro-kernels compute the
//! same, because its recognizers only accept forms they can evaluate as
//! written. Output modes therefore only choose how a value reaches memory.
//!
//! # Self-checked accesses
//!
//! Three kinds of access cannot be validated before the call, so the
//! kernel checks them itself, each mirroring the interpreted tiers:
//!
//! * **Indexed ports** ([`NestSpec::whole`]): a body reads a
//!   whole container at an index it computes (`x[col[j]]`). An index
//!   outside the container leaves through the fault exit, exactly where
//!   the VM raises its out-of-bounds error.
//! * **Write logs** ([`JitOutMode::Log`]): stores at a computed index are
//!   staged per point (a negative index or one past `u32::MAX` faults, as
//!   in the VM) and combined into the container once the body completes;
//!   an index past the container's end is ignored. A log whose stores all
//!   use one constant index, whose port address reads no kernel dim and
//!   whose container no other port of the kernel addresses (query's
//!   match count) is *register-folded*: the element is loaded into a
//!   register once, each point folds its stores into a copy of it in
//!   store order, the copy becomes the register where the staged log
//!   would have been combined, and the register is stored back past the
//!   `sdfg_done` label — on both exits, so a fault leaves the element
//!   holding the completed points' combines, as the VM does.
//! * **Stream pushes** ([`JitOutMode::Stream`]): values are appended to a
//!   staging port the executor sizes for [`pushes_to`] pushes per point.
//!   A push that is the only one to its stream in an `if` arm, whose
//!   value reads nothing the arm assigns and no indexed port, under a
//!   condition that reads no indexed port, stores speculatively before
//!   the branch (`stage[ns] = v`) and leaves the arm only `++ns`: a slot
//!   past the count is never appended, and the slot lies inside the
//!   staging because `pushes_to` counts the push. When both arms consist
//!   of such pushes and single stores to register-folded logs, the
//!   branch becomes selects: `ns += taken` and a bitwise `sdfg_sel` of
//!   the arms' values, with no data-dependent jump.
//! * **Clamped ports** ([`NestSpec::clamped`]): a port addressed through
//!   a loaded-bound dimension reads `0.0` past the end and clamps negative
//!   offsets to element 0, and its stores are dropped past the end — the
//!   interpreted tiers' `read(off.max(0))` / `write` semantics.
//!
//! Body-computed doubles become indices through `sdfg_i64`, which
//! mirrors Rust's saturating `as i64` (NaN → 0) — never a bare C cast,
//! whose out-of-range behaviour is undefined.
//!
//! # Bitwise discipline
//!
//! A JIT run must be bitwise identical to the interpreter, so:
//!
//! * the executor compiles kernels with `-ffp-contract=off` (Rust never
//!   contracts `a*b + c` into an FMA, so the C must not either);
//! * bodies mirror the tasklet VM via [`crate::c_expr::vm_expr_to_c`],
//!   with indexed reads hoisted into checked loads in the VM's evaluation
//!   order (a read the VM might skip — under `and`, `or` or a conditional
//!   expression — is rejected);
//! * programs whose VM execution could observe *stale register state*
//!   (a local read on a path that did not assign it — the VM's register
//!   file persists across map points) are rejected and fall back;
//! * register accumulation ([`JitOutMode::Accumulate`]) is emitted only as
//!   the dedicated reduction-loop form: the register is seeded from the
//!   output element and stored back once, so the element folds its terms
//!   in the interpreter's order from the interpreter's seed — in the strip
//!   form too, one register per element;
//! * a register-folded log combines the same values into the same element
//!   in the same order as the staged log it replaces, and a speculative
//!   staging store or a select computes only values that cannot fault and
//!   appends only what the taken arm pushes: both change when memory is
//!   written, never what it holds once a launch returns;
//! * WCR combines are plain read-modify-writes. The executor only calls a
//!   kernel whose combines its race analysis marked atomic (or which has
//!   write logs or streams) from a launch that runs serially outside any
//!   parallel tile, or from inside one when every container the kernel
//!   combines into is private to the tile, where an uncontended
//!   compare-and-swap and a plain combine produce the same bits.
//!
//! Anything this module cannot prove bitwise-equivalent yields
//! `Err(reason)`; the executor records the reason and falls back to the
//! next tier, which is always correct.

use crate::c_expr::{collect_locals, vm_bin_to_c, vm_expr_to_c, VmName, VmScope};
use sdfg_core::cond::CmpOp;
use sdfg_lang::ast::{BinOp, ExprAst, Stmt};
use sdfg_lang::recognize::{reads, sole_assignment};
use sdfg_lang::TaskletProgram;
use std::fmt::Write as _;

/// Name of the exported kernel entry point.
pub const NEST_ENTRY: &str = "sdfg_nest";

/// Status slot holding the [`fault_code`] of the first failing
/// self-checked access (untouched on success).
pub const STATUS_FAULT: usize = 1;
/// Status slot holding the index of the first failing access.
pub const STATUS_INDEX: usize = 2;
/// First status slot of the per-stream push counts.
pub const STATUS_STREAMS: usize = 3;

/// The fault code of a self-checked access: input (`output = false`) or
/// output slot `slot` of call `call`. Never zero.
pub fn fault_code(call: usize, output: bool, slot: usize) -> i64 {
    1 + ((call as i64) << 17) + ((output as i64) << 16) + slot as i64
}

/// Inverse of [`fault_code`]: `(call, output, slot)`.
pub fn decode_fault(code: i64) -> (usize, bool, usize) {
    let c = code - 1;
    (
        (c >> 17) as usize,
        (c >> 16) & 1 == 1,
        (c & 0xffff) as usize,
    )
}

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
    pub(crate) fn combine(&self, old: &str, new: &str) -> String {
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
    /// Plain store: the output local starts at zero and is stored after the
    /// body — the same bits as read-modify-write for a body that writes
    /// the output before reading it, and a scope-local scalar's
    /// per-iteration zeroing.
    Write,
    /// Read-modify-write: the output local is seeded from memory before
    /// the body runs and stored back after — the affine VM's protocol for
    /// plain (non-WCR) scalar outputs.
    ReadModifyWrite,
    /// WCR combine per iteration: `out[off] = f(out[off], v)`.
    CombinePerPoint(JitWcrOp),
    /// Register accumulation for a WCR output invariant in the enclosing
    /// loop (coefficient 0): the kernel seeds a register from the element,
    /// folds every iteration's value into it and stores it back once after
    /// the loop. Only valid for a body that is one plain assignment to its
    /// sole output, read through no whole-container port, whose call is the
    /// loop's whole body, and with no input that reads the output element
    /// during the loop (the executor proves that every input in the
    /// output's container misses it).
    Accumulate(JitWcrOp),
    /// Write-conflict-resolved write log into a whole container (the VM's
    /// log port): every store to the connector, at an index the body
    /// computes, is staged for the point and combined in store order once
    /// the body has completed.
    Log(JitWcrOp),
    /// Stream output: each `push` appends to the port's staging buffer
    /// (addressed by the port's `geo` base) and the kernel returns the
    /// count in its status slots.
    Stream,
}

/// Shared C preamble: includes and the helper functions mirroring the
/// bytecode VM's non-trivial binary operators.
pub(crate) fn emit_preamble(src: &mut String) {
    src.push_str("#include <math.h>\n\n");
    src.push_str(
        "static double sdfg_mod(double a, double b) { return a - floor(a / b) * b; }\n\
         static double sdfg_and(double a, double b) { return a == 0.0 ? a : b; }\n\
         static double sdfg_or(double a, double b) { return a != 0.0 ? a : b; }\n\n",
    );
}

/// Rust's saturating `f64 as i64`: truncation toward zero, NaN → 0,
/// out-of-range values clamp to the extremes.
pub(crate) const SDFG_I64: &str = "static long long sdfg_i64(double x) {\n\
    \x20 if (x != x) return 0;\n\
    \x20 if (x >= 9223372036854775807.0) return 9223372036854775807LL;\n\
    \x20 if (x <= -9223372036854775808.0) return -9223372036854775807LL - 1;\n\
    \x20 return (long long)x;\n\
    }\n";

/// The interpreted tiers' forgiving read, `read(off.max(0))`: negative
/// offsets clamp to element 0, offsets past the end read `0.0`.
const SDFG_RD: &str = "static double sdfg_rd(const double *p, long long n, long long o) {\n\
    \x20 if (o < 0) o = 0;\n\
    \x20 return o < n ? p[o] : 0.0;\n\
    }\n";

/// A branch-free choice between two doubles, bit for bit: `a` when `c`
/// is nonzero, else `b`.
const SDFG_SEL: &str = "static double sdfg_sel(int c, double a, double b) {\n\
    \x20 union { double d; unsigned long long u; } x = {a}, y = {b};\n\
    \x20 const unsigned long long m = -(unsigned long long)(c != 0);\n\
    \x20 x.u = (x.u & m) | (y.u & ~m);\n\
    \x20 return x.d;\n\
    }\n";

// --- nest specification --------------------------------------------------------

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
    /// The tasklet, emitted as a mirror of its bytecode.
    pub prog: &'a TaskletProgram,
    /// Global port index per input slot (row into `geo`).
    pub ins: Vec<usize>,
    /// Output bindings in slot order.
    pub outs: Vec<NestOut>,
}

/// Loop structure of the nest, emitted in order (= dependency order: the
/// recognizer only builds specs whose textual order is a valid topological
/// order of the intra-nest dependencies).
pub enum NestItem {
    /// `for (i{dim} = lo_d; i{dim} < hi_d; i{dim} += step) { body }` (`>`
    /// for a negative step) with the bounds taken from the kernel's `bnd`
    /// rows (affine in enclosing iteration variables) or loaded (see
    /// [`NestSpec::loaded`]). `dim` 0 is reserved for the outermost loop,
    /// whose range is the `[lo0, hi0)` arguments.
    Loop {
        /// Nest dimension this loop iterates.
        dim: usize,
        /// Constant step, never 0. Only unit-step loops take the
        /// reduction and strip forms.
        step: i64,
        /// Loop body.
        body: Vec<NestItem>,
    },
    /// Execute `tasklets[idx]` at the current iteration point.
    Call(usize),
    /// `if (cond) { then } else { els }` at the current iteration point.
    If {
        /// The condition, a `bnd` row compared with zero.
        cond: NestCond,
        /// Items run when the condition holds.
        then: Vec<NestItem>,
        /// Items run otherwise.
        els: Vec<NestItem>,
    },
}

/// A branch condition `row op 0`, where `row` is condition row `row` of
/// the kernel's `bnd` table: the rows after the dimensions' bound rows,
/// each `[const, k0 … k_{D-1}]` and affine in the enclosing iteration
/// variables like a bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NestCond {
    /// Condition row index (0 = the first row after the bound rows).
    pub row: usize,
    /// Comparison of the row's value with zero.
    pub op: CmpOp,
}

/// A loop bound read from memory when its loop is entered: the element
/// port `port` addresses at the enclosing iteration point, rounded half
/// away from zero and converted like the interpreter's dynamic-range
/// connectors (`round() as i64`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadedBound {
    /// Dimension whose bound this is (never 0).
    pub dim: usize,
    /// Upper (exclusive) bound rather than the lower one.
    pub hi: bool,
    /// Port holding the bound.
    pub port: usize,
}

/// Everything the emitter needs to produce one nest kernel.
#[derive(Default)]
pub struct NestSpec<'a> {
    /// Number of nest dimensions (outermost/tile dimension included).
    pub ndims: usize,
    /// Number of port rows in `geo`.
    pub nports: usize,
    /// Call sites referenced by [`NestItem::Call`].
    pub tasklets: Vec<NestTasklet<'a>>,
    /// Kernel body, nested directly inside the dimension-0 loop.
    pub body: Vec<NestItem>,
    /// Ports that stand for a whole container: bodies address
    /// them by a computed index, range-checked against the length table.
    pub whole: Vec<usize>,
    /// Ports addressed through a dimension with a loaded bound, whose
    /// offsets no launch can validate: their accesses mirror the
    /// interpreted tiers' clamping.
    pub clamped: Vec<usize>,
    /// Loop bounds loaded from ports instead of `bnd` rows.
    pub loaded: Vec<LoadedBound>,
    /// Per port, the dims its address reads (the nonzero coefficients
    /// the nest was built with). Only the strip form (see
    /// [`STRIP`]) consults it, and an empty table disables that form.
    pub reads: Vec<Vec<usize>>,
    /// Per port, an identifier of the container it addresses: ports with
    /// equal identifiers may alias. Only the register-folded write log
    /// (see [`JitOutMode::Log`]) consults it, and an empty table disables
    /// that form.
    pub containers: Vec<usize>,
}

/// Points per strip of the strip-accumulated reduction form: a loop whose
/// body is exactly one reduction loop runs `STRIP` of its iterations at
/// once, each with its own accumulator seeded from its output element, so
/// the reduction's inner step becomes a `STRIP`-wide loop over contiguous
/// elements that the C compiler vectorises. Every accumulator still folds
/// its terms in the scalar loop's order from the same seed, so results are
/// bitwise unchanged. The form is taken per launch only when a runtime
/// guard holds: unit stride along the strip in every input that reads it
/// (zero in the others), a strip whose iterations write distinct
/// elements, reduction bounds that do not read the strip dimension, and no
/// input in the output's container, whose writes the strip would move
/// ahead of later reads. Any other launch, and the remainder of the range,
/// runs the scalar loop in the same kernel. Of 8 to 48, 16 measured
/// fastest on single-threaded gemm at n = 200 and 224 (gcc 12 `-O2`,
/// x86-64).
pub const STRIP: usize = 16;

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
    nest_row_expr(ndims, 2 * d + hi as usize, scope)
}

/// C expression for `bnd` row `row` at the point spanned by `scope`.
fn nest_row_expr(ndims: usize, row: usize, scope: &[usize]) -> String {
    let row = row * (1 + ndims);
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
    let ports = spec.whole.iter().chain(&spec.clamped);
    let bound_ports = spec.loaded.iter().map(|l| &l.port);
    for t in &spec.tasklets {
        let used = t.ins.iter().chain(t.outs.iter().map(|o| &o.port));
        if used
            .chain(ports.clone())
            .chain(bound_ports.clone())
            .any(|&p| p >= spec.nports)
        {
            return Err("port index out of range".into());
        }
    }
    if spec
        .loaded
        .iter()
        .any(|l| l.dim == 0 || l.dim >= spec.ndims)
    {
        return Err("loaded bound on a bad dimension".into());
    }
    let mut em = Emitter {
        spec,
        src: String::new(),
        acc: "acc",
        uses_i64: false,
        uses_rd: false,
        uses_sel: false,
        fallible: false,
        streams: Vec::new(),
        regs: Vec::new(),
        tmp: 0,
    };
    for (t, tk) in spec.tasklets.iter().enumerate() {
        for (j, o) in tk.outs.iter().enumerate() {
            match o.mode {
                JitOutMode::Stream => em.streams.push((t, j)),
                JitOutMode::Log(_) => {
                    if let Some(at) = register_log(spec, t, j) {
                        em.regs.push(((t, j), at));
                    }
                }
                _ => {}
            }
        }
    }
    em.emit_loop(0, 1, &spec.body, &mut Vec::new(), "  ")?;
    let mut src = String::new();
    emit_preamble(&mut src);
    if em.uses_i64 {
        src.push_str(SDFG_I64);
    }
    if em.uses_rd {
        src.push_str(SDFG_RD);
    }
    if em.uses_sel {
        src.push_str(SDFG_SEL);
    }
    if em.uses_i64 || em.uses_rd || em.uses_sel {
        src.push('\n');
    }
    let _ = writeln!(
        src,
        "void {NEST_ENTRY}(double *const *bufs, const long long *geo,\n\
         \x20             const double *syms, const long long *bnd,\n\
         \x20             long long lo0, long long hi0, long long *npts) {{"
    );
    src.push_str("  (void)bufs; (void)geo; (void)syms; (void)bnd;\n");
    src.push_str("  long long cnt = 0;\n");
    for k in 0..em.streams.len() {
        let _ = writeln!(src, "  long long ns{k} = 0;");
    }
    // A register-folded log's element, seeded once; an element past the
    // container's end takes no combine, so its register is never stored.
    for (k, &((t, j), at)) in em.regs.iter().enumerate() {
        let (ptr, q, len) = em.reg_element(t, j, at);
        let _ = writeln!(src, "  const long long lq{k} = {q};");
        let _ = writeln!(src, "  double lr{k} = lq{k} < {len} ? {ptr}[lq{k}] : 0.0;");
    }
    src.push_str(&em.src);
    if em.fallible {
        src.push_str("sdfg_done:\n");
    }
    // Both exits store the registers back: on a fault, the element holds
    // the combines of the points that completed.
    for (k, &((t, j), at)) in em.regs.iter().enumerate() {
        let (ptr, _, len) = em.reg_element(t, j, at);
        let _ = writeln!(src, "  if (lq{k} < {len}) {ptr}[lq{k}] = lr{k};");
    }
    for k in 0..em.streams.len() {
        let _ = writeln!(src, "  npts[{}] = ns{k};", STATUS_STREAMS + k);
    }
    src.push_str("  *npts = cnt;\n}\n");
    Ok(src)
}

/// If `body` is exactly one call whose single output accumulates, returns
/// the call's index so the enclosing loop uses the reduction form.
fn accumulate_form(spec: &NestSpec<'_>, body: &[NestItem]) -> Option<usize> {
    let [NestItem::Call(t)] = body else {
        return None;
    };
    let tk = spec.tasklets.get(*t)?;
    matches!(
        tk.outs[..],
        [NestOut {
            mode: JitOutMode::Accumulate(_),
            ..
        }]
    )
    .then_some(*t)
}

/// If `body` is exactly one loop whose body is a single accumulating call,
/// returns `(reduction dim, call)`: the enclosing loop may take the strip
/// form (see [`STRIP`]).
fn strip_form(spec: &NestSpec<'_>, body: &[NestItem]) -> Option<(usize, usize)> {
    let [NestItem::Loop { dim, step: 1, body }] = body else {
        return None;
    };
    let t = accumulate_form(spec, body)?;
    let tk = &spec.tasklets[t];
    let special = |p: &usize| spec.whole.contains(p) || spec.clamped.contains(p);
    let plain = spec.reads.len() == spec.nports
        && !spec.loaded.iter().any(|l| l.dim == *dim)
        && !tk.ins.iter().chain([&tk.outs[0].port]).any(special);
    plain.then_some((*dim, t))
}

/// Number of stores a tasklet body makes to output `name` on its longest
/// path (an upper bound: branches are summed).
fn stores_to(body: &[Stmt], name: &str) -> usize {
    body.iter()
        .map(|s| match s {
            Stmt::Assign { target, .. } => usize::from(target == name),
            Stmt::If { then, els, .. } => stores_to(then, name) + stores_to(els, name),
            Stmt::Push { .. } => 0,
        })
        .sum()
}

/// Number of pushes a tasklet body makes to stream `name` per execution,
/// at most (branches are summed). The executor sizes stream staging by it.
pub fn pushes_to(body: &[Stmt], name: &str) -> usize {
    body.iter()
        .map(|s| match s {
            Stmt::Push { stream, .. } => usize::from(stream == name),
            Stmt::If { then, els, .. } => pushes_to(then, name) + pushes_to(els, name),
            Stmt::Assign { .. } => 0,
        })
        .sum()
}

/// The index every store to write-log output `name` makes, when each one
/// stores at the same constant index the VM's log accepts (no index is
/// index 0) and there is at least one.
fn constant_log_index(body: &[Stmt], name: &str) -> Option<u32> {
    fn walk(body: &[Stmt], name: &str, at: &mut Option<u32>) -> bool {
        body.iter().all(|s| match s {
            Stmt::Assign { target, .. } if target != name => true,
            Stmt::Assign {
                index, op: None, ..
            } => {
                let k = match index.as_deref() {
                    None => 0,
                    Some([ExprAst::Num(v)])
                        if v.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(v) =>
                    {
                        *v as u32
                    }
                    _ => return false,
                };
                *at.get_or_insert(k) == k
            }
            Stmt::Assign { .. } => false,
            Stmt::If { then, els, .. } => walk(then, name, at) && walk(els, name, at),
            Stmt::Push { .. } => true,
        })
    }
    let mut at = None;
    walk(body, name, &mut at).then_some(at).flatten()
}

/// Whether write-log output `j` of call `t` folds into a register: every
/// store to it is at one constant index, its port's address reads no
/// kernel dim (so that index names one element for the whole call), and
/// no other binding or port of the kernel addresses its container (so
/// nothing reads the element between the combines). Returns the index.
fn register_log(spec: &NestSpec<'_>, t: usize, j: usize) -> Option<u32> {
    let tk = &spec.tasklets[t];
    let p = tk.outs[j].port;
    let tables = spec.reads.len() == spec.nports && spec.containers.len() == spec.nports;
    let bindings = spec.tasklets.iter().flat_map(|c| {
        let outs = c.outs.iter().map(|o| o.port);
        c.ins.iter().copied().chain(outs)
    });
    let sole = tables
        && spec.reads[p].is_empty()
        && bindings.filter(|&q| q == p).count() == 1
        && (0..spec.nports).all(|q| q == p || spec.containers[q] != spec.containers[p]);
    if !sole || !spec.whole.contains(&p) {
        return None;
    }
    constant_log_index(&tk.prog.body, &tk.prog.outputs[j])
}

/// Per-kernel emission state: the body text, plus what it turned out to
/// need (helpers, the fault exit, stream counters).
struct Emitter<'s, 'a> {
    spec: &'s NestSpec<'a>,
    src: String,
    /// The register an [`JitOutMode::Accumulate`] output folds into.
    acc: &'static str,
    /// The body references `sdfg_i64`.
    uses_i64: bool,
    /// The body references `sdfg_rd`.
    uses_rd: bool,
    /// The body references `sdfg_sel`.
    uses_sel: bool,
    /// Some access can fail: the kernel needs the `sdfg_done` exit.
    fallible: bool,
    /// `(call, output slot)` of each stream output, in call then slot
    /// order: stream `k` counts its pushes in `ns{k}`.
    streams: Vec<(usize, usize)>,
    /// `((call, output slot), index)` of each register-folded write log
    /// (see [`register_log`]): log `k` folds into `lr{k}`, the element at
    /// offset `lq{k}`.
    regs: Vec<((usize, usize), u32)>,
    /// Counter for hoisted temporaries.
    tmp: usize,
}

impl Emitter<'_, '_> {
    /// `geo` entry holding port `p`'s container length.
    fn len_ref(&self, p: usize) -> String {
        format!("geo[{}]", self.spec.nports * (2 + self.spec.ndims) + p)
    }

    fn clamped(&self, p: usize) -> bool {
        self.spec.clamped.contains(&p)
    }

    /// The register a write log of call `t`, slot `j` folds into, if any.
    fn reg(&self, t: usize, j: usize) -> Option<usize> {
        self.regs.iter().position(|&(tj, _)| tj == (t, j))
    }

    /// `(base pointer, offset, length)` C expressions of the element a
    /// register-folded log at index `at` combines into.
    fn reg_element(&self, t: usize, j: usize, at: u32) -> (String, String, String) {
        let p = self.spec.tasklets[t].outs[j].port;
        let (ptr, off) = nest_port_ref(self.spec.ndims, p, &[]);
        (ptr, format!("{off} + {at}"), self.len_ref(p))
    }

    /// C expression reading port `p` at the point spanned by `scope`.
    fn load(&mut self, p: usize, scope: &[usize]) -> String {
        let (ptr, off) = nest_port_ref(self.spec.ndims, p, scope);
        if self.clamped(p) {
            self.uses_rd = true;
            return format!("sdfg_rd({ptr}, {}, {off})", self.len_ref(p));
        }
        format!("{ptr}[{off}]")
    }

    /// Emits the per-iteration store of `val` through port `p` in `mode`
    /// (plain or combining).
    fn store(
        &mut self,
        p: usize,
        scope: &[usize],
        mode: &JitOutMode,
        val: &str,
        ind: &str,
    ) -> Result<(), String> {
        let (ptr, off) = nest_port_ref(self.spec.ndims, p, scope);
        let update = match mode {
            JitOutMode::Write | JitOutMode::ReadModifyWrite => None,
            JitOutMode::CombinePerPoint(op) => Some(op),
            _ => return Err("output mode has no per-point store".into()),
        };
        if self.clamped(p) {
            // The interpreted tiers write at `off.max(0)` and drop writes
            // past the end.
            let len = self.len_ref(p);
            let v = match update {
                None => val.to_string(),
                Some(op) => op.combine(&format!("{ptr}[o]"), val),
            };
            let _ = writeln!(
                self.src,
                "{ind}{{ long long o = {off}; if (o < 0) o = 0;\n{ind}  if (o < {len}) {ptr}[o] = {v}; }}"
            );
            return Ok(());
        }
        match update {
            None => {
                let _ = writeln!(self.src, "{ind}{ptr}[{off}] = {val};");
            }
            Some(op) => {
                let _ = writeln!(
                    self.src,
                    "{ind}{{ const long long o = {off};\n{ind}  {ptr}[o] = {}; }}",
                    op.combine(&format!("{ptr}[o]"), val)
                );
            }
        }
        Ok(())
    }

    /// Emits `{ fault; goto sdfg_done; }` for call `t`'s `slot`.
    fn fault(&mut self, t: usize, output: bool, slot: usize, idx: &str) -> String {
        self.fallible = true;
        format!(
            "{{ npts[{STATUS_FAULT}] = {}; npts[{STATUS_INDEX}] = {idx}; goto sdfg_done; }}",
            fault_code(t, output, slot)
        )
    }

    /// Emits the loop over dimension `d` — whose `[lo{d}, hi{d})` bounds
    /// are already C variables in scope (the entry point's arguments for
    /// the tile dimension) — either as a plain `for` around `body` or,
    /// when the step is one and `body` is a single accumulating call, as a
    /// reduction loop.
    fn emit_loop(
        &mut self,
        d: usize,
        step: i64,
        body: &[NestItem],
        scope: &mut Vec<usize>,
        ind: &str,
    ) -> Result<(), String> {
        let spec = self.spec;
        let unit = step == 1;
        if let Some((r, t)) = strip_form(spec, body).filter(|_| unit) {
            return self.emit_strip(d, r, t, body, scope, ind);
        }
        let Some(t) = accumulate_form(spec, body).filter(|_| unit) else {
            let head = match step {
                1 => format!("i{d} < hi{d}; ++i{d}"),
                s if s > 0 => format!("i{d} < hi{d}; i{d} += {s}"),
                s => format!("i{d} > hi{d}; i{d} -= {}", s.unsigned_abs()),
            };
            let _ = writeln!(self.src, "{ind}for (long long i{d} = lo{d}; {head}) {{");
            scope.push(d);
            self.emit_items(body, scope, &format!("{ind}  "))?;
            scope.pop();
            let _ = writeln!(self.src, "{ind}}}");
            return Ok(());
        };
        // Reduction loop: a register seeded from the loop-invariant element
        // (addressed in the outer scope), stored back once.
        self.check_register(t)?;
        let p = spec.tasklets[t].outs[0].port;
        let seed = self.load(p, scope);
        let _ = writeln!(self.src, "{ind}{{");
        let _ = writeln!(self.src, "{ind}  double acc = {seed};");
        let _ = writeln!(
            self.src,
            "{ind}  for (long long i{d} = lo{d}; i{d} < hi{d}; ++i{d}) {{"
        );
        scope.push(d);
        self.acc = "acc";
        self.emit_body(t, scope, &format!("{ind}    "))?;
        scope.pop();
        let _ = writeln!(self.src, "{ind}  }}");
        self.store(p, scope, &JitOutMode::Write, "acc", &format!("{ind}  "))?;
        let _ = writeln!(self.src, "{ind}}}");
        Ok(())
    }

    /// Register accumulation folds a call whose body is one plain
    /// assignment to its sole output, with no self-checked read that could
    /// leave the loop before the register is stored.
    fn check_register(&self, t: usize) -> Result<(), String> {
        let tk = &self.spec.tasklets[t];
        if sole_assignment(&tk.prog.body, &tk.prog.outputs).is_none() {
            return Err("register accumulation on a body that is not one assignment".into());
        }
        if tk.ins.iter().any(|p| self.spec.whole.contains(p)) {
            return Err("register accumulation over a whole-container input".into());
        }
        Ok(())
    }

    /// Emits the loop over dimension `d` whose body is the reduction loop
    /// over `r` (call `t`) in the strip form of [`STRIP`]: whole strips
    /// first while the guard holds, then the scalar loop over whatever
    /// remains.
    fn emit_strip(
        &mut self,
        d: usize,
        r: usize,
        t: usize,
        body: &[NestItem],
        scope: &mut Vec<usize>,
        ind: &str,
    ) -> Result<(), String> {
        let spec = self.spec;
        self.check_register(t)?;
        let tk = &spec.tasklets[t];
        let (nd, w) = (spec.ndims, STRIP);
        let coeff = |p: usize, e: usize| format!("geo[{}]", p * (2 + nd) + 2 + e);
        let buf = |p: usize| format!("bufs[geo[{}]]", p * (2 + nd));
        let out = tk.outs[0].port;
        let mut guard = Vec::new();
        for hi in [false, true] {
            let row = (2 * r + hi as usize) * (1 + nd);
            guard.push(format!("bnd[{}] == 0", row + 1 + d));
        }
        guard.push(format!("{} != 0", coeff(out, d)));
        for &p in &tk.ins {
            let unit = u8::from(spec.reads[p].contains(&d));
            guard.push(format!("{} == {unit}", coeff(p, d)));
            guard.push(format!("{} != {}", buf(p), buf(out)));
        }
        let _ = writeln!(self.src, "{ind}long long i{d} = lo{d};");
        let _ = writeln!(self.src, "{ind}if ({}) {{", guard.join(" && "));
        let i1 = format!("{ind}  ");
        let lo = nest_bound_expr(nd, r, false, scope);
        let hi = nest_bound_expr(nd, r, true, scope);
        let _ = writeln!(self.src, "{i1}const long long lo{r} = {lo};");
        let _ = writeln!(self.src, "{i1}const long long hi{r} = {hi};");
        let _ = writeln!(
            self.src,
            "{i1}for (; i{d} + {w} <= hi{d} && lo{r} < hi{r}; i{d} += {w}) {{"
        );
        let i2 = format!("{i1}  ");
        // Lane `w` accumulates the element of strip iteration `i{d} + w`.
        scope.push(d);
        let (ptr, off) = nest_port_ref(nd, out, scope);
        scope.pop();
        let elem = format!("{ptr}[{off} + w * {}]", coeff(out, d));
        let _ = writeln!(self.src, "{i2}double acc[{w}];");
        let _ = writeln!(
            self.src,
            "{i2}for (int w = 0; w < {w}; ++w) acc[w] = {elem};"
        );
        let _ = writeln!(
            self.src,
            "{i2}for (long long i{r} = lo{r}; i{r} < hi{r}; ++i{r}) {{"
        );
        let i3 = format!("{i2}  ");
        let i4 = format!("{i3}  ");
        scope.extend([d, r]);
        let mut strided = Vec::new();
        for (i, &p) in tk.ins.iter().enumerate() {
            let v = self.load(p, scope);
            if spec.reads[p].contains(&d) {
                let _ = writeln!(self.src, "{i3}const double *r{i} = &{v};");
                strided.push(i);
            } else {
                let _ = writeln!(self.src, "{i3}const double v{i} = {v};");
            }
        }
        let _ = writeln!(self.src, "{i3}for (int w = 0; w < {w}; ++w) {{");
        for i in strided {
            let _ = writeln!(self.src, "{i4}const double v{i} = r{i}[w];");
        }
        self.acc = "acc[w]";
        self.emit_vm_body(t, scope, &i4)?;
        let _ = writeln!(self.src, "{i3}}}");
        let _ = writeln!(self.src, "{i2}}}");
        scope.truncate(scope.len() - 2);
        let _ = writeln!(self.src, "{i2}cnt += {w} * (hi{r} - lo{r});");
        let _ = writeln!(
            self.src,
            "{i2}for (int w = 0; w < {w}; ++w) {elem} = acc[w];"
        );
        let _ = writeln!(self.src, "{i1}}}");
        let _ = writeln!(self.src, "{ind}}}");
        // The remainder, and every launch the guard turns away.
        let _ = writeln!(self.src, "{ind}for (; i{d} < hi{d}; ++i{d}) {{");
        scope.push(d);
        self.emit_items(body, scope, &format!("{ind}  "))?;
        scope.pop();
        let _ = writeln!(self.src, "{ind}}}");
        Ok(())
    }

    /// C expression for one bound of dimension `d`: its `bnd` row, or the
    /// element a loaded bound's port addresses.
    fn bound(&mut self, d: usize, hi: bool, scope: &[usize]) -> String {
        let spec = self.spec;
        match spec.loaded.iter().find(|l| l.dim == d && l.hi == hi) {
            Some(l) => {
                self.uses_i64 = true;
                let (ptr, off) = nest_port_ref(spec.ndims, l.port, scope);
                format!("sdfg_i64(round({ptr}[{off}]))")
            }
            None => nest_bound_expr(spec.ndims, d, hi, scope),
        }
    }

    fn emit_items(
        &mut self,
        items: &[NestItem],
        scope: &mut Vec<usize>,
        ind: &str,
    ) -> Result<(), String> {
        for item in items {
            match item {
                NestItem::Call(t) => self.emit_call(*t, scope, ind)?,
                NestItem::Loop { dim, step, body } => {
                    let d = *dim;
                    if d == 0 || d >= self.spec.ndims {
                        return Err(format!("bad nest dimension {d}"));
                    }
                    if scope.contains(&d) {
                        return Err(format!("nest dimension {d} reused"));
                    }
                    if *step == 0 {
                        return Err(format!("nest dimension {d} steps by zero"));
                    }
                    let lo = self.bound(d, false, scope);
                    let hi = self.bound(d, true, scope);
                    let _ = writeln!(self.src, "{ind}{{");
                    let _ = writeln!(self.src, "{ind}  const long long lo{d} = {lo};");
                    let _ = writeln!(self.src, "{ind}  const long long hi{d} = {hi};");
                    self.emit_loop(d, *step, body, scope, &format!("{ind}  "))?;
                    let _ = writeln!(self.src, "{ind}}}");
                }
                NestItem::If { cond, then, els } => {
                    let row = nest_row_expr(self.spec.ndims, 2 * self.spec.ndims + cond.row, scope);
                    let op = cond.op.symbol();
                    let _ = writeln!(self.src, "{ind}if ({row} {op} 0) {{");
                    self.emit_items(then, scope, &format!("{ind}  "))?;
                    if !els.is_empty() {
                        let _ = writeln!(self.src, "{ind}}} else {{");
                        self.emit_items(els, scope, &format!("{ind}  "))?;
                    }
                    let _ = writeln!(self.src, "{ind}}}");
                }
            }
        }
        Ok(())
    }

    /// `const double v{i} = …;` for every input slot that is not a whole
    /// container (those are read by index in the body).
    fn emit_input_loads(&mut self, tk: &NestTasklet<'_>, scope: &[usize], ind: &str) {
        for (i, &p) in tk.ins.iter().enumerate() {
            if !self.spec.whole.contains(&p) {
                let v = self.load(p, scope);
                let _ = writeln!(self.src, "{ind}const double v{i} = {v};");
            }
        }
    }

    /// Emits one tasklet call at the current iteration point. `Accumulate`
    /// outputs are rejected here (they are only legal as a whole reduction
    /// loop).
    fn emit_call(&mut self, t: usize, scope: &[usize], ind: &str) -> Result<(), String> {
        let tk = self
            .spec
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
        let _ = writeln!(self.src, "{ind}{{");
        self.emit_body(t, scope, &format!("{ind}  "))?;
        let _ = writeln!(self.src, "{ind}}}");
        Ok(())
    }

    /// Emits call `t` at the current iteration point: its input loads, its
    /// body and the point count.
    fn emit_body(&mut self, t: usize, scope: &[usize], ind: &str) -> Result<(), String> {
        let spec = self.spec;
        self.emit_input_loads(&spec.tasklets[t], scope, ind);
        self.emit_vm_body(t, scope, ind)?;
        let _ = writeln!(self.src, "{ind}++cnt;");
        Ok(())
    }

    /// Emits an unrecognized tasklet body as C statements that mirror the
    /// bytecode VM. Output locals `o{j}` are seeded per the output mode
    /// (memory for read-modify-write, `0.0` for WCR — exactly the affine VM
    /// loop's protocol) and flushed after the body; write logs are staged
    /// in per-point arrays and flushed after it too.
    fn emit_vm_body(&mut self, t: usize, scope: &[usize], ind: &str) -> Result<(), String> {
        let spec = self.spec;
        let tk = &spec.tasklets[t];
        let prog = tk.prog;
        if tk.outs.len() != prog.outputs.len() {
            return Err("output arity mismatch".into());
        }
        // Seed output locals.
        for (j, o) in tk.outs.iter().enumerate() {
            match o.mode {
                JitOutMode::ReadModifyWrite => {
                    let v = self.load(o.port, scope);
                    let _ = writeln!(self.src, "{ind}double o{j} = {v};");
                }
                JitOutMode::Write | JitOutMode::CombinePerPoint(_) | JitOutMode::Accumulate(_) => {
                    let _ = writeln!(self.src, "{ind}double o{j} = 0.0;");
                }
                JitOutMode::Log(_) => {
                    if !self.spec.whole.contains(&o.port) {
                        return Err("write log into a partial window".into());
                    }
                    if let Some(r) = self.reg(t, j) {
                        // The point folds into a copy, which becomes the
                        // register only once the body has completed.
                        let _ = writeln!(self.src, "{ind}double lp{j} = lr{r};");
                        continue;
                    }
                    let k = stores_to(&prog.body, &prog.outputs[j]).max(1);
                    let _ = writeln!(
                        self.src,
                        "{ind}long long lgi{j}[{k}]; double lgv{j}[{k}]; int lgn{j} = 0;"
                    );
                }
                JitOutMode::Stream => {}
            }
        }
        // Declare locals up front (VM registers start zeroed); assignments
        // in the body are definite-assignment checked, so the initializer
        // is only observable where the VM would also observe a fresh zero
        // register.
        let mut all_locals: Vec<String> = Vec::new();
        collect_locals(&prog.body, &prog.inputs, &prog.outputs, &mut all_locals);
        for l in &all_locals {
            let _ = writeln!(self.src, "{ind}double l_{l} = 0.0;");
        }
        let mut st = VmEmitState {
            em: self,
            t,
            prog,
            scope,
            names: VmScope::new(&prog.inputs, &prog.outputs),
        };
        for s in &prog.body {
            st.emit_stmt(s, ind)?;
        }
        // Flush outputs in slot order, as the interpreted tiers scatter.
        for (j, o) in tk.outs.iter().enumerate() {
            match o.mode {
                JitOutMode::Log(op) => {
                    if let Some(r) = self.reg(t, j) {
                        let _ = writeln!(self.src, "{ind}lr{r} = lp{j};");
                        continue;
                    }
                    let (ptr, off) = nest_port_ref(self.spec.ndims, o.port, scope);
                    let len = self.len_ref(o.port);
                    let _ = writeln!(
                        self.src,
                        "{ind}for (int k = 0; k < lgn{j}; ++k) {{\n\
                         {ind}  const long long q = {off} + lgi{j}[k];\n\
                         {ind}  if (q < {len}) {ptr}[q] = {};\n\
                         {ind}}}",
                        op.combine(&format!("{ptr}[q]"), &format!("lgv{j}[k]"))
                    );
                }
                JitOutMode::Stream => {}
                JitOutMode::Accumulate(op) => {
                    let acc = self.acc;
                    let _ = writeln!(
                        self.src,
                        "{ind}{acc} = {};",
                        op.combine(acc, &format!("o{j}"))
                    );
                }
                mode => self.store(o.port, scope, &mode, &format!("o{j}"), ind)?,
            }
        }
        Ok(())
    }
}

// --- VM-mirror body emission --------------------------------------------------

/// Walks the body in the same textual order as the bytecode compiler,
/// resolving names through [`VmScope`].
struct VmEmitState<'e, 's, 'a, 'p> {
    em: &'e mut Emitter<'s, 'a>,
    /// The call being emitted.
    t: usize,
    prog: &'p TaskletProgram,
    scope: &'p [usize],
    names: VmScope<'p>,
}

/// Prefix of the names hoisted loads take in rewritten expressions (no
/// tasklet identifier contains it).
const HOISTED: char = '#';

impl VmEmitState<'_, '_, '_, '_> {
    fn tasklet(&self) -> &NestTasklet<'_> {
        &self.em.spec.tasklets[self.t]
    }

    /// The input slot of `n` when it is a whole-container connector.
    fn whole_input(&self, n: &str) -> Option<usize> {
        let i = self.prog.inputs.iter().position(|x| x == n)?;
        self.em
            .spec
            .whole
            .contains(&self.tasklet().ins[i])
            .then_some(i)
    }

    fn mode_of(&self, j: usize) -> JitOutMode {
        self.tasklet().outs[j].mode
    }

    fn resolve_read(&self, n: &str) -> Result<String, String> {
        if let Some(ld) = n.strip_prefix(HOISTED) {
            return Ok(ld.to_string());
        }
        match self.names.read(n)? {
            VmName::Input(i) => Ok(format!("v{i}")),
            VmName::Local => Ok(format!("l_{n}")),
            VmName::Output(j) => match self.mode_of(j) {
                JitOutMode::Log(_) | JitOutMode::Stream => {
                    Err(format!("read of write-only connector `{n}`"))
                }
                _ => Ok(format!("o{j}")),
            },
            VmName::Symbol => match self.prog.symbols.iter().position(|x| x == n) {
                Some(s) => Ok(format!("syms[{s}]")),
                None => Err(format!("unresolved name `{n}`")),
            },
        }
    }

    /// Whether evaluating `e` reads a whole-container connector.
    fn reads_whole(&self, e: &ExprAst) -> bool {
        match e {
            ExprAst::Num(_) => false,
            ExprAst::Name(n) => self.whole_input(n).is_some(),
            ExprAst::Index(..) => true,
            ExprAst::Bin(_, a, b)
            | ExprAst::Cmp(_, a, b)
            | ExprAst::And(a, b)
            | ExprAst::Or(a, b) => self.reads_whole(a) || self.reads_whole(b),
            ExprAst::Neg(a) | ExprAst::Not(a) => self.reads_whole(a),
            ExprAst::Call(_, args) => args.iter().any(|a| self.reads_whole(a)),
            ExprAst::Ternary { cond, then, els } => {
                self.reads_whole(cond) || self.reads_whole(then) || self.reads_whole(els)
            }
        }
    }

    /// Emits, in the VM's evaluation order, one checked load per indexed
    /// read in `e`, and returns `e` with each read replaced by the
    /// temporary holding its value. A read the VM evaluates lazily (the
    /// right operand of `and`/`or`, a conditional expression's arms) could
    /// fault where the VM never reads, so it is rejected.
    fn hoist(&mut self, e: &ExprAst, ind: &str) -> Result<ExprAst, String> {
        let lazy = |st: &Self, x: &ExprAst| -> Result<(), String> {
            if st.reads_whole(x) {
                return Err("indexed read under a short-circuit or conditional".into());
            }
            Ok(())
        };
        Ok(match e {
            ExprAst::Num(_) => e.clone(),
            ExprAst::Name(n) => match self.whole_input(n) {
                // A bare whole-container read is the VM's load at index 0.
                Some(_) => {
                    let at0 = ExprAst::Index(n.clone(), vec![ExprAst::Num(0.0)]);
                    self.hoist(&at0, ind)?
                }
                None => e.clone(),
            },
            ExprAst::Index(n, idx) => {
                let Some(i) = self.whole_input(n) else {
                    return Err(format!("indexed access to `{n}`"));
                };
                let [ix] = &idx[..] else {
                    return Err(format!("multi-dimensional index into `{n}`"));
                };
                let ix = self.hoist(ix, ind)?;
                let ic = vm_expr_to_c(&ix, &|n| self.resolve_read(n))?;
                let p = self.tasklet().ins[i];
                let (ptr, off) = nest_port_ref(self.em.spec.ndims, p, self.scope);
                let len = self.em.len_ref(p);
                let k = self.em.tmp;
                self.em.tmp += 1;
                self.em.uses_i64 = true;
                let fault = self.em.fault(self.t, false, i, &format!("x{k}"));
                let _ = writeln!(
                    self.em.src,
                    "{ind}const long long x{k} = sdfg_i64({ic});\n\
                     {ind}if (x{k} < 0 || x{k} >= {len}) {fault}\n\
                     {ind}const double ld{k} = {ptr}[{off} + x{k}];"
                );
                ExprAst::Name(format!("{HOISTED}ld{k}"))
            }
            ExprAst::Bin(op, a, b) => {
                let a = self.hoist(a, ind)?;
                let b = self.hoist(b, ind)?;
                ExprAst::Bin(*op, Box::new(a), Box::new(b))
            }
            ExprAst::Cmp(op, a, b) => {
                let a = self.hoist(a, ind)?;
                let b = self.hoist(b, ind)?;
                ExprAst::Cmp(*op, Box::new(a), Box::new(b))
            }
            ExprAst::And(a, b) | ExprAst::Or(a, b) => {
                let ha = self.hoist(a, ind)?;
                lazy(self, b)?;
                match e {
                    ExprAst::And(..) => ExprAst::And(Box::new(ha), b.clone()),
                    _ => ExprAst::Or(Box::new(ha), b.clone()),
                }
            }
            ExprAst::Neg(a) => ExprAst::Neg(Box::new(self.hoist(a, ind)?)),
            ExprAst::Not(a) => ExprAst::Not(Box::new(self.hoist(a, ind)?)),
            ExprAst::Call(f, args) => {
                let mut out = Vec::with_capacity(args.len());
                for a in args {
                    out.push(self.hoist(a, ind)?);
                }
                ExprAst::Call(*f, out)
            }
            ExprAst::Ternary { cond, then, els } => {
                let cond = self.hoist(cond, ind)?;
                lazy(self, then)?;
                lazy(self, els)?;
                ExprAst::Ternary {
                    cond: Box::new(cond),
                    then: then.clone(),
                    els: els.clone(),
                }
            }
        })
    }

    /// Hoists `e`'s indexed reads, then renders it as C.
    fn expr(&mut self, e: &ExprAst, ind: &str) -> Result<String, String> {
        let e = self.hoist(e, ind)?;
        vm_expr_to_c(&e, &|n| self.resolve_read(n))
    }

    fn emit_stmt(&mut self, s: &Stmt, ind: &str) -> Result<(), String> {
        match s {
            Stmt::Push { stream, value } => {
                let (slot, k) = self.stream_slot(stream)?;
                let v = self.expr(value, ind)?;
                let _ = writeln!(
                    self.em.src,
                    "{ind}{{ const double pv = {v}; {slot} = pv; ++ns{k}; }}"
                );
                Ok(())
            }
            Stmt::Assign {
                target,
                index,
                op,
                value,
            } => {
                let out = self.prog.outputs.iter().position(|x| x == target);
                if let Some(j) = out {
                    match self.mode_of(j) {
                        JitOutMode::Log(_) => return self.emit_log_store(j, index, op, value, ind),
                        JitOutMode::Stream => {
                            return Err(format!("store to stream connector `{target}`"))
                        }
                        _ => {}
                    }
                }
                if index.is_some() {
                    return Err(format!("indexed store to `{target}`"));
                }
                // The compiler resolves the RHS before defining the target
                // local, so emit it under the current scope first.
                let rhs = self.expr(value, ind)?;
                let lhs = match self.names.assign(target, op.is_some())? {
                    VmName::Output(j) => format!("o{j}"),
                    _ => format!("l_{target}"),
                };
                let src = &mut self.em.src;
                match op {
                    None => {
                        let _ = writeln!(src, "{ind}{lhs} = {rhs};");
                    }
                    Some(op) => {
                        // `t op= v` runs as `t = apply_bin(op, t, v)`.
                        let _ = writeln!(src, "{ind}{lhs} = {};", vm_bin_to_c(*op, &lhs, &rhs));
                    }
                }
                Ok(())
            }
            Stmt::If { cond, then, els } if self.selects(cond, then, els) => {
                self.emit_select(cond, then, els, ind)
            }
            Stmt::If { cond, then, els } => {
                let c = self.expr(cond, ind)?;
                // Speculative staging stores, ahead of the branch.
                let pure = !self.reads_whole(cond);
                let mut early = [Vec::new(), Vec::new()];
                for (arm, (a, b)) in [(then, els), (els, then)].into_iter().enumerate() {
                    for (i, s) in a.iter().enumerate() {
                        if let Some((stream, value)) = self.speculates(s, a, b).filter(|_| pure) {
                            let (slot, _) = self.stream_slot(stream)?;
                            let v = self.expr(value, ind)?;
                            let _ = writeln!(self.em.src, "{ind}{slot} = {v};");
                            early[arm].push(i);
                        }
                    }
                }
                let _ = writeln!(self.em.src, "{ind}if (({c}) != 0.0) {{");
                let fork = self.names.fork();
                let inner = format!("{ind}  ");
                self.emit_arm(then, &early[0], &inner)?;
                let then = self.names.next_arm(fork);
                let _ = writeln!(self.em.src, "{ind}}} else {{");
                self.emit_arm(els, &early[1], &inner)?;
                self.names.join(&then);
                let _ = writeln!(self.em.src, "{ind}}}");
                Ok(())
            }
        }
    }

    /// The staging slot C lvalue the next push to `stream` fills, and the
    /// stream's counter index.
    fn stream_slot(&self, stream: &str) -> Result<(String, usize), String> {
        let j = self.prog.outputs.iter().position(|x| x == stream);
        let k = j.and_then(|j| self.em.streams.iter().position(|&s| s == (self.t, j)));
        let (Some(j), Some(k)) = (j, k) else {
            return Err(format!("push to non-stream connector `{stream}`"));
        };
        let p = self.tasklet().outs[j].port;
        let (ptr, off) = nest_port_ref(self.em.spec.ndims, p, &[]);
        Ok((format!("{ptr}[{off} + ns{k}]"), k))
    }

    /// The stream and value of statement `s` of a branch arm `arm` (whose
    /// sibling arm is `other`) when it is a push whose staging store may
    /// run before the branch, leaving the arm only the count: the arm's
    /// one push to its stream, none in the sibling (so the slot is this
    /// push's whichever arm runs), and a value that reads nothing the arm
    /// assigns and no checked load (so it is the same value, computed
    /// without a fault, ahead of the branch). Slots past the count are
    /// never appended, and [`pushes_to`] counts this push, so the slot
    /// lies inside the staging the executor sizes.
    fn speculates<'x>(
        &self,
        s: &'x Stmt,
        arm: &[Stmt],
        other: &[Stmt],
    ) -> Option<(&'x str, &'x ExprAst)> {
        let Stmt::Push { stream, value } = s else {
            return None;
        };
        let mut assigned = Vec::new();
        collect_locals(arm, &[], &[], &mut assigned);
        let ok = pushes_to(arm, stream) == 1
            && pushes_to(other, stream) == 0
            && !assigned.iter().any(|n| reads(value, n))
            && !self.reads_whole(value);
        ok.then_some((stream, value))
    }

    /// Whether statement `s` of arm `arm` stores to a register-folded log
    /// in the select form: the arm's one store to it, of a value with no
    /// checked load.
    fn selected_store(&self, s: &Stmt, arm: &[Stmt]) -> bool {
        let Stmt::Assign { target, value, .. } = s else {
            return false;
        };
        let Some(j) = self.prog.outputs.iter().position(|x| x == target) else {
            return false;
        };
        self.em.reg(self.t, j).is_some() && stores_to(arm, target) == 1 && !self.reads_whole(value)
    }

    /// Whether a branch runs as selects instead: a condition with no
    /// checked load, and arms made only of speculative pushes (see
    /// [`Self::speculates`]) and single stores to register-folded logs.
    /// The arms then assign no name, and every value they compute reads
    /// only what holds before the branch and cannot fault, so computing
    /// both arms' values and keeping the taken arm's is the VM's result.
    fn selects(&self, cond: &ExprAst, then: &[Stmt], els: &[Stmt]) -> bool {
        !self.reads_whole(cond)
            && [(then, els), (els, then)].iter().all(|&(arm, other)| {
                arm.iter().all(|s| {
                    self.speculates(s, arm, other).is_some() || self.selected_store(s, arm)
                })
            })
    }

    /// Emits a branch in the select form (see [`Self::selects`]): each
    /// push stages its value and counts when its arm is taken, and each
    /// log combines the taken arm's value into the point's copy of its
    /// register (or keeps it, when that arm does not store).
    fn emit_select(
        &mut self,
        cond: &ExprAst,
        then: &[Stmt],
        els: &[Stmt],
        ind: &str,
    ) -> Result<(), String> {
        let c = self.expr(cond, ind)?;
        let b = format!("b{}", self.em.tmp);
        self.em.tmp += 1;
        self.em.uses_sel = true;
        let _ = writeln!(self.em.src, "{ind}const int {b} = ({c}) != 0.0;");
        let mut logs: Vec<(usize, [Option<String>; 2])> = Vec::new();
        let arms = [(then, b.clone()), (els, format!("!{b}"))];
        for (a, (arm, taken)) in arms.iter().enumerate() {
            for s in arm.iter() {
                match s {
                    Stmt::Push { stream, value } => {
                        let (slot, k) = self.stream_slot(stream)?;
                        let v = self.expr(value, ind)?;
                        let _ = writeln!(self.em.src, "{ind}{slot} = {v};\n{ind}ns{k} += {taken};");
                    }
                    Stmt::Assign { target, value, .. } => {
                        let j = self.prog.outputs.iter().position(|x| x == target);
                        let j = j.ok_or_else(|| format!("store to `{target}`"))?;
                        let v = self.expr(value, ind)?;
                        match logs.iter_mut().find(|(o, _)| *o == j) {
                            Some((_, vs)) => vs[a] = Some(v),
                            None => {
                                let mut vs = [None, None];
                                vs[a] = Some(v);
                                logs.push((j, vs));
                            }
                        }
                    }
                    Stmt::If { .. } => return Err("branch in a selected arm".into()),
                }
            }
        }
        for (j, [vt, ve]) in logs {
            let JitOutMode::Log(op) = self.mode_of(j) else {
                return Err("selected store to a connector that is not a log".into());
            };
            let lp = format!("lp{j}");
            let next = match (vt, ve) {
                (Some(a), Some(e)) => op.combine(&lp, &format!("sdfg_sel({b}, {a}, {e})")),
                (Some(a), None) => format!("sdfg_sel({b}, {}, {lp})", op.combine(&lp, &a)),
                (None, Some(e)) => format!("sdfg_sel({b}, {lp}, {})", op.combine(&lp, &e)),
                (None, None) => continue,
            };
            let _ = writeln!(self.em.src, "{ind}{lp} = {next};");
        }
        Ok(())
    }

    /// Emits one branch arm; the pushes at `early` staged their value
    /// ahead of the branch and only count here.
    fn emit_arm(&mut self, arm: &[Stmt], early: &[usize], ind: &str) -> Result<(), String> {
        for (i, s) in arm.iter().enumerate() {
            match s {
                Stmt::Push { stream, .. } if early.contains(&i) => {
                    let (_, k) = self.stream_slot(stream)?;
                    let _ = writeln!(self.em.src, "{ind}++ns{k};");
                }
                _ => self.emit_stmt(s, ind)?,
            }
        }
        Ok(())
    }

    /// A store to write-log output `j`: the VM computes the index, then the
    /// value, then range-checks the index against the log's `u32` offsets
    /// and appends `(index, value)`.
    fn emit_log_store(
        &mut self,
        j: usize,
        index: &Option<Vec<ExprAst>>,
        op: &Option<BinOp>,
        value: &ExprAst,
        ind: &str,
    ) -> Result<(), String> {
        if op.is_some() {
            // Augmented stores read the log port, which the VM refuses.
            return Err("augmented store to a write log".into());
        }
        if let (Some(_), JitOutMode::Log(op)) = (self.em.reg(self.t, j), self.mode_of(j)) {
            // A constant index the VM's log accepts: the value combines
            // into the point's copy of the register, in store order.
            let v = self.expr(value, ind)?;
            let lp = format!("lp{j}");
            let _ = writeln!(self.em.src, "{ind}{lp} = {};", op.combine(&lp, &v));
            return Ok(());
        }
        let idx = match index.as_deref() {
            None => None,
            Some([ix]) => Some(self.expr(ix, ind)?),
            Some(_) => return Err("multi-dimensional index into a write log".into()),
        };
        let v = self.expr(value, ind)?;
        let k = self.em.tmp;
        self.em.tmp += 1;
        match idx {
            None => {
                let _ = writeln!(self.em.src, "{ind}const long long x{k} = 0;");
            }
            Some(ic) => {
                self.em.uses_i64 = true;
                let fault = self.em.fault(self.t, true, j, &format!("x{k}"));
                let _ = writeln!(
                    self.em.src,
                    "{ind}const long long x{k} = sdfg_i64({ic});\n\
                     {ind}if (x{k} < 0 || x{k} > 4294967295LL) {fault}"
                );
            }
        }
        let _ = writeln!(
            self.em.src,
            "{ind}lgi{j}[lgn{j}] = x{k}; lgv{j}[lgn{j}] = {v}; ++lgn{j};"
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(code: &str, ins: &[&str], outs: &[&str]) -> TaskletProgram {
        let ins: Vec<String> = ins.iter().map(|s| s.to_string()).collect();
        let outs: Vec<String> = outs.iter().map(|s| s.to_string()).collect();
        TaskletProgram::compile(code, &ins, &outs).unwrap()
    }

    /// The innermost-dimension kernel: a 1-D nest whose body is one call,
    /// inputs on ports `0..n_inputs`, outputs on the ports after them.
    /// Port `p`'s `geo` row starts at `3p` (`[buf, base, c0]`).
    fn span(prog: &TaskletProgram, modes: &[JitOutMode]) -> Result<String, String> {
        let n_inputs = prog.inputs.len();
        emit_nest_kernel(&NestSpec {
            ndims: 1,
            nports: n_inputs + modes.len(),
            tasklets: vec![NestTasklet {
                prog,
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
            ..Default::default()
        })
    }

    #[test]
    fn span_accumulates_on_the_outermost_dimension() {
        let p = prog("o = a * b", &["a", "b"], &["o"]);
        let src = span(&p, &[JitOutMode::Accumulate(JitWcrOp::Sum)]).unwrap();
        assert!(src.contains("void sdfg_nest("));
        // Dimension 0 itself is the reduction loop: a register seeded from
        // the loop-invariant port (addressed by its base alone), folding
        // the VM mirror's value, stored back once.
        assert!(src.contains("double acc = bufs[geo[6]][geo[7]];"));
        assert!(src.contains("for (long long i0 = lo0; i0 < hi0; ++i0) {"));
        assert!(src.contains("const double v1 = bufs[geo[3]][geo[4] + i0 * geo[5]];"));
        assert!(src.contains("o0 = (v0 * v1);"));
        assert!(src.contains("acc = (acc + o0);"));
        assert!(src.contains("bufs[geo[6]][geo[7]] = acc;"));
        assert!(src.contains("*npts = cnt;"));
    }

    #[test]
    fn span_emits_elementwise_and_combine_kernels() {
        let p = prog("o = a * 2 + -1.5", &["a"], &["o"]);
        let src = span(&p, &[JitOutMode::Write]).unwrap();
        assert!(src.contains("o0 = ((v0 * 2.0) + (-(1.5)));"));
        assert!(src.contains("bufs[geo[3]][geo[4] + i0 * geo[5]] = o0;"));

        let p = prog("o = a", &["a"], &["o"]);
        let src = span(&p, &[JitOutMode::CombinePerPoint(JitWcrOp::Max)]).unwrap();
        assert!(src.contains("{ const long long o = geo[4] + i0 * geo[5];"));
        assert!(src.contains("bufs[geo[3]][o] = fmax(bufs[geo[3]][o], o0); }"));
    }

    #[test]
    fn span_emits_vm_mirror_program() {
        let p = prog("t = a * a\no = t + b % a", &["a", "b"], &["o"]);
        let src = span(&p, &[JitOutMode::ReadModifyWrite]).unwrap();
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
        let src = span(&p, &[JitOutMode::CombinePerPoint(JitWcrOp::Sum)]).unwrap();
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
        let err = span(&p, &[JitOutMode::ReadModifyWrite]).unwrap_err();
        assert!(err.contains("stale"), "{err}");
    }

    #[test]
    fn rejects_indexed_ports_and_bad_shapes() {
        let p = prog("o = w[0] + w[1]", &["w"], &["o"]);
        assert!(span(&p, &[JitOutMode::ReadModifyWrite]).is_err());

        // Accumulate folds one plain assignment to the sole output...
        let p2 = prog("t = a + 1\no = t", &["a"], &["o"]);
        let acc = [JitOutMode::Accumulate(JitWcrOp::Sum)];
        assert!(span(&p2, &acc).is_err());

        // ... and single-output only: with a second output the call is no
        // reduction loop, so the accumulating port has nowhere to fold.
        let p3 = prog("o = a\nq = a", &["a"], &["o", "q"]);
        let two = [JitOutMode::Accumulate(JitWcrOp::Sum), JitOutMode::Write];
        assert!(span(&p3, &two).is_err());

        // A body needs an output and in-range ports.
        let copy = prog("o = a", &["a"], &["o"]);
        assert!(span(&copy, &[]).is_err());
    }

    #[test]
    fn branch_joined_locals_are_definite() {
        let p = prog(
            "if a > 0:\n    t = a\nelse:\n    t = -a\no = t",
            &["a"],
            &["o"],
        );
        let src = span(&p, &[JitOutMode::ReadModifyWrite]).unwrap();
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
        let mul = prog("o = (-a) * b", &["a", "b"], &["o"]);
        let div = prog("o = a / b", &["a", "b"], &["o"]);
        let spec = NestSpec {
            ndims: 3,
            nports: 6,
            tasklets: vec![
                NestTasklet {
                    prog: &mul,
                    ins: vec![0, 1],
                    outs: vec![NestOut {
                        port: 2,
                        mode: JitOutMode::Accumulate(JitWcrOp::Sum),
                    }],
                },
                NestTasklet {
                    prog: &div,
                    ins: vec![3, 4],
                    outs: vec![NestOut {
                        port: 5,
                        mode: JitOutMode::Write,
                    }],
                },
            ],
            body: vec![NestItem::Loop {
                dim: 1,
                step: 1,
                body: vec![
                    NestItem::Loop {
                        dim: 2,
                        step: 1,
                        body: vec![NestItem::Call(0)],
                    },
                    NestItem::Call(1),
                ],
            }],
            ..Default::default()
        };
        let src = emit_nest_kernel(&spec).unwrap();
        assert!(src.contains("void sdfg_nest("));
        assert!(src.contains("for (long long i0 = lo0; i0 < hi0; ++i0)"));
        // dim-1 bounds: rows 2 (lo) and 3 (hi) of width 4, affine in i0.
        assert!(src.contains("const long long lo1 = bnd[8] + i0 * bnd[9];"));
        assert!(src.contains("const long long hi1 = bnd[12] + i0 * bnd[13];"));
        // The reduction is seeded from its element (port 2, invariant in
        // i2) and stores it back once.
        assert!(src.contains("double acc = bufs[geo[10]][geo[11] + i0 * geo[12] + i1 * geo[13]];"));
        assert!(src.contains("o0 = ((-(v0)) * v1);"));
        assert!(src.contains("acc = (acc + o0);"));
        assert!(src.contains("bufs[geo[10]][geo[11] + i0 * geo[12] + i1 * geo[13]] = acc;"));
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
    fn nest_min_seeds_from_the_output() {
        let copy = prog("o = a", &["a"], &["o"]);
        let spec = NestSpec {
            ndims: 2,
            nports: 2,
            tasklets: vec![NestTasklet {
                prog: &copy,
                ins: vec![0],
                outs: vec![NestOut {
                    port: 1,
                    mode: JitOutMode::Accumulate(JitWcrOp::Min),
                }],
            }],
            body: vec![NestItem::Loop {
                dim: 1,
                step: 1,
                body: vec![NestItem::Call(0)],
            }],
            ..Default::default()
        };
        let src = emit_nest_kernel(&spec).unwrap();
        assert!(src.contains("double acc = bufs[geo[4]][geo[5] + i0 * geo[6]];"));
        assert!(src.contains("acc = fmin(acc, o0);"));
    }

    #[test]
    fn nest_rejects_bad_shapes() {
        let copy = prog("o = a", &["a"], &["o"]);
        let mk = |body: Vec<NestItem>| NestSpec {
            ndims: 2,
            nports: 2,
            tasklets: vec![NestTasklet {
                prog: &copy,
                ins: vec![0],
                outs: vec![NestOut {
                    port: 1,
                    mode: JitOutMode::Accumulate(JitWcrOp::Sum),
                }],
            }],
            body,
            ..Default::default()
        };
        // Accumulate must be its loop's whole body.
        assert!(emit_nest_kernel(&mk(vec![NestItem::Call(0), NestItem::Call(0)])).is_err());
        // Dimension 0 is the tile loop; reusing it is a bug.
        assert!(emit_nest_kernel(&mk(vec![NestItem::Loop {
            dim: 0,
            step: 1,
            body: vec![NestItem::Call(0)],
        }]))
        .is_err());
        // Out-of-range dimension.
        assert!(emit_nest_kernel(&mk(vec![NestItem::Loop {
            dim: 2,
            step: 1,
            body: vec![NestItem::Call(0)],
        }]))
        .is_err());
    }

    /// gemm as the nest builder emits it: ports `A[i, k]`, `B[k, j]`,
    /// `C[i, j]` over dims `i, j, k`.
    fn gemm_spec(mul: &TaskletProgram, reads: Vec<Vec<usize>>) -> NestSpec<'_> {
        NestSpec {
            ndims: 3,
            nports: 3,
            tasklets: vec![NestTasklet {
                prog: mul,
                ins: vec![0, 1],
                outs: vec![NestOut {
                    port: 2,
                    mode: JitOutMode::Accumulate(JitWcrOp::Sum),
                }],
            }],
            body: vec![NestItem::Loop {
                dim: 1,
                step: 1,
                body: vec![NestItem::Loop {
                    dim: 2,
                    step: 1,
                    body: vec![NestItem::Call(0)],
                }],
            }],
            reads,
            ..Default::default()
        }
    }

    #[test]
    fn strip_form_is_guarded_per_launch_and_keeps_the_scalar_loop() {
        let mul = prog("o = a * b", &["a", "b"], &["o"]);
        let src =
            emit_nest_kernel(&gemm_spec(&mul, vec![vec![0, 2], vec![1, 2], vec![0, 1]])).unwrap();
        // Reduction bounds independent of `j`, one `C` element per `j`, `A`
        // invariant and `B` unit stride along it, neither input in `C`'s
        // container.
        assert!(src.contains(
            "if (bnd[18] == 0 && bnd[22] == 0 && geo[13] != 0 && geo[3] == 0 \
             && bufs[geo[0]] != bufs[geo[10]] && geo[8] == 1 && bufs[geo[5]] != bufs[geo[10]]) {"
        ));
        assert!(src.contains("for (; i1 + 16 <= hi1 && lo2 < hi2; i1 += 16) {"));
        // Each lane's register starts at, and ends in, its own element.
        let elem = "bufs[geo[10]][geo[11] + i0 * geo[12] + i1 * geo[13] + w * geo[13]]";
        assert!(src.contains(&format!("for (int w = 0; w < 16; ++w) acc[w] = {elem};")));
        assert!(src.contains(&format!("for (int w = 0; w < 16; ++w) {elem} = acc[w];")));
        // The invariant input loads once per step; the strided one is a
        // row pointer indexed by the strip lane.
        assert!(src.contains(
            "const double v0 = bufs[geo[0]][geo[1] + i0 * geo[2] + i1 * geo[3] + i2 * geo[4]];"
        ));
        assert!(src.contains(
            "const double *r1 = &bufs[geo[5]][geo[6] + i0 * geo[7] + i1 * geo[8] + i2 * geo[9]];"
        ));
        assert!(src.contains("const double v1 = r1[w];"));
        assert!(src.contains("o0 = (v0 * v1);"));
        assert!(src.contains("acc[w] = (acc[w] + o0);"));
        assert!(src.contains("cnt += 16 * (hi2 - lo2);"));
        // Whatever the strips leave, and every launch the guard turns
        // away, runs the scalar reduction loop.
        assert!(src.contains("for (; i1 < hi1; ++i1) {"));
        assert!(src.contains("double acc = bufs[geo[10]][geo[11] + i0 * geo[12] + i1 * geo[13]];"));

        // Without the structural reads table there is no strip form.
        let plain = emit_nest_kernel(&gemm_spec(&mul, Vec::new())).unwrap();
        assert!(
            !plain.contains("acc[") && plain.contains("for (long long i1 = lo1; i1 < hi1; ++i1) {")
        );
        // Nor over a reduction whose bound the kernel loads.
        let mut loaded = gemm_spec(&mul, vec![vec![0, 2], vec![1, 2], vec![0, 1], vec![0]]);
        loaded.nports = 4;
        loaded.loaded = vec![LoadedBound {
            dim: 2,
            hi: true,
            port: 3,
        }];
        assert!(!emit_nest_kernel(&loaded).unwrap().contains("acc["));
    }

    // --- self-checked accesses -------------------------------------------------

    #[test]
    fn plain_kernels_need_no_checks() {
        let src = span(&prog("o = a", &["a"], &["o"]), &[JitOutMode::Write]).unwrap();
        assert!(!src.contains("sdfg_i64") && !src.contains("sdfg_rd"));
        assert!(!src.contains("sdfg_done") && !src.contains("npts["));
    }

    #[test]
    fn indexed_reads_logs_and_pushes_are_checked_or_staged() {
        // spmv's gather feeding histogram's log and query's stream: port 0
        // is the whole `xv`, 1 the scalar `c`, 2 the log, 3 the stream.
        let p = prog(
            "v = xv[int(c)]\nout[int(v)] = 1\nS.push(v)",
            &["xv", "c"],
            &["out", "S"],
        );
        let spec = NestSpec {
            ndims: 1,
            nports: 4,
            tasklets: vec![NestTasklet {
                prog: &p,
                ins: vec![0, 1],
                outs: vec![
                    NestOut {
                        port: 2,
                        mode: JitOutMode::Log(JitWcrOp::Sum),
                    },
                    NestOut {
                        port: 3,
                        mode: JitOutMode::Stream,
                    },
                ],
            }],
            body: vec![NestItem::Call(0)],
            whole: vec![0, 2],
            ..Default::default()
        };
        let src = emit_nest_kernel(&spec).unwrap();
        // Only the scalar input is loaded up front.
        assert!(src.contains("const double v1 = "));
        assert!(!src.contains("const double v0 = "));
        // The gather converts like Rust's `as i64` and checks the length
        // table (after the 4 rows of 3 entries) before reading.
        assert!(src.contains("const long long x0 = sdfg_i64(trunc(v1));"));
        let fault = |call, output, slot| {
            format!(
                "{{ npts[1] = {}; npts[2] = ",
                fault_code(call, output, slot)
            )
        };
        assert!(src.contains(&format!(
            "if (x0 < 0 || x0 >= geo[12]) {}x0",
            fault(0, false, 0)
        )));
        assert!(src.contains("const double ld0 = bufs[geo[0]][geo[1] + i0 * geo[2] + x0];"));
        // The log store checks the VM's `u32` range and stages the pair.
        assert!(src.contains(&format!(
            "if (x1 < 0 || x1 > 4294967295LL) {}x1",
            fault(0, true, 0)
        )));
        assert!(src.contains("lgi0[lgn0] = x1; lgv0[lgn0] = 1.0; ++lgn0;"));
        // Staged stores combine after the body, ignored past the end.
        assert!(src.contains("if (q < geo[14]) bufs[geo[6]][q] = (bufs[geo[6]][q] + lgv0[k]);"));
        // Pushes append to the staging port and report their count.
        assert!(src.contains("{ const double pv = l_v; bufs[geo[9]][geo[10] + ns0] = pv; ++ns0; }"));
        assert!(src.contains("sdfg_done:\n  npts[3] = ns0;\n  *npts = cnt;\n}"));
        assert_eq!(decode_fault(fault_code(3, true, 7)), (3, true, 7));
    }

    /// A 1-D kernel of one call of `p` (inputs `x`, optionally the whole
    /// `xv`; outputs the stream `S` and `out`, in `mode`): port 0 is `x`,
    /// read through dim 0, then `xv` when present, then `S`'s staging and
    /// `out`. `containers` names each port's container.
    fn one_call_spec<'a>(
        p: &'a TaskletProgram,
        mode: JitOutMode,
        containers: Vec<usize>,
    ) -> NestSpec<'a> {
        let nin = p.inputs.len();
        let mut reads = vec![vec![0]];
        reads.resize(nin + 2, Vec::new());
        NestSpec {
            ndims: 1,
            nports: nin + 2,
            tasklets: vec![NestTasklet {
                prog: p,
                ins: (0..nin).collect(),
                outs: vec![
                    NestOut {
                        port: nin,
                        mode: JitOutMode::Stream,
                    },
                    NestOut {
                        port: nin + 1,
                        mode,
                    },
                ],
            }],
            body: vec![NestItem::Call(0)],
            whole: (1..nin).chain([nin + 1]).collect(),
            reads,
            containers,
            ..Default::default()
        }
    }

    #[test]
    fn a_push_the_arm_does_not_compute_stores_before_its_branch() {
        let p = prog(
            "if x > 0:\n    S.push(x)\n    y = x * 2\nelse:\n    y = 0\nout = y",
            &["x"],
            &["S", "out"],
        );
        let src = emit_nest_kernel(&one_call_spec(&p, JitOutMode::Write, vec![0, 1, 2])).unwrap();
        // The staging store precedes the branch; the arm only counts.
        assert!(
            src.contains(
                "      bufs[geo[3]][geo[4] + ns0] = v0;\n      \
                 if ((((v0 > 0.0) ? 1.0 : 0.0)) != 0.0) {\n        ++ns0;\n        l_y = "
            ),
            "{src}"
        );
        assert!(!src.contains("pv"), "{src}");
        // The value the arm computes keeps its push in the arm.
        let p = prog(
            "if x > 0:\n    y = x * 2\n    S.push(y)\nelse:\n    y = 0\nout = y",
            &["x"],
            &["S", "out"],
        );
        let src = emit_nest_kernel(&one_call_spec(&p, JitOutMode::Write, vec![0, 1, 2])).unwrap();
        assert!(
            src.contains(
                "        l_y = (v0 * 2.0);\n        \
                 { const double pv = l_y; bufs[geo[3]][geo[4] + ns0] = pv; ++ns0; }"
            ),
            "{src}"
        );
    }

    #[test]
    fn query_folds_its_count_into_a_register_and_selects() {
        let query = "if x > 0:\n    S_out.push(x)\n    c = 1\nelse:\n    c = 0";
        let p = prog(query, &["x"], &["S_out", "c"]);
        let log = JitOutMode::Log(JitWcrOp::Sum);
        let src = emit_nest_kernel(&one_call_spec(&p, log, vec![0, 1, 2])).unwrap();
        // No staged log, no branch: the count folds into `lr0`, seeded
        // once and stored back after the loop.
        assert!(!src.contains("lgi") && !src.contains("lgv"), "{src}");
        assert!(!src.contains("if (("), "{src}");
        assert!(
            src.contains("  const long long lq0 = geo[7] + 0;\n"),
            "{src}"
        );
        assert!(src.contains("  double lr0 = lq0 < geo[11] ? bufs[geo[6]][lq0] : 0.0;\n"));
        assert!(src.contains(
            "      bufs[geo[3]][geo[4] + ns0] = v0;\n      ns0 += b0;\n      \
             lp1 = (lp1 + sdfg_sel(b0, 1.0, 0.0));\n      lr0 = lp1;\n"
        ));
        assert!(
            src.contains("  }\n  if (lq0 < geo[11]) bufs[geo[6]][lq0] = lr0;\n  npts[3] = ns0;")
        );
        // A kernel whose other port addresses the count's container keeps
        // the staged log.
        let src = emit_nest_kernel(&one_call_spec(&p, log, vec![0, 1, 0])).unwrap();
        assert!(
            src.contains("lgi1[lgn1] = x0; lgv1[lgn1] = 1.0; ++lgn1;"),
            "{src}"
        );
        assert!(!src.contains("lr0"), "{src}");
    }

    #[test]
    fn a_folded_register_is_stored_back_on_both_exits() {
        // An indexed read gives the kernel its fault exit.
        let p = prog(
            "v = xv[int(x)]\nif v > 0:\n    S.push(v)\n    c = 1\nelse:\n    c = 0",
            &["x", "xv"],
            &["S", "c"],
        );
        let log = JitOutMode::Log(JitWcrOp::Sum);
        let src = emit_nest_kernel(&one_call_spec(&p, log, vec![0, 1, 2, 3])).unwrap();
        assert!(!src.contains("lgi"), "{src}");
        // The fault jumps to `sdfg_done`, which the loop's end falls into:
        // the store-back follows the label.
        assert!(src.contains("goto sdfg_done;"), "{src}");
        assert!(
            src.contains("sdfg_done:\n  if (lq0 < geo[15]) bufs[geo[9]][lq0] = lr0;\n"),
            "{src}"
        );
    }

    #[test]
    fn loaded_bounds_round_and_clamped_ports_mirror_the_interpreter() {
        // A row loop whose inner bounds load from ports 1 and 2 (spmv's
        // `Lb`/`Le`): port 0, addressed through the loaded dim, is clamped.
        let copy = prog("o = a", &["a"], &["o"]);
        let spec = NestSpec {
            ndims: 2,
            nports: 4,
            tasklets: vec![NestTasklet {
                prog: &copy,
                ins: vec![0],
                outs: vec![NestOut {
                    port: 3,
                    mode: JitOutMode::CombinePerPoint(JitWcrOp::Sum),
                }],
            }],
            body: vec![NestItem::Loop {
                dim: 1,
                step: 1,
                body: vec![NestItem::Call(0)],
            }],
            clamped: vec![0],
            loaded: vec![
                LoadedBound {
                    dim: 1,
                    hi: false,
                    port: 1,
                },
                LoadedBound {
                    dim: 1,
                    hi: true,
                    port: 2,
                },
            ],
            ..Default::default()
        };
        let src = emit_nest_kernel(&spec).unwrap();
        assert!(src.contains(
            "const long long lo1 = sdfg_i64(round(bufs[geo[4]][geo[5] + i0 * geo[6]]));"
        ));
        assert!(src.contains(
            "const long long hi1 = sdfg_i64(round(bufs[geo[8]][geo[9] + i0 * geo[10]]));"
        ));
        assert!(src.contains(
            "const double v0 = sdfg_rd(bufs[geo[0]], geo[16], geo[1] + i0 * geo[2] + i1 * geo[3]);"
        ));
        assert!(src.contains("if (x != x) return 0;"));
    }
}

//! Map-nest JIT lowering: the one path from map bodies to native code.
//!
//! Everything that runs natively is a *nest* handed to `codegen::jit`'s
//! emitter and called through one ABI. Two sites build and launch nests:
//!
//! * **State-machine loops** (`try_collapse_loop`): a loop that
//!   `sdfg_codegen::statemachine::loop_at` recognizes at a guard state
//!   collapses — all iterations, all body states — into one native call
//!   (sliced only when a run deadline is set), turning a solver's
//!   thousands of interpreted transitions into one call per run. The
//!   structured body is the nest, region for region:
//!   - the guard compares the variable with a bound it does not assign
//!     (`<`, `<=` on a positive constant step, `>`, `>=` on a negative
//!     one), and the host writes back the interpreter's exit value;
//!   - a state is its top-level point tasklets and all-tasklet maps, in
//!     the order `exec_state` runs them;
//!   - an inner loop with an init assignment is a dim from its init to its
//!     bound on its constant step, both affine in the enclosing dims;
//!   - a two-way branch is an `if` on one comparison affine in the
//!     enclosing dims, its arms' states and edge assignments inside;
//!   - an edge assignment affine in the same terms binds a C local (a dim
//!     that iterates once) over what follows it in its sequence.
//!
//!   Every name a bound, index or condition reads is a dim in scope, a
//!   launch-time constant, or launch-invariant — never a container or a
//!   stream length — and a symbol the loop assigns is read after it only
//!   if it is the loop variable. A map the interpreter could run in
//!   parallel (no WCR output) is admitted only on a call whose largest
//!   launch of it the scheduler would keep serial.
//! * **Map launches** (`map_nest` / `launch_map_nest`): every map has at
//!   most one kernel, cached per `(state, node)` in the execution plan. A
//!   single-tasklet map's kernel covers the longest suffix of its dims the
//!   builder lowers — the whole nest for dense maps, the innermost dim
//!   alone behind a tiled `min` bound or a non-unit inner step. A generic
//!   body (point tasklets, scope-local scalars and one inner map: spmv's
//!   row loop around its dynamic-range nonzero loop) is one kernel over
//!   the whole map on a serial top-level launch, the inner map's
//!   dynamic-range connectors becoming bounds the kernel loads. A
//!   whole-map kernel runs one call per serial launch and one per tile of
//!   a parallel launch; a suffix kernel runs one call per interpreted
//!   prefix row (`run_rows`), as does a whole-map kernel per dim-0 value
//!   when a launch declines it, so a row it cannot run falls back alone.
//!
//! Inner bounds may be affine in outer iteration variables (triangular
//! `k < j`, banded, trapezoidal); indices and bounds may also be affine in
//! launch-time constants — mutable interstate symbols, enclosing map
//! parameters, dynamic-range connectors and a suffix kernel's prefix
//! dims. Both are carried as coefficient rows in the kernel's `bnd`/`geo`
//! tables and resolved per launch. In a whole-map kernel, whose constants
//! are fixed for every call of a launch, an index may also read them in
//! any form (`A[t % 2, i, j]`): the term is evaluated when the launch
//! marshals (see [`NestAffine`]). Whether tiles may run in parallel at all
//! is `exec_map`'s race predicate, decided before the kernel is tried.
//! Bitwise discipline: the emitter mirrors the interpreter statement for
//! statement, and every candidate is only admitted when the interpreter
//! would have executed the same statements in the same order (see the
//! serial-collapse gate).
//!
//! Irregular bodies stay on the same path. A whole-container port read at
//! a body-computed index (`x[col[j]]`), a write log (`hist[bin] += 1`) and
//! a stream push are accesses the kernel checks or stages itself (see
//! `sdfg_codegen::jit`), and a fault comes back as the interpreter's own
//! error. Their combines, like any combine the race analysis marked
//! atomic, are plain read-modify-writes in C, so such a kernel or launch
//! is *exclusive*: `marshal` only admits it on a launch that runs serially
//! outside any parallel tile, or inside one when every container it
//! stages or combines into is *tile-private* — a scope-local container in
//! the launching worker's own `locals` (histogram's per-tile bins), which
//! no other worker can touch.
//!
//! That discipline is also what lets a run switch tiers between any two
//! launches: kernels compile in the background (`crate::jit`), `marshal`
//! treats a kernel still compiling as one more unmet launch-time
//! precondition, and the first launch after its compile finishes runs
//! native. No cache records "still compiling" as a decline.

use crate::affine::{solve, NestAffine, Site, Solved, Solver};
use crate::buffer::SharedBuffer;
use crate::cpu::{MapBody, MapPlan, TileSet};
use crate::engine::{Ctx, ExecError, Worker};
use crate::jit::{Decline, DeclineKind, JitKernel, KernelHandle, NestFn};
use crate::lower::{MapLowering, JIT_MIN_POINTS};
use crate::plan::StatePlan;
use crate::sched::SchedPool;
use crate::tasklet::{compile_body_tasklet, plan_window, BodyTasklet, WindowPlan};
use parking_lot::Mutex;
use sdfg_codegen::jit::{
    decode_fault, emit_nest_kernel, pushes_to, JitOutMode, JitWcrOp, LoadedBound, NestCond,
    NestItem, NestOut, NestSpec, NestTasklet, STATUS_FAULT, STATUS_INDEX, STATUS_STREAMS,
};
use sdfg_codegen::statemachine::{loop_at, Arm, Branch, Loop, Region, NO_BACK_EDGE};
use sdfg_core::cond::{BoolExpr, CmpOp};
use sdfg_core::{Node, Schedule, Sdfg, State, StateId, Wcr};
use sdfg_graph::NodeId;
use sdfg_lang::recognize::sole_assignment;
use sdfg_lang::RuntimeError;
use sdfg_profile::{Mode as ProfMode, Span, SpanKey, Tier};
use sdfg_symbolic::dependence::{distinct_along, element, misses};
use sdfg_symbolic::{Env, Expr, SymRange};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

fn structure(detail: impl Into<String>) -> Decline {
    Decline::new(DeclineKind::Structure, detail)
}

fn nonaffine(detail: impl Into<String>) -> Decline {
    Decline::new(DeclineKind::Bounds, detail)
}

fn body(detail: impl Into<String>) -> Decline {
    Decline::new(DeclineKind::Body, detail)
}

fn parallel_profitable(map: &str) -> Decline {
    structure(format!(
        "parallel-profitable map `{map}` (left on the steal scheduler)"
    ))
}

/// Staging slots per stream output and call: a launch with stream outputs
/// runs in calls of at most `STAGE / pushes-per-point` points, appending
/// each call's pushes before the next, so staging stays this small however
/// long the launch.
const STAGE: usize = 4096;

/// Stream outputs one kernel may have (the status slots it reports their
/// push counts in).
const MAX_STREAMS: usize = 4;

// --- nest plans --------------------------------------------------------------

/// How a port addresses its container.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PortKind {
    /// One element per point, at an affine offset.
    Affine,
    /// The whole container, addressed by a body-computed index the kernel
    /// range-checks (indexed reads, write logs).
    Whole,
    /// A stream output, staged per call; `pushes` bounds the pushes of one
    /// point.
    Stream { pushes: usize },
}

/// One `geo` row: a container access whose flat offset is affine in the
/// nest dims and launch-time constants.
pub(crate) struct NestPort {
    data: String,
    /// Slot in `Ctx::bufs`; `None` for containers that only exist as
    /// thread-local overlays, and for streams.
    slot: Option<usize>,
    addr: NestAffine,
    kind: PortKind,
    /// Addressed through a dim with a loaded bound: no launch can validate
    /// it, so the kernel mirrors the interpreted tiers' clamping instead.
    clamped: bool,
}

/// One tasklet call site.
pub(crate) struct NestCall {
    bt: Arc<BodyTasklet>,
    ins: Vec<usize>,
    outs: Vec<usize>,
    modes: Vec<JitOutMode>,
}

/// A nest kernel plus everything needed to marshal a launch.
pub(crate) struct NestCore {
    pub(crate) ndims: usize,
    ports: Vec<NestPort>,
    /// `(lo, hi)` per dim `1..ndims` (index `d - 1`); dim 0 is the range
    /// passed per call. A loaded bound's entry is a placeholder.
    bounds: Vec<(NestAffine, NestAffine)>,
    /// Constant step per dim (dim 0's is the launch's, see [`Launch`]): a
    /// negative one runs from `lo` down to just above `hi`.
    steps: Vec<i64>,
    /// Branch condition rows, each compared with zero.
    conds: Vec<NestAffine>,
    /// Dims with a bound the kernel loads (see [`NestPort::clamped`]).
    loaded_dims: Vec<usize>,
    calls: Vec<NestCall>,
    /// Stream port per status slot, in the emitter's call-then-slot order.
    streams: Vec<usize>,
    /// The kernel combines plainly where the interpreter would combine
    /// atomically, or stages logs and streams: only a launch running
    /// serially outside any parallel tile may call it, or one inside a
    /// tile whose `combined` ports are all tile-private.
    exclusive: bool,
    /// Ports a log, a stream or a WCR combine writes.
    combined: Vec<usize>,
    /// Common symbol table of every body that reads symbols, resolved per
    /// launch.
    syms: Vec<String>,
    /// The kernel, filled when its compile finishes; until then every
    /// launch falls back to the interpreter (see [`NestCore::kernel`]).
    kernel: KernelHandle,
    /// Label for fallback records.
    label: String,
    /// Set once a launch has recorded the failure of the kernel's compile.
    declined: AtomicBool,
    /// Set once a launch inside a parallel tile has recorded its decline.
    shared_declined: AtomicBool,
    /// Lowering-report rows for the maps this nest absorbed.
    pub(crate) rows: Vec<MapLowering>,
}

impl NestCore {
    /// The compiled kernel, or how far its compile got: `None` while it is
    /// still running.
    pub(crate) fn compiled(&self) -> Option<&Result<Arc<JitKernel>, Decline>> {
        self.kernel.get()
    }

    /// The kernel a launch may call. A launch that finds it still compiling
    /// is recorded as pending; the first to find its compile failed records
    /// that decline, as a build that failed would have.
    fn kernel(&self, chash: u64) -> Option<&JitKernel> {
        match self.kernel.get() {
            Some(Ok(k)) => Some(k),
            None => {
                self.kernel.record_pending(chash, &self.label);
                None
            }
            Some(Err(d)) => {
                if !self.declined.swap(true, Ordering::Relaxed) {
                    d.record(chash, &self.label);
                }
                None
            }
        }
    }

    /// Whether a launch may call the kernel when it is exclusive, or when
    /// the launch's interpreted tiers would combine `atomic`ally: not from
    /// inside a parallel tile (`in_tile`), where another worker may
    /// combine into the same element — unless every combined port
    /// resolves to the launching worker's `locals`. The first launch that
    /// may not records the decline.
    fn launch_exclusive(&self, chash: u64, atomic: bool, in_tile: bool, locals: Locals) -> bool {
        if !(self.exclusive || atomic) || !in_tile || self.tile_private(locals) {
            return true;
        }
        if !self.shared_declined.swap(true, Ordering::Relaxed) {
            structure("atomic combine inside a parallel tile").record(chash, &self.label);
        }
        false
    }

    /// Whether every port the kernel stages or combines into is a
    /// container in `locals` (streams never are: their queues belong to
    /// the run).
    fn tile_private(&self, locals: Locals) -> bool {
        locals.is_some_and(|l| {
            self.combined.iter().all(|&p| {
                let port = &self.ports[p];
                !matches!(port.kind, PortKind::Stream { .. }) && l.contains_key(&port.data)
            })
        })
    }

    /// The interpreter's error for a kernel fault (see
    /// [`sdfg_codegen::jit::fault_code`]): the VM's out-of-bounds error on
    /// the connector that faulted, with the window length it checked.
    fn fault(&self, args: &NestArgs, code: i64, index: i64) -> ExecError {
        let (t, output, slot) = decode_fault(code);
        let call = &self.calls[t];
        let prog = &call.bt.prog;
        let (conn, len) = if output {
            (prog.outputs[slot].clone(), u32::MAX as usize)
        } else {
            let len = args.geo[args.lens_at + call.ins[slot]];
            (prog.inputs[slot].clone(), len as usize)
        };
        RuntimeError::OutOfBounds { conn, index, len }.into()
    }
}

/// A collapsible state-machine loop: its variable and the range it walks,
/// and the compiled nest, whose dim-0 kernel index `k` is the iteration
/// where the variable is `v0 + k·step` (`v0` its value at the call).
pub(crate) struct LoopNestPlan {
    pub(crate) var: String,
    /// Constant step, never 0.
    step: i64,
    /// Exclusive end in the step's direction (see [`loop_range`]).
    end: Expr,
    /// Dims of each map with no WCR output the scheduler could tile: the
    /// loop collapses only on a call where every launch such a map would
    /// make stays below the scheduler's parallel threshold, which decides
    /// per call, as the launches would.
    gated: Vec<(String, Vec<usize>)>,
    /// Set once a call has recorded a launch above the threshold.
    gate_declined: AtomicBool,
    pub(crate) core: NestCore,
}

/// A map's one kernel (see [`map_nest`]).
pub(crate) struct MapNestPlan {
    pub(crate) core: NestCore,
    /// The first map dim the kernel covers: 0 for a whole-map kernel, which
    /// runs whole launches and tiles; otherwise the interpreted rows of
    /// the dims before it launch it.
    pub(crate) start: usize,
}

/// A worker's thread-local transient overlays, when a launch has them.
type Locals<'a> = Option<&'a HashMap<String, SharedBuffer>>;

/// What one launch supplies besides the plan.
struct Launch<'a> {
    /// Launch-time constants by name (see [`NestAffine`]).
    consts: &'a dyn Fn(&str) -> Option<i64>,
    /// Environment the bodies' symbols resolve in.
    env: &'a Env,
    /// Thread-local transient overlays, resolved before `Ctx::bufs`.
    locals: Locals<'a>,
    /// Kernel index `k` of dim 0 stands for the iteration value
    /// `origin + k·step`, so launches and rows on any step grid run the
    /// unit-step kernel loop.
    origin: i64,
    step: i64,
    /// The launch's interpreted tiers combine atomically where the kernel
    /// combines plainly (see [`NestCore::launch_exclusive`]).
    atomic: bool,
}

impl<'a> Launch<'a> {
    /// A collapsed loop's launch: kernel index `k` is the iteration where
    /// the variable is `v0 + k·step`, and the symbols are the constants.
    fn of_loop(
        consts: &'a dyn Fn(&str) -> Option<i64>,
        symbols: &'a Env,
        v0: i64,
        step: i64,
    ) -> Launch<'a> {
        Launch {
            consts,
            env: symbols,
            locals: None,
            origin: v0,
            step,
            atomic: false,
        }
    }
}

/// Where one stream output's staged pushes go.
struct StreamSink<'a> {
    queue: &'a Mutex<VecDeque<f64>>,
    /// First staging slot of this stream.
    at: usize,
}

/// Marshalled launch arguments, shared by every call of one launch (only
/// the `[lo0, hi0)` range varies per call).
pub(crate) struct NestArgs<'a> {
    func: NestFn,
    bufs: Vec<*mut f64>,
    geo: Vec<i64>,
    /// Where the length table starts in `geo`.
    lens_at: usize,
    syms: Vec<f64>,
    bnd: Vec<i64>,
    /// Staging for stream pushes (`STAGE` slots per stream), owned by the
    /// launch and pointed at by the stream ports.
    stage: Option<SharedBuffer>,
    streams: Vec<StreamSink<'a>>,
    /// Most points per call (0 = the whole range in one call).
    chunk: i64,
    /// Whether dim-0 tiles are provably write-disjoint (every output's
    /// dim-0 term dominates the reach of all inner dims), making parallel
    /// tile dispatch bitwise order-independent.
    pub(crate) parallel_ok: bool,
}

// The raw buffer pointers alias the executor's `SharedBuffer`s, whose
// aliasing discipline (disjoint tiles / race-checked WCR) is established
// by the launch validation before any tile runs.
unsafe impl Send for NestArgs<'_> {}
unsafe impl Sync for NestArgs<'_> {}

// --- builder -----------------------------------------------------------------

struct NestBuilder<'c, 's> {
    ctx: &'c Ctx<'s>,
    /// The launch-invariant bindings, safe to bake into cached plans.
    env0: &'c Env,
    /// Names every compile site carries as launch-time constants.
    muts: &'c BTreeSet<String>,
    /// Global dim names, outermost first (`dims[0]` = tile dimension).
    dims: Vec<String>,
    /// Dims enclosing the body element being added, outermost first (a
    /// collapsed loop's variable, its inner loops' and the symbols its
    /// edges assign in scope; empty for standalone maps, whose dims are
    /// all their own).
    outer: Vec<usize>,
    bounds: Vec<(NestAffine, NestAffine)>,
    /// See [`NestCore::steps`].
    steps: Vec<i64>,
    /// See [`NestCore::conds`].
    conds: Vec<NestAffine>,
    /// Dims of each map a collapsed loop absorbs although the scheduler
    /// could run it in parallel (see [`LoopNestPlan::gated`]).
    gated: Vec<(String, Vec<usize>)>,
    /// Symbols a collapsed loop's edges assign: no body reads one as a
    /// symbol, and no bound or index reads one outside its scope.
    assigned: BTreeSet<String>,
    loaded: Vec<LoadedBound>,
    ports: Vec<NestPort>,
    calls: Vec<NestCall>,
    body: Vec<NestItem>,
    syms: Option<Vec<String>>,
    rows: Vec<MapLowering>,
    /// Whether map states must pass the serial-collapse gate (true for
    /// state-machine loops, whose body the interpreter runs serially).
    serial_gate: bool,
    /// Whether stream outputs are admitted (one-dimensional map kernels
    /// only: they mirror the affine VM loop, which appends a row's pushes
    /// once it has run).
    streams_ok: bool,
    /// See [`NestCore::exclusive`].
    exclusive: bool,
    /// See [`NestCore::combined`].
    combined: Vec<usize>,
    /// Scope-local scalars of a generic map body, and which of them a
    /// point tasklet has written so far (see `add_generic_body`).
    locals: Vec<String>,
    written: Vec<String>,
    /// Dynamic-range connectors bound by the body's loaded bounds: names a
    /// body must not read as symbols.
    dyn_conns: Vec<String>,
    /// Whether an index may carry terms evaluated once per launch (see
    /// [`NestAffine`]): only in a whole-map kernel, whose launch-time
    /// constants are fixed for every call of a launch — not a collapsed
    /// loop, whose kernel steps its variable.
    launch_terms: bool,
}

impl<'c, 's> NestBuilder<'c, 's> {
    /// A builder whose sites carry every mutable interstate symbol as a
    /// launch-time constant (the state-machine-level sites).
    fn over_interstate(ctx: &'c Ctx<'s>, serial_gate: bool) -> Self {
        NestBuilder::new(ctx, &ctx.inv.env0, &ctx.inv.muts, serial_gate)
    }

    fn new(ctx: &'c Ctx<'s>, env0: &'c Env, muts: &'c BTreeSet<String>, serial_gate: bool) -> Self {
        NestBuilder {
            ctx,
            env0,
            muts,
            dims: Vec::new(),
            outer: Vec::new(),
            bounds: Vec::new(),
            steps: Vec::new(),
            conds: Vec::new(),
            gated: Vec::new(),
            assigned: BTreeSet::new(),
            loaded: Vec::new(),
            ports: Vec::new(),
            calls: Vec::new(),
            body: Vec::new(),
            syms: None,
            rows: Vec::new(),
            serial_gate,
            streams_ok: false,
            exclusive: false,
            combined: Vec::new(),
            locals: Vec::new(),
            written: Vec::new(),
            dyn_conns: Vec::new(),
            launch_terms: false,
        }
    }

    /// Whether the builder builds a collapsed loop, whose edges assign at
    /// least its variable.
    fn collapsing(&self) -> bool {
        !self.assigned.is_empty()
    }

    /// A new dim named `name`, which no dim of `scope` may already name.
    fn alloc_dim(&mut self, name: &str, scope: &[usize]) -> Result<usize, Decline> {
        if scope.iter().any(|&d| self.dims[d] == name) {
            return Err(structure(format!("shadowed iteration variable `{name}`")));
        }
        self.dims.push(name.to_string());
        self.steps.push(1);
        Ok(self.dims.len() - 1)
    }

    /// The compile site for a body element enclosed by `scope` dims.
    fn site(&self, scope: &[usize]) -> Site {
        let mut names: Vec<String> = scope.iter().map(|&d| self.dims[d].clone()).collect();
        let mut dim_of: Vec<Option<usize>> = scope.iter().map(|&d| Some(d)).collect();
        for m in self.muts {
            if !names.iter().any(|n| n == m) {
                names.push(m.clone());
                dim_of.push(None);
            }
        }
        Site { names, dim_of }
    }

    /// The nest loops step by one over untiled ranges.
    fn check_unit_step(&self, r: &SymRange, site: &Site) -> Result<(), Decline> {
        if !matches!(solve(&r.step, &site.names, self.env0), Solved::Const(1)) {
            return Err(nonaffine("non-unit map step"));
        }
        if !matches!(solve(&r.tile, &site.names, self.env0), Solved::Const(1)) {
            return Err(nonaffine("tiled map range"));
        }
        Ok(())
    }

    /// `(lo, hi)` of a range as affine forms over the site.
    fn affine_bounds(
        &self,
        r: &SymRange,
        site: &Site,
    ) -> Result<(NestAffine, NestAffine), Decline> {
        Ok((self.bound(&r.start, site)?, self.bound(&r.end, site)?))
    }

    /// A loop bound as an affine form over the site, decomposed exactly
    /// (see [`Expr::affine_in`]): a bound that clamps, divides or wraps a
    /// name of the site (`min(t + 8, N)`) is declined.
    fn bound(&self, e: &Expr, site: &Site) -> Result<NestAffine, Decline> {
        NestAffine::from_solved(&solve(e, &site.names, self.env0), site)
            .ok_or_else(|| nonaffine("non-affine map bound"))
    }

    /// A scope-local scalar may only be read once a point tasklet of the
    /// same iteration has written it (see `add_generic_body`).
    fn check_local_read(&self, data: &str) -> Result<(), Decline> {
        if self.locals.iter().any(|l| l == data) && !self.written.iter().any(|w| w == data) {
            return Err(structure(format!(
                "scope-local `{data}` read before a point tasklet writes it"
            )));
        }
        Ok(())
    }

    fn loaded_dims(&self) -> Vec<usize> {
        self.loaded.iter().map(|l| l.dim).collect()
    }

    fn add_port(
        &mut self,
        data: &str,
        slot: Option<usize>,
        w: &WindowPlan,
        site: &Site,
    ) -> Result<usize, Decline> {
        let window = || body(format!("non-scalar memlet window on `{data}`"));
        let (addr, kind) = match w {
            WindowPlan::Scalar(sv) => (
                NestAffine::from_solved(sv, site)
                    .ok_or_else(|| nonaffine("symbolic memlet offset"))?,
                PortKind::Affine,
            ),
            // One element at an index that is not affine in the site's
            // names: the sum of its dims' forms, each admitted with
            // launch-evaluated terms where the site allows them.
            WindowPlan::Dynamic(subset) if element(subset) => {
                let strides = crate::copy::desc_strides(self.ctx, data, self.env0)
                    .map_err(|_| nonaffine("symbolic strides"))?;
                if strides.len() != subset.dims.len() {
                    return Err(window());
                }
                let mut addr = NestAffine::constant(0);
                for (r, &stride) in subset.dims.iter().zip(&strides) {
                    let a = NestAffine::from_expr(&r.start, site, self.env0, self.launch_terms)
                        .map_err(nonaffine)?;
                    addr.add_scaled(&a, stride)
                        .ok_or_else(|| nonaffine("memlet offset overflows"))?;
                }
                (addr, PortKind::Affine)
            }
            WindowPlan::Full => (NestAffine::constant(0), PortKind::Whole),
            // A constant one-element window (how scalar containers are
            // addressed) is the element at its offset.
            WindowPlan::Window {
                dims,
                tile: 1,
                strides,
            } => {
                let mut off = 0i64;
                for (d, (s, e, _)) in dims.iter().enumerate() {
                    match (s, e) {
                        (Solved::Const(s), Solved::Const(e)) if e - s == 1 => {
                            off += s * strides.get(d).copied().unwrap_or(1);
                        }
                        _ => return Err(window()),
                    }
                }
                (NestAffine::constant(off), PortKind::Affine)
            }
            _ => return Err(window()),
        };
        let clamped = addr.reads_any(&self.loaded_dims());
        self.ports.push(NestPort {
            data: data.to_string(),
            slot,
            addr,
            kind,
            clamped,
        });
        Ok(self.ports.len() - 1)
    }

    fn push_call(
        &mut self,
        bt: Arc<BodyTasklet>,
        modes: Vec<JitOutMode>,
        site: &Site,
    ) -> Result<usize, Decline> {
        // The enclosing dims are C loop variables, frozen per launch in
        // `syms` — a body reading one as a symbol would see the launch-time
        // value instead of the per-point value. So are the dynamic-range
        // connectors a loaded bound stands for.
        for s in &bt.prog.symbols {
            let is_dim = site
                .names
                .iter()
                .zip(&site.dim_of)
                .any(|(n, d)| d.is_some() && n == s);
            if is_dim || self.dyn_conns.contains(s) || self.assigned.contains(s) {
                return Err(body(format!(
                    "body reads iteration variable `{s}` as a symbol"
                )));
            }
        }
        // `emit_vm_body` indexes `syms` by each program's own symbol
        // positions, so every body that reads one must share one table.
        if !bt.prog.symbols.is_empty() {
            match &self.syms {
                None => self.syms = Some(bt.prog.symbols.clone()),
                Some(t) if *t == bt.prog.symbols => {}
                Some(_) => return Err(body("differing symbol tables across nest tasklets")),
            }
        }
        let mut ins = Vec::with_capacity(bt.ins.len());
        for p in &bt.ins {
            if p.stream {
                return Err(body("stream input"));
            }
            self.check_local_read(&p.data)?;
            ins.push(self.add_port(&p.data, p.slot, &p.window, site)?);
        }
        let mut outs = Vec::with_capacity(bt.outs.len());
        for ((o, mode), conn) in bt.outs.iter().zip(&modes).zip(&bt.prog.outputs) {
            if self.locals.contains(&o.data) {
                // Only a plain store from a point tasklet, once per point,
                // reproduces the per-iteration zeroing of the local.
                if *mode != JitOutMode::Write || self.written.contains(&o.data) {
                    return Err(structure(format!(
                        "scope-local `{}` written more than once or combined",
                        o.data
                    )));
                }
                self.written.push(o.data.clone());
            }
            let port = match mode {
                JitOutMode::Stream => {
                    if !self.streams_ok {
                        return Err(body("stream output"));
                    }
                    let pushes = pushes_to(&bt.prog.body, conn);
                    if pushes > STAGE {
                        return Err(body("too many pushes per point"));
                    }
                    self.ports.push(NestPort {
                        data: o.data.clone(),
                        slot: None,
                        addr: NestAffine::constant(0),
                        kind: PortKind::Stream { pushes },
                        clamped: false,
                    });
                    self.ports.len() - 1
                }
                JitOutMode::Log(_) if !matches!(o.window, WindowPlan::Full) => {
                    return Err(body("write log into a partial window"));
                }
                _ => self.add_port(&o.data, o.slot, &o.window, site)?,
            };
            if matches!(mode, JitOutMode::Log(_) | JitOutMode::Stream) {
                self.exclusive = true;
            }
            if o.wcr.is_some() || *mode == JitOutMode::Stream {
                self.combined.push(port);
            }
            outs.push(port);
        }
        self.calls.push(NestCall {
            bt,
            ins,
            outs,
            modes,
        });
        Ok(self.calls.len() - 1)
    }

    /// Adds one state of a collapsed loop body: its top-level point
    /// tasklets and all-tasklet map scopes, in `StatePlan::order`, the
    /// order `exec_state` runs them in.
    fn add_state(&mut self, sid: StateId) -> Result<(), Decline> {
        let state = self.ctx.sdfg.state(sid);
        let splan = state_plan(self.ctx, sid)?;
        for &n in &splan.order {
            if splan.tree.scope_of(n).is_some() {
                continue;
            }
            match state.graph.node(n) {
                Node::Access { .. } => check_access(state, n)?,
                Node::Tasklet { .. } => self.add_point_tasklet(sid, n)?,
                Node::MapEntry(_) => self.add_map(sid, n, state, &splan, &HashMap::new())?,
                Node::MapExit { .. } => {}
                _ => return Err(structure("unsupported node kind in loop body")),
            }
        }
        Ok(())
    }

    /// A top-level tasklet executed once per dim-0 iteration.
    fn add_point_tasklet(&mut self, sid: StateId, n: NodeId) -> Result<(), Decline> {
        let site = self.site(&self.outer.clone());
        let bt = compile_body_tasklet(self.ctx, sid, n, &mut Solver::new(&site.names, self.env0))
            .map_err(|e| body(e.to_string()))?;
        let mut modes = point_modes(&bt)?;
        for (o, m) in bt.outs.iter().zip(&mut modes) {
            // A scope-local scalar is zeroed before every iteration, which
            // is exactly the seed of a plain store.
            if self.locals.contains(&o.data) && *m == JitOutMode::ReadModifyWrite {
                *m = JitOutMode::Write;
            }
        }
        let idx = self.push_call(Arc::new(bt), modes, &site)?;
        self.body.push(NestItem::Call(idx));
        Ok(())
    }

    /// Adds a map scope nested under the builder's outer dims. `dyn_ports`
    /// maps the scope's dynamic-range connectors to the ports holding
    /// their values: a range bound that is exactly one of them becomes a
    /// bound the kernel loads when entering the loop.
    fn add_map(
        &mut self,
        sid: StateId,
        entry: NodeId,
        state: &State,
        splan: &StatePlan,
        dyn_ports: &HashMap<String, usize>,
    ) -> Result<(), Decline> {
        let Node::MapEntry(scope) = state.graph.node(entry) else {
            return Err(structure("not a map entry"));
        };
        if !matches!(
            scope.schedule,
            Schedule::CpuMulticore | Schedule::Sequential
        ) {
            return Err(structure(format!(
                "unsupported schedule {:?}",
                scope.schedule
            )));
        }
        if scope.params.is_empty() || scope.params.len() != scope.ranges.len() {
            return Err(structure("malformed map ranges"));
        }
        for e in state.graph.in_edges(entry) {
            let df = state.graph.edge(e);
            let dynamic = df
                .dst_conn
                .as_deref()
                .is_some_and(|c| !c.starts_with("IN_") && !dyn_ports.contains_key(c));
            if dynamic && !df.memlet.is_empty() {
                return Err(structure("dynamic-range connector"));
            }
        }
        let children: Vec<NodeId> = splan
            .order
            .iter()
            .copied()
            .filter(|&n| splan.tree.scope_of(n) == Some(entry))
            .collect();
        if children.is_empty()
            || children
                .iter()
                .any(|&n| !matches!(state.graph.node(n), Node::Tasklet { .. }))
        {
            return Err(body("map body is not straight-line tasklets"));
        }
        let d_base = self.dims.len();
        let mut sc = self.outer.clone();
        for p in &scope.params {
            sc.push(self.alloc_dim(p, &sc)?);
        }
        for (m, r) in scope.ranges.iter().enumerate() {
            let d = d_base + m;
            let mut sc = self.outer.clone();
            sc.extend(d_base..d);
            let site = self.site(&sc);
            self.check_unit_step(r, &site)?;
            let loaded_port = |e: &Expr| match e {
                Expr::Sym(s) => dyn_ports.get(s).copied(),
                _ => None,
            };
            let (lo_port, hi_port) = (loaded_port(&r.start), loaded_port(&r.end));
            let range = if lo_port.is_some() || hi_port.is_some() {
                if d == 0 {
                    return Err(nonaffine("loaded bound on the tile dimension"));
                }
                let affine = |e: &Expr, port: Option<usize>| match port {
                    Some(_) => Ok(NestAffine::constant(0)),
                    None => self.bound(e, &site),
                };
                (affine(&r.start, lo_port)?, affine(&r.end, hi_port)?)
            } else {
                self.affine_bounds(r, &site)?
            };
            // A loaded dim's extent is unknown at launch, so no other
            // bound may depend on it.
            let loaded = self.loaded_dims();
            if range.0.reads_any(&loaded) || range.1.reads_any(&loaded) {
                return Err(nonaffine("bound depends on a loaded-bound dimension"));
            }
            for (hi, port) in [(false, lo_port), (true, hi_port)] {
                if let Some(port) = port {
                    self.loaded.push(LoadedBound { dim: d, hi, port });
                }
            }
            if d > 0 {
                self.bounds.push(range);
            }
        }
        let mut sc = self.outer.clone();
        sc.extend(d_base..d_base + scope.params.len());
        let site = self.site(&sc);
        let mut bts = Vec::with_capacity(children.len());
        for &c in &children {
            let bt =
                compile_body_tasklet(self.ctx, sid, c, &mut Solver::new(&site.names, self.env0))
                    .map_err(|e| body(e.to_string()))?;
            bts.push(Arc::new(bt));
        }
        if self.serial_gate {
            // Collapse absorbs the map into one serial native call, so it
            // is only admissible when the interpreter would also have run
            // it serially: Sequential schedule, or a WCR output that is not
            // an affine element moving with the chunk dimension — the
            // condition that makes the write atomic and fails the
            // scheduler's determinism gate, forcing the serial path. A map
            // with no WCR output is admitted too, gated per launch on its
            // size (see [`LoopNestPlan::gated`]); serial, it writes what
            // its tiles would.
            let p0 = self.outer.len();
            let wcr = |bt: &Arc<BodyTasklet>| bt.outs.iter().any(|o| o.wcr.is_some());
            let moves = |w: &WindowPlan| matches!(w, WindowPlan::Scalar(sv) if sv.coeff(p0).is_some_and(|c| c != 0));
            let serial = scope.schedule == Schedule::Sequential
                || bts
                    .iter()
                    .any(|bt| bt.outs.iter().any(|o| o.wcr.is_some() && !moves(&o.window)));
            if !serial && (!self.collapsing() || bts.iter().any(wcr)) {
                return Err(parallel_profitable(&scope.label));
            }
            if !serial {
                let dims = (d_base..d_base + scope.params.len()).collect();
                self.gated.push((scope.label.clone(), dims));
            }
        }
        let innermost_pos = self.outer.len() + scope.params.len() - 1;
        let mut items = Vec::new();
        if bts.len() == 1 {
            let bt = bts.into_iter().next().expect("one tasklet");
            let last = scope.params.len() - 1;
            let inner = (scope.params[last].as_str(), &scope.ranges[last]);
            let modes =
                innermost_modes(&bt, innermost_pos, self.loaded.is_empty().then_some(inner))?;
            items.push(NestItem::Call(self.push_call(bt, modes, &site)?));
        } else {
            for bt in bts {
                let modes = point_modes(&bt)?;
                items.push(NestItem::Call(self.push_call(bt, modes, &site)?));
            }
        }
        for d in (d_base..d_base + scope.params.len()).rev() {
            if d == 0 {
                // The kernel's own tile loop iterates dim 0.
                continue;
            }
            items = vec![NestItem::Loop {
                dim: d,
                step: 1,
                body: items,
            }];
        }
        self.body.extend(items);
        self.rows.push(MapLowering {
            state: sid.0,
            node: entry.0,
            label: scope.label.clone(),
            tier: "jit",
            jit_reason: None,
            serial_reason: None,
        });
        Ok(())
    }

    /// Adds the body of a generic map scope under the builder's outer
    /// dims: point tasklets, scope-local scalars and exactly one inner map,
    /// in the interpreter's (topological) order. Each scope-local scalar
    /// must be written by one point tasklet before anything reads it — the
    /// interpreter zeroes it per iteration, which the plain store's zero
    /// seed reproduces. The inner map's dynamic-range connectors read
    /// element ports, so their values load when its loop is entered.
    fn add_generic_body(
        &mut self,
        sid: StateId,
        children: &[NodeId],
        local_transients: &[String],
    ) -> Result<(), Decline> {
        let ctx = self.ctx;
        let state = ctx.sdfg.state(sid);
        let splan = state_plan(ctx, sid)?;
        for name in local_transients {
            let desc = ctx
                .sdfg
                .desc(name)
                .ok_or_else(|| structure(format!("no container `{name}`")))?;
            let mut size = 1i64;
            for d in desc.shape() {
                let n = d
                    .eval(self.env0)
                    .map_err(|_| nonaffine("symbolic local shape"))?;
                size = size.saturating_mul(n);
            }
            if size != 1 || matches!(desc, sdfg_core::desc::DataDesc::Stream(_)) {
                return Err(structure(format!("scope-local `{name}` is not a scalar")));
            }
        }
        self.locals = local_transients.to_vec();
        let mut inner = false;
        for &c in children {
            match state.graph.node(c) {
                Node::Tasklet { .. } => self.add_point_tasklet(sid, c)?,
                Node::Access { data, .. } => {
                    if !self.locals.contains(data) {
                        return Err(structure(format!("access to `{data}` in map body")));
                    }
                    check_access(state, c)?;
                }
                Node::MapEntry(_) if inner => {
                    return Err(structure("map body holds more than one map"));
                }
                Node::MapEntry(_) => {
                    inner = true;
                    let site = self.site(&self.outer.clone());
                    let mut dyn_ports = HashMap::new();
                    for e in state.graph.in_edges(c) {
                        let df = state.graph.edge(e);
                        let Some(conn) = df.dst_conn.as_deref() else {
                            continue;
                        };
                        if conn.starts_with("IN_") || df.memlet.is_empty() {
                            continue;
                        }
                        let data = df.memlet.data_name();
                        self.check_local_read(data)?;
                        let mut solver = Solver::new(&site.names, self.env0);
                        let w = plan_window(ctx, data, &df.memlet.subset, &mut solver, false)
                            .map_err(|e| body(e.to_string()))?;
                        let slot = ctx.buf_index.get(data).copied();
                        let port = self.add_port(data, slot, &w, &site)?;
                        if self.ports[port].kind != PortKind::Affine {
                            return Err(nonaffine("dynamic-range connector reads a window"));
                        }
                        dyn_ports.insert(conn.to_string(), port);
                        self.dyn_conns.push(conn.to_string());
                    }
                    self.add_map(sid, c, state, &splan, &dyn_ports)?;
                }
                Node::MapExit { .. } => {}
                _ => return Err(structure("unsupported node kind in map body")),
            }
        }
        if !inner {
            return Err(structure("map body holds no inner map"));
        }
        Ok(())
    }

    /// Emits the kernel and requests its compile; `label` names the site in
    /// fallback records.
    fn finish(self, label: String) -> Result<NestCore, Decline> {
        let NestBuilder {
            dims,
            bounds,
            steps,
            conds,
            loaded,
            ports,
            calls,
            body: items,
            syms,
            rows,
            exclusive,
            combined,
            ..
        } = self;
        if calls.is_empty() {
            return Err(body("empty nest"));
        }
        let ndims = dims.len();
        let mut streams = Vec::new();
        for c in &calls {
            for (&p, m) in c.outs.iter().zip(&c.modes) {
                if *m == JitOutMode::Stream {
                    streams.push(p);
                }
            }
        }
        if streams.len() > MAX_STREAMS {
            return Err(body("too many stream outputs"));
        }
        let tasklets: Vec<NestTasklet<'_>> = calls
            .iter()
            .map(|c| NestTasklet {
                prog: &c.bt.prog,
                ins: c.ins.clone(),
                outs: c
                    .outs
                    .iter()
                    .zip(&c.modes)
                    .map(|(&port, &mode)| NestOut { port, mode })
                    .collect(),
            })
            .collect();
        let of_kind = |f: &dyn Fn(&NestPort) -> bool| -> Vec<usize> {
            (0..ports.len()).filter(|&p| f(&ports[p])).collect()
        };
        let whole = of_kind(&|p| p.kind == PortKind::Whole);
        let loaded_dims = loaded.iter().map(|l| l.dim).collect();
        let spec = NestSpec {
            ndims,
            nports: ports.len(),
            tasklets,
            body: items,
            clamped: of_kind(&|p| p.clamped),
            whole,
            loaded,
            reads: ports
                .iter()
                .map(|p| p.addr.dims.iter().map(|&(d, _)| d).collect())
                .collect(),
            containers: ports
                .iter()
                .map(|p| ports.iter().position(|q| q.data == p.data).unwrap_or(0))
                .collect(),
        };
        let src = emit_nest_kernel(&spec).map_err(body)?;
        drop(spec);
        let kernel = crate::jit::get_or_compile(&src)?;
        Ok(NestCore {
            ndims,
            ports,
            bounds,
            steps,
            conds,
            loaded_dims,
            calls,
            streams,
            exclusive,
            combined,
            syms: syms.unwrap_or_default(),
            kernel,
            label,
            declined: AtomicBool::new(false),
            shared_declined: AtomicBool::new(false),
            rows,
        })
    }
}

/// The structural plan of a state (shared plan, else derived).
fn state_plan(ctx: &Ctx, sid: StateId) -> Result<Arc<StatePlan>, Decline> {
    Ok(match ctx.plan.state(sid.0) {
        Some(p) => p,
        None => {
            let built = StatePlan::build(ctx.sdfg.state(sid), &ctx.inv.muts).map_err(structure)?;
            ctx.plan.insert_state(sid.0, built)
        }
    })
}

/// Rejects access nodes whose edges the interpreter would execute as
/// copies (`exec_access`): container-to-container out-edges and
/// local-storage writes from a scope entry.
fn check_access(state: &State, n: NodeId) -> Result<(), Decline> {
    let data = state.graph.node(n).access_data().unwrap_or_default();
    for e in state.graph.out_edges(n) {
        let df = state.graph.edge(e);
        if df.memlet.is_empty() {
            continue;
        }
        if matches!(
            state.graph.node(state.graph.edge_dst(e)),
            Node::Access { .. }
        ) {
            return Err(structure("container-to-container copy in nest body"));
        }
    }
    for e in state.graph.in_edges(n) {
        let df = state.graph.edge(e);
        if df.memlet.is_empty() {
            continue;
        }
        if state.graph.node(state.graph.edge_src(e)).is_scope_entry()
            && df.memlet.data_name() != data
        {
            return Err(structure("local-storage copy in nest body"));
        }
    }
    Ok(())
}

fn wcr_op(w: &Wcr) -> Result<JitWcrOp, Decline> {
    match w {
        Wcr::Sum => Ok(JitWcrOp::Sum),
        Wcr::Product => Ok(JitWcrOp::Product),
        Wcr::Min => Ok(JitWcrOp::Min),
        Wcr::Max => Ok(JitWcrOp::Max),
        Wcr::Custom(_) => Err(body("custom WCR")),
    }
}

/// The mode of a stream or write-log output, or `None` for a memory
/// port.
fn staged_mode(o: &crate::tasklet::OutPortPlan) -> Result<Option<JitOutMode>, Decline> {
    if o.stream {
        return Ok(Some(JitOutMode::Stream));
    }
    if !o.log {
        return Ok(None);
    }
    let w = o
        .wcr
        .as_ref()
        .ok_or_else(|| body("write log without WCR"))?;
    Ok(Some(JitOutMode::Log(wcr_op(w)?)))
}

/// Output modes for the sole tasklet of a map scope. Every mode computes
/// the interpreter's bits, so the choice is for speed: a body that is one
/// assignment of a value computed without reading its output stores
/// plainly, and folds a WCR output invariant in the innermost dimension
/// (at `innermost_pos`) in a register when no input reads a whole
/// container (whose self-checked reads could leave the loop early) and
/// every read of the output's container [`misses`] the written element
/// while the innermost parameter sweeps its range (else a point would not
/// see what the earlier ones combined). `inner` is that parameter and its
/// range, `None` where a read may be clamped (a loaded bound), which admits
/// no read of the output's container. Whether a combine may run
/// non-atomically is the launch's call (see `NestCore::launch_exclusive`).
fn innermost_modes(
    bt: &BodyTasklet,
    innermost_pos: usize,
    inner: Option<(&str, &SymRange)>,
) -> Result<Vec<JitOutMode>, Decline> {
    if bt.outs.is_empty() {
        return Err(body("no output ports"));
    }
    let sole = sole_assignment(&bt.prog.body, &bt.prog.outputs).is_some();
    let mut modes = Vec::with_capacity(bt.outs.len());
    for o in &bt.outs {
        if let Some(m) = staged_mode(o)? {
            modes.push(m);
            continue;
        }
        let mode = match &o.wcr {
            None if sole => JitOutMode::Write,
            // The VM seeds plain scalar outputs from memory.
            None => JitOutMode::ReadModifyWrite,
            Some(w) => {
                let op = wcr_op(w)?;
                let coeff = match &o.window {
                    WindowPlan::Scalar(sv) => sv.coeff(innermost_pos),
                    _ => None,
                };
                let private = bt.ins.iter().all(|p| {
                    let unseen = p.data != o.data
                        || inner.is_some_and(|(param, r)| misses(&p.subset, &o.subset, param, r));
                    unseen && !matches!(p.window, WindowPlan::Full)
                });
                if sole && coeff == Some(0) && private {
                    JitOutMode::Accumulate(op)
                } else {
                    JitOutMode::CombinePerPoint(op)
                }
            }
        };
        modes.push(mode);
    }
    Ok(modes)
}

/// Output modes for a tasklet the interpreter executes through
/// `run_tasklet_point` (top-level tasklets; every tasklet of a multi-body
/// map): always the VM protocol — plain outputs are seeded from memory,
/// WCR outputs combine per point.
fn point_modes(bt: &BodyTasklet) -> Result<Vec<JitOutMode>, Decline> {
    if bt.outs.is_empty() {
        return Err(body("no output ports"));
    }
    let mut modes = Vec::with_capacity(bt.outs.len());
    for o in &bt.outs {
        modes.push(match (staged_mode(o)?, &o.wcr) {
            (Some(m), _) => m,
            (None, None) => JitOutMode::ReadModifyWrite,
            (None, Some(w)) => JitOutMode::CombinePerPoint(wcr_op(w)?),
        });
    }
    Ok(modes)
}

// --- state-machine loop recognition ------------------------------------------

/// Whether an interstate name is a pure symbol: a container-backed or
/// stream-length name would make a collapsed loop's decisions diverge from
/// the interpreter's per-iteration re-evaluation.
fn hygienic(sdfg: &Sdfg, s: &str) -> bool {
    !sdfg.data.contains_key(s) && !s.starts_with("len_")
}

/// The constant step of loop `l`, and the bound its guard compares the
/// variable with as an exclusive end in the step's direction: the loop runs
/// while `var < end` for a positive step and while `var > end` for a
/// negative one (`var <= e` is `var < e + 1`, `var >= e` is `var > e - 1`).
fn loop_range(l: &Loop) -> Result<(i64, Expr), Decline> {
    let (op, e) = match &l.cond {
        BoolExpr::Cmp(op, Expr::Sym(v), e) if *v == l.var => (*op, e),
        BoolExpr::Cmp(op, e, Expr::Sym(v)) if *v == l.var => (flip(*op), e),
        BoolExpr::Cmp(..) => return Err(structure("back edge steps a different symbol")),
        _ => return Err(structure("guard is not a comparison of the loop variable")),
    };
    let step = match l
        .update
        .affine_in(std::slice::from_ref(&l.var), &Env::new())
    {
        Ok((s, c)) if c == [1] && s != 0 => s,
        _ => {
            return Err(nonaffine(format!(
                "non-unit loop increment `{}` is not a constant step",
                l.update
            )))
        }
    };
    let end = match (op, step > 0) {
        (CmpOp::Lt, true) | (CmpOp::Gt, false) => e.clone(),
        (CmpOp::Le, true) => e.clone() + Expr::int(1),
        (CmpOp::Ge, false) => e.clone() - Expr::int(1),
        _ => {
            return Err(structure(format!(
                "guard `{}` does not bound a step of {step}",
                l.cond
            )))
        }
    };
    Ok((step, end))
}

/// `b op a` as `a op' b`.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        eq_or_ne => eq_or_ne,
    }
}

/// `!(a op b)` as `a op' b`.
fn negate(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
    }
}

/// Adds every symbol the edges inside `regions` assign to `out`: edge
/// assignments, inner loop variables and exit assignments.
fn collect_assigned(regions: &[Region], out: &mut BTreeSet<String>) {
    let names = |a: &[(String, Expr)]| a.iter().map(|(v, _)| v.clone()).collect::<Vec<_>>();
    for r in regions {
        match r {
            Region::State(_, a) => out.extend(names(a)),
            Region::Loop(l) => {
                out.insert(l.var.clone());
                out.extend(names(&l.exit_assigns));
                collect_assigned(&l.body, out);
            }
            Region::Branch(b) => {
                for Arm(a, body) in [&b.then, &b.els] {
                    out.extend(names(a));
                    collect_assigned(body, out);
                }
            }
        }
    }
}

/// In order: `Some(true)` when one of `assigns` reads `sym` before any
/// assigns it, `Some(false)` when one assigns it first, `None` otherwise.
fn assigns_read(assigns: &[(String, Expr)], sym: &str) -> Option<bool> {
    assigns.iter().find_map(|(v, e)| {
        if e.has_symbol(sym) {
            Some(true)
        } else {
            (v == sym).then_some(false)
        }
    })
}

/// Whether a state may read `sym`: in a memlet, a scope's range, a nested
/// SDFG's symbol mapping, or — by name, conservatively — a tasklet's code.
fn state_reads(state: &State, sym: &str) -> bool {
    let mut read = BTreeSet::new();
    for n in state.graph.node_ids() {
        match state.graph.node(n) {
            Node::MapEntry(m) => m.ranges.iter().for_each(|r| r.collect_symbols(&mut read)),
            Node::ConsumeEntry(c) => c.num_pes.collect_symbols(&mut read),
            Node::NestedSdfg { symbol_mapping, .. } => symbol_mapping
                .values()
                .for_each(|e| e.collect_symbols(&mut read)),
            Node::Tasklet { code, .. } => {
                let mut words = code.split(|c: char| !(c.is_alphanumeric() || c == '_'));
                if words.any(|w| w == sym) {
                    return true;
                }
            }
            _ => {}
        }
    }
    for e in state.graph.edge_ids() {
        let m = &state.graph.edge(e).memlet;
        for s in std::iter::once(&m.subset).chain(&m.other_subset) {
            s.dims.iter().for_each(|r| r.collect_symbols(&mut read));
        }
        m.volume.collect_symbols(&mut read);
    }
    read.contains(sym)
}

/// Whether `sym` may be read after loop `l` exits before an edge assigns
/// it: on the exit edge, in a state reachable from the exit, or on an edge
/// between them.
fn read_after(sdfg: &Sdfg, l: &Loop, sym: &str) -> bool {
    if let Some(read) = assigns_read(&l.exit_assigns, sym) {
        return read;
    }
    let mut seen = BTreeSet::new();
    let mut todo = vec![l.exit];
    while let Some(sid) = todo.pop() {
        if !seen.insert(sid.0) {
            continue;
        }
        if state_reads(sdfg.state(sid), sym) {
            return true;
        }
        for e in sdfg.graph.out_edges(sid) {
            let edge = sdfg.graph.edge(e);
            if edge.condition.free_symbols().contains(sym) {
                return true;
            }
            match assigns_read(&edge.assignments, sym) {
                Some(true) => return true,
                Some(false) => {}
                None => todo.push(sdfg.graph.edge_dst(e)),
            }
        }
    }
    false
}

impl NestBuilder<'_, '_> {
    /// The items `f` adds, which go into a loop or branch arm rather than
    /// the current body.
    fn nested(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<(), Decline>,
    ) -> Result<Vec<NestItem>, Decline> {
        let outer = std::mem::take(&mut self.body);
        let r = f(self);
        let items = std::mem::replace(&mut self.body, outer);
        r.map(|()| items)
    }

    /// `e` as an affine form in the dims in scope and launch-time
    /// constants, reading no container or stream length.
    fn affine_at(&self, e: &Expr, what: &str) -> Result<NestAffine, Decline> {
        if let Some(s) = e
            .free_symbols()
            .iter()
            .find(|s| !hygienic(self.ctx.sdfg, s))
        {
            return Err(nonaffine(format!(
                "{what} `{e}` reads container or stream length `{s}`"
            )));
        }
        let site = self.site(&self.outer);
        NestAffine::from_solved(&solve(e, &site.names, self.env0), &site)
            .ok_or_else(|| nonaffine(format!("{what} `{e}` is not affine in the loop's symbols")))
    }

    /// Opens dim `name` over `[lo, hi)` on `step` in the current scope.
    fn open_dim(
        &mut self,
        name: &str,
        lo: NestAffine,
        hi: NestAffine,
        step: i64,
    ) -> Result<usize, Decline> {
        let d = self.alloc_dim(name, &self.outer.clone())?;
        self.bounds.push((lo, hi));
        self.steps[d] = step;
        self.outer.push(d);
        Ok(d)
    }

    /// Closes dim `d`, opened by [`NestBuilder::open_dim`], around `body`.
    fn close_dim(&mut self, d: usize, body: Vec<NestItem>) {
        self.outer.pop();
        let step = self.steps[d];
        self.body.push(NestItem::Loop { dim: d, step, body });
    }

    /// Adds `regions` — a collapsed loop's body, or part of it — in order.
    /// The assignments on a region's out edge bind over the regions after
    /// it (see [`NestBuilder::bind_then`]).
    fn add_regions(&mut self, regions: &[Region]) -> Result<(), Decline> {
        let Some((first, rest)) = regions.split_first() else {
            return Ok(());
        };
        let assigns: &[(String, Expr)] = match first {
            Region::State(sid, assigns) => {
                self.add_state(*sid)?;
                assigns
            }
            Region::Loop(l) => {
                self.add_loop(l)?;
                &l.exit_assigns
            }
            Region::Branch(b) => {
                self.add_branch(b)?;
                &[]
            }
        };
        self.bind_then(assigns, |b| b.add_regions(rest))
    }

    /// Binds each of `assigns` in turn, then adds what `rest` adds. An
    /// assigned symbol becomes a C local: a dim of its own that iterates
    /// once, at its value — affine in the dims in scope and launch-time
    /// constants — around everything after the edge that assigned it.
    fn bind_then(
        &mut self,
        assigns: &[(String, Expr)],
        rest: impl FnOnce(&mut Self) -> Result<(), Decline>,
    ) -> Result<(), Decline> {
        let Some(((sym, e), more)) = assigns.split_first() else {
            return rest(self);
        };
        let value = self.affine_at(e, "assignment")?;
        let mut next = value.clone();
        next.base = value
            .base
            .checked_add(1)
            .ok_or_else(|| nonaffine("assignment overflows"))?;
        let d = self.open_dim(sym, value, next, 1)?;
        let body = self.nested(|b| b.bind_then(more, rest))?;
        self.close_dim(d, body);
        Ok(())
    }

    /// Adds an inner loop as a dim from its init to its bound, on its
    /// constant step.
    fn add_loop(&mut self, l: &Loop) -> Result<(), Decline> {
        let init = l
            .init
            .as_ref()
            .ok_or_else(|| structure(format!("inner loop `{}` has no init assignment", l.var)))?;
        let (step, end) = loop_range(l)?;
        // The C loop reads its bound once; the interpreter re-reads the
        // guard every iteration.
        let mut inner = BTreeSet::from([l.var.clone()]);
        collect_assigned(&l.body, &mut inner);
        if let Some(s) = end.free_symbols().into_iter().find(|s| inner.contains(s)) {
            return Err(nonaffine(format!(
                "loop bound `{end}` reads `{s}`, which its loop assigns"
            )));
        }
        let lo = self.affine_at(init, "loop start")?;
        let hi = self.affine_at(&end, "loop bound")?;
        let d = self.open_dim(&l.var, lo, hi, step)?;
        let body = self.nested(|b| b.add_regions(&l.body))?;
        self.close_dim(d, body);
        Ok(())
    }

    /// Adds a two-way branch: its state, then `if` around the arms, each
    /// arm's edge assignments binding over its regions.
    fn add_branch(&mut self, br: &Branch) -> Result<(), Decline> {
        self.add_state(br.state)?;
        let cond = self.cond(&br.cond)?;
        let arm = |b: &mut Self, Arm(assigns, regions): &Arm| {
            b.nested(|b| b.bind_then(assigns, |b| b.add_regions(regions)))
        };
        let then = arm(self, &br.then)?;
        let els = arm(self, &br.els)?;
        self.body.push(NestItem::If { cond, then, els });
        Ok(())
    }

    /// A branch condition as a condition row compared with zero: one
    /// comparison, or its negation, of expressions affine in the dims in
    /// scope and launch-time constants.
    fn cond(&mut self, c: &BoolExpr) -> Result<NestCond, Decline> {
        let (op, lhs, rhs) = match c {
            BoolExpr::Cmp(op, l, r) => (*op, l, r),
            BoolExpr::Not(inner) => match &**inner {
                BoolExpr::Cmp(op, l, r) => (negate(*op), l, r),
                _ => {
                    return Err(structure(format!(
                        "branch condition `{c}` is not one comparison"
                    )))
                }
            },
            _ => {
                return Err(structure(format!(
                    "branch condition `{c}` is not one comparison"
                )))
            }
        };
        let mut row = self.affine_at(lhs, "branch condition")?;
        row.add_scaled(&self.affine_at(rhs, "branch condition")?, -1)
            .ok_or_else(|| nonaffine("branch condition overflows"))?;
        self.conds.push(row);
        Ok(NestCond {
            row: self.conds.len() - 1,
            op,
        })
    }
}

/// The collapsible loop at `guard` (see the module doc for the shapes it
/// admits), built at a visit of its guard (see [`inner_loops_settled`])
/// whose `symbols` decide whether a map the scheduler could run in
/// parallel is small enough (see [`LoopNestPlan::gated`]): one that is
/// not declines the loop before its kernel is requested.
fn build_loop_nest(
    ctx: &Ctx,
    guard: StateId,
    label: String,
    symbols: &Env,
) -> Result<LoopNestPlan, Decline> {
    let sdfg = ctx.sdfg;
    let l = loop_at(sdfg, guard).map_err(structure)?;
    let (step, end) = loop_range(&l)?;
    if !hygienic(sdfg, &l.var) {
        return Err(structure("loop variable shadows a container"));
    }
    let mut assigned = BTreeSet::from([l.var.clone()]);
    collect_assigned(&l.body, &mut assigned);
    if end
        .free_symbols()
        .iter()
        .any(|s| assigned.contains(s) || !hygienic(sdfg, s))
    {
        return Err(nonaffine(
            "loop bound reads a container or a symbol the loop assigns",
        ));
    }
    // The host writes back only the loop variable.
    if let Some(s) = assigned
        .iter()
        .find(|s| **s != l.var && read_after(sdfg, &l, s))
    {
        return Err(structure(format!(
            "symbol `{s}` assigned in the loop is read after it"
        )));
    }
    let muts: BTreeSet<String> = ctx.inv.muts.difference(&assigned).cloned().collect();
    let mut b = NestBuilder::new(ctx, &ctx.inv.env0, &muts, true);
    b.assigned = assigned;
    let d0 = b.alloc_dim(&l.var, &[])?;
    b.steps[d0] = step;
    b.outer = vec![d0];
    b.add_regions(&l.body)?;
    let gated = std::mem::take(&mut b.gated);
    if let Some((v0, n)) = remaining(&l.var, step, &end, symbols) {
        let consts = |name: &str| symbols.get(name).copied();
        let launch = Launch::of_loop(&consts, symbols, v0, step);
        if let Some(map) = parallel_launch(&gated, &b.bounds, &b.steps, &[], &launch, n) {
            return Err(parallel_profitable(map));
        }
    }
    let core = b.finish(label)?;
    Ok(LoopNestPlan {
        var: l.var,
        step,
        end,
        gated,
        gate_declined: AtomicBool::new(false),
        core,
    })
}

/// The value `var` has at this visit and the iterations left from it, when
/// the loop's exit value stays representable.
fn remaining(var: &str, step: i64, end: &Expr, symbols: &Env) -> Option<(i64, i64)> {
    let v0 = *symbols.get(var)?;
    let end = end.eval(symbols).ok()?;
    let (span, s) = if step > 0 {
        (end as i128 - v0 as i128, step as i128)
    } else {
        (v0 as i128 - end as i128, -(step as i128))
    };
    let n = i64::try_from((span.max(0) + s - 1) / s).ok()?;
    v0.checked_add(n.checked_mul(step)?)?;
    Some((v0, n))
}

/// The first map in `gated` (label, dims) the steal scheduler could run
/// in parallel on a call of `n` iterations of a nest with these `bounds`,
/// `steps` and `loaded` dims: one whose largest launch, every dim counted
/// over the call's intervals, is not below the parallel threshold at the
/// tuner's default per-point cost. Without intervals, the first map.
fn parallel_launch<'g>(
    gated: &'g [(String, Vec<usize>)],
    bounds: &[(NestAffine, NestAffine)],
    steps: &[i64],
    loaded: &[usize],
    launch: &Launch,
    n: i64,
) -> Option<&'g str> {
    if gated.is_empty() {
        return None;
    }
    let ivals = intervals(bounds, steps, loaded, launch, 0, n);
    let serial = |dims: &[usize]| {
        ivals.as_deref().is_some_and(|iv| {
            let points = dims.iter().fold(1u128, |acc, &d| {
                let (a, b) = iv[d];
                acc.saturating_mul((b - a + 1).max(1) as u128)
            });
            crate::sched::below_parallel_threshold(points.min(u64::MAX as u128) as u64)
        })
    };
    gated
        .iter()
        .find(|(_, dims)| !serial(dims))
        .map(|(label, _)| label.as_str())
}

/// Collapse hook, called by the drive loop after executing `cur` (when
/// the JIT tier is enabled): if `cur` is the guard of a recognized loop,
/// run every remaining iteration as one native call and advance the loop
/// variable to its exit value, `v0 + trips·step` as the interpreter leaves
/// it, returning the loop it ran. On any decline — structural, compile, or
/// launch-time, including a kernel still compiling or a map grown past the
/// serial bound — it returns `None` and the interpreter path proceeds
/// unchanged; a loop whose kernel arrives mid-run collapses from its next
/// guard visit on. A two-way branch's empty state, which has a guard's
/// edge pair, is no loop and records nothing.
///
/// Under a run deadline the loop runs as consecutive `[lo0, hi0)` slices
/// of the same kernel — bitwise the same execution order — with the
/// deadline checked between slices, so a collapsed loop cannot outlive
/// its budget by more than one slice. When profiling times the guard
/// state, each call records a `loop <var> [jit]` span with its points and
/// native calls.
pub(crate) fn try_collapse_loop(
    ctx: &Ctx,
    cur: StateId,
    worker: &mut Worker,
    revisit: bool,
) -> Result<Option<Arc<LoopNestPlan>>, ExecError> {
    // Loop guards are empty states with exactly two successors (body and
    // exit); everything else leaves immediately — without recording a
    // fallback, so init/exit glue states do not pollute the ledger.
    if ctx.sdfg.state(cur).graph.node_count() != 0 || ctx.sdfg.graph.out_degree(cur) != 2 {
        return Ok(None);
    }
    // A pending loop re-decides at each visit of its guard.
    if worker.pending_loop == Some(cur) {
        worker.pending_loop = None;
    }
    let cached = ctx.plan.loop_nest(cur.0);
    let plan = match cached {
        Some(Ok(p)) => p,
        Some(Err(_)) => return Ok(None),
        None if !inner_loops_settled(ctx, cur, worker, revisit) => return Ok(None),
        None => {
            let label = format!("loop@{}", ctx.sdfg.state(cur).label);
            let res = build_loop_nest(ctx, cur, label.clone(), &worker.env).map(Arc::new);
            match &res {
                Err(d) if d.detail == NO_BACK_EDGE => {}
                Err(d) => d.record(ctx.chash, &label),
                Ok(_) => {}
            }
            match ctx.plan.insert_loop_nest(cur.0, res) {
                Ok(p) => p,
                Err(_) => return Ok(None),
            }
        }
    };
    let symbols = &worker.env;
    let Some((v0, n)) = remaining(&plan.var, plan.step, &plan.end, symbols) else {
        return Ok(None);
    };
    if n == 0 {
        return Ok(None);
    }
    let consts = |name: &str| symbols.get(name).copied();
    let launch = Launch::of_loop(&consts, symbols, v0, plan.step);
    if !plan.serial_at(ctx, &launch, n) {
        return Ok(None);
    }
    let Some(args) = marshal(ctx, &plan.core, &launch, 0, n) else {
        if plan.core.compiled().is_none() {
            worker.pending_loop = Some(cur);
        }
        return Ok(None);
    };
    let timed = ctx.prof.as_ref().map(|p| (p, p.state_mode(cur.0)));
    let t0 = match timed {
        Some((p, ProfMode::Timer)) => Some(p.collector.now_ns()),
        _ => None,
    };
    let (mut npts, mut calls) = (0i64, 0u64);
    let mut done = 0;
    let mut ran = Ok(());
    match ctx.cfg.deadline {
        None => {
            ran = run_nest(&plan.core, &args, 0, n).map(|(p, c)| {
                (npts, calls, done) = (p, c, n);
            });
        }
        Some(deadline) => {
            // Slice length adapts towards ~1 ms of work per call: short
            // enough to honour millisecond budgets, long enough that the
            // clock reads vanish next to the kernel.
            let mut len = 1i64;
            while done < n && std::time::Instant::now() < deadline {
                let hi = done.saturating_add(len).min(n);
                let t0 = std::time::Instant::now();
                let (p, c) = match run_nest(&plan.core, &args, done, hi) {
                    Ok(r) => r,
                    Err(e) => {
                        ran = Err(e);
                        break;
                    }
                };
                npts += p;
                calls += c;
                done = hi;
                let us = t0.elapsed().as_micros();
                if us < 500 {
                    len = len.saturating_mul(2);
                } else if us > 2000 {
                    len = (len / 2).max(1);
                }
            }
        }
    }
    drop(args);
    count_calls(ctx, npts as u64, calls);
    if let Some((p, mode)) = timed.filter(|&(_, m)| m != ProfMode::Off) {
        let key = SpanKey::Loop(cur.0);
        p.collector
            .register_label(key, format!("{} [jit]", plan.var));
        let dur = t0.map(|t| p.collector.now_ns().saturating_sub(t));
        if let Some(wp) = worker.prof.as_mut() {
            wp.loops
                .entry(cur.0)
                .or_default()
                .add(dur, npts as u64, calls);
            if let (Some(start_ns), Some(dur_ns), ProfMode::Timer) = (t0, dur, mode) {
                wp.timeline.push(Span {
                    key,
                    worker: wp.worker,
                    start_ns,
                    dur_ns,
                });
            }
        }
    }
    ran?;
    // The interpreter leaves the variable one step past its last
    // iteration; the normal edge scan then takes the exit edge and applies
    // its assignments.
    worker.env.insert(plan.var.clone(), v0 + done * plan.step);
    if done < n {
        return Err(ExecError::Timeout(ctx.cfg.deadline_ms));
    }
    Ok(Some(plan))
}

/// Whether the loop at `guard`, which has no plan yet, may build one: once
/// every loop inside it has built its own, or the guard's first visit in
/// the run is over (`revisit`: a loop the first iteration did not reach
/// may be one no run reaches). Plans build inside out, and the compile
/// queue runs in request order, so a cold run collapses the inner loops
/// while the outer kernel compiles.
fn inner_loops_settled(ctx: &Ctx, guard: StateId, worker: &mut Worker, revisit: bool) -> bool {
    let inner = worker.inner_loops.entry(guard).or_insert_with(|| {
        let mut inner = Vec::new();
        if let Ok(l) = loop_at(ctx.sdfg, guard) {
            inner_guards(&l.body, &mut inner);
        }
        inner
    });
    revisit || inner.iter().all(|g| ctx.plan.loop_nest(g.0).is_some())
}

/// Adds the guards of the loops in `regions`, at any depth, to `out`.
fn inner_guards(regions: &[Region], out: &mut Vec<StateId>) {
    for r in regions {
        match r {
            Region::State(..) => {}
            Region::Loop(l) => {
                out.push(l.guard);
                inner_guards(&l.body, out);
            }
            Region::Branch(b) => {
                inner_guards(&b.then.1, out);
                inner_guards(&b.els.1, out);
            }
        }
    }
}

impl LoopNestPlan {
    /// Whether this call may run the maps the plan gates (see
    /// [`LoopNestPlan::gated`]) serially; the first call that may not
    /// records the decline.
    fn serial_at(&self, ctx: &Ctx, launch: &Launch, n: i64) -> bool {
        let core = &self.core;
        let (bounds, steps, loaded) = (&core.bounds, &core.steps, &core.loaded_dims);
        let Some(map) = parallel_launch(&self.gated, bounds, steps, loaded, launch, n) else {
            return true;
        };
        if !self.gate_declined.swap(true, Ordering::Relaxed) {
            parallel_profitable(map).record(ctx.chash, &core.label);
        }
        false
    }
}

// --- map kernels -------------------------------------------------------------

impl NestBuilder<'_, '_> {
    /// Allocates map dims `params` over `ranges`: dim 0 takes whatever
    /// range and step each call passes, every later dim steps by one
    /// between bounds affine in the dims before it.
    fn add_map_dims(&mut self, params: &[String], ranges: &[SymRange]) -> Result<(), Decline> {
        for p in params {
            let own: Vec<usize> = (0..self.dims.len()).collect();
            self.alloc_dim(p, &own)?;
        }
        for (d, r) in ranges.iter().enumerate().skip(1) {
            let site = self.site(&(0..d).collect::<Vec<_>>());
            self.check_unit_step(r, &site)?;
            let range = self.affine_bounds(r, &site)?;
            self.bounds.push(range);
        }
        Ok(())
    }

    /// Nests the body in the loops of the map's dims `1..nd`, adds map
    /// `pkey`'s lowering row and emits the kernel.
    fn finish_map(mut self, pkey: (u32, u32), label: &str, nd: usize) -> Result<NestCore, Decline> {
        let mut items = std::mem::take(&mut self.body);
        for d in (1..nd).rev() {
            items = vec![NestItem::Loop {
                dim: d,
                step: 1,
                body: items,
            }];
        }
        self.body = items;
        self.rows.push(MapLowering {
            state: pkey.0,
            node: pkey.1,
            label: label.to_string(),
            tier: "jit",
            jit_reason: None,
            serial_reason: None,
        });
        self.finish(label.to_string())
    }
}

/// Builds the kernel of a single-tasklet map `plan` (body tasklet `tnode`)
/// over its dims `start..`. A launch-time constant is any name in
/// `consts`: the interstate symbols, the enclosing map parameters, the
/// dynamic-range connectors and the map's own dims before `start`, all
/// fixed for one call.
fn build_tasklet_nest(
    ctx: &Ctx,
    pkey: (u32, u32),
    plan: &MapPlan,
    tnode: NodeId,
    consts: &BTreeSet<String>,
    start: usize,
) -> Result<NestCore, Decline> {
    let mut b = NestBuilder::new(ctx, &ctx.inv.env0, consts, false);
    b.add_map_dims(&plan.params[start..], &plan.ranges[start..])?;
    let nd = b.dims.len();
    let site = b.site(&(0..nd).collect::<Vec<_>>());
    let bt = compile_body_tasklet(
        ctx,
        NodeId(pkey.0),
        tnode,
        &mut Solver::new(&site.names, b.env0),
    )
    .map_err(|e| body(e.to_string()))?;
    // The launch-time constants of a whole-map kernel are fixed for every
    // call of a launch, so an index may read them in any form; those of a
    // suffix kernel change per prefix row, which evaluates nothing for it.
    b.launch_terms = start == 0;
    // Staging holds one call's pushes only when a call runs one point per
    // dim-0 index.
    b.streams_ok = nd == 1;
    let last = plan.params.len() - 1;
    let modes = innermost_modes(&bt, nd - 1, Some((&plan.params[last], &plan.ranges[last])))?;
    let idx = b.push_call(Arc::new(bt), modes, &site)?;
    b.body = vec![NestItem::Call(idx)];
    b.finish_map(pkey, &plan.label, nd)
}

/// Builds a map's kernel: for a single-tasklet body, over the longest
/// suffix of its dims the builder lowers (the innermost dim's decline
/// says why none does); for a generic body (see `add_generic_body`), over
/// the whole map. The launching worker stands in the map, `base` entries
/// into its parameter stack.
fn build_map_nest(
    ctx: &Ctx,
    pkey: (u32, u32),
    plan: &MapPlan,
    worker: &Worker,
    base: usize,
) -> Result<MapNestPlan, Decline> {
    let (children, local_transients, writebacks) = match &plan.body {
        MapBody::Tasklets(ts, _) => {
            let tnode = ts[0].0;
            let mut consts = ctx.inv.muts.clone();
            consts.extend(worker.pstack[worker.nconst..base].iter().cloned());
            consts.extend(plan.dyn_edges.iter().map(|de| de.conn.clone()));
            let mut declined = structure("map without parameters");
            for (start, p) in plan.params.iter().enumerate() {
                match build_tasklet_nest(ctx, pkey, plan, tnode, &consts, start) {
                    Ok(core) => return Ok(MapNestPlan { core, start }),
                    Err(d) => declined = d,
                }
                consts.insert(p.clone());
            }
            return Err(declined);
        }
        MapBody::Generic {
            children,
            local_transients,
            writebacks,
            ..
        } => (children, local_transients, writebacks),
    };
    let mut b = NestBuilder::over_interstate(ctx, false);
    b.add_map_dims(&plan.params, &plan.ranges)?;
    if !writebacks.is_empty() {
        return Err(structure("write-back of a scope-local container"));
    }
    b.outer = (0..plan.params.len()).collect();
    // The serial launch combines plainly (see `NestCore::exclusive`); the
    // inner map must be serial in the interpreter too.
    b.exclusive = true;
    b.serial_gate = true;
    b.add_generic_body(NodeId(pkey.0), children, local_transients)?;
    let core = b.finish_map(pkey, &plan.label, plan.params.len())?;
    Ok(MapNestPlan { core, start: 0 })
}

/// The kernel of the map a worker is launching, `base` entries into its
/// parameter stack: a single-tasklet map's, or a generic body's on a
/// top-level launch. It is built (or its decline recorded) by the first
/// launch that requests a compile — a hot or `ungated` launch of a
/// single-tasklet map, any such launch of a generic body — and from then
/// on every launch asks it, the cold ones included: [`MapNestPlan::takes`]
/// and [`marshal`] decide each.
pub(crate) fn map_nest(
    ctx: &Ctx,
    plan: &MapPlan,
    pkey: (u32, u32),
    worker: &Worker,
    base: usize,
    ungated: bool,
) -> Option<Arc<MapNestPlan>> {
    let (wanted, requests) = match &plan.body {
        MapBody::Tasklets(ts, _) => (ts.len() == 1, ungated || worker.volume >= JIT_MIN_POINTS),
        MapBody::Generic { .. } => (base == worker.nconst && plan.dyn_edges.is_empty(), true),
    };
    // The kernel of a loop being compiled will run this map (see
    // `Worker::pending_loop`).
    let requests = requests && worker.pending_loop.is_none();
    if !ctx.cfg.jit || !wanted {
        return None;
    }
    match ctx.plan.map_nest(pkey) {
        Some(res) => res.ok(),
        None if !requests => None,
        None => {
            let res = build_map_nest(ctx, pkey, plan, worker, base).map(Arc::new);
            if let Err(d) = &res {
                d.record(ctx.chash, &plan.label);
            }
            ctx.plan.insert_map_nest(pkey, res).ok()
        }
    }
}

/// Whether a launch of a single-tasklet map whose plan compiled its body
/// as `bt` combines atomically where the kernel combines plainly: the race
/// analysis marked one of its WCR outputs atomic.
fn atomic_in(bt: &BodyTasklet) -> bool {
    bt.outs.iter().any(|o| o.atomic)
}

impl MapNestPlan {
    /// Whether a launch of `plan` may call this kernel wherever the
    /// kernel itself admits it: it has compiled and may run inside a
    /// parallel tile if `in_tile`, from a worker with `locals` (see
    /// [`NestCore::launch_exclusive`]). Only the checks of [`marshal`] on
    /// the launch's own values are left.
    pub(crate) fn takes(&self, plan: &MapPlan, in_tile: bool, locals: Locals) -> bool {
        let MapBody::Tasklets(ts, _) = &plan.body else {
            return false;
        };
        let shared = self.core.exclusive || atomic_in(&ts[0].1);
        matches!(self.core.compiled(), Some(Ok(_)))
            && (!shared || !in_tile || self.core.tile_private(locals))
    }
}

/// Launch-time constants of a kernel whose dim 0 sits at `at` in the
/// worker's parameter stack: the innermost stacked name below it (its
/// value at the worker's current point), else the worker's binding.
fn stack_consts<'w>(worker: &'w Worker, at: usize) -> impl Fn(&str) -> Option<i64> + Copy + 'w {
    let (pstack, point, env) = (&worker.pstack[..at], &worker.point, &worker.env);
    move |name| match pstack.iter().rposition(|p| p == name) {
        Some(i) => Some(point[i]),
        None => env.get(name).copied(),
    }
}

/// The launch hook of `exec_map`: runs a launch of `plan` over dim-0
/// values `d0 = (start, end, step)` on the map's kernel, one call for a
/// serial launch and one per tile of a parallel launch's `tiles`. `None`
/// leaves the launch to the interpreted paths — the kernel covers only a
/// suffix (the prefix rows launch it, see [`run_rows`]), or a launch-time
/// precondition failed — with the worker as they expect it. A generic
/// body's scope-local scalars are allocated as the interpreted path
/// allocates them (once per worker).
pub(crate) fn launch_map_nest(
    ctx: &Ctx,
    plan: &MapPlan,
    nest: &MapNestPlan,
    worker: &mut Worker,
    base: usize,
    d0: (i64, i64, i64),
    tiles: Option<(&TileSet, &Arc<SchedPool>)>,
) -> Option<Result<(), ExecError>> {
    let core = &nest.core;
    // Every launch records a kernel still compiling or failed, the
    // launches of a suffix kernel included.
    core.kernel(ctx.chash)?;
    if nest.start > 0 {
        return None;
    }
    let atomic = match &plan.body {
        MapBody::Tasklets(ts, _) => atomic_in(&ts[0].1),
        // A generic body's kernel is exclusive: serial launches only.
        MapBody::Generic { .. } if tiles.is_some() => return None,
        MapBody::Generic { .. } => {
            if let Err(e) = crate::cpu::alloc_locals(ctx, &plan.body, worker) {
                return Some(Err(e));
            }
            false
        }
    };
    let Some((tiles, pool)) = tiles else {
        return run_serial(ctx, core, worker, base, d0, atomic);
    };
    // Tiles run concurrently: the kernel may not combine where another
    // tile does, and its dim-0 tiles must be write-disjoint.
    let ranges = &tiles.ranges;
    if !core.launch_exclusive(ctx.chash, atomic, true, None) {
        return None;
    }
    let (d0s, d0e, d0st) = d0;
    let t0 = worker.tier_clock();
    let consts = stack_consts(worker, base);
    let launch = Launch {
        consts: &consts,
        env: &worker.env,
        locals: None,
        origin: d0s,
        step: d0st,
        atomic,
    };
    let n0 = ((d0e - d0s) + d0st - 1) / d0st;
    let args = marshal(ctx, core, &launch, 0, n0)?;
    if !args.parallel_ok {
        return None;
    }
    let (total, calls) = (AtomicI64::new(0), AtomicU64::new(0));
    let first_err: Mutex<Option<ExecError>> = Mutex::new(None);
    let tile_fn = |_slot: usize, t: usize| {
        let (lo, hi) = ranges[t];
        match run_nest(core, &args, (lo - d0s) / d0st, (hi - d0s) / d0st) {
            Ok((n, c)) => {
                total.fetch_add(n, Ordering::Relaxed);
                calls.fetch_add(c, Ordering::Relaxed);
            }
            Err(e) => {
                first_err.lock().get_or_insert(e);
            }
        }
    };
    pool.run(ranges.len(), &tile_fn, &ctx.stats);
    drop(args);
    let n = total.load(Ordering::Relaxed) as u64;
    count_on(worker, t0, n, calls.load(Ordering::Relaxed));
    Some(first_err.into_inner().map_or(Ok(()), Err))
}

/// Runs one row of the interpreted paths on the map's kernel: the
/// kernel's dim 0, at `at` in the worker's parameter stack, over values
/// `[s, e)` on step `st`, with the dims before it at the worker's current
/// point (a prefix row of a suffix kernel, or dim-0 values of a whole-map
/// kernel whose launch declined). `Ok(false)` leaves the row to the
/// interpreted tiers when a launch-time precondition fails (see
/// [`marshal`]); a fault the kernel reports is the interpreter's error.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_rows(
    ctx: &Ctx,
    nest: &MapNestPlan,
    bt: &BodyTasklet,
    worker: &mut Worker,
    at: usize,
    s: i64,
    e: i64,
    st: i64,
) -> Result<bool, ExecError> {
    if s >= e {
        return Ok(true);
    }
    match run_serial(ctx, &nest.core, worker, at, (s, e, st), atomic_in(bt)) {
        Some(r) => r.map(|()| true),
        None => Ok(false),
    }
}

/// One call of `core` over dim-0 values `[s, e)` on step `st`, on the
/// launching worker (see [`stack_consts`] for `at`), counted on it and
/// attributed to the JIT tier. `None` when [`marshal`] declines.
fn run_serial(
    ctx: &Ctx,
    core: &NestCore,
    worker: &mut Worker,
    at: usize,
    (s, e, st): (i64, i64, i64),
    atomic: bool,
) -> Option<Result<(), ExecError>> {
    let t0 = worker.tier_clock();
    let n = ((e - s) + st - 1) / st;
    let consts = stack_consts(worker, at);
    let launch = Launch {
        consts: &consts,
        env: &worker.env,
        locals: Some(&worker.locals),
        origin: s,
        step: st,
        atomic,
    };
    let args = marshal(ctx, core, &launch, 0, n)?;
    let (npts, calls) = match run_nest(core, &args, 0, n) {
        Ok(r) => r,
        Err(e) => return Some(Err(e)),
    };
    drop(args);
    count_on(worker, t0, npts as u64, calls);
    Some(Ok(()))
}

/// Counts `n` native points in `calls` calls on the launching worker and
/// attributes them, with the time since `t0`, to the JIT tier of the map
/// it stands in — the tiles of a parallel launch included, whose pool
/// threads keep no profile of their own.
fn count_on(worker: &mut Worker, t0: Option<(u64, u64)>, n: u64, calls: u64) {
    worker.st_points += n;
    worker.st_jit += n;
    worker.st_nest_calls += calls;
    worker.tier_record(t0, Tier::Jit);
}

/// Counts `n` native points in `calls` calls on the run's counters (a
/// collapsed loop, which no map's profile covers).
fn count_calls(ctx: &Ctx, n: u64, calls: u64) {
    let st = &ctx.stats;
    st.tasklet_points.fetch_add(n, Ordering::Relaxed);
    st.jit_points.fetch_add(n, Ordering::Relaxed);
    st.nest_calls.fetch_add(calls, Ordering::Relaxed);
}

// --- launch marshalling ------------------------------------------------------

/// An affine form with a resolved constant part: `(base, [(dim, coeff)])`.
type Lin = (i128, Vec<(usize, i128)>);

/// A launch's iteration space as the rows that bound each dim's values,
/// which [`Reach::extent`] substitutes innermost first.
struct Reach {
    /// Per dim `1..` (index `d - 1`), the forms of its lowest and highest
    /// value; `None` for a loaded dim.
    rows: Vec<Option<[Lin; 2]>>,
    /// Dim 0's lowest and highest value.
    first: (i128, i128),
}

impl Reach {
    fn new(core: &NestCore, launch: &Launch, first: (i128, i128)) -> Option<Reach> {
        let lin = |a: &NestAffine, shift: i128| -> Option<Lin> {
            let base = a.base_at(launch.consts, launch.env)? as i128 + shift;
            Some((base, a.dims.iter().map(|&(d, c)| (d, c as i128)).collect()))
        };
        let mut rows = Vec::with_capacity(core.bounds.len());
        for (d, (lo, hi)) in core.bounds.iter().enumerate().map(|(i, b)| (i + 1, b)) {
            rows.push(match core.loaded_dims.contains(&d) {
                true => None,
                false if core.steps[d] > 0 => Some([lin(lo, 0)?, lin(hi, -1)?]),
                false => Some([lin(hi, 1)?, lin(lo, 0)?]),
            });
        }
        Some(Reach { rows, first })
    }

    /// `[min, max]` of `form` (constant part `base`) over the launch's
    /// points. Each dim, innermost first, is replaced by the row of its
    /// lowest or highest value, whichever moves the form that way, and dim
    /// 0 ranges over its values: every point's value lies within, and a
    /// bound that reads an outer dim (`y[k - i - 1]` over `i < k`) keeps
    /// the range as tight as the points, where the per-dim box of
    /// [`intervals`] would not.
    fn extent(&self, form: &NestAffine, base: i128) -> (i128, i128) {
        let side = |high: bool| -> i128 {
            let mut f: Lin = (
                base,
                form.dims.iter().map(|&(d, c)| (d, c as i128)).collect(),
            );
            while let Some(&(d, c)) = f.1.iter().filter(|&&(d, _)| d > 0).max_by_key(|e| e.0) {
                f.1.retain(|&(e, _)| e != d);
                let Some(rows) = &self.rows[d - 1] else {
                    return if high { i128::MAX } else { i128::MIN };
                };
                let (b, dims) = &rows[usize::from((c > 0) == high)];
                f.0 = f.0.saturating_add(c.saturating_mul(*b));
                for &(e, k) in dims {
                    match f.1.iter_mut().find(|(x, _)| *x == e) {
                        Some((_, cc)) => *cc = cc.saturating_add(c.saturating_mul(k)),
                        None => f.1.push((e, c.saturating_mul(k))),
                    }
                }
            }
            let c0 = f.1.iter().map(|&(_, c)| c).sum::<i128>();
            let (a, b) = (
                c0.saturating_mul(self.first.0),
                c0.saturating_mul(self.first.1),
            );
            f.0.saturating_add(if high { a.max(b) } else { a.min(b) })
        };
        (side(false), side(true))
    }
}

/// Per-dim intervals `(min, max)` of iteration *values* over kernel indices
/// `[lo0, hi0)` of dim 0: dim d's bounds only read dims < d, so each
/// interval closes over the previous ones, and a dim on a negative step
/// runs from its lower row down to just above its upper one. A loaded
/// dim's interval is unknown; only clamped ports read it. `None` on an
/// unbound launch-time constant.
fn intervals(
    bounds: &[(NestAffine, NestAffine)],
    steps: &[i64],
    loaded: &[usize],
    launch: &Launch,
    lo0: i64,
    hi0: i64,
) -> Option<Vec<(i128, i128)>> {
    let value0 = |k: i64| launch.origin as i128 + k as i128 * launch.step as i128;
    let (first, last) = (value0(lo0), value0(hi0 - 1));
    let mut ivals = Vec::with_capacity(bounds.len() + 1);
    ivals.push((first.min(last), first.max(last)));
    for (d, (lo, hi)) in bounds.iter().enumerate().map(|(i, b)| (i + 1, b)) {
        if loaded.contains(&d) {
            ivals.push((0, 0));
            continue;
        }
        let lo_b = lo.base_at(launch.consts, launch.env)? as i128;
        let hi_b = hi.base_at(launch.consts, launch.env)? as i128;
        let (lo_min, lo_max) = lo.interval(lo_b, &ivals);
        let (hi_min, hi_max) = hi.interval(hi_b, &ivals);
        ivals.push(if steps[d] > 0 {
            (lo_min, (hi_max - 1).max(lo_min))
        } else {
            ((hi_min + 1).min(lo_max), lo_max)
        });
    }
    Some(ivals)
}

/// Resolves launch-time constants and validates the launch over kernel
/// indices `[lo0, hi0)` of dim 0: the kernel must have finished compiling
/// (and, if exclusive, the launch must run outside any parallel tile or
/// combine only into tile-private containers),
/// every affine port offset must stay in bounds over a conservative
/// superset of the iteration space (so the interpreter's defensive clamps
/// can never fire on an admitted launch), every symbol must be bound, and
/// the write-disjointness of dim-0 tiles is established for the parallel
/// path. Whole-container and clamped ports are the kernel's to check.
/// `None` falls back to the interpreter bitwise-identically.
fn marshal<'a>(
    ctx: &'a Ctx,
    core: &NestCore,
    launch: &Launch<'a>,
    lo0: i64,
    hi0: i64,
) -> Option<NestArgs<'a>> {
    let func = core.kernel(ctx.chash)?.func();
    let in_tile = crate::sched::in_pool_worker();
    if !core.launch_exclusive(ctx.chash, launch.atomic, in_tile, launch.locals) {
        return None;
    }
    let ndims = core.ndims;
    let Launch { origin, step, .. } = *launch;
    let ivals = intervals(
        &core.bounds,
        &core.steps,
        &core.loaded_dims,
        launch,
        lo0,
        hi0,
    )?;
    let reach = Reach::new(core, launch, ivals[0])?;
    let mut syms = Vec::with_capacity(core.syms.len());
    for s in &core.syms {
        syms.push((launch.consts)(s)? as f64);
    }
    // Rebases an affine form from dim-0 values onto kernel indices.
    let rebase = |base: i64, c0: i64| -> Option<(i64, i64)> {
        Some((
            base.checked_add(c0.checked_mul(origin)?)?,
            c0.checked_mul(step)?,
        ))
    };
    let (stage, chunk) = match core.streams.len() {
        0 => (None, 0),
        n => {
            let pushes = core.streams.iter().map(|&p| match core.ports[p].kind {
                PortKind::Stream { pushes } => pushes.max(1),
                _ => 1,
            });
            let chunk = (STAGE / pushes.max().unwrap_or(1)) as i64;
            (Some(SharedBuffer::new(vec![0.0; n * STAGE])), chunk)
        }
    };
    let mut streams = Vec::with_capacity(core.streams.len());
    let mut lens = Vec::new();
    let mut bufs = Vec::with_capacity(core.ports.len());
    let mut geo = Vec::with_capacity(core.ports.len() * (3 + ndims));
    for (p, port) in core.ports.iter().enumerate() {
        geo.push(p as i64);
        if let PortKind::Stream { .. } = port.kind {
            let stage = stage.as_ref()?;
            let at = streams.len() * STAGE;
            streams.push(StreamSink {
                queue: ctx.streams.get(&port.data)?,
                at,
            });
            // SAFETY: the staging buffer is owned by the launch and only
            // written inside kernel calls, below `STAGE` slots per stream.
            bufs.push(unsafe { stage.as_mut_slice() }.as_mut_ptr());
            geo.push(at as i64);
            geo.extend(std::iter::repeat_n(0, ndims));
            lens.push(STAGE as i64);
            continue;
        }
        let buf = match launch.locals.and_then(|l| l.get(&port.data)) {
            Some(b) => b,
            None => ctx.bufs.get(port.slot?)?,
        };
        lens.push(buf.len() as i64);
        let base = port.addr.base_at(launch.consts, launch.env)?;
        if port.kind == PortKind::Affine && !port.clamped {
            let (omin, omax) = reach.extent(&port.addr, base as i128);
            if omin < 0 || omax >= buf.len() as i128 {
                return None;
            }
        }
        // SAFETY: the pointer is only dereferenced inside kernel calls,
        // within the range validated above (or checked by the kernel).
        bufs.push(unsafe { buf.as_mut_slice() }.as_mut_ptr());
        let (base, c0) = rebase(base, port.addr.coeff(0))?;
        geo.push(base);
        geo.push(c0);
        for d in 1..ndims {
            geo.push(port.addr.coeff(d));
        }
    }
    // Only kernels that check or stage accesses themselves read the
    // length table; the others keep the geometry they always had.
    let lens_at = geo.len();
    if core
        .ports
        .iter()
        .any(|p| p.clamped || p.kind != PortKind::Affine)
    {
        geo.extend(lens);
    }
    // Bound rows per dim, then the condition rows.
    let mut bnd = vec![0i64; (2 * ndims + core.conds.len()) * (1 + ndims)];
    let bound_rows = (1..ndims)
        .filter(|d| !core.loaded_dims.contains(d))
        .flat_map(|d| {
            let (lo, hi) = &core.bounds[d - 1];
            [(2 * d, lo), (2 * d + 1, hi)]
        });
    let cond_rows = core
        .conds
        .iter()
        .enumerate()
        .map(|(c, a)| (2 * ndims + c, a));
    for (row, a) in bound_rows.chain(cond_rows) {
        let r = row * (1 + ndims);
        (bnd[r], bnd[r + 1]) = rebase(a.base_at(launch.consts, launch.env)?, a.coeff(0))?;
        for k in 1..ndims {
            bnd[r + 1 + k] = a.coeff(k);
        }
    }
    // Dim-0 tiles are write-disjoint, so their order is unobservable, when
    // every output is distinct along dim 0 over the launch's intervals.
    let span = |d: usize| ivals.get(d).map_or(i128::MAX, |&(x, y)| y - x);
    let parallel_ok = core.loaded_dims.is_empty()
        && core.calls.iter().all(|c| {
            c.outs
                .iter()
                .all(|&p| distinct_along(0, core.ports[p].addr.dims.iter().copied(), span))
        });
    Some(NestArgs {
        func,
        bufs,
        geo,
        lens_at,
        syms,
        bnd,
        stage,
        streams,
        chunk,
        parallel_ok,
    })
}

/// Runs the full inner nest for dim-0 kernel indices `[lo0, hi0)`: one
/// native call, or — for a kernel with stream outputs — consecutive calls
/// of at most `chunk` points, each appending its staged pushes to the
/// streams in order. Returns the tasklet executions and calls made. A
/// fault the kernel reports becomes the interpreter's error, and the
/// launch's pushes are withdrawn: the affine VM loop the kernel mirrors
/// appends a row's pushes only once the whole row has run.
fn run_nest(core: &NestCore, args: &NestArgs, lo0: i64, hi0: i64) -> Result<(i64, u64), ExecError> {
    let marks: Vec<usize> = args.streams.iter().map(|s| s.queue.lock().len()).collect();
    let mut status = [0i64; STATUS_STREAMS + MAX_STREAMS];
    let (mut npts, mut calls) = (0i64, 0u64);
    let mut lo = lo0;
    loop {
        let hi = match args.chunk {
            0 => hi0,
            c => lo.saturating_add(c).min(hi0),
        };
        status[STATUS_FAULT] = 0;
        // SAFETY: `marshal` validated every affine address the nest
        // reaches over a superset of `[lo0, hi0)`, and the kernel
        // range-checks the rest; the argument arrays outlive the call,
        // `syms` holds one value per program symbol and `status` one slot
        // per stream past the fault slots. Aliasing between ports is
        // allowed — the kernel takes no `restrict` and mirrors the
        // interpreted tiers' per-point read-then-write order.
        unsafe {
            (args.func)(
                args.bufs.as_ptr(),
                args.geo.as_ptr(),
                args.syms.as_ptr(),
                args.bnd.as_ptr(),
                lo,
                hi,
                status.as_mut_ptr(),
            )
        };
        npts += status[0];
        calls += 1;
        if status[STATUS_FAULT] != 0 {
            for (s, &m) in args.streams.iter().zip(&marks) {
                s.queue.lock().truncate(m);
            }
            return Err(core.fault(args, status[STATUS_FAULT], status[STATUS_INDEX]));
        }
        if let Some(stage) = &args.stage {
            let staged = stage.as_slice();
            for (k, s) in args.streams.iter().enumerate() {
                let n = status[STATUS_STREAMS + k] as usize;
                s.queue.lock().extend(&staged[s.at..s.at + n]);
            }
        }
        if hi >= hi0 {
            return Ok((npts, calls));
        }
        lo = hi;
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{Executor, RunConfig};
    use crate::{Bindings, Outputs, Session};
    use sdfg_core::node::MapScope;
    use sdfg_core::{DType, Memlet, Schedule, Sdfg, SdfgError, SymRange, Wcr};
    use sdfg_workloads::workload::Workload;

    /// One run's engine state over `w`'s bindings, on a private plan
    /// cache and buffer pool.
    fn executor(w: &Workload, nthreads: usize) -> Executor<'_> {
        Executor::new(
            &w.sdfg,
            sdfg_core::serialize::content_hash(&w.sdfg),
            RunConfig::private(nthreads),
            w.symbols.iter().cloned().collect(),
            w.arrays.clone(),
        )
    }

    fn bindings(w: &Workload) -> Bindings {
        let mut b = Bindings::new();
        for (s, v) in &w.symbols {
            b = b.symbol(s, *v);
        }
        for (n, d) in &w.arrays {
            b = b.array(n, d);
        }
        b
    }

    /// `hist[bin[i]] += 1` over an 8-bin histogram every point combines
    /// into: a write log into a container no worker owns.
    fn scatter(n: usize) -> Workload {
        let mut sdfg = Sdfg::new("scatter");
        sdfg.add_symbol("N");
        sdfg.add_array("bin", &["N"], DType::F64);
        sdfg.add_array("hist", &["8"], DType::F64);
        let sid = sdfg.add_state("main");
        let st = sdfg.state_mut(sid);
        let (src, dst) = (st.add_access("bin"), st.add_access("hist"));
        let mut m = MapScope::new("scan", vec!["i".into()], vec![SymRange::new(0, "N")]);
        m.schedule = Schedule::CpuMulticore;
        let (me, mx) = st.add_map(m);
        let t = st.add_tasklet("put", &["b"], &["out"], "out[int(b)] = 1");
        st.add_edge(src, None, me, Some("IN_bin"), Memlet::parse("bin", "0:N"));
        st.add_edge(me, Some("OUT_bin"), t, Some("b"), Memlet::parse("bin", "i"));
        let all = || Memlet::parse("hist", "0:8").with_wcr(Wcr::Sum);
        st.add_edge(t, Some("out"), mx, Some("IN_hist"), all().dynamic());
        st.add_edge(mx, Some("OUT_hist"), dst, None, all());
        sdfg.validate().expect("valid scatter sdfg");
        Workload::new("scatter", sdfg)
            .symbol("N", n as i64)
            .array("bin", (0..n).map(|i| (i % 8) as f64).collect())
            .array("hist", vec![0.0; 8])
            .check("hist")
    }

    /// A write-log kernel runs native when its launch is serial. From
    /// inside a parallel tile it runs when its log combines into a
    /// tile-private container (histogram's per-tile bins, in the tile
    /// worker's own `locals`), and declines with a ledger record when the
    /// log combines into a container another worker may combine into too
    /// (the scatter's bins), leaving the interpreted tiers to produce the
    /// same bits.
    #[test]
    fn exclusive_kernel_runs_in_a_tile_only_on_tile_private_targets() {
        if !crate::jit::env_enabled() || crate::jit::cc().is_none() {
            return;
        }
        let run = |w: &Workload, in_tile: bool| {
            let mut ex = executor(w, 1);
            let stats = if in_tile {
                crate::sched::as_pool_worker(|| ex.run())
            } else {
                ex.run()
            }
            .expect("program runs");
            (stats, ex.arrays["hist"].clone())
        };
        let (hist, scat) = (sdfg_workloads::kernels::histogram(64), scatter(4096));
        // Compile first, so the later runs see the kernels.
        run(&hist, false);
        run(&scat, false);
        crate::jit::wait_idle();
        let dir = std::env::temp_dir().join(format!("sdfg-exclusive-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ledger = dir.join("ledger.jsonl");
        sdfg_profile::ledger::set_path(Some(&ledger));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (w, private) in [(&hist, true), (&scat, false)] {
            let (serial, want) = run(w, false);
            let (tiled, got) = run(w, true);
            assert!(
                serial.jit_points > 0,
                "{}: serial launch stayed interpreted",
                w.name
            );
            assert_eq!(tiled.jit_points > 0, private, "{}: in-tile kernel", w.name);
            assert_eq!(bits(&got), bits(&want), "{}", w.name);
        }
        sdfg_profile::ledger::set_path(None);
        let text = std::fs::read_to_string(&ledger).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        let declined = |map: &str| {
            text.lines().any(|l| {
                l.contains("\"record\":\"jit_fallback\"")
                    && l.contains(&format!("\"map\":\"{map}\""))
                    && l.contains("inside a parallel tile")
            })
        };
        assert!(declined("scan"), "no decline recorded:\n{text}");
        assert!(!declined("pixels"), "tile-private log declined:\n{text}");
    }

    /// A run's outcome as the caller sees it: the checked arrays' bits, or
    /// the error's message.
    fn outcome(w: &Workload, r: Result<Outputs, SdfgError>) -> Result<Vec<u64>, String> {
        let out = r.map_err(|e| e.to_string())?;
        let mut bits = Vec::new();
        for name in &w.check {
            bits.extend(out.array(name).unwrap().iter().map(|x| x.to_bits()));
        }
        Ok(bits)
    }

    /// The interpreted tiers' outcome, and the steady JIT outcome (after
    /// the first run has requested the kernels and the compiles have
    /// finished).
    fn outcomes(w: &Workload) -> (Result<Vec<u64>, String>, Result<Vec<u64>, String>) {
        let session = |jit: bool| {
            Session::builder(w.sdfg.clone())
                .jit(jit)
                .nthreads(2)
                .build()
                .expect("session")
        };
        let off = outcome(w, session(false).run(bindings(w)));
        let s = session(true);
        let _ = s.run(bindings(w));
        crate::jit::wait_idle();
        (off, outcome(w, s.run(bindings(w))))
    }

    /// Query with a gather before the push: `w[k[i]]` faults at point `bad`.
    fn query_fault(n: usize, bad: usize) -> Workload {
        let mut sdfg = Sdfg::new("query_fault");
        sdfg.add_symbol("N");
        sdfg.add_array("col", &["N"], DType::F64);
        sdfg.add_array("k", &["N"], DType::F64);
        sdfg.add_array("w", &["N"], DType::F64);
        sdfg.add_stream("S", DType::F64);
        sdfg.add_array("count", &["1"], DType::F64);
        let sid = sdfg.add_state("filter");
        let st = sdfg.state_mut(sid);
        let (col, k, w) = (st.add_access("col"), st.add_access("k"), st.add_access("w"));
        let (cnt, s) = (st.add_access("count"), st.add_access("S"));
        let mut m = MapScope::new("scan", vec!["i".into()], vec![SymRange::new(0, "N")]);
        m.schedule = Schedule::CpuMulticore;
        let (me, mx) = st.add_map(m);
        let t = st.add_tasklet(
            "pred",
            &["x", "kk", "ww"],
            &["S_out", "c"],
            "v = ww[int(kk)]\nif x > 0:\n    S_out.push(x + v)\n    c = 1\nelse:\n    c = 0",
        );
        for (acc, name) in [(col, "col"), (k, "k"), (w, "w")] {
            let conn = format!("IN_{name}");
            st.add_edge(acc, None, me, Some(&conn), Memlet::parse(name, "0:N"));
        }
        let out_conn = |n: &str| format!("OUT_{n}");
        st.add_edge(
            me,
            Some(&out_conn("col")),
            t,
            Some("x"),
            Memlet::parse("col", "i"),
        );
        st.add_edge(
            me,
            Some(&out_conn("k")),
            t,
            Some("kk"),
            Memlet::parse("k", "i"),
        );
        st.add_edge(
            me,
            Some(&out_conn("w")),
            t,
            Some("ww"),
            Memlet::parse("w", "0:N").dynamic(),
        );
        st.add_edge(
            t,
            Some("S_out"),
            mx,
            Some("IN_S"),
            Memlet::parse("S", "0").dynamic(),
        );
        st.add_edge(
            mx,
            Some("OUT_S"),
            s,
            None,
            Memlet::parse("S", "0").dynamic(),
        );
        st.add_edge(
            t,
            Some("c"),
            mx,
            Some("IN_count"),
            Memlet::parse("count", "0").with_wcr(Wcr::Sum),
        );
        st.add_edge(
            mx,
            Some("OUT_count"),
            cnt,
            None,
            Memlet::parse("count", "0").with_wcr(Wcr::Sum),
        );
        sdfg.validate().expect("valid query_fault sdfg");
        let mut kv: Vec<f64> = (0..n).map(|i| ((i * 13) % n) as f64).collect();
        kv[bad] = (n + 7) as f64;
        Workload::new("query_fault", sdfg)
            .symbol("N", n as i64)
            .array("col", sdfg_workloads::workload::pseudo_random(n, 31))
            .array("k", kv)
            .array("w", sdfg_workloads::workload::pseudo_random(n, 37))
            .array("count", vec![0.0])
            .check("count")
    }

    /// A span that faults after pushing — past its first staged call — leaves
    /// the stream as the affine VM loop does: nothing of that span appended.
    #[test]
    fn faulting_span_appends_no_pushes() {
        if !crate::jit::env_enabled() || crate::jit::cc().is_none() {
            return;
        }
        let n = 10_000;
        let w = query_fault(n, 6_000);
        let run = |w: &Workload| {
            let mut ex = executor(w, 2);
            let err = ex.run().expect_err("the gather faults").to_string();
            (err, ex.streams["S"].len(), ex.arrays["count"][0])
        };
        run(&w);
        crate::jit::wait_idle();
        let (err, pushed, count) = run(&w);
        let (off, on) = outcomes(&w);
        let want = off.unwrap_err();
        assert!(
            want.contains("`ww`: index 10007 out of bounds (len 10000)"),
            "{want}"
        );
        assert_eq!(on, Err(want.clone()));
        assert!(want.ends_with(&err), "{err} vs {want}");
        assert_eq!(pushed, 0, "pushes of a failed span");
        // Every point before the fault combined its count, as in the VM loop.
        let before = w.arrays["col"][..6_000]
            .iter()
            .filter(|&&x| x > 0.0)
            .count();
        assert_eq!(count, before as f64, "count before the fault");
    }
}

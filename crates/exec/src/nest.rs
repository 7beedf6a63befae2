//! Map-nest JIT lowering: the one path from map bodies to native code.
//!
//! Everything that runs natively is a *nest* handed to `codegen::jit`'s
//! emitter and called through one ABI. Two sites build and launch nests:
//!
//! * **State-machine loops** (`try_collapse_loop`): a loop that
//!   `sdfg_codegen::statemachine::loop_at` recognizes at a guard state,
//!   admitted when its guard is `var < end`, its body a straight chain of
//!   single-map or point-tasklet states, and its step `var` by one.
//!   The whole loop — all iterations, all body states — collapses into
//!   one native call (sliced only when a run deadline is set), turning
//!   cholesky's ~253k interpreted transitions into a handful of calls.
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
//! outside any parallel tile.
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
    decode_fault, emit_nest_kernel, pushes_to, JitOutMode, JitWcrOp, LoadedBound, NestItem,
    NestOut, NestSpec, NestTasklet, STATUS_FAULT, STATUS_INDEX, STATUS_STREAMS,
};
use sdfg_codegen::statemachine::{loop_at, Region};
use sdfg_core::cond::{BoolExpr, CmpOp};
use sdfg_core::{Node, Schedule, State, StateId, Wcr};
use sdfg_graph::NodeId;
use sdfg_lang::recognize::sole_assignment;
use sdfg_lang::RuntimeError;
use sdfg_profile::Tier;
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
    /// Dims with a bound the kernel loads (see [`NestPort::clamped`]).
    loaded_dims: Vec<usize>,
    calls: Vec<NestCall>,
    /// Stream port per status slot, in the emitter's call-then-slot order.
    streams: Vec<usize>,
    /// The kernel combines plainly where the interpreter would combine
    /// atomically, or stages logs and streams: only a launch running
    /// serially outside any parallel tile may call it.
    exclusive: bool,
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
    /// combine into the same element. The first launch that may not
    /// records the decline.
    fn launch_exclusive(&self, chash: u64, atomic: bool, in_tile: bool) -> bool {
        if !(self.exclusive || atomic) || !in_tile {
            return true;
        }
        if !self.shared_declined.swap(true, Ordering::Relaxed) {
            structure("atomic combine inside a parallel tile").record(chash, &self.label);
        }
        false
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

/// A collapsible state-machine loop: guard state, loop variable, end
/// expression, compiled nest.
pub(crate) struct LoopNestPlan {
    pub(crate) var: String,
    pub(crate) end: Expr,
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

/// What one launch supplies besides the plan.
struct Launch<'a> {
    /// Launch-time constants by name (see [`NestAffine`]).
    consts: &'a dyn Fn(&str) -> Option<i64>,
    /// Environment the bodies' symbols resolve in.
    env: &'a Env,
    /// Thread-local transient overlays, resolved before `Ctx::bufs`.
    locals: Option<&'a HashMap<String, SharedBuffer>>,
    /// Kernel index `k` of dim 0 stands for the iteration value
    /// `origin + k·step`, so launches and rows on any step grid run the
    /// unit-step kernel loop.
    origin: i64,
    step: i64,
    /// The launch's interpreted tiers combine atomically where the kernel
    /// combines plainly (see [`NestCore::launch_exclusive`]).
    atomic: bool,
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
    /// Dims enclosing every body state (the loop variable for collapsed
    /// loops; empty for standalone maps, whose dims are all their own).
    outer: Vec<usize>,
    bounds: Vec<(NestAffine, NestAffine)>,
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
            loaded: Vec::new(),
            ports: Vec::new(),
            calls: Vec::new(),
            body: Vec::new(),
            syms: None,
            rows: Vec::new(),
            serial_gate,
            streams_ok: false,
            exclusive: false,
            locals: Vec::new(),
            written: Vec::new(),
            dyn_conns: Vec::new(),
            launch_terms: false,
        }
    }

    fn alloc_dim(&mut self, name: &str) -> Result<usize, Decline> {
        if self.dims.iter().any(|d| d == name) {
            return Err(structure(format!("shadowed iteration variable `{name}`")));
        }
        self.dims.push(name.to_string());
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
            if is_dim || self.dyn_conns.contains(s) {
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

    /// Adds one state of a collapsed loop body: a chain of point tasklets
    /// or a single all-tasklet map scope.
    fn add_state(&mut self, sid: StateId) -> Result<(), Decline> {
        let state = self.ctx.sdfg.state(sid);
        let splan = state_plan(self.ctx, sid)?;
        let mut tasklets = Vec::new();
        let mut entries = Vec::new();
        for &n in &splan.order {
            if splan.tree.scope_of(n).is_some() {
                continue;
            }
            match state.graph.node(n) {
                Node::Access { .. } => check_access(state, n)?,
                Node::Tasklet { .. } => tasklets.push(n),
                Node::MapEntry(_) => entries.push(n),
                Node::MapExit { .. } => {}
                _ => return Err(structure("unsupported node kind in loop body")),
            }
        }
        match (tasklets.len(), entries.len()) {
            (_, 0) => {
                for t in tasklets {
                    self.add_point_tasklet(sid, t)?;
                }
                Ok(())
            }
            (0, 1) => self.add_map(sid, entries[0], state, &splan, &HashMap::new()),
            _ => Err(structure("state mixes maps and point tasklets")),
        }
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
        for p in &scope.params {
            self.alloc_dim(p)?;
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
            // it serially: Sequential schedule, or a loop-invariant WCR
            // output over the chunk dimension — the exact condition that
            // makes the write atomic and fails the scheduler's
            // determinism gate, forcing the serial path.
            let p0 = self.outer.len();
            let serial = scope.schedule == Schedule::Sequential
                || bts.iter().any(|bt| {
                    bt.outs.iter().any(|o| {
                    o.wcr.is_some()
                        && matches!(&o.window, WindowPlan::Scalar(sv) if sv.coeff(p0) == Some(0))
                })
                });
            if !serial {
                return Err(structure(
                    "parallel-profitable map (left on the steal scheduler)",
                ));
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
            loaded,
            ports,
            calls,
            body: items,
            syms,
            rows,
            exclusive,
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
        };
        let src = emit_nest_kernel(&spec).map_err(body)?;
        drop(spec);
        let kernel = crate::jit::get_or_compile(&src)?;
        Ok(NestCore {
            ndims,
            ports,
            bounds,
            loaded_dims,
            calls,
            streams,
            exclusive,
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

/// The collapsible loop at `guard`: `codegen::statemachine` recognizes the
/// loop, and the JIT admits a `var < end` guard over hygienic names, a
/// straight body of at most 8 plain states with no interior assignments,
/// and a unit step.
fn build_loop_nest(ctx: &Ctx, guard: StateId, label: String) -> Result<LoopNestPlan, Decline> {
    let sdfg = ctx.sdfg;
    let l = loop_at(sdfg, guard).map_err(structure)?;
    let end = match &l.cond {
        BoolExpr::Cmp(CmpOp::Lt, Expr::Sym(v), end) if *v == l.var => end,
        BoolExpr::Cmp(CmpOp::Lt, Expr::Sym(_), _) => {
            return Err(structure("back edge steps a different symbol"))
        }
        _ => return Err(structure("guard edges are not a `var < end` pair")),
    };
    // The guard must read pure interstate symbols: container-backed or
    // stream-length names would make the collapsed trip count diverge
    // from the interpreter's per-iteration re-evaluation.
    let hygienic = |s: &str| -> bool { !sdfg.data.contains_key(s) && !s.starts_with("len_") };
    if !hygienic(&l.var) {
        return Err(structure("loop variable shadows a container"));
    }
    let mut free = BTreeSet::new();
    end.collect_symbols(&mut free);
    if free.iter().any(|s| s == &l.var || !hygienic(s)) {
        return Err(nonaffine(
            "loop bound reads a container or the loop variable",
        ));
    }
    // The body's regions in order, each checked as a walk of the chain
    // from the body edge meets it.
    let mut body_states = Vec::new();
    for (k, r) in l.body.iter().enumerate() {
        let last = k + 1 == l.body.len();
        let why = match r {
            // The edge into a nested loop assigned its variable.
            Region::Loop(inner) if inner.init.is_some() => "assignment on interior loop edge",
            _ if k == 8 => "loop body chain too long",
            Region::State(id, assigns) if assigns.is_empty() => {
                body_states.push(*id);
                continue;
            }
            Region::State(..) if last => "back edge must step exactly the loop variable",
            Region::State(..) => "assignment on interior loop edge",
            _ => "loop body state branches",
        };
        return Err(structure(why));
    }
    if l.update
        .affine_in(std::slice::from_ref(&l.var), &Env::new())
        != Ok((1, vec![1]))
    {
        return Err(nonaffine("non-unit loop increment"));
    }
    let mut b = NestBuilder::over_interstate(ctx, true);
    b.alloc_dim(&l.var)?;
    b.outer = vec![0];
    for sid in body_states {
        b.add_state(sid)?;
    }
    let core = b.finish(label)?;
    Ok(LoopNestPlan {
        var: l.var,
        end: end.clone(),
        core,
    })
}

/// Collapse hook, called by the drive loop after executing `cur` (when
/// the JIT tier is enabled): if `cur` is the guard of a recognized loop,
/// run every remaining iteration as one native call and advance the loop
/// variable to its exit value, returning the loop it ran. On any decline —
/// structural, compile, or launch-time, including a kernel still compiling
/// — it returns `None` and the interpreter path proceeds unchanged; a loop
/// whose kernel arrives mid-run collapses from its next guard visit on.
///
/// Under a run deadline the loop runs as consecutive `[lo0, hi0)` slices
/// of the same kernel — bitwise the same execution order — with the
/// deadline checked between slices, so a collapsed loop cannot outlive
/// its budget by more than one slice.
pub(crate) fn try_collapse_loop(
    ctx: &Ctx,
    cur: StateId,
    symbols: &mut Env,
) -> Result<Option<Arc<LoopNestPlan>>, ExecError> {
    // Loop guards are empty states with exactly two successors (body and
    // exit); everything else leaves immediately — without recording a
    // fallback, so init/exit glue states do not pollute the ledger.
    if ctx.sdfg.state(cur).graph.node_count() != 0 || ctx.sdfg.graph.out_degree(cur) != 2 {
        return Ok(None);
    }
    let cached = ctx.plan.loop_nest(cur.0);
    let plan = match cached {
        Some(Ok(p)) => p,
        Some(Err(_)) => return Ok(None),
        None => {
            let label = format!("loop@{}", ctx.sdfg.state(cur).label);
            let res = build_loop_nest(ctx, cur, label.clone()).map(Arc::new);
            if let Err(d) = &res {
                d.record(ctx.chash, &label);
            }
            match ctx.plan.insert_loop_nest(cur.0, res) {
                Ok(p) => p,
                Err(_) => return Ok(None),
            }
        }
    };
    let Some(&lo0) = symbols.get(&plan.var) else {
        return Ok(None);
    };
    let Ok(hi0) = plan.end.eval(symbols) else {
        return Ok(None);
    };
    if lo0 >= hi0 {
        return Ok(None);
    }
    let launch = Launch {
        consts: &|name| symbols.get(name).copied(),
        env: symbols,
        locals: None,
        origin: 0,
        step: 1,
        atomic: false,
    };
    let Some(args) = marshal(ctx, &plan.core, &launch, lo0, hi0) else {
        return Ok(None);
    };
    let (mut npts, mut calls) = (0i64, 0u64);
    let mut done = lo0;
    let mut ran = Ok(());
    match ctx.cfg.deadline {
        None => {
            ran = run_nest(&plan.core, &args, lo0, hi0).map(|(n, c)| {
                (npts, calls, done) = (n, c, hi0);
            });
        }
        Some(deadline) => {
            // Slice length adapts towards ~1 ms of work per call: short
            // enough to honour millisecond budgets, long enough that the
            // clock reads vanish next to the kernel.
            let mut len = 1i64;
            while done < hi0 && std::time::Instant::now() < deadline {
                let hi = done.saturating_add(len).min(hi0);
                let t0 = std::time::Instant::now();
                let (n, c) = match run_nest(&plan.core, &args, done, hi) {
                    Ok(r) => r,
                    Err(e) => {
                        ran = Err(e);
                        break;
                    }
                };
                npts += n;
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
    count_calls(ctx, npts as u64, calls);
    ran?;
    // A unit-step loop exits with `var == hi0`; the normal edge scan then
    // takes the exit edge and applies its assignments.
    symbols.insert(plan.var.clone(), done);
    if done < hi0 {
        return Err(ExecError::Timeout(ctx.cfg.deadline_ms));
    }
    Ok(Some(plan))
}

// --- map kernels -------------------------------------------------------------

impl NestBuilder<'_, '_> {
    /// Allocates map dims `params` over `ranges`: dim 0 takes whatever
    /// range and step each call passes, every later dim steps by one
    /// between bounds affine in the dims before it.
    fn add_map_dims(&mut self, params: &[String], ranges: &[SymRange]) -> Result<(), Decline> {
        for p in params {
            self.alloc_dim(p)?;
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
    /// parallel tile if `in_tile` (see [`NestCore::launch_exclusive`]).
    /// Only the checks of [`marshal`] on the launch's own values are left.
    pub(crate) fn takes(&self, plan: &MapPlan, in_tile: bool) -> bool {
        let MapBody::Tasklets(ts, _) = &plan.body else {
            return false;
        };
        matches!(self.core.compiled(), Some(Ok(_)))
            && (!(self.core.exclusive || atomic_in(&ts[0].1)) || !in_tile)
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
    if !core.launch_exclusive(ctx.chash, atomic, true) {
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

/// Resolves launch-time constants and validates the launch over kernel
/// indices `[lo0, hi0)` of dim 0: the kernel must have finished compiling
/// (and, if exclusive, the launch must run outside any parallel tile),
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
    if !core.launch_exclusive(ctx.chash, launch.atomic, crate::sched::in_pool_worker()) {
        return None;
    }
    let ndims = core.ndims;
    let Launch { origin, step, .. } = *launch;
    // Per-dim intervals of iteration *values*, ascending: dim d's bounds
    // only read dims < d, so each interval closes over the previous ones.
    // A loaded dim's interval is unknown; only clamped ports read it.
    let value0 = |k: i64| origin as i128 + k as i128 * step as i128;
    let mut ivals: Vec<(i128, i128)> = Vec::with_capacity(ndims);
    ivals.push((value0(lo0), value0(hi0 - 1)));
    for d in 1..ndims {
        if core.loaded_dims.contains(&d) {
            ivals.push((0, 0));
            continue;
        }
        let (lo, hi) = &core.bounds[d - 1];
        let lo_b = lo.base_at(launch.consts, launch.env)? as i128;
        let hi_b = hi.base_at(launch.consts, launch.env)? as i128;
        let (lo_min, _) = lo.interval(lo_b, &ivals);
        let (_, hi_max) = hi.interval(hi_b, &ivals);
        let a = lo_min;
        ivals.push((a, (hi_max - 1).max(a)));
    }
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
            let (omin, omax) = port.addr.interval(base as i128, &ivals);
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
    let mut bnd = vec![0i64; 2 * ndims * (1 + ndims)];
    for d in 1..ndims {
        if core.loaded_dims.contains(&d) {
            continue;
        }
        let (lo, hi) = &core.bounds[d - 1];
        for (row, a) in [(2 * d, lo), (2 * d + 1, hi)] {
            let r = row * (1 + ndims);
            (bnd[r], bnd[r + 1]) = rebase(a.base_at(launch.consts, launch.env)?, a.coeff(0))?;
            for k in 1..ndims {
                bnd[r + 1 + k] = a.coeff(k);
            }
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

    /// A write-log kernel — histogram's bins, combined atomically by every
    /// interpreted tier — runs native when its launch is serial, and from
    /// inside a parallel tile declines with a ledger record, leaving the
    /// interpreted tiers to produce the same bits.
    #[test]
    fn exclusive_kernel_declines_inside_a_parallel_tile() {
        if !crate::jit::env_enabled() || crate::jit::cc().is_none() {
            return;
        }
        let w = sdfg_workloads::kernels::histogram(64);
        let run = |in_tile: bool| {
            let mut ex = executor(&w, 1);
            let stats = if in_tile {
                crate::sched::as_pool_worker(|| ex.run())
            } else {
                ex.run()
            }
            .expect("histogram runs");
            (stats, ex.arrays["hist"].clone())
        };
        // Compile first, so the second pair of runs sees the kernel.
        run(false);
        crate::jit::wait_idle();
        let dir = std::env::temp_dir().join(format!("sdfg-exclusive-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ledger = dir.join("ledger.jsonl");
        sdfg_profile::ledger::set_path(Some(&ledger));
        let (serial, want) = run(false);
        let (tiled, got) = run(true);
        sdfg_profile::ledger::set_path(None);
        let text = std::fs::read_to_string(&ledger).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(serial.jit_points > 0, "serial launch stayed interpreted");
        assert_eq!(tiled.jit_points, 0, "exclusive kernel ran inside a tile");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        assert!(
            text.lines()
                .any(|l| l.contains("\"record\":\"jit_fallback\"")
                    && l.contains("\"map\":\"pixels\"")
                    && l.contains("inside a parallel tile")),
            "no decline recorded:\n{text}"
        );
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

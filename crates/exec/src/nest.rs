//! Map-nest JIT lowering: the one path from map bodies to native code.
//!
//! Everything that runs natively is a *nest* handed to `codegen::jit`'s
//! emitter and called through one ABI. Three sites build and launch nests:
//!
//! * **State-machine loops** (`try_collapse_loop`): a guard state with a
//!   `var < end` / `!(var < end)` edge pair whose body is a straight
//!   chain of single-map or point-tasklet states stepping `var` by one.
//!   The whole loop — all iterations, all body states — collapses into
//!   one native call (sliced only when a run deadline is set), turning
//!   cholesky's ~253k interpreted transitions into a handful of calls.
//! * **Standalone multi-dimensional maps** (`try_map_nest_steal`): the
//!   steal scheduler's dim-0 tiles each become one native call running
//!   the full inner nest instead of one interpreted row per outer index.
//! * **Innermost spans** (`build_span_nest` / `run_span`): the innermost
//!   dimension of any hot single-tasklet map is a 1-D nest, launched once
//!   per row by the interpreted outer dimensions. The enclosing map
//!   parameters enter as launch-time constants.
//!
//! Inner bounds may be affine in outer iteration variables (triangular
//! `k < j`, banded, trapezoidal); indices and bounds may also be affine in
//! launch-time constants — mutable interstate symbols, enclosing map
//! parameters. Both are carried as coefficient rows in the kernel's
//! `bnd`/`geo` tables and resolved per launch. Bitwise discipline: the
//! emitter mirrors the interpreter statement for statement, and every
//! candidate is only admitted when the interpreter would have executed
//! the same statements in the same order (see the serial-collapse gate).

use crate::affine::{solve, Solved, Solver};
use crate::buffer::SharedBuffer;
use crate::cpu::{MapBody, MapPlan, TileSet};
use crate::engine::{Ctx, ExecError, Worker};
use crate::jit::{Decline, DeclineKind};
use crate::lower::MapLowering;
use crate::plan::StatePlan;
use crate::sched::SchedPool;
use crate::tasklet::{compile_body_tasklet, BodyTasklet, NativePlan, WindowPlan};
use sdfg_codegen::jit::{
    emit_nest_kernel, JitBody, JitOutMode, JitWcrOp, NestItem, NestOut, NestSpec, NestTasklet,
};
use sdfg_core::cond::{BoolExpr, CmpOp};
use sdfg_core::{DType, InterstateEdge, Node, Schedule, State, StateId, Wcr};
use sdfg_graph::{EdgeId, NodeId};
use sdfg_symbolic::{Env, Expr, SymRange};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::Ordering;
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

// --- affine forms over the nest's global dimension space ---------------------

/// An affine index or bound: `base + Σ coeff·dim + Σ coeff·constant`,
/// where the dims are nest iteration variables (compiled into the kernel's
/// coefficient tables) and the constants are named launch-time values —
/// mutable interstate symbols, enclosing map parameters — folded into the
/// base at launch time.
#[derive(Debug)]
pub(crate) struct NestAffine {
    base: i64,
    /// `(global dim index, coefficient)`, ascending by dim.
    dims: Vec<(usize, i64)>,
    /// `(launch-time constant, coefficient)`.
    muts: Vec<(String, i64)>,
}

impl NestAffine {
    fn from_solved(s: &Solved, site: &Site) -> Option<NestAffine> {
        match s {
            Solved::Const(v) => Some(NestAffine {
                base: *v,
                dims: Vec::new(),
                muts: Vec::new(),
            }),
            Solved::Affine { base, coeffs } => {
                let mut dims = Vec::new();
                let mut muts = Vec::new();
                for (i, &c) in coeffs.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    match site.dim_of.get(i)? {
                        Some(d) => dims.push((*d, c)),
                        None => muts.push((site.names[i].clone(), c)),
                    }
                }
                dims.sort_by_key(|&(d, _)| d);
                Some(NestAffine {
                    base: *base,
                    dims,
                    muts,
                })
            }
            Solved::Symbolic(_) => None,
        }
    }

    /// The launch-time constant part: base plus the named-constant terms.
    /// `None` on an unbound name or i64 overflow.
    fn base_at(&self, consts: &dyn Fn(&str) -> Option<i64>) -> Option<i64> {
        let mut acc = self.base;
        for (name, c) in &self.muts {
            acc = acc.checked_add(c.checked_mul(consts(name)?)?)?;
        }
        Some(acc)
    }

    fn coeff(&self, d: usize) -> i64 {
        self.dims
            .iter()
            .find(|&&(dd, _)| dd == d)
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }
}

/// Where the names of a compile site (see [`Solver`]) land in a kernel:
/// nest dims become coefficient-table columns, launch-time constants are
/// folded into the base per launch.
struct Site {
    names: Vec<String>,
    /// Global dim per parameter position; `None` = launch-time constant.
    dim_of: Vec<Option<usize>>,
}

// --- nest plans --------------------------------------------------------------

/// One `geo` row: a container access whose flat offset is affine in the
/// nest dims and launch-time constants.
pub(crate) struct NestPort {
    data: String,
    /// Slot in `Ctx::bufs`; `None` for containers that only exist as
    /// thread-local overlays.
    slot: Option<usize>,
    addr: NestAffine,
}

/// One tasklet call site.
pub(crate) struct NestCall {
    bt: Arc<BodyTasklet>,
    /// Emit the VM-mirror program body even when a native recognition
    /// exists: per-point interpreter contexts always run the VM, and the
    /// kernel must follow the same statement order to stay bitwise.
    program: bool,
    ins: Vec<usize>,
    outs: Vec<usize>,
    modes: Vec<JitOutMode>,
}

impl NestCall {
    fn jit_body(&self) -> JitBody<'_> {
        if self.program {
            return JitBody::Program(&self.bt.prog);
        }
        match self.bt.native.as_ref().expect("native body") {
            NativePlan::Pattern(p) => JitBody::Pattern(*p),
            NativePlan::LinComb(lc) => JitBody::LinComb(lc),
            NativePlan::MulChain(mc) => JitBody::MulChain(mc),
        }
    }
}

/// A compiled nest kernel plus everything needed to marshal a launch.
pub(crate) struct NestCore {
    pub(crate) ndims: usize,
    ports: Vec<NestPort>,
    /// `(lo, hi)` per dim `1..ndims` (index `d - 1`); dim 0 is the range
    /// passed per call.
    bounds: Vec<(NestAffine, NestAffine)>,
    calls: Vec<NestCall>,
    /// The call whose output accumulates over dim 0 itself (a 1-D span
    /// reducing into a loop-invariant element). Every launch of such a
    /// nest points that port at a private cell and combines the cell into
    /// the real element in Rust — atomically when the race analysis says
    /// so — because splitting dim 0 across calls splits the reduction.
    acc0: Option<usize>,
    /// Common symbol table of every VM-mirror body, resolved per launch.
    syms: Vec<String>,
    kernel: Arc<crate::jit::JitKernel>,
    /// Lowering-report rows for the maps this nest absorbed.
    pub(crate) rows: Vec<MapLowering>,
}

/// A collapsible state-machine loop: guard state, loop variable, end
/// expression, compiled nest.
pub(crate) struct LoopNestPlan {
    pub(crate) var: String,
    pub(crate) end: Expr,
    pub(crate) core: NestCore,
}

/// A standalone multi-dim map compiled as a nest, dispatched per tile.
pub(crate) struct MapNestPlan {
    pub(crate) core: NestCore,
}

/// What one launch supplies besides the plan.
struct Launch<'a> {
    /// Launch-time constants by name (see [`NestAffine`]).
    consts: &'a dyn Fn(&str) -> Option<i64>,
    /// Environment the VM-mirror bodies' symbols resolve in.
    env: &'a Env,
    /// Thread-local transient overlays, resolved before `Ctx::bufs`.
    locals: Option<&'a HashMap<String, SharedBuffer>>,
    /// Kernel index `k` of dim 0 stands for the iteration value
    /// `origin + k·step`, so spans on any step grid run the unit-step
    /// kernel loop.
    origin: i64,
    step: i64,
}

/// The final combine of a dim-0 reduction (see [`NestCore::acc0`]).
struct Acc0<'a> {
    port: usize,
    buf: &'a SharedBuffer,
    off: usize,
    identity: f64,
    f: fn(f64, f64) -> f64,
    atomic: bool,
}

/// Marshalled launch arguments, shared by every call of one launch (only
/// the `[lo0, hi0)` range varies per call).
pub(crate) struct NestArgs<'a> {
    bufs: Vec<*mut f64>,
    geo: Vec<i64>,
    syms: Vec<f64>,
    bnd: Vec<i64>,
    acc0: Option<Acc0<'a>>,
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
    ports: Vec<NestPort>,
    calls: Vec<NestCall>,
    body: Vec<NestItem>,
    syms: Option<Vec<String>>,
    rows: Vec<MapLowering>,
    /// Whether map states must pass the serial-collapse gate (true for
    /// state-machine loops, whose body the interpreter runs serially).
    serial_gate: bool,
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
            ports: Vec::new(),
            calls: Vec::new(),
            body: Vec::new(),
            syms: None,
            rows: Vec::new(),
            serial_gate,
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
        let bound = |e: &Expr| {
            NestAffine::from_solved(&solve(e, &site.names, self.env0), site)
                .ok_or_else(|| nonaffine("non-affine map bound"))
        };
        Ok((bound(&r.start)?, bound(&r.end)?))
    }

    fn add_port(
        &mut self,
        data: &str,
        slot: Option<usize>,
        w: &WindowPlan,
        site: &Site,
    ) -> Result<usize, Decline> {
        let WindowPlan::Scalar(sv) = w else {
            return Err(body("non-scalar memlet window"));
        };
        let addr =
            NestAffine::from_solved(sv, site).ok_or_else(|| nonaffine("symbolic memlet offset"))?;
        self.ports.push(NestPort {
            data: data.to_string(),
            slot,
            addr,
        });
        Ok(self.ports.len() - 1)
    }

    fn push_call(
        &mut self,
        bt: Arc<BodyTasklet>,
        program: bool,
        modes: Vec<JitOutMode>,
        site: &Site,
    ) -> Result<usize, Decline> {
        if program {
            // The enclosing dims are C loop variables, frozen per launch
            // in `syms` — a body reading one as a symbol would see the
            // launch-time value instead of the per-point value.
            for s in &bt.prog.symbols {
                let is_dim = site
                    .names
                    .iter()
                    .zip(&site.dim_of)
                    .any(|(n, d)| d.is_some() && n == s);
                if is_dim {
                    return Err(body(format!(
                        "body reads iteration variable `{s}` as a symbol"
                    )));
                }
            }
            // `emit_vm_body` indexes `syms` by each program's own symbol
            // positions, so every VM-mirror body must share one table.
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
            ins.push(self.add_port(&p.data, p.slot, &p.window, site)?);
        }
        let mut outs = Vec::with_capacity(bt.outs.len());
        for o in &bt.outs {
            if o.stream {
                return Err(body("stream output"));
            }
            if o.log {
                return Err(body("write-log output"));
            }
            outs.push(self.add_port(&o.data, o.slot, &o.window, site)?);
        }
        self.calls.push(NestCall {
            bt,
            program,
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
        let splan = match self.ctx.plan.state(sid.0) {
            Some(p) => p,
            None => {
                let built = StatePlan::build(state, &self.ctx.inv.muts).map_err(structure)?;
                self.ctx.plan.insert_state(sid.0, built)
            }
        };
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
            (0, 1) => self.add_map(sid, entries[0], state, &splan),
            _ => Err(structure("state mixes maps and point tasklets")),
        }
    }

    /// A top-level tasklet executed once per dim-0 iteration, mirrored as
    /// a VM body (the interpreter always runs these through the VM).
    fn add_point_tasklet(&mut self, sid: StateId, n: NodeId) -> Result<(), Decline> {
        let site = self.site(&self.outer.clone());
        let bt = compile_body_tasklet(self.ctx, sid, n, &mut Solver::new(&site.names, self.env0))
            .map_err(|e| body(e.to_string()))?;
        let modes = point_modes(&bt)?;
        let idx = self.push_call(Arc::new(bt), true, modes, &site)?;
        self.body.push(NestItem::Call(idx));
        Ok(())
    }

    fn add_map(
        &mut self,
        sid: StateId,
        entry: NodeId,
        state: &State,
        splan: &StatePlan,
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
                .is_some_and(|c| !c.starts_with("IN_"));
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
            let range = self.affine_bounds(r, &site)?;
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
            let (program, modes) = innermost_modes(&bt, innermost_pos)?;
            items.push(NestItem::Call(self.push_call(bt, program, modes, &site)?));
        } else {
            for bt in bts {
                let modes = point_modes(&bt)?;
                items.push(NestItem::Call(self.push_call(bt, true, modes, &site)?));
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

    fn finish(self) -> Result<NestCore, Decline> {
        let NestBuilder {
            dims,
            bounds,
            ports,
            calls,
            body: items,
            syms,
            rows,
            ..
        } = self;
        if calls.is_empty() {
            return Err(body("empty nest"));
        }
        let ndims = dims.len();
        // A lone accumulating call directly under dim 0 makes dim 0 the
        // reduction loop (the emitter's `accumulate_form`).
        let acc0 = match items[..] {
            [NestItem::Call(t)] if matches!(calls[t].modes[..], [JitOutMode::Accumulate(_)]) => {
                Some(t)
            }
            _ => None,
        };
        let tasklets: Vec<NestTasklet<'_>> = calls
            .iter()
            .map(|c| NestTasklet {
                body: c.jit_body(),
                ins: c.ins.clone(),
                outs: c
                    .outs
                    .iter()
                    .zip(&c.modes)
                    .map(|(&port, &mode)| NestOut { port, mode })
                    .collect(),
            })
            .collect();
        let spec = NestSpec {
            ndims,
            nports: ports.len(),
            tasklets,
            body: items,
        };
        let src = emit_nest_kernel(&spec).map_err(body)?;
        drop(spec);
        let kernel = crate::jit::get_or_compile(&src)?;
        Ok(NestCore {
            ndims,
            ports,
            bounds,
            calls,
            acc0,
            syms: syms.unwrap_or_default(),
            kernel,
            rows,
        })
    }
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

/// Output modes for the sole tasklet of a map scope, mirroring what the
/// interpreted tiers' try-in-order dispatch does at that position: the
/// native micro-kernel when one was recognized (plain store, or register
/// accumulation for a WCR output invariant in the innermost dimension),
/// the affine VM otherwise. Whether a per-point WCR combine may run
/// non-atomically is the site's call (see `build_span_nest`).
fn innermost_modes(
    bt: &BodyTasklet,
    innermost_pos: usize,
) -> Result<(bool, Vec<JitOutMode>), Decline> {
    if bt.outs.is_empty() {
        return Err(body("no output ports"));
    }
    let mut modes = Vec::with_capacity(bt.outs.len());
    for o in &bt.outs {
        let coeff = match &o.window {
            WindowPlan::Scalar(sv) => sv.coeff(innermost_pos),
            _ => None,
        };
        let mode = match &o.wcr {
            None => {
                if bt.native.is_some() {
                    JitOutMode::Write
                } else {
                    // The VM seeds plain scalar outputs from memory.
                    JitOutMode::ReadModifyWrite
                }
            }
            Some(w) => {
                let op = wcr_op(w)?;
                let accumulates = coeff == Some(0)
                    && matches!(
                        bt.native,
                        Some(NativePlan::Pattern(_)) | Some(NativePlan::MulChain(_))
                    );
                if accumulates {
                    JitOutMode::Accumulate(op)
                } else {
                    JitOutMode::CombinePerPoint(op)
                }
            }
        };
        modes.push(mode);
    }
    Ok((bt.native.is_none(), modes))
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
        modes.push(match &o.wcr {
            None => JitOutMode::ReadModifyWrite,
            Some(w) => JitOutMode::CombinePerPoint(wcr_op(w)?),
        });
    }
    Ok(modes)
}

// --- state-machine loop recognition ------------------------------------------

fn loop_edge(e: &InterstateEdge) -> Option<(String, Expr)> {
    if !e.assignments.is_empty() {
        return None;
    }
    if let BoolExpr::Cmp(CmpOp::Lt, Expr::Sym(v), end) = &e.condition {
        return Some((v.clone(), end.clone()));
    }
    None
}

fn build_loop_nest(ctx: &Ctx, guard: StateId) -> Result<LoopNestPlan, Decline> {
    let sdfg = ctx.sdfg;
    let edges: Vec<EdgeId> = sdfg.graph.out_edges(guard).collect();
    let [e0, e1] = edges[..] else {
        return Err(structure("guard state needs exactly two out edges"));
    };
    let (body_e, exit_e, var, end) = match (loop_edge(sdfg.graph.edge(e0)), sdfg.graph.edge(e1)) {
        (Some((v, end)), _) => (e0, e1, v, end),
        _ => match loop_edge(sdfg.graph.edge(e1)) {
            Some((v, end)) => (e1, e0, v, end),
            None => return Err(structure("guard edges are not a `var < end` pair")),
        },
    };
    let body_cond = sdfg.graph.edge(body_e).condition.clone();
    if sdfg.graph.edge(exit_e).condition != BoolExpr::Not(Box::new(body_cond)) {
        return Err(structure("exit edge is not the guard's negation"));
    }
    // The guard must read pure interstate symbols: container-backed or
    // stream-length names would make the collapsed trip count diverge
    // from the interpreter's per-iteration re-evaluation.
    let hygienic = |s: &str| -> bool { !sdfg.data.contains_key(s) && !s.starts_with("len_") };
    if !hygienic(&var) {
        return Err(structure("loop variable shadows a container"));
    }
    let mut free = BTreeSet::new();
    end.collect_symbols(&mut free);
    if free.iter().any(|s| s == &var || !hygienic(s)) {
        return Err(nonaffine(
            "loop bound reads a container or the loop variable",
        ));
    }
    // Walk the body: a straight chain of states returning to the guard,
    // whose back edge steps `var` by exactly one.
    let mut body_states = Vec::new();
    let mut seen: HashSet<u32> = HashSet::from([guard.0]);
    let mut cur = sdfg.graph.edge_dst(body_e);
    let back_edge = loop {
        if !seen.insert(cur.0) {
            return Err(structure("loop body revisits a state"));
        }
        body_states.push(cur);
        if body_states.len() > 8 {
            return Err(structure("loop body chain too long"));
        }
        let outs: Vec<EdgeId> = sdfg.graph.out_edges(cur).collect();
        let [e] = outs[..] else {
            return Err(structure("loop body state branches"));
        };
        let ie = sdfg.graph.edge(e);
        if !ie.condition.is_always() {
            return Err(structure("conditional edge inside loop body"));
        }
        if sdfg.graph.edge_dst(e) == guard {
            break e;
        }
        if !ie.assignments.is_empty() {
            return Err(structure("assignment on interior loop edge"));
        }
        cur = sdfg.graph.edge_dst(e);
    };
    let back = sdfg.graph.edge(back_edge);
    let [(avar, aexpr)] = &back.assignments[..] else {
        return Err(structure("back edge must step exactly the loop variable"));
    };
    if avar != &var {
        return Err(structure("back edge steps a different symbol"));
    }
    let probe = |v: i64| {
        let mut env = Env::new();
        env.insert(var.clone(), v);
        aexpr.eval(&env).ok()
    };
    if probe(0) != Some(1) || probe(3) != Some(4) || probe(7) != Some(8) {
        return Err(nonaffine("non-unit loop increment"));
    }
    let mut b = NestBuilder::over_interstate(ctx, true);
    b.alloc_dim(&var)?;
    b.outer = vec![0];
    for sid in body_states {
        b.add_state(sid)?;
    }
    let core = b.finish()?;
    // Every map dim sits below the loop variable, so no reduction can land
    // on dim 0 — the dimension this site slices.
    debug_assert!(core.acc0.is_none());
    Ok(LoopNestPlan { var, end, core })
}

/// Collapse hook, called by the drive loop after executing `cur` (when
/// the JIT tier is enabled): if `cur` is the guard of a recognized loop,
/// run every remaining iteration as one native call and advance the loop
/// variable to its exit value, returning the loop it ran. On any decline —
/// structural, compile, or launch-time — it returns `None` and the
/// interpreter path proceeds unchanged.
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
    if ctx.sdfg.state(cur).graph.node_count() != 0 || ctx.sdfg.graph.out_edges(cur).count() != 2 {
        return Ok(None);
    }
    let cached = ctx.plan.loop_nest(cur.0);
    let plan = match cached {
        Some(Ok(p)) => p,
        Some(Err(_)) => return Ok(None),
        None => {
            let res = build_loop_nest(ctx, cur).map(Arc::new);
            if let Err(d) = &res {
                let label = format!("loop@{}", ctx.sdfg.state(cur).label);
                d.record(ctx.chash, &label, true);
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
    };
    let Some(args) = marshal(ctx, &plan.core, &launch, lo0, hi0) else {
        return Ok(None);
    };
    let (mut npts, mut calls) = (0i64, 0u64);
    let mut done = lo0;
    match ctx.deadline {
        None => {
            npts = run_nest(&plan.core, &args, lo0, hi0);
            (calls, done) = (1, hi0);
        }
        Some(deadline) => {
            // Slice length adapts towards ~1 ms of work per call: short
            // enough to honour millisecond budgets, long enough that the
            // clock reads vanish next to the kernel.
            let mut len = 1i64;
            while done < hi0 && std::time::Instant::now() < deadline {
                let hi = done.saturating_add(len).min(hi0);
                let t0 = std::time::Instant::now();
                npts += run_nest(&plan.core, &args, done, hi);
                calls += 1;
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
    let st = &ctx.stats;
    st.tasklet_points.fetch_add(npts as u64, Ordering::Relaxed);
    st.jit_points.fetch_add(npts as u64, Ordering::Relaxed);
    st.nest_calls.fetch_add(calls, Ordering::Relaxed);
    // A unit-step loop exits with `var == hi0`; the normal edge scan then
    // takes the exit edge and applies its assignments.
    symbols.insert(plan.var.clone(), done);
    if done < hi0 {
        return Err(ExecError::Timeout(ctx.deadline_ms));
    }
    Ok(Some(plan))
}

// --- standalone map nests ----------------------------------------------------

fn build_map_nest(ctx: &Ctx, pkey: (u32, u32), plan: &MapPlan) -> Result<MapNestPlan, Decline> {
    let MapBody::Tasklets(ts, _) = &plan.body else {
        return Err(body("generic map body"));
    };
    let [(tnode, _)] = &ts[..] else {
        return Err(body("multi-tasklet standalone map"));
    };
    let mut b = NestBuilder::over_interstate(ctx, false);
    for p in &plan.params {
        b.alloc_dim(p)?;
    }
    for (d, r) in plan.ranges.iter().enumerate() {
        let sc: Vec<usize> = (0..d).collect();
        let site = b.site(&sc);
        b.check_unit_step(r, &site)?;
        if d > 0 {
            let range = b.affine_bounds(r, &site)?;
            b.bounds.push(range);
        }
    }
    let sc: Vec<usize> = (0..plan.params.len()).collect();
    let site = b.site(&sc);
    let bt = compile_body_tasklet(
        ctx,
        NodeId(pkey.0),
        *tnode,
        &mut Solver::new(&site.names, b.env0),
    )
    .map_err(|e| body(e.to_string()))?;
    let (program, modes) = innermost_modes(&bt, plan.params.len() - 1)?;
    let idx = b.push_call(Arc::new(bt), program, modes, &site)?;
    let mut items = vec![NestItem::Call(idx)];
    for d in (1..plan.params.len()).rev() {
        items = vec![NestItem::Loop {
            dim: d,
            body: items,
        }];
    }
    b.body = items;
    b.rows.push(MapLowering {
        state: pkey.0,
        node: pkey.1,
        label: plan.label.clone(),
        tier: "jit",
        jit_reason: None,
    });
    let core = b.finish()?;
    // The hook below only takes maps of two or more dims, whose innermost
    // (accumulating) dimension is never the tiled dim 0.
    debug_assert!(core.acc0.is_none());
    Ok(MapNestPlan { core })
}

/// Steal-scheduler hook: run a multi-dim map's tiles as whole-nest native
/// calls (one per tile) instead of one interpreted dispatch per outer
/// index. Returns `None` to fall through to the per-row steal path — the
/// launch, including its write-disjointness proof, must validate before
/// any tile runs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_map_nest_steal(
    ctx: &Ctx,
    plan: &MapPlan,
    worker: &Worker,
    base: usize,
    pkey: (u32, u32),
    tiles: &TileSet,
    pool: &SchedPool,
) -> Option<Result<(), ExecError>> {
    if !ctx.nest_jit {
        return None;
    }
    let TileSet::Dim0 { step: 1, ranges } = tiles else {
        return None;
    };
    if ranges.is_empty()
        || base != worker.nconst
        || !worker.locals.is_empty()
        || !plan.dyn_edges.is_empty()
    {
        return None;
    }
    let MapBody::Tasklets(ts, _) = &plan.body else {
        return None;
    };
    if ts.len() != 1 || plan.params.len() < 2 {
        return None;
    }
    let core = match ctx.plan.map_nest(pkey) {
        Some(Ok(p)) => p,
        Some(Err(_)) => return None,
        None => {
            let res = build_map_nest(ctx, pkey, plan).map(Arc::new);
            if let Err(d) = &res {
                d.record(ctx.chash, &plan.label, true);
            }
            match ctx.plan.insert_map_nest(pkey, res) {
                Ok(p) => p,
                Err(_) => return None,
            }
        }
    };
    let lo0 = ranges.first()?.0;
    let hi0 = ranges.last()?.1;
    let launch = Launch {
        consts: &|name| worker.env.get(name).copied(),
        env: &worker.env,
        locals: None,
        origin: 0,
        step: 1,
    };
    let args = marshal(ctx, &core.core, &launch, lo0, hi0)?;
    if !args.parallel_ok {
        return None;
    }
    let total = std::sync::atomic::AtomicI64::new(0);
    let core_ref = &core.core;
    let args_ref = &args;
    let tile_fn = |_slot: usize, t: usize| {
        let (lo, hi) = ranges[t];
        let n = run_nest(core_ref, args_ref, lo, hi);
        total.fetch_add(n, Ordering::Relaxed);
    };
    pool.run(ranges.len(), &tile_fn);
    let n = total.load(Ordering::Relaxed) as u64;
    let st = &ctx.stats;
    st.tasklet_points.fetch_add(n, Ordering::Relaxed);
    st.jit_points.fetch_add(n, Ordering::Relaxed);
    st.nest_calls
        .fetch_add(ranges.len() as u64, Ordering::Relaxed);
    Some(Ok(()))
}

// --- innermost spans ---------------------------------------------------------

/// Compiles the innermost dimension of a single-tasklet map as a 1-D
/// nest. `bt` is the body compiled against the full parameter stack
/// `pstack`, whose last entry becomes the nest's only dim; every enclosing
/// parameter is a launch-time constant, resolved from the worker's
/// current point by [`run_span`].
pub(crate) fn build_span_nest(
    ctx: &Ctx,
    pstack: &[String],
    bt: &Arc<BodyTasklet>,
) -> Result<NestCore, Decline> {
    let Some((inner, outer)) = pstack.split_last() else {
        return Err(structure("map without parameters"));
    };
    // Constants resolve by name at launch, so names must be unambiguous.
    if outer.contains(inner) || (1..outer.len()).any(|i| outer[..i].contains(&outer[i])) {
        return Err(structure("shadowed iteration variable"));
    }
    // Every name a span is solved against is on the stack; nothing is read
    // from an environment.
    let (env0, muts) = (Env::new(), BTreeSet::new());
    let mut b = NestBuilder::new(ctx, &env0, &muts, false);
    b.alloc_dim(inner)?;
    let mut dim_of = vec![None; outer.len()];
    dim_of.push(Some(0));
    let site = Site {
        names: pstack.to_vec(),
        dim_of,
    };
    let (program, modes) = innermost_modes(bt, outer.len())?;
    // Unlike the whole-nest sites, a span runs wherever the interpreter
    // would — including inside parallel tiles — so a per-point combine the
    // race analysis marked atomic has no C equivalent. (An accumulating
    // port is fine: its one final combine happens in Rust.)
    let racy = |(o, m): (&crate::tasklet::OutPortPlan, &JitOutMode)| {
        o.atomic && matches!(m, JitOutMode::CombinePerPoint(_))
    };
    if bt.outs.iter().zip(&modes).any(racy) {
        return Err(body("atomic WCR combine"));
    }
    let idx = b.push_call(bt.clone(), program, modes, &site)?;
    b.body = vec![NestItem::Call(idx)];
    b.finish()
}

/// Runs dimension `dim` (the innermost) over `[s, e)` on step `st` through
/// a span nest. Returns `Ok(None)` — fall through to the next tier —
/// whenever a launch-time precondition fails: an unbound symbol, an offset
/// outside its buffer (the interpreted tiers clamp with `.max(0)`, which
/// the kernel cannot mirror), a missing buffer.
pub(crate) fn run_span(
    ctx: &Ctx,
    core: &NestCore,
    worker: &mut Worker,
    dim: usize,
    s: i64,
    e: i64,
    st: i64,
) -> Option<()> {
    if st <= 0 || s >= e {
        return (s >= e).then_some(());
    }
    let n = ((e - s) + st - 1) / st;
    let (pstack, point) = (&worker.pstack, &worker.point);
    let launch = Launch {
        consts: &|name| {
            let i = pstack[..dim].iter().position(|p| p == name)?;
            point.get(i).copied()
        },
        env: &worker.env,
        locals: Some(&worker.locals),
        origin: s,
        step: st,
    };
    let args = marshal(ctx, core, &launch, 0, n)?;
    let npts = run_nest(core, &args, 0, n) as u64;
    worker.st_points += npts;
    worker.st_jit += npts;
    worker.st_nest_calls += 1;
    Some(())
}

// --- launch marshalling ------------------------------------------------------

/// `[min, max]` of an affine form over the per-dim iteration intervals.
fn affine_interval(base: i128, a: &NestAffine, ivals: &[(i128, i128)]) -> (i128, i128) {
    let mut lo = base;
    let mut hi = base;
    for &(d, c) in &a.dims {
        let c = c as i128;
        let (x, y) = ivals[d];
        if c >= 0 {
            lo += c * x;
            hi += c * y;
        } else {
            lo += c * y;
            hi += c * x;
        }
    }
    (lo, hi)
}

/// Resolves launch-time constants and validates the launch over kernel
/// indices `[lo0, hi0)` of dim 0: every port offset must stay in bounds
/// over a conservative superset of the iteration space (so the
/// interpreter's defensive clamps can never fire on an admitted launch),
/// every symbol must be bound, and the write-disjointness of dim-0 tiles
/// is established for the parallel path. `None` falls back to the
/// interpreter bitwise-identically.
fn marshal<'a>(
    ctx: &'a Ctx,
    core: &NestCore,
    launch: &Launch<'a>,
    lo0: i64,
    hi0: i64,
) -> Option<NestArgs<'a>> {
    let ndims = core.ndims;
    let Launch { origin, step, .. } = *launch;
    // Per-dim intervals of iteration *values*, ascending: dim d's bounds
    // only read dims < d, so each interval closes over the previous ones.
    let value0 = |k: i64| origin as i128 + k as i128 * step as i128;
    let mut ivals: Vec<(i128, i128)> = Vec::with_capacity(ndims);
    ivals.push((value0(lo0), value0(hi0 - 1)));
    for d in 1..ndims {
        let (lo, hi) = &core.bounds[d - 1];
        let lo_b = lo.base_at(launch.consts)? as i128;
        let hi_b = hi.base_at(launch.consts)? as i128;
        let (lo_min, _) = affine_interval(lo_b, lo, &ivals);
        let (_, hi_max) = affine_interval(hi_b, hi, &ivals);
        let a = lo_min;
        ivals.push((a, (hi_max - 1).max(a)));
    }
    let mut syms = Vec::with_capacity(core.syms.len());
    for s in &core.syms {
        syms.push(*launch.env.get(s)? as f64);
    }
    // Rebases an affine form from dim-0 values onto kernel indices.
    let rebase = |base: i64, c0: i64| -> Option<(i64, i64)> {
        Some((
            base.checked_add(c0.checked_mul(origin)?)?,
            c0.checked_mul(step)?,
        ))
    };
    let acc_call = core.acc0.map(|t| &core.calls[t]);
    let mut acc0 = None;
    let mut bufs = Vec::with_capacity(core.ports.len());
    let mut geo = Vec::with_capacity(core.ports.len() * (2 + ndims));
    for (p, port) in core.ports.iter().enumerate() {
        let buf = match launch.locals.and_then(|l| l.get(&port.data)) {
            Some(b) => b,
            None => ctx.bufs.get(port.slot?)?,
        };
        let len = buf.len() as i128;
        let base = port.addr.base_at(launch.consts)?;
        let (omin, omax) = affine_interval(base as i128, &port.addr, &ivals);
        if omin < 0 || omax >= len {
            return None;
        }
        geo.push(p as i64);
        if let Some(call) = acc_call.filter(|c| c.outs[0] == p) {
            // The kernel folds into a private cell (installed per call by
            // `run_nest`); the real element is combined in Rust.
            let o = &call.bt.outs[0];
            let wcr = o.wcr.as_ref()?;
            acc0 = Some(Acc0 {
                port: p,
                buf,
                off: base as usize,
                identity: wcr.identity(DType::F64)?,
                f: crate::copy::wcr_fn(wcr).ok()?,
                atomic: o.atomic,
            });
            bufs.push(std::ptr::null_mut());
            geo.extend(std::iter::repeat_n(0, 1 + ndims));
            continue;
        }
        // SAFETY: the pointer is only dereferenced inside kernel calls,
        // within the range validated above.
        bufs.push(unsafe { buf.as_mut_slice() }.as_mut_ptr());
        let (base, c0) = rebase(base, port.addr.coeff(0))?;
        geo.push(base);
        geo.push(c0);
        for d in 1..ndims {
            geo.push(port.addr.coeff(d));
        }
    }
    let mut bnd = vec![0i64; 2 * ndims * (1 + ndims)];
    for d in 1..ndims {
        let (lo, hi) = &core.bounds[d - 1];
        for (row, a) in [(2 * d, lo), (2 * d + 1, hi)] {
            let r = row * (1 + ndims);
            (bnd[r], bnd[r + 1]) = rebase(a.base_at(launch.consts)?, a.coeff(0))?;
            for k in 1..ndims {
                bnd[r + 1 + k] = a.coeff(k);
            }
        }
    }
    // Tiles are write-disjoint when, for every output, one dim-0 step
    // moves the offset further than the whole reach of the inner dims:
    // |c0| > Σ |c_d|·span_d implies two different i0 values can never
    // alias, so tile execution order is unobservable.
    let parallel_ok = core.calls.iter().all(|c| {
        c.outs.iter().all(|&p| {
            let a = &core.ports[p].addr;
            let c0 = (a.coeff(0) as i128).abs();
            if c0 == 0 {
                return false;
            }
            let mut reach: i128 = 0;
            for (d, &(x, y)) in ivals.iter().enumerate().take(ndims).skip(1) {
                reach += (a.coeff(d) as i128).abs() * (y - x).max(0);
            }
            c0 > reach
        })
    });
    Some(NestArgs {
        bufs,
        geo,
        syms,
        bnd,
        acc0,
        parallel_ok,
    })
}

/// One native call: runs the full inner nest for dim-0 kernel indices
/// `[lo0, hi0)` and returns the number of tasklet executions.
fn run_nest(core: &NestCore, args: &NestArgs, lo0: i64, hi0: i64) -> i64 {
    let mut npts: i64 = 0;
    let mut call = |bufs: &[*mut f64]| {
        // SAFETY: `marshal` validated every address the nest reaches over
        // a superset of `[lo0, hi0)`; the argument arrays outlive the call
        // and `syms` holds one value per program symbol. Aliasing between
        // ports is allowed — the kernel takes no `restrict` and mirrors
        // the interpreted tiers' per-point read-then-write order.
        unsafe {
            (core.kernel.func())(
                bufs.as_ptr(),
                args.geo.as_ptr(),
                args.syms.as_ptr(),
                args.bnd.as_ptr(),
                lo0,
                hi0,
                &mut npts,
            )
        }
    };
    match &args.acc0 {
        None => call(&args.bufs),
        Some(acc) => {
            let mut cell = acc.identity;
            let mut bufs = args.bufs.clone();
            bufs[acc.port] = &mut cell;
            call(&bufs);
            if acc.atomic {
                acc.buf.atomic_combine(acc.off, cell, acc.f);
            } else {
                acc.buf.combine_plain(acc.off, cell, acc.f);
            }
        }
    }
    npts
}

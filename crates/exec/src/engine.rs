//! The execution engine: state machine driver, map compilation, parallel
//! loop nests, native kernels.

use crate::affine::{solve, Solved, Solver};
use crate::buffer::SharedBuffer;
use crate::cpu::MapPlan;
use crate::dispatch::exec_state;
use crate::plan::{
    record_variant_cap, Cached, CompileCtx, ExecutionPlan, Invariants, PlanCache, PlanKey,
    StatePlan,
};
use crate::pool::BufferPool;
use crate::sched::SchedPool;
use crate::stats::{AtomicStats, Stats};
use crate::tasklet::{compile_body_tasklet, BodyTasklet, WindowPlan};
use parking_lot::Mutex;
use sdfg_core::desc::DataDesc;
use sdfg_core::{Instrument, Node, Sdfg, StateId};
use sdfg_graph::NodeId;
use sdfg_lang::{LangError, RuntimeError, TaskletVm};
use sdfg_profile::{
    InstrumentationReport, Mode as ProfMode, ProfileCollector, Profiling, SpanKey, Tier,
    WorkerProfile,
};
use sdfg_symbolic::dependence::distinct_along;
use sdfg_symbolic::{Env, EvalError};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Executor failure.
#[derive(Debug)]
pub enum ExecError {
    /// A non-transient array was not provided.
    MissingArray(String),
    /// Array size mismatch.
    SizeMismatch {
        /// Container name.
        name: String,
        /// Expected element count.
        expected: usize,
        /// Provided element count.
        got: usize,
    },
    /// Symbolic evaluation failure.
    Symbolic(EvalError),
    /// Tasklet compile failure.
    Lang(LangError),
    /// Tasklet runtime failure.
    Runtime(RuntimeError),
    /// External-language tasklet.
    ExternalTasklet(String),
    /// State machine transition limit exceeded.
    StepLimit(usize),
    /// The run's wall-clock deadline expired between state executions
    /// (set through [`crate::session::Session::run_deadline`]). Carries
    /// the budget in milliseconds.
    Timeout(u64),
    /// Structural problem.
    BadGraph(String),
    /// The automatic optimization pipeline failed (the original SDFG is
    /// left untouched; the run is aborted rather than silently degraded).
    Optimization(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingArray(n) => write!(f, "array `{n}` was not provided"),
            ExecError::SizeMismatch {
                name,
                expected,
                got,
            } => write!(f, "array `{name}`: expected {expected}, got {got}"),
            ExecError::Symbolic(e) => write!(f, "symbolic evaluation: {e}"),
            ExecError::Lang(e) => write!(f, "tasklet compilation: {e}"),
            ExecError::Runtime(e) => write!(f, "tasklet execution: {e}"),
            ExecError::ExternalTasklet(n) => write!(f, "external tasklet `{n}`"),
            ExecError::StepLimit(n) => write!(f, "exceeded {n} transitions"),
            ExecError::Timeout(ms) => write!(f, "exceeded the {ms} ms deadline"),
            ExecError::BadGraph(m) => write!(f, "malformed graph: {m}"),
            ExecError::Optimization(m) => write!(f, "optimization: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ExecError> for sdfg_core::SdfgError {
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::MissingArray(name) => sdfg_core::SdfgError::UnknownData { name },
            ExecError::SizeMismatch {
                name,
                expected,
                got,
            } => sdfg_core::SdfgError::ShapeMismatch {
                name,
                expected,
                got,
            },
            ExecError::Timeout(ms) => sdfg_core::SdfgError::Timeout { ms },
            other => sdfg_core::SdfgError::Exec {
                message: other.to_string(),
            },
        }
    }
}

impl From<EvalError> for ExecError {
    fn from(e: EvalError) -> Self {
        ExecError::Symbolic(e)
    }
}
impl From<LangError> for ExecError {
    fn from(e: LangError) -> Self {
        ExecError::Lang(e)
    }
}
impl From<RuntimeError> for ExecError {
    fn from(e: RuntimeError) -> Self {
        ExecError::Runtime(e)
    }
}

/// How a run executes: what a [`crate::session::Session`] fixes when it is
/// built, and what a nested SDFG call inherits from its enclosing run.
#[derive(Clone)]
pub(crate) struct RunConfig {
    /// Worker thread count (at least 1).
    pub(crate) nthreads: usize,
    /// Maximum state transitions.
    pub(crate) max_transitions: usize,
    /// Whether the JIT lowering tier — per-map kernels and whole-nest
    /// lowering (loop collapse, tile→nest-call dispatch) alike — is on. A
    /// request until the run starts, which applies the `SDFG_JIT` gate; it
    /// is part of the plan's compile fingerprint, so lowerings never alias
    /// across configurations.
    pub(crate) jit: bool,
    /// Instrumentation switch.
    pub(crate) profiling: Profiling,
    /// Cross-run plan cache.
    pub(crate) plan_cache: Arc<PlanCache>,
    /// Transient/scratch buffer pool.
    pub(crate) pool: Arc<BufferPool>,
    /// Work-stealing scheduler for parallel map launches: `Some` exactly
    /// when `nthreads > 1`.
    pub(crate) sched: Option<Arc<SchedPool>>,
    /// Wall-clock deadline: checked between state executions and between
    /// slices of a collapsed loop, so an expired deadline cancels the run
    /// with [`ExecError::Timeout`] without tearing down mid-state.
    pub(crate) deadline: Option<std::time::Instant>,
    /// Millisecond budget behind `deadline` (for the error message).
    pub(crate) deadline_ms: u64,
}

/// The engine state of one run of one graph: built per
/// [`crate::session::Session`] invoke and per nested SDFG call, run once,
/// dropped.
pub(crate) struct Executor<'s> {
    sdfg: &'s Sdfg,
    /// Content hash of `sdfg`: the plan-cache key.
    chash: u64,
    cfg: RunConfig,
    /// Array storage by name: the bound arrays, then also the containers
    /// the run allocated.
    pub(crate) arrays: HashMap<String, Vec<f64>>,
    /// Stream contents by name.
    pub(crate) streams: HashMap<String, VecDeque<f64>>,
    symbols: Env,
    /// Transients the run allocated itself (as opposed to arrays the
    /// caller bound): returned to the pool on drop.
    owned: HashSet<String>,
    /// Instrumentation report of the run, when profiling was on.
    pub(crate) report: Option<InstrumentationReport>,
    /// The execution plan the run consulted.
    pub(crate) plan: Option<Arc<ExecutionPlan>>,
}

/// Pre-resolved profiling plan: per-scope modes are looked up once per
/// state execution / map launch, never per point. `None` in `Ctx::prof`
/// is the zero-overhead path.
pub(crate) struct Prof {
    pub(crate) collector: ProfileCollector,
    pub(crate) state_modes: HashMap<u32, ProfMode>,
    pub(crate) map_modes: HashMap<(u32, u32), ProfMode>,
    pub(crate) next_worker: AtomicU32,
}

impl Prof {
    /// Resolves SDFG annotations against the engine switch.
    pub(crate) fn build(sdfg: &Sdfg, profiling: Profiling) -> Option<Prof> {
        if profiling == Profiling::Off {
            return None;
        }
        let resolve = |ann: Instrument| -> ProfMode {
            match (profiling, ann) {
                (Profiling::ForceTimers, _) => ProfMode::Timer,
                (_, Instrument::Timer) => ProfMode::Timer,
                (_, Instrument::Counter) => ProfMode::Counter,
                (_, Instrument::None) => ProfMode::Off,
            }
        };
        let collector = ProfileCollector::new();
        let mut state_modes = HashMap::new();
        let mut map_modes = HashMap::new();
        for sid in sdfg.graph.node_ids() {
            let state = sdfg.graph.node(sid);
            let sm = resolve(state.instrument);
            if sm != ProfMode::Off {
                state_modes.insert(sid.0, sm);
                collector.register_label(SpanKey::State(sid.0), state.label.clone());
            }
            for nid in state.graph.node_ids() {
                if let Node::MapEntry(m) = state.graph.node(nid) {
                    let mm = resolve(m.instrument);
                    if mm != ProfMode::Off {
                        map_modes.insert((sid.0, nid.0), mm);
                        collector.register_label(
                            SpanKey::Map {
                                state: sid.0,
                                node: nid.0,
                            },
                            format!("{} {}", m.label, state.graph.node(nid).label()),
                        );
                    }
                }
            }
        }
        Some(Prof {
            collector,
            state_modes,
            map_modes,
            next_worker: AtomicU32::new(0),
        })
    }

    #[inline]
    pub(crate) fn state_mode(&self, sid: u32) -> ProfMode {
        self.state_modes.get(&sid).copied().unwrap_or(ProfMode::Off)
    }

    #[inline]
    pub(crate) fn map_mode(&self, key: (u32, u32)) -> ProfMode {
        self.map_modes.get(&key).copied().unwrap_or(ProfMode::Off)
    }
}

/// Shared run context.
pub(crate) struct Ctx<'s> {
    pub(crate) sdfg: &'s Sdfg,
    /// Buffer storage, indexable by slot for hot paths.
    pub(crate) bufs: Vec<SharedBuffer>,
    /// Container name → slot in `bufs`.
    pub(crate) buf_index: HashMap<String, usize>,
    pub(crate) streams: HashMap<String, Mutex<VecDeque<f64>>>,
    pub(crate) stats: AtomicStats,
    /// Profiling plan; `None` when profiling is off.
    pub(crate) prof: Option<Prof>,
    /// The execution plan for this (SDFG, symbol bindings) pair: workers
    /// consult and populate it so lowering survives across runs.
    pub(crate) plan: Arc<ExecutionPlan>,
    /// The run's configuration, its JIT request resolved against the
    /// environment gate; nested SDFG calls inherit it.
    pub(crate) cfg: RunConfig,
    /// Content hash of the executed SDFG, for fallback-ledger records.
    pub(crate) chash: u64,
    /// Containers whose values the interstate environment exposes as
    /// pseudo-symbols (scalars and one-element arrays), precomputed as
    /// (name, slot) so the drive loop's per-transition environment build
    /// does not rescan every data descriptor.
    pub(crate) scalarish: Vec<(String, usize)>,
    /// Names the interstate environment overrides on top of the symbol
    /// table (scalarish containers and stream lengths): an interstate
    /// assignment to one of these leaves the override in place.
    pub(crate) shadow: std::collections::HashSet<String>,
    /// `(len_<stream>, <stream>)` per stream: the pseudo-symbols through
    /// which interstate edges read queue lengths.
    pub(crate) stream_lens: Vec<(String, String)>,
    /// What this plan's artifacts may fold: the launch-invariant bindings,
    /// and the mutable symbols they must not.
    pub(crate) inv: Arc<Invariants>,
}

impl Ctx<'_> {
    pub(crate) fn buf(&self, name: &str) -> Result<&SharedBuffer, ExecError> {
        self.buf_index
            .get(name)
            .map(|&i| &self.bufs[i])
            .ok_or_else(|| ExecError::MissingArray(name.to_string()))
    }
}

/// Binds `name` in an environment and returns the value it shadowed.
/// Rebinding a bound name does not allocate.
pub(crate) fn bind(env: &mut Env, name: &str, v: i64) -> Option<i64> {
    match env.get_mut(name) {
        Some(slot) => Some(std::mem::replace(slot, v)),
        None => {
            env.insert(name.to_string(), v);
            None
        }
    }
}

/// Undoes a [`bind`]: restores the shadowed value, or unbinds the name.
pub(crate) fn unbind(env: &mut Env, name: &str, shadowed: Option<i64>) {
    match shadowed {
        Some(v) => {
            bind(env, name, v);
        }
        None => {
            env.remove(name);
        }
    }
}

/// Per-worker state: VM, the live symbol environment, thread-local
/// transient overlays. The state-machine driver runs a whole invoke on one
/// worker; every scheduler tile gets its own.
pub(crate) struct Worker<'c, 's> {
    pub(crate) ctx: &'c Ctx<'s>,
    pub(crate) vm: TaskletVm,
    /// Symbol bindings in effect. On the driver's worker this *is* the
    /// run's symbol table (interstate assignments write it); scopes bind
    /// their parameters on top and restore what they shadowed.
    pub(crate) env: Env,
    pub(crate) locals: HashMap<String, SharedBuffer>,
    pub(crate) log: Vec<(u32, f64)>,
    /// Inside a tile of a generic body that tiles (see
    /// `cpu::steal_deterministic`): where that map's parameters start in
    /// `pstack`, and the tile's write-backs `(write-back, offset, value)`
    /// in the order the body made them, for the launch to replay.
    pub(crate) wb_log: Option<(usize, crate::cpu::WriteBackLog)>,
    /// True when executing inside a map body. Nested maps run serially
    /// unless the work-stealing scheduler is active and the enclosing
    /// context is provably safe (serial outer region, no thread-local
    /// transient overlays) — see the eligibility gate in `exec_map`.
    pub(crate) nested: bool,
    /// The parameter stack bodies are solved against, and the current
    /// value of each entry: the state's launch-time constants (mutable
    /// interstate symbols its memlets read — `nconst` of them, fixed while
    /// the state runs), then the enclosing map parameters.
    pub(crate) pstack: Vec<String>,
    pub(crate) point: Vec<i64>,
    pub(crate) nconst: usize,
    /// Every launch-time constant of the state is bound, so each of its
    /// points has one compile context and the worker's own caches apply
    /// (see `CompileCtx::matches_local`).
    pub(crate) stable: bool,
    /// What each dynamic-range connector bound by the enclosing launches
    /// shadowed, innermost last (restored when its launch ends).
    pub(crate) shadowed: Vec<Option<i64>>,
    /// Static iteration counts per stacked parameter (1 for a constant,
    /// `i64::MAX/4` for any extent that is not launch-invariant), used by
    /// the WCR race analysis.
    pub(crate) pcounts: Vec<i64>,
    /// Points of the enclosing map launches, from their actual extents:
    /// what the JIT hotness gate compares with its threshold.
    pub(crate) volume: i64,
    /// The compiled kernel of the map launch this worker runs the
    /// interpreted rows of, launched by each row at the kernel's first dim
    /// (a whole-map kernel one dim-0 value at a time, see `exec_map`).
    pub(crate) row_nest: Option<Arc<crate::nest::MapNestPlan>>,
    /// Index (into `pstack`) of the chunk-partitioned parameter when this
    /// worker runs inside a parallel region; `None` = no concurrent writers.
    pub(crate) chunk_param: Option<usize>,
    /// Per-worker caches in front of the shared plan, keyed by (state,
    /// node) — lock-free on the hot path. An entry is reused only while
    /// its compile context still matches where the worker stands.
    pub(crate) prog_cache: HashMap<(u32, u32), Cached<BodyTasklet>>,
    pub(crate) map_cache: HashMap<(u32, u32), Cached<MapPlan>>,
    /// Structural state plans by state id.
    splans: Vec<Option<Arc<StatePlan>>>,
    /// Locally-accumulated statistics, flushed once per worker lifetime
    /// (keeps atomics out of inner loops).
    pub(crate) st_points: u64,
    pub(crate) st_native: u64,
    pub(crate) st_jit: u64,
    pub(crate) st_nest_calls: u64,
    /// Lock-free profile, absorbed by the collector at `flush_stats`.
    /// `None` when profiling is off.
    pub(crate) prof: Option<Box<WorkerProfile>>,
    /// Innermost enclosing Timer-mode map: tier attribution target.
    pub(crate) cur_map: Option<(u32, u32)>,
    /// The guard of a collapsible loop whose kernel is still compiling,
    /// while the drive runs its iterations: the map launches inside it
    /// request no kernel of their own, since the loop's covers them (see
    /// `nest::try_collapse_loop`).
    pub(crate) pending_loop: Option<StateId>,
    /// The guards of the loops inside each loop that has no plan yet, by
    /// its guard: a loop builds once those have built theirs.
    pub(crate) inner_loops: HashMap<StateId, Vec<StateId>>,
}

impl<'c, 's> Worker<'c, 's> {
    pub(crate) fn new(ctx: &'c Ctx<'s>, env: Env) -> Self {
        let prof = ctx.prof.as_ref().map(|p| {
            Box::new(WorkerProfile::new(
                p.next_worker.fetch_add(1, Ordering::Relaxed),
            ))
        });
        Worker {
            ctx,
            vm: TaskletVm::new(),
            env,
            locals: HashMap::new(),
            log: Vec::new(),
            wb_log: None,
            nested: false,
            pstack: Vec::new(),
            point: Vec::new(),
            nconst: 0,
            stable: true,
            shadowed: Vec::new(),
            pcounts: Vec::new(),
            volume: 1,
            row_nest: None,
            chunk_param: None,
            prog_cache: HashMap::new(),
            map_cache: HashMap::new(),
            splans: Vec::new(),
            st_points: 0,
            st_native: 0,
            st_jit: 0,
            st_nest_calls: 0,
            prof,
            cur_map: None,
            pending_loop: None,
            inner_loops: HashMap::new(),
        }
    }

    /// A tile worker standing where `launcher` stands: same parameter
    /// stack, point and counts, inside the parallel region over the
    /// parameter at `chunk`.
    pub(crate) fn for_tile(launcher: &Worker<'c, 's>, env: Env, chunk: usize) -> Self {
        let mut w = Worker::new(launcher.ctx, env);
        w.nested = true;
        w.pstack = launcher.pstack.clone();
        w.point = launcher.point.clone();
        w.nconst = launcher.nconst;
        w.stable = launcher.stable;
        w.pcounts = launcher.pcounts.clone();
        w.volume = launcher.volume;
        w.row_nest = launcher.row_nest.clone();
        w.chunk_param = Some(chunk);
        w
    }

    /// The structural plan of a state (worker cache, then the shared plan,
    /// then derived from the graph).
    pub(crate) fn state_plan(&mut self, sid: StateId) -> Result<Arc<StatePlan>, ExecError> {
        let i = sid.0 as usize;
        if let Some(Some(p)) = self.splans.get(i) {
            return Ok(p.clone());
        }
        let ctx = self.ctx;
        let p = match ctx.plan.state(sid.0) {
            Some(p) => p,
            None => {
                let built = StatePlan::build(ctx.sdfg.state(sid), &ctx.inv.muts)
                    .map_err(ExecError::BadGraph)?;
                ctx.plan.insert_state(sid.0, built)
            }
        };
        if self.splans.len() <= i {
            self.splans.resize(i + 1, None);
        }
        self.splans[i] = Some(p.clone());
        Ok(p)
    }

    /// Stands the worker at the top level of a state: the parameter stack
    /// holds exactly the state's launch-time constants that are bound, at
    /// their current values. (An unbound one stays a plain symbol, so
    /// reading it fails the way it always has.)
    pub(crate) fn enter_state(&mut self, splan: &StatePlan) {
        let env = &self.env;
        let bound = splan.muts.iter().filter(|m| env.contains_key(*m));
        if !self.pstack.iter().eq(bound.clone()) {
            self.pstack = bound.cloned().collect();
        }
        self.point.clear();
        self.point.extend(self.pstack.iter().map(|m| env[m]));
        self.nconst = self.pstack.len();
        self.stable = self.nconst == splan.muts.len();
        self.pcounts.clear();
        self.pcounts.resize(self.nconst, 1);
    }

    /// Parks the thread-local transient buffers for the next launch
    /// (zeroed again on acquire).
    pub(crate) fn release_locals(&mut self) {
        for (_, buf) in self.locals.drain() {
            self.ctx.cfg.pool.release(buf.into_inner());
        }
    }

    /// Flushes locally-accumulated statistics to the shared counters and
    /// hands the worker's profile to the collector (one lock, once).
    pub(crate) fn flush_stats(&mut self) {
        if self.st_points > 0 {
            self.ctx
                .stats
                .tasklet_points
                .fetch_add(self.st_points, Ordering::Relaxed);
            self.st_points = 0;
        }
        if self.st_native > 0 {
            self.ctx
                .stats
                .native_points
                .fetch_add(self.st_native, Ordering::Relaxed);
            self.st_native = 0;
        }
        if self.st_jit > 0 {
            let st = &self.ctx.stats;
            st.jit_points.fetch_add(self.st_jit, Ordering::Relaxed);
            st.nest_calls
                .fetch_add(self.st_nest_calls, Ordering::Relaxed);
            self.st_jit = 0;
            self.st_nest_calls = 0;
        }
        if let (Some(wp), Some(p)) = (self.prof.take(), self.ctx.prof.as_ref()) {
            if !wp.is_empty() {
                p.collector.absorb(*wp);
            }
        }
        self.release_locals();
    }

    /// Starts a tier measurement: `Some((start_ns, tasklet points so
    /// far))` only inside a Timer-instrumented map. One branch otherwise.
    #[inline]
    pub(crate) fn tier_clock(&self) -> Option<(u64, u64)> {
        match (&self.cur_map, &self.ctx.prof) {
            (Some(_), Some(p)) => Some((p.collector.now_ns(), self.st_points)),
            _ => None,
        }
    }

    /// Closes a tier measurement opened by [`Worker::tier_clock`]; point
    /// count is the `st_points` delta, so it works for whole-chunk native
    /// loops and per-point fallbacks alike.
    #[inline]
    pub(crate) fn tier_record(&mut self, t0: Option<(u64, u64)>, tier: Tier) {
        let Some((start, p0)) = t0 else { return };
        let Some(p) = &self.ctx.prof else { return };
        let ns = p.collector.now_ns().saturating_sub(start);
        let points = self.st_points.saturating_sub(p0);
        if let (Some(key), Some(wp)) = (self.cur_map, self.prof.as_mut()) {
            wp.tiers.entry(key).or_default().add(tier, points, ns);
        }
    }

    /// Compiles (or fetches) the tasklet at `n` against the current
    /// parameter stack.
    pub(crate) fn tasklet(
        &mut self,
        sid: StateId,
        n: NodeId,
    ) -> Result<Arc<BodyTasklet>, ExecError> {
        if let Some((c, bt)) = self.prog_cache.get(&(sid.0, n.0)) {
            if c.matches_local(self) {
                return Ok(bt.clone());
            }
        }
        self.tasklet_cached(sid, n).map(|(_, bt)| bt)
    }

    /// [`Worker::tasklet`] past the worker's own cache, together with the
    /// context the body was compiled under.
    pub(crate) fn tasklet_cached(
        &mut self,
        sid: StateId,
        n: NodeId,
    ) -> Result<Cached<BodyTasklet>, ExecError> {
        let key = (sid.0, n.0);
        // Shared (cross-run, cross-worker) cache: reused only under a
        // matching compile context, so a hit is always
        // semantics-preserving.
        let ctx = self.ctx;
        let cached = match ctx.plan.tasklet(key, self) {
            Some(c) => c,
            None => {
                let mut solver = Solver::new(&self.pstack, &ctx.inv.env0);
                solver.fold = &self.point[..self.nconst];
                let mut bt = compile_body_tasklet(ctx, sid, n, &mut solver)?;
                let folded = solver.folded;
                // A combine is atomic where another worker may combine into
                // the same element: inside a parallel region, into a shared
                // container, at an element whose offset and every subset
                // dimension may repeat across values of the chunk parameter
                // (see `distinct_along`) over the static trip counts.
                let span =
                    |d: usize| self.pcounts.get(d).map_or(i64::MAX / 4, |&n| n.max(1)) as i128 - 1;
                let distinct = |k: usize, index: &Solved| {
                    matches!(index, Solved::Affine { coeffs, .. }
                        if distinct_along(k, coeffs.iter().copied().enumerate(), span))
                };
                let index =
                    |r: &sdfg_symbolic::SymRange| solve(&r.start, &self.pstack, &ctx.inv.env0);
                for o in bt.outs.iter_mut() {
                    let shared = o.wcr.is_some() && !self.locals.contains_key(&o.data);
                    let private = |k| match &o.window {
                        WindowPlan::Scalar(offset) => {
                            distinct(k, offset)
                                || o.subset.dims.iter().any(|r| distinct(k, &index(r)))
                        }
                        _ => false,
                    };
                    o.atomic = shared && self.chunk_param.is_some_and(|k| !private(k));
                }
                ctx.cfg.plan_cache.note_point_compile();
                let cctx = self.compile_ctx(folded);
                let (cached, capped) = ctx.plan.insert_tasklet(key, cctx, Arc::new(bt));
                if capped {
                    let label = ctx.sdfg.state(sid).graph.node(n).label();
                    record_variant_cap(ctx.chash, &label);
                }
                cached
            }
        };
        if self.stable {
            self.prog_cache.insert(key, cached.clone());
        }
        Ok(cached)
    }

    /// Fingerprint of everything compilation reads beyond the graph and
    /// the launch-invariant bindings (see [`CompileCtx`]), for an artifact
    /// that folded the constants in `folded`. Allocates; only built when
    /// something was compiled.
    pub(crate) fn compile_ctx(&self, mut folded: Vec<(usize, i64)>) -> CompileCtx {
        folded.sort_unstable();
        folded.dedup();
        let mut locals: Vec<String> = self.locals.keys().cloned().collect();
        locals.sort_unstable();
        CompileCtx {
            pstack: self.pstack.clone(),
            pcounts: self.pcounts.clone(),
            chunk: self.chunk_param,
            locals,
            jit: self.ctx.cfg.jit,
            folded,
        }
    }

    /// Resolves a container, preferring thread-local overlays.
    pub(crate) fn buf(&self, name: &str) -> Result<&SharedBuffer, ExecError> {
        if let Some(b) = self.locals.get(name) {
            return Ok(b);
        }
        self.ctx.buf(name)
    }

    /// Slot-indexed buffer resolution for hot loops: valid whenever the
    /// worker has no local overlays (checked by the caller once per loop).
    #[inline]
    pub(crate) fn buf_slot(
        &self,
        slot: Option<usize>,
        name: &str,
    ) -> Result<&SharedBuffer, ExecError> {
        if self.locals.is_empty() {
            if let Some(i) = slot {
                return Ok(&self.ctx.bufs[i]);
            }
        }
        self.buf(name)
    }
}

impl<'s> Executor<'s> {
    /// An executor for one run of `sdfg` (whose content hash is `chash`)
    /// over the given bindings.
    pub(crate) fn new(
        sdfg: &'s Sdfg,
        chash: u64,
        cfg: RunConfig,
        symbols: Env,
        arrays: HashMap<String, Vec<f64>>,
    ) -> Executor<'s> {
        Executor {
            sdfg,
            chash,
            cfg,
            arrays,
            streams: HashMap::new(),
            symbols,
            owned: HashSet::new(),
            report: None,
            plan: None,
        }
    }

    /// Runs the SDFG on the host; returns the run's statistics.
    pub(crate) fn run(&mut self) -> Result<Stats, ExecError> {
        self.run_with(0, |ctx, symbols| {
            crate::dispatch::drive_loop(ctx, symbols, true, exec_state)
        })
    }

    /// The run protocol: allocate, lay out buffers, build the run context,
    /// hand control to `drive` (with the initial symbols), then tear down
    /// and snapshot statistics. [`Executor::run`] drives every state on
    /// the host; a session with device backends substitutes its routed
    /// drive loop. `target_tag` partitions the plan cache by target
    /// assignment.
    pub(crate) fn run_with<F>(&mut self, target_tag: u64, drive: F) -> Result<Stats, ExecError>
    where
        F: FnOnce(&Ctx<'s>, &Env) -> Result<(), ExecError>,
    {
        // The run's own counters: every event below is counted here.
        let stats = AtomicStats::default();
        self.prepare(&stats)?;
        // Buffers take slots in sorted-name order, so the layout is
        // deterministic for one set of containers; the set is part of the
        // plan key, since compiled artifacts index buffers by slot.
        let mut names: Vec<String> = self.arrays.keys().cloned().collect();
        names.sort_unstable();
        let key = PlanKey::new(self.chash, &self.symbols, names.clone()).with_target(target_tag);
        let (plan, hit) = self.cfg.plan_cache.lookup(key);
        let lookups = if hit {
            &stats.plan_cache_hits
        } else {
            &stats.plan_cache_misses
        };
        lookups.fetch_add(1, Ordering::Relaxed);
        self.plan = Some(plan.clone());
        let sdfg = self.sdfg;
        // Move arrays into shared buffers (slot-indexed for hot paths).
        let mut bufs = Vec::with_capacity(names.len());
        let mut buf_index = HashMap::with_capacity(names.len());
        for (i, k) in names.iter().enumerate() {
            buf_index.insert(k.clone(), i);
            bufs.push(SharedBuffer::new(self.arrays.remove(k).unwrap()));
        }
        // Containers the interstate environment exposes as pseudo-symbols
        // (the classification the reference interpreter makes per transition).
        let mut scalarish: Vec<(String, usize)> = Vec::new();
        for (name, desc) in &sdfg.data {
            let is_scalarish = match desc {
                DataDesc::Scalar(_) => true,
                DataDesc::Array(_) => buf_index.get(name).is_some_and(|&i| bufs[i].len() == 1),
                DataDesc::Stream(_) => false,
            };
            if is_scalarish {
                if let Some(&i) = buf_index.get(name) {
                    scalarish.push((name.clone(), i));
                }
            }
        }
        let mut shadow: std::collections::HashSet<String> =
            scalarish.iter().map(|(n, _)| n.clone()).collect();
        let stream_lens: Vec<(String, String)> = self
            .streams
            .keys()
            .map(|name| (format!("len_{name}"), name.clone()))
            .collect();
        shadow.extend(stream_lens.iter().map(|(key, _)| key.clone()));
        let inv = plan.invariants(sdfg, &self.symbols);
        let mut ctx = Ctx {
            sdfg,
            bufs,
            buf_index,
            streams: self
                .streams
                .drain()
                .map(|(k, v)| (k, Mutex::new(v)))
                .collect(),
            stats,
            prof: Prof::build(sdfg, self.cfg.profiling),
            plan,
            // JIT tier enablement: the environment gate wins over the
            // request.
            cfg: RunConfig {
                jit: crate::jit::env_enabled() && self.cfg.jit,
                ..self.cfg.clone()
            },
            chash: self.chash,
            scalarish,
            shadow,
            stream_lens,
            inv,
        };
        let result = drive(&ctx, &self.symbols);
        // Move storage back even on error.
        self.arrays = names
            .into_iter()
            .zip(ctx.bufs.drain(..))
            .map(|(k, v)| (k, v.into_inner()))
            .collect();
        self.streams = ctx
            .streams
            .drain()
            .map(|(k, v)| (k, v.into_inner()))
            .collect();
        self.report = ctx.prof.take().map(|p| {
            // Spans are process-epoch stamped; the run's wall time is the
            // collector's own age (it is built at run start).
            let wall = p.collector.elapsed();
            let mut report = p.collector.finish(wall);
            (report.exec, report.sched) = always_on_counters(
                &self.cfg.plan_cache,
                &self.cfg.pool,
                self.cfg.sched.as_deref(),
            );
            report
        });
        result?;
        Ok(ctx.stats.snapshot())
    }

    /// Moves the caller-visible containers out: every array but the
    /// transients the run allocated, which return to the pool on drop.
    pub(crate) fn take_outputs(&mut self) -> HashMap<String, Vec<f64>> {
        let owned = &self.owned;
        let (kept, outputs) = std::mem::take(&mut self.arrays)
            .into_iter()
            .partition(|(name, _)| owned.contains(name));
        self.arrays = kept;
        outputs
    }

    /// Binds every container the graph declares: bound arrays are checked
    /// against their shape, unbound transients come from the pool, unbound
    /// scalars start at zero, streams start empty.
    fn prepare(&mut self, run: &AtomicStats) -> Result<(), ExecError> {
        for (name, desc) in &self.sdfg.data {
            match desc {
                DataDesc::Array(a) => {
                    let mut size = 1i64;
                    for d in &a.shape {
                        size = size.saturating_mul(d.eval(&self.symbols)?.max(0));
                    }
                    let size = size as usize;
                    match self.arrays.get(name) {
                        Some(v) if v.len() != size => {
                            return Err(ExecError::SizeMismatch {
                                name: name.clone(),
                                expected: size,
                                got: v.len(),
                            });
                        }
                        Some(_) => {}
                        None if a.transient => {
                            self.arrays
                                .insert(name.clone(), self.cfg.pool.acquire(size, run));
                            self.owned.insert(name.clone());
                        }
                        None => return Err(ExecError::MissingArray(name.clone())),
                    }
                }
                DataDesc::Scalar(sc) => {
                    if !self.arrays.contains_key(name) {
                        self.arrays.insert(name.clone(), vec![0.0]);
                        if sc.transient {
                            self.owned.insert(name.clone());
                        }
                    }
                }
                DataDesc::Stream(_) => {
                    self.streams.entry(name.clone()).or_default();
                }
            }
        }
        Ok(())
    }
}

/// The always-on cumulative counters of a plan cache, buffer pool and
/// scheduler, as the counters footer and instrumentation reports show
/// them: the scheduler's per-worker lines once it has run a launch.
pub(crate) fn always_on_counters(
    cache: &PlanCache,
    pool: &BufferPool,
    sched: Option<&crate::sched::SchedPool>,
) -> (sdfg_profile::ExecCounters, Vec<sdfg_profile::SchedWorker>) {
    let (c, p) = (cache.stats(), pool.stats());
    let exec = sdfg_profile::ExecCounters {
        plan_cache_hits: c.hits,
        plan_cache_misses: c.misses,
        pool_acquires: p.acquires,
        pool_reuses: p.reuses,
        pool_bytes_reused: p.bytes_reused,
    };
    let workers = sched
        .map(|s| s.stats())
        .filter(|s| s.launches > 0)
        .map(|s| s.workers)
        .unwrap_or_default();
    (exec, workers)
}

impl Drop for Executor<'_> {
    fn drop(&mut self) {
        // Run-allocated transients go back to the pool for whoever shares
        // it next; caller-provided arrays stay with the caller.
        for name in std::mem::take(&mut self.owned) {
            if let Some(v) = self.arrays.remove(&name) {
                self.cfg.pool.release(v);
            }
        }
    }
}

#[cfg(test)]
impl RunConfig {
    /// A configuration with a private plan cache and buffer pool and no
    /// transition cap.
    pub(crate) fn private(nthreads: usize) -> RunConfig {
        RunConfig {
            nthreads,
            max_transitions: usize::MAX,
            jit: true,
            profiling: Profiling::Off,
            plan_cache: Arc::default(),
            pool: Arc::default(),
            sched: crate::session::shared_scheduler(nthreads),
            deadline: None,
            deadline_ms: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_core::DType;
    use sdfg_frontend::SdfgBuilder;

    /// Two array sets of one program lay their buffers out in different
    /// slots, so each gets its own plan; a repeated set hits its plan, and
    /// every run is bitwise the interpreter's.
    #[test]
    fn each_array_set_gets_its_own_plan() {
        let mut b = SdfgBuilder::new("ew");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.array("B", &["N"], DType::F64);
        b.array("C", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "f",
            &[("i", "0:N")],
            &[("a", "A", "i"), ("b", "B", "i")],
            "c = a * 2 + b",
            &[("c", "C", "i")],
        );
        let sdfg = b.build().unwrap();
        let chash = sdfg_core::serialize::content_hash(&sdfg);
        let cfg = RunConfig::private(1);
        let n = 16usize;
        let a: Vec<f64> = (0..n).map(|x| x as f64 / 3.0).collect();
        let b: Vec<f64> = (0..n).map(|x| (x * 3 % 7) as f64).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut interp = sdfg_interp::Interpreter::new(&sdfg);
        interp.set_symbol("N", n as i64);
        interp.set_array("A", a.clone());
        interp.set_array("B", b.clone());
        interp.set_array("C", vec![0.0; n]);
        interp.run().expect("interp");
        let want = bits(interp.array("C"));
        // "Aux" is bound but unused: it sorts first, so every slot shifts.
        for extra in [None, Some("Aux"), None, Some("Aux")] {
            let mut arrays = HashMap::from([
                ("A".to_string(), a.clone()),
                ("B".to_string(), b.clone()),
                ("C".to_string(), vec![0.0; n]),
            ]);
            if let Some(name) = extra {
                arrays.insert(name.to_string(), vec![0.0; 4]);
            }
            let symbols = Env::from([("N".to_string(), n as i64)]);
            let mut ex = Executor::new(&sdfg, chash, cfg.clone(), symbols, arrays);
            ex.run().expect("run");
            assert_eq!(bits(&ex.take_outputs()["C"]), want, "extra {extra:?}");
        }
        let s = cfg.plan_cache.stats();
        assert_eq!((s.misses, s.hits), (2, 2), "one plan per array set");
        assert_eq!(cfg.plan_cache.len(), 2);
    }
}

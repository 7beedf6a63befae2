//! The execution engine: state machine driver, map compilation, parallel
//! loop nests, native kernels.

use crate::affine::Solver;
use crate::buffer::SharedBuffer;
use crate::cpu::MapPlan;
use crate::dispatch::exec_state;
use crate::plan::{
    record_variant_cap, Cached, CompileCtx, ExecutionPlan, Invariants, PlanCache, PlanKey,
    StatePlan,
};
use crate::pool::BufferPool;
use crate::stats::{AtomicStats, Stats};
use crate::tasklet::{compile_body_tasklet, BodyTasklet, OutPortPlan, WindowPlan};
use parking_lot::Mutex;
use sdfg_core::desc::DataDesc;
use sdfg_core::{Instrument, Node, Sdfg, StateId};
use sdfg_graph::NodeId;
use sdfg_lang::{LangError, RuntimeError, TaskletVm};
use sdfg_profile::{
    InstrumentationReport, Mode as ProfMode, ProfileCollector, Profiling, SpanKey, Tier,
    WorkerProfile,
};
use sdfg_symbolic::{Env, EvalError};
use sdfg_transforms::{OptLevel, OptimizationReport};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

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

/// The optimizing executor. API mirrors the reference interpreter.
pub struct Executor<'s> {
    pub(crate) sdfg: &'s Sdfg,
    /// Array storage by name.
    pub arrays: HashMap<String, Vec<f64>>,
    /// Stream contents by name.
    pub streams: HashMap<String, VecDeque<f64>>,
    /// Symbol bindings.
    pub symbols: Env,
    /// Worker thread count (defaults to `SDFG_NTHREADS` when set, else
    /// available parallelism). The scheduler pool is rebuilt to match on
    /// the next `run`.
    pub nthreads: usize,
    /// Maximum state transitions.
    pub max_transitions: usize,
    /// Statistics from the last `run`.
    pub stats: Stats,
    /// Profiling switch for the next `run` (default off).
    pub profiling: Profiling,
    /// Instrumentation report from the last profiled `run`.
    pub last_report: Option<InstrumentationReport>,
    /// Cross-run plan cache (private per executor by default; shareable
    /// via [`Executor::with_plan_cache`]).
    pub(crate) plan_cache: std::sync::Arc<PlanCache>,
    /// Transient/scratch buffer pool (shareable via
    /// [`Executor::with_buffer_pool`]).
    pub(crate) pool: std::sync::Arc<BufferPool>,
    /// The persistent work-stealing scheduler pool: built lazily on the
    /// first `run` with `nthreads > 1` (and rebuilt if the thread count
    /// changes), shared with nested-SDFG executors. `None` while serial.
    pub(crate) sched: Option<std::sync::Arc<crate::sched::SchedPool>>,
    /// Memoized content hash of the graph — sound to compute once because
    /// the caller's SDFG sits behind an immutable borrow for the
    /// executor's whole lifetime.
    pub(crate) sdfg_hash: Option<u64>,
    /// The executor runs the graph it borrows as-is; optimization is the
    /// job of [`crate::session::Session`], which hands over the pipeline's
    /// output and describes the pipeline that produced it in the two
    /// fields below (for reports and the run ledger).
    pub(crate) opt_level: OptLevel,
    /// Report from the pipeline run that produced the borrowed graph.
    pub(crate) opt_report: Option<OptimizationReport>,
    /// Wall-clock deadline for the next `run`: checked between state
    /// executions and between slices of a collapsed loop, so an expired
    /// deadline cancels the run with [`ExecError::Timeout`] without
    /// tearing down mid-state.
    pub(crate) deadline: Option<std::time::Instant>,
    /// Millisecond budget behind `deadline` (for the error message).
    pub(crate) deadline_ms: u64,
    /// Transient containers this executor allocated itself (as opposed to
    /// arrays the caller bound): these are reset per run and returned to
    /// the pool on drop; caller-provided storage is never touched.
    pub(crate) owned_transients: HashSet<String>,
    /// Backend label attached to this executor's runs in the metrics
    /// registry and the run ledger (`"cpu"` unless a heterogeneous
    /// [`crate::dispatch::Runtime`] drives it).
    pub(crate) run_target: String,
    /// JIT tier request for subsequent runs (default on). The `SDFG_JIT`
    /// environment variable gates the tier globally either way.
    pub(crate) jit: bool,
    /// The execution plan consulted by the last `run` (feeds
    /// [`Executor::lowering_report`]).
    pub(crate) last_plan: Option<std::sync::Arc<ExecutionPlan>>,
}

/// Pre-resolved profiling plan: per-scope modes are looked up once per
/// state execution / map launch, never per point. `None` in `Ctx::prof`
/// is the zero-overhead path.
pub(crate) struct Prof {
    /// The engine switch this plan was resolved from (nested SDFG runs
    /// inherit it).
    pub(crate) profiling: Profiling,
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
            profiling,
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
    pub(crate) nthreads: usize,
    /// Profiling plan; `None` when profiling is off.
    pub(crate) prof: Option<Prof>,
    /// The execution plan for this (SDFG, symbol bindings) pair: workers
    /// consult and populate it so lowering survives across runs.
    pub(crate) plan: std::sync::Arc<ExecutionPlan>,
    /// The cache the plan came from, inherited by nested SDFG executors.
    pub(crate) plan_cache: std::sync::Arc<PlanCache>,
    /// Scratch allocator for worker-local transients, shared with the
    /// executor's transient storage.
    pub(crate) pool: std::sync::Arc<BufferPool>,
    /// Work-stealing scheduler for parallel map launches (`None` while
    /// serial).
    pub(crate) sched: Option<std::sync::Arc<crate::sched::SchedPool>>,
    /// Wall-clock deadline for this run; the drive loop checks it between
    /// state executions (and between slices of a collapsed loop) and
    /// cancels with [`ExecError::Timeout`].
    pub(crate) deadline: Option<std::time::Instant>,
    /// Millisecond budget behind `deadline` (for the error message).
    pub(crate) deadline_ms: u64,
    /// Whether the JIT lowering tier — per-map kernels and whole-nest
    /// lowering (loop collapse, tile→nest-call dispatch) alike — is enabled
    /// for this run (also part of the plan's compile fingerprint, so
    /// lowerings never alias across configurations).
    pub(crate) jit: bool,
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
    pub(crate) inv: std::sync::Arc<Invariants>,
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
    pub(crate) row_nest: Option<std::sync::Arc<crate::nest::MapNestPlan>>,
    /// Index (into `pstack`) of the chunk-partitioned parameter when this
    /// worker runs inside a parallel region; `None` = no concurrent writers.
    pub(crate) chunk_param: Option<usize>,
    /// Per-worker caches in front of the shared plan, keyed by (state,
    /// node) — lock-free on the hot path. An entry is reused only while
    /// its compile context still matches where the worker stands.
    pub(crate) prog_cache: HashMap<(u32, u32), Cached<BodyTasklet>>,
    pub(crate) map_cache: HashMap<(u32, u32), Cached<MapPlan>>,
    /// Structural state plans by state id.
    splans: Vec<Option<std::sync::Arc<StatePlan>>>,
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
    pub(crate) fn state_plan(
        &mut self,
        sid: StateId,
    ) -> Result<std::sync::Arc<StatePlan>, ExecError> {
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
            self.ctx.pool.release(buf.into_inner());
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
    ) -> Result<std::sync::Arc<BodyTasklet>, ExecError> {
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
                for o in bt.outs.iter_mut() {
                    o.atomic = self.needs_atomic(o);
                }
                ctx.plan_cache.note_point_compile();
                let cctx = self.compile_ctx(folded);
                let (cached, capped) = ctx.plan.insert_tasklet(key, cctx, std::sync::Arc::new(bt));
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
            jit: self.ctx.jit,
            folded,
        }
    }

    /// Race analysis for a WCR output port: atomic hardware is required
    /// only when another worker may combine into the same element. Writes
    /// are provably private when (a) no parallel region is active, (b) the
    /// target is a thread-local transient, or (c) the flat offset is affine
    /// with a chunk-parameter coefficient that dominates the combined span
    /// of every other parameter (so different chunks write disjoint
    /// elements) — the same analysis DaCe's code generator uses to elide
    /// `#pragma omp atomic`.
    fn needs_atomic(&self, o: &OutPortPlan) -> bool {
        if o.wcr.is_none() {
            return false;
        }
        if self.locals.contains_key(&o.data) {
            return false; // thread-local
        }
        let Some(chunk) = self.chunk_param else {
            return false; // no concurrent writers
        };
        let WindowPlan::Scalar(solved) = &o.window else {
            return true;
        };
        let Some(cp) = solved.coeff(chunk) else {
            return true;
        };
        if cp == 0 {
            return true;
        }
        let mut span: i64 = 0;
        for d in 0..self.pstack.len() {
            if d == chunk {
                continue;
            }
            let Some(c) = solved.coeff(d) else {
                return true;
            };
            let n = self.pcounts.get(d).copied().unwrap_or(i64::MAX / 4);
            span = span.saturating_add(
                (c.unsigned_abs().min(i64::MAX as u64 / 4) as i64)
                    .saturating_mul((n.max(1) - 1).min(i64::MAX / 8)),
            );
            if span < 0 {
                return true;
            }
        }
        cp.unsigned_abs() as i64 > span
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
    /// Creates an executor for an SDFG.
    pub fn new(sdfg: &'s Sdfg) -> Executor<'s> {
        Executor {
            sdfg,
            arrays: HashMap::new(),
            streams: HashMap::new(),
            symbols: Env::new(),
            nthreads: crate::sched::env_nthreads().unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
            max_transitions: 10_000_000,
            stats: Stats::default(),
            profiling: Profiling::default(),
            last_report: None,
            plan_cache: std::sync::Arc::new(PlanCache::new()),
            pool: std::sync::Arc::new(BufferPool::new()),
            sched: None,
            sdfg_hash: None,
            opt_level: OptLevel::None,
            opt_report: None,
            deadline: None,
            deadline_ms: 0,
            owned_transients: HashSet::new(),
            run_target: "cpu".to_string(),
            jit: true,
            last_plan: None,
        }
    }

    /// The optimization level of the pipeline that produced this graph
    /// (`None` unless a [`crate::session::Session`] drives the executor).
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// Report from that optimization pipeline, if one ran.
    pub fn opt_report(&self) -> Option<&OptimizationReport> {
        self.opt_report.as_ref()
    }

    /// Shares a plan cache with other executors, so lowering one SDFG once
    /// serves every executor running it (service-style traffic). The
    /// content-hash key keeps distinct programs from colliding.
    pub fn with_plan_cache(&mut self, cache: std::sync::Arc<PlanCache>) -> &mut Self {
        self.plan_cache = cache;
        self
    }

    /// Shares a buffer pool with other executors, recycling transient and
    /// scratch allocations across them.
    pub fn with_buffer_pool(&mut self, pool: std::sync::Arc<BufferPool>) -> &mut Self {
        self.pool = pool;
        self
    }

    /// The plan cache this executor consults.
    pub fn plan_cache(&self) -> &std::sync::Arc<PlanCache> {
        &self.plan_cache
    }

    /// The buffer pool this executor allocates transients from.
    pub fn buffer_pool(&self) -> &std::sync::Arc<BufferPool> {
        &self.pool
    }

    /// Plan-cache hit/miss counters (cumulative for the cache, which may
    /// be shared).
    pub fn cache_stats(&self) -> crate::plan::CacheStats {
        self.plan_cache.stats()
    }

    /// Buffer-pool counters (cumulative for the pool, which may be shared).
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.pool.stats()
    }

    /// The cheap always-on counters (plan cache, buffer pool) as one
    /// [`sdfg_profile::ExecCounters`] — available regardless of the
    /// profiling mode, including `Profiling::Off`.
    pub fn exec_counters(&self) -> sdfg_profile::ExecCounters {
        always_on_counters(&self.plan_cache, &self.pool, None).0
    }

    /// Renders the hot-path counters footer (plan-cache/pool counters and
    /// per-worker scheduler lines) from the always-on counters. Unlike
    /// [`Executor::last_report`], this never requires instrumentation to
    /// be enabled: it works after a `Profiling::Off` run too.
    pub fn counters_footer(&self) -> String {
        let (exec, sched) = always_on_counters(&self.plan_cache, &self.pool, self.sched.as_deref());
        sdfg_profile::counters_footer(&exec, &sched)
    }

    /// Stable content hash of the graph (memoized after the first call).
    /// This is the plan-cache key.
    pub fn content_hash(&mut self) -> u64 {
        let sdfg = self.sdfg;
        *self
            .sdfg_hash
            .get_or_insert_with(|| sdfg_core::serialize::content_hash(sdfg))
    }

    /// Sets the profiling switch for subsequent `run`s.
    pub fn enable_profiling(&mut self, profiling: Profiling) -> &mut Self {
        self.profiling = profiling;
        self
    }

    /// Work-stealing scheduler counters: per-worker tiles/steals/idle plus
    /// launch totals, cumulative for the pool (which nested executors
    /// share). `None` until a `run` has built the pool — i.e. while
    /// serial.
    pub fn sched_stats(&self) -> Option<crate::sched::SchedStats> {
        self.sched.as_ref().map(|p| p.stats())
    }

    /// Binds a symbol.
    pub fn set_symbol(&mut self, name: &str, value: i64) -> &mut Self {
        self.symbols.insert(name.to_string(), value);
        self
    }

    /// Provides an array. Binding a name the executor had auto-allocated
    /// transfers ownership to the caller: the data is no longer reset or
    /// pooled between runs.
    pub fn set_array(&mut self, name: &str, data: Vec<f64>) -> &mut Self {
        self.owned_transients.remove(name);
        self.arrays.insert(name.to_string(), data);
        self
    }

    /// Reads an array after `run`.
    ///
    /// Panics when `name` is unknown; prefer [`Executor::try_array`] in
    /// code that must report the failure instead.
    pub fn array(&self, name: &str) -> &[f64] {
        self.try_array(name)
            .unwrap_or_else(|| panic!("array `{name}` not present"))
    }

    /// Reads an array after `run`, returning `None` when no container of
    /// that name is bound (the non-panicking form of [`Executor::array`]).
    pub fn try_array(&self, name: &str) -> Option<&[f64]> {
        self.arrays.get(name).map(|v| v.as_slice())
    }

    /// Runs the SDFG; returns execution statistics.
    ///
    /// Repeat runs reuse the lowered plan: the plan cache is keyed by the
    /// SDFG's content hash plus the symbol bindings, so the second `run`
    /// with unchanged bindings skips scope derivation, tasklet compilation
    /// and map planning entirely.
    pub fn run(&mut self) -> Result<Stats, ExecError> {
        self.run_with(0, |ex, ctx| ex.drive(ctx))
    }

    /// Per-map lowering decisions recorded by the last `run`: which tier
    /// each map body was lowered to (`jit`, `native`, `affine-vm`,
    /// `symbolic`) and, when the JIT tier was enabled but declined, why.
    /// Empty before the first run (or when no map was planned).
    pub fn lowering_report(&self) -> Vec<crate::lower::MapLowering> {
        self.last_plan
            .as_ref()
            .map(|p| p.lowerings())
            .unwrap_or_default()
    }

    /// Shared run protocol: allocate, lay out buffers, build the
    /// run context, hand control to `drive`, then tear down and snapshot
    /// statistics. [`Executor::run`] drives every state on the host;
    /// [`crate::dispatch::Runtime`] substitutes its own per-backend drive
    /// loop. `target_tag` partitions the plan cache by target assignment.
    pub(crate) fn run_with<F>(&mut self, target_tag: u64, drive: F) -> Result<Stats, ExecError>
    where
        F: for<'a, 'b> FnOnce(&'a Self, &'b Ctx<'a>) -> Result<(), ExecError>,
    {
        let run_t0 = std::time::Instant::now();
        // The run's own counters: every event below is counted here.
        let stats = AtomicStats::default();
        self.prepare(&stats)?;
        let chash = self.content_hash();
        // Keep the scheduler pool in sync with the requested thread count
        // (a serial run has none).
        let nthreads = self.nthreads.max(1);
        if nthreads > 1 {
            let rebuild = match &self.sched {
                Some(p) => p.nworkers() != nthreads,
                None => true,
            };
            if rebuild {
                self.sched = Some(std::sync::Arc::new(crate::sched::SchedPool::new(nthreads)));
            }
        } else {
            self.sched = None;
        }
        let key = PlanKey::new(chash, &self.symbols).with_target(target_tag);
        let (plan, hit) = self.plan_cache.lookup(key);
        let lookups = if hit {
            &stats.plan_cache_hits
        } else {
            &stats.plan_cache_misses
        };
        lookups.fetch_add(1, Ordering::Relaxed);
        self.last_plan = Some(plan.clone());
        // JIT tier enablement: the environment gate wins over the request.
        let jit = crate::jit::env_enabled() && self.jit;
        let sdfg = self.sdfg;
        // Move arrays into shared buffers (slot-indexed for hot paths).
        // Slots are assigned in sorted-name order so they are deterministic
        // run to run; `ensure_layout` drops slot-dependent plan artifacts
        // if the bound-array set ever changes.
        let mut names: Vec<String> = self.arrays.keys().cloned().collect();
        names.sort_unstable();
        plan.ensure_layout(&names);
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
            nthreads: self.nthreads.max(1),
            prof: Prof::build(sdfg, self.profiling),
            plan,
            plan_cache: self.plan_cache.clone(),
            pool: self.pool.clone(),
            sched: self.sched.clone(),
            deadline: self.deadline,
            deadline_ms: self.deadline_ms,
            jit,
            chash,
            scalarish,
            shadow,
            stream_lens,
            inv,
        };
        let result = drive(self, &ctx);
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
        self.stats = ctx.stats.snapshot();
        self.last_report = ctx.prof.take().map(|p| {
            // Spans are process-epoch stamped; the run's wall time is the
            // collector's own age (it is built at run start).
            let wall = p.collector.elapsed();
            let mut report = p.collector.finish(wall);
            (report.exec, report.sched) =
                always_on_counters(&self.plan_cache, &self.pool, self.sched.as_deref());
            report
        });
        result?;
        self.observe_run(chash, run_t0.elapsed());
        Ok(self.stats.clone())
    }

    /// Always-on observability for one completed run: bumps the global
    /// metrics registry and appends the run-ledger record. Costs a handful
    /// of relaxed atomic adds per run; the ledger branch is a single
    /// relaxed load when disabled.
    fn observe_run(&self, chash: u64, wall: Duration) {
        use sdfg_profile::{ledger, metrics};
        let wall_ms = wall.as_secs_f64() * 1e3;
        let s = &self.stats;
        let m = metrics::core();
        if self.run_target == "cpu" {
            m.launches.inc();
            m.launch_duration_ms.observe(wall_ms);
        } else {
            // Non-default backend sets are rare (one resolution per run,
            // off the tile hot path), so resolve the labelled series here.
            let g = metrics::global();
            g.counter(
                "sdfg_launches_total",
                "Executor/runtime run invocations by backend.",
                &[("backend", &self.run_target)],
            )
            .inc();
            g.histogram(
                "sdfg_launch_duration_ms",
                "End-to-end wall time of executor runs, milliseconds.",
                &[("backend", &self.run_target)],
                &metrics::default_duration_buckets_ms(),
            )
            .observe(wall_ms);
        }
        let counters = s.counters();
        for (series, &v) in m.run.iter().zip(&counters) {
            if let (Some(c), true) = (series, v > 0) {
                c.add(v);
            }
        }
        let local_bytes = s.elements_copied.saturating_mul(8);
        if local_bytes > 0 {
            m.bytes_local.add(local_bytes);
        }
        let par = s.parallel_regions.min(s.map_launches);
        if par > 0 {
            m.map_launches_par.add(par);
        }
        if s.map_launches > par {
            m.map_launches_seq.add(s.map_launches - par);
        }
        if ledger::enabled() {
            let mut rec = ledger::RunRecord {
                seq: 0,
                content_hash: format!("{chash:016x}"),
                target: self.run_target.clone(),
                opt_level: format!("{:?}", self.opt_level),
                nthreads: self.nthreads.max(1),
                wall_ms,
                bytes_moved: local_bytes,
                counters,
                // Tenant/request tags are stamped from the thread's
                // request scope by `ledger::append`.
                ..Default::default()
            };
            ledger::append(&mut rec);
        }
    }

    fn drive(&self, ctx: &Ctx<'_>) -> Result<(), ExecError> {
        crate::dispatch::drive_loop(self.max_transitions, &self.symbols, ctx, true, exec_state)
    }

    fn prepare(&mut self, run: &AtomicStats) -> Result<(), ExecError> {
        for (name, desc) in &self.sdfg.data {
            match desc {
                DataDesc::Array(a) => {
                    let mut size = 1i64;
                    for d in &a.shape {
                        size = size.saturating_mul(d.eval(&self.symbols)?.max(0));
                    }
                    let size = size as usize;
                    let owned = self.owned_transients.contains(name);
                    match self.arrays.get_mut(name) {
                        Some(v) if v.len() != size => {
                            if a.transient && owned {
                                // Symbol-driven reshape of an executor-owned
                                // transient: recycle the storage.
                                self.pool.release(std::mem::take(v));
                                *v = self.pool.acquire(size, run);
                            } else {
                                return Err(ExecError::SizeMismatch {
                                    name: name.clone(),
                                    expected: size,
                                    got: v.len(),
                                });
                            }
                        }
                        Some(v) => {
                            // Reset-not-free: executor-owned transients are
                            // zeroed in place so every run starts from the
                            // state a fresh allocation (and the reference
                            // interpreter) would see. Caller-provided
                            // arrays are never touched.
                            if a.transient && owned {
                                v.fill(0.0);
                            }
                        }
                        None if a.transient => {
                            self.arrays
                                .insert(name.clone(), self.pool.acquire(size, run));
                            self.owned_transients.insert(name.clone());
                        }
                        None => return Err(ExecError::MissingArray(name.clone())),
                    }
                }
                DataDesc::Scalar(sc) => match self.arrays.get_mut(name) {
                    Some(v) => {
                        if sc.transient && self.owned_transients.contains(name) {
                            v.fill(0.0);
                        }
                    }
                    None => {
                        self.arrays.insert(name.clone(), vec![0.0]);
                        if sc.transient {
                            self.owned_transients.insert(name.clone());
                        }
                    }
                },
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
        // Executor-owned transients go back to the pool for whoever shares
        // it next; caller-provided arrays stay with the caller.
        for name in std::mem::take(&mut self.owned_transients) {
            if let Some(v) = self.arrays.remove(&name) {
                self.pool.release(v);
            }
        }
    }
}

//! The embedding facade and the one way to run an SDFG: typed,
//! compile-once/invoke-many execution.
//!
//! * [`SessionBuilder`] — all configuration up front, validated once at
//!   [`SessionBuilder::build`] (the SDFG is structurally checked, so a
//!   session never executes a malformed graph). Simulated accelerators
//!   register as further [`Backend`]s; the host CPU backend is always
//!   there.
//! * [`Session`] — an immutable, `Sync`-shareable compiled program. The
//!   optimization pipeline runs once (lazily, on the first invoke, so
//!   cost hints see real symbol bindings); every [`Session::run`] then
//!   stamps out single-use engine state that shares the session's plan
//!   cache, buffer pool and work-stealing scheduler pool, which is what
//!   makes warm invokes cheap and concurrent invokes safe.
//!
//! Inputs travel in a [`Bindings`] value and results come back as
//! [`Outputs`]; both move their arrays (no cloning), and
//! [`Outputs::into_bindings`] closes the loop for benchmark-style warm
//! iteration. Everything returns [`SdfgError`] with stable codes —
//! unknown container names are `SDFG-X002`, shape mismatches `SDFG-X003`,
//! expired deadlines `SDFG-X004` — instead of panicking.

use crate::cpu::CpuBackend;
use crate::dispatch::{drive_routed, route_states, Backend, BackendStats};
use crate::engine::{Executor, RunConfig};
use crate::plan::{CacheStats, PlanCache};
use crate::pool::{BufferPool, PoolStats};
use crate::sched::{SchedPool, SchedStats};
use crate::stats::Stats;
use sdfg_core::desc::DataDesc;
use sdfg_core::{Sdfg, SdfgError};
use sdfg_profile::{InstrumentationReport, Profiling};
use sdfg_symbolic::Env;
use sdfg_transforms::{optimize_with_env, OptLevel, OptimizationReport};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Typed input bindings for one invoke: arrays and symbols, moved (not
/// copied) into the engine. Built fluently:
///
/// ```ignore
/// let inputs = Bindings::new()
///     .symbol("N", 64)
///     .array("A", &a)
///     .array_vec("B", b); // takes ownership, no copy
/// ```
#[derive(Default)]
pub struct Bindings {
    pub(crate) arrays: HashMap<String, Vec<f64>>,
    pub(crate) symbols: Env,
}

impl Bindings {
    /// An empty binding set.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Binds an array from a slice (copies the data).
    pub fn array(mut self, name: &str, data: &[f64]) -> Bindings {
        self.arrays.insert(name.to_string(), data.to_vec());
        self
    }

    /// Binds an array by value (no copy).
    pub fn array_vec(mut self, name: &str, data: Vec<f64>) -> Bindings {
        self.arrays.insert(name.to_string(), data);
        self
    }

    /// Binds a symbol.
    pub fn symbol(mut self, name: &str, value: i64) -> Bindings {
        self.symbols.insert(name.to_string(), value);
        self
    }

    /// The bound arrays, by name.
    pub fn arrays(&self) -> &HashMap<String, Vec<f64>> {
        &self.arrays
    }

    /// The bound symbols.
    pub fn symbols(&self) -> &Env {
        &self.symbols
    }
}

/// What one [`Session::run`] produced: the caller-visible arrays (bound
/// inputs plus engine-materialized non-transient containers), run
/// statistics, the instrumentation report when profiling was on, and the
/// per-backend totals when device backends are registered.
pub struct Outputs {
    arrays: HashMap<String, Vec<f64>>,
    symbols: Env,
    stats: Stats,
    report: Option<InstrumentationReport>,
    plan: Option<Arc<crate::plan::ExecutionPlan>>,
    backends: Vec<BackendStats>,
}

impl Outputs {
    /// Reads an array, failing with [`SdfgError::UnknownData`] when no
    /// container of that name came out of the run — transients the run
    /// allocated itself never do.
    pub fn array(&self, name: &str) -> Result<&[f64], SdfgError> {
        self.arrays
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| SdfgError::UnknownData {
                name: name.to_string(),
            })
    }

    /// Moves an array out of the result set.
    pub fn take_array(&mut self, name: &str) -> Result<Vec<f64>, SdfgError> {
        self.arrays
            .remove(name)
            .ok_or_else(|| SdfgError::UnknownData {
                name: name.to_string(),
            })
    }

    /// All result arrays by name.
    pub fn arrays(&self) -> &HashMap<String, Vec<f64>> {
        &self.arrays
    }

    /// Consumes the result set into its arrays.
    pub fn into_arrays(self) -> HashMap<String, Vec<f64>> {
        self.arrays
    }

    /// Statistics from the run.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The instrumentation report, when the session profiles.
    pub fn report(&self) -> Option<&InstrumentationReport> {
        self.report.as_ref()
    }

    /// Per-map lowering decisions of the plan this run consulted: which
    /// tier each map body was lowered to (`jit`, `native`, `affine-vm`,
    /// `symbolic`) and, when the JIT tier was enabled but declined, why.
    pub fn lowering_report(&self) -> Vec<crate::lower::MapLowering> {
        self.plan
            .as_ref()
            .map(|p| p.lowerings())
            .unwrap_or_default()
    }

    /// Per-backend totals of the run — state visits, scopes, modeled time,
    /// host↔device bytes — one entry per registered backend, host CPU
    /// first. Empty when the session has no device backend (the run then
    /// drives every state on the host, loop collapse included).
    pub fn backends(&self) -> &[BackendStats] {
        &self.backends
    }

    /// Re-wraps the outputs as the next invoke's bindings without copying
    /// any array — the warm-iteration idiom: outputs of run *n* become
    /// inputs of run *n + 1*.
    pub fn into_bindings(self) -> Bindings {
        Bindings {
            arrays: self.arrays,
            symbols: self.symbols,
        }
    }
}

/// Everything the one-time compile produced. Immutable once built, so
/// concurrent invokes can share it by reference.
struct Compiled {
    /// The optimized copy; `None` when the session runs the submitted
    /// graph as-is (`OptLevel::None`).
    sdfg: Option<Arc<Sdfg>>,
    /// Content hash of the *active* graph (the plan-cache key), memoized
    /// so warm invokes skip re-serializing the graph.
    hash: u64,
    report: Option<OptimizationReport>,
    /// Backend index per state id of the active graph, and the plan-cache
    /// tag fingerprinting that assignment (empty and 0 without device
    /// backends).
    routes: Vec<usize>,
    tag: u64,
}

/// Configures and builds a [`Session`]. Obtained from
/// [`Session::builder`].
pub struct SessionBuilder {
    sdfg: Sdfg,
    opt: OptLevel,
    nthreads: usize,
    max_transitions: usize,
    jit: bool,
    profiling: Profiling,
    plan_cache: Option<Arc<PlanCache>>,
    pool: Option<Arc<BufferPool>>,
    sched: Option<Arc<SchedPool>>,
    backends: Vec<Box<dyn Backend>>,
}

impl SessionBuilder {
    fn new(sdfg: Sdfg) -> SessionBuilder {
        SessionBuilder {
            sdfg,
            opt: OptLevel::None,
            nthreads: crate::sched::env_nthreads().unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
            max_transitions: 10_000_000,
            jit: true,
            profiling: Profiling::default(),
            plan_cache: None,
            pool: None,
            sched: None,
            backends: Vec::new(),
        }
    }

    /// Selects the optimization level (default: [`OptLevel::None`]). The
    /// pipeline runs once, lazily, on the first invoke, so cost hints see
    /// that invoke's symbol bindings.
    pub fn opt_level(mut self, level: OptLevel) -> SessionBuilder {
        self.opt = level;
        self
    }

    /// Forces the JIT native-code lowering tier on or off for every
    /// invoke (default: on).
    /// The `SDFG_JIT` environment variable still gates the tier globally:
    /// `SDFG_JIT=off` wins over `jit(true)`. Disabling the tier never
    /// changes results — lowering falls back to the interpreted tiers,
    /// bit for bit.
    pub fn jit(mut self, on: bool) -> SessionBuilder {
        self.jit = on;
        self
    }

    /// Pins the worker-thread count (default: `SDFG_NTHREADS`, else
    /// available parallelism). Clamped to at least 1.
    pub fn nthreads(mut self, n: usize) -> SessionBuilder {
        self.nthreads = n.max(1);
        self
    }

    /// Caps state-machine transitions per invoke.
    pub fn max_transitions(mut self, n: usize) -> SessionBuilder {
        self.max_transitions = n;
        self
    }

    /// Enables instrumentation for every invoke.
    pub fn profiling(mut self, profiling: Profiling) -> SessionBuilder {
        self.profiling = profiling;
        self
    }

    /// Shares a plan cache with other sessions (service-style traffic:
    /// one tenant's lowering work serves every tenant running the same
    /// program). Defaults to a private cache.
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> SessionBuilder {
        self.plan_cache = Some(cache);
        self
    }

    /// Shares a buffer pool with other sessions, recycling transient
    /// allocations across them. Defaults to a private pool.
    pub fn buffer_pool(mut self, pool: Arc<BufferPool>) -> SessionBuilder {
        self.pool = Some(pool);
        self
    }

    /// Shares a work-stealing scheduler pool with other sessions (see
    /// [`shared_scheduler`]). Ignored when its worker count does not
    /// match this session's thread count — the session then builds its
    /// own pool, rather than silently running with the wrong width.
    pub fn scheduler(mut self, pool: Arc<SchedPool>) -> SessionBuilder {
        self.sched = Some(pool);
        self
    }

    /// Registers a device backend (a simulated GPU or FPGA, say) after the
    /// host CPU backend, which is always first. With one registered, every
    /// invoke routes each state to the first backend supporting its
    /// top-level schedule, and [`Outputs::backends`] reports what each
    /// backend did.
    pub fn backend(mut self, backend: Box<dyn Backend>) -> SessionBuilder {
        self.backends.push(backend);
        self
    }

    /// Validates the SDFG and freezes the configuration into a
    /// [`Session`]. Fails with [`SdfgError::Validation`] on a malformed
    /// graph — a session never executes one.
    pub fn build(self) -> Result<Session, SdfgError> {
        sdfg_core::validate(&self.sdfg)?;
        let chash = sdfg_core::serialize::content_hash(&self.sdfg);
        let sched = match self.sched {
            Some(p) if p.nworkers() == self.nthreads => Some(p),
            _ => shared_scheduler(self.nthreads),
        };
        let mut backends: Vec<Box<dyn Backend>> = vec![Box::new(CpuBackend)];
        backends.extend(self.backends);
        let target = backends
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join("+");
        Ok(Session {
            sdfg: self.sdfg,
            chash,
            opt: self.opt,
            cfg: RunConfig {
                nthreads: self.nthreads,
                max_transitions: self.max_transitions,
                jit: self.jit,
                profiling: self.profiling,
                plan_cache: self.plan_cache.unwrap_or_default(),
                pool: self.pool.unwrap_or_default(),
                sched,
                deadline: None,
                deadline_ms: 0,
            },
            backends,
            target,
            compiled: OnceLock::new(),
        })
    }
}

/// Builds a steal-scheduler pool suitable for sharing across sessions
/// with the same thread count. `None` when `nthreads <= 1`: serial
/// sessions run without a pool.
pub fn shared_scheduler(nthreads: usize) -> Option<Arc<SchedPool>> {
    (nthreads > 1).then(|| Arc::new(SchedPool::new(nthreads)))
}

/// A compiled, immutable, `Sync`-shareable program: the compile-once/
/// invoke-many embedding of the engine. See the [module docs](self).
pub struct Session {
    sdfg: Sdfg,
    /// Content hash of the *submitted* (unoptimized) graph — the registry
    /// key.
    chash: u64,
    opt: OptLevel,
    /// What every invoke runs with (its deadline set per invoke).
    cfg: RunConfig,
    /// The host CPU backend, then the registered device backends.
    backends: Vec<Box<dyn Backend>>,
    /// The backend names joined by `+`: the run label in the metrics
    /// registry and the run ledger (`"cpu"` without device backends).
    target: String,
    compiled: OnceLock<Compiled>,
}

impl Session {
    /// Starts configuring a session over an owned SDFG.
    pub fn builder(sdfg: Sdfg) -> SessionBuilder {
        SessionBuilder::new(sdfg)
    }

    /// Runs the program with the given bindings.
    pub fn run(&self, bindings: Bindings) -> Result<Outputs, SdfgError> {
        self.invoke(bindings, None)
    }

    /// Runs the program under a wall-clock budget measured from this
    /// call. The deadline is checked between state executions and between
    /// slices of a loop collapsed into native code — an expired budget
    /// cancels with [`SdfgError::Timeout`] (`SDFG-X004`) without tearing
    /// down mid-state, so the shared plan cache and buffer pool stay
    /// consistent.
    pub fn run_deadline(&self, bindings: Bindings, budget: Duration) -> Result<Outputs, SdfgError> {
        self.invoke(bindings, Some(budget))
    }

    fn invoke(&self, bindings: Bindings, budget: Option<Duration>) -> Result<Outputs, SdfgError> {
        let mut cfg = self.cfg.clone();
        if let Some(b) = budget {
            cfg.deadline = Some(Instant::now() + b);
            cfg.deadline_ms = b.as_millis() as u64;
        }
        self.check_bindings(&bindings)?;
        let compiled = self.ensure_compiled(&bindings.symbols)?;
        let active: &Sdfg = compiled.sdfg.as_deref().unwrap_or(&self.sdfg);
        let Bindings { arrays, symbols } = bindings;
        // The run's wall time, as the metrics and the ledger report it,
        // leaves out binding checks and the one-time compile.
        let t0 = Instant::now();
        let mut ex = Executor::new(active, compiled.hash, cfg, symbols.clone(), arrays);
        let mut backends = Vec::new();
        let stats = if self.backends.len() > 1 {
            backends = self
                .backends
                .iter()
                .map(|b| BackendStats {
                    name: b.name().to_string(),
                    ..BackendStats::default()
                })
                .collect();
            ex.run_with(compiled.tag, |ctx, symbols| {
                drive_routed(
                    &self.backends,
                    &compiled.routes,
                    ctx,
                    symbols,
                    &mut backends,
                )
            })
        } else {
            ex.run()
        }?;
        self.observe_run(compiled.hash, &stats, t0.elapsed());
        Ok(Outputs {
            arrays: ex.take_outputs(),
            symbols,
            stats,
            report: ex.report.take(),
            plan: ex.plan.take(),
            backends,
        })
    }

    /// Always-on observability for one completed invoke: bumps the global
    /// metrics registry and appends the run-ledger record. Costs a handful
    /// of relaxed atomic adds per run; the ledger branch is a single
    /// relaxed load when disabled.
    fn observe_run(&self, chash: u64, s: &Stats, wall: Duration) {
        use sdfg_profile::{ledger, metrics};
        let wall_ms = wall.as_secs_f64() * 1e3;
        let m = metrics::core();
        if self.backends.len() == 1 {
            m.launches.inc();
            m.launch_duration_ms.observe(wall_ms);
        } else {
            // Device backend sets are rare (one resolution per run, off
            // the tile hot path), so resolve the labelled series here.
            let g = metrics::global();
            g.counter(
                "sdfg_launches_total",
                "Executor/runtime run invocations by backend.",
                &[("backend", &self.target)],
            )
            .inc();
            g.histogram(
                "sdfg_launch_duration_ms",
                "End-to-end wall time of executor runs, milliseconds.",
                &[("backend", &self.target)],
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
                target: self.target.clone(),
                opt_level: format!("{:?}", self.opt),
                nthreads: self.cfg.nthreads,
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

    /// Early, typed validation of the bindings against the submitted
    /// graph's data descriptors: unknown names fail with `SDFG-X002`,
    /// arrays whose length contradicts the declared shape (under the
    /// bound symbols) with `SDFG-X003`. Shapes that cannot be evaluated
    /// yet (symbols assigned by interstate edges) are left to the engine.
    fn check_bindings(&self, bindings: &Bindings) -> Result<(), SdfgError> {
        for (name, data) in &bindings.arrays {
            match self.sdfg.data.get(name) {
                None => {
                    return Err(SdfgError::UnknownData { name: name.clone() });
                }
                Some(DataDesc::Array(a)) => {
                    let mut size = 1i64;
                    let mut known = true;
                    for d in &a.shape {
                        match d.eval(&bindings.symbols) {
                            Ok(v) => size = size.saturating_mul(v.max(0)),
                            Err(_) => {
                                known = false;
                                break;
                            }
                        }
                    }
                    if known && data.len() != size as usize {
                        return Err(SdfgError::ShapeMismatch {
                            name: name.clone(),
                            expected: size as usize,
                            got: data.len(),
                        });
                    }
                }
                Some(DataDesc::Scalar(_)) => {
                    if data.len() != 1 {
                        return Err(SdfgError::ShapeMismatch {
                            name: name.clone(),
                            expected: 1,
                            got: data.len(),
                        });
                    }
                }
                Some(DataDesc::Stream(_)) => {
                    return Err(SdfgError::UnknownData { name: name.clone() });
                }
            }
        }
        Ok(())
    }

    /// Runs the optimization pipeline exactly once per session (first
    /// invoke wins; concurrent first invokes may both compile, but only
    /// one result is kept — the pipeline is deterministic, so both are
    /// identical). A failed compile is not cached: the next invoke
    /// retries.
    fn ensure_compiled(&self, symbols: &Env) -> Result<&Compiled, SdfgError> {
        if let Some(c) = self.compiled.get() {
            return Ok(c);
        }
        let c = self.compile(symbols)?;
        Ok(self.compiled.get_or_init(|| c))
    }

    fn compile(&self, symbols: &Env) -> Result<Compiled, SdfgError> {
        let (sdfg, hash, report) = if self.opt == OptLevel::None {
            (None, self.chash, None)
        } else {
            let mut opt = self.sdfg.clone();
            let report = optimize_with_env(&mut opt, self.opt, symbols)
                .map_err(|e| SdfgError::optimization("session-compile", e.to_string()))?;
            let hash = sdfg_core::serialize::content_hash(&opt);
            (Some(Arc::new(opt)), hash, Some(report))
        };
        let (routes, tag) = if self.backends.len() > 1 {
            route_states(&self.backends, sdfg.as_deref().unwrap_or(&self.sdfg))?
        } else {
            (Vec::new(), 0)
        };
        Ok(Compiled {
            sdfg,
            hash,
            report,
            routes,
            tag,
        })
    }

    /// The submitted program.
    pub fn sdfg(&self) -> &Sdfg {
        &self.sdfg
    }

    /// Stable content hash of the submitted (unoptimized) graph — what a
    /// registry keys programs by.
    pub fn content_hash(&self) -> u64 {
        self.chash
    }

    /// The optimization level the session compiles at.
    pub fn opt_level(&self) -> OptLevel {
        self.opt
    }

    /// The worker-thread count every invoke runs with.
    pub fn nthreads(&self) -> usize {
        self.cfg.nthreads
    }

    /// Report from the one-time optimization pipeline; `None` before the
    /// first invoke or at [`OptLevel::None`].
    pub fn opt_report(&self) -> Option<OptimizationReport> {
        self.compiled.get().and_then(|c| c.report.clone())
    }

    /// The plan cache invokes consult (possibly shared across sessions).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cfg.plan_cache
    }

    /// The buffer pool invokes allocate transients from.
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.cfg.pool
    }

    /// Plan-cache hit/miss counters (cumulative for the cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.cfg.plan_cache.stats()
    }

    /// Buffer-pool counters (cumulative for the pool).
    pub fn pool_stats(&self) -> PoolStats {
        self.cfg.pool.stats()
    }

    /// Work-stealing scheduler counters, cumulative for the shared pool;
    /// `None` while serial.
    pub fn sched_stats(&self) -> Option<SchedStats> {
        self.cfg.sched.as_ref().map(|p| p.stats())
    }

    /// The scheduler pool invokes run on, for sharing with further
    /// sessions of the same thread count.
    pub fn scheduler(&self) -> Option<&Arc<SchedPool>> {
        self.cfg.sched.as_ref()
    }

    /// Renders the hot-path counters footer (plan-cache/pool counters and
    /// per-worker scheduler lines) from the always-on counters.
    pub fn counters_footer(&self) -> String {
        let (exec, sched) = crate::engine::always_on_counters(
            &self.cfg.plan_cache,
            &self.cfg.pool,
            self.cfg.sched.as_deref(),
        );
        sdfg_profile::counters_footer(&exec, &sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point of the facade: a session crosses threads, whatever
    /// backends it holds (the device backends' own check is in
    /// `sdfg-gpu-sim`).
    #[test]
    fn session_is_sync_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<Box<dyn Backend>>();
        assert_send_sync::<Bindings>();
        assert_send_sync::<Outputs>();
    }
}

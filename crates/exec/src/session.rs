//! The embedding facade: typed, compile-once/invoke-many execution.
//!
//! [`Executor`] grew up as a mutate-after-construct object — callers set
//! the opt level and thread count one field at a time, then `run`, and
//! every embedder (harness, bench, and now the serving layer) repeated
//! the same fragile sequence. The session API replaces that with two
//! types:
//!
//! * [`SessionBuilder`] — all configuration up front, validated once at
//!   [`SessionBuilder::build`] (the SDFG is structurally checked, so a
//!   session never executes a malformed graph).
//! * [`Session`] — an immutable, `Sync`-shareable compiled program. The
//!   optimization pipeline runs once (lazily, on the first invoke, so
//!   cost hints see real symbol bindings); every [`Session::run`] then
//!   stamps out a fresh single-invoke [`Executor`] that shares the
//!   session's plan cache, buffer pool and work-stealing scheduler pool,
//!   which is what makes warm invokes cheap and concurrent invokes safe.
//!
//! Inputs travel in a [`Bindings`] value and results come back as
//! [`Outputs`]; both move their arrays (no cloning), and
//! [`Outputs::into_bindings`] closes the loop for benchmark-style warm
//! iteration. Everything returns [`SdfgError`] with stable codes —
//! unknown container names are `SDFG-X002`, shape mismatches `SDFG-X003`,
//! expired deadlines `SDFG-X004` — instead of panicking.

use crate::engine::Executor;
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
/// copied) into the executor. Built fluently:
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

    /// The bound array names (useful for diagnostics).
    pub fn array_names(&self) -> impl Iterator<Item = &str> {
        self.arrays.keys().map(String::as_str)
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
/// statistics, and the instrumentation report when profiling was on.
pub struct Outputs {
    arrays: HashMap<String, Vec<f64>>,
    symbols: Env,
    stats: Stats,
    report: Option<InstrumentationReport>,
    plan: Option<Arc<crate::plan::ExecutionPlan>>,
}

impl Outputs {
    /// Reads an array, failing with [`SdfgError::UnknownData`] when no
    /// container of that name came out of the run (the panicking
    /// `Executor::array` accessor has no equivalent here).
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

    /// Per-map lowering decisions of the plan this run consulted (see
    /// [`Executor::lowering_report`]).
    pub fn lowering_report(&self) -> Vec<crate::lower::MapLowering> {
        self.plan
            .as_ref()
            .map(|p| p.lowerings())
            .unwrap_or_default()
    }

    /// Re-wraps the outputs as the next invoke's bindings without copying
    /// any array — the warm-iteration idiom: outputs of run *n* become
    /// inputs of run *n + 1*, exactly like re-running a long-lived
    /// executor in place.
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
        Ok(Session {
            sdfg: self.sdfg,
            chash,
            opt: self.opt,
            nthreads: self.nthreads,
            max_transitions: self.max_transitions,
            jit: self.jit,
            profiling: self.profiling,
            plan_cache: self.plan_cache.unwrap_or_default(),
            pool: self.pool.unwrap_or_default(),
            sched,
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
    nthreads: usize,
    max_transitions: usize,
    jit: bool,
    profiling: Profiling,
    plan_cache: Arc<PlanCache>,
    pool: Arc<BufferPool>,
    sched: Option<Arc<SchedPool>>,
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
        let deadline = budget.map(|b| (Instant::now() + b, b.as_millis() as u64));
        self.check_bindings(&bindings)?;
        let compiled = self.ensure_compiled(&bindings.symbols)?;
        let active: &Sdfg = compiled.sdfg.as_deref().unwrap_or(&self.sdfg);
        let mut ex = Executor::new(active);
        ex.plan_cache = self.plan_cache.clone();
        ex.pool = self.pool.clone();
        ex.sched = self.sched.clone();
        ex.nthreads = self.nthreads;
        ex.max_transitions = self.max_transitions;
        ex.profiling = self.profiling;
        // The executor borrows the already-optimized graph: carry the
        // pipeline's products over so reports and the run ledger describe
        // the real optimization level, and pre-seed the hash memo so warm
        // invokes never re-serialize the graph.
        ex.opt_level = self.opt;
        ex.opt_report = compiled.report.clone();
        ex.jit = self.jit;
        ex.sdfg_hash = Some(compiled.hash);
        if let Some((at, ms)) = deadline {
            ex.deadline = Some(at);
            ex.deadline_ms = ms;
        }
        ex.symbols = bindings.symbols.clone();
        ex.arrays = bindings.arrays;
        let stats = ex.run()?;
        // Hand back every caller-visible container; executor-owned
        // transients stay behind and return to the shared pool on drop.
        let names: Vec<String> = ex
            .arrays
            .keys()
            .filter(|n| !ex.owned_transients.contains(*n))
            .cloned()
            .collect();
        let mut arrays = HashMap::with_capacity(names.len());
        for n in names {
            if let Some(v) = ex.arrays.remove(&n) {
                arrays.insert(n, v);
            }
        }
        Ok(Outputs {
            arrays,
            symbols: bindings.symbols,
            stats,
            report: ex.last_report.take(),
            plan: ex.last_plan.take(),
        })
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
    /// retries, matching the executor's behavior.
    fn ensure_compiled(&self, symbols: &Env) -> Result<&Compiled, SdfgError> {
        if let Some(c) = self.compiled.get() {
            return Ok(c);
        }
        let c = self.compile(symbols)?;
        Ok(self.compiled.get_or_init(|| c))
    }

    fn compile(&self, symbols: &Env) -> Result<Compiled, SdfgError> {
        if self.opt == OptLevel::None {
            return Ok(Compiled {
                sdfg: None,
                hash: self.chash,
                report: None,
            });
        }
        let mut opt = self.sdfg.clone();
        let report = optimize_with_env(&mut opt, self.opt, symbols)
            .map_err(|e| SdfgError::optimization("session-compile", e.to_string()))?;
        let hash = sdfg_core::serialize::content_hash(&opt);
        Ok(Compiled {
            sdfg: Some(Arc::new(opt)),
            hash,
            report: Some(report),
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
        self.nthreads
    }

    /// Report from the one-time optimization pipeline; `None` before the
    /// first invoke or at [`OptLevel::None`].
    pub fn opt_report(&self) -> Option<OptimizationReport> {
        self.compiled.get().and_then(|c| c.report.clone())
    }

    /// The plan cache invokes consult (possibly shared across sessions).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// The buffer pool invokes allocate transients from.
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Plan-cache hit/miss counters (cumulative for the cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Buffer-pool counters (cumulative for the pool).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Work-stealing scheduler counters, cumulative for the shared pool;
    /// `None` while serial.
    pub fn sched_stats(&self) -> Option<SchedStats> {
        self.sched.as_ref().map(|p| p.stats())
    }

    /// The scheduler pool invokes run on, for sharing with further
    /// sessions of the same thread count.
    pub fn scheduler(&self) -> Option<&Arc<SchedPool>> {
        self.sched.as_ref()
    }

    /// Renders the hot-path counters footer (plan-cache/pool counters and
    /// per-worker scheduler lines) from the always-on counters.
    pub fn counters_footer(&self) -> String {
        let (exec, sched) =
            crate::engine::always_on_counters(&self.plan_cache, &self.pool, self.sched.as_deref());
        sdfg_profile::counters_footer(&exec, &sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point of the facade: a session crosses threads.
    #[test]
    fn session_is_sync_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<Bindings>();
        assert_send_sync::<Outputs>();
    }
}

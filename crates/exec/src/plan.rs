//! Cross-run execution-plan caching.
//!
//! The paper's model is compile-once/run-many: §4's lowering pipeline is
//! paid when an SDFG is first seen, and subsequent invocations dispatch a
//! cached executable. This module gives the executor the same shape. A
//! [`PlanCache`] maps a [`PlanKey`] — the stable content hash of the SDFG
//! (`sdfg_core::serialize::content_hash`), the initial symbol bindings and
//! the names of the containers the run binds — to an `ExecutionPlan`
//! holding everything lowering produces:
//! per-state scope trees and topological orders, compiled tasklet bodies,
//! and map plans.
//!
//! # Soundness
//!
//! Two distinct mechanisms guard reuse:
//!
//! * **The key.** The content hash covers program structure only; any
//!   serialized edit (node added, memlet changed) yields a different key,
//!   so a mutated SDFG can never alias a stale plan. Symbol bindings are
//!   part of the key because lowering constant-folds them into window
//!   offsets and iteration counts. So is the container layout: a run's
//!   buffers take slots in sorted-name order, and compiled artifacts
//!   index buffers by slot, so a run binding another set of containers
//!   gets its own plan. The key holds the names themselves, compared for
//!   equality, so no collision can alias two layouts.
//! * **The compile context.** Tasklet and map compilation additionally
//!   read per-worker state that is not part of the key: the parameter
//!   stack (launch-time constants first, then the enclosing map
//!   parameters), static iteration counts and the chunked parameter
//!   feeding the WCR race analysis, and the set of thread-local transient
//!   overlays. Each cached artifact therefore stores the `CompileCtx` it
//!   was compiled under, and is only reused on an *equal* context —
//!   equality, not hashing, so collisions cannot change semantics. A
//!   mismatch silently falls back to compiling, which is always correct.
//!
//! Nothing that changes *during* a run is part of either. Mutable
//! interstate symbols are solved as launch-time constants
//! (`affine::Solver`): an artifact carries their coefficients and
//! a launch adds `Σ coeff·value` to its offsets, so a loop of any length
//! holds one variant per program point. Only an expression that is not
//! affine in such a symbol folds its value, and the context then records
//! `(symbol, value)` — the point gets a second variant when, and only
//! when, that symbol takes a second value there.

use crate::cpu::MapPlan;
use crate::engine::Worker;
use crate::tasklet::BodyTasklet;
use parking_lot::Mutex;
use sdfg_core::scope::ScopeTree;
use sdfg_core::{Node, Sdfg, State};
use sdfg_graph::NodeId;
use sdfg_symbolic::Env;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Variants of one program point that may fold a launch-time constant's
/// value (see [`CompileCtx::folded`]). Past the cap a new value is still
/// compiled — its launch runs on the same tier as the others — but the
/// artifact is not kept, so each such visit compiles again. The first
/// time that happens at a point is recorded in the fallback ledger
/// (`plan-variant-cap`), every time in `CacheStats::point_compiles`. The
/// cap bounds what a long loop over `A[(k*k) % N]` holds; jacobi-2d's
/// `A[t % 2, i, j]` keeps one variant per time step for its first 64.
const MAX_FOLDED_VARIANTS: usize = 64;

/// Records that the point labelled `label` dropped its first variant at
/// [`MAX_FOLDED_VARIANTS`].
pub(crate) fn record_variant_cap(chash: u64, label: &str) {
    let detail = format!(
        "more than {MAX_FOLDED_VARIANTS} values of a folded launch-time constant: \
         further values are compiled on every visit"
    );
    crate::jit::record_fallback(chash, label, "plan-variant-cap", &detail);
}

/// Identity of a lowered plan: program content hash, initial symbol
/// bindings and bound containers (each sorted for a canonical
/// representation).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// `sdfg_core::serialize::content_hash` of the program.
    pub sdfg_hash: u64,
    /// Initial symbol bindings, sorted by name.
    pub symbols: Vec<(String, i64)>,
    /// Fingerprint of the state→backend assignment the plan was lowered
    /// under (0 for plain CPU execution). A session with device backends
    /// lowers scopes differently per target, so plans must not alias
    /// across assignments.
    pub target: u64,
    /// Names of the containers the run binds, sorted: buffer slot `i` is
    /// container `containers[i]`, and compiled artifacts index by slot.
    pub containers: Vec<String>,
}

impl PlanKey {
    /// Builds a key from a content hash, an environment and the sorted
    /// names of the bound containers (CPU target).
    pub fn new(sdfg_hash: u64, symbols: &Env, containers: Vec<String>) -> PlanKey {
        let mut symbols: Vec<(String, i64)> =
            symbols.iter().map(|(k, &v)| (k.clone(), v)).collect();
        symbols.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        PlanKey {
            sdfg_hash,
            symbols,
            target: 0,
            containers,
        }
    }

    /// Tags the key with a target-assignment fingerprint.
    pub fn with_target(mut self, target: u64) -> PlanKey {
        self.target = target;
        self
    }
}

/// Plan-cache counters (cumulative).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an existing plan.
    pub hits: u64,
    /// Lookups that created a fresh plan.
    pub misses: u64,
    /// Tasklet bodies and map plans built, over every plan in the cache. A
    /// warm run of a program whose plan is cached builds none; a non-zero
    /// delta means a program point was compiled again.
    pub point_compiles: u64,
}

impl CacheStats {
    /// Fraction of lookups that hit, `0.0..=1.0`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A shareable cache of lowered execution plans.
///
/// Every [`crate::Session`] owns one by default; share a single cache
/// across sessions (via [`crate::SessionBuilder::plan_cache`]) to amortize
/// lowering over service-style traffic running the same SDFG repeatedly.
#[derive(Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<PlanKey, Arc<ExecutionPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    point_compiles: AtomicU64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Fetches (or creates) the plan for `key`; the flag reports whether
    /// the lookup hit an existing plan.
    pub(crate) fn lookup(&self, key: PlanKey) -> (Arc<ExecutionPlan>, bool) {
        let mut plans = self.plans.lock();
        match plans.get(&key) {
            Some(p) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                (p.clone(), true)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let p = Arc::new(ExecutionPlan::default());
                plans.insert(key, p.clone());
                (p, false)
            }
        }
    }

    /// Number of distinct plans held.
    pub fn len(&self) -> usize {
        self.plans.lock().len()
    }

    /// True when no plans are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every plan (counters are kept).
    pub fn clear(&self) {
        self.plans.lock().clear();
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            point_compiles: self.point_compiles.load(Ordering::Relaxed),
        }
    }

    /// Counts one tasklet body or map plan built. This is the counter's
    /// only declaration: [`CacheStats::point_compiles`] reads it per
    /// cache, and the process-wide `sdfg_plan_point_compiles_total` is
    /// registered here, by name, off the hot path.
    pub(crate) fn note_point_compile(&self) {
        self.point_compiles.fetch_add(1, Ordering::Relaxed);
        sdfg_profile::metrics::global()
            .counter(
                "sdfg_plan_point_compiles_total",
                "Tasklet bodies and map plans built by the executor.",
                &[],
            )
            .inc();
    }
}

/// Everything tasklet/map compilation reads beyond the graph structure and
/// the launch-invariant bindings: reuse of a cached artifact is gated on
/// equality of this fingerprint.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CompileCtx {
    /// Parameter stack the artifact was solved against: launch-time
    /// constants first, then enclosing map parameters, outermost first.
    pub pstack: Vec<String>,
    /// Static iteration counts per stacked parameter (WCR race analysis
    /// input).
    pub pcounts: Vec<i64>,
    /// Index of the chunk-partitioned parameter, if inside a parallel region.
    pub chunk: Option<usize>,
    /// Names of thread-local transient overlays (sorted).
    pub locals: Vec<String>,
    /// Whether the JIT lowering tier was enabled for this run: plans
    /// lowered with and without compiled kernels must not alias.
    pub jit: bool,
    /// `(index into pstack, value)` of every launch-time constant whose
    /// value is folded into the artifact, sorted by index.
    pub folded: Vec<(usize, i64)>,
}

impl CompileCtx {
    /// Whether an artifact compiled under this context serves the worker
    /// where it stands now. Allocation-free: this runs on every fetch from
    /// the shared plan.
    pub(crate) fn matches(&self, w: &Worker) -> bool {
        self.chunk == w.chunk_param
            && self.jit == w.ctx.cfg.jit
            && self.pcounts == w.pcounts
            && self.folded_match(w)
            && self.pstack == w.pstack
            && self.locals.len() == w.locals.len()
            && self.locals.iter().all(|l| w.locals.contains_key(l))
    }

    fn folded_match(&self, w: &Worker) -> bool {
        self.folded.iter().all(|&(i, v)| w.point.get(i) == Some(&v))
    }

    /// [`CompileCtx::matches`] for an artifact from the worker's own
    /// cache, which runs once per map point for generic bodies. One worker
    /// reaches a program point under one parameter stack, chunk axis and
    /// overlay set — they follow from the scopes around the point — as
    /// long as every launch-time constant of the state is bound
    /// (`Worker::stable`; otherwise the worker's caches are bypassed). So
    /// only the folded values can differ between two visits.
    pub(crate) fn matches_local(&self, w: &Worker) -> bool {
        let serves = w.stable && self.folded_match(w);
        debug_assert!(!serves || self.matches(w), "one context per point");
        serves
    }
}

/// A cached artifact and the context it was compiled under.
pub(crate) type Cached<T> = (Arc<CompileCtx>, Arc<T>);

/// Compiled variants of one program point.
struct VariantList<T> {
    list: Vec<Cached<T>>,
    /// A variant was dropped at [`MAX_FOLDED_VARIANTS`] before.
    overflowed: bool,
}

type Variants<T> = Mutex<HashMap<(u32, u32), VariantList<T>>>;

fn find_variant<T>(variants: &Variants<T>, key: (u32, u32), w: &Worker) -> Option<Cached<T>> {
    let map = variants.lock();
    let list = &map.get(&key)?.list;
    list.iter().find(|(c, _)| c.matches(w)).cloned()
}

/// Records a variant; the flag is set when this is the first variant of
/// the point dropped at the cap.
fn insert_variant<T>(
    variants: &Variants<T>,
    key: (u32, u32),
    ctx: CompileCtx,
    art: Arc<T>,
) -> (Cached<T>, bool) {
    let mut map = variants.lock();
    let v = map.entry(key).or_insert_with(|| VariantList {
        list: Vec::new(),
        overflowed: false,
    });
    // Two workers may race to compile one point; the first entry wins.
    if let Some(found) = v.list.iter().find(|(c, _)| **c == ctx) {
        return (found.clone(), false);
    }
    let folded = |l: &[Cached<T>]| l.iter().filter(|(c, _)| !c.folded.is_empty()).count();
    if !ctx.folded.is_empty() && folded(&v.list) >= MAX_FOLDED_VARIANTS {
        let first = !std::mem::replace(&mut v.overflowed, true);
        return ((Arc::new(ctx), art), first);
    }
    v.list.push((Arc::new(ctx), art));
    (v.list.last().expect("just pushed").clone(), false)
}

/// Structural plan for one state: scope tree + topological order. Depends
/// only on the graph, so it is valid for the plan's whole lifetime.
pub(crate) struct StatePlan {
    pub tree: ScopeTree,
    pub order: Vec<NodeId>,
    /// Mutable interstate symbols this state's memlets read, sorted: the
    /// launch-time constants its bodies are solved against. Names that a
    /// scope of the state rebinds — as its own parameter or as a
    /// dynamic-range connector — are left out (the binding shadows the
    /// symbol inside the scope); a reference that still means the symbol
    /// is then evaluated per point.
    pub muts: Vec<String>,
}

impl StatePlan {
    pub(crate) fn build(state: &State, muts: &BTreeSet<String>) -> Result<StatePlan, String> {
        let tree = sdfg_core::scope::scope_tree(state).map_err(|e| e.to_string())?;
        let order = state.topological_order();
        let mut read = BTreeSet::new();
        if !muts.is_empty() {
            for e in state.graph.edge_ids() {
                for r in &state.graph.edge(e).memlet.subset.dims {
                    r.collect_symbols(&mut read);
                }
            }
            read.retain(|s| muts.contains(s));
            for n in state.graph.node_ids() {
                match state.graph.node(n) {
                    Node::MapEntry(m) => {
                        for p in &m.params {
                            read.remove(p);
                        }
                        // Dynamic-range connectors are bound per launch.
                        for e in state.graph.in_edges(n) {
                            if let Some(conn) = &state.graph.edge(e).dst_conn {
                                if !conn.starts_with("IN_") {
                                    read.remove(conn);
                                }
                            }
                        }
                    }
                    Node::ConsumeEntry(c) => {
                        read.remove(&c.pe_param);
                    }
                    _ => {}
                }
            }
        }
        Ok(StatePlan {
            tree,
            order,
            muts: read.into_iter().collect(),
        })
    }
}

/// What a plan's artifacts may and may not fold, derived once from the
/// program and the initial bindings the plan is keyed by.
pub(crate) struct Invariants {
    /// Every symbol assigned by an interstate edge: these change during a
    /// run, so their values are never folded into a cached artifact
    /// unrecorded.
    pub muts: BTreeSet<String>,
    /// The initial bindings minus `muts`: the launch-invariant
    /// environment every body is compiled in.
    pub env0: Env,
}

/// A whole-nest lowering, or the decline that stopped it.
type NestResult<P> = Result<Arc<P>, crate::jit::Decline>;

/// Cache of whole-nest lowerings keyed by `K`; `Err` caches a decline so
/// each recognizer runs once per plan.
type NestCache<K, P> = Mutex<HashMap<K, NestResult<P>>>;

/// The cached lowering of one (SDFG, symbol bindings) pair.
#[derive(Default)]
pub(crate) struct ExecutionPlan {
    /// See [`Invariants`].
    invariants: OnceLock<Arc<Invariants>>,
    /// Per-state structural plans, keyed by state id.
    states: Mutex<HashMap<u32, Arc<StatePlan>>>,
    /// Compiled tasklet bodies, keyed by (state, node), with the context
    /// each variant was compiled under.
    tasklets: Variants<BodyTasklet>,
    /// Compiled map plans, same keying scheme.
    maps: Variants<MapPlan>,
    /// Whole-nest lowerings of state-machine loops, keyed by guard state
    /// id. `Err` caches a decline so the recognizer runs once per plan.
    /// A kernel folds no launch-time value, so no variants are needed; only
    /// JIT-enabled runs consult these.
    loop_nests: NestCache<u32, crate::nest::LoopNestPlan>,
    /// Each map's one kernel (or its decline), keyed by (state, node).
    map_nests: NestCache<(u32, u32), crate::nest::MapNestPlan>,
    /// Adaptive grain-size state for the work-stealing scheduler, keyed by
    /// `(state, node)`. Lives here so per-launch timing feedback survives
    /// exactly as long as the lowered plan does (and is shared across
    /// executors sharing the cache). Purely a performance hint: losing it
    /// only resets the tuner to its defaults.
    pub(crate) tuning: crate::sched::Tuning,
}

impl ExecutionPlan {
    /// The plan's invariants, derived on first use. `symbols` are the
    /// initial bindings of the run — the same for every run this plan
    /// serves, since they are part of its key.
    pub fn invariants(&self, sdfg: &Sdfg, symbols: &Env) -> Arc<Invariants> {
        let derive = || {
            let mut muts = BTreeSet::new();
            for sid in sdfg.graph.node_ids() {
                for e in sdfg.graph.out_edges(sid) {
                    for (name, _) in &sdfg.graph.edge(e).assignments {
                        muts.insert(name.clone());
                    }
                }
            }
            let mut env0 = symbols.clone();
            env0.retain(|name, _| !muts.contains(name));
            Arc::new(Invariants { muts, env0 })
        };
        self.invariants.get_or_init(derive).clone()
    }

    /// Cached structural plan for a state.
    pub fn state(&self, sid: u32) -> Option<Arc<StatePlan>> {
        self.states.lock().get(&sid).cloned()
    }

    /// Records (get-or-insert) a state's structural plan.
    pub fn insert_state(&self, sid: u32, plan: StatePlan) -> Arc<StatePlan> {
        self.states
            .lock()
            .entry(sid)
            .or_insert_with(|| Arc::new(plan))
            .clone()
    }

    /// Cached tasklet body that serves the worker's current context.
    pub fn tasklet(&self, key: (u32, u32), w: &Worker) -> Option<Cached<BodyTasklet>> {
        find_variant(&self.tasklets, key, w)
    }

    /// Records a compiled tasklet body (see [`insert_variant`]).
    pub fn insert_tasklet(
        &self,
        key: (u32, u32),
        ctx: CompileCtx,
        body: Arc<BodyTasklet>,
    ) -> (Cached<BodyTasklet>, bool) {
        insert_variant(&self.tasklets, key, ctx, body)
    }

    /// Cached map plan that serves the worker's current context.
    pub fn map(&self, key: (u32, u32), w: &Worker) -> Option<Cached<MapPlan>> {
        find_variant(&self.maps, key, w)
    }

    /// Records a compiled map plan (see [`insert_variant`]).
    pub fn insert_map(
        &self,
        key: (u32, u32),
        ctx: CompileCtx,
        plan: Arc<MapPlan>,
    ) -> (Cached<MapPlan>, bool) {
        insert_variant(&self.maps, key, ctx, plan)
    }

    /// Cached whole-nest lowering (or decline) of a state-machine loop.
    pub(crate) fn loop_nest(&self, sid: u32) -> Option<NestResult<crate::nest::LoopNestPlan>> {
        self.loop_nests.lock().get(&sid).cloned()
    }

    /// Records (get-or-insert) a loop-nest build result.
    pub(crate) fn insert_loop_nest(
        &self,
        sid: u32,
        res: NestResult<crate::nest::LoopNestPlan>,
    ) -> NestResult<crate::nest::LoopNestPlan> {
        self.loop_nests.lock().entry(sid).or_insert(res).clone()
    }

    /// Cached kernel (or decline) of a map.
    pub(crate) fn map_nest(&self, key: (u32, u32)) -> Option<NestResult<crate::nest::MapNestPlan>> {
        self.map_nests.lock().get(&key).cloned()
    }

    /// Records (get-or-insert) a map-nest build result.
    pub(crate) fn insert_map_nest(
        &self,
        key: (u32, u32),
        res: NestResult<crate::nest::MapNestPlan>,
    ) -> NestResult<crate::nest::MapNestPlan> {
        self.map_nests.lock().entry(key).or_insert(res).clone()
    }

    /// Lowering decisions of every cached map plan, sorted by (state,
    /// node). When a map was compiled under several contexts, the most
    /// recently recorded variant speaks for it; maps whose own kernel, or
    /// a loop nest that absorbed them, has compiled report the `jit` tier
    /// regardless of (or in the absence of) their per-map plan.
    pub fn lowerings(&self) -> Vec<crate::lower::MapLowering> {
        let map = self.maps.lock();
        let mut rows: HashMap<(u32, u32), crate::lower::MapLowering> = map
            .iter()
            .filter_map(|(&(sid, nid), variants)| {
                let (_, plan) = variants.list.last()?;
                Some(((sid, nid), plan.lowering_entry(sid, nid)))
            })
            .collect();
        // Any variant's launches may have been kept serial.
        let serial: Vec<((u32, u32), &'static str)> = map
            .iter()
            .filter_map(|(&key, variants)| {
                let mut whys = variants.list.iter().rev();
                Some((key, *whys.find_map(|(_, p)| p.serial_reason.get())?))
            })
            .collect();
        drop(map);
        type Rows = HashMap<(u32, u32), crate::lower::MapLowering>;
        let absorb = |rows: &mut Rows, core: &crate::nest::NestCore| {
            if matches!(core.compiled(), Some(Ok(_))) {
                for row in &core.rows {
                    rows.insert((row.state, row.node), row.clone());
                }
            }
        };
        for nest in self.loop_nests.lock().values().flatten() {
            absorb(&mut rows, &nest.core);
        }
        for (key, nest) in self.map_nests.lock().iter() {
            // A map whose own nest did not run says why.
            let why = match nest {
                Ok(nest) => match nest.core.compiled() {
                    Some(Ok(_)) => {
                        absorb(&mut rows, &nest.core);
                        continue;
                    }
                    Some(Err(d)) => d.detail.clone(),
                    None => "compile pending".to_string(),
                },
                Err(d) => d.detail.clone(),
            };
            if let Some(row) = rows.get_mut(key).filter(|r| r.tier != "jit") {
                row.jit_reason = Some(why);
            }
        }
        for (key, why) in serial {
            if let Some(row) = rows.get_mut(&key) {
                row.serial_reason = Some(why.to_string());
            }
        }
        let mut out: Vec<crate::lower::MapLowering> = rows.into_values().collect();
        out.sort_by_key(|e| (e.state, e.node));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(h: u64, syms: &[(&str, i64)]) -> PlanKey {
        let mut env = Env::new();
        for (k, v) in syms {
            env.insert((*k).to_string(), *v);
        }
        PlanKey::new(h, &env, Vec::new())
    }

    #[test]
    fn symbol_bindings_partition_plans() {
        let cache = PlanCache::new();
        let (_, hit) = cache.lookup(key(1, &[("N", 8)]));
        assert!(!hit);
        let (_, hit) = cache.lookup(key(1, &[("N", 8)]));
        assert!(hit, "same hash + same bindings hits");
        let (_, hit) = cache.lookup(key(1, &[("N", 16)]));
        assert!(!hit, "different bindings must miss");
        let (_, hit) = cache.lookup(key(2, &[("N", 8)]));
        assert!(!hit, "different content hash must miss");
        assert_eq!(cache.len(), 3);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 3));
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn target_assignment_partitions_plans() {
        let cache = PlanCache::new();
        let (_, hit) = cache.lookup(key(1, &[("N", 8)]));
        assert!(!hit);
        let (_, hit) = cache.lookup(key(1, &[("N", 8)]).with_target(42));
        assert!(!hit, "different target assignment must miss");
        let (_, hit) = cache.lookup(key(1, &[("N", 8)]).with_target(42));
        assert!(hit, "same target assignment hits");
    }

    #[test]
    fn plan_key_is_order_insensitive() {
        let a = key(7, &[("A", 1), ("B", 2)]);
        let b = key(7, &[("B", 2), ("A", 1)]);
        assert_eq!(a, b);
    }
}

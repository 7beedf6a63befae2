//! The CPU backend: map/consume scope execution on the thread pool,
//! reduce and nested-SDFG nodes.

use crate::buffer::SharedBuffer;
use crate::copy::{exec_access, gather_symbolic, scatter_symbolic, scope_owns_container, wcr_fn};
use crate::engine::Executor;
use crate::engine::{bind, unbind, Ctx, ExecError, Worker};
use crate::lower::{run_inner_span, Lowered};
use crate::tasklet::{run_tasklet_point, BodyTasklet, WindowPlan};
use parking_lot::Mutex;
use sdfg_core::desc::DataDesc;
use sdfg_core::scope::ScopeTree;
use sdfg_core::{Node, Schedule, StateId, Subset, Wcr};
use sdfg_graph::{EdgeId, NodeId};
use sdfg_profile::{Mode as ProfMode, Span, SpanKey, Tier};
use std::sync::atomic::Ordering;

// --- map execution ----------------------------------------------------------------

/// Body of a compiled map: either a straight-line list of tasklets or a
/// generic subgraph executed per point.
pub(crate) enum MapBody {
    /// Straight-line tasklets plus the lowering-tier decision made for
    /// them at plan-build time (see [`crate::lower`]).
    Tasklets(Vec<(NodeId, std::sync::Arc<BodyTasklet>)>, Lowered),
    Generic {
        children: Vec<NodeId>,
        /// Transients local to this scope → zeroed per iteration, allocated
        /// thread-locally (sized when a launch allocates them).
        local_transients: Vec<String>,
        /// Access→exit write-back edges processed at iteration end.
        writebacks: Vec<EdgeId>,
    },
}

/// A dynamic-range connector of a map entry: each launch binds `conn` to
/// the (rounded) element of `data` at `subset`.
pub(crate) struct DynEdge {
    conn: String,
    data: String,
    subset: Subset,
}

/// Everything launch-invariant about one map scope, cached per worker and
/// (context-verified) across runs in the shared execution plan.
pub(crate) struct MapPlan {
    /// Scope label (for the lowering report and fallback records).
    pub(crate) label: String,
    pub(crate) params: Vec<String>,
    pub(crate) ranges: Vec<sdfg_symbolic::SymRange>,
    #[allow(dead_code)] // kept for diagnostics/debug printing
    pub(crate) schedule: Schedule,
    /// Dynamic-range connectors (gathered per launch).
    pub(crate) dyn_edges: Vec<DynEdge>,
    /// Static iteration counts for the race analysis: the trip count of a
    /// launch-invariant range, `i64::MAX/4` for anything else.
    pub(crate) pcounts: Vec<i64>,
    /// Dimensions whose extent reads launch-time constants and nothing
    /// else that varies: each launch measures them for the scheduler's
    /// volume estimate and the JIT hotness gate.
    per_launch: Vec<usize>,
    pub(crate) body: MapBody,
}

impl MapPlan {
    /// The lowering-report row for this plan.
    pub(crate) fn lowering_entry(&self, sid: u32, nid: u32) -> crate::lower::MapLowering {
        let (tier, jit_reason) = match &self.body {
            MapBody::Tasklets(_, l) => l.report(),
            MapBody::Generic { .. } => (crate::lower::LowerTier::Symbolic.name(), None),
        };
        crate::lower::MapLowering {
            state: sid,
            node: nid,
            label: self.label.clone(),
            tier,
            jit_reason,
        }
    }

    /// Trip count of dimension `d` for this launch: the static count, or
    /// the measured one for a per-launch dimension (dim 0 from the `n0`
    /// the caller already has).
    fn extent(&self, worker: &Worker, d: usize, n0: usize) -> i64 {
        if !self.per_launch.contains(&d) {
            return self.pcounts[d];
        }
        match d {
            0 => n0 as i64,
            _ => self.ranges[d].eval_len(&worker.env).unwrap_or(i64::MAX / 4),
        }
    }
}

pub(crate) fn build_map_plan(
    ctx: &Ctx,
    sid: StateId,
    tree: &ScopeTree,
    entry: NodeId,
    worker: &mut Worker,
) -> Result<std::sync::Arc<MapPlan>, ExecError> {
    let shared_key = (sid.0, entry.0);
    if let Some((c, p)) = worker.map_cache.get(&shared_key) {
        if c.matches_local(worker) {
            return Ok(p.clone());
        }
    }
    // Shared cache probe: a map plan bakes in context-derived values
    // (enclosing iteration counts, atomic flags, folded constants), so
    // reuse is gated on a matching compile context.
    if let Some(cached) = ctx.plan.map(shared_key, worker) {
        let p = cached.1.clone();
        if worker.stable {
            worker.map_cache.insert(shared_key, cached);
        }
        return Ok(p);
    }
    let state = ctx.sdfg.state(sid);
    let Node::MapEntry(scope) = state.graph.node(entry) else {
        unreachable!()
    };
    let params = scope.params.clone();
    let ranges = scope.ranges.clone();
    let schedule = scope.schedule;
    let inv = &*ctx.inv;
    let mut pcounts = Vec::with_capacity(ranges.len());
    let mut per_launch = Vec::new();
    for (d, r) in ranges.iter().enumerate() {
        let mut syms = std::collections::BTreeSet::new();
        r.collect_symbols(&mut syms);
        // Launch-invariant ranges must evaluate: a failure here is a real
        // error (malformed bound), not a reason to silently treat the
        // dimension as unbounded and flip scheduling decisions.
        if syms.iter().all(|s| inv.env0.contains_key(s)) {
            pcounts.push(r.eval_len(&inv.env0)?);
            continue;
        }
        pcounts.push(i64::MAX / 4);
        let map_params = &worker.pstack[worker.nconst..];
        if syms
            .iter()
            .all(|s| !map_params.contains(s) && (inv.env0.contains_key(s) || inv.muts.contains(s)))
        {
            per_launch.push(d);
        }
    }
    let dyn_edges: Vec<DynEdge> = state
        .graph
        .in_edges(entry)
        .filter_map(|e| {
            let df = state.graph.edge(e);
            let conn = df.dst_conn.as_deref()?;
            (!conn.starts_with("IN_") && !df.memlet.is_empty()).then(|| DynEdge {
                conn: conn.to_string(),
                data: df.memlet.data_name().to_string(),
                subset: df.memlet.subset.clone(),
            })
        })
        .collect();
    // Children.
    let order = state.topological_order();
    let children: Vec<NodeId> = order
        .into_iter()
        .filter(|&c| tree.scope_of(c) == Some(entry))
        .collect();
    let all_tasklets = children
        .iter()
        .all(|&c| matches!(state.graph.node(c), Node::Tasklet { .. }));
    // Constants folded into the body's tasklets gate this plan as well.
    let mut folded: Vec<(usize, i64)> = Vec::new();
    let body = if all_tasklets && !children.is_empty() {
        let mut ts = Vec::new();
        for &c in &children {
            let (cctx, bt) = worker.tasklet_cached(sid, c)?;
            folded.extend(&cctx.folded);
            ts.push((c, bt));
        }
        let lowered = crate::lower::decide_lowering(ctx, worker, &ts);
        MapBody::Tasklets(ts, lowered)
    } else {
        // Thread-local transients: transient containers whose lifetime is
        // entirely inside this scope.
        let mut local_transients = Vec::new();
        let mut writebacks = Vec::new();
        let members = sdfg_core::scope::scope_members(state, entry);
        for &c in members.iter() {
            if let Some(data) = state.graph.node(c).access_data() {
                let desc = ctx
                    .sdfg
                    .desc(data)
                    .ok_or_else(|| ExecError::MissingArray(data.to_string()))?;
                if desc.transient()
                    && !local_transients.iter().any(|n| n == data)
                    && scope_owns_container(ctx.sdfg, sid, &members, data)
                {
                    local_transients.push(data.to_string());
                }
                for e in state.graph.out_edges(c) {
                    let dst = state.graph.edge_dst(e);
                    if state.graph.node(dst).exit_entry() == Some(entry)
                        && !state.graph.edge(e).memlet.is_empty()
                        && state.graph.edge(e).memlet.data_name() != data
                    {
                        writebacks.push(e);
                    }
                }
            }
        }
        MapBody::Generic {
            children,
            local_transients,
            writebacks,
        }
    };
    let plan = std::sync::Arc::new(MapPlan {
        label: scope.label.clone(),
        params,
        ranges,
        schedule,
        dyn_edges,
        pcounts,
        per_launch,
        body,
    });
    ctx.plan_cache.note_point_compile();
    let (cached, capped) = ctx
        .plan
        .insert_map(shared_key, worker.compile_ctx(folded), plan);
    if capped {
        crate::plan::record_variant_cap(ctx.chash, &scope.label);
    }
    let plan = cached.1.clone();
    if worker.stable {
        worker.map_cache.insert(shared_key, cached);
    }
    Ok(plan)
}

pub(crate) fn exec_map(
    ctx: &Ctx,
    sid: StateId,
    tree: &ScopeTree,
    entry: NodeId,
    worker: &mut Worker,
) -> Result<(), ExecError> {
    ctx.stats.map_launches.fetch_add(1, Ordering::Relaxed);
    {
        use sdfg_profile::flight;
        if flight::enabled() {
            flight::record(flight::EventKind::MapLaunch, sid.0 as u64, entry.0 as u64);
        }
    }
    let pkey = (sid.0, entry.0);
    let pmode = match &ctx.prof {
        Some(p) => p.map_mode(pkey),
        None => ProfMode::Off,
    };
    let pstart = match (pmode, &ctx.prof) {
        (ProfMode::Timer, Some(p)) => Some(p.collector.now_ns()),
        _ => None,
    };
    let saved_cur_map = worker.cur_map;
    if pmode == ProfMode::Timer {
        worker.cur_map = Some(pkey);
    }
    // Closes the map measurement on the success paths (the restore of
    // `cur_map` itself lives in `pop`, which runs on every exit).
    let prof_close = |w: &mut Worker| match pmode {
        ProfMode::Off => {}
        ProfMode::Counter => {
            if let Some(wp) = w.prof.as_mut() {
                wp.maps.entry(pkey).or_default().bump();
            }
        }
        ProfMode::Timer => {
            if let (Some(p), Some(s)) = (&ctx.prof, pstart) {
                let dur = p.collector.now_ns().saturating_sub(s);
                if let Some(wp) = w.prof.as_mut() {
                    wp.maps.entry(pkey).or_default().record(dur);
                    wp.timeline.push(Span {
                        key: SpanKey::Map {
                            state: pkey.0,
                            node: pkey.1,
                        },
                        worker: wp.worker,
                        start_ns: s,
                        dur_ns: dur,
                    });
                }
            }
        }
    };
    let state = ctx.sdfg.state(sid);
    // Parallelism decision (made before compiling bodies so the WCR race
    // analysis knows the chunked parameter). NOTE: compile caching means
    // the decision must be stable per (worker, map) — it is, since it
    // depends only on schedule/nesting.
    let schedule = match state.graph.node(entry) {
        Node::MapEntry(m) => m.schedule,
        _ => unreachable!(),
    };
    let nparams = match state.graph.node(entry) {
        Node::MapEntry(m) => m.params.len(),
        _ => unreachable!(),
    };
    let base = worker.pstack.len();
    // Eligibility for parallel execution, decided BEFORE compiling bodies
    // so the WCR race analysis knows the chunked parameter. The adaptive
    // tuner may later downgrade an eligible launch to serial (atomic WCR
    // in a serial run is merely conservative), but never the reverse —
    // plain writes racing would be unsound. Under the work-stealing
    // scheduler, nested maps are eligible too when the enclosing context
    // is provably safe: no active parallel region (a second concurrent
    // chunk axis would break the single-chunk race analysis), no
    // thread-local transient overlays (stealing workers could not see
    // them), and not already inside a pool tile.
    let nested_ok = ctx.sched.is_some() && worker.chunk_param.is_none() && worker.locals.is_empty();
    let eligible = matches!(
        schedule,
        Schedule::CpuMulticore | Schedule::GpuDevice | Schedule::Mpi
    ) && ctx.nthreads > 1
        && nparams > 0
        && (!worker.nested || nested_ok)
        && !crate::sched::in_pool_worker();
    let saved_chunk = worker.chunk_param;
    if eligible {
        worker.chunk_param = Some(base);
    }
    // Parameters must be on the stack BEFORE compiling the body: tasklet
    // windows are solved as affine functions of the full parameter stack.
    {
        let Node::MapEntry(m) = state.graph.node(entry) else {
            unreachable!()
        };
        worker.pstack.extend(m.params.iter().cloned());
        worker.point.resize(base + m.params.len(), 0);
    }
    let plan = build_map_plan(ctx, sid, tree, entry, worker)?;
    let params = &plan.params;
    let ranges = &plan.ranges;
    let body = &plan.body;
    worker.pcounts.extend(plan.pcounts.iter().copied());
    // Dynamic-range connectors (per launch), bound over whatever they
    // shadow until the launch ends.
    let shadow_base = worker.shadowed.len();
    for de in &plan.dyn_edges {
        let w = gather_symbolic(worker, &de.data, &de.subset)?;
        let prev = bind(&mut worker.env, &de.conn, w[0].round() as i64);
        worker.shadowed.push(prev);
    }
    let saved_volume = worker.volume;
    let pop = |w: &mut Worker| {
        for (de, prev) in plan.dyn_edges.iter().zip(w.shadowed.drain(shadow_base..)) {
            unbind(&mut w.env, &de.conn, prev);
        }
        w.pstack.truncate(base);
        w.point.truncate(base);
        w.pcounts.truncate(base);
        w.volume = saved_volume;
        w.chunk_param = saved_chunk;
        w.cur_map = saved_cur_map;
    };
    let (d0s, d0e, d0st, _) = ranges[0].eval(&worker.env)?;
    if d0st <= 0 {
        pop(worker);
        return Err(ExecError::BadGraph("map step must be positive".into()));
    }
    let n0 = ((d0e - d0s) + d0st - 1).div_euclid(d0st).max(0) as usize;
    if n0 == 0 {
        pop(worker);
        prof_close(worker);
        return Ok(());
    }
    // What this launch really iterates: the JIT hotness gate (which a
    // body of this map reads off the worker) and the scheduler's estimate
    // of points per dim-0 iteration.
    let mut inner_points = 1u64;
    for d in 0..ranges.len() {
        let c = plan.extent(worker, d, n0);
        worker.volume = worker.volume.saturating_mul(c.max(1));
        if d > 0 {
            inner_points = inner_points.saturating_mul(inner_extent_estimate(c, n0));
        }
    }
    if let MapBody::Tasklets(ts, lowered) = &plan.body {
        lowered.prepare(ctx, worker, &plan.label, &ts[0].1);
    }
    // Parallel launches go through the work-stealing pool: the adaptive
    // tuner decides per launch whether tiling pays off, and the
    // determinism gate keeps order-sensitive bodies serial.
    let pool = ctx.sched.as_ref().filter(|_| eligible);
    // Estimated volume and start time: the tuner's inputs, taken only
    // where it is consulted.
    let sample = pool.map(|_| {
        let volume = (n0 as u64).saturating_mul(inner_points);
        (volume, std::time::Instant::now())
    });
    let tiles = pool.zip(sample).and_then(|(pool, (volume, _))| {
        let decision = ctx
            .plan
            .tuning
            .decide(pkey, volume, pool.nworkers(), ctx.grain_ns);
        if decision.parallel && steal_deterministic(&plan.body) {
            build_tiles(&plan, worker, (d0s, d0e, d0st), n0, decision.tiles)
        } else {
            None
        }
    });
    let (r, workers) = match (pool, &tiles) {
        (Some(pool), Some(ts)) => {
            ctx.stats.parallel_regions.fetch_add(1, Ordering::Relaxed);
            // Whole-nest fast path: one native call per tile running the
            // full inner nest; falls through to the per-row steal path on
            // any decline.
            let r = match crate::nest::try_map_nest_steal(ctx, &plan, worker, base, pkey, ts, pool)
            {
                Some(r) => r,
                None => run_map_steal(ctx, sid, tree, &plan, worker, base, ts, pool, pmode, pkey),
            };
            (r, pool.nworkers())
        }
        _ => {
            let was_nested = worker.nested;
            worker.nested = true;
            // Env-free fast nest: constant bounds + fully-affine tasklet
            // body lets the whole iteration space run on integer loops
            // without symbolic evaluation or environment updates per point.
            let r = if let Some(bounds) = env_free_bounds(&plan, worker) {
                run_map_fast(ctx, sid, &plan, worker, base, &bounds)
            } else {
                run_map_serial(
                    ctx, sid, tree, params, ranges, body, worker, base, d0s, d0e, d0st,
                )
            };
            worker.nested = was_nested;
            (r, 1)
        }
    };
    if let (Ok(()), Some((volume, t0))) = (&r, sample) {
        // Per-launch timing feedback. Serial samples are exact per-point
        // costs; parallel samples divide ideal speedup back out, so they
        // can only demote launches that are cheap even under perfect
        // scaling.
        ctx.plan
            .tuning
            .observe(pkey, volume, t0.elapsed().as_nanos() as u64, workers);
    }
    pop(worker);
    r.map(|()| prof_close(worker))
}

/// Estimated trip count of an inner dimension of extent `c`. A dynamic
/// one (data-dependent or parameter-dependent bounds, marked with the
/// unbounded sentinel) is estimated at half the outer extent — exact on
/// average for the triangular nests this feeds (cholesky, lu, trisolv).
fn inner_extent_estimate(c: i64, n0: usize) -> u64 {
    if c >= i64::MAX / 8 {
        (n0 as u64 / 2).max(1)
    } else {
        c.max(1) as u64
    }
}

/// Bitwise-determinism gate for the work-stealing path. Tiling reorders
/// points across workers, which stays invisible exactly when no output
/// combines across tiles: elided-atomic WCR writes are proven disjoint
/// per dim-0 value (each element sees a single tile's serial order), but
/// atomic WCR, shared stream pushes, and log appends all combine in
/// arrival order. Generic subgraph bodies can lazily compile atomic
/// tasklets inside a tile, so they are excluded wholesale. Launches that
/// fail the gate run serially, keeping repeated runs bitwise identical
/// regardless of steal timing.
fn steal_deterministic(body: &MapBody) -> bool {
    match body {
        MapBody::Tasklets(ts, _) => ts
            .iter()
            .all(|(_, bt)| bt.outs.iter().all(|o| !o.atomic && !o.stream && !o.log)),
        MapBody::Generic { .. } => false,
    }
}

/// The tiles of one parallel launch: contiguous pieces of the iteration
/// space, executed by pool workers in work-stealing order.
pub(crate) enum TileSet {
    /// Dim-0 tiling: each tile is a `[lo, hi)` value range on the map's
    /// own step grid. The general case — any body, WCR included, since
    /// disjoint dim-0 ranges preserve the chunk-dominance race analysis.
    Dim0 {
        /// Dim-0 step.
        step: i64,
        /// Per-tile `[lo, hi)` value ranges.
        ranges: Vec<(i64, i64)>,
    },
    /// Collapsed (dim0 × dim1) tiling for short outer dimensions
    /// (`n0 < tile target`): tiles are ranges of the flattened index
    /// space. Restricted to WCR-free tasklet bodies, because two flat
    /// tiles can share a dim-0 value — which would break the
    /// single-chunk-parameter privacy analysis conflict resolution
    /// relies on.
    Flat {
        /// Dim-0 (start, step): value = start + index·step.
        d0: (i64, i64),
        /// Dim-1 (start, step, count).
        d1: (i64, i64, u64),
        /// Per-tile `[lo, hi)` ranges of flat indices (`i0·count + i1`).
        ranges: Vec<(u64, u64)>,
    },
}

impl TileSet {
    fn len(&self) -> usize {
        match self {
            TileSet::Dim0 { ranges, .. } => ranges.len(),
            TileSet::Flat { ranges, .. } => ranges.len(),
        }
    }
}

/// Splits `[0, n)` into at most `want` near-equal contiguous ranges.
fn split_even(n: u64, want: usize) -> Vec<(u64, u64)> {
    let want = (want as u64).clamp(1, n.max(1));
    let per = n / want;
    let rem = n % want;
    let mut out = Vec::with_capacity(want as usize);
    let mut start = 0u64;
    for t in 0..want {
        let len = per + u64::from(t < rem);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Builds the tile set for a parallel launch, collapsing dims 0 and 1 when
/// the outer dimension alone cannot produce the requested tile count.
/// Returns `None` when no parallel decomposition exists (single-point
/// outer dimension and no legal collapse).
fn build_tiles(
    plan: &MapPlan,
    worker: &Worker,
    d0: (i64, i64, i64),
    n0: usize,
    want: usize,
) -> Option<TileSet> {
    if n0 < want {
        if let Some(ts) = try_collapse(plan, worker, d0, n0, want) {
            return Some(ts);
        }
    }
    if n0 > 1 {
        let (d0s, _, d0st) = d0;
        let ranges = split_even(n0 as u64, want)
            .into_iter()
            .map(|(a, b)| (d0s + a as i64 * d0st, d0s + b as i64 * d0st))
            .collect();
        Some(TileSet::Dim0 { step: d0st, ranges })
    } else {
        None
    }
}

/// Attempts the dim-0/dim-1 collapse (see [`TileSet::Flat`] for why it is
/// restricted to WCR-free tasklet bodies with launch-invariant dim-1
/// bounds).
fn try_collapse(
    plan: &MapPlan,
    worker: &Worker,
    d0: (i64, i64, i64),
    n0: usize,
    want: usize,
) -> Option<TileSet> {
    if plan.params.len() < 2 {
        return None;
    }
    let MapBody::Tasklets(ts, _) = &plan.body else {
        return None;
    };
    if ts
        .iter()
        .any(|(_, bt)| bt.outs.iter().any(|o| o.wcr.is_some()))
    {
        return None;
    }
    // Dim 1 must not depend on any of the map's own parameters (so its
    // bounds are launch-invariant) and must evaluate now.
    let mut syms = std::collections::BTreeSet::new();
    plan.ranges[1].collect_symbols(&mut syms);
    if syms.iter().any(|s| plan.params.contains(s)) {
        return None;
    }
    let (s1, e1, st1, _) = plan.ranges[1].eval(&worker.env).ok()?;
    if st1 <= 0 {
        return None;
    }
    let n1 = ((e1 - s1) + st1 - 1).div_euclid(st1).max(0) as u64;
    if n1 <= 1 {
        return None;
    }
    let total = (n0 as u64).saturating_mul(n1);
    Some(TileSet::Flat {
        d0: (d0.0, d0.2),
        d1: (s1, st1, n1),
        ranges: split_even(total, want),
    })
}

/// Runs one parallel launch through the work-stealing pool. Per-slot
/// workers are built lazily on first tile — reusing the pool's resident
/// VM register file and env hash-map allocation — execute tiles as the
/// deques drain, and are merged back on completion. Each slot works on its
/// own copy of the launcher's env (which is unchanged while the launch
/// runs) and writes only its own parameter bindings on top.
#[allow(clippy::too_many_arguments)]
fn run_map_steal(
    ctx: &Ctx,
    sid: StateId,
    tree: &ScopeTree,
    plan: &std::sync::Arc<MapPlan>,
    worker: &Worker,
    base: usize,
    tiles: &TileSet,
    pool: &std::sync::Arc<crate::sched::SchedPool>,
    pmode: ProfMode,
    pkey: (u32, u32),
) -> Result<(), ExecError> {
    struct SlotState<'c, 's> {
        w: Worker<'c, 's>,
        start_ns: Option<u64>,
    }
    let nslots = pool.nworkers();
    let slots: Vec<Mutex<Option<SlotState>>> = (0..nslots).map(|_| Mutex::new(None)).collect();
    let first_err: Mutex<Option<ExecError>> = Mutex::new(None);
    let tile_fn = |slot: usize, t: usize| {
        // A failed tile poisons the launch: remaining tiles drain without
        // executing so the pool's completion protocol still runs.
        if first_err.lock().is_some() {
            return;
        }
        let mut guard = slots[slot].lock();
        let st = guard.get_or_insert_with(|| {
            // Resident reuse: take the slot's parked VM and env buckets.
            let mut res = pool.resident(slot).lock();
            let vm = res.vm.take();
            let mut env = std::mem::take(&mut res.env);
            drop(res);
            env.clone_from(&worker.env);
            let mut w = Worker::for_tile(worker, env, base);
            if let Some(vm) = vm {
                w.vm = vm;
            }
            let start_ns = match (pmode, &ctx.prof) {
                (ProfMode::Timer, Some(p)) => {
                    w.cur_map = Some(pkey);
                    Some(p.collector.now_ns())
                }
                _ => None,
            };
            SlotState { w, start_ns }
        });
        if let Err(e) = exec_tile(ctx, sid, tree, plan, &mut st.w, base, tiles, t) {
            let mut first = first_err.lock();
            if first.is_none() {
                *first = Some(e);
            }
        }
    };
    pool.run(tiles.len(), &tile_fn);
    // Merge: close timeline spans, flush stats, park VM/env for reuse.
    for (i, cell) in slots.into_iter().enumerate() {
        let Some(mut st) = cell.into_inner() else {
            continue;
        };
        if let (Some(s0), Some(p)) = (st.start_ns, &ctx.prof) {
            let dur = p.collector.now_ns().saturating_sub(s0);
            if let Some(wp) = st.w.prof.as_mut() {
                wp.timeline.push(Span {
                    key: SpanKey::Map {
                        state: pkey.0,
                        node: pkey.1,
                    },
                    worker: wp.worker,
                    start_ns: s0,
                    dur_ns: dur,
                });
            }
        }
        st.w.flush_stats();
        let Worker { vm, env, .. } = st.w;
        let mut res = pool.resident(i).lock();
        res.vm = Some(vm);
        res.env = env;
    }
    first_err.into_inner().map_or(Ok(()), Err)
}

/// Executes one tile on a resident worker.
#[allow(clippy::too_many_arguments)]
fn exec_tile(
    ctx: &Ctx,
    sid: StateId,
    tree: &ScopeTree,
    plan: &MapPlan,
    w: &mut Worker,
    base: usize,
    tiles: &TileSet,
    t: usize,
) -> Result<(), ExecError> {
    match tiles {
        TileSet::Dim0 { step, ranges } => {
            let (lo, hi) = ranges[t];
            run_map_serial(
                ctx,
                sid,
                tree,
                &plan.params,
                &plan.ranges,
                &plan.body,
                w,
                base,
                lo,
                hi,
                *step,
            )
        }
        TileSet::Flat { d0, d1, ranges } => {
            let (flo, fhi) = ranges[t];
            let (d0s, d0st) = *d0;
            let (d1s, d1st, n1) = *d1;
            // A flat tile may span several dim-0 rows: decode each row
            // segment and run its dim-1 sub-range through the same loop
            // nest the serial path uses.
            let mut f = flo;
            while f < fhi {
                let i0 = f / n1;
                let j0 = f % n1;
                let jend = n1.min(j0 + (fhi - f));
                let v0 = d0s + i0 as i64 * d0st;
                w.point[base] = v0;
                bind(&mut w.env, &plan.params[0], v0);
                run_dim_span(
                    ctx,
                    sid,
                    tree,
                    &plan.params,
                    &plan.ranges,
                    &plan.body,
                    w,
                    base,
                    1,
                    d1s + j0 as i64 * d1st,
                    d1s + jend as i64 * d1st,
                    d1st,
                )?;
                f += jend - j0;
            }
            Ok(())
        }
    }
}

/// Checks whether a map can run entirely without per-iteration symbolic
/// evaluation: every range bound evaluates now (no dependence on this
/// map's own parameters) and every tasklet port/body is parameter-affine.
pub(crate) fn env_free_bounds(plan: &MapPlan, worker: &Worker) -> Option<Vec<(i64, i64, i64)>> {
    let MapBody::Tasklets(ts, _) = &plan.body else {
        return None;
    };
    for (_, bt) in ts {
        if !bt.prog.symbols.is_empty() {
            return None;
        }
        let fast = |w: &WindowPlan| {
            matches!(w, WindowPlan::Scalar(sv) if sv.is_fast()) || matches!(w, WindowPlan::Full)
        };
        if !bt.ins.iter().all(|p| !p.stream && fast(&p.window)) {
            return None;
        }
        if !bt
            .outs
            .iter()
            .all(|o| (fast(&o.window) || o.stream) && !matches!(o.wcr, Some(Wcr::Custom(_))))
        {
            return None;
        }
        // Full-window log outputs are fine; scalar ones handled above.
        for o in &bt.outs {
            if o.log && !matches!(o.window, WindowPlan::Full) {
                return None;
            }
        }
    }
    // Range bounds must not reference this map's own parameters.
    let own: std::collections::BTreeSet<&String> = plan.params.iter().collect();
    let mut bounds = Vec::with_capacity(plan.ranges.len());
    for r in &plan.ranges {
        let mut syms = std::collections::BTreeSet::new();
        r.collect_symbols(&mut syms);
        if syms.iter().any(|s| own.contains(s)) {
            return None;
        }
        let (s, e, st, _) = r.eval(&worker.env).ok()?;
        if st <= 0 {
            return None;
        }
        bounds.push((s, e, st));
    }
    Some(bounds)
}

/// Integer loop nest over constant bounds: the innermost dimension runs
/// through the native/VM loops; middle dimensions update only the point
/// vector.
pub(crate) fn run_map_fast(
    ctx: &Ctx,
    sid: StateId,
    plan: &MapPlan,
    worker: &mut Worker,
    base: usize,
    bounds: &[(i64, i64, i64)],
) -> Result<(), ExecError> {
    let MapBody::Tasklets(ts, lowered) = &plan.body else {
        unreachable!()
    };
    let nd = bounds.len();
    if bounds.iter().any(|&(s, e, _)| s >= e) {
        return Ok(());
    }
    // Initialize the point.
    for (d, &(s, _, _)) in bounds.iter().enumerate() {
        worker.point[base + d] = s;
    }
    let (is_, ie_, ist) = bounds[nd - 1];
    let single = if ts.len() == 1 {
        Some(ts[0].1.clone())
    } else {
        None
    };
    loop {
        // Innermost dimension through the fast loops; fall back to
        // per-point execution (still env-light: env only consulted by
        // Symbolic plans, which env_free_bounds excluded).
        let handled = match &single {
            Some(t) => run_inner_span(ctx, lowered, t, worker, base + nd - 1, is_, ie_, ist)?,
            None => false,
        };
        if !handled {
            let t0 = worker.tier_clock();
            let mut v = is_;
            while v < ie_ {
                worker.point[base + nd - 1] = v;
                for (_, bt) in ts {
                    run_tasklet_point(ctx, sid, bt, worker, None)?;
                }
                v += ist;
            }
            worker.tier_record(t0, Tier::Symbolic);
        }
        // Odometer over the outer dims.
        if nd == 1 {
            return Ok(());
        }
        let mut d = nd - 1;
        loop {
            if d == 0 {
                return Ok(());
            }
            d -= 1;
            let (s, e, st) = bounds[d];
            worker.point[base + d] += st;
            if worker.point[base + d] < e {
                break;
            }
            worker.point[base + d] = s;
        }
    }
}

/// Serial execution of dim 0 over `[lo, hi)`; inner dims recurse lazily.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_map_serial(
    ctx: &Ctx,
    sid: StateId,
    tree: &ScopeTree,
    params: &[String],
    ranges: &[sdfg_symbolic::SymRange],
    body: &MapBody,
    worker: &mut Worker,
    base: usize,
    lo: i64,
    hi: i64,
    step: i64,
) -> Result<(), ExecError> {
    // Allocate thread-local transients.
    if let MapBody::Generic {
        local_transients, ..
    } = body
    {
        for name in local_transients {
            if !worker.locals.contains_key(name) {
                let mut size = 1i64;
                for d in ctx.sdfg.desc(name).map_or(&[][..], |d| d.shape()) {
                    size = size.saturating_mul(d.eval(&worker.env)?.max(0));
                }
                let buf = SharedBuffer::new(worker.ctx.pool.acquire(size as usize));
                worker.locals.insert(name.clone(), buf);
            }
        }
    }
    run_dim_span(
        ctx, sid, tree, params, ranges, body, worker, base, 0, lo, hi, step,
    )
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn map_inner_dims(
    ctx: &Ctx,
    sid: StateId,
    tree: &ScopeTree,
    params: &[String],
    ranges: &[sdfg_symbolic::SymRange],
    body: &MapBody,
    worker: &mut Worker,
    base: usize,
    dim: usize,
) -> Result<(), ExecError> {
    if dim == params.len() {
        return run_map_body(ctx, sid, tree, body, worker);
    }
    let (s, e, st, _) = ranges[dim].eval(&worker.env)?;
    if st <= 0 {
        return Err(ExecError::BadGraph("map step must be positive".into()));
    }
    run_dim_span(
        ctx, sid, tree, params, ranges, body, worker, base, dim, s, e, st,
    )
}

/// Executes dimension `dim` of a map over an explicit `[lo, hi)` value
/// span on a `step` grid, recursing into the remaining dims. This is the
/// loop body of [`map_inner_dims`] with the bounds supplied by the caller,
/// so scheduler tiles can run sub-ranges of a dimension.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_dim_span(
    ctx: &Ctx,
    sid: StateId,
    tree: &ScopeTree,
    params: &[String],
    ranges: &[sdfg_symbolic::SymRange],
    body: &MapBody,
    worker: &mut Worker,
    base: usize,
    dim: usize,
    lo: i64,
    hi: i64,
    step: i64,
) -> Result<(), ExecError> {
    // Innermost dimension with a single-tasklet body: the whole span runs
    // on the fastest tier that takes it.
    if dim == params.len() - 1 {
        if let MapBody::Tasklets(ts, lowered) = body {
            if let [(_, t)] = &ts[..] {
                if run_inner_span(ctx, lowered, t, worker, base + dim, lo, hi, step)? {
                    return Ok(());
                }
            }
        }
    }
    // Innermost rows that fall through run on the per-point symbolic
    // path; outer dimensions recurse without attributing time.
    let t0 = if dim == params.len() - 1 && matches!(body, MapBody::Tasklets(..)) {
        worker.tier_clock()
    } else {
        None
    };
    // The parameter is a symbol to everything evaluated per point; it
    // gives way again to whatever it shadowed once the span is done.
    let shadowed = bind(&mut worker.env, &params[dim], lo);
    let mut v = lo;
    while v < hi {
        worker.point[base + dim] = v;
        bind(&mut worker.env, &params[dim], v);
        map_inner_dims(ctx, sid, tree, params, ranges, body, worker, base, dim + 1)?;
        v += step;
    }
    unbind(&mut worker.env, &params[dim], shadowed);
    worker.tier_record(t0, Tier::Symbolic);
    Ok(())
}

pub(crate) fn run_map_body(
    ctx: &Ctx,
    sid: StateId,
    tree: &ScopeTree,
    body: &MapBody,
    worker: &mut Worker,
) -> Result<(), ExecError> {
    match body {
        MapBody::Tasklets(ts, _) => {
            for (_, bt) in ts {
                run_tasklet_point(ctx, sid, bt, worker, None)?;
            }
            Ok(())
        }
        MapBody::Generic {
            children,
            local_transients,
            writebacks,
        } => {
            // Fresh scope-local transients per iteration.
            for name in local_transients {
                if let Some(b) = worker.locals.get(name) {
                    unsafe {
                        b.as_mut_slice().fill(0.0);
                    }
                }
            }
            for &c in children {
                exec_scope_child(ctx, sid, tree, c, worker)?;
            }
            // Write-backs: local → global along access→exit edges.
            for &e in writebacks {
                let state = ctx.sdfg.state(sid);
                let src = state.graph.edge_src(e);
                let local_name = state.graph.node(src).access_data().unwrap().to_string();
                let m = state.graph.edge(e).memlet.clone();
                let global = m.data_name().to_string();
                let local_is_stream =
                    matches!(ctx.sdfg.desc(&local_name), Some(DataDesc::Stream(_)));
                if local_is_stream {
                    // Bulk flush into the global stream.
                    let drained: Vec<f64> = {
                        let mut q = ctx
                            .streams
                            .get(&local_name)
                            .ok_or_else(|| ExecError::MissingArray(local_name.clone()))?
                            .lock();
                        q.drain(..).collect()
                    };
                    if !drained.is_empty() {
                        ctx.streams
                            .get(&global)
                            .ok_or_else(|| ExecError::MissingArray(global.clone()))?
                            .lock()
                            .extend(drained);
                    }
                    continue;
                }
                let window = match &m.other_subset {
                    Some(os) => gather_symbolic(worker, &local_name, os)?,
                    None => worker.buf(&local_name)?.as_slice().to_vec(),
                };
                ctx.stats
                    .elements_copied
                    .fetch_add(window.len() as u64, Ordering::Relaxed);
                if let Some(wp) = worker.prof.as_mut() {
                    wp.bytes_moved += window.len() as u64 * std::mem::size_of::<f64>() as u64;
                }
                scatter_symbolic(worker, &global, &m.subset, &window, m.wcr.as_ref())?;
            }
            Ok(())
        }
    }
}

/// Executes a child node inside a generic map body.
pub(crate) fn exec_scope_child(
    ctx: &Ctx,
    sid: StateId,
    tree: &ScopeTree,
    c: NodeId,
    worker: &mut Worker,
) -> Result<(), ExecError> {
    let state = ctx.sdfg.state(sid);
    match state.graph.node(c) {
        Node::Tasklet { .. } => {
            let bt = worker.tasklet(sid, c)?;
            run_tasklet_point(ctx, sid, &bt, worker, None)
        }
        Node::Access { .. } => exec_access(ctx, sid, c, worker),
        Node::MapEntry(_) => exec_map(ctx, sid, tree, c, worker),
        Node::ConsumeEntry(_) => exec_consume(ctx, sid, tree, c, worker),
        Node::MapExit { .. } | Node::ConsumeExit { .. } => Ok(()),
        Node::Reduce { .. } => exec_reduce(ctx, sid, c, worker),
        Node::NestedSdfg { .. } => exec_nested(ctx, sid, c, worker),
    }
}

// --- other nodes --------------------------------------------------------------------

pub(crate) fn exec_consume(
    ctx: &Ctx,
    sid: StateId,
    tree: &ScopeTree,
    entry: NodeId,
    worker: &mut Worker,
) -> Result<(), ExecError> {
    let state = ctx.sdfg.state(sid);
    let Node::ConsumeEntry(scope) = state.graph.node(entry) else {
        unreachable!()
    };
    let pe_param = scope.pe_param.clone();
    let stream_name = state
        .graph
        .in_edges(entry)
        .filter_map(|e| state.graph.edge(e).memlet.data.clone())
        .find(|d| matches!(ctx.sdfg.desc(d), Some(DataDesc::Stream(_))))
        .ok_or_else(|| ExecError::BadGraph("consume scope without input stream".into()))?;
    let order = state.topological_order();
    let children: Vec<NodeId> = order
        .into_iter()
        .filter(|&c| tree.scope_of(c) == Some(entry))
        .collect();
    let shadowed = bind(&mut worker.env, &pe_param, 0);
    let mut iter = 0i64;
    loop {
        let v = {
            let mut q = ctx
                .streams
                .get(&stream_name)
                .ok_or_else(|| ExecError::MissingArray(stream_name.clone()))?
                .lock();
            q.pop_front()
        };
        let Some(v) = v else { break };
        bind(&mut worker.env, &pe_param, iter);
        iter += 1;
        for &c in &children {
            match ctx.sdfg.state(sid).graph.node(c) {
                Node::Tasklet { .. } => {
                    let bt = worker.tasklet(sid, c)?;
                    run_tasklet_point(ctx, sid, &bt, worker, Some((&stream_name, v)))?;
                }
                _ => exec_scope_child(ctx, sid, tree, c, worker)?,
            }
        }
    }
    unbind(&mut worker.env, &pe_param, shadowed);
    Ok(())
}

pub(crate) fn exec_reduce(
    ctx: &Ctx,
    sid: StateId,
    n: NodeId,
    worker: &mut Worker,
) -> Result<(), ExecError> {
    let state = ctx.sdfg.state(sid);
    let Node::Reduce {
        wcr,
        axes,
        identity,
    } = state.graph.node(n)
    else {
        unreachable!()
    };
    let f = wcr_fn(wcr)?;
    let in_edge = state
        .graph
        .in_edges(n)
        .next()
        .ok_or_else(|| ExecError::BadGraph("reduce without input".into()))?;
    let out_edge = state
        .graph
        .out_edges(n)
        .next()
        .ok_or_else(|| ExecError::BadGraph("reduce without output".into()))?;
    let in_m = state.graph.edge(in_edge).memlet.clone();
    let out_m = state.graph.edge(out_edge).memlet.clone();
    let window = gather_symbolic(worker, in_m.data_name(), &in_m.subset)?;
    let dims = in_m.subset.eval(&worker.env)?;
    let sizes: Vec<usize> = dims
        .iter()
        .map(|&(s, e, st, _)| (((e - s) + st - 1) / st).max(0) as usize)
        .collect();
    let rank = sizes.len();
    let reduce_axes: Vec<usize> = match axes {
        Some(a) => a.clone(),
        None => (0..rank).collect(),
    };
    let keep: Vec<usize> = (0..rank).filter(|d| !reduce_axes.contains(d)).collect();
    let out_sizes: Vec<usize> = keep.iter().map(|&d| sizes[d]).collect();
    let out_len = out_sizes.iter().product::<usize>().max(1);
    let dtype = ctx
        .sdfg
        .desc(out_m.data_name())
        .map(|d| d.dtype())
        .unwrap_or(sdfg_core::DType::F64);
    let init = identity.or_else(|| wcr.identity(dtype)).unwrap_or(0.0);
    let mut acc = vec![init; out_len];
    let mut out_strides = vec![1usize; out_sizes.len()];
    for d in (0..out_sizes.len().saturating_sub(1)).rev() {
        out_strides[d] = out_strides[d + 1] * out_sizes[d + 1];
    }
    let mut in_strides = vec![1usize; rank];
    for d in (0..rank.saturating_sub(1)).rev() {
        in_strides[d] = in_strides[d + 1] * sizes[d + 1];
    }
    for (flat, &v) in window.iter().enumerate() {
        let mut pos = 0usize;
        for (k, &d) in keep.iter().enumerate() {
            pos += ((flat / in_strides[d]) % sizes[d]) * out_strides[k];
        }
        acc[pos] = f(acc[pos], v);
    }
    scatter_symbolic(
        worker,
        out_m.data_name(),
        &out_m.subset,
        &acc,
        out_m.wcr.as_ref(),
    )
}

pub(crate) fn exec_nested(
    ctx: &Ctx,
    sid: StateId,
    n: NodeId,
    worker: &mut Worker,
) -> Result<(), ExecError> {
    let state = ctx.sdfg.state(sid);
    let Node::NestedSdfg {
        sdfg: nested,
        symbol_mapping,
        inputs,
        outputs,
    } = state.graph.node(n)
    else {
        unreachable!()
    };
    let mut sub = Executor::new(nested);
    // The nested run inherits the enclosing run's JIT decision, so a
    // JIT-off differential run stays JIT-off all the way down.
    sub.jit = Some(ctx.jit);
    // Nested SDFGs share the caller's scheduler pool when the enclosing
    // context is provably safe (same gate as nested maps): outside any
    // parallel region, no thread-local overlays, not inside a pool tile.
    // Otherwise nested parallelism is sequentialized as before.
    let share_sched = ctx.sched.is_some()
        && worker.chunk_param.is_none()
        && worker.locals.is_empty()
        && !crate::sched::in_pool_worker();
    if share_sched {
        sub.nthreads = ctx.nthreads;
        sub.sched = ctx.sched.clone();
    } else {
        sub.nthreads = 1;
    }
    // Inherit the caller's plan cache and buffer pool so repeated outer
    // runs also amortize the nested SDFG's lowering and allocations.
    sub.plan_cache = ctx.plan_cache.clone();
    sub.pool = ctx.pool.clone();
    for (sym, expr) in symbol_mapping {
        let v = expr.eval(&worker.env)?;
        sub.symbols.insert(sym.clone(), v);
    }
    for e in state.graph.in_edges(n) {
        let df = state.graph.edge(e);
        let Some(conn) = &df.dst_conn else { continue };
        if !inputs.contains(conn) {
            continue;
        }
        let w = gather_symbolic(worker, df.memlet.data_name(), &df.memlet.subset)?;
        sub.arrays.insert(conn.clone(), w);
    }
    sub.run()?;
    for e in state.graph.out_edges(n) {
        let df = state.graph.edge(e);
        let Some(conn) = &df.src_conn else { continue };
        if !outputs.contains(conn) {
            continue;
        }
        let w = sub
            .arrays
            .get(conn)
            .cloned()
            .ok_or_else(|| ExecError::MissingArray(conn.clone()))?;
        scatter_symbolic(worker, df.memlet.data_name(), &df.memlet.subset, &w, None)?;
    }
    Ok(())
}

/// The host backend: the crossbeam-style thread-pool executor this crate
/// has always had, now behind the [`Backend`](crate::dispatch::Backend)
/// trait. `run_scope` executes
/// the state for real on worker threads (plan cache and buffer pool
/// included) and reports measured wall time instead of a model.
pub struct CpuBackend;

impl crate::dispatch::Backend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn supports(&self, schedule: Schedule) -> bool {
        matches!(schedule, Schedule::Sequential | Schedule::CpuMulticore)
    }

    fn run_scope(
        &self,
        rcx: &mut crate::dispatch::RunCtx<'_, '_, '_>,
        sid: StateId,
    ) -> Result<crate::dispatch::ScopeStats, ExecError> {
        let launches = &rcx.worker.ctx.stats.map_launches;
        let before = launches.load(Ordering::Relaxed);
        let t0 = std::time::Instant::now();
        rcx.run_functional(sid)?;
        Ok(crate::dispatch::ScopeStats {
            scopes: launches.load(Ordering::Relaxed) - before,
            compute_s: t0.elapsed().as_secs_f64(),
            ..crate::dispatch::ScopeStats::default()
        })
    }
}

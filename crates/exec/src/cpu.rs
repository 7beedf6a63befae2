//! The CPU backend: map/consume scope execution on the thread pool,
//! reduce and nested-SDFG nodes.

use crate::buffer::SharedBuffer;
use crate::copy::{
    desc_strides, exec_access, for_each_offset, gather_symbolic, scatter_symbolic,
    scope_owns_container, wcr_fn,
};
use crate::engine::{bind, unbind, Ctx, ExecError, Executor, RunConfig, Worker};
use crate::lower::run_inner_span;
use crate::tasklet::{run_tasklet_point, BodyTasklet};
use parking_lot::Mutex;
use sdfg_core::desc::DataDesc;
use sdfg_core::scope::ScopeTree;
use sdfg_core::{Node, Schedule, StateId, Subset};
use sdfg_graph::{EdgeId, NodeId};
use sdfg_profile::{Mode as ProfMode, Span, SpanKey, Tier};
use sdfg_symbolic::dependence::Overlap;
use sdfg_symbolic::Env;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

// --- map execution ----------------------------------------------------------------

/// Body of a compiled map: either a straight-line list of tasklets or a
/// generic subgraph executed per point.
pub(crate) enum MapBody {
    /// Straight-line tasklets plus the static tier chosen for them at
    /// plan-build time (see [`crate::lower`]).
    Tasklets(Vec<(NodeId, std::sync::Arc<BodyTasklet>)>, Tier),
    Generic {
        children: Vec<NodeId>,
        /// Transients local to this scope → zeroed per iteration, allocated
        /// thread-locally (sized when a launch allocates them).
        local_transients: Vec<String>,
        /// Access→exit write-back edges processed at iteration end.
        writebacks: Vec<EdgeId>,
        /// The body writes nothing outside its scope-local transients but
        /// WCR write-backs into containers no member reads (see
        /// [`replayable`]): its tiles may run in parallel.
        replayable: bool,
    },
}

/// A dynamic-range connector of a map entry: each launch binds `conn` to
/// the (rounded) element of `data` at `subset`.
pub(crate) struct DynEdge {
    pub(crate) conn: String,
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
    /// Dynamic-range connectors (gathered per launch).
    pub(crate) dyn_edges: Vec<DynEdge>,
    /// Static iteration counts for atomic elision: the trip count of a
    /// launch-invariant unit-step range, `i64::MAX/4` for anything else.
    pub(crate) pcounts: Vec<i64>,
    /// Dimensions whose extent reads launch-time constants and nothing
    /// else that varies: each launch measures them for the scheduler's
    /// volume estimate and the JIT hotness gate.
    per_launch: Vec<usize>,
    pub(crate) body: MapBody,
    /// Reads of containers the body also writes, checked per parallel
    /// launch; `None` when the body has none.
    race: Option<Overlap>,
    /// Whether the run that built the plan had the JIT tier on.
    jit: bool,
    /// Why the determinism gate or the race check first kept a parallel
    /// launch of this map serial.
    pub(crate) serial_reason: std::sync::OnceLock<&'static str>,
}

impl MapPlan {
    /// The lowering-report row for this plan, before any kernel: its
    /// static tier and why no kernel has run (the execution plan overlays
    /// the rows of maps whose kernel compiled, and the decline of those
    /// whose kernel did not, and why any variant's launch ran serially).
    pub(crate) fn lowering_entry(&self, sid: u32, nid: u32) -> crate::lower::MapLowering {
        use crate::lower::{cold_map, GENERIC_BODY, JIT_OFF, MULTI_TASKLET};
        let tier = match &self.body {
            MapBody::Tasklets(_, tier) => *tier,
            MapBody::Generic { .. } => Tier::Symbolic,
        };
        let why = match &self.body {
            _ if !self.jit => JIT_OFF.to_string(),
            MapBody::Tasklets(ts, _) if ts.len() > 1 => MULTI_TASKLET.to_string(),
            MapBody::Tasklets(..) => cold_map(),
            MapBody::Generic { .. } => GENERIC_BODY.to_string(),
        };
        crate::lower::MapLowering {
            state: sid,
            node: nid,
            label: self.label.clone(),
            tier: tier.name(),
            jit_reason: Some(why),
            serial_reason: None,
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
    let inv = &*ctx.inv;
    let mut pcounts = Vec::with_capacity(ranges.len());
    let mut per_launch = Vec::new();
    for (d, r) in ranges.iter().enumerate() {
        let mut syms = std::collections::BTreeSet::new();
        r.collect_symbols(&mut syms);
        // Launch-invariant ranges must evaluate: a failure here is a real
        // error (malformed bound), not a reason to silently treat the
        // dimension as unbounded and flip scheduling decisions. A count
        // spans the values atomic elision reads only at unit step; a
        // strided dimension is measured per launch.
        if syms.iter().all(|s| inv.env0.contains_key(s)) && r.step.is_one() {
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
        // The tasklets' atomic elision spans the map's own trip counts too
        // (a launch pushes them again for its points).
        let at = worker.pcounts.len();
        worker.pcounts.extend_from_slice(&pcounts);
        let compiled: Result<Vec<_>, _> = children
            .iter()
            .map(|&c| worker.tasklet_cached(sid, c))
            .collect();
        worker.pcounts.truncate(at);
        let mut ts = Vec::new();
        for (&c, (cctx, bt)) in children.iter().zip(compiled?) {
            folded.extend(&cctx.folded);
            ts.push((c, bt));
        }
        let tier = crate::lower::decide_lowering(worker, &ts);
        MapBody::Tasklets(ts, tier)
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
        let replayable = replayable(ctx, state, entry, &members, &local_transients, &writebacks);
        MapBody::Generic {
            children,
            local_transients,
            writebacks,
            replayable,
        }
    };
    let race = match &body {
        MapBody::Tasklets(ts, _) => race_check(ctx, state, ts, &params, &ranges),
        MapBody::Generic { .. } => None,
    };
    let plan = std::sync::Arc::new(MapPlan {
        label: scope.label.clone(),
        params,
        ranges,
        dyn_edges,
        pcounts,
        per_launch,
        body,
        race,
        jit: ctx.cfg.jit,
        serial_reason: std::sync::OnceLock::new(),
    });
    ctx.cfg.plan_cache.note_point_compile();
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
    let Node::MapEntry(m) = ctx.sdfg.state(sid).graph.node(entry) else {
        unreachable!()
    };
    let base = worker.pstack.len();
    // Eligibility for parallel execution, decided before compiling bodies
    // so the WCR race analysis knows the chunked parameter (compile caching
    // needs the decision stable per (worker, map): it depends only on
    // schedule and nesting). The adaptive tuner may later downgrade an
    // eligible launch to serial (atomic WCR in a serial run is merely
    // conservative), but never the reverse — plain writes racing would be
    // unsound. Under the work-stealing scheduler, nested maps are eligible
    // too when the enclosing context is provably safe: no active parallel
    // region (a second concurrent chunk axis would break the single-chunk
    // race analysis), no thread-local transient overlays (stealing workers
    // could not see them), and not already inside a pool tile.
    let nested_ok =
        ctx.cfg.sched.is_some() && worker.chunk_param.is_none() && worker.locals.is_empty();
    let eligible = matches!(
        m.schedule,
        Schedule::CpuMulticore | Schedule::GpuDevice | Schedule::Mpi
    ) && ctx.cfg.nthreads > 1
        && !m.params.is_empty()
        && (!worker.nested || nested_ok)
        && !crate::sched::in_pool_worker();
    let saved_chunk = worker.chunk_param;
    if eligible {
        worker.chunk_param = Some(base);
    }
    // Parameters must be on the stack BEFORE compiling the body: tasklet
    // windows are solved as affine functions of the full parameter stack.
    worker.pstack.extend(m.params.iter().cloned());
    worker.point.resize(base + m.params.len(), 0);
    let plan = build_map_plan(ctx, sid, tree, entry, worker)?;
    let ranges = &plan.ranges;
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
    let mut inner_points = nested_points(ctx, sid, &plan, worker, d0s);
    for d in 0..ranges.len() {
        let c = plan.extent(worker, d, n0);
        worker.volume = worker.volume.saturating_mul(c.max(1));
        if d > 0 {
            inner_points = inner_points.saturating_mul(inner_extent_estimate(c, n0));
        }
    }
    // The map's kernel, requested by its first hot launch before the
    // tuner's clock starts.
    let d0 = (d0s, d0e, d0st);
    let nest = crate::nest::map_nest(ctx, &plan, pkey, worker, base, false);
    // Parallel launches go through the work-stealing pool: the adaptive
    // tuner decides per launch whether tiling pays off, and the
    // determinism gate keeps order-sensitive bodies serial.
    let pool = ctx.cfg.sched.as_ref().filter(|_| eligible);
    // Estimated volume and start time: the tuner's inputs, taken only
    // where it is consulted.
    let sample = pool.map(|_| {
        let volume = (n0 as u64).saturating_mul(inner_points);
        (volume, std::time::Instant::now())
    });
    let tiled = pool.zip(sample).and_then(|(pool, (volume, _))| {
        let decision = ctx.plan.tuning.decide(pkey, volume, pool.nworkers());
        if !decision.parallel {
            return None;
        }
        let race_free = || {
            let disjoint = plan.race.as_ref();
            disjoint
                .is_none_or(|r| r.disjoint(&worker.env, (d0s, d0e)))
                .then_some(())
                .ok_or("reads what other points write")
        };
        if let Err(why) = steal_deterministic(&plan.body).and_then(|()| race_free()) {
            let _ = plan.serial_reason.set(why);
            return None;
        }
        // A tiled launch of more than one dim takes the kernel below the
        // hotness gate too. A 1-D one keeps the gate: whether a launch tiles
        // hangs on the tuner's timing.
        let nest = nest.clone().or_else(|| {
            crate::nest::map_nest(ctx, &plan, pkey, worker, base, plan.params.len() > 1)
        });
        let ts = build_tiles(d0, n0, decision.tiles)?;
        ctx.stats.parallel_regions.fetch_add(1, Ordering::Relaxed);
        Some((ts, pool, nest))
    });
    let (tiles, nest) = match &tiled {
        Some((ts, pool, nest)) => (Some((ts, *pool)), nest.clone()),
        None => (None, nest),
    };
    let native = nest
        .as_ref()
        .and_then(|n| crate::nest::launch_map_nest(ctx, &plan, n, worker, base, d0, tiles));
    let r = native.unwrap_or_else(|| {
        // The rows the launch leaves to the interpreted paths call the
        // kernel where it takes them: a suffix kernel's prefix rows, a
        // whole-map kernel's dim-0 values (the one row of a serial 1-D
        // launch is the launch that declined).
        let in_tile = tiles.is_some() || crate::sched::in_pool_worker();
        // The rows of a tiled launch run on the tile workers, whose
        // overlays the launch does not see.
        let locals = tiles.is_none().then_some(&worker.locals);
        let rows = nest.filter(|n| {
            (tiles.is_some() || n.start > 0 || n.core.ndims > 1) && n.takes(&plan, in_tile, locals)
        });
        let saved = std::mem::replace(&mut worker.row_nest, rows);
        // Each tile, or the whole dim-0 range of a serial launch, walks
        // the map's dims with `run_dim_span`.
        let r = match tiles {
            Some((ts, pool)) => {
                run_map_steal(ctx, sid, tree, &plan, worker, base, ts, pool, pmode, pkey)
            }
            None => {
                let was_nested = std::mem::replace(&mut worker.nested, true);
                let r = run_map_serial(ctx, sid, tree, &plan, worker, base, d0);
                worker.nested = was_nested;
                r
            }
        };
        worker.row_nest = saved;
        r
    });
    let workers = tiles.map_or(1, |(_, pool)| pool.nworkers());
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

/// Points one iteration of a generic body runs in its inner maps, at the
/// launch's first point (dim 0 at `d0s`, the other dims at their starts):
/// a tile map whose work is in a nested map (histogram's `tiles`, each
/// sweeping a block of pixels) weighs what that map sweeps, not one point.
/// 1 for a tasklet body, and for an extent that does not evaluate.
fn nested_points(ctx: &Ctx, sid: StateId, plan: &MapPlan, worker: &Worker, d0s: i64) -> u64 {
    let MapBody::Generic { children, .. } = &plan.body else {
        return 1;
    };
    let graph = &ctx.sdfg.state(sid).graph;
    let mut env = worker.env.clone();
    for (d, (p, r)) in plan.params.iter().zip(&plan.ranges).enumerate() {
        let at = if d == 0 { Ok(d0s) } else { r.start.eval(&env) };
        bind(&mut env, p, at.unwrap_or(0));
    }
    let extent = |r: &sdfg_symbolic::SymRange| r.eval_len(&env).map_or(1, |n| n.max(1) as u64);
    children
        .iter()
        .filter_map(|&c| match graph.node(c) {
            Node::MapEntry(m) => Some(m.ranges.iter().map(extent).product::<u64>()),
            _ => None,
        })
        .sum::<u64>()
        .max(1)
}

/// Bitwise-determinism gate for the work-stealing path. Tiling reorders
/// points across workers, which stays invisible exactly when no output
/// combines across tiles: elided-atomic WCR writes are proven disjoint
/// per dim-0 value (each element sees a single tile's serial order), but
/// atomic WCR, shared stream pushes, and log appends all combine in
/// arrival order. A generic subgraph body tiles when it is
/// [`replayable`]: everything it writes but its WCR write-backs is
/// tile-private, and each tile logs its write-backs instead of combining
/// them, which `run_map_steal` replays in tile order once every tile has
/// run — the serial combine sequence, since the tiles are contiguous
/// dim-0 ranges each walked in order. Launches that fail the gate run
/// serially, keeping repeated runs bitwise identical regardless of steal
/// timing; the error names the output that kept them serial.
fn steal_deterministic(body: &MapBody) -> Result<(), &'static str> {
    match body {
        MapBody::Tasklets(ts, _) => {
            for o in ts.iter().flat_map(|(_, bt)| &bt.outs) {
                if o.stream {
                    return Err("stream output");
                }
                if o.log {
                    return Err("write log");
                }
                if o.atomic {
                    return Err("atomic WCR");
                }
            }
            Ok(())
        }
        MapBody::Generic {
            replayable: true, ..
        } => Ok(()),
        MapBody::Generic { .. } => Err("generic body with a shared write"),
    }
}

/// Whether the tiles of a generic body (map `entry`, members `members`)
/// may run in parallel with their write-backs logged and replayed in
/// order: its members are tasklets, maps and access nodes; every
/// container they write is one of its `locals` (none a stream, whose
/// queue the run shares), except through `writebacks`, each of which
/// carries a WCR and flushes an array; and no member reads a container a
/// write-back writes.
fn replayable(
    ctx: &Ctx,
    state: &sdfg_core::State,
    entry: NodeId,
    members: &[NodeId],
    locals: &[String],
    writebacks: &[EdgeId],
) -> bool {
    let g = &state.graph;
    let is_stream = |d: &str| matches!(ctx.sdfg.desc(d), Some(DataDesc::Stream(_)));
    let local = |d: &str| locals.iter().any(|l| l == d) && !is_stream(d);
    let targets: Vec<&str> = writebacks
        .iter()
        .map(|&e| g.edge(e).memlet.data_name())
        .collect();
    members.iter().all(|&m| {
        let kind_ok = matches!(
            g.node(m),
            Node::Tasklet { .. } | Node::Access { .. } | Node::MapEntry(_) | Node::MapExit { .. }
        );
        let reads_ok = g.in_edges(m).all(|e| {
            let mm = &g.edge(e).memlet;
            mm.is_empty() || !targets.contains(&mm.data_name())
        });
        let writes_ok = g.out_edges(m).all(|e| {
            let mm = &g.edge(e).memlet;
            if mm.is_empty() {
                return true;
            }
            if writebacks.contains(&e) {
                return mm.wcr.is_some() && g.node(m).access_data().is_some_and(|d| !is_stream(d));
            }
            let dst = g.edge_dst(e);
            match g.node(dst) {
                Node::Access { data, .. } => local(data),
                n if n.exit_entry() == Some(entry) => local(mm.data_name()),
                _ => true,
            }
        });
        kind_ok && reads_ok && writes_ok
    })
}

/// The race predicate of one map (see [`Overlap`]): tiles run a map's
/// points in any order across workers, which a body that reads elements
/// other points write would observe.
fn race_check(
    ctx: &Ctx,
    state: &sdfg_core::State,
    ts: &[(NodeId, std::sync::Arc<BodyTasklet>)],
    params: &[String],
    ranges: &[sdfg_symbolic::SymRange],
) -> Option<Overlap> {
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let access = |e: EdgeId| {
        let m = &state.graph.edge(e).memlet;
        (!m.is_empty()).then(|| (m.data_name(), &m.subset))
    };
    for &(t, _) in ts {
        reads.extend(state.graph.in_edges(t).filter_map(access));
        writes.extend(state.graph.out_edges(t).filter_map(access));
    }
    Overlap::new(&reads, &writes, params, ranges, &ctx.inv.env0)
}

/// The tiles of one parallel launch: `[lo, hi)` value ranges of dim 0 on
/// the map's own step grid, executed by pool workers in work-stealing
/// order. Any body may tile, WCR included, since disjoint dim-0 ranges
/// preserve the chunk-dominance race analysis.
pub(crate) struct TileSet {
    /// Dim-0 step.
    step: i64,
    /// Per-tile `[lo, hi)` value ranges.
    pub(crate) ranges: Vec<(i64, i64)>,
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

/// The tiles of a parallel launch over the `n0` values of dim 0 `d0`, at
/// most `want` of them. `None` when dim 0 has a single value.
fn build_tiles(d0: (i64, i64, i64), n0: usize, want: usize) -> Option<TileSet> {
    let (d0s, _, d0st) = d0;
    (n0 > 1).then(|| TileSet {
        step: d0st,
        ranges: split_even(n0 as u64, want)
            .into_iter()
            .map(|(a, b)| (d0s + a as i64 * d0st, d0s + b as i64 * d0st))
            .collect(),
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
    // A generic body's tiles log their write-backs (see
    // `steal_deterministic`): per tile, the log and how the tile ended.
    let replay = matches!(plan.body, MapBody::Generic { .. });
    let logs: Vec<Mutex<Option<TileLog>>> = match replay {
        true => (0..tiles.ranges.len()).map(|_| Mutex::new(None)).collect(),
        false => Vec::new(),
    };
    let tile_fn = |slot: usize, t: usize| {
        // A failed tile poisons the launch: remaining tiles drain without
        // executing so the pool's completion protocol still runs. Logged
        // tiles all run, so the replay has every tile before a failure.
        if !replay && first_err.lock().is_some() {
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
        let (lo, hi) = tiles.ranges[t];
        let span = (lo, hi, tiles.step);
        if replay {
            st.w.wb_log = Some((base, Vec::new()));
        }
        let r = run_map_serial(ctx, sid, tree, plan, &mut st.w, base, span);
        if let Some((_, log)) = st.w.wb_log.take() {
            *logs[t].lock() = Some((log, r.err()));
        } else if let Err(e) = r {
            let mut first = first_err.lock();
            if first.is_none() {
                *first = Some(e);
            }
        }
    };
    pool.run(tiles.ranges.len(), &tile_fn, &ctx.stats);
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
    if replay {
        return replay_writebacks(ctx, sid, plan, worker, logs);
    }
    first_err.into_inner().map_or(Ok(()), Err)
}

/// One tile's write-backs of a generic body, `(write-back, offset,
/// value)` in the order the tile made them (see `steal_deterministic`).
pub(crate) type WriteBackLog = Vec<(u32, usize, f64)>;

/// A tile's write-back log, and the error that ended the tile, if any.
type TileLog = (WriteBackLog, Option<ExecError>);

/// Combines the tiles' logged write-backs (`(write-back, offset, value)`)
/// into their targets in tile order, up to and including the first tile
/// that failed, whose error it returns: the combines a serial launch
/// makes before the same failure.
fn replay_writebacks(
    ctx: &Ctx,
    sid: StateId,
    plan: &MapPlan,
    worker: &Worker,
    logs: Vec<Mutex<Option<TileLog>>>,
) -> Result<(), ExecError> {
    let MapBody::Generic { writebacks, .. } = &plan.body else {
        return Ok(());
    };
    let state = ctx.sdfg.state(sid);
    let mut targets = Vec::with_capacity(writebacks.len());
    for &e in writebacks {
        let m = &state.graph.edge(e).memlet;
        let wcr = m
            .wcr
            .as_ref()
            .ok_or_else(|| ExecError::BadGraph("logged write-back without a WCR".into()))?;
        targets.push((worker.buf(m.data_name())?, wcr_fn(wcr)?));
    }
    for cell in logs {
        let Some((log, err)) = cell.into_inner() else {
            continue;
        };
        for (k, off, v) in log {
            let (buf, f) = targets[k as usize];
            buf.combine_plain(off, v, f);
        }
        if let Some(e) = err {
            return Err(e);
        }
    }
    Ok(())
}

/// Runs a map's points with dim 0 over the `(lo, hi, step)` span `d0`:
/// a serial launch's whole range, or one tile.
fn run_map_serial(
    ctx: &Ctx,
    sid: StateId,
    tree: &ScopeTree,
    plan: &MapPlan,
    worker: &mut Worker,
    base: usize,
    d0: (i64, i64, i64),
) -> Result<(), ExecError> {
    alloc_locals(ctx, &plan.body, worker)?;
    run_dim_span(ctx, sid, tree, plan, worker, base, 0, d0)
}

/// Allocates a generic body's thread-local transients on the worker (once;
/// they stay for its later launches).
pub(crate) fn alloc_locals(
    ctx: &Ctx,
    body: &MapBody,
    worker: &mut Worker,
) -> Result<(), ExecError> {
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
                let wctx = worker.ctx;
                let buf = SharedBuffer::new(wctx.cfg.pool.acquire(size as usize, &wctx.stats));
                worker.locals.insert(name.clone(), buf);
            }
        }
    }
    Ok(())
}

/// Executes dimension `dim` of a map over the `[lo, hi)` values of `span`
/// on its `step` grid, recursing into the remaining dims. This is the one
/// way the interpreted tiers walk a map: a serial launch calls it with dim
/// 0's whole range, a scheduler tile with its sub-range.
#[allow(clippy::too_many_arguments)]
fn run_dim_span(
    ctx: &Ctx,
    sid: StateId,
    tree: &ScopeTree,
    plan: &MapPlan,
    worker: &mut Worker,
    base: usize,
    dim: usize,
    span: (i64, i64, i64),
) -> Result<(), ExecError> {
    let (params, body) = (&plan.params, &plan.body);
    let (lo, hi, step) = span;
    // A single-tasklet body runs the span on the map's kernel where it
    // starts (a whole-map kernel of more than one dim one dim-0 value at a
    // time, below, so a row it declines declines alone), and its innermost
    // dimension on the fastest interpreted tier that takes it.
    let mut rows = None;
    if let MapBody::Tasklets(ts, tier) = body {
        if let [(_, t)] = &ts[..] {
            rows = worker
                .row_nest
                .clone()
                .filter(|n| n.start == dim)
                .map(|n| (n, t));
            if let Some((n, t)) = rows.take_if(|(n, _)| dim > 0 || n.core.ndims == 1) {
                if crate::nest::run_rows(ctx, &n, t, worker, base + dim, lo, hi, step)? {
                    return Ok(());
                }
            }
            if dim == params.len() - 1
                && run_inner_span(ctx, *tier, t, worker, base + dim, lo, hi, step)?
            {
                return Ok(());
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
        if let Some((n, t)) = &rows {
            if crate::nest::run_rows(ctx, n, t, worker, base, v, v + 1, step)? {
                v += step;
                continue;
            }
        }
        worker.point[base + dim] = v;
        bind(&mut worker.env, &params[dim], v);
        match plan.ranges.get(dim + 1) {
            None => run_map_body(ctx, sid, tree, body, worker, base)?,
            Some(r) => {
                let (s, e, st, _) = r.eval(&worker.env)?;
                if st <= 0 {
                    return Err(ExecError::BadGraph("map step must be positive".into()));
                }
                run_dim_span(ctx, sid, tree, plan, worker, base, dim + 1, (s, e, st))?;
            }
        }
        v += step;
    }
    unbind(&mut worker.env, &params[dim], shadowed);
    worker.tier_record(t0, Tier::Symbolic);
    Ok(())
}

/// Runs one point of a map body; `base` is where the map's parameters
/// start in the worker's parameter stack.
fn run_map_body(
    ctx: &Ctx,
    sid: StateId,
    tree: &ScopeTree,
    body: &MapBody,
    worker: &mut Worker,
    base: usize,
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
            ..
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
            for (k, &e) in writebacks.iter().enumerate() {
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
                // Inside a tile of this map, the combines are logged for
                // the launch to replay in order.
                if let Some((_, log)) = worker.wb_log.as_mut().filter(|(at, _)| *at == base) {
                    let strides = desc_strides(ctx, &global, &worker.env)?;
                    let dims = m.subset.eval(&worker.env)?;
                    let mut vals = window.iter();
                    for_each_offset(&dims, &strides, |off| {
                        if let Some(&v) = vals.next() {
                            log.push((k as u32, off, v));
                        }
                    });
                    continue;
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
    // The nested run inherits the enclosing run's configuration: its JIT
    // decision (a JIT-off differential run stays JIT-off all the way
    // down), profiling switch (its spans reach the enclosing report),
    // plan cache and buffer pool (repeated outer runs also amortize the
    // nested SDFG's lowering and allocations), transition cap and
    // deadline. It shares the scheduler pool only when the enclosing
    // context is provably safe (same gate as nested maps): outside any
    // parallel region, no thread-local overlays, not inside a pool tile.
    // Otherwise nested parallelism is sequentialized.
    let share_sched = ctx.cfg.sched.is_some()
        && worker.chunk_param.is_none()
        && worker.locals.is_empty()
        && !crate::sched::in_pool_worker();
    let cfg = if share_sched {
        ctx.cfg.clone()
    } else {
        RunConfig {
            nthreads: 1,
            sched: None,
            ..ctx.cfg.clone()
        }
    };
    let mut symbols = Env::new();
    for (sym, expr) in symbol_mapping {
        symbols.insert(sym.clone(), expr.eval(&worker.env)?);
    }
    let mut arrays = HashMap::new();
    for e in state.graph.in_edges(n) {
        let df = state.graph.edge(e);
        let Some(conn) = &df.dst_conn else { continue };
        if !inputs.contains(conn) {
            continue;
        }
        let w = gather_symbolic(worker, df.memlet.data_name(), &df.memlet.subset)?;
        arrays.insert(conn.clone(), w);
    }
    let chash = sdfg_core::serialize::content_hash(nested);
    let mut sub = Executor::new(nested, chash, cfg, symbols, arrays);
    // The call is part of the enclosing run: its counters add to the run's
    // statistics, and it is no run of its own in the metrics or ledger.
    ctx.stats.add(&sub.run()?);
    if let (Some(p), Some(report)) = (&ctx.prof, sub.report.take()) {
        p.collector.absorb_nested(report);
    }
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

//! State dispatch: interstate environments, per-state node walks.

use crate::copy::exec_access;
use crate::cpu::{exec_consume, exec_map, exec_nested, exec_reduce};
use crate::engine::{bind, Ctx, ExecError, Worker};
use crate::tasklet::run_tasklet_point;
use sdfg_core::desc::DataDesc;
use sdfg_core::scope::ScopeTree;
use sdfg_core::{Node, Schedule, Sdfg, StateId, Storage};
use sdfg_graph::NodeId;
use sdfg_profile::{Mode as ProfMode, Span, SpanKey};
use sdfg_symbolic::Env;
use std::sync::atomic::Ordering;

/// Refreshes what interstate edges read beside the symbol table — stream
/// lengths and scalarish container values — in `env`, in place.
fn refresh_overlay(ctx: &Ctx, env: &mut Env) {
    for (key, name) in &ctx.stream_lens {
        if let Some(q) = ctx.streams.get(name) {
            bind(env, key, q.lock().len() as i64);
        }
    }
    // Scalarish containers were classified once at run setup
    // (`Ctx::scalarish`); only their current values are read here.
    for (name, slot) in &ctx.scalarish {
        let b = &ctx.bufs[*slot];
        if !b.is_empty() {
            bind(env, name, b.read(0).round() as i64);
        }
    }
}

/// Executes one state on the run's worker.
pub(crate) fn exec_state(ctx: &Ctx, sid: StateId, worker: &mut Worker) -> Result<(), ExecError> {
    // Structural plan (scope tree + topological order): derived once per
    // (SDFG, bindings) pair, reused on every later execution of the state.
    let splan = worker.state_plan(sid)?;
    let tree = &splan.tree;
    worker.enter_state(&splan);
    let mode = match &ctx.prof {
        Some(p) => p.state_mode(sid.0),
        None => ProfMode::Off,
    };
    let start = match (mode, &ctx.prof) {
        (ProfMode::Timer, Some(p)) => Some(p.collector.now_ns()),
        _ => None,
    };
    let mut result = Ok(());
    for &n in &splan.order {
        if tree.scope_of(n).is_none() {
            let r = exec_node(ctx, sid, tree, n, worker, None);
            if r.is_err() {
                result = r;
                break;
            }
        }
    }
    match mode {
        ProfMode::Off => {}
        ProfMode::Counter => {
            if let Some(wp) = worker.prof.as_mut() {
                wp.states.entry(sid.0).or_default().bump();
            }
        }
        ProfMode::Timer => {
            if let (Some(p), Some(s)) = (&ctx.prof, start) {
                let dur = p.collector.now_ns().saturating_sub(s);
                if let Some(wp) = worker.prof.as_mut() {
                    wp.states.entry(sid.0).or_default().record(dur);
                    wp.timeline.push(Span {
                        key: SpanKey::State(sid.0),
                        worker: wp.worker,
                        start_ns: s,
                        dur_ns: dur,
                    });
                }
            }
        }
    }
    // Thread-local transients live for one state execution.
    worker.release_locals();
    result
}

/// Executes one node in the current worker. `stream_override` carries a
/// consume-scope element.
pub(crate) fn exec_node(
    ctx: &Ctx,
    sid: StateId,
    tree: &ScopeTree,
    n: NodeId,
    worker: &mut Worker,
    stream_override: Option<(&str, f64)>,
) -> Result<(), ExecError> {
    let state = ctx.sdfg.state(sid);
    match state.graph.node(n) {
        Node::Access { .. } => exec_access(ctx, sid, n, worker),
        Node::Tasklet { .. } => {
            let body = worker.tasklet(sid, n)?;
            run_tasklet_point(ctx, sid, &body, worker, stream_override)
        }
        Node::MapEntry(_) => exec_map(ctx, sid, tree, n, worker),
        Node::ConsumeEntry(_) => exec_consume(ctx, sid, tree, n, worker),
        Node::MapExit { .. } | Node::ConsumeExit { .. } => Ok(()),
        Node::Reduce { .. } => exec_reduce(ctx, sid, n, worker),
        Node::NestedSdfg { .. } => exec_nested(ctx, sid, n, worker),
    }
}

// --- the state-machine walk and device-backend routing -----------------------

/// What the driver counts as it goes, in plain integers: flushed to the
/// shared statistics once, when the run ends.
#[derive(Default)]
struct DriveCounts {
    states: u64,
    evals: u64,
    /// Visits by state id.
    visits: Vec<u64>,
}

/// Walks the state machine, calling `visit` on every state execution and
/// evaluating interstate conditions/assignments between them. The
/// host-only run and the routed run ([`drive_routed`]) both walk the
/// state machine with it. The whole walk shares one [`Worker`], whose
/// environment is the run's symbol table.
pub(crate) fn drive_loop(
    ctx: &Ctx<'_>,
    init_symbols: &Env,
    collapse: bool,
    visit: impl FnMut(&Ctx<'_>, StateId, &mut Worker) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    let mut worker = Worker::new(ctx, init_symbols.clone());
    let mut counts = DriveCounts::default();
    let result = drive_states(ctx, collapse, &mut worker, &mut counts, visit);
    worker.flush_stats();
    let st = &ctx.stats;
    st.states_executed
        .fetch_add(counts.states, Ordering::Relaxed);
    st.interstate_evals
        .fetch_add(counts.evals, Ordering::Relaxed);
    let mut visits = st.state_visits.lock();
    for (sid, &n) in counts.visits.iter().enumerate().filter(|(_, &n)| n > 0) {
        *visits.entry(sid as u32).or_insert(0) += n;
    }
    result
}

fn drive_states(
    ctx: &Ctx<'_>,
    collapse: bool,
    worker: &mut Worker,
    counts: &mut DriveCounts,
    mut visit: impl FnMut(&Ctx<'_>, StateId, &mut Worker) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    let Some(start) = ctx.sdfg.start else {
        return Ok(());
    };
    // Interstate edges read the symbol table; when the program has streams
    // or scalarish containers they read those too, through a second
    // environment kept beside it: symbols are written to both, the
    // overlaid values refreshed in place before each scan.
    let mut overlaid: Option<Env> = (!ctx.shadow.is_empty()).then(|| worker.env.clone());
    let max_transitions = ctx.cfg.max_transitions;
    let mut cur: StateId = start;
    loop {
        if counts.states as usize >= max_transitions {
            return Err(ExecError::StepLimit(max_transitions));
        }
        // Cancellation point: an expired wall-clock deadline aborts the
        // run *between* states (a collapsed loop checks between slices of
        // its iterations), so the shared plan cache and buffer pool only
        // ever observe complete state executions.
        if let Some(d) = ctx.cfg.deadline {
            if std::time::Instant::now() >= d {
                return Err(ExecError::Timeout(ctx.cfg.deadline_ms));
            }
        }
        visit(ctx, cur, worker)?;
        counts.states += 1;
        let slot = cur.0 as usize;
        if counts.visits.len() <= slot {
            counts.visits.resize(slot + 1, 0);
        }
        counts.visits[slot] += 1;
        // Whole-nest collapse: if `cur` guards a recognized state-machine
        // loop, run every remaining iteration as one native call and let
        // the normal edge scan below take the exit edge.
        if collapse && ctx.cfg.jit {
            let revisit = counts.visits[slot] > 1;
            if let Some(ran) = crate::nest::try_collapse_loop(ctx, cur, worker, revisit)? {
                if let Some(env) = overlaid.as_mut() {
                    // A collapsible loop's variable is never overlaid.
                    bind(env, &ran.var, worker.env[&ran.var]);
                }
            }
        }
        if let Some(env) = overlaid.as_mut() {
            refresh_overlay(ctx, env);
        }
        let mut next = None;
        for e in ctx.sdfg.graph.out_edges(cur) {
            counts.evals += 1;
            let env = overlaid.as_ref().unwrap_or(&worker.env);
            if ctx.sdfg.graph.edge(e).condition.eval(env)? {
                next = Some(e);
                break;
            }
        }
        let Some(taken) = next else {
            return Ok(());
        };
        // Assignments apply in order, each seeing the ones before it. An
        // assigned name that a container or stream length overlays keeps
        // reading as that value on interstate edges.
        for (sym, expr) in &ctx.sdfg.graph.edge(taken).assignments {
            let v = expr.eval(overlaid.as_ref().unwrap_or(&worker.env))?;
            bind(&mut worker.env, sym, v);
            if let Some(env) = overlaid.as_mut() {
                if !ctx.shadow.contains(sym) {
                    bind(env, sym, v);
                }
            }
        }
        cur = ctx.sdfg.graph.edge_dst(taken);
    }
}

/// Opaque view of the engine's run context handed to [`Backend`]
/// implementations (the internal `Ctx` stays crate-private).
pub struct RunCtx<'r, 'c, 's> {
    pub(crate) worker: &'r mut Worker<'c, 's>,
}

impl RunCtx<'_, '_, '_> {
    /// The SDFG being executed (the optimized copy when one is active).
    pub fn sdfg(&self) -> &Sdfg {
        self.worker.ctx.sdfg
    }

    /// Symbol environment in effect for the current state execution.
    pub fn env(&self) -> &Env {
        &self.worker.env
    }

    /// Worker thread count of the host pool.
    pub fn nthreads(&self) -> usize {
        self.worker.ctx.cfg.nthreads
    }

    /// Executes one state functionally on the host engine (bit-exact).
    /// Simulator backends call this first so results are always real, then
    /// layer their timing model on top.
    pub fn run_functional(&mut self, sid: StateId) -> Result<(), ExecError> {
        exec_state(self.worker.ctx, sid, self.worker)
    }
}

/// What one backend did for one state execution. Sums across visits;
/// `pes` aggregates by maximum (it is a resource high-water mark).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScopeStats {
    /// Scope launches (GPU kernels / FPGA modules / CPU parallel maps).
    pub scopes: u64,
    /// Modeled compute time for simulator backends; measured wall time for
    /// the host backend.
    pub compute_s: f64,
    /// Modeled device-local copy time.
    pub copy_s: f64,
    /// Modeled floating-point operations.
    pub flops: f64,
    /// Modeled device-memory traffic (bytes).
    pub bytes: f64,
    /// Modeled hardware cycles (FPGA backends; 0 elsewhere).
    pub cycles: u64,
    /// Processing elements instantiated (FPGA backends; 0 elsewhere).
    pub pes: u64,
}

/// An execution target a session can dispatch states to (registered with
/// [`crate::SessionBuilder::backend`]).
///
/// The contract mirrors the paper's retargeting story: a backend declares
/// which [`Schedule`]s it executes and which device [`Storage`] classes it
/// owns; the session routes each state to the first backend whose
/// `supports` matches the state's top-level scope schedule, accounts
/// host↔device traffic at storage boundaries (charging `transfer_time`),
/// and calls `run_scope` to execute the state and report per-visit stats.
/// Backends are shared by every concurrent invoke of a session, hence
/// `Send + Sync`.
pub trait Backend: Send + Sync {
    /// Stable name used in reports (`"cpu"`, `"gpu-sim"`, `"fpga-sim"`).
    fn name(&self) -> &'static str;

    /// True if this backend executes scopes lowered with `schedule`.
    fn supports(&self, schedule: Schedule) -> bool;

    /// True if `storage` lives in this backend's device memory; copies
    /// crossing into/out of owned storage are charged to this backend.
    fn owns_storage(&self, storage: Storage) -> bool {
        let _ = storage;
        false
    }

    /// Modeled time to move `bytes` across the host↔device link (0 for
    /// host-resident backends).
    fn transfer_time(&self, bytes: f64) -> f64 {
        let _ = bytes;
        0.0
    }

    /// Per-state hook before the first `run_scope` of a state execution.
    fn prepare(&self, rcx: &RunCtx<'_, '_, '_>, sid: StateId) -> Result<(), ExecError> {
        let _ = (rcx, sid);
        Ok(())
    }

    /// Executes one state's top-level scopes and reports what it cost.
    fn run_scope(
        &self,
        rcx: &mut RunCtx<'_, '_, '_>,
        sid: StateId,
    ) -> Result<ScopeStats, ExecError>;
}

/// Aggregated per-backend totals for one invoke
/// ([`crate::Outputs::backends`]).
#[derive(Clone, Debug, Default)]
pub struct BackendStats {
    /// Backend name.
    pub name: String,
    /// State executions routed to this backend.
    pub state_visits: u64,
    /// Scope totals (summed over visits; `pes` by max).
    pub scope: ScopeStats,
    /// Host↔device traffic attributed to this backend.
    pub xfer: sdfg_profile::BackendBytes,
    /// Modeled time spent in host↔device transfers.
    pub transfer_s: f64,
}

impl BackendStats {
    /// Total modeled time on this backend: compute + device copies +
    /// host↔device transfers.
    pub fn modeled_time_s(&self) -> f64 {
        self.scope.compute_s + self.scope.copy_s + self.transfer_s
    }
}

/// Device storage classes a transfer can cross into; used to attribute
/// host↔device copies to the backend owning the device side.
const DEVICE_STORAGES: [Storage; 4] = [
    Storage::GpuGlobal,
    Storage::GpuShared,
    Storage::FpgaGlobal,
    Storage::FpgaLocal,
];

/// The routed drive: walks the state machine like a host-only run, but
/// hands each state to the backend `routes` assigns it (indexed by state
/// id), accounts host↔device traffic, and sums what each backend reports
/// into `stats` (one entry per backend, in registration order).
///
/// Functional results are always bit-exact — simulator backends execute
/// states for real on the host engine and only *model* device timing — so
/// `--target gpu` output equals interpreter output.
pub(crate) fn drive_routed(
    backends: &[Box<dyn Backend>],
    routes: &[usize],
    ctx: &Ctx<'_>,
    symbols: &Env,
    stats: &mut [BackendStats],
) -> Result<(), ExecError> {
    // No loop collapse here: a collapsed loop could span states belonging
    // to different targets.
    drive_loop(ctx, symbols, false, |ctx, sid, worker| {
        let bidx = routes[sid.0 as usize];
        account_transfers(backends, ctx, sid, &worker.env, bidx, stats)?;
        let mut rcx = RunCtx { worker };
        backends[bidx].prepare(&rcx, sid)?;
        let ss = backends[bidx].run_scope(&mut rcx, sid)?;
        let bs = &mut stats[bidx];
        bs.state_visits += 1;
        bs.scope.scopes += ss.scopes;
        bs.scope.compute_s += ss.compute_s;
        bs.scope.copy_s += ss.copy_s;
        bs.scope.flops += ss.flops;
        bs.scope.bytes += ss.bytes;
        bs.scope.cycles += ss.cycles;
        bs.scope.pes = bs.scope.pes.max(ss.pes);
        Ok(())
    })
}

/// Routes every state of `sdfg` (see [`route_state`]): the backend index
/// per state id, and a fingerprint of the assignment for the plan-cache
/// key, so runs of one SDFG under different backend sets never share
/// lowered plans.
pub(crate) fn route_states(
    backends: &[Box<dyn Backend>],
    sdfg: &Sdfg,
) -> Result<(Vec<usize>, u64), ExecError> {
    use std::hash::{Hash, Hasher};
    let mut routes = Vec::new();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for sid in sdfg.graph.node_ids() {
        let bidx = route_state(backends, sdfg, sid)?;
        (sid.0, bidx as u64, backends[bidx].name()).hash(&mut h);
        let slot = sid.0 as usize;
        if routes.len() <= slot {
            routes.resize(slot + 1, 0);
        }
        routes[slot] = bidx;
    }
    Ok((routes, h.finish()))
}

/// Picks the backend for a state: the first registered backend whose
/// `supports` matches the state's first top-level scope schedule. States
/// without scopes fall back to the backend owning the storage their copies
/// touch on *both* ends (device-local copies run on the device), then to
/// the host backend.
pub(crate) fn route_state(
    backends: &[Box<dyn Backend>],
    sdfg: &Sdfg,
    sid: StateId,
) -> Result<usize, ExecError> {
    let state = sdfg.state(sid);
    let tree =
        sdfg_core::scope::scope_tree(state).map_err(|e| ExecError::BadGraph(e.to_string()))?;
    for n in state.graph.node_ids() {
        if tree.scope_of(n).is_some() {
            continue;
        }
        let schedule = match state.graph.node(n) {
            Node::MapEntry(m) => Some(m.schedule),
            Node::ConsumeEntry(c) => Some(c.schedule),
            _ => None,
        };
        if let Some(s) = schedule {
            if let Some(i) = backends.iter().position(|b| b.supports(s)) {
                return Ok(i);
            }
            return Ok(0);
        }
    }
    // Scope-less state: device-local copies belong to the owning device.
    for n in state.graph.node_ids() {
        let Node::Access { data } = state.graph.node(n) else {
            continue;
        };
        for e in state.graph.out_edges(n) {
            let dst = state.graph.edge_dst(e);
            let Node::Access { data: dd } = state.graph.node(dst) else {
                continue;
            };
            if state.graph.edge(e).memlet.is_empty() {
                continue;
            }
            let storage_of = |name: &str| sdfg.desc(name).map(|d| d.storage());
            if let (Some(a), Some(b)) = (storage_of(data), storage_of(dd)) {
                if a.is_device() && b.is_device() {
                    if let Some(i) = backends
                        .iter()
                        .position(|bk| bk.owns_storage(a) && bk.owns_storage(b))
                    {
                        return Ok(i);
                    }
                }
            }
        }
    }
    Ok(0)
}

/// Observability side of one host↔device transfer: per-run byte counters
/// on the run's stats. The direction-labelled global metrics are added
/// once per run, from those counters, when the invoke completes.
fn account_transfer_obs(ctx: &Ctx<'_>, bytes: u64, h2d: bool) {
    use std::sync::atomic::Ordering;
    if h2d {
        ctx.stats.h2d_bytes.fetch_add(bytes, Ordering::Relaxed);
    } else {
        ctx.stats.d2h_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Accounts host↔device traffic for one state execution: explicit copy
/// edges whose endpoints straddle a device-storage boundary, plus implicit
/// transfers when a device-routed state touches host-resident containers
/// directly. Bytes land in the owning backend's [`BackendStats::xfer`] and
/// time is charged via [`Backend::transfer_time`].
fn account_transfers(
    backends: &[Box<dyn Backend>],
    ctx: &Ctx<'_>,
    sid: StateId,
    env: &Env,
    routed: usize,
    stats: &mut [BackendStats],
) -> Result<(), ExecError> {
    let state = ctx.sdfg.state(sid);
    let owner_of = |storage: Storage| backends.iter().position(|b| b.owns_storage(storage));
    for n in state.graph.node_ids() {
        let Node::Access { data } = state.graph.node(n) else {
            continue;
        };
        // Explicit transfer steps: access→access copies crossing storage.
        for e in state.graph.out_edges(n) {
            let dst = state.graph.edge_dst(e);
            let Node::Access { data: dd } = state.graph.node(dst) else {
                continue;
            };
            let m = &state.graph.edge(e).memlet;
            if m.is_empty() {
                continue;
            }
            let (Some(sdesc), Some(ddesc)) = (ctx.sdfg.desc(data), ctx.sdfg.desc(dd)) else {
                continue;
            };
            let (src_dev, dst_dev) = (sdesc.storage().is_device(), ddesc.storage().is_device());
            if src_dev == dst_dev {
                continue;
            }
            let elems = m.subset.eval_volume(env).unwrap_or(0).max(0) as u64;
            let bytes = elems
                * ctx
                    .sdfg
                    .desc(m.data_name())
                    .map(|d| d.dtype().size_bytes() as u64)
                    .unwrap_or(8);
            let device_storage = if src_dev {
                sdesc.storage()
            } else {
                ddesc.storage()
            };
            if let Some(bi) = owner_of(device_storage) {
                if dst_dev {
                    stats[bi].xfer.h2d_bytes += bytes;
                } else {
                    stats[bi].xfer.d2h_bytes += bytes;
                }
                stats[bi].transfer_s += backends[bi].transfer_time(bytes as f64);
                account_transfer_obs(ctx, bytes, dst_dev);
            }
        }
        // Implicit transfers: a device-routed state dereferencing a
        // host-storage container pays a full-container staging transfer
        // (read → host-to-device before, written → device-to-host after).
        if DEVICE_STORAGES
            .iter()
            .any(|&s| backends[routed].owns_storage(s))
        {
            let Some(desc) = ctx.sdfg.desc(data) else {
                continue;
            };
            if desc.storage().is_device() || matches!(desc, DataDesc::Stream(_)) {
                continue;
            }
            let bytes = ctx
                .buf(data)
                .map(|b| (b.len() * desc.dtype().size_bytes()) as u64)
                .unwrap_or(0);
            let read = state.graph.out_edges(n).count() > 0;
            let written = state.graph.in_edges(n).count() > 0;
            let bs = &mut stats[routed];
            if read {
                bs.xfer.h2d_bytes += bytes;
                bs.transfer_s += backends[routed].transfer_time(bytes as f64);
                account_transfer_obs(ctx, bytes, true);
            }
            if written {
                bs.xfer.d2h_bytes += bytes;
                bs.transfer_s += backends[routed].transfer_time(bytes as f64);
                account_transfer_obs(ctx, bytes, false);
            }
        }
    }
    Ok(())
}

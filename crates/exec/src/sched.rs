//! The persistent work-stealing CPU scheduler.
//!
//! The paper's generated code leans on OpenMP's runtime to load-balance
//! parallel maps; this module is the executor's equivalent substrate. A
//! [`SchedPool`] owns a lazily-started set of long-lived worker threads
//! (spawned once per executor lifetime, not per map launch) and one
//! fixed-capacity Chase-Lev-style deque per worker. A map launch splits
//! its iteration space into **tiles** — contiguous index ranges chosen by
//! the adaptive `Tuning` controller — distributes them across the
//! deques, and publishes a type-erased tile closure; the launching thread
//! participates as worker 0. Owners pop from the head of their own deque;
//! an idle worker steals the upper half of a victim's remaining range and
//! installs it in its own (empty) deque so it can be re-stolen.
//!
//! # Deque layout
//!
//! Tiles are identified by dense indices `0..ntiles` into a per-launch
//! tile table, so a deque never stores tiles — only a *range* of indices,
//! packed into one `AtomicU64` (`head` in the high 32 bits, `tail` in the
//! low 32). Both pop (`(h,t) → (h+1,t)`) and steal (`(h,t) → (h,mid)`)
//! are single CAS operations on that word. Because every tile index lives
//! in exactly one deque lineage per launch (block distribution at launch,
//! contiguous halves on steal) and indices are never recycled, the
//! classic ABA hazard cannot arise, which is what lets the deque collapse
//! to one word with no epoch tags or growth path.
//!
//! # Completion and soundness
//!
//! The tile closure borrows launch-local state (the run context, the tile
//! table, per-slot workers), so the erased pointer handed to the pool is
//! only valid while the launch is live. `SchedPool::run` guarantees this:
//! it publishes the job under the pool mutex, works slot 0 itself, then
//! clears the job and blocks until every participating worker has left
//! the work loop (`active == 0`). Workers enter the loop only under the
//! same mutex, so no worker can observe the job after `run` returns.

use parking_lot::Mutex as PlMutex;
use sdfg_lang::TaskletVm;
use sdfg_profile::SchedWorker;
use sdfg_symbolic::Env;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

// --- thread-count / mode env switches ----------------------------------------------

/// Parses an `SDFG_NTHREADS`-style value: a positive thread count, capped
/// to keep a typo from spawning thousands of threads.
pub(crate) fn parse_nthreads(s: &str) -> Option<usize> {
    s.trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .map(|n| n.min(512))
}

/// Thread count requested via the `SDFG_NTHREADS` environment variable.
pub(crate) fn env_nthreads() -> Option<usize> {
    std::env::var("SDFG_NTHREADS")
        .ok()
        .and_then(|v| parse_nthreads(&v))
}

std::thread_local! {
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True on a pool worker thread (inside a tile execution). Nested
/// parallel launches are suppressed there: re-entering `SchedPool::run`
/// from a worker would deadlock the launch protocol, so re-entrant calls
/// fall back to inline execution and the map-eligibility check in
/// `exec_map` avoids even reaching that point.
pub(crate) fn in_pool_worker() -> bool {
    IN_POOL.with(|c| c.get())
}

// --- packed-range deque -------------------------------------------------------------

#[inline]
fn pack(head: u32, tail: u32) -> u64 {
    ((head as u64) << 32) | tail as u64
}

#[inline]
fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

// --- public counters ----------------------------------------------------------------

/// Snapshot of the scheduler's per-worker counters (cumulative over the
/// pool's lifetime, like the plan-cache and buffer-pool counters).
#[derive(Clone, Debug, Default)]
pub struct SchedStats {
    /// Worker slots the pool schedules over (launcher included).
    pub nworkers: usize,
    /// Parallel map launches routed through the pool.
    pub launches: u64,
    /// Per-worker tile/steal/idle counters, indexed by slot.
    pub workers: Vec<SchedWorker>,
}

impl SchedStats {
    /// Total tiles executed across all workers.
    pub fn total_tiles(&self) -> u64 {
        self.workers.iter().map(|w| w.tiles).sum()
    }

    /// Total successful steals across all workers.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }
}

#[derive(Default)]
struct SlotCounters {
    tiles: AtomicU64,
    steals: AtomicU64,
    idle_ns: AtomicU64,
}

// --- the pool -----------------------------------------------------------------------

/// A type-erased per-tile job. The pointee lives on the launching
/// thread's stack; validity is bounded by the launch (see module docs).
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize, usize) + Sync),
}
// SAFETY: the pointee is `Sync` (the closure is shared by reference
// across workers) and the launch protocol keeps it alive while any
// worker can dereference it.
unsafe impl Send for Job {}

struct Inner {
    epoch: u64,
    job: Option<Job>,
    active: usize,
    stop: bool,
}

struct Shared {
    inner: Mutex<Inner>,
    work_cv: Condvar,
    done_cv: Condvar,
    deques: Vec<AtomicU64>,
    /// Tiles published but not yet executed in the current launch.
    pending: AtomicUsize,
    counters: Vec<SlotCounters>,
    launches: AtomicU64,
}

impl Shared {
    /// Owner pop from the head of `slot`'s own deque.
    fn pop(&self, slot: usize) -> Option<u32> {
        let d = &self.deques[slot];
        loop {
            let cur = d.load(Ordering::Acquire);
            let (h, t) = unpack(cur);
            if h >= t {
                return None;
            }
            if d.compare_exchange_weak(cur, pack(h + 1, t), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(h);
            }
        }
    }

    /// Steals the upper half of `victim`'s remaining range; the first
    /// stolen tile is returned for immediate execution and the rest are
    /// installed in the thief's own (empty) deque for further stealing.
    fn steal(&self, thief: usize, victim: usize) -> Option<u32> {
        let d = &self.deques[victim];
        loop {
            let cur = d.load(Ordering::Acquire);
            let (h, t) = unpack(cur);
            if h >= t {
                return None;
            }
            let mid = h + (t - h) / 2; // thief takes [mid, t): ceil(len/2)
            if d.compare_exchange(cur, pack(h, mid), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if mid + 1 < t {
                    // Own deque is empty here (we only steal after our
                    // pop fails) and nobody else stores into an empty
                    // deque, so a plain store is race-free.
                    self.deques[thief].store(pack(mid + 1, t), Ordering::Release);
                }
                return Some(mid);
            }
        }
    }

    /// The per-launch work loop: drain own deque, then steal; spin-yield
    /// while tiles are in flight elsewhere (they may be re-installed for
    /// stealing). Returns (tiles, steals, idle time).
    fn work_loop(&self, slot: usize, f: &(dyn Fn(usize, usize) + Sync)) -> (u64, u64, u64) {
        use sdfg_profile::flight;
        let entered = Instant::now();
        let mut tiles = 0u64;
        let mut steals = 0u64;
        let mut busy_ns = 0u64;
        let nworkers = self.deques.len();
        // One tile execution, timed for the busy/idle split and (when the
        // flight recorder samples it) traced as a span.
        let mut run_tile = |i: u32| {
            let tracing = flight::enabled();
            let t0_epoch = if tracing { sdfg_profile::epoch_ns() } else { 0 };
            let t0 = Instant::now();
            f(slot, i as usize);
            let dur = t0.elapsed().as_nanos() as u64;
            if tracing {
                flight::record_span(
                    flight::EventKind::TileRun,
                    t0_epoch,
                    dur,
                    i as u64,
                    slot as u64,
                );
            }
            busy_ns += dur;
            tiles += 1;
            self.pending.fetch_sub(1, Ordering::AcqRel);
        };
        loop {
            while let Some(i) = self.pop(slot) {
                run_tile(i);
            }
            let mut stolen = None;
            for k in 1..nworkers {
                let victim = (slot + k) % nworkers;
                if let Some(i) = self.steal(slot, victim) {
                    if flight::enabled() {
                        flight::record(flight::EventKind::Steal, victim as u64, slot as u64);
                    }
                    stolen = Some(i);
                    break;
                }
            }
            match stolen {
                Some(i) => {
                    steals += 1;
                    run_tile(i);
                }
                None => {
                    if self.pending.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        }
        let total = entered.elapsed().as_nanos() as u64;
        (tiles, steals, total.saturating_sub(busy_ns))
    }

    fn flush(&self, slot: usize, tiles: u64, steals: u64, idle_ns: u64) {
        let c = &self.counters[slot];
        c.tiles.fetch_add(tiles, Ordering::Relaxed);
        c.steals.fetch_add(steals, Ordering::Relaxed);
        c.idle_ns.fetch_add(idle_ns, Ordering::Relaxed);
        // Global metrics: flushed once per worker per launch, so the
        // per-tile hot path stays free of registry traffic.
        if tiles > 0 || steals > 0 {
            let m = sdfg_profile::metrics::core();
            m.sched_tiles.add(tiles);
            m.sched_steals.add(steals);
        }
    }
}

fn worker_main(shared: Arc<Shared>, slot: usize) {
    IN_POOL.with(|c| c.set(true));
    let mut seen = 0u64;
    let mut guard = shared.inner.lock().unwrap_or_else(|p| p.into_inner());
    loop {
        if guard.stop {
            return;
        }
        if guard.job.is_some() && guard.epoch != seen {
            seen = guard.epoch;
            let job = guard.job.unwrap();
            guard.active += 1;
            drop(guard);
            // SAFETY: the launcher keeps the closure alive until
            // `active` returns to 0 (see `SchedPool::run`).
            let f = unsafe { &*job.f };
            let (tiles, steals, idle) = shared.work_loop(slot, f);
            shared.flush(slot, tiles, steals, idle);
            guard = shared.inner.lock().unwrap_or_else(|p| p.into_inner());
            guard.active -= 1;
            if guard.active == 0 {
                shared.done_cv.notify_all();
            }
            continue;
        }
        guard = shared
            .work_cv
            .wait(guard)
            .unwrap_or_else(|p| p.into_inner());
    }
}

/// Per-slot resident state that survives across launches: the tasklet VM
/// (register/stack allocations) and the worker's symbol environment
/// (hash-map buckets), reused via `clone_from` instead of rebuilt.
#[derive(Default)]
pub(crate) struct Resident {
    pub(crate) vm: Option<TaskletVm>,
    pub(crate) env: Env,
}

/// The persistent scheduler pool. One per executor (created lazily when
/// `nthreads > 1`); nested executors share the parent's pool.
pub struct SchedPool {
    nworkers: usize,
    shared: Arc<Shared>,
    /// Serializes launches when a pool is shared across executors.
    launch: Mutex<()>,
    /// Worker threads spawn on the first parallel launch, not at pool
    /// construction, so serial runs never pay for them.
    started: std::sync::Once,
    residents: Vec<PlMutex<Resident>>,
}

impl SchedPool {
    /// Creates a pool scheduling over `nworkers` slots (launcher
    /// included); `nworkers - 1` threads are spawned lazily.
    pub(crate) fn new(nworkers: usize) -> SchedPool {
        let nworkers = nworkers.max(1);
        SchedPool {
            nworkers,
            shared: Arc::new(Shared {
                inner: Mutex::new(Inner {
                    epoch: 0,
                    job: None,
                    active: 0,
                    stop: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                deques: (0..nworkers).map(|_| AtomicU64::new(0)).collect(),
                pending: AtomicUsize::new(0),
                counters: (0..nworkers).map(|_| SlotCounters::default()).collect(),
                launches: AtomicU64::new(0),
            }),
            launch: Mutex::new(()),
            started: std::sync::Once::new(),
            residents: (0..nworkers)
                .map(|_| PlMutex::new(Resident::default()))
                .collect(),
        }
    }

    /// Worker slots (launcher included).
    pub fn nworkers(&self) -> usize {
        self.nworkers
    }

    /// Resident per-slot state (VM, env buckets) for worker reuse.
    pub(crate) fn resident(&self, slot: usize) -> &PlMutex<Resident> {
        &self.residents[slot]
    }

    fn ensure_started(&self) {
        self.started.call_once(|| {
            for slot in 1..self.nworkers {
                let shared = self.shared.clone();
                std::thread::Builder::new()
                    .name(format!("sdfg-sched-{slot}"))
                    .spawn(move || worker_main(shared, slot))
                    .expect("spawn scheduler worker");
            }
        });
    }

    /// Runs `ntiles` tiles through the pool: `f(slot, tile)` is invoked
    /// exactly once per tile index, from the launcher (slot 0) or any
    /// pool worker. Blocks until every tile has executed and no worker
    /// can still observe `f`. Re-entrant calls from a pool worker (which
    /// the executor's eligibility gate should prevent) degrade safely to
    /// inline execution.
    pub(crate) fn run(&self, ntiles: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        if ntiles == 0 {
            return;
        }
        assert!(
            ntiles < u32::MAX as usize,
            "tile count overflows the deque index space"
        );
        if self.nworkers == 1 || in_pool_worker() {
            let was = IN_POOL.with(|c| c.replace(true));
            for i in 0..ntiles {
                f(0, i);
            }
            IN_POOL.with(|c| c.set(was));
            let c = &self.shared.counters[0];
            c.tiles.fetch_add(ntiles as u64, Ordering::Relaxed);
            self.shared.launches.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let _serialize = self.launch.lock().unwrap_or_else(|p| p.into_inner());
        self.ensure_started();
        // Block-distribute tile indices across the deques.
        let per = ntiles / self.nworkers;
        let rem = ntiles % self.nworkers;
        let mut start = 0usize;
        for (s, d) in self.shared.deques.iter().enumerate() {
            let count = per + usize::from(s < rem);
            d.store(
                pack(start as u32, (start + count) as u32),
                Ordering::Release,
            );
            start += count;
        }
        self.shared.pending.store(ntiles, Ordering::Release);
        self.shared.launches.fetch_add(1, Ordering::Relaxed);
        // SAFETY (lifetime erasure): the pointer is only dereferenced by
        // workers registered in `active`, and this function does not
        // return until `active == 0` with the job slot cleared.
        let job = Job {
            f: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize, usize) + Sync),
                    *const (dyn Fn(usize, usize) + Sync + 'static),
                >(f as *const _)
            },
        };
        {
            let mut g = self.shared.inner.lock().unwrap_or_else(|p| p.into_inner());
            g.epoch += 1;
            g.job = Some(job);
            self.shared.work_cv.notify_all();
        }
        // The launcher participates as slot 0; tiles it executes must see
        // `in_pool_worker()` like any other worker's, so the eligibility
        // gates in `exec_map`/`exec_nested` suppress re-entrant launches.
        let was = IN_POOL.with(|c| c.replace(true));
        let (tiles, steals, idle) = self.shared.work_loop(0, f);
        IN_POOL.with(|c| c.set(was));
        self.shared.flush(0, tiles, steals, idle);
        let mut g = self.shared.inner.lock().unwrap_or_else(|p| p.into_inner());
        g.job = None;
        while g.active > 0 {
            g = self
                .shared
                .done_cv
                .wait(g)
                .unwrap_or_else(|p| p.into_inner());
        }
        debug_assert_eq!(self.shared.pending.load(Ordering::Acquire), 0);
    }

    /// Snapshot of the cumulative per-worker counters.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            nworkers: self.nworkers,
            launches: self.shared.launches.load(Ordering::Relaxed),
            workers: self
                .shared
                .counters
                .iter()
                .enumerate()
                .map(|(i, c)| SchedWorker {
                    worker: i as u32,
                    tiles: c.tiles.load(Ordering::Relaxed),
                    steals: c.steals.load(Ordering::Relaxed),
                    idle_ns: c.idle_ns.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

impl Drop for SchedPool {
    fn drop(&mut self) {
        let mut g = self.shared.inner.lock().unwrap_or_else(|p| p.into_inner());
        g.stop = true;
        self.shared.work_cv.notify_all();
    }
}

// --- adaptive grain controller ------------------------------------------------------

/// Assumed per-point cost before any launch of a map has been timed.
const DEFAULT_POINT_NS: f64 = 50.0;
/// A launch goes parallel only when its estimated serial cost exceeds
/// this (roughly the handoff + wakeup cost of a pool launch, with slack).
const PAR_MIN_NS: f64 = 60_000.0;
/// Target per-tile cost: large enough to amortize deque traffic, small
/// enough that stealing can still rebalance an imbalanced space.
const TILE_TARGET_NS: f64 = 20_000.0;
/// Upper bound on tiles per launch, as a multiple of the worker count.
const OVERSUB: usize = 4;
/// EWMA weight for new per-point cost samples.
const EWMA: f64 = 0.4;

#[derive(Clone, Copy)]
struct TuneState {
    point_ns: f64,
}

/// The outcome of the per-launch scheduling decision.
pub(crate) struct Decision {
    /// Route the launch through the pool?
    pub(crate) parallel: bool,
    /// Number of tiles to split the iteration space into.
    pub(crate) tiles: usize,
}

/// Per-map adaptive state: an EWMA of the measured per-point cost, keyed
/// by `(state, node)`. Lives in the `ExecutionPlan`, so feedback survives
/// across runs exactly as long as the lowered plan does.
#[derive(Default)]
pub(crate) struct Tuning {
    inner: PlMutex<HashMap<(u32, u32), TuneState>>,
}

impl Tuning {
    /// Decides serial-vs-parallel and the tile count for one launch with
    /// an estimated volume of `points` iterations. `grain_ns` overrides
    /// the built-in per-tile time target ([`TILE_TARGET_NS`]) — the
    /// autotuner plumbs a measured value through here; `None`/`0` keeps
    /// the default.
    pub(crate) fn decide(
        &self,
        key: (u32, u32),
        points: u64,
        nworkers: usize,
        grain_ns: Option<u64>,
    ) -> Decision {
        let point_ns = self
            .inner
            .lock()
            .get(&key)
            .map(|t| t.point_ns)
            .unwrap_or(DEFAULT_POINT_NS);
        let est = points as f64 * point_ns;
        if nworkers <= 1 || est < PAR_MIN_NS {
            return Decision {
                parallel: false,
                tiles: 1,
            };
        }
        let target = match grain_ns {
            Some(g) if g > 0 => g as f64,
            _ => TILE_TARGET_NS,
        };
        let ideal = (est / target).ceil() as usize;
        Decision {
            parallel: true,
            tiles: ideal.clamp(nworkers, nworkers * OVERSUB),
        }
    }

    /// Feeds one launch's timing back: `workers` is 1 for serial launches
    /// (an exact per-point cost) and the participating worker count for
    /// parallel ones (an optimistic serial-equivalent estimate — it can
    /// only demote a launch that is cheap even under perfect speedup).
    pub(crate) fn observe(&self, key: (u32, u32), points: u64, wall_ns: u64, workers: usize) {
        if points == 0 {
            return;
        }
        let sample = wall_ns as f64 * workers.max(1) as f64 / points as f64;
        let mut m = self.inner.lock();
        match m.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let s = e.get_mut();
                s.point_ns = s.point_ns * (1.0 - EWMA) + sample * EWMA;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(TuneState { point_ns: sample });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn parse_nthreads_accepts_positive_counts() {
        assert_eq!(parse_nthreads("8"), Some(8));
        assert_eq!(parse_nthreads(" 2 "), Some(2));
        assert_eq!(parse_nthreads("0"), None);
        assert_eq!(parse_nthreads("-3"), None);
        assert_eq!(parse_nthreads("lots"), None);
        assert_eq!(parse_nthreads("100000"), Some(512), "capped");
    }

    #[test]
    fn pool_runs_every_tile_exactly_once() {
        let pool = SchedPool::new(4);
        for ntiles in [1usize, 3, 7, 64, 1000] {
            let hits: Vec<AtomicU32> = (0..ntiles).map(|_| AtomicU32::new(0)).collect();
            pool.run(ntiles, &|_slot, i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "tile {i} of {ntiles}");
            }
        }
        let s = pool.stats();
        assert_eq!(s.total_tiles(), 1 + 3 + 7 + 64 + 1000);
        assert_eq!(s.launches, 5);
        assert_eq!(s.nworkers, 4);
    }

    #[test]
    fn single_worker_pool_runs_inline() {
        let pool = SchedPool::new(1);
        let hits = AtomicU32::new(0);
        pool.run(100, &|slot, _| {
            assert_eq!(slot, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn steal_takes_upper_half() {
        let shared = SchedPool::new(2).shared.clone();
        shared.deques[0].store(pack(0, 8), Ordering::Release);
        // Thief (slot 1) takes [4, 8): tile 4 now, [5, 8) installed.
        assert_eq!(shared.steal(1, 0), Some(4));
        assert_eq!(unpack(shared.deques[0].load(Ordering::Acquire)), (0, 4));
        assert_eq!(unpack(shared.deques[1].load(Ordering::Acquire)), (5, 8));
        // Victim's owner side is untouched.
        assert_eq!(shared.pop(0), Some(0));
        // Stealing a single remaining tile empties the victim.
        shared.deques[0].store(pack(6, 7), Ordering::Release);
        assert_eq!(shared.steal(1, 0), Some(6));
        assert_eq!(shared.pop(0), None);
    }

    #[test]
    fn tuner_keeps_tiny_maps_serial_and_promotes_hot_ones() {
        let t = Tuning::default();
        let key = (0, 1);
        // Cold: 100 points at the default 50 ns estimate is far under the
        // parallel threshold.
        assert!(!t.decide(key, 100, 8, None).parallel);
        // A slow serial launch teaches a high per-point cost → promote.
        t.observe(key, 100, 10_000_000, 1); // 100 us/point
        let d = t.decide(key, 100, 8, None);
        assert!(d.parallel);
        assert!(d.tiles >= 8 && d.tiles <= 32, "tiles {}", d.tiles);
        // Fast parallel launches (cheap even at perfect speedup) demote.
        for _ in 0..20 {
            t.observe(key, 100, 100, 8);
        }
        assert!(!t.decide(key, 100, 8, None).parallel);
    }

    #[test]
    fn tuner_tile_count_scales_with_volume() {
        let t = Tuning::default();
        // Huge volume: tile count is clamped to nworkers * OVERSUB.
        let d = t.decide((0, 0), 100_000_000, 4, None);
        assert!(d.parallel);
        assert_eq!(d.tiles, 16);
    }
}

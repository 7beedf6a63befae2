//! Instrumentation layer for SDFG execution (paper §8, "instrumentation
//! and tuning"): per-state and per-map wall-clock statistics, tasklet
//! tier breakdowns, per-worker span timelines, and bytes-moved counters,
//! with renderers for a sorted hot-path table, Chrome trace-event JSON
//! (loadable in `chrome://tracing` / Perfetto), and a DOT heat overlay.
//!
//! # Collection model
//!
//! Profiling data is collected **lock-free per worker**: each executor
//! or interpreter worker owns a plain [`WorkerProfile`] it mutates
//! without synchronisation, and hands it to the shared
//! [`ProfileCollector`] exactly once, when the worker retires
//! ([`ProfileCollector::absorb`] takes one lock per worker lifetime, not
//! per event). [`ProfileCollector::finish`] merges everything into an
//! [`InstrumentationReport`] with deterministic (sorted) ordering.
//!
//! Scopes are identified by compact [`SpanKey`]s; human-readable labels
//! are registered separately (once, at plan time) so the hot path never
//! allocates strings.
//!
//! # Observability subsystem
//!
//! Beyond on-demand span profiling, this crate hosts two always-available
//! observability layers (see DESIGN.md § Observability):
//!
//! * [`metrics`] — a process-global registry of counters/gauges/histograms
//!   with sharded atomics and Prometheus text exposition.
//! * [`ledger`] — an append-only JSONL record of every executor run
//!   (`SDFG_RUN_LOG`).
//!
//! The per-run counters the ledger records and the metrics registry
//! accumulates are declared once, in the [`counters`] table. The span
//! profiler is the one span recorder: its [`InstrumentationReport`] is
//! the only source of timeline traces.

pub mod counters;
pub mod ledger;
pub mod metrics;

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The shared monotonic clock base: one `Instant` per process, fixed on
/// first use. Every collector and worker stamps times against this
/// epoch, so spans from nested executors and concurrent runs align on
/// one timeline.
pub fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the process epoch.
pub fn epoch_ns() -> u64 {
    process_epoch().elapsed().as_nanos() as u64
}

/// Allocates the next trace process id (`pid` in Chrome traces): each
/// collector — hence each executor run, nested ones included — gets a
/// distinct pid while sharing the common time base.
fn next_pid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// How a scope is instrumented. Mirrors `sdfg_core::Instrument` (the
/// core crate owns the annotation; this crate owns the semantics).
///
/// * `Counter` — count entries and bytes only; **no clock reads**.
/// * `Timer` — counts plus wall-clock durations and timeline spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Mode {
    /// Scope is not instrumented.
    #[default]
    Off,
    /// Entry counters only — the hot path never calls `Instant::now`.
    Counter,
    /// Full wall-clock timing and timeline spans.
    Timer,
}

/// Engine-level profiling switch: what the executor/interpreter collect
/// on the next `run`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Profiling {
    /// Collect nothing; the hot path sees a single pre-resolved branch.
    #[default]
    Off,
    /// Honor per-scope `Instrument` annotations on the SDFG.
    Annotated,
    /// Time every state and map scope regardless of annotations (what
    /// the harness `--profile` flag uses).
    ForceTimers,
}

/// Execution tier a map body ran in (engine.rs picks the fastest
/// applicable tier per map launch).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// JIT-compiled native code (`cc`-compiled shared object).
    Jit = 0,
    /// Recognised kernel pattern executed as a native Rust loop.
    NativeKernel = 1,
    /// Compiled affine bytecode loop in the expression VM.
    AffineVm = 2,
    /// Per-point symbolic evaluation fallback.
    Symbolic = 3,
}

impl Tier {
    /// All tiers, in display order.
    pub const ALL: [Tier; 4] = [
        Tier::Jit,
        Tier::NativeKernel,
        Tier::AffineVm,
        Tier::Symbolic,
    ];

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Jit => "jit",
            Tier::NativeKernel => "native",
            Tier::AffineVm => "affine-vm",
            Tier::Symbolic => "symbolic",
        }
    }
}

/// Identifies a profiled scope inside one SDFG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKey {
    /// A state, by state id.
    State(u32),
    /// A map scope: owning state id + map-entry node id.
    Map {
        /// Owning state id.
        state: u32,
        /// Map-entry node id within the state.
        node: u32,
    },
}

/// Aggregated statistics for one scope.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScopeStat {
    /// Number of times the scope was entered.
    pub count: u64,
    /// Total wall-clock nanoseconds (0 under `Mode::Counter`).
    pub total_ns: u64,
    /// Shortest single entry, ns (`u64::MAX` until first timed entry).
    pub min_ns: u64,
    /// Longest single entry, ns.
    pub max_ns: u64,
}

impl ScopeStat {
    /// Records one timed entry.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = if self.count == 1 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records one untimed entry (counter mode).
    pub fn bump(&mut self) {
        self.count += 1;
    }

    /// Merges another scope's statistics into this one.
    pub fn merge(&mut self, other: &ScopeStat) {
        if other.count == 0 {
            return;
        }
        let had = self.count > 0;
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = if had {
            self.min_ns.min(other.min_ns)
        } else {
            other.min_ns
        };
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean nanoseconds per entry (0 when untimed).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Per-tier point counts and times for one map scope.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierBreakdown {
    /// Map points executed per tier (indexed by `Tier as usize`).
    pub points: [u64; 4],
    /// Wall-clock ns spent per tier (0 under counter mode).
    pub ns: [u64; 4],
}

impl TierBreakdown {
    /// Adds `points` executed in `tier` over `ns` nanoseconds.
    pub fn add(&mut self, tier: Tier, points: u64, ns: u64) {
        self.points[tier as usize] += points;
        self.ns[tier as usize] += ns;
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &TierBreakdown) {
        for i in 0..4 {
            self.points[i] += other.points[i];
            self.ns[i] += other.ns[i];
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.iter().all(|&p| p == 0) && self.ns.iter().all(|&n| n == 0)
    }
}

/// One closed interval on a worker's timeline (Timer mode only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Which scope ran.
    pub key: SpanKey,
    /// Worker index (0 = the driving thread).
    pub worker: u32,
    /// Start offset from the shared process epoch, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Profiling data owned by a single worker; no interior synchronisation.
#[derive(Debug, Default)]
pub struct WorkerProfile {
    /// Worker index recorded into spans.
    pub worker: u32,
    /// Per-state statistics.
    pub states: HashMap<u32, ScopeStat>,
    /// Per-map statistics, keyed by `(state, map-entry node)`.
    pub maps: HashMap<(u32, u32), ScopeStat>,
    /// Per-map tier breakdowns.
    pub tiers: HashMap<(u32, u32), TierBreakdown>,
    /// Timeline spans (Timer-mode scopes only).
    pub timeline: Vec<Span>,
    /// Bytes moved by copies/writebacks observed by this worker.
    pub bytes_moved: u64,
}

impl WorkerProfile {
    /// A profile for worker `worker`.
    pub fn new(worker: u32) -> WorkerProfile {
        WorkerProfile {
            worker,
            ..Default::default()
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
            && self.maps.is_empty()
            && self.tiers.is_empty()
            && self.timeline.is_empty()
            && self.bytes_moved == 0
    }
}

/// Shared sink for worker profiles. Workers call [`absorb`] once when
/// they retire; the driving thread calls [`finish`] to produce the
/// report.
///
/// [`absorb`]: ProfileCollector::absorb
/// [`finish`]: ProfileCollector::finish
#[derive(Debug)]
pub struct ProfileCollector {
    /// When this collector was created (for [`elapsed`]); span
    /// timestamps use the shared [`process_epoch`] instead.
    ///
    /// [`elapsed`]: ProfileCollector::elapsed
    t0: Instant,
    /// Trace process id: distinct per collector, shared time base.
    pid: u32,
    labels: Mutex<HashMap<SpanKey, String>>,
    merged: Mutex<Merged>,
}

#[derive(Debug, Default)]
struct Merged {
    states: HashMap<u32, ScopeStat>,
    maps: HashMap<(u32, u32), ScopeStat>,
    tiers: HashMap<(u32, u32), TierBreakdown>,
    timeline: Vec<Span>,
    bytes_moved: u64,
    workers: u32,
    nested: Vec<InstrumentationReport>,
}

impl Default for ProfileCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfileCollector {
    /// A new collector stamping spans against the shared process epoch.
    pub fn new() -> ProfileCollector {
        // Touch the epoch first so `now_ns` is never called on an
        // uninitialised clock base.
        let _ = process_epoch();
        ProfileCollector {
            t0: Instant::now(),
            pid: next_pid(),
            labels: Mutex::new(HashMap::new()),
            merged: Mutex::new(Merged::default()),
        }
    }

    /// The shared clock base; workers compute span offsets against it.
    pub fn epoch(&self) -> Instant {
        process_epoch()
    }

    /// Nanoseconds since the shared process epoch (span timestamps).
    pub fn now_ns(&self) -> u64 {
        epoch_ns()
    }

    /// Wall time since this collector was created (per-run, not
    /// process-wide — what drivers report as the run's wall time).
    pub fn elapsed(&self) -> Duration {
        self.t0.elapsed()
    }

    /// This collector's trace process id.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Registers a human-readable label for a scope (idempotent; called
    /// at plan time, never on the hot path).
    pub fn register_label(&self, key: SpanKey, label: impl Into<String>) {
        self.labels
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(key)
            .or_insert_with(|| label.into());
    }

    /// Merges a retiring worker's profile. One lock per worker lifetime.
    pub fn absorb(&self, wp: WorkerProfile) {
        let mut m = self.merged.lock().unwrap_or_else(|p| p.into_inner());
        m.workers += 1;
        for (k, v) in &wp.states {
            m.states.entry(*k).or_default().merge(v);
        }
        for (k, v) in &wp.maps {
            m.maps.entry(*k).or_default().merge(v);
        }
        for (k, v) in &wp.tiers {
            m.tiers.entry(*k).or_default().merge(v);
        }
        m.timeline.extend_from_slice(&wp.timeline);
        m.bytes_moved += wp.bytes_moved;
    }

    /// Keeps the report of a nested SDFG run invoked during this run; its
    /// spans render under its own `pid` in [`InstrumentationReport::chrome_trace`].
    pub fn absorb_nested(&self, report: InstrumentationReport) {
        let mut m = self.merged.lock().unwrap_or_else(|p| p.into_inner());
        m.nested.push(report);
    }

    /// Produces the final report. `wall` is the end-to-end run time as
    /// measured by the driver.
    pub fn finish(self, wall: Duration) -> InstrumentationReport {
        let labels = self.labels.into_inner().unwrap_or_else(|p| p.into_inner());
        let m = self.merged.into_inner().unwrap_or_else(|p| p.into_inner());
        let mut timeline = m.timeline;
        // Deterministic ordering regardless of absorb order.
        timeline.sort_by_key(|s| (s.start_ns, s.worker, s.dur_ns));
        let mut nested = m.nested;
        nested.sort_by_key(|r| r.pid);
        InstrumentationReport {
            wall,
            states: m.states.into_iter().collect(),
            maps: m.maps.into_iter().collect(),
            tiers: m.tiers.into_iter().collect(),
            timeline,
            bytes_moved: m.bytes_moved,
            workers: m.workers,
            labels,
            exec: ExecCounters::default(),
            sched: Vec::new(),
            pid: self.pid,
            nested,
        }
    }
}

/// Session-level cache/pool counters attached to a report by the engine
/// (zero for interpreter runs). Cumulative over the cache's and pool's
/// lifetime, not per-run, so repeat invocations show the hit rate
/// climbing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Plan-cache lookups that found an existing lowered plan.
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that created a fresh plan.
    pub plan_cache_misses: u64,
    /// Buffer-pool acquisitions.
    pub pool_acquires: u64,
    /// Acquisitions served by recycling a released buffer.
    pub pool_reuses: u64,
    /// Bytes of requested storage served from recycled buffers.
    pub pool_bytes_reused: u64,
}

impl ExecCounters {
    /// True when no executor counters were recorded.
    pub fn is_empty(&self) -> bool {
        *self == ExecCounters::default()
    }
}

/// One scheduler worker's cumulative counters, attached to a report by the
/// engine when the work-stealing pool has run at least one parallel launch.
/// Like [`ExecCounters`], these are cumulative over the pool's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedWorker {
    /// Worker slot (0 is the launching thread).
    pub worker: u32,
    /// Tiles this worker executed.
    pub tiles: u64,
    /// Tiles acquired by stealing from another worker's deque.
    pub steals: u64,
    /// Time spent inside launches without a tile to run.
    pub idle_ns: u64,
}

/// Host↔device traffic recorded for one runtime backend: every transfer
/// the heterogeneous dispatcher performs at a schedule boundary lands in
/// one of these counters, attributed to the device side of the copy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendBytes {
    /// Bytes moved host → device.
    pub h2d_bytes: u64,
    /// Bytes moved device → host.
    pub d2h_bytes: u64,
}

impl BackendBytes {
    /// Total bytes crossing the host↔device boundary in either direction.
    pub fn total(&self) -> u64 {
        self.h2d_bytes + self.d2h_bytes
    }
}

/// The merged result of one instrumented run.
#[derive(Debug, Default)]
pub struct InstrumentationReport {
    /// End-to-end wall-clock time of the run.
    pub wall: Duration,
    /// Per-state statistics, sorted by state id.
    pub states: BTreeMap<u32, ScopeStat>,
    /// Per-map statistics, sorted by `(state, node)`.
    pub maps: BTreeMap<(u32, u32), ScopeStat>,
    /// Per-map tier breakdowns.
    pub tiers: BTreeMap<(u32, u32), TierBreakdown>,
    /// All timeline spans, sorted by start time.
    pub timeline: Vec<Span>,
    /// Total bytes moved by copies and writebacks.
    pub bytes_moved: u64,
    /// Number of worker profiles merged.
    pub workers: u32,
    /// Scope labels registered during planning.
    pub labels: HashMap<SpanKey, String>,
    /// Plan-cache and buffer-pool counters (executor runs only).
    pub exec: ExecCounters,
    /// Work-stealing scheduler counters per worker (executor runs that
    /// entered at least one parallel region; empty otherwise).
    pub sched: Vec<SchedWorker>,
    /// Trace process id of the collector that produced this report.
    pub pid: u32,
    /// Reports of the nested SDFG runs invoked during this run, by `pid`.
    pub nested: Vec<InstrumentationReport>,
}

/// Renders the always-on counters footer — plan-cache/pool counters and
/// per-worker scheduler lines. This is exactly the footer
/// [`InstrumentationReport::hot_path_table`] appends, exposed standalone
/// so callers can surface the cheap counters even when profiling is
/// `Off` and no report exists. Empty when nothing was recorded.
pub fn counters_footer(exec: &ExecCounters, sched: &[SchedWorker]) -> String {
    let mut out = String::new();
    if !exec.is_empty() {
        out.push_str(&format!(
            "plan cache {} hit / {} miss | pool {} of {} acquires recycled ({})\n",
            exec.plan_cache_hits,
            exec.plan_cache_misses,
            exec.pool_reuses,
            exec.pool_acquires,
            human_bytes(exec.pool_bytes_reused)
        ));
    }
    if !sched.is_empty() {
        let tiles: u64 = sched.iter().map(|w| w.tiles).sum();
        let steals: u64 = sched.iter().map(|w| w.steals).sum();
        out.push_str(&format!(
            "sched {} tiles / {} steals across {} workers\n",
            tiles,
            steals,
            sched.len()
        ));
        for w in sched {
            out.push_str(&format!(
                "    worker {}: {} tiles, {} steals, {:.3} ms idle\n",
                w.worker,
                w.tiles,
                w.steals,
                w.idle_ns as f64 / 1e6
            ));
        }
    }
    out
}

impl InstrumentationReport {
    /// Label for a scope, falling back to a synthesised one.
    pub fn label(&self, key: SpanKey) -> String {
        if let Some(l) = self.labels.get(&key) {
            return l.clone();
        }
        match key {
            SpanKey::State(s) => format!("state#{s}"),
            SpanKey::Map { state, node } => format!("map#{state}.{node}"),
        }
    }

    /// Sum of per-map total times (the quantity the harness compares
    /// against wall time for coverage).
    pub fn map_total(&self) -> Duration {
        Duration::from_nanos(self.maps.values().map(|s| s.total_ns).sum())
    }

    /// Sum of per-state total times.
    pub fn state_total(&self) -> Duration {
        Duration::from_nanos(self.states.values().map(|s| s.total_ns).sum())
    }

    /// Fraction of wall time covered by per-map totals, `0.0..`.
    /// Can exceed 1.0 when maps run on several workers concurrently.
    pub fn map_coverage(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.map_total().as_secs_f64() / self.wall.as_secs_f64()
    }

    /// Time share (`scope total / wall`) per scope — input for the DOT
    /// heat overlay (`sdfg_core::dot::to_dot_with_profile`).
    pub fn heat(&self) -> (HashMap<u32, f64>, HashMap<(u32, u32), f64>) {
        let wall = self.wall.as_nanos().max(1) as f64;
        let states = self
            .states
            .iter()
            .map(|(k, s)| (*k, s.total_ns as f64 / wall))
            .collect();
        let maps = self
            .maps
            .iter()
            .map(|(k, s)| (*k, s.total_ns as f64 / wall))
            .collect();
        (states, maps)
    }

    /// Renders the sorted hot-path table: scopes by descending total
    /// time, with counts, mean/min/max, wall-time share, per-map tier
    /// breakdowns, and the bytes-moved footer.
    pub fn hot_path_table(&self) -> String {
        let mut rows: Vec<(SpanKey, &ScopeStat)> = self
            .states
            .iter()
            .map(|(k, s)| (SpanKey::State(*k), s))
            .chain(self.maps.iter().map(|(k, s)| {
                (
                    SpanKey::Map {
                        state: k.0,
                        node: k.1,
                    },
                    s,
                )
            }))
            .collect();
        rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(&b.0)));

        let wall_ns = self.wall.as_nanos().max(1) as f64;
        let mut out = String::new();
        out.push_str(&format!(
            "hot path ({} scopes, {} workers, wall {:.3} ms)\n",
            rows.len(),
            self.workers,
            self.wall.as_secs_f64() * 1e3
        ));
        out.push_str(&format!(
            "{:<32} {:>6} {:>10} {:>10} {:>10} {:>10} {:>7}\n",
            "scope", "count", "total ms", "mean us", "min us", "max us", "wall%"
        ));
        for (key, s) in &rows {
            let kind = match key {
                SpanKey::State(_) => "state",
                SpanKey::Map { .. } => "map",
            };
            let label = format!("{kind} {}", self.label(*key));
            let timed = s.total_ns > 0;
            out.push_str(&format!(
                "{:<32} {:>6} {:>10} {:>10} {:>10} {:>10} {:>7}\n",
                truncate(&label, 32),
                s.count,
                if timed {
                    format!("{:.3}", s.total_ns as f64 / 1e6)
                } else {
                    "-".into()
                },
                if timed {
                    format!("{:.2}", s.mean_ns() as f64 / 1e3)
                } else {
                    "-".into()
                },
                if timed {
                    format!("{:.2}", s.min_ns as f64 / 1e3)
                } else {
                    "-".into()
                },
                if timed {
                    format!("{:.2}", s.max_ns as f64 / 1e3)
                } else {
                    "-".into()
                },
                if timed {
                    format!("{:.1}", s.total_ns as f64 / wall_ns * 100.0)
                } else {
                    "-".into()
                },
            ));
            if let SpanKey::Map { state, node } = key {
                if let Some(t) = self.tiers.get(&(*state, *node)) {
                    if !t.is_empty() {
                        let mut parts = Vec::new();
                        for tier in Tier::ALL {
                            let i = tier as usize;
                            if t.points[i] > 0 || t.ns[i] > 0 {
                                parts.push(format!(
                                    "{} {} pts{}",
                                    tier.name(),
                                    t.points[i],
                                    if t.ns[i] > 0 {
                                        format!(" / {:.3} ms", t.ns[i] as f64 / 1e6)
                                    } else {
                                        String::new()
                                    }
                                ));
                            }
                        }
                        out.push_str(&format!("    tiers: {}\n", parts.join(", ")));
                    }
                }
            }
        }
        out.push_str(&format!(
            "map totals {:.3} ms ({:.1}% of wall) | state totals {:.3} ms | bytes moved {}\n",
            self.map_total().as_secs_f64() * 1e3,
            self.map_coverage() * 100.0,
            self.state_total().as_secs_f64() * 1e3,
            human_bytes(self.bytes_moved)
        ));
        out.push_str(&counters_footer(&self.exec, &self.sched));
        out
    }

    /// Renders the Chrome trace-event JSON (the "JSON Array Format"):
    /// one complete (`"ph":"X"`) event per timeline span, plus thread
    /// metadata naming each worker lane. Nested SDFG runs follow, each
    /// under its own `pid`. Load via `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        self.push_trace_events(&mut out, &mut first);
        out.push_str("\n]\n");
        out
    }

    fn push_trace_events(&self, out: &mut String, first: &mut bool) {
        // Timestamps are process-epoch relative and the pid is unique
        // per collector, so nested runs land on one aligned
        // multi-process timeline.
        let pid = self.pid;
        push_event(
            out,
            first,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\
                 \"args\":{{\"name\":\"executor {pid}\"}}}}"
            ),
        );
        let mut workers: Vec<u32> = self.timeline.iter().map(|s| s.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        for w in &workers {
            push_event(
                out,
                first,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\
                     \"args\":{{\"name\":\"worker {}\"}}}}",
                    w, w
                ),
            );
        }
        for span in &self.timeline {
            let cat = match span.key {
                SpanKey::State(_) => "state",
                SpanKey::Map { .. } => "map",
            };
            push_event(
                out,
                first,
                &format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\
                     \"dur\":{:.3},\"pid\":{pid},\"tid\":{}}}",
                    json_escape(&self.label(span.key)),
                    cat,
                    span.start_ns as f64 / 1e3,
                    span.dur_ns as f64 / 1e3,
                    span.worker
                ),
            );
        }
        for r in &self.nested {
            r.push_trace_events(out, first);
        }
    }
}

fn push_event(out: &mut String, first: &mut bool, ev: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("  ");
    out.push_str(ev);
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n - 1).collect();
        format!("{cut}…")
    }
}

fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

/// Escapes `s` for a JSON string literal: quotes, backslashes and every
/// control character (`\n`, `\r`, `\t` short, the rest as `\u00XX`).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp(worker: u32) -> WorkerProfile {
        WorkerProfile::new(worker)
    }

    #[test]
    fn scope_stat_record_and_merge() {
        let mut a = ScopeStat::default();
        a.record(10);
        a.record(30);
        assert_eq!((a.count, a.total_ns, a.min_ns, a.max_ns), (2, 40, 10, 30));
        let mut b = ScopeStat::default();
        b.record(5);
        a.merge(&b);
        assert_eq!((a.count, a.total_ns, a.min_ns, a.max_ns), (3, 45, 5, 30));
        assert_eq!(a.mean_ns(), 15);
    }

    #[test]
    fn absorb_merges_workers_deterministically() {
        let c = ProfileCollector::new();
        c.register_label(SpanKey::Map { state: 0, node: 2 }, "mult[i,j]");
        let mut w0 = wp(0);
        w0.maps.entry((0, 2)).or_default().record(100);
        w0.tiers
            .entry((0, 2))
            .or_default()
            .add(Tier::AffineVm, 64, 100);
        w0.timeline.push(Span {
            key: SpanKey::Map { state: 0, node: 2 },
            worker: 0,
            start_ns: 50,
            dur_ns: 100,
        });
        let mut w1 = wp(1);
        w1.maps.entry((0, 2)).or_default().record(200);
        w1.tiers
            .entry((0, 2))
            .or_default()
            .add(Tier::AffineVm, 64, 200);
        w1.timeline.push(Span {
            key: SpanKey::Map { state: 0, node: 2 },
            worker: 1,
            start_ns: 40,
            dur_ns: 200,
        });
        c.absorb(w1);
        c.absorb(w0);
        let r = c.finish(Duration::from_nanos(400));
        let m = r.maps[&(0, 2)];
        assert_eq!(
            (m.count, m.total_ns, m.min_ns, m.max_ns),
            (2, 300, 100, 200)
        );
        assert_eq!(r.tiers[&(0, 2)].points[Tier::AffineVm as usize], 128);
        assert_eq!(r.workers, 2);
        // Timeline sorted by start regardless of absorb order.
        assert_eq!(r.timeline[0].worker, 1);
        assert_eq!(r.label(SpanKey::Map { state: 0, node: 2 }), "mult[i,j]");
    }

    #[test]
    fn chrome_trace_is_wellformed_json_array() {
        let c = ProfileCollector::new();
        c.register_label(SpanKey::State(0), "st\"art");
        let mut w = wp(0);
        w.timeline.push(Span {
            key: SpanKey::State(0),
            worker: 0,
            start_ns: 0,
            dur_ns: 1500,
        });
        c.absorb(w);
        let trace = c.finish(Duration::from_micros(2)).chrome_trace();
        assert!(trace.starts_with("[\n"));
        assert!(trace.trim_end().ends_with(']'));
        assert!(trace.contains("\\\"art"));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"dur\":1.500"));
        // Balanced braces, no trailing comma before the closing bracket.
        assert!(!trace.contains(",\n]"));
    }

    #[test]
    fn hot_path_table_sorts_by_total() {
        let c = ProfileCollector::new();
        let mut w = wp(0);
        w.states.entry(0).or_default().record(1_000);
        w.maps.entry((0, 1)).or_default().record(9_000);
        c.absorb(w);
        let r = c.finish(Duration::from_nanos(10_000));
        let table = r.hot_path_table();
        let map_pos = table.find("map map#0.1").unwrap();
        let state_pos = table.find("state state#0").unwrap();
        assert!(map_pos < state_pos, "hottest scope first:\n{table}");
        assert!(table.contains("90.0"));
    }

    #[test]
    fn counter_mode_report_has_no_times() {
        let c = ProfileCollector::new();
        let mut w = wp(0);
        w.maps.entry((0, 1)).or_default().bump();
        w.bytes_moved = 4096;
        c.absorb(w);
        let r = c.finish(Duration::from_millis(1));
        assert!(r.timeline.is_empty());
        assert_eq!(r.maps[&(0, 1)].total_ns, 0);
        assert_eq!(r.maps[&(0, 1)].count, 1);
        assert_eq!(r.bytes_moved, 4096);
        assert!(r.hot_path_table().contains("4.00 KiB"));
    }

    #[test]
    fn collectors_share_one_epoch_but_get_distinct_pids() {
        let a = ProfileCollector::new();
        let b = ProfileCollector::new();
        assert_eq!(a.epoch(), b.epoch(), "one process-wide clock base");
        assert_ne!(a.pid(), b.pid(), "one pid per collector");
        // now_ns is epoch-relative for both, so later reads are larger
        // regardless of which collector reads.
        let t1 = a.now_ns();
        let t2 = b.now_ns();
        assert!(t2 >= t1);
        let ra = a.finish(Duration::from_micros(1));
        let trace = ra.chrome_trace();
        assert!(trace.contains(&format!("\"pid\":{}", ra.pid)));
        assert!(trace.contains("process_name"));
    }

    #[test]
    fn counters_footer_renders_without_a_report() {
        let exec = ExecCounters {
            plan_cache_hits: 3,
            plan_cache_misses: 1,
            pool_acquires: 4,
            pool_reuses: 2,
            pool_bytes_reused: 2048,
        };
        let sched = [SchedWorker {
            worker: 0,
            tiles: 10,
            steals: 2,
            idle_ns: 1_000_000,
        }];
        let footer = counters_footer(&exec, &sched);
        assert!(footer.contains("plan cache 3 hit / 1 miss"));
        assert!(footer.contains("2.00 KiB"));
        assert!(footer.contains("sched 10 tiles / 2 steals across 1 workers"));
        assert!(counters_footer(&ExecCounters::default(), &[]).is_empty());
    }

    #[test]
    fn heat_is_share_of_wall() {
        let c = ProfileCollector::new();
        let mut w = wp(0);
        w.states.entry(3).or_default().record(500);
        w.maps.entry((3, 7)).or_default().record(250);
        c.absorb(w);
        let r = c.finish(Duration::from_nanos(1000));
        let (sh, mh) = r.heat();
        assert!((sh[&3] - 0.5).abs() < 1e-9);
        assert!((mh[&(3, 7)] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn json_escape_leaves_no_raw_control_character() {
        let all: String = (0u8..0x20).map(char::from).chain("\"\\é".chars()).collect();
        let out = json_escape(&all);
        assert!(out.chars().all(|c| c >= ' '), "{out:?}");
        assert!(out.starts_with("\\u0000\\u0001"));
        assert!(out.contains("\\t\\n\\u000b\\u000c\\r"));
        assert!(out.ends_with("\\u001f\\\"\\\\é"));
    }
}

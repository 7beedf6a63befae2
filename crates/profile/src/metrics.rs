//! Process-global metrics registry with Prometheus text exposition.
//!
//! The registry holds **families** (one name + help + type) of **series**
//! (one label set each). Callers resolve a handle ([`Counter`], [`Gauge`],
//! [`Histogram`]) once, off the hot path, and then update it freely:
//! counters are backed by cache-line-padded sharded atomics so concurrent
//! workers pay one relaxed `fetch_add` on a (likely) private cache line,
//! never a lock. Handles are cheap `Arc` clones; the same
//! `(name, labels)` pair always resolves to the same underlying series.
//!
//! [`MetricsRegistry::render_prometheus`] emits the Prometheus text
//! exposition format (`# HELP` / `# TYPE` headers, cumulative histogram
//! buckets with an explicit `+Inf`). Families and series render in
//! deterministic sorted order. [`validate_exposition`] is a small
//! line-oriented checker used by tests and the bench harness's
//! `obs-check` mode.

use crate::counters::{BYTES_MOVED_HELP, N_RUN_COUNTERS, RUN_COUNTERS};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of per-counter shards. Threads hash onto shards by arrival
/// order; 16 covers typical core counts without false sharing.
const SHARDS: usize = 16;

/// One cache line per shard so two workers bumping the same counter
/// never contend on a line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Stable per-thread shard index (assigned on first use, round-robin).
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let mut i = s.get();
        if i == usize::MAX {
            i = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(i);
        }
        i
    })
}

/// Monotonically increasing counter; `add` is one relaxed atomic add on
/// a per-thread shard. Clones share the same series.
#[derive(Clone)]
pub struct Counter {
    shards: Arc<[PaddedU64; SHARDS]>,
}

impl Counter {
    fn new() -> Counter {
        Counter {
            shards: Arc::new(std::array::from_fn(|_| PaddedU64::default())),
        }
    }

    /// Adds `v` (relaxed, sharded — safe on any hot path).
    #[inline]
    pub fn add(&self, v: u64) {
        self.shards[shard_index()].0.fetch_add(v, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A settable signed gauge.
#[derive(Clone)]
pub struct Gauge {
    v: Arc<AtomicI64>,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            v: Arc::new(AtomicI64::new(0)),
        }
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Adds `v` (may be negative).
    pub fn add(&self, v: i64) {
        self.v.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram. Bucket upper bounds are set at registration
/// and immutable; `observe` is a bucket search plus three relaxed adds.
/// The sum is kept in fixed-point micro-units so it needs no
/// compare-exchange loop.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

struct HistogramInner {
    /// Ascending finite upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// One slot per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Histogram {
    /// A standalone histogram (not attached to any registry);
    /// [`MetricsRegistry::histogram`] builds its series with this.
    pub fn with_bounds(bounds: &[f64]) -> Histogram {
        let mut b: Vec<f64> = bounds.iter().copied().filter(|x| x.is_finite()).collect();
        b.sort_by(|x, y| x.partial_cmp(y).expect("finite bounds"));
        b.dedup();
        let buckets = (0..b.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: b,
                buckets,
                count: AtomicU64::new(0),
                sum_micros: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        // First bucket whose upper bound admits v (`v <= bound`);
        // everything past the last bound lands in the overflow slot.
        let i = self.inner.bounds.partition_point(|&b| v > b);
        self.inner.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        let micros = (v.max(0.0) * 1e6).round() as u64;
        self.inner.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (micro-unit fixed point, so ~1e-6 resolution).
    pub fn sum(&self) -> f64 {
        self.inner.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Non-cumulative per-bucket counts (last entry is the `+Inf`
    /// overflow bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Upper bounds (finite only; the overflow bucket is implicit).
    pub fn bounds(&self) -> &[f64] {
        &self.inner.bounds
    }
}

/// Default millisecond buckets for launch-duration histograms: 10 µs to
/// 5 s in a 1-2.5-5 ladder.
pub fn default_duration_buckets_ms() -> Vec<f64> {
    vec![
        0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
        1000.0, 2500.0, 5000.0,
    ]
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Family {
    kind: MetricKind,
    help: String,
    /// Keyed by the rendered, sorted label block (`""` for no labels).
    series: BTreeMap<String, Series>,
}

/// A registry of metric families. Most callers use the process-global
/// [`global()`]; separate registries exist for tests.
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Family>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with("__")
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()))
}

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Renders a label set as the canonical sorted `{k="v",...}` block
/// (empty string when there are no labels).
fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| {
            debug_assert!(valid_label_name(k), "invalid label name {k:?}");
            format!("{k}=\"{}\"", escape_label_value(v))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Injects one extra label into an already-rendered block (for
/// histogram `le`).
fn with_extra_label(block: &str, k: &str, v: &str) -> String {
    if block.is_empty() {
        format!("{{{k}=\"{v}\"}}")
    } else {
        format!("{},{k}=\"{v}\"}}", &block[..block.len() - 1])
    }
}

/// Shortest round-trip rendering of an `le` bound (Prometheus accepts
/// any float literal; `{}` keeps `0.25` as-is).
fn fmt_bound(b: f64) -> String {
    format!("{b}")
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Mutex::new(BTreeMap::new()),
        }
    }

    fn family<'a>(
        map: &'a mut BTreeMap<String, Family>,
        name: &str,
        help: &str,
        kind: MetricKind,
    ) -> &'a mut Family {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let fam = map.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert!(
            fam.kind == kind,
            "metric {name} already registered as {}",
            fam.kind.name()
        );
        fam
    }

    /// Resolves (registering if needed) a counter series. Idempotent:
    /// the same `(name, labels)` always returns the same series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let block = label_block(labels);
        let mut map = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let fam = Self::family(&mut map, name, help, MetricKind::Counter);
        match fam
            .series
            .entry(block)
            .or_insert_with(|| Series::Counter(Counter::new()))
        {
            Series::Counter(c) => c.clone(),
            _ => unreachable!("kind checked above"),
        }
    }

    /// Resolves (registering if needed) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let block = label_block(labels);
        let mut map = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let fam = Self::family(&mut map, name, help, MetricKind::Gauge);
        match fam
            .series
            .entry(block)
            .or_insert_with(|| Series::Gauge(Gauge::new()))
        {
            Series::Gauge(g) => g.clone(),
            _ => unreachable!("kind checked above"),
        }
    }

    /// Resolves (registering if needed) a histogram series with the
    /// given bucket bounds (bounds of an existing series win).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        let block = label_block(labels);
        let mut map = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let fam = Self::family(&mut map, name, help, MetricKind::Histogram);
        match fam
            .series
            .entry(block)
            .or_insert_with(|| Series::Histogram(Histogram::with_bounds(bounds)))
        {
            Series::Histogram(h) => h.clone(),
            _ => unreachable!("kind checked above"),
        }
    }

    /// Current value of a counter series, if registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let block = label_block(labels);
        let map = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        match map.get(name)?.series.get(&block)? {
            Series::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Renders the whole registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let map = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::new();
        for (name, fam) in map.iter() {
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&fam.help)));
            out.push_str(&format!("# TYPE {name} {}\n", fam.kind.name()));
            for (block, series) in fam.series.iter() {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!("{name}{block} {}\n", c.get()));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!("{name}{block} {}\n", g.get()));
                    }
                    Series::Histogram(h) => {
                        let counts = h.bucket_counts();
                        let mut cum = 0u64;
                        for (i, c) in counts.iter().enumerate() {
                            cum += c;
                            let le = match h.bounds().get(i) {
                                Some(&b) => fmt_bound(b),
                                None => "+Inf".to_string(),
                            };
                            let lb = with_extra_label(block, "le", &le);
                            out.push_str(&format!("{name}_bucket{lb} {cum}\n"));
                        }
                        out.push_str(&format!("{name}_sum{block} {}\n", h.sum()));
                        out.push_str(&format!("{name}_count{block} {}\n", h.count()));
                    }
                }
            }
        }
        out
    }
}

/// The process-global registry, with the core SDFG metric families
/// pre-registered (see [`core()`]) so required families render even at
/// zero.
pub fn global() -> &'static MetricsRegistry {
    &core_handles().registry
}

/// Pre-resolved handles for the metric families the execution stack
/// updates on its hot paths. Resolved exactly once per process; all
/// updates through these are single relaxed atomic adds.
pub struct CoreMetrics {
    registry: MetricsRegistry,
    /// `sdfg_launches_total{backend="cpu"}` — executor/runtime runs.
    pub launches: Counter,
    /// `sdfg_launch_duration_ms{backend="cpu"}` — per-run wall time.
    pub launch_duration_ms: Histogram,
    /// One series per [`RUN_COUNTERS`] row with a family (`None` for the
    /// rows without one), in table order; the executor adds each run's
    /// values after the run.
    pub run: [Option<Counter>; N_RUN_COUNTERS],
    /// `sdfg_bytes_moved_total{direction="local"}` — copies/writebacks.
    pub bytes_local: Counter,
    /// `sdfg_map_launches_total{schedule="sequential"}`.
    pub map_launches_seq: Counter,
    /// `sdfg_map_launches_total{schedule="parallel"}`.
    pub map_launches_par: Counter,
    /// `sdfg_opt_passes_total{outcome="applied"}`.
    pub opt_applied: Counter,
    /// `sdfg_opt_passes_total{outcome="rolled_back"}`.
    pub opt_rolled_back: Counter,
    /// `sdfg_interp_runs_total`.
    pub interp_runs: Counter,
    /// `sdfg_jit_compiles_total` — map bodies compiled to native code by
    /// the JIT tier (cache misses that invoked the system C compiler).
    pub jit_compiles: Counter,
    /// `sdfg_jit_compile_ms_total` — wall-clock milliseconds spent inside
    /// the C compiler.
    pub jit_compile_ms: Counter,
    /// `sdfg_jit_cache_hits_total` — JIT kernel requests served from the
    /// in-process registry or the on-disk artifact cache.
    pub jit_cache_hits: Counter,
    /// `sdfg_jit_fallbacks_total` — JIT-eligible bodies that fell back to
    /// the VM tier (no compiler, failed compile/dlopen, or `SDFG_JIT=off`).
    pub jit_fallbacks: Counter,
    /// `sdfg_jit_pending_launches_total` — nest launches that ran on an
    /// interpreted tier because their kernel was still compiling.
    pub jit_pending_launches: Counter,
}

/// The process-global core handles.
pub fn core() -> &'static CoreMetrics {
    core_handles()
}

/// Pre-resolved handles for the serving layer's metric families
/// (`crates/serve`). Registered in the same global registry as the core
/// families, so one `GET /metrics` exposition carries both. Resolved
/// lazily — batch processes that never serve pay nothing.
pub struct ServeMetrics {
    /// `sdfg_serve_requests_total{endpoint="submit"}`.
    pub requests_submit: Counter,
    /// `sdfg_serve_requests_total{endpoint="invoke"}`.
    pub requests_invoke: Counter,
    /// `sdfg_serve_requests_total{endpoint="other"}` — metrics, health,
    /// listings, and anything unrecognized.
    pub requests_other: Counter,
    /// `sdfg_serve_rejected_total{reason="queue_full"}` — admission-queue
    /// overflow, shed with 429.
    pub rejected_queue: Counter,
    /// `sdfg_serve_rejected_total{reason="tenant_cap"}` — per-tenant
    /// in-flight cap, shed with 429.
    pub rejected_tenant: Counter,
    /// `sdfg_serve_rejected_total{reason="timeout"}` — invoke cancelled at
    /// its wall-clock deadline, reported as 504.
    pub rejected_timeout: Counter,
    /// `sdfg_serve_inflight` — invokes currently executing or queued.
    pub inflight: Gauge,
    /// `sdfg_serve_request_duration_ms` — end-to-end invoke latency.
    pub request_duration_ms: Histogram,
    /// `sdfg_serve_decode_ms` — invoke body to bindings.
    pub decode_ms: Histogram,
    /// `sdfg_serve_encode_ms` — result arrays to response body.
    pub encode_ms: Histogram,
}

/// The process-global serving-layer handles.
pub fn serve() -> &'static ServeMetrics {
    static SERVE: OnceLock<ServeMetrics> = OnceLock::new();
    SERVE.get_or_init(|| {
        let r = global();
        let endpoint = |which: &str| {
            r.counter(
                "sdfg_serve_requests_total",
                "Serving-layer requests by endpoint.",
                &[("endpoint", which)],
            )
        };
        let rejected = |reason: &str| {
            r.counter(
                "sdfg_serve_rejected_total",
                "Serving-layer requests shed, by reason (queue_full, tenant_cap, timeout).",
                &[("reason", reason)],
            )
        };
        ServeMetrics {
            requests_submit: endpoint("submit"),
            requests_invoke: endpoint("invoke"),
            requests_other: endpoint("other"),
            rejected_queue: rejected("queue_full"),
            rejected_tenant: rejected("tenant_cap"),
            rejected_timeout: rejected("timeout"),
            inflight: r.gauge(
                "sdfg_serve_inflight",
                "Invoke requests currently queued or executing.",
                &[],
            ),
            request_duration_ms: r.histogram(
                "sdfg_serve_request_duration_ms",
                "End-to-end invoke latency at the serving layer, milliseconds.",
                &[],
                &default_duration_buckets_ms(),
            ),
            decode_ms: r.histogram(
                "sdfg_serve_decode_ms",
                "Time to decode an invoke request body into bindings, milliseconds.",
                &[],
                &default_duration_buckets_ms(),
            ),
            encode_ms: r.histogram(
                "sdfg_serve_encode_ms",
                "Time to encode an invoke's result arrays as the response body, milliseconds.",
                &[],
                &default_duration_buckets_ms(),
            ),
        }
    })
}

fn core_handles() -> &'static CoreMetrics {
    static CORE: OnceLock<CoreMetrics> = OnceLock::new();
    CORE.get_or_init(|| {
        let r = MetricsRegistry::new();
        let launches = r.counter(
            "sdfg_launches_total",
            "Executor/runtime run invocations by backend.",
            &[("backend", "cpu")],
        );
        let launch_duration_ms = r.histogram(
            "sdfg_launch_duration_ms",
            "End-to-end wall time of executor runs, milliseconds.",
            &[("backend", "cpu")],
            &default_duration_buckets_ms(),
        );
        let run = std::array::from_fn(|i| {
            RUN_COUNTERS[i]
                .family
                .map(|f| r.counter(f.name, f.help, f.labels))
        });
        let bytes_local = r.counter(
            "sdfg_bytes_moved_total",
            BYTES_MOVED_HELP,
            &[("direction", "local")],
        );
        let map_launches = |schedule: &str| {
            r.counter(
                "sdfg_map_launches_total",
                "Map-scope launches by schedule class.",
                &[("schedule", schedule)],
            )
        };
        let map_launches_seq = map_launches("sequential");
        let map_launches_par = map_launches("parallel");
        let opt_passes = |outcome: &str| {
            r.counter(
                "sdfg_opt_passes_total",
                "Optimization passes by outcome.",
                &[("outcome", outcome)],
            )
        };
        let opt_applied = opt_passes("applied");
        let opt_rolled_back = opt_passes("rolled_back");
        let interp_runs = r.counter(
            "sdfg_interp_runs_total",
            "Reference-interpreter run invocations.",
            &[],
        );
        let jit_compiles = r.counter(
            "sdfg_jit_compiles_total",
            "Map bodies compiled to native code by the JIT tier.",
            &[],
        );
        let jit_compile_ms = r.counter(
            "sdfg_jit_compile_ms_total",
            "Wall-clock milliseconds the JIT tier spent inside the C compiler.",
            &[],
        );
        let jit_cache_hits = r.counter(
            "sdfg_jit_cache_hits_total",
            "JIT kernel requests served from the in-process or on-disk cache.",
            &[],
        );
        let jit_fallbacks = r.counter(
            "sdfg_jit_fallbacks_total",
            "JIT-eligible map bodies that fell back to the VM tier.",
            &[],
        );
        let jit_pending_launches = r.counter(
            "sdfg_jit_pending_launches_total",
            "Nest launches that ran interpreted while their kernel was still compiling.",
            &[],
        );
        CoreMetrics {
            registry: r,
            launches,
            launch_duration_ms,
            run,
            bytes_local,
            map_launches_seq,
            map_launches_par,
            opt_applied,
            opt_rolled_back,
            interp_runs,
            jit_compiles,
            jit_compile_ms,
            jit_cache_hits,
            jit_fallbacks,
            jit_pending_launches,
        }
    })
}

/// Checks a Prometheus text exposition for structural validity: every
/// non-comment line is `name[{labels}] value`, every samples' family has
/// `# TYPE`, histogram buckets are cumulative and end in `+Inf`.
/// Returns the set of family names on success.
pub fn validate_exposition(text: &str) -> Result<Vec<String>, String> {
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut seen: Vec<String> = Vec::new();
    // name -> (labels-sans-le -> (last cumulative value, saw +Inf))
    let mut hist_state: BTreeMap<String, (u64, bool)> = BTreeMap::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |m: String| Err(format!("line {}: {m}: {line:?}", ln + 1));
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (Some(name), Some(kind)) = (it.next(), it.next()) else {
                return err("malformed TYPE".into());
            };
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return err(format!("unknown metric type {kind:?}"));
            }
            typed.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_labels, value) = match line.rsplit_once(' ') {
            Some(p) => p,
            None => return err("no value".into()),
        };
        if value.parse::<f64>().is_err() {
            return err(format!("unparseable value {value:?}"));
        }
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, rest)) => {
                if !rest.ends_with('}') {
                    return err("unterminated label block".into());
                }
                (n, &rest[..rest.len() - 1])
            }
            None => (name_labels, ""),
        };
        if !valid_metric_name(name) {
            return err(format!("invalid metric name {name:?}"));
        }
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| typed.get(*b).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        if !typed.contains_key(base) {
            return err(format!("sample for untyped family {base:?}"));
        }
        if !seen.contains(&base.to_string()) {
            seen.push(base.to_string());
        }
        if name.ends_with("_bucket") && typed.get(base).map(String::as_str) == Some("histogram") {
            let mut le = None;
            let mut rest_labels: Vec<&str> = Vec::new();
            for part in labels.split(',').filter(|p| !p.is_empty()) {
                match part.split_once('=') {
                    Some(("le", v)) => le = Some(v.trim_matches('"').to_string()),
                    _ => rest_labels.push(part),
                }
            }
            let Some(le) = le else {
                return err("histogram bucket without le".into());
            };
            if le != "+Inf" && le.parse::<f64>().is_err() {
                return err(format!("unparseable le {le:?}"));
            }
            let key = format!("{base}{{{}}}", rest_labels.join(","));
            let v = value.parse::<f64>().unwrap() as u64;
            let entry = hist_state.entry(key).or_insert((0, false));
            if v < entry.0 {
                return err("histogram buckets not cumulative".into());
            }
            entry.0 = v;
            if le == "+Inf" {
                entry.1 = true;
            }
        }
    }
    for (series, (_, inf)) in hist_state.iter() {
        if !inf {
            return Err(format!("histogram series {series} has no +Inf bucket"));
        }
    }
    Ok(seen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_increments_sum_correctly() {
        let r = MetricsRegistry::new();
        let c = r.counter("t_total", "test", &[]);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
        assert_eq!(r.counter_value("t_total", &[]), Some(80_000));
    }

    #[test]
    fn same_name_and_labels_resolve_to_same_series() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total", "x", &[("k", "v"), ("a", "b")]);
        // Label order must not matter.
        let b = r.counter("x_total", "x", &[("a", "b"), ("k", "v")]);
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        let c = r.counter("x_total", "x", &[("a", "b"), ("k", "other")]);
        c.add(1);
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = Histogram::with_bounds(&[1.0, 5.0, 10.0]);
        h.observe(0.5); // bucket le=1
        h.observe(1.0); // le=1 (inclusive upper bound)
        h.observe(1.01); // le=5
        h.observe(10.0); // le=10
        h.observe(11.0); // +Inf
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 23.51).abs() < 1e-6);
    }

    #[test]
    fn exposition_format_parses() {
        let r = MetricsRegistry::new();
        r.counter("a_total", "counts \"a\"\nnewline", &[("k", "v\"q")])
            .add(2);
        r.gauge("g", "a gauge", &[]).set(-3);
        let h = r.histogram("d_ms", "durations", &[("backend", "cpu")], &[0.5, 2.0]);
        h.observe(0.4);
        h.observe(3.0);
        let text = r.render_prometheus();
        let fams = validate_exposition(&text).expect("valid exposition");
        assert_eq!(fams, vec!["a_total", "d_ms", "g"]);
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total{k=\"v\\\"q\"} 2"));
        assert!(text.contains("g -3"));
        assert!(text.contains("d_ms_bucket{backend=\"cpu\",le=\"0.5\"} 1"));
        assert!(text.contains("d_ms_bucket{backend=\"cpu\",le=\"+Inf\"} 2"));
        assert!(text.contains("d_ms_count{backend=\"cpu\"} 2"));
        assert!(text.contains("help") || text.contains("# HELP"));
    }

    #[test]
    fn global_preregisters_required_families_at_zero() {
        let text = global().render_prometheus();
        for fam in [
            "sdfg_launches_total",
            "sdfg_plan_cache_hits_total",
            "sdfg_bytes_moved_total",
            "sdfg_sched_steals_total",
            "sdfg_launch_duration_ms",
        ] {
            assert!(
                text.contains(&format!("# TYPE {fam} ")),
                "missing family {fam} in:\n{text}"
            );
        }
        assert!(text.contains("sdfg_bytes_moved_total{direction=\"h2d\"}"));
        validate_exposition(&text).expect("global exposition valid");
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_exposition("no_type_metric 1\n").is_err());
        assert!(validate_exposition("# TYPE a counter\na notanumber\n").is_err());
        let non_cumulative = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n";
        assert!(validate_exposition(non_cumulative).is_err());
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\n";
        assert!(validate_exposition(no_inf).is_err());
    }
}

//! The multi-tenant program registry: submitted SDFGs are keyed by
//! content hash, validated and compiled **once**, and every resident
//! program shares one plan cache, buffer pool and scheduler pool. A second tenant submitting a byte-identical program gets the
//! same handle back (and, on invoke, the first tenant's cached plans).

use sdfg_core::serialize::{content_hash, from_json_limited};
use sdfg_core::SdfgError;
use sdfg_exec::{
    shared_scheduler, Bindings, BufferPool, OptLevel, Outputs, PlanCache, SchedPool, Session,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Per-program usage counters, updated lock-free on the invoke path.
#[derive(Default)]
pub struct ProgramStats {
    /// Completed invokes (success or failure).
    pub invokes: AtomicU64,
    /// Invokes that returned an error.
    pub errors: AtomicU64,
    /// Total invoke wall time, microseconds.
    pub total_us: AtomicU64,
    /// Submissions that found this program already resident.
    pub submit_hits: AtomicU64,
}

/// One resident program: a compile-once [`Session`] plus usage counters.
pub struct ProgramEntry {
    /// The shared, `Sync` session (compiled lazily on first invoke).
    pub session: Session,
    /// Usage counters.
    pub stats: ProgramStats,
}

impl ProgramEntry {
    /// Runs one invoke with an optional wall-clock budget, updating the
    /// per-program counters.
    pub fn invoke(
        &self,
        bindings: Bindings,
        budget: Option<Duration>,
    ) -> Result<Outputs, SdfgError> {
        let t0 = Instant::now();
        let out = match budget {
            Some(b) => self.session.run_deadline(bindings, b),
            None => self.session.run(bindings),
        };
        self.stats.invokes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .total_us
            .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        if out.is_err() {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

/// Execution policy every registered program is built with. Tenants
/// share the server's policy; per-request knobs are limited to symbol
/// and array bindings plus the invoke deadline.
pub struct RegistryConfig {
    /// Optimization level for registered programs.
    pub opt: OptLevel,
    /// Worker threads per invoke.
    pub nthreads: usize,
    /// Size cap for submitted program payloads, bytes.
    pub max_program_bytes: usize,
}

impl Default for RegistryConfig {
    fn default() -> RegistryConfig {
        RegistryConfig {
            opt: OptLevel::Aggressive,
            nthreads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            max_program_bytes: sdfg_core::serialize::DEFAULT_MAX_PROGRAM_BYTES,
        }
    }
}

/// What a submit returned: the content-hash handle and whether the
/// program was already resident.
pub struct Submitted {
    /// Content hash of the submitted (unoptimized) graph.
    pub hash: u64,
    /// True when a byte-identical program was already registered.
    pub existing: bool,
    /// Program name from the graph.
    pub name: String,
}

/// The content-addressed program store shared by all tenants.
pub struct Registry {
    config: RegistryConfig,
    plan_cache: Arc<PlanCache>,
    pool: Arc<BufferPool>,
    sched: Option<Arc<SchedPool>>,
    programs: RwLock<HashMap<u64, Arc<ProgramEntry>>>,
}

impl Registry {
    /// Creates an empty registry; the plan cache, buffer pool and
    /// scheduler pool created here are shared by every program it will
    /// ever hold.
    pub fn new(config: RegistryConfig) -> Registry {
        let sched = shared_scheduler(config.nthreads);
        Registry {
            config,
            plan_cache: Arc::new(PlanCache::new()),
            pool: Arc::new(BufferPool::new()),
            sched,
            programs: RwLock::new(HashMap::new()),
        }
    }

    /// Deserializes, validates and registers a program. Byte-identical
    /// resubmissions (from any tenant) are registry hits: the existing
    /// entry — and its compiled plans — are reused.
    pub fn submit(&self, src: &str) -> Result<Submitted, SdfgError> {
        let sdfg = from_json_limited(src, self.config.max_program_bytes)?;
        let hash = content_hash(&sdfg);
        if let Some(entry) = self.programs.read().unwrap().get(&hash) {
            entry.stats.submit_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Submitted {
                hash,
                existing: true,
                name: entry.session.sdfg().name.clone(),
            });
        }
        let name = sdfg.name.clone();
        let mut builder = Session::builder(sdfg)
            .opt_level(self.config.opt)
            .nthreads(self.config.nthreads)
            .plan_cache(Arc::clone(&self.plan_cache))
            .buffer_pool(Arc::clone(&self.pool));
        if let Some(s) = &self.sched {
            builder = builder.scheduler(Arc::clone(s));
        }
        let session = builder.build()?;
        let entry = Arc::new(ProgramEntry {
            session,
            stats: ProgramStats::default(),
        });
        let mut programs = self.programs.write().unwrap();
        // Two tenants can race the same submission; first writer wins and
        // the loser's entry (no compiled state yet) is discarded.
        let existing = programs.contains_key(&hash);
        if existing {
            programs[&hash]
                .stats
                .submit_hits
                .fetch_add(1, Ordering::Relaxed);
        } else {
            programs.insert(hash, entry);
        }
        Ok(Submitted {
            hash,
            existing,
            name,
        })
    }

    /// Looks up a resident program by handle.
    pub fn get(&self, hash: u64) -> Option<Arc<ProgramEntry>> {
        self.programs.read().unwrap().get(&hash).cloned()
    }

    /// Snapshot of all resident programs, sorted by handle for stable
    /// listings: `(hash, name, invokes, errors, submit_hits, avg_ms)`.
    pub fn list(&self) -> Vec<(u64, String, u64, u64, u64, f64)> {
        let programs = self.programs.read().unwrap();
        let mut rows: Vec<_> = programs
            .iter()
            .map(|(h, e)| {
                let invokes = e.stats.invokes.load(Ordering::Relaxed);
                let avg_ms = if invokes > 0 {
                    e.stats.total_us.load(Ordering::Relaxed) as f64 / invokes as f64 / 1000.0
                } else {
                    0.0
                };
                (
                    *h,
                    e.session.sdfg().name.clone(),
                    invokes,
                    e.stats.errors.load(Ordering::Relaxed),
                    e.stats.submit_hits.load(Ordering::Relaxed),
                    avg_ms,
                )
            })
            .collect();
        rows.sort_by_key(|r| r.0);
        rows
    }

    /// Number of resident programs.
    pub fn len(&self) -> usize {
        self.programs.read().unwrap().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.programs.read().unwrap().is_empty()
    }

    /// The plan cache shared by every resident program.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// The buffer pool shared by every resident program.
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }
}

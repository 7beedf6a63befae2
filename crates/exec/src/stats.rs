//! Execution statistics, shared by all backends.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Execution statistics (also feeds the accelerator simulators' models).
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Tasklet executions (map points × tasklets).
    pub tasklet_points: u64,
    /// Points executed through native kernels instead of the VM.
    pub native_points: u64,
    /// Points executed through JIT-compiled native code.
    pub jit_points: u64,
    /// Native nest-kernel calls: collapsed state-machine loops (one per
    /// loop, or per deadline slice), tile-dispatched map nests (one per
    /// tile) and innermost spans (one per row).
    pub nest_calls: u64,
    /// Points executed inside nest-kernel calls. Every JIT point runs in
    /// one, so `nest_points == jit_points`; the field stays for the
    /// ledger, metrics and bench schemas that read it.
    pub nest_points: u64,
    /// Interstate edge condition evaluations performed by the drive loop.
    pub interstate_evals: u64,
    /// Elements moved by explicit copies (access-to-access, scope copies).
    pub elements_copied: u64,
    /// Map scope launches.
    pub map_launches: u64,
    /// Parallel regions entered (multicore-scheduled top-level maps).
    pub parallel_regions: u64,
    /// State executions.
    pub states_executed: u64,
    /// Tiles executed by the work-stealing scheduler during this run.
    pub sched_tiles: u64,
    /// Tiles acquired by stealing during this run.
    pub sched_steals: u64,
    /// Bytes transferred host → device by the heterogeneous runtime.
    pub h2d_bytes: u64,
    /// Bytes transferred device → host by the heterogeneous runtime.
    pub d2h_bytes: u64,
    /// Per-state visit counts (state slot index → executions), for the
    /// accelerator time models.
    pub state_visits: Vec<(u32, u64)>,
}

#[derive(Default)]
pub(crate) struct AtomicStats {
    pub(crate) tasklet_points: AtomicU64,
    pub(crate) native_points: AtomicU64,
    pub(crate) jit_points: AtomicU64,
    pub(crate) nest_calls: AtomicU64,
    pub(crate) interstate_evals: AtomicU64,
    pub(crate) elements_copied: AtomicU64,
    pub(crate) map_launches: AtomicU64,
    pub(crate) parallel_regions: AtomicU64,
    pub(crate) states_executed: AtomicU64,
    pub(crate) h2d_bytes: AtomicU64,
    pub(crate) d2h_bytes: AtomicU64,
    pub(crate) state_visits: Mutex<HashMap<u32, u64>>,
}

impl AtomicStats {
    pub(crate) fn snapshot(&self) -> Stats {
        let jit_points = self.jit_points.load(Ordering::Relaxed);
        Stats {
            tasklet_points: self.tasklet_points.load(Ordering::Relaxed),
            native_points: self.native_points.load(Ordering::Relaxed),
            jit_points,
            nest_calls: self.nest_calls.load(Ordering::Relaxed),
            nest_points: jit_points,
            interstate_evals: self.interstate_evals.load(Ordering::Relaxed),
            elements_copied: self.elements_copied.load(Ordering::Relaxed),
            map_launches: self.map_launches.load(Ordering::Relaxed),
            parallel_regions: self.parallel_regions.load(Ordering::Relaxed),
            states_executed: self.states_executed.load(Ordering::Relaxed),
            // Filled in by `run_with` from the scheduler pool's counters
            // (the pool outlives individual runs, so deltas are computed
            // there, not here).
            sched_tiles: 0,
            sched_steals: 0,
            h2d_bytes: self.h2d_bytes.load(Ordering::Relaxed),
            d2h_bytes: self.d2h_bytes.load(Ordering::Relaxed),
            state_visits: {
                let mut v: Vec<(u32, u64)> = self
                    .state_visits
                    .lock()
                    .iter()
                    .map(|(&k, &n)| (k, n))
                    .collect();
                v.sort_unstable();
                v
            },
        }
    }
}

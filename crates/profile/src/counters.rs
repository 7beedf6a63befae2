//! The per-run counter table: every counter an executor run reports is
//! one row of [`run_counters!`](crate::run_counters), and nothing else
//! declares it.
//!
//! A row is a name, a doc comment and, optionally, the metric family the
//! run adds its value into. Everything that carries per-run counters is
//! generated from the table: the executor's public `Stats` fields, its
//! atomic accumulator and snapshot; the metric adds after a run and the
//! registration of their families in [`crate::metrics::CoreMetrics`];
//! the counter fields of [`crate::ledger::RunRecord`] and its JSON; and
//! the schema `obs-check` validates exposition and ledger against.
//!
//! Adding a counter is one row here plus the line that increments it on
//! the run's accumulator.

/// Help text of `sdfg_bytes_moved_total`, whose `direction="local"`
/// series is derived from `elements_copied` by the executor and whose
/// host↔device series are table rows.
pub const BYTES_MOVED_HELP: &str =
    "Bytes moved, by direction (local copies, host-to-device, device-to-host).";

/// Invokes `$callback!` with the per-run counter table, one row per
/// counter: `/// doc` then `name;` or `name => ("family", "help"[, label
/// = "value"]*);`. Row order is the order of the ledger's counter keys.
#[macro_export]
macro_rules! run_counters {
    ($callback:ident) => {
        $callback! {
            /// Tasklet executions (map points × tasklets).
            tasklet_points;
            /// Points executed through native kernels instead of the VM.
            native_points;
            /// Points executed through JIT-compiled native code.
            jit_points;
            /// Native nest-kernel calls: one per collapsed state-machine
            /// loop or deadline slice; one per serial map launch or tile of
            /// a parallel one; one per interpreted prefix row where a map's
            /// kernel covers only a suffix of its dims (or per dim-0 value
            /// of a whole-map launch the kernel declined); and one per
            /// 4096-push chunk of a launch that pushes to a stream.
            nest_calls => (
                "sdfg_nest_calls_total",
                "Native nest-kernel calls (per collapsed loop or deadline slice, serial map launch or tile, prefix row of a suffix kernel, or stream chunk)."
            );
            /// Points executed inside nest-kernel calls. Every JIT point
            /// runs in one, so `nest_points == jit_points`.
            nest_points => (
                "sdfg_nest_points_total",
                "Map-body points executed inside native nest-kernel calls."
            );
            /// Interstate edge condition evaluations performed by the drive
            /// loop (collapsed loops skip their per-iteration share).
            interstate_evals => (
                "sdfg_interstate_evals_total",
                "Interstate edge conditions evaluated by the state-machine driver."
            );
            /// Elements moved by explicit copies (access-to-access, scope
            /// copies).
            elements_copied;
            /// Map scope launches.
            map_launches;
            /// Parallel regions entered (multicore-scheduled top-level maps).
            parallel_regions;
            /// State executions.
            states_executed => ("sdfg_states_executed_total", "SDFG state executions.");
            /// Tiles this run's parallel launches ran on the work-stealing
            /// scheduler.
            sched_tiles => (
                "sdfg_sched_tiles_total",
                "Tiles executed by the work-stealing scheduler."
            );
            /// Tiles acquired by stealing during this run's launches.
            sched_steals => (
                "sdfg_sched_steals_total",
                "Tiles acquired by stealing from another worker's deque."
            );
            /// Bytes transferred host → device at device-backend boundaries.
            h2d_bytes => ("sdfg_bytes_moved_total", $crate::counters::BYTES_MOVED_HELP, direction = "h2d");
            /// Bytes transferred device → host at device-backend boundaries.
            d2h_bytes => ("sdfg_bytes_moved_total", $crate::counters::BYTES_MOVED_HELP, direction = "d2h");
            /// Plan-cache lookups of this run that found an existing plan.
            plan_cache_hits => (
                "sdfg_plan_cache_hits_total",
                "Plan-cache lookups that found an existing lowered plan."
            );
            /// Plan-cache lookups of this run that lowered a fresh plan.
            plan_cache_misses => (
                "sdfg_plan_cache_misses_total",
                "Plan-cache lookups that lowered a fresh plan."
            );
            /// Buffer-pool acquisitions made by this run.
            pool_acquires => ("sdfg_pool_acquires_total", "Buffer-pool acquisitions.");
            /// This run's acquisitions served by recycling a parked buffer.
            pool_reuses => (
                "sdfg_pool_reuses_total",
                "Buffer-pool acquisitions served by recycling."
            );
        }
    };
}

/// The metric family a table row adds into after every run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Family {
    /// Family name (`sdfg_…_total`).
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// The row's series within the family.
    pub labels: &'static [(&'static str, &'static str)],
}

/// One row of the per-run counter table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    /// Field name in `Stats`, key in the ledger.
    pub name: &'static str,
    /// The metric family the row feeds, if any.
    pub family: Option<Family>,
}

macro_rules! rows {
    ($($(#[$doc:meta])* $name:ident $(=> $family:tt)?;)*) => {
        /// Every per-run counter, in table order.
        pub const RUN_COUNTERS: &[Row] = &[$(Row {
            name: stringify!($name),
            family: rows!(@family $($family)?),
        }),*];
    };
    (@family) => { None };
    (@family ($fam:literal, $help:expr $(, $key:ident = $value:literal)*)) => {
        Some(Family {
            name: $fam,
            help: $help,
            labels: &[$((stringify!($key), $value)),*],
        })
    };
}
run_counters!(rows);

/// Number of rows in [`RUN_COUNTERS`].
pub const N_RUN_COUNTERS: usize = RUN_COUNTERS.len();

/// The distinct metric families the table feeds, in first-row order.
pub fn families() -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for f in RUN_COUNTERS.iter().filter_map(|r| r.family) {
        if !out.contains(&f.name) {
            out.push(f.name);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_listed_once_with_their_labels() {
        let fams = families();
        let bytes = fams.iter().filter(|f| **f == "sdfg_bytes_moved_total");
        assert_eq!(bytes.count(), 1, "{fams:?}");
        let h2d = RUN_COUNTERS.iter().find(|r| r.name == "h2d_bytes").unwrap();
        assert_eq!(h2d.family.unwrap().labels, &[("direction", "h2d")]);
    }
}

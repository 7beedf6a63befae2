//! Execution statistics, shared by all backends. The counter fields are
//! generated from the per-run counter table (`sdfg_profile::run_counters!`).

use parking_lot::Mutex;
use sdfg_profile::counters::N_RUN_COUNTERS;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! stats {
    ($($(#[$doc:meta])* $name:ident $(=> $family:tt)?;)*) => {
        /// Execution statistics of one run (also feeds the accelerator
        /// simulators' models). Every counter counts this run's own events.
        #[derive(Clone, Debug, Default)]
        pub struct Stats {
            $($(#[$doc])* pub $name: u64,)*
            /// Per-state visit counts (state slot index → executions), for
            /// the accelerator time models.
            pub state_visits: Vec<(u32, u64)>,
        }

        /// A run's counters while it runs.
        #[derive(Default)]
        pub(crate) struct AtomicStats {
            $(pub(crate) $name: AtomicU64,)*
            pub(crate) state_visits: Mutex<HashMap<u32, u64>>,
        }

        impl AtomicStats {
            pub(crate) fn snapshot(&self) -> Stats {
                let mut visits: Vec<(u32, u64)> =
                    self.state_visits.lock().iter().map(|(&k, &n)| (k, n)).collect();
                visits.sort_unstable();
                let mut s = Stats {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    state_visits: visits,
                };
                // Every JIT point runs inside a nest-kernel call.
                s.nest_points = s.jit_points;
                s
            }
        }

        impl Stats {
            /// The counters in table order (`sdfg_profile::counters::RUN_COUNTERS`).
            pub fn counters(&self) -> [u64; N_RUN_COUNTERS] {
                [$(self.$name),*]
            }
        }
    };
}
sdfg_profile::run_counters!(stats);

//! The uniform workload wrapper used by tests, examples and benches.

use sdfg_core::Sdfg;
use sdfg_exec::{ExecError, Executor, InstrumentationReport, MapLowering, Profiling, Stats};
use sdfg_interp::{InterpError, Interpreter};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A runnable workload: an SDFG plus its concrete inputs.
pub struct Workload {
    /// Name (kernel identifier).
    pub name: String,
    /// The program.
    pub sdfg: Sdfg,
    /// Symbol bindings.
    pub symbols: Vec<(String, i64)>,
    /// Input/output arrays (outputs pre-zeroed).
    pub arrays: HashMap<String, Vec<f64>>,
    /// Containers whose contents define the result (for verification).
    pub check: Vec<String>,
}

/// What [`Workload::run_exec`] returns: outputs, stats and wall time.
pub type ExecRun = (HashMap<String, Vec<f64>>, Stats, Duration);

/// What [`Workload::run_exec_profiled`] returns: outputs, stats, wall
/// time, the instrumentation report, and the per-map lowering decisions
/// (which tier each map body compiled to, and why the JIT declined).
pub type ProfiledExecRun = (
    HashMap<String, Vec<f64>>,
    Stats,
    Duration,
    InstrumentationReport,
    Vec<MapLowering>,
);

impl Workload {
    /// Creates a workload.
    pub fn new(name: impl Into<String>, sdfg: Sdfg) -> Workload {
        Workload {
            name: name.into(),
            sdfg,
            symbols: Vec::new(),
            arrays: HashMap::new(),
            check: Vec::new(),
        }
    }

    /// Binds a symbol (builder style).
    pub fn symbol(mut self, name: &str, v: i64) -> Workload {
        self.symbols.push((name.to_string(), v));
        self
    }

    /// Provides an array (builder style).
    pub fn array(mut self, name: &str, data: Vec<f64>) -> Workload {
        self.arrays.insert(name.to_string(), data);
        self
    }

    /// Marks a container as part of the checked result (builder style).
    pub fn check(mut self, name: &str) -> Workload {
        self.check.push(name.to_string());
        self
    }

    /// Builds an executor with this workload's symbols and arrays bound,
    /// without running it. Callers that invoke `run` repeatedly on the
    /// returned executor exercise the plan cache and buffer pool (the
    /// bench harness's warm-run protocol).
    pub fn executor(&self) -> Executor<'_> {
        let mut ex = Executor::new(&self.sdfg);
        for (s, v) in &self.symbols {
            ex.set_symbol(s, *v);
        }
        for (n, d) in &self.arrays {
            ex.set_array(n, d.clone());
        }
        ex
    }

    /// Starts a [`sdfg_exec::SessionBuilder`] over a clone of this
    /// workload's SDFG — the compile-once/invoke-many construction path
    /// the harness and bench share with the serving layer.
    pub fn session(&self) -> sdfg_exec::SessionBuilder {
        sdfg_exec::Session::builder(self.sdfg.clone())
    }

    /// This workload's symbols and arrays as typed [`sdfg_exec::Bindings`]
    /// for a session invoke (arrays copied, so the workload stays
    /// reusable).
    pub fn bindings(&self) -> sdfg_exec::Bindings {
        let mut b = sdfg_exec::Bindings::new();
        for (s, v) in &self.symbols {
            b = b.symbol(s, *v);
        }
        for (n, d) in &self.arrays {
            b = b.array(n, d);
        }
        b
    }

    /// Runs on the optimizing executor; returns outputs, stats and wall
    /// time.
    pub fn run_exec(&self) -> Result<ExecRun, ExecError> {
        let mut ex = Executor::new(&self.sdfg);
        for (s, v) in &self.symbols {
            ex.set_symbol(s, *v);
        }
        for (n, d) in &self.arrays {
            ex.set_array(n, d.clone());
        }
        let t0 = Instant::now();
        let stats = ex.run()?;
        let dt = t0.elapsed();
        Ok((std::mem::take(&mut ex.arrays), stats, dt))
    }

    /// Runs on the optimizing executor with instrumentation forced on
    /// every state and map scope; returns outputs, stats, wall time and
    /// the instrumentation report (hot-path table, Chrome trace, heat).
    ///
    /// Profiles the steady state: an untimed run first requests every JIT
    /// kernel the program reaches, and the profiled run starts once their
    /// compiles have finished.
    pub fn run_exec_profiled(&self) -> Result<ProfiledExecRun, ExecError> {
        self.run_exec()?;
        sdfg_exec::jit::wait_idle();
        let mut ex = Executor::new(&self.sdfg);
        ex.enable_profiling(Profiling::ForceTimers);
        for (s, v) in &self.symbols {
            ex.set_symbol(s, *v);
        }
        for (n, d) in &self.arrays {
            ex.set_array(n, d.clone());
        }
        let t0 = Instant::now();
        let stats = ex.run()?;
        let dt = t0.elapsed();
        let report = ex
            .last_report
            .take()
            .expect("profiled run produces a report");
        let lowerings = ex.lowering_report();
        Ok((std::mem::take(&mut ex.arrays), stats, dt, report, lowerings))
    }

    /// Runs on the reference interpreter; returns outputs.
    pub fn run_interp(&self) -> Result<HashMap<String, Vec<f64>>, InterpError> {
        let mut it = Interpreter::new(&self.sdfg);
        for (s, v) in &self.symbols {
            it.set_symbol(s, *v);
        }
        for (n, d) in &self.arrays {
            it.set_array(n, d.clone());
        }
        it.run()?;
        Ok(std::mem::take(&mut it.arrays))
    }

    /// Symbol lookup.
    pub fn sym(&self, name: &str) -> i64 {
        self.symbols
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("symbol `{name}` not bound"))
    }
}

/// Asserts two result maps agree on the checked containers.
pub fn assert_allclose(
    check: &[String],
    got: &HashMap<String, Vec<f64>>,
    want: &HashMap<String, Vec<f64>>,
    tol: f64,
) {
    for name in check {
        let a = got.get(name).unwrap_or_else(|| panic!("missing `{name}`"));
        let b = want
            .get(name)
            .unwrap_or_else(|| panic!("missing reference `{name}`"));
        assert_eq!(a.len(), b.len(), "`{name}` length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let scale = 1.0 + x.abs().max(y.abs());
            assert!(
                (x - y).abs() <= tol * scale,
                "`{name}`[{i}]: got {x}, want {y}"
            );
        }
    }
}

/// Deterministic pseudo-random array in `[-1, 1)` (plain LCG; keeps
/// workloads reproducible without threading a RNG through every builder).
pub fn pseudo_random(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

//! Warm in-process execution of a set of programs: the three `*_warm`
//! workloads, and the engine-layer probe every other workload's traced run
//! uses for its `exec.*` metrics.

use crate::json::J;
use crate::layers::{compile_chain, Chain};
use crate::programs::{Program, Spec};
use crate::spans::{now_ns, Recorder};
use crate::stats::{estimates, median, percentile, Estimates};
use crate::Metrics;
use sdfg_exec::{Profiling, Session, Stats};
use sdfg_profile::SpanKey;
use std::time::Instant;

/// Samples of one timed (or traced) phase.
#[derive(Default)]
pub struct Phase {
    /// One entry per op, ms.
    pub op_ms: Vec<f64>,
    /// When each op ended, seconds from the start of the phase.
    pub op_end_s: Vec<f64>,
    /// Per-program engine time within each op (sweeps only), ms.
    pub parts_ms: Vec<Vec<f64>>,
    /// Ops that returned an error or a wrong result.
    pub failed: u64,
}

impl Phase {
    /// Seconds from the start of the phase to the end of its last op.
    pub fn span_s(&self) -> f64 {
        self.op_end_s.iter().copied().fold(0.0, f64::max)
    }

    pub fn p50(&self) -> f64 {
        percentile(&self.op_ms, 0.5)
    }

    /// See [`estimates`].
    pub fn estimates(&self) -> Estimates {
        let ops: Vec<(f64, f64)> = self
            .op_end_s
            .iter()
            .copied()
            .zip(self.op_ms.iter().copied())
            .collect();
        estimates(&ops)
    }
}

/// Programs built, checked against their references, compiled and warm.
pub struct Warm {
    pub programs: Vec<Program>,
    pub sessions: Vec<Session>,
    /// Checksum of the first verified run; every later run must match.
    pub expected: Vec<u64>,
    /// Exact per-run engine counts, per program.
    pub stats: Vec<Stats>,
    /// Compile-chain step times per program, from the cold first pass.
    pub chains: Vec<Chain>,
    pub threads: usize,
    /// Summed over programs, from the cold first pass.
    pub session_build_ms: f64,
    pub first_run_ms: f64,
}

/// How long the engine-layer probe may run.
#[derive(Clone, Copy)]
pub struct ProbeBudget {
    /// Seconds of traced ops.
    pub traced_s: f64,
    /// Fewest traced ops, however long they take.
    pub min_ops: usize,
    /// Seconds of interleaved untraced, native and one-thread rounds.
    pub interleaved_s: f64,
}

/// Engine counters whose deltas over a phase explain a regression.
struct Counters {
    plan: (u64, u64),
    pool: (u64, u64),
    idle_ns: u64,
}

fn counters(sessions: &[Session]) -> Counters {
    let mut c = Counters {
        plan: (0, 0),
        pool: (0, 0),
        idle_ns: 0,
    };
    for s in sessions {
        let (plan, pool) = (s.cache_stats(), s.pool_stats());
        c.plan.0 += plan.hits;
        c.plan.1 += plan.hits + plan.misses;
        c.pool.0 += pool.reuses;
        c.pool.1 += pool.acquires;
        if let Some(sched) = s.sched_stats() {
            c.idle_ns += sched.workers.iter().map(|w| w.idle_ns).sum::<u64>();
        }
    }
    c
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Warm {
    /// The cold first pass over the programs: build, session build, first
    /// run (compiling from whatever the artifact cache holds) and the check
    /// against the hand-written reference. With `chain`, each program's
    /// graph is also walked through the compile chain, one span per step.
    pub fn first_pass(
        specs: &[Spec],
        seed: u64,
        threads: usize,
        chain: bool,
        rec: &mut Recorder,
    ) -> Result<Warm, String> {
        let mut warm = Warm {
            programs: Vec::new(),
            sessions: Vec::new(),
            expected: Vec::new(),
            stats: Vec::new(),
            chains: Vec::new(),
            threads,
            session_build_ms: 0.0,
            first_run_ms: 0.0,
        };
        for &spec in specs {
            let (p, c) = if chain {
                compile_chain(spec, seed, None, 0, rec)?
            } else {
                let (p, build_ms) =
                    rec.time("frontend.build", None, 0, || Program::build(spec, seed));
                let c = Chain {
                    build_ms,
                    ..Chain::default()
                };
                (p, c)
            };
            let (session, ms) = rec.time("exec.session_build", None, 0, || {
                p.session(threads, Profiling::Off)
            });
            let session = session?;
            warm.session_build_ms += ms;
            let (first, ms) = rec.time("exec.first_run", None, 0, || session.run(p.w.bindings()));
            let first = first.map_err(|e| format!("{}: first run: {e}", p.label))?;
            warm.first_run_ms += ms;
            rec.time("reference.check", None, 0, || p.check(first.arrays()))
                .0?;
            warm.expected.push(p.checksum(first.arrays()));
            warm.chains.push(c);
            warm.sessions.push(session);
            warm.programs.push(p);
        }
        Ok(warm)
    }

    /// Everything between process start and the first timed op: the cold
    /// first pass, then a second run of every program that must reproduce
    /// the first bit for bit (and yields the exact per-run counts).
    pub fn setup(
        specs: &[Spec],
        seed: u64,
        threads: usize,
        chain: bool,
        rec: &mut Recorder,
    ) -> Result<Warm, String> {
        let mut warm = Warm::first_pass(specs, seed, threads, chain, rec)?;
        let t0 = now_ns();
        for ((p, session), &expected) in
            warm.programs.iter().zip(&warm.sessions).zip(&warm.expected)
        {
            let again = session
                .run(p.w.bindings())
                .map_err(|e| format!("{}: warm run: {e}", p.label))?;
            if p.checksum(again.arrays()) != expected {
                return Err(format!("{}: second run differs from the first", p.label));
            }
            warm.stats.push(again.stats().clone());
        }
        rec.push("exec.warm_run", t0, now_ns(), None, 0, 0);
        Ok(warm)
    }

    /// A second set of sessions over the same programs (other thread count
    /// or profiling mode), each run once so its plans are built.
    pub fn extra_sessions(
        &self,
        threads: usize,
        profiling: Profiling,
    ) -> Result<Vec<Session>, String> {
        self.programs
            .iter()
            .map(|p| {
                let s = p.session(threads, profiling)?;
                s.run(p.w.bindings())
                    .map_err(|e| format!("{}: warm-up: {e}", p.label))?;
                Ok(s)
            })
            .collect()
    }

    /// One sweep: `Session::run` on every program in order. The op's time is
    /// the sum of the engine calls; cloning the inputs and checksumming the
    /// outputs happen outside them. With a recorder, each call becomes an
    /// `exec.run` span under the op's span, and the map spans of the
    /// engine's `ForceTimers` report become its children.
    fn run_op(
        &self,
        sessions: &[Session],
        op: u64,
        rec: Option<(&mut Recorder, &str)>,
    ) -> (Vec<f64>, bool) {
        let op_start = now_ns();
        let mut parts = Vec::with_capacity(sessions.len());
        let mut runs = Vec::new();
        let mut ok = true;
        for ((p, session), &expected) in self.programs.iter().zip(sessions).zip(&self.expected) {
            let bindings = p.w.bindings();
            let t0 = now_ns();
            let result = session.run(bindings);
            let t1 = now_ns();
            parts.push((t1 - t0) as f64 / 1e6);
            match result {
                Ok(out) => {
                    ok &= p.checksum(out.arrays()) == expected;
                    if rec.is_some() {
                        let maps: Vec<(u64, u64, u32)> = out.report().map_or(Vec::new(), |r| {
                            r.timeline
                                .iter()
                                .filter(|s| matches!(s.key, SpanKey::Map { .. }))
                                .map(|s| (s.start_ns, s.start_ns + s.dur_ns, s.worker + 1))
                                .collect()
                        });
                        runs.push((t0, t1, maps));
                    }
                }
                Err(_) => ok = false,
            }
        }
        if let Some((rec, op_name)) = rec {
            let op_span = rec.push(op_name, op_start, now_ns(), None, op, 0);
            for (t0, t1, maps) in runs {
                let run = rec.push("exec.run", t0, t1, Some(op_span), op, 0);
                for (lo, hi, tid) in maps {
                    rec.push("exec.map", lo, hi, Some(run), op, tid);
                }
            }
        }
        (parts, ok)
    }

    /// Runs ops for `seconds` and at least `min_ops`. With a recorder, every
    /// op is a span of the given name.
    pub fn phase(
        &self,
        sessions: &[Session],
        seconds: f64,
        min_ops: usize,
        mut rec: Option<(&mut Recorder, &str)>,
    ) -> Phase {
        let mut phase = Phase::default();
        let t0 = Instant::now();
        loop {
            let op = phase.op_ms.len() as u64 + 1;
            let (parts, ok) = self.run_op(
                sessions,
                op,
                rec.as_mut().map(|(r, name)| (&mut **r, &**name)),
            );
            phase.op_ms.push(parts.iter().sum());
            phase.op_end_s.push(t0.elapsed().as_secs_f64());
            phase.parts_ms.push(parts);
            phase.failed += u64::from(!ok);
            if phase.op_ms.len() >= min_ops && t0.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        phase
    }

    /// The exact engine counts of one run of each program.
    pub fn counts_json(&self) -> J {
        J::Obj(
            self.programs
                .iter()
                .zip(&self.stats)
                .map(|(p, s)| {
                    let counts = J::obj([
                        ("tasklet_points", J::Int(s.tasklet_points)),
                        ("jit_points", J::Int(s.jit_points)),
                        ("nest_calls", J::Int(s.nest_calls)),
                        ("states_executed", J::Int(s.states_executed)),
                        ("interstate_evals", J::Int(s.interstate_evals)),
                        ("map_launches", J::Int(s.map_launches)),
                        ("parallel_regions", J::Int(s.parallel_regions)),
                        ("sched_tiles", J::Int(s.sched_tiles)),
                    ]);
                    (p.label.clone(), counts)
                })
                .collect(),
        )
    }

    /// Per-program rows: p50, p90 and share of the sweep.
    pub fn program_rows(&self, phase: &Phase) -> Vec<(String, f64, f64, f64)> {
        let total: f64 = phase.op_ms.iter().sum();
        self.programs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let col: Vec<f64> = phase.parts_ms.iter().map(|row| row[i]).collect();
                let share = col.iter().sum::<f64>() / total;
                (
                    p.label.clone(),
                    percentile(&col, 0.5),
                    percentile(&col, 0.9),
                    share,
                )
            })
            .collect()
    }

    /// The traced phase and the engine-layer metrics that come with it, then
    /// rounds of untraced, native and one-thread runs (see [`ProbeBudget`]). `per_op` scales sums over
    /// all programs to one op (1 for a sweep, 1/programs when an op runs a
    /// single program); `op_name` names the op spans (`op` when these ops
    /// are the workload's own). Returns the traced phase so the caller can
    /// compare it with an untraced one.
    pub fn engine_layers(
        &self,
        budget: ProbeBudget,
        per_op: f64,
        op_name: &str,
        rec: &mut Recorder,
        m: &mut Metrics,
    ) -> Result<Phase, String> {
        // Traced ops: own sessions with the engine's timers forced on.
        let traced_sessions = self.extra_sessions(self.threads, Profiling::ForceTimers)?;
        let before = counters(&traced_sessions);
        let spans_before = rec.len();
        let traced = self.phase(
            &traced_sessions,
            budget.traced_s,
            budget.min_ops,
            Some((rec, op_name)),
        );
        let after = counters(&traced_sessions);
        let n = traced.op_ms.len() as f64;
        m.set(
            "exec.plan.hit_rate",
            ratio(after.plan.0 - before.plan.0, after.plan.1 - before.plan.1),
        );
        m.set(
            "exec.pool.reuse_rate",
            ratio(after.pool.0 - before.pool.0, after.pool.1 - before.pool.1),
        );
        m.set(
            "exec.sched.idle_share",
            (after.idle_ns - before.idle_ns) as f64 / (traced.span_s() * 1e9 * self.threads as f64),
        );
        let run_self_ms: f64 = rec
            .layers_since(spans_before)
            .get("exec.run")
            .map_or(0.0, |l| l.self_ms);
        m.set("exec.dispatch.drive_self_ms", run_self_ms / n * per_op);
        drop(traced_sessions);

        // Exact counts of one run of every program.
        let sum = |f: fn(&Stats) -> u64| self.stats.iter().map(f).sum::<u64>() as f64;
        m.set("exec.dispatch.states", sum(|s| s.states_executed) * per_op);
        m.set(
            "exec.dispatch.interstate_evals",
            sum(|s| s.interstate_evals) * per_op,
        );
        m.set(
            "exec.dispatch.map_launches",
            sum(|s| s.map_launches) * per_op,
        );
        m.set("exec.nest.calls", sum(|s| s.nest_calls) * per_op);
        m.set("exec.nest.points", sum(|s| s.nest_points) * per_op);
        m.set("exec.sched.tiles", sum(|s| s.sched_tiles) * per_op);
        m.set("exec.sched.steals", sum(|s| s.sched_steals) * per_op);
        let points = sum(|s| s.tasklet_points);
        m.set(
            "exec.lower.jit_point_share",
            sum(|s| s.jit_points) / points.max(1.0),
        );

        // Untraced engine time, the native yardstick and a one-thread pass,
        // interleaved round by round on the same inputs.
        let serial = self.extra_sessions(1, Profiling::Off)?;
        let rounds = Instant::now();
        let (mut sdfg_ms, mut native_ms, mut serial_ms) = (Vec::new(), Vec::new(), Vec::new());
        while sdfg_ms.len() < 3 || rounds.elapsed().as_secs_f64() < budget.interleaved_s {
            native_ms.push(self.programs.iter().map(Program::native_ms).sum::<f64>());
            let (parts, ok) = self.run_op(&self.sessions, 0, None);
            let (serial_parts, serial_ok) = self.run_op(&serial, 0, None);
            if !(ok && serial_ok) {
                return Err("a probe run returned a wrong result".into());
            }
            sdfg_ms.push(parts.iter().sum::<f64>());
            serial_ms.push(serial_parts.iter().sum::<f64>());
        }
        let (sdfg, native, one) = (median(&sdfg_ms), median(&native_ms), median(&serial_ms));
        m.set("exec.kernel.ns_per_point", sdfg * 1e6 / points.max(1.0));
        m.set(
            "exec.sched.par_efficiency",
            one / (self.threads as f64 * sdfg),
        );
        m.set("workloads.tuned.native_ms", native * per_op);
        m.set("workloads.tuned.vs_native", sdfg / native);
        m.set("exec.session_build_ms", self.session_build_ms);
        m.set("exec.first_run_ms", self.first_run_ms);
        Ok(traced)
    }
}

//! The automatic optimization pipeline (paper §4.2, §6): a pass manager
//! that drives the transformation standard library without a performance
//! engineer in the loop.
//!
//! Two phases, mirroring DaCe's workflow:
//!
//! 1. **Strict fixpoint** — every [`Transformation::strict`] transformation
//!    (StateFusion, RedundantArray) is applied greedily until none matches.
//!    Strict transformations only remove redundancy, so this can run
//!    unconditionally. The SDFG is re-[`validate`](Sdfg::validate)d and
//!    memlets re-propagated after *every* rewrite, and a content-hash set
//!    guards against rewrite cycles (a repeated graph state aborts the
//!    phase instead of looping).
//! 2. **Heuristic phase** (aggressive only) — an ordered list of
//!    profitability-driven transformations (MapCollapse → MapFusion →
//!    MapTiling → Vectorization → MapToForLoop). Each candidate match asks
//!    the transformation for a [`CostHint`] under the caller's symbol
//!    bindings; only `Beneficial`/`Neutral` matches fire. Every application
//!    is validated; a failing application is rolled back from a snapshot
//!    and recorded as skipped rather than aborting the pipeline.
//!
//! The pipeline returns an [`OptimizationReport`] describing exactly what
//! fired where (as [`ApplyReport`] steps), what was skipped and why, and
//! the content hashes before/after — the *after* hash is what re-keys the
//! executor's plan cache for optimized SDFGs.

use crate::chain::{AppliedStep, ApplyReport};
use crate::framework::{by_name, registry, CostHint, Params, Transformation};
use sdfg_core::serialize::content_hash;
use sdfg_core::{Sdfg, SdfgError};
use sdfg_symbolic::Env;
use std::collections::HashSet;
use std::fmt;

/// Round bound for the strict fixpoint (a backstop on top of the
/// content-hash cycle guard).
const MAX_STRICT_ROUNDS: usize = 64;

/// Per-transformation application bound in the heuristic phase.
const MAX_HEURISTIC_APPS: usize = 128;

/// The heuristic phase, in order. Earlier passes enable later ones:
/// collapsing widens maps for fusion, fusion exposes innermost maps for
/// vectorization, and sequentialization decisions come last so they see
/// the final map structure.
const HEURISTIC_ORDER: [&str; 5] = [
    "MapCollapse",
    "MapFusion",
    "MapTiling",
    "Vectorization",
    "MapToForLoop",
];

/// How hard the pipeline tries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OptLevel {
    /// Leave the SDFG untouched.
    #[default]
    None,
    /// Strict fixpoint only (always semantics- and cost-safe).
    Strict,
    /// Strict fixpoint plus the cost-hint-driven heuristic phase.
    Aggressive,
}

impl OptLevel {
    /// Parses a `--opt` command-line value.
    pub fn parse(text: &str) -> Option<OptLevel> {
        match text {
            "none" | "0" => Some(OptLevel::None),
            "strict" | "1" => Some(OptLevel::Strict),
            "aggressive" | "2" => Some(OptLevel::Aggressive),
            _ => None,
        }
    }

    /// Display name.
    pub fn as_str(&self) -> &'static str {
        match self {
            OptLevel::None => "none",
            OptLevel::Strict => "strict",
            OptLevel::Aggressive => "aggressive",
        }
    }
}

/// A candidate the heuristic phase declined, with the reason (cost hint or
/// rolled-back failure) and how many matches it covered.
#[derive(Clone, Debug, PartialEq)]
pub struct SkippedMatch {
    /// Transformation name.
    pub transform: String,
    /// Why it did not fire.
    pub reason: String,
    /// Number of matches sharing this reason.
    pub count: usize,
}

/// What the pipeline did to an SDFG.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OptimizationReport {
    /// Requested level.
    pub level: OptLevel,
    /// Fixpoint rounds the strict phase ran (including the final empty one).
    pub strict_rounds: usize,
    /// Strict applications fired.
    pub strict_applied: usize,
    /// Heuristic applications fired.
    pub heuristic_applied: usize,
    /// States before / after.
    pub states_before: usize,
    /// See `states_before`.
    pub states_after: usize,
    /// Dataflow nodes (summed over states) before / after.
    pub nodes_before: usize,
    /// See `nodes_before`.
    pub nodes_after: usize,
    /// Content hash of the input SDFG.
    pub hash_before: u64,
    /// Content hash of the optimized SDFG — the executor's plan-cache
    /// re-key for optimized runs.
    pub hash_after: u64,
    /// Every fired application, in order (strict phase first).
    pub applied: ApplyReport,
    /// Declined heuristic candidates, aggregated by reason.
    pub skipped: Vec<SkippedMatch>,
}

impl OptimizationReport {
    /// True when the pipeline changed the graph.
    pub fn changed(&self) -> bool {
        self.hash_before != self.hash_after
    }
}

impl fmt::Display for OptimizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "optimization level={} passes_fired={} (strict {}, heuristic {}) \
             states {}->{} nodes {}->{} hash {:016x}->{:016x}",
            self.level.as_str(),
            self.applied.len(),
            self.strict_applied,
            self.heuristic_applied,
            self.states_before,
            self.states_after,
            self.nodes_before,
            self.nodes_after,
            self.hash_before,
            self.hash_after,
        )?;
        if !self.applied.is_empty() {
            writeln!(f, "applied:")?;
            write!(f, "{}", self.applied)?;
        }
        for s in &self.skipped {
            writeln!(f, "skipped: {} x{} ({})", s.transform, s.count, s.reason)?;
        }
        Ok(())
    }
}

fn count_nodes(sdfg: &Sdfg) -> usize {
    sdfg.graph
        .node_ids()
        .map(|sid| sdfg.graph.node(sid).graph.node_count())
        .sum()
}

/// Validates after a rewrite, wrapping failures with the pass name so the
/// offending transformation is identifiable from the error alone.
fn validate_after(sdfg: &Sdfg, pass: &str) -> Result<(), SdfgError> {
    sdfg.validate().map_err(|es| {
        SdfgError::optimization(
            pass,
            format!("validation failed after rewrite: {}", SdfgError::from(es)),
        )
    })
}

fn record_skip(skipped: &mut Vec<SkippedMatch>, transform: &str, reason: String) {
    if let Some(s) = skipped
        .iter_mut()
        .find(|s| s.transform == transform && s.reason == reason)
    {
        s.count += 1;
    } else {
        skipped.push(SkippedMatch {
            transform: transform.to_string(),
            reason,
            count: 1,
        });
    }
}

/// Runs the pipeline with no symbol bindings (cost hints that need concrete
/// sizes return `Unknown` and their transforms stay off).
pub fn optimize(sdfg: &mut Sdfg, level: OptLevel) -> Result<OptimizationReport, SdfgError> {
    optimize_with_env(sdfg, level, &Env::new())
}

/// Observability for one optimization-pass outcome: bumps the global
/// `sdfg_opt_passes_total{outcome=...}` counter.
fn observe_pass(applied: bool) {
    let m = sdfg_profile::metrics::core();
    if applied {
        m.opt_applied.inc();
    } else {
        m.opt_rolled_back.inc();
    }
}

/// Runs the pipeline. `env` carries the symbol bindings the SDFG will be
/// executed under — the heuristic phase uses them to evaluate iteration
/// counts in cost hints (e.g. sequentializing maps too small to amortize a
/// thread-scope spawn).
pub fn optimize_with_env(
    sdfg: &mut Sdfg,
    level: OptLevel,
    env: &Env,
) -> Result<OptimizationReport, SdfgError> {
    let mut report = OptimizationReport {
        level,
        states_before: sdfg.graph.node_count(),
        nodes_before: count_nodes(sdfg),
        hash_before: content_hash(sdfg),
        ..Default::default()
    };
    report.states_after = report.states_before;
    report.nodes_after = report.nodes_before;
    report.hash_after = report.hash_before;
    if level == OptLevel::None {
        return Ok(report);
    }
    // The input must be structurally sound before rewriting starts.
    sdfg.validate().map_err(|es| {
        SdfgError::optimization(
            "input",
            format!("input SDFG invalid: {}", SdfgError::from(es)),
        )
    })?;

    // Phase 1: strict fixpoint with cycle guard.
    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(report.hash_before);
    let strict: Vec<Box<dyn Transformation>> =
        registry().into_iter().filter(|t| t.strict()).collect();
    let no_params = Params::new();
    'rounds: for _ in 0..MAX_STRICT_ROUNDS {
        report.strict_rounds += 1;
        let mut fired = false;
        for t in &strict {
            loop {
                let matches = t.find(sdfg);
                let Some(m) = matches.first() else {
                    break;
                };
                t.apply(sdfg, m, &no_params)?;
                sdfg_core::propagate::propagate_sdfg(sdfg);
                validate_after(sdfg, t.name())?;
                let h = content_hash(sdfg);
                if !seen.insert(h) {
                    return Err(SdfgError::optimization(
                        t.name(),
                        "rewrite cycle detected: graph state repeated during strict fixpoint",
                    ));
                }
                report.applied.push(AppliedStep::from_match(t.name(), m));
                report.strict_applied += 1;
                observe_pass(true);
                fired = true;
            }
        }
        if !fired {
            break 'rounds;
        }
    }

    // Phase 2: cost-hint-driven heuristics.
    if level == OptLevel::Aggressive {
        for name in HEURISTIC_ORDER {
            let t = by_name(name).expect("heuristic order names a registered transformation");
            let mut apps = 0usize;
            'transform: while apps < MAX_HEURISTIC_APPS {
                let matches = t.find(sdfg);
                if matches.is_empty() {
                    break;
                }
                let mut fired_this_pass = false;
                for m in &matches {
                    match t.cost_hint(sdfg, m, env) {
                        CostHint::Beneficial | CostHint::Neutral => {}
                        CostHint::Unprofitable => {
                            record_skip(
                                &mut report.skipped,
                                name,
                                "cost hint: unprofitable".into(),
                            );
                            continue;
                        }
                        CostHint::Unknown => {
                            record_skip(&mut report.skipped, name, "cost hint: unknown".into());
                            continue;
                        }
                    }
                    let snapshot = sdfg.clone();
                    let outcome = t
                        .apply(sdfg, m, &no_params)
                        .map(|()| sdfg_core::propagate::propagate_sdfg(sdfg))
                        .and_then(|()| validate_after(sdfg, name));
                    match outcome {
                        Ok(()) => {
                            let h = content_hash(sdfg);
                            if !seen.insert(h) {
                                // Re-reached a previous graph state: undo and
                                // stop this transform to guarantee progress.
                                *sdfg = snapshot;
                                observe_pass(false);
                                record_skip(
                                    &mut report.skipped,
                                    name,
                                    "cycle guard: rewrite repeated a prior graph state".into(),
                                );
                                break 'transform;
                            }
                            report.applied.push(AppliedStep::from_match(name, m));
                            report.heuristic_applied += 1;
                            observe_pass(true);
                            apps += 1;
                            fired_this_pass = true;
                            // The graph changed; stale matches must be
                            // re-discovered.
                            break;
                        }
                        Err(e) => {
                            *sdfg = snapshot;
                            observe_pass(false);
                            record_skip(&mut report.skipped, name, format!("rolled back: {e}"));
                        }
                    }
                }
                if !fired_this_pass {
                    break;
                }
            }
        }
    }

    report.states_after = sdfg.graph.node_count();
    report.nodes_after = count_nodes(sdfg);
    report.hash_after = content_hash(sdfg);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_core::DType;
    use sdfg_frontend::SdfgBuilder;

    /// Two states through a transient: StateFusion then MapFusion collapse
    /// the whole program into one map.
    fn two_state_chain() -> Sdfg {
        let mut b = SdfgBuilder::new("p");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.transient("T", &["N"], DType::F64);
        b.array("B", &["N"], DType::F64);
        let s1 = b.state("one");
        b.mapped_tasklet(
            s1,
            "t1",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a * 2",
            &[("o", "T", "i")],
        );
        let s2 = b.state("two");
        b.mapped_tasklet(
            s2,
            "t2",
            &[("j", "0:N")],
            &[("t", "T", "j")],
            "o = t + 1",
            &[("o", "B", "j")],
        );
        b.transition(s1, s2);
        b.build().unwrap()
    }

    #[test]
    fn none_level_is_identity() {
        let mut sdfg = two_state_chain();
        let before = content_hash(&sdfg);
        let r = optimize(&mut sdfg, OptLevel::None).unwrap();
        assert_eq!(content_hash(&sdfg), before);
        assert!(!r.changed());
        assert_eq!(r.applied.len(), 0);
    }

    #[test]
    fn strict_fuses_states_and_terminates() {
        let mut sdfg = two_state_chain();
        let r = optimize(&mut sdfg, OptLevel::Strict).unwrap();
        assert_eq!(sdfg.graph.node_count(), 1, "states fused");
        assert!(r.strict_applied >= 1);
        assert!(r.changed());
        assert!(r.strict_rounds <= MAX_STRICT_ROUNDS);
        sdfg.validate().unwrap();
        // Idempotent: a second run is a no-op.
        let r2 = optimize(&mut sdfg, OptLevel::Strict).unwrap();
        assert_eq!(r2.strict_applied, 0);
        assert!(!r2.changed());
    }

    #[test]
    fn aggressive_fuses_maps_and_preserves_semantics() {
        let mut sdfg = two_state_chain();
        let reference = {
            let mut it = sdfg_interp::Interpreter::new(&sdfg);
            it.set_symbol("N", 13);
            it.set_array("A", (0..13).map(|x| x as f64).collect());
            it.set_array("B", vec![0.0; 13]);
            it.run().unwrap();
            it.array("B").to_vec()
        };
        let env = sdfg_symbolic::env(&[("N", 13)]);
        let r = optimize_with_env(&mut sdfg, OptLevel::Aggressive, &env).unwrap();
        assert!(r.heuristic_applied >= 1, "{r}");
        assert!(
            r.applied.steps.iter().any(|s| s.transform == "MapFusion"),
            "{r}"
        );
        // MapTiling considered but declined by its cost hint.
        assert!(
            r.skipped
                .iter()
                .any(|s| s.transform == "MapTiling" && s.reason.contains("unprofitable")),
            "{r}"
        );
        sdfg.validate().unwrap();
        let mut it = sdfg_interp::Interpreter::new(&sdfg);
        it.set_symbol("N", 13);
        it.set_array("A", (0..13).map(|x| x as f64).collect());
        it.set_array("B", vec![0.0; 13]);
        it.run().unwrap();
        assert_eq!(it.array("B"), reference.as_slice());
    }

    #[test]
    fn report_hash_rekeys_only_on_change() {
        let mut sdfg = two_state_chain();
        let r = optimize(&mut sdfg, OptLevel::Strict).unwrap();
        assert_ne!(r.hash_before, r.hash_after);
        assert_eq!(r.hash_after, content_hash(&sdfg));
    }

    #[test]
    fn opt_level_parses() {
        assert_eq!(OptLevel::parse("strict"), Some(OptLevel::Strict));
        assert_eq!(OptLevel::parse("aggressive"), Some(OptLevel::Aggressive));
        assert_eq!(OptLevel::parse("none"), Some(OptLevel::None));
        assert_eq!(OptLevel::parse("2"), Some(OptLevel::Aggressive));
        assert_eq!(OptLevel::parse("tuned"), None);
        assert_eq!(OptLevel::parse("bogus"), None);
    }
}

//! Integration tests for the automatic optimization pipeline across the
//! bundled Polybench kernels: fixpoint termination, semantic equivalence
//! of optimized SDFGs against the reference interpreter, plan-cache
//! re-keying on the optimized graph's content hash, and the exact
//! decisions the pipeline makes on the kernels CI reports.

use sdfg_exec::{OptLevel, PlanCache};
use sdfg_transforms::{optimize_with_env, MapCollapse, SkippedMatch, Transformation};
use sdfg_workloads::workload::assert_allclose;
use sdfg_workloads::{kernels, polybench};
use std::collections::HashMap;

const SCALE: usize = 8;

fn env_of(w: &sdfg_workloads::workload::Workload) -> HashMap<String, i64> {
    w.symbols.iter().cloned().collect()
}

/// The pipeline reaches a fixpoint (does not loop or hit the round guard)
/// on every bundled kernel, leaves the SDFG valid, and a second pipeline
/// run finds no strict work left.
#[test]
fn fixpoint_terminates_on_all_polybench_seeds() {
    for k in polybench::all() {
        let w = (k.build)(SCALE);
        let env = env_of(&w);
        let mut sdfg = w.sdfg.clone();
        let report = optimize_with_env(&mut sdfg, OptLevel::Aggressive, &env)
            .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", k.name));
        sdfg.validate()
            .unwrap_or_else(|e| panic!("{}: invalid after pipeline: {e:?}", k.name));
        assert_eq!(report.states_after, sdfg.graph.node_count(), "{}", k.name);
        let again = optimize_with_env(&mut sdfg, OptLevel::Aggressive, &env)
            .unwrap_or_else(|e| panic!("{}: second pipeline run failed: {e}", k.name));
        assert_eq!(
            again.strict_applied, 0,
            "{}: strict phase not at fixpoint after one pipeline run",
            k.name
        );
    }
}

/// Strict-only optimization also terminates everywhere and never touches
/// heuristics.
#[test]
fn strict_level_terminates_on_all_polybench_seeds() {
    for k in polybench::all() {
        let w = (k.build)(SCALE);
        let mut sdfg = w.sdfg.clone();
        let report = optimize_with_env(&mut sdfg, OptLevel::Strict, &env_of(&w))
            .unwrap_or_else(|e| panic!("{}: strict pipeline failed: {e}", k.name));
        assert_eq!(report.heuristic_applied, 0, "{}", k.name);
        sdfg.validate()
            .unwrap_or_else(|e| panic!("{}: invalid after strict: {e:?}", k.name));
    }
}

/// Acceptance check: the optimized session produces outputs identical
/// to the reference interpreter (run on the untransformed SDFG) for every
/// bundled kernel, at both opt levels.
#[test]
fn optimized_outputs_match_interpreter_on_all_kernels() {
    for k in polybench::all() {
        let w = (k.build)(SCALE);
        let want = w
            .run_interp()
            .unwrap_or_else(|e| panic!("{}: interpreter failed: {e}", k.name));
        for level in [OptLevel::Strict, OptLevel::Aggressive] {
            let session = w.session().opt_level(level).build().unwrap();
            let out = session
                .run(w.bindings())
                .unwrap_or_else(|e| panic!("{}: optimized run failed: {e}", k.name));
            assert_allclose(&w.check, out.arrays(), &want, 1e-9);
        }
    }
}

/// Optimized and unoptimized sessions agree with each other too (same
/// workload, same bindings — only the opt level differs).
#[test]
fn optimized_session_matches_unoptimized_session() {
    for k in polybench::all() {
        let w = (k.build)(SCALE);
        let plain = w.session().build().unwrap();
        let want = plain.run(w.bindings()).unwrap().into_arrays();
        let opt = w.session().opt_level(OptLevel::Aggressive).build().unwrap();
        let got = opt.run(w.bindings()).unwrap().into_arrays();
        assert_allclose(&w.check, &got, &want, 1e-12);
    }
}

/// Optimizing re-keys the plan cache: a shared cache that is warm for the
/// unoptimized graph misses once for the optimized graph (different
/// content hash), then hits on repeat runs.
#[test]
fn plan_cache_misses_and_rekeys_after_optimization() {
    let kernel = polybench::all()
        .into_iter()
        .find(|k| k.name == "atax")
        .expect("atax is bundled");
    let w = (kernel.build)(SCALE);
    let cache = std::sync::Arc::new(PlanCache::new());

    let plain = w.session().plan_cache(cache.clone()).build().unwrap();
    let unopt_hash = plain.content_hash();
    plain.run(w.bindings()).unwrap();
    plain.run(w.bindings()).unwrap();
    let warm = cache.stats();
    assert!(warm.hits >= 1, "second unoptimized run should hit");

    let opt = w
        .session()
        .plan_cache(cache.clone())
        .opt_level(OptLevel::Aggressive)
        .build()
        .unwrap();
    opt.run(w.bindings()).unwrap();
    let rekeyed = cache.stats();
    let report = opt.opt_report().expect("pipeline ran");
    let opt_hash = report.hash_after;
    assert!(report.changed(), "pipeline should rewrite atax");
    assert_ne!(
        unopt_hash, opt_hash,
        "optimized graph must hash differently"
    );
    assert_eq!(report.hash_before, unopt_hash);
    assert_eq!(
        rekeyed.misses,
        warm.misses + 1,
        "optimized graph must miss the warm cache exactly once"
    );

    opt.run(w.bindings()).unwrap();
    let rewarmed = cache.stats();
    assert!(rewarmed.hits > rekeyed.hits, "optimized plan is cached too");
    assert_eq!(rewarmed.misses, rekeyed.misses);

    // The session's public handle stays the *submitted* graph's hash no
    // matter what level it compiles at — that is the registry key.
    assert_eq!(opt.content_hash(), unopt_hash);
}

/// The pipeline's decisions on atax and bicg at scale 24, pinned exactly:
/// the two states fuse, both maps vectorize, MapToForLoop's volume hint
/// sequentializes both (too small to amortize a parallel launch), and
/// MapTiling's cost hint declines twice. A change to any cost hint shows
/// up here as a diff, not as a wall-clock drift.
#[test]
fn aggressive_report_on_atax_and_bicg_is_exact() {
    for name in ["atax", "bicg"] {
        let kernel = polybench::all()
            .into_iter()
            .find(|k| k.name == name)
            .expect("kernel is bundled");
        let w = (kernel.build)(24);
        let mut sdfg = w.sdfg.clone();
        let report = optimize_with_env(&mut sdfg, OptLevel::Aggressive, &env_of(&w)).unwrap();
        let applied: Vec<&str> = report
            .applied
            .steps
            .iter()
            .map(|s| s.transform.as_str())
            .collect();
        assert_eq!(
            applied,
            [
                "StateFusion",
                "Vectorization",
                "Vectorization",
                "MapToForLoop",
                "MapToForLoop"
            ],
            "{name}: {report}"
        );
        assert_eq!(
            (report.states_before, report.states_after),
            (2, 1),
            "{name}"
        );
        assert_eq!(
            report.skipped,
            [SkippedMatch {
                transform: "MapTiling".into(),
                reason: "cost hint: unprofitable".into(),
                count: 2,
            }],
            "{name}: {report}"
        );
    }
}

/// `MapCollapse` matches only a map whose body is exactly the inner map.
/// Histogram's tile map writes its local histogram back between the two
/// exits, so it finds no match there, and the pipeline has no rollback
/// to report.
#[test]
fn map_collapse_declines_a_body_between_the_exits() {
    let w = kernels::histogram(24);
    assert!(MapCollapse.find(&w.sdfg).is_empty());
    let mut sdfg = w.sdfg.clone();
    let report = optimize_with_env(&mut sdfg, OptLevel::Aggressive, &env_of(&w)).unwrap();
    let text = report.to_string();
    assert!(!text.contains("rolled back"), "{text}");
}

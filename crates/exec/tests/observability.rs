//! Observability integration tests: the run ledger appends one record
//! per executor run, every per-run counter means the same thing in
//! `Stats`, the ledger and the metrics registry (also when concurrent
//! runs share a scheduler, plan cache and buffer pool), counters stay
//! reachable with profiling off, and annotated instrumentation keeps its
//! overhead below 2% of the warm median on a real Polybench kernel.
//!
//! The ledger sink and the metrics registry are process-global, so every
//! test here serializes on one lock (other test binaries are separate
//! processes and cannot interleave records).

use sdfg_core::serialize::{parse_json, Json};
use sdfg_core::{Instrument, Sdfg};
use sdfg_exec::{Bindings, Profiling, Session, Stats};
use sdfg_profile::counters::{Family, RUN_COUNTERS};
use sdfg_profile::{ledger, metrics};
use sdfg_workloads::polybench;
use sdfg_workloads::workload::Workload;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Instant;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn build_kernel(name: &str, scale: usize) -> Workload {
    let k = polybench::all()
        .into_iter()
        .find(|k| k.name == name)
        .expect("known kernel");
    (k.build)(scale)
}

/// Sets `Instrument::Timer` on every state — the representative
/// annotated-mode usage (coarse user-marked regions; per-map-iteration
/// timers are a deliberate opt-in with proportional cost).
fn annotate_state_timers(sdfg: &mut Sdfg) {
    let sids: Vec<_> = sdfg.graph.node_ids().collect();
    for sid in sids {
        sdfg.state_mut(sid).instrument = Instrument::Timer;
    }
}

/// Best-of-`reps` warm time in milliseconds on an already-warm session;
/// each run's outputs are the next run's bindings.
fn best_warm_ms(session: &Session, bindings: &mut Option<Bindings>, reps: usize) -> f64 {
    (0..reps)
        .map(|_| {
            let b = bindings.take().expect("bindings");
            let t0 = Instant::now();
            let out = session.run(b).expect("warm run");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            *bindings = Some(out.into_bindings());
            ms
        })
        .fold(f64::INFINITY, f64::min)
}

/// Points the ledger at a fresh file under the temp dir.
fn fresh_ledger(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdfg-ledger-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ledger.jsonl");
    let _ = std::fs::remove_file(&path);
    ledger::set_path(Some(&path));
    path
}

/// Disables the ledger and returns its run-record lines (JIT fallback
/// lines skipped).
fn run_lines(path: &PathBuf) -> Vec<String> {
    ledger::set_path(None);
    let src = std::fs::read_to_string(path).expect("ledger written");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
    src.lines()
        .filter(|l| !l.trim().is_empty() && !l.contains("\"record\":\"jit_fallback\""))
        .map(str::to_string)
        .collect()
}

fn parse(line: &str) -> Json {
    parse_json(line).expect("record parses")
}

/// The current value of a table family's series for `family`.
fn series(family: &Family) -> u64 {
    metrics::global()
        .counter_value(family.name, family.labels)
        .unwrap_or(0)
}

/// The current value of every row's series (0 for rows without one).
fn row_series() -> Vec<u64> {
    RUN_COUNTERS
        .iter()
        .map(|r| r.family.as_ref().map_or(0, series))
        .collect()
}

/// A record's value of every table row.
fn record_counters(rec: &Json) -> Vec<u64> {
    RUN_COUNTERS
        .iter()
        .map(|r| rec.num_field(r.name).expect(r.name) as u64)
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
fn off_mode_exposes_exec_counters_without_a_report() {
    let _g = serial();
    let w = build_kernel("atax", 16);
    let session = w.session().build().expect("session");
    session.run(w.bindings()).expect("first run");
    let out = session.run(w.bindings()).expect("second run");
    // Profiling is off by default: no report may exist...
    assert!(out.report().is_none());
    // ...but the cheap counters are still live and the footer renders.
    let c = session.cache_stats();
    assert_eq!(c.misses, 1, "first run compiles the plan");
    assert_eq!(c.hits, 1, "second run hits the cache");
    let footer = session.counters_footer();
    assert!(footer.contains("plan cache 1 hit / 1 miss"), "{footer}");
}

#[test]
fn every_run_appends_one_well_formed_ledger_record() {
    let _g = serial();
    let dir = std::env::temp_dir().join(format!("sdfg-ledger-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ledger.jsonl");
    let _ = std::fs::remove_file(&path);
    sdfg_profile::ledger::set_path(Some(&path));
    let w = build_kernel("gemm", 12);
    let session = w.session().build().expect("session");
    for _ in 0..3 {
        session.run(w.bindings()).expect("run");
    }
    sdfg_profile::ledger::set_path(None);
    let src = std::fs::read_to_string(&path).expect("ledger written");
    // JIT fallback records (a kernel still compiling, say) share the file.
    let lines: Vec<&str> = src
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.contains("\"record\":\"jit_fallback\""))
        .collect();
    assert_eq!(lines.len(), 3, "one record per run:\n{src}");
    for line in &lines {
        let rec = sdfg_core::serialize::parse_json(line).expect("record parses");
        assert_eq!(rec.str_field("target").unwrap(), "cpu");
        assert_eq!(rec.str_field("content_hash").unwrap().len(), 16);
        assert!(rec.num_field("wall_ms").unwrap() >= 0.0);
        assert!(rec.num_field("states_executed").unwrap() >= 1.0);
    }
    // Warm runs (2nd, 3rd) hit the plan cache; the cold one misses.
    let first = sdfg_core::serialize::parse_json(lines[0]).unwrap();
    let last = sdfg_core::serialize::parse_json(lines[2]).unwrap();
    assert_eq!(first.num_field("plan_cache_misses").unwrap(), 1.0);
    assert_eq!(last.num_field("plan_cache_hits").unwrap(), 1.0);
    assert_eq!(last.num_field("plan_cache_misses").unwrap(), 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Annotated timers on every scope of a Polybench kernel must cost less
/// than 2% of the warm median. Timing comparisons flake under load, so
/// the bound is checked on interleaved best-of batches (alternating
/// baseline/annotated cancels drift) and the test retries a few times,
/// failing only when every attempt shows >2% overhead.
#[test]
fn annotated_profiling_overhead_stays_under_two_percent() {
    let _g = serial();
    let base_w = build_kernel("gemm", 32);
    let mut annotated_w = build_kernel("gemm", 32);
    annotate_state_timers(&mut annotated_w.sdfg);

    // Pin both runs to the interpreted tiers: the JIT shrinks gemm's warm
    // time several-fold, which turns this 2% relative bound into a
    // few-microsecond absolute one — pure scheduler noise under parallel
    // test load. Instrumentation overhead is tier-independent.
    let base_s = base_w.session().jit(false).build().expect("session");
    let ann_s = annotated_w
        .session()
        .jit(false)
        .profiling(Profiling::Annotated)
        .build()
        .expect("session");
    let mut base_b = Some(base_w.bindings());
    let mut ann_b = Some(annotated_w.bindings());
    best_warm_ms(&base_s, &mut base_b, 3);
    best_warm_ms(&ann_s, &mut ann_b, 3);

    let mut last = (0.0, 0.0);
    for _attempt in 0..5 {
        let (mut base, mut ann) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            base.push(best_warm_ms(&base_s, &mut base_b, 8));
            ann.push(best_warm_ms(&ann_s, &mut ann_b, 8));
        }
        let (b, a) = (median(base), median(ann));
        if a <= b * 1.02 {
            return;
        }
        last = (b, a);
    }
    panic!(
        "annotated overhead above 2% in every attempt: baseline {:.4} ms, annotated {:.4} ms \
         ({:+.2}%)",
        last.0,
        last.1,
        (last.1 / last.0 - 1.0) * 100.0
    );
}

/// Two sessions share one scheduler, plan cache and buffer pool, as every
/// `sdfg-serve` tenant does, and run concurrently. Each run's counters
/// must hold its own events only: summed over the ledger they equal what
/// the shared objects and the metrics registry counted, and each record
/// equals its run's `Stats`.
#[test]
fn concurrent_runs_on_shared_objects_count_only_their_own_events() {
    const RUNS: usize = 12;
    let _g = serial();
    let w = build_kernel("gemm", 96);
    let sched = sdfg_exec::shared_scheduler(2).expect("two-worker pool");
    let cache = Arc::new(sdfg_exec::PlanCache::new());
    let pool = Arc::new(sdfg_exec::BufferPool::new());
    let sessions: Vec<Session> = (0..2)
        .map(|_| {
            w.session()
                .nthreads(2)
                .scheduler(sched.clone())
                .plan_cache(cache.clone())
                .buffer_pool(pool.clone())
                .build()
                .expect("session")
        })
        .collect();
    let path = fresh_ledger("concurrent");
    let (sched0, cache0, pool0) = (sched.stats(), cache.stats(), pool.stats());
    let metrics0 = row_series();
    // Both runners start each run together, so their runs overlap.
    let start = Barrier::new(2);
    let stats: HashMap<String, Stats> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .enumerate()
            .map(|(t, session)| {
                let (w, start) = (&w, &start);
                scope.spawn(move || {
                    (0..RUNS)
                        .map(|i| {
                            start.wait();
                            let id = format!("{t}-{i}");
                            let _tag = ledger::request_scope("obs-test", &id);
                            let out = session.run(w.bindings()).expect("run");
                            (id, out.stats().clone())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("runner thread"))
            .collect()
    });
    let records: Vec<Json> = run_lines(&path).iter().map(|l| parse(l)).collect();
    assert_eq!(records.len(), 2 * RUNS, "one record per run");
    for rec in &records {
        let id = rec.str_field("request_id").expect("tagged record");
        assert_eq!(
            record_counters(rec),
            stats[id].counters(),
            "record {id} differs from its run's Stats"
        );
    }
    let sum = |name: &str| -> u64 {
        records
            .iter()
            .map(|r| r.num_field(name).unwrap() as u64)
            .sum()
    };
    let (sched1, cache1, pool1) = (sched.stats(), cache.stats(), pool.stats());
    let ran_tiles = sched1.total_tiles() - sched0.total_tiles();
    assert!(ran_tiles > 0, "gemm@96 runs parallel launches");
    assert_eq!(sum("sched_tiles"), ran_tiles, "tiles the pool ran");
    assert_eq!(
        sum("sched_steals"),
        sched1.total_steals() - sched0.total_steals()
    );
    assert_eq!(
        sum("plan_cache_hits") + sum("plan_cache_misses"),
        cache1.hits + cache1.misses - cache0.hits - cache0.misses
    );
    assert_eq!(sum("pool_acquires"), pool1.acquires - pool0.acquires);
    assert_eq!(sum("pool_reuses"), pool1.reuses - pool0.reuses);
    let metrics1 = row_series();
    for (i, row) in RUN_COUNTERS.iter().enumerate() {
        if row.family.is_some() {
            assert_eq!(
                sum(row.name),
                metrics1[i] - metrics0[i],
                "metric delta of `{}`",
                row.name
            );
        }
    }
}

/// Every row of the counter table, on one real run: its `Stats` value is
/// its ledger value and its metric delta, and its family is in the
/// exposition and in `obs-check`'s schema.
#[test]
fn every_counter_row_means_one_thing_everywhere() {
    let _g = serial();
    let w = build_kernel("gemm", 64);
    let session = w.session().nthreads(2).build().expect("session");
    session.run(w.bindings()).expect("cold run");
    sdfg_exec::jit::wait_idle();
    let path = fresh_ledger("rows");
    let before = row_series();
    let stats = session.run(w.bindings()).expect("run").stats().clone();
    let after = row_series();
    let lines = run_lines(&path);
    assert_eq!(lines.len(), 1);
    let recorded = record_counters(&parse(&lines[0]));
    let exposition = metrics::global().render_prometheus();
    assert!(sdfg_bench::obs::check_metrics(&exposition).is_empty());
    let (failures, n) = sdfg_bench::obs::check_ledger(&lines[0]);
    assert!(failures.is_empty() && n == 1, "{failures:?}");
    let schema = sdfg_bench::obs::ledger_num_fields();
    let families = sdfg_bench::obs::required_families();
    for (i, row) in RUN_COUNTERS.iter().enumerate() {
        let value = stats.counters()[i];
        assert_eq!(recorded[i], value, "ledger `{}`", row.name);
        assert!(
            schema.contains(&row.name),
            "obs-check misses `{}`",
            row.name
        );
        let Some(family) = row.family else { continue };
        assert_eq!(after[i] - before[i], value, "metric of `{}`", row.name);
        assert!(
            exposition.contains(&format!("# TYPE {} counter", family.name)),
            "{} not exposed",
            family.name
        );
        assert!(
            families.contains(&family.name),
            "obs-check misses {}",
            family.name
        );
    }
    assert!(stats.sched_tiles > 0 && stats.plan_cache_hits == 1);
}

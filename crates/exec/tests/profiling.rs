//! Instrumentation-layer integration tests: parallel-merge determinism,
//! the counter-only (clock-free) path, forced-timer reports on both
//! engines, and the zero-overhead disabled path.

use sdfg_core::serialize::content_hash;
use sdfg_core::{DType, Instrument, Node, Sdfg};
use sdfg_exec::{Bindings, Outputs, Profiling, Session};
use sdfg_frontend::SdfgBuilder;
use sdfg_interp::Interpreter;

/// `T` loop iterations around one parallel map over `N` elements.
fn looped_kernel() -> Sdfg {
    let mut b = SdfgBuilder::new("looped");
    b.symbol("N");
    b.symbol("T");
    b.array("A", &["N"], DType::F64);
    let body = b.state("body");
    b.mapped_tasklet(
        body,
        "scale",
        &[("i", "0:N")],
        &[("a", "A", "i")],
        "o = a * 2",
        &[("o", "A", "i")],
    );
    b.add_loop(body, "t", "0", "t < T", "1");
    b.build().expect("valid SDFG")
}

/// Sets the given instrumentation on every state and map entry.
fn annotate(sdfg: &mut Sdfg, ins: Instrument) {
    let sids: Vec<_> = sdfg.graph.node_ids().collect();
    for sid in sids {
        let state = sdfg.state_mut(sid);
        state.instrument = ins;
        let nids: Vec<_> = state.graph.node_ids().collect();
        for nid in nids {
            if let Node::MapEntry(m) = state.graph.node_mut(nid) {
                m.instrument = ins;
            }
        }
    }
}

/// A run of the interpreted drive: with the JIT on, `looped_kernel`'s
/// loop collapses into one native call, which records one loop span
/// instead of its states and map launches (see
/// `a_collapsed_loop_records_one_span`).
fn run(sdfg: &Sdfg, profiling: Profiling, nthreads: usize) -> Outputs {
    let session = Session::builder(sdfg.clone())
        .profiling(profiling)
        .jit(false)
        .nthreads(nthreads)
        .build()
        .expect("valid SDFG");
    let inputs = Bindings::new()
        .symbol("N", 64)
        .symbol("T", 5)
        .array_vec("A", vec![1.0; 64]);
    session.run(inputs).expect("exec runs")
}

#[test]
fn state_visits_from_parallel_regions_are_deterministic_sorted_summed() {
    let sdfg = looped_kernel();
    let a = run(&sdfg, Profiling::Off, 4);
    let b = run(&sdfg, Profiling::Off, 4);
    // Sorted by state id.
    let keys: Vec<u32> = a.stats().state_visits.iter().map(|(k, _)| *k).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(keys, sorted, "state_visits sorted and unique");
    // Visit counts sum to the total number of state executions.
    let total: u64 = a.stats().state_visits.iter().map(|(_, n)| *n).sum();
    assert_eq!(total, a.stats().states_executed);
    // body ×5, init ×1, guard ×6, exit ×1.
    assert_eq!(a.stats().states_executed, 13);
    // Deterministic across runs (merge order of worker flushes varies).
    assert_eq!(a.stats().state_visits, b.stats().state_visits);
    assert_eq!(a.stats().tasklet_points, 5 * 64);
}

#[test]
fn force_timers_produces_full_report() {
    let sdfg = looped_kernel();
    let ex = run(&sdfg, Profiling::ForceTimers, 4);
    let report = ex.report().expect("report present");
    // Every executed state has a timed stat; the map was launched 5 times.
    let state_count: u64 = report.states.values().map(|s| s.count).sum();
    assert_eq!(state_count, ex.stats().states_executed);
    let map = report.maps.values().next().expect("map stat");
    assert_eq!(report.maps.len(), 1);
    assert_eq!(map.count, 5);
    assert!(map.total_ns > 0, "timed map has wall time");
    assert!(map.min_ns <= map.max_ns);
    // Tier breakdown accounts for every tasklet point.
    let tier_points: u64 = report
        .tiers
        .values()
        .map(|t| t.points.iter().sum::<u64>())
        .sum();
    assert_eq!(tier_points, ex.stats().tasklet_points);
    // Timeline spans exist and the renderers run.
    assert!(!report.timeline.is_empty());
    let table = report.hot_path_table();
    assert!(table.contains("scale") || table.contains("map"), "{table}");
    let trace = report.chrome_trace();
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(report.map_coverage() > 0.0);
}

/// The tier breakdown accounts for every point when the map's kernel runs
/// the tiles of a parallel launch too: the launching worker records them,
/// as it does a serial call's.
#[test]
fn kernel_tiles_count_in_the_tier_breakdown() {
    let n = 1 << 16;
    let session = Session::builder(looped_kernel())
        .profiling(Profiling::ForceTimers)
        .jit(true)
        .nthreads(2)
        .build()
        .expect("valid SDFG");
    let inputs = || {
        Bindings::new()
            .symbol("N", n)
            .symbol("T", 16)
            .array_vec("A", vec![1.0; n as usize])
    };
    session.run(inputs()).expect("exec runs");
    sdfg_exec::jit::wait_idle();
    for _ in 0..4 {
        let ex = session.run(inputs()).expect("exec runs");
        let report = ex.report().expect("report present");
        let tier_points: u64 = report
            .tiers
            .values()
            .map(|t| t.points.iter().sum::<u64>())
            .sum();
        assert_eq!(tier_points, ex.stats().tasklet_points);
        assert_eq!(ex.stats().tasklet_points, 16 * n as u64);
    }
}

#[test]
fn report_counts_are_deterministic_across_runs() {
    let sdfg = looped_kernel();
    let a = run(&sdfg, Profiling::ForceTimers, 4);
    let b = run(&sdfg, Profiling::ForceTimers, 4);
    let ra = a.report().unwrap();
    let rb = b.report().unwrap();
    let counts = |r: &sdfg_exec::InstrumentationReport| {
        (
            r.states
                .iter()
                .map(|(k, s)| (*k, s.count))
                .collect::<Vec<_>>(),
            r.maps
                .iter()
                .map(|(k, s)| (*k, s.count))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(counts(ra), counts(rb));
}

/// A collapsed loop's call is one `loop <var> [jit]` scope with its points
/// and native calls, in the hot-path table and the trace. Under a counter
/// annotation it is counted without a clock read; unprofiled, it records
/// nothing.
#[test]
fn a_collapsed_loop_records_one_span() {
    if !sdfg_exec::jit::env_enabled() || sdfg_exec::jit::cc().is_none() {
        return;
    }
    let steady = |sdfg: Sdfg, profiling: Profiling| {
        let session = Session::builder(sdfg)
            .profiling(profiling)
            .jit(true)
            .nthreads(1)
            .build()
            .expect("valid SDFG");
        let inputs = || {
            Bindings::new()
                .symbol("N", 64)
                .symbol("T", 5)
                .array_vec("A", vec![1.0; 64])
        };
        session.run(inputs()).expect("exec runs");
        sdfg_exec::jit::wait_idle();
        session.run(inputs()).expect("exec runs")
    };
    let ex = steady(looped_kernel(), Profiling::ForceTimers);
    assert_eq!(ex.stats().nest_calls, 1, "the loop collapses");
    let report = ex.report().expect("report present");
    let (&guard, l) = report.loops.iter().next().expect("loop stat");
    assert_eq!(report.loops.len(), 1);
    assert_eq!((l.scope.count, l.points, l.calls), (1, 5 * 64, 1));
    assert!(l.scope.total_ns > 0, "timed loop has wall time");
    assert!(report.maps.is_empty(), "no map launched");
    let table = report.hot_path_table();
    assert!(table.contains("loop t [jit]"), "{table}");
    assert!(table.contains("    jit: 320 pts in 1 calls\n"), "{table}");
    let key = sdfg_profile::SpanKey::Loop(guard);
    assert_eq!(report.timeline.iter().filter(|s| s.key == key).count(), 1);
    assert!(report
        .chrome_trace()
        .contains("\"name\":\"t [jit]\",\"cat\":\"loop\""));

    let mut counted = looped_kernel();
    annotate(&mut counted, Instrument::Counter);
    let ex = steady(counted, Profiling::Annotated);
    let report = ex.report().expect("report present");
    let l = report.loops.values().next().expect("loop stat");
    assert_eq!((l.scope.count, l.scope.total_ns, l.points), (1, 0, 5 * 64));
    assert!(report.timeline.is_empty(), "counter mode records no spans");
    assert!(steady(looped_kernel(), Profiling::Off).report().is_none());
}

#[test]
fn counter_mode_counts_without_reading_the_clock() {
    // Mid-size kernel so a stray per-point timer call would be obvious in
    // the report (65536 points); `Counter` must record entry counts only.
    let mut b = SdfgBuilder::new("mid");
    b.symbol("N");
    b.array("A", &["N*N"], DType::F64);
    let st = b.state("main");
    b.mapped_tasklet(
        st,
        "sq",
        &[("i", "0:N"), ("j", "0:N")],
        &[("a", "A", "i*N + j")],
        "o = a * a",
        &[("o", "A", "i*N + j")],
    );
    let mut sdfg = b.build().expect("valid SDFG");
    annotate(&mut sdfg, Instrument::Counter);
    let session = Session::builder(sdfg)
        .profiling(Profiling::Annotated)
        .build()
        .expect("valid SDFG");
    let inputs = Bindings::new()
        .symbol("N", 256)
        .array_vec("A", vec![1.5; 256 * 256]);
    let ex = session.run(inputs).expect("exec runs");
    let report = ex.report().expect("report present");
    // Counts recorded…
    assert_eq!(report.states.values().map(|s| s.count).sum::<u64>(), 1);
    assert_eq!(report.maps.values().map(|s| s.count).sum::<u64>(), 1);
    // …but the clock-dependent channels are untouched: no spans, no tier
    // timings, zero recorded nanoseconds anywhere.
    assert!(report.timeline.is_empty(), "counter mode records no spans");
    assert!(report.tiers.is_empty(), "counter mode records no tiers");
    for s in report.states.values().chain(report.maps.values()) {
        assert_eq!(s.total_ns, 0);
        assert_eq!(s.max_ns, 0);
    }
}

#[test]
fn disabled_profiling_reports_nothing_and_annotations_are_inert() {
    let mut sdfg = looped_kernel();
    annotate(&mut sdfg, Instrument::Timer);
    let unannotated = looped_kernel();
    let plain = run(&unannotated, Profiling::Off, 2);
    let annotated = run(&sdfg, Profiling::Off, 2);
    assert!(annotated.report().is_none(), "off = no report");
    // Annotations change nothing about execution when profiling is off.
    assert_eq!(
        plain.stats().tasklet_points,
        annotated.stats().tasklet_points
    );
    assert_eq!(plain.stats().map_launches, annotated.stats().map_launches);
    assert_eq!(plain.array("A").unwrap(), annotated.array("A").unwrap());
}

#[test]
fn annotated_mode_honors_per_scope_selection() {
    // Timer on the map only: the report sees the map, not the states.
    let mut sdfg = looped_kernel();
    let sids: Vec<_> = sdfg.graph.node_ids().collect();
    for sid in sids {
        let state = sdfg.state_mut(sid);
        let nids: Vec<_> = state.graph.node_ids().collect();
        for nid in nids {
            if let Node::MapEntry(m) = state.graph.node_mut(nid) {
                m.instrument = Instrument::Timer;
            }
        }
    }
    let ex = run(&sdfg, Profiling::Annotated, 2);
    let report = ex.report().unwrap();
    assert!(report.states.is_empty());
    assert_eq!(report.maps.values().map(|s| s.count).sum::<u64>(), 5);
}

#[test]
fn interpreter_profiles_as_worker_zero() {
    let sdfg = looped_kernel();
    let mut it = Interpreter::new(&sdfg);
    it.profiling = Profiling::ForceTimers;
    it.set_symbol("N", 64).set_symbol("T", 5);
    it.set_array("A", vec![1.0; 64]);
    it.run().expect("interp runs");
    let report = it.last_report.as_ref().expect("report present");
    assert_eq!(report.workers, 1);
    assert_eq!(report.states.values().map(|s| s.count).sum::<u64>(), 13);
    assert_eq!(report.maps.values().map(|s| s.count).sum::<u64>(), 5);
    assert!(report.timeline.iter().all(|s| s.worker == 0));
    assert!(report.map_total().as_nanos() > 0);
    // Session and interpreter agree on the data as well as the shape of
    // the report.
    let ex = run(&sdfg, Profiling::ForceTimers, 2);
    let ex_report = ex.report().unwrap();
    assert_eq!(
        ex_report.maps.keys().collect::<Vec<_>>(),
        report.maps.keys().collect::<Vec<_>>()
    );
    assert_eq!(it.array("A"), ex.array("A").unwrap());
}

/// An outer map over the rows of `A` (2×4) invoking a nested SDFG that
/// doubles its 4-vector with a map labelled `inner_double`.
fn nested_kernel() -> Sdfg {
    use sdfg_core::{MapScope, Memlet};
    use sdfg_symbolic::SymRange;
    let mut inner_b = SdfgBuilder::new("double4");
    inner_b.array("X", &["4"], DType::F64);
    let ist = inner_b.state("s");
    inner_b.mapped_tasklet(
        ist,
        "inner_double",
        &[("i", "0:4")],
        &[("x", "X", "i")],
        "o = x * 2",
        &[("o", "X", "i")],
    );
    let inner = inner_b.build().unwrap();
    let mut sdfg = Sdfg::new("outer");
    sdfg.add_array("A", &["2", "4"], DType::F64);
    let sid = sdfg.add_state("main");
    let st = sdfg.state_mut(sid);
    let a_r = st.add_access("A");
    let a_w = st.add_access("A");
    let (me, mx) = st.add_map(MapScope::new(
        "rows",
        vec!["r".into()],
        vec![SymRange::new(0, 2)],
    ));
    let nested = st.add_node(Node::NestedSdfg {
        sdfg: Box::new(inner),
        symbol_mapping: Default::default(),
        inputs: vec!["X".into()],
        outputs: vec!["X".into()],
    });
    st.add_edge(a_r, None, me, Some("IN_A"), Memlet::parse("A", "0:2, 0:4"));
    st.add_edge(
        me,
        Some("OUT_A"),
        nested,
        Some("X"),
        Memlet::parse("A", "r, 0:4"),
    );
    st.add_edge(
        nested,
        Some("X"),
        mx,
        Some("IN_A"),
        Memlet::parse("A", "r, 0:4"),
    );
    st.add_edge(mx, Some("OUT_A"), a_w, None, Memlet::parse("A", "0:2, 0:4"));
    sdfg.validate().expect("valid");
    sdfg
}

#[test]
fn nested_sdfg_runs_appear_in_the_trace_under_their_own_pid() {
    let sdfg = nested_kernel();
    let session = Session::builder(sdfg)
        .profiling(Profiling::ForceTimers)
        .build()
        .expect("valid SDFG");
    let ex = session
        .run(Bindings::new().array_vec("A", (0..8).map(f64::from).collect()))
        .expect("exec runs");
    let expect: Vec<f64> = (0..8).map(|x| 2.0 * f64::from(x)).collect();
    assert_eq!(ex.array("A").unwrap(), expect.as_slice());
    let trace = ex.report().expect("report").chrome_trace();
    // The inner map's spans are in the trace, and each of the two nested
    // runs (one per row) names a process of its own beside the outer one.
    assert!(trace.contains("\"name\":\"inner_double"), "{trace}");
    let processes = trace.matches("\"name\":\"process_name\"").count();
    assert_eq!(processes, 3, "{trace}");
}

/// A nested SDFG call is part of the enclosing run, not a run of its own:
/// one invoke of the two-row program appends one ledger record and counts
/// the nested calls' 8 points.
#[test]
fn nested_sdfg_calls_count_in_the_enclosing_run() {
    // Renamed, so the trace test's run of the same program has another
    // content hash.
    let mut sdfg = nested_kernel();
    sdfg.name = "outer_ledgered".into();
    let sid = sdfg.graph.node_ids().next().unwrap();
    let st = sdfg.state(sid);
    let inner = st
        .graph
        .node_ids()
        .find_map(|n| match st.graph.node(n) {
            Node::NestedSdfg { sdfg, .. } => Some(sdfg),
            _ => None,
        })
        .expect("nested SDFG node");
    let hashes = [content_hash(&sdfg), content_hash(inner)].map(|h| format!("{h:016x}"));
    let dir = std::env::temp_dir().join(format!("sdfg-nested-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ledger.jsonl");
    let _ = std::fs::remove_file(&path);
    let session = Session::builder(sdfg.clone()).build().expect("valid SDFG");
    sdfg_profile::ledger::set_path(Some(&path));
    let out = session.run(Bindings::new().array_vec("A", (0..8).map(f64::from).collect()));
    sdfg_profile::ledger::set_path(None);
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    let out = out.expect("exec runs");
    // Other tests of this binary run beside this one: count this
    // program's records (outer or inner graph) only. No other test runs
    // the renamed outer graph; a nested call appending records of its own
    // would show up under the inner graph's hash.
    let records = text
        .lines()
        .filter(|l| !l.contains("\"record\":\"jit_fallback\""))
        .filter(|l| hashes.iter().any(|h| l.contains(h.as_str())))
        .count();
    assert_eq!(records, 1, "one record per invoke:\n{text}");
    assert_eq!(out.stats().tasklet_points, 8);
}

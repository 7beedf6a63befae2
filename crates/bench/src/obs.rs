//! Observability plumbing for the harness: the `--metrics-out` and
//! `--ledger` flags, and the `obs-check` validation mode CI's smoke job
//! runs against the artifacts they produce.
//!
//! The flags arm the process-global sinks in `sdfg-profile` before the
//! selected harness mode runs and drain them afterwards:
//!
//! * `--metrics-out FILE` writes the Prometheus text exposition of the
//!   global [`sdfg_profile::metrics`] registry;
//! * `--ledger FILE` points the run ledger at FILE (one JSONL record per
//!   executor run, same as setting `SDFG_RUN_LOG`).
//!
//! Traces come from the per-run instrumentation report: `--profile`
//! writes `trace-<kernel>.json` via
//! [`sdfg_profile::InstrumentationReport::chrome_trace`].
//!
//! `harness obs-check metrics.prom ledger.jsonl [trace.json]` then
//! re-parses the artifacts with the in-tree JSON reader and the
//! exposition validator, failing loudly on malformed output, missing
//! required metric families or a trace without complete spans.

use sdfg_core::serialize::parse_json;
use sdfg_profile::metrics;
use sdfg_profile::{counters, ledger};
use std::path::Path;

/// Metric families `obs-check` requires in an exposition produced by a
/// bench run: these, plus every family of the per-run counter table.
const REQUIRED_FIXED_FAMILIES: [&str; 5] = [
    "sdfg_launches_total",
    "sdfg_launch_duration_ms",
    "sdfg_jit_compiles_total",
    "sdfg_jit_cache_hits_total",
    "sdfg_jit_fallbacks_total",
];

/// Every metric family `obs-check` requires.
pub fn required_families() -> Vec<&'static str> {
    let mut out = REQUIRED_FIXED_FAMILIES.to_vec();
    out.extend(counters::families());
    out
}

/// Numeric fields every run-record line must carry: these, plus one per
/// row of the per-run counter table.
const LEDGER_FIXED_NUM_FIELDS: [&str; 4] = ["seq", "nthreads", "wall_ms", "bytes_moved"];

/// Every numeric field `obs-check` requires of a run record.
pub fn ledger_num_fields() -> Vec<&'static str> {
    let mut out = LEDGER_FIXED_NUM_FIELDS.to_vec();
    out.extend(counters::RUN_COUNTERS.iter().map(|r| r.name));
    out
}

const LEDGER_STR_FIELDS: [&str; 3] = ["content_hash", "target", "opt_level"];

/// Fields a `"record":"jit_fallback"` ledger line must carry (appended by
/// the executor when the JIT tier declines or fails to compile a map).
const JIT_FALLBACK_NUM_FIELDS: [&str; 1] = ["seq"];
const JIT_FALLBACK_STR_FIELDS: [&str; 4] = ["content_hash", "map", "reason", "detail"];

/// Observability outputs requested on the harness command line.
#[derive(Default)]
pub struct ObsConfig {
    /// Write the Prometheus exposition here after the run.
    pub metrics_out: Option<String>,
    /// Append one JSONL run record here per executor run.
    pub ledger: Option<String>,
}

impl ObsConfig {
    /// Arms the process-global sinks before the harness mode runs.
    pub fn setup(&self) {
        if let Some(p) = &self.ledger {
            ledger::set_path(Some(Path::new(p)));
        }
    }

    /// Writes the requested artifacts after the harness mode finished.
    pub fn finish(&self) {
        if let Some(p) = &self.metrics_out {
            let text = metrics::global().render_prometheus();
            match std::fs::write(p, &text) {
                Ok(()) => eprintln!("wrote metrics exposition {p}"),
                Err(e) => eprintln!("cannot write metrics exposition {p}: {e}"),
            }
        }
        if let Some(p) = &self.ledger {
            eprintln!("run ledger at {p}");
        }
    }
}

/// Validates a Prometheus exposition: structurally well-formed and
/// containing every [`required_families`] entry. Returns the failure
/// messages (empty = pass).
pub fn check_metrics(src: &str) -> Vec<String> {
    match metrics::validate_exposition(src) {
        Err(e) => vec![format!("malformed exposition: {e}")],
        Ok(families) => required_families()
            .into_iter()
            .filter(|f| !families.iter().any(|g| g == f))
            .map(|f| format!("missing required family `{f}`"))
            .collect(),
    }
}

/// Validates a run-ledger JSONL file: every non-empty line must parse as
/// a JSON object carrying the full record schema — the run-record schema
/// by default, or the JIT-fallback schema when the line carries the
/// `"record":"jit_fallback"` discriminator. Returns the failure messages
/// plus the number of valid records.
pub fn check_ledger(src: &str) -> (Vec<String>, usize) {
    let mut failures = Vec::new();
    let mut records = 0usize;
    let run_num_fields = ledger_num_fields();
    for (ln, line) in src.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = match parse_json(line) {
            Ok(v) => v,
            Err(e) => {
                failures.push(format!("ledger line {}: not JSON: {e}", ln + 1));
                continue;
            }
        };
        let mut ok = true;
        let (num_fields, str_fields): (&[&str], &[&str]) =
            if rec.str_field("record") == Ok("jit_fallback") {
                (&JIT_FALLBACK_NUM_FIELDS, &JIT_FALLBACK_STR_FIELDS)
            } else {
                (&run_num_fields, &LEDGER_STR_FIELDS)
            };
        for f in num_fields {
            if rec.num_field(f).is_err() {
                failures.push(format!("ledger line {}: missing numeric `{f}`", ln + 1));
                ok = false;
            }
        }
        for f in str_fields {
            if rec.str_field(f).is_err() {
                failures.push(format!("ledger line {}: missing string `{f}`", ln + 1));
                ok = false;
            }
        }
        if ok {
            records += 1;
        }
    }
    if records == 0 && failures.is_empty() {
        failures.push("ledger holds no records".into());
    }
    (failures, records)
}

/// Validates a Chrome trace file: parseable JSON, either the bare
/// event-array form this repo emits or an object with a `traceEvents`
/// array, holding at least one complete (`"ph":"X"`) event, each with
/// numeric `ts`, `dur`, `pid` and `tid`. Returns failure messages plus
/// the event count.
pub fn check_trace(src: &str) -> (Vec<String>, usize) {
    use sdfg_core::serialize::Json;
    let root = match parse_json(src) {
        Ok(root) => root,
        Err(e) => return (vec![format!("malformed trace: {e}")], 0),
    };
    let events = match &root {
        Json::Arr(events) => events.as_slice(),
        obj => match obj.arr_field("traceEvents") {
            Ok(events) => events,
            Err(e) => return (vec![format!("malformed trace: {e}")], 0),
        },
    };
    let mut failures = Vec::new();
    let mut spans = 0usize;
    for (i, ev) in events.iter().enumerate() {
        if ev.str_field("ph") != Ok("X") {
            continue;
        }
        spans += 1;
        for f in ["ts", "dur", "pid", "tid"] {
            if ev.num_field(f).is_err() {
                failures.push(format!("trace event {i}: `X` event without numeric `{f}`"));
            }
        }
    }
    if spans == 0 {
        failures.push("trace holds no complete (`\"ph\":\"X\"`) events".into());
    }
    (failures, events.len())
}

/// The `harness obs-check` entry point: validates a metrics exposition,
/// a run ledger, and optionally a Chrome trace. Returns `false` when any
/// artifact fails.
pub fn obs_check(metrics_path: &str, ledger_path: &str, trace_path: Option<&str>) -> bool {
    let mut ok = true;
    let mut run = |label: &str, path: &str, check: &dyn Fn(&str) -> (Vec<String>, String)| {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                println!("obs-check {label}: FAIL — cannot read `{path}`: {e}");
                ok = false;
                return;
            }
        };
        let (failures, detail) = check(&src);
        if failures.is_empty() {
            println!("obs-check {label}: PASS ({detail}, {path})");
        } else {
            println!("obs-check {label}: FAIL ({path})");
            for f in failures {
                println!("  {f}");
            }
            ok = false;
        }
    };
    run("metrics", metrics_path, &|src| {
        let n = src.lines().filter(|l| !l.starts_with('#')).count();
        (check_metrics(src), format!("{n} samples"))
    });
    run("ledger", ledger_path, &|src| {
        let (failures, records) = check_ledger(src);
        (failures, format!("{records} records"))
    });
    if let Some(p) = trace_path {
        run("trace", p, &|src| {
            let (failures, events) = check_trace(src);
            (failures, format!("{events} events"))
        });
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_global_registry_passes_check_metrics() {
        // Touch the core handles so the families exist, then render.
        let _ = metrics::core();
        let text = metrics::global().render_prometheus();
        let failures = check_metrics(&text);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn check_metrics_flags_missing_families() {
        let text = "# TYPE sdfg_launches_total counter\nsdfg_launches_total 3\n";
        let failures = check_metrics(text);
        assert_eq!(
            failures.len(),
            required_families().len() - 1,
            "{failures:?}"
        );
        assert!(failures
            .iter()
            .any(|f| f.contains("sdfg_launch_duration_ms")));
    }

    #[test]
    fn real_ledger_record_passes_check_ledger() {
        let mut rec = ledger::RunRecord {
            content_hash: "00c0ffee00c0ffee".into(),
            target: "cpu".into(),
            opt_level: "None".into(),
            nthreads: 4,
            wall_ms: 0.125,
            ..Default::default()
        };
        let line = rec.to_json();
        rec.bytes_moved = 4096;
        let two = format!("{line}\n{}\n", rec.to_json());
        let (failures, records) = check_ledger(&two);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(records, 2);
    }

    #[test]
    fn jit_fallback_records_pass_check_ledger() {
        let rec = ledger::JitFallbackRecord {
            seq: 0,
            content_hash: "00c0ffee".into(),
            map: "mm_contract".into(),
            reason: "nest-compile-failed".into(),
            detail: String::new(),
        };
        // A launch that ran interpreted while its kernel compiled.
        let pending = ledger::JitFallbackRecord {
            reason: "jit-compile-pending".into(),
            detail: "kernel 00000000deadbeef still compiling".into(),
            ..rec.clone()
        };
        let both = format!("{}\n{}\n", rec.to_json(), pending.to_json());
        let (failures, records) = check_ledger(&both);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(records, 2);
        // A fallback line without its reason fails.
        let bad = rec
            .to_json()
            .replace(",\"reason\":\"nest-compile-failed\"", "");
        let (failures, _) = check_ledger(&bad);
        assert!(
            failures.iter().any(|f| f.contains("reason")),
            "{failures:?}"
        );
    }

    #[test]
    fn empty_or_malformed_ledger_fails() {
        let (failures, records) = check_ledger("");
        assert_eq!(records, 0);
        assert_eq!(failures.len(), 1);
        let (failures, _) = check_ledger("{\"seq\": 1}\n");
        assert!(!failures.is_empty());
    }

    #[test]
    fn chrome_trace_roundtrips_through_check_trace() {
        let c = sdfg_profile::ProfileCollector::new();
        let mut wp = sdfg_profile::WorkerProfile::new(0);
        wp.timeline.push(sdfg_profile::Span {
            key: sdfg_profile::SpanKey::State(0),
            worker: 0,
            start_ns: 10,
            dur_ns: 5,
        });
        c.absorb(wp);
        let trace = c.finish(std::time::Duration::from_micros(1)).chrome_trace();
        let (failures, events) = check_trace(&trace);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(events >= 1);
        let (failures, _) = check_trace("{\"no\": 1}");
        assert!(!failures.is_empty());
        // The object form is accepted too.
        let span = "{\"ph\":\"X\",\"ts\":1,\"dur\":2,\"pid\":1,\"tid\":0}";
        let (failures, events) =
            check_trace(&format!("{{\"traceEvents\": [{{\"ph\": \"M\"}}, {span}]}}"));
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(events, 2);
    }

    #[test]
    fn trace_without_complete_events_fails() {
        let (failures, _) = check_trace("[]");
        assert!(!failures.is_empty());
        let (failures, _) = check_trace("[{\"ph\": \"M\", \"pid\": 1}]");
        assert!(!failures.is_empty());
    }

    #[test]
    fn complete_event_without_ts_fails() {
        let (failures, _) = check_trace("[{\"ph\":\"X\",\"dur\":2,\"pid\":1,\"tid\":0}]");
        assert!(failures.iter().any(|f| f.contains("`ts`")), "{failures:?}");
    }
}

//! Run ledger: an append-only JSONL history of executor runs.
//!
//! When enabled (the `SDFG_RUN_LOG` environment variable, or
//! [`set_path`] — e.g. the harness `--ledger` flag), every
//! session invoke (`sdfg_exec::Session::run`) appends exactly one JSON
//! object line describing the run (a nested SDFG call is part of its
//! enclosing run): what ran (content hash, target, opt level, thread
//! count), how long it took, the bytes it moved, and the run's
//! own count of every row of the [`crate::counters`] table (cache hits,
//! pool reuse, scheduler tiles/steals, …). The format is one
//! self-contained JSON object per line, so downstream consumers
//! (`obs-check`, log shippers) can tail it without any framing protocol.
//!
//! Disabled is the default and costs one relaxed atomic load per run.

use crate::counters::{N_RUN_COUNTERS, RUN_COUNTERS};
use crate::json_escape;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// One run's record. The counters are the run's own, not
/// executor-lifetime totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunRecord {
    /// Process-wide run sequence number (0-based, assigned on append).
    pub seq: u64,
    /// SDFG content hash (hex, as produced by the executor).
    pub content_hash: String,
    /// Target assignment ("cpu", or the session's backend set, such as
    /// "cpu+gpu-sim").
    pub target: String,
    /// Optimization level the executor ran with.
    pub opt_level: String,
    /// Worker threads configured for the run.
    pub nthreads: usize,
    /// End-to-end wall time, milliseconds.
    pub wall_ms: f64,
    /// Bytes moved by local copies/writebacks.
    pub bytes_moved: u64,
    /// The run's [`RUN_COUNTERS`] values, in table order.
    pub counters: [u64; N_RUN_COUNTERS],
    /// Serving-layer tenant the run belonged to (empty outside a request
    /// scope; omitted from the JSON when empty).
    pub tenant: String,
    /// Serving-layer request id (empty outside a request scope; omitted
    /// from the JSON when empty).
    pub request_id: String,
}

impl RunRecord {
    /// Renders the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"content_hash\":\"{}\",\"target\":\"{}\",\
             \"opt_level\":\"{}\",\"nthreads\":{},\"wall_ms\":{:.6},\"bytes_moved\":{}",
            self.seq,
            json_escape(&self.content_hash),
            json_escape(&self.target),
            json_escape(&self.opt_level),
            self.nthreads,
            self.wall_ms,
            self.bytes_moved,
        );
        for (row, v) in RUN_COUNTERS.iter().zip(&self.counters) {
            out.push_str(&format!(",\"{}\":{v}", row.name));
        }
        // Request tags are additive so existing ledger consumers (which
        // check only the required fields) keep parsing batch-run records.
        if !self.tenant.is_empty() {
            out.push_str(&format!(",\"tenant\":\"{}\"", json_escape(&self.tenant)));
        }
        if !self.request_id.is_empty() {
            out.push_str(&format!(
                ",\"request_id\":\"{}\"",
                json_escape(&self.request_id)
            ));
        }
        out.push('}');
        out
    }
}

/// One JIT-tier fallback event: a map body that was eligible for native
/// compilation but ran in the VM tier instead. Shares the ledger file and
/// sequence space with run records, carrying a `"record":"jit_fallback"`
/// discriminator as its first field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JitFallbackRecord {
    /// Process-wide ledger sequence number (assigned on append).
    pub seq: u64,
    /// Content hash (hex) of the graph whose map fell back.
    pub content_hash: String,
    /// Map label (state/entry-node scope name) when known.
    pub map: String,
    /// Why the JIT tier was not used: a `DeclineKind` name
    /// (`nest-unsupported-structure`, `nest-nonaffine-bounds`,
    /// `nest-unsupported-body`, `nest-compile-failed`) or
    /// `jit-compile-pending`.
    pub reason: String,
    /// Free-form detail (compiler stderr excerpt, dlerror text; may be
    /// empty).
    pub detail: String,
}

impl JitFallbackRecord {
    /// Renders the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"record\":\"jit_fallback\",\"seq\":{},\"content_hash\":\"{}\",\
             \"map\":\"{}\",\"reason\":\"{}\",\"detail\":\"{}\"}}",
            self.seq,
            json_escape(&self.content_hash),
            json_escape(&self.map),
            json_escape(&self.reason),
            json_escape(&self.detail),
        )
    }
}

thread_local! {
    /// The serving layer's active (tenant, request id) pair for this
    /// thread; see [`request_scope`].
    static REQUEST_SCOPE: std::cell::RefCell<Option<(String, String)>> =
        const { std::cell::RefCell::new(None) };
}

/// RAII guard from [`request_scope`]: clears (or restores) the thread's
/// request tags on drop.
pub struct RequestScope {
    prev: Option<(String, String)>,
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        REQUEST_SCOPE.with(|scope| *scope.borrow_mut() = self.prev.take());
    }
}

/// Tags every [`RunRecord`] appended from this thread with a tenant and
/// request id until the returned guard drops. The serving layer wraps
/// each request's execution in one of these, so engine-level ledger
/// appends (which know nothing about HTTP) come out attributed. Scopes
/// nest; the previous scope is restored on drop.
pub fn request_scope(tenant: &str, request_id: &str) -> RequestScope {
    let prev = REQUEST_SCOPE.with(|scope| {
        scope
            .borrow_mut()
            .replace((tenant.to_string(), request_id.to_string()))
    });
    RequestScope { prev }
}

struct Sink {
    /// None = disabled. `set_path` wins over the environment.
    path: Mutex<Option<PathBuf>>,
    /// Fast-path flag mirroring `path.is_some()`.
    enabled: AtomicBool,
    seq: AtomicU64,
}

fn sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| {
        let path = std::env::var_os("SDFG_RUN_LOG")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from);
        Sink {
            enabled: AtomicBool::new(path.is_some()),
            path: Mutex::new(path),
            seq: AtomicU64::new(0),
        }
    })
}

/// True when runs are being recorded (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    sink().enabled.load(Ordering::Relaxed)
}

/// Points the ledger at `path` (append mode; created if missing), or
/// disables it with `None`. Overrides `SDFG_RUN_LOG`.
pub fn set_path(path: Option<&Path>) {
    let s = sink();
    *s.path.lock().unwrap_or_else(|p| p.into_inner()) = path.map(Path::to_path_buf);
    s.enabled.store(path.is_some(), Ordering::Relaxed);
}

/// The active ledger path, if any.
pub fn path() -> Option<PathBuf> {
    sink()
        .path
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone()
}

/// Appends one record (assigning its `seq`), returning the sequence
/// number. A no-op returning `None` when disabled; I/O errors are
/// reported once on stderr and otherwise swallowed — observability must
/// never fail a run.
pub fn append(rec: &mut RunRecord) -> Option<u64> {
    if !enabled() {
        return None;
    }
    // Stamp the thread's active request scope (serving layer) unless the
    // caller tagged the record itself.
    if rec.tenant.is_empty() && rec.request_id.is_empty() {
        REQUEST_SCOPE.with(|scope| {
            if let Some((tenant, request_id)) = &*scope.borrow() {
                rec.tenant = tenant.clone();
                rec.request_id = request_id.clone();
            }
        });
    }
    write_line(|seq| {
        rec.seq = seq;
        rec.to_json()
    })
}

/// Appends one JIT-fallback record (assigning its `seq` from the shared
/// sequence), returning the sequence number. No-op when the ledger is
/// disabled; I/O errors are swallowed like [`append`]'s.
pub fn append_jit_fallback(rec: &mut JitFallbackRecord) -> Option<u64> {
    if !enabled() {
        return None;
    }
    write_line(|seq| {
        rec.seq = seq;
        rec.to_json()
    })
}

/// The one ledger writer: takes the next sequence number, renders the
/// line with it and appends it to the active path. Writers hold the path
/// lock and append each line in one write, so concurrent runs never
/// interleave lines and the file is in sequence order.
fn write_line(render: impl FnOnce(u64) -> String) -> Option<u64> {
    let s = sink();
    let guard = s.path.lock().unwrap_or_else(|p| p.into_inner());
    let path = guard.as_ref()?;
    let seq = s.seq.fetch_add(1, Ordering::Relaxed);
    let mut line = render(seq);
    line.push('\n');
    let res = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = res {
        static WARNED: AtomicBool = AtomicBool::new(false);
        if !WARNED.swap(true, Ordering::Relaxed) {
            eprintln!(
                "sdfg-profile: run ledger write to {} failed: {e}",
                path.display()
            );
        }
    }
    Some(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jit_fallback_record_renders_discriminated_json() {
        let rec = JitFallbackRecord {
            seq: 0,
            content_hash: "aa01".into(),
            map: "mult[i,j]".into(),
            reason: "nest-compile-failed".into(),
            detail: "cc: not found".into(),
        };
        let j = rec.to_json();
        assert!(j.starts_with("{\"record\":\"jit_fallback\""));
        assert!(j.contains("\"reason\":\"nest-compile-failed\""));
        assert!(!j.contains('\n'));
    }

    #[test]
    fn record_renders_valid_minimal_json() {
        let rec = RunRecord {
            content_hash: "00ff".into(),
            target: "cpu".into(),
            opt_level: "O2\"x".into(),
            nthreads: 4,
            wall_ms: 1.25,
            counters: [1; N_RUN_COUNTERS],
            ..Default::default()
        };
        let j = rec.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"content_hash\":\"00ff\""));
        assert!(j.contains("\"opt_level\":\"O2\\\"x\""));
        assert!(j.contains("\"wall_ms\":1.250000"));
        for row in RUN_COUNTERS {
            assert!(j.contains(&format!(",\"{}\":1", row.name)), "{j}");
        }
        assert!(!j.contains('\n'));
    }

    #[test]
    fn append_writes_one_line_per_record_with_increasing_seq() {
        let dir = std::env::temp_dir().join(format!("sdfg-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let _ = std::fs::remove_file(&path);
        set_path(Some(&path));
        assert!(enabled());
        let mut a = RunRecord::default();
        let mut b = RunRecord::default();
        let sa = append(&mut a).unwrap();
        let sb = append(&mut b).unwrap();
        assert!(sb > sa);
        set_path(None);
        assert!(!enabled());
        assert!(append(&mut RunRecord::default()).is_none());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        let _ = std::fs::remove_file(&path);
    }
}

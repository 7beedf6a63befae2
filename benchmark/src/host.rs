//! What the benchmark takes from and reports about the machine: a scrubbed
//! environment, thread counts, peak memory and provenance.

use crate::json::J;
use std::path::Path;

/// Engine switches a caller's shell must not be able to flip.
pub const SCRUBBED: &[&str] = &[
    "SDFG_JIT",
    "SDFG_NTHREADS",
    "SDFG_SCHED",
    "SDFG_TUNED_DB",
    "SDFG_RUN_LOG",
    "SDFG_TRACE_SAMPLE",
];

/// Removes the engine switches and points the JIT artifact cache and the
/// temp dir (where `cc` puts its intermediates) inside the benchmark's
/// output directory. Must run before any thread starts.
pub fn scrub_env(jit_cache: &Path, tmp: &Path) {
    for var in SCRUBBED {
        std::env::remove_var(var);
    }
    std::env::set_var("SDFG_JIT_CACHE", jit_cache);
    std::env::set_var("TMPDIR", tmp);
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Engine worker threads under test: what a user gets on a small machine.
pub fn engine_threads() -> usize {
    nproc().min(4)
}

/// Closed-loop client connections for the serve workloads.
pub fn client_threads() -> usize {
    nproc().min(2)
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

fn first_line_of(cmd: &str, args: &[&str], cwd: Option<&Path>) -> String {
    let mut c = std::process::Command::new(cmd);
    c.args(args);
    if let Some(d) = cwd {
        c.current_dir(d);
    }
    match c.output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string(),
        _ => "unknown".to_string(),
    }
}

/// Everything needed to tell whether two result files are comparable.
pub fn provenance(bench_dir: &Path, seed: u64, seconds: f64) -> J {
    J::obj([
        (
            "commit",
            J::str(first_line_of(
                "git",
                &["rev-parse", "HEAD"],
                Some(bench_dir),
            )),
        ),
        ("seed", J::Int(seed)),
        ("seconds", J::Num(seconds)),
        ("nproc", J::Int(nproc() as u64)),
        ("engine_threads", J::Int(engine_threads() as u64)),
        ("client_threads", J::Int(client_threads() as u64)),
        (
            "cc",
            J::str(sdfg_exec::jit::cc().map_or("none".to_string(), |c| c.version.clone())),
        ),
        (
            "rustc",
            J::str(first_line_of("rustc", &["--version"], None)),
        ),
        ("opt_level", J::str("aggressive")),
        ("jit", J::Bool(true)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_removes_switches_and_redirects_caches() {
        // The only test that touches the process environment.
        for var in SCRUBBED {
            std::env::set_var(var, "off");
        }
        std::env::set_var("SDFG_JIT_CACHE", "/somewhere/else");
        scrub_env(Path::new("out/jit"), Path::new("out/tmp"));
        for var in SCRUBBED {
            assert!(std::env::var_os(var).is_none(), "{var} survived");
        }
        assert_eq!(std::env::var("SDFG_JIT_CACHE").unwrap(), "out/jit");
        assert_eq!(std::env::var("TMPDIR").unwrap(), "out/tmp");
    }

    #[test]
    fn vm_hwm_parses() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn thread_counts_follow_nproc() {
        assert!(engine_threads() >= 1 && engine_threads() <= 4);
        assert!(client_threads() >= 1 && client_threads() <= 2);
        assert!(client_threads() <= nproc());
    }
}

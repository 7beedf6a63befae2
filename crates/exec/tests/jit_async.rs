//! Kernels compile in the background and a run switches tiers at launch
//! boundaries: the switch never shows in the results, and once the queue
//! has drained every call site runs native, exactly as it did when a
//! launch waited for its compiler.
//!
//! The C compiler is probed once per process, so every check runs in a
//! re-executed child of this test binary with its own fake compiler (`CC`)
//! and its own empty artifact cache. The fake compilers forward to the
//! system one, so these tests skip on machines without a C compiler.
#![cfg(unix)]

use sdfg_exec::{jit, Outputs, Session};
use sdfg_workloads::polybench;
use sdfg_workloads::workload::Workload;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// The child's mode (a fake compiler's name); unset in the parent.
const CHILD_ENV: &str = "SDFG_JIT_ASYNC_CHILD";
/// The child's working directory.
const DIR_ENV: &str = "SDFG_JIT_ASYNC_DIR";

/// `Stats::{jit_points, nest_calls, tasklet_points}` of one run.
type Counts = (u64, u64, u64);

/// A kernel at one scale, and the counts of a run that starts with every
/// kernel compiled — what each run of a session gave when every launch
/// waited for its compile.
struct Steady {
    name: &'static str,
    scale: usize,
    /// At 1 thread, where nothing depends on timing: collapsed loops and
    /// map launches.
    serial: Counts,
    /// Whether every map launch is hot at 2 and 8 threads, so each makes
    /// one native call, or one per tile when it runs tiled. How many tiles,
    /// and which launches run tiled at all, follow the adaptive grain,
    /// which times launches, so counts above 1 thread are not pinned.
    tiled: bool,
}

const STEADY: [Steady; 5] = [
    Steady {
        name: "cholesky",
        scale: 24,
        serial: (2300, 23, 2600),
        tiled: false,
    },
    Steady {
        name: "durbin",
        scale: 300,
        serial: (134550, 897, 135749),
        tiled: false,
    },
    Steady {
        name: "gemm",
        scale: 24,
        serial: (18144, 2, 18144),
        tiled: true,
    },
    Steady {
        name: "jacobi-2d",
        scale: 24,
        serial: (3872, 8, 3872),
        tiled: false,
    },
    Steady {
        name: "ludcmp",
        scale: 24,
        serial: (4624, 24, 5224),
        tiled: false,
    },
];

/// Forwards to the first system C compiler on `PATH`.
const FORWARD: &str = "for c in cc gcc clang; do\n\
      command -v \"$c\" >/dev/null 2>&1 && exec \"$c\" \"$@\"\n\
    done\n\
    exit 127\n";

/// The body of fake compiler `mode` (after the `--version` probe, which
/// every one of them forwards). `dir` holds the files it may write.
fn fake_compiler(mode: &str, dir: &Path) -> String {
    let compile = match mode {
        "pass" => FORWARD.to_string(),
        "slow" => format!("sleep 0.2\n{FORWARD}"),
        "fail" => "echo 'fake compiler refuses' >&2\nexit 1\n".to_string(),
        "hang" => format!(
            "echo \"$TMPDIR\" > '{0}/tmpdir'\necho $$ > '{0}/pid'\nexec sleep 30\n",
            dir.display()
        ),
        _ => unreachable!("unknown fake compiler `{mode}`"),
    };
    format!("#!/bin/sh\nif [ \"$1\" = --version ]; then\n{FORWARD}fi\n{compile}")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sdfg-jit-async-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(d.join("cache")).unwrap();
    d
}

/// Re-runs test `test` in a child whose compiler is the fake `mode`;
/// returns the child's exit status and how long it ran. Children run one
/// at a time, so none is timed on a machine busy with another.
fn run_child(test: &str, mode: &str, dir: &Path) -> (std::process::ExitStatus, Duration) {
    use std::os::unix::fs::PermissionsExt;
    static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let cc = dir.join(format!("cc-{mode}"));
    std::fs::write(&cc, fake_compiler(mode, dir)).unwrap();
    std::fs::set_permissions(&cc, std::fs::Permissions::from_mode(0o755)).unwrap();
    let t0 = Instant::now();
    let status = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", test, "--nocapture"])
        .env(CHILD_ENV, mode)
        .env("CC", &cc)
        .env("SDFG_JIT_CACHE", dir.join("cache"))
        .env(DIR_ENV, dir)
        .status()
        .expect("re-exec test binary");
    (status, t0.elapsed())
}

fn jit_available() -> bool {
    jit::env_enabled() && jit::cc().is_some()
}

fn kernel(name: &str, scale: usize) -> Workload {
    let k = polybench::all()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("no Polybench kernel `{name}`"));
    (k.build)(scale)
}

fn run(w: &Workload, jit: bool, nthreads: usize) -> Outputs {
    Session::builder(w.sdfg.clone())
        .jit(jit)
        .nthreads(nthreads)
        .build()
        .expect("session")
        .run(w.bindings())
        .expect("run")
}

fn assert_bitwise(what: &str, check: &[String], got: &Outputs, want: &Outputs) {
    for name in check {
        let (a, b) = (got.array(name).unwrap(), want.array(name).unwrap());
        assert_eq!(a.len(), b.len(), "{what}: `{name}` length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: `{name}`[{i}] {x} vs {y}");
        }
    }
}

fn counts(o: &Outputs) -> Counts {
    let s = o.stats();
    (s.jit_points, s.nest_calls, s.tasklet_points)
}

/// The ledger's `jit_fallback` records as `(map, reason, detail)`.
fn fallbacks(ledger: &Path) -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(ledger).unwrap_or_default();
    text.lines()
        .filter(|l| l.contains("\"record\":\"jit_fallback\""))
        .map(|l| {
            let rec = sdfg_core::serialize::parse_json(l).expect("ledger line");
            let field = |k: &str| rec.str_field(k).unwrap().to_string();
            (field("map"), field("reason"), field("detail"))
        })
        .collect()
}

/// One session of gemm through a compile: cold, then after the queue has
/// drained, then once more. Checks what the ledger, the counters and the
/// lowering report say about the launches that found a kernel pending.
fn pending_is_observable(mode: &str, dir: &Path) {
    let ledger = dir.join("ledger.jsonl");
    sdfg_profile::ledger::set_path(Some(&ledger));
    let gemm = &STEADY[2];
    let w = kernel(gemm.name, gemm.scale);
    let session = Session::builder(w.sdfg.clone())
        .nthreads(1)
        .build()
        .expect("session");
    let cold = session.run(w.bindings()).expect("cold run");
    let report = cold.lowering_report();
    if mode != "fail" && jit::stats().compiles == 0 {
        // Nothing had compiled when the report was taken: every map that
        // asked for a kernel is still waiting for it.
        assert!(
            report
                .iter()
                .any(|r| r.jit_reason.as_deref() == Some("compile pending")),
            "{report:?}"
        );
    }
    jit::wait_idle();
    let warm = session.run(w.bindings()).expect("warm run");
    let again = session.run(w.bindings()).expect("third run");
    sdfg_profile::ledger::set_path(None);
    assert_bitwise("cold vs warm", &w.check, &cold, &warm);
    assert_bitwise("warm vs third", &w.check, &warm, &again);
    assert!(
        jit::stats().pending_launches > 0,
        "no launch found a kernel pending"
    );

    let records = fallbacks(&ledger);
    let pending: Vec<_> = records
        .iter()
        .filter(|r| r.1 == "jit-compile-pending")
        .collect();
    assert!(!pending.is_empty(), "no pending record: {records:?}");
    for p in &pending {
        let same = pending.iter().filter(|q| q.2 == p.2).count();
        assert_eq!(same, 1, "one pending record per kernel: {records:?}");
    }
    let failed: Vec<_> = records
        .iter()
        .filter(|r| r.1 == "nest-compile-failed")
        .collect();
    if mode == "fail" {
        assert!(
            !failed.is_empty(),
            "failed compiles not recorded: {records:?}"
        );
        for f in &failed {
            let same = failed
                .iter()
                .filter(|g| (&g.0, &g.1) == (&f.0, &f.1))
                .count();
            assert_eq!(same, 1, "a failure recorded more than once: {records:?}");
        }
        assert_eq!(counts(&again), (0, 0, gemm.serial.2));
    } else {
        assert!(failed.is_empty(), "{records:?}");
        assert_eq!(counts(&again), gemm.serial, "third run of one session");
    }
}

/// Every kernel at 1, 2 and 8 threads: a session's cold run (compiles in
/// flight) and its steady run (queue drained) both match the interpreted
/// tiers bitwise, and the steady run's counts are the ones recorded when
/// compiles blocked. One session for both runs, so a site that cached its
/// pending kernel as a decline would stay interpreted.
fn tier_switch_is_invisible(mode: &str) {
    for k in &STEADY {
        let w = kernel(k.name, k.scale);
        for nthreads in [1, 2, 8] {
            let what = format!(
                "{}@{}, {nthreads} threads, `{mode}` compiler",
                k.name, k.scale
            );
            let off = run(&w, false, nthreads);
            let session = Session::builder(w.sdfg.clone())
                .nthreads(nthreads)
                .build()
                .expect("session");
            let cold = session.run(w.bindings()).expect("cold run");
            assert_bitwise(&format!("{what}, cold"), &w.check, &cold, &off);
            jit::wait_idle();
            let warm = session.run(w.bindings()).expect("steady run");
            assert_bitwise(&format!("{what}, steady"), &w.check, &warm, &off);
            let (jit_points, nest_calls, tasklet_points) = counts(&warm);
            if mode == "fail" {
                assert_eq!((jit_points, nest_calls), (0, 0), "{what}");
            } else if nthreads == 1 {
                assert_eq!(counts(&warm), k.serial, "{what}: steady counts");
            } else {
                assert!(jit_points > 0, "{what}: steady run stayed interpreted");
                if k.tiled {
                    assert_eq!(jit_points, k.serial.0, "{what}: steady JIT points");
                    let s = warm.stats();
                    let serial_launches = s.map_launches - s.parallel_regions;
                    assert_eq!(
                        nest_calls,
                        serial_launches + s.sched_tiles,
                        "{what}: one call per serial launch and per tile"
                    );
                }
            }
            assert_eq!(tasklet_points, k.serial.2, "{what}: tasklet points");
        }
    }
}

fn tier_switch_child(mode: &str) {
    let dir = PathBuf::from(std::env::var_os(DIR_ENV).expect("child directory"));
    assert!(
        jit::cc().is_some_and(|cc| cc.path.ends_with(&format!("cc-{mode}"))),
        "the fake compiler was not picked up"
    );
    pending_is_observable(mode, &dir);
    tier_switch_is_invisible(mode);
}

fn tier_switch_parent(test: &str, mode: &str) {
    if !jit_available() {
        return;
    }
    let dir = fresh_dir(mode);
    let (status, _) = run_child(test, mode, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(status.success(), "`{mode}` compiler child failed");
}

#[test]
fn tier_switch_with_a_fast_compiler() {
    match std::env::var(CHILD_ENV) {
        Ok(mode) => tier_switch_child(&mode),
        Err(_) => tier_switch_parent("tier_switch_with_a_fast_compiler", "pass"),
    }
}

#[test]
fn tier_switch_with_a_slow_compiler() {
    match std::env::var(CHILD_ENV) {
        Ok(mode) => tier_switch_child(&mode),
        Err(_) => tier_switch_parent("tier_switch_with_a_slow_compiler", "slow"),
    }
}

#[test]
fn tier_switch_with_a_failing_compiler() {
    match std::env::var(CHILD_ENV) {
        Ok(mode) => tier_switch_child(&mode),
        Err(_) => tier_switch_parent("tier_switch_with_a_failing_compiler", "fail"),
    }
}

/// Whether `/proc/<pid>` names a process that has not exited (an exited
/// one may linger as a zombie until whoever adopted it reaps it).
fn running(pid: u32) -> bool {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return false;
    };
    let state = stat
        .rsplit_once(") ")
        .and_then(|(_, rest)| rest.chars().next());
    state.is_some_and(|s| s != 'Z' && s != 'X')
}

#[test]
fn no_compiler_outlives_its_process() {
    if std::env::var(CHILD_ENV).is_ok() {
        // One hot program, then return from `main` while its compiler is
        // still running (once it has certainly started).
        let dir = PathBuf::from(std::env::var_os(DIR_ENV).expect("child directory"));
        let w = kernel("gemm", 24);
        run(&w, true, 1);
        let t0 = Instant::now();
        while !dir.join("pid").exists() && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
        }
        return;
    }
    if !jit_available() || !Path::new("/proc/self").exists() {
        return;
    }
    let dir = fresh_dir("hang");
    let (status, took) = run_child("no_compiler_outlives_its_process", "hang", &dir);
    assert!(status.success(), "child failed");
    let pid: u32 = std::fs::read_to_string(dir.join("pid"))
        .expect("the fake compiler started")
        .trim()
        .parse()
        .unwrap();
    // Its temporary files go to its own directory in the artifact cache,
    // which the next compile of that kernel clears.
    let tmpdir = std::fs::read_to_string(dir.join("tmpdir")).unwrap();
    assert!(
        Path::new(tmpdir.trim()).starts_with(dir.join("cache")),
        "compiler TMPDIR {tmpdir}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(took < Duration::from_secs(2), "child took {took:?} to exit");
    let t0 = Instant::now();
    while running(pid) && t0.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!running(pid), "compiler {pid} outlived its process");
}

//! JIT tier runtime: turns the C kernels emitted by `sdfg_codegen::jit`
//! into callable native code.
//!
//! The pipeline is the paper's §4.3 step ❸ (compiler invocation) done at
//! run time: probe the system C compiler once per process, compile the
//! kernel source into a shared object, `dlopen` it, and hand the executor
//! a raw function pointer. Three cache levels keep warm processes from
//! ever recompiling:
//!
//! 1. an in-process registry keyed by [`kernel_hash`] (shared by every
//!    executor and session in the process — concurrent requests for the
//!    same kernel share one entry, and so one compilation and one
//!    artifact);
//! 2. an on-disk artifact cache (`SDFG_JIT_CACHE`, default
//!    `$TMPDIR/sdfg-jit-cache`) holding `<hash>.so` + `<hash>.c`, written
//!    atomically (temp file + rename) so concurrent processes are safe;
//! 3. the execution plan in the `PlanCache`, which keeps each map's and
//!    collapsed loop's registry handle (see `crate::nest`).
//!
//! **Compiling never blocks a launch.** A request that finds the artifact
//! on disk `dlopen`s it on the spot, so restarted processes run native from
//! their first launch. Otherwise the source is queued for the one compile
//! thread of the process (started on first use, FIFO, the compiler at
//! normal priority) and the request returns the still-empty handle. A
//! launch that finds its kernel empty runs on the interpreted tiers —
//! bitwise the same result — and the first launch after the entry fills
//! runs native. [`wait_idle`] blocks until the queue has drained. Each
//! compiler runs in its own process group, and an exit hook kills the one
//! in flight, so no compiler outlives the process that started it.
//!
//! The cache key hashes the C source, the compiler's `--version` line, and
//! the flag set — a compiler upgrade or flag change invalidates artifacts
//! automatically. A corrupt `.so` (truncated write, disk damage) fails
//! `dlopen`, is deleted, and is recompiled once; a second failure falls
//! back to the VM tier.
//!
//! Everything degrades gracefully: no compiler, a failed compile, or a
//! failed `dlopen` records a `jit_fallback` ledger record (plus the
//! `sdfg_jit_fallbacks_total` metric) and the map runs on the next tier.
//! `SDFG_JIT=off` disables the tier for the whole process. The `dlopen`,
//! `atexit` and `kill` bindings are raw `extern "C"` declarations against
//! libc/libdl, keeping the workspace std-only; loaded handles are
//! intentionally never closed (kernels may be cached in plans that outlive
//! any one executor).

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Compiler flags for kernel compilation. `-ffp-contract=off` is load
/// bearing: Rust never contracts `a*b + c` into an FMA, so the C compiler
/// must not either or JIT results would diverge bitwise from the VM and
/// native tiers.
pub const CFLAGS: &[&str] = &["-O2", "-fPIC", "-shared", "-ffp-contract=off"];

/// ABI generation tag mixed into every [`kernel_hash`]: bumping it
/// invalidates all cached artifacts at once.
const ABI_TAG: &str = "sdfg-jit-abi-v2";

/// The kernel ABI (see `sdfg_codegen::jit` for the `geo`/`bnd` layout
/// contract).
pub type NestFn = unsafe extern "C" fn(
    bufs: *const *mut f64,
    geo: *const i64,
    syms: *const f64,
    bnd: *const i64,
    lo0: i64,
    hi0: i64,
    npts: *mut i64,
);

/// A loaded, callable kernel. The underlying shared object stays mapped
/// for the life of the process. Holds the raw address the loader resolved
/// for [`sdfg_codegen::jit::NEST_ENTRY`].
pub struct JitKernel {
    /// Content hash the artifact was cached under.
    pub hash: u64,
    sym: *mut std::os::raw::c_void,
}

// SAFETY: `sym` is the address of immutable, process-lifetime mapped code;
// calling it concurrently is the whole point (parallel tiles).
unsafe impl Send for JitKernel {}
unsafe impl Sync for JitKernel {}

impl JitKernel {
    /// The kernel entry point.
    ///
    /// # Safety contract (for callers)
    ///
    /// The generated code checks only the accesses it computes itself
    /// (indexed ports, write logs, clamped ports — see `sdfg_codegen::jit`):
    /// the caller must pre-validate every affine address the nest can reach
    /// through its `geo` and `bnd` rows, `syms` must hold one value per
    /// program symbol, and `npts` must have a status slot per stream output
    /// past the fault slots.
    pub fn func(&self) -> NestFn {
        // SAFETY: the loader resolved this symbol from a kernel emitted
        // against the `NestFn` signature.
        unsafe { std::mem::transmute::<*mut std::os::raw::c_void, NestFn>(self.sym) }
    }
}

impl std::fmt::Debug for JitKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JitKernel({:016x})", self.hash)
    }
}

/// Process default for the JIT tier: `SDFG_JIT=off|0|false` disables it
/// entirely. Read once — per-executor overrides layer on top.
pub fn env_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| {
        !matches!(
            std::env::var("SDFG_JIT").ok().as_deref(),
            Some("off") | Some("0") | Some("false")
        )
    })
}

/// A usable system C compiler, probed once per process.
#[derive(Clone, Debug)]
pub struct CcInfo {
    /// Invocation path/name (`$CC`, else the first of `cc`/`gcc`/`clang`
    /// that answers `--version`).
    pub path: String,
    /// First line of `--version` output (part of the artifact cache key).
    pub version: String,
}

/// The probed compiler, or `None` when the machine has none (every JIT
/// request then falls back to the VM tier).
pub fn cc() -> Option<&'static CcInfo> {
    static CC: OnceLock<Option<CcInfo>> = OnceLock::new();
    CC.get_or_init(probe_cc).as_ref()
}

fn probe_cc() -> Option<CcInfo> {
    let mut cands: Vec<String> = Vec::new();
    if let Ok(c) = std::env::var("CC") {
        if !c.trim().is_empty() {
            cands.push(c);
        }
    }
    cands.extend(["cc", "gcc", "clang"].iter().map(|s| s.to_string()));
    for cand in cands {
        let out = std::process::Command::new(&cand).arg("--version").output();
        if let Ok(out) = out {
            if out.status.success() {
                let version = String::from_utf8_lossy(&out.stdout)
                    .lines()
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string();
                return Some(CcInfo {
                    path: cand,
                    version,
                });
            }
        }
    }
    None
}

/// FNV-1a 64 over source + compiler version + flags: the artifact cache
/// key. Deterministic across processes so on-disk artifacts are shared.
pub fn kernel_hash(source: &str, cc: &CcInfo) -> u64 {
    fn mix(h: u64, bytes: &[u8]) -> u64 {
        let mut h = h;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = mix(h, ABI_TAG.as_bytes());
    h = mix(h, &[0]);
    h = mix(h, source.as_bytes());
    h = mix(h, &[0]);
    h = mix(h, cc.version.as_bytes());
    for f in CFLAGS {
        h = mix(h, &[0]);
        h = mix(h, f.as_bytes());
    }
    h
}

/// On-disk artifact cache directory (`SDFG_JIT_CACHE`, default
/// `$TMPDIR/sdfg-jit-cache`). Read per call so tests and long-lived
/// services can redirect it.
pub fn cache_dir() -> PathBuf {
    match std::env::var_os("SDFG_JIT_CACHE") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => std::env::temp_dir().join("sdfg-jit-cache"),
    }
}

// --- counters -----------------------------------------------------------------

/// Cumulative JIT runtime counters (process-wide), read from their
/// `sdfg_jit_*_total` metric series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JitStats {
    /// Kernels compiled by invoking the system C compiler.
    pub compiles: u64,
    /// Requests served from the in-process registry or the on-disk cache.
    pub cache_hits: u64,
    /// JIT-eligible bodies that fell back to another tier.
    pub fallbacks: u64,
    /// Total wall-clock milliseconds spent inside the C compiler.
    pub compile_ms: u64,
    /// Nest launches that ran on an interpreted tier because their kernel
    /// was still compiling.
    pub pending_launches: u64,
}

/// Snapshot of the process-wide counters.
pub fn stats() -> JitStats {
    let m = sdfg_profile::metrics::core();
    JitStats {
        compiles: m.jit_compiles.get(),
        cache_hits: m.jit_cache_hits.get(),
        fallbacks: m.jit_fallbacks.get(),
        compile_ms: m.jit_compile_ms.get(),
        pending_launches: m.jit_pending_launches.get(),
    }
}

fn count_cache_hit() {
    sdfg_profile::metrics::core().jit_cache_hits.inc();
}

/// Why a map body, map nest or state-machine loop did not reach native
/// code — chosen at the site that declines, never recovered from the
/// detail text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeclineKind {
    /// Guard/edge/state shape, schedule, or node kind outside the
    /// recognizer.
    Structure,
    /// A bound, step or memlet offset that is not affine in the nest's
    /// iteration variables.
    Bounds,
    /// A tasklet body or port the emitter cannot mirror bitwise.
    Body,
    /// No system C compiler was found.
    NoCompiler,
    /// The compiler ran and failed (or could not be spawned).
    CompileFailed,
    /// The artifact compiled but could not be loaded.
    DlopenFailed,
}

impl DeclineKind {
    /// Reason name for the fallback ledger and `sdfg_jit_fallbacks_total`.
    pub fn reason(self) -> &'static str {
        use DeclineKind::*;
        match self {
            Structure => "nest-unsupported-structure",
            Bounds => "nest-nonaffine-bounds",
            Body => "nest-unsupported-body",
            NoCompiler | CompileFailed | DlopenFailed => "nest-compile-failed",
        }
    }
}

/// A typed decline: the kind plus a human-readable detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decline {
    /// What category of obstacle was hit.
    pub kind: DeclineKind,
    /// Free-form explanation for reports and the ledger's `detail` field.
    pub detail: String,
}

impl Decline {
    /// Builds a decline of `kind`.
    pub fn new(kind: DeclineKind, detail: impl Into<String>) -> Decline {
        Decline {
            kind,
            detail: detail.into(),
        }
    }

    /// Records this decline as a JIT fallback of `map` (see
    /// [`record_fallback`]).
    pub fn record(&self, content_hash: u64, map: &str) {
        record_fallback(content_hash, map, self.kind.reason(), &self.detail);
    }
}

/// Records one JIT fallback: bumps the counters and appends a
/// `jit_fallback` ledger record (`reason` is a [`DeclineKind::reason`]
/// name).
pub fn record_fallback(content_hash: u64, map: &str, reason: &str, detail: &str) {
    sdfg_profile::metrics::core().jit_fallbacks.inc();
    if sdfg_profile::ledger::enabled() {
        let mut detail = detail.to_string();
        if detail.len() > 400 {
            detail.truncate(400);
        }
        let mut rec = sdfg_profile::ledger::JitFallbackRecord {
            seq: 0,
            content_hash: format!("{content_hash:016x}"),
            map: map.to_string(),
            reason: reason.to_string(),
            detail,
        };
        sdfg_profile::ledger::append_jit_fallback(&mut rec);
    }
}

// --- registry -----------------------------------------------------------------

/// Ledger reason of a launch that ran interpreted because its kernel was
/// still compiling.
const PENDING_REASON: &str = "jit-compile-pending";

/// One kernel's registry entry, filled exactly once: by a disk hit while
/// the request is made, or later by the compile thread.
struct Entry {
    hash: u64,
    cell: OnceLock<Result<Arc<JitKernel>, Decline>>,
    /// Set by the first launch that found the cell empty, so the ledger
    /// records one pending launch per kernel.
    pending_seen: AtomicBool,
    /// Compiler invocations made for this entry.
    compiles: AtomicU32,
}

/// A requested kernel. Every requester of one hash holds the same entry,
/// so all of them see it fill at the same moment.
#[derive(Clone)]
pub(crate) struct KernelHandle(Arc<Entry>);

impl KernelHandle {
    /// The loaded kernel, the decline its compile or load ended in, or
    /// `None` while it is still compiling.
    pub(crate) fn get(&self) -> Option<&Result<Arc<JitKernel>, Decline>> {
        self.0.cell.get()
    }

    /// Counts one launch of `map` that found this kernel still compiling;
    /// the first such launch per kernel also writes a
    /// [`PENDING_REASON`] fallback record.
    pub(crate) fn record_pending(&self, content_hash: u64, map: &str) {
        sdfg_profile::metrics::core().jit_pending_launches.inc();
        if !self.0.pending_seen.swap(true, Ordering::Relaxed) {
            let detail = format!("kernel {:016x} still compiling", self.0.hash);
            record_fallback(content_hash, map, PENDING_REASON, &detail);
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn registry() -> &'static Mutex<HashMap<u64, Arc<Entry>>> {
    static REG: OnceLock<Mutex<HashMap<u64, Arc<Entry>>>> = OnceLock::new();
    REG.get_or_init(Mutex::default)
}

/// Requests the kernel for `source`. Compiles at most once per process per
/// hash, and never on the calling thread: an artifact already on disk is
/// loaded before this returns, anything else is queued for the compile
/// thread and the returned handle fills when it is done. A hash whose
/// compile already failed returns that decline, so a broken kernel is not
/// retried every launch.
pub(crate) fn get_or_compile(source: &str) -> Result<KernelHandle, Decline> {
    let cc = cc().ok_or_else(|| {
        Decline::new(
            DeclineKind::NoCompiler,
            "no C compiler found (cc/gcc/clang)",
        )
    })?;
    let hash = kernel_hash(source, cc);
    // Held across the disk probe, so a concurrent request for the same
    // hash finds the loaded kernel rather than a momentarily empty entry.
    let mut reg = lock(registry());
    if let Some(entry) = reg.get(&hash).cloned() {
        drop(reg);
        return match entry.cell.get() {
            Some(Err(d)) => Err(d.clone()),
            Some(Ok(_)) => {
                count_cache_hit();
                Ok(KernelHandle(entry))
            }
            None => Ok(KernelHandle(entry)),
        };
    }
    let entry = Arc::new(Entry {
        hash,
        cell: OnceLock::new(),
        pending_seen: AtomicBool::new(false),
        compiles: AtomicU32::new(0),
    });
    reg.insert(hash, Arc::clone(&entry));
    let dir = cache_dir();
    let loaded = load_cached(&dir, hash);
    drop(reg);
    match loaded {
        Some(k) => {
            let _ = entry.cell.set(Ok(k));
        }
        None => enqueue(Job {
            dir,
            source: source.to_string(),
            cc,
            entry: Arc::clone(&entry),
        }),
    }
    Ok(KernelHandle(entry))
}

/// Maps `hash`'s artifact from `dir` when one is there and loads. A corrupt
/// one is deleted, so the compile this falls through to replaces it.
fn load_cached(dir: &Path, hash: u64) -> Option<Arc<JitKernel>> {
    let so_path = dir.join(format!("{hash:016x}.so"));
    if !so_path.exists() {
        return None;
    }
    match load_kernel(&so_path, hash) {
        Ok(k) => {
            count_cache_hit();
            Some(k)
        }
        Err(_) => {
            let _ = std::fs::remove_file(&so_path);
            None
        }
    }
}

/// Loads `hash`'s artifact from `dir`, compiling it there if missing and
/// recovering (delete + recompile once) when an existing artifact fails to
/// load: the compile thread's job, counting each compile in `compiles`.
/// Exposed to unit tests via an explicit directory.
pub(crate) fn load_or_compile_in(
    dir: &Path,
    source: &str,
    cc: &CcInfo,
    hash: u64,
    compiles: &AtomicU32,
) -> Result<Arc<JitKernel>, Decline> {
    if let Some(k) = load_cached(dir, hash) {
        return Ok(k);
    }
    compiles.fetch_add(1, Ordering::Relaxed);
    compile_into(dir, source, cc, hash).map_err(|e| Decline::new(DeclineKind::CompileFailed, e))?;
    let so_path = dir.join(format!("{hash:016x}.so"));
    load_kernel(&so_path, hash).map_err(|e| {
        let _ = std::fs::remove_file(&so_path);
        Decline::new(
            DeclineKind::DlopenFailed,
            format!("dlopen of freshly compiled kernel failed: {e}"),
        )
    })
}

// --- compile queue --------------------------------------------------------------

/// A queued compile: the source, where its artifact goes, and the entry
/// the result fills.
struct Job {
    dir: PathBuf,
    source: String,
    cc: &'static CcInfo,
    entry: Arc<Entry>,
}

/// The compile thread's FIFO. `busy` is set while a popped job runs, so
/// an empty queue alone does not mean idle.
struct Queue {
    jobs: VecDeque<Job>,
    busy: bool,
    started: bool,
}

static QUEUE: Mutex<Queue> = Mutex::new(Queue {
    jobs: VecDeque::new(),
    busy: false,
    started: false,
});

/// Signalled whenever a job is queued or finishes.
static QUEUE_CHANGED: Condvar = Condvar::new();

fn enqueue(job: Job) {
    let mut q = lock(&QUEUE);
    q.jobs.push_back(job);
    if !q.started {
        // Detached on purpose: it serves the process until exit, its jobs
        // cannot panic out of `run_job`, and `wait_idle` is how callers
        // wait for it.
        let thread = std::thread::Builder::new()
            .name("sdfg-jit-cc".into())
            .spawn(compile_loop);
        if thread.is_err() {
            // No thread to hand it to: compile here, as a blocking request
            // would have.
            let job = q.jobs.pop_back().expect("job just queued");
            drop(q);
            return run_job(job);
        }
        q.started = true;
        install_exit_hook();
    }
    QUEUE_CHANGED.notify_all();
}

fn run_job(job: Job) {
    let Job {
        dir,
        source,
        cc,
        entry,
    } = job;
    let hash = entry.hash;
    let compiles = &entry.compiles;
    let res = std::panic::catch_unwind(|| load_or_compile_in(&dir, &source, cc, hash, compiles))
        .unwrap_or_else(|_| {
            Err(Decline::new(
                DeclineKind::CompileFailed,
                "kernel compile panicked",
            ))
        });
    let _ = entry.cell.set(res);
}

fn compile_loop() {
    let mut q = lock(&QUEUE);
    loop {
        let Some(job) = q.jobs.pop_front() else {
            q = QUEUE_CHANGED.wait(q).unwrap_or_else(|p| p.into_inner());
            continue;
        };
        q.busy = true;
        drop(q);
        run_job(job);
        q = lock(&QUEUE);
        q.busy = false;
        QUEUE_CHANGED.notify_all();
    }
}

/// Blocks until every kernel compile queued so far has finished — loaded
/// or failed — so the next launch of each runs on its final tier. Returns
/// at once when nothing is queued.
pub fn wait_idle() {
    let mut q = lock(&QUEUE);
    while q.busy || !q.jobs.is_empty() {
        q = QUEUE_CHANGED.wait(q).unwrap_or_else(|p| p.into_inner());
    }
}

// --- the compiler process --------------------------------------------------------

/// The compiler process group currently running, and whether the process
/// is exiting (after which no compiler may start).
struct Inflight {
    pgid: Option<u32>,
    exiting: bool,
}

static INFLIGHT: Mutex<Inflight> = Mutex::new(Inflight {
    pgid: None,
    exiting: false,
});

/// Runs one compiler invocation in a process group of its own, registered
/// with the exit hook while it runs.
fn run_compiler(cmd: &mut std::process::Command) -> std::io::Result<std::process::Output> {
    use std::process::Stdio;
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    #[cfg(unix)]
    std::os::unix::process::CommandExt::process_group(cmd, 0);
    let child = {
        let mut inflight = lock(&INFLIGHT);
        if inflight.exiting {
            return Err(std::io::Error::other("process is exiting"));
        }
        let child = cmd.spawn()?;
        inflight.pgid = Some(child.id());
        child
    };
    let out = child.wait_with_output();
    lock(&INFLIGHT).pgid = None;
    out
}

#[cfg(unix)]
mod sys {
    use std::os::raw::c_int;

    extern "C" {
        pub fn atexit(hook: extern "C" fn()) -> c_int;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
    }

    pub const SIGKILL: c_int = 9;
    pub const ESRCH: i32 = 3;
}

/// Exit hook: no compiler starts from here on, and the running one is
/// killed with its whole group (`cc` itself, `cc1`, `as`, `ld`).
extern "C" fn kill_inflight_compiler() {
    let mut inflight = lock(&INFLIGHT);
    inflight.exiting = true;
    #[cfg(unix)]
    if let Some(pgid) = inflight.pgid.and_then(|p| i32::try_from(p).ok()) {
        // SAFETY: signals the group this process created for its compiler.
        unsafe {
            sys::kill(-pgid, sys::SIGKILL);
        }
    }
}

fn install_exit_hook() {
    // SAFETY: registers a plain `extern "C"` function that never unwinds.
    #[cfg(unix)]
    unsafe {
        sys::atexit(kill_inflight_compiler);
    };
}

/// Whether `pid` names a live process (assumed so where that cannot be
/// asked).
fn process_alive(pid: u32) -> bool {
    #[cfg(unix)]
    {
        let Ok(pid) = i32::try_from(pid) else {
            return false;
        };
        // SAFETY: signal 0 only checks that the process exists.
        if unsafe { sys::kill(pid, 0) } == 0 {
            return true;
        }
        std::io::Error::last_os_error().raw_os_error() != Some(sys::ESRCH)
    }
    #[cfg(not(unix))]
    {
        let _ = pid;
        true
    }
}

/// Removes `stem`'s compile directories (`<stem>.tmp.<pid>`) left by
/// processes that exited mid-compile.
fn remove_dead_leftovers(dir: &Path, stem: &str) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let pid = name
            .to_str()
            .and_then(|n| n.strip_prefix(stem))
            .and_then(|rest| rest.strip_prefix(".tmp."));
        if pid.is_some_and(|pid| pid.parse().is_ok_and(|pid| !process_alive(pid))) {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
}

/// Compiles `source` into `dir/<hash>.so`, dropping the `.c` next to it
/// for debuggability. The compiler works in a directory of its own,
/// `<hash>.tmp.<pid>`, which is also its `TMPDIR`: whatever a compile
/// killed at exit leaves behind stays there until the next compile of the
/// hash removes it, and the source and the artifact are renamed into place
/// from it.
fn compile_into(dir: &Path, source: &str, cc: &CcInfo, hash: u64) -> Result<(), String> {
    let stem = format!("{hash:016x}");
    let work = dir.join(format!("{stem}.tmp.{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cache dir {}: {e}", dir.display()))?;
    remove_dead_leftovers(dir, &stem);
    let res = compile_in(&work, dir, &stem, source, cc);
    let _ = std::fs::remove_dir_all(&work);
    res
}

fn compile_in(
    work: &Path,
    dir: &Path,
    stem: &str,
    source: &str,
    cc: &CcInfo,
) -> Result<(), String> {
    let c_tmp = work.join("kernel.c");
    let so_tmp = work.join("kernel.so");
    let c_path = dir.join(format!("{stem}.c"));
    let so_path = dir.join(format!("{stem}.so"));
    std::fs::write(&c_tmp, source).map_err(|e| format!("write {}: {e}", c_tmp.display()))?;
    let _ = std::fs::rename(&c_tmp, &c_path);
    let t0 = std::time::Instant::now();
    let out = run_compiler(
        std::process::Command::new(&cc.path)
            .args(CFLAGS)
            .arg("-o")
            .arg(&so_tmp)
            .arg(&c_path)
            .arg("-lm")
            .env("TMPDIR", work),
    )
    .map_err(|e| format!("spawn {}: {e}", cc.path))?;
    let ms = t0.elapsed().as_millis() as u64;
    sdfg_profile::metrics::core().jit_compile_ms.add(ms);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let head: String = stderr.lines().take(4).collect::<Vec<_>>().join("; ");
        return Err(format!("{} failed ({}): {head}", cc.path, out.status));
    }
    std::fs::rename(&so_tmp, &so_path).map_err(|e| format!("rename {}: {e}", so_path.display()))?;
    sdfg_profile::metrics::core().jit_compiles.inc();
    Ok(())
}

// --- dlopen binding -----------------------------------------------------------

#[cfg(unix)]
mod dl {
    use std::os::raw::{c_char, c_int, c_void};

    #[link(name = "dl")]
    extern "C" {
        pub fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
        pub fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        pub fn dlerror() -> *mut c_char;
    }

    pub const RTLD_NOW: c_int = 2;
}

#[cfg(unix)]
fn load_kernel(so_path: &Path, hash: u64) -> Result<Arc<JitKernel>, String> {
    use std::ffi::{CStr, CString};
    let entry = sdfg_codegen::jit::NEST_ENTRY;
    let path = CString::new(so_path.to_string_lossy().as_bytes())
        .map_err(|_| "NUL in artifact path".to_string())?;
    let entry_c = CString::new(entry).map_err(|_| "NUL in entry name".to_string())?;
    // SAFETY: plain libdl calls; the handle is intentionally leaked so the
    // mapped code outlives every plan that may cache the function pointer.
    unsafe {
        dl::dlerror(); // clear any stale error
        let handle = dl::dlopen(path.as_ptr(), dl::RTLD_NOW);
        if handle.is_null() {
            return Err(dl_error_string());
        }
        let sym = dl::dlsym(handle, entry_c.as_ptr());
        if sym.is_null() {
            return Err(format!("symbol `{entry}` missing: {}", dl_error_string()));
        }
        let _ = CStr::from_ptr(path.as_ptr()); // keep the binding obviously alive
        Ok(Arc::new(JitKernel { hash, sym }))
    }
}

#[cfg(unix)]
fn dl_error_string() -> String {
    // SAFETY: dlerror returns a static, thread-local C string (or NULL).
    unsafe {
        let p = dl::dlerror();
        if p.is_null() {
            "unknown dlopen error".to_string()
        } else {
            std::ffi::CStr::from_ptr(p).to_string_lossy().into_owned()
        }
    }
}

#[cfg(not(unix))]
fn load_kernel(_so_path: &Path, _hash: u64) -> Result<Arc<JitKernel>, String> {
    Err("dynamic loading unsupported on this platform".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// The compile counters are process-global and these tests assert
    /// exact deltas, so every test that can invoke the compiler holds this.
    fn counters() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn test_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let d = std::env::temp_dir().join(format!(
            "sdfg-jit-test-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// A trivial hand-written 1-D nest over the ABI: port 0 → port 1,
    /// `out[i0] = 2*in[i0] + 1`.
    const SRC: &str = "#include <math.h>\n\
        void sdfg_nest(double *const *bufs, const long long *geo,\n\
                       const double *syms, const long long *bnd,\n\
                       long long lo0, long long hi0, long long *npts) {\n\
          (void)syms; (void)bnd;\n\
          for (long long i0 = lo0; i0 < hi0; ++i0)\n\
            bufs[geo[3]][geo[4] + i0 * geo[5]] =\n\
              2.0 * bufs[geo[0]][geo[1] + i0 * geo[2]] + 1.0;\n\
          *npts = hi0 - lo0;\n\
        }\n";

    /// Requests `src` and waits for its compile: the loaded kernel.
    fn compiled(src: &str) -> Arc<JitKernel> {
        let handle = get_or_compile(src).unwrap();
        wait_idle();
        let done = handle.get().expect("compile finished after wait_idle");
        done.clone().unwrap()
    }

    fn call(kern: &JitKernel, input: &[f64], out: &mut [f64]) {
        let bufs = [input.as_ptr() as *mut f64, out.as_mut_ptr()];
        // Two geo rows of width 3: [buf, base, c0].
        let geo = [0i64, 0, 1, 1, 0, 1];
        let mut npts = 0i64;
        // SAFETY: unit-stride offsets stay within the slices for
        // i0 ∈ [0, len); the input is only read.
        unsafe {
            (kern.func())(
                bufs.as_ptr(),
                geo.as_ptr(),
                std::ptr::null(),
                std::ptr::null(),
                0,
                input.len() as i64,
                &mut npts,
            );
        }
        assert_eq!(npts, input.len() as i64);
    }

    #[test]
    fn hash_covers_source_and_compiler() {
        let cc1 = CcInfo {
            path: "cc".into(),
            version: "cc 1.0".into(),
        };
        let cc2 = CcInfo {
            path: "cc".into(),
            version: "cc 2.0".into(),
        };
        let h = kernel_hash("int x;", &cc1);
        assert_eq!(h, kernel_hash("int x;", &cc1), "deterministic");
        assert_ne!(h, kernel_hash("int y;", &cc1), "source-sensitive");
        assert_ne!(h, kernel_hash("int x;", &cc2), "compiler-sensitive");
    }

    #[test]
    fn compile_load_call_roundtrip() {
        let Some(cc) = cc() else { return };
        let _g = counters();
        let dir = test_dir("abi");
        let hash = kernel_hash(SRC, cc);
        let kern = load_or_compile_in(&dir, SRC, cc, hash, &AtomicU32::new(0)).unwrap();
        let input = [0.0, 1.0, 2.5, -3.0];
        let mut out = [0.0; 4];
        call(&kern, &input, &mut out);
        assert_eq!(out, [1.0, 3.0, 6.0, -5.0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_cache_hit_miss_and_corrupt_recovery() {
        let Some(cc) = cc() else { return };
        let _g = counters();
        let dir = test_dir("cache");
        let hash = kernel_hash(SRC, cc);
        let so = dir.join(format!("{hash:016x}.so"));

        // A corrupt artifact left behind by another process: the loader
        // must recover by recompiling in place. (Corrupting a file this
        // process already mapped would be undefined — the dynamic loader
        // dedups by inode and keeps the pages mapped — so the test models
        // the only corruption that can really happen: before first load.)
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&so, b"not a shared object").unwrap();
        let before = stats();
        let kern = load_or_compile_in(&dir, SRC, cc, hash, &AtomicU32::new(0)).unwrap();
        let mut out = [0.0];
        call(&kern, &[4.0], &mut out);
        assert_eq!(out, [9.0]);
        let after_miss = stats();
        assert_eq!(
            after_miss.compiles,
            before.compiles + 1,
            "corrupt artifact recompiled"
        );
        assert!(so.exists(), "artifact persisted");

        // Warm hit: the artifact is mapped without invoking the compiler.
        load_or_compile_in(&dir, SRC, cc, hash, &AtomicU32::new(0)).unwrap();
        let after_hit = stats();
        assert_eq!(after_hit.compiles, after_miss.compiles, "hit: no compile");
        assert_eq!(after_hit.cache_hits, after_miss.cache_hits + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_shares_one_compilation_across_threads() {
        if cc().is_none() {
            return;
        }
        // A source unique to this run of the test, so neither the registry
        // nor the artifact cache has it yet.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let src = format!("{SRC}/* registry-test-{}-{nanos} */\n", std::process::id());
        let handles: Vec<_> = std::thread::scope(|s| {
            (0..8)
                .map(|_| s.spawn(|| get_or_compile(&src).unwrap()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        wait_idle();
        let kernels: Vec<_> = handles
            .iter()
            .map(|h| h.get().expect("compiled").clone().unwrap())
            .collect();
        assert!(kernels.iter().all(|k| Arc::ptr_eq(k, &kernels[0])));
        // The entry's own count: other tests compile concurrently, so the
        // process-wide counter says nothing about this entry.
        assert_eq!(
            handles[0].0.compiles.load(Ordering::Relaxed),
            1,
            "eight concurrent requests, one compilation"
        );
    }

    #[test]
    fn compile_removes_dead_processes_leftovers() {
        let Some(cc) = cc() else { return };
        let _g = counters();
        let dir = test_dir("leftovers");
        let hash = kernel_hash(SRC, cc);
        let stem = format!("{hash:016x}");
        // A pid that has certainly exited: a reaped child of ours.
        let mut child = std::process::Command::new(&cc.path)
            .arg("--version")
            .stdout(std::process::Stdio::null())
            .spawn()
            .unwrap();
        child.wait().unwrap();
        let dead = child.id();
        // The compile directory of a process killed mid-compile, one of a
        // live process (pid 1), and another kernel's.
        let dead_dir = dir.join(format!("{stem}.tmp.{dead}"));
        let live_dir = dir.join(format!("{stem}.tmp.1"));
        let other = dir.join(format!("{:016x}.tmp.{dead}", hash ^ 1));
        for d in [&dead_dir, &live_dir, &other] {
            std::fs::create_dir_all(d).unwrap();
            std::fs::write(d.join("ccq8Wx1v.s"), b"partial").unwrap();
        }
        load_or_compile_in(&dir, SRC, cc, hash, &AtomicU32::new(0)).unwrap();
        assert!(!dead_dir.exists(), "a dead process's leftovers were kept");
        assert!(live_dir.exists(), "a live process's directory was removed");
        assert!(other.exists(), "another kernel's directory was removed");
        let own = dir.join(format!("{stem}.tmp.{}", std::process::id()));
        assert!(!own.exists(), "the compile left its own directory behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fallback_counters_accumulate() {
        let before = stats().fallbacks;
        record_fallback(
            0xabcd,
            "state0/map",
            "nest-unsupported-body",
            "indexed access",
        );
        assert_eq!(stats().fallbacks, before + 1);
    }

    #[test]
    fn nest_kernel_roundtrip_triangular() {
        // Emit a real triangular nest through the emitter, compile it,
        // and run one tile: for i ∈ [0,4), for j ∈ [0,i): A[4i+j] += 1·1.
        use sdfg_codegen::jit::{
            emit_nest_kernel, JitOutMode, JitWcrOp, NestItem, NestOut, NestSpec, NestTasklet,
        };
        if cc().is_none() {
            return;
        }
        let prog = sdfg_lang::TaskletProgram::compile("o = 0.5 + 0.5", &[], &["o".into()]).unwrap();
        let spec = NestSpec {
            ndims: 2,
            nports: 1,
            tasklets: vec![NestTasklet {
                prog: &prog,
                ins: vec![],
                outs: vec![NestOut {
                    port: 0,
                    mode: JitOutMode::CombinePerPoint(JitWcrOp::Sum),
                }],
            }],
            body: vec![NestItem::Loop {
                dim: 1,
                step: 1,
                body: vec![NestItem::Call(0)],
            }],
            ..Default::default()
        };
        let src = emit_nest_kernel(&spec).unwrap();
        let _g = counters();
        let kern = compiled(&src);
        let mut a = [0.0f64; 16];
        let bufs = [a.as_mut_ptr()];
        // geo row (width 4): buf 0, base 0, coeffs (4, 1) → A[4i+j].
        let geo = [0i64, 0, 4, 1];
        // bnd rows (width 3): dim-0 rows unused; dim 1 is j ∈ [0, i).
        let bnd = [0i64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0];
        let mut npts = 0i64;
        // SAFETY: geometry above stays inside `a` for i ∈ [0,4).
        unsafe {
            (kern.func())(
                bufs.as_ptr(),
                geo.as_ptr(),
                std::ptr::null(),
                bnd.as_ptr(),
                0,
                4,
                &mut npts,
            );
        }
        // Strict lower triangle of the 4×4 view gets +1.
        for i in 0..4 {
            for j in 0..4 {
                let want = if j < i { 1.0 } else { 0.0 };
                assert_eq!(a[4 * i + j], want, "A[{i}][{j}]");
            }
        }
        assert_eq!(npts, 6);
    }
}

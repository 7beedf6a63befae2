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
//!    same kernel block on one compilation and share the artifact);
//! 2. an on-disk artifact cache (`SDFG_JIT_CACHE`, default
//!    `$TMPDIR/sdfg-jit-cache`) holding `<hash>.so` + `<hash>.c`, written
//!    atomically (temp file + rename) so concurrent processes are safe;
//! 3. the lowered plan itself, which stores the `Arc<JitKernel>` in the
//!    `PlanCache` (see `crate::lower`).
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
//! `SDFG_JIT=off` disables the tier for the whole process. The `dlopen`
//! binding is a raw `extern "C"` declaration against libdl, keeping the
//! workspace std-only; loaded handles are intentionally never closed
//! (kernels may be cached in plans that outlive any one executor).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
    /// The generated code performs no bounds checks: the caller must
    /// pre-validate every address the nest can reach through its `geo` and
    /// `bnd` rows, and `syms` must hold one value per program symbol.
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
/// entirely. Read once — per-executor/tuned overrides layer on top.
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

#[derive(Default)]
struct Cells {
    compiles: AtomicU64,
    cache_hits: AtomicU64,
    fallbacks: AtomicU64,
    compile_ms: AtomicU64,
}

fn cells() -> &'static Cells {
    static CELLS: OnceLock<Cells> = OnceLock::new();
    CELLS.get_or_init(Cells::default)
}

/// Cumulative JIT runtime counters (process-wide).
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
}

/// Snapshot of the process-wide counters.
pub fn stats() -> JitStats {
    let c = cells();
    JitStats {
        compiles: c.compiles.load(Ordering::Relaxed),
        cache_hits: c.cache_hits.load(Ordering::Relaxed),
        fallbacks: c.fallbacks.load(Ordering::Relaxed),
        compile_ms: c.compile_ms.load(Ordering::Relaxed),
    }
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
    /// Whole-nest sites (`nest`: collapsed loops, scheduler tiles) and the
    /// per-map innermost-span decision keep the two spellings their
    /// records have always used.
    pub fn reason(self, nest: bool) -> &'static str {
        use DeclineKind::*;
        match (self, nest) {
            (Structure, true) => "nest-unsupported-structure",
            (Bounds, true) => "nest-nonaffine-bounds",
            (Body, true) => "nest-unsupported-body",
            (NoCompiler | CompileFailed | DlopenFailed, true) => "nest-compile-failed",
            (Structure | Bounds | Body, false) => "unsupported_body",
            (NoCompiler, false) => "no_compiler",
            (CompileFailed, false) => "compile_failed",
            (DlopenFailed, false) => "dlopen_failed",
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
    /// [`record_fallback`]; `nest` picks the reason spelling).
    pub fn record(&self, content_hash: u64, map: &str, nest: bool) {
        record_fallback(content_hash, map, self.kind.reason(nest), &self.detail);
    }
}

/// Records one JIT fallback: bumps the counters and appends a
/// `jit_fallback` ledger record (`reason` is a [`DeclineKind::reason`]
/// name).
pub fn record_fallback(content_hash: u64, map: &str, reason: &str, detail: &str) {
    cells().fallbacks.fetch_add(1, Ordering::Relaxed);
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

type Slot = Arc<OnceLock<Result<Arc<JitKernel>, Decline>>>;

fn registry() -> &'static Mutex<HashMap<u64, Slot>> {
    static REG: OnceLock<Mutex<HashMap<u64, Slot>>> = OnceLock::new();
    REG.get_or_init(Mutex::default)
}

/// Returns the loaded kernel for `source`, compiling at most once per
/// process per hash (concurrent callers for the same hash block on the
/// first compilation and share its result — including its failure, so a
/// broken kernel is not retried every launch).
pub fn get_or_compile(source: &str) -> Result<Arc<JitKernel>, Decline> {
    let cc = cc().ok_or_else(|| {
        Decline::new(
            DeclineKind::NoCompiler,
            "no C compiler found (cc/gcc/clang)",
        )
    })?;
    let hash = kernel_hash(source, cc);
    let slot: Slot = {
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        reg.entry(hash).or_default().clone()
    };
    let mut fresh = false;
    let res = slot.get_or_init(|| {
        fresh = true;
        load_or_compile_in(&cache_dir(), source, cc, hash)
    });
    if !fresh && res.is_ok() {
        cells().cache_hits.fetch_add(1, Ordering::Relaxed);
        sdfg_profile::metrics::core().jit_cache_hits.inc();
    }
    res.clone()
}

/// Loads `hash`'s artifact from `dir`, compiling it there if missing and
/// recovering (delete + recompile once) when an existing artifact fails to
/// load. Exposed to unit tests via an explicit directory.
pub(crate) fn load_or_compile_in(
    dir: &Path,
    source: &str,
    cc: &CcInfo,
    hash: u64,
) -> Result<Arc<JitKernel>, Decline> {
    let so_path = dir.join(format!("{hash:016x}.so"));
    if so_path.exists() {
        match load_kernel(&so_path, hash) {
            Ok(k) => {
                cells().cache_hits.fetch_add(1, Ordering::Relaxed);
                sdfg_profile::metrics::core().jit_cache_hits.inc();
                return Ok(k);
            }
            Err(_) => {
                // Corrupt artifact: remove and recompile once.
                let _ = std::fs::remove_file(&so_path);
            }
        }
    }
    compile_into(dir, source, cc, hash).map_err(|e| Decline::new(DeclineKind::CompileFailed, e))?;
    load_kernel(&so_path, hash).map_err(|e| {
        let _ = std::fs::remove_file(&so_path);
        Decline::new(
            DeclineKind::DlopenFailed,
            format!("dlopen of freshly compiled kernel failed: {e}"),
        )
    })
}

/// Compiles `source` into `dir/<hash>.so` (atomic rename; also drops the
/// `.c` next to it for debuggability).
fn compile_into(dir: &Path, source: &str, cc: &CcInfo, hash: u64) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cache dir {}: {e}", dir.display()))?;
    let stem = format!("{hash:016x}");
    let tag = format!("tmp.{}", std::process::id());
    let c_tmp = dir.join(format!("{stem}.c.{tag}"));
    let c_path = dir.join(format!("{stem}.c"));
    let so_tmp = dir.join(format!("{stem}.so.{tag}"));
    let so_path = dir.join(format!("{stem}.so"));
    std::fs::write(&c_tmp, source).map_err(|e| format!("write {}: {e}", c_tmp.display()))?;
    let _ = std::fs::rename(&c_tmp, &c_path);
    let t0 = std::time::Instant::now();
    let out = std::process::Command::new(&cc.path)
        .args(CFLAGS)
        .arg("-o")
        .arg(&so_tmp)
        .arg(&c_path)
        .arg("-lm")
        .output()
        .map_err(|e| format!("spawn {}: {e}", cc.path))?;
    let ms = t0.elapsed().as_millis() as u64;
    cells().compile_ms.fetch_add(ms, Ordering::Relaxed);
    if !out.status.success() {
        let _ = std::fs::remove_file(&so_tmp);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let head: String = stderr.lines().take(4).collect::<Vec<_>>().join("; ");
        return Err(format!("{} failed ({}): {head}", cc.path, out.status));
    }
    std::fs::rename(&so_tmp, &so_path).map_err(|e| format!("rename {}: {e}", so_path.display()))?;
    cells().compiles.fetch_add(1, Ordering::Relaxed);
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
        let kern = load_or_compile_in(&dir, SRC, cc, hash).unwrap();
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
        let kern = load_or_compile_in(&dir, SRC, cc, hash).unwrap();
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
        load_or_compile_in(&dir, SRC, cc, hash).unwrap();
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
        let _g = counters();
        // A source unique to this test so the registry slot is fresh.
        let src = format!("{SRC}/* registry-test-{} */\n", std::process::id());
        let before = stats().compiles;
        let kernels: Vec<_> = std::thread::scope(|s| {
            (0..8)
                .map(|_| s.spawn(|| get_or_compile(&src).unwrap()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let first = kernels[0].hash;
        assert!(kernels.iter().all(|k| k.hash == first));
        assert_eq!(
            stats().compiles,
            before + 1,
            "eight concurrent requests, one compilation"
        );
    }

    #[test]
    fn fallback_counters_accumulate() {
        let before = stats().fallbacks;
        record_fallback(0xabcd, "state0/map", "unsupported_body", "indexed access");
        assert_eq!(stats().fallbacks, before + 1);
    }

    #[test]
    fn nest_kernel_roundtrip_triangular() {
        // Emit a real triangular nest through the emitter, compile it,
        // and run one tile: for i ∈ [0,4), for j ∈ [0,i): A[4i+j] += 1·1.
        use sdfg_codegen::jit::{
            emit_nest_kernel, JitBody, JitOutMode, JitWcrOp, NestItem, NestOut, NestSpec,
            NestTasklet,
        };
        use sdfg_lang::recognize::{BinOpKind, Operand, Pattern};
        if cc().is_none() {
            return;
        }
        let spec = NestSpec {
            ndims: 2,
            nports: 1,
            tasklets: vec![NestTasklet {
                body: JitBody::Pattern(Pattern::BinOp {
                    op: BinOpKind::Add,
                    a: Operand::Const(0.5),
                    b: Operand::Const(0.5),
                }),
                ins: vec![],
                outs: vec![NestOut {
                    port: 0,
                    mode: JitOutMode::CombinePerPoint(JitWcrOp::Sum),
                }],
            }],
            body: vec![NestItem::Loop {
                dim: 1,
                body: vec![NestItem::Call(0)],
            }],
        };
        let src = emit_nest_kernel(&spec).unwrap();
        let _g = counters();
        let kern = get_or_compile(&src).unwrap();
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

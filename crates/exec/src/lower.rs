//! The unified tasklet lowering pipeline.
//!
//! Each map body has one lowering decision, made *once per map plan* and
//! stored in it: its static tier. The JIT tier above it is one kernel per
//! map (`crate::nest`), cached per `(state, node)` in the execution plan
//! and launched by `exec_map`. The tiers, fastest first:
//!
//! 1. **JIT** — the map's nest, or the longest suffix of its dimensions
//!    the nest builder lowers, emitted as C, compiled by the probed system
//!    compiler and `dlopen`ed ([`crate::jit`]): one native call per serial
//!    launch or tile, or per interpreted prefix row where the kernel covers
//!    only a suffix.
//! 2. **Micro-kernel** — the hand-written Rust loops in `crate::tasklet`
//!    for recognized forms.
//! 3. **Affine VM** — the bytecode VM over pre-solved affine offsets.
//! 4. **Symbolic** — per-point subset evaluation; always correct.
//!
//! The decision is *monotone*: a map lowered to tier N may still fall
//! through to tier N+1 at run time (a window that fails to resolve for a
//! particular launch, an out-of-bounds offset the legacy tiers clamp), so
//! the chosen tier is a ceiling, never a promise that skips correctness
//! checks. The static tier is decided at plan time from the body alone,
//! and is the [`sdfg_profile::Tier`] the profile and the lowering report
//! name it by (never [`Tier::Jit`], which is the map's kernel).
//! The hotness gate (`JIT_MIN_POINTS`) decides compiles, not calls: the
//! first launch whose actual extents (`Worker::volume`) reach it requests
//! the map's kernel, and once that kernel has loaded every launch asks it,
//! the cold ones included, so a map whose range follows a loop symbol
//! (`0:k`) shares one plan and one kernel across the whole loop. Whether a
//! launch runs on the kernel is then the kernel's own admission
//! (`MapNestPlan::takes`, and `marshal` on the launch's values); until its
//! compile finishes, and wherever it declines, launches run on the static
//! tier.
//!
//! Bitwise discipline: every tier computes the interpreter's arithmetic,
//! so any of them may run any launch. The micro-kernels only take forms
//! they evaluate exactly as the source reads (see `sdfg_lang::recognize`),
//! the JIT emits every body as a copy of the tasklet VM's statements and
//! compiles it with `-ffp-contract=off`, and register reductions on either
//! tier seed from the output element, as the interpreter's per-point
//! combine does. A kernel whose combines the race analysis marked atomic
//! only runs on a launch outside any parallel tile (where a plain combine
//! gives the same bits), and any body the pipeline cannot emit is rejected
//! with a recorded reason.

use crate::engine::{Ctx, ExecError, Worker};
use crate::tasklet::{try_native_loop, try_vm_loop, vm_eligible, BodyTasklet};
use sdfg_graph::NodeId;
use sdfg_profile::Tier;
use std::sync::Arc;

/// Launches whose trip count (enclosing scopes included) is below this are
/// not worth a compiler invocation: they request no kernel. Once a hotter
/// launch's kernel has loaded, they call it like any other launch it
/// admits. Extents that depend on a map parameter or a connector count as
/// hot.
pub(crate) const JIT_MIN_POINTS: i64 = 256;

/// One map's lowering decision, as surfaced by
/// [`crate::Outputs::lowering_report`].
#[derive(Clone, Debug)]
pub struct MapLowering {
    /// State id the map lives in.
    pub state: u32,
    /// Map-entry node id.
    pub node: u32,
    /// Map label (for humans).
    pub label: String,
    /// Chosen tier name: `jit`, `native`, `affine-vm`, `symbolic`.
    pub tier: &'static str,
    /// Why the JIT tier was declined, when it was.
    pub jit_reason: Option<String>,
    /// Why a parallel-scheduled launch of the map ran serially, when the
    /// determinism gate or the race check first kept one serial: the
    /// output kind that would combine in arrival order (`stream output`,
    /// `write log`, `atomic WCR`, `generic body with a shared write`) or
    /// a read of what other points write.
    pub serial_reason: Option<String>,
}

/// Decides the static (pre-JIT) tier of a map body at plan-build time: the
/// tier the try-in-order dispatch reaches when every window resolves.
/// Multi-tasklet bodies run per point; each tasklet may still use its own
/// fast path inside `run_tasklet_point`.
pub(crate) fn decide_lowering(worker: &Worker, ts: &[(NodeId, Arc<BodyTasklet>)]) -> Tier {
    match ts {
        [(_, bt)] if bt.native.is_some() => Tier::NativeKernel,
        [(_, bt)] if vm_eligible(bt, worker.pstack.last()) => Tier::AffineVm,
        _ => Tier::Symbolic,
    }
}

/// Lowering-report reason of a run with the JIT tier switched off.
pub(crate) const JIT_OFF: &str = "JIT disabled";

/// Lowering-report reason of a multi-tasklet map body, which only a
/// collapsed loop lowers as a whole.
pub(crate) const MULTI_TASKLET: &str = "multi-tasklet body runs per point";

/// Lowering-report reason of a map no launch has requested a kernel for.
pub(crate) fn cold_map() -> String {
    format!("cold map (no launch reached {JIT_MIN_POINTS} points)")
}

/// Lowering-report reason of a generic map body no serial top-level
/// launch has lowered.
pub(crate) const GENERIC_BODY: &str =
    "generic map body: only a serial top-level launch lowers it as one nest";

/// Runs the innermost dimension `dim` of a single-tasklet map over
/// `[s, e)` on step `st` on the interpreted tiers, starting at the static
/// tier `tier` and falling through in monotone order (`native` →
/// `affine-vm`) whenever a launch-time precondition fails. `Ok(false)`
/// leaves the span to the caller's per-point symbolic loop.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_inner_span(
    ctx: &Ctx,
    mut tier: Tier,
    bt: &BodyTasklet,
    worker: &mut Worker,
    dim: usize,
    s: i64,
    e: i64,
    st: i64,
) -> Result<bool, ExecError> {
    let t0 = worker.tier_clock();
    loop {
        let (ran, next) = match tier {
            Tier::NativeKernel => (
                try_native_loop(ctx, bt, worker, dim, s, e, st)?,
                Tier::AffineVm,
            ),
            Tier::AffineVm => (try_vm_loop(ctx, bt, worker, dim, s, e, st)?, Tier::Symbolic),
            // `Jit` is never a static tier.
            Tier::Symbolic | Tier::Jit => return Ok(false),
        };
        if ran.is_some() {
            worker.tier_record(t0, tier);
            return Ok(true);
        }
        tier = next;
    }
}

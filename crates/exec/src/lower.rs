//! The unified tasklet lowering pipeline.
//!
//! Historically the executor chose between its three execution tiers —
//! native micro-kernels, the affine VM loop, and the symbolic fallback —
//! ad hoc at dispatch time, by trying each in order on every inner-loop
//! launch. This module makes the decision *once per map plan*, at compile
//! time, and records it as a `Lowered` value stored in the plan:
//!
//! 1. **JIT** — the body's innermost dimension becomes a 1-D nest
//!    (`crate::nest`), emitted as C, compiled by the probed system
//!    compiler and `dlopen`ed ([`crate::jit`]); the inner loop becomes one
//!    native call per row.
//! 2. **Micro-kernel** — the hand-written Rust loops in `crate::tasklet`
//!    for recognized patterns.
//! 3. **Affine VM** — the bytecode VM over pre-solved affine offsets.
//! 4. **Symbolic** — per-point subset evaluation; always correct.
//!
//! The decision is *monotone*: a map lowered to tier N may still fall
//! through to tier N+1 at run time (a window that fails to resolve for a
//! particular launch, an out-of-bounds offset the legacy tiers clamp), so
//! the chosen tier is a ceiling, never a promise that skips correctness
//! checks. The static tier is decided at plan time from the body alone;
//! whether a launch is hot enough for the JIT tier is decided per launch
//! from the launch's actual extents (`Worker::volume`), so a map whose
//! range follows a loop symbol (`0:k`) shares one plan across the loop and
//! still crosses the gate exactly where a plan per iteration would have.
//! The kernel is built by the first hot launch and kept in the plan.
//!
//! Bitwise discipline: a JIT launch must produce bit-identical results to
//! the tier it replaces. The emitter mirrors the Rust loops statement for
//! statement, kernels compile with `-ffp-contract=off`, atomic WCR
//! combines are never mirrored in C (the final combine of a register
//! accumulation happens back in Rust, atomically when required), and any
//! body the pipeline cannot prove equivalent is rejected with a recorded
//! reason.

use crate::engine::{Ctx, ExecError, Worker};
use crate::nest::{self, NestCore};
use crate::tasklet::{try_native_loop, try_vm_loop, BodyTasklet, InPort, WindowPlan};
use sdfg_core::Wcr;
use sdfg_graph::NodeId;
use sdfg_profile::Tier;
use std::sync::{Arc, OnceLock};

/// Launches whose trip count (enclosing scopes included) is below this are
/// not worth a compiler invocation: they run on the static tier. Extents
/// that depend on a map parameter or a connector count as hot.
pub(crate) const JIT_MIN_POINTS: i64 = 256;

/// The execution tier a map body was lowered to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LowerTier {
    /// JIT-compiled native code.
    Jit,
    /// Hand-written Rust micro-kernel for a recognized pattern.
    MicroKernel,
    /// Affine VM loop (bytecode per point, O(1) offsets).
    AffineVm,
    /// Symbolic per-point fallback.
    Symbolic,
}

impl LowerTier {
    /// Short name for reports (`jit`, `native`, `affine-vm`, `symbolic`).
    pub fn name(self) -> &'static str {
        match self {
            LowerTier::Jit => "jit",
            LowerTier::MicroKernel => "native",
            LowerTier::AffineVm => "affine-vm",
            LowerTier::Symbolic => "symbolic",
        }
    }
}

/// The lowering decision for one map body, stored in the cached plan.
pub(crate) struct Lowered {
    /// The static tier: where launches below the hotness gate start, and
    /// where hot ones land when the JIT tier declines.
    pub(crate) tier: LowerTier,
    /// The innermost dimension as a compiled 1-D nest, or why it could not
    /// be one — set by the first hot launch. `None` when the JIT tier does
    /// not apply (disabled, or a multi-tasklet body).
    jit: Option<OnceLock<Result<NestCore, String>>>,
}

impl Lowered {
    fn new(tier: LowerTier, jit: bool) -> Lowered {
        Lowered {
            tier,
            jit: jit.then(OnceLock::new),
        }
    }

    /// Called once per launch of the map, on the launching worker, before
    /// any row runs: builds the kernel if this is the first hot launch.
    pub(crate) fn prepare(&self, ctx: &Ctx, worker: &Worker, label: &str, bt: &Arc<BodyTasklet>) {
        let Some(cell) = &self.jit else { return };
        if worker.volume < JIT_MIN_POINTS {
            return;
        }
        cell.get_or_init(|| {
            nest::build_span_nest(ctx, &worker.pstack, bt).map_err(|d| {
                d.record(ctx.chash, label, false);
                d.detail
            })
        });
    }

    /// The kernel a launch of `volume` points starts on, if any.
    fn kernel(&self, volume: i64) -> Option<&NestCore> {
        if volume < JIT_MIN_POINTS {
            return None;
        }
        self.jit.as_ref()?.get()?.as_ref().ok()
    }

    /// `(tier name, why the JIT tier was not chosen)` for the lowering
    /// report.
    pub(crate) fn report(&self) -> (&'static str, Option<String>) {
        match self.jit.as_ref().map(OnceLock::get) {
            None => (self.tier.name(), None),
            Some(Some(Ok(_))) => (LowerTier::Jit.name(), None),
            Some(Some(Err(detail))) => (self.tier.name(), Some(detail.clone())),
            Some(None) => {
                let reason = format!("cold map (no launch reached {JIT_MIN_POINTS} points)");
                (self.tier.name(), Some(reason))
            }
        }
    }
}

/// One map's lowering decision, as surfaced by
/// [`crate::Executor::lowering_report`].
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
}

/// The static (pre-JIT) tier of a single-tasklet map body: the tier the
/// legacy try-in-order dispatch would reach when every window resolves.
fn static_tier(bt: &BodyTasklet, innermost: Option<&String>) -> LowerTier {
    if bt.native.is_some() {
        return LowerTier::MicroKernel;
    }
    if vm_eligible(bt, innermost) {
        return LowerTier::AffineVm;
    }
    LowerTier::Symbolic
}

/// Static mirror of `try_vm_loop`'s eligibility gate.
fn vm_eligible(bt: &BodyTasklet, innermost: Option<&String>) -> bool {
    const MAX_PORTS: usize = 12;
    if bt.ins.len() > MAX_PORTS || bt.outs.len() > MAX_PORTS || bt.outs.is_empty() {
        return false;
    }
    if bt.prog.symbols.iter().any(|s| Some(s) == innermost) {
        return false;
    }
    let in_ok = |p: &InPort| {
        !p.stream && (p.window.is_scalar_fast() || matches!(p.window, WindowPlan::Full))
    };
    if !bt.ins.iter().all(in_ok) {
        return false;
    }
    bt.outs.iter().all(|o| {
        if matches!(o.wcr, Some(Wcr::Custom(_))) {
            return false;
        }
        if o.stream {
            return true;
        }
        if o.log {
            return matches!(o.window, WindowPlan::Full);
        }
        o.window.is_scalar_fast()
    })
}

/// Decides the static lowering tier of a map body at plan-build time.
pub(crate) fn decide_lowering(
    ctx: &Ctx,
    worker: &Worker,
    ts: &[(NodeId, Arc<BodyTasklet>)],
) -> Lowered {
    let [(_, bt)] = ts else {
        // Multi-tasklet bodies run per point; each tasklet may still use
        // its own fast path inside `run_tasklet_point`.
        return Lowered::new(LowerTier::Symbolic, false);
    };
    Lowered::new(static_tier(bt, worker.pstack.last()), ctx.jit)
}

/// Runs the innermost dimension `dim` of a single-tasklet map over
/// `[s, e)` on step `st`, starting at the JIT tier when the launch is hot
/// and its kernel exists, at the static tier otherwise, and falling
/// through in monotone order (`jit` → `native` → `affine-vm`) whenever a
/// launch-time precondition fails. `Ok(false)` leaves the span
/// to the caller's per-point symbolic loop.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_inner_span(
    ctx: &Ctx,
    lowered: &Lowered,
    bt: &BodyTasklet,
    worker: &mut Worker,
    dim: usize,
    s: i64,
    e: i64,
    st: i64,
) -> Result<bool, ExecError> {
    let t0 = worker.tier_clock();
    let kernel = lowered.kernel(worker.volume);
    let mut tier = if kernel.is_some() {
        LowerTier::Jit
    } else {
        lowered.tier
    };
    loop {
        let (ran, prof, next) = match tier {
            LowerTier::Jit => (
                kernel.and_then(|core| nest::run_span(ctx, core, worker, dim, s, e, st)),
                Tier::Jit,
                lowered.tier,
            ),
            LowerTier::MicroKernel => (
                try_native_loop(ctx, bt, worker, dim, s, e, st)?,
                Tier::NativeKernel,
                LowerTier::AffineVm,
            ),
            LowerTier::AffineVm => (
                try_vm_loop(ctx, bt, worker, dim, s, e, st)?,
                Tier::AffineVm,
                LowerTier::Symbolic,
            ),
            LowerTier::Symbolic => return Ok(false),
        };
        if ran.is_some() {
            worker.tier_record(t0, prof);
            return Ok(true);
        }
        tier = next;
    }
}

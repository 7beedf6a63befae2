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
//! checks. Everything the decision reads is part of the plan's
//! `crate::plan::CompileCtx` fingerprint — including the JIT enable
//! flag — so cached plans never alias across lowering configurations.
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
use std::sync::Arc;

/// Maps whose estimated trip count (enclosing scopes included) is below
/// this are not worth a compiler invocation: they keep their static tier
/// with a "cold" reason. Dynamic extents count as hot.
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
    /// Chosen tier (a ceiling — run time may still fall through).
    pub(crate) tier: LowerTier,
    /// The innermost dimension as a compiled 1-D nest when `tier == Jit`.
    pub(crate) jit: Option<NestCore>,
    /// Why the JIT tier was not chosen, when it was enabled but declined
    /// (unsupported body, cold map, compile failure, ...).
    pub(crate) jit_reason: Option<String>,
}

impl Lowered {
    /// A plain decision with no JIT involvement.
    pub(crate) fn tier(tier: LowerTier) -> Lowered {
        Lowered {
            tier,
            jit: None,
            jit_reason: None,
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

/// Decides the lowering tier for a single-tasklet map body at plan-build
/// time. `map_pcounts` are this map's own iteration counts; the enclosing
/// scopes' counts come from the worker's stack.
pub(crate) fn decide_lowering(
    ctx: &Ctx,
    worker: &Worker,
    label: &str,
    ts: &[(NodeId, Arc<BodyTasklet>)],
    map_pcounts: &[i64],
) -> Lowered {
    if ts.len() != 1 {
        // Multi-tasklet bodies run per point; each tasklet may still use
        // its own fast path inside `run_tasklet_point`.
        return Lowered::tier(LowerTier::Symbolic);
    }
    let bt = &ts[0].1;
    let innermost = worker.pstack.last();
    let tier = static_tier(bt, innermost);
    if !ctx.jit {
        return Lowered::tier(tier);
    }
    // Hotness gate: a compiler invocation only pays off on hot bodies.
    let mut volume: i64 = 1;
    for &c in worker.pcounts.iter().chain(map_pcounts) {
        volume = volume.saturating_mul(c.max(1));
    }
    if volume < JIT_MIN_POINTS {
        return Lowered {
            tier,
            jit: None,
            jit_reason: Some(format!("cold map (~{volume} points < {JIT_MIN_POINTS})")),
        };
    }
    match nest::build_span_nest(ctx, &worker.pstack, bt) {
        Ok(core) => Lowered {
            tier: LowerTier::Jit,
            jit: Some(core),
            jit_reason: None,
        },
        Err(d) => {
            d.record(ctx.chash, label, false);
            Lowered {
                tier,
                jit: None,
                jit_reason: Some(d.detail),
            }
        }
    }
}

/// Runs the innermost dimension `dim` of a single-tasklet map over
/// `[s, e)` on step `st`, starting at the tier recorded at plan time and
/// falling through in monotone order (`jit` → `native` → `affine-vm`)
/// whenever a launch-time precondition fails. `Ok(false)` leaves the span
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
    let mut tier = lowered.tier;
    loop {
        let (ran, prof, next) = match tier {
            LowerTier::Jit => (
                lowered
                    .jit
                    .as_ref()
                    .and_then(|core| nest::run_span(ctx, core, worker, dim, s, e, st)),
                Tier::Jit,
                LowerTier::MicroKernel,
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

//! # sdfg-transforms — data-centric graph transformations
//!
//! The performance-engineer toolbox of the paper (§4.1, Appendix B): each
//! transformation is a "find and replace" operation over the SDFG, defined
//! by a pattern, a matching predicate, and a rewrite. Matches are found with
//! VF2 subgraph search (via `sdfg-graph`) or targeted scans, mirroring
//! DaCe's `can_be_applied`/`apply` protocol (Appendix D).
//!
//! Implemented standard library (Appendix B, Table 4):
//!
//! | Category | Transformations |
//! |---|---|
//! | Map | [`MapCollapse`], [`MapExpansion`], [`MapFusion`], [`MapInterchange`], [`MapReduceFusion`], [`MapTiling`] |
//! | Data | [`DoubleBuffering`], [`LocalStorage`], [`LocalStream`], [`Vectorization`] |
//! | Control flow | [`MapToForLoop`], [`StateFusion`], [`InlineSdfg`] |
//! | Hardware mapping | [`FpgaTransform`], [`GpuTransform`], [`MpiTransform`] |
//!
//! Plus [`RedundantArray`] (Appendix D) as a *strict* transformation —
//! applied automatically by [`apply_strict`].
//!
//! Transformation applications can be recorded into a [`Chain`] and
//! replayed — the "optimization version control" of DIODE (§4.2).

pub mod chain;
pub mod data_transforms;
pub mod device_transforms;
pub mod flow_transforms;
pub mod framework;
pub mod helpers;
pub mod map_transforms;
pub mod pipeline;

pub use chain::{AppliedStep, ApplyReport, Chain};
pub use data_transforms::{
    DoubleBuffering, LocalStorage, LocalStream, RedundantArray, Vectorization,
};
pub use device_transforms::{FpgaTransform, GpuTransform, MpiTransform};
pub use flow_transforms::{InlineSdfg, MapToForLoop, StateFusion};
pub use framework::{
    apply_first, apply_strict, registry, CostHint, ParamValue, Params, TMatch, Transformation,
};
// The workspace-wide error type (transformation failures are `SdfgError`
// since the typed-params redesign; the old `TransformError` is gone).
pub use map_transforms::{
    MapCollapse, MapExpansion, MapFusion, MapInterchange, MapReduceFusion, MapTiling,
};
pub use pipeline::{optimize, optimize_with_env, OptLevel, OptimizationReport, SkippedMatch};
pub use sdfg_core::SdfgError;

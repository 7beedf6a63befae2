//! The transformation framework: matches, typed parameters, the trait, and
//! the registry.

use sdfg_core::{Sdfg, SdfgError, StateId};
use sdfg_graph::NodeId;
use sdfg_symbolic::Env;
use std::collections::BTreeMap;
use std::fmt;

/// A located pattern occurrence: the state plus role-named nodes.
#[derive(Clone, Debug)]
pub struct TMatch {
    /// State containing the occurrence (for single-state patterns).
    pub state: StateId,
    /// Role name → matched node.
    pub nodes: BTreeMap<String, NodeId>,
    /// For multi-state patterns: additional states by role.
    pub states: BTreeMap<String, StateId>,
}

impl TMatch {
    /// Creates a match in a state.
    pub fn in_state(state: StateId) -> TMatch {
        TMatch {
            state,
            nodes: BTreeMap::new(),
            states: BTreeMap::new(),
        }
    }

    /// Adds a role binding (builder style).
    pub fn with(mut self, role: &str, node: NodeId) -> TMatch {
        self.nodes.insert(role.to_string(), node);
        self
    }

    /// Looks up a role, failing with [`SdfgError::RoleMissing`] when the
    /// match does not bind it. Rewrites use this with `?` so a malformed
    /// match surfaces as an error instead of a panic.
    pub fn try_node(&self, role: &str) -> Result<NodeId, SdfgError> {
        self.nodes
            .get(role)
            .copied()
            .ok_or_else(|| SdfgError::RoleMissing {
                role: role.to_string(),
            })
    }
}

/// A typed transformation parameter value.
///
/// Parameters reach transformations either programmatically
/// ([`Params::set`]) or as text from chain files / the harness command
/// line; [`ParamValue::from_text`] infers the narrowest type (bool → int →
/// dimension list → string) so both routes produce the same values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParamValue {
    /// An integer (tile size, vector width, …).
    Int(i64),
    /// A list of dimension indices or sizes (`dims=0,1`, `tile_sizes=32,8`).
    Dims(Vec<usize>),
    /// A flag.
    Bool(bool),
    /// Free text (array names, map parameters, permutation orders).
    Str(String),
}

impl ParamValue {
    /// Parses a textual parameter, inferring the narrowest type.
    pub fn from_text(text: &str) -> ParamValue {
        match text {
            "true" => return ParamValue::Bool(true),
            "false" => return ParamValue::Bool(false),
            _ => {}
        }
        if let Ok(i) = text.parse::<i64>() {
            return ParamValue::Int(i);
        }
        if text.contains(',') {
            let parts: Option<Vec<usize>> = text
                .split(',')
                .map(|p| p.trim().parse::<usize>().ok())
                .collect();
            if let Some(dims) = parts {
                return ParamValue::Dims(dims);
            }
        }
        ParamValue::Str(text.to_string())
    }

    /// Renders back to the chain-file text form. Round-trips with
    /// [`ParamValue::from_text`].
    pub fn to_text(&self) -> String {
        match self {
            ParamValue::Int(i) => i.to_string(),
            ParamValue::Dims(ds) => ds
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(","),
            ParamValue::Bool(b) => b.to_string(),
            ParamValue::Str(s) => s.clone(),
        }
    }

    /// Renders the value with its type, for error messages.
    fn describe(&self) -> String {
        match self {
            ParamValue::Int(i) => format!("int({i})"),
            ParamValue::Dims(ds) => format!("dims({ds:?})"),
            ParamValue::Bool(b) => format!("bool({b})"),
            ParamValue::Str(s) => format!("str(\"{s}\")"),
        }
    }
}

impl From<i64> for ParamValue {
    fn from(i: i64) -> ParamValue {
        ParamValue::Int(i)
    }
}

impl From<bool> for ParamValue {
    fn from(b: bool) -> ParamValue {
        ParamValue::Bool(b)
    }
}

impl From<&str> for ParamValue {
    fn from(s: &str) -> ParamValue {
        ParamValue::Str(s.to_string())
    }
}

impl From<String> for ParamValue {
    fn from(s: String) -> ParamValue {
        ParamValue::Str(s)
    }
}

impl From<Vec<usize>> for ParamValue {
    fn from(ds: Vec<usize>) -> ParamValue {
        ParamValue::Dims(ds)
    }
}

/// Typed transformation parameters.
///
/// Accessors return `Err` with the parameter *name* on a type mismatch —
/// never a silent default — so `Vectorization width=wide` is a loud error
/// instead of a quiet `width=4`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Params {
    entries: BTreeMap<String, ParamValue>,
}

impl Params {
    /// Creates an empty parameter set.
    pub fn new() -> Params {
        Params::default()
    }

    /// Sets a parameter.
    pub fn set(&mut self, name: &str, value: impl Into<ParamValue>) {
        self.entries.insert(name.to_string(), value.into());
    }

    /// Sets a parameter (builder style).
    pub fn with(mut self, name: &str, value: impl Into<ParamValue>) -> Params {
        self.set(name, value);
        self
    }

    /// Sets a parameter from chain-file text, inferring its type.
    pub fn set_text(&mut self, name: &str, text: &str) {
        self.entries
            .insert(name.to_string(), ParamValue::from_text(text));
    }

    /// Raw lookup.
    pub fn get(&self, name: &str) -> Option<&ParamValue> {
        self.entries.get(name)
    }

    /// True when no parameters are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// An integer parameter, or `None` when unset.
    pub fn int(&self, name: &str) -> Result<Option<i64>, SdfgError> {
        match self.entries.get(name) {
            None => Ok(None),
            Some(ParamValue::Int(i)) => Ok(Some(*i)),
            Some(other) => Err(SdfgError::ParamType {
                param: name.to_string(),
                expected: "int",
                got: other.describe(),
            }),
        }
    }

    /// An integer parameter with a default for when it is unset.
    pub fn int_or(&self, name: &str, default: i64) -> Result<i64, SdfgError> {
        Ok(self.int(name)?.unwrap_or(default))
    }

    /// A dimension-list parameter, or `None` when unset. A bare integer is
    /// accepted as a single-element list (`tile_sizes=8`).
    pub fn dims(&self, name: &str) -> Result<Option<Vec<usize>>, SdfgError> {
        match self.entries.get(name) {
            None => Ok(None),
            Some(ParamValue::Dims(ds)) => Ok(Some(ds.clone())),
            Some(ParamValue::Int(i)) if *i >= 0 => Ok(Some(vec![*i as usize])),
            Some(other) => Err(SdfgError::ParamType {
                param: name.to_string(),
                expected: "dimension list",
                got: other.describe(),
            }),
        }
    }

    /// A string parameter, or `None` when unset.
    pub fn str(&self, name: &str) -> Result<Option<&str>, SdfgError> {
        match self.entries.get(name) {
            None => Ok(None),
            Some(ParamValue::Str(s)) => Ok(Some(s.as_str())),
            Some(other) => Err(SdfgError::ParamType {
                param: name.to_string(),
                expected: "string",
                got: other.describe(),
            }),
        }
    }
}

/// A per-match profitability estimate, used by the automatic pipeline to
/// decide which heuristic transformations to fire (the manual `Chain` path
/// ignores hints — the performance engineer is the heuristic there).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostHint {
    /// Expected to reduce runtime on this runtime's execution model.
    Beneficial,
    /// Not expected to change runtime materially (e.g. metadata-only).
    Neutral,
    /// Expected to add overhead; the pipeline skips these.
    Unprofitable,
    /// No estimate available; the pipeline is conservative and skips.
    Unknown,
}

/// A data-centric graph transformation (paper §4.1).
pub trait Transformation {
    /// Registry name (used in chains).
    fn name(&self) -> &'static str;

    /// Finds all occurrences of the pattern in the SDFG.
    fn find(&self, sdfg: &Sdfg) -> Vec<TMatch>;

    /// Why each occurrence of the pattern that [`Transformation::find`]
    /// leaves out as not legal is not; the pipeline reports them as
    /// skipped.
    fn declined(&self, _sdfg: &Sdfg) -> Vec<String> {
        Vec::new()
    }

    /// Applies the rewrite at a match, with parameters.
    fn apply(&self, sdfg: &mut Sdfg, m: &TMatch, params: &Params) -> Result<(), SdfgError>;

    /// True for *strict* transformations (can only improve the graph; safe
    /// to apply greedily, like DaCe's strict-transformation pass).
    fn strict(&self) -> bool {
        false
    }

    /// Estimates whether applying at `m` would pay off under the symbol
    /// bindings in `env`. The default is [`CostHint::Unknown`], which the
    /// automatic pipeline treats as "don't fire".
    fn cost_hint(&self, _sdfg: &Sdfg, _m: &TMatch, _env: &Env) -> CostHint {
        CostHint::Unknown
    }
}

impl fmt::Debug for dyn Transformation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Transformation({})", self.name())
    }
}

/// All transformations in the standard library (Appendix B + D).
pub fn registry() -> Vec<Box<dyn Transformation>> {
    vec![
        Box::new(crate::map_transforms::MapCollapse),
        Box::new(crate::map_transforms::MapExpansion),
        Box::new(crate::map_transforms::MapFusion),
        Box::new(crate::map_transforms::MapInterchange),
        Box::new(crate::map_transforms::MapReduceFusion),
        Box::new(crate::map_transforms::MapTiling),
        Box::new(crate::data_transforms::DoubleBuffering),
        Box::new(crate::data_transforms::LocalStorage),
        Box::new(crate::data_transforms::LocalStream),
        Box::new(crate::data_transforms::Vectorization),
        Box::new(crate::data_transforms::RedundantArray),
        Box::new(crate::flow_transforms::MapToForLoop),
        Box::new(crate::flow_transforms::StateFusion),
        Box::new(crate::flow_transforms::InlineSdfg),
        Box::new(crate::device_transforms::FpgaTransform),
        Box::new(crate::device_transforms::GpuTransform),
        Box::new(crate::device_transforms::MpiTransform),
    ]
}

/// Looks up a transformation by name.
pub fn by_name(name: &str) -> Option<Box<dyn Transformation>> {
    registry().into_iter().find(|t| t.name() == name)
}

/// Applies the first match of `t` (with `params`); returns whether a match
/// existed. After application, memlets are re-propagated.
pub fn apply_first(
    sdfg: &mut Sdfg,
    t: &dyn Transformation,
    params: &Params,
) -> Result<bool, SdfgError> {
    let matches = t.find(sdfg);
    let Some(m) = matches.first() else {
        return Ok(false);
    };
    t.apply(sdfg, m, params)?;
    sdfg_core::propagate::propagate_sdfg(sdfg);
    Ok(true)
}

/// Greedily applies all strict transformations until fixpoint (bounded) —
/// DaCe applies these automatically after frontend parsing.
///
/// This is the lightweight entry point; [`crate::pipeline`] adds
/// per-rewrite validation, cycle detection, and reporting on top.
pub fn apply_strict(sdfg: &mut Sdfg) -> Result<usize, SdfgError> {
    let strict: Vec<Box<dyn Transformation>> =
        registry().into_iter().filter(|t| t.strict()).collect();
    let mut total = 0usize;
    for _round in 0..64 {
        let mut applied = false;
        for t in &strict {
            if apply_first(sdfg, t.as_ref(), &Params::new())? {
                applied = true;
                total += 1;
            }
        }
        if !applied {
            break;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_16_plus_redundant() {
        let names: Vec<&str> = registry().iter().map(|t| t.name()).collect();
        for expected in [
            "MapCollapse",
            "MapExpansion",
            "MapFusion",
            "MapInterchange",
            "MapReduceFusion",
            "MapTiling",
            "DoubleBuffering",
            "LocalStorage",
            "LocalStream",
            "Vectorization",
            "RedundantArray",
            "MapToForLoop",
            "StateFusion",
            "InlineSDFG",
            "FPGATransform",
            "GPUTransform",
            "MPITransform",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert_eq!(names.len(), 17);
    }

    #[test]
    fn by_name_resolves() {
        assert!(by_name("MapTiling").is_some());
        assert!(by_name("NoSuchTransform").is_none());
    }

    #[test]
    fn param_text_roundtrip_infers_types() {
        assert_eq!(ParamValue::from_text("8"), ParamValue::Int(8));
        assert_eq!(ParamValue::from_text("true"), ParamValue::Bool(true));
        assert_eq!(ParamValue::from_text("32,8"), ParamValue::Dims(vec![32, 8]));
        assert_eq!(
            ParamValue::from_text("i0"),
            ParamValue::Str("i0".to_string())
        );
        for text in ["8", "true", "32,8", "i0", "-3"] {
            assert_eq!(ParamValue::from_text(text).to_text(), text);
        }
    }

    #[test]
    fn typed_accessors_error_instead_of_defaulting() {
        let p = Params::new().with("width", "wide");
        let err = p.int_or("width", 4).unwrap_err();
        assert_eq!(err.code(), "SDFG-P001");
        assert!(err.to_string().contains("`width`"), "{err}");
        // Unset parameters still take the default.
        assert_eq!(Params::new().int_or("width", 4).unwrap(), 4);
    }

    #[test]
    fn dims_accepts_scalar_int() {
        let p = Params::new().with("tile_sizes", 16i64);
        assert_eq!(p.dims("tile_sizes").unwrap(), Some(vec![16]));
        let p = Params::new().with("tile_sizes", vec![32usize, 8]);
        assert_eq!(p.dims("tile_sizes").unwrap(), Some(vec![32, 8]));
    }

    #[test]
    fn try_node_reports_missing_role() {
        let m = TMatch::in_state(NodeId(0));
        let err = m.try_node("entry").unwrap_err();
        assert_eq!(err.code(), "SDFG-T004");
    }
}

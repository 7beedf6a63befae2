//! Data descriptors: the "containers" of the data-centric model (§3.1).
//!
//! Containers are declared once per SDFG (keyed by name) and referenced by
//! access nodes. `transient` marks containers that exist only for the
//! duration of the SDFG — the property that lets transformations reshape or
//! eliminate them ("standard compilers cannot make this distinction").

use crate::dtype::{DType, Storage};
use sdfg_symbolic::Expr;
use serde::{Deserialize, Serialize};

/// An N-dimensional array container.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArrayDesc {
    /// Element type.
    pub dtype: DType,
    /// Symbolic shape, outermost dimension first.
    pub shape: Vec<Expr>,
    /// Symbolic strides in *elements* (same length as `shape`).
    pub strides: Vec<Expr>,
    /// Storage location.
    pub storage: Storage,
    /// Allocated only for the duration of SDFG execution.
    pub transient: bool,
}

impl ArrayDesc {
    /// Row-major (C-order) array.
    pub fn new(dtype: DType, shape: Vec<Expr>) -> ArrayDesc {
        let strides = row_major_strides(&shape);
        ArrayDesc {
            dtype,
            shape,
            strides,
            storage: Storage::Default,
            transient: false,
        }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Symbolic total element count.
    pub fn total_size(&self) -> Expr {
        Expr::mul(self.shape.iter().cloned())
    }

    /// Recomputes contiguous row-major strides (after a shape change).
    pub fn reset_strides(&mut self) {
        self.strides = row_major_strides(&self.shape);
    }
}

/// Computes row-major strides for a shape.
pub fn row_major_strides(shape: &[Expr]) -> Vec<Expr> {
    let mut strides = vec![Expr::one(); shape.len()];
    for d in (0..shape.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1].clone() * shape[d + 1].clone();
    }
    strides
}

/// A multi-dimensional array of concurrent queues (§3.1). On FPGAs these
/// become FIFO interfaces; on CPUs, concurrent queues.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamDesc {
    /// Element type.
    pub dtype: DType,
    /// Shape of the *array of queues* (empty = single queue).
    pub shape: Vec<Expr>,
    /// Buffer capacity hint per queue (FIFO depth on FPGAs); `None` =
    /// unbounded.
    pub buffer_size: Option<Expr>,
    /// Storage location.
    pub storage: Storage,
    /// Allocated only for the duration of SDFG execution.
    pub transient: bool,
}

impl StreamDesc {
    /// A single unbounded queue.
    pub fn new(dtype: DType) -> StreamDesc {
        StreamDesc {
            dtype,
            shape: Vec::new(),
            buffer_size: None,
            storage: Storage::Default,
            transient: true,
        }
    }
}

/// A scalar container (rank-0 array); also used for symbols passed as data.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScalarDesc {
    /// Element type.
    pub dtype: DType,
    /// Storage location.
    pub storage: Storage,
    /// Allocated only for the duration of SDFG execution.
    pub transient: bool,
}

/// Any container declarable in an SDFG.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum DataDesc {
    /// N-dimensional array.
    Array(ArrayDesc),
    /// Array of concurrent queues.
    Stream(StreamDesc),
    /// Scalar.
    Scalar(ScalarDesc),
}

impl DataDesc {
    /// Element type of the container.
    pub fn dtype(&self) -> DType {
        match self {
            DataDesc::Array(a) => a.dtype,
            DataDesc::Stream(s) => s.dtype,
            DataDesc::Scalar(s) => s.dtype,
        }
    }

    /// Number of dimensions (0 for scalars; queue-array rank for streams).
    pub fn rank(&self) -> usize {
        match self {
            DataDesc::Array(a) => a.rank(),
            DataDesc::Stream(s) => s.shape.len(),
            DataDesc::Scalar(_) => 0,
        }
    }

    /// Symbolic shape (empty for scalars).
    pub fn shape(&self) -> &[Expr] {
        match self {
            DataDesc::Array(a) => &a.shape,
            DataDesc::Stream(s) => &s.shape,
            DataDesc::Scalar(_) => &[],
        }
    }

    /// Whether the container is transient.
    pub fn transient(&self) -> bool {
        match self {
            DataDesc::Array(a) => a.transient,
            DataDesc::Stream(s) => s.transient,
            DataDesc::Scalar(s) => s.transient,
        }
    }

    /// Sets the transient flag.
    pub fn set_transient(&mut self, t: bool) {
        match self {
            DataDesc::Array(a) => a.transient = t,
            DataDesc::Stream(s) => s.transient = t,
            DataDesc::Scalar(s) => s.transient = t,
        }
    }

    /// Storage location.
    pub fn storage(&self) -> Storage {
        match self {
            DataDesc::Array(a) => a.storage,
            DataDesc::Stream(s) => s.storage,
            DataDesc::Scalar(s) => s.storage,
        }
    }

    /// Sets the storage location.
    pub fn set_storage(&mut self, st: Storage) {
        match self {
            DataDesc::Array(a) => a.storage = st,
            DataDesc::Stream(s) => s.storage = st,
            DataDesc::Scalar(s) => s.storage = st,
        }
    }

    /// Convenience accessor for streams.
    pub fn as_stream(&self) -> Option<&StreamDesc> {
        match self {
            DataDesc::Stream(s) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_stride_computation() {
        let shape = vec![Expr::sym("M"), Expr::sym("N"), Expr::int(4)];
        let strides = row_major_strides(&shape);
        assert_eq!(strides[2], Expr::one());
        assert_eq!(strides[1], Expr::int(4));
        assert_eq!(strides[0], Expr::sym("N") * Expr::int(4));
    }

    #[test]
    fn array_total_size() {
        let a = ArrayDesc::new(DType::F64, vec![Expr::sym("N"), Expr::sym("N")]);
        assert_eq!(a.total_size(), Expr::sym("N") * Expr::sym("N"));
        assert_eq!(a.rank(), 2);
    }

    #[test]
    fn desc_dispatch() {
        let d = DataDesc::Array(ArrayDesc::new(DType::F32, vec![Expr::int(8)]));
        assert_eq!(d.dtype(), DType::F32);
        assert_eq!(d.rank(), 1);
        assert!(!d.transient());
        let mut s = DataDesc::Stream(StreamDesc::new(DType::I64));
        assert!(s.transient());
        s.set_storage(Storage::FpgaLocal);
        assert_eq!(s.storage(), Storage::FpgaLocal);
        let sc = DataDesc::Scalar(ScalarDesc {
            dtype: DType::I64,
            storage: Storage::Default,
            transient: false,
        });
        assert_eq!(sc.rank(), 0);
    }
}

//! Fundamental identifier types and the crate error type.

use std::fmt;

/// Vertex identifier.
///
/// The substrate stores vertices as `u32` (the stand-in datasets top out in
/// the low millions of vertices). The Vector-Sparse format widens identifiers
/// to the paper's 48-bit fields when packing 64-bit lanes, so nothing
/// downstream assumes 32 bits beyond this alias.
pub type VertexId = u32;

/// Edge identifier: an index into a graph's edge arrays.
pub type EdgeId = u64;

/// Maximum vertex identifier representable in a Vector-Sparse 48-bit field.
pub const MAX_VSPARSE_VERTEX: u64 = (1u64 << 48) - 1;

/// Errors produced while building, loading, or validating graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>= num_vertices`.
    VertexOutOfRange { vertex: u64, num_vertices: u64 },
    /// Weight array length disagreed with edge array length.
    WeightLengthMismatch { edges: usize, weights: usize },
    /// A CSR index was not monotonically non-decreasing or did not cover the
    /// edge array exactly.
    MalformedIndex(String),
    /// Parse or I/O failure while loading a graph.
    Io(String),
    /// Binary file did not carry the expected magic/version header.
    BadMagic { expected: [u8; 8], found: [u8; 8] },
    /// The input described an empty vertex set where one is required.
    EmptyGraph,
    /// Payload checksum disagreed with the stored CRC32C trailer.
    ChecksumMismatch { stored: u32, computed: u32 },
    /// The format-version nibble named a version this build cannot decode.
    UnsupportedVersion(u8),
    /// Header-declared sizes exceed the caller's byte budget — refused
    /// before any allocation so a hostile header cannot OOM the loader.
    BudgetExceeded { required: u64, budget: u64 },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range (graph has {num_vertices} vertices)"
            ),
            GraphError::WeightLengthMismatch { edges, weights } => write!(
                f,
                "weight array has {weights} entries but edge array has {edges}"
            ),
            GraphError::MalformedIndex(msg) => write!(f, "malformed vertex index: {msg}"),
            GraphError::Io(msg) => write!(f, "graph I/O error: {msg}"),
            GraphError::BadMagic { expected, found } => {
                write!(f, "bad magic: expected {expected:?}, found {found:?}")
            }
            GraphError::EmptyGraph => write!(f, "graph must have at least one vertex"),
            GraphError::ChecksumMismatch { stored, computed } => write!(
                f,
                "payload checksum mismatch: file stores {stored:#010x}, computed {computed:#010x}"
            ),
            GraphError::UnsupportedVersion(v) => {
                write!(f, "unsupported binary format version {v}")
            }
            GraphError::BudgetExceeded { required, budget } => write!(
                f,
                "header declares {required} bytes of payload, over the {budget}-byte budget"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = GraphError::VertexOutOfRange {
            vertex: 10,
            num_vertices: 5,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("5"));

        let e = GraphError::WeightLengthMismatch {
            edges: 4,
            weights: 3,
        };
        assert!(e.to_string().contains("4"));
        assert!(e.to_string().contains("3"));

        let e = GraphError::MalformedIndex("offset decreased".into());
        assert!(e.to_string().contains("offset decreased"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let ge: GraphError = io.into();
        assert!(matches!(ge, GraphError::Io(_)));
        assert!(ge.to_string().contains("nope"));
    }

    #[test]
    fn vsparse_limit_is_48_bits() {
        assert_eq!(MAX_VSPARSE_VERTEX, 0x0000_FFFF_FFFF_FFFF);
    }
}

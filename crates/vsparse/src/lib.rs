//! The Vector-Sparse edge format (paper §4) and its SIMD kernels.
//!
//! Vector-Sparse is a modified Compressed-Sparse layout that encodes edges
//! into aligned, padded vectors. The paper's lane is 64 bits, four to a
//! 256-bit AVX vector, with a 48-bit vertex field; every vertex id here is a
//! `u32`, so this crate packs the same fields into 32-bit lanes, eight to
//! the same 256-bit vector (DESIGN.md §2):
//!
//! ```text
//!  bit 31    bits 30..27          bits 26..0
//!  [valid] | [piece of TLV id] | [individual vertex id]
//! ```
//!
//! * the **valid bit** sits in the lane's sign-bit position so the vector
//!   can be fed *directly* as the predication mask of a masked gather
//!   (sign-extended to 64 bits per `f64` lane);
//! * the **top-level vertex (TLV) identifier** — the destination for
//!   Vector-Sparse-Destination (VSD), the source for Vector-Sparse-Source
//!   (VSS) — is spread across the lanes in 4-bit pieces, so a thread
//!   streaming the edge array detects outer-loop transitions without bounds
//!   checks or vertex-index accesses;
//! * the low 27 bits hold the neighbor exactly as the Compressed-Sparse
//!   edge array would, which bounds a graph at 2^27 vertices.
//!
//! Invalid lanes pad every top-level vertex's edges to a multiple of eight,
//! which is what makes all vector loads aligned. [`packing`] quantifies the
//! resulting space overhead at the paper's widths (Figure 9). Edge weights
//! are kept one per edge, in lane order, beside the vectors.

pub mod active;
pub mod build;
pub mod format;
pub mod packing;
mod prefetch;
pub mod simd;
pub mod vector;

pub use active::{ActiveVectorList, RealIndices};
pub use build::{VectorSparse, Vsd, Vss};
pub use format::{decode_tlv, encode_tlv, pack_lane, unpack_lane, Lane, LANES};
pub use vector::EdgeVector;

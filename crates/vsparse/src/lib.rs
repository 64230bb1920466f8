//! The Vector-Sparse edge format (paper §4) and its SIMD kernels.
//!
//! Vector-Sparse is a modified Compressed-Sparse layout that encodes edges
//! into aligned, padded vectors of `N` 64-bit lanes (the paper's concrete
//! instance is `N = 4`, one 256-bit AVX vector). Each lane carries:
//!
//! ```text
//!  bit 63    bits 62..60   bits 59..48        bits 47..0
//!  [valid] | [unused]    | [piece of TLV id] | [individual vertex id]
//! ```
//!
//! * the **valid bit** sits in the lane's sign-bit position so the vector
//!   can be fed *directly* as the predication mask of
//!   `_mm256_mask_i64gather_pd` (the paper's `vgatherqpd` usage);
//! * the **top-level vertex (TLV) identifier** — the destination for
//!   Vector-Sparse-Destination (VSD), the source for Vector-Sparse-Source
//!   (VSS) — is spread across the lanes in `48 / N`-bit pieces, so a thread
//!   streaming the edge array detects outer-loop transitions without bounds
//!   checks or vertex-index accesses;
//! * the low 48 bits hold the neighbor exactly as the Compressed-Sparse
//!   edge array would.
//!
//! Invalid lanes pad every top-level vertex's edges to a multiple of `N`,
//! which is what makes all vector loads aligned. [`packing`] quantifies the
//! resulting space overhead (Figure 9).

pub mod active;
pub mod build;
pub mod format;
pub mod packing;
mod prefetch;
pub mod simd;
pub mod vector;

pub use active::{ActiveVectorList, RealIndices};
pub use build::{VectorSparse, Vsd, Vss};
pub use format::{decode_tlv, encode_tlv, pack_lane, unpack_lane, Lane};
pub use vector::EdgeVector;

//! A guided tour of the Vector-Sparse format (paper §4, Figures 2 and 4).
//!
//! Walks one small graph from Compressed-Sparse through the 4-lane and
//! 8-lane Vector-Sparse encodings, showing lane contents, padding,
//! top-level-vertex reassembly, packing efficiency, and a masked
//! gather-reduce —
//! everything the format does, on data small enough to read.
//!
//! ```sh
//! cargo run --release --example format_tour
//! ```

use grazelle::graph::edgelist::EdgeList;
use grazelle::prelude::*;
use grazelle::vsparse::format::{lane_is_valid, lane_vertex, TLV_SHIFT};
use grazelle::vsparse::packing::{packing_efficiency, space_overhead};
use grazelle::vsparse::simd::{detect, ActiveBitmap, AllActive, Carry, Kernels, Run, Sum};
use grazelle::vsparse::VectorSparse;
use std::sync::atomic::AtomicU64;

fn main() {
    // The paper's worked example: a top-level vertex with degree 7 occupies
    // two 256-bit vectors (7 valid lanes + 1 invalid).
    let mut el = EdgeList::new(10);
    for d in 1..=7u32 {
        el.push(0, d).unwrap(); // vertex 0: degree 7
    }
    el.push(2, 9).unwrap(); // vertex 2: degree 1
    el.push(2, 4).unwrap(); // vertex 2: degree 2
    let g = Graph::from_edgelist(&el).unwrap();

    println!("== Compressed-Sparse (Figure 2) ==");
    let csr = g.out_csr();
    println!("vertex index: {:?}", csr.index());
    println!("edge array:   {:?}", csr.edges());

    println!("\n== Vector-Sparse, 4 lanes (Figure 4) ==");
    let vsd = VectorSparse::<4>::from_csr(csr);
    println!(
        "{} edges -> {} vectors ({} lanes, {} padding)",
        vsd.num_edges(),
        vsd.num_vectors(),
        vsd.num_vectors() * 4,
        vsd.num_vectors() * 4 - vsd.num_edges()
    );
    for (i, ev) in vsd.vectors().iter().enumerate() {
        print!(
            "vector {i}: top-level vertex {} | lanes:",
            ev.top_level_vertex()
        );
        for (lane_idx, &lane) in ev.lanes().iter().enumerate() {
            let valid = lane_is_valid(lane);
            let piece = (lane >> TLV_SHIFT) & 0xFFF;
            print!(
                " [{}{} tlv-piece={:#05x} v={}]",
                lane_idx,
                if valid { "+" } else { "-" },
                piece,
                lane_vertex(lane)
            );
        }
        println!();
    }
    println!(
        "packing efficiency {:.1}% (space overhead {:.2}x vs Compressed-Sparse edges)",
        100.0 * vsd.packing_efficiency(),
        space_overhead(&csr.degrees(), 4)
    );

    println!("\n== The same edges at 8 lanes (AVX-512 width) ==");
    let vsd8 = VectorSparse::<8>::from_csr(csr);
    println!(
        "{} vectors, packing {:.1}% — wider lanes pay more padding on low degrees",
        vsd8.num_vectors(),
        100.0 * packing_efficiency(&csr.degrees(), 8),
    );

    println!("\n== Masked gather-reduce (Listing 7) ==");
    // Walk the whole edge array gathering the 'ranks' of each vertex's
    // out-neighbors, with a frontier that only activates odd vertices. The
    // accumulator stays lane-wise across vertex 0's two vectors and is
    // reduced only when the embedded top-level vertex changes.
    let values: Vec<f64> = (0..10).map(|v| v as f64 * 10.0).collect();
    let kernels = Kernels::auto();
    println!("kernels: {:?}", detect());
    let run = Run::unweighted(&values, vsd.vectors());
    let odd = [AtomicU64::new(0b10_1010_1010)];
    let mut carry = Carry::new(0, 0.0);
    let mut sums = Vec::new();
    kernels.walk_checked::<Sum, _, _>(run, ActiveBitmap(&odd), &mut carry, &mut |v, sum| {
        sums.push((v, sum))
    });
    sums.push((carry.dest, carry.reduce(|a, b| a + b)));
    println!("gather-sum over odd neighbors, per top-level vertex: {sums:?}");
    // Vertex 0: 10*(1+3+5+7), the padded lane ignored; vertex 2: 10*9.
    assert_eq!(sums, vec![(0, 160.0), (2, 90.0)]);

    // The valid bits alone predicate the padded tail vector.
    let tail = Run {
        vectors: &vsd.vectors()[1..2], // neighbors 5,6,7 + one invalid lane
        ..run
    };
    let mut carry = Carry::new(0, 0.0);
    kernels.walk_checked::<Sum, _, _>(tail, AllActive, &mut carry, &mut |_, _| {});
    let all = carry.reduce(|a, b| a + b);
    println!("gather-sum over the padded tail = {all} (50+60+70, padding ignored)");
    assert_eq!(all, 180.0);
}

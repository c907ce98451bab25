//! Quickstart: the 60-second tour of the Ookami reproduction.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Walks the paper's storyline end to end: machine specs (Table III), the
//! Section III loop suite (Fig. 1), the math-library gap (Fig. 2), and a
//! taste of the Section IV exp study — everything computed live from the
//! models and emulator in this repository.

use ookami::loops::{fig1, fig2, sec4};
use ookami::uarch::machines;
use ookami::uarch::peak::render_table3;

fn main() {
    println!("ookami — reproducing \"A64FX performance: experience on Ookami\" (CLUSTER'21)\n");

    // The systems under comparison (Table III).
    println!("{}", render_table3());

    // Headline machine facts the models are built on.
    let a = machines::a64fx();
    println!(
        "A64FX: {} cores in {} CMGs, {:.0} GB/s HBM2 per CMG, {}-byte cache lines,\n\
         peak {:.1} GFLOP/s per core ({} × {} × 2 FLOP/FMA × {} lanes)\n",
        a.cores_per_node,
        a.numa.domains,
        a.numa.bw_per_domain_gbs,
        a.mem.line_bytes,
        a.peak_gflops_per_core(),
        a.base_ghz,
        a.fma_pipes,
        a.vector_width.lanes_f64(),
    );

    // Fig. 1: loop-vectorization suite, relative to Intel on Skylake.
    println!("{}", fig1::render_figure1(&fig1::figure1()));

    // Fig. 2: the math-library story (the 20×/30× cliffs).
    println!("{}", fig2::render_figure2(&fig2::figure2()));

    // Section IV teaser: the FEXPA exp ladder.
    println!("{}", sec4::render_sec4(&sec4::toolchain_ladder()));

    println!("Next: `cargo run -p ookami-bench --bin figures -- all` for every figure.");
}

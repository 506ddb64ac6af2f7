//! Regenerates every figure and table of the paper, plus the ablations
//! DESIGN.md calls out: prints each table as markdown, writes the plotted
//! series to `results/*.csv`, and rewrites the tables' generated regions
//! in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p olap-bench --bin experiments
//! ```

use std::fs;

fn main() {
    let tables = olap_bench::paper::tables();
    for t in &tables {
        println!("### {}\n\n{}", t.name, t.render(true));
    }
    let files = olap_bench::outputs(&tables).unwrap_or_else(|e| panic!("{e}"));
    for (path, contents) in files {
        fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
}

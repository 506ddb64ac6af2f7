//! Writes gnuplot/spreadsheet-ready CSV series for the paper's plottable
//! figures into `results/`:
//!
//! - `fig11.csv` — Cost(tree) − Cost(prefix) vs α (analytic, all six
//!   series, plus the measured d=2 series),
//! - `fig14.csv` — benefit/space vs block size (both parameterizations),
//! - `volume_sweep.csv` — accesses/query vs query side per engine,
//! - `thm3.csv` — measured average vs the b + 7 + 1/b bound.
//!
//! ```text
//! cargo run --release -p olap-bench --bin make_figures [-- OUTDIR]
//! ```

use olap_array::Shape;
use olap_bench::{blocked_cost, naive_cost, prefix_cost, standard_cube, tree_sum_cost};
use olap_planner as planner;
use olap_prefix_sum::{BlockedPrefixCube, BoundaryPolicy, PrefixSumCube};
use olap_query::QueryCtx;
use olap_range_max::{NaturalMaxTree, SearchOptions};
use olap_tree_sum::SumTreeCube;
use olap_workload::{sided_regions, uniform_cube, uniform_regions};
use std::fs;
use std::path::Path;

fn main() {
    let outdir = std::env::args().nth(1).unwrap_or_else(|| "results".into());
    fs::create_dir_all(&outdir).expect("create output directory");
    let outdir = Path::new(&outdir);

    fig11(outdir);
    fig14(outdir);
    volume_sweep(outdir);
    thm3(outdir);
    println!(
        "wrote fig11.csv, fig14.csv, volume_sweep.csv, thm3.csv to {}",
        outdir.display()
    );
}

fn fig11(outdir: &Path) {
    let mut csv = String::from(
        "alpha,d2_b10,d2_b20,d3_b10,d3_b20,d4_b10,d4_b20,measured_d2_b10,measured_d2_b20\n",
    );
    let a = standard_cube(1024, 11);
    let structures: Vec<(usize, BlockedPrefixCube<i64>, SumTreeCube<i64>)> = [10usize, 20]
        .iter()
        .map(|&b| {
            (
                b,
                BlockedPrefixCube::build(&a, b).expect("valid block"),
                SumTreeCube::build(&a, b).expect("valid fanout"),
            )
        })
        .collect();
    for alpha in 1..=20usize {
        let mut row = vec![alpha.to_string()];
        for d in [2usize, 3, 4] {
            for b in [10usize, 20] {
                row.push(format!(
                    "{:.1}",
                    planner::fig11_difference(d, b, alpha as f64)
                ));
            }
        }
        // Reorder: the analytic columns above were generated d-major; fix
        // to match the header (d2_b10, d2_b20, d3_b10, …) — already match.
        for (b, bp, st) in &structures {
            let qs = sided_regions(a.shape(), alpha * b, 25, alpha as u64);
            let diff =
                tree_sum_cost(st, &a, &qs, true) - blocked_cost(bp, &a, &qs, BoundaryPolicy::Auto);
            row.push(format!("{diff:.1}"));
        }
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    fs::write(outdir.join("fig11.csv"), csv).expect("write fig11.csv");
}

fn fig14(outdir: &Path) {
    let mut csv = String::from("b,label_curve_100b2_minus_10b3,d3_text_example\n");
    for b in 1..=12usize {
        let label = 100.0 * (b * b) as f64 - 10.0 * (b * b * b) as f64;
        let d3 = planner::benefit_space_ratio(0.01, 1008.0, 400.0, 3, b);
        csv.push_str(&format!("{b},{label:.0},{d3:.0}\n"));
    }
    fs::write(outdir.join("fig14.csv"), csv).expect("write fig14.csv");
}

fn volume_sweep(outdir: &Path) {
    let a = standard_cube(1024, 5);
    let ps = PrefixSumCube::build(&a);
    let bp10 = BlockedPrefixCube::build(&a, 10).expect("valid");
    let bp40 = BlockedPrefixCube::build(&a, 40).expect("valid");
    let st10 = SumTreeCube::build(&a, 10).expect("valid");
    let mut csv = String::from("side,naive,prefix_b1,blocked_b10,blocked_b40,tree_sum_b10\n");
    for side in [4usize, 8, 16, 32, 64, 128, 256, 512, 1000] {
        let qs = sided_regions(a.shape(), side, 25, side as u64);
        csv.push_str(&format!(
            "{side},{:.1},{:.1},{:.1},{:.1},{:.1}\n",
            naive_cost(&a, &qs),
            prefix_cost(&ps, &qs),
            blocked_cost(&bp10, &a, &qs, BoundaryPolicy::Auto),
            blocked_cost(&bp40, &a, &qs, BoundaryPolicy::Auto),
            tree_sum_cost(&st10, &a, &qs, true),
        ));
    }
    fs::write(outdir.join("volume_sweep.csv"), csv).expect("write volume_sweep.csv");
}

fn thm3(outdir: &Path) {
    let n = 8192;
    let a = uniform_cube(Shape::new(&[n]).expect("valid"), 1_000_000, 99);
    let mut csv = String::from("b,measured_avg,bound\n");
    for b in [2usize, 3, 4, 6, 8, 12, 16, 24, 32] {
        let t = NaturalMaxTree::for_values(&a, b).expect("fanout ≥ 2");
        let queries = uniform_regions(a.shape(), 2000, b as u64 * 7 + 1);
        let total: u64 = queries
            .iter()
            .map(|q| {
                QueryCtx::measure(|ctx| t.read(&a, q, SearchOptions::default(), ctx))
                    .expect("valid")
                    .1
                    .total_accesses()
            })
            .sum();
        let avg = total as f64 / queries.len() as f64;
        let bound = b as f64 + 7.0 + 1.0 / b as f64;
        csv.push_str(&format!("{b},{avg:.2},{bound:.2}\n"));
    }
    fs::write(outdir.join("thm3.csv"), csv).expect("write thm3.csv");
}

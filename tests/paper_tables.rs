//! The checked-in copies of the paper's cheap tables — §1, Figure 12,
//! Figure 14 and Theorems 2 and 3 — are the generator's, byte for byte.
//! `cargo test -p olap-bench` checks every table.

use olap_bench::paper;

#[test]
fn cheap_paper_tables_match_their_checked_in_copies() {
    let mut tables = vec![paper::intro(), paper::thm2(), paper::thm3()];
    tables.extend(paper::fig12());
    tables.extend(paper::fig14());
    olap_bench::check(&tables).unwrap_or_else(|e| panic!("{e}"));
}

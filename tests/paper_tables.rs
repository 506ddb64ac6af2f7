//! Every checked-in copy of the paper's tables — EXPERIMENTS.md's
//! generated regions and `results/*.csv` — is the generator's, byte for
//! byte. `cargo test -p olap-bench` adds the prose claims about them.

#[test]
fn every_paper_table_matches_its_checked_in_copy() {
    olap_bench::check(&olap_bench::paper::tables()).unwrap_or_else(|e| panic!("{e}"));
}

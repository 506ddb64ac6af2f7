//! The checked-in tables are the generator's, byte for byte, and they say
//! what EXPERIMENTS.md's prose claims of them.

use olap_bench::{check, paper, Table};
use std::sync::OnceLock;

fn tables() -> &'static [Table] {
    static TABLES: OnceLock<Vec<Table>> = OnceLock::new();
    TABLES.get_or_init(paper::tables)
}

fn table(name: &str) -> &'static Table {
    tables()
        .iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("no table {name}"))
}

/// The column named `col`, parsed.
fn column(t: &Table, col: &str) -> Vec<f64> {
    let j = t.header.iter().position(|h| h == col).expect("column");
    t.rows
        .iter()
        .map(|r| r[j].parse().expect("number"))
        .collect()
}

/// The cell in column `col` of the row whose first cell is `key`.
fn cell<'t>(t: &'t Table, key: &str, col: &str) -> &'t str {
    let j = t.header.iter().position(|h| h == col).expect("column");
    let row = t.rows.iter().find(|r| r[0] == key).expect("row");
    &row[j]
}

#[test]
fn checked_in_files_match_the_generator() {
    check(tables()).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn a_changed_count_fails_the_check() {
    let mut changed = tables().to_vec();
    let thm3 = changed.iter_mut().find(|t| t.name == "thm3").expect("thm3");
    thm3.rows[0][3].push('0');
    let err = check(&changed).expect_err("a changed cell must be caught");
    assert!(err.contains("thm3.csv"), "{err}");
    let unplaced = Table {
        name: "no_such_table",
        ..table("thm3").clone()
    };
    let err = check(&[unplaced]).expect_err("a table needs a region");
    assert!(err.contains("no_such_table"), "{err}");
}

#[test]
fn theorem3_average_is_within_b_plus_7_plus_1_over_b() {
    let t = table("thm3");
    for (b, avg) in column(t, "b").into_iter().zip(column(t, "measured_avg")) {
        assert!(avg <= b + 7.0 + 1.0 / b, "b = {b}: average {avg}");
    }
}

#[test]
fn theorem2_region_counts_are_within_the_bound() {
    let t = table("thm2");
    for d in 1..=4 {
        let max = column(t, &format!("d={d} max"));
        let bound = column(t, &format!("d={d} bound"));
        assert_eq!(max.len(), 10);
        for (k, (m, b)) in max.iter().zip(&bound).enumerate() {
            assert!(m <= b, "d = {d}, k = {}: {m} regions > {b}", k + 1);
        }
    }
}

#[test]
fn figure11_difference_changes_sign_between_alpha_2_and_5() {
    let t = table("fig11");
    for col in ["measured_d2_b10", "measured_d2_b20"] {
        let at = |alpha: &str| cell(t, alpha, col).parse::<f64>().expect("number");
        assert!(at("2") < 0.0, "{col} at α = 2: {}", at("2"));
        assert!(at("5") > 0.0, "{col} at α = 5: {}", at("5"));
    }
}

#[test]
fn section_9_3_integer_optimum_is_7_for_both_instances() {
    let t = table("fig14_optimum");
    assert_eq!(column(t, "b*"), vec![7.0, 7.0]);
}

#[test]
fn figure12_heuristic_and_exact_choose_dimensions_1_2_3() {
    let t = table("fig12_choice");
    assert_eq!(cell(t, "heuristic", "X′"), "{1, 2, 3}");
    assert_eq!(cell(t, "exact", "X′"), "{1, 2, 3}");
}

#[test]
fn intro_extended_cube_reads_1_and_144() {
    let t = table("intro");
    assert_eq!(cell(t, "(all, 1995, all, auto)", "extended cube"), "1");
    assert_eq!(
        cell(t, "(37:52, 1988:1996, all, auto)", "extended cube"),
        "144"
    );
}

#[test]
fn storage_order_paging_is_within_2_pages_d() {
    let t = table("paging");
    let storage = column(t, "storage order");
    for (s, bound) in storage.iter().zip(column(t, "2·pages·d bound")) {
        assert!(*s <= bound, "{s} faults > {bound}");
    }
}

#[test]
fn precomputation_costs_are_ordered_at_every_side() {
    let t = table("volume_sweep");
    let naive = column(t, "naive");
    let blocked = column(t, "blocked_b10");
    for (i, p) in column(t, "prefix_b1").into_iter().enumerate() {
        assert!(p <= 4.0 && p <= blocked[i] && blocked[i] <= naive[i]);
    }
    assert!(blocked.last() < naive.last());
}

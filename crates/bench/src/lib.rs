//! The paper's figures and tables, computed once and rendered twice.
//!
//! Each function in [`paper`] returns a [`Table`] of seeded access
//! counts, the paper's own proxy for response time (§8). [`outputs`]
//! renders the tables as `results/<name>.csv` and as EXPERIMENTS.md's
//! generated regions; [`check`] compares those with the checked-in files.
//! Wall-clock figures live in the perf ledger (`benchmark/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A table row: each cell in its `Display` form.
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        vec![$($cell.to_string()),*]
    };
}

pub mod paper;

use std::fs;
use std::path::{Path, PathBuf};

/// One experiment's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Names the table's EXPERIMENTS.md region and, when [`Table::csv`]
    /// is set, its file `results/<name>.csv`.
    pub name: &'static str,
    /// Whether the table is a plotted series written to `results/`.
    pub csv: bool,
    /// Column names.
    pub header: Vec<String>,
    /// Rows of formatted cells, each as long as the header.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A markdown-only table with no rows; `header` is the CSV header line.
    fn new(name: &'static str, header: &str) -> Self {
        Table {
            name,
            csv: false,
            header: header.split(',').map(str::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// A plotted series, also written to `results/<name>.csv`.
    fn plotted(name: &'static str, header: &str) -> Self {
        Table {
            csv: true,
            ..Table::new(name, header)
        }
    }

    fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width in {}", self.name);
        self.rows.push(row);
    }

    /// Renders the table as CSV, or as a markdown table when `markdown`
    /// is set: the header line, then one line per row.
    pub fn render(&self, markdown: bool) -> String {
        let (open, sep, close) = if markdown {
            ("| ", " | ", " |\n")
        } else {
            ("", ",", "\n")
        };
        let line = |cells: &[String]| format!("{open}{}{close}", cells.join(sep));
        let mut out = line(&self.header);
        if markdown {
            out.push_str(&format!("|{}\n", "---|".repeat(self.header.len())));
        }
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }
}

/// Replaces the body of `table`'s generated region in `doc`: the lines
/// between `<!-- begin NAME -->` and `<!-- end NAME -->`.
fn splice(doc: &str, table: &Table) -> Result<String, String> {
    let begin = format!("<!-- begin {} -->\n", table.name);
    let end = format!("<!-- end {} -->", table.name);
    let missing = || format!("EXPERIMENTS.md lacks the `{}` region", begin.trim_end());
    let start = doc.find(&begin).ok_or_else(missing)? + begin.len();
    let stop = start + doc[start..].find(&end).ok_or_else(missing)?;
    Ok(doc[..start].to_string() + &table.render(true) + &doc[stop..])
}

/// Every file the generator writes for `tables`, with its contents:
/// `results/<name>.csv` for each plotted table, then EXPERIMENTS.md as
/// checked in with each table's region rewritten.
///
/// # Errors
/// When EXPERIMENTS.md cannot be read or lacks a table's region.
pub fn outputs(tables: &[Table]) -> Result<Vec<(PathBuf, String)>, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let md_path = root.join("EXPERIMENTS.md");
    let mut md = fs::read_to_string(&md_path).map_err(|e| format!("EXPERIMENTS.md: {e}"))?;
    let mut files = Vec::new();
    for t in tables {
        md = splice(&md, t)?;
        if t.csv {
            let path = root.join("results").join(format!("{}.csv", t.name));
            files.push((path, t.render(false)));
        }
    }
    files.push((md_path, md));
    Ok(files)
}

/// Compares what the generator would write for `tables` with the
/// checked-in files, byte for byte.
///
/// # Errors
/// Names the first checked-in file that differs.
pub fn check(tables: &[Table]) -> Result<(), String> {
    for (path, want) in outputs(tables)? {
        if fs::read_to_string(&path).ok().as_deref() != Some(want.as_str()) {
            return Err(format!(
                "{} differs from the generator's; run `cargo run --release -p olap-bench \
                 --bin experiments` and review `git diff`",
                path.display()
            ));
        }
    }
    Ok(())
}

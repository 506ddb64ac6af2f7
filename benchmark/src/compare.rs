//! `ledger compare A.json B.json`: the relative difference of every
//! end-to-end metric on every workload between two `ledger all` results,
//! one row each, against the metric's bound. Either side may be a set of
//! results (`a1.json,a2.json,a3.json`), compared by its median.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::median;

pub struct Row {
    pub workload: &'static str,
    pub metric: &'static EndToEnd,
    pub a: Option<f64>,
    pub b: Option<f64>,
}

impl Row {
    /// `(B − A) / A`; `None` when either side is missing.
    pub fn relative(&self) -> Option<f64> {
        Some((self.b? - self.a?) / self.a?)
    }

    /// Within the bound in either direction. A missing value is not.
    pub fn within_bound(&self) -> bool {
        self.relative()
            .is_some_and(|r| r.abs() <= self.metric.bound)
    }

    fn verdict(&self) -> &'static str {
        match self.relative() {
            None => "missing",
            Some(r) if r.abs() <= self.metric.bound => "same",
            Some(r) if (r < 0.0) == (self.metric.better == Better::Lower) => "B better",
            Some(_) => "B worse",
        }
    }
}

/// The median over the results of a side that have the metric.
fn value(side: &[Json], workload: &str, metric: &str) -> Option<f64> {
    let mut values: Vec<f64> = side
        .iter()
        .filter_map(|doc| {
            doc.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect();
    (!values.is_empty()).then(|| median(&mut values))
}

pub fn rows(a: &[Json], b: &[Json]) -> Vec<Row> {
    WORKLOADS
        .iter()
        .flat_map(|(workload, _)| {
            END_TO_END.iter().map(move |metric| Row {
                workload,
                metric,
                a: value(a, workload, metric.name),
                b: value(b, workload, metric.name),
            })
        })
        .collect()
}

/// Prints the table; `true` when every row is within its bound.
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<16} {:<14} {:<6} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "A", "B", "diff", "bound"
    );
    let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    for row in rows {
        println!(
            "{:<16} {:<14} {:<6} {:>14} {:>14} {:>8} {:>6}  {}",
            row.workload,
            row.metric.name,
            row.metric.unit,
            show(row.a),
            show(row.b),
            row.relative()
                .map_or("-".to_string(), |r| format!("{:+.1}%", r * 100.0)),
            format!("{:.0}%", row.metric.bound * 100.0),
            row.verdict(),
        );
    }
    let outside = rows.iter().filter(|r| !r.within_bound()).count();
    println!("{outside} of {} rows outside their bound", rows.len());
    outside == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(qps: f64, sum_us: Option<f64>) -> Json {
        let metric =
            |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
        let mut e2e = vec![("qps".to_string(), metric(qps, "ops/s"))];
        if let Some(us) = sum_us {
            e2e.push(("sum_p50_us".to_string(), metric(us, "us")));
        }
        let workload = Json::obj([("end_to_end", Json::Obj(e2e))]);
        Json::obj([("workloads", Json::obj([("lib_tax_2d", workload)]))])
    }

    #[test]
    fn rows_judge_each_metric_against_its_own_bound() {
        let (a, b) = ([doc(1000.0, Some(2.0))], [doc(1080.0, Some(2.6))]);
        let rows = rows(&a, &b);
        assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len());
        let find = |name: &str| {
            rows.iter()
                .find(|r| r.workload == "lib_tax_2d" && r.metric.name == name)
                .unwrap()
        };
        let qps = find("qps");
        assert!((qps.relative().unwrap() - 0.08).abs() < 1e-12);
        assert!(qps.within_bound());
        assert_eq!(qps.verdict(), "same");
        let sum = find("sum_p50_us");
        assert!(!sum.within_bound());
        assert_eq!(sum.verdict(), "B worse");
        // A metric absent from a file is outside its bound, not skipped.
        assert!(!find("setup_s").within_bound());
        assert_eq!(find("setup_s").verdict(), "missing");
        // Direction: a higher qps beyond the bound is better, a lower
        // latency beyond it is better.
        let faster = super::rows(&a, &[doc(1500.0, Some(1.0))]);
        assert!(faster
            .iter()
            .filter(|r| r.relative().is_some())
            .all(|r| r.verdict() == "B better"));
        // A side of several results is judged by its median, so one
        // stray run does not decide the row.
        let set = [doc(1000.0, None), doc(5000.0, None), doc(1010.0, None)];
        let qps = &super::rows(&a, &set)[1];
        assert_eq!((qps.metric.name, qps.b), ("qps", Some(1010.0)));
        assert!(qps.within_bound());
    }
}

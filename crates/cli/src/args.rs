//! Argument parsing: dims lists, query strings, update assignments.

use olap_array::{Range, Region};
use std::fmt;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Malformed command-line input, with a human-readable reason.
    Usage(String),
    /// I/O or storage-format failure.
    Storage(olap_storage::StorageError),
    /// Query/shape validation failure.
    Query(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Storage(e) => write!(f, "storage error: {e}"),
            CliError::Query(m) => write!(f, "query error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<olap_storage::StorageError> for CliError {
    fn from(e: olap_storage::StorageError) -> Self {
        CliError::Storage(e)
    }
}

pub(crate) fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Parses `"64,64,16"` into dimension extents.
///
/// # Errors
/// Rejects empty input, non-numeric parts, and zero extents.
pub fn parse_dims(s: &str) -> Result<Vec<usize>, CliError> {
    let dims: Result<Vec<usize>, _> = s.split(',').map(|p| p.trim().parse::<usize>()).collect();
    let dims = dims.map_err(|_| usage(format!("bad dims {s:?}: expected e.g. 64,64")))?;
    if dims.is_empty() || dims.contains(&0) {
        return Err(usage("dims must be non-empty and positive"));
    }
    Ok(dims)
}

/// Parses a query such as `"3:17,all,5"` against cube dims: per dimension
/// either `lo:hi` (inclusive), a single index, or `all`.
///
/// # Errors
/// Rejects dimension-count mismatches, inverted ranges, and out-of-bound
/// indices.
pub fn parse_query(s: &str, dims: &[usize]) -> Result<Region, CliError> {
    let parts: Vec<&str> = s.split(',').map(|p| p.trim()).collect();
    if parts.len() != dims.len() {
        return Err(usage(format!(
            "query has {} components but the cube has {} dimensions",
            parts.len(),
            dims.len()
        )));
    }
    let mut ranges = Vec::with_capacity(parts.len());
    for (part, &n) in parts.iter().zip(dims) {
        let range = if part.eq_ignore_ascii_case("all") {
            Range::new(0, n - 1).expect("n ≥ 1")
        } else if let Some((lo, hi)) = part.split_once(':') {
            let lo: usize = lo
                .parse()
                .map_err(|_| usage(format!("bad bound {lo:?} in {part:?}")))?;
            let hi: usize = hi
                .parse()
                .map_err(|_| usage(format!("bad bound {hi:?} in {part:?}")))?;
            Range::new(lo, hi).map_err(|_| usage(format!("inverted range {part:?}")))?
        } else {
            let x: usize = part
                .parse()
                .map_err(|_| usage(format!("bad index {part:?}")))?;
            Range::singleton(x)
        };
        if range.hi() >= n {
            return Err(CliError::Query(format!(
                "range {range} exceeds dimension extent {n}"
            )));
        }
        ranges.push(range);
    }
    Region::new(ranges).map_err(|e| CliError::Query(e.to_string()))
}

/// Parses a query string into a [`RangeQuery`](olap_query::RangeQuery),
/// preserving the
/// `all`/singleton/span distinction (which [`parse_query`] flattens into
/// a region) — needed by the §9 planner, which assigns queries to cuboids
/// by their non-`all` dimensions.
///
/// # Errors
/// Same conditions as [`parse_query`].
pub fn parse_range_query(s: &str, dims: &[usize]) -> Result<olap_query::RangeQuery, CliError> {
    use olap_query::{DimSelection, RangeQuery};
    let parts: Vec<&str> = s.split(',').map(|p| p.trim()).collect();
    if parts.len() != dims.len() {
        return Err(usage(format!(
            "query has {} components but the cube has {} dimensions",
            parts.len(),
            dims.len()
        )));
    }
    let mut sels = Vec::with_capacity(parts.len());
    for (part, &n) in parts.iter().zip(dims) {
        let sel = if part.eq_ignore_ascii_case("all") {
            DimSelection::All
        } else if let Some((lo, hi)) = part.split_once(':') {
            let lo: usize = lo
                .parse()
                .map_err(|_| usage(format!("bad bound {lo:?} in {part:?}")))?;
            let hi: usize = hi
                .parse()
                .map_err(|_| usage(format!("bad bound {hi:?} in {part:?}")))?;
            if hi >= n {
                return Err(CliError::Query(format!("range {part} exceeds extent {n}")));
            }
            DimSelection::span(lo, hi).map_err(|_| usage(format!("inverted range {part:?}")))?
        } else {
            let x: usize = part
                .parse()
                .map_err(|_| usage(format!("bad index {part:?}")))?;
            if x >= n {
                return Err(CliError::Query(format!("index {x} exceeds extent {n}")));
            }
            DimSelection::Single(x)
        };
        sels.push(sel);
    }
    RangeQuery::new(sels).map_err(|e| CliError::Query(e.to_string()))
}

/// Parses an update assignment `"3,4=17"` into `(index, value)`.
///
/// # Errors
/// Rejects malformed assignments and dimension mismatches.
pub fn parse_set(s: &str, dims: &[usize]) -> Result<(Vec<usize>, i64), CliError> {
    let (idx, val) = s
        .split_once('=')
        .ok_or_else(|| usage(format!("bad --set {s:?}: expected i,j,…=value")))?;
    let index: Result<Vec<usize>, _> = idx.split(',').map(|p| p.trim().parse::<usize>()).collect();
    let index = index.map_err(|_| usage(format!("bad index in --set {s:?}")))?;
    if index.len() != dims.len() {
        return Err(usage(format!(
            "--set index has {} components but the cube has {} dimensions",
            index.len(),
            dims.len()
        )));
    }
    for (&i, &n) in index.iter().zip(dims) {
        if i >= n {
            return Err(CliError::Query(format!("index {i} exceeds extent {n}")));
        }
    }
    let value: i64 = val
        .trim()
        .parse()
        .map_err(|_| usage(format!("bad value in --set {s:?}")))?;
    Ok((index, value))
}

/// Extracts `--flag value` pairs and positional arguments from raw args.
/// Flags may repeat (`--set` does).
pub(crate) struct ParsedArgs {
    pub flags: Vec<(String, String)>,
    pub bools: Vec<String>,
    pub positional: Vec<String>,
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["--prefix", "--stats", "--bounds", "--explain", "--degrade"];

pub(crate) fn split_args(args: &[String]) -> Result<ParsedArgs, CliError> {
    let mut flags = Vec::new();
    let mut bools = Vec::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&a.as_str()) {
                bools.push(a.clone());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| usage(format!("--{name} needs a value")))?;
                flags.push((a.clone(), value.clone()));
                i += 2;
            }
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Ok(ParsedArgs {
        flags,
        bools,
        positional,
    })
}

/// `flag`'s value as a count, or `default` when the flag is absent.
pub(crate) fn parse_usize(p: &ParsedArgs, flag: &str, default: usize) -> Result<usize, CliError> {
    match p.get(flag) {
        Some(s) => s
            .parse()
            .map_err(|_| usage(format!("{flag} must be a non-negative integer"))),
        None => Ok(default),
    }
}

impl ParsedArgs {
    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == name)
            .map(|(_, v)| v.as_str())
    }

    pub(crate) fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| usage(format!("missing required {name}")))
    }

    pub(crate) fn all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(f, _)| f == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    pub(crate) fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_parsing() {
        assert_eq!(parse_dims("64,64").unwrap(), vec![64, 64]);
        assert_eq!(parse_dims(" 3 , 4 , 5 ").unwrap(), vec![3, 4, 5]);
        assert!(parse_dims("").is_err());
        assert!(parse_dims("3,0").is_err());
        assert!(parse_dims("3,x").is_err());
    }

    #[test]
    fn query_parsing() {
        let dims = [10usize, 20, 3];
        let q = parse_query("2:5,all,1", &dims).unwrap();
        assert_eq!(q.range(0).lo(), 2);
        assert_eq!(q.range(0).hi(), 5);
        assert_eq!(q.range(1).len(), 20);
        assert_eq!(q.range(2).len(), 1);
        assert!(parse_query("2:5,all", &dims).is_err()); // dim mismatch
        assert!(parse_query("5:2,all,1", &dims).is_err()); // inverted
        assert!(parse_query("2:5,all,3", &dims).is_err()); // out of bounds
        assert!(parse_query("x,all,1", &dims).is_err());
    }

    #[test]
    fn set_parsing() {
        let dims = [10usize, 10];
        assert_eq!(parse_set("3,4=17", &dims).unwrap(), (vec![3, 4], 17));
        assert_eq!(parse_set("0,0=-5", &dims).unwrap(), (vec![0, 0], -5));
        assert!(parse_set("3=1", &dims).is_err());
        assert!(parse_set("3,10=1", &dims).is_err());
        assert!(parse_set("3,4", &dims).is_err());
        assert!(parse_set("3,4=x", &dims).is_err());
    }

    #[test]
    fn flag_splitting() {
        let args: Vec<String> = [
            "--cube", "a.olap", "--prefix", "--set", "1,2=3", "--set", "4,5=6", "file.csv",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let p = split_args(&args).unwrap();
        assert_eq!(p.get("--cube"), Some("a.olap"));
        assert!(p.has("--prefix"));
        assert_eq!(p.all("--set"), vec!["1,2=3", "4,5=6"]);
        assert_eq!(p.positional, vec!["file.csv"]);
        assert!(p.require("--out").is_err());
    }
}

//! Interactive mode: `olap-cli repl --cube FILE [--index FILE…]` reads
//! query commands from stdin — the "interactive exploration of data
//! cubes" setting the paper's introduction motivates ("it is imperative
//! to have a system with fast response time").
//!
//! Session commands:
//!
//! ```text
//! sum 3:17,all,5        range-sum via the best loaded structure
//! max 3:17,all,5        range-max (needs a max-tree index)
//! avg 3:17,all,5        range-average = sum / volume
//! count 3:17,all,5      cells in the region (its volume)
//! bounds 3:17,all,5     instant lower/upper bounds (needs a blocked index)
//! set 3,4,0 = 17        update a cell (cube + all loaded structures)
//! stats on|off          toggle access-count reporting
//! info                  describe what is loaded
//! quit                  exit
//! ```

use crate::args::{parse_query, split_args, usage, CliError};
use olap_array::DenseArray;
use olap_prefix_sum::batch::{self, CellUpdate};
use olap_prefix_sum::{BlockedPrefixCube, BoundaryPolicy, PrefixSumCube};
use olap_query::QueryCtx;
use olap_range_max::{NaturalMaxTree, PointUpdate, SearchOptions};
use olap_storage as storage;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};

/// The in-memory session state.
struct Session {
    cube: DenseArray<i64>,
    prefix: Option<PrefixSumCube<i64>>,
    blocked: Option<BlockedPrefixCube<i64>>,
    max_tree: Option<NaturalMaxTree<i64>>,
    stats: bool,
}

impl Session {
    fn sum(&self, query: &str) -> Result<String, CliError> {
        let region = parse_query(query, self.cube.shape().dims())?;
        let (v, s) = QueryCtx::measure(|ctx| {
            if let Some(ps) = &self.prefix {
                ps.read(&region, ctx)
            } else if let Some(bp) = &self.blocked {
                bp.read(&self.cube, &region, BoundaryPolicy::Auto, ctx)
            } else {
                let sum = olap_aggregate::SumOp::<i64>::new();
                olap_engine::naive::range_aggregate(&self.cube, &sum, &region, ctx)
            }
        })
        .map_err(|e| CliError::Query(e.to_string()))?;
        Ok(if self.stats {
            format!(
                "sum = {v}   [{} accesses, volume {}]",
                s.total_accesses(),
                region.volume()
            )
        } else {
            format!("sum = {v}")
        })
    }

    fn max(&self, query: &str) -> Result<String, CliError> {
        let region = parse_query(query, self.cube.shape().dims())?;
        let ((idx, v), s) = QueryCtx::measure(|ctx| match &self.max_tree {
            Some(t) => t
                .read(&self.cube, &region, SearchOptions::default(), ctx)
                .map_err(|e| e.to_string()),
            None => {
                let order = olap_aggregate::NaturalOrder::<i64>::new();
                olap_engine::naive::range_max(&self.cube, &order, &region, ctx)
                    .map_err(|e| e.to_string())
            }
        })
        .map_err(CliError::Query)?;
        Ok(if self.stats {
            format!("max = {v} at {idx:?}   [{} accesses]", s.total_accesses())
        } else {
            format!("max = {v} at {idx:?}")
        })
    }

    fn avg(&self, query: &str) -> Result<String, CliError> {
        let region = parse_query(query, self.cube.shape().dims())?;
        let sum_line = self.sum(query)?;
        let v: i64 = sum_line
            .split(['=', ' '])
            .filter_map(|t| t.parse().ok())
            .next()
            .unwrap_or(0);
        Ok(format!(
            "avg = {:.4} over {} cells",
            v as f64 / region.volume() as f64,
            region.volume()
        ))
    }

    fn bounds(&self, query: &str) -> Result<String, CliError> {
        let region = parse_query(query, self.cube.shape().dims())?;
        let bp = self
            .blocked
            .as_ref()
            .ok_or_else(|| usage("bounds needs a blocked prefix-sum index (§11)"))?;
        let (b, s) = bp
            .range_sum_bounds(&region)
            .map_err(|e| CliError::Query(e.to_string()))?;
        Ok(if self.stats {
            format!(
                "bounds = [{}, {}]   [{} lookups, no cube access]",
                b.lower,
                b.upper,
                s.total_accesses()
            )
        } else {
            format!("bounds = [{}, {}]", b.lower, b.upper)
        })
    }

    fn count(&self, query: &str) -> Result<String, CliError> {
        let region = parse_query(query, self.cube.shape().dims())?;
        Ok(format!("count = {}", region.volume()))
    }

    fn set(&mut self, rest: &str) -> Result<String, CliError> {
        let (idx_s, val_s) = rest
            .split_once('=')
            .ok_or_else(|| usage("set needs: set i,j,… = value"))?;
        let assignment = format!("{}={}", idx_s.trim(), val_s.trim());
        let (index, value) = crate::args::parse_set(&assignment, self.cube.shape().dims())?;
        let delta = value - self.cube.get(&index);
        if let Some(ps) = &mut self.prefix {
            batch::apply_batch(ps, &[CellUpdate::new(&index, delta)])
                .map_err(|e| CliError::Query(e.to_string()))?;
        }
        if let Some(bp) = &mut self.blocked {
            batch::apply_batch_blocked(bp, &[CellUpdate::new(&index, delta)])
                .map_err(|e| CliError::Query(e.to_string()))?;
        }
        if let Some(t) = &mut self.max_tree {
            t.batch_update(&mut self.cube, &[PointUpdate::new(&index, value)])
                .map_err(|e| CliError::Query(e.to_string()))?;
        } else {
            *self.cube.get_mut(&index) = value;
        }
        Ok(format!("set {index:?} = {value}"))
    }

    fn info(&self) -> String {
        let mut lines = vec![format!(
            "cube: dims {:?}, {} cells",
            self.cube.shape().dims(),
            self.cube.len()
        )];
        if self.prefix.is_some() {
            lines.push("index: basic prefix sums (§3)".into());
        }
        if let Some(bp) = &self.blocked {
            lines.push(format!(
                "index: blocked prefix sums, b = {} (§4)",
                bp.block_size()
            ));
        }
        if let Some(t) = &self.max_tree {
            lines.push(format!("index: max tree, fanout {} (§6)", t.fanout()));
        }
        if lines.len() == 1 {
            lines.push("no indexes loaded — queries scan the cube".into());
        }
        lines.join("\n")
    }
}

/// Runs the REPL over arbitrary reader/writer pairs (testable without a
/// terminal). Returns the number of commands processed.
///
/// # Errors
/// Setup failures (loading the cube and indexes); per-command errors are
/// reported inline and do not abort the session.
pub fn run_repl(
    args: &[String],
    input: &mut impl BufRead,
    output: &mut impl Write,
) -> Result<usize, CliError> {
    let p = split_args(args)?;
    let cube_path = p.require("--cube")?;
    let cube = storage::read_dense_i64(&mut BufReader::new(
        File::open(cube_path).map_err(storage::StorageError::Io)?,
    ))?;
    let mut session = Session {
        cube,
        prefix: None,
        blocked: None,
        max_tree: None,
        stats: false,
    };
    for index_path in p.all("--index") {
        let open = || -> Result<BufReader<File>, CliError> {
            Ok(BufReader::new(
                File::open(index_path).map_err(storage::StorageError::Io)?,
            ))
        };
        if let Ok(ps) = storage::read_prefix_sum(&mut open()?) {
            session.prefix = Some(ps);
        } else if let Ok(bp) = storage::read_blocked_prefix(&mut open()?) {
            session.blocked = Some(bp);
        } else if let Ok(t) = storage::read_max_tree(&mut open()?) {
            session.max_tree = Some(t);
        } else {
            return Err(usage(format!("{index_path}: unrecognized index artifact")));
        }
    }
    let mut io_err = |e: std::io::Error| CliError::Storage(storage::StorageError::Io(e));
    writeln!(output, "{}", session.info()).map_err(&mut io_err)?;
    let mut commands = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line).map_err(&mut io_err)? == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        commands += 1;
        let (cmd, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let result = match cmd {
            "sum" => session.sum(rest.trim()),
            "max" => session.max(rest.trim()),
            "avg" => session.avg(rest.trim()),
            "count" => session.count(rest.trim()),
            "bounds" => session.bounds(rest.trim()),
            "set" => session.set(rest),
            "stats" => {
                session.stats = rest.trim() != "off";
                Ok(format!(
                    "stats {}",
                    if session.stats { "on" } else { "off" }
                ))
            }
            "info" => Ok(session.info()),
            "quit" | "exit" => break,
            other => Err(usage(format!("unknown command {other:?}"))),
        };
        match result {
            Ok(msg) => writeln!(output, "{msg}").map_err(&mut io_err)?,
            Err(e) => writeln!(output, "error: {e}").map_err(&mut io_err)?,
        }
    }
    Ok(commands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_array::Shape;
    use std::io::BufWriter;

    /// Writes the fixture files once: tests run concurrently, and a
    /// second writer truncating `r.psum` under a reader is a torn file.
    fn setup() -> (String, String, String) {
        static PATHS: std::sync::OnceLock<(String, String, String)> = std::sync::OnceLock::new();
        PATHS.get_or_init(write_fixtures).clone()
    }

    fn write_fixtures() -> (String, String, String) {
        let dir = std::env::temp_dir().join("olap-cli-repl-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let cube_path = dir.join("r.olap").to_string_lossy().into_owned();
        let psum_path = dir.join("r.psum").to_string_lossy().into_owned();
        let maxt_path = dir.join("r.maxt").to_string_lossy().into_owned();
        let a = DenseArray::from_fn(Shape::new(&[6, 6]).unwrap(), |i| (i[0] * 6 + i[1]) as i64);
        storage::write_dense_i64(&mut BufWriter::new(File::create(&cube_path).unwrap()), &a)
            .unwrap();
        let ps = PrefixSumCube::build(&a);
        storage::write_prefix_sum(&mut BufWriter::new(File::create(&psum_path).unwrap()), &ps)
            .unwrap();
        let t = NaturalMaxTree::for_values(&a, 2).unwrap();
        storage::write_max_tree(&mut BufWriter::new(File::create(&maxt_path).unwrap()), &t)
            .unwrap();
        (cube_path, psum_path, maxt_path)
    }

    fn drive(args: &[&str], script: &str) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut input = script.as_bytes();
        let mut output = Vec::new();
        run_repl(&args, &mut input, &mut output).unwrap();
        String::from_utf8(output).unwrap()
    }

    #[test]
    fn queries_through_loaded_indexes() {
        let (cube, psum, maxt) = setup();
        let out = drive(
            &["--cube", &cube, "--index", &psum, "--index", &maxt],
            "sum 0:5,0:5\nmax all,all\ncount 1:2,0:0\nquit\n",
        );
        // Σ 0..35 = 630; max 35 at [5,5].
        assert!(out.contains("sum = 630"), "{out}");
        assert!(out.contains("max = 35 at [5, 5]"), "{out}");
        assert!(out.contains("count = 2"), "{out}");
    }

    #[test]
    fn set_keeps_structures_consistent() {
        let (cube, psum, maxt) = setup();
        let out = drive(
            &["--cube", &cube, "--index", &psum, "--index", &maxt],
            "set 0,0 = 1000\nsum all,all\nmax all,all\n",
        );
        assert!(out.contains("sum = 1630"), "{out}");
        assert!(out.contains("max = 1000 at [0, 0]"), "{out}");
    }

    #[test]
    fn stats_toggle_and_errors_are_inline() {
        let (cube, psum, _) = setup();
        let out = drive(
            &["--cube", &cube, "--index", &psum],
            "stats on\nsum 0:2,0:2\nfrobnicate\nsum 9:9,0:0\nquit\n",
        );
        assert!(out.contains("accesses"), "{out}");
        assert!(out.contains("error: usage error"), "{out}");
        assert!(out.contains("error: query error"), "{out}");
    }

    #[test]
    fn naive_fallback_without_indexes() {
        let (cube, _, _) = setup();
        let out = drive(&["--cube", &cube], "info\nsum all,all\n");
        assert!(out.contains("no indexes loaded"), "{out}");
        assert!(out.contains("sum = 630"), "{out}");
    }

    #[test]
    fn bounds_command_needs_blocked_index() {
        let (cube, psum, _) = setup();
        let out = drive(&["--cube", &cube, "--index", &psum], "bounds 0:5,0:5\n");
        assert!(out.contains("error: usage error"), "{out}");
        // Build a blocked index on the fly for the happy path.
        let a = storage::read_dense_i64(&mut BufReader::new(File::open(&cube).unwrap())).unwrap();
        let bp = BlockedPrefixCube::build(&a, 2).unwrap();
        let bps = cube.replace("r.olap", "r.bps");
        storage::write_blocked_prefix(&mut BufWriter::new(File::create(&bps).unwrap()), &bp)
            .unwrap();
        let out = drive(&["--cube", &cube, "--index", &bps], "bounds 1:4,0:5\n");
        assert!(out.contains("bounds = ["), "{out}");
    }

    #[test]
    fn avg_command() {
        let (cube, psum, _) = setup();
        let out = drive(&["--cube", &cube, "--index", &psum], "avg all,all\n");
        // 630 / 36 = 17.5.
        assert!(out.contains("avg = 17.5000"), "{out}");
    }
}

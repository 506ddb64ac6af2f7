//! Implementation of the `olap-cli` commands (kept in a library so the
//! command layer is unit-testable without spawning processes).
//!
//! ```text
//! olap-cli gen      --dims 64,64 --max 100 --seed 7 --out cube.olap
//! olap-cli from-csv --dims 64,64 --out cube.olap data.csv
//! olap-cli build    --cube cube.olap --prefix --out cube.psum
//! olap-cli build    --cube cube.olap --blocked 16 --out cube.bps
//! olap-cli build    --cube cube.olap --max-tree 4 --out cube.maxt
//! olap-cli sum      --index cube.psum --query 3:17,5:20
//! olap-cli sum      --cube cube.olap --index cube.bps --query 3:17,all
//! olap-cli max      --cube cube.olap --index cube.maxt --query 3:17,5:20
//! olap-cli update   --cube cube.olap --index cube.psum --set 3,4=17 --set 0,0=-2
//! olap-cli info     cube.psum
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
mod chaos_cmd;
pub mod commands;
pub mod csv;
pub mod repl;
mod serve_cmd;
mod telemetry_cmd;
mod trace_cmd;

pub use args::{parse_dims, parse_query, parse_range_query, parse_set, CliError};
pub use commands::run;
pub use repl::run_repl;

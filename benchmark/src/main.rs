//! `ledger`: the layered perf ledger of the olap-cube workspace.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ledger all     [--seed n] [--seconds s] [--out file.json]
//! ledger trace   <workload> [--seed n] [--seconds s]
//! ledger compare A.json[,A2.json,...] B.json[,B2.json,...]
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: its last line of
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `benchmark/README.md` for what is measured and why.
#![deny(unsafe_code)]

mod alloc;
mod compare;
mod json;
mod ladder;
mod load;
mod metrics;
mod oracle;
mod stats;
mod workload;

use json::Json;
use load::{Latencies, Limit, Load, Mode, Rep};
use metrics::{Better, Measured, END_TO_END, PER_LAYER, WORKLOADS};
use olap_server::ServeConfig;
use stats::{median, p50_us, percentile};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::{Phase, Stack, StackSpec, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Builds of the full stack before the windows; `setup_s` is the median
/// of these and of one more after each pair of windows.
const SETUP_BUILDS: usize = 5;
/// Ops a client may log in the warm-up, before its rate is known.
const WARM_CAP: usize = 1 << 21;
/// Ops a client may log in a slice of the probe phase.
const PROBE_CAP: usize = 1 << 18;
/// Batches client 0 installs in a slice of the probe phase. Even, so the
/// slice leaves the cube as it found it.
const PROBE_SLICE_BATCHES: u64 = 32;
/// What `BENCHMARK.json` sets as `run_seconds`.
const DEFAULT_SECONDS: f64 = 24.0;

/// What one run of one workload produced.
struct RunResult {
    metrics: Vec<Measured>,
    attempted: u64,
    failed: u64,
    samples: Json,
}

impl RunResult {
    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let entry =
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
                    (m.name.to_string(), entry)
                })
                .collect(),
        )
    }

    /// The object the driver reads from the last line of output.
    fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    fn print(&self, title: &str) {
        println!(
            "{title}  ops_attempted={} ops_failed={}",
            self.attempted, self.failed
        );
        for m in &self.metrics {
            println!(
                "  {:<40} {:>16.4} {:<6} ({} is better)",
                m.name,
                m.value,
                m.unit,
                m.better.as_str()
            );
        }
        println!("  samples {}", self.samples.render());
    }
}

/// The timed windows shared by both kinds of run.
struct Reps {
    throughput: Vec<Rep>,
    latency: Vec<Rep>,
    /// Slices of the probe phase with its writes off, and with them on.
    probe_reads: Vec<Rep>,
    probe_writes: Vec<Rep>,
    /// Seconds each rebuild of the stack between pairs took.
    rebuild_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// A warm-up, then `pairs` pairs of a throughput window and a latency
/// window, each `seconds / 16` long. The two kinds alternate so that a
/// slow spell of the machine falls on both alike.
///
/// With `extras`, the end-to-end run's, each pair is followed by a timed
/// rebuild of the stack, so that `setup_s` samples the whole run and not
/// only its first quarter second, and, if the workload has a probe phase,
/// by a slice of it: its reads alone for a quarter of a second, then with client
/// 0 writing until [`PROBE_SLICE_BATCHES`] batches are in. Reads and writes
/// are apart because a client that is alone while the other installs a
/// batch sees a faster server, and a median over both states would flip
/// between them. A slice ends with the cube as it found it.
fn repetitions(w: &Workload, stack: &Stack, seconds: f64, pairs: usize, extras: bool) -> Reps {
    let window = Duration::from_secs_f64(seconds / 16.0);
    let warm = Duration::from_secs_f64((seconds / 8.0).min(2.0));
    let mut load = Load::new(stack, &w.main, &w.batches, w.clients, w.cube.clone());
    let warmed = load.run(Mode::Throughput, Limit::Time(warm), WARM_CAP);
    // Twice the ops the warm-up rate predicts, so a buffer ends a window
    // early only if the stack doubles its speed mid-run.
    let cap = (warmed.qps / w.clients as f64 * window.as_secs_f64() * 2.0) as usize + (1 << 16);
    let quiet = w
        .probe
        .as_ref()
        .filter(|_| extras)
        .map(Phase::without_writes);
    let mut probes = w
        .probe
        .as_ref()
        .zip(quiet.as_ref())
        .map(|(writing, quiet)| {
            let new = |phase| Load::new(stack, phase, &w.probe_batches, w.clients, w.cube.clone());
            (new(quiet), new(writing))
        });
    let mut reps = Reps {
        throughput: Vec::new(),
        latency: Vec::new(),
        probe_reads: Vec::new(),
        probe_writes: Vec::new(),
        rebuild_s: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for _ in 0..pairs {
        reps.throughput
            .push(load.run(Mode::Throughput, Limit::Time(window), cap));
        reps.latency
            .push(load.run(Mode::Latency, Limit::Time(window), cap));
        if let Some((reads, writes)) = &mut probes {
            reps.probe_reads.push(reads.run(
                Mode::Latency,
                Limit::Time(Duration::from_millis(250)),
                PROBE_CAP,
            ));
            reps.probe_writes.push(writes.run(
                Mode::Latency,
                Limit::Batches(PROBE_SLICE_BATCHES),
                PROBE_CAP,
            ));
        }
        if extras {
            let t = Instant::now();
            let rebuilt = Stack::build(&w.spec, &w.cube);
            reps.rebuild_s.push(t.elapsed().as_secs_f64());
            drop(rebuilt);
        }
    }
    let loads =
        std::iter::once(&load).chain(probes.iter().flat_map(|(reads, writes)| [reads, writes]));
    (reps.attempted, reps.failed) = loads.fold((0, 0), |(a, f), l| (a + l.attempted, f + l.failed));
    reps
}

/// The second-best value of the windows: second-highest where higher is
/// better, second-lowest where lower is. Interference on this kind of
/// machine only slows a window down and comes in spells of seconds, so
/// the best windows repeat from run to run where the median window does
/// not; the very best is left out because it is now and then a fluke.
fn second_best(values: &mut [f64], better: Better) -> f64 {
    values.sort_by(f64::total_cmp);
    if better == Better::Higher {
        values.reverse();
    }
    values
        .get(1)
        .or(values.first())
        .copied()
        .unwrap_or(f64::NAN)
}

fn qps_of(reps: &[Rep]) -> f64 {
    second_best(
        &mut reps.iter().map(|r| r.chunk_qps).collect::<Vec<_>>(),
        Better::Higher,
    )
}

fn ops_json(reps: &[Rep]) -> Json {
    Json::Arr(reps.iter().map(|r| Json::Num(r.ops as f64)).collect())
}

/// Second-best over the latency windows of each window's own median, in
/// µs, for the op kind `pick` selects, with the samples behind it. A
/// kind the workload's own mix lacks is read from the slices of `probe`.
fn p50_over_windows(
    windows: &mut [Rep],
    probe: &mut [Rep],
    pick: fn(&mut Latencies) -> &mut Vec<u32>,
) -> (f64, usize) {
    let mut samples = 0;
    let mut p50s: Vec<f64> = windows
        .iter_mut()
        .chain(probe.iter_mut())
        .map(|rep| pick(&mut rep.lat))
        .filter(|ns| !ns.is_empty())
        .map(|ns| {
            samples += ns.len();
            p50_us(ns)
        })
        .collect();
    (second_best(&mut p50s, Better::Lower), samples)
}

/// The untraced run: every end-to-end metric of one workload.
fn end_to_end(w: &Workload, seconds: f64) -> RunResult {
    let mut setup_s = Vec::new();
    let mut built: Option<(Stack, i64)> = None;
    for _ in 0..SETUP_BUILDS {
        drop(built.take());
        let t = Instant::now();
        let (stack, _, live_bytes) = alloc::counted(|| Stack::build(&w.spec, &w.cube));
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((stack, live_bytes));
    }
    let (stack, live_bytes) = built.expect("built");
    let base_bytes = w.cube.len() * std::mem::size_of::<i64>();

    let mut reps = repetitions(w, &stack, seconds, 8, true);
    setup_s.append(&mut reps.rebuild_s);
    let windows = &mut reps.latency;
    let (op_us, op_n) = p50_over_windows(windows, &mut [], |lat| &mut lat.all);
    let (sum_us, sum_n) = p50_over_windows(windows, &mut [], |lat| &mut lat.sum);
    // The probe stands in only for a kind that no window of the
    // workload's own mix has.
    let has =
        |pick: fn(&Latencies) -> &Vec<u32>| windows.iter().any(|rep| !pick(&rep.lat).is_empty());
    let reads = if has(|lat| &lat.max) {
        &mut [][..]
    } else {
        &mut reps.probe_reads[..]
    };
    let writes = if has(|lat| &lat.update) {
        &mut [][..]
    } else {
        &mut reps.probe_writes[..]
    };
    let (max_us, max_n) = p50_over_windows(windows, reads, |lat| &mut lat.max);
    let (update_us, update_n) = p50_over_windows(windows, writes, |lat| &mut lat.update);
    let setup_builds = setup_s.len();
    let values = [
        median(&mut setup_s),
        qps_of(&reps.throughput),
        op_us,
        sum_us,
        max_us,
        update_us,
        live_bytes as f64 / base_bytes as f64,
    ];
    let count = |v: usize| Json::Num(v as f64);
    RunResult {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Measured {
                name: m.name,
                unit: m.unit,
                better: m.better,
                value,
            })
            .collect(),
        attempted: reps.attempted,
        failed: reps.failed,
        samples: Json::obj([
            ("setup_builds", count(setup_builds)),
            ("throughput_ops", ops_json(&reps.throughput)),
            (
                "window_qps",
                Json::Arr(
                    reps.throughput
                        .iter()
                        .map(|r| Json::Num(r.chunk_qps.round()))
                        .collect(),
                ),
            ),
            ("latency_ops", ops_json(&reps.latency)),
            ("op", count(op_n)),
            ("sum", count(sum_n)),
            ("max", count(max_n)),
            ("update", count(update_n)),
            (
                "probe_ops",
                count(
                    reads
                        .iter()
                        .chain(writes.iter())
                        .map(|p| p.ops as usize)
                        .sum(),
                ),
            ),
            ("cache_hit_rate", Json::Num(stack.cache_stats().hit_rate())),
        ]),
    }
}

/// The traced run: every per-layer metric of one workload, from the
/// ladder and from throughput and per-op-timed windows of the workload's
/// own load. Writes the spans to `out/trace_<workload>.json`.
fn per_layer(w: &Workload, seed: u64, seconds: f64) -> RunResult {
    let report = ladder::run(w, seed, w.clients);
    let stack = Stack::build(&w.spec, &w.cube);
    let mut reps = repetitions(w, &stack, seconds, 4, false);
    let mut lat: Vec<u32> = reps
        .latency
        .iter()
        .flat_map(|rep| rep.lat.all.iter().copied())
        .collect();
    lat.sort_unstable();
    // The workload's own stream against the same server with one shard.
    let one_shard = {
        let spec = StackSpec::Served(ServeConfig {
            shards: 1,
            ..w.serve_config()
        });
        let stack = Stack::build(&spec, &w.cube);
        let mut load = Load::new(
            &stack,
            &w.main,
            &w.batches,
            workload::served_clients(),
            w.cube.clone(),
        );
        load.run(
            Mode::Throughput,
            Limit::Time(Duration::from_millis(250)),
            WARM_CAP,
        );
        let rep = load.run(
            Mode::Throughput,
            Limit::Time(Duration::from_secs(1)),
            WARM_CAP,
        );
        reps.attempted += load.attempted;
        reps.failed += load.failed;
        rep.chunk_qps
    };
    let qps: Vec<f64> = reps.throughput.iter().map(|r| r.qps).collect();
    let (lo, hi) = qps.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &q| {
        (lo.min(q), hi.max(q))
    });
    let client = [
        ("server.qps_1shard", one_shard),
        ("client.op_p99_us", percentile(&lat, 0.99) / 1e3),
        ("client.op_p999_us", percentile(&lat, 0.999) / 1e3),
        (
            "client.cpu_us_per_op",
            median(
                &mut reps
                    .throughput
                    .iter()
                    .map(|r| r.cpu_us_per_op)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("client.rep_spread", hi / lo),
        ("client.clock_overhead_ns", ladder::clock_overhead_ns()),
        // Untraced qps over the qps of the windows that time each op.
        (
            "client.trace_overhead",
            qps_of(&reps.throughput) / qps_of(&reps.latency),
        ),
    ];
    let measured: HashMap<&str, f64> = report.metrics.iter().copied().chain(client).collect();
    let metrics = PER_LAYER
        .iter()
        .map(|m| Measured {
            name: m.name,
            unit: m.unit,
            better: m.better,
            value: *measured
                .get(m.name)
                .unwrap_or_else(|| panic!("{} was not measured", m.name)),
        })
        .collect();

    println!(
        "  chain, p50 per rung and self time (ns), from {} sampled ops:",
        report.ops
    );
    for chain in &report.chains {
        for ((rung, p50), own) in ladder::RUNGS.iter().zip(&chain.p50_ns).zip(chain.self_ns()) {
            println!(
                "    {:<10} {:<14} {:>12.0} {:>12.0}",
                chain.kind, rung, p50, own
            );
        }
    }
    let path = out_dir().join(format!("trace_{}.json", w.name));
    match write_file(&path, &report.trace_json(w.name, seed).render()) {
        Ok(()) => println!(
            "  {} spans written to {}",
            report.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("ledger: cannot write {}: {e}", path.display()),
    }
    RunResult {
        metrics,
        attempted: report.attempted + reps.attempted,
        failed: report.failed + reps.failed,
        samples: Json::obj([
            ("ladder_ops", Json::Num(report.ops as f64)),
            ("spans", Json::Num(report.spans.len() as f64)),
            ("throughput_ops", ops_json(&reps.throughput)),
            ("latency_ops", ops_json(&reps.latency)),
        ]),
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// First line of a command's output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What every output records about the run.
fn meta(seed: u64, seconds: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        (
            "served_clients",
            Json::Num(workload::served_clients() as f64),
        ),
    ])
}

fn generate(name: &str, seed: u64) -> Result<Workload, String> {
    let w = Workload::generate(name, seed).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    println!(
        "workload {} seed {seed} clients {} ops_hash {:016x}",
        w.name,
        w.clients,
        w.ops_hash()
    );
    Ok(w)
}

struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            positional: Vec::new(),
            flags: HashMap::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("--{key} needs a value"))?;
                    parsed.flags.insert(key.to_string(), value);
                }
                None => parsed.positional.push(arg),
            }
        }
        Ok(parsed)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
            None => Ok(default),
        }
    }
}

fn run(args: Args) -> Result<bool, String> {
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let words: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match words[..] {
        [] => {
            let name = args
                .flags
                .get("workload")
                .ok_or("--workload <name> is required")?;
            let traced = match args.flags.get("trace").map(String::as_str) {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            };
            println!("meta {}", meta(seed, seconds).render());
            let w = generate(name, seed)?;
            let result = if traced {
                per_layer(&w, seed, seconds)
            } else {
                end_to_end(&w, seconds)
            };
            result.print(if traced { "per-layer" } else { "end-to-end" });
            println!("{}", result.result_line());
            Ok(result.failed == 0)
        }
        ["trace", name] => {
            println!("meta {}", meta(seed, seconds).render());
            let result = per_layer(&generate(name, seed)?, seed, seconds);
            result.print("per-layer");
            Ok(result.failed == 0)
        }
        ["all"] => {
            let meta = meta(seed, seconds);
            println!("meta {}", meta.render());
            let mut ok = true;
            let mut workloads = Vec::new();
            for (name, _) in WORKLOADS {
                let w = generate(name, seed)?;
                let e2e = end_to_end(&w, seconds);
                e2e.print("end-to-end");
                let layers = per_layer(&w, seed, seconds);
                layers.print("per-layer");
                ok &= e2e.failed == 0 && layers.failed == 0;
                let entry = Json::obj([
                    ("clients", Json::Num(w.clients as f64)),
                    ("ops_hash", Json::str(format!("{:016x}", w.ops_hash()))),
                    (
                        "ops_attempted",
                        Json::Num((e2e.attempted + layers.attempted) as f64),
                    ),
                    ("ops_failed", Json::Num((e2e.failed + layers.failed) as f64)),
                    ("end_to_end", e2e.metrics_json()),
                    ("per_layer", layers.metrics_json()),
                    (
                        "samples",
                        Json::obj([("end_to_end", e2e.samples), ("per_layer", layers.samples)]),
                    ),
                ]);
                workloads.push((name.to_string(), entry));
            }
            let doc = Json::obj([
                ("meta", meta),
                ("claim", Json::Null),
                ("workloads", Json::Obj(workloads)),
            ]);
            let path = match args.flags.get("out") {
                Some(path) => PathBuf::from(path),
                None => out_dir().join(format!("ledger_seed{seed}.json")),
            };
            write_file(&path, &doc.render())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("results written to {}", path.display());
            Ok(ok)
        }
        ["compare", a, b] => {
            // Either side may be a comma-separated set of result files.
            let read = |paths: &str| {
                paths
                    .split(',')
                    .map(|path| {
                        let text =
                            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
                    })
                    .collect::<Result<Vec<Json>, String>>()
            };
            Ok(compare::report(&compare::rows(&read(a)?, &read(b)?)))
        }
        _ => Err(
            "usage: ledger [all | trace <workload> | compare A.json B.json] \
                  [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--out file]"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly what the binary reports.
    #[test]
    fn benchmark_json_matches_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();

        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .items()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(listed, ours);
        assert_eq!(doc.get("paths").unwrap().items(), [Json::str("benchmark")]);
    }

    #[test]
    fn args_split_flags_from_words() {
        let args = Args::parse(
            ["trace", "lib_tax_2d", "--seed", "7"]
                .map(String::from)
                .into_iter(),
        )
        .unwrap();
        assert_eq!(args.positional, ["trace", "lib_tax_2d"]);
        assert_eq!(args.number("seed", 1u64).unwrap(), 7);
        assert_eq!(args.number("seconds", 20.0).unwrap(), 20.0);
        assert!(Args::parse(["--seed"].map(String::from).into_iter()).is_err());
        assert!(args.number::<u64>("seed", 1).is_ok());
    }
}

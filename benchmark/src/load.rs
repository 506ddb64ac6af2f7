//! The closed-loop load generator: each client issues its next op only
//! when the previous one has returned. Answers go into preallocated
//! buffers and are checked against the oracle after the clock stops.

use crate::oracle::Oracle;
use crate::stats::median;
use crate::workload::{Batch, Kind, Phase, Read, Stack};
use olap_array::DenseArray;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::SeqCst};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Ops between two reads of the clock in a throughput repetition.
const CLOCK_EVERY: usize = 64;
/// Stored in place of an answer when the op returned an error.
const FAILED: i64 = i64::MIN;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Clock read once per [`CLOCK_EVERY`] ops.
    Throughput,
    /// Clock read around every op.
    Latency,
}

#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Time(Duration),
    /// Until client 0 has installed this many batches.
    Batches(u64),
}

/// Where a client stands in the stream; carried from one repetition to
/// the next so the stream keeps cycling.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    offset: u64,
    reads: u64,
    ops: u64,
}

enum Op {
    Read(Read),
    Update,
}

/// The op a client issues at `cur`: a pure function of the cursor, so the
/// verifier can replay a log without the log naming its ops.
fn op_at(phase: &Phase, writer: bool, cur: &Cursor) -> Op {
    match phase.update_every {
        Some(every) if writer && (cur.ops + 1).is_multiple_of(every) => Op::Update,
        _ => {
            let at = (cur.offset + cur.reads) % phase.stream.len() as u64;
            Op::Read(phase.stream[at as usize])
        }
    }
}

struct ClientLog {
    /// One entry per op: the answer, `1` for an installed batch, or
    /// [`FAILED`].
    values: Vec<i64>,
    /// The state counter before and after each op, when the phase writes.
    states: Vec<(u32, u32)>,
    /// Per-op latency in ns, in a latency repetition.
    lat_ns: Vec<u32>,
    /// Ns since the window began at each read of the clock, that is every
    /// [`CLOCK_EVERY`] ops.
    ticks: Vec<u64>,
    elapsed: Duration,
}

/// Per-op latencies of one repetition, split by op kind.
#[derive(Default)]
pub struct Latencies {
    pub all: Vec<u32>,
    pub sum: Vec<u32>,
    pub max: Vec<u32>,
    pub update: Vec<u32>,
}

pub struct Rep {
    pub ops: u64,
    /// Ops ÷ each client's own window, summed over clients.
    pub qps: f64,
    /// [`CLOCK_EVERY`] ÷ the median time a client took for that many ops,
    /// summed over clients: the rate between stalls.
    pub chunk_qps: f64,
    pub cpu_us_per_op: f64,
    pub lat: Latencies,
}

pub struct Load<'a> {
    stack: &'a Stack,
    phase: &'a Phase,
    batches: &'a [Batch],
    cursors: Vec<Cursor>,
    /// Twice the batches installed, plus one while a batch is in flight.
    state: AtomicU32,
    oracle: Oracle,
    pub attempted: u64,
    pub failed: u64,
}

impl<'a> Load<'a> {
    /// `cube` is the state the stack currently serves.
    pub fn new(
        stack: &'a Stack,
        phase: &'a Phase,
        batches: &'a [Batch],
        clients: usize,
        cube: DenseArray<i64>,
    ) -> Load<'a> {
        let len = phase.stream.len() as u64;
        Load {
            stack,
            phase,
            batches,
            cursors: (0..clients as u64)
                .map(|c| Cursor {
                    offset: c * len / clients as u64,
                    reads: 0,
                    ops: 0,
                })
                .collect(),
            state: AtomicU32::new(0),
            oracle: Oracle::new(cube, &phase.sum_pool, &phase.max_pool),
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs one repetition and verifies it. `cap` bounds the ops a client
    /// may log; a client that fills its buffer ends its window early.
    pub fn run(&mut self, mode: Mode, limit: Limit, cap: usize) -> Rep {
        let starts = self.cursors.clone();
        let installed = u64::from(self.oracle.state());
        let (stack, phase, batches, state) = (self.stack, self.phase, self.batches, &self.state);
        let barrier = Barrier::new(self.cursors.len());
        let stop = AtomicBool::new(false);
        let cpu0 = cpu_time_us();
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .cursors
                .iter_mut()
                .enumerate()
                .map(|(c, cur)| {
                    let (barrier, stop) = (&barrier, &stop);
                    scope.spawn(move || {
                        let ctx = Client {
                            stack,
                            phase,
                            batches,
                            state,
                            stop,
                            writer: c == 0,
                            installed,
                        };
                        let mut log = ClientLog {
                            values: Vec::with_capacity(cap),
                            states: Vec::with_capacity(if phase.update_every.is_some() {
                                cap
                            } else {
                                0
                            }),
                            lat_ns: Vec::with_capacity(if mode == Mode::Latency { cap } else { 0 }),
                            ticks: Vec::with_capacity(cap / CLOCK_EVERY + 2),
                            elapsed: Duration::ZERO,
                        };
                        barrier.wait();
                        ctx.drive(cur, mode, limit, cap, &mut log);
                        log
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let cpu_us = cpu_time_us() - cpu0;
        self.verify(&starts, logs, cpu_us)
    }

    /// Extends the oracle by the batches client 0 installed, then replays
    /// every log against it.
    fn verify(&mut self, starts: &[Cursor], logs: Vec<ClientLog>, cpu_us: f64) -> Rep {
        let installed_before = u64::from(self.oracle.state());
        let new_batches =
            (self.cursors[0].ops - self.cursors[0].reads) - (starts[0].ops - starts[0].reads);
        for k in 0..new_batches {
            let at = (installed_before + k) % self.batches.len() as u64;
            self.oracle.apply(&self.batches[at as usize]);
        }
        let mut rep = Rep {
            ops: 0,
            qps: 0.0,
            chunk_qps: 0.0,
            cpu_us_per_op: 0.0,
            lat: Latencies::default(),
        };
        for (c, (log, start)) in logs.iter().zip(starts).enumerate() {
            let mut cur = *start;
            for (i, &value) in log.values.iter().enumerate() {
                let lat = log.lat_ns.get(i).copied();
                let (ok, bucket) = match op_at(self.phase, c == 0, &cur) {
                    Op::Update => (value == 1, &mut rep.lat.update),
                    Op::Read(read) => {
                        let (lo, hi) = match log.states.get(i) {
                            // At least the batches finished before the op
                            // began, at most those begun before it ended.
                            Some(&(before, after)) => (before / 2, after.div_ceil(2)),
                            None => (installed_before as u32, installed_before as u32),
                        };
                        cur.reads += 1;
                        let ok = self.oracle.accepts(read.kind, read.idx, value, lo, hi);
                        (
                            ok,
                            if read.kind == Kind::Sum {
                                &mut rep.lat.sum
                            } else {
                                &mut rep.lat.max
                            },
                        )
                    }
                };
                cur.ops += 1;
                self.failed += u64::from(!ok);
                if let Some(ns) = lat {
                    bucket.push(ns);
                    rep.lat.all.push(ns);
                }
            }
            rep.ops += log.values.len() as u64;
            rep.qps += log.values.len() as f64 / log.elapsed.as_secs_f64();
            let mut chunk_ns: Vec<f64> =
                log.ticks.windows(2).map(|t| (t[1] - t[0]) as f64).collect();
            rep.chunk_qps += CLOCK_EVERY as f64 * 1e9 / median(&mut chunk_ns);
        }
        self.attempted += rep.ops;
        rep.cpu_us_per_op = cpu_us / rep.ops.max(1) as f64;
        rep
    }
}

struct Client<'a> {
    stack: &'a Stack,
    phase: &'a Phase,
    batches: &'a [Batch],
    state: &'a AtomicU32,
    stop: &'a AtomicBool,
    writer: bool,
    /// Batches installed before this repetition.
    installed: u64,
}

impl Client<'_> {
    fn drive(&self, cur: &mut Cursor, mode: Mode, limit: Limit, cap: usize, log: &mut ClientLog) {
        let track = self.phase.update_every.is_some();
        let timed = mode == Mode::Latency;
        let mut installed = self.installed;
        let start = Instant::now();
        log.ticks.push(0);
        'window: loop {
            for _ in 0..CLOCK_EVERY {
                let began = timed.then(Instant::now);
                match op_at(self.phase, self.writer, cur) {
                    Op::Update => {
                        let batch = &self.batches[(installed % self.batches.len() as u64) as usize];
                        let before = self.state.fetch_add(1, SeqCst);
                        let ok = self.stack.update(batch);
                        self.state.fetch_add(1, SeqCst);
                        installed += 1;
                        log.values.push(if ok { 1 } else { FAILED });
                        log.states.push((before, before + 2));
                    }
                    Op::Read(read) => {
                        let q = match read.kind {
                            Kind::Sum => &self.phase.sum_q[read.idx as usize],
                            Kind::Max => &self.phase.max_q[read.idx as usize],
                        };
                        if track {
                            let before = self.state.load(SeqCst);
                            let value = self.stack.read(read.kind, q);
                            log.states.push((before, self.state.load(SeqCst)));
                            log.values.push(value.unwrap_or(FAILED));
                        } else {
                            log.values
                                .push(self.stack.read(read.kind, q).unwrap_or(FAILED));
                        }
                        cur.reads += 1;
                    }
                }
                cur.ops += 1;
                if let Some(began) = began {
                    log.lat_ns
                        .push(began.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
                }
                if let Limit::Batches(n) = limit {
                    if self.writer && installed - self.installed >= n {
                        self.stop.store(true, SeqCst);
                        break 'window;
                    }
                }
            }
            let now = start.elapsed();
            log.ticks.push(now.as_nanos() as u64);
            let out_of_time = matches!(limit, Limit::Time(d) if now >= d);
            if out_of_time || self.stop.load(SeqCst) || log.values.len() + CLOCK_EVERY > cap {
                break;
            }
        }
        log.elapsed = start.elapsed();
    }
}

/// User plus system CPU time of this process in µs, from
/// `/proc/self/stat` (clock ticks of 10 ms). 0 where that is unreadable.
fn cpu_time_us() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, so the 12th and 13th after it.
    let after = stat.rsplit(')').next().unwrap_or("");
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks * 10_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// A short read-write run end to end on a small stack: every answer
    /// verifies, and a corrupted batch table is caught.
    #[test]
    fn toy_run_verifies_and_detects_a_wrong_oracle() {
        let w = Workload::generate("served_rw_4d", 9).unwrap();
        let stack = Stack::build(&w.spec, &w.cube);
        let mut load = Load::new(&stack, &w.main, &w.batches, 2, w.cube.clone());
        let rep = load.run(Mode::Latency, Limit::Batches(4), 1 << 12);
        assert!(rep.ops >= 4 * 64);
        assert_eq!(rep.lat.update.len(), 4);
        assert_eq!(rep.lat.all.len() as u64, rep.ops);
        assert_eq!((load.attempted, load.failed), (rep.ops, 0));
        let rep = load.run(
            Mode::Throughput,
            Limit::Time(Duration::from_millis(50)),
            1 << 16,
        );
        assert!(rep.lat.all.is_empty() && rep.qps > 0.0);
        assert_eq!(load.failed, 0);

        // The same ops against a stack that serves a different cube.
        let other = Stack::build(&w.spec, &w.cube.map(|v| v + 1));
        let mut load = Load::new(&other, &w.main, &w.batches, 2, w.cube.clone());
        load.run(Mode::Throughput, Limit::Batches(2), 1 << 12);
        assert!(load.failed > 0);
    }
}

//! The metric and workload tables. `BENCHMARK.json` at the repository
//! root lists the same names, units, directions and bounds; the
//! `benchmark_json_matches_tables` test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: gated, one value per workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "qps",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sum_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "max_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "update_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "space_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
    },
];

/// A per-layer metric: diagnostic, filled by the traced run, never gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 45] = [
    lo("prefix_sum.sum_ns", "ns"),
    lo("prefix_sum.allocs_per_op", "count"),
    lo("prefix_sum.blocked_sum_ns", "ns"),
    lo("prefix_sum.build_ms", "ms"),
    lo("prefix_sum.batch_update_us", "us"),
    lo("range_max.build_ms", "ms"),
    lo("range_max.max_ns", "ns"),
    lo("range_max.update_us", "us"),
    lo("tree_sum.build_ms", "ms"),
    lo("engine.index.sum_ns", "ns"),
    lo("engine.index.max_ns", "ns"),
    lo("engine.index.allocs_per_op", "count"),
    lo("engine.index.accesses_per_op", "count"),
    lo("engine.index.derive_us", "us"),
    lo("planner.estimate_ns", "ns"),
    lo("engine.router.sum_ns", "ns"),
    lo("engine.router.max_ns", "ns"),
    lo("engine.router.tax_ns", "ns"),
    lo("engine.router.allocs_per_op", "count"),
    lo("engine.router.update_us", "us"),
    lo("engine.cache.hit_ns", "ns"),
    lo("engine.cache.miss_tax_ns", "ns"),
    hi("engine.cache.hit_rate", "ratio"),
    lo("engine.cache.evictions_per_op", "count"),
    hi("engine.cache.assemblies_per_kop", "count"),
    lo("engine.cache.allocs_per_op", "count"),
    lo("engine.cache.update_us", "us"),
    lo("engine.cache.invalidations_per_update", "count"),
    lo("engine.version.install_us", "us"),
    lo("server.build_ms", "ms"),
    lo("server.tax_us", "us"),
    lo("server.fanout1_p50_us", "us"),
    lo("server.fanoutN_p50_us", "us"),
    lo("server.shards_per_op", "count"),
    lo("server.queue_depth_max", "count"),
    lo("server.allocs_per_op", "count"),
    hi("server.qps_1shard", "ops/s"),
    lo("server.update_us", "us"),
    lo("telemetry.active_tax", "ratio"),
    lo("client.op_p99_us", "us"),
    lo("client.op_p999_us", "us"),
    lo("client.cpu_us_per_op", "us"),
    lo("client.rep_spread", "ratio"),
    lo("client.clock_overhead_ns", "ns"),
    lo("client.trace_overhead", "ratio"),
];

/// The four workloads with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "lib_tax_2d",
        "cache-miss stream over the default shard stack: per-op time is cache and router bookkeeping, the kernel about 3 %",
    ),
    (
        "lib_kernel_2d",
        "blocked b=16 sums and range-max on a 1024x1024 cube that misses L2: time is in the kernels, not the router or cache",
    ),
    (
        "served_zipf_2d",
        "Zipf pool that fits the shard caches, through the 4-shard server: admission, split, queue hop and merge do the work",
    ),
    (
        "served_rw_4d",
        "the paper's insurance cube with installs beside reads: derive, version install and cache invalidation trade against read latency",
    ),
];

/// A measured value with its unit, keyed by metric name in the output.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
}

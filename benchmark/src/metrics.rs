//! The metric and workload tables — the one place names, units, directions
//! and bounds are fixed. `BENCHMARK.json` at the repository root repeats
//! them for the driver; a unit test keeps the two in step.

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

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// What a user of the engine sees, per workload.
///
/// Timings have hypervisor steal taken out (see `harness::Timed`). The two
/// timing bounds are still 25%, not the 10% ISSUE 11 asked for: on the
/// shared 2-vCPU VM this was written on, ten 10-second runs of one commit
/// spread 5-12% (quartile distance over median) on `latency_p50_ms` after
/// the correction and 20-60% before it — cold caches after a steal burst,
/// neighbours on the shared L3, and drift over minutes remain. A 10% bound
/// would call that noise a regression. Smaller effects are for the paired
/// comparison (choosing-metrics section 8), not for the bound.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat exactly for one seed on one commit;
    /// `--compare` demands equality instead of applying a bound.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Better::Lower,
        exact,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

/// Single-layer diagnostics from the traced run. A workload that does not
/// touch a layer reports 0 for it. The README says which end-to-end metric
/// each should move, and on which workload.
pub const PER_LAYER: [PerLayer; 64] = [
    timing("sql.normalize_us", "us"),
    timing("sql.parse_lower_us", "us"),
    timing("ordering.path_order_us", "us"),
    timing("ordering.tree_order_us", "us"),
    timing("core.optimize_us", "us"),
    timing("core.optimize_chain16_us", "us"),
    timing("core.optimize_star16_us", "us"),
    timing("core.optimize_q5_exhaustive_ms", "ms"),
    count("core.groups", true),
    count("core.candidates", true),
    count("core.reordered_joins", true),
    timing("core.compile_us", "us"),
    timing("core.plan_cache_hit_us", "us"),
    higher("core.plan_cache_hit_rate", "ratio"),
    timing("exec.q2_ms", "ms"),
    timing("exec.q3_ms", "ms"),
    timing("exec.q4_ms", "ms"),
    timing("exec.q5_ms", "ms"),
    timing("exec.q6_ms", "ms"),
    timing("exec.ex1_ms", "ms"),
    timing("exec.sfp_ms", "ms"),
    timing("exec.hash_join_ms", "ms"),
    timing("exec.star5_ms", "ms"),
    timing("exec.partial_sort_ms", "ms"),
    timing("exec.seek_us", "us"),
    count("exec.comparisons", true),
    count("exec.run_pages_written", true),
    count("exec.run_pages_read", true),
    count("exec.runs_created", true),
    count("exec.rows_out", true),
    count("storage.device_reads", false),
    count("storage.device_writes", false),
    higher("storage.pool_hit_rate", "ratio"),
    count("storage.pool_evictions", false),
    count("storage.pool_writebacks", false),
    PerLayer {
        name: "storage.wal_bytes_per_user_byte",
        unit: "ratio",
        better: Better::Lower,
        exact: true,
    },
    PerLayer {
        name: "storage.disk_bytes_per_user_byte",
        unit: "ratio",
        better: Better::Lower,
        exact: true,
    },
    count("storage.checkpoints", false),
    timing("storage.checkpoint_ms", "ms"),
    timing("storage.reopen_ms", "ms"),
    timing("catalog.register_ms", "ms"),
    timing("catalog.commit_ms", "ms"),
    timing("catalog.index_build_ms", "ms"),
    timing("wire.rtt_point_p50_us", "us"),
    timing("wire.rtt_point_tail_us", "us"),
    timing("wire.rtt_range_p50_us", "us"),
    timing("wire.rtt_literal_p50_us", "us"),
    timing("wire.direct_point_p50_us", "us"),
    timing("wire.overhead_point_us", "us"),
    timing("wire.encode_rows_us", "us"),
    timing("wire.decode_rows_us", "us"),
    timing("wire.frame_roundtrip_us", "us"),
    higher("wire.admitted", "count"),
    count("wire.queued", false),
    count("wire.shed", false),
    timing("session.op_tail_ms", "ms"),
    higher("session.op_tail_pct", "%"),
    higher("session.op_samples", "count"),
    timing("session.op_wall_p50_ms", "ms"),
    timing("session.steal_pct", "%"),
    higher("session.exec_share_pct", "%"),
    higher("session.trace_coverage_pct", "%"),
    timing("session.trace_overhead_pct", "%"),
    timing("session.error_rate", "ratio"),
];

#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    pub name: &'static str,
    /// One line: why this workload is in the set.
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "paper_order",
        why: "the paper's six statements, hash off: sort enforcers, merge joins and sort-based grouping carry the time; wire and pool idle",
    },
    WorkloadInfo {
        name: "scan_join",
        why: "columnar scan/filter/project/hash-join and a 5-way star, workers 1: sort does nothing, so a sort change must show no change here",
    },
    WorkloadInfo {
        name: "scan_join_w2",
        why: "same data and statements at workers 2: the exchange/morsel path, where a serial-path gain can cost the parallel path",
    },
    WorkloadInfo {
        name: "durable_mix",
        why: "durable session, table 2.45x the pool: WAL commit + pool-flooding scan + seek; only here pool eviction, WAL and file device block",
    },
    WorkloadInfo {
        name: "wire_point",
        why: "2 closed-loop TCP clients, 8:1:1 point/range/literal on data that fits the pool: codec, admission, plan cache and seek; exec idle",
    },
    WorkloadInfo {
        name: "plan_wide",
        why: "uncached planning of the paper statements x 5 strategies plus 4-16-way chain/star joins; nothing executes, so only sql+ordering+core move",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(item: &'a Json, key: &str) -> &'a str {
        item.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let doc = benchmark_json();
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
        }
    }

    #[test]
    fn names_units_and_whys_fit_the_driver_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}

//! The benchmark's catalogue: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from it (`loopbench manifest`), and a test
//! keeps the committed file equal to the generated text.

use crate::json::{number, quote};
use crate::stats::Better;

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 25;

/// One workload of the benchmark.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// One metric: name, unit, direction, and for end-to-end metrics the share
/// of the parent's median it may worsen by before a change is rejected.
///
/// The bounds follow the spread between runs on different seeds, measured
/// on a shared 2-vCPU host: every timing metric, and the resident set,
/// drifted 7-17% (quartile spread over median) with the host's load, so
/// they take the largest bound allowed; the deterministic quality metrics
/// moved at most 2.4% from seed to seed.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "cdr-durable",
        why: "CDR churn with fsync'd append + install every batch: persist dominates, so fewer fsyncs per batch shows here",
    },
    WorkloadDef {
        name: "twitter-serve",
        why: "Twitter mentions over a full daily cycle, 1024 community-biased 2-hop queries per batch, in memory: serving dominates and persist is bypassed",
    },
    WorkloadDef {
        name: "burst-sweep",
        why: "10% forest-fire burst onto a 1M-vertex Holme-Kim graph from a hash start, in memory: the decide/merge/apply sweep dominates",
    },
];

pub const END_TO_END: &[MetricDef] = &[
    e2e("batch_p50_ms", "ms", Lower, 0.25),
    e2e("batch_p95_ms", "ms", Lower, 0.25),
    e2e("deltas_per_s", "1/s", Higher, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("query_p99_us", "us", Lower, 0.25),
    e2e("cut_ratio_mean", "ratio", Lower, 0.08),
    e2e("local_hop_pct", "%", Higher, 0.07),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("recovery_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

pub const PER_LAYER: &[MetricDef] = &[
    layer("graph.apply_ms_p50", "ms", Lower),
    layer("graph.apply_ms_p95", "ms", Lower),
    layer("graph.apply_ms_sum", "ms", Lower),
    layer("graph.deltas", "count", Higher),
    layer("sweep.ms_sum", "ms", Lower),
    layer("sweep.decide_ms", "ms", Lower),
    layer("sweep.merge_ms", "ms", Lower),
    layer("sweep.apply_ms", "ms", Lower),
    layer("sweep.visited", "count", Lower),
    layer("sweep.slots_scheduled", "count", Lower),
    layer("sweep.migrations", "count", Higher),
    layer("sweep.migrations_per_visited", "ratio", Higher),
    layer("sweep.iterations_skipped", "count", Higher),
    layer("persist.append_ms_p50", "ms", Lower),
    layer("persist.append_ms_p95", "ms", Lower),
    layer("persist.append_ms_sum", "ms", Lower),
    layer("persist.install_ms_p50", "ms", Lower),
    layer("persist.install_ms_p95", "ms", Lower),
    layer("persist.install_ms_sum", "ms", Lower),
    layer("persist.install_bytes", "bytes", Lower),
    layer("persist.append_bytes", "bytes", Lower),
    layer("persist.incremental_share", "ratio", Higher),
    layer("persist.chain_len_max", "count", Lower),
    layer("persist.live_bytes", "bytes", Lower),
    layer("serve.ms_sum", "ms", Lower),
    layer("serve.lookup_p50_us", "us", Lower),
    layer("serve.neighborhood_p50_us", "us", Lower),
    layer("serve.khop_p50_us", "us", Lower),
    layer("serve.khop_p99_us", "us", Lower),
    layer("serve.hops", "count", Lower),
    layer("serve.local_hops", "count", Higher),
    layer("serve.misses", "count", Lower),
    layer("loop.batch_ms_sum", "ms", Lower),
    layer("loop.unaccounted_pct", "%", Lower),
    layer("loop.trace_overhead_pct", "%", Lower),
    layer("loop.failed_ops_pct", "%", Lower),
];

/// Looks a metric up by name in either list.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "loopbench/Cargo.toml",
        "--",
    ];
    let list = |items: Vec<String>| format!("[\n{}\n  ]", items.join(",\n"));
    let command = command
        .iter()
        .map(|s| quote(s))
        .collect::<Vec<_>>()
        .join(", ");
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let metric = |m: &MetricDef| {
        let head = format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.label())
        );
        match m.bound {
            Some(bound) => format!("{head}, \"bound\": {}}}", number(bound)),
            None => format!("{head}}}"),
        }
    };
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [\"loopbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(workloads),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path loopbench/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn catalogue_meets_the_format_limits() {
        let v = parse(&benchmark_json()).unwrap();
        assert_eq!(v.as_object().unwrap().len(), 6);
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(names.insert(w.name));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = metric("setup_s").unwrap();
        assert_eq!(
            (setup.unit, setup.better, setup.bound),
            ("s", Lower, Some(0.25))
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(matches!(v.get("run_seconds"), Some(Value::Number(_))));
    }
}

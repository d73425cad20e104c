//! The workload properties the benchmark's claims rest on, checked on
//! short runs of the real workloads.

use std::collections::HashSet;
use wallbench::rag::{Plan, Traffic, MAX_BATCH};
use wallbench::{Opts, Outcome, Workload, END_TO_END, PER_LAYER};

fn short(seed: u64, trace: bool) -> Opts {
    Opts::new(seed, 0.5, trace)
}

fn names(list: &serde_json::Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(|v| v.as_str())
                    .expect("string field")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_and_workload_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let declared = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        names(json.get("end_to_end").expect("end_to_end")),
        declared(&END_TO_END)
    );
    assert_eq!(
        names(json.get("per_layer").expect("per_layer")),
        declared(&PER_LAYER)
    );
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(|w| w.as_array())
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|n| n.as_str())
                .expect("workload name")
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn rag_unique_never_repeats_a_query() {
    let plan = Plan::new(Traffic::Unique, &Opts::new(3, 2.0, false));
    let all: Vec<&str> = plan
        .warmups
        .iter()
        .chain(&plan.open_warmups)
        .flatten()
        .chain(&plan.closed)
        .chain(&plan.open)
        .chain(&plan.extra)
        .map(|r| r.text.as_str())
        .collect();
    let distinct: HashSet<&str> = all.iter().copied().collect();
    assert_eq!(distinct.len(), all.len());
}

/// Traced short run of a RAG workload: every closed-loop batch full, and
/// the printed per-layer metric set is the declared one.
fn traced(workload: Workload) -> Outcome {
    let out = Outcome::run(workload, &short(5, true));
    assert_eq!(out.ops.failed, 0, "{:?} {:?}", out.ops, out.problems);
    assert!(out.to_json(true).is_ok());
    assert_eq!(out.metrics["serve.batch_size.mean"], MAX_BATCH as f64);
    out
}

#[test]
fn rag_unique_cache_never_hits_and_batches_are_full() {
    let out = traced(Workload::RagUnique);
    assert_eq!(out.metrics["serve.cache_hit_ratio"], 0.0);
}

#[test]
fn rag_zipf_cache_serves_at_least_nine_tenths_and_batches_are_full() {
    let out = traced(Workload::RagZipf);
    assert!(out.metrics["serve.cache_hit_ratio"] >= 0.9);
}

#[test]
fn closed_loop_sim_time_repeats_exactly() {
    for workload in [Workload::RagUnique, Workload::RagZipf] {
        let a = Outcome::run(workload, &short(9, false));
        let b = Outcome::run(workload, &short(9, false));
        assert!(a.to_json(false).is_ok() && b.to_json(false).is_ok());
        assert_eq!(
            a.metrics["sim_ms"],
            b.metrics["sim_ms"],
            "{}",
            workload.name()
        );
        assert!(a.metrics["sim_ms"] > 0.0);
    }
}

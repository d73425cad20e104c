//! Per-layer measurements of the traced run: timed calls into each
//! layer's public functions at the workloads' shapes, and the serving
//! window whose command trace feeds the trace and profiler layers.

use crate::inputs::SplitMix;
use crate::measure::{median, time_median, time_per_call, Tracer};
use crate::rag::{Built, Phase, Req, DIM, MAX_BATCH};
use crate::{Metrics, Ops};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use sagegpu_core::gpu::cluster::{GpuCluster, LinkKind, Topology};
use sagegpu_core::gpu::trace::{replay, TraceV1, WhatIf};
use sagegpu_core::gpu::{DeviceSpec, Gpu};
use sagegpu_core::graph::generators::GraphDataset;
use sagegpu_core::graph::normalize::normalized_adjacency;
use sagegpu_core::graph::partition::metis_partition;
use sagegpu_core::nn::layers::Gcn;
use sagegpu_core::nn::tape::Tape;
use sagegpu_core::profiler::ingest::ingest_trace;
use sagegpu_core::rag::index::{merge_top_k, RetrievalIndex, SearchHit};
use sagegpu_core::rag::pq::IvfPqIndex;
use sagegpu_core::rag::residency::{EvictionPolicy, ListResidency};
use sagegpu_core::tensor::dense::Tensor;
use sagegpu_core::tensor::gpu_exec::GpuExecutor;
use sagegpu_core::tensor::sparse::CsrMatrix;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distributed workers of `gcn_train` (A10's headline arm).
pub const GCN_WORKERS: usize = 8;
/// Requests in each half of the traced serving window.
pub const WINDOW_REQUESTS: usize = 128 * MAX_BATCH;
/// Budget per timed micro-benchmark.
const MICRO: Duration = Duration::from_millis(150);

/// A11's what-if overrides, cycled by the what-if study loop: identity,
/// flat Ethernet, NVLink everywhere, one comm stream.
pub fn overrides() -> [WhatIf; 4] {
    let topology = |t: Topology| WhatIf {
        topology: Some(t),
        ..WhatIf::default()
    };
    [
        WhatIf::default(),
        topology(Topology::Flat(LinkKind::Ethernet)),
        topology(Topology::Flat(LinkKind::NvLink)),
        WhatIf {
            streams: Some(1),
            ..WhatIf::default()
        },
    ]
}

/// The largest METIS partition of the `gcn_train` dataset: the shapes
/// every tensor and nn micro-benchmark runs at.
pub struct GcnFixture {
    pub metis_s: f64,
    pub adj: Arc<CsrMatrix>,
    pub x: Tensor,
    pub labels: Vec<usize>,
    pub mask: Vec<bool>,
    pub classes: usize,
}

impl GcnFixture {
    pub fn new(ds: &GraphDataset) -> Self {
        let mut parts = Vec::new();
        let metis_s = time_median(3, || {
            parts = metis_partition(&ds.graph, GCN_WORKERS).expect("3 200 nodes split 8 ways");
        });
        let mut sizes = [0usize; GCN_WORKERS];
        for &p in &parts {
            sizes[p] += 1;
        }
        let largest = (0..GCN_WORKERS)
            .max_by_key(|&p| (sizes[p], std::cmp::Reverse(p)))
            .expect("eight partitions");
        let nodes: Vec<usize> = (0..ds.num_nodes())
            .filter(|&u| parts[u] == largest)
            .collect();
        let (sub, mapping) = ds.graph.subgraph(&nodes).expect("partition nodes exist");
        let (indptr, indices, values) = normalized_adjacency(&sub);
        let n = nodes.len();
        let adj = Arc::new(
            CsrMatrix::new(n, n, indptr, indices, values).expect("normalized adjacency is valid"),
        );
        let feats: Vec<f32> = mapping
            .iter()
            .flat_map(|&u| ds.feature_row(u).iter().copied())
            .collect();
        GcnFixture {
            metis_s,
            adj,
            x: Tensor::from_vec(n, ds.feature_dim, feats).expect("feature rows"),
            labels: mapping.iter().map(|&u| ds.labels[u]).collect(),
            mask: mapping.iter().map(|&u| ds.train_mask[u]).collect(),
            classes: ds.num_classes,
        }
    }
}

/// `tensor`, `rayon`, `nn` and `graph` micro-benchmarks.
pub fn gcn_layers(fx: &GcnFixture, m: &mut Metrics, tracer: &Tracer) {
    let mut rng = SmallRng::seed_from_u64(0);
    let hidden = crate::gcn::HIDDEN;
    let w = Tensor::randn(fx.x.cols(), hidden, &mut rng);
    let h = Tensor::randn(fx.x.rows(), hidden, &mut rng);
    m.insert("graph.metis_ms", fx.metis_s * 1e3);
    let s = tracer.span("tensor.matmul", 0, |_| {
        time_per_call(1, MICRO, || {
            black_box(fx.x.matmul(black_box(&w)).expect("inner dims agree"));
        })
    });
    m.insert("tensor.matmul_ms", s * 1e3);
    let s = tracer.span("tensor.spmm", 0, |_| {
        time_per_call(1, MICRO, || {
            black_box(fx.adj.spmm(black_box(&h)).expect("inner dims agree"));
        })
    });
    m.insert("tensor.spmm_ms", s * 1e3);
    let s = tracer.span("rayon.par_call", 0, |_| {
        time_per_call(64, MICRO, || {
            let v: Vec<usize> = (0..8usize)
                .into_par_iter()
                .map(|i| black_box(i) + 1)
                .collect();
            black_box(v);
        })
    });
    m.insert("rayon.par_call_us", s * 1e6);
    let model = Gcn::new(fx.x.cols(), hidden, fx.classes, &mut rng);
    let s = tracer.span("nn.fwd_bwd", 0, |_| {
        time_per_call(1, MICRO, || {
            let tape = Tape::new();
            let fwd = model.forward(&tape, Arc::clone(&fx.adj), &fx.x);
            let loss = tape.cross_entropy(fwd.logits, &fx.labels, &fx.mask);
            black_box(tape.backward(loss));
        })
    });
    m.insert("nn.fwd_bwd_ms", s * 1e3);
}

/// `rag::embed`, search, PQ, merge, residency, generate and PQ-training
/// micro-benchmarks on a built pipeline (already under its budget).
pub fn rag_layers(built: &Built, texts: &[String], m: &mut Metrics, tracer: &Tracer) {
    let p = &built.closed;
    let s = tracer.span("embed.query", 0, |_| {
        time_per_call(1, MICRO, || {
            for t in texts {
                black_box(p.embedder.embed(black_box(t)));
            }
        })
    });
    m.insert("embed.us_per_query", s / texts.len() as f64 * 1e6);

    let batches: Vec<Vec<Vec<f32>>> = texts
        .chunks_exact(MAX_BATCH)
        .map(|c| c.iter().map(|t| p.embedder.embed(t)).collect())
        .collect();
    let mut b = 0;
    let s = tracer.span("search.batch", 0, |_| {
        time_per_call(1, MICRO, || {
            black_box(p.index.search_batch(&batches[b % batches.len()], p.top_k));
            b += 1;
        })
    });
    m.insert("search.ms_per_batch", s * 1e3);

    let shards = p.index.shards();
    let codebook = shards[0].codebook();
    let queries: Vec<&Vec<f32>> = batches.iter().flatten().collect();
    let s = tracer.span("pq.adc_table", 0, |_| {
        time_per_call(1, MICRO, || {
            for q in &queries {
                black_box(codebook.adc_table(q));
            }
        })
    });
    m.insert("pq.adc_table_us", s / queries.len() as f64 * 1e6);

    // Gather-side merge of per-shard candidate lists at the refine depth.
    let depth = crate::rag::shard_plan().refine;
    let per_shard: Vec<Vec<Vec<SearchHit>>> = shards
        .iter()
        .map(|shard| shard.search_batch(&batches[0], depth))
        .collect();
    let inputs: Vec<Vec<Vec<SearchHit>>> = (0..MAX_BATCH)
        .map(|q| per_shard.iter().map(|s| s[q].clone()).collect())
        .collect();
    let mut merge_times = Vec::new();
    tracer.span("merge.batch", 0, |_| {
        for _ in 0..200 {
            let copies = inputs.clone();
            let t = Instant::now();
            for lists in copies {
                black_box(merge_top_k(lists, depth));
            }
            merge_times.push(t.elapsed().as_secs_f64());
        }
    });
    m.insert("merge.us_per_batch", median(&merge_times) * 1e6);

    // List residency on a fresh device: shard 0's lists under the same 25%
    // budget, touched in a seeded uniform order (misses promote).
    let list_bytes: Vec<u64> = shards[0]
        .tier_list_counters()
        .expect("the tiered index reports its lists")
        .iter()
        .map(|c| c.bytes)
        .collect();
    let budget = list_bytes.iter().sum::<u64>() * crate::rag::BUDGET_PCT / 100;
    let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
    let mut tier = ListResidency::new(exec, &list_bytes, budget, EvictionPolicy::Lru);
    let mut rng = SplitMix::new(7);
    let s = tracer.span("residency.touch", 0, |_| {
        time_per_call(256, MICRO, || {
            let list = (rng.next_u64() % list_bytes.len() as u64) as usize;
            black_box(tier.touch(list).expect("a list fits the budget"));
        })
    });
    m.insert("residency.touch_us", s * 1e6);

    let contexts: Vec<String> = texts[..MAX_BATCH].iter().map(|t| p.retrieve(t).1).collect();
    let ctx: Vec<&str> = contexts.iter().map(String::as_str).collect();
    let seeds: Vec<u64> = (0..MAX_BATCH as u64).collect();
    let s = tracer.span("generate.batch", 0, |_| {
        time_per_call(1, MICRO, || {
            black_box(
                p.generator
                    .generate_batch_seeded(p.gpu(), &ctx, p.answer_tokens, &seeds),
            );
        })
    });
    m.insert("generate.ms_per_batch", s * 1e3);

    let plan = crate::rag::shard_plan();
    let stride = (built.data.len() / plan.sample).max(1);
    let sample: Vec<(usize, Vec<f32>)> = built
        .data
        .iter()
        .step_by(stride)
        .take(plan.sample)
        .cloned()
        .collect();
    let s = tracer.span("pq.train", 0, |_| {
        time_median(1, || {
            black_box(
                IvfPqIndex::train(DIM, plan.nlist, plan.nprobe, plan.pq, &sample, 1)
                    .expect("the sample trains both quantizers"),
            );
        })
    });
    m.insert("pq.train_s", s);
}

/// A serving window: the same traffic half unrecorded, half with the
/// cluster's command trace recording.
pub struct Window {
    pub trace: TraceV1,
    /// Whether recording started with the devices (the trace then holds
    /// their whole history).
    pub from_start: bool,
    pub exposed_comm_ms: f64,
    /// Recorded half's wall time over the unrecorded half's, minus one.
    pub record_overhead_pct: f64,
}

/// Serves `extra` through `serve` (first half plain, second half recorded
/// on `gpus`) and returns the recorded trace.
pub fn serving_window(
    gpus: &GpuCluster,
    mut serve: impl FnMut(&[Req]) -> Phase,
    extra: &[Req],
) -> (Window, Ops) {
    let (plain, recorded) = extra.split_at(extra.len() / 2);
    let mut ops = Ops::default();
    let a = serve(plain);
    ops.add(a.ops);
    let _sink = gpus.record_trace();
    let b = serve(recorded);
    ops.add(b.ops);
    let trace = gpus
        .finish_trace("wallbench-serving-window")
        .expect("recording was started above");
    let exposed = ingest_trace(&trace)
        .map(|a| a.exposed_comm_fraction() * a.replay.sim_time_ns as f64 / 1e6)
        .expect("the recorded window ingests");
    let window = Window {
        trace,
        from_start: false,
        exposed_comm_ms: exposed,
        record_overhead_pct: (b.wall_s / a.wall_s - 1.0) * 100.0,
    };
    (window, ops)
}

/// `gpu_sim` submission, `gpu_sim::trace` and `profiler` measurements on
/// a recorded trace. Each identity replay and ingest is an operation: it
/// fails unless it reproduces the recorded makespan and submission count.
pub fn trace_layers(window: &Window, m: &mut Metrics, ops: &mut Ops, tracer: &Tracer) {
    let trace = &window.trace;
    let subs = trace.submissions();
    m.insert("gpu.exposed_comm_ms", window.exposed_comm_ms);
    m.insert("trace.record_overhead_pct", window.record_overhead_pct);
    // A trace recorded from the devices' creation replays to its recorded
    // makespan; a window recorded mid-run replays on fresh devices, so it
    // must reproduce its own first replay instead.
    let reference = replay(trace, &WhatIf::default()).expect("identity replay");
    let expected_ns = if window.from_start {
        trace.sim_time_ns
    } else {
        reference.sim_time_ns
    };
    let exact = |sim_ns: u64, submissions: u64| sim_ns == expected_ns && submissions == subs;
    m.insert("gpu.submissions", subs as f64);
    m.insert("gpu.kernel_launches", reference.kernel_launches as f64);
    let mut json = String::new();
    let s = tracer.span("trace.to_json", 0, |_| {
        time_per_call(1, MICRO, || json = black_box(trace.to_json()))
    });
    let mb = json.len() as f64 / 1e6;
    m.insert("trace.bytes", json.len() as f64);
    m.insert("trace.to_json_mb_per_s", mb / s);
    let s = tracer.span("trace.from_json", 0, |_| {
        time_per_call(1, MICRO, || {
            black_box(TraceV1::from_json(&json).expect("the trace round-trips"));
        })
    });
    m.insert("trace.from_json_mb_per_s", mb / s);

    let s = tracer.span("trace.replay_identity", 0, |_| {
        time_per_call(1, MICRO, || {
            let r = replay(trace, &WhatIf::default()).expect("identity replay");
            ops.record(exact(r.sim_time_ns, r.submissions));
        })
    });
    m.insert("gpu.submit_ns_per_cmd", s * 1e9 / subs.max(1) as f64);

    let mut replayed = 0u64;
    let mut replay_s = 0.0;
    tracer.span("trace.replay_whatif", 0, |_| {
        for whatif in overrides().iter().skip(1) {
            let t = Instant::now();
            let r = replay(trace, whatif).expect("override replay");
            replay_s += t.elapsed().as_secs_f64();
            replayed += r.submissions;
        }
    });
    m.insert("trace.replay_cmds_per_s", replayed as f64 / replay_s);

    let s = tracer.span("profiler.ingest", 0, |_| {
        time_per_call(1, MICRO, || {
            let a = ingest_trace(trace).expect("the trace ingests");
            ops.record(exact(a.replay.sim_time_ns, a.replay.submissions));
        })
    });
    m.insert("profiler.ingest_ms", s * 1e3);
}

/// Writes the traced run's spans next to the benchmark's sources, under
/// `out/` (git-ignored).
pub fn write_spans(tracer: &Tracer, workload: &str, seed: u64) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.json"));
    if let Err(e) = tracer.write_json(&path) {
        eprintln!("wallbench: could not write {}: {e}", path.display());
    }
}

//! `gcn_train`: A10's headline arm of Algorithm 1 — a 3 200-node SBM on
//! k = 8 workers in NVLink islands of 4, hierarchical bucketed all-reduce,
//! fused execution, resident parameters, command-trace recording on —
//! followed by a what-if study loop over the recorded trace.

use crate::inputs::gcn_dataset;
use crate::layers::{self, overrides, GcnFixture, Window, GCN_WORKERS};
use crate::measure::{median, peak_rss_mb, HostClock, Tracer};
use crate::{Metrics, Opts, Outcome, SETUPS};
use sagegpu_core::gcn::distributed::{
    train_distributed_with_opts, CommMode, DistOptions, DistResult, PartitionStrategy,
    ResidencyMode,
};
use sagegpu_core::gcn::exec::ExecMode;
use sagegpu_core::gcn::TrainConfig;
use sagegpu_core::gpu::cluster::Topology;
use sagegpu_core::gpu::trace::{replay, TraceV1};
use sagegpu_core::graph::generators::GraphDataset;
use sagegpu_core::profiler::ingest::ingest_trace;
use sagegpu_core::rag::index::RetrievalIndex;
use std::time::Instant;

/// Devices per NVLink island (A10's `TOPOLOGY_ISLAND`).
pub const ISLAND: usize = 4;
/// Hidden width of the 256 → 128 → 4 GCN.
pub const HIDDEN: usize = 128;
/// Epochs of one timed training call.
pub const EPOCHS: usize = 50;
/// Epochs of the set-up warm-up call.
pub const WARMUP_EPOCHS: usize = 2;
/// A10's bucket cap: three layer-boundary buckets per epoch.
pub const BUCKET_BYTES: u64 = 2560;
/// Timed training calls per run, each followed by an equal share of the
/// what-if loop, which gets half of `--seconds`.
pub const TRAIN_CALLS: usize = 12;
/// Length of one what-if measurement block.
pub const BLOCK_SECONDS: f64 = 0.5;

/// Output check of a training call: after [`EPOCHS`] epochs the seed code
/// reaches a final loss of at most `MAX_FINAL_LOSS` and a test accuracy of
/// at least `MIN_TEST_ACCURACY` from any initial parameters. On seeds 0–19
/// it reached loss 8.2e-4 – 9.1e-3 and accuracy 0.988 – 0.994; the bounds
/// leave about twice that room.
pub const MAX_FINAL_LOSS: f32 = 0.02;
pub const MIN_TEST_ACCURACY: f64 = 0.98;

/// One distributed training call of `epochs` epochs from the initial
/// parameters `seed` draws.
pub fn train(ds: &GraphDataset, seed: u64, epochs: usize, record_trace: bool) -> DistResult {
    train_distributed_with_opts(
        ds,
        GCN_WORKERS,
        &TrainConfig {
            epochs,
            hidden: HIDDEN,
            seed,
            ..TrainConfig::default()
        },
        PartitionStrategy::Metis,
        DistOptions {
            topology: Topology::nvlink_islands(ISLAND),
            residency: ResidencyMode::Resident,
            exec: ExecMode::FusedOverlapped,
            comm: CommMode::BucketedOverlap {
                bucket_bytes: BUCKET_BYTES,
            },
            record_trace,
            ..DistOptions::default()
        },
    )
    .expect("A10's arm trains on the SBM dataset")
}

fn final_loss(r: &DistResult) -> f32 {
    r.epoch_stats.last().map_or(f32::NAN, |e| e.loss)
}

/// The what-if loop: one study at a time, cycling A11's overrides. A
/// study parses the recorded trace, replays it under the override and
/// ingests it. The ingest's identity replay must reproduce the recording,
/// the identity override's own replay too, and each override must predict
/// the same makespan every time.
#[derive(Default)]
struct Studies {
    latencies: Vec<f64>,
    predicted: [Option<u64>; 4],
}

impl Studies {
    fn run(&mut self, trace: &TraceV1, json: &str, out: &mut Outcome, tracer: &Tracer, phase: u64) {
        let whatifs = overrides();
        let i = self.latencies.len();
        let k = i % whatifs.len();
        let t0 = Instant::now();
        let parsed = TraceV1::from_json(json);
        let t1 = Instant::now();
        let replayed = parsed
            .as_ref()
            .ok()
            .and_then(|p| replay(p, &whatifs[k]).ok());
        let t2 = Instant::now();
        let analysis = parsed.as_ref().ok().and_then(|p| ingest_trace(p).ok());
        let t3 = Instant::now();
        let exact = |sim_ns: u64, submissions: u64| {
            sim_ns == trace.sim_time_ns && submissions == trace.submissions()
        };
        let ok = match (&replayed, &analysis) {
            (Some(r), Some(a)) => {
                *self.predicted[k].get_or_insert(r.sim_time_ns) == r.sim_time_ns
                    && exact(a.replay.sim_time_ns, a.replay.submissions)
                    && (k != 0 || exact(r.sim_time_ns, r.submissions))
            }
            _ => false,
        };
        if !ok {
            out.problems
                .push(format!("what-if study {i} did not reproduce"));
        }
        out.ops.record(ok);
        self.latencies.push((t3 - t0).as_secs_f64());
        let req = Some(i as u64);
        let id = tracer.open();
        tracer.record(0, id, "trace.from_json", req, t0, t1);
        tracer.record(0, id, "trace.replay", req, t1, t2);
        tracer.record(0, id, "profiler.ingest", req, t2, t3);
        tracer.record(id, phase, "whatif.study", req, t0, t3);
    }
}

/// Runs `gcn_train` once.
pub fn run(opts: &Opts) -> Outcome {
    let tracer = Tracer::new(opts.trace);
    let run_start = Instant::now();
    let mut out = Outcome::default();

    // Set-up, several times: dataset generation and a short warm-up call.
    // The workload seed draws the model's initial parameters. Set-up and
    // every timed block are calibrated against the host's speed.
    let mut clock = HostClock::default();
    let mut setup_s = Vec::new();
    let mut ds = None;
    for _ in 0..SETUPS {
        drop(ds.take());
        let t = Instant::now();
        let root = tracer.open();
        let (d, timed) = clock.time(|| {
            let d = tracer.span("gcn.dataset", root, |_| gcn_dataset());
            tracer.span("gcn.warmup", root, |_| {
                train(&d, opts.seed, WARMUP_EPOCHS, true)
            });
            d
        });
        tracer.record(root, 0, "setup", None, t, Instant::now());
        setup_s.push(timed);
        ds = Some(d);
    }
    let ds = ds.expect("at least one set-up runs");

    // Rounds: a training call, then a share of the what-if loop over the
    // first call's trace in blocks, so both metrics sample the whole run.
    // Every call must pass the output check and repeat the first bit for
    // bit.
    let mut train_s = Vec::new();
    let mut first: Option<(DistResult, TraceV1, String)> = None;
    let mut studies = Studies::default();
    // What-if blocks: studies completed, their median latency, wall time.
    let mut blocks = Vec::new();
    for call in 0..TRAIN_CALLS {
        let (r, timed) =
            clock.time(|| tracer.span("gcn.train", 0, |_| train(&ds, opts.seed, EPOCHS, true)));
        train_s.push(timed);
        let mut ok = final_loss(&r) <= MAX_FINAL_LOSS && r.test_accuracy >= MIN_TEST_ACCURACY;
        if let Some((f, _, _)) = &first {
            ok &= r.epoch_stats == f.epoch_stats && r.sim_time_ns == f.sim_time_ns;
        }
        if !ok {
            out.problems.push(format!(
                "training call {call}: final loss {}, test accuracy {}",
                final_loss(&r),
                r.test_accuracy
            ));
        }
        out.ops.record(ok);
        let (_, trace, json) = first.get_or_insert_with(|| {
            let trace = r.trace.clone().expect("record_trace captures the run");
            let json = trace.to_json();
            (r, trace, json)
        });
        let share = opts.seconds / 2.0 / TRAIN_CALLS as f64;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < share || blocks.is_empty() {
            let done = studies.latencies.len();
            let block = Instant::now();
            let phase = tracer.open();
            let (_, timed) = clock.time(|| {
                while block.elapsed().as_secs_f64() < BLOCK_SECONDS
                    || studies.latencies.len() - done < 2
                {
                    studies.run(trace, json, &mut out, &tracer, phase);
                }
            });
            tracer.record(phase, 0, "phase.whatif", None, block, Instant::now());
            let n = studies.latencies.len() - done;
            blocks.push((n, median(&studies.latencies[done..]), timed));
        }
    }
    let (first, trace, _) = first.expect("at least one training call runs");
    let sim_ms = first.sim_time_ns as f64 / 1e6;
    let rates: Vec<f64> = blocks
        .iter()
        .map(|&(n, _, t)| n as f64 / clock.seconds(t))
        .collect();
    let p50s: Vec<f64> = blocks
        .iter()
        .map(|&(_, p50, t)| p50 * clock.scale(t))
        .collect();
    let ops_per_s = median(&rates);
    let p50_ms = median(&p50s) * 1e3;
    let train_s = clock.median_s(&train_s);

    if !opts.trace {
        let m = &mut out.metrics;
        m.insert("setup_s", clock.median_s(&setup_s));
        m.insert("peak_rss_mb", peak_rss_mb());
        m.insert("sim_ms", sim_ms);
        m.insert("train_s", train_s);
        m.insert("ops_per_s", ops_per_s);
        m.insert("p50_ms", p50_ms);
        return out;
    }

    // Traced run: the first training call's counters, the recording
    // overhead, then every layer's micro-benchmarks.
    let spans_timed = tracer.len();
    let mut m = Metrics::new();
    let sched = &first.sched_metrics;
    let waits: Vec<f64> = sched
        .spans
        .iter()
        .map(|s| s.start_ns.saturating_sub(s.queued_ns) as f64 / 1e6)
        .collect();
    m.insert("taskflow.tasks", sched.total_tasks() as f64);
    m.insert("taskflow.dispatch_wait_ms.p50", median(&waits));
    m.insert(
        "taskflow.busy_ms",
        sched.workers.iter().map(|w| w.busy_ns as f64).sum::<f64>() / 1e6,
    );
    m.insert("taskflow.retries", sched.total_retries() as f64);
    let pool = first.bottleneck.pool.as_ref();
    m.insert(
        "pool.reuse_ratio",
        pool.map_or(0.0, |p| p.reuse_hits as f64 / p.allocs.max(1) as f64),
    );
    m.insert(
        "pool.high_water_mb",
        pool.map_or(0.0, |p| p.high_water_bytes as f64 / 1e6),
    );
    let (plain, plain_t) = clock.time(|| {
        tracer.span("gcn.train_unrecorded", 0, |_| {
            train(&ds, opts.seed, EPOCHS, false)
        })
    });
    out.ops.record(plain.epoch_stats == first.epoch_stats);
    let window = Window {
        trace,
        from_start: true,
        exposed_comm_ms: first.exposed_comm_ns as f64 / 1e6,
        record_overhead_pct: (train_s / clock.seconds(plain_t) - 1.0) * 100.0,
    };
    layers::trace_layers(&window, &mut m, &mut out.ops, &tracer);
    for counter in [
        "residency.hit_ratio",
        "residency.promoted_mb",
        "residency.evictions",
        "serve.queue_wait_ms.p50",
        "serve.batch_size.mean",
        "serve.cache_hit_ratio",
        "serve.p99_ms",
        "serve.p99_tail_samples",
        "serve.gen_late_ms",
        "serve.shed",
        "serve.failed",
    ] {
        // No serving runs in this workload.
        m.insert(counter, 0.0);
    }
    m.insert("traced.train_s", train_s);
    m.insert("bench.reference_ms", clock.reference_s() * 1e3);
    m.insert("traced.ops_per_s", ops_per_s);
    m.insert("traced.p50_ms", p50_ms);
    m.insert("traced.sim_ms", sim_ms);

    let fx = tracer.span("layers.gcn_fixture", 0, |_| GcnFixture::new(&ds));
    layers::gcn_layers(&fx, &mut m, &tracer);
    let built = tracer.span("layers.rag_fixture", 0, |id| crate::rag::build(&tracer, id));
    built.closed.index.set_residency_budget(built.budget);
    m.insert("corpus.embed_s", built.embed_s);
    m.insert("index.build_s", built.build_s);
    let texts = crate::inputs::unique_queries(
        256,
        &mut crate::inputs::SplitMix::new(crate::inputs::stream_seed(opts.seed, 2)),
        &mut Default::default(),
    );
    layers::rag_layers(&built, &texts, &mut m, &tracer);

    let total_s = run_start.elapsed().as_secs_f64();
    m.insert("bench.spans", tracer.len() as f64);
    m.insert(
        "bench.span_overhead_pct",
        spans_timed as f64 * Tracer::cost_per_span() / total_s * 100.0,
    );
    layers::write_spans(&tracer, "gcn_train", opts.seed);
    out.metrics = m;
    out
}

//! `rag_unique` and `rag_zipf`: a 4-shard tiered IVF-PQ RAG server on
//! A12's 20 000 × 96 corpus under A13's 25% residency budget.
//!
//! The timed part of a run alternates blocks of two phases:
//!
//! 1. a closed loop at a fixed outstanding depth against a server whose
//!    batch window is far longer than one batch's service time, so every
//!    batch is full and simulated time repeats exactly (`ops_per_s`,
//!    `sim_ms`);
//! 2. an open loop at one fixed light rate against a server with
//!    `ServerConfig` defaults, each request timed from its due time
//!    (`p50_ms`).

use crate::inputs::{stream_seed, unique_queries, SplitMix, Zipf, EXPERIMENT_SEED};
use crate::layers;
use crate::measure::{median, peak_rss_mb, quantile, HostClock, Tracer};
use crate::{Metrics, Ops, Opts, Outcome, SETUPS};
use sagegpu_core::gpu::cluster::{GpuCluster, LinkKind};
use sagegpu_core::gpu::DeviceSpec;
use sagegpu_core::rag::corpus::Corpus;
use sagegpu_core::rag::embed::Embedder;
use sagegpu_core::rag::generate::MarkovGenerator;
use sagegpu_core::rag::index::{RetrievalIndex, SearchHit};
use sagegpu_core::rag::pipeline::RagPipeline;
use sagegpu_core::rag::pq::PqConfig;
use sagegpu_core::rag::serve::{
    RagServer, ResponseHandle, ServeError, ServedResponse, ServerConfig,
};
use sagegpu_core::rag::shard::{Placement, ShardPlan, ShardedIndex};
use sagegpu_core::taskflow::ClusterBuilder;
use sagegpu_core::tensor::gpu_exec::GpuExecutor;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A12's corpus: documents, embedding width, shards.
pub const CORPUS: usize = 20_000;
pub const DIM: usize = 96;
pub const SHARDS: usize = 4;
/// A13's 25% serving arm: device budget as a percent of list-code bytes,
/// so cold lists spill to host and promote back on access.
pub const BUDGET_PCT: u64 = 25;
/// Requests per batch; the closed loop only ever forms full batches.
pub const MAX_BATCH: usize = 8;
/// Closed-loop outstanding requests: four full batches, so one batch runs
/// while the next ones wait queued.
pub const DEPTH: usize = 4 * MAX_BATCH;
/// Closed-loop batch window: far longer than the few microseconds the
/// client needs to refill a batch, so a batch never closes underfull.
pub const CLOSED_WINDOW: Duration = Duration::from_millis(100);
/// Distinct queries in `rag_zipf`'s pool; the cache (512 entries) holds
/// all of them, so after warm-up only never-seen tail queries miss.
pub const ZIPF_POOL: usize = 256;
/// Every `CHECK_EVERY`-th unique query is checked against the reference.
pub const CHECK_EVERY: usize = 16;
/// Measurement blocks per second of `--seconds`. The timed part of a run
/// alternates one closed-loop block and one open-loop block, with an index
/// build every few blocks, so every metric samples the whole run.
pub const BLOCKS_PER_SECOND: f64 = 2.0;
/// Index builds timed per run.
pub const BUILDS: usize = 32;

/// A13's build plan at A12's scale.
pub fn shard_plan() -> ShardPlan {
    ShardPlan {
        nlist: 32,
        nprobe: 8,
        pq: PqConfig { m: 16, nbits: 6 },
        sample: 512,
        shards: SHARDS,
        refine: 16,
        placement: Placement::SizeBalanced,
        budget_bytes: None,
    }
}

/// Query mix of a RAG workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Every request distinct: the cache never hits.
    Unique,
    /// Zipf(s = 1) over [`ZIPF_POOL`] queries: the cache serves nearly
    /// every request.
    Zipf,
}

impl Traffic {
    pub fn workload(self) -> crate::Workload {
        match self {
            Traffic::Unique => crate::Workload::RagUnique,
            Traffic::Zipf => crate::Workload::RagZipf,
        }
    }

    /// Closed-loop requests per second of `--seconds`: half to three
    /// quarters of the capacity measured on a 2-core x86-64 box. The count
    /// is fixed per run so that simulated time repeats.
    fn closed_rate(self) -> f64 {
        match self {
            Traffic::Unique => 2_500.0,
            Traffic::Zipf => 12_000.0,
        }
    }

    /// Open-loop send rate: light load. `rag_unique` runs at about a
    /// quarter of its closed-loop capacity; `rag_zipf` at about a tenth,
    /// since at a quarter its p50 moved by a fifth between runs on a 2-core
    /// box (0.79 vs 0.95 ms at 4 000 req/s).
    pub fn open_rate(self) -> f64 {
        match self {
            Traffic::Unique => 800.0,
            Traffic::Zipf => 2_000.0,
        }
    }

    /// Warm-up requests before each timed phase.
    fn warmup(self) -> usize {
        match self {
            Traffic::Unique => 512,
            Traffic::Zipf => 2_048,
        }
    }
}

/// One request: its text and the slot of its reference hits (if checked).
#[derive(Debug, Clone)]
pub struct Req {
    pub text: String,
    pub key: Option<usize>,
}

/// Every request a run sends, by phase, plus the texts whose reference
/// hits are computed in set-up (`Req::key` indexes them).
#[derive(Debug, Clone)]
pub struct Plan {
    /// Warm-up of the closed-loop server, one list per set-up.
    pub warmups: Vec<Vec<Req>>,
    /// Warm-up of the open-loop server, one list per set-up.
    pub open_warmups: Vec<Vec<Req>>,
    /// Timed blocks; every closed-loop block holds whole batches.
    pub blocks: usize,
    pub closed: Vec<Req>,
    pub open: Vec<Req>,
    /// Texts after the timed phases (traced runs only use them).
    pub extra: Vec<Req>,
    pub checked: Vec<String>,
}

impl Plan {
    /// Generates a run's requests from `opts.seed`.
    pub fn new(traffic: Traffic, opts: &Opts) -> Plan {
        let blocks = ((opts.seconds * BLOCKS_PER_SECOND).round() as usize).max(1);
        let per_block =
            |n: f64, unit: usize| (n / (blocks * unit) as f64).round().max(1.0) as usize * unit;
        let closed_n = per_block(traffic.closed_rate() * opts.seconds, MAX_BATCH) * blocks;
        let open_n = per_block(traffic.open_rate() * opts.seconds / 2.0, 1) * blocks;
        let warm = traffic.warmup();
        let extra_n = 2 * layers::WINDOW_REQUESTS;
        let mut rng = SplitMix::new(stream_seed(opts.seed, 1));
        match traffic {
            Traffic::Unique => {
                let mut seen = HashSet::new();
                let mut checked = Vec::new();
                let mut take = |n: usize, check: bool| -> Vec<Req> {
                    unique_queries(n, &mut rng, &mut seen)
                        .into_iter()
                        .enumerate()
                        .map(|(i, text)| {
                            let key = (check && i % CHECK_EVERY == 0).then(|| {
                                checked.push(text.clone());
                                checked.len() - 1
                            });
                            Req { text, key }
                        })
                        .collect()
                };
                let warmups = (0..SETUPS).map(|_| take(warm, false)).collect();
                let open_warmups = (0..SETUPS).map(|_| take(warm, false)).collect();
                let closed = take(closed_n, true);
                let open = take(open_n, true);
                let extra = take(extra_n, false);
                Plan {
                    warmups,
                    open_warmups,
                    blocks,
                    closed,
                    open,
                    extra,
                    checked,
                }
            }
            Traffic::Zipf => {
                let pool = unique_queries(ZIPF_POOL, &mut rng, &mut HashSet::new());
                let zipf = Zipf::new(ZIPF_POOL);
                let mut take = |n: usize| -> Vec<Req> {
                    (0..n)
                        .map(|_| {
                            let r = zipf.sample(&mut rng);
                            Req {
                                text: pool[r].clone(),
                                key: Some(r),
                            }
                        })
                        .collect()
                };
                let warmups = (0..SETUPS).map(|_| take(warm)).collect();
                let open_warmups = (0..SETUPS).map(|_| take(warm)).collect();
                let closed = take(closed_n);
                let open = take(open_n);
                let extra = take(extra_n);
                Plan {
                    warmups,
                    open_warmups,
                    blocks,
                    closed,
                    open,
                    extra,
                    checked: pool,
                }
            }
        }
    }
}

/// Two identical RAG pipelines built from one corpus, and what the build
/// cost. Each phase gets its own so that the open loop, whose batches
/// follow thread timing, never touches the devices whose simulated time
/// the closed loop reports.
pub struct Built {
    pub closed: Arc<RagPipeline<ShardedIndex>>,
    pub closed_gpus: Arc<GpuCluster>,
    pub open: Arc<RagPipeline<ShardedIndex>>,
    pub open_gpus: Arc<GpuCluster>,
    /// Embedded corpus (doc id, vector): the PQ training source.
    pub data: Vec<(usize, Vec<f32>)>,
    pub embed_s: f64,
    pub build_s: f64,
    /// Device budget for list codes: [`BUDGET_PCT`] of their bytes.
    pub budget: u64,
}

fn cluster() -> Arc<GpuCluster> {
    Arc::new(GpuCluster::homogeneous(
        SHARDS,
        DeviceSpec::t4(),
        LinkKind::Pcie,
    ))
}

/// Generates A12's corpus, embeds it, builds the sharded index fully
/// resident (once per pipeline) and trains the generator. The corpus is
/// fixed, like `gcn_train`'s graph; the workload seed draws the queries.
pub fn build(tracer: &Tracer, parent: u64) -> Built {
    let seed = EXPERIMENT_SEED;
    let embedder = Embedder::new(DIM, seed.wrapping_add(1));
    let t = Instant::now();
    let corpus = tracer.span("rag.corpus", parent, |_| {
        Corpus::synthetic(CORPUS, 80, seed)
    });
    let data: Vec<(usize, Vec<f32>)> = tracer.span("rag.embed_corpus", parent, |_| {
        corpus
            .docs()
            .iter()
            .map(|d| (d.id, embedder.embed(&d.text)))
            .collect()
    });
    let embed_s = t.elapsed().as_secs_f64();
    let index = |gpus: &Arc<GpuCluster>| {
        tracer.span("rag.index_build", parent, |_| {
            ShardedIndex::build(DIM, shard_plan(), &data, Arc::clone(gpus), seed)
                .expect("the plan builds on a 4-device cluster")
        })
    };
    let (closed_gpus, open_gpus) = (cluster(), cluster());
    let t = Instant::now();
    let closed_index = index(&closed_gpus);
    let build_s = t.elapsed().as_secs_f64();
    let open_index = index(&open_gpus);
    let generator = tracer.span("rag.generator_train", parent, |_| {
        MarkovGenerator::train(&corpus.full_text(), 512)
    });
    let list_bytes = closed_index
        .residency_stats()
        .expect("a GPU-attached IVF-PQ index has a residency tier")
        .list_bytes;
    let exec = |gpus: &GpuCluster| GpuExecutor::new(Arc::clone(gpus.device(0).expect("device 0")));
    let closed = Arc::new(RagPipeline::new(
        embedder.clone(),
        closed_index,
        generator.clone(),
        corpus.clone(),
        exec(&closed_gpus),
    ));
    let open = Arc::new(RagPipeline::new(
        embedder,
        open_index,
        generator,
        corpus,
        exec(&open_gpus),
    ));
    Built {
        closed,
        closed_gpus,
        open,
        open_gpus,
        data,
        embed_s,
        build_s,
        budget: list_bytes * BUDGET_PCT / 100,
    }
}

/// Fully-resident reference hits for `texts`, retrieved in batches of
/// [`MAX_BATCH`] before any budget applies.
fn reference_hits(pipeline: &RagPipeline<ShardedIndex>, texts: &[String]) -> Vec<Vec<SearchHit>> {
    texts
        .chunks(MAX_BATCH)
        .flat_map(|chunk| {
            let refs: Vec<&str> = chunk.iter().map(String::as_str).collect();
            pipeline
                .retrieve_batch(&refs)
                .into_iter()
                .map(|(hits, _)| hits)
        })
        .collect()
}

type Server = RagServer<ShardedIndex>;

fn start(pipeline: &Arc<RagPipeline<ShardedIndex>>, cfg: ServerConfig) -> Server {
    RagServer::start(
        Arc::clone(pipeline),
        ClusterBuilder::new().workers(1).build(),
        cfg,
    )
}

/// The throughput-configured server of the closed loop.
fn closed_server(built: &Built) -> Server {
    start(
        &built.closed,
        ServerConfig::new()
            .max_batch(MAX_BATCH)
            .batch_window(CLOSED_WINDOW)
            .queue_capacity(4 * DEPTH)
            .residency_budget(built.budget),
    )
}

/// The open loop's server: `ServerConfig` defaults, over an index put
/// under the same budget first.
fn open_server(built: &Built) -> Server {
    built.open.index.set_residency_budget(built.budget);
    start(&built.open, ServerConfig::new())
}

/// What one served request looked like to the client.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Client-observed latency, from submission (closed loop) or from the
    /// due time (open loop).
    pub latency_s: f64,
    pub batch_size: usize,
    pub cache_hit: bool,
    pub queue_wait_ns: u64,
}

/// One phase's client-side record.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub wall_s: f64,
    pub samples: Vec<Sample>,
    pub ops: Ops,
    /// Open loop: how late each send left, in seconds.
    pub late_s: Vec<f64>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.wall_s += other.wall_s;
        self.samples.extend(other.samples);
        self.ops.add(other.ops);
        self.late_s.extend(other.late_s);
    }
}

/// Checks one response against its reference hits (when sampled) and
/// returns the server's id for the request, if it was admitted.
fn check(
    result: Result<ServedResponse, ServeError>,
    req: &Req,
    refs: &[Vec<SearchHit>],
    latency_s: f64,
    phase: &mut Phase,
) -> Option<u64> {
    match result {
        Ok(served) => {
            let ok = !served.response.answer.is_empty()
                && req.key.is_none_or(|k| served.response.hits == refs[k]);
            phase.ops.record(ok);
            phase.samples.push(Sample {
                latency_s,
                batch_size: served.batch_size,
                cache_hit: served.cache_hit,
                queue_wait_ns: served.queue_wait_ns,
            });
            Some(served.request_id)
        }
        Err(ServeError::Overloaded { .. }) => {
            phase.ops.shed();
            None
        }
        Err(_) => {
            phase.ops.record(false);
            None
        }
    }
}

/// Sends `reqs` keeping `depth` outstanding from this one thread: the next
/// request goes out only when the oldest one completes.
pub fn closed_loop(
    server: &Server,
    reqs: &[Req],
    refs: &[Vec<SearchHit>],
    depth: usize,
    tracer: &Tracer,
    parent: u64,
) -> Phase {
    let mut phase = Phase::default();
    let mut inflight: VecDeque<(usize, Instant, ResponseHandle)> = VecDeque::with_capacity(depth);
    let mut next = 0;
    let start = Instant::now();
    while next < reqs.len() || !inflight.is_empty() {
        while inflight.len() < depth && next < reqs.len() {
            let sent = Instant::now();
            match server.submit(reqs[next].text.clone()) {
                Ok(handle) => inflight.push_back((next, sent, handle)),
                Err(e) => {
                    check(Err(e), &reqs[next], refs, 0.0, &mut phase);
                }
            }
            next += 1;
        }
        if let Some((i, sent, handle)) = inflight.pop_front() {
            let result = handle.wait();
            let done = Instant::now();
            let id = check(
                result,
                &reqs[i],
                refs,
                (done - sent).as_secs_f64(),
                &mut phase,
            );
            tracer.record(0, parent, "serve.request", id, sent, done);
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Sends `reqs` at `rate` per second on a fixed schedule from this thread
/// while one more thread collects responses in order; each latency runs
/// from the request's due time to its completion.
pub fn open_loop(
    server: &Server,
    reqs: &[Req],
    refs: &[Vec<SearchHit>],
    rate: f64,
    tracer: &Tracer,
    parent: u64,
) -> Phase {
    type Sent = (usize, Instant, Result<ResponseHandle, ServeError>);
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = std::sync::mpsc::channel::<Sent>();
    std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut phase = Phase::default();
            for (i, due, submitted) in rx {
                match submitted {
                    Ok(handle) => {
                        let result = handle.wait();
                        let done = Instant::now();
                        let latency_s = (done - due).as_secs_f64();
                        let id = check(result, &reqs[i], refs, latency_s, &mut phase);
                        tracer.record(0, parent, "serve.request", id, due, done);
                    }
                    Err(e) => {
                        check(Err(e), &reqs[i], refs, 0.0, &mut phase);
                    }
                }
            }
            phase
        });
        let mut late_s = Vec::with_capacity(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            let due = start + period * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late_s.push(Instant::now().saturating_duration_since(due).as_secs_f64());
            let submitted = server.submit(req.text.clone());
            tx.send((i, due, submitted))
                .expect("the response collector outlives the sender");
        }
        drop(tx);
        let mut phase = waiter.join().expect("response collector panicked");
        phase.wall_s = start.elapsed().as_secs_f64();
        phase.late_s = late_s;
        phase
    })
}

/// Runs `rag_unique` or `rag_zipf` once.
pub fn run(traffic: Traffic, opts: &Opts) -> Outcome {
    let tracer = Tracer::new(opts.trace);
    let run_start = Instant::now();
    let plan = Plan::new(traffic, opts);
    let mut out = Outcome::default();

    // Set-up, several times: corpus, indexes, reference hits, both servers
    // started and warmed. The last one is kept. Set-up and the timed blocks
    // are calibrated against the host's speed.
    let mut clock = HostClock::default();
    let mut setup_s = Vec::new();
    let mut embed_s = Vec::new();
    let mut kept = None;
    for (warm_closed, warm_open) in plan.warmups.iter().zip(&plan.open_warmups) {
        drop(kept.take()); // release the previous set-up before building anew
        let t = Instant::now();
        let root = tracer.open();
        let (set_up, timed) = clock.time(|| {
            let built = build(&tracer, root);
            let refs = tracer.span("rag.reference", root, |_| {
                reference_hits(&built.closed, &plan.checked)
            });
            let (closed_srv, open_srv) = tracer.span("serve.start", root, |_| {
                (closed_server(&built), open_server(&built))
            });
            tracer.span("serve.warmup", root, |id| {
                out.ops
                    .add(closed_loop(&closed_srv, warm_closed, &refs, DEPTH, &tracer, id).ops);
                out.ops
                    .add(closed_loop(&open_srv, warm_open, &refs, MAX_BATCH, &tracer, id).ops);
            });
            (built, refs, closed_srv, open_srv)
        });
        tracer.record(root, 0, "setup", None, t, Instant::now());
        setup_s.push(timed);
        embed_s.push(set_up.0.embed_s);
        kept = Some(set_up);
    }
    let (built, refs, closed_srv, open_srv) = kept.expect("at least one set-up runs");

    // Timed blocks: a closed-loop block, then an open-loop block, with an
    // index build (the workload's training call: quantizer training plus
    // shard encoding, on a fresh cluster) every few blocks.
    let tier0 = built
        .closed
        .index
        .residency_stats()
        .expect("the tiered index reports its tier");
    let sched0 = closed_srv.scheduler_metrics().wall_ns;
    let sim0 = built.closed_gpus.makespan_ns();
    let mut train_s = Vec::new();
    let mut closed = Phase::default();
    // Closed-loop blocks: requests served and wall time.
    let mut closed_blocks = Vec::new();
    let mut open = Phase::default();
    let closed_chunks = plan.closed.chunks(plan.closed.len() / plan.blocks);
    let open_chunks = plan.open.chunks(plan.open.len() / plan.blocks);
    for (b, (closed_reqs, open_reqs)) in closed_chunks.zip(open_chunks).enumerate() {
        // Spread the builds evenly over the blocks.
        if train_s.len() < BUILDS && train_s.len() * plan.blocks <= b * BUILDS {
            let gpus = cluster();
            let (_, timed) = clock.time(|| {
                tracer.span("rag.index_build", 0, |_| {
                    ShardedIndex::build(DIM, shard_plan(), &built.data, gpus, EXPERIMENT_SEED)
                        .expect("the plan builds on a 4-device cluster")
                })
            });
            train_s.push(timed);
        }
        let (c, timed) = clock.time(|| {
            tracer.span("phase.closed", 0, |id| {
                closed_loop(&closed_srv, closed_reqs, &refs, DEPTH, &tracer, id)
            })
        });
        closed_blocks.push((c.samples.len(), timed));
        closed.absorb(c);
        // Timed only to keep a reference unit after every block; `p50_ms`
        // is not calibrated.
        let rate = traffic.open_rate();
        let (o, _) = clock.time(|| {
            tracer.span("phase.open", 0, |id| {
                open_loop(&open_srv, open_reqs, &refs, rate, &tracer, id)
            })
        });
        open.absorb(o);
    }
    let sim_ns = built.closed_gpus.makespan_ns() - sim0;
    let sched = closed_srv.scheduler_metrics();
    let closed_report = closed_srv.shutdown();
    let tier = closed_report
        .residency
        .expect("the tiered index reports its tier")
        .since(&tier0);
    out.ops.add(closed.ops);
    out.ops.add(open.ops);

    let rates: Vec<f64> = closed_blocks
        .iter()
        .map(|&(n, t)| n as f64 / clock.seconds(t))
        .collect();
    let ops_per_s = median(&rates);
    let latencies: Vec<f64> = open.samples.iter().map(|s| s.latency_s).collect();
    let p50_ms = median(&latencies) * 1e3;
    let train_s = clock.median_s(&train_s);
    let sim_ms = sim_ns as f64 / 1e6;

    if !opts.trace {
        drop(open_srv);
        let m = &mut out.metrics;
        m.insert("setup_s", clock.median_s(&setup_s));
        m.insert("peak_rss_mb", peak_rss_mb());
        m.insert("sim_ms", sim_ms);
        m.insert("train_s", train_s);
        m.insert("ops_per_s", ops_per_s);
        m.insert("p50_ms", p50_ms);
        return out;
    }

    // Traced run: per-layer counters of the timed phases, then a recorded
    // serving window and the layer micro-benchmarks.
    let mut m = Metrics::new();
    let spans_timed = tracer.len();
    let closed_spans: Vec<_> = sched
        .spans
        .iter()
        .filter(|s| s.queued_ns >= sched0)
        .collect();
    let waits: Vec<f64> = closed_spans
        .iter()
        .map(|s| s.start_ns.saturating_sub(s.queued_ns) as f64 / 1e6)
        .collect();
    m.insert("taskflow.tasks", closed_spans.len() as f64);
    m.insert("taskflow.dispatch_wait_ms.p50", median(&waits));
    m.insert(
        "taskflow.busy_ms",
        closed_spans.iter().map(|s| s.dur_ns() as f64).sum::<f64>() / 1e6,
    );
    m.insert(
        "taskflow.retries",
        closed_spans.iter().filter(|s| s.attempt > 0).count() as f64,
    );
    m.insert("residency.hit_ratio", tier.hit_ratio());
    m.insert("residency.promoted_mb", tier.promoted_bytes as f64 / 1e6);
    m.insert("residency.evictions", tier.evictions as f64);
    let (allocs, reuse, high_water) = closed_report
        .pools
        .iter()
        .fold((0u64, 0u64, 0u64), |(a, r, h), p| {
            (a + p.allocs, r + p.reuse_hits, h + p.high_water_bytes)
        });
    m.insert("pool.reuse_ratio", reuse as f64 / allocs.max(1) as f64);
    m.insert("pool.high_water_mb", high_water as f64 / 1e6);
    let closed_n = closed.samples.len().max(1) as f64;
    m.insert(
        "serve.batch_size.mean",
        closed
            .samples
            .iter()
            .map(|s| s.batch_size as f64)
            .sum::<f64>()
            / closed_n,
    );
    m.insert(
        "serve.cache_hit_ratio",
        closed.samples.iter().filter(|s| s.cache_hit).count() as f64 / closed_n,
    );
    let waits: Vec<f64> = open
        .samples
        .iter()
        .map(|s| s.queue_wait_ns as f64 / 1e6)
        .collect();
    m.insert("serve.queue_wait_ms.p50", median(&waits));
    let p99 = quantile(&latencies, 0.99);
    m.insert("serve.p99_ms", p99 * 1e3);
    m.insert(
        "serve.p99_tail_samples",
        latencies.iter().filter(|&&l| l > p99).count() as f64,
    );
    m.insert("serve.gen_late_ms", quantile(&open.late_s, 0.99) * 1e3);
    m.insert("corpus.embed_s", median(&embed_s));
    m.insert("index.build_s", train_s);
    m.insert("traced.train_s", train_s);
    m.insert("bench.reference_ms", clock.reference_s() * 1e3);
    m.insert("traced.ops_per_s", ops_per_s);
    m.insert("traced.p50_ms", p50_ms);
    m.insert("traced.sim_ms", sim_ms);

    let (window, window_ops) = tracer.span("serve.trace_window", 0, |id| {
        layers::serving_window(
            &built.open_gpus,
            |reqs: &[Req]| closed_loop(&open_srv, reqs, &refs, DEPTH, &tracer, id),
            &plan.extra,
        )
    });
    out.ops.add(window_ops);
    drop(open_srv);
    m.insert("serve.shed", out.ops.shed as f64);
    m.insert("serve.failed", out.ops.failed as f64);
    layers::trace_layers(&window, &mut m, &mut out.ops, &tracer);

    let gcn = tracer.span("layers.gcn_fixture", 0, |_| {
        layers::GcnFixture::new(&crate::inputs::gcn_dataset())
    });
    layers::gcn_layers(&gcn, &mut m, &tracer);
    layers::rag_layers(&built, &plan.checked, &mut m, &tracer);

    let total_s = run_start.elapsed().as_secs_f64();
    m.insert("bench.spans", tracer.len() as f64);
    m.insert(
        "bench.span_overhead_pct",
        spans_timed as f64 * Tracer::cost_per_span() / total_s * 100.0,
    );
    layers::write_spans(&tracer, traffic.workload().name(), opts.seed);
    out.metrics = m;
    out
}

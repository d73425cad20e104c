//! Wall-clock benchmark of the sagegpu workspace.
//!
//! Three workloads, each run by one call of [`Outcome::run`]:
//!
//! - `gcn_train`: distributed GCN training (Algorithm 1, A10's k = 8
//!   hierarchical + bucketed arm) followed by a what-if study loop over the
//!   recorded command trace (A11's overrides).
//! - `rag_unique`: a 4-shard tiered IVF-PQ RAG server under a 25% residency
//!   budget, every query distinct, so the retrieval cache never hits.
//! - `rag_zipf`: the same server with Zipf(s = 1) queries over a small
//!   pool, so the cache answers nearly every request.
//!
//! A run prints every end-to-end metric ([`END_TO_END`]) or, when traced,
//! every per-layer metric ([`PER_LAYER`]), plus the operations it attempted
//! and how many of them failed an output check. See `README.md` in this
//! directory for why each workload and metric exists.

pub mod gcn;
pub mod inputs;
pub mod layers;
pub mod measure;
pub mod rag;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics a user of the system sees, with their units. Every
/// workload reports every one of them; `README.md` gives each its meaning
/// per workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_ms", "ms-sim"),
    ("train_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
];

/// Per-layer metrics of the traced run, with their units. A layer the
/// workload does not exercise reports its counters as 0; its
/// micro-benchmarks run on every workload.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("tensor.matmul_ms", "ms"),
    ("tensor.spmm_ms", "ms"),
    ("rayon.par_call_us", "us"),
    ("nn.fwd_bwd_ms", "ms"),
    ("graph.metis_ms", "ms"),
    ("taskflow.tasks", "count"),
    ("taskflow.dispatch_wait_ms.p50", "ms"),
    ("taskflow.busy_ms", "ms"),
    ("taskflow.retries", "count"),
    ("gpu.submissions", "count"),
    ("gpu.kernel_launches", "count"),
    ("gpu.exposed_comm_ms", "ms-sim"),
    ("gpu.submit_ns_per_cmd", "ns"),
    ("pool.reuse_ratio", "ratio"),
    ("pool.high_water_mb", "MB"),
    ("trace.bytes", "bytes"),
    ("trace.to_json_mb_per_s", "MB/s"),
    ("trace.from_json_mb_per_s", "MB/s"),
    ("trace.replay_cmds_per_s", "cmds/s"),
    ("trace.record_overhead_pct", "%"),
    ("profiler.ingest_ms", "ms"),
    ("embed.us_per_query", "us"),
    ("search.ms_per_batch", "ms"),
    ("pq.adc_table_us", "us"),
    ("merge.us_per_batch", "us"),
    ("residency.hit_ratio", "ratio"),
    ("residency.promoted_mb", "MB"),
    ("residency.evictions", "count"),
    ("residency.touch_us", "us"),
    ("corpus.embed_s", "s"),
    ("pq.train_s", "s"),
    ("index.build_s", "s"),
    ("generate.ms_per_batch", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.p99_ms", "ms"),
    ("serve.p99_tail_samples", "count"),
    ("serve.gen_late_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("bench.spans", "count"),
    ("bench.span_overhead_pct", "%"),
    ("bench.reference_ms", "ms"),
    ("traced.train_s", "s"),
    ("traced.ops_per_s", "1/s"),
    ("traced.p50_ms", "ms"),
    ("traced.sim_ms", "ms-sim"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GcnTrain,
    RagUnique,
    RagZipf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::GcnTrain, Workload::RagUnique, Workload::RagZipf];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GcnTrain => "gcn_train",
            Workload::RagUnique => "rag_unique",
            Workload::RagZipf => "rag_zipf",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is sized and whether it is traced.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed part of a run, in seconds.
    pub seconds: f64,
    /// Traced run: record spans and report per-layer metrics.
    pub trace: bool,
}

impl Opts {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Opts {
            seed,
            seconds,
            trace,
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Operation accounting for one run. An operation is a request, a
/// training call, a what-if study or a replay; one whose output fails its
/// check, or that returns an error, counts as failed. A request refused at
/// admission counts as shed: it has no output to check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub shed: u64,
}

impl Ops {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn shed(&mut self) {
        self.attempted += 1;
        self.shed += 1;
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed - self.shed
    }

    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
    }
}

/// Metric values of one run, keyed by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What a run produced: its metrics (end-to-end or per-layer), operation
/// counts, and any output check that failed, described.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub ops: Ops,
    pub problems: Vec<String>,
}

impl Outcome {
    /// Runs `workload` once.
    pub fn run(workload: Workload, opts: &Opts) -> Outcome {
        match workload {
            Workload::GcnTrain => gcn::run(opts),
            Workload::RagUnique => rag::run(rag::Traffic::Unique, opts),
            Workload::RagZipf => rag::run(rag::Traffic::Zipf, opts),
        }
    }

    /// The metric table this run must report.
    pub fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`, each metric with its unit. Fails when the
    /// run did not measure exactly the expected metric set.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        let expected = Self::expected(trace);
        let mut missing: Vec<&str> = Vec::new();
        for (name, _) in expected {
            if !self.metrics.contains_key(name) {
                missing.push(name);
            }
        }
        let extra: Vec<&&str> = self
            .metrics
            .keys()
            .filter(|k| !expected.iter().any(|(n, _)| n == *k))
            .collect();
        if !missing.is_empty() || !extra.is_empty() {
            return Err(format!(
                "metric set mismatch: missing {missing:?}, extra {extra:?}"
            ));
        }
        let mut out = String::new();
        let correct = self.ops.failed == 0 && self.problems.is_empty();
        write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.ops.attempted, self.ops.failed
        )
        .expect("writing to a String cannot fail");
        for (i, (name, unit)) in expected.iter().enumerate() {
            let v = self.metrics[name];
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }
}

//! Seeded input generators: every input a run feeds the program derives
//! from the workload seed, so the same seed gives the same inputs.

use sagegpu_core::graph::generators::{sbm, GraphDataset, SbmParams};
use sagegpu_core::rag::corpus::Corpus;
use std::collections::HashSet;

/// splitmix64: a small, fast, fully seeded 64-bit generator.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seed for one input stream of the run: streams stay independent of
/// each other and of the corpus seed.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Words per generated query (A12's query length).
pub const QUERY_WORDS: usize = 6;

/// One on-topic query drawn from the corpus vocabulary.
fn draw_query(rng: &mut SplitMix) -> String {
    let topic = (rng.next_u64() % Corpus::num_topics() as u64) as usize;
    Corpus::topic_query(topic, QUERY_WORDS, rng.next_u64())
}

/// Distinct query texts: `n` queries none of which equals another or
/// any text in `seen`, which is extended with them.
pub fn unique_queries(n: usize, rng: &mut SplitMix, seen: &mut HashSet<String>) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let q = draw_query(rng);
        if seen.insert(q.clone()) {
            out.push(q);
        }
    }
    out
}

/// Zipf(s = 1) sampler over ranks `0..n` (rank 0 hottest), by inverse CDF
/// over the harmonic weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / (r + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The repository's experiment seed, which drew A10's graph and A12's
/// corpus.
pub const EXPERIMENT_SEED: u64 = 2025;

/// A10's dataset: the 3 200-node, 4-block SBM with 256 features. It is
/// fixed rather than drawn from the workload seed because METIS cuts
/// other draws of the same SBM very differently (simulated makespan
/// 118–241 ms and 3.6–9.1 s per training call on seeds 1–3), which would
/// measure the draw instead of the code.
pub fn gcn_dataset() -> GraphDataset {
    sbm(
        &SbmParams {
            block_sizes: vec![800, 800, 800, 800],
            p_in: 0.10,
            p_out: 0.02,
            feature_dim: 256,
            feature_separation: 0.5,
            train_fraction: 0.3,
        },
        EXPERIMENT_SEED,
    )
    .expect("A10's SBM parameters are valid")
}

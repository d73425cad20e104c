//! `decode_gate` — a one-sided, ratio-based wall-clock gate on decoding
//! command traces.
//!
//! Usage (release build; debug timings mean nothing):
//! ```text
//! cargo run --release -p sagegpu-bench --bin decode_gate
//! ```
//!
//! Records the gate's fused-GCN workload for [`EPOCHS`] epochs, a trace of
//! over 1 MB of JSON. Then it alternately times `TraceV1::from_json` and
//! `serde_json::from_str` into a `Value` tree on the same text, in this
//! process, [`ROUNDS`] times each. The tree build is the calibration: it
//! runs the same tokenizer over the same bytes, so host speed cancels out
//! of the ratio. `from_json` decodes straight from the tokens; a decoder
//! that built the tree and then walked it would cost more than the tree
//! alone, a ratio above 1.
//!
//! Exits 1 when the median `from_json` time exceeds [`BOUND`] × the median
//! tree-build time, or when the decoded trace differs from the recorded
//! one; 2 when the recording is smaller than 1 MB.

use sagegpu_bench::gate::record_gcn_trace;
use sagegpu_core::gpu::trace::TraceV1;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Epochs of the recorded workload: about 1.3 MB of JSON.
const EPOCHS: usize = 120;
/// Timed decodes of each kind.
const ROUNDS: usize = 21;
/// Largest allowed median ratio `from_json` / tree build. Over 20 runs on
/// a shared 2-vCPU x86-64 VM the ratio was 0.225–0.275; the bound leaves
/// 45 % headroom over the worst of them. A decoder that builds and walks
/// a tree measured 1.15–1.28 there.
const BOUND: f64 = 0.40;

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn main() {
    let trace = record_gcn_trace(EPOCHS);
    let json = trace.to_json();
    if json.len() < 1_000_000 {
        eprintln!(
            "decode_gate: the recorded trace is {} bytes, under 1 MB",
            json.len()
        );
        std::process::exit(2);
    }
    if TraceV1::from_json(&json).as_ref() != Ok(&trace) {
        eprintln!("decode_gate: the decoded trace differs from the recorded one");
        std::process::exit(1);
    }
    let (mut decode, mut tree) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let t = Instant::now();
        black_box(TraceV1::from_json(black_box(&json)).ok());
        decode.push(t.elapsed());
        let t = Instant::now();
        black_box(serde_json::from_str(black_box(&json)).ok());
        tree.push(t.elapsed());
    }
    let (decode, tree) = (median(decode), median(tree));
    let ratio = decode.as_secs_f64() / tree.as_secs_f64();
    let mb = json.len() as f64 / 1e6;
    println!(
        "{} bytes: from_json {:.2} ms ({:.0} MB/s), from_str -> Value {:.2} ms ({:.0} MB/s), ratio {ratio:.3} (bound {BOUND})",
        json.len(),
        decode.as_secs_f64() * 1e3,
        mb / decode.as_secs_f64(),
        tree.as_secs_f64() * 1e3,
        mb / tree.as_secs_f64(),
    );
    if ratio > BOUND {
        eprintln!("decode_gate: TraceV1::from_json is slower than {BOUND} x a Value tree build");
        std::process::exit(1);
    }
}

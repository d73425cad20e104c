//! `wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload once and prints its metrics, one per line with its
//! unit, then the operation counts, then one JSON result line.

use std::process::ExitCode;
use wallbench::{Opts, Outcome, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("wallbench: {msg}");
    eprintln!(
        "usage: wallbench --workload <gcn_train|rag_unique|rag_zipf> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace all need valid values");
    };

    let opts = Opts::new(seed, seconds, trace);
    let out = Outcome::run(workload, &opts);
    for (name, unit) in Outcome::expected(trace) {
        if let Some(v) = out.metrics.get(name) {
            println!("{:<32} {v:>16.6} {unit}", name);
        }
    }
    println!(
        "ops: attempted {} succeeded {} failed {} shed {}",
        out.ops.attempted,
        out.ops.succeeded(),
        out.ops.failed,
        out.ops.shed
    );
    for p in &out.problems {
        println!("check failed: {p}");
    }
    match out.to_json(trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wallbench: {e}");
            ExitCode::FAILURE
        }
    }
}

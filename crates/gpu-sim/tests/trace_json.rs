//! The `TraceV1` JSON artifact contract: lossless round trips, exact
//! integers, typed range errors, and a fixed error precedence
//! (Parse > Version > Schema).

use gpu_sim::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Name fragments that exercise every string-escaping path: quotes,
/// backslashes, control characters, multi-byte and non-BMP characters.
const NAME_PARTS: &[&str] = &[
    "gemm",
    "rs3",
    "\"q\"",
    "back\\slash",
    "tab\t",
    "nl\n",
    "ctl\u{1}",
    "é",
    "中",
    "😀",
    "/",
    " ",
];

fn name(rng: &mut SmallRng) -> String {
    let n = rng.gen_range(0..4usize);
    (0..n).map(|_| *NAME_PARTS.choose(rng).unwrap()).collect()
}

/// Small values, values just above 2^53 (where an `f64` round trip would
/// lose them), values near `u64::MAX`, and uniform ones.
fn any_u64(rng: &mut SmallRng) -> u64 {
    let small = rng.gen_range(0..1000u64);
    match rng.gen_range(0..4u32) {
        0 => small,
        1 => (1 << 53) + small,
        2 => u64::MAX - small,
        _ => rng.gen(),
    }
}

fn any_u32(rng: &mut SmallRng) -> u32 {
    let small = rng.gen_range(0..1000u32);
    match rng.gen_range(0..3u32) {
        0 => small,
        1 => u32::MAX - small,
        _ => rng.gen(),
    }
}

/// Any finite `f64`: the writer stores non-finite values as 0.
fn any_f64(rng: &mut SmallRng) -> f64 {
    loop {
        let v = match rng.gen_range(0..3u32) {
            0 => rng.gen::<f64>(),
            1 => rng.gen_range(0..10_000u32) as f64 * 0.25,
            _ => f64::from_bits(rng.gen()),
        };
        if v.is_finite() {
            return v;
        }
    }
}

fn dim(rng: &mut SmallRng) -> Dim3 {
    Dim3 {
        x: any_u32(rng),
        y: any_u32(rng),
        z: any_u32(rng),
    }
}

fn pricing(rng: &mut SmallRng) -> KernelPricing {
    KernelPricing {
        cfg: LaunchConfig {
            grid: dim(rng),
            block: dim(rng),
            shared_mem_bytes: any_u32(rng),
        },
        profile: KernelProfile {
            flops: any_u64(rng),
            bytes: any_u64(rng),
            access: *[
                AccessPattern::Coalesced,
                AccessPattern::Strided,
                AccessPattern::Random,
            ]
            .choose(rng)
            .unwrap(),
            registers_per_thread: any_u32(rng),
        },
    }
}

fn link(rng: &mut SmallRng) -> LinkKind {
    *[LinkKind::Pcie, LinkKind::NvLink, LinkKind::Ethernet]
        .choose(rng)
        .unwrap()
}

/// Every variant has its own index, so a trace can be made to hold all.
const VARIANTS: usize = 11;

fn body(rng: &mut SmallRng, variant: usize) -> RecordBody {
    match variant {
        0 => RecordBody::Kernel {
            name: name(rng),
            dur_ns: any_u64(rng),
            bytes: any_u64(rng),
            flops: any_u64(rng),
            occupancy: any_f64(rng),
            pricing: rng.gen_bool(0.5).then(|| pricing(rng)),
        },
        1 => RecordBody::Copy {
            name: name(rng),
            kind: *[CopyKind::H2d, CopyKind::D2h, CopyKind::D2d]
                .choose(rng)
                .unwrap(),
            dur_ns: any_u64(rng),
            bytes: any_u64(rng),
        },
        2 => RecordBody::EventRecord { slot: any_u32(rng) },
        3 => RecordBody::EventWait { slot: any_u32(rng) },
        4 => RecordBody::CollectiveStep {
            name: name(rng),
            dur_ns: any_u64(rng),
            bytes: any_u64(rng),
            not_before_ns: any_u64(rng),
        },
        5 => {
            let n = rng.gen_range(0..5usize);
            RecordBody::Collective {
                name: name(rng),
                bytes: any_u64(rng),
                channel: any_u32(rng),
                ready_ns: (0..n).map(|_| any_u64(rng)).collect(),
                gates: (0..n)
                    .map(|_| rng.gen_bool(0.5).then(|| any_u32(rng)))
                    .collect(),
            }
        }
        6 => RecordBody::CollectiveSync { t_ns: any_u64(rng) },
        7 => RecordBody::Barrier,
        8 => RecordBody::StreamSync,
        9 => RecordBody::BlockingAllReduce {
            bytes: any_u64(rng),
        },
        _ => RecordBody::P2p {
            src: any_u32(rng),
            dst: any_u32(rng),
            bytes: any_u64(rng),
        },
    }
}

fn spec(rng: &mut SmallRng) -> DeviceSpec {
    DeviceSpec {
        name: name(rng),
        sm_count: any_u32(rng),
        cores_per_sm: any_u32(rng),
        warp_size: any_u32(rng),
        clock_ghz: any_f64(rng),
        max_threads_per_sm: any_u32(rng),
        max_blocks_per_sm: any_u32(rng),
        max_threads_per_block: any_u32(rng),
        shared_mem_per_sm: any_u32(rng),
        registers_per_sm: any_u32(rng),
        memory: MemorySpec {
            capacity_bytes: any_u64(rng),
            bandwidth_bytes_per_sec: any_f64(rng),
            latency_ns: any_f64(rng),
        },
        pcie_bandwidth_bytes_per_sec: any_f64(rng),
        pcie_latency_ns: any_f64(rng),
        launch_overhead_ns: any_f64(rng),
    }
}

/// A random trace holding every record variant once, plus `extra` more.
fn random_trace(seed: u64, extra: usize) -> TraceV1 {
    let rng = &mut SmallRng::seed_from_u64(seed);
    let mut variants: Vec<usize> = (0..VARIANTS)
        .chain((0..extra).map(|_| rng.gen_range(0..VARIANTS)))
        .collect();
    variants.shuffle(rng);
    let topology = match rng.gen_range(0..3u32) {
        0 => None,
        1 => Some(Topology::Flat(link(rng))),
        _ => Some(Topology::TwoTier {
            island: rng.gen_range(0..64usize),
            intra: link(rng),
            inter: link(rng),
        }),
    };
    TraceV1 {
        workload: name(rng),
        comm_channels: any_u32(rng),
        topology,
        sim_time_ns: any_u64(rng),
        kernel_launches: any_u64(rng),
        devices: (0..rng.gen_range(0..4u32))
            .map(|ordinal| TraceDevice {
                ordinal,
                streams: any_u32(rng),
                spec: spec(rng),
            })
            .collect(),
        records: variants
            .into_iter()
            .map(|v| TraceRecord {
                device: any_u32(rng),
                stream: any_u32(rng),
                body: body(rng, v),
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Decoding the encoded form gives back the same trace, and encoding
    /// that gives back the same bytes.
    #[test]
    fn json_roundtrip_is_lossless(seed in 0u64..u64::MAX, extra in 0usize..40) {
        let trace = random_trace(seed, extra);
        let json = trace.to_json();
        let back = TraceV1::from_json(&json).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(back.to_json(), json);
    }
}

#[test]
fn golden_traces_reencode_byte_identically() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if !path.to_string_lossy().ends_with(".trace.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let trace = TraceV1::from_json(&text).unwrap();
        assert!(
            trace.to_json() == text,
            "{} does not re-encode byte-identically",
            path.display()
        );
        seen += 1;
    }
    assert_eq!(seen, 4, "expected the four golden traces");
}

fn one_record_trace(body: RecordBody) -> TraceV1 {
    TraceV1 {
        workload: "unit".into(),
        comm_channels: 2,
        topology: Some(Topology::Flat(LinkKind::NvLink)),
        sim_time_ns: 10,
        kernel_launches: 1,
        devices: vec![TraceDevice {
            ordinal: 0,
            streams: 1,
            spec: DeviceSpec::t4(),
        }],
        records: vec![TraceRecord {
            device: 0,
            stream: 0,
            body,
        }],
    }
}

fn kernel() -> RecordBody {
    RecordBody::Kernel {
        name: "k".into(),
        dur_ns: 5,
        bytes: 64,
        flops: 128,
        occupancy: 0.5,
        pricing: None,
    }
}

fn schema_reason(json: &str) -> String {
    match TraceV1::from_json(json) {
        Err(TraceError::Schema { reason }) => reason,
        other => panic!("expected TraceError::Schema, got {other:?}"),
    }
}

#[test]
fn integers_above_2_pow_53_decode_exactly() {
    let big = (1u64 << 53) + 1;
    let mut trace = one_record_trace(RecordBody::Kernel {
        name: "k".into(),
        dur_ns: big,
        bytes: u64::MAX,
        flops: big + 2,
        occupancy: 0.5,
        pricing: None,
    });
    trace.sim_time_ns = big;
    let json = trace.to_json();
    assert!(json.contains("\"sim_time_ns\": 9007199254740993"));
    assert_eq!(TraceV1::from_json(&json).unwrap(), trace);
}

#[test]
fn u32_fields_out_of_range_are_schema_errors() {
    let json = one_record_trace(kernel()).to_json();
    let doctored = json.replace("\"device\":0,", "\"device\":4294967297,");
    assert_ne!(doctored, json);
    assert_eq!(
        schema_reason(&doctored),
        "field 'device' is out of range for u32: 4294967297"
    );

    let gated = one_record_trace(RecordBody::Collective {
        name: "ar".into(),
        bytes: 8,
        channel: 0,
        ready_ns: vec![0, 0],
        gates: vec![None, Some(3)],
    })
    .to_json();
    let doctored = gated.replace("\"gates\":[null,3]", "\"gates\":[null,4294967296]");
    assert_ne!(doctored, gated);
    assert_eq!(
        schema_reason(&doctored),
        "'gates' entry is out of range for u32: 4294967296"
    );

    let doctored = json.replace("\"sm_count\":40,", "\"sm_count\":8589934592,");
    assert_ne!(doctored, json);
    assert_eq!(
        schema_reason(&doctored),
        "field 'sm_count' is out of range for u32: 8589934592"
    );
}

#[test]
fn truncated_document_with_bad_version_is_a_parse_error() {
    let json = one_record_trace(kernel())
        .to_json()
        .replace("\"version\": 1", "\"version\": 7");
    let truncated = &json[..json.len() / 2];
    assert!(matches!(
        TraceV1::from_json(truncated),
        Err(TraceError::Parse { .. })
    ));
}

#[test]
fn wrong_version_wins_over_schema_errors_wherever_it_sits() {
    let json = one_record_trace(kernel()).to_json();
    // A missing field with a wrong version first.
    let doctored = json
        .replace("\"version\": 1", "\"version\": 2")
        .replace("\"workload\": \"unit\",", "");
    assert_eq!(
        TraceV1::from_json(&doctored),
        Err(TraceError::Version { found: 2 })
    );
    // A wrong version as the last key, after a record missing its op.
    let moved = json
        .replace("\"version\": 1,", "")
        .replace("{\"op\":\"kernel\",", "{")
        .replace("\n  ]\n}", "\n  ],\n  \"version\": 3\n}");
    assert_eq!(
        TraceV1::from_json(&moved),
        Err(TraceError::Version { found: 3 })
    );
    // The same document with the right version reports the schema error.
    let fixed = moved.replace("\"version\": 3", "\"version\": 1");
    assert_eq!(schema_reason(&fixed), "missing field 'op'");
}

#[test]
fn schema_messages_and_key_order() {
    let json = one_record_trace(kernel()).to_json();
    // Keys in any order decode to the same trace.
    let reordered = json.replace(
        "{\"op\":\"kernel\",\"device\":0,\"stream\":0,",
        "{\"stream\":0,\"device\":0,\"future\":[{}],\"op\":\"kernel\",",
    );
    assert_ne!(reordered, json);
    assert_eq!(
        TraceV1::from_json(&reordered).unwrap(),
        TraceV1::from_json(&json).unwrap()
    );
    for (from, to, reason) in [
        (
            "\"device\":0,",
            "\"device\":\"0\",",
            "field 'device' must be a non-negative integer",
        ),
        ("\"dur_ns\":5,", "", "missing field 'dur_ns'"),
        (
            "\"occupancy\":0.5",
            "\"occupancy\":null",
            "field 'occupancy' must be a number",
        ),
        (
            "\"op\":\"kernel\"",
            "\"op\":\"warp\"",
            "unknown record op 'warp'",
        ),
        (
            "\"records\": [",
            "\"records\": 5, \"x\": [",
            "'records' must be an array",
        ),
        (
            "\"kind\":\"flat\"",
            "\"kind\":\"ring\"",
            "unknown topology kind 'ring'",
        ),
    ] {
        let doctored = json.replacen(from, to, 1);
        assert_ne!(doctored, json, "{from} not found");
        assert_eq!(schema_reason(&doctored), reason, "after {from} -> {to}");
    }
}

//! Timing, statistics, memory and span recording.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle pair for even counts); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nominal wall time of one [`reference_unit`], in seconds: it took
/// 10–15 ms on the 2-core x86-64 box the benchmark was tuned on.
pub const REFERENCE_S: f64 = 0.0125;

/// A fixed allocation- and pointer-heavy loop, independent of the program
/// under test: 30 000 inserts of short keys into a `BTreeMap`. Returns its
/// wall time in seconds.
pub fn reference_unit() -> f64 {
    let t = Instant::now();
    let mut map: std::collections::BTreeMap<String, [u64; 3]> = Default::default();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for i in 0..30_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(format!("k{:x}", x >> 20), [i, x, x ^ i]);
    }
    std::hint::black_box(map.values().map(|v| v[1] & 1).sum::<u64>());
    t.elapsed().as_secs_f64()
}

/// Host-speed calibration. The host is a shared VM whose memory-bound
/// speed drifts: over 30 s of the what-if loop its 1-s medians wandered
/// between 28 and 55 ms, and a run's figures followed the drift. So a
/// reference unit runs after every measured block, and the block's wall
/// time is scaled by [`REFERENCE_S`] over the median of the [`WINDOW`]
/// units on each side of it: the time the block would have taken on a
/// host running the reference at its nominal speed. The median keeps a
/// single unit slowed by a stall (up to 3.5 × nominal) from scaling its
/// block. Over five seeds this cut the interquartile spread of
/// `gcn_train`'s `ops_per_s` from 15 % to 6 % of its median.
pub struct HostClock {
    references: Vec<f64>,
}

/// Reference units on each side of a block that calibrate it.
pub const WINDOW: usize = 3;

/// A wall time taken by [`HostClock::time`], to be calibrated once the
/// reference units after it have run.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    /// Index of the reference unit that ran right after the block.
    after: usize,
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock {
            references: vec![reference_unit()],
        }
    }
}

impl HostClock {
    /// Runs `f`, then a reference unit. Returns `f`'s result and wall time.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let t = Instant::now();
        let out = f();
        let wall_s = t.elapsed().as_secs_f64();
        self.references.push(reference_unit());
        let after = self.references.len() - 1;
        (out, Timed { wall_s, after })
    }

    /// Scale from `t`'s wall time to calibrated time.
    pub fn scale(&self, t: Timed) -> f64 {
        let lo = t.after.saturating_sub(WINDOW);
        let hi = (t.after + WINDOW).min(self.references.len());
        REFERENCE_S / median(&self.references[lo..hi])
    }

    /// `t`'s calibrated wall time in seconds.
    pub fn seconds(&self, t: Timed) -> f64 {
        t.wall_s * self.scale(t)
    }

    /// Median calibrated wall time of `times`, in seconds.
    pub fn median_s(&self, times: &[Timed]) -> f64 {
        median(&times.iter().map(|&t| self.seconds(t)).collect::<Vec<_>>())
    }

    /// Median wall time of the reference units run so far, in seconds.
    pub fn reference_s(&self) -> f64 {
        median(&self.references)
    }
}

/// The `q`-quantile of `values` by linear interpolation between the
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Calls `f` `reps` times and returns the median wall time of one call,
/// in seconds.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median wall time of one call of `f`, in seconds: `f` runs in blocks of
/// `per_block` calls until `budget` has passed (at least 5 blocks), and the
/// median block time is divided by `per_block`.
pub fn time_per_call(per_block: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut blocks = Vec::new();
    while blocks.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..per_block {
            f();
        }
        blocks.push(t.elapsed().as_secs_f64() / per_block as f64);
    }
    median(&blocks)
}

/// The process's high-water resident set size in MB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One recorded span: a call the benchmark made into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    pub name: &'static str,
    /// The request or operation the span belongs to, when it has one.
    pub request: Option<u64>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Keeps spans in memory while a traced run executes; disabled tracers
/// record nothing and cost one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id for a span whose children start before it ends.
    pub fn open(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records the span `id` (from [`open`](Self::open), or 0 to allocate
    /// one) that ran from `start` to `end`.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let id = if id == 0 { self.open() } else { id };
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            request,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking thread")
            .push(span);
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// span's id so its own calls can record children.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.open();
        let start = Instant::now();
        let out = f(id);
        self.record(id, parent, name, None, start, Instant::now());
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking thread")
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wall cost of recording one span on this machine, in seconds,
    /// measured on a scratch tracer.
    pub fn cost_per_span() -> f64 {
        let scratch = Tracer::new(true);
        time_per_call(1000, Duration::from_millis(20), || {
            scratch.span("calibration", 0, |_| ());
        })
    }

    /// Writes every span as one JSON array to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking thread");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let request = s.request.map_or("null".to_owned(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.id, s.parent, s.name, request, s.start_ns, s.end_ns
            )?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

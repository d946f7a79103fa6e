//! Small shared pieces: a seeded RNG, sample statistics, process
//! memory, and span bookkeeping for the traced run.

use std::collections::BTreeMap;
use std::time::Instant;

use f3m::trace::{EventKind, Tracer};

/// SplitMix64: every generated input and request sequence derives from
/// the `--seed` argument through this generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent seed for input `stream` from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Median of `samples` (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that leaves at least ten samples above it,
/// as `(percentile, value)`; `None` below forty samples, where such a
/// percentile would be no tail.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 40 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the value at rank n - 10 has ten samples beyond it.
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

/// Fewest samples in one tail group: a group's tail is then p79.2 or
/// higher.
pub const TAIL_GROUP: usize = 48;

/// The tail of a latency series, robust to a few stalls of the host:
/// the series, in sampling order, is cut into consecutive groups of at
/// least [`TAIL_GROUP`] samples, each group's [`tail`] is taken, and
/// the result is their median. Returns `(lowest group percentile,
/// highest group percentile, groups, median tail)`; `None` below one
/// group.
pub fn grouped_tail(samples: &[f64]) -> Option<(f64, f64, usize, f64)> {
    let n = samples.len();
    let groups = n / TAIL_GROUP;
    if groups == 0 {
        return None;
    }
    let tails: Vec<(f64, f64)> = (0..groups)
        .map(|g| tail(&samples[g * n / groups..(g + 1) * n / groups]))
        .collect::<Option<_>>()?;
    let pcts = tails.iter().map(|t| t.0);
    let lo = pcts.clone().fold(f64::INFINITY, f64::min);
    let hi = pcts.fold(f64::NEG_INFINITY, f64::max);
    let values: Vec<f64> = tails.iter().map(|t| t.1).collect();
    Some((lo, hi, groups, median(&values)))
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, from procfs.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in procfs status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM line")?;
    Ok(kb / 1024.0)
}

/// Starts a span when a tracer is installed (the untraced run passes
/// `None` and records nothing).
pub fn span<'a>(
    tracer: Option<&'a Tracer>,
    layer: &'static str,
    call: &'static str,
) -> f3m::trace::tracer::SpanGuard<'a> {
    f3m::trace::tracer::span_on(tracer, layer, call)
}

/// Per-layer totals derived from a tracer's spans: inclusive time and
/// call count per `layer.call`, self time per layer (a span's duration
/// minus the part covered by spans nested inside it).
#[derive(Default)]
pub struct LayerTable {
    pub calls: BTreeMap<String, (u64, f64)>,
    pub self_ms: BTreeMap<&'static str, f64>,
}

impl LayerTable {
    pub fn from_tracer(t: &Tracer) -> LayerTable {
        let mut spans: Vec<(u64, u64, &'static str, String)> = t
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Span { dur_ns } => Some((e.ts_ns, dur_ns, e.cat, e.name)),
                _ => None,
            })
            .collect();
        // Parents first: earlier start, then the longer span.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut table = LayerTable::default();
        // Stack of (end, index into `own`); `own[i]` is span i's self time.
        let mut stack: Vec<(u64, usize)> = Vec::new();
        let mut own: Vec<(&'static str, i128)> = Vec::new();
        for (ts, dur, cat, name) in spans {
            let end = ts + dur;
            while stack.last().is_some_and(|&(e, _)| e <= ts) {
                stack.pop();
            }
            if let Some(&(_, parent)) = stack.last() {
                own[parent].1 -= i128::from(dur);
            }
            own.push((cat, i128::from(dur)));
            stack.push((end, own.len() - 1));
            let entry = table
                .calls
                .entry(format!("{cat}.{name}"))
                .or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += dur as f64 / 1e6;
        }
        for (cat, ns) in own {
            *table.self_ms.entry(cat).or_insert(0.0) += ns.max(0) as f64 / 1e6;
        }
        table
    }

    /// Inclusive milliseconds and call count of `layer.call`.
    pub fn call(&self, key: &str) -> (u64, f64) {
        self.calls.get(key).copied().unwrap_or((0, 0.0))
    }

    /// Plain-text per-layer self-time table.
    pub fn render(&self, total_ms: f64) -> String {
        let mut out = format!("{:<12} {:>12} {:>8}\n", "layer", "self_ms", "share%");
        for (layer, ms) in &self.self_ms {
            out.push_str(&format!(
                "{layer:<12} {ms:>12.3} {:>8.2}\n",
                100.0 * ms / total_ms.max(1e-9)
            ));
        }
        out.push_str(&format!(
            "\n{:<28} {:>8} {:>12}\n",
            "call", "count", "incl_ms"
        ));
        for (key, (n, ms)) in &self.calls {
            out.push_str(&format!("{key:<28} {n:>8} {ms:>12.3}\n"));
        }
        out
    }
}

/// Formats a metric value with all its digits (shortest round-trip).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

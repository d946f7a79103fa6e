//! The static-F3M pass phase. Each round runs in a child process of its
//! own, so that its peak resident set is the pass's, not the
//! generator's: parse every input module (the set-up sample), then one
//! `run_pass` over every module (the pass sample).

use std::process::{Command, Stdio};
use std::time::Instant;

use f3m::core::pass::{run_pass, PassConfig};
use f3m::interp::{observe, Limits, Val};
use f3m::ir::module::Module;
use f3m::ir::size::module_size;
use f3m::trace::{Json, Tracer};

use crate::inputs::Source;
use crate::util::{num, sub_seed, Rng};

/// Worker threads of the pass.
pub const JOBS: usize = 2;

/// What one pass round reports.
pub struct PassOut {
    /// Seconds to parse every input module.
    pub parse_s: f64,
    /// Seconds of one `run_pass` over every module.
    pub pass_s: f64,
    pub bytes_saved: u64,
    pub merges_committed: u64,
    pub peak_rss_mb: f64,
}

/// Seeded `@__driver` arguments for the interpreter differential.
pub fn driver_args(seed: u64) -> Vec<i64> {
    let mut rng = Rng::new(sub_seed(seed, 0xD41));
    (0..3)
        .map(|_| (rng.next_u64() % 2001) as i64 - 1000)
        .collect()
}

/// Checks that `after` computes what `before` did: `func` observed under
/// the interpreter on every argument. Returns the first difference.
pub fn differential(
    before: &Module,
    after: &Module,
    func: &str,
    args: &[i64],
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    for &a in args {
        let run = |m| {
            let _s = crate::util::span(tracer, "interp", "observe");
            observe(m, func, &[Val::Int(a)], Limits::default())
        };
        let (want, got) = (run(before), run(after));
        if want != got {
            return Err(format!(
                "{func}({a}): {want:?} before merging, {got:?} after"
            ));
        }
    }
    Ok(())
}

/// Child-process entry: `pass <seed> <f3m|hyfm> <check|nocheck> <file>...`.
/// Parses the files, runs the pass over every module, optionally checks
/// the merged modules, and prints one JSON line.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let arg = |i: usize| {
        args.get(i)
            .ok_or_else(|| "pass: missing argument".to_string())
    };
    let seed: u64 = arg(0)?.parse().map_err(|e| format!("seed: {e}"))?;
    let config = match arg(1)?.as_str() {
        "f3m" => PassConfig::f3m(),
        "hyfm" => PassConfig::hyfm(),
        other => return Err(format!("unknown strategy `{other}`")),
    }
    .with_jobs(JOBS);
    let check = arg(2)? == "check";
    let texts: Vec<String> = args[3..]
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}")))
        .collect::<Result<_, _>>()?;

    let t = Instant::now();
    let originals: Vec<Module> = texts
        .iter()
        .map(|t| f3m::ir::parser::parse_module(t).map_err(|e| format!("parse: {e}")))
        .collect::<Result<_, _>>()?;
    let parse_s = t.elapsed().as_secs_f64();

    let mut merged = originals.clone();
    let t = Instant::now();
    let reports: Vec<_> = merged.iter_mut().map(|m| run_pass(m, &config)).collect();
    let pass_s = t.elapsed().as_secs_f64();
    let peak_rss_mb = crate::util::peak_rss_mb("self")?;
    let bytes_saved: u64 = reports
        .iter()
        .map(|r| r.stats.size_before - r.stats.size_after)
        .sum();
    let merges_committed: u64 = reports
        .iter()
        .map(|r| r.stats.merges_committed as u64)
        .sum();

    // Independent checks on the merged modules.
    let mut errors = Vec::new();
    if check {
        let recount: u64 = originals
            .iter()
            .zip(&merged)
            .map(|(a, b)| module_size(a) - module_size(b))
            .sum();
        if recount != bytes_saved || bytes_saved == 0 {
            errors.push(format!("bytes_saved {bytes_saved}, recounted {recount}"));
        }
        let dargs = driver_args(seed);
        for (before, after) in originals.iter().zip(&merged) {
            if let Err(e) = f3m::ir::verify::verify_module(after) {
                errors.push(format!(
                    "{}: merged module fails verification: {e:?}",
                    after.name
                ));
            }
            if let Err(e) = differential(before, after, "__driver", &dargs, None) {
                errors.push(format!("{}: {e}", after.name));
            }
        }
    }

    let errs = errors
        .iter()
        .map(|e| format!("\"{}\"", f3m::trace::json::escape(e)))
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"parse_s\":{},\"pass_s\":{},\"bytes_saved\":{bytes_saved},\
         \"merges_committed\":{merges_committed},\"peak_rss_mb\":{},\"errors\":[{errs}]}}",
        num(parse_s),
        num(pass_s),
        num(peak_rss_mb)
    );
    Ok(())
}

/// Runs one pass round in a child process over `sources`. Check
/// failures the child found are appended to `errors`.
pub fn run(
    sources: &[Source],
    seed: u64,
    strategy: &str,
    check: bool,
    errors: &mut Vec<String>,
) -> Result<PassOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("pass")
        .arg(seed.to_string())
        .arg(strategy)
        .arg(if check { "check" } else { "nocheck" })
        .args(sources.iter().map(|s| &s.path))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass child failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("pass child printed nothing")?;
    let v = f3m::trace::json::parse(line)?;
    for e in v.get("errors").and_then(Json::as_array).unwrap_or(&[]) {
        errors.push(format!("pass: {}", e.as_str().unwrap_or("?")));
    }
    let float = |k: &str| {
        v.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("pass child report lacks {k}"))
    };
    let int = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("pass child report lacks {k}"))
    };
    Ok(PassOut {
        parse_s: float("parse_s")?,
        pass_s: float("pass_s")?,
        bytes_saved: int("bytes_saved")?,
        merges_committed: int("merges_committed")?,
        peak_rss_mb: float("peak_rss_mb")?,
    })
}

/// Pass rounds of one run: every round must commit the same merges.
#[derive(Default)]
pub struct PassSeries {
    pub parse_s: Vec<f64>,
    pub pass_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    pub bytes_saved: u64,
    pub merges_committed: u64,
}

impl PassSeries {
    /// One more round; the first one also checks the merged modules.
    pub fn round(
        &mut self,
        sources: &[Source],
        seed: u64,
        errors: &mut Vec<String>,
    ) -> Result<(), String> {
        let first = self.pass_s.is_empty();
        let p = run(sources, seed, "f3m", first, errors)?;
        if !first
            && (p.bytes_saved, p.merges_committed) != (self.bytes_saved, self.merges_committed)
        {
            errors.push(format!(
                "pass round changed its result: {} bytes / {} merges, then {} / {}",
                self.bytes_saved, self.merges_committed, p.bytes_saved, p.merges_committed
            ));
        }
        self.parse_s.push(p.parse_s);
        self.pass_s.push(p.pass_s);
        self.peak_rss_mb.push(p.peak_rss_mb);
        self.bytes_saved = p.bytes_saved;
        self.merges_committed = p.merges_committed;
        Ok(())
    }
}

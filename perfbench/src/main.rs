//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <pass-suite|daemon-edit|restart> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, drives the program
//! through its public entry points (the pass in a child process, the
//! daemon as child processes over TCP), checks every output, and prints
//! one JSON line: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). See README.md for the workloads and metrics.

mod daemon;
mod inputs;
mod pass;
mod probe;
mod session;
mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use f3m::core::corpus::Corpus;
use f3m::trace::Tracer;

use inputs::{corpus_specs, numbered, write_modules, Source};
use pass::PassSeries;
use session::{Restarts, Restore, Run, Session, SessionPlan};
use util::{grouped_tail, median, num, TAIL_GROUP};

/// Command-line arguments of a benchmark run.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = flag("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: flag("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: flag("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match flag("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
        },
    })
}

const WORKLOADS: [&str; 3] = ["pass-suite", "daemon-edit", "restart"];

/// Module count and size of the companion corpus: every workload runs
/// the phases it is not named after on it, so that every workload
/// reports every metric.
const COMPANION: (usize, usize) = (4, 300);
/// The companion corpus is generated from this fixed seed, not the run
/// seed: its small figures then vary only with the machine, never with
/// the corpus, and compare like with like between runs.
const COMPANION_SEED: u64 = 0x5EED;
/// `daemon-edit`'s corpus: many mid-sized modules, so that the edit
/// loop takes many samples.
const EDIT_CORPUS: (usize, usize) = (16, 200);
/// `restart`'s corpus.
const RESTART_CORPUS: (usize, usize) = (12, 1000);

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let child = match argv.first().map(String::as_str) {
        Some("serve") => Some(daemon::child_main(&argv[1..])),
        Some("pass") => Some(pass::child_main(&argv[1..])),
        Some("reference") => Some(
            argv.get(1)
                .and_then(|s| s.parse().ok())
                .ok_or("usage: perfbench reference <seed>".to_string())
                .and_then(reference),
        ),
        _ => None,
    };
    if let Some(result) = child {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".bench_out").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// End-to-end figures of one run, by metric name.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Work counts that must repeat exactly for a given seed.
type Counts = BTreeMap<&'static str, u64>;

fn run(args: &Args, dir: &Path) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let tracer = args.trace.then(Tracer::new);
    let mut run = Run {
        seed: args.seed,
        tracer: tracer.as_ref(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        layer: BTreeMap::new(),
    };
    let started = Instant::now();
    let mut m = Metrics::new();
    let mut counts = Counts::new();
    match args.workload.as_str() {
        "pass-suite" => pass_suite(&mut run, args, dir, &mut m, &mut counts)?,
        "daemon-edit" => daemon_edit(&mut run, args, dir, &mut m, &mut counts)?,
        _ => restart(&mut run, args, dir, &mut m, &mut counts)?,
    }
    let mut metrics = String::new();
    if let Some(t) = &tracer {
        let layer = probe::report(t, &run, args, dir, started)?;
        for (k, v) in layer {
            metrics.push_str(&format!(
                ",\"{k}\":{{\"value\":{},\"unit\":\"{}\"}}",
                num(v.0),
                v.1
            ));
        }
    } else {
        for (k, (v, unit)) in &m {
            metrics.push_str(&format!(
                ",\"{k}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*v)
            ));
        }
    }
    let counts_line: Vec<String> = counts.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("work counts: {{{}}}", counts_line.join(","));
    for e in &run.errors {
        eprintln!("incorrect: {e}");
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.errors.is_empty(),
        run.attempted,
        run.failed,
        metrics.trim_start_matches(',')
    ))
}

/// Median and tail of a latency series, under `<name>_p50_ms` and
/// `<name>_tail_ms`.
fn latency(
    m: &mut Metrics,
    p50: &'static str,
    tail_name: &'static str,
    samples: &[f64],
) -> Result<(), String> {
    m.insert(p50, (median(samples), "ms"));
    let (lo, hi, groups, v) = grouped_tail(samples)
        .ok_or_else(|| format!("{tail_name}: {} samples, need {TAIL_GROUP}", samples.len()))?;
    eprintln!(
        "{tail_name}: median of p{lo:.1}..p{hi:.1} over {groups} groups, {} samples",
        samples.len()
    );
    deciles(p50, samples);
    m.insert(tail_name, (v, "ms"));
    Ok(())
}

/// Prints the deciles of a sample series to stderr.
fn deciles(name: &str, samples: &[f64]) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let d: Vec<String> = (1..10)
        .map(|i| format!("{:.4}", sorted[i * sorted.len() / 10]))
        .collect();
    eprintln!("{name}: deciles {}", d.join(" "));
}

/// Every daemon metric from one resident session: sweep, edits,
/// queries, global merge.
fn session_metrics(m: &mut Metrics, s: &session::SessionOut) -> Result<(), String> {
    m.insert("cold_sweep_s", (median(&s.cold_sweep_s), "s"));
    m.insert("update_p50_ms", (median(&s.update_ms), "ms"));
    deciles("update_p50_ms", &s.update_ms);
    latency(
        m,
        "module_query_p50_ms",
        "module_query_tail_ms",
        &s.module_query_ms,
    )?;
    m.insert("global_merge_s", (median(&s.global_merge_s), "s"));
    Ok(())
}

fn session_counts(c: &mut Counts, s: &session::SessionOut) {
    c.insert("memo_hits", s.memo_hits);
    c.insert("memo_misses", s.memo_misses);
    c.insert("funcs_invalidated", s.funcs_invalidated);
    c.insert("global.verified_merges", s.verified_merges);
    c.insert("global_bytes_saved", s.bytes_saved);
}

/// A corpus of generated modules, its edit sequence and its
/// single-function query targets.
struct CorpusInputs {
    sources: Vec<Source>,
    edits: Vec<inputs::Edit>,
    targets: Vec<(String, String)>,
}

impl CorpusInputs {
    /// `shape.0` modules `<prefix>0..` of `shape.1` functions each.
    fn generate(
        dir: &Path,
        seed: u64,
        prefix: &str,
        shape: (usize, usize),
        edits: usize,
        targets: usize,
    ) -> CorpusInputs {
        let names = numbered(prefix, shape.0);
        let sources = write_modules(
            &dir.join(prefix),
            &corpus_specs(seed, prefix, shape.0, shape.1),
            Some(&names),
        );
        let parsed: Vec<_> = sources
            .iter()
            .map(|s| (s.name.clone(), inputs::parse(s)))
            .collect();
        let edits = inputs::edits(
            &dir.join(format!("{prefix}-edits")),
            &sources,
            &parsed,
            edits,
            seed,
        );
        let targets = inputs::fn_targets(&parsed, targets, seed);
        CorpusInputs {
            sources,
            edits,
            targets,
        }
    }

    /// The companion corpus: 192 edits, 200 single-function queries.
    fn companion(dir: &Path) -> CorpusInputs {
        CorpusInputs::generate(dir, COMPANION_SEED, "s", COMPANION, 192, 200)
    }

    fn plan(&self) -> SessionPlan<'_> {
        SessionPlan {
            sources: &self.sources,
            edits: &self.edits,
        }
    }
}

/// Parses and ingests every module into a fresh in-process corpus and
/// saves its snapshot, `reps` times. Returns the seconds of each repeat
/// and the last corpus, the reference restored daemons must match.
fn reference_corpus(
    run: &mut Run,
    sources: &[Source],
    snapshot: &Path,
    reps: usize,
) -> Result<(Vec<f64>, Corpus), String> {
    let mut setup_s = Vec::new();
    let mut reference = None;
    for _ in 0..reps {
        let t = Instant::now();
        let corpus = Corpus::new(session::corpus_config());
        for s in sources {
            let text = std::fs::read_to_string(&s.path).map_err(|e| format!("read input: {e}"))?;
            let module = run.parse(&text)?;
            let _s = util::span(run.tracer, "corpus", "ingest");
            corpus.ingest(module)?;
        }
        {
            let _s = util::span(run.tracer, "snapshot", "save_snapshot");
            corpus.save_snapshot(snapshot).map_err(|e| e.to_string())?;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        reference = Some(corpus);
    }
    Ok((setup_s, reference.ok_or("no set-up repeat ran")?))
}

/// Rounds of a run of `seconds`, for `at_ten` rounds in ten seconds.
fn rounds(seconds: u64, at_ten: u64) -> usize {
    ((at_ten * seconds + 5) / 10).max(1) as usize
}

/// Metrics and counts of the daemon phases every workload runs.
fn daemon_figures(
    m: &mut Metrics,
    c: &mut Counts,
    s: &session::SessionOut,
    r: &session::RestartOut,
) -> Result<(), String> {
    session_metrics(m, s)?;
    session_counts(c, s);
    m.insert("restore_ms", (median(&r.restore_ms), "ms"));
    c.insert("shard_faults", r.shard_faults);
    c.insert("shard_spills", r.shard_spills);
    Ok(())
}

fn pass_suite(
    run: &mut Run,
    args: &Args,
    dir: &Path,
    m: &mut Metrics,
    c: &mut Counts,
) -> Result<(), String> {
    let suite = write_modules(&dir.join("suite"), &inputs::suite_specs(args.seed), None);
    let comp = CorpusInputs::companion(dir);
    let snapshot = dir.join("s.f3msnap");
    let (_, reference) = reference_corpus(run, &comp.sources, &snapshot, 1)?;
    let mut restarts = Restarts::new(
        run,
        &snapshot,
        &reference,
        &comp.targets,
        Restore::HalfPool,
        dir,
    )?;
    let plan = comp.plan();
    let mut session = Session::start(run, &plan)?;
    let mut passes = PassSeries::default();
    // Companion blocks before, between and after the pass rounds.
    let pass_rounds = rounds(args.seconds, 2);
    let blocks = pass_rounds + 1;
    for b in 0..blocks {
        // Companion phases are short: each block takes them in two
        // halves, each with a set-up sample, edits, a `global_merge`
        // and two restarts.
        for _ in 0..2 {
            session.setup_sample(run)?;
            session.edits(run, comp.edits.len() / (2 * blocks))?;
            session.global_merge(run)?;
            restarts.one(run)?;
            restarts.one(run)?;
        }
        if b < pass_rounds {
            passes.round(&suite, args.seed, &mut run.errors)?;
        }
    }
    let s = session.finish(run)?;
    let r = restarts.finish(run)?;
    run.attempted += passes.pass_s.len() as u64;
    m.insert("setup_s", (median(&passes.parse_s), "s"));
    m.insert("peak_rss_mb", (median(&passes.peak_rss_mb), "MB"));
    m.insert("pass_s", (median(&passes.pass_s), "s"));
    m.insert("bytes_saved", (passes.bytes_saved as f64, "bytes"));
    c.insert("bytes_saved", passes.bytes_saved);
    c.insert("merges_committed", passes.merges_committed);
    daemon_figures(m, c, &s, &r)?;
    latency(m, "fn_query_p50_ms", "fn_query_tail_ms", &s.fn_query_ms)?;
    if run.tracer.is_some() {
        probe::pass_layers(run, &suite)?;
        probe::corpus_layers(run, &comp.sources, &comp.edits)?;
    }
    Ok(())
}

fn daemon_edit(
    run: &mut Run,
    args: &Args,
    dir: &Path,
    m: &mut Metrics,
    c: &mut Counts,
) -> Result<(), String> {
    let d = CorpusInputs::generate(dir, args.seed, "m", EDIT_CORPUS, 144, 40);
    let snapshot = dir.join("m.f3msnap");
    let (_, reference) = reference_corpus(run, &d.sources, &snapshot, 1)?;
    let mut restarts = Restarts::new(
        run,
        &snapshot,
        &reference,
        &d.targets,
        Restore::HalfPool,
        dir,
    )?;
    let comp = CorpusInputs::companion(dir);
    let plan = d.plan();
    let mut session = Session::start(run, &plan)?;
    let mut passes = PassSeries::default();
    // Every round edits, runs three companion passes (a companion pass
    // is short) and restarts once; alternate rounds take a set-up
    // sample or a `global_merge`, so that each series spans the whole
    // run.
    let n = rounds(args.seconds, 6);
    for r in 0..n {
        if r % 2 == 1 {
            session.setup_sample(run)?;
        }
        session.edits(run, d.edits.len() / n)?;
        if r % 2 == 0 {
            session.global_merge(run)?;
        }
        for _ in 0..3 {
            passes.round(&comp.sources, args.seed, &mut run.errors)?;
        }
        restarts.one(run)?;
    }
    let s = session.finish(run)?;
    let r = restarts.finish(run)?;
    run.attempted += passes.pass_s.len() as u64;
    m.insert("setup_s", (median(&s.setup_s), "s"));
    m.insert("peak_rss_mb", (s.peak_rss_mb, "MB"));
    m.insert("bytes_saved", (s.bytes_saved as f64, "bytes"));
    m.insert("pass_s", (median(&passes.pass_s), "s"));
    c.insert("bytes_saved", passes.bytes_saved);
    c.insert("merges_committed", passes.merges_committed);
    daemon_figures(m, c, &s, &r)?;
    latency(m, "fn_query_p50_ms", "fn_query_tail_ms", &s.fn_query_ms)?;
    if run.tracer.is_some() {
        probe::pass_layers(run, &comp.sources)?;
        probe::corpus_layers(run, &d.sources, &d.edits)?;
    }
    Ok(())
}

/// `restart`'s corpus files and its seeded single-function query batch.
fn restart_inputs(dir: &Path, seed: u64) -> (Vec<Source>, Vec<(String, String)>) {
    let names = numbered("r", RESTART_CORPUS.0);
    let specs = corpus_specs(seed, "r", RESTART_CORPUS.0, RESTART_CORPUS.1);
    let sources = write_modules(&dir.join("r"), &specs, Some(&names));
    let parsed: Vec<_> = sources
        .iter()
        .map(|s| (s.name.clone(), inputs::parse(s)))
        .collect();
    let targets = inputs::fn_targets(&parsed, 60, seed);
    (sources, targets)
}

fn restart(
    run: &mut Run,
    args: &Args,
    dir: &Path,
    m: &mut Metrics,
    c: &mut Counts,
) -> Result<(), String> {
    let (sources, targets) = restart_inputs(dir, args.seed);
    let snapshot = dir.join("r.f3msnap");
    // Set-up is ingest plus snapshot save; its later samples save to a
    // scratch file.
    let (mut setup_s, reference) = reference_corpus(run, &sources, &snapshot, 1)?;
    let mut restarts = Restarts::new(run, &snapshot, &reference, &targets, Restore::HalfPool, dir)?;
    let comp = CorpusInputs::companion(dir);
    let plan = comp.plan();
    let mut session = Session::start(run, &plan)?;
    let mut passes = PassSeries::default();
    let n = rounds(args.seconds, 4);
    for r in 0..n {
        if r > 0 && r + 1 < n {
            setup_s.extend(reference_corpus(run, &sources, &dir.join("setup.f3msnap"), 1)?.0);
        }
        restarts.one(run)?;
        restarts.one(run)?;
        // A companion cold sweep is short: two more samples per round.
        for _ in 0..2 {
            session.setup_sample(run)?;
        }
        session.edits(run, comp.edits.len() / n)?;
        session.global_merge(run)?;
        passes.round(&comp.sources, args.seed, &mut run.errors)?;
    }
    let s = session.finish(run)?;
    let r = restarts.finish(run)?;
    run.attempted += passes.pass_s.len() as u64;
    m.insert("setup_s", (median(&setup_s), "s"));
    m.insert("peak_rss_mb", (median(&r.peak_rss_mb), "MB"));
    m.insert("pass_s", (median(&passes.pass_s), "s"));
    m.insert("bytes_saved", (passes.bytes_saved as f64, "bytes"));
    c.insert("bytes_saved", passes.bytes_saved);
    c.insert("merges_committed", passes.merges_committed);
    daemon_figures(m, c, &s, &r)?;
    latency(m, "fn_query_p50_ms", "fn_query_tail_ms", &r.fn_query_ms)?;
    if run.tracer.is_some() {
        probe::pass_layers(run, &comp.sources)?;
        probe::corpus_layers(run, &comp.sources, &comp.edits)?;
    }
    Ok(())
}

/// `perfbench reference <seed>`: the README's reference figures. HyFM
/// against static F3M on `pass-suite`'s inputs, and the three restore
/// modes on `restart`'s, five restarted daemons each.
fn reference(seed: u64) -> Result<(), String> {
    let dir = PathBuf::from(".bench_out").join(format!("reference-{seed}-{}", std::process::id()));
    let result = reference_in(seed, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn reference_in(seed: u64, dir: &Path) -> Result<(), String> {
    let mut run = Run {
        seed,
        tracer: None,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        layer: BTreeMap::new(),
    };
    let suite = write_modules(&dir.join("suite"), &inputs::suite_specs(seed), None);
    for strategy in ["f3m", "hyfm"] {
        let p = pass::run(&suite, seed, strategy, true, &mut run.errors)?;
        println!(
            "pass-suite {strategy}: pass_s {:.3} bytes_saved {} merges_committed {} peak_rss_mb {:.1}",
            p.pass_s, p.bytes_saved, p.merges_committed, p.peak_rss_mb
        );
    }
    let (sources, targets) = restart_inputs(dir, seed);
    let snapshot = dir.join("r.f3msnap");
    let (_, reference) = reference_corpus(&mut run, &sources, &snapshot, 1)?;
    let modes = [
        ("half-pool", Restore::HalfPool),
        ("unbudgeted", Restore::Unbudgeted),
        ("bulk", Restore::Bulk),
    ];
    for (label, mode) in modes {
        let mut restarts = Restarts::new(&mut run, &snapshot, &reference, &targets, mode, dir)?;
        for _ in 0..5 {
            restarts.one(&mut run)?;
        }
        let r = restarts.finish(&mut run)?;
        println!(
            "restart {label}: restore_ms {:.1} peak_rss_mb {:.1} fn_query_p50_ms {:.3} shard_faults {} shard_spills {}",
            median(&r.restore_ms),
            median(&r.peak_rss_mb),
            median(&r.fn_query_ms),
            r.shard_faults,
            r.shard_spills
        );
    }
    match run.errors.first() {
        None => Ok(()),
        Some(e) => Err(format!("reference run failed a check: {e}")),
    }
}

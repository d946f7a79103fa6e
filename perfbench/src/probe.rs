//! The traced run's in-process layer probes and its report.
//!
//! Spans are recorded here, in the benchmark's own code, around the
//! public calls into each layer. The pass is timed through a serial
//! replica of `run_pass`'s wave loop built from the same public calls;
//! its merged modules must match `run_pass`'s byte for byte.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use f3m::core::align::AlignScratch;
use f3m::core::block_pairing::{function_parts, plan_blocks_with, BlockPartsCache};
use f3m::core::codegen::{build_merged, MergeConfig};
use f3m::core::commit::{fixed_overhead, Committer};
use f3m::core::corpus::Corpus;
use f3m::core::pass::{run_pass, PassConfig, Strategy};
use f3m::core::rank::{build_search, QueryCounters, SearchScratch};
use f3m::fingerprint::MergeParams;
use f3m::ir::ids::FuncId;
use f3m::ir::module::Module;
use f3m::serve::protocol::{parse_request, render_request, render_response};
use f3m::serve::{Request, RequestEnvelope, Response};
use f3m::trace::Tracer;

use crate::inputs::{Edit, Source};
use crate::session::{corpus_config, Run, K};
use crate::util::{median, ms_since, span, LayerTable};
use crate::Args;

/// Work counters of one replica pass.
#[derive(Default)]
struct ReplicaCounts {
    queries: u64,
    examined: u64,
    returned: u64,
    evicted: u64,
    aligned: u64,
    cells: u64,
    codegens: u64,
    /// Milliseconds of standalone codegen for pairs the commit then
    /// rejected for size.
    rejected_size_ms: f64,
    committed: u64,
    rejects_size: u64,
    rejects_verify: u64,
}

/// `run_pass`'s wave loop at one job, with a span around each public
/// call: `build_search` (fingerprint), `best_candidates` (rank),
/// `plan_blocks_with` (align), `build_merged` (codegen, called once
/// more on its own, since `try_commit` calls it internally) and
/// `try_commit` (commit).
fn replica_pass(m: &mut Module, t: Option<&Tracer>, c: &mut ReplicaCounts) {
    let funcs: Vec<FuncId> = m
        .defined_functions()
        .into_iter()
        .filter(|&f| m.function(f).num_linked_insts() > 0)
        .collect();
    let n = funcs.len();
    let mut search = {
        let _s = span(t, "fingerprint", "build_search");
        build_search(m, &funcs, &Strategy::F3m(MergeParams::static_default()), 1)
    };
    let mut committer = Committer::build(m, 1);
    let mut parts = BlockPartsCache::build(m, &funcs, 1);
    let mut available = vec![true; n];
    let mut processed = vec![false; n];
    let mut align_scratch = AlignScratch::new();
    let mut search_scratch = SearchScratch::new();
    loop {
        let members: Vec<usize> = (0..n).filter(|&i| available[i] && !processed[i]).collect();
        if members.is_empty() {
            break;
        }
        // Speculative phase against the wave-entry availability.
        let mut outcomes = Vec::with_capacity(members.len());
        for &i in &members {
            let mut counters = QueryCounters::default();
            let best = {
                let _s = span(t, "rank", "best_candidates");
                search
                    .best_candidates(i, &available, &mut counters, &mut search_scratch)
                    .choose(None, |idx| funcs[idx])
            };
            c.queries += 1;
            c.examined += counters.examined;
            c.returned += counters.returned;
            c.evicted += counters.evicted;
            let plan = best.map(|(j, _)| {
                let (rebuilt1, rebuilt2);
                let p1 = match parts.get(i) {
                    Some(p) => p,
                    None => {
                        rebuilt1 = function_parts(m.function(funcs[i]));
                        &rebuilt1
                    }
                };
                let p2 = match parts.get(j) {
                    Some(p) => p,
                    None => {
                        rebuilt2 = function_parts(m.function(funcs[j]));
                        &rebuilt2
                    }
                };
                let before = align_scratch.stats().cells;
                let plan = {
                    let _s = span(t, "align", "plan_blocks_with");
                    plan_blocks_with(m, funcs[i], funcs[j], p1, p2, &mut align_scratch)
                };
                c.aligned += 1;
                c.cells += align_scratch.stats().cells - before;
                plan
            });
            outcomes.push((i, best, plan));
        }
        // Serial commit walk in index order.
        for (i, best, plan) in outcomes {
            let Some((j, _)) = best else {
                processed[i] = true;
                continue;
            };
            if !available[i] {
                processed[i] = true;
                continue;
            }
            if !available[j] {
                continue;
            }
            let plan = plan.expect("aligned pair has a plan");
            let (f1, f2) = (funcs[i], funcs[j]);
            processed[i] = true;
            let fixed = fixed_overhead(committer.droppable(m, f1), committer.droppable(m, f2));
            if plan.matched_insts() == 0 || plan.estimated_savings(fixed) <= 0 {
                continue;
            }
            let cg = Instant::now();
            {
                let _s = span(t, "codegen", "build_merged");
                let built = build_merged(
                    m,
                    f1,
                    f2,
                    &plan,
                    MergeConfig::default(),
                    m.fresh_name("__merged"),
                );
                std::hint::black_box(built.is_ok());
            }
            let cg_ms = cg.elapsed().as_secs_f64() * 1e3;
            c.codegens += 1;
            let size_rejects = committer.rejects().size;
            let outcome = {
                let _s = span(t, "commit", "try_commit");
                committer.try_commit(m, f1, f2, &plan, MergeConfig::default())
            };
            if committer.rejects().size > size_rejects {
                c.rejected_size_ms += cg_ms;
            }
            if outcome.is_some() {
                c.committed += 1;
                search.invalidate(i);
                search.invalidate(j);
                parts.invalidate(i);
                parts.invalidate(j);
                available[i] = false;
                available[j] = false;
            }
        }
    }
    c.rejects_size += committer.rejects().size;
    c.rejects_verify += committer.rejects().verify;
}

/// Traced-run probe of the pass layers over `sources`: `ir` (parse,
/// print, verify), then the replica pass, timed against `run_pass` at one
/// job with no tracer (the tracing overhead).
pub fn pass_layers(run: &mut Run, sources: &[Source]) -> Result<(), String> {
    let t = run.tracer.expect("probes run only when traced");
    let mut modules = Vec::new();
    for s in sources {
        let m = run.parse(&s.text)?;
        {
            let _s = t.span("ir", "verify_module");
            f3m::ir::verify::verify_module(&m).map_err(|e| format!("{e:?}"))?;
        }
        {
            let _s = t.span("ir", "print_module");
            std::hint::black_box(f3m::ir::printer::print_module(&m).len());
        }
        modules.push(m);
    }
    run.layer
        .insert("fingerprint.functions", eligible_functions(&modules) as f64);

    // Per module: `run_pass` at one job gives the reference output, then
    // the replica runs untraced and traced back to back, so that both
    // see the same machine; all three must produce the same module.
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let mut c = ReplicaCounts::default();
    for m in &modules {
        let mut reference = m.clone();
        run_pass(&mut reference, &PassConfig::f3m().with_jobs(1));
        let mut plain = m.clone();
        let t0 = Instant::now();
        replica_pass(&mut plain, None, &mut ReplicaCounts::default());
        untraced_ms += ms_since(t0);
        let mut traced = m.clone();
        let t1 = Instant::now();
        replica_pass(&mut traced, Some(t), &mut c);
        traced_ms += ms_since(t1);
        let text = f3m::ir::printer::print_module(&traced);
        let same = f3m::ir::printer::print_module(&reference) == text
            && f3m::ir::printer::print_module(&plain) == text;
        run.check(same, || {
            format!("{}: the replica pass diverges from run_pass", m.name)
        });
    }
    let per = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    let l = &mut run.layer;
    l.insert(
        "trace.overhead_pct",
        100.0 * (traced_ms - untraced_ms) / untraced_ms,
    );
    l.insert(
        "rank.candidates_examined_per_query",
        per(c.examined, c.queries),
    );
    l.insert("rank.bucket_evictions_per_query", per(c.evicted, c.queries));
    l.insert("rank.returned_over_examined", per(c.returned, c.examined));
    l.insert("align.cells_per_pair", per(c.cells, c.aligned));
    l.insert("codegen.rejected_size_ms", c.rejected_size_ms);
    l.insert(
        "codegen.committed_over_attempted",
        per(c.committed, c.codegens),
    );
    l.insert("commit.rejects_size", c.rejects_size as f64);
    l.insert("commit.rejects_verify", c.rejects_verify as f64);
    Ok(())
}

/// Merge-eligible functions across `modules`.
fn eligible_functions(modules: &[Module]) -> usize {
    modules
        .iter()
        .map(|m| {
            m.defined_functions()
                .into_iter()
                .filter(|&f| m.function(f).num_linked_insts() > 0)
                .count()
        })
        .sum()
}

/// Traced-run probe of the corpus layer: a fresh in-process corpus over
/// `sources` takes the ingest, a cold and a warm sweep, and the edit
/// sequence, each edit followed by a query of its module.
pub fn corpus_layers(run: &mut Run, sources: &[Source], edits: &[Edit]) -> Result<(), String> {
    let t = run.tracer.expect("probes run only when traced");
    let corpus = Corpus::new(corpus_config());
    let mut functions = 0usize;
    for s in sources {
        let m = crate::inputs::parse(s);
        let _s = t.span("corpus", "ingest");
        functions += corpus.ingest(m)?.functions;
    }
    for call in ["query_module_cold", "query_module_warm"] {
        for s in sources {
            let _s = t.span("corpus", call);
            corpus.query_module(&s.name, K)?;
        }
    }
    let mut invalidated = 0u64;
    let mut fn_ms = Vec::new();
    for e in edits {
        let up = {
            let _s = t.span("corpus", "update_function");
            corpus.update_function(&e.module, &e.dst, Some(&e.patch))?
        };
        invalidated += up.funcs_invalidated;
        // The same call the daemon answers right after each update: the
        // edited function, ranked afresh.
        let t0 = Instant::now();
        {
            let _s = t.span("corpus", "query_function_after_update");
            corpus.query_function(&e.module, &e.dst, K)?;
        }
        fn_ms.push(ms_since(t0));
        let _s = t.span("corpus", "query_module_after_update");
        corpus.query_module(&e.module, K)?;
    }
    let stats = {
        let _s = t.span("corpus", "stats");
        corpus.stats()
    };
    let l = &mut run.layer;
    l.insert("corpus.functions", functions as f64);
    l.insert(
        "corpus.funcs_invalidated_per_update",
        invalidated as f64 / edits.len().max(1) as f64,
    );
    let lookups = stats.memo_hits + stats.memo_misses;
    l.insert(
        "corpus.memo_hit_ratio",
        stats.memo_hits as f64 / lookups.max(1) as f64,
    );

    // Client round trip minus the in-process time of the same call.
    if let Some(rt) = run.layer.get("serve.fn_round_trip_ms").copied() {
        run.layer
            .insert("serve.overhead_us_per_request", (rt - median(&fn_ms)) * 1e3);
    }

    // Protocol cost in process: parse a rendered request, render a
    // response, for single-function queries of the edited functions.
    let mut parse_us = Vec::new();
    let mut render_us = Vec::new();
    for e in edits.iter().take(sources.len()) {
        let env = RequestEnvelope::of(Request::Query {
            module: e.module.clone(),
            func: Some(e.dst.clone()),
            k: K,
            if_epoch: None,
        });
        let text = render_request(&env);
        let (epoch, result) = corpus.query_function(&e.module, &e.dst, K)?;
        let resp = Response::Candidates {
            epoch,
            results: vec![result],
        };
        for _ in 0..200 {
            let t0 = Instant::now();
            let parsed = {
                let _s = t.span("serve", "parse_request");
                parse_request(text.as_bytes())?
            };
            parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(parsed);
            let t1 = Instant::now();
            let out = {
                let _s = t.span("serve", "render_response");
                render_response(None, &resp)
            };
            render_us.push(t1.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(out.len());
        }
    }
    run.layer
        .insert("serve.parse_request_us", median(&parse_us));
    run.layer
        .insert("serve.render_response_us", median(&render_us));
    Ok(())
}

/// Per-layer metrics of a traced run, from its spans and the figures
/// the phases gathered; writes the Chrome trace and the self-time table
/// under `.bench_out/`.
pub fn report(
    t: &Tracer,
    run: &Run,
    args: &Args,
    out_dir: &Path,
    started: Instant,
) -> Result<BTreeMap<String, (f64, &'static str)>, String> {
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    let table = LayerTable::from_tracer(t);
    let stem = out_dir
        .parent()
        .unwrap_or(Path::new("."))
        .join(format!("trace-{}-{}", args.workload, args.seed));
    std::fs::write(stem.with_extension("json"), t.to_chrome_json())
        .map_err(|e| format!("write trace: {e}"))?;
    std::fs::write(stem.with_extension("txt"), table.render(total_ms))
        .map_err(|e| format!("write layer table: {e}"))?;

    let l = &run.layer;
    let get = |k: &str| l.get(k).copied().unwrap_or(0.0);
    let ms = |k: &str| table.call(k).1;
    let mean_us = |k: &str| {
        let (n, ms) = table.call(k);
        if n == 0 {
            0.0
        } else {
            1e3 * ms / n as f64
        }
    };
    let mean_ms = |k: &str| mean_us(k) / 1e3;
    let mut out: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut put = |k: &str, v: f64, unit: &'static str| {
        out.insert(k.to_string(), (v, unit));
    };
    put("ir.parse_ms", ms("ir.parse_module"), "ms");
    put(
        "ir.parse_mb_per_s",
        get("ir.bytes") / 1e6 / (ms("ir.parse_module") / 1e3).max(1e-9),
        "MB/s",
    );
    put("ir.print_ms", ms("ir.print_module"), "ms");
    put("ir.verify_ms", ms("ir.verify_module"), "ms");
    put("fingerprint.build_ms", ms("fingerprint.build_search"), "ms");
    put(
        "fingerprint.us_per_fn",
        1e3 * ms("fingerprint.build_search") / get("fingerprint.functions").max(1.0),
        "us",
    );
    put("rank.us_per_query", mean_us("rank.best_candidates"), "us");
    put(
        "rank.candidates_examined_per_query",
        get("rank.candidates_examined_per_query"),
        "count",
    );
    put(
        "rank.bucket_evictions_per_query",
        get("rank.bucket_evictions_per_query"),
        "count",
    );
    put(
        "rank.returned_over_examined",
        get("rank.returned_over_examined"),
        "ratio",
    );
    put("align.us_per_pair", mean_us("align.plan_blocks_with"), "us");
    put("align.cells_per_pair", get("align.cells_per_pair"), "count");
    put("codegen.us_per_pair", mean_us("codegen.build_merged"), "us");
    put(
        "codegen.rejected_size_ms",
        get("codegen.rejected_size_ms"),
        "ms",
    );
    put(
        "codegen.committed_over_attempted",
        get("codegen.committed_over_attempted"),
        "ratio",
    );
    put("commit.us_per_commit", mean_us("commit.try_commit"), "us");
    put("commit.rejects_size", get("commit.rejects_size"), "count");
    put(
        "commit.rejects_verify",
        get("commit.rejects_verify"),
        "count",
    );
    put(
        "corpus.ingest_ms_per_module",
        mean_ms("corpus.ingest"),
        "ms",
    );
    let funcs = get("corpus.functions").max(1.0);
    put(
        "corpus.cold_query_us_per_fn",
        1e3 * ms("corpus.query_module_cold") / funcs,
        "us",
    );
    put(
        "corpus.warm_query_us_per_fn",
        1e3 * ms("corpus.query_module_warm") / funcs,
        "us",
    );
    put("corpus.update_ms", mean_ms("corpus.update_function"), "ms");
    put(
        "corpus.funcs_invalidated_per_update",
        get("corpus.funcs_invalidated_per_update"),
        "count",
    );
    put(
        "corpus.memo_hit_ratio",
        get("corpus.memo_hit_ratio"),
        "ratio",
    );
    put("global.plan_s", ms("global.run") / 1e3, "s");
    put(
        "global.verified_merges",
        get("global.verified_merges"),
        "count",
    );
    put("global.rolled_back", get("global.rolled_back"), "count");
    put(
        "global.differential_probes",
        get("global.differential_probes"),
        "count",
    );
    put("interp.observe_ms", mean_ms("interp.observe"), "ms");
    put("snapshot.save_ms", mean_ms("snapshot.save_snapshot"), "ms");
    put(
        "snapshot.open_meta_ms",
        mean_ms("snapshot.open_snapshot_meta"),
        "ms",
    );
    put(
        "snapshot.load_resident_ms",
        mean_ms("snapshot.load_snapshot_resident"),
        "ms",
    );
    put("snapshot.bytes", get("snapshot.bytes"), "bytes");
    put(
        "resident.shard_faults_per_query",
        get("resident.shard_faults_per_query"),
        "count",
    );
    put(
        "resident.shard_spills_per_query",
        get("resident.shard_spills_per_query"),
        "count",
    );
    put(
        "resident.resident_bytes",
        get("resident.resident_bytes"),
        "bytes",
    );
    put("serve.ping_us", get("serve.ping_us"), "us");
    put(
        "serve.overhead_us_per_request",
        get("serve.overhead_us_per_request"),
        "us",
    );
    put(
        "serve.parse_request_us",
        get("serve.parse_request_us"),
        "us",
    );
    put(
        "serve.render_response_us",
        get("serve.render_response_us"),
        "us",
    );
    put(
        "serve.response_bytes_per_module_query",
        get("serve.response_bytes_per_module_query"),
        "bytes",
    );
    put("trace.overhead_pct", get("trace.overhead_pct"), "%");
    let span_ms: f64 = table.self_ms.values().sum();
    put("trace.span_share_pct", 100.0 * span_ms / total_ms, "%");
    for (layer, ms) in &table.self_ms {
        eprintln!(
            "layer {layer}: {ms:.1} ms self, {:.1} % of the run",
            100.0 * ms / total_ms
        );
    }
    Ok(out)
}

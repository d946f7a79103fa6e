//! The daemon phases: a resident daemon under a seeded closed-loop
//! edit sequence, and fresh daemons restored from its snapshot. Each
//! phase checks the daemon's answers against a corpus built fresh, in
//! this process, from the same sources.

use std::path::{Path, PathBuf};
use std::time::Instant;

use f3m::core::corpus::{Corpus, CorpusConfig, QueryResult};
use f3m::core::global::{GlobalMergePlanner, GlobalPlanConfig};
use f3m::fingerprint::{BackendKind, MergeParams, PagerKind};
use f3m::ir::module::Module;
use f3m::serve::Request;
use f3m::trace::{Json, Tracer};

use crate::daemon::{Answer, Daemon};
use crate::inputs::{Edit, Source};
use crate::pass::{differential, driver_args};
use crate::util::{median, ms_since, span};

/// Candidates per query.
pub const K: usize = 5;

/// The corpus configuration `f3m serve --jobs 2` uses by default, so
/// in-process reference corpora rank exactly as the daemon does.
pub fn corpus_config() -> CorpusConfig {
    CorpusConfig {
        params: MergeParams::static_default()
            .with_backend(BackendKind::MinHash)
            .with_probes(0),
        shards: f3m::serve::ServeConfig::default().shards,
        jobs: crate::daemon::JOBS,
    }
}

/// Operation counts, check failures and traced-run figures shared by
/// every phase of one run.
pub struct Run<'t> {
    pub seed: u64,
    pub tracer: Option<&'t Tracer>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Per-layer figures gathered outside spans (traced run only).
    pub layer: std::collections::BTreeMap<&'static str, f64>,
}

impl Run<'_> {
    /// Sends `req`, counting it; a failed response is counted and
    /// returned as `None`.
    pub fn call(&mut self, d: &mut Daemon, req: Request) -> Result<Option<Answer>, String> {
        self.attempted += 1;
        let _s = span(self.tracer, "serve", "round_trip");
        let a = d.call(req)?;
        if a.ok {
            Ok(Some(a))
        } else {
            self.failed += 1;
            eprintln!("failed operation: {}", a.raw);
            Ok(None)
        }
    }

    /// Parses IR text; the traced run spans the call and counts the
    /// bytes for `ir.parse_mb_per_s`.
    pub fn parse(&mut self, text: &str) -> Result<Module, String> {
        if self.tracer.is_some() {
            *self.layer.entry("ir.bytes").or_insert(0.0) += text.len() as f64;
        }
        let _s = span(self.tracer, "ir", "parse_module");
        f3m::ir::parser::parse_module(text).map_err(|e| e.to_string())
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.errors.push(msg);
        }
    }
}

/// A candidate list as the daemon rendered it: `(func, [(cand, sim)])`.
type Ranked = Vec<(String, Vec<(String, f64)>)>;

fn ranked_from_json(v: &Json) -> Ranked {
    v.get("results")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|r| {
            let func = r
                .get("func")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let cands = r
                .get("candidates")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|c| {
                    (
                        c.get("func")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        c.get("similarity")
                            .and_then(Json::as_f64)
                            .unwrap_or(f64::NAN),
                    )
                })
                .collect();
            (func, cands)
        })
        .collect()
}

fn ranked_from_results(results: &[QueryResult]) -> Ranked {
    results
        .iter()
        .map(|r| {
            (
                r.func.clone(),
                r.candidates
                    .iter()
                    .map(|c| (c.func.clone(), c.similarity))
                    .collect(),
            )
        })
        .collect()
}

/// Shape checks every answer must pass: at most `K` candidates, never
/// the queried function, similarity descending with name ascending on
/// ties.
fn check_shape(run: &mut Run, ranked: &Ranked) {
    for (func, cands) in ranked {
        run.check(cands.len() <= K, || {
            format!("{func}: {} candidates > k={K}", cands.len())
        });
        run.check(cands.iter().all(|(c, _)| c != func), || {
            format!("{func} is its own candidate")
        });
        let ordered = cands
            .windows(2)
            .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
        run.check(ordered, || {
            format!("{func}: candidates out of order: {cands:?}")
        });
    }
}

/// `module`'s candidates (`func` absent) or one function's.
fn query(module: &str, func: Option<&str>) -> Request {
    Request::Query {
        module: module.to_string(),
        func: func.map(str::to_string),
        k: K,
        if_epoch: None,
    }
}

/// What the resident-daemon phase measured.
pub struct SessionOut {
    /// Seconds from daemon spawn until the last module is ingested, one
    /// sample per set-up.
    pub setup_s: Vec<f64>,
    /// Seconds to query every module once after ingest, one sample per
    /// set-up.
    pub cold_sweep_s: Vec<f64>,
    pub update_ms: Vec<f64>,
    pub module_query_ms: Vec<f64>,
    pub fn_query_ms: Vec<f64>,
    pub global_merge_s: Vec<f64>,
    pub bytes_saved: u64,
    pub verified_merges: u64,
    pub peak_rss_mb: f64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub funcs_invalidated: u64,
}

/// The resident-daemon phase's inputs.
pub struct SessionPlan<'a> {
    pub sources: &'a [Source],
    pub edits: &'a [Edit],
}

/// One closed-loop TCP connection to the resident daemon, driven in
/// slices so that a workload can spread each kind of sample over its
/// whole run: set-ups (spawn, ingest, cold sweep), blocks of edits
/// (update, then queries of the edited function and its module) and
/// `global_merge` requests. [`Session::finish`] ends with the checks.
pub struct Session<'p> {
    plan: &'p SessionPlan<'p>,
    daemon: Daemon,
    out: SessionOut,
    next_edit: usize,
    /// The last `global_merge` report and whether an edit followed it.
    last_report: Option<Json>,
    report_stale: bool,
    module_query_bytes: usize,
}

/// Spawns a daemon, ingests every module and sweeps it cold; returns
/// the daemon with the set-up and sweep seconds.
fn setup(run: &mut Run, plan: &SessionPlan) -> Result<(Daemon, f64, f64), String> {
    let mut d = Daemon::spawn(None, None)?;
    for src in plan.sources {
        let ir = std::fs::read_to_string(&src.path).map_err(|e| format!("read input: {e}"))?;
        run.call(&mut d, Request::Ingest { name: None, ir })?;
    }
    let setup_s = d.spawned.elapsed().as_secs_f64();
    let t = Instant::now();
    for src in plan.sources {
        if let Some(a) = run.call(&mut d, query(&src.name, None))? {
            check_shape(run, &ranked_from_json(&a.json));
        }
    }
    Ok((d, setup_s, t.elapsed().as_secs_f64()))
}

impl<'p> Session<'p> {
    /// Starts the daemon that serves the whole sequence (the first
    /// set-up sample).
    pub fn start(run: &mut Run, plan: &'p SessionPlan<'p>) -> Result<Session<'p>, String> {
        let (daemon, setup_s, cold_s) = setup(run, plan)?;
        Ok(Session {
            plan,
            daemon,
            out: SessionOut {
                setup_s: vec![setup_s],
                cold_sweep_s: vec![cold_s],
                update_ms: Vec::new(),
                module_query_ms: Vec::new(),
                fn_query_ms: Vec::new(),
                global_merge_s: Vec::new(),
                bytes_saved: 0,
                verified_merges: 0,
                peak_rss_mb: 0.0,
                memo_hits: 0,
                memo_misses: 0,
                funcs_invalidated: 0,
            },
            next_edit: 0,
            last_report: None,
            report_stale: false,
            module_query_bytes: 0,
        })
    }

    /// One more set-up sample, on a daemon of its own.
    pub fn setup_sample(&mut self, run: &mut Run) -> Result<(), String> {
        let (d, setup_s, cold_s) = setup(run, self.plan)?;
        d.shutdown()?;
        self.out.setup_s.push(setup_s);
        self.out.cold_sweep_s.push(cold_s);
        Ok(())
    }

    /// The next `n` edits of the sequence.
    pub fn edits(&mut self, run: &mut Run, n: usize) -> Result<(), String> {
        let end = (self.next_edit + n).min(self.plan.edits.len());
        for e in &self.plan.edits[self.next_edit..end] {
            let req = Request::Update {
                module: e.module.clone(),
                func: e.dst.clone(),
                ir: Some(e.patch.clone()),
            };
            if let Some(a) = run.call(&mut self.daemon, req)? {
                self.out.update_ms.push(a.ms);
                let changed = a.json.get("changed").and_then(Json::as_bool);
                run.check(changed == Some(true), || {
                    format!("update {}.{} changed nothing", e.module, e.dst)
                });
            }
            // The edited function first: its memoized rank was just
            // invalidated, so the daemon ranks it afresh. dst now has
            // src's body, identical apart from the name: src is listed
            // at similarity 1.0, unless k other exact clones out-rank it
            // by name.
            let dst = format!("{}.{}", e.module, e.dst);
            let src = format!("{}.{}", e.module, e.src);
            let mut fn_answer = None;
            if let Some(a) = run.call(&mut self.daemon, query(&e.module, Some(&e.dst)))? {
                self.out.fn_query_ms.push(a.ms);
                let ranked = ranked_from_json(&a.json);
                check_shape(run, &ranked);
                let hit = ranked.first().is_some_and(|(f, c)| {
                    *f == dst
                        && (c.iter().any(|(n, s)| *n == src && *s == 1.0)
                            || (c.len() == K && c.iter().all(|(_, s)| *s == 1.0)))
                });
                run.check(hit, || {
                    format!("{dst} does not list its clone {src} at similarity 1.0")
                });
                fn_answer = ranked.into_iter().next();
            }
            if let Some(a) = run.call(&mut self.daemon, query(&e.module, None))? {
                self.out.module_query_ms.push(a.ms);
                self.module_query_bytes += a.raw.len();
                let ranked = ranked_from_json(&a.json);
                check_shape(run, &ranked);
                if let Some(want) = &fn_answer {
                    let same = ranked.iter().find(|(f, _)| *f == dst) == Some(want);
                    run.check(same, || {
                        format!("{dst}: module answer differs from its own")
                    });
                }
            }
        }
        self.report_stale |= end > self.next_edit;
        self.next_edit = end;
        Ok(())
    }

    /// One `global_merge` request over the corpus as it stands.
    pub fn global_merge(&mut self, run: &mut Run) -> Result<(), String> {
        let req = Request::GlobalMerge {
            jobs: Some(crate::daemon::JOBS),
            if_epoch: None,
        };
        if let Some(a) = run.call(&mut self.daemon, req)? {
            self.out.global_merge_s.push(a.ms / 1e3);
            self.last_report = Some(
                a.json
                    .get("report")
                    .cloned()
                    .ok_or("global_merge answered no report")?,
            );
            self.report_stale = false;
        }
        Ok(())
    }

    /// Runs what is left of the sequence (remaining edits, a closing
    /// `global_merge` if an edit followed the last one) and a final
    /// sweep, and checks the answers against a corpus rebuilt from the
    /// final sources.
    pub fn finish(mut self, run: &mut Run) -> Result<SessionOut, String> {
        let plan = self.plan;
        self.edits(run, plan.edits.len())?;
        if self.report_stale || self.last_report.is_none() {
            self.global_merge(run)?;
        }
        let d = &mut self.daemon;
        let mut final_sweep = Vec::new();
        for src in plan.sources {
            if let Some(a) = run.call(d, query(&src.name, None))? {
                final_sweep.push(ranked_from_json(&a.json));
            }
        }
        let stats = run.call(d, Request::Stats)?.ok_or("stats failed")?.json;
        let count = |k: &str| {
            stats
                .get("corpus")
                .and_then(|c| c.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        self.out.memo_hits = count("memo_hits");
        self.out.memo_misses = count("memo_misses");
        self.out.funcs_invalidated = count("funcs_invalidated");
        if run.tracer.is_some() {
            let mut ping_us = Vec::new();
            for _ in 0..200 {
                if let Some(a) = run.call(d, Request::Ping)? {
                    ping_us.push(a.ms * 1e3);
                }
            }
            run.layer.insert("serve.ping_us", median(&ping_us));
            run.layer
                .insert("serve.fn_round_trip_ms", median(&self.out.fn_query_ms));
            let queries = self.out.module_query_ms.len().max(1);
            run.layer.insert(
                "serve.response_bytes_per_module_query",
                self.module_query_bytes as f64 / queries as f64,
            );
        }
        self.out.peak_rss_mb = d.peak_rss_mb()?;
        self.daemon.shutdown()?;

        // Incremental equals rebuild: a fresh corpus over the final
        // sources answers the final sweep identically.
        let mut final_modules: Vec<(String, Module)> = plan
            .sources
            .iter()
            .map(|s| (s.name.clone(), crate::inputs::parse(s)))
            .collect();
        for e in plan.edits {
            let m = &mut final_modules
                .iter_mut()
                .find(|(n, _)| *n == e.module)
                .expect("edited module exists")
                .1;
            crate::inputs::apply_edit(m, e);
        }
        let rebuilt = Corpus::new(corpus_config());
        for (_, m) in &final_modules {
            let _s = span(run.tracer, "corpus", "ingest");
            rebuilt.ingest(m.clone())?;
        }
        for (i, (name, _)) in final_modules.iter().enumerate() {
            let (_, results) = {
                let _s = span(run.tracer, "corpus", "query_module_cold");
                rebuilt.query_module(name, K)?
            };
            let same = final_sweep.get(i) == Some(&ranked_from_results(&results));
            run.check(same, || {
                format!("{name}: incremental answers differ from a rebuild")
            });
        }
        // The global merge: the rebuild plans the same report, and the
        // merged program behaves like the pre-merge combined module.
        let (report, merged, _) = {
            let _s = span(run.tracer, "global", "run");
            GlobalMergePlanner::new(
                &rebuilt,
                GlobalPlanConfig::default().with_jobs(crate::daemon::JOBS),
            )
            .run()?
        };
        let rebuilt_report = f3m::trace::json::parse(&report.to_json())?;
        if let Some(daemon_report) = &self.last_report {
            run.check(*daemon_report == rebuilt_report, || {
                "daemon global_merge report differs from a rebuild's".to_string()
            });
        }
        {
            let _s = span(run.tracer, "ir", "verify_module");
            let verified = f3m::ir::verify::verify_module(&merged);
            run.check(verified.is_ok(), || {
                format!("global merge output fails verification: {verified:?}")
            });
        }
        let combined = rebuilt.combined_module()?;
        let dargs = driver_args(run.seed);
        for (name, _) in &final_modules {
            let d = differential(
                &combined,
                &merged,
                &format!("{name}.__driver"),
                &dargs,
                run.tracer,
            );
            run.check(d.is_ok(), || format!("global merge: {}", d.unwrap_err()));
        }
        self.out.bytes_saved = report.stats.size_before - report.stats.size_after;
        self.out.verified_merges = report.stats.verified_merges;
        run.check(self.out.bytes_saved > 0, || {
            "global merge saved nothing".to_string()
        });
        if run.tracer.is_some() {
            run.layer.insert(
                "global.verified_merges",
                report.stats.verified_merges as f64,
            );
            run.layer
                .insert("global.rolled_back", report.stats.rolled_back as f64);
            run.layer.insert(
                "global.differential_probes",
                report.stats.differential_probes as f64,
            );
        }
        Ok(self.out)
    }
}

/// What the restart phase measured.
pub struct RestartOut {
    pub restore_ms: Vec<f64>,
    pub fn_query_ms: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    pub shard_faults: u64,
    pub shard_spills: u64,
    pub resident_bytes: u64,
}

/// Pool bytes of a snapshot file (signature plus band-key pools).
pub fn pool_bytes(snapshot: &Path) -> Result<u64, String> {
    let meta =
        f3m::fingerprint::snapshot::open_snapshot_meta(snapshot).map_err(|e| e.to_string())?;
    Ok(meta.layout.pool_bytes() as u64)
}

/// How restarted daemons restore their snapshot.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Restore {
    /// Resident store with a budget of half the snapshot's pool bytes
    /// (the benchmark's setting).
    HalfPool,
    /// Resident store, everything mapped, nothing spilled.
    Unbudgeted,
    /// The bulk O(file) read.
    Bulk,
}

/// Fresh daemons restored from one snapshot, each answering the same
/// seeded batch of single-function queries, then shutting down. Answers
/// must equal the `reference` corpus's, from which the snapshot was
/// saved.
pub struct Restarts<'a> {
    snapshot: &'a Path,
    reference: &'a Corpus,
    targets: &'a [(String, String)],
    restore: Restore,
    budget: Option<u64>,
    expected: Vec<Ranked>,
    scratch: &'a Path,
    out: RestartOut,
    per_proc: Vec<(u64, u64)>,
}

impl<'a> Restarts<'a> {
    pub fn new(
        run: &mut Run,
        snapshot: &'a Path,
        reference: &'a Corpus,
        targets: &'a [(String, String)],
        restore: Restore,
        scratch: &'a Path,
    ) -> Result<Restarts<'a>, String> {
        let budget = match restore {
            Restore::HalfPool => Some(pool_bytes(snapshot)? / 2),
            Restore::Unbudgeted => Some(0),
            Restore::Bulk => None,
        };
        let expected = targets
            .iter()
            .map(|(m, f)| {
                let _s = span(run.tracer, "corpus", "query_function");
                reference
                    .query_function(m, f, K)
                    .map(|(_, r)| ranked_from_results(&[r]))
            })
            .collect::<Result<_, _>>()?;
        Ok(Restarts {
            snapshot,
            reference,
            targets,
            restore,
            budget,
            expected,
            scratch,
            out: RestartOut {
                restore_ms: Vec::new(),
                fn_query_ms: Vec::new(),
                peak_rss_mb: Vec::new(),
                shard_faults: 0,
                shard_spills: 0,
                resident_bytes: 0,
            },
            per_proc: Vec::new(),
        })
    }

    /// One restarted daemon: restore, answer the batch, shut down.
    pub fn one(&mut self, run: &mut Run) -> Result<(), String> {
        // Each process restores from a pristine copy: a daemon saves its
        // snapshot again on shutdown.
        let copy: PathBuf = self.scratch.join("restart.f3msnap");
        std::fs::copy(self.snapshot, &copy).map_err(|e| format!("copy snapshot: {e}"))?;
        let mut d = Daemon::spawn(Some(&copy), self.budget)?;
        for (i, (m, f)) in self.targets.iter().enumerate() {
            let req = Request::Query {
                module: m.clone(),
                func: Some(f.clone()),
                k: K,
                if_epoch: None,
            };
            let a = run.call(&mut d, req)?;
            if i == 0 {
                self.out.restore_ms.push(ms_since(d.spawned));
            }
            if let Some(a) = a {
                if i > 0 {
                    self.out.fn_query_ms.push(a.ms);
                }
                let got = ranked_from_json(&a.json);
                check_shape(run, &got);
                run.check(got == self.expected[i], || {
                    format!("restored answer for {m}.{f} differs from a fresh corpus")
                });
            }
        }
        let stats = run
            .call(&mut d, Request::Stats)?
            .ok_or("stats failed")?
            .json;
        let c = |k: &str| {
            stats
                .get("corpus")
                .and_then(|c| c.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        self.per_proc.push((c("shard_faults"), c("shard_spills")));
        self.out.resident_bytes = c("resident_bytes");
        self.out.peak_rss_mb.push(d.peak_rss_mb()?);
        d.shutdown()?;
        let _ = std::fs::remove_file(&copy);
        Ok(())
    }

    /// Checks that every restart did the same paging work, and that the
    /// half-pool budget spilled.
    pub fn finish(mut self, run: &mut Run) -> Result<RestartOut, String> {
        let per_proc = &self.per_proc;
        run.check(per_proc.windows(2).all(|w| w[0] == w[1]), || {
            format!("shard faults/spills differ between identical restarts: {per_proc:?}")
        });
        self.out.shard_faults = per_proc.first().map_or(0, |p| p.0);
        self.out.shard_spills = per_proc.first().map_or(0, |p| p.1);
        if self.restore == Restore::HalfPool {
            run.check(self.out.shard_spills > 0, || {
                "half-pool budget caused no shard spill".to_string()
            });
        }
        if let Some(t) = run.tracer {
            // The snapshot path, in process: save the reference, decode
            // the meta prefix, restore through the resident store.
            let copy = self.scratch.join("probe.f3msnap");
            {
                let _s = t.span("snapshot", "save_snapshot");
                self.reference
                    .save_snapshot(&copy)
                    .map_err(|e| e.to_string())?;
            }
            {
                let _s = t.span("snapshot", "open_snapshot_meta");
                f3m::fingerprint::snapshot::open_snapshot_meta(&copy).map_err(|e| e.to_string())?;
            }
            {
                let _s = t.span("snapshot", "load_snapshot_resident");
                let budget = self.budget.unwrap_or(0);
                Corpus::load_snapshot_resident(&copy, corpus_config(), PagerKind::Auto, budget)
                    .map_err(|e| e.to_string())?;
            }
            let bytes = std::fs::metadata(&copy)
                .map_err(|e| format!("stat snapshot: {e}"))?
                .len();
            let _ = std::fs::remove_file(&copy);
            let queries = self.targets.len() as f64;
            run.layer.insert("snapshot.bytes", bytes as f64);
            run.layer.insert(
                "resident.shard_faults_per_query",
                self.out.shard_faults as f64 / queries,
            );
            run.layer.insert(
                "resident.shard_spills_per_query",
                self.out.shard_spills as f64 / queries,
            );
            run.layer
                .insert("resident.resident_bytes", self.out.resident_bytes as f64);
        }
        Ok(self.out)
    }
}

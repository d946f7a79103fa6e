//! Equivalence property for the incremental recompute engine: after
//! every prefix of a randomized ingest/evict/update/query interleaving,
//! the revision-stamped corpus answers module queries byte-identically
//! to a from-scratch corpus rebuilt from the surviving module sources —
//! and the whole transcript is identical across worker counts. Queries
//! mix k = 1, 5 and 20, so memos computed at one k serve another.

use f3m_core::corpus::{Corpus, CorpusConfig, QueryResult};
use f3m_fingerprint::backend::BackendKind;
use f3m_fingerprint::MergeParams;
use f3m_ir::module::Module;
use f3m_ir::printer::print_module;
use f3m_prng::SmallRng;

fn workload(name: &str, seed: u64) -> Module {
    let mut spec = f3m_workloads::mini_suite()[0].clone();
    spec.functions = 18;
    spec.seed = seed;
    let mut m = f3m_workloads::build_module(&spec);
    m.name = name.to_string();
    m
}

/// Merge-eligible function names of `m`, in defined order.
fn eligible(m: &Module) -> Vec<String> {
    m.defined_functions()
        .into_iter()
        .filter(|&f| m.function(f).num_linked_insts() > 0)
        .map(|f| m.function(f).name.clone())
        .collect()
}

/// IR text of `m` with `dst`'s body replaced by `src`'s.
fn body_swap_patch(m: &Module, dst: &str, src: &str) -> String {
    let mut patched = m.clone();
    let d = patched.lookup_function(dst).unwrap();
    let s = patched.lookup_function(src).unwrap();
    patched.rename_function(d, format!("{dst}__old"));
    patched.rename_function(s, dst.to_string());
    print_module(&patched)
}

/// IR text of `m` with `src` renamed to `fresh` (self-transplant donor
/// for `ingest_function`: same module, so every callee it references is
/// already declared in the splice target).
fn rename_patch(m: &Module, src: &str, fresh: &str) -> String {
    let mut patched = m.clone();
    let s = patched.lookup_function(src).unwrap();
    patched.rename_function(s, fresh.to_string());
    print_module(&patched)
}

/// One mutation of the interleaving, replayable on a twin corpus.
enum Mutation {
    Ingest(Module),
    Evict(String),
    Update { module: String, func: String, ir: Option<String> },
    IngestFunction { module: String, func: String, ir: String },
}

impl Mutation {
    /// Applies the mutation; for an update, returns whether it changed IR.
    fn apply(&self, c: &Corpus) -> bool {
        match self {
            Mutation::Ingest(m) => c.ingest(m.clone()).map(|_| true),
            Mutation::Evict(name) => c.evict(name).map(|_| true),
            Mutation::Update { module, func, ir } => {
                c.update_function(module, func, ir.as_deref()).map(|up| up.changed)
            }
            Mutation::IngestFunction { module, func, ir } => {
                c.ingest_function(module, func, ir).map(|_| true)
            }
        }
        .unwrap()
    }
}

/// What the incremental corpus is checked against after each mutation.
#[derive(Clone, Copy, PartialEq)]
enum Reference {
    None,
    /// A fresh corpus ingesting the surviving module sources.
    Rebuild,
    /// A fresh corpus replaying the same mutations, never queried in
    /// between: unlike a rebuild it assigns the same entry ids, and so
    /// keeps the same order inside each bucket, which a small
    /// `bucket_cap` makes visible.
    Twin,
}

const KS: [usize; 3] = [1, 5, 20];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Ingest,
    Evict,
    Update,
    Touch,
    IngestFunction,
    Query,
}

/// One deterministic interleaving driven by `seed`, applied to a corpus
/// with `jobs` ingest workers under `params`. Returns the transcript of
/// every query result along the way. After each mutation, queries on
/// the live incremental corpus are compared byte-for-byte against the
/// `reference` corpus.
fn run_interleaving(seed: u64, jobs: usize, params: MergeParams, reference: Reference) -> String {
    let cfg = CorpusConfig { params, jobs, ..CorpusConfig::default() };
    let corpus = Corpus::new(cfg.clone());
    let mut log: Vec<Mutation> = Vec::new();
    let mutate = |m: Mutation, log: &mut Vec<Mutation>| {
        let changed = m.apply(&corpus);
        log.push(m);
        changed
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    // Shadow state: live module names in ingest order. Sources are read
    // back through `module_source`, which re-renders exactly what the
    // corpus holds after function-level surgery.
    let mut live: Vec<String> = Vec::new();
    let mut next_module = 0u64;
    let mut next_fresh = 0u64;
    let mut transcript = String::new();

    for step in 0..40 {
        let op = match rng.gen_range(0..10u32) {
            0..=2 if live.len() < 5 => Op::Ingest,
            0..=2 => Op::Update,
            3 if live.len() > 1 => Op::Evict,
            3 => Op::Touch,
            4..=5 => Op::Update,
            6 => Op::Touch,
            7 => Op::IngestFunction,
            _ => Op::Query,
        };
        match op {
            Op::Ingest => {
                let name = format!("m{next_module}");
                next_module += 1;
                mutate(Mutation::Ingest(workload(&name, 100 + next_module)), &mut log);
                live.push(name);
            }
            Op::Evict => {
                let victim = live.remove(rng.gen_range(0..live.len()));
                mutate(Mutation::Evict(victim), &mut log);
            }
            Op::Update | Op::Touch | Op::IngestFunction | Op::Query if live.is_empty() => {
                continue;
            }
            Op::Update => {
                let name = &live[rng.gen_range(0..live.len())];
                let m = f3m_ir::parser::parse_module(&corpus.module_source(name).unwrap())
                    .unwrap();
                let funcs = eligible(&m);
                let dst = &funcs[rng.gen_range(0..funcs.len())];
                // Swap within the family AND only between signature-
                // identical members (some siblings are retyped clones):
                // the module's driver calls must stay valid.
                let Some((fam, _)) = dst.rsplit_once('_') else { continue };
                let sig = |name: &str| {
                    let f = m.function(m.lookup_function(name).unwrap());
                    (f.params.clone(), f.ret_ty)
                };
                let dst_sig = sig(dst);
                let siblings: Vec<&String> = funcs
                    .iter()
                    .filter(|f| {
                        *f != dst
                            && f.rsplit_once('_').map(|(p, _)| p) == Some(fam)
                            && sig(f) == dst_sig
                    })
                    .collect();
                if siblings.is_empty() {
                    continue;
                }
                let src = siblings[rng.gen_range(0..siblings.len())];
                let patch = body_swap_patch(&m, dst, src);
                let update =
                    Mutation::Update { module: name.clone(), func: dst.clone(), ir: Some(patch) };
                let changed = mutate(update, &mut log);
                transcript.push_str(&format!("step {step}: update {name}.{dst} changed={changed}\n"));
            }
            Op::Touch => {
                let name = &live[rng.gen_range(0..live.len())];
                let m = f3m_ir::parser::parse_module(&corpus.module_source(name).unwrap())
                    .unwrap();
                let funcs = eligible(&m);
                let func = &funcs[rng.gen_range(0..funcs.len())];
                let touch = Mutation::Update { module: name.clone(), func: func.clone(), ir: None };
                assert!(!mutate(touch, &mut log), "a touch never changes IR");
            }
            Op::IngestFunction => {
                let name = &live[rng.gen_range(0..live.len())];
                let m = f3m_ir::parser::parse_module(&corpus.module_source(name).unwrap())
                    .unwrap();
                let funcs = eligible(&m);
                let src = &funcs[rng.gen_range(0..funcs.len())];
                let fresh = format!("x{next_fresh}");
                next_fresh += 1;
                let patch = rename_patch(&m, src, &fresh);
                let append =
                    Mutation::IngestFunction { module: name.clone(), func: fresh.clone(), ir: patch };
                mutate(append, &mut log);
                transcript.push_str(&format!("step {step}: ingest_function {name}.{fresh}\n"));
            }
            Op::Query => {
                let name = &live[rng.gen_range(0..live.len())];
                let k = KS[step % KS.len()];
                let (_, results) = corpus.query_module(name, k).unwrap();
                transcript.push_str(&format!("step {step}: query {name} k={k} {results:?}\n"));
            }
        }

        if reference != Reference::None && op != Op::Query {
            let fresh = Corpus::new(cfg.clone());
            if reference == Reference::Rebuild {
                // The surviving state from scratch: every live module's
                // current source, ingested in order.
                for name in &live {
                    let src = corpus.module_source(name).unwrap();
                    fresh.ingest(f3m_ir::parser::parse_module(&src).unwrap()).unwrap();
                }
            } else {
                for m in &log {
                    m.apply(&fresh);
                }
            }
            // Every module query must match byte-for-byte, at a k that
            // rotates so warm memos of one width answer another.
            let k = KS[(step + 1) % KS.len()];
            for name in &live {
                let (_, inc) = corpus.query_module(name, k).unwrap();
                let (_, want) = fresh.query_module(name, k).unwrap();
                assert_eq!(
                    format!("{inc:?}"),
                    format!("{want:?}"),
                    "incremental vs reference diverged on `{name}` after step {step} ({op:?})"
                );
            }
        }
    }

    // The interleaving reused memoized ranks: the equivalence above is
    // only interesting if some queries were actually answered from memo.
    let stats = corpus.stats();
    assert!(stats.memo_hits > 0, "interleaving never exercised the memo layer");
    assert!(stats.funcs_invalidated > 0, "interleaving never invalidated anything");
    transcript
}

#[test]
fn incremental_matches_rebuild_after_every_prefix() {
    for seed in [7, 42] {
        run_interleaving(seed, 1, MergeParams::static_default(), Reference::Rebuild);
    }
}

/// At `bucket_cap = 4` most buckets overflow, so almost every edit moves
/// some third function into or out of a bucket's probe window.
#[test]
fn incremental_matches_an_unqueried_twin_under_a_tight_bucket_cap() {
    for seed in [7, 42] {
        run_interleaving(seed, 1, MergeParams::custom(200, 2, 0.0, 4), Reference::Twin);
    }
}

#[test]
fn interleaving_transcript_is_identical_across_jobs() {
    // The rebuild-equivalence is checked by the test above; here the
    // whole transcript (mutation summaries + every query result) must be
    // byte-identical across ingest worker counts.
    let run = |jobs| run_interleaving(42, jobs, MergeParams::static_default(), Reference::None);
    let (t1, t2, t8) = (run(1), run(2), run(8));
    assert_eq!(t1, t2, "jobs 1 vs 2 transcripts diverged");
    assert_eq!(t1, t8, "jobs 1 vs 8 transcripts diverged");
    assert!(t1.contains("query"), "transcript has no queries");
    assert!(t1.contains("update"), "transcript has no updates");
}

/// Body swaps `fN_0 ← fN_1` between signature-identical family members
/// of `m`, as `(dst, patch)`, at most `n` of them.
fn family_swaps(m: &Module, n: usize) -> Vec<(String, String)> {
    let funcs = eligible(m);
    let sig = |name: &str| {
        let f = m.function(m.lookup_function(name).unwrap());
        (f.params.clone(), f.ret_ty)
    };
    funcs
        .iter()
        .filter_map(|dst| {
            let src = format!("{}_1", dst.strip_suffix("_0")?);
            (funcs.contains(&src) && sig(dst) == sig(&src))
                .then(|| (dst.clone(), body_swap_patch(m, dst, &src)))
        })
        .take(n)
        .collect()
}

/// Ingests four `table1()[0]`-shape modules of `functions` functions,
/// then applies body swaps to both a corpus whose memos are warmed at
/// `k` after every swap and a twin that takes the same swaps with no
/// queries in between, and requires every module query to match. (A
/// twin, not a rebuild from re-rendered sources: an update's re-render
/// can shift other functions' type encodings.)
fn warm_memos_match_an_unqueried_twin(params: MergeParams, functions: usize, k: usize) {
    let cfg = CorpusConfig { params, shards: 4, jobs: 1 };
    let modules: Vec<Module> = (0..4u64)
        .map(|i| {
            let mut spec = f3m_workloads::table1()[0].clone();
            spec.functions = functions;
            spec.seed = 920 + i;
            let mut m = f3m_workloads::build_module(&spec);
            m.name = format!("p{i}");
            m
        })
        .collect();
    let edits: Vec<(&str, String, String)> = modules
        .iter()
        .flat_map(|m| family_swaps(m, 6).into_iter().map(|(d, p)| (m.name.as_str(), d, p)))
        .collect();
    assert!(edits.len() >= 12, "every module offers three swaps");
    let sweep = |c: &Corpus| -> Vec<Vec<QueryResult>> {
        modules.iter().map(|m| c.query_module(&m.name, k).unwrap().1).collect()
    };
    let (warm, twin) = (Corpus::new(cfg.clone()), Corpus::new(cfg));
    for m in &modules {
        warm.ingest(m.clone()).unwrap();
        twin.ingest(m.clone()).unwrap();
    }
    sweep(&warm);
    for (module, dst, patch) in &edits {
        warm.update_function(module, dst, Some(patch)).unwrap();
        twin.update_function(module, dst, Some(patch)).unwrap();
        sweep(&warm);
    }
    assert!(sweep(&warm) == sweep(&twin), "a warm memo went stale");
    assert!(warm.stats().memo_hits > 0, "the memo layer never engaged");
}

/// Multi-probe queriers reach buckets they are not members of through
/// perturbed probe keys, so an edit can change their rankings without
/// touching any bucket they belong to.
#[test]
fn probed_corpus_memos_match_an_unqueried_twin() {
    let params = MergeParams::custom(200, 8, 0.0, 100)
        .with_backend(BackendKind::Embed)
        .with_probes(64);
    warm_memos_match_an_unqueried_twin(params, 150, 5);
}

/// A body swap that moves a function out of (or into) the cap window of
/// a bucket holding more than `bucket_cap` entries also exposes (or
/// hides) a third entry to every probe of that bucket. These configs
/// each go stale when the corpus ignores that entry in one direction.
#[test]
fn crowded_bucket_memos_match_an_unqueried_twin() {
    warm_memos_match_an_unqueried_twin(MergeParams::custom(200, 2, 0.0, 8), 120, 5);
    warm_memos_match_an_unqueried_twin(MergeParams::custom(16, 2, 0.0, 2), 120, 1);
    warm_memos_match_an_unqueried_twin(MergeParams::custom(16, 2, 0.0, 4), 200, 20);
}

/// Queries racing single-function writes at `bucket_cap = 4` must not
/// memoize a ranking that outlives the write it raced: once the writer
/// is done, every module query matches a twin that took the same writes
/// with no queries at all.
#[test]
fn rankings_raced_against_writes_match_an_unqueried_twin() {
    let cfg = CorpusConfig {
        params: MergeParams::custom(200, 2, 0.0, 4),
        jobs: 1,
        ..CorpusConfig::default()
    };
    let modules: Vec<Module> = (0..4u64).map(|i| workload(&format!("r{i}"), 300 + i)).collect();
    let mut writes: Vec<(&str, String, Option<String>)> = Vec::new();
    for m in &modules {
        for (dst, patch) in family_swaps(m, 2) {
            writes.push((&m.name, dst, Some(patch)));
        }
        for func in eligible(m).into_iter().take(6) {
            writes.push((&m.name, func, None));
        }
    }
    let (warm, twin) = (Corpus::new(cfg.clone()), Corpus::new(cfg));
    for m in &modules {
        warm.ingest(m.clone()).unwrap();
        twin.ingest(m.clone()).unwrap();
    }
    let sweep = |c: &Corpus, k: usize| -> Vec<Vec<QueryResult>> {
        modules.iter().map(|m| c.query_module(&m.name, k).unwrap().1).collect()
    };
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        for reader in 0..2 {
            let (warm, done, sweep) = (&warm, &done, &sweep);
            s.spawn(move || {
                let mut i = reader;
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    sweep(warm, KS[i % KS.len()]);
                    i += 1;
                }
            });
        }
        for _ in 0..3 {
            for (module, func, ir) in &writes {
                warm.update_function(module, func, ir.as_deref()).unwrap();
            }
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    for _ in 0..3 {
        for (module, func, ir) in &writes {
            twin.update_function(module, func, ir.as_deref()).unwrap();
        }
    }
    for k in KS {
        assert!(sweep(&warm, k) == sweep(&twin, k), "a raced memo went stale at k = {k}");
    }
    assert!(warm.stats().memo_hits > 0, "the memo layer never engaged");
}

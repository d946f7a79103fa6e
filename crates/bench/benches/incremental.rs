//! `incremental_recompute`: the economics of the revision-stamped
//! corpus. Ingests a multi-module corpus, then measures the latency
//! cliff the memo layer buys:
//!
//! - **cold query** — first `query_module` sweep over every module,
//!   populating the memoized ranks (every ranking is a miss),
//! - **warm query** — the same sweep again, answered from memo,
//! - **update** — one `update_function` body edit,
//! - **post-update query** — the sweep after the edit, which must
//!   recompute exactly the memos the edit dropped: those whose top-k
//!   the changed function can enter or leave (asserted via the corpus
//!   counters, not just timed).
//!
//! Results go to `results/BENCH_incremental.json`; `--smoke` shrinks
//! the corpus for CI, `--full` grows it to paper scale.

use std::time::Instant;

use f3m_core::corpus::{Corpus, CorpusConfig};
use f3m_ir::module::Module;

fn workload(name: &str, seed: u64, functions: usize) -> Module {
    let mut spec = f3m_workloads::mini_suite()[0].clone();
    spec.functions = functions;
    spec.seed = seed;
    let mut m = f3m_workloads::build_module(&spec);
    m.name = name.to_string();
    m
}

/// Two merge-eligible, signature-identical members of one generated
/// family — update fodder whose swap keeps the module verifying.
fn swap_pair(m: &Module) -> (String, String) {
    let eligible: Vec<String> = m
        .defined_functions()
        .into_iter()
        .filter(|&f| m.function(f).num_linked_insts() > 0)
        .map(|f| m.function(f).name.clone())
        .collect();
    let sig = |name: &str| {
        let f = m.function(m.lookup_function(name).unwrap());
        (f.params.clone(), f.ret_ty)
    };
    for a in &eligible {
        if let Some((fam, "0")) = a.rsplit_once('_') {
            let b = format!("{fam}_1");
            if eligible.contains(&b) && sig(a) == sig(&b) {
                return (a.clone(), b);
            }
        }
    }
    panic!("workload has no swappable family pair");
}

/// IR text of `m` with `dst`'s body replaced by `src`'s.
fn body_swap_patch(m: &Module, dst: &str, src: &str) -> String {
    let mut patched = m.clone();
    let d = patched.lookup_function(dst).unwrap();
    let s = patched.lookup_function(src).unwrap();
    patched.rename_function(d, format!("{dst}__old"));
    patched.rename_function(s, dst.to_string());
    f3m_ir::printer::print_module(&patched)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let full = std::env::args().any(|a| a == "--full");
    let (modules, functions_per_module) = if smoke {
        (4, 200)
    } else if full {
        (24, 5000)
    } else {
        (12, 1000)
    };

    let corpus = Corpus::new(CorpusConfig { jobs: 2, ..CorpusConfig::default() });
    let mods: Vec<Module> = (0..modules)
        .map(|i| workload(&format!("m{i}"), 100 + i as u64, functions_per_module))
        .collect();
    let t0 = Instant::now();
    let mut functions = 0u64;
    for m in mods {
        functions += corpus.ingest(m).expect("ingest").functions as u64;
    }
    let ingest_ns = t0.elapsed().as_nanos();

    let sweep = |k: usize| {
        for i in 0..modules {
            corpus.query_module(&format!("m{i}"), k).expect("query");
        }
    };

    let t0 = Instant::now();
    sweep(5);
    let cold_query_ns = t0.elapsed().as_nanos();
    let cold = corpus.stats();
    assert_eq!(cold.memo_hits, 0, "cold sweep must not hit the memo");

    let t0 = Instant::now();
    sweep(5);
    let warm_query_ns = t0.elapsed().as_nanos();
    let warm = corpus.stats();
    assert_eq!(warm.memo_misses, cold.memo_misses, "warm sweep must not recompute");
    assert_eq!(warm.memo_hits, cold.memo_misses, "warm sweep must be all hits");

    // One function edit: swap m0's first family pair bodies.
    let m0 = f3m_ir::parser::parse_module(&corpus.module_source("m0").unwrap()).unwrap();
    let (dst, src) = swap_pair(&m0);
    let t0 = Instant::now();
    let up = corpus.update_function("m0", &dst, Some(&body_swap_patch(&m0, &dst, &src)))
        .expect("update");
    let update_ns = t0.elapsed().as_nanos();
    assert!(up.changed, "the body swap must register as a change");

    let t0 = Instant::now();
    sweep(5);
    let post_update_query_ns = t0.elapsed().as_nanos();
    let post = corpus.stats();

    // O(changed), by counter: the post-update sweep recomputed exactly
    // the memos the edit dropped, a small fraction of the corpus —
    // everything else stayed memoized. (`funcs_invalidated` in stats is
    // cumulative; the update summary carries the edit's own count.)
    let recomputed = post.memo_misses - warm.memo_misses;
    let invalidated = up.funcs_invalidated;
    assert_eq!(
        recomputed, invalidated,
        "post-update sweep must recompute the dirty set, nothing else"
    );
    assert!(invalidated >= 1, "the updated function itself is always dirty");
    assert!(
        invalidated < functions / 2,
        "neighborhood invalidation must stay O(changed): {invalidated} of {functions}"
    );
    let memo_hit_rate = post.memo_hits as f64 / (post.memo_hits + post.memo_misses) as f64;
    assert!(memo_hit_rate > 0.0, "the memo layer never paid off");

    println!(
        "incremental_recompute/functions={functions} cold {:>9.2} ms  warm {:>9.2} ms  \
         update {:>7.2} ms  post-update {:>9.2} ms  dirty {invalidated}/{functions}",
        cold_query_ns as f64 / 1e6,
        warm_query_ns as f64 / 1e6,
        update_ns as f64 / 1e6,
        post_update_query_ns as f64 / 1e6,
    );

    let json = format!(
        "{{\"smoke\":{smoke},\"functions\":{functions},\"modules\":{modules},\
         \"ingest_ns\":{ingest_ns},\"cold_query_ns\":{cold_query_ns},\
         \"warm_query_ns\":{warm_query_ns},\"update_ns\":{update_ns},\
         \"post_update_query_ns\":{post_update_query_ns},\
         \"memo_hits\":{},\"memo_misses\":{},\"funcs_invalidated\":{},\
         \"update_invalidated\":{invalidated},\"memo_hit_rate\":{memo_hit_rate:.6}}}",
        post.memo_hits, post.memo_misses, post.funcs_invalidated,
    );
    let out_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
        .join("BENCH_incremental.json");
    f3m_trace::write_with_dirs(&out_path, &json).expect("write BENCH_incremental.json");
    println!("incremental_recompute: wrote {}", out_path.display());
}

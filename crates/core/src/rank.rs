//! Candidate search behind a strategy seam.
//!
//! The *preprocess* and *rank* stages of the pipeline differ per strategy
//! (HyFM scans opcode-frequency fingerprints exhaustively; F3M queries an
//! LSH index over signature fingerprints) but the driver does not care: it
//! asks a [`CandidateSearch`] for the best available candidates of one
//! function and tells it when a pair leaves the pool. Each implementation
//! owns its fingerprints, its query structure, and its post-commit
//! invalidation, and builds them in parallel across `jobs` threads with
//! deterministic (job-count-independent) results.
//!
//! The LSH search is generic over [fingerprint
//! backends](f3m_fingerprint::backend) — MinHash (default), SimHash, or a
//! TLSH-style hash, per `MergeParams::backend` — and keeps its signatures
//! and band keys in a [`PackedFingerprintStore`] (two contiguous pools
//! indexed by function id) instead of per-function `Vec`s, so the build
//! writes and the probes read cache-linear memory.

use std::sync::Mutex;

use f3m_fingerprint::adaptive::MergeParams;
use f3m_fingerprint::backend::{backend_for, signature_similarity};
use f3m_fingerprint::encode::encode_function;
use f3m_fingerprint::lsh::{band_keys_for, probe_keys_for, BandKey, LshIndex, QueryScratch};
use f3m_fingerprint::opcode_freq::OpcodeFingerprint;
use f3m_fingerprint::par::par_map_indexed;
use f3m_fingerprint::store::PackedFingerprintStore;
use f3m_ir::ids::FuncId;
use f3m_ir::module::Module;

use crate::pass::Strategy;
use crate::profile::CandidateSet;

/// Near-tie tolerance for profile-guided selection (no effect without a
/// profile: the plain maximum is chosen).
const NEAR_TIE_EPS: f64 = 0.05;

/// Counters for one ranking query, accumulated into
/// [`MergeStats`](crate::report::MergeStats) by the driver.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryCounters {
    /// Fingerprint-to-fingerprint similarity computations.
    pub comparisons: u64,
    /// Search-structure entries examined (bucket entries for LSH, scan
    /// length for the exhaustive baseline).
    pub examined: u64,
    /// Distinct candidates the structure returned, before availability and
    /// threshold filtering.
    pub returned: u64,
    /// Bucket entries skipped by the LSH `bucket_cap` (always zero for the
    /// exhaustive baseline). Deterministic because buckets are sorted.
    pub evicted: u64,
    /// Cross-band duplicate bucket hits during LSH probes (an entry found
    /// again in a later band of the same query).
    pub collisions: u64,
    /// Allocations avoided by answering the query from a reusable scratch
    /// buffer instead of a fresh dedup set + candidate vector (one per
    /// scratch-served probe, so the count is job-count independent).
    pub saved_allocs: u64,
}

/// A point-in-time description of a search structure, for observability
/// exports (metric registry, trace args). All values are deterministic for
/// a fixed workload and strategy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IndexStats {
    /// Non-empty buckets in the structure (0 for the exhaustive baseline).
    pub buckets: usize,
    /// Population of the fullest bucket.
    pub max_bucket: usize,
    /// Sizes of all non-empty buckets, for occupancy histograms.
    pub bucket_sizes: Vec<usize>,
    /// Fixed per-function bytes of the packed fingerprint storage (0 for
    /// structures without packed storage).
    pub bytes_per_fn: usize,
}

/// Reusable per-worker buffers for [`CandidateSearch::best_candidates`].
/// One scratch lives beside each wave worker's alignment scratch, so the
/// hot rank loop performs no per-query allocation.
#[derive(Debug, Default)]
pub struct SearchScratch {
    query: QueryScratch<usize>,
}

impl SearchScratch {
    pub fn new() -> SearchScratch {
        SearchScratch { query: QueryScratch::new() }
    }
}

/// Strategy seam between the pass driver and a candidate-search structure.
///
/// Implementations are built once per pass over the function list (the
/// *preprocess* stage) and queried once per unmerged function (the *rank*
/// stage). After a commit the driver calls [`invalidate`] for both merged
/// functions so later queries no longer surface them.
///
/// [`invalidate`]: CandidateSearch::invalidate
pub trait CandidateSearch {
    /// Number of functions indexed.
    fn num_functions(&self) -> usize;

    /// Collects the best available merge candidates for function `i` as a
    /// near-tie [`CandidateSet`] (so a profile can bias the final choice).
    /// `available[j]` is false for functions already consumed by a merge;
    /// implementations must never return such candidates, nor `i` itself.
    /// `scratch` is the caller's reusable query buffer (one per worker).
    fn best_candidates(
        &self,
        i: usize,
        available: &[bool],
        counters: &mut QueryCounters,
        scratch: &mut SearchScratch,
    ) -> CandidateSet;

    /// Removes function `idx` from the search structure after its pair was
    /// committed. (The driver additionally masks it in `available`; for
    /// structures with no retained state this may be a no-op.)
    fn invalidate(&mut self, idx: usize);

    /// The top-`k` available candidates for function `i`, as
    /// `(index, similarity)` pairs sorted by similarity descending with
    /// function *name* ascending as the tie-break (index ascending as the
    /// final fallback — unreachable while names are unique, which the IR
    /// verifier enforces per module). Unlike [`Self::best_candidates`]
    /// this exposes the full ranking (not just the near-tie head), which
    /// is what corpus-level `query` requests serve; the tie-break rule is
    /// part of the wire contract, so both implementations share it. Names
    /// survive a from-scratch rebuild where indexes do not, so rankings —
    /// and everything planned from them, like the global merge order —
    /// are identical across shard counts and rebuilds.
    fn ranked_candidates(&self, i: usize, available: &[bool], k: usize) -> Vec<(usize, f64)>;

    /// Describes the current search structure for observability exports.
    /// The default (for structures with no retained index) is all-zero.
    fn index_stats(&self) -> IndexStats {
        IndexStats::default()
    }
}

/// Keeps the best `k` of `ranked`, best first, under the one candidate
/// order every ranker shares — both [`CandidateSearch::ranked_candidates`]
/// implementations and the corpus (`Corpus::ranked`): similarity
/// descending, then `name` ascending, then index ascending as the
/// (unreachable while names are unique) final fallback. Index-based
/// tie-breaks are *not* rebuild-stable — a from-scratch rebuild that
/// assigns ids differently would reorder exact-tie candidates, and
/// similarities are multiples of `1/k`, so exact ties are common.
///
/// The order is total, so selecting the k-th best in linear time and
/// sorting only the `k` survivors yields exactly the prefix a full sort
/// would.
pub(crate) fn top_k<'n>(
    ranked: &mut Vec<(usize, f64)>,
    k: usize,
    name: impl Fn(usize) -> &'n str,
) {
    let order = |a: &(usize, f64), b: &(usize, f64)| rank_order(*a, *b, &name);
    if k == 0 {
        ranked.clear();
    } else if ranked.len() > k {
        ranked.select_nth_unstable_by(k - 1, order);
        ranked.truncate(k);
    }
    ranked.sort_unstable_by(order);
}

/// The candidate order behind [`top_k`]; `Less` means `a` ranks first.
pub(crate) fn rank_order<'n>(
    a: (usize, f64),
    b: (usize, f64),
    name: impl Fn(usize) -> &'n str,
) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| name(a.0).cmp(name(b.0))).then(a.0.cmp(&b.0))
}

/// Snapshots the (unqualified within one module, qualified in a combined
/// corpus module) function names backing a search structure, for the
/// rebuild-stable tie-break in [`top_k`].
fn capture_names(m: &Module, funcs: &[FuncId]) -> Vec<String> {
    funcs.iter().map(|&f| m.function(f).name.clone()).collect()
}

/// Builds the search structure for `strategy` over `funcs`, fanning the
/// per-function fingerprint work out across up to `jobs` threads.
///
/// The returned structure is `Send + Sync`: queries take `&self`, so the
/// wave loop can rank many functions concurrently against one snapshot of
/// the availability mask (mutation — `invalidate` — stays confined to the
/// serial commit walk).
pub fn build_search(
    m: &Module,
    funcs: &[FuncId],
    strategy: &Strategy,
    jobs: usize,
) -> Box<dyn CandidateSearch + Send + Sync> {
    match strategy {
        Strategy::Hyfm => Box::new(ExhaustiveOpcodeSearch::build(m, funcs, jobs)),
        Strategy::F3m(p) => Box::new(LshBackendSearch::build(m, funcs, *p, jobs)),
        Strategy::F3mAdaptive => {
            let p = MergeParams::adaptive(funcs.len());
            Box::new(LshBackendSearch::build(m, funcs, p, jobs))
        }
    }
}

impl CandidateSearch for Box<dyn CandidateSearch + Send + Sync> {
    fn num_functions(&self) -> usize {
        (**self).num_functions()
    }

    fn best_candidates(
        &self,
        i: usize,
        available: &[bool],
        counters: &mut QueryCounters,
        scratch: &mut SearchScratch,
    ) -> CandidateSet {
        (**self).best_candidates(i, available, counters, scratch)
    }

    fn invalidate(&mut self, idx: usize) {
        (**self).invalidate(idx)
    }

    fn ranked_candidates(&self, i: usize, available: &[bool], k: usize) -> Vec<(usize, f64)> {
        (**self).ranked_candidates(i, available, k)
    }

    fn index_stats(&self) -> IndexStats {
        (**self).index_stats()
    }
}

/// HyFM baseline: opcode-frequency fingerprints, exhaustive quadratic
/// nearest-neighbour ranking.
pub struct ExhaustiveOpcodeSearch {
    fps: Vec<OpcodeFingerprint>,
    names: Vec<String>,
}

impl ExhaustiveOpcodeSearch {
    /// Fingerprints every function (in parallel for `jobs > 1`).
    pub fn build(m: &Module, funcs: &[FuncId], jobs: usize) -> ExhaustiveOpcodeSearch {
        let fps = par_map_indexed(funcs.len(), jobs, |i| {
            OpcodeFingerprint::of(m.function(funcs[i]))
        });
        ExhaustiveOpcodeSearch { fps, names: capture_names(m, funcs) }
    }
}

impl CandidateSearch for ExhaustiveOpcodeSearch {
    fn num_functions(&self) -> usize {
        self.fps.len()
    }

    fn best_candidates(
        &self,
        i: usize,
        available: &[bool],
        counters: &mut QueryCounters,
        _scratch: &mut SearchScratch,
    ) -> CandidateSet {
        let mut set = CandidateSet::new(NEAR_TIE_EPS);
        for (j, av) in available.iter().enumerate() {
            if !*av || j == i {
                continue;
            }
            counters.comparisons += 1;
            counters.examined += 1;
            counters.returned += 1;
            set.push(j, self.fps[i].similarity(&self.fps[j]));
        }
        set
    }

    fn invalidate(&mut self, _idx: usize) {
        // The exhaustive scan consults `available` directly; there is no
        // retained structure to update.
    }

    fn ranked_candidates(&self, i: usize, available: &[bool], k: usize) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> = available
            .iter()
            .enumerate()
            .filter(|&(j, av)| *av && j != i)
            .map(|(j, _)| (j, self.fps[i].similarity(&self.fps[j])))
            .collect();
        top_k(&mut ranked, k, |j| &self.names[j]);
        ranked
    }
}

/// F3M: signature fingerprints (MinHash by default, SimHash or TLSH-style
/// via `MergeParams::backend`) queried through a banded LSH index, with
/// the similarity threshold applied after the bucket lookup. Signatures
/// and band keys live in a [`PackedFingerprintStore`], so both the index
/// build and every probe walk contiguous memory.
pub struct LshBackendSearch {
    params: MergeParams,
    store: PackedFingerprintStore,
    names: Vec<String>,
    index: LshIndex<usize>,
    /// Scratch for the serial `ranked_candidates` path (`best_candidates`
    /// uses the caller's per-worker scratch instead; this lock is never
    /// contended in the pass).
    ranked_scratch: Mutex<QueryScratch<usize>>,
}

/// The historical name of [`LshBackendSearch`], kept for callers that
/// predate the backend seam.
pub type LshMinHashSearch = LshBackendSearch;

impl LshBackendSearch {
    /// Encodes, fingerprints and band-hashes every function (in parallel
    /// for `jobs > 1`; the backend is constructed once and shared), then
    /// packs the rows and populates the index sequentially in function
    /// order so bucket contents are identical for any job count.
    pub fn build(m: &Module, funcs: &[FuncId], params: MergeParams, jobs: usize) -> LshBackendSearch {
        let backend = backend_for(params.backend, params.k);
        let per_func = par_map_indexed(funcs.len(), jobs, |i| {
            let enc = encode_function(&m.types, m.function(funcs[i]));
            let sig = backend.signature(&enc);
            let keys = band_keys_for(params.lsh, &sig);
            (sig, keys)
        });
        let mut index = LshIndex::new(params.lsh);
        let mut store =
            PackedFingerprintStore::with_capacity(params.k, params.lsh.bands, per_func.len());
        for (i, (sig, keys)) in per_func.into_iter().enumerate() {
            index.insert_with_keys(i, &keys);
            store.push_with_keys(&sig, &keys);
        }
        LshBackendSearch {
            params,
            store,
            names: capture_names(m, funcs),
            index,
            ranked_scratch: Mutex::new(QueryScratch::new()),
        }
    }

    /// Estimated similarity of functions `i` and `j` under the backend.
    fn similarity(&self, i: usize, j: usize) -> f64 {
        signature_similarity(self.store.sig(i), self.store.sig(j))
    }

    /// The widened multi-probe key list for row `i`, or `None` under
    /// classic single-probe (`params.probes == 0`), where the stored
    /// band keys are probed directly without allocating.
    fn probe_widened(&self, i: usize) -> Option<Vec<BandKey>> {
        (self.params.probes > 0)
            .then(|| probe_keys_for(self.params.lsh, self.store.sig(i), self.params.probes))
    }
}

impl CandidateSearch for LshBackendSearch {
    fn num_functions(&self) -> usize {
        self.store.len()
    }

    fn best_candidates(
        &self,
        i: usize,
        available: &[bool],
        counters: &mut QueryCounters,
        scratch: &mut SearchScratch,
    ) -> CandidateSet {
        let qstats = match self.probe_widened(i) {
            Some(keys) => self.index.probe_keys_into(&keys, i, &mut scratch.query),
            None => self.index.probe_keys_into(self.store.keys(i), i, &mut scratch.query),
        };
        counters.examined += qstats.examined as u64;
        counters.evicted += qstats.evicted as u64;
        counters.collisions += qstats.collisions as u64;
        counters.returned += scratch.query.out.len() as u64;
        // One similarity computation per distinct candidate — the quantity
        // the paper's bucket cap bounds.
        counters.comparisons += scratch.query.out.len() as u64;
        // One dedup set + one candidate vector that were *not* allocated
        // because the scratch served this probe.
        counters.saved_allocs += 1;
        let mut set = CandidateSet::new(NEAR_TIE_EPS);
        for &j in &scratch.query.out {
            if !available[j] {
                continue;
            }
            let sim = self.similarity(i, j);
            if sim < self.params.threshold {
                continue;
            }
            set.push(j, sim);
        }
        set
    }

    fn invalidate(&mut self, idx: usize) {
        // The packed row stays (ids are positional); only the index entry
        // goes away.
        let keys: Vec<_> = self.store.keys(idx).to_vec();
        self.index.remove_with_keys(idx, &keys);
    }

    fn ranked_candidates(&self, i: usize, available: &[bool], k: usize) -> Vec<(usize, f64)> {
        let mut scratch = self.ranked_scratch.lock().unwrap();
        match self.probe_widened(i) {
            Some(keys) => self.index.probe_keys_into(&keys, i, &mut scratch),
            None => self.index.probe_keys_into(self.store.keys(i), i, &mut scratch),
        };
        let mut ranked: Vec<(usize, f64)> = scratch
            .out
            .iter()
            .filter(|&&j| available[j])
            .map(|&j| (j, self.similarity(i, j)))
            .filter(|&(_, sim)| sim >= self.params.threshold)
            .collect();
        top_k(&mut ranked, k, |j| &self.names[j]);
        ranked
    }

    fn index_stats(&self) -> IndexStats {
        // HashMap iteration order is unstable; sort so the stats compare
        // equal across runs and job counts.
        let mut bucket_sizes = self.index.bucket_sizes();
        bucket_sizes.sort_unstable();
        IndexStats {
            buckets: self.index.num_buckets(),
            max_bucket: self.index.max_bucket_size(),
            bucket_sizes,
            bytes_per_fn: self.store.bytes_per_fn(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3m_fingerprint::backend::BackendKind;

    fn searches() -> (LshBackendSearch, ExhaustiveOpcodeSearch, usize) {
        let mut spec = f3m_workloads::mini_suite()[0].clone();
        spec.functions = 32;
        spec.seed = 7;
        let m = f3m_workloads::build_module(&spec);
        let funcs: Vec<FuncId> = m
            .defined_functions()
            .into_iter()
            .filter(|&f| m.function(f).num_linked_insts() > 0)
            .collect();
        let n = funcs.len();
        let lsh = LshBackendSearch::build(&m, &funcs, MergeParams::static_default(), 1);
        (lsh, ExhaustiveOpcodeSearch::build(&m, &funcs, 1), n)
    }

    /// Top-k selection returns exactly the first `k` of the full sorted
    /// ranking, for both rankers.
    #[test]
    fn top_k_ranking_is_a_prefix_of_the_full_ranking() {
        let (lsh, exhaustive, n) = searches();
        let available = vec![true; n];
        let searches: [&dyn CandidateSearch; 2] = [&lsh, &exhaustive];
        for search in searches {
            for i in 0..n {
                let full = search.ranked_candidates(i, &available, usize::MAX);
                assert!(full.windows(2).all(|w| w[0].1 >= w[1].1), "sorted: {full:?}");
                for k in [0, 1, 5] {
                    let top = search.ranked_candidates(i, &available, k);
                    assert_eq!(top, full[..k.min(full.len())], "function {i}, k = {k}");
                }
            }
        }
    }

    /// Masking and invalidating a candidate removes exactly it: every
    /// ranking equals the unmasked one with that candidate filtered out.
    #[test]
    fn ranked_candidates_respect_availability_and_invalidate() {
        let (mut lsh, _, n) = searches();
        let all = vec![true; n];
        let full: Vec<_> = (0..n).map(|i| lsh.ranked_candidates(i, &all, usize::MAX)).collect();

        // Mask a function that actually shows up as a candidate.
        let victim = full
            .iter()
            .find_map(|r| r.first().map(|&(j, _)| j))
            .expect("workload families produce candidates");
        let mut masked = all.clone();
        masked[victim] = false;
        lsh.invalidate(victim);
        for (i, full) in full.iter().enumerate().filter(|&(i, _)| i != victim) {
            let expected: Vec<_> = full.iter().filter(|&&(j, _)| j != victim).take(5).copied().collect();
            assert_eq!(lsh.ranked_candidates(i, &masked, 5), expected, "function {i}");
        }
    }

    /// Every backend builds a working search over the same module, and
    /// each finds the planted family pairs among its top candidates.
    #[test]
    fn all_backends_rank_family_members_first() {
        let mut spec = f3m_workloads::mini_suite()[0].clone();
        spec.functions = 32;
        spec.seed = 11;
        let m = f3m_workloads::build_module(&spec);
        let funcs: Vec<FuncId> = m
            .defined_functions()
            .into_iter()
            .filter(|&f| m.function(f).num_linked_insts() > 0)
            .collect();
        let n = funcs.len();
        let available = vec![true; n];
        for kind in BackendKind::ALL {
            let params = MergeParams::static_default().with_backend(kind);
            let search = LshBackendSearch::build(&m, &funcs, params, 2);
            let found = (0..n)
                .filter(|&i| !search.ranked_candidates(i, &available, 3).is_empty())
                .count();
            assert!(
                found > n / 4,
                "{}: only {found}/{n} functions have candidates",
                kind.name()
            );
        }
    }

    /// The scratch-based query path is deterministic across job counts
    /// and matches a fresh-scratch query exactly.
    #[test]
    fn scratch_queries_are_job_count_independent() {
        let mut spec = f3m_workloads::mini_suite()[0].clone();
        spec.functions = 24;
        spec.seed = 13;
        let m = f3m_workloads::build_module(&spec);
        let funcs: Vec<FuncId> = m
            .defined_functions()
            .into_iter()
            .filter(|&f| m.function(f).num_linked_insts() > 0)
            .collect();
        let n = funcs.len();
        let params = MergeParams::static_default();
        let s1 = LshBackendSearch::build(&m, &funcs, params, 1);
        let s8 = LshBackendSearch::build(&m, &funcs, params, 8);
        let available = vec![true; n];
        let mut warm = SearchScratch::new();
        for i in 0..n {
            let mut c_warm = QueryCounters::default();
            let mut c_fresh = QueryCounters::default();
            let a = s1.best_candidates(i, &available, &mut c_warm, &mut warm);
            let b = s8.best_candidates(i, &available, &mut c_fresh, &mut SearchScratch::new());
            assert_eq!(
                a.choose(None, |idx| funcs[idx]),
                b.choose(None, |idx| funcs[idx]),
                "function {i}"
            );
            assert_eq!(c_warm.examined, c_fresh.examined);
            assert_eq!(c_warm.collisions, c_fresh.collisions);
            assert_eq!(c_warm.saved_allocs, 1, "one saved alloc per probe");
        }
    }
}

//! Shard-paged exact clustered scans over out-of-core datasets.
//!
//! The fully-resident [`ClusteredIndex`](crate::clustered::ClusteredIndex)
//! copies every training row into a cluster-contiguous buffer at build time
//! — fine when the dataset fits in RAM, a non-starter for the
//! millions-of-rows datasets the mmap-backed
//! [`snoopy_linalg::disk::DiskDataset`] makes addressable.
//! [`ShardedIndex`] keeps the *same* k-means partition and runs the *same*
//! scan — the crate's private cluster-scan core (the `scan` module), over
//! the same triangle-inequality bound arithmetic ([`crate::bounds`]) — but
//! materialises each cluster as an independent **shard** — the gathered f32
//! member rows, their per-row centroid distances, the kernel norm cache, and
//! (when quantized) the int8 shadow — that loads and evicts on demand under
//! a configurable resident byte budget. Per visited cluster the index hands
//! the scan core rows `0..n` of the shard it faulted in, and prepares the
//! int8 query once per shard, because the quantized margin depends on each
//! shard's own shadow.
//!
//! ## Paging order *is* prune order
//!
//! A query sorts clusters by ascending triangle-inequality lower bound and
//! visits them in that order, exactly like the resident index. A shard is
//! faulted in **only when its cluster is actually visited**, so the bound
//! doubles as the paging schedule: clusters the bound rejects are never
//! read off disk at all, and the first unbeatable cluster ends the query
//! before any further I/O. The cost model is therefore the resident index's
//! prune rate translated into bytes — `PruneStats::cluster_prune_rate`
//! bounds the fraction of the dataset a query can fault.
//!
//! ## Residency contract
//!
//! Shards are cached LRU under `budget_bytes`: after each fault the
//! least-recently-used shards are evicted (the just-faulted shard is
//! pinned) until the cache fits the budget again. With prefetch off, peak
//! residency is therefore at most `budget + one shard`; with a prefetch
//! depth of `P`, the staging area adds at most `P` uncommitted shards, so
//! the contract becomes `peak ≤ budget + max_shard × (1 + P)` — measured by
//! [`ShardedIndex::resident_bytes`] ([`PagedResidentBytes`]) *and*
//! debug-asserted after every fault/commit/evict cycle, with fault,
//! eviction, and prefetch traffic counted in [`PagingStats`].
//!
//! ## Exactness
//!
//! Results are **bit-identical** to the resident index and the exhaustive
//! engine: member order within a shard ascends by original row index (the
//! resident index's regrouping), every admitted distance comes from the
//! same [`MetricKernel`](crate::kernel::MetricKernel) expressions (which
//! depend only on the pair of rows, never on which buffer holds them), and
//! every prune decision is made by the same scan code. Evicting
//! and re-faulting a shard recomputes identical bytes — gathers and
//! per-row geometry are deterministic functions of the source view.
//!
//! ## Pipelined prefetch
//!
//! The visit schedule is known the moment the bounds are sorted, so the
//! serial fault→scan→fault loop leaves free win on the table: while the
//! scanning thread works through the current shard, `snoopy-pool` workers
//! can already *materialise* the next few. [`ShardedIndex::set_prefetch_depth`]
//! enables exactly that: at each visit the index tops up to `P` speculative
//! shard loads for the next unresident clusters in bound order (skipping
//! clusters the current τ already prunes — ascending bounds mean everything
//! past the first pruned position is dead). A prefetched shard is
//! bit-identical to a demand-faulted one — gather, per-row centroid
//! distances, norm cache, and int8 encode are deterministic functions of
//! the source view — so results cannot depend on what was speculated.
//!
//! All LRU decisions stay on the scanning thread: a speculative shard lives
//! in a bounded staging area (≤ `P` entries, never charged to the cache)
//! until its cluster is actually visited, at which point it is *committed*
//! through the same evict→charge→evict sequence a demand fault uses, with
//! the same LRU clock tick. The cache's residency trace is therefore
//! identical at every prefetch depth and every worker count; a staged shard
//! whose cluster gets pruned before its turn is dropped (counted as
//! [`PagingStats::prefetch_wasted`]) without ever touching the cache.
//! Queries still scan on one thread (`&mut self`) — the pipeline overlaps
//! materialisation with scanning, it does not fan the scan out.

use crate::bounds::euclid_f64;
use crate::clustered::{ResidentBytes, KMEANS_MAX_ITERS, KMEANS_SEED};
use crate::engine::{EvalEngine, NeighborTable, TopKState};
use crate::metric::Metric;
use crate::quantized::AffineQuantizer;
use crate::scan::{ClusterLayout, RowBlock, ScanQuery, ScanScratch};
use crate::PruneStats;
use snoopy_linalg::kmeans::lloyd_kmeans;
use snoopy_linalg::DatasetView;

/// Paging counters accumulated by the shard cache over the index's
/// lifetime — the out-of-core counterpart of [`PruneStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagingStats {
    /// Shards materialised from the source view (cold faults).
    pub shards_faulted: usize,
    /// Shards dropped by the LRU budget.
    pub shards_evicted: usize,
    /// Bytes paged in across all faults.
    pub bytes_faulted: usize,
    /// Bytes released across all evictions.
    pub bytes_evicted: usize,
    /// Speculative shard loads submitted to the pool by the prefetch
    /// pipeline.
    pub shards_prefetched: usize,
    /// Prefetched shards whose cluster was visited: committed to the LRU
    /// cache in place of a demand fault.
    pub prefetch_committed: usize,
    /// Prefetched shards dropped without a commit (cluster pruned before
    /// its turn, or the query stream ended first).
    pub prefetch_wasted: usize,
    /// Bytes materialised by prefetch tasks (committed and wasted alike).
    pub bytes_prefetched: usize,
}

/// [`ResidentBytes`] extended with the budget-vs-peak accounting of the
/// shard cache — what [`ShardedIndex::resident_bytes`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagedResidentBytes {
    /// Currently-resident footprint, bucketed like the resident index
    /// (`train_rows`/`quantized_*` cover resident shards only; `centroids`
    /// and `row_meta` cover the always-resident index metadata).
    pub resident: ResidentBytes,
    /// The configured shard-cache budget in bytes.
    pub budget: usize,
    /// High-water mark of resident *plus staged* shard bytes since build.
    pub peak: usize,
    /// Bytes of materialised-but-uncommitted prefetched shards right now
    /// (non-zero only mid-query; the staging area drains before every
    /// `update_topk` return).
    pub staged: usize,
    /// Largest single shard materialised so far —
    /// `peak ≤ budget + max_shard × (1 + prefetch_depth)` is the cache's
    /// residency contract.
    pub max_shard: usize,
}

/// One materialised cluster: the gathered member rows, ascending by
/// original row index, plus everything a scan derives from them (the int8
/// shadow when the index is quantized and the rows pass the overflow
/// guard). Rebuilt deterministically on every fault, so eviction never
/// loses information.
struct Shard {
    rows: RowBlock,
    /// Resident footprint of this shard (`rows.bytes().total()`).
    bytes: usize,
    /// LRU clock value of the last fault or visit.
    last_use: u64,
}

/// Gathers one cluster's shard from the source view. Deterministic: the
/// same ids against the same view always produce the same bytes, which is
/// what makes evict-then-refault invisible in the results.
fn load_shard(
    source: DatasetView<'_>,
    metric: Metric,
    ids: &[usize],
    centroid: &[f32],
    quantizer: Option<&AffineQuantizer>,
) -> Shard {
    let data = source.select_rows(ids);
    let row_center = data.rows_iter().map(|r| euclid_f64(r, centroid)).collect();
    let mut rows = RowBlock::new(data, row_center, metric);
    if let Some(qz) = quantizer {
        rows.quantize(qz.clone());
    }
    Shard { bytes: rows.bytes().total(), rows, last_use: 0 }
}

/// The borrow-erased description of one speculative [`load_shard`] call,
/// shipped to a pool worker as a `'static` task. Everything a load reads is
/// captured as raw parts (the quantizer is small and simply cloned).
///
/// # Safety
/// `run` dereferences the captured pointers, so a job must not outlive the
/// buffers they point into. The prefetch pipeline guarantees that
/// structurally: every spawned job's [`snoopy_pool::JoinHandle`] is joined
/// before `update_topk` returns (the staging area drains on exit, and a
/// dropped handle waits), and for the whole `update_topk` call the index is
/// exclusively borrowed — `source` outlives the index by construction
/// (`'a`), and `members` / `centroids` are never mutated after build.
struct PrefetchJob {
    data: *const f32,
    data_len: usize,
    rows: usize,
    cols: usize,
    metric: Metric,
    ids: *const usize,
    ids_len: usize,
    centroid: *const f32,
    centroid_len: usize,
    quantizer: Option<AffineQuantizer>,
}

// SAFETY: the job only carries shared read-only borrows in pointer form;
// the data they point to (`&[f32]` / `&[usize]`) is Sync, and the liveness
// obligation is discharged by the join-before-return rule above.
unsafe impl Send for PrefetchJob {}

impl PrefetchJob {
    fn capture(
        source: DatasetView<'_>,
        metric: Metric,
        ids: &[usize],
        centroid: &[f32],
        quantizer: Option<&AffineQuantizer>,
    ) -> Self {
        PrefetchJob {
            data: source.data().as_ptr(),
            data_len: source.data().len(),
            rows: source.rows(),
            cols: source.cols(),
            metric,
            ids: ids.as_ptr(),
            ids_len: ids.len(),
            centroid: centroid.as_ptr(),
            centroid_len: centroid.len(),
            quantizer: quantizer.cloned(),
        }
    }

    /// # Safety
    /// Every captured pointer must still be live (see the type docs).
    unsafe fn run(&self) -> Shard {
        let data = std::slice::from_raw_parts(self.data, self.data_len);
        let ids = std::slice::from_raw_parts(self.ids, self.ids_len);
        let centroid = std::slice::from_raw_parts(self.centroid, self.centroid_len);
        let source = DatasetView::from_raw(data, self.rows, self.cols);
        load_shard(source, self.metric, ids, centroid, self.quantizer.as_ref())
    }
}

/// One staging-area slot: a speculative shard load that is either still in
/// flight on a pool worker or materialised and waiting for its cluster's
/// visit. Exactly one of the two fields is `Some`.
struct StagedSlot {
    cluster: usize,
    handle: Option<snoopy_pool::JoinHandle<Shard>>,
    shard: Option<Shard>,
}

/// The scanning thread's view of the prefetch pipeline: at most
/// [`ShardCache::prefetch_depth`] slots, each owning one speculative load.
/// The prefetcher never touches the LRU cache's residency — it only hands
/// fully-materialised shards to [`ShardCache::commit`] at visit time.
/// Spawn/drop decisions depend only on the (deterministic) visit order,
/// residency trace, and τ evolution — never on worker timing — so the
/// pipeline issues the same speculative loads at every worker count.
struct Prefetcher {
    slots: Vec<StagedSlot>,
    /// Cluster → position in the *current* query's visit order.
    rank: Vec<usize>,
}

impl Prefetcher {
    fn new(clusters: usize, depth: usize) -> Self {
        Prefetcher { slots: Vec::with_capacity(depth), rank: vec![0; clusters] }
    }

    /// Re-ranks the staging area for a new query's visit order (leftover
    /// slots from the previous query stay — the new query may well visit
    /// their clusters).
    fn begin_query(&mut self, order: &[(f64, f64, usize)]) {
        for (pos, &(_, _, c)) in order.iter().enumerate() {
            self.rank[c] = pos;
        }
    }

    /// Joins one slot's in-flight handle, folding the materialised bytes
    /// into the prefetch ledgers (each spawned job passes through here
    /// exactly once, so `bytes_prefetched` covers every speculative load).
    fn join_handle(cache: &mut ShardCache, handle: snoopy_pool::JoinHandle<Shard>) -> Shard {
        let shard = handle.join();
        cache.stats.bytes_prefetched += shard.bytes;
        cache.max_shard_bytes = cache.max_shard_bytes.max(shard.bytes);
        shard
    }

    /// Takes the staged shard for cluster `c` if the pipeline holds one,
    /// joining it first when still in flight (the join *helps*, so even a
    /// one-worker pool makes progress). Returns `None` when `c` was never
    /// prefetched — the caller demand-faults as usual.
    fn take(&mut self, cache: &mut ShardCache, c: usize) -> Option<Shard> {
        let i = self.slots.iter().position(|s| s.cluster == c)?;
        let mut slot = self.slots.swap_remove(i);
        match slot.shard.take() {
            Some(shard) => {
                cache.staged_bytes -= shard.bytes;
                Some(shard)
            }
            None => Some(Self::join_handle(cache, slot.handle.take().expect("in-flight slot"))),
        }
    }

    /// Drops one slot as wasted work, joining it first if still in flight
    /// (the handle would block on drop anyway; joining keeps the byte
    /// ledger exact).
    fn waste_slot(cache: &mut ShardCache, mut slot: StagedSlot) {
        match slot.shard.take() {
            Some(shard) => cache.staged_bytes -= shard.bytes,
            None => drop(Self::join_handle(cache, slot.handle.take().expect("in-flight slot"))),
        }
        cache.stats.prefetch_wasted += 1;
    }

    /// Tops the pipeline up to `depth` speculative loads for the clusters
    /// that follow position `pos` in this query's visit order, skipping
    /// resident and already-staged clusters and stopping at the first
    /// position the current τ prunes (bounds ascend, so everything past it
    /// is unreachable this query). Called *before* the current shard is
    /// obtained and scanned — that is the overlap. Also folds finished
    /// loads into the staged ledger and retires leftovers τ already prunes,
    /// so stale speculation cannot starve the pipeline.
    #[allow(clippy::too_many_arguments)] // the pipeline's full spawn context
    fn top_up(
        &mut self,
        cache: &mut ShardCache,
        order: &[(f64, f64, usize)],
        pos: usize,
        tau_sq: Option<f64>,
        err: f64,
        layout: &ClusterLayout,
        source: DatasetView<'_>,
        quantizer: Option<&AffineQuantizer>,
    ) {
        let depth = cache.prefetch_depth;
        if depth == 0 {
            return;
        }
        // Fold finished loads into the staged ledger (non-blocking).
        for slot in self.slots.iter_mut() {
            if slot.shard.is_none() && slot.handle.as_ref().expect("in-flight slot").is_finished() {
                let shard = Self::join_handle(cache, slot.handle.take().expect("in-flight slot"));
                cache.staged_bytes += shard.bytes;
                slot.shard = Some(shard);
                cache.note_peak();
            }
        }
        // Retire leftovers this query can no longer reach: once τ prunes a
        // slot's position it will never be visited (ascending bounds), and
        // holding its slot would starve nearer clusters.
        if let Some(tau_sq) = tau_sq {
            let mut i = 0;
            while i < self.slots.len() {
                // A slot whose position this query already passed cannot
                // exist (passing it commits), so rank ≥ pos here; the
                // current position's own slot survives because its bound
                // was not pruned (the visit loop checked before calling).
                let slot_pos = self.rank[self.slots[i].cluster];
                if layout.bounds.prunes(order[slot_pos].0, tau_sq, err) {
                    let slot = self.slots.swap_remove(i);
                    Self::waste_slot(cache, slot);
                } else {
                    i += 1;
                }
            }
        }
        let mut next = pos + 1;
        while self.slots.len() < depth && next < order.len() {
            let (lb, _, c) = order[next];
            next += 1;
            if let Some(tau_sq) = tau_sq {
                if layout.bounds.prunes(lb, tau_sq, err) {
                    break;
                }
            }
            if cache.resident[c].is_some() || self.slots.iter().any(|s| s.cluster == c) {
                continue;
            }
            let ids = &layout.ids[layout.range(c)];
            let metric = layout.bounds.metric();
            let job = PrefetchJob::capture(source, metric, ids, layout.centroids.row(c), quantizer);
            // SAFETY: joined before `update_topk` returns — see `PrefetchJob`.
            let handle = snoopy_pool::spawn(move || unsafe { job.run() });
            cache.stats.shards_prefetched += 1;
            self.slots.push(StagedSlot { cluster: c, handle: Some(handle), shard: None });
        }
    }

    /// Resolves every outstanding speculative load — called before
    /// `update_topk` returns, which is what makes the pointer erasure in
    /// [`PrefetchJob`] sound. Everything still staged is wasted work.
    fn drain(&mut self, cache: &mut ShardCache) {
        for slot in self.slots.drain(..) {
            Self::waste_slot(cache, slot);
        }
        debug_assert_eq!(cache.staged_bytes, 0, "staging ledger must drain to zero");
    }
}

/// The LRU shard cache: one slot per cluster, a resident-byte ledger, and
/// the paging counters.
struct ShardCache {
    resident: Vec<Option<Shard>>,
    resident_bytes: usize,
    /// Bytes of materialised-but-uncommitted prefetched shards (staging
    /// area ledger; never counted against `budget`).
    staged_bytes: usize,
    peak_resident: usize,
    max_shard_bytes: usize,
    budget: usize,
    /// Current prefetch pipeline depth `P` — bounds the staging area and
    /// widens the residency contract to `budget + max_shard × (1 + P)`.
    prefetch_depth: usize,
    tick: u64,
    stats: PagingStats,
}

impl ShardCache {
    fn new(clusters: usize, budget: usize) -> Self {
        ShardCache {
            resident: (0..clusters).map(|_| None).collect(),
            resident_bytes: 0,
            staged_bytes: 0,
            peak_resident: 0,
            max_shard_bytes: 0,
            budget,
            prefetch_depth: 0,
            tick: 0,
            stats: PagingStats::default(),
        }
    }

    /// Folds the current resident + staged footprint into the high-water
    /// mark and debug-asserts the residency contract: committed bytes fit
    /// `budget + max_shard` (one pinned over-budget shard allowed) and the
    /// staging area holds at most `P` shards' worth of bytes.
    fn note_peak(&mut self) {
        self.peak_resident = self.peak_resident.max(self.resident_bytes + self.staged_bytes);
        debug_assert!(
            self.resident_bytes <= self.budget.saturating_add(self.max_shard_bytes),
            "committed shard bytes {} exceed budget {} + max_shard {}",
            self.resident_bytes,
            self.budget,
            self.max_shard_bytes
        );
        debug_assert!(
            self.staged_bytes <= self.prefetch_depth.saturating_mul(self.max_shard_bytes),
            "staged bytes {} exceed depth {} x max_shard {}",
            self.staged_bytes,
            self.prefetch_depth,
            self.max_shard_bytes
        );
    }

    /// Returns cluster `c`'s shard, materialising it through `load` on a
    /// miss and then evicting LRU shards (the fresh shard pinned) until the
    /// cache fits the budget again.
    fn fault(&mut self, c: usize, load: impl FnOnce() -> Shard) -> &Shard {
        self.tick += 1;
        if self.resident[c].is_none() {
            // Make room first: nothing is mid-scan between faults (queries
            // are serial), so even a previously-pinned over-budget shard is
            // evictable now. This keeps the peak at `budget + one shard`
            // rather than `budget + two`.
            self.evict_over_budget(usize::MAX);
            let shard = load();
            self.stats.shards_faulted += 1;
            self.stats.bytes_faulted += shard.bytes;
            self.max_shard_bytes = self.max_shard_bytes.max(shard.bytes);
            self.resident_bytes += shard.bytes;
            self.resident[c] = Some(shard);
            self.note_peak(); // transient charge-before-evict state counts
            self.evict_over_budget(c);
            self.note_peak();
        }
        let tick = self.tick;
        let shard = self.resident[c].as_mut().expect("shard resident after fault");
        shard.last_use = tick;
        shard
    }

    /// Commits a staged (prefetched) shard for cluster `c` — the visit-time
    /// twin of a demand [`ShardCache::fault`] miss, running the *same*
    /// evict→charge→evict sequence with the same LRU clock tick, so the
    /// cache's residency trace is identical whether a shard arrived by
    /// fault or by prefetch.
    fn commit(&mut self, c: usize, shard: Shard) -> &Shard {
        debug_assert!(self.resident[c].is_none(), "staged cluster {c} already resident");
        self.tick += 1;
        self.evict_over_budget(usize::MAX);
        self.stats.prefetch_committed += 1;
        self.resident_bytes += shard.bytes;
        self.resident[c] = Some(shard);
        self.note_peak(); // transient charge-before-evict state counts
        self.evict_over_budget(c);
        self.note_peak();
        let tick = self.tick;
        let shard = self.resident[c].as_mut().expect("shard resident after commit");
        shard.last_use = tick;
        shard
    }

    /// Evicts least-recently-used shards (never `pin`, the shard being
    /// scanned) until the ledger fits the budget. A single shard larger
    /// than the whole budget stays resident alone — the `budget + one
    /// shard` peak contract.
    fn evict_over_budget(&mut self, pin: usize) {
        while self.resident_bytes > self.budget {
            let victim = self
                .resident
                .iter()
                .enumerate()
                .filter(|(i, s)| *i != pin && s.is_some())
                .min_by_key(|(_, s)| s.as_ref().expect("resident").last_use)
                .map(|(i, _)| i);
            let Some(v) = victim else { break };
            let bytes = self.resident[v].take().expect("victim resident").bytes;
            self.resident_bytes -= bytes;
            self.stats.shards_evicted += 1;
            self.stats.bytes_evicted += bytes;
        }
    }

    /// Drops every resident shard (used when the quantizer changes so
    /// shards re-materialise with shadows). Counted as evictions.
    fn clear(&mut self) {
        for slot in self.resident.iter_mut() {
            if let Some(s) = slot.take() {
                self.resident_bytes -= s.bytes;
                self.stats.shards_evicted += 1;
                self.stats.bytes_evicted += s.bytes;
            }
        }
    }
}

/// The shard-paged exact clustered index over a borrowed (typically
/// mmap-backed) source view. See the [module docs](self) for the paging and
/// exactness contracts.
pub struct ShardedIndex<'a> {
    /// The source rows — on the out-of-core path, a window over a
    /// memory-mapped [`snoopy_linalg::disk::DiskDataset`].
    source: DatasetView<'a>,
    engine: EvalEngine,
    /// The partition (centroids, radii, member ids per cluster, prune
    /// constants) — always resident; shard `c` gathers `ids[range(c)]`.
    layout: ClusterLayout,
    /// The frozen affine fitted over the *whole* source at
    /// [`ShardedIndex::quantize`] time — every shard encodes against it, so
    /// eviction and re-faulting cannot change any code.
    quantizer: Option<AffineQuantizer>,
    cache: ShardCache,
}

impl<'a> ShardedIndex<'a> {
    /// Builds a shard-paged index over `source` with (at most) `nlist`
    /// k-means clusters and an LRU shard cache of `budget_bytes`, using a
    /// parallel default engine for the build. The build streams the source
    /// twice (k-means plus one radii/member pass) and materialises no row
    /// buffer — per-row residency starts at one `usize` id.
    ///
    /// # Panics
    /// Panics for [`Metric::Cosine`] (not triangle-prunable) or an empty
    /// `source`.
    pub fn build(source: DatasetView<'a>, metric: Metric, nlist: usize, budget_bytes: usize) -> Self {
        Self::build_with_engine(source, metric, nlist, budget_bytes, EvalEngine::parallel())
    }

    /// [`ShardedIndex::build`] with an explicit engine (the engine's thread
    /// count drives the k-means assignment passes; queries themselves run
    /// serially — see the [module docs](self)).
    pub fn build_with_engine(
        source: DatasetView<'a>,
        metric: Metric,
        nlist: usize,
        budget_bytes: usize,
        engine: EvalEngine,
    ) -> Self {
        assert!(crate::EvalBackend::prunable(metric), "cosine dissimilarity is not triangle-prunable");
        assert!(!source.is_empty(), "cannot build a sharded index over an empty dataset");
        let km = lloyd_kmeans(source, nlist, KMEANS_MAX_ITERS, KMEANS_SEED, engine.threads());
        // The resident index's grouping and geometry, minus the row copy:
        // per-row centroid distances are shard metadata, recomputed at fault.
        let layout = ClusterLayout::build(source, metric, &km.centroids, &km.assignments, |_| {});
        let cache = ShardCache::new(layout.num_clusters(), budget_bytes);
        ShardedIndex { source, engine, layout, quantizer: None, cache }
    }

    /// Attaches the int8 quantization: fits the affine over the whole
    /// source (one streaming pass) and freezes it, so every shard —
    /// including ones re-faulted after eviction — encodes identically.
    /// Resident shards are dropped and re-materialise with shadows on next
    /// visit. Results stay bit-identical (the shadow only selects re-rank
    /// candidates); data past the overflow guard simply scans exact.
    pub fn quantize(mut self) -> Self {
        self.quantizer = Some(AffineQuantizer::fit(self.source));
        self.cache.clear();
        self
    }

    /// Whether a frozen quantizer is attached.
    pub fn is_quantized(&self) -> bool {
        self.quantizer.is_some()
    }

    /// Replaces the engine. The build has already run, so the engine now
    /// only sets the tile length of the shard scans.
    pub fn with_engine(mut self, engine: EvalEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Number of indexed source rows.
    pub fn len(&self) -> usize {
        self.layout.ids.len()
    }

    /// Whether the index is empty (never — build rejects empty sources —
    /// but the standard pair keeps clippy and callers honest).
    pub fn is_empty(&self) -> bool {
        self.layout.ids.is_empty()
    }

    /// Number of (non-empty) clusters = number of shards.
    pub fn num_clusters(&self) -> usize {
        self.layout.num_clusters()
    }

    /// The metric the index was built for.
    pub fn metric(&self) -> Metric {
        self.layout.bounds.metric()
    }

    /// The configured shard-cache budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.cache.budget
    }

    /// The current prefetch pipeline depth `P` (0 = fully serial paging).
    pub fn prefetch_depth(&self) -> usize {
        self.cache.prefetch_depth
    }

    /// Sets the prefetch pipeline depth: up to `depth` upcoming shards
    /// materialise speculatively on `snoopy-pool` workers while the current
    /// one scans (see the [module docs](self)). Depth 0 (the build default)
    /// restores the fully serial fault→scan loop. Results are bit-identical
    /// at every depth and worker count; peak residency is bounded by
    /// `budget + max_shard × (1 + depth)`.
    pub fn set_prefetch_depth(&mut self, depth: usize) {
        self.cache.prefetch_depth = depth;
    }

    /// Builder-style [`ShardedIndex::set_prefetch_depth`].
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.set_prefetch_depth(depth);
        self
    }

    /// Cumulative paging counters since build.
    pub fn paging_stats(&self) -> PagingStats {
        self.cache.stats
    }

    /// The current resident footprint, the budget, and the peak — the
    /// residency contract is `peak ≤ budget + max_shard × (1 + prefetch_depth)`.
    pub fn resident_bytes(&self) -> PagedResidentBytes {
        let mut rb = self.layout.bytes();
        rb.quantized_meta += self.quantizer.as_ref().map_or(0, |q| q.param_bytes());
        for shard in self.cache.resident.iter().flatten() {
            rb.add(&shard.rows.bytes());
        }
        PagedResidentBytes {
            resident: rb,
            budget: self.cache.budget,
            peak: self.cache.peak_resident,
            staged: self.cache.staged_bytes,
            max_shard: self.cache.max_shard_bytes,
        }
    }

    /// Answers one query into `state`: clusters ordered by ascending lower
    /// bound, shards faulted only when visited, scan stopping at the first
    /// unbeatable cluster — the prune order is the paging order. With a
    /// non-zero prefetch depth, upcoming shards materialise on pool workers
    /// (via `pf`) while this thread scans the current one.
    fn query_into(
        &mut self,
        query: &ScanQuery<'_>,
        state: &mut TopKState,
        scratch: &mut ScanScratch,
        pf: &mut Prefetcher,
        stats: &mut PruneStats,
    ) {
        self.layout.order(query.q, scratch, stats);
        pf.begin_query(&scratch.order);
        let ShardedIndex { source, layout, quantizer, cache, .. } = self;
        let metric = layout.bounds.metric();
        for pos in 0..scratch.order.len() {
            let (lb, dqc, c) = scratch.order[pos];
            let tau_sq = query.tau_sq(state);
            // Clusters are ordered by ascending bound and τ only shrinks, so
            // the first unbeatable cluster ends the query — and with it, the
            // paging.
            if tau_sq.is_some_and(|t| query.prunes(lb, t)) {
                break;
            }
            stats.clusters_visited += 1;
            // Top the pipeline up *before* touching this visit's shard: the
            // workers materialise what comes next while this thread faults
            // (if needed) and scans the current cluster.
            pf.top_up(cache, &scratch.order, pos, tau_sq, query.err, layout, *source, quantizer.as_ref());
            let ids = &layout.ids[layout.range(c)];
            let centroid = layout.centroids.row(c);
            let shard = match pf.take(cache, c) {
                Some(staged) => cache.commit(c, staged),
                None => cache.fault(c, || load_shard(*source, metric, ids, centroid, quantizer.as_ref())),
            };
            let qq = shard.rows.prepare_query(query.q, scratch);
            shard.rows.cluster(0..ids.len(), ids, qq.as_ref()).scan(query, dqc, state, scratch, stats);
        }
    }

    /// Folds the indexed source rows into the running top-k state of every
    /// query row — the paged counterpart of `ClusteredIndex::update_topk`,
    /// same streamable fold semantics. The scan itself runs on this thread;
    /// with a non-zero [`ShardedIndex::set_prefetch_depth`] upcoming shards
    /// materialise concurrently on pool workers (see the
    /// [module docs](self)).
    ///
    /// # Panics
    /// Panics on dimension mismatches or `states.len() != queries.rows()`.
    pub fn update_topk(
        &mut self,
        queries: DatasetView<'_>,
        offset: usize,
        states: &mut [TopKState],
        exclude_self: Option<usize>,
    ) -> PruneStats {
        assert_eq!(queries.cols(), self.source.cols(), "query/train dimensionality mismatch");
        assert_eq!(states.len(), queries.rows(), "one top-k state per query required");
        let mut stats = PruneStats::default();
        let mut scratch = ScanScratch::new(&self.engine, &self.layout, self.quantizer.is_some());
        let mut pf = Prefetcher::new(self.num_clusters(), self.cache.prefetch_depth);
        let bounds = self.layout.bounds;
        for (qi, state) in states.iter_mut().enumerate() {
            let skip = exclude_self.map(|b| b + qi).unwrap_or(usize::MAX);
            let query = ScanQuery::new(queries.row(qi), &bounds, offset, skip);
            self.query_into(&query, state, &mut scratch, &mut pf, &mut stats);
        }
        // Resolve every outstanding speculative load before returning —
        // the soundness condition of `PrefetchJob`'s pointer erasure.
        pf.drain(&mut self.cache);
        stats
    }

    /// Top-k neighbour table for every query, from a cold start —
    /// bit-identical to `EvalEngine::topk` and `ClusteredIndex::topk` on
    /// the same data.
    pub fn topk(&mut self, queries: DatasetView<'_>, k: usize) -> NeighborTable {
        self.topk_with_stats(queries, k).0
    }

    /// [`ShardedIndex::topk`] plus the pruning counters (paging counters
    /// accumulate on the index — [`ShardedIndex::paging_stats`]).
    pub fn topk_with_stats(&mut self, queries: DatasetView<'_>, k: usize) -> (NeighborTable, PruneStats) {
        let mut states = vec![TopKState::new(k.max(1)); queries.rows()];
        let stats = self.update_topk(queries, 0, &mut states, None);
        (NeighborTable::from_states(&states), stats)
    }

    /// Leave-one-out top-k table of the indexed data against itself (row
    /// `i` of `data` must be row `i` of the source view) — bit-identical to
    /// `EvalEngine::topk_loo`.
    pub fn topk_loo(&mut self, data: DatasetView<'_>, k: usize) -> NeighborTable {
        self.topk_loo_with_stats(data, k).0
    }

    /// [`ShardedIndex::topk_loo`] plus the pruning counters.
    pub fn topk_loo_with_stats(&mut self, data: DatasetView<'_>, k: usize) -> (NeighborTable, PruneStats) {
        let mut states = vec![TopKState::new(k.max(1)); data.rows()];
        let stats = self.update_topk(data, 0, &mut states, Some(0));
        (NeighborTable::from_states(&states), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{knn_reference, knn_reference_loo};
    use crate::ClusteredIndex;
    use snoopy_linalg::Matrix;

    fn blobs(n: usize, d: usize, centers: usize, seed: u64) -> Matrix {
        snoopy_testutil::blob_cloud(seed, n, d, centers, 6.0, 0.2)
    }

    #[test]
    fn sharded_matches_reference_under_tight_budget() {
        let train = blobs(400, 8, 8, 1);
        let queries = blobs(60, 8, 8, 2);
        // A budget of roughly one shard forces eviction churn on every query.
        let budget = 8 * 8 * 4 * 60;
        for metric in [Metric::SquaredEuclidean, Metric::Euclidean] {
            let mut index = ShardedIndex::build(train.view(), metric, 8, budget);
            for k in [1usize, 3, 10, 400] {
                let got = index.topk(queries.view(), k);
                assert_eq!(got, knn_reference(train.view(), queries.view(), metric, k), "k {k}");
            }
            assert!(index.paging_stats().shards_evicted >= 2, "{:?}", index.paging_stats());
        }
    }

    #[test]
    fn sharded_matches_resident_clustered_bit_for_bit() {
        let train = blobs(500, 6, 10, 11);
        let queries = blobs(40, 6, 10, 12);
        let resident = ClusteredIndex::build(train.view(), Metric::SquaredEuclidean, 10);
        let mut paged = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 10, 2 * 6 * 4 * 500 / 10);
        assert_eq!(paged.topk(queries.view(), 5), resident.topk(queries.view(), 5));
        assert_eq!(paged.topk_loo(train.view(), 3), resident.topk_loo(train.view(), 3));
        // Both indexes run the one scan core, and no scan decision depends
        // on residency, so even the pruning counters agree at this budget.
        assert_eq!(paged.topk_with_stats(queries.view(), 5).1, resident.topk_with_stats(queries.view(), 5).1);
        assert_eq!(
            paged.topk_loo_with_stats(train.view(), 3).1,
            resident.topk_loo_with_stats(train.view(), 3).1
        );
    }

    #[test]
    fn quantized_sharded_stays_exact_and_pages() {
        let train = blobs(600, 12, 10, 21);
        let queries = blobs(50, 12, 10, 22);
        let budget = 3 * (600 / 10) * 12 * 4; // ~3 shards of f32 rows
        let mut index = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 10, budget).quantize();
        assert!(index.is_quantized());
        let (table, stats) = index.topk_with_stats(queries.view(), 5);
        assert_eq!(table, knn_reference(train.view(), queries.view(), Metric::SquaredEuclidean, 5));
        assert!(stats.rows_quantized > 0, "shards must carry shadows: {stats:?}");
        let paging = index.paging_stats();
        assert!(paging.shards_faulted > index.num_clusters(), "re-faults expected: {paging:?}");
        assert!(paging.shards_evicted >= 2, "{paging:?}");
    }

    #[test]
    fn residency_contract_peak_at_most_budget_plus_one_shard() {
        let train = blobs(800, 10, 16, 31);
        let queries = blobs(64, 10, 16, 32);
        for budget in [1usize, 40 * 10 * 4, 4 * 50 * 10 * 4, usize::MAX / 2] {
            let mut index = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 16, budget);
            index.topk(queries.view(), 5);
            let rb = index.resident_bytes();
            assert!(
                rb.peak <= rb.budget.saturating_add(rb.max_shard),
                "peak {} budget {} max_shard {}",
                rb.peak,
                rb.budget,
                rb.max_shard
            );
            assert!(rb.resident.train_rows + rb.resident.row_meta > 0 || rb.budget == 1);
        }
    }

    #[test]
    fn never_visited_clusters_are_never_faulted() {
        // Well-separated blobs: the bound rejects most clusters, and a
        // rejected cluster must cost zero I/O.
        let train = blobs(600, 6, 12, 41);
        let queries = blobs(30, 6, 12, 42);
        let mut index = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 12, usize::MAX / 2);
        let (_, stats) = index.topk_with_stats(queries.view(), 3);
        let paging = index.paging_stats();
        assert!(stats.cluster_prune_rate() > 0.5, "{stats:?}");
        // With an unbounded budget nothing evicts, so distinct faulted
        // shards = clusters ever visited ≤ clusters visited across queries.
        assert_eq!(paging.shards_evicted, 0);
        assert!(paging.shards_faulted <= index.num_clusters());
        assert!(paging.shards_faulted < 12, "pruned clusters must stay on disk: {paging:?}");
    }

    #[test]
    fn loo_excludes_self_and_matches_reference() {
        let data = blobs(150, 5, 6, 51);
        let mut index = ShardedIndex::build(data.view(), Metric::Euclidean, 6, 5 * 5 * 4 * 30);
        let got = index.topk_loo(data.view(), 4);
        assert_eq!(got, knn_reference_loo(data.view(), Metric::Euclidean, 4));
        for qi in 0..got.num_queries() {
            assert!(got.neighbors(qi).iter().all(|h| h.index != qi));
        }
    }

    #[test]
    #[should_panic(expected = "not triangle-prunable")]
    fn cosine_sharded_panics() {
        let data = blobs(10, 3, 2, 1);
        let _ = ShardedIndex::build(data.view(), Metric::Cosine, 2, usize::MAX / 2);
    }

    #[test]
    fn prefetch_matches_serial_bit_for_bit() {
        let train = blobs(500, 8, 10, 61);
        let queries = blobs(60, 8, 10, 62);
        let budget = 2 * (500 / 10) * 8 * 4; // ~2 shards: heavy eviction churn
        let mut serial = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 10, budget);
        let reference = serial.topk(queries.view(), 5);
        let serial_paging = serial.paging_stats();
        assert!(serial_paging.shards_evicted >= 2, "{serial_paging:?}");
        for depth in [1usize, 2, 8] {
            let mut piped = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 10, budget)
                .with_prefetch_depth(depth);
            assert_eq!(piped.prefetch_depth(), depth);
            assert_eq!(piped.topk(queries.view(), 5), reference, "depth {depth}");
            let paging = piped.paging_stats();
            // The LRU cache sees the same admission sequence whether a shard
            // arrived by fault or by commit, so the eviction trace is pinned.
            assert_eq!(paging.shards_evicted, serial_paging.shards_evicted, "depth {depth}");
            assert_eq!(
                paging.shards_faulted + paging.prefetch_committed,
                serial_paging.shards_faulted,
                "depth {depth}: every serial fault is either a fault or a commit"
            );
        }
    }

    #[test]
    fn prefetch_counters_balance_and_commit() {
        let train = blobs(600, 10, 12, 71);
        let queries = blobs(50, 10, 12, 72);
        let budget = 3 * (600 / 12) * 10 * 4;
        let mut index =
            ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 12, budget).with_prefetch_depth(4);
        let table = index.topk(queries.view(), 5);
        assert_eq!(table, knn_reference(train.view(), queries.view(), Metric::SquaredEuclidean, 5));
        let paging = index.paging_stats();
        assert!(paging.prefetch_committed >= 1, "pipeline must land commits: {paging:?}");
        assert_eq!(
            paging.shards_prefetched,
            paging.prefetch_committed + paging.prefetch_wasted,
            "every speculative load ends committed or wasted: {paging:?}"
        );
        assert!(paging.bytes_prefetched > 0, "{paging:?}");
        let rb = index.resident_bytes();
        assert_eq!(rb.staged, 0, "staging drains before update_topk returns");
    }

    #[test]
    fn prefetch_residency_contract_holds() {
        let train = blobs(800, 10, 16, 81);
        let queries = blobs(64, 10, 16, 82);
        for depth in [1usize, 3] {
            for budget in [1usize, 40 * 10 * 4, 4 * 50 * 10 * 4] {
                let mut index = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 16, budget)
                    .with_prefetch_depth(depth);
                index.topk(queries.view(), 5);
                let rb = index.resident_bytes();
                let allowance = rb.max_shard.saturating_mul(1 + depth);
                assert!(
                    rb.peak <= rb.budget.saturating_add(allowance),
                    "depth {depth}: peak {} budget {} max_shard {}",
                    rb.peak,
                    rb.budget,
                    rb.max_shard
                );
            }
        }
    }

    #[test]
    fn prefetch_quantized_and_loo_stay_exact() {
        let train = blobs(600, 12, 10, 91);
        let queries = blobs(50, 12, 10, 92);
        let budget = 3 * (600 / 10) * 12 * 4;
        let mut index = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 10, budget)
            .quantize()
            .with_prefetch_depth(2);
        let table = index.topk(queries.view(), 5);
        assert_eq!(table, knn_reference(train.view(), queries.view(), Metric::SquaredEuclidean, 5));
        let mut loo = ShardedIndex::build(train.view(), Metric::Euclidean, 10, budget).with_prefetch_depth(3);
        assert_eq!(loo.topk_loo(train.view(), 4), knn_reference_loo(train.view(), Metric::Euclidean, 4));
    }
}

//! Exact-pruned clustered nearest-neighbour index: a k-means coarse partition
//! plus triangle-inequality pruning, behind the same [`NeighborTable`]
//! handshake as the exhaustive engine.
//!
//! The exhaustive [`EvalEngine`] visits every training row per query —
//! `O(n · m · d)` for `n` training rows and `m` queries. On clustered
//! embedding spaces most of that work provably cannot change the answer:
//! once a query holds `k` candidates, whole clusters whose *lower bound* on
//! any member's distance exceeds the current k-th admitted distance can be
//! skipped without looking at a single row. [`ClusteredIndex`] implements
//! that sublinear-work path while keeping results **bit-identical** to the
//! exhaustive engine.
//!
//! ## Exactness argument
//!
//! Let `e(a, b)` be the true Euclidean distance. For a query `q`, a cluster
//! centroid `c` with radius `r_c = max_{x ∈ c} e(x, c)`, and a member row
//! `x`, the triangle inequality gives two lower bounds:
//!
//! * **cluster bound** — `e(q, x) ≥ max(0, e(q, c) − r_c)`,
//! * **per-row bound** — `e(q, x) ≥ |e(q, c) − e(x, c)|`.
//!
//! [`Metric::SquaredEuclidean`] and [`Metric::Euclidean`] are monotone
//! remappings of `e` (squaring, identity), so a bound `b` on `e` remaps to a
//! bound `b²` (resp. `b`) on the stored distance, and a candidate can only be
//! admitted if its remapped distance is lexicographically `< (τ, i)` where
//! `τ` is the current k-th admitted distance. A cluster or row is skipped
//! **only** when its remapped bound strictly exceeds `τ`; on equality it is
//! still scanned, because an equal-distance row with a lower global index
//! must still be admitted (the crate-wide `(distance, index)` tie-break).
//!
//! Floating point: the engine computes distances in `f32` through the
//! tile-blocked [`MetricKernel`](crate::kernel::MetricKernel) — the norm trick
//! `‖q − x‖² = ‖q‖² + ‖x‖² − 2⟨q, x⟩` — while the index computes all
//! centroid geometry (`e(q, c)`, `e(x, c)`, `r_c`) in `f64`, where it is
//! accurate to ~`2⁻⁵⁰`. The norm trick's rounding error is *absolute*, not
//! relative: cancellation between the norm and dot terms can make the
//! computed `f32` squared distance smaller than the true one by up to
//! `~(d + 11)·ε_f32·(‖q‖ + ‖x‖)²` (it is clamped at zero, which only raises
//! it). Every prune comparison therefore runs in **squared-distance space**
//! and requires
//!
//! ```text
//! lb² · (1 − (2d + 32)·ε)  −  coeff·ε·(‖q‖ + max_row_norm)²  >  τ² + guard
//! ```
//!
//! where `lb` is the `f64` Euclidean lower bound, the relative slack covers
//! the `f64` geometry, the absolute term (`coeff = 2(d + 16)`, a global
//! `max_row_norm` so the cluster scan order's early exit stays monotone in
//! `lb`) covers the kernel's cancellation error, `τ²` is the squared current
//! k-th admitted distance (inflated by `8ε` for Euclidean consumers to cover
//! the square root's rounding), and `guard` is the smallest normal `f32`,
//! covering subnormal underflow (a squared distance below the normal `f32`
//! range can round to exactly `0.0` while the `f64` bound stays positive) —
//! in particular a threshold of `0` (a perfect hit already admitted)
//! disables pruning outright. The slack and guards sacrifice a vanishing
//! amount of pruning power and never correctness; the proptests in
//! `proptest_clustered.rs` pin the bit-for-bit parity across metrics, `k`,
//! duplicate rows, and degenerate shapes, and the subnormal-underflow
//! regression test pins the guard.
//!
//! Inside a visited cluster, rows are evaluated with the engine's own tile
//! kernel ([`MetricKernel::tile_with`](crate::kernel::MetricKernel::tile_with))
//! whenever a whole tile survives the per-row bound (the common case),
//! falling back to the bit-identical per-pair path when a tile is broken by
//! a pruned or self-excluded row — distance values never depend on which
//! path computed them.
//!
//! ## Two-phase int8 scan (the quantized shadow)
//!
//! After the tile kernels, a visited row's cost is dominated by *memory
//! traffic*: 4 bytes/dim of f32. [`ClusteredIndex::quantize`] attaches a
//! [`QuantizedShadow`](crate::quantized::QuantizedShadow) — a per-dimension
//! affine int8 copy of the regrouped rows (`x ≈ s ∘ X + o`, codes in
//! `[−127, 127]`, stored cluster-contiguous like the f32 buffer) — and
//! visited clusters then scan in two phases:
//!
//! 1. **Approximate phase** — an *integer* dot tile
//!    ([`snoopy_linalg::kernel::dot_q8_row_tile`], `i16 × i8 → i32`, exact
//!    and associative, hence trivially deterministic and free to
//!    autovectorize into widening multiply-adds) computes `â ≈ ‖q − x̂‖²`
//!    against each row's *reconstruction point* `x̂ = fl(s ∘ X) + o` from
//!    **one byte per dimension**: with `u = fl(q − o)` and `w = fl(u ∘ s)`,
//!    the query side is re-quantized onto one query-level scale `g`
//!    (`v = round(w / g)`, `|v| ≤ 8191`) and the norm trick gives
//!    `â = (‖u‖² + ‖y‖²) − 2g·⟨v, X⟩` finished in f64 from exact inputs,
//!    where `y = fl(s ∘ X)` and `‖y‖²` is precomputed per row.
//! 2. **Exact re-rank** — rows the widened bound below cannot exclude go
//!    through the *exact* f32
//!    [`MetricKernel::pair_with`](crate::kernel::MetricKernel::pair_with) and
//!    are offered into the same [`TopKState`], interleaved per tile so every
//!    admission tightens τ for the very next tile. Only the exact kernel's
//!    values are ever admitted, so the final [`NeighborTable`] is
//!    bit-identical to the exhaustive engine — phase 1 only decides *which*
//!    rows get the exact treatment.
//!
//! **Widened bound derivation.** The shadow stores, per row, an upper bound
//! `r_i ≥ e(x_i, x̂_i)` on the reconstruction distance (computed exactly in
//! f64 at encode time — clamping included — and rounded *up* into f32). The
//! triangle inequality gives `e(q, x_i) ≥ e(q, x̂_i) − r_i`. The computed
//! `â` approximates `e(q, x̂_i)²` with two separately-accounted error
//! sources:
//!
//! * **Float roundings** — forming `u`, `w`, and `y` (~5ε of products) plus
//!   the two fixed-order f32 norm accumulations; the integer dot and the
//!   f64 finishing contribute nothing at f32 scale. The inventory totals
//!   below `(d + 16)·ε_f32·(‖u‖ + M)²` where `M = max_i ‖y_i‖`; the shadow
//!   budgets `margin = 2(d + 32)·ε_f32·(‖u‖ + M)²` — double it.
//! * **Query quantization** — replacing `w` by `g·v` perturbs the dot term
//!   by `|2 Σ_j (w_j − g v_j) X_{ij}| ≤ 1.02·g·Σ_j |X_{ij}|` (half a step
//!   plus division-rounding slack per code). This is *exact per row*: the
//!   shadow stores `A_i = Σ_j |X_{ij}|` and the scan subtracts
//!   `qslack·A_i`, `qslack = 1.02·g`, instead of smearing a worst-case
//!   term over every row.
//!
//! Hence
//!
//! ```text
//! e(q, x̂_i)² ≥ â − margin − qslack·A_i
//! e(q, x_i)  ≥ √(max(0, â − margin − qslack·A_i)) − r_i
//! ```
//!
//! is a valid Euclidean lower bound, fed through *the same* slack + guard
//! comparison as the centroid bounds. To avoid a per-row square root the
//! scan precomputes (lazily, only when τ changes) the threshold
//! `T = √((τ² + guard + err) / slack)` — the `prunes` inequality solved for
//! the bound — and tests `â − margin − qslack·A_i > (T + r_i)²`, which is
//! exactly equivalent for non-negative operands. A row is skipped **only**
//! when the widened, slack-deflated bound strictly clears τ, so a
//! quantization error can only cost a wasted exact evaluation, never a
//! missed neighbour. The margin model is absolute, so it additionally
//! requires that no f32 intermediate overflows and that the integer dot
//! stays inside i32: norms above `snoopy-knn::quantized`'s
//! `MAX_SAFE_NORM = 10¹⁸` disable the shadow (whole index or single query),
//! widths above `MAX_QUANTIZED_DIMS = 2000` disable it at build, and both
//! fall back to the exact scan — see the overflow-guard notes in
//! [`crate::quantized`].
//!
//! In quantized mode the f64 per-row centroid bound is *replaced* by the
//! int8 bound inside visited clusters (reading the 8-byte `row_center`
//! entries would defeat the 1-byte/dim traffic goal); the cluster-level
//! bound and visit order are unchanged. [`PruneStats`] separates the two
//! phases: `rows_quantized` counts phase-1 approximate evaluations,
//! `rows_scanned` keeps its meaning of *exact* kernel evaluations (= the
//! re-rank count), and [`PruneStats::rerank_rate`] reports how tight the
//! int8 bound is in practice.
//!
//! [`Metric::Cosine`] is *not* a metric (no triangle inequality on the
//! dissimilarity), so cosine consumers always take the exhaustive path — the
//! [`EvalBackend`] dispatchers fall back automatically.
//!
//! ## Anatomy
//!
//! Construction runs [`lloyd_kmeans`] (seeded via `snoopy_linalg::rng`, so
//! indexes are deterministic), drops empty clusters, and copies the rows
//! into one cluster-contiguous buffer, ascending by original index within a
//! cluster — each regrouped row remembers its original index, which is what
//! gets admitted into [`TopKState`]s so tie-breaks and downstream label
//! lookups are oblivious to the regrouping. A query computes all centroid
//! distances, sorts clusters by lower bound, and scans them in order with
//! the same distance expressions as the engine kernel until the next
//! cluster's bound can no longer beat the current k-th distance.
//!
//! That query-side work — the partition, the cluster ordering, the exact
//! tile scan and the two-phase int8 scan — lives once, in the crate's
//! private cluster-scan core (the `scan` module), which the shard-paged
//! [`crate::sharded::ShardedIndex`] runs too. This index supplies rows
//! `offsets[c]..offsets[c + 1]` of its one contiguous buffer per visited
//! cluster and prepares each query against its shadow once. Queries are
//! chunked across the configured engine's worker threads exactly like the
//! exhaustive kernel; per-cluster visit order is per-query, so the scan is
//! a straight row-contiguous loop rather than the engine's cross-query
//! block walk.
//!
//! Every query path reports [`PruneStats`] — clusters visited vs total and
//! rows scanned vs pruned — which `bench_knn_json` emits into
//! `BENCH_knn.json` as the pruning-rate regression anchor.

use crate::engine::{EvalEngine, NeighborTable, TopKState};
use crate::metric::Metric;
use crate::quantized::AffineQuantizer;
use crate::scan::{ClusterLayout, RowBlock, ScanQuery, ScanScratch};
use snoopy_linalg::kmeans::lloyd_kmeans;
use snoopy_linalg::{DatasetView, Matrix};

/// Which evaluation path a distance consumer routes through.
///
/// Both backends speak the same [`NeighborTable`] handshake and return
/// bit-identical tables; `Clustered` merely skips work that provably cannot
/// change the answer. Auto-selection ([`EvalBackend::auto_for`]) picks
/// `Clustered` once the training side is large enough to amortise the
/// k-means build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalBackend {
    /// The exhaustive blocked engine: every query visits every training row.
    Exhaustive,
    /// k-means coarse partition with `nlist` clusters plus exact
    /// triangle-inequality pruning (`nlist` is clamped to the training-row
    /// count at build time). Falls back to [`EvalBackend::Exhaustive`] for
    /// cosine dissimilarity and empty training sets.
    Clustered {
        /// Number of k-means clusters to partition the training rows into.
        nlist: usize,
        /// Attach the int8 quantized shadow: visited clusters scan
        /// approximately at one byte per dimension and only bound-surviving
        /// rows are re-ranked through the exact f32 kernel (see the
        /// [module docs](self) — results stay bit-identical either way).
        quantize: bool,
    },
}

/// Minimum training rows before [`EvalBackend::auto_for`] picks clustering:
/// below this the k-means build costs more than the scans it saves.
pub const AUTO_MIN_TRAIN: usize = 4096;

/// Minimum queries before [`EvalBackend::auto_for`] picks clustering: the
/// build cost is amortised across queries.
pub const AUTO_MIN_QUERIES: usize = 32;

impl EvalBackend {
    /// Train-size auto-selection heuristic: clustering pays once the k-means
    /// build (`O(n · nlist · d)` per iteration) is amortised over enough
    /// queries, and is only sound for triangle-prunable metrics. Returns
    /// [`EvalBackend::Clustered`] with [`EvalBackend::default_nlist`] when
    /// `train_rows ≥` [`AUTO_MIN_TRAIN`], `num_queries ≥`
    /// [`AUTO_MIN_QUERIES`], and the metric is prunable; otherwise
    /// [`EvalBackend::Exhaustive`].
    pub fn auto_for(train_rows: usize, num_queries: usize, metric: Metric) -> EvalBackend {
        if Self::prunable(metric) && train_rows >= AUTO_MIN_TRAIN && num_queries >= AUTO_MIN_QUERIES {
            // Auto-selection stays unquantized: the shadow *adds* resident
            // memory (codes + per-row radii on top of the f32 rows) and only
            // pays off on scan-bound workloads — an explicit opt-in via
            // `EvalBackend::quantized` keeps the default footprint-neutral.
            Self::clustered(Self::default_nlist(train_rows))
        } else {
            EvalBackend::Exhaustive
        }
    }

    /// The plain clustered backend: coarse partition plus exact pruning,
    /// scanning visited rows in f32.
    pub const fn clustered(nlist: usize) -> EvalBackend {
        EvalBackend::Clustered { nlist, quantize: false }
    }

    /// The quantized clustered backend: same partition, but visited clusters
    /// run the two-phase int8-then-exact scan of the [module docs](self).
    pub const fn quantized(nlist: usize) -> EvalBackend {
        EvalBackend::Clustered { nlist, quantize: true }
    }

    /// The default cluster count for a training set: `⌈√n⌉`, the classic
    /// balance point where centroid scans and intra-cluster scans cost the
    /// same.
    pub fn default_nlist(train_rows: usize) -> usize {
        (train_rows as f64).sqrt().ceil().max(1.0) as usize
    }

    /// Whether `metric` admits triangle-inequality pruning (everything except
    /// cosine dissimilarity, which is not a metric).
    pub fn prunable(metric: Metric) -> bool {
        metric != Metric::Cosine
    }

    /// Resolves this backend against a concrete training set:
    /// `Some((nlist, quantize))` (`nlist` clamped to the row count) when the
    /// clustered path applies, `None` when the exhaustive engine must be
    /// used.
    pub fn resolve(&self, train_rows: usize, metric: Metric) -> Option<(usize, bool)> {
        match *self {
            EvalBackend::Exhaustive => None,
            EvalBackend::Clustered { nlist, quantize } => {
                (Self::prunable(metric) && train_rows > 0).then(|| (nlist.clamp(1, train_rows), quantize))
            }
        }
    }

    /// Short name for reports and benchmark JSON.
    pub fn name(&self) -> &'static str {
        match self {
            EvalBackend::Exhaustive => "exhaustive",
            EvalBackend::Clustered { quantize: false, .. } => "clustered",
            EvalBackend::Clustered { quantize: true, .. } => "quantized",
        }
    }
}

/// Pruning counters accumulated by clustered query paths.
///
/// `clusters_total` / `rows_total` count the work the exhaustive engine
/// would have done (per query); `clusters_visited` counts clusters whose
/// rows were looked at, `rows_scanned` counts *exact* distance evaluations
/// (on a quantized index: the phase-2 re-ranks), `rows_pruned` counts rows
/// skipped by a per-row bound inside visited clusters, and `rows_quantized`
/// counts phase-1 int8 approximate evaluations (zero on an unquantized
/// index). Rows in never-visited clusters appear in none of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Queries answered.
    pub queries: usize,
    /// Clusters whose rows were scanned (summed over queries).
    pub clusters_visited: usize,
    /// Clusters times queries — the exhaustive cluster-visit count.
    pub clusters_total: usize,
    /// Exact query–row distance evaluations actually performed (phase 2 on
    /// a quantized index).
    pub rows_scanned: usize,
    /// Rows skipped by a per-row bound inside visited clusters.
    pub rows_pruned: usize,
    /// Training rows times queries — the exhaustive distance count.
    pub rows_total: usize,
    /// Phase-1 int8 approximate evaluations (candidate tests) on a
    /// quantized index; 0 on the f32 path.
    pub rows_quantized: usize,
}

impl PruneStats {
    /// Folds another stats block into this one.
    pub fn merge(&mut self, other: &PruneStats) {
        self.queries += other.queries;
        self.clusters_visited += other.clusters_visited;
        self.clusters_total += other.clusters_total;
        self.rows_scanned += other.rows_scanned;
        self.rows_pruned += other.rows_pruned;
        self.rows_total += other.rows_total;
        self.rows_quantized += other.rows_quantized;
    }

    /// Fraction of cluster visits skipped: `1 − visited / total` (0 when no
    /// query ran).
    pub fn cluster_prune_rate(&self) -> f64 {
        if self.clusters_total == 0 {
            0.0
        } else {
            1.0 - self.clusters_visited as f64 / self.clusters_total as f64
        }
    }

    /// Fraction of pairwise distances never evaluated exactly:
    /// `1 − scanned / total` (0 when no query ran).
    pub fn row_prune_rate(&self) -> f64 {
        if self.rows_total == 0 {
            0.0
        } else {
            1.0 - self.rows_scanned as f64 / self.rows_total as f64
        }
    }

    /// How loose the int8 bound was: the fraction of phase-1 approximate
    /// evaluations that still needed an exact re-rank,
    /// `rows_scanned / rows_quantized` (0 when nothing was quantized —
    /// callers asserting tightness should check `rows_quantized > 0`).
    pub fn rerank_rate(&self) -> f64 {
        if self.rows_quantized == 0 {
            0.0
        } else {
            self.rows_scanned as f64 / self.rows_quantized as f64
        }
    }
}

/// Deterministic seed for the index's internal k-means run. Clustering
/// quality only affects speed, never results, so a fixed seed keeps index
/// builds reproducible without threading a seed through every call site.
pub const KMEANS_SEED: u64 = 0x5e3d_c0de;

/// Iteration cap for every internal k-means run (resident, shard-paged and
/// incremental): Lloyd's converges fast on the coarse partitions used here,
/// and a stale assignment only costs pruning power, never correctness.
pub(crate) const KMEANS_MAX_ITERS: usize = 16;

/// The exact-pruned clustered index. See the [module docs](self) for the
/// bound derivation and exactness argument.
#[derive(Debug, Clone)]
pub struct ClusteredIndex {
    /// Regrouped cluster-contiguous rows (a copy of the training rows —
    /// bit-identical values, new order) with their centroid distances, the
    /// tile kernel bound to them, and the int8 shadow once
    /// [`ClusteredIndex::quantize`]d (absent when the overflow guard
    /// rejected the data, in which case scans stay exact-only).
    rows: RowBlock,
    /// The partition: cluster `c` occupies regrouped rows `range(c)`, and
    /// `ids[r]` is regrouped row `r`'s original index (what gets admitted).
    layout: ClusterLayout,
    engine: EvalEngine,
}

/// Resident heap footprint of a [`ClusteredIndex`], bucketed by role —
/// reported by [`ClusteredIndex::resident_bytes`] so the shadow's footprint
/// claims are measured, not asserted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentBytes {
    /// The regrouped f32 training rows (what an unquantized scan streams).
    pub train_rows: usize,
    /// The int8 codes (what a quantized phase-1 scan streams per row) —
    /// exactly `train_rows / 4` when quantized, 0 otherwise.
    pub quantized_codes: usize,
    /// Quantized per-row book-keeping: code norms, reconstruction radii,
    /// and the affine parameters.
    pub quantized_meta: usize,
    /// Centroid rows plus per-cluster radii and offsets.
    pub centroids: usize,
    /// Per-row index metadata: centroid distances, original-row ids, and
    /// the kernel's norm cache.
    pub row_meta: usize,
}

impl ResidentBytes {
    /// Sum over all buckets.
    pub fn total(&self) -> usize {
        self.train_rows + self.quantized_codes + self.quantized_meta + self.centroids + self.row_meta
    }

    /// Adds another footprint into this one, bucket by bucket.
    pub(crate) fn add(&mut self, other: &ResidentBytes) {
        self.train_rows += other.train_rows;
        self.quantized_codes += other.quantized_codes;
        self.quantized_meta += other.quantized_meta;
        self.centroids += other.centroids;
        self.row_meta += other.row_meta;
    }
}

impl ClusteredIndex {
    /// Builds an index over `train` with (at most) `nlist` k-means clusters,
    /// using a parallel default engine for the build and later queries.
    ///
    /// # Panics
    /// Panics for [`Metric::Cosine`] (not triangle-prunable — use
    /// [`EvalBackend::resolve`] to fall back) or an empty `train`.
    pub fn build(train: DatasetView<'_>, metric: Metric, nlist: usize) -> Self {
        Self::build_with_engine(train, metric, nlist, EvalEngine::parallel())
    }

    /// [`ClusteredIndex::build`] with an explicit engine: the engine's thread
    /// count drives both the k-means assignment passes and later query
    /// chunking.
    pub fn build_with_engine(
        train: DatasetView<'_>,
        metric: Metric,
        nlist: usize,
        engine: EvalEngine,
    ) -> Self {
        assert!(!train.is_empty(), "cannot build a clustered index over an empty dataset");
        let km = lloyd_kmeans(train, nlist, KMEANS_MAX_ITERS, KMEANS_SEED, engine.threads());
        Self::from_assignments(train, metric, &km.centroids, &km.assignments, engine)
    }

    /// Builds an index from a *given* partition — `assignments[i]` is row
    /// `i`'s cluster against `centroids` — skipping the k-means run. Any
    /// total assignment yields valid triangle-inequality bounds (a poor one
    /// only costs pruning power), which is what lets the incremental top-k
    /// state fold appended batches against the centroids of an *earlier*
    /// partition instead of re-clustering per batch.
    ///
    /// # Panics
    /// Panics for [`Metric::Cosine`], an empty `train`, an assignment count
    /// mismatch, or an assignment out of `centroids`' range.
    pub fn from_assignments(
        train: DatasetView<'_>,
        metric: Metric,
        centroids: &Matrix,
        assignments: &[usize],
        engine: EvalEngine,
    ) -> Self {
        assert!(EvalBackend::prunable(metric), "cosine dissimilarity is not triangle-prunable");
        assert!(!train.is_empty(), "cannot build a clustered index over an empty dataset");
        assert_eq!(assignments.len(), train.rows(), "one assignment per training row required");

        let mut row_center = Vec::with_capacity(train.rows());
        let layout = ClusterLayout::build(train, metric, centroids, assignments, |d| row_center.push(d));
        let data = train.select_rows(&layout.ids);
        Self { rows: RowBlock::new(data, row_center, metric), layout, engine }
    }

    /// Attaches the int8 shadow, fitting the per-dimension affine over the
    /// indexed rows themselves: visited clusters switch to the two-phase
    /// scan of the [module docs](self). Results stay bit-identical; on data
    /// whose norms break the overflow guard the shadow is silently skipped
    /// and scans stay exact-only.
    pub fn quantize(mut self) -> Self {
        let quantizer = AffineQuantizer::fit(self.rows.data());
        self.quantize_with(quantizer);
        self
    }

    /// Attaches the int8 shadow against a *frozen* quantizer (the
    /// incremental append path encodes every batch with the affine of the
    /// last full partition, so bounds stay valid without re-fitting per
    /// batch — out-of-range rows are clamped and simply carry a larger
    /// reconstruction radius).
    ///
    /// # Panics
    /// Panics if `quantizer` was fitted for a different dimensionality.
    pub fn quantize_with(&mut self, quantizer: AffineQuantizer) {
        self.rows.quantize(quantizer);
    }

    /// Whether an int8 shadow is attached (false when the overflow guard
    /// rejected the data).
    pub fn is_quantized(&self) -> bool {
        self.rows.is_quantized()
    }

    /// Removes every row whose *original* training index satisfies `evict`,
    /// compacting the cluster-contiguous row buffers, the per-row metadata,
    /// the int8 shadow (codes and bound bookkeeping), and dropping clusters
    /// that become empty — so [`ClusteredIndex::resident_bytes`] shrinks
    /// truthfully. Surviving cluster radii are recomputed from the surviving
    /// members; `max_norm` (a global upper bound in the kernel-error term) is
    /// kept as-is — still a valid bound for the subset, trading a sliver of
    /// pruning power until the next full re-partition. Results stay
    /// bit-identical to an index built cold over the surviving rows with the
    /// same assignment. Returns the number of rows removed.
    ///
    /// The index may become empty; queries against an empty index admit
    /// nothing (the sliding-window caller replaces it at that point).
    pub fn evict_rows(&mut self, evict: impl Fn(usize) -> bool) -> usize {
        let keep: Vec<bool> = self.layout.ids.iter().map(|&o| !evict(o)).collect();
        if keep.iter().all(|&k| k) {
            return 0;
        }
        self.layout.retain_rows(&keep, &mut self.rows)
    }

    /// The resident heap footprint of the index, bucketed by role.
    pub fn resident_bytes(&self) -> ResidentBytes {
        let mut rb = self.layout.bytes();
        rb.add(&self.rows.bytes());
        rb
    }

    /// Replaces the engine driving query-chunk parallelism.
    pub fn with_engine(mut self, engine: EvalEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Swaps the engine in place.
    pub fn set_engine(&mut self, engine: EvalEngine) {
        self.engine = engine;
    }

    /// Number of indexed training rows.
    pub fn len(&self) -> usize {
        self.layout.ids.len()
    }

    /// Whether the index is empty (possible only after
    /// [`ClusteredIndex::evict_rows`] removed every row — an empty index
    /// admits nothing).
    pub fn is_empty(&self) -> bool {
        self.layout.ids.is_empty()
    }

    /// Number of (non-empty) clusters.
    pub fn num_clusters(&self) -> usize {
        self.layout.num_clusters()
    }

    /// The metric the index was built for.
    pub fn metric(&self) -> Metric {
        self.layout.bounds.metric()
    }

    /// Shared chunk-parallel driver: splits `slots` (one per query) into one
    /// contiguous chunk per engine worker thread, runs `chunk_fn(start,
    /// chunk)` on each, and merges the per-chunk [`PruneStats`].
    fn fan_out<S, F>(&self, slots: &mut [S], chunk_fn: F) -> PruneStats
    where
        S: Send,
        F: Fn(usize, &mut [S]) -> PruneStats + Sync,
    {
        let n = slots.len();
        if n == 0 {
            return PruneStats::default();
        }
        let threads = self.engine.threads().min(n);
        if threads <= 1 {
            return chunk_fn(0, slots);
        }
        let chunk = n.div_ceil(threads);
        let mut stats = vec![PruneStats::default(); n.div_ceil(chunk)];
        snoopy_pool::scope(|scope| {
            for ((t, slot), stat) in slots.chunks_mut(chunk).enumerate().zip(stats.iter_mut()) {
                let start = t * chunk;
                let chunk_fn = &chunk_fn;
                scope.spawn(move || {
                    *stat = chunk_fn(start, slot);
                });
            }
        });
        let mut total = PruneStats::default();
        for s in &stats {
            total.merge(s);
        }
        total
    }

    /// Answers queries `[start, start + states.len())` serially with one
    /// [`ScanScratch`]: per query, orders clusters by lower bound and scans
    /// them until the bound can no longer beat the k-th admitted distance.
    /// `exclude_self = Some(base)` skips global training row `base + i` for
    /// query row `i` (leave-one-out).
    fn query_chunk(
        &self,
        queries: DatasetView<'_>,
        start: usize,
        offset: usize,
        states: &mut [TopKState],
        exclude_self: Option<usize>,
    ) -> PruneStats {
        let mut stats = PruneStats::default();
        let mut scratch = ScanScratch::new(&self.engine, &self.layout, self.rows.is_quantized());
        for (qi, state) in states.iter_mut().enumerate() {
            let q = queries.row(start + qi);
            let skip = exclude_self.map(|b| b + start + qi).unwrap_or(usize::MAX);
            let query = ScanQuery::new(q, &self.layout.bounds, offset, skip);
            self.layout.order(q, &mut scratch, &mut stats);
            let qq = self.rows.prepare_query(q, &mut scratch);
            for i in 0..scratch.order.len() {
                let (lb, dqc, c) = scratch.order[i];
                // Clusters are ordered by ascending bound and τ only shrinks,
                // so the first unbeatable cluster ends the query.
                if query.tau_sq(state).is_some_and(|t| query.prunes(lb, t)) {
                    break;
                }
                stats.clusters_visited += 1;
                let cluster = self.rows.cluster(self.layout.range(c), &self.layout.ids, qq.as_ref());
                cluster.scan(&query, dqc, state, &mut scratch, &mut stats);
            }
        }
        stats
    }

    /// Folds the indexed training rows (global indices = original row index
    /// plus `offset`) into the running top-k state of every query row — the
    /// pruned counterpart of [`EvalEngine::update_topk`], with the same
    /// streamable fold semantics: pre-seeded states tighten the pruning
    /// threshold from the first cluster. `exclude_self = Some(base)`
    /// declares query row `i` to be global training row `base + i` and skips
    /// that one pair (leave-one-out).
    ///
    /// # Panics
    /// Panics on dimension mismatches or `states.len() != queries.rows()`.
    pub fn update_topk(
        &self,
        queries: DatasetView<'_>,
        offset: usize,
        states: &mut [TopKState],
        exclude_self: Option<usize>,
    ) -> PruneStats {
        assert_eq!(queries.cols(), self.rows.data().cols(), "query/train dimensionality mismatch");
        assert_eq!(states.len(), queries.rows(), "one top-k state per query required");
        self.fan_out(states, |start, slot| self.query_chunk(queries, start, offset, slot, exclude_self))
    }

    /// Top-k neighbour table for every query, from a cold start —
    /// bit-identical to [`EvalEngine::topk`] on the same data.
    pub fn topk(&self, queries: DatasetView<'_>, k: usize) -> NeighborTable {
        self.topk_with_stats(queries, k).0
    }

    /// [`ClusteredIndex::topk`] plus the pruning counters.
    pub fn topk_with_stats(&self, queries: DatasetView<'_>, k: usize) -> (NeighborTable, PruneStats) {
        let mut states = vec![TopKState::new(k.max(1)); queries.rows()];
        let stats = self.update_topk(queries, 0, &mut states, None);
        (NeighborTable::from_states(&states), stats)
    }

    /// Leave-one-out top-k table of the indexed data against itself (row `i`
    /// of `data` must be the view the index was built over) — bit-identical
    /// to [`EvalEngine::topk_loo`].
    pub fn topk_loo(&self, data: DatasetView<'_>, k: usize) -> NeighborTable {
        self.topk_loo_with_stats(data, k).0
    }

    /// [`ClusteredIndex::topk_loo`] plus the pruning counters.
    pub fn topk_loo_with_stats(&self, data: DatasetView<'_>, k: usize) -> (NeighborTable, PruneStats) {
        let mut states = vec![TopKState::new(k.max(1)); data.rows()];
        let stats = self.update_topk(data, 0, &mut states, Some(0));
        (NeighborTable::from_states(&states), stats)
    }
}

impl EvalEngine {
    /// [`EvalEngine::topk`] dispatched through an [`EvalBackend`]: the
    /// clustered path builds a [`ClusteredIndex`] (inheriting this engine's
    /// shape) and answers through it; unresolvable backends (cosine, empty
    /// train, `Exhaustive`) take the exhaustive kernel. Results are
    /// bit-identical either way.
    pub fn topk_with_backend(
        &self,
        train: DatasetView<'_>,
        queries: DatasetView<'_>,
        metric: Metric,
        k: usize,
        backend: EvalBackend,
    ) -> NeighborTable {
        match backend.resolve(train.rows(), metric) {
            Some((nlist, quantize)) => {
                let mut index = ClusteredIndex::build_with_engine(train, metric, nlist, *self);
                if quantize {
                    index = index.quantize();
                }
                index.topk(queries, k)
            }
            None => self.topk(train, queries, metric, k),
        }
    }

    /// [`EvalEngine::topk_loo`] dispatched through an [`EvalBackend`].
    pub fn topk_loo_with_backend(
        &self,
        data: DatasetView<'_>,
        metric: Metric,
        k: usize,
        backend: EvalBackend,
    ) -> NeighborTable {
        match backend.resolve(data.rows(), metric) {
            Some((nlist, quantize)) => {
                let mut index = ClusteredIndex::build_with_engine(data, metric, nlist, *self);
                if quantize {
                    index = index.quantize();
                }
                index.topk_loo(data, k)
            }
            None => self.topk_loo(data, metric, k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{knn_reference, knn_reference_loo};
    use crate::kernel::MetricKernel;

    fn blobs(n: usize, d: usize, centers: usize, seed: u64) -> Matrix {
        snoopy_testutil::blob_cloud(seed, n, d, centers, 6.0, 0.2)
    }

    #[test]
    fn clustered_topk_matches_reference_on_blobs() {
        let train = blobs(400, 8, 8, 1);
        let queries = blobs(60, 8, 8, 2);
        for metric in [Metric::SquaredEuclidean, Metric::Euclidean] {
            let index = ClusteredIndex::build(train.view(), metric, 8);
            for k in [1usize, 3, 10, 400] {
                let got = index.topk(queries.view(), k);
                assert_eq!(got, knn_reference(train.view(), queries.view(), metric, k), "k {k}");
            }
        }
    }

    #[test]
    fn pruning_actually_happens_on_separated_blobs() {
        let train = blobs(600, 6, 12, 3);
        let queries = blobs(40, 6, 12, 4);
        let index = ClusteredIndex::build(train.view(), Metric::SquaredEuclidean, 12);
        let (table, stats) = index.topk_with_stats(queries.view(), 5);
        assert_eq!(table, knn_reference(train.view(), queries.view(), Metric::SquaredEuclidean, 5));
        assert!(stats.clusters_visited < stats.clusters_total, "{stats:?}");
        assert!(stats.cluster_prune_rate() > 0.5, "rate {} ({stats:?})", stats.cluster_prune_rate());
        assert!(stats.rows_scanned + stats.rows_pruned <= stats.rows_total);
        assert_eq!(stats.queries, 40);
    }

    #[test]
    fn loo_matches_reference_and_excludes_self() {
        let data = blobs(150, 5, 6, 7);
        for metric in [Metric::SquaredEuclidean, Metric::Euclidean] {
            let index = ClusteredIndex::build(data.view(), metric, 6);
            for k in [1usize, 4, 150] {
                let got = index.topk_loo(data.view(), k);
                assert_eq!(got, knn_reference_loo(data.view(), metric, k), "metric {} k {k}", metric.name());
                for q in 0..got.num_queries() {
                    assert!(got.neighbors(q).iter().all(|h| h.index != q));
                }
            }
        }
    }

    #[test]
    fn degenerate_shapes_nlist_exceeding_n_single_cluster_duplicates() {
        // n < nlist: every row may become its own cluster.
        let tiny = blobs(5, 4, 2, 9);
        let q = blobs(7, 4, 2, 10);
        for nlist in [1usize, 5, 64] {
            let index = ClusteredIndex::build(tiny.view(), Metric::SquaredEuclidean, nlist);
            assert!(index.num_clusters() <= 5);
            assert_eq!(
                index.topk(q.view(), 3),
                knn_reference(tiny.view(), q.view(), Metric::SquaredEuclidean, 3)
            );
        }
        // All-identical rows: ties must resolve to the lowest original index.
        let dup = Matrix::from_fn(30, 4, |_, _| 2.5);
        let index = ClusteredIndex::build(dup.view(), Metric::Euclidean, 4);
        let table = index.topk(q.view().slice_rows(0, 3), 6);
        for qi in 0..3 {
            let idx: Vec<usize> = table.neighbors(qi).iter().map(|h| h.index).collect();
            assert_eq!(idx, vec![0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn streamed_topk_fold_matches_engine_fold() {
        // Pre-seeded states from earlier batches tighten the pruning
        // threshold from the first cluster; results must still equal the
        // exhaustive engine's fold at every prefix (k = 1 and k = 3).
        let train = blobs(200, 5, 5, 21);
        let queries = blobs(33, 5, 5, 22);
        let engine = EvalEngine::with_threads(3);
        for k in [1usize, 3] {
            let mut kernel = MetricKernel::new(Metric::SquaredEuclidean);
            kernel.bind_queries(queries.view());
            let mut expected = vec![TopKState::new(k); 33];
            let mut got = vec![TopKState::new(k); 33];
            let mut consumed = 0;
            for batch in train.view().batches(64) {
                kernel.bind_train(batch);
                engine.update_topk(queries.view(), &kernel, batch, consumed, &mut expected, None);
                let index = ClusteredIndex::build_with_engine(batch, Metric::SquaredEuclidean, 4, engine);
                index.update_topk(queries.view(), consumed, &mut got, None);
                consumed += batch.rows();
                assert_eq!(got, expected, "k {k} prefix {consumed}");
            }
        }
    }

    #[test]
    fn backend_dispatch_falls_back_for_cosine_and_matches_everywhere() {
        let train = blobs(120, 6, 4, 31);
        let queries = blobs(25, 6, 4, 32);
        let engine = EvalEngine::parallel();
        for metric in Metric::all() {
            for backend in [EvalBackend::Exhaustive, EvalBackend::clustered(4), EvalBackend::quantized(4)] {
                let got = engine.topk_with_backend(train.view(), queries.view(), metric, 7, backend);
                assert_eq!(
                    got,
                    knn_reference(train.view(), queries.view(), metric, 7),
                    "metric {} backend {}",
                    metric.name(),
                    backend.name()
                );
                let loo = engine.topk_loo_with_backend(train.view(), metric, 3, backend);
                assert_eq!(loo, knn_reference_loo(train.view(), metric, 3));
            }
        }
    }

    #[test]
    fn auto_selection_thresholds() {
        use Metric::*;
        assert_eq!(EvalBackend::auto_for(100, 1000, SquaredEuclidean), EvalBackend::Exhaustive);
        assert_eq!(EvalBackend::auto_for(10_000, 4, SquaredEuclidean), EvalBackend::Exhaustive);
        assert_eq!(EvalBackend::auto_for(10_000, 1000, Cosine), EvalBackend::Exhaustive);
        assert_eq!(EvalBackend::auto_for(10_000, 1000, SquaredEuclidean), EvalBackend::clustered(100));
        assert_eq!(EvalBackend::clustered(50).resolve(10, SquaredEuclidean), Some((10, false)));
        assert_eq!(EvalBackend::quantized(50).resolve(10, SquaredEuclidean), Some((10, true)));
        assert_eq!(EvalBackend::clustered(50).resolve(0, SquaredEuclidean), None);
        assert_eq!(EvalBackend::clustered(50).resolve(100, Cosine), None);
        assert_eq!(EvalBackend::quantized(50).resolve(100, Cosine), None);
        assert_eq!(EvalBackend::Exhaustive.resolve(10_000, SquaredEuclidean), None);
        assert_eq!(EvalBackend::Exhaustive.name(), "exhaustive");
        assert_eq!(EvalBackend::clustered(5).name(), "clustered");
        assert_eq!(EvalBackend::quantized(5).name(), "quantized");
    }

    #[test]
    fn subnormal_underflow_does_not_prune_zero_distance_ties() {
        // Both rows are within ~2e-23 of the query, so their f32 squared
        // distances (≈ 3e-46, 5e-46) round to exactly 0.0 — the exhaustive
        // kernel admits the LOWEST index by the (distance, index) tie-break.
        // Their pairwise squared distance (1.6e-45) stays a non-zero
        // subnormal, so k-means keeps them in separate clusters, and the
        // query visits index 1's cluster first (smaller centroid distance)
        // before admitting τ = 0. The f64 bound to index 0's cluster stays
        // positive, so a purely relative slack would prune the
        // lower-index-bearing cluster; the absolute guard must keep it
        // scanned.
        let train = Matrix::from_rows(&[vec![2.2e-23f32, 0.0], vec![-1.8e-23, 0.0]]);
        let queries = Matrix::from_rows(&[vec![0.0f32, 0.0]]);
        for metric in [Metric::SquaredEuclidean, Metric::Euclidean] {
            let reference = knn_reference(train.view(), queries.view(), metric, 1);
            assert_eq!(reference.first(0).expect("one hit").index, 0, "reference ties to index 0");
            // nlist = 2: each row becomes its own cluster, and the query
            // visits index 1's cluster first (smaller centroid distance).
            let index = ClusteredIndex::build(train.view(), metric, 2);
            assert_eq!(index.num_clusters(), 2);
            assert_eq!(index.topk(queries.view(), 1), reference, "metric {}", metric.name());
        }
    }

    #[test]
    fn quantized_topk_and_loo_match_reference_bit_for_bit() {
        let train = blobs(500, 12, 10, 41);
        let queries = blobs(45, 12, 10, 42);
        for metric in [Metric::SquaredEuclidean, Metric::Euclidean] {
            let index = ClusteredIndex::build(train.view(), metric, 10).quantize();
            assert!(index.is_quantized());
            for k in [1usize, 3, 10, 500] {
                let got = index.topk(queries.view(), k);
                assert_eq!(got, knn_reference(train.view(), queries.view(), metric, k), "k {k}");
            }
            let loo = index.topk_loo(train.view(), 4);
            assert_eq!(loo, knn_reference_loo(train.view(), metric, 4), "loo {}", metric.name());
        }
    }

    #[test]
    fn quantized_scan_reranks_a_strict_subset_and_reports_phase_counters() {
        let train = blobs(800, 16, 12, 51);
        let queries = blobs(50, 16, 12, 52);
        let plain = ClusteredIndex::build(train.view(), Metric::SquaredEuclidean, 12);
        let quantized = plain.clone().quantize();
        let (table_p, stats_p) = plain.topk_with_stats(queries.view(), 5);
        let (table_q, stats_q) = quantized.topk_with_stats(queries.view(), 5);
        assert_eq!(table_p, table_q);
        assert_eq!(stats_p.rows_quantized, 0, "f32 path never counts phase 1");
        assert_eq!(stats_p.rerank_rate(), 0.0);
        assert!(stats_q.rows_quantized > 0, "{stats_q:?}");
        assert!(stats_q.rows_scanned < stats_q.rows_quantized, "int8 bound must prune: {stats_q:?}");
        assert!(stats_q.rerank_rate() < 1.0, "{stats_q:?}");
        assert!(
            stats_q.rows_scanned + stats_q.rows_pruned + stats_q.queries >= stats_q.rows_quantized,
            "every phase-1 row is re-ranked, pruned, or the self-skip: {stats_q:?}"
        );
    }

    #[test]
    fn quantized_resident_bytes_measures_the_4x_scan_copy() {
        let train = blobs(300, 32, 6, 61);
        let plain = ClusteredIndex::build(train.view(), Metric::SquaredEuclidean, 6);
        let rb_plain = plain.resident_bytes();
        assert_eq!(rb_plain.train_rows, 300 * 32 * 4);
        assert_eq!(rb_plain.quantized_codes, 0);
        assert_eq!(rb_plain.quantized_meta, 0);
        let quantized = plain.quantize();
        let rb = quantized.resident_bytes();
        assert_eq!(rb.train_rows, 300 * 32 * 4);
        assert_eq!(rb.quantized_codes * 4, rb.train_rows, "codes are exactly 4x smaller");
        // code norms + abs sums + radii (3 f32/row) + affine params (2 f32/dim).
        assert_eq!(rb.quantized_meta, 300 * 12 + 32 * 8);
        assert!(rb.total() > rb_plain.total());
        assert!(rb.centroids > 0 && rb.row_meta > 0);
    }

    #[test]
    fn quantized_subnormal_underflow_does_not_prune_zero_distance_ties() {
        // The quantized twin of the subnormal guard test: the int8 bound's
        // threshold path must also keep τ = 0 from pruning the lower-index
        // tie (the guard makes T ≥ √(guard) > any subnormal bound).
        let train = Matrix::from_rows(&[vec![2.2e-23f32, 0.0], vec![-1.8e-23, 0.0]]);
        let queries = Matrix::from_rows(&[vec![0.0f32, 0.0]]);
        for metric in [Metric::SquaredEuclidean, Metric::Euclidean] {
            let reference = knn_reference(train.view(), queries.view(), metric, 1);
            let index = ClusteredIndex::build(train.view(), metric, 2).quantize();
            assert_eq!(index.num_clusters(), 2);
            assert_eq!(index.topk(queries.view(), 1), reference, "metric {}", metric.name());
        }
    }

    #[test]
    fn quantized_extreme_magnitudes_fall_back_and_stay_exact() {
        // Data past the shadow's overflow guard (row norms ≈ √8·10¹⁸ >
        // MAX_SAFE_NORM) but still well inside the f32-finite regime the
        // exact kernel's error model requires: quantize() must refuse the
        // shadow and the scan must stay exact.
        let huge = Matrix::from_fn(40, 8, |r, c| if (r + c) % 2 == 0 { 1.0e18 } else { -1.0e18 });
        let index = ClusteredIndex::build(huge.view(), Metric::SquaredEuclidean, 4).quantize();
        assert!(!index.is_quantized(), "overflow guard must reject the shadow");
        let q = Matrix::from_fn(5, 8, |r, c| ((r * 8 + c) as f32).sin() * 1.0e18);
        assert_eq!(
            index.topk(q.view(), 3),
            knn_reference(huge.view(), q.view(), Metric::SquaredEuclidean, 3)
        );
        // Sane data, extreme query rows: those queries alone fall back
        // (`prepare_query` refuses norms past the guard, per query).
        let train = blobs(200, 8, 4, 71);
        let index = ClusteredIndex::build(train.view(), Metric::SquaredEuclidean, 4).quantize();
        assert!(index.is_quantized());
        let mut rows: Vec<Vec<f32>> = (0..4).map(|r| q.row(r).to_vec()).collect();
        rows.push(vec![2.0e18; 8]);
        let mixed = Matrix::from_rows(&rows);
        assert_eq!(
            index.topk(mixed.view(), 3),
            knn_reference(train.view(), mixed.view(), Metric::SquaredEuclidean, 3)
        );
    }

    #[test]
    #[should_panic(expected = "not triangle-prunable")]
    fn cosine_index_panics() {
        let data = blobs(10, 3, 2, 1);
        let _ = ClusteredIndex::build(data.view(), Metric::Cosine, 2);
    }
}

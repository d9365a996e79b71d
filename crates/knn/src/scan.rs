//! The one cluster-scan core behind both exact pruned indexes.
//!
//! The resident [`crate::clustered::ClusteredIndex`] and the shard-paged
//! [`crate::sharded::ShardedIndex`] walk a k-means partition the same way,
//! and this module is the only implementation of that walk: the partition
//! itself ([`ClusterLayout`]: build, bound ordering, eviction), the exact
//! tile scan with its per-row fallback, and the two-phase int8 scan
//! ([`ClusterRows::scan`]).
//!
//! The scans run over a borrowed [`ClusterRows`]: a row range of a
//! [`RowBlock`] (the one owned layout of cluster rows and what a scan
//! derives from them), the rows' original ids, and the query's prepared
//! int8 context. The resident index passes `offsets[c]..offsets[c + 1]` of
//! its one contiguous block; the paged index passes rows `0..n` of the
//! shard it faulted in. Query preparation stays with whoever owns the rows:
//! once per query for the resident index, once per shard for the paged one,
//! because the quantized margin depends on each shadow's `max_code_norm`.
//! The exactness argument is in the [`crate::clustered`] module docs.

use std::ops::Range;

use crate::bounds::{euclid_f64, norm_f64, PruneBounds};
use crate::clustered::{PruneStats, ResidentBytes};
use crate::engine::{EvalEngine, TopKState};
use crate::kernel::MetricKernel;
use crate::metric::Metric;
use crate::quantized::{AffineQuantizer, QuantizedQuery, QuantizedShadow};
use snoopy_linalg::kmeans::RowPartition;
use snoopy_linalg::{DatasetView, Matrix};

/// The partition both indexes scan: the non-empty k-means clusters'
/// centroids and radii, the original row ids grouped by cluster, and the
/// prune constants.
#[derive(Debug, Clone)]
pub(crate) struct ClusterLayout {
    /// `nlist × d` centroids (empty clusters dropped).
    pub centroids: Matrix,
    /// Per-cluster radius `r_c = max_{x ∈ c} e(x, c)` in `f64`.
    pub radii: Vec<f64>,
    /// Original row ids, cluster-contiguous and ascending within a cluster:
    /// cluster `c` owns `ids[offsets[c]..offsets[c + 1]]`.
    pub ids: Vec<usize>,
    pub offsets: Vec<usize>,
    /// The prune-comparison constants (slack, kernel-error coefficient,
    /// subnormal guard, global max member norm) — see [`crate::bounds`].
    pub bounds: PruneBounds,
}

impl ClusterLayout {
    /// Groups the rows of `source` by `assignments` (row `i` belongs to
    /// `centroids` row `assignments[i]`), drops empty clusters, and measures
    /// the cluster radii and the global max member norm in one pass;
    /// `on_row` sees every member's centroid distance in grouped order.
    ///
    /// # Panics
    /// Panics if an assignment is out of `centroids`' range.
    pub fn build(
        source: DatasetView<'_>,
        metric: Metric,
        centroids: &Matrix,
        assignments: &[usize],
        mut on_row: impl FnMut(f64),
    ) -> Self {
        let (kept, ids, offsets) = group_members(assignments, centroids.rows());
        let centroids = centroids.view().select_rows(&kept);
        let mut radii = vec![0.0f64; kept.len()];
        let mut max_norm = 0.0f64;
        for (c, radius) in radii.iter_mut().enumerate() {
            let cent = centroids.row(c);
            for &id in &ids[offsets[c]..offsets[c + 1]] {
                let row = source.row(id);
                let d = euclid_f64(row, cent);
                on_row(d);
                *radius = radius.max(d);
                max_norm = max_norm.max(norm_f64(row));
            }
        }
        let bounds = PruneBounds::new(metric, source.cols(), max_norm);
        ClusterLayout { centroids, radii, ids, offsets, bounds }
    }

    /// Number of (non-empty) clusters.
    pub fn num_clusters(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Cluster `c`'s positions in [`ClusterLayout::ids`] (and in a block
    /// holding every cluster's rows in that order).
    pub fn range(&self, c: usize) -> Range<usize> {
        self.offsets[c]..self.offsets[c + 1]
    }

    /// The partition's own footprint: centroid rows, radii and offsets
    /// (`centroids`) plus one id per row (`row_meta`).
    pub fn bytes(&self) -> ResidentBytes {
        ResidentBytes {
            centroids: self.centroids.rows() * self.centroids.cols() * size_of::<f32>()
                + self.radii.len() * size_of::<f64>()
                + self.offsets.len() * size_of::<usize>(),
            row_meta: self.ids.len() * size_of::<usize>(),
            ..ResidentBytes::default()
        }
    }

    /// Fills [`ScanScratch::order`] for query `q` — each cluster's lower
    /// bound `max(0, e(q, c) − r_c)` and centroid distance, sorted
    /// ascending by bound with ties to the lowest cluster id — and books the
    /// exhaustive work the query would have cost into `stats`.
    pub fn order(&self, q: &[f32], scratch: &mut ScanScratch, stats: &mut PruneStats) {
        let order = &mut scratch.order;
        order.clear();
        for (c, cent) in self.centroids.rows_iter().enumerate() {
            let dqc = euclid_f64(q, cent);
            order.push(((dqc - self.radii[c]).max(0.0), dqc, c));
        }
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        stats.queries += 1;
        stats.clusters_total += self.num_clusters();
        stats.rows_total += self.ids.len();
    }

    /// Removes every row whose `keep` flag is false from the partition and
    /// from `rows` (which holds the rows in [`ClusterLayout::ids`] order),
    /// drops clusters that become empty, and re-tightens the surviving
    /// radii. The max member norm inside the bounds is kept: still a valid
    /// bound for the subset. Returns the number of rows removed.
    pub fn retain_rows(&mut self, keep: &[bool], rows: &mut RowBlock) -> usize {
        let removed = rows.retain_rows(keep, &mut self.ids, &mut self.offsets);
        let kept: Vec<usize> = (0..self.num_clusters()).filter(|&c| !self.range(c).is_empty()).collect();
        if kept.len() != self.num_clusters() {
            self.centroids = self.centroids.view().select_rows(&kept);
            // Offsets ascend, and an empty cluster repeats its start.
            self.offsets.dedup();
        }
        self.radii = (0..self.num_clusters())
            .map(|c| rows.row_center[self.range(c)].iter().fold(0.0f64, |r, &d| r.max(d)))
            .collect();
        removed
    }
}

/// Groups row ids by cluster, dropping empty clusters: returns
/// `(kept, members, offsets)`, where `kept` lists the non-empty clusters of
/// `assignments` in ascending order, and kept cluster `i` owns
/// `members[offsets[i]..offsets[i + 1]]` — its row ids, ascending.
///
/// # Panics
/// Panics if an assignment is `>= clusters`.
fn group_members(assignments: &[usize], clusters: usize) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut counts = vec![0usize; clusters];
    for &a in assignments {
        assert!(a < clusters, "assignment {a} out of range for {clusters} centroids");
        counts[a] += 1;
    }
    let kept: Vec<usize> = (0..clusters).filter(|&c| counts[c] > 0).collect();
    let mut offsets = Vec::with_capacity(kept.len() + 1);
    offsets.push(0usize);
    // `counts[c]` becomes kept cluster `c`'s write cursor into `members`.
    for &c in &kept {
        let start = *offsets.last().expect("non-empty");
        offsets.push(start + counts[c]);
        counts[c] = start;
    }
    let mut members = vec![0usize; assignments.len()];
    for (row, &a) in assignments.iter().enumerate() {
        members[counts[a]] = row;
        counts[a] += 1;
    }
    (kept, members, offsets)
}

/// Cluster-contiguous rows plus everything a scan derives from them: the
/// per-row centroid distances, the tile kernel bound to the rows, and the
/// optional int8 shadow. The resident index holds one block for all its
/// clusters; the paged index holds one per resident shard.
#[derive(Debug, Clone)]
pub(crate) struct RowBlock {
    /// The f32 rows (bit-identical copies of source rows, regrouped).
    data: Matrix,
    /// Per row: `e(x, c)` to its own centroid in `f64`.
    row_center: Vec<f64>,
    /// The tile kernel with `data` bound as its train side.
    kernel: MetricKernel,
    /// The int8 shadow copy of `data`, when quantized and the overflow
    /// guard accepted the rows.
    shadow: Option<QuantizedShadow>,
}

impl RowBlock {
    /// Binds `data` (whose row `i` lies `row_center[i]` from its centroid)
    /// to a fresh `metric` kernel; no shadow yet.
    pub fn new(data: Matrix, row_center: Vec<f64>, metric: Metric) -> Self {
        let mut kernel = MetricKernel::new(metric);
        kernel.bind_train(data.view());
        RowBlock { data, row_center, kernel, shadow: None }
    }

    /// Encodes the rows under `quantizer`; the shadow stays absent when the
    /// overflow guard rejects them, and scans stay exact.
    pub fn quantize(&mut self, quantizer: AffineQuantizer) {
        self.shadow = QuantizedShadow::build(self.data.view(), quantizer);
    }

    /// Whether an int8 shadow is attached.
    pub fn is_quantized(&self) -> bool {
        self.shadow.is_some()
    }

    /// The f32 rows.
    pub fn data(&self) -> DatasetView<'_> {
        self.data.view()
    }

    /// The resident footprint of the block: the f32 rows, the shadow's codes
    /// and metadata, and the per-row centroid distances plus kernel norm
    /// cache (`row_meta`). `centroids` is 0 — the partition's metadata
    /// belongs to the index.
    pub fn bytes(&self) -> ResidentBytes {
        ResidentBytes {
            train_rows: self.data.rows() * self.data.cols() * size_of::<f32>(),
            quantized_codes: self.shadow.as_ref().map_or(0, |s| s.code_bytes()),
            quantized_meta: self.shadow.as_ref().map_or(0, |s| s.meta_bytes()),
            centroids: 0,
            row_meta: self.row_center.len() * size_of::<f64>() + self.kernel.train_bound() * size_of::<f32>(),
        }
    }

    /// Drops every row whose `keep` flag is false from the rows, the
    /// centroid distances and the shadow, compacting the parallel
    /// `original` ids and the cluster `offsets` alongside (clusters may
    /// become empty), and rebinds the kernel. Returns the number of rows
    /// removed.
    fn retain_rows(&mut self, keep: &[bool], original: &mut Vec<usize>, offsets: &mut Vec<usize>) -> usize {
        let mut flags = keep.iter();
        self.row_center.retain(|_| *flags.next().expect("one keep flag per row"));
        if let Some(shadow) = self.shadow.as_mut() {
            shadow.retain_rows(keep);
        }
        let mut part = RowPartition {
            data: std::mem::replace(&mut self.data, Matrix::zeros(0, 0)),
            offsets: std::mem::take(offsets),
            original: std::mem::take(original),
        };
        let removed = part.retain_rows(keep);
        (self.data, *offsets, *original) = (part.data, part.offsets, part.original);
        self.kernel.bind_train(self.data.view());
        removed
    }

    /// Prepares `q` against the shadow, in `scratch`'s query buffers. `None`
    /// either because the block is unquantized or because the query's norm
    /// trips the overflow guard — both scan exactly.
    pub fn prepare_query(&self, q: &[f32], scratch: &mut ScanScratch) -> Option<QuantizedQuery> {
        self.shadow.as_ref().and_then(|sh| sh.prepare_query(q, &mut scratch.w, &mut scratch.v))
    }

    /// The rows `range` of this block as one cluster for the scan core;
    /// `ids[r]` is the original id of row `r`, and `qq` (from
    /// [`RowBlock::prepare_query`]) selects the two-phase scan.
    pub fn cluster<'a>(
        &'a self,
        range: Range<usize>,
        ids: &'a [usize],
        qq: Option<&'a QuantizedQuery>,
    ) -> ClusterRows<'a> {
        ClusterRows { block: self, range, ids, qq }
    }
}

/// One query's scan context, fixed across every cluster it visits.
pub(crate) struct ScanQuery<'q> {
    /// The query row.
    pub q: &'q [f32],
    /// The kernel's cached query scalar.
    qv: f32,
    /// The index's prune-comparison constants.
    pub bounds: &'q PruneBounds,
    /// The per-query kernel-error margin.
    pub err: f64,
    /// Added to every original id to form the global id admitted.
    offset: usize,
    /// A global id to exclude (leave-one-out), `usize::MAX` for none.
    skip: usize,
}

impl<'q> ScanQuery<'q> {
    /// The context of query `q` against an index with prune constants
    /// `bounds`.
    pub fn new(q: &'q [f32], bounds: &'q PruneBounds, offset: usize, skip: usize) -> Self {
        let qv = MetricKernel::new(bounds.metric()).query_value(q);
        ScanQuery { q, qv, bounds, err: bounds.kernel_err(norm_f64(q)), offset, skip }
    }

    /// The squared current k-th admitted distance once `state` is full,
    /// `None` before (nothing prunes yet).
    #[inline]
    pub fn tau_sq(&self, state: &TopKState) -> Option<f64> {
        (state.hits().len() == state.k())
            .then(|| self.bounds.tau_sq(state.hits().last().expect("full state").distance))
    }

    /// Whether the Euclidean lower bound `lb` proves nothing can beat
    /// `tau_sq` (see [`PruneBounds::prunes`]).
    #[inline]
    pub fn prunes(&self, lb: f64, tau_sq: f64) -> bool {
        self.bounds.prunes(lb, tau_sq, self.err)
    }
}

/// One worker's scan buffers, reused across its queries: the cluster visit
/// order, the f32 distance tile and, on a quantized index, the i32 dot
/// tile, the keep mask and the query's scaled residual and i16 codes.
pub(crate) struct ScanScratch {
    /// `(lower bound, centroid distance, cluster)`, ascending by bound —
    /// filled by [`ClusterLayout::order`].
    pub order: Vec<(f64, f64, usize)>,
    tile: Vec<f32>,
    qtile: Vec<i32>,
    keep: Vec<bool>,
    w: Vec<f32>,
    v: Vec<i16>,
}

impl ScanScratch {
    /// Buffers for scans of `layout`: tiles of the engine's length, capped
    /// at the row count.
    pub fn new(engine: &EvalEngine, layout: &ClusterLayout, quantized: bool) -> Self {
        let tile_len = engine.tile_rows().min(layout.ids.len().max(1));
        let qlen = if quantized { tile_len } else { 0 };
        let qcols = if quantized { layout.centroids.cols() } else { 0 };
        ScanScratch {
            order: Vec::with_capacity(layout.num_clusters()),
            tile: vec![0.0; tile_len],
            qtile: vec![0; qlen],
            keep: vec![false; qlen],
            w: Vec::with_capacity(qcols),
            v: Vec::with_capacity(qcols),
        }
    }
}

/// One visited cluster as the scan core sees it: a row range of a borrowed
/// [`RowBlock`], the original ids of the block's rows, and — when the block
/// is quantized and the query passed the overflow guard — the query's
/// prepared int8 context. Built by [`RowBlock::cluster`].
pub(crate) struct ClusterRows<'a> {
    block: &'a RowBlock,
    range: Range<usize>,
    ids: &'a [usize],
    qq: Option<&'a QuantizedQuery>,
}

impl ClusterRows<'_> {
    /// Scans the cluster into `state`: the two-phase int8 scan when a
    /// prepared query is present, the exact tile scan otherwise (`dqc` is
    /// the query's `f64` distance to the cluster centroid, feeding the
    /// per-row bound). Only exact kernel values are ever admitted, so the
    /// path taken never changes the result.
    pub fn scan(
        &self,
        query: &ScanQuery<'_>,
        dqc: f64,
        state: &mut TopKState,
        scratch: &mut ScanScratch,
        stats: &mut PruneStats,
    ) {
        match (&self.block.shadow, self.qq) {
            (Some(shadow), Some(qq)) => self.scan_quantized(shadow, qq, query, state, scratch, stats),
            _ => self.scan_exact(query, dqc, state, &mut scratch.tile, stats),
        }
    }

    /// The exact scan, one distance tile at a time: a tile unbroken by the
    /// per-row bound `|e(q, c) − e(x, c)|` or the self-exclusion goes
    /// through the tile kernel; a broken tile falls back to the per-pair
    /// path with a live (row-by-row) threshold.
    fn scan_exact(
        &self,
        query: &ScanQuery<'_>,
        dqc: f64,
        state: &mut TopKState,
        tile: &mut [f32],
        stats: &mut PruneStats,
    ) {
        let (data, row_center, kernel) = (self.block.data.view(), &self.block.row_center, &self.block.kernel);
        let (q, qv, ids, offset, skip) = (query.q, query.qv, self.ids, query.offset, query.skip);
        let end = self.range.end;
        let mut r = self.range.start;
        while r < end {
            let len = tile.len().min(end - r);
            // Pre-pass: is the whole tile admissible as one kernel call?
            // (The tile-start τ is stale after mid-tile admissions, but a
            // stale — larger — τ only keeps rows a fresh one might prune,
            // so exactness never depends on it.)
            let mut fast = skip == usize::MAX || !ids[r..r + len].iter().any(|&o| offset + o == skip);
            if fast {
                if let Some(tau_sq) = query.tau_sq(state) {
                    fast = !(r..r + len).any(|j| query.prunes((dqc - row_center[j]).abs(), tau_sq));
                }
            }
            if fast {
                let out = &mut tile[..len];
                kernel.tile_with(q, qv, data, r, out);
                for (j, &d) in out.iter().enumerate() {
                    state.offer(d, offset + ids[r + j]);
                }
                stats.rows_scanned += len;
            } else {
                for j in r..r + len {
                    let global = offset + ids[j];
                    if global == skip {
                        continue;
                    }
                    if let Some(tau_sq) = query.tau_sq(state) {
                        if query.prunes((dqc - row_center[j]).abs(), tau_sq) {
                            stats.rows_pruned += 1;
                            continue;
                        }
                    }
                    state.offer(kernel.pair_with(q, qv, data, j), global);
                    stats.rows_scanned += 1;
                }
            }
            r += len;
        }
    }

    /// The two-phase scan: phase 1 computes the exact integer dots of a
    /// whole tile from the int8 codes (one byte per dimension of row
    /// traffic) and classifies the tile against the widened bound; phase 2
    /// re-ranks the surviving rows through the exact per-pair kernel —
    /// interleaved per tile, so each admission tightens τ for the next tile.
    /// The classify pass uses the τ of the tile *start* (a stale — larger —
    /// τ only keeps rows a fresh one might prune) and the prune threshold
    /// `T` is recomputed only when τ changes (see
    /// [`PruneBounds::prune_threshold`]).
    fn scan_quantized(
        &self,
        shadow: &QuantizedShadow,
        qq: &QuantizedQuery,
        query: &ScanQuery<'_>,
        state: &mut TopKState,
        scratch: &mut ScanScratch,
        stats: &mut PruneStats,
    ) {
        let ScanScratch { qtile, keep, v, .. } = scratch;
        let (qtile, keep, v) = (qtile.as_mut_slice(), keep.as_mut_slice(), v.as_slice());
        let (data, kernel) = (self.block.data.view(), &self.block.kernel);
        let (q, qv, ids, offset, skip) = (query.q, query.qv, self.ids, query.offset, query.skip);
        let mut cached_tau = f32::NAN; // NaN ≠ everything → first full state recomputes
        let mut cached_threshold = f64::INFINITY;
        let (mut pruned, mut scanned) = (0, 0);
        let end = self.range.end;
        let mut r = self.range.start;
        while r < end {
            let len = qtile.len().min(end - r);
            let dots = &mut qtile[..len];
            shadow.approx_dot_tile(v, r, dots);
            let threshold = if state.hits().len() == state.k() {
                let tau = state.hits().last().expect("full state").distance;
                if tau != cached_tau {
                    cached_tau = tau;
                    cached_threshold = query.bounds.prune_threshold(tau, query.err);
                }
                cached_threshold
            } else {
                f64::INFINITY // not full: every row survives classification
            };
            shadow.classify_tile(qq, threshold, r, dots, &mut keep[..len]);
            for (j, &kept) in keep[..len].iter().enumerate() {
                if !kept {
                    pruned += 1;
                    continue;
                }
                let row = r + j;
                let global = offset + ids[row];
                if global == skip {
                    continue;
                }
                state.offer(kernel.pair_with(q, qv, data, row), global);
                scanned += 1;
            }
            r += len;
        }
        stats.rows_quantized += self.range.len();
        stats.rows_pruned += pruned;
        stats.rows_scanned += scanned;
    }
}

//! Shared floating-point-safe triangle-inequality prune arithmetic.
//!
//! Both exact pruned indexes — the fully-resident [`crate::clustered::ClusteredIndex`]
//! and the shard-paged [`crate::sharded::ShardedIndex`] — compare `f64`
//! Euclidean lower bounds against the `f32` distances the tile kernel
//! admits, and both make those comparisons in the one cluster-scan core
//! ([`crate::scan`]). The inflation/deflation terms that make a comparison
//! sound (relative slack for the f64 geometry, an absolute kernel-error
//! margin for the norm-trick cancellation, the subnormal guard, the
//! Euclidean `τ²` inflation) are derived once in the [`crate::clustered`]
//! module docs; this module is their single implementation.

use crate::metric::Metric;

/// `‖a − b‖₂` accumulated in `f64` — the bound-side geometry is computed at
/// double precision so only the `f32` kernel side needs slack.
pub(crate) fn euclid_f64(a: &[f32], b: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let d = x as f64 - y as f64;
        acc += d * d;
    }
    acc.sqrt()
}

/// `‖a‖₂` accumulated in `f64` (feeds the kernel-error term of the bounds).
pub(crate) fn norm_f64(a: &[f32]) -> f64 {
    a.iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt()
}

/// The per-index prune-comparison constants: metric, dimension-derived
/// slack and kernel-error coefficients, the subnormal guard, and the global
/// largest member norm. Built once per index; every prune decision routes
/// through it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PruneBounds {
    metric: Metric,
    /// Largest member norm `max_x ‖x‖` in `f64` — global (not per cluster or
    /// shard) so the bound-ordered scan's early exit stays monotone in the
    /// lower bound.
    max_norm: f64,
    /// Kernel-error coefficient `2(d + 16)·ε_f32`: multiplied by
    /// `(‖q‖ + max_norm)²` it upper-bounds how far below the true squared
    /// distance the norm-trick `f32` kernel can land.
    err_coeff: f64,
    /// Relative bound deflation `1 − (2d + 32)·ε_f32`, covering the `f64`
    /// geometry side.
    slack: f64,
    /// Absolute prune guard covering f32 subnormal underflow, in squared
    /// space: the smallest normal f32. In particular `τ = 0` (a perfect hit
    /// already admitted) disables pruning entirely, preserving the
    /// zero-distance tie-break.
    abs_guard: f64,
}

impl PruneBounds {
    /// Constants for a `dim`-dimensional index whose largest member norm is
    /// `max_norm`.
    pub fn new(metric: Metric, dim: usize, max_norm: f64) -> Self {
        let d = dim as f64;
        PruneBounds {
            metric,
            max_norm,
            err_coeff: 2.0 * (d + 16.0) * f32::EPSILON as f64,
            slack: 1.0 - (2.0 * d + 32.0) * f32::EPSILON as f64,
            abs_guard: f32::MIN_POSITIVE as f64,
        }
    }

    /// The metric whose stored distances the threshold comparisons read.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The current stored threshold mapped into squared-distance space with
    /// the safety inflation of the [`crate::clustered`] module docs: the
    /// stored distance itself for squared-Euclidean consumers,
    /// `τ²·(1 + 8ε)` for Euclidean ones (covering the square root's
    /// rounding). `∞` (state not yet full) maps to `∞` and never prunes.
    #[inline]
    pub fn tau_sq(&self, tau: f32) -> f64 {
        let t = tau as f64;
        match self.metric {
            Metric::SquaredEuclidean => t,
            _ => t * t * (1.0 + 8.0 * f32::EPSILON as f64),
        }
    }

    /// The per-query kernel-error margin: how far below the true squared
    /// distance the norm-trick `f32` kernel can land for any indexed row
    /// (`qn` is the query's `f64` Euclidean norm).
    #[inline]
    pub fn kernel_err(&self, qn: f64) -> f64 {
        let s = qn + self.max_norm;
        self.err_coeff * s * s
    }

    /// Whether a Euclidean-space lower bound `lb` proves that no candidate
    /// can be admitted against the squared threshold `tau_sq`: the squared,
    /// slack-deflated bound must clear it by the kernel-error margin `err`
    /// plus the absolute subnormal guard. Monotone in `lb` for a fixed
    /// query, which is what lets a bound-ordered scan stop at the first
    /// pruned cluster.
    #[inline]
    pub fn prunes(&self, lb: f64, tau_sq: f64, err: f64) -> bool {
        lb * lb * self.slack - err > tau_sq + self.abs_guard
    }

    /// The [`PruneBounds::prunes`] inequality solved for the bound: a
    /// non-negative Euclidean lower bound prunes iff it strictly exceeds
    /// `√((τ² + guard + err) / slack)`. The quantized scans cache this per
    /// τ value so the per-row test `â − margin > (T + r_i)²` needs no
    /// square root (`τ = ∞`, state not yet full, maps to `∞` and never
    /// prunes).
    #[inline]
    pub fn prune_threshold(&self, tau: f32, err: f64) -> f64 {
        ((self.tau_sq(tau) + self.abs_guard + err) / self.slack).sqrt()
    }
}

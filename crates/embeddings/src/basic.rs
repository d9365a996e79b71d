//! Classical zoo members: identity, standardisation, PCA, random projection,
//! and an LDA/NCA-style supervised projection.

use crate::transform::Transformation;
use snoopy_linalg::eigen::symmetric_eigen;
use snoopy_linalg::{DatasetView, Matrix, Pca, RandomProjection, Standardizer};

/// The identity ("Raw") transformation of Table III.
#[derive(Debug, Clone)]
pub struct Identity {
    dim: usize,
}

impl Identity {
    /// Creates the identity transformation for `dim`-dimensional inputs.
    pub fn new(dim: usize) -> Self {
        Self { dim }
    }
}

impl Transformation for Identity {
    fn name(&self) -> &str {
        "raw"
    }
    fn output_dim(&self) -> usize {
        self.dim
    }
    fn cost_per_sample(&self) -> f64 {
        0.0
    }
    fn transform(&self, x: DatasetView<'_>) -> Matrix {
        x.to_matrix()
    }
}

/// Per-feature z-scoring fitted on the training split ("with normalization"
/// variants of Table IV).
pub struct StandardizeTransform {
    name: String,
    standardizer: Standardizer,
    dim: usize,
    cost: f64,
}

impl StandardizeTransform {
    /// Fits the standardiser on `train`.
    pub fn fit(train: &Matrix) -> Self {
        Self {
            name: "standardize".to_string(),
            standardizer: Standardizer::fit(train),
            dim: train.cols(),
            cost: 1e-6,
        }
    }
}

impl Transformation for StandardizeTransform {
    fn name(&self) -> &str {
        &self.name
    }
    fn output_dim(&self) -> usize {
        self.dim
    }
    fn cost_per_sample(&self) -> f64 {
        self.cost
    }
    fn transform(&self, x: DatasetView<'_>) -> Matrix {
        self.standardizer.transform(x)
    }
}

/// PCA projection fitted on the training split (PCA32/PCA64/PCA128 of
/// Table III).
pub struct PcaTransform {
    name: String,
    pca: Pca,
    cost: f64,
}

impl PcaTransform {
    /// Fits PCA with `k` components on `train`.
    pub fn fit(train: &Matrix, k: usize) -> Self {
        Self::from_pca(Pca::fit(train, k))
    }

    /// The same fit keeping only the leading `k` components — what
    /// `PcaTransform::fit(train, k)` would return, without another
    /// eigendecomposition (see [`Pca::truncated`]).
    pub fn truncated(&self, k: usize) -> Self {
        Self::from_pca(self.pca.truncated(k))
    }

    fn from_pca(pca: Pca) -> Self {
        Self { name: format!("pca{}", pca.num_components()), pca, cost: 2e-6 }
    }
}

impl Transformation for PcaTransform {
    fn name(&self) -> &str {
        &self.name
    }
    fn output_dim(&self) -> usize {
        self.pca.num_components()
    }
    fn cost_per_sample(&self) -> f64 {
        self.cost
    }
    fn transform(&self, x: DatasetView<'_>) -> Matrix {
        self.pca.transform(x)
    }
}

/// Gaussian random projection (a deliberately mediocre zoo member used to
/// stress the minimum aggregation).
pub struct RandomProjectionTransform {
    name: String,
    projection: RandomProjection,
}

impl RandomProjectionTransform {
    /// Creates a random projection to `k` dimensions.
    pub fn new(input_dim: usize, k: usize, seed: u64) -> Self {
        Self { name: format!("random-proj{k}"), projection: RandomProjection::new(input_dim, k, seed) }
    }
}

impl Transformation for RandomProjectionTransform {
    fn name(&self) -> &str {
        &self.name
    }
    fn output_dim(&self) -> usize {
        self.projection.output_dim()
    }
    fn cost_per_sample(&self) -> f64 {
        1e-6
    }
    fn transform(&self, x: DatasetView<'_>) -> Matrix {
        self.projection.transform(x)
    }
}

/// NCA/LDA-style supervised linear projection (the "NCA" entry of the paper's
/// vision zoo): projects onto the top eigenvectors of the between-class
/// scatter of standardised features.
pub struct SupervisedProjection {
    name: String,
    standardizer: Standardizer,
    /// `d × k` projection matrix.
    projection: Matrix,
}

impl SupervisedProjection {
    /// Fits the projection on labelled training data, keeping `k` directions
    /// (clamped to `min(C − 1, d)`).
    ///
    /// The between-class scatter `MᵀM` (rows of `M` are `√w_c (μ_c − μ)`,
    /// `w_c` the class frequency) is `d × d` but has rank at most `C − 1`, so
    /// its eigen-pairs come from the `C × C` Gram matrix `M Mᵀ` instead: an
    /// eigenvector `u` with eigenvalue `λ` maps to the unit direction
    /// `Mᵀu / √λ`. Directions with `λ ≤ 1e-5 · λ_max` (empty classes, fewer
    /// distinct class means than `k`) are left as zero columns, so the output
    /// width is always `k`.
    pub fn fit(train: &Matrix, labels: &[u32], num_classes: usize, k: usize) -> Self {
        assert_eq!(train.rows(), labels.len(), "feature/label count mismatch");
        let standardizer = Standardizer::fit(train);
        let std_train = standardizer.transform(train);
        let d = std_train.cols();
        let k = k.min(num_classes.saturating_sub(1).max(1)).min(d);

        // Rows of `M`: class sums first, then `√w_c (μ_c − μ)`; an empty
        // class keeps a zero row.
        let global_mean = std_train.column_means();
        let mut m = vec![vec![0.0f64; d]; num_classes];
        let mut counts = vec![0usize; num_classes];
        for (i, &y) in labels.iter().enumerate() {
            counts[y as usize] += 1;
            for (acc, v) in m[y as usize].iter_mut().zip(std_train.row(i)) {
                *acc += *v as f64;
            }
        }
        for (row, &count) in m.iter_mut().zip(&counts) {
            if count == 0 {
                continue;
            }
            let scale = (count as f64 / labels.len() as f64).sqrt();
            for (v, g) in row.iter_mut().zip(&global_mean) {
                *v = scale * (*v / count as f64 - g);
            }
        }
        let mut gram = Matrix::zeros(num_classes, num_classes);
        for a in 0..num_classes {
            for b in a..num_classes {
                let v = m[a].iter().zip(&m[b]).map(|(x, y)| x * y).sum::<f64>() as f32;
                gram.set(a, b, v);
                gram.set(b, a, v);
            }
        }
        let eig = symmetric_eigen(&gram);
        let lambda_max = eig.values.first().copied().unwrap_or(0.0);
        let mut projection = Matrix::zeros(d, k);
        for (col, &lambda) in eig.values.iter().enumerate().take(k) {
            if lambda <= 1e-5 * lambda_max || lambda <= 0.0 {
                continue;
            }
            let u = eig.vectors.row(col);
            let inv_norm = 1.0 / lambda.sqrt();
            for row in 0..d {
                let dir = m.iter().zip(u).map(|(mc, &uc)| mc[row] * uc as f64).sum::<f64>();
                projection.set(row, col, (inv_norm * dir) as f32);
            }
        }
        Self { name: "nca".to_string(), standardizer, projection }
    }
}

impl Transformation for SupervisedProjection {
    fn name(&self) -> &str {
        &self.name
    }
    fn output_dim(&self) -> usize {
        self.projection.cols()
    }
    fn cost_per_sample(&self) -> f64 {
        3e-6
    }
    fn transform(&self, x: DatasetView<'_>) -> Matrix {
        self.standardizer.transform(x).matmul(&self.projection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_data::registry::{load_clean, SizeScale};
    use snoopy_knn::{BruteForceIndex, Metric};

    #[test]
    fn identity_is_a_noop_with_zero_cost() {
        let task = load_clean("mnist", SizeScale::Tiny, 1);
        let id = Identity::new(task.raw_dim());
        let out = id.transform_matrix(&task.train.features);
        assert_eq!(out.data(), task.train.features.data());
        assert_eq!(id.cost_per_sample(), 0.0);
        assert_eq!(id.output_dim(), task.raw_dim());
    }

    #[test]
    fn pca_transform_reduces_dimension() {
        let task = load_clean("mnist", SizeScale::Tiny, 2);
        let pca = PcaTransform::fit(&task.train.features, 16);
        assert_eq!(pca.output_dim(), 16);
        assert_eq!(pca.name(), "pca16");
        let out = pca.transform_matrix(&task.test.features);
        assert_eq!(out.rows(), task.test.len());
        assert_eq!(out.cols(), 16);
    }

    #[test]
    fn truncated_pca_is_bit_identical_to_a_narrower_fit() {
        let task = load_clean("cifar10", SizeScale::Tiny, 2);
        let x = &task.train.features;
        let wide = Pca::fit(x, 128);
        let narrow = Pca::fit(x, 32);
        let truncated = wide.truncated(32);
        assert_eq!(truncated.components(), narrow.components());
        assert_eq!(truncated.explained_variance(), narrow.explained_variance());
        assert_eq!(truncated.transform(&task.test.features), narrow.transform(&task.test.features));

        let via_transform = PcaTransform::fit(x, 128).truncated(32);
        assert_eq!(via_transform.name(), "pca32");
        assert_eq!(
            via_transform.transform_matrix(&task.test.features),
            PcaTransform::fit(x, 32).transform_matrix(&task.test.features)
        );
    }

    #[test]
    fn supervised_projection_keeps_its_width_with_an_empty_class() {
        let task = load_clean("cifar10", SizeScale::Tiny, 6);
        // Fold class 3 into class 0, leaving class 3 with no samples.
        let labels: Vec<u32> = task.train.labels.iter().map(|&y| if y == 3 { 0 } else { y }).collect();
        let full = SupervisedProjection::fit(&task.train.features, &task.train.labels, task.num_classes, 16);
        let sup = SupervisedProjection::fit(&task.train.features, &labels, task.num_classes, 16);
        assert_eq!(sup.output_dim(), full.output_dim());
        assert_eq!(sup.output_dim(), task.num_classes - 1);
        let out = sup.transform_matrix(&task.test.features);
        assert_eq!(out.cols(), sup.output_dim());
        assert!(out.data().iter().all(|v| v.is_finite()));
        // Nine non-empty classes span at most eight directions; the ninth
        // column is the zero direction.
        assert!(sup.projection.column(task.num_classes - 2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn standardize_and_random_projection_shapes() {
        let task = load_clean("sst2", SizeScale::Tiny, 3);
        let st = StandardizeTransform::fit(&task.train.features);
        assert_eq!(st.output_dim(), task.raw_dim());
        assert_eq!(st.transform_matrix(&task.test.features).cols(), task.raw_dim());
        let rp = RandomProjectionTransform::new(task.raw_dim(), 24, 9);
        assert_eq!(rp.output_dim(), 24);
        assert_eq!(rp.name(), "random-proj24");
        assert_eq!(rp.transform_matrix(&task.test.features).cols(), 24);
    }

    #[test]
    fn supervised_projection_improves_1nn_over_random_projection() {
        let task = load_clean("cifar10", SizeScale::Tiny, 4);
        let k = 8;
        let sup = SupervisedProjection::fit(&task.train.features, &task.train.labels, task.num_classes, k);
        let rand_proj = RandomProjectionTransform::new(task.raw_dim(), k.min(task.num_classes - 1), 5);

        let err = |train: &Matrix, test: &Matrix| {
            BruteForceIndex::new(train, &task.train.labels, task.num_classes, Metric::SquaredEuclidean)
                .one_nn_error(test, &task.test.labels)
        };
        let sup_err =
            err(&sup.transform_matrix(&task.train.features), &sup.transform_matrix(&task.test.features));
        let rand_err = err(
            &rand_proj.transform_matrix(&task.train.features),
            &rand_proj.transform_matrix(&task.test.features),
        );
        assert!(
            sup_err <= rand_err + 0.05,
            "supervised projection ({sup_err:.3}) should not be much worse than random ({rand_err:.3})"
        );
        assert_eq!(sup.name(), "nca");
        assert!(sup.output_dim() < task.num_classes);
    }
}

//! Principal component analysis.
//!
//! Snoopy's transformation zoo includes PCA32/PCA64/PCA128 entries (Table III
//! of the paper). PCA here is the classic covariance-eigendecomposition
//! variant: fit on the training split, then apply to train and test alike.

use crate::eigen::symmetric_eigen;
use crate::matrix::Matrix;
use crate::view::DatasetView;

/// A fitted PCA transform.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Per-feature mean subtracted before projecting.
    mean: Vec<f32>,
    /// `k × d` matrix whose rows are the top-`k` principal directions.
    components: Matrix,
    /// Eigenvalues (variances) associated with the retained components.
    explained_variance: Vec<f64>,
}

impl Pca {
    /// Fits PCA with `k` components on the rows of `data`.
    ///
    /// `k` is clamped to the feature dimension. Fitting on an empty matrix
    /// yields an all-zero transform of the requested width.
    pub fn fit(data: &Matrix, k: usize) -> Self {
        let d = data.cols();
        let k = k.min(d).max(1);
        if data.rows() == 0 || d == 0 {
            return Self {
                mean: vec![0.0; d],
                components: Matrix::zeros(k, d),
                explained_variance: vec![0.0; k],
            };
        }
        let mean_f64 = data.column_means();
        let mean: Vec<f32> = mean_f64.iter().map(|&m| m as f32).collect();
        let cov = data.covariance();
        let eig = symmetric_eigen(&cov);
        let mut components = Matrix::zeros(k, d);
        let mut explained = Vec::with_capacity(k);
        for i in 0..k {
            components.row_mut(i).copy_from_slice(eig.vectors.row(i));
            explained.push(eig.values[i].max(0.0));
        }
        Self { mean, components, explained_variance: explained }
    }

    /// The same fit keeping only the leading `k` components (clamped to
    /// `1..=num_components()`): bit-identical to `Pca::fit(data, k)`, since
    /// both slice one full decomposition of the same covariance. Fitting the
    /// widest PCA once and truncating it serves every narrower width without
    /// another eigendecomposition.
    pub fn truncated(&self, k: usize) -> Self {
        let k = k.clamp(1, self.num_components());
        Self {
            mean: self.mean.clone(),
            components: self.components.slice_rows(0, k),
            explained_variance: self.explained_variance[..k].to_vec(),
        }
    }

    /// Number of retained components.
    pub fn num_components(&self) -> usize {
        self.components.rows()
    }

    /// Variance explained by each retained component, in descending order.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Fraction of total variance captured by the retained components, given
    /// the total variance of the fitted data (sum of all eigenvalues equals
    /// the trace of the covariance).
    pub fn explained_variance_ratio(&self, total_variance: f64) -> f64 {
        if total_variance <= 0.0 {
            return 0.0;
        }
        (self.explained_variance.iter().sum::<f64>() / total_variance).min(1.0)
    }

    /// Projects each row of `data` onto the principal subspace, producing an
    /// `n × k` matrix. Accepts owned matrices (`&Matrix`) and zero-copy
    /// [`DatasetView`]s alike.
    pub fn transform<'a>(&self, data: impl Into<DatasetView<'a>>) -> Matrix {
        let data = data.into();
        let n = data.rows();
        let d = self.mean.len();
        assert_eq!(data.cols(), d, "PCA transform dimension mismatch");
        let k = self.components.rows();
        let mut out = Matrix::zeros(n, k);
        for r in 0..n {
            let row = data.row(r);
            let out_row = out.row_mut(r);
            for (c, out_val) in out_row.iter_mut().enumerate() {
                let comp = self.components.row(c);
                let mut acc = 0.0f32;
                for j in 0..d {
                    acc += (row[j] - self.mean[j]) * comp[j];
                }
                *out_val = acc;
            }
        }
        out
    }

    /// The principal directions as a `k × d` matrix (rows are unit vectors).
    pub fn components(&self) -> &Matrix {
        &self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use rand::Rng;

    /// Generates points along a dominant direction with small orthogonal noise.
    fn line_cloud(n: usize, seed: u64) -> Matrix {
        let mut r = rng::seeded(seed);
        let mut m = Matrix::zeros(n, 3);
        for i in 0..n {
            let t: f32 = r.gen::<f32>() * 10.0 - 5.0;
            // Dominant direction (1, 2, 0)/sqrt(5), small noise elsewhere.
            let noise = rng::normal_vec(&mut r, 3);
            m.set(i, 0, t * 1.0 + 0.05 * noise[0]);
            m.set(i, 1, t * 2.0 + 0.05 * noise[1]);
            m.set(i, 2, 0.05 * noise[2]);
        }
        m
    }

    #[test]
    fn first_component_aligns_with_dominant_direction() {
        let data = line_cloud(500, 42);
        let pca = Pca::fit(&data, 1);
        let c = pca.components().row(0);
        // Expected direction (1,2,0)/sqrt(5) up to sign.
        let expected = [1.0 / 5.0f32.sqrt(), 2.0 / 5.0f32.sqrt(), 0.0];
        let dot: f32 = c.iter().zip(&expected).map(|(a, b)| a * b).sum();
        assert!(dot.abs() > 0.999, "dot = {dot}");
    }

    #[test]
    fn transform_has_requested_width_and_centered_scores() {
        let data = line_cloud(300, 7);
        let pca = Pca::fit(&data, 2);
        let t = pca.transform(&data);
        assert_eq!(t.rows(), 300);
        assert_eq!(t.cols(), 2);
        let means = t.column_means();
        assert!(means[0].abs() < 1e-3);
        assert!(means[1].abs() < 1e-3);
    }

    #[test]
    fn k_is_clamped_to_dimension() {
        let data = line_cloud(50, 3);
        let pca = Pca::fit(&data, 10);
        assert_eq!(pca.num_components(), 3);
    }

    #[test]
    fn explained_variance_is_descending_and_ratio_bounded() {
        let data = line_cloud(400, 11);
        let pca = Pca::fit(&data, 3);
        let ev = pca.explained_variance();
        assert!(ev[0] >= ev[1] && ev[1] >= ev[2]);
        let total: f64 = ev.iter().sum();
        let ratio = pca.explained_variance_ratio(total);
        assert!((ratio - 1.0).abs() < 1e-9);
        assert!(pca.explained_variance_ratio(0.0) == 0.0);
    }

    #[test]
    fn components_are_orthonormal() {
        let data = line_cloud(400, 13);
        let pca = Pca::fit(&data, 3);
        for i in 0..3 {
            for j in 0..3 {
                let dot = Matrix::row_dot(pca.components().row(i), pca.components().row(j));
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-4, "dot({i},{j}) = {dot}");
            }
        }
    }

    #[test]
    fn truncation_matches_a_narrower_fit() {
        let data = line_cloud(200, 17);
        let narrow = Pca::fit(&data, 2);
        let truncated = Pca::fit(&data, 3).truncated(2);
        assert_eq!(truncated.components(), narrow.components());
        assert_eq!(truncated.explained_variance(), narrow.explained_variance());
        assert_eq!(truncated.transform(&data), narrow.transform(&data));
        assert_eq!(Pca::fit(&data, 3).truncated(10).num_components(), 3);
    }

    #[test]
    fn empty_fit_is_well_defined() {
        let data = Matrix::zeros(0, 4);
        let pca = Pca::fit(&data, 2);
        assert_eq!(pca.num_components(), 2);
        let out = pca.transform(&Matrix::zeros(0, 4));
        assert_eq!(out.rows(), 0);
    }
}

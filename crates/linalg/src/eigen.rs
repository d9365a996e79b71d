//! Symmetric eigendecomposition by Householder tridiagonalisation followed by
//! the implicit-shift QL algorithm.
//!
//! PCA (and the NCA-style supervised projection in `snoopy-embeddings`) needs
//! every eigen-pair of a dense symmetric matrix: a covariance of the raw
//! features, or a small Gram matrix of class means. The solver is the
//! classic `tred2`/`tql2` pair (Bowdler, Martin, Reinsch & Wilkinson, 1968;
//! Golub & Van Loan, *Matrix Computations*, §8.3), in the form popularised by
//! EISPACK and JAMA:
//!
//! 1. **Householder reduction** (`tred2`): `d − 2` reflections reduce `A` to
//!    a symmetric tridiagonal `T = Qᵀ A Q`, and `Q` is accumulated
//!    explicitly — about `(4/3)d³` flops for the reduction and `(4/3)d³` for
//!    the accumulation, `(8/3)d³` together.
//! 2. **Implicit QL** (`tql2`): Wilkinson-shifted QL sweeps drive the
//!    off-diagonal of `T` to zero, deflating one eigenvalue at a time. Each
//!    Givens rotation is also applied to `Q`; with roughly two sweeps per
//!    eigenvalue this is about `6d³` flops, almost all of it in those
//!    rotations.
//!
//! Everything runs in `f64` on flat row-major storage. The accumulator is
//! kept *transposed* — row `i` holds the `i`-th basis vector — so every
//! rotation, and every inner loop of the reduction, streams over contiguous
//! rows rather than striding down columns.
//!
//! **Sign rule.** An eigenvector is defined only up to sign. So that PCA and
//! NCA outputs never depend on the solver's internals, every returned
//! eigenvector is flipped so that its largest-magnitude component (the first
//! one, on an exact tie) is positive.

use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition: eigenvalues in descending order
/// and the matching eigenvectors as rows of `vectors` (`vectors.row(i)` is the
/// unit eigenvector for `values[i]`).
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues sorted in descending order.
    pub values: Vec<f64>,
    /// Eigenvectors, one per row, aligned with `values`, each signed so that
    /// its largest-magnitude component is positive.
    pub vectors: Matrix,
}

/// Computes all eigen-pairs of a symmetric matrix.
///
/// Only the symmetric structure is assumed, not definiteness: zero and
/// negative eigenvalues, repeated eigenvalues and the empty matrix are all
/// handled.
///
/// # Panics
/// Panics if the matrix is not square, or if an eigenvalue comes out NaN
/// (a NaN or infinite entry).
pub fn symmetric_eigen(matrix: &Matrix) -> SymmetricEigen {
    assert_eq!(matrix.rows(), matrix.cols(), "eigendecomposition requires a square matrix");
    let n = matrix.rows();
    if n == 0 {
        return SymmetricEigen { values: Vec::new(), vectors: Matrix::zeros(0, 0) };
    }
    // `q` is the transposed accumulator; starting from `Aᵀ` keeps `tred2`
    // reading exactly the triangle its column-oriented original reads.
    let a = matrix.data();
    let mut q: Vec<f64> = (0..n * n).map(|i| a[(i % n) * n + i / n] as f64).collect();
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];
    tred2(n, &mut q, &mut d, &mut e);
    tql2(n, &mut q, &mut d, &mut e);

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| d[y].partial_cmp(&d[x]).expect("NaN eigenvalue"));
    let values = order.iter().map(|&i| d[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (row, &i) in order.iter().enumerate() {
        let v = &q[i * n..(i + 1) * n];
        let sign = if v[argmax_abs(v)] < 0.0 { -1.0 } else { 1.0 };
        for (out, &x) in vectors.row_mut(row).iter_mut().zip(v) {
            *out = (sign * x) as f32;
        }
    }
    SymmetricEigen { values, vectors }
}

/// Index of the first largest-magnitude entry of a non-empty slice.
fn argmax_abs(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, x) in v.iter().enumerate() {
        if x.abs() > v[best].abs() {
            best = i;
        }
    }
    best
}

/// Householder reduction of the symmetric matrix held (transposed) in `q` to
/// tridiagonal form: on return `d` is the diagonal, `e[1..]` the
/// sub-diagonal, and row `i` of `q` the `i`-th column of the orthogonal
/// `Q` with `Qᵀ A Q = T`.
fn tred2(n: usize, q: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    for j in 0..n {
        d[j] = q[j * n + n - 1];
    }
    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = q[j * n + i - 1];
                q[j * n + i] = 0.0;
                q[i * n + j] = 0.0;
            }
        } else {
            // Householder vector, scaled against under/overflow.
            for x in &mut d[..i] {
                *x /= scale;
                h += *x * *x;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);

            // p = A u (stored in e), reading the lower triangle row-wise.
            for j in 0..i {
                let f = d[j];
                q[i * n + j] = f;
                let row = &q[j * n..j * n + i];
                let mut g = e[j] + row[j] * f;
                for k in j + 1..i {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            // Rank-two update A ← A − u wᵀ − w uᵀ of the leading block.
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut q[j * n..j * n + i];
                for k in j..i {
                    row[k] -= f * e[k] + g * d[k];
                }
                d[j] = row[i - 1];
                q[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate the reflections into Q.
    for i in 0..n - 1 {
        q[i * n + n - 1] = q[i * n + i];
        q[i * n + i] = 1.0;
        let h = d[i + 1];
        let (head, tail) = q.split_at_mut((i + 1) * n);
        let u = &mut tail[..=i];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = u[k] / h;
            }
            for j in 0..=i {
                let row = &mut head[j * n..=j * n + i];
                let g: f64 = u.iter().zip(row.iter()).map(|(a, b)| a * b).sum();
                for (x, &dk) in row.iter_mut().zip(&d[..=i]) {
                    *x -= g * dk;
                }
            }
        }
        u.fill(0.0);
    }
    for j in 0..n {
        d[j] = q[j * n + n - 1];
        q[j * n + n - 1] = 0.0;
    }
    q[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL iteration on the tridiagonal `(d, e)` left by
/// [`tred2`], applying every rotation to the rows of `q`. On return `d`
/// holds the eigenvalues (unsorted) and row `i` of `q` the eigenvector for
/// `d[i]`.
fn tql2(n: usize, q: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    let mut shift_sum = 0.0;
    let mut tst1: f64 = 0.0;
    for l in 0..n {
        // Find the first negligible sub-diagonal entry at or after `l`.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m + 1 < n && e[m].abs() > f64::EPSILON * tst1 {
            m += 1;
        }
        if m > l {
            loop {
                // Wilkinson shift from the leading 2×2 block.
                let g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let h = g - d[l];
                for x in &mut d[l + 2..] {
                    *x -= h;
                }
                shift_sum += h;

                // One implicit QL sweep from the bottom of the block up.
                p = d[m];
                let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0, 0.0);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    let h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);

                    let (head, tail) = q.split_at_mut((i + 1) * n);
                    let (qi, qi1) = (&mut head[i * n..], &mut tail[..n]);
                    for (a, b) in qi.iter_mut().zip(qi1.iter_mut()) {
                        let t = *b;
                        *b = s * *a + c * t;
                        *a = c * *a - s * t;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                // Written as `!(x > tol)` so that a NaN also stops iterating.
                let unconverged = e[l].abs() > f64::EPSILON * tst1;
                if !unconverged {
                    break;
                }
            }
        }
        d[l] += shift_sum;
        e[l] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_sorted_diagonal() {
        let m = Matrix::from_vec(3, 3, vec![2.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 1.0]);
        let eig = symmetric_eigen(&m);
        assert!(approx(eig.values[0], 5.0, 1e-9));
        assert!(approx(eig.values[1], 2.0, 1e-9));
        assert!(approx(eig.values[2], 1.0, 1e-9));
    }

    #[test]
    fn known_2x2_eigenpairs() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1 with vectors (1,1)/sqrt2, (1,-1)/sqrt2.
        let m = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let eig = symmetric_eigen(&m);
        assert!(approx(eig.values[0], 3.0, 1e-9));
        assert!(approx(eig.values[1], 1.0, 1e-9));
        let v0 = eig.vectors.row(0);
        assert!(approx((v0[0] / v0[1]) as f64, 1.0, 1e-5));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_vec(
            4,
            4,
            vec![
                4.0, 1.0, 0.5, 0.0, //
                1.0, 3.0, 0.2, 0.1, //
                0.5, 0.2, 2.0, 0.3, //
                0.0, 0.1, 0.3, 1.0,
            ],
        );
        let eig = symmetric_eigen(&m);
        for i in 0..4 {
            for j in 0..4 {
                let dot = Matrix::row_dot(eig.vectors.row(i), eig.vectors.row(j)) as f64;
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!(approx(dot, expected, 1e-5), "dot({i},{j}) = {dot}");
            }
        }
    }

    #[test]
    fn reconstruction_matches_original() {
        let m = Matrix::from_vec(3, 3, vec![2.0, 0.4, 0.1, 0.4, 1.5, 0.2, 0.1, 0.2, 1.0]);
        let eig = symmetric_eigen(&m);
        // Reconstruct A = sum_i lambda_i v_i v_i^T.
        let mut recon = Matrix::zeros(3, 3);
        for (i, &lambda) in eig.values.iter().enumerate() {
            let v = eig.vectors.row(i);
            for r in 0..3 {
                for c in 0..3 {
                    let cur = recon.get(r, c);
                    recon.set(r, c, cur + (lambda as f32) * v[r] * v[c]);
                }
            }
        }
        for r in 0..3 {
            for c in 0..3 {
                assert!(approx(recon.get(r, c) as f64, m.get(r, c) as f64, 1e-4));
            }
        }
    }

    #[test]
    fn trace_is_preserved() {
        let m = Matrix::from_vec(3, 3, vec![3.0, 1.0, 0.0, 1.0, 2.0, 0.5, 0.0, 0.5, 1.0]);
        let eig = symmetric_eigen(&m);
        let trace: f64 = (0..3).map(|i| m.get(i, i) as f64).sum();
        let sum: f64 = eig.values.iter().sum();
        assert!(approx(trace, sum, 1e-6));
    }

    #[test]
    fn largest_component_of_every_eigenvector_is_positive() {
        // A diagonal matrix's eigenvectors are ±e_i; the rule picks +e_i.
        let diag = Matrix::from_vec(3, 3, vec![1.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 2.0]);
        let eig = symmetric_eigen(&diag);
        assert_eq!(eig.vectors.row(0), &[0.0, 1.0, 0.0]);
        assert_eq!(eig.vectors.row(1), &[0.0, 0.0, 1.0]);
        assert_eq!(eig.vectors.row(2), &[1.0, 0.0, 0.0]);

        let m = Matrix::from_vec(
            4,
            4,
            vec![
                4.0, -1.0, 0.5, 0.0, //
                -1.0, 3.0, -0.2, 0.1, //
                0.5, -0.2, 2.0, -0.3, //
                0.0, 0.1, -0.3, 1.0,
            ],
        );
        let eig = symmetric_eigen(&m);
        for i in 0..4 {
            let v = eig.vectors.row(i);
            let top = v.iter().copied().fold(0.0f32, |acc, x| if x.abs() > acc.abs() { x } else { acc });
            assert!(top > 0.0, "eigenvector {i} = {v:?}");
        }

        // Flipping the sign of a coordinate (A ↦ DAD, D = diag(±1)) maps
        // every eigenvector v to Dv; after the rule, the two results differ
        // only in that coordinate's sign wherever it is not the dominant one.
        let flip = [1.0f32, -1.0, 1.0, 1.0];
        let mut flipped = m.clone();
        for r in 0..4 {
            for c in 0..4 {
                flipped.set(r, c, flip[r] * m.get(r, c) * flip[c]);
            }
        }
        let eig_flipped = symmetric_eigen(&flipped);
        for i in 0..4 {
            let (v, w) = (eig.vectors.row(i), eig_flipped.vectors.row(i));
            let dominant = (0..4).max_by(|&a, &b| v[a].abs().total_cmp(&v[b].abs())).unwrap();
            let sign = flip[dominant];
            for c in 0..4 {
                assert!((sign * flip[c] * v[c] - w[c]).abs() < 1e-5, "vector {i}: {v:?} vs {w:?}");
            }
        }
    }

    #[test]
    fn degenerate_sizes() {
        let empty = symmetric_eigen(&Matrix::zeros(0, 0));
        assert!(empty.values.is_empty());
        let one = symmetric_eigen(&Matrix::from_vec(1, 1, vec![-2.5]));
        assert_eq!(one.values, vec![-2.5]);
        assert_eq!(one.vectors.row(0), &[1.0]);
        let zero = symmetric_eigen(&Matrix::zeros(3, 3));
        assert_eq!(zero.values, vec![0.0; 3]);
        assert_eq!(zero.vectors.data(), Matrix::identity(3).data());
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_non_square() {
        let m = Matrix::zeros(2, 3);
        symmetric_eigen(&m);
    }
}

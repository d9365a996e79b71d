//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use snoopy_linalg::eigen::symmetric_eigen;
use snoopy_linalg::stats;
use snoopy_linalg::Matrix;

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-100.0f32..100.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involutive(m in small_matrix(5, 7)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_is_associative((a, b, c) in (small_matrix(3, 4), small_matrix(4, 2), small_matrix(2, 5))) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            // Relative tolerance: f32 accumulation over entries up to ~1e7 in magnitude.
            prop_assert!((x - y).abs() <= 1e-2 + 5e-3 * x.abs().max(y.abs()));
        }
    }

    #[test]
    fn identity_is_neutral(m in small_matrix(4, 6)) {
        let id = Matrix::identity(6);
        let prod = m.matmul(&id);
        for (x, y) in prod.data().iter().zip(m.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn squared_distance_is_symmetric_nonnegative(
        a in prop::collection::vec(-50.0f32..50.0, 16),
        b in prop::collection::vec(-50.0f32..50.0, 16),
    ) {
        let dab = Matrix::row_sq_dist(&a, &b);
        let dba = Matrix::row_sq_dist(&b, &a);
        prop_assert!(dab >= 0.0);
        prop_assert!((dab - dba).abs() < 1e-3);
        prop_assert_eq!(Matrix::row_sq_dist(&a, &a), 0.0);
    }

    #[test]
    fn softmax_is_a_distribution(logits in prop::collection::vec(-20.0f32..20.0, 1..12)) {
        let p = stats::softmax_f32(&logits);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn quantile_is_monotone(values in prop::collection::vec(-1e3f64..1e3, 2..64)) {
        let q25 = stats::quantile(&values, 0.25);
        let q50 = stats::quantile(&values, 0.5);
        let q75 = stats::quantile(&values, 0.75);
        prop_assert!(q25 <= q50 + 1e-12);
        prop_assert!(q50 <= q75 + 1e-12);
    }

    #[test]
    fn linear_fit_residual_orthogonal_to_x(
        xs in prop::collection::vec(-100.0f64..100.0, 5..40),
        noise in prop::collection::vec(-1.0f64..1.0, 40),
    ) {
        let ys: Vec<f64> = xs.iter().enumerate().map(|(i, &x)| 2.0 * x + 1.0 + noise[i % noise.len()]).collect();
        let (slope, intercept) = stats::linear_fit(&xs, &ys);
        // Normal equations: sum of residuals is ~0.
        let resid_sum: f64 = xs.iter().zip(&ys).map(|(&x, &y)| y - (slope * x + intercept)).sum();
        prop_assert!(resid_sum.abs() < 1e-6 * (1.0 + ys.iter().map(|v| v.abs()).sum::<f64>()));
    }

    #[test]
    fn normal_cdf_is_monotone_and_bounded(x in -6.0f64..6.0, dx in 0.0f64..3.0) {
        let a = stats::normal_cdf(x);
        let b = stats::normal_cdf(x + dx);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!(b + 1e-9 >= a);
    }
}

/// `n × n` symmetric matrix `B Bᵀ + shift · I` from the leading `n²` draws.
fn gram_plus_shift(n: usize, draws: &[f32], shift: f64) -> Matrix {
    let b = |r: usize, c: usize| draws[r * n + c] as f64;
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let mut v: f64 = (0..n).map(|k| b(i, k) * b(j, k)).sum();
            if i == j {
                v += shift;
            }
            a.set(i, j, v as f32);
            a.set(j, i, v as f32);
        }
    }
    a
}

/// Eigenvalues, descending, by the cyclic Jacobi method: an independent
/// reference for the Householder + QL solver, kept only in this test file.
fn jacobi_eigenvalues(m: &Matrix) -> Vec<f64> {
    let n = m.rows();
    let mut a: Vec<f64> = m.data().iter().map(|&v| v as f64).collect();
    let frob: f64 = a.iter().map(|v| v * v).sum();
    for _sweep in 0..100 {
        let off: f64 = (0..n)
            .flat_map(|p| (0..n).map(move |q| (p, q)))
            .filter(|(p, q)| p != q)
            .map(|(p, q)| a[p * n + q].powi(2))
            .sum();
        if off <= 1e-28 * frob {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = a[p * n + q];
                if apq == 0.0 {
                    continue;
                }
                let theta = (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let (akp, akq) = (a[k * n + p], a[k * n + q]);
                    a[k * n + p] = c * akp - s * akq;
                    a[k * n + q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let (apk, aqk) = (a[p * n + k], a[q * n + k]);
                    a[p * n + k] = c * apk - s * aqk;
                    a[q * n + k] = s * apk + c * aqk;
                }
            }
        }
    }
    let mut values: Vec<f64> = (0..n).map(|i| a[i * n + i]).collect();
    values.sort_by(|x, y| y.total_cmp(x));
    values
}

/// The eigensolver's contract on one symmetric matrix: residual
/// `‖Av − λv‖`, orthonormal vectors, descending values, preserved trace,
/// the sign rule, and agreement with the Jacobi reference.
fn check_eigen(a: &Matrix) -> Result<(), TestCaseError> {
    let n = a.rows();
    let eig = symmetric_eigen(a);
    prop_assert_eq!(eig.values.len(), n);
    prop_assert_eq!((eig.vectors.rows(), eig.vectors.cols()), (n, n));
    let scale = a.data().iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt().max(1.0);
    let at = |r: usize, c: usize| a.get(r, c) as f64;

    prop_assert!(eig.values.windows(2).all(|w| w[0] >= w[1]), "not descending: {:?}", eig.values);
    let trace: f64 = (0..n).map(|i| at(i, i)).sum();
    let sum: f64 = eig.values.iter().sum();
    prop_assert!((trace - sum).abs() <= 1e-9 * scale, "trace {} vs eigenvalue sum {}", trace, sum);

    for (i, &lambda) in eig.values.iter().enumerate() {
        let v = eig.vectors.row(i);
        let residual = (0..n)
            .map(|r| ((0..n).map(|c| at(r, c) * v[c] as f64).sum::<f64>() - lambda * v[r] as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        prop_assert!(residual <= 1e-5 * scale, "residual {} for eigenvalue {}", residual, lambda);
        let max = v.iter().copied().fold(f32::MIN, f32::max);
        let min = v.iter().copied().fold(f32::MAX, f32::min);
        prop_assert!(max >= -min, "largest-magnitude component negative: {:?}", v);
        for j in 0..n {
            let dot: f64 = v.iter().zip(eig.vectors.row(j)).map(|(&x, &y)| x as f64 * y as f64).sum();
            let expected = if i == j { 1.0 } else { 0.0 };
            prop_assert!((dot - expected).abs() <= 1e-5, "v{} . v{} = {}", i, j, dot);
        }
    }

    for (got, want) in eig.values.iter().zip(jacobi_eigenvalues(a)) {
        prop_assert!((got - want).abs() <= 1e-9 * scale, "eigenvalue {} vs Jacobi {}", got, want);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eigen_of_random_spd((n, draws, shift) in (1usize..13, prop::collection::vec(-3.0f32..3.0, 144), 0.01f64..2.0)) {
        check_eigen(&gram_plus_shift(n, &draws, shift))?;
    }

    #[test]
    fn eigen_of_rank_deficient_covariance(
        (d, rows, draws) in (2usize..13, 1usize..12, prop::collection::vec(-10.0f32..10.0, 144)),
    ) {
        // Fewer samples than features: rank ≤ rows − 1 < d.
        let rows = rows.min(d - 1);
        let x = Matrix::from_vec(rows, d, draws[..rows * d].to_vec());
        check_eigen(&x.covariance())?;
    }

    #[test]
    fn eigen_of_scaled_identity((n, c) in (1usize..13, -5.0f32..5.0)) {
        let mut a = Matrix::identity(n);
        a.scale(c);
        check_eigen(&a)?;
        let eig = symmetric_eigen(&a);
        prop_assert!(eig.values.iter().all(|&v| v == c as f64));
    }

    #[test]
    fn eigen_of_repeated_blocks((b, repeats, draws) in (2usize..4, 2usize..5, prop::collection::vec(-2.0f32..2.0, 9))) {
        // The same b × b block on the diagonal `repeats` times: every
        // eigenvalue has multiplicity ≥ `repeats`.
        let block = gram_plus_shift(b, &draws, 0.0);
        let n = b * repeats;
        let mut a = Matrix::zeros(n, n);
        for r in 0..repeats {
            for i in 0..b {
                for j in 0..b {
                    a.set(r * b + i, r * b + j, block.get(i, j));
                }
            }
        }
        check_eigen(&a)?;
    }

    #[test]
    fn eigen_of_one_by_one(v in -1e3f32..1e3) {
        let a = Matrix::from_vec(1, 1, vec![v]);
        check_eigen(&a)?;
        let eig = symmetric_eigen(&a);
        prop_assert_eq!(eig.values[0], v as f64);
        prop_assert_eq!(eig.vectors.row(0), &[1.0f32][..]);
    }

    #[test]
    fn eigen_of_zero_matrix(n in 1usize..13) {
        let a = Matrix::zeros(n, n);
        check_eigen(&a)?;
        prop_assert!(symmetric_eigen(&a).values.iter().all(|&v| v == 0.0));
    }
}

//! Dense linear-algebra routines used by the low-rank compression methods.
//!
//! HOS's HOOI kernel approximation and LFB's filter-basis learning both need
//! a truncated SVD of (stacked) filter matrices. We compute it through a
//! Jacobi eigendecomposition of the Gram matrix `AᵀA` — exact, dependency-
//! free, and fast enough for the `ic·kh·kw ≲ a few hundred` matrices that
//! arise in CNN compression.

use crate::Tensor;

/// Jacobi eigendecomposition of a symmetric matrix.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues sorted descending
/// and eigenvectors as *columns* of the returned rank-2 tensor.
pub fn jacobi_eigh(sym: &Tensor, max_sweeps: usize) -> (Vec<f32>, Tensor) {
    let n = sym.dims()[0];
    debug_assert_eq!(sym.dims(), &[n, n], "jacobi_eigh requires square input");
    // Row-major `n×n` buffers indexed `[row * n + col]`. Every rotation
    // reads and writes elements in the order of the element-wise
    // formulation (the row pass reads what the column pass just wrote),
    // so results are bit-identical to it.
    let mut a = sym.data().to_vec();
    let mut v = vec![0.0f32; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    for _ in 0..max_sweeps {
        // Off-diagonal Frobenius norm — convergence criterion.
        let mut off = 0.0f32;
        for i in 0..n {
            for &x in &a[i * n + i + 1..(i + 1) * n] {
                off += x * x;
            }
        }
        if off.sqrt() < 1e-7 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[p * n + q];
                if apq.abs() < 1e-12 {
                    continue;
                }
                let app = a[p * n + p];
                let aqq = a[q * n + q];
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate columns p and q of `a`, then rows p and q, then
                // accumulate the rotation into the eigenvector columns.
                rotate_columns(&mut a, n, p, q, c, s);
                let (head, tail) = a.split_at_mut(q * n);
                for (x, y) in head[p * n..(p + 1) * n].iter_mut().zip(&mut tail[..n]) {
                    let (apk, aqk) = (*x, *y);
                    *x = c * apk - s * aqk;
                    *y = s * apk + c * aqk;
                }
                rotate_columns(&mut v, n, p, q, c, s);
            }
        }
    }
    // Sort by eigenvalue descending.
    let mut order: Vec<usize> = (0..n).collect();
    let eigvals: Vec<f32> = (0..n).map(|i| a[i * n + i]).collect();
    order.sort_by(|&i, &j| eigvals[j].total_cmp(&eigvals[i]));
    let sorted_vals: Vec<f32> = order.iter().map(|&i| eigvals[i]).collect();
    let mut sorted_vecs = Tensor::zeros(&[n, n]);
    for (dst, src) in sorted_vecs.data_mut().chunks_exact_mut(n).zip(v.chunks_exact(n)) {
        for (d, &old_col) in dst.iter_mut().zip(&order) {
            *d = src[old_col];
        }
    }
    (sorted_vals, sorted_vecs)
}

/// Apply the Jacobi rotation `(c, s)` to columns `p` and `q` of the
/// row-major `n×n` matrix `m`, row by row.
fn rotate_columns(m: &mut [f32], n: usize, p: usize, q: usize, c: f32, s: f32) {
    for row in m.chunks_exact_mut(n) {
        let (mkp, mkq) = (row[p], row[q]);
        row[p] = c * mkp - s * mkq;
        row[q] = s * mkp + c * mkq;
    }
}

/// Truncated singular value decomposition.
///
/// For `a` of shape `[m, n]`, returns `(u, s, vt)` with `u: [m, r]`,
/// `s: [r]`, `vt: [r, n]` such that `a ≈ u · diag(s) · vt`, computed from
/// the eigendecomposition of the smaller Gram matrix.
pub fn truncated_svd(a: &Tensor, rank: usize) -> (Tensor, Vec<f32>, Tensor) {
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let r = rank.min(m).min(n).max(1);
    if n <= m {
        // Eigendecompose AᵀA (n×n): V holds right singular vectors.
        let gram = crate::matmul_at_b(a, a); // [n, n]
        let (vals, vecs) = jacobi_eigh(&gram, 30);
        let mut u = Tensor::zeros(&[m, r]);
        let mut s = vec![0.0f32; r];
        let mut vt = Tensor::zeros(&[r, n]);
        for k in 0..r {
            let sigma = vals[k].max(0.0).sqrt();
            s[k] = sigma;
            let vk: Vec<f32> = (0..n).map(|i| vecs.at(&[i, k])).collect();
            for (j, &vv) in vk.iter().enumerate() {
                *vt.at_mut(&[k, j]) = vv;
            }
            if sigma > 1e-8 {
                // u_k = A v_k / sigma
                for i in 0..m {
                    let mut acc = 0.0;
                    for (j, &vv) in vk.iter().enumerate() {
                        acc += a.at(&[i, j]) * vv;
                    }
                    *u.at_mut(&[i, k]) = acc / sigma;
                }
            }
        }
        (u, s, vt)
    } else {
        // Eigendecompose AAᵀ (m×m): U holds left singular vectors.
        let gram = crate::matmul_a_bt(a, a); // [m, m]
        let (vals, vecs) = jacobi_eigh(&gram, 30);
        let mut u = Tensor::zeros(&[m, r]);
        let mut s = vec![0.0f32; r];
        let mut vt = Tensor::zeros(&[r, n]);
        for k in 0..r {
            let sigma = vals[k].max(0.0).sqrt();
            s[k] = sigma;
            let uk: Vec<f32> = (0..m).map(|i| vecs.at(&[i, k])).collect();
            for (i, &uv) in uk.iter().enumerate() {
                *u.at_mut(&[i, k]) = uv;
            }
            if sigma > 1e-8 {
                // vt_k = ukᵀ A / sigma
                for j in 0..n {
                    let mut acc = 0.0;
                    for (i, &uv) in uk.iter().enumerate() {
                        acc += uv * a.at(&[i, j]);
                    }
                    *vt.at_mut(&[k, j]) = acc / sigma;
                }
            }
        }
        (u, s, vt)
    }
}

/// Best rank-`r` approximation factors of `a`.
///
/// Returns `(left, right)` with `left: [m, r]` (`U·diag(S)`) and
/// `right: [r, n]` (`Vᵀ`) so that `a ≈ left · right`. This is the shape the
/// low-rank conv replacement wants: `right` becomes the basis convolution,
/// `left` the pointwise mixing convolution.
pub fn low_rank_factors(a: &Tensor, rank: usize) -> (Tensor, Tensor) {
    let (u, s, vt) = truncated_svd(a, rank);
    let (m, r) = (u.dims()[0], u.dims()[1]);
    let mut left = Tensor::zeros(&[m, r]);
    for i in 0..m {
        for k in 0..r {
            *left.at_mut(&[i, k]) = u.at(&[i, k]) * s[k];
        }
    }
    (left, vt)
}

/// Relative Frobenius reconstruction error `‖a − b‖ / ‖a‖`.
pub fn relative_error(a: &Tensor, b: &Tensor) -> f32 {
    let denom = a.norm().max(1e-12);
    a.sub(b).norm() / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{matmul, rng_from_seed};

    /// The `Tensor::at` formulation this module shipped before raw-slice
    /// indexing, kept verbatim as the bit-identity oracle.
    fn jacobi_eigh_reference(sym: &Tensor, max_sweeps: usize) -> (Vec<f32>, Tensor) {
        let n = sym.dims()[0];
        let mut a = sym.clone();
        let mut v = Tensor::zeros(&[n, n]);
        for i in 0..n {
            *v.at_mut(&[i, i]) = 1.0;
        }
        for _ in 0..max_sweeps {
            let mut off = 0.0f32;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += a.at(&[i, j]) * a.at(&[i, j]);
                }
            }
            if off.sqrt() < 1e-7 {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a.at(&[p, q]);
                    if apq.abs() < 1e-12 {
                        continue;
                    }
                    let app = a.at(&[p, p]);
                    let aqq = a.at(&[q, q]);
                    let theta = 0.5 * (aqq - app) / apq;
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let akp = a.at(&[k, p]);
                        let akq = a.at(&[k, q]);
                        *a.at_mut(&[k, p]) = c * akp - s * akq;
                        *a.at_mut(&[k, q]) = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a.at(&[p, k]);
                        let aqk = a.at(&[q, k]);
                        *a.at_mut(&[p, k]) = c * apk - s * aqk;
                        *a.at_mut(&[q, k]) = s * apk + c * aqk;
                    }
                    for k in 0..n {
                        let vkp = v.at(&[k, p]);
                        let vkq = v.at(&[k, q]);
                        *v.at_mut(&[k, p]) = c * vkp - s * vkq;
                        *v.at_mut(&[k, q]) = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        let eigvals: Vec<f32> = (0..n).map(|i| a.at(&[i, i])).collect();
        order.sort_by(|&i, &j| eigvals[j].total_cmp(&eigvals[i]));
        let sorted_vals: Vec<f32> = order.iter().map(|&i| eigvals[i]).collect();
        let mut sorted_vecs = Tensor::zeros(&[n, n]);
        for (new_col, &old_col) in order.iter().enumerate() {
            for row in 0..n {
                *sorted_vecs.at_mut(&[row, new_col]) = v.at(&[row, old_col]);
            }
        }
        (sorted_vals, sorted_vecs)
    }

    /// Raw-slice Jacobi is bit-identical to the `Tensor::at` oracle on
    /// random symmetric (Gram and plain) and already-diagonal matrices,
    /// including a sweep budget that stops before convergence.
    #[test]
    fn eigh_is_bit_identical_to_indexed_oracle() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = rng_from_seed(17);
        for n in [1usize, 2, 7, 32, 97] {
            let x = Tensor::randn(&[n, n], 1.0, &mut rng);
            let plain = x.add(&x.transpose2()).scale(0.5);
            let gram = crate::matmul_at_b(&x, &x);
            let mut diag = Tensor::zeros(&[n, n]);
            for i in 0..n {
                *diag.at_mut(&[i, i]) = (i as f32 * 0.37).sin();
            }
            for (what, sym) in [("plain", &plain), ("gram", &gram), ("diagonal", &diag)] {
                for sweeps in [2, 30] {
                    let (vals, vecs) = jacobi_eigh(sym, sweeps);
                    let (want_vals, want_vecs) = jacobi_eigh_reference(sym, sweeps);
                    assert_eq!(bits(&vals), bits(&want_vals), "{what} n={n} values");
                    assert_eq!(bits(vecs.data()), bits(want_vecs.data()), "{what} n={n} vectors");
                }
            }
        }
    }

    #[test]
    fn eigh_recovers_diagonal() {
        let d = Tensor::from_slice(&[3, 3], &[3., 0., 0., 0., 1., 0., 0., 0., 2.]);
        let (vals, _) = jacobi_eigh(&d, 20);
        assert!((vals[0] - 3.0).abs() < 1e-5);
        assert!((vals[1] - 2.0).abs() < 1e-5);
        assert!((vals[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn eigh_vectors_orthonormal() {
        let mut rng = rng_from_seed(12);
        let x = Tensor::randn(&[6, 6], 1.0, &mut rng);
        let sym = x.add(&x.transpose2()).scale(0.5);
        let (_, v) = jacobi_eigh(&sym, 30);
        let vtv = matmul(&v.transpose2(), &v);
        for i in 0..6 {
            for j in 0..6 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv.at(&[i, j]) - expect).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn full_rank_svd_reconstructs() {
        let mut rng = rng_from_seed(13);
        let a = Tensor::randn(&[5, 8], 1.0, &mut rng);
        let (left, right) = low_rank_factors(&a, 5);
        let recon = matmul(&left, &right);
        assert!(relative_error(&a, &recon) < 1e-3, "{}", relative_error(&a, &recon));
    }

    #[test]
    fn full_rank_svd_reconstructs_tall() {
        let mut rng = rng_from_seed(14);
        let a = Tensor::randn(&[9, 4], 1.0, &mut rng);
        let (left, right) = low_rank_factors(&a, 4);
        let recon = matmul(&left, &right);
        assert!(relative_error(&a, &recon) < 1e-3);
    }

    #[test]
    fn truncation_error_decreases_with_rank() {
        let mut rng = rng_from_seed(15);
        // Build a matrix with decaying spectrum.
        let u = Tensor::randn(&[10, 10], 1.0, &mut rng);
        let v = Tensor::randn(&[10, 10], 1.0, &mut rng);
        let mut core = Tensor::zeros(&[10, 10]);
        for i in 0..10 {
            *core.at_mut(&[i, i]) = 1.0 / (1 + i * i) as f32;
        }
        let a = matmul(&matmul(&u, &core), &v);
        let mut prev = f32::INFINITY;
        for r in [1usize, 3, 6, 10] {
            let (l, rt) = low_rank_factors(&a, r);
            let err = relative_error(&a, &matmul(&l, &rt));
            assert!(err <= prev + 1e-4, "rank {r}: {err} > {prev}");
            prev = err;
        }
        assert!(prev < 0.05);
    }

    #[test]
    fn rank_one_matrix_exact_at_rank_one() {
        let mut rng = rng_from_seed(16);
        let u = Tensor::randn(&[7, 1], 1.0, &mut rng);
        let v = Tensor::randn(&[1, 5], 1.0, &mut rng);
        let a = matmul(&u, &v);
        let (l, rt) = low_rank_factors(&a, 1);
        assert!(relative_error(&a, &matmul(&l, &rt)) < 1e-3);
    }
}

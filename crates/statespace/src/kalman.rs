//! Kalman filter for univariate observations.
//!
//! Standard prediction/update recursion with scalar innovations, storing
//! everything the smoother and forecaster need. The log-likelihood follows
//! Commandeur & Koopman: the first `n_diffuse` innovations (dominated by the
//! near-diffuse prior) are excluded, so models with different numbers of
//! diffuse states get comparable AICs via the `2·(q + w)` penalty.

use crate::model::Ssm;
use mic_stats::Mat;

const LN_2PI: f64 = 1.837_877_066_409_345_5;

/// Full filtering output for one series.
#[derive(Clone, Debug)]
pub struct FilterResult {
    /// Log-likelihood (first `n_diffuse` innovations excluded).
    pub loglik: f64,
    /// One-step-ahead innovations `v_t = y_t − Z_t a_{t|t−1}`.
    pub innovations: Vec<f64>,
    /// Innovation variances `F_t`.
    pub innovation_vars: Vec<f64>,
    /// Predicted state means `a_{t|t−1}`.
    pub predicted_means: Vec<Vec<f64>>,
    /// Predicted state covariances `P_{t|t−1}`.
    pub predicted_covs: Vec<Mat>,
    /// Filtered state means `a_{t|t}`.
    pub filtered_means: Vec<Vec<f64>>,
    /// Filtered state covariances `P_{t|t}`.
    pub filtered_covs: Vec<Mat>,
}

impl FilterResult {
    /// Number of observations processed.
    pub fn len(&self) -> usize {
        self.innovations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.innovations.is_empty()
    }

    /// One-step-ahead fitted values `ŷ_t = Z_t a_{t|t−1}` reconstructed from
    /// innovations: `ŷ_t = y_t − v_t`.
    pub fn one_step_fitted(&self, ys: &[f64]) -> Vec<f64> {
        ys.iter()
            .zip(&self.innovations)
            .map(|(y, v)| y - v)
            .collect()
    }
}

/// Row-compressed view of the transition matrix `T`.
///
/// Structural-model transitions are mostly zeros — the 13-state
/// level + seasonal + λ model has 23 nonzeros out of 169 — so the per-step
/// `T·P_filt·Tᵀ` products, the filter's dominant cost, are computed from the
/// nonzeros only: `O(nnz·m)` instead of `O(m³)`. Every output element still
/// accumulates its surviving terms in ascending-`k` order, and a skipped
/// term contributes exactly `0.0·x` to a sum, so results are bit-identical
/// to the dense products (up to the sign of exact zeros).
#[derive(Clone, Debug, Default)]
struct SparseTransition {
    row_ptr: Vec<usize>,
    col: Vec<usize>,
    val: Vec<f64>,
}

impl SparseTransition {
    /// Rebuild from `t`, reusing existing capacity.
    fn load(&mut self, t: &Mat) {
        let (rows, cols) = (t.rows(), t.cols());
        let data = t.as_slice();
        self.row_ptr.clear();
        self.col.clear();
        self.val.clear();
        self.row_ptr.push(0);
        for r in 0..rows {
            for c in 0..cols {
                let v = data[r * cols + c];
                if v != 0.0 {
                    self.col.push(c);
                    self.val.push(v);
                }
            }
            self.row_ptr.push(self.col.len());
        }
    }

    fn from_mat(t: &Mat) -> SparseTransition {
        let mut s = SparseTransition::default();
        s.load(t);
        s
    }

    #[inline]
    fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col[lo..hi], &self.val[lo..hi])
    }

    /// `T v`, mirroring `Mat::mul_vec_into` minus the zero terms.
    fn mul_vec_into(&self, v: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len() + 1, self.row_ptr.len());
        for (r, o) in out.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0;
            for (&c, &x) in cols.iter().zip(vals) {
                acc += x * v[c];
            }
            *o = acc;
        }
    }

    /// `T · rhs` into `out`, rows accumulated axpy-style; each element's
    /// terms still arrive in ascending-`k` order like `Mat::mul_into`.
    fn mul_into(&self, rhs: &Mat, out: &mut Mat) {
        let m = rhs.cols();
        debug_assert_eq!(out.rows() + 1, self.row_ptr.len());
        debug_assert_eq!(out.cols(), m);
        let rdat = rhs.as_slice();
        let odat = out.as_mut_slice();
        for r in 0..self.row_ptr.len() - 1 {
            let orow = &mut odat[r * m..(r + 1) * m];
            orow.fill(0.0);
            let (cols, vals) = self.row(r);
            for (&k, &x) in cols.iter().zip(vals) {
                let rrow = &rdat[k * m..(k + 1) * m];
                for (o, rv) in orow.iter_mut().zip(rrow) {
                    *o += x * rv;
                }
            }
        }
    }

    /// `lhs · Tᵀ` into `out`: `out[i][j] = Σ_k lhs[i][k]·T[j][k]`, ascending
    /// `k` per element exactly like the dense `lhs.mul_into(&tt, out)`.
    fn mul_transpose_into(&self, lhs: &Mat, out: &mut Mat) {
        let m = lhs.cols();
        let n_rows = self.row_ptr.len() - 1;
        debug_assert_eq!(out.rows(), lhs.rows());
        debug_assert_eq!(out.cols(), n_rows);
        let ldat = lhs.as_slice();
        let odat = out.as_mut_slice();
        for i in 0..lhs.rows() {
            let lrow = &ldat[i * m..(i + 1) * m];
            for j in 0..n_rows {
                let (cols, vals) = self.row(j);
                let mut acc = 0.0;
                for (&k, &x) in cols.iter().zip(vals) {
                    acc += lrow[k] * x;
                }
                odat[i * n_rows + j] = acc;
            }
        }
    }
}

/// Run the Kalman filter on `ys`.
///
/// # Panics
/// Panics if the model fails validation or `ys` is empty.
pub fn kalman_filter(ssm: &Ssm, ys: &[f64]) -> FilterResult {
    debug_assert!(ssm.validate().is_ok(), "invalid SSM: {:?}", ssm.validate());
    assert!(
        !ys.is_empty(),
        "kalman_filter requires at least one observation"
    );
    let m = ssm.state_dim();
    let n = ys.len();

    let mut a_pred = ssm.a0.clone();
    let mut p_pred = ssm.p0.clone();

    let mut out = FilterResult {
        loglik: 0.0,
        innovations: Vec::with_capacity(n),
        innovation_vars: Vec::with_capacity(n),
        predicted_means: Vec::with_capacity(n),
        predicted_covs: Vec::with_capacity(n),
        filtered_means: Vec::with_capacity(n),
        filtered_covs: Vec::with_capacity(n),
    };

    let mut tp = Mat::zeros(m, m); // T * P_filt scratch
    let st = SparseTransition::from_mat(&ssm.transition); // loop-invariant
    for (t, &y) in ys.iter().enumerate() {
        let z = ssm.loading.at(t);

        // Innovation.
        let mut zy = 0.0;
        for i in 0..m {
            zy += z[i] * a_pred[i];
        }
        let v = y - zy;
        // F = Z P Z' + H.
        let pz: Vec<f64> = (0..m)
            .map(|i| (0..m).map(|j| p_pred[(i, j)] * z[j]).sum::<f64>())
            .collect();
        let mut f = ssm.obs_var;
        for i in 0..m {
            f += z[i] * pz[i];
        }
        // Guard: F = Z P Z' + H is bounded below by the observation
        // variance H for any PSD P, but degenerate parameter vectors can
        // drive the subtract-and-symmetrize recursion indefinite and push
        // Z P Z' below −H. Clamp to the documented floor (H, or 1e-12 for
        // all-zero-variance models) so the likelihood stays finite and an
        // optimiser sees an ordinary bad objective value instead of
        // NaN/−inf.
        let f = f.max(ssm.obs_var.max(1e-12));

        if t >= ssm.n_diffuse && !ssm.extra_skips.contains(&t) {
            out.loglik += -0.5 * (LN_2PI + f.ln() + v * v / f);
        }

        // Update: K = P Z' / F.
        let k: Vec<f64> = pz.iter().map(|&p| p / f).collect();
        let mut a_filt = a_pred.clone();
        for i in 0..m {
            a_filt[i] += k[i] * v;
        }
        // P_filt = P − K (P Z')'.
        let mut p_filt = p_pred.clone();
        for i in 0..m {
            for j in 0..m {
                p_filt[(i, j)] -= k[i] * pz[j];
            }
        }
        p_filt.symmetrize();

        out.innovations.push(v);
        out.innovation_vars.push(f);
        out.predicted_means.push(a_pred.clone());
        out.predicted_covs.push(p_pred.clone());
        out.filtered_means.push(a_filt.clone());
        out.filtered_covs.push(p_filt.clone());

        // Predict next: a = T a_filt; P = T P_filt T' + Q.
        let mut next_a = vec![0.0; m];
        st.mul_vec_into(&a_filt, &mut next_a);
        a_pred = next_a;
        st.mul_into(&p_filt, &mut tp);
        let mut next_p = Mat::zeros(m, m);
        st.mul_transpose_into(&tp, &mut next_p);
        for i in 0..m {
            for j in 0..m {
                next_p[(i, j)] += ssm.state_cov[(i, j)];
            }
        }
        next_p.symmetrize();
        p_pred = next_p;
    }
    out
}

/// How the likelihood kernel applies one row of the transition `T`.
#[derive(Clone, Copy, Debug)]
enum TransitionRow {
    /// `T_i = e_src`: the row's only nonzero is a `1.0` in column `src`, so
    /// it copies state `src` forward.
    Unit(usize),
    /// Any other row; the payload is its index among the general rows (its
    /// row of the workspace's `T·P_filt` block).
    General(usize),
}

/// Pre-allocated buffers for [`kalman_loglik`], reusable across filter runs.
///
/// Maximum-likelihood fitting evaluates the likelihood hundreds of times per
/// series (Nelder–Mead restarts × evaluations), and a change-point search
/// performs dozens of such fits — every evaluation needing only the scalar
/// log-likelihood, not the full [`FilterResult`]. One workspace, created
/// once per search and threaded through every evaluation, removes all per-run
/// and per-timestep heap allocation from that path.
///
/// Buffers are sized lazily for whatever state dimension the next run needs,
/// so one workspace can serve models of different dimensions. Resizing
/// reuses the underlying allocations: a change-point search that alternates
/// between the 12-state baseline and 13-state candidate models pays for the
/// largest dimension once and never touches the allocator again, in either
/// direction of the shrink/grow cycle.
#[derive(Clone, Debug, Default)]
pub struct FilterWorkspace {
    state_dim: usize,
    a_pred: Vec<f64>,
    a_filt: Vec<f64>,
    pz: Vec<f64>,
    k: Vec<f64>,
    p_pred: Mat,
    p_filt: Mat,
    /// `T·P_filt` for the general rows of `T` only, row-major.
    tp: Vec<f64>,
    st: SparseTransition,
    /// `T` compiled row by row (see [`TransitionRow`]).
    rows: Vec<TransitionRow>,
    /// The nonzero entries `(i, Z_t[i])` of the current `Z_t`, ascending.
    z_nz: Vec<(usize, f64)>,
}

impl FilterWorkspace {
    /// Workspace sized for state dimension `m`.
    pub fn new(m: usize) -> FilterWorkspace {
        let mut ws = FilterWorkspace::default();
        ws.ensure_dim(m);
        ws
    }

    /// (Re)size the buffers for state dimension `m`; no-op when the
    /// dimension is unchanged, and allocation-free whenever the buffers'
    /// capacity already covers `m` (i.e. whenever the workspace has seen a
    /// dimension ≥ `m` before).
    fn ensure_dim(&mut self, m: usize) {
        if self.state_dim == m {
            return;
        }
        self.state_dim = m;
        for v in [
            &mut self.a_pred,
            &mut self.a_filt,
            &mut self.pz,
            &mut self.k,
        ] {
            v.clear();
            v.resize(m, 0.0);
        }
        self.p_pred.resize(m, m);
        self.p_filt.resize(m, m);
        self.z_nz.clear();
        self.z_nz.reserve(m);
    }

    /// Compile `t` into unit and general rows and size the `T·P_filt`
    /// block; reuses capacity like [`FilterWorkspace::ensure_dim`].
    fn compile(&mut self, t: &Mat) {
        self.st.load(t);
        self.rows.clear();
        let mut n_general = 0;
        for r in 0..t.rows() {
            let row = match self.st.row(r) {
                (&[src], [1.0]) => TransitionRow::Unit(src),
                _ => {
                    n_general += 1;
                    TransitionRow::General(n_general - 1)
                }
            };
            self.rows.push(row);
        }
        self.tp.clear();
        self.tp.resize(n_general * t.cols(), 0.0);
    }
}

/// `Σ_k lhs[k]·T[r][k]` over row `r`'s nonzeros, ascending `k`.
#[inline]
fn dot_row(lhs: &[f64], (cols, vals): (&[usize], &[f64])) -> f64 {
    let mut acc = 0.0;
    for (&c, &x) in cols.iter().zip(vals) {
        acc += lhs[c] * x;
    }
    acc
}

/// Log-likelihood of `ys` under `ssm`: returns exactly
/// `kalman_filter(ssm, ys).loglik`, bit for bit, with zero heap allocation
/// once `ws` has seen the model's dimension. Use this in optimisation loops;
/// use [`kalman_filter`] when the smoother or forecaster needs the full
/// state trajectory.
///
/// `T` is compiled once per call into unit rows (`T_i = e_src`, 12 of the
/// paper's 13 rows) and general sparse rows, and each step touches only what
/// can be nonzero:
///
/// - `z·a`, `P·z` and `F` run over `Z_t`'s nonzero indices only;
/// - `P_filt = sym(P − k·pzᵀ)` is the oracle's rank-1 update and
///   `symmetrize`, run row by row over contiguous slices;
/// - `T·P_filt` is built for the general rows only;
/// - each upper-triangle entry of `T·P_filt·Tᵀ` is an index copy
///   `P_filt[src_i][src_j]` (unit × unit), the entry `(T·P_filt)[g][src]`
///   (unit × general: `P_filt` is exactly symmetric, so this equals both
///   dense orders), or, for general × general, both dense orders averaged;
///   `Q` is added to both halves before they are averaged, as the oracle's
///   `+ Q` and `symmetrize` do.
///
/// Every retained sum keeps the oracle's term order. A skipped term is
/// `0·x` with `x` finite, an exact zero, which can only flip the sign of an
/// exact-zero sum; that sign never reaches the likelihood, because
/// `F ≥ H > 0` and `v` enters only as `v²`. (Only a recursion that overflows
/// to ±∞, where the oracle's `0·∞` terms are NaN, could tell the two apart;
/// the fitting code clamps the variances far below that.)
///
/// # Panics
/// Panics if the model fails validation or `ys` is empty.
pub fn kalman_loglik(ssm: &Ssm, ys: &[f64], ws: &mut FilterWorkspace) -> f64 {
    debug_assert!(ssm.validate().is_ok(), "invalid SSM: {:?}", ssm.validate());
    assert!(
        !ys.is_empty(),
        "kalman_loglik requires at least one observation"
    );
    let m = ssm.state_dim();
    ws.ensure_dim(m);
    ws.compile(&ssm.transition);
    let FilterWorkspace {
        a_pred,
        a_filt,
        pz,
        k,
        p_pred,
        p_filt,
        tp,
        st,
        rows,
        z_nz,
        ..
    } = ws;

    a_pred.copy_from_slice(&ssm.a0);
    p_pred.copy_from(&ssm.p0);
    let q = ssm.state_cov.as_slice();

    let mut loglik = 0.0;
    for (t, &y) in ys.iter().enumerate() {
        let z = ssm.loading.at(t);
        z_nz.clear();
        z_nz.extend(z.iter().copied().enumerate().filter(|&(_, zi)| zi != 0.0));

        // Innovation and F = Z P Z' + H over Z_t's nonzeros.
        let mut zy = 0.0;
        for &(i, zi) in z_nz.iter() {
            zy += zi * a_pred[i];
        }
        let v = y - zy;
        let p = p_pred.as_slice();
        for (out, row) in pz.iter_mut().zip(p.chunks_exact(m)) {
            let mut acc = 0.0;
            for &(j, zj) in z_nz.iter() {
                acc += row[j] * zj;
            }
            *out = acc;
        }
        let mut f = ssm.obs_var;
        for &(i, zi) in z_nz.iter() {
            f += zi * pz[i];
        }
        // Guard: F ≥ H for any PSD P; clamp indefinite blips to the
        // observation-variance floor (see `kalman_filter`).
        let f = f.max(ssm.obs_var.max(1e-12));

        if t >= ssm.n_diffuse && !ssm.extra_skips.contains(&t) {
            loglik += -0.5 * (LN_2PI + f.ln() + v * v / f);
        }

        // Update: K = P Z' / F; P_filt = sym(P − K (P Z')').
        for i in 0..m {
            k[i] = pz[i] / f;
            a_filt[i] = a_pred[i] + k[i] * v;
        }
        let rank1 = p_filt.as_mut_slice().chunks_exact_mut(m);
        for ((frow, prow), &ki) in rank1.zip(p.chunks_exact(m)).zip(k.iter()) {
            for ((out, &p_ij), &pz_j) in frow.iter_mut().zip(prow).zip(pz.iter()) {
                *out = p_ij - ki * pz_j;
            }
        }
        p_filt.symmetrize();
        let pf = p_filt.as_slice();

        // Predict next: a = T a_filt; P = sym(T P_filt T' + Q).
        for (i, row) in rows.iter().enumerate() {
            match *row {
                TransitionRow::Unit(src) => a_pred[i] = a_filt[src],
                TransitionRow::General(g) => {
                    let (cols, vals) = st.row(i);
                    a_pred[i] = dot_row(a_filt, (cols, vals));
                    let out = &mut tp[g * m..(g + 1) * m];
                    out.fill(0.0);
                    for (&c, &x) in cols.iter().zip(vals) {
                        for (o, pv) in out.iter_mut().zip(&pf[c * m..(c + 1) * m]) {
                            *o += x * pv;
                        }
                    }
                }
            }
        }
        // Row r of T·P_filt: row src of P_filt for a unit row, else its
        // row of `tp`.
        let b_row = |r: usize| match rows[r] {
            TransitionRow::Unit(src) => &pf[src * m..(src + 1) * m],
            TransitionRow::General(g) => &tp[g * m..(g + 1) * m],
        };
        let pp = p_pred.as_mut_slice();
        for i in 0..m {
            let bi = b_row(i);
            pp[i * m + i] = match rows[i] {
                TransitionRow::Unit(src) => bi[src],
                TransitionRow::General(_) => dot_row(bi, st.row(i)),
            } + q[i * m + i];
            for j in i + 1..m {
                let (x_ij, x_ji) = match (rows[i], rows[j]) {
                    (_, TransitionRow::Unit(sj)) => (bi[sj], bi[sj]),
                    (TransitionRow::Unit(si), TransitionRow::General(_)) => {
                        let x = b_row(j)[si];
                        (x, x)
                    }
                    (TransitionRow::General(_), TransitionRow::General(_)) => {
                        (dot_row(bi, st.row(j)), dot_row(b_row(j), st.row(i)))
                    }
                };
                let s = 0.5 * ((x_ij + q[i * m + j]) + (x_ji + q[j * m + i]));
                pp[i * m + j] = s;
                pp[j * m + i] = s;
            }
        }
    }
    loglik
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ObsLoading, DIFFUSE_KAPPA};

    fn local_level(var_eps: f64, var_level: f64) -> Ssm {
        Ssm {
            transition: Mat::identity(1),
            state_cov: Mat::diag(&[var_level]),
            obs_var: var_eps,
            loading: ObsLoading::Constant(vec![1.0]),
            a0: vec![0.0],
            p0: Mat::diag(&[DIFFUSE_KAPPA]),
            n_diffuse: 1,
            extra_skips: Vec::new(),
        }
    }

    #[test]
    fn constant_series_filters_to_constant() {
        let ssm = local_level(1.0, 0.0001);
        let ys = vec![5.0; 30];
        let r = kalman_filter(&ssm, &ys);
        // Filtered level should converge to 5.
        let last = r.filtered_means.last().unwrap()[0];
        assert!((last - 5.0).abs() < 1e-6, "level = {last}");
        // Innovations after burn-in are ~0.
        assert!(r.innovations[29].abs() < 1e-6);
    }

    #[test]
    fn diffuse_initialisation_jumps_to_first_observation() {
        let ssm = local_level(1.0, 0.1);
        let ys = vec![42.0, 42.5, 41.5];
        let r = kalman_filter(&ssm, &ys);
        // With κ = 1e7 the first update absorbs y_1 almost exactly.
        assert!((r.filtered_means[0][0] - 42.0).abs() < 1e-4);
    }

    #[test]
    fn loglik_excludes_diffuse_innovations() {
        // The first innovation has variance ~κ; if it were included the
        // log-likelihood would be dominated by −0.5·ln κ per unit.
        let ssm = local_level(1.0, 0.1);
        let ys = vec![100.0, 100.1, 99.9, 100.2];
        let r = kalman_filter(&ssm, &ys);
        // Reasonable magnitude for 3 scored points of N(·, ~1.1) innovations.
        assert!(r.loglik > -10.0 && r.loglik < 0.0, "loglik = {}", r.loglik);
    }

    #[test]
    fn loglik_matches_closed_form_for_known_model() {
        // With a known initial state (P0 = 0, n_diffuse = 0) and zero state
        // noise, the model reduces to iid N(a0, var_eps) observations whose
        // log-likelihood has a closed form.
        let ssm = Ssm {
            transition: Mat::identity(1),
            state_cov: Mat::diag(&[0.0]),
            obs_var: 2.0,
            loading: ObsLoading::Constant(vec![1.0]),
            a0: vec![1.0],
            p0: Mat::diag(&[0.0]),
            n_diffuse: 0,
            extra_skips: Vec::new(),
        };
        let ys = [1.5, 0.5, 2.0];
        let r = kalman_filter(&ssm, &ys);
        let expected: f64 = ys
            .iter()
            .map(|&y| mic_stats::dist::normal_ln_pdf(y, 1.0, 2.0_f64.sqrt()))
            .sum();
        assert!(
            (r.loglik - expected).abs() < 1e-9,
            "{} vs {expected}",
            r.loglik
        );
    }

    #[test]
    fn innovation_variances_decrease_with_information() {
        let ssm = local_level(1.0, 0.01);
        let ys: Vec<f64> = (0..40).map(|i| 10.0 + 0.001 * i as f64).collect();
        let r = kalman_filter(&ssm, &ys);
        // F_t decreases from the diffuse start toward steady state.
        assert!(r.innovation_vars[1] > r.innovation_vars[10]);
        assert!(r.innovation_vars[10] >= r.innovation_vars[30] - 1e-9);
        // Steady-state F is bounded below by the observation variance.
        assert!(r.innovation_vars[30] >= 1.0);
    }

    #[test]
    fn higher_noise_lowers_likelihood_of_smooth_data() {
        let smooth_ys: Vec<f64> = (0..30).map(|i| (i as f64) * 0.01).collect();
        let good = kalman_filter(&local_level(0.1, 0.01), &smooth_ys);
        let bad = kalman_filter(&local_level(100.0, 0.01), &smooth_ys);
        assert!(good.loglik > bad.loglik);
    }

    #[test]
    fn one_step_fitted_reconstruction() {
        let ssm = local_level(1.0, 0.1);
        let ys = vec![1.0, 2.0, 3.0];
        let r = kalman_filter(&ssm, &ys);
        let fitted = r.one_step_fitted(&ys);
        for (i, f) in fitted.iter().enumerate() {
            assert!((f - (ys[i] - r.innovations[i])).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn empty_series_panics() {
        kalman_filter(&local_level(1.0, 1.0), &[]);
    }

    #[test]
    fn loglik_fast_path_is_bit_identical() {
        let ys: Vec<f64> = (0..40)
            .map(|i| 10.0 + (i as f64 * 0.7).sin() * 2.0)
            .collect();
        let mut ws = FilterWorkspace::new(1);
        for ssm in [
            local_level(1.0, 0.1),
            local_level(0.3, 2.0),
            local_level(100.0, 0.001),
        ] {
            let full = kalman_filter(&ssm, &ys).loglik;
            let fast = kalman_loglik(&ssm, &ys, &mut ws);
            assert_eq!(full.to_bits(), fast.to_bits(), "{full} vs {fast}");
        }
    }

    #[test]
    fn workspace_resizes_across_dimensions() {
        // One workspace serves a 1-state and a 13-state model back to back.
        use crate::structural::{StructuralParams, StructuralSpec};
        let params = StructuralParams {
            var_eps: 1.0,
            var_level: 0.1,
            var_seasonal: 0.01,
        };
        let ys: Vec<f64> = (0..30).map(|i| 5.0 + 0.1 * i as f64).collect();
        let mut ws = FilterWorkspace::new(1);
        for spec in [StructuralSpec::local_level(), StructuralSpec::full(10)] {
            let ssm = spec.build(&params, ys.len());
            let full = kalman_filter(&ssm, &ys).loglik;
            let fast = kalman_loglik(&ssm, &ys, &mut ws);
            assert_eq!(full.to_bits(), fast.to_bits());
        }
    }

    #[test]
    fn workspace_shrink_then_grow_keeps_capacity_and_results() {
        // A search alternates 12-state baseline and 13-state candidate
        // models through ONE workspace; (re)sizing must neither corrupt
        // state nor reallocate once the high-water mark is reached.
        use crate::structural::{StructuralParams, StructuralSpec};
        let params = StructuralParams {
            var_eps: 1.0,
            var_level: 0.1,
            var_seasonal: 0.01,
        };
        let ys: Vec<f64> = (0..36)
            .map(|i| 20.0 + (i as f64 * std::f64::consts::PI / 6.0).sin())
            .collect();
        let big = StructuralSpec::full(18).build(&params, ys.len()); // 13-state
        let small = StructuralSpec::with_seasonal().build(&params, ys.len()); // 12-state

        let mut ws = FilterWorkspace::new(big.state_dim());
        let _warm = kalman_loglik(&big, &ys, &mut ws);
        // Capacity and address of every buffer the kernel (re)fills.
        fn buf<T>(v: &Vec<T>) -> (usize, usize) {
            (v.capacity(), v.as_ptr() as usize)
        }
        let probes = |ws: &FilterWorkspace| {
            vec![
                buf(&ws.a_pred),
                buf(&ws.a_filt),
                buf(&ws.pz),
                buf(&ws.k),
                buf(&ws.tp),
                buf(&ws.rows),
                buf(&ws.z_nz),
                buf(&ws.st.row_ptr),
                buf(&ws.st.col),
                buf(&ws.st.val),
                (0, ws.p_pred.as_slice().as_ptr() as usize),
                (0, ws.p_filt.as_slice().as_ptr() as usize),
            ]
        };
        let before = probes(&ws);

        // Shrink to 12 states, then grow back to 13: results must stay
        // bit-identical to a fresh filter and no buffer may move.
        for ssm in [&small, &big, &small, &big] {
            let full = kalman_filter(ssm, &ys).loglik;
            let fast = kalman_loglik(ssm, &ys, &mut ws);
            assert_eq!(full.to_bits(), fast.to_bits());
        }
        assert_eq!(probes(&ws), before);
    }

    #[test]
    fn indefinite_p0_hits_observation_variance_floor() {
        // validate() does not check that p0 is PSD, so a degenerate
        // parameter vector can drive z'Pz negative mid-filter and push
        // F below zero. The clamp to the observation-variance floor must
        // keep the likelihood finite so Nelder–Mead can reject the point
        // instead of propagating NaN through the simplex.
        let mut ssm = local_level(1.0, 0.1);
        ssm.p0 = Mat::diag(&[-5.0]);
        ssm.n_diffuse = 0;
        let ys = vec![1.0, -2.0, 0.5, 3.0, -1.0];
        let mut ws = FilterWorkspace::new(1);
        let ll = kalman_loglik(&ssm, &ys, &mut ws);
        assert!(ll.is_finite(), "loglik must stay finite, got {ll}");
        let full = kalman_filter(&ssm, &ys);
        assert!(full.loglik.is_finite());
        // The clamp floors F at H = 1.0.
        assert!(full.innovation_vars.iter().all(|&f| f >= 1.0));
    }

    #[test]
    fn loglik_fast_path_respects_skips() {
        let mut ssm = local_level(1.0, 0.1);
        ssm.n_diffuse = 2;
        ssm.extra_skips = vec![5, 7];
        let ys: Vec<f64> = (0..20).map(|i| (i as f64).sqrt()).collect();
        let mut ws = FilterWorkspace::new(1);
        let full = kalman_filter(&ssm, &ys).loglik;
        let fast = kalman_loglik(&ssm, &ys, &mut ws);
        assert_eq!(full.to_bits(), fast.to_bits());
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn empty_series_panics_fast_path() {
        kalman_loglik(&local_level(1.0, 1.0), &[], &mut FilterWorkspace::new(1));
    }
}

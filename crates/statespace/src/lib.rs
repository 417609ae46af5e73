//! # mic-statespace
//!
//! State space models with intervention variables (paper Section V).
//!
//! The paper decomposes each monthly prescription/disease/medicine series
//! into level + seasonality + intervention + irregular:
//!
//! ```text
//! x_t     = μ_t + γ_t1 + λ·w_t + ε_t
//! μ_{t+1} = μ_t + ξ_t
//! γ_{t+1,1} = −Σ_{s=1..11} γ_ts + ω_t   (11 dummy-seasonal states)
//! ```
//!
//! with the slope-shift intervention `w_t = max(0, t − t_CP + 1)` and a
//! single AIC-selected change point found either exhaustively (Algorithm 1)
//! or by binary search (Algorithm 2).
//!
//! Modules:
//!
//! - [`model`] — general linear Gaussian state space model;
//! - [`kalman`] — Kalman filter with near-diffuse initialisation and the
//!   Commandeur–Koopman likelihood (first *d* innovations excluded);
//! - [`smoother`] — fixed-interval (RTS) state smoother;
//! - [`structural`] — the paper's structural model variants
//!   (LL / LL+S / LL+I / LL+S+I) and their component decomposition;
//! - [`estimate`] — maximum-likelihood fitting (Nelder–Mead over
//!   log-variances) and AIC;
//! - [`changepoint`] — Algorithms 1 (exact) and 2 (approximate);
//! - [`arima`] — the ARIMA(p,d,q) baseline with AIC order selection;
//! - [`forecast`] — out-of-sample forecasting for both model families;
//! - [`multi`] — greedy multi-change-point detection (the paper's §IX
//!   extension);
//! - [`diffuse`] — exact diffuse initialisation (Durbin–Koopman), used to
//!   validate the production κ-approximation;
//! - [`diagnostics`] — Ljung–Box residual checks and outlier flags.
//!
//! # Example: detect a slope shift
//!
//! ```
//! use mic_statespace::{search, FilterWorkspace, FitOptions, SearchPlan};
//!
//! // A monthly series that starts climbing at t = 20.
//! let ys: Vec<f64> = (0..43)
//!     .map(|t| if t >= 20 { 10.0 + 1.5 * (t - 19) as f64 } else { 10.0 })
//!     .collect();
//! let opts = FitOptions { max_evals: 150, n_starts: 1, };
//! let plan = SearchPlan::exact(false, opts);
//! let result = search(&ys, &plan, &mut FilterWorkspace::default());
//! assert_eq!(result.change_point.month(), Some(20));
//! assert!(result.aic < result.aic_no_change);
//! ```

pub mod arima;
pub mod changepoint;
pub mod diagnostics;
pub mod diffuse;
pub mod estimate;
pub mod forecast;
pub mod kalman;
pub mod model;
pub mod multi;
pub mod smoother;
pub mod structural;

pub use arima::{fit_arima, select_arima, ArimaFit, ArimaOrder};
pub use changepoint::{
    search, ChangePoint, ChangePointSearch, SearchAlgorithm, SearchPlan, SelectionCriterion,
    WarmStart,
};
pub use diagnostics::{diagnose_residuals, ResidualDiagnostics};
pub use estimate::{fit_structural, FitOptions, FittedStructural};
pub use kalman::{kalman_filter, kalman_loglik, FilterResult, FilterWorkspace};
pub use model::Ssm;
pub use multi::{detect_multiple, MultiChangePoints, MultiStructuralSpec};
pub use smoother::{smooth, SmoothResult};
pub use structural::{Components, InterventionSpec, StructuralParams, StructuralSpec};

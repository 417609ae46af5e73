//! # prescription-trends
//!
//! A from-scratch Rust reproduction of *"A Prescription Trend Analysis using
//! Medical Insurance Claim Big Data"* (Umemoto, Goda, Mitsutake,
//! Kitsuregawa; ICDE 2019).
//!
//! The paper detects changes in medicine-prescription trends from Medical
//! Insurance Claim (MIC) records in two stages: a latent-variable
//! *medication model* predicts the disease–medicine links that MIC data
//! lacks and reproduces monthly prescription time series; a *state space
//! model with intervention variables* then decomposes each series into
//! level, seasonality, structural change, and noise, selecting a change
//! point by AIC either exhaustively or by binary search.
//!
//! This umbrella crate re-exports the workspace:
//!
//! - [`claims`] (`mic-claims`) — MIC data model + synthetic claims-world
//!   simulator (substitute for the proprietary Mie Prefecture dataset);
//! - [`stats`] (`mic-stats`) — the statistical substrate (distributions,
//!   tests, metrics, optimisation, linear algebra);
//! - [`linkmodel`] (`mic-linkmodel`) — Section IV: EM medication model,
//!   baselines, perplexity, time-series reproduction;
//! - [`statespace`] (`mic-statespace`) — Section V: Kalman machinery,
//!   structural models, change-point search, ARIMA, forecasting;
//! - [`trend`] (`mic-trend`) — the end-to-end pipeline and the Section VII
//!   applications (temporal change detection, geographic spread,
//!   hospital-class gap analysis).
//!
//! ## Quickstart
//!
//! ```
//! use prescription_trends::claims::{Simulator, WorldSpec};
//! use prescription_trends::trend::{PipelineConfig, TrendPipeline};
//!
//! // A small synthetic claims world with planted market events.
//! let spec = WorldSpec { months: 18, n_patients: 150, n_diseases: 10,
//!                        n_medicines: 14, ..WorldSpec::default() };
//! let world = spec.generate();
//! let dataset = Simulator::new(&world, 7).run();
//!
//! // Reproduce prescription series and detect trend changes.
//! let config = PipelineConfig { seasonal: false, ..PipelineConfig::default() };
//! let report = TrendPipeline::new(config).run(&dataset).unwrap();
//! for change in report.detected().iter().take(3) {
//!     println!("{}: change at {}", change.key, change.change_point);
//! }
//! ```

pub use mic_claims as claims;
pub use mic_linkmodel as linkmodel;
pub use mic_statespace as statespace;
pub use mic_stats as stats;
pub use mic_trend as trend;

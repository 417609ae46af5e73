//! # mic-trend
//!
//! The paper's end-to-end prescription trend analysis pipeline and its three
//! applications (Section VII):
//!
//! - [`pipeline`] — the configuration, the report types, and the batch
//!   entry point [`TrendPipeline::run`] (monthly medication-model fits →
//!   reproduced prescription panel → parallel state-space fleet →
//!   per-series change reports);
//! - [`classify`] — categorisation of detected changes into disease-,
//!   medicine-, and prescription-derived causes (Fig. 1b);
//! - [`geo`] — geographical prescription spread analysis (Fig. 8): per-city
//!   models quantifying generic uptake;
//! - [`hospital`] — inter-hospital prescription gap analysis (Table II):
//!   per-hospital-class models ranking the diseases a medicine is
//!   prescribed for;
//! - [`session`] — the incremental [`AnalysisSession`]: explicit
//!   [`Stage1Reproduce`] / [`Stage2Detect`] stages, month-by-month appends
//!   with warm-started EM, and a content-hashed cache of Stage-2 fits;
//! - [`report`] — fixed-width table and CSV rendering of results.

pub mod classify;
pub mod geo;
pub mod hospital;
pub mod outbreak;
pub mod pipeline;
pub mod report;
pub mod session;

pub use classify::{classify_change, ChangeCause};
pub use outbreak::{detect_outbreaks, OutbreakAlert, OutbreakConfig};
pub use pipeline::{PipelineConfig, SeriesReport, TrendPipeline, TrendReport};
pub use session::{AnalysisSession, FitCache, Stage1Reproduce, Stage2Detect};

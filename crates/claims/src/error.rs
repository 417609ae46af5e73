//! Typed validation errors for MIC records, datasets, world specs and the
//! months an analysis session absorbs.
//!
//! Replaces the stringly `Result<(), String>` returns of
//! [`crate::record::MicRecord::validate`] and
//! [`crate::record::ClaimsDataset::validate`] with an enum callers can match
//! on. `Display` renders the same human-readable messages the string versions
//! produced, so log output and error-substring assertions are unchanged.

use std::error::Error;
use std::fmt;

use crate::ids::{DiseaseId, Month};

/// A structural-consistency violation in a record, month, or dataset.
#[derive(Clone, Debug, PartialEq)]
pub enum ClaimsError {
    /// `truth_links` and `medicines` have different lengths.
    TruthLinkLength { links: usize, medicines: usize },
    /// A record prescribes medicines but carries no diseases.
    MedicinesWithoutDiseases,
    /// A disease appears in the bag with a diagnosis count of zero.
    ZeroDiseaseCount { disease: DiseaseId },
    /// A disease appears more than once in the bag.
    DuplicateDisease { disease: DiseaseId },
    /// A truth link references a disease absent from the bag.
    ForeignTruthLink { disease: DiseaseId },
    /// Month at position `index` carries the wrong label.
    MonthLabel { index: usize, label: Month },
    /// An id exceeds the dataset's catalogue size.
    IdOutOfRange {
        what: &'static str,
        id: u32,
        limit: usize,
    },
    /// The temporal-prior weight chaining consecutive months' EM fits is
    /// outside `[0, 1)`.
    ContinuityOutOfRange { value: f64 },
    /// A `WorldSpec` field is below the generator's minimum.
    SpecTooSmall {
        what: &'static str,
        value: usize,
        min: usize,
    },
    /// A record-level error, located within its month.
    Record {
        month: usize,
        record: usize,
        source: Box<ClaimsError>,
    },
}

impl fmt::Display for ClaimsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClaimsError::TruthLinkLength { links, medicines } => {
                write!(
                    f,
                    "truth_links length {links} != medicines length {medicines}"
                )
            }
            ClaimsError::MedicinesWithoutDiseases => {
                write!(f, "medicines present but no diseases")
            }
            ClaimsError::ZeroDiseaseCount { disease } => {
                write!(f, "disease {disease} has zero count")
            }
            ClaimsError::DuplicateDisease { disease } => {
                write!(f, "disease {disease} appears twice in the bag")
            }
            ClaimsError::ForeignTruthLink { disease } => {
                write!(f, "truth link to {disease} not in disease bag")
            }
            ClaimsError::MonthLabel { index, label } => {
                write!(f, "month {index} labelled {label}")
            }
            ClaimsError::IdOutOfRange { what, id, limit } => {
                write!(f, "{what} id {id} out of range (catalogue size {limit})")
            }
            ClaimsError::ContinuityOutOfRange { value } => {
                write!(f, "continuity must be in [0, 1), got {value}")
            }
            ClaimsError::SpecTooSmall { what, value, min } => {
                write!(f, "world spec has {value} {what}, need at least {min}")
            }
            ClaimsError::Record {
                month,
                record,
                source,
            } => {
                write!(f, "month {month} record {record}: {source}")
            }
        }
    }
}

impl Error for ClaimsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClaimsError::Record { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_legacy_messages() {
        let e = ClaimsError::TruthLinkLength {
            links: 2,
            medicines: 3,
        };
        assert_eq!(e.to_string(), "truth_links length 2 != medicines length 3");
        let e = ClaimsError::ZeroDiseaseCount {
            disease: DiseaseId(4),
        };
        assert!(e.to_string().contains("zero count"));
        let e = ClaimsError::Record {
            month: 1,
            record: 7,
            source: Box::new(ClaimsError::MedicinesWithoutDiseases),
        };
        assert_eq!(
            e.to_string(),
            "month 1 record 7: medicines present but no diseases"
        );
    }

    #[test]
    fn record_variant_exposes_source() {
        let e = ClaimsError::Record {
            month: 0,
            record: 0,
            source: Box::new(ClaimsError::DuplicateDisease {
                disease: DiseaseId(1),
            }),
        };
        let src = Error::source(&e).expect("record error must carry a source");
        assert!(src.to_string().contains("twice"));
        assert!(Error::source(&ClaimsError::MedicinesWithoutDiseases).is_none());
    }
}

//! `alberta-report`: structured run reports for the characterization
//! pipeline.
//!
//! The rendering binaries (`table1`, `table2`, `fig1`, `fig2`,
//! `timing`) print human-readable artifacts and discard everything
//! else; nothing machine-readable survives a run. This crate closes
//! that gap with three layers:
//!
//! * [`json`] — a deterministic, dependency-free JSON model: ordered
//!   objects, exact `u64`s, shortest-round-trip floats, and a strict
//!   parser whose output re-emits byte-identically (re-exported from
//!   `alberta_core`, which also uses it for the worker pipe protocol);
//! * [`schema`] — the versioned [`SuiteReport`] document built from a
//!   metered sweep ([`Suite::characterize_all_metered`] or its
//!   resilient sibling), carrying per-run status, accounting, and
//!   measured behaviour plus per-benchmark Table II summaries;
//! * [`diff`] — comparison of two reports into structural regressions
//!   (status flips, lost workloads) and numeric deltas (modelled
//!   cycles, behaviour variation), the engine behind `bench-diff`.
//!
//! The [`view`] module rebuilds the rendering structs of
//! `alberta-core` (Table II rows, figure series) from a parsed report,
//! so the binaries can print from the same document they persist.
//!
//! [`Suite::characterize_all_metered`]: alberta_core::Suite::characterize_all_metered

pub mod diff;
pub use alberta_core::json;
pub mod mem;
pub mod metrics;
pub mod schema;
pub mod serve;
pub mod timeline;
pub mod trace;
pub mod view;

pub use diff::{DiffOptions, ReportDiff};
pub use mem::{MemoryDocument, MemoryRunRecord, MEM_SCHEMA_VERSION};
pub use metrics::MetricsDocument;
pub use schema::{
    BenchmarkReport, CategoryRecord, HotPathRecord, MeasureRecord, RunRecord, SamplingRecord,
    StatusKind, SuiteReport, SummaryRecord, SCHEMA_VERSION,
};
pub use serve::{CacheDocument, HostRecord, LatencyReport, StormReport};
pub use timeline::render_service_timeline;
pub use trace::{render_trace, TraceMode, DEFAULT_LANES};

use json::{DecodeError, FromJson};
use std::fmt;
use std::path::Path;

/// Everything that can go wrong reading or interpreting a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// The text is not well-formed JSON.
    Json {
        /// Byte offset of the problem.
        offset: usize,
        /// What the parser expected or saw.
        message: String,
    },
    /// The JSON is well-formed but does not match the schema.
    Schema {
        /// What is missing or mistyped.
        message: String,
    },
    /// The document declares a `schema_version` this build cannot read.
    UnsupportedVersion {
        /// The version the document declared.
        found: u64,
    },
    /// A filesystem read or write failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error text.
        message: String,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Json { offset, message } => {
                write!(f, "malformed JSON at byte {offset}: {message}")
            }
            ReportError::Schema { message } => write!(f, "invalid report: {message}"),
            ReportError::UnsupportedVersion { found } => write!(
                f,
                "unsupported schema_version {found}: this build reads version {SCHEMA_VERSION} \
                 only; regenerate the report with a matching bench-report"
            ),
            ReportError::Io { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<json::ParseError> for ReportError {
    fn from(e: json::ParseError) -> Self {
        ReportError::Json {
            offset: e.offset,
            message: e.message,
        }
    }
}

impl From<DecodeError> for ReportError {
    fn from(e: DecodeError) -> Self {
        ReportError::Schema {
            message: e.to_string(),
        }
    }
}

/// Parses a schema-versioned document: `schema_version` must equal
/// `version` before any other field is interpreted, because field
/// meanings are only defined per version.
fn parse_versioned<T: FromJson>(text: &str, version: u64) -> Result<T, ReportError> {
    let value = json::parse(text)?;
    let found = json::req(&value, "schema_version")?;
    if found != version {
        return Err(ReportError::UnsupportedVersion { found });
    }
    Ok(T::from_value(&value)?)
}

/// Reads and parses a report file.
///
/// # Errors
///
/// [`ReportError::Io`] when the file cannot be read, otherwise whatever
/// [`SuiteReport::parse`] reports.
pub fn load(path: &Path) -> Result<SuiteReport, ReportError> {
    let text = std::fs::read_to_string(path).map_err(|e| ReportError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    SuiteReport::parse(&text)
}

/// Serializes a report and writes it to a file.
///
/// # Errors
///
/// [`ReportError::Io`] when the write fails.
pub fn save(report: &SuiteReport, path: &Path) -> Result<(), ReportError> {
    std::fs::write(path, report.to_json()).map_err(|e| ReportError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

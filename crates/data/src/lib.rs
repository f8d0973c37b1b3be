//! Relational data substrate for the DISC reproduction.
//!
//! The paper evaluates on nine real datasets (Table 1): Iris, Seeds, WIFI,
//! Yeast, Letter, Flight, Spam, GPS and Restaurant — all with real-world or
//! injected outliers. Those raw files (UCI/figshare/private GPS traces) are
//! not available offline, so this crate provides *synthetic generators*
//! matched to Table 1's shape (tuple count, attribute count, class count,
//! outlier count, attribute domain) plus the error-injection machinery the
//! paper uses for its controlled experiments (Figures 9 and 10):
//!
//! * [`Schema`]/[`Dataset`] — typed relations with optional class labels and
//!   ground-truth bookkeeping;
//! * [`normalize`] — min-max and z-score column scaling;
//! * [`csv`] — plain CSV import/export for interoperability;
//! * [`synth`] — cluster-structured generators for every paper dataset;
//! * [`noise`] — dirty-outlier injection (errors in 1–2 attributes: unit
//!   mistakes, offsets, digit typos, letter↔digit swaps) and natural-outlier
//!   injection (far away in *all* attributes), with a ground-truth log;
//! * [`validate`] — non-finite input hardening: a configurable
//!   [`NonFinitePolicy`] (reject / null out / drop row) applied by
//!   [`Dataset::sanitize_non_finite`] and by the CSV importer, so `NaN`
//!   never silently reaches an ε-comparison;
//! * [`binary`] — the stable binary encoding of values, rows, and
//!   schemas shared by the persistence layer's write-ahead log and
//!   snapshot formats (bit-exact `f64` round-trips, panic-free
//!   decoding).

pub mod binary;
pub mod csv;
pub mod dataset;
pub mod noise;
pub mod normalize;
pub mod schema;
pub mod synth;
pub mod validate;

pub use dataset::{bit_equal, bit_equal_row, Dataset};
pub use noise::{ErrorInjector, ErrorKind, InjectionLog, OutlierKind};
pub use normalize::{minmax_normalize, zscore_normalize, ColumnStats};
pub use schema::{AttrKind, Attribute, Schema};
pub use synth::{paper, ClusterSpec, SyntheticDataset};
pub use validate::{NonFiniteError, NonFinitePolicy, SanitizeReport};

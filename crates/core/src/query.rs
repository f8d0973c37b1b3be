//! The typed read API over engine state.
//!
//! Every read is one [`Query`] → [`Response`] enum pair, answered
//! uniformly by [`EngineState::query`] (an exported image) and
//! [`ShardedEngine::query`](crate::ShardedEngine::query) (the live
//! engine), and consumed by the serve protocol, the CLI, and tests.
//!
//! Out-of-range conventions are part of the enum contract:
//! [`Response::IsInlier`] is `false` for unknown rows (an unknown row is
//! certainly not an inlier), while the row-valued reads answer `None`.

use disc_distance::Value;

use crate::engine::EngineState;

/// One typed read against engine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Number of ingested rows.
    Len,
    /// The engine generation (successful ingests since empty). This is
    /// the coordinate replication and read-your-writes clients key on:
    /// two states at the same generation are bit-identical.
    Generation,
    /// Is `row` currently classified an inlier? (Out-of-range rows are
    /// not inliers.)
    IsInlier {
        /// Global row id.
        row: usize,
    },
    /// Cached ε-neighbor count of `row`, self-inclusive.
    NeighborCount {
        /// Global row id.
        row: usize,
    },
    /// Output values of `row` (original + current adjustment).
    CurrentRow {
        /// Global row id.
        row: usize,
    },
    /// Original (as-ingested) values of `row`.
    OriginalRow {
        /// Global row id.
        row: usize,
    },
    /// All rows currently classified outliers, ascending.
    Outliers,
}

/// The answer to a [`Query`]; variants correspond one-to-one.
///
/// Row-valued responses borrow from the queried state, so a response
/// never copies row data the caller doesn't use.
#[derive(Debug, Clone, PartialEq)]
pub enum Response<'a> {
    /// Answer to [`Query::Len`].
    Len(usize),
    /// Answer to [`Query::Generation`].
    Generation(u64),
    /// Answer to [`Query::IsInlier`].
    IsInlier(bool),
    /// Answer to [`Query::NeighborCount`]; `None` for an out-of-range
    /// row.
    NeighborCount(Option<usize>),
    /// Answer to [`Query::CurrentRow`]; `None` for an out-of-range row.
    CurrentRow(Option<&'a [Value]>),
    /// Answer to [`Query::OriginalRow`]; `None` for an out-of-range row.
    OriginalRow(Option<&'a [Value]>),
    /// Answer to [`Query::Outliers`].
    Outliers(Vec<usize>),
}

impl EngineState {
    /// Answers one typed read against this exported image.
    pub fn query(&self, query: Query) -> Response<'_> {
        match query {
            Query::Len => Response::Len(self.original.len()),
            Query::Generation => Response::Generation(self.generation),
            Query::IsInlier { row } => Response::IsInlier(self.nearest.get(row).is_some()),
            Query::NeighborCount { row } => Response::NeighborCount(self.counts.get(row).copied()),
            Query::CurrentRow { row } => {
                Response::CurrentRow(self.current.get(row).map(Vec::as_slice))
            }
            Query::OriginalRow { row } => {
                Response::OriginalRow(self.original.get(row).map(Vec::as_slice))
            }
            Query::Outliers => Response::Outliers(
                (0..self.original.len())
                    .filter(|&i| self.nearest.get(i).is_none())
                    .collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> EngineState {
        EngineState {
            generation: 3,
            original: vec![
                vec![Value::Num(0.0)],
                vec![Value::Num(1.0)],
                vec![Value::Num(9.0)],
            ],
            current: vec![
                vec![Value::Num(0.0)],
                vec![Value::Num(1.0)],
                vec![Value::Num(1.5)], // saved outlier: adjusted output
            ],
            counts: vec![2, 2, 1],
            nearest: [Some(&[1.0][..]), Some(&[1.0][..]), None]
                .into_iter()
                .collect(),
            pending: vec![],
        }
    }

    #[test]
    fn queries_answer_from_the_image() {
        let state = image();
        assert_eq!(state.query(Query::Len), Response::Len(3));
        assert_eq!(state.query(Query::Generation), Response::Generation(3));
        assert_eq!(
            state.query(Query::IsInlier { row: 0 }),
            Response::IsInlier(true)
        );
        assert_eq!(
            state.query(Query::IsInlier { row: 2 }),
            Response::IsInlier(false)
        );
        assert_eq!(
            state.query(Query::NeighborCount { row: 2 }),
            Response::NeighborCount(Some(1))
        );
        assert_eq!(
            state.query(Query::CurrentRow { row: 2 }),
            Response::CurrentRow(Some(&[Value::Num(1.5)][..]))
        );
        assert_eq!(
            state.query(Query::OriginalRow { row: 2 }),
            Response::OriginalRow(Some(&[Value::Num(9.0)][..]))
        );
        assert_eq!(state.query(Query::Outliers), Response::Outliers(vec![2]));
    }

    #[test]
    fn out_of_range_rows_answer_by_convention() {
        let state = image();
        assert_eq!(
            state.query(Query::IsInlier { row: 99 }),
            Response::IsInlier(false)
        );
        assert_eq!(
            state.query(Query::NeighborCount { row: 99 }),
            Response::NeighborCount(None)
        );
        assert_eq!(
            state.query(Query::CurrentRow { row: 99 }),
            Response::CurrentRow(None)
        );
        assert_eq!(
            state.query(Query::OriginalRow { row: 99 }),
            Response::OriginalRow(None)
        );
    }
}

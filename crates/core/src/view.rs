//! The engine's row store, its copy-on-write tables, and the read-only
//! view a publish hands to readers.
//!
//! Ingested rows are never rewritten, and an ingest changes the per-row
//! tables only at the rows it touches. So the engine keeps its rows in a
//! `RowStore` of fixed-size chunks whose slots are written once, and
//! its counts, `δ_η` lists and adjusted rows in `Chunks`: fixed-size
//! chunks behind `Arc` that a write copies only while someone else
//! still holds them (counted on `engine.chunks_copied`).
//! [`ShardedEngine::view`] clones chunk pointers, not rows, into an
//! [`EngineView`]; the next ingest copies only the chunks it writes
//! that the view still holds. A view answers every read of engine
//! state, and builds the flat [`EngineState`] at most once
//! ([`EngineView::state`]).
//!
//! [`ShardedEngine::view`]: crate::ShardedEngine::view

use std::ops::{Index, IndexMut};
use std::sync::{Arc, OnceLock};

use disc_distance::Value;
use disc_obs::counters;

use crate::cache::NearestTable;
use crate::engine::EngineState;

/// Rows per chunk of the row store and of every copy-on-write table. A
/// small chunk keeps the chunks an 8-row ingest writes few at any row
/// count; a view of n rows clones n / `CHUNK` pointers per table.
pub(crate) const CHUNK: usize = 64;

/// A table of rows of `width` elements each, in chunks of [`CHUNK`]
/// rows behind `Arc`. Cloning it clones chunk pointers; writing into a
/// chunk that a clone still holds copies that chunk first. A one-wide
/// table indexes its elements directly (`Index<usize>`). Every chunk is
/// allocated whole; the slots past the last row hold the fill of the
/// push that allocated it, and reads past the end are the caller's to
/// refuse (debug builds assert).
#[derive(Clone)]
pub(crate) struct Chunks<T> {
    /// Elements per row.
    width: usize,
    /// Rows held.
    rows: usize,
    /// `CHUNK` rows' slots each.
    chunks: Vec<Arc<[T]>>,
}

impl<T: Clone> Chunks<T> {
    /// An empty table of `width`-element rows, with room for the chunk
    /// pointers of `rows` rows. Allocates nothing until a row arrives.
    pub(crate) fn with_capacity(width: usize, rows: usize) -> Self {
        Chunks {
            width,
            rows: 0,
            chunks: Vec::with_capacity(rows.div_ceil(CHUNK)),
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// The elements of `row`, which must be below [`Chunks::len`].
    pub(crate) fn row(&self, row: usize) -> &[T] {
        debug_assert!(row < self.rows, "row {row} of {}", self.rows);
        &self.chunks[row / CHUNK][(row % CHUNK) * self.width..][..self.width]
    }

    /// The elements of `row`, for writing; copies its chunk first while
    /// a clone of the table still holds it.
    pub(crate) fn row_mut(&mut self, row: usize) -> &mut [T] {
        let width = self.width;
        &mut self.chunk_mut(row / CHUNK)[(row % CHUNK) * width..][..width]
    }

    /// Appends a row holding `width` copies of `fill`.
    pub(crate) fn push(&mut self, fill: T) {
        let row = self.rows;
        self.rows += 1;
        if row.is_multiple_of(CHUNK) {
            self.chunks.push(vec![fill; CHUNK * self.width].into());
        } else {
            self.row_mut(row).fill(fill);
        }
    }

    /// Every element in row order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        let held = self.rows * self.width;
        self.chunks.iter().flat_map(|chunk| chunk.iter()).take(held)
    }

    /// Chunk `k`, unshared: a chunk another clone still holds is copied
    /// and the copy counted.
    fn chunk_mut(&mut self, k: usize) -> &mut [T] {
        let chunk = &mut self.chunks[k];
        if Arc::get_mut(chunk).is_none() {
            counters::ENGINE_CHUNKS_COPIED.incr();
            *chunk = Arc::from(&chunk[..]);
        }
        Arc::get_mut(chunk).expect("an unshared chunk has one owner")
    }
}

impl<T: Clone> Index<usize> for Chunks<T> {
    type Output = T;

    /// Element `row` of a one-wide table.
    fn index(&self, row: usize) -> &T {
        debug_assert!(self.width == 1 && row < self.rows);
        &self.chunks[row / CHUNK][row % CHUNK]
    }
}

impl<T: Clone> IndexMut<usize> for Chunks<T> {
    /// Element `row` of a one-wide table, for writing (see
    /// [`Chunks::row_mut`]).
    fn index_mut(&mut self, row: usize) -> &mut T {
        debug_assert!(self.width == 1 && row < self.rows);
        &mut self.chunk_mut(row / CHUNK)[row % CHUNK]
    }
}

/// The engine's as-ingested rows, in global id order: chunks of
/// [`CHUNK`] write-once slots behind `Arc`. A row is written once,
/// through a shared reference, and never moves, so a clone (a view's
/// copy) is the chunk pointers plus a length, and an append copies no
/// row. The engine is the only writer; a clone reads only its first
/// `len` rows.
#[derive(Clone, Default)]
pub(crate) struct RowStore {
    /// Rows held.
    len: usize,
    chunks: Vec<Arc<[OnceLock<Vec<Value>>]>>,
}

impl RowStore {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends `row`.
    pub(crate) fn push(&mut self, row: Vec<Value>) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks
                .push((0..CHUNK).map(|_| OnceLock::new()).collect());
        }
        let slot = &self.chunks[self.len / CHUNK][self.len % CHUNK];
        assert!(slot.set(row).is_ok(), "row {} written twice", self.len);
        self.len += 1;
    }

    /// Row `row`, or `None` past the end.
    pub(crate) fn get(&self, row: usize) -> Option<&[Value]> {
        (row < self.len).then(|| &self[row])
    }
}

impl Index<usize> for RowStore {
    type Output = [Value];

    /// # Panics
    /// Panics if `row` is past the end of the engine's rows.
    fn index(&self, row: usize) -> &[Value] {
        self.chunks[row / CHUNK][row % CHUNK]
            .get()
            .expect("row within the store")
    }
}

/// A read-only view of a [`ShardedEngine`](crate::ShardedEngine) at one
/// generation, taken by [`ShardedEngine::view`](crate::ShardedEngine::view)
/// between ingests. It shares the engine's storage: its rows are the row
/// store's chunks, and its counts, `δ_η` lists and adjusted rows are the
/// engine's copy-on-write chunks as of the view, so taking one copies no
/// row, and later ingests never change what it reads.
///
/// Every read but [`EngineView::outliers`] and [`EngineView::state`] is
/// O(1), and all follow [`EngineState`]'s convention: an unknown row is
/// not an inlier, and row-valued reads answer `None`.
pub struct EngineView {
    pub(crate) generation: u64,
    pub(crate) original: RowStore,
    /// The adjusted rows: `Some` exactly where the output row differs
    /// (bit for bit) from the original one.
    pub(crate) adjusted: Chunks<Option<Arc<[Value]>>>,
    pub(crate) counts: Chunks<usize>,
    pub(crate) nearest: NearestTable,
    pub(crate) pending: Vec<usize>,
    pub(crate) inliers: usize,
    /// The flat image, built on the first [`EngineView::state`].
    pub(crate) state: OnceLock<Arc<EngineState>>,
}

impl EngineView {
    /// The engine's generation when the view was taken.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.original.len()
    }

    /// True when the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `row` is classified inlier (false past the end).
    pub fn is_inlier(&self, row: usize) -> bool {
        self.nearest.is_listed(row)
    }

    /// The ε-neighbor count of `row`, self-inclusive.
    pub fn neighbor_count(&self, row: usize) -> Option<usize> {
        (row < self.len()).then(|| self.counts[row])
    }

    /// Original (as-ingested) values of `row`.
    pub fn original_row(&self, row: usize) -> Option<&[Value]> {
        self.original.get(row)
    }

    /// Output values of `row` (original + current adjustment).
    pub fn current_row(&self, row: usize) -> Option<&[Value]> {
        let original = self.original.get(row)?;
        Some(self.adjusted[row].as_deref().unwrap_or(original))
    }

    /// Outliers whose last save attempt was skipped or failed,
    /// ascending.
    pub fn pending(&self) -> &[usize] {
        &self.pending
    }

    /// Number of rows classified inlier.
    pub fn inlier_count(&self) -> usize {
        self.inliers
    }

    /// Number of rows classified outlier.
    pub fn outlier_count(&self) -> usize {
        self.len() - self.inliers
    }

    /// Rows classified outliers, ascending.
    pub fn outliers(&self) -> Vec<usize> {
        self.nearest.unlisted().collect()
    }

    /// The flat image of this view, built on the first call and shared
    /// by every later one.
    pub fn state(&self) -> Arc<EngineState> {
        Arc::clone(self.state.get_or_init(|| Arc::new(self.build())))
    }

    /// Builds the flat image: the one place an [`EngineState`] is made
    /// from engine tables.
    pub(crate) fn build(&self) -> EngineState {
        let n = self.len();
        EngineState {
            generation: self.generation,
            original: (0..n).map(|row| self.original[row].to_vec()).collect(),
            current: (0..n)
                .map(|row| match &self.adjusted[row] {
                    Some(adjusted) => adjusted.to_vec(),
                    None => self.original[row].to_vec(),
                })
                .collect(),
            counts: self.counts.iter().copied().collect(),
            nearest: self.nearest.clone(),
            pending: self.pending.clone(),
        }
    }
}

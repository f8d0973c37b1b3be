//! The per-row neighborhood cache behind the streaming engine.
//!
//! A batch `save_all` recomputes two quantities from scratch on every
//! call: the ε-neighbor count of every row (detection) and the `δ_η`
//! threshold of every inlier (the RSet preprocessing pass). Both are
//! cheap to *maintain* as tuples arrive, because ingest only appends:
//!
//! * counts only grow — a new tuple within ε of an old one bumps the old
//!   tuple's count by exactly one, and nothing ever decrements;
//! * consequently the inlier set only grows, and an inlier's η-nearest
//!   inlier distances form a sorted list that new inliers can only
//!   tighten.
//!
//! [`NeighborCache`] stores exactly these two tables. The engine feeds
//! it hits from range queries over the new tuples and distances to newly
//! established inliers; the cache answers detection (`count ≥ η`) and
//! `δ_η` lookups without touching the index again.

/// Cached ε-neighbor counts (all rows) and η-nearest-inlier distance
/// lists (inlier rows only); see the [module docs](self).
#[derive(Debug, Clone)]
pub struct NeighborCache {
    eta: usize,
    /// Per-row ε-neighbor count over the whole dataset, self-inclusive —
    /// the quantity detection compares against η.
    counts: Vec<usize>,
    /// For inlier rows, the ascending distances to the row's η nearest
    /// *inliers* (self-inclusive, so the first entry is 0); none for
    /// rows currently classified outliers. A list shorter than η means
    /// fewer than η inliers exist and `δ_η` is unbounded. The table's
    /// stride is η, so a list never outgrows its slots.
    nearest: NearestTable,
}

impl NeighborCache {
    /// An empty cache for constraints with threshold `eta`.
    pub fn new(eta: usize) -> Self {
        NeighborCache {
            eta,
            counts: Vec::new(),
            nearest: NearestTable::with_capacity(eta, 0),
        }
    }

    /// Number of tracked rows.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when no rows are tracked.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Appends a row with ε-neighbor count `count`, classified outlier
    /// until [`NeighborCache::set_inlier_list`] marks it inlier.
    pub fn push_row(&mut self, count: usize) {
        self.counts.push(count);
        self.nearest.push(None);
    }

    /// The cached ε-neighbor count of `row`.
    pub fn count(&self, row: usize) -> usize {
        self.counts[row]
    }

    /// Records one additional ε-neighbor for `row`.
    pub fn bump(&mut self, row: usize) {
        self.counts[row] += 1;
    }

    /// Overwrites the ε-neighbor count of `row` (used when a freshly
    /// appended row's count is computed by a single range query).
    pub fn set_count(&mut self, row: usize, count: usize) {
        self.counts[row] = count;
    }

    /// True when `row` satisfies the constraints, per the cached count.
    pub fn satisfies(&self, row: usize) -> bool {
        self.counts[row] >= self.eta
    }

    /// True when `row` has been established as an inlier (its distance
    /// list is being maintained).
    pub fn is_inlier(&self, row: usize) -> bool {
        self.nearest.get(row).is_some()
    }

    /// Marks `row` inlier with its ascending η-nearest-inlier distances
    /// (at most η entries, self-inclusive).
    ///
    /// # Panics
    /// Panics if the list is over-long or not ascending.
    pub fn set_inlier_list(&mut self, row: usize, list: &[f64]) {
        assert!(list.len() <= self.eta, "at most η distances per inlier");
        assert!(
            list.windows(2).all(|w| w[0] <= w[1]),
            "distances must be ascending"
        );
        self.nearest.set(row, Some(list));
    }

    /// Records that a new inlier lies at distance `d` from the existing
    /// inlier `row`, tightening its η-nearest list.
    ///
    /// Calling this for a non-inlier `row` is a caller bug (the engine
    /// only observes distances for rows it just established as inliers);
    /// debug builds assert, release builds treat it as a no-op — an
    /// outlier has no list to tighten, and a served engine must not
    /// abort the process on a misuse that detection will re-derive
    /// anyway.
    pub fn observe_inlier_distance(&mut self, row: usize, d: f64) {
        let t = &mut self.nearest;
        let len = t.lens[row];
        if len == OUTLIER {
            debug_assert!(false, "observe_inlier_distance on non-inlier row {row}");
            return;
        }
        let len = len as usize;
        let slots = &mut t.slots[row * t.stride..][..self.eta];
        if len == self.eta && slots.last().is_none_or(|&worst| d >= worst) {
            return;
        }
        let pos = slots[..len].partition_point(|&x| x <= d);
        let end = (len + 1).min(self.eta);
        slots.copy_within(pos..end - 1, pos + 1);
        slots[pos] = d;
        t.lens[row] = end as u32;
    }

    /// The per-row η-nearest-inlier lists (none for outliers), in row
    /// order (read by the engine's state export).
    pub fn inlier_lists(&self) -> &NearestTable {
        &self.nearest
    }

    /// `δ_η(row)` for an inlier: the η-th nearest inlier distance, or
    /// `+∞` when fewer than η inliers exist (matching the batch RSet's
    /// `unwrap_or(INFINITY)`).
    ///
    /// Calling this for a non-inlier `row` is a caller bug (the engine
    /// only builds RSets from inlier rows); debug builds assert, release
    /// builds return `+∞` — the value an inlier with no cached
    /// neighbors would report — instead of aborting a served process.
    pub fn delta_eta(&self, row: usize) -> f64 {
        let Some(list) = self.nearest.get(row) else {
            debug_assert!(false, "delta_eta on non-inlier row {row}");
            return f64::INFINITY;
        };
        if list.len() == self.eta {
            list[self.eta - 1]
        } else {
            f64::INFINITY
        }
    }
}

/// `lens` entry of a row without a list (an outlier).
const OUTLIER: u32 = u32::MAX;

/// Per-row ascending nearest-inlier distance lists in one contiguous
/// table (the layout of [`NeighborCache`] and of
/// [`EngineState::nearest`](crate::EngineState::nearest)): every row
/// owns `stride` slots, and its list is a prefix of them, so a table
/// of `n` rows is two allocations instead of one per inlier. A row with
/// no list is an outlier. Pushing or setting a list longer than the
/// stride widens every row's slots. Equality and `Debug` see the lists
/// only, never the stride or unused slots.
#[derive(Clone, Default)]
pub struct NearestTable {
    /// Slots per row.
    stride: usize,
    /// Per row, the list length, or [`OUTLIER`].
    lens: Vec<u32>,
    /// `stride` slots per row, row-major.
    slots: Vec<f64>,
}

impl NearestTable {
    /// An empty table whose rows hold lists of up to `stride` distances
    /// without widening, with room for `rows` rows.
    pub fn with_capacity(stride: usize, rows: usize) -> Self {
        NearestTable {
            stride,
            lens: Vec::with_capacity(rows),
            slots: Vec::with_capacity(rows * stride),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// The list of `row`; `None` for an outlier or a row past the end.
    pub fn get(&self, row: usize) -> Option<&[f64]> {
        let len = *self.lens.get(row)?;
        (len != OUTLIER).then(|| &self.slots[row * self.stride..][..len as usize])
    }

    /// Every row's list (`None` for outliers), in row order.
    pub fn iter(&self) -> impl Iterator<Item = Option<&[f64]>> + '_ {
        (0..self.len()).map(|row| self.get(row))
    }

    /// Appends a row with `list` (`None` for an outlier).
    pub fn push(&mut self, list: Option<&[f64]>) {
        self.lens.push(OUTLIER);
        self.slots.resize(self.slots.len() + self.stride, 0.0);
        self.set(self.lens.len() - 1, list);
    }

    /// Replaces the list of `row` (`None` marks it outlier).
    ///
    /// # Panics
    /// Panics if `row` is past the end.
    pub fn set(&mut self, row: usize, list: Option<&[f64]>) {
        let Some(list) = list else {
            self.lens[row] = OUTLIER;
            return;
        };
        if list.len() > self.stride {
            self.widen(list.len());
        }
        self.slots[row * self.stride..][..list.len()].copy_from_slice(list);
        self.lens[row] = u32::try_from(list.len()).expect("list length fits u32");
    }

    /// Re-lays the table out with `stride` slots per row, keeping room
    /// for as many rows as `lens` has.
    fn widen(&mut self, stride: usize) {
        let mut slots = Vec::with_capacity(self.lens.capacity() * stride);
        slots.resize(self.len() * stride, 0.0);
        for (row, list) in self.iter().enumerate() {
            if let Some(list) = list {
                slots[row * stride..][..list.len()].copy_from_slice(list);
            }
        }
        self.slots = slots;
        self.stride = stride;
    }
}

impl PartialEq for NearestTable {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for NearestTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> FromIterator<Option<&'a [f64]>> for NearestTable {
    fn from_iter<I: IntoIterator<Item = Option<&'a [f64]>>>(lists: I) -> Self {
        let mut table = NearestTable::default();
        for list in lists {
            table.push(list);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_grow_monotonically() {
        let mut c = NeighborCache::new(3);
        c.push_row(1);
        c.push_row(4);
        assert!(!c.satisfies(0));
        assert!(c.satisfies(1));
        c.bump(0);
        c.bump(0);
        assert_eq!(c.count(0), 3);
        assert!(c.satisfies(0));
    }

    #[test]
    fn delta_eta_tracks_the_kth_distance() {
        let mut c = NeighborCache::new(3);
        c.push_row(3);
        c.set_inlier_list(0, &[0.0, 1.0, 2.5]);
        assert_eq!(c.delta_eta(0), 2.5);
        // A nearer inlier appears: the 3rd-nearest tightens.
        c.observe_inlier_distance(0, 0.5);
        assert_eq!(c.delta_eta(0), 1.0);
        // A farther one changes nothing.
        c.observe_inlier_distance(0, 9.0);
        assert_eq!(c.delta_eta(0), 1.0);
    }

    #[test]
    fn short_list_means_unbounded() {
        let mut c = NeighborCache::new(4);
        c.push_row(4);
        c.set_inlier_list(0, &[0.0, 1.0]);
        assert_eq!(c.delta_eta(0), f64::INFINITY);
        c.observe_inlier_distance(0, 3.0);
        assert_eq!(c.delta_eta(0), f64::INFINITY);
        c.observe_inlier_distance(0, 2.0);
        assert_eq!(c.delta_eta(0), 3.0);
    }

    #[test]
    fn outliers_have_no_list() {
        let mut c = NeighborCache::new(2);
        c.push_row(1);
        assert!(!c.is_inlier(0));
        c.set_inlier_list(0, &[0.0, 1.5]);
        assert!(c.is_inlier(0));
        assert_eq!(c.delta_eta(0), 1.5);
    }

    #[test]
    fn duplicate_distances_are_kept() {
        let mut c = NeighborCache::new(3);
        c.push_row(3);
        c.set_inlier_list(0, &[0.0, 1.0, 1.0]);
        c.observe_inlier_distance(0, 1.0);
        assert_eq!(c.delta_eta(0), 1.0);
        c.observe_inlier_distance(0, 0.0);
        assert_eq!(c.delta_eta(0), 1.0);
    }

    #[test]
    fn table_rows_keep_their_lists_across_widening() {
        let mut t = NearestTable::default();
        t.push(None);
        t.push(Some(&[0.0]));
        t.push(Some(&[0.0, 0.5, 2.0])); // widens stride 1 -> 3
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(1), Some(&[0.0][..]));
        assert_eq!(t.get(2), Some(&[0.0, 0.5, 2.0][..]));
        assert_eq!(t.get(3), None, "past the end");
        t.set(0, Some(&[0.0, 1.0]));
        t.set(2, None);
        let lists: Vec<Option<&[f64]>> = vec![Some(&[0.0, 1.0]), Some(&[0.0]), None];
        assert_eq!(t, lists.into_iter().collect::<NearestTable>());
        // Equality ignores the stride.
        let mut wide = NearestTable::with_capacity(8, 3);
        wide.push(Some(&[0.0, 1.0]));
        wide.push(Some(&[0.0]));
        wide.push(None);
        assert_eq!(t, wide);
        assert_eq!(format!("{t:?}"), "[Some([0.0, 1.0]), Some([0.0]), None]");
    }

    #[test]
    fn observe_keeps_the_list_at_most_eta_long() {
        let mut c = NeighborCache::new(2);
        c.push_row(2);
        c.push_row(2);
        c.set_inlier_list(1, &[0.0]);
        c.observe_inlier_distance(1, 3.0);
        c.observe_inlier_distance(1, 1.0);
        assert_eq!(c.inlier_lists().get(1), Some(&[0.0, 1.0][..]));
        assert_eq!(c.inlier_lists().get(0), None, "row 0 stays an outlier");
    }
}

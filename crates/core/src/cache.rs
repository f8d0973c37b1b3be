//! The per-row η-nearest-inlier table behind the streaming engine.
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
//! The engine keeps the counts and the lists in copy-on-write chunks of
//! rows (the lists in one [`NearestTable`]), both in global row order,
//! so a published view shares them ([`crate::view`]).
//! [`NearestTable::observe`] tightens a list by one new inlier distance
//! and [`NearestTable::kth`] reads `δ_η` off it, without touching an
//! index.

use crate::view::Chunks;

/// `lens` entry of a row without a list (an outlier).
const OUTLIER: u32 = u32::MAX;

/// Per-row ascending nearest-inlier distance lists in one table (the
/// engine's, and [`EngineState::nearest`](crate::EngineState::nearest)):
/// every row owns `stride` slots, and its list is a prefix of them. The
/// lengths and the slots sit in copy-on-write chunks of rows, so a
/// clone shares them and a write copies only the chunk it lands in while
/// a clone still holds it. A row with no list is an outlier. Pushing or
/// setting a list longer than the stride widens every row's slots.
/// Equality and `Debug` see the lists only, never the stride or unused
/// slots.
#[derive(Clone)]
pub struct NearestTable {
    /// Slots per row.
    stride: usize,
    /// Per row, the list length, or [`OUTLIER`].
    lens: Chunks<u32>,
    /// `stride` slots per row.
    slots: Chunks<f64>,
}

impl Default for NearestTable {
    fn default() -> Self {
        NearestTable::with_capacity(0, 0)
    }
}

impl NearestTable {
    /// An empty table whose rows hold lists of up to `stride` distances
    /// without widening, with room for `rows` rows.
    pub fn with_capacity(stride: usize, rows: usize) -> Self {
        NearestTable {
            stride,
            lens: Chunks::with_capacity(1, rows),
            slots: Chunks::with_capacity(stride, rows),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The list of `row`; `None` for an outlier or a row past the end.
    pub fn get(&self, row: usize) -> Option<&[f64]> {
        if row >= self.len() {
            return None;
        }
        let len = self.lens[row];
        (len != OUTLIER).then(|| &self.slots.row(row)[..len as usize])
    }

    /// True when `row` has a list: an inlier (false past the end).
    pub(crate) fn is_listed(&self, row: usize) -> bool {
        row < self.len() && self.lens[row] != OUTLIER
    }

    /// The rows without a list (the outliers), ascending, read chunk by
    /// chunk.
    pub(crate) fn unlisted(&self) -> impl Iterator<Item = usize> + '_ {
        let lens = self.lens.iter().enumerate();
        lens.filter_map(|(row, &len)| (len == OUTLIER).then_some(row))
    }

    /// Every row's list (`None` for outliers), in row order.
    pub fn iter(&self) -> impl Iterator<Item = Option<&[f64]>> + '_ {
        (0..self.len()).map(|row| self.get(row))
    }

    /// Appends a row with `list` (`None` for an outlier).
    pub fn push(&mut self, list: Option<&[f64]>) {
        self.lens.push(OUTLIER);
        self.slots.push(0.0);
        if list.is_some() {
            self.set(self.len() - 1, list);
        }
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
        self.widen(list.len());
        self.slots.row_mut(row)[..list.len()].copy_from_slice(list);
        self.lens[row] = u32::try_from(list.len()).expect("list length fits u32");
    }

    /// Tightens the list of inlier `row` by one more inlier at distance
    /// `d`: inserts it in ascending order and keeps the `k` smallest, so
    /// only a list shorter than `k` or with a last entry above `d`
    /// changes, and only a change writes (and so copies a shared chunk).
    /// An outlier has no list and is left alone; debug builds assert,
    /// since the engine observes distances for inliers only.
    ///
    /// # Panics
    /// Panics if `k` exceeds the slots per row: the list would spill into
    /// the next row's. [`NearestTable::widen`] first.
    pub fn observe(&mut self, row: usize, d: f64, k: usize) {
        assert!(k <= self.stride, "{k} entries exceed {} slots", self.stride);
        let len = self.lens[row];
        if len == OUTLIER {
            debug_assert!(false, "observe on outlier row {row}");
            return;
        }
        let len = len as usize;
        let list = &self.slots.row(row)[..len];
        if len == k && list.last().is_none_or(|&worst| d >= worst) {
            return;
        }
        let pos = list.partition_point(|&x| x <= d);
        let end = (len + 1).min(k);
        let slots = &mut self.slots.row_mut(row)[..k];
        slots.copy_within(pos..end - 1, pos + 1);
        slots[pos] = d;
        if end != len {
            self.lens[row] = end as u32;
        }
    }

    /// The `k`-th entry (1-based) of inlier `row`'s list — `δ_η` at
    /// `k = η` — or `+∞` when the list is shorter (the batch RSet's
    /// `unwrap_or(INFINITY)`). An outlier has no list and reads `+∞`;
    /// debug builds assert, since the engine reads `δ_η` of inliers only.
    pub fn kth(&self, row: usize, k: usize) -> f64 {
        let Some(list) = self.get(row) else {
            debug_assert!(false, "kth on outlier row {row}");
            return f64::INFINITY;
        };
        kth_of(list, k)
    }

    /// Gives every row at least `stride` slots, re-laying the table out
    /// if it has fewer. A table collected from lists (a decoded
    /// snapshot's) is only as wide as its longest list.
    pub fn widen(&mut self, stride: usize) {
        if stride <= self.stride {
            return;
        }
        let mut slots = Chunks::with_capacity(stride, self.len());
        for row in 0..self.len() {
            slots.push(0.0);
            let len = self.lens[row];
            if len != OUTLIER {
                let len = len as usize;
                slots.row_mut(row)[..len].copy_from_slice(&self.slots.row(row)[..len]);
            }
        }
        self.slots = slots;
        self.stride = stride;
    }
}

/// The `k`-th entry (1-based) of `list`, or `+∞` when it is shorter.
pub(crate) fn kth_of(list: &[f64], k: usize) -> f64 {
    k.checked_sub(1)
        .and_then(|i| list.get(i))
        .copied()
        .unwrap_or(f64::INFINITY)
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

    /// A table of `lists` with `stride` slots per row.
    fn table(stride: usize, lists: &[Option<&[f64]>]) -> NearestTable {
        let mut t = NearestTable::with_capacity(stride, lists.len());
        for &list in lists {
            t.push(list);
        }
        t
    }

    #[test]
    fn kth_tracks_the_kth_distance() {
        let mut t = table(3, &[Some(&[0.0, 1.0, 2.5])]);
        assert_eq!(t.kth(0, 3), 2.5);
        // A nearer inlier appears: the 3rd-nearest tightens.
        t.observe(0, 0.5, 3);
        assert_eq!(t.kth(0, 3), 1.0);
        // A farther one changes nothing.
        t.observe(0, 9.0, 3);
        assert_eq!(t.kth(0, 3), 1.0);
    }

    #[test]
    fn short_list_means_unbounded() {
        let mut t = table(4, &[Some(&[0.0, 1.0])]);
        assert_eq!(t.kth(0, 4), f64::INFINITY);
        t.observe(0, 3.0, 4);
        assert_eq!(t.kth(0, 4), f64::INFINITY);
        t.observe(0, 2.0, 4);
        assert_eq!(t.kth(0, 4), 3.0);
    }

    #[test]
    fn duplicate_distances_are_kept() {
        let mut t = table(3, &[Some(&[0.0, 1.0, 1.0])]);
        t.observe(0, 1.0, 3);
        assert_eq!(t.kth(0, 3), 1.0);
        t.observe(0, 0.0, 3);
        assert_eq!(t.kth(0, 3), 1.0);
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
        let wide = table(8, &[Some(&[0.0, 1.0]), Some(&[0.0]), None]);
        assert_eq!(t, wide);
        assert_eq!(format!("{t:?}"), "[Some([0.0, 1.0]), Some([0.0]), None]");
    }

    #[test]
    fn observe_grows_each_list_in_its_own_slots() {
        // Collected lists are only as wide as the longest; widening
        // first lets both rows grow to k = 3 without touching the other.
        let mut t: NearestTable = [Some(&[0.0][..]), Some(&[0.0, 2.0][..]), None]
            .into_iter()
            .collect();
        t.widen(3);
        t.observe(0, 3.0, 3);
        t.observe(0, 1.0, 3);
        assert_eq!(t.get(0), Some(&[0.0, 1.0, 3.0][..]));
        t.observe(0, 2.0, 3); // a full list drops its farthest entry
        t.observe(1, 1.0, 3);
        assert_eq!(t.get(0), Some(&[0.0, 1.0, 2.0][..]));
        assert_eq!(t.get(1), Some(&[0.0, 1.0, 2.0][..]));
        assert_eq!(t.get(2), None, "row 2 stays an outlier");
        assert_eq!(t.kth(1, 3), 2.0);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn observe_refuses_lists_wider_than_the_slots() {
        let mut t: NearestTable = [Some(&[0.0][..]), Some(&[0.0][..])].into_iter().collect();
        t.observe(0, 1.0, 2);
    }
}

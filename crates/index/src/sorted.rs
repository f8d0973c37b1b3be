//! Per-attribute sorted projections.
//!
//! The DISC recursion needs `r_ε(t_o[X])` — the tuples within ε of the
//! outlier on the *unadjusted* attributes `X` only. For numeric attributes,
//! the single-attribute ball `{t | |t[A] − q| ≤ ε}` is a contiguous run of a
//! column sorted by value, found by binary search; the recursion seeds its
//! candidate lists from the smallest such run and narrows them as `X` grows
//! (monotonicity of `Δ` in the attribute set).

use disc_distance::Value;
use disc_obs::counters;

/// A numeric column sorted by value, remembering original row ids.
pub struct SortedColumn {
    /// `(value, row id)` pairs sorted by value.
    entries: Vec<(f64, u32)>,
}

impl SortedColumn {
    /// Builds the projection of column `attr` over `rows`.
    ///
    /// Returns `None` if any cell in the column is non-numeric.
    pub fn new(rows: &[Vec<Value>], attr: usize) -> Option<Self> {
        let mut entries: Vec<(f64, u32)> = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            entries.push((row[attr].as_num()?, i as u32));
        }
        entries.sort_by(entry_order);
        Some(SortedColumn { entries })
    }

    /// Inserts rows, leaving the column equal to [`SortedColumn::new`]
    /// over the merged rows. `added` lists each new row's id in the
    /// merged row order with its value, ids strictly ascending; every
    /// existing row id moves up past the new ids placed before it.
    pub fn insert(&mut self, added: &[(u32, f64)]) {
        if added.is_empty() {
            return;
        }
        // New row `j` lands just before the existing row `added[j].0 - j`.
        let before: Vec<u32> = (0u32..).zip(added).map(|(j, &(id, _))| id - j).collect();
        if before
            .first()
            .is_some_and(|&b| (b as usize) < self.entries.len())
        {
            for e in &mut self.entries {
                e.1 += before.partition_point(|&b| b <= e.1) as u32;
            }
        }
        let mut fresh: Vec<(f64, u32)> = added.iter().map(|&(id, x)| (x, id)).collect();
        fresh.sort_by(entry_order);
        let mut fresh = fresh.into_iter().peekable();
        let old = std::mem::take(&mut self.entries);
        self.entries.reserve(old.len() + fresh.len());
        for e in old {
            while let Some(f) = fresh.next_if(|f| entry_order(f, &e).is_lt()) {
                self.entries.push(f);
            }
            self.entries.push(e);
        }
        self.entries.extend(fresh);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the column is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn lower_bound(&self, x: f64) -> usize {
        self.entries.partition_point(|e| e.0 < x)
    }

    /// Row ids with `|value − q| ≤ eps`, in ascending value order.
    pub fn ball(&self, q: f64, eps: f64) -> impl Iterator<Item = u32> + '_ {
        counters::SORTED_BALL_QUERIES.incr();
        let lo = self.lower_bound(q - eps);
        let hi = self.entries.partition_point(|e| e.0 <= q + eps);
        self.entries[lo..hi].iter().map(|e| e.1)
    }

    /// Number of rows with `|value − q| ≤ eps`, in `O(log n)`.
    pub fn ball_size(&self, q: f64, eps: f64) -> usize {
        counters::SORTED_BALL_QUERIES.incr();
        let lo = self.lower_bound(q - eps);
        let hi = self.entries.partition_point(|e| e.0 <= q + eps);
        hi - lo
    }

    /// The distinct values of the column, ascending — the attribute's
    /// active domain, used by the exact (domain-enumeration) algorithm.
    pub fn distinct_values(&self) -> Vec<f64> {
        let mut vals: Vec<f64> = self.entries.iter().map(|e| e.0).collect();
        vals.dedup();
        vals
    }
}

/// The column order: by value, ties by row id.
fn entry_order(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    a.0.partial_cmp(&b.0)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: &[f64]) -> SortedColumn {
        let rows: Vec<Vec<Value>> = vals.iter().map(|&x| vec![Value::Num(x)]).collect();
        SortedColumn::new(&rows, 0).unwrap()
    }

    #[test]
    fn ball_membership() {
        let c = col(&[5.0, 1.0, 3.0, 2.0, 8.0]);
        let ids: Vec<u32> = c.ball(2.5, 1.0).collect();
        // values within [1.5, 3.5]: 3.0 (row 2) and 2.0 (row 3).
        assert_eq!(ids, vec![3, 2]);
        assert_eq!(c.ball_size(2.5, 1.0), 2);
    }

    #[test]
    fn inclusive_boundaries() {
        let c = col(&[1.0, 2.0, 3.0]);
        assert_eq!(c.ball_size(2.0, 1.0), 3);
        assert_eq!(c.ball_size(0.0, 1.0), 1);
        assert_eq!(c.ball_size(10.0, 1.0), 0);
    }

    #[test]
    fn distinct_values_deduped() {
        let c = col(&[2.0, 1.0, 2.0, 1.0, 3.0]);
        assert_eq!(c.distinct_values(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn non_numeric_column_rejected() {
        let rows = vec![vec![Value::Text("a".into())]];
        assert!(SortedColumn::new(&rows, 0).is_none());
    }

    #[test]
    fn insert_equals_building_over_the_merged_rows() {
        // Old rows 5, 1, 3, 2; new rows land at ids 0, 2 (mid-order, a
        // duplicate value) and 6 (appended).
        let mut c = col(&[5.0, 1.0, 3.0, 2.0]);
        c.insert(&[(0, 4.0), (2, 1.0), (6, 0.5)]);
        let merged = col(&[4.0, 5.0, 1.0, 1.0, 3.0, 2.0, 0.5]);
        assert_eq!(c.entries, merged.entries);
        assert_eq!(c.ball(1.0, 0.0).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn insert_into_empty_and_append_only() {
        let mut c = col(&[]);
        c.insert(&[(0, 3.0), (1, 1.0)]);
        assert_eq!(c.entries, col(&[3.0, 1.0]).entries);
        c.insert(&[(2, 2.0)]);
        assert_eq!(c.entries, col(&[3.0, 1.0, 2.0]).entries);
        c.insert(&[]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn empty_column() {
        let c = col(&[]);
        assert!(c.is_empty());
        assert_eq!(c.ball_size(0.0, 1.0), 0);
    }
}

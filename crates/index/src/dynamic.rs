//! Growable neighbor index for streaming ingest.
//!
//! [`DynamicIndex`] is an [`Index`] that owns its rows, so it takes
//! appends ([`DynamicIndex::insert`]) and answers every query exactly as
//! [`Index::auto`] over the same rows would. Each backend absorbs an
//! append its own way:
//!
//! * **brute** — append is free; once the rows outgrow the brute scan,
//!   the index switches to the backend [`Index::auto`] picks;
//! * **grid** — cell membership is per-row, so append updates one cell
//!   and the occupied key box (the norm-aware k-NN exhaustion bound is
//!   recomputed in `O(m)`); a row with no grid cell migrates the index to
//!   a VP tree, as [`Index::auto`] would have chosen;
//! * **vp** — the tree covers a prefix of the rows; appends land in a
//!   tail that queries scan linearly, and the tree is rebuilt over
//!   everything once the tail exceeds `max(64, len/4)` rows.
//!
//! Switches, migrations and tail rebuilds count on
//! `index.dynamic.rebuilds` and in [`IndexActivity::rebuilds`].
//!
//! [`IndexActivity::rebuilds`]: crate::IndexActivity::rebuilds

use std::sync::atomic::Ordering;

use disc_distance::{TupleDistance, Value};
use disc_obs::counters;

use crate::{Backend, Index, VpNodes, BRUTE_MAX};

/// An owned, growable neighbor index; see the [module docs](self).
pub type DynamicIndex = Index<Vec<Vec<Value>>>;

impl DynamicIndex {
    /// An empty index. `eps_hint` is the expected query radius (it sizes
    /// grid cells, like the `eps_hint` of [`Index::auto`]).
    pub fn new(dist: TupleDistance, eps_hint: f64) -> Self {
        Index::auto(Vec::new(), dist, eps_hint)
    }

    /// Appends one row and returns its id, `len()` before the call, so
    /// queries issued afterwards see the row under that id.
    pub fn insert(&mut self, row: Vec<Value>) -> u32 {
        let id = self.rows.len() as u32;
        let placed = match &mut self.backend {
            Backend::Grid(grid) => grid.insert(&row, id, &self.dist),
            _ => true,
        };
        if let Some(packed) = &mut self.packed {
            packed.push_row(&row);
        }
        self.rows.push(row);
        let n = self.rows.len();
        let rebuilt = match &self.backend {
            Backend::Brute { cell_width } if n > BRUTE_MAX => {
                Some(Backend::auto(&self.rows, &self.dist, *cell_width))
            }
            Backend::Grid(_) if !placed => {
                Some(Backend::Vp(VpNodes::build(&self.rows, &self.dist)))
            }
            Backend::Vp(nodes) if n - nodes.len() > (n / 4).max(64) => {
                Some(Backend::Vp(VpNodes::build(&self.rows, &self.dist)))
            }
            _ => None,
        };
        if let Some(backend) = rebuilt {
            self.backend = backend;
            counters::DYNAMIC_REBUILDS.incr();
            self.activity.rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sort_hits, BruteForceIndex, IndexActivity, NeighborIndex};

    fn scatter(n: usize, m: usize, seed: u64) -> Vec<Vec<Value>> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                (0..m)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        Value::Num(((state >> 33) % 1000) as f64 / 50.0)
                    })
                    .collect()
            })
            .collect()
    }

    fn assert_matches_brute(idx: &DynamicIndex, data: &[Vec<Value>], queries: &[Vec<Value>]) {
        let brute = BruteForceIndex::new(data, idx.distance().clone());
        for query in queries {
            for eps in [0.3, 2.0, 10.0] {
                let mut a = idx.range(query, eps);
                let mut b = brute.range(query, eps);
                sort_hits(&mut a);
                sort_hits(&mut b);
                assert_eq!(a, b, "range eps={eps} backend={}", idx.backend_name());
            }
            for k in [1, 5, 23] {
                let a = idx.knn(query, k);
                let b = brute.knn(query, k);
                assert_eq!(a, b, "knn k={k} backend={}", idx.backend_name());
            }
        }
    }

    #[test]
    fn brute_stage_matches_static() {
        let data = scatter(100, 2, 7);
        let mut idx = DynamicIndex::new(TupleDistance::numeric(2), 1.0);
        for row in &data {
            idx.insert(row.clone());
        }
        assert_eq!(idx.backend_name(), "brute");
        assert_matches_brute(&idx, &data, &scatter(5, 2, 99));
    }

    #[test]
    fn upgrades_to_grid_and_matches() {
        let data = scatter(700, 2, 11);
        let mut idx = DynamicIndex::new(TupleDistance::numeric(2), 1.0);
        for row in &data {
            idx.insert(row.clone());
        }
        assert_eq!(idx.backend_name(), "grid");
        assert_matches_brute(&idx, &data, &scatter(5, 2, 5));
        // Far-outside query exercises the exhaustion fallback.
        let far = vec![Value::Num(-500.0), Value::Num(900.0)];
        assert_matches_brute(&idx, &data, &[far]);
    }

    #[test]
    fn grid_incremental_inserts_keep_knn_bound_correct() {
        // Insert a far-away point after the upgrade: the exhaustion bound
        // must stretch with the occupied box.
        let mut data = scatter(600, 2, 3);
        let mut idx = DynamicIndex::new(TupleDistance::numeric(2), 1.0);
        for row in &data {
            idx.insert(row.clone());
        }
        let outpost = vec![Value::Num(5000.0), Value::Num(-4000.0)];
        idx.insert(outpost.clone());
        data.push(outpost);
        assert_eq!(idx.backend_name(), "grid");
        assert_matches_brute(
            &idx,
            &data,
            &[vec![Value::Num(2000.0), Value::Num(-2000.0)]],
        );
    }

    #[test]
    fn upgrades_to_vp_for_high_arity_and_matches() {
        let data = scatter(600, 5, 13);
        let mut idx = DynamicIndex::new(TupleDistance::numeric(5), 1.0);
        for row in &data {
            idx.insert(row.clone());
        }
        assert_eq!(idx.backend_name(), "vp");
        assert_matches_brute(&idx, &data, &scatter(4, 5, 77));
    }

    #[test]
    fn vp_buffer_and_rebuild_match() {
        let mut data = scatter(600, 5, 17);
        let dist = TupleDistance::numeric(5);
        let mut idx = DynamicIndex::auto(data.clone(), dist, 1.0);
        assert_eq!(idx.backend_name(), "vp");
        // Push enough rows to cross the rebuild threshold at least once,
        // checking equivalence while rows sit in the tail buffer.
        for (i, row) in scatter(300, 5, 23).into_iter().enumerate() {
            idx.insert(row.clone());
            data.push(row);
            if i % 97 == 0 {
                assert_matches_brute(&idx, &data, &scatter(2, 5, i as u64));
            }
        }
        assert_matches_brute(&idx, &data, &scatter(3, 5, 41));
    }

    #[test]
    fn grid_migrates_to_vp_on_non_numeric_row() {
        let mut data = scatter(600, 2, 19);
        let mut idx = DynamicIndex::auto(data.clone(), TupleDistance::numeric(2), 1.0);
        assert_eq!(idx.backend_name(), "grid");
        let bad = vec![Value::Null, Value::Num(1.0)];
        idx.insert(bad.clone());
        data.push(bad);
        assert_eq!(idx.backend_name(), "vp");
        assert_matches_brute(&idx, &data, &scatter(3, 2, 29));
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut idx = DynamicIndex::new(TupleDistance::numeric(1), 1.0);
        for (want, x) in [1.0, 2.0, 3.0].into_iter().enumerate() {
            assert_eq!(idx.insert(vec![Value::Num(x)]), want as u32);
        }
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.kth_distance(&[Value::Num(0.0)], 2), Some(2.0));
        assert_eq!(idx.knn(&[Value::Num(0.0)], 1), vec![(0, 1.0)]);
    }

    #[test]
    fn works_on_text_data() {
        let words = ["cat", "cart", "dog", "dot", "zebra", "care", "dart"];
        let data: Vec<Vec<Value>> = words
            .iter()
            .map(|s| vec![Value::Text(s.to_string())])
            .collect();
        let mut idx = DynamicIndex::new(TupleDistance::textual(1), 1.0);
        for row in &data {
            idx.insert(row.clone());
        }
        let brute = BruteForceIndex::new(&data, TupleDistance::textual(1));
        let query = vec![Value::Text("cot".into())];
        let mut a = idx.range(&query, 1.0);
        let mut b = brute.range(&query, 1.0);
        sort_hits(&mut a);
        sort_hits(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn activity_attributes_effort_to_the_instance() {
        let data = scatter(100, 2, 7);
        let mut idx = DynamicIndex::new(TupleDistance::numeric(2), 1.0);
        for row in &data {
            idx.insert(row.clone());
        }
        assert_eq!(idx.activity(), IndexActivity::default());
        idx.range(&[Value::Num(1.0), Value::Num(2.0)], 0.5);
        idx.knn(&[Value::Num(1.0), Value::Num(2.0)], 3);
        let a = idx.activity();
        assert_eq!(a.queries, 2);
        assert_eq!(a.rows_visited, 200); // two brute scans over 100 rows
        assert_eq!(a.rebuilds, 0);
        // Crossing the brute threshold counts one rebuild on the
        // instance, mirroring `index.dynamic.rebuilds`.
        for row in scatter(500, 2, 9) {
            idx.insert(row);
        }
        assert_eq!(idx.activity().rebuilds, 1);
        // A second instance starts clean: effort is per-instance.
        let other = DynamicIndex::new(TupleDistance::numeric(2), 1.0);
        assert_eq!(other.activity(), IndexActivity::default());
    }

    #[test]
    fn empty_index_queries() {
        let idx = DynamicIndex::new(TupleDistance::numeric(2), 1.0);
        assert!(idx.is_empty());
        assert!(idx
            .range(&[Value::Num(0.0), Value::Num(0.0)], 5.0)
            .is_empty());
        assert!(idx.knn(&[Value::Num(0.0), Value::Num(0.0)], 3).is_empty());
    }
}

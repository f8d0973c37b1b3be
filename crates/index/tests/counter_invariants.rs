//! Counter invariants: an index's own `IndexActivity` and the
//! process-global `index.*` counters record the same events.
//!
//! One test in a binary of its own, because the counters are
//! process-global: a concurrent test would move them.

use disc_distance::{TupleDistance, Value};
use disc_index::{DynamicIndex, DynamicNeighborIndex, Index, IndexActivity, NeighborIndex};
use disc_obs::Snapshot;

const BACKENDS: [&str; 3] = ["brute", "grid", "vptree"];

/// `n` pseudo-random points in `[0, 20)^m`.
fn scatter(n: usize, m: usize, mut state: u64) -> Vec<Vec<Value>> {
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        Value::Num(((state >> 33) % 1000) as f64 / 50.0)
    };
    (0..n).map(|_| (0..m).map(|_| next()).collect()).collect()
}

/// `(queries, rows visited)` on the `index.<backend>.*` counters of `d`.
fn global(d: &Snapshot, backend: &str) -> (u64, u64) {
    let get = |what: &str| d.get(&format!("index.{backend}.{what}"));
    (
        get("range_queries") + get("knn_queries"),
        get("rows_visited"),
    )
}

/// Runs range and k-NN queries on `idx`, checks that its activity delta
/// is exactly the delta on `backend`'s global counters (and that no
/// other backend's moved), and returns that delta.
fn queried_delta<R: AsRef<[Vec<Value>]>>(
    idx: &Index<R>,
    backend: &str,
    probes: &[Vec<Value>],
) -> IndexActivity {
    let (act, snap) = (idx.activity(), Snapshot::take());
    for q in probes {
        idx.range(q, 0.7);
        idx.count_within(q, 2.0);
        idx.knn(q, 5);
        idx.kth_distance(q, 9);
    }
    let d = Snapshot::take().delta_since(&snap);
    let now = idx.activity();
    let delta = IndexActivity {
        queries: now.queries - act.queries,
        rows_visited: now.rows_visited - act.rows_visited,
        rebuilds: now.rebuilds - act.rebuilds,
    };
    for other in BACKENDS {
        let want = if other == backend {
            (delta.queries, delta.rows_visited)
        } else {
            (0, 0)
        };
        assert_eq!(global(&d, other), want, "{backend} index, {other} counters");
    }
    assert_eq!(delta.rebuilds, 0, "{backend}: queries rebuilt the index");
    assert!(delta.rows_visited > 0, "{backend}: no rows visited");
    delta
}

#[test]
fn index_activity_matches_the_global_counters() {
    let sizes = [
        (300, 2, "brute", "brute"),
        (900, 2, "grid", "grid"),
        (900, 5, "vp", "vptree"),
    ];
    for (n, m, name, backend) in sizes {
        let rows = scatter(n, m, 7);
        let mut probes = scatter(6, m, 99);
        probes.push(vec![Value::Num(-500.0); m]);
        let dist = TupleDistance::numeric(m);

        let auto = Index::auto(&rows[..], dist.clone(), 1.0);
        assert_eq!(auto.backend_name(), name);
        let auto_delta = queried_delta(&auto, backend, &probes);

        // A grown VP tree scans its unbuilt tail, so its visits differ
        // from a fresh tree's; brute and grid hold identical structures.
        if backend == "vptree" {
            continue;
        }
        let snap = Snapshot::take();
        let mut grown = DynamicIndex::new(dist, 1.0);
        for row in &rows {
            grown.insert(row.clone());
        }
        let rebuilds = Snapshot::take()
            .delta_since(&snap)
            .get("index.dynamic.rebuilds");
        assert_eq!(grown.activity().rebuilds, rebuilds, "{backend}");
        assert_eq!(rebuilds, u64::from(backend == "grid"), "{backend}");
        assert_eq!(queried_delta(&grown, backend, &probes), auto_delta);
    }
}

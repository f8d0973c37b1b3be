//! Counter invariants: an index's own `IndexActivity` and the
//! process-global `index.*` counters record the same events, every row
//! an index visits costs exactly one distance-kernel evaluation, a
//! restricted k-NN visits and measures only the rows it keeps, and a
//! numeric brute scan runs the packed kernels.
//!
//! The counters are process-global, so each test holds `COUNTERS` while
//! it reads them: a concurrent test would move them.

use std::cell::Cell;
use std::sync::Mutex;

use disc_distance::{TupleDistance, Value};
use disc_index::{BruteForceIndex, DynamicIndex, Index, IndexActivity, NeighborIndex};
use disc_obs::Snapshot;

static COUNTERS: Mutex<()> = Mutex::new(());

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

/// Runs range, count, k-NN and k-th-distance queries on `idx`, and k-NN
/// keeping every third row and none. Checks that each kind evaluated one
/// distance kernel per row visited, all on the packed path, that a
/// restricted k-NN visited only the rows it kept (a VP tree also measures
/// the vantage points it descends through), and that the activity delta
/// is exactly the delta on `backend`'s global counters (and that no
/// other backend's moved). Returns that delta.
fn queried_delta<R: AsRef<[Vec<Value>]>>(
    idx: &Index<R>,
    backend: &str,
    probes: &[Vec<Value>],
) -> IndexActivity {
    let (act, snap) = (idx.activity(), Snapshot::take());
    let kept = Cell::new(0u64);
    let every_third = |id: u32| {
        kept.set(kept.get() + u64::from(id.is_multiple_of(3)));
        id.is_multiple_of(3)
    };
    for kind in [
        "range",
        "count",
        "knn",
        "kth",
        "knn_where",
        "knn_where_none",
    ] {
        let before = Snapshot::take();
        kept.set(0);
        for q in probes {
            match kind {
                "range" => idx.range(q, 0.7).len(),
                "count" => idx.count_within(q, 2.0),
                "knn" => idx.knn(q, 5).len(),
                "knn_where" => idx.knn_where(q, 5, every_third).len(),
                "knn_where_none" => idx.knn_where(q, 5, |_| false).len(),
                _ => usize::from(idx.kth_distance(q, 9).is_some()),
            };
        }
        let d = Snapshot::take().delta_since(&before);
        let (packed, fallback) = (d.get("kernel.packed_calls"), d.get("kernel.fallback_calls"));
        let visited = global(&d, backend).1;
        assert_eq!(
            packed + fallback,
            visited,
            "{backend} {kind}: kernel evaluations vs rows visited"
        );
        assert_eq!(fallback, 0, "{backend} {kind}: numeric rows fell back");
        if kind.starts_with("knn_where") && backend != "vptree" {
            assert_eq!(
                visited,
                kept.get(),
                "{backend} {kind}: rows visited vs rows kept"
            );
        }
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
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
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

/// A numeric brute scan runs the packed kernels, with early exits and no
/// fallbacks; `with_packed(false)` makes no packed call, and both paths
/// answer alike.
#[test]
fn numeric_brute_scan_runs_the_packed_kernels() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let rows = scatter(2000, 3, 9);
    let dist = TupleDistance::numeric(3);
    assert!(dist.packable());
    let probes: Vec<&[Value]> = (0..40).map(|i| &rows[i * 499 % rows.len()][..]).collect();
    let answers = |idx: &BruteForceIndex| -> (Vec<usize>, Snapshot) {
        let before = Snapshot::take();
        let counts = probes.iter().map(|q| idx.count_within(q, 2.0)).collect();
        (counts, Snapshot::take().delta_since(&before))
    };
    let (packed, on) = answers(&BruteForceIndex::new(&rows, dist.clone()));
    let (unpacked, off) = answers(&BruteForceIndex::new(&rows, dist.with_packed(false)));
    assert_eq!(packed, unpacked, "the paths disagree");
    assert!(on.get("kernel.packed_calls") > 0, "no packed kernel ran");
    assert_eq!(on.get("kernel.fallback_calls"), 0, "numeric rows fell back");
    assert!(on.get("kernel.early_exits") > 0, "no early exit");
    assert_eq!(
        off.get("kernel.packed_calls"),
        0,
        "with_packed(false) ran a kernel"
    );
}

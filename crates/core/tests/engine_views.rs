//! Published views: an [`EngineView`] taken after an ingest keeps
//! reading that generation's state while the engine goes on ingesting
//! into the same row store and copy-on-write tables. The streams mix
//! promotions (adjusted rows reverting), resaves, pending rows (an
//! expired budget), `Null` and text cells, and run across several table
//! chunks; at the end, every held view's flat image must equal, bit for
//! bit, the image of a fresh engine that replayed the same prefix.

use std::time::Duration;

use disc_core::{
    Budget, DistanceConstraints, EngineState, EngineView, Parallelism, Saver, SaverConfig,
    ShardedEngine,
};
use disc_data::{bit_equal, Schema};
use disc_distance::{Metric, Norm, TupleDistance, Value};
use proptest::prelude::*;

/// SplitMix64, for the stream generator.
struct Mix(u64);

impl Mix {
    fn below(&mut self, k: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % k
    }
}

/// `n` rows of three cells on the grid `{0,1,2}`: duplicates and ties
/// everywhere, so later rows promote earlier outliers. About one row in
/// six is pushed off the grid (an outlier to save), one in ten holds a
/// `Null` and one in twelve a text cell.
fn rows(n: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut mix = Mix(seed);
    (0..n)
        .map(|_| {
            let mut row: Vec<Value> = (0..3).map(|_| Value::Num(mix.below(3) as f64)).collect();
            if mix.below(6) == 0 {
                row[mix.below(3) as usize] = Value::Num(4.0 + mix.below(3) as f64);
            }
            if mix.below(10) == 0 {
                row[mix.below(3) as usize] = Value::Null;
            }
            if mix.below(12) == 0 {
                row[mix.below(3) as usize] = Value::Text(format!("t{}", mix.below(2)));
            }
            row
        })
        .collect()
}

/// Ingest sizes of 1 to 12 rows.
fn batches(rows: &[Vec<Value>], seed: u64) -> Vec<Vec<Vec<Value>>> {
    let mut mix = Mix(seed ^ 0xB47C);
    let mut out = Vec::new();
    let mut rest = rows;
    while !rest.is_empty() {
        let k = (1 + mix.below(12) as usize).min(rest.len());
        let (batch, tail) = rest.split_at(k);
        out.push(batch.to_vec());
        rest = tail;
    }
    out
}

/// The savers: `kind` 0 has an unlimited budget; 1 caps each save's
/// candidates, which makes every old outlier a resave whenever r grows;
/// 2 starts unlimited and, halfway through the stream, is swapped by
/// export and restore for one whose deadline has expired, so saves are
/// skipped and their rows left pending beside the rows saved earlier.
fn saver(kind: usize, expired: bool) -> Box<dyn Saver> {
    let budget = match (kind, expired) {
        (1, _) => Budget::unlimited().with_max_candidates(1),
        (_, true) => Budget::unlimited().with_deadline(Duration::ZERO),
        _ => Budget::unlimited(),
    };
    let saver = SaverConfig::new(
        DistanceConstraints::new(1.0, 3),
        TupleDistance::new(vec![Metric::Absolute; 3], Norm::L1),
    )
    .kappa(2)
    .parallelism(Parallelism(1))
    .budget(budget)
    .build_approx()
    .unwrap();
    Box::new(saver)
}

/// Ingests `batches[k]`, swapping the saver first where `kind` says.
fn step(engine: &mut ShardedEngine, batches: &[Vec<Vec<Value>>], k: usize, kind: usize) -> u64 {
    if kind == 2 && k == batches.len() / 2 {
        let (state, shards) = (engine.export_state(), engine.shards());
        *engine = ShardedEngine::restore_with_shards(
            Schema::numeric(3),
            saver(kind, true),
            state,
            shards,
        )
        .unwrap();
    }
    let report = engine.ingest(batches[k].clone()).expect("valid rows");
    report.stats.counters.get("engine.promotions")
}

/// Equal images, with rows compared bit for bit.
fn same_image(a: &EngineState, b: &EngineState) -> bool {
    a == b && bit_equal(&a.original, &b.original) && bit_equal(&a.current, &b.current)
}

/// Streams the rows, holding the view of every generation, then checks
/// each against a fresh engine replaying that prefix. Returns the
/// promotions and how many views held an adjusted row and a pending
/// row, so the caller can check that the streams reach them.
fn held_views_match_replay(n: usize, seed: u64, shards: usize, kind: usize) -> [u64; 3] {
    let batches = batches(&rows(n, seed), seed);
    let fresh = || ShardedEngine::with_shards(Schema::numeric(3), saver(kind, false), shards);
    let mut live = fresh();
    let mut views: Vec<EngineView> = vec![live.view()];
    let mut promoted = 0;
    for k in 0..batches.len() {
        promoted += step(&mut live, &batches, k, kind);
        views.push(live.view());
    }
    let mut replay = fresh();
    let (mut adjusted, mut pending) = (0, 0);
    for (k, view) in views.iter().enumerate() {
        if k > 0 {
            step(&mut replay, &batches, k - 1, kind);
        }
        let held = view.state();
        assert!(
            same_image(&held, &replay.export_state()),
            "S={shards}, saver {kind}: the view of generation {k} differs from a replay"
        );
        assert_eq!(view.generation(), k as u64);
        assert_eq!(view.outlier_count(), replay.outliers().len());
        adjusted += u64::from(!bit_equal(&held.current, &held.original));
        pending += u64::from(!view.pending().is_empty());
    }
    assert!(
        same_image(&live.export_state(), &views.last().unwrap().state()),
        "the newest view differs from the live engine"
    );
    [promoted, adjusted, pending]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn every_held_view_keeps_its_generation(
        n in 140usize..260,
        seed in 0u64..1_000_000,
        kind in 0usize..3,
    ) {
        for shards in [1, 3] {
            // The counters are process-wide, and this is the binary's
            // only test, so its promotions are exact.
            let [promoted, adjusted, pending] = held_views_match_replay(n, seed, shards, kind);
            prop_assert!(promoted > 0, "no promotion");
            prop_assert!(adjusted > 0, "no view held an adjusted row");
            prop_assert_eq!(pending > 0, kind == 2);
        }
    }
}

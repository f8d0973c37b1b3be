//! CI gate on the streaming engine's *search* work, not just its index
//! work: the `stream_ingest` workload streamed in 8-row ingests must end
//! bit-equal to one batch `save_all` while evaluating at most 8× that
//! run's `search.candidates`, with `engine.resaves ≤ engine.dirty_rows`
//! and `engine.delta_eta_evals` at most a tenth of the old × new inlier
//! pairs an all-pairs `δ_η` upkeep would evaluate.
//!
//! A binary of its own holding one test: the gate reads process-global
//! counters, which any test running beside it would also advance.

use disc_bench::stream::{check_search_work, ingest_workload};

#[test]
fn eight_row_ingests_stay_within_8x_batch_search_work() {
    let work = check_search_work(&ingest_workload(), 8, 8);
    let ratio = work.streamed as f64 / work.batch as f64;
    println!(
        "search.candidates: stream {} vs batch {} ({ratio:.1}x); engine.delta_eta_evals {} of {} pairs",
        work.streamed, work.batch, work.delta_eta_evals, work.delta_eta_pairs
    );
}

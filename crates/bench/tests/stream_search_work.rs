//! CI gate on the streaming engine's *search* work, not just its index
//! work: the `stream_ingest` workload streamed in 8-row ingests must end
//! bit-equal to one batch `save_all` while evaluating at most 8× that
//! run's `search.candidates`, with `engine.resaves ≤ engine.dirty_rows`.
//!
//! A binary of its own holding one test: the gate reads process-global
//! counters, which any test running beside it would also advance.

use disc_bench::stream::{check_search_work, ingest_workload};

#[test]
fn eight_row_ingests_stay_within_8x_batch_search_work() {
    let (streamed, batch) = check_search_work(&ingest_workload(), 8, 8);
    let ratio = streamed as f64 / batch as f64;
    println!("search.candidates: stream {streamed} vs batch {batch} ({ratio:.1}x)");
}

//! Heap held per keyed stream: a sparse key must cost about what its
//! records hold, not its sample plan.
//!
//! The watch-ingest shape — `--run l2,uniformity`, n = 256, 500-record
//! tumbling windows, so lanes of 500 + 7 × 71 samples — over 10 000 keys
//! that send 1 to 11 records each (none completes a window). A counting
//! global allocator measures the net heap the engine holds after ingest,
//! per stream. Lanes that reserved their whole plan up front in `usize`
//! held ~10 KB per such stream; first-touch reservation, `u32` samples and
//! a one-slot pane deque hold a small fraction of that.
//!
//! The counter is process-global, so this file holds exactly one
//! `#[test]`, and the engine runs on one shard (no worker threads).

use alloc_counter::CountingAllocator;
use khist::prelude::*;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Net heap bytes per stream the engine may hold for a key that sent at
/// most 11 records.
const MAX_BYTES_PER_STREAM: u64 = 3_072;

const KEYS: usize = 10_000;

#[test]
fn sparse_streams_hold_what_their_records_need() {
    // The CLI's watch batch for `--run l2,uniformity --n 256 --every 500`
    // with the default k = 8, ε = 0.1: l2 splits the 500 records into
    // 7 sets of 71, uniformity asks for all 500.
    let batch: Vec<Analysis> = vec![
        TestL2::k(8)
            .eps(0.1)
            .budget(L2TesterBudget { r: 7, m: 71 })
            .into(),
        Uniformity::eps(0.1)
            .budget(UniformityBudget { m: 500 })
            .into(),
    ];
    let keys: Vec<String> = (0..KEYS).map(|i| format!("k{i}")).collect();
    // Key i sends 1 + i mod 11 records, round-robin over the keys that
    // still have records to send.
    let mut records: Vec<(&str, usize)> = Vec::new();
    for round in 0..11 {
        for (i, key) in keys.iter().enumerate() {
            if round <= i % 11 {
                records.push((key, (i * 31 + round * 7) % 256));
            }
        }
    }
    let mut engine = Engine::builder(256)
        .seed(2)
        .shards(1)
        .tumbling(500)
        .analyses(batch)
        .build()
        .unwrap();

    let before = ALLOC.live_bytes();
    for chunk in records.chunks(4096) {
        let reports = engine.ingest_batch(chunk).unwrap();
        assert!(reports.is_empty(), "no key sends a whole window");
    }
    let held = ALLOC.live_bytes() - before;

    assert_eq!(engine.streams(), KEYS);
    let per_stream = held / KEYS as u64;
    assert!(
        per_stream <= MAX_BYTES_PER_STREAM,
        "{per_stream} heap bytes per sparse stream (bound {MAX_BYTES_PER_STREAM}): \
         {held} bytes over {KEYS} streams"
    );
    println!("{per_stream} heap bytes per sparse stream ({held} over {KEYS})");
}

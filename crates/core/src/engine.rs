//! The keyed multi-stream ingest path: an [`Engine`] over a shared-nothing
//! pool of [`Monitor`] shards.
//!
//! A single [`Monitor`] watches one stream on one
//! core. Real deployments watch *many* keyed streams at once — per-tenant,
//! per-shard, per-endpoint latency histograms — and the per-window workload
//! (the standing batch plus the Diakonikolas–Kane–Nikishkin-style `ℓ₂`
//! closeness drift check) is exactly the CPU-bound work worth scaling out:
//!
//! ```text
//!   ingest_batch(&[(key, value), …])
//!        │  phase 1 — route: the batch splits into chunks; each chunk is
//!        ▼  hashed (batched FNV-1a, one hash per record, reused for the
//!           interner probe *and* the consistent-hash ring at debut) and
//!           bucketed into per-(chunk, shard) sub-partitions over reusable
//!           scratch
//!   ┌ chunk 0 ┐ ┌ chunk 1 ┐ ┌ chunk 2 ┐ ┌ chunk 3 ┐   debuting keys miss
//!   │ w0 route│ │ w1 route│ │ w0 route│ │ w1 route│   every chunk and are
//!   └─┬─────┬─┘ └─┬─────┬─┘ └─┬─────┬─┘ └─┬─────┬─┘   interned serially in
//!     ▼     ▼     ▼     ▼     ▼     ▼     ▼     ▼     arrival order after
//!   s0-sub s1-…  s0-…  s1-…  s0-…  s1-…  s0-…  s1-…   the routed chunks land
//!        │  phase 2 — shard ingest: each busy shard concatenates the
//!        ▼  sub-partitions addressed to it *in chunk order* (restoring
//!           every stream's global arrival order — bit-identity) and
//!           ingests
//!   ┌─────────┐  ┌─────────┐       ┌─────────┐   one *persistent* worker
//!   │ shard 0 │  │ shard 1 │  ...  │ shard S │   thread per shard, spawned
//!   │ ┌─────┐ │  │ ┌─────┐ │       │ ┌─────┐ │   at build and parked when
//!   │ │state│ │  │ │state│ │       │ │state│ │   idle; shard slabs and
//!   │ │state│ │  │ └─────┘ │       │ │state│ │   route chunks travel by
//!   │ └─────┘ │  └─────────┘       │ └─────┘ │   value through a bounded
//!   └─────────┘                    └─────────┘   two-deep mailbox ring
//!        │              │               │        state = Monitor of one
//!        └──────────────┴───────────────┘        stream key (a slab slot
//!                       ▼                        in debut order)
//!     Vec<WindowReport> tagged by stream, sorted by (stream, window)
//! ```
//!
//! # One job path
//!
//! Every shard operation — routing a chunk, ingesting a shard's share of a
//! batch, flushing a shard, snapshotting a stream — is one job answered by
//! one handler. One fan-out helper places the jobs: a lone job (or any job
//! on an engine without workers) runs inline on the caller thread, more
//! jobs go round-robin over the persistent workers, at most
//! [`Courier::DEPTH`] outstanding per worker. A batch below
//! [`Engine::PARALLEL_ROUTE_MIN`] records (or any batch on a single-shard
//! engine) is one route chunk, hashed on the caller thread by the same
//! code as a fanned-out batch: the output is bit-identical either way, the
//! threshold only decides who does the hashing.
//!
//! # The allocation-free batch pipeline
//!
//! Steady-state `ingest_batch` (every key already interned, no window
//! closing) performs **zero heap allocations** whether its jobs run
//! inline or on the workers — asserted by a counting-allocator
//! integration test (`tests/engine_zero_alloc.rs`):
//!
//! * keys resolve through the interner's open-addressing table (hash +
//!   probe, no `String`, no `BTreeMap`); route jobs share the table as a
//!   frozen `Arc` snapshot, cloned by refcount only;
//! * records partition into per-chunk arenas + sub-partition buckets, all
//!   reused across batches and round-tripped by value through the jobs;
//! * each shard groups its sub-partitions with a counting sort over
//!   reused scratch (counts / touched-slot list / scatter buffer) that
//!   concatenates logically — no copy of the routed records;
//! * busy shards move into their jobs by value (`mem::take` of the shard
//!   slab — no copy, no channel allocation) and move back when collected.
//!   A lone job runs inline on the caller thread — no handoff at all.
//! * each stream's reservoir lanes reserve their expected share of a
//!   window on first touch and double past it (the memory policy of
//!   [`khist_oracle::sink`]); like every other scratch buffer they stop
//!   allocating once they reach their high-water mark, and a retired
//!   window's buffers serve the next window.
//!
//! # Sharding is semantics-free
//!
//! Each stream key `k` gets its own [`Monitor`] seeded with
//! [`Engine::stream_seed`]`(base_seed, k)` — a SplitMix64 stream derived
//! from the engine's base seed and a deterministic (FNV-1a) hash of the
//! key. A monitor depends on nothing but its own records and seed, and
//! shards share nothing, so for every stream the engine's reports are
//! **bit-identical** to a dedicated single-threaded monitor built with
//! `Monitor::builder(n).seed(Engine::stream_seed(base, key)).stream(key)`
//! and fed that stream's records — for *any* shard count, any batch
//! boundaries, and any interleaving with other streams. The push≡pull
//! property of the monitor layer lifts one level up: sharding is a
//! transport, not a semantic. Property-tested in
//! `tests/engine_sharding.rs`.
//!
//! Routing rides a consistent-hash **virtual-node ring** (64 mixed
//! FNV-1a points per shard) instead of `hash mod N`, so
//! [`Engine::resize`] can grow or shrink a *live* pool migrating only
//! ~1/(N+1) of streams — each migrated stream's monitor moves
//! between shard slabs untouched, keeping its reports bit-identical
//! across any resize history (`tests/engine_ring.rs`).
//!
//! # The control plane
//!
//! Operators interrogate one stream mid-window without disturbing it:
//! [`Engine::snapshot`] answers an on-demand sub-batch from the stream's
//! current partial window (routed to the owning shard over the same
//! worker mailboxes as batches), [`Engine::ledger`] reports the stream's
//! lifetime sample/time spend as bounded per-label totals, and
//! [`Engine::stream_seen`] lists debut-ordered per-stream record counts.
//! `khist serve` exposes exactly these as its `STATS` requests.
//!
//! # Example
//!
//! ```
//! use khist_core::api::{Engine, TestL2, Uniformity};
//! use khist_dist::generators;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let p = generators::staircase(64, 4).unwrap();
//! let mut source = StdRng::seed_from_u64(3);
//! let mut engine = Engine::builder(64)
//!     .seed(7)
//!     .shards(2)
//!     .tumbling(1_000)
//!     .analyses([
//!         TestL2::k(4).eps(0.3).scale(0.05).into(),
//!         Uniformity::eps(0.3).scale(0.2).into(),
//!     ])
//!     .build()
//!     .unwrap();
//!
//! // Interleaved keyed records: two tenants, one window each.
//! let values = p.sample_many(2_000, &mut source);
//! let keyed: Vec<(String, usize)> = values
//!     .into_iter()
//!     .enumerate()
//!     .map(|(i, v)| (format!("tenant-{}", i % 2), v))
//!     .collect();
//! let reports = engine.ingest_batch(&keyed).unwrap();
//! assert_eq!(reports.len(), 2);
//! assert_eq!(reports[0].stream.as_deref(), Some("tenant-0"));
//! assert_eq!(reports[1].stream.as_deref(), Some("tenant-1"));
//! assert_eq!(engine.streams(), 2);
//! ```

use std::sync::Arc;

use crossbeam::Courier;
use khist_dist::DistError;
use khist_fleet::{FleetReport, FleetSummary, WindowObservation};
use khist_oracle::{stream_seed, SinkShape, Window};

use crate::api::{Analysis, LedgerEntry, Report, SamplePlan};
use crate::monitor::{resolve_config, Monitor, WindowReport};

/// One shard's answer to a batch: everything that succeeded, plus every
/// per-stream failure. Streams are independent state machines, so one
/// stream's bad record must not discard another stream's already-computed
/// window reports — the shard keeps going and reports both.
#[derive(Default)]
struct ShardOutcome {
    reports: Vec<WindowReport>,
    errors: Vec<(Arc<str>, DistError)>,
}

/// FNV-1a 64-bit hash of a stream key.
///
/// Shard routing and per-stream seed derivation must be deterministic
/// across processes and platforms — `std`'s default hasher is randomized
/// per process, which would make "which shard owns tenant X" and "what
/// seed does tenant X sample with" unreproducible. FNV-1a is stable,
/// tiny, and good enough for short keys. Each key is hashed once per
/// batch appearance; the [`Interner`] caches the hash at debut so rehash
/// and shard routing never recompute it.
fn key_hash(key: &str) -> u64 {
    key_hash_bytes(key.as_bytes())
}

/// FNV-1a over raw key bytes — the byte-slice twin of [`key_hash`] (UTF-8
/// string equality is byte equality, so hashing the bytes of a `&str`
/// yields the identical value). The route phase hashes keys out
/// of a per-chunk byte arena, where no `&str` exists to hash.
// lint:hot-path
fn key_hash_bytes(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in key {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Virtual nodes per shard on the consistent-hash ring. 64 points keep a
/// shard's share of the hash space within ~1/√64 ≈ 12% (relative) of the
/// ideal 1/N, which is what makes the resize-migration bound of
/// `2/(N+1)` (property-tested in `tests/engine_ring.rs`) comfortably
/// hold while keeping the ring small enough that a debut lookup is a
/// sub-microsecond binary search.
const VNODES: u32 = 64;

/// Full-avalanche 64-bit finalizer (MurmurHash3's `fmix64`). The ring
/// needs its positions *uniform over the whole `u64` space*, and raw
/// FNV-1a cannot deliver that for the ring's inputs: over 8-byte records
/// that differ in one or two bytes (vnode ids) or short ASCII keys, FNV
/// clusters its outputs in a narrow band, which measured as one shard
/// owning ~80–90% of a 3-shard ring. One multiply–xor–shift cascade on
/// top spreads every input bit across every output bit, restoring the
/// ~1/N shares (± ~12% with [`VNODES`] points) the migration bound
/// assumes. Not a seed path: seeds derive from the *unmixed* FNV hash via
/// `stream_seed`, so report bytes are unchanged by ring placement.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Ring position for one virtual node. The point depends only on
/// `(shard, vnode)` — *not* on the total shard count — so growing a pool
/// from N to N+1 shards only **adds** shard N's points to the ring. Keys
/// move only where a new point lands between them and their old owner:
/// the expected migrated fraction is exactly the new shard's share,
/// ~1/(N+1), instead of the (N-1)/N reshuffle `hash mod N` causes.
fn vnode_point(shard: u32, vnode: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in shard.to_le_bytes().into_iter().chain(vnode.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h)
}

/// A fixed virtual-node consistent-hash ring: the deterministic
/// replacement for `fnv1a(key) mod N` shard routing.
///
/// `points` holds every shard's [`VNODES`] virtual nodes sorted by hash
/// position; a key belongs to the first point at or clockwise-after its
/// FNV-1a hash (wrapping). Routing is only consulted at key debut and at
/// [`Engine::resize`] — steady-state records resolve through the
/// interner's cached `(shard, slot)` coordinates, so the ring adds zero
/// work (and zero allocations) to the warm ingest path.
struct Ring {
    /// Sorted `(point, shard)` pairs. Ties (two vnodes hashing to the
    /// same point — astronomically unlikely with FNV-1a over 8 distinct
    /// bytes) order by shard id, keeping ownership deterministic.
    points: Vec<(u64, u32)>,
}

impl Ring {
    /// Builds the ring for a pool of `shards` shards (cold path: called
    /// once at [`EngineBuilder::build`] and once per [`Engine::resize`]).
    fn new(shards: usize) -> Ring {
        let mut points = Vec::with_capacity(shards * VNODES as usize);
        for shard in 0..shards as u32 {
            for vnode in 0..VNODES {
                points.push((vnode_point(shard, vnode), shard));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    /// The shard owning `hash`: the first virtual node at or after the
    /// hash's mixed ring position, wrapping past the top back to the
    /// smallest point. The key hash goes through the same [`mix64`]
    /// finalizer as the vnode points — FNV-1a over short keys clusters,
    /// and clustered lookups would land on the same few arcs however well
    /// the points themselves are spread.
    // lint:hot-path
    fn owner(&self, hash: u64) -> u32 {
        let hash = mix64(hash);
        let idx = self.points.partition_point(|&(p, _)| p < hash);
        match self.points.get(idx).or_else(|| self.points.first()) {
            Some(&(_, shard)) => shard,
            None => 0, // unreachable: a ring always holds ≥ VNODES points
        }
    }
}

/// Everything the shards share, read-only: one validated configuration
/// stamped out per stream key. Wrapped in an `Arc` so the persistent
/// workers hold it without borrowing the engine.
struct EngineConfig {
    seed: u64,
    shape: SinkShape,
    analyses: Arc<Vec<Analysis>>,
    plan: SamplePlan,
    drift_eps: f64,
}

impl EngineConfig {
    /// Stamps out the monitor for a new stream key — cheap: the shape
    /// and batch were validated once at [`EngineBuilder::build`], and the
    /// monitor's stream label shares the key's one allocation.
    fn new_monitor(&self, key: &Arc<str>) -> Monitor {
        Monitor::from_parts(
            &self.shape,
            Engine::stream_seed(self.seed, key),
            Arc::clone(&self.analyses),
            self.plan,
            self.drift_eps,
            Some(Arc::clone(key)),
        )
    }
}

/// One interned stream key: its cached hash and its home `(shard, slot)`.
/// The key is the stream's one copy, shared with its [`StreamSlot`] and
/// its monitor's stream label. `Clone` is derived for `Arc::make_mut` on
/// the [`Interner`]; the engine only mutates the interner when its `Arc`
/// is unique (no route job in flight), so the clone never actually runs.
#[derive(Clone)]
struct KeyEntry {
    key: Arc<str>,
    hash: u64,
    shard: u32,
    slot: u32,
}

/// The engine's key interner: a debut-ordered slab of [`KeyEntry`] plus an
/// open-addressing hash table over it. Steady-state resolution is an
/// FNV-1a hash, a linear probe, and one short key comparison — no
/// allocation, no `String` construction, no tree walk. Debut (the only
/// cold path) allocates the entry and, rarely, regrows the table.
///
/// The table stores `entry index + 1` so `0` marks an empty bucket; its
/// length is always a power of two; the probe start index runs the raw
/// FNV-1a hash through [`mix64`] (the same finalizer the ring applies) so
/// short-key clustering cannot pile entries into one probe chain — the
/// *stored* hash stays raw, because seeds derive from it. Stream counts
/// are capped at `u32` range (4 billion keys) by the id width — far
/// beyond the slab sizes the monitor layer supports in memory anyway.
///
/// Lives behind an `Arc` on the engine so the route jobs can
/// probe it from every worker at once; `Clone` is derived purely for
/// `Arc::make_mut` (see [`KeyEntry`]).
#[derive(Clone)]
struct Interner {
    entries: Vec<KeyEntry>,
    table: Vec<u32>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            entries: Vec::new(),
            table: vec![0; 64],
        }
    }

    /// Steady-state key resolution: no allocation, no `String`. Takes the
    /// key as raw bytes so the route phase can resolve keys straight out
    /// of a chunk arena; `&str` callers pass `.as_bytes()` (UTF-8 equality
    /// is byte equality). Returns the key's interned id (its debut index)
    /// with its entry.
    // lint:hot-path
    fn lookup(&self, key: &[u8], hash: u64) -> Option<(u32, &KeyEntry)> {
        let mask = self.table.len() - 1;
        let mut i = (mix64(hash) as usize) & mask;
        loop {
            // lint:allow(checked-indexing): i is masked onto the table length
            let probe = self.table[i];
            if probe == 0 {
                return None;
            }
            let id = probe - 1;
            // lint:allow(checked-indexing): the table only stores ids of live entries
            let entry = &self.entries[id as usize];
            if entry.hash == hash && entry.key.as_bytes() == key {
                return Some((id, entry));
            }
            i = (i + 1) & mask;
        }
    }

    /// Registers a debuting key (cold path: may grow the slab or regrow
    /// the table). Caller guarantees `key` is not present.
    fn insert(&mut self, key: Arc<str>, hash: u64, shard: u32, slot: u32) {
        let id = self.entries.len() as u32;
        self.entries.push(KeyEntry {
            key,
            hash,
            shard,
            slot,
        });
        // Keep load factor below 3/4 so probe chains stay short.
        if self.entries.len() * 4 > self.table.len() * 3 {
            self.grow();
        } else {
            Self::place(&mut self.table, hash, id);
        }
    }

    fn grow(&mut self) {
        let mut table = vec![0u32; self.table.len() * 2];
        for (id, entry) in self.entries.iter().enumerate() {
            Self::place(&mut table, entry.hash, id as u32);
        }
        self.table = table;
    }

    fn place(table: &mut [u32], hash: u64, id: u32) {
        let mask = table.len() - 1;
        let mut i = (mix64(hash) as usize) & mask;
        // lint:allow(checked-indexing): i is masked onto the table length
        while table[i] != 0 {
            i = (i + 1) & mask;
        }
        // lint:allow(checked-indexing): i is masked onto the table length
        table[i] = id + 1;
    }
}

/// Reusable scratch for one route chunk. The caller thread fills
/// `arena`/`spans` (a pure memcpy of key bytes — no hashing, no probing),
/// hands the chunk to its route job by value, and gets it back with
/// `hashes`, `buckets`, and `misses` filled. Every buffer keeps its
/// capacity across batches, so a warm batch's route phase allocates
/// nothing.
///
/// `Default` is derived so chunks `mem::take` in and out of the scratch
/// pool without a heap touch.
#[derive(Default)]
struct RouteChunk {
    /// Concatenated key bytes of the chunk's records, in arrival order.
    arena: Vec<u8>,
    /// Per-record `(key start, key end, value)` spans into `arena`, in
    /// arrival order.
    spans: Vec<(usize, usize, usize)>,
    /// Per-record FNV-1a key hashes, filled by the batched hash pass
    /// (index-aligned with `spans`).
    hashes: Vec<u64>,
    /// Per-shard `(slot, value)` sub-partitions of the chunk's records
    /// whose keys resolved through the interner, each in arrival order.
    buckets: Vec<Vec<(u32, usize)>>,
    /// `(record index, key hash)` of records whose keys missed the
    /// interner snapshot — debuts, interned serially (and cold) by the
    /// engine afterwards.
    misses: Vec<(usize, u64)>,
}

impl RouteChunk {
    /// Loads one slice of the batch: its key bytes into the arena, one
    /// span per record, and one empty bucket per shard of a `shards`-wide
    /// pool (a no-op once sized, so a warm fill allocates nothing).
    fn fill<K: AsRef<str>>(&mut self, records: &[(K, usize)], shards: usize) {
        self.arena.clear();
        self.spans.clear();
        self.buckets.resize_with(shards, Vec::new);
        self.buckets.iter_mut().for_each(Vec::clear);
        for (key, value) in records {
            let start = self.arena.len();
            self.arena.extend_from_slice(key.as_ref().as_bytes());
            self.spans.push((start, self.arena.len(), *value));
        }
    }
}

/// The route job: a batched FNV-1a pass over the chunk's key arena, then
/// one interner probe per record — the hash is computed once and reused
/// for the probe here and for the ring lookup if the key turns out to be
/// a debut. Known keys bucket into the per-shard sub-partitions in
/// arrival order; unknown keys are recorded as misses for the engine's
/// serial debut pass.
fn route_chunk(chunk: &mut RouteChunk, interner: &Interner) {
    hash_spans(&chunk.arena, &chunk.spans, &mut chunk.hashes);
    bucket_records(chunk, interner);
}

/// The batched hash pass: one tight FNV-1a loop over every key span,
/// touching nothing but the arena and the output vector.
// lint:hot-path
fn hash_spans(arena: &[u8], spans: &[(usize, usize, usize)], hashes: &mut Vec<u64>) {
    hashes.clear();
    for &(start, end, _) in spans {
        let hash = match arena.get(start..end) {
            Some(key) => key_hash_bytes(key),
            // Unreachable: the caller builds spans by appending to the
            // arena, so every span indexes it. Hash of the empty key keeps
            // the vectors index-aligned without panicking.
            None => key_hash_bytes(&[]),
        };
        hashes.push(hash);
    }
}

/// The bucketing pass: resolve each record's key against the frozen
/// interner snapshot and append `(slot, value)` to its shard's
/// sub-partition; keys the snapshot does not know become misses. Arrival
/// order is preserved within every bucket — chunk-ordered concatenation
/// on the shard side then restores each stream's global arrival order.
// lint:hot-path
fn bucket_records(chunk: &mut RouteChunk, interner: &Interner) {
    let RouteChunk {
        arena,
        spans,
        hashes,
        buckets,
        misses,
    } = chunk;
    misses.clear();
    for (i, (&(start, end, value), &hash)) in spans.iter().zip(hashes.iter()).enumerate() {
        let key = arena.get(start..end);
        match key.and_then(|key| interner.lookup(key, hash)) {
            // lint:allow(checked-indexing): fill sized the buckets to the pool; interned shards are < its width
            Some((_, entry)) => buckets[entry.shard as usize].push((entry.slot, value)),
            None => misses.push((i, hash)),
        }
    }
}

/// One stream owned by a shard.
struct StreamSlot {
    /// The stream key: the interner entry's allocation, shared.
    key: Arc<str>,
    monitor: Monitor,
    /// The stream's global debut index (engine interner id) — the fleet
    /// rollup's stream key, stable across live resizes.
    debut: u32,
    /// Whether the stream has ever produced a non-quiet window; gates the
    /// fleet rollup's "alarming streams" counter to first alarms only.
    alarmed: bool,
}

impl StreamSlot {
    /// The one per-stream step behind every ingest and flush: run `op` on
    /// the stream's monitor, digest the windows it completed into the
    /// shard's fleet partial, and file its result in `outcome`.
    fn step(
        &mut self,
        fleet: &mut FleetSummary,
        outcome: &mut ShardOutcome,
        op: impl FnOnce(&mut Monitor) -> Result<Vec<WindowReport>, DistError>,
    ) {
        match op(&mut self.monitor) {
            Ok(reports) => {
                observe_windows(fleet, self, &reports);
                outcome.reports.extend(reports);
            }
            Err(e) => outcome.errors.push((Arc::clone(&self.key), e)),
        }
    }
}

/// One worker's worth of streams, plus its reusable batch scratch. Shards
/// share nothing: every stream key hashes to exactly one shard, and only
/// the job holding the shard slab (on a worker, or inline on the caller
/// thread) ever touches its states.
///
/// `Default` is derived so the engine can `mem::take` a shard — an
/// allocation-free move — to hand it to its job by value and reinstall it
/// when the job's reply is collected.
#[derive(Default)]
struct Shard {
    /// Slots in debut order — the shard-local slab the interner's
    /// `(shard, slot)` coordinates point into.
    slots: Vec<StreamSlot>,
    /// Counting-sort scratch: per-slot record count, doubling as the
    /// scatter cursor. Sized to `slots.len()`, zero between batches.
    counts: Vec<usize>,
    /// Slots touched by the current batch (those with `counts > 0`).
    touched: Vec<u32>,
    /// `(slot, start, end)` group extents into `grouped`, in slot order.
    spans: Vec<(u32, usize, usize)>,
    /// The batch's record values scattered into per-slot contiguous runs.
    grouped: Vec<usize>,
    /// The shard's fleet rollup partial, accumulated at window production
    /// inside the worker (zero extra oracle draws) and folded shard-wise
    /// by [`Engine::fleet_report`].
    fleet: FleetSummary,
}

/// Digests freshly produced window reports into the shard's fleet partial.
/// Runs inside shard workers at window production, so stashed reports
/// (collected later after a partial batch failure) are never re-counted.
// lint:hot-path
fn observe_windows(fleet: &mut FleetSummary, slot: &mut StreamSlot, reports: &[WindowReport]) {
    for w in reports {
        let alarmed = !w.all_quiet();
        let first_alarm = alarmed && !slot.alarmed;
        if first_alarm {
            slot.alarmed = true;
        }
        let mut verdicts = 0u32;
        let mut rejects = 0u32;
        for r in &w.reports {
            if r.verdict.is_some() {
                verdicts += 1;
                if !r.accepted() {
                    rejects += 1;
                }
            }
        }
        fleet.observe_window(WindowObservation {
            debut: slot.debut,
            window: w.window,
            seen: w.seen,
            kept: w.kept,
            complete: w.complete,
            alarmed,
            first_alarm,
            verdicts,
            rejects,
            drift_score: w.drift.as_ref().and_then(drift_severity),
        });
    }
}

/// Normalizes a drift report into one severity score: `statistic /
/// threshold` when the check publishes a positive threshold (> 1 means the
/// check rejected that window), the raw statistic otherwise. `None` when
/// the check produced no statistic (e.g. a window too small to score).
fn drift_severity(r: &Report) -> Option<f64> {
    let s = r.statistic?;
    match r.threshold {
        Some(t) if t > 0.0 => Some(s / t),
        _ => Some(s),
    }
}

/// The concat + group pass of a shard's batch: logically concatenates the
/// chunk-ordered sub-partitions addressed to one shard (no copy happens
/// until the scatter) and groups their records per stream slot with a
/// counting sort over the shard's reused scratch. Iterating the
/// sub-partitions in chunk order is what restores each stream's global
/// arrival order — the bit-identity invariant the shuffle hangs on.
// lint:hot-path
fn concat_group(
    parts: &[Vec<(u32, usize)>],
    counts: &mut [usize],
    touched: &mut Vec<u32>,
    spans: &mut Vec<(u32, usize, usize)>,
    grouped: &mut Vec<usize>,
) {
    let mut total = 0usize;
    for part in parts {
        total += part.len();
        for &(slot, _) in part.iter() {
            // lint:allow(checked-indexing): the engine only routes interned slots here
            let c = &mut counts[slot as usize];
            if *c == 0 {
                touched.push(slot);
            }
            *c += 1;
        }
    }
    // Ascending slot index == per-shard debut order: deterministic.
    touched.sort_unstable();
    let mut offset = 0usize;
    for &slot in touched.iter() {
        // lint:allow(checked-indexing): touched slots were counted above
        let count = counts[slot as usize];
        spans.push((slot, offset, offset + count));
        // Repurpose the count as the scatter cursor.
        // lint:allow(checked-indexing): same touched slot
        counts[slot as usize] = offset;
        offset += count;
    }
    grouped.clear();
    grouped.resize(total, 0);
    for part in parts {
        for &(slot, value) in part.iter() {
            // lint:allow(checked-indexing): cursor stays within this slot's span
            let cursor = &mut counts[slot as usize];
            // lint:allow(checked-indexing): spans tile 0..total exactly
            grouped[*cursor] = value;
            *cursor += 1;
        }
    }
}

impl Shard {
    /// Ingests one shard's share of a keyed batch, handed over as
    /// chunk-ordered sub-partitions of `(slot, value)` records (one per
    /// route chunk, plus the engine's debut partition last). Records are
    /// grouped per stream with a counting sort over reused scratch (see
    /// [`concat_group`] — preserving each stream's arrival order, the
    /// only order a stream's state can observe) and each touched stream
    /// takes one [`StreamSlot::step`] over its group; a failing stream
    /// does not stop its shard-mates.
    ///
    /// Slot index order is debut order, so the processing order is
    /// deterministic for every batch partitioning — and the whole pass
    /// allocates nothing once the scratch has grown to the working size.
    fn ingest_parts(&mut self, parts: &[Vec<(u32, usize)>]) -> ShardOutcome {
        if self.counts.len() < self.slots.len() {
            self.counts.resize(self.slots.len(), 0);
        }
        concat_group(
            parts,
            &mut self.counts,
            &mut self.touched,
            &mut self.spans,
            &mut self.grouped,
        );
        let mut outcome = ShardOutcome::default();
        for &(slot_idx, start, end) in &self.spans {
            // Reset the scratch count before the next batch.
            // lint:allow(checked-indexing): touched slot, counted by concat_group
            self.counts[slot_idx as usize] = 0;
            // lint:allow(checked-indexing): the engine interned slot_idx into this shard
            let slot = &mut self.slots[slot_idx as usize];
            // lint:allow(checked-indexing): span extents tile the grouped buffer
            let group = &self.grouped[start..end];
            slot.step(&mut self.fleet, &mut outcome, |monitor| monitor.ingest(group));
        }
        self.touched.clear();
        self.spans.clear();
        outcome
    }

    /// Flushes every stream the shard owns, in debut order; a failing
    /// stream does not stop its shard-mates.
    fn flush(&mut self) -> ShardOutcome {
        let mut outcome = ShardOutcome::default();
        for slot in &mut self.slots {
            slot.step(&mut self.fleet, &mut outcome, Monitor::flush);
        }
        outcome
    }

    /// Answers an on-demand sub-batch from one stream's *current*
    /// (possibly partial) window — the control-plane half of the shard
    /// protocol, behind [`Engine::snapshot`]. The monitor folds the
    /// snapshot's spend into its ledger totals like any window's.
    fn snapshot(&mut self, slot: u32, analyses: &[Analysis]) -> Result<Vec<Report>, DistError> {
        let Some(slot) = self.slots.get_mut(slot as usize) else {
            return Err(DistError::BadParameter {
                reason: "snapshot routed to a slot this shard does not own".into(),
            });
        };
        slot.monitor.snapshot(analyses)
    }
}

/// A shard's chunk-ordered sub-partition list: one `(slot, value)` buffer
/// per route chunk, then the engine's partition for the shard.
type Subs = Vec<Vec<(u32, usize)>>;

/// One unit of shard work, run by [`handle`] inline or on a persistent
/// worker. Owned state (the shard slab, a route chunk, the sub-partition
/// list) moves in by value and moves back out inside the matching
/// [`ShardReply`] variant, so every buffer's capacity survives the round
/// trip — and any worker can run any job.
enum ShardJob {
    /// Phase 1: hash and bucket one chunk of the incoming batch against a
    /// frozen interner snapshot.
    Route(RouteChunk, Arc<Interner>),
    /// Phase 2: ingest the chunk-ordered sub-partitions addressed to one
    /// shard.
    Ingest(Shard, Subs),
    /// Flush every stream the shard owns.
    Flush(Shard),
    /// Answer a control-plane snapshot of the analyses for the stream in
    /// the given slot of the shard.
    Snapshot(Shard, u32, Arc<Vec<Analysis>>),
}

/// A job's answer, mirroring [`ShardJob`] variant for variant. Moved
/// state comes back so the engine can reinstall slabs and recycle scratch
/// capacity.
enum ShardReply {
    /// The routed chunk: `hashes`, `buckets`, and `misses` filled.
    Routed(RouteChunk),
    /// The shard slab back, the batch outcome, and the sub-partition list
    /// (cleared by the engine on restore; every buffer keeps its capacity).
    Ingested(Shard, ShardOutcome, Subs),
    /// The flushed shard slab and its outcome.
    Flushed(Shard, ShardOutcome),
    /// The shard slab back plus the snapshot's answer.
    Snapped(Shard, Result<Vec<Report>, DistError>),
}

/// Typed unpacking, one accessor per variant: the payload, or `None` for
/// any other variant — which [`Engine::run_jobs`] turns into its protocol
/// error.
impl ShardReply {
    fn routed(self) -> Option<RouteChunk> {
        match self {
            ShardReply::Routed(chunk) => Some(chunk),
            _ => None,
        }
    }

    fn ingested(self) -> Option<(Shard, ShardOutcome, Subs)> {
        match self {
            ShardReply::Ingested(shard, outcome, subs) => Some((shard, outcome, subs)),
            _ => None,
        }
    }

    fn flushed(self) -> Option<(Shard, ShardOutcome)> {
        match self {
            ShardReply::Flushed(shard, outcome) => Some((shard, outcome)),
            _ => None,
        }
    }

    fn snapped(self) -> Option<(Shard, Result<Vec<Report>, DistError>)> {
        match self {
            ShardReply::Snapped(shard, snapshot) => Some((shard, snapshot)),
            _ => None,
        }
    }
}

/// The one shard-job handler: the persistent workers' closure and the
/// inline path alike, so a job's answer never depends on where it ran.
fn handle(job: ShardJob) -> ShardReply {
    match job {
        ShardJob::Route(mut chunk, interner) => {
            route_chunk(&mut chunk, &interner);
            ShardReply::Routed(chunk)
        }
        ShardJob::Ingest(mut shard, subs) => {
            let outcome = shard.ingest_parts(&subs);
            ShardReply::Ingested(shard, outcome, subs)
        }
        ShardJob::Flush(mut shard) => {
            let outcome = shard.flush();
            ShardReply::Flushed(shard, outcome)
        }
        ShardJob::Snapshot(mut shard, slot, analyses) => {
            let snapshot = shard.snapshot(slot, &analyses);
            ShardReply::Snapped(shard, snapshot)
        }
    }
}

/// The deterministic error for a job answered with a mismatched reply
/// variant — unreachable while [`handle`] mirrors every job and the
/// courier ring is FIFO, surfaced as an error rather than a panic to keep
/// the no-panic discipline.
#[cold]
fn protocol_error() -> DistError {
    DistError::BadParameter {
        reason: "internal: shard job answered with a mismatched reply variant".into(),
    }
}

/// Configures an [`Engine`]; obtained from [`Engine::builder`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    n: usize,
    seed: u64,
    shards: usize,
    window: Window,
    analyses: Vec<Analysis>,
    drift_eps: f64,
}

impl EngineBuilder {
    /// Seeds the engine (default 0). Every stream samples with the derived
    /// seed [`Engine::stream_seed`]`(seed, key)`, so the base seed plus
    /// the key fully determine a stream's randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of worker shards stream keys are hashed onto (default 1).
    /// More shards parallelize the per-window analysis work across cores;
    /// the per-stream output is bit-identical for every shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Uses tumbling windows of `span` records per stream — the default,
    /// with a span of 100 000.
    pub fn tumbling(mut self, span: u64) -> Self {
        self.window = Window::Tumbling { span };
        self
    }

    /// Uses sliding windows covering `span` records, completing every
    /// `step` records (`step` must divide `span`), per stream.
    pub fn sliding(mut self, span: u64, step: u64) -> Self {
        self.window = Window::Sliding { span, step };
        self
    }

    /// Sets the window policy explicitly.
    pub fn window(mut self, window: Window) -> Self {
        self.window = window;
        self
    }

    /// Sets the standing batch every stream runs on every completed
    /// window. The batch's shared [`SamplePlan`] shapes every stream's
    /// reservoir lanes, so it must be non-empty.
    pub fn analyses(mut self, batch: impl IntoIterator<Item = Analysis>) -> Self {
        self.analyses = batch.into_iter().collect();
        self
    }

    /// Appends one request to the standing batch.
    pub fn analysis(mut self, request: impl Into<Analysis>) -> Self {
        self.analyses.push(request.into());
        self
    }

    /// Accuracy parameter of the per-stream window-to-window `ℓ₂` drift
    /// check (default 0.25).
    pub fn drift_eps(mut self, eps: f64) -> Self {
        self.drift_eps = eps;
        self
    }

    /// Builds the engine: validates the configuration once (shard count,
    /// standing batch, window policy, lane shape) so that per-stream state
    /// creation on first contact with a new key is cheap and infallible,
    /// and spawns the persistent worker pool (one parked thread per shard;
    /// none for a single-shard engine, which always runs inline).
    pub fn build(self) -> Result<Engine, DistError> {
        if self.shards == 0 {
            return Err(DistError::BadParameter {
                reason: "engine needs at least one shard (1 = unsharded)".into(),
            });
        }
        // The monitor's validator, shared verbatim: an engine stream is a
        // monitor, so what is invalid there must be invalid here.
        let (plan, shape) = resolve_config(self.n, self.window, &self.analyses, self.drift_eps)?;
        let mut shards = Vec::with_capacity(self.shards);
        shards.resize_with(self.shards, Shard::default);
        let cfg = Arc::new(EngineConfig {
            seed: self.seed,
            shape,
            analyses: Arc::new(self.analyses),
            plan,
            drift_eps: self.drift_eps,
        });
        let mut engine = Engine {
            cfg,
            ring: Ring::new(self.shards),
            shards,
            workers: Vec::new(),
            interner: Arc::new(Interner::new()),
            parts: Vec::new(),
            route: Vec::new(),
            gather: Vec::new(),
            busy: Vec::new(),
            outcomes: Vec::new(),
            stashed: Vec::new(),
            fleet_base: FleetSummary::new(),
        };
        engine.spawn_pool();
        Ok(engine)
    }
}

/// A keyed multi-stream ingest engine: [`Monitor`]
/// semantics per stream key, scaled across a shared-nothing pool of worker
/// shards. See the [module docs](self) for the architecture, the
/// allocation-free batch pipeline, and the sharding-is-semantics-free
/// contract.
pub struct Engine {
    cfg: Arc<EngineConfig>,
    /// Consistent-hash routing: consulted at key debut, [`Engine::shard_of`]
    /// and [`Engine::resize`] only — interned keys carry their coordinates.
    ring: Ring,
    shards: Vec<Shard>,
    /// Persistent workers, one per shard (none for a 1-shard engine).
    /// Jobs ride them round-robin — shard slabs move by value, so no
    /// worker is tied to a shard; dropping the engine parks-then-joins
    /// them.
    workers: Vec<Courier<ShardJob, ShardReply>>,
    /// The key interner, shared read-only with in-flight route jobs. The
    /// engine mutates it through `Arc::make_mut` only between batches,
    /// when no route job holds a clone — so the copy-on-write never
    /// actually copies.
    interner: Arc<Interner>,
    /// Per-shard partition scratch: `(slot, value)` records, reused across
    /// batches (round-tripped through the jobs to keep capacity). Holds
    /// the debut (miss) records of a batch — the bulk rides the route
    /// chunks' buckets — and the records of a single-stream
    /// [`Engine::ingest`].
    parts: Vec<Vec<(u32, usize)>>,
    /// Route-chunk scratch: `Courier::DEPTH × workers` chunks so every
    /// worker's ring pipelines two route jobs (one chunk for a
    /// single-shard engine).
    route: Vec<RouteChunk>,
    /// Per-shard sub-partition gather lists (the `subs` vector shipped
    /// with each `ShardJob::Ingest`), reused across batches.
    gather: Vec<Subs>,
    /// Indices of the shards busy in the current call; job `j` of a
    /// shard fan-out works on shard `busy[j]`.
    busy: Vec<u32>,
    /// Per-call shard outcomes, drained by [`Engine::settle`].
    outcomes: Vec<ShardOutcome>,
    /// Reports computed by healthy streams during a call that returned an
    /// error for some *other* stream. Streams are independent, so those
    /// reports are valid and must not be lost — they are delivered (in
    /// sorted position) by the next successful
    /// [`ingest_batch`](Engine::ingest_batch) or [`flush`](Engine::flush).
    stashed: Vec<WindowReport>,
    /// Fleet partials retired by past [`Engine::resize`] calls (each
    /// resize folds every old shard's partial here before redistributing
    /// its slots). [`Engine::fleet_report`] merges this base with every
    /// live shard's partial.
    fleet_base: FleetSummary,
}

impl Engine {
    /// Starts configuring an engine over the domain `[0, n)` (shared by
    /// every stream — keyed streams of differing domains belong in
    /// separate engines).
    pub fn builder(n: usize) -> EngineBuilder {
        EngineBuilder {
            n,
            seed: 0,
            shards: 1,
            window: Window::Tumbling { span: 100_000 },
            analyses: Vec::new(),
            drift_eps: 0.25,
        }
    }

    /// Minimum batch size (in records) at which a multi-shard engine
    /// routes in parallel. Below this, [`Engine::ingest_batch`] routes the
    /// batch as one chunk on the caller thread: waking the worker ring
    /// costs more than the hashing it would spread. Public so callers
    /// sizing their feed chunks (the CLI uses `4096 × shards`) can reason
    /// about who does the hashing; the output is bit-identical either way.
    pub const PARALLEL_ROUTE_MIN: usize = 2048;

    /// The seed stream `key` samples with under base seed `base`: the
    /// SplitMix64 stream of the key's deterministic FNV-1a hash. A
    /// dedicated [`Monitor`] seeded with this
    /// value (and tagged via
    /// [`MonitorBuilder::stream`](crate::monitor::MonitorBuilder::stream))
    /// reproduces the engine's reports for that stream bit for bit.
    pub fn stream_seed(base: u64, key: &str) -> u64 {
        stream_seed(base, key_hash(key))
    }

    /// Domain size records must lie in.
    pub fn domain_size(&self) -> usize {
        self.cfg.shape.domain_size()
    }

    /// The engine's base seed.
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of distinct stream keys seen so far.
    pub fn streams(&self) -> usize {
        self.interner.entries.len()
    }

    /// Per-stream `(key, records seen)` totals in **debut order** —
    /// served straight from the interner slab and each stream's state, so
    /// callers (the `STATS` control plane, `examples/fleet_monitor.rs`)
    /// never recompute totals from window reports.
    pub fn stream_seen(&self) -> Vec<(&str, u64)> {
        self.interner
            .entries
            .iter()
            .map(|e| {
                let seen = self
                    .shards
                    .get(e.shard as usize)
                    .and_then(|s| s.slots.get(e.slot as usize))
                    .map_or(0, |s| s.monitor.seen());
                (&*e.key, seen)
            })
            .collect()
    }

    /// All stream keys seen so far, in **debut order** — the order in
    /// which each key's first record reached the engine, which is
    /// independent of shard count and stable across calls. Borrowed
    /// straight from the interner's slab; nothing is re-sorted or
    /// re-hashed per call.
    pub fn stream_keys(&self) -> Vec<&str> {
        self.interner.entries.iter().map(|e| &*e.key).collect()
    }

    /// Total records ingested across all streams.
    pub fn seen(&self) -> u64 {
        self.monitors().map(|s| s.seen()).sum()
    }

    /// Total completed windows reported across all streams.
    pub fn windows(&self) -> u64 {
        self.monitors().map(|s| s.windows()).sum()
    }

    /// The shared plan shaping every stream's lanes.
    pub fn plan(&self) -> SamplePlan {
        self.cfg.plan
    }

    /// The per-stream window policy.
    pub fn window(&self) -> Window {
        self.cfg.shape.window()
    }

    /// The standing batch every stream runs.
    pub fn analyses(&self) -> &[Analysis] {
        &self.cfg.analyses
    }

    /// Read access to one stream's monitor (e.g. to check `seen` or
    /// probe [`drift`](Monitor::drift) for a single tenant).
    pub fn stream_state(&self, key: &str) -> Option<&Monitor> {
        self.slot(key).map(|s| &s.monitor)
    }

    /// The shard index `key` routes to on the consistent-hash ring. Pure
    /// in `(key, shard count)`: independent of debut order, and stable
    /// under [`Engine::resize`] for every key the resize did not migrate.
    pub fn shard_of(&self, key: &str) -> usize {
        self.ring.owner(key_hash(key)) as usize
    }

    /// `key`'s interned `(shard, slot)` coordinates, if it has debuted.
    fn coordinates(&self, key: &str) -> Option<(usize, u32)> {
        let (_, entry) = self.interner.lookup(key.as_bytes(), key_hash(key))?;
        Some((entry.shard as usize, entry.slot))
    }

    /// `key`'s stream slot, if it has debuted.
    fn slot(&self, key: &str) -> Option<&StreamSlot> {
        let (shard, slot) = self.coordinates(key)?;
        self.shards.get(shard)?.slots.get(slot as usize)
    }

    /// Resolves `key` to its `(shard, slot)` coordinates, creating the
    /// stream's slot (and state machine) on debut. `hash` is the key's
    /// FNV-1a hash, computed once by the route job and reused here for the
    /// lookup, the ring owner, *and* the cached entry (the "hash computed
    /// once" contract). Takes raw bytes so the debut pass reads keys out
    /// of the chunk arena; every key arrives as a `&str`, so the lossy
    /// decode at debut is exact. Steady state touches no `String`.
    fn intern(&mut self, key: &[u8], hash: u64) -> (usize, u32) {
        if let Some((_, entry)) = self.interner.lookup(key, hash) {
            return (entry.shard as usize, entry.slot);
        }
        let key: Arc<str> = Arc::from(String::from_utf8_lossy(key));
        let shard_idx = self.ring.owner(hash) as usize;
        // lint:allow(checked-indexing): ring owners are < shards.len() by construction
        let shard = &mut self.shards[shard_idx];
        let slot = shard.slots.len() as u32;
        // The interner assigns ids densely in debut order, so this key's
        // id is the current entry count.
        let debut = self.interner.entries.len() as u32;
        shard.slots.push(StreamSlot {
            key: Arc::clone(&key),
            monitor: self.cfg.new_monitor(&key),
            debut,
            alarmed: false,
        });
        shard.fleet.observe_debut();
        // Debut is a cold path and runs with no route job in flight, so
        // the Arc is unique and make_mut mutates in place (no clone).
        Arc::make_mut(&mut self.interner).insert(key, hash, shard_idx as u32, slot);
        (shard_idx, slot)
    }

    /// Spawns the persistent worker pool — one parked thread per shard
    /// running [`handle`] behind a bounded two-deep mailbox ring; none for
    /// a single-shard engine, whose jobs all run inline — and sizes the
    /// batch scratch to match: a partition and gather list per shard,
    /// `Courier::DEPTH` route chunks per worker (at least one). Any old
    /// workers park, join, and drop first.
    fn spawn_pool(&mut self) {
        let shards = self.shards.len();
        self.workers = if shards > 1 {
            (0..shards)
                .map(|i| Courier::spawn(&format!("khist-shard-{i}"), handle))
                .collect()
        } else {
            Vec::new()
        };
        let chunks = (self.workers.len() * Courier::<ShardJob, ShardReply>::DEPTH).max(1);
        self.route.clear();
        self.route.resize_with(chunks, RouteChunk::default);
        self.parts.clear();
        self.parts.resize_with(shards, Vec::new);
        self.gather.clear();
        self.gather.resize_with(shards, Vec::new);
        self.busy.clear();
    }

    /// Re-routes the pool onto `shards` shards, **migrating only the
    /// streams whose ring owner changed** — the point of consistent
    /// hashing: growing N→N+1 moves ~1/(N+1) of live streams (bounded at
    /// 2/(N+1), property-tested in `tests/engine_ring.rs`) instead of the
    /// (N-1)/N a `hash mod N` re-key would. Migration moves each stream's
    /// [`Monitor`] between shard slabs without touching its contents,
    /// so per-stream reports are bit-identical across any resize history.
    /// The worker pool is respawned for the new count (old workers park,
    /// join, and drop first). Returns how many streams moved.
    pub fn resize(&mut self, shards: usize) -> Result<usize, DistError> {
        if shards == 0 {
            return Err(DistError::BadParameter {
                reason: "engine needs at least one shard (1 = unsharded)".into(),
            });
        }
        if shards == self.shards.len() {
            return Ok(0);
        }
        let ring = Ring::new(shards);
        // Drain every shard's slab; donors[shard][slot] holds the stream
        // until its new owner claims it (debut order = entry order, so
        // claims arrive in increasing slot order per donor).
        let old = std::mem::take(&mut self.shards);
        let fleet_base = &mut self.fleet_base;
        let mut donors: Vec<Vec<Option<StreamSlot>>> = old
            .into_iter()
            .map(|s| {
                // A shard's fleet partial outlives the shard: fold it into
                // the engine-level base before the slab is redistributed,
                // so the rollup is invariant under any resize history.
                fleet_base.merge(&s.fleet);
                s.slots.into_iter().map(Some).collect()
            })
            .collect();
        let mut fresh: Vec<Shard> = Vec::with_capacity(shards);
        fresh.resize_with(shards, Shard::default);
        let mut moved = 0usize;
        // No route job is in flight between batches, so the Arc is unique
        // and make_mut mutates the interner in place (no clone).
        for entry in &mut Arc::make_mut(&mut self.interner).entries {
            let slot = donors
                .get_mut(entry.shard as usize)
                .and_then(|d| d.get_mut(entry.slot as usize))
                .and_then(Option::take);
            let Some(slot) = slot else {
                continue; // unreachable: interner coordinates index live slots
            };
            let owner = ring.owner(entry.hash);
            if owner != entry.shard {
                moved += 1;
            }
            let Some(dest) = fresh.get_mut(owner as usize) else {
                continue; // unreachable: ring owners are < shards by construction
            };
            entry.shard = owner;
            entry.slot = dest.slots.len() as u32;
            dest.slots.push(slot);
        }
        self.shards = fresh;
        self.ring = ring;
        self.spawn_pool();
        Ok(moved)
    }

    /// Answers an on-demand sub-batch from one stream's *current*
    /// (possibly partial) window — "what does tenant X look like right
    /// now", mid-window, without waiting for the window to complete and
    /// without disturbing ingestion or the drift baseline. The query is
    /// one job on the owning shard, run through the same fan-out helper
    /// as a batch; the sample spend is folded into the stream's ledger.
    ///
    /// The batch may be any sub-batch whose requirements fit the standing
    /// plan — the frozen lanes cannot serve a larger draw (that errors,
    /// never triggers a fresh draw). Unknown keys error.
    pub fn snapshot(
        &mut self,
        key: &str,
        analyses: &[Analysis],
    ) -> Result<Vec<Report>, DistError> {
        let (shard, slot) = self
            .coordinates(key)
            .ok_or_else(|| DistError::BadParameter {
                reason: format!("unknown stream key '{key}'"),
            })?;
        self.busy.clear();
        self.busy.push(shard as u32);
        let analyses = Arc::new(analyses.to_vec());
        // Overwritten by the one job's reply: run_jobs only returns Ok
        // once every job's reply has been taken.
        let mut answer = Ok(Vec::new());
        self.run_jobs(
            1,
            |engine, j| ShardJob::Snapshot(engine.take_busy(j), slot, Arc::clone(&analyses)),
            ShardReply::snapped,
            |engine, j, (shard, snapshot)| {
                engine.restore_busy(j, shard);
                answer = snapshot;
            },
        )?;
        answer
    }

    /// One stream's retained ledger: per-label lifetime totals (`"draw"`
    /// plus each analysis name — samples and wall seconds accumulated over
    /// every completed window and [`Engine::snapshot`] of the stream).
    /// Bounded memory: one entry per label, however long the stream runs.
    /// `None` for keys the engine has never seen.
    pub fn ledger(&self, key: &str) -> Option<&[LedgerEntry]> {
        self.slot(key).map(|s| s.monitor.ledger())
    }

    /// Ingests records for a single stream in arrival order, reporting the
    /// stream's windows that completed during the batch. The records are
    /// one shard job on the stream's shard — run inline on the calling
    /// thread, since one stream cannot be parallelized without changing
    /// its output — taking the same per-stream step as a batch (ledger
    /// and fleet partial included). Never returns other streams' stashed
    /// reports — those wait for the next
    /// [`ingest_batch`](Engine::ingest_batch) / [`flush`](Engine::flush).
    pub fn ingest(&mut self, key: &str, records: &[usize]) -> Result<Vec<WindowReport>, DistError> {
        let (shard, slot) = self.intern(key.as_bytes(), key_hash(key));
        // lint:allow(checked-indexing): intern returns an in-pool shard index
        self.parts[shard].extend(records.iter().map(|&value| (slot, value)));
        self.ingest_shards(0)?;
        // One busy shard holding one stream: at most one outcome, with at
        // most one error.
        let mut outcome = self.outcomes.pop().unwrap_or_default();
        match outcome.errors.pop() {
            Some((_, e)) => Err(e),
            None => Ok(outcome.reports),
        }
    }

    /// The fleet-wide rollup: every live shard's partial (plus the
    /// partials retired by past [`resize`](Engine::resize) calls) folded
    /// into one [`FleetReport`], with top-K entries resolved through the
    /// debut-ordered key table. Composed purely from the window reports
    /// the shards already produced — **zero extra oracle draws** — and
    /// bit-identical for every shard count, batch partitioning, and
    /// resize history, because the fold is associative and commutative
    /// (see [`khist_fleet::FleetSummary::merge`]).
    pub fn fleet_report(&self) -> FleetReport {
        let mut total = self.fleet_base.clone();
        for shard in &self.shards {
            total.merge(&shard.fleet);
        }
        total.report(&self.stream_keys())
    }

    /// Ingests a batch of keyed records in arrival order — the engine's
    /// main entry point, the two-phase shuffle of the [module docs](self).
    /// Phase 1 routes the batch in chunks (one, on the caller thread, below
    /// [`Engine::PARALLEL_ROUTE_MIN`] records or on a single-shard engine;
    /// `Courier::DEPTH` per worker otherwise), hashing each record once —
    /// the same FNV-1a value feeds the interner probe, the ring lookup,
    /// and the cached entry — and bucketing it per (chunk, shard). Phase 2
    /// hands each busy shard its sub-partitions in chunk order, restoring
    /// every stream's global arrival order (hence bit-identity), and
    /// ingests. Completed windows come back sorted by `(stream, window
    /// id)` — a deterministic interleaving with every stream's reports in
    /// window order.
    ///
    /// A warm call — every key interned, no window completing — performs
    /// zero heap allocations (see the [module docs](self)).
    ///
    /// Streams fail *independently*: a record outside `[0, n)` (or a
    /// failing standing analysis) stops only its own stream — exactly
    /// what would happen to a dedicated [`Monitor`]
    /// on that stream — while every other stream ingests its full slice.
    /// When any stream failed, the call returns the error of the
    /// lexicographically smallest failing key (a deterministic choice for
    /// every shard count), and the reports the healthy streams computed
    /// during the call are *not* lost: they are delivered, in sorted
    /// position, by the next successful `ingest_batch` or
    /// [`flush`](Engine::flush).
    pub fn ingest_batch<K: AsRef<str>>(
        &mut self,
        records: &[(K, usize)],
    ) -> Result<Vec<WindowReport>, DistError> {
        let chunks = self.route(records)?;
        self.ingest_shards(chunks)?;
        self.settle()
    }

    /// Phase 1: slice the batch into route chunks — one below
    /// [`Engine::PARALLEL_ROUTE_MIN`] records, else every scratch chunk
    /// (`Courier::DEPTH` per worker, so each worker buckets two chunks back
    /// to back) — and run one route job per chunk; the caller thread only
    /// memcpys each chunk's keys into its arena just before submitting it.
    /// Once the chunks are back, the interner `Arc` is unique again and
    /// the (cold) debut pass interns misses. Returns the chunk count.
    fn route<K: AsRef<str>>(&mut self, records: &[(K, usize)]) -> Result<usize, DistError> {
        let lanes = if records.len() < Self::PARALLEL_ROUTE_MIN {
            1
        } else {
            self.route.len()
        };
        let per = records.len().div_ceil(lanes).max(1);
        let chunks = records.len().div_ceil(per);
        let shards = self.shards.len();
        self.run_jobs(
            chunks,
            |engine, c| {
                // lint:allow(checked-indexing): c < chunks = ⌈len / per⌉, so c·per < len
                let slice = &records[c * per..((c + 1) * per).min(records.len())];
                // lint:allow(checked-indexing): c < chunks <= lanes <= route.len()
                let chunk = &mut engine.route[c];
                chunk.fill(slice, shards);
                ShardJob::Route(std::mem::take(chunk), Arc::clone(&engine.interner))
            },
            ShardReply::routed,
            // lint:allow(checked-indexing): c < chunks <= route.len()
            |engine, c, chunk| engine.route[c] = chunk,
        )?;
        for c in 0..chunks {
            self.absorb_misses(c);
        }
        Ok(chunks)
    }

    /// The debut pass: records whose keys missed the frozen interner
    /// snapshot are interned serially — in global arrival order (chunk
    /// order, then in-chunk order), which fixes debut numbering for every
    /// chunking — and pushed onto their shard's partition. A key missing
    /// from the snapshot misses in *every* chunk, so all its records
    /// funnel through here in order. Keys are read from the chunk's arena,
    /// which the route job just streamed through cache. Cold: a warm batch
    /// has no misses and skips straight through.
    fn absorb_misses(&mut self, c: usize) {
        // lint:allow(checked-indexing): c < chunks <= route.len()
        let chunk = std::mem::take(&mut self.route[c]);
        for &(i, hash) in &chunk.misses {
            // lint:allow(checked-indexing): misses index the chunk's spans
            let (start, end, value) = chunk.spans[i];
            // lint:allow(checked-indexing): spans index the chunk's arena
            let (shard, slot) = self.intern(&chunk.arena[start..end], hash);
            // lint:allow(checked-indexing): intern returns an in-pool shard index
            self.parts[shard].push((slot, value));
        }
        // lint:allow(checked-indexing): same chunk as above
        self.route[c] = chunk;
    }

    /// Phase 2: find the busy shards and run one ingest job per busy
    /// shard over its chunk-ordered sub-partition list (the first
    /// `chunks` route chunks' buckets, then its partition), pushing each
    /// shard's outcome in shard order — deterministic regardless of which
    /// worker finishes first.
    fn ingest_shards(&mut self, chunks: usize) -> Result<(), DistError> {
        self.busy.clear();
        for s in 0..self.shards.len() {
            let mut buckets = self.route.iter().take(chunks).map(|c| c.buckets.get(s));
            let busy = self.parts.get(s).is_some_and(|p| !p.is_empty())
                || buckets.any(|b| b.is_some_and(|b| !b.is_empty()));
            if busy {
                self.busy.push(s as u32);
            }
        }
        self.run_jobs(
            self.busy.len(),
            |engine, j| {
                let subs = engine.build_subs(j, chunks);
                ShardJob::Ingest(engine.take_busy(j), subs)
            },
            ShardReply::ingested,
            |engine, j, (shard, outcome, subs)| {
                engine.restore_busy(j, shard);
                engine.restore_subs(j, subs);
                engine.outcomes.push(outcome);
            },
        )
    }

    /// Assembles the sub-partition list for busy shard `busy[j]`: the
    /// first `chunks` route chunks' buckets in chunk order (restoring
    /// global arrival order), then the engine's debut partition last.
    /// Every move is a `mem::take`; nothing is copied.
    fn build_subs(&mut self, j: usize, chunks: usize) -> Subs {
        // lint:allow(checked-indexing): j < busy.len(); busy holds in-pool shard indices
        let s = self.busy[j] as usize;
        // lint:allow(checked-indexing): gather is sized to the pool
        let mut subs = std::mem::take(&mut self.gather[s]);
        for chunk in self.route.iter_mut().take(chunks) {
            if let Some(bucket) = chunk.buckets.get_mut(s) {
                subs.push(std::mem::take(bucket));
            }
        }
        // lint:allow(checked-indexing): parts is sized to the pool
        subs.push(std::mem::take(&mut self.parts[s]));
        subs
    }

    /// Returns busy shard `busy[j]`'s sub-partition buffers to their
    /// scratch homes — the last one to its partition, the rest to the
    /// route chunks' buckets in chunk order — cleared but with capacity
    /// intact, and parks the emptied list itself back in its gather slot.
    fn restore_subs(&mut self, j: usize, mut subs: Subs) {
        // lint:allow(checked-indexing): j < busy.len(); busy holds in-pool shard indices
        let s = self.busy[j] as usize;
        let mut buffers = subs.drain(..);
        if let Some(mut part) = buffers.next_back() {
            part.clear();
            // lint:allow(checked-indexing): parts is sized to the pool
            self.parts[s] = part;
        }
        for (chunk, mut bucket) in self.route.iter_mut().zip(buffers) {
            bucket.clear();
            if let Some(home) = chunk.buckets.get_mut(s) {
                *home = bucket;
            }
        }
        // lint:allow(checked-indexing): gather is sized to the pool
        self.gather[s] = subs;
    }

    /// Moves busy shard `busy[j]`'s slab out for its job.
    fn take_busy(&mut self, j: usize) -> Shard {
        // lint:allow(checked-indexing): j < busy.len(); busy holds in-pool shard indices
        std::mem::take(&mut self.shards[self.busy[j] as usize])
    }

    /// Reinstalls busy shard `busy[j]`'s slab from its job's reply.
    fn restore_busy(&mut self, j: usize, shard: Shard) {
        // lint:allow(checked-indexing): j < busy.len(); busy holds in-pool shard indices
        self.shards[self.busy[j] as usize] = shard;
    }

    /// Flushes every stream: completed-but-uncollected windows, then each
    /// stream's partial tail (when it holds records) — one flush job per
    /// shard holding streams, fanned out like
    /// [`ingest_batch`](Engine::ingest_batch), sorted by `(stream, window
    /// id)`, with the same independent-failure contract.
    pub fn flush(&mut self) -> Result<Vec<WindowReport>, DistError> {
        self.busy.clear();
        for (i, shard) in self.shards.iter().enumerate() {
            if !shard.slots.is_empty() {
                self.busy.push(i as u32);
            }
        }
        self.run_jobs(
            self.busy.len(),
            |engine, j| ShardJob::Flush(engine.take_busy(j)),
            ShardReply::flushed,
            |engine, j, (shard, outcome)| {
                engine.restore_busy(j, shard);
                engine.outcomes.push(outcome);
            },
        )?;
        self.settle()
    }

    /// The one fan-out helper every shard operation goes through: job `j`
    /// is built by `make`, run, unpacked by `unpack`, and handed to `take`,
    /// in job order. A lone job, or any job on an engine without workers,
    /// runs inline through [`handle`]. More jobs go round-robin, job `j` to
    /// worker `j % workers`; job `j` is submitted only after job
    /// `j − DEPTH × workers` (the oldest on that same FIFO ring) is
    /// collected, so no ring ever holds more than `Courier::DEPTH`.
    ///
    /// A reply of the wrong variant is the one protocol violation: the
    /// other replies are still collected and taken, so no ring is left
    /// holding work, and the call then fails with [`protocol_error`].
    fn run_jobs<T>(
        &mut self,
        count: usize,
        mut make: impl FnMut(&mut Engine, usize) -> ShardJob,
        unpack: fn(ShardReply) -> Option<T>,
        mut take: impl FnMut(&mut Engine, usize, T),
    ) -> Result<(), DistError> {
        let mut mismatched = false;
        let mut deliver = |engine: &mut Engine, j: usize, reply: ShardReply| match unpack(reply) {
            Some(payload) => take(engine, j, payload),
            None => mismatched = true,
        };
        let workers = self.workers.len();
        if count <= 1 || workers == 0 {
            for j in 0..count {
                let reply = handle(make(self, j));
                deliver(self, j, reply);
            }
        } else {
            let window = workers * Courier::<ShardJob, ShardReply>::DEPTH;
            for j in 0..count {
                if let Some(done) = j.checked_sub(window) {
                    // lint:allow(checked-indexing): done % workers < workers == workers.len()
                    let reply = self.workers[done % workers].collect();
                    deliver(self, done, reply);
                }
                let job = make(self, j);
                // lint:allow(checked-indexing): j % workers < workers == workers.len()
                self.workers[j % workers].submit(job);
            }
            for done in count.saturating_sub(window)..count {
                // lint:allow(checked-indexing): done % workers < workers == workers.len()
                let reply = self.workers[done % workers].collect();
                deliver(self, done, reply);
            }
        }
        if mismatched {
            return Err(protocol_error());
        }
        Ok(())
    }

    /// [`Engine::flush`], reordered into stream **debut order** (the
    /// order each key's first record reached the engine) instead of the
    /// lexicographic `(stream, window)` order. Within a stream, windows
    /// stay in id order (the reorder is a stable sort on the debut
    /// index). This is the order live tools emit end-of-stream tails in:
    /// `khist watch --key-field` and `khist serve` both finish with it,
    /// so tail output lines up with the order streams appeared, not with
    /// key spelling.
    pub fn flush_debut_ordered(&mut self) -> Result<Vec<WindowReport>, DistError> {
        let mut tails = self.flush()?;
        tails.sort_by_key(|report| {
            report.stream.as_deref().map_or(u32::MAX, |key| {
                self.interner
                    .lookup(key.as_bytes(), key_hash(key))
                    .map_or(u32::MAX, |(id, _)| id)
            })
        });
        Ok(tails)
    }

    /// Merges the per-shard outcomes collected by the current call into
    /// its result. On full success, the computed reports — plus any
    /// reports stashed by an earlier failing call — come back sorted. When
    /// any stream failed, the healthy streams' reports are stashed for the
    /// next successful call and the error of the lexicographically
    /// smallest failing key is returned (deterministic for every shard
    /// count; worker completion order is not).
    fn settle(&mut self) -> Result<Vec<WindowReport>, DistError> {
        let mut reports = Vec::new();
        let mut first_error: Option<(Arc<str>, DistError)> = None;
        for outcome in self.outcomes.drain(..) {
            reports.extend(outcome.reports);
            for (key, e) in outcome.errors {
                let smaller = match &first_error {
                    Some((held, _)) => key < *held,
                    None => true,
                };
                if smaller {
                    first_error = Some((key, e));
                }
            }
        }
        if let Some((_, e)) = first_error {
            self.stashed.append(&mut reports);
            return Err(e);
        }
        reports.append(&mut self.stashed);
        Engine::sort_reports(&mut reports);
        Ok(reports)
    }

    /// The engine's deterministic output order: by stream key, then window
    /// id (every stream's reports stay in window order; the global
    /// interleaving is reproducible regardless of shard count or
    /// scheduling).
    fn sort_reports(reports: &mut [WindowReport]) {
        reports.sort_by(|a, b| {
            (a.stream.as_deref(), a.window).cmp(&(b.stream.as_deref(), b.window))
        });
    }

    fn monitors(&self) -> impl Iterator<Item = &Monitor> {
        self.shards
            .iter()
            .flat_map(|s| s.slots.iter().map(|slot| &slot.monitor))
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("domain_size", &self.domain_size())
            .field("seed", &self.cfg.seed)
            .field("shards", &self.shards.len())
            .field("streams", &self.streams())
            .field("window", &self.window())
            .field("standing_analyses", &self.cfg.analyses.len())
            .field("seen", &self.seen())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Learn, Monitor, TestL2, Uniformity};
    use khist_dist::generators;
    use rand::{rngs::StdRng, SeedableRng};

    fn standing() -> Vec<Analysis> {
        vec![
            Learn::k(3).eps(0.25).scale(0.05).into(),
            TestL2::k(3).eps(0.3).scale(0.05).into(),
            Uniformity::eps(0.3).scale(0.2).into(),
        ]
    }

    /// Interleaved keyed records over `keys`, round-robin with a keyed
    /// offset so streams differ.
    fn keyed_events(n: usize, count: usize, keys: &[&str], seed: u64) -> Vec<(String, usize)> {
        let p = generators::staircase(n, 3).unwrap();
        let values = p.sample_many(count, &mut StdRng::seed_from_u64(seed));
        values
            .into_iter()
            .enumerate()
            .map(|(i, v)| (keys[i % keys.len()].to_string(), v))
            .collect()
    }

    fn engine(shards: usize, span: u64) -> Engine {
        Engine::builder(64)
            .seed(11)
            .shards(shards)
            .tumbling(span)
            .analyses(standing())
            .build()
            .unwrap()
    }

    /// A dedicated monitor reproducing one engine stream, fed `records`.
    fn dedicated(key: &str, span: u64, records: &[usize]) -> Vec<WindowReport> {
        let mut monitor = Monitor::builder(64)
            .seed(Engine::stream_seed(11, key))
            .stream(key)
            .tumbling(span)
            .analyses(standing())
            .build()
            .unwrap();
        let mut want = monitor.ingest(records).unwrap();
        want.extend(monitor.flush().unwrap());
        want
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(
            Engine::builder(64).shards(0).analyses(standing()).build().is_err(),
            "zero shards"
        );
        assert!(Engine::builder(64).build().is_err(), "empty batch");
        assert!(Engine::builder(64)
            .analyses(standing())
            .drift_eps(1.5)
            .build()
            .is_err());
        assert!(Engine::builder(0).analyses(standing()).build().is_err());
    }

    #[test]
    fn keyed_ingest_routes_and_tags_streams() {
        let mut engine = engine(3, 1_000);
        let records = keyed_events(64, 4_000, &["api", "web"], 1);
        let reports = engine.ingest_batch(&records).unwrap();
        // 2 000 records per stream, span 1 000: two windows each, sorted
        // by (stream, window).
        assert_eq!(reports.len(), 4);
        let tags: Vec<(&str, u64)> = reports
            .iter()
            .map(|r| (r.stream.as_deref().unwrap(), r.window))
            .collect();
        assert_eq!(tags, [("api", 0), ("api", 1), ("web", 0), ("web", 1)]);
        assert_eq!(engine.streams(), 2);
        assert_eq!(engine.stream_keys(), ["api", "web"]);
        assert_eq!(engine.seen(), 4_000);
        assert_eq!(engine.windows(), 4);
        assert!(reports.iter().all(|r| r.reports.len() == standing().len()));
        // Per-stream state is inspectable.
        assert_eq!(engine.stream_state("api").unwrap().seen(), 2_000);
        assert!(engine.stream_state("nope").is_none());
    }

    #[test]
    fn stream_keys_come_back_in_debut_order() {
        // Debut order — not lexicographic, not shard order.
        let mut engine = engine(3, 1_000);
        engine.ingest("zeta", &[1]).unwrap();
        let batch = vec![
            ("mid".to_string(), 2usize),
            ("alpha".to_string(), 3),
            ("mid".to_string(), 4),
        ];
        engine.ingest_batch(&batch).unwrap();
        assert_eq!(engine.stream_keys(), ["zeta", "mid", "alpha"]);
        // Stable across calls and shard counts.
        let mut other = engine_with_shards_and_same_records();
        assert_eq!(other.stream_keys(), ["zeta", "mid", "alpha"]);
        fn engine_with_shards_and_same_records() -> Engine {
            let mut e = Engine::builder(64)
                .seed(11)
                .shards(1)
                .tumbling(1_000)
                .analyses(vec![
                    Learn::k(3).eps(0.25).scale(0.05).into(),
                    TestL2::k(3).eps(0.3).scale(0.05).into(),
                    Uniformity::eps(0.3).scale(0.2).into(),
                ])
                .build()
                .unwrap();
            e.ingest("zeta", &[1]).unwrap();
            let batch = vec![
                ("mid".to_string(), 2usize),
                ("alpha".to_string(), 3),
                ("mid".to_string(), 4),
            ];
            e.ingest_batch(&batch).unwrap();
            e
        }
        let _ = other.flush();
    }

    #[test]
    fn shard_count_never_changes_per_stream_output() {
        let keys = ["api", "web", "batch", "mobile", "edge"];
        let records = keyed_events(64, 10_000, &keys, 2);
        let run = |shards: usize| {
            let mut engine = engine(shards, 500);
            // Split across two calls to exercise batch boundaries.
            let mut reports = engine.ingest_batch(&records[..3_333]).unwrap();
            reports.extend(engine.ingest_batch(&records[3_333..]).unwrap());
            reports.extend(engine.flush().unwrap());
            reports
        };
        let single = run(1);
        for shards in [2, 3, 8] {
            let sharded = run(shards);
            // Same multiset of reports; per-stream subsequences identical.
            for key in keys {
                let of = |rs: &[WindowReport]| -> Vec<WindowReport> {
                    rs.iter()
                        .filter(|r| r.stream.as_deref() == Some(key))
                        .cloned()
                        .collect()
                };
                assert_eq!(of(&single), of(&sharded), "stream {key} @ {shards} shards");
            }
        }
    }

    #[test]
    fn engine_stream_matches_dedicated_monitor() {
        // The tentpole contract, unit-sized (the property test in
        // tests/engine_sharding.rs drives it harder): engine reports for a
        // key == dedicated Monitor with the derived seed and stream tag.
        let keys = ["tenant-a", "tenant-b", "tenant-c"];
        let records = keyed_events(64, 6_000, &keys, 3);
        let mut engine = engine(2, 700);
        let mut got = engine.ingest_batch(&records).unwrap();
        got.extend(engine.flush().unwrap());
        for key in keys {
            let mine: Vec<usize> = records
                .iter()
                .filter(|(k, _)| k == key)
                .map(|&(_, v)| v)
                .collect();
            let want = dedicated(key, 700, &mine);
            let stream_reports: Vec<WindowReport> = got
                .iter()
                .filter(|r| r.stream.as_deref() == Some(key))
                .cloned()
                .collect();
            assert_eq!(stream_reports, want, "stream {key}");
        }
    }

    #[test]
    fn single_stream_ingest_is_the_same_stream() {
        let records = keyed_events(64, 2_000, &["solo"], 4);
        let values: Vec<usize> = records.iter().map(|&(_, v)| v).collect();
        let mut a = engine(4, 900);
        let mut b = engine(4, 900);
        let mut via_single = a.ingest("solo", &values).unwrap();
        via_single.extend(a.flush().unwrap());
        let mut via_batch = b.ingest_batch(&records).unwrap();
        via_batch.extend(b.flush().unwrap());
        assert_eq!(via_single, via_batch);
        // Both entry points take the same per-stream step, so the retained
        // ledgers match too (labels and samples; seconds are wall time).
        let spend = |engine: &Engine| -> Vec<(String, usize)> {
            let ledger = engine.ledger("solo").unwrap();
            ledger.iter().map(|e| (e.label.clone(), e.samples)).collect()
        };
        assert_eq!(spend(&a).len(), 1 + standing().len(), "draw + one per analysis");
        assert_eq!(spend(&a), spend(&b));
    }

    #[test]
    fn duplicate_keys_within_one_batch_group_in_arrival_order() {
        // The same key appearing in many disjoint positions of one batch
        // must see its records in arrival order — bit-identical to a
        // dedicated monitor fed the same subsequence.
        // The keys slice repeats "dup" in disjoint positions, so every
        // round-robin pass scatters the key across the batch.
        let span = 500u64;
        let batch = keyed_events(64, 5_000, &["dup", "other", "dup", "dup", "other"], 2);
        for shards in [1usize, 2, 4] {
            let mut eng = engine(shards, span);
            let mut got = eng.ingest_batch(&batch).unwrap();
            got.extend(eng.flush().unwrap());
            for key in ["dup", "other"] {
                let mine: Vec<usize> = batch
                    .iter()
                    .filter(|(k, _)| k == key)
                    .map(|&(_, v)| v)
                    .collect();
                let want = dedicated(key, span, &mine);
                let stream_reports: Vec<WindowReport> = got
                    .iter()
                    .filter(|r| r.stream.as_deref() == Some(key))
                    .cloned()
                    .collect();
                assert_eq!(stream_reports, want, "stream {key} @ {shards} shards");
            }
        }
    }

    #[test]
    fn empty_batches_and_empty_slices_are_no_ops() {
        let mut eng = engine(2, 500);
        let empty: [(String, usize); 0] = [];
        assert!(eng.ingest_batch(&empty).unwrap().is_empty());
        assert_eq!(eng.streams(), 0);
        // An empty single-stream slice still debuts the key (a monitor
        // fed no records exists, with zero seen) but reports nothing.
        assert!(eng.ingest("quiet", &[]).unwrap().is_empty());
        assert_eq!(eng.streams(), 1);
        assert_eq!(eng.stream_state("quiet").unwrap().seen(), 0);
        // And an engine with streams but an empty batch stays warm.
        eng.ingest("quiet", &[1, 2, 3]).unwrap();
        assert!(eng.ingest_batch(&empty).unwrap().is_empty());
        assert_eq!(eng.seen(), 3);
    }

    #[test]
    fn debut_and_window_completion_in_the_same_batch() {
        // A key's very first batch immediately completes windows: the
        // debut path (slot creation) and the report path run in one call
        // and must still match a dedicated monitor bit for bit.
        let span = 250u64;
        let records: Vec<usize> = (0..1_000usize).map(|i| (i * 11) % 64).collect();
        for shards in [1usize, 2, 4] {
            let mut eng = engine(shards, span);
            // Prime the engine with another stream so the debuting key is
            // not the only slot in its shard.
            eng.ingest("primer", &[5, 6, 7]).unwrap();
            let batch: Vec<(String, usize)> = records
                .iter()
                .map(|&v| ("newcomer".to_string(), v))
                .collect();
            let mut got = eng.ingest_batch(&batch).unwrap();
            got.retain(|r| r.stream.as_deref() == Some("newcomer"));
            got.extend(
                eng.flush()
                    .unwrap()
                    .into_iter()
                    .filter(|r| r.stream.as_deref() == Some("newcomer")),
            );
            let want = dedicated("newcomer", span, &records);
            assert_eq!(got, want, "@ {shards} shards");
            assert_eq!(got.len(), 4, "four complete windows, no tail");
        }
    }

    #[test]
    fn errors_name_the_problem_and_keep_prior_records() {
        let mut engine = engine(2, 1_000);
        engine.ingest("ok", &[1, 2, 3]).unwrap();
        let err = engine.ingest("ok", &[99]).unwrap_err().to_string();
        assert!(err.contains("record 99"), "{err}");
        assert_eq!(engine.seen(), 3, "bad record must not count");
        // Batched path: a bad record stops only its own stream; every
        // other stream's records stay ingested.
        let batch = vec![("a".to_string(), 1usize), ("b".to_string(), 999)];
        let err = engine.ingest_batch(&batch).unwrap_err().to_string();
        assert!(err.contains("record 999"), "{err}");
        assert_eq!(engine.stream_state("a").unwrap().seen(), 1);
        assert_eq!(engine.stream_state("b").unwrap().seen(), 0);
    }

    #[test]
    fn healthy_streams_never_lose_reports_to_a_failing_neighbor() {
        // Stream "good" completes a window in the same call in which
        // stream "bad" hits an out-of-domain record. The call errors, but
        // good's already-computed report must surface on the next
        // successful call — and stay bit-identical to a dedicated monitor.
        let span = 500u64;
        let good_records: Vec<usize> = (0..span as usize).map(|i| (i * 7) % 64).collect();
        let mut batch: Vec<(String, usize)> = good_records
            .iter()
            .map(|&v| ("good".to_string(), v))
            .collect();
        batch.push(("bad".to_string(), 9_999));
        let mut engine = engine(2, span);
        let err = engine.ingest_batch(&batch).unwrap_err().to_string();
        assert!(err.contains("record 9999"), "{err}");
        // The stashed window arrives with the next successful call.
        let delivered = engine.flush().unwrap();
        let good: Vec<WindowReport> = delivered
            .iter()
            .filter(|r| r.stream.as_deref() == Some("good"))
            .cloned()
            .collect();
        assert_eq!(good.len(), 1, "window 0 delivered, not lost: {delivered:?}");
        let mut monitor = Monitor::builder(64)
            .seed(Engine::stream_seed(11, "good"))
            .stream("good")
            .tumbling(span)
            .analyses(standing())
            .build()
            .unwrap();
        let want = monitor.ingest(&good_records).unwrap();
        assert_eq!(good, want, "stashed report still bit-identical");
    }

    #[test]
    fn stream_seeds_differ_per_key_and_are_stable() {
        let a = Engine::stream_seed(7, "tenant-a");
        let b = Engine::stream_seed(7, "tenant-b");
        assert_ne!(a, b);
        assert_eq!(a, Engine::stream_seed(7, "tenant-a"), "derivation is pure");
        assert_ne!(a, Engine::stream_seed(8, "tenant-a"), "base seed matters");
    }

    #[test]
    fn flush_reports_partial_tails_for_every_stream() {
        let mut engine = engine(2, 1_000);
        let records = keyed_events(64, 900, &["x", "y", "z"], 5);
        assert!(engine.ingest_batch(&records).unwrap().is_empty());
        let tails = engine.flush().unwrap();
        assert_eq!(tails.len(), 3);
        assert!(tails.iter().all(|t| !t.complete && t.seen == 300));
        let keys: Vec<&str> = tails.iter().map(|t| t.stream.as_deref().unwrap()).collect();
        assert_eq!(keys, ["x", "y", "z"], "sorted by stream");
    }

    #[test]
    fn ring_owner_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 3, 8, 13] {
            let ring = Ring::new(shards);
            assert_eq!(ring.points.len(), shards * VNODES as usize);
            for i in 0..1_000u64 {
                let hash = key_hash(&format!("key-{i}"));
                let owner = ring.owner(hash);
                assert!((owner as usize) < shards);
                assert_eq!(owner, ring.owner(hash), "pure in the hash");
            }
        }
        // Degenerate single-shard ring: everything routes to shard 0.
        let solo = Ring::new(1);
        assert!((0..1_000u64).all(|h| solo.owner(h.wrapping_mul(0x9e37)) == 0));
    }

    #[test]
    fn snapshot_answers_mid_window_on_a_sharded_engine() {
        // 2 shards: the query is one job on the owning shard.
        let mut engine = engine(2, 10_000);
        let records = keyed_events(64, 5_000, &["api", "web"], 9);
        assert!(engine.ingest_batch(&records).unwrap().is_empty(), "mid-window");
        let sub = vec![Uniformity::eps(0.3).scale(0.2).into()];
        let reports = engine.snapshot("api", &sub).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].statistic.is_some());
        // Bit-identical to a dedicated monitor's snapshot of the same
        // records — the control plane is as semantics-free as ingest.
        let mine: Vec<usize> = records
            .iter()
            .filter(|(k, _)| k == "api")
            .map(|&(_, v)| v)
            .collect();
        let mut monitor = Monitor::builder(64)
            .seed(Engine::stream_seed(11, "api"))
            .stream("api")
            .tumbling(10_000)
            .analyses(standing())
            .build()
            .unwrap();
        monitor.ingest(&mine).unwrap();
        assert_eq!(monitor.snapshot(&sub).unwrap(), reports);
        // Unknown keys error; the engine stays usable.
        assert!(engine.snapshot("nope", &sub).is_err());
        assert_eq!(engine.stream_state("api").unwrap().seen(), 2_500);
    }

    #[test]
    fn ledger_retains_bounded_per_label_totals() {
        let mut engine = engine(2, 500);
        let records = keyed_events(64, 4_000, &["api", "web"], 4);
        engine.ingest_batch(&records).unwrap();
        // 4 windows per stream, but the ledger stays one entry per label.
        let ledger = engine.ledger("api").unwrap();
        let labels: Vec<&str> = ledger.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels.len(), 1 + standing().len(), "draw + one per analysis");
        assert!(labels.contains(&"draw"));
        let draw = ledger.iter().find(|e| e.label == "draw").unwrap();
        assert!(draw.samples > 0);
        // A snapshot's spend folds into the same totals (give the partial
        // window some records to freeze first).
        let before = draw.samples;
        engine
            .ingest_batch(&keyed_events(64, 600, &["api", "web"], 8))
            .unwrap();
        engine
            .snapshot("api", &[Uniformity::eps(0.3).scale(0.2).into()])
            .unwrap();
        let after = engine
            .ledger("api")
            .unwrap()
            .iter()
            .find(|e| e.label == "draw")
            .unwrap()
            .samples;
        assert!(after > before, "snapshot spend ledgered: {after} vs {before}");
        assert!(engine.ledger("nope").is_none());
    }

    #[test]
    fn stream_seen_reports_debut_ordered_totals() {
        let mut engine = engine(3, 1_000);
        engine.ingest("zeta", &[1, 2]).unwrap();
        engine
            .ingest_batch(&[("alpha".to_string(), 3usize), ("zeta".to_string(), 4)])
            .unwrap();
        assert_eq!(engine.streams(), 2);
        assert_eq!(engine.stream_seen(), [("zeta", 3), ("alpha", 1)]);
    }

    #[test]
    fn resize_migrates_states_not_semantics() {
        // Same records through a static 3-shard engine and through an
        // engine resized 1→3→2 mid-stream: per-stream reports identical.
        let keys = ["api", "web", "batch", "mobile", "edge", "iot"];
        let records = keyed_events(64, 12_000, &keys, 6);
        let mut baseline = engine(3, 500);
        let mut want = baseline.ingest_batch(&records).unwrap();
        want.extend(baseline.flush().unwrap());

        let mut live = engine(1, 500);
        let mut got = live.ingest_batch(&records[..4_000]).unwrap();
        let moved = live.resize(3).unwrap();
        assert!(moved <= live.streams(), "moved {moved} of {}", live.streams());
        got.extend(live.ingest_batch(&records[4_000..9_000]).unwrap());
        live.resize(2).unwrap();
        got.extend(live.ingest_batch(&records[9_000..]).unwrap());
        got.extend(live.flush().unwrap());

        for key in keys {
            let of = |rs: &[WindowReport]| -> Vec<WindowReport> {
                rs.iter()
                    .filter(|r| r.stream.as_deref() == Some(key))
                    .cloned()
                    .collect()
            };
            assert_eq!(of(&want), of(&got), "stream {key} across resizes");
        }
        // Coordinates, counters and ledgers survived the moves.
        assert_eq!(live.shards(), 2);
        assert_eq!(live.streams(), keys.len());
        for key in keys {
            assert_eq!(live.shard_of(key), {
                let (_, entry) = live.interner.lookup(key.as_bytes(), key_hash(key)).unwrap();
                entry.shard as usize
            });
            assert!(live.ledger(key).is_some());
        }
        assert!(live.resize(0).is_err());
        assert_eq!(live.resize(2).unwrap(), 0, "same-size resize is a no-op");
    }

    #[test]
    fn interner_survives_table_growth() {
        // Push well past the initial 64-bucket table so lookup keeps
        // resolving every key across several regrows.
        let mut eng = engine(4, 100_000);
        for i in 0..500usize {
            let key = format!("stream-{i}");
            eng.ingest(&key, &[i % 64]).unwrap();
        }
        assert_eq!(eng.streams(), 500);
        for i in 0..500usize {
            let key = format!("stream-{i}");
            let state = eng.stream_state(&key).unwrap();
            assert_eq!(state.seen(), 1, "{key}");
        }
        // Debut order is the numeric creation order.
        let keys = eng.stream_keys();
        assert_eq!(keys[0], "stream-0");
        assert_eq!(keys[499], "stream-499");
    }
}

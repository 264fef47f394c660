//! The persisted stores' incremental sync against the full walk it
//! replaced.
//!
//! `RunRegistry::sync_from` and `GeometryStore::sync_from` visit only
//! what an explorer's cache published since their last successful
//! sync. The contract pinned here is that this is invisible on disk:
//!
//! * after every step of seeded random interleavings of characterize,
//!   replay import, sync, plan change and a second explorer syncing
//!   into the same store, the file equals what the full walk (every
//!   cached entry not yet on disk, in key order) would have written;
//! * a sync racing four publishing threads loses nothing to its
//!   cursor;
//! * a failed append never advances the cursor: every later sync
//!   fails again instead of reporting nothing to do.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use coldtall::array::{Objective, OrgGeometry};
use coldtall::core::{CacheCursor, DesignPointKey, Explorer, MemoryConfig};
use coldtall::serve::{replay_file, GeometryStore, RunRegistry};
use coldtall::tech::ProcessNode;
use coldtall_rng::SmallRng;

fn temp_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("coldtall-sync-{tag}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// An explorer on a private metrics registry.
fn private_explorer() -> Explorer {
    Explorer::with_registry(
        ProcessNode::ptm_22nm_hp(),
        Objective::EnergyDelayProduct,
        &coldtall::obs::Registry::new(),
    )
}

/// The design points the random walks draw from: the study set and the
/// cryogenic STT-RAM region.
fn point_pool() -> Vec<MemoryConfig> {
    let mut pool = MemoryConfig::study_set();
    pool.extend(MemoryConfig::cryo_stt_study_set());
    pool
}

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len() as u64) as usize]
}

/// The registry sync before it was incremental: every cached entry,
/// in canonical key order, recorded unless already on disk.
fn full_walk_registry_sync(
    reference: &RunRegistry,
    explorer: &Explorer,
    plan: u64,
) -> io::Result<u64> {
    let mut appended = 0;
    for (key, value) in explorer.cached_entries_since(CacheCursor::START).0 {
        let backend = explorer
            .resolved_backend(&key)
            .unwrap_or_else(|| "unknown".to_string());
        if reference.record(plan, &key, &backend, &value)? {
            appended += 1;
        }
    }
    Ok(appended)
}

/// The geometry store sync before it was incremental.
fn full_walk_geometry_sync(reference: &GeometryStore, explorer: &Explorer) -> io::Result<u64> {
    let mut appended = 0;
    for (key, geometry) in explorer.geometry_cache().entries_since(CacheCursor::START).0 {
        if reference.record(&key, &geometry)? {
            appended += 1;
        }
    }
    Ok(appended)
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).expect("store file readable")
}

#[test]
fn registry_incremental_sync_matches_the_full_walk() {
    let pool = point_pool();
    // Replayed records come from another process's explorer.
    let donor = private_explorer();
    let donated: Vec<_> = pool
        .iter()
        .step_by(3)
        .map(|config| {
            let value = donor.characterize(config);
            let key = DesignPointKey::of_config(config);
            let backend = donor.resolved_backend(&key).expect("routing noted");
            (key, backend, value)
        })
        .collect();
    let plans = [0x1111_u64, 0x2222, 0x3333];

    for seed in 1..=3 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let explorers = [private_explorer(), private_explorer()];
        let path = temp_path(&format!("registry-oracle-{seed}"));
        let reference_path = temp_path(&format!("registry-reference-{seed}"));
        let registry = RunRegistry::open(&path).unwrap();
        let reference = RunRegistry::open(&reference_path).unwrap();
        let mut plan = plans[0];
        let mut syncs = 0;
        for step in 0..160 {
            let explorer = pick(&mut rng, &explorers);
            match rng.gen_range(0..20) {
                0..=6 => {
                    let _ = explorer.characterize(pick(&mut rng, &pool));
                }
                7..=10 => {
                    let (key, backend, value) = pick(&mut rng, &donated);
                    let _ = explorer.import_characterization(key, value.clone());
                    explorer.note_resolved_backend(key, backend);
                }
                11..=17 => {
                    let got = registry.sync_from(explorer, plan).unwrap();
                    let want = full_walk_registry_sync(&reference, explorer, plan).unwrap();
                    assert_eq!(got, want, "seed {seed} step {step}: appended counts differ");
                    syncs += 1;
                }
                _ => plan = *pick(&mut rng, &plans),
            }
            assert_eq!(
                read(&path),
                read(&reference_path),
                "seed {seed} step {step}: incremental sync diverged from the full walk"
            );
        }
        assert!(syncs > 20, "seed {seed}: the walk must exercise the sync");
        assert!(!registry.is_empty(), "seed {seed}: something was persisted");
        assert_eq!(registry.len(), reference.len());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&reference_path);
    }
}

#[test]
fn geometry_incremental_sync_matches_the_full_walk() {
    let pool = point_pool();
    let node = ProcessNode::ptm_22nm_hp();
    let solve = |config: &MemoryConfig| OrgGeometry::solve(&config.to_base_spec(&node));
    // Warm-started geometries come from another process's solves.
    let donated: Vec<_> = pool
        .iter()
        .step_by(5)
        .map(|config| (DesignPointKey::geometry_of(config), solve(config)))
        .collect();

    for seed in 1..=3 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let explorers = [private_explorer(), private_explorer()];
        let path = temp_path(&format!("geometry-oracle-{seed}"));
        let reference_path = temp_path(&format!("geometry-reference-{seed}"));
        let store = GeometryStore::open(&path).unwrap();
        let reference = GeometryStore::open(&reference_path).unwrap();
        let mut syncs = 0;
        for step in 0..120 {
            let explorer = pick(&mut rng, &explorers);
            match rng.gen_range(0..20) {
                0..=4 => {
                    let config = pick(&mut rng, &pool);
                    let key = DesignPointKey::geometry_of(config);
                    let _ = explorer.geometry_cache().get_or_solve(&key, || solve(config));
                }
                5..=7 => {
                    let _ = explorer.characterize(pick(&mut rng, &pool));
                }
                8..=11 => {
                    let (key, geometry) = pick(&mut rng, &donated);
                    let _ = explorer.geometry_cache().import(key, geometry.clone());
                }
                _ => {
                    let got = store.sync_from(explorer).unwrap();
                    let want = full_walk_geometry_sync(&reference, explorer).unwrap();
                    assert_eq!(got, want, "seed {seed} step {step}: appended counts differ");
                    syncs += 1;
                }
            }
            assert_eq!(
                read(&path),
                read(&reference_path),
                "seed {seed} step {step}: incremental sync diverged from the full walk"
            );
        }
        assert!(syncs > 20, "seed {seed}: the walk must exercise the sync");
        assert!(!store.is_empty(), "seed {seed}: something was persisted");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&reference_path);
    }
}

#[test]
fn no_publication_is_lost_to_the_sync_cursor() {
    const PLAN: u64 = 0xabcd;
    const WORKERS: usize = 4;
    const PER_WORKER: usize = 4;
    let pool = point_pool();
    let path = temp_path("race");
    for iteration in 0..50 {
        let _ = std::fs::remove_file(&path);
        let explorer = private_explorer();
        let registry = RunRegistry::open(&path).unwrap();
        let done = AtomicBool::new(false);
        // Workers and the syncer start together, so syncs overlap the
        // publications.
        let start = Barrier::new(WORKERS + 1);
        // Distinct points per worker, a different slice per iteration.
        let offset = iteration * WORKERS * PER_WORKER;
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|worker| {
                    let (explorer, pool, start) = (&explorer, &pool, &start);
                    scope.spawn(move || {
                        start.wait();
                        for j in 0..PER_WORKER {
                            let index = (offset + worker * PER_WORKER + j) % pool.len();
                            let _ = explorer.characterize(&pool[index]);
                        }
                    })
                })
                .collect();
            scope.spawn(|| {
                start.wait();
                while !done.load(Ordering::Acquire) {
                    registry.sync_from(&explorer, PLAN).unwrap();
                }
            });
            for worker in workers {
                worker.join().expect("worker panicked");
            }
            done.store(true, Ordering::Release);
        });
        registry.sync_from(&explorer, PLAN).unwrap();
        assert_eq!(
            registry.len(),
            explorer.cached_characterizations(),
            "iteration {iteration}: a publication was lost to the cursor"
        );
        assert_eq!(registry.len(), WORKERS * PER_WORKER);

        let fresh = private_explorer();
        let stats = replay_file(&path, &fresh).unwrap();
        assert_eq!(stats.skipped, 0);
        let keys = |e: &Explorer| -> Vec<String> {
            e.cached_entries_since(CacheCursor::START)
                .0
                .iter()
                .map(|(key, _)| key.canonical().to_string())
                .collect()
        };
        assert_eq!(keys(&fresh), keys(&explorer), "iteration {iteration}");
    }
    let _ = std::fs::remove_file(&path);
}

#[cfg(target_os = "linux")]
#[test]
fn failed_registry_append_never_advances_the_cursor() {
    let explorer = private_explorer();
    let _ = explorer.characterize(&MemoryConfig::sram_350k());
    let registry = RunRegistry::open("/dev/full").unwrap();
    for config in [MemoryConfig::edram_77k(), MemoryConfig::sram_77k()] {
        for _ in 0..3 {
            assert!(
                registry.sync_from(&explorer, 7).is_err(),
                "an unwritten entry must keep failing the sync, never report Ok(0)"
            );
        }
        let _ = explorer.characterize(&config);
    }
    assert!(registry.sync_from(&explorer, 7).is_err());
    assert!(registry.is_empty(), "nothing reached the disk");
}

#[cfg(target_os = "linux")]
#[test]
fn failed_geometry_append_never_advances_the_cursor() {
    let explorer = private_explorer();
    let _ = explorer.characterize(&MemoryConfig::sram_350k());
    let store = GeometryStore::open("/dev/full").unwrap();
    for config in [MemoryConfig::edram_77k(), MemoryConfig::sram_77k()] {
        for _ in 0..3 {
            assert!(
                store.sync_from(&explorer).is_err(),
                "an unwritten geometry must keep failing the sync, never report Ok(0)"
            );
        }
        let _ = explorer.characterize(&config);
    }
    assert!(store.sync_from(&explorer).is_err());
    assert!(store.is_empty(), "nothing reached the disk");
}

//! Integration tests of the parallel sweep engine: thread-safety of
//! the explorer, determinism of the parallel paths against their
//! sequential references, and the sharded characterization cache's
//! convergence under contention.

use coldtall::core::{pool, Explorer, LlcEvaluation, MemoryConfig};
use coldtall::workloads::spec2017;

/// The pooled sweep: plan, then [`Explorer::execute_par`].
fn par_sweep(explorer: &Explorer, configs: &[MemoryConfig]) -> Vec<LlcEvaluation> {
    explorer.execute_par(&explorer.plan_sweep(configs).expect("configs resolve"))
}

/// The sequential reference sweep: plan, then [`Explorer::execute`].
fn seq_sweep(explorer: &Explorer, configs: &[MemoryConfig]) -> Vec<LlcEvaluation> {
    explorer.execute(&explorer.plan_sweep(configs).expect("configs resolve"))
}

/// Compile-time proof the explorer can be shared across threads.
#[test]
fn explorer_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Explorer>();
}

/// The headline determinism contract: the parallel sweep over the full
/// study set x SPEC2017 cross-product is bit-identical, in identical
/// order, to the sequential reference sweep.
#[test]
fn par_sweep_matches_sequential_over_full_study() {
    // Force a multi-worker pool even on a 1-CPU machine, so the
    // determinism contract is exercised across real threads.
    pool::set_max_threads(4);
    let configs = MemoryConfig::study_set();
    let explorer = Explorer::with_defaults();
    let par = par_sweep(&explorer, &configs);
    let seq = seq_sweep(&explorer, &configs);
    pool::set_max_threads(0);
    assert_eq!(par.len(), configs.len() * spec2017().len());
    assert_eq!(par, seq, "parallel sweep diverged from sequential");
}

/// Determinism must also hold from a cold cache on each side (the
/// parallel path characterizes concurrently, the sequential one
/// on demand).
#[test]
fn cold_cache_sweeps_agree() {
    let configs = [
        MemoryConfig::sram_350k(),
        MemoryConfig::sram_77k(),
        MemoryConfig::edram_350k(),
        MemoryConfig::edram_77k(),
    ];
    let par = par_sweep(&Explorer::with_defaults(), &configs);
    let seq = seq_sweep(&Explorer::with_defaults(), &configs);
    assert_eq!(par, seq);
}

/// The default entry point must produce the same rows regardless of
/// which path it selects for this machine.
#[test]
fn default_sweep_is_path_independent() {
    let configs = [MemoryConfig::sram_350k(), MemoryConfig::edram_77k()];
    let explorer = Explorer::with_defaults();
    assert_eq!(
        explorer
            .try_sweep_configs(&configs)
            .expect("sweep is NaN-free"),
        seq_sweep(&explorer, &configs)
    );
}

/// N OS threads hammer `characterize` on overlapping configurations:
/// the sharded cache must converge on exactly one entry per distinct
/// label, and every thread must observe equal characterizations.
#[test]
fn concurrent_characterize_smoke() {
    let explorer = Explorer::with_defaults();
    let configs = MemoryConfig::study_set();
    let distinct = configs.len();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4 * distinct)
            .map(|i| {
                let (explorer, configs) = (&explorer, &configs);
                scope.spawn(move || explorer.characterize(&configs[i % configs.len()]))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    });
    assert_eq!(explorer.cached_characterizations(), distinct);
    for (i, result) in results.iter().enumerate() {
        assert_eq!(
            result,
            &explorer.characterize(&configs[i % configs.len()]),
            "thread {i} observed a divergent characterization"
        );
    }
}

/// The pool preserves output order no matter how work is stolen.
#[test]
fn pool_output_order_is_deterministic() {
    pool::set_max_threads(4);
    let expected: Vec<usize> = (0..997).map(|i| i * 31).collect();
    for _ in 0..8 {
        assert_eq!(pool::parallel_map(997, |i| i * 31), expected);
    }
    pool::set_max_threads(0);
}

/// The Monte-Carlo variation study stays deterministic per seed.
#[test]
fn monte_carlo_is_deterministic() {
    use coldtall::cell::MemoryTechnology;
    let a = coldtall::core::monte_carlo(MemoryTechnology::Pcm, 4, 12, 9);
    let b = coldtall::core::monte_carlo(MemoryTechnology::Pcm, 4, 12, 9);
    assert_eq!(a, b);
}

//! The paper artifacts regenerate on the calling thread.
//!
//! Every artifact grid is a few milliseconds of work, less than a pool
//! fan-out costs to start, so none of them may spin up worker threads
//! even when the pool is allowed four. The gate is counter-based: it
//! reads the process-global `pool.spinups` gauge before and after,
//! never a wall clock. This file holds exactly one test so that no
//! other test shares its process (and its global gauge).

use coldtall::core::pool;
use coldtall::core::report::TextTable;

/// Every artifact entry point, one per file under `results/`.
const ARTIFACTS: [fn() -> TextTable; 19] = [
    coldtall_bench::ablation_cooling::run,
    coldtall_bench::ablation_ecc::run,
    coldtall_bench::ablation_node::run,
    coldtall_bench::ablation_stacking::run,
    coldtall_bench::ablation_tags::run,
    coldtall_bench::ablation_voltage::run,
    coldtall_bench::accel_study::run,
    coldtall_bench::cryo_nvm_study::run,
    coldtall_bench::dynamic_temperature::run,
    coldtall_bench::fig1::run,
    coldtall_bench::fig3::run,
    coldtall_bench::fig4::run,
    coldtall_bench::fig5::run,
    coldtall_bench::fig6::run,
    coldtall_bench::fig7::run,
    coldtall_bench::hybrid_study::run,
    coldtall_bench::table1::run,
    coldtall_bench::table2::run,
    coldtall_bench::variation_study::run,
];

fn spinups() -> u64 {
    coldtall::obs::global().gauge("pool.spinups").get()
}

#[test]
fn regenerating_every_artifact_spawns_no_thread() {
    pool::set_max_threads(4);
    let before = spinups();
    for run in ARTIFACTS {
        assert!(!run().is_empty());
    }
    assert_eq!(
        spinups(),
        before,
        "an artifact fanned out over the worker pool"
    );
    // The gauge is live: a region the pool does fan out moves it.
    let _ = pool::parallel_map(8, |i| i);
    assert_eq!(spinups(), before + 1, "pool.spinups did not count a fan-out");
    pool::set_max_threads(0);
}

//! Bit-identity, arena-reuse, and perf tests of the batch evaluation
//! kernel ([`coldtall::core::evaluate_batch`] / `EvalArena`).
//!
//! The kernel evaluates a whole (configuration x benchmark x
//! temperature) grid in one call, hoisting the grid-invariants — the
//! 350 K SRAM baseline services, the cooling wall factor, the traffic
//! table — out of the per-row path. The contract under test:
//!
//! * batch rows are **bit-identical** to the scalar
//!   [`Explorer::evaluate`] oracle over the full study x SPEC2017 x
//!   temperature grid, at any pool width, including infeasible rows
//!   (refresh-dead, bandwidth-saturated, and the non-finite baseline
//!   guard),
//! * the same holds under every cooling tier, whose wall-power factor
//!   the kernel hoists per plane, for SPEC2017 and the accelerator
//!   profiles alike,
//! * a reused arena allocates nothing after its first fill (column
//!   capacities are stable across repeated sweeps),
//! * on a warm explorer the batched path is strictly faster per row
//!   than the scalar per-row loop (`perf_smoke`, gated by
//!   `scripts/check.sh`),
//! * repeated sweeps over the *same* explorer at new temperatures hit
//!   the geometry cache (nonzero `geometry.hits`) without re-solving.

use std::sync::{Mutex, MutexGuard, PoisonError};

use coldtall::array::Objective;
use coldtall::core::{evaluate_batch, pool, EvalArena, Explorer, Feasibility, MemoryConfig};
use coldtall::cryo::{study_temperatures, CoolingSystem};
use coldtall::obs::Registry;
use coldtall::tech::ProcessNode;
use coldtall::units::Kelvin;
use coldtall::workloads::{accelerator_profiles, benchmark, spec2017, Benchmark};
use coldtall_bench::timing::time_median_pair;

/// Tests that force a pool width share the process-global override.
static POOL_LOCK: Mutex<()> = Mutex::new(());

struct PinnedPool(#[allow(dead_code)] MutexGuard<'static, ()>);

impl PinnedPool {
    fn threads(n: usize) -> Self {
        let guard = POOL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        pool::set_max_threads(n);
        Self(guard)
    }
}

impl Drop for PinnedPool {
    fn drop(&mut self) {
        pool::set_max_threads(0);
    }
}

/// The full study set expanded across every study temperature: the
/// densest grid the repo evaluates, containing viable, slowdown, and
/// refresh-dead rows.
fn expanded_study() -> Vec<MemoryConfig> {
    MemoryConfig::study_set()
        .iter()
        .flat_map(|config| {
            study_temperatures()
                .iter()
                .map(|&t| config.clone().at_temperature(t))
        })
        .collect()
}

fn observed_explorer(registry: &Registry) -> Explorer {
    Explorer::with_registry(
        ProcessNode::ptm_22nm_hp(),
        Objective::EnergyDelayProduct,
        registry,
    )
}

/// Runs the scalar per-row oracle and every batch-kernel consumer over
/// the full study x SPEC2017 x temperature grid on `threads` pool
/// threads, each on a fresh explorer, and asserts bit-identity.
fn assert_batch_matches_scalar_oracle(threads: usize) {
    let _pinned = PinnedPool::threads(threads);
    let configs = expanded_study();

    // The scalar oracle: one `Explorer::evaluate` call per grid cell,
    // in the batch kernel's row-major (config-major) order.
    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    let scalar: Vec<_> = configs
        .iter()
        .flat_map(|config| spec2017().iter().map(|b| explorer.evaluate(config, b)))
        .collect();

    let run = |consume: fn(&Explorer, &coldtall::core::ExecutionPlan) -> Vec<_>| {
        let registry = Registry::new();
        let explorer = observed_explorer(&registry);
        let plan = explorer.plan_sweep(&configs).expect("study configs resolve");
        consume(&explorer, &plan)
    };
    let batched = run(|explorer, plan| {
        let mut arena = EvalArena::new();
        evaluate_batch(explorer, plan, &mut arena);
        arena.to_rows()
    });
    let executed = run(Explorer::execute);
    let executed_par = run(Explorer::execute_par);

    assert_eq!(
        scalar, batched,
        "evaluate_batch must be bit-identical to the scalar oracle at {threads} threads"
    );
    assert_eq!(batched, executed, "execute rides the same kernel");
    assert_eq!(
        executed, executed_par,
        "pooled execution must match sequential at {threads} threads"
    );

    // The grid genuinely exercises the infeasible paths: the 350 K
    // 3T-eDRAM points are refresh-dead (infinite relative latency).
    assert!(
        batched
            .iter()
            .any(|row| row.feasibility == Feasibility::RefreshDead),
        "the expanded study grid must contain refresh-dead rows"
    );
    assert!(
        batched
            .iter()
            .any(|row| row.feasibility == Feasibility::Viable),
        "the expanded study grid must contain viable rows"
    );
}

#[test]
fn batch_is_bit_identical_to_the_scalar_oracle_at_one_thread() {
    assert_batch_matches_scalar_oracle(1);
}

#[test]
fn batch_is_bit_identical_to_the_scalar_oracle_at_four_threads() {
    assert_batch_matches_scalar_oracle(4);
}

/// The cooling tier changes only the hoisted per-plane wall factor, so
/// the batch kernel must match the scalar oracle bit-for-bit under
/// every tier, not just the default one: the expanded study grid under
/// each [`CoolingSystem::ALL`] tier, for SPEC2017 and for the
/// accelerator profiles (the `fig1` and `accel_study` grids).
#[test]
fn batch_is_bit_identical_to_the_scalar_oracle_under_every_cooling_tier() {
    let configs: Vec<MemoryConfig> = expanded_study()
        .into_iter()
        .flat_map(|config| CoolingSystem::ALL.map(|tier| config.clone().with_cooling(tier)))
        .collect();
    let tiers = CoolingSystem::ALL.len();
    for benchmarks in [spec2017(), accelerator_profiles()] {
        let scalar_registry = Registry::new();
        let scalar_explorer = observed_explorer(&scalar_registry);
        let scalar: Vec<_> = configs
            .iter()
            .flat_map(|config| benchmarks.iter().map(|b| scalar_explorer.evaluate(config, b)))
            .collect();

        let registry = Registry::new();
        let explorer = observed_explorer(&registry);
        let plan = coldtall::core::SweepPlan::new(configs.clone())
            .with_benchmarks(benchmarks)
            .compile(explorer.backends())
            .expect("study configs resolve");
        let mut arena = EvalArena::new();
        explorer.execute_into(&plan, &mut arena);

        assert_eq!(
            scalar,
            arena.to_rows(),
            "batch rows diverged from the scalar oracle under a cooling tier"
        );
        // The tiers are genuinely exercised: a cryogenic point pays a
        // different wall power under each tier.
        let cryo = configs
            .iter()
            .position(MemoryConfig::is_cryogenic)
            .expect("the expanded study has cryogenic points");
        let nb = benchmarks.len();
        let powers: Vec<f64> = (cryo..cryo + tiers)
            .map(|c| arena.relative_power()[c * nb])
            .collect();
        assert!(
            powers.windows(2).all(|w| w[0] < w[1]),
            "costlier cooling tiers must raise cryogenic wall power: {powers:?}"
        );
    }
}

/// A traffic profile intense enough to saturate every array in the
/// study — including the 350 K SRAM baseline, which drives the hoisted
/// `base_service` to infinity and exercises the batch kernel's
/// non-finite-baseline guard on exactly the same branch the scalar
/// path takes.
fn saturating_benchmarks() -> &'static [Benchmark] {
    let profile = benchmark("namd").expect("namd profile exists").scaled(1e12);
    Box::leak(vec![profile].into_boxed_slice())
}

#[test]
fn batch_matches_scalar_on_bandwidth_saturated_rows() {
    let configs = MemoryConfig::study_set();
    let benchmarks = saturating_benchmarks();

    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    let plan = coldtall::core::SweepPlan::new(configs.clone())
        .with_benchmarks(benchmarks)
        .compile(explorer.backends())
        .expect("study configs resolve");

    let scalar: Vec<_> = configs
        .iter()
        .flat_map(|config| benchmarks.iter().map(|b| explorer.evaluate(config, b)))
        .collect();
    let mut arena = EvalArena::new();
    evaluate_batch(&explorer, &plan, &mut arena);

    assert_eq!(
        scalar,
        arena.to_rows(),
        "saturated rows must be bit-identical between batch and scalar"
    );
    assert!(
        arena
            .feasibility()
            .contains(&Feasibility::BandwidthSaturated),
        "the scaled profile must saturate at least one array"
    );
    // Every row is unserviceable (saturated or refresh-dead): the
    // infinite-over-infinite latency ratio never leaks a NaN.
    for (row, &latency) in arena.relative_latency().iter().enumerate() {
        assert!(
            latency.is_infinite(),
            "row {row}: saturated grid must report infinite relative latency, got {latency}"
        );
    }
}

#[test]
fn arena_reuse_allocates_nothing_after_the_first_sweep() {
    let explorer = Explorer::with_defaults();
    let plan = explorer
        .plan_sweep(&expanded_study())
        .expect("study configs resolve");

    let mut arena = EvalArena::new();
    explorer.execute_into(&plan, &mut arena);
    let first = arena.to_rows();
    assert_eq!(arena.rows(), plan.rows());
    let capacity = arena.row_capacity();
    assert!(capacity >= arena.rows());

    // Refill the same arena repeatedly: rows stay bit-identical and no
    // column ever reallocates (the minimum capacity across all columns
    // is exactly what the first sweep left behind).
    for round in 0..3 {
        explorer.execute_into(&plan, &mut arena);
        assert_eq!(arena.to_rows(), first, "round {round} changed the rows");
        assert_eq!(
            arena.row_capacity(),
            capacity,
            "round {round} reallocated an arena column"
        );
    }
}

/// The headline perf invariant gated by `scripts/check.sh`: on a warm
/// explorer (characterizations cached, so the evaluation kernel is
/// what gets measured) the batched path is strictly faster per row
/// than the scalar per-row loop.
#[test]
fn perf_smoke() {
    let _pinned = PinnedPool::threads(1);
    let configs = expanded_study();
    let explorer = Explorer::with_defaults();
    let plan = explorer.plan_sweep(&configs).expect("study configs resolve");
    // Warm every characterization so both sides measure evaluation.
    let reference = explorer.execute(&plan);
    let rows = reference.len();

    let mut arena = EvalArena::new();
    let (per_row, batched) = time_median_pair(
        ("per_row", "batched"),
        9,
        || -> Vec<_> {
            configs
                .iter()
                .flat_map(|config| spec2017().iter().map(|b| explorer.evaluate(config, b)))
                .collect()
        },
        || evaluate_batch(&explorer, &plan, &mut arena),
    );

    assert_eq!(arena.to_rows(), reference, "timed runs stay bit-identical");
    assert!(
        batched.median_ns_per(rows) < per_row.median_ns_per(rows),
        "batched evaluation must be strictly faster per row: batched {:.0} ns/row \
         vs per-row {:.0} ns/row over {rows} rows",
        batched.median_ns_per(rows),
        per_row.median_ns_per(rows),
    );
}

/// The geometry cache is alive across sweeps of the *same* explorer:
/// characterizing already-solved geometries at new temperatures probes
/// the temperature-stripped geometry key and hits, instead of
/// re-solving. (A fresh explorer per sweep — what `BENCH_sweep.json`
/// used to time exclusively — never revisits a geometry, which is why
/// its `geometry.hits` read zero.)
#[test]
fn new_temperatures_on_a_warm_explorer_hit_the_geometry_cache() {
    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    let configs = expanded_study();
    let plan = explorer.plan_sweep(&configs).expect("study configs resolve");
    let _ = explorer.execute(&plan);
    let solves = registry.counter_value("geometry.solves").unwrap();
    let hits = registry.counter_value("geometry.hits").unwrap();
    assert!(solves > 0, "the first sweep solves every distinct geometry");

    // The same study set shifted by +1 K: every characterization key is
    // new (temperature is part of the design-point key), but every
    // geometry key is already cached.
    let shifted: Vec<MemoryConfig> = configs
        .iter()
        .map(|config| {
            config
                .clone()
                .at_temperature(Kelvin::new(config.temperature().get() + 1.0))
        })
        .collect();
    let shifted_plan = explorer.plan_sweep(&shifted).expect("shifted configs resolve");
    let _ = explorer.execute(&shifted_plan);

    assert_eq!(
        registry.counter_value("geometry.solves"),
        Some(solves),
        "no geometry is ever re-solved"
    );
    assert!(
        registry.counter_value("geometry.hits").unwrap() > hits,
        "the shifted sweep must hit the warm geometry cache"
    );
}

//! Bit-identity and counter tests of the two-phase characterization
//! kernel (geometry-batched plan execution).
//!
//! The batched paths ([`Explorer::execute`] / [`Explorer::execute_par`])
//! group a plan's characterization jobs by temperature-stripped
//! geometry key, solve each geometry once, and fan the temperatures
//! out over the cached candidate list. The contract under test:
//!
//! * rows are **bit-identical** to a loop of [`Explorer::evaluate`]
//!   per grid cell on a fresh explorer, at any pool width,
//! * the geometry cache records exactly one solve per distinct
//!   geometry key (`perf_smoke`),
//! * both production shapes of the organization search — the one-shot
//!   [`ArraySpec::characterize`] and the temperature stripe
//!   [`OrgGeometry::characterize_temps`] — pick exactly the array a
//!   brute-force scan of every candidate picks ([`brute_force`], the
//!   single scalar characterization oracle).

use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard, PoisonError};

use coldtall::array::{ArrayCharacterization, ArraySpec, Objective, OrgGeometry, Organization};
use coldtall_bench::timing::time_median_pair;
use coldtall::cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall::core::{pool, DesignPointKey, ExecutionPlan, Explorer, LlcEvaluation, MemoryConfig};
use coldtall::cryo::study_temperatures;
use coldtall::obs::Registry;
use coldtall::tech::ProcessNode;
use coldtall::units::Kelvin;
use coldtall::workloads::spec2017;

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

/// The full study set expanded across every study temperature — the
/// densest temperature sweep the repo runs, and the workload where
/// geometry batching pays (many temperatures per geometry key).
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

/// The row-level oracle: [`Explorer::evaluate`] per (configuration,
/// benchmark) cell, row-major, on a fresh explorer (cold caches, every
/// characterization a scalar miss).
fn per_point_rows(configs: &[MemoryConfig]) -> Vec<LlcEvaluation> {
    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    configs
        .iter()
        .flat_map(|config| spec2017().iter().map(|b| explorer.evaluate(config, b)))
        .collect()
}

/// Compiles `configs` on a fresh explorer and runs the plan with
/// `execute`.
fn run_plan(
    configs: &[MemoryConfig],
    execute: fn(&Explorer, &ExecutionPlan) -> Vec<LlcEvaluation>,
) -> Vec<LlcEvaluation> {
    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    let plan = explorer.plan_sweep(configs).expect("study configs resolve");
    execute(&explorer, &plan)
}

/// Runs the per-point oracle and both batched paths over the full
/// study x temperature grid on `threads` pool threads, each on a fresh
/// explorer (cold caches), and asserts the rows are bit-identical.
fn assert_batched_paths_bit_identical(threads: usize) {
    let _pinned = PinnedPool::threads(threads);
    let configs = expanded_study();
    let per_point = per_point_rows(&configs);
    let batched = run_plan(&configs, Explorer::execute);
    let batched_par = run_plan(&configs, Explorer::execute_par);
    assert_eq!(
        per_point, batched,
        "batched execution must be bit-identical to per-point at {threads} threads"
    );
    assert_eq!(
        batched, batched_par,
        "pooled batched execution must match sequential at {threads} threads"
    );
}

#[test]
fn batched_execution_is_bit_identical_to_per_point_at_one_thread() {
    assert_batched_paths_bit_identical(1);
}

#[test]
fn batched_execution_is_bit_identical_to_per_point_at_four_threads() {
    assert_batched_paths_bit_identical(4);
}

/// The headline perf invariant: one geometry solve per distinct
/// temperature-stripped key across the whole study x temperature grid,
/// and none at all on a warm cache.
#[test]
fn perf_smoke() {
    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    let configs = expanded_study();
    let plan = explorer.plan_sweep(&configs).expect("study configs resolve");
    let distinct_geometries: HashSet<DesignPointKey> = plan
        .jobs()
        .iter()
        .map(|job| DesignPointKey::geometry_of(job.config()))
        .collect();
    assert!(
        distinct_geometries.len() < plan.jobs().len(),
        "the temperature sweep must share geometries across jobs"
    );

    let rows = explorer.execute(&plan);
    assert_eq!(rows.len(), plan.rows());
    let solves = registry
        .counter_value("geometry.solves")
        .expect("geometry cache registered");
    assert_eq!(
        solves,
        distinct_geometries.len() as u64,
        "exactly one geometry solve per distinct temperature-stripped key"
    );
    assert!(
        solves <= rows.len() as u64,
        "solves are bounded by the row count"
    );
    assert_eq!(
        registry
            .counter_value("explorer.characterize.dispatches")
            .unwrap(),
        {
            let backends: HashSet<(DesignPointKey, &str)> = plan
                .jobs()
                .iter()
                .map(|job| (DesignPointKey::geometry_of(job.config()), job.backend()))
                .collect();
            backends.len() as u64
        },
        "one batch dispatch per (geometry key, backend) group"
    );

    // A second execution is all cache hits: no new solves, no dispatch.
    let again = explorer.execute(&plan);
    assert_eq!(rows, again);
    assert_eq!(registry.counter_value("geometry.solves"), Some(solves));
}

/// The characterization-kernel perf gate: against pre-solved
/// geometries (the warm-start steady state) the SoA multi-temperature
/// stripe must be strictly faster per dispatch than one-shot
/// characterization of each point, while staying bit-identical. Interleaved median timing, so
/// a one-off scheduler hiccup lands on both sides alike (the same
/// discipline as the eval-kernel gate); the wall-clock margin in the
/// bench harness is ≥3x, so a strict inequality here has headroom.
#[test]
fn multi_temperature_stripe_is_faster_than_per_point() {
    let _pinned = PinnedPool::threads(1);
    let node = ProcessNode::ptm_22nm_hp();
    let objective = Objective::EnergyDelayProduct;
    let temps = study_temperatures().to_vec();
    // One configuration per distinct study geometry — the same
    // temperature-stripped grouping the batched execution paths use.
    let mut seen = HashSet::new();
    let configs: Vec<MemoryConfig> = MemoryConfig::study_set()
        .into_iter()
        .filter(|config| seen.insert(DesignPointKey::geometry_of(config)))
        .collect();
    let dispatches = configs.len() * temps.len();

    let per_point = || -> Vec<ArrayCharacterization> {
        configs
            .iter()
            .flat_map(|config| {
                temps.iter().map(|&t| {
                    config
                        .to_base_spec(&node)
                        .at_temperature_cryo(t)
                        .characterize(objective)
                })
            })
            .collect()
    };
    let solved: Vec<OrgGeometry> = configs
        .iter()
        .map(|config| OrgGeometry::solve(&config.to_base_spec(&node)))
        .collect();
    let stripe = || -> Vec<ArrayCharacterization> {
        solved
            .iter()
            .flat_map(|geometry| geometry.characterize_temps(&temps, objective))
            .collect()
    };

    assert_eq!(
        per_point(),
        stripe(),
        "the stripe must stay bit-identical to one-shot characterization"
    );
    let (point, batched) = time_median_pair(("per_point", "stripe"), 9, per_point, stripe);
    assert!(
        batched.median_ns_per(dispatches) < point.median_ns_per(dispatches),
        "the SoA stripe must be strictly faster per dispatch: stripe {:.0} ns \
         vs per-point {:.0} ns over {dispatches} dispatches",
        batched.median_ns_per(dispatches),
        point.median_ns_per(dispatches),
    );
}

/// Plans below the fan-out threshold must take the inline path inside
/// [`Explorer::execute_par`] — observable only through the
/// process-global `pool.inline_plans` counter — and stay bit-identical
/// to both the sequential batched path and the per-point oracle.
#[test]
fn small_plans_run_inline_and_stay_bit_identical() {
    // A wide pool makes the fallback meaningful: fan-out is available
    // but must not be used for a study-sized (31-job < 64) plan.
    let _pinned = PinnedPool::threads(4);
    let configs = MemoryConfig::study_set();
    let inline_plans = |registry: &Registry| registry.counter_value("pool.inline_plans");

    let registry = Registry::new();
    let plan = observed_explorer(&registry)
        .plan_sweep(&configs)
        .expect("study configs resolve");
    assert!(
        plan.jobs().len() < 64,
        "the bare study set must sit below the inline threshold"
    );

    // `pool.inline_plans` feeds the process-global registry (the path
    // taken is a scheduling fact, not per-explorer logical work), so
    // sample it around the pooled run and tolerate concurrent tests by
    // asserting a lower bound on the delta.
    let global = coldtall::obs::global();
    let before = inline_plans(global).unwrap_or(0);
    let pooled = run_plan(&configs, Explorer::execute_par);
    let after = inline_plans(global).unwrap_or(0);
    assert!(
        after > before,
        "a sub-threshold plan must bump pool.inline_plans ({before} -> {after})"
    );

    let sequential = run_plan(&configs, Explorer::execute);
    let per_point = per_point_rows(&configs);
    assert_eq!(
        pooled, sequential,
        "the inline fallback must be bit-identical to the sequential batched path"
    );
    assert_eq!(
        sequential, per_point,
        "batched execution must stay bit-identical to the per-point oracle"
    );
}

/// The scalar characterization oracle: every feasible candidate
/// characterized in full ([`ArrayCharacterization::evaluate`]), first
/// strict minimum of [`Objective::score`] wins — no columns, no shared
/// device context.
fn brute_force(spec: &ArraySpec, objective: Objective) -> ArrayCharacterization {
    let per_die = spec.capacity().bits_f64() * spec.storage_overhead() / f64::from(spec.dies());
    let mut best: Option<(f64, ArrayCharacterization)> = None;
    for org in Organization::candidates() {
        #[allow(clippy::cast_precision_loss)]
        if org.bits_per_subarray() as f64 > per_die {
            continue;
        }
        let array = ArrayCharacterization::evaluate(spec, org);
        let score = objective.score(&array);
        if best.as_ref().is_none_or(|(incumbent, _)| score < *incumbent) {
            best = Some((score, array));
        }
    }
    best.expect("at least one feasible organization").1
}

const OBJECTIVES: [Objective; 5] = [
    Objective::EnergyDelayProduct,
    Objective::ReadLatency,
    Objective::ReadEnergy,
    Objective::Area,
    Objective::StandbyPower,
];

const TECHNOLOGIES: [MemoryTechnology; 7] = [
    MemoryTechnology::Sram,
    MemoryTechnology::Edram3T,
    MemoryTechnology::Edram1T1C,
    MemoryTechnology::Pcm,
    MemoryTechnology::SttRam,
    MemoryTechnology::Rram,
    MemoryTechnology::SotRam,
];

/// Every technology x tentpole x die count as a temperature-free base
/// spec (14 x 4 = 56 geometries; with the 8 study temperatures and 5
/// objectives, 2,240 characterizations per shape).
fn base_specs() -> Vec<ArraySpec> {
    let node = ProcessNode::ptm_22nm_hp();
    let mut specs = Vec::new();
    for tech in TECHNOLOGIES {
        for tentpole in Tentpole::BOTH {
            for dies in [1, 2, 4, 8] {
                let cell = CellModel::tentpole(tech, tentpole, &node);
                specs.push(ArraySpec::llc_16mib(cell, &node).with_dies(dies));
            }
        }
    }
    specs
}

/// The one-shot shape at the spec's own operating point, under both
/// voltage policies a spec can carry (nominal and cryogenic).
#[test]
fn one_shot_characterize_matches_brute_force() {
    for base in base_specs() {
        for &t in study_temperatures() {
            for spec in [
                base.clone().at_temperature(t),
                base.clone().at_temperature_cryo(t),
            ] {
                for objective in OBJECTIVES {
                    assert_eq!(
                        spec.characterize(objective),
                        brute_force(&spec, objective),
                        "one-shot search diverged from brute force at {t} for {objective}"
                    );
                }
            }
        }
    }
}

/// The stripe shape: one solve per base spec, every study temperature
/// in one call, each entry equal to brute force on the cryo-policy
/// spec at that temperature.
#[test]
fn characterize_temps_matches_brute_force_at_every_study_temperature() {
    let temps: Vec<Kelvin> = study_temperatures().to_vec();
    for base in base_specs() {
        let geometry = OrgGeometry::solve(&base);
        for objective in OBJECTIVES {
            let stripe = geometry.characterize_temps(&temps, objective);
            assert_eq!(stripe.len(), temps.len());
            for (&t, array) in temps.iter().zip(&stripe) {
                assert_eq!(
                    *array,
                    brute_force(&base.clone().at_temperature_cryo(t), objective),
                    "stripe diverged from brute force at {t} for {objective}"
                );
            }
        }
    }
}

//! The adaptive-search equivalence harness (ISSUE 7 tentpole): the
//! branch-and-bound search must return a **bit-identical** Pareto
//! frontier to the exhaustive sweep-then-filter extraction, while
//! provably skipping work.
//!
//! The contract under test:
//!
//! * on the paper's full study set × temperature grid, the adaptive
//!   frontier equals [`pareto_front_arena`] over the exhaustive sweep,
//!   at 1 and 4 pool threads, for every constraint combination
//!   [`recommend`] supports — and the search reports
//!   `points_skipped > 0` every time,
//! * the incremental [`ParetoFrontier`] is insertion-order invariant,
//!   equivalent to a brute-force filter-at-the-end front on grids with
//!   NaN/∞ poison rows, and dominance eviction never drops a
//!   non-dominated point,
//! * every pruned region's lower bounds sit at or below every member
//!   row's true values (brute-forced, no tolerance).

use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard, PoisonError};

use coldtall::array::Objective;
use coldtall::core::{
    pareto_front, pareto_front_arena, pool, recommend, Constraints, EvalArena, Explorer,
    LlcEvaluation, MemoryConfig, ParetoFrontier, PruneReason,
};
use coldtall::cryo::study_temperatures;
use coldtall::obs::Registry;
use coldtall::tech::ProcessNode;
use coldtall::workloads::{benchmark, spec2017};

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

/// The paper's full study set expanded across every study temperature.
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

/// Every constraint combination the `recommend` path supports:
/// unconstrained, the paper defaults, and each cap alone plus a
/// combined screen.
fn constraint_grid() -> Vec<Constraints> {
    let mut area = Constraints::none();
    area.max_area_mm2 = Some(1.0);
    let mut power = Constraints::none();
    power.max_relative_power = Some(0.5);
    let mut lifetime = Constraints::none();
    lifetime.min_lifetime_years = 10.0;
    let combined = Constraints {
        max_area_mm2: Some(5.0),
        max_relative_power: Some(1.0),
        ..Constraints::default()
    };
    vec![
        Constraints::none(),
        Constraints::default(),
        area,
        power,
        lifetime,
        combined,
    ]
}

/// The exhaustive-equivalence contract at one pool width: the adaptive
/// frontier is bit-identical to filtering the full sweep, under every
/// constraint set, and the search always avoids provable work.
fn assert_search_matches_exhaustive(threads: usize) {
    let _pinned = PinnedPool::threads(threads);
    let configs = expanded_study();

    // The exhaustive reference: one batched sweep into an arena.
    let registry = Registry::new();
    let exhaustive = observed_explorer(&registry);
    let plan = exhaustive.plan_sweep(&configs).expect("study configs resolve");
    let mut arena = EvalArena::new();
    exhaustive.execute_into(&plan, &mut arena);
    let rows = arena.to_rows();
    assert_eq!(rows.len(), configs.len() * spec2017().len());

    // Unconstrained: bit-identical to the arena extraction.
    let registry = Registry::new();
    let outcome = observed_explorer(&registry)
        .search("expanded study", &configs, &Constraints::none())
        .expect("the expanded study searches");
    assert_eq!(
        outcome.frontier,
        pareto_front_arena(&arena),
        "adaptive frontier diverged from the exhaustive arena extraction at {threads} threads"
    );

    // Every constraint combination: bit-identical to filtering the
    // exhaustive rows first, and the screen matches `recommend`'s.
    for (i, constraints) in constraint_grid().iter().enumerate() {
        let registry = Registry::new();
        let outcome = observed_explorer(&registry)
            .search("expanded study", &configs, constraints)
            .expect("the expanded study searches");
        let satisfied: Vec<LlcEvaluation> = rows
            .iter()
            .filter(|row| constraints.satisfied_by(row))
            .cloned()
            .collect();
        assert_eq!(
            outcome.frontier,
            pareto_front(&satisfied),
            "constraint set #{i} diverged at {threads} threads"
        );
        assert!(
            outcome.stats.points_skipped > 0,
            "constraint set #{i}: the expanded grid holds refresh-dead planes, \
             so the search must skip points"
        );
        assert_eq!(
            outcome.stats.points_evaluated + outcome.stats.points_skipped,
            outcome.stats.rows_total,
            "constraint set #{i}: work accounting must be exact"
        );
        // The lowest-power frontier point achieves exactly the power
        // `recommend` picks over the same rows and screen.
        match (recommend(&rows, constraints), outcome.frontier.first()) {
            (Some(pick), Some(best)) => assert_eq!(
                pick.relative_power.to_bits(),
                best.relative_power.to_bits(),
                "constraint set #{i}: frontier head disagrees with recommend"
            ),
            (None, None) => {}
            (pick, head) => panic!(
                "constraint set #{i}: recommend {:?} but frontier head {:?}",
                pick.map(|p| &p.config_label),
                head.map(|h| &h.config_label)
            ),
        }
    }
}

#[test]
fn search_matches_exhaustive_at_one_thread() {
    assert_search_matches_exhaustive(1);
}

/// The cryogenic-NVM region (Δ(T) STT-MRAM across both tentpoles,
/// 1-8 dies, 77-387 K): the adaptive frontier is bit-identical to the
/// exhaustive arena extraction at both pool widths, and the search
/// still avoids provable work — here purely by dominance, since no
/// STT-RAM plane is refresh-dead.
#[test]
fn cryo_stt_region_search_matches_exhaustive() {
    for threads in [1, 4] {
        let _pinned = PinnedPool::threads(threads);
        let configs = MemoryConfig::cryo_stt_study_set();

        let exhaustive = Explorer::with_defaults();
        let plan = exhaustive
            .plan_sweep(&configs)
            .expect("every cryo-STT point resolves to a backend");
        let mut arena = EvalArena::new();
        exhaustive.execute_into(&plan, &mut arena);

        let outcome = Explorer::with_defaults()
            .search("cryo-STT region", &configs, &Constraints::none())
            .expect("the cryo-STT region searches");
        assert_eq!(
            outcome.frontier,
            pareto_front_arena(&arena),
            "cryo-STT adaptive frontier diverged from the exhaustive \
             extraction at {threads} threads"
        );
        assert_eq!(
            outcome.stats.rows_total,
            configs.len() as u64 * spec2017().len() as u64
        );
        assert!(
            outcome.stats.points_skipped > 0,
            "dominance pruning must skip work on the cryo-STT region"
        );
        assert_eq!(
            outcome.stats.points_evaluated + outcome.stats.points_skipped,
            outcome.stats.rows_total,
            "work accounting must be exact on the cryo-STT region"
        );
    }
}

#[test]
fn search_matches_exhaustive_at_four_threads() {
    assert_search_matches_exhaustive(4);
}

/// The search perf gate (wired into `scripts/check.sh`): work
/// avoidance is real and exactly accounted, with the telemetry
/// counters mirroring the reported statistics.
#[test]
fn perf_smoke() {
    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    let outcome = explorer
        .search("study", &MemoryConfig::study_set(), &Constraints::none())
        .expect("the study set searches");
    let stats = outcome.stats;
    assert_eq!(stats.rows_total, 31 * 23);
    assert!(
        stats.points_skipped > 0,
        "the study set holds a refresh-dead plane, so points must be skipped"
    );
    assert!(
        stats.points_evaluated < stats.rows_total,
        "adaptive search must evaluate strictly fewer points than the grid holds"
    );
    assert_eq!(stats.points_evaluated + stats.points_skipped, stats.rows_total);
    assert_eq!(
        stats.points_skipped,
        stats.skipped_infeasible + stats.skipped_pruned
    );
    for (counter, value) in [
        ("search.points.evaluated", stats.points_evaluated),
        ("search.points.skipped", stats.points_skipped),
        ("search.points.skipped_infeasible", stats.skipped_infeasible),
        ("search.points.skipped_pruned", stats.skipped_pruned),
        ("search.regions.expanded", stats.regions_expanded),
        ("search.regions.pruned", stats.regions_pruned),
        ("search.regions.refined", stats.regions_refined),
        ("search.bounds.computed", stats.bounds_computed),
    ] {
        assert_eq!(
            registry.counter_value(counter),
            Some(value),
            "counter {counter} must mirror the reported stats"
        );
    }
    // The bound-tightness histograms recorded one sample per refined
    // plane coordinate with a finite, positive actual minimum, and the
    // export labels them in permille, not in the spans' nanoseconds.
    let report = registry.render_text();
    for span in [
        "search.tightness.power",
        "search.tightness.latency",
        "search.tightness.area",
    ] {
        let line = report
            .lines()
            .find(|l| l.starts_with(&format!("{span}  ")))
            .unwrap_or_else(|| panic!("telemetry must report {span}"));
        assert!(
            line.contains("permille") && !line.contains("ns"),
            "{span} is exported in permille: {line}"
        );
        let hist = registry.permille(span);
        assert!(hist.count() > 0 && hist.max() <= 1000, "{span} holds permille samples");
    }
}

/// Bound soundness, brute-forced with no tolerance: for every pruned
/// region, every member row's true values sit at or above the bounds
/// that justified skipping it.
#[test]
fn every_pruned_region_bound_is_below_every_member_row() {
    let explorer = Explorer::with_defaults();
    let outcome = explorer
        .search("study", &MemoryConfig::study_set(), &Constraints::none())
        .expect("the study set searches");
    assert!(
        outcome.pruned.iter().any(|r| r.reason == PruneReason::Infeasible),
        "the 350 K 3T-eDRAM plane must be skipped as infeasible"
    );
    assert!(
        outcome.pruned.iter().any(|r| r.reason == PruneReason::Dominated),
        "the incumbent frontier must dominate at least one region"
    );
    for region in &outcome.pruned {
        assert!(!region.configs.is_empty(), "a pruned region has members");
        for config in &region.configs {
            for bench in spec2017() {
                let row = explorer.evaluate(config, bench);
                assert!(
                    region.power_lb <= row.relative_power,
                    "{} on {}: power bound {} above true {}",
                    row.config_label,
                    row.benchmark,
                    region.power_lb,
                    row.relative_power
                );
                assert!(
                    region.latency_lb <= row.relative_latency,
                    "{} on {}: latency bound {} above true {}",
                    row.config_label,
                    row.benchmark,
                    region.latency_lb,
                    row.relative_latency
                );
                assert!(
                    region.area_lb <= row.footprint_mm2,
                    "{} on {}: area bound {} above true {}",
                    row.config_label,
                    row.benchmark,
                    region.area_lb,
                    row.footprint_mm2
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// ParetoFrontier property tests on synthetic grids.
// ---------------------------------------------------------------------

/// A synthetic row set over a coordinate grid, each row uniquely
/// labelled, with NaN/∞ poison rows from the PR 3 taxonomy appended
/// (an infinite-latency sentinel, a NaN power, a negative-infinity
/// footprint).
fn synthetic_rows() -> Vec<LlcEvaluation> {
    let explorer = Explorer::with_defaults();
    let template = explorer.evaluate(
        &MemoryConfig::sram_350k(),
        benchmark("namd").expect("namd profile exists"),
    );
    let grid = [0.25, 0.5, 1.0, 2.0];
    let mut rows = Vec::new();
    for &p in &grid {
        for &l in &grid {
            for &a in &grid {
                let mut row = template.clone();
                row.config_label = format!("p{p}-l{l}-a{a}");
                row.relative_power = p;
                row.relative_latency = l;
                row.footprint_mm2 = a;
                rows.push(row);
            }
        }
    }
    let mut unserviceable = template.clone();
    unserviceable.config_label = "poison-inf-latency".to_string();
    unserviceable.relative_latency = f64::INFINITY;
    unserviceable.relative_power = 0.01;
    rows.push(unserviceable);
    let mut nan_power = template.clone();
    nan_power.config_label = "poison-nan-power".to_string();
    nan_power.relative_power = f64::NAN;
    rows.push(nan_power);
    let mut neg_inf_area = template;
    neg_inf_area.config_label = "poison-neg-inf-area".to_string();
    neg_inf_area.footprint_mm2 = f64::NEG_INFINITY;
    rows.push(neg_inf_area);
    rows
}

fn finite(row: &LlcEvaluation) -> bool {
    row.relative_power.is_finite()
        && row.relative_latency.is_finite()
        && row.footprint_mm2.is_finite()
}

fn dominates(a: &LlcEvaluation, b: &LlcEvaluation) -> bool {
    let no_worse = a.relative_power <= b.relative_power
        && a.relative_latency <= b.relative_latency
        && a.footprint_mm2 <= b.footprint_mm2;
    let better = a.relative_power < b.relative_power
        || a.relative_latency < b.relative_latency
        || a.footprint_mm2 < b.footprint_mm2;
    no_worse && better
}

/// The filter-at-the-end oracle the incremental structure replaced:
/// keep every finite row no other finite row dominates, stable-sort by
/// power, first label wins among consecutive duplicates.
fn brute_force_front(rows: &[LlcEvaluation]) -> Vec<LlcEvaluation> {
    let mut front: Vec<LlcEvaluation> = rows
        .iter()
        .filter(|row| finite(row))
        .filter(|row| !rows.iter().filter(|o| finite(o)).any(|o| dominates(o, row)))
        .cloned()
        .collect();
    front.sort_by(|a, b| a.relative_power.total_cmp(&b.relative_power));
    front.dedup_by(|a, b| a.config_label == b.config_label);
    front
}

#[test]
fn frontier_equals_the_filter_at_the_end_front_on_poisoned_grids() {
    let rows = synthetic_rows();
    assert_eq!(pareto_front(&rows), brute_force_front(&rows));

    // Duplicated rows exercise the coordinate-equal tie rule: twins
    // never evict each other, and label dedup keeps the first.
    let mut doubled = rows.clone();
    doubled.extend(rows.iter().cloned());
    assert_eq!(pareto_front(&doubled), brute_force_front(&doubled));
}

#[test]
fn frontier_membership_is_insertion_order_invariant() {
    let rows = synthetic_rows();
    let forward = {
        let mut frontier = ParetoFrontier::new();
        for (i, row) in rows.iter().enumerate() {
            frontier.insert(i, row);
        }
        frontier.into_sorted()
    };
    // Reversed, stride-shuffled, and interleaved orders — the seq
    // passed stays the original index, only arrival order changes.
    let orders: Vec<Vec<usize>> = vec![
        (0..rows.len()).rev().collect(),
        (0..rows.len()).step_by(3).chain((0..rows.len()).filter(|i| i % 3 != 0)).collect(),
        (0..rows.len() / 2).flat_map(|i| [rows.len() - 1 - i, i]).collect::<Vec<_>>()
            .into_iter().chain(if rows.len() % 2 == 1 { Some(rows.len() / 2) } else { None })
            .collect(),
    ];
    for order in orders {
        assert_eq!(order.len(), rows.len(), "each order is a permutation");
        let mut frontier = ParetoFrontier::new();
        for &i in &order {
            frontier.insert(i, &rows[i]);
        }
        assert_eq!(
            frontier.into_sorted(),
            forward,
            "frontier must not depend on insertion order"
        );
    }
}

#[test]
fn dominance_eviction_never_drops_a_non_dominated_point() {
    let rows = synthetic_rows();
    let mut frontier = ParetoFrontier::new();
    for (i, row) in rows.iter().enumerate() {
        frontier.insert(i, row);
    }
    let kept: HashSet<usize> = frontier.iter().map(|(seq, _, _)| seq).collect();
    for (i, row) in rows.iter().enumerate() {
        if !finite(row) {
            assert!(!kept.contains(&i), "poison row {i} must never be accepted");
            continue;
        }
        let non_dominated = !rows.iter().filter(|o| finite(o)).any(|o| dominates(o, row));
        assert_eq!(
            kept.contains(&i),
            non_dominated,
            "row {i} ({}) kept={} but non-dominated={}",
            row.config_label,
            kept.contains(&i),
            non_dominated
        );
    }
}

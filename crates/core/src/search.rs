//! Best-first branch-and-bound exploration of the design space.
//!
//! The exhaustive sweep evaluates every (configuration × benchmark)
//! row and filters a Pareto frontier at the end. This module inverts
//! that: it carves the (technology × dies × temperature ×
//! organization) space into a region tree, bounds every region from
//! *below* on the three frontier coordinates (relative power, relative
//! latency, footprint), and expands regions best-first — refining a
//! leaf (one configuration plane) through the existing batched
//! plan/execute kernels only when no incumbent frontier point provably
//! dominates the whole region.
//!
//! # Bound soundness
//!
//! Region bounds are componentwise floors over a whole plane's
//! candidate organizations. Per plane,
//! [`coldtall_array::OrgGeometry::floors_at_temperature`] takes the
//! componentwise minimum of read latency, read energy, standby power,
//! footprint, and refresh-busy fraction over *every* candidate
//! organization; whatever objective the search-time characterization
//! minimizes, the chosen organization is one of those candidates, so
//! each floor bounds the chosen array's field. The application model
//! then maps floors to row bounds by *dropping nonnegative terms and
//! divisors in `(0, 1]`* from the exact expressions of
//! `crate::evaluate`:
//!
//! * power: `(standby_floor + reads · read_energy_floor) · wall_factor
//!   / reference_power` drops the write-energy term;
//! * latency: `reads · read_latency_floor / base_service` drops the
//!   write term and the refresh/queueing dilation divisors;
//! * area: the footprint floor is temperature-invariant and exact up
//!   to the candidate choice.
//!
//! Every step is monotone under IEEE-754 round-to-nearest (rounding is
//! monotone, and adding a nonnegative float never moves a sum below
//! either operand), so each bound is `<=` the bit-exact row value the
//! refinement kernel would produce. A region's corner takes the
//! componentwise minimum over its members' bounds, preserving the
//! inequality for every member row.
//!
//! # Prune soundness
//!
//! A region is pruned only when an incumbent frontier point is
//! *strictly* below its corner in all three coordinates
//! ([`ParetoFrontier::strictly_dominates`]): the incumbent then
//! strictly dominates every member row, so no member can ever join the
//! frontier. Dominance eviction preserves the incumbent's role — an
//! evictor is componentwise `<=` the evicted point, so strictness
//! against the corner survives eviction chains. Weak (`<=`) pruning
//! would be unsound: a coordinate-equal member belongs *on* the
//! frontier, and in particular a duplicated configuration can never be
//! pruned by its own twin. Separately, a plane whose refresh-busy
//! *floor* already sits in the refresh-dead regime is skipped without
//! characterization: every candidate organization is refresh-dead, so
//! every row of the plane carries the infinite-latency sentinel and
//! can never join the frontier.
//!
//! Because membership in the incremental frontier is insertion-order
//! invariant and every skipped row is provably non-frontier, the
//! search's frontier is byte-identical to the exhaustive sweep's —
//! `tests/search.rs` pins this across thread counts and constraint
//! sets.

#![deny(missing_docs)]

use coldtall_array::ComponentFloors;
use coldtall_cachesim::TrafficTable;
use coldtall_obs::{Counter, Histogram, Registry};
use coldtall_units::SquareMeters;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use crate::config::MemoryConfig;
use crate::error::Error;
use crate::evaluate::{LlcEvaluation, REFRESH_INFEASIBLE};
use crate::explorer::Explorer;
use crate::pareto::{Constraints, ParetoFrontier};
use crate::plan::{tentpole_token, DesignPointKey, ExecutionPlan};

/// Registry handles for the search's work-avoidance telemetry.
///
/// Counters are logical-work counts, deterministic under any thread
/// count (the search control loop is sequential by construction); the
/// bound-tightness histograms record the ratio of each refined leaf's
/// lower bound to its plane's actual minimum, in permille, so a sweep
/// of the telemetry shows how close the bounds run to the truth.
#[derive(Debug)]
pub(crate) struct SearchMetrics {
    /// Regions popped and expanded into children.
    regions_expanded: Arc<Counter>,
    /// Regions pruned (dominated, constraint-capped, or infeasible).
    regions_pruned: Arc<Counter>,
    /// Leaf regions refined through the batch kernels.
    regions_refined: Arc<Counter>,
    /// Rows evaluated by refinement.
    points_evaluated: Arc<Counter>,
    /// Rows provably skipped (never evaluated).
    points_skipped: Arc<Counter>,
    /// Skipped rows of refresh-dead planes.
    skipped_infeasible: Arc<Counter>,
    /// Skipped rows of dominated or constraint-capped regions.
    skipped_pruned: Arc<Counter>,
    /// Plane lower-bound computations (componentwise floors).
    bounds_computed: Arc<Counter>,
    /// Power bound tightness (permille of the plane's actual minimum).
    tightness_power: Arc<Histogram>,
    /// Latency bound tightness (permille).
    tightness_latency: Arc<Histogram>,
    /// Area bound tightness (permille).
    tightness_area: Arc<Histogram>,
}

impl SearchMetrics {
    /// Registers every handle under the `search.*` namespace.
    pub(crate) fn registered(registry: &Registry) -> Self {
        Self {
            regions_expanded: registry.counter("search.regions.expanded"),
            regions_pruned: registry.counter("search.regions.pruned"),
            regions_refined: registry.counter("search.regions.refined"),
            points_evaluated: registry.counter("search.points.evaluated"),
            points_skipped: registry.counter("search.points.skipped"),
            skipped_infeasible: registry.counter("search.points.skipped_infeasible"),
            skipped_pruned: registry.counter("search.points.skipped_pruned"),
            bounds_computed: registry.counter("search.bounds.computed"),
            tightness_power: registry.permille("search.tightness.power"),
            tightness_latency: registry.permille("search.tightness.latency"),
            tightness_area: registry.permille("search.tightness.area"),
        }
    }
}

/// Work-avoidance statistics of one [`Explorer::search`] run.
///
/// The accounting is exact: `points_evaluated + points_skipped ==
/// rows_total`, and `points_skipped == skipped_infeasible +
/// skipped_pruned`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Rows of the full (configuration × benchmark) grid.
    pub rows_total: u64,
    /// Rows actually evaluated by leaf refinement.
    pub points_evaluated: u64,
    /// Rows provably skipped without evaluation.
    pub points_skipped: u64,
    /// Skipped rows of planes whose refresh-busy floor proves every
    /// candidate organization refresh-dead.
    pub skipped_infeasible: u64,
    /// Skipped rows of regions pruned by frontier dominance or by a
    /// constraint cap on a lower bound.
    pub skipped_pruned: u64,
    /// Regions popped and expanded into children.
    pub regions_expanded: u64,
    /// Regions pruned whole (any reason).
    pub regions_pruned: u64,
    /// Leaf regions refined through the batch kernels.
    pub regions_refined: u64,
    /// Plane lower-bound computations this run actually performed: one
    /// per distinct design point *not already memoized* in the
    /// explorer's floor cache. A fresh explorer computes one per
    /// distinct point; a warm explorer re-searching the same region
    /// reports zero.
    pub bounds_computed: u64,
}

/// Why a region was pruned without refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// The plane's refresh-busy floor is in the refresh-dead regime:
    /// every candidate organization is unserviceable, so every row
    /// carries the infinite-latency sentinel.
    Infeasible,
    /// An incumbent frontier point is strictly below the region's
    /// lower-bound corner in all three coordinates.
    Dominated,
    /// A lower bound already exceeds a constraint cap, so every member
    /// row violates the constraints.
    Constrained,
}

/// One pruned region, reported for auditability: the member design
/// points and the lower-bound corner that justified skipping them.
///
/// The bound-soundness property test brute-forces these members and
/// asserts each bound is `<=` every member row's true value.
#[derive(Debug, Clone)]
pub struct PrunedRegion {
    /// The design points the region covered (duplicates preserved, in
    /// plan order).
    pub configs: Vec<MemoryConfig>,
    /// Lower bound on every member row's relative power.
    pub power_lb: f64,
    /// Lower bound on every member row's relative latency.
    pub latency_lb: f64,
    /// Lower bound on every member row's footprint in mm².
    pub area_lb: f64,
    /// Why the region was pruned.
    pub reason: PruneReason,
}

/// The result of one [`Explorer::search`] run: the frontier (sorted by
/// ascending relative power, byte-identical to the exhaustive
/// extraction), the work-avoidance statistics, and every pruned region
/// with the bounds that justified it.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The Pareto frontier over constraint-satisfying rows.
    pub frontier: Vec<LlcEvaluation>,
    /// Exact work accounting of the run.
    pub stats: SearchStats,
    /// Every pruned region, for bound auditing.
    pub pruned: Vec<PrunedRegion>,
}

/// One leaf of the region tree: a configuration plane with its
/// lower-bound corner.
struct Leaf {
    /// Index into the plan's configuration list.
    config_index: usize,
    /// The plane's canonical design-point key.
    key: DesignPointKey,
    /// Position of the plane's backend in the explorer's registry.
    backend_index: usize,
    /// Componentwise lower bound on every row of the plane:
    /// `[power, latency, area]`.
    corner: [f64; 3],
    /// Whether the refresh-busy floor proves the plane unserviceable.
    infeasible: bool,
}

/// A region of the search tree with its lower-bound corner.
struct Region {
    /// Componentwise minimum over the member leaves' corners.
    corner: [f64; 3],
    /// Lowest member leaf index — the deterministic tie-breaker of the
    /// best-first pop.
    first_leaf: usize,
    /// Children or the leaf itself.
    kind: RegionKind,
}

/// What a region holds.
enum RegionKind {
    /// An internal region expanding into children.
    Internal(Vec<Region>),
    /// A single configuration plane (index into the leaf list).
    Leaf(usize),
}

impl Region {
    /// Collects the member leaf indices, in tree order.
    fn members(&self, into: &mut Vec<usize>) {
        match &self.kind {
            RegionKind::Internal(children) => {
                for child in children {
                    child.members(into);
                }
            }
            RegionKind::Leaf(i) => into.push(*i),
        }
    }
}

/// Builds an internal region over non-empty `children`.
fn internal(children: Vec<Region>) -> Region {
    debug_assert!(!children.is_empty());
    let mut corner = [f64::INFINITY; 3];
    let mut first_leaf = usize::MAX;
    for child in &children {
        for (k, bound) in corner.iter_mut().enumerate() {
            *bound = bound.min(child.corner[k]);
        }
        first_leaf = first_leaf.min(child.first_leaf);
    }
    Region {
        corner,
        first_leaf,
        kind: RegionKind::Internal(children),
    }
}

/// Groups `items` by `key` preserving first-appearance order.
fn group_by<K: PartialEq>(items: &[usize], mut key: impl FnMut(usize) -> K) -> Vec<Vec<usize>> {
    let mut groups: Vec<(K, Vec<usize>)> = Vec::new();
    for &item in items {
        let k = key(item);
        match groups.iter_mut().find(|(existing, _)| *existing == k) {
            Some((_, members)) => members.push(item),
            None => groups.push((k, vec![item])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

/// Builds the region tree: root → (technology, tentpole) → die count →
/// temperature-plane leaves, every level in first-appearance order of
/// the plan's configuration list.
fn build_tree(leaves: &[Leaf], plan: &ExecutionPlan) -> Region {
    let all: Vec<usize> = (0..leaves.len()).collect();
    let config = |i: usize| &plan.configs()[leaves[i].config_index];
    let tech_groups = group_by(&all, |i| {
        let c = config(i);
        (c.technology().name(), tentpole_token(c))
    });
    let children = tech_groups
        .into_iter()
        .map(|tech_members| {
            let dies_groups = group_by(&tech_members, |i| config(i).dies());
            internal(
                dies_groups
                    .into_iter()
                    .map(|dies_members| {
                        internal(
                            dies_members
                                .into_iter()
                                .map(|i| Region {
                                    corner: leaves[i].corner,
                                    first_leaf: i,
                                    kind: RegionKind::Leaf(i),
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    internal(children)
}

/// Computes one plane's lower-bound corner from its componentwise
/// floors (see the module docs for the monotonicity argument).
fn plane_corner(
    floors: &ComponentFloors,
    wall_factor: f64,
    base_services: &[f64],
    traffic: &TrafficTable,
    reference_power: f64,
) -> [f64; 3] {
    let area_lb = SquareMeters::new(floors.footprint_m2).as_mm2();
    let mut power_lb = f64::INFINITY;
    let mut latency_lb = f64::INFINITY;
    for (b, &base) in base_services.iter().enumerate() {
        let reads = traffic.get(b).reads_per_sec;
        let power = (floors.standby_power_w + reads * floors.read_energy_j) * wall_factor
            / reference_power;
        // Mirrors `row_values`: a non-positive or non-finite baseline
        // denominator pins relative latency, so the bound drops to 0.
        let latency = if base.is_finite() && base > 0.0 {
            (reads * floors.read_latency_s) / base
        } else {
            0.0
        };
        power_lb = power_lb.min(power);
        latency_lb = latency_lb.min(latency);
    }
    [power_lb, latency_lb, area_lb]
}

/// Whether a lower-bound corner already violates a constraint cap —
/// in which case every member row violates it too.
fn exceeds_caps(corner: &[f64; 3], constraints: &Constraints) -> bool {
    corner[1] > constraints.max_relative_latency
        || constraints.max_area_mm2.is_some_and(|a| corner[2] > a)
        || constraints.max_relative_power.is_some_and(|p| corner[0] > p)
}

/// The best-first order of open regions: `(power, latency, area,
/// first_leaf)` under `total_cmp`. Open regions are disjoint, so
/// `first_leaf` is unique among them and the order is total — the
/// expansion sequence never depends on container order.
fn best_first(a: &Region, b: &Region) -> Ordering {
    a.corner[0]
        .total_cmp(&b.corner[0])
        .then(a.corner[1].total_cmp(&b.corner[1]))
        .then(a.corner[2].total_cmp(&b.corner[2]))
        .then(a.first_leaf.cmp(&b.first_leaf))
}

/// An open region in the expansion heap, ordered so that the
/// max-heap's top is the [`best_first`] minimum.
struct Open(Region);

impl Ord for Open {
    fn cmp(&self, other: &Self) -> Ordering {
        best_first(&other.0, &self.0)
    }
}

impl PartialOrd for Open {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Open {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Open {}

/// Records one bound-tightness sample: the ratio of the lower bound to
/// the plane's actual minimum, in permille (1000 = exact).
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn record_tightness(histogram: &Histogram, lower_bound: f64, actual: f64) {
    if actual.is_finite() && actual > 0.0 && lower_bound.is_finite() && lower_bound >= 0.0 {
        histogram.record(((lower_bound / actual) * 1000.0).clamp(0.0, 1000.0) as u64);
    }
}

/// Runs the adaptive search (the engine behind [`Explorer::search`]).
///
/// `region` is the caller's name for the searched space; it only
/// surfaces in the [`Error::EmptySearchSpace`] diagnostic.
pub(crate) fn run(
    explorer: &Explorer,
    region: &str,
    configs: &[MemoryConfig],
    constraints: &Constraints,
) -> Result<SearchOutcome, Error> {
    if configs.is_empty() {
        return Err(Error::EmptySearchSpace {
            region: region.to_string(),
        });
    }
    let plan = explorer.plan_sweep(configs)?;
    let benchmarks = plan.benchmarks();
    let nb = benchmarks.len() as u64;
    let base_services = explorer.base_services(benchmarks);
    let traffic: TrafficTable = benchmarks.iter().map(|b| b.traffic).collect();
    let reference_power = explorer.reference_power().get();

    let mut stats = SearchStats {
        rows_total: plan.rows() as u64,
        ..SearchStats::default()
    };

    // Phase 1: bound every plane. Floors are memoized per design-point
    // key on the *explorer* ([`Explorer::plane_floors`]), so duplicate
    // planes within a run and repeated searches on one explorer alike
    // share a single computation; geometry solves go through the
    // explorer's geometry cache, shared with the batched refinement
    // phase. Each distinct key's backend is resolved once, and every
    // configuration routes to it by hash lookup.
    let backend_of: HashMap<&DesignPointKey, usize> = plan
        .jobs()
        .iter()
        .map(|job| (job.key(), explorer.backend_position(job.backend())))
        .collect();
    let mut leaves: Vec<Leaf> = Vec::with_capacity(plan.configs().len());
    for (config_index, config) in plan.configs().iter().enumerate() {
        let key = DesignPointKey::of_config(config);
        let backend_index = *backend_of
            .get(&key)
            .expect("every plan configuration has a compiled job");
        let (floors, fresh) = explorer.plane_floors(&key, config);
        if fresh {
            stats.bounds_computed += 1;
        }
        let wall_factor = config.cooling().wall_factor(config.temperature());
        leaves.push(Leaf {
            config_index,
            key,
            backend_index,
            corner: plane_corner(&floors, wall_factor, &base_services, &traffic, reference_power),
            infeasible: floors.refresh_busy_fraction >= REFRESH_INFEASIBLE,
        });
    }

    // Phase 2: best-first expansion. The loop is sequential (regions
    // pop one at a time, and each refinement runs on the calling
    // thread), so every counter and the frontier itself are trivially
    // deterministic under any pool width.
    let mut frontier: ParetoFrontier = ParetoFrontier::new();
    let mut pruned: Vec<PrunedRegion> = Vec::new();
    let mut open = BinaryHeap::from([Open(build_tree(&leaves, &plan))]);
    let metrics = explorer.search_metrics();
    while let Some(Open(region)) = open.pop() {
        let mut prune = |region: &Region, reason: PruneReason, stats: &mut SearchStats| {
            let mut members = Vec::new();
            region.members(&mut members);
            let rows = members.len() as u64 * nb;
            stats.regions_pruned += 1;
            stats.points_skipped += rows;
            match reason {
                PruneReason::Infeasible => stats.skipped_infeasible += rows,
                PruneReason::Dominated | PruneReason::Constrained => {
                    stats.skipped_pruned += rows;
                }
            }
            pruned.push(PrunedRegion {
                configs: members
                    .iter()
                    .map(|&i| plan.configs()[leaves[i].config_index].clone())
                    .collect(),
                power_lb: region.corner[0],
                latency_lb: region.corner[1],
                area_lb: region.corner[2],
                reason,
            });
        };
        if matches!(region.kind, RegionKind::Leaf(i) if leaves[i].infeasible) {
            prune(&region, PruneReason::Infeasible, &mut stats);
            continue;
        }
        if exceeds_caps(&region.corner, constraints) {
            prune(&region, PruneReason::Constrained, &mut stats);
            continue;
        }
        if frontier.strictly_dominates(region.corner) {
            prune(&region, PruneReason::Dominated, &mut stats);
            continue;
        }
        match region.kind {
            RegionKind::Internal(children) => {
                stats.regions_expanded += 1;
                open.extend(children.into_iter().map(Open));
            }
            RegionKind::Leaf(i) => {
                let leaf = &leaves[i];
                let config = &plan.configs()[leaf.config_index];
                explorer.characterize_search_plane(&leaf.key, config, leaf.backend_index);
                let rows =
                    explorer.evaluate_plane_rows(config, benchmarks, &traffic, &base_services);
                stats.regions_refined += 1;
                stats.points_evaluated += rows.len() as u64;
                let mut actual = [f64::INFINITY; 3];
                for (b, row) in rows.iter().enumerate() {
                    actual[0] = actual[0].min(row.relative_power);
                    if row.relative_latency.is_finite() {
                        actual[1] = actual[1].min(row.relative_latency);
                    }
                    actual[2] = actual[2].min(row.footprint_mm2);
                    if constraints.satisfied_by(row) {
                        frontier.insert(leaf.config_index * benchmarks.len() + b, row);
                    }
                }
                record_tightness(&metrics.tightness_power, region.corner[0], actual[0]);
                record_tightness(&metrics.tightness_latency, region.corner[1], actual[1]);
                record_tightness(&metrics.tightness_area, region.corner[2], actual[2]);
            }
        }
    }

    debug_assert_eq!(stats.points_evaluated + stats.points_skipped, stats.rows_total);
    metrics.regions_expanded.add(stats.regions_expanded);
    metrics.regions_pruned.add(stats.regions_pruned);
    metrics.regions_refined.add(stats.regions_refined);
    metrics.points_evaluated.add(stats.points_evaluated);
    metrics.points_skipped.add(stats.points_skipped);
    metrics.skipped_infeasible.add(stats.skipped_infeasible);
    metrics.skipped_pruned.add(stats.skipped_pruned);
    metrics.bounds_computed.add(stats.bounds_computed);

    Ok(SearchOutcome {
        frontier: frontier.into_sorted(),
        stats,
        pruned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::pareto_front;

    #[test]
    fn adaptive_frontier_matches_the_exhaustive_front_on_the_study() {
        let explorer = Explorer::with_defaults();
        let configs = MemoryConfig::study_set();
        let outcome = explorer
            .search("study", &configs, &Constraints::none())
            .expect("the study set searches");
        let exhaustive = explorer.try_sweep_configs(&configs).expect("the study set sweeps");
        assert_eq!(outcome.frontier, pareto_front(&exhaustive));
        assert_eq!(
            outcome.stats.points_evaluated + outcome.stats.points_skipped,
            outcome.stats.rows_total
        );
        assert!(
            outcome.stats.points_skipped > 0,
            "the study set holds a refresh-dead plane (350 K 3T-eDRAM), so the prune must fire"
        );
    }

    /// The linear-scan pop the heap replaced, kept as its oracle.
    fn pop_best_linear(open: &mut Vec<Region>) -> Option<Region> {
        let best = (0..open.len()).min_by(|&a, &b| best_first(&open[a], &open[b]))?;
        Some(open.swap_remove(best))
    }

    #[test]
    fn heap_pops_in_the_linear_scan_order() {
        use coldtall_rng::SmallRng;
        // Few distinct coordinates, so corners collide often and the
        // order falls through to later coordinates and `first_leaf`;
        // both zeros and infinity probe `total_cmp`'s edges.
        let values = [0.0, -0.0, 1.0, 1.0, 2.5, f64::INFINITY, f64::NEG_INFINITY];
        for seed in 0..16 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let pick = |rng: &mut SmallRng| {
                values[rng.gen_range(0..values.len() as u64) as usize]
            };
            let mut linear: Vec<Region> = Vec::new();
            let mut heap: BinaryHeap<Open> = BinaryHeap::new();
            // Open regions are disjoint, so their first leaves are
            // distinct; a shuffled id space keeps pushes unordered.
            let mut next_leaf = 0usize;
            let mut popped = 0;
            for _ in 0..2_000 {
                if rng.gen_bool(0.55) || linear.is_empty() {
                    let corner = [pick(&mut rng), pick(&mut rng), pick(&mut rng)];
                    let first_leaf = (next_leaf * 7_919) % 100_003;
                    next_leaf += 1;
                    let region = || Region {
                        corner,
                        first_leaf,
                        kind: RegionKind::Leaf(first_leaf),
                    };
                    linear.push(region());
                    heap.push(Open(region()));
                } else {
                    let a = pop_best_linear(&mut linear).expect("non-empty");
                    let Open(b) = heap.pop().expect("the heap holds what the list holds");
                    assert_eq!(a.first_leaf, b.first_leaf, "seed {seed}, pop {popped}");
                    assert_eq!(a.corner.map(f64::to_bits), b.corner.map(f64::to_bits));
                    popped += 1;
                }
            }
            while let Some(a) = pop_best_linear(&mut linear) {
                let Open(b) = heap.pop().expect("the heap holds what the list holds");
                assert_eq!(a.first_leaf, b.first_leaf, "seed {seed}, drain");
            }
            assert!(heap.is_empty());
        }
    }

    #[test]
    fn empty_region_is_a_typed_error() {
        let explorer = Explorer::with_defaults();
        let err = explorer
            .search("nothing at all", &[], &Constraints::none())
            .expect_err("an empty region cannot be searched");
        assert!(matches!(err, Error::EmptySearchSpace { .. }), "{err}");
    }

    #[test]
    fn infeasible_everywhere_space_yields_an_empty_frontier() {
        let explorer = Explorer::with_defaults();
        let outcome = explorer
            .search("350 K eDRAM", &[MemoryConfig::edram_350k()], &Constraints::none())
            .expect("an infeasible space is a result, not an error");
        assert!(outcome.frontier.is_empty());
        assert_eq!(outcome.stats.points_evaluated, 0);
        assert_eq!(outcome.stats.skipped_infeasible, outcome.stats.rows_total);
        assert!(outcome
            .pruned
            .iter()
            .all(|p| p.reason == PruneReason::Infeasible));
    }
}

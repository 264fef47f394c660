//! Timing harness: sequential versus parallel design-space sweeps,
//! and one-shot versus geometry-batched characterization.
//!
//! Two workloads, each swept twice — pinned to one thread at every
//! level, then on the full worker pool — with the results verified
//! bit-identical between the paths:
//!
//! * `study` — the paper's full study set under every SPEC2017
//!   benchmark (31 x 23 = 713 rows),
//! * `study_x_temps` — the study set expanded across the eight study
//!   temperatures (the Fig. 1/Fig. 3 axis), multiplying the number of
//!   distinct characterizations by ~8x so the pool has enough work to
//!   amortize thread startup.
//!
//! Both paths compile the grid with [`Explorer::plan_sweep`]; the
//! sequential side runs it with [`Explorer::execute`], the parallel
//! side with [`Explorer::execute_par`].
//!
//! A third section (`eval`) isolates the batch **evaluation** kernel
//! on a warm explorer (characterizations cached, so only row
//! production is measured): the full `study_x_temps` x SPEC2017 grid
//! evaluated once through the scalar per-row loop
//! ([`Explorer::evaluate`] per grid cell) and once through
//! [`evaluate_batch`] into a reused [`EvalArena`]. The same persistent
//! explorer then re-sweeps the grid shifted by +1 K, so the metrics
//! section records the geometry cache taking hits (a fresh explorer
//! per sweep never revisits a geometry, which is why `geometry.hits`
//! used to read zero here).
//!
//! A fourth section (`char`) isolates the characterization kernel
//! alone, with no evaluation grid attached: each distinct study
//! geometry characterized across the eight study temperatures once
//! per point ([`coldtall_array::ArraySpec::characterize`]: config
//! lowering, temperature application, solve, and candidate search from
//! scratch per dispatch)
//! and once as a SoA multi-temperature stripe over pre-solved
//! geometries ([`OrgGeometry::characterize_temps`]: one
//! device-parameter derivation per temperature, a column-wise
//! candidate scan), verified bit-identical. The stripe side matches
//! the production steady state — phase 1 lives in the geometry cache
//! or the warm-start file — so the one-time solve cost is timed and
//! reported separately (`solve_ns_per_geometry`) rather than folded
//! into the per-dispatch number.
//!
//! A fifth section (`search`) compares the adaptive branch-and-bound
//! search ([`Explorer::search`]) against the exhaustive
//! sweep-then-filter frontier extraction on the `study_x_temps`
//! region. Frontier identity and work avoidance are checked cold; the
//! *timed* comparison runs on warm persistent explorers (the serve
//! daemon's steady state: characterizations cached on both sides,
//! plane floors memoized explorer-lifetime on the adaptive side), and
//! passes only if the adaptive path is no slower than the exhaustive
//! one.
//!
//! Every number is a median over `--iters` individually timed
//! iterations after one untimed warmup, reported per row in
//! nanoseconds. Prints the comparison and writes `BENCH_sweep.json`
//! so future PRs have a perf trajectory.
//!
//! Usage: `bench_sweep [--iters N] [--out PATH]`

// A harness binary: warnings go to stderr so `--out -`-style stdout
// redirection stays clean.
#![allow(clippy::print_stderr)]

use coldtall_array::{ArrayCharacterization, Objective, OrgGeometry};
use coldtall_bench::timing::{time_median_pair, JsonObject};
use coldtall_core::{
    evaluate_batch, pareto_front, pool, Constraints, DesignPointKey, EvalArena, ExecutionPlan,
    Explorer, LlcEvaluation, MemoryConfig,
};
use coldtall_units::Kelvin;
use coldtall_workloads::spec2017;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// How a compiled plan is run: [`Explorer::execute`] or
/// [`Explorer::execute_par`].
type Execute = fn(&Explorer, &ExecutionPlan) -> Vec<LlcEvaluation>;

/// Compiles `configs` on `explorer` and runs the plan with `execute`.
fn run_sweep(
    explorer: &Explorer,
    configs: &[MemoryConfig],
    execute: Execute,
) -> Vec<LlcEvaluation> {
    let plan = explorer.plan_sweep(configs).expect("study configs resolve");
    execute(explorer, &plan)
}

/// One cold sweep: fresh explorer (empty cache), so every run includes
/// the expensive characterization phase.
fn cold_sweep(configs: &[MemoryConfig], execute: Execute) -> Vec<LlcEvaluation> {
    run_sweep(&Explorer::with_defaults(), configs, execute)
}

/// One sequential-vs-parallel comparison over `configs`, iterations
/// interleaved (each round pins the pool to one thread for the
/// sequential run, then restores auto-detection for the parallel one).
fn compare(label: &str, iters: u32, configs: &[MemoryConfig], json: &mut JsonObject) -> bool {
    pool::set_max_threads(1);
    let seq_rows = cold_sweep(configs, Explorer::execute);
    pool::set_max_threads(0);
    let threads = pool::max_threads();
    let par_rows = cold_sweep(configs, Explorer::execute_par);

    let (seq, par) = time_median_pair(
        ("sequential", "parallel"),
        iters,
        || {
            // Sequential reference: one thread at every level (outer
            // sweep and inner organization search alike).
            pool::set_max_threads(1);
            let rows = cold_sweep(configs, Explorer::execute);
            pool::set_max_threads(0);
            rows
        },
        || cold_sweep(configs, Explorer::execute_par),
    );

    let identical = seq_rows == par_rows;
    let rows = seq_rows.len();
    let speedup = seq.median_secs() / par.median_secs();

    println!(
        "# {label}: {} configs x {} benchmarks = {rows} rows ({iters} iters, median)",
        configs.len(),
        spec2017().len(),
    );
    println!(
        "  sequential (1 thread)  {:>10.3} ms  {:>9.0} ns/row",
        seq.median_secs() * 1e3,
        seq.median_ns_per(rows)
    );
    println!(
        "  parallel ({threads} threads)   {:>10.3} ms  {:>9.0} ns/row",
        par.median_secs() * 1e3,
        par.median_ns_per(rows)
    );
    println!("  speedup                {speedup:>10.2}x");
    println!("  identical results      {identical:>10}");

    #[allow(clippy::cast_precision_loss)]
    json.number(&format!("{label}_rows"), rows as f64)
        .number(&format!("{label}_sequential_secs"), seq.median_secs())
        .number(&format!("{label}_parallel_secs"), par.median_secs())
        .number(
            &format!("{label}_sequential_ns_per_row"),
            seq.median_ns_per(rows),
        )
        .number(
            &format!("{label}_parallel_ns_per_row"),
            par.median_ns_per(rows),
        )
        .number(&format!("{label}_speedup"), speedup)
        .boolean(&format!("{label}_identical"), identical);
    identical
}

/// Scalar per-row loop versus the batch evaluation kernel over the
/// full grid, on one warm persistent explorer (every characterization
/// cached up front, arena reused across iterations) pinned to a single
/// thread: what gets measured is row production, not geometry solving.
///
/// The warm persistent explorer also exercises the geometry cache the
/// way a long-lived service would: after the timed comparison the same
/// explorer sweeps the grid shifted by +1 K — all-new characterization
/// keys over all-cached geometry keys — so the report's metrics
/// section shows nonzero `geometry.hits`.
fn compare_eval(iters: u32, configs: &[MemoryConfig], json: &mut JsonObject) -> bool {
    pool::set_max_threads(1);
    let explorer = Explorer::with_defaults();
    let plan = explorer.plan_sweep(configs).expect("study configs resolve");
    let reference = explorer.execute(&plan); // warms every characterization
    let rows = reference.len();

    let mut arena = EvalArena::new();
    let (per_row, batched) = time_median_pair(
        ("per_row", "batched"),
        iters,
        || -> Vec<LlcEvaluation> {
            configs
                .iter()
                .flat_map(|config| spec2017().iter().map(|b| explorer.evaluate(config, b)))
                .collect()
        },
        || evaluate_batch(&explorer, &plan, &mut arena),
    );
    let identical = arena.to_rows() == reference;

    // The +1 K re-sweep: new temperatures, warm geometries.
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
    pool::set_max_threads(0);

    let speedup = per_row.median_secs() / batched.median_secs();
    println!("# eval: warm study_x_temps grid, 1 thread ({iters} iters, median)");
    println!(
        "  scalar per-row loop    {:>10.3} ms  {:>9.0} ns/row",
        per_row.median_secs() * 1e3,
        per_row.median_ns_per(rows)
    );
    println!(
        "  batched kernel         {:>10.3} ms  {:>9.0} ns/row",
        batched.median_secs() * 1e3,
        batched.median_ns_per(rows)
    );
    println!("  speedup                {speedup:>10.2}x");
    println!("  identical results      {identical:>10}");

    let mut section = JsonObject::new();
    #[allow(clippy::cast_precision_loss)]
    section
        .number("rows", rows as f64)
        .number("per_row_ns_per_row", per_row.median_ns_per(rows))
        .number("batched_ns_per_row", batched.median_ns_per(rows))
        .number("speedup", speedup)
        .boolean("identical", identical);
    json.raw("eval", &section.render());
    identical
}

/// The characterization kernel in isolation, no evaluation grid: each
/// distinct study geometry characterized across the eight study
/// temperatures once per point (geometry solve + organization search
/// from scratch per dispatch — the one-shot
/// [`coldtall_array::ArraySpec::characterize`] path) and once as one SoA multi-temperature stripe
/// ([`OrgGeometry::characterize_temps`]): a single solve, one
/// device-parameter derivation per temperature, and a column-wise
/// candidate scan over the solve-time SoA columns. Pinned to one
/// thread; both paths are verified bit-identical before timing.
fn compare_char(iters: u32, json: &mut JsonObject) -> bool {
    pool::set_max_threads(1);
    let node = coldtall_tech::ProcessNode::ptm_22nm_hp();
    let objective = Objective::EnergyDelayProduct;
    let temps: Vec<Kelvin> = coldtall_cryo::study_temperatures().to_vec();
    // One configuration per distinct study geometry — the same
    // temperature-stripped grouping the batched execution paths use.
    let mut seen = std::collections::HashSet::new();
    let configs: Vec<MemoryConfig> = MemoryConfig::study_set()
        .into_iter()
        .filter(|config| seen.insert(DesignPointKey::geometry_of(config)))
        .collect();
    let dispatches = configs.len() * temps.len();

    // One-shot characterization per design point: lower the
    // configuration to a base array, then solve and search from
    // scratch at the point's temperature.
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
    // The batched path runs against solved geometries — in production
    // phase 1 lives in the explorer's geometry cache (zero after a
    // warm start), so the steady-state per-dispatch cost is the
    // multi-temperature stripe alone. The solve is timed separately
    // and reported alongside.
    let solve_all = || -> Vec<OrgGeometry> {
        configs
            .iter()
            .map(|config| OrgGeometry::solve(&config.to_base_spec(&node)))
            .collect()
    };
    let solved = solve_all();
    let stripe = || -> Vec<ArrayCharacterization> {
        solved
            .iter()
            .flat_map(|geometry| geometry.characterize_temps(&temps, objective))
            .collect()
    };
    let identical = per_point() == stripe();

    let (point, batched) = time_median_pair(("per_point", "stripe"), iters, per_point, stripe);
    let (solve, _) = time_median_pair(("solve", "noop"), iters, solve_all, || ());
    pool::set_max_threads(0);

    let speedup = point.median_secs() / batched.median_secs();
    println!(
        "# char: {} geometries x {} temps = {dispatches} dispatches, 1 thread ({iters} iters, median)",
        configs.len(),
        temps.len()
    );
    println!(
        "  one-shot per point     {:>10.3} ms  {:>9.0} ns/dispatch",
        point.median_secs() * 1e3,
        point.median_ns_per(dispatches)
    );
    println!(
        "  SoA temperature stripe {:>10.3} ms  {:>9.0} ns/dispatch",
        batched.median_secs() * 1e3,
        batched.median_ns_per(dispatches)
    );
    println!(
        "  geometry solve (cached){:>10.3} ms  {:>9.0} ns/geometry",
        solve.median_secs() * 1e3,
        solve.median_ns_per(configs.len())
    );
    println!("  speedup                {speedup:>10.2}x");
    println!("  identical results      {identical:>10}");

    let mut section = JsonObject::new();
    #[allow(clippy::cast_precision_loss)]
    section
        .number("dispatches", dispatches as f64)
        .number("per_point_ns_per_dispatch", point.median_ns_per(dispatches))
        .number("stripe_ns_per_dispatch", batched.median_ns_per(dispatches))
        .number("solve_ns_per_geometry", solve.median_ns_per(configs.len()))
        .number("speedup", speedup)
        .boolean("identical", identical);
    json.raw("char", &section.render());
    identical && speedup > 1.0
}

/// Adaptive branch-and-bound search versus the exhaustive
/// sweep-then-filter frontier extraction.
///
/// Frontier identity and work avoidance are checked *cold* (fresh
/// explorers, each path paying its own characterization phase — the
/// correctness contract). The *timed* comparison runs on warm
/// persistent explorers, the serve daemon's steady state: every
/// characterization cached on both sides, and the adaptive side's
/// plane floors memoized explorer-lifetime, so what gets measured is
/// the work each strategy repeats per query — full-grid row production
/// and filtering versus bound checks plus the surviving planes.
/// Returns `true` only if the frontiers are bit-identical, the search
/// avoided work, *and* the warm adaptive query is no slower than the
/// warm exhaustive one.
fn compare_search(iters: u32, configs: &[MemoryConfig], json: &mut JsonObject) -> bool {
    let exhaustive_front = pareto_front(&cold_sweep(configs, Explorer::execute_par));
    let outcome = Explorer::with_defaults()
        .search("study_x_temps", configs, &Constraints::none())
        .expect("the study region searches");
    let identical = outcome.frontier == exhaustive_front;
    let stats = outcome.stats;
    let avoided = stats.points_skipped > 0 && stats.points_evaluated < stats.rows_total;

    // Warm persistent explorers, one per side; the warmup pass is
    // untimed. Re-searching the same region on a warm explorer
    // recomputes zero plane floors (`search.floor_cache` takes hits).
    let warm_exhaustive = Explorer::with_defaults();
    let _ = run_sweep(&warm_exhaustive, configs, Explorer::execute_par);
    let warm_adaptive = Explorer::with_defaults();
    let _ = warm_adaptive
        .search("study_x_temps", configs, &Constraints::none())
        .expect("the study region searches");
    let (exhaustive, adaptive) = time_median_pair(
        ("exhaustive", "adaptive"),
        iters,
        || pareto_front(&run_sweep(&warm_exhaustive, configs, Explorer::execute_par)),
        || {
            warm_adaptive
                .search("study_x_temps", configs, &Constraints::none())
                .expect("the study region searches")
                .frontier
        },
    );
    let adaptive_no_slower = adaptive.median_secs() <= exhaustive.median_secs();

    let rows = stats.rows_total as usize;
    let speedup = exhaustive.median_secs() / adaptive.median_secs();
    println!(
        "# search: study_x_temps region, warm adaptive vs warm exhaustive ({iters} iters, median)"
    );
    println!(
        "  exhaustive + filter    {:>10.3} ms  {:>9.0} ns/row",
        exhaustive.median_secs() * 1e3,
        exhaustive.median_ns_per(rows)
    );
    println!(
        "  adaptive search        {:>10.3} ms  {:>9.0} ns/row",
        adaptive.median_secs() * 1e3,
        adaptive.median_ns_per(rows)
    );
    println!("  speedup                {speedup:>10.2}x");
    println!(
        "  points evaluated       {:>10} of {rows} ({} skipped: {} infeasible, {} pruned)",
        stats.points_evaluated, stats.points_skipped, stats.skipped_infeasible, stats.skipped_pruned
    );
    println!("  identical frontier     {identical:>10}");

    let floor = |suffix: &str| {
        #[allow(clippy::cast_precision_loss)]
        {
            coldtall_obs::global()
                .counter_value(&format!("search.floor_cache.{suffix}"))
                .unwrap_or(0) as f64
        }
    };
    let mut section = JsonObject::new();
    #[allow(clippy::cast_precision_loss)]
    section
        .number("rows", rows as f64)
        .number("exhaustive_secs", exhaustive.median_secs())
        .number("adaptive_secs", adaptive.median_secs())
        .number("speedup", speedup)
        .number("points_evaluated", stats.points_evaluated as f64)
        .number("points_skipped", stats.points_skipped as f64)
        .number("skipped_infeasible", stats.skipped_infeasible as f64)
        .number("skipped_pruned", stats.skipped_pruned as f64)
        .number("regions_expanded", stats.regions_expanded as f64)
        .number("regions_pruned", stats.regions_pruned as f64)
        .number("frontier_points", outcome.frontier.len() as f64)
        .number("floor_cache_hits", floor("hits"))
        .number("floor_cache_misses", floor("misses"))
        .boolean("identical", identical)
        .boolean("adaptive_no_slower", adaptive_no_slower);
    json.raw("search", &section.render());
    identical && avoided && adaptive_no_slower
}

fn main() {
    let iters: u32 = arg_value("--iters")
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_sweep.json".to_string());

    let study = MemoryConfig::study_set();
    // The temperature-expanded set: every study configuration at every
    // study temperature (duplicate labels near 350 K simply hit the
    // cache, as they would in a real figure regeneration).
    let expanded: Vec<MemoryConfig> = study
        .iter()
        .flat_map(|config| {
            coldtall_cryo::study_temperatures()
                .iter()
                .map(|&t| config.clone().at_temperature(t))
        })
        .collect();

    let mut json = JsonObject::new();
    #[allow(clippy::cast_precision_loss)]
    json.string("bench", "sweep_seq_vs_par")
        .number("iters", f64::from(iters))
        .number("threads_detected", pool::max_threads() as f64);

    let ok_study = compare("study", iters, &study, &mut json);
    let ok_expanded = compare("study_x_temps", iters, &expanded, &mut json);
    let ok_eval = compare_eval(iters, &expanded, &mut json);
    let ok_char = compare_char(iters, &mut json);
    let ok_search = compare_search(iters, &expanded, &mut json);

    // Per-backend tallies as their own flat section: how the study's
    // design points split between the CryoMEM and Destiny paths
    // (characterizations actually dispatched, and resolutions the
    // overlap policy awarded), accumulated across every timed sweep
    // above.
    let mut backends = JsonObject::new();
    for backend in coldtall_core::BackendRegistry::with_defaults().backends() {
        let name = backend.name();
        #[allow(clippy::cast_precision_loss)]
        let tally = |suffix: &str| {
            coldtall_obs::global()
                .counter_value(&format!("backend.{name}.{suffix}"))
                .unwrap_or(0) as f64
        };
        backends
            .number(&format!("{name}_characterizations"), tally("characterizations"))
            .number(&format!("{name}_resolved"), tally("resolved"));
    }
    // Per-plane routing: every design point of the study plan and the
    // backend the registry's resolution policy picks for it.
    let study_plan = coldtall_core::SweepPlan::new(study.clone())
        .compile(&coldtall_core::BackendRegistry::with_defaults())
        .expect("study configs resolve");
    let mut planes = JsonObject::new();
    for job in study_plan.jobs() {
        planes.string(job.key().canonical(), job.backend());
    }
    backends.raw("resolved_planes", &planes.render());
    json.raw("backends", &backends.render());

    // Fold the engine's telemetry (cache hit/miss, pool utilization,
    // span timings accumulated across every timed sweep above) into
    // the report, so the perf trajectory carries its own explanation.
    json.raw("metrics", &coldtall_obs::global().render_json());

    if let Err(err) = std::fs::write(&out, json.render()) {
        eprintln!("warning: could not write {out}: {err}");
    } else {
        println!("wrote {out}");
    }

    assert!(
        ok_study && ok_expanded,
        "parallel sweep diverged from the sequential reference"
    );
    assert!(
        ok_eval,
        "batch evaluation kernel diverged from the scalar per-row loop"
    );
    assert!(
        ok_char,
        "SoA temperature stripe diverged from one-shot characterization or was not faster"
    );
    assert!(
        ok_search,
        "adaptive search diverged from the exhaustive frontier, avoided no work, \
         or ran slower than the warm exhaustive sweep"
    );
}

//! `explore`: what `coldtall sweep` and then `coldtall search` run,
//! over a region about 60x the study set. Each pass builds a fresh
//! explorer for a cold sweep (the calls `try_sweep_configs` makes) and
//! its frontier, then another for a cold adaptive search under seeded
//! constraints, and checks the search against the constrained
//! exhaustive frontier.

use std::time::Instant;

use coldtall_core::{
    pareto_front, Constraints, EvalArena, ExecutionPlan, Explorer, LlcEvaluation, MemoryConfig,
    SearchOutcome,
};
use coldtall_workloads::spec2017;

use crate::stats::Samples;
use crate::trace::{ratio, Counters, Tracer};
use crate::{closed_loop, gen, ns_since, Args, Report};

const ROOT: &str = "explore.pass";

/// Counters read around the measured passes.
const COUNTERS: [&str; 8] = [
    "explorer.characterize.dispatches",
    "geometry.solves",
    "geometry.hits",
    "geometry.misses",
    "search.floor_cache.hits",
    "search.floor_cache.misses",
    "pool.tasks",
    "pool.inline_plans",
];

/// What a pass produced, kept for its checks.
struct Pass {
    rows: Vec<LlcEvaluation>,
    jobs: usize,
    front: Vec<LlcEvaluation>,
    outcome: SearchOutcome,
}

/// One pass; returns it with its wall time in ns.
fn pass(
    region: &[MemoryConfig],
    constraints: &Constraints,
    tracer: &mut Tracer,
) -> Result<(Pass, u64), String> {
    let start = Instant::now();
    tracer.open(ROOT);
    // `coldtall sweep`: a cold explorer, plan, execute through the pool,
    // validate (the calls `try_sweep_configs` makes); then the frontier
    // of everything it produced.
    let sweep = tracer.time("core.explorer.new", Explorer::with_defaults);
    let plan = tracer
        .time("core.plan.compile", || sweep.plan_sweep(region))
        .map_err(|e| e.to_string())?;
    let rows = tracer.time("par.execute_par", || sweep.execute_par(&plan));
    tracer
        .time("core.sweep.validate", || {
            rows.iter().try_for_each(LlcEvaluation::validate)
        })
        .map_err(|e| e.to_string())?;
    let jobs = plan.jobs().len();
    drop(plan);
    let front = tracer.time("core.pareto.frontier", || pareto_front(&rows));
    // `coldtall search`: another cold explorer.
    let search = tracer.time("core.explorer.new", Explorer::with_defaults);
    let outcome = tracer
        .time("core.search.cold", || {
            search.search("explore", region, constraints)
        })
        .map_err(|e| e.to_string())?;
    drop(sweep);
    drop(search);
    tracer.close();
    Ok((
        Pass {
            rows,
            jobs,
            front,
            outcome,
        },
        ns_since(start),
    ))
}

/// The full check of a pass: every row there, and the adaptive
/// frontier equal to the constrained exhaustive one.
fn check_full(
    pass: &Pass,
    region: &[MemoryConfig],
    constraints: &Constraints,
    report: &mut Report,
) {
    report.attempted += 1;
    let expected_rows = region.len() * spec2017().len();
    if pass.rows.len() != expected_rows || pass.outcome.stats.rows_total != expected_rows as u64 {
        report.fail(format!(
            "sweep produced {} rows and search covered {}, expected {expected_rows}",
            pass.rows.len(),
            pass.outcome.stats.rows_total
        ));
    }
    let satisfied: Vec<LlcEvaluation> = pass
        .rows
        .iter()
        .filter(|r| constraints.satisfied_by(r))
        .cloned()
        .collect();
    if pass.outcome.frontier != pareto_front(&satisfied) {
        report.fail("adaptive frontier differs from the constrained exhaustive frontier".into());
    }
}

/// The per-pass check: the same plan and frontiers as the fully checked
/// reference pass (the program is deterministic at any thread count).
fn check_same(pass: &Pass, reference: &Pass, report: &mut Report) {
    report.attempted += 1;
    if pass.rows.len() != reference.rows.len()
        || pass.jobs != reference.jobs
        || pass.front != reference.front
        || pass.outcome.frontier != reference.outcome.frontier
    {
        report.fail("a pass differs from the checked reference pass".into());
    }
}

/// The region and constraints a run covers, and its fully checked
/// reference pass.
type Inputs = (Vec<MemoryConfig>, Constraints, Pass);

/// Set-up: generate the region and constraints, then run the process's
/// first pass, fully checked. Returns them and the set-up wall time in
/// ns. A process that has run one pass is what a `coldtall sweep` +
/// `search` user pays in memory, so the peak is read before the checks.
fn setup(args: &Args, report: &mut Report) -> Result<(Inputs, u64), String> {
    let start = Instant::now();
    let region = gen::explore_region(args.seed);
    let constraints = gen::explore_constraints(args.seed);
    let (reference, _) = pass(&region, &constraints, &mut Tracer::new(false))?;
    let ns = ns_since(start);
    report.put("peak_rss_mb", crate::peak_rss_mb(None), "MiB");
    check_full(&reference, &region, &constraints, report);
    Ok(((region, constraints, reference), ns))
}

/// The set-up of a `--setup-only` child: its wall time in ns. The
/// measuring process checks the same deterministic pass and counts any
/// failure; the child's outputs are not checked again.
pub fn setup_only(args: &Args) -> Result<u64, String> {
    Ok(setup(args, &mut Report::default())?.1)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<(Report, Option<Tracer>), String> {
    let mut report = Report::default();
    let ((region, constraints, reference), setup_ns) = setup(args, &mut report)?;
    report.put("setup_s", crate::setup_median_s(args, setup_ns)?, "s");
    let rows_per_pass = 2.0 * (region.len() * spec2017().len()) as f64;
    report.note(format!(
        "region: {} configurations x {} benchmarks; constraints {constraints:?}",
        region.len(),
        spec2017().len()
    ));

    let mut tracer = Tracer::new(args.trace);
    let before = Counters::read(&COUNTERS);
    let cpu = crate::cpu_s(None);
    let (untraced, traced) = closed_loop(args.seconds, &mut tracer, |t| {
        let (p, ns) = pass(&region, &constraints, t)?;
        check_same(&p, &reference, &mut report);
        Ok(ns)
    })?;
    let after = Counters::read(&COUNTERS);
    let passes = (untraced.len() + traced.len()) as f64;
    report.put(
        "cpu_ms_per_op",
        (crate::cpu_s(None) - cpu) * 1e3 / passes,
        "ms",
    );
    // Throughput over the whole window: the mean pass, not the median,
    // so that a host alternating between fast and slow phases moves it
    // in proportion rather than flipping it between the two.
    report.put("ops_per_s", rows_per_pass * 1e9 / untraced.mean(), "1/s");
    report.put("latency_p50_ms", untraced.median() / 1e6, "ms");
    report.put("pass_p50_ms", untraced.median() / 1e6, "ms");
    if let Some((label, value)) = untraced.tail() {
        report.note(format!("pass {label} {:.3} ms", value / 1e6));
    }
    report.note(format!(
        "passes: {} untraced, {} traced",
        untraced.len(),
        traced.len()
    ));
    if !args.trace {
        return Ok((report, None));
    }

    let per_pass = |name: &str| after.delta(&before, name) as f64 / passes;
    let self_times = tracer.self_times();
    let span_ms = |name: &str| {
        self_times
            .get(name)
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e6 / traced.len() as f64)
    };
    report.put(
        "core.explorer.new_ms",
        span_ms("core.explorer.new") / 2.0,
        "ms",
    );
    report.put("core.plan.compile_ms", span_ms("core.plan.compile"), "ms");
    report.put("core.plan.jobs", reference.jobs as f64, "count");
    report.put(
        "core.sweep.validate_ms",
        span_ms("core.sweep.validate"),
        "ms",
    );
    report.put(
        "core.pareto.frontier_ms",
        span_ms("core.pareto.frontier"),
        "ms",
    );
    report.put("core.pareto.points", reference.front.len() as f64, "count");
    report.put("core.search.cold_ms", span_ms("core.search.cold"), "ms");
    report.put(
        "core.search.points_evaluated",
        reference.outcome.stats.points_evaluated as f64,
        "count",
    );
    report.put(
        "core.search.skip_ratio",
        ratio(
            reference.outcome.stats.points_skipped,
            reference.outcome.stats.rows_total,
        ),
        "ratio",
    );
    report.put(
        "core.search.floor_hit_ratio",
        ratio(
            after.delta(&before, "search.floor_cache.hits"),
            after.delta(&before, "search.floor_cache.hits")
                + after.delta(&before, "search.floor_cache.misses"),
        ),
        "ratio",
    );
    report.put(
        "core.explorer.characterize_dispatches",
        per_pass("explorer.characterize.dispatches"),
        "count",
    );
    report.put(
        "array.geometry.solves",
        per_pass("geometry.solves"),
        "count",
    );
    report.put(
        "array.geometry.hit_ratio",
        ratio(
            after.delta(&before, "geometry.hits"),
            after.delta(&before, "geometry.hits") + after.delta(&before, "geometry.misses"),
        ),
        "ratio",
    );
    report.put("par.pool.tasks", per_pass("pool.tasks"), "count");
    report.put(
        "par.pool.inline_plans",
        per_pass("pool.inline_plans"),
        "count",
    );
    report.put_breakdown(&tracer, ROOT, "explore", traced.len(), untraced.median());
    probe_execution(&region, &mut report)?;
    Ok((report, Some(tracer)))
}

/// The pool decision and the characterize/evaluate split, outside the
/// measured passes. Each round runs the region's plan cold on a fresh
/// explorer sequentially (`execute`), then cold on another through the
/// pool (`execute_par`), then warm through `evaluate_batch` on that
/// one; medians over the rounds.
fn probe_execution(region: &[MemoryConfig], report: &mut Report) -> Result<(), String> {
    let (mut seq, mut par, mut batch) = (Vec::new(), Vec::new(), Vec::new());
    let mut rows = 0;
    for _ in 0..5 {
        let timed = |run: &dyn Fn(&Explorer, &ExecutionPlan)| -> Result<(Explorer, ExecutionPlan, f64), String> {
            let explorer = Explorer::with_defaults();
            let plan = explorer.plan_sweep(region).map_err(|e| e.to_string())?;
            let start = Instant::now();
            run(&explorer, &plan);
            Ok((explorer, plan, ns_since(start) as f64))
        };
        seq.push(timed(&|e, p| drop(std::hint::black_box(e.execute(p))))?.2);
        let (explorer, plan, ns) = timed(&|e, p| drop(std::hint::black_box(e.execute_par(p))))?;
        par.push(ns);
        let mut arena = EvalArena::new();
        explorer.evaluate_batch(&plan, &mut arena);
        let start = Instant::now();
        explorer.evaluate_batch(&plan, &mut arena);
        batch.push(ns_since(start) as f64);
        rows = arena.rows();
    }
    let [seq, par, batch] = [seq, par, batch].map(|v| Samples::new(v).median());
    report.put("par.execute_seq_ms", seq / 1e6, "ms");
    report.put("par.execute_par_ms", par / 1e6, "ms");
    report.put("par.speedup", seq / par, "x");
    report.put("core.batch.evaluate_ms", batch / 1e6, "ms");
    report.put("core.batch.ns_per_row", batch / rows.max(1) as f64, "ns");
    report.put("core.explorer.characterize_ms", (seq - batch) / 1e6, "ms");
    Ok(())
}

//! `artifacts`: regenerate all 19 paper artifacts in one process, the
//! way the per-artifact binaries do (`run()` builds its own explorer,
//! then the table renders), and byte-compare each with `results/`.

use std::time::Instant;

use coldtall_core::report::TextTable;

use crate::trace::{Counters, Tracer};
use crate::{closed_loop, gen, ns_since, Args, Report};

/// (artifact name, span name, entry point).
type Artifact = (&'static str, &'static str, fn() -> TextTable);

macro_rules! artifacts {
    ($($name:ident),* $(,)?) => {
        [$((stringify!($name), concat!("bench.", stringify!($name), ".run"), coldtall_bench::$name::run as fn() -> TextTable)),*]
    };
}

const ARTIFACTS: [Artifact; 19] = artifacts![
    ablation_cooling,
    ablation_ecc,
    ablation_node,
    ablation_stacking,
    ablation_tags,
    ablation_voltage,
    accel_study,
    cryo_nvm_study,
    dynamic_temperature,
    fig1,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    hybrid_study,
    table1,
    table2,
    variation_study,
];

const ROOT: &str = "artifacts.pass";

struct Workload {
    goldens: Vec<String>,
    rng: coldtall_rng::SmallRng,
}

impl Workload {
    fn load(args: &Args) -> Result<Self, String> {
        let goldens = ARTIFACTS
            .iter()
            .map(|(name, _, _)| {
                let path = args.root.join("results").join(format!("{name}.txt"));
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            goldens,
            rng: gen::rng(args.seed, 4),
        })
    }

    /// One pass over all artifacts in a seeded order; returns its wall
    /// time in ns. Outputs are compared after the clock stops.
    fn pass(&mut self, tracer: &mut Tracer, report: &mut Report) -> u64 {
        let mut order: Vec<usize> = (0..ARTIFACTS.len()).collect();
        gen::shuffle(&mut order, &mut self.rng);
        let start = Instant::now();
        tracer.open(ROOT);
        let outputs: Vec<String> = order
            .iter()
            .map(|&i| {
                let (name, span, run) = ARTIFACTS[i];
                let table = tracer.time(span, run);
                let body = tracer.time("core.report.render", || table.render());
                format!("# {name}\n\n{body}")
            })
            .collect();
        tracer.close();
        let ns = ns_since(start);
        for (&i, output) in order.iter().zip(&outputs) {
            report.attempted += 1;
            if *output != self.goldens[i] {
                report.fail(format!(
                    "artifact {} differs from results/{}.txt",
                    ARTIFACTS[i].0, ARTIFACTS[i].0
                ));
            }
        }
        ns
    }
}

/// Set-up: load the goldens and run the process's first pass, checked.
/// Returns the workload and the set-up wall time in ns.
fn setup(args: &Args, report: &mut Report) -> Result<(Workload, u64), String> {
    let start = Instant::now();
    let mut workload = Workload::load(args)?;
    workload.pass(&mut Tracer::new(false), report);
    Ok((workload, ns_since(start)))
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
    let (mut workload, setup_ns) = setup(args, &mut report)?;
    // A process that has regenerated every artifact once is what a
    // user running the artifact binaries pays in memory.
    report.put("peak_rss_mb", crate::peak_rss_mb(None), "MiB");
    report.put("setup_s", crate::setup_median_s(args, setup_ns)?, "s");

    let mut tracer = Tracer::new(args.trace);
    let calls = ["explorer.evaluate.calls"];
    let before = Counters::read(&calls);
    let cpu = crate::cpu_s(None);
    let (untraced, traced) = closed_loop(args.seconds, &mut tracer, |t| {
        Ok(workload.pass(t, &mut report))
    })?;
    let passes = (untraced.len() + traced.len()) as f64;
    report.put(
        "cpu_ms_per_op",
        (crate::cpu_s(None) - cpu) * 1e3 / passes,
        "ms",
    );
    // Throughput over the whole window: the mean pass, not the median.
    report.put(
        "ops_per_s",
        ARTIFACTS.len() as f64 * 1e9 / untraced.mean(),
        "1/s",
    );
    report.put("latency_p50_ms", untraced.median() / 1e6, "ms");
    report.put("pass_p50_ms", untraced.median() / 1e6, "ms");
    if let Some((label, value)) = untraced.tail() {
        report.note(format!("pass {label} {:.3} ms", value / 1e6));
    }
    report.note(format!(
        "passes: {} untraced, {} traced ({} artifacts each)",
        untraced.len(),
        traced.len(),
        ARTIFACTS.len()
    ));
    if !args.trace {
        return Ok((report, None));
    }
    let delta = Counters::read(&calls).delta(&before, calls[0]);
    report.put(
        "core.explorer.evaluate_calls",
        delta as f64 / passes,
        "count",
    );
    for (name, (self_ns, _)) in tracer.self_times() {
        if name != ROOT {
            report.put(
                &format!("{name}_ms"),
                self_ns as f64 / 1e6 / traced.len() as f64,
                "ms",
            );
        }
    }
    report.put_breakdown(&tracer, ROOT, "artifacts", traced.len(), untraced.median());
    Ok((report, Some(tracer)))
}

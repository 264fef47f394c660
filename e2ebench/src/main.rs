//! End-to-end benchmark of coldtall.
//!
//! ```text
//! coldtall-e2ebench --root <repo> --daemon <coldtall binary>
//!     --workload <artifacts|explore|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.sh` builds both binaries and supplies `--root` and `--daemon`.
//! With `--setup-only` the program runs only the workload's set-up and
//! prints its wall time in ns; the `artifacts` and `explore` workloads
//! start such children to take their set-up in fresh processes.
//! Every metric goes to stderr by name and unit; the last stdout line
//! is one JSON object `{correct, attempted, failed, metrics}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`) that `BENCHMARK.json` names. A full record of the run
//! (host fingerprint, every metric, sample counts, and with `--trace 1`
//! every span) is written under `e2ebench/out/`.

#![forbid(unsafe_code)]

mod artifacts;
mod explore;
mod gen;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use crate::trace::Tracer;

/// The end-to-end metrics, with their units, exactly as `BENCHMARK.json`
/// lists them. Every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, with their units, exactly as `BENCHMARK.json`
/// lists them. They span all three workloads' layers, and every traced
/// run measures all of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("artifacts.traced_total_ms", "ms"),
    ("artifacts.unattributed_ms", "ms"),
    ("artifacts.trace_overhead_pct", "%"),
    ("explore.traced_total_ms", "ms"),
    ("explore.unattributed_ms", "ms"),
    ("explore.trace_overhead_pct", "%"),
    ("serve.traced_total_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.trace_overhead_pct", "%"),
    ("core.explorer.new_ms", "ms"),
    ("core.explorer.evaluate_calls", "count"),
    ("core.report.render_ms", "ms"),
    ("bench.ablation_cooling.run_ms", "ms"),
    ("bench.ablation_ecc.run_ms", "ms"),
    ("bench.ablation_node.run_ms", "ms"),
    ("bench.ablation_stacking.run_ms", "ms"),
    ("bench.ablation_tags.run_ms", "ms"),
    ("bench.ablation_voltage.run_ms", "ms"),
    ("bench.accel_study.run_ms", "ms"),
    ("bench.cryo_nvm_study.run_ms", "ms"),
    ("bench.dynamic_temperature.run_ms", "ms"),
    ("bench.fig1.run_ms", "ms"),
    ("bench.fig3.run_ms", "ms"),
    ("bench.fig4.run_ms", "ms"),
    ("bench.fig5.run_ms", "ms"),
    ("bench.fig6.run_ms", "ms"),
    ("bench.fig7.run_ms", "ms"),
    ("bench.hybrid_study.run_ms", "ms"),
    ("bench.table1.run_ms", "ms"),
    ("bench.table2.run_ms", "ms"),
    ("bench.variation_study.run_ms", "ms"),
    ("core.plan.compile_ms", "ms"),
    ("core.plan.jobs", "count"),
    ("core.explorer.characterize_ms", "ms"),
    ("core.explorer.characterize_dispatches", "count"),
    ("array.geometry.solves", "count"),
    ("array.geometry.hit_ratio", "ratio"),
    ("core.batch.evaluate_ms", "ms"),
    ("core.batch.ns_per_row", "ns"),
    ("core.sweep.validate_ms", "ms"),
    ("core.pareto.frontier_ms", "ms"),
    ("core.pareto.points", "count"),
    ("core.search.cold_ms", "ms"),
    ("core.search.points_evaluated", "count"),
    ("core.search.skip_ratio", "ratio"),
    ("core.search.floor_hit_ratio", "ratio"),
    ("par.execute_seq_ms", "ms"),
    ("par.execute_par_ms", "ms"),
    ("par.speedup", "x"),
    ("par.pool.tasks", "count"),
    ("par.pool.inline_plans", "count"),
    ("serve.proto.parse_us", "us"),
    ("serve.proto.render_us", "us"),
    ("core.request.handle_us.evaluate", "us"),
    ("core.request.handle_us.characterize", "us"),
    ("core.request.handle_us.search", "us"),
    ("core.request.handle_us.sweep", "us"),
    ("core.parcache.hit_ratio", "ratio"),
    ("serve.registry.sync_us", "us"),
    ("serve.registry.sync_p99_us", "us"),
    ("serve.registry.appended", "count"),
    ("serve.registry.cache_entries", "count"),
    ("serve.geomstore.sync_us", "us"),
    ("serve.registry.replay_ms", "ms"),
    ("serve.geomstore.warm_ms", "ms"),
    ("serve.transport_us", "us"),
    ("serve.latency_p99_us", "us"),
    ("serve.repeat_p50_us", "us"),
    ("serve.fresh_p50_us", "us"),
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    /// Repository root (holds `results/`).
    pub root: PathBuf,
    /// The `coldtall` binary the serve workload spawns.
    pub daemon: PathBuf,
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Run only the set-up, as a child of a measuring run.
    pub setup_only: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<&str, String> {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1))
                .map(String::as_str)
                .ok_or_else(|| format!("missing {flag}"))
        };
        let trace = match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        };
        let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err("--seconds must be in (0, 60]".into());
        }
        Ok(Self {
            root: PathBuf::from(get("--root")?),
            daemon: PathBuf::from(get("--daemon")?),
            workload: get("--workload")?.to_string(),
            seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
            seconds,
            trace,
            setup_only: argv.iter().any(|a| a == "--setup-only"),
        })
    }

    /// Where run records go.
    pub fn out_dir(&self) -> PathBuf {
        self.root.join("e2ebench").join("out")
    }
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (artifacts, passes' checks, or requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Every metric measured, including ones `BENCHMARK.json` omits.
    pub metrics: Vec<Metric>,
    /// Free-form lines for the stderr report (sample counts, checks).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a note for the stderr report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.iter().filter(|n| n.starts_with("FAIL")).count() < 20 {
            self.notes.push(format!("FAIL {what}"));
        }
    }

    /// The last value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Adds the layer breakdown of a traced run, per op: the traced
    /// total as `<workload>.traced_total_ms`, the root span's self time
    /// as `<workload>.unattributed_ms`, and the tracing overhead (median
    /// traced op against the median untraced op) as
    /// `<workload>.trace_overhead_pct`; plus a note
    /// tabling every span's self time, which add up to the total exactly.
    pub fn put_breakdown(
        &mut self,
        tracer: &Tracer,
        root: &'static str,
        workload: &str,
        ops: usize,
        untraced_p50_ns: f64,
    ) {
        let ops = ops.max(1) as f64;
        let total_ns = tracer.root_total_ns();
        let mut table = format!(
            "layer breakdown ({workload}, traced, per op over {ops} ops):\n  {:<40} {:>12} {:>8} {:>8}\n",
            "span", "self ms/op", "share", "calls"
        );
        let mut sum_ns = 0;
        for (name, (self_ns, calls)) in tracer.self_times() {
            sum_ns += self_ns;
            let label = if name == root { "unattributed" } else { name };
            let _ = writeln!(
                table,
                "  {label:<40} {:>12.4} {:>7.2}% {calls:>8}",
                self_ns as f64 / 1e6 / ops,
                100.0 * trace::ratio(self_ns, total_ns)
            );
            if name == root {
                self.put(
                    &format!("{workload}.unattributed_ms"),
                    self_ns as f64 / 1e6 / ops,
                    "ms",
                );
            }
        }
        let _ = writeln!(
            table,
            "  {:<40} {:>12.4} (layers + unattributed = {:.4} ms/op, exact: {})",
            "traced total",
            total_ns as f64 / 1e6 / ops,
            sum_ns as f64 / 1e6 / ops,
            sum_ns == total_ns
        );
        self.put(
            &format!("{workload}.traced_total_ms"),
            total_ns as f64 / 1e6 / ops,
            "ms",
        );
        let traced_p50_ns = stats::Samples::new(tracer.durations(root)).median();
        self.put(
            &format!("{workload}.trace_overhead_pct"),
            100.0 * (traced_p50_ns / untraced_p50_ns - 1.0),
            "%",
        );
        self.note(table);
    }

    /// Folds one workload's traced report into a run covering all
    /// three: per-layer metrics keep their names, the rest gain the
    /// workload as a prefix.
    fn absorb(&mut self, workload: &str, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.metrics {
            let name = if PER_LAYER.iter().any(|&(n, _)| n == m.name) {
                m.name
            } else {
                format!("{workload}.{}", m.name)
            };
            self.metrics.push(Metric { name, ..m });
        }
        self.notes
            .extend(other.notes.into_iter().map(|n| format!("[{workload}] {n}")));
    }
}

/// Peak resident set (VmHWM) of a process in MiB, from `/proc`.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system, every thread, live or exited) a process
/// has used so far, in seconds, from `/proc`. The kernel reports it in
/// USER_HZ ticks, which are 1/100 s on Linux.
pub fn cpu_s(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(
        || "/proc/self/stat".to_string(),
        |p| format!("/proc/{p}/stat"),
    );
    std::fs::read_to_string(path)
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesized command name: state is
            // field 3, utime and stime are fields 14 and 15.
            let rest = &stat[stat.rfind(')')? + 2..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            Some(fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// The host facts each result is recorded with.
fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\":{nproc},\"profile\":\"{profile}\",\"rustc\":\"{}\",\"coldtall_threads_set\":{},\"seed\":{},\"workload\":\"{}\",\"seconds\":{},\"trace\":{}}}",
        coldtall_serve::proto::escape(&rustc),
        std::env::var_os("COLDTALL_THREADS").is_some(),
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace)
    )
}

fn metrics_json(report: &Report, names: &[(&str, &'static str)]) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = report.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn write_record(
    args: &Args,
    host: &str,
    report: &Report,
    tracers: &[(&str, Tracer)],
) -> std::io::Result<()> {
    let dir = args.out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let all: Vec<(&str, &'static str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let record = format!(
        "{{\"host\":{host},\"attempted\":{},\"failed\":{},\"metrics\":{},\"notes\":[{}]}}\n",
        report.attempted,
        report.failed,
        metrics_json(report, &all),
        report
            .notes
            .iter()
            .map(|n| format!("\"{}\"", coldtall_serve::proto::escape(n)))
            .collect::<Vec<_>>()
            .join(",")
    );
    std::fs::write(dir.join(format!("{stem}.json")), record)?;
    for (workload, tracer) in tracers {
        std::fs::write(
            dir.join(format!("{stem}.{workload}.spans.jsonl")),
            tracer.to_jsonl(),
        )?;
    }
    Ok(())
}

const WORKLOADS: [&str; 3] = ["artifacts", "explore", "serve"];

/// The spans of each traced workload.
type Traces = Vec<(&'static str, Tracer)>;

fn run_workload(args: &Args) -> Result<(Report, Option<Tracer>), String> {
    match args.workload.as_str() {
        "artifacts" => artifacts::run(args),
        "explore" => explore::run(args),
        _ => serve::run(args),
    }
}

/// Runs the named workload untraced, or with `--trace 1` every
/// workload traced for a third of the time each: the per-layer metric
/// set spans all three workloads' layers, and each traced run measures
/// every one of them.
fn run(args: &Args) -> Result<(Report, Traces), String> {
    if !args.root.join("results").is_dir() {
        return Err(format!(
            "{} holds no results/ directory",
            args.root.display()
        ));
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' ({})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    if !args.trace {
        return Ok((run_workload(args)?.0, Vec::new()));
    }
    let mut report = Report::default();
    let mut tracers = Vec::new();
    for workload in WORKLOADS {
        let part = Args {
            workload: workload.to_string(),
            seconds: args.seconds / 3.0,
            ..args.clone()
        };
        let (r, tracer) = run_workload(&part)?;
        report.absorb(workload, r);
        tracers.extend(tracer.map(|t| (workload, t)));
    }
    Ok((report, tracers))
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let ns = match args.workload.as_str() {
            "artifacts" => artifacts::setup_only(&args),
            "explore" => explore::setup_only(&args),
            other => Err(format!("no --setup-only mode for workload '{other}'")),
        };
        return match ns {
            Ok(ns) => {
                println!("{ns}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("e2ebench: {} set-up failed: {e}", args.workload);
                ExitCode::FAILURE
            }
        };
    }
    let (mut report, tracers) = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    report.put(
        "error_rate",
        trace::ratio(report.failed, report.attempted),
        "fraction",
    );
    let host = fingerprint(&args);
    eprintln!("host {host}");
    for m in &report.metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        eprintln!("{note}");
    }
    if let Err(e) = write_record(&args, &host, &report, &tracers) {
        eprintln!(
            "e2ebench: cannot write the run record under {}: {e}",
            args.out_dir().display()
        );
        return ExitCode::FAILURE;
    }
    let correct = report.failed == 0 && report.attempted > 0;
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.attempted,
        report.failed,
        metrics_json(&report, names)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `pass` in a closed loop for `seconds` of wall time, at least
/// three times. If `tracer` is on, each untraced pass is followed by a
/// traced one, so both see the same host conditions. Returns the
/// untraced and the traced pass times, in ns.
pub fn closed_loop(
    seconds: f64,
    tracer: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer) -> Result<u64, String>,
) -> Result<(stats::Samples, stats::Samples), String> {
    let mut off = Tracer::new(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = std::time::Instant::now();
    while untraced.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        untraced.push(pass(&mut off)? as f64);
        if tracer.on() {
            traced.push(pass(tracer)? as f64);
        }
    }
    Ok((stats::Samples::new(untraced), stats::Samples::new(traced)))
}

/// Processes per run of `artifacts` and `explore` whose set-up
/// `setup_s` takes the median of: the measuring one and its
/// `--setup-only` children.
const SETUP_PROCS: usize = 11;

/// The median set-up time in seconds over this process's set-up
/// (`first_ns`) and that of `SETUP_PROCS - 1` fresh child processes run
/// one after another: the one-off cold cost a CLI user pays.
pub fn setup_median_s(args: &Args, first_ns: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut setups = vec![first_ns as f64 / 1e9];
    for _ in 1..SETUP_PROCS {
        let out = std::process::Command::new(&exe)
            .arg("--root")
            .arg(&args.root)
            .arg("--daemon")
            .arg(&args.daemon)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", "--setup-only"])
            .stdin(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a set-up child: {e}"))?;
        if !out.status.success() {
            return Err(format!("a set-up child exited with {}", out.status));
        }
        let ns: u64 = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .map_err(|_| "a set-up child printed no time")?;
        setups.push(ns as f64 / 1e9);
    }
    Ok(stats::Samples::new(setups).median())
}

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).expect("run shorter than 584 years")
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_obs::json::{self, Value};

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("{key} is a list")
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::String(n)), Some(Value::String(u))) => (n.clone(), u.clone()),
                _ => panic!("{key} entries have a name and a unit"),
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    }
}

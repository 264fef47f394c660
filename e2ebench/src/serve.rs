//! `serve`: a `coldtall serve --listen 127.0.0.1:0 --registry R
//! --warm-start G` child under a closed loop of seeded requests over
//! loopback TCP.
//!
//! An untimed history phase fills R and G. The run is then a series of
//! epochs: each restarts the daemon on a fresh copy of the history (so
//! set-up covers replay) and sends a fixed number of requests over two
//! connections. Because the registry sync after every request walks the
//! whole cache, latency grows with the cache; a fixed request count per
//! epoch keeps every epoch at the same cache sizes. The traced run
//! replays one epoch's streams in process through the calls
//! `Server::handle_line` makes, in the same order: `parse_request`,
//! `RequestHandler::handle`, `RunRegistry::sync_from`,
//! `GeometryStore::sync_from`, `render_response`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use coldtall_core::{Explorer, MemoryConfig, RequestHandler, SweepPlan};
use coldtall_obs::json::{self, Value};
use coldtall_serve::{
    parse_request, render_parse_error, render_response, GeometryStore, RunRegistry,
};

use crate::gen::{self, Class, GenRequest, Point, Stream};
use crate::stats::Samples;
use crate::trace::{ratio, Tracer};
use crate::{ns_since, Args, Report};

/// Distinct generated points the history phase characterizes (the
/// study set comes on top).
const HISTORY: usize = 480;
/// Sampled responses per connection re-derived in process.
const VERIFY_PER_CONNECTION: usize = 256;
const ROOT: &str = "serve.request";

/// A running daemon child; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
}

impl Daemon {
    /// Spawns the daemon on `registry`/`geometry` and waits for its
    /// ready line. Returns it with the spawn-to-ready time in ns.
    fn spawn(args: &Args, registry: &Path, geometry: &Path) -> Result<(Self, u64), String> {
        let start = Instant::now();
        let mut child = Command::new(&args.daemon)
            .arg("serve")
            .args(["--listen", "127.0.0.1:0"])
            .arg("--registry")
            .arg(registry)
            .arg("--warm-start")
            .arg(geometry)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.daemon.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Self {
            child,
            stdin,
            addr: String::new(),
        };
        // Read the ready line on a helper thread so a hung daemon
        // cannot hang the benchmark; killing it ends the read.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let line = rx.recv_timeout(Duration::from_secs(60));
        if line.is_err() {
            let _ = daemon.child.kill();
        }
        reader.join().expect("ready-line reader panicked");
        let line = line.map_err(|_| "daemon printed no ready line within 60 s".to_string())?;
        let ns = ns_since(start);
        let ready = json::parse(line.trim()).map_err(|e| format!("ready line {line:?}: {e}"))?;
        match ready.get("addr") {
            Some(Value::String(addr)) => daemon.addr.clone_from(addr),
            _ => return Err(format!("ready line has no addr: {line:?}")),
        }
        Ok((daemon, ns))
    }

    fn connect(&self) -> Result<Client, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: stream,
            line: String::new(),
        })
    }

    /// Closes stdin (the daemon's graceful shutdown) and reaps it.
    fn shutdown(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One TCP connection speaking the line protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn call(&mut self, request: &str) -> Result<&str, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Whether `response` is the success line for `request`.
fn answered(request: &GenRequest, response: &str) -> bool {
    response.starts_with(&format!(
        "{{\"ok\":true,\"cmd\":\"{}\",\"id\":{},",
        request.kind, request.id
    ))
}

/// A scratch directory under the run-record directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(args: &Args) -> Result<Self, String> {
        let dir = args
            .out_dir()
            .join(format!("serve-{}-seed{}", std::process::id(), args.seed));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// Copies the history files to a fresh pair for one replay.
    fn copy_history(&self, tag: &str) -> Result<(PathBuf, PathBuf), String> {
        let pair = (
            self.file(&format!("registry-{tag}.jsonl")),
            self.file(&format!("geometry-{tag}.jsonl")),
        );
        for (from, to) in [
            ("registry-history.jsonl", &pair.0),
            ("geometry-history.jsonl", &pair.1),
        ] {
            std::fs::copy(self.file(from), to).map_err(|e| format!("copy {from}: {e}"))?;
        }
        Ok(pair)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one connection's closed loop saw.
#[derive(Default)]
struct Sampled {
    /// (kind, class, round-trip ns) per answered request.
    requests: Vec<(&'static str, Class, f64)>,
    fresh: u64,
    failed: Vec<String>,
    /// Requests and responses to re-derive in process.
    verify: Vec<(String, String)>,
}

/// One connection's closed loop over the first `requests` requests of
/// its stream.
fn drive(
    daemon: &Daemon,
    seed: u64,
    connection: u32,
    history: &[Point],
    requests: usize,
) -> Result<Sampled, String> {
    let mut client = daemon.connect()?;
    let mut stream = Stream::new(seed, connection, history);
    let mut pick = gen::rng(seed, 20 + u64::from(connection));
    let mut out = Sampled::default();
    for _ in 0..requests {
        let request = stream.next_request().ok_or("the request stream ran dry")?;
        let sent = Instant::now();
        let response = client.call(&request.line)?;
        let ns = ns_since(sent) as f64;
        if !answered(&request, response) {
            out.failed.push(format!(
                "{} -> {}",
                request.line,
                &response[..response.len().min(200)]
            ));
            continue;
        }
        out.requests.push((request.kind, request.class, ns));
        out.fresh += u64::from(request.class == Class::Fresh);
        if request.point.is_some()
            && out.verify.len() < VERIFY_PER_CONNECTION
            && pick.gen_bool(1.0 / 32.0)
        {
            out.verify
                .push((request.line.clone(), response.to_string()));
        }
    }
    Ok(out)
}

/// Runs the closed loop over up to two TCP connections at once (no
/// more than there are CPUs).
fn drive_all(daemon: &Daemon, seed: u64, history: &[Point]) -> Result<(Vec<Sampled>, f64), String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let connections = nproc.clamp(1, 2) as u32;
    let start = Instant::now();
    let results: Vec<Result<Sampled, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                s.spawn(move || {
                    drive(
                        daemon,
                        seed,
                        c,
                        history,
                        EPOCH_REQUESTS / connections as usize,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    Ok((results.into_iter().collect::<Result<_, _>>()?, wall))
}

/// The in-process pipeline of one daemon: the handler plus its
/// registry and geometry store, as `Server::start` builds them.
struct Pipeline {
    handler: RequestHandler,
    registry: RunRegistry,
    geometry: GeometryStore,
    plan_hash: u64,
}

impl Pipeline {
    /// Stands the pipeline up on copies of the history files; returns
    /// it with the registry replay and geometry warm-start times in ns.
    fn start(scratch: &Scratch, tag: &str) -> Result<(Self, u64, u64), String> {
        let (registry_path, geometry_path) = scratch.copy_history(tag)?;
        let handler = RequestHandler::new(Explorer::with_defaults(), coldtall_obs::global(), None);
        let plan_hash = SweepPlan::study()
            .compile(handler.explorer().backends())
            .map_err(|e| e.to_string())?
            .stable_hash();
        let start = Instant::now();
        let registry = RunRegistry::open(registry_path).map_err(|e| e.to_string())?;
        registry
            .replay_into(handler.explorer())
            .map_err(|e| e.to_string())?;
        let replay_ns = ns_since(start);
        let start = Instant::now();
        let geometry = GeometryStore::open(geometry_path).map_err(|e| e.to_string())?;
        geometry
            .warm_into(handler.explorer(), &MemoryConfig::study_set())
            .map_err(|e| e.to_string())?;
        let warm_ns = ns_since(start);
        Ok((
            Self {
                handler,
                registry,
                geometry,
                plan_hash,
            },
            replay_ns,
            warm_ns,
        ))
    }

    /// One request line through the daemon's per-line calls, in order.
    /// Returns the response and how many registry records it appended.
    fn handle_line(&self, line: &str, tracer: &mut Tracer) -> (String, u64) {
        tracer.open(ROOT);
        let mut appended = 0;
        let response = match tracer.time("serve.proto.parse", || parse_request(line)) {
            Err(message) => render_parse_error(&message),
            Ok(parsed) => {
                let kind = parsed.request.kind();
                let outcome =
                    tracer.time(handle_span(kind), || self.handler.handle(&parsed.request));
                if outcome.is_ok() {
                    let explorer = self.handler.explorer();
                    appended = tracer
                        .time("serve.registry.sync", || {
                            self.registry.sync_from(explorer, self.plan_hash)
                        })
                        .unwrap_or(0);
                    let _ =
                        tracer.time("serve.geomstore.sync", || self.geometry.sync_from(explorer));
                }
                tracer.time("serve.proto.render", || {
                    render_response(kind, parsed.id.as_deref(), &outcome)
                })
            }
        };
        tracer.close();
        (response, appended)
    }
}

fn handle_span(kind: &str) -> &'static str {
    match kind {
        "evaluate" => "core.request.handle.evaluate",
        "characterize" => "core.request.handle.characterize",
        "search" => "core.request.handle.search",
        "sweep" => "core.request.handle.sweep",
        _ => "core.request.handle.other",
    }
}

/// The connections' streams interleaved round-robin, as one ordered
/// sequence of lines for the in-process replays.
struct Interleaved {
    streams: Vec<Stream>,
    turn: usize,
}

impl Interleaved {
    fn new(seed: u64, history: &[Point]) -> Self {
        Self {
            streams: (0..2).map(|c| Stream::new(seed, c, history)).collect(),
            turn: 0,
        }
    }

    fn next_line(&mut self) -> Option<String> {
        for _ in 0..self.streams.len() {
            let i = self.turn % self.streams.len();
            self.turn += 1;
            if let Some(request) = self.streams[i].next_request() {
                return Some(request.line);
            }
        }
        None
    }
}

/// Fills the history: one sweep (the study set), then a characterize
/// per history point, on a fresh registry and geometry store.
fn fill_history(args: &Args, scratch: &Scratch, history: &[Point]) -> Result<(), String> {
    let (daemon, _) = Daemon::spawn(
        args,
        &scratch.file("registry-history.jsonl"),
        &scratch.file("geometry-history.jsonl"),
    )?;
    let mut client = daemon.connect()?;
    let mut lines = vec!["{\"cmd\":\"sweep\",\"id\":0}".to_string()];
    lines.extend(history.iter().enumerate().map(|(i, p)| {
        format!(
            "{{\"cmd\":\"characterize\",\"id\":{},{}}}",
            i + 1,
            p.json_fields()
        )
    }));
    for line in &lines {
        let response = client.call(line)?;
        if !response.starts_with("{\"ok\":true") {
            return Err(format!("history request {line} failed: {response}"));
        }
    }
    drop(client);
    daemon.shutdown()
}

/// One measurement epoch: a daemon restarted on fresh copies of the
/// history files, then the closed loop over `EPOCH_REQUESTS` requests
/// of the epoch's own streams. Every epoch starts from the same state
/// and sends as many requests, so the registry grows about as far in
/// each, whatever the host's speed.
struct Epoch {
    sampled: Vec<Sampled>,
    wall: f64,
    setup_ns: u64,
    rss_mb: f64,
    /// Daemon CPU seconds spent serving the closed loop.
    cpu_s: f64,
}

impl Epoch {
    fn run(
        args: &Args,
        scratch: &Scratch,
        history: &[Point],
        index: usize,
        report: &mut Report,
    ) -> Result<Self, String> {
        let (registry, geometry) = scratch.copy_history(&format!("epoch{index}"))?;
        let (daemon, setup_ns) = Daemon::spawn(args, &registry, &geometry)?;
        let cpu_before = crate::cpu_s(Some(daemon.child.id()));
        let (sampled, wall) = drive_all(&daemon, gen::epoch_seed(args.seed, index), history)?;
        let cpu_s = crate::cpu_s(Some(daemon.child.id())) - cpu_before;
        let status = daemon
            .connect()?
            .call("{\"cmd\":\"status\",\"id\":0}")?
            .to_string();
        let rss_mb = crate::peak_rss_mb(Some(daemon.child.id()));
        daemon.shutdown()?;
        let fresh: u64 = sampled.iter().map(|s| s.fresh).sum();
        check_persistence(report, &registry, &status, history.len() as u64 + fresh)?;
        Ok(Self {
            sampled,
            wall,
            setup_ns,
            rss_mb,
            cpu_s,
        })
    }

    fn requests(&self) -> usize {
        self.sampled.iter().map(|s| s.requests.len()).sum()
    }
}

/// Requests per epoch, split evenly over the connections.
const EPOCH_REQUESTS: usize = 2_000;
/// An untraced run measures epochs until its time is up, and at least
/// this many; a traced run measures this many over TCP, then replays
/// in process.
const MIN_EPOCHS: usize = 3;

/// Runs the workload.
pub fn run(args: &Args) -> Result<(Report, Option<Tracer>), String> {
    let mut report = Report::default();
    let scratch = Scratch::new(args)?;
    let history = gen::serve_history(args.seed, HISTORY);
    fill_history(args, &scratch, &history)?;

    let start = Instant::now();
    let mut epochs = Vec::new();
    while epochs.len() < MIN_EPOCHS || (!args.trace && start.elapsed().as_secs_f64() < args.seconds)
    {
        epochs.push(Epoch::run(
            args,
            &scratch,
            &history,
            epochs.len(),
            &mut report,
        )?);
    }
    let median_of =
        |f: &dyn Fn(&Epoch) -> f64| Samples::new(epochs.iter().map(f).collect()).median();
    report.put("setup_s", median_of(&|e| e.setup_ns as f64 / 1e9), "s");
    report.put(
        "ops_per_s",
        median_of(&|e| e.requests() as f64 / e.wall),
        "1/s",
    );
    report.put("peak_rss_mb", median_of(&|e| e.rss_mb), "MiB");
    report.put(
        "cpu_ms_per_op",
        median_of(&|e| e.cpu_s * 1e3 / e.requests().max(1) as f64),
        "ms",
    );

    // Latencies from the raw samples of every epoch.
    let sampled: Vec<&Sampled> = epochs.iter().flat_map(|e| &e.sampled).collect();
    let all: Vec<_> = sampled
        .iter()
        .flat_map(|s| s.requests.iter().copied())
        .collect();
    let failed: Vec<&String> = sampled.iter().flat_map(|s| &s.failed).collect();
    report.attempted += (all.len() + failed.len()) as u64;
    for f in failed {
        report.fail(format!("request not answered ok: {f}"));
    }
    let lat = |keep: &dyn Fn(&'static str, Class) -> bool| {
        Samples::new(
            all.iter()
                .filter(|&&(k, c, _)| keep(k, c))
                .map(|&(_, _, ns)| ns / 1e3)
                .collect(),
        )
    };
    let every = lat(&|_, _| true);
    let repeat = lat(&|_, c| c == Class::Repeat);
    let fresh = lat(&|_, c| c == Class::Fresh);
    report.put("latency_p50_ms", every.median() / 1e3, "ms");
    report.put("latency_p50_us", every.median(), "us");
    // At least MIN_EPOCHS * EPOCH_REQUESTS samples: p99 has 60 beyond it.
    let (tail_label, tail) = every.tail().unwrap_or(("max", every.quantile(1.0)));
    report.put("serve.latency_p99_us", every.quantile(0.99), "us");
    report.put("serve.repeat_p50_us", repeat.median(), "us");
    report.put("serve.fresh_p50_us", fresh.median(), "us");
    report.note(format!(
        "{} epochs, each a restart on the history then {EPOCH_REQUESTS} requests over {} connections: {} requests ({} repeat, {} fresh); latency {tail_label} {tail:.1} us",
        epochs.len(),
        epochs[0].sampled.len(),
        every.len(),
        repeat.len(),
        fresh.len()
    ));
    for kind in ["evaluate", "characterize", "search", "sweep"] {
        let s = lat(&|k, _| k == kind);
        report.note(format!(
            "  {kind:<12} n={:<7} p50 {:>10.1} us  {:?}",
            s.len(),
            s.median(),
            s.tail()
        ));
    }
    verify_in_process(&mut report, &sampled)?;

    if !args.trace {
        return Ok((report, None));
    }
    let tracer = trace_in_process(args, &mut report, &scratch, &history, every.median())?;
    Ok((report, Some(tracer)))
}

/// After an epoch: the registry holds exactly one line per distinct
/// characterization, and the daemon's cache agrees.
fn check_persistence(
    report: &mut Report,
    registry: &Path,
    status: &str,
    expected: u64,
) -> Result<(), String> {
    let text =
        std::fs::read_to_string(registry).map_err(|e| format!("{}: {e}", registry.display()))?;
    let lines = text.lines().count() as u64;
    let cached = json::parse(status).ok().and_then(|v| {
        v.get("result")
            .and_then(|r| r.get("cached_characterizations"))
            .and_then(Value::as_f64)
    });
    report.attempted += 1;
    #[allow(clippy::cast_precision_loss)]
    if cached != Some(lines as f64) || lines != expected {
        report.fail(format!(
            "registry holds {lines} lines; daemon caches {cached:?}; distinct characterizations requested {expected}"
        ));
    }
    Ok(())
}

/// Re-derives the sampled responses through `RequestHandler::handle` in
/// process and requires them byte-identical.
fn verify_in_process(report: &mut Report, sampled: &[&Sampled]) -> Result<(), String> {
    let handler = RequestHandler::new(Explorer::with_defaults(), coldtall_obs::global(), None);
    let mut checked = 0;
    for (line, response) in sampled.iter().flat_map(|s| &s.verify) {
        let parsed = parse_request(line)?;
        let local = render_response(
            parsed.request.kind(),
            parsed.id.as_deref(),
            &handler.handle(&parsed.request),
        );
        report.attempted += 1;
        checked += 1;
        if local != *response {
            report.fail(format!("served {response} != in-process {local}"));
        }
    }
    report.note(format!(
        "{checked} sampled responses byte-identical in process"
    ));
    Ok(())
}

/// The traced run: epoch 0's requests, from the interleaved streams,
/// in process through the daemon's per-line calls. Two pipelines on
/// fresh copies of the history take every request in lockstep, one
/// untraced and one traced, so both see the same host conditions and
/// the same cache growth.
fn trace_in_process(
    args: &Args,
    report: &mut Report,
    scratch: &Scratch,
    history: &[Point],
    tcp_p50_us: f64,
) -> Result<Tracer, String> {
    let (mut off, mut tracer) = (Tracer::new(false), Tracer::new(true));
    let (plain, plain_replay_ns, plain_warm_ns) = Pipeline::start(scratch, "untraced")?;
    let (traced, replay_ns, warm_ns) = Pipeline::start(scratch, "traced")?;
    let explorer = traced.handler.explorer();
    let (hits0, misses0) = (
        explorer.cache_metrics().hits(),
        explorer.cache_metrics().misses(),
    );
    let (mut appended, mut cache_entries) = (0, 0);
    let mut untraced = Vec::with_capacity(EPOCH_REQUESTS);
    let mut lines = Interleaved::new(gen::epoch_seed(args.seed, 0), history);
    for i in 0..EPOCH_REQUESTS {
        let line = lines.next_line().ok_or("the request streams ran dry")?;
        // Alternate which pipeline goes first, so neither always finds
        // the request's data warm in the CPU caches.
        let traced_first = i % 2 == 1;
        let traced_out = traced_first.then(|| traced.handle_line(&line, &mut tracer));
        let start = Instant::now();
        let (plain_response, _) = plain.handle_line(&line, &mut off);
        untraced.push(ns_since(start) as f64);
        let (response, added) =
            traced_out.unwrap_or_else(|| traced.handle_line(&line, &mut tracer));
        report.attempted += 1;
        if !response.starts_with("{\"ok\":true") || response != plain_response {
            report.fail(format!("in-process {line} -> {response}"));
        }
        // The size of the cache the request's registry sync was handed.
        cache_entries += explorer.cached_characterizations() as u64;
        appended += added;
    }
    let hits = explorer.cache_metrics().hits() - hits0;
    let misses = explorer.cache_metrics().misses() - misses0;
    let untraced = Samples::new(untraced);

    let p50_us = |span: &str| Samples::new(tracer.durations(span)).median() / 1e3;
    report.put("serve.proto.parse_us", p50_us("serve.proto.parse"), "us");
    report.put("serve.proto.render_us", p50_us("serve.proto.render"), "us");
    for kind in ["evaluate", "characterize", "search", "sweep"] {
        report.put(
            &format!("core.request.handle_us.{kind}"),
            p50_us(handle_span(kind)),
            "us",
        );
    }
    report.put(
        "core.parcache.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    let syncs = Samples::new(tracer.durations("serve.registry.sync"));
    report.put("serve.registry.sync_us", syncs.median() / 1e3, "us");
    report.put(
        "serve.registry.sync_p99_us",
        syncs.quantile(0.99) / 1e3,
        "us",
    );
    report.put("serve.registry.appended", appended as f64, "count");
    report.put(
        "serve.registry.cache_entries",
        ratio(cache_entries, EPOCH_REQUESTS as u64),
        "count",
    );
    report.put(
        "serve.geomstore.sync_us",
        p50_us("serve.geomstore.sync"),
        "us",
    );
    let ms = |a: u64, b: u64| (a + b) as f64 / 2e6;
    report.put(
        "serve.registry.replay_ms",
        ms(replay_ns, plain_replay_ns),
        "ms",
    );
    report.put("serve.geomstore.warm_ms", ms(warm_ns, plain_warm_ns), "ms");
    report.put(
        "serve.transport_us",
        tcp_p50_us - untraced.median() / 1e3,
        "us",
    );
    report.put_breakdown(&tracer, ROOT, "serve", EPOCH_REQUESTS, untraced.median());
    report.note(format!(
        "in-process replay: {EPOCH_REQUESTS} requests, untraced p50 {:.1} us",
        untraced.median() / 1e3
    ));
    Ok(tracer)
}

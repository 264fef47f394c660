//! Integration tests of `coldtall serve`: the daemon binary end to
//! end, over TCP and stdin, with the persistent run registry.
//!
//! The acceptance contract pinned here:
//!
//! * concurrent TCP clients receive responses *bit-identical* to what
//!   the library's own [`RequestHandler`] renders for the same request
//!   (server and test share the wire renderer, and the engine is
//!   deterministic across processes and thread counts);
//! * a registry written by a 4-thread daemon replays into a 1-thread
//!   daemon whose sweep answer is byte-identical, with a warm cache
//!   (nonzero hits) to show no re-solving happened;
//! * corrupt or truncated registry lines are counted and skipped,
//!   never fatal;
//! * stdin EOF drains in-flight work and exits 0 without dropping
//!   registry records (the file ends on a complete line);
//! * hostile bytes never cost the stream: a non-UTF-8 or over-long
//!   line gets a typed error and the next request is still answered,
//!   a character split across a read timeout is resumed, and an
//!   over-long line is not buffered.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Duration;

use coldtall::core::{Explorer, RequestHandler};
use coldtall::obs::json::{self, Value};
use coldtall::serve::{parse_request, render_response, MAX_REQUEST_BYTES};
use coldtall_rng::SmallRng;

/// A running `coldtall serve` subprocess with its ready-line fields.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: Option<String>,
    replayed: u64,
    skipped: u64,
}

impl Daemon {
    fn start(args: &[&str], envs: &[(&str, &str)]) -> Self {
        let mut command = Command::new(env!("CARGO_BIN_EXE_coldtall"));
        command
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (key, value) in envs {
            command.env(key, value);
        }
        let mut child = command.spawn().expect("daemon spawns");
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut ready = String::new();
        stdout.read_line(&mut ready).expect("ready line");
        let ready = json::parse(ready.trim()).expect("ready line is JSON");
        assert_eq!(
            ready.get("event"),
            Some(&Value::String("ready".to_string())),
            "first stdout line announces readiness"
        );
        let addr = match ready.get("addr") {
            Some(Value::String(addr)) => Some(addr.clone()),
            _ => None,
        };
        let field = |name: &str| {
            ready
                .get(name)
                .and_then(Value::as_f64)
                .expect("ready-line count") as u64
        };
        Self {
            child,
            stdin,
            stdout,
            addr,
            replayed: field("replayed"),
            skipped: field("skipped"),
        }
    }

    /// Sends one request line over stdin and reads one response line.
    fn request(&mut self, line: &str) -> String {
        let stdin = self.stdin.as_mut().expect("stdin open");
        writeln!(stdin, "{line}").expect("request written");
        stdin.flush().expect("request flushed");
        let mut response = String::new();
        self.stdout.read_line(&mut response).expect("response line");
        response.trim_end().to_string()
    }

    /// Sends raw bytes over stdin, unterminated and unchecked.
    fn send_raw(&mut self, bytes: &[u8]) {
        let stdin = self.stdin.as_mut().expect("stdin open");
        stdin.write_all(bytes).expect("bytes written");
        stdin.flush().expect("bytes flushed");
    }

    /// Closes stdin (the graceful-shutdown trigger) and waits for a
    /// clean exit.
    fn shutdown(mut self) {
        drop(self.stdin.take());
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "drain must exit 0, got {status:?}");
    }
}

fn temp_registry(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("coldtall-serve-{tag}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// What the library itself renders for a request line — the expected
/// bytes for the daemon's response to the same line.
fn expected_response(handler: &RequestHandler, line: &str) -> String {
    let parsed = parse_request(line).expect("test request parses");
    assert!(parsed.deadline_ms.is_none(), "keep expected-path simple");
    let outcome = handler.handle(&parsed.request);
    render_response(parsed.request.kind(), parsed.id.as_deref(), &outcome)
}

#[test]
fn concurrent_tcp_clients_get_bit_identical_responses() {
    let requests: Vec<String> = [
        r#"{"cmd":"characterize","id":"a"}"#,
        r#"{"cmd":"characterize","tech":"edram","temp":77,"id":"b"}"#,
        r#"{"cmd":"characterize","tech":"pcm","dies":4,"id":"c"}"#,
        r#"{"cmd":"characterize","tech":"pcm","tentpole":"pess","dies":8,"id":"d"}"#,
        r#"{"cmd":"characterize","tech":"stt","dies":2,"id":"e"}"#,
        // The cryo-NVM region (ISSUE 9): Δ(T) STT-MRAM at 77 K.
        r#"{"cmd":"characterize","tech":"stt-ram","temp":77,"dies":4,"id":"e2"}"#,
        r#"{"cmd":"characterize","tech":"rram","dies":8,"id":"f"}"#,
        r#"{"cmd":"evaluate","tech":"edram","temp":77,"bench":"mcf","id":"g"}"#,
        r#"{"cmd":"evaluate","tech":"pcm","dies":8,"bench":"namd","id":"h"}"#,
        // A typed error must also round-trip identically.
        r#"{"cmd":"evaluate","bench":"doom","id":"i"}"#,
    ]
    .iter()
    .map(ToString::to_string)
    .collect();

    // The library's own answers, rendered through the shared renderer.
    let metrics = coldtall::obs::Registry::new();
    let handler = RequestHandler::new(
        Explorer::with_registry(
            coldtall::tech::ProcessNode::ptm_22nm_hp(),
            coldtall::array::Objective::EnergyDelayProduct,
            &metrics,
        ),
        &metrics,
        None,
    );
    let expected: Vec<String> = requests
        .iter()
        .map(|line| expected_response(&handler, line))
        .collect();

    let daemon = Daemon::start(&["--listen", "127.0.0.1:0"], &[]);
    let addr = daemon.addr.clone().expect("daemon listens");

    // One client thread per request, all in flight together.
    let results: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|line| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(&addr).expect("client connects");
                    writeln!(stream, "{line}").expect("request sent");
                    stream.flush().expect("request flushed");
                    let mut reader = BufReader::new(stream);
                    let mut response = String::new();
                    reader.read_line(&mut response).expect("response read");
                    response.trim_end().to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    assert!(requests.len() >= 8, "the contract covers >= 8 concurrent clients");
    for ((line, got), want) in requests.iter().zip(&results).zip(&expected) {
        assert_eq!(got, want, "served bytes differ from library bytes for {line}");
    }
    daemon.shutdown();
}

#[test]
fn stdin_requests_drain_and_persist_the_registry() {
    let registry = temp_registry("drain");
    let mut daemon = Daemon::start(
        &["--registry", registry.to_str().unwrap()],
        &[("COLDTALL_THREADS", "2")],
    );
    assert_eq!(daemon.replayed, 0, "fresh registry has nothing to replay");

    let response = daemon.request(r#"{"cmd":"characterize","tech":"pcm","dies":4,"id":1}"#);
    let parsed = json::parse(&response).expect("response is JSON");
    assert_eq!(parsed.get("ok"), Some(&Value::Bool(true)), "{response}");

    // A cryogenic STT-MRAM point characterizes end-to-end through the
    // serve path and lands in the registry like any other point.
    let response =
        daemon.request(r#"{"cmd":"characterize","tech":"stt-ram","temp":77,"dies":4,"id":2}"#);
    let parsed = json::parse(&response).expect("cryo-STT response is JSON");
    assert_eq!(parsed.get("ok"), Some(&Value::Bool(true)), "{response}");

    let status = daemon.request(r#"{"cmd":"status"}"#);
    let parsed = json::parse(&status).expect("status is JSON");
    let served = parsed
        .get("result")
        .and_then(|r| r.get("requests_served"))
        .and_then(Value::as_f64)
        .expect("requests_served");
    assert!(served >= 2.0, "both requests counted: {status}");

    daemon.shutdown();

    // EOF-drain must leave a complete, parseable registry: every line
    // valid JSON, file ending on a newline (no truncated final record).
    let contents = std::fs::read_to_string(&registry).expect("registry written");
    assert!(contents.ends_with('\n'), "no truncated final record");
    let lines: Vec<&str> = contents.lines().collect();
    assert!(lines.len() >= 2, "both characterizations were recorded");
    for line in &lines {
        let record = json::parse(line).expect("registry line is JSON");
        assert_eq!(record.get("schema").and_then(Value::as_f64), Some(2.0));
        // Schema v2: every record carries the resolved backend.
        assert_eq!(
            record.get("backend"),
            Some(&Value::String("destiny".to_string())),
            "both points route to Destiny: {line}"
        );
    }
    // The cryo-STT point's key is in there, at its 77 K bit pattern.
    assert!(
        contents.contains("STT-RAM|optimistic|d4|t4053400000000000"),
        "cryo-STT key recorded: {contents}"
    );
    let _ = std::fs::remove_file(&registry);
}

#[test]
fn registry_replay_warms_a_fresh_daemon_bit_identically() {
    let registry = temp_registry("replay");
    let sweep_request = r#"{"cmd":"sweep","id":"s"}"#;

    // Pass 1: a 4-thread daemon computes the full study sweep cold.
    let mut hot = Daemon::start(
        &["--registry", registry.to_str().unwrap()],
        &[("COLDTALL_THREADS", "4")],
    );
    let hot_sweep = hot.request(sweep_request);
    hot.shutdown();
    assert!(
        json::parse(&hot_sweep).is_ok(),
        "sweep response parses: {}",
        &hot_sweep[..hot_sweep.len().min(200)]
    );

    // Pass 2: a 1-thread daemon replays the registry...
    let mut cold = Daemon::start(
        &["--registry", registry.to_str().unwrap()],
        &[("COLDTALL_THREADS", "1")],
    );
    assert!(
        cold.replayed >= 31,
        "the study's characterizations replay at startup, got {}",
        cold.replayed
    );
    assert_eq!(cold.skipped, 0, "a clean registry skips nothing");

    // ...answers the same sweep byte-identically...
    let cold_sweep = cold.request(sweep_request);
    assert_eq!(
        hot_sweep, cold_sweep,
        "4-thread-written / 1-thread-replayed sweeps must be bit-identical"
    );

    // ...and did so from the warm cache, not by re-solving.
    let status = cold.request(r#"{"cmd":"status"}"#);
    let parsed = json::parse(&status).expect("status is JSON");
    let hits = parsed
        .get("result")
        .and_then(|r| r.get("cache_hits"))
        .and_then(Value::as_f64)
        .expect("cache_hits in status");
    assert!(hits > 0.0, "replayed cache must serve the sweep: {status}");
    cold.shutdown();

    let _ = std::fs::remove_file(&registry);
}

#[test]
fn corrupt_registry_lines_are_counted_and_skipped() {
    let registry = temp_registry("corrupt");

    // Seed one good record through a real daemon.
    let mut seeder = Daemon::start(&["--registry", registry.to_str().unwrap()], &[]);
    let response = seeder.request(r#"{"cmd":"characterize","tech":"edram","temp":77}"#);
    assert!(response.contains("\"ok\":true"), "{response}");
    seeder.shutdown();

    // Vandalize it: garbage, a wrong-schema record, and a torn final
    // line with no trailing newline (a crash mid-append).
    let good = std::fs::read_to_string(&registry).expect("seeded registry");
    let first = good.lines().next().expect("one record");
    let torn = &first[..first.len() / 2];
    let vandalized = format!(
        "{good}not json\n{}\n{torn}",
        first.replacen("\"schema\":2", "\"schema\":99", 1)
    );
    std::fs::write(&registry, vandalized).expect("vandalized write");

    let daemon = Daemon::start(&["--registry", registry.to_str().unwrap()], &[]);
    assert!(daemon.replayed >= 1, "good records still replay");
    assert_eq!(
        daemon.skipped, 3,
        "garbage + wrong schema + torn line are counted, not fatal"
    );
    daemon.shutdown();
    let _ = std::fs::remove_file(&registry);
}

#[test]
fn serve_rejects_malformed_requests_without_dying() {
    let mut daemon = Daemon::start(&[], &[]);
    for (bad, needle) in [
        ("not json", "\"ok\":false"),
        (r#"{"cmd":"teleport"}"#, "unknown cmd"),
        (r#"{"cmd":"characterize","dies":3}"#, "\"ok\":false"),
        (r#"{"cmd":"characterize","temp":20}"#, "60-400 K"),
        (r#"{"cmd":"evaluate","bench":"doom"}"#, "unknown benchmark"),
    ] {
        let response = daemon.request(bad);
        assert!(
            response.contains(needle),
            "request {bad:?} should answer with {needle:?}, got {response}"
        );
    }
    // The daemon is still healthy after every rejection.
    let status = daemon.request(r#"{"cmd":"status"}"#);
    assert!(status.contains("\"ok\":true"), "{status}");
    daemon.shutdown();
}

#[test]
fn dashboard_render_writes_static_pages() {
    let registry = temp_registry("dash");
    let mut seeder = Daemon::start(&["--registry", registry.to_str().unwrap()], &[]);
    let response = seeder.request(r#"{"cmd":"sweep"}"#);
    assert!(response.contains("\"ok\":true"));
    seeder.shutdown();

    let mut dir = std::env::temp_dir();
    dir.push(format!("coldtall-serve-dash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_coldtall"))
        .args([
            "serve",
            "--registry",
            registry.to_str().unwrap(),
            "--render",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("render runs");
    assert!(output.status.success(), "{:?}", output);
    for name in ["index.html", "pareto.html", "search.html", "latency.html"] {
        let page = std::fs::read_to_string(dir.join(name))
            .unwrap_or_else(|e| panic!("{name} written: {e}"));
        assert!(page.contains("</html>"), "{name} is complete HTML");
    }
    let pareto = std::fs::read_to_string(dir.join("pareto.html")).unwrap();
    assert!(pareto.contains("<svg"), "pareto page carries the scatter");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&registry);
}

/// A TCP client of `daemon` whose reads give up (and fail the test)
/// instead of hanging if a response never comes.
fn hostile_client(daemon: &Daemon) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(daemon.addr.as_deref().expect("daemon listens"))
        .expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout set");
    let reader = BufReader::new(stream.try_clone().expect("stream clones"));
    (stream, reader)
}

/// Reads one response line and parses it.
fn read_response(reader: &mut impl BufRead) -> Value {
    let mut line = String::new();
    reader.read_line(&mut line).expect("response line");
    assert!(line.ends_with('\n'), "a whole response line, got {line:?}");
    json::parse(line.trim_end()).unwrap_or_else(|e| panic!("response is JSON ({e:?}): {line}"))
}

fn is_ok(response: &Value) -> Option<bool> {
    match response.get("ok") {
        Some(Value::Bool(ok)) => Some(*ok),
        _ => None,
    }
}

fn error_text(response: &Value) -> String {
    match response.get("error") {
        Some(Value::String(error)) => error.clone(),
        other => panic!("typed error expected, got {other:?}"),
    }
}

fn id_of(response: &Value) -> Option<&str> {
    match response.get("id") {
        Some(Value::String(id)) => Some(id),
        _ => None,
    }
}

/// The daemon's peak resident set, from `/proc` (Linux only).
fn peak_rss_kib(daemon: &Daemon) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{}/status", daemon.child.id())).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn hostile_invalid_utf8_over_tcp_is_refused_and_the_connection_continues() {
    let daemon = Daemon::start(&["--listen", "127.0.0.1:0"], &[]);
    let (mut stream, mut reader) = hostile_client(&daemon);
    stream.write_all(b"{\"cmd\":\"st\xffatus\"}\n").unwrap();
    stream.write_all(b"{\"cmd\":\"status\",\"id\":\"next\"}\n").unwrap();
    let refused = read_response(&mut reader);
    assert_eq!(is_ok(&refused), Some(false));
    assert!(error_text(&refused).contains("UTF-8"), "{refused:?}");
    let answered = read_response(&mut reader);
    assert_eq!(is_ok(&answered), Some(true), "{answered:?}");
    assert_eq!(id_of(&answered), Some("next"));
    drop(stream);
    daemon.shutdown();
}

#[test]
fn hostile_character_split_across_the_read_timeout_is_resumed() {
    let daemon = Daemon::start(&["--listen", "127.0.0.1:0"], &[]);
    let (mut stream, mut reader) = hostile_client(&daemon);
    let request = "{\"cmd\":\"status\",\"id\":\"caf\u{e9}\"}\n".as_bytes();
    // Cut inside the two-byte 'é' and pause well past the daemon's
    // 50 ms read timeout before sending the rest.
    let cut = request.iter().position(|&b| b == 0xc3).expect("é lead byte") + 1;
    stream.write_all(&request[..cut]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(300));
    stream.write_all(&request[cut..]).unwrap();
    let answered = read_response(&mut reader);
    assert_eq!(is_ok(&answered), Some(true), "{answered:?}");
    assert_eq!(id_of(&answered), Some("caf\u{e9}"));
    drop(stream);
    daemon.shutdown();
}

#[test]
fn hostile_overlong_line_is_refused_without_being_buffered() {
    let daemon = Daemon::start(&["--listen", "127.0.0.1:0"], &[]);
    let (mut stream, mut reader) = hostile_client(&daemon);
    stream.write_all(b"{\"cmd\":\"status\"}\n").unwrap();
    assert_eq!(is_ok(&read_response(&mut reader)), Some(true));
    let before = peak_rss_kib(&daemon);

    // 16x the limit with no newline, then the end of the line and a
    // request that must still be answered.
    let chunk = vec![b'x'; MAX_REQUEST_BYTES];
    for _ in 0..16 {
        stream.write_all(&chunk).unwrap();
    }
    stream.write_all(b"\n{\"cmd\":\"status\",\"id\":\"after\"}\n").unwrap();
    let refused = read_response(&mut reader);
    assert_eq!(is_ok(&refused), Some(false));
    assert!(error_text(&refused).contains("exceeds"), "{refused:?}");
    let answered = read_response(&mut reader);
    assert_eq!(is_ok(&answered), Some(true), "{answered:?}");
    assert_eq!(id_of(&answered), Some("after"));

    if let (Some(before), Some(after)) = (before, peak_rss_kib(&daemon)) {
        let grown_mib = after.saturating_sub(before) / 1024;
        assert!(
            grown_mib < 8,
            "a 16 MiB line grew the daemon's peak RSS by {grown_mib} MiB"
        );
    }
    drop(stream);
    daemon.shutdown();
}

#[test]
fn hostile_invalid_utf8_on_stdin_is_refused_and_the_daemon_continues() {
    let mut daemon = Daemon::start(&[], &[]);
    daemon.send_raw(b"{\"cmd\":\"st\xffatus\"}\n");
    let mut line = String::new();
    daemon.stdout.read_line(&mut line).expect("response line");
    let refused = json::parse(line.trim_end()).expect("response is JSON");
    assert_eq!(is_ok(&refused), Some(false));
    assert!(error_text(&refused).contains("UTF-8"), "{line}");
    let status = daemon.request(r#"{"cmd":"status"}"#);
    assert!(status.contains("\"ok\":true"), "{status}");
    daemon.shutdown();
}

#[test]
fn hostile_random_byte_streams_never_stop_the_daemon() {
    let daemon = Daemon::start(&["--listen", "127.0.0.1:0"], &[]);
    for seed in 1..=3 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let noise: Vec<u8> = (0..64 * 1024).map(|_| rng.next_u64() as u8).collect();
        let (mut stream, mut reader) = hostile_client(&daemon);
        stream.write_all(&noise).unwrap();
        stream.write_all(b"\n{\"cmd\":\"status\",\"id\":\"after-noise\"}\n").unwrap();
        let lines = noise.iter().filter(|&&b| b == b'\n').count() + 2;
        let mut refused = 0;
        loop {
            let response = read_response(&mut reader);
            if id_of(&response) == Some("after-noise") {
                assert_eq!(is_ok(&response), Some(true), "{response:?}");
                break;
            }
            assert_eq!(is_ok(&response), Some(false), "noise is never a request");
            refused += 1;
            assert!(refused < lines, "seed {seed}: more responses than lines");
        }
        assert!(refused > 0, "seed {seed}: the noise lines were answered");
    }
    daemon.shutdown();
}

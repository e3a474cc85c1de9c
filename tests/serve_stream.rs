//! Portend-as-a-service contracts (the ISSUE 10 acceptance criteria):
//!
//! 1. **Streaming equivalence**: the daemon's streamed verdict frames
//!    are exactly the terminating `RunReport`'s races — same set, and
//!    byte-identical JSON per race at the frame's `index`.
//! 2. **Warmth compounds across daemon restarts**: a second submission
//!    of the same program against the same store directory
//!    performs strictly fewer solver invocations, through the
//!    fingerprint-keyed store the first run saved.
//! 3. **Foreign and corrupt stores degrade distinctly and cleanly**: a
//!    store keyed to another program is rejected with the dedicated
//!    counter (never silently cold-started), a structurally damaged
//!    store cold-starts without that counter, and verdicts are
//!    unaffected either way.
//! 4. **A silent client cannot wedge the socket daemon**: a connection
//!    that sends nothing is dropped after the session timeout, and the
//!    next client is answered.
//! 5. **The socket daemon deletes only its own stale socket**: a path
//!    that is not a socket, or a live daemon's socket, is refused and
//!    left untouched; a stale socket file is replaced and served.
//! 6. **Both front ends emit the same bytes**: `portend analyze` and the
//!    daemon run one per-request routine, so their lines match once the
//!    wall-clock fields are zeroed, and the `done` frame's report is the
//!    `--report-dir` file byte for byte.
//!
//! The socket tests wait on channels with deadlines, so a daemon that
//! never answers fails the test instead of hanging it.

use std::path::PathBuf;
use std::sync::Arc;

use portend_repro::portend::RunReport;
use portend_repro::portend_cli::{analyze_workload, AnalyzeOptions};
use portend_repro::portend_obs::json::{self, Json};
use portend_repro::portend_serve::{Frame, Server, ServerConfig};
use portend_repro::portend_symex::{
    CmpOp, Expr, Solver, SolverCache, StoreManager, VarTable, WarmPolicy,
};
use portend_repro::portend_workloads as workloads;

/// A unique scratch directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("portend-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one request line through a server, parsing the emitted frames.
fn roundtrip(server: &Server, line: &str) -> Vec<Frame> {
    let mut input = std::io::Cursor::new(format!("{line}\n").into_bytes());
    let mut output = Vec::new();
    server.serve_io(&mut input, &mut output).expect("serve");
    String::from_utf8(output)
        .expect("utf8 frames")
        .lines()
        .map(|l| Frame::parse(l).expect("parseable frame"))
        .collect()
}

/// The analyze request line for a workload.
fn analyze_line(id: u64, workload: &str) -> String {
    format!("{{\"op\":\"analyze\",\"id\":{id},\"workload\":\"{workload}\",\"workers\":2}}")
}

/// Splits an analyze response into its verdict frames and final report.
fn split(frames: &[Frame]) -> (&[Frame], RunReport) {
    let (last, verdicts) = frames.split_last().expect("at least the done frame");
    let Frame::Done { report, .. } = last else {
        panic!("terminating frame must be done, got {last:?}");
    };
    let report = RunReport::from_json_value(report).expect("report parses");
    (verdicts, report)
}

/// Solver invocations a report's run performed (cumulative counters are
/// fine here: every test uses a fresh server per submission).
fn solves(report: &RunReport) -> u64 {
    let c = report.cache.expect("cache enabled");
    c.misses + c.slice_misses
}

/// A race object's bytes with the one run-dependent member (wall-clock
/// `time_ns`) dropped — what cross-run verdict comparisons pin.
fn stable_race(v: &Json) -> String {
    match v {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "time_ns")
                .cloned()
                .collect(),
        )
        .render(),
        other => other.render(),
    }
}

/// Contract 1: every streamed frame is byte-identical to the report
/// race at its `index`, `seq` is the completion order, and the frames
/// cover the report exactly.
#[test]
fn streamed_frames_equal_the_report_verdicts() {
    let server = Server::new(ServerConfig::default()).expect("server");
    let frames = roundtrip(&server, &analyze_line(5, "ctrace"));
    let (verdicts, _) = split(&frames);
    // Compare raw JSON: re-render the done frame's races through the
    // same writer the frames used.
    let Frame::Done { report, .. } = frames.last().unwrap() else {
        unreachable!()
    };
    let races = report.get("races").and_then(Json::as_arr).expect("races");
    assert_eq!(verdicts.len(), races.len(), "one frame per report race");
    let mut covered = vec![false; races.len()];
    for (at, frame) in verdicts.iter().enumerate() {
        let Frame::Verdict {
            request,
            seq,
            index,
            race,
        } = frame
        else {
            panic!("expected verdict frame, got {frame:?}");
        };
        assert_eq!(*request, 5, "frames echo the request id");
        assert_eq!(*seq, at as u64, "seq is the completion order");
        assert_eq!(
            race.render(),
            races[*index as usize].render(),
            "frame bytes must equal report.races[{index}]"
        );
        assert!(!covered[*index as usize], "no index streams twice");
        covered[*index as usize] = true;
    }
    assert!(covered.iter().all(|c| *c), "every report race streamed");
}

/// The members that carry wall-clock time.
const TIME_KEYS: [&str; 5] = [
    "time_ns",
    "wall_ns",
    "busy_ns",
    "busy_total_ns",
    "record_time_ns",
];

/// `v` with every wall-clock member set to 0.
fn zero_times(v: &mut Json) {
    match v {
        Json::Obj(members) => {
            for (k, v) in members {
                if TIME_KEYS.contains(&k.as_str()) {
                    *v = Json::Int(0);
                } else {
                    zero_times(v);
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(zero_times),
        _ => {}
    }
}

/// Frame lines re-rendered with the wall-clock members zeroed (parse and
/// render are the identity on the writer's documents).
fn timeless(lines: &str) -> Vec<String> {
    lines
        .lines()
        .map(|line| {
            let mut v = json::parse(line).expect("frame line is JSON");
            zero_times(&mut v);
            v.render()
        })
        .collect()
}

/// Contract 6: for bbuf and ctrace at one worker and request id 7,
/// `analyze_workload`'s lines equal the daemon's `serve_io` lines with
/// the wall-clock fields zeroed, and the `done` frame's report equals
/// the `--report-dir` file byte for byte.
#[test]
fn cli_and_daemon_emit_the_same_bytes() {
    let dir = scratch_dir("same-bytes");
    std::fs::create_dir_all(&dir).expect("report dir");
    let opts = AnalyzeOptions {
        workers: 1,
        report_dir: Some(dir.clone()),
        ..Default::default()
    };
    for name in ["bbuf", "ctrace"] {
        let w = workloads::by_name(name).expect("workload");
        let mut cli = Vec::new();
        analyze_workload(&w, 7, None, &opts, &mut cli).expect("analyze");
        let cli = String::from_utf8(cli).expect("utf8 frames");

        let server = Server::new(ServerConfig::default()).expect("server");
        let request =
            format!("{{\"op\":\"analyze\",\"id\":7,\"workload\":\"{name}\",\"workers\":1}}\n");
        let mut daemon = Vec::new();
        server
            .serve_io(&mut std::io::Cursor::new(request.into_bytes()), &mut daemon)
            .expect("serve");
        let daemon = String::from_utf8(daemon).expect("utf8 frames");

        assert!(cli.lines().count() > 1, "{name} streams verdicts");
        assert_eq!(timeless(&cli), timeless(&daemon), "{name}");

        let file = std::fs::read_to_string(dir.join(format!("{name}.json"))).expect("report file");
        let done = cli.lines().last().expect("done line");
        assert_eq!(
            done,
            format!("{{\"frame\":\"done\",\"request\":7,\"report\":{file}}}"),
            "{name}: the done frame's report is the report file"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract 2: the second submission of the same program — on a fresh
/// server over the same store directory, so only the managed store can
/// carry warmth — solves strictly less and records the warm load.
#[test]
fn second_submission_warm_starts_from_the_managed_store() {
    let dir = scratch_dir("warm");
    let config = || ServerConfig {
        store_dir: Some(dir.clone()),
        ..Default::default()
    };
    let line = analyze_line(1, "ctrace");

    let first_server = Server::new(config()).expect("first server");
    let (_, first) = split(&roundtrip(&first_server, &line));
    drop(first_server); // daemon restart: resident caches are gone

    let second_server = Server::new(config()).expect("second server");
    let (_, second) = split(&roundtrip(&second_server, &line));

    assert!(
        solves(&second) < solves(&first),
        "store-warmed run must solve strictly less ({} vs {})",
        solves(&second),
        solves(&first)
    );
    let c = second.cache.expect("cache enabled");
    assert!(c.warmed > 0, "second run must load the managed store");
    assert_eq!(c.warm_mismatches, 0, "store is faithful");
    assert_eq!(c.warm_rejected_fingerprint, 0, "own store is not foreign");

    // Verdicts are identical across cold and store-warmed runs.
    assert_eq!(first.races.len(), second.races.len());
    for (a, b) in first.races.iter().zip(&second.races) {
        assert_eq!(
            stable_race(&a.to_json_value()),
            stable_race(&b.to_json_value()),
            "warmth must never change a verdict"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract 3: a store keyed to another program is rejected through the
/// dedicated counter and the run cold-starts cleanly; a structurally
/// corrupt store cold-starts *without* that counter (the signals are
/// distinct); and once the run saves its own store back, warmth
/// resumes.
#[test]
fn foreign_and_corrupt_stores_reject_distinctly_then_recover() {
    let w = workloads::by_name("ctrace").expect("workload");
    let fingerprint = w.fingerprint();
    let dir = scratch_dir("foreign");
    std::fs::create_dir_all(&dir).expect("store dir");
    let store_path = dir.join(format!("{fingerprint:016x}.warm"));
    let config = || ServerConfig {
        store_dir: Some(dir.clone()),
        ..Default::default()
    };
    let line = analyze_line(1, "ctrace");
    let reference = {
        let server = Server::new(ServerConfig::default()).expect("reference server");
        let (_, report) = split(&roundtrip(&server, &line));
        report
    };
    let verdict_bytes = |r: &RunReport| -> Vec<String> {
        r.races
            .iter()
            .map(|o| stable_race(&o.to_json_value()))
            .collect()
    };

    // Plant a store at ctrace's path whose header names another
    // program: a populated cache saved under a different fingerprint in
    // a store directory of its own, then copied into ctrace's slot.
    {
        let foreign = Arc::new(SolverCache::new(2));
        let mut vars = VarTable::new();
        let x = vars.fresh("x", -4, 4);
        let cached = Solver::new().cached(Arc::clone(&foreign));
        cached.check_sliced(&[Expr::var(x).cmp(CmpOp::Ge, Expr::konst(0))], &vars);
        let other = StoreManager::new(scratch_dir("foreign-src"))
            .expect("foreign store dir")
            .with_policy(WarmPolicy::keep_everything());
        other
            .save_from(0xDEAD_BEEF, &foreign)
            .expect("save foreign store");
        std::fs::copy(other.path_for(0xDEAD_BEEF), &store_path).expect("plant foreign store");
        let _ = std::fs::remove_dir_all(other.dir());
    }

    let server = Server::new(config()).expect("server");
    let (_, rejected_run) = split(&roundtrip(&server, &line));
    let c = rejected_run.cache.expect("cache enabled");
    assert_eq!(
        c.warm_rejected_fingerprint, 1,
        "foreign store must be rejected distinctly, never silently cold-started"
    );
    assert_eq!(c.warmed, 0, "nothing from the foreign store is loaded");
    assert_eq!(
        verdict_bytes(&rejected_run),
        verdict_bytes(&reference),
        "rejection must still be a clean cold start"
    );
    drop(server);

    // The run saved its own, correctly-keyed store back over the
    // foreign one: the next submission warms normally.
    let server = Server::new(config()).expect("recovered server");
    let (_, recovered) = split(&roundtrip(&server, &line));
    let c = recovered.cache.expect("cache enabled");
    assert_eq!(c.warm_rejected_fingerprint, 0);
    assert!(c.warmed > 0, "recovered run warms from the replaced store");
    drop(server);

    // Structural corruption is the *other* failure: no fingerprint
    // rejection, still a clean cold start.
    std::fs::write(&store_path, b"not a warm store at all").expect("corrupt");
    let server = Server::new(config()).expect("server over corrupt store");
    let (_, corrupt_run) = split(&roundtrip(&server, &line));
    let c = corrupt_run.cache.expect("cache enabled");
    assert_eq!(
        c.warm_rejected_fingerprint, 0,
        "corruption is not foreignness"
    );
    assert_eq!(c.warmed, 0, "nothing loads from a corrupt store");
    assert_eq!(verdict_bytes(&corrupt_run), verdict_bytes(&reference));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Contracts 4 and 5, over a real Unix socket.
#[cfg(unix)]
mod socket {
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::Path;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    use portend_repro::portend_cli;
    use portend_repro::portend_serve::{Frame, Request, Server, ServerConfig, SESSION_IO_TIMEOUT};

    use super::scratch_dir;

    /// A socket daemon with default configuration, serving on `socket` in
    /// a thread. The receiver yields `serve_unix`'s result when it returns.
    fn spawn_daemon(socket: &Path) -> mpsc::Receiver<std::io::Result<()>> {
        let server = Server::new(ServerConfig::default()).expect("server");
        let socket = socket.to_path_buf();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(server.serve_unix(&socket));
        });
        rx
    }

    /// Submits `request` from a thread and waits at most `deadline` for its
    /// terminating frame; `None` when the daemon did not answer in time.
    fn submit_within(socket: &Path, request: Request, deadline: Duration) -> Option<Frame> {
        let socket = socket.to_path_buf();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut out = Vec::new();
            let frame = portend_cli::submit(&socket, &request, &mut out)
                .ok()
                .and_then(|_| {
                    let text = String::from_utf8(out).ok()?;
                    Frame::parse(text.lines().last()?).ok()
                });
            let _ = tx.send(frame);
        });
        rx.recv_timeout(deadline).ok().flatten()
    }

    /// Pings until a freshly spawned daemon answers (it binds in its own
    /// thread), panicking if it never does.
    fn await_daemon(socket: &Path) {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            if socket.exists() {
                let ping = Request::Ping { id: 0 };
                if let Some(Frame::Pong { .. }) =
                    submit_within(socket, ping, Duration::from_secs(5))
                {
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("daemon at {} never answered a ping", socket.display());
    }

    /// Sends `shutdown` and waits for the daemon thread to return cleanly.
    fn shut_down(socket: &Path, daemon: mpsc::Receiver<std::io::Result<()>>) {
        let bye = submit_within(
            socket,
            Request::Shutdown { id: 99 },
            Duration::from_secs(10),
        );
        assert!(matches!(bye, Some(Frame::Bye { request: 99 })), "{bye:?}");
        let exit = daemon
            .recv_timeout(Duration::from_secs(10))
            .expect("daemon returns after shutdown");
        assert!(exit.is_ok(), "{exit:?}");
    }

    /// Contract 4: a client that connects and sends nothing holds the
    /// one-connection-at-a-time daemon only until the session timeout; a
    /// second client's ping is answered within that timeout plus slack.
    #[test]
    fn silent_client_cannot_wedge_the_daemon() {
        let dir = scratch_dir("silent");
        std::fs::create_dir_all(&dir).expect("dir");
        let socket = dir.join("d.sock");
        let daemon = spawn_daemon(&socket);
        await_daemon(&socket);

        let silent = UnixStream::connect(&socket).expect("silent client connects");
        let deadline = SESSION_IO_TIMEOUT + Duration::from_secs(5);
        let pong = submit_within(&socket, Request::Ping { id: 7 }, deadline);
        assert!(
            matches!(pong, Some(Frame::Pong { request: 7 })),
            "a silent client kept the ping unanswered for {deadline:?}: {pong:?}"
        );
        drop(silent);
        shut_down(&socket, daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Contract 5a: a regular file at the socket path is not deleted;
    /// `serve_unix` returns an error instead of serving.
    #[test]
    fn serve_unix_refuses_a_regular_file() {
        let dir = scratch_dir("regular");
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join("not-a-socket");
        std::fs::write(&path, b"precious bytes").expect("write file");
        let daemon = spawn_daemon(&path);
        let exit = daemon
            .recv_timeout(Duration::from_secs(5))
            .expect("serve_unix must return, not serve over the file");
        assert!(exit.is_err(), "{exit:?}");
        assert_eq!(std::fs::read(&path).expect("file kept"), b"precious bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Contract 5b: a second daemon on a live daemon's socket path returns
    /// an error, and the first daemon keeps answering.
    #[test]
    fn serve_unix_refuses_a_live_daemons_socket() {
        let dir = scratch_dir("live");
        std::fs::create_dir_all(&dir).expect("dir");
        let socket = dir.join("d.sock");
        let first = spawn_daemon(&socket);
        await_daemon(&socket);

        let second = spawn_daemon(&socket);
        let exit = second
            .recv_timeout(Duration::from_secs(5))
            .expect("the second serve_unix must return, not take over the path");
        assert!(exit.is_err(), "{exit:?}");
        let pong = submit_within(&socket, Request::Ping { id: 3 }, Duration::from_secs(10));
        assert!(
            matches!(pong, Some(Frame::Pong { request: 3 })),
            "the first daemon still answers: {pong:?}"
        );
        shut_down(&socket, first);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Contract 5c: a socket file whose listener is gone (dropped without
    /// unlinking) is stale; `serve_unix` replaces it and serves.
    #[test]
    fn serve_unix_replaces_a_stale_socket() {
        let dir = scratch_dir("stale");
        std::fs::create_dir_all(&dir).expect("dir");
        let socket = dir.join("d.sock");
        drop(UnixListener::bind(&socket).expect("bind"));
        assert!(socket.exists(), "dropping a listener leaves its file");

        let daemon = spawn_daemon(&socket);
        await_daemon(&socket);
        shut_down(&socket, daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Daemon client: the `portend submit` code path.
//!
//! Connects to a running `portend serve --socket` daemon over its Unix
//! domain socket, writes one request line, and relays every response
//! frame to `out` until the request's terminating frame arrives
//! (`done`, `pong`, `bye`, or `error`). Lines are relayed as they are,
//! never parsed: a request's frames are verdict lines up to its
//! terminating frame, so the first line without
//! [`VERDICT_PREFIX`] ends the relay.

use std::io::Write;

use portend_serve::{Request, VERDICT_PREFIX};

use crate::CliError;

/// Sends `request` to the daemon at `socket` and streams response
/// frames to `out`. Returns the number of frames relayed.
#[cfg(unix)]
pub fn submit(
    socket: &std::path::Path,
    request: &Request,
    out: &mut dyn Write,
) -> Result<usize, CliError> {
    use std::io::BufRead;

    let stream = std::os::unix::net::UnixStream::connect(socket).map_err(|e| {
        CliError::new(format!(
            "cannot reach daemon at {}: {e} (is `portend serve --socket` running?)",
            socket.display()
        ))
    })?;
    let mut writer = stream.try_clone().map_err(CliError::from)?;
    writeln!(writer, "{}", request.render())?;
    writer.flush()?;
    // Half-close our sending side so a daemon reading to EOF (stdio
    // semantics) still terminates the session after this request.
    let _ = stream.shutdown(std::net::Shutdown::Write);

    let reader = std::io::BufReader::new(stream);
    let mut relayed = 0usize;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        writeln!(out, "{line}")?;
        relayed += 1;
        // Stop at the request's terminating frame; anything after it
        // belongs to no request of ours.
        if !line.starts_with(VERDICT_PREFIX) {
            break;
        }
    }
    if relayed == 0 {
        return Err(CliError::new(
            "daemon closed the connection without responding".to_string(),
        ));
    }
    Ok(relayed)
}

/// Unix-socket transport is not available on this platform.
#[cfg(not(unix))]
pub fn submit(
    _socket: &std::path::Path,
    _request: &Request,
    _out: &mut dyn Write,
) -> Result<usize, CliError> {
    Err(CliError::new(
        "`portend submit` needs Unix domain sockets".to_string(),
    ))
}

#[cfg(all(test, unix))]
mod tests {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixListener;
    use std::path::PathBuf;
    use std::thread::JoinHandle;

    use super::*;

    /// A daemon stand-in on a fresh socket: it accepts one connection,
    /// reads the request line, writes `lines` and hangs up. The handle
    /// yields the request line it read.
    fn canned_daemon(name: &str, lines: &'static [&'static str]) -> (PathBuf, JoinHandle<String>) {
        let dir =
            std::env::temp_dir().join(format!("portend-submit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("dir");
        let socket = dir.join("d.sock");
        let listener = UnixListener::bind(&socket).expect("bind");
        let daemon = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut request = String::new();
            BufReader::new(&stream)
                .read_line(&mut request)
                .expect("request line");
            let mut writer = &stream;
            for line in lines {
                // The client may hang up before the last line.
                let _ = writeln!(writer, "{line}");
            }
            request
        });
        (socket, daemon)
    }

    fn relay(name: &str, lines: &'static [&'static str]) -> (usize, String) {
        let (socket, daemon) = canned_daemon(name, lines);
        let request = Request::Analyze {
            id: 1,
            workload: "bbuf".into(),
            workers: 0,
        };
        let mut out = Vec::new();
        let relayed = submit(&socket, &request, &mut out).expect("submit");
        assert_eq!(daemon.join().expect("daemon"), request.render() + "\n");
        let _ = std::fs::remove_dir_all(socket.parent().expect("socket dir"));
        (relayed, String::from_utf8(out).expect("utf8"))
    }

    /// Verdict lines are relayed up to and including the first other
    /// line; a line after the terminating frame belongs to no request.
    #[test]
    fn submit_stops_at_the_first_line_that_is_not_a_verdict() {
        const LINES: &[&str] = &[
            r#"{"frame":"verdict","request":1,"seq":0,"index":1,"race":{"alloc":"b"}}"#,
            r#"{"frame":"verdict","request":1,"seq":1,"index":0,"race":{"alloc":"a"}}"#,
            r#"{"frame":"done","request":1,"report":{"races":[]}}"#,
            r#"{"frame":"verdict","request":1,"seq":2,"index":2,"race":{"alloc":"c"}}"#,
        ];
        let (relayed, out) = relay("done", LINES);
        assert_eq!(relayed, 3);
        assert_eq!(out, LINES[..3].join("\n") + "\n");

        const ERROR: &[&str] = &[r#"{"frame":"error","request":1,"message":"unknown workload"}"#];
        let (relayed, out) = relay("error", ERROR);
        assert_eq!(relayed, 1);
        assert_eq!(out, ERROR[0].to_string() + "\n");
    }
}

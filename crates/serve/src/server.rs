//! The resident daemon: request dispatch, per-program cache residency,
//! managed warm-store lifecycle, and the stdio / Unix-socket loops.

use std::collections::HashMap;
use std::io::{self, BufRead, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use portend::{PortendConfig, WarmSource};
use portend_obs::EventKind;
use portend_symex::{SolverCache, StoreBudget, StoreManager, WarmStoreError, DEFAULT_SHARDS};

use crate::analyze::{analyze_request, LineSink};
use crate::protocol::{Frame, Request};

/// The longest request line [`Server::serve_io`] accepts, in bytes,
/// newline excluded. Requests are a few dozen bytes; the cap only bounds
/// what one client can make the daemon buffer.
pub(crate) const MAX_REQUEST_LINE: usize = 1 << 20;

/// How long [`Server::serve_unix`] waits on one connection — for the
/// next request line, or for the client to take a frame — before it
/// ends that session. The daemon serves one connection at a time, so
/// this bounds how long a silent or stalled client can hold it.
pub const SESSION_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// How a [`Server`] is assembled.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Managed store directory for per-program warm stores; `None`
    /// keeps warm capital in-memory only (still shared across requests
    /// for the daemon's lifetime, lost on exit).
    pub store_dir: Option<PathBuf>,
    /// Disk budget for the store directory (ignored without one).
    pub budget: Option<StoreBudget>,
    /// Default farm width for requests that don't name one (`0` = one
    /// worker per CPU).
    pub workers: usize,
}

/// The resident analysis service.
///
/// One `Server` owns one [`StoreManager`] (when a store directory is
/// configured) and one resident [`SolverCache`] *per program
/// fingerprint*, shared across every request for that program — warm
/// capital compounds both in-memory (within the daemon's lifetime) and
/// on disk (across daemon restarts, via the managed stores).
///
/// The server is transport-agnostic: one private routine maps a request
/// line to its finished frame lines, [`Server::serve_stdio`] /
/// [`Server::serve_unix`] write those lines as they come, and
/// [`Server::handle_line`] hands them over parsed. Frames stream — a
/// line is emitted per classified cluster, not per request.
pub struct Server {
    manager: Option<Arc<StoreManager>>,
    caches: Mutex<HashMap<u64, Arc<SolverCache>>>,
    workers: usize,
    shutdown: AtomicBool,
}

impl Server {
    /// Builds a server, creating the store directory when configured.
    pub fn new(config: ServerConfig) -> Result<Server, WarmStoreError> {
        let manager = match &config.store_dir {
            Some(dir) => Some(Arc::new(match config.budget {
                Some(b) => StoreManager::with_budget(dir, b)?,
                None => StoreManager::new(dir)?,
            })),
            None => None,
        };
        Ok(Server {
            manager,
            caches: Mutex::new(HashMap::new()),
            workers: config.workers,
            shutdown: AtomicBool::new(false),
        })
    }

    /// The managed store directory's manager, when one is configured
    /// (`portend store ls` against a running daemon's directory uses
    /// the same manager type).
    pub fn manager(&self) -> Option<&Arc<StoreManager>> {
        self.manager.as_ref()
    }

    /// Whether a shutdown request has been handled.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Handles one request line, emitting zero or more frames through
    /// `out`: each is [`Frame::parse`] of a line the socket transport
    /// would have written. Returns `false` when the session should end
    /// (a shutdown was acknowledged).
    pub fn handle_line(&self, line: &str, out: &mut dyn FnMut(Frame)) -> bool {
        self.respond(line, &mut |reply| {
            out(Frame::parse(reply).expect("the daemon's own frame lines parse"));
            Ok(())
        })
        .expect("the frame callback never fails")
    }

    /// Answers one request line, passing each finished frame line
    /// (newline included) to `emit`. Returns `Ok(false)` when the
    /// session should end (a shutdown was acknowledged); an `emit`
    /// failure is returned once the request has been handled.
    fn respond(&self, line: &str, emit: LineSink<'_>) -> io::Result<bool> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(true);
        }
        match Request::parse(line) {
            Ok(Request::Ping { id }) => emit(&frame_line(&Frame::Pong { request: id }))?,
            Ok(Request::Shutdown { id }) => {
                self.shutdown.store(true, Ordering::Relaxed);
                emit(&frame_line(&Frame::Bye { request: id }))?;
                return Ok(false);
            }
            Ok(Request::Analyze {
                id,
                workload,
                workers,
            }) => self.analyze(id, &workload, workers, emit)?,
            Err(message) => emit(&frame_line(&Frame::Error {
                request: 0,
                message,
            }))?,
        }
        Ok(true)
    }

    /// Runs one analysis request through [`analyze_request`], streaming a
    /// verdict line per classified cluster and terminating with the
    /// full run report.
    fn analyze(
        &self,
        id: u64,
        workload: &str,
        workers: usize,
        emit: LineSink<'_>,
    ) -> io::Result<()> {
        let Some(w) = portend_workloads::by_name(workload) else {
            return emit(&frame_line(&Frame::Error {
                request: id,
                message: format!("unknown workload {workload:?}"),
            }));
        };
        let fingerprint = w.fingerprint();
        portend_obs::instant(EventKind::RequestStart, id, fingerprint);
        // The manager path warms from (and saves back to) the
        // per-program store every request — touch-on-load keeps the
        // LRU honest; resident entries are never overwritten. Without
        // a store directory the resident cache alone carries warmth.
        let warm = WarmSource {
            cache: Some(self.resident_cache(fingerprint)),
            store: self.manager.clone().map(|m| (m, fingerprint)),
        };
        let workers = if workers > 0 { workers } else { self.workers };
        analyze_request(
            &w,
            id,
            PortendConfig::default(),
            workers,
            &warm,
            Some(emit),
            None,
        )?;
        Ok(())
    }

    /// The daemon's resident cache for `fingerprint`, created on first
    /// use.
    fn resident_cache(&self, fingerprint: u64) -> Arc<SolverCache> {
        let mut caches = self.caches.lock().expect("cache registry poisoned");
        Arc::clone(
            caches
                .entry(fingerprint)
                .or_insert_with(|| Arc::new(SolverCache::new(DEFAULT_SHARDS))),
        )
    }

    /// Serves line-delimited requests from `input` to `output` until
    /// EOF or shutdown. [`Server::serve_stdio`] is this over the
    /// process's stdio; tests drive it with in-memory buffers.
    ///
    /// A request line longer than 1 MiB is answered with one `error`
    /// frame (request `0`) and ends the session, so no client can make
    /// the daemon buffer more than that. A line that is not UTF-8 is
    /// answered like any other unparsable line: one `error` frame
    /// (request `0`), and the session goes on.
    pub fn serve_io(&self, input: &mut dyn BufRead, output: &mut dyn Write) -> std::io::Result<()> {
        let mut line = Vec::new();
        loop {
            line.clear();
            let read = (&mut *input)
                .take(MAX_REQUEST_LINE as u64 + 1)
                .read_until(b'\n', &mut line)?;
            if read == 0 {
                return Ok(()); // EOF
            }
            if line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
                let frame = Frame::Error {
                    request: 0,
                    message: format!("request line longer than {MAX_REQUEST_LINE} bytes"),
                };
                return write_line(output, &frame_line(&frame));
            }
            let line = match std::str::from_utf8(&line) {
                Ok(line) => line,
                Err(e) => {
                    let frame = Frame::Error {
                        request: 0,
                        message: format!("request line is not UTF-8: {e}"),
                    };
                    write_line(output, &frame_line(&frame))?;
                    continue;
                }
            };
            if !self.respond(line, &mut |reply| write_line(output, reply))? {
                return Ok(());
            }
        }
    }

    /// Serves requests on stdin/stdout until EOF or shutdown — the
    /// `portend serve` default transport (one client, e.g. a build
    /// system holding the daemon as a coprocess).
    pub fn serve_stdio(&self) -> std::io::Result<()> {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        self.serve_io(&mut stdin.lock(), &mut stdout.lock())
    }

    /// Serves requests on a Unix domain socket at `path`, one
    /// connection at a time, until a client sends `shutdown`.
    /// Connections are independent sessions over the *same* server
    /// state — warm capital compounds across them.
    ///
    /// Every accepted connection reads and writes under
    /// [`SESSION_IO_TIMEOUT`] (5 s): a client that sends no request line,
    /// or takes no frame, for that long has its session ended with an
    /// I/O error, and the daemon accepts the next connection. The
    /// timeout never interrupts an analysis; it only bounds waiting on
    /// the client.
    ///
    /// A stale socket at `path` (one that refuses connections, left by
    /// a daemon that exited without unlinking it) is replaced. Anything
    /// else there is left untouched and returned as an error: a path
    /// that is not a socket, or a socket a live daemon still accepts on.
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &std::path::Path) -> std::io::Result<()> {
        claim_socket_path(path)?;
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        for conn in listener.incoming() {
            // A per-connection I/O failure (client hung up mid-stream,
            // or stayed silent past the timeout) ends that session, not
            // the daemon.
            let _ = self.serve_connection(conn?);
            if self.shutting_down() {
                break;
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    /// One [`Server::serve_unix`] session, under [`SESSION_IO_TIMEOUT`].
    #[cfg(unix)]
    fn serve_connection(&self, stream: std::os::unix::net::UnixStream) -> std::io::Result<()> {
        stream.set_read_timeout(Some(SESSION_IO_TIMEOUT))?;
        stream.set_write_timeout(Some(SESSION_IO_TIMEOUT))?;
        let mut reader = std::io::BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        self.serve_io(&mut reader, &mut writer)
    }
}

/// Frees `path` for a new listener. Nothing there is fine, and a socket
/// that refuses connections is stale and removed. A path that is not a
/// socket, or a socket that accepts a connection (a live daemon), is an
/// error and stays as it is.
#[cfg(unix)]
fn claim_socket_path(path: &std::path::Path) -> std::io::Result<()> {
    use std::io::{Error, ErrorKind};
    use std::os::unix::fs::FileTypeExt;

    let meta = match std::fs::symlink_metadata(path) {
        Ok(meta) => meta,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if !meta.file_type().is_socket() {
        return Err(Error::new(
            ErrorKind::AlreadyExists,
            format!("{} exists and is not a socket", path.display()),
        ));
    }
    match std::os::unix::net::UnixStream::connect(path) {
        Ok(_) => Err(Error::new(
            ErrorKind::AddrInUse,
            format!("a daemon is already serving on {}", path.display()),
        )),
        Err(e) if e.kind() == ErrorKind::ConnectionRefused => std::fs::remove_file(path),
        Err(e) => Err(e),
    }
}

/// A frame's wire line, newline included.
fn frame_line(frame: &Frame) -> String {
    let mut line = frame.render();
    line.push('\n');
    line
}

/// Writes one finished frame line with a single write and flushes it,
/// so a streaming client sees each frame as it is produced.
fn write_line(output: &mut dyn Write, line: &str) -> std::io::Result<()> {
    output.write_all(line.as_bytes())?;
    output.flush()
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("store_dir", &self.manager.as_ref().map(|m| m.dir()))
            .field("workers", &self.workers)
            .field("shutting_down", &self.shutting_down())
            .finish_non_exhaustive()
    }
}

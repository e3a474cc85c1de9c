//! The wire protocol: line-delimited JSON, one value per line.
//!
//! ## Frame grammar
//!
//! Clients send **requests**; the daemon answers with a stream of
//! **frames**. Every line is one compact JSON object (rendered by
//! `portend_obs::json`, the same writer the `RunReport` interchange
//! format uses — no insignificant whitespace, stable member order).
//!
//! Requests:
//!
//! ```text
//! {"op":"analyze","id":N,"workload":"<name>"}        // optional "workers":N
//! {"op":"ping","id":N}
//! {"op":"shutdown","id":N}
//! ```
//!
//! Frames, in response to `analyze` (in this order):
//!
//! ```text
//! {"frame":"verdict","request":N,"seq":S,"index":I,"race":{…}}   // × one per cluster
//! {"frame":"done","request":N,"report":{…}}
//! ```
//!
//! `seq` is the 0-based *completion* order (suspected-harmful races
//! classify — and therefore stream — first); `index` is the cluster's
//! *detection* order, its position in the terminating report's
//! `"races"` array. The `race` object is byte-identical to
//! `report.races[index]` by construction: [`crate::analyze_request`]
//! renders each race once ([`portend::RaceOutcome::write_json`]) and
//! splices those same bytes into its verdict frame and into the `done`
//! frame's report ([`portend::RunReport::write_json_spliced`]) — a
//! streaming client and a batch client can never disagree about a
//! verdict. The `report` object is the full versioned
//! [`portend::RunReport`] document (farm statistics included), byte for
//! byte what `RunReport::to_json` and `portend analyze --report-dir`
//! write.
//!
//! Every verdict line starts with [`VERDICT_PREFIX`] and every other
//! frame does not, so a client relaying one request's frames
//! (`portend submit`) stops at the first line without it, unparsed.
//!
//! `ping` answers `{"frame":"pong","request":N}`; `shutdown` answers
//! `{"frame":"bye","request":N}` and ends the session. Any failure
//! (unparseable or non-UTF-8 line, an `"id"` or `"workers"` that is
//! not a non-negative integer, unknown workload) answers
//! `{"frame":"error","request":N,"message":"…"}` — `request` is `0`
//! when the line was too broken to carry an id. A request line over
//! 1 MiB answers one such error frame and ends the session.
//!
//! The daemon writes a `"request"` on every frame and a `"message"` on
//! every `error` frame, so a client reading frames back
//! ([`Frame::parse`]) rejects a frame whose `"request"` is absent or not
//! a non-negative integer, and an `error` frame whose `"message"` is
//! absent or not a string. Each error names the member.
//!
//! Over a Unix socket the daemon serves one connection at a time, and
//! each connection reads and writes under a 5 s timeout
//! ([`crate::SESSION_IO_TIMEOUT`]): a client that sends no request line,
//! or takes no frame, for that long has its session closed, and the
//! next connection is served.

use portend_obs::json::{self, Json, ObjectWriter};

/// The bytes every verdict frame line starts with, and no other frame
/// line does: the envelope [`Frame::render`] and
/// [`crate::analyze_request`] write opens with the `"frame"` member.
pub const VERDICT_PREFIX: &str = "{\"frame\":\"verdict\",";

/// A client request, one JSON object per line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Analyze a named workload, streaming verdict frames back.
    Analyze {
        /// Client-chosen request id, echoed on every response frame.
        id: u64,
        /// Workload name (`portend_workloads::by_name`).
        workload: String,
        /// Farm width; `0` = the daemon's default.
        workers: usize,
    },
    /// Liveness probe.
    Ping {
        /// Client-chosen request id.
        id: u64,
    },
    /// Stop the daemon after acknowledging.
    Shutdown {
        /// Client-chosen request id.
        id: u64,
    },
}

impl Request {
    /// Parses one request line. The error string is human-readable and
    /// safe to echo in an error frame.
    pub fn parse(line: &str) -> Result<Request, String> {
        let doc = json::parse(line).map_err(|e| format!("request is not JSON: {e}"))?;
        // An absent "id" or "workers" is 0; a present one must be a
        // non-negative integer, or a typo would run under a default
        // silently.
        let non_negative = |name: &str| match doc.get(name) {
            None => Ok(0),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| format!("request \"{name}\" is not a non-negative integer")),
        };
        let id = non_negative("id")?;
        match doc.get("op").and_then(Json::as_str) {
            Some("analyze") => {
                let workload = doc
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("analyze request missing \"workload\"")?
                    .to_string();
                let workers = usize::try_from(non_negative("workers")?)
                    .map_err(|_| "request \"workers\" is out of range".to_string())?;
                Ok(Request::Analyze {
                    id,
                    workload,
                    workers,
                })
            }
            Some("ping") => Ok(Request::Ping { id }),
            Some("shutdown") => Ok(Request::Shutdown { id }),
            Some(other) => Err(format!("unknown op {other:?}")),
            None => Err("request missing \"op\"".to_string()),
        }
    }

    /// Renders the request as its wire line (no trailing newline) —
    /// what a `submit` client writes.
    pub fn render(&self) -> String {
        let members = match self {
            Request::Analyze {
                id,
                workload,
                workers,
            } => {
                let mut m = vec![
                    ("op".into(), "analyze".into()),
                    ("id".into(), Json::from(*id)),
                    ("workload".into(), workload.as_str().into()),
                ];
                if *workers > 0 {
                    m.push(("workers".into(), Json::from(*workers)));
                }
                m
            }
            Request::Ping { id } => {
                vec![("op".into(), "ping".into()), ("id".into(), Json::from(*id))]
            }
            Request::Shutdown { id } => vec![
                ("op".into(), "shutdown".into()),
                ("id".into(), Json::from(*id)),
            ],
        };
        Json::Obj(members).render()
    }

    /// The request's id (for echoing on responses).
    pub fn id(&self) -> u64 {
        match self {
            Request::Analyze { id, .. } | Request::Ping { id } | Request::Shutdown { id } => *id,
        }
    }
}

/// One daemon response frame, one JSON object per line.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// One classified race cluster, streamed the moment the farm
    /// yields it.
    Verdict {
        /// The originating request's id.
        request: u64,
        /// 0-based completion sequence within the request.
        seq: u64,
        /// The cluster's detection-order index — its position in the
        /// `done` frame's `report.races`.
        index: u64,
        /// The race outcome (`RaceOutcome::to_json_value`), byte-equal
        /// to `report.races[index]`.
        race: Json,
    },
    /// The request's terminating frame: the full versioned
    /// [`portend::RunReport`] document.
    Done {
        /// The originating request's id.
        request: u64,
        /// `RunReport::to_json_value` of the whole run.
        report: Json,
    },
    /// Answer to a ping.
    Pong {
        /// The originating request's id.
        request: u64,
    },
    /// Acknowledgement of a shutdown; the session ends after this.
    Bye {
        /// The originating request's id.
        request: u64,
    },
    /// The request failed; no further frames follow for it.
    Error {
        /// The originating request's id (`0` when unparseable).
        request: u64,
        /// What went wrong.
        message: String,
    },
}

impl Frame {
    /// Renders the frame as its wire line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self {
            Frame::Verdict {
                request,
                seq,
                index,
                race,
            } => write_verdict(&mut out, *request, *seq, *index, |out| race.write_to(out)),
            Frame::Done { request, report } => {
                write_done(&mut out, *request, |out| report.write_to(out));
            }
            Frame::Pong { request } => envelope(&mut out, "pong", *request).close(),
            Frame::Bye { request } => envelope(&mut out, "bye", *request).close(),
            Frame::Error { request, message } => {
                let mut obj = envelope(&mut out, "error", *request);
                obj.str("message", message);
                obj.close();
            }
        }
        out
    }

    /// Parses one frame line (what a `submit` client reads back). The
    /// `race` and `report` payloads are moved out of the parsed line,
    /// not copied.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let mut doc = json::parse(line).map_err(|e| format!("frame is not JSON: {e}"))?;
        // Every frame the daemon writes carries its request id, so a
        // frame without a valid one is corrupt, not a frame for request 0.
        let request = doc
            .get("request")
            .and_then(Json::as_u64)
            .ok_or("frame \"request\" is missing or not a non-negative integer")?;
        let Some(Json::Str(kind)) = take(&mut doc, "frame") else {
            return Err("frame missing \"frame\"".to_string());
        };
        match kind.as_str() {
            "verdict" => Ok(Frame::Verdict {
                request,
                seq: doc
                    .get("seq")
                    .and_then(Json::as_u64)
                    .ok_or("verdict frame missing \"seq\"")?,
                index: doc
                    .get("index")
                    .and_then(Json::as_u64)
                    .ok_or("verdict frame missing \"index\"")?,
                race: take(&mut doc, "race").ok_or("verdict frame missing \"race\"")?,
            }),
            "done" => Ok(Frame::Done {
                request,
                report: take(&mut doc, "report").ok_or("done frame missing \"report\"")?,
            }),
            "pong" => Ok(Frame::Pong { request }),
            "bye" => Ok(Frame::Bye { request }),
            "error" => Ok(Frame::Error {
                request,
                message: doc
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("error frame \"message\" is missing or not a string")?
                    .to_string(),
            }),
            other => Err(format!("unknown frame {other:?}")),
        }
    }
}

/// Opens a frame's envelope: its `"frame"` kind and `"request"` id.
fn envelope<'a>(out: &'a mut String, kind: &str, request: u64) -> ObjectWriter<'a> {
    let mut obj = ObjectWriter::open(out);
    obj.str("frame", kind);
    obj.int("request", request);
    obj
}

/// Appends a verdict frame whose `race` value `race` writes.
pub(crate) fn write_verdict(
    out: &mut String,
    request: u64,
    seq: u64,
    index: u64,
    race: impl FnOnce(&mut String),
) {
    let mut obj = envelope(out, "verdict", request);
    obj.int("seq", seq);
    obj.int("index", index);
    race(obj.member("race"));
    obj.close();
}

/// Appends a `done` frame whose `report` value `report` writes.
pub(crate) fn write_done(out: &mut String, request: u64, report: impl FnOnce(&mut String)) {
    let mut obj = envelope(out, "done", request);
    report(obj.member("report"));
    obj.close();
}

/// Moves the value of `doc`'s first `key` member out, leaving `null`.
fn take(doc: &mut Json, key: &str) -> Option<Json> {
    let Json::Obj(members) = doc else {
        return None;
    };
    members
        .iter_mut()
        .find(|(k, _)| k == key)
        .map(|(_, v)| std::mem::replace(v, Json::Null))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        let reqs = [
            Request::Analyze {
                id: 7,
                workload: "ctrace".into(),
                workers: 3,
            },
            Request::Analyze {
                id: 8,
                workload: "bbuf".into(),
                workers: 0,
            },
            Request::Ping { id: 1 },
            Request::Shutdown { id: 2 },
        ];
        for r in reqs {
            assert_eq!(Request::parse(&r.render()).unwrap(), r);
        }
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"op\":\"warp\",\"id\":1}").is_err());
        assert!(Request::parse("{\"op\":\"analyze\",\"id\":1}").is_err());
        for (line, member) in [
            (
                r#"{"op":"analyze","id":1,"workload":"ctrace","workers":-2}"#,
                "workers",
            ),
            (
                r#"{"op":"analyze","id":1,"workload":"ctrace","workers":"8"}"#,
                "workers",
            ),
            (r#"{"op":"ping","id":1.5}"#, "id"),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert!(err.contains(&format!("\"{member}\"")), "{line}: {err}");
        }
    }

    #[test]
    fn frames_round_trip_through_the_wire_format() {
        let frames = [
            Frame::Verdict {
                request: 7,
                seq: 0,
                index: 2,
                race: Json::Obj(vec![("alloc".into(), "x".into())]),
            },
            Frame::Done {
                request: 7,
                report: Json::Obj(vec![("format".into(), "portend-run-report".into())]),
            },
            Frame::Pong { request: 1 },
            Frame::Bye { request: 2 },
            Frame::Error {
                request: 0,
                message: "unknown workload \"nope\"".into(),
            },
        ];
        for f in frames {
            let line = f.render();
            assert_eq!(
                line.starts_with(VERDICT_PREFIX),
                matches!(f, Frame::Verdict { .. }),
                "{line}"
            );
            assert_eq!(Frame::parse(&line).unwrap(), f);
        }
        assert!(Frame::parse(r#"{"frame":"quux","request":1}"#)
            .expect_err("unknown kind")
            .contains("quux"));
        for (line, member) in [
            (r#"{"frame":"pong","request":"7"}"#, "request"),
            (r#"{"frame":"pong","request":-1}"#, "request"),
            (r#"{"frame":"pong","request":1.5}"#, "request"),
            (r#"{"frame":"pong"}"#, "request"),
            (r#"{"frame":"error","request":3,"message":7}"#, "message"),
            (r#"{"frame":"error","request":3}"#, "message"),
        ] {
            let err = Frame::parse(line).expect_err(line);
            assert!(err.contains(&format!("\"{member}\"")), "{line}: {err}");
        }
    }
}

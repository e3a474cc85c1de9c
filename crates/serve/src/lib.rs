//! portend-serve — Portend as a resident service.
//!
//! A [`Server`] is a long-lived analysis daemon: clients submit
//! line-delimited JSON requests (stdin/stdout or a Unix domain socket)
//! naming a workload, and the daemon streams one verdict frame per
//! classified race cluster *as the classification farm yields it*,
//! terminated by the full versioned run report. See [`protocol`] for
//! the frame grammar.
//!
//! What the daemon amortizes across requests:
//!
//! - **Resident solver caches**, one per program fingerprint — a second
//!   request for the same program re-solves nothing the first request
//!   already solved.
//! - **Keyed warm stores** (with a store directory): a
//!   [`portend_symex::StoreManager`] keys each program's warm store by
//!   its content fingerprint and distinctly rejects stores from other
//!   programs — warmth survives daemon restarts.
//!
//! Streaming changes *when* a client sees a verdict, never *what*. Both
//! front ends — the daemon and `portend analyze` — run one per-request
//! routine, [`analyze_request`], which renders each race once and
//! splices those bytes into its `verdict` frame and into the terminating
//! report's `races` array. Frame/report byte identity therefore holds
//! by construction, and the report is byte-identical to a direct
//! [`portend::RunReport::to_json`] of the same run.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod analyze;
pub mod protocol;
mod server;

pub use analyze::{analyze_request, LineSink};
pub use protocol::{Frame, Request, VERDICT_PREFIX};
pub use server::{Server, ServerConfig, SESSION_IO_TIMEOUT};

#[cfg(test)]
mod tests {
    use super::*;
    use portend_obs::json::{self, Json};

    fn frames_for(server: &Server, lines: &str) -> Vec<Frame> {
        frames_for_bytes(server, lines.as_bytes())
    }

    fn frames_for_bytes(server: &Server, bytes: &[u8]) -> Vec<Frame> {
        let mut input = std::io::Cursor::new(bytes.to_vec());
        let mut output = Vec::new();
        server.serve_io(&mut input, &mut output).unwrap();
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| Frame::parse(l).unwrap())
            .collect()
    }

    #[test]
    fn ping_error_and_shutdown_round_trip() {
        let server = Server::new(ServerConfig::default()).unwrap();
        let frames = frames_for(
            &server,
            "{\"op\":\"ping\",\"id\":1}\nnot json\n{\"op\":\"analyze\",\"id\":3,\"workload\":\"no-such\"}\n{\"op\":\"shutdown\",\"id\":4}\n{\"op\":\"ping\",\"id\":5}\n",
        );
        assert_eq!(frames.len(), 4, "nothing is served after shutdown");
        assert_eq!(frames[0], Frame::Pong { request: 1 });
        assert!(matches!(frames[1], Frame::Error { request: 0, .. }));
        assert!(
            matches!(&frames[2], Frame::Error { request: 3, message } if message.contains("no-such"))
        );
        assert_eq!(frames[3], Frame::Bye { request: 4 });
        assert!(server.shutting_down());
    }

    #[test]
    fn over_long_request_line_ends_the_session_with_one_error() {
        let server = Server::new(ServerConfig::default()).unwrap();
        let ping = |id: u64| Request::Ping { id }.render();
        let long = "x".repeat(2 << 20);
        let frames = frames_for(&server, &format!("{long}\n{}\n", ping(1)));
        assert_eq!(frames.len(), 1, "no pong after the over-long line");
        assert!(
            matches!(&frames[0], Frame::Error { request: 0, message } if message.contains("longer than"))
        );
        // A fresh session on the same server still answers, and a line
        // of exactly the cap is served.
        let mut padded = ping(2);
        padded.push_str(&" ".repeat(server::MAX_REQUEST_LINE - padded.len()));
        assert_eq!(
            frames_for(&server, &format!("{padded}\n")),
            vec![Frame::Pong { request: 2 }]
        );
        assert!(matches!(
            frames_for(&server, &format!("{padded} \n"))[..],
            [Frame::Error { request: 0, .. }]
        ));
    }

    /// A line that is not UTF-8 is an unparsable request like any
    /// other: one `error` frame for request 0, and the session goes on
    /// to answer the next line.
    #[test]
    fn non_utf8_request_line_gets_one_error_and_the_session_continues() {
        let server = Server::new(ServerConfig::default()).unwrap();
        let mut bytes = vec![0xff, 0xfe, b'\n'];
        bytes.extend_from_slice(Request::Ping { id: 1 }.render().as_bytes());
        bytes.push(b'\n');
        let frames = frames_for_bytes(&server, &bytes);
        assert_eq!(frames.len(), 2, "{frames:?}");
        assert!(
            matches!(&frames[0], Frame::Error { request: 0, message } if message.contains("UTF-8")),
            "{frames:?}"
        );
        assert_eq!(frames[1], Frame::Pong { request: 1 });
    }

    #[test]
    fn analyze_streams_verdicts_then_the_full_report() {
        let server = Server::new(ServerConfig {
            workers: 2,
            ..Default::default()
        })
        .unwrap();
        let frames = frames_for(
            &server,
            "{\"op\":\"analyze\",\"id\":9,\"workload\":\"bbuf\"}\n",
        );
        let (last, verdicts) = frames.split_last().unwrap();
        assert!(!verdicts.is_empty(), "bbuf has races to stream");
        let Frame::Done { request: 9, report } = last else {
            panic!("terminating frame should be done, got {last:?}");
        };
        let races = report.get("races").and_then(Json::as_arr).unwrap();
        assert_eq!(verdicts.len(), races.len());
        let mut seen = vec![false; races.len()];
        for (at, frame) in verdicts.iter().enumerate() {
            let Frame::Verdict {
                request: 9,
                seq,
                index,
                race,
            } = frame
            else {
                panic!("expected a verdict frame, got {frame:?}");
            };
            assert_eq!(*seq, at as u64, "seq is the completion order");
            let batch = &races[*index as usize];
            assert_eq!(
                race.render(),
                batch.render(),
                "streamed race must be byte-identical to the report entry"
            );
            seen[*index as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "every report race was streamed");
    }

    #[test]
    fn repeat_requests_reuse_the_resident_cache() {
        let server = Server::new(ServerConfig {
            workers: 2,
            ..Default::default()
        })
        .unwrap();
        let solves = |frames: &[Frame]| -> u64 {
            let Some(Frame::Done { report, .. }) = frames.last() else {
                panic!("no done frame");
            };
            let cache = report.get("cache").unwrap();
            let n = |k: &str| cache.get(k).and_then(Json::as_u64).unwrap();
            n("misses") + n("slice_misses")
        };
        let req = "{\"op\":\"analyze\",\"id\":1,\"workload\":\"bbuf\"}\n";
        // The resident cache's counters are cumulative across requests,
        // so the second request's own solve count is the delta.
        let cold = solves(&frames_for(&server, req));
        let second = solves(&frames_for(&server, req)) - cold;
        assert!(cold > 0);
        assert!(
            second < cold,
            "resident cache must cut solves: cold {cold}, second request {second}"
        );
    }

    #[test]
    fn request_render_matches_raw_json() {
        // `submit` builds requests through Request::render; pin the
        // bytes so scripted clients (CI's printf pipeline) stay valid.
        let r = Request::Analyze {
            id: 2,
            workload: "ctrace".into(),
            workers: 0,
        };
        assert_eq!(
            r.render(),
            "{\"op\":\"analyze\",\"id\":2,\"workload\":\"ctrace\"}"
        );
        assert!(json::parse(&r.render()).is_ok());
    }
}

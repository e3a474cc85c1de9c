//! Chrome trace-event export: turn a merged [`Trace`] into the JSON
//! format `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)
//! load, for flame/timeline viewing of a run.
//!
//! The exporter emits the stable object form `{"traceEvents": [...]}`:
//! one `"M"` (metadata) event naming each lane, then every recorded
//! event as `"X"` (complete, spans) or `"i"` (instant). Timestamps are
//! microseconds from the recorder epoch, fractional to keep the
//! nanosecond resolution. Lane index doubles as the `tid`; the whole
//! trace is one `pid`.

use std::io::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::recorder::Trace;

impl Trace {
    /// Renders the trace as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<Json> = Vec::with_capacity(self.total_events() as usize + 8);
        for (tid, lane) in self.lanes.iter().enumerate() {
            events.push(Json::Obj(vec![
                ("ph".into(), "M".into()),
                ("name".into(), "thread_name".into()),
                ("pid".into(), Json::Int(1)),
                ("tid".into(), Json::from(tid)),
                (
                    "args".into(),
                    Json::Obj(vec![("name".into(), lane.name.as_str().into())]),
                ),
            ]));
            for e in &lane.events {
                let mut fields = vec![
                    ("name".into(), e.name.into()),
                    ("cat".into(), e.kind.category().into()),
                    ("ph".into(), if e.kind.is_span() { "X" } else { "i" }.into()),
                    ("pid".into(), Json::Int(1)),
                    ("tid".into(), Json::from(tid)),
                    ("ts".into(), Json::Float(e.ts_ns as f64 / 1e3)),
                ];
                if e.kind.is_span() {
                    fields.push(("dur".into(), Json::Float(e.dur_ns as f64 / 1e3)));
                } else {
                    // Instant scope: thread-level.
                    fields.push(("s".into(), "t".into()));
                }
                fields.push((
                    "args".into(),
                    Json::Obj(vec![
                        ("a".into(), Json::from(e.a)),
                        ("b".into(), Json::from(e.b)),
                    ]),
                ));
                events.push(Json::Obj(fields));
            }
        }
        Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]).render()
    }

    /// Writes [`Trace::to_chrome_json`] to `path` (atomically, by
    /// rename, so a crashed writer never leaves a half trace behind).
    pub fn write_chrome(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_atomic(path.as_ref(), self.to_chrome_json().as_bytes())
    }
}

/// Write-then-rename, the same discipline as the warm store's
/// `StoreManager::save_from`: readers only ever observe complete files.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use crate::event::EventKind;
    use crate::json;
    use crate::recorder::Recorder;
    use crate::{instant, span};

    #[test]
    fn chrome_export_is_well_formed_and_complete() {
        let rec = Recorder::new();
        {
            let _g = rec.attach("main", 0);
            let _p = span(EventKind::Phase);
            instant(EventKind::Fork, 64, 4096);
        }
        let trace = rec.finish();
        let doc = json::parse(&trace.to_chrome_json()).expect("well-formed JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Json::as_arr)
            .expect("traceEvents array");
        // 1 metadata + 2 recorded.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").and_then(json::Json::as_str), Some("M"));
        let fork = events
            .iter()
            .find(|e| e.get("name").and_then(json::Json::as_str) == Some("fork"))
            .expect("fork event exported");
        assert_eq!(fork.get("ph").and_then(json::Json::as_str), Some("i"));
        assert_eq!(
            fork.get("args")
                .and_then(|a| a.get("a"))
                .and_then(json::Json::as_u64),
            Some(64)
        );
        let phase = events
            .iter()
            .find(|e| e.get("cat").and_then(json::Json::as_str) == Some("pipeline"))
            .expect("phase span exported");
        assert_eq!(phase.get("ph").and_then(json::Json::as_str), Some("X"));
        assert!(phase.get("dur").is_some(), "spans carry a duration");
    }

    #[test]
    fn write_chrome_lands_on_disk() {
        let rec = Recorder::new();
        {
            let _g = rec.attach("main", 0);
            instant(EventKind::CacheProbe, 1, 0);
        }
        let dir = std::env::temp_dir().join("portend-obs-chrome-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        rec.finish().write_chrome(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert!(json::parse(&read).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The idiom conformance verdict table.
//!
//! Each cell records, for one (idiom, allocation) pair, the expected
//! and the produced verdict label. The table renders as an ASCII
//! summary for test logs and serializes to a small JSON document
//! (`portend-conformance-table` v2, built on the same hand-rolled
//! [`portend_obs::json`] layer as the run reports) that CI uploads as
//! an artifact.

use std::io::Write as _;
use std::path::Path;

use portend_obs::json::Json;

/// Format name embedded in the JSON artifact.
pub const TABLE_FORMAT_NAME: &str = "portend-conformance-table";
/// Format version embedded in the JSON artifact.
///
/// * v2 — rows lost `"config"`: only one analysis configuration is
///   left, so a table holds one cell per (idiom, allocation).
pub const TABLE_FORMAT_VERSION: u64 = 2;

/// One (idiom, allocation) cell of the conformance table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictCell {
    /// Idiom name.
    pub idiom: String,
    /// Allocation the verdict is about (`"*"` for whole-program rows,
    /// e.g. a negative idiom's "no races at all" assertion).
    pub alloc: String,
    /// Expected verdict label (`"none"` for must-not-race rows).
    pub expected: String,
    /// Produced verdict label.
    pub produced: String,
}

impl VerdictCell {
    /// Whether produced matched expected.
    pub fn ok(&self) -> bool {
        self.expected == self.produced
    }
}

/// The collected conformance table.
#[derive(Debug, Clone, Default)]
pub struct ConformanceTable {
    /// All recorded cells.
    pub cells: Vec<VerdictCell>,
}

impl ConformanceTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one cell.
    pub fn push(&mut self, idiom: &str, alloc: &str, expected: &str, produced: &str) {
        self.cells.push(VerdictCell {
            idiom: idiom.to_string(),
            alloc: alloc.to_string(),
            expected: expected.to_string(),
            produced: produced.to_string(),
        });
    }

    /// The cells where produced differed from expected.
    pub fn mismatches(&self) -> Vec<&VerdictCell> {
        self.cells.iter().filter(|c| !c.ok()).collect()
    }

    /// Serializes the table as a `portend-conformance-table` v2 JSON
    /// document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("format".into(), Json::Str(TABLE_FORMAT_NAME.into())),
            (
                "version".into(),
                Json::Int(i128::from(TABLE_FORMAT_VERSION)),
            ),
            ("cells".into(), Json::Int(self.cells.len() as i128)),
            (
                "mismatches".into(),
                Json::Int(self.mismatches().len() as i128),
            ),
            (
                "rows".into(),
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("idiom".into(), Json::Str(c.idiom.clone())),
                                ("alloc".into(), Json::Str(c.alloc.clone())),
                                ("expected".into(), Json::Str(c.expected.clone())),
                                ("produced".into(), Json::Str(c.produced.clone())),
                                ("ok".into(), Json::Bool(c.ok())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the JSON document to `path`, creating parent directories.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().render().as_bytes())?;
        f.write_all(b"\n")
    }

    /// Renders the expected-vs-produced table as aligned ASCII, one row
    /// per cell, marking every mismatching cell.
    pub fn render(&self) -> String {
        let mut rows: Vec<[String; 4]> = vec![[
            "idiom".into(),
            "alloc".into(),
            "expected".into(),
            "produced".into(),
        ]];
        for c in &self.cells {
            let produced = if c.ok() {
                c.produced.clone()
            } else {
                format!("{} <-- MISMATCH", c.produced)
            };
            rows.push([
                c.idiom.clone(),
                c.alloc.clone(),
                c.expected.clone(),
                produced,
            ]);
        }
        let mut widths = [0usize; 4];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for row in &rows {
            let mut line = String::new();
            for (w, cell) in widths.iter().zip(row) {
                line.push_str(&format!("{cell:<w$}  "));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConformanceTable {
        let mut t = ConformanceTable::new();
        t.push("adhoc_flag", "handoff_data", "singleOrd", "singleOrd");
        t.push("adhoc_flag", "flag", "singleOrd", "outDiff");
        t.push("neg_join_handoff", "*", "none", "none");
        t
    }

    #[test]
    fn mismatches_and_json_roundtrip() {
        let t = sample();
        assert_eq!(t.mismatches().len(), 1);
        let doc = portend_obs::json::parse(&t.to_json().render()).expect("valid json");
        assert_eq!(
            doc.get("format").and_then(Json::as_str),
            Some(TABLE_FORMAT_NAME)
        );
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("mismatches").and_then(Json::as_u64), Some(1));
        let rows = doc.get("rows").and_then(Json::as_arr).expect("rows array");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].get("ok").and_then(Json::as_bool), Some(false));
        assert!(rows[1].get("config").is_none(), "v2 rows carry no config");
    }

    #[test]
    fn render_marks_mismatching_groups() {
        let r = sample().render();
        assert_eq!(r.matches("MISMATCH").count(), 1, "{r}");
        assert!(r.contains("outDiff <-- MISMATCH"), "{r}");
        assert_eq!(r.lines().count(), 4, "header plus one line per cell: {r}");
    }
}

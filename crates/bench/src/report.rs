//! Result tables, aligned console output, and CSV export.

use std::fmt::Write as _;
use std::path::Path;

/// One named series over a common x-axis.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// y values, aligned with the owning table's x values.
    pub y: Vec<f64>,
}

/// A whole figure: x-axis + series.
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure/table title (e.g. `"Figure 6: varying cache hit probability"`).
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// x values.
    pub x: Vec<f64>,
    /// The series.
    pub series: Vec<Series>,
}

impl Table {
    /// Start a table.
    pub fn new(title: &str, x_label: &str, x: Vec<f64>) -> Table {
        Table {
            title: title.to_string(),
            x_label: x_label.to_string(),
            x,
            series: Vec::new(),
        }
    }

    /// Add one series (must match the x length).
    pub fn push_series(&mut self, label: &str, y: Vec<f64>) -> &mut Self {
        assert_eq!(y.len(), self.x.len(), "series length mismatch");
        self.series.push(Series {
            label: label.to_string(),
            y,
        });
        self
    }

    /// Render as an aligned console table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut header = format!("{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(header, " {:>16}", s.label);
        }
        let _ = writeln!(out, "{header}");
        for (i, x) in self.x.iter().enumerate() {
            let mut row = format!("{x:>14.4}");
            for s in &self.series {
                let _ = write!(row, " {:>16.2}", s.y[i]);
            }
            let _ = writeln!(out, "{row}");
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let mut header = self.x_label.clone();
        for s in &self.series {
            let _ = write!(header, ",{}", s.label);
        }
        let _ = writeln!(out, "{header}");
        for (i, x) in self.x.iter().enumerate() {
            let mut row = format!("{x}");
            for s in &self.series {
                let _ = write!(row, ",{}", s.y[i]);
            }
            let _ = writeln!(out, "{row}");
        }
        out
    }
}

/// Write a table as CSV under `EXPERIMENTS_OUTPUT/` (created on demand),
/// returning the path written. Failures are reported, not fatal — the
/// console output is the primary artifact.
pub fn write_csv(table: &Table, file_stem: &str) -> Option<std::path::PathBuf> {
    let dir = Path::new("EXPERIMENTS_OUTPUT");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {dir:?}: {e}");
        return None;
    }
    let path = dir.join(format!("{file_stem}.csv"));
    match std::fs::write(&path, table.to_csv()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {path:?}: {e}");
            None
        }
    }
}

/// Write a telemetry snapshot as `EXPERIMENTS_OUTPUT/<file_stem>.telemetry.json`
/// (and echo its aligned-text rendering to stderr when `ACQ_TELEMETRY_TEXT`
/// is set), returning the path written. Same failure policy as
/// [`write_csv`]: the CSV/console output remains the primary artifact.
pub fn write_snapshot(
    snapshot: &acq::TelemetrySnapshot,
    file_stem: &str,
) -> Option<std::path::PathBuf> {
    let dir = Path::new("EXPERIMENTS_OUTPUT");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {dir:?}: {e}");
        return None;
    }
    if std::env::var_os("ACQ_TELEMETRY_TEXT").is_some() {
        eprintln!("{}", snapshot.render_text());
    }
    let path = dir.join(format!("{file_stem}.telemetry.json"));
    match std::fs::write(&path, snapshot.to_json()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {path:?}: {e}");
            None
        }
    }
}

// ---------------------------------------------------------------------
// Labeled bench-JSON files (BENCH_hotpath.json / BENCH_shard.json). No
// JSON dep: the format is our own, so balanced-brace extraction of the
// other labels' sections is safe.

/// Extract the `"label": { ... }` object text for every top-level label in
/// a previously written bench-JSON file.
pub fn existing_sections(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    // Skip the outermost '{'.
    let Some(start) = text.find('{') else {
        return out;
    };
    let mut i = start + 1;
    while i < bytes.len() {
        // Find the next quoted label at depth 1.
        let Some(q0) = text[i..].find('"').map(|p| i + p) else {
            break;
        };
        let Some(q1) = text[q0 + 1..].find('"').map(|p| q0 + 1 + p) else {
            break;
        };
        let label = text[q0 + 1..q1].to_string();
        let Some(o) = text[q1..].find('{').map(|p| q1 + p) else {
            break;
        };
        let mut depth = 0usize;
        let mut end = None;
        for (k, &c) in bytes.iter().enumerate().skip(o) {
            match c {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(k);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(end) = end else { break };
        out.push((label, text[o..=end].to_string()));
        i = end + 1;
    }
    out
}

/// Merge one label's section body into a bench-JSON file, preserving every
/// other label. Write failures are reported, not fatal (console output is
/// the primary artifact).
pub fn merge_label_section(path: &str, label: &str, body: String) {
    let mut sections: Vec<(String, String)> = std::fs::read_to_string(path)
        .map(|t| existing_sections(&t))
        .unwrap_or_default();
    match sections.iter_mut().find(|(l, _)| l == label) {
        Some((_, s)) => *s = body,
        None => sections.push((label.to_string(), body)),
    }
    let mut out = String::from("{\n");
    for (i, (l, s)) in sections.iter().enumerate() {
        out.push_str(&format!("  \"{l}\": {s}"));
        out.push_str(if i + 1 < sections.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("warning: cannot write {path}: {e}");
    } else {
        println!("wrote {path} (section \"{label}\")");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_roundtrip() {
        let text = "{\n  \"baseline\": {\n    \"a/b\": { \"ns_per_update\": 12.5 }\n  },\n  \
                    \"current\": {\n    \"a/b\": { \"ns_per_update\": 7.0 }\n  }\n}\n";
        let sections = existing_sections(text);
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].0, "baseline");
        assert_eq!(sections[1].0, "current");
        let body = "{\n    \"a/b\": { \"ns_per_update\": 7.0 }\n  }";
        assert_eq!(sections[1].1, body);
    }

    #[test]
    fn render_and_csv() {
        let mut t = Table::new("Figure X", "r", vec![1.0, 2.0]);
        t.push_series("With caches", vec![100.0, 200.0]);
        t.push_series("MJoin", vec![90.0, 120.0]);
        let text = t.render();
        assert!(text.contains("Figure X"));
        assert!(text.contains("With caches"));
        assert!(text.lines().count() == 4);
        let csv = t.to_csv();
        assert_eq!(csv.lines().next().unwrap(), "r,With caches,MJoin");
        assert!(csv.lines().nth(1).unwrap().starts_with("1,100"));
    }

    #[test]
    #[should_panic(expected = "series length mismatch")]
    fn mismatched_series_panics() {
        let mut t = Table::new("t", "x", vec![1.0]);
        t.push_series("bad", vec![1.0, 2.0]);
    }
}

//! Plain-text table rendering and JSON result dumps for the `repro_*`
//! binaries.

use std::fs;
use std::path::Path;

/// Renders an aligned plain-text table.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    line(&mut out, &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Writes a serialisable result to `results/<name>.json` under the repo
/// root (creating the directory), and returns the path written.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) -> std::io::Result<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, serde_json::to_string_pretty(value)?)?;
    Ok(path.to_string_lossy().into_owned())
}

/// Formats a ratio as a percentage deviation (`+12 %`).
pub fn pct(ratio: f64) -> String {
    format!("{:+.0} %", (ratio - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let t = render(
            &["a", "blah"],
            &[vec!["xxxxx".into(), "1".into()], vec!["y".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a      blah"), "{t}");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1.12), "+12 %");
        assert_eq!(pct(0.9), "-10 %");
    }
}

//! Plain-text table reporting: the harness prints the same rows/series
//! the paper's figures plot.

use std::fmt::Write as _;

/// A simple aligned text table.
pub struct Report {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Report {
        Report {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells.to_vec());
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{c:>w$}  ", w = w);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    pub fn print(&self) {
        println!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut r = Report::new("t", &["a", "long_header"]);
        r.row(&["1".into(), "2".into()]);
        r.row(&["100".into(), "x".into()]);
        r.note("hello");
        let s = r.render();
        assert!(s.contains("== t =="));
        assert!(s.contains("long_header"));
        assert!(s.contains("note: hello"));
        assert_eq!(s.lines().count(), 6);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut r = Report::new("t", &["a", "b"]);
        r.row(&["1".into()]);
    }
}

//! Minimal table / CSV rendering for experiment output.

/// One printed result of an experiment: a title, the aligned table, the
/// notes under it, and the same data as CSV.
pub struct Section {
    /// First line, e.g. `Table 1 — …`.
    pub title: String,
    /// The human-readable table.
    pub table: Table,
    /// Lines printed under the table (summary numbers, the reading).
    pub notes: Vec<String>,
    /// CSV lines, the header first.
    pub csv: Vec<String>,
}

impl Section {
    /// A section with no notes whose CSV starts with `csv_header`.
    pub fn new(title: &str, table: Table, csv_header: &str) -> Section {
        let (title, notes, csv) = (title.to_string(), Vec::new(), vec![csv_header.to_string()]);
        Section {
            title,
            table,
            notes,
            csv,
        }
    }

    /// Render title, table and notes, then (with `csv`) the CSV.
    pub fn render(&self, csv: bool) -> String {
        let mut out = format!("{}\n\n{}", self.title, self.table.render());
        if !self.notes.is_empty() {
            out.push_str(&format!("\n{}\n", self.notes.join("\n")));
        }
        if csv {
            out.push_str(&format!("\n{}\n", self.csv.join("\n")));
        }
        out
    }
}

/// A simple aligned text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(c);
                for _ in c.chars().count()..widths[i] {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["xxxxx", "1"]);
        t.row(vec!["y", "2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a    "), "{s}");
        assert!(lines[2].starts_with("xxxxx"), "{s}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1", "2"]);
    }

    #[test]
    fn section_renders_notes_and_csv() {
        let mut s = Section::new("T", Table::new(vec!["x"]), "x");
        s.table.row(vec!["1"]);
        s.notes.push("n".into());
        s.csv.push("1".into());
        assert_eq!(s.render(false), "T\n\nx\n-\n1\n\nn\n");
        assert!(s.render(true).ends_with("\nn\n\nx\n1\n"));
    }
}

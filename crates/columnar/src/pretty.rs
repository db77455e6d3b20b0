//! Plain-text table rendering for CLIs, examples, and the bench harness.

use crate::table::Table;

/// Render a table as an aligned ASCII grid, truncated to `max_rows` data
/// rows (a trailing ellipsis row indicates truncation).
pub fn format_table(table: &Table, max_rows: usize) -> String {
    let headers: Vec<String> = table
        .schema()
        .fields
        .iter()
        .map(|f| f.name.to_string())
        .collect();
    let shown = table.num_rows().min(max_rows);
    let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
    for r in 0..shown {
        cells.push(table.row(r).iter().map(|s| s.to_string()).collect());
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &cells {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let sep = |widths: &[usize]| {
        let mut s = String::from("+");
        for w in widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s.push('\n');
        s
    };
    let render_row = |row: &[String], widths: &[usize]| {
        let mut s = String::from("|");
        for (c, w) in row.iter().zip(widths.iter()) {
            s.push(' ');
            s.push_str(c);
            let printed = c.chars().count();
            s.push_str(&" ".repeat(w.saturating_sub(printed) + 1));
            s.push('|');
        }
        s.push('\n');
        s
    };
    let mut out = sep(&widths);
    out.push_str(&render_row(&headers, &widths));
    out.push_str(&sep(&widths));
    for row in &cells {
        out.push_str(&render_row(row, &widths));
    }
    if table.num_rows() > shown {
        let more: Vec<String> = widths.iter().map(|_| "…".to_string()).collect();
        out.push_str(&render_row(&more, &widths));
    }
    out.push_str(&sep(&widths));
    out.push_str(&format!("{} row(s)\n", table.num_rows()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Array, DataType, Field, Schema, Table};

    #[test]
    fn renders_grid() {
        let t = Table::new(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ]),
            vec![Array::from_i64([1, 22]), Array::from_strs(["ada", "b"])],
        );
        let s = format_table(&t, 10);
        assert!(s.contains("| id | name |"));
        assert!(s.contains("| 22 | b    |"));
        assert!(s.contains("2 row(s)"));
    }

    #[test]
    fn truncates() {
        let t = Table::new(
            Schema::new(vec![Field::new("x", DataType::Int64)]),
            vec![Array::from_i64(0..100)],
        );
        let s = format_table(&t, 3);
        assert!(s.contains('…'));
        assert!(s.contains("100 row(s)"));
    }

    #[test]
    fn empty_table_renders_headers_only() {
        let t = Table::empty(Schema::new(vec![Field::new("only", DataType::Bool)]));
        let s = format_table(&t, 5);
        assert!(s.contains("only"));
        assert!(s.contains("0 row(s)"));
    }
}

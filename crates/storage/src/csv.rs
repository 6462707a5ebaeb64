//! CSV import/export for flat classes, RFC-4180 style.
//!
//! The paper's introduction motivates transformations partly by "uploading
//! certain file formats into a relational database". This module provides
//! that format: a header line of column names followed by comma-separated
//! rows. Fields containing commas, double quotes or newlines are quoted with
//! `"` and embedded quotes are doubled (`""`), so any string round-trips.
//!
//! Typing rules:
//!
//! * **Quoted fields are always strings**, verbatim — `"123"` stays a string.
//! * **Unquoted fields** are trimmed and inferred as integers (`i64`),
//!   booleans (`true`/`false`, capitalized accepted) or strings.
//! * [`to_csv`] quotes every string field, so column types survive a
//!   `to_csv` → [`parse_csv`] round trip.
//! * Column types are unified over **all** rows: the first row fixes each
//!   column's type and any later mismatch is rejected with a line-accurate
//!   [`StorageError::Corrupt`] rather than silently coerced.
//!
//! Column names must be distinct once trimmed: a record with two `x` fields
//! has no single value of `x`.
//!
//! [`CsvReader`] exposes the decoder as a streaming record iterator (quoted
//! fields may span lines), used by the federated scan provider to ingest
//! large files chunk-at-a-time without materializing a [`Table`]. It reports
//! each record's byte offset and can be re-seated there, so the provider
//! records the offsets in its one validating pass (`decode_checked`) and
//! later lexes only the records a scan keeps.

use wol_model::Value;

use crate::error::StorageError;
use crate::relational::{Column, ColumnType, Table, TableSchema};
use crate::Result;

/// One field of a CSV record: the decoded text plus whether it was quoted in
/// the source. Quoted fields are strings verbatim; unquoted fields are
/// trimmed and subject to integer/boolean inference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsvField {
    /// Decoded field text (escape sequences resolved; trimmed if unquoted).
    pub text: String,
    /// True if the source wrapped the field in double quotes.
    pub quoted: bool,
}

impl CsvField {
    /// The model value this field denotes.
    pub fn value(&self) -> Value {
        if self.quoted {
            Value::str(&self.text)
        } else {
            infer_unquoted(&self.text)
        }
    }
}

/// A decoded record: the 1-based line number its first character occupies
/// (blank lines counted) and its fields.
#[derive(Clone, Debug)]
pub struct CsvRecord {
    /// 1-based line of the record's first character in the source text.
    pub line: usize,
    /// The record's fields, in column order.
    pub fields: Vec<CsvField>,
}

/// A streaming RFC-4180 decoder: parses the header eagerly, then yields data
/// records one at a time. Blank lines between records are skipped (but still
/// counted for error line numbers); quoted fields may span lines.
pub struct CsvReader<'a> {
    source: String,
    text: &'a str,
    chars: std::str::Chars<'a>,
    line: usize,
    columns: Vec<String>,
}

#[derive(PartialEq)]
enum State {
    FieldStart,
    Unquoted,
    InQuotes,
    AfterQuotes,
}

fn finish_field(cur: &mut String, quoted: &mut bool) -> CsvField {
    let raw = std::mem::take(cur);
    let q = std::mem::replace(quoted, false);
    CsvField {
        text: if q { raw } else { raw.trim().to_string() },
        quoted: q,
    }
}

impl<'a> CsvReader<'a> {
    /// Open a reader over `text`, attributing errors to `source` (a file
    /// path or pseudo-path). Parses the header line immediately.
    pub fn new(source: &str, text: &'a str) -> Result<CsvReader<'a>> {
        let mut reader = CsvReader {
            source: source.to_string(),
            text,
            chars: text.chars(),
            line: 1,
            columns: Vec::new(),
        };
        let header = reader.next_record()?.ok_or_else(|| {
            StorageError::corrupt_at_line(
                source,
                1,
                "a header line of column names",
                "end of input",
            )
        })?;
        let names: Vec<String> = header
            .fields
            .iter()
            .map(|f| f.text.trim().to_string())
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        if names.iter().any(|n| n.is_empty() || !seen.insert(n)) {
            return Err(StorageError::corrupt_at_line(
                source,
                header.line,
                "comma-separated distinct non-empty column names",
                format!("`{}`", names.join(",")),
            ));
        }
        reader.columns = names;
        Ok(reader)
    }

    /// The header's column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Byte offset of the next unread character; taken before
    /// [`next_record`](Self::next_record), a record start.
    pub fn position(&self) -> usize {
        self.text.len() - self.chars.as_str().len()
    }

    /// Re-seat the reader at `offset`, a record start [`position`](Self::position)
    /// reported. Line numbers stay exact: the newlines in between are
    /// counted. An offset past the end or inside a character is an error.
    pub fn seek(&mut self, offset: usize) -> Result<()> {
        let rest = self.text.get(offset..).ok_or_else(|| {
            let found = "an offset past the end or inside a character";
            StorageError::corrupt_at_offset(&self.source, offset as u64, "a record start", found)
        })?;
        // Byte-wide sums over runs of ≤ 255 bytes cannot overflow and vectorise.
        let newlines = |from: usize, to: usize| -> usize {
            let bytes = self.text.as_bytes().get(from..to).unwrap_or_default();
            let count = |run: &[u8]| run.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>();
            bytes.chunks(255).map(|run| usize::from(count(run))).sum()
        };
        let here = self.position();
        self.line = self.line + newlines(here, offset) - newlines(offset, here);
        self.chars = rest.chars();
        Ok(())
    }

    /// Decode the next non-blank record, or `None` at end of input.
    pub fn next_record(&mut self) -> Result<Option<CsvRecord>> {
        loop {
            match self.raw_record()? {
                None => return Ok(None),
                Some(record) => {
                    let blank = record.fields.len() == 1
                        && !record.fields[0].quoted
                        && record.fields[0].text.is_empty();
                    if !blank {
                        return Ok(Some(record));
                    }
                }
            }
        }
    }

    fn raw_record(&mut self) -> Result<Option<CsvRecord>> {
        if self.chars.as_str().is_empty() {
            return Ok(None);
        }
        let start_line = self.line;
        let mut fields: Vec<CsvField> = Vec::new();
        let mut cur = String::new();
        let mut cur_quoted = false;
        let mut state = State::FieldStart;
        while let Some(c) = self.chars.next() {
            // A line break outside quotes ends the record.
            let crlf = c == '\r' && self.chars.as_str().starts_with('\n');
            if state != State::InQuotes && (c == '\n' || crlf) {
                if crlf {
                    self.chars.next();
                }
                self.line += 1;
                break;
            }
            match state {
                State::FieldStart => match c {
                    '"' => {
                        cur_quoted = true;
                        state = State::InQuotes;
                    }
                    ',' => fields.push(finish_field(&mut cur, &mut cur_quoted)),
                    other => {
                        cur.push(other);
                        state = State::Unquoted;
                    }
                },
                State::Unquoted => match c {
                    ',' => {
                        fields.push(finish_field(&mut cur, &mut cur_quoted));
                        state = State::FieldStart;
                    }
                    '"' => {
                        return Err(StorageError::corrupt_at_line(
                            &self.source,
                            start_line,
                            "no double quote inside an unquoted field",
                            format!("`\"` after `{cur}`"),
                        ));
                    }
                    other => cur.push(other),
                },
                State::InQuotes => match c {
                    '"' => {
                        if self.chars.as_str().starts_with('"') {
                            self.chars.next();
                            cur.push('"');
                        } else {
                            state = State::AfterQuotes;
                        }
                    }
                    '\n' => {
                        self.line += 1;
                        cur.push('\n');
                    }
                    other => cur.push(other),
                },
                State::AfterQuotes => match c {
                    ',' => {
                        fields.push(finish_field(&mut cur, &mut cur_quoted));
                        state = State::FieldStart;
                    }
                    other => {
                        return Err(StorageError::corrupt_at_line(
                            &self.source,
                            start_line,
                            "`,` or end of record after closing quote",
                            format!("`{other}`"),
                        ));
                    }
                },
            }
        }
        if state == State::InQuotes {
            return Err(StorageError::corrupt_at_line(
                &self.source,
                start_line,
                "closing `\"` before end of input",
                "unterminated quoted field",
            ));
        }
        fields.push(finish_field(&mut cur, &mut cur_quoted));
        Ok(Some(CsvRecord {
            line: start_line,
            fields,
        }))
    }
}

/// Parse CSV text into a [`Table`]. The first column is used as the key
/// column; column types are unified over all data rows.
///
/// Parse failures come back as [`StorageError::Corrupt`] with the source
/// labelled `"<memory>"`; use [`parse_csv_from`] to attach a real file path.
pub fn parse_csv(name: &str, text: &str) -> Result<Table> {
    parse_csv_from(name, "<memory>", text)
}

/// Read and parse a CSV file into a [`Table`] named after the file stem.
/// I/O and parse errors both carry the file path.
pub fn load_csv_file(path: &std::path::Path) -> Result<Table> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| StorageError::io(path.display().to_string(), e))?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "csv".to_string());
    parse_csv_from(&name, &path.display().to_string(), &text)
}

/// Parse CSV text into a [`Table`], attributing errors to `source` (a file
/// path or pseudo-path). Line numbers in errors are 1-based positions in
/// `text`, counting blank lines. Every data row is validated against the
/// column type fixed by the first row; the first mismatching row is rejected
/// with its line number.
pub fn parse_csv_from(name: &str, source: &str, text: &str) -> Result<Table> {
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let (names, types) = decode_checked(source, text, |_, row| rows.push(row))?;
    let columns = names
        .iter()
        .enumerate()
        .map(|(i, n)| match types[i] {
            Some(ColumnType::Int) => Column::int(n.clone()),
            Some(ColumnType::Bool) => Column::bool(n.clone()),
            _ => Column::str(n.clone()),
        })
        .collect();
    let mut table = Table::new(TableSchema {
        name: name.to_string(),
        key_column: names[0].clone(),
        columns,
    });
    for row in rows {
        table.push_row(row)?;
    }
    Ok(table)
}

/// The one validating pass, behind [`parse_csv_from`] and the scan provider:
/// `each` gets every record's start offset and typed values, in file order;
/// returns the column names and the types the first row fixed.
pub(crate) fn decode_checked(
    source: &str,
    text: &str,
    mut each: impl FnMut(usize, Vec<Value>),
) -> Result<(Vec<String>, Vec<Option<ColumnType>>)> {
    let mut reader = CsvReader::new(source, text)?;
    let names = reader.columns().to_vec();
    let mut types: Vec<Option<ColumnType>> = vec![None; names.len()];
    let mut start = reader.position();
    while let Some(record) = reader.next_record()? {
        if record.fields.len() != names.len() {
            return Err(StorageError::corrupt_at_line(
                source,
                record.line,
                format!("{} fields", names.len()),
                format!("{} fields", record.fields.len()),
            ));
        }
        let mut row = Vec::with_capacity(record.fields.len());
        for (i, field) in record.fields.iter().enumerate() {
            let value = field.value();
            let ty = value_column_type(&value);
            match types[i] {
                None => types[i] = Some(ty),
                Some(expected) if expected != ty => {
                    return Err(StorageError::corrupt_at_line(
                        source,
                        record.line,
                        format!("a {} value in column `{}`", type_name(expected), names[i]),
                        format!("{} `{}`", type_name(ty), field.text),
                    ));
                }
                Some(_) => {}
            }
            row.push(value);
        }
        each(start, row);
        start = reader.position();
    }
    Ok((names, types))
}

/// Render a table as CSV text (header plus one line per row). Every string
/// field is quoted (embedded `"` doubled), so commas, quotes and newlines in
/// data survive a re-parse and string-typed numerics stay strings.
pub fn to_csv(table: &Table) -> String {
    let mut out = String::new();
    let header: Vec<String> = table
        .schema
        .columns
        .iter()
        .map(|c| render_header(&c.name))
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in &table.rows {
        let fields: Vec<String> = row.iter().map(render_field).collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

fn infer_unquoted(field: &str) -> Value {
    if let Ok(i) = field.parse::<i64>() {
        return Value::Int(i);
    }
    match field {
        "true" | "True" => Value::Bool(true),
        "false" | "False" => Value::Bool(false),
        other => Value::str(other),
    }
}

fn value_column_type(value: &Value) -> ColumnType {
    match value {
        Value::Int(_) => ColumnType::Int,
        Value::Bool(_) => ColumnType::Bool,
        _ => ColumnType::Str,
    }
}

fn type_name(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::Str => "string",
        ColumnType::Int => "integer",
        ColumnType::Bool => "boolean",
        ColumnType::Ref => "reference",
    }
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "\"\""))
}

fn render_header(name: &str) -> String {
    if name.contains([',', '"', '\n', '\r']) || name != name.trim() {
        quote(name)
    } else {
        name.to_string()
    }
}

fn render_field(value: &Value) -> String {
    match value {
        Value::Str(s) => quote(s),
        Value::Int(i) => i.to_string(),
        Value::Bool(b) => b.to_string(),
        other => quote(&wol_model::display::render_value(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relational::load_tables;
    use wol_model::ClassName;

    const CITIES: &str = "name,is_capital,population\nParis,true,2148000\nLyon,false,513000\n";

    #[test]
    fn parse_and_infer_types() {
        let table = parse_csv("CityCsv", CITIES).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.schema.key_column, "name");
        assert_eq!(table.rows[0][1], Value::Bool(true));
        assert_eq!(table.rows[0][2], Value::Int(2_148_000));
        assert_eq!(table.rows[1][0], Value::str("Lyon"));
    }

    #[test]
    fn round_trip_through_csv() {
        let table = parse_csv("CityCsv", CITIES).unwrap();
        let text = to_csv(&table);
        let reparsed = parse_csv("CityCsv", &text).unwrap();
        assert_eq!(table.rows, reparsed.rows);
        assert_eq!(table.schema.columns, reparsed.schema.columns);
    }

    /// Fields containing commas, quotes and newlines are quoted/escaped on
    /// output and decoded back verbatim; a string `"123"` stays a string.
    #[test]
    fn quoting_round_trips_awkward_fields() {
        let mut table = Table::new(TableSchema {
            name: "T".to_string(),
            key_column: "k".to_string(),
            columns: vec![Column::str("k"), Column::str("v"), Column::int("n")],
        });
        table
            .push_row(vec![
                Value::str("a,b"),
                Value::str("he said \"hi\""),
                Value::int(1),
            ])
            .unwrap();
        table
            .push_row(vec![
                Value::str("line\nbreak"),
                Value::str("123"),
                Value::int(2),
            ])
            .unwrap();
        table
            .push_row(vec![
                Value::str(""),
                Value::str("crlf\r\nok"),
                Value::int(-3),
            ])
            .unwrap();
        let text = to_csv(&table);
        let reparsed = parse_csv("T", &text).unwrap();
        assert_eq!(table.rows, reparsed.rows);
        assert_eq!(table.schema.columns, reparsed.schema.columns);
        // The string "123" did not silently become an integer.
        assert_eq!(reparsed.rows[1][1], Value::str("123"));
    }

    /// A quoted field spanning a newline keeps later error line numbers
    /// anchored to true source lines.
    #[test]
    fn multiline_quoted_field_keeps_line_numbers() {
        let text = "a,b\n\"x\ny\",1\nshort\n";
        let err = parse_csv_from("T", "t.csv", text).unwrap_err();
        // The bad record starts on line 4: header(1), record spanning 2-3.
        assert_eq!(
            err,
            StorageError::corrupt_at_line("t.csv", 4, "2 fields", "1 fields")
        );
    }

    /// Column types are unified over every row, not just the first: the
    /// first mismatching row is rejected with its line number.
    #[test]
    fn mixed_type_columns_rejected_with_line() {
        let text = "name,n\nParis,1\nLyon,2\nNice,oops\n";
        let err = parse_csv_from("T", "t.csv", text).unwrap_err();
        assert_eq!(
            err,
            StorageError::corrupt_at_line(
                "t.csv",
                4,
                "a integer value in column `n`",
                "string `oops`"
            )
        );
        // Widening the other way (string column, later integer) is also rejected.
        let text = "name,v\nParis,hello\nLyon,7\n";
        let err = parse_csv_from("T", "t.csv", text).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn unterminated_quote_rejected() {
        let err = parse_csv("T", "a,b\n\"open,1\n").unwrap_err();
        assert!(err.to_string().contains("unterminated"), "{err}");
        let err = parse_csv("T", "a,b\nx\"y,1\n").unwrap_err();
        assert!(err.to_string().contains("unquoted"), "{err}");
    }

    #[test]
    fn csv_feeds_the_relational_adapter() {
        let table = parse_csv("CityCsv", CITIES).unwrap();
        let instance = load_tables(&[table], "csv_import").unwrap();
        assert_eq!(instance.extent_size(&ClassName::new("CityCsv")), 2);
        let paris = instance
            .find_by_field(&ClassName::new("CityCsv"), "name", &Value::str("Paris"))
            .unwrap();
        assert_eq!(
            instance.value(paris).unwrap().project("population"),
            Some(&Value::int(2_148_000))
        );
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(parse_csv("T", "").is_err());
        assert!(parse_csv("T", "a,b\n1\n").is_err());
        assert!(parse_csv("T", "a,,c\n1,2,3\n").is_err());
    }

    /// A truncated row reports the source, the true (blank-line-aware) line
    /// number, and expected-vs-found field counts.
    #[test]
    fn truncated_row_reports_position_context() {
        let text = "name,is_capital,population\nParis,true,2148000\n\nLyon,false\n";
        let err = parse_csv_from("CityCsv", "cities.csv", text).unwrap_err();
        assert_eq!(
            err,
            StorageError::corrupt_at_line("cities.csv", 4, "3 fields", "2 fields")
        );
        let rendered = err.to_string();
        assert!(rendered.contains("cities.csv"), "{rendered}");
        assert!(rendered.contains("line 4"), "{rendered}");
        // The in-memory entry point labels its source.
        let err = parse_csv("CityCsv", "a,b\n1\n").unwrap_err();
        assert!(matches!(
            err,
            StorageError::Corrupt { ref path, .. } if path == "<memory>"
        ));
    }

    /// A header naming a column twice (after trimming) is rejected at line 1:
    /// a record with two `x` fields has no single value of `x`, and a pushed
    /// filter on `x` would otherwise read a different field than the record.
    #[test]
    fn duplicate_header_names_are_rejected() {
        let expected = "comma-separated distinct non-empty column names";
        let err = parse_csv_from("T", "t.csv", "k,x,x\n\"a\",1,5\n").unwrap_err();
        assert_eq!(
            err,
            StorageError::corrupt_at_line("t.csv", 1, expected, "`k,x,x`")
        );
        let err = parse_csv_from("T", "t.csv", "\"x\", x ,k\n1,2,3\n").unwrap_err();
        assert_eq!(
            err,
            StorageError::corrupt_at_line("t.csv", 1, expected, "`x,x,k`")
        );
        assert!(CsvReader::new("t.csv", "a,b,a\n").is_err());
        let texts = vec![("T".into(), "t.csv".into(), "k,x,x\n\"a\",1,5\n".into())];
        assert!(crate::provider::CsvDirProvider::from_texts(texts).is_err());
    }

    /// `position` taken before `next_record` is a record start; seeking back
    /// to it (or forward past records) re-lexes the same record with the
    /// same line number, and a bad offset is an error, not a panic.
    #[test]
    fn seek_re_lexes_records_at_reported_positions() {
        let text = "k,v\r\n\"a\nb\",1\n\nc,2\n\"é\",3";
        let mut reader = CsvReader::new("t.csv", text).unwrap();
        let mut starts = Vec::new();
        let mut records = Vec::new();
        loop {
            let start = reader.position();
            let Some(record) = reader.next_record().unwrap() else {
                break;
            };
            starts.push(start);
            records.push((record.line, record.fields));
        }
        assert_eq!(
            records.iter().map(|r| r.0).collect::<Vec<_>>(),
            vec![2, 5, 6]
        );
        for i in [2, 0, 1, 2, 1] {
            reader.seek(starts[i]).unwrap();
            let record = reader.next_record().unwrap().unwrap();
            assert_eq!((record.line, record.fields), records[i]);
        }
        let multibyte = text.rfind('é').unwrap() + 1;
        assert!(reader.seek(multibyte).is_err());
        assert!(reader.seek(text.len() + 1).is_err());
        reader.seek(text.len()).unwrap();
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn load_csv_file_reads_and_attributes_errors_to_the_path() {
        let dir = std::env::temp_dir().join(format!("wol-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("cities.csv");
        std::fs::write(&good, CITIES).unwrap();
        let table = load_csv_file(&good).unwrap();
        assert_eq!(table.schema.name, "cities");
        assert_eq!(table.len(), 2);

        let bad = dir.join("short.csv");
        std::fs::write(&bad, "a,b,c\n1,2\n").unwrap();
        let err = load_csv_file(&bad).unwrap_err();
        assert!(err.to_string().contains("short.csv"), "{err}");

        let err = load_csv_file(&dir.join("absent.csv")).unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

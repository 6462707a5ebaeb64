//! A flat relational store and its adapter to the WOL data model.
//!
//! Stands in for the Sybase database (Chr22DB) of the paper's trials: tables
//! of base-typed columns, with string-valued *key columns* used to resolve
//! cross-table references into object identities when loading into an
//! [`Instance`].

use std::collections::BTreeMap;

use wol_model::{ClassName, Instance, Label, Record, Value};

use crate::error::StorageError;
use crate::Result;

/// The type of a relational column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnType {
    /// Strings.
    Str,
    /// 64-bit integers.
    Int,
    /// Booleans.
    Bool,
    /// A reference to a row of another table, stored as that table's key value.
    Ref,
}

/// A column: name, type and (for references) the referenced table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// Column name (becomes the attribute label).
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
    /// For [`ColumnType::Ref`] columns, the referenced table.
    pub references: Option<String>,
}

impl Column {
    /// A string column.
    pub fn str(name: impl Into<String>) -> Column {
        Column {
            name: name.into(),
            ty: ColumnType::Str,
            references: None,
        }
    }

    /// An integer column.
    pub fn int(name: impl Into<String>) -> Column {
        Column {
            name: name.into(),
            ty: ColumnType::Int,
            references: None,
        }
    }

    /// A boolean column.
    pub fn bool(name: impl Into<String>) -> Column {
        Column {
            name: name.into(),
            ty: ColumnType::Bool,
            references: None,
        }
    }

    /// A reference column pointing at `table`.
    pub fn reference(name: impl Into<String>, table: impl Into<String>) -> Column {
        Column {
            name: name.into(),
            ty: ColumnType::Ref,
            references: Some(table.into()),
        }
    }
}

/// The schema of a table: its name, key column and columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name (becomes the class name).
    pub name: String,
    /// The column whose value identifies a row (a string key).
    pub key_column: String,
    /// The columns.
    pub columns: Vec<Column>,
}

/// A table: a schema plus rows of values (one value per column, in order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    /// The rows.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Append a row; its arity and value types must match the schema. A
    /// truncated (or over-long) row is reported with the table name, the
    /// 1-based row number it would have occupied, and expected-vs-found
    /// arity; a type-mismatched value is reported the same way with the
    /// offending column. Reference columns hold the referenced table's
    /// string key (resolution happens at [`load_tables`] time);
    /// [`Value::Absent`] is accepted in any column as a missing value.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.columns.len() {
            return Err(StorageError::corrupt_at_line(
                format!("table `{}`", self.schema.name),
                self.rows.len() + 1,
                format!("{} values per row", self.schema.columns.len()),
                format!("{} values", row.len()),
            ));
        }
        for (column, value) in self.schema.columns.iter().zip(row.iter()) {
            let ok = matches!(
                (column.ty, value),
                (_, Value::Absent)
                    | (ColumnType::Str, Value::Str(_))
                    | (ColumnType::Int, Value::Int(_))
                    | (ColumnType::Bool, Value::Bool(_))
                    | (ColumnType::Ref, Value::Str(_))
            );
            if !ok {
                let expected = match column.ty {
                    ColumnType::Str => "string",
                    ColumnType::Int => "integer",
                    ColumnType::Bool => "boolean",
                    ColumnType::Ref => "string key",
                };
                return Err(StorageError::corrupt_at_line(
                    format!("table `{}`", self.schema.name),
                    self.rows.len() + 1,
                    format!("a {expected} value in column `{}`", column.name),
                    wol_model::display::render_value(value),
                ));
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn column_index(&self, name: &str) -> Result<usize> {
        self.schema
            .columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| {
                StorageError::Missing(format!("column `{name}` in table `{}`", self.schema.name))
            })
    }
}

/// Load a set of tables into a model instance. Each table becomes a class;
/// each row becomes an object whose record has one field per column, with
/// reference columns resolved to the object identity of the referenced row
/// (matching on the referenced table's key column).
pub fn load_tables(tables: &[Table], instance_name: &str) -> Result<Instance> {
    let mut instance = Instance::new(instance_name);
    // Pass 1: create objects keyed by (table, key value).
    let mut oids: BTreeMap<(String, Value), wol_model::Oid> = BTreeMap::new();
    for table in tables {
        let key_idx = table.column_index(&table.schema.key_column)?;
        let class = ClassName::new(&table.schema.name);
        for row in &table.rows {
            let key = row[key_idx].clone();
            let oid = instance.insert_fresh(&class, Value::Record(Record::new()));
            oids.insert((table.schema.name.clone(), key), oid);
        }
    }
    // Pass 2: fill in the record values, resolving references.
    for table in tables {
        let key_idx = table.column_index(&table.schema.key_column)?;
        let labels: Vec<Label> = table
            .schema
            .columns
            .iter()
            .map(|c| Label::new(&c.name))
            .collect();
        for (row_no, row) in table.rows.iter().enumerate() {
            let key = row[key_idx].clone();
            let oid = oids[&(table.schema.name.clone(), key)].clone();
            let mut fields = Vec::with_capacity(labels.len());
            for ((column, label), value) in table.schema.columns.iter().zip(&labels).zip(row) {
                let stored = match column.ty {
                    ColumnType::Ref => {
                        let referenced_table = column.references.as_ref().ok_or_else(|| {
                            StorageError::Missing(format!(
                                "reference column `{}` has no referenced table",
                                column.name
                            ))
                        })?;
                        let target = oids
                            .get(&(referenced_table.clone(), value.clone()))
                            .ok_or_else(|| {
                                StorageError::UnresolvedReference(format!(
                                    "row {} of `{}` references `{referenced_table}` key {value:?} \
                                     which does not exist",
                                    row_no + 1,
                                    table.schema.name
                                ))
                            })?;
                        Value::Oid(target.clone())
                    }
                    _ => value.clone(),
                };
                fields.push((label.clone(), stored));
            }
            instance.update(&oid, Value::Record(fields.into_iter().collect()))?;
        }
    }
    Ok(instance)
}

/// Dump one class of an instance back to a flat table. Object-identity-valued
/// attributes are flattened to the referenced object's value of `ref_key`
/// (typically `"name"`); complex attributes are skipped.
pub fn dump_class(instance: &Instance, class: &ClassName, ref_key: &str) -> Result<Table> {
    // Determine the columns from the first object's record.
    let mut columns: Vec<Column> = Vec::new();
    let mut first = true;
    let mut rows = Vec::new();
    for (_, value) in instance.objects(class) {
        let record = value
            .as_record()
            .ok_or_else(|| StorageError::BadRow(format!("object of `{class}` is not a record")))?;
        if first {
            for (label, field) in record {
                let column = match field {
                    Value::Str(_) => Column::str(label.as_str()),
                    Value::Int(_) => Column::int(label.as_str()),
                    Value::Bool(_) => Column::bool(label.as_str()),
                    Value::Oid(oid) => Column::reference(label.as_str(), oid.class().as_str()),
                    _ => continue,
                };
                columns.push(column);
            }
            first = false;
        }
        let mut row = Vec::new();
        for column in &columns {
            let field = record.get(&column.name).cloned().unwrap_or(Value::Absent);
            let flattened = match (&column.ty, field) {
                (ColumnType::Ref, Value::Oid(oid)) => {
                    let referenced = instance.value_or_err(&oid)?;
                    referenced.project(ref_key).cloned().ok_or_else(|| {
                        StorageError::BadRow(format!(
                            "referenced object {oid} has no `{ref_key}` attribute"
                        ))
                    })?
                }
                (_, v) => v,
            };
            row.push(flattened);
        }
        rows.push(row);
    }
    let schema = TableSchema {
        name: class.to_string(),
        key_column: columns
            .first()
            .map(|c| c.name.clone())
            .unwrap_or_else(|| "name".to_string()),
        columns,
    };
    let mut table = Table::new(schema);
    for row in rows {
        table.push_row(row)?;
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn country_table() -> Table {
        let mut t = Table::new(TableSchema {
            name: "CountryE".to_string(),
            key_column: "name".to_string(),
            columns: vec![
                Column::str("name"),
                Column::str("language"),
                Column::str("currency"),
            ],
        });
        t.push_row(vec![
            Value::str("France"),
            Value::str("French"),
            Value::str("franc"),
        ])
        .unwrap();
        t.push_row(vec![
            Value::str("United Kingdom"),
            Value::str("English"),
            Value::str("sterling"),
        ])
        .unwrap();
        t
    }

    fn city_table() -> Table {
        let mut t = Table::new(TableSchema {
            name: "CityE".to_string(),
            key_column: "name".to_string(),
            columns: vec![
                Column::str("name"),
                Column::bool("is_capital"),
                Column::reference("country", "CountryE"),
            ],
        });
        t.push_row(vec![
            Value::str("Paris"),
            Value::bool(true),
            Value::str("France"),
        ])
        .unwrap();
        t.push_row(vec![
            Value::str("London"),
            Value::bool(true),
            Value::str("United Kingdom"),
        ])
        .unwrap();
        t.push_row(vec![
            Value::str("Lyon"),
            Value::bool(false),
            Value::str("France"),
        ])
        .unwrap();
        t
    }

    #[test]
    fn load_resolves_references() {
        let instance = load_tables(&[country_table(), city_table()], "euro").unwrap();
        assert_eq!(instance.extent_size(&ClassName::new("CountryE")), 2);
        assert_eq!(instance.extent_size(&ClassName::new("CityE")), 3);
        let paris = instance
            .find_by_field(&ClassName::new("CityE"), "name", &Value::str("Paris"))
            .unwrap();
        let country_oid = instance
            .value(paris)
            .unwrap()
            .project("country")
            .and_then(|v| v.as_oid())
            .unwrap()
            .clone();
        assert_eq!(
            instance.value(&country_oid).unwrap().project("name"),
            Some(&Value::str("France"))
        );
    }

    #[test]
    fn unresolved_reference_reported() {
        let mut city = city_table();
        city.push_row(vec![
            Value::str("Atlantis"),
            Value::bool(false),
            Value::str("Nowhere"),
        ])
        .unwrap();
        let err = load_tables(&[country_table(), city], "euro").unwrap_err();
        assert!(matches!(err, StorageError::UnresolvedReference(_)));
    }

    /// Type-mismatched values are rejected with the table, row number and
    /// offending column — never stored.
    #[test]
    fn mismatched_types_rejected() {
        let mut t = country_table();
        let err = t
            .push_row(vec![
                Value::str("Spain"),
                Value::int(34),
                Value::str("euro"),
            ])
            .unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.contains("column `language`"), "{rendered}");
        assert!(rendered.contains("line 3"), "{rendered}");
        assert_eq!(t.len(), 2);
        // Absent is a legal missing value in any column.
        let mut city = city_table();
        city.push_row(vec![
            Value::str("Nice"),
            Value::Absent,
            Value::str("France"),
        ])
        .unwrap();
        // Reference columns carry string keys until load resolves them.
        assert!(city
            .push_row(vec![
                Value::str("Cannes"),
                Value::bool(false),
                Value::int(7),
            ])
            .is_err());
    }

    #[test]
    fn wrong_arity_rejected() {
        let mut t = country_table();
        assert!(t.push_row(vec![Value::str("Spain")]).is_err());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    /// A truncated row reports the table, the row number it would have
    /// occupied, and expected-vs-found arity — never a panic.
    #[test]
    fn truncated_row_reports_position_context() {
        let mut t = country_table();
        let err = t
            .push_row(vec![Value::str("Spain"), Value::str("Spanish")])
            .unwrap_err();
        assert_eq!(
            err,
            StorageError::corrupt_at_line("table `CountryE`", 3, "3 values per row", "2 values")
        );
        let rendered = err.to_string();
        assert!(rendered.contains("CountryE"), "{rendered}");
        assert!(rendered.contains("line 3"), "{rendered}");
        // Unresolved references also carry the offending row number.
        let mut city = city_table();
        city.push_row(vec![
            Value::str("Atlantis"),
            Value::bool(false),
            Value::str("Nowhere"),
        ])
        .unwrap();
        let err = load_tables(&[country_table(), city], "euro").unwrap_err();
        assert!(err.to_string().contains("row 4"), "{err}");
    }

    #[test]
    fn dump_round_trips_flat_classes() {
        let instance = load_tables(&[country_table(), city_table()], "euro").unwrap();
        let dumped = dump_class(&instance, &ClassName::new("CityE"), "name").unwrap();
        assert_eq!(dumped.len(), 3);
        // Reference columns are flattened back to the referenced key.
        let country_idx = dumped.column_index("country").unwrap();
        assert!(dumped
            .rows
            .iter()
            .any(|r| r[country_idx] == Value::str("France")));
        // Reloading the dumped tables alongside the countries reproduces the extents.
        let reloaded = load_tables(&[country_table(), dumped], "euro2").unwrap();
        assert_eq!(reloaded.extent_size(&ClassName::new("CityE")), 3);
    }

    #[test]
    fn missing_column_reported() {
        let t = country_table();
        assert!(t.column_index("population").is_err());
    }
}

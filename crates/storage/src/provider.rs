//! Backends as planner-visible *sources*: the [`ScanProvider`] trait plus
//! implementations for the three storage substrates and the streaming
//! ingest driver.
//!
//! A whole-instance load gives the planner nothing to work with: every row
//! of every backend is materialized before the first cardinality question is
//! asked. A [`ScanProvider`] instead exposes each backend class *before*
//! ingest — per-class row counts and distinct-value counts for planning
//! ([`ClassStats`]), a pushed conjunct set plus projection list
//! ([`Pushdown`]), and a deterministic chunked row stream — so the planner
//! can decide join order and predicate placement first, and the ingest path
//! ([`ingest_class`]) only ever materializes the rows that survive the
//! pushed filters.
//!
//! ## Contract (shared by every implementation)
//!
//! * **Determinism** — for a fixed backend state and [`Pushdown`], `scan`
//!   yields the same rows in the same order on every call: backend-native
//!   order (file order for CSV, store order for AceDB, row order for
//!   tables), never hash order. Chunk boundaries fall every `chunk_rows`
//!   surviving rows; chunking must not reorder rows.
//! * **Filter semantics** — a pushed `attr op const` filter keeps exactly
//!   the rows the executor's own predicate evaluation would keep
//!   ([`PushedFilter::matches`] mirrors `cpl`'s comparison semantics:
//!   missing attributes and uncomparable kinds fail ordered comparisons,
//!   `!=` over distinct kinds succeeds). Conjunction: a row must pass every
//!   filter.
//! * **Projection** — when a projection list is given, streamed records
//!   carry only those attributes. Callers must project identically whether
//!   or not filters are pushed, or row identity between modes breaks.
//! * **Stats freshness** — [`ScanProvider::stats`] describes the backend
//!   state the *next* `scan` call will stream (unfiltered totals). Providers
//!   over mutable backends must recompute or invalidate on mutation. The
//!   three here have no `&mut self` method, so each computes its statistics
//!   once, at construction, and the contract holds trivially.
//! * **Residual predicates** — a provider only sees the conjuncts the
//!   planner chose to push; everything else (multi-variable predicates,
//!   computed expressions) remains the executor's obligation. Pushing is an
//!   optimisation, never a semantic filter of last resort.

use std::collections::{BTreeMap, BTreeSet};

use wol_model::{ClassName, Instance, Label, Oid, Record, Value};

use crate::acedb::{AceMapping, AceStore, AceValue};
use crate::csv::{decode_checked, CsvReader};
use crate::error::StorageError;
use crate::relational::Table;
use crate::Result;

/// Default number of surviving rows per streamed chunk.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

/// A comparison a backend evaluates natively on one attribute (the attribute
/// always on the left): the planner's pushdown operator, shared with `cpl`.
pub use wol_model::PushOp;

/// One pushed conjunct: `attr op value`.
#[derive(Clone, Debug, PartialEq)]
pub struct PushedFilter {
    /// The attribute compared.
    pub attr: String,
    /// The comparison.
    pub op: PushOp,
    /// The constant compared against.
    pub value: Value,
}

impl PushedFilter {
    /// Whether a row whose `attr` holds `value` (or lacks it, `None`)
    /// passes, by the executor's own comparison ([`PushOp::holds`]): a
    /// missing attribute never passes (the executor's projection error makes
    /// the predicate false), and neither does an uncomparable pair.
    pub fn matches(&self, value: Option<&Value>) -> bool {
        value.is_some_and(|value| {
            self.op
                .holds(value.into(), (&self.value).into())
                .unwrap_or(false)
        })
    }
}

/// What the planner pushed into one scan: the conjuncts the backend must
/// apply (all of them — conjunction) and, optionally, the attributes to
/// materialize per row (`None` = all).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pushdown {
    /// Conjuncts to apply natively; a row must pass every one.
    pub filters: Vec<PushedFilter>,
    /// Attributes to keep in the streamed records; `None` keeps everything.
    pub projection: Option<BTreeSet<String>>,
}

impl Pushdown {
    /// A pushdown that filters and projects nothing (full scan).
    pub fn none() -> Pushdown {
        Pushdown::default()
    }

    /// True if `attr` survives the projection.
    fn keeps(&self, attr: &str) -> bool {
        self.projection.as_ref().is_none_or(|p| p.contains(attr))
    }
}

/// Per-class statistics a provider reports for planning, describing the
/// *unfiltered* stream the backend would produce: the record the planner
/// itself consumes (`cpl::ExternalClassStats`), defined once in `wol_model`.
pub use wol_model::ClassStats;

/// Row accounting of one `scan` call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanSummary {
    /// Backend rows read (before pushed filters).
    pub rows_in: usize,
    /// Rows streamed to the sink (after pushed filters).
    pub rows_out: usize,
    /// Records decoded from a serialized encoding (CSV: lexed from the text);
    /// zero for backends holding decoded values (AceDB, relational).
    pub decoded: usize,
}

/// A backend the planner can push filters and projections into. See the
/// module docs for the determinism/ordering/stats contract.
pub trait ScanProvider {
    /// Short backend name, for reports (`"csv"`, `"acedb"`, `"relational"`).
    fn name(&self) -> &str;

    /// The classes this provider serves, in deterministic order.
    fn classes(&self) -> Vec<ClassName>;

    /// Planning statistics for one served class; `None` if not served.
    fn stats(&self, class: &ClassName) -> Option<ClassStats>;

    /// Stream the rows of `class` that pass `pushdown`, as record
    /// [`Value`]s, calling `sink` once per chunk of at most `chunk_rows`
    /// rows (in backend order). Returns the row accounting.
    fn scan(
        &self,
        class: &ClassName,
        pushdown: &Pushdown,
        chunk_rows: usize,
        sink: &mut dyn FnMut(Vec<Value>) -> Result<()>,
    ) -> Result<ScanSummary>;
}

/// Emit `row` into the pending chunk, flushing through `sink` when full.
fn push_chunked(
    chunk: &mut Vec<Value>,
    chunk_rows: usize,
    row: Value,
    sink: &mut dyn FnMut(Vec<Value>) -> Result<()>,
) -> Result<()> {
    chunk.push(row);
    if chunk.len() >= chunk_rows.max(1) {
        sink(std::mem::take(chunk))?;
    }
    Ok(())
}

/// The position of `filter`'s attribute among a class's column `names`.
fn column_of<'a>(
    mut names: impl Iterator<Item = &'a str>,
    filter: &PushedFilter,
    class: &ClassName,
) -> Result<usize> {
    names
        .position(|name| name == filter.attr)
        .ok_or_else(|| StorageError::Missing(format!("column `{}` in `{class}`", filter.attr)))
}

/// A scan's record layout: the kept `(label, column)` pairs, stably sorted
/// by label once per scan, so each row's record is built in label order with
/// no interning and no sort.
fn scan_layout<'a>(
    labels: impl Iterator<Item = &'a Label>,
    pushdown: &Pushdown,
) -> Vec<(Label, usize)> {
    let mut layout: Vec<(Label, usize)> = labels
        .cloned()
        .enumerate()
        .filter(|(_, label)| pushdown.keeps(label))
        .map(|(i, label)| (label, i))
        .collect();
    layout.sort_by(|a, b| a.0.cmp(&b.0));
    layout
}

/// Append one field to a record being built in [`scan_layout`] order. A repeated
/// label keeps its last value, as successive map inserts would.
fn push_field(fields: &mut Vec<(Label, Value)>, label: &Label, value: Value) {
    match fields.last_mut() {
        Some((last, slot)) if last == label => *slot = value,
        _ => fields.push((label.clone(), value)),
    }
}

/// Flush the final partial chunk.
fn flush_chunk(
    chunk: &mut Vec<Value>,
    sink: &mut dyn FnMut(Vec<Value>) -> Result<()>,
) -> Result<()> {
    if !chunk.is_empty() {
        sink(std::mem::take(chunk))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// CSV directory provider.
// ---------------------------------------------------------------------------

/// A column's values decoded at `open`, so pushed filters on it need no
/// lexing: 8 bytes per row for an Int column, 1 for a Bool column. String
/// columns have none; their filters are evaluated on the lexed record.
enum Lane {
    Int(Vec<i64>),
    Bool(Vec<bool>),
}

impl Lane {
    /// The lane of a column whose values have `value`'s kind.
    fn of(value: &Value) -> Option<Lane> {
        match value {
            Value::Int(_) => Some(Lane::Int(Vec::new())),
            Value::Bool(_) => Some(Lane::Bool(Vec::new())),
            _ => None,
        }
    }

    /// Row `row`'s value.
    fn value(&self, row: usize) -> Option<Value> {
        match self {
            Lane::Int(lane) => lane.get(row).map(|i| Value::Int(*i)),
            Lane::Bool(lane) => lane.get(row).map(|b| Value::Bool(*b)),
        }
    }
}

struct CsvClass {
    stats: ClassStats,
    source: String,
    text: String,
    /// The header's names, interned once here.
    columns: Vec<Label>,
    /// Start offset into `text` and 1-based line of every record, in file
    /// order.
    starts: Vec<(usize, usize)>,
    /// Per column, its lane if it is an Int or Bool column.
    lanes: Vec<Option<Lane>>,
}

/// A directory of `*.csv` files, one class per file (named by file stem),
/// alphabetically ordered. Construction makes the one validating pass over
/// each text, keeping the statistics, each record's offset and line and a
/// typed lane per Int or Bool column. A scan evaluates pushed filters on
/// laned columns from the lanes, lexes only the records passing them all
/// (one reader, re-seated over the gaps at the lines recorded, so nothing
/// is recounted), and evaluates string-column filters on those: an
/// unfiltered scan reads the text sequentially, once.
pub struct CsvDirProvider {
    classes: Vec<CsvClass>,
}

impl CsvDirProvider {
    /// Scan `dir` for `*.csv` files and compute per-class statistics.
    pub fn open(dir: &std::path::Path) -> Result<CsvDirProvider> {
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| StorageError::io(dir.display().to_string(), e))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "csv"))
            .collect();
        paths.sort();
        let mut classes = Vec::new();
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| StorageError::io(path.display().to_string(), e))?;
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "csv".to_string());
            classes.push(CsvClass::build(&name, &path.display().to_string(), text)?);
        }
        Ok(CsvDirProvider { classes })
    }

    /// A provider over in-memory CSV texts (`(class name, source label,
    /// text)`), for tests and generated workloads.
    pub fn from_texts(texts: Vec<(String, String, String)>) -> Result<CsvDirProvider> {
        let mut classes = Vec::new();
        for (name, source, text) in texts {
            classes.push(CsvClass::build(&name, &source, text)?);
        }
        Ok(CsvDirProvider { classes })
    }

    fn class(&self, class: &ClassName) -> Option<&CsvClass> {
        self.classes.iter().find(|c| &c.stats.class == class)
    }
}

impl CsvClass {
    /// The one validating pass over the text, keeping the statistics, the
    /// record starts and the lanes.
    fn build(name: &str, source: &str, text: String) -> Result<CsvClass> {
        let mut starts = Vec::new();
        let mut lanes: Vec<Option<Lane>> = Vec::new();
        let mut distinct: Vec<BTreeSet<Value>> = Vec::new();
        let (columns, _) = decode_checked(source, &text, |offset, line, row| {
            if starts.is_empty() {
                lanes = row.iter().map(Lane::of).collect();
                distinct = vec![BTreeSet::new(); row.len()];
            }
            starts.push((offset, line));
            for ((value, lane), set) in row.into_iter().zip(&mut lanes).zip(&mut distinct) {
                match (lane, &value) {
                    (Some(Lane::Int(lane)), Value::Int(i)) => lane.push(*i),
                    (Some(Lane::Bool(lane)), Value::Bool(b)) => lane.push(*b),
                    _ => {}
                }
                set.insert(value);
            }
        })?;
        let ndvs = columns
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), distinct.get(i).map_or(0, BTreeSet::len)))
            .collect();
        Ok(CsvClass {
            stats: ClassStats {
                class: ClassName::new(name),
                rows: starts.len(),
                ndvs,
            },
            source: source.to_string(),
            text,
            columns: columns.iter().map(Label::new).collect(),
            starts,
            lanes,
        })
    }
}

impl ScanProvider for CsvDirProvider {
    fn name(&self) -> &str {
        "csv"
    }

    fn classes(&self) -> Vec<ClassName> {
        self.classes.iter().map(|c| c.stats.class.clone()).collect()
    }

    fn stats(&self, class: &ClassName) -> Option<ClassStats> {
        self.class(class).map(|c| c.stats.clone())
    }

    fn scan(
        &self,
        class: &ClassName,
        pushdown: &Pushdown,
        chunk_rows: usize,
        sink: &mut dyn FnMut(Vec<Value>) -> Result<()>,
    ) -> Result<ScanSummary> {
        let c = self
            .class(class)
            .ok_or_else(|| StorageError::Missing(format!("csv class `{class}`")))?;
        // Each filter resolved once, to its column's lane or, for a string
        // column, to the field's position in the lexed record.
        let mut laned = Vec::new();
        let mut lexed = Vec::new();
        for filter in &pushdown.filters {
            let i = column_of(c.columns.iter().map(|l| l.as_str()), filter, class)?;
            match c.lanes.get(i).and_then(Option::as_ref) {
                Some(lane) => laned.push((lane, filter)),
                None => lexed.push((i, filter)),
            }
        }
        let layout = scan_layout(c.columns.iter(), pushdown);
        let mut reader = CsvReader::new(&c.source, &c.text)?;
        let mut summary = ScanSummary::default();
        let mut chunk = Vec::new();
        for (row, &(offset, line)) in c.starts.iter().enumerate() {
            summary.rows_in += 1;
            let keep =
                |(lane, filter): &(&Lane, &PushedFilter)| filter.matches(lane.value(row).as_ref());
            if !laned.iter().all(keep) {
                continue;
            }
            // Having lexed record `row - 1`, the reader stands at `offset`.
            if reader.position() != offset {
                reader.seek_to(offset, line)?;
            }
            let Some(record) = reader.next_record()? else {
                let missing = format!("csv record at byte {offset} of `{class}`");
                return Err(StorageError::Missing(missing));
            };
            summary.decoded += 1;
            let passes = lexed.iter().all(|(i, filter)| {
                record
                    .fields
                    .get(*i)
                    .is_some_and(|field| filter.matches(Some(&field.value())))
            });
            if !passes {
                continue;
            }
            summary.rows_out += 1;
            let mut fields = Vec::with_capacity(layout.len());
            for (label, i) in &layout {
                if let Some(field) = record.fields.get(*i) {
                    push_field(&mut fields, label, field.value());
                }
            }
            let row = Value::Record(Record::from_sorted(fields));
            push_chunked(&mut chunk, chunk_rows, row, sink)?;
        }
        flush_chunk(&mut chunk, sink)?;
        Ok(summary)
    }
}

// ---------------------------------------------------------------------------
// AceDB provider.
// ---------------------------------------------------------------------------

/// An [`AceStore`] served through a set of [`AceMapping`]s, one model class
/// per mapping, objects in store order. Cross-object references stream as
/// the referenced object's *name* (a string key): in a federated pipeline
/// the linkage is the WOL program's join, not an intra-instance identity.
/// Lists stream as sets of the same key-valued conversions.
pub struct AceProvider {
    store: AceStore,
    mappings: Vec<AceMapping>,
    /// One record per mapping, in mapping order.
    stats: Vec<ClassStats>,
}

impl AceProvider {
    /// Serve `store` through `mappings`, computing their statistics.
    pub fn new(store: AceStore, mappings: Vec<AceMapping>) -> AceProvider {
        let stats = mappings
            .iter()
            .map(|mapping| {
                let objects = store.of_class(&mapping.ace_class);
                let mut distinct: BTreeMap<String, BTreeSet<Value>> = BTreeMap::new();
                for object in &objects {
                    distinct
                        .entry("name".to_string())
                        .or_default()
                        .insert(Value::str(&object.name));
                    for (tag, label) in &mapping.tags {
                        if let Some(value) = object.tags.get(tag) {
                            distinct
                                .entry(label.to_string())
                                .or_default()
                                .insert(convert_keyed(value));
                        }
                    }
                }
                ClassStats {
                    class: ClassName::new(&mapping.model_class),
                    rows: objects.len(),
                    ndvs: distinct.into_iter().map(|(a, s)| (a, s.len())).collect(),
                }
            })
            .collect();
        AceProvider {
            store,
            mappings,
            stats,
        }
    }

    fn mapping(&self, class: &ClassName) -> Option<&AceMapping> {
        self.mappings
            .iter()
            .find(|m| m.model_class == class.as_str())
    }

    /// `object`'s record under a scan's `layout` over the mapping's labels
    /// (position 0 is `name`, position `t + 1` is tag `t`, whose label the
    /// mapping interned when it was built).
    fn record(
        object: &crate::acedb::AceObject,
        mapping: &AceMapping,
        layout: &[(Label, usize)],
    ) -> Value {
        let mut fields = Vec::with_capacity(layout.len());
        for (label, i) in layout {
            let value = match i.checked_sub(1) {
                None => Some(Value::str(&object.name)),
                Some(t) => mapping
                    .tags
                    .get(t)
                    .and_then(|(tag, _)| object.tags.get(tag))
                    .map(convert_keyed),
            };
            if let Some(value) = value {
                push_field(&mut fields, label, value);
            }
        }
        Value::Record(Record::from_sorted(fields))
    }

    fn attr_value(
        object: &crate::acedb::AceObject,
        mapping: &AceMapping,
        attr: &str,
    ) -> Option<Value> {
        if attr == "name" {
            return Some(Value::str(&object.name));
        }
        let (tag, _) = mapping.tags.iter().find(|(_, label)| label == attr)?;
        object.tags.get(tag).map(convert_keyed)
    }
}

/// Convert an [`AceValue`] for federated streaming: references become the
/// referenced object's name, lists become sets.
fn convert_keyed(value: &AceValue) -> Value {
    match value {
        AceValue::Text(s) => Value::str(s.clone()),
        AceValue::Int(i) => Value::Int(*i),
        AceValue::ObjectRef(_, name) => Value::str(name.clone()),
        AceValue::Many(items) => Value::Set(items.iter().map(convert_keyed).collect()),
    }
}

impl ScanProvider for AceProvider {
    fn name(&self) -> &str {
        "acedb"
    }

    fn classes(&self) -> Vec<ClassName> {
        self.mappings
            .iter()
            .map(|m| ClassName::new(&m.model_class))
            .collect()
    }

    fn stats(&self, class: &ClassName) -> Option<ClassStats> {
        self.stats.iter().find(|s| &s.class == class).cloned()
    }

    fn scan(
        &self,
        class: &ClassName,
        pushdown: &Pushdown,
        chunk_rows: usize,
        sink: &mut dyn FnMut(Vec<Value>) -> Result<()>,
    ) -> Result<ScanSummary> {
        let mapping = self
            .mapping(class)
            .ok_or_else(|| StorageError::Missing(format!("acedb mapping for `{class}`")))?;
        let name = Label::new("name");
        let labels = std::iter::once(&name).chain(mapping.tags.iter().map(|(_, label)| label));
        let layout = scan_layout(labels, pushdown);
        let mut summary = ScanSummary::default();
        let mut chunk = Vec::new();
        for object in self.store.of_class(&mapping.ace_class) {
            summary.rows_in += 1;
            let passes = pushdown
                .filters
                .iter()
                .all(|f| f.matches(Self::attr_value(object, mapping, &f.attr).as_ref()));
            if !passes {
                continue;
            }
            summary.rows_out += 1;
            push_chunked(
                &mut chunk,
                chunk_rows,
                Self::record(object, mapping, &layout),
                sink,
            )?;
        }
        flush_chunk(&mut chunk, sink)?;
        Ok(summary)
    }
}

// ---------------------------------------------------------------------------
// Relational provider.
// ---------------------------------------------------------------------------

/// A set of [`Table`]s, one class per table, rows in table order. Reference
/// columns stream as their string keys (see [`AceProvider`] on federated
/// linkage); [`Value::Absent`] cells are left out of the record, like the
/// sparse AceDB import.
pub struct RelationalProvider {
    tables: Vec<Table>,
    /// One record per table, in table order.
    stats: Vec<ClassStats>,
    /// Per table, its column names interned once here.
    labels: Vec<Vec<Label>>,
}

impl RelationalProvider {
    /// Serve the given tables, computing their statistics.
    pub fn new(tables: Vec<Table>) -> RelationalProvider {
        let stats = tables
            .iter()
            .map(|table| {
                let mut ndvs = BTreeMap::new();
                for (i, column) in table.schema.columns.iter().enumerate() {
                    let distinct: BTreeSet<&Value> = table
                        .rows
                        .iter()
                        .map(|row| &row[i])
                        .filter(|v| !matches!(v, Value::Absent))
                        .collect();
                    ndvs.insert(column.name.clone(), distinct.len());
                }
                ClassStats {
                    class: ClassName::new(&table.schema.name),
                    rows: table.len(),
                    ndvs,
                }
            })
            .collect();
        let labels = tables
            .iter()
            .map(|table| {
                let columns = table.schema.columns.iter();
                columns.map(|column| Label::new(&column.name)).collect()
            })
            .collect();
        RelationalProvider {
            tables,
            stats,
            labels,
        }
    }

    /// The table serving `class`, with its column labels.
    fn table(&self, class: &ClassName) -> Option<(&Table, &[Label])> {
        let i = self
            .tables
            .iter()
            .position(|t| t.schema.name == class.as_str())?;
        Some((self.tables.get(i)?, self.labels.get(i)?))
    }
}

impl ScanProvider for RelationalProvider {
    fn name(&self) -> &str {
        "relational"
    }

    fn classes(&self) -> Vec<ClassName> {
        self.tables
            .iter()
            .map(|t| ClassName::new(&t.schema.name))
            .collect()
    }

    fn stats(&self, class: &ClassName) -> Option<ClassStats> {
        self.stats.iter().find(|s| &s.class == class).cloned()
    }

    fn scan(
        &self,
        class: &ClassName,
        pushdown: &Pushdown,
        chunk_rows: usize,
        sink: &mut dyn FnMut(Vec<Value>) -> Result<()>,
    ) -> Result<ScanSummary> {
        let (table, labels) = self
            .table(class)
            .ok_or_else(|| StorageError::Missing(format!("table `{class}`")))?;
        let names = || table.schema.columns.iter().map(|c| c.name.as_str());
        let filter_cols: Vec<(usize, &PushedFilter)> = pushdown
            .filters
            .iter()
            .map(|f| Ok((column_of(names(), f, class)?, f)))
            .collect::<Result<_>>()?;
        let layout = scan_layout(labels.iter(), pushdown);
        let mut summary = ScanSummary::default();
        let mut chunk = Vec::new();
        for row in &table.rows {
            summary.rows_in += 1;
            let passes = filter_cols.iter().all(|(i, filter)| {
                let value = &row[*i];
                let value = (!matches!(value, Value::Absent)).then_some(value);
                filter.matches(value)
            });
            if !passes {
                continue;
            }
            summary.rows_out += 1;
            let mut fields = Vec::with_capacity(layout.len());
            for (label, i) in &layout {
                match row.get(*i) {
                    None | Some(Value::Absent) => {}
                    Some(value) => push_field(&mut fields, label, value.clone()),
                }
            }
            let row = Value::Record(Record::from_sorted(fields));
            push_chunked(&mut chunk, chunk_rows, row, sink)?;
        }
        flush_chunk(&mut chunk, sink)?;
        Ok(summary)
    }
}

// ---------------------------------------------------------------------------
// Streaming ingest.
// ---------------------------------------------------------------------------

/// Row accounting of one [`ingest_class`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Backend rows the provider read (before pushed filters).
    pub rows_in: usize,
    /// Rows actually inserted (after pushed filters).
    pub rows_out: usize,
    /// Chunks streamed.
    pub chunks: usize,
}

/// Stream one provider class into `instance`, chunk-at-a-time: each chunk is
/// applied with [`Instance::bulk_insert`] under sequential fresh identities,
/// and nothing else is built. Attribute indexes, histograms and columns come
/// from the instance's lazy cache when a plan first reads them, exactly as
/// for an instance loaded any other way; rows arrive in ascending-identity
/// order, which *is* extent order.
///
/// All or nothing: when the provider or an insert fails, the chunks already
/// inserted are removed again and the class's identity counter is left
/// where it was, so the instance is as the call found it.
pub fn ingest_class(
    instance: &mut Instance,
    provider: &dyn ScanProvider,
    class: &ClassName,
    pushdown: &Pushdown,
    chunk_rows: usize,
) -> Result<IngestStats> {
    let declared = instance.populated_classes().contains(class);
    let first_id = instance.oid_counter(class);
    // Identities below `inserted` were minted by this call and are present.
    let mut inserted = first_id;
    let mut chunks = 0usize;
    let scanned = provider.scan(class, pushdown, chunk_rows, &mut |values: Vec<Value>| {
        chunks += 1;
        let batch = (inserted..)
            .zip(values)
            .map(|(id, value)| (Oid::new(class.clone(), id), value))
            .collect::<Vec<_>>();
        let next = inserted + batch.len() as u64;
        instance
            .bulk_insert(class, batch)
            .map_err(|e| StorageError::Model(e.to_string()))?;
        inserted = next;
        Ok(())
    });
    let summary = match scanned {
        Ok(summary) => summary,
        Err(e) => {
            for id in first_id..inserted {
                instance.remove(&Oid::new(class.clone(), id));
            }
            if !declared {
                instance.forget_empty_class(class);
            }
            return Err(e);
        }
    };
    instance.restore_oid_counter(class, inserted);
    instance.ensure_class(class);
    Ok(IngestStats {
        rows_in: summary.rows_in,
        rows_out: summary.rows_out,
        chunks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acedb::AceObject;
    use crate::csv::parse_csv;
    use crate::relational::{Column, TableSchema};

    fn csv_provider() -> CsvDirProvider {
        let text =
            "name,length,lab\n\"c1\",100,\"Sanger\"\n\"c2\",250,\"LANL\"\n\"c3\",50,\"Sanger\"\n";
        CsvDirProvider::from_texts(vec![(
            "CloneC".to_string(),
            "clones.csv".to_string(),
            text.to_string(),
        )])
        .unwrap()
    }

    #[test]
    fn csv_provider_reports_stats_and_streams_chunks() {
        let provider = csv_provider();
        assert_eq!(provider.classes(), vec![ClassName::new("CloneC")]);
        let stats = provider.stats(&ClassName::new("CloneC")).unwrap();
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.ndvs.get("lab"), Some(&2));
        assert_eq!(stats.ndvs.get("name"), Some(&3));

        // Chunked streaming preserves order; chunk boundary at 2 rows.
        let mut seen: Vec<usize> = Vec::new();
        let mut names: Vec<Value> = Vec::new();
        let summary = provider
            .scan(
                &ClassName::new("CloneC"),
                &Pushdown::none(),
                2,
                &mut |chunk| {
                    seen.push(chunk.len());
                    for row in &chunk {
                        names.push(row.project("name").cloned().unwrap());
                    }
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(
            summary,
            ScanSummary {
                rows_in: 3,
                rows_out: 3,
                decoded: 3
            }
        );
        assert_eq!(seen, vec![2, 1]);
        assert_eq!(
            names,
            vec![Value::str("c1"), Value::str("c2"), Value::str("c3")]
        );
    }

    #[test]
    fn pushed_filters_and_projection_apply() {
        let provider = csv_provider();
        let pushdown = Pushdown {
            filters: vec![PushedFilter {
                attr: "length".to_string(),
                op: PushOp::Lt,
                value: Value::int(200),
            }],
            projection: Some(BTreeSet::from(["name".to_string(), "length".to_string()])),
        };
        let mut rows = Vec::new();
        let summary = provider
            .scan(&ClassName::new("CloneC"), &pushdown, 100, &mut |chunk| {
                rows.extend(chunk);
                Ok(())
            })
            .unwrap();
        assert_eq!(
            summary,
            ScanSummary {
                rows_in: 3,
                rows_out: 2,
                decoded: 2
            }
        );
        assert_eq!(rows.len(), 2);
        // Projection dropped `lab`.
        assert_eq!(rows[0].project("lab"), None);
        assert_eq!(rows[0].project("name"), Some(&Value::str("c1")));
        assert_eq!(rows[1].project("length"), Some(&Value::int(50)));
    }

    /// Filters on Int and Bool columns are evaluated from the lanes built at
    /// `open`, so only the records passing them are lexed; a filter on a
    /// string column is evaluated on the lexed record. Blank lines, CRLF and
    /// a quoted field spanning lines sit between the survivors.
    #[test]
    fn scan_lexes_only_records_passing_the_laned_filters() {
        let text = "k,n,ok\r\n\"a\",1,true\n\n\"b\nb\",5,true\r\n\"c\",7,false\n\"d\",9,true";
        let provider =
            CsvDirProvider::from_texts(vec![("T".into(), "t.csv".into(), text.into())]).unwrap();
        let class = ClassName::new("T");
        let filter = |attr: &str, op, value| PushedFilter {
            attr: attr.to_string(),
            op,
            value,
        };
        let scan = |filters: Vec<PushedFilter>| {
            let mut keys = Vec::new();
            let pushdown = Pushdown {
                filters,
                projection: None,
            };
            let summary = provider
                .scan(&class, &pushdown, 2, &mut |chunk| {
                    keys.extend(chunk.iter().map(|row| row.project("k").cloned().unwrap()));
                    Ok(())
                })
                .unwrap();
            (summary.rows_out, summary.decoded, keys)
        };
        let (out, decoded, keys) = scan(vec![
            filter("n", PushOp::Geq, Value::int(5)),
            filter("ok", PushOp::Eq, Value::Bool(true)),
        ]);
        assert_eq!((out, decoded), (2, 2));
        assert_eq!(keys, vec![Value::str("b\nb"), Value::str("d")]);
        // A string-column filter lexes every laned survivor.
        let (out, decoded, keys) = scan(vec![
            filter("n", PushOp::Gt, Value::int(1)),
            filter("k", PushOp::Neq, Value::str("c")),
        ]);
        assert_eq!((out, decoded), (2, 3));
        assert_eq!(keys, vec![Value::str("b\nb"), Value::str("d")]);
        // A constant of another kind: ordered comparisons fail, `!=` holds.
        assert_eq!(scan(vec![filter("n", PushOp::Lt, Value::str("9"))]).0, 0);
        assert_eq!(scan(vec![filter("ok", PushOp::Neq, Value::int(1))]).1, 4);
        assert_eq!(scan(Vec::new()).1, 4);
    }

    #[test]
    fn filter_semantics_mirror_the_executor() {
        let eq = PushedFilter {
            attr: "x".into(),
            op: PushOp::Eq,
            value: Value::int(3),
        };
        assert!(eq.matches(Some(&Value::int(3))));
        assert!(!eq.matches(Some(&Value::str("3"))));
        assert!(!eq.matches(None));
        // `!=` across kinds is true, exactly like `Value != Value`.
        let neq = PushedFilter {
            attr: "x".into(),
            op: PushOp::Neq,
            value: Value::int(3),
        };
        assert!(neq.matches(Some(&Value::str("3"))));
        assert!(!neq.matches(None));
        // Ordered comparisons fail over uncomparable kinds.
        let lt = PushedFilter {
            attr: "x".into(),
            op: PushOp::Lt,
            value: Value::int(10),
        };
        assert!(lt.matches(Some(&Value::int(9))));
        assert!(!lt.matches(Some(&Value::str("9"))));
        let geq = PushedFilter {
            attr: "x".into(),
            op: PushOp::Geq,
            value: Value::str("m"),
        };
        assert!(geq.matches(Some(&Value::str("z"))));
        assert!(!geq.matches(Some(&Value::str("a"))));
    }

    #[test]
    fn ace_provider_streams_keyed_references() {
        let mut store = AceStore::new();
        store.add(
            AceObject::new("Marker", "m1")
                .with_tag("Position", AceValue::Int(17))
                .with_tag(
                    "Clone",
                    AceValue::ObjectRef("Clone".to_string(), "c1".to_string()),
                ),
        );
        store.add(AceObject::new("Marker", "m2").with_tag("Position", AceValue::Int(40)));
        let provider = AceProvider::new(
            store,
            vec![AceMapping::new(
                "Marker",
                "MarkerA",
                &[("Position", "position"), ("Clone", "clone_name")],
            )],
        );
        let stats = provider.stats(&ClassName::new("MarkerA")).unwrap();
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.ndvs.get("position"), Some(&2));
        // Sparse attribute: only one object carries `clone_name`.
        assert_eq!(stats.ndvs.get("clone_name"), Some(&1));

        let pushdown = Pushdown {
            filters: vec![PushedFilter {
                attr: "position".to_string(),
                op: PushOp::Leq,
                value: Value::int(20),
            }],
            projection: None,
        };
        let mut rows = Vec::new();
        let summary = provider
            .scan(&ClassName::new("MarkerA"), &pushdown, 100, &mut |chunk| {
                rows.extend(chunk);
                Ok(())
            })
            .unwrap();
        assert_eq!(
            summary,
            ScanSummary {
                rows_in: 2,
                rows_out: 1,
                decoded: 0
            }
        );
        // The reference streamed as the referenced object's name.
        assert_eq!(rows[0].project("clone_name"), Some(&Value::str("c1")));
    }

    #[test]
    fn relational_provider_streams_key_valued_rows() {
        let mut table = Table::new(TableSchema {
            name: "CloneR".to_string(),
            key_column: "name".to_string(),
            columns: vec![
                Column::str("name"),
                Column::int("length"),
                Column::reference("lab", "LabR"),
            ],
        });
        table
            .push_row(vec![
                Value::str("c1"),
                Value::int(100),
                Value::str("Sanger"),
            ])
            .unwrap();
        table
            .push_row(vec![Value::str("c2"), Value::Absent, Value::str("LANL")])
            .unwrap();
        let provider = RelationalProvider::new(vec![table]);
        let stats = provider.stats(&ClassName::new("CloneR")).unwrap();
        assert_eq!(stats.rows, 2);
        // Absent cells do not count toward ndv.
        assert_eq!(stats.ndvs.get("length"), Some(&1));

        // A filter over the sparse column drops the Absent row, mirroring
        // the executor's missing-attribute semantics.
        let pushdown = Pushdown {
            filters: vec![PushedFilter {
                attr: "length".to_string(),
                op: PushOp::Geq,
                value: Value::int(0),
            }],
            projection: None,
        };
        let mut rows = Vec::new();
        let summary = provider
            .scan(&ClassName::new("CloneR"), &pushdown, 100, &mut |chunk| {
                rows.extend(chunk);
                Ok(())
            })
            .unwrap();
        assert_eq!(
            summary,
            ScanSummary {
                rows_in: 2,
                rows_out: 1,
                decoded: 0
            }
        );
        // Reference columns stream as string keys.
        assert_eq!(rows[0].project("lab"), Some(&Value::str("Sanger")));
    }

    /// A streamed ingest produces an instance bit-identical to a bulk
    /// materialization, builds no derived structure, and the lazily built
    /// histograms, distinct counts and lookups answer as the reference's.
    #[test]
    fn streamed_ingest_matches_bulk_load_and_lazy_caches() {
        let provider = csv_provider();
        let class = ClassName::new("CloneC");

        let mut streamed = Instance::new("fed");
        let stats = ingest_class(&mut streamed, &provider, &class, &Pushdown::none(), 2).unwrap();
        assert_eq!(stats.rows_in, 3);
        assert_eq!(stats.rows_out, 3);
        assert_eq!(stats.chunks, 2);

        // Reference: parse the same text into a table and load it row by row
        // with fresh identities.
        let text =
            "name,length,lab\n\"c1\",100,\"Sanger\"\n\"c2\",250,\"LANL\"\n\"c3\",50,\"Sanger\"\n";
        let table = parse_csv("CloneC", text).unwrap();
        let mut reference = Instance::new("fed");
        for row in &table.rows {
            let names = table.schema.columns.iter().map(|c| c.name.as_str());
            reference.insert_fresh(&class, Value::record(names.zip(row.iter().cloned())));
        }
        assert_eq!(streamed.deep_eq_report(&reference), None);
        assert_eq!(streamed.oid_counter(&class), reference.oid_counter(&class));

        // Ingest built nothing.
        assert_eq!(streamed.attr_index_count(), 0);
        for attr in ["name", "length", "lab"] {
            assert!(!streamed.has_attr_histogram(&class, attr));
            assert!(!streamed.has_attr_column(&class, attr));
        }

        // What the lazy path builds on first read answers as the reference's.
        for attr in ["name", "length", "lab"] {
            assert_eq!(
                streamed.attr_histogram(&class, attr),
                reference.attr_histogram(&class, attr),
                "histogram of `{attr}` diverged"
            );
        }
        assert_eq!(
            streamed.lookup_by_attr(&class, "lab", &Value::str("Sanger")),
            reference.lookup_by_attr(&class, "lab", &Value::str("Sanger"))
        );
    }

    /// Streams `rows` in chunks, then fails as a backend that went away.
    struct FailsAfter {
        rows: Vec<Value>,
    }

    impl ScanProvider for FailsAfter {
        fn name(&self) -> &str {
            "fails-after"
        }

        fn classes(&self) -> Vec<ClassName> {
            vec![ClassName::new("T")]
        }

        fn stats(&self, _class: &ClassName) -> Option<ClassStats> {
            None
        }

        fn scan(
            &self,
            _class: &ClassName,
            _pushdown: &Pushdown,
            chunk_rows: usize,
            sink: &mut dyn FnMut(Vec<Value>) -> Result<()>,
        ) -> Result<ScanSummary> {
            for chunk in self.rows.chunks(chunk_rows) {
                sink(chunk.to_vec())?;
            }
            Err(StorageError::Model("backend went away".to_string()))
        }
    }

    /// A failed ingest leaves the instance as it found it: the chunks it
    /// inserted are gone, the identity counter has not moved, and the next
    /// fresh identity lands beside the objects already there.
    #[test]
    fn a_failed_ingest_leaves_the_instance_as_it_found_it() {
        let class = ClassName::new("T");
        let row = |n: i64| Value::record([("n", Value::int(n))]);
        let failing = FailsAfter {
            rows: vec![row(1), row(2)],
        };

        // The class not yet declared: it stays undeclared.
        let mut empty = Instance::new("fed");
        let before = empty.clone();
        assert!(ingest_class(&mut empty, &failing, &class, &Pushdown::none(), 2).is_err());
        assert_eq!(empty.deep_eq_report(&before), None);
        assert_eq!(empty, before);

        // The class holding an object: the counter stays at 1, and the next
        // fresh identity is `#T:1`, displacing nothing.
        let mut held = Instance::new("fed");
        let first = held.insert_fresh(&class, row(0));
        let before = held.clone();
        assert!(ingest_class(&mut held, &failing, &class, &Pushdown::none(), 2).is_err());
        assert_eq!(held.deep_eq_report(&before), None);
        assert_eq!(held, before);
        assert_eq!(held.oid_counter(&class), 1);
        let next = held.insert_fresh(&class, row(9));
        assert_eq!(next, Oid::new(class.clone(), 1));
        assert_eq!(held.value(&first), Some(&row(0)));
        assert_eq!(held.extent_size(&class), 2);

        // An insert that fails mid-stream — a fresh identity already held —
        // takes back the chunks before it and keeps the object it hit.
        let clones = ClassName::new("CloneC");
        let mut taken = Instance::new("fed");
        let explicit = Oid::new(clones.clone(), 2);
        taken.insert(explicit.clone(), row(7)).unwrap();
        let before = taken.clone();
        assert!(ingest_class(&mut taken, &csv_provider(), &clones, &Pushdown::none(), 2).is_err());
        assert_eq!(taken.deep_eq_report(&before), None);
        assert_eq!(taken, before);
        assert_eq!(taken.value(&explicit), Some(&row(7)));
    }

    /// A filtered ingest produces exactly the instance a full ingest plus an
    /// executor-side filter would retain — the row set the differential
    /// tests rely on — while reading every backend row exactly once.
    #[test]
    fn filtered_ingest_accounts_rows() {
        let provider = csv_provider();
        let class = ClassName::new("CloneC");
        let pushdown = Pushdown {
            filters: vec![PushedFilter {
                attr: "lab".to_string(),
                op: PushOp::Eq,
                value: Value::str("Sanger"),
            }],
            projection: None,
        };
        let mut filtered = Instance::new("fed");
        let stats = ingest_class(&mut filtered, &provider, &class, &pushdown, 10).unwrap();
        assert_eq!(stats.rows_in, 3);
        assert_eq!(stats.rows_out, 2);
        assert_eq!(filtered.extent_size(&class), 2);
        let names: Vec<&Value> = filtered
            .objects(&class)
            .filter_map(|(_, v)| v.project("name"))
            .collect();
        assert_eq!(names, vec![&Value::str("c1"), &Value::str("c3")]);
    }
}

//! Column-major derived storage over class extents.
//!
//! # Storage layout
//!
//! The authoritative representation of an instance stays row-major — a
//! `BTreeMap<Oid, Value>` holding one complex value per object — because the
//! WOL semantics (keyed merges, mutation logs, persistence) are defined over
//! whole objects. What dominates *query* time, however, is scanning one
//! attribute across a whole extent, and the row-major form makes every such
//! scan chase a `BTreeMap` node and a boxed [`Value`] tree per row.
//!
//! This module provides the derived, cache-resident column-major view the
//! vectorized executor (`cpl`'s batch pipelines) runs over:
//!
//! * **Row index** — per class, the extent's identities in extent (ascending
//!   `Oid`) order, shared as `Arc<Vec<Oid>>`. Row position `i` in every column
//!   of the class refers to the `i`-th identity of this index.
//! * **Attribute columns** ([`AttrColumn`]) — per `(class, attribute)`, the
//!   attribute's values in row-index order, stored as fixed-size
//!   [`ColumnChunk`]s of [`CHUNK_ROWS`] rows each.
//!
//! # Column formats
//!
//! Each chunk stores one of the typed layouts of [`ColumnData`]:
//!
//! * `Int(Vec<i64>)`, `Real(Vec<f64>)`, `Bool(Vec<bool>)` — dense primitive
//!   vectors. Reals keep their exact bit patterns (the model's `RealVal`
//!   total order distinguishes `-0.0` from `0.0` and NaN payloads, so the
//!   round-trip must too).
//! * `Str(Vec<u32>)` — **dictionary encoded**: each cell is a code into the
//!   instance-wide [`StringInterner`]. All string columns of an instance
//!   share one intern table, so two columns' codes are directly comparable
//!   and an equality against a constant is one dictionary lookup plus a
//!   `u32` compare per row.
//! * `Oid(Vec<Oid>)` — object references, dense.
//! * `Boxed(Vec<Value>)` — the fallback for everything the typed layouts
//!   cannot hold: nested values (sets, lists, records, variants), attributes
//!   whose values mix kinds across rows, attributes no row carries, and
//!   string columns whose dictionary hit its capacity limit.
//!
//! A chunk may carry a **missing bitmap**: rows whose object does not have
//! the attribute (optional fields) keep a placeholder in the typed vector
//! and set their bit. The executor treats a missing cell exactly as the
//! row-major evaluator treats a failed projection — an evaluation error that
//! makes predicates false and drops `Map` rows.
//!
//! # Interning rules
//!
//! The intern table is **append-only**: codes, once handed out, never change
//! meaning. Column invalidation therefore never touches the table — a
//! rebuilt column re-interns its strings and gets the same codes back. The
//! table only resets when the whole derived cache is dropped (an instance
//! clone or snapshot starts with a fresh one, or
//! [`IndexCache::clear`](crate::index::IndexCache::clear)). A
//! capacity limit (normally `u32::MAX`) bounds the table; a column whose
//! strings would overflow it falls back to the boxed layout rather than
//! failing.
//!
//! # Invalidation rules
//!
//! Columns are derived data and live in the same per-class cache as the
//! attribute indexes and histograms ([`crate::index::IndexCache`]): **any**
//! mutation of a class (insert / update / remove) drops that class's row
//! index and all its columns wholesale, and the next scan rebuilds them
//! lazily. Equality ignores the columnar cache, and neither a clone nor a
//! snapshot of an instance carries it.

use std::collections::HashMap;
use std::sync::Arc;

use crate::oid::Oid;
use crate::values::Value;

/// Rows per column chunk. Chunks are the batch granularity of the vectorized
/// executor and the morsel granularity of its parallel dispatch.
pub const CHUNK_ROWS: usize = 1024;

/// The shared, append-only string dictionary of an instance's columnar cache.
#[derive(Debug)]
pub(crate) struct StringInterner {
    strings: Vec<Arc<str>>,
    codes: HashMap<Arc<str>, u32>,
    limit: usize,
    /// Cached immutable snapshot of `strings`, rebuilt lazily after appends,
    /// so executors can hold the dictionary outside the cache lock for O(1).
    snapshot: Option<Arc<Vec<Arc<str>>>>,
}

impl Default for StringInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl StringInterner {
    /// An interner with the default capacity (`u32::MAX` distinct strings).
    pub(crate) fn new() -> Self {
        Self::with_limit(u32::MAX as usize)
    }

    /// An interner holding at most `limit` distinct strings. Tests use tiny
    /// limits to exercise the dictionary-overflow fallback.
    pub(crate) fn with_limit(limit: usize) -> Self {
        StringInterner {
            strings: Vec::new(),
            codes: HashMap::new(),
            limit: limit.min(u32::MAX as usize),
            snapshot: None,
        }
    }

    /// The code of `s`, interning it if new. `None` when the table is full —
    /// the caller falls back to a boxed column.
    pub(crate) fn intern(&mut self, s: &str) -> Option<u32> {
        if let Some(&code) = self.codes.get(s) {
            return Some(code);
        }
        if self.strings.len() >= self.limit {
            return None;
        }
        let code = self.strings.len() as u32;
        let arc: Arc<str> = Arc::from(s);
        self.strings.push(arc.clone());
        self.codes.insert(arc, code);
        self.snapshot = None;
        Some(code)
    }

    /// The code of `s` if it is already interned (no insertion).
    pub(crate) fn code_of(&self, s: &str) -> Option<u32> {
        self.codes.get(s).copied()
    }

    /// An immutable snapshot of the dictionary (code → string), cached so
    /// repeated snapshots after the same appends are O(1) `Arc` clones.
    pub(crate) fn snapshot(&mut self) -> Arc<Vec<Arc<str>>> {
        let strings = &self.strings;
        Arc::clone(
            self.snapshot
                .get_or_insert_with(|| Arc::new(strings.clone())),
        )
    }
}

/// A packed row bitmap (one bit per row of a chunk).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// An all-zero bitmap covering `len` rows.
    pub(crate) fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Set bit `i`.
    pub(crate) fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Whether bit `i` is set.
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }
}

/// The physical kind of a column (see the module docs for the formats).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnKind {
    /// Dense `i64` vector.
    Int,
    /// Dense `f64` vector (exact bit patterns).
    Real,
    /// Dense `bool` vector.
    Bool,
    /// Dictionary codes into the shared `StringInterner`.
    Str,
    /// Dense object-identity vector.
    Oid,
    /// Boxed fallback (nested / mixed / all-missing / dictionary overflow).
    Boxed,
}

/// One chunk's cell storage.
#[derive(Clone, Debug)]
pub enum ColumnData {
    /// Integers.
    Int(Vec<i64>),
    /// Reals, exact bits.
    Real(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Dictionary codes.
    Str(Vec<u32>),
    /// Object identities.
    Oid(Vec<Oid>),
    /// Boxed values (fallback layout).
    Boxed(Vec<Value>),
}

/// A fixed-size run of one attribute's cells (see [`CHUNK_ROWS`]).
#[derive(Clone, Debug)]
pub struct ColumnChunk {
    data: ColumnData,
    missing: Option<Bitmap>,
}

impl ColumnChunk {
    /// The typed cell storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Whether the cell at chunk-local position `local` is missing (the
    /// object does not carry the attribute).
    pub fn is_missing(&self, local: usize) -> bool {
        self.missing.as_ref().is_some_and(|b| b.get(local))
    }
}

/// One `(class, attribute)` column: the attribute's cells across the class
/// extent in row-index order, chunked.
#[derive(Clone, Debug)]
pub struct AttrColumn {
    kind: ColumnKind,
    chunks: Vec<ColumnChunk>,
    rows: usize,
    present: usize,
}

impl AttrColumn {
    /// Build a column from per-row projected values (`None` = the object
    /// does not carry the attribute). Strings are interned into `interner`;
    /// mixed-kind, nested, all-missing, and dictionary-overflow inputs fall
    /// back to the boxed layout.
    pub(crate) fn build(values: &[Option<&Value>], interner: &mut StringInterner) -> AttrColumn {
        let rows = values.len();
        let present = values.iter().flatten().count();
        let kind = Self::classify(values);
        let chunks = match kind {
            ColumnKind::Int => typed_chunks(
                values,
                ColumnData::Int,
                |v| match v {
                    Value::Int(i) => Some(*i),
                    _ => None,
                },
                || 0,
            ),
            ColumnKind::Real => typed_chunks(
                values,
                ColumnData::Real,
                |v| match v {
                    Value::Real(r) => Some(r.get()),
                    _ => None,
                },
                || 0.0,
            ),
            ColumnKind::Bool => typed_chunks(
                values,
                ColumnData::Bool,
                |v| match v {
                    Value::Bool(b) => Some(*b),
                    _ => None,
                },
                || false,
            ),
            ColumnKind::Oid => typed_chunks(
                values,
                ColumnData::Oid,
                |v| match v {
                    Value::Oid(o) => Some(o.clone()),
                    _ => None,
                },
                || Oid::new(crate::types::ClassName::new(""), 0),
            ),
            ColumnKind::Str => typed_chunks(
                values,
                ColumnData::Str,
                |v| match v {
                    Value::Str(s) => interner.intern(s),
                    _ => None,
                },
                || 0,
            ),
            ColumnKind::Boxed => None,
        };
        match chunks {
            Some(chunks) => AttrColumn {
                kind,
                chunks,
                rows,
                present,
            },
            // Kind mismatch is impossible after classification, so reaching
            // here means the dictionary overflowed: fall back to boxing.
            None => AttrColumn {
                kind: ColumnKind::Boxed,
                chunks: boxed_chunks(values),
                rows,
                present,
            },
        }
    }

    fn classify(values: &[Option<&Value>]) -> ColumnKind {
        let mut kind: Option<ColumnKind> = None;
        for value in values.iter().flatten() {
            let k = match value {
                Value::Int(_) => ColumnKind::Int,
                Value::Real(_) => ColumnKind::Real,
                Value::Bool(_) => ColumnKind::Bool,
                Value::Str(_) => ColumnKind::Str,
                Value::Oid(_) => ColumnKind::Oid,
                _ => return ColumnKind::Boxed,
            };
            match kind {
                None => kind = Some(k),
                Some(k0) if k0 != k => return ColumnKind::Boxed,
                Some(_) => {}
            }
        }
        kind.unwrap_or(ColumnKind::Boxed)
    }

    /// The physical layout this column uses.
    pub fn kind(&self) -> ColumnKind {
        self.kind
    }

    /// Rows covered (the class extent size at build time).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows that actually carry the attribute.
    pub fn present(&self) -> usize {
        self.present
    }

    /// The chunk holding global row `row`, with the chunk-local position.
    #[inline]
    pub fn locate(&self, row: usize) -> (&ColumnChunk, usize) {
        (&self.chunks[row / CHUNK_ROWS], row % CHUNK_ROWS)
    }

    /// Materialise the cell at global row `row` back into a row-major
    /// [`Value`], resolving dictionary codes through `dict` (a
    /// `StringInterner::snapshot`). `None` when the cell is missing. The
    /// result is bit-identical to the value the row-major projection holds.
    pub fn value_at(&self, row: usize, dict: &[Arc<str>]) -> Option<Value> {
        let (chunk, local) = self.locate(row);
        if chunk.is_missing(local) {
            return None;
        }
        Some(match &chunk.data {
            ColumnData::Int(v) => Value::Int(v[local]),
            ColumnData::Real(v) => Value::real(v[local]),
            ColumnData::Bool(v) => Value::Bool(v[local]),
            ColumnData::Str(v) => Value::Str(dict[v[local] as usize].to_string()),
            ColumnData::Oid(v) => Value::Oid(v[local].clone()),
            ColumnData::Boxed(v) => v[local].clone(),
        })
    }
}

/// Build typed chunks, lowering each present cell with `lower` (`None` from
/// `lower` aborts the whole attempt — dictionary overflow). Missing cells
/// push a never-read `placeholder` and set the chunk's missing bit.
fn typed_chunks<T>(
    values: &[Option<&Value>],
    wrap: impl Fn(Vec<T>) -> ColumnData,
    mut lower: impl FnMut(&Value) -> Option<T>,
    placeholder: impl Fn() -> T,
) -> Option<Vec<ColumnChunk>> {
    let mut chunks = Vec::with_capacity(values.len().div_ceil(CHUNK_ROWS));
    for block in values.chunks(CHUNK_ROWS) {
        let mut data = Vec::with_capacity(block.len());
        let mut missing: Option<Bitmap> = None;
        for (i, cell) in block.iter().enumerate() {
            match cell {
                Some(value) => data.push(lower(value)?),
                None => {
                    missing
                        .get_or_insert_with(|| Bitmap::new(block.len()))
                        .set(i);
                    data.push(placeholder());
                }
            }
        }
        chunks.push(ColumnChunk {
            data: wrap(data),
            missing,
        });
    }
    Some(chunks)
}

fn boxed_chunks(values: &[Option<&Value>]) -> Vec<ColumnChunk> {
    let mut chunks = Vec::with_capacity(values.len().div_ceil(CHUNK_ROWS));
    for block in values.chunks(CHUNK_ROWS) {
        let mut data = Vec::with_capacity(block.len());
        let mut missing: Option<Bitmap> = None;
        for (i, cell) in block.iter().enumerate() {
            match cell {
                Some(value) => data.push((*value).clone()),
                None => {
                    missing
                        .get_or_insert_with(|| Bitmap::new(block.len()))
                        .set(i);
                    data.push(Value::Unit);
                }
            }
        }
        chunks.push(ColumnChunk {
            data: ColumnData::Boxed(data),
            missing,
        });
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ClassName;

    fn build(values: &[Option<Value>]) -> (AttrColumn, StringInterner) {
        let mut interner = StringInterner::new();
        let refs: Vec<Option<&Value>> = values.iter().map(Option::as_ref).collect();
        let col = AttrColumn::build(&refs, &mut interner);
        (col, interner)
    }

    #[test]
    fn empty_input_builds_an_empty_column() {
        let (col, _) = build(&[]);
        assert_eq!(col.rows(), 0);
        assert_eq!(col.present(), 0);
        assert!(col.chunks.is_empty());
        assert_eq!(col.kind(), ColumnKind::Boxed);
    }

    #[test]
    fn int_column_round_trips_bit_identically() {
        let values: Vec<Option<Value>> = (0..3000)
            .map(|i| (i % 7 != 0).then(|| Value::int(i)))
            .collect();
        let (col, mut interner) = build(&values);
        assert_eq!(col.kind(), ColumnKind::Int);
        assert_eq!(col.rows(), 3000);
        assert_eq!(col.chunks.len(), 3); // 1024-row chunks
        assert_eq!(col.present(), values.iter().flatten().count());
        let dict = interner.snapshot();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(col.value_at(i, &dict), *v, "row {i}");
        }
    }

    #[test]
    fn real_column_preserves_exact_bits() {
        let values = vec![
            Some(Value::real(0.0)),
            Some(Value::real(-0.0)),
            Some(Value::real(f64::NAN)),
            None,
            Some(Value::real(1.5)),
        ];
        let (col, mut interner) = build(&values);
        assert_eq!(col.kind(), ColumnKind::Real);
        let dict = interner.snapshot();
        for (i, v) in values.iter().enumerate() {
            // Value equality on reals is total_cmp equality: exact bits.
            assert_eq!(col.value_at(i, &dict), *v, "row {i}");
        }
    }

    #[test]
    fn string_column_dictionary_encodes_through_the_shared_interner() {
        let values = vec![
            Some(Value::str("hot")),
            Some(Value::str("cold")),
            Some(Value::str("hot")),
            None,
        ];
        let (col, mut interner) = build(&values);
        assert_eq!(col.kind(), ColumnKind::Str);
        assert_eq!(interner.strings.len(), 2);
        assert_eq!(interner.code_of("hot"), Some(0));
        assert_eq!(interner.code_of("cold"), Some(1));
        assert_eq!(interner.code_of("absent"), None);
        let ColumnData::Str(codes) = col.chunks[0].data() else {
            panic!("expected dictionary codes");
        };
        assert_eq!(codes, &[0, 1, 0, 0]);
        assert!(col.chunks[0].is_missing(3));
        let dict = interner.snapshot();
        assert_eq!(col.value_at(0, &dict), Some(Value::str("hot")));
        assert_eq!(col.value_at(3, &dict), None);
    }

    #[test]
    fn dictionary_overflow_falls_back_to_the_boxed_layout() {
        let mut interner = StringInterner::with_limit(2);
        let values = [
            Some(Value::str("a")),
            Some(Value::str("b")),
            Some(Value::str("c")),
        ];
        let refs: Vec<Option<&Value>> = values.iter().map(Option::as_ref).collect();
        let col = AttrColumn::build(&refs, &mut interner);
        assert_eq!(col.kind(), ColumnKind::Boxed);
        assert_eq!(col.present(), 3);
        // Boxed cells still round-trip exactly.
        let dict = interner.snapshot();
        assert_eq!(col.value_at(2, &dict), Some(Value::str("c")));
        // Re-interning already-seen strings keeps working at the limit.
        assert_eq!(interner.intern("a"), Some(0));
        assert_eq!(interner.intern("z"), None);
    }

    #[test]
    fn mixed_kinds_and_nested_values_fall_back_to_boxed() {
        let (col, mut interner) = build(&[Some(Value::int(1)), Some(Value::str("x"))]);
        assert_eq!(col.kind(), ColumnKind::Boxed);
        let dict = interner.snapshot();
        assert_eq!(col.value_at(0, &dict), Some(Value::int(1)));
        let (col, _) = build(&[Some(Value::set([Value::int(1)]))]);
        assert_eq!(col.kind(), ColumnKind::Boxed);
    }

    #[test]
    fn all_missing_column_is_boxed_with_every_bit_set() {
        let values: Vec<Option<Value>> = vec![None; 10];
        let (col, mut interner) = build(&values);
        assert_eq!(col.kind(), ColumnKind::Boxed);
        assert_eq!(col.present(), 0);
        let dict = interner.snapshot();
        for i in 0..10 {
            assert_eq!(col.value_at(i, &dict), None);
        }
    }

    #[test]
    fn oid_column_stores_identities_densely() {
        let class = ClassName::new("C");
        let values: Vec<Option<Value>> = (0..5)
            .map(|i| (i != 2).then(|| Value::oid(Oid::new(class.clone(), i))))
            .collect();
        let (col, mut interner) = build(&values);
        assert_eq!(col.kind(), ColumnKind::Oid);
        let dict = interner.snapshot();
        assert_eq!(col.value_at(0, &dict), values[0].clone());
        assert_eq!(col.value_at(2, &dict), None);
    }

    #[test]
    fn interner_snapshot_is_cached_and_invalidated_by_appends() {
        let mut interner = StringInterner::new();
        interner.intern("a");
        let s1 = interner.snapshot();
        let s2 = interner.snapshot();
        assert!(Arc::ptr_eq(&s1, &s2));
        interner.intern("b");
        let s3 = interner.snapshot();
        assert!(!Arc::ptr_eq(&s1, &s3));
        assert_eq!(s3.len(), 2);
    }

    #[test]
    fn bitmap_counts_and_bounds() {
        let mut b = Bitmap::new(70);
        assert!(!b.get(69));
        b.set(0);
        b.set(69);
        b.set(69); // idempotent
        assert!(b.get(0) && b.get(69) && !b.get(1));
        assert!(!b.get(1000)); // out of range reads as unset
    }
}

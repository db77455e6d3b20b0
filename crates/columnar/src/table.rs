//! Record-batch tables: a schema plus equal-length columns.

use crate::array::{Array, RowIndex};
use crate::bitmap::Bitmap;
use crate::scalar::Scalar;
use crate::schema::Schema;
use crate::{ColumnarError, Result};
use std::convert::Infallible;
use std::sync::Arc;

/// An immutable table (one record batch). Cloning shares all buffers.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    columns: Vec<Array>,
    num_rows: usize,
}

impl Table {
    /// Build a table; panics if column lengths disagree with each other.
    pub fn new(schema: Schema, columns: Vec<Array>) -> Self {
        Self::try_new(schema, columns).expect("valid table")
    }

    /// Build a table, validating column count and lengths.
    pub fn try_new(schema: Schema, columns: Vec<Array>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(ColumnarError::LengthMismatch {
                expected: schema.len(),
                actual: columns.len(),
            });
        }
        let num_rows = columns.first().map(|c| c.len()).unwrap_or(0);
        for c in &columns {
            if c.len() != num_rows {
                return Err(ColumnarError::LengthMismatch {
                    expected: num_rows,
                    actual: c.len(),
                });
            }
        }
        Ok(Self {
            schema: Arc::new(schema),
            columns,
            num_rows,
        })
    }

    /// A zero-row table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields
            .iter()
            .map(|f| Array::from_scalars(&[], f.data_type))
            .collect();
        Self {
            schema: Arc::new(schema),
            columns,
            num_rows: 0,
        }
    }

    /// Rows in the table.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Columns in the table.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Column at index `i`.
    pub fn column(&self, i: usize) -> &Array {
        &self.columns[i]
    }

    /// All columns.
    pub fn columns(&self) -> &[Array] {
        &self.columns
    }

    /// Column by (possibly unqualified) name.
    pub fn column_by_name(&self, name: &str) -> Result<&Array> {
        let i = self
            .schema
            .index_of(name)
            .ok_or_else(|| ColumnarError::UnknownColumn(name.to_string()))?;
        Ok(&self.columns[i])
    }

    /// Total heap bytes across all columns (the size the buffer manager
    /// accounts when caching this table on a device).
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// Row `i` as scalars (tests/pretty-printing).
    pub fn row(&self, i: usize) -> Vec<Scalar> {
        self.columns.iter().map(|c| c.scalar(i)).collect()
    }

    /// Gather rows at `indices` into a new table; a `None` index produces
    /// a row of NULLs.
    pub fn gather<I: RowIndex>(
        &self,
        indices: impl IntoIterator<Item = I, IntoIter: ExactSizeIterator + Clone>,
    ) -> Table {
        let indices = indices.into_iter();
        // `Option` indices without a `None` (the matched side of an inner
        // join) introduce no NULL: settled once here, not per row of every
        // column. `usize::MAX` is unreachable and would panic like any bad index.
        let columns = if I::NULLABLE && indices.clone().all(|ix| ix.row().is_some()) {
            self.columns_at(indices.clone().map(|ix| ix.row().unwrap_or(usize::MAX)))
        } else {
            self.columns_at(indices.clone())
        };
        Table {
            schema: Arc::clone(&self.schema),
            columns,
            num_rows: indices.len(),
        }
    }

    /// Every column gathered at `indices`.
    fn columns_at<I: RowIndex>(
        &self,
        indices: impl ExactSizeIterator<Item = I> + Clone,
    ) -> Vec<Array> {
        (self.columns.iter())
            .map(|c| c.gather(indices.clone()))
            .collect()
    }

    /// Keep rows where `selection` is set.
    pub fn filter(&self, selection: &Bitmap) -> Table {
        self.gather(selection.set_indices().as_slice())
    }

    /// Contiguous row range `[offset, offset + len)`, clamped to the table:
    /// every column a window over the same buffers, no value copied.
    /// Morsel-driven executors chop cached tables into fixed-size chunks
    /// with this.
    pub fn slice(&self, offset: usize, len: usize) -> Table {
        let start = offset.min(self.num_rows);
        let num_rows = len.min(self.num_rows - start);
        let columns = self.columns.iter().map(|c| c.slice(start, num_rows));
        Table {
            schema: Arc::clone(&self.schema),
            columns: columns.collect(),
            num_rows,
        }
    }

    /// Split the rows into `parts` tables, row `i` going to the `i`-th
    /// bucket id of `bucket_of` and keeping its place among that bucket's
    /// rows: a counting sort of the row ids, one `gather` of the whole table
    /// in bucket order, one `slice` window per bucket. The partitions share
    /// the permuted table's buffers, which stay alive until the last of them
    /// drops; the bucket ids are gone before the gather.
    pub fn partition(
        &self,
        bucket_of: impl IntoIterator<Item = usize>,
        parts: usize,
    ) -> Vec<Table> {
        let gather = |columns: &[Array], order: Vec<usize>| {
            Ok::<_, Infallible>(columns.iter().map(|c| c.gather(&order)).collect())
        };
        match self.partition_with(bucket_of, parts, gather) {
            Ok(partitions) => partitions,
            Err(never) => match never {},
        }
    }

    /// [`partition`](Self::partition) with the gather delegated: `gather`
    /// receives the columns and the row order and returns every column
    /// gathered at it, in column order — the seam a worker pool gathers one
    /// column per job through. The counting sort and the windows stay here.
    pub fn partition_with<E>(
        &self,
        bucket_of: impl IntoIterator<Item = usize>,
        parts: usize,
        gather: impl FnOnce(&[Array], Vec<usize>) -> std::result::Result<Vec<Array>, E>,
    ) -> std::result::Result<Vec<Table>, E> {
        let mut starts = vec![0usize; parts + 1];
        let count = |bucket: &usize| starts[bucket + 1] += 1;
        let bucket_of: Vec<usize> = bucket_of.into_iter().inspect(count).collect();
        assert_eq!(bucket_of.len(), self.num_rows, "one bucket id per row");
        for bucket in 0..parts {
            starts[bucket + 1] += starts[bucket];
        }
        let mut next = starts.clone();
        let mut order = vec![0usize; self.num_rows];
        for (row, &bucket) in bucket_of.iter().enumerate() {
            order[next[bucket]] = row;
            next[bucket] += 1;
        }
        drop(bucket_of);
        let columns = gather(&self.columns, order)?;
        assert_eq!(columns.len(), self.columns.len(), "one column per field");
        let permuted = Table {
            schema: Arc::clone(&self.schema),
            columns,
            num_rows: self.num_rows,
        };
        let bounds = starts.windows(2);
        Ok(bounds.map(|w| permuted.slice(w[0], w[1] - w[0])).collect())
    }

    /// Project columns at `indices` (with the schema following).
    pub fn project(&self, indices: &[usize]) -> Table {
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        Table {
            schema: Arc::new(self.schema.project(indices)),
            columns,
            num_rows: self.num_rows,
        }
    }

    /// Vertically concatenate same-schema tables (field names may differ;
    /// the first table's schema wins).
    pub fn concat(tables: &[&Table]) -> Table {
        assert!(!tables.is_empty(), "concat of zero tables");
        let schema = Arc::clone(&tables[0].schema);
        let ncols = tables[0].num_columns();
        let columns = (0..ncols)
            .map(|c| {
                let cols: Vec<&Array> = tables.iter().map(|t| t.column(c)).collect();
                Array::concat(&cols)
            })
            .collect();
        let num_rows = tables.iter().map(|t| t.num_rows()).sum();
        Table {
            schema,
            columns,
            num_rows,
        }
    }

    /// Horizontally stitch two equal-row-count tables (join output).
    pub fn hstack(&self, right: &Table) -> Table {
        assert_eq!(self.num_rows, right.num_rows, "hstack row-count mismatch");
        let mut columns = self.columns.clone();
        columns.extend(right.columns.iter().cloned());
        Table {
            schema: Arc::new(self.schema.join(&right.schema)),
            columns,
            num_rows: self.num_rows,
        }
    }

    /// True if any column is dictionary-encoded.
    pub fn has_dict_columns(&self) -> bool {
        self.columns.iter().any(|c| c.is_dict())
    }

    /// Total bytes of shared dictionaries behind encoded columns (0 for
    /// plain tables). Together with [`Table::byte_size`] this is what a
    /// fresh wire transfer of the table ships.
    pub fn dict_byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.dict_byte_size()).sum()
    }

    /// Dictionary-encode every string column (no-op columns are shared).
    pub fn encode_strings(&self) -> Table {
        Table {
            schema: Arc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.dict_encode()).collect(),
            num_rows: self.num_rows,
        }
    }

    /// Decode every dictionary-encoded column to plain strings.
    pub fn decode_strings(&self) -> Table {
        Table {
            schema: Arc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.decoded()).collect(),
            num_rows: self.num_rows,
        }
    }

    /// Rows as scalar tuples, sorted — canonical form for unordered result
    /// comparison in tests.
    pub fn canonical_rows(&self) -> Vec<Vec<Scalar>> {
        let mut rows: Vec<Vec<Scalar>> = (0..self.num_rows).map(|i| self.row(i)).collect();
        rows.sort();
        rows
    }
}

impl PartialEq for Table {
    /// Tables are equal when schema types and all cell values match (field
    /// names are ignored: different engines qualify names differently).
    fn eq(&self, other: &Self) -> bool {
        if self.num_rows != other.num_rows || self.num_columns() != other.num_columns() {
            return false;
        }
        for (a, b) in self.schema.fields.iter().zip(other.schema.fields.iter()) {
            if a.data_type != b.data_type {
                return false;
            }
        }
        for i in 0..self.num_rows {
            for c in 0..self.columns.len() {
                if self.columns[c].scalar(i) != other.columns[c].scalar(i) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field};

    fn sample() -> Table {
        Table::new(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ]),
            vec![
                Array::from_i64([1, 2, 3]),
                Array::from_strs(["a", "b", "c"]),
            ],
        )
    }

    #[test]
    fn construction_validates_lengths() {
        let bad = Table::try_new(
            Schema::new(vec![
                Field::new("x", DataType::Int64),
                Field::new("y", DataType::Int64),
            ]),
            vec![Array::from_i64([1]), Array::from_i64([1, 2])],
        );
        assert!(bad.is_err());
        let wrong_count =
            Table::try_new(Schema::new(vec![Field::new("x", DataType::Int64)]), vec![]);
        assert!(wrong_count.is_err());
    }

    #[test]
    fn gather_filter_project() {
        let t = sample();
        let g = t.gather([2, 0]);
        assert_eq!(g.row(0), vec![Scalar::Int64(3), Scalar::Utf8("c".into())]);
        let f = t.filter(&Bitmap::from_iter([false, true, false]));
        assert_eq!(f.num_rows(), 1);
        assert_eq!(f.column(1).utf8_value(0), Some("b"));
        let p = t.project(&[1]);
        assert_eq!(p.num_columns(), 1);
        assert_eq!(&*p.schema().fields[0].name, "name");
    }

    #[test]
    fn slice_clamps_and_chunks() {
        let t = sample();
        let s = t.slice(1, 2);
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.row(0), t.row(1));
        // Over-long and out-of-range slices clamp instead of panicking.
        assert_eq!(t.slice(2, 100).num_rows(), 1);
        assert_eq!(t.slice(5, 1).num_rows(), 0);
        assert_eq!(t.slice(0, usize::MAX).num_rows(), 3);
        // A table without columns still counts its rows.
        assert_eq!(t.project(&[]).slice(1, 5).num_rows(), 2);
        // Slices of equal size reassemble into the original.
        let chunks: Vec<Table> = (0..3).map(|i| t.slice(i, 1)).collect();
        let refs: Vec<&Table> = chunks.iter().collect();
        assert_eq!(Table::concat(&refs), t);
    }

    #[test]
    fn concat_and_hstack() {
        let t = sample();
        let c = Table::concat(&[&t, &t]);
        assert_eq!(c.num_rows(), 6);
        assert_eq!(c.row(3), t.row(0));
        let h = t.hstack(&t.project(&[0]));
        assert_eq!(h.num_columns(), 3);
        assert_eq!(h.num_rows(), 3);
    }

    #[test]
    fn empty_table() {
        let t = Table::empty(Schema::new(vec![Field::new("x", DataType::Utf8)]));
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_columns(), 1);
        assert_eq!(t.byte_size(), t.column(0).byte_size());
    }

    #[test]
    fn equality_ignores_names_but_not_values() {
        let a = sample();
        let mut fields = a.schema().fields.clone();
        fields[0] = fields[0].renamed("other");
        let b = Table::new(Schema::new(fields), a.columns().to_vec());
        assert_eq!(a, b);
        let c = Table::new(
            a.schema().clone(),
            vec![
                Array::from_i64([1, 2, 4]),
                Array::from_strs(["a", "b", "c"]),
            ],
        );
        assert_ne!(a, c);
    }

    #[test]
    fn canonical_rows_sorts() {
        let t = Table::new(
            Schema::new(vec![Field::new("x", DataType::Int64)]),
            vec![Array::from_i64([3, 1, 2])],
        );
        let rows = t.canonical_rows();
        assert_eq!(
            rows,
            vec![
                vec![Scalar::Int64(1)],
                vec![Scalar::Int64(2)],
                vec![Scalar::Int64(3)]
            ]
        );
    }

    #[test]
    fn column_by_name_unqualified() {
        let t = Table::new(
            Schema::new(vec![Field::new("t.id", DataType::Int64)]),
            vec![Array::from_i64([7])],
        );
        assert_eq!(t.column_by_name("id").unwrap().i64_value(0), Some(7));
        assert!(t.column_by_name("nope").is_err());
    }
}

//! In-memory table catalog shared by the host engines.

use sirius_columnar::Table;
use std::collections::HashMap;
use std::sync::Arc;

/// A name → table map. Cheap to clone (tables share buffers).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a table.
    pub fn register(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), Arc::new(table));
    }

    /// Remove a table (a temp whose fragment finished), returning it if it
    /// was registered.
    pub fn remove(&mut self, name: &str) -> Option<Arc<Table>> {
        self.tables.remove(name)
    }

    /// Look up a table.
    pub fn get(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.get(name).cloned()
    }

    /// Registered table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort();
        v
    }

    /// Total bytes across all registered tables.
    pub fn total_bytes(&self) -> u64 {
        self.tables.values().map(|t| t.byte_size() as u64).sum()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{Array, DataType, Field, Schema};

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register(
            "t",
            Table::new(
                Schema::new(vec![Field::new("x", DataType::Int64)]),
                vec![Array::from_i64([1, 2])],
            ),
        );
        assert_eq!(c.get("t").unwrap().num_rows(), 2);
        assert!(c.get("missing").is_none());
        assert_eq!(c.table_names(), vec!["t".to_string()]);
        assert!(c.total_bytes() > 0);
        assert_eq!(c.len(), 1);
        assert!(c.remove("t").is_some());
        assert!(c.remove("t").is_none());
        assert!(c.is_empty());
    }
}

//! Dataset metadata: the per-column maximum frequencies FLEX consumes.
//!
//! FLEX's analysis needs, for every join-key column, the number of
//! occurrences of the most frequently occurring value. The data curator
//! computes these once per dataset (they are considered public metadata in
//! FLEX's model).

use std::collections::HashMap;
use std::hash::Hash;

/// A `(table, column)` reference used as a join key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Creates a column reference.
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: table.into(),
            column: column.into(),
        }
    }
}

impl From<(&str, &str)> for ColumnRef {
    fn from((table, column): (&str, &str)) -> Self {
        ColumnRef::new(table, column)
    }
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// Per-column maximum-frequency metadata.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metadata {
    max_freq: HashMap<ColumnRef, u64>,
}

impl Metadata {
    /// Creates empty metadata.
    pub fn new() -> Self {
        Metadata::default()
    }

    /// Records the maximum frequency of `table.column`.
    pub fn set_max_freq(
        &mut self,
        table: impl Into<String>,
        column: impl Into<String>,
        max_freq: u64,
    ) {
        self.max_freq
            .insert(ColumnRef::new(table, column), max_freq);
    }

    /// The maximum frequency of a column, if known.
    pub fn max_freq(&self, column: &ColumnRef) -> Option<u64> {
        self.max_freq.get(column).copied()
    }

    /// Computes and records the maximum frequency of a column from the
    /// actual key values — the helper the benchmark harness uses when it
    /// generates datasets.
    ///
    /// ```
    /// use upa_flex::{ColumnRef, Metadata};
    /// let mut m = Metadata::new();
    /// m.record_keys("t", "k", [1, 1, 1, 2, 3].iter());
    /// assert_eq!(m.max_freq(&ColumnRef::new("t", "k")), Some(3));
    /// ```
    pub fn record_keys<K: Hash + Eq, I: Iterator<Item = K>>(
        &mut self,
        table: impl Into<String>,
        column: impl Into<String>,
        keys: I,
    ) {
        let mut counts: HashMap<K, u64> = HashMap::new();
        for k in keys {
            *counts.entry(k).or_insert(0) += 1;
        }
        let mf = counts.values().copied().max().unwrap_or(0);
        self.set_max_freq(table, column, mf);
    }

    /// Number of columns with recorded metadata.
    pub fn len(&self) -> usize {
        self.max_freq.len()
    }

    /// Whether no metadata has been recorded.
    pub fn is_empty(&self) -> bool {
        self.max_freq.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut m = Metadata::new();
        m.set_max_freq("orders", "custkey", 12);
        assert_eq!(m.max_freq(&ColumnRef::new("orders", "custkey")), Some(12));
        assert_eq!(m.max_freq(&ColumnRef::new("orders", "orderkey")), None);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn record_keys_computes_mode_frequency() {
        let mut m = Metadata::new();
        m.record_keys("t", "k", ["a", "b", "a", "c", "a", "b"].iter());
        assert_eq!(m.max_freq(&ColumnRef::new("t", "k")), Some(3));
    }

    #[test]
    fn record_keys_empty_column() {
        let mut m = Metadata::new();
        m.record_keys("t", "k", std::iter::empty::<u32>());
        assert_eq!(m.max_freq(&ColumnRef::new("t", "k")), Some(0));
    }

    #[test]
    fn overwriting_updates() {
        let mut m = Metadata::new();
        m.set_max_freq("t", "k", 5);
        m.set_max_freq("t", "k", 9);
        assert_eq!(m.max_freq(&ColumnRef::new("t", "k")), Some(9));
        assert_eq!(m.len(), 1);
    }
}

//! TPC-H table row types, each declared once with `table!`.
//!
//! A declaration is the table's whole schema: every field is a column, so
//! the relational catalog (`crate::sql::catalog`) and FLEX's join-key
//! metadata (`crate::sql::build_metadata`) read their columns off the
//! [`Table`] impl it generates. The tables keep the columns the seven
//! evaluated queries filter, join or aggregate on, plus a few TPC-H
//! columns no query reads (`tax`, `totalprice`, `acctbal`, `custkey`,
//! `regionkey`). Dates are stored as day numbers counted from 1992-01-01
//! (the TPC-H epoch); see [`DAYS_PER_YEAR`] for range helpers.

use upa_relational::value::{Row, Value};

/// Days per (TPC-H, simplified) year; dates span seven years from the
/// epoch, as in the official generator.
pub const DAYS_PER_YEAR: u32 = 365;

/// Total span of generated dates (1992-01-01 .. 1998-12-31).
pub const DATE_RANGE: u32 = 7 * DAYS_PER_YEAR;

/// A TPC-H table: its SQL name, its columns, and its rows as relational
/// values. `table!` implements it for each row type.
pub trait Table: dataflow::Data {
    /// The table's SQL name.
    const NAME: &'static str;
    /// Column names, in field order.
    const COLUMNS: &'static [&'static str];
    /// The row's values, one per column in [`Table::COLUMNS`] order.
    fn row(&self) -> Row;
    /// The accessor of column `name`, or `None` if the table has no such
    /// column.
    fn column(name: &str) -> Option<fn(&Self) -> Value>;
}

/// A field's relational value: keys, codes and dates are integers.
trait ToValue {
    fn to_value(self) -> Value;
}

macro_rules! int_to_value {
    ($($t:ty),*) => {
        $(impl ToValue for $t {
            fn to_value(self) -> Value {
                Value::Int(self as i64)
            }
        })*
    };
}
int_to_value!(u8, u32, u64);

impl ToValue for f64 {
    fn to_value(self) -> Value {
        Value::Float(self)
    }
}

impl ToValue for bool {
    fn to_value(self) -> Value {
        Value::Bool(self)
    }
}

/// Declares a row struct whose fields are all public columns, and its
/// [`Table`] impl under the given SQL name.
macro_rules! table {
    (
        $(#[$attr:meta])*
        pub struct $row:ident in $name:literal {
            $($(#[$doc:meta])* $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$attr])*
        pub struct $row {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl Table for $row {
            const NAME: &'static str = $name;
            const COLUMNS: &'static [&'static str] = &[$(stringify!($field)),*];

            fn row(&self) -> Row {
                vec![$(self.$field.to_value()),*]
            }

            fn column(name: &str) -> Option<fn(&Self) -> Value> {
                match name {
                    $(stringify!($field) => Some(|r: &Self| r.$field.to_value()),)*
                    _ => None,
                }
            }
        }
    };
}

table! {
    /// One `lineitem` row.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Lineitem in "lineitem" {
        /// Key of the owning order.
        orderkey: u64,
        /// Key of the part shipped.
        partkey: u64,
        /// Key of the supplier shipping it.
        suppkey: u64,
        /// Quantity shipped.
        quantity: f64,
        /// Extended price.
        extendedprice: f64,
        /// Discount in `[0, 0.10]`.
        discount: f64,
        /// Tax in `[0, 0.08]`.
        tax: f64,
        /// Ship date (days since epoch).
        shipdate: u32,
        /// Commit date (days since epoch).
        commitdate: u32,
        /// Receipt date (days since epoch).
        receiptdate: u32,
    }
}

table! {
    /// One `orders` row.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Order in "orders" {
        /// Order key.
        orderkey: u64,
        /// Customer key.
        custkey: u64,
        /// Status: `'F'` (finished), `'O'` (open) or `'P'` (pending).
        orderstatus: u8,
        /// Total price.
        totalprice: f64,
        /// Order date (days since epoch).
        orderdate: u32,
        /// Priority 1 (urgent) .. 5 (low).
        orderpriority: u8,
    }
}

table! {
    /// One `part` row.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Part in "part" {
        /// Part key.
        partkey: u64,
        /// Brand id (1..=25).
        brand: u8,
        /// Type id (1..=150).
        typ: u8,
        /// Size (1..=50).
        size: u8,
    }
}

table! {
    /// One `supplier` row.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Supplier in "supplier" {
        /// Supplier key.
        suppkey: u64,
        /// Nation key (0..25).
        nationkey: u8,
        /// Account balance.
        acctbal: f64,
        /// Whether the supplier's comment flags customer complaints
        /// (Q16 excludes such suppliers).
        complaint: bool,
    }
}

table! {
    /// One `partsupp` row.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct PartSupp in "partsupp" {
        /// Part key.
        partkey: u64,
        /// Supplier key.
        suppkey: u64,
        /// Available quantity.
        availqty: u32,
        /// Supply cost per unit.
        supplycost: f64,
    }
}

table! {
    /// One `nation` row.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Nation in "nation" {
        /// Nation key (0..25).
        nationkey: u8,
        /// Region key (0..5).
        regionkey: u8,
    }
}

/// `orderstatus` value for finished orders (Q21 filters on it).
pub const STATUS_F: u8 = b'F';
/// `orderstatus` value for open orders.
pub const STATUS_O: u8 = b'O';
/// `orderstatus` value for pending orders.
pub const STATUS_P: u8 = b'P';

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_copy_and_comparable() {
        let l = Lineitem {
            orderkey: 1,
            partkey: 2,
            suppkey: 3,
            quantity: 4.0,
            extendedprice: 5.0,
            discount: 0.05,
            tax: 0.02,
            shipdate: 10,
            commitdate: 20,
            receiptdate: 30,
        };
        let l2 = l; // Copy
        assert_eq!(l, l2);
        let n = Nation {
            nationkey: 1,
            regionkey: 0,
        };
        assert_eq!(n, n);
    }

    /// Each column's accessor reads the value `row()` puts at that
    /// column's position, and an unknown name has no accessor.
    fn check_columns<T: Table>(row: T) {
        let values = row.row();
        assert_eq!(values.len(), T::COLUMNS.len(), "{}", T::NAME);
        for (name, value) in T::COLUMNS.iter().zip(&values) {
            let get = T::column(name).unwrap_or_else(|| panic!("{}.{name}", T::NAME));
            assert_eq!(&get(&row), value, "{}.{name}", T::NAME);
        }
        assert!(T::column("no_such_column").is_none());
    }

    #[test]
    fn columns_match_row_values() {
        let t = crate::Tables::generate(&crate::TpchConfig {
            orders: 20,
            ..crate::TpchConfig::default()
        });
        check_columns(t.lineitem[0]);
        check_columns(t.orders[0]);
        check_columns(t.part[0]);
        check_columns(t.supplier[0]);
        check_columns(t.partsupp[0]);
        check_columns(t.nation[0]);
        assert_eq!(
            Lineitem::COLUMNS,
            [
                "orderkey",
                "partkey",
                "suppkey",
                "quantity",
                "extendedprice",
                "discount",
                "tax",
                "shipdate",
                "commitdate",
                "receiptdate"
            ]
        );
    }

    #[test]
    fn date_constants_are_consistent() {
        assert_eq!(DATE_RANGE, 2555);
        let statuses = [STATUS_F, STATUS_O, STATUS_P];
        let distinct: std::collections::HashSet<_> = statuses.into_iter().collect();
        assert_eq!(distinct.len(), statuses.len());
    }
}

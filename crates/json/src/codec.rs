//! The row-table codec: each record is declared once, as a list of rows,
//! and its encoder and decoder are both expanded from that list.
//!
//! [`body!`](crate::body) declares a record ([`Body`]). A row names a
//! struct field, optionally renamed on the wire (`field as "name"`), and
//! takes at most one mode:
//!
//! * none: always written, and required on decode — absent or mistyped is
//!   an error naming the field, never an invented value;
//! * `= "default"`: the value when the row is absent or `null`;
//! * `[optional]`: written only when given ([`Optional`]), and read back
//!   as not given when absent or `null`;
//! * `[flatten]`: the value is a [`Body`] whose rows join this object;
//! * `[via Kind]`: `Kind` ([`Via`]) writes and reads the row instead of
//!   the value's own kind.
//!
//! A value has one of a closed set of kinds ([`Field`]): string, `u64`,
//! `u32`, `usize`, `f64` (non-finite written as `null`, read back as NaN),
//! bool, `Option` (`null` is `None`), lists, pairs (two-element arrays),
//! string-keyed maps (objects, in key order) and nested records (objects).
//! A record with a derived field implements [`Body`] by hand with
//! [`put`]/[`take`], writing the derived rows and not reading them back.

use crate::{push_json_num, push_json_str, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One value kind: how a value is written after its `"name":`, and read
/// back. A decode error says what was expected; [`take`] names the field.
pub trait Field: Sized {
    /// Appends the value.
    fn put(&self, out: &mut String);
    /// Reads the value, or says what it should have been.
    fn take(v: &Json) -> Result<Self, String>;
}

/// A record: its rows, written into and read from the enclosing object.
/// In a row of its own it is a nested object.
pub trait Body: Sized {
    /// What [`Body::to_json`] writes after the closing brace: a record
    /// that is a whole file ends its line.
    const END: &'static str = "";

    /// Appends `,"name":value` for every row.
    fn put_fields(&self, out: &mut String);

    /// Reads every row back from the object `v`; the error names the
    /// first missing or mistyped row.
    fn take_fields(v: &Json) -> Result<Self, String>;

    /// The record as one JSON document.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.put(&mut out);
        out.push_str(Self::END);
        out
    }
}

/// A row's own codec, named by a row's `[via Kind]` mode: `Kind` writes
/// the row from its leading comma and reads it back from the enclosing
/// object. It may write one value in a shape of its own, or several rows.
pub trait Via<T> {
    /// Appends the row for `value` under `name`.
    fn put(out: &mut String, name: &str, value: &T);
    /// Reads the row `name` back from the object `v`, naming it in any
    /// error.
    fn take(v: &Json, name: &str) -> Result<T, String>;
}

/// The kinds a row may mark `[optional]`: left off when not given.
pub trait Optional: Field {
    /// Whether the row is written.
    fn given(&self) -> bool;
}

impl<T: Field> Optional for Option<T> {
    fn given(&self) -> bool {
        self.is_some()
    }
}

impl Optional for bool {
    fn given(&self) -> bool {
        *self
    }
}

/// Declares value kinds, each as what a decoder expects, its writer and
/// its reader (`None` for any other JSON shape).
#[macro_export]
macro_rules! kinds {
    ($($ty:ty: $what:literal, |$x:ident, $out:ident| $put:expr, |$v:ident| $take:expr;)*) => {$(
        impl $crate::Field for $ty {
            #[inline]
            fn put(&self, out: &mut String) {
                let ($x, $out) = (self, out);
                let _ = $put;
            }
            #[inline]
            fn take($v: &$crate::Json) -> Result<Self, String> {
                let read = || -> Option<Self> { $take };
                read().ok_or_else(|| concat!("must be ", $what).to_string())
            }
        }
    )*};
}

kinds! {
    String: "a string",
        |s, out| push_json_str(out, s),
        |v| v.as_str().map(str::to_string);
    u64: "a non-negative integer",
        |n, out| write!(out, "{n}"),
        |v| v.as_u64();
    u32: "an integer below 2^32",
        |n, out| write!(out, "{n}"),
        |v| v.as_u64().and_then(|n| u32::try_from(n).ok());
    usize: "a non-negative integer",
        |n, out| write!(out, "{n}"),
        |v| v.as_u64().and_then(|n| usize::try_from(n).ok());
    f64: "a number or null",
        |x, out| push_json_num(out, *x),
        |v| if *v == Json::Null { Some(f64::NAN) } else { v.as_f64() };
    bool: "a boolean",
        |b, out| out.push_str(if *b { "true" } else { "false" }),
        |v| v.as_bool();
}

/// `null` is `None`.
impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(value) => value.put(out),
            None => out.push_str("null"),
        }
    }
    fn take(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::take(v).map(Some),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, out: &mut String) {
        put_list(out, self);
    }
    fn take(v: &Json) -> Result<Self, String> {
        let items = v.as_arr().ok_or("must be a list")?;
        let item = |(i, item)| T::take(item).map_err(|e| format!("item {i}: {e}"));
        items.iter().enumerate().map(item).collect()
    }
}

/// A pair, written as a two-element array.
impl<A: Field, B: Field> Field for (A, B) {
    fn put(&self, out: &mut String) {
        out.push('[');
        self.0.put(out);
        out.push(',');
        self.1.put(out);
        out.push(']');
    }
    fn take(v: &Json) -> Result<Self, String> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::take(a)?, B::take(b)?)),
            _ => Err("must be a pair".into()),
        }
    }
}

/// A string-keyed map, written as an object in key order.
impl<V: Field> Field for BTreeMap<String, V> {
    fn put(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(out, key);
            out.push(':');
            value.put(out);
        }
        out.push('}');
    }
    fn take(v: &Json) -> Result<Self, String> {
        let Json::Obj(members) = v else {
            return Err("must be an object".into());
        };
        let member = |(key, value): (&String, &Json)| {
            V::take(value)
                .map(|value| (key.clone(), value))
                .map_err(|e| format!("'{key}': {e}"))
        };
        members.iter().map(member).collect()
    }
}

/// A record nested as an object: its first row's comma opens it.
impl<T: Body> Field for T {
    fn put(&self, out: &mut String) {
        let start = out.len();
        self.put_fields(out);
        if out.len() == start {
            out.push('{');
        } else {
            out.replace_range(start..=start, "{");
        }
        out.push('}');
    }
    fn take(v: &Json) -> Result<Self, String> {
        match v {
            Json::Obj(_) => T::take_fields(v),
            _ => Err("must be an object".into()),
        }
    }
}

impl<T: Body> Body for Box<T> {
    fn put_fields(&self, out: &mut String) {
        (**self).put_fields(out);
    }
    fn take_fields(v: &Json) -> Result<Self, String> {
        T::take_fields(v).map(Box::new)
    }
}

/// Appends `,"name":`, the head of every row.
#[inline]
pub fn put_name(out: &mut String, name: &str) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
}

/// Appends the row `,"name":value`.
pub fn put<T: Field>(out: &mut String, name: &str, value: &T) {
    put_name(out, name);
    value.put(out);
}

/// Appends `[item,…]`: a list row, or a reordering of one.
pub fn put_list<'a, T: Field + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.put(out);
    }
    out.push(']');
}

/// Reads the required member `name`: absent is `missing 'name'`, and a
/// mistyped value is `'name': ` and what it should have been.
pub fn take<T: Field>(v: &Json, name: &str) -> Result<T, String> {
    take_with(v, name, T::take)
}

/// Reads the required member `name` with `read`, naming the field in any
/// error as [`take`] does.
pub fn take_with<T>(
    v: &Json,
    name: &str,
    read: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<T, String> {
    let field = v.get(name).ok_or_else(|| format!("missing '{name}'"))?;
    read(field).map_err(|e| format!("'{name}': {e}"))
}

/// Reads a row that may be left out: absent or `null` is `default`, and
/// a present value of the wrong kind is an error, as [`take`].
pub fn take_or<T: Field>(v: &Json, name: &str, default: impl FnOnce() -> T) -> Result<T, String> {
    match v.get(name) {
        None | Some(Json::Null) => Ok(default()),
        Some(_) => take(v, name),
    }
}

/// Declares records, each as its rows in wire order (see the
/// [module docs](crate::codec) for the row modes). The encoder binds every
/// field, so a field without a row does not compile. A trailing
/// `+ "text"` sets [`Body::END`].
///
/// ```
/// # use upa_json::{body, Body};
/// struct Span { name: String, nanos: u64, calls: Option<u64> }
/// body! { Span { name as "span", nanos, calls [optional] } }
/// let span = Span { name: "map".into(), nanos: 7, calls: None };
/// assert_eq!(span.to_json(), r#"{"span":"map","nanos":7}"#);
/// ```
#[macro_export]
macro_rules! body {
    ($($ty:ident {
        $($field:ident $(as $name:literal)? $(= $default:literal)? $([$($mode:tt)+])?),* $(,)?
    } $(+ $end:literal)?)*) => {$(
        impl $crate::Body for $ty {
            $(const END: &'static str = $end;)?
            fn put_fields(&self, out: &mut String) {
                let $ty { $($field),* } = self;
                $($crate::put_row!(
                    out, $field, $crate::wire_name!($field $(as $name)?) $(, $($mode)+)?
                );)*
            }
            fn take_fields(v: &$crate::Json) -> Result<Self, String> {
                Ok($ty { $($field: $crate::take_row!(
                    v, $crate::wire_name!($field $(as $name)?) $(, = $default)? $(, $($mode)+)?
                )),* })
            }
        }
    )*};
}

/// A row's wire name: the field's own name unless renamed with `as`.
#[doc(hidden)]
#[macro_export]
macro_rules! wire_name {
    ($field:tt) => {
        stringify!($field)
    };
    ($field:tt as $name:literal) => {
        $name
    };
}

/// Writes one row in its mode (a `= default` only matters on decode).
#[doc(hidden)]
#[macro_export]
macro_rules! put_row {
    ($out:ident, $value:expr, $name:expr) => {
        $crate::put($out, $name, $value)
    };
    ($out:ident, $value:expr, $name:expr, optional) => {
        if $crate::Optional::given($value) {
            $crate::put($out, $name, $value)
        }
    };
    ($out:ident, $value:expr, $name:expr, flatten) => {
        $crate::Body::put_fields($value, $out)
    };
    ($out:ident, $value:expr, $name:expr, via $kind:ty) => {
        <$kind as $crate::Via<_>>::put($out, $name, $value)
    };
}

/// Reads one row back, in the mode [`put_row!`] wrote it.
#[doc(hidden)]
#[macro_export]
macro_rules! take_row {
    ($v:ident, $name:expr) => {
        $crate::take($v, $name)?
    };
    ($v:ident, $name:expr, = $default:literal) => {
        $crate::take_or($v, $name, || $default.into())?
    };
    ($v:ident, $name:expr, optional) => {
        $crate::take_or($v, $name, Default::default)?
    };
    ($v:ident, $name:expr, flatten) => {
        $crate::Body::take_fields($v)?
    };
    ($v:ident, $name:expr, via $kind:ty) => {
        <$kind as $crate::Via<_>>::take($v, $name)?
    };
}

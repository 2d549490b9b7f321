//! The wire format's JSON: [`upa_json`], re-exported.
//!
//! The reader, the escape writers and the record codec live in the leaf
//! `upa-json` crate, shared with the store's manifests and `upa_core`'s
//! audit records. This module stays as a path —
//! `upa_server::wire::{parse, Json, …}` — because the `upa-serverd`
//! binary and the out-of-tree `benchmark/` package are compiled against
//! `upa_server` alone and may name nothing else.

pub use upa_json::*;

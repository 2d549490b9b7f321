//! A from-scratch, in-memory, multi-threaded MapReduce dataflow engine.
//!
//! This crate is the **Spark substitute** for the UPA reproduction (see
//! `DESIGN.md` at the repository root). The paper runs UPA on Apache Spark;
//! no Spark exists here, so this engine rebuilds the part of Spark that UPA
//! actually relies on:
//!
//! * partitioned, immutable, in-memory datasets ([`Dataset`], Spark's RDD);
//! * **commutative and associative** functional operators — `map`,
//!   `filter`, `flat_map`, `reduce`, `aggregate`, and the pair operators
//!   `reduce_by_key` and `join` (see [`pair::PairOps`]);
//! * an explicit **shuffle** stage whose record counts are observable
//!   through [`metrics::Metrics`] — the paper's Figure 2(b)/4 overhead
//!   analysis is phrased in terms of how many shuffles UPA adds;
//! * task-level parallelism on a shared [`pool::ThreadPool`];
//! * **fault injection with task retry** ([`fault::FaultInjector`]):
//!   commutativity/associativity is exactly what makes re-executing a task
//!   safe, and the engine's tests demonstrate that invariant.
//!
//! A chain of narrow transforms runs as one stage, named after its
//! operators (`fused[map→filter]`); [`Context::stage_times`] reports each
//! stage's time by that name.
//!
//! # Example
//!
//! ```
//! use dataflow::Context;
//!
//! let ctx = Context::with_threads(4);
//! let ds = ctx.parallelize((0..1000).collect::<Vec<i64>>(), 8);
//! let total = ds.map(|x| x * 2).reduce(|a, b| a + b).unwrap();
//! assert_eq!(total, 999 * 1000);
//! ```

pub mod columnar;
pub mod context;
pub mod dataset;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod pair;
pub mod partitioner;
pub mod pool;

pub use columnar::{ChunkStats, ColumnarBuf, ColumnarDataset};
pub use context::{Config, Context};
pub use dataset::Dataset;
pub use error::DataflowError;
pub use metrics::{MetricsSnapshot, SpanRecorder, SpanScope, StageSpan};
pub use pair::PairOps;

/// Marker trait for record types that can flow through the engine.
///
/// Blanket-implemented for everything `Clone + Send + Sync + 'static`, the
/// same bound Spark effectively imposes through serialisability.
pub trait Data: Clone + Send + Sync + 'static {}

impl<T: Clone + Send + Sync + 'static> Data for T {}

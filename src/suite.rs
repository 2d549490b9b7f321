//! The nine-query evaluation suite (paper Table II), behind one uniform
//! interface.
//!
//! Each [`EvalQuery`] exposes the four executions the experiments need:
//!
//! * `run_plain` — the vanilla dataflow job (the Figure 2(b) baseline);
//! * `run_upa` — the full UPA pipeline;
//! * `ground_truth` — exact local sensitivity by brute force (the
//!   Figure 2(a)/3 reference);
//! * `flex_sensitivity` — the FLEX static bound of the query's own plan
//!   (for a TPC-H query, the plan parsed from its SQL text), or the
//!   unsupported error for the four non-count queries.
//!
//! Outputs are uniformly `Vec<f64>` (scalar queries have one component)
//! so the harness can treat counting, arithmetic and ML queries alike.

use dataflow::{Context, Data, Dataset, PairOps};
use upa_core::brute::{exact_local_sensitivity, GroundTruth};
use upa_core::domain::EmpiricalSampler;
use upa_core::join::JoinAggregate;
use upa_core::pipeline::{Upa, UpaResult};
use upa_core::query::MapReduceQuery;
use upa_core::UpaError;
use upa_flex::plan::AggregateKind;
use upa_flex::{analyze, FlexUnsupported, Metadata};
use upa_mlalgo::data::{generate_points, generate_regression, LifeScienceConfig};
use upa_mlalgo::kmeans::Point;
use upa_mlalgo::{KMeans, LinearRegression, LrRecord};
use upa_relational::plan::Aggregate;
use upa_relational::LogicalPlan;
use upa_tpch::gen::TpchDatasets;
use upa_tpch::queries as tq;
use upa_tpch::sql::{self, build_metadata};
use upa_tpch::{Lineitem, Order, Table, Tables, TpchConfig};

/// Workload scale of one evaluation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalScale {
    /// Number of TPC-H orders (other tables derive from it).
    pub orders: usize,
    /// Number of ML records (points / regression rows).
    pub ml_records: usize,
    /// Partitions per dataset.
    pub partitions: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for EvalScale {
    fn default() -> Self {
        EvalScale {
            orders: 5_000,
            ml_records: 10_000,
            partitions: 8,
            seed: 0xE7A1,
        }
    }
}

/// Generated workload: tables, datasets, metadata, ML data.
pub struct EvalData {
    /// Engine handle.
    pub ctx: Context,
    /// Generated TPC-H tables.
    pub tables: Tables,
    /// The tables loaded into datasets.
    pub datasets: TpchDatasets,
    /// FLEX metadata computed from the tables.
    pub metadata: Metadata,
    /// KMeans points.
    pub points: Vec<Point>,
    /// KMeans points as a dataset.
    pub points_ds: Dataset<Point>,
    /// Regression records.
    pub lr_records: Vec<LrRecord>,
    /// Regression records as a dataset.
    pub lr_ds: Dataset<LrRecord>,
    /// The scale this data was generated at.
    pub scale: EvalScale,
}

impl EvalData {
    /// Generates the full workload at `scale` on `ctx`.
    pub fn generate(ctx: &Context, scale: EvalScale) -> EvalData {
        let tables = Tables::generate(&TpchConfig {
            orders: scale.orders,
            seed: scale.seed,
            ..TpchConfig::default()
        });
        let datasets = TpchDatasets::load(ctx, &tables, scale.partitions);
        let metadata = build_metadata(&tables);
        let ml_config = LifeScienceConfig {
            records: scale.ml_records,
            dims: 4,
            clusters: 3,
            outlier_fraction: 0.01,
            seed: scale.seed ^ 0x5CD0,
        };
        let points = generate_points(&ml_config);
        let points_ds = ctx.parallelize(points.clone(), scale.partitions);
        let (lr_records, _true_w) = generate_regression(&ml_config);
        let lr_ds = ctx.parallelize(lr_records.clone(), scale.partitions);
        EvalData {
            ctx: ctx.clone(),
            tables,
            datasets,
            metadata,
            points,
            points_ds,
            lr_records,
            lr_ds,
            scale,
        }
    }
}

/// One evaluated query, uniformly over `Vec<f64>` outputs.
pub trait EvalQuery: Send + Sync {
    /// Name as the paper prints it.
    fn name(&self) -> &'static str;
    /// Table II "Query Type", read off the aggregate of the query's plan:
    /// COUNT is "Count", any other (a SUM) "Arithmetic", and an ML step,
    /// which has no plan, "Machine Learning".
    fn kind(&self) -> &'static str {
        match self.flex_plan() {
            None => "Machine Learning",
            Some(LogicalPlan::Aggregate {
                agg: Aggregate::CountStar,
                ..
            }) => "Count",
            Some(_) => "Arithmetic",
        }
    }
    /// The table whose records iDP protects.
    fn protected(&self) -> &'static str;
    /// Vanilla dataflow execution.
    fn run_plain(&self, data: &EvalData) -> Vec<f64>;
    /// Full UPA execution.
    ///
    /// # Errors
    ///
    /// Propagates [`UpaError`] from the pipeline.
    fn run_upa(&self, upa: &mut Upa, data: &EvalData) -> Result<UpaResult<Vec<f64>>, UpaError>;
    /// Exact local sensitivity by brute force (all removals plus
    /// `domain_samples` sampled additions).
    fn ground_truth(
        &self,
        data: &EvalData,
        domain_samples: usize,
        seed: u64,
    ) -> GroundTruth<Vec<f64>>;
    /// The relational plan FLEX analyses: the one parsed from a TPC-H
    /// query's SQL text, or `None` for an ML query, which has no SQL form.
    fn flex_plan(&self) -> Option<&LogicalPlan>;
    /// FLEX's static bound.
    ///
    /// # Errors
    ///
    /// Returns [`FlexUnsupported`] for the four non-count queries.
    fn flex_sensitivity(&self, data: &EvalData) -> Result<f64, FlexUnsupported> {
        match self.flex_plan() {
            Some(plan) => analyze(plan, &data.metadata),
            None => Err(FlexUnsupported::NonCountAggregate(
                AggregateKind::MachineLearning,
            )),
        }
    }
}

/// Lifts a scalar query to the suite's uniform `Vec<f64>` output.
fn vectorize<T: Data>(q: &MapReduceQuery<T, f64, f64>) -> MapReduceQuery<T, f64, Vec<f64>> {
    let qm = q.clone();
    let qr = q.clone();
    let qf = q.clone();
    let hk = std::sync::Arc::clone(q.half_key());
    MapReduceQuery::new(
        q.name().to_string(),
        move |t: &T| hk(t),
        move |t: &T| qm.map(t),
        move |a: &f64, b: &f64| qr.reduce(a, b),
        move |acc: Option<&f64>| vec![qf.finalize(acc)],
    )
}

/// The protected dataset of the two ML steps (the paper's life-science
/// dataset).
const ML_DATASET: &str = "ds1.10";

/// A vanilla dataflow job over a protected dataset.
type VanillaRun<T> = Box<dyn Fn(&Dataset<T>) -> Vec<f64> + Send + Sync>;

/// A query over the records of one protected table: the five single-table
/// TPC-H queries (Q1, Q6, Q11, Q16, Q21) and the two ML steps.
struct SingleTableQuery<T, Acc> {
    name: &'static str,
    protected: &'static str,
    query: MapReduceQuery<T, Acc, Vec<f64>>,
    /// Runs the query vanilla over `dataset`.
    vanilla: VanillaRun<T>,
    /// The protected table's rows: the domain `run_upa` samples additions
    /// from and the records `ground_truth` removes one at a time.
    domain: EmpiricalSampler<T>,
    dataset: Dataset<T>,
    flex_plan: Option<LogicalPlan>,
}

impl<T: Table> SingleTableQuery<T, f64> {
    /// TPC-H query `sql_name` over table `T`: its Map/Reduce form, run
    /// vanilla as `map → reduce`, and the plan parsed from its SQL text.
    fn tpch(
        name: &'static str,
        sql_name: &str,
        query: &MapReduceQuery<T, f64, f64>,
        domain: EmpiricalSampler<T>,
        dataset: Dataset<T>,
    ) -> Self {
        let query = vectorize(query);
        let q = query.clone();
        SingleTableQuery {
            name,
            protected: T::NAME,
            vanilla: Box::new(move |ds: &Dataset<T>| {
                let m = q.mapper();
                q.finalize(ds.map(move |t| m(t)).reduce(|a, b| a + b).as_ref())
            }),
            query,
            domain,
            dataset,
            flex_plan: Some(sql::plan(sql_name)),
        }
    }
}

impl<T: Data, Acc: Data> EvalQuery for SingleTableQuery<T, Acc> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn protected(&self) -> &'static str {
        self.protected
    }

    fn run_plain(&self, _data: &EvalData) -> Vec<f64> {
        (self.vanilla)(&self.dataset)
    }

    fn run_upa(&self, upa: &mut Upa, _data: &EvalData) -> Result<UpaResult<Vec<f64>>, UpaError> {
        upa.run(&self.dataset, &self.query, &self.domain)
    }

    fn ground_truth(
        &self,
        data: &EvalData,
        domain_samples: usize,
        seed: u64,
    ) -> GroundTruth<Vec<f64>> {
        let rows = self.domain.pool();
        exact_local_sensitivity(
            &data.ctx,
            rows,
            &self.query,
            &self.domain,
            domain_samples,
            seed,
        )
    }

    fn flex_plan(&self) -> Option<&LogicalPlan> {
        self.flex_plan.as_ref()
    }
}

/// A join-count query executed through `joinDP` (Q4, Q13).
struct JoinQuery {
    name: &'static str,
    broadcast_query: MapReduceQuery<Order, f64, Vec<f64>>,
    agg: JoinAggregate<u64, Order, Lineitem, f64, Vec<f64>>,
    pred: fn(&Order, &Lineitem) -> bool,
    /// The orders, for the broadcast ground truth.
    orders: EmpiricalSampler<Order>,
    /// The same orders keyed by `orderkey`, for `joinDP`.
    orders_by_key: EmpiricalSampler<(u64, Order)>,
    orders_keyed: Dataset<(u64, Order)>,
    lineitem_keyed: Dataset<(u64, Lineitem)>,
    flex_plan: LogicalPlan,
}

impl EvalQuery for JoinQuery {
    fn name(&self) -> &'static str {
        self.name
    }
    fn protected(&self) -> &'static str {
        Order::NAME
    }

    fn run_plain(&self, _data: &EvalData) -> Vec<f64> {
        let pred = self.pred;
        let count = self
            .orders_keyed
            .join(&self.lineitem_keyed)
            .filter(move |(_, (o, l))| pred(o, l))
            .count();
        vec![count as f64]
    }

    fn run_upa(&self, upa: &mut Upa, _data: &EvalData) -> Result<UpaResult<Vec<f64>>, UpaError> {
        upa.run_join(
            &self.orders_keyed,
            &self.lineitem_keyed,
            &self.agg,
            &self.orders_by_key,
        )
    }

    fn ground_truth(
        &self,
        data: &EvalData,
        domain_samples: usize,
        seed: u64,
    ) -> GroundTruth<Vec<f64>> {
        exact_local_sensitivity(
            &data.ctx,
            self.orders.pool(),
            &self.broadcast_query,
            &self.orders,
            domain_samples,
            seed,
        )
    }

    fn flex_plan(&self) -> Option<&LogicalPlan> {
        Some(&self.flex_plan)
    }
}

/// Builds all nine evaluated queries over `data`, in the paper's
/// Figure 2 order (the five FLEX-supported queries first).
pub fn build_queries(data: &EvalData) -> Vec<Box<dyn EvalQuery>> {
    let mut queries: Vec<Box<dyn EvalQuery>> = Vec::with_capacity(9);
    // One sampling pool per protected table, shared by every query over
    // it: a run samples from the pool in place instead of copying it.
    let lineitem = EmpiricalSampler::new(data.tables.lineitem.clone());
    let partsupp = EmpiricalSampler::new(data.tables.partsupp.clone());
    let orders = EmpiricalSampler::new(data.tables.orders.clone());
    let keyed: Vec<(u64, Order)> = data
        .tables
        .orders
        .iter()
        .map(|o| (o.orderkey, *o))
        .collect();
    let orders_by_key = EmpiricalSampler::new(keyed);

    let q1 = tq::Q1::new(&data.tables);
    queries.push(Box::new(SingleTableQuery::tpch(
        "TPCH1",
        "Q1",
        q1.query(),
        lineitem.clone(),
        data.datasets.lineitem.clone(),
    )));

    let (orders_keyed, lineitem_keyed) = tq::Q4::keyed(&data.datasets);
    let q4 = tq::Q4::new(&data.tables);
    queries.push(Box::new(JoinQuery {
        name: "TPCH4",
        broadcast_query: vectorize(q4.query()),
        agg: JoinAggregate::new(
            "TPCH4",
            |_k: &u64, o: &Order, l: &Lineitem| tq::q4_qualifies(o, l).then_some(1.0),
            |a, b| a + b,
            |acc: Option<&f64>| vec![acc.copied().unwrap_or(0.0)],
        ),
        pred: tq::q4_qualifies,
        orders: orders.clone(),
        orders_by_key: orders_by_key.clone(),
        orders_keyed: orders_keyed.clone(),
        lineitem_keyed: lineitem_keyed.clone(),
        flex_plan: sql::plan("Q4"),
    }));

    let q13 = tq::Q13::new(&data.tables);
    queries.push(Box::new(JoinQuery {
        name: "TPCH13",
        broadcast_query: vectorize(q13.query()),
        agg: JoinAggregate::new(
            "TPCH13",
            |_k: &u64, o: &Order, l: &Lineitem| tq::q13_qualifies(o, l).then_some(1.0),
            |a, b| a + b,
            |acc: Option<&f64>| vec![acc.copied().unwrap_or(0.0)],
        ),
        pred: tq::q13_qualifies,
        orders,
        orders_by_key,
        orders_keyed,
        lineitem_keyed,
        flex_plan: sql::plan("Q13"),
    }));

    let q16 = tq::Q16::new(&data.tables);
    queries.push(Box::new(SingleTableQuery::tpch(
        "TPCH16",
        "Q16",
        q16.query(),
        partsupp.clone(),
        data.datasets.partsupp.clone(),
    )));

    let q21 = tq::Q21::new(&data.tables);
    queries.push(Box::new(SingleTableQuery::tpch(
        "TPCH21",
        "Q21",
        q21.query(),
        EmpiricalSampler::new(data.tables.supplier.clone()),
        data.datasets.supplier.clone(),
    )));

    // KMeans: warm the model with two plain Lloyd iterations so the
    // evaluated query is a realistic mid-training step.
    let mut km = KMeans::init_from_points(&data.points, 3);
    km.fit(&data.points_ds, 2);
    queries.push(Box::new(SingleTableQuery {
        name: "KMeans",
        protected: ML_DATASET,
        query: km.step_query("KMeans"),
        vanilla: Box::new(move |ds: &Dataset<Point>| km.step_plain(ds)),
        domain: EmpiricalSampler::new(data.points.clone()),
        dataset: data.points_ds.clone(),
        flex_plan: None,
    }));

    // Linear Regression: warm with three plain epochs.
    let dims = data.lr_records[0].features.len();
    let mut lr = LinearRegression::new(dims, 0.05);
    lr.fit(&data.lr_ds, 3);
    queries.push(Box::new(SingleTableQuery {
        name: "LinearRegression",
        protected: ML_DATASET,
        query: lr.step_query("LinearRegression"),
        vanilla: Box::new(move |ds: &Dataset<LrRecord>| lr.step_plain(ds)),
        domain: EmpiricalSampler::new(data.lr_records.clone()),
        dataset: data.lr_ds.clone(),
        flex_plan: None,
    }));

    let q6 = tq::Q6::new(&data.tables);
    queries.push(Box::new(SingleTableQuery::tpch(
        "TPCH6",
        "Q6",
        q6.query(),
        lineitem,
        data.datasets.lineitem.clone(),
    )));

    let q11 = tq::Q11::new(&data.tables);
    queries.push(Box::new(SingleTableQuery::tpch(
        "TPCH11",
        "Q11",
        q11.query(),
        partsupp,
        data.datasets.partsupp.clone(),
    )));

    queries
}

#[cfg(test)]
mod tests {
    use super::*;
    use upa_core::UpaConfig;

    fn tiny_data() -> EvalData {
        let ctx = Context::with_threads(4);
        EvalData::generate(
            &ctx,
            EvalScale {
                orders: 400,
                ml_records: 1_500,
                partitions: 4,
                seed: 11,
            },
        )
    }

    #[test]
    fn suite_has_nine_queries_in_paper_order() {
        let data = tiny_data();
        let queries = build_queries(&data);
        let names: Vec<&str> = queries.iter().map(|q| q.name()).collect();
        assert_eq!(
            names,
            vec![
                "TPCH1",
                "TPCH4",
                "TPCH13",
                "TPCH16",
                "TPCH21",
                "KMeans",
                "LinearRegression",
                "TPCH6",
                "TPCH11"
            ]
        );
    }

    #[test]
    fn upa_raw_output_matches_plain_for_every_query() {
        let data = tiny_data();
        let queries = build_queries(&data);
        let mut upa = Upa::new(
            data.ctx.clone(),
            UpaConfig {
                sample_size: 40,
                add_noise: false,
                ..UpaConfig::default()
            },
        );
        for q in &queries {
            let plain = q.run_plain(&data);
            let result = q.run_upa(&mut upa, &data).unwrap();
            assert_eq!(plain.len(), result.raw.len(), "{}", q.name());
            for (a, b) in plain.iter().zip(&result.raw) {
                assert!(
                    (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                    "{}: plain {a} vs upa raw {b}",
                    q.name()
                );
            }
        }
    }

    #[test]
    fn flex_supports_exactly_five() {
        let data = tiny_data();
        let supported: Vec<&str> = build_queries(&data)
            .iter()
            .filter(|q| q.flex_sensitivity(&data).is_ok())
            .map(|q| q.name())
            .collect();
        assert_eq!(
            supported,
            ["TPCH1", "TPCH4", "TPCH13", "TPCH16", "TPCH21"],
            "the paper's Figure 2 order puts the five FLEX-supported queries first"
        );
    }

    #[test]
    fn ground_truth_has_one_removal_per_protected_record() {
        let data = tiny_data();
        let queries = build_queries(&data);
        for q in &queries {
            let gt = q.ground_truth(&data, 10, 1);
            let expected = match q.protected() {
                "lineitem" => data.tables.lineitem.len(),
                "orders" => data.tables.orders.len(),
                "partsupp" => data.tables.partsupp.len(),
                "supplier" => data.tables.supplier.len(),
                "ds1.10" => data.scale.ml_records,
                other => panic!("unknown protected table {other}"),
            };
            assert_eq!(gt.removal_outputs.len(), expected, "{}", q.name());
            assert!(gt.local_sensitivity >= 0.0);
        }
    }
}

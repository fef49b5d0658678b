//! The three workloads: their tenants, traffic, delta shapes and phase
//! sizes.
//!
//! Every workload is measured by the same phases (see `run.rs`), so every
//! run reports every metric; the workloads differ in the data they
//! register, the questions they ask and how large each phase is.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use vqs_data::GeneratedDataset;
use vqs_engine::prelude::{
    generate_log, target_relation, Configuration, IngestBuilder, RequestMix, RowDelta, TenantSpec,
    TABLE3,
};
use vqs_relalg::prelude::Value;

use crate::loadgen::Ask;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["deployment_mix", "batch_preprocess", "ingest_mix"];

/// Serving workers of the front-end and workers of the solver pool: the
/// machine the benchmark is sized for has two cores.
pub const WORKERS: usize = 2;

/// A question mix of supported data-access questions only: the store's
/// own query shapes, each one a store hit.
pub const STORE_HITS: RequestMix = RequestMix {
    name: "store hits",
    help: 0,
    repeat: 0,
    s_query: 64,
    u_query: 0,
    other: 0,
};

/// `mix` repeated `k` times.
pub fn scaled(mix: &RequestMix, k: usize) -> RequestMix {
    RequestMix {
        name: mix.name,
        help: mix.help * k,
        repeat: mix.repeat * k,
        s_query: mix.s_query * k,
        u_query: mix.u_query * k,
        other: mix.other * k,
    }
}

/// The data-access questions of Table III, summed over the three
/// deployments: 41 supported and 22 unsupported (extremum, comparison and
/// unavailable-data shapes, which the live tier answers or apologizes
/// for).
pub const DATA_ACCESS: RequestMix = RequestMix {
    name: "data access",
    help: 0,
    repeat: 0,
    s_query: 41,
    u_query: 22,
    other: 0,
};

/// One registered tenant.
#[derive(Debug, Clone)]
pub struct TenantDef {
    /// Tenant name.
    pub name: &'static str,
    /// Spoken name of the (first) target in generated questions.
    pub phrase: &'static str,
    /// Extra spoken synonyms of the first target.
    pub synonyms: &'static [&'static str],
    /// Whether "flight" marks data the deployment does not cover.
    pub flight_marker: bool,
    /// The question mix the load draws from for this tenant.
    pub mix: RequestMix,
    /// Streaming ingestion settings, for an ingest-enabled tenant.
    pub ingest: Option<IngestBuilder>,
    /// The data.
    pub dataset: GeneratedDataset,
    /// Its configuration.
    pub config: Configuration,
}

impl TenantDef {
    /// The registration spec.
    pub fn spec(&self) -> TenantSpec {
        let target = &self.config.targets[0];
        let mut spec = TenantSpec::new(self.name, self.dataset.clone(), self.config.clone());
        if !self.synonyms.is_empty() {
            spec = spec.target_synonyms(target, self.synonyms);
        }
        if self.flight_marker {
            spec = spec.unavailable_markers(&["flight"]);
        }
        match &self.ingest {
            Some(options) => spec.ingest(options.clone()),
            None => spec,
        }
    }

    /// Seeded log of `mix` for this tenant.
    pub fn log(&self, mix: &RequestMix, seed: u64) -> Vec<Ask> {
        let target = &self.config.targets[0];
        let relation = target_relation(&self.dataset, &self.config, target).expect("target exists");
        generate_log(&relation, self.phrase, mix, seed)
            .into_iter()
            .map(|entry| Ask {
                tenant: self.name.to_string(),
                text: entry.text,
                intended: entry.intended,
            })
            .collect()
    }
}

/// Deltas per timed flush.
pub const FLUSH_BATCH: usize = 16;

/// A stream of delta batches alongside the questions.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    /// Batches per second, evenly spaced.
    pub batches_per_sec: f64,
    /// Dimension-flip updates per batch.
    pub deltas: usize,
}

/// One workload's inputs and phase sizes.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Tenants registered in set-up and re-registered by the
    /// pre-processing phase.
    pub tenants: Vec<TenantDef>,
    /// The tenant whose flushes are timed (registered with ingest).
    pub flush_tenant: TenantDef,
    /// Timed flushes per run.
    pub flush_repeats: usize,
    /// Extra greedy registrations after set-up.
    pub greedy_repeats: usize,
    /// Exact registrations.
    pub exact_repeats: usize,
    /// Copies of each tenant's mix in its question log: a longer log
    /// averages out which dimensions and values the seed happens to ask
    /// about, and keeps the mix's proportions exact.
    pub log_scale: usize,
    /// Offered rate of the fixed-rate load phase (questions per second).
    pub rate: f64,
    /// Share of the run's seconds the open-loop load of the traced run
    /// lasts (at least).
    pub load_share: f64,
    /// Whole rounds of the question pool the closed-loop throughput
    /// phase answers.
    pub throughput_rounds: usize,
    /// Delta batches streamed alongside the questions, if any.
    pub stream: Option<Stream>,
    /// Whether to re-register with one pool worker and compare stores.
    pub check_worker_parity: bool,
}

/// Rows of the ingest tenant.
pub const INGEST_ROWS: usize = 25_000;

/// A Table I scenario at scale 1.0, as `vqs_data::by_letter` builds it.
/// The data sets are fixed; the seed varies the traffic and the deltas.
fn scenario(spec: vqs_data::SynthSpec) -> GeneratedDataset {
    spec.generate(vqs_data::DEFAULT_SEED, 1.0)
}

fn single(dataset: &GeneratedDataset, target: &str) -> Configuration {
    let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
    Configuration::new(&dataset.name, &dims, &[target])
}

fn tenant(
    name: &'static str,
    dataset: GeneratedDataset,
    target: &str,
    phrase: &'static str,
    synonyms: &'static [&'static str],
    mix: RequestMix,
) -> TenantDef {
    let config = single(&dataset, target);
    TenantDef {
        name,
        phrase,
        synonyms,
        flight_marker: false,
        mix,
        ingest: None,
        dataset,
        config,
    }
}

/// A tenant used only for timed flushes: streaming on, and no flush
/// before the explicit drain.
fn flush_probe(mut def: TenantDef) -> TenantDef {
    def.name = "flush_probe";
    def.ingest = Some(
        IngestBuilder::new()
            .max_dirty(1 << 30)
            .flush_interval(Duration::from_secs(3600)),
    );
    def
}

/// The three Table III deployments as deployed: Primaries, Flights and
/// Developers (Stack Overflow), each with its mix and synonyms.
fn deployments() -> Vec<TenantDef> {
    let mut tenants = vec![
        tenant(
            "primaries",
            scenario(vqs_data::primaries_spec()),
            "support",
            "polling support",
            &["support", "polling", "polls"],
            TABLE3[0],
        ),
        tenant(
            "flights",
            scenario(vqs_data::flights_spec()),
            "cancelled",
            "cancellations",
            &["cancellations", "cancellation probability"],
            TABLE3[1],
        ),
        tenant(
            "stackoverflow",
            scenario(vqs_data::stackoverflow_spec()),
            "job_satisfaction",
            "job satisfaction",
            &["job satisfaction", "satisfaction", "how satisfied"],
            TABLE3[2],
        ),
    ];
    for def in &mut tenants {
        def.flight_marker = true;
    }
    tenants
}

/// The four Table I scenarios with one target each.
fn scenarios() -> Vec<TenantDef> {
    let mut tenants = vec![
        tenant(
            "acs",
            scenario(vqs_data::acs_spec()),
            "hearing",
            "hearing",
            &[],
            DATA_ACCESS,
        ),
        tenant(
            "stackoverflow",
            scenario(vqs_data::stackoverflow_spec()),
            "competence",
            "competence",
            &[],
            DATA_ACCESS,
        ),
        tenant(
            "flights",
            scenario(vqs_data::flights_spec()),
            "delay",
            "delay",
            &[],
            DATA_ACCESS,
        ),
        tenant(
            "primaries",
            scenario(vqs_data::primaries_spec()),
            "support",
            "support",
            &[],
            DATA_ACCESS,
        ),
    ];
    for def in &mut tenants {
        def.flight_marker = true;
    }
    tenants
}

/// The ingest tenant: `ScaleTenant` at [`INGEST_ROWS`] rows, both
/// targets, flushed by the background flusher once per second.
fn scale_tenant() -> TenantDef {
    let dataset =
        vqs_data::scale_tenant_spec().generate_rows(vqs_data::DEFAULT_SEED, INGEST_ROWS, WORKERS);
    let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
    let config = Configuration::new(&dataset.name, &dims, &["engagement", "latency_ms"]);
    TenantDef {
        name: "scale",
        phrase: "engagement",
        synonyms: &[],
        flight_marker: false,
        mix: STORE_HITS,
        ingest: Some(
            IngestBuilder::new()
                .max_dirty(1 << 30)
                .flush_interval(Duration::from_secs(1)),
        ),
        dataset,
        config,
    }
}

/// Build the named workload.
pub fn build(name: &str) -> Option<Workload> {
    let workload = match name {
        "deployment_mix" => {
            let tenants = deployments();
            let flush_tenant = flush_probe(tenants[0].clone());
            Workload {
                tenants,
                flush_tenant,
                flush_repeats: 15,
                greedy_repeats: 0,
                exact_repeats: 2,
                log_scale: 20,
                rate: 200.0,
                load_share: 0.5,
                throughput_rounds: 3,
                stream: None,
                check_worker_parity: false,
            }
        }
        "batch_preprocess" => {
            let tenants = scenarios();
            let flush_tenant = flush_probe(tenants[3].clone());
            Workload {
                tenants,
                flush_tenant,
                flush_repeats: 15,
                greedy_repeats: 2,
                exact_repeats: 3,
                log_scale: 5,
                rate: 200.0,
                load_share: 0.3,
                throughput_rounds: 4,
                stream: None,
                check_worker_parity: true,
            }
        }
        "ingest_mix" => {
            let scale = scale_tenant();
            let flush_tenant = flush_probe(scale.clone());
            Workload {
                tenants: vec![scale],
                flush_tenant,
                flush_repeats: 9,
                greedy_repeats: 2,
                exact_repeats: 3,
                log_scale: 1,
                rate: 150.0,
                load_share: 0.75,
                throughput_rounds: 1800,
                stream: Some(Stream {
                    batches_per_sec: 10.0,
                    deltas: 4,
                }),
                check_worker_parity: false,
            }
        }
        _ => return None,
    };
    Some(workload)
}

/// Seeded dimension-flip updates: `batches` batches of `per_batch`
/// distinct rows each (no row is touched twice, so the final table does
/// not depend on the order the batches are applied in), each row moving
/// to another value of one seeded dimension.
pub fn flip_batches(
    dataset: &GeneratedDataset,
    batches: usize,
    per_batch: usize,
    seed: u64,
) -> Vec<Vec<RowDelta>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let table = &dataset.table;
    let mut rows: Vec<usize> = (0..table.len()).collect();
    rows.shuffle(&mut rng);
    assert!(batches * per_batch <= rows.len(), "not enough rows to flip");
    let universes: Vec<Vec<Value>> = (0..dataset.dims.len())
        .map(|d| {
            let mut seen: Vec<Value> = Vec::new();
            for row in 0..table.len() {
                let value = table.value(row, d);
                if !seen.contains(&value) {
                    seen.push(value);
                }
            }
            seen
        })
        .collect();
    rows.chunks(per_batch)
        .take(batches)
        .map(|chunk| {
            chunk
                .iter()
                .map(|&row| {
                    let mut values = table.row(row);
                    let d = rng.gen_range(0..universes.len());
                    let others: Vec<&Value> =
                        universes[d].iter().filter(|v| **v != values[d]).collect();
                    values[d] = others[rng.gen_range(0..others.len())].clone();
                    RowDelta::Update { row, values }
                })
                .collect()
        })
        .collect()
}

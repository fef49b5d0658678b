//! The traced run: per-layer metrics from spans around the benchmark's
//! own calls into each layer's public functions.
//!
//! Layer boundaries and the calls that time them:
//!
//! | layer | call |
//! |---|---|
//! | `nlq` | `Extractor::classify` |
//! | `store` | `SpeechStore::lookup`, `speeches_for_target`, `StoreStats::approx_bytes` |
//! | `service` | `VoiceService::respond`, on one thread, split by answer tier |
//! | `generator` | `target_relation`, `enumerate_queries` |
//! | `vqs-core` | `EncodedRelation::subset`, `FactCatalog::build_with_scope_sizes`, `Summarizer::summarize` |
//! | `ingest` | `VoiceService::ingest` (no flush due), `drain_ingest` |
//! | `service::frontend` | completion − submission − the response's own `latency_micros` |
//!
//! The respond pass is made twice over the same questions, once with
//! spans and once without; the difference is the tracing overhead.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use vqs_core::prelude::{
    EncodedRelation, FactCatalog, GreedySummarizer, Instrumentation, Problem, Summarizer,
};
use vqs_engine::prelude::{
    configured_exact, enumerate_queries, target_relation, Answer, Configuration, Request,
    ServiceRequest, WorkItem, TABLE3,
};

use crate::loadgen::{Ask, Pacing};
use crate::run::{self, Tally, Tier};
use crate::stats::{close, mean, median, percentile};
use crate::trace::Tracer;
use crate::workload::{TenantDef, WORKERS};
use crate::Metrics;

/// Rounds of the respond pass over the traced question pool.
const RESPOND_ROUNDS: usize = 5;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Span totals of `name` over requests whose id's high half is `tenant`.
fn tenant_total(tracer: &Tracer, name: &str, tenant: u64) -> Duration {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == name && s.request >> 32 == tenant)
        .map(|s| s.end - s.start)
        .sum()
}

/// Solve every work item of every target of `def` on this thread, once
/// with the greedy summarizer the service deploys and once with the
/// exact one, and check the results against the service's store.
fn core_pass(
    tracer: &mut Tracer,
    t: u64,
    def: &TenantDef,
    store: &vqs_engine::prelude::SpeechStore,
    counts: &mut Instrumentation,
    tally: &mut Tally,
) -> usize {
    let greedy = GreedySummarizer::with_optimized_pruning();
    let exact = configured_exact(&def.config);
    let mut items_total = 0;
    for target in &def.config.targets {
        let relation: EncodedRelation = tracer
            .span("generator.encode", t << 32, |_| {
                target_relation(&def.dataset, &def.config, target)
            })
            .expect("target encodes");
        let items: Vec<WorkItem> = tracer.span("generator.enumerate", t << 32, |_| {
            enumerate_queries(&relation, &def.config, target)
        });
        for item in &items {
            let id = (t << 32) | items_total as u64;
            items_total += 1;
            let (g, e) = tracer.span("core.item", id, |tr| {
                let subset = tr
                    .span("core.subset", id, |_| relation.subset(&item.rows))
                    .expect("rows in range");
                let (free, min_dims, max_dims) = scope_sizes(&subset, &def.config, item);
                let catalog = tr
                    .span("core.catalog", id, |_| {
                        FactCatalog::build_with_scope_sizes(&subset, &free, min_dims, max_dims)
                    })
                    .expect("catalog builds");
                let problem = Problem::new(&subset, &catalog, def.config.speech_length)
                    .expect("valid problem");
                let g = tr
                    .span("core.search_greedy", id, |_| greedy.summarize(&problem))
                    .expect("greedy solves");
                let e = tr
                    .span("core.search_exact", id, |_| exact.summarize(&problem))
                    .expect("exact solves");
                (g, e)
            });
            counts.merge(&g.instrumentation);
            counts.merge(&e.instrumentation);
            let stored = store.get(&item.query);
            tally.check(match stored {
                Some(s) if close(s.utility, g.utility, 1e-9, g.base_error) => Ok(()),
                Some(s) => Err(format!(
                    "{}: stored utility {} vs greedy {}",
                    item.query, s.utility, g.utility
                )),
                None => Err(format!("{}: not stored", item.query)),
            });
            tally.check(
                if e.utility >= g.utility - 1e-9 * g.base_error.abs().max(1.0) {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: exact {} below greedy {}",
                        item.query, e.utility, g.utility
                    ))
                },
            );
        }
    }
    items_total
}

/// The fact-scope sizes the engine's pre-processing uses for one item:
/// dimensions fixed by the query are not free for facts.
fn scope_sizes(
    subset: &EncodedRelation,
    config: &Configuration,
    item: &WorkItem,
) -> (Vec<usize>, usize, usize) {
    let fixed: Vec<&String> = item.query.predicates().iter().map(|(d, _)| d).collect();
    let free: Vec<usize> = (0..subset.dim_count())
        .filter(|&d| !fixed.iter().any(|f| **f == subset.dims()[d].name))
        .collect();
    let min_dims = usize::from(!config.include_overall_fact && !free.is_empty());
    let max_dims = config.max_fact_dimensions.min(free.len());
    (free, min_dims, max_dims)
}

/// The traced question pool: every tenant's log with a Table III mix,
/// so every answer tier occurs on every workload.
fn trace_pool(tenants: &[TenantDef], seed: u64) -> Vec<Ask> {
    tenants
        .iter()
        .enumerate()
        .flat_map(|(i, def)| def.log(&TABLE3[i % TABLE3.len()], seed ^ (0x7ACE + i as u64)))
        .collect()
}

/// Per-request timings of one traced respond call.
#[derive(Default, Clone, Copy)]
struct RequestTimes {
    classify: Option<Duration>,
    lookup: Option<Duration>,
    hit: Option<Duration>,
}

/// The traced run of `name`.
pub fn traced(name: &str, seed: u64, seconds: f64, tally: &mut Tally) -> Result<Metrics, String> {
    eprintln!("[{name}] traced run: set-up");
    let setup = run::setup(name, seed, tally);
    let workload = &setup.workload;
    let service = &setup.service;
    let mut tracer = Tracer::new();
    let mut counts = Instrumentation::default();

    eprintln!("[{name}] generator and core");
    let mut items = Vec::new();
    for (t, def) in workload.tenants.iter().enumerate() {
        let store = service.tenant_store(def.name).expect("registered");
        items.push(core_pass(
            &mut tracer,
            t as u64,
            def,
            &store,
            &mut counts,
            tally,
        ));
    }
    let summary = tracer.summary();
    let total = |n: &str| summary.get(n).map_or(Duration::ZERO, |s| s.total);
    let solve_sum = total("core.subset") + total("core.catalog") + total("core.search_greedy");
    let efficiency = solve_sum.as_secs_f64() / (setup.register.as_secs_f64() * WORKERS as f64);
    // Mean greedy solve cost per item of the flushed tenant.
    let flushed = workload
        .tenants
        .iter()
        .position(|def| def.dataset.name == workload.flush_tenant.dataset.name)
        .expect("the flushed tenant is one of the workload's tenants") as u64;
    let per_item = ["core.subset", "core.catalog", "core.search_greedy"]
        .iter()
        .map(|n| tenant_total(&tracer, n, flushed))
        .sum::<Duration>()
        / items[flushed as usize].max(1) as u32;
    let store_bytes: u64 = workload
        .tenants
        .iter()
        .map(|def| {
            service
                .tenant_store(def.name)
                .expect("registered")
                .stats()
                .approx_bytes
        })
        .sum();

    eprintln!("[{name}] respond pass");
    let pool = trace_pool(&workload.tenants, seed);
    let extractors: HashMap<&str, _> = workload
        .tenants
        .iter()
        .map(|def| (def.name, service.extractor(def.name).expect("registered")))
        .collect();
    let stores: HashMap<&str, _> = workload
        .tenants
        .iter()
        .map(|def| {
            (
                def.name,
                service.tenant_store(def.name).expect("registered"),
            )
        })
        .collect();
    let mut plain = Duration::ZERO;
    let mut traced = Duration::ZERO;
    let mut tiers: HashMap<&'static str, u64> = HashMap::new();
    let mut times: HashMap<u64, RequestTimes> = HashMap::new();
    for round in 0..RESPOND_ROUNDS {
        // Alternate which pass goes first, so neither gains from the
        // other having warmed the caches.
        for traced_pass in [round % 2 == 1, round % 2 == 0] {
            let start = Instant::now();
            if traced_pass {
                for (i, ask) in pool.iter().enumerate() {
                    let id = (round * pool.len() + i) as u64;
                    let extractor = &extractors[ask.tenant.as_str()];
                    let store = &stores[ask.tenant.as_str()];
                    tracer.span("request", id, |tr| {
                        let request =
                            tr.span("nlq.classify", id, |_| extractor.classify(&ask.text));
                        if let Request::Query(q) = &request {
                            tr.span("store.lookup", id, |_| {
                                std::hint::black_box(store.lookup(q))
                            });
                        }
                        let response = tr.span("service.respond", id, |_| {
                            service.respond(&ServiceRequest::new(
                                ask.tenant.as_str(),
                                ask.text.as_str(),
                            ))
                        });
                        let (span, count) = match Tier::of(&response.answer) {
                            Tier::Exact => ("service.respond_hit", "pipeline.answers_exact"),
                            Tier::Generalized => {
                                ("service.respond_hit", "pipeline.answers_generalized")
                            }
                            Tier::Computed => ("service.respond_live", "pipeline.answers_computed"),
                            Tier::Apology => ("service.respond_other", "pipeline.answers_apology"),
                            Tier::Help => ("service.respond_other", "pipeline.answers_help"),
                        };
                        tr.rename_last("service.respond", span);
                        *tiers.entry(count).or_default() += 1;
                        if let Answer::Speech { speech, .. } = &response.answer {
                            tr.span("store.target_scan", id, |_| {
                                std::hint::black_box(
                                    store.speeches_for_target(speech.query.target()),
                                )
                            });
                        }
                    });
                }
                traced += start.elapsed();
            } else {
                // The same calls without spans.
                for ask in &pool {
                    let extractor = &extractors[ask.tenant.as_str()];
                    let store = &stores[ask.tenant.as_str()];
                    if let Request::Query(q) = extractor.classify(&ask.text) {
                        std::hint::black_box(store.lookup(&q));
                    }
                    let response = service
                        .respond(&ServiceRequest::new(ask.tenant.as_str(), ask.text.as_str()));
                    if let Answer::Speech { speech, .. } = &response.answer {
                        std::hint::black_box(store.speeches_for_target(speech.query.target()));
                    }
                }
                plain += start.elapsed();
            }
        }
    }
    for span in tracer.spans() {
        let entry = times.entry(span.request).or_default();
        let d = Some(span.end - span.start);
        match span.name {
            "nlq.classify" => entry.classify = d,
            "store.lookup" => entry.lookup = d,
            "service.respond_hit" => entry.hit = d,
            _ => {}
        }
    }
    let hit_self: Vec<f64> = times
        .values()
        .filter_map(|t| {
            let hit = t.hit?;
            let minus = t.classify.unwrap_or_default() + t.lookup.unwrap_or_default();
            Some((hit.as_secs_f64() - minus.as_secs_f64()) * 1e6)
        })
        .collect();
    let overhead_pct = (traced.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0;

    eprintln!("[{name}] ingest");
    let flushes = run::flush_phase(workload, seed, Some(&mut tracer), tally);
    let flush_ms = median(&flushes.walls) * 1e3;
    let resummarized = median(
        &flushes
            .resummarized
            .iter()
            .map(|&n| n as f64)
            .collect::<Vec<_>>(),
    );

    eprintln!("[{name}] untraced load for the front-end figures");
    let load_pool = run::traffic(workload, seed);
    let rounds = run::open_loop_rounds(workload, &load_pool, seconds);
    let mut check = run::AnswerCheck::new(None);
    let load = run::load_phase(
        service,
        workload,
        &load_pool,
        seed,
        rounds,
        Pacing::OpenLoop,
        &mut check,
        tally,
    )
    .run;
    run::describe_latencies(&load, &load_pool);
    // The median is taken over supported questions (all answered from
    // the store) and the p99 over every data-access question; see the
    // README for why the median of the latter is not a steady figure.
    let supported = run::latencies(&load, &load_pool, Ask::is_supported);
    let data_access = run::latencies(&load, &load_pool, Ask::is_data_access);
    let waits: Vec<f64> = load.asks.iter().map(|s| s.wait_us()).collect();

    let path = trace_path(name, seed);
    match tracer.write(&path) {
        Ok(()) => eprintln!("[{name}] spans written to {}", path.display()),
        Err(e) => eprintln!("[{name}] could not write spans to {}: {e}", path.display()),
    }

    let summary = tracer.summary();
    let mean_us = |n: &str| summary.get(n).map_or(0.0, |s| s.mean_us());
    let total_ms = |n: &str| summary.get(n).map_or(0.0, |s| ms(s.total));
    let mut m = Metrics::default();
    m.push("nlq.classify_us", mean_us("nlq.classify"), "us");
    m.push("store.lookup_us", mean_us("store.lookup"), "us");
    m.push("store.target_scan_us", mean_us("store.target_scan"), "us");
    m.push("store.bytes", store_bytes as f64, "bytes");
    m.push(
        "service.respond_hit_us",
        mean_us("service.respond_hit"),
        "us",
    );
    m.push(
        "service.respond_live_us",
        mean_us("service.respond_live"),
        "us",
    );
    m.push(
        "service.respond_other_us",
        mean_us("service.respond_other"),
        "us",
    );
    m.push("pipeline.hit_self_us", mean(&hit_self), "us");
    for tier in [
        "pipeline.answers_exact",
        "pipeline.answers_generalized",
        "pipeline.answers_computed",
        "pipeline.answers_apology",
        "pipeline.answers_help",
    ] {
        m.push(tier, tiers.get(tier).copied().unwrap_or(0) as f64, "count");
    }
    m.push(
        "frontend.wait_p50_us",
        percentile(&waits, 50.0).unwrap_or(f64::NAN),
        "us",
    );
    m.push(
        "frontend.wait_p99_us",
        percentile(&waits, 99.0).unwrap_or(f64::NAN),
        "us",
    );
    m.push("generator.encode_ms", total_ms("generator.encode"), "ms");
    m.push(
        "generator.enumerate_ms",
        total_ms("generator.enumerate"),
        "ms",
    );
    m.push(
        "generator.queries",
        items.iter().sum::<usize>() as f64,
        "count",
    );
    m.push("core.subset_ms", total_ms("core.subset"), "ms");
    m.push("core.catalog_ms", total_ms("core.catalog"), "ms");
    m.push(
        "core.search_greedy_ms",
        total_ms("core.search_greedy"),
        "ms",
    );
    m.push("core.search_exact_ms", total_ms("core.search_exact"), "ms");
    m.push(
        "core.gain_row_touches",
        counts.gain_row_touches as f64,
        "count",
    );
    m.push(
        "core.index_row_touches",
        counts.index_row_touches as f64,
        "count",
    );
    m.push("core.nodes_expanded", counts.nodes_expanded as f64, "count");
    m.push(
        "core.speeches_evaluated",
        counts.speeches_evaluated as f64,
        "count",
    );
    m.push("pool.efficiency", efficiency, "ratio");
    m.push("ingest.accept_us", mean(&flushes.accept_us), "us");
    m.push("ingest.flush_ms", flush_ms, "ms");
    m.push("ingest.resummarized", resummarized, "count");
    m.push(
        "ingest.flush_fixed_ms",
        flush_ms - resummarized * ms(per_item),
        "ms",
    );
    m.push(
        "load.query_p50_ms",
        percentile(&supported, 50.0).unwrap_or(f64::NAN),
        "ms",
    );
    m.push(
        "load.query_p99_ms",
        percentile(&data_access, 99.0).unwrap_or(f64::NAN),
        "ms",
    );
    m.push(
        "loadgen.send_lag_max_us",
        load.send_lag_max.as_secs_f64() * 1e6,
        "us",
    );
    m.push(
        "loadgen.stamp_error_us",
        load.stamp_error.as_secs_f64() * 1e6,
        "us",
    );
    m.push("trace.overhead_pct", overhead_pct, "%");
    Ok(m)
}

/// Where the spans of a traced run go: under the build directory, which
/// holds only generated files.
fn trace_path(name: &str, seed: u64) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    base.join("perfbench-traces")
        .join(format!("{name}-{seed}.tsv"))
}

//! The measured phases shared by every workload, and the output checks.
//!
//! An untraced run goes through:
//!
//! 1. **set-up**, three times: data generation, greedy registration of
//!    every tenant on a fresh service, and a warm-up pass of direct
//!    calls. `setup_s` is the median; the registration walls also count
//!    towards `preprocess_s`.
//! 2. **pre-processing**: further greedy registrations and the exact
//!    ones on fresh services (`preprocess_s`, `preprocess_exact_s`).
//! 3. **flushes** on an idle service: a fixed batch of dimension-flip
//!    updates, then a timed `drain_ingest` (`flush_s`).
//! 4. **throughput**: whole rounds of the question pool, closed loop
//!    through the front-end, with the delta stream of `ingest_mix`
//!    alongside (`serve_qps`).
//!
//! A traced run sets up once, replaces phases 2 and 3 with spanned direct
//! calls into each layer, and runs an open-loop load for the latency and
//! front-end figures (see `layers.rs`).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vqs_core::prelude::Summarizer;
use vqs_engine::prelude::{
    configured_exact_on, Answer, FrontEnd, ServiceBuilder, ServiceRequest, ServiceResponse,
    SpeechStore, VoiceService,
};
use vqs_relalg::prelude::{Table, Value};

use crate::loadgen::{self, Ask, LoadRun, Pacing, Timeline};
use crate::oracle::TableOracle;
use crate::trace::Tracer;
use crate::workload::{flip_batches, scaled, TenantDef, Workload, FLUSH_BATCH, WORKERS};
use vqs_engine::prelude::RowDelta;

/// Operation and check accounting of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed (shed, expired, internal errors, rejected
    /// batches, failed registrations or drains, failed output checks).
    pub failed: u64,
    /// Output-check failures (first few kept for the report).
    pub check_failures: Vec<String>,
}

impl Tally {
    /// Count one operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record one output check.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(what) = outcome {
            self.failed += 1;
            if self.check_failures.len() < 8 {
                eprintln!("check failed: {what}");
                self.check_failures.push(what);
            }
        }
    }
}

/// Which rung of the answer chain produced an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Exact store hit.
    Exact,
    /// Generalized store hit.
    Generalized,
    /// Live plan.
    Computed,
    /// Typed apology (or a miss).
    Apology,
    /// Help text.
    Help,
}

impl Tier {
    /// Classify an answer.
    pub fn of(answer: &Answer) -> Tier {
        match answer {
            Answer::Speech {
                kept_predicates: None,
                ..
            } => Tier::Exact,
            Answer::Speech { .. } => Tier::Generalized,
            Answer::Computed { .. } | Answer::Extension { .. } => Tier::Computed,
            Answer::Help { .. } => Tier::Help,
            _ => Tier::Apology,
        }
    }
}

/// A fresh service with the deployed default summarizer (greedy).
pub fn greedy_service(workers: usize) -> VoiceService {
    ServiceBuilder::new().workers(workers).build()
}

/// A fresh service with the paper's exact summarizer on its pool.
pub fn exact_service(def: &TenantDef) -> VoiceService {
    let config = def.config.clone();
    ServiceBuilder::new()
        .workers(WORKERS)
        .summarizer_with_pool(move |pool| {
            Box::new(configured_exact_on(&config, pool)) as Box<dyn Summarizer + Send + Sync>
        })
        .build()
}

/// Register every tenant; returns the wall time.
pub fn register_all(service: &VoiceService, tenants: &[TenantDef], tally: &mut Tally) -> Duration {
    let start = Instant::now();
    for def in tenants {
        let outcome = service.register_dataset(def.spec());
        if let Err(e) = &outcome {
            eprintln!("registration of {} failed: {e}", def.name);
        }
        tally.op(outcome.is_ok());
    }
    start.elapsed()
}

/// The traffic pool of a workload: every tenant's seeded log.
pub fn traffic(workload: &Workload, seed: u64) -> Vec<Ask> {
    workload
        .tenants
        .iter()
        .enumerate()
        .flat_map(|(i, def)| {
            def.log(
                &scaled(&def.mix, workload.log_scale),
                seed.wrapping_add(i as u64),
            )
        })
        .collect()
}

/// One timed set-up.
pub struct Setup {
    /// The service every later serving phase uses.
    pub service: Arc<VoiceService>,
    /// The tenants (their data).
    pub workload: Workload,
    /// Total set-up wall time.
    pub total: Duration,
    /// Of which, registration.
    pub register: Duration,
}

/// Set up once: generate, register, and warm up with direct calls on
/// one question in `log_scale` of the seed's traffic.
pub fn setup(name: &str, seed: u64, tally: &mut Tally) -> Setup {
    let start = Instant::now();
    let workload = crate::workload::build(name).expect("known workload");
    let service = Arc::new(greedy_service(WORKERS));
    let register = register_all(&service, &workload.tenants, tally);
    for ask in traffic(&workload, seed).iter().step_by(workload.log_scale) {
        std::hint::black_box(
            service.respond(&ServiceRequest::new(ask.tenant.as_str(), ask.text.as_str())),
        );
    }
    Setup {
        service,
        workload,
        total: start.elapsed(),
        register,
    }
}

/// Per-tenant oracles over each tenant's (current) table.
pub fn oracles(tenants: &[TenantDef]) -> HashMap<(String, String), TableOracle> {
    let mut out = HashMap::new();
    for def in tenants {
        for target in &def.config.targets {
            let oracle = TableOracle::new(&def.dataset.table, &def.config.dimensions, target)
                .expect("oracle reads the table");
            out.insert((def.name.to_string(), target.clone()), oracle);
        }
    }
    out
}

/// Check every stored speech of every tenant, and that each target
/// holds one speech per distinct value combination.
pub fn check_stores(
    service: &VoiceService,
    tenants: &[TenantDef],
    oracles: &HashMap<(String, String), TableOracle>,
    tally: &mut Tally,
) {
    for def in tenants {
        let store = service.tenant_store(def.name).expect("registered");
        let mut expected = 0;
        for target in &def.config.targets {
            let oracle = &oracles[&(def.name.to_string(), target.clone())];
            expected += oracle.distinct_combinations(def.config.max_query_length);
            for speech in store.speeches_for_target(target) {
                tally.check(oracle.check_speech(&speech));
            }
        }
        let stored = store.len();
        tally.check(if stored == expected {
            Ok(())
        } else {
            Err(format!(
                "{}: {stored} speeches, {expected} distinct combinations",
                def.name
            ))
        });
    }
}

/// Exact utility is never below greedy utility, query by query.
pub fn check_exact_dominates(
    greedy: &SpeechStore,
    exact: &SpeechStore,
    tenant: &str,
    tally: &mut Tally,
) {
    let greedy = greedy.snapshot();
    let exact = exact.snapshot();
    if greedy.len() != exact.len() {
        tally.check(Err(format!(
            "{tenant}: {} greedy vs {} exact speeches",
            greedy.len(),
            exact.len()
        )));
        return;
    }
    for (g, e) in greedy.iter().zip(&exact) {
        let ok = g.query == e.query && e.utility >= g.utility - 1e-9 * g.base_error.abs().max(1.0);
        tally.check(if ok {
            Ok(())
        } else {
            Err(format!(
                "{}: exact utility {} below greedy {}",
                g.query, e.utility, g.utility
            ))
        });
    }
}

/// Stores hold equal speeches; otherwise the first difference.
pub fn same_store(a: &SpeechStore, b: &SpeechStore) -> Result<(), String> {
    let a = a.snapshot();
    let b = b.snapshot();
    for (x, y) in a.iter().zip(&b) {
        if x.query != y.query {
            let first = x.query.clone().min(y.query.clone());
            return Err(format!("{first} is stored on one side only"));
        }
        if **x != **y {
            return Err(format!("{} differs: {:?} vs {:?}", x.query, x, y));
        }
    }
    if a.len() != b.len() {
        return Err(format!("{} vs {} speeches", a.len(), b.len()));
    }
    Ok(())
}

/// The pre-processing phase. Returns (greedy walls, exact walls); the
/// last exact service is kept for the dominance check.
pub fn preprocess_phase(
    workload: &Workload,
    greedy_walls: &mut Vec<f64>,
    tally: &mut Tally,
) -> (Vec<f64>, VoiceService) {
    for _ in 0..workload.greedy_repeats {
        let service = greedy_service(WORKERS);
        greedy_walls.push(register_all(&service, &workload.tenants, tally).as_secs_f64());
    }
    let mut exact_walls = Vec::new();
    let mut last = None;
    for _ in 0..workload.exact_repeats {
        drop(last.take());
        let service = exact_service(&workload.tenants[0]);
        exact_walls.push(register_all(&service, &workload.tenants, tally).as_secs_f64());
        last = Some(service);
    }
    (exact_walls, last.expect("at least one exact registration"))
}

/// One flush measurement: per drain, the wall time and the report.
pub struct Flushes {
    /// Wall time of each timed drain.
    pub walls: Vec<f64>,
    /// Summaries re-solved by each drain.
    pub resummarized: Vec<usize>,
    /// Wall time of each (non-flushing) ingest call, in microseconds.
    pub accept_us: Vec<f64>,
}

/// Run `f`, timed by a span when a tracer is given and by a plain
/// clock otherwise.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    match tracer {
        Some(tracer) => {
            let out = tracer.span(name, id, |_| f());
            let span = tracer.spans().last().expect("span just recorded");
            (out, span.end - span.start)
        }
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed())
        }
    }
}

/// Timed drains on an idle service: each round ingests one batch of
/// [`FLUSH_BATCH`] dimension-flip updates (in single-delta calls, none of
/// which flushes), then drains. The first round warms up and is not
/// counted.
pub fn flush_phase(
    workload: &Workload,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Flushes {
    let def = &workload.flush_tenant;
    let service = greedy_service(WORKERS);
    register_all(&service, std::slice::from_ref(def), tally);
    let batches = flip_batches(
        &def.dataset,
        workload.flush_repeats + 1,
        FLUSH_BATCH,
        seed ^ 0xF1,
    );
    let mut out = Flushes {
        walls: Vec::new(),
        resummarized: Vec::new(),
        accept_us: Vec::new(),
    };
    for (round, batch) in batches.iter().enumerate() {
        for (i, delta) in batch.iter().enumerate() {
            let id = (round * batch.len() + i) as u64;
            let (accepted, took) = timed(&mut tracer, "ingest.accept", id, || {
                service.ingest(def.name, std::slice::from_ref(delta))
            });
            out.accept_us.push(took.as_secs_f64() * 1e6);
            tally.op(matches!(&accepted, Ok(report) if report.flush.is_none()));
        }
        let (drained, took) = timed(&mut tracer, "ingest.flush", round as u64, || {
            service.drain_ingest(def.name)
        });
        tally.op(drained.is_ok());
        if let (Ok(report), true) = (drained, round > 0) {
            out.walls.push(took.as_secs_f64());
            out.resummarized.push(report.resummarized);
        }
    }
    out
}

/// Checks every answer of a load phase as it completes: it was served,
/// its Table III label is the intended one, and it equals the first
/// answer to the same question. [`AnswerCheck::finish`] then checks each
/// first answer (speech or computed value) against the oracle, when the
/// data did not change while serving.
pub struct AnswerCheck<'a> {
    oracles: Option<&'a HashMap<(String, String), TableOracle>>,
    first: HashMap<usize, Answer>,
}

impl<'a> AnswerCheck<'a> {
    /// A checker; `oracles` is `None` when the data changes under load.
    pub fn new(oracles: Option<&'a HashMap<(String, String), TableOracle>>) -> AnswerCheck<'a> {
        AnswerCheck {
            oracles,
            first: HashMap::new(),
        }
    }

    /// Check one answer to question `index` of `pool`.
    pub fn answer(
        &mut self,
        pool: &[Ask],
        index: usize,
        response: &ServiceResponse,
        tally: &mut Tally,
    ) {
        let ask = &pool[index];
        let answer = &response.answer;
        let served = !matches!(
            answer,
            Answer::Overloaded { .. } | Answer::Expired { .. } | Answer::Internal { .. }
        );
        tally.op(served);
        if !served {
            return;
        }
        let label = response.label();
        if label != ask.intended {
            tally.check(Err(format!(
                "'{}' labelled {label}, intended {}",
                ask.text, ask.intended
            )));
        }
        if matches!(
            answer,
            Answer::UnknownTenant { .. } | Answer::NoSummary { .. }
        ) {
            tally.check(Err(format!("'{}' answered {answer:?}", ask.text)));
        }
        if self.oracles.is_none() {
            return;
        }
        match self.first.get(&index) {
            Some(first) if first != answer => {
                tally.check(Err(format!("'{}' answered differently twice", ask.text)))
            }
            Some(_) => {}
            None => {
                self.first.insert(index, answer.clone());
            }
        }
    }

    /// Oracle checks of the first answer to each question.
    pub fn finish(self, pool: &[Ask], tally: &mut Tally) {
        let Some(oracles) = self.oracles else { return };
        let mut checked: HashSet<String> = HashSet::new();
        for (index, answer) in &self.first {
            let ask = &pool[*index];
            match answer {
                Answer::Speech { speech, .. }
                    if checked.insert(format!("{}\u{1}{}", ask.tenant, speech.query)) =>
                {
                    let oracle = &oracles[&(ask.tenant.clone(), speech.query.target().to_string())];
                    tally.check(oracle.check_speech(speech));
                }
                Answer::Computed { plan, value, .. } => {
                    let oracle = &oracles[&(ask.tenant.clone(), plan.target().to_string())];
                    tally.check(oracle.check_computed(plan, value));
                }
                _ => {}
            }
        }
    }
}

/// Count the delta batches of a load phase and whether they were accepted.
pub fn check_ingests(run: &LoadRun, tally: &mut Tally) {
    for sample in &run.ingests {
        if let Err(e) = &sample.result {
            eprintln!("ingest batch {} rejected: {e}", sample.batch);
        }
        tally.op(sample.result.is_ok());
    }
}

/// Per (tenant, answer tier): data-access answers and their median
/// latency, printed to standard error to show what a percentile sits on.
pub fn describe_latencies(run: &LoadRun, pool: &[Ask]) {
    let mut groups: std::collections::BTreeMap<(String, String), Vec<f64>> = Default::default();
    for s in run.asks.iter().filter(|s| pool[s.ask].is_data_access()) {
        let key = (pool[s.ask].tenant.clone(), format!("{:?}", s.tier));
        groups.entry(key).or_default().push(s.latency_ms());
    }
    for ((tenant, tier), latencies) in groups {
        eprintln!(
            "  {tenant:14} {tier:12} {:5} answers, median {:.3} ms",
            latencies.len(),
            crate::stats::median(&latencies)
        );
    }
}

/// Latencies (ms, from the intended send time) of the questions of a
/// run that `keep` selects.
pub fn latencies(run: &LoadRun, pool: &[Ask], keep: impl Fn(&Ask) -> bool) -> Vec<f64> {
    run.asks
        .iter()
        .filter(|s| keep(&pool[s.ask]))
        .map(|s| s.latency_ms())
        .collect()
}

/// Data-access answers the open-loop load collects at least, so that
/// their p99 has more than ten samples beyond it.
const MIN_QUERY_SAMPLES: usize = 1150;

/// Seconds the delta stream of a closed-loop load lasts. The stream is a
/// fixed number of batches on its own schedule, so every run attempts the
/// same operations however fast the questions are answered.
const CLOSED_LOOP_STREAM_SECS: f64 = 10.0;

/// One load phase: what ran and the delta batches it could stream.
pub struct Load {
    /// The observed run.
    pub run: LoadRun,
    /// The delta batches, by index.
    pub batches: Vec<(String, Vec<RowDelta>)>,
}

/// Whole rounds of the open-loop load: the workload's share of the
/// run's `seconds` at its rate, and at least [`MIN_QUERY_SAMPLES`]
/// data-access answers.
pub fn open_loop_rounds(workload: &Workload, pool: &[Ask], seconds: f64) -> usize {
    let per_round = pool.iter().filter(|a| a.is_data_access()).count();
    let by_time = (seconds * workload.load_share * workload.rate / pool.len() as f64).ceil();
    (by_time as usize).max(MIN_QUERY_SAMPLES.div_ceil(per_round))
}

/// A load phase: `rounds` whole rounds of `pool` (Poisson at the
/// workload's rate when open loop), with the workload's delta stream, if
/// any, alongside, every answer going through `check`. Delta batches
/// touch distinct rows of the first tenant.
#[allow(clippy::too_many_arguments)]
pub fn load_phase(
    service: &Arc<VoiceService>,
    workload: &Workload,
    pool: &[Ask],
    seed: u64,
    rounds: usize,
    pacing: Pacing,
    check: &mut AnswerCheck<'_>,
    tally: &mut Tally,
) -> Load {
    let mut timeline = Timeline::rounds(workload.rate, rounds, pool.len(), seed ^ 0x10AD);
    let mut batches = Vec::new();
    if let Some(stream) = workload.stream {
        let def = &workload.tenants[0];
        let secs = match pacing {
            Pacing::OpenLoop => timeline.asks.last().map_or(0.0, |(at, _)| at.as_secs_f64()),
            Pacing::ClosedLoop(_) => CLOSED_LOOP_STREAM_SECS,
        };
        let count = (stream.batches_per_sec * secs).ceil() as usize;
        batches = flip_batches(&def.dataset, count, stream.deltas, seed ^ 0x1E)
            .into_iter()
            .map(|b| (def.name.to_string(), b))
            .collect();
        timeline = timeline.with_stream(stream.batches_per_sec, count);
    }
    let frontend = FrontEnd::builder(Arc::clone(service))
        .workers(WORKERS)
        .build();
    let run = loadgen::run(
        &frontend,
        pool,
        &batches,
        &timeline,
        pacing,
        &mut |index, response| check.answer(pool, index, response, tally),
    );
    drop(frontend);
    check_ingests(&run, tally);
    Load { run, batches }
}

/// The materialized table after applying every batch, for the
/// convergence check.
pub fn apply_updates(table: &Table, batches: &[Vec<RowDelta>]) -> Table {
    let mut rows: Vec<Vec<Value>> = table.iter_rows().collect();
    for batch in batches {
        for delta in batch {
            if let RowDelta::Update { row, values } = delta {
                rows[*row] = values.clone();
            }
        }
    }
    Table::from_rows(table.schema().clone(), rows).expect("rows fit the schema")
}

/// Compare a drained store with a cold pre-processing of the final
/// table (the ingest convergence contract).
pub fn check_convergence(
    service: &VoiceService,
    def: &TenantDef,
    final_table: Table,
    tally: &mut Tally,
) {
    let drained = service.drain_ingest(def.name);
    tally.op(drained.is_ok());
    let mut cold_def = def.clone();
    cold_def.dataset.table = final_table;
    cold_def.ingest = None;
    let cold = greedy_service(WORKERS);
    register_all(&cold, std::slice::from_ref(&cold_def), tally);
    let live = service.tenant_store(def.name).expect("registered");
    let fresh = cold.tenant_store(def.name).expect("registered");
    tally.check(same_store(&live, &fresh).map_err(|e| {
        format!(
            "{}: drained store differs from a cold pre-processing: {e}",
            def.name
        )
    }));
    // And the converged store is right by the oracle.
    let oracles = oracles(std::slice::from_ref(&cold_def));
    check_stores(&cold, std::slice::from_ref(&cold_def), &oracles, tally);
}

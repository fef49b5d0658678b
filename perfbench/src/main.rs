//! The repository benchmark of the vqs voice-query system.
//!
//! Usage:
//!
//! ```text
//! vqs-perfbench --workload <deployment_mix|batch_preprocess|ingest_mix>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It drives the system only through the public APIs of `vqs-engine`,
//! `vqs-core` and `vqs-data`, checks every answer against a table-scan
//! oracle, and prints one JSON object as the last line of standard
//! output: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no
//! tracing; with `--trace 1` they are the per-layer ones of a traced run
//! (see `layers.rs`). Progress goes to standard error.

mod layers;
mod loadgen;
mod oracle;
mod run;
mod stats;
mod trace;
mod workload;

use crate::loadgen::Pacing;
use crate::run::Tally;
use crate::stats::median;
use std::time::Instant;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; known: {}",
            workload::NAMES.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(20.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Collected metrics, in report order.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Add one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// Peak resident memory of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// A memory figure of `/proc/self/status` in MB.
fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn report(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Questions kept outstanding by the closed-loop throughput phase: deep
/// enough that the serving workers never wait for the generator between
/// two of its passes.
const THROUGHPUT_WINDOW: usize = 64;

/// Log the start of a phase with the run's elapsed time and memory.
fn phase(workload: &str, start: Instant, what: &str) {
    eprintln!(
        "[{workload} {:6.1}s] {what} (rss {:.1} MB, peak {:.1} MB)",
        start.elapsed().as_secs_f64(),
        status_mb("VmRSS:"),
        peak_rss_mb()
    );
}

/// The untraced run: every end-to-end metric.
fn end_to_end(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let seed = args.seed;
    let start = Instant::now();
    phase(&args.workload, start, "set-up x3");
    let mut setup_walls = Vec::new();
    let mut greedy_walls = Vec::new();
    let mut setup = None;
    for _ in 0..3 {
        // Free the previous service before building the next one.
        drop(setup.take());
        let s = run::setup(&args.workload, seed, tally);
        setup_walls.push(s.total.as_secs_f64());
        greedy_walls.push(s.register.as_secs_f64());
        setup = Some(s);
    }
    let setup = setup.expect("set up");
    let workload = &setup.workload;
    let oracles = run::oracles(&workload.tenants);

    phase(&args.workload, start, "pre-processing");
    let (exact_walls, exact) = run::preprocess_phase(workload, &mut greedy_walls, tally);
    for def in &workload.tenants {
        let greedy = setup.service.tenant_store(def.name).expect("registered");
        let exact = exact.tenant_store(def.name).expect("registered");
        run::check_exact_dominates(&greedy, &exact, def.name, tally);
    }
    run::check_stores(&exact, &workload.tenants, &oracles, tally);
    drop(exact);
    run::check_stores(&setup.service, &workload.tenants, &oracles, tally);
    if workload.check_worker_parity {
        phase(&args.workload, start, "worker parity");
        let single = run::greedy_service(1);
        run::register_all(&single, &workload.tenants, tally);
        for def in &workload.tenants {
            let one = single.tenant_store(def.name).expect("registered");
            let many = setup.service.tenant_store(def.name).expect("registered");
            tally.check(run::same_store(&one, &many).map_err(|e| {
                format!(
                    "{}: stores differ between 1 and {} workers: {e}",
                    def.name,
                    workload::WORKERS
                )
            }));
        }
    }

    phase(&args.workload, start, "flushes");
    let flushes = run::flush_phase(workload, seed, None, tally);

    phase(&args.workload, start, "throughput");
    let pool = run::traffic(workload, seed);
    // Answers are oracle-checked against data that did not change while
    // they were served; under ingest, the converged store is checked
    // instead.
    let mut check = run::AnswerCheck::new(workload.stream.is_none().then_some(&oracles));
    let load = run::load_phase(
        &setup.service,
        workload,
        &pool,
        seed,
        workload.throughput_rounds,
        Pacing::ClosedLoop(THROUGHPUT_WINDOW),
        &mut check,
        tally,
    );
    check.finish(&pool, tally);
    let qps = load.run.answered as f64 / load.run.elapsed.as_secs_f64();
    if workload.stream.is_some() {
        phase(&args.workload, start, "convergence");
        let def = &workload.tenants[0];
        let applied: Vec<_> = load
            .run
            .ingests
            .iter()
            .map(|s| load.batches[s.batch].1.clone())
            .collect();
        let final_table = run::apply_updates(&def.dataset.table, &applied);
        run::check_convergence(&setup.service, def, final_table, tally);
    }

    let mut metrics = Metrics::default();
    metrics.push("serve_qps", qps, "1/s");
    metrics.push("preprocess_s", median(&greedy_walls), "s");
    metrics.push("preprocess_exact_s", median(&exact_walls), "s");
    metrics.push("flush_s", median(&flushes.walls), "s");
    metrics.push("setup_s", median(&setup_walls), "s");
    metrics.push("peak_rss_mb", peak_rss_mb(), "MB");
    phase(&args.workload, start, "done");
    eprintln!(
        "[{}] {} questions and {} delta batches in {:?}",
        args.workload,
        load.run.answered,
        load.run.ingests.len(),
        load.run.elapsed
    );
    Ok(metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vqs-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let outcome = if args.trace {
        layers::traced(&args.workload, args.seed, args.seconds, &mut tally)
    } else {
        end_to_end(&args, &mut tally)
    };
    match outcome {
        Ok(metrics) => {
            let correct = tally.check_failures.is_empty();
            println!("{}", report(correct, &tally, &metrics));
        }
        Err(e) => {
            eprintln!("vqs-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

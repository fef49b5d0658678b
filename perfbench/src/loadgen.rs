//! Open-loop load generation with per-ticket completion stamps.
//!
//! One generator thread both sends and collects. Each request is sent at
//! its *intended* instant on a timeline fixed before the run, never in
//! reaction to the server, and its latency is measured from that
//! intended instant, so queueing a slow server causes is charged to the
//! server (no coordinated omission).
//!
//! Completions are stamped independently of one another: every pass of
//! the loop checks *all* outstanding tickets (a lock-free readiness
//! read) and stamps each one the first time it is seen ready. A fast
//! answer therefore never inherits the completion time of a slower
//! request sent before it, which is what happens to a collector that
//! waits on tickets in FIFO order. A ticket completing just after a pass
//! is stamped at the next pass, so the stamping error is bounded by the
//! longest gap between two passes, reported as [`LoadRun::stamp_error`].

use std::time::{Duration, Instant};

use crate::run::Tier;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use vqs_engine::prelude::{
    EngineError, FrontEnd, IngestReport, IngestTicket, ResponseTicket, RowDelta, ServiceRequest,
    ServiceResponse,
};

/// Longest the generator sleeps between two passes over its tickets.
const POLL: Duration = Duration::from_micros(100);

/// One question of the traffic pool.
#[derive(Debug, Clone)]
pub struct Ask {
    /// Tenant the question addresses.
    pub tenant: String,
    /// The utterance.
    pub text: String,
    /// Table III label the generator intended.
    pub intended: &'static str,
}

impl Ask {
    /// Data-access questions (supported or not) are the population of
    /// the `query_*` metrics.
    pub fn is_data_access(&self) -> bool {
        matches!(self.intended, "S-Query" | "U-Query")
    }

    /// Supported data-access questions: the store's own query shapes.
    pub fn is_supported(&self) -> bool {
        self.intended == "S-Query"
    }
}

/// A fixed timeline of questions and delta batches, as offsets from the
/// run's origin.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// `(intended offset, pool index)` of each question, in send order.
    pub asks: Vec<(Duration, usize)>,
    /// `(intended offset, batch index)` of each delta batch, in order.
    pub ingests: Vec<(Duration, usize)>,
}

impl Timeline {
    /// `rounds` whole rounds over a pool of `pool_len` questions, each
    /// round in its own seeded order, arriving as a Poisson process at
    /// `rate` per second. Whole rounds keep the question mix of every
    /// run exact.
    pub fn rounds(rate: f64, rounds: usize, pool_len: usize, seed: u64) -> Timeline {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut timeline = Timeline::default();
        let mut at = 0.0f64;
        for _ in 0..rounds {
            let mut order: Vec<usize> = (0..pool_len).collect();
            order.shuffle(&mut rng);
            for ask in order {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                at += -u.ln() / rate;
                timeline.asks.push((Duration::from_secs_f64(at), ask));
            }
        }
        timeline
    }

    /// Add `batches` delta batches, evenly spaced at `per_sec`.
    pub fn with_stream(mut self, per_sec: f64, batches: usize) -> Timeline {
        self.ingests = (0..batches)
            .map(|i| (Duration::from_secs_f64((i as f64 + 0.5) / per_sec), i))
            .collect();
        self
    }
}

/// How questions are sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Each question at its intended instant, whatever is outstanding;
    /// latency counts from the intended instant.
    OpenLoop,
    /// Keep this many questions outstanding, sending the next one as soon
    /// as one completes (the timeline's question instants are ignored;
    /// delta batches still follow theirs). Measures throughput.
    ClosedLoop(usize),
}

/// One answered question.
#[derive(Debug, Clone)]
pub struct AskSample {
    /// Index into the question pool.
    pub ask: usize,
    /// Intended send instant.
    pub intended: Instant,
    /// Actual send instant.
    pub sent: Instant,
    /// Completion stamp.
    pub done: Instant,
    /// The response's own `latency_micros`.
    pub latency_micros: u64,
    /// The answer tier.
    pub tier: Tier,
}

impl AskSample {
    /// Latency from the intended send time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.intended).as_secs_f64() * 1e3
    }

    /// Time the request waited outside the service's own respond call:
    /// completion − submission − the response's `latency_micros`.
    pub fn wait_us(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e6 - self.latency_micros as f64
    }
}

/// One submitted delta batch.
#[derive(Debug)]
pub struct IngestSample {
    /// Index of the batch.
    pub batch: usize,
    /// What the service returned.
    pub result: Result<IngestReport, EngineError>,
}

/// Everything one run observed.
#[derive(Debug)]
pub struct LoadRun {
    /// Questions answered.
    pub answered: usize,
    /// Each answered question, in send order (open loop only; a closed
    /// loop measures throughput and keeps no samples).
    pub asks: Vec<AskSample>,
    /// Submitted batches, in send order.
    pub ingests: Vec<IngestSample>,
    /// Worst lag of an actual send behind its intended instant.
    pub send_lag_max: Duration,
    /// Longest gap between two passes over the outstanding tickets: the
    /// bound on every completion stamp's error.
    pub stamp_error: Duration,
    /// From the run's start to the last question's completion.
    pub elapsed: Duration,
}

enum Pending {
    Ask {
        index: usize,
        ask: usize,
        intended: Instant,
        sent: Instant,
        ticket: ResponseTicket,
    },
    Ingest {
        index: usize,
        batch: usize,
        ticket: IngestTicket,
    },
}

impl Pending {
    fn is_ready(&self) -> bool {
        match self {
            Pending::Ask { ticket, .. } => ticket.is_ready(),
            Pending::Ingest { ticket, .. } => ticket.is_ready(),
        }
    }
}

/// Drive `timeline` through `frontend`, handing every response to
/// `on_answer` with its question's pool index as it completes. The run
/// ends when every question and every delta batch has completed.
pub fn run(
    frontend: &FrontEnd,
    pool: &[Ask],
    batches: &[(String, Vec<RowDelta>)],
    timeline: &Timeline,
    pacing: Pacing,
    on_answer: &mut dyn FnMut(usize, &ServiceResponse),
) -> LoadRun {
    let n = timeline.asks.len();
    let origin = Instant::now() + Duration::from_millis(2);
    let mut asks: Vec<Option<AskSample>> = Vec::with_capacity(n);
    let mut ingests: Vec<Option<IngestSample>> = Vec::new();
    let mut pending: Vec<Pending> = Vec::new();
    let mut next = 0;
    let mut next_ingest = 0;
    let mut outstanding = 0;
    let mut answered = 0;
    let mut send_lag_max = Duration::ZERO;
    let mut stamp_error = Duration::ZERO;
    let mut last_pass: Option<Instant> = None;
    let start = Instant::now();
    let mut last_answer = start;
    loop {
        let now = Instant::now();
        while next_ingest < timeline.ingests.len() {
            let (at, batch) = timeline.ingests[next_ingest];
            if origin + at > now {
                break;
            }
            let (tenant, deltas) = &batches[batch];
            let ticket = frontend.submit_ingest(tenant.as_str(), deltas.clone());
            pending.push(Pending::Ingest {
                index: ingests.len(),
                batch,
                ticket,
            });
            ingests.push(None);
            next_ingest += 1;
        }
        while next < n {
            let (at, ask) = timeline.asks[next];
            let due = match pacing {
                Pacing::OpenLoop => origin + at <= now,
                Pacing::ClosedLoop(window) => outstanding < window,
            };
            if !due {
                break;
            }
            let sent = Instant::now();
            let intended = match pacing {
                Pacing::OpenLoop => origin + at,
                Pacing::ClosedLoop(_) => sent,
            };
            send_lag_max = send_lag_max.max(sent.saturating_duration_since(intended));
            let question = &pool[ask];
            let ticket = frontend.submit(ServiceRequest::new(
                question.tenant.as_str(),
                question.text.as_str(),
            ));
            pending.push(Pending::Ask {
                index: asks.len(),
                ask,
                intended,
                sent,
                ticket,
            });
            if pacing == Pacing::OpenLoop {
                asks.push(None);
            }
            outstanding += 1;
            next += 1;
        }
        let pass = Instant::now();
        if let Some(previous) = last_pass {
            stamp_error = stamp_error.max(pass - previous);
        }
        last_pass = Some(pass);
        let mut i = 0;
        while i < pending.len() {
            if !pending[i].is_ready() {
                i += 1;
                continue;
            }
            match pending.swap_remove(i) {
                Pending::Ask {
                    index,
                    ask,
                    intended,
                    sent,
                    ticket,
                } => {
                    outstanding -= 1;
                    answered += 1;
                    last_answer = pass;
                    let response = ticket.into_inner();
                    on_answer(ask, &response);
                    if pacing == Pacing::OpenLoop {
                        asks[index] = Some(AskSample {
                            ask,
                            intended,
                            sent,
                            done: pass,
                            latency_micros: response.latency_micros,
                            tier: Tier::of(&response.answer),
                        });
                    }
                }
                Pending::Ingest {
                    index,
                    batch,
                    ticket,
                } => {
                    ingests[index] = Some(IngestSample {
                        batch,
                        result: ticket.into_inner(),
                    });
                }
            }
        }
        if next == n && next_ingest == timeline.ingests.len() && pending.is_empty() {
            break;
        }
        let now = Instant::now();
        let mut wake = now + POLL;
        if next < n && pacing == Pacing::OpenLoop {
            wake = wake.min(origin + timeline.asks[next].0);
        }
        if let Some((at, _)) = timeline.ingests.get(next_ingest) {
            wake = wake.min(origin + *at);
        }
        if wake > now {
            std::thread::sleep(wake - now);
        }
    }
    LoadRun {
        answered,
        asks: asks
            .into_iter()
            .map(|s| s.expect("every ask completed"))
            .collect(),
        ingests: ingests
            .into_iter()
            .map(|s| s.expect("every batch completed"))
            .collect(),
        send_lag_max,
        stamp_error,
        elapsed: last_answer - start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vqs_data::{DimSpec, SynthSpec, TargetSpec};
    use vqs_engine::prelude::{
        Configuration, Fault, FaultPlan, FaultSite, ServiceBuilder, TenantSpec,
    };

    /// A slow request must not inflate the latency of fast requests sent
    /// after it that finish before it. With two serving workers, the
    /// first request sleeps 300 ms on one worker while the other worker
    /// answers the rest in microseconds.
    #[test]
    fn slow_request_does_not_delay_later_fast_completions() {
        let data = SynthSpec {
            name: "demo".into(),
            dims: vec![DimSpec::named("season", &["Winter", "Summer"])],
            targets: vec![TargetSpec::new("delay", 15.0, 6.0, 2.0, (0.0, 60.0))],
            rows: 200,
        }
        .generate(1, 1.0);
        // Every 1000th respond draw sleeps; the first draw is number 0,
        // so warm the counter up to the 999th draw with direct calls.
        let faults = Arc::new(FaultPlan::new(1).rule_every(
            FaultSite::Respond,
            Fault::Latency(Duration::from_millis(300)),
            1000,
        ));
        let service = Arc::new(
            ServiceBuilder::new()
                .workers(1)
                .fault_plan(Arc::clone(&faults))
                .build(),
        );
        service
            .register_dataset(TenantSpec::new(
                "demo",
                data,
                Configuration::new("demo", &["season"], &["delay"]),
            ))
            .unwrap();
        faults.arm();
        for _ in 0..999 {
            service.respond(&ServiceRequest::new("demo", "delay in Winter?"));
        }
        let frontend = FrontEnd::builder(Arc::clone(&service)).workers(2).build();
        let pool = vec![Ask {
            tenant: "demo".into(),
            text: "delay in Winter?".into(),
            intended: "S-Query",
        }];
        let timeline = Timeline {
            asks: (0..20).map(|i| (Duration::from_millis(5 * i), 0)).collect(),
            ingests: Vec::new(),
        };
        let run = run(
            &frontend,
            &pool,
            &[],
            &timeline,
            Pacing::OpenLoop,
            &mut |_, _| {},
        );
        assert!(
            run.asks[0].latency_ms() >= 300.0,
            "the first request is the slow one"
        );
        // A FIFO collector would stamp every later request at or after
        // the slow one's completion (≥ 300 ms minus its send offset).
        for sample in &run.asks[1..] {
            assert!(
                sample.latency_ms() < 100.0,
                "fast request charged {} ms",
                sample.latency_ms()
            );
        }
        assert!(run.stamp_error < Duration::from_millis(100));
    }

    #[test]
    fn timelines_are_seeded_whole_rounds() {
        let a = Timeline::rounds(100.0, 3, 7, 3);
        let b = Timeline::rounds(100.0, 3, 7, 3);
        assert_eq!(a.asks, b.asks);
        let mut asked = [0; 7];
        for (_, i) in &a.asks {
            asked[*i] += 1;
        }
        assert_eq!(asked, [3; 7]);
        assert!(a.asks.windows(2).all(|w| w[0].0 <= w[1].0));
        let with = a.with_stream(10.0, 10);
        assert_eq!(
            with.ingests.last().map(|(at, _)| *at),
            Some(Duration::from_millis(950))
        );
        assert!(with.ingests.windows(2).all(|w| w[0].0 < w[1].0));
    }
}

//! Benchmark tool for the gcs workspace, called by `perfbench/run.py`.
//!
//! ```text
//! perfbench run --topology T --algo A --eps E --t T --delays D --rates R
//!               --horizon H --seed S [--trace-seconds X]
//! perfbench chaos FILE.chaos [--trace-seconds X]
//! perfbench sweep SPEC --csv OUT [--jobs N] [--trace-seconds X]
//! perfbench loadgen --addr HOST:PORT --seed S --seconds X --clients C --cold-rate R
//! perfbench serve-layers --seed S --dump-dir DIR
//! ```
//!
//! The simulation commands first run a reference execution (engine
//! profiling on for exact counts, spans off) and print its statistics.
//! With `--trace-seconds` they then repeat the execution for at least that
//! long, alternating traced (spans on) and untraced repetitions, and add
//! the span totals and both wall times. Every command prints
//! one JSON object on stdout.

mod json;
mod serve;
mod spans;
mod stacks;

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gcs_sweep::{report, run_pool_timed, DedupePlan, JobOutcome, SweepSpec};

use json::Obj;
use spans::{Span, Totals};
use stacks::{Counts, RunInput, SimOutcome};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `--key value` options after an optional positional argument.
struct Opts {
    positional: Option<String>,
    values: HashMap<String, String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let (positional, rest) = match args.split_first() {
            Some((first, rest)) if !first.starts_with("--") => (Some(first.clone()), rest),
            _ => (None, args),
        };
        let mut values = HashMap::new();
        let mut iter = rest.iter();
        while let Some(key) = iter.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected an option, got `{key}`"))?;
            let value = iter
                .next()
                .ok_or_else(|| format!("option `{key}` needs a value"))?;
            values.insert(name.to_string(), value.clone());
        }
        Ok(Opts { positional, values })
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let text = self.str(key)?;
        text.parse()
            .map_err(|_| format!("--{key}: `{text}` is not a number"))
    }

    fn trace_seconds(&self) -> Result<Option<f64>, String> {
        self.values
            .contains_key("trace-seconds")
            .then(|| self.num("trace-seconds"))
            .transpose()
    }

    fn file(&self) -> Result<String, String> {
        let path = self.positional.as_deref().ok_or("missing input file")?;
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    }
}

fn dispatch(args: &[String]) -> Result<String, String> {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    let opts = Opts::parse(rest)?;
    match command.as_str() {
        "run" => {
            let input = RunInput {
                topology: opts.str("topology")?.to_string(),
                algo: opts.str("algo")?.to_string(),
                eps: opts.num("eps")?,
                t: opts.num("t")?,
                delays: opts.str("delays")?.to_string(),
                rates: opts.str("rates")?.to_string(),
                horizon: opts.num("horizon")?,
                seed: opts.num("seed")?,
            };
            sim_command(opts.trace_seconds()?, |profiling| {
                stacks::run_cli(&input, profiling)
            })
        }
        "chaos" => {
            let spec = gcs_chaos::ChaosSpec::parse(&opts.file()?)?;
            sim_command(opts.trace_seconds()?, |profiling| {
                stacks::run_chaos(&spec, profiling)
            })
        }
        "sweep" => sweep_command(&opts),
        "loadgen" => Ok(serve::loadgen(
            opts.str("addr")?,
            opts.num("seed")?,
            opts.num("seconds")?,
            opts.num("clients")?,
            opts.num("cold-rate")?,
        )),
        "serve-layers" => serve::layers(opts.num("seed")?, opts.str("dump-dir")?),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn counts_json(o: &mut Obj, counts: &Counts) {
    o.int("events", counts.events);
    o.int("stale", counts.stale);
    o.int("snapshots", counts.snapshots);
    o.int("protocol_calls", counts.protocol_calls);
    o.int("delay_calls", counts.delay_calls);
}

fn outcome_json(out: &SimOutcome) -> Obj {
    let mut o = Obj::new();
    o.int("nodes", out.nodes as u64);
    o.int("diameter", u64::from(out.diameter));
    o.num("horizon", out.horizon);
    // The CLI prints skews and bounds rounded to 6 places.
    o.str("global_skew_6", &format!("{:.6}", out.global_skew));
    o.str("local_skew_6", &format!("{:.6}", out.local_skew));
    o.str("global_bound_6", &format!("{:.6}", out.global_bound));
    o.str("local_bound_6", &format!("{:.6}", out.local_bound));
    o.str(
        "global_skew_bits",
        &format!("{:016x}", out.global_skew.to_bits()),
    );
    o.str(
        "local_skew_bits",
        &format!("{:016x}", out.local_skew.to_bits()),
    );
    o.num("global_skew", out.global_skew);
    o.num("local_skew", out.local_skew);
    o.num("global_bound", out.global_bound);
    o.num("local_bound", out.local_bound);
    let s = &out.stats;
    o.int("send_events", s.send_events);
    o.int("transmissions", s.transmissions);
    o.int("deliveries", s.deliveries);
    o.int("dropped", s.dropped);
    o.int("dropped_model", s.dropped_model);
    o.int("dropped_faults", s.dropped_faults);
    o.int("duplicated", s.duplicated);
    counts_json(&mut o, &out.counts);
    match &out.violation {
        None => o.str("verdict", "clean"),
        Some((kind, node, t)) => o.str(
            "verdict",
            &format!(
                "{} violation {kind} node {node} t {t}",
                if out.violation_expected {
                    "expected"
                } else {
                    "unexpected"
                }
            ),
        ),
    }
    o
}

/// The per-layer span table: calls and estimated seconds per span.
fn spans_json(totals: &Totals) -> Obj {
    const ALL: [(&str, Span); spans::COUNT] = [
        ("graph_build", Span::GraphBuild),
        ("sweep_build", Span::SweepBuild),
        ("engine_build", Span::EngineBuild),
        ("sim_run", Span::SimRun),
        ("delay", Span::Delay),
        ("recorder", Span::Recorder),
        ("proto_aopt", Span::ProtoAopt),
        ("proto_mingap", Span::ProtoMingap),
        ("proto_envelope", Span::ProtoEnvelope),
        ("proto_jump", Span::ProtoJump),
        ("skew_observer", Span::SkewObserver),
        ("metrics_sink", Span::MetricsSink),
        ("watchdog", Span::Watchdog),
        ("watchdog_record", Span::WatchdogRecord),
        ("watchdog_new", Span::WatchdogNew),
        ("observers_new", Span::ObserversNew),
        ("chaos_delay", Span::ChaosDelay),
        ("chaos_setup", Span::ChaosSetup),
    ];
    let mut o = Obj::new();
    for (name, span) in ALL {
        let mut s = Obj::new();
        s.int("calls", totals.calls(span));
        s.num("secs", totals.secs(span));
        o.obj(name, s);
    }
    o
}

/// Reference execution, then (optionally) traced repetitions, each paired
/// with the same execution untraced, for the tracing overhead.
fn sim_command(
    trace_seconds: Option<f64>,
    exec: impl Fn(bool) -> Result<SimOutcome, String>,
) -> Result<String, String> {
    let reference = exec(true)?;
    let mut out = Obj::new();
    out.obj("reference", outcome_json(&reference));
    if let Some(seconds) = trace_seconds {
        spans::calibrate();
        let mut totals = Totals::default();
        let started = Instant::now();
        let (mut traced_s, mut untraced_s) = (0.0, 0.0);
        let mut reps = 0u64;
        let mut traced = None;
        while reps == 0 || started.elapsed().as_secs_f64() < seconds {
            // Which of the pair runs first alternates, so neither mode
            // always finds the caches the other left.
            let first = reps.is_multiple_of(2);
            for on in [first, !first] {
                spans::set_tracing(on);
                let rep = Instant::now();
                let outcome = exec(false)?;
                let rep_s = rep.elapsed().as_secs_f64();
                if on {
                    traced_s += rep_s;
                    traced = Some(outcome);
                } else {
                    untraced_s += rep_s;
                }
            }
            reps += 1;
        }
        spans::set_tracing(false);
        let traced = traced.expect("at least one repetition");
        totals.drain_thread();
        out.obj("traced", outcome_json(&traced));
        out.int("reps", reps);
        out.num("traced_wall_s", traced_s);
        out.num("untraced_wall_s", untraced_s);
        out.obj("spans", spans_json(&totals));
    }
    Ok(out.render())
}

fn sweep_command(opts: &Opts) -> Result<String, String> {
    let text = opts.file()?;
    let csv_path = opts.str("csv")?;
    let plan_sweep = || -> Result<_, String> {
        let spec = SweepSpec::parse_str(&text)?;
        spec.validate()?;
        let jobs = spec.expand();
        let plan = DedupePlan::new(&jobs);
        Ok((jobs, plan))
    };
    let (jobs, _) = plan_sweep()?;
    let mut csv = format!("{}\n", report::CSV_HEADER);
    let mut counts = Counts::default();
    let mut failed = 0u64;
    let mut sums = [0u64; 4];
    for job in &jobs {
        let outcome = match stacks::run_job(job, true) {
            Ok((result, c)) => {
                counts.add(&c);
                for (sum, x) in sums.iter_mut().zip([
                    result.send_events,
                    result.deliveries,
                    result.dropped_faults,
                    result.duplicated,
                ]) {
                    *sum += x;
                }
                JobOutcome::Completed(result)
            }
            Err(e) => {
                failed += 1;
                JobOutcome::Failed(e)
            }
        };
        csv.push_str(&report::csv_row(job, &outcome));
        csv.push('\n');
    }
    std::fs::write(csv_path, &csv).map_err(|e| format!("cannot write {csv_path}: {e}"))?;
    let mut reference = Obj::new();
    reference.int("jobs", jobs.len() as u64);
    reference.int("failed", failed);
    for (key, sum) in ["send_events", "deliveries", "dropped_faults", "duplicated"]
        .iter()
        .zip(sums)
    {
        reference.int(key, sum);
    }
    counts_json(&mut reference, &counts);
    let mut out = Obj::new();
    out.obj("reference", reference);

    let Some(seconds) = opts.trace_seconds()? else {
        return Ok(out.render());
    };
    let workers: usize = opts.num("jobs")?;
    spans::calibrate();
    let totals = Mutex::new(Totals::default());
    let mut job_s = Vec::new();
    let (mut pool_wall, mut busy, mut plan_s, mut render_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let mut rows = 0u64;
    let mut reps = 0u64;
    let mut traced_csv = None;
    let started = Instant::now();
    while reps == 0 || started.elapsed().as_secs_f64() < seconds {
        // A traced and an untraced repetition, in alternating order.
        let first = reps.is_multiple_of(2);
        for traced in [first, !first] {
            spans::set_tracing(traced);
            let rep = Instant::now();
            let (jobs, plan) = plan_sweep()?;
            let planned_s = rep.elapsed().as_secs_f64();
            let unique = plan.unique();
            let mut rendered = format!("{}\n", report::CSV_HEADER);
            let mut done: Vec<Option<JobOutcome<gcs_sweep::JobResult>>> = vec![None; unique.len()];
            let mut watermark = 0;
            let mut rep_render_s = 0.0;
            let (_, stats) = run_pool_timed(
                unique.len(),
                workers,
                |u| {
                    let result = stacks::run_job(&jobs[unique[u]], false).map(|(r, _)| r);
                    totals
                        .lock()
                        .expect("no worker panics holding the totals")
                        .drain_thread();
                    result
                },
                |u, outcome| {
                    done[u] = Some(outcome.clone());
                    // Rows leave in original job order, as in `gcs sweep`.
                    while watermark < jobs.len() && plan.rep_of(watermark) <= u {
                        let ready = done[plan.rep_of(watermark)]
                            .as_ref()
                            .expect("representative emitted before its duplicates");
                        let row_started = Instant::now();
                        let row = report::csv_row(&jobs[watermark], ready);
                        rep_render_s += row_started.elapsed().as_secs_f64();
                        rendered.push_str(&row);
                        rendered.push('\n');
                        watermark += 1;
                    }
                },
                None::<fn(gcs_sweep::PoolProgress)>,
            );
            let rep_s = rep.elapsed().as_secs_f64();
            if !traced {
                untraced_s += rep_s;
                continue;
            }
            traced_s += rep_s;
            plan_s += planned_s;
            render_s += rep_render_s;
            rows += watermark as u64;
            pool_wall += stats.wall.as_secs_f64();
            busy += stats.busy().as_secs_f64();
            job_s.extend(stats.job_wall.iter().map(Duration::as_secs_f64));
            traced_csv.get_or_insert(rendered);
        }
        reps += 1;
    }
    spans::set_tracing(false);
    let traced_path = format!("{csv_path}.traced");
    let traced_csv = traced_csv.expect("at least one repetition");
    std::fs::write(&traced_path, traced_csv)
        .map_err(|e| format!("cannot write {traced_path}: {e}"))?;
    let mut totals = totals.into_inner().expect("workers joined");
    totals.drain_thread();
    out.int("reps", reps);
    out.int("workers", workers as u64);
    out.num("traced_wall_s", traced_s);
    out.num("untraced_wall_s", untraced_s);
    out.num("pool_wall_s", pool_wall);
    out.num("busy_s", busy);
    out.num("plan_s", plan_s);
    out.num("row_render_s", render_s);
    out.int("rows", rows);
    out.list("job_s", &job_s);
    out.str("traced_csv", &traced_path);
    out.obj("spans", spans_json(&totals));
    Ok(out.render())
}

//! The `serve_jobs` workload: an in-process `bo3-serve` daemon driven as a
//! closed loop — each client submits a job on its one connection, streams
//! it to `Done`, then submits the next.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use bo3_core::prelude::*;
use bo3_serve::{Client, Service, ServiceConfig, ServiceHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::to_consensus;
use crate::{derive_seed, median, tail, Check, Checks, Metrics, DELTA};

/// Daemon workers and client connections, sized for a 2-vCPU host.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Seeds per job shape: the mix has `3 × JOB_SEEDS` distinct jobs, which
/// the clients cycle through.
const JOB_SEEDS: u64 = 4;
const REPLICAS: usize = 2;
/// Set-up repetitions, before and again after the timed window; `setup_s`
/// is the median of all of them.
const SETUP_REPS: usize = 10;
/// In-process and served repetitions of a per-layer probe job.
pub const PROBE_REPS: usize = 3;

/// Size and edge probability of the mix's `G(n, p)` job, whose shape the
/// per-layer engine rows of this workload use.
pub const LAYER_N: usize = 20_000;
pub const LAYER_P: f64 = 0.2;

/// The job mix: `K_n`, `G(n, 0.2)` and `K_{a,b}` at 2–3·10⁴ vertices,
/// each under [`JOB_SEEDS`] seeds derived from the workload seed.
pub fn job_mix(seed: u64) -> Vec<Experiment> {
    let shapes = [
        ("complete", TopologySpec::Complete { n: 30_000 }),
        (
            "gnp",
            TopologySpec::ImplicitGnp {
                n: LAYER_N,
                p: LAYER_P,
            },
        ),
        (
            "bipartite",
            TopologySpec::CompleteBipartite {
                a: 10_000,
                b: 10_000,
            },
        ),
    ];
    let mut jobs = Vec::new();
    for _ in 0..JOB_SEEDS {
        for (tag, spec) in &shapes {
            jobs.push(job(spec.clone(), tag, derive_seed(seed, jobs.len() as u64)));
        }
    }
    jobs
}

/// One served experiment: Best-of-Three from `Bernoulli(1/2 − δ)`,
/// synchronous, to consensus.
pub fn job(spec: TopologySpec, tag: &str, seed: u64) -> Experiment {
    Experiment::on(spec)
        .named(format!("perfbench/{tag}/{seed:x}"))
        .initial(InitialCondition::BernoulliWithBias { delta: DELTA })
        .stopping(to_consensus())
        .replicas(REPLICAS)
        .seed(seed)
        .threads(1)
}

/// The in-process report of a job and how long `Experiment::run` took.
pub struct Reference {
    pub report: MonteCarloReport,
    pub run_ms: f64,
}

/// Runs every job in process `reps` times — the reports the served ones
/// must equal, and the median in-process wall time.  Repeated runs of a
/// job must give the same report.  Callers run this before any timed
/// window, so the check never competes with the jobs it checks.
pub fn references(jobs: &[Experiment], reps: usize, checks: &mut Checks) -> Result<Vec<Reference>> {
    let mut refs = Vec::with_capacity(jobs.len());
    for job in jobs {
        let mut walls = Vec::with_capacity(reps);
        let mut report: Option<MonteCarloReport> = None;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let again = job.run()?.report;
            walls.push(t0.elapsed().as_secs_f64() * 1e3);
            if let Some(first) = &report {
                let same = if *first == again {
                    Ok(())
                } else {
                    Err(format!("{} gave two different reports", job.name))
                };
                checks.record("in-process report repeats", same);
            }
            report.get_or_insert(again);
        }
        refs.push(Reference {
            report: report.expect("at least one run"),
            run_ms: median(&walls),
        });
    }
    Ok(refs)
}

/// Starts the daemon: 2 workers, one round per slice so every round
/// streams an update.
pub fn start_daemon() -> Result<ServiceHandle> {
    Ok(Service::start(ServiceConfig {
        workers: WORKERS,
        rounds_per_slice: 1,
        ..ServiceConfig::default()
    })?)
}

/// One served job as its client saw it.
pub struct Served {
    pub idx: usize,
    pub latency_ms: f64,
    pub first_update_ms: f64,
    pub gaps_ms: Vec<f64>,
    /// Vertex updates the job performed (Σ replicas rounds × n).
    pub updates: f64,
    /// The streamed responses, kept only when asked for.
    pub lines: Vec<Response>,
}

/// Submits `experiment`, streams it to a terminal response, and checks
/// that it is `Done` with a report equal to `reference` and red consensus
/// in every replica.  A job that ends otherwise is a failed check and has
/// no [`Served`]; `Err` is left for transport failures.
fn serve_one(
    client: &mut Client,
    handle: &ServiceHandle,
    idx: usize,
    experiment: &Experiment,
    reference: &MonteCarloReport,
    keep_lines: bool,
    max_depth: &mut i64,
) -> Result<(Option<Served>, Check)> {
    let depth = &handle.metrics().queue_depth;
    let t0 = Instant::now();
    let job = client.submit(experiment)?;
    client.send(&Request::Stream { job })?;
    let mut first = None;
    let mut last = None;
    let mut gaps_ms = Vec::new();
    let mut lines = Vec::new();
    let result = loop {
        *max_depth = (*max_depth).max(depth.get());
        let response = client.recv()?;
        let now = Instant::now();
        if keep_lines {
            lines.push(response.clone());
        }
        match response {
            Response::Update(_) => {
                first.get_or_insert(now);
                if let Some(prev) = last.replace(now) {
                    gaps_ms.push(now.duration_since(prev).as_secs_f64() * 1e3);
                }
            }
            Response::Done { result, .. } => break result,
            other => {
                let why = format!(
                    "{} (job {job}) ended with {}",
                    experiment.name,
                    other.to_json_string()
                );
                return Ok((None, Err(why)));
            }
        }
    };
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let first_update_ms = first.map_or(latency_ms, |f| f.duration_since(t0).as_secs_f64() * 1e3);
    let check = if result.report != *reference {
        Err(format!(
            "served report of {} != in-process report",
            experiment.name
        ))
    } else if let Some(o) = result
        .report
        .outcomes
        .iter()
        .find(|o| o.winner != Some(Opinion::Red))
    {
        Err(format!(
            "{} replica {} ended {:?} after {} rounds",
            experiment.name, o.replica, o.winner, o.rounds
        ))
    } else {
        Ok(())
    };
    let updates = result
        .report
        .outcomes
        .iter()
        .map(|o| o.rounds as f64 * result.n as f64)
        .sum();
    Ok((
        Some(Served {
            idx,
            latency_ms,
            first_update_ms,
            gaps_ms,
            updates,
            lines,
        }),
        check,
    ))
}

/// What a closed loop observed.
pub struct Loop {
    pub served: Vec<Served>,
    pub wall_s: f64,
    pub max_queue_depth: i64,
}

/// Drives `handle` with [`CLIENTS`] closed-loop clients for `seconds`,
/// cycling through `jobs`.  The first job of the first client keeps its
/// streamed lines.
pub fn closed_loop(
    handle: &ServiceHandle,
    jobs: &[Experiment],
    refs: &[Reference],
    seconds: f64,
    checks: &mut Checks,
) -> Result<Loop> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let next = &next;
                scope.spawn(move || -> Result<(Vec<(Option<Served>, Check)>, i64)> {
                    let mut client = Client::connect(handle.local_addr())?;
                    let mut served = Vec::new();
                    let mut max_depth = 0;
                    while start.elapsed().as_secs_f64() < seconds {
                        let idx = next.fetch_add(1, Ordering::Relaxed) % jobs.len();
                        let keep = c == 0
                            && !served
                                .iter()
                                .any(|(s, _): &(Option<Served>, Check)| s.is_some());
                        served.push(serve_one(
                            &mut client,
                            handle,
                            idx,
                            &jobs[idx],
                            &refs[idx].report,
                            keep,
                            &mut max_depth,
                        )?);
                    }
                    Ok((served, max_depth))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut out = Loop {
        served: Vec::new(),
        wall_s,
        max_queue_depth: 0,
    };
    for client in per_client {
        let (served, depth) = client?;
        for (s, check) in served {
            checks.record("served job", check);
            out.served.extend(s);
        }
        out.max_queue_depth = out.max_queue_depth.max(depth);
    }
    if out.served.is_empty() {
        return Err(CoreError::Report {
            reason: "no job completed inside the timed window".into(),
        });
    }
    Ok(out)
}

/// One set-up, timed: the job mix, every job's topology and initial
/// configurations (what a worker builds before a job's first round), and
/// a started daemon.  Returns the daemon and the wall time in seconds.
fn setup_once(seed: u64) -> Result<(ServiceHandle, f64)> {
    let t0 = Instant::now();
    for job in job_mix(seed) {
        let topology = job.build_topology()?;
        let n = job.topology.num_vertices();
        for replica in 0..REPLICAS as u64 {
            let mut rng = StdRng::seed_from_u64(derive_seed(job.seed, replica));
            let init =
                InitialCondition::BernoulliWithBias { delta: DELTA }.sample_n(n, &mut rng)?;
            std::hint::black_box(init);
        }
        std::hint::black_box(topology);
    }
    let handle = start_daemon()?;
    Ok((handle, t0.elapsed().as_secs_f64()))
}

/// [`SETUP_REPS`] set-ups; all daemons but the last are drained at once.
/// Appends each wall time to `walls` and returns the last daemon.
fn setups(seed: u64, walls: &mut Vec<f64>) -> Result<ServiceHandle> {
    let (mut handle, wall) = setup_once(seed)?;
    walls.push(wall);
    for _ in 1..SETUP_REPS {
        let (next, wall) = setup_once(seed)?;
        walls.push(wall);
        std::mem::replace(&mut handle, next).drain_and_join();
    }
    Ok(handle)
}

/// The untraced `serve_jobs` run.
pub fn run(seed: u64, seconds: f64, checks: &mut Checks) -> Result<Metrics> {
    let jobs = job_mix(seed);
    let refs = references(&jobs, 1, checks)?;
    let mut walls = Vec::new();
    let handle = setups(seed, &mut walls)?;
    let observed = closed_loop(&handle, &jobs, &refs, seconds, checks);
    handle.drain_and_join();
    // Set up again after the window, so that `setup_s` samples the host at
    // both ends of the run.
    setups(seed, &mut walls)?.drain_and_join();
    let observed = observed?;
    let latency: Vec<f64> = observed.served.iter().map(|s| s.latency_ms).collect();
    // Each job's median gap, then their median: pooling every line would
    // weight jobs by their round count and put the median on the edge
    // between the mix's fast-round and slow-round jobs.
    let gaps: Vec<f64> = observed
        .served
        .iter()
        .filter(|s| !s.gaps_ms.is_empty())
        .map(|s| median(&s.gaps_ms))
        .collect();
    let updates: f64 = observed.served.iter().map(|s| s.updates).sum();
    println!(
        "samples jobs = {}, jobs with update gaps = {}, set-ups = {}",
        latency.len(),
        gaps.len(),
        walls.len()
    );
    let mut m = Metrics::default();
    m.push("setup_s", median(&walls), "s");
    m.push("consensus_s_p50", median(&latency) / 1e3, "s");
    m.push("updates_per_s", updates / observed.wall_s, "1/s");
    m.push(
        "jobs_per_s",
        observed.served.len() as f64 / observed.wall_s,
        "1/s",
    );
    m.push("job_latency_ms_p50", median(&latency), "ms");
    m.push("update_gap_ms_p50", median(&gaps), "ms");
    Ok(m)
}

/// Per-layer rows of the service path.
pub struct ServeRows {
    pub latency_p90_ms: f64,
    pub gap_p99_ms: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub run_ms: f64,
    pub overhead_ms: f64,
    pub first_update_ms: f64,
    pub max_queue_depth: f64,
}

/// Mean time to encode and to decode one line of `lines`, in µs.
fn wire_times(lines: &[Response]) -> Result<(f64, f64)> {
    let encoded: Vec<String> = lines.iter().map(ToJson::to_json_string).collect();
    let reps = (4000 / lines.len().max(1)).max(1);
    let per_line = |t0: Instant| t0.elapsed().as_secs_f64() * 1e6 / (reps * lines.len()) as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        for line in lines {
            std::hint::black_box(line.to_json_string());
        }
    }
    let encode = per_line(t0);
    let t0 = Instant::now();
    for _ in 0..reps {
        for text in &encoded {
            std::hint::black_box(Response::from_json_str(text)?);
        }
    }
    Ok((encode, per_line(t0)))
}

/// Service rows from the jobs `served`, timed against their in-process
/// references.
pub fn rows(served: &[Served], max_queue_depth: i64, refs: &[Reference]) -> Result<ServeRows> {
    let lines = &served
        .iter()
        .find(|s| !s.lines.is_empty())
        .ok_or_else(|| CoreError::Report {
            reason: "no streamed lines were kept".into(),
        })?
        .lines;
    let (encode_us, decode_us) = wire_times(lines)?;
    let run_ms: Vec<f64> = served.iter().map(|s| refs[s.idx].run_ms).collect();
    let overhead: Vec<f64> = served
        .iter()
        .map(|s| s.latency_ms - refs[s.idx].run_ms)
        .collect();
    let first: Vec<f64> = served.iter().map(|s| s.first_update_ms).collect();
    let latency: Vec<f64> = served.iter().map(|s| s.latency_ms).collect();
    let gaps: Vec<f64> = served
        .iter()
        .flat_map(|s| s.gaps_ms.iter().copied())
        .collect();
    Ok(ServeRows {
        latency_p90_ms: tail(&latency, 0.9),
        gap_p99_ms: tail(&gaps, 0.99),
        encode_us,
        decode_us,
        run_ms: median(&run_ms),
        overhead_ms: median(&overhead),
        first_update_ms: median(&first),
        max_queue_depth: max_queue_depth as f64,
    })
}

/// Service rows for one job of an engine workload's own shape, run
/// [`PROBE_REPS`] times in process and served as many times by a fresh
/// daemon.
pub fn rows_for_job(experiment: Experiment, checks: &mut Checks) -> Result<ServeRows> {
    let refs = references(std::slice::from_ref(&experiment), PROBE_REPS, checks)?;
    let handle = start_daemon()?;
    let served = (|| {
        let mut client = Client::connect(handle.local_addr())?;
        let mut max_depth = 0;
        let mut served = Vec::with_capacity(PROBE_REPS);
        for rep in 0..PROBE_REPS {
            let (s, check) = serve_one(
                &mut client,
                &handle,
                0,
                &experiment,
                &refs[0].report,
                rep == 0,
                &mut max_depth,
            )?;
            checks.record("served job", check);
            served.extend(s);
        }
        Ok::<_, CoreError>((served, max_depth))
    })();
    handle.drain_and_join();
    let (served, max_depth) = served?;
    rows(&served, max_depth, &refs)
}

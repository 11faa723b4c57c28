//! End-to-end benchmark of the LSched reproduction.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Sets the named workload up several times, then repeats it for
//! `--seconds` seconds in this process and checks every rep's outputs.
//! With `--trace 0` it reports the end-to-end metrics, with `--trace 1`
//! the per-layer ones from traced reps interleaved with untraced reps.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `perfbench/BENCH.md` defines every workload and metric.

mod trace;
mod work;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use work::{Bench, Rep, SetupTimes};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Fewest set-ups per run; `setup_s` is their median.
const MIN_SETUPS: usize = 9;
/// Fewest measured reps per run.
const MIN_REPS: usize = 2;
/// After each rep the host reference kernel runs until its readings add
/// up to this share of the rep's wall time (at least once), so the host
/// is sampled in proportion to measured time however long a rep is.
const REF_SHARE: f64 = 0.02;
/// `host_ref_s` on the development host (2-vCPU x86-64 VM) in its fast
/// phases. Host-time end-to-end metrics are scaled by `HOST_REF_S /
/// trimmed_mean(host_ref_s)`: on a shared host whole runs slow by up to
/// half, and the reference kernel slows with them, so the scaled figures
/// compare across runs.
const HOST_REF_S: f64 = 0.0045;

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("sched_ms_per_query", "ms"),
    ("sim_avg_latency_s", "sim_s"),
    ("sim_tail_latency_s", "sim_s"),
    ("completed_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported with `--trace 1` (0 where a workload
/// does not exercise the layer).
const PER_LAYER: [(&str, &str); 47] = [
    ("workloads.plan_pool_s", "s"),
    ("workloads.gen_s", "s"),
    ("setup.probe_s", "s"),
    ("engine.sim.loop_s", "s"),
    ("engine.sim.events", "count"),
    ("engine.sim.ns_per_event", "ns"),
    ("engine.sim.work_orders", "count"),
    ("engine.sim.rejected_frac", "ratio"),
    ("sched.policy.self_s", "s"),
    ("sched.policy.invocations", "count"),
    ("sched.policy.us_per_invocation_p50", "us"),
    ("sched.policy.us_per_invocation_p99", "us"),
    ("sched.policy.decisions", "count"),
    ("sched.guard.self_s", "s"),
    ("sched.guard.trips", "count"),
    ("sched.guard.clamped", "count"),
    ("sched.guard.fallback_frac", "ratio"),
    ("core.lsched.self_s", "s"),
    ("core.lsched.invocations", "count"),
    ("core.lsched.tick_batches", "count"),
    ("core.lsched.per_event_calls", "count"),
    ("core.lsched.us_per_invocation_p50", "us"),
    ("core.lsched.us_per_invocation_p99", "us"),
    ("core.features.snapshot_us", "us"),
    ("core.encoder.encode_us", "us"),
    ("core.predictor.decide_us", "us"),
    ("admission.self_s", "s"),
    ("admission.calls", "count"),
    ("admission.admitted_frac", "ratio"),
    ("admission.deferred", "count"),
    ("admission.shed", "count"),
    ("admission.max_defer_attempts", "count"),
    ("serve.router.route_s", "s"),
    ("serve.router.migration_frac", "ratio"),
    ("serve.failover.rerouted", "count"),
    ("serve.failover.replay_events_frac", "ratio"),
    ("serve.abandoned", "count"),
    ("serve.unattributed_s", "s"),
    ("core.train.rollout_s", "s"),
    ("core.train.grad_s", "s"),
    ("nn.optim.step_s", "s"),
    ("core.train.replay_frac", "ratio"),
    ("nn.graph.arena_capacity", "count"),
    ("trace.capture_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !work::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", work::NAMES));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Mean of `v` without its lowest and highest tenth. The host switches
/// between a fast and a slow mode, about 40% apart, in phases under a
/// second long; a rep spans several phases and averages them, and so does
/// the mean of the reference readings, where their median jumps from one
/// mode to the other. Trimming keeps one preempted reading from moving it.
fn trimmed_mean(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let k = v.len() / 10;
    let kept = &v[k..v.len() - k];
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

/// The highest percentile of a ladder with at least ten samples beyond
/// it: `(percentile, value, samples beyond)`.
fn tail(latencies: &[f64]) -> (f64, f64, usize) {
    let mut s = latencies.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    for p in [99.0, 95.0, 90.0, 50.0] {
        let idx = ((n.saturating_sub(1)) as f64 * p / 100.0).round() as usize;
        let beyond = n.saturating_sub(idx + 1);
        if beyond >= 10 {
            return (p, s[idx], beyond);
        }
    }
    (50.0, s.get(n / 2).copied().unwrap_or(0.0), n / 2)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall seconds of a fixed, benchmark-owned piece of work: a small
/// float matrix-vector loop and an integer sort, the two kinds of work
/// the workloads do. It runs after every rep; the trimmed mean of a
/// run's readings against [`HOST_REF_S`] tells how fast the host ran.
fn host_ref_s() -> f64 {
    let t0 = Instant::now();
    let m: Vec<f32> = (0..64 * 64).map(|i| (i % 7) as f32 * 0.01).collect();
    let mut x: Vec<f32> = vec![1.0; 64];
    let mut y = vec![0f32; 64];
    for _ in 0..1500 {
        for (r, out) in y.iter_mut().enumerate() {
            *out = m[r * 64..(r + 1) * 64]
                .iter()
                .zip(&x)
                .map(|(a, b)| a * b)
                .sum();
        }
        let norm = y.iter().map(|v| v.abs()).sum::<f32>().max(1e-6);
        x.iter_mut().zip(&y).for_each(|(a, b)| *a = b / norm);
    }
    let mut v: Vec<u64> = (0..16_384u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    for r in 0..8u64 {
        v.iter_mut().for_each(|e| *e = e.rotate_left(7) ^ r);
        v.sort_unstable();
    }
    std::hint::black_box((x, v));
    t0.elapsed().as_secs_f64()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                work::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} host threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let setup = || Bench::setup(&args.workload, args.seed).expect("workload name was checked");
    let (bench, first) = setup();
    let mut setups: Vec<SetupTimes> = vec![first];

    // One warm-up rep (checked, not timed), then reps until the time is up.
    let warm = bench.run(false);
    // Peak RSS after one set-up and one rep: a fixed amount of work. Read
    // at the end of the run it grows with the number of reps, by up to a
    // tenth on `serve2_crash`, as the allocator's per-thread arenas for
    // the shard threads, new in every rep, fragment.
    let peak_rss = peak_rss_mb();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut refs: Vec<f64> = Vec::new();
    let start = Instant::now();
    while plain.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let rep = bench.run(false);
        let mut ref_s = 0.0;
        while ref_s == 0.0 || ref_s < REF_SHARE * rep.wall_s {
            refs.push(host_ref_s());
            ref_s += refs[refs.len() - 1];
        }
        plain.push(rep);
        if args.trace {
            traced.push(bench.run(true));
        }
        // Set-ups are spread over the run, so `setup_s` samples the host
        // at as many moments as the reps do.
        setups.push(setup().1);
    }
    while setups.len() < MIN_SETUPS {
        setups.push(setup().1);
    }
    let measured_s = start.elapsed().as_secs_f64();

    // Correctness: per-rep checks, bit-identical outputs across every rep
    // (traced ones included), counts that repeat exactly.
    let mut checks: Vec<(String, bool)> = Vec::new();
    let all: Vec<&Rep> = std::iter::once(&warm)
        .chain(&plain)
        .chain(&traced)
        .collect();
    for (name, _) in &warm.checks {
        checks.push((
            name.to_string(),
            all.iter()
                .all(|r| r.checks.iter().any(|c| c.0 == *name && c.1)),
        ));
    }
    checks.push((
        "outputs repeat bit for bit across reps, traced and untraced".into(),
        all.iter().all(|r| r.fingerprint == warm.fingerprint),
    ));
    checks.push((
        "counts repeat exactly across reps".into(),
        all.iter().all(|r| {
            r.counts.iter().all(|(k, v)| {
                warm.counts
                    .get(k)
                    .is_none_or(|w| w.to_bits() == v.to_bits())
            })
        }) && traced.iter().all(|r| r.counts == traced[0].counts),
    ));
    if args.trace {
        checks.push((
            "self times plus unattributed sum to the traced wall".into(),
            traced.iter().all(|r| {
                let wall = r.traced.get("trace.wall_s").copied().unwrap_or(0.0);
                r.traced
                    .get("trace.residual_s")
                    .is_some_and(|res| *res <= 1e-9 * wall.max(1.0))
            }),
        ));
    }

    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let completed: u64 = all.iter().map(|r| r.completed).sum();
    let correct = checks.iter().all(|c| c.1);
    let failed = if correct {
        attempted - completed.min(attempted)
    } else {
        attempted
    };

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        let (p, tail_s, beyond) = tail(&warm.latencies);
        let avg = warm.latencies.iter().sum::<f64>() / warm.latencies.len().max(1) as f64;
        println!(
            "sim latency over {} completed queries: mean {avg:.6}s, tail = p{p} {tail_s:.6}s \
             ({beyond} samples beyond)",
            warm.latencies.len()
        );
        // Below 1 when the host ran slower than the reference.
        let speed = HOST_REF_S / trimmed_mean(refs.clone());
        println!("host speed {speed:.4} of the reference; host-time metrics are scaled by it");
        let values = [
            median(setups.iter().map(|t| t.total_s).collect()) * speed,
            median(
                plain
                    .iter()
                    .map(|r| r.work_queries as f64 / r.wall_s)
                    .collect(),
            ) / speed,
            median(
                plain
                    .iter()
                    .map(|r| r.sched_s * 1e3 / r.sched_queries.max(1) as f64)
                    .collect(),
            ) * speed,
            avg,
            tail_s,
            completed as f64 / attempted.max(1) as f64,
            peak_rss,
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, v, unit));
        }
    } else {
        let layer = per_layer(&setups, &plain, &traced);
        for (name, unit) in PER_LAYER {
            metrics.push((name, layer.get(name).copied().unwrap_or(0.0), unit));
        }
    }

    println!(
        "{} measured reps in {measured_s:.2}s (+1 warm-up{}), median rep {:.4}s",
        plain.len(),
        if args.trace {
            format!(", {} traced", traced.len())
        } else {
            String::new()
        },
        median(plain.iter().map(|r| r.wall_s).collect())
    );
    let walls: Vec<String> = plain.iter().map(|r| format!("{:.4}", r.wall_s)).collect();
    println!("rep walls (s): {}", walls.join(" "));
    let sched: Vec<String> = plain.iter().map(|r| format!("{:.5}", r.sched_s)).collect();
    println!("rep sched (s): {}", sched.join(" "));
    let r: Vec<String> = refs.iter().map(|x| format!("{:.5}", x)).collect();
    println!("host ref (s): {}", r.join(" "));
    let walls: Vec<String> = setups.iter().map(|t| format!("{:.4}", t.total_s)).collect();
    println!("set-up walls (s): {}", walls.join(" "));
    for (name, ok) in &checks {
        println!("check {}: {name}", if *ok { "ok  " } else { "FAIL" });
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        println!("{name:<40} {v:>16.6} {unit}");
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// Per-layer metrics: set-up step medians, layer self times averaged
/// over the traced reps, and counts (identical in every rep).
fn per_layer(setups: &[SetupTimes], plain: &[Rep], traced: &[Rep]) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert(
        "workloads.plan_pool_s",
        median(setups.iter().map(|t| t.plan_pool_s).collect()),
    );
    m.insert(
        "workloads.gen_s",
        median(setups.iter().map(|t| t.gen_s).collect()),
    );
    m.insert(
        "setup.probe_s",
        median(setups.iter().map(|t| t.probe_s).collect()),
    );
    let n = traced.len().max(1) as f64;
    for rep in traced {
        for (k, v) in &rep.traced {
            *m.entry(k).or_insert(0.0) += v / n;
        }
    }
    let counts = &traced[0].counts;
    for (k, v) in counts {
        m.entry(k).or_insert(*v);
    }
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let events = get(&m, "engine.sim.events");
    m.insert(
        "engine.sim.ns_per_event",
        get(&m, "engine.sim.loop_s") * 1e9 / events.max(1.0),
    );
    m.insert(
        "sched.guard.fallback_frac",
        get(&m, "sched.guard.fallback_events") / get(&m, "sched.guard.events").max(1.0),
    );
    m.insert(
        "admission.admitted_frac",
        get(&m, "admission.admitted") / get(&m, "admission.calls").max(1.0),
    );
    let wall = get(&m, "trace.wall_s");
    m.insert(
        "trace.unattributed_frac",
        get(&m, "trace.unattributed_s") / wall.max(1e-12),
    );
    // Each traced rep runs right after an untraced one; the median of the
    // pairs' ratios leaves out host-speed changes between pairs.
    let ratios = plain
        .iter()
        .zip(traced)
        .map(|(p, t)| t.wall_s / p.wall_s.max(1e-12) - 1.0);
    m.insert("trace.overhead_frac", median(ratios.collect()));
    m
}

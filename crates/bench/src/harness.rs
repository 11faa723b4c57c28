//! Shared experiment harness: benchmark selection, model training with
//! on-disk caching, and the scheduler roster every figure compares.

use std::path::PathBuf;
use std::sync::Arc;

use rayon::prelude::*;

use lsched_core::{
    train_with_validation, ExperienceManager, LSchedConfig, LSchedModel, LSchedScheduler,
    TrainConfig,
};
use lsched_decima::{train_decima, DecimaConfig, DecimaModel, DecimaScheduler, DecimaTrainConfig};
use lsched_engine::plan::PhysicalPlan;
use lsched_engine::scheduler::Scheduler;
use lsched_engine::sim::{simulate, SimConfig, SimResult, WorkloadItem};
use lsched_sched::{
    tune, FairScheduler, FifoScheduler, QuickstepScheduler, SelfTuneScheduler, TuneConfig,
};
use lsched_serve::{
    serve_supervised, AdmissionReport, HealthReport, ServeConfig, ServeResult, ShardFaultPlan,
    SupervisorConfig, TenantQuery,
};
use lsched_workloads::{job, split_train_test, ssb, tpch, ArrivalPattern, EpisodeSampler};

/// Which benchmark a figure runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Benchmark {
    /// TPC-H (Figures 8, 11–15).
    Tpch,
    /// Star Schema Benchmark (Figure 9, 14b).
    Ssb,
    /// Join Order Benchmark (Figure 10).
    Job,
}

impl Benchmark {
    /// Benchmark name for output and cache keys.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Tpch => "tpch",
            Benchmark::Ssb => "ssb",
            Benchmark::Job => "job",
        }
    }

    /// The full plan pool at the paper's scale factors.
    pub fn pool(self) -> Vec<Arc<PhysicalPlan>> {
        match self {
            Benchmark::Tpch => tpch::plan_pool(&tpch::PAPER_SCALE_FACTORS),
            Benchmark::Ssb => ssb::plan_pool(&ssb::PAPER_SCALE_FACTORS),
            Benchmark::Job => job::plan_pool(),
        }
    }
}

/// Harness-wide knobs; `quick()` keeps every figure reproducible in
/// minutes on a laptop, `paper()` approaches the paper's scale
/// (Section 7.1: 5000/3000 training episodes, 80-query workloads, 60
/// threads).
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Worker threads for test workloads (paper default: 60).
    pub threads: usize,
    /// Training episodes for the learned schedulers.
    pub train_episodes: usize,
    /// Training-episode workload size range.
    pub train_size_range: (usize, usize),
    /// Test workload size (paper: 80).
    pub workload_size: usize,
    /// Streaming arrival rate for test workloads.
    pub stream_lambda: f64,
    /// Master seed.
    pub seed: u64,
    /// Cache directory for trained models (empty disables caching).
    pub cache_dir: Option<PathBuf>,
}

impl HarnessConfig {
    /// Laptop-scale configuration (the default; documented in
    /// EXPERIMENTS.md).
    pub fn quick() -> Self {
        Self {
            threads: 24,
            train_episodes: 120,
            train_size_range: (10, 28),
            workload_size: 40,
            stream_lambda: 40.0,
            seed: 7,
            cache_dir: Some(PathBuf::from("bench_artifacts/models")),
        }
    }

    /// Paper-scale configuration.
    pub fn paper() -> Self {
        Self {
            threads: 60,
            train_episodes: 1000,
            train_size_range: (20, 100),
            workload_size: 80,
            stream_lambda: 100.0,
            seed: 7,
            cache_dir: Some(PathBuf::from("bench_artifacts/models")),
        }
    }

    /// The simulator configuration for test runs.
    pub fn sim(&self) -> SimConfig {
        SimConfig { num_threads: self.threads, seed: self.seed, ..Default::default() }
    }

    /// The simulator configuration for training episodes.
    pub fn train_sim(&self) -> SimConfig {
        SimConfig { num_threads: self.threads, seed: self.seed ^ 0x7124, ..Default::default() }
    }
}

/// Train/test split of a benchmark pool.
pub struct SplitPool {
    /// Training half (never used for test workloads).
    pub train: Vec<Arc<PhysicalPlan>>,
    /// Test half.
    pub test: Vec<Arc<PhysicalPlan>>,
}

/// Builds the Section 7.1 train/test split for a benchmark.
pub fn split(bench: Benchmark, seed: u64) -> SplitPool {
    let pool = bench.pool();
    let (train, test) = split_train_test(&pool, seed);
    SplitPool { train, test }
}

/// The episode sampler over a training pool.
pub fn sampler(cfg: &HarnessConfig, pool: Vec<Arc<PhysicalPlan>>) -> EpisodeSampler {
    EpisodeSampler {
        pool,
        size_range: cfg.train_size_range,
        rate_range: (10.0, 400.0),
        batch_fraction: 0.3,
    }
}

/// The default LSched agent configuration used by the harness (small
/// hidden sizes keep decision latency in the paper's millisecond range).
pub fn lsched_config(max_threads: usize) -> LSchedConfig {
    let mut cfg = LSchedConfig::default();
    cfg.encoder.hidden = 16;
    cfg.encoder.edge_hidden = 4;
    cfg.encoder.pqe_dim = 8;
    cfg.encoder.aqe_dim = 8;
    cfg.encoder.conv_layers = 3;
    cfg.predictor.max_threads = max_threads.next_power_of_two().max(32);
    cfg
}

fn cache_path(cfg: &HarnessConfig, key: &str) -> Option<PathBuf> {
    cfg.cache_dir.as_ref().map(|d| {
        d.join(format!("{key}_e{}_s{}_t{}.json", cfg.train_episodes, cfg.seed, cfg.threads))
    })
}

/// Trains (or loads from cache) the LSched model for a benchmark.
pub fn trained_lsched(cfg: &HarnessConfig, bench: Benchmark, episodes: usize) -> LSchedModel {
    let mut model = LSchedModel::new(lsched_config(cfg.threads * 2), cfg.seed);
    let key = format!("lsched_{}_ep{}", bench.name(), episodes);
    if let Some(path) = cache_path(cfg, &key) {
        if let Ok(json) = std::fs::read_to_string(&path) {
            if model.load_params_json(&json).is_ok() {
                eprintln!("[harness] loaded cached model {}", path.display());
                return model;
            }
        }
    }
    eprintln!("[harness] training lsched on {} for {episodes} episodes ...", bench.name());
    let sp = split(bench, cfg.seed);
    let s = sampler(cfg, sp.train.clone());
    // Validation workload drawn from the *training* pool (no test
    // leakage): used to select the best checkpoint across training
    // chunks, taming REINFORCE's evaluation variance.
    let val_wl = lsched_workloads::gen_workload(
        &sp.train,
        cfg.workload_size.min(24),
        ArrivalPattern::Streaming { lambda: cfg.stream_lambda },
        cfg.seed ^ 0x5a17,
    );
    let tcfg = TrainConfig { episodes, sim: cfg.train_sim(), seed: cfg.seed, ..Default::default() };
    let mut exp = ExperienceManager::new(episodes.max(1));
    let (m, _, best_score) =
        train_with_validation(model, &s, &tcfg, 20, &val_wl, &cfg.sim(), &mut exp);
    model = m;
    eprintln!("[harness]   lsched best validation avg {best_score:.3}s");
    if let Some(path) = cache_path(cfg, &key) {
        let _ = std::fs::create_dir_all(path.parent().expect("cache path has parent"));
        let _ = std::fs::write(&path, model.params_json());
    }
    model
}

/// Trains (or loads from cache) the Decima model for a benchmark.
///
/// Every 20-episode chunk is a fresh `train_decima` call: its optimizer
/// state, RNG seed and episode count restart each chunk, so the trained
/// model depends on the chunk size (unlike LSched's
/// `train_with_validation`, which validates one trajectory).
pub fn trained_decima(cfg: &HarnessConfig, bench: Benchmark, episodes: usize) -> DecimaModel {
    let dcfg = DecimaConfig {
        hidden: 16,
        layers: 2,
        max_threads: (cfg.threads * 2).next_power_of_two().max(32),
        ..Default::default()
    };
    let mut model = DecimaModel::new(dcfg.clone(), cfg.seed);
    let key = format!("decima_{}_ep{}", bench.name(), episodes);
    if let Some(path) = cache_path(cfg, &key) {
        if let Ok(json) = std::fs::read_to_string(&path) {
            if let Ok(other) = lsched_nn::ParamStore::from_json(&json) {
                let mut m = DecimaModel::new(dcfg.clone(), cfg.seed);
                if m.store.load_matching(&other) > 0 {
                    eprintln!("[harness] loaded cached model {}", path.display());
                    return m;
                }
            }
        }
    }
    eprintln!("[harness] training decima on {} for {episodes} episodes ...", bench.name());
    let sp = split(bench, cfg.seed);
    let s = sampler(cfg, sp.train.clone());
    let val_wl = lsched_workloads::gen_workload(
        &sp.train,
        cfg.workload_size.min(24),
        ArrivalPattern::Streaming { lambda: cfg.stream_lambda },
        cfg.seed ^ 0x5a17,
    );
    let val_sim = cfg.sim();
    let chunk = 20usize.min(episodes.max(1));
    let mut best_json = model.store.to_json();
    let mut best_score = f64::INFINITY;
    let mut done = 0;
    while done < episodes {
        let n = chunk.min(episodes - done);
        let tcfg = DecimaTrainConfig {
            episodes: n,
            sim: cfg.train_sim(),
            seed: cfg.seed.wrapping_add(done as u64 * 7717),
            ..Default::default()
        };
        let (m, _) = train_decima(model, &s, &tcfg);
        model = m;
        done += n;
        let json = model.store.to_json();
        let mut probe = DecimaModel::new(dcfg.clone(), cfg.seed);
        if let Ok(ps) = lsched_nn::ParamStore::from_json(&json) {
            let _ = probe.store.load_matching(&ps);
        }
        let score = simulate(val_sim.clone(), &val_wl, &mut DecimaScheduler::greedy(probe))
            .avg_duration();
        if score < best_score {
            best_score = score;
            best_json = json;
        }
        eprintln!("[harness]   decima {done}/{episodes} episodes, val avg {score:.3}s (best {best_score:.3}s)");
    }
    if let Ok(ps) = lsched_nn::ParamStore::from_json(&best_json) {
        let _ = model.store.load_matching(&ps);
    }
    if let Some(path) = cache_path(cfg, &key) {
        let _ = std::fs::create_dir_all(path.parent().expect("cache path has parent"));
        let _ = std::fs::write(&path, model.store.to_json());
    }
    model
}

/// Tunes (per workload distribution) the SelfTune baseline.
pub fn tuned_selftune(cfg: &HarnessConfig, bench: Benchmark) -> SelfTuneScheduler {
    let sp = split(bench, cfg.seed);
    let samples: Vec<Vec<WorkloadItem>> = (0..2)
        .map(|i| {
            lsched_workloads::gen_workload(
                &sp.train,
                cfg.workload_size.min(16),
                ArrivalPattern::Streaming { lambda: cfg.stream_lambda },
                cfg.seed + i,
            )
        })
        .collect();
    let tc = TuneConfig {
        iterations: 12,
        samples: 2,
        sim: cfg.sim(),
        seed: cfg.seed,
    };
    let (params, _) = tune(&samples, &tc);
    SelfTuneScheduler::new(params)
}

/// The roster of schedulers a figure compares. Learned models are moved
/// in; call once per figure.
pub struct Roster {
    /// `(name, scheduler)` pairs, in the paper's legend order.
    pub entries: Vec<(String, Box<dyn Scheduler>)>,
}

/// Builds the full six-scheduler roster (Figure 8) or the five-scheduler
/// one (Figures 9–13, `include_fifo = false`).
pub fn roster(cfg: &HarnessConfig, bench: Benchmark, include_fifo: bool) -> Roster {
    let lsched = trained_lsched(cfg, bench, cfg.train_episodes);
    let decima = trained_decima(cfg, bench, cfg.train_episodes);
    let selftune = tuned_selftune(cfg, bench);
    let mut entries: Vec<(String, Box<dyn Scheduler>)> = vec![
        ("lsched".into(), Box::new(LSchedScheduler::greedy(lsched))),
        ("decima".into(), Box::new(DecimaScheduler::greedy(decima))),
        ("quickstep".into(), Box::new(QuickstepScheduler)),
        ("selftune".into(), Box::new(selftune)),
        ("fair".into(), Box::new(FairScheduler::default())),
    ];
    if include_fifo {
        entries.push(("fifo".into(), Box::new(FifoScheduler)));
    }
    Roster { entries }
}

/// Runs a workload under every roster scheduler. The schedulers are
/// independent state machines, so the evaluations fan out across a
/// thread pool; results come back in roster order and each scheduler's
/// RNG stream is untouched by the parallelism, so the output is
/// identical to a sequential sweep.
pub fn run_roster(
    roster: &mut Roster,
    workload: &[WorkloadItem],
    sim: &SimConfig,
) -> Vec<(String, SimResult)> {
    let jobs: Vec<(String, &mut Box<dyn Scheduler>)> =
        roster.entries.iter_mut().map(|(name, s)| (name.clone(), s)).collect();
    jobs.into_par_iter()
        .map(|(name, s)| {
            s.reset();
            let res = simulate(sim.clone(), workload, s.as_mut());
            (name, res)
        })
        .collect()
}

/// Generates the standard test workload of a figure.
pub fn test_workload(
    cfg: &HarnessConfig,
    bench: Benchmark,
    size: usize,
    pattern: ArrivalPattern,
) -> Vec<WorkloadItem> {
    let sp = split(bench, cfg.seed);
    lsched_workloads::gen_workload(&sp.test, size, pattern, cfg.seed ^ 0xbead)
}

/// A served run with no shard faults under the default supervisor, for
/// the fault-free gates of the serving bench bins. The supervisor absorbs
/// a shard's engine error or panic as a crash and fails its queries
/// over, so the run must also report no crash and abandon nothing;
/// anything else panics with `what` in the message.
pub fn serve_fault_free<S, F>(
    cfg: &ServeConfig,
    queries: &[TenantQuery],
    make_sched: F,
    what: &str,
) -> ServeResult
where
    S: Scheduler + AdmissionReport + HealthReport,
    F: Fn(usize) -> S + Sync,
{
    let res = serve_supervised(
        cfg,
        queries,
        &ShardFaultPlan::none(),
        &SupervisorConfig::default(),
        make_sched,
    )
    .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(
        res.failover.crashes == 0 && res.abandoned.is_empty(),
        "{what}: a fault-free run absorbed a shard failure: {:?}",
        res.failover
    );
    res
}

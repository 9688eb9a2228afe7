//! `paper-solve`: the paper's offline efficiency-and-quality experiment,
//! in-process and closed-loop.
//!
//! NYC and SG at bench scale with the Table 6 defaults (α = 100%,
//! p = 5%, γ = 0.5, λ = 100 m); G-Global, ALS and BLS with the registry
//! defaults (5 restarts, fixed seed). The instance is fixed, not drawn
//! from the workload seed: advertiser draws moved BLS time by about 10%
//! between seeds, more than its run-to-run spread may be, and a fixed
//! instance turns every regret into an exact quality check across
//! commits. Every solution is checked for
//! disjointness and its regret is recomputed from the sets through
//! `CoverageModel` reads.

use crate::report::Report;
use crate::stats::{median, Dist};
use crate::trace::Tracer;
use mroam_core::solver::SolverSpec;
use mroam_core::{regret, AdvertiserSet, Instance, Solution};
use mroam_datagen::WorkloadConfig;
use mroam_experiments::params::{DEFAULT_GAMMA, DEFAULT_LAMBDA, DEFAULT_P_AVG};
use mroam_experiments::setup::{city_config, CityKind, Scale};
use mroam_influence::CoverageModel;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Solvers in the paper's running-time order.
const SOLVERS: [&str; 3] = ["g-global", "als", "bls"];

/// Advertiser-draw seed of the instance (`exp_all` records
/// `results/exp_all_bench.txt` with the same one).
const INSTANCE_SEED: u64 = 42;

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Short solves per city in each round of a pass (one round before,
/// between and after the two BLS solves); their medians are reported.
const SHORT_ROUNDS: [(&str, usize); 2] = [("g-global", 7), ("als", 1)];

/// Timed repetitions of each coverage read in a regret recheck.
const READ_REPEATS: usize = 5;

struct Prepared {
    index: u64,
    label: &'static str,
    model: CoverageModel,
    advertisers: AdvertiserSet,
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Builds both cities and their models once, under spans; returns the
/// prepared instances and the set-up wall time.
fn set_up(tracer: &mut Tracer, trace_id: u64) -> (Vec<Prepared>, f64) {
    let started = Instant::now();
    let out = [(CityKind::Nyc, "nyc"), (CityKind::Sg, "sg")]
        .into_iter()
        .enumerate()
        .map(|(index, (kind, label))| {
            let city = tracer.span("datagen.city", trace_id, |_| {
                city_config(kind, Scale::Bench).generate()
            });
            let model = tracer.span("influence.coverage", trace_id, |_| {
                city.coverage(DEFAULT_LAMBDA)
            });
            tracer.span("influence.precompute", trace_id, |_| model.precompute());
            let advertisers = WorkloadConfig {
                alpha: 1.0,
                p_avg: DEFAULT_P_AVG,
                seed: INSTANCE_SEED,
            }
            .generate(model.supply());
            Prepared {
                index: index as u64,
                label,
                model,
                advertisers,
            }
        })
        .collect();
    (out, started.elapsed().as_secs_f64())
}

/// Recomputes every advertiser's influence and the total regret from the
/// solution's sets, timing each coverage read as the fastest of
/// [`READ_REPEATS`] (a read is a fraction of a millisecond, so one host
/// stall would otherwise decide the tail); returns the recomputed regret
/// or a description of the mismatch.
fn recheck(p: &Prepared, solution: &Solution, reads_ms: &mut Vec<f64>) -> Result<f64, String> {
    if let Err(panic) = std::panic::catch_unwind(|| solution.assert_disjoint()) {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "overlapping sets".into());
        return Err(format!("solution is not disjoint: {msg}"));
    }
    let mut total = 0.0;
    for (i, (set, (_, advertiser))) in solution.sets.iter().zip(p.advertisers.iter()).enumerate() {
        let mut fastest = f64::INFINITY;
        let mut influence = 0;
        for _ in 0..READ_REPEATS {
            let t = Instant::now();
            influence = p.model.set_influence(set.iter().copied());
            fastest = fastest.min(t.elapsed().as_secs_f64() * 1e3);
        }
        reads_ms.push(fastest);
        if influence != solution.influences[i] {
            return Err(format!(
                "advertiser {i}: recomputed influence {influence} != reported {}",
                solution.influences[i]
            ));
        }
        total += regret(advertiser, influence, DEFAULT_GAMMA);
    }
    let tol = 1e-9 * solution.total_regret.abs().max(1.0);
    if (total - solution.total_regret).abs() > tol {
        return Err(format!(
            "recomputed regret {total} != reported {}",
            solution.total_regret
        ));
    }
    Ok(total)
}

/// One (solver, city) result, which every repetition must reproduce.
struct Outcome {
    regret: f64,
    excess: f64,
    unsatisfied: f64,
    satisfied: usize,
}

/// The checked results of a run's timed solves.
#[derive(Default)]
struct Tally {
    outcomes: BTreeMap<(&'static str, &'static str), Outcome>,
    /// Coverage read times (ms) of the regret rechecks.
    reads_ms: Vec<f64>,
}

impl Tally {
    /// Times one solve under a `core.solve` span (trace id: pass and
    /// city), checks it, and returns its wall time in ms.
    fn solve(
        &mut self,
        solver_name: &'static str,
        p: &Prepared,
        pass: u64,
        report: &mut Report,
        tracer: &mut Tracer,
    ) -> f64 {
        let solver = SolverSpec::by_name(solver_name)
            .expect("registered solver")
            .build();
        let instance = Instance::new(&p.model, &p.advertisers, DEFAULT_GAMMA);
        report.attempted += 1;
        let t = Instant::now();
        let solution = tracer.span("core.solve", 1000 * (pass + 1) + p.index, |_| {
            solver.solve(&instance)
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match recheck(p, &solution, &mut self.reads_ms) {
            Ok(regret) => {
                let b = &solution.breakdown;
                let outcome = Outcome {
                    regret,
                    excess: b.excessive_influence,
                    unsatisfied: b.unsatisfied_penalty,
                    satisfied: p.advertisers.len() - b.n_unsatisfied,
                };
                let key = (solver_name, p.label);
                if let Some(prev) = self.outcomes.get(&key) {
                    report.check(prev.regret == regret, || {
                        format!(
                            "{solver_name} on {}: regret {regret} differs from an earlier identical solve ({})",
                            p.label, prev.regret
                        )
                    });
                }
                self.outcomes.insert(key, outcome);
            }
            Err(why) => {
                report.failed += 1;
                report.fail(format!("{solver_name} on {}: {why}", p.label));
            }
        }
        ms
    }
}

/// Runs the workload: as many full passes as fit in `seconds`, at least
/// one.
pub fn run(seconds: u64, report: &mut Report, tracer: &mut Tracer) {
    let mut setups = Vec::new();
    let mut prepared = Vec::new();
    for k in 0..SETUPS {
        let (p, secs) = set_up(tracer, k as u64);
        setups.push(secs);
        prepared = p;
    }
    report.set("setup_s", median(&setups));

    let mut model_bytes = 0usize;
    for p in &prepared {
        let m = p.model.memory_stats();
        model_bytes += m.total_heap_bytes() + m.total_mapped_bytes();
    }
    report.set("influence.model_mib", model_bytes as f64 / (1 << 20) as f64);
    let spans = crate::trace::durations_by_name(tracer.spans());
    for (span, metric) in [
        ("datagen.city", "datagen.city_s"),
        ("influence.coverage", "influence.coverage_s"),
        ("influence.precompute", "influence.precompute_s"),
    ] {
        // Per set-up sums over both cities, then the median set-up.
        let per_setup: Vec<f64> = spans[span]
            .chunks(2)
            .map(|c| c.iter().copied().map(ns_to_s).sum())
            .collect();
        report.set(metric, median(&per_setup));
    }

    // (solver, city) -> solve times (ms) over every repetition.
    let mut solve_ms: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    // solver -> per-pass sum over both cities of the per-city median.
    let mut pass_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut tally = Tally::default();
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut pass = 0u64;
    let mut last_pass = Duration::ZERO;
    // Another full pass only if it fits the budget, so a run measures a
    // whole number of passes.
    while pass == 0 || started.elapsed() + last_pass <= budget {
        let pass_started = Instant::now();
        // The short solves run in rounds around the long BLS solves, so
        // one burst of host noise cannot move a whole solver's median.
        let mut times: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
        for round in 0..=prepared.len() {
            for p in &prepared {
                for (solver, reps) in SHORT_ROUNDS {
                    for _ in 0..reps {
                        let ms = tally.solve(solver, p, pass, report, tracer);
                        times.entry((solver, p.label)).or_default().push(ms);
                    }
                }
            }
            if let Some(p) = prepared.get(round) {
                let ms = tally.solve("bls", p, pass, report, tracer);
                times.entry(("bls", p.label)).or_default().push(ms);
            }
        }
        for solver in SOLVERS {
            let total = prepared
                .iter()
                .map(|p| median(&times[&(solver, p.label)]))
                .sum();
            pass_ms.entry(solver).or_default().push(total);
        }
        for (key, ms) in times {
            solve_ms.entry(key).or_default().extend(ms);
        }
        last_pass = pass_started.elapsed();
        pass += 1;
    }

    for ((solver, city), times) in &solve_ms {
        report.set(&format!("core.solve_ms.{solver}.{city}"), median(times));
    }
    let n_ads: usize = prepared.iter().map(|p| p.advertisers.len()).sum();
    for solver in SOLVERS {
        let sum = |f: &dyn Fn(&Outcome) -> f64| -> f64 {
            prepared
                .iter()
                .map(|p| tally.outcomes.get(&(solver, p.label)).map_or(f64::NAN, f))
                .sum()
        };
        let total = sum(&|o| o.regret);
        let excess = sum(&|o| o.excess);
        let unsatisfied = sum(&|o| o.unsatisfied);
        let satisfied = sum(&|o| o.satisfied as f64);
        report.set(&format!("core.regret.{solver}"), total);
        report.set(&format!("core.regret_excess.{solver}"), excess);
        report.set(&format!("core.regret_unsatisfied.{solver}"), unsatisfied);
        report.set(
            &format!("core.satisfied_ratio.{solver}"),
            satisfied / n_ads as f64,
        );
    }
    let solve_s = |s: &str| median(&pass_ms[s]) / 1e3;
    println!(
        "paper-solve: {pass} pass(es); solve_s g-global {:.4} als {:.4} bls {:.4}; regret g-global {:.1} als {:.1} bls {:.1}",
        solve_s("g-global"),
        solve_s("als"),
        solve_s("bls"),
        report.metrics["core.regret.g-global"],
        report.metrics["core.regret.als"],
        report.metrics["core.regret.bls"],
    );
    for s in SOLVERS {
        println!("  solve_s.{s} = {:.6} s", solve_s(s));
        println!(
            "  regret.{s} = {:.3} regret",
            report.metrics[&format!("core.regret.{s}")]
        );
    }
    println!(
        "  running-time order G-Global < ALS < BLS: {}",
        solve_s("g-global") < solve_s("als") && solve_s("als") < solve_s("bls")
    );
    // The short solves alone move by up to 30% from one process to the
    // next, beyond any usable bound, so the bounded figures are the whole
    // comparison's allocation time and its slowest solver; G-Global and
    // ALS stay per-layer (and serve-heavy bounds G-Global through its
    // per-day solve).
    let passes: Vec<f64> = (0..pass as usize)
        .map(|i| SOLVERS.iter().map(|s| pass_ms[s][i]).sum())
        .collect();
    report.set("alloc_p50_ms", median(&passes));
    report.set("alloc_tail_ms", median(&pass_ms["bls"]));
    if let Some(d) = Dist::of(&tally.reads_ms) {
        report.set("read_p50_ms", d.p50);
        report.set("read_tail_ms", d.tail);
        println!(
            "  coverage reads: n={} p50 {:.5} ms {} {:.5} ms",
            d.n,
            d.p50,
            d.tail_label(),
            d.tail
        );
    }
}

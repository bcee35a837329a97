//! Whole-analysis parallel drivers: the paper's execution model end to end.
//!
//! A real RAxML analysis runs tens of inferences plus 100–1,000 bootstraps
//! (§3.1). [`ParallelAnalysis`] reproduces the paper's arrangement on the
//! native runtime: one worker process per concurrent bootstrap, each
//! alternating PPE-side search control with off-loaded likelihood kernels,
//! under any of the four scheduling policies.

use std::sync::Arc;

use mgps_runtime::native::{MgpsRuntime, RuntimeConfig};
use mgps_runtime::policy::{KernelKind, SchedulerKind};
use phylo::alignment::PatternAlignment;
use phylo::bootstrap::bootstrap_replicate;
use phylo::model::SubstModel;
use phylo::search::{hill_climb_with, SearchConfig, SearchResult};

use crate::adapters::OffloadedEngine;

/// Configuration of a parallel analysis.
#[derive(Debug, Clone, Copy)]
pub struct ParallelAnalysis {
    /// Runtime (machine + scheduler) configuration.
    pub runtime: RuntimeConfig,
    /// Worker processes to run concurrently ("MPI processes").
    pub workers: usize,
    /// Search configuration for every inference.
    pub search: SearchConfig,
}

impl ParallelAnalysis {
    /// A Cell-shaped analysis under `scheduler` with `workers` processes.
    ///
    /// Dynamic granularity control (§5.2) is enabled: each kernel is
    /// optimistically off-loaded and measured, and kernels that fail the
    /// `t_spe + t_code + 2·t_comm < t_ppe` profitability test fall back to
    /// their PPE copies until a periodic re-probe. On hosts where a
    /// kernel's chunk time is smaller than the off-load signalling cost,
    /// this is where most of the end-to-end time goes.
    pub fn cell(scheduler: SchedulerKind, workers: usize) -> ParallelAnalysis {
        ParallelAnalysis {
            runtime: RuntimeConfig::cell(scheduler).with_granularity_control(64),
            workers,
            search: SearchConfig::default(),
        }
    }

    /// Run `n_bootstraps` bootstrap searches, distributed over the worker
    /// processes, every likelihood kernel off-loaded through the runtime.
    /// Returns the results in bootstrap order plus the runtime's final
    /// statistics.
    pub fn run_bootstraps<M: SubstModel + Clone + 'static>(
        &self,
        model: M,
        data: &Arc<PatternAlignment>,
        n_bootstraps: usize,
        seed: u64,
    ) -> (Vec<SearchResult>, AnalysisStats) {
        self.run_bootstraps_on(&MgpsRuntime::new(self.runtime), model, data, n_bootstraps, seed)
    }

    /// [`Self::run_bootstraps`] on a runtime the caller built from
    /// `self.runtime` (with whatever metrics sink it wants to read).
    fn run_bootstraps_on<M: SubstModel + Clone + 'static>(
        &self,
        rt: &MgpsRuntime,
        model: M,
        data: &Arc<PatternAlignment>,
        n_bootstraps: usize,
        seed: u64,
    ) -> (Vec<SearchResult>, AnalysisStats) {
        assert!(self.workers >= 1, "need at least one worker");
        let mut results: Vec<Option<SearchResult>> = Vec::new();
        results.resize_with(n_bootstraps, || None);

        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..self.workers {
                let model = model.clone();
                let data = Arc::clone(data);
                let search = self.search;
                let stride = self.workers;
                handles.push(scope.spawn(move || {
                    let mut out = Vec::new();
                    // Static round-robin assignment of bootstraps to
                    // workers, as an MPI master-worker scheme would issue
                    // them.
                    let mut ctx = rt.enter_process();
                    let mut b = w;
                    while b < n_bootstraps {
                        let replicate =
                            Arc::new(bootstrap_replicate(&data, seed.wrapping_add(b as u64)));
                        let mut engine =
                            OffloadedEngine::new(&mut ctx, model.clone(), replicate);
                        let r = hill_climb_with(
                            &mut engine,
                            data.n_taxa(),
                            &search,
                            seed ^ (b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                        );
                        out.push((b, r));
                        b += stride;
                    }
                    out
                }));
            }
            for h in handles {
                for (b, r) in h.join().expect("worker process panicked") {
                    results[b] = Some(r);
                }
            }
        });

        let stats = AnalysisStats {
            context_switches: rt.context_switches(),
            final_degree: rt.current_degree(),
            mgps: rt.mgps_stats(),
            throttled: KernelKind::ALL.map(|k| rt.is_throttled(k)),
        };
        let results = results
            .into_iter()
            .map(|r| r.expect("every bootstrap produced a result"))
            .collect();
        (results, stats)
    }
}

/// Runtime statistics from one parallel analysis.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisStats {
    /// Voluntary PPE context switches.
    pub context_switches: u64,
    /// Loop degree in force at the end.
    pub final_degree: usize,
    /// MGPS counters `(evaluations, activations, deactivations)`, when the
    /// adaptive scheduler was used.
    pub mgps: Option<(u64, u64, u64)>,
    /// Which kernels the granularity controller has throttled to the PPE,
    /// in [`KernelKind::ALL`] order.
    pub throttled: [bool; 3],
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgps_runtime::metrics::{AtomicMetrics, Counter};
    use mgps_runtime::FaultPlan;
    use phylo::alignment::Alignment;
    use phylo::model::Jc69;
    use phylo::search::hill_climb;

    /// Differential oracle for the off-load path: every scheduler, one and
    /// two workers, unarmed and under a recoverable fault plan, reproduces
    /// the serial search bootstrap for bootstrap.
    #[test]
    fn offload_matrix_matches_serial_search() {
        let data =
            Arc::new(PatternAlignment::compress(&Alignment::synthetic(6, 60, &Jc69, 0.1, 11)));
        let search =
            SearchConfig { max_rounds: 1, branch_passes: 1, restarts: 1, ..Default::default() };
        let serial: Vec<SearchResult> = (0..2u64)
            .map(|b| {
                let replicate = bootstrap_replicate(&data, 21 + b);
                let seed = 21 ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                hill_climb(&Jc69, &replicate, &search, seed)
            })
            .collect();
        let armed = FaultPlan::parse("seed=5,pin=crash@0,pin=dma@3,backoff=1000").unwrap();
        let mut cells = Vec::new();
        for scheduler in [
            SchedulerKind::Edtlp,
            SchedulerKind::LinuxLike,
            SchedulerKind::StaticHybrid { spes_per_loop: 2 },
            SchedulerKind::StaticHybrid { spes_per_loop: 4 },
            SchedulerKind::Mgps,
        ] {
            for workers in [1, 2] {
                for plan in [FaultPlan::inert(), armed] {
                    let mut cell = ParallelAnalysis::cell(scheduler, workers);
                    cell.runtime.faults = plan;
                    cells.push(cell);
                }
            }
        }
        // Without granularity control `offload_kernel` is `offload_loop`.
        let mut plain = ParallelAnalysis::cell(SchedulerKind::Mgps, 2);
        plain.runtime.granularity_retry = None;
        cells.push(plain);

        for mut cell in cells {
            cell.search = search;
            let metrics = Arc::new(AtomicMetrics::new());
            let rt = MgpsRuntime::with_metrics(cell.runtime, Arc::clone(&metrics) as _);
            let (results, _) = cell.run_bootstraps_on(&rt, Jc69, &data, serial.len(), 21);
            let runtime = cell.runtime;
            let (faults, granularity) = (runtime.faults.to_spec(), runtime.granularity_retry);
            let name = format!("{:?}", (runtime.scheduler, cell.workers, faults, granularity));
            for (b, (got, want)) in results.iter().zip(&serial).enumerate() {
                let (l, w) = (got.lnl, want.lnl);
                assert!((l - w).abs() < 1e-6, "{name} bootstrap {b}: {l} vs serial {w}");
                let same_topology = got.tree.bipartitions() == want.tree.bipartitions();
                assert!(same_topology, "{name} bootstrap {b}: topology differs from serial");
            }
            assert!(metrics.get(Counter::Offloads) > 0, "{name}: nothing was off-loaded");
            // Every injected fault was answered by a retry or the PPE copy.
            let injected = metrics.get(Counter::FaultsInjected);
            let recovered =
                metrics.get(Counter::OffloadRetries) + metrics.get(Counter::PpeFallbacks);
            assert_eq!(injected >= 1, runtime.faults.armed(), "{name}: {injected} faults");
            assert_eq!(injected, recovered, "{name}: a fault went unrecovered");
        }
    }
}

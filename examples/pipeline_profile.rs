//! Microarchitectural profiling: drive one DPU's revolver pipeline
//! directly and read the Fig 9–11 counters — issue utilization, stall
//! attribution, instruction mix, and thread activity.
//!
//! ```text
//! cargo run --release --example pipeline_profile
//! ```

use alpha_pim_sim::instr::InstrClass;
use alpha_pim_sim::pipeline::simulate_dpu_profiled;
use alpha_pim_sim::trace::TaskletTrace;
use alpha_pim_sim::{CounterId, PipelineConfig};

fn main() {
    let cfg = PipelineConfig::default();
    println!("UPMEM DPU pipeline model: revolver period {} cycles, DMA {} + {:.2}/byte\n",
        cfg.revolver_period, cfg.dma_startup_cycles, cfg.dma_cycles_per_byte);

    for (name, traces) in [
        ("compute-bound, 16 tasklets", compute_bound(16)),
        ("compute-bound, 4 tasklets", compute_bound(4)),
        ("memory-bound (per-edge 8B DMA)", memory_bound(16)),
        ("sync-heavy (contended mutex)", sync_heavy(16)),
    ] {
        let r = simulate_dpu_profiled(&traces, &cfg);
        let c = |id| r.counters.get(id);
        let (cycles, issued) = (c(CounterId::DpuCycles), c(CounterId::SlotIssue));
        println!("## {name}");
        println!(
            "   cycles {:>9}  issued {:>9}  IPC {:.3}  avg active threads {:.2}",
            cycles,
            issued,
            issued as f64 / cycles as f64,
            r.avg_active_threads,
        );
        println!(
            "   idle: memory {:.1}%  revolver {:.1}%  rf-hazard {:.1}%  (active {:.1}%)",
            pct(c(CounterId::SlotMemory), cycles),
            pct(c(CounterId::SlotRevolver), cycles),
            pct(c(CounterId::SlotRf), cycles),
            pct(issued, cycles),
        );
        let mix: Vec<String> = InstrClass::ALL
            .iter()
            .map(|&c| format!("{c} {:.0}%", r.instr_mix.fraction(c) * 100.0))
            .collect();
        println!("   mix: {}  ({} mutex retries)\n", mix.join("  "), c(CounterId::SpinRetries));
    }
}

fn pct(x: u64, total: u64) -> f64 {
    x as f64 / total as f64 * 100.0
}

fn compute_bound(tasklets: u32) -> Vec<TaskletTrace> {
    (0..tasklets)
        .map(|_| {
            let mut t = TaskletTrace::new();
            t.dma(2048);
            t.compute(InstrClass::Arith, 4000);
            t.compute(InstrClass::LoadStore, 1000);
            t.barrier();
            t
        })
        .collect()
}

fn memory_bound(tasklets: u32) -> Vec<TaskletTrace> {
    (0..tasklets)
        .map(|_| {
            let mut t = TaskletTrace::new();
            for _ in 0..200 {
                t.dma(8);
                t.compute(InstrClass::Arith, 6);
            }
            t.barrier();
            t
        })
        .collect()
}

fn sync_heavy(tasklets: u32) -> Vec<TaskletTrace> {
    (0..tasklets)
        .map(|_| {
            let mut t = TaskletTrace::new();
            for _ in 0..150 {
                t.mutex_lock(0);
                t.compute(InstrClass::LoadStore, 3);
                t.mutex_unlock(0);
                t.compute(InstrClass::Arith, 4);
            }
            t.barrier();
            t
        })
        .collect()
}

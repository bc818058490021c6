//! Std-only bench: the revolver-pipeline discrete-event simulator itself
//! (throughput of the substrate, Fig 9–11 cost).

use alpha_pim_bench::stopwatch::bench;
use alpha_pim_sim::instr::InstrClass;
use alpha_pim_sim::pipeline::simulate_dpu_profiled;
use alpha_pim_sim::trace::TaskletTrace;
use alpha_pim_sim::PipelineConfig;

fn traces(tasklets: u32, work: u32) -> Vec<TaskletTrace> {
    (0..tasklets)
        .map(|t| {
            let mut tr = TaskletTrace::new();
            for i in 0..8 {
                tr.dma(512 + 64 * ((t + i) % 4));
                tr.compute(InstrClass::Arith, work);
                tr.compute(InstrClass::LoadStore, work / 4);
                tr.mutex_lock((i % 4) as u16);
                tr.compute(InstrClass::LoadStore, 2);
                tr.mutex_unlock((i % 4) as u16);
            }
            tr.barrier();
            tr
        })
        .collect()
}

fn main() {
    let cfg = PipelineConfig::default();
    for tasklets in [1u32, 8, 16, 24] {
        let t = traces(tasklets, 512);
        bench(&format!("pipeline/{tasklets}"), 20, || simulate_dpu_profiled(&t, &cfg));
    }
}

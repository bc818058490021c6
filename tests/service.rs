//! Property suite for the multi-tenant sustained-load front-end
//! (`alpha_pim::service`), driven across ≥ 64 seeded scenarios:
//!
//! * **Ledger balance** — every run partitions arrivals into
//!   `admitted + rejected` and admitted queries into
//!   `served + shed_wait + shed_deadline`, globally, per tenant, and in the
//!   counter registry, under randomized tenancy, queue pressure, and
//!   deadline budgets.
//! * **Weighted fairness** — while every tenant stays backlogged, each
//!   tenant's served count tracks its effective-weight share of every
//!   dispatch prefix within a fixed slack.
//! * **No starvation under priority mixing** — a backlogged tenant is never
//!   left unserved for more than one full weighted round (plus slack),
//!   even against high-priority, high-weight competitors.
//! * **Thread-count determinism** — the entire `ServiceReport` (dispatch
//!   order, latencies, fingerprint, counters) is bit-identical at 1 and 4
//!   simulation threads.

use alpha_pim::serve::{Query, ServeConfig};
use alpha_pim::service::{
    seeded_workload, Arrival, Priority, ServiceConfig, ServiceEngine, TenantSpec,
};
use alpha_pim::{AlphaPim, FastPath};
use alpha_pim_sim::par::SimThreads;
use alpha_pim_sim::{CounterId, PimConfig, SimFidelity};
use alpha_pim_sparse::gen::rng::SplitMix64;
use alpha_pim_sparse::{gen, Graph};

const SCENARIOS: u64 = 64;

fn engine() -> AlphaPim {
    AlphaPim::new(PimConfig {
        num_dpus: 8,
        fidelity: SimFidelity::Full,
        ..Default::default()
    })
    .expect("valid config")
}

/// The hosted catalog: three small graphs with distinct structure, all
/// weighted so SSSP queries are non-trivial.
fn catalog() -> Vec<Graph> {
    vec![
        Graph::from_coo(gen::erdos_renyi(96, 560, 21).expect("valid recipe"))
            .with_random_weights(9),
        Graph::from_coo(gen::erdos_renyi(72, 430, 22).expect("valid recipe"))
            .with_random_weights(9),
        Graph::from_coo(gen::erdos_renyi(60, 330, 23).expect("valid recipe"))
            .with_random_weights(9),
    ]
}

fn priority_from(draw: u32) -> Priority {
    match draw % 3 {
        0 => Priority::Low,
        1 => Priority::Normal,
        _ => Priority::High,
    }
}

/// A randomized-but-seeded scenario: 1–4 tenants with mixed weights and
/// priorities, 1–3 hosted graphs, optional queue pressure and deadline
/// budgets, and an open-loop workload of `count` mixed queries.
fn scenario(seed: u64, count: usize, catalog_nodes: &[u32]) -> (ServiceConfig, Vec<Arrival>, usize) {
    let mut rng = SplitMix64::new(0xA11A_5EED ^ seed.wrapping_mul(0x9E37_79B9));
    let ntenants = 1 + rng.usize_below(4);
    let tenants: Vec<TenantSpec> = (0..ntenants)
        .map(|_| TenantSpec {
            weight: 1 + rng.u32_below(8),
            priority: priority_from(rng.next_u64() as u32),
        })
        .collect();
    let graphs_used = 1 + rng.usize_below(catalog_nodes.len());
    let queue_capacity = [4usize, 8, 16, 1024][rng.usize_below(4)];
    let deadline_budget_cycles = if rng.u32_below(2) == 0 {
        None
    } else {
        Some(20_000 + rng.u64_below(500_000))
    };
    let batch_size = [1u32, 2, 4, 8][rng.usize_below(4)];
    let mean_gap = rng.u64_below(50_000);
    let workload = seeded_workload(
        seed ^ 0xD15B_A7C4,
        mean_gap,
        count,
        ntenants as u32,
        &catalog_nodes[..graphs_used],
        [3, 3, 1],
    );
    let config = ServiceConfig {
        tenants,
        queue_capacity,
        deadline_budget_cycles,
        quarantine_threshold: None,
        serve: ServeConfig { batch_size, fast_path: FastPath::Analytic, ..Default::default() },
    };
    (config, workload, graphs_used)
}

#[test]
fn ledgers_balance_under_randomized_pressure_across_seeded_scenarios() {
    let eng = engine();
    let graphs = catalog();
    let nodes: Vec<u32> = graphs.iter().map(|g| g.nodes()).collect();
    for seed in 0..SCENARIOS {
        let (config, workload, graphs_used) = scenario(seed, 16, &nodes);
        let ntenants = config.tenants.len();
        let ctx = format!("scenario {seed}");
        let mut svc = ServiceEngine::new(&eng, config);
        let report = svc.run(&graphs[..graphs_used], &workload).expect("scenario runs");

        // Global admission and outcome partitions, straight from the
        // counter registry.
        assert_eq!(report.arrivals(), workload.len() as u64, "{ctx}");
        assert_eq!(report.counters.check_ledgers(), Ok(()), "{ctx}");

        // Per-tenant ledgers balance and sum to the global counters.
        assert_eq!(report.tenants.len(), ntenants, "{ctx}");
        let mut sums = [0u64; 6];
        for (t, ledger) in report.tenants.iter().enumerate() {
            assert_eq!(ledger.check_ledgers(), Ok(()), "{ctx} tenant {t}");
            sums[0] += ledger.arrivals;
            sums[1] += ledger.admitted;
            sums[2] += ledger.rejected;
            sums[3] += ledger.served;
            sums[4] += ledger.shed_wait;
            sums[5] += ledger.shed_deadline;
        }
        assert_eq!(sums[0], report.arrivals(), "{ctx}");
        assert_eq!(sums[1], report.admitted(), "{ctx}");
        assert_eq!(sums[2], report.rejected(), "{ctx}");
        assert_eq!(sums[3], report.served(), "{ctx}");
        assert_eq!(sums[4], report.shed_wait(), "{ctx}");
        assert_eq!(sums[5], report.shed_deadline(), "{ctx}");

        // Cross-layer: fault-free deadline sheds are exactly the inner
        // executor's `serve.shed` count, and only dispatched queries carry
        // latencies and dispatch slots.
        assert_eq!(
            report.shed_deadline(),
            report.counters.get(CounterId::ServeShed),
            "{ctx}: queue.shed_deadline must mirror serve.shed without faults"
        );
        let executed = (report.served() + report.shed_deadline()) as usize;
        assert_eq!(report.latencies_cycles.len(), executed, "{ctx}");
        assert_eq!(report.dispatch_order.len(), executed, "{ctx}");
        let active =
            report.tenants.iter().filter(|t| t.arrivals > 0).count() as u64;
        assert_eq!(report.counters.get(CounterId::TenantsActive), active, "{ctx}");
        assert!(report.makespan_cycles > 0, "{ctx}");
    }
}

/// A continuously-backlogged burst: every tenant submits `per_tenant`
/// queries to one graph at cycle 0, so the dispatch order is a pure
/// weighted-fair schedule until a tenant drains.
fn burst_scenario(seed: u64, per_tenant: usize) -> (ServiceConfig, Vec<Arrival>) {
    let mut rng = SplitMix64::new(0xFA1F_0000 ^ seed.wrapping_mul(0x2545_F491));
    let ntenants = 2 + rng.usize_below(3);
    let tenants: Vec<TenantSpec> = (0..ntenants)
        .map(|_| TenantSpec {
            weight: 1 + rng.u32_below(8),
            priority: priority_from(rng.next_u64() as u32),
        })
        .collect();
    let workload: Vec<Arrival> = (0..per_tenant * ntenants)
        .map(|i| Arrival {
            at_cycle: 0,
            tenant: (i % ntenants) as u32,
            graph: 0,
            query: Query::Bfs { source: (i % 60) as u32 },
        })
        .collect();
    let config = ServiceConfig {
        tenants,
        queue_capacity: 4096,
        deadline_budget_cycles: None,
        quarantine_threshold: None,
        serve: ServeConfig { batch_size: 4, fast_path: FastPath::Analytic, ..Default::default() },
    };
    (config, workload)
}

#[test]
fn weighted_fairness_and_no_starvation_hold_while_backlogged() {
    let eng = engine();
    let graphs = catalog();
    for seed in 0..SCENARIOS {
        let (config, workload) = burst_scenario(seed, 8);
        let specs = config.tenants.clone();
        let ntenants = specs.len();
        let per_tenant = workload.len() / ntenants;
        let ctx = format!("burst scenario {seed}");
        let mut svc = ServiceEngine::new(&eng, config);
        let report = svc.run(&graphs[..1], &workload).expect("burst runs");

        // Nothing sheds in a burst with ample capacity and no budget:
        // every arrival is dispatched exactly once.
        assert_eq!(report.served(), workload.len() as u64, "{ctx}");
        let mut seen = report.dispatch_order.clone();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..workload.len() as u32).collect::<Vec<_>>(),
            "{ctx}: dispatch order must cover every arrival exactly once"
        );

        let eff: Vec<u64> =
            specs.iter().map(|t| u64::from(t.weight.max(1)) * t.priority.boost()).collect();
        let total_eff: u64 = eff.iter().sum();
        let fair_slack = ntenants as f64 + 2.0;

        let mut served = vec![0usize; ntenants];
        let mut last_pos = vec![0usize; ntenants];
        for (pos, &idx) in report.dispatch_order.iter().enumerate() {
            let t = workload[idx as usize].tenant as usize;

            // No starvation: while tenant `t` was backlogged, the gap since
            // its previous service stays within one weighted round.
            if served[t] < per_tenant {
                let round = total_eff.div_ceil(eff[t]);
                let gap = pos - last_pos[t];
                assert!(
                    gap as u64 <= round + ntenants as u64 + 1,
                    "{ctx}: tenant {t} starved for {gap} dispatches (round {round})"
                );
            }
            served[t] += 1;
            last_pos[t] = pos;

            // Weighted fairness: on every prefix where all tenants remain
            // backlogged, served counts track effective-weight shares.
            let k = pos + 1;
            if served.iter().all(|&s| s < per_tenant) {
                for u in 0..ntenants {
                    let share = k as f64 * eff[u] as f64 / total_eff as f64;
                    let dev = (served[u] as f64 - share).abs();
                    assert!(
                        dev <= fair_slack,
                        "{ctx}: tenant {u} served {} of {k} (share {share:.2}, dev {dev:.2})",
                        served[u]
                    );
                }
            }
        }
    }
}

#[test]
fn service_reports_are_bit_identical_at_1_and_4_threads() {
    let eng = engine();
    let graphs = catalog();
    let nodes: Vec<u32> = graphs.iter().map(|g| g.nodes()).collect();
    for seed in 0..SCENARIOS {
        let (config, workload, graphs_used) = scenario(seed, 10, &nodes);
        let ctx = format!("scenario {seed}");

        SimThreads::set(1);
        let report_1 = ServiceEngine::new(&eng, config.clone())
            .run(&graphs[..graphs_used], &workload)
            .expect("1-thread run");
        SimThreads::set(4);
        let report_4 = ServiceEngine::new(&eng, config)
            .run(&graphs[..graphs_used], &workload)
            .expect("4-thread run");
        SimThreads::set(1);

        assert_eq!(
            report_1.dispatch_order, report_4.dispatch_order,
            "{ctx}: scheduling decisions must not depend on the thread count"
        );
        assert_eq!(
            report_1.result_fingerprint, report_4.result_fingerprint,
            "{ctx}: result bits must not depend on the thread count"
        );
        assert_eq!(report_1, report_4, "{ctx}: full reports must be bit-identical");
    }
}

//! The observability counter registry: every quantity the simulator can
//! attribute a cycle (or an event, or a byte) to, with stable indices and
//! labels so reports, exporters, and tests all speak the same taxonomy.
//!
//! Counters come in the groups below (see `DESIGN.md` §9 for the mapping to
//! the paper's Fig 2/Fig 9 stall categories). Every zero-remainder identity
//! they promise is one row of [`LEDGERS`], and
//! [`CounterSet::check_ledgers`] is the one checker for all of them:
//!
//! * **Slot-level** (`slot.*`, `dpu.cycles`) — one entry per issue slot of
//!   one DPU; `slot.issue + slot.memory + slot.revolver + slot.rf ==
//!   dpu.cycles` by construction.
//! * **Tasklet-level** (`tasklet.*`) — exact wall-clock attribution per
//!   tasklet: every cycle of every tasklet's lifetime is assigned to
//!   exactly one wait (or issue, or tail) category, so the tasklet
//!   counters sum to `tasklet.budget = tasklets × dpu.cycles`.
//! * **Event** (`event.*`) — discrete occurrences: DMA transfers and their
//!   bytes, mutex acquisitions, contended-mutex retries, barrier crossings.
//! * **Host/transfer** (`xfer.*`, `host.*`) — bus bytes and host-side work
//!   recorded by the transfer and merge models around the kernel launch.
//! * **Faults** (`slot.fault`, `tasklet.fault`, `fault.*`) — the
//!   resilience layer: injected/detected/handled fault events and the
//!   recovery cycles they add, extending both cycle partitions so the
//!   zero-remainder invariants keep holding under any
//!   [`crate::config::FaultPlan`].
//! * **Serving** (`serve.*`) — amortization bookkeeping of the batched
//!   multi-query engine: partition-cache hits/misses and the bus bytes and
//!   transfer batches the shared per-superstep broadcast saved relative to
//!   running each query alone. Event-like: outside both cycle partitions.
//! * **Checkpointing** (`ckpt.*`, `serve.shed`) — crash-recovery
//!   bookkeeping of the serving engine: snapshots written, snapshot bytes,
//!   restores performed, and deadline-shed queries. Event-like: outside
//!   both cycle partitions, so the zero-remainder invariants are
//!   unaffected by any checkpoint policy.
//! * **Service** (`queue.*`, `tenant.*`, `serve.cache_evictions`,
//!   `serve.evicted_bytes`) — the multi-tenant sustained-load front-end:
//!   the admission ledger (`queue.arrivals == queue.admitted +
//!   queue.rejected`), the outcome ledger (`queue.admitted ==
//!   queue.served + queue.shed_wait + queue.shed_deadline`), cumulative
//!   queue-wait cycles, active tenants, and byte-budgeted
//!   partition-cache evictions. Event-like: outside both cycle
//!   partitions.
//! * **Delta** (`delta.*`) — the dynamic-graph mutation layer: epoch
//!   admissions, the edge ledger (`delta.edges_inserted +
//!   delta.edges_deleted == delta.edges_applied`; applied + redundant ==
//!   requested), the partition-dirtiness ledger (`delta.partitions_dirty +
//!   delta.partitions_clean == delta.partitions_total`), and the
//!   incremental-recompute ledger (`delta.frontier_seeded +
//!   delta.frontier_saved == delta.frontier_full`, counting source
//!   vertices an incremental recompute seeded versus the full-frontier
//!   size a from-scratch rerun would have touched). Event-like: outside
//!   both cycle partitions.
//! * **Integrity** (`sdc.*`, `quarantine.*`) — the silent-data-corruption
//!   layer: ABFT merge-time verification of partition outputs and the
//!   per-DPU health quarantine. Two ledgers: `sdc.detected + sdc.escaped
//!   == sdc.injected` (with verification enabled `escaped == 0`), and
//!   `sdc.detected == sdc.corrected` (every detected corruption is
//!   recomputed on a healthy DPU). The quarantine scoreboard partitions
//!   the machine: `quarantine.dpus_active + quarantine.dpus_quarantined
//!   == quarantine.dpus_total`. Event-like: outside both cycle
//!   partitions (`sdc.recompute_cycles` is informational host-side time,
//!   not part of the slot/tasklet budgets).

/// Number of distinct counters in the registry.
pub const NUM_COUNTERS: usize = 81;

/// Identifier of one observability counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterId {
    /// Issue slots in which an instruction dispatched.
    SlotIssue,
    /// Idle issue slots while some tasklet waited on DMA.
    SlotMemory,
    /// Idle issue slots attributed to the revolver dispatch constraint.
    SlotRevolver,
    /// Idle issue slots attributed to even/odd register-bank hazards.
    SlotRf,
    /// The DPU makespan in cycles (slot counters sum to this).
    DpuCycles,
    /// Tasklet cycles spent issuing an instruction.
    TaskletIssue,
    /// Tasklet cycles ready to issue but losing the dispatch slot to a
    /// sibling tasklet (dispatch-slot contention).
    TaskletDispatch,
    /// Tasklet cycles waiting out the ≥11-cycle revolver spacing.
    TaskletRevolver,
    /// Tasklet cycles delayed by an even/odd register-bank hazard.
    TaskletRf,
    /// Tasklet cycles queued behind the serialized per-DPU DMA engine.
    TaskletDmaQueue,
    /// Tasklet cycles inside a DMA transfer's fixed startup window.
    TaskletDmaStartup,
    /// Tasklet cycles inside a DMA transfer's per-byte streaming phase.
    TaskletDmaTransfer,
    /// Tasklet cycles backing off after a contended mutex acquire.
    TaskletMutex,
    /// Tasklet cycles parked at the all-tasklet barrier.
    TaskletBarrier,
    /// Tasklet cycles after its trace ended (peer skew + pipeline drain).
    TaskletTail,
    /// `tasklets × dpu.cycles` — the budget the tasklet counters sum to.
    TaskletBudget,
    /// Extra `Sync` instructions issued retrying contended mutexes.
    SpinRetries,
    /// MRAM↔WRAM DMA transfers launched.
    DmaTransfers,
    /// Bytes moved by MRAM↔WRAM DMA transfers.
    DmaBytes,
    /// Successful (uncontended or eventually-won) mutex acquisitions.
    MutexAcquires,
    /// Tasklet arrivals at the all-tasklet barrier.
    BarrierCrossings,
    /// Bus bytes of CPU→DPU scatter batches (padded to the largest payload).
    XferScatterBytes,
    /// Bus bytes of CPU→DPU broadcasts (`payload × num_dpus`; no multicast).
    XferBroadcastBytes,
    /// Bus bytes of DPU→CPU gather batches.
    XferGatherBytes,
    /// Parallel-transfer batches issued by the host.
    XferBatches,
    /// Bytes streamed by the host-side partial-result merge.
    HostMergeBytes,
    /// Bytes streamed by host-side convergence/frontier scans.
    HostScanBytes,
    /// Host-side reductions (merges + scans) performed.
    HostReductions,
    /// Extra issue slots a detailed DPU spends on fault recovery
    /// (straggler slowdown, ECC retry backoff, redistribution re-runs);
    /// extends [`CounterId::SLOT_CYCLES`] so the slot partition still sums
    /// to [`CounterId::DpuCycles`] under faults.
    SlotFault,
    /// Per-tasklet cycles attributed to fault recovery; extends
    /// [`CounterId::TASKLET_CYCLES`] so the tasklet partition still sums
    /// to [`CounterId::TaskletBudget`] under faults.
    TaskletFault,
    /// Faults the plan injected (all kinds, all DPUs + transfers).
    FaultsInjected,
    /// Faults the host-side resilience layer detected. Equal to
    /// [`CounterId::FaultsInjected`] by construction (every injected fault
    /// surfaces as a detectable event).
    FaultsDetected,
    /// Faults recovered (retried, redistributed, or absorbed) without
    /// losing results.
    FaultsRecovered,
    /// DPUs lost with no redistribution possible: their partitions were
    /// dropped and the kernel completed `Degraded`.
    FaultsLost,
    /// Bounded-retry attempts the resilience policy issued (ECC scrubs +
    /// transfer retransmits).
    FaultRetries,
    /// Dead-DPU row blocks redistributed to healthy DPUs.
    FaultRedistributions,
    /// Recovery cycles attributed to straggler slowdown (detailed DPUs).
    FaultStragglerCycles,
    /// Recovery cycles attributed to retry backoff and redistribution
    /// re-runs (detailed DPUs). Together with
    /// [`CounterId::FaultStragglerCycles`] this partitions
    /// [`CounterId::SlotFault`] with zero remainder.
    FaultRetryCycles,
    /// CPU↔DPU transfer batches that timed out and were retransmitted.
    FaultTimeouts,
    /// Partitioned-matrix cache hits in the serving engine (queries that
    /// skipped re-partitioning and MRAM reload entirely).
    ServeCacheHits,
    /// Partitioned-matrix cache misses (partition + load paid once, then
    /// reused by every subsequent query on the same graph).
    ServeCacheMisses,
    /// Bus bytes the batched per-superstep broadcast saved versus issuing
    /// each live query's input-vector load as its own full transfer.
    ServeBroadcastSavedBytes,
    /// Host→DPU transfer batches the serving engine elided by packing the
    /// live queries' frontiers into one batch per superstep.
    ServeBatchesSaved,
    /// Checkpoint snapshots written at superstep boundaries.
    CkptSnapshots,
    /// Bytes of serialized checkpoint state written (snapshots + journal).
    CkptBytes,
    /// Batches resumed from a checkpoint instead of starting cold.
    CkptRestores,
    /// Queries shed because their cumulative kernel cycles exceeded the
    /// configured per-query deadline budget (finished `degraded`).
    ServeShed,
    /// Queries submitted to the service front-end (admitted + rejected).
    QueueArrivals,
    /// Queries the admission controller accepted into the queue.
    QueueAdmitted,
    /// Queries the admission controller turned away at the door because
    /// the bounded queue was full (lowest-priority, latest-arrival first).
    QueueRejected,
    /// Admitted queries that were dispatched and finished with a full
    /// (non-degraded) result.
    QueueServed,
    /// Admitted queries whose deadline budget was already exhausted by
    /// queue wait before dispatch; shed without executing.
    QueueShedWait,
    /// Admitted queries dispatched with a reduced (queue-wait-debited)
    /// deadline that the executor then shed mid-run; together with
    /// [`CounterId::QueueServed`] and [`CounterId::QueueShedWait`] this
    /// partitions [`CounterId::QueueAdmitted`] with zero remainder.
    QueueShedDeadline,
    /// Total model-clock cycles admitted queries spent waiting in the
    /// queue between arrival and dispatch (or wait-shedding).
    QueueWaitCycles,
    /// Distinct tenants that submitted at least one query to the service.
    TenantsActive,
    /// Partition-cache entries evicted to stay under the byte budget (or
    /// the entry cap) of the serving engine.
    ServeCacheEvictions,
    /// Resident bytes released by those evictions.
    ServeEvictedBytes,
    /// Mutation epochs admitted by the delta layer (one per applied
    /// [`MutationBatch`], empty batches included).
    DeltaEpochs,
    /// Edge mutations requested across all admitted batches (inserts +
    /// deletes, effective or not).
    DeltaEdgesRequested,
    /// Edge mutations that changed the graph (the effective subset of
    /// [`CounterId::DeltaEdgesRequested`]).
    DeltaEdgesApplied,
    /// Effective edge insertions (new (row, col) pairs materialized).
    DeltaEdgesInserted,
    /// Effective edge deletions (existing (row, col) pairs removed).
    DeltaEdgesDeleted,
    /// Redundant mutations dropped as no-ops: inserts duplicating an
    /// existing edge and deletes of absent edges. Together with
    /// [`CounterId::DeltaEdgesApplied`] this partitions
    /// [`CounterId::DeltaEdgesRequested`] with zero remainder.
    DeltaEdgesRedundant,
    /// Row partitions in the serving plan at each epoch application
    /// (dirty + clean by construction).
    DeltaPartitionsTotal,
    /// Partitions whose row range was touched by an effective mutation and
    /// therefore re-planned (and dropped from the partition cache).
    DeltaPartitionsDirty,
    /// Partitions untouched by the epoch's mutations: they keep their plan
    /// and stay cache-resident.
    DeltaPartitionsClean,
    /// Frontier size a from-scratch recompute would have seeded (the full
    /// per-query restart cost the incremental path is measured against).
    DeltaFrontierFull,
    /// Frontier vertices the incremental recompute actually seeded
    /// (affected boundary + insertion tails).
    DeltaFrontierSeeded,
    /// Frontier vertices the incremental recompute avoided seeding versus
    /// a from-scratch rerun. Together with
    /// [`CounterId::DeltaFrontierSeeded`] this partitions
    /// [`CounterId::DeltaFrontierFull`] with zero remainder.
    DeltaFrontierSaved,
    /// Partition outputs silently corrupted by the fault plan's
    /// `SilentFlip` verdicts (no detectable event is raised at injection
    /// time — only the ABFT merge guard can catch them).
    SdcInjected,
    /// Corruptions caught by the merge-time checksum guard. Together with
    /// [`CounterId::SdcEscaped`] this partitions
    /// [`CounterId::SdcInjected`] with zero remainder.
    SdcDetected,
    /// Detected corruptions repaired by recomputing the partition on a
    /// healthy DPU. Equal to [`CounterId::SdcDetected`] by construction
    /// (detection always localizes to one partition, which is re-run).
    SdcCorrected,
    /// Corruptions that flowed into merged results unchecked (verification
    /// disabled). Zero whenever the merge guard is active.
    SdcEscaped,
    /// Partition outputs the merge guard verified (clean or corrupt).
    SdcChecks,
    /// Simulated DPU cycles spent re-running corrupted partitions on
    /// healthy stand-ins (informational; charged to the host-side merge
    /// phase, outside the slot/tasklet cycle partitions).
    SdcRecomputeCycles,
    /// Corruption strikes recorded against DPUs by the service health
    /// scoreboard (one per corrupted partition attributed to a DPU).
    QuarantineStrikes,
    /// DPUs moved into quarantine after reaching the strike threshold.
    QuarantineEvents,
    /// Serving-plan rebuilds triggered by quarantine changes (the machine
    /// is re-partitioned over the remaining healthy DPUs).
    QuarantineReplans,
    /// Machine size the quarantine scoreboard tracks (healthy +
    /// quarantined by construction).
    QuarantineDpusTotal,
    /// DPUs still eligible for kernel launches. Together with
    /// [`CounterId::QuarantineDpusQuarantined`] this partitions
    /// [`CounterId::QuarantineDpusTotal`] with zero remainder.
    QuarantineDpusActive,
    /// DPUs excluded from serving plans for exceeding the corruption
    /// strike threshold.
    QuarantineDpusQuarantined,
}

impl CounterId {
    /// Every counter, in stable display/index order.
    pub const ALL: [CounterId; NUM_COUNTERS] = [
        CounterId::SlotIssue,
        CounterId::SlotMemory,
        CounterId::SlotRevolver,
        CounterId::SlotRf,
        CounterId::DpuCycles,
        CounterId::TaskletIssue,
        CounterId::TaskletDispatch,
        CounterId::TaskletRevolver,
        CounterId::TaskletRf,
        CounterId::TaskletDmaQueue,
        CounterId::TaskletDmaStartup,
        CounterId::TaskletDmaTransfer,
        CounterId::TaskletMutex,
        CounterId::TaskletBarrier,
        CounterId::TaskletTail,
        CounterId::TaskletBudget,
        CounterId::SpinRetries,
        CounterId::DmaTransfers,
        CounterId::DmaBytes,
        CounterId::MutexAcquires,
        CounterId::BarrierCrossings,
        CounterId::XferScatterBytes,
        CounterId::XferBroadcastBytes,
        CounterId::XferGatherBytes,
        CounterId::XferBatches,
        CounterId::HostMergeBytes,
        CounterId::HostScanBytes,
        CounterId::HostReductions,
        CounterId::SlotFault,
        CounterId::TaskletFault,
        CounterId::FaultsInjected,
        CounterId::FaultsDetected,
        CounterId::FaultsRecovered,
        CounterId::FaultsLost,
        CounterId::FaultRetries,
        CounterId::FaultRedistributions,
        CounterId::FaultStragglerCycles,
        CounterId::FaultRetryCycles,
        CounterId::FaultTimeouts,
        CounterId::ServeCacheHits,
        CounterId::ServeCacheMisses,
        CounterId::ServeBroadcastSavedBytes,
        CounterId::ServeBatchesSaved,
        CounterId::CkptSnapshots,
        CounterId::CkptBytes,
        CounterId::CkptRestores,
        CounterId::ServeShed,
        CounterId::QueueArrivals,
        CounterId::QueueAdmitted,
        CounterId::QueueRejected,
        CounterId::QueueServed,
        CounterId::QueueShedWait,
        CounterId::QueueShedDeadline,
        CounterId::QueueWaitCycles,
        CounterId::TenantsActive,
        CounterId::ServeCacheEvictions,
        CounterId::ServeEvictedBytes,
        CounterId::DeltaEpochs,
        CounterId::DeltaEdgesRequested,
        CounterId::DeltaEdgesApplied,
        CounterId::DeltaEdgesInserted,
        CounterId::DeltaEdgesDeleted,
        CounterId::DeltaEdgesRedundant,
        CounterId::DeltaPartitionsTotal,
        CounterId::DeltaPartitionsDirty,
        CounterId::DeltaPartitionsClean,
        CounterId::DeltaFrontierFull,
        CounterId::DeltaFrontierSeeded,
        CounterId::DeltaFrontierSaved,
        CounterId::SdcInjected,
        CounterId::SdcDetected,
        CounterId::SdcCorrected,
        CounterId::SdcEscaped,
        CounterId::SdcChecks,
        CounterId::SdcRecomputeCycles,
        CounterId::QuarantineStrikes,
        CounterId::QuarantineEvents,
        CounterId::QuarantineReplans,
        CounterId::QuarantineDpusTotal,
        CounterId::QuarantineDpusActive,
        CounterId::QuarantineDpusQuarantined,
    ];

    /// The slot-level cycle categories (sum to [`CounterId::DpuCycles`]).
    pub const SLOT_CYCLES: [CounterId; 5] = [
        CounterId::SlotIssue,
        CounterId::SlotMemory,
        CounterId::SlotRevolver,
        CounterId::SlotRf,
        CounterId::SlotFault,
    ];

    /// The fault-cycle categories (sum to [`CounterId::SlotFault`]).
    pub const FAULT_CYCLES: [CounterId; 2] =
        [CounterId::FaultStragglerCycles, CounterId::FaultRetryCycles];

    /// The tasklet-level cycle categories (sum to
    /// [`CounterId::TaskletBudget`]).
    pub const TASKLET_CYCLES: [CounterId; 11] = [
        CounterId::TaskletIssue,
        CounterId::TaskletDispatch,
        CounterId::TaskletRevolver,
        CounterId::TaskletRf,
        CounterId::TaskletDmaQueue,
        CounterId::TaskletDmaStartup,
        CounterId::TaskletDmaTransfer,
        CounterId::TaskletMutex,
        CounterId::TaskletBarrier,
        CounterId::TaskletTail,
        CounterId::TaskletFault,
    ];

    /// Stable index of this counter within [`CounterId::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable dotted label used by the JSON/CSV exporters and the CLI.
    pub fn label(self) -> &'static str {
        match self {
            CounterId::SlotIssue => "slot.issue",
            CounterId::SlotMemory => "slot.memory",
            CounterId::SlotRevolver => "slot.revolver",
            CounterId::SlotRf => "slot.rf",
            CounterId::DpuCycles => "dpu.cycles",
            CounterId::TaskletIssue => "tasklet.issue",
            CounterId::TaskletDispatch => "tasklet.dispatch",
            CounterId::TaskletRevolver => "tasklet.revolver",
            CounterId::TaskletRf => "tasklet.rf",
            CounterId::TaskletDmaQueue => "tasklet.dma_queue",
            CounterId::TaskletDmaStartup => "tasklet.dma_startup",
            CounterId::TaskletDmaTransfer => "tasklet.dma_transfer",
            CounterId::TaskletMutex => "tasklet.mutex",
            CounterId::TaskletBarrier => "tasklet.barrier",
            CounterId::TaskletTail => "tasklet.tail",
            CounterId::TaskletBudget => "tasklet.budget",
            CounterId::SpinRetries => "event.spin_retries",
            CounterId::DmaTransfers => "event.dma_transfers",
            CounterId::DmaBytes => "event.dma_bytes",
            CounterId::MutexAcquires => "event.mutex_acquires",
            CounterId::BarrierCrossings => "event.barrier_crossings",
            CounterId::XferScatterBytes => "xfer.scatter_bytes",
            CounterId::XferBroadcastBytes => "xfer.broadcast_bytes",
            CounterId::XferGatherBytes => "xfer.gather_bytes",
            CounterId::XferBatches => "xfer.batches",
            CounterId::HostMergeBytes => "host.merge_bytes",
            CounterId::HostScanBytes => "host.scan_bytes",
            CounterId::HostReductions => "host.reductions",
            CounterId::SlotFault => "slot.fault",
            CounterId::TaskletFault => "tasklet.fault",
            CounterId::FaultsInjected => "fault.injected",
            CounterId::FaultsDetected => "fault.detected",
            CounterId::FaultsRecovered => "fault.recovered",
            CounterId::FaultsLost => "fault.lost_dpus",
            CounterId::FaultRetries => "fault.retries",
            CounterId::FaultRedistributions => "fault.redistributions",
            CounterId::FaultStragglerCycles => "fault.straggler_cycles",
            CounterId::FaultRetryCycles => "fault.retry_cycles",
            CounterId::FaultTimeouts => "fault.timeouts",
            CounterId::ServeCacheHits => "serve.cache_hits",
            CounterId::ServeCacheMisses => "serve.cache_misses",
            CounterId::ServeBroadcastSavedBytes => "serve.saved_broadcast_bytes",
            CounterId::ServeBatchesSaved => "serve.saved_batches",
            CounterId::CkptSnapshots => "ckpt.snapshots",
            CounterId::CkptBytes => "ckpt.bytes",
            CounterId::CkptRestores => "ckpt.restores",
            CounterId::ServeShed => "serve.shed",
            CounterId::QueueArrivals => "queue.arrivals",
            CounterId::QueueAdmitted => "queue.admitted",
            CounterId::QueueRejected => "queue.rejected",
            CounterId::QueueServed => "queue.served",
            CounterId::QueueShedWait => "queue.shed_wait",
            CounterId::QueueShedDeadline => "queue.shed_deadline",
            CounterId::QueueWaitCycles => "queue.wait_cycles",
            CounterId::TenantsActive => "tenant.active",
            CounterId::ServeCacheEvictions => "serve.cache_evictions",
            CounterId::ServeEvictedBytes => "serve.evicted_bytes",
            CounterId::DeltaEpochs => "delta.epochs",
            CounterId::DeltaEdgesRequested => "delta.edges_requested",
            CounterId::DeltaEdgesApplied => "delta.edges_applied",
            CounterId::DeltaEdgesInserted => "delta.edges_inserted",
            CounterId::DeltaEdgesDeleted => "delta.edges_deleted",
            CounterId::DeltaEdgesRedundant => "delta.edges_redundant",
            CounterId::DeltaPartitionsTotal => "delta.partitions_total",
            CounterId::DeltaPartitionsDirty => "delta.partitions_dirty",
            CounterId::DeltaPartitionsClean => "delta.partitions_clean",
            CounterId::DeltaFrontierFull => "delta.frontier_full",
            CounterId::DeltaFrontierSeeded => "delta.frontier_seeded",
            CounterId::DeltaFrontierSaved => "delta.frontier_saved",
            CounterId::SdcInjected => "sdc.injected",
            CounterId::SdcDetected => "sdc.detected",
            CounterId::SdcCorrected => "sdc.corrected",
            CounterId::SdcEscaped => "sdc.escaped",
            CounterId::SdcChecks => "sdc.checks",
            CounterId::SdcRecomputeCycles => "sdc.recompute_cycles",
            CounterId::QuarantineStrikes => "quarantine.strikes",
            CounterId::QuarantineEvents => "quarantine.events",
            CounterId::QuarantineReplans => "quarantine.replans",
            CounterId::QuarantineDpusTotal => "quarantine.dpus_total",
            CounterId::QuarantineDpusActive => "quarantine.dpus_active",
            CounterId::QuarantineDpusQuarantined => "quarantine.dpus_quarantined",
        }
    }
}

impl std::fmt::Display for CounterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Every zero-remainder identity of the registry, one `(total, parts)` row
/// each: `total == Σ parts` holds on any counter set the simulator or a
/// layer above it produces (per iteration, per DPU, or summed over a run).
pub const LEDGERS: [(CounterId, &[CounterId]); 14] = [
    (CounterId::DpuCycles, &CounterId::SLOT_CYCLES),
    (CounterId::TaskletBudget, &CounterId::TASKLET_CYCLES),
    (CounterId::SlotFault, &CounterId::FAULT_CYCLES),
    // Fault detection is exact, and every detected fault ends one way.
    (CounterId::FaultsInjected, &[CounterId::FaultsDetected]),
    (CounterId::FaultsDetected, &[CounterId::FaultsRecovered, CounterId::FaultsLost]),
    // Silent corruption: caught or escaped, and every catch is recomputed.
    (CounterId::SdcInjected, &[CounterId::SdcDetected, CounterId::SdcEscaped]),
    (CounterId::SdcDetected, &[CounterId::SdcCorrected]),
    (
        CounterId::QuarantineDpusTotal,
        &[CounterId::QuarantineDpusActive, CounterId::QuarantineDpusQuarantined],
    ),
    (
        CounterId::DeltaEdgesApplied,
        &[CounterId::DeltaEdgesInserted, CounterId::DeltaEdgesDeleted],
    ),
    (
        CounterId::DeltaEdgesRequested,
        &[CounterId::DeltaEdgesApplied, CounterId::DeltaEdgesRedundant],
    ),
    (
        CounterId::DeltaPartitionsTotal,
        &[CounterId::DeltaPartitionsDirty, CounterId::DeltaPartitionsClean],
    ),
    (
        CounterId::DeltaFrontierFull,
        &[CounterId::DeltaFrontierSeeded, CounterId::DeltaFrontierSaved],
    ),
    (CounterId::QueueArrivals, &[CounterId::QueueAdmitted, CounterId::QueueRejected]),
    (
        CounterId::QueueAdmitted,
        &[CounterId::QueueServed, CounterId::QueueShedWait, CounterId::QueueShedDeadline],
    ),
];

/// The first [`LEDGERS`] row a counter set breaks, with its values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerBreach {
    /// The row's total counter.
    total: CounterId,
    /// The counters that must sum to it.
    parts: &'static [CounterId],
    /// The value of `total`.
    expected: u64,
    /// The values of `parts`, in order.
    values: Vec<u64>,
}

impl std::fmt::Display for LedgerBreach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let terms: Vec<String> =
            self.parts.iter().zip(&self.values).map(|(id, v)| format!("{id} {v}")).collect();
        write!(
            f,
            "ledger breach: {} {} != {} = {}",
            self.total,
            self.expected,
            terms.join(" + "),
            self.values.iter().sum::<u64>(),
        )
    }
}

impl std::error::Error for LedgerBreach {}

/// A fixed-size bank of all registry counters. Cheap to copy, merge, and
/// compare; the zero value is the empty set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSet {
    values: [u64; NUM_COUNTERS],
}

// Written out because std only derives `Default` for arrays up to 32
// elements, and the registry outgrew that.
impl Default for CounterSet {
    fn default() -> Self {
        CounterSet { values: [0; NUM_COUNTERS] }
    }
}

impl CounterSet {
    /// An all-zero counter set.
    pub fn new() -> Self {
        CounterSet::default()
    }

    /// Adds `n` to `id`.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.values[id.index()] += n;
    }

    /// Overwrites `id` with `n`.
    pub fn set(&mut self, id: CounterId, n: u64) {
        self.values[id.index()] = n;
    }

    /// The current value of `id`.
    pub fn get(&self, id: CounterId) -> u64 {
        self.values[id.index()]
    }

    /// Element-wise accumulation of another set into this one.
    pub fn merge(&mut self, other: &CounterSet) {
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += b;
        }
    }

    /// Whether every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }

    /// Sum of the values of `ids`.
    pub fn sum(&self, ids: &[CounterId]) -> u64 {
        ids.iter().map(|&id| self.get(id)).sum()
    }

    /// Iterates `(id, value)` pairs in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (CounterId, u64)> + '_ {
        CounterId::ALL.iter().map(move |&id| (id, self.get(id)))
    }

    /// Checks every [`LEDGERS`] row, naming the first one with a remainder.
    ///
    /// # Errors
    ///
    /// The first row whose parts do not sum to its total.
    pub fn check_ledgers(&self) -> Result<(), LedgerBreach> {
        for &(total, parts) in &LEDGERS {
            if self.sum(parts) != self.get(total) {
                return Err(LedgerBreach {
                    total,
                    parts,
                    expected: self.get(total),
                    values: parts.iter().map(|&id| self.get(id)).collect(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for (pos, id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(id.index(), pos, "{id} out of place in ALL");
            assert!(seen.insert(id.label()), "duplicate label {id}");
        }
        assert_eq!(CounterId::ALL.len(), NUM_COUNTERS);
    }

    #[test]
    fn set_accumulates_and_merges() {
        let mut a = CounterSet::new();
        assert!(a.is_empty());
        a.add(CounterId::DmaBytes, 100);
        a.add(CounterId::DmaBytes, 24);
        a.set(CounterId::DpuCycles, 7);
        let mut b = CounterSet::new();
        b.add(CounterId::DmaBytes, 1);
        b.merge(&a);
        assert_eq!(b.get(CounterId::DmaBytes), 125);
        assert_eq!(b.get(CounterId::DpuCycles), 7);
        assert!(!b.is_empty());
    }

    #[test]
    fn group_sums_use_member_values() {
        let mut c = CounterSet::new();
        for id in CounterId::SLOT_CYCLES {
            c.add(id, 10);
        }
        c.set(CounterId::DpuCycles, 10 * CounterId::SLOT_CYCLES.len() as u64);
        assert_eq!(c.sum(&CounterId::SLOT_CYCLES), c.get(CounterId::DpuCycles));
    }

    #[test]
    fn iter_visits_every_counter_once() {
        let c = CounterSet::new();
        assert_eq!(c.iter().count(), NUM_COUNTERS);
    }

    #[test]
    fn check_ledgers_names_each_broken_row() {
        // Distinct non-zero values everywhere, then each total re-derived
        // from its parts until the nested rows (a total that is also a
        // part elsewhere) settle.
        let mut balanced = CounterSet::new();
        for id in CounterId::ALL {
            balanced.set(id, id.index() as u64 + 1);
        }
        for _ in 0..LEDGERS.len() {
            for &(total, parts) in &LEDGERS {
                balanced.set(total, balanced.sum(parts));
            }
        }
        assert_eq!(balanced.check_ledgers(), Ok(()));

        for &(total, parts) in &LEDGERS {
            // Bump a counter no other row reads, so only this row breaks.
            let in_rows =
                |id: CounterId| LEDGERS.iter().filter(|(t, p)| *t == id || p.contains(&id)).count();
            let own = std::iter::once(total)
                .chain(parts.iter().copied())
                .find(|&id| in_rows(id) == 1)
                .expect("every row has a counter of its own");
            let mut broken = balanced;
            broken.add(own, 1);
            let breach = broken.check_ledgers().expect_err("a bumped row must breach");
            assert_eq!(breach.total, total, "bumping {own} named the wrong row");
            assert_eq!(breach.parts, parts);
            assert_eq!(breach.expected, broken.get(total));
            assert_eq!(breach.values, parts.iter().map(|&id| broken.get(id)).collect::<Vec<_>>());
            assert!(breach.to_string().contains(total.label()), "{breach}");
        }
    }
}

//! Crash-consistent checkpoint/restore for the serving engine.
//!
//! Real UPMEM deployments lose host sessions mid-run, not just DPUs: the
//! orchestrating process dies and every in-flight superstep loop dies with
//! it. This module makes [`crate::serve::ServeEngine`] batches survivable:
//!
//! * **Sealed containers** — every durable artifact is a versioned,
//!   checksummed binary blob (`magic ∥ version ∥ length ∥ FNV-1a64 ∥
//!   payload`). [`unseal`] rejects version skew, corruption, and
//!   truncation with typed [`RecoverError`]s *before* any payload byte is
//!   interpreted, so a bad checkpoint can never be half-deserialized.
//! * **Snapshots** — at superstep boundaries (cadence set by
//!   [`CheckpointPolicy`]) the engine serializes the whole batch state:
//!   every in-flight stepper (frontier, partial results, full
//!   [`crate::apps::AppReport`] with bit-exact `f64` accumulators), the
//!   amortization accumulators, and the counter registry. Restoring a
//!   snapshot and driving the loop to completion is bit-identical to the
//!   uninterrupted run at any host thread count — fault verdicts are pure
//!   hashes ([`alpha_pim_sim::faults`]), so there is no hidden RNG state
//!   beyond what the snapshot carries.
//! * **Write-ahead journal** — when a query completes, its result is
//!   appended to the journal *before* the next snapshot marks it done; a
//!   restarted engine replays only the remainder. A torn tail record
//!   (crash mid-append) is tolerated: the snapshot never references it.
//!
//! Checkpoint overhead is accounted in the `ckpt.*` counters — event-like,
//! outside both zero-remainder cycle partitions (see
//! [`alpha_pim_sim::counters`]).

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use alpha_pim_sim::report::{CycleBreakdown, DpuDetail, KernelReport, PhaseBreakdown};
use alpha_pim_sim::{CounterId, CounterSet, InstrClass, InstrMix, NUM_COUNTERS};
use alpha_pim_sparse::SparseVector;

use crate::apps::{AppReport, IterationStats};
use crate::kernel::{KernelKind, SpmspvVariant, SpmvVariant};

/// Container format version. Bumped whenever the payload layout changes;
/// [`unseal`] rejects any other version with [`RecoverError::Version`].
/// Version 2: batch snapshots carry per-query deadline overrides, and the
/// counter registry grew the service-layer `queue.*`/`tenant.*`/eviction
/// counters.
/// Version 3: kernel reports carry the corrupted-DPU list, batch snapshots
/// carry the quarantine set, and the counter registry grew the integrity
/// `sdc.*`/`quarantine.*` counters.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Container magic, first bytes of every sealed artifact.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"APCK";

/// Sealed-container header size: magic + version + payload length + checksum.
pub(crate) const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Errors raised while writing, reading, or validating checkpoints.
#[derive(Debug)]
#[non_exhaustive]
pub enum RecoverError {
    /// The container was written by an incompatible format version.
    Version {
        /// Version found in the container header.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The payload checksum does not match the header: bit rot, a torn
    /// write, or tampering. The payload was not deserialized.
    Checksum {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The container or payload ends before a required field.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// The payload is structurally invalid (bad magic, bad tag, an
    /// out-of-range length, a non-boolean byte, …).
    Malformed(String),
    /// The checkpoint is valid but belongs to a different world: another
    /// graph, DPU count, or kernel policy than the engine resuming it.
    Mismatch(String),
    /// An underlying filesystem error from the checkpoint store.
    Io(std::io::Error),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Version { found, expected } => {
                write!(f, "checkpoint version {found} is not the supported version {expected}")
            }
            RecoverError::Checksum { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: header says {stored:#018x}, payload hashes to {computed:#018x}"
            ),
            RecoverError::Truncated { needed, available } => {
                write!(f, "checkpoint truncated: needed {needed} bytes, {available} available")
            }
            RecoverError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            RecoverError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
            RecoverError::Io(e) => write!(f, "checkpoint io error: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// When the serving engine writes a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// Never snapshot. The batched executor is byte-identical to an engine
    /// without the recovery layer.
    #[default]
    Disabled,
    /// Snapshot at every N-th superstep boundary (`1` = every boundary).
    /// `0` is treated as `1`.
    EveryN(u32),
}

impl CheckpointPolicy {
    /// Whether this policy ever snapshots.
    pub fn is_enabled(self) -> bool {
        !matches!(self, CheckpointPolicy::Disabled)
    }

    /// Whether a snapshot fires at the boundary after superstep number
    /// `supersteps` (1-based count of completed supersteps).
    pub fn fires(self, supersteps: u32) -> bool {
        match self {
            CheckpointPolicy::Disabled => false,
            CheckpointPolicy::EveryN(n) => supersteps.is_multiple_of(n.max(1)),
        }
    }
}

/// The durable state of one interrupted batch: the latest sealed snapshot
/// plus the write-ahead journal of completed-query results. Everything a
/// restarted [`crate::serve::ServeEngine`] needs to replay only the
/// remainder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchCheckpoint {
    /// The latest sealed snapshot container.
    pub snapshot: Vec<u8>,
    /// Concatenated sealed journal records (one per completed query, in
    /// completion order; a torn tail is tolerated on load).
    pub journal: Vec<u8>,
}

impl BatchCheckpoint {
    /// The caller-supplied batch tag stored first in the snapshot payload
    /// (the CLI uses it to locate which batch of a trace was interrupted).
    ///
    /// # Errors
    ///
    /// Propagates container validation errors from [`unseal`].
    pub fn tag(&self) -> Result<u64, RecoverError> {
        let payload = unseal(&self.snapshot)?;
        Dec::new(payload).u64()
    }
}

/// FNV-1a 64-bit over `bytes` — the container checksum. Not cryptographic;
/// it catches corruption and truncation, not adversaries with write access.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Wraps `payload` in the sealed container: magic, version, length,
/// FNV-1a64 checksum, payload.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a sealed container and returns its payload slice. The payload
/// is only handed out after magic, version, length, and checksum all
/// check out — a rejected container is never partially deserialized.
///
/// # Errors
///
/// [`RecoverError::Truncated`] if the container is shorter than its header
/// or its declared payload; [`RecoverError::Malformed`] on bad magic;
/// [`RecoverError::Version`] on version skew; [`RecoverError::Checksum`]
/// when the payload hash disagrees with the header.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], RecoverError> {
    if bytes.len() < HEADER_LEN {
        return Err(RecoverError::Truncated { needed: HEADER_LEN, available: bytes.len() });
    }
    if bytes[..4] != CHECKPOINT_MAGIC {
        return Err(RecoverError::Malformed("bad container magic".into()));
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != CHECKPOINT_VERSION {
        return Err(RecoverError::Version { found: version, expected: CHECKPOINT_VERSION });
    }
    let mut len8 = [0u8; 8];
    len8.copy_from_slice(&bytes[8..16]);
    let payload_len = u64::from_le_bytes(len8) as usize;
    let available = bytes.len() - HEADER_LEN;
    if payload_len > available {
        return Err(RecoverError::Truncated {
            needed: HEADER_LEN + payload_len,
            available: bytes.len(),
        });
    }
    let mut sum8 = [0u8; 8];
    sum8.copy_from_slice(&bytes[16..24]);
    let stored = u64::from_le_bytes(sum8);
    let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
    let computed = fnv1a64(payload);
    if stored != computed {
        return Err(RecoverError::Checksum { stored, computed });
    }
    Ok(payload)
}

/// Splits a concatenation of sealed containers (the journal file layout)
/// into payload slices. A torn tail — a final record cut off mid-write —
/// is tolerated and dropped: write-ahead ordering guarantees no snapshot
/// references it. A *corrupt* (checksum-failing) complete record is an
/// error: that is bit rot, not a crash artifact.
pub fn unseal_stream(mut bytes: &[u8]) -> Result<Vec<&[u8]>, RecoverError> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        match unseal(bytes) {
            Ok(payload) => {
                out.push(payload);
                bytes = &bytes[HEADER_LEN + payload.len()..];
            }
            Err(RecoverError::Truncated { .. }) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// Directory-backed persistence for one batch's checkpoint state: an
/// atomically-replaced snapshot file plus an append-only journal.
///
/// Atomicity model: snapshots are written to a temp file and `rename`d into
/// place, so a crash mid-snapshot leaves the previous snapshot intact;
/// journal records are appended and flushed before the snapshot that marks
/// their query done is written (write-ahead).
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, RecoverError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.ckpt")
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.wal")
    }

    /// Durably replaces the snapshot file with `sealed` (temp file +
    /// rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_snapshot(&self, sealed: &[u8]) -> Result<(), RecoverError> {
        let tmp = self.dir.join("snapshot.ckpt.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(sealed)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.snapshot_path())?;
        Ok(())
    }

    /// Appends one sealed journal record and flushes it to disk.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append_journal(&self, sealed: &[u8]) -> Result<(), RecoverError> {
        let mut f =
            fs::OpenOptions::new().create(true).append(true).open(self.journal_path())?;
        f.write_all(sealed)?;
        f.sync_all()?;
        Ok(())
    }

    /// Loads the persisted checkpoint, if any. Returns `Ok(None)` when no
    /// snapshot has been written (a fresh or fully-cleared directory).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; container validation happens later,
    /// at resume time.
    pub fn load(&self) -> Result<Option<BatchCheckpoint>, RecoverError> {
        let snapshot = match fs::read(self.snapshot_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let journal = match fs::read(self.journal_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        Ok(Some(BatchCheckpoint { snapshot, journal }))
    }

    /// Removes the snapshot and journal (the batch completed; nothing to
    /// resume).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the files already missing.
    pub fn clear(&self) -> Result<(), RecoverError> {
        for path in [self.snapshot_path(), self.journal_path()] {
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Payload codec: little-endian, fixed-width primitives with a bounds-checked
// cursor. Every length is validated against the remaining payload before any
// allocation, so a lying length field cannot trigger absurd preallocation.
// ---------------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

pub(crate) fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}

pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// Bounds-checked little-endian payload cursor. All reads fail with typed
/// errors; nothing panics on adversarial input.
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Wraps a payload slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RecoverError> {
        if self.remaining() < n {
            return Err(RecoverError::Truncated { needed: n, available: self.remaining() });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, RecoverError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, RecoverError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, RecoverError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads an `f64` stored as its exact bit pattern.
    pub fn f64(&mut self) -> Result<f64, RecoverError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an `f32` stored as its exact bit pattern.
    pub fn f32(&mut self) -> Result<f32, RecoverError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a strict boolean: any byte other than 0 or 1 is malformed.
    pub fn bool(&mut self) -> Result<bool, RecoverError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(RecoverError::Malformed(format!("non-boolean byte {b:#04x}"))),
        }
    }

    /// Reads a length prefix for `elem_size`-byte elements, rejecting any
    /// count whose encoded body could not fit in the remaining payload —
    /// the anti-OOM guard: allocation is bounded by the actual input size.
    pub fn seq_len(&mut self, elem_size: usize, what: &str) -> Result<usize, RecoverError> {
        let n = self.u64()?;
        let Ok(n) = usize::try_from(n) else {
            return Err(RecoverError::Malformed(format!("{what} length {n} overflows usize")));
        };
        match n.checked_mul(elem_size.max(1)) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(RecoverError::Malformed(format!(
                "{what} claims {n} elements but only {} payload bytes remain",
                self.remaining()
            ))),
        }
    }

    /// Fails unless every byte was consumed — trailing garbage is treated
    /// as corruption, not padding.
    pub fn finish(self) -> Result<(), RecoverError> {
        if self.remaining() != 0 {
            return Err(RecoverError::Malformed(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Report/state codecs shared by the stepper snapshots (apps::stepper) and
// the batch snapshot (serve). f64/f32 round-trip by bit pattern, so
// restored reports are bit-identical to the originals.
// ---------------------------------------------------------------------------

pub(crate) fn put_counters(out: &mut Vec<u8>, c: &CounterSet) {
    put_u32(out, NUM_COUNTERS as u32);
    for (_, v) in c.iter() {
        put_u64(out, v);
    }
}

pub(crate) fn read_counters(d: &mut Dec) -> Result<CounterSet, RecoverError> {
    let n = d.u32()? as usize;
    if n != NUM_COUNTERS {
        return Err(RecoverError::Mismatch(format!(
            "counter registry has {n} entries in the checkpoint, {NUM_COUNTERS} in this build"
        )));
    }
    let mut c = CounterSet::new();
    for id in alpha_pim_sim::CounterId::ALL {
        c.set(id, d.u64()?);
    }
    Ok(c)
}

pub(crate) fn put_instr_mix(out: &mut Vec<u8>, m: &InstrMix) {
    put_u32(out, InstrClass::ALL.len() as u32);
    for class in InstrClass::ALL {
        put_u64(out, m.count(class));
    }
}

pub(crate) fn read_instr_mix(d: &mut Dec) -> Result<InstrMix, RecoverError> {
    let n = d.u32()? as usize;
    if n != InstrClass::ALL.len() {
        return Err(RecoverError::Mismatch(format!(
            "instruction taxonomy has {n} classes in the checkpoint, {} in this build",
            InstrClass::ALL.len()
        )));
    }
    let mut m = InstrMix::new();
    for class in InstrClass::ALL {
        m.add(class, d.u64()?);
    }
    Ok(m)
}

pub(crate) fn put_phases(out: &mut Vec<u8>, p: &PhaseBreakdown) {
    put_f64(out, p.load);
    put_f64(out, p.kernel);
    put_f64(out, p.retrieve);
    put_f64(out, p.merge);
}

pub(crate) fn read_phases(d: &mut Dec) -> Result<PhaseBreakdown, RecoverError> {
    Ok(PhaseBreakdown { load: d.f64()?, kernel: d.f64()?, retrieve: d.f64()?, merge: d.f64()? })
}

pub(crate) fn put_kernel_kind(out: &mut Vec<u8>, k: KernelKind) {
    match k {
        KernelKind::Spmv(v) => {
            put_u8(out, 0);
            put_u8(
                out,
                match v {
                    SpmvVariant::Coo1d => 0,
                    SpmvVariant::CsrRow1d => 1,
                    SpmvVariant::CsrNnz1d => 2,
                    SpmvVariant::Dcoo2d => 3,
                },
            );
        }
        KernelKind::Spmspv(v) => {
            put_u8(out, 1);
            put_u8(
                out,
                match v {
                    SpmspvVariant::Coo => 0,
                    SpmspvVariant::Csr => 1,
                    SpmspvVariant::CscR => 2,
                    SpmspvVariant::CscC => 3,
                    SpmspvVariant::Csc2d => 4,
                },
            );
        }
    }
}

pub(crate) fn read_kernel_kind(d: &mut Dec) -> Result<KernelKind, RecoverError> {
    let family = d.u8()?;
    let variant = d.u8()?;
    match (family, variant) {
        (0, 0) => Ok(KernelKind::Spmv(SpmvVariant::Coo1d)),
        (0, 1) => Ok(KernelKind::Spmv(SpmvVariant::CsrRow1d)),
        (0, 2) => Ok(KernelKind::Spmv(SpmvVariant::CsrNnz1d)),
        (0, 3) => Ok(KernelKind::Spmv(SpmvVariant::Dcoo2d)),
        (1, 0) => Ok(KernelKind::Spmspv(SpmspvVariant::Coo)),
        (1, 1) => Ok(KernelKind::Spmspv(SpmspvVariant::Csr)),
        (1, 2) => Ok(KernelKind::Spmspv(SpmspvVariant::CscR)),
        (1, 3) => Ok(KernelKind::Spmspv(SpmspvVariant::CscC)),
        (1, 4) => Ok(KernelKind::Spmspv(SpmspvVariant::Csc2d)),
        _ => Err(RecoverError::Malformed(format!("unknown kernel kind tag ({family}, {variant})"))),
    }
}

/// The four slot categories layout v3 writes ahead of a breakdown's
/// counter set, in that order.
const BREAKDOWN_SLOTS: [CounterId; 4] =
    [CounterId::SlotIssue, CounterId::SlotMemory, CounterId::SlotRevolver, CounterId::SlotRf];

/// The two counters layout v3 writes ahead of a `DpuDetail`'s counter set:
/// its makespan and its issued instructions.
const DETAIL_SLOTS: [CounterId; 2] = [CounterId::DpuCycles, CounterId::SlotIssue];

/// Writes `counters` the way layout v3 lays out a counter set that has
/// some of its values in slots of their own: the values of `slots` first,
/// then the set.
pub(crate) fn put_slotted_counters(out: &mut Vec<u8>, counters: &CounterSet, slots: &[CounterId]) {
    for &id in slots {
        put_u64(out, counters.get(id));
    }
    put_counters(out, counters);
}

/// Reads what [`put_slotted_counters`] wrote. A slot that disagrees with
/// the set after it was not written by this codec: the bytes are
/// [`RecoverError::Malformed`].
pub(crate) fn read_slotted_counters(
    d: &mut Dec,
    slots: &[CounterId],
    what: &str,
) -> Result<CounterSet, RecoverError> {
    let values = slots.iter().map(|_| d.u64()).collect::<Result<Vec<_>, _>>()?;
    let counters = read_counters(d)?;
    for (&id, value) in slots.iter().zip(values) {
        if value != counters.get(id) {
            return Err(RecoverError::Malformed(format!(
                "{what} slot {id} holds {value} but its counters hold {}",
                counters.get(id)
            )));
        }
    }
    Ok(counters)
}

pub(crate) fn put_kernel_report(out: &mut Vec<u8>, r: &KernelReport) {
    put_u32(out, r.num_dpus);
    put_u32(out, r.detailed_dpus);
    put_u64(out, r.max_cycles);
    put_f64(out, r.seconds);
    put_f64(out, r.mean_cycles);
    put_slotted_counters(out, &r.breakdown.counters, &BREAKDOWN_SLOTS);
    put_instr_mix(out, &r.instr_mix);
    put_f64(out, r.avg_active_threads);
    put_u64(out, r.total_instructions);
    put_bool(out, r.degraded);
    put_slice(out, &r.corrupted_dpus);
    put_u64(out, r.dpu_details.len() as u64);
    for dt in &r.dpu_details {
        put_u32(out, dt.dpu_id);
        put_slotted_counters(out, &dt.counters, &DETAIL_SLOTS);
        put_u64(out, dt.tasklets.len() as u64);
        for t in &dt.tasklets {
            put_counters(out, t);
        }
    }
}

pub(crate) fn read_kernel_report(d: &mut Dec) -> Result<KernelReport, RecoverError> {
    let num_dpus = d.u32()?;
    let detailed_dpus = d.u32()?;
    let max_cycles = d.u64()?;
    let seconds = d.f64()?;
    let mean_cycles = d.f64()?;
    let breakdown =
        CycleBreakdown { counters: read_slotted_counters(d, &BREAKDOWN_SLOTS, "breakdown")? };
    let instr_mix = read_instr_mix(d)?;
    let avg_active_threads = d.f64()?;
    let total_instructions = d.u64()?;
    let degraded = d.bool()?;
    let corrupted_dpus = read_vec(d)?;
    let n_details = d.seq_len(4 + 8 + 8, "dpu_details")?;
    let mut dpu_details = Vec::with_capacity(n_details);
    for _ in 0..n_details {
        let dpu_id = d.u32()?;
        let counters = read_slotted_counters(d, &DETAIL_SLOTS, "DPU detail")?;
        let n_tasklets = d.seq_len(4 + 8 * NUM_COUNTERS, "tasklet counters")?;
        let mut tasklets = Vec::with_capacity(n_tasklets);
        for _ in 0..n_tasklets {
            tasklets.push(read_counters(d)?);
        }
        dpu_details.push(DpuDetail { dpu_id, counters, tasklets });
    }
    Ok(KernelReport {
        num_dpus,
        detailed_dpus,
        max_cycles,
        seconds,
        mean_cycles,
        breakdown,
        instr_mix,
        avg_active_threads,
        total_instructions,
        degraded,
        corrupted_dpus,
        dpu_details,
    })
}

pub(crate) fn put_app_report(out: &mut Vec<u8>, r: &AppReport) {
    put_u64(out, r.iterations.len() as u64);
    for s in &r.iterations {
        put_u32(out, s.index);
        put_f64(out, s.input_density);
        put_kernel_kind(out, s.kernel);
        put_phases(out, &s.phases);
        put_kernel_report(out, &s.kernel_report);
        put_u64(out, s.useful_ops);
    }
    put_phases(out, &r.total);
    put_u64(out, r.useful_ops);
    put_bool(out, r.converged);
    put_bool(out, r.degraded);
}

pub(crate) fn read_app_report(d: &mut Dec) -> Result<AppReport, RecoverError> {
    let n = d.seq_len(4 + 8 + 2, "iterations")?;
    let mut iterations = Vec::with_capacity(n);
    for _ in 0..n {
        let index = d.u32()?;
        let input_density = d.f64()?;
        let kernel = read_kernel_kind(d)?;
        let phases = read_phases(d)?;
        let kernel_report = read_kernel_report(d)?;
        let useful_ops = d.u64()?;
        iterations.push(IterationStats {
            index,
            input_density,
            kernel,
            phases,
            kernel_report,
            useful_ops,
        });
    }
    let total = read_phases(d)?;
    let useful_ops = d.u64()?;
    let converged = d.bool()?;
    let degraded = d.bool()?;
    Ok(AppReport { iterations, total, useful_ops, converged, degraded })
}

/// A fixed-width scalar the slice and sparse-vector codecs can carry:
/// answer vectors, visited masks and frontiers of every semiring.
pub(crate) trait Wire: Copy {
    /// Encoded bytes per element.
    const WIDTH: usize;
    /// What a sequence of these is called in length errors.
    const SEQ: &'static str;

    fn put(out: &mut Vec<u8>, v: Self);

    fn read(d: &mut Dec) -> Result<Self, RecoverError>;
}

impl Wire for u32 {
    const WIDTH: usize = 4;
    const SEQ: &'static str = "u32 vector";

    fn put(out: &mut Vec<u8>, v: Self) {
        put_u32(out, v);
    }

    fn read(d: &mut Dec) -> Result<Self, RecoverError> {
        d.u32()
    }
}

impl Wire for f32 {
    const WIDTH: usize = 4;
    const SEQ: &'static str = "f32 vector";

    fn put(out: &mut Vec<u8>, v: Self) {
        put_f32(out, v);
    }

    fn read(d: &mut Dec) -> Result<Self, RecoverError> {
        d.f32()
    }
}

impl Wire for bool {
    const WIDTH: usize = 1;
    const SEQ: &'static str = "bool vector";

    fn put(out: &mut Vec<u8>, v: Self) {
        put_bool(out, v);
    }

    fn read(d: &mut Dec) -> Result<Self, RecoverError> {
        d.bool()
    }
}

pub(crate) fn put_slice<T: Wire>(out: &mut Vec<u8>, v: &[T]) {
    put_u64(out, v.len() as u64);
    for &x in v {
        T::put(out, x);
    }
}

pub(crate) fn read_vec<T: Wire>(d: &mut Dec) -> Result<Vec<T>, RecoverError> {
    let n = d.seq_len(T::WIDTH, T::SEQ)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(T::read(d)?);
    }
    Ok(v)
}

pub(crate) fn put_sparse<T: Wire>(out: &mut Vec<u8>, v: &SparseVector<T>) {
    put_u64(out, v.len() as u64);
    put_slice(out, v.indices());
    put_slice(out, v.values());
}

pub(crate) fn read_sparse<T: Wire>(d: &mut Dec) -> Result<SparseVector<T>, RecoverError> {
    let len = d.u64()? as usize;
    let indices = read_vec(d)?;
    let values = read_vec(d)?;
    SparseVector::from_pairs(len, indices, values)
        .map_err(|e| RecoverError::Malformed(format!("sparse vector: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_round_trips() {
        let payload = b"hello, durable world";
        let sealed = seal(payload);
        assert_eq!(unseal(&sealed).unwrap(), payload);
    }

    #[test]
    fn version_skew_is_rejected_before_deserialization() {
        let mut sealed = seal(b"payload");
        sealed[4] = 99; // clobber the version field
        match unseal(&sealed) {
            Err(RecoverError::Version { found, expected }) => {
                assert_eq!(found, u32::from_le_bytes([99, 0, 0, 0]));
                assert_eq!(expected, CHECKPOINT_VERSION);
            }
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut sealed = seal(b"some checkpoint payload");
        let last = sealed.len() - 1;
        sealed[last] ^= 0xFF;
        assert!(matches!(unseal(&sealed), Err(RecoverError::Checksum { .. })));
        // Corrupting the stored checksum itself is also caught.
        let mut sealed2 = seal(b"some checkpoint payload");
        sealed2[16] ^= 0x01;
        assert!(matches!(unseal(&sealed2), Err(RecoverError::Checksum { .. })));
    }

    #[test]
    fn truncation_is_rejected_at_every_cut_point() {
        let sealed = seal(b"a reasonably long checkpoint payload for cutting");
        for cut in 0..sealed.len() {
            let r = unseal(&sealed[..cut]);
            assert!(
                matches!(r, Err(RecoverError::Truncated { .. })),
                "cut at {cut} gave {r:?}"
            );
        }
    }

    #[test]
    fn bad_magic_is_malformed() {
        let mut sealed = seal(b"x");
        sealed[0] = b'Z';
        assert!(matches!(unseal(&sealed), Err(RecoverError::Malformed(_))));
    }

    #[test]
    fn stream_tolerates_torn_tail_but_not_corruption() {
        let a = seal(b"first");
        let b = seal(b"second");
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        // Intact stream: both records.
        assert_eq!(unseal_stream(&stream).unwrap().len(), 2);
        // Torn tail: second record cut mid-payload → only the first.
        let torn = &stream[..a.len() + b.len() - 3];
        assert_eq!(unseal_stream(torn).unwrap().len(), 1);
        // Corrupt complete record: error.
        let mut bad = stream.clone();
        let off = a.len() + b.len() - 1;
        bad[off] ^= 0xFF;
        assert!(unseal_stream(&bad).is_err());
    }

    #[test]
    fn dec_rejects_lying_length_prefixes() {
        // A sequence claiming u64::MAX elements over a 16-byte payload.
        let mut payload = Vec::new();
        put_u64(&mut payload, u64::MAX);
        payload.extend_from_slice(&[0u8; 8]);
        let mut d = Dec::new(&payload);
        assert!(matches!(d.seq_len(4, "test"), Err(RecoverError::Malformed(_))));
        // And a plausible-but-too-large count.
        let mut payload2 = Vec::new();
        put_u64(&mut payload2, 100);
        payload2.extend_from_slice(&[0u8; 16]);
        let mut d2 = Dec::new(&payload2);
        assert!(matches!(d2.seq_len(4, "test"), Err(RecoverError::Malformed(_))));
    }

    #[test]
    fn dec_bools_are_strict_and_finish_rejects_trailing_bytes() {
        let payload = [2u8];
        assert!(matches!(Dec::new(&payload).bool(), Err(RecoverError::Malformed(_))));
        let payload2 = [0u8, 7u8];
        let mut d = Dec::new(&payload2);
        d.bool().unwrap();
        assert!(matches!(d.finish(), Err(RecoverError::Malformed(_))));
    }

    #[test]
    fn counter_and_mix_codecs_round_trip() {
        let mut c = CounterSet::new();
        c.add(CounterId::DmaBytes, 123);
        c.add(CounterId::CkptSnapshots, 7);
        let mut out = Vec::new();
        put_counters(&mut out, &c);
        let mut m = InstrMix::new();
        m.add(InstrClass::Arith, 42);
        put_instr_mix(&mut out, &m);
        let mut d = Dec::new(&out);
        assert_eq!(read_counters(&mut d).unwrap(), c);
        assert_eq!(read_instr_mix(&mut d).unwrap(), m);
        d.finish().unwrap();
    }

    #[test]
    fn slots_that_disagree_with_their_counters_are_malformed() {
        let mut counters = CounterSet::new();
        for (i, id) in BREAKDOWN_SLOTS.into_iter().chain([CounterId::DpuCycles]).enumerate() {
            counters.set(id, 10 * (i as u64 + 1));
        }
        let report = KernelReport {
            num_dpus: 1,
            detailed_dpus: 1,
            max_cycles: 50,
            seconds: 1e-6,
            mean_cycles: 50.0,
            breakdown: CycleBreakdown { counters },
            instr_mix: InstrMix::new(),
            avg_active_threads: 1.0,
            total_instructions: 10,
            degraded: false,
            corrupted_dpus: Vec::new(),
            dpu_details: vec![DpuDetail { dpu_id: 3, counters, tasklets: vec![counters] }],
        };
        let mut bytes = Vec::new();
        put_kernel_report(&mut bytes, &report);
        assert_eq!(read_kernel_report(&mut Dec::new(&bytes)).unwrap(), report);
        // The breakdown's four slots follow the 32-byte header; a detail's
        // two follow the detail count and its DPU id.
        let mut bare = Vec::new();
        put_kernel_report(&mut bare, &KernelReport { dpu_details: Vec::new(), ..report.clone() });
        let slots = (0..4).map(|i| 32 + 8 * i).chain([bare.len() + 4, bare.len() + 12]);
        for at in slots {
            let mut bad = bytes.clone();
            bad[at] ^= 1;
            assert!(
                matches!(
                    read_kernel_report(&mut Dec::new(&bad)),
                    Err(RecoverError::Malformed(msg)) if msg.contains("slot")
                ),
                "a changed slot at byte {at} must be rejected"
            );
        }
    }

    #[test]
    fn kernel_kind_codec_round_trips_every_variant() {
        let kinds = [
            KernelKind::Spmv(SpmvVariant::Coo1d),
            KernelKind::Spmv(SpmvVariant::CsrRow1d),
            KernelKind::Spmv(SpmvVariant::CsrNnz1d),
            KernelKind::Spmv(SpmvVariant::Dcoo2d),
            KernelKind::Spmspv(SpmspvVariant::Coo),
            KernelKind::Spmspv(SpmspvVariant::Csr),
            KernelKind::Spmspv(SpmspvVariant::CscR),
            KernelKind::Spmspv(SpmspvVariant::CscC),
            KernelKind::Spmspv(SpmspvVariant::Csc2d),
        ];
        let mut out = Vec::new();
        for k in kinds {
            put_kernel_kind(&mut out, k);
        }
        let mut d = Dec::new(&out);
        for k in kinds {
            assert_eq!(read_kernel_kind(&mut d).unwrap(), k);
        }
        assert!(matches!(
            read_kernel_kind(&mut Dec::new(&[9, 9])),
            Err(RecoverError::Malformed(_))
        ));
    }

    #[test]
    fn sparse_vector_codecs_round_trip_bitwise() {
        let v = SparseVector::from_pairs(10, vec![1, 4, 7], vec![3u32, 9, 27]).unwrap();
        let mut out = Vec::new();
        put_sparse(&mut out, &v);
        let back = read_sparse::<u32>(&mut Dec::new(&out)).unwrap();
        assert_eq!(back.len(), v.len());
        assert_eq!(back.indices(), v.indices());
        assert_eq!(back.values(), v.values());

        let f = SparseVector::from_pairs(5, vec![0, 3], vec![0.25f32, -1.5e-9]).unwrap();
        let mut out2 = Vec::new();
        put_sparse(&mut out2, &f);
        let back2 = read_sparse::<f32>(&mut Dec::new(&out2)).unwrap();
        let bits: Vec<u32> = back2.values().iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> = f.values().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn checkpoint_store_round_trips_and_clears() {
        let dir = std::env::temp_dir().join(format!("alpha_pim_ckpt_test_{}", std::process::id()));
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load().unwrap().is_none());
        store.append_journal(&seal(b"rec1")).unwrap();
        store.append_journal(&seal(b"rec2")).unwrap();
        store.write_snapshot(&seal(b"snap")).unwrap();
        let ckpt = store.load().unwrap().unwrap();
        assert_eq!(unseal(&ckpt.snapshot).unwrap(), b"snap");
        assert_eq!(unseal_stream(&ckpt.journal).unwrap(), vec![&b"rec1"[..], &b"rec2"[..]]);
        store.clear().unwrap();
        assert!(store.load().unwrap().is_none());
        store.clear().unwrap(); // idempotent
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policy_cadence() {
        assert!(!CheckpointPolicy::Disabled.is_enabled());
        assert!(!CheckpointPolicy::Disabled.fires(1));
        assert!(CheckpointPolicy::EveryN(1).fires(1));
        assert!(CheckpointPolicy::EveryN(1).fires(2));
        assert!(!CheckpointPolicy::EveryN(3).fires(2));
        assert!(CheckpointPolicy::EveryN(3).fires(3));
        // Zero is clamped to one, not a division fault.
        assert!(CheckpointPolicy::EveryN(0).fires(5));
    }
}

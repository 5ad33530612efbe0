//! The memory-budgeted partial store.
//!
//! Between the merge round that produces a partial and the one that
//! consumes it, the pipeline's round outputs live here — leaves never do:
//! the round that folds a leaf multiplies it as it reads it. The store enforces the [`MemoryBudget`] as an
//! invariant — the bytes of resident (in-memory) partials never exceed
//! the budget, and `peak_live_bytes` records the high-water mark — by
//! spilling partials to disk via the [`spill`](crate::spill) format.
//!
//! Eviction order is the software twin of the paper's look-ahead idea:
//! the store is built with the Huffman merge plan's consumption
//! schedule, so it knows exactly when every partial is consumed and
//! keeps out the one needed *farthest in the future* — an arriving
//! partial included (Bélády's optimal policy — the same principle as the
//! row prefetcher's replacement, §II-E).

use crate::merge::PartialSource;
use crate::spill::SpillFile;
use crate::{MemoryBudget, SpillCodec, StreamError};
use sparch_sparse::Csr;
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::mpsc::SyncSender;

/// Running spill/residency telemetry, folded into the executor's report.
#[derive(Debug, Default, Clone)]
pub(crate) struct StoreStats {
    pub peak_live_bytes: u64,
    pub spill_writes: u64,
    pub spill_reads: u64,
    pub spill_bytes_written: u64,
    /// What the same spills would have cost in the raw format — the
    /// codec's savings denominator.
    pub spill_bytes_raw_equivalent: u64,
    /// Wall time spent encoding + writing spill files — entirely on the
    /// writer thread, off the orchestrator, so it overlaps every other
    /// stage.
    pub spill_write_seconds: f64,
}

/// One spill write handed to the dedicated writer thread: the partial to
/// encode plus where it goes. The store already un-counted its bytes —
/// the writer owns the only copy until the write completes.
#[derive(Debug)]
pub(crate) struct SpillJob {
    pub id: usize,
    pub path: PathBuf,
    pub csr: Csr,
    pub codec: SpillCodec,
}

/// The budget-enforcing holding area for partial matrices, keyed by plan
/// node id (leaves `0..n`, round outputs `n + round`).
#[derive(Debug)]
pub(crate) struct PartialStore {
    budget: u64,
    spill_dir: PathBuf,
    codec: SpillCodec,
    dir_created: bool,
    resident: HashMap<usize, Csr>,
    spilled: HashMap<usize, SpillFile>,
    /// Bytes of partials currently counted as live: resident entries plus
    /// partials pinned by an in-flight merge round.
    live_bytes: u64,
    /// Bytes pinned per node by [`PartialStore::take`] until release.
    pinned: HashMap<usize, u64>,
    /// Spill files opened by `take`, deleted at release.
    pending_delete: HashMap<usize, PathBuf>,
    /// `consumers[node] = round that consumes it` — the plan's schedule
    /// ([`ExecPlan::consumers`](crate::ExecPlan::consumers)), which makes
    /// eviction exact farthest-future-use.
    consumers: Vec<usize>,
    /// Where spill writes go: the writer thread's queue. A spill with no
    /// sink installed is an error.
    sink: Option<SyncSender<SpillJob>>,
    /// Nodes whose spill write is in flight on the writer thread: not
    /// resident, not yet readable. [`PartialStore::available`] is false
    /// until [`PartialStore::complete_spill`] lands.
    spilling: HashSet<usize>,
    stats: StoreStats,
}

impl PartialStore {
    pub fn new(
        budget: MemoryBudget,
        spill_dir: PathBuf,
        codec: SpillCodec,
        consumers: Vec<usize>,
    ) -> Self {
        PartialStore {
            budget: budget.bytes(),
            spill_dir,
            codec,
            dir_created: false,
            resident: HashMap::new(),
            spilled: HashMap::new(),
            live_bytes: 0,
            pinned: HashMap::new(),
            pending_delete: HashMap::new(),
            consumers,
            sink: None,
            spilling: HashSet::new(),
            stats: StoreStats::default(),
        }
    }

    /// Routes spill writes through the dedicated writer thread from now
    /// on — the only way the store spills; dropping the store disconnects
    /// the writer once its queue drains. The caller must feed every
    /// resulting [`SpillJob`] outcome back via
    /// [`PartialStore::complete_spill`].
    pub fn set_spill_sink(&mut self, sink: SyncSender<SpillJob>) {
        self.sink = Some(sink);
    }

    /// Whether node `id` can be taken right now: resident, or spilled
    /// with the write completed. False while its write-back is still in
    /// flight on the writer thread.
    pub fn available(&self, id: usize) -> bool {
        self.resident.contains_key(&id) || self.spilled.contains_key(&id)
    }

    /// Spill writes currently in flight on the writer thread.
    pub fn spills_in_flight(&self) -> usize {
        self.spilling.len()
    }

    /// Records the writer thread's outcome for node `id`: on success the
    /// node becomes readable (and the byte/time counters land); an I/O
    /// failure is returned for the orchestrator to report.
    pub fn complete_spill(
        &mut self,
        id: usize,
        outcome: Result<(SpillFile, u64, f64), StreamError>,
    ) -> Result<(), StreamError> {
        assert!(self.spilling.remove(&id), "spill {id} was not in flight");
        let (file, raw_equivalent, seconds) = outcome?;
        self.stats.spill_bytes_written += file.bytes;
        self.stats.spill_bytes_raw_equivalent += raw_equivalent;
        self.stats.spill_write_seconds += seconds;
        self.spilled.insert(id, file);
        Ok(())
    }

    /// Accepts a freshly produced partial. While it does not fit
    /// alongside the current residents, whichever of them and it is used
    /// farthest in the future (then largest, then smallest id) leaves
    /// memory: a resident is evicted and the loop goes on, the newcomer
    /// goes straight to disk and is never counted as live — as it does
    /// when nothing is left to evict. A partial that stays is shrunk to
    /// fit first, so the heap it holds is the bytes the budget counts.
    pub fn insert(&mut self, id: usize, mut csr: Csr) -> Result<(), StreamError> {
        let bytes = csr.estimated_bytes();
        let key = (self.consumers[id], bytes, Reverse(id));
        while self.live_bytes.saturating_add(bytes) > self.budget {
            let Some((.., Reverse(victim))) = self.farthest().filter(|&far| far > key) else {
                return self.spill(id, csr);
            };
            let evicted = self.resident.remove(&victim).expect("victim is resident");
            self.live_bytes -= evicted.estimated_bytes();
            self.spill(victim, evicted)?;
        }
        csr.shrink_to_fit();
        self.resident.insert(id, csr);
        self.live_bytes += bytes;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.live_bytes);
        Ok(())
    }

    /// Opens node `id` as a merge-round source. Resident partials stay
    /// counted against the budget (they remain in memory while the round
    /// runs); spilled partials come back as a bounded-buffer streaming
    /// reader, handed the file's row index so the round can be cut into
    /// bands.
    pub fn take(&mut self, id: usize) -> Result<PartialSource, StreamError> {
        debug_assert!(
            !self.spilling.contains(&id),
            "partial {id} taken while its spill write is in flight"
        );
        if let Some(csr) = self.resident.remove(&id) {
            self.pinned.insert(id, csr.estimated_bytes());
            return Ok(PartialSource::from_csr(csr));
        }
        let file = self
            .spilled
            .remove(&id)
            .unwrap_or_else(|| panic!("partial {id} neither resident nor spilled"));
        self.stats.spill_reads += 1;
        let path = file.path.clone();
        let source = PartialSource::from_spill(file)?;
        self.pending_delete.insert(id, path);
        Ok(source)
    }

    /// Marks node `id` fully consumed: un-counts pinned bytes and deletes
    /// its spill file.
    pub fn release(&mut self, id: usize) {
        if let Some(bytes) = self.pinned.remove(&id) {
            self.live_bytes -= bytes;
        }
        if let Some(path) = self.pending_delete.remove(&id) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Spill/residency counters accumulated so far.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Removes the run's spill directory (best-effort; spill files are
    /// deleted as they are consumed, so this normally just removes an
    /// empty directory).
    pub fn cleanup(&mut self) {
        if self.dir_created {
            let _ = std::fs::remove_dir_all(&self.spill_dir);
            self.dir_created = false;
        }
    }

    /// The eviction key `(consuming round, bytes, Reverse(id))` of the
    /// resident used farthest in the future — the largest key goes first,
    /// so ties break toward more bytes, then the smallest id, fully
    /// deterministically — or `None` when only pinned partials are live.
    fn farthest(&self) -> Option<(usize, u64, Reverse<usize>)> {
        let key =
            |(&id, csr): (&usize, &Csr)| (self.consumers[id], csr.estimated_bytes(), Reverse(id));
        self.resident.iter().map(key).max()
    }

    /// Hands node `id` to the writer thread; the partial's bytes travel
    /// with the job and are no longer the store's.
    fn spill(&mut self, id: usize, csr: Csr) -> Result<(), StreamError> {
        let Some(sink) = &self.sink else {
            return Err(StreamError::Io(format!(
                "partial {id} must spill but no spill writer is installed"
            )));
        };
        if !self.dir_created {
            std::fs::create_dir_all(&self.spill_dir).map_err(|e| {
                StreamError::Io(format!(
                    "failed to create spill dir {}: {e}",
                    self.spill_dir.display()
                ))
            })?;
            self.dir_created = true;
        }
        let path = self.spill_dir.join(format!("partial-{id}.bin"));
        self.stats.spill_writes += 1;
        let codec = self.codec;
        sink.send(SpillJob {
            id,
            path,
            csr,
            codec,
        })
        .map_err(|_| StreamError::Io("spill writer thread is gone".into()))?;
        self.spilling.insert(id);
        Ok(())
    }
}

impl Drop for PartialStore {
    fn drop(&mut self) {
        // Error paths may leave spill files behind; sweep them with the
        // directory.
        self.cleanup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::{raw_size, write_partial};
    use sparch_sparse::gen;
    use std::sync::mpsc::{sync_channel, Receiver};

    impl PartialStore {
        /// Fully materializes node `id`.
        fn take_full(&mut self, id: usize) -> Result<Csr, StreamError> {
            let csr = self.take(id)?.into_csr()?;
            self.release(id);
            Ok(csr)
        }
    }

    fn dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sparch_store_{tag}_{}", std::process::id()))
    }

    fn partial(seed: u64) -> Csr {
        gen::uniform_random(16, 16, 64, seed)
    }

    /// A store with a spill sink installed, as the pipeline builds it,
    /// plus the sink's far end for [`land_spills`]. Node `i` is consumed
    /// by round `i`, so later nodes are evicted first.
    fn store(budget: MemoryBudget, dir: PathBuf) -> (PartialStore, Receiver<SpillJob>) {
        consumed_by(budget, dir, (0..8).collect())
    }

    fn consumed_by(
        budget: MemoryBudget,
        dir: PathBuf,
        consumers: Vec<usize>,
    ) -> (PartialStore, Receiver<SpillJob>) {
        let (tx, rx) = sync_channel(64);
        let mut store = PartialStore::new(budget, dir, SpillCodec::Raw, consumers);
        store.set_spill_sink(tx);
        (store, rx)
    }

    /// Runs the writer loop over every queued job the way the pipeline's
    /// writer thread does — encode, write, report the outcome back.
    fn land_spills(store: &mut PartialStore, jobs: &Receiver<SpillJob>) {
        while let Ok(job) = jobs.try_recv() {
            let raw = raw_size(&job.csr);
            let outcome = write_partial(&job.path, &job.csr, job.codec).map(|f| (f, raw, 0.0));
            store.complete_spill(job.id, outcome).unwrap();
        }
    }

    #[test]
    fn unbounded_budget_never_spills() {
        let (mut store, _jobs) = store(MemoryBudget::unbounded(), dir("nospill"));
        for id in 0..4 {
            store.insert(id, partial(id as u64)).unwrap();
        }
        assert_eq!(store.stats().spill_writes, 0);
        assert!(store.stats().peak_live_bytes > 0);
        for id in 0..4 {
            assert!(store.resident.contains_key(&id));
            assert_eq!(
                store.take(id).unwrap().into_csr().unwrap(),
                partial(id as u64)
            );
            store.release(id);
        }
    }

    #[test]
    fn zero_budget_spills_everything_and_streams_back() {
        let (mut store, jobs) = store(MemoryBudget::from_bytes(0), dir("allspill"));
        let originals: Vec<Csr> = (0..3).map(|s| partial(s as u64)).collect();
        for (id, p) in originals.iter().enumerate() {
            store.insert(id, p.clone()).unwrap();
        }
        assert_eq!(store.stats().spill_writes, 3);
        assert_eq!(store.spills_in_flight(), 3);
        assert!(!store.available(0));
        land_spills(&mut store, &jobs);
        assert_eq!(store.stats().peak_live_bytes, 0);
        for (id, p) in originals.iter().enumerate() {
            assert!(
                store.spilled.contains_key(&id),
                "partial {id} should have spilled"
            );
            assert_eq!(&store.take(id).unwrap().into_csr().unwrap(), p);
            store.release(id);
        }
        assert_eq!(store.stats().spill_reads, 3);
        store.cleanup();
    }

    #[test]
    fn budget_is_a_live_bytes_invariant() {
        // Budget fits roughly two partials; the third insert must evict.
        let p = partial(1);
        let budget = MemoryBudget::from_bytes(p.estimated_bytes() * 2 + 16);
        let (mut store, jobs) = store(budget, dir("invariant"));
        for id in 0..5 {
            store.insert(id, partial(id as u64)).unwrap();
            land_spills(&mut store, &jobs);
            assert!(
                store.stats().peak_live_bytes <= budget.bytes(),
                "budget exceeded after insert {id}"
            );
        }
        assert!(store.stats().spill_writes >= 3);
        store.cleanup();
    }

    #[test]
    fn consumers_schedule_evicts_farthest_use_first() {
        let p = partial(7);
        let budget = MemoryBudget::from_bytes(p.estimated_bytes() * 2 + 16);
        // Node 0 is consumed last (round 9), node 1 soon (round 0).
        let (mut store, jobs) = consumed_by(budget, dir("belady"), vec![9, 0, 1, 2]);
        store.insert(0, partial(10)).unwrap();
        store.insert(1, partial(11)).unwrap();
        store.insert(2, partial(12)).unwrap(); // must evict node 0
        land_spills(&mut store, &jobs);
        assert!(store.resident.contains_key(&1) && store.resident.contains_key(&2));
        assert!(store.spilled.contains_key(&0));
        for id in [1, 2, 0] {
            store.take(id).unwrap();
            store.release(id);
        }
        store.cleanup();
    }

    /// The arrival is weighed like the residents: used after both of them,
    /// it is the one that goes to disk, and they stay.
    #[test]
    fn an_arrival_used_farthest_spills_and_the_residents_stay() {
        let p = partial(7);
        let budget = MemoryBudget::from_bytes(p.estimated_bytes() * 2 + 16);
        let (mut store, jobs) = consumed_by(budget, dir("belady_arrival"), vec![0, 1, 3]);
        store.insert(0, partial(10)).unwrap();
        store.insert(1, partial(11)).unwrap();
        store.insert(2, partial(12)).unwrap();
        assert_eq!(store.stats().spill_writes, 1);
        land_spills(&mut store, &jobs);
        assert!(store.resident.contains_key(&0) && store.resident.contains_key(&1));
        assert!(store.spilled.contains_key(&2));
        assert!(store.stats().peak_live_bytes <= budget.bytes());
        for id in [0, 1, 2] {
            store.take(id).unwrap();
            store.release(id);
        }
        store.cleanup();
    }

    #[test]
    fn take_full_round_trips_both_paths() {
        let p = partial(3);
        let (mut resident, _jobs) = store(MemoryBudget::unbounded(), dir("full_mem"));
        resident.insert(0, p.clone()).unwrap();
        assert_eq!(resident.take_full(0).unwrap(), p);
        let (mut spilly, jobs) = store(MemoryBudget::from_bytes(0), dir("full_disk"));
        spilly.insert(0, p.clone()).unwrap();
        land_spills(&mut spilly, &jobs);
        assert_eq!(spilly.take_full(0).unwrap(), p);
        spilly.cleanup();
    }

    /// A store without a sink — the pipeline installs one only under a
    /// bounded budget — has nowhere to spill: a typed error, not a write
    /// on the orchestrator's thread.
    #[test]
    fn a_spill_without_a_sink_is_an_io_error() {
        let consumers = (0..8).collect();
        let mut store = PartialStore::new(
            MemoryBudget::from_bytes(0),
            dir("no_sink"),
            SpillCodec::Raw,
            consumers,
        );
        match store.insert(0, partial(1)) {
            Err(StreamError::Io(msg)) => assert!(msg.contains("no spill writer"), "{msg}"),
            other => panic!("expected an Io error, got {other:?}"),
        }
        assert_eq!(store.stats().spill_writes, 0);
    }

    #[test]
    fn a_spill_header_damaged_on_disk_fails_take_with_its_path() {
        let d = dir("damaged_shape");
        let (mut store, jobs) = store(MemoryBudget::from_bytes(0), d.clone());
        store.insert(0, partial(1)).unwrap();
        land_spills(&mut store, &jobs);
        let path = store.spilled[&0].path.clone();
        let mut bytes = std::fs::read(&path).unwrap();
        // The header's row count: 2⁴⁰ rows would size `read_all`'s row
        // pointers at 8 TiB.
        bytes[4..12].copy_from_slice(&(1u64 << 40).to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        match store.take_full(0) {
            Err(StreamError::Io(msg)) => assert!(
                msg.contains(&path.display().to_string()) && msg.contains("declares shape"),
                "{msg}"
            ),
            other => panic!("expected an Io error, got {other:?}"),
        }
        store.cleanup();
        assert!(!d.exists());
    }

    #[test]
    fn cleanup_removes_the_spill_directory() {
        let d = dir("cleanup");
        let (mut store, jobs) = store(MemoryBudget::from_bytes(0), d.clone());
        store.insert(0, partial(1)).unwrap();
        assert!(d.exists());
        land_spills(&mut store, &jobs);
        store.take_full(0).unwrap();
        store.cleanup();
        assert!(!d.exists());
    }
}

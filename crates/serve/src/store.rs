//! The persistent memo store: verified plan artifacts that survive a
//! server restart.
//!
//! The in-memory [`MemoCache`](crate::cache::MemoCache) dies with the
//! process; a [`MemoStore`] is the durable tier underneath it. The
//! file-backed implementation ([`FileMemoStore`]) is an append-only log of
//! [`MemoRecord`](pathdriver_wash::codec::FrameType::MemoRecord) frames —
//! each one `{ key, artifact }` in the canonical codec, so every record
//! carries the codec magic, [`SCHEMA_VERSION`], and an XXH64 digest
//! trailer.
//! On open the log is replayed last-wins and **compacted**: superseded
//! writes, version-skewed records, and a torn tail (a crash mid-append) are
//! all dropped on the floor and the file is atomically rewritten without
//! them. A stale-version entry is therefore *evicted, never served* — it
//! cannot even be loaded.
//!
//! Appends are checked: [`MemoStore::put`] reports a failed write, the
//! server counts it (`ServeStats::persist_write_failures`), and a log
//! whose append failed takes no further appends — records after a torn
//! one would be dropped by the next open's replay anyway. The entry keeps
//! serving from memory for the life of the process.
//!
//! Trust model: the store holds [`PlanArtifact`]s, not bare plans. The
//! server re-verifies an artifact's certificate against the requester's
//! concrete instance before serving it ([`PlanArtifact::verify`]); a
//! persisted artifact that no longer reproduces its digests (disk
//! corruption the frame digest missed, a chip that changed under the same
//! key, a forged file) is rejected and replaced by a fresh solve.
//!
//! [`SCHEMA_VERSION`]: pathdriver_wash::SCHEMA_VERSION

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use pathdriver_wash::codec::{self, CodecError, FrameType};
use pathdriver_wash::PlanArtifact;
use serde::{Deserialize, Serialize};

/// One persisted memo entry: the versioned memo key and its artifact.
#[derive(Debug, Clone, Deserialize)]
struct MemoRecord {
    key: u64,
    artifact: PlanArtifact,
}

/// A [`MemoRecord`] over a borrowed artifact: it encodes to the same bytes.
#[derive(Serialize)]
struct MemoRecordRef<'a> {
    key: u64,
    artifact: &'a PlanArtifact,
}

impl MemoRecord {
    /// The record's frame, encoded from a borrowed artifact.
    fn frame(key: u64, artifact: &PlanArtifact) -> Vec<u8> {
        codec::encode_frame(FrameType::MemoRecord, &MemoRecordRef { key, artifact })
    }
}

/// A durable map from memo key to verified [`PlanArtifact`].
///
/// Implementations must be safe to call from several server workers at
/// once. `get` returns whatever was last `put` for the key — the *server*
/// owns certificate re-verification; the store only owns integrity of the
/// bytes (which the codec frames enforce). Artifacts are shared, not
/// copied: the server's memo entry and the store hold the same `Arc`.
pub trait MemoStore: Send + Sync {
    /// The stored artifact for `key`, if any.
    fn get(&self, key: u64) -> Option<Arc<PlanArtifact>>;

    /// Stores (or overwrites) `key`'s artifact. An error means the entry
    /// may not survive a restart; `get` still returns it until then.
    fn put(&self, key: u64, artifact: Arc<PlanArtifact>) -> io::Result<()>;

    /// Number of live entries.
    fn len(&self) -> usize;

    /// `true` when no entries are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A purely in-memory [`MemoStore`] — the trait's reference
/// implementation, useful for tests and for serving without persistence.
#[derive(Default)]
pub struct InMemoryMemoStore {
    entries: Mutex<HashMap<u64, Arc<PlanArtifact>>>,
}

impl InMemoryMemoStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MemoStore for InMemoryMemoStore {
    fn get(&self, key: u64) -> Option<Arc<PlanArtifact>> {
        self.entries.lock().unwrap().get(&key).cloned()
    }

    fn put(&self, key: u64, artifact: Arc<PlanArtifact>) -> io::Result<()> {
        self.entries.lock().unwrap().insert(key, artifact);
        Ok(())
    }

    fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }
}

/// What [`FileMemoStore::open`] found in an existing log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreLoadReport {
    /// Live entries loaded (after last-wins replay).
    pub loaded: usize,
    /// Records dropped because they were written by a different
    /// [`SCHEMA_VERSION`](pathdriver_wash::SCHEMA_VERSION).
    pub stale_version: usize,
    /// Earlier writes superseded by a later record for the same key.
    pub superseded: usize,
    /// `true` when the log ended in a torn or corrupt record (crash
    /// mid-append, flipped bytes); everything from the first bad frame on
    /// was dropped.
    pub corrupt_tail: bool,
}

impl StoreLoadReport {
    /// `true` when compaction rewrote the file (anything was dropped).
    pub fn compacted(&self) -> bool {
        self.stale_version > 0 || self.superseded > 0 || self.corrupt_tail
    }
}

struct FileState {
    entries: HashMap<u64, Arc<PlanArtifact>>,
    writer: BufWriter<Box<dyn Write + Send>>,
    /// Set by the first failed append: the log may end in a torn record,
    /// so later appends would be lost at replay and are refused instead.
    torn: bool,
}

/// An append-only, self-compacting file-backed [`MemoStore`] (see the
/// [module docs](self)).
pub struct FileMemoStore {
    path: PathBuf,
    state: Mutex<FileState>,
}

impl FileMemoStore {
    /// Opens (or creates) the store at `path`, replaying and compacting
    /// any existing log. Returns the store and a report of what the replay
    /// found.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<(Self, StoreLoadReport)> {
        let path = path.into();
        let mut entries: HashMap<u64, PlanArtifact> = HashMap::new();
        let mut report = StoreLoadReport::default();
        if path.exists() {
            let mut reader = BufReader::new(File::open(&path)?);
            loop {
                match codec::read_frame(&mut reader) {
                    Ok(None) => break,
                    Ok(Some(frame)) => {
                        match codec::decode_frame::<MemoRecord>(FrameType::MemoRecord, &frame) {
                            Ok(record) => {
                                if entries.insert(record.key, record.artifact).is_some() {
                                    report.superseded += 1;
                                }
                            }
                            Err(CodecError::VersionSkew { .. }) => report.stale_version += 1,
                            // Any other defect inside a structurally whole
                            // frame (digest mismatch, wrong type, malformed
                            // payload) means the log can no longer be
                            // trusted past this point.
                            Err(_) => {
                                report.corrupt_tail = true;
                                break;
                            }
                        }
                    }
                    // A torn tail (crash mid-append) or unreadable bytes:
                    // keep what replayed cleanly, drop the rest.
                    Err(_) => {
                        report.corrupt_tail = true;
                        break;
                    }
                }
            }
        }
        report.loaded = entries.len();
        if report.compacted() {
            // Atomic rewrite: the log on disk shrinks to exactly the live
            // entries, in sorted key order for determinism.
            let tmp = path.with_extension("tmp");
            {
                let mut w = BufWriter::new(File::create(&tmp)?);
                let mut keys: Vec<u64> = entries.keys().copied().collect();
                keys.sort_unstable();
                for key in keys {
                    w.write_all(&MemoRecord::frame(key, &entries[&key]))?;
                }
                w.flush()?;
            }
            std::fs::rename(&tmp, &path)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let writer = BufWriter::new(Box::new(file) as Box<dyn Write + Send>);
        let entries = entries
            .into_iter()
            .map(|(key, artifact)| (key, Arc::new(artifact)))
            .collect();
        Ok((
            FileMemoStore {
                path,
                state: Mutex::new(FileState {
                    entries,
                    writer,
                    torn: false,
                }),
            },
            report,
        ))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl MemoStore for FileMemoStore {
    fn get(&self, key: u64) -> Option<Arc<PlanArtifact>> {
        self.state.lock().unwrap().entries.get(&key).cloned()
    }

    fn put(&self, key: u64, artifact: Arc<PlanArtifact>) -> io::Result<()> {
        let frame = MemoRecord::frame(key, &artifact);
        let mut state = self.state.lock().unwrap();
        // The entry serves this process whether or not the append lands.
        state.entries.insert(key, artifact);
        if state.torn {
            return Err(io::Error::other(
                "memo log is torn by an earlier failed append",
            ));
        }
        let written = state
            .writer
            .write_all(&frame)
            .and_then(|()| state.writer.flush());
        state.torn = written.is_err();
        written
    }

    fn len(&self) -> usize {
        self.state.lock().unwrap().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdriver_wash::codec::xxh64;
    use pathdriver_wash::{config_fingerprint, instance_hash, memo_key, plan_resilient, PdwConfig};
    use pdw_assay::benchmarks;
    use pdw_synth::synthesize;

    fn temp_path(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("pdw-memo-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn demo_artifact() -> (Arc<PlanArtifact>, u64) {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let config = PdwConfig {
            ilp: false,
            ..PdwConfig::default()
        };
        let outcome = plan_resilient(&bench, &s, &config);
        let ih = instance_hash(&bench, &s);
        let fp = config_fingerprint(&config);
        let artifact = PlanArtifact::certified(
            ih,
            fp,
            outcome.rung.unwrap(),
            &bench,
            &s,
            outcome.served.unwrap(),
        );
        (Arc::new(artifact), memo_key(ih, fp))
    }

    #[test]
    fn file_store_survives_a_restart() {
        let path = temp_path("restart");
        let (artifact, key) = demo_artifact();
        {
            let (store, report) = FileMemoStore::open(&path).unwrap();
            assert_eq!(report, StoreLoadReport::default());
            assert!(store.is_empty());
            store.put(key, Arc::clone(&artifact)).unwrap();
            assert_eq!(store.len(), 1);
        }
        let (store, report) = FileMemoStore::open(&path).unwrap();
        assert_eq!(report.loaded, 1);
        assert!(!report.compacted());
        let back = store.get(key).expect("persisted entry");
        assert_eq!(back.result.schedule, artifact.result.schedule);
        assert_eq!(back.certificate, artifact.certificate);
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        back.verify(&bench, &s).expect("reloaded artifact verifies");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn last_wins_and_compaction_shrinks_the_log() {
        let path = temp_path("compact");
        let (artifact, key) = demo_artifact();
        {
            let (store, _) = FileMemoStore::open(&path).unwrap();
            store.put(key, Arc::clone(&artifact)).unwrap();
            store.put(key, Arc::clone(&artifact)).unwrap(); // superseded duplicate
            store.put(key ^ 1, Arc::clone(&artifact)).unwrap();
        }
        let grown = std::fs::metadata(&path).unwrap().len();
        let (store, report) = FileMemoStore::open(&path).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(report.superseded, 1);
        assert!(report.compacted());
        assert_eq!(store.len(), 2);
        drop(store);
        let compacted = std::fs::metadata(&path).unwrap().len();
        assert!(compacted < grown, "{compacted} !< {grown}");
        // A third open finds a clean log: nothing left to compact.
        let (_, report) = FileMemoStore::open(&path).unwrap();
        assert!(!report.compacted());
        let _ = std::fs::remove_file(&path);
    }

    /// Re-frames `frame` as if written by codec version `version`,
    /// recomputing the digest trailer so only the version check can
    /// reject it.
    fn reversion_frame(frame: &[u8], version: u8) -> Vec<u8> {
        let mut out = frame[..frame.len() - 8].to_vec();
        out[4] = version;
        let digest = xxh64(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    #[test]
    fn stale_version_records_are_evicted_not_served() {
        let path = temp_path("skew");
        let (artifact, key) = demo_artifact();
        {
            let (store, _) = FileMemoStore::open(&path).unwrap();
            store.put(key, Arc::clone(&artifact)).unwrap();
        }
        // Rewrite the lone record as a version-skewed one.
        let bytes = std::fs::read(&path).unwrap();
        let skewed = reversion_frame(&bytes, pathdriver_wash::SCHEMA_VERSION + 1);
        std::fs::write(&path, &skewed).unwrap();
        let (store, report) = FileMemoStore::open(&path).unwrap();
        assert_eq!(report.stale_version, 1);
        assert_eq!(report.loaded, 0);
        assert!(store.get(key).is_none(), "stale entry must not be served");
        drop(store);
        // Compaction dropped it from disk too.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Opens a log written by an older codec: one `put` of the demo's
    /// certified greedy artifact. Its record must be evicted as stale and
    /// compacted off disk.
    fn assert_old_log_is_evicted_and_compacted_away(log: &[u8], tag: &str) {
        let path = temp_path(tag);
        std::fs::write(&path, log).unwrap();
        let (store, report) = FileMemoStore::open(&path).unwrap();
        assert_eq!(
            report,
            StoreLoadReport {
                stale_version: 1,
                ..StoreLoadReport::default()
            }
        );
        assert!(store.is_empty(), "an old record must not be served");
        drop(store);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Schema v2: an FNV-1a digest trailer.
    #[test]
    fn a_real_v2_record_is_evicted_as_stale_and_compacted_away() {
        assert_old_log_is_evicted_and_compacted_away(
            include_bytes!("../../../tests/golden/memo_record_v2.bin"),
            "v2",
        );
    }

    /// Schema v3: every coordinate a two-key map, every path a list of
    /// them.
    #[test]
    fn a_real_v3_record_is_evicted_as_stale_and_compacted_away() {
        assert_old_log_is_evicted_and_compacted_away(
            include_bytes!("../../../tests/golden/memo_record_v3.bin"),
            "v3",
        );
    }

    /// Schema v4: every coordinate one word, every path a step string, and
    /// three region-worker counters in the plan's pipeline stats.
    #[test]
    fn a_real_v4_record_is_evicted_as_stale_and_compacted_away() {
        assert_old_log_is_evicted_and_compacted_away(
            include_bytes!("../../../tests/golden/memo_record_v4.bin"),
            "v4",
        );
    }

    #[test]
    fn torn_tail_keeps_the_clean_prefix() {
        let path = temp_path("torn");
        let (artifact, key) = demo_artifact();
        {
            let (store, _) = FileMemoStore::open(&path).unwrap();
            store.put(key, Arc::clone(&artifact)).unwrap();
        }
        let whole = std::fs::metadata(&path).unwrap().len();
        // Append a second record, then tear it mid-frame.
        {
            let (store, _) = FileMemoStore::open(&path).unwrap();
            store.put(key ^ 1, Arc::clone(&artifact)).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..whole as usize + 11]).unwrap();
        let (store, report) = FileMemoStore::open(&path).unwrap();
        assert!(report.corrupt_tail);
        assert_eq!(report.loaded, 1);
        assert!(store.get(key).is_some());
        assert!(store.get(key ^ 1).is_none());
        let _ = std::fs::remove_file(&path);
    }

    /// A writer whose every write fails, like a full or unplugged disk.
    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("disk full"))
        }
    }

    #[test]
    fn failed_appends_are_reported_and_stop_further_appends() {
        let path = temp_path("failing");
        let (artifact, key) = demo_artifact();
        let (store, _) = FileMemoStore::open(&path).unwrap();
        store.state.lock().unwrap().writer = BufWriter::new(Box::new(FailingWriter));
        let err = store.put(key, Arc::clone(&artifact)).unwrap_err();
        assert!(err.to_string().contains("disk full"), "got: {err}");
        // The entry still serves this process, as the same shared artifact.
        assert!(Arc::ptr_eq(&store.get(key).unwrap(), &artifact));
        // A second put is refused without touching the torn log.
        let err = store.put(key ^ 1, Arc::clone(&artifact)).unwrap_err();
        assert!(err.to_string().contains("torn"), "got: {err}");
        assert_eq!(store.len(), 2);
        drop(store);
        // Nothing reached the file: a reopen finds an empty, clean log.
        let (store, report) = FileMemoStore::open(&path).unwrap();
        assert_eq!(report, StoreLoadReport::default());
        assert!(store.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn in_memory_store_round_trips() {
        let (artifact, key) = demo_artifact();
        let store = InMemoryMemoStore::new();
        assert!(store.is_empty());
        store.put(key, Arc::clone(&artifact)).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.get(key).unwrap().result.schedule,
            artifact.result.schedule
        );
        assert!(store.get(key ^ 1).is_none());
    }
}

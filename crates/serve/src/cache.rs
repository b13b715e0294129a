//! The content-addressed result cache.
//!
//! Entries live on disk as `root/<xx>/<key>.json`, where `xx` is the
//! first two hex characters of the key (a conventional fan-out shard so
//! no single directory grows unboundedly). Each file is a
//! [`CacheDocument`] — a schema-versioned canonical-JSON envelope that
//! embeds its own payload hash, so a lookup verifies integrity before
//! trusting anything: a corrupt or truncated entry is evicted (removed
//! and counted) and reported as a miss, which makes the cache
//! self-healing — the next computation rewrites the entry.
//!
//! Writes are atomic (`tmp` + rename) so a crashed writer can never
//! leave a half-written file behind under the final name, and
//! [`ResultCache::get_or_compute`] single-flights concurrent misses on
//! the same key: one caller computes, everyone else blocks and shares
//! the result.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use alberta_core::json_codec;
use alberta_core::log_warn;
use alberta_core::protocol::RemoteStatus;
use alberta_report::CacheDocument;

/// One shard directory's statistics, as reported in the `Stats` wire
/// response. Entries and bytes are measured from disk at snapshot time;
/// evictions are counted per shard over the cache's lifetime, so a
/// shard that self-healed away its only entry still shows up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard directory name (two hex characters, or `__`).
    pub shard: String,
    /// Verified-format entries (`*.json`) currently on disk.
    pub entries: u64,
    /// Total bytes of those entries.
    pub bytes: u64,
    /// Corrupt entries evicted from this shard so far.
    pub evictions: u64,
}

json_codec!(ShardStats {
    shard,
    entries,
    bytes,
    evictions
});

/// How a [`ResultCache::get_or_compute`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The document was already on disk and verified.
    Hit,
    /// This caller computed the document.
    Computed,
    /// Another in-flight caller computed it; this caller waited and
    /// shares the result.
    Coalesced,
}

/// An in-flight computation other callers can wait on.
struct Flight {
    done: Mutex<Option<CacheDocument>>,
    cv: Condvar,
}

/// The on-disk content-addressed cache plus its in-process single-flight
/// registry.
pub struct ResultCache {
    root: PathBuf,
    evictions: AtomicU64,
    shard_evictions: Mutex<BTreeMap<String, u64>>,
    tmp_counter: AtomicU64,
    flights: Mutex<HashMap<String, Arc<Flight>>>,
}

impl ResultCache {
    /// Opens (and lazily creates) a cache rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ResultCache {
            root: root.into(),
            evictions: AtomicU64::new(0),
            shard_evictions: Mutex::new(BTreeMap::new()),
            tmp_counter: AtomicU64::new(0),
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path of a key's entry.
    pub fn path_for(&self, key: &str) -> PathBuf {
        let shard = if key.len() >= 2 { &key[..2] } else { "__" };
        self.root.join(shard).join(format!("{key}.json"))
    }

    /// Corrupt entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// A per-shard snapshot — entries and bytes from a directory scan,
    /// evictions from the lifetime counters — in shard-name order.
    /// Shards that only ever evicted (nothing left on disk) are still
    /// reported, so degradation is visible in the `Stats` response.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let mut shards: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        if let Ok(dirs) = fs::read_dir(&self.root) {
            for dir in dirs.flatten() {
                let shard = dir.file_name().to_string_lossy().into_owned();
                if !dir.path().is_dir() || shard.starts_with('.') {
                    continue;
                }
                let (mut entries, mut bytes) = (0u64, 0u64);
                if let Ok(files) = fs::read_dir(dir.path()) {
                    for file in files.flatten() {
                        let name = file.file_name().to_string_lossy().into_owned();
                        // Skip in-flight temporaries (dot-prefixed).
                        if name.starts_with('.') || !name.ends_with(".json") {
                            continue;
                        }
                        entries += 1;
                        bytes += file.metadata().map(|m| m.len()).unwrap_or(0);
                    }
                }
                shards.insert(shard, (entries, bytes));
            }
        }
        let evictions = self
            .shard_evictions
            .lock()
            .expect("shard eviction map poisoned");
        for shard in evictions.keys() {
            shards.entry(shard.clone()).or_insert((0, 0));
        }
        shards
            .into_iter()
            .map(|(shard, (entries, bytes))| ShardStats {
                evictions: evictions.get(&shard).copied().unwrap_or(0),
                shard,
                entries,
                bytes,
            })
            .collect()
    }

    /// Looks up a key, verifying the document before trusting it. A
    /// missing file is a plain miss; an unreadable, corrupt, truncated,
    /// or misfiled document (its embedded key differs from the file
    /// name) is evicted and reported as a miss.
    pub fn lookup(&self, key: &str) -> Option<CacheDocument> {
        let path = self.path_for(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(_) => {
                self.evict(&path);
                return None;
            }
        };
        match CacheDocument::parse(&text) {
            Ok(doc) if doc.key == key => Some(doc),
            _ => {
                // Parse failure covers truncation (malformed JSON) and
                // bit flips (payload-hash mismatch) alike.
                self.evict(&path);
                None
            }
        }
    }

    /// Atomically persists a document under its key: the rendering goes
    /// to a temporary file in the same shard directory and is renamed
    /// into place, so readers only ever see complete documents.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the shard directory, writing the
    /// temporary, or renaming it.
    pub fn store(&self, doc: &CacheDocument) -> io::Result<()> {
        let path = self.path_for(&doc.key);
        let dir = path.parent().expect("entry path has a shard directory");
        fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".{}.{}.{}.tmp",
            doc.key,
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, doc.to_json())?;
        fs::rename(&tmp, &path)
    }

    /// Satisfies a key: from disk when present, otherwise by running
    /// `compute` exactly once across every concurrent caller of this
    /// cache instance (later callers block and share the result).
    /// Computed documents are persisted unless their status is
    /// [`RemoteStatus::Failed`] — failures are environmental, not
    /// content, and must not poison the cache.
    pub fn get_or_compute(
        &self,
        key: &str,
        compute: impl FnOnce() -> CacheDocument,
    ) -> (CacheDocument, CacheOutcome) {
        loop {
            if let Some(doc) = self.lookup(key) {
                return (doc, CacheOutcome::Hit);
            }
            let (flight, owner) = {
                let mut flights = self.flights.lock().expect("flight registry poisoned");
                match flights.get(key) {
                    Some(flight) => (Arc::clone(flight), false),
                    None => {
                        let flight = Arc::new(Flight {
                            done: Mutex::new(None),
                            cv: Condvar::new(),
                        });
                        flights.insert(key.to_owned(), Arc::clone(&flight));
                        (flight, true)
                    }
                }
            };
            if owner {
                let doc = compute();
                if !matches!(doc.status, RemoteStatus::Failed { .. }) {
                    // Best-effort persistence: an unwritable cache
                    // degrades to recomputation, never to failure.
                    let _ = self.store(&doc);
                }
                *flight.done.lock().expect("flight poisoned") = Some(doc.clone());
                flight.cv.notify_all();
                self.flights
                    .lock()
                    .expect("flight registry poisoned")
                    .remove(key);
                return (doc, CacheOutcome::Computed);
            }
            let mut done = flight.done.lock().expect("flight poisoned");
            while done.is_none() {
                done = flight.cv.wait(done).expect("flight poisoned");
            }
            if let Some(doc) = done.clone() {
                return (doc, CacheOutcome::Coalesced);
            }
        }
    }

    fn evict(&self, path: &Path) {
        if fs::remove_file(path).is_ok() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            let shard = path
                .parent()
                .and_then(Path::file_name)
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "__".to_owned());
            *self
                .shard_evictions
                .lock()
                .expect("shard eviction map poisoned")
                .entry(shard)
                .or_insert(0) += 1;
            log_warn!(
                "cache",
                "evicted corrupt entry {} (self-healing: next computation rewrites it)",
                path.display()
            );
        }
    }
}

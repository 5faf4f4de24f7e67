//! Disk-backed, content-addressed `(layer, config) → mapping outcome`
//! store: the persistent tier below [`crate::CodesignEvaluator`]'s sharded
//! in-memory caches.
//!
//! # Layout
//!
//! A cache directory holds **record segments** (`seg-<id>.edc`) and
//! nothing else the cache reads: append-only files of length-prefixed
//! records behind a 16-byte header (magic + format version). Each record
//! stores the canonical key string, its 64-bit FNV-1a hash, the serialized
//! value, and a checksum over the whole body. Appends never rewrite
//! existing bytes; every run that writes opens a fresh segment, so
//! concurrent *readers* of old segments are never invalidated. The
//! segments are the only source of truth: the hash → record location map
//! lives in memory and is rebuilt on every open. Other files in the
//! directory are ignored.
//!
//! # Crash safety
//!
//! Appends are not flushed per record, so a crash can tear the tail of the
//! active segment. Every open scans every segment from its header,
//! verifying each record's checksum, and **keeps the surviving prefix**:
//! the scan stops at the first torn or corrupt record (logically — the
//! file is never modified) instead of failing. A segment whose header
//! carries an unknown format version is skipped whole. A clean exit and a
//! killed process therefore leave the same kind of directory, and both
//! reopen through the same scan. Every fault is counted in
//! [`DiskCacheStats`] and emitted as a `disk_cache/*` telemetry counter
//! (see [`DiskCache::open_with`]); a healthy open counts nothing.
//!
//! # Checked reads
//!
//! Every read re-verifies the record checksum and key hash, and compares
//! the stored key string against the requested key (which makes hash
//! collisions harmless), before deserializing. A record that fails any
//! check is evicted and treated as a miss: the evaluator recomputes and
//! re-appends, so corruption can cost time but never changes results.

use accel_model::{AcceleratorConfig, ExecutionProfile};
use edse_telemetry::{Collector, Level};
use mapper::MappedLayer;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use workloads::LayerShape;

/// Magic bytes opening every record segment.
const SEGMENT_MAGIC: &[u8; 8] = b"EDSECSEG";
/// On-disk format version; segments written by a different version are
/// skipped whole (never deleted, never appended to).
pub const DISKCACHE_VERSION: u32 = 1;
/// Segment header size: magic + version + reserved word.
const HEADER_LEN: u64 = 16;
/// Fixed per-record framing: body-length prefix + trailing checksum.
const FRAME_LEN: u64 = 8;
/// Minimum body: key hash (8) + key length (4).
const MIN_BODY: u32 = 12;

/// 64-bit FNV-1a. [`std::hash::DefaultHasher`] is explicitly not stable
/// across Rust releases, so content-addressed keys that live on disk get a
/// hand-rolled hash that never changes.
pub fn key_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Record checksum: the key hash folded to 32 bits.
fn checksum(body: &[u8]) -> u32 {
    let h = key_hash(body);
    (h ^ (h >> 32)) as u32
}

/// The outcome of mapping one layer onto one configuration: the value of
/// the evaluator's layer cache, of a disk record and of a snapshot's layer
/// entry. Both fields `None` records a pair that was searched and found
/// unmappable with no diagnostic available (just as expensive to
/// rediscover as a feasible mapping).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LayerOutcome {
    /// The optimized mapping, when one was feasible.
    pub mapped: Option<MappedLayer>,
    /// The diagnostic relaxed-NoC profile for infeasible pairs.
    pub diagnostic: Option<ExecutionProfile>,
}

/// One decoded record: the outcome together with the key it is stored
/// under. A snapshot carries these for layer outcomes the disk tier does
/// not hold, in the same key/value encoding as the disk.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerEntry {
    /// The [`mapper::MappingOptimizer::fingerprint`] of the mapper that
    /// produced the outcome.
    pub mapper: String,
    /// The layer shape that was mapped.
    pub shape: LayerShape,
    /// The hardware configuration it was mapped onto.
    pub cfg: AcceleratorConfig,
    /// What the mapper found.
    pub outcome: LayerOutcome,
}

impl LayerEntry {
    /// The record's canonical key (see [`layer_key`]) and its serialized
    /// value.
    pub(crate) fn to_record(&self) -> Result<(String, String), String> {
        let key = layer_key(&self.mapper, &self.shape, &self.cfg)?;
        let value =
            serde_json::to_string(&self.outcome).map_err(|e| format!("serialize record: {e}"))?;
        Ok((key, value))
    }

    /// Decodes a record's key and value.
    pub(crate) fn from_record(key: &[u8], value: &[u8]) -> Result<LayerEntry, String> {
        let key: KeyRepr = decode_json(key)?;
        Ok(LayerEntry {
            mapper: key.mapper,
            shape: key.shape,
            cfg: key.cfg,
            outcome: decode_json(value)?,
        })
    }
}

fn decode_json<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// The canonical key representation: mapper fingerprint + evaluation
/// inputs, serialized to one deterministic JSON string. Serde field order
/// is declaration order, so equal inputs always produce byte-equal keys.
#[derive(serde::Serialize, serde::Deserialize)]
struct KeyRepr {
    mapper: String,
    shape: LayerShape,
    cfg: AcceleratorConfig,
}

/// Builds the canonical content-address for one `(mapper, layer, config)`
/// triple. The mapper component must be a [`mapper::MappingOptimizer::fingerprint`]
/// — an identity that captures every result-changing knob (seeds included),
/// so two runs that would compute different outcomes never share a key.
///
/// # Errors
///
/// Returns the serialization failure (practically unreachable for these
/// always-finite types).
pub fn layer_key(
    mapper_fingerprint: &str,
    shape: &LayerShape,
    cfg: &AcceleratorConfig,
) -> Result<String, String> {
    serde_json::to_string(&KeyRepr {
        mapper: mapper_fingerprint.to_string(),
        shape: *shape,
        cfg: *cfg,
    })
    .map_err(|e| format!("serialize cache key: {e}"))
}

/// Counters describing one [`DiskCache`]'s traffic and faults, as
/// reported by [`DiskCache::stats`] and folded into
/// [`crate::evaluate::CacheStats`]. All counts are since open (the cache
/// does not persist its own statistics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCacheStats {
    /// Readable records.
    pub entries: usize,
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups not present (or evicted as unreadable).
    pub misses: u64,
    /// Records appended by this process.
    pub appends: u64,
    /// Segments whose scan stopped at a torn or corrupt record, keeping
    /// only the prefix before it.
    pub torn_tails: u64,
    /// Segments skipped whole for carrying an unknown format version.
    pub skipped_segments: u64,
    /// Records evicted after failing a read-time check.
    pub read_errors: u64,
    /// Appends lost to I/O errors (the cache degrades to pass-through;
    /// results are unaffected).
    pub write_failures: u64,
}

impl DiskCacheStats {
    /// Fraction of lookups served from disk (1.0 when there was no
    /// traffic).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Where one record lives: segment slot, byte offset of its length
/// prefix, and total on-disk length (frame included).
#[derive(Debug, Clone, Copy)]
struct Loc {
    seg: usize,
    offset: u64,
    len: u32,
}

struct Segment {
    path: PathBuf,
    file: File,
    /// Readable byte length: where the open-time scan stopped, plus this
    /// process's appends.
    len: u64,
}

struct Inner {
    /// Record hash → location, rebuilt from the segments on every open.
    index: HashMap<u64, Loc>,
    segments: Vec<Segment>,
    /// Slot in `segments` this process appends to, once created.
    active: Option<usize>,
    next_id: u64,
}

/// The disk-backed, content-addressed store; see the module docs for the
/// on-disk layout, the read checks and the crash-safety contract.
///
/// One process per cache directory at a time for writers (appends from two
/// processes would interleave into the same namespace without
/// coordination); any number of instances may share one [`DiskCache`]
/// through an [`std::sync::Arc`] — all methods take `&self`.
pub struct DiskCache {
    dir: PathBuf,
    telemetry: Collector,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    appends: AtomicU64,
    torn_tails: AtomicU64,
    skipped_segments: AtomicU64,
    read_errors: AtomicU64,
    write_failures: AtomicU64,
}

impl std::fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately lock-free: Debug must stay usable from a thread
        // that already holds `inner`.
        f.debug_struct("DiskCache")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl DiskCache {
    /// Opens (creating if needed) the cache at `dir` with no telemetry.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O failure. Corrupt cache *contents*
    /// are never an error — they are recovered from (see the module docs);
    /// only an unusable directory is.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        Self::open_with(dir, Collector::noop())
    }

    /// [`DiskCache::open`] with a telemetry collector: the cache then
    /// emits `disk_cache/{hit,miss,append}` traffic counters and
    /// `disk_cache/{torn_tails,skipped_segments,read_errors,write_failures}`
    /// fault counters, plus one warning log per fault. Opening a healthy
    /// directory counts and logs nothing.
    ///
    /// # Errors
    ///
    /// As [`DiskCache::open`].
    pub fn open_with(dir: impl Into<PathBuf>, telemetry: Collector) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("create cache dir {}: {e}", dir.display()))?;
        let cache = DiskCache {
            dir,
            telemetry,
            inner: Mutex::new(Inner {
                index: HashMap::new(),
                segments: Vec::new(),
                active: None,
                next_id: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            torn_tails: AtomicU64::new(0),
            skipped_segments: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
        };
        cache.scan_segments()?;
        Ok(cache)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of readable records.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("disk cache poisoned").index.len()
    }

    /// Whether the cache holds no readable records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a record is indexed under this canonical key's hash (a
    /// snapshot leaves such outcomes out). Reads nothing: a record that
    /// later fails its read checks, or belongs to a colliding key, is a
    /// miss at lookup time and gets recomputed.
    pub fn contains(&self, key: &str) -> bool {
        self.inner
            .lock()
            .expect("disk cache poisoned")
            .index
            .contains_key(&key_hash(key.as_bytes()))
    }

    /// A point-in-time snapshot of this cache's counters.
    pub fn stats(&self) -> DiskCacheStats {
        DiskCacheStats {
            entries: self.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            torn_tails: self.torn_tails.load(Ordering::Relaxed),
            skipped_segments: self.skipped_segments.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
        }
    }

    /// Counts one fault in `stat` and, with telemetry, in the
    /// `disk_cache/<counter>` counter plus a warning log.
    fn fault(&self, counter: &'static str, stat: &AtomicU64, detail: &str) {
        stat.fetch_add(1, Ordering::Relaxed);
        if self.telemetry.active() {
            self.telemetry.counter(&format!("disk_cache/{counter}"), 1);
            self.telemetry
                .log(Level::Warn, &format!("disk cache: {detail}"));
        }
    }

    // ------------------------------------------------------------------
    // Open-time scan
    // ------------------------------------------------------------------

    /// Scans every segment from its header into the in-memory index.
    fn scan_segments(&self) -> Result<(), String> {
        let mut seg_paths: Vec<(u64, PathBuf)> = Vec::new();
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| format!("read cache dir {}: {e}", self.dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read cache dir: {e}"))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|rest| rest.strip_suffix(".edc"))
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            {
                seg_paths.push((id, entry.path()));
            }
        }
        seg_paths.sort();

        let mut inner = self.inner.lock().expect("disk cache poisoned");
        inner.next_id = seg_paths.last().map_or(0, |(id, _)| id + 1);
        for (_, path) in seg_paths {
            let mut file =
                File::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
            let file_len = file
                .metadata()
                .map_err(|e| format!("stat {}: {e}", path.display()))?
                .len();
            if !header_ok(&mut file, file_len) {
                self.fault(
                    "skipped_segments",
                    &self.skipped_segments,
                    &format!("{}: unknown segment format, skipping", path.display()),
                );
                continue;
            }
            let seg = inner.segments.len();
            let (records, end, torn) = scan_records(&mut file, HEADER_LEN, file_len);
            for (hash, offset, len) in records {
                inner.index.entry(hash).or_insert(Loc { seg, offset, len });
            }
            if torn {
                self.fault(
                    "torn_tails",
                    &self.torn_tails,
                    &format!("{}: truncated torn tail at byte {end}", path.display()),
                );
            }
            inner.segments.push(Segment {
                path,
                file,
                len: end,
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lookup / append
    // ------------------------------------------------------------------

    /// Looks up the stored outcome for a canonical key built by
    /// [`layer_key`]. The record is checked (see the module docs) and its
    /// stored key string compared against `key`, so hash collisions are
    /// harmless. Unreadable records are evicted and reported as misses.
    pub fn get_outcome(&self, key: &str) -> Option<LayerOutcome> {
        let hash = key_hash(key.as_bytes());
        let mut inner = self.inner.lock().expect("disk cache poisoned");
        let read = inner.index.get(&hash).copied().map(|loc| {
            read_record(&mut inner, loc).and_then(|(stored_hash, stored_key, value)| {
                if stored_hash != hash || stored_key != key.as_bytes() {
                    return Err("stored key does not match".into());
                }
                decode_json(&value)
            })
        });
        if let Some(Err(_)) = read {
            inner.index.remove(&hash);
        }
        drop(inner);
        let outcome = match read {
            Some(Ok(outcome)) => Some(outcome),
            Some(Err(e)) => {
                self.fault(
                    "read_errors",
                    &self.read_errors,
                    &format!("evicted unreadable record {hash:016x}: {e}"),
                );
                None
            }
            None => None,
        };
        let (stat, counter) = match outcome {
            Some(_) => (&self.hits, "disk_cache/hit"),
            None => (&self.misses, "disk_cache/miss"),
        };
        stat.fetch_add(1, Ordering::Relaxed);
        if self.telemetry.active() {
            self.telemetry.counter(counter, 1);
        }
        outcome
    }

    /// Appends one outcome under its canonical key. A no-op when the key
    /// is already present (content-addressed: first write wins). Append
    /// failures degrade the cache to pass-through — counted and logged,
    /// never surfaced — because persistence must not be able to fail a
    /// run.
    pub fn put_outcome(&self, key: &str, value: &LayerOutcome) {
        let val = match serde_json::to_string(value) {
            Ok(v) => v,
            Err(e) => {
                self.fault(
                    "write_failures",
                    &self.write_failures,
                    &format!("serialize record: {e}"),
                );
                return;
            }
        };
        let hash = key_hash(key.as_bytes());
        let mut inner = self.inner.lock().expect("disk cache poisoned");
        if inner.index.contains_key(&hash) {
            return;
        }
        match append_record(&mut inner, &self.dir, hash, key.as_bytes(), val.as_bytes()) {
            Ok(loc) => {
                inner.index.insert(hash, loc);
                drop(inner);
                self.appends.fetch_add(1, Ordering::Relaxed);
                if self.telemetry.active() {
                    self.telemetry.counter("disk_cache/append", 1);
                }
            }
            Err(e) => {
                drop(inner);
                self.fault("write_failures", &self.write_failures, &e);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Free helpers (operate on Inner / files; no self-borrows)
// ---------------------------------------------------------------------------

fn segment_name(id: u64) -> String {
    format!("seg-{id:016x}.edc")
}

/// Reads and validates a segment header.
fn header_ok(file: &mut File, file_len: u64) -> bool {
    if file_len < HEADER_LEN {
        return false;
    }
    let mut header = [0u8; HEADER_LEN as usize];
    if file.seek(SeekFrom::Start(0)).is_err() || file.read_exact(&mut header).is_err() {
        return false;
    }
    &header[..8] == SEGMENT_MAGIC
        && u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) == DISKCACHE_VERSION
}

/// Appends `[len | body | checksum]` to `buf`; body is
/// `[hash | key_len | key | value]`. Returns the total record length.
fn encode_record(buf: &mut Vec<u8>, hash: u64, key: &[u8], value: &[u8]) -> u32 {
    let body_len = MIN_BODY as usize + key.len() + value.len();
    buf.extend_from_slice(&(body_len as u32).to_le_bytes());
    let body_start = buf.len();
    buf.extend_from_slice(&hash.to_le_bytes());
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(value);
    let sum = checksum(&buf[body_start..]);
    buf.extend_from_slice(&sum.to_le_bytes());
    (FRAME_LEN as usize + body_len) as u32
}

/// Splits a record body into `(hash, key, value)`.
fn decode_body(body: &[u8]) -> Result<(u64, Vec<u8>, Vec<u8>), String> {
    if body.len() < MIN_BODY as usize {
        return Err(format!("record body too short ({} bytes)", body.len()));
    }
    let hash = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    let key_len = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")) as usize;
    if MIN_BODY as usize + key_len > body.len() {
        return Err(format!("key length {key_len} exceeds record body"));
    }
    let key = body[12..12 + key_len].to_vec();
    let value = body[12 + key_len..].to_vec();
    Ok((hash, key, value))
}

/// Scans `[from, file_len)` for checksummed records. Returns the valid
/// `(hash, offset, total_len)` triples, the byte offset scanning stopped
/// at, and whether it stopped early on a torn or corrupt record.
fn scan_records(file: &mut File, from: u64, file_len: u64) -> (Vec<(u64, u64, u32)>, u64, bool) {
    let mut records = Vec::new();
    let mut offset = from;
    if file.seek(SeekFrom::Start(from)).is_err() {
        return (records, from, true);
    }
    while offset < file_len {
        if file_len - offset < FRAME_LEN {
            return (records, offset, true);
        }
        let mut len_buf = [0u8; 4];
        if file.read_exact(&mut len_buf).is_err() {
            return (records, offset, true);
        }
        let body_len = u32::from_le_bytes(len_buf) as u64;
        if body_len < MIN_BODY as u64 || offset + FRAME_LEN + body_len > file_len {
            return (records, offset, true);
        }
        let mut body = vec![0u8; body_len as usize + 4];
        if file.read_exact(&mut body).is_err() {
            return (records, offset, true);
        }
        let stored_sum = u32::from_le_bytes(body[body_len as usize..].try_into().expect("4 bytes"));
        let body = &body[..body_len as usize];
        if checksum(body) != stored_sum {
            return (records, offset, true);
        }
        match decode_body(body) {
            Ok((hash, _, _)) => {
                records.push((hash, offset, (FRAME_LEN + body_len) as u32));
                offset += FRAME_LEN + body_len;
            }
            Err(_) => return (records, offset, true),
        }
    }
    (records, offset, false)
}

/// Reads one record at `loc`, returning `(hash, key, value)` once its
/// framing, checksum and hash/key agreement check out.
fn read_record(inner: &mut Inner, loc: Loc) -> Result<(u64, Vec<u8>, Vec<u8>), String> {
    let seg = inner
        .segments
        .get_mut(loc.seg)
        .ok_or("record points at a missing segment")?;
    if loc.offset + loc.len as u64 > seg.len {
        return Err("record extends past the readable segment".into());
    }
    seg.file
        .seek(SeekFrom::Start(loc.offset))
        .map_err(|e| format!("seek: {e}"))?;
    let mut raw = vec![0u8; loc.len as usize];
    seg.file
        .read_exact(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    if raw.len() < FRAME_LEN as usize {
        return Err("record shorter than its frame".into());
    }
    let body_len = u32::from_le_bytes(raw[..4].try_into().expect("4 bytes")) as usize;
    if body_len + FRAME_LEN as usize != raw.len() {
        return Err("record length disagrees with the index".into());
    }
    let body = &raw[4..4 + body_len];
    let stored_sum = u32::from_le_bytes(raw[4 + body_len..].try_into().expect("4 bytes"));
    if checksum(body) != stored_sum {
        return Err("checksum mismatch".into());
    }
    let (hash, key, value) = decode_body(body)?;
    if key_hash(&key) != hash {
        return Err("stored hash disagrees with stored key".into());
    }
    Ok((hash, key, value))
}

/// Appends one record to the active segment, creating a fresh segment on
/// first write.
fn append_record(
    inner: &mut Inner,
    dir: &Path,
    hash: u64,
    key: &[u8],
    value: &[u8],
) -> Result<Loc, String> {
    let seg = match inner.active {
        Some(seg) => seg,
        None => {
            let id = inner.next_id;
            inner.next_id += 1;
            let path = dir.join(segment_name(id));
            let mut file = OpenOptions::new()
                .read(true)
                .append(true)
                .create_new(true)
                .open(&path)
                .map_err(|e| format!("create {}: {e}", path.display()))?;
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(SEGMENT_MAGIC);
            header.extend_from_slice(&DISKCACHE_VERSION.to_le_bytes());
            header.extend_from_slice(&0u32.to_le_bytes());
            file.write_all(&header)
                .map_err(|e| format!("write header {}: {e}", path.display()))?;
            inner.segments.push(Segment {
                path,
                file,
                len: HEADER_LEN,
            });
            let seg = inner.segments.len() - 1;
            inner.active = Some(seg);
            seg
        }
    };
    let mut buf = Vec::new();
    let len = encode_record(&mut buf, hash, key, value);
    let segment = &mut inner.segments[seg];
    let offset = segment.len;
    segment
        .file
        .write_all(&buf)
        .map_err(|e| format!("append {}: {e}", segment.path.display()))?;
    segment.len += buf.len() as u64;
    Ok(Loc { seg, offset, len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapper::{FixedMapper, MappingOptimizer};
    use std::sync::atomic::AtomicU64 as SeqCounter;

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: SeqCounter = SeqCounter::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("edse-diskcache-{}-{tag}-{n}", std::process::id()))
    }

    fn sample_entries(n: usize) -> Vec<(String, LayerOutcome)> {
        let cfg = AcceleratorConfig::edge_baseline();
        (0..n)
            .map(|i| {
                let shape = LayerShape::conv(1, 16 + i as u64, 16, 14, 14, 3, 3, 1);
                let mapped = FixedMapper.optimize(&shape, &cfg);
                let key = layer_key("fixed-os", &shape, &cfg).unwrap();
                let value = LayerOutcome {
                    mapped,
                    diagnostic: None,
                };
                (key, value)
            })
            .collect()
    }

    #[test]
    fn fnv_hash_is_the_published_constant_function() {
        // Published FNV-1a test vectors: stability across builds is the
        // whole point of hand-rolling the hash.
        assert_eq!(key_hash(b""), 0xcbf29ce484222325);
        assert_eq!(key_hash(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(key_hash(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn put_get_round_trips_and_counts() {
        let dir = temp_dir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        let entries = sample_entries(3);
        for (key, value) in &entries {
            assert_eq!(cache.get_outcome(key), None);
            cache.put_outcome(key, value);
        }
        for (key, value) in &entries {
            assert_eq!(cache.get_outcome(key).as_ref(), Some(value));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.appends, 3);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.torn_tails, 0);
        // Duplicate put is a no-op.
        cache.put_outcome(&entries[0].0, &entries[0].1);
        assert_eq!(cache.stats().appends, 3);
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_without_index_recovers_all_records_by_scan() {
        let dir = temp_dir("noindex");
        let entries = sample_entries(3);
        {
            let cache = DiskCache::open(&dir).unwrap();
            for (key, value) in &entries {
                cache.put_outcome(key, value);
            }
            std::mem::forget(cache); // crash: nothing runs on the way out
        }
        let cache = DiskCache::open(&dir).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        for (key, value) in &entries {
            assert_eq!(cache.get_outcome(key).as_ref(), Some(value));
        }
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_signalled_servers_directory_reopens_whole_from_its_segments() {
        let dir = temp_dir("restart");
        let entries = sample_entries(4);
        // Two write sessions whose caches are never dropped, as a server
        // stopped by a signal leaves them: one segment each.
        for session in entries.chunks(2) {
            let cache = DiskCache::open(&dir).unwrap();
            for (key, value) in session {
                cache.put_outcome(key, value);
            }
            std::mem::forget(cache);
        }
        // The index file older builds wrote on drop is ignored.
        std::fs::write(dir.join("index").with_extension("json"), "{ junk").unwrap();

        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.inner.lock().unwrap().segments.len(), 2);
        let stats = cache.stats();
        assert_eq!(stats.entries, 4);
        assert_eq!(
            (stats.torn_tails, stats.skipped_segments, stats.read_errors),
            (0, 0, 0)
        );
        for (key, value) in &entries {
            // Every record reads back under its key, with the value written.
            assert_eq!(cache.get_outcome(key).as_ref(), Some(value));
        }
        assert_eq!(cache.stats().read_errors, 0);
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_the_surviving_prefix() {
        let dir = temp_dir("torn");
        let entries = sample_entries(3);
        let seg_path = {
            let cache = DiskCache::open(&dir).unwrap();
            for (key, value) in &entries {
                cache.put_outcome(key, value);
            }
            let inner = cache.inner.lock().unwrap();
            let path = inner.segments[0].path.clone();
            drop(inner);
            std::mem::forget(cache);
            path
        };
        // Kill the append mid-record: chop 5 bytes off the tail.
        let len = std::fs::metadata(&seg_path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg_path).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);

        let cache = DiskCache::open(&dir).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 2, "the torn third record is gone");
        assert_eq!(stats.torn_tails, 1);
        assert_eq!(
            cache.get_outcome(&entries[0].0).as_ref(),
            Some(&entries[0].1)
        );
        assert_eq!(
            cache.get_outcome(&entries[1].0).as_ref(),
            Some(&entries[1].1)
        );
        assert_eq!(cache.get_outcome(&entries[2].0), None);
        // The lost pair can be re-appended (new segment, old one untouched).
        cache.put_outcome(&entries[2].0, &entries[2].1);
        assert_eq!(
            cache.get_outcome(&entries[2].0).as_ref(),
            Some(&entries[2].1)
        );
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_segment_version_is_skipped_not_fatal() {
        let dir = temp_dir("version");
        let entries = sample_entries(2);
        {
            let cache = DiskCache::open(&dir).unwrap();
            for (key, value) in &entries {
                cache.put_outcome(key, value);
            }
        }
        // Bump the version in every segment header.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "edc") {
                let mut bytes = std::fs::read(&path).unwrap();
                bytes[8..12].copy_from_slice(&(DISKCACHE_VERSION + 1).to_le_bytes());
                std::fs::write(&path, bytes).unwrap();
            }
        }
        let cache = DiskCache::open(&dir).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0, "future-format segments are opaque");
        assert!(stats.skipped_segments >= 1);
        // New appends land in a fresh segment with a fresh id.
        cache.put_outcome(&entries[0].0, &entries[0].1);
        assert_eq!(
            cache.get_outcome(&entries[0].0).as_ref(),
            Some(&entries[0].1)
        );
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn contains_reports_stored_keys_without_reading_them() {
        let dir = temp_dir("contains");
        let cache = DiskCache::open(&dir).unwrap();
        let cfg = AcceleratorConfig::edge_baseline();
        let shape = LayerShape::conv(1, 8, 8, 7, 7, 3, 3, 1);
        let key = layer_key("fixed-os", &shape, &cfg).unwrap();
        let value = LayerOutcome {
            mapped: FixedMapper.optimize(&shape, &cfg),
            diagnostic: None,
        };
        assert!(!cache.contains(&key));
        cache.put_outcome(&key, &value);
        assert!(cache.contains(&key));
        assert!(!cache.contains(&layer_key("other", &shape, &cfg).unwrap()));
        // Neither check is lookup traffic.
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 0));
        let entry = LayerEntry {
            mapper: "fixed-os".into(),
            shape,
            cfg,
            outcome: value,
        };
        // A record's key and value decode back to the same entry.
        let (k, v) = entry.to_record().unwrap();
        assert_eq!(k, key);
        assert_eq!(
            LayerEntry::from_record(k.as_bytes(), v.as_bytes()),
            Ok(entry)
        );
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_reports_traffic_and_recovery() {
        use edse_telemetry::MemorySink;
        let dir = temp_dir("telemetry");
        let entries = sample_entries(2);
        {
            let cache = DiskCache::open(&dir).unwrap();
            for (key, value) in &entries {
                cache.put_outcome(key, value);
            }
            std::mem::forget(cache);
        }
        let sink = MemorySink::new();
        let collector = Collector::builder().sink(sink.clone()).build();
        let cache = DiskCache::open_with(&dir, collector.clone()).unwrap();
        // Reopening a healthy directory is no recovery: nothing is counted
        // and nothing is logged.
        assert!(sink.is_empty(), "{:?}", sink.events());
        let _ = cache.get_outcome(&entries[0].0);
        let _ = cache.get_outcome("no such key");
        cache.put_outcome(&entries[0].0, &entries[0].1); // dedup: no append
        assert_eq!(collector.counter_value("disk_cache/hit"), 1);
        assert_eq!(collector.counter_value("disk_cache/miss"), 1);
        assert_eq!(collector.counter_value("disk_cache/append"), 0);
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn layer_keys_are_canonical_and_distinct() {
        let cfg = AcceleratorConfig::edge_baseline();
        let a = LayerShape::conv(1, 8, 8, 7, 7, 3, 3, 1);
        let b = LayerShape::conv(1, 16, 8, 7, 7, 3, 3, 1);
        assert_eq!(
            layer_key("m", &a, &cfg).unwrap(),
            layer_key("m", &a, &cfg).unwrap()
        );
        assert_ne!(
            layer_key("m", &a, &cfg).unwrap(),
            layer_key("m", &b, &cfg).unwrap()
        );
        assert_ne!(
            layer_key("random-10-seed1", &a, &cfg).unwrap(),
            layer_key("random-10-seed2", &a, &cfg).unwrap()
        );
    }
}

//! Disk-backed, content-addressed `(layer, config) → mapping outcome`
//! store: the persistent tier below [`crate::CodesignEvaluator`]'s sharded
//! in-memory caches.
//!
//! # Layout
//!
//! A cache directory holds **record segments** (`seg-<id>.edc`) and
//! nothing else the cache reads: append-only files of length-prefixed
//! records behind a 16-byte header (magic + format version). Each record
//! stores the key bytes, their 64-bit FNV-1a hash, the encoded value, and
//! a checksum over the whole body. Appends never rewrite existing bytes;
//! every run that writes opens a fresh segment, so concurrent *readers* of
//! old segments are never invalidated. The segments are the only source
//! of truth: the hash → record location map lives in memory and is
//! rebuilt on every open. Other files in the directory are ignored.
//!
//! # Record format (version 2)
//!
//! Keys and values are fixed-layout little-endian bytes; every `u64` is 8
//! bytes and every `f64` is stored as its [`f64::to_bits`], so a value
//! reads back bit for bit.
//!
//! - **Key** ([`layer_key`]): the mapper fingerprint's length (`u64`) and
//!   UTF-8 bytes; the layer shape's seven extents `[N, M, C, OY, OX, FY,
//!   FX]`, its stride and one kind byte (`0` conv, `1` depthwise conv, `2`
//!   GEMM); then every [`AcceleratorConfig`] field in declaration order,
//!   the two link arrays as four `u64`s each.
//! - **Value**: one tag byte. `0` is a mapped layer: the tiling's 28
//!   factors (`[dim][level]`, dimensions outermost), the scratchpad and
//!   DRAM loop orders as one byte each (`0` input-, `1` weight-, `2`
//!   output-stationary), then its profile. `1` is an unmappable layer
//!   followed by its diagnostic profile; `2` an unmappable layer without
//!   one. A profile is its ten scalar fields in declaration order, then
//!   the four operands' ten fields each.
//!
//! Version 1 stored both as JSON text. A segment of any other version than
//! [`DISKCACHE_VERSION`] is skipped whole, so a directory written by an
//! older build reads cold once, never wrong.
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
//! the stored key bytes against the requested key (which makes hash
//! collisions harmless), before decoding. Decoding is validated: it
//! refuses a short value, trailing bytes, an unknown tag or order byte,
//! and a tiling whose factors do not multiply out to the requested
//! layer's extents. A record that fails any check is evicted and treated
//! as a miss: the evaluator recomputes and re-appends, so corruption can
//! cost time but never changes results.
//!
//! The encoders destructure every stored struct without `..` and the
//! decoders build every one as a full struct literal, so a field added to
//! [`AcceleratorConfig`], [`MappedLayer`], [`Mapping`],
//! [`ExecutionProfile`] or [`OperandStats`] fails to compile here until
//! the format (and [`DISKCACHE_VERSION`]) follows it.

use accel_model::{
    AcceleratorConfig, ExecutionProfile, Mapping, OperandStats, Stationarity, Tiling,
};
use edse_telemetry::{Collector, Level};
use mapper::MappedLayer;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use workloads::{LayerShape, OpKind};

/// Magic bytes opening every record segment.
const SEGMENT_MAGIC: &[u8; 8] = b"EDSECSEG";
/// On-disk format version; segments written by a different version are
/// skipped whole (never deleted, never appended to).
pub const DISKCACHE_VERSION: u32 = 2;
/// Segment header size: magic + version + reserved word.
const HEADER_LEN: u64 = 16;
/// Fixed per-record framing: body-length prefix + trailing checksum.
const FRAME_LEN: u64 = 8;
/// Minimum body: key hash (8) + key length (4).
const MIN_BODY: u32 = 12;

/// Key bytes besides the fingerprint's: its length, the seven extents and
/// the stride, the kind byte and the sixteen configuration words.
const KEY_FIXED_LEN: usize = 8 + 8 * 8 + 1 + 16 * 8;

/// Value tag of a mapped layer.
const TAG_MAPPED: u8 = 0;
/// Value tag of an unmappable layer with a diagnostic profile.
const TAG_DIAGNOSED: u8 = 1;
/// Value tag of an unmappable layer without one.
const TAG_UNDIAGNOSED: u8 = 2;

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
/// the evaluator's layer cache and of a disk record. The evaluator keeps
/// one `Arc<LayerOutcome>` per `(layer, config)` and every
/// [`crate::LayerEval`] that reads it shares that allocation.
/// `Unmappable(None)` records a pair that was searched and found
/// unmappable with no diagnostic available (just as expensive to
/// rediscover as a feasible mapping).
#[derive(Debug, Clone, Copy, PartialEq)]
// Every outcome is shared through one `Arc`; boxing the mapped variant
// would add a second allocation per outcome.
#[allow(clippy::large_enum_variant)]
pub enum LayerOutcome {
    /// The optimized mapping, when one was feasible.
    Mapped(MappedLayer),
    /// No feasible mapping; the diagnostic relaxed-NoC profile when one
    /// exists.
    Unmappable(Option<ExecutionProfile>),
}

impl LayerOutcome {
    /// The optimized mapping, when one was feasible.
    pub fn mapped(&self) -> Option<&MappedLayer> {
        match self {
            LayerOutcome::Mapped(m) => Some(m),
            LayerOutcome::Unmappable(_) => None,
        }
    }

    /// The mapped layer's profile, or the diagnostic profile of an
    /// unmappable one: what bottleneck analysis reads.
    pub fn profile(&self) -> Option<&ExecutionProfile> {
        match self {
            LayerOutcome::Mapped(m) => Some(&m.profile),
            LayerOutcome::Unmappable(diagnostic) => diagnostic.as_ref(),
        }
    }
}

/// Builds the content-address of one `(mapper, layer, config)` triple in
/// the layout the module docs give. The mapper component must be a
/// [`mapper::MappingOptimizer::fingerprint`] — an identity that captures
/// every result-changing knob (seeds included), so two runs that would
/// compute different outcomes never share a key.
pub fn layer_key(mapper_fingerprint: &str, shape: &LayerShape, cfg: &AcceleratorConfig) -> Vec<u8> {
    let AcceleratorConfig {
        pes,
        l1_bytes,
        l2_bytes,
        offchip_bw_mbps,
        noc_width_bits,
        noc_phys_links,
        noc_virt_links,
        freq_mhz,
        elem_bytes,
        dma_burst_overhead_cycles,
    } = *cfg;
    let mut key = Vec::with_capacity(KEY_FIXED_LEN + mapper_fingerprint.len());
    put_u64(&mut key, mapper_fingerprint.len() as u64);
    key.extend_from_slice(mapper_fingerprint.as_bytes());
    for extent in shape.dims() {
        put_u64(&mut key, extent);
    }
    put_u64(&mut key, shape.stride());
    key.push(match shape.kind() {
        OpKind::Conv => 0,
        OpKind::DepthwiseConv => 1,
        OpKind::Gemm => 2,
    });
    for field in [pes, l1_bytes, l2_bytes, offchip_bw_mbps, noc_width_bits] {
        put_u64(&mut key, field);
    }
    for link in noc_phys_links.into_iter().chain(noc_virt_links) {
        put_u64(&mut key, link);
    }
    for field in [freq_mhz, elem_bytes, dma_burst_overhead_cycles] {
        put_u64(&mut key, field);
    }
    key
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, value: f64) {
    put_u64(out, value.to_bits());
}

fn order_byte(order: Stationarity) -> u8 {
    match order {
        Stationarity::InputStationary => 0,
        Stationarity::WeightStationary => 1,
        Stationarity::OutputStationary => 2,
    }
}

/// Appends the value encoding of `outcome` (see the module docs).
fn encode_outcome(out: &mut Vec<u8>, outcome: &LayerOutcome) {
    match outcome {
        LayerOutcome::Mapped(MappedLayer {
            mapping:
                Mapping {
                    tiling,
                    spm_order,
                    dram_order,
                },
            profile,
        }) => {
            out.push(TAG_MAPPED);
            for &factor in tiling.factors().iter().flatten() {
                put_u64(out, factor);
            }
            out.push(order_byte(*spm_order));
            out.push(order_byte(*dram_order));
            encode_profile(out, profile);
        }
        LayerOutcome::Unmappable(Some(diagnostic)) => {
            out.push(TAG_DIAGNOSED);
            encode_profile(out, diagnostic);
        }
        LayerOutcome::Unmappable(None) => out.push(TAG_UNDIAGNOSED),
    }
}

fn encode_profile(out: &mut Vec<u8>, profile: &ExecutionProfile) {
    let ExecutionProfile {
        t_comp,
        t_dma,
        t_noc_max,
        latency_cycles,
        energy_pj,
        macs,
        pes_used,
        pe_utilization,
        rf_utilization,
        spm_utilization,
        operands,
    } = *profile;
    for field in [t_comp, t_dma, t_noc_max, latency_cycles, energy_pj, macs] {
        put_f64(out, field);
    }
    put_u64(out, pes_used);
    for field in [pe_utilization, rf_utilization, spm_utilization] {
        put_f64(out, field);
    }
    for operand in operands {
        let OperandStats {
            offchip_bytes,
            noc_bytes,
            noc_groups,
            bytes_per_group,
            noc_rounds,
            t_noc,
            rf_tile_bytes,
            spm_tile_bytes,
            reuse_remaining_rf,
            reuse_remaining_spm,
        } = operand;
        put_f64(out, offchip_bytes);
        put_f64(out, noc_bytes);
        put_u64(out, noc_groups);
        put_f64(out, bytes_per_group);
        put_u64(out, noc_rounds);
        for field in [
            t_noc,
            rf_tile_bytes,
            spm_tile_bytes,
            reuse_remaining_rf,
            reuse_remaining_spm,
        ] {
            put_f64(out, field);
        }
    }
}

/// A cursor over a record value; every read past its end is an error.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let (head, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or("record value ends early")?;
        self.0 = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take::<1>()?[0])
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn order(&mut self) -> Result<Stationarity, String> {
        match self.u8()? {
            0 => Ok(Stationarity::InputStationary),
            1 => Ok(Stationarity::WeightStationary),
            2 => Ok(Stationarity::OutputStationary),
            byte => Err(format!("unknown loop-order byte {byte}")),
        }
    }

    fn profile(&mut self) -> Result<ExecutionProfile, String> {
        Ok(ExecutionProfile {
            t_comp: self.f64()?,
            t_dma: self.f64()?,
            t_noc_max: self.f64()?,
            latency_cycles: self.f64()?,
            energy_pj: self.f64()?,
            macs: self.f64()?,
            pes_used: self.u64()?,
            pe_utilization: self.f64()?,
            rf_utilization: self.f64()?,
            spm_utilization: self.f64()?,
            operands: [
                self.operand()?,
                self.operand()?,
                self.operand()?,
                self.operand()?,
            ],
        })
    }

    fn operand(&mut self) -> Result<OperandStats, String> {
        Ok(OperandStats {
            offchip_bytes: self.f64()?,
            noc_bytes: self.f64()?,
            noc_groups: self.u64()?,
            bytes_per_group: self.f64()?,
            noc_rounds: self.u64()?,
            t_noc: self.f64()?,
            rf_tile_bytes: self.f64()?,
            spm_tile_bytes: self.f64()?,
            reuse_remaining_rf: self.f64()?,
            reuse_remaining_spm: self.f64()?,
        })
    }
}

/// Decodes a record value written by [`encode_outcome`] for a layer of
/// `shape`, refusing anything the encoder cannot have written for it.
fn decode_outcome(value: &[u8], shape: &LayerShape) -> Result<LayerOutcome, String> {
    let mut r = Reader(value);
    let outcome = match r.u8()? {
        TAG_MAPPED => {
            let mut factors = [[0u64; 4]; 7];
            for factor in factors.iter_mut().flatten() {
                *factor = r.u64()?;
            }
            // `Tiling::from_factors` multiplies each row in plain `u64`,
            // which its in-program callers cannot overflow; stored bytes
            // can, and such a row multiplies out to no extent.
            if factors.iter().any(|row| {
                row.iter()
                    .try_fold(1u64, |p, &f| p.checked_mul(f))
                    .is_none()
            }) {
                return Err("tiling factors overflow".into());
            }
            LayerOutcome::Mapped(MappedLayer {
                mapping: Mapping {
                    tiling: Tiling::from_factors(shape, factors)?,
                    spm_order: r.order()?,
                    dram_order: r.order()?,
                },
                profile: r.profile()?,
            })
        }
        TAG_DIAGNOSED => LayerOutcome::Unmappable(Some(r.profile()?)),
        TAG_UNDIAGNOSED => LayerOutcome::Unmappable(None),
        tag => return Err(format!("unknown outcome tag {tag}")),
    };
    if !r.0.is_empty() {
        return Err(format!("{} trailing bytes after the value", r.0.len()));
    }
    Ok(outcome)
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

    /// Looks up the stored outcome for a key built by [`layer_key`] for a
    /// layer of `shape`. The record is checked and its value decoded
    /// against `shape` (see the module docs), and its stored key bytes are
    /// compared against `key`, so hash collisions are harmless. Unreadable
    /// records are evicted and reported as misses.
    pub fn get_outcome(&self, key: &[u8], shape: &LayerShape) -> Option<LayerOutcome> {
        let hash = key_hash(key);
        let mut inner = self.inner.lock().expect("disk cache poisoned");
        let read = inner
            .index
            .get(&hash)
            .copied()
            .map(|loc| read_outcome(&mut inner, loc, key, shape));
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

    /// Appends one outcome under its key. A no-op when the key is already
    /// present (content-addressed: first write wins). Append failures
    /// degrade the cache to pass-through — counted and logged, never
    /// surfaced — because persistence must not be able to fail a run.
    pub fn put_outcome(&self, key: &[u8], value: &LayerOutcome) {
        let hash = key_hash(key);
        let record = encode_record(hash, key, |out| encode_outcome(out, value));
        self.append(hash, &record);
    }

    /// Appends one framed record under `hash`, unless that hash is
    /// already present.
    fn append(&self, hash: u64, record: &[u8]) {
        let mut inner = self.inner.lock().expect("disk cache poisoned");
        if inner.index.contains_key(&hash) {
            return;
        }
        match append_record(&mut inner, &self.dir, record) {
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

/// One framed record, `[len | body | checksum]`, whose body is
/// `[hash | key_len | key | value]` with the value written by
/// `write_value`.
fn encode_record(hash: u64, key: &[u8], write_value: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut record = Vec::with_capacity(1024);
    record.extend_from_slice(&[0; 4]); // body length, set below
    record.extend_from_slice(&hash.to_le_bytes());
    record.extend_from_slice(&(key.len() as u32).to_le_bytes());
    record.extend_from_slice(key);
    write_value(&mut record);
    let body_len = (record.len() - 4) as u32;
    record[..4].copy_from_slice(&body_len.to_le_bytes());
    let sum = checksum(&record[4..]);
    record.extend_from_slice(&sum.to_le_bytes());
    record
}

/// Splits a record body into `(hash, key, value)`.
fn split_body(body: &[u8]) -> Result<(u64, &[u8], &[u8]), String> {
    if body.len() < MIN_BODY as usize {
        return Err(format!("record body too short ({} bytes)", body.len()));
    }
    let hash = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    let key_len = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")) as usize;
    if key_len > body.len() - MIN_BODY as usize {
        return Err(format!("key length {key_len} exceeds record body"));
    }
    let (key, value) = body[MIN_BODY as usize..].split_at(key_len);
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
    let mut reader = BufReader::new(file);
    // One buffer for every record: the scan keeps only each body's hash.
    let mut body = Vec::new();
    while offset < file_len {
        if file_len - offset < FRAME_LEN {
            return (records, offset, true);
        }
        let mut len_buf = [0u8; 4];
        if reader.read_exact(&mut len_buf).is_err() {
            return (records, offset, true);
        }
        let body_len = u32::from_le_bytes(len_buf) as u64;
        if body_len < MIN_BODY as u64 || offset + FRAME_LEN + body_len > file_len {
            return (records, offset, true);
        }
        body.resize(body_len as usize + 4, 0);
        if reader.read_exact(&mut body).is_err() {
            return (records, offset, true);
        }
        let (body, sum) = body.split_at(body_len as usize);
        if checksum(body) != u32::from_le_bytes(sum.try_into().expect("4 bytes")) {
            return (records, offset, true);
        }
        match split_body(body) {
            Ok((hash, _, _)) => {
                records.push((hash, offset, (FRAME_LEN + body_len) as u32));
                offset += FRAME_LEN + body_len;
            }
            Err(_) => return (records, offset, true),
        }
    }
    (records, offset, false)
}

/// Reads the record at `loc` and decodes its value for a layer of
/// `shape`, once its framing, its checksum, its stored hash and its stored
/// key (against `key`) check out.
fn read_outcome(
    inner: &mut Inner,
    loc: Loc,
    key: &[u8],
    shape: &LayerShape,
) -> Result<LayerOutcome, String> {
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
    let (body, sum) = raw[4..].split_at(body_len);
    if checksum(body) != u32::from_le_bytes(sum.try_into().expect("4 bytes")) {
        return Err("checksum mismatch".into());
    }
    let (hash, stored_key, value) = split_body(body)?;
    if key_hash(stored_key) != hash {
        return Err("stored hash disagrees with stored key".into());
    }
    if stored_key != key {
        return Err("stored key does not match".into());
    }
    decode_outcome(value, shape)
}

/// Appends one framed record to the active segment, creating a fresh
/// segment on first write.
fn append_record(inner: &mut Inner, dir: &Path, record: &[u8]) -> Result<Loc, String> {
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
    let segment = &mut inner.segments[seg];
    let offset = segment.len;
    segment
        .file
        .write_all(record)
        .map_err(|e| format!("append {}: {e}", segment.path.display()))?;
    segment.len += record.len() as u64;
    Ok(Loc {
        seg,
        offset,
        len: record.len() as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapper::{FixedMapper, LinearMapper, MappingOptimizer, RandomMapper};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::AtomicU64 as SeqCounter;

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: SeqCounter = SeqCounter::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("edse-diskcache-{}-{tag}-{n}", std::process::id()))
    }

    /// One record's inputs: the layer, its key and the outcome stored.
    struct Entry {
        shape: LayerShape,
        key: Vec<u8>,
        outcome: LayerOutcome,
    }

    fn sample_entries(n: usize) -> Vec<Entry> {
        let cfg = AcceleratorConfig::edge_baseline();
        (0..n)
            .map(|i| {
                let shape = LayerShape::conv(1, 16 + i as u64, 16, 14, 14, 3, 3, 1);
                let mapped = FixedMapper.optimize(&shape, &cfg).expect("maps");
                Entry {
                    shape,
                    key: layer_key("fixed-os", &shape, &cfg),
                    outcome: LayerOutcome::Mapped(mapped),
                }
            })
            .collect()
    }

    fn put_all(cache: &DiskCache, entries: &[Entry]) {
        for e in entries {
            cache.put_outcome(&e.key, &e.outcome);
        }
    }

    fn get(cache: &DiskCache, e: &Entry) -> Option<LayerOutcome> {
        cache.get_outcome(&e.key, &e.shape)
    }

    /// Appends a record holding `value` as raw bytes under `key`.
    fn put_raw(cache: &DiskCache, key: &[u8], value: &[u8]) {
        let hash = key_hash(key);
        cache.append(
            hash,
            &encode_record(hash, key, |out| out.extend_from_slice(value)),
        );
    }

    fn encoded(outcome: &LayerOutcome) -> Vec<u8> {
        let mut out = Vec::new();
        encode_outcome(&mut out, outcome);
        out
    }

    /// The outcome the evaluator stores for `shape` on `cfg`.
    fn outcome_of(
        mapper: &dyn MappingOptimizer,
        shape: &LayerShape,
        cfg: &AcceleratorConfig,
    ) -> LayerOutcome {
        match mapper.optimize(shape, cfg) {
            Some(m) => LayerOutcome::Mapped(m),
            None => LayerOutcome::Unmappable(mapper.diagnose(shape, cfg)),
        }
    }

    /// One shape under the fixed mapper on three configurations, giving a
    /// mapped outcome, an unmappable one with a diagnostic and one
    /// without: `(config, outcome)` per case.
    fn pinned_cases() -> (LayerShape, [(AcceleratorConfig, LayerOutcome); 3]) {
        let shape = LayerShape::conv(1, 16, 16, 14, 14, 3, 3, 1);
        let base = AcceleratorConfig::edge_baseline();
        let starved = AcceleratorConfig {
            noc_phys_links: [1; 4],
            noc_virt_links: [1; 4],
            ..base
        };
        let cramped = AcceleratorConfig {
            l1_bytes: 2,
            l2_bytes: 64,
            ..base
        };
        let cases =
            [base, starved, cramped].map(|cfg| (cfg, outcome_of(&FixedMapper, &shape, &cfg)));
        assert!(cases[0].1.mapped().is_some());
        assert!(matches!(cases[1].1, LayerOutcome::Unmappable(Some(_))));
        assert_eq!(cases[2].1, LayerOutcome::Unmappable(None));
        (shape, cases)
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
        for e in &entries {
            assert_eq!(get(&cache, e), None);
            cache.put_outcome(&e.key, &e.outcome);
        }
        for e in &entries {
            assert_eq!(get(&cache, e), Some(e.outcome));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.appends, 3);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.torn_tails, 0);
        // Duplicate put is a no-op.
        cache.put_outcome(&entries[0].key, &entries[0].outcome);
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
            put_all(&cache, &entries);
            std::mem::forget(cache); // crash: nothing runs on the way out
        }
        let cache = DiskCache::open(&dir).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        for e in &entries {
            assert_eq!(get(&cache, e), Some(e.outcome));
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
            put_all(&cache, session);
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
        for e in &entries {
            // Every record reads back under its key, with the value written.
            assert_eq!(get(&cache, e), Some(e.outcome));
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
            put_all(&cache, &entries);
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
        assert_eq!(get(&cache, &entries[0]), Some(entries[0].outcome));
        assert_eq!(get(&cache, &entries[1]), Some(entries[1].outcome));
        assert_eq!(get(&cache, &entries[2]), None);
        // The lost pair can be re-appended (new segment, old one untouched).
        cache.put_outcome(&entries[2].key, &entries[2].outcome);
        assert_eq!(get(&cache, &entries[2]), Some(entries[2].outcome));
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_segment_version_is_skipped_not_fatal() {
        let dir = temp_dir("version");
        let entries = sample_entries(2);
        {
            let cache = DiskCache::open(&dir).unwrap();
            put_all(&cache, &entries);
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
        cache.put_outcome(&entries[0].key, &entries[0].outcome);
        assert_eq!(get(&cache, &entries[0]), Some(entries[0].outcome));
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every directory written before format version 2 holds version-1
    /// segments: JSON keys and values in the same record framing. Such a
    /// segment opens without an error, is skipped whole and counted, is
    /// never modified, and the cache's appends go to a fresh version-2
    /// segment beside it.
    #[test]
    fn a_version_1_segment_is_skipped_and_appends_start_a_v2_segment() {
        let dir = temp_dir("v1");
        std::fs::create_dir_all(&dir).unwrap();
        // The version-1 record of the pinned undiagnosed case, as that
        // codec wrote it.
        let v1_key = concat!(
            r#"{"mapper":"fixed-os","shape":{"n":1,"m":16,"c":16,"oy":14,"ox":14,"fy":3,"fx":3,"#,
            r#""stride":1,"kind":"Conv"},"cfg":{"pes":256,"l1_bytes":2,"l2_bytes":64,"#,
            r#""offchip_bw_mbps":8192,"noc_width_bits":64,"noc_phys_links":[16,16,16,16],"#,
            r#""noc_virt_links":[64,64,64,64],"freq_mhz":500,"elem_bytes":2,"#,
            r#""dma_burst_overhead_cycles":8}}"#
        );
        let v1_value = r#"{"mapped":null,"diagnostic":null}"#;
        let mut v1_segment = SEGMENT_MAGIC.to_vec();
        v1_segment.extend_from_slice(&1u32.to_le_bytes());
        v1_segment.extend_from_slice(&0u32.to_le_bytes());
        v1_segment.extend(encode_record(
            key_hash(v1_key.as_bytes()),
            v1_key.as_bytes(),
            |out| out.extend_from_slice(v1_value.as_bytes()),
        ));
        let v1_path = dir.join(segment_name(0));
        std::fs::write(&v1_path, &v1_segment).unwrap();

        let (shape, [.., (cramped, outcome)]) = pinned_cases();
        let entry = Entry {
            shape,
            key: layer_key(&FixedMapper.fingerprint(), &shape, &cramped),
            outcome,
        };
        let cache = DiskCache::open(&dir).expect("a version-1 directory opens");
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.skipped_segments), (0, 1));
        assert_eq!(get(&cache, &entry), None, "version-1 records read cold");
        cache.put_outcome(&entry.key, &entry.outcome);
        drop(cache);

        assert_eq!(
            std::fs::read(&v1_path).unwrap(),
            v1_segment,
            "never modified"
        );
        let v2_segment = std::fs::read(dir.join(segment_name(1))).expect("a fresh segment");
        assert_eq!(&v2_segment[..8], SEGMENT_MAGIC);
        assert_eq!(v2_segment[8..12], DISKCACHE_VERSION.to_le_bytes());
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(get(&cache, &entry), Some(entry.outcome));
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.skipped_segments, stats.read_errors),
            (1, 1, 0)
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
            put_all(&cache, &entries);
            std::mem::forget(cache);
        }
        let sink = MemorySink::new();
        let collector = Collector::builder().sink(sink.clone()).build();
        let cache = DiskCache::open_with(&dir, collector.clone()).unwrap();
        // Reopening a healthy directory is no recovery: nothing is counted
        // and nothing is logged.
        assert!(sink.is_empty(), "{:?}", sink.events());
        let _ = get(&cache, &entries[0]);
        let _ = cache.get_outcome(b"no such key", &entries[0].shape);
        cache.put_outcome(&entries[0].key, &entries[0].outcome); // dedup: no append
        assert_eq!(collector.counter_value("disk_cache/hit"), 1);
        assert_eq!(collector.counter_value("disk_cache/miss"), 1);
        assert_eq!(collector.counter_value("disk_cache/append"), 0);
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The format-version-2 bytes of the three pinned outcomes. The key
    /// hashes and the value bytes in the fixture file (`<key hash> <value
    /// hex>` per case) were written by this codec; a change to either
    /// layout must bump [`DISKCACHE_VERSION`] and re-record them, so a
    /// directory written by this version never reads wrong.
    #[test]
    fn records_stay_byte_identical_to_the_v2_encoding() {
        let recorded: Vec<(u64, Vec<u8>)> = include_str!("../testdata/layer_records_v2.txt")
            .lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| {
                let (hash, value) = line.split_once(' ').expect("<key hash> <value hex>");
                let value = (0..value.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&value[i..i + 2], 16).expect("hex"))
                    .collect();
                (u64::from_str_radix(hash, 16).expect("hex key hash"), value)
            })
            .collect();
        assert_eq!(DISKCACHE_VERSION, 2);
        let (shape, cases) = pinned_cases();
        assert_eq!(recorded.len(), cases.len());
        for ((cfg, outcome), (hash, value)) in cases.iter().zip(&recorded) {
            let key = layer_key(&FixedMapper.fingerprint(), &shape, cfg);
            assert_eq!(key_hash(&key), *hash);
            assert_eq!(&encoded(outcome), value);
            assert_eq!(decode_outcome(value, &shape), Ok(*outcome));
        }
    }

    /// Fixed, linear (top-8) and random mapper outcomes on random shapes
    /// and configurations read back bit for bit: the re-encoded value
    /// equals the stored bytes, so every `f64` kept its exact bits.
    #[test]
    fn values_round_trip_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(26);
        let mappers: [Box<dyn MappingOptimizer>; 3] = [
            Box::new(FixedMapper),
            Box::new(LinearMapper::new(8)),
            Box::new(RandomMapper::new(16, 3)),
        ];
        let mut tags = [0usize; 3];
        for _ in 0..40 {
            let (n, m, oy, ox) = (
                rng.gen_range(1..=2u64),
                rng.gen_range(1..=48u64),
                rng.gen_range(1..=16u64),
                rng.gen_range(1..=16u64),
            );
            let (f, stride) = (rng.gen_range(1..=3u64), rng.gen_range(1..=2u64));
            let shape = match rng.gen_range(0..3u32) {
                0 => LayerShape::conv(n, m, rng.gen_range(1..=48u64), oy, ox, f, f, stride),
                1 => LayerShape::dwconv(n, m, oy, ox, f, f, stride),
                _ => LayerShape::gemm(m, ox, rng.gen_range(1..=64u64)),
            };
            let cfg = AcceleratorConfig {
                pes: 1 << rng.gen_range(2..=8u32),
                l1_bytes: 1 << rng.gen_range(1..=9u32),
                l2_bytes: 1 << rng.gen_range(6..=18u32),
                noc_phys_links: [(); 4].map(|_| rng.gen_range(1..=16u64)),
                noc_virt_links: [(); 4].map(|_| rng.gen_range(1..=64u64)),
                ..AcceleratorConfig::edge_baseline()
            };
            for mapper in &mappers {
                let outcome = outcome_of(mapper.as_ref(), &shape, &cfg);
                let bytes = encoded(&outcome);
                tags[bytes[0] as usize] += 1;
                let back = decode_outcome(&bytes, &shape).expect("decodes");
                assert_eq!(encoded(&back), bytes, "{shape:?} on {cfg:?}");
                assert_eq!(back, outcome);
            }
        }
        assert!(
            tags.iter().all(|&n| n > 0),
            "every value tag covered: {tags:?}"
        );
    }

    /// Every value the encoder cannot have written for the requested
    /// shape is an error, and through [`DiskCache::get_outcome`] a miss
    /// counted in `read_errors`: each strict prefix, one trailing byte, an
    /// unknown tag or loop-order byte, and factors that do not multiply
    /// out to the shape (a wrong product, a zero, an overflowing one).
    #[test]
    fn malformed_values_are_refused_and_read_as_misses() {
        let (shape, cases) = pinned_cases();
        let mut bad: Vec<Vec<u8>> = Vec::new();
        for (_, outcome) in &cases {
            let value = encoded(outcome);
            bad.extend((0..value.len()).map(|len| value[..len].to_vec()));
            bad.push([value.as_slice(), &[0]].concat());
            for tag in [3, 255] {
                let mut v = value.clone();
                v[0] = tag;
                bad.push(v);
            }
        }
        let mapped = encoded(&cases[0].1);
        let factor = |i: usize| 1 + 8 * i;
        for order_at in [factor(28), factor(28) + 1] {
            let mut v = mapped.clone();
            v[order_at] = 3;
            bad.push(v);
        }
        for first in [2u64, 0, 1 << 63] {
            let mut v = mapped.clone();
            v[factor(0)..factor(1)].copy_from_slice(&first.to_le_bytes());
            if first == 1 << 63 {
                // [2^63, 2, 1, 1] wraps to 0 in u64: no panic, an error.
                v[factor(1)..factor(2)].copy_from_slice(&2u64.to_le_bytes());
            }
            bad.push(v);
        }

        let dir = temp_dir("refusals");
        let cache = DiskCache::open(&dir).unwrap();
        let key = layer_key(&FixedMapper.fingerprint(), &shape, &cases[0].0);
        for (i, value) in bad.iter().enumerate() {
            assert!(decode_outcome(value, &shape).is_err(), "accepted {value:?}");
            // A refused read evicts the record, so the next one appends
            // under the same key.
            put_raw(&cache, &key, value);
            assert_eq!(cache.get_outcome(&key, &shape), None);
            let stats = cache.stats();
            assert_eq!(
                (stats.read_errors, stats.misses),
                (i as u64 + 1, i as u64 + 1)
            );
        }
        // The intact value still reads.
        put_raw(&cache, &key, &mapped);
        assert_eq!(cache.get_outcome(&key, &shape), Some(cases[0].1));
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn layer_keys_are_canonical_and_distinct() {
        let cfg = AcceleratorConfig::edge_baseline();
        let a = LayerShape::conv(1, 8, 8, 7, 7, 3, 3, 1);
        let b = LayerShape::conv(1, 16, 8, 7, 7, 3, 3, 1);
        assert_eq!(layer_key("m", &a, &cfg).len(), KEY_FIXED_LEN + 1);
        assert_eq!(layer_key("m", &a, &cfg), layer_key("m", &a, &cfg));
        assert_ne!(layer_key("m", &a, &cfg), layer_key("m", &b, &cfg));
        assert_ne!(
            layer_key("random-10-seed1", &a, &cfg),
            layer_key("random-10-seed2", &a, &cfg)
        );
    }

    /// Changing any one field of the shape or the configuration changes
    /// the key: no two layers or configurations share a record.
    #[test]
    fn every_shape_and_config_field_changes_the_key() {
        let (n, m, c, oy, ox, fy, fx, s) = (2, 16, 8, 14, 12, 3, 5, 1);
        let shapes = [
            LayerShape::conv(n, m, c, oy, ox, fy, fx, s),
            LayerShape::conv(n + 1, m, c, oy, ox, fy, fx, s),
            LayerShape::conv(n, m + 1, c, oy, ox, fy, fx, s),
            LayerShape::conv(n, m, c + 1, oy, ox, fy, fx, s),
            LayerShape::conv(n, m, c, oy + 1, ox, fy, fx, s),
            LayerShape::conv(n, m, c, oy, ox + 1, fy, fx, s),
            LayerShape::conv(n, m, c, oy, ox, fy + 1, fx, s),
            LayerShape::conv(n, m, c, oy, ox, fy, fx + 1, s),
            LayerShape::conv(n, m, c, oy, ox, fy, fx, s + 1),
            // The kind alone: equal extents and stride.
            LayerShape::conv(n, m, 1, oy, ox, fy, fx, s),
            LayerShape::dwconv(n, m, oy, ox, fy, fx, s),
            LayerShape::conv(1, m, c, 1, ox, 1, 1, 1),
            LayerShape::gemm(m, ox, c),
        ];
        let base = AcceleratorConfig::edge_baseline();
        let edits: [fn(&mut AcceleratorConfig); 17] = [
            |cfg| cfg.pes += 1,
            |cfg| cfg.l1_bytes += 1,
            |cfg| cfg.l2_bytes += 1,
            |cfg| cfg.offchip_bw_mbps += 1,
            |cfg| cfg.noc_width_bits += 1,
            |cfg| cfg.noc_phys_links[0] += 1,
            |cfg| cfg.noc_phys_links[1] += 1,
            |cfg| cfg.noc_phys_links[2] += 1,
            |cfg| cfg.noc_phys_links[3] += 1,
            |cfg| cfg.noc_virt_links[0] += 1,
            |cfg| cfg.noc_virt_links[1] += 1,
            |cfg| cfg.noc_virt_links[2] += 1,
            |cfg| cfg.noc_virt_links[3] += 1,
            |cfg| cfg.freq_mhz += 1,
            |cfg| cfg.elem_bytes += 1,
            |cfg| cfg.dma_burst_overhead_cycles += 1,
            // The two link arrays trade places.
            |cfg| std::mem::swap(&mut cfg.noc_phys_links, &mut cfg.noc_virt_links),
        ];
        let mut keys: Vec<Vec<u8>> = shapes
            .iter()
            .map(|shape| layer_key("fixed-os", shape, &base))
            .collect();
        for edit in edits {
            let mut cfg = base;
            edit(&mut cfg);
            keys.push(layer_key("fixed-os", &shapes[0], &cfg));
        }
        let distinct: std::collections::HashSet<&Vec<u8>> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len());
    }
}

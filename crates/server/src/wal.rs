//! Durability for the live world: a write-ahead log of admitted
//! `PoiOp` batches plus periodic checkpoints, and the recovery path
//! that replays them after a crash.
//!
//! ## Contract
//!
//! The dynamic index is in-memory; this module makes it *restart
//! transparent*. Every admitted `PoiUpdate` batch is appended here
//! **before** it is applied (log-before-apply), tagged with the exact
//! [`DynamicLsp`](ppgnn_core::DynamicLsp) version the apply will
//! publish. A recovered server loads the newest valid checkpoint,
//! replays the WAL tail in version order, and resumes at the exact
//! pre-crash version — so it answers byte-identically to a server that
//! never died, and a re-sent batch the crash swallowed the ack for is
//! recognized by its batch id and acknowledged idempotently at its
//! original version.
//!
//! ## On-disk layout (all integers big-endian)
//!
//! `<data-dir>/checkpoint-<V:016x>.ppck` — the full POI set at
//! version `V`, written atomically (temp file + fsync + rename):
//!
//! ```text
//! "PPCK" | format u8 | version u64 | n u32 | n x (id u32, x f64-bits, y f64-bits) | crc32
//! ```
//!
//! `<data-dir>/wal-<V:016x>.ppwal` — batches admitted after the
//! checkpoint at `V`. A file header, then framed records:
//!
//! ```text
//! header: "PWAL" | format u8 | base-version u64
//! record: len u32 | crc32(body) | body
//! body:   version u64 | batch-id u64 | request-id u32 | n-ops u16 | ops
//! op:     0x01 id u32 x-bits u64 y-bits u64   (insert)
//!         0x02 id u32                          (remove)
//! ```
//!
//! ## Torn-tail policy
//!
//! Appends are not atomic, so a crash can leave a half-written final
//! record. Recovery reads records until the first short read, bad CRC,
//! bad body, or version discontinuity, **truncates the file there**,
//! and reports how many bytes were dropped — the batch was never
//! acknowledged (fsync-before-ack under `FsyncPolicy::Always`; a
//! bounded ack-loss window otherwise), so dropping it is correct and
//! the admin's retry re-admits it. Recovery never panics on a torn or
//! corrupt tail and never serves stale state silently: a checkpoint
//! that fails its CRC is skipped for the next older one (replay then
//! *chains* across the rotated WAL files back up to the present — a
//! rotation's base version is the last version of the file it
//! supersedes, so the files are contiguous by construction), and a
//! data dir with no valid checkpoint at all is a typed startup error.
//! A newer WAL file the chain cannot reach (its base past the last
//! contiguously replayed version) is renamed aside with an
//! `.orphaned` suffix and counted in [`Recovered::orphaned_wal_files`]
//! — lost acked batches are reported, never silently dropped, and the
//! stale file can never collide with a later rotation.
//!
//! ## Panic policy
//!
//! No production path in this module panics. Every `unwrap_or*` is a
//! total fallback, not a disguised assertion: "newest batch version"
//! falls back to the checkpoint version when the tail is empty
//! ([`Recovered::recovered_version`], rotation orphan scan), the
//! stale-state probe treats an unreadable dir as "no state"
//! ([`holds_state`]), append targets the base version itself when
//! no rotated file precedes it, and checkpoint retention keeps
//! everything when fewer than the keep-count exist. Bare
//! `unwrap`/`expect` appears only under `#[cfg(test)]`.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ppgnn_geo::{Poi, PoiOp, Point};
use ppgnn_telemetry::trace::{self, AttrKey, SpanName};
use ppgnn_telemetry::{self as telemetry, Stage};

use crate::frame::{crc32, MAX_POI_OPS};

/// On-disk format revision for both file kinds.
const FORMAT: u8 = 1;
/// Checkpoint file magic.
const CK_MAGIC: &[u8; 4] = b"PPCK";
/// WAL file magic.
const WAL_MAGIC: &[u8; 4] = b"PWAL";
/// WAL header bytes: magic + format + base version.
const WAL_HEADER_BYTES: u64 = 4 + 1 + 8;
/// Largest well-formed record body: version + batch id + request id +
/// count + ops.
const MAX_RECORD_BYTES: usize = 8 + 8 + 4 + 2 + MAX_POI_OPS * 21;
/// How often `FsyncPolicy::Interval` forces data to the platter.
const FSYNC_INTERVAL: Duration = Duration::from_millis(25);
/// Checkpoints retained after a rotation (newest first). Older ones
/// only exist to survive disk corruption of the newest; their WAL
/// files are retained with them, so a fall-back replays the full
/// chain of rotated files back up to the present.
const KEEP_CHECKPOINTS: usize = 2;

/// When appended records are forced to the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync before every ack: zero acked-batch loss, slowest.
    Always,
    /// fsync at most every [`FSYNC_INTERVAL`]: bounded ack-loss window
    /// (a crash may drop the last ~25 ms of *acked* batches — the
    /// admin's idempotent retry re-admits them), near-`Never` speed.
    Interval,
    /// Never fsync explicitly; the OS decides. Fastest, test-only.
    Never,
}

impl FsyncPolicy {
    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Interval => "interval",
            FsyncPolicy::Never => "never",
        }
    }

    /// Inverse of [`FsyncPolicy::name`].
    pub fn from_name(name: &str) -> Option<FsyncPolicy> {
        match name {
            "always" => Some(FsyncPolicy::Always),
            "interval" => Some(FsyncPolicy::Interval),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

/// Everything the durability subsystem needs to know at boot.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding checkpoints and the WAL. Created if missing.
    pub data_dir: PathBuf,
    /// When appends reach the platter.
    pub fsync: FsyncPolicy,
    /// Checkpoint (and rotate the WAL) after this many applied ops.
    pub checkpoint_every_ops: u64,
}

impl DurabilityConfig {
    /// A config with the given data dir and tuned defaults: interval
    /// fsync, checkpoint every 4096 ops.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::Interval,
            checkpoint_every_ops: 4096,
        }
    }
}

/// Typed WAL/recovery failure.
#[derive(Debug)]
pub enum WalError {
    /// The underlying filesystem failed.
    Io(io::Error),
    /// Every checkpoint in the data dir failed validation — recovery
    /// refuses to guess at a world rather than serve stale state.
    NoValidCheckpoint,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::NoValidCheckpoint => {
                write!(f, "data dir has checkpoints but none passed validation")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<WalError> for crate::error::ServerError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Io(io) => crate::error::ServerError::Io(io),
            WalError::NoValidCheckpoint => {
                crate::error::ServerError::Recovery(WalError::NoValidCheckpoint.to_string())
            }
        }
    }
}

/// One batch replayed from the WAL tail, in version order.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayBatch {
    /// Content identity of the batch (see [`batch_id`]).
    pub batch_id: u64,
    /// The admin request id the batch arrived under; together with
    /// [`ReplayBatch::batch_id`] it keys the idempotent re-ack window.
    pub request_id: u32,
    /// The version the original apply published.
    pub version: u64,
    /// The ops, exactly as admitted.
    pub ops: Vec<PoiOp>,
}

/// What recovery found in a data dir.
#[derive(Debug)]
pub struct Recovered {
    /// The checkpointed POI set (unordered).
    pub pois: Vec<Poi>,
    /// The checkpoint's version.
    pub checkpoint_version: u64,
    /// WAL-tail batches to replay on top, version-ordered and
    /// contiguous from `checkpoint_version + 1`.
    pub batches: Vec<ReplayBatch>,
    /// Bytes cut off the WAL tail (torn/corrupt final records).
    pub torn_bytes: u64,
    /// Records lost to the cut (usually 0 or 1).
    pub torn_records: u64,
    /// Checkpoints that failed validation and were skipped.
    pub corrupt_checkpoints: u64,
    /// WAL files replay could not chain into (base past the last
    /// contiguous version) — acked batches lost to a checkpoint
    /// fall-back. The files were renamed aside with an `.orphaned`
    /// suffix; anything non-zero deserves an operator's eyes.
    pub orphaned_wal_files: u64,
}

impl Recovered {
    /// The version the world must republish at after replay.
    pub fn recovered_version(&self) -> u64 {
        self.batches
            .last()
            .map(|b| b.version)
            .unwrap_or(self.checkpoint_version)
    }

    /// One-line recovery summary for the server log.
    pub fn summary(&self) -> String {
        format!(
            "recovered checkpoint v{} + {} wal batches -> v{} \
             (torn tail: {} records / {} bytes dropped, {} corrupt checkpoints skipped, \
             {} unreachable wal files orphaned)",
            self.checkpoint_version,
            self.batches.len(),
            self.recovered_version(),
            self.torn_records,
            self.torn_bytes,
            self.corrupt_checkpoints,
            self.orphaned_wal_files,
        )
    }
}

/// Content identity of an admitted batch: FNV-1a over the request id
/// and the ops in wire order. Two sends of the same `(request_id,
/// ops)` — the admin retrying an unacked batch across a restart —
/// collide here by design, which is what makes the retry idempotent.
///
/// The dedup window keys on `(request_id, batch_id)`, so an
/// accidental hash collision between unrelated request ids can never
/// alias two batches. FNV-1a is *not* collision-resistant against a
/// deliberately crafted second batch under the same request id, but
/// crafting one requires the admin token, and a token holder can
/// already mutate the world at will — dedup correctness assumes a
/// non-adversarial admin.
pub fn batch_id(request_id: u32, ops: &[PoiOp]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&request_id.to_be_bytes());
    for op in ops {
        match op {
            PoiOp::Insert(poi) => {
                eat(&[1]);
                eat(&poi.id.to_be_bytes());
                eat(&poi.location.x.to_bits().to_be_bytes());
                eat(&poi.location.y.to_bits().to_be_bytes());
            }
            PoiOp::Remove(id) => {
                eat(&[2]);
                eat(&id.to_be_bytes());
            }
        }
    }
    h
}

fn encode_ops(out: &mut Vec<u8>, ops: &[PoiOp]) {
    out.extend_from_slice(&(ops.len() as u16).to_be_bytes());
    for op in ops {
        match op {
            PoiOp::Insert(poi) => {
                out.push(1);
                out.extend_from_slice(&poi.id.to_be_bytes());
                out.extend_from_slice(&poi.location.x.to_bits().to_be_bytes());
                out.extend_from_slice(&poi.location.y.to_bits().to_be_bytes());
            }
            PoiOp::Remove(id) => {
                out.push(2);
                out.extend_from_slice(&id.to_be_bytes());
            }
        }
    }
}

/// Byte-slice cursor with bounds-checked reads; `None` = corrupt.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|b| u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn decode_ops(r: &mut Reader<'_>) -> Option<Vec<PoiOp>> {
    let n = r.u16()? as usize;
    if n > MAX_POI_OPS {
        return None;
    }
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        match r.u8()? {
            1 => {
                let id = r.u32()?;
                let x = f64::from_bits(r.u64()?);
                let y = f64::from_bits(r.u64()?);
                if !x.is_finite() || !y.is_finite() {
                    return None;
                }
                ops.push(PoiOp::Insert(Poi::new(id, Point::new(x, y))));
            }
            2 => ops.push(PoiOp::Remove(r.u32()?)),
            _ => return None,
        }
    }
    Some(ops)
}

fn checkpoint_path(dir: &Path, version: u64) -> PathBuf {
    dir.join(format!("checkpoint-{version:016x}.ppck"))
}

fn wal_path(dir: &Path, base_version: u64) -> PathBuf {
    dir.join(format!("wal-{base_version:016x}.ppwal"))
}

/// Parses `<stem>-<hex16>.<ext>` names back to their version.
fn parse_versioned(name: &str, stem: &str, ext: &str) -> Option<u64> {
    let rest = name.strip_prefix(stem)?.strip_prefix('-')?;
    let hex = rest.strip_suffix(ext)?.strip_suffix('.')?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn list_versions(dir: &Path, stem: &str, ext: &str) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(v) = parse_versioned(name, stem, ext) {
                out.push(v);
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Best-effort directory fsync so renames/creates survive power loss.
fn sync_dir(dir: &Path) {
    #[cfg(unix)]
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    #[cfg(not(unix))]
    let _ = dir;
}

/// Writes the full POI set at `version` atomically: temp file, fsync,
/// rename, directory fsync. A reader can never observe a torn
/// checkpoint — it either has the old name list or the new one.
pub fn write_checkpoint(dir: &Path, pois: &[Poi], version: u64) -> io::Result<PathBuf> {
    let span = trace::span(SpanName::Checkpoint);
    let _timer = telemetry::global().time(Stage::Checkpoint);
    let mut body = Vec::with_capacity(4 + 1 + 8 + 4 + pois.len() * 20 + 4);
    body.extend_from_slice(CK_MAGIC);
    body.push(FORMAT);
    body.extend_from_slice(&version.to_be_bytes());
    body.extend_from_slice(&(pois.len() as u32).to_be_bytes());
    for poi in pois {
        body.extend_from_slice(&poi.id.to_be_bytes());
        body.extend_from_slice(&poi.location.x.to_bits().to_be_bytes());
        body.extend_from_slice(&poi.location.y.to_bits().to_be_bytes());
    }
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_be_bytes());
    span.attr(AttrKey::Bytes, body.len() as u64);
    span.attr(AttrKey::Records, pois.len() as u64);

    let path = checkpoint_path(dir, version);
    let tmp = path.with_extension("ppck.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&body)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    sync_dir(dir);
    Ok(path)
}

fn read_checkpoint(path: &Path) -> Option<(Vec<Poi>, u64)> {
    let buf = fs::read(path).ok()?;
    if buf.len() < 4 + 1 + 8 + 4 + 4 {
        return None;
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    let stored = u32::from_be_bytes(crc_bytes.try_into().ok()?);
    if crc32(body) != stored {
        return None;
    }
    let mut r = Reader { buf: body, pos: 0 };
    if r.take(4)? != CK_MAGIC || r.u8()? != FORMAT {
        return None;
    }
    let version = r.u64()?;
    let n = r.u32()? as usize;
    let mut pois = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let id = r.u32()?;
        let x = f64::from_bits(r.u64()?);
        let y = f64::from_bits(r.u64()?);
        if !x.is_finite() || !y.is_finite() {
            return None;
        }
        pois.push(Poi::new(id, Point::new(x, y)));
    }
    if !r.done() {
        return None;
    }
    Some((pois, version))
}

/// Seeds a fresh data dir: checkpoint of `pois` at version 1, empty
/// WAL. Idempotent bootstrap for first boot and for harnesses that
/// pre-seed a world before starting a server against the dir.
pub fn bootstrap(dir: &Path, pois: &[Poi]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    write_checkpoint(dir, pois, 1)?;
    Ok(())
}

/// Whether `dir` holds any checkpoint or WAL file: durable state a
/// server booting on `dir` would recover instead of a fresh world.
pub fn holds_state(dir: &Path) -> bool {
    [("checkpoint", "ppck"), ("wal", "ppwal")]
        .iter()
        .any(|(stem, ext)| list_versions(dir, stem, ext).is_ok_and(|v| !v.is_empty()))
}

/// Recovers the world from `dir`: newest valid checkpoint plus the
/// contiguous WAL tail on top, with the torn tail truncated in place.
///
/// Returns `Ok(None)` for a dir with no checkpoints (fresh boot —
/// call [`bootstrap`] first), [`WalError::NoValidCheckpoint`] when
/// checkpoints exist but all fail validation.
pub fn recover(dir: &Path) -> Result<Option<Recovered>, WalError> {
    let span = trace::span(SpanName::RecoverReplay);
    let _timer = telemetry::global().time(Stage::RecoverReplay);
    // A data dir that does not exist yet is a fresh boot, same as an
    // empty one — `bootstrap` will create it.
    if !dir.exists() {
        return Ok(None);
    }
    let mut versions = list_versions(dir, "checkpoint", "ppck")?;
    if versions.is_empty() {
        return Ok(None);
    }
    versions.reverse();
    let mut corrupt_checkpoints = 0u64;
    let mut loaded = None;
    for v in &versions {
        match read_checkpoint(&checkpoint_path(dir, *v)) {
            Some((pois, version)) if version == *v => {
                loaded = Some((pois, version));
                break;
            }
            _ => corrupt_checkpoints += 1,
        }
    }
    let Some((pois, checkpoint_version)) = loaded else {
        return Err(WalError::NoValidCheckpoint);
    };

    // The WAL whose records follow this checkpoint: the one with the
    // largest base version not past it (a crash between checkpoint
    // write and WAL rotation leaves the previous WAL carrying the
    // records; versions <= the checkpoint are simply skipped). When a
    // corrupt newest checkpoint forced a fall-back, the tail spans
    // several rotated files; a rotation's base is the last version of
    // the file it supersedes, so the files are contiguous by
    // construction and replay chains file to file as long as each
    // next base equals the last replayed version.
    let wal_bases = list_versions(dir, "wal", "ppwal")?;
    let mut batches = Vec::new();
    let mut torn_bytes = 0u64;
    let mut torn_records = 0u64;
    let mut next_version = checkpoint_version + 1;
    let mut base = wal_bases
        .iter()
        .copied()
        .filter(|&b| b <= checkpoint_version)
        .max();
    while let Some(b) = base {
        let clean = replay_wal_file(
            &wal_path(dir, b),
            checkpoint_version,
            &mut next_version,
            &mut batches,
            &mut torn_bytes,
            &mut torn_records,
        )?;
        if !clean {
            // A cut tail ends the chain: anything in a newer file is
            // no longer a contiguous continuation.
            break;
        }
        let last = next_version - 1;
        base = wal_bases.iter().copied().find(|&nb| nb > b && nb == last);
    }
    // Newer WAL files the chain cannot reach hold acked batches this
    // recovery loses (only possible after a checkpoint fall-back with
    // a broken chain). Never silent, and never load-bearing for a
    // later rotation: rename them aside and count them.
    let last_version = batches
        .last()
        .map(|b| b.version)
        .unwrap_or(checkpoint_version);
    let mut orphaned_wal_files = 0u64;
    for &nb in wal_bases.iter().filter(|&&nb| nb > last_version) {
        let from = wal_path(dir, nb);
        let to = from.with_extension("ppwal.orphaned");
        if fs::rename(&from, &to).is_ok() {
            orphaned_wal_files += 1;
        }
    }
    if orphaned_wal_files > 0 {
        sync_dir(dir);
    }
    span.attr(AttrKey::Records, batches.len() as u64);
    span.attr(
        AttrKey::PoiOps,
        batches.iter().map(|b| b.ops.len() as u64).sum(),
    );
    Ok(Some(Recovered {
        pois,
        checkpoint_version,
        batches,
        torn_bytes,
        torn_records,
        corrupt_checkpoints,
        orphaned_wal_files,
    }))
}

/// Replays one WAL file of the recovery chain: skips records at or
/// before `checkpoint_version`, pushes contiguous records (expected to
/// start at `*next_version`) onto `batches`, truncates a torn,
/// corrupt, or discontinuous tail in place, and returns whether the
/// file ended cleanly (no bytes cut) — the precondition for chaining
/// into a successor file.
fn replay_wal_file(
    path: &Path,
    checkpoint_version: u64,
    next_version: &mut u64,
    batches: &mut Vec<ReplayBatch>,
    torn_bytes: &mut u64,
    torn_records: &mut u64,
) -> io::Result<bool> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    let mut good_end = buf.len().min(WAL_HEADER_BYTES as usize);
    let header_ok =
        buf.len() >= WAL_HEADER_BYTES as usize && &buf[..4] == WAL_MAGIC && buf[4] == FORMAT;
    if header_ok {
        let mut pos = WAL_HEADER_BYTES as usize;
        while let Some((record, end)) = read_record(&buf, pos) {
            if record.version > checkpoint_version {
                // Contiguity: a gap means the tail is not a valid
                // continuation of this checkpoint — cut it.
                if record.version != *next_version {
                    break;
                }
                *next_version += 1;
                batches.push(record);
            }
            pos = end;
            good_end = end;
        }
        if good_end < buf.len() {
            *torn_bytes += (buf.len() - good_end) as u64;
            *torn_records += 1;
            file.set_len(good_end as u64)?;
            file.sync_all()?;
            return Ok(false);
        }
    } else if !buf.is_empty() {
        // Header itself is torn or garbage: treat the whole file
        // as tail, so the next open lays down a clean header.
        *torn_bytes += buf.len() as u64;
        *torn_records += 1;
        file.set_len(0)?;
        file.sync_all()?;
        return Ok(false);
    }
    Ok(true)
}

/// Reads one framed record at `pos`; `None` on a short, oversized, or
/// corrupt record (the torn-tail cut point).
fn read_record(buf: &[u8], pos: usize) -> Option<(ReplayBatch, usize)> {
    if pos == buf.len() {
        return None; // clean EOF
    }
    let head = buf.get(pos..pos + 8)?;
    let len = u32::from_be_bytes(head[..4].try_into().ok()?) as usize;
    if len > MAX_RECORD_BYTES {
        return None;
    }
    let stored_crc = u32::from_be_bytes(head[4..8].try_into().ok()?);
    let body = buf.get(pos + 8..pos + 8 + len)?;
    if crc32(body) != stored_crc {
        return None;
    }
    let mut r = Reader { buf: body, pos: 0 };
    let version = r.u64()?;
    let batch_id = r.u64()?;
    let request_id = r.u32()?;
    let ops = decode_ops(&mut r)?;
    if !r.done() {
        return None;
    }
    Some((
        ReplayBatch {
            batch_id,
            request_id,
            version,
            ops,
        },
        pos + 8 + len,
    ))
}

/// The append half: an open WAL file plus the fsync policy state.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    base_version: u64,
    policy: FsyncPolicy,
    last_sync: Instant,
}

impl Wal {
    /// Opens (creating if needed) the WAL that continues `base_version`
    /// — the version recovery resumed at ([`Recovered::recovered_version`];
    /// the checkpoint version on a first boot). The file with the
    /// largest base not past it is exactly the file the recovery chain
    /// ended in (and already truncated). Appends go to the end.
    pub fn open(dir: &Path, base_version: u64, policy: FsyncPolicy) -> io::Result<Wal> {
        fs::create_dir_all(dir)?;
        // Continue the file recovery replayed last, if one exists for
        // a base at or before the resume point; otherwise start fresh.
        let base = list_versions(dir, "wal", "ppwal")?
            .into_iter()
            .filter(|&b| b <= base_version)
            .max()
            .unwrap_or(base_version);
        let path = wal_path(dir, base);
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        if file.seek(SeekFrom::End(0))? == 0 {
            let mut header = Vec::with_capacity(WAL_HEADER_BYTES as usize);
            header.extend_from_slice(WAL_MAGIC);
            header.push(FORMAT);
            header.extend_from_slice(&base.to_be_bytes());
            file.write_all(&header)?;
            file.sync_all()?;
            sync_dir(dir);
        }
        Ok(Wal {
            dir: dir.to_path_buf(),
            file,
            base_version: base,
            policy,
            last_sync: Instant::now(),
        })
    }

    /// The version of the checkpoint this WAL continues.
    pub fn base_version(&self) -> u64 {
        self.base_version
    }

    /// Appends one admitted batch, to be applied as `version`, and
    /// makes it as durable as the fsync policy promises. Called
    /// *before* the in-memory apply; an error here must abort the
    /// batch (typed reply, no apply), never half-admit it.
    pub fn append(
        &mut self,
        version: u64,
        request_id: u32,
        batch_id: u64,
        ops: &[PoiOp],
    ) -> io::Result<()> {
        let span = trace::span(SpanName::WalAppend);
        span.attr(AttrKey::PoiOps, ops.len() as u64);
        let _timer = telemetry::global().time(Stage::WalAppend);
        let mut body = Vec::with_capacity(8 + 8 + 4 + 2 + ops.len() * 21);
        body.extend_from_slice(&version.to_be_bytes());
        body.extend_from_slice(&batch_id.to_be_bytes());
        body.extend_from_slice(&request_id.to_be_bytes());
        encode_ops(&mut body, ops);
        let mut record = Vec::with_capacity(8 + body.len());
        record.extend_from_slice(&(body.len() as u32).to_be_bytes());
        record.extend_from_slice(&crc32(&body).to_be_bytes());
        record.extend_from_slice(&body);
        span.attr(AttrKey::Bytes, record.len() as u64);
        self.file.write_all(&record)?;
        match self.policy {
            FsyncPolicy::Always => {
                self.file.sync_data()?;
                self.last_sync = Instant::now();
            }
            FsyncPolicy::Interval => {
                if self.last_sync.elapsed() >= FSYNC_INTERVAL {
                    self.file.sync_data()?;
                    self.last_sync = Instant::now();
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Cuts a checkpoint at `version` and rotates: writes the POI
    /// snapshot atomically, starts a fresh WAL based on it, and prunes
    /// files older than [`KEEP_CHECKPOINTS`] checkpoints back. The old
    /// WAL (the prefix the checkpoint absorbs) is deleted with its
    /// superseded checkpoint.
    pub fn checkpoint(&mut self, pois: &[Poi], version: u64) -> io::Result<()> {
        // Nothing acked may be lost by the rotation: flush the old WAL
        // before the checkpoint that supersedes it is written.
        self.file.sync_data()?;
        write_checkpoint(&self.dir, pois, version)?;
        let path = wal_path(&self.dir, version);
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        if file.seek(SeekFrom::End(0))? == 0 {
            let mut header = Vec::with_capacity(WAL_HEADER_BYTES as usize);
            header.extend_from_slice(WAL_MAGIC);
            header.push(FORMAT);
            header.extend_from_slice(&version.to_be_bytes());
            file.write_all(&header)?;
            file.sync_all()?;
            sync_dir(&self.dir);
        }
        let old_base = std::mem::replace(&mut self.base_version, version);
        self.file = file;
        self.last_sync = Instant::now();
        // Prune: keep the newest KEEP_CHECKPOINTS checkpoints and any
        // WAL not older than the oldest kept checkpoint.
        let mut cks = list_versions(&self.dir, "checkpoint", "ppck")?;
        cks.reverse();
        let keep_from = cks
            .get(KEEP_CHECKPOINTS - 1)
            .copied()
            .unwrap_or(old_base)
            .min(old_base);
        for v in cks.iter().skip(KEEP_CHECKPOINTS) {
            let _ = fs::remove_file(checkpoint_path(&self.dir, *v));
        }
        for b in list_versions(&self.dir, "wal", "ppwal")? {
            if b < keep_from {
                let _ = fs::remove_file(wal_path(&self.dir, b));
            }
        }
        sync_dir(&self.dir);
        Ok(())
    }

    /// Forces everything appended so far to the platter.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.last_sync = Instant::now();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ppgnn-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn pois(n: u32) -> Vec<Poi> {
        (0..n)
            .map(|i| Poi::new(i, Point::new(i as f64 / 100.0, 1.0 - i as f64 / 100.0)))
            .collect()
    }

    fn batch(i: u32) -> Vec<PoiOp> {
        vec![
            PoiOp::Insert(Poi::new(1000 + i, Point::new(0.5, 0.25 + i as f64 / 50.0))),
            PoiOp::Remove(i),
        ]
    }

    #[test]
    fn bootstrap_append_recover_round_trip() {
        let dir = tmp_dir("round-trip");
        bootstrap(&dir, &pois(10)).unwrap();
        let mut wal = Wal::open(&dir, 1, FsyncPolicy::Always).unwrap();
        for i in 0..3u32 {
            let ops = batch(i);
            wal.append(2 + i as u64, i, batch_id(i, &ops), &ops)
                .unwrap();
        }
        drop(wal);
        let rec = recover(&dir).unwrap().unwrap();
        assert_eq!(rec.checkpoint_version, 1);
        assert_eq!(rec.pois.len(), 10);
        assert_eq!(rec.batches.len(), 3);
        assert_eq!(rec.recovered_version(), 4);
        assert_eq!(rec.torn_bytes, 0);
        for (i, b) in rec.batches.iter().enumerate() {
            assert_eq!(b.version, 2 + i as u64);
            assert_eq!(b.ops, batch(i as u32));
            assert_eq!(b.batch_id, batch_id(i as u32, &b.ops));
            assert_eq!(b.request_id, i as u32);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_recovers_to_none() {
        let dir = tmp_dir("empty");
        assert!(recover(&dir).unwrap().is_none());
        assert!(!holds_state(&dir));
        // A WAL alone is state too: a server booting here would not
        // start from a fresh world.
        drop(Wal::open(&dir, 1, FsyncPolicy::Never).unwrap());
        assert!(holds_state(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp_dir("torn");
        bootstrap(&dir, &pois(5)).unwrap();
        let mut wal = Wal::open(&dir, 1, FsyncPolicy::Never).unwrap();
        for i in 0..3u32 {
            let ops = batch(i);
            wal.append(2 + i as u64, i, batch_id(i, &ops), &ops)
                .unwrap();
        }
        drop(wal);
        // Tear the last record: chop off its final 5 bytes.
        let path = wal_path(&dir, 1);
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let rec = recover(&dir).unwrap().unwrap();
        assert_eq!(rec.batches.len(), 2, "only the torn record is lost");
        assert_eq!(rec.recovered_version(), 3);
        assert_eq!(rec.torn_records, 1);
        assert!(rec.torn_bytes > 0);
        // The truncation is durable: a second recovery sees a clean log.
        let rec2 = recover(&dir).unwrap().unwrap();
        assert_eq!(rec2.torn_bytes, 0);
        assert_eq!(rec2.batches.len(), 2);
        // And appends continue where the cut left off.
        let mut wal = Wal::open(&dir, 1, FsyncPolicy::Always).unwrap();
        let ops = batch(9);
        wal.append(4, 9, batch_id(9, &ops), &ops).unwrap();
        drop(wal);
        assert_eq!(recover(&dir).unwrap().unwrap().recovered_version(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_cuts_the_tail_there() {
        let dir = tmp_dir("corrupt");
        bootstrap(&dir, &pois(5)).unwrap();
        let mut wal = Wal::open(&dir, 1, FsyncPolicy::Never).unwrap();
        let first = batch(0);
        wal.append(2, 0, batch_id(0, &first), &first).unwrap();
        let offset_second = fs::metadata(wal_path(&dir, 1)).unwrap().len();
        let second = batch(1);
        wal.append(3, 1, batch_id(1, &second), &second).unwrap();
        drop(wal);
        // Flip one byte inside the second record's body.
        let path = wal_path(&dir, 1);
        let mut bytes = fs::read(&path).unwrap();
        let victim = offset_second as usize + 12;
        bytes[victim] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let rec = recover(&dir).unwrap().unwrap();
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.batches[0].ops, first);
        assert_eq!(rec.recovered_version(), 2);
        assert!(rec.torn_bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rotates_and_prunes() {
        let dir = tmp_dir("rotate");
        bootstrap(&dir, &pois(5)).unwrap();
        let mut wal = Wal::open(&dir, 1, FsyncPolicy::Always).unwrap();
        let ops = batch(0);
        wal.append(2, 0, batch_id(0, &ops), &ops).unwrap();
        // World at version 2 = pois(5) + insert 1000 - remove 0.
        let mut world = pois(5);
        world.retain(|p| p.id != 0);
        world.push(Poi::new(1000, Point::new(0.5, 0.25)));
        wal.checkpoint(&world, 2).unwrap();
        assert_eq!(wal.base_version(), 2);
        let ops2 = batch(1);
        wal.append(3, 1, batch_id(1, &ops2), &ops2).unwrap();
        drop(wal);
        let rec = recover(&dir).unwrap().unwrap();
        assert_eq!(rec.checkpoint_version, 2);
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.batches[0].version, 3);
        let mut ids: Vec<_> = rec.pois.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4, 1000]);
        // Repeated checkpoints prune beyond the retained window.
        let mut wal = Wal::open(&dir, 2, FsyncPolicy::Always).unwrap();
        wal.checkpoint(&world, 3).unwrap();
        wal.checkpoint(&world, 4).unwrap();
        let cks = list_versions(&dir, "checkpoint", "ppck").unwrap();
        assert_eq!(cks, vec![3, 4], "only the newest two checkpoints remain");
        drop(wal);
        assert_eq!(recover(&dir).unwrap().unwrap().checkpoint_version, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older() {
        let dir = tmp_dir("ck-fallback");
        bootstrap(&dir, &pois(4)).unwrap();
        let mut wal = Wal::open(&dir, 1, FsyncPolicy::Always).unwrap();
        wal.checkpoint(&pois(4), 2).unwrap();
        drop(wal);
        // Corrupt the newest checkpoint's CRC.
        let path = checkpoint_path(&dir, 2);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let rec = recover(&dir).unwrap().unwrap();
        assert_eq!(rec.checkpoint_version, 1);
        assert_eq!(rec.corrupt_checkpoints, 1);
        // All checkpoints corrupt is a typed error, not a guess.
        let p1 = checkpoint_path(&dir, 1);
        let mut b1 = fs::read(&p1).unwrap();
        b1[0] ^= 0xff;
        fs::write(&p1, &b1).unwrap();
        assert!(matches!(recover(&dir), Err(WalError::NoValidCheckpoint)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fallback_checkpoint_replays_across_rotated_wal_files() {
        let dir = tmp_dir("chain");
        bootstrap(&dir, &pois(6)).unwrap();
        let mut wal = Wal::open(&dir, 1, FsyncPolicy::Always).unwrap();
        for i in 0..2u32 {
            let ops = batch(i);
            wal.append(2 + i as u64, i, batch_id(i, &ops), &ops)
                .unwrap();
        }
        // Rotate at v3 (checkpoint-3 + wal-3), then keep appending.
        wal.checkpoint(&pois(6), 3).unwrap();
        for i in 2..4u32 {
            let ops = batch(i);
            wal.append(2 + i as u64, i, batch_id(i, &ops), &ops)
                .unwrap();
        }
        drop(wal);
        // Newest checkpoint corrupt: recovery falls back to v1 and
        // must still reach v5 by chaining wal-1 into wal-3.
        let path = checkpoint_path(&dir, 3);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let rec = recover(&dir).unwrap().unwrap();
        assert_eq!(rec.checkpoint_version, 1);
        assert_eq!(rec.corrupt_checkpoints, 1);
        assert_eq!(
            rec.batches.len(),
            4,
            "replay must chain across the rotation"
        );
        assert_eq!(rec.recovered_version(), 5);
        assert_eq!(rec.orphaned_wal_files, 0);
        // Appends continue in the file the chain ended in (wal-3), so
        // the next recovery still sees one contiguous history.
        let mut wal = Wal::open(&dir, rec.recovered_version(), FsyncPolicy::Always).unwrap();
        assert_eq!(wal.base_version(), 3);
        let ops = batch(9);
        wal.append(6, 9, batch_id(9, &ops), &ops).unwrap();
        drop(wal);
        assert_eq!(recover(&dir).unwrap().unwrap().recovered_version(), 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreachable_wal_files_are_orphaned_loudly() {
        let dir = tmp_dir("orphan");
        bootstrap(&dir, &pois(4)).unwrap();
        let mut wal = Wal::open(&dir, 1, FsyncPolicy::Always).unwrap();
        let ops = batch(0);
        wal.append(2, 0, batch_id(0, &ops), &ops).unwrap();
        drop(wal);
        // A stale rotated file from a divergent history: base 7, past
        // anything the chain from v1 can reach.
        let mut header = Vec::new();
        header.extend_from_slice(WAL_MAGIC);
        header.push(FORMAT);
        header.extend_from_slice(&7u64.to_be_bytes());
        fs::write(wal_path(&dir, 7), &header).unwrap();
        let rec = recover(&dir).unwrap().unwrap();
        assert_eq!(rec.recovered_version(), 2);
        assert_eq!(rec.orphaned_wal_files, 1);
        assert!(rec.summary().contains("1 unreachable wal files orphaned"));
        assert!(!wal_path(&dir, 7).exists(), "orphan renamed aside");
        // Idempotent: a second recovery finds nothing left to orphan
        // and replays the same world.
        let rec2 = recover(&dir).unwrap().unwrap();
        assert_eq!(rec2.orphaned_wal_files, 0);
        assert_eq!(rec2.recovered_version(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_id_is_content_addressed() {
        let ops = batch(3);
        assert_eq!(batch_id(7, &ops), batch_id(7, &ops.clone()));
        assert_ne!(batch_id(7, &ops), batch_id(8, &ops));
        assert_ne!(batch_id(7, &ops), batch_id(7, &batch(4)));
        assert_ne!(batch_id(7, &[]), batch_id(8, &[]));
    }

    #[test]
    fn version_gap_cuts_the_tail() {
        let dir = tmp_dir("gap");
        bootstrap(&dir, &pois(5)).unwrap();
        let mut wal = Wal::open(&dir, 1, FsyncPolicy::Always).unwrap();
        let a = batch(0);
        wal.append(2, 0, batch_id(0, &a), &a).unwrap();
        let b = batch(1);
        wal.append(9, 1, batch_id(1, &b), &b).unwrap(); // discontinuous
        drop(wal);
        let rec = recover(&dir).unwrap().unwrap();
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.recovered_version(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}

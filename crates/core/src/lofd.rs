//! `.lofd` — the out-of-core columnar dataset format.
//!
//! A `.lofd` file holds one dataset in two sections, both
//! [`SECTION_ALIGN`](crate::mmap::SECTION_ALIGN)-aligned so a page-aligned
//! mapping hands out cache-line-aligned, correctly-typed slices:
//!
//! * **coords** — the exact `f64` coordinates, row-major: byte-identical
//!   to what [`Dataset::as_flat`](crate::Dataset::as_flat) exposes in RAM,
//!   so `BlockKernel` and the tree builders stream tiles straight off the
//!   page cache with zero per-tile copies;
//! * **panel** — an `f32` column-major surrogate copy (`panel[c * count + r]`),
//!   the precision/layout the SIMD surrogate prefilter consumes. Distances
//!   taken on the panel are always refined against the `f64` section, the
//!   same surrogate-plus-refine contract the in-RAM kernel already proves
//!   exact.
//!
//! ## Layout (version 1, little-endian)
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"LOFD"
//!      4     4  version (1)
//!      8     8  dims
//!     16     8  count (rows)
//!     24     8  flags (bit 0: incomplete ingest; bit 1: panel present)
//!     32     8  coords section offset   (bytes, 64-aligned)
//!     40     8  coords section length   (bytes, = dims*count*8)
//!     48     8  panel section offset    (bytes, 64-aligned)
//!     56     8  panel section length    (bytes, = dims*count*4)
//!     64     8  FNV-1a-64 checksum over the coords then panel bytes
//!     72    56  reserved (zero)
//!    128     -  sections (zero padding between them, not checksummed)
//! ```
//!
//! [`LofdWriter`] streams rows in O(row) memory and supports **resumable**
//! ingest: the header carries an *incomplete* flag until
//! [`finish`](LofdWriter::finish), and a `<path>.resume` sidecar records
//! the last durable row count so an interrupted load continues where it
//! stopped instead of starting over. [`Lofd::open`] maps a finished file
//! and verifies the checksum plus coordinate finiteness in one sequential
//! pass, so every dataset it hands out upholds the same "no NaN ever
//! reaches a total order" invariant as the in-RAM constructors.

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::mmap::{MappedFile, SECTION_ALIGN};
use crate::point::Dataset;

/// File magic: `b"LOFD"`.
pub const MAGIC: [u8; 4] = *b"LOFD";
/// Current (and only) format version.
pub const VERSION: u32 = 1;
/// Header length in bytes; the coords section starts here.
pub const HEADER_LEN: usize = 128;

const FLAG_INCOMPLETE: u64 = 1 << 0;
const FLAG_PANEL: u64 = 1 << 1;

/// Rows between durability checkpoints of a streaming ingest (flush +
/// sidecar update). 64Ki rows of 8-d data is ~4 MiB per checkpoint.
const CHECKPOINT_ROWS: u64 = 65_536;

/// Typed failures of `.lofd` reading and writing — corruption is reported,
/// never panicked on.
#[derive(Debug)]
pub enum LofdError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is shorter than a section the header promises.
    Truncated {
        /// Bytes the header (or the fixed header size) requires.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// The first four bytes are not `b"LOFD"`.
    BadMagic([u8; 4]),
    /// A version this build does not speak.
    UnsupportedVersion(u32),
    /// The coords section length disagrees with `dims * count * 8`.
    DimMismatch {
        /// Dimensionality claimed by the header.
        dims: u64,
        /// Row count claimed by the header.
        count: u64,
        /// Coords section length found, in bytes.
        coords_bytes: u64,
    },
    /// The stored checksum does not match the payload.
    BadChecksum {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum recomputed from the payload.
        computed: u64,
    },
    /// A coordinate is NaN/±∞ — the dataset invariant every downstream
    /// total order depends on.
    NonFinite {
        /// Row of the offending value.
        row: u64,
        /// Column of the offending value.
        col: u64,
    },
    /// The file is an unfinished ingest (resume it or re-ingest).
    Incomplete,
    /// A structurally invalid header (zero dims, misaligned or
    /// overlapping sections, ...).
    BadHeader(String),
}

impl std::fmt::Display for LofdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LofdError::Io(e) => write!(f, "lofd i/o error: {e}"),
            LofdError::Truncated { expected, found } => {
                write!(f, "lofd file truncated: need {expected} bytes, found {found}")
            }
            LofdError::BadMagic(m) => write!(f, "not a .lofd file (magic {m:02x?})"),
            LofdError::UnsupportedVersion(v) => {
                write!(f, "unsupported .lofd version {v} (this build speaks {VERSION})")
            }
            LofdError::DimMismatch { dims, count, coords_bytes } => write!(
                f,
                "coords section is {coords_bytes} bytes but header claims {count} rows x {dims} \
                 columns ({} bytes)",
                dims * count * 8
            ),
            LofdError::BadChecksum { stored, computed } => {
                write!(f, "checksum mismatch: header {stored:#018x}, payload {computed:#018x}")
            }
            LofdError::NonFinite { row, col } => {
                write!(f, "non-finite coordinate at row {row}, column {col}")
            }
            LofdError::Incomplete => {
                write!(f, "unfinished ingest (resume it with `lof ingest --resume` or re-ingest)")
            }
            LofdError::BadHeader(msg) => write!(f, "invalid .lofd header: {msg}"),
        }
    }
}

impl std::error::Error for LofdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LofdError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LofdError {
    fn from(e: io::Error) -> Self {
        LofdError::Io(e)
    }
}

/// FNV-1a-64 over a byte stream; tiny, dependency-free, and plenty to
/// catch torn writes and bit rot (this is an integrity check, not a MAC).
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn align_up(v: u64, align: u64) -> u64 {
    v.div_ceil(align) * align
}

#[derive(Debug, Clone, Copy)]
struct Header {
    version: u32,
    dims: u64,
    count: u64,
    flags: u64,
    coords_off: u64,
    coords_len: u64,
    panel_off: u64,
    panel_len: u64,
    checksum: u64,
}

impl Header {
    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..4].copy_from_slice(&MAGIC);
        buf[4..8].copy_from_slice(&self.version.to_le_bytes());
        buf[8..16].copy_from_slice(&self.dims.to_le_bytes());
        buf[16..24].copy_from_slice(&self.count.to_le_bytes());
        buf[24..32].copy_from_slice(&self.flags.to_le_bytes());
        buf[32..40].copy_from_slice(&self.coords_off.to_le_bytes());
        buf[40..48].copy_from_slice(&self.coords_len.to_le_bytes());
        buf[48..56].copy_from_slice(&self.panel_off.to_le_bytes());
        buf[56..64].copy_from_slice(&self.panel_len.to_le_bytes());
        buf[64..72].copy_from_slice(&self.checksum.to_le_bytes());
        buf
    }

    fn decode(bytes: &[u8]) -> Result<Header, LofdError> {
        if bytes.len() < HEADER_LEN {
            return Err(LofdError::Truncated {
                expected: HEADER_LEN as u64,
                found: bytes.len() as u64,
            });
        }
        let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
        if magic != MAGIC {
            return Err(LofdError::BadMagic(magic));
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
        let version = u32_at(4);
        if version != VERSION {
            return Err(LofdError::UnsupportedVersion(version));
        }
        Ok(Header {
            version,
            dims: u64_at(8),
            count: u64_at(16),
            flags: u64_at(24),
            coords_off: u64_at(32),
            coords_len: u64_at(40),
            panel_off: u64_at(48),
            panel_len: u64_at(56),
            checksum: u64_at(64),
        })
    }
}

/// True when `path` starts with the `.lofd` magic — how the CLI decides
/// between the CSV and out-of-core loaders without trusting extensions.
pub fn sniff<P: AsRef<Path>>(path: P) -> bool {
    let mut magic = [0u8; 4];
    match File::open(path.as_ref()).and_then(|mut f| f.read_exact(&mut magic)) {
        Ok(()) => magic == MAGIC,
        Err(_) => false,
    }
}

/// Streaming `.lofd` writer: O(row) memory, resumable, atomic completion.
///
/// Rows are appended to the coords section as they arrive; every
/// [`CHECKPOINT_ROWS`] the data is flushed and a `<path>.resume` sidecar
/// records the durable row count. [`finish`](LofdWriter::finish) builds
/// the column-major `f32` panel from the coords on disk (never holding
/// the dataset in memory), computes the checksum, patches the header
/// complete, and removes the sidecar.
#[derive(Debug)]
pub struct LofdWriter {
    out: BufWriter<File>,
    path: PathBuf,
    dims: usize,
    rows: u64,
    rows_synced: u64,
}

impl LofdWriter {
    /// Creates (truncating) a `.lofd` file for `dims`-dimensional rows.
    ///
    /// # Errors
    ///
    /// Returns [`LofdError::BadHeader`] for `dims == 0` and propagates I/O
    /// failures.
    pub fn create<P: AsRef<Path>>(path: P, dims: usize) -> Result<LofdWriter, LofdError> {
        if dims == 0 {
            return Err(LofdError::BadHeader("dims must be >= 1".into()));
        }
        let path = path.as_ref().to_path_buf();
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        let mut out = BufWriter::new(file);
        let header = Header {
            version: VERSION,
            dims: dims as u64,
            count: 0,
            flags: FLAG_INCOMPLETE,
            coords_off: HEADER_LEN as u64,
            coords_len: 0,
            panel_off: 0,
            panel_len: 0,
            checksum: 0,
        };
        out.write_all(&header.encode())?;
        Ok(LofdWriter { out, path, dims, rows: 0, rows_synced: 0 })
    }

    /// Reopens an unfinished ingest at the last durable checkpoint: rows
    /// past what the sidecar recorded are discarded and appending
    /// continues from there. [`LofdWriter::rows`] tells the caller how
    /// many input rows to skip.
    ///
    /// # Errors
    ///
    /// Returns [`LofdError::BadHeader`] when the file was already
    /// finished or has no sidecar, the usual header errors for a file
    /// that is not a `.lofd`, and propagates I/O failures.
    pub fn resume<P: AsRef<Path>>(path: P) -> Result<LofdWriter, LofdError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut head = [0u8; HEADER_LEN];
        file.read_exact(&mut head).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                LofdError::Truncated { expected: HEADER_LEN as u64, found: 0 }
            } else {
                LofdError::Io(e)
            }
        })?;
        let header = Header::decode(&head)?;
        if header.flags & FLAG_INCOMPLETE == 0 {
            return Err(LofdError::BadHeader(
                "file is already a finished .lofd; nothing to resume".into(),
            ));
        }
        let dims = usize::try_from(header.dims)
            .ok()
            .filter(|&d| d > 0)
            .ok_or_else(|| LofdError::BadHeader(format!("bad dims {}", header.dims)))?;
        let sidecar = sidecar_path(&path);
        let rows = read_sidecar(&sidecar)?;
        let data_end = HEADER_LEN as u64 + rows * dims as u64 * 8;
        if file.metadata()?.len() < data_end {
            return Err(LofdError::Truncated { expected: data_end, found: file.metadata()?.len() });
        }
        // Drop any rows written after the last durable checkpoint.
        file.set_len(data_end)?;
        file.seek(SeekFrom::End(0))?;
        Ok(LofdWriter { out: BufWriter::new(file), path, dims, rows, rows_synced: rows })
    }

    /// Rows written so far (including rows recovered by
    /// [`LofdWriter::resume`]).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Dimensionality the writer was created with.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Appends one row.
    ///
    /// # Errors
    ///
    /// Returns [`LofdError::BadHeader`] on a row of the wrong width,
    /// [`LofdError::NonFinite`] on NaN/±∞, and propagates I/O failures.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), LofdError> {
        if row.len() != self.dims {
            return Err(LofdError::BadHeader(format!(
                "row {} has {} columns, expected {}",
                self.rows,
                row.len(),
                self.dims
            )));
        }
        for (col, &v) in row.iter().enumerate() {
            if !v.is_finite() {
                return Err(LofdError::NonFinite { row: self.rows, col: col as u64 });
            }
        }
        for &v in row {
            self.out.write_all(&v.to_le_bytes())?;
        }
        self.rows += 1;
        if self.rows - self.rows_synced >= CHECKPOINT_ROWS {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Flushes buffered rows durably and records the row count in the
    /// resume sidecar. Called automatically every [`CHECKPOINT_ROWS`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn checkpoint(&mut self) -> Result<(), LofdError> {
        self.out.flush()?;
        self.out.get_ref().sync_data()?;
        write_sidecar(&sidecar_path(&self.path), self.rows)?;
        self.rows_synced = self.rows;
        Ok(())
    }

    /// Completes the file: builds the `f32` column-major panel from the
    /// on-disk coords (O(chunk) memory), computes the checksum, patches
    /// the header as complete, and removes the resume sidecar.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish(mut self) -> Result<(), LofdError> {
        self.out.flush()?;
        let mut file = self.out.into_inner().map_err(|e| LofdError::Io(e.into_error()))?;
        let dims = self.dims as u64;
        let count = self.rows;
        let coords_off = HEADER_LEN as u64;
        let coords_len = count * dims * 8;
        let panel_off = align_up(coords_off + coords_len, SECTION_ALIGN as u64);
        let panel_len = count * dims * 4;

        // Pad up to the panel section, then transpose the coords into it
        // one column at a time: each pass streams the coords sequentially
        // and appends one contiguous f32 column, so peak memory stays at
        // one I/O buffer regardless of dataset size.
        file.set_len(panel_off)?;
        file.seek(SeekFrom::Start(panel_off))?;
        let mut panel_out = BufWriter::new(&mut file);
        for c in 0..self.dims {
            let coords_in = OpenOptions::new().read(true).open(&self.path)?;
            let mut coords_in = BufReader::with_capacity(1 << 20, coords_in);
            coords_in.seek(SeekFrom::Start(coords_off))?;
            let mut row = vec![0u8; self.dims * 8];
            for _ in 0..count {
                coords_in.read_exact(&mut row)?;
                let v = f64::from_le_bytes(row[c * 8..c * 8 + 8].try_into().expect("8 bytes"));
                panel_out.write_all(&(v as f32).to_le_bytes())?;
            }
        }
        panel_out.flush()?;
        drop(panel_out);

        // One sequential pass over both sections for the checksum.
        let mut checksum = Fnv1a::new();
        file.seek(SeekFrom::Start(coords_off))?;
        hash_range(&mut file, coords_len, &mut checksum)?;
        file.seek(SeekFrom::Start(panel_off))?;
        hash_range(&mut file, panel_len, &mut checksum)?;

        let header = Header {
            version: VERSION,
            dims,
            count,
            flags: FLAG_PANEL,
            coords_off,
            coords_len,
            panel_off,
            panel_len,
            checksum: checksum.finish(),
        };
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header.encode())?;
        file.sync_all()?;
        let _ = std::fs::remove_file(sidecar_path(&self.path));
        Ok(())
    }
}

fn hash_range(file: &mut File, len: u64, checksum: &mut Fnv1a) -> Result<(), LofdError> {
    let mut remaining = len;
    let mut buf = vec![0u8; 1 << 20];
    let mut reader = BufReader::with_capacity(1 << 20, file);
    while remaining > 0 {
        let take = remaining.min(buf.len() as u64) as usize;
        reader.read_exact(&mut buf[..take])?;
        checksum.update(&buf[..take]);
        remaining -= take as u64;
    }
    Ok(())
}

fn sidecar_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".resume");
    PathBuf::from(s)
}

fn write_sidecar(path: &Path, rows: u64) -> Result<(), LofdError> {
    // Write-then-rename so a crash mid-update leaves the previous
    // checkpoint intact.
    let tmp = {
        let mut s = path.as_os_str().to_os_string();
        s.push(".tmp");
        PathBuf::from(s)
    };
    let mut f = File::create(&tmp)?;
    writeln!(f, "rows={rows}")?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn read_sidecar(path: &Path) -> Result<u64, LofdError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        if e.kind() == io::ErrorKind::NotFound {
            LofdError::BadHeader(
                "unfinished ingest has no .resume sidecar; re-ingest from scratch".into(),
            )
        } else {
            LofdError::Io(e)
        }
    })?;
    text.trim()
        .strip_prefix("rows=")
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| LofdError::BadHeader(format!("malformed resume sidecar {path:?}")))
}

/// A validated, mapped `.lofd` file.
///
/// Opening verifies the header, the checksum, and coordinate finiteness in
/// one sequential sweep; after that, [`Lofd::dataset`] is free — the
/// returned [`Dataset`] aliases the mapping.
#[derive(Debug, Clone)]
pub struct Lofd {
    map: Arc<MappedFile>,
    dims: usize,
    count: usize,
    coords_off: usize,
    panel_off: usize,
    panel_present: bool,
}

impl Lofd {
    /// Maps and validates the file at `path`.
    ///
    /// # Errors
    ///
    /// Every corruption mode has a typed [`LofdError`] variant; see the
    /// module docs for the validation order.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Lofd, LofdError> {
        let faults_before = minor_faults();
        let map = MappedFile::open(path.as_ref())?;
        let bytes = map.bytes();
        let header = Header::decode(bytes)?;
        if header.flags & FLAG_INCOMPLETE != 0 {
            return Err(LofdError::Incomplete);
        }
        if header.dims == 0 {
            return Err(LofdError::BadHeader("dims must be >= 1".into()));
        }
        let dims = usize::try_from(header.dims)
            .map_err(|_| LofdError::BadHeader(format!("dims {} overflows", header.dims)))?;
        let count = usize::try_from(header.count)
            .map_err(|_| LofdError::BadHeader(format!("count {} overflows", header.count)))?;
        let expected_coords = (dims as u64)
            .checked_mul(header.count)
            .and_then(|v| v.checked_mul(8))
            .ok_or_else(|| LofdError::BadHeader("coords size overflows".into()))?;
        if header.coords_len != expected_coords {
            return Err(LofdError::DimMismatch {
                dims: header.dims,
                count: header.count,
                coords_bytes: header.coords_len,
            });
        }
        let panel_present = header.flags & FLAG_PANEL != 0;
        if panel_present && header.panel_len != expected_coords / 2 {
            return Err(LofdError::BadHeader(format!(
                "panel section is {} bytes, expected {}",
                header.panel_len,
                expected_coords / 2
            )));
        }
        for (name, off, len) in [
            ("coords", header.coords_off, header.coords_len),
            ("panel", header.panel_off, header.panel_len),
        ] {
            if !panel_present && name == "panel" {
                continue;
            }
            if off % SECTION_ALIGN as u64 != 0 {
                return Err(LofdError::BadHeader(format!("{name} offset {off} misaligned")));
            }
            if off < HEADER_LEN as u64 {
                return Err(LofdError::BadHeader(format!(
                    "{name} section overlaps the header (offset {off})"
                )));
            }
            let end = off
                .checked_add(len)
                .ok_or_else(|| LofdError::BadHeader(format!("{name} section overflows")))?;
            if end > bytes.len() as u64 {
                return Err(LofdError::Truncated { expected: end, found: bytes.len() as u64 });
            }
        }

        let coords_off = header.coords_off as usize;
        let panel_off = header.panel_off as usize;

        // Checksum, then finiteness, each one sequential sweep. The second
        // pass rides the first's page cache; together they uphold the
        // Dataset invariant before any id is handed out.
        let mut checksum = Fnv1a::new();
        checksum.update(&bytes[coords_off..coords_off + header.coords_len as usize]);
        if panel_present {
            checksum.update(&bytes[panel_off..panel_off + header.panel_len as usize]);
        }
        let computed = checksum.finish();
        if computed != header.checksum {
            return Err(LofdError::BadChecksum { stored: header.checksum, computed });
        }
        let coords = map.f64_slice(coords_off, count * dims);
        for (i, &v) in coords.iter().enumerate() {
            if !v.is_finite() {
                return Err(LofdError::NonFinite {
                    row: (i / dims) as u64,
                    col: (i % dims) as u64,
                });
            }
        }
        if let (Some(before), Some(after)) = (faults_before, minor_faults()) {
            crate::obs::publish_ooc_open(after.saturating_sub(before), bytes.len() as u64);
        } else {
            crate::obs::publish_ooc_open(0, bytes.len() as u64);
        }
        Ok(Lofd { map: Arc::new(map), dims, count, coords_off, panel_off, panel_present })
    }

    /// Dimensionality of every row.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of rows.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The dataset, aliasing the mapping (no copy). Cloning the returned
    /// [`Dataset`] shares the map; mutating it promotes to an owned copy.
    pub fn dataset(&self) -> Dataset {
        Dataset::from_mapped(Arc::clone(&self.map), self.dims, self.coords_off, self.count)
    }

    /// The `f32` column-major surrogate panel (`panel[c * count + r]`), if
    /// the file carries one.
    pub fn panel(&self) -> Option<&[f32]> {
        self.panel_present.then(|| self.map.f32_slice(self.panel_off, self.count * self.dims))
    }

    /// Writes an in-RAM dataset out as a finished `.lofd` file — the
    /// round-trip counterpart of [`Lofd::open`] used by tests and small
    /// conversions (large loads should stream through [`LofdWriter`]).
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn write_dataset<P: AsRef<Path>>(path: P, data: &Dataset) -> Result<(), LofdError> {
        let mut w = LofdWriter::create(path, data.dims())?;
        for (_, row) in data.iter() {
            w.push_row(row)?;
        }
        w.finish()
    }
}

/// Minor page faults of this process so far (`/proc/self/stat` field 10);
/// `None` where procfs is unavailable. Drives the `core.ooc.panel_faults`
/// counter.
pub(crate) fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 (comm) may contain spaces; skip past its closing paren.
    let rest = stat.rsplit_once(')')?.1;
    rest.split_whitespace().nth(7).and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lof-lofd-{}-{name}", std::process::id()))
    }

    fn sample() -> Dataset {
        let rows: Vec<[f64; 3]> =
            (0..100).map(|i| [i as f64, (i * i % 37) as f64, -0.5 * i as f64]).collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn roundtrip_preserves_bits_and_builds_panel() {
        let path = tmp("roundtrip.lofd");
        let data = sample();
        Lofd::write_dataset(&path, &data).unwrap();
        let lofd = Lofd::open(&path).unwrap();
        assert_eq!(lofd.dims(), 3);
        assert_eq!(lofd.count(), 100);
        let mapped = lofd.dataset();
        assert_eq!(mapped.as_flat(), data.as_flat());
        let panel = lofd.panel().unwrap();
        assert_eq!(panel.len(), 300);
        // Column-major: panel[c * count + r] == coords[r * dims + c] as f32.
        for r in 0..100 {
            for c in 0..3 {
                assert_eq!(panel[c * 100 + r], data.as_flat()[r * 3 + c] as f32);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let path = tmp("empty.lofd");
        Lofd::write_dataset(&path, &Dataset::new(4)).unwrap();
        let lofd = Lofd::open(&path).unwrap();
        assert_eq!(lofd.count(), 0);
        assert_eq!(lofd.dims(), 4);
        assert!(lofd.dataset().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sniff_detects_magic() {
        let path = tmp("sniff.lofd");
        Lofd::write_dataset(&path, &sample()).unwrap();
        assert!(sniff(&path));
        let csv = tmp("sniff.csv");
        std::fs::write(&csv, "x,y\n1,2\n").unwrap();
        assert!(!sniff(&csv));
        assert!(!sniff(tmp("sniff-missing.lofd")));
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&csv).unwrap();
    }

    #[test]
    fn truncated_file_is_typed() {
        let path = tmp("trunc.lofd");
        Lofd::write_dataset(&path, &sample()).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Too short for even a header.
        std::fs::write(&path, &full[..40]).unwrap();
        assert!(matches!(Lofd::open(&path), Err(LofdError::Truncated { .. })));
        // Header intact, payload cut.
        std::fs::write(&path, &full[..HEADER_LEN + 64]).unwrap();
        assert!(matches!(Lofd::open(&path), Err(LofdError::Truncated { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_is_typed() {
        let path = tmp("magic.lofd");
        Lofd::write_dataset(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0..4].copy_from_slice(b"NOPE");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Lofd::open(&path), Err(LofdError::BadMagic(m)) if &m == b"NOPE"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn future_version_is_typed() {
        let path = tmp("version.lofd");
        Lofd::write_dataset(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Lofd::open(&path), Err(LofdError::UnsupportedVersion(9))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dim_mismatch_is_typed() {
        let path = tmp("dims.lofd");
        Lofd::write_dataset(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Claim 5 columns without touching the sections.
        bytes[8..16].copy_from_slice(&5u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Lofd::open(&path),
            Err(LofdError::DimMismatch { dims: 5, count: 100, .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let path = tmp("bitrot.lofd");
        Lofd::write_dataset(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 11] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Lofd::open(&path), Err(LofdError::BadChecksum { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_finite_payload_is_typed() {
        let path = tmp("nan.lofd");
        Lofd::write_dataset(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Overwrite row 2, column 1 with NaN and re-patch the checksum so
        // the finiteness check (not the checksum) is what fires.
        let off = HEADER_LEN + (2 * 3 + 1) * 8;
        bytes[off..off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        let header = Header::decode(&bytes).unwrap();
        let mut sum = Fnv1a::new();
        sum.update(
            &bytes[header.coords_off as usize
                ..header.coords_off as usize + header.coords_len as usize],
        );
        sum.update(
            &bytes
                [header.panel_off as usize..header.panel_off as usize + header.panel_len as usize],
        );
        bytes[64..72].copy_from_slice(&sum.finish().to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Lofd::open(&path), Err(LofdError::NonFinite { row: 2, col: 1 })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unfinished_ingest_is_rejected_then_resumable() {
        let path = tmp("resume.lofd");
        let mut w = LofdWriter::create(&path, 2).unwrap();
        for i in 0..10 {
            w.push_row(&[i as f64, 2.0 * i as f64]).unwrap();
        }
        w.checkpoint().unwrap();
        // Simulate a crash: drop without finish; a few rows past the
        // checkpoint may or may not have hit the disk.
        drop(w);
        assert!(matches!(Lofd::open(&path), Err(LofdError::Incomplete)));

        let mut w = LofdWriter::resume(&path).unwrap();
        assert_eq!(w.rows(), 10);
        for i in 10..25 {
            w.push_row(&[i as f64, 2.0 * i as f64]).unwrap();
        }
        w.finish().unwrap();
        let lofd = Lofd::open(&path).unwrap();
        assert_eq!(lofd.count(), 25);
        let expected: Vec<f64> = (0..25).flat_map(|i| [i as f64, 2.0 * i as f64]).collect();
        assert_eq!(lofd.dataset().as_flat(), &expected[..]);
        assert!(!sidecar_path(&path).exists(), "finish removes the sidecar");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_of_finished_file_is_rejected() {
        let path = tmp("resume-done.lofd");
        Lofd::write_dataset(&path, &sample()).unwrap();
        assert!(matches!(LofdWriter::resume(&path), Err(LofdError::BadHeader(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_rejects_bad_rows() {
        let path = tmp("badrow.lofd");
        let mut w = LofdWriter::create(&path, 2).unwrap();
        assert!(matches!(w.push_row(&[1.0]), Err(LofdError::BadHeader(_))));
        assert!(matches!(
            w.push_row(&[1.0, f64::NAN]),
            Err(LofdError::NonFinite { row: 0, col: 1 })
        ));
        drop(w);
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_file(sidecar_path(&path));
    }

    #[test]
    fn mutating_a_mapped_dataset_promotes_to_owned() {
        let path = tmp("promote.lofd");
        let data = sample();
        Lofd::write_dataset(&path, &data).unwrap();
        let lofd = Lofd::open(&path).unwrap();
        let mut mapped = lofd.dataset();
        mapped.push(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(mapped.len(), 101);
        assert_eq!(mapped.point(100), &[1.0, 2.0, 3.0]);
        assert_eq!(&mapped.as_flat()[..300], data.as_flat());
        std::fs::remove_file(&path).unwrap();
    }
}

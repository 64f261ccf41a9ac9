//! Trace persistence.
//!
//! Compiled [`OpStream`]s serialise to a dense binary container (`.ops`)
//! so experiments can be archived and replayed across runs, and so
//! million-op traces stream to and from disk without ever existing as
//! `Vec<TraceRecord>`:
//!
//! ```text
//! magic "SSMCOPS\0" · version u16 · pad u16 · name_len u32
//! record_count u64 · file_count u64            (patched by finish())
//! name bytes · records (4 × u64 LE each) · file table (u64 LE each)
//! ```
//!
//! [`OpStreamWriter`] appends records as they are produced (the
//! generators' streaming path) and back-patches the counts on
//! [`OpStreamWriter::finish`]; [`OpStreamFileReader`] streams records
//! back through a fixed buffer, allocation-free after open.

use crate::record::{FileId, FileOp, TraceRecord};
use crate::stream::{
    encode_record, kind_code_valid, FileTable, OpStream, RECORD_BYTES, RECORD_WORDS,
};
use ssmc_sim::SimTime;
use std::fs;
use std::io;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

// ---------------------------------------------------------------------
// Compiled op-stream container
// ---------------------------------------------------------------------

/// Magic bytes opening every `.ops` file.
pub const STREAM_MAGIC: [u8; 8] = *b"SSMCOPS\0";

/// Container format version this build writes and reads.
pub const STREAM_VERSION: u16 = 1;

/// Fixed header bytes ahead of the name: magic, version, pad, name_len,
/// record_count, file_count.
const HEADER_BYTES: u64 = 8 + 2 + 2 + 4 + 8 + 8;
/// Offset of the back-patched `record_count`/`file_count` pair.
const COUNTS_OFFSET: u64 = 16;

fn corrupt(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// What a finished stream write produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Records written.
    pub records: u64,
    /// Distinct files interned.
    pub files: u64,
}

/// Streams compiled records into a `.ops` container as they are
/// produced. Records are appended incrementally — the generators' sink
/// path pushes each operation the moment it is drawn — and the header
/// counts are back-patched when [`Self::finish`] seals the file.
#[derive(Debug)]
pub struct OpStreamWriter<W: Write + Seek> {
    w: W,
    table: FileTable,
    records: u64,
}

impl OpStreamWriter<io::BufWriter<fs::File>> {
    /// Creates a `.ops` file at `path` (buffered).
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn create(path: &Path, name: &str) -> io::Result<Self> {
        OpStreamWriter::new(io::BufWriter::new(fs::File::create(path)?), name)
    }
}

impl<W: Write + Seek> OpStreamWriter<W> {
    /// Writes the header and prepares for record appends.
    ///
    /// # Errors
    ///
    /// Write errors from `w`.
    pub fn new(mut w: W, name: &str) -> io::Result<Self> {
        let name_len = u32::try_from(name.len()).map_err(|_| corrupt("name too long"))?;
        w.write_all(&STREAM_MAGIC)?;
        w.write_all(&STREAM_VERSION.to_le_bytes())?;
        w.write_all(&0u16.to_le_bytes())?;
        w.write_all(&name_len.to_le_bytes())?;
        // Counts are unknown until finish(); zero for now.
        w.write_all(&0u64.to_le_bytes())?;
        w.write_all(&0u64.to_le_bytes())?;
        w.write_all(name.as_bytes())?;
        Ok(OpStreamWriter {
            w,
            table: FileTable::default(),
            records: 0,
        })
    }

    /// Appends one operation.
    ///
    /// # Errors
    ///
    /// Write errors from the underlying sink.
    pub fn push(&mut self, at: SimTime, op: &FileOp) -> io::Result<()> {
        let words = encode_record(at, op, &mut self.table);
        let mut buf = [0u8; RECORD_BYTES];
        for (chunk, word) in buf.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        self.w.write_all(&buf)?;
        self.records += 1;
        Ok(())
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends the file table, back-patches the header counts, and
    /// flushes.
    ///
    /// # Errors
    ///
    /// Write/seek errors from the underlying sink.
    pub fn finish(mut self) -> io::Result<StreamSummary> {
        let files = self.table.ids().len() as u64;
        for &id in self.table.ids() {
            self.w.write_all(&id.to_le_bytes())?;
        }
        self.w.seek(SeekFrom::Start(COUNTS_OFFSET))?;
        self.w.write_all(&self.records.to_le_bytes())?;
        self.w.write_all(&files.to_le_bytes())?;
        self.w.flush()?;
        Ok(StreamSummary {
            records: self.records,
            files,
        })
    }
}

/// Writes an in-memory [`OpStream`] to a `.ops` file. Dumps the already
/// encoded words directly — no decode/re-encode pass.
///
/// # Errors
///
/// Filesystem errors.
pub fn save_stream(stream: &OpStream, path: &Path) -> io::Result<StreamSummary> {
    let name = stream.name();
    let name_len = u32::try_from(name.len()).map_err(|_| corrupt("name too long"))?;
    let records = stream.len() as u64;
    let files = stream.file_count() as u64;
    let mut w = io::BufWriter::new(fs::File::create(path)?);
    w.write_all(&STREAM_MAGIC)?;
    w.write_all(&STREAM_VERSION.to_le_bytes())?;
    w.write_all(&0u16.to_le_bytes())?;
    w.write_all(&name_len.to_le_bytes())?;
    w.write_all(&records.to_le_bytes())?;
    w.write_all(&files.to_le_bytes())?;
    w.write_all(name.as_bytes())?;
    for word in stream.words() {
        w.write_all(&word.to_le_bytes())?;
    }
    for id in stream.file_ids() {
        w.write_all(&id.to_le_bytes())?;
    }
    w.flush()?;
    Ok(StreamSummary { records, files })
}

/// Parsed `.ops` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamHeader {
    /// Workload name.
    pub name: String,
    /// Container version.
    pub version: u16,
    /// Records in the file.
    pub records: u64,
    /// Interned file-table entries.
    pub files: u64,
}

fn read_header<R: Read>(r: &mut R) -> io::Result<StreamHeader> {
    let mut fixed = [0u8; HEADER_BYTES as usize];
    r.read_exact(&mut fixed)?;
    if fixed[..8] != STREAM_MAGIC {
        return Err(corrupt("not an op stream (bad magic)"));
    }
    let version = u16::from_le_bytes([fixed[8], fixed[9]]);
    if version != STREAM_VERSION {
        return Err(corrupt(format!(
            "unsupported op-stream version {version} (this build reads {STREAM_VERSION})"
        )));
    }
    let name_len = u32::from_le_bytes(fixed[12..16].try_into().expect("4 bytes")) as usize;
    let records = u64::from_le_bytes(fixed[16..24].try_into().expect("8 bytes"));
    let files = u64::from_le_bytes(fixed[24..32].try_into().expect("8 bytes"));
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|_| corrupt("name is not UTF-8"))?;
    Ok(StreamHeader {
        name,
        version,
        records,
        files,
    })
}

/// Reads just the header of a `.ops` file (the `trace-compile` dump).
///
/// # Errors
///
/// Filesystem errors or a malformed header.
pub fn read_stream_header(path: &Path) -> io::Result<StreamHeader> {
    read_header(&mut io::BufReader::new(fs::File::open(path)?))
}

/// Loads a whole `.ops` file into an in-memory [`OpStream`], validating
/// every record's kind code and file index.
///
/// # Errors
///
/// Filesystem errors or corruption.
pub fn load_stream(path: &Path) -> io::Result<OpStream> {
    let mut r = io::BufReader::new(fs::File::open(path)?);
    let header = read_header(&mut r)?;
    let n_words = (header.records as usize)
        .checked_mul(RECORD_WORDS)
        .ok_or_else(|| corrupt("record count overflows"))?;
    let mut words = vec![0u64; n_words];
    let mut buf = [0u8; 8];
    for w in &mut words {
        r.read_exact(&mut buf)?;
        *w = u64::from_le_bytes(buf);
    }
    let mut file_ids = vec![0u64; header.files as usize];
    for id in &mut file_ids {
        r.read_exact(&mut buf)?;
        *id = u64::from_le_bytes(buf);
    }
    for rec in words.chunks_exact(RECORD_WORDS) {
        validate_record(rec, file_ids.len() as u64)?;
    }
    Ok(OpStream::from_parts(header.name, words, file_ids))
}

/// Checks one encoded record against the file-table size.
fn validate_record(w: &[u64], files: u64) -> io::Result<()> {
    let kind = w[1] >> 32;
    if !kind_code_valid(kind) {
        return Err(corrupt(format!("unknown kind code {kind}")));
    }
    let idx = w[1] & u64::from(u32::MAX);
    let needs_file = kind != 5; // sync carries NO_FILE
    if needs_file && idx >= files {
        return Err(corrupt(format!("file index {idx} out of range ({files})")));
    }
    if kind == 7 && w[2] >= files {
        return Err(corrupt(format!("rename target {} out of range", w[2])));
    }
    Ok(())
}

/// Streams records out of a `.ops` file through a fixed buffer: after
/// [`Self::open`], [`Self::next_record`] performs no heap allocation, so
/// million-op replays hold only the file table and one record in memory.
#[derive(Debug)]
pub struct OpStreamFileReader {
    r: io::BufReader<fs::File>,
    header: StreamHeader,
    file_ids: Vec<FileId>,
    remaining: u64,
}

impl OpStreamFileReader {
    /// Opens the file, reads the header, and loads the file table from
    /// the trailer (one seek there and back).
    ///
    /// # Errors
    ///
    /// Filesystem errors or a malformed container.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut r = io::BufReader::new(fs::File::open(path)?);
        let header = read_header(&mut r)?;
        let records_start = HEADER_BYTES + header.name.len() as u64;
        let table_start = records_start + header.records * RECORD_BYTES as u64;
        r.seek(SeekFrom::Start(table_start))?;
        let mut file_ids = vec![0u64; header.files as usize];
        let mut buf = [0u8; 8];
        for id in &mut file_ids {
            r.read_exact(&mut buf)?;
            *id = u64::from_le_bytes(buf);
        }
        r.seek(SeekFrom::Start(records_start))?;
        Ok(OpStreamFileReader {
            r,
            remaining: header.records,
            header,
            file_ids,
        })
    }

    /// The container header.
    pub fn header(&self) -> &StreamHeader {
        &self.header
    }

    /// Records not yet read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Reads and decodes the next record, `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Filesystem errors or a corrupt record.
    // lint: hot-path
    pub fn next_record(&mut self) -> io::Result<Option<TraceRecord>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut buf = [0u8; RECORD_BYTES];
        self.r.read_exact(&mut buf)?;
        let mut words = [0u64; RECORD_WORDS];
        for (word, chunk) in words.iter_mut().zip(buf.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        }
        validate_record(&words, self.file_ids.len() as u64)?;
        self.remaining -= 1;
        Ok(Some(crate::stream::decode_record(
            &words,
            &self.file_ids,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, Workload};

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ssmc-opstream-{tag}-{}.ops", std::process::id()))
    }

    #[test]
    fn stream_save_load_round_trip() {
        let trace = GeneratorConfig::new(Workload::Bsd).with_ops(2_000).generate();
        let stream = OpStream::compile(&trace);
        let path = temp("roundtrip");
        let summary = save_stream(&stream, &path).expect("save");
        assert_eq!(summary.records, trace.len() as u64);
        assert_eq!(summary.files, stream.file_count() as u64);

        let header = read_stream_header(&path).expect("header");
        assert_eq!(header.name, trace.name);
        assert_eq!(header.version, STREAM_VERSION);
        assert_eq!(header.records, trace.len() as u64);

        let back = load_stream(&path).expect("load");
        assert_eq!(back.name(), trace.name);
        assert_eq!(back.decompile().records, trace.records);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn writer_streams_without_a_trace() {
        // The generator sink path pushes records one by one; the sealed
        // file must equal compiling the equivalent in-memory trace.
        let trace = GeneratorConfig::new(Workload::Database)
            .with_ops(1_000)
            .generate();
        let path = temp("writer");
        let mut w = OpStreamWriter::create(&path, &trace.name).expect("create");
        for r in &trace.records {
            w.push(r.at, &r.op).expect("push");
        }
        assert_eq!(w.records(), trace.len() as u64);
        w.finish().expect("finish");

        let mut reader = OpStreamFileReader::open(&path).expect("open");
        assert_eq!(reader.header().name, trace.name);
        assert_eq!(reader.remaining(), trace.len() as u64);
        for (i, r) in trace.records.iter().enumerate() {
            let got = reader.next_record().expect("read").expect("record");
            assert_eq!(&got, r, "record {i}");
        }
        assert!(reader.next_record().expect("eof").is_none());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_streams_fail_to_load() {
        let path = temp("corrupt");

        // Bad magic.
        fs::write(&path, b"NOTMAGIC").expect("write");
        assert!(load_stream(&path).is_err());

        // Bad version.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STREAM_MAGIC);
        bytes.extend_from_slice(&99u16.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 22]);
        fs::write(&path, &bytes).expect("write");
        assert!(load_stream(&path).is_err());

        // Valid header, record with an unknown kind code.
        let trace = GeneratorConfig::new(Workload::Office).with_ops(10).generate();
        save_stream(&OpStream::compile(&trace), &path).expect("save");
        let mut bytes = fs::read(&path).expect("read");
        let first_record = (HEADER_BYTES as usize) + trace.name.len();
        // Word 1 of the first record: set kind bits to 8 (invalid).
        bytes[first_record + 8..first_record + 16]
            .copy_from_slice(&(8u64 << 32).to_le_bytes());
        fs::write(&path, &bytes).expect("write");
        assert!(load_stream(&path).is_err());
        let mut reader = OpStreamFileReader::open(&path).expect("open");
        assert!(reader.next_record().is_err(), "reader validates records too");

        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_stream_errors_cleanly() {
        let trace = GeneratorConfig::new(Workload::Office).with_ops(50).generate();
        let path = temp("truncated");
        save_stream(&OpStream::compile(&trace), &path).expect("save");
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("write");
        assert!(load_stream(&path).is_err());
        let _ = fs::remove_file(&path);
    }
}

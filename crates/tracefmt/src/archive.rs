//! On-disk trace archives.
//!
//! Real tracing tools store one file per process (rank-local buffers are
//! flushed independently — paper §III) plus a global metadata file; Scalasca
//! and OTF both follow this layout. [`write_archive`] / [`read_archive`]
//! implement the same structure:
//!
//! ```text
//! <dir>/metadata.txt      # version, timeline count, locations
//! <dir>/timeline_<k>.dtc  # binary event stream of timeline k
//! ```
//!
//! Each timeline file is a complete `DTC3` stream of [`crate::io`] holding
//! that one timeline, so the archive inherits the codec's round-trip and
//! truncation-detection guarantees and any of its readers opens a file.

use crate::io::{encode_timeline, from_binary_columnar, CodecError};
use crate::trace::{ProcessTrace, Trace};
use std::fs;
use std::path::Path;

/// Archive format version tag. Version 1 stored each timeline as a `DTL1`
/// record stream, a codec that no longer exists; such directories are
/// refused by their metadata, not misread.
const VERSION: u32 = 2;

/// Errors while reading or writing an archive.
#[derive(Debug)]
pub enum ArchiveError {
    /// Filesystem error.
    Io(std::io::Error),
    /// A timeline file failed to decode.
    Codec(usize, CodecError),
    /// Metadata malformed or inconsistent with the timeline files.
    BadMetadata(String),
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "io error: {e}"),
            ArchiveError::Codec(k, e) => write!(f, "timeline {k}: {e}"),
            ArchiveError::BadMetadata(s) => write!(f, "bad metadata: {s}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

/// Write `trace` as an archive directory (created if missing; existing
/// timeline files are overwritten).
pub fn write_archive(dir: &Path, trace: &Trace) -> Result<(), ArchiveError> {
    fs::create_dir_all(dir)?;
    let mut meta = String::new();
    meta.push_str(&format!("version {VERSION}\n"));
    meta.push_str(&format!("timelines {}\n", trace.n_procs()));
    for (k, pt) in trace.procs.iter().enumerate() {
        meta.push_str(&format!(
            "timeline {k} rank {} thread {} events {}\n",
            pt.location.rank.0,
            pt.location.thread.0,
            pt.events.len()
        ));
        let bytes = encode_timeline(pt.location, &pt.events);
        fs::write(dir.join(format!("timeline_{k}.dtc")), bytes)?;
    }
    fs::write(dir.join("metadata.txt"), meta)?;
    Ok(())
}

/// Read an archive directory back into a trace. Timeline order follows the
/// metadata.
pub fn read_archive(dir: &Path) -> Result<Trace, ArchiveError> {
    let meta = fs::read_to_string(dir.join("metadata.txt"))?;
    let mut lines = meta.lines();
    let version = lines
        .next()
        .and_then(|l| l.strip_prefix("version "))
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or_else(|| ArchiveError::BadMetadata("missing version".into()))?;
    if version != VERSION {
        return Err(ArchiveError::BadMetadata(format!(
            "unsupported version {version}"
        )));
    }
    let n: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("timelines "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ArchiveError::BadMetadata("missing timeline count".into()))?;

    let mut procs: Vec<ProcessTrace> = Vec::with_capacity(n);
    for (k, line) in lines.enumerate() {
        if k >= n {
            break;
        }
        // `timeline <k> rank <r> thread <t> events <e>`
        let fields: Vec<&str> = line.split_ascii_whitespace().collect();
        if fields.len() != 8 || fields[0] != "timeline" {
            return Err(ArchiveError::BadMetadata(format!("line {k}: {line:?}")));
        }
        let declared_events: usize = fields[7]
            .parse()
            .map_err(|_| ArchiveError::BadMetadata(format!("line {k}: bad event count")))?;
        let buf = fs::read(dir.join(format!("timeline_{k}.dtc")))?;
        let single =
            from_binary_columnar(buf.into()).map_err(|e| ArchiveError::Codec(k, e))?;
        let pt = single
            .procs
            .into_iter()
            .next()
            .ok_or_else(|| ArchiveError::BadMetadata(format!("timeline {k} empty file")))?;
        if pt.events.len() != declared_events {
            return Err(ArchiveError::BadMetadata(format!(
                "timeline {k}: metadata says {declared_events} events, file has {}",
                pt.events.len()
            )));
        }
        procs.push(pt);
    }
    if procs.len() != n {
        return Err(ArchiveError::BadMetadata(format!(
            "metadata declares {n} timelines, found {}",
            procs.len()
        )));
    }
    Ok(Trace { procs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::ids::{Rank, RegionId, Tag};
    use simclock::Time;

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "drift-lab-archive-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> Trace {
        let mut t = Trace::for_ranks(3);
        for p in 0..3u32 {
            t.procs[p as usize].push(
                Time::from_us(p as i64),
                EventKind::Enter { region: RegionId(p) },
            );
            t.procs[p as usize].push(
                Time::from_us(10 + p as i64),
                EventKind::Send { to: Rank((p + 1) % 3), tag: Tag(0), bytes: 64 },
            );
        }
        t
    }

    #[test]
    fn round_trip() {
        let dir = scratch_dir("roundtrip");
        let t = sample();
        write_archive(&dir, &t).unwrap();
        let back = read_archive(&dir).unwrap();
        assert_eq!(back.n_procs(), 3);
        for p in 0..3 {
            assert_eq!(back.procs[p].location, t.procs[p].location);
            assert_eq!(back.procs[p].events, t.procs[p].events);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn layout_is_one_file_per_timeline() {
        let dir = scratch_dir("layout");
        write_archive(&dir, &sample()).unwrap();
        assert!(dir.join("metadata.txt").exists());
        for k in 0..3 {
            assert!(dir.join(format!("timeline_{k}.dtc")).exists());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_timeline_detected() {
        let dir = scratch_dir("corrupt");
        write_archive(&dir, &sample()).unwrap();
        // Truncate one timeline file.
        let path = dir.join("timeline_1.dtc");
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() / 2]).unwrap();
        let err = read_archive(&dir).unwrap_err();
        assert!(matches!(err, ArchiveError::Codec(1, _)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inconsistent_metadata_detected() {
        let dir = scratch_dir("meta");
        write_archive(&dir, &sample()).unwrap();
        let meta = fs::read_to_string(dir.join("metadata.txt")).unwrap();
        let tampered = meta.replace("events 2", "events 99");
        fs::write(dir.join("metadata.txt"), tampered).unwrap();
        let err = read_archive(&dir).unwrap_err();
        assert!(matches!(err, ArchiveError::BadMetadata(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_directories_are_refused_by_their_metadata() {
        let dir = scratch_dir("v1");
        write_archive(&dir, &sample()).unwrap();
        let meta = fs::read_to_string(dir.join("metadata.txt")).unwrap();
        fs::write(dir.join("metadata.txt"), meta.replace("version 2", "version 1")).unwrap();
        match read_archive(&dir).unwrap_err() {
            ArchiveError::BadMetadata(why) => assert_eq!(why, "unsupported version 1"),
            other => panic!("want BadMetadata, got {other}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_timelines_survive() {
        let dir = scratch_dir("empty");
        let mut t = sample();
        t.procs[1].events.clear();
        write_archive(&dir, &t).unwrap();
        let back = read_archive(&dir).unwrap();
        assert_eq!(back.procs[1].location, t.procs[1].location);
        assert!(back.procs[1].events.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_io_error() {
        let err = read_archive(Path::new("/nonexistent/drift-lab")).unwrap_err();
        assert!(matches!(err, ArchiveError::Io(_)));
    }
}

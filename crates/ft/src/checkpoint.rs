//! Checkpoint data model and storage backends.
//!
//! The paper's checkpoint service is "a simple service for storing
//! checkpointing data … functions to store/retrieve arbitrary values",
//! with "no real persistency like storing checkpoints on disk media"
//! ([`MemBackend`]). The disk persistence the paper lists as future work
//! is implemented too ([`DiskBackend`]).

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

use cdr::Any;

pub use crate::protocol::Checkpoint;

/// Storage backend for the checkpoint service.
pub trait Backend {
    /// Store (replace) the bulk checkpoint for an object.
    fn store(&mut self, ckpt: Checkpoint) -> io::Result<()>;
    /// Fetch the bulk checkpoint for an object.
    fn retrieve(&mut self, object_id: &str) -> io::Result<Option<Checkpoint>>;
    /// Delete everything stored for an object (bulk and values). Returns
    /// whether anything was deleted.
    fn delete(&mut self, object_id: &str) -> io::Result<bool>;
    /// All object ids with a bulk checkpoint, sorted.
    fn list(&mut self) -> io::Result<Vec<String>>;
    /// Store one named value for an object (the paper's proof-of-concept
    /// interface).
    fn store_value(&mut self, object_id: &str, key: &str, value: Any) -> io::Result<()>;
    /// Fetch one named value.
    fn retrieve_value(&mut self, object_id: &str, key: &str) -> io::Result<Option<Any>>;
    /// Number of values stored for an object.
    fn value_count(&mut self, object_id: &str) -> io::Result<u32>;
}

/// The paper's in-memory proof-of-concept store.
#[derive(Default)]
pub struct MemBackend {
    bulk: BTreeMap<String, Checkpoint>,
    values: BTreeMap<String, BTreeMap<String, Any>>,
}

impl MemBackend {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Backend for MemBackend {
    fn store(&mut self, ckpt: Checkpoint) -> io::Result<()> {
        self.bulk.insert(ckpt.object_id.clone(), ckpt);
        Ok(())
    }

    fn retrieve(&mut self, object_id: &str) -> io::Result<Option<Checkpoint>> {
        Ok(self.bulk.get(object_id).cloned())
    }

    fn delete(&mut self, object_id: &str) -> io::Result<bool> {
        let a = self.bulk.remove(object_id).is_some();
        let b = self.values.remove(object_id).is_some();
        Ok(a || b)
    }

    fn list(&mut self) -> io::Result<Vec<String>> {
        let mut ids: Vec<String> = self.bulk.keys().cloned().collect();
        ids.sort();
        Ok(ids)
    }

    fn store_value(&mut self, object_id: &str, key: &str, value: Any) -> io::Result<()> {
        self.values
            .entry(object_id.to_string())
            .or_default()
            .insert(key.to_string(), value);
        Ok(())
    }

    fn retrieve_value(&mut self, object_id: &str, key: &str) -> io::Result<Option<Any>> {
        Ok(self.values.get(object_id).and_then(|m| m.get(key)).cloned())
    }

    fn value_count(&mut self, object_id: &str) -> io::Result<u32> {
        Ok(self.values.get(object_id).map_or(0, |m| m.len() as u32))
    }
}

/// Magic prefix of a framed on-disk checkpoint record.
const DISK_MAGIC: &[u8; 4] = b"LDFT";

/// FNV-1a 64-bit: the frame checksum. Not cryptographic — it only has to
/// catch torn writes and bit rot, deterministically and dependency-free.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Frame a payload: magic + big-endian length + payload + checksum.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(DISK_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_be_bytes());
    out
}

fn torn(why: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("torn or corrupt checkpoint record: {why}"),
    )
}

/// Validate a frame and return the payload, rejecting torn/partial or
/// bit-flipped records.
fn unframe(bytes: &[u8]) -> io::Result<&[u8]> {
    if bytes.len() < 16 {
        return Err(torn("short frame"));
    }
    if &bytes[..4] != DISK_MAGIC {
        return Err(torn("bad magic"));
    }
    let len = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    if bytes.len() != 8 + len + 8 {
        return Err(torn("length mismatch"));
    }
    let payload = &bytes[8..8 + len];
    let want = u64::from_be_bytes(
        bytes[8 + len..]
            .try_into()
            .map_err(|_| torn("short frame"))?,
    );
    if fnv1a64(payload) != want {
        return Err(torn("checksum mismatch"));
    }
    Ok(payload)
}

/// Disk-backed store: one file per object under a spool directory
/// (CDR-encoded), values in a sibling file. Implements the persistence
/// the paper deferred to future work.
///
/// Durability: each record is written framed (magic, length, FNV-1a
/// checksum) to a temp file which is `fsync`ed *before* the rename into
/// place, and the directory is `fsync`ed after — so a crash leaves either
/// the old record or the new one, never a torn hybrid, and any partial
/// or bit-flipped record is rejected on load instead of deserializing by
/// luck.
pub struct DiskBackend {
    dir: PathBuf,
}

impl DiskBackend {
    /// Open (creating) a spool directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskBackend { dir })
    }

    /// Write a framed record atomically and durably: temp file, fsync,
    /// rename, directory fsync.
    fn write_atomic(&self, path: &PathBuf, payload: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            io::Write::write_all(&mut f, &frame(payload))?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable.
        std::fs::File::open(&self.dir)?.sync_all()
    }

    /// Read a framed record; `None` if absent, `InvalidData` if torn.
    fn read_framed(&self, path: &PathBuf) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(path) {
            Ok(bytes) => unframe(&bytes).map(|p| Some(p.to_vec())),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn sanitize(object_id: &str) -> String {
        object_id
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect()
    }

    fn bulk_path(&self, object_id: &str) -> PathBuf {
        self.dir.join(format!("{}.ckpt", Self::sanitize(object_id)))
    }

    fn values_path(&self, object_id: &str) -> PathBuf {
        self.dir
            .join(format!("{}.values", Self::sanitize(object_id)))
    }

    fn load_values(&self, object_id: &str) -> io::Result<Vec<(String, Any)>> {
        match self.read_framed(&self.values_path(object_id))? {
            Some(payload) => cdr::from_bytes(&payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            None => Ok(Vec::new()),
        }
    }

    fn save_values(&self, object_id: &str, values: &Vec<(String, Any)>) -> io::Result<()> {
        self.write_atomic(&self.values_path(object_id), &cdr::to_bytes(values))
    }
}

impl Backend for DiskBackend {
    fn store(&mut self, ckpt: Checkpoint) -> io::Result<()> {
        self.write_atomic(&self.bulk_path(&ckpt.object_id), &cdr::to_bytes(&ckpt))
    }

    fn retrieve(&mut self, object_id: &str) -> io::Result<Option<Checkpoint>> {
        match self.read_framed(&self.bulk_path(object_id))? {
            Some(payload) => cdr::from_bytes(&payload)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            None => Ok(None),
        }
    }

    fn delete(&mut self, object_id: &str) -> io::Result<bool> {
        let mut any = false;
        for path in [self.bulk_path(object_id), self.values_path(object_id)] {
            match std::fs::remove_file(path) {
                Ok(()) => any = true,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(any)
    }

    fn list(&mut self) -> io::Result<Vec<String>> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".ckpt") {
                // Recover the original id from the file: read it.
                if let Ok(Some(c)) = self.retrieve(stem) {
                    ids.push(c.object_id);
                } else {
                    ids.push(stem.to_string());
                }
            }
        }
        ids.sort();
        Ok(ids)
    }

    fn store_value(&mut self, object_id: &str, key: &str, value: Any) -> io::Result<()> {
        let mut values = self.load_values(object_id)?;
        match values.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => values.push((key.to_string(), value)),
        }
        self.save_values(object_id, &values)
    }

    fn retrieve_value(&mut self, object_id: &str, key: &str) -> io::Result<Option<Any>> {
        Ok(self
            .load_values(object_id)?
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v))
    }

    fn value_count(&mut self, object_id: &str) -> io::Result<u32> {
        Ok(self.load_values(object_id)?.len() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdr::Epoch;

    fn ckpt(id: &str, epoch: u64) -> Checkpoint {
        Checkpoint {
            object_id: id.to_string(),
            epoch: Epoch(epoch),
            state: vec![1, 2, 3],
            stamp_ns: 99,
        }
    }

    fn exercise(backend: &mut dyn Backend) {
        assert!(backend.retrieve("w1").unwrap().is_none());
        backend.store(ckpt("w1", 1)).unwrap();
        backend.store(ckpt("w2", 1)).unwrap();
        backend.store(ckpt("w1", 2)).unwrap(); // replace
        let got = backend.retrieve("w1").unwrap().unwrap();
        assert_eq!(got.epoch, Epoch(2));
        assert_eq!(backend.list().unwrap(), vec!["w1", "w2"]);

        backend.store_value("w1", "x0", Any::double(1.5)).unwrap();
        backend.store_value("w1", "x1", Any::double(2.5)).unwrap();
        backend.store_value("w1", "x0", Any::double(9.0)).unwrap(); // replace
        assert_eq!(backend.value_count("w1").unwrap(), 2);
        assert_eq!(
            backend.retrieve_value("w1", "x0").unwrap().unwrap(),
            Any::double(9.0)
        );
        assert!(backend.retrieve_value("w1", "nope").unwrap().is_none());

        assert!(backend.delete("w1").unwrap());
        assert!(!backend.delete("w1").unwrap());
        assert!(backend.retrieve("w1").unwrap().is_none());
        assert_eq!(backend.value_count("w1").unwrap(), 0);
        assert_eq!(backend.list().unwrap(), vec!["w2"]);
    }

    #[test]
    fn mem_backend_contract() {
        exercise(&mut MemBackend::new());
    }

    #[test]
    fn disk_backend_contract() {
        let dir = std::env::temp_dir().join(format!("ftproxy-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise(&mut DiskBackend::new(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_backend_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("ftproxy-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut b = DiskBackend::new(&dir).unwrap();
            b.store(ckpt("svc/1", 7)).unwrap();
        }
        {
            let mut b = DiskBackend::new(&dir).unwrap();
            let got = b.retrieve("svc/1").unwrap().unwrap();
            assert_eq!(got.epoch, Epoch(7));
            assert_eq!(got.object_id, "svc/1");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_backend_rejects_torn_and_corrupt_records() {
        let dir = std::env::temp_dir().join(format!("ftproxy-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut b = DiskBackend::new(&dir).unwrap();
        b.store(ckpt("w1", 5)).unwrap();
        let path = b.bulk_path("w1");
        let good = std::fs::read(&path).unwrap();

        // Torn write: a prefix of the record (crash mid-write).
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        let e = b.retrieve("w1").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");

        // Bit rot inside the payload: checksum must catch it.
        let mut flipped = good.clone();
        flipped[10] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let e = b.retrieve("w1").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");

        // A pre-framing legacy file (raw CDR, no magic) is also rejected.
        std::fs::write(&path, cdr::to_bytes(&ckpt("w1", 5))).unwrap();
        let e = b.retrieve("w1").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");

        // The intact frame still reads back.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(b.retrieve("w1").unwrap().unwrap().epoch, Epoch(5));

        // Same validation on the values file.
        b.store_value("w1", "x0", Any::double(1.0)).unwrap();
        let vpath = b.values_path("w1");
        let vgood = std::fs::read(&vpath).unwrap();
        std::fs::write(&vpath, &vgood[..vgood.len() - 3]).unwrap();
        let e = b.retrieve_value("w1", "x0").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_cdr_round_trip() {
        let c = ckpt("a", 3);
        let back: Checkpoint = cdr::from_bytes(&cdr::to_bytes(&c)).unwrap();
        assert_eq!(c, back);
    }
}

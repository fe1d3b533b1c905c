//! The torn-write chaos harness: every on-disk state a crash (or bit rot)
//! can leave while [`Checkpointer::checkpoint`] replaces one snapshot with
//! the next, as concrete files a recovery can be run against.

use std::io;

use warpgate::prelude::Checkpointer;
use warpgate::util::atomic_file::temp_sibling;

/// One concrete on-disk state a crash (or bit rot) can leave behind.
///
/// `None` means the file does not exist in this state. Materializing a
/// state writes/removes the three generation files of a checkpointer so
/// recovery can be exercised against it.
#[derive(Debug, Clone)]
pub struct CrashState {
    /// Human-readable provenance, for assertion messages.
    pub label: String,
    /// Contents of `<path>` in this state.
    pub primary: Option<Vec<u8>>,
    /// Contents of `<path>.prev` in this state.
    pub previous: Option<Vec<u8>>,
    /// Contents of `<path>.tmp` in this state.
    pub temp: Option<Vec<u8>>,
}

impl CrashState {
    /// Write this state's files where `ckpt` keeps its generations
    /// (removing files the state says are absent).
    pub fn materialize(&self, ckpt: &Checkpointer) -> io::Result<()> {
        let files = [
            (ckpt.path().to_path_buf(), &self.primary),
            (ckpt.previous_path(), &self.previous),
            (temp_sibling(ckpt.path()), &self.temp),
        ];
        for (path, contents) in files {
            match contents {
                Some(bytes) => std::fs::write(&path, bytes)?,
                None => match std::fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                },
            }
        }
        Ok(())
    }
}

/// Deterministic torn-write enumerator: every on-disk state a crash can
/// leave while [`Checkpointer::checkpoint`] replaces `old` with `new`.
///
/// The rotation has exactly three classes of interruption point, all
/// enumerated by [`TornWriter::crash_states`]:
///
/// * **during the temp write** — one state per byte prefix of `new`
///   (including the empty prefix): the temp holds `new[..k]`, the
///   published generations are untouched;
/// * **between the two renames** — the newest name is momentarily absent,
///   `.prev` holds `old`, the temp holds all of `new`;
/// * **after completion** — `<path>` = `new`, `.prev` = `old`.
///
/// [`TornWriter::bit_flip_states`] separately yields the completed state
/// with every single bit of the newest generation flipped — the media-rot
/// cases where the checksums, not write atomicity, are the defense.
#[derive(Debug, Clone)]
pub struct TornWriter {
    old: Option<Vec<u8>>,
    new: Vec<u8>,
}

impl TornWriter {
    /// A replayable checkpoint that overwrites `old` (the currently
    /// published snapshot, if any) with `new`.
    pub fn new(old: Option<Vec<u8>>, new: Vec<u8>) -> Self {
        Self { old, new }
    }

    /// Every crash-interruption state of the rotation, in write order.
    pub fn crash_states(&self) -> Vec<CrashState> {
        let mut states = Vec::with_capacity(self.new.len() + 3);
        for k in 0..=self.new.len() {
            states.push(CrashState {
                label: format!("crash after {k}/{} temp bytes", self.new.len()),
                primary: self.old.clone(),
                previous: None,
                temp: Some(self.new[..k].to_vec()),
            });
        }
        if self.old.is_some() {
            states.push(CrashState {
                label: "crash between demote and promote renames".into(),
                primary: None,
                previous: self.old.clone(),
                temp: Some(self.new.clone()),
            });
        }
        states.push(CrashState {
            label: "completed rotation".into(),
            primary: Some(self.new.clone()),
            previous: self.old.clone(),
            temp: None,
        });
        states
    }

    /// The completed rotation with bit `bit` of byte `offset` of the
    /// newest generation flipped, for every byte offset — one flipped bit
    /// per byte keeps the sweep linear while still touching every byte of
    /// the image (preamble, blocks, directory, trailer).
    pub fn bit_flip_states(&self) -> Vec<CrashState> {
        (0..self.new.len())
            .map(|offset| {
                let mut flipped = self.new.clone();
                flipped[offset] ^= 1 << (offset % 8);
                CrashState {
                    label: format!("bit {} of byte {offset} flipped", offset % 8),
                    primary: Some(flipped),
                    previous: self.old.clone(),
                    temp: None,
                }
            })
            .collect()
    }
}

#[test]
fn crash_states_enumerate_every_offset() {
    let torn = TornWriter::new(Some(b"old".to_vec()), b"newer".to_vec());
    let states = torn.crash_states();
    // 6 prefixes (0..=5) + between-renames + completed.
    assert_eq!(states.len(), 8);
    assert!(states[..6].iter().all(|s| s.primary.as_deref() == Some(b"old" as &[u8])));
    let between = &states[6];
    assert!(between.primary.is_none());
    assert_eq!(between.previous.as_deref(), Some(b"old" as &[u8]));
    assert_eq!(between.temp.as_deref(), Some(b"newer" as &[u8]));
    let done = &states[7];
    assert_eq!(done.primary.as_deref(), Some(b"newer" as &[u8]));
    assert_eq!(done.previous.as_deref(), Some(b"old" as &[u8]));

    // First-ever checkpoint: no old generation, no between-renames
    // state (there is nothing to demote).
    let first = TornWriter::new(None, b"new".to_vec());
    assert_eq!(first.crash_states().len(), 5);
}

#[test]
fn bit_flip_states_touch_every_byte() {
    let torn = TornWriter::new(None, vec![0u8; 16]);
    let flips = torn.bit_flip_states();
    assert_eq!(flips.len(), 16);
    for (i, s) in flips.iter().enumerate() {
        let p = s.primary.as_ref().unwrap();
        assert_eq!(p[i], 1 << (i % 8), "exactly one bit of byte {i} flipped");
        assert_eq!(p.iter().filter(|&&b| b != 0).count(), 1);
    }
}

#[test]
fn materialize_round_trips_states() {
    let dir = super::tmp_dir("materialize");
    let ckpt = Checkpointer::new(dir.join("snapshot.bin"));
    let path = ckpt.path();
    let state = CrashState {
        label: "test".into(),
        primary: Some(b"p".to_vec()),
        previous: None,
        temp: Some(b"t".to_vec()),
    };
    state.materialize(&ckpt).unwrap();
    assert_eq!(std::fs::read(path).unwrap(), b"p");
    assert!(!ckpt.previous_path().exists());
    assert_eq!(std::fs::read(temp_sibling(path)).unwrap(), b"t");

    // Re-materializing a different state removes what it declares absent.
    let gone = CrashState { label: "gone".into(), primary: None, previous: None, temp: None };
    gone.materialize(&ckpt).unwrap();
    assert!(!path.exists() && !temp_sibling(path).exists());
    std::fs::remove_dir_all(&dir).ok();
}

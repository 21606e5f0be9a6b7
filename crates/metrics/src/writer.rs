//! Background snapshot writer: one JSON line per interval to a `.jsonl`
//! file (e.g. `metrics.jsonl`).
//!
//! The writer owns a thread that sleeps on a `Condvar` with a timeout —
//! never a busy loop — takes a registry snapshot each tick, and appends it
//! as one line. [`stop`](SnapshotWriter::stop) (or drop) wakes the thread,
//! writes one final snapshot so short runs still produce a record, and
//! joins. All I/O happens on the writer thread; the serving hot path never
//! sees it.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::registry::MetricsRegistry;

struct Control {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// A handle to the background snapshot thread. Stop it explicitly with
/// [`stop`](SnapshotWriter::stop) to observe write errors; dropping stops
/// it silently.
pub struct SnapshotWriter {
    control: Arc<Control>,
    handle: Option<JoinHandle<std::io::Result<()>>>,
    path: PathBuf,
}

impl std::fmt::Debug for SnapshotWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotWriter")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl SnapshotWriter {
    /// Spawns the writer thread appending to `path` every `interval`.
    /// Truncates any previous file so each run starts a fresh series.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created (parent directories are created
    /// as needed).
    pub fn spawn(
        registry: Arc<MetricsRegistry>,
        path: impl AsRef<Path>,
        interval: Duration,
    ) -> std::io::Result<SnapshotWriter> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        let control = Arc::new(Control {
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let thread_control = Arc::clone(&control);
        let handle = std::thread::Builder::new()
            .name("metrics-snapshot".into())
            .spawn(move || run(registry, file, thread_control, interval))?;
        Ok(SnapshotWriter {
            control,
            handle: Some(handle),
            path,
        })
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stops the thread, waits for the final snapshot line, and reports any
    /// write error the thread hit.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error the writer thread encountered.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.signal_stop();
        match self.handle.take() {
            Some(handle) => match handle.join() {
                Ok(result) => result,
                Err(_) => Err(std::io::Error::other("snapshot writer thread panicked")),
            },
            None => Ok(()),
        }
    }

    fn signal_stop(&self) {
        let mut stop = self
            .control
            .stop
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *stop = true;
        self.control.wake.notify_all();
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        self.signal_stop();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn run(
    registry: Arc<MetricsRegistry>,
    file: File,
    control: Arc<Control>,
    interval: Duration,
) -> std::io::Result<()> {
    let mut out = BufWriter::new(file);
    loop {
        let stopped = {
            let guard = control.stop.lock().unwrap_or_else(PoisonError::into_inner);
            if *guard {
                true
            } else {
                let (guard, _timeout) = control
                    .wake
                    .wait_timeout(guard, interval)
                    .unwrap_or_else(PoisonError::into_inner);
                *guard
            }
        };
        writeln!(out, "{}", registry.snapshot().to_json())?;
        out.flush()?;
        if stopped {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;

    #[test]
    fn writer_appends_parseable_lines_and_final_snapshot() {
        let dir = std::env::temp_dir().join(format!(
            "stepping-metrics-writer-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("serve.metrics.jsonl");
        let registry = Arc::new(MetricsRegistry::new());
        let counter = registry.register_counter("serve.cache_hit");
        let writer = SnapshotWriter::spawn(Arc::clone(&registry), &path, Duration::from_millis(5))
            .expect("spawn writer");
        counter.add(3);
        std::thread::sleep(Duration::from_millis(25));
        writer.stop().expect("writer thread");

        let text = std::fs::read_to_string(&path).expect("read jsonl");
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty(), "at least the final snapshot is written");
        let mut last_seq = None;
        for line in &lines {
            let snap = Snapshot::parse_json(line).expect("each line parses");
            if let Some(prev) = last_seq {
                assert!(snap.seq > prev, "sequence numbers increase");
            }
            last_seq = Some(snap.seq);
        }
        let final_snap = Snapshot::parse_json(lines[lines.len() - 1]).unwrap();
        if crate::enabled() {
            assert_eq!(final_snap.counter("serve.cache_hit"), Some(3));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

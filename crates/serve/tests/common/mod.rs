//! Shared by the blocking server-level suites.

use std::sync::mpsc;
use std::time::Duration;

/// Runs a blocking test body on a thread of its own and fails the test if
/// it is still running after a minute: a lost ticket or a lost wake-up
/// must fail in seconds, not hang the run.
pub fn watchdog(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let body = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("still blocked after a minute"),
        // the body panicked: fail with its message
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(panic) = body.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

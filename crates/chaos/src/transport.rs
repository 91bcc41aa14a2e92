//! Fault delivery: a [`Transport`] wrapper that shims the connection.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use firm_fleet::transport::{Connection, ConnectionControl, Transport};
use firm_obs::Level;

use crate::plan::{FaultKind, FaultPlan};

/// Event target for everything the chaos layer emits.
const TARGET: &str = "firm-chaos";

/// A [`Transport`] that delivers a [`FaultPlan`]: each connection it
/// opens is wrapped so the scheduled fault for that generation fires
/// at its planned frame. Clean generations pass through unshimmed.
///
/// The wrapper sits on the *coordinator's* side of the link, so it
/// works identically over pipes and sockets, and the worker stays
/// honest — it sees a broken link exactly as it would in production.
pub struct ChaosTransport {
    inner: Box<dyn Transport>,
    plan: FaultPlan,
    generation: u64,
    injected: Arc<AtomicU64>,
}

impl ChaosTransport {
    /// Wraps `inner` so its connections suffer `plan`.
    pub fn new(inner: Box<dyn Transport>, plan: FaultPlan) -> ChaosTransport {
        ChaosTransport {
            inner,
            plan,
            generation: 0,
            injected: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The plan this transport delivers.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// A live count of faults that have actually *fired* (not merely
    /// been scheduled) across every generation of this transport.
    /// Clone it before handing the transport to a pool; tests assert
    /// on it afterwards.
    pub fn injection_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.injected)
    }
}

impl Transport for ChaosTransport {
    fn label(&self) -> String {
        format!("chaos:{}", self.inner.label())
    }

    fn connect(&mut self) -> io::Result<Connection> {
        let conn = self.inner.connect()?;
        let generation = self.generation;
        self.generation += 1;
        let Some(fault) = self.plan.fault_for_generation(generation) else {
            return Ok(conn);
        };
        firm_obs::event(Level::Debug, TARGET)
            .msg("fault armed")
            .field("transport", self.label())
            .field("generation", generation)
            .field("fault", format!("{fault:?}"))
            .emit();
        Ok(arm(conn, fault, Arc::clone(&self.injected)))
    }
}

/// Rewraps a connection so `fault` fires at its planned frame.
fn arm(conn: Connection, fault: FaultKind, injected: Arc<AtomicU64>) -> Connection {
    let control = Arc::new(Mutex::new(conn.control));
    let state = Arc::new(ChaosState {
        fault,
        tripped: AtomicBool::new(false),
        injected,
        control: Arc::clone(&control),
    });
    Connection {
        writer: Box::new(ChaosWriter {
            inner: conn.writer,
            state: Arc::clone(&state),
            frames: 0,
        }),
        reader: Box::new(BufReader::new(ChaosReader {
            inner: conn.reader,
            state,
            frames: 0,
            buf: Vec::new(),
            pos: 0,
            eof: false,
        })),
        control: Box::new(ChaosControl { control }),
    }
}

/// Shared between a connection's writer and reader shims: the fault,
/// whether it fired, and a killable handle on the real control (the
/// writer shim kills the inner connection so a planned crash becomes
/// promptly visible to the supervisor's reader thread).
struct ChaosState {
    fault: FaultKind,
    tripped: AtomicBool,
    injected: Arc<AtomicU64>,
    control: Arc<Mutex<Box<dyn ConnectionControl>>>,
}

impl ChaosState {
    /// Records the fault as fired (once per connection): bumps the
    /// transport's counter and `chaos.injected.<kind>`, emits an
    /// event. Returns whether this call was the first.
    fn trip(&self) -> bool {
        if self.tripped.swap(true, Ordering::Relaxed) {
            return false;
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        firm_obs::metrics()
            .counter(&format!("chaos.injected.{}", self.fault.name()))
            .inc();
        firm_obs::event(Level::Warn, TARGET)
            .msg("fault injected")
            .field("fault", format!("{:?}", self.fault))
            .emit();
        true
    }

    fn kill_inner(&self) {
        self.control.lock().expect("chaos control lock").kill();
    }
}

/// Delegates to the real control handle the shims share.
struct ChaosControl {
    control: Arc<Mutex<Box<dyn ConnectionControl>>>,
}

impl ConnectionControl for ChaosControl {
    fn kill(&mut self) {
        self.control.lock().expect("chaos control lock").kill();
    }

    fn finish(&mut self) -> io::Result<()> {
        self.control.lock().expect("chaos control lock").finish()
    }
}

fn newlines(buf: &[u8]) -> u64 {
    buf.iter().filter(|&&b| b == b'\n').count() as u64
}

/// The coordinator→worker shim: counts request frames (newlines) and
/// fires the Tx-side faults.
struct ChaosWriter {
    inner: Box<dyn Write + Send>,
    state: Arc<ChaosState>,
    /// Complete request frames written so far.
    frames: u64,
}

impl Write for ChaosWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.state.fault {
            FaultKind::CrashTx { after_frames } if self.frames >= after_frames => {
                if self.state.trip() {
                    // Kill the real connection so the reader side sees
                    // EOF too — a crash severs both halves at once.
                    self.state.kill_inner();
                }
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "chaos: planned connection crash",
                ));
            }
            FaultKind::BlackholeTx { after_frames } if self.frames >= after_frames => {
                self.state.trip();
                // The write "succeeds" but the bytes vanish: the worker
                // never sees the request, heartbeats keep flowing.
                self.frames += newlines(buf);
                return Ok(buf.len());
            }
            FaultKind::StallTx {
                after_frames,
                stall_ms,
            } if self.frames >= after_frames => {
                self.state.trip();
                std::thread::sleep(Duration::from_millis(stall_ms));
            }
            _ => {}
        }
        let n = self.inner.write(buf)?;
        self.frames += newlines(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The worker→coordinator shim: fetches whole frames from the inner
/// reader and fires the Rx-side faults. Served to the supervisor
/// through a fresh `BufReader` (the `Connection` contract wants
/// `BufRead`).
struct ChaosReader {
    inner: Box<dyn BufRead + Send>,
    state: Arc<ChaosState>,
    /// Complete worker frames fetched from the inner reader so far.
    frames: u64,
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
}

impl ChaosReader {
    /// Refills `buf` with the next (possibly faulted) frame.
    fn fill(&mut self) -> io::Result<()> {
        loop {
            let mut line = String::new();
            if self.inner.read_line(&mut line)? == 0 {
                self.eof = true;
                return Ok(());
            }
            self.frames += 1;
            let frame = self.frames;
            match self.state.fault {
                FaultKind::DropRx { after_frames } if frame > after_frames => {
                    if self.state.trip() {
                        self.state.kill_inner();
                    }
                    self.eof = true;
                    return Ok(());
                }
                FaultKind::TruncateRx { frame: at } if frame == at => {
                    self.state.trip();
                    let body = line.trim_end_matches('\n').as_bytes();
                    let keep = (body.len() / 2).max(1).min(body.len());
                    self.buf = body[..keep].to_vec();
                    self.pos = 0;
                    // Nothing follows a truncated frame: the connection
                    // died mid-byte.
                    self.eof = true;
                    self.state.kill_inner();
                    return Ok(());
                }
                FaultKind::CorruptRx { frame: at } if frame == at => {
                    self.state.trip();
                    let mut bytes = line.into_bytes();
                    // Flip the high bit of a mid-frame byte, keeping
                    // the newline. The worker's frames are ASCII JSON,
                    // so the result is invalid UTF-8 — detectably
                    // corrupt, never a plausible decoy frame.
                    let at = bytes.len().saturating_sub(1) / 2;
                    bytes[at] |= 0x80;
                    self.buf = bytes;
                    self.pos = 0;
                    return Ok(());
                }
                FaultKind::SuppressHeartbeats { after_frames }
                    if frame > after_frames && line.contains("\"type\":\"heartbeat\"") =>
                {
                    self.state.trip();
                    continue;
                }
                _ => {
                    self.buf = line.into_bytes();
                    self.pos = 0;
                    return Ok(());
                }
            }
        }
    }
}

impl Read for ChaosReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.buf.len() {
            if self.eof {
                return Ok(0);
            }
            self.fill()?;
            if self.pos >= self.buf.len() {
                return Ok(0);
            }
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// An in-memory transport: connections read a canned script and
    /// write into a shared sink.
    struct FakeTransport {
        script: String,
        sink: Arc<Mutex<Vec<u8>>>,
        killed: Arc<AtomicBool>,
    }

    struct FakeControl {
        killed: Arc<AtomicBool>,
    }

    impl ConnectionControl for FakeControl {
        fn kill(&mut self) {
            self.killed.store(true, Ordering::Relaxed);
        }

        fn finish(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    struct SinkWriter(Arc<Mutex<Vec<u8>>>);

    impl Write for SinkWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().expect("sink").extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Transport for FakeTransport {
        fn label(&self) -> String {
            "fake:worker".to_string()
        }

        fn connect(&mut self) -> io::Result<Connection> {
            Ok(Connection {
                writer: Box::new(SinkWriter(Arc::clone(&self.sink))),
                reader: Box::new(Cursor::new(self.script.clone().into_bytes())),
                control: Box::new(FakeControl {
                    killed: Arc::clone(&self.killed),
                }),
            })
        }
    }

    fn fake(script: &str) -> (FakeTransport, Arc<Mutex<Vec<u8>>>, Arc<AtomicBool>) {
        let sink = Arc::new(Mutex::new(Vec::new()));
        let killed = Arc::new(AtomicBool::new(false));
        (
            FakeTransport {
                script: script.to_string(),
                sink: Arc::clone(&sink),
                killed: Arc::clone(&killed),
            },
            sink,
            killed,
        )
    }

    fn chaos(t: FakeTransport, fault: FaultKind) -> ChaosTransport {
        ChaosTransport::new(Box::new(t), FaultPlan::from_faults(vec![Some(fault)]))
    }

    #[test]
    fn crash_tx_fails_the_planned_write_and_kills_the_connection() {
        let (t, sink, killed) = fake("");
        let mut t = chaos(t, FaultKind::CrashTx { after_frames: 1 });
        let counter = t.injection_counter();
        let mut conn = t.connect().expect("connect");
        conn.writer.write_all(b"{\"a\":1}\n").expect("first frame");
        let err = conn
            .writer
            .write_all(b"{\"b\":2}\n")
            .expect_err("second frame crashes");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(
            killed.load(Ordering::Relaxed),
            "inner connection not killed"
        );
        assert_eq!(sink.lock().expect("sink").as_slice(), b"{\"a\":1}\n");
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn blackhole_tx_swallows_frames_but_reports_success() {
        let (t, sink, killed) = fake("");
        let mut t = chaos(t, FaultKind::BlackholeTx { after_frames: 1 });
        let mut conn = t.connect().expect("connect");
        conn.writer.write_all(b"{\"a\":1}\n").expect("delivered");
        conn.writer.write_all(b"{\"b\":2}\n").expect("swallowed");
        conn.writer.write_all(b"{\"c\":3}\n").expect("swallowed");
        assert_eq!(sink.lock().expect("sink").as_slice(), b"{\"a\":1}\n");
        assert!(!killed.load(Ordering::Relaxed), "a blackhole is silent");
    }

    #[test]
    fn drop_rx_ends_the_stream_after_the_planned_frame() {
        let (t, _, killed) = fake("{\"hello\":1}\n{\"beat\":2}\n{\"resp\":3}\n");
        let mut t = chaos(t, FaultKind::DropRx { after_frames: 1 });
        let mut conn = t.connect().expect("connect");
        let mut line = String::new();
        conn.reader.read_line(&mut line).expect("first frame");
        assert_eq!(line, "{\"hello\":1}\n");
        line.clear();
        assert_eq!(conn.reader.read_line(&mut line).expect("eof"), 0);
        assert!(killed.load(Ordering::Relaxed));
    }

    #[test]
    fn truncate_rx_serves_a_proper_prefix_with_no_newline_then_eof() {
        let (t, _, _) = fake("{\"hello\":1}\n{\"response\":2222}\n");
        let mut t = chaos(t, FaultKind::TruncateRx { frame: 2 });
        let mut conn = t.connect().expect("connect");
        let mut line = String::new();
        conn.reader.read_line(&mut line).expect("first frame");
        assert_eq!(line, "{\"hello\":1}\n");
        line.clear();
        let n = conn.reader.read_line(&mut line).expect("truncated frame");
        assert!(n > 0, "the prefix must arrive");
        assert!(!line.ends_with('\n'), "a truncated frame has no newline");
        assert!(
            "{\"response\":2222}".starts_with(&line),
            "not a prefix: {line:?}"
        );
        line.clear();
        assert_eq!(conn.reader.read_line(&mut line).expect("eof"), 0);
    }

    #[test]
    fn corrupt_rx_is_always_detected_as_invalid_utf8() {
        let (t, _, _) = fake("{\"hello\":1}\n{\"response\":2}\n");
        let mut t = chaos(t, FaultKind::CorruptRx { frame: 2 });
        let counter = t.injection_counter();
        let mut conn = t.connect().expect("connect");
        let mut line = String::new();
        conn.reader.read_line(&mut line).expect("first frame");
        line.clear();
        let err = conn
            .reader
            .read_line(&mut line)
            .expect_err("a corrupt frame cannot silently decode");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn suppress_heartbeats_drops_only_heartbeat_frames() {
        let (t, _, _) = fake(
            "{\"type\":\"hello\"}\n{\"type\":\"heartbeat\",\"busy\":false}\n{\"type\":\"response\"}\n",
        );
        let mut t = chaos(t, FaultKind::SuppressHeartbeats { after_frames: 1 });
        let mut conn = t.connect().expect("connect");
        let mut lines = Vec::new();
        let mut line = String::new();
        while conn.reader.read_line(&mut line).expect("read") > 0 {
            lines.push(line.clone());
            line.clear();
        }
        assert_eq!(
            lines,
            vec![
                "{\"type\":\"hello\"}\n".to_string(),
                "{\"type\":\"response\"}\n".to_string(),
            ],
            "exactly the heartbeat must vanish"
        );
    }

    #[test]
    fn clean_generations_pass_through_and_labels_nest() {
        let (t, sink, _) = fake("{\"hello\":1}\n");
        // The fault targets generation 1; generation 0 must be clean.
        let mut t = ChaosTransport::new(
            Box::new(t),
            FaultPlan::from_faults(vec![None, Some(FaultKind::CrashTx { after_frames: 0 })]),
        );
        assert_eq!(t.label(), "chaos:fake:worker");
        let mut conn = t.connect().expect("connect");
        conn.writer.write_all(b"{\"a\":1}\n").expect("clean write");
        assert_eq!(sink.lock().expect("sink").as_slice(), b"{\"a\":1}\n");
        let mut conn = t.connect().expect("reconnect");
        assert!(conn.writer.write_all(b"{\"a\":1}\n").is_err());
        assert_eq!(t.injection_counter().load(Ordering::Relaxed), 1);
    }
}

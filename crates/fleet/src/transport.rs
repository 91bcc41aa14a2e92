//! How frames reach a worker: the [`Transport`] abstraction.
//!
//! The fleet protocol ([`crate::protocol`]) is a byte stream of
//! newline-delimited wire frames in each direction, so a transport only
//! has to provide three things: a writable half, a readable half, and a
//! way to terminate the peer. Two implementations move bytes, and a
//! third skips them:
//!
//! * [`PipeTransport`] — spawns a `firm-fleet-worker` subprocess on
//!   this host and speaks frames over its stdin/stdout (the original
//!   single-host sharding path). Reconnecting respawns the binary, so
//!   the supervisor's restart-and-replay works out of the box.
//! * [`TcpTransport`] — connects to a `firm-fleet-worker --listen addr`
//!   on any host and speaks the *same* frames over the socket. The
//!   initial connect retries patiently (workers are often still binding
//!   when the runner starts); a *re*connect after a failure retries
//!   with bounded exponential backoff inside a shorter window — long
//!   enough to ride out a worker restart or a transient partition,
//!   short enough that a worker that is gone for good does not stall
//!   redistribution of its work.
//! * [`LocalTransport`] — a worker *thread* in this process. Its
//!   [`Transport::link`] is [`Link::Local`]: the pool runs
//!   [`crate::worker::serve_local`] on a thread of its own and hands it
//!   the request values themselves, so an in-process slot pays no
//!   encode or decode.
//!
//! The codec does not change between transports — a frame captured from
//! a pipe byte-for-byte equals the same frame on a socket — which is
//! why the fleet's bit-identity guarantee carries to multi-node
//! deployments unchanged: the transport moves bytes, the catalog index
//! orders results, and nothing else has an opinion.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One live byte-stream session with a worker, as produced by
/// [`Transport::connect`]. The supervisor moves the halves onto
/// dedicated writer/reader threads and keeps the control handle for
/// itself.
pub struct Connection {
    /// The coordinator→worker half (request frames).
    pub writer: Box<dyn Write + Send>,
    /// The worker→coordinator half (hello/heartbeat/response frames).
    pub reader: Box<dyn BufRead + Send>,
    /// Out-of-band termination and cleanup.
    pub control: Box<dyn ConnectionControl>,
}

/// Out-of-band control over one connection: forceful termination (for
/// presumed-wedged workers) and graceful teardown (after EOF).
pub trait ConnectionControl: Send {
    /// Forcefully terminates the session: kills the subprocess or shuts
    /// the socket down in both directions. Unblocks any reader thread
    /// parked on the stream. Idempotent.
    fn kill(&mut self);

    /// Gracefully finishes after the writer half has been dropped
    /// (which signals EOF to the worker): reaps the subprocess / closes
    /// the socket. Returns an error if the worker exited abnormally.
    fn finish(&mut self) -> io::Result<()>;
}

/// A way to open (and re-open) sessions with one worker slot.
///
/// `connect` is called once at fleet start and again each time the
/// supervisor replaces a failed connection; an `Err` from a reconnect
/// marks the slot dead and its work is redistributed to the survivors.
pub trait Transport: Send {
    /// A human-readable name for failure messages, e.g.
    /// `pipe:firm-fleet-worker` or `tcp:10.0.0.7:7401`.
    fn label(&self) -> String;

    /// Opens a fresh byte-stream session with the worker.
    fn connect(&mut self) -> io::Result<Connection>;

    /// Opens a fresh session in the form the pool consumes. Byte
    /// transports keep this default; [`LocalTransport`] overrides it.
    fn link(&mut self) -> io::Result<Link> {
        self.connect().map(Link::Stream)
    }
}

/// A session as the pool consumes it.
pub enum Link {
    /// Frames over a byte stream; the pool encodes and decodes.
    Stream(Connection),
    /// A worker thread in this process, handed values over a channel.
    Local,
}

/// A worker thread in this process: each session is one thread running
/// the same request step as a `firm-fleet-worker`
/// ([`crate::worker::serve_local`]); reconnecting starts a fresh one.
pub struct LocalTransport;

impl Transport for LocalTransport {
    fn label(&self) -> String {
        "local".to_string()
    }

    fn connect(&mut self) -> io::Result<Connection> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "a local worker exchanges values, not bytes: open it with Transport::link",
        ))
    }

    fn link(&mut self) -> io::Result<Link> {
        Ok(Link::Local)
    }
}

// ---------------------------------------------------------------------
// Subprocess pipes.
// ---------------------------------------------------------------------

/// Frames over a spawned `firm-fleet-worker`'s stdin/stdout.
pub struct PipeTransport {
    bin: PathBuf,
}

impl PipeTransport {
    /// A transport that spawns `bin` for each session.
    pub fn new(bin: PathBuf) -> Self {
        PipeTransport { bin }
    }
}

struct PipeControl {
    child: Child,
}

impl ConnectionControl for PipeControl {
    fn kill(&mut self) {
        // Kill + wait: the wait both reaps the zombie and guarantees
        // the stdout pipe is closed, so the reader thread unparks.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn finish(&mut self) -> io::Result<()> {
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("worker exited with {status}")))
        }
    }
}

impl Transport for PipeTransport {
    fn label(&self) -> String {
        format!(
            "pipe:{}",
            self.bin
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| self.bin.display().to_string())
        )
    }

    fn connect(&mut self) -> io::Result<Connection> {
        let mut child = Command::new(&self.bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let writer = child.stdin.take().expect("worker stdin piped");
        let reader = BufReader::new(child.stdout.take().expect("worker stdout piped"));
        Ok(Connection {
            writer: Box::new(writer),
            reader: Box::new(reader),
            control: Box::new(PipeControl { child }),
        })
    }
}

// ---------------------------------------------------------------------
// TCP sockets.
// ---------------------------------------------------------------------

/// Frames over a TCP socket to a `firm-fleet-worker --listen addr`.
pub struct TcpTransport {
    addr: String,
    connect_window: Duration,
    reconnect_window: Duration,
    connected_before: bool,
}

impl TcpTransport {
    /// How long the *initial* connect keeps retrying before giving up —
    /// generous because runners and workers usually start together and
    /// the worker may not have bound its listener yet.
    pub const DEFAULT_CONNECT_WINDOW: Duration = Duration::from_secs(10);

    /// How long a *re*connect after a failure keeps retrying. Shorter
    /// than the initial window: a reconnect blocks the supervisor's
    /// recycle of this slot, and a worker that does not come back
    /// within a couple of seconds should have its work redistributed.
    pub const DEFAULT_RECONNECT_WINDOW: Duration = Duration::from_secs(2);

    /// The first backoff sleep; doubles per failed dial attempt.
    const BACKOFF_FLOOR: Duration = Duration::from_millis(25);

    /// Backoff sleeps never exceed this.
    const BACKOFF_CAP: Duration = Duration::from_millis(400);

    /// A transport that dials `addr` (e.g. `127.0.0.1:7401`).
    pub fn new(addr: impl Into<String>) -> Self {
        TcpTransport {
            addr: addr.into(),
            connect_window: Self::DEFAULT_CONNECT_WINDOW,
            reconnect_window: Self::DEFAULT_RECONNECT_WINDOW,
            connected_before: false,
        }
    }

    /// Overrides the initial-connect retry window.
    pub fn connect_window(mut self, window: Duration) -> Self {
        self.connect_window = window;
        self
    }

    /// Overrides the reconnect-after-failure retry window.
    pub fn reconnect_window(mut self, window: Duration) -> Self {
        self.reconnect_window = window;
        self
    }
}

struct TcpControl {
    stream: TcpStream,
}

impl ConnectionControl for TcpControl {
    /// "Kill" over TCP reaches only the connection, not the peer: the
    /// worker's session thread notices the dead socket at its next read
    /// or write, but a simulation already in flight runs to completion
    /// on the worker's CPU first (there is no remote signal to abort
    /// it). The supervisor's replay correctness never depends on the
    /// orphaned computation — its eventual response dies with the
    /// connection — it is purely wasted remote work.
    fn kill(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn finish(&mut self) -> io::Result<()> {
        // The write half is already closed (writer dropped); shutting
        // down the rest is best-effort — the worker stays alive to
        // serve its next session.
        let _ = self.stream.shutdown(Shutdown::Both);
        Ok(())
    }
}

/// A write handle whose `Drop` half-closes the socket, mirroring how
/// dropping a `ChildStdin` sends EOF to a subprocess — the worker's
/// serve loop sees end-of-input and finishes the session cleanly.
struct TcpWriteHalf(TcpStream);

impl Write for TcpWriteHalf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl Drop for TcpWriteHalf {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Write);
    }
}

impl Transport for TcpTransport {
    fn label(&self) -> String {
        format!("tcp:{}", self.addr)
    }

    fn connect(&mut self) -> io::Result<Connection> {
        // A reconnect-after-failure gets the same retry treatment as
        // the initial connect, just inside a tighter window: bounded
        // exponential backoff until the deadline, then the slot is
        // declared dead and its work redistributed. Each backoff sleep
        // lands in the `fleet.reconnect.backoff_us` histogram.
        let reconnect = self.connected_before;
        let window = if reconnect {
            self.reconnect_window
        } else {
            self.connect_window
        };
        let deadline = Instant::now() + window;
        let backoff_hist =
            reconnect.then(|| firm_obs::metrics().histogram("fleet.reconnect.backoff_us"));
        let mut backoff = Self::BACKOFF_FLOOR;
        let stream = loop {
            match TcpStream::connect(&self.addr) {
                Ok(stream) => break stream,
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => {
                    let sleep = backoff.min(deadline.saturating_duration_since(Instant::now()));
                    if let Some(hist) = &backoff_hist {
                        hist.record(sleep.as_micros() as u64);
                    }
                    std::thread::sleep(sleep);
                    backoff = (backoff * 2).min(Self::BACKOFF_CAP);
                }
            }
        };
        self.connected_before = true;
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone()?;
        let control = TcpControl {
            stream: stream.try_clone()?,
        };
        Ok(Connection {
            writer: Box::new(TcpWriteHalf(stream)),
            reader: Box::new(BufReader::new(ReadHalf(read_half))),
            control: Box::new(control),
        })
    }
}

/// A read handle over a cloned stream (keeps the reader thread's
/// borrow separate from the writer's).
struct ReadHalf(TcpStream);

impl Read for ReadHalf {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn tcp_transport_retries_until_the_listener_binds() {
        // Reserve a port, then release it so the first connects fail.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        drop(listener);

        let addr2 = addr.clone();
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            // Retry the rebind: a concurrent test could briefly grab
            // the port during the release window above.
            let listener = loop {
                match TcpListener::bind(&addr2) {
                    Ok(l) => break l,
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            };
            let (mut sock, _) = listener.accept().expect("accept");
            sock.write_all(b"{\"ok\":true}\n").expect("write");
        });

        let mut transport = TcpTransport::new(addr).connect_window(Duration::from_secs(5));
        let mut conn = transport.connect().expect("connect retried until bind");
        let mut line = String::new();
        conn.reader.read_line(&mut line).expect("read");
        assert_eq!(line, "{\"ok\":true}\n");
        server.join().expect("server thread");
    }

    #[test]
    fn tcp_reconnect_retries_with_backoff_until_the_worker_returns() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let first = std::thread::spawn(move || {
            let _ = listener.accept();
            // Dropping the listener takes the worker "down"; the
            // restart below brings it back on the same port.
        });

        let mut transport = TcpTransport::new(addr.clone())
            .connect_window(Duration::from_secs(5))
            .reconnect_window(Duration::from_secs(5));
        let conn = transport.connect().expect("first connect");
        drop(conn);
        first.join().expect("first server thread");

        // The worker restarts ~200 ms later; the reconnect's backoff
        // retries must ride out the gap instead of failing on the
        // first refused dial.
        let addr2 = addr.clone();
        let restarted = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            let listener = loop {
                match TcpListener::bind(&addr2) {
                    Ok(l) => break l,
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            };
            let (mut sock, _) = listener.accept().expect("accept");
            sock.write_all(b"{\"back\":true}\n").expect("write");
        });
        let mut conn = transport
            .connect()
            .expect("reconnect retried until restart");
        let mut line = String::new();
        conn.reader.read_line(&mut line).expect("read");
        assert_eq!(line, "{\"back\":true}\n");
        restarted.join().expect("restarted server thread");
    }

    #[test]
    fn tcp_reconnect_gives_up_after_its_bounded_window() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let _ = listener.accept();
        });

        let mut transport = TcpTransport::new(addr)
            .connect_window(Duration::from_secs(5))
            .reconnect_window(Duration::from_millis(300));
        let conn = transport.connect().expect("first connect");
        drop(conn);
        server.join().expect("server thread");
        // The worker is gone for good: the reconnect must retry only
        // within its own bounded window, never the full initial one.
        let start = Instant::now();
        assert!(transport.connect().is_err());
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(3),
            "reconnect overshot its bounded window: {elapsed:?}"
        );
    }

    #[test]
    fn pipe_transport_labels_name_the_binary() {
        let t = PipeTransport::new(PathBuf::from("/x/y/firm-fleet-worker"));
        assert_eq!(t.label(), "pipe:firm-fleet-worker");
        assert_eq!(TcpTransport::new("1.2.3.4:7").label(), "tcp:1.2.3.4:7");
    }
}

//! A small blocking client for the wire protocol — the counterpart the
//! load generator, parity tests, and adversity cells drive.
//!
//! A [`ClientConn`] is one TCP connection pinned (via the Hello
//! handshake) to one server worker. To preserve the engine's
//! per-target ordering contract across the network, a client keeps one
//! connection per worker ([`connect_per_worker`]) and sends each event
//! on the connection `route_mix(dst) % num_workers` — the same routing
//! recipe the in-process cluster uses, so the wire adds no new ordering
//! assumptions.

use crate::wire::{self, Frame, ANY_WORKER};
use magicrecs_types::{Error, Result};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One blocking connection to a server worker.
#[derive(Debug)]
pub struct ClientConn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// The worker this connection landed on.
    pub worker_id: u32,
    /// The server's worker count (for client-side routing).
    pub num_workers: u32,
}

fn io_err(e: std::io::Error) -> Error {
    Error::Io(format!("client: {e}"))
}

impl ClientConn {
    /// Connects, sends Hello (optionally requesting a worker), and
    /// waits for the HelloAck.
    pub fn connect(addr: SocketAddr, preferred_worker: Option<u32>) -> Result<ClientConn> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        let mut conn = ClientConn {
            stream,
            buf: Vec::new(),
            worker_id: 0,
            num_workers: 0,
        };
        conn.send(&Frame::Hello {
            preferred_worker: preferred_worker.unwrap_or(ANY_WORKER),
        })?;
        match conn.recv()? {
            Frame::HelloAck {
                worker_id,
                num_workers,
            } => {
                conn.worker_id = worker_id;
                conn.num_workers = num_workers;
                Ok(conn)
            }
            other => Err(Error::Io(format!(
                "client: expected HelloAck, got {other:?}"
            ))),
        }
    }

    /// Writes one frame (blocking until fully queued in the kernel).
    pub fn send(&mut self, frame: &Frame) -> Result<()> {
        let bytes = wire::encode(frame);
        self.stream.write_all(&bytes).map_err(io_err)
    }

    /// Reads the next frame, blocking until one arrives. A closed peer
    /// surfaces as [`Error::ChannelClosed`].
    pub fn recv(&mut self) -> Result<Frame> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some((frame, used)) = wire::decode(&self.buf)? {
                self.buf.drain(..used);
                return Ok(frame);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(Error::ChannelClosed("server closed the connection")),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    /// Like [`ClientConn::recv`] but gives up after `timeout`, returning
    /// `Ok(None)`.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>> {
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(io_err)?;
        let result = self.recv_step();
        self.stream.set_read_timeout(None).map_err(io_err)?;
        result
    }

    fn recv_step(&mut self) -> Result<Option<Frame>> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some((frame, used)) = wire::decode(&self.buf)? {
                self.buf.drain(..used);
                return Ok(Some(frame));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(Error::ChannelClosed("server closed the connection")),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(ref e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    /// Requests a full metrics-registry scrape and blocks for the
    /// reply, returning the flattened `(name, value)` pairs. Frames
    /// arriving before the `MetricsResp` (pipelined delivers) are
    /// discarded; issue a [`ClientConn::barrier`] first if you need
    /// them.
    pub fn fetch_metrics(&mut self) -> Result<Vec<(String, u64)>> {
        self.send(&Frame::MetricsReq)?;
        loop {
            match self.recv()? {
                Frame::MetricsResp { metrics } => return Ok(metrics),
                Frame::Error { code, detail } => {
                    return Err(Error::Io(format!(
                        "client: metrics request refused ({code:?}: {detail})"
                    )))
                }
                _ => {}
            }
        }
    }

    /// Sends a barrier and blocks until its ack comes back, buffering
    /// (and returning) every frame that arrives before it — the fence
    /// that proves all prior frames on this connection were processed.
    pub fn barrier(&mut self, tag: u64) -> Result<Vec<Frame>> {
        self.send(&Frame::Barrier { tag })?;
        let mut before = Vec::new();
        loop {
            match self.recv()? {
                Frame::BarrierAck { tag: t } if t == tag => return Ok(before),
                other => before.push(other),
            }
        }
    }

    /// Abruptly kills the connection (both directions, no goodbye) —
    /// the adversity harness's mid-ingest connection-kill lever.
    pub fn kill(self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// A second handle on this connection's socket: another thread can
    /// [`TcpStream::shutdown`] it to break a blocking
    /// [`ClientConn::recv`] with an error.
    pub fn socket_handle(&self) -> Result<TcpStream> {
        self.stream.try_clone().map_err(io_err)
    }

    /// Splits into independently-owned read and write handles (clones
    /// of one socket) plus any bytes already buffered on the read side
    /// — for callers (the load generator) that pump reads and writes
    /// from different threads.
    pub fn split(self) -> Result<(TcpStream, TcpStream, Vec<u8>)> {
        let reader = self.stream.try_clone().map_err(io_err)?;
        Ok((reader, self.stream, self.buf))
    }
}

/// Opens one connection per server worker, index == worker id.
pub fn connect_per_worker(addr: SocketAddr) -> Result<Vec<ClientConn>> {
    let first = ClientConn::connect(addr, Some(0))?;
    let n = first.num_workers;
    let mut conns = Vec::with_capacity(n as usize);
    conns.push(first);
    for w in 1..n {
        conns.push(ClientConn::connect(addr, Some(w))?);
    }
    Ok(conns)
}

//! The load generator's side of the wire: binary-codec connections,
//! nonblocking, multiplexed by one thread that sleeps in `ppoll(2)` until
//! the next send is due or a reply arrives.
//!
//! `TCP_NODELAY` is set on every generator socket, so a Nagle stall that
//! shows in the figures belongs to the server.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use avt_serve::{BinaryCodec, Codec, Request, Response};

const CODEC: BinaryCodec = BinaryCodec;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// One pipelined connection with its unsent and undecoded bytes.
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn { stream, rbuf: Vec::new(), wbuf: Vec::new() })
    }

    pub fn queue(&mut self, id: u64, request: &Request) {
        CODEC.encode_request(id, request, &mut self.wbuf);
    }

    /// Write as much of the pending bytes as the socket takes.
    pub fn flush(&mut self) -> io::Result<()> {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => drop(self.wbuf.drain(..n)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read what has arrived and decode every complete reply frame.
    pub fn drain_replies(
        &mut self,
        out: &mut Vec<(u64, Result<Response, String>)>,
    ) -> io::Result<()> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.rbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let mut at = 0;
        while let Some(len) = CODEC.decode_frame(&self.rbuf[at..]).map_err(io::Error::other)? {
            let (id, reply) =
                CODEC.decode_response(&self.rbuf[at..at + len]).map_err(io::Error::other)?;
            let id = id.ok_or_else(|| io::Error::other("binary reply without an id"))?;
            out.push((id, reply));
            at += len;
        }
        self.rbuf.drain(..at);
        Ok(())
    }
}

/// Sleep until a connection is readable (or writable, when it has
/// pending bytes) or `timeout` passes.
pub fn wait(conns: &[Conn], timeout: Duration) -> io::Result<()> {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN | if c.wbuf.is_empty() { 0 } else { POLLOUT },
            revents: 0,
        })
        .collect();
    let ts =
        Timespec { tv_sec: timeout.as_secs() as c_long, tv_nsec: timeout.subsec_nanos() as c_long };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // initialised `pollfd` records with the C layout; `ts` outlives the
    // call; a null sigmask means "keep the current mask".
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// One blocking round trip on a fresh connection (set-up and teardown
/// verbs, outside every timed phase).
pub fn call(addr: SocketAddr, request: Option<&Request>) -> io::Result<Result<Response, String>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut wire = Vec::new();
    match request {
        Some(r) => CODEC.encode_request(0, r, &mut wire),
        None => CODEC.encode_shutdown(0, &mut wire),
    }
    stream.write_all(&wire)?;
    let mut rbuf = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(len) = CODEC.decode_frame(&rbuf).map_err(io::Error::other)? {
            let (_, reply) = CODEC.decode_response(&rbuf[..len]).map_err(io::Error::other)?;
            return Ok(reply);
        }
        if Instant::now() > deadline {
            return Err(io::ErrorKind::TimedOut.into());
        }
        match stream.read(&mut buf)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => rbuf.extend_from_slice(&buf[..n]),
        }
    }
}

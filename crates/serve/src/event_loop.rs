//! The TCP front-end: one readiness-driven nonblocking `epoll(7)` loop,
//! no thread per connection.
//!
//! A thread per connection spends a stack on every client; at thousands
//! of clients the stacks dominate memory and the scheduler dominates
//! latency. [`EventFront`] instead runs one event-loop thread
//! multiplexing every socket through `epoll`:
//! per-connection state is a [`Conn`] state machine plus its buffers —
//! memory proportional to *traffic*, not to connection count.
//!
//! Architecture, one loop iteration:
//!
//! 1. `epoll_wait` delivers readiness for the listener, the wake pipe,
//!    and any ready sockets (level-triggered).
//! 2. Readable sockets are drained into their [`Conn`], which decodes
//!    complete frames; decoded queries go to the [`Service`] worker pool
//!    via its nonblocking [`Service::try_submit`] — a full pool parks the
//!    job instead of blocking the loop.
//! 3. Workers finish on their own threads; completions land on a shared
//!    queue and a byte on the wake pipe returns control to the loop,
//!    which routes each reply back to its connection (matched by token +
//!    sequence number, so pipelined requests resolve out of order).
//! 4. Reply bytes flush as far as the socket allows; what remains waits
//!    for `EPOLLOUT`. Interest masks are recomputed from the state
//!    machine's `want_read`/`want_write` — a slow reader or a deep
//!    pipeline automatically stops being read from (backpressure).
//!
//! The syscalls are bound directly, the way `avt_graph::mmap` binds
//! `mmap(2)`: `std` already links libc, so no external crate is needed.
//! `epoll` is Linux's, so Linux is the one platform the front serves on:
//! elsewhere [`EventFront::run`] returns [`io::ErrorKind::Unsupported`].
//! A portable `poll(2)` loop is no substitute: `poll` scans every socket
//! on every wake, which more than quadrupled the p50 of a 1 000-connection
//! open loop on a 2-vCPU host. The in-process layers ([`Service`], the
//! codecs, [`Conn`]) build and run on every platform.
//!
//! [`Conn`]: crate::Conn

use std::io;
use std::net::TcpListener;

use crate::executor::Service;

#[cfg(target_os = "linux")]
pub use imp::{PollEvent, Poller};

/// Nonblocking front-end configuration. `Default` serves up to 8192
/// concurrent connections.
#[derive(Debug, Clone, Copy)]
pub struct EventFront {
    /// Concurrent connections before new ones are turned away with
    /// `ERR busy`.
    pub max_connections: usize,
}

impl Default for EventFront {
    fn default() -> Self {
        EventFront { max_connections: 8192 }
    }
}

impl EventFront {
    /// Serve `listener` until a client sends a shutdown verb (or the
    /// listener fails persistently). Blocks the calling thread. The
    /// caller still owns the [`Service`] and shuts it down afterwards.
    /// Off Linux this returns [`io::ErrorKind::Unsupported`] at once.
    pub fn run(&self, listener: TcpListener, service: &Service) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            imp::run(self, listener, service)
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (listener, service);
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the TCP front serves on Linux only: it is an epoll loop",
            ))
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use std::collections::{HashMap, VecDeque};
    use std::io::{self, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::raw::c_void;
    use std::os::unix::io::AsRawFd;
    use std::sync::{Arc, Mutex};

    use super::EventFront;
    use crate::conn::{Conn, Ingested};
    use crate::executor::{QueryCallback, Service, SubmitError};
    use crate::protocol::{Request, Response};

    mod sys {
        //! The epoll/pipe syscalls, bound directly: `std` already links
        //! libc, so no external crate is required.
        use std::os::raw::{c_int, c_void};

        pub const EPOLL_CLOEXEC: c_int = 0o2000000;
        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const O_NONBLOCK: c_int = 0o4000;
        pub const O_CLOEXEC: c_int = 0o2000000;

        /// Kernel `struct epoll_event`. x86-64 packs it to 12 bytes; the
        /// other Linux ABIs keep natural alignment — mirror both.
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
            pub fn close(fd: c_int) -> c_int;
            pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
            pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        }
    }

    /// One readiness report from [`Poller::wait`].
    #[derive(Debug, Clone, Copy)]
    pub struct PollEvent {
        /// The token the file descriptor was registered with.
        pub token: u64,
        /// The descriptor is readable (or the peer hung up — reading
        /// surfaces the EOF).
        pub readable: bool,
        /// The descriptor is writable.
        pub writable: bool,
    }

    /// A thin owned wrapper over one `epoll` instance. Also the engine
    /// under `loadgen`'s open-loop client, which multiplexes thousands of
    /// outbound connections the same way the server multiplexes inbound
    /// ones.
    #[derive(Debug)]
    pub struct Poller {
        epfd: i32,
    }

    impl Poller {
        /// A fresh epoll instance (close-on-exec).
        pub fn new() -> io::Result<Poller> {
            // SAFETY: no pointers involved; the returned fd is owned by
            // the Poller and closed exactly once in Drop.
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events: if read { sys::EPOLLIN } else { 0 } | if write { sys::EPOLLOUT } else { 0 },
                data: token,
            };
            // SAFETY: `ev` is a live, correctly-laid-out epoll_event for
            // the duration of the call; the kernel copies it.
            let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Start watching `fd` under `token` with the given interests.
        pub fn register(&self, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, token, read, write)
        }

        /// Change the interests of an already-registered `fd`.
        pub fn modify(&self, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, token, read, write)
        }

        /// Stop watching `fd`. Harmless if the fd is already gone.
        pub fn deregister(&self, fd: i32) {
            let mut ev = sys::EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `ctl`; pre-2.6.9 kernels demanded a non-null
            // event pointer for DEL, which this satisfies too.
            let _ = unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) };
        }

        /// Wait up to `timeout_ms` (−1 = forever) and fill `out` with
        /// ready descriptors.
        pub fn wait(&self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
            out.clear();
            let mut raw = [sys::EpollEvent { events: 0, data: 0 }; 1024];
            let n = loop {
                // SAFETY: `raw` is a live buffer of exactly `len` events;
                // the kernel writes at most that many.
                let rc = unsafe {
                    sys::epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms)
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &raw[..n] {
                let bits = ev.events;
                out.push(PollEvent {
                    token: ev.data,
                    readable: bits & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP) != 0,
                    writable: bits & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd is owned and closed exactly once.
            unsafe { sys::close(self.epfd) };
        }
    }

    /// The write end of the wake pipe, shared with worker callbacks.
    /// Owning it in an `Arc` keeps the fd alive until the last in-flight
    /// callback has fired — a straggler can never write into a recycled
    /// descriptor.
    struct WakeTx {
        fd: i32,
    }

    // SAFETY: a pipe fd may be written from any thread.
    unsafe impl Send for WakeTx {}
    unsafe impl Sync for WakeTx {}

    impl WakeTx {
        fn wake(&self) {
            let byte = 1u8;
            // SAFETY: fd is a live nonblocking pipe write end; a short or
            // failed write (pipe full) is fine — a wake is already queued.
            let _ = unsafe { sys::write(self.fd, (&byte as *const u8).cast::<c_void>(), 1) };
        }
    }

    impl Drop for WakeTx {
        fn drop(&mut self) {
            // SAFETY: owned fd, closed exactly once.
            unsafe { sys::close(self.fd) };
        }
    }

    struct Completion {
        token: u64,
        seq: u64,
        reply: Result<Response, String>,
    }

    struct Slot {
        stream: TcpStream,
        conn: Conn,
        /// Interests currently registered with the poller.
        interest: (bool, bool),
        /// Protocol violation or I/O failure: close as soon as the batch
        /// finishes (after a best-effort flush).
        dead: bool,
    }

    const TOKEN_LISTENER: u64 = u64::MAX;
    const TOKEN_WAKE: u64 = u64::MAX - 1;

    /// Accept one connection on `listener`, ready to serve. `TCP_NODELAY`
    /// goes on before the first byte: without it a reply small enough to
    /// coalesce waits (Nagle) for the client's next packet to acknowledge
    /// the previous one, which puts milliseconds on every settled
    /// connection's round trip. A socket that refuses the option counts as
    /// a failed accept.
    fn accept(listener: &TcpListener) -> io::Result<TcpStream> {
        let (stream, _peer) = listener.accept()?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    struct EventLoop<'a> {
        front: &'a EventFront,
        service: &'a Service,
        poller: Poller,
        conns: HashMap<u64, Slot>,
        next_token: u64,
        completions: Arc<Mutex<Vec<Completion>>>,
        wake_tx: Arc<WakeTx>,
        wake_rx: i32,
        /// Jobs the pool refused (queue full), retried as completions
        /// free slots. The callbacks inside remember their token + seq;
        /// the span clone rides along so queue time spent parked here is
        /// still charged when the job finally lands.
        parked: VecDeque<(Request, Option<avt_obs::Span>, QueryCallback)>,
        shutting_down: bool,
    }

    pub fn run(front: &EventFront, listener: TcpListener, service: &Service) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a live 2-slot buffer, exactly what pipe2 fills.
        let rc = unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        poller.register(fds[0], TOKEN_WAKE, true, false)?;
        let mut el = EventLoop {
            front,
            service,
            poller,
            conns: HashMap::new(),
            next_token: 0,
            completions: Arc::new(Mutex::new(Vec::new())),
            wake_tx: Arc::new(WakeTx { fd: fds[1] }),
            wake_rx: fds[0],
            parked: VecDeque::new(),
            shutting_down: false,
        };
        let result = el.serve(&listener);
        // SAFETY: owned read end, closed exactly once; the write end
        // closes when the last callback's Arc drops.
        unsafe { sys::close(el.wake_rx) };
        result
    }

    impl EventLoop<'_> {
        fn serve(&mut self, listener: &TcpListener) -> io::Result<()> {
            let mut events = Vec::with_capacity(1024);
            let mut accept_errors = 0u32;
            loop {
                // A finite timeout bounds shutdown latency and lets parked
                // jobs retry even if no completion races the park.
                self.poller.wait(&mut events, 100)?;
                let mut touched: Vec<u64> = Vec::new();
                for ev in &events {
                    match ev.token {
                        TOKEN_WAKE => self.drain_wake(),
                        TOKEN_LISTENER => self.accept_ready(listener, &mut accept_errors)?,
                        token => {
                            if self.conns.contains_key(&token) {
                                self.socket_ready(token, ev.readable, ev.writable);
                                touched.push(token);
                            }
                        }
                    }
                }
                self.deliver_completions(&mut touched);
                self.retry_parked();
                if self.shutting_down {
                    // Idle clients are not waited for: stop reading
                    // everyone; those with nothing owed close right away.
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for token in tokens {
                        if let Some(slot) = self.conns.get_mut(&token) {
                            slot.conn.input_closed();
                        }
                        touched.push(token);
                    }
                }
                for token in touched {
                    self.settle(token);
                }
                if self.shutting_down && self.conns.is_empty() && self.parked.is_empty() {
                    return Ok(());
                }
            }
        }

        fn drain_wake(&mut self) {
            let mut buf = [0u8; 256];
            loop {
                // SAFETY: live nonblocking pipe read end and a live buffer
                // of exactly `len` bytes.
                let n = unsafe {
                    sys::read(self.wake_rx, buf.as_mut_ptr().cast::<c_void>(), buf.len())
                };
                if n <= 0 || (n as usize) < buf.len() {
                    break;
                }
            }
        }

        fn accept_ready(
            &mut self,
            listener: &TcpListener,
            accept_errors: &mut u32,
        ) -> io::Result<()> {
            loop {
                let stream = match accept(listener) {
                    Ok(stream) => {
                        *accept_errors = 0;
                        stream
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    // A failed accept is usually one doomed connection
                    // (client reset mid-handshake) or transient pressure
                    // (fd exhaustion), not a reason to drop every live
                    // client; only a persistently failing listener is
                    // fatal.
                    Err(e) => {
                        *accept_errors += 1;
                        if *accept_errors >= 64 {
                            self.shutting_down = true;
                            return Err(e);
                        }
                        continue;
                    }
                };
                if self.shutting_down {
                    continue; // drop: we are draining
                }
                if self.conns.len() >= self.front.max_connections {
                    let mut stream = stream;
                    let _ = stream.write(b"ERR busy: connection limit reached\n");
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let token = self.next_token;
                self.next_token += 1;
                if self.poller.register(stream.as_raw_fd(), token, true, false).is_err() {
                    continue;
                }
                self.conns.insert(
                    token,
                    Slot { stream, conn: Conn::new(), interest: (true, false), dead: false },
                );
            }
        }

        /// Handle readiness on one connection: drain reads through the
        /// state machine, then flush writes.
        fn socket_ready(&mut self, token: u64, readable: bool, writable: bool) {
            if readable {
                self.read_ready(token);
            }
            if writable {
                self.write_ready(token);
            }
        }

        fn read_ready(&mut self, token: u64) {
            let mut buf = [0u8; 16 * 1024];
            loop {
                // Scope the slot borrow: routing the ingest outcome needs
                // `&mut self` again.
                let outcome = {
                    let Some(slot) = self.conns.get_mut(&token) else { return };
                    if slot.dead || !slot.conn.want_read() {
                        return;
                    }
                    match slot.stream.read(&mut buf) {
                        Ok(0) => {
                            slot.conn.input_closed();
                            return;
                        }
                        Ok(n) => slot.conn.ingest(&buf[..n]),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            slot.dead = true;
                            return;
                        }
                    }
                };
                match outcome {
                    Ok(ingested) => self.apply_ingested(token, ingested),
                    // Unparseable stream: best-effort flush of replies
                    // already owed, then close.
                    Err(_protocol) => {
                        if let Some(slot) = self.conns.get_mut(&token) {
                            slot.dead = true;
                        }
                        return;
                    }
                }
            }
        }

        fn write_ready(&mut self, token: u64) {
            loop {
                let outcome = {
                    let Some(slot) = self.conns.get_mut(&token) else { return };
                    if !slot.conn.want_write() {
                        return;
                    }
                    match slot.stream.write(slot.conn.pending_write()) {
                        Ok(0) => {
                            slot.dead = true;
                            return;
                        }
                        Ok(n) => {
                            slot.conn.advance_write(n);
                            // Draining the write side may un-pause parsing.
                            slot.conn.pump()
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            slot.dead = true;
                            return;
                        }
                    }
                };
                match outcome {
                    Ok(ingested) => self.apply_ingested(token, ingested),
                    Err(_) => {
                        if let Some(slot) = self.conns.get_mut(&token) {
                            slot.dead = true;
                        }
                        return;
                    }
                }
            }
        }

        /// Route what one ingest produced: submit queries, count protocol
        /// rejections, raise the shutdown flag.
        fn apply_ingested(&mut self, token: u64, ingested: Ingested) {
            for _ in 0..ingested.malformed {
                self.service.stats().note_error();
            }
            if ingested.shutdown {
                self.shutting_down = true;
            }
            for (seq, request) in ingested.queries {
                self.submit(token, seq, request);
            }
        }

        fn submit(&mut self, token: u64, seq: u64, request: Request) {
            let completions = Arc::clone(&self.completions);
            let wake = Arc::clone(&self.wake_tx);
            let done: QueryCallback = Box::new(move |reply| {
                completions.lock().expect("completion queue lock").push(Completion {
                    token,
                    seq,
                    reply,
                });
                wake.wake();
            });
            let span = self.conns.get(&token).and_then(|slot| slot.conn.span(seq));
            match self.service.try_submit_traced(request, span.clone(), done) {
                Ok(()) => {}
                Err(SubmitError::Full(request, done)) => {
                    self.parked.push_back((request, span, done))
                }
                // Service is gone: answer through the normal completion
                // path so the connection still gets a reply frame.
                Err(SubmitError::Closed(_, done)) => done(Err("service is shutting down".into())),
            }
        }

        fn retry_parked(&mut self) {
            while let Some((request, span, done)) = self.parked.pop_front() {
                match self.service.try_submit_traced(request, span.clone(), done) {
                    Ok(()) => {}
                    Err(SubmitError::Full(request, done)) => {
                        self.parked.push_front((request, span, done));
                        return; // still saturated; keep FIFO order
                    }
                    Err(SubmitError::Closed(_, done)) => {
                        done(Err("service is shutting down".into()))
                    }
                }
            }
        }

        fn deliver_completions(&mut self, touched: &mut Vec<u64>) {
            let batch = std::mem::take(&mut *self.completions.lock().expect("completion queue"));
            for completion in batch {
                let outcome = {
                    let Some(slot) = self.conns.get_mut(&completion.token) else {
                        continue; // connection died while the worker ran
                    };
                    slot.conn.complete(completion.seq, completion.reply)
                };
                touched.push(completion.token);
                match outcome {
                    Ok(ingested) => self.apply_ingested(completion.token, ingested),
                    Err(_) => {
                        if let Some(slot) = self.conns.get_mut(&completion.token) {
                            slot.dead = true;
                        }
                    }
                }
            }
        }

        /// After a batch: flush, re-register interests, and reap finished
        /// connections.
        fn settle(&mut self, token: u64) {
            self.write_ready(token); // opportunistic flush without waiting for EPOLLOUT
            let Some(slot) = self.conns.get_mut(&token) else { return };
            // A dead connection is reaped as soon as its in-flight work
            // settles, pending writes or not — its socket already failed
            // (or its stream is unparseable and the error reply was
            // flushed best-effort above).
            let finished = slot.conn.done() || slot.dead;
            if finished && slot.conn.in_flight() == 0 {
                let fd = slot.stream.as_raw_fd();
                self.poller.deregister(fd);
                self.conns.remove(&token);
                return;
            }
            let want = (slot.conn.want_read() && !slot.dead, slot.conn.want_write());
            if want != slot.interest {
                let fd = slot.stream.as_raw_fd();
                if self.poller.modify(fd, token, want.0, want.1).is_ok() {
                    slot.interest = want;
                }
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn accepted_sockets_have_nagle_off() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            assert!(!client.nodelay().unwrap(), "sockets start with Nagle on");
            assert!(accept(&listener).unwrap().nodelay().unwrap());
        }
    }
}

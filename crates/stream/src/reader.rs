//! Reader threads: the blocking half of the daemon's socket layer.
//!
//! Every crate forbids `unsafe`, so `poll(2)` is out of reach; the
//! std-only way to wait on a socket is a blocking `read`. Each open
//! connection is served by one reader thread. Its first reads decode the
//! connection's request, under the handshake deadline, and the request
//! picks the shard that serves the connection: a resume token's owner,
//! or else the shard of the connection id (see `FleetCtx::route`). The
//! reader then pumps the socket into that shard's inbox and, once the
//! shard is done with the connection, writes the final reply. Readers
//! are pooled: a reader whose connection ended waits on the pool's job
//! queue for the next one, and a thread is spawned only when every
//! reader is busy, so the pool tracks peak concurrency with no knob. A
//! reader that waits a whole handshake timeout for a job retires, so a
//! burst of connections leaves no threads behind.
//!
//! A connection's [`Wire`] is the hand-off point between its shard and
//! its reader:
//!
//! * **credit** — at most [`READ_BUDGET`] bytes are in flight between the
//!   reader and the shard; past that the reader waits, so a firehose
//!   client cannot outrun the shard that decodes it;
//! * **verdict** — the shard closes the connection with an optional
//!   reply. The reader, not the shard, writes that reply (under the
//!   socket's write timeout), so a peer that never reads stalls only its
//!   own reader, never the shard.
//!
//! A reader sends its shard `Open` first (the request, or why none came),
//! then `Read`s, then `Eof` if the peer finished first, then exactly one
//! `Closed` once it is done with the socket, saying whether the reply (if
//! one was owed) was written whole. `Closed` is always the connection's
//! last message.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::proto;
use crate::shard::{FleetCtx, Opening, ShardMsg};

/// How many bytes one connection may have in flight between its reader
/// and its shard before the reader waits for credit.
const READ_BUDGET: usize = 256 * 1024;

/// The most one `read` asks for; also the client's write buffer, so an
/// upload the buffer holds lands in one read.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// A reader's stack: it only reads into a heap buffer, hands bytes on
/// and writes one reply, so it needs far less than the default 2 MiB.
const READER_STACK: usize = 256 * 1024;

/// One connection's socket plus the state its shard and its reader share.
#[derive(Debug)]
pub(crate) struct Wire {
    stream: TcpStream,
    flow: Mutex<Flow>,
    turn: Condvar,
}

#[derive(Debug, Default)]
struct Flow {
    /// Bytes sent to the shard and not yet received by it.
    in_flight: usize,
    /// The shard is done with the connection.
    closing: bool,
    /// The final reply the reader owes the peer.
    reply: Option<Vec<u8>>,
}

impl Wire {
    /// Wraps an accepted socket. The shard's end is [`Link::new`]; the
    /// reader's end is a [`ReadJob`].
    pub(crate) fn new(stream: TcpStream) -> Arc<Wire> {
        Arc::new(Wire {
            stream,
            flow: Mutex::new(Flow::default()),
            turn: Condvar::new(),
        })
    }

    // Every update of `Flow` is one field write, so a guard recovered
    // from a poisoned lock still holds consistent data.
    fn flow(&self) -> MutexGuard<'_, Flow> {
        self.flow.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, flow: MutexGuard<'a, Flow>) -> MutexGuard<'a, Flow> {
        self.turn.wait(flow).unwrap_or_else(PoisonError::into_inner)
    }

    /// Reader side: waits until the shard has room for more bytes.
    /// `false` once the shard is done with the connection.
    fn wait_credit(&self) -> bool {
        let mut flow = self.flow();
        while flow.in_flight >= READ_BUDGET && !flow.closing {
            flow = self.wait(flow);
        }
        !flow.closing
    }

    /// Reader side: charges `n` freshly read bytes against the budget.
    /// `false` once the shard is done with the connection (the bytes are
    /// then dropped).
    pub(crate) fn charge(&self, n: usize) -> bool {
        let mut flow = self.flow();
        flow.in_flight += n;
        !flow.closing
    }

    /// Reader side: reads until the bytes decode to a request, fail to,
    /// the peer hangs up or `deadline` passes. A request comes back with
    /// the bytes read past it, and the socket blocks with no deadline
    /// again.
    fn handshake(&self, buf: &mut [u8], deadline: Instant) -> (Opening, Vec<u8>) {
        let mut head = Vec::new();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.stream.set_read_timeout(Some(left)).is_err() {
                let late = "handshake deadline: no complete request arrived in time";
                return (Err(Some(late.to_owned())), head);
            }
            match (&self.stream).read(buf) {
                Ok(0) => return (Err(None), head),
                Ok(n) => head.extend_from_slice(&buf[..n]),
                Err(e) => match e.kind() {
                    // A timed-out read loops back to the deadline check.
                    ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                        continue
                    }
                    _ => return (Err(None), head),
                },
            }
            match proto::decode_request(&head) {
                Ok(Some((request, used))) => {
                    head.drain(..used);
                    let _ = self.stream.set_read_timeout(None);
                    return (Ok(request), head);
                }
                Ok(None) => {}
                Err(e) => return (Err(Some(e.to_string())), head),
            }
        }
    }

    /// Shuts the read half, so a reader blocked in `read` returns.
    pub(crate) fn shut_read(&self) {
        let _ = self.stream.shutdown(Shutdown::Read);
    }

    /// Whether the shard is done with the connection.
    pub(crate) fn closing(&self) -> bool {
        self.flow().closing
    }

    /// Reader side: waits for the shard's verdict and takes the reply it
    /// left, if any.
    pub(crate) fn verdict(&self) -> Option<Vec<u8>> {
        let mut flow = self.flow();
        while !flow.closing {
            flow = self.wait(flow);
        }
        flow.reply.take()
    }
}

/// The shard's end of a connection. Dropping it closes the connection,
/// so a connection whose shard exits (or whose message is never
/// received) releases its reader.
#[derive(Debug)]
pub(crate) struct Link(Arc<Wire>);

impl Link {
    pub(crate) fn new(wire: &Arc<Wire>) -> Link {
        Link(Arc::clone(wire))
    }

    /// The shard received `n` bytes: they are no longer in flight.
    pub(crate) fn received(&self, n: usize) {
        let mut flow = self.0.flow();
        let was_full = flow.in_flight >= READ_BUDGET;
        flow.in_flight -= n;
        if was_full {
            self.0.turn.notify_all();
        }
    }

    /// Writes in place, on the shard thread. Only for the resume ack of
    /// a session still streaming at its shard's wake's commit, which
    /// writes it once the session's open group is synced (a session that
    /// closed in the same wake gets its ack in front of its reply,
    /// through [`Link::close`]): at most 64 bytes and the first the
    /// daemon writes on the socket, so the empty send buffer always takes
    /// it, even though a fresh client is still writing its pipelined
    /// chunks and reads the ack only after its FINISH.
    pub(crate) fn write_ack(&self, bytes: &[u8]) -> io::Result<()> {
        (&self.0.stream).write_all(bytes)
    }

    /// The shard is done with the connection: leaves `reply` for the
    /// reader to write and wakes the reader, wherever it waits. A read
    /// half shut down makes a blocked `read` return.
    pub(crate) fn close(&self, reply: Option<Vec<u8>>) {
        {
            let mut flow = self.0.flow();
            if flow.closing {
                return;
            }
            flow.closing = true;
            flow.reply = reply;
        }
        self.0.turn.notify_all();
        self.0.shut_read();
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        self.close(None);
        // Also fails a reply write still blocked on a peer that never
        // reads.
        let _ = self.0.stream.shutdown(Shutdown::Both);
    }
}

/// One connection for a reader to serve.
#[derive(Debug)]
pub(crate) struct ReadJob {
    pub id: u64,
    pub wire: Arc<Wire>,
    /// When the connection was accepted: its handshake deadline runs
    /// from here.
    pub opened: Instant,
}

impl ReadJob {
    /// Decodes the request and opens the connection on the shard it
    /// routes to, pumps the socket into that shard until the peer or the
    /// shard ends the connection, then writes the shard's reply and says
    /// `Closed`. `buf` is the reader thread's read buffer, kept across
    /// the connections it serves.
    fn serve(self, ctx: &FleetCtx, buf: &mut [u8]) {
        let ReadJob { id, wire, opened } = self;
        let (opening, rest) = wire.handshake(buf, opened + ctx.config.handshake_timeout);
        let has_request = opening.is_ok();
        let shard = &ctx.senders[ctx.route(id, &opening)];
        let sent = shard
            .send(ShardMsg::Open(id, Link::new(&wire), opening))
            .is_ok();
        // A connection with no request is closed by the shard at once;
        // one with a request streams, the bytes read past it first.
        let mut bytes = rest;
        let peer_done = sent
            && has_request
            && loop {
                if !bytes.is_empty()
                    && (!wire.charge(bytes.len()) || shard.send(ShardMsg::Read(id, bytes)).is_err())
                {
                    break false;
                }
                if !wire.wait_credit() {
                    break false;
                }
                bytes = match (&wire.stream).read(buf) {
                    Ok(0) => break true,
                    Ok(n) => buf[..n].to_vec(),
                    Err(e) if e.kind() == ErrorKind::Interrupted => Vec::new(),
                    Err(_) => break true,
                };
            };
        // A peer that finished first may still be owed a reply (a FINISH
        // pipelined before a half-close): the shard decides. (A read that
        // ended because the shard shut the read half is no news to it.)
        // A send that fails means the shard is gone, and its links closed
        // with it.
        if peer_done && !wire.closing() {
            let _ = shard.send(ShardMsg::Eof(id));
        }
        let delivered = wire
            .verdict()
            .map_or(true, |reply| (&wire.stream).write_all(&reply).is_ok());
        let _ = wire.stream.shutdown(Shutdown::Both);
        let _ = shard.send(ShardMsg::Closed(id, delivered));
    }
}

/// The pool of reader threads, owned by the acceptor. A reader idle for
/// as long as a connection may take to say hello is surplus: it retires,
/// so an idle daemon returns to zero readers. Dropping the pool lets
/// every idle reader exit and joins every reader.
#[derive(Debug)]
pub(crate) struct Readers {
    pool: Arc<Pool>,
    ctx: Arc<FleetCtx>,
    threads: Vec<JoinHandle<()>>,
}

#[derive(Debug, Default)]
struct Pool {
    jobs: Mutex<Jobs>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct Jobs {
    queue: VecDeque<ReadJob>,
    /// Readers not serving a connection, minus the queued jobs. Every
    /// queued job has a free reader on its way to it, so a reader that
    /// finds the queue empty may retire.
    idle: usize,
    closed: bool,
}

impl Pool {
    fn jobs(&self) -> MutexGuard<'_, Jobs> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A reader's life: serve queued jobs, each through the one read
    /// buffer the reader keeps, and retire once none arrives within a
    /// handshake timeout (or the pool closes).
    fn work(&self, ctx: &FleetCtx) {
        let linger = ctx.config.handshake_timeout;
        let mut buf = vec![0u8; READ_CHUNK];
        let mut jobs = self.jobs();
        loop {
            if let Some(job) = jobs.queue.pop_front() {
                drop(jobs);
                job.serve(ctx, &mut buf);
                jobs = self.jobs();
                jobs.idle += 1;
                continue;
            }
            if jobs.closed {
                return;
            }
            let (guard, wait) = self
                .ready
                .wait_timeout(jobs, linger)
                .unwrap_or_else(PoisonError::into_inner);
            jobs = guard;
            if wait.timed_out() && jobs.queue.is_empty() {
                jobs.idle = jobs.idle.saturating_sub(1);
                return;
            }
        }
    }
}

impl Readers {
    /// An empty pool whose readers serve `ctx`'s shards.
    pub(crate) fn new(ctx: &Arc<FleetCtx>) -> Readers {
        Readers {
            pool: Arc::default(),
            ctx: Arc::clone(ctx),
            threads: Vec::new(),
        }
    }

    /// Hands `job` to an idle reader, or to a new one when every reader
    /// is busy.
    pub(crate) fn serve(&mut self, job: ReadJob) {
        {
            let mut jobs = self.pool.jobs();
            jobs.queue.push_back(job);
            if jobs.idle > 0 {
                jobs.idle -= 1;
                self.pool.ready.notify_one();
                return;
            }
        }
        self.threads.retain(|handle| !handle.is_finished());
        let (pool, ctx) = (Arc::clone(&self.pool), Arc::clone(&self.ctx));
        let spawned = std::thread::Builder::new()
            .name("pstrace-conn".to_owned())
            .stack_size(READER_STACK)
            .spawn(move || pool.work(&ctx));
        // A failed spawn leaves the job queued for the next reader to
        // free up.
        if let Ok(handle) = spawned {
            self.threads.push(handle);
        }
    }
}

impl Drop for Readers {
    fn drop(&mut self) {
        self.pool.jobs().closed = true;
        self.pool.ready.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

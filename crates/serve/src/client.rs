//! Blocking client for the serving front-end.
//!
//! [`Client`] speaks the batched binary protocol: single-query helpers
//! ([`dist`](Client::dist), [`path`](Client::path), …) do one round
//! trip each, while [`batch`](Client::batch) pipelines any mix of
//! requests into one write and drains all responses with large reads —
//! the shape the server is optimized for and the one the loopback
//! bench measures.

use crate::proto::{self, HealthReport, HelloStatus, ProtocolError, Request, ServerHello, Status};
use congest_graph::NodeId;
use congest_oracle::PortableWeight;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, unexpected EOF).
    Io(std::io::Error),
    /// The server sent bytes that do not parse as the protocol.
    Protocol(ProtocolError),
    /// The server refused the connection at the handshake.
    Refused(HelloStatus),
    /// The server answered a request with a non-success status
    /// (backpressure [`Status::Busy`], [`Status::NodeOutOfRange`], …).
    Server(Status),
    /// A [`ResilientClient`] operation ran out of retry budget (attempt
    /// cap or per-op deadline) without a final answer. Carries the full
    /// attempt trace — one entry per failed try, in order — so the
    /// caller can see exactly what the network did.
    RetriesExhausted {
        /// What each failed attempt saw, in attempt order.
        attempts: Vec<Attempt>,
    },
}

/// One failed try inside a [`ResilientClient`] operation, as carried by
/// [`ClientError::RetriesExhausted`].
#[derive(Debug, Clone)]
pub struct Attempt {
    /// 1-based attempt number.
    pub attempt: u32,
    /// Description of what failed (transport error, shed status, …).
    pub error: String,
    /// Backoff slept after this failure (zero when the deadline cut the
    /// backoff short).
    pub backoff: Duration,
    /// Requests still without a final answer when this attempt failed.
    pub pending: usize,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O error: {e}"),
            ClientError::Protocol(e) => write!(f, "client protocol error: {e}"),
            ClientError::Refused(s) => write!(f, "server refused the handshake: {s:?}"),
            ClientError::Server(s) => write!(f, "server answered with status {s:?}"),
            ClientError::RetriesExhausted { attempts } => {
                write!(f, "retries exhausted after {} attempts", attempts.len())?;
                if let Some(last) = attempts.last() {
                    write!(f, " (last: {})", last.error)?;
                }
                Ok(())
            }
        }
    }
}

impl ClientError {
    /// `true` when retrying the same operation (possibly over a fresh
    /// connection) could succeed: transport failures, protocol
    /// desynchronization (cured by reconnecting), capacity-refused
    /// handshakes, and shedding statuses. `false` for verdicts that a
    /// retry cannot change (version/weight mismatch, bad request,
    /// unreachable-as-error, exhausted retries).
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) | ClientError::Protocol(_) => true,
            ClientError::Refused(s) => *s == HelloStatus::AtCapacity,
            ClientError::Server(s) => s.is_retryable(),
            ClientError::RetriesExhausted { .. } => false,
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// The decoded body of one response, shaped by the request that earned it.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyBody<W> {
    /// No body (non-`Ok` statuses, and `Ok` answers to Ping/Reload).
    None,
    /// A Dist answer.
    Dist(W),
    /// A Path answer (the `u → v` vertex walk).
    Path(Vec<NodeId>),
    /// A KNearest answer.
    KNearest(Vec<(NodeId, W)>),
    /// A Health answer.
    Health(HealthReport),
}

/// One response from a pipelined batch, in the order requests were added.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply<W> {
    /// Echoed request id.
    pub id: u32,
    /// Outcome.
    pub status: Status,
    /// Snapshot generation that answered.
    pub generation: u64,
    /// Decoded body (present only on `Ok` query answers).
    pub body: ReplyBody<W>,
}

impl<W> Reply<W> {
    /// `true` when this reply is a shed ([`Status::Busy`] /
    /// [`Status::Overloaded`]) and the identical request should simply
    /// be resent — the re-drive loop [`ResilientClient`] runs for you.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        self.status.is_retryable()
    }
}

/// Read timeout [`Client::connect`] applies around the handshake, so a
/// server that accepts but never says hello yields a timeout error
/// instead of blocking the client forever.
pub const DEFAULT_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// A blocking connection to a `congest-serve` server, generic over the
/// weight type the server must be serving (verified at the handshake).
pub struct Client<W> {
    stream: TcpStream,
    hello: ServerHello,
    /// Bytes read but not yet consumed as frames.
    inbuf: Vec<u8>,
    next_id: u32,
    _weight: std::marker::PhantomData<W>,
}

/// What each pending request in a batch expects back, so the body can
/// be decoded without guessing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Expect {
    Dist,
    Path,
    KNearest,
    Health,
    Plain,
}

/// A pipelined batch under construction; add requests, then
/// [`send`](Batch::send) them as one write.
pub struct Batch<'a, W> {
    client: &'a mut Client<W>,
    wire: Vec<u8>,
    expect: Vec<(u32, Expect)>,
}

impl<W: PortableWeight> Client<W> {
    /// Connects and performs the handshake, bounding the hello exchange
    /// by [`DEFAULT_HANDSHAKE_TIMEOUT`].
    ///
    /// # Errors
    /// [`ClientError::Refused`] when the server rejects the handshake
    /// (version/weight mismatch, at capacity); [`ClientError::Protocol`]
    /// when the peer is not a congest-serve server at all;
    /// [`ClientError::Io`] when the server stays silent past the
    /// handshake timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client<W>, ClientError> {
        Self::connect_with_timeout(addr, DEFAULT_HANDSHAKE_TIMEOUT)
    }

    /// [`connect`](Client::connect) with an explicit (nonzero) handshake
    /// timeout. Subsequent calls block without a timeout until
    /// [`set_read_timeout`](Client::set_read_timeout) says otherwise.
    ///
    /// # Errors
    /// As [`connect`](Client::connect).
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        handshake_timeout: Duration,
    ) -> Result<Client<W>, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // The hello read happens before the caller gets a handle to
        // configure timeouts on, so bound it here: a server that
        // accepts and goes silent must not hang the client.
        stream.set_read_timeout(Some(handshake_timeout))?;
        stream.write_all(&proto::encode_client_hello(W::TAG))?;
        let mut reply = [0u8; proto::SERVER_HELLO_LEN];
        stream.read_exact(&mut reply)?;
        stream.set_read_timeout(None)?;
        let hello = proto::decode_server_hello(&reply)?;
        if hello.status != HelloStatus::Ok {
            return Err(ClientError::Refused(hello.status));
        }
        if hello.weight_tag != W::TAG {
            return Err(ClientError::Protocol(ProtocolError::WeightTypeMismatch {
                found: hello.weight_tag,
                expected: W::TAG,
            }));
        }
        Ok(Client {
            stream,
            hello,
            inbuf: Vec::with_capacity(16 * 1024),
            next_id: 1, // id 0 is CONNECTION_ID, reserved for the server
            _weight: std::marker::PhantomData,
        })
    }

    /// Node count of the generation that was live at connect time.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.hello.n
    }

    /// Generation that was live at connect time (responses carry the
    /// current one).
    #[must_use]
    pub fn generation_at_connect(&self) -> u64 {
        self.hello.generation
    }

    /// The server's per-batch in-flight window: pipelining more requests
    /// than this into one batch earns [`Status::Busy`] for the excess.
    #[must_use]
    pub fn window(&self) -> u32 {
        self.hello.window
    }

    /// Applies a read timeout to subsequent calls (`None` blocks forever).
    ///
    /// # Errors
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(t)?;
        Ok(())
    }

    /// Starts a pipelined batch.
    pub fn batch(&mut self) -> Batch<'_, W> {
        Batch { client: self, wire: Vec::with_capacity(4 * 1024), expect: Vec::new() }
    }

    /// `δ(u, v)` in one round trip; `Ok(None)` when unreachable.
    ///
    /// # Errors
    /// [`ClientError::Server`] on non-success statuses, plus I/O and
    /// protocol failures.
    pub fn dist(&mut self, u: NodeId, v: NodeId) -> Result<Option<W>, ClientError> {
        let mut b = self.batch();
        b.dist(u, v);
        let reply = b.send()?.pop().expect("one reply");
        match (reply.status, reply.body) {
            (Status::Ok, ReplyBody::Dist(w)) => Ok(Some(w)),
            (Status::Unreachable, _) => Ok(None),
            (s, _) => Err(ClientError::Server(s)),
        }
    }

    /// Shortest `u → v` walk in one round trip; `Ok(None)` when unreachable.
    ///
    /// # Errors
    /// [`ClientError::Server`] on non-success statuses, plus I/O and
    /// protocol failures.
    pub fn path(&mut self, u: NodeId, v: NodeId) -> Result<Option<Vec<NodeId>>, ClientError> {
        let mut b = self.batch();
        b.path(u, v);
        let reply = b.send()?.pop().expect("one reply");
        match (reply.status, reply.body) {
            (Status::Ok, ReplyBody::Path(p)) => Ok(Some(p)),
            (Status::Unreachable, _) => Ok(None),
            (s, _) => Err(ClientError::Server(s)),
        }
    }

    /// The `k` nearest other nodes to `u`, in one round trip.
    ///
    /// # Errors
    /// [`ClientError::Server`] on non-success statuses, plus I/O and
    /// protocol failures.
    pub fn k_nearest(&mut self, u: NodeId, k: u32) -> Result<Vec<(NodeId, W)>, ClientError> {
        let mut b = self.batch();
        b.k_nearest(u, k);
        let reply = b.send()?.pop().expect("one reply");
        match (reply.status, reply.body) {
            (Status::Ok, ReplyBody::KNearest(items)) => Ok(items),
            (s, _) => Err(ClientError::Server(s)),
        }
    }

    /// Round-trip no-op; returns the generation currently serving.
    ///
    /// # Errors
    /// I/O and protocol failures.
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        let mut b = self.batch();
        b.ping();
        let reply = b.send()?.pop().expect("one reply");
        match reply.status {
            Status::Ok => Ok(reply.generation),
            s => Err(ClientError::Server(s)),
        }
    }

    /// Asks the server to reload its snapshot file; returns the new
    /// generation on success.
    ///
    /// # Errors
    /// [`ClientError::Server`] with [`Status::NotSupported`] when the
    /// server has no snapshot file, [`Status::Internal`] when the reload
    /// failed (the old generation keeps serving).
    pub fn reload(&mut self) -> Result<u64, ClientError> {
        let mut b = self.batch();
        b.reload();
        let reply = b.send()?.pop().expect("one reply");
        match reply.status {
            Status::Ok => Ok(reply.generation),
            s => Err(ClientError::Server(s)),
        }
    }

    /// Asks for the server's health report; returns it together with the
    /// generation currently serving.
    ///
    /// # Errors
    /// I/O and protocol failures.
    pub fn health(&mut self) -> Result<(u64, HealthReport), ClientError> {
        let mut b = self.batch();
        b.health();
        let reply = b.send()?.pop().expect("one reply");
        match (reply.status, reply.body) {
            (Status::Ok, ReplyBody::Health(h)) => Ok((reply.generation, h)),
            (s, _) => Err(ClientError::Server(s)),
        }
    }

    /// Reads one complete frame, growing `inbuf` with large reads.
    fn read_frame(&mut self) -> Result<Vec<u8>, ClientError> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if let Some((payload, consumed)) =
                proto::decode_frame(&self.inbuf, self.hello.max_frame_len)?
            {
                let payload = payload.to_vec();
                self.inbuf.drain(..consumed);
                return Ok(payload);
            }
            let k = self.stream.read(&mut scratch)?;
            if k == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                )));
            }
            self.inbuf.extend_from_slice(&scratch[..k]);
        }
    }
}

impl<W: PortableWeight> Batch<'_, W> {
    fn push(&mut self, expect: Expect, build: impl FnOnce(u32) -> Request) -> u32 {
        let id = self.client.next_id;
        self.client.next_id = self.client.next_id.wrapping_add(1).max(1);
        proto::encode_request(&mut self.wire, &build(id));
        self.expect.push((id, expect));
        id
    }

    /// Queues a Dist request; returns its id.
    pub fn dist(&mut self, u: NodeId, v: NodeId) -> u32 {
        self.push(Expect::Dist, |id| Request::Dist { id, u, v })
    }

    /// Queues a Path request; returns its id.
    pub fn path(&mut self, u: NodeId, v: NodeId) -> u32 {
        self.push(Expect::Path, |id| Request::Path { id, u, v })
    }

    /// Queues a KNearest request; returns its id.
    pub fn k_nearest(&mut self, u: NodeId, k: u32) -> u32 {
        self.push(Expect::KNearest, |id| Request::KNearest { id, u, k })
    }

    /// Queues a Ping; returns its id.
    pub fn ping(&mut self) -> u32 {
        self.push(Expect::Plain, |id| Request::Ping { id })
    }

    /// Queues a Reload; returns its id.
    pub fn reload(&mut self) -> u32 {
        self.push(Expect::Plain, |id| Request::Reload { id })
    }

    /// Queues a Health probe; returns its id.
    pub fn health(&mut self) -> u32 {
        self.push(Expect::Health, |id| Request::Health { id })
    }

    /// Number of requests queued so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.expect.len()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.expect.is_empty()
    }

    /// Writes every queued request in one syscall and drains exactly one
    /// response per request, returned in queue order.
    ///
    /// # Errors
    /// I/O failures, or [`ClientError::Protocol`] when a response does
    /// not parse or answers out of order.
    pub fn send(self) -> Result<Vec<Reply<W>>, ClientError> {
        let Batch { client, wire, expect } = self;
        if expect.is_empty() {
            return Ok(Vec::new());
        }
        client.stream.write_all(&wire)?;
        let mut replies = Vec::with_capacity(expect.len());
        for (id, expect) in expect {
            let payload = client.read_frame()?;
            let (head, body) = proto::decode_response_head(&payload)?;
            if head.id != id {
                // The server answers strictly in request order; a
                // mismatch means the stream is desynchronized.
                return Err(ClientError::Protocol(ProtocolError::BadBody(
                    "response id does not match request order",
                )));
            }
            let body = if head.status == Status::Ok {
                match expect {
                    Expect::Dist => ReplyBody::Dist(proto::decode_dist_body::<W>(body)?),
                    Expect::Path => ReplyBody::Path(proto::decode_path_body(body)?),
                    Expect::KNearest => {
                        ReplyBody::KNearest(proto::decode_k_nearest_body::<W>(body)?)
                    }
                    Expect::Health => ReplyBody::Health(proto::decode_health_body(body)?),
                    Expect::Plain => ReplyBody::None,
                }
            } else {
                ReplyBody::None
            };
            replies.push(Reply { id, status: head.status, generation: head.generation, body });
        }
        Ok(replies)
    }
}

// ------------------------------------------------------- resilience

/// Retry/backoff/deadline policy for a [`ResilientClient`].
///
/// Backoff is **decorrelated jitter** (`sleep = clamp(base, prev × 3)
/// picked by hash, capped at `cap`) — the spread de-synchronizes a fleet
/// of retrying clients — and the "random" pick is a splitmix64 hash of
/// `(jitter_seed, attempt)`, so the whole backoff sequence is a pure
/// function of the policy: reproducible in tests without a clock, and
/// distinct per client when `jitter_seed` differs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Hard cap on tries per operation (connection attempts and request
    /// rounds both count).
    pub max_attempts: u32,
    /// Backoff floor.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Overall wall-clock budget per operation: connects, sends, reads,
    /// and backoffs all fit inside it, and breaching it yields
    /// [`ClientError::RetriesExhausted`].
    pub op_deadline: Duration,
    /// Seed of the deterministic jitter sequence.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(250),
            op_deadline: Duration::from_secs(10),
            jitter_seed: 0x0005_EED0_FBAC_C0FF,
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep after failed attempt `attempt` (1-based),
    /// given the previous backoff — a pure function, so the full
    /// sequence is testable without sleeping.
    #[must_use]
    pub fn backoff(&self, attempt: u32, prev: Duration) -> Duration {
        // splitmix64 finalizer (shared idiom with the chaos plane).
        let mut x = self.jitter_seed ^ (u64::from(attempt) << 32);
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let base = self.base.as_nanos().max(1) as u64;
        let hi = (self.cap.as_nanos() as u64).min((prev.as_nanos() as u64).saturating_mul(3));
        let span = hi.saturating_sub(base);
        Duration::from_nanos(base + if span == 0 { 0 } else { x % span })
    }
}

/// Transport-level counters a [`ResilientClient`] keeps about its own
/// recovery work (mirrored into the global telemetry registry when the
/// plane is enabled).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Failed attempts that were retried (transport errors and shed
    /// request rounds).
    pub retries: u64,
    /// Fresh connections established after the first.
    pub reconnects: u64,
    /// Reconnect handshakes that revealed a different snapshot
    /// generation than the last one seen.
    pub generation_changes: u64,
    /// Operations that ended in [`ClientError::RetriesExhausted`].
    pub exhausted: u64,
}

/// One operation for [`ResilientClient::execute`] — a request minus the
/// wire id, which the client assigns per attempt.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ResilientOp {
    /// `δ(u, v)`.
    Dist(NodeId, NodeId),
    /// Shortest `u → v` vertex walk.
    Path(NodeId, NodeId),
    /// The `k` nearest other nodes to `u`.
    KNearest(NodeId, u32),
    /// Round-trip no-op.
    Ping,
    /// Health report probe.
    Health,
}

/// A self-healing wrapper over [`Client`]: per-op deadlines, bounded
/// retry with deterministic decorrelated-jitter backoff, automatic
/// reconnect with handshake revalidation and generation-change
/// detection, and shed-aware replay.
///
/// Every operation the protocol exposes is **read-only** (`Reload` is
/// deliberately absent here — it is the one state-changing op, so it
/// stays on the raw [`Client`]), which is what makes replay safe: a
/// request whose response was lost can always be resent without
/// changing server state, and a batch round that comes back with some
/// requests shed ([`Status::Busy`] / [`Status::Overloaded`]) re-drives
/// **only the shed requests** (via [`Reply::is_retryable`]) instead of
/// replaying answered ones.
///
/// Failure is always typed and always bounded: any single operation
/// either returns a final answer, a terminal server verdict, or
/// [`ClientError::RetriesExhausted`] carrying the attempt trace, within
/// [`RetryPolicy::op_deadline`].
pub struct ResilientClient<W> {
    addr: SocketAddr,
    policy: RetryPolicy,
    handshake_timeout: Duration,
    conn: Option<Client<W>>,
    last_generation: Option<u64>,
    stats: ResilienceStats,
}

impl<W: PortableWeight> ResilientClient<W> {
    /// Wraps `addr` with the given policy. No connection is made yet —
    /// the first operation connects (and a dead server at that point
    /// consumes retry budget like any other transport failure).
    #[must_use]
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> ResilientClient<W> {
        ResilientClient {
            addr,
            policy,
            handshake_timeout: DEFAULT_HANDSHAKE_TIMEOUT,
            conn: None,
            last_generation: None,
            stats: ResilienceStats::default(),
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Recovery-work counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    /// The most recent snapshot generation observed (from a handshake or
    /// any response), if any.
    #[must_use]
    pub fn last_generation(&self) -> Option<u64> {
        self.last_generation
    }

    /// `δ(u, v)` with retries; `Ok(None)` when unreachable.
    ///
    /// # Errors
    /// [`ClientError::Server`] on terminal statuses,
    /// [`ClientError::RetriesExhausted`] when the budget runs out.
    pub fn dist(&mut self, u: NodeId, v: NodeId) -> Result<Option<W>, ClientError> {
        let reply = self.execute_one(ResilientOp::Dist(u, v))?;
        match (reply.status, reply.body) {
            (Status::Ok, ReplyBody::Dist(w)) => Ok(Some(w)),
            (Status::Unreachable, _) => Ok(None),
            (s, _) => Err(ClientError::Server(s)),
        }
    }

    /// Shortest `u → v` walk with retries; `Ok(None)` when unreachable.
    ///
    /// # Errors
    /// As [`dist`](ResilientClient::dist).
    pub fn path(&mut self, u: NodeId, v: NodeId) -> Result<Option<Vec<NodeId>>, ClientError> {
        let reply = self.execute_one(ResilientOp::Path(u, v))?;
        match (reply.status, reply.body) {
            (Status::Ok, ReplyBody::Path(p)) => Ok(Some(p)),
            (Status::Unreachable, _) => Ok(None),
            (s, _) => Err(ClientError::Server(s)),
        }
    }

    /// The `k` nearest other nodes to `u`, with retries.
    ///
    /// # Errors
    /// As [`dist`](ResilientClient::dist).
    pub fn k_nearest(&mut self, u: NodeId, k: u32) -> Result<Vec<(NodeId, W)>, ClientError> {
        let reply = self.execute_one(ResilientOp::KNearest(u, k))?;
        match (reply.status, reply.body) {
            (Status::Ok, ReplyBody::KNearest(items)) => Ok(items),
            (s, _) => Err(ClientError::Server(s)),
        }
    }

    /// Round-trip no-op with retries; returns the serving generation.
    ///
    /// # Errors
    /// As [`dist`](ResilientClient::dist).
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        let reply = self.execute_one(ResilientOp::Ping)?;
        match reply.status {
            Status::Ok => Ok(reply.generation),
            s => Err(ClientError::Server(s)),
        }
    }

    /// Health probe with retries; returns the serving generation and the
    /// report.
    ///
    /// # Errors
    /// As [`dist`](ResilientClient::dist).
    pub fn health(&mut self) -> Result<(u64, HealthReport), ClientError> {
        let reply = self.execute_one(ResilientOp::Health)?;
        match (reply.status, reply.body) {
            (Status::Ok, ReplyBody::Health(h)) => Ok((reply.generation, h)),
            (s, _) => Err(ClientError::Server(s)),
        }
    }

    fn execute_one(&mut self, op: ResilientOp) -> Result<Reply<W>, ClientError> {
        let mut replies = self.execute(&[op])?;
        Ok(replies.pop().expect("one op yields one reply"))
    }

    /// Runs a batch of operations to completion under the policy: one
    /// pipelined round per attempt, transport failures reconnect and
    /// replay the *unanswered* operations, shed replies re-drive only
    /// themselves. Replies come back in `ops` order; terminal non-`Ok`
    /// statuses (e.g. `NodeOutOfRange`) are returned as replies, not
    /// errors, so one bad request cannot burn the batch's retry budget.
    ///
    /// # Errors
    /// [`ClientError::RetriesExhausted`] when the attempt cap or
    /// [`RetryPolicy::op_deadline`] is breached first; a non-retryable
    /// handshake refusal ([`ClientError::Refused`]) is returned as
    /// itself, immediately.
    pub fn execute(&mut self, ops: &[ResilientOp]) -> Result<Vec<Reply<W>>, ClientError> {
        let deadline = Instant::now() + self.policy.op_deadline;
        let mut results: Vec<Option<Reply<W>>> = (0..ops.len()).map(|_| None).collect();
        let mut attempts: Vec<Attempt> = Vec::new();
        let mut prev_backoff = self.policy.base;
        let telemetry = congest_telemetry::enabled();
        let mut attempt = 0u32;
        loop {
            let pending: Vec<usize> = (0..ops.len()).filter(|&i| results[i].is_none()).collect();
            if pending.is_empty() {
                return Ok(results.into_iter().map(|r| r.expect("answered")).collect());
            }
            attempt += 1;
            if attempt > self.policy.max_attempts || Instant::now() >= deadline {
                self.stats.exhausted += 1;
                if telemetry {
                    congest_telemetry::global().registry().counter("serve.client.exhausted").inc();
                }
                return Err(ClientError::RetriesExhausted { attempts });
            }
            match self.try_round(ops, &pending, &mut results, deadline) {
                Ok(()) => {
                    // Round completed; shed replies (if any) stay pending.
                    if results.iter().any(Option::is_none) {
                        prev_backoff = self.record_failure(
                            &mut attempts,
                            attempt,
                            "requests shed (Busy/Overloaded)".to_string(),
                            prev_backoff,
                            deadline,
                            results.iter().filter(|r| r.is_none()).count(),
                            telemetry,
                        );
                    }
                }
                Err(e) if e.is_retryable() => {
                    // Transport failure: the connection is gone; the next
                    // round reconnects and replays the unanswered ops.
                    self.conn = None;
                    prev_backoff = self.record_failure(
                        &mut attempts,
                        attempt,
                        e.to_string(),
                        prev_backoff,
                        deadline,
                        pending.len(),
                        telemetry,
                    );
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Books a failed attempt: trace entry, counters, and the (deadline-
    /// clamped) backoff sleep. Returns the backoff to feed the next
    /// decorrelated-jitter draw.
    #[allow(clippy::too_many_arguments)]
    fn record_failure(
        &mut self,
        attempts: &mut Vec<Attempt>,
        attempt: u32,
        error: String,
        prev_backoff: Duration,
        deadline: Instant,
        pending: usize,
        telemetry: bool,
    ) -> Duration {
        self.stats.retries += 1;
        if telemetry {
            congest_telemetry::global().registry().counter("serve.client.retries").inc();
        }
        let backoff = self.policy.backoff(attempt, prev_backoff);
        let slept = backoff.min(deadline.saturating_duration_since(Instant::now()));
        if !slept.is_zero() {
            std::thread::sleep(slept);
        }
        attempts.push(Attempt { attempt, error, backoff: slept, pending });
        backoff
    }

    /// One connect-if-needed + send + drain round over the pending ops.
    fn try_round(
        &mut self,
        ops: &[ResilientOp],
        pending: &[usize],
        results: &mut [Option<Reply<W>>],
        deadline: Instant,
    ) -> Result<(), ClientError> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "op deadline reached",
            )));
        }
        if self.conn.is_none() {
            let client = Client::<W>::connect_with_timeout(
                self.addr,
                self.handshake_timeout.min(remaining),
            )?;
            // Handshake revalidation succeeded (magic/version/weight all
            // checked by connect). Detect generation changes across
            // reconnects: a different generation means the server swapped
            // (or restarted) while we were away — safe, because every op
            // here is read-only, but worth counting and tracing.
            let gen = client.generation_at_connect();
            if self.last_generation.is_some() {
                self.stats.reconnects += 1;
                if congest_telemetry::enabled() {
                    congest_telemetry::global().registry().counter("serve.client.reconnects").inc();
                }
            }
            if let Some(last) = self.last_generation {
                if last != gen {
                    self.stats.generation_changes += 1;
                    if congest_telemetry::enabled() {
                        congest_telemetry::global()
                            .registry()
                            .counter("serve.client.generation_changes")
                            .inc();
                    }
                }
            }
            self.last_generation = Some(gen);
            self.conn = Some(client);
        }
        let client = self.conn.as_mut().expect("connected above");
        // Reads must not outlive the op deadline, give or take a poll.
        client.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
        let mut batch = client.batch();
        for &i in pending {
            match ops[i] {
                ResilientOp::Dist(u, v) => batch.dist(u, v),
                ResilientOp::Path(u, v) => batch.path(u, v),
                ResilientOp::KNearest(u, k) => batch.k_nearest(u, k),
                ResilientOp::Ping => batch.ping(),
                ResilientOp::Health => batch.health(),
            };
        }
        let replies = batch.send()?;
        for (&i, reply) in pending.iter().zip(replies) {
            self.last_generation = Some(reply.generation);
            if !reply.is_retryable() {
                results[i] = Some(reply);
            }
        }
        Ok(())
    }
}

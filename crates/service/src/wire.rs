//! The `hull` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message is one **frame**: a `u32` little-endian payload length
//! followed by the payload (capped at [`MAX_FRAME`] bytes; a peer sending
//! a longer prefix is protocol-broken and the connection is dropped).
//!
//! Request payloads start with an opcode byte and a `u16` LE shard id;
//! response payloads start with a status byte. Points and directions are
//! a `u8` dimension followed by that many `i64` LE coordinates.
//!
//! | opcode | request    | Ok-response body                               |
//! |-------:|------------|------------------------------------------------|
//! | `0x02` | `Contains` | `u8` boolean                                    |
//! | `0x03` | `Visible`  | `u32` count of visible facets (0 = inside/on)   |
//! | `0x04` | `Extreme`  | `u32` vertex id, point                          |
//! | `0x05` | `Stats`    | `u32` length + JSON utf-8                       |
//! | `0x06` | `Snapshot` | `u64` epoch, `u8` dim, points, facets           |
//! | `0x07` | `Flush`    | `u64` epoch after all prior mutations applied   |
//! | `0x08` | `Shutdown` | empty (server begins graceful shutdown)         |
//! | `0x09` | `Metrics`  | `u32` length + Prometheus text exposition utf-8 |
//! | `0x0B` | `Hello`    | `u16` protocol version                          |
//! | `0x0F` | `Tagged`   | status `0x05` + `u64` id + complete inner reply |
//! | `0x12` | `Mutate`   | `u32` count, per-mutation accepted bitmap, `u64` epoch |
//! | `0x13` | `ReplUnitFetch` | `u64` index, `u64` total, `u8` dim, typed units to frame end |
//!
//! There is one protocol version, [`PROTOCOL_VERSION`]. `Hello` carries
//! the client's version and the server answers it only when it is
//! exactly that; any other version gets an `Error` reply, so a binary
//! built against another wire format fails at connect instead of
//! misreading frames later. `Hello` is stateless and optional: a peer
//! may send requests without it. Opcodes missing from the table (among
//! them the retired `0x01`, `0x0A`, `0x0C`–`0x0E`, `0x10` and `0x11`) decode to
//! [`WireError::BadOpcode`] and get an `Error` reply; the connection
//! stays usable.
//!
//! **Writes.** `Mutate` is the only write op. It carries a list of
//! [`Mutation`]s — inserts, deletes, and window expirations — that the
//! shard worker applies as *one* journal unit (one marker, one epoch).
//! Its Ok-reply is a bitmap of which mutations entered the queue (a
//! clear bit means that mutation hit `Overloaded` backpressure and
//! should be resent) plus the shard's publication epoch at enqueue time.
//!
//! **Pipelining.** A `Tagged` request wraps any other request (never
//! another `Tagged`) with a client-chosen `u64` id; the reply comes back
//! as a `Tagged` response (status `0x05`) carrying the same id around
//! the complete inner reply. Tagged frames on one connection may be
//! answered **out of order** — the id, not arrival position, correlates
//! replies — so a client can keep many requests in flight on one
//! socket. Untagged frames keep the strict request/reply contract: on
//! any single connection they are executed and answered in arrival
//! order, one at a time.
//!
//! **Replication** is *pull-based*. A follower sends `ReplUnitFetch {
//! shard, from_index }`, its published unit count, which is also its ack
//! (it feeds the primary's `chull_replica_*` gauges). The primary answers
//! with its unit total and every typed journal unit from that index that
//! fits one frame, none when caught up. A [`ReplUnit`] is `Ops` (inserts
//! plus tombstones journaled under one marker) or `Checkpoint` (a
//! survivor set that *replaces* the follower's shard state, so rebuilds
//! replicate without shipping history): after a compaction the run starts
//! with it, at an index *ahead of* `from_index`. The follower skips
//! indices it already holds, so a re-fetched or duplicated shipment is
//! harmless.
//!
//! **Status wrappers.** `Degraded` (`u32` recovery generation + a
//! complete nested response): the shard's worker died and is replaying
//! its journal, and the enclosed answer was served from the last good
//! snapshot. `Stale` (`u64` lag + nested response): a follower serving
//! a read while `lag` units behind its primary — the epoch-staleness
//! bound, surfaced in-band. Wrapper order is fixed: `Tagged` ⊃ `Stale`
//! ⊃ `Degraded` ⊃ plain; any other nesting is a decode error, and no
//! wrapper nests in itself. The other non-Ok statuses are `Overloaded`
//! (ingest queue full — retry), `NotReady` (shard still bootstrapping
//! its seed simplex) and `Error` (+ utf-8 text).
//!
//! The per-op admission data — pipeline-wrappability and the
//! write-path flag — lives in one place, the [`OP_TABLE`] registry.
//!
//! **No decode path panics.** Every malformed byte sequence yields a
//! typed [`WireError`]; the only panics left in this module are
//! invariant violations on the *encode* side (a response we built
//! ourselves exceeding [`MAX_FRAME`] is a bug, not input).

use chull_concurrent::failpoint::{self, sites, FaultAction};
use std::io::{self, Read, Write};

/// Hard cap on one frame's payload (16 MiB — a full snapshot of a large
/// shard stays well under this; anything bigger is a broken peer).
pub const MAX_FRAME: usize = 16 << 20;

/// Shard id meaning "aggregate over all shards" (Stats only).
pub const ALL_SHARDS: u16 = u16::MAX;

/// The one wire version this build speaks; `Hello` with any other
/// version is refused.
pub const PROTOCOL_VERSION: u16 = 8;

const OP_CONTAINS: u8 = 0x02;
const OP_VISIBLE: u8 = 0x03;
const OP_EXTREME: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_SNAPSHOT: u8 = 0x06;
const OP_FLUSH: u8 = 0x07;
const OP_SHUTDOWN: u8 = 0x08;
const OP_METRICS: u8 = 0x09;
const OP_HELLO: u8 = 0x0B;
const OP_TAGGED: u8 = 0x0F;
const OP_MUTATE: u8 = 0x12;
const OP_REPL_UNIT: u8 = 0x13;

// Mutation tags inside a `Mutate` envelope.
const MUT_INSERT: u8 = 0;
const MUT_DELETE: u8 = 1;
const MUT_EXPIRE: u8 = 2;

// ReplUnit kind tags inside a `ReplUnits` reply.
const UNIT_OPS: u8 = 0;
const UNIT_CHECKPOINT: u8 = 1;

/// One wire op's registry row: whether it may ride inside a `Tagged`
/// pipeline wrapper, and whether it takes the journaled write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    /// The opcode byte.
    pub code: u8,
    /// Stable label, used for the `op="..."` metric series.
    pub name: &'static str,
    /// May the op be wrapped in a `Tagged` pipeline frame?
    pub wrappable: bool,
    /// Does the op mutate shard state (journaled write path)?
    pub write: bool,
}

const fn op(code: u8, name: &'static str, wrappable: bool, write: bool) -> OpSpec {
    OpSpec {
        code,
        name,
        wrappable,
        write,
    }
}

/// The op registry, in opcode order. Growing the protocol means adding
/// a row here plus the codec arms.
pub const OP_TABLE: &[OpSpec] = &[
    op(OP_CONTAINS, "contains", true, false),
    op(OP_VISIBLE, "visible", true, false),
    op(OP_EXTREME, "extreme", true, false),
    op(OP_STATS, "stats", true, false),
    op(OP_SNAPSHOT, "snapshot", true, false),
    op(OP_FLUSH, "flush", true, true),
    op(OP_SHUTDOWN, "shutdown", true, false),
    op(OP_METRICS, "metrics", true, false),
    op(OP_HELLO, "hello", true, false),
    op(OP_TAGGED, "tagged", false, false),
    op(OP_MUTATE, "mutate", true, true),
    op(OP_REPL_UNIT, "repl_unit", true, false),
];

/// Look up the registry row for an opcode byte.
pub fn op_spec(code: u8) -> Option<&'static OpSpec> {
    OP_TABLE.iter().find(|s| s.code == code)
}

const ST_OK: u8 = 0x00;
const ST_OVERLOADED: u8 = 0x01;
const ST_NOT_READY: u8 = 0x02;
const ST_ERROR: u8 = 0x03;
const ST_DEGRADED: u8 = 0x04;
const ST_TAGGED: u8 = 0x05;
const ST_STALE: u8 = 0x06;

/// Why a frame payload failed to decode. Typed so callers can reply
/// with a precise error status (and tests can assert on the cause)
/// instead of fishing through strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a field: needed `need` bytes at
    /// `offset`, only `have` remained.
    Truncated {
        /// Bytes the next field needed.
        need: usize,
        /// Offset the read started at.
        offset: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// Bytes left over after a complete message.
    Trailing(usize),
    /// Point/direction/snapshot dimension outside `2..=MAX_DIM`.
    BadDim(usize),
    /// Unknown request opcode.
    BadOpcode(u8),
    /// Unknown response status byte.
    BadStatus(u8),
    /// Unknown Ok-body tag.
    BadTag(u8),
    /// A declared length would exceed the frame cap.
    Oversized(usize),
    /// Text field was not valid UTF-8.
    BadUtf8(&'static str),
    /// A `Degraded` response nested inside another `Degraded`.
    NestedDegraded,
    /// A `Tagged` frame nested inside another `Tagged` (or inside a
    /// `Degraded` wrapper, which `Tagged` must enclose, not ride in).
    NestedTagged,
    /// A `Stale` wrapper nested inside another `Stale` (or inside a
    /// `Degraded`, which `Stale` must enclose, not ride in).
    NestedStale,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { need, offset, have } => write!(
                f,
                "truncated frame: need {need} bytes at offset {offset}, have {have}"
            ),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadDim(d) => write!(f, "dimension {d} out of range"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadStatus(st) => write!(f, "unknown status byte {st:#04x}"),
            WireError::BadTag(t) => write!(f, "unknown Ok-body tag {t:#04x}"),
            WireError::Oversized(n) => write!(f, "declared length {n} exceeds frame cap"),
            WireError::BadUtf8(what) => write!(f, "{what} not utf-8"),
            WireError::NestedDegraded => write!(f, "Degraded response nested in Degraded"),
            WireError::NestedTagged => write!(f, "Tagged frame nested inside another wrapper"),
            WireError::NestedStale => write!(f, "Stale wrapper nested where it may not ride"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// One op inside a `Mutate` envelope. A mixed list of these is
/// applied by the shard worker as one journal unit (one marker, one
/// epoch bump), so a delete and the insert that replaces it commit or
/// replay together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Insert one point.
    Insert(Vec<i64>),
    /// Tombstone one live copy of the point (oldest arrival first).
    /// A miss — deleting a point that is not live — is counted and
    /// ignored, never an error. Deletes are idempotent under WAL replay,
    /// which re-applies journaled tombstones exactly once. A *resend*
    /// is not: when a client or router resends an envelope after a
    /// lost reply, the duplicate delete can evict a second live copy
    /// from the refcounted live set, just as a duplicate insert adds
    /// one. Theorem 4.2 covers a set of inserts, not an insert/delete
    /// pair arriving on tagged frames. Keying writes so a resend is
    /// applied once is ROADMAP item 3.
    Delete(Vec<i64>),
    /// Expire the `n` oldest live points (explicit window advance; the
    /// serve-side window policy issues these implicitly).
    Expire(u32),
}

/// One typed journal unit shipped to a replication subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplUnit {
    /// A normal unit: the inserts and tombstones journaled together
    /// under one marker.
    Ops {
        /// Rows inserted by the unit, journal order.
        inserts: Vec<Vec<i64>>,
        /// Rows tombstoned by the unit (delete or window expiry).
        tombstones: Vec<Vec<i64>>,
    },
    /// A rebuild checkpoint: the follower must *replace* its shard
    /// state with `survivors` and resume pulling at `units_after`.
    /// Shipped when the primary compacts (tombstone-ratio or
    /// journal-ratio rebuild), so followers skip the dead history.
    Checkpoint {
        /// The primary's batch-unit count right after the checkpoint
        /// (the follower's next `from_index`).
        units_after: u64,
        /// The live rows the rebuilt hull was constructed from.
        survivors: Vec<Vec<i64>>,
    },
}

impl ReplUnit {
    /// The rows the unit inserts (a checkpoint's survivors).
    pub fn inserts(&self) -> &[Vec<i64>] {
        match self {
            ReplUnit::Ops { inserts, .. } => inserts,
            ReplUnit::Checkpoint { survivors, .. } => survivors,
        }
    }

    /// The rows the unit tombstones (none for a checkpoint).
    pub fn tombstones(&self) -> &[Vec<i64>] {
        match self {
            ReplUnit::Ops { tombstones, .. } => tombstones,
            ReplUnit::Checkpoint { .. } => &[],
        }
    }

    /// True when the unit holds no rows (the checkpoint of an emptied
    /// shard).
    pub fn is_empty(&self) -> bool {
        self.inserts().is_empty() && self.tombstones().is_empty()
    }

    /// Bytes the unit's encoding adds to a `ReplUnits` reply.
    fn wire_len(&self) -> usize {
        let rows = self.inserts().iter().chain(self.tombstones());
        let rows: usize = rows.map(|r| 8 * r.len()).sum();
        match self {
            ReplUnit::Ops { .. } => 1 + 4 + 4 + rows,
            ReplUnit::Checkpoint { .. } => 1 + 8 + 4 + rows,
        }
    }
}

/// How many of `units`, in order, one `ReplUnits` reply carries: the
/// longest run whose frame stays within [`MAX_FRAME`] even inside a
/// `Tagged` wrapper, and at least one unit, so a fetch makes progress.
pub fn units_per_frame<'a>(units: impl IntoIterator<Item = &'a ReplUnit>) -> usize {
    let empty = Box::new(Response::ReplUnits {
        index: 0,
        total: 0,
        dim: 2,
        units: Vec::new(),
    });
    let tagged = Response::Tagged {
        id: 0,
        inner: empty,
    };
    let mut used = tagged.encode().len();
    let mut fits = |(i, unit): &(usize, &ReplUnit)| {
        used += unit.wire_len();
        *i == 0 || used <= MAX_FRAME
    };
    units.into_iter().enumerate().take_while(&mut fits).count()
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Is the point inside (or on) `shard`'s current hull snapshot?
    Contains {
        /// Target shard.
        shard: u16,
        /// The query point.
        point: Vec<i64>,
    },
    /// How many hull facets are visible from the point?
    Visible {
        /// Target shard.
        shard: u16,
        /// The query point.
        point: Vec<i64>,
    },
    /// The hull vertex extreme in a direction.
    Extreme {
        /// Target shard.
        shard: u16,
        /// The direction to maximize.
        direction: Vec<i64>,
    },
    /// Service counters as JSON ([`ALL_SHARDS`] aggregates).
    Stats {
        /// Target shard, or [`ALL_SHARDS`].
        shard: u16,
    },
    /// The shard's current points and hull facets.
    Snapshot {
        /// Target shard.
        shard: u16,
    },
    /// Barrier: returns once every insert enqueued before it is applied.
    Flush {
        /// Target shard.
        shard: u16,
    },
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// The telemetry registry as Prometheus text exposition.
    Metrics,
    /// Version check (optional and stateless): answered with `Hello`
    /// when `version` is [`PROTOCOL_VERSION`], with `Error` otherwise.
    Hello {
        /// The protocol version the client speaks.
        version: u16,
    },
    /// A pipelined request: the reply will be a
    /// [`Response::Tagged`] carrying the same `id`, possibly out of
    /// order with other tagged replies on the connection. The inner
    /// request may be anything except another `Tagged`.
    Tagged {
        /// Client-chosen correlation id, echoed on the reply.
        id: u64,
        /// The request being pipelined.
        inner: Box<Request>,
    },
    /// Apply a mixed mutation list to `shard` as one journal unit —
    /// the only write op.
    Mutate {
        /// Target shard.
        shard: u16,
        /// The mutations, applied in list order within one unit.
        muts: Vec<Mutation>,
    },
    /// Pull the typed journal units from `from_index` on that fit one
    /// frame from `shard`'s replication log. After a compaction the
    /// answered index may be *ahead of* `from_index`: the run then
    /// starts with the checkpoint the follower must reset to.
    ReplUnitFetch {
        /// Source shard on the primary.
        shard: u16,
        /// Index of the first unit the subscriber still needs — its own
        /// published unit count, which makes resubscribe-with-resume a
        /// plain reconnect and is the subscriber's ack to the primary.
        from_index: u64,
    },
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Boolean answer (Contains).
    Bool(bool),
    /// Number of visible facets (Visible).
    VisibleCount(u32),
    /// Extreme vertex: id within the shard and its coordinates.
    Extreme {
        /// Vertex id in the shard's insertion order.
        vertex: u32,
        /// The vertex coordinates.
        coords: Vec<i64>,
    },
    /// Service counters as a JSON line.
    Stats(String),
    /// Epoch-stamped shard contents.
    Snapshot {
        /// Snapshot epoch (batches applied so far).
        epoch: u64,
        /// Dimension.
        dim: usize,
        /// Flat coordinates, `dim` per point, insertion order.
        points: Vec<i64>,
        /// Flat facet vertex ids, `dim` per facet.
        facets: Vec<u32>,
    },
    /// Flush barrier passed at this epoch.
    Flushed {
        /// Epoch after the barrier.
        epoch: u64,
    },
    /// Server acknowledges shutdown.
    ShuttingDown,
    /// Prometheus text exposition of the telemetry registry.
    Metrics(String),
    /// Version check passed: the server speaks this version.
    Hello {
        /// Always [`PROTOCOL_VERSION`] from this build.
        version: u16,
    },
    /// Ingest queue full — backpressure; retry later.
    Overloaded,
    /// Shard has fewer than `d + 1` affinely independent points.
    NotReady,
    /// The shard's worker is recovering (generation counts recoveries);
    /// the nested response was served from the last good snapshot.
    Degraded {
        /// Shard recovery generation (how many workers have died).
        generation: u32,
        /// The answer, served from the last published snapshot.
        inner: Box<Response>,
    },
    /// The reply to a [`Request::Tagged`]: the request's
    /// correlation id around the complete inner response. Always the
    /// outermost wrapper (a `Degraded` inner is legal; another
    /// `Tagged` is not).
    Tagged {
        /// The correlation id from the request.
        id: u64,
        /// The answer to the wrapped request.
        inner: Box<Response>,
    },
    /// Mutation envelope outcome: which mutations were queued, and the
    /// shard's publication epoch at enqueue time. The bitmap is
    /// positional over the request's mutation list.
    Mutated {
        /// `accepted[i]` iff mutation `i` entered the ingest queue (a
        /// clear bit means backpressure — retry that mutation).
        accepted: Vec<bool>,
        /// Snapshot epoch when the envelope was enqueued.
        epoch: u64,
    },
    /// A run of consecutive typed journal units (reply to
    /// [`Request::ReplUnitFetch`]), as many as fit one frame
    /// ([`units_per_frame`]). An empty run means caught up.
    ReplUnits {
        /// Index of the first unit in the shard's (possibly
        /// checkpointed) replication log; above the requested
        /// `from_index` when the run starts with a checkpoint.
        index: u64,
        /// The shard's total unit count at reply time — the
        /// subscriber's staleness bound is `total - applied`.
        total: u64,
        /// Dimension.
        dim: usize,
        /// The units, at indices `index..`.
        units: Vec<ReplUnit>,
    },
    /// The answer was served by a follower `lag` batch units behind
    /// its replication source: the epoch-staleness bound,
    /// surfaced in-band. Wrapper order: `Tagged` ⊃ `Stale` ⊃
    /// `Degraded` ⊃ plain.
    Stale {
        /// Batch units the serving follower trails its primary by.
        lag: u64,
        /// The answer, served from the follower's latest snapshot.
        inner: Box<Response>,
    },
    /// Request failed.
    Error(String),
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_point(out: &mut Vec<u8>, p: &[i64]) {
    out.push(p.len() as u8);
    for &c in p {
        out.extend_from_slice(&c.to_le_bytes());
    }
}
/// `u32` count, then dim-less flat rows (the envelope carries `dim`).
fn put_rows(out: &mut Vec<u8>, rows: &[Vec<i64>]) {
    put_u32(out, rows.len() as u32);
    for p in rows {
        for &c in p {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
}
/// LSB-first accept bitmap: bit `i` lives at byte `i/8`, bit `i%8`.
fn put_bitmap(out: &mut Vec<u8>, bits: &[bool]) {
    put_u32(out, bits.len() as u32);
    let mut byte = 0u8;
    for (i, &a) in bits.iter().enumerate() {
        if a {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        out.push(byte);
    }
}

/// Byte-slice cursor for decoding; every read is bounds-checked so a
/// malformed frame yields a [`WireError`], never a panic (no `unwrap`
/// anywhere on this path — fixed-size reads build their arrays by
/// index, which the preceding bounds check makes infallible).
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.at + n > self.buf.len() {
            return Err(WireError::Truncated {
                need: n,
                offset: self.at,
                have: self.buf.len() - self.at,
            });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }
    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }
    fn point(&mut self) -> Result<Vec<i64>, WireError> {
        let d = self.u8()? as usize;
        if !(2..=chull_core::facet::MAX_DIM).contains(&d) {
            return Err(WireError::BadDim(d));
        }
        (0..d).map(|_| self.i64()).collect()
    }
    /// A declared element count must fit in the remaining payload, so a
    /// forged header cannot make us reserve gigabytes.
    fn checked_count(&self, n: usize, elem_bytes: usize) -> Result<usize, WireError> {
        if n.saturating_mul(elem_bytes) > self.buf.len() - self.at {
            return Err(WireError::Oversized(n * elem_bytes));
        }
        Ok(n)
    }
    /// `u32` count then that many dim-less flat rows of `dim` coords.
    fn rows(&mut self, dim: usize) -> Result<Vec<Vec<i64>>, WireError> {
        let declared = self.u32()? as usize;
        let n = self.checked_count(declared, dim * 8)?;
        (0..n)
            .map(|_| (0..dim).map(|_| self.i64()).collect())
            .collect()
    }
    /// `u32` count then an LSB-first bitmap of that many bits.
    fn bitmap(&mut self) -> Result<Vec<bool>, WireError> {
        let declared = self.u32()? as usize;
        // take() bounds-checks the bitmap before the Vec is sized, so
        // a forged count cannot over-allocate.
        let bits = self.take(declared.div_ceil(8))?;
        Ok((0..declared)
            .map(|i| bits[i / 8] >> (i % 8) & 1 != 0)
            .collect())
    }
    fn done(&self) -> Result<(), WireError> {
        if self.at != self.buf.len() {
            return Err(WireError::Trailing(self.buf.len() - self.at));
        }
        Ok(())
    }
}

impl Request {
    /// The opcode byte this request serializes under.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Contains { .. } => OP_CONTAINS,
            Request::Visible { .. } => OP_VISIBLE,
            Request::Extreme { .. } => OP_EXTREME,
            Request::Stats { .. } => OP_STATS,
            Request::Snapshot { .. } => OP_SNAPSHOT,
            Request::Flush { .. } => OP_FLUSH,
            Request::Shutdown => OP_SHUTDOWN,
            Request::Metrics => OP_METRICS,
            Request::Hello { .. } => OP_HELLO,
            Request::Tagged { .. } => OP_TAGGED,
            Request::Mutate { .. } => OP_MUTATE,
            Request::ReplUnitFetch { .. } => OP_REPL_UNIT,
        }
    }

    /// The registry row for this request's op (every variant has one).
    pub fn spec(&self) -> &'static OpSpec {
        op_spec(self.opcode()).expect("every Request variant is registered in OP_TABLE")
    }

    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Request::Contains { shard, point } => {
                out.push(OP_CONTAINS);
                put_u16(&mut out, *shard);
                put_point(&mut out, point);
            }
            Request::Visible { shard, point } => {
                out.push(OP_VISIBLE);
                put_u16(&mut out, *shard);
                put_point(&mut out, point);
            }
            Request::Extreme { shard, direction } => {
                out.push(OP_EXTREME);
                put_u16(&mut out, *shard);
                put_point(&mut out, direction);
            }
            Request::Stats { shard } => {
                out.push(OP_STATS);
                put_u16(&mut out, *shard);
            }
            Request::Snapshot { shard } => {
                out.push(OP_SNAPSHOT);
                put_u16(&mut out, *shard);
            }
            Request::Flush { shard } => {
                out.push(OP_FLUSH);
                put_u16(&mut out, *shard);
            }
            Request::Shutdown => {
                out.push(OP_SHUTDOWN);
                put_u16(&mut out, 0);
            }
            Request::Metrics => {
                out.push(OP_METRICS);
                put_u16(&mut out, 0);
            }
            Request::Hello { version } => {
                out.push(OP_HELLO);
                put_u16(&mut out, 0);
                put_u16(&mut out, *version);
            }
            Request::Tagged { id, inner } => {
                assert!(
                    !matches!(**inner, Request::Tagged { .. }),
                    "invariant: Tagged requests never nest"
                );
                out.push(OP_TAGGED);
                put_u16(&mut out, 0);
                put_u64(&mut out, *id);
                out.extend_from_slice(&inner.encode());
            }
            Request::Mutate { shard, muts } => {
                out.push(OP_MUTATE);
                put_u16(&mut out, *shard);
                put_u32(&mut out, muts.len() as u32);
                for m in muts {
                    match m {
                        Mutation::Insert(p) => {
                            out.push(MUT_INSERT);
                            put_point(&mut out, p);
                        }
                        Mutation::Delete(p) => {
                            out.push(MUT_DELETE);
                            put_point(&mut out, p);
                        }
                        Mutation::Expire(n) => {
                            out.push(MUT_EXPIRE);
                            put_u32(&mut out, *n);
                        }
                    }
                }
            }
            Request::ReplUnitFetch { shard, from_index } => {
                out.push(OP_REPL_UNIT);
                put_u16(&mut out, *shard);
                put_u64(&mut out, *from_index);
            }
        }
        out
    }

    /// Parse a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Request, WireError> {
        let mut c = Cursor::new(buf);
        let req = Self::decode_at(&mut c, true)?;
        c.done()?;
        Ok(req)
    }

    fn decode_at(c: &mut Cursor<'_>, allow_tagged: bool) -> Result<Request, WireError> {
        let op = c.u8()?;
        let shard = c.u16()?;
        let req = match op {
            OP_CONTAINS => Request::Contains {
                shard,
                point: c.point()?,
            },
            OP_VISIBLE => Request::Visible {
                shard,
                point: c.point()?,
            },
            OP_EXTREME => Request::Extreme {
                shard,
                direction: c.point()?,
            },
            OP_STATS => Request::Stats { shard },
            OP_SNAPSHOT => Request::Snapshot { shard },
            OP_FLUSH => Request::Flush { shard },
            OP_SHUTDOWN => Request::Shutdown,
            OP_METRICS => Request::Metrics,
            OP_HELLO => Request::Hello { version: c.u16()? },
            OP_TAGGED => {
                if !allow_tagged {
                    return Err(WireError::NestedTagged);
                }
                let id = c.u64()?;
                Request::Tagged {
                    id,
                    inner: Box::new(Self::decode_at(c, false)?),
                }
            }
            OP_MUTATE => {
                let declared = c.u32()? as usize;
                // Smallest wire mutation: 1 tag byte + u32 expire count.
                let n = c.checked_count(declared, 5)?;
                let muts = (0..n)
                    .map(|_| {
                        Ok(match c.u8()? {
                            MUT_INSERT => Mutation::Insert(c.point()?),
                            MUT_DELETE => Mutation::Delete(c.point()?),
                            MUT_EXPIRE => Mutation::Expire(c.u32()?),
                            other => return Err(WireError::BadTag(other)),
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Request::Mutate { shard, muts }
            }
            OP_REPL_UNIT => Request::ReplUnitFetch {
                shard,
                from_index: c.u64()?,
            },
            other => return Err(WireError::BadOpcode(other)),
        };
        Ok(req)
    }
}

impl Response {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Response::Bool(b) => {
                out.push(ST_OK);
                out.push(OP_CONTAINS);
                out.push(*b as u8);
            }
            Response::VisibleCount(n) => {
                out.push(ST_OK);
                out.push(OP_VISIBLE);
                put_u32(&mut out, *n);
            }
            Response::Extreme { vertex, coords } => {
                out.push(ST_OK);
                out.push(OP_EXTREME);
                put_u32(&mut out, *vertex);
                put_point(&mut out, coords);
            }
            Response::Stats(json) => {
                out.push(ST_OK);
                out.push(OP_STATS);
                put_u32(&mut out, json.len() as u32);
                out.extend_from_slice(json.as_bytes());
            }
            Response::Snapshot {
                epoch,
                dim,
                points,
                facets,
            } => {
                out.push(ST_OK);
                out.push(OP_SNAPSHOT);
                put_u64(&mut out, *epoch);
                out.push(*dim as u8);
                put_u32(&mut out, (points.len() / dim) as u32);
                for &c in points {
                    out.extend_from_slice(&c.to_le_bytes());
                }
                put_u32(&mut out, (facets.len() / dim) as u32);
                for &v in facets {
                    put_u32(&mut out, v);
                }
            }
            Response::Flushed { epoch } => {
                out.push(ST_OK);
                out.push(OP_FLUSH);
                put_u64(&mut out, *epoch);
            }
            Response::ShuttingDown => {
                out.push(ST_OK);
                out.push(OP_SHUTDOWN);
            }
            Response::Metrics(text) => {
                out.push(ST_OK);
                out.push(OP_METRICS);
                put_u32(&mut out, text.len() as u32);
                out.extend_from_slice(text.as_bytes());
            }
            Response::Mutated { accepted, epoch } => {
                out.push(ST_OK);
                out.push(OP_MUTATE);
                put_bitmap(&mut out, accepted);
                put_u64(&mut out, *epoch);
            }
            Response::Hello { version } => {
                out.push(ST_OK);
                out.push(OP_HELLO);
                put_u16(&mut out, *version);
            }
            Response::ReplUnits {
                index,
                total,
                dim,
                units,
            } => {
                out.push(ST_OK);
                out.push(OP_REPL_UNIT);
                put_u64(&mut out, *index);
                put_u64(&mut out, *total);
                out.push(*dim as u8);
                for unit in units {
                    match unit {
                        ReplUnit::Ops {
                            inserts,
                            tombstones,
                        } => {
                            out.push(UNIT_OPS);
                            put_rows(&mut out, inserts);
                            put_rows(&mut out, tombstones);
                        }
                        ReplUnit::Checkpoint {
                            units_after,
                            survivors,
                        } => {
                            out.push(UNIT_CHECKPOINT);
                            put_u64(&mut out, *units_after);
                            put_rows(&mut out, survivors);
                        }
                    }
                }
            }
            Response::Overloaded => out.push(ST_OVERLOADED),
            Response::NotReady => out.push(ST_NOT_READY),
            Response::Tagged { id, inner } => {
                // Invariant: Tagged wraps outermost, exactly once.
                assert!(
                    !matches!(**inner, Response::Tagged { .. }),
                    "invariant: Tagged responses never nest"
                );
                out.push(ST_TAGGED);
                put_u64(&mut out, *id);
                out.extend_from_slice(&inner.encode());
            }
            Response::Degraded { generation, inner } => {
                // Invariant: a Degraded wrapper is applied at most once
                // (the dispatch layer never wraps a wrapped response),
                // and the wrapper order is fixed — Stale encloses
                // Degraded, never the reverse.
                assert!(
                    !matches!(**inner, Response::Degraded { .. } | Response::Stale { .. }),
                    "invariant: Degraded wraps at most once, below Stale"
                );
                out.push(ST_DEGRADED);
                put_u32(&mut out, *generation);
                out.extend_from_slice(&inner.encode());
            }
            Response::Stale { lag, inner } => {
                // Invariant: Stale wraps at most once, inside Tagged
                // and outside Degraded.
                assert!(
                    !matches!(**inner, Response::Stale { .. } | Response::Tagged { .. }),
                    "invariant: Stale wraps at most once, inside Tagged"
                );
                out.push(ST_STALE);
                put_u64(&mut out, *lag);
                out.extend_from_slice(&inner.encode());
            }
            Response::Error(msg) => {
                out.push(ST_ERROR);
                let bytes = msg.as_bytes();
                put_u32(&mut out, bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
        }
        out
    }

    /// Parse a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Response, WireError> {
        let mut c = Cursor::new(buf);
        let resp = Self::decode_at(&mut c, true, true, true)?;
        c.done()?;
        Ok(resp)
    }

    fn decode_at(
        c: &mut Cursor<'_>,
        allow_tagged: bool,
        allow_stale: bool,
        allow_degraded: bool,
    ) -> Result<Response, WireError> {
        let resp = match c.u8()? {
            ST_OVERLOADED => Response::Overloaded,
            ST_NOT_READY => Response::NotReady,
            ST_TAGGED => {
                if !allow_tagged {
                    return Err(WireError::NestedTagged);
                }
                let id = c.u64()?;
                // Stale and Degraded answers may ride inside the tag
                // wrapper; another Tagged may not.
                let inner = Self::decode_at(c, false, true, true)?;
                return Ok(Response::Tagged {
                    id,
                    inner: Box::new(inner),
                });
            }
            ST_STALE => {
                if !allow_stale {
                    return Err(WireError::NestedStale);
                }
                let lag = c.u64()?;
                // Degraded may ride inside Stale (a follower can be
                // both behind and recovering); Tagged and Stale not.
                let inner = Self::decode_at(c, false, false, true)?;
                return Ok(Response::Stale {
                    lag,
                    inner: Box::new(inner),
                });
            }
            ST_DEGRADED => {
                if !allow_degraded {
                    return Err(WireError::NestedDegraded);
                }
                let generation = c.u32()?;
                let inner = Self::decode_at(c, false, false, false)?;
                return Ok(Response::Degraded {
                    generation,
                    inner: Box::new(inner),
                });
            }
            ST_ERROR => {
                let n = c.u32()? as usize;
                let n = c.checked_count(n, 1)?;
                let msg = String::from_utf8(c.take(n)?.to_vec())
                    .map_err(|_| WireError::BadUtf8("error message"))?;
                Response::Error(msg)
            }
            ST_OK => match c.u8()? {
                OP_CONTAINS => Response::Bool(c.u8()? != 0),
                OP_VISIBLE => Response::VisibleCount(c.u32()?),
                OP_EXTREME => {
                    let vertex = c.u32()?;
                    Response::Extreme {
                        vertex,
                        coords: c.point()?,
                    }
                }
                OP_STATS => {
                    let n = c.u32()? as usize;
                    let n = c.checked_count(n, 1)?;
                    let json = String::from_utf8(c.take(n)?.to_vec())
                        .map_err(|_| WireError::BadUtf8("stats"))?;
                    Response::Stats(json)
                }
                OP_SNAPSHOT => {
                    let epoch = c.u64()?;
                    let dim = c.u8()? as usize;
                    if !(2..=chull_core::facet::MAX_DIM).contains(&dim) {
                        return Err(WireError::BadDim(dim));
                    }
                    let declared = c.u32()? as usize;
                    let npts = c.checked_count(declared, dim * 8)?;
                    let mut points = Vec::with_capacity(npts * dim);
                    for _ in 0..npts * dim {
                        points.push(c.i64()?);
                    }
                    let declared = c.u32()? as usize;
                    let nfacets = c.checked_count(declared, dim * 4)?;
                    let mut facets = Vec::with_capacity(nfacets * dim);
                    for _ in 0..nfacets * dim {
                        facets.push(c.u32()?);
                    }
                    Response::Snapshot {
                        epoch,
                        dim,
                        points,
                        facets,
                    }
                }
                OP_FLUSH => Response::Flushed { epoch: c.u64()? },
                OP_SHUTDOWN => Response::ShuttingDown,
                OP_MUTATE => Response::Mutated {
                    accepted: c.bitmap()?,
                    epoch: c.u64()?,
                },
                OP_HELLO => Response::Hello { version: c.u16()? },
                OP_METRICS => {
                    let n = c.u32()? as usize;
                    let n = c.checked_count(n, 1)?;
                    let text = String::from_utf8(c.take(n)?.to_vec())
                        .map_err(|_| WireError::BadUtf8("metrics"))?;
                    Response::Metrics(text)
                }
                OP_REPL_UNIT => {
                    let index = c.u64()?;
                    let total = c.u64()?;
                    let dim = c.u8()? as usize;
                    if !(2..=chull_core::facet::MAX_DIM).contains(&dim) {
                        return Err(WireError::BadDim(dim));
                    }
                    // Units run to the frame's end (wrappers are prefixes).
                    let mut units = Vec::new();
                    while c.at < c.buf.len() {
                        units.push(match c.u8()? {
                            UNIT_OPS => ReplUnit::Ops {
                                inserts: c.rows(dim)?,
                                tombstones: c.rows(dim)?,
                            },
                            UNIT_CHECKPOINT => {
                                let units_after = c.u64()?;
                                ReplUnit::Checkpoint {
                                    units_after,
                                    survivors: c.rows(dim)?,
                                }
                            }
                            other => return Err(WireError::BadTag(other)),
                        });
                    }
                    Response::ReplUnits {
                        index,
                        total,
                        dim,
                        units,
                    }
                }
                other => return Err(WireError::BadTag(other)),
            },
            other => return Err(WireError::BadStatus(other)),
        };
        Ok(resp)
    }
}

/// Write one frame (length prefix + payload). A payload over
/// [`MAX_FRAME`] is rejected as `InvalidInput` (we built it — but a
/// typed error beats a panic on a connection thread).
///
/// Failpoint `wire.write_frame`: an armed chaos schedule may truncate
/// the frame after a prefix and abort, simulating a peer (or process)
/// dying mid-write — the reader sees a torn frame, never a hang.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    if let FaultAction::TruncateWrite(n) = failpoint::eval(sites::WIRE_WRITE_FRAME) {
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        let cut = n.min(frame.len());
        w.write_all(&frame[..cut])?;
        let _ = w.flush();
        return Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "failpoint 'wire.write_frame' truncated the frame",
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame payload; `Ok(None)` on clean EOF before any byte.
/// Blocking — the server uses its own deadline-aware variant.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut hdr = [0u8; 4];
    match r.read(&mut hdr) {
        Ok(0) => return Ok(None),
        Ok(mut got) => {
            while got < 4 {
                let n = r.read(&mut hdr[got..])?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "eof inside frame header",
                    ));
                }
                got += n;
            }
        }
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(hdr) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Contains {
                shard: 0,
                point: vec![i64::MIN / 8, i64::MAX / 8, 0],
            },
            Request::Visible {
                shard: 9,
                point: vec![5, 5],
            },
            Request::Extreme {
                shard: 1,
                direction: vec![1, 0, 0, -1],
            },
            Request::Stats { shard: ALL_SHARDS },
            Request::Snapshot { shard: 2 },
            Request::Flush { shard: 7 },
            Request::Shutdown,
            Request::Metrics,
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Hello { version: 1 },
            Request::Tagged {
                id: 0,
                inner: Box::new(Request::Contains {
                    shard: 1,
                    point: vec![7, -8],
                }),
            },
            Request::Tagged {
                id: u64::MAX,
                inner: Box::new(Request::Flush { shard: 0 }),
            },
            Request::Mutate {
                shard: 2,
                muts: vec![
                    Mutation::Insert(vec![1, 2]),
                    Mutation::Delete(vec![-3, 4]),
                    Mutation::Expire(7),
                    Mutation::Insert(vec![0, 0]),
                ],
            },
            Request::Mutate {
                shard: 0,
                muts: vec![],
            },
            Request::Mutate {
                shard: 9,
                muts: vec![Mutation::Expire(u32::MAX)],
            },
            Request::ReplUnitFetch {
                shard: 1,
                from_index: 0,
            },
            Request::ReplUnitFetch {
                shard: 0,
                from_index: u64::MAX,
            },
            Request::Tagged {
                id: 5,
                inner: Box::new(Request::Mutate {
                    shard: 3,
                    muts: vec![Mutation::Delete(vec![8, 8, 8])],
                }),
            },
            Request::Tagged {
                id: 11,
                inner: Box::new(Request::ReplUnitFetch {
                    shard: 0,
                    from_index: 4,
                }),
            },
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Bool(true),
            Response::Bool(false),
            Response::VisibleCount(17),
            Response::Extreme {
                vertex: 4,
                coords: vec![10, -10],
            },
            Response::Stats("{\"requests\":1}".to_string()),
            Response::Snapshot {
                epoch: 12,
                dim: 2,
                points: vec![0, 0, 4, 0, 0, 4],
                facets: vec![0, 1, 1, 2, 0, 2],
            },
            Response::Flushed { epoch: 99 },
            Response::ShuttingDown,
            Response::Metrics("# HELP x y\n# TYPE x counter\nx 1\n".to_string()),
            Response::Overloaded,
            Response::NotReady,
            Response::Degraded {
                generation: 3,
                inner: Box::new(Response::Bool(true)),
            },
            Response::Degraded {
                generation: 1,
                inner: Box::new(Response::NotReady),
            },
            Response::Error("boom".to_string()),
            Response::Hello {
                version: PROTOCOL_VERSION,
            },
            Response::Tagged {
                id: 42,
                inner: Box::new(Response::Bool(true)),
            },
            Response::Tagged {
                id: u64::MAX,
                inner: Box::new(Response::Degraded {
                    generation: 2,
                    inner: Box::new(Response::VisibleCount(5)),
                }),
            },
            Response::Tagged {
                id: 0,
                inner: Box::new(Response::Error("boom".to_string())),
            },
            Response::Stale {
                lag: 3,
                inner: Box::new(Response::Bool(true)),
            },
            Response::Stale {
                lag: 1,
                inner: Box::new(Response::Degraded {
                    generation: 2,
                    inner: Box::new(Response::NotReady),
                }),
            },
            Response::Tagged {
                id: 8,
                inner: Box::new(Response::Stale {
                    lag: 5,
                    inner: Box::new(Response::VisibleCount(2)),
                }),
            },
            Response::Mutated {
                accepted: vec![true; 8],
                epoch: 3,
            },
            Response::Mutated {
                accepted: vec![true, false, true, false, false, true, true, false, true],
                epoch: u64::MAX,
            },
            Response::Mutated {
                accepted: vec![],
                epoch: 0,
            },
            Response::ReplUnits {
                index: 4,
                total: 9,
                dim: 2,
                units: vec![ReplUnit::Ops {
                    inserts: vec![vec![0, 0], vec![5, -5]],
                    tombstones: vec![vec![7, 7]],
                }],
            },
            Response::ReplUnits {
                index: 9,
                total: 9,
                dim: 3,
                units: vec![],
            },
            Response::ReplUnits {
                index: 2,
                total: 4,
                dim: 2,
                units: vec![
                    ReplUnit::Checkpoint {
                        units_after: 3,
                        survivors: vec![vec![1, 1], vec![-1, -1], vec![9, 0]],
                    },
                    ReplUnit::Ops {
                        inserts: vec![vec![2, 2]],
                        tombstones: vec![],
                    },
                ],
            },
            Response::Tagged {
                id: 6,
                inner: Box::new(Response::Mutated {
                    accepted: vec![true; 9],
                    epoch: 3,
                }),
            },
        ];
        for r in resps {
            if let Response::ReplUnits { units, .. } = &r {
                // Status, op, index, total and dim, then each unit.
                let body: usize = units.iter().map(ReplUnit::wire_len).sum();
                assert_eq!(r.encode().len(), 2 + 8 + 8 + 1 + body, "{r:?}");
            }
            assert_eq!(Response::decode(&r.encode()).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn malformed_frames_error_not_panic() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xEE, 0, 0]).is_err());
        // Truncated point.
        assert!(Request::decode(&[OP_CONTAINS, 0, 0, 2, 1, 2, 3]).is_err());
        // Dimension out of range.
        assert!(Request::decode(&[OP_CONTAINS, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // Trailing garbage.
        let mut buf = Request::Shutdown.encode();
        buf.push(0);
        assert_eq!(Request::decode(&buf), Err(WireError::Trailing(1)));
        assert_eq!(Response::decode(&[0x77]), Err(WireError::BadStatus(0x77)));
        // Truncated Hello.
        assert!(Request::decode(&[OP_HELLO, 0, 0, 2]).is_err());
        assert!(Response::decode(&[ST_OK, OP_HELLO, 2]).is_err());
    }

    #[test]
    fn retired_opcodes_are_unknown() {
        for op in [0x01, 0x0A, 0x0C, 0x0D, 0x0E, 0x10, 0x11] {
            assert_eq!(op_spec(op), None);
            assert_eq!(
                Request::decode(&[op, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
                Err(WireError::BadOpcode(op))
            );
        }
    }

    #[test]
    fn mutate_and_unit_bodies_are_bounds_checked() {
        // Mutate with a forged count far beyond the payload.
        let mut buf = vec![OP_MUTATE, 0, 0];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.push(MUT_EXPIRE);
        assert!(matches!(
            Request::decode(&buf),
            Err(WireError::Oversized(_))
        ));
        // Mutate with an unknown mutation tag.
        let mut buf = vec![OP_MUTATE, 0, 0];
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(9);
        buf.extend_from_slice(&[0; 4]);
        assert_eq!(Request::decode(&buf), Err(WireError::BadTag(9)));
        // Mutate whose count says 2 but only one mutation follows.
        let mut buf = vec![OP_MUTATE, 0, 0];
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.push(MUT_EXPIRE);
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.push(0);
        assert!(Request::decode(&buf).is_err());
        // Delete with a dimension out of range.
        let mut buf = vec![OP_MUTATE, 0, 0];
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(MUT_DELETE);
        buf.push(1);
        buf.extend_from_slice(&[0; 8]);
        assert_eq!(Request::decode(&buf), Err(WireError::BadDim(1)));
        // ReplUnits with an unknown unit kind.
        let mut buf = vec![ST_OK, OP_REPL_UNIT];
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(2);
        buf.push(7);
        assert_eq!(Response::decode(&buf), Err(WireError::BadTag(7)));
        // ReplUnits checkpoint claiming a gigantic survivor count.
        let mut buf = vec![ST_OK, OP_REPL_UNIT];
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(2);
        buf.push(UNIT_CHECKPOINT);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::Oversized(_))
        ));
        // Truncated ReplUnitFetch (index cut short).
        assert!(Request::decode(&[OP_REPL_UNIT, 0, 0, 1, 2]).is_err());
        // Mutated reply bitmap claiming a gigantic envelope.
        let mut buf = vec![ST_OK, OP_MUTATE];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.push(0xFF);
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn op_table_is_sound() {
        // Codes are unique and every row resolves through op_spec.
        for (i, s) in OP_TABLE.iter().enumerate() {
            assert_eq!(op_spec(s.code), Some(s), "row {i}");
            for t in &OP_TABLE[i + 1..] {
                assert_ne!(s.code, t.code, "duplicate opcode {:#04x}", s.code);
                assert_ne!(s.name, t.name, "duplicate op name {}", s.name);
            }
        }
        assert_eq!(op_spec(0xEE), None);
        // Every Request variant maps to a registered row.
        let reqs = [
            Request::Shutdown,
            Request::Mutate {
                shard: 0,
                muts: vec![],
            },
            Request::ReplUnitFetch {
                shard: 0,
                from_index: 0,
            },
        ];
        assert_eq!(reqs[0].spec().name, "shutdown");
        assert_eq!(reqs[1].spec().name, "mutate");
        assert!(reqs[1].spec().write);
        assert_eq!(reqs[2].spec().name, "repl_unit");
        assert!(!reqs[2].spec().write);
        // Only Tagged refuses to ride inside Tagged.
        for s in OP_TABLE {
            assert_eq!(s.wrappable, s.name != "tagged", "{}", s.name);
        }
    }

    #[test]
    fn stale_wrapper_nesting_rules() {
        // Stale inside Stale: rejected.
        let mut buf = vec![ST_STALE];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(
            &Response::Stale {
                lag: 2,
                inner: Box::new(Response::NotReady),
            }
            .encode(),
        );
        assert_eq!(Response::decode(&buf), Err(WireError::NestedStale));
        // Stale inside Degraded: wrapper order is fixed, rejected.
        let mut buf = vec![ST_DEGRADED];
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(
            &Response::Stale {
                lag: 2,
                inner: Box::new(Response::NotReady),
            }
            .encode(),
        );
        assert_eq!(Response::decode(&buf), Err(WireError::NestedStale));
        // Tagged inside Stale: rejected (Tagged wraps outermost).
        let mut buf = vec![ST_STALE];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(
            &Response::Tagged {
                id: 3,
                inner: Box::new(Response::NotReady),
            }
            .encode(),
        );
        assert_eq!(Response::decode(&buf), Err(WireError::NestedTagged));
        // Truncated Stale header (lag cut short).
        assert!(Response::decode(&[ST_STALE, 1, 2]).is_err());
    }

    #[test]
    fn tagged_cannot_nest() {
        // Tagged request inside a Tagged request: rejected at decode.
        let inner = Request::Tagged {
            id: 1,
            inner: Box::new(Request::Shutdown),
        }
        .encode();
        let mut buf = vec![OP_TAGGED, 0, 0];
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&inner);
        assert_eq!(Request::decode(&buf), Err(WireError::NestedTagged));
        // Tagged response inside a Tagged response.
        let inner = Response::Tagged {
            id: 1,
            inner: Box::new(Response::NotReady),
        }
        .encode();
        let mut buf = vec![ST_TAGGED];
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&inner);
        assert_eq!(Response::decode(&buf), Err(WireError::NestedTagged));
        // Tagged riding inside Degraded: the wrapper order is fixed
        // (Tagged outermost), so this is also rejected.
        let mut buf = vec![ST_DEGRADED];
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(
            &Response::Tagged {
                id: 9,
                inner: Box::new(Response::NotReady),
            }
            .encode(),
        );
        assert_eq!(Response::decode(&buf), Err(WireError::NestedTagged));
        // Truncated Tagged header (id cut short).
        assert!(Request::decode(&[OP_TAGGED, 0, 0, 1, 2]).is_err());
        assert!(Response::decode(&[ST_TAGGED, 1]).is_err());
    }

    #[test]
    fn degraded_cannot_nest_and_error_lengths_are_checked() {
        // Degraded wrapping Degraded: rejected, not stack-overflowed.
        let mut buf = vec![ST_DEGRADED];
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(ST_DEGRADED);
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.push(ST_NOT_READY);
        assert_eq!(Response::decode(&buf), Err(WireError::NestedDegraded));
        // Error text claiming more bytes than the payload holds.
        let mut buf = vec![ST_ERROR];
        buf.extend_from_slice(&1_000_000u32.to_le_bytes());
        buf.extend_from_slice(b"hi");
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::Oversized(_))
        ));
        // Snapshot claiming a gigantic point count.
        let mut buf = vec![ST_OK, OP_SNAPSHOT];
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.push(2);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn frame_io_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
        let big = vec![0u8; MAX_FRAME + 1];
        let mut out = Vec::new();
        let e = write_frame(&mut out, &big).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing written for an oversized frame");
    }
}

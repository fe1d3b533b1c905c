//! Wire-protocol remote backend: serve any [`WarehouseBackend`] over TCP
//! and consume it from another process (or machine) through the same
//! trait.
//!
//! WarpGate is pitched as a *cloud* service: the discovery node and the
//! warehouse it indexes usually do not share a process. This module closes
//! that gap with a deliberately small binary RPC protocol built on the
//! workspace's composite-frame codec ([`wg_util::codec`]) — the same
//! length-prefixed primitives the simulated CDW already uses for scan
//! round trips, now framed onto a socket.
//!
//! ## Frame layout (WGRP v1)
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! u32 payload_len (LE) | payload
//! payload := "WGRP" magic | u32 version | body
//! request body  := u8 opcode | operands…
//! response body := u8 status (0 = ok, 1 = err) | result | encoded StoreError
//! ```
//!
//! Operands and results reuse the codec's length-prefixed strings and the
//! store's existing column wire form ([`Column::encode`]); see the opcode
//! table in [`op`]. Decoding is bounds-checked end to end: a corrupt or
//! truncated frame yields [`StoreError::Codec`], never a panic — a retired
//! opcode included.
//!
//! Every request is one opcode and its operands, nothing else: deadlines,
//! tenants and admission belong to the `WarpGate` node in front of the
//! client, which checks them before it sends a frame.
//!
//! ## Overload protection
//!
//! The server bounds its own handler threads instead of trusting clients:
//! a connection cap (excess connections get one typed, *retryable*
//! [`StoreError::Overloaded`] frame and are closed — never a silent hang)
//! and write timeouts so a hung reader cannot pin a handler thread. See
//! [`RemoteServerConfig`].
//!
//! ## Failure semantics
//!
//! Transport failures (connect refused, reset, timeout) surface as
//! [`StoreError::Unavailable`] — *retryable*, so the canonical resilient
//! stack is `RetryBackend(RemoteBackend)`: the client drops its pooled
//! connection on any I/O error and the next attempt reconnects. Errors the
//! *server's* backend returns (e.g. [`StoreError::NotFound`]) are encoded
//! and re-raised on the client unchanged, so remote and in-process
//! backends are indistinguishable to callers — the loopback parity suite
//! pins this.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use wg_util::codec::{
    get_len, get_str, get_u32, get_u64, get_u8, put_f64, put_len, put_str, put_u32, put_u64,
    put_u8, CodecError, CodecResult,
};
use wg_util::deadline::Phase;

use crate::backend::{BackendHandle, TableMeta, TableVersion, WarehouseBackend};
use crate::catalog::ColumnRef;
use crate::cdw::CostSnapshot;
use crate::column::Column;
use crate::error::{StoreError, StoreResult};
use crate::sample::SampleSpec;
use crate::table::Table;

/// Protocol magic + version.
const MAGIC: [u8; 4] = *b"WGRP";
const VERSION: u32 = 1;

/// Largest accepted frame (64 MiB): far above any sampled scan, far below
/// anything that suggests a healthy peer.
const MAX_FRAME: usize = 64 << 20;

/// How long the client waits for a response before declaring the link
/// dead. Scans in this workspace complete in milliseconds; 30 s is "the
/// peer is gone", not "the peer is slow".
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Poll interval at which server threads re-check the shutdown flag while
/// blocked on I/O.
const SERVER_POLL: Duration = Duration::from_millis(25);

/// Request opcodes. One per [`WarehouseBackend`] method; 4 and 10 are
/// retired and answered "unknown opcode".
mod op {
    pub const NAME: u8 = 1;
    pub const LIST_TABLES: u8 = 2;
    pub const TABLE_META: u8 = 3;
    pub const SCAN_TABLE: u8 = 5;
    pub const COSTS: u8 = 6;
    pub const RESET_COSTS: u8 = 7;
    pub const VALIDATE_COLUMN: u8 = 8;
    pub const SNAPSHOT_VERSIONS: u8 = 9;
    /// The one column scan: its ok-body is the cost snapshot the server's
    /// backend metered for this scan, then the column — a cold query's
    /// scan and its bill in one round trip
    /// (`WarehouseBackend::scan_column_metered`).
    pub const SCAN_COLUMN_METERED: u8 = 11;
}

// ---------------------------------------------------------------------------
// Wire codecs for the protocol's composite types.

fn put_column_ref(buf: &mut Vec<u8>, r: &ColumnRef) {
    put_str(buf, &r.database);
    put_str(buf, &r.table);
    put_str(buf, &r.column);
}

fn get_column_ref(buf: &mut &[u8]) -> CodecResult<ColumnRef> {
    // WGRP addresses are backend-relative by design: the server serves ONE
    // backend and must not care which namespace the caller attached it
    // under, so the wire carries no backend name and refs land in the
    // default namespace on both sides.
    Ok(ColumnRef::new(get_str(buf)?, get_str(buf)?, get_str(buf)?))
}

fn put_table_meta(buf: &mut Vec<u8>, m: &TableMeta) {
    put_str(buf, &m.database);
    put_str(buf, &m.table);
    put_len(buf, m.columns.len());
    for c in &m.columns {
        put_str(buf, c);
    }
    put_u64(buf, m.version);
}

fn get_table_meta(buf: &mut &[u8]) -> CodecResult<TableMeta> {
    let database = get_str(buf)?;
    let table = get_str(buf)?;
    let n = get_len(buf)?;
    let mut columns = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        columns.push(get_str(buf)?);
    }
    Ok(TableMeta { database, table, columns, version: get_u64(buf)? })
}

fn put_cost_snapshot(buf: &mut Vec<u8>, c: &CostSnapshot) {
    put_u64(buf, c.requests);
    put_u64(buf, c.bytes_scanned);
    put_f64(buf, c.virtual_secs);
    put_f64(buf, c.usd);
    put_u64(buf, c.retries);
}

fn get_cost_snapshot(buf: &mut &[u8]) -> CodecResult<CostSnapshot> {
    Ok(CostSnapshot {
        requests: get_u64(buf)?,
        bytes_scanned: get_u64(buf)?,
        virtual_secs: wg_util::codec::get_f64(buf)?,
        usd: wg_util::codec::get_f64(buf)?,
        retries: get_u64(buf)?,
    })
}

/// Encode a [`StoreError`] for the error branch of a response. Exhaustive
/// on purpose: a new error variant fails compilation here until it gets a
/// wire tag.
fn put_store_error(buf: &mut Vec<u8>, e: &StoreError) {
    match e {
        StoreError::NotFound(m) => {
            put_u8(buf, 0);
            put_str(buf, m);
        }
        StoreError::Csv { line, message } => {
            put_u8(buf, 1);
            put_u64(buf, *line as u64);
            put_str(buf, message);
        }
        StoreError::Schema(m) => {
            put_u8(buf, 2);
            put_str(buf, m);
        }
        StoreError::Join(m) => {
            put_u8(buf, 3);
            put_str(buf, m);
        }
        StoreError::Codec(c) => {
            put_u8(buf, 4);
            put_str(buf, &c.to_string());
        }
        StoreError::Backend(m) => {
            put_u8(buf, 5);
            put_str(buf, m);
        }
        StoreError::Unavailable(m) => {
            put_u8(buf, 6);
            put_str(buf, m);
        }
        StoreError::RetriesExhausted { attempts, last } => {
            put_u8(buf, 7);
            put_u32(buf, *attempts);
            put_store_error(buf, last);
        }
        StoreError::SnapshotCorrupt(m) => {
            put_u8(buf, 8);
            put_str(buf, m);
        }
        StoreError::Overloaded { retry_after_ms } => {
            put_u8(buf, 9);
            put_u64(buf, *retry_after_ms);
        }
        StoreError::QuotaExceeded { tenant } => {
            put_u8(buf, 10);
            put_str(buf, tenant);
        }
        StoreError::DeadlineExceeded { phase } => {
            put_u8(buf, 11);
            put_u8(buf, phase.to_wire());
        }
    }
}

fn get_store_error(buf: &mut &[u8]) -> CodecResult<StoreError> {
    Ok(match get_u8(buf)? {
        0 => StoreError::NotFound(get_str(buf)?),
        1 => {
            let line = get_u64(buf)? as usize;
            StoreError::Csv { line, message: get_str(buf)? }
        }
        2 => StoreError::Schema(get_str(buf)?),
        3 => StoreError::Join(get_str(buf)?),
        // The inner CodecError's structure is not worth carrying across
        // the wire; its message is.
        4 => StoreError::Codec(CodecError::Invalid(get_str(buf)?)),
        5 => StoreError::Backend(get_str(buf)?),
        6 => StoreError::Unavailable(get_str(buf)?),
        7 => {
            let attempts = get_u32(buf)?;
            let last = get_store_error(buf)?;
            StoreError::RetriesExhausted { attempts, last: Box::new(last) }
        }
        8 => StoreError::SnapshotCorrupt(get_str(buf)?),
        9 => StoreError::Overloaded { retry_after_ms: get_u64(buf)? },
        10 => StoreError::QuotaExceeded { tenant: get_str(buf)? },
        11 => {
            let tag = get_u8(buf)?;
            let phase = Phase::from_wire(tag)
                .ok_or_else(|| CodecError::Invalid(format!("unknown deadline phase {tag}")))?;
            StoreError::DeadlineExceeded { phase }
        }
        tag => return Err(CodecError::Invalid(format!("unknown StoreError tag {tag}"))),
    })
}

fn put_table(buf: &mut Vec<u8>, t: &Table) {
    put_str(buf, t.name());
    put_len(buf, t.num_columns());
    for c in t.columns() {
        c.encode(buf);
    }
}

/// Decode one column off the wire and hold it to the invariants local
/// columns have by construction (see [`Column::check`]): downstream code
/// treats a text column's code as the value's identity.
fn get_column(buf: &mut &[u8]) -> StoreResult<Column> {
    let column = Column::decode(buf)?;
    column.check()?;
    Ok(column)
}

/// The ok-body of [`op::SCAN_COLUMN_METERED`]: what the scan metered, then
/// the column, held to the same invariants as a plain scan's.
fn get_metered_column(buf: &mut &[u8]) -> StoreResult<(Column, CostSnapshot)> {
    let metered = get_cost_snapshot(buf)?;
    Ok((get_column(buf)?, metered))
}

fn get_table(buf: &mut &[u8]) -> StoreResult<Table> {
    let name = get_str(buf)?;
    let n = get_len(buf)?;
    let mut cols = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        cols.push(get_column(buf)?);
    }
    Table::new(name, cols)
}

// ---------------------------------------------------------------------------
// Framing.

fn payload_header(buf: &mut Vec<u8>) {
    wg_util::codec::put_header(buf, MAGIC, VERSION);
}

fn check_payload_header(buf: &mut &[u8]) -> CodecResult<()> {
    let version = wg_util::codec::get_header(buf, MAGIC)?;
    if version != VERSION {
        return Err(CodecError::Invalid(format!("unsupported WGRP version {version}")));
    }
    Ok(())
}

fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 4);
    put_u32(&mut frame, payload.len() as u32);
    frame.extend_from_slice(payload);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Read exactly `buf.len()` bytes, tolerating read-timeout wakeups so the
/// server can poll its shutdown flag. Returns `Ok(false)` on a clean EOF
/// *before the first byte* (peer closed between frames) and when `stop`
/// was raised; `Ok(true)` when the buffer was filled.
fn read_exact_poll(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: Option<&AtomicBool>,
) -> std::io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        if let Some(stop) = stop {
            if stop.load(Ordering::Relaxed) {
                return Ok(false);
            }
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e)
                if stop.is_some()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                // Server poll tick: loop to re-check the stop flag.
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read one frame. `Ok(None)` means clean end of stream (or shutdown).
fn read_frame(
    stream: &mut TcpStream,
    stop: Option<&AtomicBool>,
) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    if !read_exact_poll(stream, &mut len_bytes, stop)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    if !read_exact_poll(stream, &mut payload, stop)? {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        ));
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Server.

/// Resource bounds of a [`RemoteBackendServer`]: its handler threads, the
/// one resource the node's own admission gate cannot protect. The
/// defaults protect the server out of the box — an unbounded accept loop
/// lets any client storm (or leak) exhaust server threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteServerConfig {
    /// Concurrent connections served (each holds one handler thread).
    /// Excess connections receive one [`StoreError::Overloaded`] frame and
    /// are closed. `0` = unbounded (discouraged).
    pub max_connections: usize,
    /// Write timeout per response frame, so a hung or slow-reading client
    /// cannot pin a handler thread. Zero = no timeout.
    pub write_timeout: Duration,
    /// Backoff hint carried inside the `Overloaded` errors this server
    /// sheds with.
    pub retry_after_ms: u64,
}

impl Default for RemoteServerConfig {
    fn default() -> Self {
        Self { max_connections: 64, write_timeout: Duration::from_secs(5), retry_after_ms: 50 }
    }
}

/// The connection gauge and shedding counter of a running server (see
/// [`RemoteBackendServer::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RemoteServerStats {
    /// Connections currently served.
    pub live_connections: usize,
    /// Connections refused at the cap with an `Overloaded` frame.
    pub shed_connections: u64,
}

/// State shared between the accept loop and every handler thread.
struct ServerShared {
    config: RemoteServerConfig,
    live_connections: AtomicUsize,
    shed_connections: AtomicU64,
}

/// Decrements the live-connection count when a handler exits, however it
/// exits.
struct ConnectionGuard<'a>(&'a AtomicUsize);

impl Drop for ConnectionGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Serves a local [`WarehouseBackend`] to [`RemoteBackend`] clients over
/// TCP. One thread accepts connections; each connection gets a handler
/// thread answering requests until the client disconnects or the server
/// shuts down. Connection count and response writes are bounded — see
/// [`RemoteServerConfig`].
pub struct RemoteBackendServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shared: Arc<ServerShared>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for RemoteBackendServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBackendServer").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl RemoteBackendServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `backend` with the default [`RemoteServerConfig`] bounds. Returns
    /// once the listener is live — a client may connect immediately.
    pub fn serve(backend: BackendHandle, addr: impl ToSocketAddrs) -> StoreResult<Self> {
        Self::serve_with(backend, addr, RemoteServerConfig::default())
    }

    /// [`Self::serve`] with explicit resource bounds.
    pub fn serve_with(
        backend: BackendHandle,
        addr: impl ToSocketAddrs,
        config: RemoteServerConfig,
    ) -> StoreResult<Self> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| StoreError::Backend(format!("remote server bind: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| StoreError::Backend(format!("remote server nonblocking: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| StoreError::Backend(format!("remote server local_addr: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(ServerShared {
            config,
            live_connections: AtomicUsize::new(0),
            shed_connections: AtomicU64::new(0),
        });
        let accept_stop = stop.clone();
        let accept_shared = shared.clone();
        let accept_handle = std::thread::spawn(move || {
            let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
            while !accept_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut stream, _peer)) => {
                        let cap = accept_shared.config.max_connections;
                        if cap > 0 && accept_shared.live_connections.load(Ordering::Acquire) >= cap
                        {
                            // The cap protects handler threads, the one
                            // truly finite resource here. The refused
                            // client gets a typed, retryable answer —
                            // never a hang or a silent close.
                            accept_shared.shed_connections.fetch_add(1, Ordering::Relaxed);
                            refuse_connection(&mut stream, &accept_shared.config);
                            continue;
                        }
                        accept_shared.live_connections.fetch_add(1, Ordering::AcqRel);
                        let backend = backend.clone();
                        let stop = accept_stop.clone();
                        let shared = accept_shared.clone();
                        handlers.push(std::thread::spawn(move || {
                            let _guard = ConnectionGuard(&shared.live_connections);
                            serve_connection(stream, backend, &stop, &shared);
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(SERVER_POLL);
                    }
                    Err(_) => std::thread::sleep(SERVER_POLL),
                }
                handlers.retain(|h| !h.is_finished());
            }
            for h in handlers {
                let _ = h.join();
            }
        });
        Ok(Self { addr: local, stop, shared, accept_handle: Some(accept_handle) })
    }

    /// The address the server actually listens on (resolves ephemeral
    /// ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live-connection gauge and monotonic shedding counter.
    pub fn stats(&self) -> RemoteServerStats {
        RemoteServerStats {
            live_connections: self.shared.live_connections.load(Ordering::Acquire),
            shed_connections: self.shared.shed_connections.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, wake blocked handler threads, and join them all.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RemoteBackendServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Refuse an over-cap connection: answer whatever the client is about to
/// send (usually the connect handshake) with one `Overloaded` frame, then
/// drop the stream. Best-effort — the client may already be gone.
fn refuse_connection(stream: &mut TcpStream, config: &RemoteServerConfig) {
    let _ = stream.set_nodelay(true);
    if !config.write_timeout.is_zero() {
        let _ = stream.set_write_timeout(Some(config.write_timeout));
    }
    let refusal = error_response(&StoreError::Overloaded { retry_after_ms: config.retry_after_ms });
    let _ = write_frame(stream, &refusal);
}

/// The response payload for a failed request.
fn error_response(e: &StoreError) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    payload_header(&mut buf);
    put_u8(&mut buf, 1);
    put_store_error(&mut buf, e);
    buf
}

/// Hold a response payload to the frame limit the peer enforces. An
/// over-limit frame would be rejected by the client's length check as an
/// I/O error — *retryable*, so `RetryBackend` would re-issue (and the
/// backend re-bill) the same oversize scan until its attempts ran out.
/// The typed `Backend` error is fatal: one bill, one clear answer.
fn bound_response(response: Vec<u8>, limit: usize) -> Vec<u8> {
    if response.len() <= limit {
        return response;
    }
    error_response(&StoreError::Backend(format!(
        "response of {} bytes exceeds the WGRP frame limit of {limit} bytes; \
         sample the scan or narrow it",
        response.len()
    )))
}

/// One connection's request loop.
fn serve_connection(
    mut stream: TcpStream,
    backend: BackendHandle,
    stop: &AtomicBool,
    shared: &ServerShared,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(SERVER_POLL));
    if !shared.config.write_timeout.is_zero() {
        // A hung client that stops reading must not pin this handler
        // forever: the blocked response write errors out instead.
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    }
    loop {
        let payload = match read_frame(&mut stream, Some(stop)) {
            Ok(Some(p)) => p,
            // Clean disconnect, shutdown, or a broken peer: either way the
            // connection is done.
            Ok(None) | Err(_) => return,
        };
        let response = bound_response(handle_request(&payload, backend.as_ref()), MAX_FRAME);
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Decode one request payload, run it against `backend`, encode the
/// response payload.
fn handle_request(payload: &[u8], backend: &dyn WarehouseBackend) -> Vec<u8> {
    try_handle_request(payload, backend).unwrap_or_else(|e| error_response(&e))
}

fn try_handle_request(payload: &[u8], backend: &dyn WarehouseBackend) -> StoreResult<Vec<u8>> {
    let mut cursor = payload;
    check_payload_header(&mut cursor)?;
    let opcode = get_u8(&mut cursor)?;
    let mut buf = Vec::with_capacity(256);
    payload_header(&mut buf);
    put_u8(&mut buf, 0);
    match opcode {
        op::NAME => put_str(&mut buf, &backend.name()),
        op::LIST_TABLES => {
            let metas = backend.list_tables()?;
            put_len(&mut buf, metas.len());
            for m in &metas {
                put_table_meta(&mut buf, m);
            }
        }
        op::TABLE_META => {
            let database = get_str(&mut cursor)?;
            let table = get_str(&mut cursor)?;
            put_table_meta(&mut buf, &backend.table_meta(&database, &table)?);
        }
        op::SCAN_COLUMN_METERED => {
            let r = get_column_ref(&mut cursor)?;
            let sample = SampleSpec::decode(&mut cursor)?;
            let (column, metered) = backend.scan_column_metered(&r, sample)?;
            put_cost_snapshot(&mut buf, &metered);
            column.encode(&mut buf);
        }
        op::SCAN_TABLE => {
            let database = get_str(&mut cursor)?;
            let table = get_str(&mut cursor)?;
            let sample = SampleSpec::decode(&mut cursor)?;
            put_table(&mut buf, &backend.scan_table(&database, &table, sample)?);
        }
        op::COSTS => put_cost_snapshot(&mut buf, &backend.costs()),
        op::RESET_COSTS => backend.reset_costs(),
        op::VALIDATE_COLUMN => {
            let r = get_column_ref(&mut cursor)?;
            backend.validate_column(&r)?;
        }
        op::SNAPSHOT_VERSIONS => {
            let versions = backend.snapshot_versions()?;
            put_len(&mut buf, versions.len());
            for v in &versions {
                put_str(&mut buf, &v.database);
                put_str(&mut buf, &v.table);
                put_u64(&mut buf, v.version);
            }
        }
        other => {
            return Err(StoreError::Codec(CodecError::Invalid(format!("unknown opcode {other}"))))
        }
    }
    Ok(buf)
}

// ---------------------------------------------------------------------------
// Client.

/// A [`WarehouseBackend`] whose warehouse lives behind a
/// [`RemoteBackendServer`]. One pooled connection, lazily (re)established;
/// any transport failure drops it and surfaces as the *retryable*
/// [`StoreError::Unavailable`], so `RetryBackend(RemoteBackend)` rides out
/// flaky links and server restarts transparently.
pub struct RemoteBackend {
    addr: String,
    /// Server-reported backend name, fetched at connect time.
    remote_name: String,
    conn: Mutex<Option<TcpStream>>,
    /// Last successfully fetched cost snapshot. Served when a `COSTS` RPC
    /// fails: the server meter is monotonic between resets, so a stale
    /// reading keeps `CostSnapshot::since` deltas bounded by the
    /// unobserved window — an all-zero answer would instead attribute the
    /// server's whole metering history to the next delta.
    last_costs: Mutex<CostSnapshot>,
}

impl std::fmt::Debug for RemoteBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBackend")
            .field("addr", &self.addr)
            .field("remote_name", &self.remote_name)
            .finish_non_exhaustive()
    }
}

impl RemoteBackend {
    /// Connect to a [`RemoteBackendServer`] at `addr` (e.g.
    /// `"127.0.0.1:7878"`). Fails with [`StoreError::Unavailable`] if the
    /// server is unreachable.
    pub fn connect(addr: impl Into<String>) -> StoreResult<Self> {
        let backend = Self {
            addr: addr.into(),
            remote_name: String::new(),
            conn: Mutex::new(None),
            last_costs: Mutex::new(CostSnapshot::default()),
        };
        // Eagerly verify the link and learn the served backend's name.
        let mut buf = Vec::with_capacity(16);
        payload_header(&mut buf);
        put_u8(&mut buf, op::NAME);
        let resp = backend.roundtrip(&buf)?;
        let name = get_str(&mut resp.as_slice())
            .map_err(|e| StoreError::Unavailable(format!("remote handshake: {e}")))?;
        Ok(Self { remote_name: name, ..backend })
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn unavailable(&self, context: &str, e: impl std::fmt::Display) -> StoreError {
        StoreError::Unavailable(format!("remote backend {}: {context}: {e}", self.addr))
    }

    /// Send one request payload, return the response *result* bytes (header
    /// and status stripped, server-side errors re-raised). Drops the pooled
    /// connection on any transport failure so the next call reconnects.
    fn roundtrip(&self, request: &[u8]) -> StoreResult<Vec<u8>> {
        let mut guard = self.conn.lock();
        if guard.is_none() {
            let stream =
                TcpStream::connect(&self.addr).map_err(|e| self.unavailable("connect", e))?;
            let _ = stream.set_nodelay(true);
            stream
                .set_read_timeout(Some(CLIENT_IO_TIMEOUT))
                .map_err(|e| self.unavailable("configure", e))?;
            stream
                .set_write_timeout(Some(CLIENT_IO_TIMEOUT))
                .map_err(|e| self.unavailable("configure", e))?;
            *guard = Some(stream);
        }
        let stream = guard.as_mut().expect("connection just ensured");
        let outcome = write_frame(stream, request).and_then(|()| read_frame(stream, None));
        let payload = match outcome {
            Ok(Some(p)) => p,
            Ok(None) => {
                *guard = None;
                return Err(self.unavailable("read", "server closed the connection"));
            }
            Err(e) => {
                *guard = None;
                return Err(self.unavailable("io", e));
            }
        };
        drop(guard);
        let mut cursor = &payload[..];
        check_payload_header(&mut cursor)?;
        match get_u8(&mut cursor)? {
            0 => Ok(cursor.to_vec()),
            1 => Err(get_store_error(&mut cursor)?),
            other => Err(StoreError::Codec(CodecError::Invalid(format!(
                "unknown response status {other}"
            )))),
        }
    }

    fn request(&self, opcode: u8, operands: impl FnOnce(&mut Vec<u8>)) -> StoreResult<Vec<u8>> {
        let mut buf = Vec::with_capacity(128);
        payload_header(&mut buf);
        put_u8(&mut buf, opcode);
        operands(&mut buf);
        self.roundtrip(&buf)
    }
}

impl WarehouseBackend for RemoteBackend {
    fn name(&self) -> String {
        format!("remote:{}", self.remote_name)
    }

    fn list_tables(&self) -> StoreResult<Vec<TableMeta>> {
        let body = self.request(op::LIST_TABLES, |_| {})?;
        let mut cursor = &body[..];
        let n = get_len(&mut cursor)?;
        let mut metas = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            metas.push(get_table_meta(&mut cursor)?);
        }
        Ok(metas)
    }

    fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
        let body = self.request(op::TABLE_META, |buf| {
            put_str(buf, database);
            put_str(buf, table);
        })?;
        Ok(get_table_meta(&mut &body[..])?)
    }

    fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> StoreResult<Column> {
        Ok(self.scan_column_metered(r, sample)?.0)
    }

    fn scan_column_metered(
        &self,
        r: &ColumnRef,
        sample: SampleSpec,
    ) -> StoreResult<(Column, CostSnapshot)> {
        let body = self.request(op::SCAN_COLUMN_METERED, |buf| {
            put_column_ref(buf, r);
            sample.encode(buf);
        })?;
        get_metered_column(&mut &body[..])
    }

    fn scan_table(&self, database: &str, table: &str, sample: SampleSpec) -> StoreResult<Table> {
        let body = self.request(op::SCAN_TABLE, |buf| {
            put_str(buf, database);
            put_str(buf, table);
            sample.encode(buf);
        })?;
        get_table(&mut &body[..])
    }

    fn costs(&self) -> CostSnapshot {
        // The trait's cost surface is infallible; an unreachable server
        // answers with the last snapshot this client saw (see
        // `last_costs` — a zero answer would corrupt `since` deltas).
        match self
            .request(op::COSTS, |_| {})
            .and_then(|body| Ok(get_cost_snapshot(&mut &body[..])?))
        {
            Ok(fresh) => {
                *self.last_costs.lock() = fresh;
                fresh
            }
            Err(_) => *self.last_costs.lock(),
        }
    }

    fn reset_costs(&self) {
        if self.request(op::RESET_COSTS, |_| {}).is_ok() {
            *self.last_costs.lock() = CostSnapshot::default();
        }
    }

    fn validate_column(&self, r: &ColumnRef) -> StoreResult<()> {
        self.request(op::VALIDATE_COLUMN, |buf| put_column_ref(buf, r)).map(|_| ())
    }

    fn snapshot_versions(&self) -> StoreResult<Vec<TableVersion>> {
        let body = self.request(op::SNAPSHOT_VERSIONS, |_| {})?;
        let mut cursor = &body[..];
        let n = get_len(&mut cursor)?;
        let mut versions = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            versions.push(TableVersion {
                database: get_str(&mut cursor)?,
                table: get_str(&mut cursor)?,
                version: get_u64(&mut cursor)?,
            });
        }
        Ok(versions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Database, Warehouse};
    use crate::cdw::{CdwConfig, CdwConnector};

    fn local_backend() -> BackendHandle {
        let mut w = Warehouse::new("served");
        let mut db = Database::new("db");
        db.add_table(
            Table::new(
                "t",
                vec![
                    Column::text("a", (0..30).map(|i| format!("v{i}")).collect::<Vec<_>>()),
                    Column::ints("b", (0..30).collect()),
                ],
            )
            .unwrap(),
        );
        db.add_table(Table::new("u", vec![Column::floats("x", vec![1.5, 2.5, 3.5])]).unwrap());
        w.add_database(db);
        Arc::new(CdwConnector::new(w, CdwConfig::free()))
    }

    fn loopback() -> (RemoteBackendServer, RemoteBackend, BackendHandle) {
        let local = local_backend();
        let server = RemoteBackendServer::serve(local.clone(), "127.0.0.1:0").unwrap();
        let client = RemoteBackend::connect(server.local_addr().to_string()).unwrap();
        (server, client, local)
    }

    #[test]
    fn full_surface_matches_local_backend() {
        let (server, remote, local) = loopback();
        assert_eq!(remote.name(), "remote:served");

        assert_eq!(remote.list_tables().unwrap(), local.list_tables().unwrap());
        assert_eq!(remote.table_meta("db", "t").unwrap(), local.table_meta("db", "t").unwrap());
        assert_eq!(remote.snapshot_versions().unwrap(), local.snapshot_versions().unwrap());

        let r = ColumnRef::new("db", "t", "a");
        assert!(remote.validate_column(&r).is_ok());
        assert!(matches!(
            remote.validate_column(&ColumnRef::new("db", "t", "nope")),
            Err(StoreError::NotFound(_))
        ));

        // A deterministic sample scans identically through the wire.
        let spec = SampleSpec::DistinctReservoir { n: 10, seed: 7 };
        let via_remote = remote.scan_column(&r, spec).unwrap();
        let via_local = local.scan_column(&r, spec).unwrap();
        assert_eq!(via_remote.len(), via_local.len());
        for i in 0..via_remote.len() {
            assert_eq!(via_remote.get(i).to_string(), via_local.get(i).to_string());
        }

        let t = remote.scan_table("db", "t", SampleSpec::Head(5)).unwrap();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.num_columns(), 2);

        // Costs meter on the server side, visible through the client.
        let c = remote.costs();
        assert!(c.requests >= 3, "server-side billing missing: {c:?}");
        remote.reset_costs();
        assert_eq!(remote.costs().requests, 0);
        server.shutdown();
    }

    /// A backend that answers every scan with columns decoded from
    /// hand-built frames: what a buggy or hostile server could send.
    struct Forged {
        inner: BackendHandle,
        frame: Vec<u8>,
    }

    impl WarehouseBackend for Forged {
        fn name(&self) -> String {
            "forged".into()
        }
        fn list_tables(&self) -> StoreResult<Vec<TableMeta>> {
            self.inner.list_tables()
        }
        fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
            self.inner.table_meta(database, table)
        }
        fn scan_column(&self, _: &ColumnRef, _: SampleSpec) -> StoreResult<Column> {
            Ok(Column::decode(&mut &self.frame[..])?)
        }
        fn scan_table(&self, _: &str, table: &str, _: SampleSpec) -> StoreResult<Table> {
            Table::new(table, vec![Column::decode(&mut &self.frame[..])?])
        }
        fn costs(&self) -> CostSnapshot {
            self.inner.costs()
        }
        fn reset_costs(&self) {
            self.inner.reset_costs()
        }
    }

    #[test]
    fn columns_breaking_the_dictionary_invariant_are_refused_typed() {
        let text_frame = |dict: &[&str], counts: &[u32], codes: &[u32]| {
            crate::column::reference::text_frame("a", dict, counts, codes)
        };
        let r = ColumnRef::new("db", "t", "a");
        for (frame, ok) in [
            (text_frame(&["x", "y"], &[2, 1], &[0, 1, 0]), true),
            (text_frame(&["x", "y", "x"], &[1, 1, 1], &[0, 1, 2]), false),
            (text_frame(&["x", "y"], &[1, 2], &[0, 1, 0]), false),
        ] {
            let forged = Arc::new(Forged { inner: local_backend(), frame });
            let server = RemoteBackendServer::serve(forged, "127.0.0.1:0").unwrap();
            let remote = RemoteBackend::connect(server.local_addr().to_string()).unwrap();
            let column = remote.scan_column(&r, SampleSpec::Full);
            let metered = remote.scan_column_metered(&r, SampleSpec::Full);
            let table = remote.scan_table("db", "t", SampleSpec::Full);
            if ok {
                assert_eq!(column.unwrap().len(), 3);
                assert_eq!(metered.unwrap().0.len(), 3);
                assert_eq!(table.unwrap().num_rows(), 3);
            } else {
                assert!(matches!(column, Err(StoreError::Schema(_))), "got {column:?}");
                assert!(matches!(metered, Err(StoreError::Schema(_))), "got {metered:?}");
                assert!(matches!(table, Err(StoreError::Schema(_))), "got {table:?}");
            }
            server.shutdown();
        }
    }

    #[test]
    fn truncated_metered_scan_bodies_are_codec_errors() {
        let mut body = Vec::new();
        let metered = CostSnapshot {
            requests: 1,
            bytes_scanned: 77,
            virtual_secs: 0.25,
            usd: 1e-9,
            retries: 2,
        };
        put_cost_snapshot(&mut body, &metered);
        Column::text("a", ["x", "y", "x"]).encode(&mut body);
        let (column, got) = get_metered_column(&mut &body[..]).unwrap();
        assert_eq!((column.len(), got), (3, metered));
        for cut in 0..body.len() {
            let r = get_metered_column(&mut &body[..cut]);
            assert!(matches!(r, Err(StoreError::Codec(_))), "cut at {cut}: {r:?}");
        }
    }

    #[test]
    fn over_limit_response_becomes_a_typed_fatal_error_frame() {
        let backend = local_backend();
        let mut payload = Vec::new();
        payload_header(&mut payload);
        put_u8(&mut payload, op::SCAN_COLUMN_METERED);
        put_column_ref(&mut payload, &ColumnRef::new("db", "t", "a"));
        SampleSpec::Full.encode(&mut payload);
        let response = handle_request(&payload, backend.as_ref());

        // At or under the limit the response goes out untouched.
        assert_eq!(bound_response(response.clone(), response.len()), response);

        // One byte over: the client must see a failure it will not retry
        // (a retry would re-bill the same oversize scan).
        let bounded = bound_response(response.clone(), response.len() - 1);
        assert!(bounded.len() < response.len());
        let mut cursor = &bounded[..];
        check_payload_header(&mut cursor).unwrap();
        assert_eq!(get_u8(&mut cursor).unwrap(), 1, "must be an error response");
        let err = get_store_error(&mut cursor).unwrap();
        assert!(matches!(err, StoreError::Backend(_)), "{err:?}");
        assert!(!err.is_retryable());
        assert!(err.to_string().contains("exceeds the WGRP frame limit"), "{err}");
    }

    #[test]
    fn server_side_errors_reraise_on_the_client() {
        let (server, remote, _local) = loopback();
        let err = remote.scan_column(&ColumnRef::new("db", "nope", "c"), SampleSpec::Full);
        assert!(matches!(err, Err(StoreError::NotFound(_))), "got {err:?}");
        let err = remote.scan_table("db", "missing", SampleSpec::Full);
        assert!(matches!(err, Err(StoreError::NotFound(_))), "got {err:?}");
        server.shutdown();
    }

    #[test]
    fn unreachable_server_is_retryable_unavailable() {
        // Grab an ephemeral port, then close the listener: nothing listens.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let err = RemoteBackend::connect(format!("127.0.0.1:{port}")).unwrap_err();
        assert!(err.is_retryable(), "transport failures must be retryable: {err:?}");
    }

    #[test]
    fn client_reconnects_after_server_restart() {
        let local = local_backend();
        let server = RemoteBackendServer::serve(local.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let remote = RemoteBackend::connect(addr.to_string()).unwrap();
        assert_eq!(remote.list_tables().unwrap().len(), 2);

        // Kill the server: the next call fails with a retryable error.
        server.shutdown();
        let err = remote.list_tables().unwrap_err();
        assert!(err.is_retryable(), "dead link must be retryable: {err:?}");

        // Restart on the same port; the pooled connection was dropped, so
        // the next call transparently reconnects.
        let server = RemoteBackendServer::serve(local, addr).unwrap();
        assert_eq!(remote.list_tables().unwrap().len(), 2);
        server.shutdown();
    }

    #[test]
    fn costs_survive_a_dead_server_as_the_last_known_snapshot() {
        let (server, remote, _local) = loopback();
        remote.scan_column(&ColumnRef::new("db", "t", "a"), SampleSpec::Full).unwrap();
        let live = remote.costs();
        assert!(live.requests >= 1);
        server.shutdown();
        // A zero answer here would make `since(cost_before)` deltas claim
        // the server's whole metering history; the last-known snapshot
        // keeps deltas bounded by the unobserved window.
        assert_eq!(remote.costs(), live, "dead-server costs must be the last snapshot");
    }

    #[test]
    fn store_error_wire_codec_roundtrips() {
        let cases = vec![
            StoreError::NotFound("db.t.c".into()),
            StoreError::Csv { line: 12, message: "bad quote".into() },
            StoreError::Schema("dup".into()),
            StoreError::Join("no key".into()),
            StoreError::Backend("boom".into()),
            StoreError::SnapshotCorrupt("checksum mismatch at byte 42".into()),
            StoreError::Unavailable("flap".into()),
            StoreError::RetriesExhausted {
                attempts: 3,
                last: Box::new(StoreError::Unavailable("still down".into())),
            },
            StoreError::Overloaded { retry_after_ms: 75 },
            StoreError::QuotaExceeded { tenant: "acme".into() },
            StoreError::DeadlineExceeded { phase: Phase::BlockRead },
            StoreError::DeadlineExceeded { phase: Phase::Validate },
        ];
        for e in cases {
            let mut buf = Vec::new();
            put_store_error(&mut buf, &e);
            let mut cursor = &buf[..];
            assert_eq!(get_store_error(&mut cursor).unwrap(), e);
            assert!(cursor.is_empty());
        }
        // Codec errors survive as their message.
        let mut buf = Vec::new();
        put_store_error(&mut buf, &StoreError::Codec(CodecError::UnexpectedEof));
        let decoded = get_store_error(&mut &buf[..]).unwrap();
        assert!(matches!(decoded, StoreError::Codec(_)));
    }

    #[test]
    fn corrupt_frames_error_cleanly() {
        let backend = local_backend();
        let billed = backend.costs();
        let refusal = |payload: &[u8]| {
            let resp = handle_request(payload, backend.as_ref());
            let mut cursor = &resp[..];
            check_payload_header(&mut cursor).unwrap();
            assert_eq!(get_u8(&mut cursor).unwrap(), 1, "must be an error response");
            get_store_error(&mut cursor).unwrap()
        };
        // Bad magic.
        let mut payload = Vec::new();
        wg_util::codec::put_header(&mut payload, *b"NOPE", 1);
        assert!(matches!(refusal(&payload), StoreError::Codec(_)));

        // Unknown opcodes, the two retired ones (the plain column scan and
        // the deadline/tenant wrapper) included — each with the operands
        // it used to carry.
        let scan = |buf: &mut Vec<u8>| {
            put_column_ref(buf, &ColumnRef::new("db", "t", "a"));
            SampleSpec::Full.encode(buf);
        };
        for opcode in [200u8, 4, 10] {
            let mut payload = Vec::new();
            payload_header(&mut payload);
            put_u8(&mut payload, opcode);
            if opcode == 10 {
                put_u64(&mut payload, u64::MAX);
                put_str(&mut payload, "acme");
                put_u8(&mut payload, op::SCAN_COLUMN_METERED);
            }
            scan(&mut payload);
            let err = refusal(&payload);
            assert!(
                matches!(&err, StoreError::Codec(_)) && err.to_string().contains("unknown opcode"),
                "opcode {opcode}: {err:?}"
            );
        }
        assert_eq!(backend.costs(), billed, "a refused frame bills nothing");

        // Truncated operands.
        let mut payload = Vec::new();
        payload_header(&mut payload);
        put_u8(&mut payload, op::TABLE_META);
        assert!(matches!(refusal(&payload), StoreError::Codec(_)));
    }

    #[test]
    fn concurrent_clients_share_one_server() {
        let (server, _remote, local) = loopback();
        let addr = server.local_addr().to_string();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let addr = addr.clone();
                scope.spawn(move || {
                    let remote = RemoteBackend::connect(addr).unwrap();
                    for _ in 0..5 {
                        let col = remote
                            .scan_column(&ColumnRef::new("db", "t", "a"), SampleSpec::Head(5))
                            .unwrap();
                        assert_eq!(col.len(), 5);
                    }
                });
            }
        });
        // 4 clients × 5 scans all billed on the shared server-side meter
        // (plus the scans the fixture's own client may have issued).
        assert!(local.costs().requests >= 20);
        server.shutdown();
    }

    #[test]
    fn over_cap_connection_gets_typed_retryable_refusal() {
        let local = local_backend();
        let config = RemoteServerConfig { max_connections: 2, ..Default::default() };
        let server = RemoteBackendServer::serve_with(local, "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().to_string();

        // Fill the cap with two held-open clients.
        let a = RemoteBackend::connect(addr.clone()).unwrap();
        let b = RemoteBackend::connect(addr.clone()).unwrap();
        assert!(a.validate_column(&ColumnRef::new("db", "t", "a")).is_ok());
        assert!(b.validate_column(&ColumnRef::new("db", "t", "a")).is_ok());

        // The third connection is refused with Overloaded — retryable,
        // typed, and fast (no hang, no thread).
        let err = RemoteBackend::connect(addr.clone()).unwrap_err();
        assert!(
            matches!(err, StoreError::Overloaded { .. }),
            "over-cap connect must shed typed: {err:?}"
        );
        assert!(err.is_retryable());
        let stats = server.stats();
        assert_eq!(stats.live_connections, 2);
        assert!(stats.shed_connections >= 1);

        // Dropping one held connection frees its slot; give the server a
        // few polls to reap the handler, then a new client succeeds.
        drop(a);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let c = loop {
            match RemoteBackend::connect(addr.clone()) {
                Ok(c) => break c,
                Err(e) => {
                    assert!(e.is_retryable(), "{e:?}");
                    assert!(std::time::Instant::now() < deadline, "slot never freed");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };
        assert!(c.validate_column(&ColumnRef::new("db", "t", "a")).is_ok());
        server.shutdown();
    }

    #[test]
    fn connection_storm_never_exhausts_threads() {
        // Regression for the unbounded accept loop: a storm of 40
        // connections against a cap of 4 must leave the server with at
        // most 4 handler threads, every refused client getting a typed
        // retryable error promptly (no hang).
        let local = local_backend();
        let config = RemoteServerConfig { max_connections: 4, ..Default::default() };
        let server = RemoteBackendServer::serve_with(local, "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().to_string();

        let mut held = Vec::new();
        let mut refused = 0u32;
        for _ in 0..40 {
            match RemoteBackend::connect(addr.clone()) {
                Ok(c) => held.push(c),
                Err(e) => {
                    assert!(
                        matches!(e, StoreError::Overloaded { .. }),
                        "storm refusal must be typed: {e:?}"
                    );
                    refused += 1;
                }
            }
            let live = server.stats().live_connections;
            assert!(live <= 4, "handler threads exceeded the cap: {live}");
        }
        assert!(refused >= 36 - 4, "most storm connections must be refused: {refused}");
        assert!(server.stats().shed_connections >= u64::from(refused));
        // The held connections still work — load shedding, not collapse.
        for c in &held {
            assert!(c.validate_column(&ColumnRef::new("db", "t", "a")).is_ok());
        }
        server.shutdown();
    }
}

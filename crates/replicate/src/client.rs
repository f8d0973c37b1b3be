//! The follower's wire half: one connection, one poll per call.
//!
//! [`ReplClient`] speaks the leader's ordinary newline-JSON protocol —
//! replication is just another verb on the serving socket, so a
//! follower needs no side channel and the leader no second listener.
//! Each [`ReplClient::poll`] sends one `replicate` request and decodes
//! one response line via
//! [`disc_serve::protocol::parse_replicate_response`], which re-verifies
//! every frame's CRC before the applier sees it.
//!
//! Failures split into two kinds the caller treats differently:
//! [`PollError::Link`] (connect/read/write failed — reconnect and
//! retry; the poll is idempotent) and [`PollError::Refused`] (the
//! leader answered with a typed error or an unparseable line —
//! retrying cannot help).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use disc_serve::protocol::{parse_replicate_response, ReplicateBatch};

#[cfg(disc_fault)]
use disc_core::fault::{tick, Point};

/// Why a poll produced no batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollError {
    /// The connection failed (connect, write, read, or EOF). The link
    /// is dead; reconnect and poll again — polls are idempotent, so a
    /// lost response costs nothing but the retry.
    Link(String),
    /// The leader answered, but with a typed refusal (not a durable
    /// leader, replica-of-replica, …) or a line that does not decode.
    /// Retrying the same request cannot succeed.
    Refused(String),
}

impl std::fmt::Display for PollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PollError::Link(m) => write!(f, "replication link: {m}"),
            PollError::Refused(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for PollError {}

/// A live connection to the leader's serving socket.
pub struct ReplClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ReplClient {
    /// Connects to the leader with `timeout` on connect and on every
    /// subsequent read/write (a hung leader surfaces as
    /// [`PollError::Link`], never a stuck follower).
    pub fn connect(addr: &str, timeout: Duration) -> Result<ReplClient, PollError> {
        let link = |m: String| PollError::Link(m);
        let targets: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| link(format!("resolving {addr}: {e}")))?
            .collect();
        let target = targets
            .first()
            .ok_or_else(|| link(format!("{addr} resolves to no address")))?;
        let stream = TcpStream::connect_timeout(target, timeout)
            .map_err(|e| link(format!("connecting to {addr}: {e}")))?;
        stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| stream.set_write_timeout(Some(timeout)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| link(format!("configuring socket to {addr}: {e}")))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| link(format!("cloning socket to {addr}: {e}")))?,
        );
        Ok(ReplClient { stream, reader })
    }

    /// One replication pull: frames after generation `from` (at most
    /// `max_frames`), plus a snapshot image when `need_snapshot` forces
    /// one (bootstrap, gap resync) or the leader cannot continue the
    /// frame sequence from `from`.
    pub fn poll(
        &mut self,
        from: u64,
        max_frames: usize,
        need_snapshot: bool,
    ) -> Result<ReplicateBatch, PollError> {
        #[cfg(disc_fault)]
        if tick(Point::Link).is_some() {
            return Err(PollError::Link("injected link fault (send)".into()));
        }
        let request = format!(
            "{{\"op\":\"replicate\",\"from\":{from},\"max_frames\":{max_frames},\"snapshot\":{need_snapshot}}}\n"
        );
        self.stream
            .write_all(request.as_bytes())
            .map_err(|e| PollError::Link(format!("sending poll: {e}")))?;
        #[cfg(disc_fault)]
        if tick(Point::Link).is_some() {
            return Err(PollError::Link("injected link fault (receive)".into()));
        }
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| PollError::Link(format!("reading response: {e}")))?;
        if n == 0 {
            return Err(PollError::Link("leader closed the connection".into()));
        }
        parse_replicate_response(line.trim_end()).map_err(PollError::Refused)
    }
}

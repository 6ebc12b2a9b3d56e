//! Thread-per-connection socket plumbing of the controller-side
//! [`crate::driver`]: a [`Route`] that buffers encoded bytes until its
//! connection exists, a writer loop draining the route's outbox into the
//! socket, and a reader loop handing every batch decoded from one socket
//! read to a sink.

use openflow::{OfCodec, OfMessage};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, Sender};

/// Where encoded bytes for one endpoint go: buffered until the connection
/// exists, then straight into its writer thread's queue as whole batches.
pub(crate) enum Route {
    /// No connection yet; encoded bytes queue up and flush on attach.
    Pending(Vec<u8>),
    /// A live connection's writer-thread inbox (one chunk per drain batch).
    Connected(Sender<Vec<u8>>),
}

impl Route {
    /// Hands one encoded batch to the endpoint: buffered while the
    /// connection is down, queued on its writer thread otherwise.
    pub(crate) fn send_bytes(&mut self, bytes: Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        match self {
            Route::Pending(q) => q.extend_from_slice(&bytes),
            Route::Connected(tx) => {
                // A closed channel means the connection died; the machine's
                // timers will cope, exactly as with a lossy control channel.
                let _ = tx.send(bytes);
            }
        }
    }

    /// Switches to the fresh connection, flushing buffered pending bytes
    /// onto it as one chunk.
    pub(crate) fn connect(&mut self, tx: Sender<Vec<u8>>) {
        if let Route::Pending(q) = std::mem::replace(self, Route::Connected(tx.clone())) {
            if !q.is_empty() {
                let _ = tx.send(q);
            }
        }
    }
}

/// Stop coalescing queued chunks into one write past this size; the
/// remainder simply becomes the next write.
const MAX_COALESCED_WRITE: usize = 256 * 1024;

/// Drains an outbox of encoded chunks into a socket until either side goes
/// away.  Chunks that queued up while the previous write was in flight are
/// coalesced into a single `write_all`, so a burst of engine drains costs
/// one syscall, not one per drain.  A failed write ends the loop gracefully
/// (the caller detaches the connection and the reconnect logic takes over).
///
/// On exit the socket is shut down in both directions.  This is
/// load-bearing for reconnects: dropping the stream alone leaves the fd
/// open through the reader's clone, so the *peer* would never see EOF and
/// never free its slot.  And because an mpsc receiver keeps yielding queued
/// messages after every sender is dropped, a detach (which drops the
/// sender) lets the writer drain everything already routed — e.g. the acks
/// for barrier replies a restarting switch flushed with its dying breath —
/// before the FIN goes out.
pub(crate) fn writer_loop(rx: Receiver<Vec<u8>>, mut stream: TcpStream) {
    // `recv` keeps yielding queued chunks after the senders are dropped
    // (detach), then errors — that is the drain.
    while let Ok(mut pending) = rx.recv() {
        // The first chunk is written from its own allocation (no copy —
        // the common keeping-up case); only chunks that queued up behind
        // an in-flight write get appended to it.
        while pending.len() < MAX_COALESCED_WRITE {
            match rx.try_recv() {
                Ok(chunk) => pending.extend_from_slice(&chunk),
                Err(_) => break,
            }
        }
        if stream.write_all(&pending).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Reads OpenFlow frames off a socket and hands every batch decoded from
/// one read to `sink` at once, so the receiver can drain the whole batch
/// under a single engine lock and emit a single write per destination.
pub(crate) fn reader_loop(mut stream: TcpStream, mut sink: impl FnMut(&mut Vec<OfMessage>)) {
    let mut codec = OfCodec::new();
    let mut buf = [0u8; 4096];
    let mut msgs: Vec<OfMessage> = Vec::new();
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        codec.feed(&buf[..n]);
        msgs.clear();
        let framing_ok = codec.drain_messages_into(&mut msgs).is_ok();
        if !msgs.is_empty() {
            sink(&mut msgs);
        }
        if !framing_ok {
            return; // framing error: give up on this connection
        }
    }
}

//! Stratum 2 of the transport stack: the **framing/session layer**.
//!
//! This layer turns the raw byte pipe of [`crate::stream::ByteStream`]
//! into a sequence of whole protocol frames — the length-prefixed
//! envelope (+ FNV-1a trailer) bytes that [`crate::wire`] encodes
//! and decodes. It owns exactly two hard problems:
//!
//! * **Partial-read reassembly** ([`FrameDecoder`]): TCP delivers
//!   bytes, not messages. A frame may arrive one byte at a time or
//!   glued to the tail of the previous frame; `push` accumulates and
//!   `next_frame` yields complete frames in order, validating the
//!   version word and the body-length cap *before* buffering a body,
//!   so a hostile 4 GiB length prefix can never balloon memory.
//!
//! * **Write buffering with a hard cap** ([`WriteQueue`]): a slow or
//!   stalled reader must not grow the server's memory without bound.
//!   Enqueueing past the byte cap fails, and the reactor treats that
//!   failure as the eviction signal for the connection.
//!
//! [`FramedConn`] packages both for the blocking client side: send a
//! frame, then poll for the reply until a deadline. The server reactor
//! uses the decoder and queue directly, because its event loop owns
//! the scheduling.

use crate::error::MarketError;
use crate::stream::ByteStream;
use crate::wire::{FRAME_TRAILER_LEN, WIRE_VERSION};
use crate::WireError;
use std::io;
use std::time::Instant;

/// Frame prefix = version word (u16) + body length (u32), both
/// big-endian. Only once these 6 bytes are in hand does the decoder
/// know how many more to wait for.
pub const FRAME_PREFIX_LEN: usize = 6;

/// Default per-frame size cap (matches `wire::MAX_FIELD_LEN`): one
/// frame may not claim a body over 16 MiB, and the decoder rejects
/// the length prefix before buffering a single body byte.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 24;

/// Incremental splitter for a stream of length-prefixed envelope
/// frames. Feed arbitrary chunks in with [`push`](Self::push); pull
/// whole frames out with [`next_frame`](Self::next_frame). The byte
/// boundaries of the input chunks are invisible to the output — the
/// reassembly proptests in `core/tests/wire_props.rs` pin this.
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted away once
    /// the cursor passes half the buffer, amortizing the memmove.
    start: usize,
    max_frame: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES)
    }
}

impl FrameDecoder {
    /// A decoder that rejects frames whose declared body exceeds
    /// `max_frame` bytes.
    pub fn new(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Appends raw bytes from the stream. Compaction happens here —
    /// not in `next_frame` — so yielded frames can borrow the buffer:
    /// consumed bytes are reclaimed only once the caller has released
    /// the previous frame and comes back with more input. The buffer
    /// therefore reaches a steady-state capacity and `push` +
    /// `next_frame` allocate nothing on the warmed hot path (pinned
    /// by `crates/core/tests/frame_alloc.rs`).
    pub fn push(&mut self, chunk: &[u8]) {
        if self.start >= self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes currently buffered and not yet yielded as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Yields the next complete frame (prefix + body + trailer, the
    /// exact byte slice `Envelope::from_bytes` expects) **borrowed
    /// from the reassembly buffer** — no copy — or `None` if more
    /// bytes are needed. The slice is valid until the next `push`;
    /// decode it (or copy it out) before feeding more input. Errors
    /// are sticky in practice: a `BadVersion`/`TooLong` means the
    /// stream is desynchronized and the connection should be torn
    /// down.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let avail = self.buf.len() - self.start;
        if avail < FRAME_PREFIX_LEN {
            return Ok(None);
        }
        let p = &self.buf[self.start..];
        let version = u16::from_be_bytes([p[0], p[1]]);
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let body_len = u32::from_be_bytes([p[2], p[3], p[4], p[5]]) as usize;
        if body_len > self.max_frame {
            return Err(WireError::TooLong);
        }
        let total = FRAME_PREFIX_LEN + body_len + FRAME_TRAILER_LEN;
        if avail < total {
            return Ok(None);
        }
        let at = self.start;
        self.start += total;
        Ok(Some(&self.buf[at..at + total]))
    }
}

/// Error from [`WriteQueue::enqueue`]: accepting the frame would push
/// the queue past its byte cap. The caller decides policy; the TCP
/// reactor evicts the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// Bytes already queued when the enqueue was refused.
    pub queued: usize,
    /// The queue's configured cap.
    pub cap: usize,
}

/// Bounded outbound buffer for one connection. Frames are copied into
/// one flat, reused byte buffer, so a flush pushes *all* queued reply
/// bytes through a single `write` call — the per-connection write
/// coalescing half of the batching pipeline (DESIGN.md §16). Short
/// writes and `WouldBlock` leave a cursor mid-buffer; the backing
/// allocation reaches a steady state and is never shrunk, so the
/// warmed enqueue/flush cycle allocates nothing.
pub struct WriteQueue {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the stream.
    start: usize,
    cap: usize,
}

impl WriteQueue {
    /// A queue that refuses to hold more than `cap` bytes.
    pub fn new(cap: usize) -> WriteQueue {
        WriteQueue {
            buf: Vec::new(),
            start: 0,
            cap,
        }
    }

    /// Bytes currently queued (the unwritten remainder).
    pub fn queued_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when nothing is waiting to drain.
    pub fn is_empty(&self) -> bool {
        self.start >= self.buf.len()
    }

    /// Accepts a whole frame for eventual transmission, or refuses if
    /// the cap would be exceeded. Refusal is the slow-client signal —
    /// the frame is *not* partially accepted.
    pub fn enqueue(&mut self, frame: &[u8]) -> Result<(), QueueFull> {
        let queued = self.queued_bytes();
        if queued + frame.len() > self.cap {
            return Err(QueueFull {
                queued,
                cap: self.cap,
            });
        }
        if self.start >= self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(frame);
        Ok(())
    }

    /// Drains as much as the stream will take right now — the whole
    /// queue in one `write` when the kernel accepts it. Returns the
    /// number of bytes written; `WouldBlock` stops the drain without
    /// error, any other io error propagates (connection is dead).
    pub fn flush<S: ByteStream + ?Sized>(&mut self, stream: &mut S) -> io::Result<usize> {
        let mut wrote = 0usize;
        while self.start < self.buf.len() {
            match stream.write(&self.buf[self.start..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "stream accepted zero bytes",
                    ));
                }
                Ok(n) => {
                    wrote += n;
                    self.start += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.start >= self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(wrote)
    }
}

/// A blocking framed session over a byte stream — the client half of
/// stratum 2. Owns a [`FrameDecoder`] for the inbound direction and
/// writes outbound frames synchronously (the client has nothing
/// better to do than finish its own request).
pub struct FramedConn {
    stream: Box<dyn ByteStream>,
    decoder: FrameDecoder,
}

impl FramedConn {
    /// Wraps an established stream.
    pub fn new(stream: Box<dyn ByteStream>) -> FramedConn {
        FramedConn {
            stream,
            decoder: FrameDecoder::default(),
        }
    }

    /// Writes one whole frame, looping over short writes. `WouldBlock`
    /// from a blocking-with-timeout socket is retried in place.
    pub fn send_frame(&mut self, frame: &[u8]) -> Result<(), MarketError> {
        let mut sent = 0usize;
        while sent < frame.len() {
            match self.stream.write(&frame[sent..]) {
                Ok(0) => {
                    return Err(MarketError::Transport(
                        "connection closed while writing frame".into(),
                    ));
                }
                Ok(n) => sent += n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted =>
                {
                    continue;
                }
                Err(e) => {
                    return Err(MarketError::Transport(format!("write failed: {e}")));
                }
            }
        }
        Ok(())
    }

    /// Reads until one complete frame is assembled or `deadline`
    /// passes. A timeout maps to [`MarketError::Timeout`] (retryable);
    /// a closed or torn stream maps to [`MarketError::Transport`].
    pub fn recv_frame(&mut self, deadline: Instant) -> Result<Vec<u8>, MarketError> {
        let mut buf = [0u8; 4096];
        loop {
            // The client copies the frame out: its reply buffer decode
            // outlives the next read. The zero-copy discipline matters
            // on the server's per-frame path, not here.
            match self.decoder.next_frame() {
                Ok(Some(frame)) => return Ok(frame.to_vec()),
                Ok(None) => {}
                Err(e) => {
                    return Err(MarketError::Transport(format!(
                        "frame desync on client stream: {e:?}"
                    )));
                }
            }
            if Instant::now() >= deadline {
                return Err(MarketError::Timeout);
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(MarketError::Transport(
                        "connection closed while awaiting reply".into(),
                    ));
                }
                Ok(n) => self.decoder.push(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(MarketError::Transport(format!("read failed: {e}")));
                }
            }
        }
    }

    /// Tears the underlying stream down.
    pub fn shutdown(&mut self) {
        self.stream.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::MaRequest;
    use crate::wire::Envelope;

    /// A frame whose body length varies with `fill` (the pubkey bytes
    /// ride inside the envelope payload).
    fn frame(msg_id: u64, fill: &[u8]) -> Vec<u8> {
        Envelope {
            msg_id,
            correlation_id: 0,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            party: crate::metrics::Party::Sp,
            payload: MaRequest::FetchPayment {
                sp_pubkey: fill.to_vec(),
            },
        }
        .to_bytes()
    }

    #[test]
    fn decoder_reassembles_one_byte_feeds() {
        let f1 = frame(1, b"alpha");
        let f2 = frame(2, b"beta");
        let mut joined = f1.clone();
        joined.extend_from_slice(&f2);

        let mut dec = FrameDecoder::default();
        let mut out = Vec::new();
        for b in &joined {
            dec.push(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f.to_vec());
            }
        }
        assert_eq!(out, vec![f1, f2]);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_handles_frame_straddling_chunks() {
        let f1 = frame(7, &[0xAA; 300]);
        let f2 = frame(8, &[0xBB; 5]);
        let mut joined = f1.clone();
        joined.extend_from_slice(&f2);
        // Split in the middle of f1's body and again inside f2's prefix.
        let cuts = [0, 3, 150, f1.len() + 2, joined.len()];
        let mut dec = FrameDecoder::default();
        let mut out = Vec::new();
        for w in cuts.windows(2) {
            dec.push(&joined[w[0]..w[1]]);
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f.to_vec());
            }
        }
        assert_eq!(out, vec![f1, f2]);
    }

    #[test]
    fn decoder_rejects_bad_version_before_buffering_body() {
        let mut dec = FrameDecoder::default();
        dec.push(&[0x00, 0x99, 0, 0, 0, 4]);
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::BadVersion(0x0099))
        ));
    }

    #[test]
    fn decoder_rejects_oversized_length_prefix() {
        let mut dec = FrameDecoder::new(1024);
        let mut p = Vec::new();
        p.extend_from_slice(&WIRE_VERSION.to_be_bytes());
        p.extend_from_slice(&(4096u32).to_be_bytes());
        dec.push(&p);
        assert!(matches!(dec.next_frame(), Err(WireError::TooLong)));
    }

    #[test]
    fn decoder_rejects_legacy_v2_v3_version_words() {
        // Retired versions are foreign: refused from the prefix alone,
        // before the body is buffered.
        let env = Envelope {
            msg_id: 3,
            correlation_id: 0,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            party: crate::metrics::Party::Jo,
            payload: MaRequest::FetchData { job_id: 9 },
        };
        for version in [2u16, 3] {
            let mut bytes = env.to_bytes();
            bytes[..2].copy_from_slice(&version.to_be_bytes());
            let mut dec = FrameDecoder::default();
            dec.push(&bytes);
            assert!(matches!(
                dec.next_frame(),
                Err(WireError::BadVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn write_queue_caps_and_drains() {
        struct Trickle {
            taken: Vec<u8>,
            budget: usize,
        }
        impl ByteStream for Trickle {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
                }
                let n = buf.len().min(self.budget).min(3);
                self.taken.extend_from_slice(&buf[..n]);
                self.budget -= n;
                Ok(n)
            }
            fn shutdown(&mut self) {}
        }

        let mut q = WriteQueue::new(16);
        q.enqueue(&[1; 10]).unwrap();
        // 10 queued; another 10 would exceed the 16-byte cap.
        let err = q.enqueue(&[2; 10]).unwrap_err();
        assert_eq!(
            err,
            QueueFull {
                queued: 10,
                cap: 16
            }
        );
        q.enqueue(&[3; 6]).unwrap();
        assert_eq!(q.queued_bytes(), 16);

        // Drain through a stream that takes 3 bytes at a time and
        // stalls after 7.
        let mut s = Trickle {
            taken: Vec::new(),
            budget: 7,
        };
        let wrote = q.flush(&mut s).unwrap();
        assert_eq!(wrote, 7);
        assert_eq!(q.queued_bytes(), 9);
        assert!(!q.is_empty());

        // More budget finishes the drain, preserving byte order.
        s.budget = 100;
        q.flush(&mut s).unwrap();
        assert!(q.is_empty());
        assert_eq!(q.queued_bytes(), 0);
        let mut expect = vec![1u8; 10];
        expect.extend_from_slice(&[3; 6]);
        assert_eq!(s.taken, expect);
    }
}

//! A non-blocking framed client connection.
//!
//! The transport's framing is a little-endian `u32` length, then the body.
//! `TxClient` reads with timed blocking reads and loses its place when a
//! timeout lands mid-frame, so it cannot be polled; this reader keeps one
//! buffer per connection and a partial frame simply waits for its rest.

use mahi_mahi::node::CLIENT_PEER;
use mahi_mahi::transport::MAX_FRAME_BYTES;
use mahi_mahi::types::{Decode, Envelope, TxReceipt};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Reassembles length-prefixed frames from arbitrarily split reads.
#[derive(Debug, Default)]
pub struct FrameReader {
    buffer: Vec<u8>,
    /// Start of the first unconsumed byte in `buffer`.
    head: usize,
}

impl FrameReader {
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim consumed space once it outweighs what is still pending.
        if self.head > 0 && self.head >= self.buffer.len() - self.head {
            self.buffer.drain(..self.head);
            self.head = 0;
        }
        self.buffer.extend_from_slice(bytes);
    }

    /// The next complete frame's body, or `None` until its last byte has
    /// arrived.
    ///
    /// # Errors
    ///
    /// A length prefix above the transport's frame limit: the stream is
    /// not speaking this protocol and cannot be resynchronised.
    pub fn next_frame(&mut self) -> std::io::Result<Option<&[u8]>> {
        let pending = &self.buffer[self.head..];
        let Some(prefix) = pending.first_chunk::<4>() else {
            return Ok(None);
        };
        let length = u32::from_le_bytes(*prefix);
        if length > MAX_FRAME_BYTES {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("frame of {length} bytes exceeds the transport limit"),
            ));
        }
        let end = 4 + length as usize;
        if pending.len() < end {
            return Ok(None);
        }
        let start = self.head + 4;
        self.head += end;
        Ok(Some(&self.buffer[start..self.head]))
    }
}

/// One client connection to a validator: hello = `CLIENT_PEER`, batches up,
/// receipts down, never blocking after the handshake.
pub struct Connection {
    stream: TcpStream,
    reader: FrameReader,
    /// Framed bytes the kernel has not yet accepted.
    outbound: Vec<u8>,
    scratch: Box<[u8]>,
}

impl Connection {
    /// Connects, sends the client hello, and switches to non-blocking mode.
    ///
    /// # Errors
    ///
    /// Socket errors from connecting or the handshake.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let hello = CLIENT_PEER.to_le_bytes();
        stream.write_all(&(hello.len() as u32).to_le_bytes())?;
        stream.write_all(&hello)?;
        stream.set_nonblocking(true)?;
        Ok(Connection {
            stream,
            reader: FrameReader::default(),
            outbound: Vec::new(),
            scratch: vec![0u8; 64 * 1024].into_boxed_slice(),
        })
    }

    /// Frames `body` and writes as much as the socket takes now; the rest
    /// leaves on later [`Connection::flush`] calls.
    ///
    /// # Errors
    ///
    /// Socket errors other than `WouldBlock`.
    pub fn send(&mut self, body: &[u8]) -> std::io::Result<()> {
        let length = u32::try_from(body.len()).expect("batch frames are far below 4 GiB");
        self.outbound.extend_from_slice(&length.to_le_bytes());
        self.outbound.extend_from_slice(body);
        self.flush()
    }

    /// Writes pending outbound bytes until the socket would block.
    ///
    /// # Errors
    ///
    /// Socket errors other than `WouldBlock`.
    pub fn flush(&mut self) -> std::io::Result<()> {
        let mut written = 0;
        while written < self.outbound.len() {
            match self.stream.write(&self.outbound[written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(error) if error.kind() == ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == ErrorKind::Interrupted => {}
                Err(error) => return Err(error),
            }
        }
        self.outbound.drain(..written);
        Ok(())
    }

    /// Reads whatever has arrived and hands every complete receipt frame to
    /// `on_receipt`. Frames that are not receipts are skipped: a validator
    /// sends clients nothing else.
    ///
    /// # Errors
    ///
    /// Socket errors other than `WouldBlock`, an oversized frame, or the
    /// validator closing the connection.
    pub fn poll(&mut self, mut on_receipt: impl FnMut(TxReceipt)) -> std::io::Result<()> {
        loop {
            match self.stream.read(&mut self.scratch) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.reader.push(&self.scratch[..n]),
                Err(error) if error.kind() == ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == ErrorKind::Interrupted => {}
                Err(error) => return Err(error),
            }
        }
        while let Some(frame) = self.reader.next_frame()? {
            if let Ok(Envelope::TxReceipt(receipt)) = Envelope::from_bytes_exact(frame) {
                on_receipt(receipt);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(bodies: &[&[u8]]) -> Vec<u8> {
        let mut wire = Vec::new();
        for body in bodies {
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(body);
        }
        wire
    }

    fn drain(reader: &mut FrameReader, into: &mut Vec<Vec<u8>>) {
        while let Some(frame) = reader.next_frame().unwrap() {
            into.push(frame.to_vec());
        }
    }

    #[test]
    fn frames_split_at_every_byte_offset_are_reassembled() {
        let bodies: [&[u8]; 4] = [b"alpha", b"", b"a much longer third frame body", b"z"];
        let wire = framed(&bodies);
        for split in 0..=wire.len() {
            let mut reader = FrameReader::default();
            let mut frames = Vec::new();
            reader.push(&wire[..split]);
            drain(&mut reader, &mut frames);
            reader.push(&wire[split..]);
            drain(&mut reader, &mut frames);
            assert_eq!(frames, bodies, "split at {split}");
        }
        // One byte at a time, the harshest split.
        let mut reader = FrameReader::default();
        let mut frames = Vec::new();
        for byte in &wire {
            reader.push(std::slice::from_ref(byte));
            drain(&mut reader, &mut frames);
        }
        assert_eq!(frames, bodies);
    }

    #[test]
    fn consumed_bytes_are_reclaimed() {
        let wire = framed(&[&[7u8; 100]]);
        let mut reader = FrameReader::default();
        for _ in 0..1_000 {
            reader.push(&wire);
            assert_eq!(reader.next_frame().unwrap().map(<[u8]>::len), Some(100));
        }
        assert!(reader.buffer.len() <= 2 * wire.len());
    }

    #[test]
    fn an_oversized_length_prefix_is_an_error() {
        let mut reader = FrameReader::default();
        reader.push(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(reader.next_frame().is_err());
    }
}

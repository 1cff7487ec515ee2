//! Length-prefixed TCP transport for networked validators.
//!
//! The paper's implementation "utilizes tokio for asynchronous networking
//! and employs raw TCP sockets for communication" (Section 4). tokio is not
//! in this reproduction's dependency budget; the same shape — one duplex
//! byte stream per peer pair, length-prefixed frames, automatic reconnect —
//! is built from `std::net` with a thread per connection and crossbeam
//! channels.
//!
//! Topology: every node binds one listener and opens one *outbound*
//! connection to every peer. A node's frames to a peer always travel over
//! its own outbound connection (two simplex connections per pair), which
//! keeps connection management trivial and preserves per-link FIFO.
//!
//! Client connections are the exception to the simplex rule: a client
//! (hello id [`CLIENT_HELLO`]) holds no listener to dial back, so its one
//! inbound connection is used duplex — the acceptor assigns it a fresh
//! id from the client range (starting at [`FIRST_CLIENT_ID`]), tags its
//! frames with that id, and spawns a writer over the same socket so
//! [`Transport::send`] to that id reaches the client (receipt frames).
//!
//! # Example
//!
//! ```
//! use mahimahi_transport::Transport;
//!
//! let a = Transport::bind(0, "127.0.0.1:0")?; // node 0, ephemeral port
//! let b = Transport::bind(1, "127.0.0.1:0")?;
//! a.connect(1, b.local_addr());
//! b.connect(0, a.local_addr());
//! a.send(1, b"hello".to_vec());
//! let (from, frame) = b.incoming().recv_timeout(std::time::Duration::from_secs(5)).unwrap();
//! assert_eq!((from, frame.as_slice()), (0, b"hello".as_ref()));
//! # Ok::<(), std::io::Error>(())
//! ```

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::io::{IoSlice, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Maximum accepted frame size (64 MiB), mirroring the codec limit.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// The hello id client connections present: "I am not a validator,
/// assign me a connection id". Committee authority indexes are small, so
/// the maximum `u32` can never collide with one.
pub const CLIENT_HELLO: u32 = u32::MAX;

/// First id of the per-connection client range. Ids at or above this value
/// name accepted client connections (assigned in accept order); ids below
/// it name committee peers. `1 << 31` leaves room for two billion of each.
pub const FIRST_CLIENT_ID: u32 = 1 << 31;

/// Identifies a peer: the validator's authority index, or an assigned
/// client-connection id (`>=` [`FIRST_CLIENT_ID`]).
pub type PeerId = u32;

/// A node's TCP endpoint: listener plus outbound peer connections.
pub struct Transport {
    id: PeerId,
    local_addr: SocketAddr,
    incoming_rx: Receiver<(PeerId, Vec<u8>)>,
    /// Kept alive so reader threads can clone it for new connections.
    _incoming_tx: Sender<(PeerId, Vec<u8>)>,
    peers: Arc<Mutex<HashMap<PeerId, Sender<Vec<u8>>>>>,
    /// Writer queues of accepted client connections, keyed by their
    /// assigned ids — entries appear at client hello and vanish when the
    /// connection's reader exits.
    clients: Arc<Mutex<HashMap<PeerId, Sender<Vec<u8>>>>>,
    shutdown: Arc<AtomicBool>,
}

impl Transport {
    /// Binds a listener for node `id` at `addr` (use port 0 for an
    /// ephemeral port) and starts the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind<A: ToSocketAddrs>(id: PeerId, addr: A) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (incoming_tx, incoming_rx) = unbounded();
        let shutdown = Arc::new(AtomicBool::new(false));
        let clients = Arc::new(Mutex::new(HashMap::new()));

        let accept_tx = incoming_tx.clone();
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_clients = Arc::clone(&clients);
        thread::Builder::new()
            .name(format!("accept-{id}"))
            .spawn(move || accept_loop(listener, accept_tx, accept_clients, accept_shutdown))
            .expect("spawn accept thread");

        Ok(Transport {
            id,
            local_addr,
            incoming_rx,
            _incoming_tx: incoming_tx,
            peers: Arc::new(Mutex::new(HashMap::new())),
            clients,
            shutdown,
        })
    }

    /// This node's identifier.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The bound listener address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The channel of received frames, tagged with the sending peer.
    pub fn incoming(&self) -> &Receiver<(PeerId, Vec<u8>)> {
        &self.incoming_rx
    }

    /// Registers `peer` at `addr` and starts its outbound sender (with
    /// automatic reconnect). Queued frames survive reconnects.
    pub fn connect(&self, peer: PeerId, addr: SocketAddr) {
        let (tx, rx) = unbounded::<Vec<u8>>();
        self.peers
            .lock()
            .expect("queue table poisoned")
            .insert(peer, tx);
        let id = self.id;
        let shutdown = Arc::clone(&self.shutdown);
        thread::Builder::new()
            .name(format!("send-{id}-to-{peer}"))
            .spawn(move || sender_loop(id, addr, rx, shutdown))
            .expect("spawn sender thread");
    }

    /// Queues `frame` for `peer` — a committee peer connected at start-up,
    /// or (ids `>=` [`FIRST_CLIENT_ID`]) an accepted client connection.
    /// Silently ignores unknown peers and clients that already hung up.
    pub fn send(&self, peer: PeerId, frame: Vec<u8>) {
        let registry = if peer >= FIRST_CLIENT_ID {
            &self.clients
        } else {
            &self.peers
        };
        if let Some(tx) = registry.lock().expect("queue table poisoned").get(&peer) {
            let _ = tx.send(frame);
        }
    }

    /// Queues `frame` for every connected peer (committee only — client
    /// connections never receive consensus traffic).
    pub fn broadcast(&self, frame: Vec<u8>) {
        let peers = self.peers.lock().expect("queue table poisoned");
        for tx in peers.values() {
            let _ = tx.send(frame.clone());
        }
    }

    /// Signals all threads to stop. Subsequent sends are dropped. The
    /// first call also wakes the accept thread, which then exits and closes
    /// the listener.
    pub fn shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            wake_acceptor(self.local_addr);
        }
        self.peers.lock().expect("queue table poisoned").clear();
        self.clients.lock().expect("queue table poisoned").clear();
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    incoming: Sender<(PeerId, Vec<u8>)>,
    clients: Arc<Mutex<HashMap<PeerId, Sender<Vec<u8>>>>>,
    shutdown: Arc<AtomicBool>,
) {
    // Client-connection ids are assigned in accept order, per transport.
    let next_client = AtomicU32::new(FIRST_CLIENT_ID);
    // Blocks in `accept`; `Transport::shutdown` sets the flag and then
    // connects once, so the check after each accept sees it.
    for accepted in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok(stream) => {
                let incoming = incoming.clone();
                let clients = Arc::clone(&clients);
                let shutdown = Arc::clone(&shutdown);
                let id = next_client.fetch_add(1, Ordering::Relaxed);
                thread::Builder::new()
                    .name("reader".into())
                    .spawn(move || reader_loop(stream, incoming, clients, id, shutdown))
                    .expect("spawn reader thread");
            }
            Err(_) => break,
        }
    }
}

/// Connects once to the listener at `addr`, so a thread blocked in its
/// `accept` returns and can see a stop flag set before this call. An
/// unspecified address (`0.0.0.0`, `::`) is dialled on loopback. A listener
/// that is already gone refuses the connection, which is as good.
pub fn wake_acceptor(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_secs(1));
}

/// Reads the peer's hello, then frames, forwarding them upstream.
///
/// A committee peer's hello carries its authority index, which tags every
/// subsequent frame. A [`CLIENT_HELLO`] instead claims `client_id`: the
/// frames are tagged with that assigned id, and a writer thread over the
/// same socket drains a registered queue so `send(client_id, ..)` reaches
/// the client — deregistered when the connection drops.
fn reader_loop(
    mut stream: TcpStream,
    incoming: Sender<(PeerId, Vec<u8>)>,
    clients: Arc<Mutex<HashMap<PeerId, Sender<Vec<u8>>>>>,
    client_id: PeerId,
    shutdown: Arc<AtomicBool>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let Some(hello) = read_frame_blocking(&mut stream, &shutdown) else {
        return;
    };
    if hello.len() != 4 {
        return;
    }
    let mut peer = PeerId::from_le_bytes(hello.try_into().expect("4 bytes"));
    let mut registered = false;
    if peer == CLIENT_HELLO {
        peer = client_id;
        if let Ok(write_half) = stream.try_clone() {
            let (tx, rx) = unbounded::<Vec<u8>>();
            clients
                .lock()
                .expect("queue table poisoned")
                .insert(client_id, tx);
            registered = true;
            let writer_shutdown = Arc::clone(&shutdown);
            thread::Builder::new()
                .name("client-writer".into())
                .spawn(move || client_writer_loop(write_half, rx, writer_shutdown))
                .expect("spawn client writer thread");
        }
    }
    while !shutdown.load(Ordering::SeqCst) {
        let Some(frame) = read_frame_blocking(&mut stream, &shutdown) else {
            break;
        };
        if incoming.send((peer, frame)).is_err() {
            break;
        }
    }
    if registered {
        // Dropping the queue sender disconnects the writer's receiver,
        // which exits the writer thread.
        clients
            .lock()
            .expect("queue table poisoned")
            .remove(&client_id);
    }
}

/// Drains a client connection's send queue onto its socket (the duplex
/// write half). Exits on write failure, queue disconnect, or shutdown.
fn client_writer_loop(mut stream: TcpStream, frames: Receiver<Vec<u8>>, shutdown: Arc<AtomicBool>) {
    loop {
        match frames.recv_timeout(Duration::from_millis(200)) {
            Ok(frame) => {
                if write_frame(&mut stream, &frame).is_err() {
                    return;
                }
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Reads one length-prefixed frame; `None` on disconnect, oversized frame,
/// or shutdown.
fn read_frame_blocking(stream: &mut TcpStream, shutdown: &AtomicBool) -> Option<Vec<u8>> {
    let mut header = [0u8; 4];
    read_exact_interruptible(stream, &mut header, shutdown)?;
    let length = u32::from_le_bytes(header);
    if length > MAX_FRAME_BYTES {
        return None;
    }
    let mut frame = vec![0u8; length as usize];
    read_exact_interruptible(stream, &mut frame, shutdown)?;
    Some(frame)
}

/// `read_exact` that re-checks the shutdown flag on read timeouts.
fn read_exact_interruptible(
    stream: &mut TcpStream,
    buffer: &mut [u8],
    shutdown: &AtomicBool,
) -> Option<()> {
    let mut filled = 0;
    while filled < buffer.len() {
        if shutdown.load(Ordering::SeqCst) {
            return None;
        }
        match stream.read(&mut buffer[filled..]) {
            Ok(0) => return None,
            Ok(read) => filled += read,
            Err(ref error)
                if error.kind() == std::io::ErrorKind::WouldBlock
                    || error.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return None,
        }
    }
    Some(())
}

/// Maintains the outbound connection: (re)connect with backoff, send the
/// hello, then drain the frame queue.
fn sender_loop(id: PeerId, addr: SocketAddr, frames: Receiver<Vec<u8>>, shutdown: Arc<AtomicBool>) {
    let mut backoff = Duration::from_millis(20);
    'reconnect: while !shutdown.load(Ordering::SeqCst) {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_secs(1));
            continue;
        };
        backoff = Duration::from_millis(20);
        let _ = stream.set_nodelay(true);
        if write_frame(&mut stream, &id.to_le_bytes()).is_err() {
            continue;
        }
        loop {
            match frames.recv_timeout(Duration::from_millis(200)) {
                Ok(frame) => {
                    if write_frame(&mut stream, &frame).is_err() {
                        // Connection lost; the frame is dropped (consensus
                        // recovers through the synchronizer).
                        continue 'reconnect;
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

/// Writes the length prefix and the body with one vectored write — one
/// TCP segment for a small frame under `nodelay`, where two `write_all`s
/// sent two — and loops only if the kernel takes part of it.
fn write_frame(stream: &mut TcpStream, frame: &[u8]) -> std::io::Result<()> {
    let header = (frame.len() as u32).to_le_bytes();
    let total = header.len() + frame.len();
    let mut written = 0;
    while written < total {
        let result = if written < header.len() {
            stream.write_vectored(&[IoSlice::new(&header[written..]), IoSlice::new(frame)])
        } else {
            stream.write(&frame[written - header.len()..])
        };
        match result {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
            Err(error) => return Err(error),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Transport, Transport) {
        let a = Transport::bind(0, "127.0.0.1:0").unwrap();
        let b = Transport::bind(1, "127.0.0.1:0").unwrap();
        a.connect(1, b.local_addr());
        b.connect(0, a.local_addr());
        (a, b)
    }

    #[test]
    fn frames_travel_both_ways() {
        let (a, b) = pair();
        a.send(1, vec![1, 2, 3]);
        b.send(0, vec![9]);
        let (from, frame) = b.incoming().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, frame), (0, vec![1, 2, 3]));
        let (from, frame) = a.incoming().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, frame), (1, vec![9]));
    }

    #[test]
    fn frames_preserve_order() {
        let (a, b) = pair();
        for i in 0..100u32 {
            a.send(1, i.to_le_bytes().to_vec());
        }
        for expected in 0..100u32 {
            let (_, frame) = b.incoming().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(frame, expected.to_le_bytes().to_vec());
        }
    }

    #[test]
    fn broadcast_reaches_all_peers() {
        let a = Transport::bind(0, "127.0.0.1:0").unwrap();
        let b = Transport::bind(1, "127.0.0.1:0").unwrap();
        let c = Transport::bind(2, "127.0.0.1:0").unwrap();
        a.connect(1, b.local_addr());
        a.connect(2, c.local_addr());
        a.broadcast(vec![7; 10]);
        for receiver in [&b, &c] {
            let (from, frame) = receiver
                .incoming()
                .recv_timeout(Duration::from_secs(5))
                .unwrap();
            assert_eq!((from, frame), (0, vec![7; 10]));
        }
    }

    #[test]
    fn large_frames_round_trip() {
        let (a, b) = pair();
        let big = vec![0xabu8; 1_000_000];
        a.send(1, big.clone());
        let (_, frame) = b.incoming().recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(frame.len(), big.len());
        assert_eq!(frame, big);
    }

    #[test]
    fn queued_frames_survive_connect_before_peer_is_up() {
        // Send before the peer's listener address is connected: frames wait
        // in the queue and flush on connect.
        let a = Transport::bind(0, "127.0.0.1:0").unwrap();
        let b = Transport::bind(1, "127.0.0.1:0").unwrap();
        a.connect(1, b.local_addr());
        a.send(1, vec![42]);
        let (_, frame) = b.incoming().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frame, vec![42]);
    }

    #[test]
    fn client_connections_get_ids_and_duplex_replies() {
        // A "client" dials in with the CLIENT_HELLO id: its frames arrive
        // tagged with an assigned id from the client range, and send() to
        // that id travels back down the same socket.
        let transport = Transport::bind(0, "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(transport.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        write_frame(&mut stream, &CLIENT_HELLO.to_le_bytes()).unwrap();
        write_frame(&mut stream, &[7, 8, 9]).unwrap();
        let (from, frame) = transport
            .incoming()
            .recv_timeout(Duration::from_secs(5))
            .unwrap();
        assert!(from >= FIRST_CLIENT_ID, "client id out of range: {from}");
        assert_eq!(frame, vec![7, 8, 9]);

        transport.send(from, vec![42; 3]);
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut header = [0u8; 4];
        stream.read_exact(&mut header).unwrap();
        assert_eq!(u32::from_le_bytes(header), 3);
        let mut reply = [0u8; 3];
        stream.read_exact(&mut reply).unwrap();
        assert_eq!(reply, [42; 3]);
    }

    #[test]
    fn distinct_client_connections_get_distinct_ids() {
        let transport = Transport::bind(0, "127.0.0.1:0").unwrap();
        let mut first = TcpStream::connect(transport.local_addr()).unwrap();
        let mut second = TcpStream::connect(transport.local_addr()).unwrap();
        for stream in [&mut first, &mut second] {
            write_frame(stream, &CLIENT_HELLO.to_le_bytes()).unwrap();
            write_frame(stream, &[1]).unwrap();
        }
        let (a, _) = transport
            .incoming()
            .recv_timeout(Duration::from_secs(5))
            .unwrap();
        let (b, _) = transport
            .incoming()
            .recv_timeout(Duration::from_secs(5))
            .unwrap();
        assert_ne!(a, b);
        assert!(a >= FIRST_CLIENT_ID && b >= FIRST_CLIENT_ID);
    }

    #[test]
    fn shutdown_ends_the_accept_thread_and_closes_the_listener() {
        let transport = Transport::bind(0, "127.0.0.1:0").unwrap();
        let addr = transport.local_addr();
        assert!(
            TcpStream::connect(addr).is_ok(),
            "listening before shutdown"
        );
        transport.shutdown();
        // The accept thread owns the listener: once it has exited, the
        // port refuses connections.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while TcpStream::connect(addr).is_ok() {
            assert!(
                std::time::Instant::now() < deadline,
                "the accept thread outlived shutdown"
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn shutdown_stops_accepting_sends() {
        let (a, b) = pair();
        a.shutdown();
        a.send(1, vec![1]);
        assert!(b
            .incoming()
            .recv_timeout(Duration::from_millis(600))
            .is_err());
    }
}

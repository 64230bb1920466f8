//! Plain-text health/stats endpoint.
//!
//! One nonblocking TCP listener on its own thread: every connection gets
//! the current [`StatsSnapshot`](crate::stats::StatsSnapshot) rendering and is closed. No protocol, no
//! framing, no request parsing — `nc host port` is the whole client. The
//! endpoint is deliberately independent of the server's lifecycle so an
//! operator can still read stats while the server drains.

use crate::server::StatsHandle;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// A running stats endpoint; dropping it stops the listener thread.
pub struct StatsEndpoint {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl StatsEndpoint {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving
    /// `stats.snapshot().render()` to every connection.
    pub fn bind(addr: &str, stats: StatsHandle) -> std::io::Result<StatsEndpoint> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("grazelle-serve-stats".to_string())
            .spawn(move || {
                // ATOMIC: relaxed-flag — endpoint stop latch; a late
                // observation only delays listener exit by one poll tick
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((mut conn, _)) => {
                            // A slow or dead client only loses its own
                            // response; the endpoint moves on.
                            let _ = conn.set_nodelay(true);
                            let _ = conn.write_all(stats.snapshot().render().as_bytes());
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => std::thread::sleep(ACCEPT_POLL),
                    }
                }
            })
            .expect("spawn stats endpoint");
        Ok(StatsEndpoint {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and joins its thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // ATOMIC: relaxed-flag — endpoint stop latch
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StatsEndpoint {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::server::{ServeConfig, Server};
    use grazelle_core::engine::PreparedGraph;
    use grazelle_core::EngineConfig;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::graph::Graph;
    use std::io::Read;
    use std::net::TcpStream;

    #[test]
    fn endpoint_serves_current_stats_text() {
        let el = EdgeList::from_pairs(16, &[(0, 1), (1, 2), (2, 3), (4, 5)]).unwrap();
        let g = Arc::new(Graph::from_edgelist(&el).unwrap());
        let pg = Arc::new(PreparedGraph::new(&g));
        let server = Server::start(
            g,
            pg,
            ServeConfig::new().with_engine(EngineConfig::new().with_threads(1)),
        );
        let endpoint = StatsEndpoint::bind("127.0.0.1:0", server.stats_handle()).unwrap();
        server.submit(Query::Cc).unwrap().wait().unwrap();

        let mut conn = TcpStream::connect(endpoint.local_addr()).unwrap();
        let mut text = String::new();
        conn.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("grazelle-serve stats"), "{text}");
        assert!(text.contains("completed: 1"), "{text}");
        assert!(text.contains("queue_depth:"), "{text}");

        endpoint.shutdown();
        drop(server);
    }
}

//! A client connection speaking the wire protocol directly through the
//! public `Frame::encode` / `Decoder`, so each chunk can be timestamped as
//! it arrives (`Client::collect` only returns whole batches).

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

use unigen_net::server::default_spec;
use unigen_net::wire::{
    Decoder, FormulaRef, Frame, WireHealth, WireOutcomeKind, WireStats, PROTOCOL_VERSION,
};

use crate::gen::{Planned, Reference};
use crate::trace::SpanLog;

/// Everything one request produced, with receive timestamps.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Just before the request frame was written.
    pub sent: Instant,
    /// When the first `Witness` chunk arrived (`Bottom` and other
    /// non-witness chunks do not count).
    pub first_witness: Option<Instant>,
    /// When `Done` (or a request-scoped `Error`) arrived.
    pub finished: Option<Instant>,
    /// Fingerprint echoed by `StreamBegin`.
    pub fingerprint: Option<u64>,
    /// Sampling set echoed by `StreamBegin`.
    pub sampling_set: Vec<u32>,
    /// Chunks in arrival order: index, kind, packed bits.
    pub chunks: Vec<(u64, WireOutcomeKind, Vec<u8>)>,
    /// `Done.successes`.
    pub successes: u64,
    /// `Done.stats`.
    pub stats: WireStats,
    /// A request-scoped error frame (code name and detail).
    pub error: Option<String>,
    /// Response bytes read off the socket for this request.
    pub bytes: u64,
}

impl Exchange {
    /// An exchange whose request was written at `sent`.
    pub fn new(sent: Instant) -> Exchange {
        Exchange {
            sent,
            first_witness: None,
            finished: None,
            fingerprint: None,
            sampling_set: Vec::new(),
            chunks: Vec::new(),
            successes: 0,
            stats: WireStats::default(),
            error: None,
            bytes: 0,
        }
    }

    /// Fold in one frame received at `at` for request `id`. Returns
    /// `Ok(true)` once the request has finished, and `Err` on a
    /// connection-level error or a frame that breaks the protocol.
    pub fn absorb(&mut self, id: u64, frame: Frame, at: Instant) -> Result<bool, String> {
        match frame {
            Frame::StreamBegin {
                id: got,
                fingerprint,
                sampling_set,
            } if got == id => {
                self.fingerprint = Some(fingerprint);
                self.sampling_set = sampling_set;
                Ok(false)
            }
            Frame::Chunk {
                id: got,
                index,
                kind,
                bits,
            } if got == id => {
                if kind == WireOutcomeKind::Witness && self.first_witness.is_none() {
                    self.first_witness = Some(at);
                }
                self.chunks.push((index, kind, bits));
                Ok(false)
            }
            Frame::Done {
                id: got,
                successes,
                stats,
            } if got == id => {
                self.successes = successes;
                self.stats = stats;
                self.finished = Some(at);
                Ok(true)
            }
            Frame::Error {
                id: got,
                code,
                detail,
            } if got == id => {
                self.error = Some(format!("{}: {detail}", code.name()));
                self.finished = Some(at);
                Ok(true)
            }
            Frame::Error {
                id: 0,
                code,
                detail,
            } => Err(format!("connection error {}: {detail}", code.name())),
            other => Err(format!("unexpected frame for request {id}: {other:?}")),
        }
    }

    /// True when the request ended in `Done`.
    pub fn answered(&self) -> bool {
        self.error.is_none() && self.finished.is_some()
    }

    /// Seconds from write to the first witness.
    pub fn ttfw_s(&self) -> Option<f64> {
        self.first_witness
            .map(|t| t.duration_since(self.sent).as_secs_f64())
    }

    /// Seconds from write to `Done`.
    pub fn latency_s(&self) -> Option<f64> {
        self.finished
            .filter(|_| self.answered())
            .map(|t| t.duration_since(self.sent).as_secs_f64())
    }

    /// Number of `Witness` chunks.
    pub fn witnesses(&self) -> u64 {
        self.chunks
            .iter()
            .filter(|c| c.1 == WireOutcomeKind::Witness)
            .count() as u64
    }
}

/// One client connection.
pub struct WireConn {
    stream: UnixStream,
    decoder: Decoder,
    buf: Vec<u8>,
    next_id: u64,
    /// Spans of this connection's wire calls, when tracing.
    pub trace: Option<SpanLog>,
}

impl WireConn {
    /// Send `Hello` and wait for `HelloAck`.
    pub fn handshake(stream: UnixStream) -> Result<WireConn, String> {
        let mut conn = WireConn {
            stream,
            decoder: Decoder::new(),
            buf: vec![0; 64 * 1024],
            next_id: 1,
            trace: None,
        };
        conn.write(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )?;
        match conn.read_frame()? {
            Frame::HelloAck { version } if version == PROTOCOL_VERSION => Ok(conn),
            other => Err(format!("expected HelloAck, got {other:?}")),
        }
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("socket write: {e}"))
    }

    /// Read once from the socket into the decoder; returns bytes read.
    fn fill(&mut self) -> Result<usize, String> {
        let n = self
            .stream
            .read(&mut self.buf)
            .map_err(|e| format!("socket read: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_owned());
        }
        self.decoder.feed(&self.buf[..n]);
        Ok(n)
    }

    fn read_frame(&mut self) -> Result<Frame, String> {
        loop {
            if let Some(frame) = self.decoder.next_frame().map_err(|e| e.to_string())? {
                return Ok(frame);
            }
            self.fill()?;
        }
    }

    /// Send `planned` and block until it finishes. `Err` means the
    /// connection is unusable (disconnect, connection-level error or a
    /// protocol violation); a request-scoped error frame is reported in
    /// the returned exchange instead.
    pub fn request(&mut self, planned: &Planned, fingerprint: u64) -> Result<Exchange, String> {
        let id = self.next_id;
        self.next_id += 1;
        let formula = match planned.reference {
            Reference::Inline => FormulaRef::Inline(planned.formula.dimacs.as_bytes().to_vec()),
            Reference::Fingerprint => FormulaRef::Fingerprint(fingerprint),
        };
        let frame = Frame::Request {
            id,
            formula,
            spec: default_spec(),
            count: planned.count,
            master_seed: planned.master_seed,
            budget_micros: 0,
        };
        let root = self.open("client.request", None, id);
        let span = self.open("wire.encode", root, id);
        let bytes = frame.encode();
        self.close(span);
        let mut exchange = Exchange::new(Instant::now());
        let span = self.open("socket.write", root, id);
        self.write(&bytes)?;
        self.close(span);
        loop {
            let span = self.open("wire.decode", root, id);
            let decoded = self.decoder.next_frame().map_err(|e| e.to_string())?;
            match decoded {
                Some(frame) => {
                    self.close(span);
                    if exchange.absorb(id, frame, Instant::now())? {
                        break;
                    }
                }
                None => {
                    self.discard(span);
                    let span = self.open("socket.read", root, id);
                    exchange.bytes += self.fill()? as u64;
                    self.close(span);
                }
            }
        }
        self.close(root);
        Ok(exchange)
    }

    /// Ask for a health snapshot.
    pub fn health(&mut self) -> Result<WireHealth, String> {
        self.write(&Frame::HealthReq.encode())?;
        match self.read_frame()? {
            Frame::Health(health) => Ok(health),
            other => Err(format!("expected Health, got {other:?}")),
        }
    }

    /// Send `Shutdown`; returns once the daemon closes the connection.
    pub fn shutdown_server(&mut self) -> Result<(), String> {
        self.write(&Frame::Shutdown.encode())?;
        loop {
            match self.read_frame() {
                Ok(Frame::Error { code, detail, .. }) => {
                    return Err(format!("shutdown refused ({}): {detail}", code.name()))
                }
                Ok(_) => {}
                Err(_) => return Ok(()),
            }
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> Option<usize> {
        self.trace
            .as_mut()
            .map(|log| log.open(name, parent, request))
    }

    fn close(&mut self, span: Option<usize>) {
        if let (Some(log), Some(span)) = (self.trace.as_mut(), span) {
            log.close(span);
        }
    }

    fn discard(&mut self, span: Option<usize>) {
        if let (Some(log), Some(span)) = (self.trace.as_mut(), span) {
            log.discard(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ttfw_ignores_bottom_chunks() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let mut ex = Exchange::new(t0);
        let chunk = |index, kind| Frame::Chunk {
            id: 1,
            index,
            kind,
            bits: Vec::new(),
        };
        ex.absorb(
            1,
            Frame::StreamBegin {
                id: 1,
                fingerprint: 9,
                sampling_set: vec![0],
            },
            at(1),
        )
        .unwrap();
        assert!(!ex
            .absorb(1, chunk(0, WireOutcomeKind::Bottom), at(5))
            .unwrap());
        assert_eq!(ex.ttfw_s(), None);
        assert!(!ex
            .absorb(1, chunk(1, WireOutcomeKind::Witness), at(8))
            .unwrap());
        assert!(!ex
            .absorb(1, chunk(2, WireOutcomeKind::Witness), at(9))
            .unwrap());
        let done = Frame::Done {
            id: 1,
            successes: 2,
            stats: WireStats::default(),
        };
        assert!(ex.absorb(1, done, at(12)).unwrap());
        assert_eq!(ex.ttfw_s(), Some(0.008));
        assert_eq!(ex.latency_s(), Some(0.012));
        assert_eq!(ex.witnesses(), 2);
    }

    #[test]
    fn all_bottom_request_has_no_ttfw_and_errors_are_not_answers() {
        let t0 = Instant::now();
        let mut ex = Exchange::new(t0);
        let bottom = Frame::Chunk {
            id: 4,
            index: 0,
            kind: WireOutcomeKind::Bottom,
            bits: Vec::new(),
        };
        ex.absorb(4, bottom, t0).unwrap();
        assert_eq!(ex.ttfw_s(), None);
        let err = Frame::Error {
            id: 4,
            code: unigen_net::ErrorCode::Busy,
            detail: "full".to_owned(),
        };
        assert!(ex.absorb(4, err, t0).unwrap());
        assert!(!ex.answered());
        assert_eq!(ex.latency_s(), None);
        // Frames for another request break the closed loop's protocol.
        assert!(Exchange::new(t0)
            .absorb(
                4,
                Frame::Done {
                    id: 5,
                    successes: 0,
                    stats: WireStats::default()
                },
                t0
            )
            .is_err());
    }
}

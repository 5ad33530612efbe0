//! The coordinator ↔ worker wire protocol.
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! magic   u32   0x5350_4431 ("SPD1", little-endian)
//! kind    u8    message discriminant
//! len     u64   payload length in bytes (checked before allocation)
//! payload len bytes
//! ```
//!
//! Matrices inside a payload travel as **SPM blocks** — a `u64` length
//! followed by exactly the bytes [`spill::encode_partial`] produces, so
//! the wire format *is* the spill codec: the same delta+varint encoding
//! (with its per-file raw fallback), decoded by [`spill::decode_partial`]
//! through the same entry decoder that reads spill files back —
//! bounds, order and overflow checked per entry — plus the two checks
//! only a block from another process needs: a cap on the declared shape
//! and an exact length. A truncated, corrupted or oversized frame
//! therefore surfaces as a typed [`DistError`] — never a panic, a hang,
//! or an unbounded allocation.
//!
//! A plan crosses the wire as what it was built from — every panel's
//! range and `A` non-zero count, plus the fan-in — and the receiver
//! rebuilds it with [`ExecPlan::from_panel_nnz`]: there is no plan
//! codec to keep in step with the scheduler.
//!
//! Frames are encoded straight into one buffer (header reserved, length
//! patched at the end) from borrowed matrices: a block is written once,
//! where it will be sent from.
//!
//! [`read_message`] distinguishes three ends of a stream: a clean EOF at
//! a frame boundary (`Ok(None)`, the peer closed deliberately), a
//! timeout ([`DistError::Timeout`], mapped from `TimedOut`/`WouldBlock`
//! so a socket read deadline doubles as the heartbeat monitor), and
//! everything else ([`DistError::Frame`]/[`DistError::Io`]).

use crate::DistError;
use sparch_obs::WireSpan;
use sparch_sparse::Csr;
use sparch_stream::spill;
use sparch_stream::{ExecPlan, SpillCodec};
use std::io::{ErrorKind, Read, Write};

/// Frame magic: "SPD1" in little-endian byte order.
pub const MAGIC: u32 = 0x5350_4431;

/// Upper bound on one frame's declared payload length. Checked before
/// any allocation sized by the header, so a corrupt length cannot
/// provoke an out-of-memory abort.
pub const MAX_FRAME_BYTES: u64 = 1 << 30;

/// Magic, kind and payload length.
const HEADER_BYTES: usize = 13;

const KIND_HELLO: u8 = 0;
const KIND_SUBTREE: u8 = 1;
const KIND_FAILED: u8 = 2;
const KIND_RESULT: u8 = 3;
const KIND_HEARTBEAT: u8 = 4;
const KIND_SHUTDOWN: u8 = 5;

/// One protocol message. The coordinator sends `Subtree` and
/// `Shutdown`; a worker sends `Hello` once, then `Heartbeat`s and one
/// `Result` or `Failed` per job.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A worker announcing itself after connecting; `worker` echoes the
    /// generation id the coordinator spawned it with.
    Hello { worker: u64 },
    /// One idempotent job: execute the subtree of `plan` under `node` —
    /// its leaf multiplies and its merge rounds, each round's children in
    /// the plan's fold order — and reply with `Result { job, .. }`.
    /// `pairs` holds the `(A column panel, B row panel)` of each leaf of
    /// that subtree, in leaf order. A bare leaf is the one-node subtree.
    Subtree {
        job: u64,
        plan: ExecPlan,
        node: u64,
        pairs: Vec<(Csr, Csr)>,
    },
    /// A finished job's partial product, plus the worker-side trace
    /// spans for that job (empty unless the coordinator asked for
    /// tracing). Span timestamps are relative to the *worker's* clock
    /// anchor; the coordinator re-bases them onto its own timeline.
    Result {
        job: u64,
        partial: Csr,
        spans: Vec<WireSpan>,
    },
    /// A job the worker could not run — the pipeline's error, as text.
    /// The worker itself is healthy and keeps serving.
    Failed { job: u64, error: String },
    /// Liveness beacon, sent on an interval by a worker-side thread so
    /// the coordinator's read deadline only fires when the worker is
    /// actually gone or wedged.
    Heartbeat,
    /// Orderly end of stream; the worker exits.
    Shutdown,
}

impl Message {
    /// Short name for logs and errors.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::Subtree { .. } => "subtree",
            Message::Result { .. } => "result",
            Message::Failed { .. } => "failed",
            Message::Heartbeat => "heartbeat",
            Message::Shutdown => "shutdown",
        }
    }
}

/// Serializes and writes one frame, returning the bytes put on the
/// wire. The frame is assembled in memory first and written with a
/// single `write_all`, so concurrent writers serialized by a lock can
/// never interleave partial frames.
pub fn write_message<W: Write>(
    w: &mut W,
    msg: &Message,
    codec: SpillCodec,
) -> Result<u64, DistError> {
    let mut p = vec![0u8; HEADER_BYTES];
    let kind = match msg {
        Message::Hello { worker } => {
            p.extend_from_slice(&worker.to_le_bytes());
            KIND_HELLO
        }
        Message::Subtree {
            job,
            plan,
            node,
            pairs,
        } => {
            let pairs = pairs.iter().map(|(a, b)| (a, b));
            push_subtree(&mut p, *job, plan, *node, pairs, codec);
            KIND_SUBTREE
        }
        Message::Result {
            job,
            partial,
            spans,
        } => {
            p.extend_from_slice(&job.to_le_bytes());
            push_block(&mut p, partial, codec);
            // Spans ride *after* the partial block so a span-free frame
            // is byte-compatible with the old layout plus a zero count.
            p.extend_from_slice(&(spans.len() as u64).to_le_bytes());
            for s in spans {
                push_str(&mut p, &s.name);
                push_str(&mut p, &s.cat);
                p.extend_from_slice(&s.start_ns.to_le_bytes());
                p.extend_from_slice(&s.end_ns.to_le_bytes());
                p.extend_from_slice(&u64::from(s.depth).to_le_bytes());
            }
            KIND_RESULT
        }
        Message::Failed { job, error } => {
            p.extend_from_slice(&job.to_le_bytes());
            push_str(&mut p, error);
            KIND_FAILED
        }
        Message::Heartbeat => KIND_HEARTBEAT,
        Message::Shutdown => KIND_SHUTDOWN,
    };
    send_frame(w, kind, p)
}

/// Writes a [`Message::Subtree`] frame from borrowed parts — the
/// coordinator keeps every leaf pair for retries, so a dispatch must not
/// clone them into an owned message first. `pairs` yields the panels of
/// `plan.subtree(node)`'s leaves, in leaf order.
pub fn write_subtree<'a, W: Write>(
    w: &mut W,
    job: u64,
    plan: &ExecPlan,
    node: usize,
    pairs: impl ExactSizeIterator<Item = (&'a Csr, &'a Csr)>,
    codec: SpillCodec,
) -> Result<u64, DistError> {
    let mut p = vec![0u8; HEADER_BYTES];
    push_subtree(&mut p, job, plan, node as u64, pairs, codec);
    send_frame(w, KIND_SUBTREE, p)
}

fn push_subtree<'a>(
    p: &mut Vec<u8>,
    job: u64,
    plan: &ExecPlan,
    node: u64,
    pairs: impl ExactSizeIterator<Item = (&'a Csr, &'a Csr)>,
    codec: SpillCodec,
) {
    p.extend_from_slice(&job.to_le_bytes());
    p.extend_from_slice(&node.to_le_bytes());
    p.extend_from_slice(&(plan.ways() as u64).to_le_bytes());
    p.extend_from_slice(&(plan.panels() as u64).to_le_bytes());
    for (range, nnz) in plan.panel_sizes() {
        p.extend_from_slice(&(range.start as u64).to_le_bytes());
        p.extend_from_slice(&(range.end as u64).to_le_bytes());
        p.extend_from_slice(&nnz.to_le_bytes());
    }
    p.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for (a, b) in pairs {
        push_block(p, a, codec);
        push_block(p, b, codec);
    }
}

/// Fills in the header `frame` reserved and writes the whole frame.
fn send_frame<W: Write>(w: &mut W, kind: u8, mut frame: Vec<u8>) -> Result<u64, DistError> {
    let len = (frame.len() - HEADER_BYTES) as u64;
    frame[..4].copy_from_slice(&MAGIC.to_le_bytes());
    frame[4] = kind;
    frame[5..HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    w.write_all(&frame).map_err(io_err)?;
    w.flush().map_err(io_err)?;
    Ok(frame.len() as u64)
}

/// Appends one SPM block: the length prefix is reserved, the matrix is
/// encoded in place after it, and the prefix is patched.
fn push_block(p: &mut Vec<u8>, csr: &Csr, codec: SpillCodec) {
    let at = p.len();
    p.extend_from_slice(&[0u8; 8]);
    let len = spill::encode_partial_into(p, csr, codec);
    p[at..at + 8].copy_from_slice(&len.to_le_bytes());
}

fn push_str(p: &mut Vec<u8>, s: &str) {
    p.extend_from_slice(&(s.len() as u64).to_le_bytes());
    p.extend_from_slice(s.as_bytes());
}

/// Reads one frame. `Ok(None)` is a clean EOF *at a frame boundary*;
/// EOF mid-frame is [`DistError::Frame`]; a read deadline expiring is
/// [`DistError::Timeout`]. The declared payload length is validated
/// against [`MAX_FRAME_BYTES`] before any allocation.
pub fn read_message<R: Read>(r: &mut R) -> Result<Option<Message>, DistError> {
    let mut magic = [0u8; 4];
    match read_full(r, &mut magic)? {
        0 => return Ok(None),
        4 => {}
        n => {
            return Err(DistError::Frame(format!(
                "stream ended {n} bytes into a frame header"
            )))
        }
    }
    let magic = u32::from_le_bytes(magic);
    if magic != MAGIC {
        return Err(DistError::Frame(format!(
            "bad frame magic {magic:#010x} (expected {MAGIC:#010x})"
        )));
    }
    let mut kind = [0u8; 1];
    read_exact_frame(r, &mut kind, "frame kind")?;
    let mut len = [0u8; 8];
    read_exact_frame(r, &mut len, "frame length")?;
    let len = u64::from_le_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(DistError::Frame(format!(
            "frame declares {len} payload bytes (limit {MAX_FRAME_BYTES})"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_frame(r, &mut payload, "frame payload")?;
    decode_payload(kind[0], &payload)
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Option<Message>, DistError> {
    let mut p = payload;
    let msg = match kind {
        KIND_HELLO => Message::Hello {
            worker: take_u64(&mut p)?,
        },
        KIND_SUBTREE => {
            let job = take_u64(&mut p)?;
            let node = take_u64(&mut p)?;
            let ways = take_len(&mut p, 0, "fan-in")?;
            // Each panel costs its three fixed u64 fields, each pair at
            // least its two 8-byte block length prefixes, so a lying
            // count is rejected before anything is sized by it.
            let panels = take_len(&mut p, 24, "panels")?;
            let mut ranges = Vec::with_capacity(panels);
            let mut panel_nnz = Vec::with_capacity(panels);
            for _ in 0..panels {
                let start = take_len(&mut p, 0, "panel start")?;
                let end = take_len(&mut p, 0, "panel end")?;
                if start > end {
                    return Err(DistError::Frame(format!(
                        "subtree frame declares the backwards panel {start}..{end}"
                    )));
                }
                ranges.push(start..end);
                panel_nnz.push(take_u64(&mut p)?);
            }
            // The scheduler sums weights; a total that overflows must be
            // refused here, not wrap (or panic) in there.
            if panel_nnz
                .iter()
                .try_fold(0u64, |sum, &n| sum.checked_add(n))
                .is_none()
            {
                return Err(DistError::Frame(
                    "subtree frame's panel non-zero counts overflow u64".into(),
                ));
            }
            let plan = ExecPlan::from_panel_nnz(ranges, &panel_nnz, ways);
            if node >= plan.num_nodes() as u64 {
                return Err(DistError::Frame(format!(
                    "subtree frame names node {node} of a {}-node plan",
                    plan.num_nodes()
                )));
            }
            let count = take_len(&mut p, 16, "panel pairs")?;
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                pairs.push((take_block(&mut p)?, take_block(&mut p)?));
            }
            Message::Subtree {
                job,
                plan,
                node,
                pairs,
            }
        }
        KIND_RESULT => {
            let job = take_u64(&mut p)?;
            let partial = take_block(&mut p)?;
            // Each span costs at least its five fixed u64 fields (two
            // empty-string length prefixes, both timestamps, the
            // depth).
            let count = take_len(&mut p, 40, "spans")?;
            let mut spans = Vec::with_capacity(count);
            for _ in 0..count {
                spans.push(take_span(&mut p)?);
            }
            Message::Result {
                job,
                partial,
                spans,
            }
        }
        KIND_FAILED => Message::Failed {
            job: take_u64(&mut p)?,
            error: take_str(&mut p)?,
        },
        KIND_HEARTBEAT => Message::Heartbeat,
        KIND_SHUTDOWN => Message::Shutdown,
        other => return Err(DistError::Frame(format!("unknown frame kind {other}"))),
    };
    if !p.is_empty() {
        return Err(DistError::Frame(format!(
            "{} bytes of trailing garbage after a {} frame",
            p.len(),
            msg.kind_name()
        )));
    }
    Ok(Some(msg))
}

fn take_u64(p: &mut &[u8]) -> Result<u64, DistError> {
    if p.len() < 8 {
        return Err(DistError::Frame("frame payload truncated mid-field".into()));
    }
    let (head, rest) = p.split_at(8);
    *p = rest;
    Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
}

/// Takes a `u64` that sizes or indexes something: it must fit `usize`,
/// and when it counts items of at least `min_item_bytes` each, the rest
/// of the payload must be able to hold that many.
fn take_len(p: &mut &[u8], min_item_bytes: u64, what: &str) -> Result<usize, DistError> {
    let n = take_u64(p)?;
    if n.saturating_mul(min_item_bytes) > p.len() as u64 {
        return Err(DistError::Frame(format!(
            "frame declares {n} {what} in {} bytes",
            p.len()
        )));
    }
    usize::try_from(n).map_err(|_| DistError::Frame(format!("frame {what} {n} exceeds usize")))
}

fn take_str(p: &mut &[u8]) -> Result<String, DistError> {
    let len = take_u64(p)?;
    if len > p.len() as u64 {
        return Err(DistError::Frame(format!(
            "string declares {len} bytes but only {} remain",
            p.len()
        )));
    }
    let (head, rest) = p.split_at(len as usize);
    *p = rest;
    String::from_utf8(head.to_vec()).map_err(|_| DistError::Frame("string is not UTF-8".into()))
}

fn take_span(p: &mut &[u8]) -> Result<WireSpan, DistError> {
    let name = take_str(p)?;
    let cat = take_str(p)?;
    let start_ns = take_u64(p)?;
    let end_ns = take_u64(p)?;
    let depth = u32::try_from(take_u64(p)?)
        .map_err(|_| DistError::Frame("span depth exceeds u32".into()))?;
    Ok(WireSpan {
        name,
        cat,
        start_ns,
        end_ns,
        depth,
    })
}

fn take_block(p: &mut &[u8]) -> Result<Csr, DistError> {
    let len = take_u64(p)?;
    if len > p.len() as u64 {
        return Err(DistError::Frame(format!(
            "matrix block declares {len} bytes but only {} remain",
            p.len()
        )));
    }
    let (head, rest) = p.split_at(len as usize);
    *p = rest;
    spill::decode_partial(head).map_err(DistError::Codec)
}

/// Reads until `buf` is full or EOF; returns the bytes read. A timeout
/// or interrupt maps to the typed errors before any data is consumed
/// ambiguously (a deadline mid-frame aborts the whole read).
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, DistError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(e)),
        }
    }
    Ok(got)
}

fn read_exact_frame<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<(), DistError> {
    let got = read_full(r, buf)?;
    if got < buf.len() {
        return Err(DistError::Frame(format!(
            "stream ended mid-{what} ({got} of {} bytes)",
            buf.len()
        )));
    }
    Ok(())
}

/// Maps an I/O error to the typed split the read loops rely on: a
/// deadline expiring is [`DistError::Timeout`], everything else
/// [`DistError::Io`].
pub(crate) fn io_err(e: std::io::Error) -> DistError {
    match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => {
            DistError::Timeout(format!("socket deadline expired: {e}"))
        }
        _ => DistError::Io(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparch_sparse::gen;

    /// A subtree job over a five-panel split with one pruned panel: the
    /// plan's first round, with its leaves' panel pairs.
    fn sample_subtree() -> Message {
        let a = gen::uniform_random(12, 10, 40, 3);
        let b = gen::uniform_random(10, 14, 50, 4);
        let ranges = vec![0..2, 2..4, 4..6, 6..8, 8..10];
        let mut panel_nnz: Vec<u64> = ranges
            .iter()
            .map(|r| a.col_panel(r.clone()).nnz() as u64)
            .collect();
        panel_nnz[2] = 0;
        let plan = ExecPlan::from_panel_nnz(ranges, &panel_nnz, 2);
        let node = plan.round_output(0);
        let pairs = plan
            .subtree(node)
            .leaves
            .iter()
            .map(|&leaf| {
                let r = plan.leaf_range(leaf).clone();
                (a.col_panel(r.clone()), b.row_panel(r))
            })
            .collect();
        Message::Subtree {
            job: 1,
            plan,
            node: node as u64,
            pairs,
        }
    }

    fn sample_messages() -> Vec<Message> {
        let a = gen::uniform_random(12, 9, 40, 3);
        vec![
            Message::Hello { worker: 7 },
            sample_subtree(),
            Message::Failed {
                job: 2,
                error: "stream shape error: panel 0..3 arrived after the plan's last leaf".into(),
            },
            Message::Result {
                job: 1,
                partial: a.clone(),
                spans: vec![],
            },
            Message::Result {
                job: 4,
                partial: a,
                spans: vec![
                    WireSpan {
                        name: "compute-subtree".into(),
                        cat: "dist".into(),
                        start_ns: 100,
                        end_ns: 2_500,
                        depth: 0,
                    },
                    WireSpan {
                        name: "kernel".into(),
                        cat: "stream".into(),
                        start_ns: 150,
                        end_ns: 2_400,
                        depth: 1,
                    },
                ],
            },
            Message::Heartbeat,
            Message::Shutdown,
        ]
    }

    #[test]
    fn messages_round_trip_in_memory() {
        for codec in [SpillCodec::Raw, SpillCodec::Varint] {
            let mut buf = Vec::new();
            let msgs = sample_messages();
            let mut written = 0u64;
            for m in &msgs {
                written += write_message(&mut buf, m, codec).unwrap();
            }
            assert_eq!(written, buf.len() as u64);
            let mut r = buf.as_slice();
            for m in &msgs {
                assert_eq!(read_message(&mut r).unwrap().as_ref(), Some(m), "{codec}");
            }
            assert_eq!(read_message(&mut r).unwrap(), None, "clean EOF");
        }
    }

    #[test]
    fn borrowed_subtree_writer_emits_the_same_frame_as_the_owned_message() {
        let msg = sample_subtree();
        let Message::Subtree {
            job,
            plan,
            node,
            pairs,
        } = &msg
        else {
            unreachable!()
        };
        for codec in [SpillCodec::Raw, SpillCodec::Varint] {
            let (mut owned, mut borrowed) = (Vec::new(), Vec::new());
            write_message(&mut owned, &msg, codec).unwrap();
            let refs = pairs.iter().map(|(a, b)| (a, b));
            let n = write_subtree(&mut borrowed, *job, plan, *node as usize, refs, codec).unwrap();
            assert_eq!(owned, borrowed, "{codec}");
            assert_eq!(n, owned.len() as u64);
        }
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let result = Message::Result {
            job: 3,
            partial: gen::uniform_random(6, 6, 12, 1),
            spans: vec![WireSpan {
                name: "compute-subtree".into(),
                cat: "dist".into(),
                start_ns: 5,
                end_ns: 95,
                depth: 0,
            }],
        };
        let failed = Message::Failed {
            job: 9,
            error: "failed to create spill dir /nope: permission denied".into(),
        };
        for m in [result, sample_subtree(), failed] {
            let mut buf = Vec::new();
            write_message(&mut buf, &m, SpillCodec::Varint).unwrap();
            for cut in 1..buf.len() {
                let mut r = &buf[..cut];
                match read_message(&mut r) {
                    Err(DistError::Frame(_) | DistError::Codec(_)) => {}
                    other => panic!(
                        "{} cut at {cut}: expected typed error, got {other:?}",
                        m.kind_name()
                    ),
                }
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = MAGIC.to_le_bytes().to_vec();
        buf.push(KIND_HEARTBEAT);
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        // No payload follows; if the length were believed this would
        // try to allocate 2^64 bytes before noticing.
        match read_message(&mut buf.as_slice()) {
            Err(DistError::Frame(msg)) => assert!(msg.contains("limit")),
            other => panic!("expected Frame error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_magic_and_kind_and_trailing_garbage_are_rejected() {
        let mut bad_magic = vec![0xde, 0xad, 0xbe, 0xef];
        bad_magic.extend_from_slice(&[KIND_HEARTBEAT]);
        bad_magic.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            read_message(&mut bad_magic.as_slice()),
            Err(DistError::Frame(_))
        ));

        let mut bad_kind = MAGIC.to_le_bytes().to_vec();
        bad_kind.push(99);
        bad_kind.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            read_message(&mut bad_kind.as_slice()),
            Err(DistError::Frame(_))
        ));

        let mut trailing = MAGIC.to_le_bytes().to_vec();
        trailing.push(KIND_HEARTBEAT);
        trailing.extend_from_slice(&3u64.to_le_bytes());
        trailing.extend_from_slice(b"xyz");
        assert!(matches!(
            read_message(&mut trailing.as_slice()),
            Err(DistError::Frame(_))
        ));
    }

    /// A frame of `kind` whose payload is these `u64` fields.
    fn frame_of(kind: u8, fields: &[u64]) -> Vec<u8> {
        let mut frame = MAGIC.to_le_bytes().to_vec();
        frame.push(kind);
        frame.extend_from_slice(&(fields.len() as u64 * 8).to_le_bytes());
        for v in fields {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        frame
    }

    #[test]
    fn subtree_frame_with_lying_or_inconsistent_fields_is_rejected() {
        // job, node, ways, panel count, then per panel (start, end, nnz),
        // then the pair count.
        let cases: [(&str, &[u64]); 6] = [
            ("panels", &[0, 0, 4, u64::MAX]),
            ("panels", &[0, 0, 4, 2, 0, 3, 5]),
            ("panel pairs", &[0, 0, 4, 1, 0, 3, 5, u64::MAX]),
            ("backwards", &[0, 0, 4, 1, 3, 0, 5, 0]),
            ("overflow", &[0, 0, 4, 2, 0, 3, u64::MAX, 3, 6, 1, 0]),
            ("node 1", &[0, 1, 4, 1, 0, 3, 5, 0]),
        ];
        for (what, fields) in cases {
            match read_message(&mut frame_of(KIND_SUBTREE, fields).as_slice()) {
                Err(DistError::Frame(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
                other => panic!("{what}: expected Frame error, got {other:?}"),
            }
        }
        // The well-formed minimum — one leaf, no pairs — does parse: what
        // the pairs must be is the pipeline's check, not the decoder's.
        let ok = frame_of(KIND_SUBTREE, &[0, 0, 4, 1, 0, 3, 5, 0]);
        assert!(matches!(
            read_message(&mut ok.as_slice()),
            Ok(Some(Message::Subtree { .. }))
        ));
    }

    #[test]
    fn failed_frame_with_lying_length_or_bad_utf8_is_rejected() {
        let lying = frame_of(KIND_FAILED, &[3, u64::MAX]);
        assert!(matches!(
            read_message(&mut lying.as_slice()),
            Err(DistError::Frame(_))
        ));
        let mut bad_utf8 = frame_of(KIND_FAILED, &[3, 2]);
        bad_utf8.extend_from_slice(&[0xff, 0xfe]);
        bad_utf8[5..13].copy_from_slice(&18u64.to_le_bytes());
        match read_message(&mut bad_utf8.as_slice()) {
            Err(DistError::Frame(msg)) => assert!(msg.contains("UTF-8"), "{msg}"),
            other => panic!("expected Frame error, got {other:?}"),
        }
    }

    #[test]
    fn result_frame_with_lying_span_count_is_rejected() {
        // A valid result frame whose span count claims more spans than
        // the remaining payload could possibly hold.
        let mut buf = Vec::new();
        let m = Message::Result {
            job: 2,
            partial: gen::uniform_random(4, 4, 6, 9),
            spans: vec![],
        };
        write_message(&mut buf, &m, SpillCodec::Raw).unwrap();
        // The span count is the payload's final 8 bytes.
        let at = buf.len() - 8;
        buf[at..].copy_from_slice(&u64::MAX.to_le_bytes());
        match read_message(&mut buf.as_slice()) {
            Err(DistError::Frame(msg)) => assert!(msg.contains("spans"), "{msg}"),
            other => panic!("expected Frame error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_matrix_block_surfaces_as_codec_error() {
        let mut buf = Vec::new();
        let m = Message::Result {
            job: 1,
            partial: gen::uniform_random(6, 6, 12, 2),
            spans: vec![],
        };
        write_message(&mut buf, &m, SpillCodec::Raw).unwrap();
        // Flip a byte inside the SPM block's entry region: offsets past
        // frame header (13) + job (8) + block len (8) + SPM header (28).
        let i = 13 + 8 + 8 + 28 + 4;
        buf[i] ^= 0xff;
        match read_message(&mut buf.as_slice()) {
            Err(DistError::Codec(_) | DistError::Frame(_)) => {}
            other => panic!("expected Codec/Frame error, got {other:?}"),
        }
    }
}

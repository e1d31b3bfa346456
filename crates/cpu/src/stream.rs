//! [`OpStream`] — the one op source a [`Core`](crate::core::Core)
//! executes, unifying the synthetic generators ([`TraceGen`]) and the
//! trace-file replayers ([`TraceReader`]) behind a single
//! `next_op`/`snapshot`/`restore`/`encode`/`decode` surface.
//!
//! Everything above this module (the core model, the system warm-up,
//! warm-state checkpoints) is agnostic to where ops come from; this
//! enum is the only place that dispatches. The encoded form is a
//! one-byte kind tag followed by the variant's own payload, so a
//! checkpoint written for a synthetic workload can never be misread as
//! a trace replay cursor or vice versa.

use dca_sim_core::{ByteReader, ByteWriter, CodecError};

use crate::profile::Benchmark;
use crate::trace::{TraceGen, TraceOp};
use crate::tracefile::TraceReader;

/// Kind tags of the encoded form.
const KIND_GEN: u8 = 0;
const KIND_REPLAY: u8 = 1;

/// A deterministic, checkpointable source of memory operations.
#[derive(Clone, Debug)]
pub enum OpStream {
    /// Synthetic generator (Table I profiles).
    Gen(TraceGen),
    /// Trace-file replayer.
    Replay(TraceReader),
}

impl OpStream {
    /// The stream for `bench` over the region starting at block `base`:
    /// a seeded [`TraceGen`] for synthetic benchmarks, a [`TraceReader`]
    /// for registered traces (`seed` is irrelevant to a replay — the
    /// records *are* the stream).
    pub fn for_bench(bench: Benchmark, base: u64, seed: u64) -> OpStream {
        match bench {
            Benchmark::Trace(id) => OpStream::Replay(TraceReader::new(id, base)),
            b => OpStream::Gen(TraceGen::new(b.profile(), base, seed)),
        }
    }

    /// The workload this stream produces.
    pub fn bench(&self) -> Benchmark {
        match self {
            OpStream::Gen(g) => g.profile().bench,
            OpStream::Replay(r) => r.bench(),
        }
    }

    /// Produce the next op.
    #[inline]
    pub fn next_op(&mut self) -> TraceOp {
        match self {
            OpStream::Gen(g) => g.next_op(),
            OpStream::Replay(r) => r.next_op(),
        }
    }

    /// Ops produced so far.
    pub fn generated(&self) -> u64 {
        match self {
            OpStream::Gen(g) => g.generated(),
            OpStream::Replay(r) => r.generated(),
        }
    }

    /// Heap bytes this stream owns. A replay cursor owns none: the
    /// trace's records are shared process-wide by the registry.
    pub fn heap_bytes(&self) -> usize {
        match self {
            OpStream::Gen(g) => g.heap_bytes(),
            OpStream::Replay(_) => 0,
        }
    }

    /// Capture the stream mid-flight as an owned checkpoint.
    pub fn snapshot(&self) -> OpStream {
        self.clone()
    }

    /// Overwrite this stream's state with a previously captured
    /// snapshot.
    ///
    /// # Panics
    /// Panics if the snapshot drives a different workload kind,
    /// benchmark or region.
    pub fn restore(&mut self, snap: &OpStream) {
        match (self, snap) {
            (OpStream::Gen(g), OpStream::Gen(s)) => g.restore(s),
            (OpStream::Replay(r), OpStream::Replay(s)) => r.restore(s),
            _ => panic!("snapshot workload identity mismatch: generator vs trace replay"),
        }
    }

    /// Serialise the stream state (checkpoint-file payload).
    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            OpStream::Gen(g) => {
                w.put_u8(KIND_GEN);
                g.encode(w);
            }
            OpStream::Replay(r) => {
                w.put_u8(KIND_REPLAY);
                r.encode(w);
            }
        }
    }

    /// Rebuild a stream from an [`OpStream::encode`] payload.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<OpStream, CodecError> {
        match r.u8()? {
            KIND_GEN => Ok(OpStream::Gen(TraceGen::decode(r)?)),
            KIND_REPLAY => Ok(OpStream::Replay(TraceReader::decode(r)?)),
            _ => Err(CodecError::new("unknown op-stream kind")),
        }
    }
}

impl From<TraceGen> for OpStream {
    fn from(g: TraceGen) -> Self {
        OpStream::Gen(g)
    }
}

impl From<TraceReader> for OpStream {
    fn from(r: TraceReader) -> Self {
        OpStream::Replay(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracefile::{encode_trace, register_trace_bytes, TraceEncoding, TraceRecord};

    fn trace_bench() -> Benchmark {
        let records: Vec<TraceRecord> = (0..64)
            .map(|i| TraceRecord {
                gap: 3,
                block: i * 5 % 97,
                is_store: i % 4 == 0,
            })
            .collect();
        register_trace_bytes(
            "opstream-test",
            &encode_trace(&records, TraceEncoding::Delta),
        )
        .expect("register")
    }

    fn ops_equal(a: &TraceOp, b: &TraceOp) -> bool {
        a.block == b.block
            && a.is_store == b.is_store
            && a.gap == b.gap
            && a.pc == b.pc
            && a.dependent == b.dependent
            && a.chain == b.chain
    }

    #[test]
    fn dispatches_by_bench_kind() {
        let syn = OpStream::for_bench(Benchmark::Gcc, 1 << 26, 9);
        assert!(matches!(syn, OpStream::Gen(_)));
        assert_eq!(syn.bench(), Benchmark::Gcc);
        let tb = trace_bench();
        let rep = OpStream::for_bench(tb, 2 << 26, 9);
        assert!(matches!(rep, OpStream::Replay(_)));
        assert_eq!(rep.bench(), tb);
    }

    #[test]
    fn codec_round_trips_both_kinds_mid_stream() {
        for bench in [Benchmark::Mcf, trace_bench()] {
            let mut s = OpStream::for_bench(bench, 1 << 26, 5);
            for _ in 0..321 {
                s.next_op();
            }
            let mut w = ByteWriter::new();
            s.encode(&mut w);
            let buf = w.into_vec();
            let mut r = ByteReader::new(&buf);
            let mut back = OpStream::decode(&mut r).expect("decode");
            r.finish().expect("fully consumed");
            assert_eq!(back.generated(), s.generated());
            for _ in 0..500 {
                let (a, b) = (s.next_op(), back.next_op());
                assert!(ops_equal(&a, &b), "{bench:?} diverged");
            }
        }
    }

    #[test]
    fn unknown_kind_byte_rejected() {
        let buf = [9u8, 0, 0, 0];
        assert!(OpStream::decode(&mut ByteReader::new(&buf)).is_err());
    }

    #[test]
    #[should_panic(expected = "identity mismatch")]
    fn restore_rejects_cross_kind_snapshot() {
        let mut syn = OpStream::for_bench(Benchmark::Gcc, 1 << 26, 9);
        let rep = OpStream::for_bench(trace_bench(), 1 << 26, 9);
        syn.restore(&rep.snapshot());
    }
}

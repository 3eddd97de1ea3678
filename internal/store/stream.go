package store

import (
	"fmt"
	"iter"

	"repro/internal/relation"
)

// TupleSeq streams tuples out of a backend. At most one non-nil error is
// yielded, as the final element; a tuple element always has a nil error.
type TupleSeq = iter.Seq2[relation.Tuple, error]

// Streamer is optionally implemented by backends whose full scans can
// deliver incrementally: reads (and therefore budget and trace) are
// charged as the stream is consumed, not when it is opened, and a
// partitioned backend feeds partials into the stream as each shard
// finishes instead of waiting for the slowest one. A full drain charges
// exactly what ScanInto charges.
type Streamer interface {
	ScanSeq(es *ExecStats, rel string) TupleSeq
}

// ScanSeq returns every tuple of rel as a lazy stream, using the
// backend's incremental path when it implements Streamer and falling back
// to a materialized ScanInto otherwise (charged up front, as ScanInto
// always is). This is the one streaming-scan entry point shared by every
// backend.
func ScanSeq(b Backend, es *ExecStats, rel string) TupleSeq {
	if s, ok := b.(Streamer); ok {
		return s.ScanSeq(es, rel)
	}
	return func(yield func(relation.Tuple, error) bool) {
		ts, err := b.ScanInto(es, rel)
		if err != nil {
			yield(nil, err)
			return
		}
		for _, t := range ts {
			if !yield(t, nil) {
				return
			}
		}
	}
}

// scanChunk is the charging granularity of a streamed scan: reads are
// booked per chunk, so per-tuple pulls don't pay an atomic add each and a
// budget overshoot is bounded by the chunk size.
const scanChunk = 256

// ScanSeq implements Streamer: the relation is snapshotted under the read
// lock (so concurrent ApplyUpdate cannot corrupt the stream), then reads
// are charged — and witness tuples recorded — chunk by chunk as the
// consumer pulls. An abandoned stream stops charging; a full drain
// charges exactly ScanInto's one scan, |R| reads and |R| time units.
func (db *DB) ScanSeq(es *ExecStats, rel string) TupleSeq {
	return func(yield func(relation.Tuple, error) bool) {
		db.mu.RLock()
		r := db.data.Rel(rel)
		if r == nil {
			db.mu.RUnlock()
			yield(nil, fmt.Errorf("store: %w %q", ErrUnknownRelation, rel))
			return
		}
		out := copyTuples(r.Tuples())
		db.mu.RUnlock()
		if err := es.ChargeTo(&db.counters, Counters{Scans: 1}); err != nil {
			yield(nil, err)
			return
		}
		for i := 0; i < len(out); i += scanChunk {
			j := min(i+scanChunk, len(out))
			if err := es.ChargeTo(&db.counters, Counters{TupleReads: int64(j - i), TimeUnits: int64(j - i)}); err != nil {
				yield(nil, err)
				return
			}
			for _, t := range out[i:j] {
				es.record(rel, t)
				if !yield(t, nil) {
					return
				}
			}
		}
	}
}

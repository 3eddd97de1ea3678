package shard

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/store"
)

// The sharded backend streams scans: see store.Streamer.
var _ store.Streamer = (*Store)(nil)

// ScanSeq implements store.Streamer: every shard snapshots its partition
// concurrently and the merged stream yields each partial the moment its
// shard finishes — first-answer latency is the fastest shard's scan, not
// the slowest one's. Reads are charged to es per partial as it enters the
// stream (each shard's own scan work is booked on that shard's global
// counters where it happened), so an abandoned stream stops charging the
// call; a full drain charges exactly what ScanInto charges: one partial
// scan per shard, |R| reads, |R| time units.
func (s *Store) ScanSeq(es *store.ExecStats, rel string) store.TupleSeq {
	if _, ok := s.routeFor(rel); !ok {
		return func(yield func(relation.Tuple, error) bool) {
			yield(nil, fmt.Errorf("shard: %w %q", store.ErrUnknownRelation, rel))
		}
	}
	if len(s.shards) == 1 {
		return s.shards[0].ScanSeq(es, rel)
	}
	return func(yield func(relation.Tuple, error) bool) {
		type part struct {
			ts  []relation.Tuple
			err error
		}
		// The channel buffers one message per shard, so producers always
		// complete and never leak, even when the consumer stops early.
		ch := make(chan part, len(s.shards))
		for _, sh := range s.shards {
			go func(sh *store.DB) {
				// Uncounted at call level: the merge loop below charges es
				// once per partial, after the partial is actually consumed
				// into the stream. Shard-global counters are charged here,
				// where the physical scan happens.
				ts, err := sh.ScanInto(nil, rel)
				ch <- part{ts: ts, err: err}
			}(sh)
		}
		for range s.shards {
			p := <-ch
			if p.err != nil {
				yield(nil, p.err)
				return
			}
			if err := es.ChargeTo(nil, store.Counters{
				Scans:      1,
				TupleReads: int64(len(p.ts)),
				TimeUnits:  int64(len(p.ts)),
			}); err != nil {
				yield(nil, err)
				return
			}
			for _, t := range p.ts {
				es.RecordTouched(rel, t)
				if !yield(t, nil) {
					return
				}
			}
		}
	}
}

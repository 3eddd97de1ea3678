package shard

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/relation"
)

// AddRelation implements store.Backend: the new relation gets a routing
// key chosen from the supplied access entries (chooseRoute, same rule as
// Open), the seed tuples are partitioned by it, and each shard registers
// the relation through its own DDL path. All shards share one relational
// schema and one access schema, so the declaration and entry registration
// are performed effectively once and repeat idempotently per shard.
func (s *Store) AddRelation(rs relation.RelSchema, entries []access.Entry, tuples []relation.Tuple) error {
	if err := rs.Validate(); err != nil {
		return err
	}
	attrs := chooseRoute(rs, entries)
	pos, err := rs.Positions(attrs)
	if err != nil {
		return fmt.Errorf("shard: routing key for %s: %w", rs.Name, err)
	}
	s.routesMu.Lock()
	if _, dup := s.routes[rs.Name]; dup {
		s.routesMu.Unlock()
		return fmt.Errorf("shard: relation %q already exists", rs.Name)
	}
	s.routes[rs.Name] = route{attrs: attrs, pos: pos}
	s.routesMu.Unlock()

	abort := func(done int, err error) error {
		for i := 0; i < done; i++ {
			s.shards[i].DropRelation(rs.Name) //nolint:errcheck
		}
		s.routesMu.Lock()
		delete(s.routes, rs.Name)
		s.routesMu.Unlock()
		return err
	}
	parts := make([][]relation.Tuple, len(s.shards))
	for _, t := range tuples {
		if len(t) != rs.Arity() {
			return abort(0, fmt.Errorf("shard: %s: seed tuple %v has arity %d", rs, t, len(t)))
		}
		i := shardIndex(t.Project(pos).Key(), len(s.shards))
		parts[i] = append(parts[i], t)
	}
	for i, sh := range s.shards {
		if err := sh.AddRelation(rs, entries, parts[i]); err != nil {
			return abort(i, err)
		}
	}
	return nil
}

// DropRelation implements store.Backend: the route is retracted first (new
// fetches fail fast as "unknown relation"), then every shard drops its
// partition; the shared schema and access entries go with the first drop,
// the rest repeat idempotently.
func (s *Store) DropRelation(name string) error {
	s.routesMu.Lock()
	delete(s.routes, name)
	s.routesMu.Unlock()
	for _, sh := range s.shards {
		if err := sh.DropRelation(name); err != nil {
			return err
		}
	}
	return nil
}

// HasRelation implements store.Backend: whether this sharded store routes
// the named relation (the shared schema's declarations may outlive it).
func (s *Store) HasRelation(name string) bool {
	_, ok := s.routeFor(name)
	return ok
}

// ApplyDerived implements store.Backend: ΔD splits by routing key like
// ApplyVersioned, every piece is pre-validated, and the pieces apply through
// each shard's unversioned derived-state path — neither the per-shard
// LSNs nor the merged commit number advance, because a view delta is
// state of the base commit that produced it.
func (s *Store) ApplyDerived(u *relation.Update) error {
	subs, err := s.splitByRoute(u)
	if err != nil {
		return err
	}
	for i, su := range subs {
		if su == nil {
			continue
		}
		if err := s.shards[i].ValidateUpdate(su); err != nil {
			return err
		}
	}
	for i, su := range subs {
		if su == nil {
			continue
		}
		if err := s.shards[i].ApplyDerived(su); err != nil {
			return err
		}
	}
	return nil
}

package engine

import (
	"fmt"

	"parajoin/internal/rel"
)

// Skew-resilient hash routing — the technique the paper's footnote 2
// alludes to ("some parallel hash join algorithms detect the heavy hitters
// and treat them specially, to avoid skew"). A join's two exchanges agree
// on a set of heavy key values:
//
//   - the SkewSplit side spreads heavy-key tuples round-robin over all
//     workers instead of hashing them to one;
//   - the SkewBroadcast side replicates its heavy-key tuples to every
//     worker, so every split-out tuple still finds its matches.
//
// Non-heavy keys hash normally (both sides with the same seed). Each
// matching pair meets on exactly one worker, so join results stay exact.

// SkewMode selects a RouteSkewHash exchange's role in the pair.
type SkewMode int

// Skew roles.
const (
	// SkewSplit scatters heavy-key tuples round-robin (the big/probe side).
	SkewSplit SkewMode = iota
	// SkewBroadcast replicates heavy-key tuples everywhere (the build side).
	SkewBroadcast
)

// RouteSkewHash is RouteHash with special treatment for heavy keys.
// Exchanges are configured through ExchangeSpec.Skew.
const RouteSkewHash RouteKind = 100

// SkewSpec configures a RouteSkewHash exchange.
type SkewSpec struct {
	Mode SkewMode
	// Heavy lists the heavy key values of the (single) hash column.
	Heavy []int64
}

// skewRouter builds the routing function for a RouteSkewHash exchange.
func (e *exec) skewRouter(spec *ExchangeSpec, sch rel.Schema, sh *shuffle) (func(b rel.Rows) error, error) {
	if spec.Skew == nil {
		return nil, fmt.Errorf("engine: exchange %d has RouteSkewHash but no SkewSpec", spec.ID)
	}
	if len(spec.HashCols) != 1 {
		return nil, fmt.Errorf("engine: skew-aware routing needs exactly one hash column, got %v", spec.HashCols)
	}
	col := sch.IndexOf(spec.HashCols[0])
	if col < 0 {
		return nil, fmt.Errorf("engine: exchange %d hash column %q not in %v", spec.ID, spec.HashCols[0], sch)
	}
	heavy := make(map[int64]bool, len(spec.Skew.Heavy))
	for _, v := range spec.Skew.Heavy {
		heavy[v] = true
	}
	n := e.cluster.Workers()
	rr := 0
	mode := spec.Skew.Mode

	return func(b rel.Rows) error {
		for i := 0; i < b.N; i++ {
			t := b.Row(i)
			if heavy[t[col]] {
				switch mode {
				case SkewSplit:
					dst := rr % n
					rr++
					if err := sh.add(dst, t); err != nil {
						return err
					}
				case SkewBroadcast:
					for dst := 0; dst < n; dst++ {
						if err := sh.add(dst, t); err != nil {
							return err
						}
					}
				}
				continue
			}
			dst := int(rel.Hash64(spec.Seed, t[col]) % uint64(n))
			if err := sh.add(dst, t); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

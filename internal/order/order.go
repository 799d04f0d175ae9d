// Package order implements Section 5 of the paper: a cost model that
// estimates the number of binary searches a Tributary join performs under a
// candidate global variable order, and optimizers that pick a good order.
//
// The model uses the standard statistics V(R, prefix) — the number of
// distinct values of a prefix of R's join attributes under the candidate
// order. The estimated intersection size at step i is
//
//	S_i = min over atoms R_j containing the i-th variable of
//	      V(R_j, p_{i,j}) / V(R_j, p_{i-1,j})
//
// (equation 3), and the total cost accumulates the expected number of
// searches across the recursion (equation 4):
//
//	Cost = S_1 + S_1·S_2 + S_1·S_2·S_3 + ...  = Σ_i Π_{j≤i} S_j.
package order

import (
	"fmt"
	"math"
	"math/rand"

	"parajoin/internal/core"
	"parajoin/internal/ljoin"
	"parajoin/internal/rel"
	"parajoin/internal/stats"
)

// Estimator computes the cost of variable orders for one query over one set
// of relations. Prefix-distinct statistics are cached per atom and per
// variable set, so evaluating many candidate orders is cheap. An Estimator
// reuses scratch across calls and is not safe for concurrent use.
type Estimator struct {
	q     *core.Query
	vars  []core.Var
	atoms []*atomStats
	// cols and proj are the column list and projection scratch every
	// uncached prefix count reuses.
	cols []int
	proj []int64
}

type atomStats struct {
	atom core.Atom
	// norm is the atom's normalized relation, flat: constants applied,
	// columns = the atom's distinct variables in canonical
	// (first-appearance) order.
	norm rel.Rows
	// colOf maps a variable to its column in norm.
	colOf map[core.Var]int
	// cache maps a bitmask over the query's variables to V(norm, set).
	cache map[uint64]float64
}

// NewEstimator normalizes every atom's relation and prepares the caches.
// relations maps atom aliases to relations in the atom's term layout.
func NewEstimator(q *core.Query, relations map[string]*rel.Relation) (*Estimator, error) {
	e := &Estimator{q: q, vars: q.Vars()}
	if len(e.vars) > 64 {
		return nil, fmt.Errorf("order: more than 64 variables")
	}
	canon := e.vars
	for _, a := range q.Atoms {
		r := relations[a.Alias]
		if r == nil {
			return nil, fmt.Errorf("order: no relation bound to atom %q", a.Alias)
		}
		n := ljoin.NewNormalizer(a, canon)
		norm := n.Flatten(r.Tuples)
		colOf := make(map[core.Var]int, norm.Arity)
		for i, name := range n.Schema() {
			colOf[core.Var(name)] = i
		}
		e.atoms = append(e.atoms, &atomStats{
			atom:  a,
			norm:  norm,
			colOf: colOf,
			cache: map[uint64]float64{},
		})
	}
	return e, nil
}

func (e *Estimator) varBit(v core.Var) uint64 {
	for i, ev := range e.vars {
		if ev == v {
			return 1 << uint(i)
		}
	}
	return 0
}

// prefixCount returns V(atom, set) where set is a bitmask over e.vars
// restricted to the atom's variables.
func (a *atomStats) prefixCount(e *Estimator, mask uint64) float64 {
	if v, ok := a.cache[mask]; ok {
		return v
	}
	cols := e.cols[:0]
	for i, ev := range e.vars {
		if mask&(1<<uint(i)) != 0 {
			if c, ok := a.colOf[ev]; ok {
				cols = append(cols, c)
			}
		}
	}
	e.cols = cols
	// Cost asks only about atoms with variables, so the arity is positive.
	n, proj := stats.DistinctRows(a.norm.Data, a.norm.Arity, cols, e.proj)
	e.proj = proj
	v := float64(n)
	a.cache[mask] = v
	return v
}

// Cost estimates the number of binary searches a Tributary join performs
// under the given global variable order.
func (e *Estimator) Cost(order []core.Var) (float64, error) {
	if len(order) != len(e.vars) {
		return 0, fmt.Errorf("order: order %v does not cover the %d query variables", order, len(e.vars))
	}
	steps := make([]float64, 0, len(order))
	var prefixMask uint64
	for _, v := range order {
		bit := e.varBit(v)
		if bit == 0 {
			return 0, fmt.Errorf("order: unknown variable %s", v)
		}
		s := math.Inf(1)
		for _, a := range e.atoms {
			if _, ok := a.colOf[v]; !ok {
				continue
			}
			num := a.prefixCount(e, prefixMask|bit)
			den := a.prefixCount(e, prefixMask)
			var est float64
			if den == 0 {
				est = 0
			} else {
				est = num / den
			}
			if est < s {
				s = est
			}
		}
		if math.IsInf(s, 1) {
			return 0, fmt.Errorf("order: variable %s bound by no atom", v)
		}
		steps = append(steps, s)
		prefixMask |= bit
	}

	cost, prod := 0.0, 1.0
	for _, s := range steps {
		prod *= s
		cost += prod
	}
	return cost, nil
}

// Best enumerates variable orders and returns the one with the lowest
// estimated cost. With k variables it tries all k! permutations when that
// is at most maxEnum; otherwise it combines a beam search (width 16) with
// maxEnum random permutations (seeded for reproducibility) and keeps the
// cheapest.
func (e *Estimator) Best(maxEnum int, seed int64) ([]core.Var, float64, error) {
	k := len(e.vars)
	total := factorial(k)
	var best []core.Var
	bestCost := math.Inf(1)
	consider := func(ord []core.Var) error {
		c, err := e.Cost(ord)
		if err != nil {
			return err
		}
		if c < bestCost {
			bestCost = c
			best = append([]core.Var(nil), ord...)
		}
		return nil
	}
	if total > 0 && total <= maxEnum {
		perm := append([]core.Var(nil), e.vars...)
		var walk func(i int) error
		walk = func(i int) error {
			if i == k {
				return consider(perm)
			}
			for j := i; j < k; j++ {
				perm[i], perm[j] = perm[j], perm[i]
				if err := walk(i + 1); err != nil {
					return err
				}
				perm[i], perm[j] = perm[j], perm[i]
			}
			return nil
		}
		if err := walk(0); err != nil {
			return nil, 0, err
		}
	} else {
		if ord, _, err := e.BestBeam(16); err == nil {
			if err := consider(ord); err != nil {
				return nil, 0, err
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for n := 0; n < maxEnum; n++ {
			if err := consider(e.randomOrder(rng)); err != nil {
				return nil, 0, err
			}
		}
	}
	return best, bestCost, nil
}

// RandomOrders returns n distinct-seeded random variable orders; Figure 12
// of the paper samples 20 of these per query.
func (e *Estimator) RandomOrders(n int, seed int64) [][]core.Var {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]core.Var, n)
	for i := range out {
		out[i] = e.randomOrder(rng)
	}
	return out
}

func (e *Estimator) randomOrder(rng *rand.Rand) []core.Var {
	ord := append([]core.Var(nil), e.vars...)
	rng.Shuffle(len(ord), func(i, j int) { ord[i], ord[j] = ord[j], ord[i] })
	return ord
}

func factorial(k int) int {
	f := 1
	for i := 2; i <= k; i++ {
		f *= i
		if f > 1<<30 {
			return -1 // overflow sentinel: treat as "too many"
		}
	}
	return f
}

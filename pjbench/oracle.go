package main

import (
	"parajoin/internal/dataset"
	"parajoin/internal/queries"
)

// batchOracle computes the answers of Q1, Q3 and Q4 with plain
// single-threaded code that shares nothing with the engine, and returns
// their set digests: the reference every configuration's answer must
// match.
func batchOracle(w *queries.Workload) map[string]setDigest {
	return map[string]setDigest{
		"Q1": triangleOracle(w.Relations["Twitter"].Tuples),
		"Q3": q3Oracle(w),
		"Q4": q4Oracle(w),
	}
}

// triangleOracle answers Q1(x,y,z) :- E(x,y), E(y,z), E(z,x).
func triangleOracle[T ~[]int64](edges []T) setDigest {
	out := map[int64][]int64{}
	has := map[[2]int64]bool{}
	for _, e := range edges {
		if !has[[2]int64{e[0], e[1]}] {
			has[[2]int64{e[0], e[1]}] = true
			out[e[0]] = append(out[e[0]], e[1])
		}
	}
	var d setDigest
	for xy := range has {
		x, y := xy[0], xy[1]
		for _, z := range out[y] {
			if has[[2]int64{z, x}] {
				d.add([]int64{x, y, z})
			}
		}
	}
	return d
}

// filmography maps each actor to the set of films they performed in, and
// each film to its cast.
func filmography(w *queries.Workload) (films map[int64]map[int64]bool, cast map[int64]map[int64]bool) {
	filmOf := map[int64][]int64{} // perform -> films
	for _, t := range w.Relations["PerformFilm"].Tuples {
		filmOf[t[0]] = append(filmOf[t[0]], t[1])
	}
	films, cast = map[int64]map[int64]bool{}, map[int64]map[int64]bool{}
	for _, t := range w.Relations["ActorPerform"].Tuples {
		actor := t[0]
		for _, f := range filmOf[t[1]] {
			if films[actor] == nil {
				films[actor] = map[int64]bool{}
			}
			films[actor][f] = true
			if cast[f] == nil {
				cast[f] = map[int64]bool{}
			}
			cast[f][actor] = true
		}
	}
	return films, cast
}

// q3Oracle answers Q3: the cast of every film starring both an entity
// named Joe Pesci and one named Robert De Niro.
func q3Oracle(w *queries.Workload) setDigest {
	films, cast := filmography(w)
	named := func(name string) map[int64]bool {
		code, ok := w.KB.Dict.Lookup(name)
		out := map[int64]bool{}
		if !ok {
			return out
		}
		for _, t := range w.Relations["ObjectName"].Tuples {
			if t[1] == code {
				for f := range films[t[0]] {
					out[f] = true
				}
			}
		}
		return out
	}
	pesci, deniro := named(dataset.NameJoePesci), named(dataset.NameRobertDeNiro)
	members := map[int64]bool{}
	for f := range pesci {
		if deniro[f] {
			for a := range cast[f] {
				members[a] = true
			}
		}
	}
	var d setDigest
	for a := range members {
		d.add([]int64{a})
	}
	return d
}

// q4Oracle answers Q4: ordered actor pairs (an actor paired with itself
// included) who share at least two distinct films.
func q4Oracle(w *queries.Workload) setDigest {
	_, cast := filmography(w)
	shared := map[[2]int64]int{}
	for _, actors := range cast {
		for a1 := range actors {
			for a2 := range actors {
				shared[[2]int64{a1, a2}]++
			}
		}
	}
	var d setDigest
	for pair, n := range shared {
		if n >= 2 {
			d.add([]int64{pair[0], pair[1]})
		}
	}
	return d
}

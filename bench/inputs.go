package main

import (
	"sort"
	"time"

	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// Every input the program under test receives is generated here from
// the -seed; the server sees only the resulting requests.

// arrival is one open-loop request: when it is due, counted from the
// start of its phase, and which of the workload's benchmarks it asks
// for.
type arrival struct {
	due   time.Duration
	bench int
}

// arrivalSchedule draws the arrivals of a Poisson process of the given
// rate over span, conditioned on every second holding exactly its
// expected count (uniform order statistics within the second) and asking
// for every benchmark equally often, in a seeded order. Fixing the
// counts makes every slice of the span (see sliced) the same offered load
// and mix — the p50 of a mix of a fast and a slow benchmark moves with
// the mix — while the spacing and the order vary with the seed.
func arrivalSchedule(r *rng.RNG, rate int, span time.Duration, benches int) []arrival {
	seconds := max(1, int(span/time.Second))
	out := make([]arrival, 0, seconds*rate)
	for k := 0; k < seconds; k++ {
		for _, i := range r.Perm(rate) {
			out = append(out, arrival{
				due:   time.Duration(k)*time.Second + time.Duration(r.Float64()*float64(time.Second)),
				bench: i % benches,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

const (
	// raggedPerSample caller-supplied sequences are cut from each corpus
	// sample.
	raggedPerSample = 5
	// raggedBlock consecutive requests of a client hold one sequence from
	// each of raggedBlock length strata, so that every slice of the span
	// sees the same mix of lengths.
	raggedBlock = 25
)

// raggedSequences are the caller-supplied sequences: the last k cells of
// a corpus sample, with k walking [len/4, len] — [12, 48] under the
// quick profile — so every length is covered evenly. They follow the
// model's own input distribution (boundary tokens included) at lengths
// a user below the profile cap would send. The set is the same for every
// seed, so accuracy on it is a property of the program alone; the seed
// draws the order the client sends them in.
func raggedSequences(corpus [][]tensor.Vector) [][]tensor.Vector {
	var seqs [][]tensor.Vector
	for i, xs := range corpus {
		shortest := max(1, len(xs)/4)
		lengths := len(xs) - shortest + 1
		for j := 0; j < raggedPerSample; j++ {
			// 11 is coprime to the 37 lengths of the quick profile.
			k := shortest + (i*raggedPerSample+j)*11%lengths
			seqs = append(seqs, xs[len(xs)-k:])
		}
	}
	return seqs
}

// raggedWalk orders one pass over a pool of sequences with the given
// lengths: the pool sorted by length is cut into raggedBlock strata, and
// block b of the walk sends the b-th sequence of every stratum's seeded
// order, shuffled. Every sequence is sent once per walk, and any
// raggedBlock consecutive requests cost about the same.
func raggedWalk(r *rng.RNG, lengths []int) []int {
	byLength := make([]int, len(lengths))
	for i := range byLength {
		byLength[i] = i
	}
	sort.SliceStable(byLength, func(i, j int) bool { return lengths[byLength[i]] < lengths[byLength[j]] })
	strata := min(raggedBlock, len(byLength))
	perStratum := make([][]int, strata)
	blocks := 0
	for s := range perStratum {
		members := byLength[s*len(byLength)/strata : (s+1)*len(byLength)/strata]
		for _, i := range r.Perm(len(members)) {
			perStratum[s] = append(perStratum[s], members[i])
		}
		blocks = max(blocks, len(members))
	}
	walk := make([]int, 0, len(lengths))
	for b := 0; b < blocks; b++ {
		for _, s := range r.Perm(strata) {
			if b < len(perStratum[s]) {
				walk = append(walk, perStratum[s][b])
			}
		}
	}
	return walk
}

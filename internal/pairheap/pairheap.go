// Package pairheap provides the max-queue of candidate row pairs keyed by
// Jaccard similarity (Alg 3's sim_queue) together with the candidate-pair
// membership set used to avoid re-inserting a pair (Alg 3 line 27).
package pairheap

import "slices"

// Pair is a candidate row pair with its similarity score.
type Pair struct {
	Sim  float64
	I, J int32
}

// Key returns a canonical (ordered) identity for the pair, used for
// membership testing: the pair (i, j) and (j, i) share a key.
func (p Pair) Key() uint64 {
	a, b := uint64(uint32(p.I)), uint64(uint32(p.J))
	if a > b {
		a, b = b, a
	}
	return a<<32 | b
}

// Compare is the queue's pop order: similarity descending, then (I, J)
// ascending, so the clustering trace is deterministic, which the paper's
// worked example (Fig 6) implicitly relies on. It is a total order over
// pairs with distinct (I, J), so a queue of distinct pairs has exactly
// one pop sequence however it is stored.
func Compare(a, b Pair) int {
	switch {
	case a.Sim > b.Sim:
		return -1
	case a.Sim < b.Sim:
		return 1
	case a.I != b.I:
		return int(a.I - b.I)
	default:
		return int(a.J - b.J)
	}
}

// Queue is a max-queue of Pairs in Compare order with a membership set
// over pair identities. It holds two parts: a cursor over the initial
// candidate set, kept as one sorted run, and a binary heap holding only
// the pairs pushed later. Pop takes the greater of the two heads. The
// LSH stage already emits its pairs in Compare order, so building the
// queue costs one scan, and Alg 3's many pops from the initial set are
// cursor steps instead of heap sifts.
type Queue struct {
	run     []Pair // initial pairs in Compare order; run[next:] are queued
	next    int
	h       []Pair // pushed pairs, a binary heap in Compare order
	present map[uint64]struct{}
}

// New builds a queue from an initial set of candidate pairs. Of pairs
// that share a Key, the first one in pairs is kept. The queue copies
// pairs and sorts the copy only when it is not already in Compare order.
func New(pairs []Pair) *Queue {
	q := &Queue{
		run:     make([]Pair, 0, len(pairs)),
		present: make(map[uint64]struct{}, len(pairs)),
	}
	for _, p := range pairs {
		if _, dup := q.present[p.Key()]; dup {
			continue
		}
		q.present[p.Key()] = struct{}{}
		q.run = append(q.run, p)
	}
	if !slices.IsSortedFunc(q.run, Compare) {
		slices.SortFunc(q.run, Compare)
	}
	return q
}

// Len returns the number of pairs currently queued.
func (q *Queue) Len() int { return len(q.run) - q.next + len(q.h) }

// Empty reports whether no pairs remain.
func (q *Queue) Empty() bool { return q.Len() == 0 }

// Pop removes and returns the pair with the largest similarity.
// It panics on an empty queue (programming error).
func (q *Queue) Pop() Pair {
	if q.next < len(q.run) && (len(q.h) == 0 || Compare(q.run[q.next], q.h[0]) < 0) {
		p := q.run[q.next]
		q.next++
		return p
	}
	return q.popHeap()
}

// Push inserts a pair if an identical pair (in either orientation) has not
// been seen before; it reports whether the pair was inserted. Note that
// membership is remembered across Pops, matching Alg 3's candidate_pairs
// set, which only ever grows.
func (q *Queue) Push(p Pair) bool {
	if _, dup := q.present[p.Key()]; dup {
		return false
	}
	q.present[p.Key()] = struct{}{}
	q.h = append(q.h, p)
	q.up(len(q.h) - 1)
	return true
}

// Contains reports whether the pair (in either orientation) has ever been
// queued.
func (q *Queue) Contains(i, j int32) bool {
	_, ok := q.present[Pair{I: i, J: j}.Key()]
	return ok
}

// popHeap removes the heap's head; it panics when the heap is empty.
func (q *Queue) popHeap() Pair {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.h = h[:n]
	q.down(0)
	return top
}

func (q *Queue) up(k int) {
	h := q.h
	for k > 0 {
		parent := (k - 1) / 2
		if Compare(h[k], h[parent]) >= 0 {
			return
		}
		h[k], h[parent] = h[parent], h[k]
		k = parent
	}
}

func (q *Queue) down(k int) {
	h := q.h
	n := len(h)
	for {
		c := 2*k + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && Compare(h[r], h[c]) < 0 {
			c = r
		}
		if Compare(h[c], h[k]) >= 0 {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

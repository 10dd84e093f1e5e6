package pairheap

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestPairKeyCanonical(t *testing.T) {
	a := Pair{I: 3, J: 7}
	b := Pair{I: 7, J: 3}
	if a.Key() != b.Key() {
		t.Fatalf("key not orientation-independent")
	}
	c := Pair{I: 3, J: 8}
	if a.Key() == c.Key() {
		t.Fatalf("distinct pairs share a key")
	}
}

func TestQueuePopsByDescendingSim(t *testing.T) {
	q := New([]Pair{
		{Sim: 0.25, I: 2, J: 4},
		{Sim: 0.9, I: 0, J: 4},
		{Sim: 0.5, I: 1, J: 3},
	})
	want := []float64{0.9, 0.5, 0.25}
	for _, w := range want {
		if q.Empty() {
			t.Fatalf("queue empty early")
		}
		if p := q.Pop(); p.Sim != w {
			t.Fatalf("popped %v, want sim %v", p, w)
		}
	}
	if !q.Empty() {
		t.Fatalf("queue should be empty")
	}
}

func TestQueueTieBreakDeterministic(t *testing.T) {
	q := New([]Pair{
		{Sim: 0.5, I: 5, J: 6},
		{Sim: 0.5, I: 1, J: 2},
		{Sim: 0.5, I: 1, J: 9},
	})
	p1 := q.Pop()
	p2 := q.Pop()
	p3 := q.Pop()
	if p1.I != 1 || p1.J != 2 || p2.I != 1 || p2.J != 9 || p3.I != 5 {
		t.Fatalf("tie-break order wrong: %v %v %v", p1, p2, p3)
	}
}

func TestQueueDedup(t *testing.T) {
	q := New([]Pair{{Sim: 0.5, I: 1, J: 2}, {Sim: 0.7, I: 2, J: 1}})
	if q.Len() != 1 {
		t.Fatalf("constructor kept duplicate, len=%d", q.Len())
	}
	if ok := q.Push(Pair{Sim: 0.3, I: 1, J: 2}); ok {
		t.Fatalf("Push accepted duplicate")
	}
	if !q.Contains(2, 1) {
		t.Fatalf("Contains missed pair")
	}
	q.Pop()
	// Membership persists across pops (Alg 3's candidate_pairs set).
	if ok := q.Push(Pair{Sim: 0.3, I: 1, J: 2}); ok {
		t.Fatalf("Push re-accepted popped pair")
	}
	if ok := q.Push(Pair{Sim: 0.3, I: 4, J: 5}); !ok {
		t.Fatalf("Push rejected new pair")
	}
}

func TestPopPanicsWhenEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Pop on empty did not panic")
		}
	}()
	New(nil).Pop()
}

// Property: popping everything yields sims in non-increasing order and
// exactly the deduplicated input multiset.
func TestPropertyHeapOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100)
		pairs := make([]Pair, n)
		uniq := map[uint64]float64{}
		for i := range pairs {
			p := Pair{
				Sim: float64(rng.Intn(10)) / 10,
				I:   int32(rng.Intn(20)),
				J:   int32(rng.Intn(20)),
			}
			pairs[i] = p
			if _, dup := uniq[p.Key()]; !dup {
				uniq[p.Key()] = p.Sim
			}
		}
		q := New(pairs)
		if q.Len() != len(uniq) {
			return false
		}
		var popped []float64
		for !q.Empty() {
			popped = append(popped, q.Pop().Sim)
		}
		if !sort.IsSorted(sort.Reverse(sort.Float64Slice(popped))) {
			return false
		}
		var want []float64
		for _, s := range uniq {
			want = append(want, s)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		for i := range want {
			if popped[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refQueue is the sort-based reference model of Queue: a plain slice of
// queued pairs, fully sorted before every pop (similarity descending,
// then I, then J ascending), and the ever-seen key set.
type refQueue struct {
	queued []Pair
	seen   map[uint64]bool
}

func (r *refQueue) push(p Pair) bool {
	if r.seen[p.Key()] {
		return false
	}
	r.seen[p.Key()] = true
	r.queued = append(r.queued, p)
	return true
}

func (r *refQueue) pop() Pair {
	sort.Slice(r.queued, func(a, b int) bool {
		x, y := r.queued[a], r.queued[b]
		if x.Sim != y.Sim {
			return x.Sim > y.Sim
		}
		if x.I != y.I {
			return x.I < y.I
		}
		return x.J < y.J
	})
	p := r.queued[0]
	r.queued = r.queued[1:]
	return p
}

// Property: under any interleaving of Push and Pop, the queue pops
// exactly the sequence a sort-based reference pops. Inputs cover
// unsorted and sorted New input (New sorts only the former), duplicate
// pairs in both orientations, and Sim ties.
func TestPropertyInterleavedMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		randPair := func() Pair {
			return Pair{
				Sim: float64(rng.Intn(4)) / 4, // few values: many ties
				I:   int32(rng.Intn(12)),
				J:   int32(rng.Intn(12)),
			}
		}
		init := make([]Pair, rng.Intn(60))
		for i := range init {
			init[i] = randPair()
			if i > 0 && rng.Intn(4) == 0 { // same pair, other orientation
				prev := init[rng.Intn(i)]
				init[i] = Pair{Sim: randPair().Sim, I: prev.J, J: prev.I}
			}
		}
		if rng.Intn(2) == 0 {
			slices.SortFunc(init, Compare)
		}
		orig := slices.Clone(init)
		ref := &refQueue{seen: map[uint64]bool{}}
		for _, p := range init {
			ref.push(p)
		}
		q := New(init)
		if !slices.Equal(init, orig) {
			t.Errorf("seed %d: New modified its input", seed)
			return false
		}
		for step := 0; step < 200; step++ {
			if q.Len() != len(ref.queued) {
				t.Errorf("seed %d step %d: Len %d, reference %d", seed, step, q.Len(), len(ref.queued))
				return false
			}
			if rng.Intn(2) == 0 {
				p := randPair()
				if got, want := q.Push(p), ref.push(p); got != want {
					t.Errorf("seed %d step %d: Push(%v) = %v, reference %v", seed, step, p, got, want)
					return false
				}
				continue
			}
			if len(ref.queued) == 0 {
				continue
			}
			if got, want := q.Pop(), ref.pop(); got != want {
				t.Errorf("seed %d step %d: Pop = %v, reference %v", seed, step, got, want)
				return false
			}
		}
		for len(ref.queued) > 0 {
			if got, want := q.Pop(), ref.pop(); got != want {
				t.Errorf("seed %d drain: Pop = %v, reference %v", seed, got, want)
				return false
			}
		}
		return q.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPushPopZeroAlloc pins that steady-state Pop and Push allocate
// nothing: the requeue heap is a typed slice whose capacity is reused,
// so no Pair is boxed. The membership map only grows, and its growth is
// amortised to zero over the runs.
func TestPushPopZeroAlloc(t *testing.T) {
	const n = 1 << 12
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{Sim: 1 - float64(i)/n, I: int32(i), J: int32(i + 1)}
	}
	q := New(pairs)
	next := int32(n + 1)
	pushPop := func() {
		q.Push(Pair{Sim: float64(next%7) / 7, I: 0, J: next})
		next++
		q.Pop()
	}
	for i := 0; i < 64; i++ { // size the heap's backing array
		q.Push(Pair{Sim: 0.5, I: 1, J: next})
		next++
	}
	if allocs := testing.AllocsPerRun(1000, pushPop); allocs != 0 {
		t.Fatalf("steady-state Push+Pop allocates %v times per call, want 0", allocs)
	}
}

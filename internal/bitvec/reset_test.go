package bitvec

import (
	"math/rand"
	"slices"
	"testing"

	"checkfence/internal/sat"
)

// TestResetEmitsSameCNF: a builder reset after one circuit, together
// with its solver, emits for the next circuit exactly the CNF a fresh
// builder and solver emit. Every node gets the same literal, the
// solver ends with the same variable and clause counts, and the model
// enumeration (blocking clauses, polarity promotion) runs the same
// search counter for counter: the solver is deterministic and its
// propagation follows clause order, so equal counters show that the
// clauses arrived in the same order with the same literals.
func TestResetEmitsSameCNF(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		first, next := randomCircuit(rng, 10+rng.Intn(60)), randomCircuit(rng, 10+rng.Intn(60))
		legacy := i%3 == 0
		type outcome struct {
			gates, models int
			stats         sat.Stats
		}
		run := func(b *Builder, s *sat.Solver) (outcome, []sat.Lit) {
			if legacy {
				b.SetMinimize(false)
			}
			vars, nodes := next.build(b)
			models := countModels(t, b, s, vars, nodes[len(nodes)-1])
			lits := make([]sat.Lit, len(nodes))
			for j, n := range nodes {
				lits[j] = b.Lit(n)
			}
			return outcome{b.NumGates(), models, s.Stats()}, lits
		}
		s := sat.New()
		want, wantLits := run(NewBuilder(s), s)

		s = sat.New()
		b := NewBuilder(s)
		b.SetMinimize(i%2 == 0)
		vars, nodes := first.build(b)
		countModels(t, b, s, vars, nodes[len(nodes)-1])
		s.Reset()
		b.Reset()
		got, gotLits := run(b, s)
		if got != want || !slices.Equal(gotLits, wantLits) {
			t.Fatalf("circuit %d: after Reset %+v, literals %v\nfresh %+v, literals %v",
				i, got, gotLits, want, wantLits)
		}
	}
}

package sat

import (
	"slices"
	"testing"
)

// FuzzSolverScript decodes its input into an incremental script over
// at most 12 variables and checks every answer against brute force.
//
// The first byte picks the initial variable count, the second the solver
// set-up: inprocessing on or off (on with chronological backtracking
// at every chance, and optionally every
// learnt clause in the local tier, so reductions drop half of them),
// a fixed learnt-database cap of 1 to 4, so reduceDB runs after
// almost every conflict and the clause region fills with dead
// clauses, and the intake: bit 0x40 loads the clauses in bulk
// (BulkLoad) until the first Preprocess or Solve. Each later byte is an operation: AddClause, Freeze or
// NewVar (up to 12 variables), Preprocess (at most once), Solve under up to three assumptions,
// Solve followed by a clause blocking the model and a re-solve, or a
// relocation of the region. Every Sat answer's model, eliminated
// variables included, must satisfy every clause added so far and the
// assumptions.
func FuzzSolverScript(f *testing.F) {
	f.Add([]byte("\x05\x01\x00\x06\x08\x0b\x01\x03\x05\x07\x07\x04\x05\x02\x01\x0e"))
	f.Add([]byte("\x0b\x06\x01\x04\x02\x0c\x11\x02\x03\x00\x04\x13\x06\x07\x07\x07\x07"))
	f.Fuzz(func(t *testing.T, data []byte) {
		runSolverScript(t, data)
	})
}

// scriptReader hands out the bytes of a fuzz input, then zeros.
type scriptReader struct{ data []byte }

func (r *scriptReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

func runSolverScript(t *testing.T, data []byte) {
	r := &scriptReader{data}
	n := 1 + r.next()%12
	setup := r.next()
	s := New()
	s.SetInprocess(setup&1 == 1)
	s.inpro.chrono = 1
	s.maxLearnts, s.learntGrowth = float64(1+setup>>1%4), 1
	if setup&8 != 0 {
		s.inpro.coreLBD, s.inpro.midLBD = 0, 0
	}
	if setup&0x40 != 0 {
		s.BulkLoad()
	}
	newVars(s, n)

	var clauses [][]Lit // every clause added, blocking clauses included
	preprocessed := false
	lit := func() Lit { b := r.next(); return MkLit(b>>1%n, b&1 == 1) }
	// live reports whether no literal mentions an eliminated variable
	// (such clauses and assumptions are outside the contract).
	live := func(lits []Lit) bool {
		return !slices.ContainsFunc(lits, func(l Lit) bool { return s.Eliminated(l.Var()) })
	}
	add := func(lits []Lit) {
		if live(lits) {
			clauses = append(clauses, lits)
			s.AddClause(lits...)
		}
	}
	solve := func(step int, assumptions []Lit) Status {
		got := s.Solve(assumptions...)
		all := slices.Clone(clauses)
		for _, a := range assumptions {
			all = append(all, []Lit{a})
		}
		want := bruteForce(n, all)
		if got == Unknown || (got == Sat) != want {
			t.Fatalf("step %d: Solve(%v) = %v, brute force sat=%v\nclauses %v", step, assumptions, got, want, clauses)
		}
		if got == Sat {
			for _, cl := range all {
				if !slices.ContainsFunc(cl, s.ValueLit) {
					t.Fatalf("step %d: model falsifies %v", step, cl)
				}
			}
		}
		return got
	}

	for step := 0; step < 64 && len(r.data) > 0; step++ {
		switch r.next() % 9 {
		case 0, 1, 2:
			cl := make([]Lit, 1+r.next()%4)
			for i := range cl {
				cl[i] = lit()
			}
			add(cl)
		case 3:
			if b := r.next(); b&0x80 != 0 && n < 12 {
				s.NewVar()
				n++
			} else {
				s.Freeze(b % n)
			}
		case 4:
			if !preprocessed {
				preprocessed = true
				s.Preprocess()
			}
		case 5, 6:
			as := make([]Lit, r.next()%4)
			for i := range as {
				as[i] = lit()
			}
			if live(as) {
				solve(step, as)
			}
		case 7:
			if solve(step, nil) != Sat {
				continue
			}
			var block []Lit
			for v := 0; v < n; v++ {
				if !s.Eliminated(v) {
					block = append(block, MkLit(v, s.Value(v)))
				}
			}
			add(block)
			solve(step, nil)
		case 8:
			s.garbageCollect()
		}
	}
}

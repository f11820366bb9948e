package sat

import (
	"slices"
	"testing"
)

// FuzzSolverScript decodes its input into an incremental script over
// at most 12 variables and checks every answer against brute force.
//
// The first byte picks the initial variable count, the second the solver
// set-up: bit 0 sets chronological backtracking at every chance
// (chrono = 1) instead of the default threshold; bits 1-2 fix a
// learnt-database cap of 1 to 4, so reduceDB runs after almost every
// conflict and the clause region fills with dead clauses; bit 3 puts
// every learnt clause in the local tier, so reductions drop half of
// them; bit 0x40 loads the clauses in bulk (BulkLoad) until the
// first Preprocess or Solve; and bit 0x80 installs an order theory
// (SetOrder) over 3 to 5 nodes, one more byte each for the node count
// and every entry: a constant, or a literal over the script's
// variables, so entries share variables. Its eager transitivity
// clauses join the clauses the answers are checked against. Each
// later byte is an operation:
// AddClause, Freeze or NewVar (up to 12 variables), Preprocess (at most
// once), Solve under up to three assumptions, Solve followed by a
// clause blocking the model and a re-solve, or a relocation of the
// region. Every Sat answer's model, eliminated variables included,
// must satisfy every clause added so far and the assumptions.
func FuzzSolverScript(f *testing.F) {
	f.Add([]byte("\x05\x01\x00\x06\x08\x0b\x01\x03\x05\x07\x07\x04\x05\x02\x01\x0e"))
	f.Add([]byte("\x0b\x06\x01\x04\x02\x0c\x11\x02\x03\x00\x04\x13\x06\x07\x07\x07\x07"))
	// An order over 4 nodes whose 6 entries are distinct variables, then
	// solves that each block the model they found and solve again.
	f.Add([]byte("\x07\x80\x01\x02\x12\x22\x32\x42\x52\x07\x07\x07\x07\x07\x07\x07\x07"))
	// Constants, shared variables and negated entries over 5 nodes,
	// with chronological backtracking, side clauses and assumptions.
	f.Add([]byte("\x05\x81\x02\x00\x1a\x2b\x12\x01\x3c\x1d\x4a\x02\x2e\x00\x03\x05\x06\x02\x01\x00\x05\x03\x04\x07\x00\x01\x02\x07\x06\x02\x00\x03"))
	// Bulk intake, an order over 3 nodes, a side clause, Preprocess,
	// then solves under assumptions and with blocking clauses.
	f.Add([]byte("\x0b\xc0\x00\x02\x13\x2a\x00\x02\x08\x0b\x11\x04\x05\x01\x03\x07\x06\x02\x04\x05\x07"))
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
	if setup&1 != 0 {
		s.search.chrono = 1
	}
	s.maxLearnts, s.learntGrowth = float64(1+setup>>1%4), 1
	if setup&8 != 0 {
		s.search.coreLBD, s.search.midLBD = 0, 0
	}
	if setup&0x40 != 0 {
		s.BulkLoad()
	}
	newVars(s, n)

	var clauses [][]Lit // every clause added, blocking clauses included
	if setup&0x80 != 0 {
		in := orderInstance{n: 3 + r.next()%3}
		in.mat = make([][]Lit, in.n)
		for a := range in.mat {
			in.mat[a] = make([]Lit, in.n)
			for b := a + 1; b < in.n; b++ {
				switch e := r.next(); e % 8 {
				case 0:
					in.mat[a][b] = OrderTrue
				case 1:
					in.mat[a][b] = OrderFalse
				default:
					in.mat[a][b] = MkLit(e>>4%n, e&8 != 0)
				}
			}
		}
		s.SetOrder(in.n, in.lit)
		clauses = in.eager()
	}
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

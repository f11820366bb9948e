package encode

import (
	"fmt"
	"math/rand"
	"testing"

	"checkfence/internal/bitvec"
	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/sat"
)

// assertTransitivity is the paper's eager transitivity encoding, kept
// as the oracle of the solver's order theory: two clauses per unordered
// triple of merge-class representatives. Merged pairs share their
// representative's node, so a representative triple covers every
// member triple. Clauses trivially satisfied by constants or a repeated
// node are skipped up front. Like the order theory, it freezes the
// order variables. It returns the number of clauses emitted.
func (e *Encoder) assertTransitivity(reps []int) int {
	for ii, i := range reps {
		for _, j := range reps[ii+1:] {
			if m := e.mLess(i, j); m != bitvec.True && m != bitvec.False {
				e.S.Freeze(e.B.Lit(m).Var())
			}
		}
	}
	emitted := 0
	for ii := 0; ii < len(reps); ii++ {
		i := reps[ii]
		for jj := ii + 1; jj < len(reps); jj++ {
			j := reps[jj]
			a := e.mLess(i, j)
			for kk := jj + 1; kk < len(reps); kk++ {
				k := reps[kk]
				b := e.mLess(j, k)
				c := e.mLess(i, k)
				if !(a == bitvec.False || b == bitvec.False || c == bitvec.True || c == a || c == b) {
					e.B.AssertOr(a.Not(), b.Not(), c)
					emitted++
				}
				if !(a == bitvec.True || b == bitvec.True || c == bitvec.False || a == c || b == c) {
					e.B.AssertOr(a, b, c.Not())
					emitted++
				}
			}
		}
	}
	return emitted
}

// EagerTransitivity makes every encoder built until the test ends emit
// the eager transitivity clauses instead of installing the order
// theory. Tests that use it must not run in parallel with other
// encoding tests.
func EagerTransitivity(t testing.TB) {
	installTransitivity = func(e *Encoder, reps []int) { e.assertTransitivity(reps) }
	t.Cleanup(func() { installTransitivity = (*Encoder).setOrderTheory })
}

// TestTransitivityClausesCount: TransitivityClauses, computed without
// emitting anything, equals the number of clauses the eager encoding
// emits, on random programs under every model with and without the
// order reduction. The last seeds have more than 64 accesses, so the
// count's bitset rows span several words.
func TestTransitivityClausesCount(t *testing.T) {
	models := []memmodel.Model{
		memmodel.SequentialConsistency, memmodel.TSO, memmodel.PSO,
		memmodel.Relaxed, memmodel.Serial,
	}
	total := 0
	for seed := int64(0); seed < 22; seed++ {
		rng := rand.New(rand.NewSource(seed))
		length := 3 + rng.Intn(4)
		if seed >= 20 {
			length = 80
		}
		genThread := func(p string) []lsl.Stmt {
			body := []lsl.Stmt{
				mkConst(p+".xa", lsl.Ptr(0)), mkConst(p+".ya", lsl.Ptr(1)),
				mkConst(p+".one", lsl.Int(1)),
			}
			for i := 0; i < length; i++ {
				addr := p + ".xa"
				if rng.Intn(2) == 0 {
					addr = p + ".ya"
				}
				switch rng.Intn(3) {
				case 0:
					body = append(body, mkStore(addr, p+".one"))
				case 1:
					body = append(body, mkLoad(fmt.Sprintf("%s.r%d", p, i), addr))
				default:
					body = append(body, mkFence(lsl.FenceStoreLoad))
				}
			}
			return body
		}
		tA, tB := genThread("a"), genThread("b")
		model := models[rng.Intn(len(models))]
		if length > 64 {
			model = memmodel.Relaxed // Serial would merge each thread
		}
		for _, cfg := range []Config{{OrderReduce: true}, {}} {
			var emitted int
			installTransitivity = func(e *Encoder, reps []int) { emitted = e.assertTransitivity(reps) }
			e := encodeThreadsCfg(t, model, cfg, initXY(), tA, tB)
			installTransitivity = (*Encoder).setOrderTheory
			if reps := len(e.orderReps()); length > 64 && reps <= 64 {
				t.Fatalf("seed %d: %d representatives, want more than 64", seed, reps)
			}
			if got := e.TransitivityClauses(); got != emitted {
				t.Fatalf("seed %d %v reduce=%v: TransitivityClauses = %d, eager encoding emitted %d",
					seed, model, cfg.OrderReduce, got, emitted)
			}
			total += emitted
			theory := encodeThreadsCfg(t, model, cfg, initXY(), tA, tB)
			if st, want := theory.S.Solve(), e.S.Solve(); st != want || st == sat.Unknown {
				t.Fatalf("seed %d %v reduce=%v: theory %v, eager %v", seed, model, cfg.OrderReduce, st, want)
			}
		}
	}
	if total == 0 {
		t.Fatal("the eager encoding emitted no transitivity clause at all")
	}
}

// Package commit implements the commit-point checking method of the
// authors' earlier case study (CAV'06 [4]), which the paper's Fig. 12
// uses as the baseline for the observation-set method's speedup.
//
// Instead of mining an observation set, the implementation is
// annotated with commit points: each operation executes a commit()
// (a store to the private __commit cell) inside the atomic block of
// its deciding access. The memory order of the commit stores induces
// a serialization of the operations; a SAT-encoded reference circuit
// replays the abstract data type in that order and the check asks for
// an execution where some operation's actual result differs from the
// replayed expectation.
//
// Queue semantics are provided (the Fig. 12 comparison runs on the
// queue tests); the paper notes the method's general weakness — some
// algorithms, like the lazy list, have no known commit points, which
// is one motivation for the observation-set method.
package commit

import (
	"fmt"
	"time"

	"checkfence/internal/bitvec"
	"checkfence/internal/ctrans"
	"checkfence/internal/encode"
	"checkfence/internal/harness"
	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/sat"
)

// Stats quantifies one commit-point check.
type Stats struct {
	Instrs     int
	CNFVars    int
	CNFClauses int
	EncodeTime time.Duration
	RefuteTime time.Duration
	TotalTime  time.Duration
	BoundRound int
}

// Result is the outcome.
type Result struct {
	Impl  string
	Test  string
	Model memmodel.Model
	Pass  bool
	Desc  string // short mismatch description when failing
	Stats Stats
}

// Check runs the commit-point method. The implementation must carry
// commit() annotations (e.g. "msn-commit") and be of kind "queue".
func Check(implName, testName string, model memmodel.Model) (*Result, error) {
	impl, err := harness.Get(implName)
	if err != nil {
		return nil, err
	}
	if impl.Kind != "queue" {
		return nil, fmt.Errorf("commit: only queue semantics are implemented, %s is a %s",
			impl.Name, impl.Kind)
	}
	test, err := harness.GetTest(impl, testName)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{Impl: implName, Test: testName, Model: model}

	built, err := harness.Build(impl, test)
	if err != nil {
		return nil, err
	}
	// Same flow as the core checker: a full check at the initial
	// bounds (counterexamples make bounds irrelevant), then the shared
	// bound loop, then one final check at the converged bounds.
	u, err := built.StartUnrolling(nil, true)
	if err != nil {
		return nil, err
	}
	// Each formula is dead before the next is built, so each one is
	// built on the solver and circuit builder of the one before it
	// (encode.NewReusing). Converge asks for a probe only once it has
	// read the answer of the previous one.
	failed, enc, err := runCommitCheck(res, built, u, model, nil)
	if err != nil {
		return nil, err
	}
	if !failed {
		grew, err := u.Converge(model, func(m memmodel.Model) (*encode.Encoder, error) {
			probe, err := encode.NewReusing(enc, []memmodel.Model{m}, u.Info, solvedAsEncoded())
			if err != nil {
				return nil, err
			}
			enc = probe
			return probe, probe.Encode(u.Threads)
		})
		if err != nil {
			return nil, err
		}
		if grew {
			if _, _, err := runCommitCheck(res, built, u, model, enc); err != nil {
				return nil, err
			}
		}
	}
	res.Stats.BoundRound = u.Rounds
	res.Stats.TotalTime = time.Since(start)
	return res, nil
}

// solvedAsEncoded is the encoder configuration of the baseline's
// formulas: the full pipeline except preprocessing, since each one is
// solved as encoded (see encode.Config.Preprocess).
func solvedAsEncoded() encode.Config {
	cfg := encode.DefaultConfig()
	cfg.Preprocess = false
	return cfg
}

// runCommitCheck encodes and solves the commit-point condition at the
// current bounds, on the storage of prev when that is non-nil (see
// encode.NewReusing), filling res. It reports whether a violation was
// found, and returns its encoder, which nothing reads afterwards.
func runCommitCheck(res *Result, built *harness.Built, u *harness.Unrolling,
	model memmodel.Model, prev *encode.Encoder) (bool, *encode.Encoder, error) {

	encStart := time.Now()
	enc, err := encode.NewReusing(prev, []memmodel.Model{model}, u.Info, solvedAsEncoded())
	if err != nil {
		return false, nil, err
	}
	if err := enc.Encode(u.Threads); err != nil {
		return false, nil, err
	}
	enc.AssertNoOverflow()
	bad, err := buildSpecCircuit(enc, built)
	if err != nil {
		return false, nil, err
	}
	enc.B.Assert(enc.B.Or(bad, enc.ErrorNode()))
	res.Stats.EncodeTime += time.Since(encStart)
	res.Stats.Instrs = u.Instrs

	refStart := time.Now()
	st := enc.S.Solve()
	res.Stats.RefuteTime += time.Since(refStart)
	ss := enc.S.Stats()
	res.Stats.CNFVars = ss.Vars
	res.Stats.CNFClauses = ss.Clauses
	switch st {
	case sat.Sat:
		res.Pass = false
		res.Desc = "operation result differs from commit-order replay"
		return true, enc, nil
	case sat.Unsat:
		res.Pass = true
		return false, enc, nil
	default:
		return false, nil, fmt.Errorf("commit: solver returned %v", st)
	}
}

// opCommit holds the commit candidates of one operation invocation.
type opCommit struct {
	op       harness.ObsOp
	accesses []int // commit-store access indices in program order
}

// buildSpecCircuit returns a node that is true iff some operation's
// observed result disagrees with the queue replayed in commit order
// (or some operation never committed).
func buildSpecCircuit(enc *encode.Encoder, built *harness.Built) (bitvec.Node, error) {
	g, ok := built.Unit.Prog.GlobalByName(ctrans.CommitGlobal)
	if !ok {
		return bitvec.False, fmt.Errorf("commit: %s has no commit annotations", built.Impl.Name)
	}
	commitLoc := lsl.LocOf(lsl.Ptr(g.Base))

	// Group commit stores by operation invocation (thread, opID). A
	// commit store is recognized by its address register's value set:
	// exactly the __commit cell.
	byOp := map[[2]int][]int{}
	for i, a := range enc.Accesses {
		if a.IsLoad {
			continue
		}
		addrs := enc.Info.AddrSet(a.AddrReg)
		if len(addrs) != 1 || lsl.LocOf(addrs[0]) != commitLoc {
			continue
		}
		byOp[[2]int{a.Thread, a.OpID}] = append(byOp[[2]int{a.Thread, a.OpID}], i)
	}

	var ops []opCommit
	for _, oo := range built.ObsOps {
		accs := byOp[[2]int{oo.Thread, oo.Seg}]
		if len(accs) == 0 {
			return bitvec.False, fmt.Errorf(
				"commit: operation %s (thread %d, seg %d) has no commit point",
				oo.Mnemonic, oo.Thread, oo.Seg)
		}
		ops = append(ops, opCommit{op: oo, accesses: accs})
	}

	b := enc.B
	// Effective commit per op: the program-order-last executed
	// candidate.
	eff := make([][]bitvec.Node, len(ops))
	committed := make([]bitvec.Node, len(ops))
	for i, oc := range ops {
		eff[i] = make([]bitvec.Node, len(oc.accesses))
		later := bitvec.False
		for k := len(oc.accesses) - 1; k >= 0; k-- {
			exec := enc.Accesses[oc.accesses[k]].Exec
			eff[i][k] = b.And(exec, later.Not())
			later = b.Or(later, exec)
		}
		committed[i] = later
	}

	// before(i,j): op i's effective commit precedes op j's in <M.
	// Same-thread pairs fold to constants (commit stores target one
	// cell, so program order pins their memory order); cross-thread
	// pairs get a dedicated order variable coupled clausally to the
	// memory order of the effective commits, which propagates far
	// better than an or-tree over all candidate pairs.
	n := len(ops)
	beforeM := make([][]bitvec.Node, n)
	for i := range beforeM {
		beforeM[i] = make([]bitvec.Node, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			oi, oj := ops[i].op, ops[j].op
			var bij bitvec.Node
			switch {
			case oi.Thread == oj.Thread:
				bij = bitvec.Const(oi.Seg < oj.Seg)
			case oi.Thread == 0:
				bij = bitvec.True // init ops precede everything
			case oj.Thread == 0:
				bij = bitvec.False
			default:
				bij = b.Var()
				for ci, c := range ops[i].accesses {
					for dj, d := range ops[j].accesses {
						m := mNode(enc, c, d)
						pre := b.And(eff[i][ci], eff[j][dj])
						// pre -> (bij <-> m)
						b.AssertOr(pre.Not(), m.Not(), bij)
						b.AssertOr(pre.Not(), m, bij.Not())
					}
				}
			}
			beforeM[i][j] = bij
			beforeM[j][i] = bij.Not()
		}
	}
	// Redundant transitivity over the op order speeds up refutation.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if i == j || j == k || i == k {
					continue
				}
				b.AssertOr(beforeM[i][j].Not(), beforeM[j][k].Not(), beforeM[i][k])
			}
		}
	}
	before := func(i, j int) bitvec.Node { return beforeM[i][j] }

	// Serialization position of each op.
	posW := bitvec.WidthFor(int64(n))
	pos := make([]bitvec.BV, n)
	for i := 0; i < n; i++ {
		cnt := bitvec.ConstBV(posW, 0)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			bit := make(bitvec.BV, 1)
			bit[0] = before(j, i)
			cnt = b.AddBV(cnt, bit.Extend(posW))
		}
		pos[i] = cnt
	}

	// One-hot step selectors. When every operation commits, each step
	// is taken by exactly one operation; asserting that (conditional
	// on all-committed, so non-committing counterexamples survive)
	// gives the solver direct propagation across the replay circuit,
	// which plain adder chains lack.
	allCommitted := b.AndAll(committed...)
	sel := make([][]bitvec.Node, n)
	for i := 0; i < n; i++ {
		sel[i] = make([]bitvec.Node, n)
		for t := 0; t < n; t++ {
			sel[i][t] = b.EqBV(pos[i], bitvec.ConstBV(posW, int64(t)))
		}
	}
	for t := 0; t < n; t++ {
		atLeast := []bitvec.Node{allCommitted.Not()}
		for i := 0; i < n; i++ {
			atLeast = append(atLeast, sel[i][t])
			for j := i + 1; j < n; j++ {
				b.AssertOr(allCommitted.Not(), sel[i][t].Not(), sel[j][t].Not())
			}
		}
		b.AssertOr(atLeast...)
	}

	// Replay the queue in commit order.
	capacity := 0
	for _, oc := range ops {
		if oc.op.Mnemonic == "e" {
			capacity++
		}
	}
	if capacity == 0 {
		capacity = 1
	}
	ctrW := bitvec.WidthFor(int64(capacity + 1))
	slots := make([]bitvec.Node, capacity)
	for i := range slots {
		slots[i] = bitvec.False
	}
	head := bitvec.ConstBV(ctrW, 0)
	tail := bitvec.ConstBV(ctrW, 0)

	argBit := func(i int) bitvec.Node {
		if ops[i].op.ArgIdx < 0 {
			return bitvec.False
		}
		ent := built.Entries[ops[i].op.ArgIdx]
		sv := enc.Envs[ent.Thread][ent.Reg]
		return sv.Comps[0][0]
	}
	entryVal := func(idx int) (encode.SymVal, error) {
		ent := built.Entries[idx]
		sv, ok := enc.Envs[ent.Thread][ent.Reg]
		if !ok {
			return encode.SymVal{}, fmt.Errorf("commit: missing register %s", ent.Reg)
		}
		return sv, nil
	}

	bad := bitvec.False
	for i := range ops {
		bad = b.Or(bad, committed[i].Not())
	}

	expRet := make([]bitvec.Node, n) // for dequeues: expected non-empty
	expOut := make([]bitvec.Node, n) // expected value bit
	for i := range ops {
		expRet[i] = bitvec.False
		expOut[i] = bitvec.False
	}

	for t := 0; t < n; t++ {
		tc := bitvec.ConstBV(posW, int64(t))
		newSlots := append([]bitvec.Node(nil), slots...)
		newHead, newTail := head, tail
		for i, oc := range ops {
			sel := b.EqBV(pos[i], tc)
			switch oc.op.Mnemonic {
			case "e":
				v := argBit(i)
				for s := 0; s < capacity; s++ {
					atSlot := b.And(sel, b.EqBV(tail, bitvec.ConstBV(ctrW, int64(s))))
					newSlots[s] = b.Ite(atSlot, v, newSlots[s])
				}
				newTail = b.MuxBV(sel, b.AddBV(tail, bitvec.ConstBV(ctrW, 1)), newTail)
			case "d":
				empty := b.EqBV(head, tail)
				out := bitvec.False
				for s := 0; s < capacity; s++ {
					out = b.Ite(b.EqBV(head, bitvec.ConstBV(ctrW, int64(s))), slots[s], out)
				}
				expRet[i] = b.Ite(sel, empty.Not(), expRet[i])
				expOut[i] = b.Ite(sel, out, expOut[i])
				adv := b.And(sel, empty.Not())
				newHead = b.MuxBV(adv, b.AddBV(head, bitvec.ConstBV(ctrW, 1)), newHead)
			default:
				return bitvec.False, fmt.Errorf("commit: unsupported op %q", oc.op.Mnemonic)
			}
		}
		slots, head, tail = newSlots, newHead, newTail
	}

	// Compare actual results against the replay.
	for i, oc := range ops {
		if oc.op.RetIdx >= 0 {
			actual, err := entryVal(oc.op.RetIdx)
			if err != nil {
				return bitvec.False, err
			}
			want := enc.BoolVal(expRet[i])
			bad = b.Or(bad, enc.EqVal(actual, want).Not())
		}
		if oc.op.OutIdx >= 0 {
			actual, err := entryVal(oc.op.OutIdx)
			if err != nil {
				return bitvec.False, err
			}
			outBV := make(bitvec.BV, 1)
			outBV[0] = expOut[i]
			want := enc.MuxVal(expRet[i], enc.IntVal(outBV), enc.UndefVal())
			bad = b.Or(bad, enc.EqVal(actual, want).Not())
		}
	}
	return bad, nil
}

// mNode adapts the encoder's memory-order relation as a circuit node.
func mNode(enc *encode.Encoder, i, j int) bitvec.Node {
	return enc.MemOrderNode(i, j)
}

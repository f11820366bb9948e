// Package trace decodes satisfying assignments of the inclusion check
// into human-readable counterexample traces: the executed memory
// accesses of every thread, annotated with their values and sorted by
// the memory order the SAT solver chose.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"checkfence/internal/encode"
	"checkfence/internal/harness"
	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/spec"
)

// Event is one executed memory access in the counterexample.
type Event struct {
	MemOrder   int // position in the memory order <M
	Thread     int
	ThreadName string
	ProgIdx    int // program-order position within the thread
	OpID       int // operation invocation id (-1 for none)
	Group      int // atomic block id (-1 for none)
	IsLoad     bool
	Addr       lsl.Value
	AddrName   string // symbolic rendering of the address
	Val        lsl.Value
	Desc       string // source form of the instruction
}

// Fence is one executed fence occurrence.
type Fence struct {
	Thread  int
	ProgIdx int
	Kind    lsl.FenceKind
}

// Trace is a decoded counterexample.
type Trace struct {
	Model       memmodel.Model
	Events      []Event
	Fences      []Fence
	Havocs      [][]int64 // per thread, executed havoc values in program order
	Observation spec.Observation
	Entries     []spec.Entry
	IsErr       bool
	ErrMsg      string
	// OrderTies counts executed access pairs the solver left mutually
	// unordered. A consistent model of the order axioms never produces
	// one (the relation is constrained to a strict total order); the
	// validator treats a nonzero count as an internal error.
	OrderTies int
}

// Build extracts a trace from an encoder whose solver holds a
// counterexample model, naming addresses and threads via the harness
// metadata.
func Build(enc *encode.Encoder, built *harness.Built, unrolled *harness.Unrolled,
	cex *spec.Counterexample) *Trace {

	names, threadNames := HarnessNames(built, unrolled)
	t := Decode(enc, cex, built.Entries, names, threadNames)
	return t
}

// HarnessNames derives the address-naming map and thread names Build
// uses, for backends (internal/rf) that construct traces without an
// encoder model to decode.
func HarnessNames(built *harness.Built, unrolled *harness.Unrolled) (map[int64]string, []string) {
	names := map[int64]string{}
	for _, g := range built.Unit.Prog.Globals {
		names[g.Base] = g.Name
	}
	for base, site := range unrolled.Allocs {
		names[base] = shortSite(site, base)
	}
	threadNames := make([]string, len(unrolled.Threads))
	for i, th := range unrolled.Threads {
		threadNames[i] = th.Name
	}
	return names, threadNames
}

// Decode extracts a trace from an encoder whose solver holds a
// counterexample model. names and threadNames are optional decoration
// (the litmus fuzzer has no harness to derive them from).
func Decode(enc *encode.Encoder, cex *spec.Counterexample, entries []spec.Entry,
	names map[int64]string, threadNames []string) *Trace {

	t := &Trace{
		Model:       enc.Model,
		Observation: cex.Obs,
		Entries:     entries,
		IsErr:       cex.IsErr,
		ErrMsg:      cex.Err,
	}

	type ordered struct {
		ev     Event
		before int // number of accesses ordered before it
	}
	var evs []ordered
	for i, a := range enc.Accesses {
		if !enc.B.Eval(a.Exec) {
			continue
		}
		before := 0
		for j := range enc.Accesses {
			if j == i || !enc.B.Eval(enc.Accesses[j].Exec) {
				continue
			}
			if enc.MemOrderBefore(j, i) {
				before++
			}
		}
		addr := enc.EvalVal(a.Addr)
		name := ""
		tname := "init"
		if a.Thread > 0 && a.Thread < len(threadNames) {
			tname = threadNames[a.Thread]
		}
		if addr.Kind == lsl.KindPtr {
			name = renderAddr(addr, names)
		}
		evs = append(evs, ordered{
			ev: Event{
				Thread: a.Thread, ThreadName: tname,
				ProgIdx: a.ProgIdx, OpID: a.OpID, Group: a.Group,
				IsLoad: a.IsLoad,
				Addr:   addr, AddrName: name, Val: enc.EvalVal(a.Val),
				Desc: a.Desc,
			},
			before: before,
		})
	}
	// In a consistent model the before-counts 0..n-1 are all distinct;
	// a tie means the decoded order is not total. Record it (the
	// validator rejects such traces) and break the tie deterministically
	// on (thread, program index) so output stays stable either way.
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.before != b.before {
			return a.before < b.before
		}
		if a.ev.Thread != b.ev.Thread {
			return a.ev.Thread < b.ev.Thread
		}
		return a.ev.ProgIdx < b.ev.ProgIdx
	})
	for i := 1; i < len(evs); i++ {
		if evs[i].before == evs[i-1].before {
			t.OrderTies++
		}
	}
	for i, o := range evs {
		o.ev.MemOrder = i
		t.Events = append(t.Events, o.ev)
	}

	for _, f := range enc.Fences {
		if !enc.B.Eval(f.Exec) {
			continue
		}
		t.Fences = append(t.Fences, Fence{Thread: f.Thread, ProgIdx: f.ProgIdx, Kind: f.Kind})
	}
	sort.SliceStable(t.Fences, func(i, j int) bool {
		if t.Fences[i].Thread != t.Fences[j].Thread {
			return t.Fences[i].Thread < t.Fences[j].Thread
		}
		return t.Fences[i].ProgIdx < t.Fences[j].ProgIdx
	})

	// Havocs of one thread were recorded in program order; keep that
	// order per thread so replay can consume them sequentially.
	nThreads := len(threadNames)
	for _, h := range enc.Havocs {
		if h.Thread >= nThreads {
			nThreads = h.Thread + 1
		}
	}
	t.Havocs = make([][]int64, nThreads)
	for _, h := range enc.Havocs {
		if !enc.B.Eval(h.Exec) {
			continue
		}
		t.Havocs[h.Thread] = append(t.Havocs[h.Thread], enc.B.EvalBV(h.Val))
	}
	return t
}

func shortSite(site string, base int64) string {
	// Site keys look like "t1.s0/0:enqueue/new"; keep the function
	// and number the object by base for readability.
	parts := strings.Split(site, "/")
	fn := parts[len(parts)-1]
	if len(parts) >= 2 {
		seg := parts[len(parts)-2]
		if i := strings.Index(seg, ":"); i >= 0 {
			fn = seg[i+1:]
		}
	}
	return fmt.Sprintf("node%d(%s)", base, fn)
}

// RenderAddr renders a concrete pointer address with the
// global/allocation names of the harness (shared with the rf
// backend's trace builder).
func RenderAddr(addr lsl.Value, names map[int64]string) string {
	return renderAddr(addr, names)
}

func renderAddr(addr lsl.Value, names map[int64]string) string {
	base := addr.Ptr[0]
	name, ok := names[base]
	if !ok {
		name = fmt.Sprintf("obj%d", base)
	}
	var sb strings.Builder
	sb.WriteString(name)
	for _, off := range addr.Ptr[1:] {
		fmt.Fprintf(&sb, ".%d", off)
	}
	return sb.String()
}

// String renders the trace.
func (t *Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "counterexample on model %s\n", t.Model)
	if t.IsErr {
		fmt.Fprintf(&sb, "runtime error: %s\n", t.ErrMsg)
	}
	fmt.Fprintf(&sb, "observation: %s\n", t.Observation.Format(t.Entries))
	fmt.Fprintf(&sb, "memory order (%d accesses):\n", len(t.Events))
	for _, ev := range t.Events {
		kind := "store"
		if ev.IsLoad {
			kind = "load "
		}
		addr := ev.AddrName
		if addr == "" {
			addr = ev.Addr.String()
		}
		fmt.Fprintf(&sb, "  %3d  [%-8s] %s %-18s = %-10s ; %s\n",
			ev.MemOrder, ev.ThreadName, kind, addr, ev.Val, ev.Desc)
	}
	return sb.String()
}
